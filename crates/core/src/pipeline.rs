//! The GenEdit SQL-generation pipeline (§2.1, §3).
//!
//! Operators, in order (numbers match Fig. 1):
//! 1. query reformulation into canonical form,
//! 2. intent classification,
//! 3. example selection (intent retrieval + cosine re-rank),
//! 4. instruction selection (re-ranked by the query *expanded with the
//!    selected examples* — context expansion, §3.1.1),
//! 5. schema linking (model call + re-rank filter),
//!    then CoT plan generation and plan-guided SQL generation with up to
//!    `k` self-correction retries on syntactic/semantic errors.

use crate::cancel::CancelToken;
use crate::config::{CandidateSelection, PipelineConfig};
use crate::index::KnowledgeIndex;
use genedit_knowledge::{ExampleId, FragmentKind, InstructionId, RetrievalStage};
use genedit_llm::{
    CompletionRequest, CompletionResponse, LanguageModel, ModelError, Plan, Prompt, PromptExample,
    PromptInstruction, PromptSchemaElement, ResilienceState, ResilientModel, SystemClock, TaskKind,
    TracedModel,
};
use genedit_retrieval::{cosine, Embedder, Embedding};
use genedit_sql::catalog::Database;
use genedit_sql::exec::execute_sql_timed;
use genedit_telemetry::{names, MetricsRegistry, Trace, Tracer};
use std::sync::Arc;

/// Everything produced by one generation run. The feedback module consumes
/// the used-knowledge lists (operator "Generate Targets", §4.1).
#[derive(Debug, Clone)]
pub struct GenerationResult {
    /// Final SQL (present even when it never validated — the caller
    /// decides what to do with a failing query).
    pub sql: Option<String>,
    /// Generation rounds used (1 = no retry needed).
    pub attempts: usize,
    /// Whether the final SQL parsed and executed.
    pub validated: bool,
    /// Whether generation was cut short by a [`CancelToken`] (explicit
    /// cancellation or deadline expiry). A cancelled result carries
    /// whatever operator outputs were already computed, no SQL, and a
    /// warning naming the stage it stopped after.
    pub cancelled: bool,
    /// The chain-of-thought plan the SQL was generated from, if any.
    pub plan: Option<Plan>,
    /// The reformulated question (operator 1 output).
    pub reformulated: String,
    /// Classified user intents (operator 2 output).
    pub intents: Vec<String>,
    /// Validation errors from failed self-correction attempts.
    pub errors: Vec<String>,
    /// Ids of the example fragments that entered the prompt.
    pub used_examples: Vec<ExampleId>,
    /// Ids of the instructions that entered the prompt.
    pub used_instructions: Vec<InstructionId>,
    /// Keys of the linked schema elements.
    pub used_schema: Vec<String>,
    /// The final SQL-generation prompt, for inspection/demos (Fig. 2).
    pub final_prompt: Prompt,
    /// Model-response fallbacks and other anomalies the pipeline
    /// previously swallowed silently (mirrors `trace.warnings`).
    pub warnings: Vec<String>,
    /// The span trace of this generation: one span per operator, LLM
    /// call, and self-correction attempt.
    pub trace: Trace,
}

impl GenerationResult {
    /// A partial result for a generation cut short by cancellation:
    /// whatever operator outputs exist so far, no SQL, `cancelled` set.
    /// The caller patches in any later-stage fields it already computed;
    /// the `generate` wrapper fills trace and warnings as usual.
    fn cancelled_at(reformulated: String, intents: Vec<String>) -> GenerationResult {
        GenerationResult {
            sql: None,
            attempts: 0,
            validated: false,
            cancelled: true,
            plan: None,
            reformulated,
            intents,
            errors: Vec::new(),
            used_examples: Vec::new(),
            used_instructions: Vec::new(),
            used_schema: Vec::new(),
            final_prompt: Prompt::new(TaskKind::SqlGeneration, ""),
            warnings: Vec::new(),
            trace: Trace::empty(names::GENERATE),
        }
    }

    /// Canonical semantic fingerprint: everything a caller acts on — SQL,
    /// reformulation, intents, the knowledge that entered the prompt,
    /// validation errors and the verdict — and nothing that legitimately
    /// differs between two runs of the same generation (span timings in
    /// `trace`, `warnings`, attempt counts). Cached, batched, hedged and
    /// fault-injected runs are gated on this string being byte-identical
    /// to the plain run's.
    pub fn fingerprint(&self) -> String {
        format!(
            "sql={:?}|reform={:?}|intents={:?}|ex={:?}|ins={:?}|schema={:?}|errors={:?}|validated={}",
            self.sql,
            self.reformulated,
            self.intents,
            self.used_examples,
            self.used_instructions,
            self.used_schema,
            self.errors,
            self.validated
        )
    }

    /// How many spans took their degradation path during this generation
    /// (operators or attempts marked `degraded` after losing their model
    /// call). A non-zero count means the output came from a weakened
    /// pipeline — consumers comparing runs (e.g. the regression gate)
    /// should treat such runs as less trustworthy.
    pub fn degraded_operator_count(&self) -> usize {
        self.trace
            .all_spans()
            .iter()
            .filter(|s| {
                matches!(
                    s.attr("degraded"),
                    Some(genedit_telemetry::AttrValue::Bool(true))
                )
            })
            .count()
    }
}

/// Serving-layer hooks for one generation. Everything defaults to off —
/// `generate` is `generate_with` under default options.
#[derive(Debug, Clone, Default)]
pub struct GenerateOptions<'a> {
    /// Checked between operators; when it fires, generation returns a
    /// partial result with `cancelled = true` instead of continuing.
    pub cancel: Option<&'a CancelToken>,
    /// A previously computed operator-1 output for this exact question
    /// (same knowledge epoch). When present the reformulation model call
    /// is skipped and the span is marked `cached`.
    pub reformulation: Option<String>,
    /// The query embedding of `reformulation` under the *current* index's
    /// embedder. Only honored together with `reformulation` — an
    /// embedding without the text it embeds would be unverifiable.
    pub query_embedding: Option<Embedding>,
    /// Ensemble fan-out width for the generation stage. `Some(n)` with
    /// `n > 1` overrides [`PipelineConfig::candidates`] and samples the
    /// `n` CoT plan and SQL candidates **in parallel** (one scoped thread
    /// per seed), selecting by the configured
    /// [`CandidateSelection`] vote over
    /// candidates processed in seed order — byte-identical to sampling
    /// the same seeds serially. Parallel candidates issued over a
    /// [`BatchScheduler`](genedit_llm::BatchScheduler) coalesce into a
    /// single backend round trip. `None` (the default) keeps the serial
    /// path untouched.
    pub ensemble_width: Option<usize>,
    /// The serving-layer request ID, when this generation runs on behalf
    /// of an admitted serve request. Recorded as a `request_id` attribute
    /// on the root span so traces, metric exemplars, and flight-recorder
    /// dumps are joinable.
    pub request_id: Option<&'a str>,
}

/// The pipeline. Generic over the model so tests can stub it; in the
/// reproduction the model is the deterministic oracle.
pub struct GenEditPipeline<M> {
    model: M,
    config: PipelineConfig,
    metrics: Option<Arc<MetricsRegistry>>,
    resilience: Option<Arc<ResilienceState>>,
}

impl<M: LanguageModel> GenEditPipeline<M> {
    /// Pipeline over `model` with the default configuration.
    pub fn new(model: M) -> GenEditPipeline<M> {
        GenEditPipeline::with_config(model, PipelineConfig::default())
    }

    /// Pipeline over `model` with an explicit configuration. A
    /// `config.resilience` policy builds a fresh retry/breaker runtime
    /// over the system clock.
    pub fn with_config(model: M, config: PipelineConfig) -> GenEditPipeline<M> {
        let resilience = config.resilience.clone().map(|policy| {
            Arc::new(ResilienceState::new(
                policy,
                Arc::new(SystemClock::new()) as Arc<dyn genedit_llm::Clock>,
            ))
        });
        GenEditPipeline {
            model,
            config,
            metrics: None,
            resilience,
        }
    }

    /// Attach a shared metrics registry: every generation folds its trace
    /// and validation timings into it.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> GenEditPipeline<M> {
        if let Some(state) = self.resilience.take() {
            // Rebuild the state so retry/breaker events land in the same
            // registry (states built from config carry no other history).
            self.resilience = Some(Arc::new(
                ResilienceState::new(state.policy().clone(), Arc::clone(state.clock()))
                    .with_metrics(Arc::clone(&metrics)),
            ));
        }
        self.metrics = Some(metrics);
        self
    }

    /// Replace the resilience runtime (breakers + clock) with a shared
    /// one, e.g. a harness-wide state over a simulated clock. Implies the
    /// wrapped model path even if `config.resilience` is `None`.
    pub fn with_resilience_state(mut self, state: Arc<ResilienceState>) -> GenEditPipeline<M> {
        self.resilience = Some(state);
        self
    }

    /// The active pipeline configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// The shared retry/breaker runtime, when resilience is enabled.
    pub fn resilience_state(&self) -> Option<&Arc<ResilienceState>> {
        self.resilience.as_ref()
    }

    /// The wrapped model.
    pub fn model(&self) -> &M {
        &self.model
    }

    /// The attached metrics registry, if any.
    pub fn metrics(&self) -> Option<&Arc<MetricsRegistry>> {
        self.metrics.as_ref()
    }

    /// Run the full pipeline for one question.
    ///
    /// `evidence` carries benchmark-provided evidence strings; GenEdit
    /// itself runs with `include_evidence = false` and relies on the
    /// knowledge set. The returned result carries a [`Trace`] with one
    /// span per enabled operator, plan/SQL attempt, and model call.
    pub fn generate(
        &self,
        question: &str,
        index: &KnowledgeIndex,
        db: &Database,
        evidence: &[String],
    ) -> GenerationResult {
        self.generate_with(question, index, db, evidence, &GenerateOptions::default())
    }

    /// [`GenEditPipeline::generate`] with serving-layer hooks: cooperative
    /// cancellation checked between operators, and cached operator-1
    /// outputs (reformulation + its query embedding) that skip the
    /// reformulation model call on warm repeat queries.
    pub fn generate_with(
        &self,
        question: &str,
        index: &KnowledgeIndex,
        db: &Database,
        evidence: &[String],
        opts: &GenerateOptions<'_>,
    ) -> GenerationResult {
        let tracer = Tracer::new(names::GENERATE);
        let mut result = {
            let root = tracer.span(names::GENERATE);
            root.attr("question_chars", question.len());
            if let Some(request_id) = opts.request_id {
                root.attr("request_id", request_id);
            }
            // Resilience wraps *outside* tracing so every retried attempt
            // is its own `llm.complete` span and each backoff an
            // `llm.retry` span.
            let traced = TracedModel::new(&self.model, &tracer);
            let r = match &self.resilience {
                Some(state) => {
                    let resilient =
                        ResilientModel::new(traced, Arc::clone(state)).with_tracer(&tracer);
                    self.generate_core(&resilient, &tracer, question, index, db, evidence, opts)
                }
                None => self.generate_core(&traced, &tracer, question, index, db, evidence, opts),
            };
            root.attr("attempts", r.attempts)
                .attr("validated", r.validated);
            if r.cancelled {
                root.attr("cancelled", true);
            }
            root.finish();
            r
        };
        let trace = tracer.finish();
        result.warnings = trace.warnings.clone();
        result.trace = trace;
        if let Some(metrics) = &self.metrics {
            metrics.record_trace(&result.trace);
        }
        result
    }

    /// The pipeline body. `model` is the traced (and, when resilience is
    /// on, retry-wrapped) view of `self.model`, so every completion lands
    /// as an `llm.complete` child of whichever operator span is open when
    /// it fires. Operators that lose their model call entirely take their
    /// degradation path: a warning plus a `degraded` span attribute, never
    /// a panic or a poisoned result. The trace and warnings fields of the
    /// returned result are placeholders; the `generate` wrapper fills them
    /// after the tracer finishes.
    #[allow(clippy::too_many_arguments)]
    fn generate_core<L: LanguageModel>(
        &self,
        model: &L,
        tracer: &Tracer,
        question: &str,
        index: &KnowledgeIndex,
        db: &Database,
        evidence: &[String],
        opts: &GenerateOptions<'_>,
    ) -> GenerationResult {
        let cfg = &self.config;
        let ks = index.knowledge();
        // Ensemble fan-out engages only on explicit request, so the
        // default serial path (and its call accounting) is untouched.
        let ensemble = opts.ensemble_width.filter(|w| *w > 1);
        let cancelled = |stage: &str| -> bool {
            match opts.cancel {
                Some(token) if token.is_cancelled() => {
                    tracer.warning(format!("generation cancelled after {stage}"));
                    true
                }
                _ => false,
            }
        };

        // ---- operator 1: reformulation -------------------------------
        let reformulated = if let Some(cached) = &opts.reformulation {
            // Warm path: a serving-layer cache already holds this
            // question's canonical form for the current knowledge epoch.
            if cfg.use_reformulation {
                let span = tracer.span(names::REFORMULATE);
                span.attr("cached", true)
                    .attr("chars_in", question.len())
                    .attr("chars_out", cached.len());
                span.finish();
            }
            cached.clone()
        } else if cfg.use_reformulation {
            let span = tracer.span(names::REFORMULATE);
            let prompt = Prompt::new(TaskKind::Reformulate, question);
            let text = match model.complete(&CompletionRequest::new(prompt)) {
                Ok(response) => match response.as_text() {
                    Some(t) => t.to_string(),
                    None => {
                        tracer.warning(
                            "reformulation returned no text; falling back to the raw question",
                        );
                        span.attr("degraded", true);
                        question.to_string()
                    }
                },
                Err(err) => {
                    tracer.warning(format!(
                        "reformulation failed ({err}); falling back to the raw question"
                    ));
                    span.attr("degraded", true);
                    question.to_string()
                }
            };
            span.attr("chars_in", question.len())
                .attr("chars_out", text.len());
            span.finish();
            text
        } else {
            question.to_string()
        };
        if cancelled("reformulation") {
            return GenerationResult::cancelled_at(reformulated, Vec::new());
        }

        // ---- operator 2: intent classification -----------------------
        let intents: Vec<String> = if cfg.use_intent_classification {
            let span = tracer.span(names::INTENT);
            let mut prompt = Prompt::new(TaskKind::IntentClassification, &reformulated);
            prompt.intent_candidates = ks.intents().iter().map(|i| i.key.clone()).collect();
            let candidates = prompt.intent_candidates.len();
            let matched = match model.complete(&CompletionRequest::new(prompt)) {
                Ok(response) => match response.as_items() {
                    Some(v) => v.to_vec(),
                    None => {
                        tracer.warning(
                            "intent classification returned no item list; assuming no intents",
                        );
                        span.attr("degraded", true);
                        Vec::new()
                    }
                },
                // No intents = no retrieval boost: downstream selection
                // ranks over the whole knowledge set (all intents).
                Err(err) => {
                    tracer.warning(format!(
                        "intent classification failed ({err}); retrieving over all intents"
                    ));
                    span.attr("degraded", true);
                    Vec::new()
                }
            };
            span.attr("candidates", candidates)
                .attr("matched", matched.len());
            span.finish();
            matched
        } else {
            Vec::new()
        };
        if cancelled("intent classification") {
            return GenerationResult::cancelled_at(reformulated, intents);
        }

        // ---- operator 3: example selection ---------------------------
        let query_emb = match (&opts.reformulation, &opts.query_embedding) {
            // Only trust a cached embedding when it travelled with the
            // reformulation it embeds (same cache entry, same epoch).
            (Some(_), Some(emb)) if emb.len() == index.embedder().dim() => emb.clone(),
            _ => index.embedder().embed(&reformulated),
        };
        let (prompt_examples, used_examples): (Vec<PromptExample>, Vec<ExampleId>) =
            if cfg.use_examples {
                let span = tracer.span(names::EXAMPLES);
                let top = index.top_examples(&query_emb, &intents, cfg.example_top_k);
                let ids: Vec<ExampleId> = top.iter().map(|(e, _)| e.id).collect();
                let rendered = top
                    .iter()
                    .map(|(e, _)| PromptExample {
                        description: e.description.clone(),
                        sql: e.fragment.sql.clone(),
                        kind: match e.fragment.kind {
                            FragmentKind::FullQuery => None,
                            k => Some(k),
                        },
                        term: e.term.clone(),
                    })
                    .collect();
                span.attr("candidates", ks.examples().len())
                    .attr("selected", ids.len());
                span.finish();
                (rendered, ids)
            } else {
                (Vec::new(), Vec::new())
            };
        if cancelled("example selection") {
            let mut r = GenerationResult::cancelled_at(reformulated, intents);
            r.used_examples = used_examples;
            return r;
        }

        // ---- operator 4: instruction selection (context expansion) ---
        let example_texts: Vec<String> = prompt_examples
            .iter()
            .map(|e| format!("{} {}", e.description, e.sql))
            .collect();
        let (prompt_instructions, used_instructions): (Vec<PromptInstruction>, Vec<InstructionId>) =
            if cfg.use_instructions {
                let span = tracer.span(names::INSTRUCTIONS);
                let mut expansions: Vec<&str> = example_texts.iter().map(|s| s.as_str()).collect();
                let hints = ks.retrieval_hints(RetrievalStage::InstructionSelection);
                expansions.extend(hints.iter().copied());
                let expanded = index.embedder().embed_expanded(&reformulated, &expansions);
                let top = index.top_instructions(&expanded, &intents, cfg.instruction_top_k);
                let ids: Vec<InstructionId> = top.iter().map(|(i, _)| i.id).collect();
                let rendered = top
                    .iter()
                    .map(|(i, _)| PromptInstruction {
                        text: i.text.clone(),
                        sql_hint: i.sql_hint.clone(),
                        term: i.term.clone(),
                    })
                    .collect();
                span.attr("candidates", ks.instructions().len())
                    .attr("selected", ids.len())
                    .attr("expansions", expansions.len());
                span.finish();
                (rendered, ids)
            } else {
                (Vec::new(), Vec::new())
            };
        if cancelled("instruction selection") {
            let mut r = GenerationResult::cancelled_at(reformulated, intents);
            r.used_examples = used_examples;
            r.used_instructions = used_instructions;
            return r;
        }

        // ---- operator 5: schema linking ------------------------------
        let all_schema: Vec<PromptSchemaElement> = ks
            .schema_elements()
            .iter()
            .map(|s| PromptSchemaElement {
                table: s.table.clone(),
                column: s.column.clone(),
                description: s.description.clone(),
                top_values: s.top_values.clone(),
            })
            .collect();
        let schema: Vec<PromptSchemaElement> = if cfg.use_schema_linking {
            let span = tracer.span(names::SCHEMA_LINKING);
            span.attr("candidates", all_schema.len());
            // The LLM identifies relevant elements over the full schema…
            let mut link_prompt = Prompt::new(TaskKind::SchemaLinking, &reformulated);
            link_prompt.schema = all_schema.clone();
            link_prompt.hints = ks
                .retrieval_hints(RetrievalStage::SchemaLinking)
                .iter()
                .map(|s| s.to_string())
                .collect();
            let keys: Vec<String> = match model.complete(&CompletionRequest::new(link_prompt)) {
                Ok(response) => match response.as_items() {
                    Some(v) => v.to_vec(),
                    None => {
                        tracer.warning("schema linking returned no item list; linking no elements");
                        span.attr("degraded", true);
                        Vec::new()
                    }
                },
                // Degradation: link everything — the full schema flows
                // into the re-rank filter below, so generation still gets
                // a bounded (if less precise) schema section.
                Err(err) => {
                    tracer.warning(format!(
                        "schema linking failed ({err}); passing the full schema to the re-ranker"
                    ));
                    span.attr("degraded", true);
                    all_schema.iter().map(|el| el.key()).collect()
                }
            };
            let linked: Vec<PromptSchemaElement> = all_schema
                .iter()
                .filter(|el| keys.iter().any(|k| k == &el.key()))
                .cloned()
                .collect();
            span.attr("linked", linked.len());
            // …then a re-ranker filters to manage the generation model's
            // context (§3.1.1), using the example+instruction-expanded
            // query embedding (more context expansion).
            let kept = if linked.len() > cfg.schema_top_k {
                let instruction_texts: Vec<String> =
                    prompt_instructions.iter().map(|i| i.text.clone()).collect();
                let mut expansions: Vec<&str> = example_texts.iter().map(|s| s.as_str()).collect();
                expansions.extend(instruction_texts.iter().map(|s| s.as_str()));
                let expanded = index.embedder().embed_expanded(&reformulated, &expansions);
                let texts: Vec<String> = linked
                    .iter()
                    .map(|el| {
                        format!(
                            "{} {} {}",
                            el.key(),
                            el.description,
                            el.top_values.join(" ")
                        )
                    })
                    .collect();
                let scores = score_against(index.embedder(), &expanded, &texts);
                let scored: Vec<(PromptSchemaElement, f32)> =
                    linked.into_iter().zip(scores).collect();
                let (kept, stats) =
                    genedit_retrieval::rerank_top_k_with_stats(scored, cfg.schema_top_k);
                if let Some(metrics) = &self.metrics {
                    stats.record(metrics, "schema_linking");
                }
                kept.into_iter().map(|(el, _)| el).collect()
            } else {
                linked
            };
            span.attr("kept", kept.len());
            span.finish();
            kept
        } else {
            // Ablation: no linking — the full warehouse schema ships with
            // the prompt (empty section = "everything attached" to the
            // oracle, matching how un-linked deployments dump the DDL).
            Vec::new()
        };
        let used_schema: Vec<String> = schema.iter().map(|s| s.key()).collect();
        if cancelled("schema linking") {
            let mut r = GenerationResult::cancelled_at(reformulated, intents);
            r.used_examples = used_examples;
            r.used_instructions = used_instructions;
            r.used_schema = used_schema;
            return r;
        }

        // ---- base prompt ----------------------------------------------
        let mut base = Prompt::new(TaskKind::SqlGeneration, &reformulated);
        base.original_question = Some(question.to_string());
        base.examples = prompt_examples;
        base.instructions = prompt_instructions;
        base.schema = schema;
        if cfg.include_evidence {
            base.evidence = evidence.to_vec();
        }

        // ---- CoT plan (§3.1.2) ----------------------------------------
        let plan: Option<Plan> = if cfg.use_plan {
            let span = tracer.span(names::PLAN);
            let mut plan_prompt = base.clone();
            plan_prompt.task = TaskKind::PlanGeneration;
            // Ensemble mode samples `width` chain-of-thought plans in
            // parallel (one seed each) and keeps the plan the most
            // candidates structurally agree on, ties toward the earliest
            // seed. The serial path is a single seed-0 call, exactly as
            // before.
            let completions = match ensemble {
                Some(width) => {
                    span.attr("ensemble", width);
                    complete_parallel(model, &plan_prompt, width as u64)
                }
                None => vec![model.complete(&CompletionRequest::new(plan_prompt.clone()))],
            };
            let candidates: Vec<Plan> = completions
                .iter()
                .filter_map(|c| c.as_ref().ok().and_then(|r| r.as_plan()).cloned())
                .collect();
            let voted = candidates
                .iter()
                .enumerate()
                .max_by_key(|(i, p)| {
                    let votes = candidates.iter().filter(|other| other == p).count();
                    (votes, std::cmp::Reverse(*i))
                })
                .map(|(_, p)| p.clone());
            let p = if let Some(p) = voted {
                Some(p)
            } else {
                // No candidate parsed as a plan: degrade exactly like the
                // single-call path, keyed off the first completion.
                match completions.into_iter().next() {
                    Some(Ok(_)) => {
                        tracer.warning("plan generation returned no plan; using an empty plan");
                        span.attr("degraded", true);
                        Some(Plan::default())
                    }
                    Some(Err(err)) => {
                        // Degradation: generate SQL directly, plan-free —
                        // the prompt simply ships without a plan section.
                        tracer.warning(format!(
                            "plan generation failed ({err}); generating SQL without a plan"
                        ));
                        span.attr("degraded", true);
                        None
                    }
                    None => None,
                }
            };
            span.attr("steps", p.as_ref().map(|p| p.steps.len()).unwrap_or(0))
                .attr("pseudo_sql", cfg.use_pseudo_sql);
            span.finish();
            p.map(|p| {
                if cfg.use_pseudo_sql {
                    p
                } else {
                    p.without_pseudo_sql()
                }
            })
        } else {
            None
        };
        base.plan = plan.clone();

        // ---- generation with self-correction --------------------------
        let mut errors: Vec<String> = Vec::new();
        let mut last_sql: Option<String> = None;
        for attempt in 0..=cfg.max_retries {
            if cancelled(if attempt == 0 {
                "plan generation"
            } else {
                "a self-correction attempt"
            }) {
                let mut r = GenerationResult::cancelled_at(reformulated, intents);
                r.plan = plan;
                r.used_examples = used_examples;
                r.used_instructions = used_instructions;
                r.used_schema = used_schema;
                r.errors = errors;
                r.attempts = attempt;
                r.sql = last_sql;
                return r;
            }
            let width = ensemble.unwrap_or_else(|| cfg.candidates.max(1));
            let attempt_span = tracer.span(names::SQL_ATTEMPT);
            attempt_span
                .attr("attempt", attempt + 1)
                .attr("candidates", width);
            if ensemble.is_some() {
                attempt_span.attr("ensemble", true);
            }
            if let Some(cause) = errors.last() {
                attempt_span.attr("retry_cause", cause.as_str());
            }
            let mut prompt = base.clone();
            prompt.errors = errors.clone();
            let mut round_errors: Vec<String> = Vec::new();
            // Valid candidates this round, with their result fingerprints
            // (used by self-consistency voting).
            let mut valid: Vec<(String, Vec<String>)> = Vec::new();
            // Every candidate that produced SQL, in seed order, with its
            // execution outcome — the raw material for the minority
            // self-correction round under `MajorityResult` selection.
            let mut records: Vec<(u64, String, Result<Vec<String>, String>)> = Vec::new();
            // Ensemble mode fans all candidate completions out in
            // parallel up front; candidates are then processed in seed
            // order, so the outcome is byte-identical to the serial
            // loop over the same seeds. The serial path keeps its lazy
            // one-call-per-seed shape so `FirstValid` can stop early
            // without paying for unused candidates.
            let fanned: Option<Vec<Result<CompletionResponse, ModelError>>> =
                ensemble.map(|w| complete_parallel(model, &prompt, w as u64));
            for seed in 0..width as u64 {
                let completion = match &fanned {
                    Some(v) => v[seed as usize].clone(),
                    None => model.complete(&CompletionRequest::with_seed(prompt.clone(), seed)),
                };
                let sql = match completion {
                    Ok(response) => match response.as_sql() {
                        Some(s) => s.to_string(),
                        None => {
                            tracer.warning("model returned no SQL for a generation candidate");
                            attempt_span.attr("degraded", true);
                            continue;
                        }
                    },
                    // Transport failures do NOT join `errors`: prompt
                    // error history must reflect only SQL feedback, or
                    // the self-correction semantics would shift.
                    Err(err) => {
                        tracer.warning(format!("SQL generation candidate failed ({err})"));
                        attempt_span.attr("degraded", true);
                        continue;
                    }
                };
                match self.validate_traced(tracer, db, &sql, seed) {
                    Ok(fingerprint) => {
                        if cfg.candidate_selection == CandidateSelection::FirstValid {
                            return GenerationResult {
                                sql: Some(sql),
                                attempts: attempt + 1,
                                validated: true,
                                cancelled: false,
                                plan,
                                reformulated,
                                intents,
                                errors,
                                used_examples,
                                used_instructions,
                                used_schema,
                                final_prompt: prompt,
                                warnings: Vec::new(),
                                trace: Trace::empty(names::GENERATE),
                            };
                        }
                        records.push((seed, sql.clone(), Ok(fingerprint.clone())));
                        valid.push((sql, fingerprint));
                    }
                    Err(e) => {
                        records.push((seed, sql.clone(), Err(e.clone())));
                        round_errors.push(e);
                        last_sql = Some(sql);
                    }
                }
            }
            // Minority self-correction (SelECT-SQL-style): once a
            // majority execution signature exists, every candidate that
            // landed outside it — invalid SQL, or valid SQL whose result
            // disagrees — gets ONE corrective completion carrying its
            // evidence (the execution error, or the disagreement), and
            // the vote is re-taken over the repaired field. Candidates
            // whose correction does not validate keep their original
            // outcome, so the round can only grow the valid set. One
            // round, bounded: at most one extra model call per minority
            // candidate per attempt.
            let has_invalid = records.iter().any(|(_, _, o)| o.is_err());
            let has_dissent = {
                let first = valid.first().map(|(_, fp)| fp);
                valid.iter().any(|(_, fp)| Some(fp) != first)
            };
            if !valid.is_empty() && (has_invalid || has_dissent) {
                let total = records.len();
                let majority_fp = valid
                    .iter()
                    .enumerate()
                    .max_by_key(|(i, (_, fp))| {
                        let votes = valid.iter().filter(|(_, other)| other == fp).count();
                        (votes, std::cmp::Reverse(*i))
                    })
                    .map(|(_, (_, fp))| fp.clone());
                if let Some(majority_fp) = majority_fp {
                    let majority_votes = valid.iter().filter(|(_, fp)| *fp == majority_fp).count();
                    let fixes: Vec<(usize, CompletionRequest)> = records
                        .iter()
                        .enumerate()
                        .filter_map(|(ri, (seed, _, outcome))| {
                            let evidence = match outcome {
                                Ok(fp) if *fp != majority_fp => format!(
                                    "execution result disagreed with {majority_votes} of \
                                     {total} candidates"
                                ),
                                Ok(_) => return None,
                                Err(e) => e.clone(),
                            };
                            let mut p = prompt.clone();
                            p.errors.push(evidence);
                            Some((ri, CompletionRequest::with_seed(p, *seed)))
                        })
                        .collect();
                    if !fixes.is_empty() {
                        attempt_span.attr("corrected", fixes.len());
                        let requests: Vec<CompletionRequest> =
                            fixes.iter().map(|(_, r)| r.clone()).collect();
                        // Ensemble mode corrects in parallel (the calls
                        // coalesce over a batching scheduler exactly like
                        // the original fan-out); results are processed in
                        // seed order either way, so serial and fanned
                        // corrections are byte-identical.
                        let responses = if fanned.is_some() {
                            complete_requests_parallel(model, &requests)
                        } else {
                            requests.iter().map(|r| model.complete(r)).collect()
                        };
                        let mut recovered = 0usize;
                        for ((ri, _), response) in fixes.iter().zip(responses) {
                            let Ok(response) = response else { continue };
                            let Some(sql) = response.as_sql() else {
                                continue;
                            };
                            let seed = records[*ri].0;
                            if let Ok(fp) = self.validate_traced(tracer, db, sql, seed) {
                                if records[*ri].2.is_err() || fp == majority_fp {
                                    records[*ri] = (seed, sql.to_string(), Ok(fp));
                                    recovered += 1;
                                }
                            }
                        }
                        attempt_span.attr("corrected_recovered", recovered);
                        // Re-vote over the repaired field, still in seed
                        // order so the tie-break stays deterministic.
                        valid = records
                            .iter()
                            .filter_map(|(_, sql, outcome)| {
                                outcome.as_ref().ok().map(|fp| (sql.clone(), fp.clone()))
                            })
                            .collect();
                    }
                }
            }
            // Self-consistency: the result the most candidates agree on
            // wins (grouped by execution signature — the sorted result
            // fingerprint); ties break toward the earliest candidate.
            // Falls back to the first valid candidate rather than
            // panicking on an (impossible) empty vote.
            let winner = valid
                .iter()
                .enumerate()
                .max_by_key(|(i, (_, fp))| {
                    let votes = valid.iter().filter(|(_, other)| other == fp).count();
                    (votes, std::cmp::Reverse(*i))
                })
                .map(|(_, (sql, _))| sql.clone())
                .or_else(|| valid.first().map(|(sql, _)| sql.clone()));
            if let Some(winner) = winner {
                attempt_span.attr("valid", valid.len());
                let winner_fp = valid
                    .iter()
                    .find(|(sql, _)| *sql == winner)
                    .map(|(_, fp)| fp.clone())
                    .unwrap_or_default();
                let winner_votes = valid.iter().filter(|(_, fp)| *fp == winner_fp).count();
                let groups = {
                    let mut fps: Vec<&Vec<String>> = valid.iter().map(|(_, fp)| fp).collect();
                    fps.sort();
                    fps.dedup();
                    fps.len()
                };
                attempt_span
                    .attr("vote_total", valid.len())
                    .attr("vote_groups", groups)
                    .attr("vote_votes", winner_votes);
                return GenerationResult {
                    sql: Some(winner),
                    attempts: attempt + 1,
                    validated: true,
                    cancelled: false,
                    plan,
                    reformulated,
                    intents,
                    errors,
                    used_examples,
                    used_instructions,
                    used_schema,
                    final_prompt: prompt,
                    warnings: Vec::new(),
                    trace: Trace::empty(names::GENERATE),
                };
            }
            attempt_span.attr("errors", round_errors.len());
            attempt_span.finish();
            errors.extend(round_errors);
        }

        let final_prompt = {
            let mut p = base;
            p.errors = errors.clone();
            p
        };
        GenerationResult {
            sql: last_sql,
            attempts: cfg.max_retries + 1,
            validated: false,
            cancelled: false,
            plan,
            reformulated,
            intents,
            errors,
            used_examples,
            used_instructions,
            used_schema,
            final_prompt,
            warnings: Vec::new(),
            trace: Trace::empty(names::GENERATE),
        }
    }

    /// Instrumented validation: records a `sql.validate` span with parse
    /// and execution timings, and folds [`ExecStats`] into the registry
    /// when one is attached. Error strings match [`validate`] exactly so
    /// the self-correction prompts are unchanged.
    fn validate_traced(
        &self,
        tracer: &Tracer,
        db: &Database,
        sql: &str,
        seed: u64,
    ) -> Result<Vec<String>, String> {
        let span = tracer.span(names::VALIDATE);
        span.attr("seed", seed).attr("sql_chars", sql.len());
        let (result, stats) = execute_sql_timed(db, sql);
        if let Some(metrics) = &self.metrics {
            stats.record(metrics, "validate");
        }
        let out = match result {
            Ok(rs) => {
                span.attr("rows", stats.rows).attr("columns", stats.columns);
                Ok(rs.fingerprint())
            }
            Err(e) => {
                let msg = e.to_string();
                span.attr("error", msg.as_str());
                Err(msg)
            }
        };
        span.finish();
        out
    }
}

/// Issue `width` completions of the same prompt (seeds `0..width`) in
/// parallel, one scoped thread per seed, returning results **in seed
/// order** so downstream voting is independent of scheduling. Over a
/// [`BatchScheduler`](genedit_llm::BatchScheduler) the concurrent calls
/// coalesce into a single backend round trip. A panicking candidate
/// thread surfaces as a [`ModelError::Transient`] for that seed only.
fn complete_parallel<L: LanguageModel>(
    model: &L,
    prompt: &Prompt,
    width: u64,
) -> Vec<Result<CompletionResponse, ModelError>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..width)
            .map(|seed| {
                let request = CompletionRequest::with_seed(prompt.clone(), seed);
                scope.spawn(move || model.complete(&request))
            })
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(ModelError::Transient(
                        "ensemble candidate thread panicked".to_string(),
                    ))
                })
            })
            .collect()
    })
}

/// Issue an arbitrary set of completion requests in parallel, one scoped
/// thread per request, returning results **in input order** (the caller
/// passes minority-correction requests in seed order, so downstream
/// re-voting stays deterministic). Like [`complete_parallel`], concurrent
/// calls over a [`BatchScheduler`](genedit_llm::BatchScheduler) coalesce
/// into one backend round trip.
fn complete_requests_parallel<L: LanguageModel>(
    model: &L,
    requests: &[CompletionRequest],
) -> Vec<Result<CompletionResponse, ModelError>> {
    std::thread::scope(|scope| {
        let handles: Vec<_> = requests
            .iter()
            .map(|request| scope.spawn(move || model.complete(request)))
            .collect();
        handles
            .into_iter()
            .map(|h| {
                h.join().unwrap_or_else(|_| {
                    Err(ModelError::Transient(
                        "correction candidate thread panicked".to_string(),
                    ))
                })
            })
            .collect()
    })
}

/// Cosine-score `texts` against a query embedding, returning one score
/// per text in input order. Small batches stay on the calling thread;
/// larger re-rank batches split across a few scoped threads, overlapping
/// the independent embedding computations (the retrieval-side fan-out of
/// DESIGN.md §12). Chunks are joined in spawn order, so the output is
/// identical to the serial loop.
fn score_against(embedder: &Embedder, query: &Embedding, texts: &[String]) -> Vec<f32> {
    const PAR_THRESHOLD: usize = 8;
    const THREADS: usize = 4;
    if texts.len() < PAR_THRESHOLD {
        return texts
            .iter()
            .map(|t| cosine(query, &embedder.embed(t)))
            .collect();
    }
    let chunk = texts.len().div_ceil(THREADS);
    std::thread::scope(|scope| {
        let handles: Vec<_> = texts
            .chunks(chunk)
            .map(|c| {
                scope.spawn(move || {
                    c.iter()
                        .map(|t| cosine(query, &embedder.embed(t)))
                        .collect::<Vec<f32>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().unwrap_or_default())
            .collect()
    })
}

/// Syntactic + semantic validation: parse, then execute against the
/// database (execution-guided checking, as in the paper's self-correction
/// citation 25). Returns the result fingerprint for candidate voting.
/// The pipeline itself goes through `validate_traced`, which must agree
/// with this reference implementation on every error string.
#[cfg(test)]
fn validate(db: &Database, sql: &str) -> Result<Vec<String>, String> {
    genedit_sql::parser::parse_statement(sql).map_err(|e| e.to_string())?;
    let rs = genedit_sql::exec::execute_sql(db, sql).map_err(|e| e.to_string())?;
    Ok(rs.fingerprint())
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_bird::{DomainBundle, SPORTS};
    use genedit_llm::{OracleConfig, OracleModel, TaskRegistry};

    fn setup() -> (DomainBundle, KnowledgeIndex, OracleModel) {
        let bundle = DomainBundle::build(&SPORTS, (4, 2, 1), 42);
        let index = KnowledgeIndex::build(bundle.build_knowledge());
        let mut reg = TaskRegistry::new();
        for t in &bundle.tasks {
            reg.register(t.clone());
        }
        // Stochastic failure channels off: these tests observe the causal
        // effects of knowledge presence/absence, not the noise model.
        let oracle = OracleModel::with_config(
            reg,
            OracleConfig {
                noise_rate: 0.0,
                pseudo_drift_probability: 0.0,
                drift_probability: 0.0,
                canonical_form_penalty: 0.0,
                ..Default::default()
            },
        );
        (bundle, index, oracle)
    }

    #[test]
    fn simple_task_generates_correct_sql() {
        let (bundle, index, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let task = &bundle.tasks[0];
        let result = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        assert!(result.validated, "errors: {:?}", result.errors);
        let (ok, note) =
            genedit_bird::score_prediction(&bundle.db, &task.gold_sql, result.sql.as_deref());
        assert!(ok, "note: {note:?}, sql: {:?}", result.sql);
    }

    #[test]
    fn fingerprint_covers_the_answer_and_ignores_the_trace() {
        let (bundle, index, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.difficulty == genedit_llm::Difficulty::Challenging)
            .unwrap();
        let base = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        assert!(!base.used_examples.is_empty());

        let mut timing_only = base.clone();
        timing_only.trace = Trace::empty(names::GENERATE);
        timing_only.warnings.push("model fell back".to_string());
        assert_eq!(base.fingerprint(), timing_only.fingerprint());

        let mut other_sql = base.clone();
        other_sql.sql = Some("SELECT 1".to_string());
        assert_ne!(base.fingerprint(), other_sql.fingerprint());

        let mut fewer_examples = base.clone();
        fewer_examples.used_examples.pop();
        assert_ne!(base.fingerprint(), fewer_examples.fingerprint());
    }

    #[test]
    fn pipeline_populates_context() {
        let (bundle, index, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        // The challenging QoQ task needs examples/instructions/schema.
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.difficulty == genedit_llm::Difficulty::Challenging)
            .unwrap();
        let result = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        assert!(!result.used_examples.is_empty());
        assert!(!result.used_instructions.is_empty());
        assert!(!result.used_schema.is_empty());
        assert!(result.plan.is_some());
        assert!(result.reformulated.starts_with("Show me"));
        assert_eq!(result.intents, vec![task.intent.clone()]);
    }

    #[test]
    fn challenging_task_with_full_pipeline_succeeds() {
        let (bundle, index, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.difficulty == genedit_llm::Difficulty::Challenging)
            .unwrap();
        let result = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        let (ok, note) =
            genedit_bird::score_prediction(&bundle.db, &task.gold_sql, result.sql.as_deref());
        assert!(
            ok,
            "note: {note:?}\nplan: {:?}\nsql: {:?}",
            result.plan, result.sql
        );
    }

    #[test]
    fn without_instructions_term_tasks_fail() {
        let (bundle, index, oracle) = setup();
        let cfg = PipelineConfig {
            use_instructions: false,
            ..Default::default()
        };
        let pipeline = GenEditPipeline::with_config(&oracle, cfg);
        // Task s05 is the "our entities" term task.
        let task = bundle
            .tasks
            .iter()
            .find(|t| !t.required_terms.is_empty())
            .unwrap();
        let result = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        let (ok, _) =
            genedit_bird::score_prediction(&bundle.db, &task.gold_sql, result.sql.as_deref());
        assert!(
            !ok,
            "term task should fail without instructions: {:?}",
            result.sql
        );
    }

    #[test]
    fn plan_carries_pseudo_sql_and_ablation_strips_it() {
        let (bundle, index, oracle) = setup();
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.difficulty == genedit_llm::Difficulty::Challenging)
            .unwrap();

        let pipeline = GenEditPipeline::new(&oracle);
        let result = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        let plan = result.plan.unwrap();
        assert!(plan.steps.iter().any(|s| s.pseudo_sql.is_some()));

        let cfg = PipelineConfig {
            use_pseudo_sql: false,
            ..Default::default()
        };
        let pipeline = GenEditPipeline::with_config(&oracle, cfg);
        let result = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        let plan = result.plan.unwrap();
        assert!(plan.steps.iter().all(|s| s.pseudo_sql.is_none()));
    }

    #[test]
    fn majority_voting_returns_a_valid_candidate() {
        let (bundle, index, oracle) = setup();
        let cfg = PipelineConfig {
            candidates: 3,
            candidate_selection: CandidateSelection::MajorityResult,
            ..Default::default()
        };
        let pipeline = GenEditPipeline::with_config(&oracle, cfg);
        let task = &bundle.tasks[0];
        let voted = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        assert!(voted.validated);
        let (ok, note) =
            genedit_bird::score_prediction(&bundle.db, &task.gold_sql, voted.sql.as_deref());
        assert!(ok, "{note:?}");
        // With an oracle that produces identical candidates, voting and
        // first-valid agree.
        let first = GenEditPipeline::new(&oracle).generate(&task.question, &index, &bundle.db, &[]);
        assert_eq!(voted.sql, first.sql);
    }

    /// Tentpole invariant: ensemble fan-out (parallel candidates over
    /// seeds `0..n`) is byte-identical to the serial loop over the same
    /// seeds. Plan generation is disabled because the serial path samples
    /// only seed 0 there, while the ensemble deliberately votes over `n`
    /// seeds — the SQL candidate stage is where the seed sets coincide.
    #[test]
    fn ensemble_fanout_matches_serial_execution() {
        let (bundle, index, oracle) = setup();
        let cfg = PipelineConfig {
            candidates: 3,
            candidate_selection: CandidateSelection::MajorityResult,
            use_plan: false,
            ..Default::default()
        };
        let pipeline = GenEditPipeline::with_config(&oracle, cfg);
        for task in &bundle.tasks {
            let serial = pipeline.generate(&task.question, &index, &bundle.db, &[]);
            let opts = GenerateOptions {
                ensemble_width: Some(3),
                ..Default::default()
            };
            let fanned = pipeline.generate_with(&task.question, &index, &bundle.db, &[], &opts);
            assert_eq!(fanned.sql, serial.sql, "task {:?}", task.question);
            assert_eq!(fanned.reformulated, serial.reformulated);
            assert_eq!(fanned.intents, serial.intents);
            assert_eq!(fanned.errors, serial.errors);
            assert_eq!(fanned.used_examples, serial.used_examples);
            assert_eq!(fanned.used_instructions, serial.used_instructions);
            assert_eq!(fanned.used_schema, serial.used_schema);
            assert_eq!(fanned.validated, serial.validated);
            assert_eq!(fanned.attempts, serial.attempts);
        }
    }

    /// A stub whose plan depends only on the sampling seed, for pinning
    /// down the ensemble vote: seeds 0 and 3 plan "X", every other seed
    /// plans "Y".
    struct PlanBySeed;

    impl LanguageModel for PlanBySeed {
        fn name(&self) -> &str {
            "plan-by-seed"
        }

        fn complete(
            &self,
            request: &CompletionRequest,
        ) -> Result<CompletionResponse, genedit_llm::ModelError> {
            Ok(match request.prompt.task {
                TaskKind::PlanGeneration => {
                    let label = match request.seed {
                        0 | 3 => "X",
                        _ => "Y",
                    };
                    CompletionResponse::Plan(Plan {
                        steps: vec![genedit_llm::PlanStep {
                            description: label.to_string(),
                            pseudo_sql: None,
                            scope: "main".to_string(),
                            kind: None,
                        }],
                    })
                }
                TaskKind::SqlGeneration => {
                    CompletionResponse::Sql("SELECT * FROM SPORTS_ORGS".to_string())
                }
                TaskKind::Reformulate => CompletionResponse::Text(request.prompt.question.clone()),
                _ => CompletionResponse::Items(Vec::new()),
            })
        }
    }

    /// Satellite requirement: the plan-ensemble vote takes the majority
    /// plan when one exists, and breaks ties toward the earliest seed.
    #[test]
    fn ensemble_plan_vote_breaks_ties_toward_earliest_seed() {
        let (bundle, index, _) = setup();
        let cfg = PipelineConfig {
            candidates: 1,
            max_retries: 0,
            ..Default::default()
        };
        let pipeline = GenEditPipeline::with_config(PlanBySeed, cfg);
        let plan_label = |width: usize| {
            let opts = GenerateOptions {
                ensemble_width: Some(width),
                ..Default::default()
            };
            let result = pipeline.generate_with("question", &index, &bundle.db, &[], &opts);
            let plan = result.plan.expect("stub always plans");
            plan.steps[0].description.clone()
        };
        // Seeds 0..3 plan [X, Y, Y]: the majority plan Y beats seed 0.
        assert_eq!(plan_label(3), "Y");
        // Seeds 0..4 plan [X, Y, Y, X]: a 2-2 tie breaks toward the
        // earliest seed's plan, X.
        assert_eq!(plan_label(4), "X");
    }

    /// Seed-keyed SQL stub for pinning the execution-signature vote:
    /// every seed except 2 returns the majority full-table scan; seed 2
    /// returns `minority_sql` until the prompt carries correction
    /// evidence (a non-empty error section), at which point it falls in
    /// line. Counts SQL-generation calls so tests can assert the
    /// correction round is exactly one extra call.
    struct MinorityBySeed {
        minority_sql: &'static str,
        sql_calls: std::sync::atomic::AtomicUsize,
    }

    impl MinorityBySeed {
        fn new(minority_sql: &'static str) -> MinorityBySeed {
            MinorityBySeed {
                minority_sql,
                sql_calls: std::sync::atomic::AtomicUsize::new(0),
            }
        }
    }

    impl LanguageModel for MinorityBySeed {
        fn name(&self) -> &str {
            "minority-by-seed"
        }

        fn complete(
            &self,
            request: &CompletionRequest,
        ) -> Result<CompletionResponse, genedit_llm::ModelError> {
            Ok(match request.prompt.task {
                TaskKind::SqlGeneration => {
                    self.sql_calls
                        .fetch_add(1, std::sync::atomic::Ordering::SeqCst);
                    let sql = if request.seed == 2 && request.prompt.errors.is_empty() {
                        self.minority_sql
                    } else {
                        "SELECT * FROM SPORTS_ORGS"
                    };
                    CompletionResponse::Sql(sql.to_string())
                }
                TaskKind::Reformulate => CompletionResponse::Text(request.prompt.question.clone()),
                _ => CompletionResponse::Items(Vec::new()),
            })
        }
    }

    fn vote_cfg() -> PipelineConfig {
        PipelineConfig {
            candidates: 3,
            candidate_selection: CandidateSelection::MajorityResult,
            use_plan: false,
            max_retries: 0,
            ..Default::default()
        }
    }

    /// Tentpole: a valid-but-disagreeing candidate loses the
    /// execution-signature vote, gets one self-correction round carrying
    /// the mismatch evidence, and the majority result is returned.
    #[test]
    fn minority_with_divergent_result_is_corrected_and_majority_wins() {
        let (bundle, index, _) = setup();
        let model = MinorityBySeed::new("SELECT ORG_NAME FROM SPORTS_ORGS");
        let pipeline = GenEditPipeline::with_config(&model, vote_cfg());
        let opts = GenerateOptions {
            ensemble_width: Some(3),
            ..Default::default()
        };
        let result = pipeline.generate_with("question", &index, &bundle.db, &[], &opts);
        assert!(result.validated);
        assert_eq!(result.attempts, 1);
        assert_eq!(result.sql.as_deref(), Some("SELECT * FROM SPORTS_ORGS"));
        // Exactly one corrective completion on top of the 3-wide fan-out.
        assert_eq!(model.sql_calls.load(std::sync::atomic::Ordering::SeqCst), 4);
    }

    /// Tentpole: an invalid candidate gets one self-correction round
    /// carrying its execution error, recovers, and joins the majority.
    #[test]
    fn minority_with_invalid_sql_is_corrected_with_its_error() {
        let (bundle, index, _) = setup();
        let model = MinorityBySeed::new("SELECT * FROM MISSING_TABLE");
        let pipeline = GenEditPipeline::with_config(&model, vote_cfg());
        let opts = GenerateOptions {
            ensemble_width: Some(3),
            ..Default::default()
        };
        let result = pipeline.generate_with("question", &index, &bundle.db, &[], &opts);
        assert!(result.validated);
        assert_eq!(result.sql.as_deref(), Some("SELECT * FROM SPORTS_ORGS"));
        assert_eq!(model.sql_calls.load(std::sync::atomic::Ordering::SeqCst), 4);
    }

    /// The correction round is a no-op when every candidate already
    /// agrees, and the serial majority path stays byte-identical to the
    /// ensemble (both correct, both re-vote).
    #[test]
    fn agreeing_candidates_skip_the_correction_round() {
        let (bundle, index, _) = setup();
        // Seed 2 still diverges, but serial and fanned must agree with
        // each other (both run the same correction round).
        let model = MinorityBySeed::new("SELECT ORG_NAME FROM SPORTS_ORGS");
        let pipeline = GenEditPipeline::with_config(&model, vote_cfg());
        let opts = GenerateOptions {
            ensemble_width: Some(3),
            ..Default::default()
        };
        let fanned = pipeline.generate_with("question", &index, &bundle.db, &[], &opts);
        let serial = pipeline.generate("question", &index, &bundle.db, &[]);
        assert_eq!(fanned.sql, serial.sql);
        assert_eq!(fanned.validated, serial.validated);
        assert_eq!(fanned.attempts, serial.attempts);

        // A fully-agreeing model spends exactly the fan-out, no more.
        let agreeing = MinorityBySeed::new("SELECT * FROM SPORTS_ORGS");
        let pipeline = GenEditPipeline::with_config(&agreeing, vote_cfg());
        let result = pipeline.generate_with("question", &index, &bundle.db, &[], &opts);
        assert!(result.validated);
        assert_eq!(
            agreeing.sql_calls.load(std::sync::atomic::Ordering::SeqCst),
            3
        );
    }

    #[test]
    fn validation_catches_bad_sql() {
        let (bundle, _, _) = setup();
        assert!(validate(&bundle.db, "SELECT * FROM SPORTS_ORGS").is_ok());
        assert!(validate(&bundle.db, "SELEC nope").is_err());
        assert!(validate(&bundle.db, "SELECT * FROM MISSING_TABLE").is_err());
    }

    #[test]
    fn trace_contains_exactly_the_enabled_operator_spans() {
        let (bundle, index, oracle) = setup();
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.difficulty == genedit_llm::Difficulty::Challenging)
            .unwrap();

        // Full pipeline: every operator plus plan appears exactly once.
        let full = GenEditPipeline::new(&oracle).generate(&task.question, &index, &bundle.db, &[]);
        for name in [
            names::REFORMULATE,
            names::INTENT,
            names::EXAMPLES,
            names::INSTRUCTIONS,
            names::SCHEMA_LINKING,
            names::PLAN,
        ] {
            assert_eq!(
                full.trace.count(name),
                1,
                "span {name} missing from full trace"
            );
        }
        assert!(full.trace.count(names::SQL_ATTEMPT) >= 1);
        assert!(full.trace.count(names::LLM_COMPLETE) >= 6);

        // Each ablation makes exactly its operator's spans disappear.
        let ablations: [(&str, PipelineConfig); 5] = [
            (
                names::REFORMULATE,
                PipelineConfig {
                    use_reformulation: false,
                    ..Default::default()
                },
            ),
            (
                names::INTENT,
                PipelineConfig {
                    use_intent_classification: false,
                    ..Default::default()
                },
            ),
            (
                names::EXAMPLES,
                PipelineConfig {
                    use_examples: false,
                    ..Default::default()
                },
            ),
            (
                names::INSTRUCTIONS,
                PipelineConfig {
                    use_instructions: false,
                    ..Default::default()
                },
            ),
            (
                names::SCHEMA_LINKING,
                PipelineConfig {
                    use_schema_linking: false,
                    ..Default::default()
                },
            ),
        ];
        for (disabled, cfg) in ablations {
            let result = GenEditPipeline::with_config(&oracle, cfg).generate(
                &task.question,
                &index,
                &bundle.db,
                &[],
            );
            assert_eq!(
                result.trace.count(disabled),
                0,
                "span {disabled} should vanish when its operator is disabled"
            );
            for name in [
                names::REFORMULATE,
                names::INTENT,
                names::EXAMPLES,
                names::INSTRUCTIONS,
                names::SCHEMA_LINKING,
            ] {
                if name != disabled {
                    assert_eq!(result.trace.count(name), 1, "{name} should survive");
                }
            }
        }

        let no_plan = PipelineConfig {
            use_plan: false,
            ..Default::default()
        };
        let result = GenEditPipeline::with_config(&oracle, no_plan).generate(
            &task.question,
            &index,
            &bundle.db,
            &[],
        );
        assert_eq!(result.trace.count(names::PLAN), 0);
    }

    #[test]
    fn sql_attempt_spans_match_reported_attempts() {
        let (bundle, index, oracle) = setup();
        // Clean run: one attempt, one span.
        let task = &bundle.tasks[0];
        let result =
            GenEditPipeline::new(&oracle).generate(&task.question, &index, &bundle.db, &[]);
        assert_eq!(result.trace.count(names::SQL_ATTEMPT), result.attempts);
        assert_eq!(result.trace.count(names::VALIDATE), result.attempts);

        // A model that only emits broken SQL burns every retry, and each
        // one leaves a span; retries carry a retry_cause attribute.
        struct BrokenSql;
        impl LanguageModel for BrokenSql {
            fn name(&self) -> &str {
                "broken-sql"
            }
            fn complete(
                &self,
                request: &CompletionRequest,
            ) -> Result<genedit_llm::CompletionResponse, genedit_llm::ModelError> {
                Ok(match request.prompt.task {
                    TaskKind::SqlGeneration => {
                        genedit_llm::CompletionResponse::Sql("SELEC nope".into())
                    }
                    _ => genedit_llm::CompletionResponse::Items(Vec::new()),
                })
            }
        }
        let pipeline = GenEditPipeline::new(BrokenSql);
        let result = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        assert!(!result.validated);
        assert_eq!(result.attempts, pipeline.config().max_retries + 1);
        assert_eq!(result.trace.count(names::SQL_ATTEMPT), result.attempts);
        let retries: Vec<&genedit_telemetry::Span> = result
            .trace
            .all_spans()
            .into_iter()
            .filter(|s| s.name == names::SQL_ATTEMPT && s.attr("retry_cause").is_some())
            .collect();
        assert!(!retries.is_empty(), "retries should record their cause");
    }

    #[test]
    fn llm_spans_nest_under_their_operator() {
        let (bundle, index, oracle) = setup();
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.difficulty == genedit_llm::Difficulty::Challenging)
            .unwrap();
        let result =
            GenEditPipeline::new(&oracle).generate(&task.question, &index, &bundle.db, &[]);
        let root = result.trace.find(names::GENERATE).expect("root span");
        for op in [
            names::REFORMULATE,
            names::INTENT,
            names::SCHEMA_LINKING,
            names::PLAN,
        ] {
            let span = result.trace.find(op).unwrap();
            assert_eq!(
                span.count_named(names::LLM_COMPLETE),
                1,
                "{op} should own exactly one model call"
            );
        }
        // Every model call in the whole trace sits under the root.
        assert_eq!(
            root.count_named(names::LLM_COMPLETE),
            result.trace.count(names::LLM_COMPLETE)
        );
    }

    #[test]
    fn malformed_model_responses_surface_as_warnings() {
        struct TextOnly;
        impl LanguageModel for TextOnly {
            fn name(&self) -> &str {
                "text-only"
            }
            fn complete(
                &self,
                _request: &CompletionRequest,
            ) -> Result<genedit_llm::CompletionResponse, genedit_llm::ModelError> {
                Ok(genedit_llm::CompletionResponse::Text(
                    "not what you asked for".into(),
                ))
            }
        }
        let (bundle, index, _) = setup();
        let result = GenEditPipeline::new(TextOnly).generate(
            &bundle.tasks[0].question,
            &index,
            &bundle.db,
            &[],
        );
        assert!(!result.validated);
        assert_eq!(result.warnings, result.trace.warnings);
        // Intent classification, schema linking, plan, and every SQL
        // candidate all fell back.
        assert!(result
            .warnings
            .iter()
            .any(|w| w.contains("intent classification")));
        assert!(result.warnings.iter().any(|w| w.contains("schema linking")));
        assert!(result
            .warnings
            .iter()
            .any(|w| w.contains("plan generation")));
        assert!(result.warnings.iter().any(|w| w.contains("no SQL")));
    }

    #[test]
    fn metrics_registry_accumulates_across_generations() {
        let (bundle, index, oracle) = setup();
        let metrics = Arc::new(MetricsRegistry::default());
        let pipeline = GenEditPipeline::new(&oracle).with_metrics(Arc::clone(&metrics));
        for task in bundle.tasks.iter().take(2) {
            pipeline.generate(&task.question, &index, &bundle.db, &[]);
        }
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counters["span.pipeline.generate.count"], 2);
        assert!(snapshot.counters["span.llm.complete.count"] >= 2);
        assert!(snapshot
            .histograms
            .contains_key("span.pipeline.generate.ms"));
        assert!(snapshot.histograms.contains_key("sql.validate.rows"));
    }
}
