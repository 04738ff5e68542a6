//! The GenEdit SQL-generation pipeline (§2.1, §3).
//!
//! Operators, in order (numbers match Fig. 1), one step function each on
//! `Run`, each reading what the earlier ones wrote into one `Draft`
//! and adding its own output — that is the *compounding*:
//! 1. `reformulate`: query reformulation into canonical form,
//! 2. `classify_intents`: intent classification,
//! 3. `select_examples`: intent retrieval + cosine re-rank,
//! 4. `select_instructions`: re-ranked by the query *expanded with the
//!    selected examples* — context expansion, §3.1.1,
//! 5. `link_schema`: model call + re-rank filter,
//!    then `plan` (CoT plan generation) and `generate_sql` (plan-guided,
//!    with up to `k` self-correction retries on syntactic/semantic errors).

use crate::cancel::CancelToken;
use crate::config::{CandidateSelection, PipelineConfig};
use crate::index::KnowledgeIndex;
use genedit_knowledge::{ExampleId, FragmentKind, InstructionId, RetrievalStage};
use genedit_llm::{
    CompletionRequest, CompletionResponse, LanguageModel, ModelError, Plan, Prompt, PromptExample,
    PromptInstruction, PromptSchemaElement, ResilienceState, ResilientModel, SystemClock, TaskKind,
    TracedModel,
};
use genedit_retrieval::{expand, Embedding, SparseEmbedding};
use genedit_sql::catalog::Database;
use genedit_sql::exec::execute_sql_timed;
use genedit_sql::result::ResultSet;
use genedit_sql::KeyElem;
use genedit_telemetry::{names, MetricsRegistry, SpanGuard, Trace, Tracer};
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
    /// whatever operator outputs were already computed, no validated SQL,
    /// and a warning naming the stage it stopped after.
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
    /// embedding without the text it embeds would be unverifiable. When
    /// honored it is the question's vector in all three re-ranks —
    /// example selection and the two expanded re-ranks after it — and
    /// the generation embeds nothing of its own.
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
            // Every completion lands as an `llm.complete` child of
            // whichever operator span is open when it fires. Resilience
            // wraps *outside* tracing so every retried attempt is its own
            // `llm.complete` span and each backoff an `llm.retry` span.
            let traced = TracedModel::new(&self.model, &tracer);
            let resilient;
            let model: &dyn LanguageModel = match &self.resilience {
                Some(state) => {
                    resilient = ResilientModel::new(traced, Arc::clone(state)).with_tracer(&tracer);
                    &resilient
                }
                None => &traced,
            };
            let run = Run {
                cfg: &self.config,
                metrics: self.metrics.as_deref(),
                model,
                tracer: &tracer,
                index,
                db,
                opts,
            };
            let r = run.generate_core(question, evidence);
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
}

/// What the operator steps accumulate. `prompt` is the SQL-generation
/// prompt under construction — the reformulation as its question, the
/// selected knowledge as its sections, the CoT plan, the self-correction
/// errors so far — so a later step reads an earlier one's output from it.
pub(crate) struct Draft {
    prompt: Prompt,
    intents: Vec<String>,
    used_examples: Vec<ExampleId>,
    used_instructions: Vec<InstructionId>,
    /// The question's embedding, computed once for every re-rank.
    query: Option<Embedding>,
    /// Positions of the selected examples and instructions in the index's
    /// knowledge set, where it memoises their expansion vectors.
    example_pos: Vec<usize>,
    instruction_pos: Vec<usize>,
    /// Generation rounds started.
    pub(crate) attempts: usize,
    /// The validated winner, else the last candidate to fail validation.
    pub(crate) sql: Option<String>,
    pub(crate) validated: bool,
}

impl Draft {
    pub(crate) fn new(prompt: Prompt) -> Draft {
        Draft {
            prompt,
            intents: Vec::new(),
            used_examples: Vec::new(),
            used_instructions: Vec::new(),
            query: None,
            example_pos: Vec::new(),
            instruction_pos: Vec::new(),
            attempts: 0,
            sql: None,
            validated: false,
        }
    }

    /// The one place a draft becomes a result — validated, exhausted, or
    /// `cancelled` with whatever the steps run so far wrote. `generate_with`
    /// fills the trace and warnings once the tracer finishes.
    fn into_result(self, cancelled: bool) -> GenerationResult {
        GenerationResult {
            sql: self.sql,
            attempts: self.attempts,
            validated: self.validated,
            cancelled,
            plan: self.prompt.plan.clone(),
            reformulated: self.prompt.question.clone(),
            intents: self.intents,
            errors: self.prompt.errors.clone(),
            used_examples: self.used_examples,
            used_instructions: self.used_instructions,
            used_schema: self.prompt.schema.iter().map(|s| s.key()).collect(),
            final_prompt: if cancelled {
                Prompt::new(TaskKind::SqlGeneration, "")
            } else {
                self.prompt
            },
            warnings: Vec::new(),
            trace: Trace::empty(names::GENERATE),
        }
    }
}

/// One generation in flight — the request, the pipeline's settings and
/// the traced (under resilience, retry-wrapped) model — with the operator
/// steps as its methods. [`run_baseline`](crate::run_baseline) builds one
/// for `generate_sql` alone.
pub(crate) struct Run<'a> {
    pub(crate) cfg: &'a PipelineConfig,
    pub(crate) metrics: Option<&'a MetricsRegistry>,
    pub(crate) model: &'a dyn LanguageModel,
    pub(crate) tracer: &'a Tracer,
    pub(crate) index: &'a KnowledgeIndex,
    pub(crate) db: &'a Database,
    pub(crate) opts: &'a GenerateOptions<'a>,
}

type Completion = Result<CompletionResponse, ModelError>;

/// An operator step: reads the draft so far, adds its own output.
type Step<'a> = fn(&Run<'a>, &mut Draft);

/// The warnings of an operator that lost its model call: to an answer of
/// the wrong response variant, or to a failed call (`{err}` is its error).
struct Degraded {
    wrong_variant: &'static str,
    failed: &'static str,
}

/// Which of the two happened, for operators whose fallback differs.
enum Lost {
    WrongVariant,
    Failed,
}

const REFORMULATION: Degraded = Degraded {
    wrong_variant: "reformulation returned no text; falling back to the raw question",
    failed: "reformulation failed ({err}); falling back to the raw question",
};
const INTENTS: Degraded = Degraded {
    wrong_variant: "intent classification returned no item list; assuming no intents",
    failed: "intent classification failed ({err}); retrieving over all intents",
};
const SCHEMA_LINKING: Degraded = Degraded {
    wrong_variant: "schema linking returned no item list; linking no elements",
    failed: "schema linking failed ({err}); passing the full schema to the re-ranker",
};
const PLAN: Degraded = Degraded {
    wrong_variant: "plan generation returned no plan; using an empty plan",
    failed: "plan generation failed ({err}); generating SQL without a plan",
};
const SQL_CANDIDATE: Degraded = Degraded {
    wrong_variant: "model returned no SQL for a generation candidate",
    failed: "SQL generation candidate failed ({err})",
};

/// A sampled candidate that produced SQL, and what executing it gave: the
/// result fingerprint the vote groups by, or the error self-correction sees.
struct Candidate {
    seed: u64,
    sql: String,
    outcome: Result<Vec<Vec<KeyElem>>, String>,
}

/// The one vote: the position of the item whose key the most items
/// share, and how many do; ties break toward the earliest. `None` only
/// when there is nothing to vote on.
fn plurality<T, K: PartialEq>(items: &[T], key: impl Fn(&T) -> &K) -> Option<(usize, usize)> {
    items
        .iter()
        .map(|item| items.iter().filter(|o| key(o) == key(item)).count())
        .enumerate()
        .max_by_key(|&(i, votes)| (votes, std::cmp::Reverse(i)))
}

/// The candidates whose SQL executed, in seed order.
fn valid(candidates: &[Candidate]) -> Vec<&Candidate> {
    candidates.iter().filter(|c| c.outcome.is_ok()).collect()
}

fn items(response: &CompletionResponse) -> Option<Vec<String>> {
    response.as_items().map(<[String]>::to_vec)
}

impl<'a> Run<'a> {
    /// The operator chain; a cancellation after a step reports its stage.
    const STEPS: [(Step<'a>, &'static str); 6] = [
        (Self::reformulate, "reformulation"),
        (Self::classify_intents, "intent classification"),
        (Self::select_examples, "example selection"),
        (Self::select_instructions, "instruction selection"),
        (Self::link_schema, "schema linking"),
        (Self::plan, "plan generation"),
    ];

    /// The pipeline body: run the chain over one draft, checking for
    /// cancellation between steps — never mid-operator, operators are the
    /// unit of useful work — then generate SQL from what it accumulated.
    fn generate_core(&self, question: &str, evidence: &[String]) -> GenerationResult {
        let mut prompt = Prompt::new(TaskKind::SqlGeneration, question);
        prompt.original_question = Some(question.to_string());
        if self.cfg.include_evidence {
            prompt.evidence = evidence.to_vec();
        }
        let mut draft = Draft::new(prompt);
        for (step, stage) in Self::STEPS {
            step(self, &mut draft);
            if self.cancelled(stage) {
                return draft.into_result(true);
            }
        }
        let cancelled = self.generate_sql(&mut draft);
        draft.into_result(cancelled)
    }

    fn cancelled(&self, stage: &str) -> bool {
        let fired = self.opts.cancel.is_some_and(CancelToken::is_cancelled);
        if fired {
            self.tracer
                .warning(format!("generation cancelled after {stage}"));
        }
        fired
    }

    /// Ensemble fan-out engages only on explicit request, so the default
    /// serial path (and its call accounting) is untouched.
    fn ensemble(&self) -> Option<usize> {
        self.opts.ensemble_width.filter(|w| *w > 1)
    }

    /// The one degrade rule: an operator that loses its model call never
    /// panics or poisons the result — it warns, marks its span `degraded`,
    /// and the caller continues on the operator's fallback.
    fn or_degrade<T>(
        &self,
        span: &SpanGuard<'_>,
        completion: Completion,
        payload: impl FnOnce(&CompletionResponse) -> Option<T>,
        texts: &Degraded,
    ) -> Result<T, Lost> {
        let lost = match completion {
            Ok(response) => match payload(&response) {
                Some(value) => return Ok(value),
                None => {
                    self.tracer.warning(texts.wrong_variant);
                    Lost::WrongVariant
                }
            },
            Err(err) => {
                let err = err.to_string();
                self.tracer.warning(texts.failed.replace("{err}", &err));
                Lost::Failed
            }
        };
        span.attr("degraded", true);
        Err(lost)
    }

    /// The one fan-out and candidate source: the completions of
    /// `requests`, **in request order**. Serially it is lazy — a request
    /// is built and sent when its completion is pulled, so `FirstValid`
    /// pays for no candidate past its first valid one. An ensemble issues
    /// every request up front, one scoped thread each (the concurrent
    /// calls coalesce into one round trip over a
    /// [`BatchScheduler`](genedit_llm::BatchScheduler)), and replays the
    /// results in order, so votes are independent of scheduling. A
    /// panicking thread is a [`ModelError::Transient`] for its request.
    fn completions<'r>(
        &'r self,
        requests: impl Iterator<Item = CompletionRequest> + 'r,
    ) -> Box<dyn Iterator<Item = Completion> + 'r> {
        let model = self.model;
        if self.ensemble().is_none() {
            return Box::new(requests.map(move |request| model.complete(&request)));
        }
        let requests: Vec<CompletionRequest> = requests.collect();
        let done: Vec<Completion> = std::thread::scope(|scope| {
            let handles: Vec<_> = requests
                .iter()
                .map(|request| scope.spawn(move || model.complete(request)))
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
        });
        Box::new(done.into_iter())
    }

    /// Operator 1: reformulation.
    fn reformulate(&self, draft: &mut Draft) {
        // Warm path: a serving-layer cache already holds this question's
        // canonical form for the current knowledge epoch.
        let cached = self.opts.reformulation.as_ref();
        if !self.cfg.use_reformulation {
            if let Some(cached) = cached {
                draft.prompt.question = cached.clone();
            }
            return;
        }
        let span = self.tracer.span(names::REFORMULATE);
        let chars_in = draft.prompt.question.len();
        if let Some(cached) = cached {
            span.attr("cached", true);
            draft.prompt.question = cached.clone();
        } else {
            let prompt = Prompt::new(TaskKind::Reformulate, &draft.prompt.question);
            let completion = self.model.complete(&CompletionRequest::new(prompt));
            let text = |r: &CompletionResponse| r.as_text().map(str::to_string);
            // Degraded, the raw question stands.
            if let Ok(text) = self.or_degrade(&span, completion, text, &REFORMULATION) {
                draft.prompt.question = text;
            }
        }
        span.attr("chars_in", chars_in)
            .attr("chars_out", draft.prompt.question.len());
    }

    /// Operator 2: intent classification.
    fn classify_intents(&self, draft: &mut Draft) {
        if !self.cfg.use_intent_classification {
            return;
        }
        let span = self.tracer.span(names::INTENT);
        let mut prompt = Prompt::new(TaskKind::IntentClassification, &draft.prompt.question);
        let intents = self.index.knowledge().intents();
        prompt.intent_candidates = intents.iter().map(|i| i.key.clone()).collect();
        // Degraded = no intents = no retrieval boost: downstream selection
        // ranks over the whole knowledge set (all intents).
        let completion = self.model.complete(&CompletionRequest::new(prompt));
        draft.intents = self
            .or_degrade(&span, completion, items, &INTENTS)
            .unwrap_or_default();
        span.attr("candidates", intents.len())
            .attr("matched", draft.intents.len());
    }

    /// The question's embedding, computed once per generation and kept in
    /// the draft for every re-rank after it.
    fn question_vector<'d>(
        &self,
        slot: &'d mut Option<Embedding>,
        question: &str,
    ) -> &'d Embedding {
        slot.get_or_insert_with(
            || match (&self.opts.reformulation, &self.opts.query_embedding) {
                // Only trust a cached embedding when it travelled with the
                // reformulation it embeds (same cache entry, same epoch).
                (Some(_), Some(emb)) if emb.len() == self.index.embedder().dim() => emb.clone(),
                _ => self.index.embedder().embed(question),
            },
        )
    }

    /// Context expansion (§3.1.1): the question's vector expanded with
    /// the selected examples' vectors, then `more`. Every vector is the
    /// question's own or one the index memoises for its epoch; returns
    /// the expanded query and how many vectors expanded it.
    fn expanded_question(
        &self,
        draft: &mut Draft,
        more: impl IntoIterator<Item = &'a SparseEmbedding>,
    ) -> (Embedding, usize) {
        let index = self.index;
        let mut expansions: Vec<&SparseEmbedding> = draft
            .example_pos
            .iter()
            .map(|&pos| index.example_expansion(pos))
            .collect();
        expansions.extend(more);
        let query = self.question_vector(&mut draft.query, &draft.prompt.question);
        (expand(query.clone(), &expansions), expansions.len())
    }

    /// Operator 4's query: the examples, then the instruction-selection
    /// hints.
    fn instruction_query(&self, draft: &mut Draft) -> (Embedding, usize) {
        self.expanded_question(draft, self.index.instruction_hints())
    }

    /// Operator 5's re-rank query: the examples, then the selected
    /// instructions' texts.
    fn schema_query(&self, draft: &mut Draft) -> Embedding {
        let index = self.index;
        let instructions: Vec<&SparseEmbedding> = draft
            .instruction_pos
            .iter()
            .map(|&pos| index.instruction_text(pos))
            .collect();
        self.expanded_question(draft, instructions).0
    }

    /// Operator 3: example selection.
    fn select_examples(&self, draft: &mut Draft) {
        if !self.cfg.use_examples {
            return;
        }
        let query = self.question_vector(&mut draft.query, &draft.prompt.question);
        let span = self.tracer.span(names::EXAMPLES);
        let examples = self.index.knowledge().examples();
        let top = self
            .index
            .rank_examples(query, &draft.intents, self.cfg.example_top_k);
        draft.example_pos = top.iter().map(|&(pos, _)| pos).collect();
        draft.used_examples = top.iter().map(|&(pos, _)| examples[pos].id).collect();
        draft.prompt.examples = top
            .iter()
            .map(|&(pos, _)| {
                let e = &examples[pos];
                PromptExample {
                    description: e.description.clone(),
                    sql: e.fragment.sql.clone(),
                    kind: match e.fragment.kind {
                        FragmentKind::FullQuery => None,
                        k => Some(k),
                    },
                    term: e.term.clone(),
                }
            })
            .collect();
        span.attr("candidates", examples.len())
            .attr("selected", top.len());
    }

    /// Operator 4: instruction selection (context expansion).
    fn select_instructions(&self, draft: &mut Draft) {
        if !self.cfg.use_instructions {
            return;
        }
        let span = self.tracer.span(names::INSTRUCTIONS);
        let instructions = self.index.knowledge().instructions();
        let (expanded, expansions) = self.instruction_query(draft);
        let top =
            self.index
                .rank_instructions(&expanded, &draft.intents, self.cfg.instruction_top_k);
        draft.instruction_pos = top.iter().map(|&(pos, _)| pos).collect();
        draft.used_instructions = top.iter().map(|&(pos, _)| instructions[pos].id).collect();
        draft.prompt.instructions = top
            .iter()
            .map(|&(pos, _)| {
                let i = &instructions[pos];
                PromptInstruction {
                    text: i.text.clone(),
                    sql_hint: i.sql_hint.clone(),
                    term: i.term.clone(),
                }
            })
            .collect();
        span.attr("candidates", instructions.len())
            .attr("selected", top.len())
            .attr("expansions", expansions);
    }

    /// Operator 5: schema linking. Ablated, the schema section stays
    /// empty, which the oracle reads as "everything attached" — matching
    /// how un-linked deployments dump the DDL.
    fn link_schema(&self, draft: &mut Draft) {
        if !self.cfg.use_schema_linking {
            return;
        }
        let ks = self.index.knowledge();
        let span = self.tracer.span(names::SCHEMA_LINKING);
        span.attr("candidates", ks.schema_elements().len());
        // The LLM identifies relevant elements over the full schema…
        let mut prompt = Prompt::new(TaskKind::SchemaLinking, &draft.prompt.question);
        prompt.schema = ks.schema_elements().iter().map(Into::into).collect();
        let hints = ks.retrieval_hints(RetrievalStage::SchemaLinking);
        prompt.hints = hints.iter().map(|s| s.to_string()).collect();
        let request = CompletionRequest::new(prompt);
        let completion = self.model.complete(&request);
        let all = request.prompt.schema;
        let keys = match self.or_degrade(&span, completion, items, &SCHEMA_LINKING) {
            Ok(keys) => keys,
            Err(Lost::WrongVariant) => Vec::new(),
            // Degradation: link everything — the full schema flows into
            // the re-rank filter below, so generation still gets a
            // bounded (if less precise) schema section.
            Err(Lost::Failed) => all.iter().map(|el| el.key()).collect(),
        };
        // Each with its position in `ks.schema_elements()`, where the
        // index keeps its embedding.
        let linked: Vec<(usize, PromptSchemaElement)> = all
            .into_iter()
            .enumerate()
            .filter(|(_, el)| keys.contains(&el.key()))
            .collect();
        span.attr("linked", linked.len());
        let top_k = self.cfg.schema_top_k;
        if linked.len() <= top_k {
            draft.prompt.schema = linked.into_iter().map(|(_, el)| el).collect();
        } else {
            // …then a re-ranker filters to manage the generation model's
            // context (§3.1.1), using the example+instruction-expanded
            // query embedding (more context expansion).
            let expanded = self.schema_query(draft);
            // `cosine` against the vector the index already holds for the
            // element, not `top_schema`: its pre-normalised dot product
            // differs from `cosine` in the last ulp. Both run over the
            // index's nonzero pairs; nothing is densified.
            let positions = linked.iter().map(|&(pos, _)| pos);
            let scores = self.index.schema_cosines(&expanded, positions);
            let scored: Vec<(PromptSchemaElement, f32)> =
                linked.into_iter().map(|(_, el)| el).zip(scores).collect();
            let (kept, stats) = genedit_retrieval::rerank_top_k_with_stats(scored, top_k);
            if let Some(metrics) = self.metrics {
                stats.record(metrics, "schema_linking");
            }
            draft.prompt.schema = kept.into_iter().map(|(el, _)| el).collect();
        }
        span.attr("kept", draft.prompt.schema.len());
    }

    /// CoT plan (§3.1.2). The serial path is a single seed-0 call; an
    /// ensemble samples one plan per seed and keeps the plan the most
    /// candidates structurally agree on.
    fn plan(&self, draft: &mut Draft) {
        if !self.cfg.use_plan {
            return;
        }
        let span = self.tracer.span(names::PLAN);
        if let Some(width) = self.ensemble() {
            span.attr("ensemble", width);
        }
        let mut prompt = draft.prompt.clone();
        prompt.task = TaskKind::PlanGeneration;
        let seeds = 0..self.ensemble().unwrap_or(1) as u64;
        let requests = seeds.map(|seed| CompletionRequest::with_seed(prompt.clone(), seed));
        let completions: Vec<Completion> = self.completions(requests).collect();
        let plans: Vec<Plan> = completions
            .iter()
            .filter_map(|c| c.as_ref().ok().and_then(|r| r.as_plan()).cloned())
            .collect();
        let plan = match plurality(&plans, |p| p) {
            Some((voted, _)) => Some(plans[voted].clone()),
            // No candidate parsed as a plan: degrade exactly like the
            // single-call path, keyed off the first completion — to an
            // empty plan if it answered, else to generating SQL directly
            // (the prompt ships without a plan section).
            None => {
                let first = completions.into_iter().next();
                match first.map(|c| self.or_degrade(&span, c, |_| None::<Plan>, &PLAN)) {
                    Some(Err(Lost::WrongVariant)) => Some(Plan::default()),
                    _ => None,
                }
            }
        };
        span.attr("steps", plan.as_ref().map_or(0, |p| p.steps.len()))
            .attr("pseudo_sql", self.cfg.use_pseudo_sql);
        draft.prompt.plan = match plan {
            Some(p) if !self.cfg.use_pseudo_sql => Some(p.without_pseudo_sql()),
            p => p,
        };
    }

    /// Plan-guided SQL generation with self-correction: up to
    /// `max_retries + 1` rounds, each failed round's validation errors
    /// joining the next round's prompt. Returns whether a cancellation cut
    /// it short; the outcome is in `draft.sql` / `draft.validated`.
    pub(crate) fn generate_sql(&self, draft: &mut Draft) -> bool {
        let width = self.ensemble().unwrap_or(self.cfg.candidates.max(1));
        for attempt in 0..=self.cfg.max_retries {
            if attempt > 0 && self.cancelled("a self-correction attempt") {
                return true;
            }
            draft.attempts = attempt + 1;
            let span = self.tracer.span(names::SQL_ATTEMPT);
            span.attr("attempt", attempt + 1).attr("candidates", width);
            if self.ensemble().is_some() {
                span.attr("ensemble", true);
            }
            if let Some(cause) = draft.prompt.errors.last() {
                span.attr("retry_cause", cause.as_str());
            }
            match self.sql_round(&span, &draft.prompt, width) {
                Ok(sql) => {
                    draft.sql = Some(sql);
                    draft.validated = true;
                    return false;
                }
                Err(failed) => {
                    span.attr("errors", failed.len());
                    if let Some(last) = failed.last() {
                        draft.sql = Some(last.sql.clone());
                    }
                    let errors = failed.into_iter().filter_map(|c| c.outcome.err());
                    draft.prompt.errors.extend(errors);
                }
            }
        }
        false
    }

    /// One generation round: sample `width` candidates in seed order and
    /// validate each by execution. `FirstValid` returns its first valid
    /// candidate; `MajorityResult` lets every candidate run, corrects the
    /// minority and takes the vote. `Err` carries the round's candidates
    /// when none of them validated.
    fn sql_round(
        &self,
        span: &SpanGuard<'_>,
        prompt: &Prompt,
        width: usize,
    ) -> Result<String, Vec<Candidate>> {
        let first_valid = self.cfg.candidate_selection == CandidateSelection::FirstValid;
        let requests =
            (0..width as u64).map(|seed| CompletionRequest::with_seed(prompt.clone(), seed));
        let sql = |r: &CompletionResponse| r.as_sql().map(str::to_string);
        let mut candidates: Vec<Candidate> = Vec::new();
        for (seed, completion) in (0u64..).zip(self.completions(requests)) {
            // A lost candidate does NOT join the errors: prompt error
            // history must reflect only SQL feedback, or the
            // self-correction semantics would shift.
            let Ok(sql) = self.or_degrade(span, completion, sql, &SQL_CANDIDATE) else {
                continue;
            };
            let outcome = self.validate(&sql, seed);
            if first_valid && outcome.is_ok() {
                return Ok(sql);
            }
            // A vote key only where there is a vote.
            let outcome = outcome.map(|rs| rs.fingerprint());
            candidates.push(Candidate { seed, sql, outcome });
        }
        self.correct_minority(span, prompt, &mut candidates);
        // Self-consistency: the result the most candidates agree on wins
        // (grouped by execution signature); ties break toward the
        // earliest candidate.
        let valid = valid(&candidates);
        let Some((winner, votes)) = plurality(&valid, |c| &c.outcome) else {
            return Err(candidates);
        };
        let winner = valid[winner].sql.clone();
        let mut groups: Vec<_> = valid.iter().map(|c| &c.outcome).collect();
        groups.sort();
        groups.dedup();
        span.attr("valid", valid.len())
            .attr("vote_total", valid.len())
            .attr("vote_groups", groups.len())
            .attr("vote_votes", votes);
        Ok(winner)
    }

    /// Minority self-correction (SelECT-SQL-style): once a majority
    /// execution signature exists, every candidate that landed outside it
    /// — invalid SQL, or valid SQL whose result disagrees — gets ONE
    /// corrective completion carrying its evidence (the execution error,
    /// or the disagreement), and the caller re-takes the vote over the
    /// repaired field. Candidates whose correction does not validate keep
    /// their original outcome, so the round can only grow the valid set.
    /// One round, bounded: at most one extra model call per minority
    /// candidate per attempt.
    fn correct_minority(
        &self,
        span: &SpanGuard<'_>,
        prompt: &Prompt,
        candidates: &mut [Candidate],
    ) {
        let valid = valid(candidates);
        let Some((majority, votes)) = plurality(&valid, |c| &c.outcome) else {
            return;
        };
        let majority = valid[majority].outcome.clone();
        let total = candidates.len();
        let minority: Vec<(usize, CompletionRequest)> = candidates
            .iter()
            .enumerate()
            .filter_map(|(slot, c)| {
                let evidence = match &c.outcome {
                    Err(e) => e.clone(),
                    agreed if *agreed == majority => return None,
                    Ok(_) => {
                        format!("execution result disagreed with {votes} of {total} candidates")
                    }
                };
                let mut p = prompt.clone();
                p.errors.push(evidence);
                Some((slot, CompletionRequest::with_seed(p, c.seed)))
            })
            .collect();
        if minority.is_empty() {
            return;
        }
        span.attr("corrected", minority.len());
        let (slots, requests): (Vec<usize>, Vec<CompletionRequest>) = minority.into_iter().unzip();
        // Every correction is collected before any is validated, and they
        // are applied in seed order, so serial and fanned corrections are
        // byte-identical and the re-vote's tie-break stays deterministic.
        let corrections: Vec<Completion> = self.completions(requests.into_iter()).collect();
        let mut recovered = 0usize;
        for (slot, correction) in slots.into_iter().zip(corrections) {
            let Some(sql) = correction.ok().and_then(|r| r.as_sql().map(str::to_string)) else {
                continue;
            };
            let seed = candidates[slot].seed;
            let outcome = self.validate(&sql, seed).map(|rs| rs.fingerprint());
            if outcome.is_ok() && (candidates[slot].outcome.is_err() || outcome == majority) {
                candidates[slot] = Candidate { seed, sql, outcome };
                recovered += 1;
            }
        }
        span.attr("corrected_recovered", recovered);
    }

    /// Syntactic + semantic validation: parse, then execute against the
    /// database (execution-guided checking, as in the paper's
    /// self-correction citation 25), under a `sql.validate` span. Returns
    /// the result set, or the error string the next prompt carries.
    fn validate(&self, sql: &str, seed: u64) -> Result<ResultSet, String> {
        let span = self.tracer.span(names::VALIDATE);
        span.attr("seed", seed).attr("sql_chars", sql.len());
        let (result, stats) = execute_sql_timed(self.db, sql);
        if let Some(metrics) = self.metrics {
            stats.record(metrics, "validate");
        }
        match result {
            Ok(rs) => {
                span.attr("rows", stats.rows).attr("columns", stats.columns);
                Ok(rs)
            }
            Err(e) => {
                let msg = e.to_string();
                span.attr("error", msg.as_str());
                Err(msg)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_bird::{DomainBundle, SPORTS};
    use genedit_llm::{OracleConfig, OracleModel, TaskRegistry};
    use std::collections::HashMap;

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

    /// The reference for `Run::validate`: parse, then execute.
    fn validate(db: &Database, sql: &str) -> Result<Vec<Vec<KeyElem>>, String> {
        genedit_sql::parser::parse_statement(sql).map_err(|e| e.to_string())?;
        let rs = genedit_sql::exec::execute_sql(db, sql).map_err(|e| e.to_string())?;
        Ok(rs.fingerprint())
    }

    #[test]
    fn validation_catches_bad_sql() {
        let (bundle, _, _) = setup();
        assert!(validate(&bundle.db, "SELECT * FROM SPORTS_ORGS").is_ok());
        assert!(validate(&bundle.db, "SELEC nope").is_err());
        assert!(validate(&bundle.db, "SELECT * FROM MISSING_TABLE").is_err());
    }

    fn run_over<'a>(
        model: &'a dyn LanguageModel,
        tracer: &'a Tracer,
        cfg: &'a PipelineConfig,
        opts: &'a GenerateOptions<'a>,
        bundle: &'a DomainBundle,
        index: &'a KnowledgeIndex,
    ) -> Run<'a> {
        Run {
            cfg,
            metrics: None,
            model,
            tracer,
            index,
            db: &bundle.db,
            opts,
        }
    }

    /// GenEdit and the baselines both validate through `Run::validate`;
    /// it must agree with the reference on every verdict and error
    /// string, or the self-correction prompts would shift.
    #[test]
    fn traced_validation_agrees_with_the_reference() {
        let (bundle, index, oracle) = setup();
        let (tracer, cfg, opts) = (
            Tracer::new("t"),
            PipelineConfig::default(),
            Default::default(),
        );
        let run = run_over(&oracle, &tracer, &cfg, &opts, &bundle, &index);
        for sql in [
            "SELECT * FROM SPORTS_ORGS",
            "SELEC nope",
            "SELECT * FROM MISSING_TABLE",
            "SELECT NO_SUCH_COLUMN FROM SPORTS_ORGS",
        ] {
            let verdict = run.validate(sql, 0).map(|rs| rs.fingerprint());
            assert_eq!(verdict, validate(&bundle.db, sql), "{sql}");
        }
    }

    /// Both expanded re-ranks query with exactly what `embed_expanded`
    /// over the draft's texts gives, bit for bit, on every gold task —
    /// over the knowledge as built, and with instruction-selection hints
    /// added (one of them symbols only, the zero vector): a ranking can
    /// hide a one-ulp change that `pipeline_golden`'s digests would then
    /// never see.
    #[test]
    fn expanded_queries_are_embed_expanded_over_the_drafts_texts() {
        let workload = genedit_bird::Workload::standard(42);
        let indexes = crate::Harness::new(&workload).build_indexes(true);
        let oracle = OracleModel::new(workload.registry());
        let (tracer, cfg, opts) = (
            Tracer::new("t"),
            PipelineConfig::default(),
            GenerateOptions::default(),
        );
        let bits = |v: &Embedding| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
        let hinted = |index: &KnowledgeIndex| {
            let mut ks = index.knowledge().clone();
            for text in ["boost knowledge about: quarterly revenue", "-- (*) --"] {
                let stage = RetrievalStage::InstructionSelection;
                let text = text.to_string();
                ks.apply(genedit_knowledge::Edit::AddRetrievalHint { stage, text })
                    .unwrap();
            }
            KnowledgeIndex::build(ks)
        };
        let with_hints: HashMap<String, KnowledgeIndex> = indexes
            .iter()
            .map(|(db, index)| (db.clone(), hinted(index)))
            .collect();
        let mut tasks = 0;
        for indexes in [&indexes, &with_hints] {
            for bundle in &workload.domains {
                let index = &indexes[&bundle.db.name];
                let run = run_over(&oracle, &tracer, &cfg, &opts, bundle, index);
                let ks = index.knowledge();
                let hints = ks.retrieval_hints(RetrievalStage::InstructionSelection);
                for task in &bundle.tasks {
                    let mut prompt = Prompt::new(TaskKind::SqlGeneration, &task.question);
                    prompt.original_question = Some(task.question.clone());
                    let mut draft = Draft::new(prompt);
                    for (step, stage) in Run::STEPS {
                        let examples: Vec<String> = draft
                            .prompt
                            .examples
                            .iter()
                            .map(|e| format!("{} {}", e.description, e.sql))
                            .collect();
                        let mut texts: Vec<&str> = examples.iter().map(String::as_str).collect();
                        let question = draft.prompt.question.clone();
                        let embedder = index.embedder();
                        if stage == "instruction selection" {
                            texts.extend(&hints);
                            let want = embedder.embed_expanded(&question, &texts);
                            let (got, expansions) = run.instruction_query(&mut draft);
                            assert_eq!(bits(&got), bits(&want), "{question}");
                            assert_eq!(expansions, examples.len() + hints.len());
                        } else if stage == "schema linking" {
                            let instructions = draft.prompt.instructions.iter();
                            texts.extend(instructions.map(|i| i.text.as_str()));
                            let want = embedder.embed_expanded(&question, &texts);
                            let got = run.schema_query(&mut draft);
                            assert_eq!(bits(&got), bits(&want), "{question}");
                        }
                        step(&run, &mut draft);
                    }
                    assert!(!draft.used_examples.is_empty());
                    assert!(!draft.used_instructions.is_empty());
                    tasks += 1;
                }
            }
        }
        assert_eq!(tasks, 2 * 132);
    }

    /// Answers every task with something usable — except that its SQL
    /// never parses, so every round fails — and fires `token` on its
    /// `fire_on`-th call.
    struct CancelOnCall {
        token: CancelToken,
        fire_on: usize,
        calls: std::sync::atomic::AtomicUsize,
        schema_keys: Vec<String>,
    }

    impl LanguageModel for CancelOnCall {
        fn name(&self) -> &str {
            "cancel-on-call"
        }

        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
            let call = 1 + self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
            if call == self.fire_on {
                self.token.cancel();
            }
            Ok(match request.prompt.task {
                TaskKind::Reformulate => CompletionResponse::Text("canonical".to_string()),
                TaskKind::IntentClassification => CompletionResponse::Items(vec!["i".to_string()]),
                TaskKind::SchemaLinking => CompletionResponse::Items(self.schema_keys.clone()),
                TaskKind::PlanGeneration => CompletionResponse::Plan(Plan {
                    steps: vec![genedit_llm::PlanStep {
                        description: "scan".to_string(),
                        pseudo_sql: None,
                        scope: "main".to_string(),
                        kind: None,
                    }],
                }),
                _ => CompletionResponse::Sql("SELEC nope".to_string()),
            })
        }
    }

    /// What a cancelled result carries, as
    /// `(intents, examples, instructions, schema, plan)` presence flags.
    fn carried(r: &GenerationResult) -> [bool; 5] {
        [
            !r.intents.is_empty(),
            !r.used_examples.is_empty(),
            !r.used_instructions.is_empty(),
            !r.used_schema.is_empty(),
            r.plan.is_some(),
        ]
    }

    /// The cancellation ladder: a token that fires during a stage is
    /// honoured at the boundary after it, and the partial result carries
    /// exactly what the steps run so far produced.
    #[test]
    fn cancellation_returns_what_the_steps_so_far_produced() {
        let (bundle, index, _) = setup();
        let schema_keys: Vec<String> = index.knowledge().schema_elements()[..2]
            .iter()
            .map(|s| s.key())
            .collect();
        let stub = |fire_on| CancelOnCall {
            token: CancelToken::new(),
            fire_on,
            calls: Default::default(),
            schema_keys: schema_keys.clone(),
        };

        // Model calls: 1 reformulation, 2 intents, 3 schema linking,
        // 4 plan, 5-6 the first round's two candidates.
        for (fire_on, stage, expect, attempts) in [
            (1, "reformulation", [false; 5], 0),
            (
                2,
                "intent classification",
                [true, false, false, false, false],
                0,
            ),
            (3, "schema linking", [true, true, true, true, false], 0),
            (4, "plan generation", [true; 5], 0),
            (6, "a self-correction attempt", [true; 5], 1),
        ] {
            let model = stub(fire_on);
            let opts = GenerateOptions {
                cancel: Some(&model.token),
                ..Default::default()
            };
            let r = GenEditPipeline::new(&model).generate_with(
                "question",
                &index,
                &bundle.db,
                &[],
                &opts,
            );
            assert!(r.cancelled && !r.validated, "{stage}");
            assert_eq!(r.warnings, [format!("generation cancelled after {stage}")]);
            assert_eq!(r.reformulated, "canonical");
            assert_eq!(carried(&r), expect, "{stage}");
            assert_eq!(r.attempts, attempts, "{stage}");
            // Only a finished round leaves its errors and failing SQL.
            assert_eq!(r.errors.len(), 2 * attempts, "{stage}");
            assert_eq!(r.sql.is_some(), attempts > 0, "{stage}");
            assert_eq!(r.final_prompt, Prompt::new(TaskKind::SqlGeneration, ""));
            assert_eq!(
                r.trace.spans[0].attr("cancelled"),
                Some(&genedit_telemetry::AttrValue::Bool(true))
            );
        }

        // The two retrieval-only steps make no model call, so no stub can
        // fire a token inside them: walk the chain by hand and cancel at
        // their boundaries.
        for (steps, expect) in [
            (3, [true, true, false, false, false]),
            (4, [true, true, true, false, false]),
        ] {
            let (model, tracer, cfg) = (stub(0), Tracer::new("t"), PipelineConfig::default());
            let opts = GenerateOptions {
                cancel: Some(&model.token),
                ..Default::default()
            };
            let run = run_over(&model, &tracer, &cfg, &opts, &bundle, &index);
            let mut draft = Draft::new(Prompt::new(TaskKind::SqlGeneration, "question"));
            for (step, stage) in &Run::STEPS[..steps] {
                assert!(!run.cancelled(stage));
                step(&run, &mut draft);
            }
            model.token.cancel();
            let stage = Run::STEPS[steps - 1].1;
            assert!(run.cancelled(stage));
            assert_eq!(carried(&draft.into_result(true)), expect, "{stage}");
            assert_eq!(
                tracer.finish().warnings,
                [format!("generation cancelled after {stage}")]
            );
        }
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
