//! The deterministic oracle model.
//!
//! ## The causal contract
//!
//! The oracle reproduces the *relative* behaviour of an LLM in a
//! Text-to-SQL pipeline, which is all the paper's evaluation measures:
//!
//! 1. **Enterprise terms** — if a task's domain term (QoQFP, RPV, "our")
//!    is not covered by the prompt's instructions/examples/evidence, the
//!    term's registered corruption is applied to the gold query
//!    (misinterpretation).
//! 2. **Schema grounding** — if a required table is missing from the
//!    linked schema, the model substitutes a plausible-but-wrong table;
//!    an *overloaded* schema section (no linking / poor filtering) causes
//!    column confusion with probability growing in context size × query
//!    complexity.
//! 3. **Bounded reasoning** — without a plan, queries whose complexity
//!    exceeds the model's capacity accumulate structural drift, and far
//!    over capacity the generation truncates (a syntactic error). A CoT
//!    plan removes the overflow; steps lacking pseudo-SQL keep a per-step
//!    drift chance (§3.1.2's argument, and the w/o-Pseudo-SQL ablation).
//! 4. **Self-correction** — corruptions that fail loudly (hallucinated
//!    names, truncation) are repaired on retry with high probability;
//!    silent wrong-answer corruptions persist, because the loop only sees
//!    errors (§2.1).
//!
//! All stochastic choices are FNV-hashed from (task id, site, attempt,
//! seed): the same run always produces the same results.
//!
//! ## What a call derives
//!
//! Only what depends on its prompt. Each task's prompt-independent facts
//! — the rendered gold SQL, its `decompose` fragments, its complexity
//! total and its referenced columns — are derived once, when the task is
//! registered ([`crate::knowledge::TaskFacts`]), and the question is
//! resolved to its task over interned token ids. [`OracleModel`]'s SQL
//! generation parses the gold query only when a drift or corruption
//! fires; otherwise it returns the stored rendering. No parsed query is
//! kept per task, to keep the registry small.

use crate::knowledge::{Corruption, TaskKnowledge, TaskRegistry};
use crate::model::{CompletionRequest, CompletionResponse, LanguageModel, ModelError};
use crate::prompt::{Plan, PlanStep, Prompt, TaskKind};
use genedit_knowledge::{decompose, describe_fragment, FragmentKind};
use genedit_sql::ast::Query;
use genedit_telemetry::hash::{hash01, hash_u64};

/// Tunable parameters of the oracle's failure model.
#[derive(Debug, Clone)]
pub struct OracleConfig {
    /// Complexity units the model handles in one un-planned shot.
    pub capacity: u32,
    /// One structural drift per this many units of overflow.
    pub overflow_unit: u32,
    /// Probability an NL-only plan step drifts (divided by the method's
    /// reasoning effort).
    pub drift_probability: f64,
    /// Residual per-step drift even with pseudo-SQL: grounded steps can
    /// still be subtly wrong when the underlying knowledge is imprecise.
    pub pseudo_drift_probability: f64,
    /// Probability each overflow drift site actually fires when
    /// generating without a plan.
    pub overflow_drift_probability: f64,
    /// Fraction of tasks with benchmark "imprecision" (§3.3.1) — an
    /// unavoidable, method-independent drift applied identically for every
    /// method and attempt. This is why no method saturates BIRD.
    pub noise_rate: f64,
    /// Probability that a needed-but-unlinked column gets hallucinated.
    pub column_miss_penalty: f64,
    /// Upper bound on the overload confusion probability.
    pub overload_cap: f64,
    /// Probability that a non-canonical question (no reformulation
    /// operator in the pipeline) gets subtly misread. GenEdit's operator 1
    /// exists exactly to remove this class of failure (§2.1).
    pub canonical_form_penalty: f64,
    /// Probability a plan step without example support loses its
    /// pseudo-SQL at plan-generation time.
    pub omission_probability: f64,
    /// Probability a full-query (non-decomposed) example still supports a
    /// step.
    pub full_query_support: f64,
    /// Schema-section size above which context overload starts.
    pub overload_threshold: usize,
    /// Scale of overload confusion: p = excess/scale × complexity/20.
    pub overload_scale: f64,
    /// Schema size assumed when the prompt ships the full schema
    /// (baselines without linking leave the schema section empty and
    /// attach everything).
    pub full_schema_equivalent: usize,
    /// Probability a retry fixes a corruption whose error was reported.
    pub retry_fix_probability: f64,
}

impl Default for OracleConfig {
    fn default() -> OracleConfig {
        OracleConfig {
            capacity: 18,
            overflow_unit: 6,
            drift_probability: 0.08,
            pseudo_drift_probability: 0.035,
            overflow_drift_probability: 0.5,
            noise_rate: 0.2,
            omission_probability: 0.8,
            full_query_support: 0.25,
            overload_threshold: 12,
            overload_scale: 240.0,
            full_schema_equivalent: 200,
            column_miss_penalty: 0.65,
            overload_cap: 0.5,
            canonical_form_penalty: 0.2,
            retry_fix_probability: 0.9,
        }
    }
}

/// The oracle language model. See module docs for the failure model.
pub struct OracleModel {
    config: OracleConfig,
    registry: TaskRegistry,
}

impl OracleModel {
    /// Oracle with the default (calibrated) failure model.
    pub fn new(registry: TaskRegistry) -> OracleModel {
        OracleModel {
            config: OracleConfig::default(),
            registry,
        }
    }

    /// Oracle with an explicit failure-model configuration.
    pub fn with_config(registry: TaskRegistry, config: OracleConfig) -> OracleModel {
        OracleModel { config, registry }
    }

    /// The private task registry backing the oracle.
    pub fn registry(&self) -> &TaskRegistry {
        &self.registry
    }

    /// The failure-model configuration.
    pub fn config(&self) -> &OracleConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Operator implementations
    // ------------------------------------------------------------------

    fn reformulate(&self, question: &str) -> String {
        let trimmed = question.trim().trim_end_matches(['.', '?', '!']);
        let lower = trimmed.to_lowercase();
        if lower.starts_with("show me") {
            return trimmed.to_string();
        }
        // Strip a leading interrogative, then canonicalize to "Show me …"
        // (§2.1: "One example of changes to the query to conform to the
        // canonical format is to always begin with 'Show me …'").
        const PREFIXES: &[&str] = &[
            "identify", "list", "find", "give me", "what are", "what is", "which", "show",
            "display", "return", "tell me", "how many", "count",
        ];
        let mut rest = trimmed;
        let mut counting = false;
        for p in PREFIXES {
            if lower.starts_with(p) {
                counting = *p == "how many" || *p == "count";
                rest = trimmed[p.len()..].trim_start();
                break;
            }
        }
        if counting {
            format!("Show me the number of {rest}")
        } else {
            format!("Show me {rest}")
        }
    }

    fn classify_intent(&self, prompt: &Prompt) -> Vec<String> {
        let task = self.registry.lookup(&prompt.question);
        if let Some(t) = task {
            if prompt.intent_candidates.iter().any(|c| c == &t.intent) {
                return vec![t.intent.clone()];
            }
        }
        // Fall back to token overlap against candidate keys.
        let q_tokens: std::collections::BTreeSet<String> = prompt
            .question
            .split(|c: char| !c.is_alphanumeric())
            .filter(|t| !t.is_empty())
            .map(|t| t.to_lowercase())
            .collect();
        let mut best: Option<(usize, &String)> = None;
        for c in &prompt.intent_candidates {
            let overlap = c
                .split('_')
                .filter(|w| q_tokens.contains(&w.to_lowercase()))
                .count();
            if best.map(|(b, _)| overlap > b).unwrap_or(true) {
                best = Some((overlap, c));
            }
        }
        best.map(|(_, c)| vec![c.clone()]).unwrap_or_default()
    }

    fn link_schema(&self, prompt: &Prompt, seed: u64) -> Vec<String> {
        let (task, facts) = match self.registry.lookup_with_facts(&prompt.question) {
            Some(hit) => hit,
            None => return prompt.schema.iter().map(|s| s.key()).collect(),
        };
        let needed_cols = facts.referenced_columns();
        let mut out = Vec::new();
        for el in &prompt.schema {
            let table_needed = task
                .required_tables
                .iter()
                .any(|t| t.eq_ignore_ascii_case(&el.table));
            let keep = if table_needed {
                match &el.column {
                    None => true,
                    Some(c) => {
                        if needed_cols.contains(&c.to_uppercase()) {
                            // Imperfect recall: occasionally misses a
                            // needed column (drives some linking failures).
                            hash01(&[&task.task_id, "recall", &el.key()], seed) >= 0.05
                        } else {
                            // Keep some same-table context columns.
                            hash01(&[&task.task_id, "ctx", &el.key()], seed) < 0.4
                        }
                    }
                }
            } else {
                // Distractors slip through with low probability.
                hash01(&[&task.task_id, "distract", &el.key()], seed) < 0.06
            };
            if keep {
                out.push(el.key());
            }
        }
        out
    }

    fn generate_plan(&self, prompt: &Prompt, seed: u64) -> Plan {
        let (task, facts) = match self.registry.lookup_with_facts(&prompt.question) {
            Some(hit) => hit,
            None => return Plan::default(),
        };
        let fragments = facts.fragments();
        let (supported_kinds, full_query_examples) = prompt.example_support();

        let mut steps = Vec::new();
        for (i, frag) in fragments.iter().enumerate() {
            // CTE-definition fragments duplicate their inner clauses;
            // represent each CTE by its clause steps instead, matching the
            // paper's step granularity.
            if frag.kind == FragmentKind::CteDefinition {
                steps.push(PlanStep {
                    description: format!("Build the intermediate result {} as a CTE.", frag.scope),
                    pseudo_sql: None,
                    scope: frag.scope.clone(),
                    kind: Some(FragmentKind::CteDefinition),
                });
                continue;
            }
            let supported = supported_kinds.contains(&frag.kind)
                || (full_query_examples
                    && hash01(&[&task.task_id, "fq", &i.to_string()], seed)
                        < self.config.full_query_support);
            // Omission pressure grows with plan size: short plans over
            // simple queries need no example grounding, long analytic
            // plans do (this keeps the w/o-Examples ablation focused on
            // the Challenging stratum, as in Table 2).
            let omission_p =
                self.config.omission_probability * (fragments.len() as f64 / 15.0).min(1.0).powi(2);
            let omit =
                !supported && hash01(&[&task.task_id, "omit", &i.to_string()], seed) < omission_p;
            steps.push(PlanStep {
                description: describe_fragment(frag, &task.question),
                pseudo_sql: if omit { None } else { Some(frag.sql.clone()) },
                scope: frag.scope.clone(),
                kind: Some(frag.kind),
            });
        }
        Plan { steps }
    }

    fn generate_sql(&self, prompt: &Prompt, seed: u64) -> String {
        let (task, facts) = match self.registry.lookup_with_facts(&prompt.question) {
            Some(hit) => hit,
            None => {
                // Unknown question: an honest model guesses from schema.
                let table = prompt
                    .schema
                    .first()
                    .map(|s| s.table.clone())
                    .unwrap_or_else(|| "UNKNOWN_TABLE".to_string());
                return format!("SELECT * FROM {table} LIMIT 10");
            }
        };
        // Parsed on the first drift or corruption that fires; a call that
        // fires none returns the rendering stored at registration.
        let mut gold: Option<Query> = None;
        let attempt = prompt.attempt();
        let cscore = facts.complexity();

        // --- 0. benchmark imprecision ----------------------------------
        // Method-, attempt-, and seed-independent: the same slice of tasks
        // is "imprecise" for everyone, as BIRD's noisy gold is in reality.
        // Imprecision grows with query complexity — BIRD's challenging
        // gold queries are the noisiest — which is why no method's
        // Challenging column approaches its Simple column (Table 1).
        let noise_p = (self.config.noise_rate * (1.0 + cscore as f64 / 40.0)).min(0.5);
        if hash01(&[&task.task_id, "benchmark-noise"], 0) < noise_p {
            apply_drift(
                parsed(&mut gold, task),
                hash_u64(&[&task.task_id, "noise-site"], 0),
            );
        }

        // --- 0b. canonical-form misreading ------------------------------
        // Pipelines that skip query reformulation occasionally misread
        // non-canonical phrasing; deterministic per task so retries don't
        // clear it (the misreading persists).
        let canonical_p = self.config.canonical_form_penalty / prompt.reasoning_effort.max(0.1);
        if !prompt
            .question
            .to_lowercase()
            .trim_start()
            .starts_with("show me")
            && hash01(&[&task.task_id, "canonical"], 0) < canonical_p
        {
            apply_drift(
                parsed(&mut gold, task),
                hash_u64(&[&task.task_id, "canonical-site"], 0),
            );
        }

        // --- 1. enterprise-term requirements ---------------------------
        let covered = prompt.covered_terms();
        let mut corruptions: Vec<Corruption> = Vec::new();
        for req in &task.required_terms {
            if !covered.contains(&req.term.to_uppercase()) {
                corruptions.push(req.corruption.clone());
            }
        }

        // --- 2. schema grounding ---------------------------------------
        let full_visibility = prompt.schema.is_empty();
        if !full_visibility {
            let tables = prompt.schema_tables();
            for t in &task.required_tables {
                if !tables.contains(&t.to_uppercase()) {
                    let to = task
                        .distractor_table
                        .clone()
                        .unwrap_or_else(|| format!("{t}_DETAILS"));
                    corruptions.push(Corruption::RenameTable {
                        from: t.clone(),
                        to,
                    });
                }
            }
            // Needed columns missing from the linked schema are sometimes
            // hallucinated (a loud, retry-fixable failure).
            let linked_cols: std::collections::BTreeSet<String> = prompt
                .schema
                .iter()
                .filter_map(|el| el.column.as_ref().map(|c| c.to_uppercase()))
                .collect();
            for col in &task.required_columns {
                if !linked_cols.contains(&col.to_uppercase())
                    && hash01(&[&task.task_id, "colmiss", col], seed)
                        < self.config.column_miss_penalty
                {
                    corruptions.push(Corruption::RenameColumn {
                        from: col.clone(),
                        to: format!("{}_ADJ", col.to_uppercase()),
                    });
                }
            }
        }
        let schema_size = if full_visibility {
            self.config.full_schema_equivalent
        } else {
            prompt.schema.len()
        };
        let excess = schema_size.saturating_sub(self.config.overload_threshold);
        if excess > 0 {
            // Confusion grows with context size and quadratically with
            // query complexity: a dumped schema barely hurts single-table
            // lookups but wrecks multi-CTE analytics (Table 2's
            // w/o-Schema-Linking row keeps Simple and halves Challenging).
            let p = ((excess as f64 / self.config.overload_scale) * (cscore as f64 / 25.0).powi(2))
                .min(self.config.overload_cap);
            // Context overload causes *silent* misreads (a dropped filter,
            // a wrong constant) — the model happily produces valid SQL
            // answering a slightly different question, so self-correction
            // cannot see it. (Attempt-independent for the same reason.)
            if hash01(&[&task.task_id, "overload"], seed) < p {
                apply_drift(
                    parsed(&mut gold, task),
                    hash_u64(&[&task.task_id, "overload-site"], seed),
                );
            }
        }

        // --- 3. bounded reasoning --------------------------------------
        let mut truncate = false;
        let effort = prompt.reasoning_effort.max(0.1);
        match &prompt.plan {
            Some(plan) if !plan.is_empty() => {
                for (i, step) in plan.steps.iter().enumerate() {
                    let needs_pseudo =
                        !matches!(step.kind, Some(FragmentKind::CteDefinition) | None);
                    if !needs_pseudo {
                        continue;
                    }
                    // NL-only steps drift at a rate that compounds with
                    // plan length (describing many steps in prose strains
                    // consistency); pseudo-SQL-grounded steps keep only a
                    // small flat residual — grounding is what makes long
                    // plans workable (§3.1.2).
                    // Both channels scale inversely with the model tier's
                    // effective effort: a weaker generation model drifts
                    // more even on grounded steps.
                    let p = if step.pseudo_sql.is_none() {
                        self.config.drift_probability * (plan.steps.len() as f64 / 10.0) / effort
                    } else {
                        self.config.pseudo_drift_probability / effort
                    };
                    if hash01(
                        &[&task.task_id, "drift", &i.to_string(), &attempt.to_string()],
                        seed,
                    ) < p
                    {
                        apply_drift(
                            parsed(&mut gold, task),
                            hash_u64(&[&task.task_id, "driftsite", &i.to_string()], seed),
                        );
                    }
                }
            }
            _ => {
                let effective_capacity = (self.config.capacity as f64 * effort) as u32;
                let overflow = cscore.saturating_sub(effective_capacity);
                let n = overflow / self.config.overflow_unit.max(1);
                for k in 0..n {
                    let fires = hash01(
                        &[
                            &task.task_id,
                            "overflow-p",
                            &k.to_string(),
                            &attempt.to_string(),
                        ],
                        seed,
                    ) < self.config.overflow_drift_probability;
                    if fires {
                        apply_drift(
                            parsed(&mut gold, task),
                            hash_u64(
                                &[
                                    &task.task_id,
                                    "overflow",
                                    &k.to_string(),
                                    &attempt.to_string(),
                                ],
                                seed,
                            ),
                        );
                    }
                }
                if overflow > effective_capacity && attempt == 0 {
                    truncate = true;
                }
            }
        }

        // --- 4. self-correction ----------------------------------------
        if attempt > 0 {
            let errors_text = prompt.errors.join(" ").to_uppercase();
            corruptions.retain(|c| match c.error_marker() {
                Some(marker) if errors_text.contains(&marker.to_uppercase()) => {
                    // The error named the hallucinated identifier; the
                    // model usually repairs it.
                    hash01(&[&task.task_id, "fix", marker, &attempt.to_string()], seed)
                        >= self.config.retry_fix_probability
                }
                _ => true,
            });
        }

        if !corruptions.is_empty() {
            let gold = parsed(&mut gold, task);
            for c in &corruptions {
                c.apply(gold);
            }
        }

        let sql = match gold {
            Some(mutated) => mutated.to_string(),
            None => facts.gold_sql().to_string(),
        };
        if truncate {
            crate::mutate::truncate_sql(&sql, 0.62)
        } else {
            sql
        }
    }
}

impl LanguageModel for OracleModel {
    fn name(&self) -> &str {
        "oracle"
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let prompt = &request.prompt;
        Ok(match prompt.task {
            TaskKind::Reformulate => CompletionResponse::Text(self.reformulate(&prompt.question)),
            TaskKind::IntentClassification => {
                CompletionResponse::Items(self.classify_intent(prompt))
            }
            TaskKind::SchemaLinking => {
                CompletionResponse::Items(self.link_schema(prompt, request.seed))
            }
            TaskKind::PlanGeneration => {
                CompletionResponse::Plan(self.generate_plan(prompt, request.seed))
            }
            TaskKind::SqlGeneration => {
                CompletionResponse::Sql(self.generate_sql(prompt, request.seed))
            }
        })
    }
}

/// The gold query to mutate, parsed on first use.
fn parsed<'q>(gold: &'q mut Option<Query>, task: &TaskKnowledge) -> &'q mut Query {
    gold.get_or_insert_with(|| task.gold_query())
}

/// Apply one structural drift corruption chosen by `salt` from the
/// corruptions applicable to this query. Returns true when something
/// changed.
pub fn apply_drift(gold: &mut Query, salt: u64) -> bool {
    let rendered = gold.to_string();
    let mut candidates: Vec<Corruption> = Vec::new();

    for frag in decompose(gold) {
        if frag.kind == FragmentKind::Where {
            let marker = frag.sql.trim_start_matches("WHERE ").to_string();
            // Skip `IN (…)` prefilters: in the pivot-style queries of this
            // workload they are redundant with CASE conditions, so
            // dropping them would be a semantic no-op (an unobservable
            // corruption).
            if marker.to_uppercase().contains(" IN (") {
                continue;
            }
            candidates.push(Corruption::DropWhereConjunct { marker });
        }
    }
    // Only swaps that change results: COUNT(*)→SUM(*) would be a no-op
    // (SUM over the all-ones stream), so COUNT stays out of this list.
    for (from, to) in [
        ("SUM", "AVG"),
        ("AVG", "MAX"),
        ("MIN", "MAX"),
        ("MAX", "MIN"),
    ] {
        if rendered.contains(&format!("{from}(")) {
            candidates.push(Corruption::SwapAggregate {
                from: from.into(),
                to: to.into(),
            });
        }
    }
    // Order flips only matter to EX when ordering selects rows (LIMIT) or
    // feeds a window; otherwise the row multiset is unchanged.
    if rendered.contains("ORDER BY") && (rendered.contains("LIMIT") || rendered.contains("OVER ("))
    {
        candidates.push(Corruption::FlipOrderDirections);
    }
    if rendered.contains("-1 *") || rendered.contains("* -1") {
        candidates.push(Corruption::StripNegOneMultiplier);
    }
    if let Some(lit) = first_string_literal(&rendered) {
        candidates.push(Corruption::ReplaceStringLiteral {
            from: lit.clone(),
            to: format!("{lit}?"),
        });
    }

    if candidates.is_empty() {
        return false;
    }
    let pick = (salt % candidates.len() as u64) as usize;
    candidates[pick].apply(gold) > 0
}

fn first_string_literal(sql: &str) -> Option<String> {
    let start = sql.find('\'')?;
    let rest = &sql[start + 1..];
    let end = rest.find('\'')?;
    let lit = &rest[..end];
    if lit.is_empty() {
        None
    } else {
        Some(lit.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::knowledge::{Difficulty, TaskKnowledge, TermRequirement};
    use crate::prompt::{PromptInstruction, PromptSchemaElement};

    fn sample_task() -> TaskKnowledge {
        TaskKnowledge {
            task_id: "fin-1".into(),
            question: "Identify our 5 sports organisations with the best QoQFP in Canada".into(),
            db_name: "sports".into(),
            gold_sql: "SELECT ORG_NAME, SUM(REVENUE) AS R FROM SPORTS_FINANCIALS \
                       WHERE COUNTRY = 'Canada' AND OWNERSHIP_FLAG = 'COC' \
                       GROUP BY ORG_NAME ORDER BY R DESC LIMIT 5"
                .into(),
            intent: "financial_performance".into(),
            difficulty: Difficulty::Moderate,
            required_terms: vec![TermRequirement {
                term: "QoQFP".into(),
                corruption: Corruption::DropWhereConjunct {
                    marker: "OWNERSHIP_FLAG".into(),
                },
            }],
            required_tables: vec!["SPORTS_FINANCIALS".into()],
            required_columns: vec!["ORG_NAME".into(), "REVENUE".into()],
            evidence: vec![],
            distractor_table: Some("SPORTS_ROSTER".into()),
            distractor_column: Some(("REVENUE".into(), "INCOME_TOTAL".into())),
        }
    }

    fn oracle() -> OracleModel {
        let mut reg = TaskRegistry::new();
        reg.register(sample_task());
        // Tests assert gold fidelity, so the benchmark-noise floor is off.
        let config = OracleConfig {
            noise_rate: 0.0,
            ..OracleConfig::default()
        };
        OracleModel::with_config(reg, config)
    }

    fn schema_elements() -> Vec<PromptSchemaElement> {
        ["ORG_NAME", "REVENUE", "COUNTRY", "OWNERSHIP_FLAG"]
            .iter()
            .map(|c| PromptSchemaElement {
                table: "SPORTS_FINANCIALS".into(),
                column: Some((*c).to_string()),
                description: String::new(),
                top_values: vec![],
            })
            .chain(std::iter::once(PromptSchemaElement {
                table: "SPORTS_FINANCIALS".into(),
                column: None,
                description: String::new(),
                top_values: vec![],
            }))
            .collect()
    }

    fn qoqfp_instruction() -> PromptInstruction {
        PromptInstruction {
            text: "QoQFP means quarter-over-quarter financial performance of our (COC) orgs".into(),
            sql_hint: Some("OWNERSHIP_FLAG = 'COC'".into()),
            term: Some("QoQFP".into()),
        }
    }

    #[test]
    fn reformulation_is_canonical() {
        let o = oracle();
        assert_eq!(
            o.reformulate("Identify our 5 best organisations"),
            "Show me our 5 best organisations"
        );
        assert_eq!(o.reformulate("Show me the revenue"), "Show me the revenue");
        assert_eq!(
            o.reformulate("How many organisations are in Canada?"),
            "Show me the number of organisations are in Canada"
        );
    }

    #[test]
    fn with_term_knowledge_generation_is_gold() {
        let o = oracle();
        let mut p = Prompt::new(
            TaskKind::SqlGeneration,
            "Show me our 5 sports organisations with the best QoQFP in Canada",
        );
        p.schema = schema_elements();
        p.instructions.push(qoqfp_instruction());
        let sql = o
            .complete(&CompletionRequest::new(p))
            .unwrap()
            .as_sql()
            .unwrap()
            .to_string();
        assert!(sql.contains("OWNERSHIP_FLAG = 'COC'"), "{sql}");
    }

    #[test]
    fn without_term_knowledge_corruption_applies() {
        let o = oracle();
        let mut p = Prompt::new(
            TaskKind::SqlGeneration,
            "Show me our 5 sports organisations with the best QoQFP in Canada",
        );
        p.schema = schema_elements();
        // No instruction covering QoQFP.
        let sql = o
            .complete(&CompletionRequest::new(p))
            .unwrap()
            .as_sql()
            .unwrap()
            .to_string();
        assert!(!sql.contains("OWNERSHIP_FLAG"), "{sql}");
    }

    #[test]
    fn evidence_also_covers_terms() {
        let o = oracle();
        let mut p = Prompt::new(
            TaskKind::SqlGeneration,
            "Show me our 5 sports organisations with the best QoQFP in Canada",
        );
        p.schema = schema_elements();
        p.evidence
            .push("QoQFP is computed over COC organizations only".into());
        let sql = o
            .complete(&CompletionRequest::new(p))
            .unwrap()
            .as_sql()
            .unwrap()
            .to_string();
        assert!(sql.contains("OWNERSHIP_FLAG"), "{sql}");
    }

    #[test]
    fn missing_table_in_schema_causes_wrong_table() {
        let o = oracle();
        let mut p = Prompt::new(
            TaskKind::SqlGeneration,
            "Show me our 5 sports organisations with the best QoQFP in Canada",
        );
        p.instructions.push(qoqfp_instruction());
        p.schema = vec![PromptSchemaElement {
            table: "SPORTS_ROSTER".into(),
            column: None,
            description: String::new(),
            top_values: vec![],
        }];
        let sql = o
            .complete(&CompletionRequest::new(p))
            .unwrap()
            .as_sql()
            .unwrap()
            .to_string();
        assert!(sql.contains("SPORTS_ROSTER"), "{sql}");
    }

    #[test]
    fn determinism() {
        let o = oracle();
        let mut p = Prompt::new(
            TaskKind::SqlGeneration,
            "Show me our 5 sports organisations with the best QoQFP in Canada",
        );
        p.schema = schema_elements();
        let a = o.complete(&CompletionRequest::new(p.clone()));
        let b = o.complete(&CompletionRequest::new(p));
        assert_eq!(a, b);
    }

    #[test]
    fn plan_steps_cover_gold_fragments() {
        let o = oracle();
        let mut p = Prompt::new(
            TaskKind::PlanGeneration,
            "Show me our 5 sports organisations with the best QoQFP in Canada",
        );
        // Full decomposed example support: every step keeps pseudo-SQL.
        for kind in [
            FragmentKind::Projection,
            FragmentKind::From,
            FragmentKind::Where,
            FragmentKind::GroupBy,
            FragmentKind::OrderBy,
            FragmentKind::Limit,
        ] {
            p.examples.push(crate::prompt::PromptExample {
                description: format!("{kind} example"),
                sql: "X".into(),
                kind: Some(kind),
                term: None,
            });
        }
        let plan = o
            .complete(&CompletionRequest::new(p))
            .unwrap()
            .as_plan()
            .unwrap()
            .clone();
        assert!(plan.len() >= 5);
        let with_pseudo = plan.steps.iter().filter(|s| s.pseudo_sql.is_some()).count();
        assert_eq!(with_pseudo, plan.len(), "{plan:?}");
        assert!(plan.steps.iter().any(|s| s
            .pseudo_sql
            .as_deref()
            .map(|x| x.contains("FROM SPORTS_FINANCIALS"))
            .unwrap_or(false)));
    }

    #[test]
    fn plan_without_examples_loses_some_pseudo_sql() {
        // Omission pressure scales with plan length; with certain omission
        // and a long plan, every groundable step must lose its pseudo-SQL.
        let mut task = sample_task();
        task.gold_sql = "WITH A AS (SELECT ORG_NAME, SUM(REVENUE) AS R FROM SPORTS_FINANCIALS \
             WHERE COUNTRY = 'Canada' AND OWNERSHIP_FLAG = 'COC' GROUP BY ORG_NAME \
             HAVING SUM(REVENUE) > 0), \
             B AS (SELECT ORG_NAME, R, ROW_NUMBER() OVER (ORDER BY R DESC) AS RNK FROM A \
             WHERE R > 1), \
             C AS (SELECT ORG_NAME, R FROM B WHERE RNK <= 10 AND R < 100000) \
             SELECT ORG_NAME, R FROM C WHERE R > 2 ORDER BY R DESC LIMIT 5"
            .into();
        let mut reg = TaskRegistry::new();
        reg.register(task);
        let o = OracleModel::with_config(
            reg,
            OracleConfig {
                omission_probability: 1.0,
                ..OracleConfig::default()
            },
        );
        let p = Prompt::new(
            TaskKind::PlanGeneration,
            "Show me our 5 sports organisations with the best QoQFP in Canada",
        );
        let plan = o
            .complete(&CompletionRequest::new(p))
            .unwrap()
            .as_plan()
            .unwrap()
            .clone();
        assert!(plan.len() >= 15, "expected a long plan, got {}", plan.len());
        let groundable = plan
            .steps
            .iter()
            .filter(|s| !matches!(s.kind, Some(FragmentKind::CteDefinition) | None));
        for step in groundable {
            assert!(step.pseudo_sql.is_none(), "step kept pseudo: {step:?}");
        }
    }

    #[test]
    fn intent_classification_picks_registered_intent() {
        let o = oracle();
        let mut p = Prompt::new(
            TaskKind::IntentClassification,
            "Show me our 5 sports organisations with the best QoQFP in Canada",
        );
        p.intent_candidates = vec!["tv_viewership".into(), "financial_performance".into()];
        let items = o
            .complete(&CompletionRequest::new(p))
            .unwrap()
            .as_items()
            .unwrap()
            .to_vec();
        assert_eq!(items, vec!["financial_performance"]);
    }

    #[test]
    fn schema_linking_keeps_needed_columns() {
        let o = oracle();
        let mut p = Prompt::new(
            TaskKind::SchemaLinking,
            "Show me our 5 sports organisations with the best QoQFP in Canada",
        );
        p.schema = schema_elements();
        p.schema.push(PromptSchemaElement {
            table: "SPORTS_ROSTER".into(),
            column: Some("PLAYER".into()),
            description: String::new(),
            top_values: vec![],
        });
        let items = o
            .complete(&CompletionRequest::new(p))
            .unwrap()
            .as_items()
            .unwrap()
            .to_vec();
        assert!(items.iter().any(|k| k == "SPORTS_FINANCIALS.ORG_NAME"));
        assert!(items.iter().any(|k| k == "SPORTS_FINANCIALS"));
        // The roster distractor is (almost always) filtered.
        assert!(
            items
                .iter()
                .filter(|k| k.starts_with("SPORTS_ROSTER"))
                .count()
                <= 1
        );
    }

    #[test]
    fn unknown_question_degrades_gracefully() {
        let o = oracle();
        let mut p = Prompt::new(TaskKind::SqlGeneration, "question about penguins entirely");
        p.schema = schema_elements();
        let sql = o
            .complete(&CompletionRequest::new(p))
            .unwrap()
            .as_sql()
            .unwrap()
            .to_string();
        assert!(sql.contains("LIMIT 10"));
    }

    #[test]
    fn drift_changes_query() {
        let task = sample_task();
        let mut q = task.gold_query();
        let before = q.to_string();
        let changed = apply_drift(&mut q, 1);
        assert!(changed);
        assert_ne!(before, q.to_string());
    }
}
