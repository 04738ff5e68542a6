//! Baseline method implementations (Table 1 comparison set).
//!
//! Each baseline is an *approximation faithful to its context-assembly
//! strategy* rather than a line-by-line port (none of the original
//! systems can run without their exact LLM stack — see DESIGN.md):
//!
//! * **CHESS** — strong schema selection, full-query examples, benchmark
//!   evidence, candidate sampling; its revision agents are modelled as
//!   reasoning effort.
//! * **MAC-SQL** — linked schema, no example store; its sub-question
//!   decomposer is modelled as reasoning effort (the sub-question text
//!   adds no grounding).
//! * **TA-SQL** — task-alignment reformulation, linked schema, no plan.
//! * **DAIL-SQL** — full-query few-shot examples over the full schema,
//!   single shot.
//! * **C3-SQL** — zero-shot with calibration hints; no examples, no
//!   linking, whole schema dumped (empty schema section = "everything
//!   attached" to the oracle).

use crate::config::PipelineConfig;
use crate::index::KnowledgeIndex;
use crate::pipeline::{Draft, GenerateOptions, Run};
use genedit_llm::{
    hash01, CompletionRequest, LanguageModel, Prompt, PromptExample, PromptSchemaElement, TaskKind,
};
use genedit_sql::catalog::Database;
use genedit_telemetry::Tracer;

/// How a method supplies few-shot examples.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExampleStyle {
    /// No few-shot examples at all.
    None,
    /// Traditional full-query examples drawn from the historical logs.
    FullQuery,
}

/// How a method supplies the schema.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum SchemaStyle {
    /// Dump everything (the oracle treats an empty schema section as
    /// "full warehouse schema attached").
    Dump,
    /// LLM linking followed by lossy filtering with the given recall.
    Linked {
        /// Probability each truly-needed element survives the filter.
        recall: f64,
    },
}

/// A baseline's context-assembly profile.
#[derive(Debug, Clone)]
pub struct MethodProfile {
    /// Display name, matching the paper's Table 1 row label.
    pub name: &'static str,
    /// How the method supplies few-shot examples.
    pub examples: ExampleStyle,
    /// How the method supplies the schema.
    pub schema: SchemaStyle,
    /// Internal sampling/revision compute, as a capacity multiplier for
    /// the oracle's bounded-reasoning model (1.0 = plain prompting).
    pub reasoning_effort: f64,
    /// SQL candidates sampled per attempt.
    pub candidates: usize,
    /// Self-correction retries after a failed validation.
    pub max_retries: usize,
}

/// The paper's comparison set (Table 1), in its row order.
pub fn paper_baselines() -> Vec<MethodProfile> {
    vec![
        MethodProfile {
            name: "CHESS",
            examples: ExampleStyle::FullQuery,
            schema: SchemaStyle::Linked { recall: 0.97 },
            reasoning_effort: 2.0, // candidate sampling + revision agents
            candidates: 3,
            max_retries: 2,
        },
        MethodProfile {
            name: "MAC-SQL",
            examples: ExampleStyle::None,
            schema: SchemaStyle::Linked { recall: 0.85 },
            // The decomposer agent's effect is captured by the effort
            // multiplier; sub-question text itself adds no grounding.
            reasoning_effort: 1.3,
            candidates: 1,
            max_retries: 2,
        },
        MethodProfile {
            name: "TA-SQL",
            examples: ExampleStyle::None,
            schema: SchemaStyle::Linked { recall: 0.95 },
            reasoning_effort: 1.15, // task-alignment pre-pass
            candidates: 1,
            max_retries: 1,
        },
        MethodProfile {
            name: "DAIL-SQL",
            examples: ExampleStyle::FullQuery,
            schema: SchemaStyle::Dump,
            reasoning_effort: 1.0,
            candidates: 1,
            max_retries: 1,
        },
        MethodProfile {
            name: "C3-SQL",
            examples: ExampleStyle::None,
            schema: SchemaStyle::Dump,
            reasoning_effort: 1.0,
            candidates: 1,
            max_retries: 1,
        },
    ]
}

/// Result of one baseline generation.
#[derive(Debug, Clone)]
pub struct BaselineResult {
    /// The generated SQL, if any attempt produced one.
    pub sql: Option<String>,
    /// Attempts consumed (1 = no retries needed).
    pub attempts: usize,
    /// Whether the final SQL parsed and executed cleanly.
    pub validated: bool,
}

/// Run one baseline on one question.
///
/// `full_query_examples` are the historical log queries (the material a
/// baseline would mine its few-shot store from); `evidence` is the
/// benchmark-provided external knowledge.
pub fn run_baseline(
    profile: &MethodProfile,
    model: &dyn LanguageModel,
    index: &KnowledgeIndex,
    db: &Database,
    question: &str,
    full_query_examples: &[(String, String)],
    evidence: &[String],
) -> BaselineResult {
    let ks = index.knowledge();

    // Examples.
    let examples: Vec<PromptExample> = match profile.examples {
        ExampleStyle::None => Vec::new(),
        ExampleStyle::FullQuery => {
            // Select by similarity to the question, like DAIL-SQL's
            // masked-question matching.
            let q = index.embedder().embed(question);
            let mut scored: Vec<(&(String, String), f32)> = full_query_examples
                .iter()
                .map(|pair| {
                    let emb = index.embedder().embed(&pair.0);
                    (pair, genedit_retrieval::cosine(&q, &emb))
                })
                .collect();
            scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
            scored
                .into_iter()
                .take(4)
                .map(|((q, sql), _)| PromptExample {
                    description: q.clone(),
                    sql: sql.clone(),
                    kind: None,
                    term: None,
                })
                .collect()
        }
    };

    // Schema.
    let all_schema = || ks.schema_elements().iter().map(PromptSchemaElement::from);
    let schema: Vec<PromptSchemaElement> = match profile.schema {
        SchemaStyle::Dump => Vec::new(),
        SchemaStyle::Linked { recall } => {
            let mut link = Prompt::new(TaskKind::SchemaLinking, question);
            link.schema = all_schema().collect();
            // Baselines have no degradation ladder (GenEdit degrades each
            // operator to a named fallback): a failed or wrong-variant
            // linking call simply links nothing.
            let keys: Vec<String> = model
                .complete(&CompletionRequest::new(link))
                .ok()
                .and_then(|r| r.as_items().map(|v| v.to_vec()))
                .unwrap_or_default();
            all_schema()
                .filter(|el| keys.iter().any(|k| k == &el.key()))
                .filter(|el| {
                    // Lossy filtering models the method's linking quality.
                    el.column.is_none()
                        || hash01(&[profile.name, "recall", &el.key(), question], 0) < recall
                })
                .collect()
        }
    };

    // Base prompt.
    let mut base = Prompt::new(TaskKind::SqlGeneration, question);
    base.examples = examples;
    base.schema = schema;
    base.reasoning_effort = profile.reasoning_effort;
    // Every baseline reads the benchmark's evidence strings.
    base.evidence = evidence.to_vec();

    // Generate with retries: GenEdit's own generate-validate-retry step
    // under the method's sampling budget, first valid candidate wins. Only
    // GenEdit runs are traced, so its spans go to a tracer nobody reads.
    let cfg = PipelineConfig {
        candidates: profile.candidates,
        max_retries: profile.max_retries,
        ..PipelineConfig::default()
    };
    let run = Run {
        cfg: &cfg,
        metrics: None,
        model,
        tracer: &Tracer::new(profile.name),
        index,
        db,
        opts: &GenerateOptions::default(),
    };
    let mut draft = Draft::new(base);
    run.generate_sql(&mut draft);
    BaselineResult {
        sql: draft.sql,
        attempts: draft.attempts,
        validated: draft.validated,
    }
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
        let oracle = OracleModel::with_config(
            reg,
            OracleConfig {
                noise_rate: 0.0,
                ..Default::default()
            },
        );
        (bundle, index, oracle)
    }

    fn log_pairs(bundle: &DomainBundle) -> Vec<(String, String)> {
        bundle
            .logs
            .iter()
            .map(|l| (l.question.clone(), l.sql.clone()))
            .collect()
    }

    #[test]
    fn five_paper_baselines() {
        let names: Vec<&str> = paper_baselines().iter().map(|p| p.name).collect();
        assert_eq!(
            names,
            vec!["CHESS", "MAC-SQL", "TA-SQL", "DAIL-SQL", "C3-SQL"]
        );
    }

    #[test]
    fn baseline_with_evidence_solves_simple_term_task() {
        // Larger bundle: the tiny test bundle may not include an
        // evidence-carrying term task.
        let bundle = DomainBundle::build(&SPORTS, (24, 7, 3), 42);
        let index = KnowledgeIndex::build(bundle.build_knowledge());
        let mut reg = TaskRegistry::new();
        for t in &bundle.tasks {
            reg.register(t.clone());
        }
        let oracle = OracleModel::with_config(
            reg,
            OracleConfig {
                noise_rate: 0.0,
                ..Default::default()
            },
        );
        let chess = &paper_baselines()[0];
        let task = bundle
            .tasks
            .iter()
            .find(|t| {
                t.difficulty == genedit_llm::Difficulty::Simple
                    && !t.required_terms.is_empty()
                    && !t.evidence.is_empty()
            })
            .expect("a term task with evidence");
        let r = run_baseline(
            chess,
            &oracle,
            &index,
            &bundle.db,
            &task.question,
            &log_pairs(&bundle),
            &task.evidence,
        );
        let (ok, note) =
            genedit_bird::score_prediction(&bundle.db, &task.gold_sql, r.sql.as_deref());
        assert!(ok, "{note:?} {:?}", r.sql);
    }

    #[test]
    fn zero_shot_baseline_struggles_on_challenging() {
        let (bundle, index, oracle) = setup();
        let c3 = paper_baselines()
            .into_iter()
            .find(|p| p.name == "C3-SQL")
            .unwrap();
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.difficulty == genedit_llm::Difficulty::Challenging)
            .unwrap();
        let r = run_baseline(
            &c3,
            &oracle,
            &index,
            &bundle.db,
            &task.question,
            &[],
            &task.evidence,
        );
        let (ok, _) = genedit_bird::score_prediction(&bundle.db, &task.gold_sql, r.sql.as_deref());
        // With no plan and a dumped schema, the QoQ flagship task should
        // not come out EX-correct.
        assert!(!ok, "{:?}", r.sql);
    }

    #[test]
    fn baseline_runs_are_deterministic() {
        let (bundle, index, oracle) = setup();
        let dail = paper_baselines()
            .into_iter()
            .find(|p| p.name == "DAIL-SQL")
            .unwrap();
        let task = &bundle.tasks[1];
        let a = run_baseline(
            &dail,
            &oracle,
            &index,
            &bundle.db,
            &task.question,
            &log_pairs(&bundle),
            &task.evidence,
        );
        let b = run_baseline(
            &dail,
            &oracle,
            &index,
            &bundle.db,
            &task.question,
            &log_pairs(&bundle),
            &task.evidence,
        );
        assert_eq!(a.sql, b.sql);
        assert_eq!(a.attempts, b.attempts);
    }
}
