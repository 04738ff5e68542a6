//! Evaluation harness: run GenEdit (with ablations) and the baselines over
//! a benchmark workload, producing Table-1/Table-2-style reports.

use crate::baselines::{run_baseline, MethodProfile};
use crate::config::Ablation;
use crate::index::KnowledgeIndex;
use crate::pipeline::GenEditPipeline;
use genedit_bird::{score_prediction, EvalReport, TaskOutcome, Workload};
use genedit_knowledge::KnowledgeSet;
use genedit_llm::{LanguageModel, ModelUsage, OracleConfig, OracleModel, RecordingModel};
use genedit_telemetry::{operator_breakdown, MetricsRegistry, Trace};
use std::collections::HashMap;
use std::sync::{Arc, Mutex};

/// Runs methods over one workload with a shared model and a shared
/// metrics registry: every GenEdit generation folds its trace into the
/// registry, and each report carries its own operator breakdown.
///
/// Defaults to the deterministic oracle; `with_model` substitutes any
/// [`LanguageModel`] (e.g. a [`genedit_llm::FaultInjector`] around the
/// oracle for chaos runs).
pub struct Harness<'w, M: LanguageModel = OracleModel> {
    workload: &'w Workload,
    model: RecordingModel<M>,
    metrics: Arc<MetricsRegistry>,
    warnings: Mutex<Vec<String>>,
}

impl<'w> Harness<'w> {
    /// Harness over the default-configured deterministic oracle.
    pub fn new(workload: &'w Workload) -> Harness<'w> {
        Harness::with_oracle_config(workload, OracleConfig::default())
    }

    /// Harness over an oracle with an explicit failure-model config.
    pub fn with_oracle_config(workload: &'w Workload, config: OracleConfig) -> Harness<'w> {
        let oracle = OracleModel::with_config(workload.registry(), config);
        Harness::with_model(workload, oracle)
    }
}

impl<'w, M: LanguageModel> Harness<'w, M> {
    /// Run the workload against an arbitrary model instead of the oracle.
    pub fn with_model(workload: &'w Workload, model: M) -> Harness<'w, M> {
        Harness {
            workload,
            model: RecordingModel::new(model),
            metrics: Arc::new(MetricsRegistry::default()),
            warnings: Mutex::new(Vec::new()),
        }
    }

    /// Cumulative model-call accounting across everything run so far.
    pub fn model_usage(&self) -> ModelUsage {
        self.model.usage()
    }

    /// Zero the cumulative model-call accounting.
    pub fn reset_usage(&self) {
        self.model.reset_usage()
    }

    /// The wrapped model (e.g. to read a fault injector's log).
    pub fn model(&self) -> &M {
        self.model.inner()
    }

    /// The registry every GenEdit run reports into. Shareable (`Arc`)
    /// with other harnesses or exporters.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.metrics
    }

    /// Non-fatal anomalies the harness survived instead of aborting on
    /// (invalid domain logs, unknown domain names, …).
    pub fn warnings(&self) -> Vec<String> {
        self.warnings_lock().clone()
    }

    fn warnings_lock(&self) -> std::sync::MutexGuard<'_, Vec<String>> {
        self.warnings
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn warn(&self, message: String) {
        self.metrics.incr("harness.warnings", 1);
        self.warnings_lock().push(message);
    }

    /// Build per-domain knowledge indexes, optionally with full-query
    /// (non-decomposed) examples.
    pub fn build_indexes(&self, decompose: bool) -> HashMap<String, KnowledgeIndex> {
        self.workload
            .domains
            .iter()
            .map(|bundle| {
                let mut cfg = bundle.preprocess_config();
                cfg.decompose_examples = decompose;
                let ks = match genedit_knowledge::build_knowledge_set(
                    &cfg,
                    &bundle.logs,
                    &bundle.docs,
                    &bundle.db,
                ) {
                    Ok(ks) => ks,
                    // Degrade rather than abort the whole evaluation: the
                    // domain runs knowledge-free and the anomaly is
                    // reported through `warnings()`.
                    Err(err) => {
                        self.warn(format!(
                            "knowledge build failed for domain {} ({err}); \
                             running with an empty knowledge set",
                            bundle.db.name
                        ));
                        KnowledgeSet::new()
                    }
                };
                (bundle.db.name.clone(), KnowledgeIndex::build(ks))
            })
            .collect()
    }

    /// Run GenEdit under an ablation over the whole workload.
    pub fn run_genedit(&self, ablation: Ablation) -> EvalReport {
        let indexes = self.build_indexes(!ablation.needs_full_query_examples());
        let pipeline = GenEditPipeline::with_config(&self.model, ablation.config())
            .with_metrics(Arc::clone(&self.metrics));
        let mut report = EvalReport::new(ablation.label());
        let mut traces: Vec<Trace> = Vec::new();
        for bundle in &self.workload.domains {
            let index = &indexes[&bundle.db.name];
            for task in &bundle.tasks {
                let result = pipeline.generate(&task.question, index, &bundle.db, &task.evidence);
                let (correct, note) =
                    score_prediction(&bundle.db, &task.gold_sql, result.sql.as_deref());
                report.push(TaskOutcome {
                    task_id: task.task_id.clone(),
                    difficulty: task.difficulty,
                    correct,
                    attempts: result.attempts,
                    note,
                });
                traces.push(result.trace);
            }
        }
        report.set_operators(operator_breakdown(&traces));
        report
    }

    /// Run one baseline over the whole workload.
    pub fn run_baseline(&self, profile: &MethodProfile) -> EvalReport {
        let indexes = self.build_indexes(true);
        let mut report = EvalReport::new(profile.name);
        for bundle in &self.workload.domains {
            let index = &indexes[&bundle.db.name];
            let log_pairs: Vec<(String, String)> = bundle
                .logs
                .iter()
                .map(|l| (l.question.clone(), l.sql.clone()))
                .collect();
            for task in &bundle.tasks {
                let r = run_baseline(
                    profile,
                    &self.model,
                    index,
                    &bundle.db,
                    &task.question,
                    &log_pairs,
                    &task.evidence,
                );
                let (correct, note) =
                    score_prediction(&bundle.db, &task.gold_sql, r.sql.as_deref());
                report.push(TaskOutcome {
                    task_id: task.task_id.clone(),
                    difficulty: task.difficulty,
                    correct,
                    attempts: r.attempts,
                    note,
                });
            }
        }
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn genedit_beats_its_ablations_on_small_suite() {
        let w = Workload::small(42);
        let harness = Harness::new(&w);
        let full = harness.run_genedit(Ablation::None);
        let no_instructions = harness.run_genedit(Ablation::WithoutInstructions);
        assert!(
            full.ex(None) >= no_instructions.ex(None),
            "full {} < w/o instructions {}",
            full.ex(None),
            no_instructions.ex(None)
        );
        assert!(
            full.ex(None) > 40.0,
            "full pipeline EX too low: {}",
            full.ex(None)
        );
    }

    #[test]
    fn usage_accounting_accumulates() {
        let w = Workload::small(42);
        let harness = Harness::new(&w);
        harness.run_genedit(Ablation::None);
        let usage = harness.model_usage();
        assert!(usage.total_calls() > w.task_count());
        assert!(usage.calls.contains_key("plan"));
        assert!(usage.calls.contains_key("sql"));
        harness.reset_usage();
        assert_eq!(harness.model_usage().total_calls(), 0);
    }

    #[test]
    fn report_breaks_down_operators_and_ablation_removes_rows() {
        use genedit_telemetry::names;
        let w = Workload::small(42);
        let harness = Harness::new(&w);

        let full = harness.run_genedit(Ablation::None);
        for name in [
            names::REFORMULATE,
            names::INTENT,
            names::EXAMPLES,
            names::INSTRUCTIONS,
            names::SCHEMA_LINKING,
            names::PLAN,
            names::SQL_ATTEMPT,
        ] {
            let stats = full
                .operators
                .get(name)
                .unwrap_or_else(|| panic!("operator {name} missing from breakdown"));
            assert!(stats.count >= w.task_count(), "{name} count too low");
            assert!(stats.total_ms >= 0.0 && stats.mean_ms >= 0.0);
        }
        // Every model call is attributed: the root rows own them all.
        let root = &full.operators[names::GENERATE];
        assert_eq!(root.llm_calls, full.operators[names::LLM_COMPLETE].count);
        assert!(full.operators[names::PLAN].llm_calls >= w.task_count());

        // Disabling an operator removes its rows from the breakdown.
        let ablated = harness.run_genedit(Ablation::WithoutInstructions);
        assert!(!ablated.operators.contains_key(names::INSTRUCTIONS));
        assert!(ablated.operators.contains_key(names::EXAMPLES));

        // The shared registry saw both runs.
        let snapshot = harness.metrics().snapshot();
        assert_eq!(
            snapshot.histograms["span.pipeline.generate.ms"].count,
            2 * w.task_count()
        );
    }

    #[test]
    fn reports_are_deterministic() {
        let w = Workload::small(42);
        let h1 = Harness::new(&w);
        let h2 = Harness::new(&w);
        let a = h1.run_genedit(Ablation::None);
        let b = h2.run_genedit(Ablation::None);
        assert_eq!(a.ex(None), b.ex(None));
        for (x, y) in a.outcomes.iter().zip(b.outcomes.iter()) {
            assert_eq!(x.correct, y.correct, "task {}", x.task_id);
        }
    }
}
