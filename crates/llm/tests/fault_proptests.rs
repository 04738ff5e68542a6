//! Chaos property tests: the full GenEdit pipeline, driven through a
//! deterministic [`FaultInjector`] at arbitrary fault seeds and rates.
//!
//! The properties:
//! 1. the pipeline never panics and always returns a `GenerationResult`
//!    (degradation, not failure);
//! 2. every injected fault leaves visible evidence — an error-attributed
//!    `llm.complete` span, a warning, or a recorded generation error —
//!    never a silent swallow;
//! 3. at fault rate zero the injector is byte-for-byte the bare oracle:
//!    identical outcomes, identical generations, identical model-call
//!    count and zero injected latency.

use genedit_bird::Workload;
use genedit_core::{Ablation, GenEditPipeline, Harness, KnowledgeIndex};
use genedit_llm::{FaultConfig, FaultInjector, OracleModel};
use genedit_telemetry::clock::{Clock, SimulatedClock};
use genedit_telemetry::names;
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

fn workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| Workload::small(42))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn pipeline_survives_any_fault_schedule(
        fault_seed in 0u64..10_000,
        rate in 0.0f64..0.6,
    ) {
        let w = workload();
        let clock = Arc::new(SimulatedClock::new());
        let injector = FaultInjector::new(
            OracleModel::new(w.registry()),
            FaultConfig::uniform(rate),
            fault_seed,
        )
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        let pipeline = GenEditPipeline::new(&injector);

        let bundle = &w.domains[0];
        let index = KnowledgeIndex::build(bundle.build_knowledge());
        let mut error_spans = 0usize;
        let mut warnings = 0usize;
        let mut errors = 0usize;
        for task in &bundle.tasks {
            // Property 1: this returns — no panic, no hang — for every
            // schedule, and the result is structurally complete.
            let result = pipeline.generate(&task.question, &index, &bundle.db, &task.evidence);
            prop_assert!(result.attempts >= 1);
            prop_assert!(!result.reformulated.is_empty());
            error_spans += result
                .trace
                .all_spans()
                .iter()
                .filter(|s| s.name == names::LLM_COMPLETE && s.attr("error").is_some())
                .count();
            warnings += result.trace.warnings.len();
            errors += result.errors.len();
        }

        // Property 2: visibility. Every injected transport error surfaced
        // as an error-attributed llm.complete span (the injector sits
        // inside the traced layer, so nothing can hide)…
        let log = injector.log();
        prop_assert_eq!(error_spans as u64, log.errors());
        // …and injected faults of any kind leave at least one trail:
        // an error span, a degradation warning, or a recorded error.
        if log.total() > 0 {
            prop_assert!(
                error_spans + warnings + errors > 0,
                "{} faults injected but no evidence in traces/warnings/errors",
                log.total()
            );
        }
    }
}

/// Property 3 as a deterministic test: a zero-rate injector changes
/// nothing — same outcomes, same generations, same call count, no
/// injected latency.
#[test]
fn zero_fault_rate_is_zero_overhead() {
    let w = workload();

    let plain = Harness::new(w);
    let plain_report = plain.run_genedit(Ablation::None);
    let plain_calls = plain.model_usage().total_calls();

    let clock = Arc::new(SimulatedClock::new());
    let injector = FaultInjector::new(OracleModel::new(w.registry()), FaultConfig::default(), 7)
        .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let injected = Harness::with_model(w, injector);
    let injected_report = injected.run_genedit(Ablation::None);
    let injected_calls = injected.model_usage().total_calls();

    assert_eq!(plain_report.ex(None), injected_report.ex(None));
    assert_eq!(plain_calls, injected_calls);
    assert_eq!(plain_report.outcomes.len(), injected_report.outcomes.len());
    for (a, b) in plain_report
        .outcomes
        .iter()
        .zip(injected_report.outcomes.iter())
    {
        assert_eq!(a.task_id, b.task_id);
        assert_eq!(a.correct, b.correct, "task {}", a.task_id);
        assert_eq!(a.attempts, b.attempts, "task {}", a.task_id);
    }

    // Not only the same verdicts: every generation is the same generation.
    let bare = GenEditPipeline::new(plain.model());
    let zero_rate = GenEditPipeline::new(injected.model());
    for bundle in &w.domains {
        let index = KnowledgeIndex::build(bundle.build_knowledge());
        for task in &bundle.tasks {
            let a = bare.generate(&task.question, &index, &bundle.db, &task.evidence);
            let b = zero_rate.generate(&task.question, &index, &bundle.db, &task.evidence);
            assert_eq!(a.fingerprint(), b.fingerprint(), "task {}", task.task_id);
        }
    }
    assert_eq!(injected.model().log().total(), 0);
    assert_eq!(clock.total_slept(), std::time::Duration::ZERO);
}
