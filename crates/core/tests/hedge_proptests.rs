//! Hedging property tests: the full GenEdit pipeline over hedged
//! dispatch and a latency-spike schedule, at arbitrary seeds, spike
//! rates, and hedge policies.
//!
//! The property: **hedging never changes answers**. Whichever copy wins
//! each race — and the winner varies with OS scheduling, spike
//! placement, and the hedge delay — the pipeline's output for a fixed
//! pipeline seed is byte-identical to the plain, unhedged, unspiked
//! run.
//!
//! The schedules here are timing-only (latency spikes) on purpose:
//! error-side faults key off the injector's *call counter*, and hedge
//! duplicates consume counter slots, so an error schedule legitimately
//! diverges between hedged and unhedged runs (different calls fail).
//! Spikes delay answers without changing them, which is exactly the
//! regime where the byte-identity contract must hold unconditionally.

use genedit_bird::Workload;
use genedit_core::{GenEditPipeline, KnowledgeIndex};
use genedit_llm::{
    Clock, FaultConfig, FaultInjector, HedgePolicy, HedgedModel, OracleModel, SystemClock,
};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| Workload::small(42))
}

/// Run every task of the workload's first bundle through `pipeline`,
/// returning the fingerprints in task order.
fn run_all<M: genedit_llm::LanguageModel>(pipeline: &GenEditPipeline<M>) -> Vec<String> {
    let w = workload();
    let bundle = &w.domains[0];
    let index = KnowledgeIndex::build(bundle.build_knowledge());
    bundle
        .tasks
        .iter()
        .map(|task| {
            pipeline
                .generate(&task.question, &index, &bundle.db, &task.evidence)
                .fingerprint()
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Arbitrary spike schedules × arbitrary hedge policies: the hedged
    /// pipeline's outputs are byte-identical to the plain pipeline's.
    /// Each case races real threads, so the hedge-win interleaving
    /// differs run to run — the answers must not.
    #[test]
    fn hedged_pipeline_output_is_byte_identical(
        fault_seed in 0u64..10_000,
        spike_rate in 0.0f64..0.5,
        delay_ms in 1u64..6,
        min_observations in 0u64..16,
    ) {
        let w = workload();
        let plain = GenEditPipeline::new(OracleModel::new(w.registry()));
        let expected = run_all(&plain);

        let injector = FaultInjector::new(
            OracleModel::new(w.registry()),
            FaultConfig {
                latency_spike: spike_rate,
                spike: Duration::from_millis(10),
                ..FaultConfig::default()
            },
            fault_seed,
        )
        .with_clock(Arc::new(SystemClock::new()) as Arc<dyn Clock>);
        let hedged = HedgedModel::new(
            injector,
            HedgePolicy {
                min_delay: Duration::from_millis(delay_ms),
                max_delay: Duration::from_millis(delay_ms),
                min_observations,
                ..HedgePolicy::default()
            },
        );
        let pipeline = GenEditPipeline::new(hedged);
        let got = run_all(&pipeline);

        prop_assert_eq!(&got, &expected, "hedged run diverged from the plain pipeline");
    }
}

/// The same stack run twice: whatever interleaving each run's races
/// take, both runs (and the plain baseline) agree byte for byte.
#[test]
fn repeated_hedged_runs_agree() {
    let w = workload();
    let plain = GenEditPipeline::new(OracleModel::new(w.registry()));
    let expected = run_all(&plain);
    for round in 0..2 {
        let injector = FaultInjector::new(
            OracleModel::new(w.registry()),
            FaultConfig {
                latency_spike: 0.3,
                spike: Duration::from_millis(10),
                ..FaultConfig::default()
            },
            7,
        )
        .with_clock(Arc::new(SystemClock::new()) as Arc<dyn Clock>);
        let hedged = HedgedModel::new(
            injector,
            HedgePolicy {
                min_delay: Duration::from_millis(2),
                max_delay: Duration::from_millis(2),
                min_observations: 5,
                ..HedgePolicy::default()
            },
        );
        let pipeline = GenEditPipeline::new(hedged);
        assert_eq!(
            run_all(&pipeline),
            expected,
            "hedged round {round} diverged from the plain pipeline"
        );
    }
}
