//! Property tests for the batch scheduler's core guarantee: fronting a
//! deterministic model with a [`BatchScheduler`] never changes any
//! caller's response, no matter how requests interleave, which task
//! kinds they mix, how large the coalescing window is, or how many
//! duplicates land in one batch. Batching may only change *when* a
//! response arrives, never *what* it is.

use genedit_bird::Workload;
use genedit_llm::{
    BatchConfig, BatchScheduler, CompletionRequest, LanguageModel, OracleModel, Prompt, TaskKind,
};
use genedit_telemetry::clock::{Clock, SimulatedClock};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

fn workload() -> &'static Workload {
    static WORKLOAD: OnceLock<Workload> = OnceLock::new();
    WORKLOAD.get_or_init(|| Workload::small(42))
}

const KINDS: [TaskKind; 5] = [
    TaskKind::Reformulate,
    TaskKind::IntentClassification,
    TaskKind::SchemaLinking,
    TaskKind::PlanGeneration,
    TaskKind::SqlGeneration,
];

/// One logical call in a schedule: which registered question, which
/// operator kind, and which sampling seed. Duplicates are allowed (and
/// likely), so batches regularly carry identical requests that must
/// still resolve per-caller.
fn arb_schedule() -> impl Strategy<Value = Vec<(usize, usize, u64)>> {
    prop::collection::vec((0usize..64, 0usize..KINDS.len(), 0u64..4), 1..24)
}

fn requests(schedule: &[(usize, usize, u64)]) -> Vec<CompletionRequest> {
    let w = workload();
    let tasks = w.registry().tasks().to_vec();
    schedule
        .iter()
        .map(|&(task, kind, seed)| {
            let question = &tasks[task % tasks.len()].question;
            CompletionRequest::with_seed(Prompt::new(KINDS[kind], question), seed)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// For any schedule of concurrent callers and any batch window, the
    /// scheduler's answers are byte-identical to calling the oracle
    /// unbatched — per caller, in caller order.
    #[test]
    fn batched_oracle_is_byte_identical_to_unbatched(
        schedule in arb_schedule(),
        max_batch in 1usize..10,
        wait_us in 0u64..5_000,
    ) {
        let w = workload();
        let oracle = OracleModel::new(w.registry());
        let reqs = requests(&schedule);

        // Ground truth: the bare oracle, one call per request.
        let expected: Vec<_> = reqs.iter().map(|r| oracle.complete(r)).collect();

        // Batched: every caller races through one shared scheduler. The
        // simulated clock makes coalescing windows elapse instantly, so
        // batch composition depends purely on thread interleaving —
        // exactly the nondeterminism the property quantifies over.
        let clock = Arc::new(SimulatedClock::new());
        let scheduler = BatchScheduler::with_clock(
            OracleModel::new(w.registry()),
            BatchConfig {
                max_batch_size: max_batch,
                max_wait: Duration::from_micros(wait_us),
                ..BatchConfig::default()
            },
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        let actual: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = reqs
                .iter()
                .map(|r| scope.spawn(|| scheduler.complete(r)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("caller thread panicked"))
                .collect()
        });

        prop_assert_eq!(actual, expected);
    }
}
