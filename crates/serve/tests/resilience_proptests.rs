//! Property tests for the serving runtime's panic containment: under an
//! arbitrary seeded poison-pill schedule, every admitted ticket resolves
//! to a terminal outcome, the pool never loses a worker, the result
//! cache never serves a corrupted (unvalidated) entry, and every
//! validated answer is the one the pipeline gives with no faults at all.

use genedit_bird::{DomainBundle, SPORTS};
use genedit_core::{GenEditPipeline, KnowledgeIndex};
use genedit_llm::{FaultConfig, FaultInjector, OracleConfig, OracleModel, TaskRegistry};
use genedit_serve::{QueryOutcome, QueryRequest, ServeConfig, ServeRuntime};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};

/// Suppress the default panic printout for the injector's poison-pill
/// panics; everything else still prints through the saved default hook.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if message.contains("injected poison-pill panic") {
                return;
            }
            default(info);
        }));
    });
}

/// One bundle for every case: building the domain is the expensive part
/// and the runtime under test never mutates it.
fn bundle() -> &'static DomainBundle {
    static BUNDLE: OnceLock<DomainBundle> = OnceLock::new();
    BUNDLE.get_or_init(|| DomainBundle::build(&SPORTS, (8, 7, 3), 42))
}

fn oracle() -> OracleModel {
    let mut reg = TaskRegistry::new();
    for t in &bundle().tasks {
        reg.register(t.clone());
    }
    OracleModel::with_config(
        reg,
        OracleConfig {
            noise_rate: 0.0,
            pseudo_drift_probability: 0.0,
            drift_probability: 0.0,
            canonical_form_penalty: 0.0,
            ..Default::default()
        },
    )
}

/// The fault-free answer to each question `picks` can name, from a
/// direct pipeline run over the same knowledge and database.
fn clean_fingerprints() -> &'static [String] {
    static CLEAN: OnceLock<Vec<String>> = OnceLock::new();
    CLEAN.get_or_init(|| {
        let bundle = bundle();
        let index = KnowledgeIndex::build(bundle.build_knowledge());
        let pipeline = GenEditPipeline::new(oracle());
        (0..8)
            .map(|i| {
                let task = &bundle.tasks[i % bundle.tasks.len()];
                pipeline
                    .generate(&task.question, &index, &bundle.db, &[])
                    .fingerprint()
            })
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig { cases: 12 })]

    /// For any (seed, panic rate, request mix, pool size): every ticket
    /// resolves, panicked requests fail cleanly, no cache hit ever
    /// replays an unvalidated result, and every validated result is the
    /// fault-free answer to its question.
    #[test]
    fn arbitrary_panic_schedules_strand_nothing(
        seed in any::<u64>(),
        panic_rate in 0.0f64..0.35,
        workers in 1usize..=3,
        picks in proptest::collection::vec(0usize..8, 6..=18),
    ) {
        quiet_injected_panics();
        let bundle = bundle();
        let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
        let model = FaultInjector::new(
            oracle(),
            FaultConfig::panic_only(panic_rate),
            seed,
        );
        let runtime = ServeRuntime::start(
            model,
            index,
            0,
            Arc::new(bundle.db.clone()),
            ServeConfig {
                workers,
                ..ServeConfig::default()
            },
        );
        let tickets: Vec<_> = picks
            .iter()
            .map(|&i| {
                let task = &bundle.tasks[i % bundle.tasks.len()];
                runtime
                    .submit(QueryRequest::new("acme", &task.question))
                    .unwrap()
            })
            .collect();
        let deadline = Instant::now() + Duration::from_secs(60);
        for (ticket, &pick) in tickets.iter().zip(&picks) {
            let outcome = loop {
                if let Some(outcome) = ticket.try_wait() {
                    break outcome;
                }
                prop_assert!(
                    Instant::now() < deadline,
                    "ticket {} stranded under panic schedule",
                    ticket.request_id()
                );
                std::thread::sleep(Duration::from_millis(1));
            };
            match outcome {
                QueryOutcome::Completed { result, cached, .. } => {
                    if cached {
                        prop_assert!(
                            result.validated,
                            "cache replayed an unvalidated result"
                        );
                    }
                    if result.validated {
                        prop_assert_eq!(
                            &result.fingerprint(),
                            &clean_fingerprints()[pick],
                            "validated answer differs from the fault-free one"
                        );
                    }
                }
                QueryOutcome::Failed { reason } => {
                    prop_assert!(
                        reason.contains("injected poison-pill panic"),
                        "unexpected failure reason {reason:?}"
                    );
                }
                other => {
                    return Err(TestCaseError::fail(format!(
                        "no deadline or cancel in play, got {other:?}"
                    )));
                }
            }
        }
        // The pool never shrank: a panic costs its request, not a worker.
        prop_assert_eq!(runtime.workers_alive(), workers, "pool lost a worker");
        runtime.shutdown();
    }
}
