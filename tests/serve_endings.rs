//! The endings table of `ServeRuntime`, pinned row by row.
//!
//! An admitted request ends exactly one way — completed (validated,
//! unvalidated or replayed from the cache), shed, expired, cancelled
//! (while queued or mid-generation), panicked, or force-drained (queued
//! or in flight) — and a refused one is answered with one of four
//! `Rejected` reasons. Each test below drives the public API into one
//! ending and asserts the **whole row**: the outcome variant, the exact
//! delta of every `serve.*` counter, the flight-recorder verdict, whether
//! the SLO window counted the request (and as good or bad), what the
//! tenant's quarantine breaker was charged, and that the ticket's state,
//! once decided, never moves.
//!
//! Every scenario runs twice, once per [`SloProbe`], because the SLO
//! tracker is private to the runtime: the only public trace of what it
//! was fed is the `serve.slo.fired` counter, and one configuration can
//! tell "counted" from "not counted" *or* "bad" from "good", not both.

use genedit::bird::{DomainBundle, SPORTS};
use genedit::core::KnowledgeIndex;
use genedit::llm::{
    CompletionRequest, CompletionResponse, LanguageModel, ModelError, OracleConfig, OracleModel,
    TaskRegistry,
};
use genedit::serve::{
    ObsConfig, QuarantineConfig, QuarantineState, QueryOutcome, QueryRequest, Rejected,
    ServeConfig, ServeRuntime, SupervisorConfig, Ticket,
};
use genedit::sql::catalog::Database;
use genedit::telemetry::slo::BurnRateRule;
use genedit::telemetry::{RecorderConfig, RequestVerdict, SloConfig};
use std::collections::BTreeMap;
use std::sync::{Arc, Condvar, Mutex, OnceLock};
use std::time::{Duration, Instant};

/// A question carrying this marker panics inside the model.
const POISON: &str = "POISON";
/// A question carrying this marker fails every model call, so the
/// pipeline degrades all the way to an unvalidated result.
const BROKEN: &str = "BROKEN";
/// A question carrying this marker parks its worker inside the model
/// until the fixture's gate opens.
const GATED: &str = "GATED";

/// The tenant whose request is under test; helpers use other tenants so
/// its quarantine breaker sees that one request only.
const TENANT: &str = "acme";

const BOUND: Duration = Duration::from_secs(20);

/// A gate the test holds closed to pin a worker inside a model call.
/// Counts arrivals, so a test can wait until the worker is really parked
/// (and every counter on the way there has been bumped).
#[derive(Default)]
struct Gate {
    /// (open, arrivals)
    state: Mutex<(bool, usize)>,
    cv: Condvar,
}

impl Gate {
    fn open(&self) {
        self.state.lock().unwrap().0 = true;
        self.cv.notify_all();
    }

    fn pass(&self) {
        let mut state = self.state.lock().unwrap();
        state.1 += 1;
        self.cv.notify_all();
        while !state.0 {
            state = self.cv.wait(state).unwrap();
        }
    }

    fn wait_parked(&self) {
        let deadline = Instant::now() + BOUND;
        let mut state = self.state.lock().unwrap();
        while state.1 == 0 {
            assert!(Instant::now() < deadline, "no worker reached the gate");
            state = self
                .cv
                .wait_timeout(state, Duration::from_millis(50))
                .unwrap()
                .0;
        }
    }
}

/// The oracle behind the three markers.
struct ScriptedModel {
    inner: OracleModel,
    gate: Arc<Gate>,
}

impl LanguageModel for ScriptedModel {
    fn name(&self) -> &str {
        "scripted"
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        // The original question too: a reformulated prompt keeps its script.
        let original = request.prompt.original_question.as_deref().unwrap_or("");
        let has =
            |marker: &str| request.prompt.question.contains(marker) || original.contains(marker);
        if has(POISON) {
            panic!("{POISON}-pill request");
        }
        if has(BROKEN) {
            return Err(ModelError::Transient("scripted outage".to_string()));
        }
        if has(GATED) {
            self.gate.pass();
        }
        self.inner.complete(request)
    }
}

/// Keep injected poison panics off stderr; every other panic (test
/// assertions included) still prints through the default hook.
fn quiet_poison_panics() {
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
            if !message.contains(POISON) {
                default(info);
            }
        }));
    });
}

struct World {
    bundle: DomainBundle,
    index: Arc<KnowledgeIndex>,
    db: Arc<Database>,
}

fn world() -> &'static World {
    static WORLD: OnceLock<World> = OnceLock::new();
    WORLD.get_or_init(|| {
        let bundle = DomainBundle::build(&SPORTS, (8, 7, 3), 42);
        let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
        let db = Arc::new(bundle.db.clone());
        World { bundle, index, db }
    })
}

/// A gold question the noise-free oracle answers with validated SQL.
fn good_question() -> &'static str {
    &world().bundle.tasks[0].question
}

/// Which half of the SLO feed `serve.slo.fired` is made to reveal.
#[derive(Debug, Clone, Copy, PartialEq)]
enum SloProbe {
    /// Every counted request is bad (latency bound below zero) and the
    /// alert needs `primes + 1` samples: it fires iff the request under
    /// test was counted at all, `primes` being the counted requests the
    /// scenario runs first.
    Counted { primes: u64 },
    /// No latency bound, one sample suffices: the alert fires iff the
    /// request under test was counted *with its error flag set*.
    Burned,
}

/// How the SLO window saw a request.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Slo {
    Uncounted,
    Good,
    Bad,
}

/// What the tenant's quarantine breaker was charged.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Charge {
    Success,
    Failure,
    /// Neutral: neither evidence of health nor of poison.
    Abandoned,
}

struct Fixture {
    runtime: ServeRuntime<ScriptedModel>,
    gate: Arc<Gate>,
    probe: SloProbe,
    before: BTreeMap<String, u64>,
}

impl Fixture {
    fn start(probe: SloProbe, queue_capacity: usize) -> Fixture {
        quiet_poison_panics();
        let w = world();
        let mut registry = TaskRegistry::new();
        for task in &w.bundle.tasks {
            registry.register(task.clone());
        }
        let oracle = OracleModel::with_config(
            registry,
            OracleConfig {
                noise_rate: 0.0,
                pseudo_drift_probability: 0.0,
                drift_probability: 0.0,
                canonical_form_penalty: 0.0,
                ..Default::default()
            },
        );
        let (latency_threshold_ms, min_samples) = match probe {
            SloProbe::Counted { primes } => (-1.0, primes + 1),
            SloProbe::Burned => (f64::MAX, 1),
        };
        let gate = Arc::new(Gate::default());
        let runtime = ServeRuntime::start(
            ScriptedModel {
                inner: oracle,
                gate: Arc::clone(&gate),
            },
            Arc::clone(&w.index),
            0,
            Arc::clone(&w.db),
            ServeConfig {
                workers: 1,
                queue_capacity,
                supervisor: SupervisorConfig {
                    poll_interval: Duration::from_millis(1),
                    backoff_base: Duration::from_millis(1),
                    backoff_max: Duration::from_millis(5),
                    respawn_budget: 64,
                },
                // One failure trips a tenant (1/1 ≥ 0.6), one success
                // beside one failure does not (1/2), and a tripped
                // tenant probes on its very next submit.
                quarantine: QuarantineConfig {
                    enabled: true,
                    window: Duration::from_secs(600),
                    min_samples: 1,
                    failure_ratio: 0.6,
                    cooldown: Duration::ZERO,
                    probe_quota: 1,
                },
                observability: ObsConfig {
                    // Any bad sample at all fires, once enough arrived.
                    slo: Some(SloConfig {
                        name: "serve.request".to_string(),
                        objective: 0.5,
                        latency_threshold_ms,
                        min_samples,
                        rules: vec![BurnRateRule {
                            long: Duration::from_secs(600),
                            short: Duration::from_secs(300),
                            factor: 0.01,
                        }],
                    }),
                    recorder: Some(RecorderConfig {
                        keep_normal_one_in: 1,
                        ..RecorderConfig::default()
                    }),
                    dump_path: None,
                },
                ..ServeConfig::default()
            },
        );
        let mut fixture = Fixture {
            runtime,
            gate,
            probe,
            before: BTreeMap::new(),
        };
        fixture.mark();
        fixture
    }

    fn serve_counters(&self) -> BTreeMap<String, u64> {
        self.runtime
            .metrics()
            .counter_values()
            .into_iter()
            .filter(|(name, _)| name.starts_with("serve."))
            .collect()
    }

    /// Start measuring here: later deltas are relative to this point.
    fn mark(&mut self) {
        self.before = self.serve_counters();
    }

    fn submit(&self, tenant: &str, question: &str) -> Ticket {
        self.runtime
            .submit(QueryRequest::new(tenant, question))
            .expect("admitted")
    }

    /// Park the single worker inside the model on a helper tenant's
    /// request, so whatever is submitted next stays queued.
    fn block_worker(&self) -> Ticket {
        let blocker = self.submit("blocker", &format!("{GATED} blocker"));
        self.gate.wait_parked();
        blocker
    }

    /// Let a parked blocker go — as an explicit client cancel, the one
    /// ending that touches neither the SLO window nor a breaker. Its row
    /// (`cancelled_mid_generation`) is part of the expected deltas of
    /// every scenario that needed a blocker.
    fn release(&self, blocker: &Ticket) {
        blocker.cancel();
        self.gate.open();
        assert_eq!(kind(&decided(blocker)), "Cancelled");
    }

    /// Assert the exact delta of every `serve.*` counter since `mark`,
    /// and — through `serve.slo.fired`, kept out of `expected` — how the
    /// SLO window saw the request under test.
    fn assert_row(&self, expected: &[(&str, u64)], slo: Slo) {
        let after = self.serve_counters();
        let mut delta: BTreeMap<String, u64> = after
            .iter()
            .map(|(name, v)| {
                (
                    name.clone(),
                    v - self.before.get(name).copied().unwrap_or(0),
                )
            })
            .filter(|(_, d)| *d > 0)
            .collect();
        let fired = delta.remove("serve.slo.fired").unwrap_or(0);
        let expected: BTreeMap<String, u64> = expected
            .iter()
            .map(|(name, n)| (name.to_string(), *n))
            .collect();
        assert_eq!(delta, expected, "serve.* counter deltas ({:?})", self.probe);
        let should_fire = match self.probe {
            SloProbe::Counted { .. } => slo != Slo::Uncounted,
            SloProbe::Burned => slo == Slo::Bad,
        };
        assert_eq!(
            fired,
            u64::from(should_fire),
            "SLO window should have seen the request as {slo:?} ({:?})",
            self.probe
        );
    }

    /// The verdict the flight recorder holds for a ticket, if any.
    fn verdict(&self, ticket: &Ticket) -> Option<RequestVerdict> {
        let records = self.runtime.flight_recorder().expect("recorder").contents();
        let mut matching = records
            .iter()
            .filter(|r| r.request_id == ticket.request_id());
        let verdict = matching.next().map(|r| r.verdict);
        assert!(matching.next().is_none(), "a request is recorded once");
        verdict
    }

    /// Assert what `TENANT`'s breaker was charged for the request under
    /// test, `successes_before` validated completions of the tenant's
    /// having come first. A failure trips it on the spot. Success and
    /// abandonment both leave it closed, so scripted failures are served
    /// next, one more than the earlier successes: they reach the 0.6
    /// trip ratio if the request left no sample (k+1 of 2k+1) and stop
    /// at one half if it left a good one. Call last — the extra
    /// requests move counters.
    fn assert_charge_after(&self, successes_before: usize, charge: Charge) {
        let state = self.runtime.quarantine_state(TENANT);
        if charge == Charge::Failure {
            assert_eq!(state, QuarantineState::Open, "a failure trips the breaker");
            return;
        }
        assert_eq!(state, QuarantineState::Closed);
        for _ in 0..=successes_before {
            let follow_up = self.submit(TENANT, &format!("{BROKEN} follow-up"));
            assert_eq!(kind(&decided(&follow_up)), "Completed(unvalidated)");
        }
        let expected = match charge {
            Charge::Success => QuarantineState::Closed,
            _ => QuarantineState::Open,
        };
        assert_eq!(
            self.runtime.quarantine_state(TENANT),
            expected,
            "breaker after the follow-up failures, request charged as {charge:?}"
        );
    }

    fn assert_charge(&self, charge: Charge) {
        self.assert_charge_after(0, charge);
    }
}

/// A ticket's outcome, asserting it is decided once: `wait` answers the
/// same thing twice and `try_wait` agrees.
fn decided(ticket: &Ticket) -> QueryOutcome {
    let deadline = Instant::now() + BOUND;
    while ticket.try_wait().is_none() {
        assert!(
            Instant::now() < deadline,
            "ticket {} never resolved",
            ticket.request_id()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
    let first = ticket.wait();
    let second = ticket.wait();
    let polled = ticket.try_wait().expect("decided");
    assert_eq!(kind(&first), kind(&second));
    assert_eq!(kind(&first), kind(&polled));
    first
}

/// The variant of an outcome with what distinguishes it inside the
/// variant, as one comparable string.
fn kind(outcome: &QueryOutcome) -> String {
    match outcome {
        QueryOutcome::Completed { result, cached, .. } => format!(
            "Completed({}{})",
            if result.validated {
                "validated"
            } else {
                "unvalidated"
            },
            if *cached { ", cached" } else { "" }
        ),
        QueryOutcome::Expired => "Expired".to_string(),
        QueryOutcome::Cancelled => "Cancelled".to_string(),
        QueryOutcome::Shed => "Shed".to_string(),
        QueryOutcome::Failed { reason } => format!("Failed({reason})"),
    }
}

/// What a blocker released by [`Fixture::release`] adds to a scenario
/// marked *after* the blocker parked.
const RELEASED_BLOCKER: (&str, u64) = ("serve.cancelled", 1);

fn both_probes(primes: u64, scenario: impl Fn(SloProbe)) {
    scenario(SloProbe::Counted { primes });
    scenario(SloProbe::Burned);
}

#[test]
fn completed_validated() {
    both_probes(0, |probe| {
        let fx = Fixture::start(probe, 64);
        let ticket = fx.submit(TENANT, good_question());
        assert_eq!(kind(&decided(&ticket)), "Completed(validated)");
        fx.assert_row(
            &[
                ("serve.admitted", 1),
                ("serve.cache.miss", 1),
                ("serve.reform.miss", 1),
                ("serve.completed", 1),
            ],
            Slo::Good,
        );
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Ok));
        fx.assert_charge(Charge::Success);
        fx.runtime.shutdown();
    });
}

#[test]
fn completed_unvalidated() {
    both_probes(0, |probe| {
        let fx = Fixture::start(probe, 64);
        let ticket = fx.submit(TENANT, &format!("{BROKEN} question"));
        assert_eq!(kind(&decided(&ticket)), "Completed(unvalidated)");
        fx.assert_row(
            &[
                ("serve.admitted", 1),
                ("serve.cache.miss", 1),
                ("serve.reform.miss", 1),
                ("serve.completed", 1),
                ("serve.quarantine.tripped", 1),
            ],
            Slo::Bad,
        );
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Error));
        fx.assert_charge(Charge::Failure);
        fx.runtime.shutdown();
    });
}

#[test]
fn completed_from_the_result_cache() {
    both_probes(1, |probe| {
        let mut fx = Fixture::start(probe, 64);
        // Same tenant, same question, same epoch: the cache key.
        let prime = fx.submit(TENANT, good_question());
        assert_eq!(kind(&decided(&prime)), "Completed(validated)");
        fx.mark();
        let ticket = fx.submit(TENANT, good_question());
        assert_eq!(kind(&decided(&ticket)), "Completed(validated, cached)");
        fx.assert_row(
            &[
                ("serve.admitted", 1),
                ("serve.cache.hit", 1),
                ("serve.completed", 1),
            ],
            Slo::Good,
        );
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Ok));
        fx.assert_charge_after(1, Charge::Success);
        fx.runtime.shutdown();
    });
}

#[test]
fn shed_for_a_later_deadline() {
    both_probes(0, |probe| {
        let mut fx = Fixture::start(probe, 1);
        let blocker = fx.block_worker();
        fx.mark();
        let ticket = fx
            .runtime
            .submit(QueryRequest::new(TENANT, good_question()).with_deadline_in(BOUND))
            .expect("admitted");
        // No deadline is the latest deadline: the queued one is shed.
        let usurper = fx.submit("usurper", good_question());
        assert_eq!(kind(&decided(&ticket)), "Shed");
        fx.assert_row(&[("serve.admitted", 2), ("serve.shed", 1)], Slo::Uncounted);
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
        usurper.cancel();
        fx.release(&blocker);
        assert_eq!(kind(&decided(&usurper)), "Cancelled");
        fx.assert_charge(Charge::Abandoned);
        fx.runtime.shutdown();
    });
}

#[test]
fn expired_while_queued() {
    both_probes(0, |probe| {
        let mut fx = Fixture::start(probe, 64);
        let blocker = fx.block_worker();
        fx.mark();
        let ticket = fx
            .runtime
            .submit(
                QueryRequest::new(TENANT, good_question())
                    .with_deadline_in(Duration::from_millis(20)),
            )
            .expect("admitted");
        std::thread::sleep(Duration::from_millis(40));
        fx.release(&blocker);
        assert_eq!(kind(&decided(&ticket)), "Expired");
        // Never executed: no cache lookup on the way out.
        fx.assert_row(
            &[
                ("serve.admitted", 1),
                ("serve.expired", 1),
                RELEASED_BLOCKER,
            ],
            Slo::Bad,
        );
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
        fx.assert_charge(Charge::Abandoned);
        fx.runtime.shutdown();
    });
}

#[test]
fn cancelled_while_queued() {
    both_probes(0, |probe| {
        let mut fx = Fixture::start(probe, 64);
        let blocker = fx.block_worker();
        fx.mark();
        let ticket = fx.submit(TENANT, good_question());
        ticket.cancel();
        fx.release(&blocker);
        assert_eq!(kind(&decided(&ticket)), "Cancelled");
        fx.assert_row(
            &[
                ("serve.admitted", 1),
                ("serve.cancelled", 1 + RELEASED_BLOCKER.1),
            ],
            Slo::Uncounted,
        );
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
        fx.assert_charge(Charge::Abandoned);
        fx.runtime.shutdown();
    });
}

#[test]
fn cancelled_mid_generation() {
    both_probes(0, |probe| {
        let fx = Fixture::start(probe, 64);
        let ticket = fx.submit(TENANT, &format!("{GATED} question"));
        fx.gate.wait_parked();
        ticket.cancel();
        fx.gate.open();
        assert_eq!(kind(&decided(&ticket)), "Cancelled");
        fx.assert_row(
            &[
                ("serve.admitted", 1),
                ("serve.cache.miss", 1),
                ("serve.reform.miss", 1),
                ("serve.cancelled", 1),
            ],
            Slo::Uncounted,
        );
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
        fx.assert_charge(Charge::Abandoned);
        fx.runtime.shutdown();
    });
}

#[test]
fn expired_mid_generation() {
    both_probes(0, |probe| {
        let fx = Fixture::start(probe, 64);
        let ticket = fx
            .runtime
            .submit(
                QueryRequest::new(TENANT, format!("{GATED} question"))
                    .with_deadline_in(Duration::from_millis(20)),
            )
            .expect("admitted");
        fx.gate.wait_parked();
        std::thread::sleep(Duration::from_millis(40));
        fx.gate.open();
        assert_eq!(kind(&decided(&ticket)), "Expired");
        fx.assert_row(
            &[
                ("serve.admitted", 1),
                ("serve.cache.miss", 1),
                ("serve.reform.miss", 1),
                ("serve.expired", 1),
            ],
            Slo::Bad,
        );
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
        fx.assert_charge(Charge::Abandoned);
        fx.runtime.shutdown();
    });
}

#[test]
fn panicked() {
    both_probes(0, |probe| {
        let fx = Fixture::start(probe, 64);
        let ticket = fx.submit(TENANT, &format!("{POISON} question"));
        assert_eq!(
            kind(&decided(&ticket)),
            format!("Failed({POISON}-pill request)")
        );
        // The worker retired; the supervisor's respawn is the last
        // counter this ending moves.
        let deadline = Instant::now() + BOUND;
        while fx.runtime.metrics().counter("serve.worker.respawned") == 0 {
            assert!(Instant::now() < deadline, "worker never respawned");
            std::thread::sleep(Duration::from_millis(1));
        }
        fx.assert_row(
            &[
                ("serve.admitted", 1),
                ("serve.cache.miss", 1),
                ("serve.reform.miss", 1),
                ("serve.panic", 1),
                ("serve.quarantine.tripped", 1),
                ("serve.worker.respawned", 1),
            ],
            Slo::Bad,
        );
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Panicked));
        fx.assert_charge(Charge::Failure);
        fx.runtime.shutdown();
    });
}

/// Both drain rows at once: a bounded drain whose deadline passes with
/// one request wedged inside the model and one queued behind it.
#[test]
fn force_drained_queued_and_in_flight() {
    both_probes(0, |probe| {
        let mut fx = Fixture::start(probe, 64);
        let wedged = fx.submit(TENANT, &format!("{GATED} wedged"));
        fx.gate.wait_parked();
        let queued = fx.submit("queued", good_question());
        fx.mark();
        let report = fx.runtime.shutdown_with_deadline(Duration::from_millis(30));
        assert!(!report.clean);
        assert_eq!(
            (
                report.forced_queued,
                report.cancelled_inflight,
                report.forced_inflight,
                report.detached_workers
            ),
            (1, 1, 1, 1)
        );
        assert_eq!(kind(&decided(&queued)), "Cancelled");
        assert_eq!(kind(&decided(&wedged)), "Cancelled");
        fx.assert_row(
            &[
                ("serve.drain.forced_queued", 1),
                ("serve.drain.forced_inflight", 1),
            ],
            Slo::Uncounted,
        );
        assert_eq!(fx.verdict(&queued), Some(RequestVerdict::Cancelled));
        // The wedged ticket was resolved over its worker's head: nothing
        // is recorded or charged until (unless) that worker comes back.
        assert_eq!(fx.verdict(&wedged), None);
        for tenant in [TENANT, "queued"] {
            assert_eq!(fx.runtime.quarantine_state(tenant), QuarantineState::Closed);
        }
        // It does come back here: the detached worker sees its fired
        // token, accounts the request as cancelled, and finds the ticket
        // already decided.
        fx.gate.open();
        let deadline = Instant::now() + BOUND;
        while fx.verdict(&wedged).is_none() {
            assert!(Instant::now() < deadline, "detached worker never returned");
            std::thread::sleep(Duration::from_millis(1));
        }
        assert_eq!(fx.verdict(&wedged), Some(RequestVerdict::Cancelled));
        fx.assert_row(
            &[
                ("serve.drain.forced_queued", 1),
                ("serve.drain.forced_inflight", 1),
                ("serve.cancelled", 1),
            ],
            Slo::Uncounted,
        );
        assert_eq!(kind(&decided(&wedged)), "Cancelled");
        assert_eq!(
            fx.runtime
                .submit(QueryRequest::new(TENANT, good_question()))
                .err(),
            Some(Rejected::ShuttingDown)
        );
    });
}

/// An unbounded `shutdown` forces nothing: queued work still executes.
#[test]
fn shutdown_lets_queued_work_finish() {
    both_probes(0, |probe| {
        let mut fx = Fixture::start(probe, 64);
        let blocker = fx.block_worker();
        fx.mark();
        let ticket = fx.submit(TENANT, good_question());
        let opener = {
            let gate = Arc::clone(&fx.gate);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(30));
                gate.open();
            })
        };
        blocker.cancel();
        fx.runtime.shutdown();
        opener.join().unwrap();
        assert_eq!(kind(&decided(&blocker)), "Cancelled");
        assert_eq!(kind(&decided(&ticket)), "Completed(validated)");
        fx.assert_row(
            &[
                ("serve.admitted", 1),
                ("serve.cache.miss", 1),
                ("serve.reform.miss", 1),
                ("serve.completed", 1),
                RELEASED_BLOCKER,
            ],
            Slo::Good,
        );
        assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Ok));
    });
}

#[test]
fn rejected_shutting_down() {
    both_probes(0, |probe| {
        let fx = Fixture::start(probe, 64);
        fx.runtime.shutdown();
        let refused = fx
            .runtime
            .submit(QueryRequest::new(TENANT, good_question()));
        assert_eq!(refused.err(), Some(Rejected::ShuttingDown));
        fx.assert_row(&[("serve.rejected", 1)], Slo::Uncounted);
        assert!(fx.runtime.flight_recorder().expect("recorder").is_empty());
    });
}

#[test]
fn rejected_deadline_expired() {
    both_probes(0, |probe| {
        let fx = Fixture::start(probe, 64);
        let refused = fx
            .runtime
            .submit(QueryRequest::new(TENANT, good_question()).with_deadline(Instant::now()));
        assert_eq!(refused.err(), Some(Rejected::DeadlineExpired));
        fx.assert_row(&[("serve.rejected", 1)], Slo::Uncounted);
        assert!(fx.runtime.flight_recorder().expect("recorder").is_empty());
        fx.assert_charge(Charge::Abandoned);
        fx.runtime.shutdown();
    });
}

/// A half-open tenant with its one probe in flight is refused.
#[test]
fn rejected_quarantined() {
    both_probes(1, |probe| {
        let mut fx = Fixture::start(probe, 64);
        let trip = fx.submit(TENANT, &format!("{BROKEN} trip"));
        assert_eq!(kind(&decided(&trip)), "Completed(unvalidated)");
        assert_eq!(fx.runtime.quarantine_state(TENANT), QuarantineState::Open);
        let probe_ticket = fx.submit(TENANT, &format!("{GATED} probe"));
        fx.gate.wait_parked();
        assert_eq!(
            fx.runtime.quarantine_state(TENANT),
            QuarantineState::HalfOpen
        );
        fx.mark();
        let refused = fx
            .runtime
            .submit(QueryRequest::new(TENANT, good_question()));
        assert_eq!(refused.err(), Some(Rejected::Quarantined));
        fx.assert_row(
            &[("serve.rejected", 1), ("serve.quarantine.rejected", 1)],
            Slo::Uncounted,
        );
        assert_eq!(
            fx.runtime.quarantine_state(TENANT),
            QuarantineState::HalfOpen
        );
        fx.release(&probe_ticket);
        fx.runtime.shutdown();
    });
}

/// A full queue nothing can be shed from refuses the request — and a
/// probe refused this way hands its half-open slot back.
#[test]
fn rejected_queue_full() {
    both_probes(1, |probe| {
        let mut fx = Fixture::start(probe, 1);
        let trip = fx.submit(TENANT, &format!("{BROKEN} trip"));
        assert_eq!(kind(&decided(&trip)), "Completed(unvalidated)");
        let blocker = fx.block_worker();
        let filler = fx.submit("filler", good_question());
        fx.mark();
        for attempt in 1..=2 {
            let refused = fx
                .runtime
                .submit(QueryRequest::new(TENANT, good_question()));
            assert_eq!(refused.err(), Some(Rejected::QueueFull));
            // Were the slot leaked, the second attempt would find the
            // probe quota spent and answer `Quarantined`.
            fx.assert_row(
                &[
                    ("serve.rejected", attempt),
                    ("serve.quarantine.probes", attempt),
                ],
                Slo::Uncounted,
            );
        }
        assert_eq!(
            fx.runtime.quarantine_state(TENANT),
            QuarantineState::HalfOpen
        );
        filler.cancel();
        fx.release(&blocker);
        assert_eq!(kind(&decided(&filler)), "Cancelled");
        fx.runtime.shutdown();
    });
}
