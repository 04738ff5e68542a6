//! The endings table of `ServeRuntime`, pinned row by row.
//!
//! An admitted request ends exactly one way — completed (validated,
//! unvalidated or replayed from the cache), shed, expired, cancelled
//! (while queued or mid-generation), panicked, or drained — and a refused
//! one is answered with one of three `Rejected` reasons. Each test below
//! drives the public API into one ending and asserts the **whole row**:
//! the outcome variant, the exact delta of every `serve.*` counter, the
//! flight-recorder verdict, and that the ticket's state, once decided,
//! never moves. The drained row (still queued after every worker exited)
//! needs a worker to die outside its per-request boundary, which the
//! public API cannot bring about, so it has no test here.

use genedit::bird::{DomainBundle, SPORTS};
use genedit::core::KnowledgeIndex;
use genedit::llm::{
    CompletionRequest, CompletionResponse, LanguageModel, ModelError, OracleConfig, OracleModel,
    TaskRegistry,
};
use genedit::serve::{QueryOutcome, QueryRequest, Rejected, ServeConfig, ServeRuntime, Ticket};
use genedit::sql::catalog::Database;
use genedit::telemetry::{RecorderConfig, RequestVerdict};
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
/// their requests never share its cache keys.
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

struct Fixture {
    runtime: ServeRuntime<ScriptedModel>,
    gate: Arc<Gate>,
    before: BTreeMap<String, u64>,
}

impl Fixture {
    fn start(queue_capacity: usize) -> Fixture {
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
                recorder: Some(RecorderConfig {
                    keep_normal_one_in: 1,
                    ..RecorderConfig::default()
                }),
                ..ServeConfig::default()
            },
        );
        let mut fixture = Fixture {
            runtime,
            gate,
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

    /// Let a parked blocker go, as an explicit client cancel. Its row
    /// (`cancelled_mid_generation`) is part of the expected deltas of
    /// every scenario that needed a blocker.
    fn release(&self, blocker: &Ticket) {
        blocker.cancel();
        self.gate.open();
        assert_eq!(kind(&decided(blocker)), "Cancelled");
    }

    /// Assert the exact delta of every `serve.*` counter since `mark`.
    fn assert_row(&self, expected: &[(&str, u64)]) {
        let after = self.serve_counters();
        let delta: BTreeMap<String, u64> = after
            .iter()
            .map(|(name, v)| {
                (
                    name.clone(),
                    v - self.before.get(name).copied().unwrap_or(0),
                )
            })
            .filter(|(_, d)| *d > 0)
            .collect();
        let expected: BTreeMap<String, u64> = expected
            .iter()
            .map(|(name, n)| (name.to_string(), *n))
            .collect();
        assert_eq!(delta, expected, "serve.* counter deltas");
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

#[test]
fn completed_validated() {
    let fx = Fixture::start(64);
    let ticket = fx.submit(TENANT, good_question());
    assert_eq!(kind(&decided(&ticket)), "Completed(validated)");
    fx.assert_row(&[
        ("serve.admitted", 1),
        ("serve.cache.miss", 1),
        ("serve.reform.miss", 1),
        ("serve.completed", 1),
    ]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Ok));
    fx.runtime.shutdown();
}

#[test]
fn completed_unvalidated() {
    let fx = Fixture::start(64);
    let ticket = fx.submit(TENANT, &format!("{BROKEN} question"));
    assert_eq!(kind(&decided(&ticket)), "Completed(unvalidated)");
    fx.assert_row(&[
        ("serve.admitted", 1),
        ("serve.cache.miss", 1),
        ("serve.reform.miss", 1),
        ("serve.completed", 1),
    ]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Error));
    fx.runtime.shutdown();
}

#[test]
fn completed_from_the_result_cache() {
    let mut fx = Fixture::start(64);
    // Same tenant, same question, same epoch: the cache key.
    let prime = fx.submit(TENANT, good_question());
    assert_eq!(kind(&decided(&prime)), "Completed(validated)");
    fx.mark();
    let ticket = fx.submit(TENANT, good_question());
    assert_eq!(kind(&decided(&ticket)), "Completed(validated, cached)");
    fx.assert_row(&[
        ("serve.admitted", 1),
        ("serve.cache.hit", 1),
        ("serve.completed", 1),
    ]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Ok));
    fx.runtime.shutdown();
}

#[test]
fn shed_for_a_later_deadline() {
    let mut fx = Fixture::start(1);
    let blocker = fx.block_worker();
    fx.mark();
    let ticket = fx
        .runtime
        .submit(QueryRequest::new(TENANT, good_question()).with_deadline_in(BOUND))
        .expect("admitted");
    // No deadline is the latest deadline: the queued one is shed.
    let usurper = fx.submit("usurper", good_question());
    assert_eq!(kind(&decided(&ticket)), "Shed");
    fx.assert_row(&[("serve.admitted", 2), ("serve.shed", 1)]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
    usurper.cancel();
    fx.release(&blocker);
    assert_eq!(kind(&decided(&usurper)), "Cancelled");
    fx.runtime.shutdown();
}

#[test]
fn expired_while_queued() {
    let mut fx = Fixture::start(64);
    let blocker = fx.block_worker();
    fx.mark();
    let ticket = fx
        .runtime
        .submit(
            QueryRequest::new(TENANT, good_question()).with_deadline_in(Duration::from_millis(20)),
        )
        .expect("admitted");
    std::thread::sleep(Duration::from_millis(40));
    fx.release(&blocker);
    assert_eq!(kind(&decided(&ticket)), "Expired");
    // Never executed: no cache lookup on the way out.
    fx.assert_row(&[
        ("serve.admitted", 1),
        ("serve.expired", 1),
        RELEASED_BLOCKER,
    ]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
    fx.runtime.shutdown();
}

#[test]
fn cancelled_while_queued() {
    let mut fx = Fixture::start(64);
    let blocker = fx.block_worker();
    fx.mark();
    let ticket = fx.submit(TENANT, good_question());
    ticket.cancel();
    fx.release(&blocker);
    assert_eq!(kind(&decided(&ticket)), "Cancelled");
    fx.assert_row(&[
        ("serve.admitted", 1),
        ("serve.cancelled", 1 + RELEASED_BLOCKER.1),
    ]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
    fx.runtime.shutdown();
}

#[test]
fn cancelled_mid_generation() {
    let fx = Fixture::start(64);
    let ticket = fx.submit(TENANT, &format!("{GATED} question"));
    fx.gate.wait_parked();
    ticket.cancel();
    fx.gate.open();
    assert_eq!(kind(&decided(&ticket)), "Cancelled");
    fx.assert_row(&[
        ("serve.admitted", 1),
        ("serve.cache.miss", 1),
        ("serve.reform.miss", 1),
        ("serve.cancelled", 1),
    ]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
    fx.runtime.shutdown();
}

#[test]
fn expired_mid_generation() {
    let fx = Fixture::start(64);
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
    fx.assert_row(&[
        ("serve.admitted", 1),
        ("serve.cache.miss", 1),
        ("serve.reform.miss", 1),
        ("serve.expired", 1),
    ]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Cancelled));
    fx.runtime.shutdown();
}

#[test]
fn panicked() {
    let fx = Fixture::start(64);
    let ticket = fx.submit(TENANT, &format!("{POISON} question"));
    assert_eq!(
        kind(&decided(&ticket)),
        format!("Failed({POISON}-pill request)")
    );
    fx.assert_row(&[
        ("serve.admitted", 1),
        ("serve.cache.miss", 1),
        ("serve.reform.miss", 1),
        ("serve.panic", 1),
    ]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Panicked));
    fx.runtime.shutdown();
}

/// `shutdown` forces nothing: queued work still executes.
#[test]
fn shutdown_lets_queued_work_finish() {
    let mut fx = Fixture::start(64);
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
    fx.assert_row(&[
        ("serve.admitted", 1),
        ("serve.cache.miss", 1),
        ("serve.reform.miss", 1),
        ("serve.completed", 1),
        RELEASED_BLOCKER,
    ]);
    assert_eq!(fx.verdict(&ticket), Some(RequestVerdict::Ok));
}

#[test]
fn rejected_shutting_down() {
    let fx = Fixture::start(64);
    fx.runtime.shutdown();
    let refused = fx
        .runtime
        .submit(QueryRequest::new(TENANT, good_question()));
    assert_eq!(refused.err(), Some(Rejected::ShuttingDown));
    fx.assert_row(&[("serve.rejected", 1)]);
    assert!(fx.runtime.flight_recorder().expect("recorder").is_empty());
}

#[test]
fn rejected_deadline_expired() {
    let fx = Fixture::start(64);
    let refused = fx
        .runtime
        .submit(QueryRequest::new(TENANT, good_question()).with_deadline(Instant::now()));
    assert_eq!(refused.err(), Some(Rejected::DeadlineExpired));
    fx.assert_row(&[("serve.rejected", 1)]);
    assert!(fx.runtime.flight_recorder().expect("recorder").is_empty());
    fx.runtime.shutdown();
}

/// A full queue nothing can be shed from refuses the request.
#[test]
fn rejected_queue_full() {
    let mut fx = Fixture::start(1);
    let blocker = fx.block_worker();
    let filler = fx.submit("filler", good_question());
    fx.mark();
    let refused = fx
        .runtime
        .submit(QueryRequest::new(TENANT, good_question()));
    assert_eq!(refused.err(), Some(Rejected::QueueFull));
    fx.assert_row(&[("serve.rejected", 1)]);
    filler.cancel();
    fx.release(&blocker);
    assert_eq!(kind(&decided(&filler)), "Cancelled");
    fx.runtime.shutdown();
}
