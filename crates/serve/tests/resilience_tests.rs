//! Fault-containment tests for the serving runtime: per-request panic
//! isolation on a worker that keeps its thread, the submit/shutdown
//! race, unvalidated-result caching, and shutdown.

use genedit_bird::{DomainBundle, SPORTS};
use genedit_core::KnowledgeIndex;
use genedit_llm::{
    CompletionRequest, CompletionResponse, LanguageModel, ModelError, OracleConfig, OracleModel,
    TaskRegistry,
};
use genedit_serve::{QueryOutcome, QueryRequest, Rejected, ServeConfig, ServeRuntime, Ticket};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::ThreadId;
use std::time::{Duration, Instant};

/// Marker that makes [`PoisonModel`] panic: requests whose question
/// carries it are poison pills, everything else passes through.
const POISON: &str = "POISON";

/// Suppress the default panic printout for *injected* poison panics so
/// chaos tests don't spray stderr; every other panic (including test
/// assertion failures) still prints through the saved default hook.
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
            if message.contains(POISON) {
                return;
            }
            default(info);
        }));
    });
}

fn setup() -> (DomainBundle, OracleModel) {
    let bundle = DomainBundle::build(&SPORTS, (8, 7, 3), 42);
    let mut reg = TaskRegistry::new();
    for t in &bundle.tasks {
        reg.register(t.clone());
    }
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
    (bundle, oracle)
}

/// A model that panics whenever the request's question carries the
/// poison marker (checked against the original question too, so a
/// reformulated prompt stays poisonous).
struct PoisonModel<M> {
    inner: M,
}

impl<M: LanguageModel> LanguageModel for PoisonModel<M> {
    fn name(&self) -> &str {
        "poison"
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let original = request.prompt.original_question.as_deref().unwrap_or("");
        if request.prompt.question.contains(POISON) || original.contains(POISON) {
            panic!("{POISON}-pill request");
        }
        self.inner.complete(request)
    }
}

/// A model that logs the thread each call runs on, then delegates.
struct ThreadLog<M> {
    inner: M,
    threads: Arc<Mutex<Vec<ThreadId>>>,
}

impl<M: LanguageModel> LanguageModel for ThreadLog<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        self.threads
            .lock()
            .unwrap()
            .push(std::thread::current().id());
        self.inner.complete(request)
    }
}

/// A model whose error switch can be flipped at runtime: while broken it
/// fails every call (the pipeline degrades to an unvalidated result),
/// afterwards it passes through.
struct SwitchModel<M> {
    inner: M,
    broken: Arc<AtomicBool>,
}

impl<M: LanguageModel> LanguageModel for SwitchModel<M> {
    fn name(&self) -> &str {
        "switch"
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        if self.broken.load(Ordering::SeqCst) {
            return Err(ModelError::Transient("switched off".to_string()));
        }
        self.inner.complete(request)
    }
}

/// Wait for a ticket with an explicit bound, so a stranded ticket fails
/// the test with a message instead of hanging the harness.
fn wait_bounded(ticket: &Ticket, bound: Duration) -> QueryOutcome {
    let deadline = Instant::now() + bound;
    loop {
        if let Some(outcome) = ticket.try_wait() {
            return outcome;
        }
        assert!(
            Instant::now() < deadline,
            "ticket {} never resolved",
            ticket.request_id()
        );
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[test]
fn panicking_request_resolves_its_ticket_and_pool_recovers() {
    quiet_poison_panics();
    let (bundle, oracle) = setup();
    let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
    let threads = Arc::new(Mutex::new(Vec::new()));
    let runtime = ServeRuntime::start(
        ThreadLog {
            inner: PoisonModel { inner: oracle },
            threads: Arc::clone(&threads),
        },
        index,
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    assert_eq!(runtime.workers_alive(), 1);

    let poison = runtime
        .submit(QueryRequest::new("acme", format!("{POISON} this request")))
        .unwrap();
    let outcome = wait_bounded(&poison, Duration::from_secs(10));
    match outcome {
        QueryOutcome::Failed { ref reason } => {
            assert!(
                reason.contains(POISON),
                "panic payload should surface in the outcome, got {reason:?}"
            );
        }
        other => panic!("poison request should fail, got {other:?}"),
    }
    assert_eq!(runtime.metrics().counter("serve.panic"), 1);

    // The worker that caught the panic keeps serving: clean traffic
    // completes on the very thread the poison request ran on.
    assert_eq!(runtime.workers_alive(), 1);
    for task in bundle.tasks.iter().take(3) {
        let ticket = runtime
            .submit(QueryRequest::new("acme", &task.question))
            .unwrap();
        let outcome = wait_bounded(&ticket, Duration::from_secs(10));
        assert!(
            outcome.is_completed(),
            "clean request after a panic should complete, got {outcome:?}"
        );
    }
    let threads = threads.lock().unwrap().clone();
    assert!(threads.len() > 1, "the clean requests called the model");
    assert!(
        threads.iter().all(|id| *id == threads[0]),
        "every call, before and after the panic, ran on one worker thread: {threads:?}"
    );
    runtime.shutdown();
}

#[test]
fn panicked_verdict_lands_in_the_flight_recorder() {
    quiet_poison_panics();
    let (bundle, oracle) = setup();
    let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
    let runtime = ServeRuntime::start(
        PoisonModel { inner: oracle },
        index,
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            recorder: Some(genedit_telemetry::RecorderConfig::default()),
            ..ServeConfig::default()
        },
    );
    let poison = runtime
        .submit(QueryRequest::new("acme", format!("{POISON} recorded")))
        .unwrap();
    wait_bounded(&poison, Duration::from_secs(10));
    let dump = runtime.flight_recorder().unwrap().dump_jsonl();
    assert!(
        dump.contains("Panicked"),
        "flight recorder should carry the Panicked verdict: {dump}"
    );
    runtime.shutdown();
}

#[test]
fn unvalidated_results_are_never_cached() {
    let (bundle, oracle) = setup();
    let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
    let broken = Arc::new(AtomicBool::new(true));
    let runtime = ServeRuntime::start(
        SwitchModel {
            inner: oracle,
            broken: Arc::clone(&broken),
        },
        index,
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let question = &bundle.tasks[0].question;
    // Total outage: the request completes but fails validation. The old
    // runtime cached this result and replayed the broken SQL for the
    // whole epoch.
    let first = runtime.submit(QueryRequest::new("acme", question)).unwrap();
    match wait_bounded(&first, Duration::from_secs(10)) {
        QueryOutcome::Completed { result, cached, .. } => {
            assert!(!result.validated, "outage result should fail validation");
            assert!(!cached);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    // Backend recovers: the same question must re-execute (no cache
    // hit on the unvalidated result) and now validate.
    broken.store(false, Ordering::SeqCst);
    let second = runtime.submit(QueryRequest::new("acme", question)).unwrap();
    match wait_bounded(&second, Duration::from_secs(10)) {
        QueryOutcome::Completed { result, cached, .. } => {
            assert!(!cached, "the unvalidated result must not have been cached");
            assert!(result.validated);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    // The validated result *is* cached.
    let third = runtime.submit(QueryRequest::new("acme", question)).unwrap();
    match wait_bounded(&third, Duration::from_secs(10)) {
        QueryOutcome::Completed { result, cached, .. } => {
            assert!(cached);
            assert!(result.validated);
        }
        other => panic!("expected completion, got {other:?}"),
    }
    runtime.shutdown();
}

#[test]
fn submit_shutdown_race_never_strands_a_ticket() {
    let (bundle, oracle) = setup();
    let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
    let runtime = Arc::new(ServeRuntime::start(
        oracle,
        index,
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 2,
            queue_capacity: 1024,
            ..ServeConfig::default()
        },
    ));
    let questions: Vec<String> = bundle.tasks.iter().map(|t| t.question.clone()).collect();
    let mut submitters = Vec::new();
    for worker in 0..4 {
        let runtime = Arc::clone(&runtime);
        let questions = questions.clone();
        submitters.push(std::thread::spawn(move || {
            let mut tickets = Vec::new();
            for i in 0usize.. {
                let q = &questions[(worker + i) % questions.len()];
                match runtime.submit(QueryRequest::new("acme", q)) {
                    Ok(ticket) => tickets.push(ticket),
                    Err(Rejected::ShuttingDown) => break,
                    Err(Rejected::QueueFull) => std::thread::sleep(Duration::from_millis(1)),
                    Err(other) => panic!("unexpected rejection {other:?}"),
                }
            }
            tickets
        }));
    }
    // Shut down while all four submitters are still hammering: any
    // submit that loses the race under the scheduler lock must answer
    // ShuttingDown, and any that won must resolve below.
    std::thread::sleep(Duration::from_millis(20));
    runtime.shutdown();
    let tickets: Vec<Ticket> = submitters
        .into_iter()
        .flat_map(|h| h.join().unwrap())
        .collect();
    assert!(!tickets.is_empty(), "submitters never got a request in");
    // Every accepted ticket resolves — none stranded behind the race.
    for ticket in &tickets {
        let outcome = wait_bounded(ticket, Duration::from_secs(10));
        assert!(
            outcome.is_completed() || matches!(outcome, QueryOutcome::Cancelled),
            "unexpected outcome {outcome:?}"
        );
    }
}

#[test]
fn shutdown_completes_every_queued_request() {
    let (bundle, oracle) = setup();
    let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
    let runtime = ServeRuntime::start(
        oracle,
        index,
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 2,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<Ticket> = bundle
        .tasks
        .iter()
        .take(6)
        .map(|t| {
            runtime
                .submit(QueryRequest::new("acme", &t.question))
                .unwrap()
        })
        .collect();
    runtime.shutdown();
    for ticket in &tickets {
        assert!(wait_bounded(ticket, Duration::from_secs(5)).is_completed());
    }
}

#[test]
fn try_start_returns_a_working_runtime() {
    let (bundle, oracle) = setup();
    let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
    let runtime = ServeRuntime::try_start(
        oracle,
        index,
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig::default(),
    )
    .expect("spawning a normal pool succeeds");
    assert_eq!(runtime.workers_alive(), 2);
    let ticket = runtime
        .submit(QueryRequest::new("acme", &bundle.tasks[0].question))
        .unwrap();
    assert!(wait_bounded(&ticket, Duration::from_secs(10)).is_completed());
    runtime.shutdown();
}
