//! End-to-end tests for the serving runtime: cache correctness across
//! knowledge commits, backpressure/shedding, deadlines, cancellation,
//! fairness, and multi-threaded consistency.

use genedit_bird::{DomainBundle, SPORTS};
use genedit_core::regression::{submit_edits_durable, GoldenQuery, SubmissionResult};
use genedit_core::{GenEditPipeline, GenerationResult, KnowledgeIndex};
use genedit_knowledge::{
    DurableKnowledgeStore, Edit, KnowledgeSet, MemFs, SourceRef, StagingArea, StoreConfig, StoreFs,
};
use genedit_llm::{
    BatchConfig, CompletionRequest, CompletionResponse, HedgePolicy, LanguageModel, ModelError,
    OracleConfig, OracleModel, TaskRegistry,
};
use genedit_serve::{
    ObsConfig, Priority, QueryOutcome, QueryRequest, Rejected, ServeConfig, ServeRuntime,
};
use genedit_telemetry::recorder::dump_from_jsonl;
use genedit_telemetry::span::AttrValue;
use genedit_telemetry::{RecorderConfig, SloConfig};
use std::collections::BTreeSet;
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

fn setup() -> (DomainBundle, KnowledgeSet, OracleModel) {
    let bundle = DomainBundle::build(&SPORTS, (8, 7, 3), 42);
    let ks = bundle.build_knowledge();
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
    (bundle, ks, oracle)
}

/// A gate the test holds closed to pin workers inside a model call,
/// making queue states deterministic.
struct Gate {
    open: Mutex<bool>,
    cv: Condvar,
}

impl Gate {
    fn new() -> Arc<Gate> {
        Arc::new(Gate {
            open: Mutex::new(false),
            cv: Condvar::new(),
        })
    }

    fn open(&self) {
        *self.open.lock().unwrap() = true;
        self.cv.notify_all();
    }

    fn wait(&self) {
        let mut open = self.open.lock().unwrap();
        while !*open {
            open = self.cv.wait(open).unwrap();
        }
    }
}

struct GatedModel<M> {
    inner: M,
    gate: Arc<Gate>,
}

impl<M: LanguageModel> LanguageModel for GatedModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        self.gate.wait();
        self.inner.complete(request)
    }
}

/// Spin until the admission queue is empty (a worker picked the head
/// request up), so subsequent submissions see a deterministic queue.
fn wait_queue_empty<M: LanguageModel + 'static>(runtime: &ServeRuntime<M>) {
    let deadline = Instant::now() + Duration::from_secs(5);
    while runtime.queue_depth() > 0 {
        assert!(Instant::now() < deadline, "queue never drained");
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn completed(outcome: &QueryOutcome) -> (&GenerationResult, bool, u64) {
    match outcome {
        QueryOutcome::Completed {
            result,
            cached,
            service_seq,
            ..
        } => (result.as_ref(), *cached, *service_seq),
        other => panic!("expected Completed, got {other:?}"),
    }
}

#[test]
fn served_result_matches_direct_pipeline() {
    let (bundle, ks, oracle) = setup();
    let index = Arc::new(KnowledgeIndex::build(ks.clone()));
    let direct = GenEditPipeline::new(&oracle);
    let expected = direct
        .generate(
            &bundle.tasks[0].question,
            &KnowledgeIndex::build(ks.clone()),
            &bundle.db,
            &[],
        )
        .fingerprint();

    let runtime = ServeRuntime::start(
        oracle,
        index,
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let ticket = runtime
        .submit(QueryRequest::new("acme", &bundle.tasks[0].question))
        .unwrap();
    let outcome = ticket.wait();
    let (result, cached, _) = completed(&outcome);
    assert!(!cached);
    assert_eq!(result.fingerprint(), expected);
    assert!(!result.trace.spans.is_empty());
    runtime.shutdown();
}

#[test]
fn repeat_question_hits_the_result_cache() {
    let (bundle, ks, oracle) = setup();
    let runtime = ServeRuntime::start(
        oracle,
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let q = &bundle.tasks[1].question;
    let first = runtime.submit(QueryRequest::new("acme", q)).unwrap().wait();
    let second = runtime.submit(QueryRequest::new("acme", q)).unwrap().wait();
    let (r1, c1, _) = completed(&first);
    let (r2, c2, _) = completed(&second);
    assert!(!c1);
    assert!(c2, "second identical request must be served from cache");
    assert_eq!(r1.fingerprint(), r2.fingerprint());
    let metrics = runtime.metrics();
    assert_eq!(metrics.counter("serve.cache.hit"), 1);
    assert_eq!(metrics.counter("serve.cache.miss"), 1);
    // A different tenant asking the same question must NOT see the
    // cached entry — cache keys are tenant-scoped.
    let other = runtime
        .submit(QueryRequest::new("globex", q))
        .unwrap()
        .wait();
    let (_, c3, _) = completed(&other);
    assert!(!c3, "cross-tenant cache hit");
    runtime.shutdown();
}

/// Tenant names are caller-supplied, so no metric may be keyed by one: a
/// histogram per tenant would grow the registry by ~100 KiB for every
/// tenant ever seen.
#[test]
fn metric_cardinality_does_not_grow_with_tenants() {
    let (bundle, ks, oracle) = setup();
    let runtime = ServeRuntime::start(
        oracle,
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let q = &bundle.tasks[1].question;
    let serve = |tenant: &str| {
        let outcome = runtime.submit(QueryRequest::new(tenant, q)).unwrap().wait();
        assert!(!completed(&outcome).1, "{tenant} must miss the cache");
        let snapshot = runtime.metrics().snapshot();
        snapshot.histograms.keys().cloned().collect::<BTreeSet<_>>()
    };
    let after_one = serve("tenant-0");
    for tenant in ["tenant-1", "tenant-2", "tenant-3"] {
        assert_eq!(serve(tenant), after_one);
    }
    runtime.shutdown();
}

/// Satellite requirement: a staged-edit commit through the durable store
/// bumps the knowledge epoch; after the runtime publishes the new
/// snapshot, a previously cached question is regenerated (cache miss +
/// fresh trace), not replayed stale.
#[test]
fn knowledge_commit_invalidates_cached_answers() {
    let (bundle, ks, oracle) = setup();
    let mem = Arc::new(MemFs::new());
    let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
    let mut store =
        DurableKnowledgeStore::open_with(fs, "k.json", "k.wal", StoreConfig::default(), None)
            .unwrap();
    for logged in ks.log() {
        store.apply(logged.edit.clone()).unwrap();
    }
    let epoch0 = store.epoch();

    let oracle = Arc::new(oracle);
    let runtime = ServeRuntime::start(
        Arc::clone(&oracle),
        Arc::new(KnowledgeIndex::build(store.set().clone())),
        epoch0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let q = &bundle.tasks[0].question;
    let cold = runtime.submit(QueryRequest::new("acme", q)).unwrap().wait();
    let warm = runtime.submit(QueryRequest::new("acme", q)).unwrap().wait();
    assert!(!completed(&cold).1);
    assert!(completed(&warm).1, "expected a cache hit before the commit");
    assert_eq!(runtime.metrics().counter("serve.cache.miss"), 1);

    // Commit a staged edit batch through the regression gate.
    let direct = GenEditPipeline::new(Arc::clone(&oracle));
    let mut staging = StagingArea::new();
    staging.stage(Edit::InsertInstruction {
        intent: None,
        text: "serving-epoch invalidation note".into(),
        sql_hint: None,
        term: None,
        source: SourceRef::Feedback { feedback_id: 77 },
    });
    let golden: Vec<GoldenQuery> = bundle
        .tasks
        .iter()
        .take(3)
        .map(|t| GoldenQuery {
            question: t.question.clone(),
            gold_sql: t.gold_sql.clone(),
        })
        .collect();
    let submission = submit_edits_durable(
        &direct,
        &bundle.db,
        &mut store,
        staging,
        &golden,
        |outcome| outcome.passed(),
        "serve invalidation test",
    )
    .unwrap();
    assert!(matches!(submission, SubmissionResult::Merged { .. }));
    let epoch1 = store.epoch();
    assert!(epoch1 > epoch0, "commit must advance the knowledge epoch");

    runtime.publish(Arc::new(KnowledgeIndex::build(store.set().clone())), epoch1);
    assert_eq!(runtime.epoch(), epoch1);

    let after = runtime.submit(QueryRequest::new("acme", q)).unwrap().wait();
    let (result, cached, _) = completed(&after);
    assert!(!cached, "epoch bump must invalidate the cached answer");
    assert!(
        !result.trace.spans.is_empty(),
        "regeneration must carry a fresh trace"
    );
    // Two misses total: the cold request and the post-commit regeneration.
    assert_eq!(runtime.metrics().counter("serve.cache.miss"), 2);
    assert_eq!(runtime.metrics().counter("serve.cache.hit"), 1);
    runtime.shutdown();
}

#[test]
fn saturated_queue_sheds_earliest_deadline_first() {
    let (bundle, ks, oracle) = setup();
    let gate = Gate::new();
    let runtime = ServeRuntime::start(
        GatedModel {
            inner: oracle,
            gate: Arc::clone(&gate),
        },
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let q = &bundle.tasks[0].question;
    // r0 occupies the single worker (blocked inside the model call).
    let r0 = runtime.submit(QueryRequest::new("a", q)).unwrap();
    wait_queue_empty(&runtime);
    // r1 fills the queue with a near deadline.
    let r1 = runtime
        .submit(QueryRequest::new("b", q).with_deadline_in(Duration::from_millis(50)))
        .unwrap();
    // r2 has far more runway: r1 (earliest deadline) is shed for it.
    let r2 = runtime
        .submit(QueryRequest::new("c", q).with_deadline_in(Duration::from_secs(30)))
        .unwrap();
    assert!(matches!(r1.wait(), QueryOutcome::Shed));
    // r3 has no deadline ("latest possible"): sheds r2 in turn.
    let r3 = runtime.submit(QueryRequest::new("d", q)).unwrap();
    assert!(matches!(r2.wait(), QueryOutcome::Shed));
    // r4: queue holds only no-deadline work — nothing to shed, reject.
    let rejected = runtime.submit(QueryRequest::new("e", q));
    assert!(matches!(rejected, Err(Rejected::QueueFull)));

    let metrics = runtime.metrics();
    assert_eq!(metrics.counter("serve.shed"), 2);
    assert_eq!(metrics.counter("serve.rejected"), 1);
    gate.open();
    assert!(r0.wait().is_completed());
    assert!(r3.wait().is_completed());
    runtime.shutdown();
}

#[test]
fn deadline_expires_while_queued() {
    let (bundle, ks, oracle) = setup();
    let gate = Gate::new();
    let runtime = ServeRuntime::start(
        GatedModel {
            inner: oracle,
            gate: Arc::clone(&gate),
        },
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let q = &bundle.tasks[0].question;
    let r0 = runtime.submit(QueryRequest::new("a", q)).unwrap();
    wait_queue_empty(&runtime);
    let doomed = runtime
        .submit(QueryRequest::new("b", q).with_deadline_in(Duration::from_millis(20)))
        .unwrap();
    std::thread::sleep(Duration::from_millis(40));
    gate.open();
    assert!(matches!(doomed.wait(), QueryOutcome::Expired));
    assert!(r0.wait().is_completed());
    assert_eq!(runtime.metrics().counter("serve.expired"), 1);
    runtime.shutdown();
}

#[test]
fn cancellation_resolves_queued_request() {
    let (bundle, ks, oracle) = setup();
    let gate = Gate::new();
    let runtime = ServeRuntime::start(
        GatedModel {
            inner: oracle,
            gate: Arc::clone(&gate),
        },
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let q = &bundle.tasks[0].question;
    let r0 = runtime.submit(QueryRequest::new("a", q)).unwrap();
    wait_queue_empty(&runtime);
    let victim = runtime.submit(QueryRequest::new("b", q)).unwrap();
    victim.cancel();
    gate.open();
    assert!(matches!(victim.wait(), QueryOutcome::Cancelled));
    assert!(r0.wait().is_completed());
    assert_eq!(runtime.metrics().counter("serve.cancelled"), 1);
    runtime.shutdown();
}

#[test]
fn flooding_tenant_does_not_starve_others() {
    let (bundle, ks, oracle) = setup();
    let gate = Gate::new();
    let runtime = ServeRuntime::start(
        GatedModel {
            inner: oracle,
            gate: Arc::clone(&gate),
        },
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    // Pin the worker, then let the hot tenant flood the queue before
    // the cold tenant's single request arrives.
    let pin = runtime
        .submit(QueryRequest::new("hot", &bundle.tasks[0].question))
        .unwrap();
    wait_queue_empty(&runtime);
    let hot: Vec<_> = (0..8)
        .map(|i| {
            runtime
                .submit(QueryRequest::new(
                    "hot",
                    &bundle.tasks[i % bundle.tasks.len()].question,
                ))
                .unwrap()
        })
        .collect();
    let cold = runtime
        .submit(QueryRequest::new("cold", &bundle.tasks[1].question))
        .unwrap();
    gate.open();
    let (_, _, cold_seq) = completed(&cold.wait());
    // Service seq 0 is the pinned request; DRR must schedule the cold
    // tenant within the first round, not behind the 8-deep hot backlog.
    assert!(
        cold_seq <= 2,
        "cold tenant served at position {cold_seq} despite DRR"
    );
    assert!(pin.wait().is_completed());
    for t in hot {
        assert!(t.wait().is_completed());
    }
    runtime.shutdown();
}

/// Satellite requirement: a request whose deadline has already passed at
/// submit time is rejected up front with [`Rejected::DeadlineExpired`],
/// consuming no queue slot and shedding nothing.
#[test]
fn stale_deadline_is_rejected_at_submit() {
    let (bundle, ks, oracle) = setup();
    let gate = Gate::new();
    let runtime = ServeRuntime::start(
        GatedModel {
            inner: oracle,
            gate: Arc::clone(&gate),
        },
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            queue_capacity: 1,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let q = &bundle.tasks[0].question;
    // Pin the worker, then fill the single queue slot with live work.
    let r0 = runtime.submit(QueryRequest::new("a", q)).unwrap();
    wait_queue_empty(&runtime);
    let queued = runtime.submit(QueryRequest::new("b", q)).unwrap();

    // An already-expired deadline must bounce without touching the queue
    // (the queued no-deadline request would otherwise be shed-eligible).
    let stale = QueryRequest::new("c", q).with_deadline(Instant::now() - Duration::from_millis(1));
    assert!(matches!(
        runtime.submit(stale),
        Err(Rejected::DeadlineExpired)
    ));
    assert_eq!(runtime.queue_depth(), 1, "stale request consumed a slot");
    assert_eq!(runtime.metrics().counter("serve.rejected"), 1);
    assert_eq!(runtime.metrics().counter("serve.shed"), 0);

    gate.open();
    assert!(r0.wait().is_completed());
    assert!(queued.wait().is_completed());
    runtime.shutdown();
}

/// Tentpole invariant: serving over an enabled [`BatchScheduler`] (calls
/// coalesce across the worker pool) returns byte-identical results to
/// the unbatched direct pipeline for every question.
#[test]
fn batched_serving_matches_direct_pipeline() {
    let (bundle, ks, oracle) = setup();
    let direct = GenEditPipeline::new(&oracle);
    let direct_index = KnowledgeIndex::build(ks.clone());
    let questions: Vec<&str> = bundle
        .tasks
        .iter()
        .take(4)
        .map(|t| t.question.as_str())
        .collect();
    let expected: Vec<String> = questions
        .iter()
        .map(|q| {
            direct
                .generate(q, &direct_index, &bundle.db, &[])
                .fingerprint()
        })
        .collect();

    let runtime = ServeRuntime::start(
        oracle,
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 4,
            queue_capacity: 64,
            // Caches off so every request exercises the batched path.
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            batch: BatchConfig::default(),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..16)
        .map(|i| {
            runtime
                .submit(QueryRequest::new("acme", questions[i % questions.len()]))
                .unwrap()
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait();
        let (result, _, _) = completed(&outcome);
        assert_eq!(
            result.fingerprint(),
            expected[i % questions.len()],
            "request {i} diverged under batching"
        );
    }
    runtime.shutdown();
}

/// Satellite requirement: N threads hammering the runtime concurrently
/// never observe torn results or another tenant's (or question's)
/// cached answer — every outcome matches the direct-pipeline result for
/// the exact question submitted.
#[test]
fn concurrent_hammering_is_consistent_per_question() {
    let (bundle, ks, oracle) = setup();
    let direct = GenEditPipeline::new(&oracle);
    let direct_index = KnowledgeIndex::build(ks.clone());
    let questions: Vec<&str> = bundle
        .tasks
        .iter()
        .take(4)
        .map(|t| t.question.as_str())
        .collect();
    let expected: Vec<String> = questions
        .iter()
        .map(|q| {
            direct
                .generate(q, &direct_index, &bundle.db, &[])
                .fingerprint()
        })
        .collect();

    let runtime = ServeRuntime::start(
        oracle,
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 4,
            queue_capacity: 256,
            ..ServeConfig::default()
        },
    );
    std::thread::scope(|scope| {
        for worker in 0..8 {
            let runtime = &runtime;
            let questions = &questions;
            let expected = &expected;
            scope.spawn(move || {
                for round in 0..4 {
                    let qi = (worker + round) % questions.len();
                    let tenant = format!("tenant-{}", worker % 2);
                    let ticket = runtime
                        .submit(
                            QueryRequest::new(tenant, questions[qi])
                                .with_priority(Priority::Normal),
                        )
                        .unwrap();
                    let outcome = ticket.wait();
                    let (result, _, _) = completed(&outcome);
                    assert_eq!(
                        result.fingerprint(),
                        expected[qi],
                        "worker {worker} round {round} observed a torn or foreign result"
                    );
                }
            });
        }
    });
    let metrics = runtime.metrics();
    let served = metrics.counter("serve.completed");
    assert_eq!(served, 8 * 4);
    // With 2 tenants × 4 questions over 32 requests, repeats dominate:
    // the cache must have served a substantial share.
    assert!(metrics.counter("serve.cache.hit") >= 8);
    runtime.shutdown();
}

/// The `request_id` attribute the pipeline stamps on a trace's root span,
/// if any span carries one.
fn trace_request_id(trace: &genedit_telemetry::Trace) -> Option<String> {
    trace
        .all_spans()
        .iter()
        .find_map(|s| match s.attr("request_id") {
            Some(AttrValue::Str(id)) => Some(id.clone()),
            _ => None,
        })
}

/// Tentpole acceptance: one request ID, assigned at admission, appears in
/// (1) the generation's root span attributes, (2) the latency
/// histogram's exemplars, and (3) the flight recorder — so traces,
/// metrics, and postmortem dumps all join on it.
#[test]
fn request_id_joins_spans_exemplars_and_recorder() {
    let (bundle, ks, oracle) = setup();
    let runtime = ServeRuntime::start(
        oracle,
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 2,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            observability: ObsConfig {
                slo: None,
                // Sample *every* normal request so the join is total.
                recorder: Some(RecorderConfig {
                    keep_normal_one_in: 1,
                    ..RecorderConfig::default()
                }),
                dump_path: None,
            },
            ..ServeConfig::default()
        },
    );
    let mut expected_ids = BTreeSet::new();
    let tickets: Vec<_> = (0..6)
        .map(|i| {
            let ticket = runtime
                .submit(QueryRequest::new(
                    "acme",
                    &bundle.tasks[i % bundle.tasks.len()].question,
                ))
                .unwrap();
            expected_ids.insert(ticket.request_id().to_string());
            ticket
        })
        .collect();
    for ticket in &tickets {
        let outcome = ticket.wait();
        let (result, _, _) = completed(&outcome);
        // (1) the trace's root span carries the admission-assigned ID.
        assert_eq!(
            trace_request_id(&result.trace).as_deref(),
            Some(ticket.request_id()),
            "trace does not carry the ticket's request ID"
        );
    }
    // (2) the serve.request histogram holds exemplars keyed by the same
    // IDs (6 requests fit the exemplar ring).
    let exemplars = runtime.metrics().exemplars();
    let exemplar_ids: BTreeSet<String> = exemplars
        .get("serve.request")
        .expect("serve.request recorded exemplars")
        .iter()
        .map(|e| e.request_id.clone())
        .collect();
    assert_eq!(exemplar_ids, expected_ids, "exemplars do not join");
    // …and the Prometheus exposition attaches the most recent of them
    // to the +Inf bucket, OpenMetrics-style.
    let prom = runtime.prometheus();
    let inf_line = prom
        .lines()
        .find(|l| l.starts_with("genedit_serve_request_bucket{le=\"+Inf\"}"))
        .expect("serve.request +Inf bucket rendered");
    assert!(
        expected_ids
            .iter()
            .any(|id| inf_line.contains(&format!("request_id=\"{id}\""))),
        "no submitted request ID on the exemplar line: {inf_line}"
    );
    // (3) the flight recorder retained every request under those IDs,
    // each carrying the matching trace.
    let recorder = runtime.flight_recorder().expect("recorder configured");
    let recorded: BTreeSet<String> = recorder
        .contents()
        .iter()
        .map(|r| r.request_id.clone())
        .collect();
    assert_eq!(recorded, expected_ids, "recorder does not join");
    for record in recorder.contents() {
        assert_eq!(
            trace_request_id(&record.trace).as_deref(),
            Some(record.request_id.as_str()),
            "recorded trace and record disagree on the request ID"
        );
    }
    runtime.shutdown();
}

/// A model whose every 5th call stalls: deterministic answers (the
/// inner oracle keys on prompt + seed alone), non-deterministic timing.
/// Exactly the shape hedged dispatch exists for.
struct SpikyModel<M> {
    inner: M,
    calls: std::sync::atomic::AtomicU64,
}

impl<M: LanguageModel> LanguageModel for SpikyModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let n = self.calls.fetch_add(1, std::sync::atomic::Ordering::SeqCst);
        if n % 5 == 4 {
            std::thread::sleep(Duration::from_millis(40));
        }
        self.inner.complete(request)
    }
}

/// Tentpole acceptance: serving with hedged dispatch enabled over a
/// model with latency spikes returns byte-identical results to the
/// direct unhedged pipeline, and the hedge actually fires (the spikes
/// dwarf the hedge delay).
#[test]
fn hedged_serving_matches_direct_pipeline() {
    let (bundle, ks, oracle) = setup();
    let direct = GenEditPipeline::new(&oracle);
    let direct_index = KnowledgeIndex::build(ks.clone());
    let questions: Vec<&str> = bundle
        .tasks
        .iter()
        .take(4)
        .map(|t| t.question.as_str())
        .collect();
    let expected: Vec<String> = questions
        .iter()
        .map(|q| {
            direct
                .generate(q, &direct_index, &bundle.db, &[])
                .fingerprint()
        })
        .collect();

    let runtime = ServeRuntime::start(
        SpikyModel {
            inner: oracle,
            calls: std::sync::atomic::AtomicU64::new(0),
        },
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 2,
            // Caches off so every request exercises the hedged path.
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            hedge: HedgePolicy {
                min_delay: Duration::from_millis(5),
                max_delay: Duration::from_millis(5),
                min_observations: 4,
                ..HedgePolicy::default()
            },
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..12)
        .map(|i| {
            runtime
                .submit(QueryRequest::new("acme", questions[i % questions.len()]))
                .unwrap()
        })
        .collect();
    for (i, ticket) in tickets.into_iter().enumerate() {
        let outcome = ticket.wait();
        let (result, _, _) = completed(&outcome);
        assert_eq!(
            result.fingerprint(),
            expected[i % questions.len()],
            "request {i} diverged under hedging"
        );
    }
    let stats = runtime.hedge_stats();
    assert!(
        stats.fired >= 1,
        "40ms spikes over a 5ms hedge delay never fired a hedge"
    );
    assert_eq!(stats.fired, stats.won + stats.wasted);
    runtime.shutdown();
}

/// A model that fails every call: generations complete unvalidated, so
/// every request burns error budget deterministically.
struct OutageModel;

impl LanguageModel for OutageModel {
    fn name(&self) -> &str {
        "outage"
    }

    fn complete(&self, _request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        Err(ModelError::Transient("total outage".to_string()))
    }
}

/// Tentpole acceptance: a sustained error burn fires the SLO's burn-rate
/// alert, which dumps the flight recorder as JSONL; the dump's request
/// IDs join back to the submitted tickets and the metric exemplars.
#[test]
fn slo_breach_dumps_joinable_flight_record() {
    let (bundle, ks, _oracle) = setup();
    let dump_path = std::env::temp_dir().join(format!(
        "genedit_slo_dump_{}_{:?}.jsonl",
        std::process::id(),
        std::thread::current().id()
    ));
    let _ = std::fs::remove_file(&dump_path);
    let runtime = ServeRuntime::start(
        OutageModel,
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 2,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            observability: ObsConfig {
                // 100% errors → burn = 1/0.01 = 100 ≫ 14.4: the fast
                // rule fires as soon as min_samples (10) arrive.
                slo: Some(SloConfig::default_rules("serve.request", 0.99, 60_000.0)),
                recorder: Some(RecorderConfig::default()),
                dump_path: Some(dump_path.clone()),
            },
            ..ServeConfig::default()
        },
    );
    let mut submitted = BTreeSet::new();
    let tickets: Vec<_> = (0..16)
        .map(|i| {
            let t = runtime
                .submit(QueryRequest::new(
                    "acme",
                    &bundle.tasks[i % bundle.tasks.len()].question,
                ))
                .unwrap();
            submitted.insert(t.request_id().to_string());
            t
        })
        .collect();
    for t in &tickets {
        let outcome = t.wait();
        let (result, _, _) = completed(&outcome);
        assert!(!result.validated, "outage model cannot validate");
    }
    assert!(
        runtime.metrics().counter("serve.slo.fired") >= 1,
        "16 consecutive errors must fire the burn-rate alert"
    );
    assert!(
        runtime.slo_firing(),
        "alert must still be firing mid-outage"
    );
    assert_eq!(
        runtime.metrics().counter("serve.slo.dumps"),
        runtime.metrics().counter("serve.slo.fired"),
        "every fire must write a dump"
    );

    let dump = std::fs::read_to_string(&dump_path).expect("breach wrote the dump file");
    let records = dump_from_jsonl(&dump).expect("dump parses as recorder JSONL");
    assert!(
        records.len() >= 10,
        "dump must hold at least min_samples records, got {}",
        records.len()
    );
    let exemplars = runtime.metrics().exemplars();
    let exemplar_ids: BTreeSet<&str> = exemplars
        .get("serve.request")
        .expect("serve.request recorded exemplars")
        .iter()
        .map(|e| e.request_id.as_str())
        .collect();
    for record in &records {
        assert!(
            submitted.contains(&record.request_id),
            "dumped {} was never submitted",
            record.request_id
        );
        assert_eq!(
            trace_request_id(&record.trace).as_deref(),
            Some(record.request_id.as_str()),
            "dumped trace does not join to its record"
        );
    }
    // The exemplar ring (last 16 observations) and the dump cover the
    // same request population.
    assert!(!exemplar_ids.is_empty());
    for id in &exemplar_ids {
        assert!(submitted.contains(*id), "exemplar {id} never submitted");
    }
    let _ = std::fs::remove_file(&dump_path);
    runtime.shutdown();
}

/// Cold-tenant admission through the disk-backed tenant directory: a
/// request from a tenant the directory knows pages its knowledge in from
/// the store and serves a result byte-identical to a pipeline run over
/// the all-in-RAM index built from the same knowledge. Tenants the store
/// has never seen fall back to the globally published snapshot.
#[test]
fn cold_tenant_pages_in_and_matches_all_in_ram_path() {
    use genedit_knowledge::tenants::{TenantKnowledgeStore, TenantStoreConfig};
    use genedit_serve::TenantDirectory;

    let (bundle, ks, oracle) = setup();

    // Seed the disk-backed store by replaying the knowledge set's own
    // edit log for tenant "acme".
    let fs: Arc<dyn StoreFs> = Arc::new(MemFs::new());
    let store = Arc::new(TenantKnowledgeStore::new_with(
        fs,
        "/kb",
        TenantStoreConfig {
            page_size: 1024,
            pool_budget_bytes: 64 * 1024,
            shards: 4,
            store: StoreConfig::default(),
        },
        None,
    ));
    let mut staging = StagingArea::new();
    for logged in ks.log() {
        staging.stage(logged.edit.clone());
    }
    store.commit("acme", staging, "seed").unwrap();

    // The expected answer comes from the ordinary all-in-RAM path.
    let direct = GenEditPipeline::new(&oracle);
    let expected = direct
        .generate(
            &bundle.tasks[0].question,
            &KnowledgeIndex::build(ks),
            &bundle.db,
            &[],
        )
        .fingerprint();

    // The runtime's *global* snapshot is empty: only the tenant
    // directory can supply acme's knowledge.
    let dir = Arc::new(TenantDirectory::new(Arc::clone(&store), 8));
    let runtime = ServeRuntime::start(
        oracle,
        Arc::new(KnowledgeIndex::build(KnowledgeSet::new())),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 1,
            tenants: Some(Arc::clone(&dir)),
            ..ServeConfig::default()
        },
    );

    let outcome = runtime
        .submit(QueryRequest::new("acme", &bundle.tasks[0].question))
        .unwrap()
        .wait();
    let (result, cached, _) = completed(&outcome);
    assert!(!cached);
    assert_eq!(
        result.fingerprint(),
        expected,
        "paged-in tenant index must reproduce the all-in-RAM result"
    );
    assert_eq!(runtime.metrics().counter("serve.tenant.error"), 0);

    // Second request for the same tenant hits the directory's index
    // cache — no second page-in.
    let outcome = runtime
        .submit(QueryRequest::new("acme", &bundle.tasks[1].question))
        .unwrap()
        .wait();
    completed(&outcome);
    assert_eq!(dir.resident(), 1);

    // A tenant the store has never seen falls back to the (empty)
    // global snapshot and still completes.
    let outcome = runtime
        .submit(QueryRequest::new("ghost", &bundle.tasks[0].question))
        .unwrap()
        .wait();
    assert!(matches!(outcome, QueryOutcome::Completed { .. }));
    assert_eq!(runtime.metrics().counter("serve.tenant.error"), 0);

    runtime.shutdown();
}

/// Counts its calls in flight and records the peak. Each call first waits
/// (up to a second, once) for `target` calls to be inside the model at the
/// same time, so a pool that can overlap reaches the target on its first
/// calls instead of by lucky timing, and one that cannot fails fast.
struct OverlapModel<M> {
    inner: M,
    target: usize,
    state: Mutex<Overlap>,
    cv: Condvar,
}

#[derive(Default)]
struct Overlap {
    inflight: usize,
    peak: usize,
    gave_up: bool,
}

impl<M: LanguageModel> LanguageModel for OverlapModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let mut state = self.state.lock().unwrap();
        state.inflight += 1;
        state.peak = state.peak.max(state.inflight);
        self.cv.notify_all();
        let (mut state, wait) = self
            .cv
            .wait_timeout_while(state, Duration::from_secs(1), |s| {
                s.peak < self.target && !s.gave_up
            })
            .unwrap();
        state.gave_up |= wait.timed_out();
        drop(state);
        let response = self.inner.complete(request);
        self.state.lock().unwrap().inflight -= 1;
        response
    }
}

/// Four workers run four requests at once: with eight queued, exactly
/// four model calls are ever in flight together — never fewer (workers
/// serialised somewhere) and never more (more workers than configured).
#[test]
fn four_workers_overlap_four_requests() {
    let (bundle, ks, oracle) = setup();
    let model = Arc::new(OverlapModel {
        inner: oracle,
        target: 4,
        state: Mutex::new(Overlap::default()),
        cv: Condvar::new(),
    });
    let runtime = ServeRuntime::start(
        Arc::clone(&model),
        Arc::new(KnowledgeIndex::build(ks)),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            workers: 4,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..8)
        .map(|i| {
            let question = &bundle.tasks[i % bundle.tasks.len()].question;
            runtime.submit(QueryRequest::new("acme", question)).unwrap()
        })
        .collect();
    for ticket in tickets {
        completed(&ticket.wait());
    }
    runtime.shutdown();
    assert_eq!(model.state.lock().unwrap().peak, 4);
}
