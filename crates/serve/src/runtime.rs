//! The serving runtime: worker pool, admission control, epoch-keyed
//! caches, fault containment, and the per-request execution path.
//!
//! Fault containment (see `DESIGN.md` §15):
//!
//! - every request executes under a per-request `catch_unwind` boundary,
//!   so a panicking operator resolves its ticket with
//!   [`QueryOutcome::Failed`] instead of hanging the caller;
//! - the worker that caught the panic rebuilds its pipeline and keeps
//!   serving on the same thread, so a panic costs one request, never a
//!   worker;
//! - [`ServeRuntime::shutdown`] stops admission and joins the workers
//!   once they have served the queue; whatever a dead pool left queued
//!   resolves instead of hanging.
//!
//! However an admitted request ends — served, shed, expired, cancelled,
//! drained or panicked — it ends in `resolve`, which holds the one table
//! of what each ending means.

use crate::cache::{CacheKey, EpochCache};
use crate::lock;
use crate::request::{QueryOutcome, QueryRequest, Rejected, Ticket};
use crate::sched::{Admitted, Scheduler};
use crate::tenants::TenantDirectory;
use genedit_core::{
    CancelToken, GenEditPipeline, GenerateOptions, GenerationResult, KnowledgeIndex, PipelineConfig,
};
use genedit_knowledge::tenants::TenantStoreError;
use genedit_llm::LanguageModel;
use genedit_sql::catalog::Database;
use genedit_telemetry::{
    names, FlightRecorder, MetricsRegistry, RecordedRequest, RecorderConfig, RequestVerdict, Trace,
};
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Serving runtime configuration.
#[derive(Debug, Clone)]
pub struct ServeConfig {
    /// Worker threads, each owning a pipeline clone over the shared
    /// model, knowledge snapshot, and database.
    pub workers: usize,
    /// Admission queue bound. Beyond this, requests are shed
    /// (oldest-deadline-first) or rejected with
    /// [`Rejected::QueueFull`].
    pub queue_capacity: usize,
    /// Capacity of the full-result cache (0 disables).
    pub result_cache_capacity: usize,
    /// Capacity of the reformulation cache (0 disables).
    pub reform_cache_capacity: usize,
    /// Pipeline configuration used by every worker.
    pub pipeline: PipelineConfig,
    /// Flight-recorder policy. When set, every admitted request that
    /// ends is offered to a bounded tail-sampling recorder, read through
    /// [`ServeRuntime::flight_recorder`]. Metrics are always recorded.
    pub recorder: Option<RecorderConfig>,
    /// Disk-backed per-tenant knowledge. When set, requests from tenants
    /// the directory knows are served from that tenant's own paged-in
    /// index (cold tenants page in on first request — the
    /// `serve.tenant.page_in` path); everyone else falls back to the
    /// globally published snapshot.
    pub tenants: Option<Arc<TenantDirectory>>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            workers: 2,
            queue_capacity: 64,
            result_cache_capacity: 256,
            reform_cache_capacity: 256,
            pipeline: PipelineConfig::default(),
            recorder: None,
            tenants: None,
        }
    }
}

struct Shared<M> {
    sched: Mutex<Scheduler>,
    available: Condvar,
    /// The published view of deployed knowledge: an immutable index plus
    /// the epoch it was built at, swapped together by
    /// [`ServeRuntime::publish`].
    published: Mutex<(u64, Arc<KnowledgeIndex>)>,
    db: Arc<Database>,
    /// The model every worker pipeline runs over.
    model: Arc<M>,
    config: ServeConfig,
    metrics: Arc<MetricsRegistry>,
    /// Tail-sampling flight recorder of completed request traces.
    recorder: Option<FlightRecorder>,
    /// Validated results, shared: a hit clones the `Arc` under the cache
    /// lock and copies the result after releasing it.
    results: EpochCache<Arc<GenerationResult>>,
    reforms: EpochCache<String>,
    shutdown: AtomicBool,
    seq: AtomicU64,
    service_seq: AtomicU64,
}

impl<M> Shared<M> {
    fn lock_sched(&self) -> MutexGuard<'_, Scheduler> {
        lock(&self.sched)
    }

    /// Flip the shutdown flag **under the scheduler lock**. `submit`
    /// re-checks the flag under the same lock before enqueueing, so no
    /// request can slip into the queue after shutdown is observable —
    /// the race that used to strand a ticket behind an exiting pool.
    fn begin_shutdown(&self) {
        let _sched = self.lock_sched();
        self.shutdown.store(true, Ordering::SeqCst);
    }
}

/// A concurrent serving runtime over one deployed knowledge snapshot.
///
/// Lifecycle: [`ServeRuntime::start`] spawns the worker pool;
/// [`ServeRuntime::submit`] admits requests (or applies backpressure);
/// [`ServeRuntime::publish`] swaps in a re-built knowledge index after a
/// durable commit, bumping the epoch every cache key embeds;
/// [`ServeRuntime::shutdown`] lets the workers serve the queue and
/// joins them.
pub struct ServeRuntime<M> {
    shared: Arc<Shared<M>>,
    /// Joined by whichever shutdown call gets there first, under this
    /// mutex: a second call waits out the join instead of draining a
    /// queue the pool is still serving. The mutex also lets shutdown
    /// borrow `&self` and therefore race concurrent `submit` calls —
    /// which is exactly the race the under-lock re-check in `submit`
    /// exists to win.
    workers: Mutex<Vec<JoinHandle<()>>>,
}

impl<M: LanguageModel + 'static> ServeRuntime<M> {
    /// Spawn the worker pool. `epoch` is the knowledge epoch `index` was
    /// built at — `DurableKnowledgeStore::epoch()` for durable deploys, 0
    /// for static knowledge sets.
    ///
    /// Panics if a worker thread cannot be spawned; use
    /// [`ServeRuntime::try_start`] to handle that error instead. A
    /// partially-spawned pool is never returned or leaked either way.
    pub fn start(
        model: M,
        index: Arc<KnowledgeIndex>,
        epoch: u64,
        db: Arc<Database>,
        config: ServeConfig,
    ) -> ServeRuntime<M> {
        Self::try_start(model, index, epoch, db, config)
            .unwrap_or_else(|err| panic!("serve runtime failed to spawn its thread pool: {err}"))
    }

    /// Fallible [`ServeRuntime::start`]: surfaces the OS error when a
    /// worker thread cannot be spawned, after stopping and joining any
    /// workers that did start.
    pub fn try_start(
        model: M,
        index: Arc<KnowledgeIndex>,
        epoch: u64,
        db: Arc<Database>,
        config: ServeConfig,
    ) -> io::Result<ServeRuntime<M>> {
        let workers = config.workers.max(1);
        let metrics = Arc::new(MetricsRegistry::new());
        let recorder = config.recorder.clone().map(FlightRecorder::new);
        let shared = Arc::new(Shared {
            sched: Mutex::new(Scheduler::new()),
            available: Condvar::new(),
            published: Mutex::new((epoch, index)),
            db,
            model: Arc::new(model),
            metrics,
            recorder,
            results: EpochCache::new(config.result_cache_capacity),
            reforms: EpochCache::new(config.reform_cache_capacity),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            service_seq: AtomicU64::new(0),
            config,
        });
        let runtime = ServeRuntime {
            shared,
            workers: Mutex::new(Vec::with_capacity(workers)),
        };
        // A failed spawn is surfaced, not silently swallowed: a pool that
        // quietly started with fewer workers than configured would serve
        // at reduced capacity with no signal anywhere. The workers that
        // did start are stopped and joined by the ordinary shutdown.
        match runtime.spawn_pool(workers) {
            Ok(()) => Ok(runtime),
            Err(err) => {
                runtime.shutdown();
                Err(err)
            }
        }
    }

    fn spawn_pool(&self, workers: usize) -> io::Result<()> {
        for slot in 0..workers {
            let shared = Arc::clone(&self.shared);
            let handle = thread::Builder::new()
                .name(format!("serve-worker-{slot}"))
                .spawn(move || worker_loop(&shared))?;
            lock(&self.workers).push(handle);
        }
        Ok(())
    }

    /// The runtime's metrics registry (`serve.*` counters and latency
    /// histograms, plus every worker pipeline's operator metrics).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// The flight recorder, when one was configured.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.shared.recorder.as_ref()
    }

    /// Current number of queued (admitted, not yet running) requests.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_sched().len()
    }

    /// Worker threads currently alive: equals [`ServeConfig::workers`]
    /// until shutdown.
    pub fn workers_alive(&self) -> usize {
        lock(&self.workers)
            .iter()
            .filter(|handle| !handle.is_finished())
            .count()
    }

    /// The epoch of the currently published knowledge snapshot.
    pub fn epoch(&self) -> u64 {
        lock(&self.shared.published).0
    }

    /// Publish a new knowledge snapshot. In-flight generations keep the
    /// snapshot they started with (workers hold an `Arc` clone); new
    /// requests see the new epoch, so every cache entry written under
    /// the old epoch silently stops matching.
    pub fn publish(&self, index: Arc<KnowledgeIndex>, epoch: u64) {
        *lock(&self.shared.published) = (epoch, index);
    }

    /// Admit a request, returning a [`Ticket`] to wait on — or apply
    /// backpressure.
    ///
    /// At saturation the queued request with the **earliest** deadline
    /// is shed iff the incoming request's deadline is later (no deadline
    /// counts as "latest"): capacity goes to the request with the most
    /// runway. When the incoming request cannot beat any queued
    /// deadline, [`Rejected::QueueFull`] tells the caller to back off.
    pub fn submit(&self, request: QueryRequest) -> Result<Ticket, Rejected> {
        // Fast path only: the authoritative shutdown check happens again
        // under the scheduler lock below, where it cannot race
        // `begin_shutdown`.
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return self.reject(Rejected::ShuttingDown);
        }
        // A deadline already in the past can only ever expire unexecuted;
        // reject it up front instead of letting it occupy a queue slot
        // (and possibly shed a still-viable request) on the way to the
        // same outcome.
        if request.deadline.is_some_and(|d| Instant::now() >= d) {
            return self.reject(Rejected::DeadlineExpired);
        }
        let cancel = match request.deadline {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        };
        // The request ID exists from admission on: the same `req-…`
        // string lands on the ticket, on the root span and in
        // flight-recorder dumps.
        let seq = self.shared.seq.fetch_add(1, Ordering::SeqCst);
        let request_id = format!("req-{seq:08x}");
        let (ticket, cell) = Ticket::new(cancel.clone(), request_id.clone());
        let mut sched = self.shared.lock_sched();
        if self.shared.shutdown.load(Ordering::SeqCst) {
            // Shutdown began between the fast path and taking the lock:
            // enqueueing now would strand the ticket behind a pool that
            // is already exiting.
            drop(sched);
            return self.reject(Rejected::ShuttingDown);
        }
        let mut shed = None;
        if sched.len() >= self.shared.config.queue_capacity.max(1) {
            shed = sched
                .earliest_deadline()
                .filter(|(earliest, _)| request.deadline.is_none_or(|d| d > *earliest))
                .and_then(|(_, victim)| sched.remove(victim));
            if shed.is_none() {
                drop(sched);
                return self.reject(Rejected::QueueFull);
            }
        }
        sched.push(Admitted {
            seq,
            request_id,
            request,
            cell,
            cancel,
            enqueued_at: Instant::now(),
        });
        let depth = sched.len();
        drop(sched);
        if let Some(victim) = shed {
            resolve(&self.shared, &victim, Ending::Shed);
        }
        self.shared.metrics.incr("serve.admitted", 1);
        self.shared
            .metrics
            .set_gauge("serve.queue_depth", depth as f64);
        self.shared.available.notify_one();
        Ok(ticket)
    }

    /// Refuse a submission.
    fn reject(&self, reason: Rejected) -> Result<Ticket, Rejected> {
        self.shared.metrics.incr("serve.rejected", 1);
        Err(reason)
    }

    /// Stop accepting work, let the workers serve the queue, and join
    /// them. Already-queued requests still execute (or expire on their
    /// own deadlines); nothing running is ever forced. Only work left
    /// unexecutable — queued behind a pool whose every thread died
    /// outside the per-request boundary — is resolved as
    /// [`QueryOutcome::Cancelled`] rather than left hanging.
    ///
    /// Takes `&self` so shutdown can come from any thread, including one
    /// racing live `submit` calls; those lose deterministically (the
    /// flag flips under the scheduler lock and `submit` re-checks it
    /// there) and answer [`Rejected::ShuttingDown`]. Calling shutdown
    /// again is a no-op.
    pub fn shutdown(&self) {
        self.shared.begin_shutdown();
        self.shared.available.notify_all();
        // A worker returns only once it finds the queue empty, so work
        // stays queued only if every worker died outside the per-request
        // boundary (a join `Err`); the drain below resolves it.
        for handle in lock(&self.workers).drain(..) {
            handle.join().ok();
        }
        // Bound to a local so the scheduler lock is released before
        // anything resolves.
        let leftovers = self.shared.lock_sched().drain_all();
        for admitted in &leftovers {
            resolve(&self.shared, admitted, Ending::Drained);
        }
    }
}

fn worker_loop<M: LanguageModel + 'static>(shared: &Arc<Shared<M>>) {
    let build = || {
        GenEditPipeline::with_config(Arc::clone(&shared.model), shared.config.pipeline.clone())
            .with_metrics(Arc::clone(&shared.metrics))
    };
    let mut pipeline = build();
    loop {
        let (admitted, depth) = {
            let mut sched = shared.lock_sched();
            loop {
                if let Some(a) = sched.pop() {
                    break (a, sched.len());
                }
                if shared.shutdown.load(Ordering::SeqCst) {
                    return;
                }
                sched = shared
                    .available
                    .wait(sched)
                    .unwrap_or_else(|poisoned| poisoned.into_inner());
            }
        };
        shared.metrics.set_gauge("serve.queue_depth", depth as f64);
        if !serve_one_contained(shared, &pipeline, &admitted) {
            // The request panicked. Its ticket is resolved and the panic
            // recorded; the pipeline it unwound through is replaced and
            // this thread serves on.
            pipeline = build();
        }
    }
}

/// Render a caught panic payload for [`QueryOutcome::Failed`].
fn panic_summary(payload: &(dyn std::any::Any + Send)) -> String {
    if let Some(message) = payload.downcast_ref::<&str>() {
        (*message).to_string()
    } else if let Some(message) = payload.downcast_ref::<String>() {
        message.clone()
    } else {
        "non-string panic payload".to_string()
    }
}

/// RAII containment guard for one dequeued request: if no completion
/// was recorded by the time the guard drops, it resolves the ticket with
/// a generic failure. The guard lives *outside* the `catch_unwind`
/// boundary, so it fires even if the panic-handling path itself unwinds;
/// in the normal panic path the catch arm has already resolved the
/// request with the real payload summary (completion is first-wins, the
/// guard is a backstop).
struct Containment<'a>(&'a Admitted);

impl Drop for Containment<'_> {
    fn drop(&mut self) {
        if !self.0.cell.is_complete() {
            self.0.cell.complete(QueryOutcome::Failed {
                reason: "request abandoned without a recorded outcome".to_string(),
            });
        }
    }
}

/// Execute one request inside its panic-isolation domain. Returns false
/// when the request panicked (the worker rebuilds its pipeline).
fn serve_one_contained<M: LanguageModel + 'static, L: LanguageModel>(
    shared: &Arc<Shared<M>>,
    pipeline: &GenEditPipeline<L>,
    admitted: &Admitted,
) -> bool {
    let _guard = Containment(admitted);
    match catch_unwind(AssertUnwindSafe(|| serve_one(shared, pipeline, admitted))) {
        Ok(()) => true,
        Err(payload) => {
            let reason = panic_summary(payload.as_ref());
            resolve(shared, admitted, Ending::Panicked { reason });
            false
        }
    }
}

/// The (epoch, index) a request should be served against: the tenant's
/// own paged-in index when a [`TenantDirectory`] is configured and knows
/// the tenant, otherwise the globally published snapshot. A directory
/// error (I/O, corruption) degrades to the global snapshot rather than
/// failing the request — the WAL-backed store will recover on a later
/// page-in, and `serve.tenant.error` counts the degradations.
fn resolve_index<M: LanguageModel + 'static>(
    shared: &Shared<M>,
    tenant: &str,
) -> (u64, Arc<KnowledgeIndex>) {
    if let Some(dir) = &shared.config.tenants {
        match dir.index_for(tenant) {
            Ok(pair) => return pair,
            Err(TenantStoreError::UnknownTenant(_)) => {}
            Err(_) => shared.metrics.incr("serve.tenant.error", 1),
        }
    }
    lock(&shared.published).clone()
}

fn serve_one<M: LanguageModel + 'static, L: LanguageModel>(
    shared: &Shared<M>,
    pipeline: &GenEditPipeline<L>,
    admitted: &Admitted,
) {
    let Admitted {
        request_id,
        request,
        cancel,
        ..
    } = admitted;
    let queue_wait = admitted.enqueued_at.elapsed();
    if cancel.is_cancelled() {
        // Expired or cancelled while still queued: never executed.
        return resolve(shared, admitted, Ending::gave_up(request.deadline, None));
    }
    let service_seq = shared.service_seq.fetch_add(1, Ordering::SeqCst);
    let completed = |result, cached| Ending::Completed {
        result: Box::new(result),
        cached,
        queue_wait,
        service_seq,
    };
    let (epoch, index) = resolve_index(shared, &request.tenant);
    let key = CacheKey::new(&request.tenant, &request.question, epoch);

    if shared.results.capacity() > 0 {
        if let Some(result) = shared.results.get(&key) {
            shared.metrics.incr("serve.cache.hit", 1);
            // The copy the caller owns is made outside the cache lock.
            let result = GenerationResult::clone(&result);
            return resolve(shared, admitted, completed(result, true));
        }
        shared.metrics.incr("serve.cache.miss", 1);
    }

    // Warm the reformulation operator from the epoch-keyed cache: a
    // repeat question under the same epoch skips the operator-1 model
    // call.
    let reformulation = shared.reforms.get(&key);
    let counter = if reformulation.is_some() {
        "serve.reform.hit"
    } else {
        "serve.reform.miss"
    };
    shared.metrics.incr(counter, 1);
    let opts = GenerateOptions {
        cancel: Some(cancel),
        reformulation,
        request_id: Some(request_id),
    };
    let result = pipeline.generate_with(
        &request.question,
        &index,
        &shared.db,
        &request.evidence,
        &opts,
    );

    if result.cancelled {
        let partial = Some(result.trace);
        return resolve(shared, admitted, Ending::gave_up(request.deadline, partial));
    }

    if shared.reforms.capacity() > 0 && !result.reformulated.is_empty() {
        shared
            .reforms
            .insert(key.clone(), result.reformulated.clone());
    }
    // Only validated generations are worth replaying: caching a failed
    // one would pin the failure for the whole epoch, answering every
    // retry of the question from the cache with the same broken SQL.
    if shared.results.capacity() > 0 && result.validated {
        let evicted = shared.results.insert(key, Arc::new(result.clone()));
        if evicted > 0 {
            shared.metrics.incr("serve.cache.evicted", evicted as u64);
        }
    }
    resolve(shared, admitted, completed(result, false));
}

/// How an admitted request ended: the variants of [`QueryOutcome`], with
/// a drained request told apart from a caller's cancel because the two
/// are counted apart.
enum Ending {
    /// The pipeline ran, or a cached result was replayed.
    Completed {
        /// Boxed as [`QueryOutcome::Completed`] wants it.
        result: Box<GenerationResult>,
        cached: bool,
        queue_wait: Duration,
        service_seq: u64,
    },
    /// Evicted from a saturated queue for a request with more runway.
    Shed,
    /// The deadline passed, while queued (`partial: None`) or
    /// mid-generation (the trace up to where the pipeline noticed).
    Expired { partial: Option<Trace> },
    /// The caller cancelled; `partial` as for `Expired`.
    Cancelled { partial: Option<Trace> },
    /// Still queued after every worker exited.
    Drained,
    /// The worker panicked serving it.
    Panicked { reason: String },
}

impl Ending {
    /// A fired cancel token as an ending: deadline expiry wins over
    /// explicit cancellation when both hold.
    fn gave_up(deadline: Option<Instant>, partial: Option<Trace>) -> Ending {
        match deadline {
            Some(d) if Instant::now() >= d => Ending::Expired { partial },
            _ => Ending::Cancelled { partial },
        }
    }
}

/// The one way out: every path on which an admitted request ends calls
/// this, once. Never call it holding the scheduler lock: it takes the
/// recorder and ticket locks and wakes the waiter.
///
/// Order: counter, latency histogram (completions only), flight
/// recorder, and the ticket last, so a woken caller sees all of it.
fn resolve<M>(shared: &Shared<M>, admitted: &Admitted, ending: Ending) {
    use RequestVerdict as V;
    let latency = admitted.enqueued_at.elapsed();
    let latency_ms = latency.as_secs_f64() * 1e3;
    // The endings table: the counter that moves and the flight-recorder
    // verdict.
    let (counter, verdict) = match &ending {
        Ending::Completed { result, .. } => {
            match (result.validated, result.degraded_operator_count()) {
                (false, _) => ("serve.completed", V::Error),
                (true, 0) => ("serve.completed", V::Ok),
                (true, _) => ("serve.completed", V::Degraded),
            }
        }
        Ending::Shed => ("serve.shed", V::Cancelled),
        Ending::Expired { .. } => ("serve.expired", V::Cancelled),
        Ending::Cancelled { .. } => ("serve.cancelled", V::Cancelled),
        Ending::Drained => ("serve.drain.forced_queued", V::Cancelled),
        Ending::Panicked { .. } => ("serve.panic", V::Panicked),
    };
    // What the caller sees, and the partial trace of a generation that
    // gave up (a completed one carries its trace in the result).
    let (outcome, partial) = match ending {
        Ending::Completed {
            result,
            cached,
            queue_wait,
            service_seq,
        } => {
            let outcome = QueryOutcome::Completed {
                result,
                cached,
                queue_wait,
                service: latency.saturating_sub(queue_wait),
                service_seq,
            };
            (outcome, None)
        }
        Ending::Shed => (QueryOutcome::Shed, None),
        Ending::Expired { partial } => (QueryOutcome::Expired, partial),
        Ending::Cancelled { partial } => (QueryOutcome::Cancelled, partial),
        Ending::Drained => (QueryOutcome::Cancelled, None),
        Ending::Panicked { reason } => (QueryOutcome::Failed { reason }, None),
    };
    shared.metrics.incr(counter, 1);
    if outcome.is_completed() {
        shared.metrics.observe(names::SERVE_REQUEST, latency_ms);
    }
    if let Some(recorder) = &shared.recorder {
        // A request that never ran is recorded with an empty trace.
        let trace = outcome.result().map(|r| &r.trace).or(partial.as_ref());
        recorder.record(RecordedRequest {
            request_id: admitted.request_id.clone(),
            verdict,
            latency_ms,
            trace: trace
                .cloned()
                .unwrap_or_else(|| Trace::empty(names::SERVE_REQUEST)),
        });
    }
    admitted.cell.complete(outcome);
}
