//! The serving runtime: worker pool, admission control, epoch-keyed
//! caches, fault containment, and the per-request execution path.
//!
//! Fault-containment layers (see `DESIGN.md` §15):
//!
//! - every request executes under a per-request `catch_unwind` boundary,
//!   so a panicking operator resolves its ticket with
//!   [`QueryOutcome::Failed`] instead of hanging the caller;
//! - a worker whose request panicked **retires** (exits) and the
//!   supervisor thread respawns it with backoff (see
//!   [`crate::supervisor`]);
//! - tenants whose recent requests keep failing are **quarantined** at
//!   admission (see [`crate::quarantine`]);
//! - [`ServeRuntime::shutdown_with_deadline`] drains with a bound,
//!   force-resolving stragglers instead of joining forever.
//!
//! However an admitted request ends — served, shed, expired, cancelled,
//! drained or panicked — it ends in `resolve`, which holds the one table
//! of what each ending means.

use crate::cache::{CacheKey, EpochCache};
use crate::lock;
use crate::quarantine::{Gate, QuarantineConfig, QuarantineState, TenantQuarantine};
use crate::request::{QueryOutcome, QueryRequest, Rejected, Ticket, TicketCell};
use crate::sched::{Admitted, DrrScheduler};
use crate::tenants::TenantDirectory;

use crate::supervisor::{
    alive_workers, lock_table, supervisor_loop, SupervisorConfig, WorkerSlot, WorkerTable,
};
use genedit_core::{
    CancelToken, GenEditPipeline, GenerateOptions, GenerationResult, KnowledgeIndex, PipelineConfig,
};
use genedit_knowledge::tenants::TenantStoreError;
use genedit_llm::{
    BatchConfig, BatchScheduler, HedgePolicy, HedgeStats, HedgedModel, LanguageModel,
};
use genedit_retrieval::Embedding;
use genedit_sql::catalog::Database;
use genedit_telemetry::slo::AlertTransition;
use genedit_telemetry::{
    names, prom, Clock, FlightRecorder, MetricsRegistry, RecordedRequest, RecorderConfig,
    RequestVerdict, SloConfig, SloTracker, SystemClock, Trace,
};
use std::collections::HashMap;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// Extra time [`ServeRuntime::shutdown_with_deadline`] grants in-flight
/// requests to notice their cancelled tokens after the drain deadline
/// passes, before their tickets are force-resolved and any still-wedged
/// worker threads are detached. The method therefore returns within
/// roughly `timeout + DRAIN_GRACE` plus join overhead.
pub const DRAIN_GRACE: Duration = Duration::from_millis(250);

/// Observability-plane configuration for a [`ServeRuntime`]. Metrics are
/// always recorded; these are the optional parts on top.
#[derive(Debug, Clone, Default)]
pub struct ObsConfig {
    /// SLO to track over completed requests. When set, every completion
    /// feeds a burn-rate tracker; an alert transition to firing triggers
    /// a flight-recorder dump (if both a recorder and `dump_path` are
    /// configured).
    pub slo: Option<SloConfig>,
    /// Flight-recorder policy. When set, completed requests (and
    /// cancelled/shed ones) are offered to a bounded tail-sampling
    /// recorder.
    pub recorder: Option<RecorderConfig>,
    /// Where to write the flight-recorder JSONL dump on an SLO breach.
    pub dump_path: Option<PathBuf>,
}

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
    /// Capacity of the reformulation/embedding cache (0 disables).
    pub reform_cache_capacity: usize,
    /// Pipeline configuration used by every worker.
    pub pipeline: PipelineConfig,
    /// Cross-worker micro-batching of model calls. Every worker pipeline
    /// runs over one shared [`BatchScheduler`], so concurrent calls of
    /// the same task kind coalesce into `complete_batch` dispatches. The
    /// default ([`BatchConfig::disabled`]) passes calls straight through.
    pub batch: BatchConfig,
    /// When `Some(n)` with `n > 1`, workers generate `n` CoT plan and
    /// SQL candidates in parallel per request and select by vote (see
    /// [`GenerateOptions::ensemble_width`]). Pairs naturally with
    /// `batch`: one request's fan-out fills a batch by itself.
    pub ensemble_width: Option<usize>,
    /// Hedged dispatch of model calls: when enabled, a call that
    /// straggles past a percentile-derived delay fires a duplicate and
    /// the first completion wins (see [`HedgedModel`]). Sits *outside*
    /// the batch scheduler so the duplicate can coalesce into a fresh
    /// batch. The default ([`HedgePolicy::disabled`]) passes calls
    /// straight through.
    pub hedge: HedgePolicy,
    /// Observability plane: SLO burn-rate alerting and the tail-sampling
    /// flight recorder.
    pub observability: ObsConfig,
    /// Worker-pool supervision policy: how aggressively retired (panicked)
    /// workers are respawned, and the per-slot respawn budget.
    pub supervisor: SupervisorConfig,
    /// Per-tenant quarantine policy. Disabled by default; see
    /// [`QuarantineConfig::default_policy`] for a production-shaped
    /// opt-in.
    pub quarantine: QuarantineConfig,
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
            batch: BatchConfig::disabled(),
            ensemble_width: None,
            hedge: HedgePolicy::disabled(),
            observability: ObsConfig::default(),
            supervisor: SupervisorConfig::default(),
            quarantine: QuarantineConfig::disabled(),
            tenants: None,
        }
    }
}

/// What [`ServeRuntime::shutdown_with_deadline`] had to do to finish.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DrainReport {
    /// True when every admitted request resolved on its own before the
    /// deadline — nothing was forced.
    pub clean: bool,
    /// Queued (never executed) requests force-resolved as
    /// [`QueryOutcome::Cancelled`] after the deadline passed.
    pub forced_queued: u64,
    /// In-flight requests whose cancel tokens were fired at the deadline.
    pub cancelled_inflight: u64,
    /// In-flight requests whose tickets had to be force-resolved because
    /// they did not notice cancellation within [`DRAIN_GRACE`].
    pub forced_inflight: u64,
    /// Worker threads still running at the end of the grace period,
    /// detached rather than joined (their tickets were already resolved).
    pub detached_workers: u64,
    /// Total wall-clock time the drain took.
    pub elapsed: Duration,
}

/// An admitted request currently executing on a worker: enough state for
/// the drain path to cancel it cooperatively and, failing that, resolve
/// its ticket directly (completion is first-wins, so racing the worker
/// is safe).
struct InFlight {
    cell: Arc<TicketCell>,
    cancel: CancelToken,
}

struct Shared<M> {
    sched: Mutex<DrrScheduler>,
    available: Condvar,
    /// The published view of deployed knowledge: an immutable index plus
    /// the epoch it was built at, swapped together by
    /// [`ServeRuntime::publish`].
    published: Mutex<(u64, Arc<KnowledgeIndex>)>,
    db: Arc<Database>,
    /// The shared model every worker pipeline runs over: a process-wide
    /// [`BatchScheduler`] (so concurrent same-kind calls across workers
    /// coalesce) fronted by a [`HedgedModel`] (so stragglers race a
    /// duplicate). Disabled configs on either layer pass straight
    /// through.
    model: Arc<HedgedModel<BatchScheduler<Arc<M>>>>,
    config: ServeConfig,
    metrics: Arc<MetricsRegistry>,
    /// SLO burn-rate tracker over completed requests (system clock).
    slo: Option<SloTracker>,
    /// Tail-sampling flight recorder of completed request traces.
    recorder: Option<FlightRecorder>,
    /// Per-tenant failure breaker consulted at admission.
    quarantine: TenantQuarantine,
    /// Requests a worker has dequeued but not yet resolved, keyed by
    /// admission sequence. Maintained under the containment guard so a
    /// panicking request still deregisters.
    inflight: Mutex<HashMap<u64, InFlight>>,
    results: EpochCache<GenerationResult>,
    reforms: EpochCache<(String, Embedding)>,
    shutdown: AtomicBool,
    seq: AtomicU64,
    service_seq: AtomicU64,
}

impl<M> Shared<M> {
    fn lock_sched(&self) -> MutexGuard<'_, DrrScheduler> {
        lock(&self.sched)
    }

    fn lock_inflight(&self) -> MutexGuard<'_, HashMap<u64, InFlight>> {
        lock(&self.inflight)
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
/// Lifecycle: [`ServeRuntime::start`] spawns the worker pool and its
/// supervisor; [`ServeRuntime::submit`] admits requests (or applies
/// backpressure, including per-tenant quarantine);
/// [`ServeRuntime::publish`] swaps in a re-built knowledge index after a
/// durable commit, bumping the epoch every cache key embeds;
/// [`ServeRuntime::shutdown`] drains the queue and joins the workers,
/// while [`ServeRuntime::shutdown_with_deadline`] does the same under a
/// bound, force-resolving whatever will not drain in time.
pub struct ServeRuntime<M> {
    shared: Arc<Shared<M>>,
    table: WorkerTable,
    /// Taken (and joined) by whichever shutdown call gets there first;
    /// behind a mutex so shutdown borrows `&self` and can therefore race
    /// concurrent `submit` calls — which is exactly the race the
    /// under-lock re-check in `submit` exists to win.
    supervisor: Mutex<Option<JoinHandle<()>>>,
}

fn spawn_worker<M: LanguageModel + 'static>(
    shared: &Arc<Shared<M>>,
    slot: usize,
) -> io::Result<JoinHandle<()>> {
    let shared = Arc::clone(shared);
    thread::Builder::new()
        .name(format!("serve-worker-{slot}"))
        .spawn(move || worker_loop(&shared))
}

impl<M: LanguageModel + 'static> ServeRuntime<M> {
    /// Spawn the worker pool and its supervisor. `epoch` is the knowledge
    /// epoch `index` was built at — `DurableKnowledgeStore::epoch()` for
    /// durable deploys, 0 for static knowledge sets.
    ///
    /// Panics if a worker (or the supervisor) thread cannot be spawned;
    /// use [`ServeRuntime::try_start`] to handle that error instead. A
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
    /// worker or supervisor thread cannot be spawned, after stopping and
    /// joining any workers that did start.
    pub fn try_start(
        model: M,
        index: Arc<KnowledgeIndex>,
        epoch: u64,
        db: Arc<Database>,
        config: ServeConfig,
    ) -> io::Result<ServeRuntime<M>> {
        let workers = config.workers.max(1);
        let metrics = Arc::new(MetricsRegistry::new());
        let slo = config.observability.slo.clone().map(|slo_config| {
            SloTracker::new(slo_config, Arc::new(SystemClock::new()) as Arc<dyn Clock>)
        });
        let recorder = config
            .observability
            .recorder
            .clone()
            .map(FlightRecorder::new);
        let quarantine = TenantQuarantine::new(
            config.quarantine.clone(),
            Arc::new(SystemClock::new()) as Arc<dyn Clock>,
        )
        .with_metrics(Arc::clone(&metrics));
        let batch = BatchScheduler::new(Arc::new(model), config.batch.clone())
            .with_metrics(Arc::clone(&metrics));
        let model = Arc::new(
            HedgedModel::new(batch, config.hedge.clone()).with_metrics(Arc::clone(&metrics)),
        );
        let shared = Arc::new(Shared {
            sched: Mutex::new(DrrScheduler::new()),
            available: Condvar::new(),
            published: Mutex::new((epoch, index)),
            db,
            model,
            metrics,
            slo,
            recorder,
            quarantine,
            inflight: Mutex::new(HashMap::new()),
            results: EpochCache::new(config.result_cache_capacity),
            reforms: EpochCache::new(config.reform_cache_capacity),
            shutdown: AtomicBool::new(false),
            seq: AtomicU64::new(0),
            service_seq: AtomicU64::new(0),
            config,
        });
        let runtime = ServeRuntime {
            shared,
            table: Arc::new(Mutex::new(Vec::with_capacity(workers))),
            supervisor: Mutex::new(None),
        };
        // A failed spawn is surfaced, not silently swallowed: a pool that
        // quietly started with fewer workers than configured would serve
        // at reduced capacity with no signal anywhere. The workers that
        // did start are stopped and joined by the ordinary drain.
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
            let handle = spawn_worker(&self.shared, slot)?;
            lock_table(&self.table).push(WorkerSlot::new(handle));
        }
        self.shared
            .metrics
            .set_gauge("serve.workers.alive", workers as f64);
        let (table, shared) = (Arc::clone(&self.table), Arc::clone(&self.shared));
        let supervisor = thread::Builder::new()
            .name("serve-supervisor".to_string())
            .spawn(move || {
                supervisor_loop(
                    table,
                    shared.config.supervisor.clone(),
                    Arc::clone(&shared.metrics),
                    || shared.shutdown.load(Ordering::SeqCst),
                    |slot| spawn_worker(&shared, slot),
                )
            })?;
        *lock(&self.supervisor) = Some(supervisor);
        Ok(())
    }

    /// The runtime's metrics registry (`serve.*` counters and latency
    /// histograms, plus every worker pipeline's operator metrics).
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        &self.shared.metrics
    }

    /// Prometheus text exposition of the runtime's metrics — counters,
    /// gauges, cumulative histogram buckets, and request-ID exemplars.
    pub fn prometheus(&self) -> String {
        prom::render(&self.shared.metrics)
    }

    /// The flight recorder, when one was configured.
    pub fn flight_recorder(&self) -> Option<&FlightRecorder> {
        self.shared.recorder.as_ref()
    }

    /// Hedged-dispatch counters (fired / won / wasted) accumulated by
    /// the runtime's model stack. All zeros when hedging is disabled.
    pub fn hedge_stats(&self) -> HedgeStats {
        self.shared.model.stats()
    }

    /// Whether the configured SLO's burn-rate alert is currently firing.
    pub fn slo_firing(&self) -> bool {
        self.shared.slo.as_ref().is_some_and(SloTracker::is_firing)
    }

    /// Current number of queued (admitted, not yet running) requests.
    pub fn queue_depth(&self) -> usize {
        self.shared.lock_sched().len()
    }

    /// Worker threads currently alive. Transiently below
    /// [`ServeConfig::workers`] after a panic retires a worker, until the
    /// supervisor respawns it.
    pub fn workers_alive(&self) -> usize {
        alive_workers(&self.table)
    }

    /// The quarantine breaker state for `tenant` (Closed when unknown).
    pub fn quarantine_state(&self, tenant: &str) -> QuarantineState {
        self.shared.quarantine.state(tenant)
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
    /// A quarantined tenant is answered [`Rejected::Quarantined`] before
    /// any queue slot is considered.
    pub fn submit(&self, request: QueryRequest) -> Result<Ticket, Rejected> {
        // Fast path only: the authoritative shutdown check happens again
        // under the scheduler lock below, where it cannot race
        // `begin_shutdown`.
        if self.shared.shutdown.load(Ordering::SeqCst) {
            return self.reject(Rejected::ShuttingDown, &request, false);
        }
        // A deadline already in the past can only ever expire unexecuted;
        // reject it up front instead of letting it occupy a queue slot
        // (and possibly shed a still-viable request) on the way to the
        // same outcome.
        if request.deadline.is_some_and(|d| Instant::now() >= d) {
            return self.reject(Rejected::DeadlineExpired, &request, false);
        }
        let probe = match self.shared.quarantine.check(&request.tenant) {
            Gate::Admit => false,
            Gate::AdmitProbe => true,
            Gate::Reject => return self.reject(Rejected::Quarantined, &request, false),
        };
        let cancel = match request.deadline {
            Some(deadline) => CancelToken::with_deadline(deadline),
            None => CancelToken::new(),
        };
        // The request ID exists from admission on: the same `req-…`
        // string lands on the root span, in metric exemplars, and in
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
            return self.reject(Rejected::ShuttingDown, &request, probe);
        }
        let mut shed = None;
        if sched.len() >= self.shared.config.queue_capacity.max(1) {
            shed = sched
                .earliest_deadline()
                .filter(|(earliest, _)| request.deadline.is_none_or(|d| d > *earliest))
                .and_then(|(_, victim)| sched.remove(victim));
            if shed.is_none() {
                drop(sched);
                return self.reject(Rejected::QueueFull, &request, probe);
            }
        }
        let cost = request.priority.cost();
        sched.push(Admitted {
            seq,
            request_id,
            request,
            cell,
            cancel,
            enqueued_at: Instant::now(),
            cost,
            probe,
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

    /// Refuse a submission. A probe refused after the quarantine gate
    /// let it through hands its half-open slot back.
    fn reject(
        &self,
        reason: Rejected,
        request: &QueryRequest,
        probe: bool,
    ) -> Result<Ticket, Rejected> {
        self.shared.quarantine.on_abandoned(&request.tenant, probe);
        self.shared.metrics.incr("serve.rejected", 1);
        Err(reason)
    }

    /// Stop accepting work, drain the queue, and join the workers.
    /// Already-queued requests still execute (or expire on their own
    /// deadlines): this is [`ServeRuntime::shutdown_with_deadline`]
    /// without the deadline, so nothing running is ever forced. Only
    /// work left unexecutable — queued behind a pool whose every worker
    /// retired — is resolved as [`QueryOutcome::Cancelled`] rather than
    /// left hanging.
    ///
    /// Takes `&self` so shutdown can come from any thread, including one
    /// racing live `submit` calls; those lose deterministically (the
    /// flag flips under the scheduler lock and `submit` re-checks it
    /// there) and answer [`Rejected::ShuttingDown`]. Calling shutdown
    /// again is a no-op.
    pub fn shutdown(&self) {
        self.drain(None);
    }

    /// Graceful drain with a bound: stop admission immediately, give
    /// queued and in-flight requests up to `timeout` to resolve on their
    /// own, then force the rest — queued requests resolve as
    /// [`QueryOutcome::Cancelled`] without executing, in-flight requests
    /// get their cancel tokens fired plus [`DRAIN_GRACE`] to notice, and
    /// any ticket still open after that is resolved directly (completion
    /// is first-wins, so racing a slow worker is safe). Worker threads
    /// still wedged at that point are detached, not joined: the caller
    /// gets its bound, and every admitted ticket has already resolved.
    pub fn shutdown_with_deadline(&self, timeout: Duration) -> DrainReport {
        self.drain(Some(timeout))
    }

    /// The one drain. `timeout: None` waits for quiescence however long
    /// it takes.
    fn drain(&self, timeout: Option<Duration>) -> DrainReport {
        let started = Instant::now();
        self.shared.begin_shutdown();
        self.shared.available.notify_all();
        let supervisor = lock(&self.supervisor).take();
        if let Some(handle) = supervisor {
            handle.join().ok();
        }
        // Phase 1: cooperative drain. Workers keep executing queued work;
        // we just watch for quiescence. The queue→in-flight handoff
        // happens under the scheduler lock, so sampling the queue first
        // and the in-flight table second never misses a request.
        loop {
            let queued = self.shared.lock_sched().len();
            let inflight = self.shared.lock_inflight().len();
            if queued == 0 && inflight == 0 {
                break;
            }
            // Every worker retired (supervisor already exited): queued
            // work can no longer drain on its own — force it now.
            if inflight == 0 && alive_workers(&self.table) == 0 {
                break;
            }
            if timeout.is_some_and(|t| started.elapsed() >= t) {
                break;
            }
            thread::sleep(Duration::from_millis(1));
        }
        // Phase 2: force. Evict whatever is still queued and cancel
        // whatever is still running.
        let leftovers = self.shared.lock_sched().drain_all();
        for admitted in &leftovers {
            admitted.cancel.cancel();
            resolve(&self.shared, admitted, Ending::Drained);
        }
        let mut cancelled_inflight = 0u64;
        for entry in self.shared.lock_inflight().values() {
            entry.cancel.cancel();
            cancelled_inflight += 1;
        }
        // Phase 3: grace, then force-resolve stragglers' tickets and
        // detach their threads. A worker that eventually returns finds
        // its completion already taken (first-wins) and simply exits.
        if cancelled_inflight > 0 {
            let grace_deadline = Instant::now() + DRAIN_GRACE;
            while Instant::now() < grace_deadline && !self.shared.lock_inflight().is_empty() {
                thread::sleep(Duration::from_millis(1));
            }
        }
        let mut forced_inflight = 0u64;
        for entry in self.shared.lock_inflight().values() {
            forced_inflight += 1;
            self.shared.metrics.incr("serve.drain.forced_inflight", 1);
            entry.cell.complete(QueryOutcome::Cancelled);
        }
        let mut detached_workers = 0u64;
        let handles: Vec<JoinHandle<()>> = lock_table(&self.table)
            .iter_mut()
            .filter_map(|slot| slot.handle.take())
            .collect();
        for handle in handles {
            // Only a worker whose ticket was just resolved over its head
            // can be wedged; every other one is on its way out.
            if forced_inflight == 0 || handle.is_finished() {
                handle.join().ok();
            } else {
                detached_workers += 1;
            }
        }
        let forced_queued = leftovers.len() as u64;
        DrainReport {
            clean: forced_queued == 0 && cancelled_inflight == 0 && forced_inflight == 0,
            forced_queued,
            cancelled_inflight,
            forced_inflight,
            detached_workers,
            elapsed: started.elapsed(),
        }
    }
}

fn worker_loop<M: LanguageModel + 'static>(shared: &Arc<Shared<M>>) {
    let pipeline =
        GenEditPipeline::with_config(Arc::clone(&shared.model), shared.config.pipeline.clone())
            .with_metrics(Arc::clone(&shared.metrics));
    loop {
        let admitted = {
            let mut sched = shared.lock_sched();
            loop {
                if let Some(a) = sched.pop() {
                    // Register in-flight *before* releasing the scheduler
                    // lock: drain-time observers sample queue-then-inflight
                    // and must never catch a request in neither.
                    shared.lock_inflight().insert(
                        a.seq,
                        InFlight {
                            cell: Arc::clone(&a.cell),
                            cancel: a.cancel.clone(),
                        },
                    );
                    break a;
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
        shared
            .metrics
            .set_gauge("serve.queue_depth", shared.lock_sched().len() as f64);
        if !serve_one_contained(shared, &pipeline, &admitted) {
            // The request panicked. Its ticket is resolved and the panic
            // recorded; this worker retires ("let it crash") and the
            // supervisor respawns the slot on a fresh thread.
            return;
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

/// RAII containment guard for one dequeued request: deregisters it from
/// the in-flight table and — if no completion was recorded by the time
/// the guard drops — resolves the ticket with a generic failure. The
/// guard lives *outside* the `catch_unwind` boundary, so it fires even
/// if the panic-handling path itself unwinds; in the normal panic path
/// the catch arm has already resolved the request with the real payload
/// summary (completion is first-wins, the guard is a backstop).
struct Containment<'a, M> {
    shared: &'a Shared<M>,
    admitted: &'a Admitted,
}

impl<M> Drop for Containment<'_, M> {
    fn drop(&mut self) {
        self.shared.lock_inflight().remove(&self.admitted.seq);
        if !self.admitted.cell.is_complete() {
            self.admitted.cell.complete(QueryOutcome::Failed {
                reason: "request abandoned without a recorded outcome".to_string(),
            });
        }
    }
}

/// Execute one request inside its panic-isolation domain. Returns false
/// when the request panicked (the worker should retire).
fn serve_one_contained<M: LanguageModel + 'static, L: LanguageModel>(
    shared: &Arc<Shared<M>>,
    pipeline: &GenEditPipeline<L>,
    admitted: &Admitted,
) -> bool {
    let _guard = Containment {
        shared: shared.as_ref(),
        admitted,
    };
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
            return resolve(shared, admitted, completed(result, true));
        }
        shared.metrics.incr("serve.cache.miss", 1);
    }

    // Warm the reformulation operator from the epoch-keyed cache: a
    // repeat question under the same epoch skips the operator-1 model
    // call and embeds nothing.
    let warm = shared.reforms.get(&key);
    let (reformulation, query_embedding) = match warm {
        Some((text, emb)) => {
            shared.metrics.incr("serve.reform.hit", 1);
            (Some(text), Some(emb))
        }
        None => {
            shared.metrics.incr("serve.reform.miss", 1);
            (None, None)
        }
    };
    let opts = GenerateOptions {
        cancel: Some(cancel),
        reformulation,
        query_embedding,
        ensemble_width: shared.config.ensemble_width,
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
        let emb = index.embedder().embed(&result.reformulated);
        shared
            .reforms
            .insert(key.clone(), (result.reformulated.clone(), emb));
    }
    // Only validated generations are worth replaying: caching a failed
    // one would pin the failure for the whole epoch, answering every
    // retry of the question from the cache with the same broken SQL.
    if shared.results.capacity() > 0 && result.validated {
        let evicted = shared.results.insert(key, result.clone());
        if evicted > 0 {
            shared.metrics.incr("serve.cache.evicted", evicted as u64);
        }
    }
    resolve(shared, admitted, completed(result, false));
}

/// How an admitted request ended: the variants of [`QueryOutcome`], with
/// a forced drain told apart from a caller's cancel because the two are
/// counted apart.
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
    /// Still queued when a drain ran out of patience.
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

/// What an ending tells the tenant's quarantine breaker.
type Charge = fn(&TenantQuarantine, &str, bool);
const HEALTHY: Charge = TenantQuarantine::on_success;
const FAILING: Charge = TenantQuarantine::on_failure;
const NEUTRAL: Charge = TenantQuarantine::on_abandoned;

/// The one way out: every path on which an admitted request ends calls
/// this, once. (A bounded drain may already have resolved the ticket
/// over a wedged worker's head: completion is first-wins, and the
/// accounting of the worker's own late ending still stands.) Never call
/// it holding the scheduler lock: it takes the quarantine, recorder and
/// ticket locks and wakes the waiter.
///
/// Order: counter, latency histogram (completions only), quarantine
/// charge, then the flight recorder *before* the SLO tracker — so an
/// alert fired by this very request dumps a ring that already contains
/// it — and the ticket last, so a woken caller sees all of it.
fn resolve<M>(shared: &Shared<M>, admitted: &Admitted, ending: Ending) {
    use RequestVerdict as V;
    let latency = admitted.enqueued_at.elapsed();
    let latency_ms = latency.as_secs_f64() * 1e3;
    // The endings table: the counter that moves, the quarantine charge,
    // the flight-recorder verdict, and the SLO error flag. `None` keeps
    // the request out of the SLO window altogether: a missed deadline
    // burns error budget, a caller's cancel, a shed and a drain do not.
    let (counter, charge, verdict, slo_error) = match &ending {
        Ending::Completed { result, .. } => {
            match (result.validated, result.degraded_operator_count()) {
                (false, _) => ("serve.completed", FAILING, V::Error, Some(true)),
                (true, 0) => ("serve.completed", HEALTHY, V::Ok, Some(false)),
                (true, _) => ("serve.completed", HEALTHY, V::Degraded, Some(false)),
            }
        }
        Ending::Shed => ("serve.shed", NEUTRAL, V::Cancelled, None),
        Ending::Expired { .. } => ("serve.expired", NEUTRAL, V::Cancelled, Some(true)),
        Ending::Cancelled { .. } => ("serve.cancelled", NEUTRAL, V::Cancelled, None),
        Ending::Drained => ("serve.drain.forced_queued", NEUTRAL, V::Cancelled, None),
        Ending::Panicked { .. } => ("serve.panic", FAILING, V::Panicked, Some(true)),
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
        shared.metrics.observe_with_exemplar(
            names::SERVE_REQUEST,
            latency_ms,
            &admitted.request_id,
        );
    }
    charge(&shared.quarantine, &admitted.request.tenant, admitted.probe);
    let trace = outcome.result().map(|r| &r.trace).or(partial.as_ref());
    record_outcome(
        shared,
        &admitted.request_id,
        verdict,
        latency_ms,
        trace,
        slo_error,
    );
    admitted.cell.complete(outcome);
}

/// Feed one ended request into the observability plane: the flight
/// recorder, then the SLO tracker and its alert state machine.
/// `trace: None` records an empty one (the request never ran);
/// `slo_error: None` keeps the request out of the SLO, `Some(e)` counts
/// it with error flag `e`.
fn record_outcome<M>(
    shared: &Shared<M>,
    request_id: &str,
    verdict: RequestVerdict,
    latency_ms: f64,
    trace: Option<&Trace>,
    slo_error: Option<bool>,
) {
    if let Some(recorder) = &shared.recorder {
        recorder.record(RecordedRequest {
            request_id: request_id.to_string(),
            verdict,
            latency_ms,
            trace: trace
                .cloned()
                .unwrap_or_else(|| Trace::empty(names::SERVE_REQUEST)),
        });
    }
    let (Some(slo), Some(error)) = (&shared.slo, slo_error) else {
        return;
    };
    slo.record(latency_ms, error);
    match slo.evaluate().transition {
        Some(AlertTransition::Fired) => {
            shared.metrics.incr("serve.slo.fired", 1);
            if let (Some(recorder), Some(path)) =
                (&shared.recorder, &shared.config.observability.dump_path)
            {
                if std::fs::write(path, recorder.dump_jsonl()).is_ok() {
                    shared.metrics.incr("serve.slo.dumps", 1);
                }
            }
        }
        Some(AlertTransition::Resolved) => shared.metrics.incr("serve.slo.resolved", 1),
        None => {}
    }
}
