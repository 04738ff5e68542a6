//! Cross-request micro-batching in front of any [`LanguageModel`].
//!
//! A production text-to-SQL service runs many pipelines concurrently,
//! and at any instant several of them are blocked on the *same kind* of
//! model call — eight workers all waiting on a reformulation. Remote LLM
//! backends amortize beautifully over such shapes: one batched round trip
//! costs barely more than a single call. [`BatchScheduler`] exploits that
//! by coalescing concurrent [`LanguageModel::complete`] calls into
//! per-[`TaskKind`] micro-batches and dispatching them through
//! [`LanguageModel::complete_batch`]. The serving runtime does not use
//! it: its in-process model has no round trip to amortize.
//!
//! # Coalescing policy
//!
//! Each task kind owns an independent lane (batching never mixes kinds —
//! prompts of different kinds have nothing to amortize). The first caller
//! to find a lane without an active collector becomes that lane's
//! **leader**: it collects arrivals until the batch reaches
//! [`BatchConfig::max_batch_size`] or [`BatchConfig::max_wait`] elapses
//! on the injected [`Clock`], then drains the oldest pending requests
//! (FIFO) and dispatches them as one `complete_batch` call. Requests left
//! behind are picked up by the next leader — a fresh arrival, or a
//! leftover caller that wakes and finds no collector active.
//!
//! # Determinism
//!
//! Responses are routed back to callers positionally, so over a
//! deterministic model the scheduler is **byte-identical** to unbatched
//! execution for any interleaving: batch composition and timing affect
//! only latency, never which response a request receives. The injectable
//! [`Clock`] keeps tests deterministic — under a
//! [`SimulatedClock`](genedit_telemetry::clock::SimulatedClock) the collection window
//! elapses instantly, with no wall-clock sleeps.
//!
//! ```
//! use genedit_llm::{
//!     BatchConfig, BatchScheduler, CompletionRequest, CompletionResponse, LanguageModel,
//!     ModelError, Prompt, TaskKind,
//! };
//! use std::sync::Arc;
//!
//! struct Echo;
//! impl LanguageModel for Echo {
//!     fn name(&self) -> &str {
//!         "echo"
//!     }
//!     fn complete(
//!         &self,
//!         request: &CompletionRequest,
//!     ) -> Result<CompletionResponse, ModelError> {
//!         Ok(CompletionResponse::Text(request.prompt.question.clone()))
//!     }
//! }
//!
//! let scheduler = Arc::new(BatchScheduler::new(Echo, BatchConfig::default()));
//! let request = CompletionRequest::new(Prompt::new(TaskKind::Reformulate, "q"));
//! assert_eq!(
//!     scheduler.complete(&request),
//!     Ok(CompletionResponse::Text("q".into()))
//! );
//! ```

use crate::model::{kind_label, CompletionRequest, CompletionResponse, LanguageModel, ModelError};
use crate::prompt::TaskKind;
use genedit_telemetry::clock::{Clock, SystemClock};
use genedit_telemetry::MetricsRegistry;
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// Coalescing knobs for a [`BatchScheduler`].
#[derive(Debug, Clone, PartialEq)]
pub struct BatchConfig {
    /// Largest batch one dispatch may carry. `<= 1` disables batching
    /// entirely: `complete` passes straight through to the inner model
    /// with zero coordination overhead.
    pub max_batch_size: usize,
    /// How long a leader holds the collection window open waiting for
    /// more arrivals before dispatching a partial batch.
    pub max_wait: Duration,
    /// Leader re-check cadence inside the collection window. Smaller
    /// slices react to a filling batch sooner at the cost of more
    /// wakeups; the window never overshoots `max_wait` by more than one
    /// slice.
    pub poll_interval: Duration,
    /// Depth-adaptive collection window. When set, the *effective*
    /// window replaces `max_wait`: it widens as the lane's pending queue
    /// deepens (more arrivals are worth waiting for) and shrinks back to
    /// the idle floor when traffic is sparse (a lone request should not
    /// pay a full window of added latency). `None` keeps the fixed
    /// `max_wait` window.
    pub adaptive: Option<AdaptiveWindow>,
}

/// Linear depth→window schedule for [`BatchConfig::adaptive`]: a lane
/// with one pending request waits `idle_wait`, a lane at `full_depth`
/// (or deeper) waits `loaded_wait`, and depths in between interpolate
/// linearly. The leader re-evaluates the schedule every poll slice, so
/// a window widens *while open* as a burst lands behind it.
#[derive(Debug, Clone, PartialEq)]
pub struct AdaptiveWindow {
    /// Effective window when the lane holds a single request.
    pub idle_wait: Duration,
    /// Effective window at (and beyond) `full_depth` pending requests.
    pub loaded_wait: Duration,
    /// Pending depth at which the window reaches `loaded_wait`.
    pub full_depth: usize,
}

impl Default for AdaptiveWindow {
    fn default() -> AdaptiveWindow {
        AdaptiveWindow {
            idle_wait: Duration::from_micros(500),
            loaded_wait: Duration::from_millis(4),
            full_depth: 8,
        }
    }
}

impl AdaptiveWindow {
    /// The effective collection window for a lane currently `depth`
    /// requests deep.
    pub fn window_for(&self, depth: usize) -> Duration {
        if depth <= 1 {
            return self.idle_wait;
        }
        if depth >= self.full_depth {
            return self.loaded_wait;
        }
        let span = self.loaded_wait.as_secs_f64() - self.idle_wait.as_secs_f64();
        let frac = (depth - 1) as f64 / (self.full_depth - 1).max(1) as f64;
        Duration::from_secs_f64((self.idle_wait.as_secs_f64() + span * frac).max(0.0))
    }
}

impl Default for BatchConfig {
    fn default() -> BatchConfig {
        BatchConfig {
            max_batch_size: 8,
            max_wait: Duration::from_millis(2),
            poll_interval: Duration::from_micros(250),
            adaptive: None,
        }
    }
}

impl BatchConfig {
    /// A config that disables coalescing: calls pass through one by one.
    pub fn disabled() -> BatchConfig {
        BatchConfig {
            max_batch_size: 1,
            ..BatchConfig::default()
        }
    }

    /// Whether this config actually batches anything.
    pub fn enabled(&self) -> bool {
        self.max_batch_size > 1
    }
}

/// One caller's queued request, identified inside its lane.
struct Entry {
    id: u64,
    request: CompletionRequest,
}

#[derive(Default)]
struct LaneState {
    pending: VecDeque<Entry>,
    /// Completed responses awaiting pickup by their callers.
    results: HashMap<u64, Result<CompletionResponse, ModelError>>,
    /// Whether a leader is currently holding this lane's collection
    /// window open. Cleared before dispatch, so the next batch can start
    /// collecting while the previous one is in flight.
    collecting: bool,
    /// Whether a dispatched batch for this lane is currently inside the
    /// inner model. At most one dispatch per lane is in flight
    /// (continuous batching): while a slow backend works, the next
    /// window keeps absorbing arrivals instead of queueing shreds of
    /// work behind the round trip.
    inflight: bool,
    next_id: u64,
}

/// One task kind's coalescing lane: its queue state plus the condvar
/// waiting callers park on.
#[derive(Default)]
struct Lane {
    state: Mutex<LaneState>,
    wake: Condvar,
}

impl Lane {
    fn lock(&self) -> MutexGuard<'_, LaneState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Index of a task kind's lane. Kept in one place so the lane array and
/// the dispatch path cannot disagree.
fn lane_index(kind: TaskKind) -> usize {
    match kind {
        TaskKind::Reformulate => 0,
        TaskKind::IntentClassification => 1,
        TaskKind::SchemaLinking => 2,
        TaskKind::PlanGeneration => 3,
        TaskKind::SqlGeneration => 4,
    }
}

const LANES: usize = 5;

/// Fronts any [`LanguageModel`] and coalesces concurrent `complete`
/// calls into per-[`TaskKind`] micro-batches (see the [module
/// docs](self) for the policy). Implements [`LanguageModel`] itself, so
/// it drops into any pipeline or wrapper stack unchanged; share one
/// scheduler behind an `Arc` across every thread whose calls should
/// coalesce.
pub struct BatchScheduler<M> {
    inner: M,
    config: BatchConfig,
    clock: Arc<dyn Clock>,
    metrics: Option<Arc<MetricsRegistry>>,
    lanes: [Lane; LANES],
}

impl<M: LanguageModel> BatchScheduler<M> {
    /// Scheduler over the system clock.
    pub fn new(inner: M, config: BatchConfig) -> BatchScheduler<M> {
        BatchScheduler::with_clock(inner, config, Arc::new(SystemClock::new()))
    }

    /// Scheduler over an injected clock — a
    /// [`SimulatedClock`](genedit_telemetry::clock::SimulatedClock) makes the collection
    /// window elapse instantly, so tests exercise coalescing without
    /// wall-clock sleeps.
    pub fn with_clock(inner: M, config: BatchConfig, clock: Arc<dyn Clock>) -> BatchScheduler<M> {
        BatchScheduler {
            inner,
            config,
            clock,
            metrics: None,
            lanes: Default::default(),
        }
    }

    /// Attach a metrics registry: every dispatch records its batch size,
    /// coalesce wait, and per-kind occupancy under `batch.*`.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> BatchScheduler<M> {
        self.metrics = Some(metrics);
        self
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The coalescing configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.config
    }

    /// Lead one collection window on `lane`: wait for the batch to fill
    /// (or the window to elapse), drain the oldest pending entries, and
    /// dispatch them as one `complete_batch`. Returns with the results
    /// published and every waiter notified. The caller's own entry may or
    /// may not be part of the dispatched batch — the outer loop in
    /// [`complete`](Self::complete) re-checks.
    fn lead<'l>(&self, lane: &'l Lane, kind: TaskKind, mut state: MutexGuard<'l, LaneState>) {
        state.collecting = true;
        let window_opened = self.clock.now();
        // With an adaptive schedule the effective window is re-derived
        // from the live queue depth every slice, so it widens while open
        // if a burst lands behind the leader and stays at the idle floor
        // for sparse traffic.
        let mut effective_wait = match &self.config.adaptive {
            Some(adaptive) => adaptive.window_for(state.pending.len()),
            None => self.config.max_wait,
        };
        loop {
            if let Some(adaptive) = &self.config.adaptive {
                effective_wait = adaptive.window_for(state.pending.len());
            }
            if state.pending.len() >= self.config.max_batch_size {
                break;
            }
            let elapsed = self.clock.now().saturating_sub(window_opened);
            if elapsed >= effective_wait {
                break;
            }
            let remaining = effective_wait - elapsed;
            drop(state);
            self.clock.sleep(self.config.poll_interval.min(remaining));
            state = lane.lock();
        }
        // Continuous batching: at most one dispatch per lane is inside
        // the inner model. While the previous round trip runs, this
        // window keeps absorbing arrivals — a slow backend naturally
        // deepens the next batch instead of accumulating a convoy of
        // near-empty ones behind its latency.
        while state.inflight {
            let (next, _) = lane
                .wake
                .wait_timeout(state, Duration::from_millis(10))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = next;
        }
        let take = state.pending.len().min(self.config.max_batch_size);
        let batch: Vec<Entry> = state.pending.drain(..take).collect();
        // Collection is over before dispatch begins: a new arrival can
        // open the next window while this batch's round trip is in
        // flight, pipelining collection with dispatch.
        state.collecting = false;
        if batch.is_empty() {
            drop(state);
            lane.wake.notify_all();
            return;
        }
        state.inflight = true;
        drop(state);
        let coalesce_wait = self.clock.now().saturating_sub(window_opened);
        let requests: Vec<CompletionRequest> = batch.iter().map(|e| e.request.clone()).collect();
        let mut responses = self.inner.complete_batch(&requests);
        // A short response vector is an inner-model contract violation;
        // surface it per missing slot rather than panicking or hanging
        // the waiters.
        while responses.len() < batch.len() {
            responses.push(Err(ModelError::Malformed {
                raw: "batch dispatch returned fewer responses than requests".to_string(),
            }));
        }
        if let Some(metrics) = &self.metrics {
            let label = kind_label(kind);
            metrics.incr("batch.dispatched", 1);
            metrics.observe("batch.size", batch.len() as f64);
            metrics.observe_duration("batch.coalesce_wait.ms", coalesce_wait);
            metrics.observe(
                &format!("batch.occupancy.{label}"),
                batch.len() as f64 / self.config.max_batch_size as f64,
            );
            metrics.observe_duration("batch.window.ms", effective_wait);
        }
        let mut state = lane.lock();
        state.inflight = false;
        for (entry, response) in batch.into_iter().zip(responses) {
            state.results.insert(entry.id, response);
        }
        drop(state);
        lane.wake.notify_all();
    }
}

impl<M: LanguageModel> LanguageModel for BatchScheduler<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        if !self.config.enabled() {
            return self.inner.complete(request);
        }
        let kind = request.prompt.task;
        let lane = &self.lanes[lane_index(kind)];
        let mut state = lane.lock();
        let id = state.next_id;
        state.next_id += 1;
        state.pending.push_back(Entry {
            id,
            request: request.clone(),
        });
        loop {
            if let Some(response) = state.results.remove(&id) {
                return response;
            }
            if !state.collecting && !state.pending.is_empty() {
                // No collector active and work is queued (this caller's
                // entry, or leftovers from an over-full window): lead the
                // next window. An empty pending queue means this entry is
                // already in an in-flight dispatch — just wait.
                self.lead(lane, kind, state);
                state = lane.lock();
                continue;
            }
            // A leader is collecting; park until results land. The
            // timeout is a liveness backstop (re-examine the lane even if
            // a wakeup is lost), not part of the batching policy.
            let (next, _) = lane
                .wake
                .wait_timeout(state, Duration::from_millis(10))
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            state = next;
        }
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Vec<Result<CompletionResponse, ModelError>> {
        // Already a batch: nothing to coalesce, hand it straight down.
        self.inner.complete_batch(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Prompt;
    use genedit_telemetry::clock::SimulatedClock;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Echoes the question; counts individual and batched dispatches.
    struct CountingModel {
        singles: AtomicUsize,
        batches: AtomicUsize,
        largest: AtomicUsize,
    }

    impl CountingModel {
        fn new() -> CountingModel {
            CountingModel {
                singles: AtomicUsize::new(0),
                batches: AtomicUsize::new(0),
                largest: AtomicUsize::new(0),
            }
        }
    }

    impl LanguageModel for CountingModel {
        fn name(&self) -> &str {
            "counting"
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
            self.singles.fetch_add(1, Ordering::SeqCst);
            Ok(CompletionResponse::Text(request.prompt.question.clone()))
        }
        fn complete_batch(
            &self,
            requests: &[CompletionRequest],
        ) -> Vec<Result<CompletionResponse, ModelError>> {
            self.batches.fetch_add(1, Ordering::SeqCst);
            self.largest.fetch_max(requests.len(), Ordering::SeqCst);
            requests
                .iter()
                .map(|r| Ok(CompletionResponse::Text(r.prompt.question.clone())))
                .collect()
        }
    }

    fn request(kind: TaskKind, question: &str) -> CompletionRequest {
        CompletionRequest::new(Prompt::new(kind, question))
    }

    #[test]
    fn single_caller_gets_its_own_answer() {
        let scheduler = BatchScheduler::with_clock(
            CountingModel::new(),
            BatchConfig::default(),
            Arc::new(SimulatedClock::new()),
        );
        let response = scheduler.complete(&request(TaskKind::Reformulate, "alone"));
        assert_eq!(response, Ok(CompletionResponse::Text("alone".into())));
        assert_eq!(scheduler.inner().batches.load(Ordering::SeqCst), 1);
        assert_eq!(scheduler.inner().singles.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn disabled_config_passes_through() {
        let scheduler = BatchScheduler::new(CountingModel::new(), BatchConfig::disabled());
        scheduler
            .complete(&request(TaskKind::SqlGeneration, "q"))
            .unwrap();
        assert_eq!(scheduler.inner().singles.load(Ordering::SeqCst), 1);
        assert_eq!(scheduler.inner().batches.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn concurrent_same_kind_calls_coalesce() {
        let scheduler = Arc::new(BatchScheduler::new(
            CountingModel::new(),
            BatchConfig {
                max_batch_size: 8,
                max_wait: Duration::from_millis(20),
                poll_interval: Duration::from_millis(1),
                adaptive: None,
            },
        ));
        let threads = 8;
        let answers: Vec<_> = std::thread::scope(|scope| {
            let handles: Vec<_> = (0..threads)
                .map(|i| {
                    let scheduler = Arc::clone(&scheduler);
                    scope.spawn(move || {
                        let question = format!("q{i}");
                        let response = scheduler
                            .complete(&request(TaskKind::SqlGeneration, &question))
                            .unwrap();
                        (question, response)
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for (question, response) in answers {
            assert_eq!(response, CompletionResponse::Text(question));
        }
        // All 8 calls fit one window: strictly fewer dispatches than
        // callers, and at least one genuinely multi-request batch.
        let batches = scheduler.inner().batches.load(Ordering::SeqCst);
        assert!(
            batches < threads,
            "no coalescing happened ({batches} dispatches)"
        );
        assert!(scheduler.inner().largest.load(Ordering::SeqCst) >= 2);
    }

    #[test]
    fn different_kinds_never_share_a_batch() {
        let scheduler = Arc::new(BatchScheduler::new(
            CountingModel::new(),
            BatchConfig {
                max_batch_size: 8,
                max_wait: Duration::from_millis(20),
                poll_interval: Duration::from_millis(1),
                adaptive: None,
            },
        ));
        std::thread::scope(|scope| {
            for kind in [TaskKind::Reformulate, TaskKind::SqlGeneration] {
                for i in 0..3 {
                    let scheduler = Arc::clone(&scheduler);
                    scope.spawn(move || {
                        scheduler
                            .complete(&request(kind, &format!("q{i}")))
                            .unwrap();
                    });
                }
            }
        });
        // 6 calls across 2 kinds: at least one dispatch per kind.
        assert!(scheduler.inner().batches.load(Ordering::SeqCst) >= 2);
        assert!(scheduler.inner().largest.load(Ordering::SeqCst) <= 3);
    }

    #[test]
    fn short_batch_responses_surface_as_errors_not_hangs() {
        struct ShortModel;
        impl LanguageModel for ShortModel {
            fn name(&self) -> &str {
                "short"
            }
            fn complete(&self, _: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
                Ok(CompletionResponse::Text("one".into()))
            }
            fn complete_batch(
                &self,
                _requests: &[CompletionRequest],
            ) -> Vec<Result<CompletionResponse, ModelError>> {
                Vec::new()
            }
        }
        let scheduler = BatchScheduler::with_clock(
            ShortModel,
            BatchConfig::default(),
            Arc::new(SimulatedClock::new()),
        );
        let err = scheduler
            .complete(&request(TaskKind::Reformulate, "q"))
            .unwrap_err();
        assert!(matches!(err, ModelError::Malformed { .. }));
    }

    #[test]
    fn adaptive_window_interpolates_with_depth() {
        let schedule = AdaptiveWindow {
            idle_wait: Duration::from_millis(1),
            loaded_wait: Duration::from_millis(8),
            full_depth: 8,
        };
        assert_eq!(schedule.window_for(0), Duration::from_millis(1));
        assert_eq!(schedule.window_for(1), Duration::from_millis(1));
        assert_eq!(schedule.window_for(8), Duration::from_millis(8));
        assert_eq!(schedule.window_for(100), Duration::from_millis(8));
        let mid = schedule.window_for(4);
        assert!(mid > schedule.window_for(2) && mid < schedule.window_for(7));
    }

    #[test]
    fn adaptive_window_stays_at_idle_floor_for_sparse_traffic() {
        let metrics = Arc::new(MetricsRegistry::new());
        let idle = Duration::from_millis(30);
        let scheduler = BatchScheduler::with_clock(
            CountingModel::new(),
            BatchConfig {
                adaptive: Some(AdaptiveWindow {
                    idle_wait: idle,
                    loaded_wait: Duration::from_millis(200),
                    full_depth: 8,
                }),
                ..BatchConfig::default()
            },
            Arc::new(SimulatedClock::new()),
        )
        .with_metrics(Arc::clone(&metrics));
        for i in 0..5 {
            scheduler
                .complete(&request(TaskKind::SqlGeneration, &format!("q{i}")))
                .unwrap();
        }
        // Sequential callers never find company: every window stayed at
        // the idle floor and every dispatch carried one request.
        let snapshot = metrics.snapshot();
        let window = &snapshot.histograms["batch.window.ms"];
        assert_eq!(window.count, 5);
        assert!((window.max - idle.as_secs_f64() * 1e3).abs() < 1e-6);
        assert_eq!(scheduler.inner().largest.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn adaptive_window_widens_under_a_burst() {
        let metrics = Arc::new(MetricsRegistry::new());
        let idle = Duration::from_millis(30);
        let loaded = Duration::from_millis(200);
        let scheduler = Arc::new(
            BatchScheduler::new(
                CountingModel::new(),
                BatchConfig {
                    max_batch_size: 8,
                    adaptive: Some(AdaptiveWindow {
                        idle_wait: idle,
                        loaded_wait: loaded,
                        full_depth: 8,
                    }),
                    poll_interval: Duration::from_millis(1),
                    ..BatchConfig::default()
                },
            )
            .with_metrics(Arc::clone(&metrics)),
        );
        // 8 concurrent submitters: whoever leads opens (at least) a 30ms
        // idle window — ample time for the rest of the burst to enqueue —
        // and the per-slice recomputation then widens the window until
        // the batch fills to 8 and dispatches on size.
        std::thread::scope(|scope| {
            for i in 0..8 {
                let scheduler = Arc::clone(&scheduler);
                scope.spawn(move || {
                    scheduler
                        .complete(&request(TaskKind::SqlGeneration, &format!("q{i}")))
                        .unwrap();
                });
            }
        });
        assert_eq!(scheduler.inner().largest.load(Ordering::SeqCst), 8);
        let snapshot = metrics.snapshot();
        let window = &snapshot.histograms["batch.window.ms"];
        assert!(
            window.max > idle.as_secs_f64() * 1e3 + 1e-6,
            "window never widened past the idle floor: max {}ms",
            window.max
        );
    }

    #[test]
    fn metrics_record_batch_sizes_and_occupancy() {
        let metrics = Arc::new(MetricsRegistry::new());
        let scheduler = BatchScheduler::with_clock(
            CountingModel::new(),
            BatchConfig::default(),
            Arc::new(SimulatedClock::new()),
        )
        .with_metrics(Arc::clone(&metrics));
        scheduler
            .complete(&request(TaskKind::PlanGeneration, "q"))
            .unwrap();
        let snapshot = metrics.snapshot();
        assert_eq!(snapshot.counters["batch.dispatched"], 1);
        assert_eq!(snapshot.histograms["batch.size"].count, 1);
        assert!(snapshot.histograms.contains_key("batch.occupancy.plan"));
        assert!(snapshot.histograms.contains_key("batch.coalesce_wait.ms"));
    }
}
