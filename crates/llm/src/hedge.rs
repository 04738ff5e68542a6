//! Hedged (speculative duplicate) dispatch for tail-latency control.
//!
//! Batching (PR 5) bought throughput, but p99 is still hostage to the
//! slowest single dispatch: one straggling model call holds its worker —
//! and everything queued behind it — for the full straggle. The classic
//! remedy ("The Tail at Scale") is to **hedge**: once the primary call
//! has been outstanding longer than a high percentile of observed
//! latency, fire an identical duplicate and take whichever copy finishes
//! first, cancelling the loser.
//!
//! [`HedgedModel`] wraps any [`LanguageModel`] with that policy:
//!
//! - The hedge delay is **percentile-derived**: every completed call's
//!   latency feeds a per-[`TaskKind`] [`LogLinearHistogram`], and the
//!   delay is `clamp(pN, min_delay, max_delay)`. Until a kind has
//!   [`HedgePolicy::min_observations`] samples no hedge fires (cold
//!   start is served unhedged rather than guessed at).
//! - The loser is cancelled through [`CancelToken`]: each copy runs
//!   under its own [`cancel::with_current`] scope, so a model below that
//!   reads [`cancel::current`] can stop the losing copy promptly (this
//!   module's tests script one).
//! - Results are **byte-identical regardless of which copy wins**: both
//!   copies carry the exact same [`CompletionRequest`], and every model
//!   in this workspace is deterministic in `(prompt, seed)`, so the race
//!   only ever decides *when* the answer arrives, never *what* it is.
//!   When both copies fail, the primary's error is returned so the error
//!   surface is deterministic too.
//! - One logical request records **one** latency observation, however
//!   many copies ran. A wasted hedge completion is counted in
//!   `hedge.wasted`, never as a second sample in the latency histogram
//!   the hedge delay is derived from.
//!
//! The serving runtime does not use it. Composed with the other
//! decorators, the order is `Traced(Hedged(Batch(model)))`: a hedged call
//! is traced as one call above, and each copy is coalesced like any
//! other call below.
//!
//! Cost model: the hedged path spawns one short-lived thread per call
//! (the primary), so hedging is engaged per-kind only after warm-up and
//! is intended for millisecond-scale model calls where a ~10µs spawn is
//! noise. The duplicate itself runs inline on the calling thread.

use crate::cancel::{self, CancelToken};
use crate::model::{kind_label, CompletionRequest, CompletionResponse, LanguageModel, ModelError};
use crate::prompt::TaskKind;
use genedit_telemetry::clock::{Clock, SystemClock};
use genedit_telemetry::{LogLinearHistogram, MetricsRegistry};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use std::time::Duration;

/// All task kinds, in a fixed order that indexes the per-kind latency
/// histograms.
const KINDS: [TaskKind; 5] = [
    TaskKind::Reformulate,
    TaskKind::IntentClassification,
    TaskKind::SchemaLinking,
    TaskKind::PlanGeneration,
    TaskKind::SqlGeneration,
];

fn kind_index(kind: TaskKind) -> usize {
    match kind {
        TaskKind::Reformulate => 0,
        TaskKind::IntentClassification => 1,
        TaskKind::SchemaLinking => 2,
        TaskKind::PlanGeneration => 3,
        TaskKind::SqlGeneration => 4,
    }
}

/// When (and whether) to fire a duplicate request.
#[derive(Debug, Clone, PartialEq)]
pub struct HedgePolicy {
    /// Master switch. Disabled means pure pass-through: no extra
    /// threads, no histograms consulted, zero hedges.
    pub enabled: bool,
    /// Latency percentile the hedge delay is derived from (e.g. `95.0`
    /// fires a duplicate once the primary is slower than p95).
    pub percentile: f64,
    /// Floor on the derived delay. Keeps ordinary jitter from firing
    /// hedges when the observed distribution is very tight — the floor
    /// is what bounds wasted duplicate calls.
    pub min_delay: Duration,
    /// Ceiling on the derived delay, so a spike-polluted histogram can
    /// not push the delay past the point of uselessness.
    pub max_delay: Duration,
    /// Samples a task kind's histogram needs before hedging engages for
    /// that kind. Cold starts run unhedged.
    pub min_observations: u64,
    /// How often the waiter re-checks the primary while counting down
    /// the hedge delay.
    pub poll_interval: Duration,
}

impl Default for HedgePolicy {
    fn default() -> Self {
        HedgePolicy {
            enabled: true,
            percentile: 95.0,
            min_delay: Duration::from_millis(10),
            max_delay: Duration::from_secs(1),
            min_observations: 20,
            poll_interval: Duration::from_micros(500),
        }
    }
}

impl HedgePolicy {
    /// A policy that never hedges; [`HedgedModel`] becomes a transparent
    /// pass-through (the configuration-off baseline, like
    /// [`crate::BatchConfig::disabled`]).
    pub fn disabled() -> HedgePolicy {
        HedgePolicy {
            enabled: false,
            ..HedgePolicy::default()
        }
    }
}

/// Point-in-time hedge counters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct HedgeStats {
    /// Duplicates fired (each is one extra model round trip).
    pub fired: u64,
    /// Races where the duplicate's result was the one returned.
    pub won: u64,
    /// Races where the duplicate fired but the primary's result was
    /// returned (the duplicate round trip bought nothing).
    pub wasted: u64,
}

#[derive(Default)]
struct StatCells {
    fired: AtomicU64,
    won: AtomicU64,
    wasted: AtomicU64,
}

/// The primary's completion slot, shared between the spawned primary
/// thread and the waiting caller.
struct Race {
    primary: Mutex<Option<Result<CompletionResponse, ModelError>>>,
    done: Condvar,
}

impl Race {
    fn lock(&self) -> MutexGuard<'_, Option<Result<CompletionResponse, ModelError>>> {
        self.primary
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }
}

/// Wraps a model with percentile-triggered duplicate dispatch. See the
/// [module docs](self) for the full contract.
pub struct HedgedModel<M> {
    inner: Arc<M>,
    policy: HedgePolicy,
    clock: Arc<dyn Clock>,
    metrics: Option<Arc<MetricsRegistry>>,
    latency: [LogLinearHistogram; KINDS.len()],
    counts: [AtomicU64; KINDS.len()],
    stats: StatCells,
}

impl<M: LanguageModel + 'static> HedgedModel<M> {
    /// Wrap `inner` under `policy`, timing calls on the system clock.
    pub fn new(inner: M, policy: HedgePolicy) -> HedgedModel<M> {
        HedgedModel {
            inner: Arc::new(inner),
            policy,
            clock: Arc::new(SystemClock::new()),
            metrics: None,
            latency: Default::default(),
            counts: Default::default(),
            stats: StatCells::default(),
        }
    }

    /// Time calls (and count down hedge delays) on `clock` instead of
    /// the system clock.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> HedgedModel<M> {
        self.clock = clock;
        self
    }

    /// Count `hedge.fired` / `hedge.won` / `hedge.wasted` into
    /// `metrics`, and observe each fired delay as `hedge.delay.ms`.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> HedgedModel<M> {
        self.metrics = Some(metrics);
        self
    }

    /// The wrapped model.
    pub fn inner(&self) -> &Arc<M> {
        &self.inner
    }

    /// The active policy.
    pub fn policy(&self) -> &HedgePolicy {
        &self.policy
    }

    /// Current hedge counters.
    pub fn stats(&self) -> HedgeStats {
        HedgeStats {
            fired: self.stats.fired.load(Ordering::SeqCst),
            won: self.stats.won.load(Ordering::SeqCst),
            wasted: self.stats.wasted.load(Ordering::SeqCst),
        }
    }

    /// Seed `kind`'s latency histogram, e.g. so a benchmark can engage
    /// hedging from the first request instead of warming up in-band.
    pub fn preheat(&self, kind: TaskKind, samples: &[Duration]) {
        let idx = kind_index(kind);
        for sample in samples {
            self.latency[idx].observe(sample.as_secs_f64() * 1e3);
            self.counts[idx].fetch_add(1, Ordering::SeqCst);
        }
    }

    /// The delay after which a duplicate would fire for `kind`:
    /// `clamp(p<percentile>, min_delay, max_delay)` over the observed
    /// latencies, or `None` while disabled or under-observed (in which
    /// case calls run unhedged).
    pub fn hedge_delay(&self, kind: TaskKind) -> Option<Duration> {
        if !self.policy.enabled {
            return None;
        }
        let idx = kind_index(kind);
        if self.counts[idx].load(Ordering::SeqCst) < self.policy.min_observations {
            return None;
        }
        let p_ms = self.latency[idx]
            .snapshot()
            .percentile(self.policy.percentile);
        let derived = Duration::from_secs_f64((p_ms / 1e3).max(0.0));
        Some(derived.clamp(self.policy.min_delay, self.policy.max_delay))
    }

    fn observe(&self, kind: TaskKind, elapsed: Duration) {
        let idx = kind_index(kind);
        self.latency[idx].observe(elapsed.as_secs_f64() * 1e3);
        self.counts[idx].fetch_add(1, Ordering::SeqCst);
    }

    fn incr(&self, name: &str) {
        if let Some(metrics) = &self.metrics {
            metrics.incr(name, 1);
        }
    }

    /// Terminal accounting for one logical request: one latency sample
    /// into the per-kind histogram, no matter how many copies ran.
    fn settle(
        &self,
        kind: TaskKind,
        start: Duration,
        result: Result<CompletionResponse, ModelError>,
    ) -> Result<CompletionResponse, ModelError> {
        let elapsed = self.clock.now().saturating_sub(start);
        self.observe(kind, elapsed);
        result
    }

    /// Race the already-running primary against an inline duplicate.
    fn run_hedged(
        &self,
        request: &CompletionRequest,
        race: &Arc<Race>,
        primary_token: &CancelToken,
        hedge_token: &CancelToken,
        label: &'static str,
    ) -> Result<CompletionResponse, ModelError> {
        self.stats.fired.fetch_add(1, Ordering::SeqCst);
        self.incr(&format!("hedge.fired.{label}"));
        let hedged = cancel::with_current(hedge_token, || self.inner.complete(request));

        let mut slot = race.lock();
        if let Some(primary) = slot.take() {
            // The primary landed while the duplicate was running. Prefer
            // whichever copy succeeded; both failing returns the
            // primary's error so the error surface is deterministic.
            return match (primary, hedged) {
                (Ok(p), _) => {
                    self.stats.wasted.fetch_add(1, Ordering::SeqCst);
                    self.incr(&format!("hedge.wasted.{label}"));
                    Ok(p)
                }
                (Err(_), Ok(h)) => {
                    self.stats.won.fetch_add(1, Ordering::SeqCst);
                    self.incr(&format!("hedge.won.{label}"));
                    Ok(h)
                }
                (Err(p), Err(_)) => {
                    self.stats.wasted.fetch_add(1, Ordering::SeqCst);
                    self.incr(&format!("hedge.wasted.{label}"));
                    Err(p)
                }
            };
        }
        match hedged {
            Ok(h) => {
                // The duplicate beat the primary: cancel the loser and
                // return. The
                // primary thread publishes into the race slot and exits;
                // nobody reads that publication.
                primary_token.cancel();
                self.stats.won.fetch_add(1, Ordering::SeqCst);
                self.incr(&format!("hedge.won.{label}"));
                Ok(h)
            }
            Err(_) => {
                // The duplicate failed; the primary is the only hope
                // left, so fall back to plain waiting on it.
                self.stats.wasted.fetch_add(1, Ordering::SeqCst);
                self.incr(&format!("hedge.wasted.{label}"));
                loop {
                    if let Some(primary) = slot.take() {
                        return primary;
                    }
                    slot = race
                        .done
                        .wait(slot)
                        .unwrap_or_else(|poisoned| poisoned.into_inner());
                }
            }
        }
    }
}

impl<M: LanguageModel + 'static> LanguageModel for HedgedModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let kind = request.prompt.task;
        let label = kind_label(kind);
        let start = self.clock.now();
        let Some(delay) = self.hedge_delay(kind) else {
            // Disabled or cold: pass through, but keep feeding the
            // histogram so warm-up happens in-band.
            let result = self.inner.complete(request);
            return self.settle(kind, start, result);
        };
        if let Some(metrics) = &self.metrics {
            metrics.observe_duration("hedge.delay.ms", delay);
        }

        let race = Arc::new(Race {
            primary: Mutex::new(None),
            done: Condvar::new(),
        });
        let primary_token = CancelToken::new();
        let hedge_token = CancelToken::new();
        {
            let inner = Arc::clone(&self.inner);
            let request = request.clone();
            let race = Arc::clone(&race);
            let token = primary_token.clone();
            let hedge_token = hedge_token.clone();
            std::thread::spawn(move || {
                let result = cancel::with_current(&token, || inner.complete(&request));
                *race.lock() = Some(result);
                // If a duplicate is still in flight it just lost the
                // race; stop it from burning further wall clock.
                hedge_token.cancel();
                race.done.notify_all();
            });
        }

        // Count down the hedge delay, returning early if the primary
        // lands first. `poll_interval` bounds how stale the elapsed
        // check can get; the condvar wakes us the moment the primary
        // publishes.
        let mut slot = race.lock();
        let result = loop {
            if let Some(primary) = slot.take() {
                break primary;
            }
            if self.clock.now().saturating_sub(start) >= delay {
                drop(slot);
                break self.run_hedged(request, &race, &primary_token, &hedge_token, label);
            }
            let (guard, _) = race
                .done
                .wait_timeout(slot, self.policy.poll_interval)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            slot = guard;
        };
        self.settle(kind, start, result)
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Vec<Result<CompletionResponse, ModelError>> {
        // Batch dispatches are already latency-amortized across their
        // members; hedging applies to the individual-call path that the
        // batch scheduler sits *below* in the serving stack.
        self.inner.complete_batch(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Prompt;
    use std::sync::atomic::AtomicUsize;
    use std::thread::ThreadId;
    use std::time::Instant;

    /// Per-call latency behavior; the payload is always derived from the
    /// request alone, so every copy of a request answers identically.
    #[derive(Clone, Copy)]
    enum Step {
        Ready,
        /// A primary that answers once its duplicate has started.
        AfterDuplicate,
        BlockUntilCancelled,
        FailTransient,
        /// A primary that times out once its duplicate has started.
        TimeoutAfterDuplicate,
    }

    /// A model scripted per copy: `scripts[0]` for primaries, `[1]` for
    /// duplicates, each handed out in call order and [`Step::Ready`]
    /// past its end. [`HedgedModel`] runs a hedged call's primary on a
    /// spawned thread and its duplicate inline on the caller's thread, so
    /// the thread says which copy a call is, however late the spawned
    /// thread starts. Calls on the thread that built the model (duplicates,
    /// and calls that run unhedged) read `scripts[1]`.
    struct ScriptedModel {
        scripts: [Vec<Step>; 2],
        calls: [AtomicUsize; 2],
        caller: ThreadId,
        saw_cancel: AtomicUsize,
    }

    impl ScriptedModel {
        fn new(primary: Vec<Step>, duplicate: Vec<Step>) -> ScriptedModel {
            ScriptedModel {
                scripts: [primary, duplicate],
                calls: Default::default(),
                caller: std::thread::current().id(),
                saw_cancel: AtomicUsize::new(0),
            }
        }

        /// Calls so far, over both copies.
        fn calls(&self) -> usize {
            self.calls.iter().map(|c| c.load(Ordering::SeqCst)).sum()
        }

        /// Wait until the duplicate of primary call `n` has started, so
        /// that the hedge fires however the threads are scheduled.
        fn await_duplicate(&self, n: usize) {
            wait_until(|| self.calls[1].load(Ordering::SeqCst) > n);
        }

        /// How many calls saw their token fire, once that reaches `n`: a
        /// losing copy runs on a detached thread, which may not even have
        /// started when the hedged call returns.
        fn await_cancelled(&self, n: usize) -> usize {
            wait_until(|| self.saw_cancel.load(Ordering::SeqCst) >= n);
            self.saw_cancel.load(Ordering::SeqCst)
        }

        fn payload(request: &CompletionRequest) -> CompletionResponse {
            CompletionResponse::Text(format!(
                "ans:{}:{}",
                kind_label(request.prompt.task),
                request.seed
            ))
        }
    }

    impl LanguageModel for ScriptedModel {
        fn name(&self) -> &str {
            "scripted"
        }

        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
            let copy = usize::from(std::thread::current().id() == self.caller);
            let n = self.calls[copy].fetch_add(1, Ordering::SeqCst);
            match self.scripts[copy].get(n).copied().unwrap_or(Step::Ready) {
                Step::Ready => Ok(Self::payload(request)),
                Step::AfterDuplicate => {
                    self.await_duplicate(n);
                    Ok(Self::payload(request))
                }
                Step::BlockUntilCancelled => {
                    let token = cancel::current().unwrap_or_default();
                    wait_until(|| token.is_cancelled());
                    if token.is_cancelled() {
                        self.saw_cancel.fetch_add(1, Ordering::SeqCst);
                    }
                    Ok(Self::payload(request))
                }
                Step::FailTransient => Err(ModelError::Transient("scripted".into())),
                Step::TimeoutAfterDuplicate => {
                    self.await_duplicate(n);
                    Err(ModelError::Timeout)
                }
            }
        }
    }

    /// Poll `done` every millisecond, for at most 5 s.
    fn wait_until(done: impl Fn() -> bool) {
        let cap = Instant::now() + Duration::from_secs(5);
        while !done() && Instant::now() < cap {
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    fn request() -> CompletionRequest {
        CompletionRequest::new(Prompt::new(TaskKind::SqlGeneration, "q"))
    }

    /// A policy whose delay engages immediately after preheating.
    fn eager_policy() -> HedgePolicy {
        HedgePolicy {
            min_delay: Duration::from_millis(2),
            max_delay: Duration::from_millis(2),
            min_observations: 4,
            ..HedgePolicy::default()
        }
    }

    fn preheated<M: LanguageModel + 'static>(model: HedgedModel<M>) -> HedgedModel<M> {
        model.preheat(TaskKind::SqlGeneration, &[Duration::from_millis(1); 8]);
        model
    }

    #[test]
    fn disabled_policy_is_a_pure_pass_through() {
        let hedged = HedgedModel::new(
            ScriptedModel::new(vec![], vec![Step::Ready; 4]),
            HedgePolicy::disabled(),
        );
        for _ in 0..4 {
            let r = hedged.complete(&request()).expect("ok");
            assert_eq!(r, ScriptedModel::payload(&request()));
        }
        assert_eq!(hedged.inner().calls(), 4);
        assert_eq!(hedged.stats(), HedgeStats::default());
        assert_eq!(hedged.hedge_delay(TaskKind::SqlGeneration), None);
    }

    #[test]
    fn cold_kind_runs_unhedged_until_min_observations() {
        let policy = HedgePolicy {
            min_observations: 3,
            ..eager_policy()
        };
        let hedged = HedgedModel::new(ScriptedModel::new(vec![], vec![Step::Ready; 8]), policy);
        assert_eq!(hedged.hedge_delay(TaskKind::SqlGeneration), None);
        for _ in 0..3 {
            hedged.complete(&request()).expect("ok");
        }
        // Warm-up happened in-band: the kind is now hedge-eligible.
        assert_eq!(
            hedged.hedge_delay(TaskKind::SqlGeneration),
            Some(Duration::from_millis(2))
        );
        // Other kinds stay cold.
        assert_eq!(hedged.hedge_delay(TaskKind::PlanGeneration), None);
        assert_eq!(hedged.stats().fired, 0);
    }

    #[test]
    fn delay_is_percentile_derived_and_clamped() {
        let policy = HedgePolicy {
            percentile: 95.0,
            min_delay: Duration::from_millis(5),
            max_delay: Duration::from_millis(50),
            min_observations: 10,
            ..HedgePolicy::default()
        };
        let hedged = HedgedModel::new(ScriptedModel::new(vec![], vec![]), policy);
        // Tight distribution: p95 ~1ms, clamped up to the 5ms floor.
        hedged.preheat(TaskKind::SqlGeneration, &[Duration::from_millis(1); 32]);
        assert_eq!(
            hedged.hedge_delay(TaskKind::SqlGeneration),
            Some(Duration::from_millis(5))
        );
        // Heavy tail: p95 ~200ms, clamped down to the 50ms ceiling.
        hedged.preheat(TaskKind::PlanGeneration, &[Duration::from_millis(200); 32]);
        assert_eq!(
            hedged.hedge_delay(TaskKind::PlanGeneration),
            Some(Duration::from_millis(50))
        );
        // In-range percentile passes through (log-linear buckets are
        // ~±5% wide, so compare loosely).
        hedged.preheat(TaskKind::SchemaLinking, &[Duration::from_millis(20); 32]);
        let d = hedged
            .hedge_delay(TaskKind::SchemaLinking)
            .expect("warm")
            .as_secs_f64()
            * 1e3;
        assert!((15.0..=26.0).contains(&d), "delay {d}ms not near 20ms");
    }

    #[test]
    fn hedge_fires_wins_and_cancels_the_straggling_primary() {
        let metrics = Arc::new(MetricsRegistry::new());
        // The primary straggles until cancelled; the duplicate answers
        // immediately.
        let model = ScriptedModel::new(vec![Step::BlockUntilCancelled], vec![Step::Ready]);
        let hedged =
            preheated(HedgedModel::new(model, eager_policy()).with_metrics(Arc::clone(&metrics)));
        let out = hedged.complete(&request()).expect("hedge answers");
        assert_eq!(out, ScriptedModel::payload(&request()));
        assert_eq!(
            hedged.stats(),
            HedgeStats {
                fired: 1,
                won: 1,
                wasted: 0
            }
        );
        assert_eq!(metrics.counter("hedge.fired.sql"), 1);
        assert_eq!(metrics.counter("hedge.won.sql"), 1);
        // The losing primary saw its token fire.
        assert_eq!(hedged.inner().await_cancelled(1), 1);
    }

    #[test]
    fn primary_win_counts_the_duplicate_as_wasted() {
        // The primary answers past the delay, once the duplicate has
        // fired; the duplicate straggles until the primary's publication
        // cancels it.
        let model = ScriptedModel::new(vec![Step::AfterDuplicate], vec![Step::BlockUntilCancelled]);
        let hedged = preheated(HedgedModel::new(model, eager_policy()));
        let out = hedged.complete(&request()).expect("primary answers");
        assert_eq!(out, ScriptedModel::payload(&request()));
        let stats = hedged.stats();
        assert_eq!((stats.fired, stats.won, stats.wasted), (1, 0, 1));
        assert_eq!(hedged.inner().saw_cancel.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn both_copies_failing_returns_the_primary_error() {
        // The primary times out once the duplicate has fired; the
        // duplicate fails fast. The primary's error is the one surfaced,
        // so the error path is deterministic.
        let model =
            ScriptedModel::new(vec![Step::TimeoutAfterDuplicate], vec![Step::FailTransient]);
        let hedged = preheated(HedgedModel::new(model, eager_policy()));
        let err = hedged.complete(&request()).unwrap_err();
        assert_eq!(err, ModelError::Timeout);
        assert_eq!(
            hedged.stats(),
            HedgeStats {
                fired: 1,
                won: 0,
                wasted: 1
            }
        );
    }

    /// Hedging costs exactly one extra round trip per straggler: over `n`
    /// calls of which `k` straggle far past the delay, `fired` is `k`, and
    /// a call that beats the delay never fires one.
    #[test]
    fn hedges_fire_for_stragglers_and_only_for_stragglers() {
        let stragglers = [1usize, 4, 5, 8];
        let n = 10;
        // Primaries are scripted by call; every duplicate answers at once.
        let primaries = (0..n)
            .map(|i| {
                if stragglers.contains(&i) {
                    Step::BlockUntilCancelled
                } else {
                    Step::Ready
                }
            })
            .collect();
        // A delay far above a ready call's latency, even in a debug build
        // on a busy machine, so only the stragglers can cross it.
        let policy = HedgePolicy {
            min_delay: Duration::from_millis(50),
            max_delay: Duration::from_millis(50),
            ..eager_policy()
        };
        let model = ScriptedModel::new(primaries, vec![]);
        let hedged = preheated(HedgedModel::new(model, policy));
        for i in 0..n {
            let before = hedged.stats().fired;
            hedged.complete(&request()).expect("every call answers");
            let fired = hedged.stats().fired - before;
            assert_eq!(fired, u64::from(stragglers.contains(&i)), "call {i}");
        }
        let k = stragglers.len();
        // Every straggling primary has made its call once it has seen
        // its token fire.
        hedged.inner().await_cancelled(k);
        assert_eq!(
            hedged.stats(),
            HedgeStats {
                fired: k as u64,
                won: k as u64,
                wasted: 0
            }
        );
        assert_eq!(hedged.inner().calls(), n + k);
    }

    #[test]
    fn hedged_and_unhedged_results_are_byte_identical() {
        // Same deterministic payloads, wildly different timing scripts.
        let plain = ScriptedModel::new(vec![], vec![Step::Ready; 8]);
        let spiky = ScriptedModel::new(
            vec![Step::BlockUntilCancelled, Step::AfterDuplicate, Step::Ready],
            vec![Step::Ready, Step::BlockUntilCancelled],
        );
        let hedged = preheated(HedgedModel::new(spiky, eager_policy()));
        for seed in 0..3u64 {
            let mut req = request();
            req.seed = seed;
            let a = plain.complete(&req).expect("plain");
            let b = hedged.complete(&req).expect("hedged");
            assert_eq!(a, b, "hedging changed the payload for seed {seed}");
        }
    }

    #[test]
    fn one_logical_request_records_one_latency_sample() {
        // Every primary straggles; every duplicate answers: 4 logical
        // requests, 8 model calls, all hedges won.
        let model = ScriptedModel::new(vec![Step::BlockUntilCancelled; 4], vec![Step::Ready; 4]);
        let hedged = preheated(HedgedModel::new(model, eager_policy()));
        let idx = kind_index(TaskKind::SqlGeneration);
        let before = hedged.counts[idx].load(Ordering::SeqCst);
        for _ in 0..4 {
            hedged.complete(&request()).expect("ok");
        }
        assert_eq!(hedged.stats().fired, 4);
        hedged.inner().await_cancelled(4);
        assert_eq!(hedged.inner().calls(), 8);
        // One sample per request: duplicates never inflate the histogram
        // the hedge delay is derived from (8 here would mean double
        // counting).
        assert_eq!(hedged.counts[idx].load(Ordering::SeqCst) - before, 4);
        assert_eq!(hedged.latency[idx].snapshot().count, before + 4);
    }
}
