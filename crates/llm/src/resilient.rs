//! Retry, backoff, and circuit breaking around any [`LanguageModel`].
//!
//! Production text-to-SQL sits behind a model API that throttles, times
//! out, and occasionally garbles a payload. This module contains the
//! resilience layer the pipeline wraps around every model call:
//!
//! - [`Clock`] — injectable time source. [`SystemClock`] for production,
//!   [`SimulatedClock`] for tests (no wall-clock sleeps, and the total
//!   simulated backoff is the run's retry overhead).
//! - [`RetryPolicy`] / [`BreakerPolicy`] / [`ResiliencePolicy`] — plain
//!   data, so the pipeline config can carry them.
//! - [`ResilienceState`] — the shared (Arc) runtime state: one circuit
//!   breaker per [`TaskKind`], the clock, and an optional metrics sink.
//! - [`ResilientModel`] — the wrapper that retries with exponential
//!   backoff + deterministic jitter, sheds calls when a breaker is open,
//!   and records every retry as an `llm.retry` span.
//!
//! All jitter comes from [`hash01`] over (task label, seed, attempt), so
//! two runs with the same seeds produce byte-identical schedules.

use crate::model::{kind_label, CompletionRequest, CompletionResponse, LanguageModel, ModelError};
use crate::prompt::TaskKind;
use genedit_telemetry::hash::hash01;
use genedit_telemetry::{names, MetricsRegistry, Tracer};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

// The injectable time source moved down-stack into `genedit_telemetry`
// (the SLO windows and burn-rate alerts need it too); re-export it so
// existing `genedit_llm::resilient::{Clock, …}` paths keep working.
pub use genedit_telemetry::clock::{Clock, SimulatedClock, SystemClock};

/// How many times to retry a failed call and how long to wait in between.
#[derive(Debug, Clone, PartialEq)]
pub struct RetryPolicy {
    /// Total attempts per logical call (1 = no retries).
    pub max_attempts: usize,
    /// Backoff before the first retry.
    pub base_backoff: Duration,
    /// Backoff ceiling.
    pub max_backoff: Duration,
    /// Exponential growth factor between retries.
    pub multiplier: f64,
    /// Fraction of the backoff randomized (deterministically) per retry:
    /// 0.2 means the wait is scaled by a factor in `[0.8, 1.2]`.
    pub jitter: f64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 3,
            base_backoff: Duration::from_millis(100),
            max_backoff: Duration::from_secs(5),
            multiplier: 2.0,
            jitter: 0.2,
        }
    }
}

impl RetryPolicy {
    /// Deterministic backoff before retry number `attempt` (1-based: the
    /// wait after the first failure is `backoff(task, seed, 1)`).
    pub fn backoff(&self, kind: TaskKind, seed: u64, attempt: usize) -> Duration {
        let exp = self.multiplier.powi(attempt.saturating_sub(1) as i32);
        let raw = self.base_backoff.as_secs_f64() * exp;
        let unit = hash01(
            &[
                "retry-jitter",
                kind_label(kind),
                &seed.to_string(),
                &attempt.to_string(),
            ],
            seed,
        );
        let factor = 1.0 + self.jitter * (2.0 * unit - 1.0);
        let jittered = (raw * factor).max(0.0);
        Duration::from_secs_f64(jittered.min(self.max_backoff.as_secs_f64()))
    }
}

/// Circuit-breaker thresholds: when to trip, how long to stay open, and
/// how many half-open probes must succeed before closing again.
#[derive(Debug, Clone, PartialEq)]
pub struct BreakerPolicy {
    /// Consecutive failures (counted per attempt) that open the breaker.
    pub failure_threshold: usize,
    /// How long an open breaker sheds calls before allowing probes.
    pub cooldown: Duration,
    /// Successful probes required to close from half-open.
    pub half_open_probes: usize,
}

impl Default for BreakerPolicy {
    fn default() -> Self {
        BreakerPolicy {
            failure_threshold: 5,
            cooldown: Duration::from_secs(5),
            half_open_probes: 2,
        }
    }
}

/// Retry + breaker policy as one value the pipeline config can carry.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct ResiliencePolicy {
    /// Retry/backoff knobs.
    pub retry: RetryPolicy,
    /// Circuit-breaker knobs.
    pub breaker: BreakerPolicy,
}

/// One task kind's breaker position.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BreakerPosition {
    /// Calls flow normally; failures are counted.
    Closed,
    /// Calls are shed without trying the backend.
    Open,
    /// Probe mode: limited calls through, success closes the breaker.
    HalfOpen,
}

#[derive(Debug, Clone)]
enum BreakerState {
    Closed { consecutive_failures: usize },
    Open { since: Duration },
    HalfOpen { successes: usize },
}

/// Shared runtime state for a fleet of [`ResilientModel`]s: per-task-kind
/// circuit breakers, the clock, and an optional metrics registry. Clone
/// the `Arc` so the harness and the pipeline observe the same breakers.
pub struct ResilienceState {
    policy: ResiliencePolicy,
    clock: Arc<dyn Clock>,
    metrics: Option<Arc<MetricsRegistry>>,
    breakers: Mutex<BTreeMap<&'static str, BreakerState>>,
}

impl ResilienceState {
    /// Fresh state (all breakers closed) over the given policy and clock.
    pub fn new(policy: ResiliencePolicy, clock: Arc<dyn Clock>) -> ResilienceState {
        ResilienceState {
            policy,
            clock,
            metrics: None,
            breakers: Mutex::new(BTreeMap::new()),
        }
    }

    /// Attach a metrics registry; retry/shed/breaker events get counted.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> ResilienceState {
        self.metrics = Some(metrics);
        self
    }

    /// The retry/breaker policy this state enforces.
    pub fn policy(&self) -> &ResiliencePolicy {
        &self.policy
    }

    /// The clock backoffs and breaker cooldowns run on.
    pub fn clock(&self) -> &Arc<dyn Clock> {
        &self.clock
    }

    fn lock(&self) -> MutexGuard<'_, BTreeMap<&'static str, BreakerState>> {
        self.breakers
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn incr(&self, name: &str) {
        if let Some(metrics) = &self.metrics {
            metrics.incr(name, 1);
        }
    }

    /// Current breaker position for a task kind (for tests and reports).
    pub fn breaker_position(&self, kind: TaskKind) -> BreakerPosition {
        match self.lock().get(kind_label(kind)) {
            None | Some(BreakerState::Closed { .. }) => BreakerPosition::Closed,
            Some(BreakerState::Open { since }) => {
                // Report the position a call would observe: cooled-down
                // breakers admit probes, i.e. behave as half-open.
                if self.clock.now().saturating_sub(*since) >= self.policy.breaker.cooldown {
                    BreakerPosition::HalfOpen
                } else {
                    BreakerPosition::Open
                }
            }
            Some(BreakerState::HalfOpen { .. }) => BreakerPosition::HalfOpen,
        }
    }

    /// Whether a call for `kind` may proceed. Open breakers shed until the
    /// cooldown elapses, then transition to half-open and admit probes.
    fn admit(&self, kind: TaskKind) -> bool {
        let label = kind_label(kind);
        let mut breakers = self.lock();
        match breakers.get(label) {
            None | Some(BreakerState::Closed { .. }) | Some(BreakerState::HalfOpen { .. }) => true,
            Some(BreakerState::Open { since }) => {
                if self.clock.now().saturating_sub(*since) >= self.policy.breaker.cooldown {
                    breakers.insert(label, BreakerState::HalfOpen { successes: 0 });
                    true
                } else {
                    false
                }
            }
        }
    }

    fn on_success(&self, kind: TaskKind) {
        let label = kind_label(kind);
        let mut breakers = self.lock();
        match breakers.get(label) {
            Some(BreakerState::HalfOpen { successes }) => {
                let successes = successes + 1;
                if successes >= self.policy.breaker.half_open_probes {
                    breakers.insert(
                        label,
                        BreakerState::Closed {
                            consecutive_failures: 0,
                        },
                    );
                } else {
                    breakers.insert(label, BreakerState::HalfOpen { successes });
                }
            }
            _ => {
                breakers.insert(
                    label,
                    BreakerState::Closed {
                        consecutive_failures: 0,
                    },
                );
            }
        }
    }

    fn on_failure(&self, kind: TaskKind) {
        let label = kind_label(kind);
        let mut breakers = self.lock();
        let open = |breakers: &mut BTreeMap<&'static str, BreakerState>| {
            breakers.insert(
                label,
                BreakerState::Open {
                    since: self.clock.now(),
                },
            );
        };
        match breakers.get(label) {
            Some(BreakerState::HalfOpen { .. }) => {
                // A failed probe re-opens immediately.
                open(&mut breakers);
                self.incr(&format!("model.breaker.opened.{label}"));
            }
            Some(BreakerState::Open { .. }) => {}
            None | Some(BreakerState::Closed { .. }) => {
                let failures = match breakers.get(label) {
                    Some(BreakerState::Closed {
                        consecutive_failures,
                    }) => consecutive_failures + 1,
                    _ => 1,
                };
                if failures >= self.policy.breaker.failure_threshold {
                    open(&mut breakers);
                    self.incr(&format!("model.breaker.opened.{label}"));
                } else {
                    breakers.insert(
                        label,
                        BreakerState::Closed {
                            consecutive_failures: failures,
                        },
                    );
                }
            }
        }
    }
}

/// Wraps a model with bounded retries, deterministic-jitter exponential
/// backoff, and per-task-kind circuit breaking. With a tracer attached,
/// each backoff is recorded as an `llm.retry` span so retries are visible
/// in the same trace as the `llm.complete` attempts they separate.
pub struct ResilientModel<'t, M> {
    inner: M,
    state: Arc<ResilienceState>,
    tracer: Option<&'t Tracer>,
}

impl<'t, M: LanguageModel> ResilientModel<'t, M> {
    /// Wrap `inner` under a shared resilience runtime.
    pub fn new(inner: M, state: Arc<ResilienceState>) -> ResilientModel<'t, M> {
        ResilientModel {
            inner,
            state,
            tracer: None,
        }
    }

    /// Record `llm.retry` spans into `tracer` on every backoff.
    pub fn with_tracer(mut self, tracer: &'t Tracer) -> ResilientModel<'t, M> {
        self.tracer = Some(tracer);
        self
    }

    /// The shared resilience runtime (breakers + clock).
    pub fn state(&self) -> &Arc<ResilienceState> {
        &self.state
    }
}

impl<M: LanguageModel> LanguageModel for ResilientModel<'_, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let kind = request.prompt.task;
        let label = kind_label(kind);
        if !self.state.admit(kind) {
            self.state.incr(&format!("model.shed.{label}"));
            return Err(ModelError::Exhausted {
                attempts: 0,
                last: Box::new(ModelError::Transient("circuit breaker open".into())),
            });
        }
        let policy = &self.state.policy().retry;
        let max_attempts = policy.max_attempts.max(1);
        let mut attempt = 0;
        loop {
            attempt += 1;
            match self.inner.complete(request) {
                Ok(response) => {
                    self.state.on_success(kind);
                    return Ok(response);
                }
                Err(err) => {
                    self.state.on_failure(kind);
                    self.state.incr(&format!("model.error.{}", err.label()));
                    if attempt >= max_attempts || !err.is_retryable() {
                        self.state.incr(&format!("model.exhausted.{label}"));
                        return Err(ModelError::Exhausted {
                            attempts: attempt,
                            last: Box::new(err),
                        });
                    }
                    let mut backoff = policy.backoff(kind, request.seed, attempt);
                    if let ModelError::RateLimited { retry_after } = &err {
                        backoff = backoff.max(*retry_after);
                    }
                    self.state.incr(&format!("model.retry.{label}"));
                    if let Some(metrics) = &self.state.metrics {
                        metrics.observe_duration("model.backoff.ms", backoff);
                    }
                    let span = self.tracer.map(|tracer| {
                        let span = tracer.span(names::LLM_RETRY);
                        span.attr("task", label)
                            .attr("attempt", attempt)
                            .attr("backoff_ms", backoff.as_secs_f64() * 1e3)
                            .attr("cause", err.label());
                        span
                    });
                    // A cancelled request (caller gave up, or this copy
                    // lost a hedge race) must not sleep out its backoff
                    // schedule: abandon the retry loop the moment the
                    // ambient cancel scope fires.
                    let token = crate::cancel::current();
                    let slept = crate::cancel::sleep_cancellable(
                        self.state.clock().as_ref(),
                        backoff,
                        token.as_ref(),
                    );
                    if let Some(span) = span {
                        span.finish();
                    }
                    if !slept {
                        self.state.incr(&format!("model.retry.cancelled.{label}"));
                        return Err(ModelError::Exhausted {
                            attempts: attempt,
                            last: Box::new(ModelError::Transient("cancelled".into())),
                        });
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Prompt;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// Fails the first `failures` calls with `error`, then succeeds.
    struct FlakyModel {
        failures: usize,
        error: ModelError,
        calls: AtomicUsize,
    }

    impl FlakyModel {
        fn new(failures: usize, error: ModelError) -> FlakyModel {
            FlakyModel {
                failures,
                error,
                calls: AtomicUsize::new(0),
            }
        }
    }

    impl LanguageModel for FlakyModel {
        fn name(&self) -> &str {
            "flaky"
        }
        fn complete(&self, _: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
            let n = self.calls.fetch_add(1, Ordering::SeqCst);
            if n < self.failures {
                Err(self.error.clone())
            } else {
                Ok(CompletionResponse::Text("ok".into()))
            }
        }
    }

    fn request(kind: TaskKind) -> CompletionRequest {
        CompletionRequest::new(Prompt::new(kind, "q"))
    }

    fn state() -> Arc<ResilienceState> {
        Arc::new(ResilienceState::new(
            ResiliencePolicy::default(),
            Arc::new(SimulatedClock::new()),
        ))
    }

    #[test]
    fn retries_transient_failures_until_success() {
        let state = state();
        let model = ResilientModel::new(
            FlakyModel::new(2, ModelError::Transient("reset".into())),
            Arc::clone(&state),
        );
        let response = model.complete(&request(TaskKind::SqlGeneration));
        assert_eq!(response, Ok(CompletionResponse::Text("ok".into())));
        assert_eq!(model.inner.calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn exhausts_after_max_attempts() {
        let state = state();
        let model = ResilientModel::new(
            FlakyModel::new(usize::MAX, ModelError::Timeout),
            Arc::clone(&state),
        );
        let err = model
            .complete(&request(TaskKind::SqlGeneration))
            .unwrap_err();
        match err {
            ModelError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 3);
                assert_eq!(*last, ModelError::Timeout);
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(model.inner.calls.load(Ordering::SeqCst), 3);
    }

    #[test]
    fn backoff_is_deterministic_and_exponential() {
        let policy = RetryPolicy::default();
        let a1 = policy.backoff(TaskKind::SqlGeneration, 7, 1);
        let a2 = policy.backoff(TaskKind::SqlGeneration, 7, 2);
        assert_eq!(a1, policy.backoff(TaskKind::SqlGeneration, 7, 1));
        // Exponential growth dominates jitter at these settings.
        assert!(a2 > a1, "{a2:?} !> {a1:?}");
        // Jitter keeps the wait within ±20% of the nominal value.
        let nominal = policy.base_backoff.as_secs_f64();
        assert!(a1.as_secs_f64() >= nominal * 0.8 && a1.as_secs_f64() <= nominal * 1.2);
        // Different seeds jitter differently.
        assert_ne!(a1, policy.backoff(TaskKind::SqlGeneration, 8, 1));
        // Capped at max_backoff.
        let deep = policy.backoff(TaskKind::SqlGeneration, 7, 30);
        assert!(deep <= policy.max_backoff);
    }

    #[test]
    fn rate_limited_waits_at_least_retry_after() {
        let clock = Arc::new(SimulatedClock::new());
        let state = Arc::new(ResilienceState::new(
            ResiliencePolicy::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let model = ResilientModel::new(
            FlakyModel::new(
                1,
                ModelError::RateLimited {
                    retry_after: Duration::from_secs(30),
                },
            ),
            state,
        );
        model
            .complete(&request(TaskKind::SqlGeneration))
            .expect("second call succeeds");
        assert!(clock.total_slept() >= Duration::from_secs(30));
    }

    #[test]
    fn breaker_opens_sheds_and_recovers_half_open() {
        let clock = Arc::new(SimulatedClock::new());
        let policy = ResiliencePolicy {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            breaker: BreakerPolicy {
                failure_threshold: 3,
                cooldown: Duration::from_secs(5),
                half_open_probes: 2,
            },
        };
        let state = Arc::new(ResilienceState::new(
            policy,
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        // 3 single-attempt failures trip the breaker for `sql` only.
        let failing = ResilientModel::new(
            FlakyModel::new(3, ModelError::Transient("down".into())),
            Arc::clone(&state),
        );
        for _ in 0..3 {
            let _ = failing.complete(&request(TaskKind::SqlGeneration));
        }
        assert_eq!(
            state.breaker_position(TaskKind::SqlGeneration),
            BreakerPosition::Open
        );
        assert_eq!(
            state.breaker_position(TaskKind::Reformulate),
            BreakerPosition::Closed
        );
        // Shed while open: the inner model is not called.
        let before = failing.inner.calls.load(Ordering::SeqCst);
        let err = failing
            .complete(&request(TaskKind::SqlGeneration))
            .unwrap_err();
        assert!(matches!(err, ModelError::Exhausted { attempts: 0, .. }));
        assert_eq!(failing.inner.calls.load(Ordering::SeqCst), before);
        // After the cooldown the breaker admits probes (half-open); two
        // successes close it.
        clock.advance(Duration::from_secs(5));
        failing
            .complete(&request(TaskKind::SqlGeneration))
            .expect("probe 1");
        assert_eq!(
            state.breaker_position(TaskKind::SqlGeneration),
            BreakerPosition::HalfOpen
        );
        failing
            .complete(&request(TaskKind::SqlGeneration))
            .expect("probe 2");
        assert_eq!(
            state.breaker_position(TaskKind::SqlGeneration),
            BreakerPosition::Closed
        );
    }

    #[test]
    fn failed_half_open_probe_reopens() {
        let clock = Arc::new(SimulatedClock::new());
        let policy = ResiliencePolicy {
            retry: RetryPolicy {
                max_attempts: 1,
                ..RetryPolicy::default()
            },
            breaker: BreakerPolicy {
                failure_threshold: 2,
                cooldown: Duration::from_secs(5),
                half_open_probes: 1,
            },
        };
        let state = Arc::new(ResilienceState::new(
            policy,
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let model = ResilientModel::new(
            FlakyModel::new(usize::MAX, ModelError::Timeout),
            Arc::clone(&state),
        );
        let _ = model.complete(&request(TaskKind::PlanGeneration));
        let _ = model.complete(&request(TaskKind::PlanGeneration));
        assert_eq!(
            state.breaker_position(TaskKind::PlanGeneration),
            BreakerPosition::Open
        );
        clock.advance(Duration::from_secs(5));
        let _ = model.complete(&request(TaskKind::PlanGeneration));
        assert_eq!(
            state.breaker_position(TaskKind::PlanGeneration),
            BreakerPosition::Open
        );
    }

    #[test]
    fn retries_are_recorded_as_retry_spans_and_metrics() {
        let metrics = Arc::new(MetricsRegistry::new());
        let state = Arc::new(
            ResilienceState::new(ResiliencePolicy::default(), Arc::new(SimulatedClock::new()))
                .with_metrics(Arc::clone(&metrics)),
        );
        let tracer = Tracer::new("t");
        let model = ResilientModel::new(
            FlakyModel::new(2, ModelError::Transient("reset".into())),
            Arc::clone(&state),
        )
        .with_tracer(&tracer);
        model
            .complete(&request(TaskKind::SqlGeneration))
            .expect("third call succeeds");
        let trace = tracer.finish();
        assert_eq!(trace.count(names::LLM_RETRY), 2);
        let span = trace.find(names::LLM_RETRY).expect("retry span");
        assert_eq!(
            span.attr("task"),
            Some(&genedit_telemetry::AttrValue::Str("sql".into()))
        );
        assert_eq!(metrics.counter("model.retry.sql"), 2);
        assert_eq!(metrics.counter("model.error.transient"), 2);
        assert_eq!(metrics.snapshot().histograms["model.backoff.ms"].count, 2);
    }

    #[test]
    fn cancelled_scope_abandons_the_backoff_schedule() {
        let clock = Arc::new(SimulatedClock::new());
        let state = Arc::new(ResilienceState::new(
            ResiliencePolicy::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let model = ResilientModel::new(
            FlakyModel::new(usize::MAX, ModelError::Transient("down".into())),
            state,
        );
        let token = crate::cancel::CancelToken::new();
        token.cancel();
        let err = crate::cancel::with_current(&token, || {
            model.complete(&request(TaskKind::SqlGeneration))
        })
        .unwrap_err();
        // One attempt ran, then the schedule was abandoned without
        // sleeping: a hedge-lost request stops burning wall clock.
        match err {
            ModelError::Exhausted { attempts, last } => {
                assert_eq!(attempts, 1);
                assert_eq!(*last, ModelError::Transient("cancelled".into()));
            }
            other => panic!("expected Exhausted, got {other:?}"),
        }
        assert_eq!(model.inner.calls.load(Ordering::SeqCst), 1);
        assert_eq!(clock.total_slept(), Duration::ZERO);
    }

    #[test]
    fn mid_schedule_cancel_stops_after_the_current_attempt() {
        /// Fails every call; cancels `token` as a side effect of the
        /// second call, as a hedge win racing a retry loop would.
        struct CancellingModel {
            token: crate::cancel::CancelToken,
            calls: AtomicUsize,
        }
        impl LanguageModel for CancellingModel {
            fn name(&self) -> &str {
                "cancelling"
            }
            fn complete(&self, _: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
                if self.calls.fetch_add(1, Ordering::SeqCst) == 1 {
                    self.token.cancel();
                }
                Err(ModelError::Timeout)
            }
        }
        let clock = Arc::new(SimulatedClock::new());
        let policy = ResiliencePolicy {
            retry: RetryPolicy {
                max_attempts: 10,
                ..RetryPolicy::default()
            },
            breaker: BreakerPolicy {
                failure_threshold: usize::MAX,
                ..BreakerPolicy::default()
            },
        };
        let state = Arc::new(ResilienceState::new(
            policy,
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let token = crate::cancel::CancelToken::new();
        let model = ResilientModel::new(
            CancellingModel {
                token: token.clone(),
                calls: AtomicUsize::new(0),
            },
            state,
        );
        let err = crate::cancel::with_current(&token, || {
            model.complete(&request(TaskKind::SqlGeneration))
        })
        .unwrap_err();
        // Attempt 1 failed and slept its backoff; attempt 2 failed and
        // fired the token, so backoff 2 was skipped entirely.
        assert!(matches!(err, ModelError::Exhausted { attempts: 2, .. }));
        assert_eq!(model.inner.calls.load(Ordering::SeqCst), 2);
        let first = RetryPolicy::default().backoff(TaskKind::SqlGeneration, 0, 1);
        assert_eq!(clock.total_slept(), first);
    }

    #[test]
    fn healthy_model_passes_through_without_overhead() {
        let clock = Arc::new(SimulatedClock::new());
        let state = Arc::new(ResilienceState::new(
            ResiliencePolicy::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        ));
        let model =
            ResilientModel::new(FlakyModel::new(0, ModelError::Timeout), Arc::clone(&state));
        for _ in 0..10 {
            model
                .complete(&request(TaskKind::SqlGeneration))
                .expect("healthy");
        }
        assert_eq!(model.inner.calls.load(Ordering::SeqCst), 10);
        assert_eq!(clock.total_slept(), Duration::ZERO);
    }
}
