//! Deterministic fault injection for chaos testing.
//!
//! [`FaultInjector`] wraps any [`LanguageModel`] and injects the failure
//! modes a production model API exhibits — transient errors, timeouts,
//! rate limits, malformed payloads, latency spikes, wrong-variant
//! responses, and garbled SQL — from a schedule derived purely from
//! `(seed, call counter)`. Two runs with the same seed and call sequence
//! therefore inject byte-identical faults, which is what makes the fault
//! property tests reproducible.
//!
//! The counter (not the request content) drives the schedule: a retried
//! request advances to the next slot, so a transient fault clears on
//! retry exactly as it would against a real flaky backend.

use crate::model::{CompletionRequest, CompletionResponse, LanguageModel, ModelError};
use crate::prompt::TaskKind;
use crate::resilient::Clock;
use genedit_telemetry::hash::hash01;
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// The categories of fault the injector can produce. Used to address a
/// single category when building a config ([`FaultConfig::only`]) or
/// reading a log ([`FaultLog::count`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum FaultKind {
    /// `ModelError::Transient` transport error.
    Transient,
    /// `ModelError::Timeout`.
    Timeout,
    /// `ModelError::RateLimited`.
    RateLimited,
    /// `ModelError::Malformed` payload.
    Malformed,
    /// Response swapped to the wrong [`CompletionResponse`] variant.
    WrongVariant,
    /// SQL response garbled into unparseable text.
    GarbledSql,
    /// Latency spike (timing only, outcome unchanged).
    LatencySpike,
    /// A **panic** out of the model call — the poison-pill fault. Unlike
    /// every other category this does not return: it unwinds through the
    /// whole pipeline and is only survivable above a `catch_unwind`
    /// boundary (the serving runtime's per-request panic domain). It is
    /// therefore *not* part of [`FaultConfig::uniform`]; opt in via
    /// [`FaultConfig::panic_only`] or the `panic` field.
    Panic,
}

/// Per-category injection rates, each an independent probability in
/// `[0, 1]` evaluated per call. Error-side faults are checked in field
/// order and the first hit wins; response-side corruptions only apply to
/// calls that would otherwise succeed.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct FaultConfig {
    /// `ModelError::Transient` rate.
    pub transient: f64,
    /// `ModelError::Timeout` rate.
    pub timeout: f64,
    /// `ModelError::RateLimited` rate (`retry_after` = [`FaultConfig::retry_after`]).
    pub rate_limited: f64,
    /// `ModelError::Malformed` rate.
    pub malformed: f64,
    /// Rate of responses swapped to the wrong [`CompletionResponse`] variant.
    pub wrong_variant: f64,
    /// Rate of SQL responses garbled into unparseable text (SQL tasks only).
    pub garbled_sql: f64,
    /// Rate of latency spikes (the wrapped clock sleeps [`FaultConfig::spike`]).
    pub latency_spike: f64,
    /// Rate of injected **panics** ([`FaultKind::Panic`]): the call
    /// unwinds instead of returning. Checked before every other
    /// category — a poison pill preempts ordinary failure. Excluded from
    /// [`FaultConfig::uniform`]; callers must opt in because the panic
    /// only resolves above a `catch_unwind` boundary.
    pub panic: f64,
    /// Suggested wait attached to injected rate limits.
    pub retry_after: Duration,
    /// Duration of an injected latency spike.
    pub spike: Duration,
}

impl FaultConfig {
    /// A config exercising every *returning* category at the same rate.
    /// Used by the property tests.
    /// Panics are deliberately excluded: they unwind instead of
    /// returning, so they are only safe above a `catch_unwind` boundary
    /// (see [`FaultConfig::panic_only`]).
    pub fn uniform(rate: f64) -> FaultConfig {
        FaultConfig {
            transient: rate,
            timeout: rate,
            rate_limited: rate,
            malformed: rate,
            wrong_variant: rate,
            garbled_sql: rate,
            latency_spike: rate,
            panic: 0.0,
            retry_after: Duration::from_millis(250),
            spike: Duration::from_millis(500),
        }
    }

    /// A config injecting only poison-pill panics. The wrapped call
    /// unwinds at `rate`; callers must run under `catch_unwind` (the
    /// serving runtime does).
    pub fn panic_only(rate: f64) -> FaultConfig {
        FaultConfig {
            panic: rate,
            ..FaultConfig::default()
        }
    }

    /// A config injecting a single [`FaultKind`] at `rate`.
    pub fn only(kind: FaultKind, rate: f64) -> FaultConfig {
        let mut config = FaultConfig {
            retry_after: Duration::from_millis(250),
            spike: Duration::from_millis(500),
            ..FaultConfig::default()
        };
        *config.rate_mut(kind) = rate;
        config
    }

    /// The injection rate configured for `kind`.
    pub fn rate(&self, kind: FaultKind) -> f64 {
        match kind {
            FaultKind::Transient => self.transient,
            FaultKind::Timeout => self.timeout,
            FaultKind::RateLimited => self.rate_limited,
            FaultKind::Malformed => self.malformed,
            FaultKind::WrongVariant => self.wrong_variant,
            FaultKind::GarbledSql => self.garbled_sql,
            FaultKind::LatencySpike => self.latency_spike,
            FaultKind::Panic => self.panic,
        }
    }

    fn rate_mut(&mut self, kind: FaultKind) -> &mut f64 {
        match kind {
            FaultKind::Transient => &mut self.transient,
            FaultKind::Timeout => &mut self.timeout,
            FaultKind::RateLimited => &mut self.rate_limited,
            FaultKind::Malformed => &mut self.malformed,
            FaultKind::WrongVariant => &mut self.wrong_variant,
            FaultKind::GarbledSql => &mut self.garbled_sql,
            FaultKind::LatencySpike => &mut self.latency_spike,
            FaultKind::Panic => &mut self.panic,
        }
    }
}

/// Counts of injected faults, by category.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FaultLog {
    /// Calls that passed through the injector (faulted or not).
    pub calls: u64,
    /// Injected transient transport errors.
    pub transient: u64,
    /// Injected timeouts.
    pub timeout: u64,
    /// Injected rate-limit errors.
    pub rate_limited: u64,
    /// Injected unparseable payloads.
    pub malformed: u64,
    /// Responses corrupted to the wrong variant.
    pub wrong_variant: u64,
    /// SQL responses garbled in place.
    pub garbled_sql: u64,
    /// Injected latency spikes (timing only, outcome unchanged).
    pub latency_spikes: u64,
    /// Injected panics (the call unwound instead of returning).
    pub panics: u64,
}

impl FaultLog {
    /// Injected error-side faults (calls that returned `Err`).
    pub fn errors(&self) -> u64 {
        self.transient + self.timeout + self.rate_limited + self.malformed
    }

    /// Injected faults of one category.
    pub fn count(&self, kind: FaultKind) -> u64 {
        match kind {
            FaultKind::Transient => self.transient,
            FaultKind::Timeout => self.timeout,
            FaultKind::RateLimited => self.rate_limited,
            FaultKind::Malformed => self.malformed,
            FaultKind::WrongVariant => self.wrong_variant,
            FaultKind::GarbledSql => self.garbled_sql,
            FaultKind::LatencySpike => self.latency_spikes,
            FaultKind::Panic => self.panics,
        }
    }

    /// Injected response corruptions (calls that returned a wrong `Ok`).
    pub fn corruptions(&self) -> u64 {
        self.wrong_variant + self.garbled_sql
    }

    /// Every injected *returning* fault: errors plus corruptions.
    /// Latency spikes (timing only) and panics (the call never returns a
    /// value at all — see [`FaultLog::panics`]) are tracked separately.
    pub fn total(&self) -> u64 {
        self.errors() + self.corruptions()
    }
}

/// Wraps a model and injects faults on a deterministic per-seed schedule.
pub struct FaultInjector<M> {
    inner: M,
    config: FaultConfig,
    seed: u64,
    clock: Option<Arc<dyn Clock>>,
    counter: Mutex<u64>,
    log: Mutex<FaultLog>,
}

impl<M: LanguageModel> FaultInjector<M> {
    /// Wrap `inner` with a fault schedule derived purely from `seed`.
    pub fn new(inner: M, config: FaultConfig, seed: u64) -> FaultInjector<M> {
        FaultInjector {
            inner,
            config,
            seed,
            clock: None,
            counter: Mutex::new(0),
            log: Mutex::new(FaultLog::default()),
        }
    }

    /// Attach a clock so latency spikes actually sleep (simulated clocks
    /// make them free and measurable). Without one, spikes only count.
    pub fn with_clock(mut self, clock: Arc<dyn Clock>) -> FaultInjector<M> {
        self.clock = Some(clock);
        self
    }

    /// Snapshot of the injected-fault counters.
    pub fn log(&self) -> FaultLog {
        *self.lock_log()
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }

    fn lock_log(&self) -> MutexGuard<'_, FaultLog> {
        self.log
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Probability draw for slot `n`, category `category` — pure function
    /// of (seed, n, category), independent of request content.
    fn roll(&self, n: u64, category: &str) -> f64 {
        hash01(&["fault", category, &n.to_string()], self.seed)
    }
}

impl<M: LanguageModel> LanguageModel for FaultInjector<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let n = {
            let mut counter = self
                .counter
                .lock()
                .unwrap_or_else(|poisoned| poisoned.into_inner());
            *counter += 1;
            *counter
        };
        self.lock_log().calls += 1;

        // The poison pill preempts every other category: the counter is
        // logged *before* unwinding so schedules stay reproducible and
        // observable even though this call never returns.
        if self.roll(n, "panic") < self.config.panic {
            self.lock_log().panics += 1;
            panic!("injected poison-pill panic #{n}");
        }

        if self.roll(n, "spike") < self.config.latency_spike {
            self.lock_log().latency_spikes += 1;
            if let Some(clock) = &self.clock {
                clock.sleep(self.config.spike);
            }
        }

        if self.roll(n, "transient") < self.config.transient {
            self.lock_log().transient += 1;
            return Err(ModelError::Transient(format!("injected fault #{n}")));
        }
        if self.roll(n, "timeout") < self.config.timeout {
            self.lock_log().timeout += 1;
            return Err(ModelError::Timeout);
        }
        if self.roll(n, "rate-limited") < self.config.rate_limited {
            self.lock_log().rate_limited += 1;
            return Err(ModelError::RateLimited {
                retry_after: self.config.retry_after,
            });
        }
        if self.roll(n, "malformed") < self.config.malformed {
            self.lock_log().malformed += 1;
            return Err(ModelError::Malformed {
                raw: format!("{{\"truncated\": \"#{n}"),
            });
        }

        let response = self.inner.complete(request)?;

        if self.roll(n, "wrong-variant") < self.config.wrong_variant {
            self.lock_log().wrong_variant += 1;
            // Swap to a variant no task accepts in this position: tasks
            // expecting text get an item list and vice versa.
            return Ok(match response {
                CompletionResponse::Text(_) => CompletionResponse::Items(vec![]),
                _ => CompletionResponse::Text(format!("wrong-variant #{n}")),
            });
        }
        if request.prompt.task == TaskKind::SqlGeneration
            && self.roll(n, "garbled") < self.config.garbled_sql
        {
            if let CompletionResponse::Sql(sql) = &response {
                self.lock_log().garbled_sql += 1;
                // "GARBLED<" never parses as SQL, so validation always
                // catches the corruption (a silent pass would hide it).
                let keep = sql.len() / 2;
                let mut cut = keep.max(1).min(sql.len());
                while cut > 0 && !sql.is_char_boundary(cut) {
                    cut -= 1;
                }
                return Ok(CompletionResponse::Sql(format!("GARBLED<{}", &sql[..cut])));
            }
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Prompt;
    use crate::resilient::SimulatedClock;

    struct Fixed;
    impl LanguageModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
            Ok(match request.prompt.task {
                TaskKind::SqlGeneration => CompletionResponse::Sql("SELECT 1".into()),
                _ => CompletionResponse::Text("text".into()),
            })
        }
    }

    fn sql_request() -> CompletionRequest {
        CompletionRequest::new(Prompt::new(TaskKind::SqlGeneration, "q"))
    }

    fn run_schedule(seed: u64, calls: usize) -> (Vec<String>, FaultLog) {
        let injector = FaultInjector::new(Fixed, FaultConfig::uniform(0.3), seed);
        let outcomes = (0..calls)
            .map(|_| match injector.complete(&sql_request()) {
                Ok(r) => format!("ok:{r:?}"),
                Err(e) => format!("err:{}", e.label()),
            })
            .collect();
        (outcomes, injector.log())
    }

    #[test]
    fn same_seed_gives_byte_identical_schedules() {
        let (a, log_a) = run_schedule(42, 200);
        let (b, log_b) = run_schedule(42, 200);
        assert_eq!(a, b);
        assert_eq!(log_a, log_b);
        assert!(log_a.total() > 0, "30% uniform rate must inject something");
    }

    #[test]
    fn different_seeds_give_different_schedules() {
        let (a, _) = run_schedule(1, 200);
        let (b, _) = run_schedule(2, 200);
        assert_ne!(a, b);
    }

    #[test]
    fn zero_rate_is_a_transparent_passthrough() {
        let injector = FaultInjector::new(Fixed, FaultConfig::default(), 7);
        for _ in 0..50 {
            assert_eq!(
                injector.complete(&sql_request()),
                Ok(CompletionResponse::Sql("SELECT 1".into()))
            );
        }
        let log = injector.log();
        assert_eq!(log.calls, 50);
        assert_eq!(log.total(), 0);
        assert_eq!(log.latency_spikes, 0);
    }

    #[test]
    fn retry_advances_the_schedule_past_a_transient() {
        // Rate 1.0 for transient only: every call fails — proving faults
        // key off the counter, a retried identical request still draws a
        // fresh slot (here: all slots fault, but the counter moved).
        let config = FaultConfig::only(FaultKind::Transient, 1.0);
        let injector = FaultInjector::new(Fixed, config, 7);
        assert!(injector.complete(&sql_request()).is_err());
        assert!(injector.complete(&sql_request()).is_err());
        assert_eq!(injector.log().transient, 2);
        assert_eq!(injector.log().calls, 2);
    }

    #[test]
    fn garbled_sql_is_unparseable_and_logged() {
        let config = FaultConfig {
            garbled_sql: 1.0,
            ..FaultConfig::default()
        };
        let injector = FaultInjector::new(Fixed, config, 7);
        let response = injector.complete(&sql_request()).expect("ok response");
        let sql = response.as_sql().expect("still the Sql variant");
        assert!(sql.starts_with("GARBLED<"), "{sql}");
        assert_eq!(injector.log().garbled_sql, 1);
        // Non-SQL tasks are never garbled.
        let text = injector
            .complete(&CompletionRequest::new(Prompt::new(
                TaskKind::Reformulate,
                "q",
            )))
            .expect("ok response");
        assert_eq!(text, CompletionResponse::Text("text".into()));
    }

    #[test]
    fn wrong_variant_swaps_the_response_type() {
        let config = FaultConfig {
            wrong_variant: 1.0,
            ..FaultConfig::default()
        };
        let injector = FaultInjector::new(Fixed, config, 7);
        let sql = injector.complete(&sql_request()).expect("ok");
        assert!(sql.as_sql().is_none(), "{sql:?}");
        let text = injector
            .complete(&CompletionRequest::new(Prompt::new(
                TaskKind::Reformulate,
                "q",
            )))
            .expect("ok");
        assert!(text.as_text().is_none(), "{text:?}");
        assert_eq!(injector.log().wrong_variant, 2);
    }

    #[test]
    fn panic_rate_unwinds_on_schedule_and_is_logged_first() {
        let injector = Arc::new(FaultInjector::new(Fixed, FaultConfig::panic_only(1.0), 7));
        for _ in 0..3 {
            let cloned = Arc::clone(&injector);
            let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || {
                cloned.complete(&sql_request())
            }));
            assert!(caught.is_err(), "panic rate 1.0 must unwind every call");
        }
        let log = injector.log();
        assert_eq!(log.panics, 3, "panics are counted before unwinding");
        assert_eq!(log.count(FaultKind::Panic), 3);
        assert_eq!(log.calls, 3);
        assert_eq!(log.total(), 0, "panics are not returning faults");
    }

    #[test]
    fn panic_schedule_is_seed_deterministic() {
        let outcomes = |seed: u64| -> Vec<bool> {
            let injector = FaultInjector::new(Fixed, FaultConfig::panic_only(0.3), seed);
            (0..100)
                .map(|_| {
                    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        let _ = injector.complete(&sql_request());
                    }))
                    .is_err()
                })
                .collect()
        };
        let a = outcomes(11);
        assert_eq!(a, outcomes(11), "same seed, same poison-pill slots");
        assert!(a.iter().any(|&p| p) && !a.iter().all(|&p| p));
    }

    #[test]
    fn uniform_config_never_panics() {
        assert_eq!(FaultConfig::uniform(0.9).panic, 0.0);
        assert_eq!(FaultConfig::uniform(0.9).rate(FaultKind::Panic), 0.0);
        let only = FaultConfig::only(FaultKind::Timeout, 0.7);
        assert_eq!(only.rate(FaultKind::Timeout), 0.7);
        assert_eq!(only.rate(FaultKind::Transient), 0.0);
    }

    #[test]
    fn latency_spikes_sleep_on_the_injected_clock() {
        let clock = Arc::new(SimulatedClock::new());
        let config = FaultConfig {
            latency_spike: 1.0,
            spike: Duration::from_millis(500),
            ..FaultConfig::default()
        };
        let injector =
            FaultInjector::new(Fixed, config, 7).with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
        injector.complete(&sql_request()).expect("ok");
        injector.complete(&sql_request()).expect("ok");
        assert_eq!(clock.total_slept(), Duration::from_secs(1));
        assert_eq!(injector.log().latency_spikes, 2);
    }
}
