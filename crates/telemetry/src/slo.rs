//! SLO definitions and Google-SRE-style multi-window burn-rate alerts.
//!
//! An SLO says "at least `objective` of requests succeed within the
//! latency threshold". The remaining `1 − objective` is the **error
//! budget**; the **burn rate** of a window is how many times faster than
//! budget-neutral the service is consuming it
//! (`bad_fraction / (1 − objective)` — burn 1.0 exhausts the budget
//! exactly at the SLO period's end). A [`BurnRateRule`] pairs a long
//! window (confidence: is this sustained?) with a short window
//! (reset speed: has it stopped?) and fires only when **both** exceed the
//! rule's factor — the multi-window multi-burn-rate recipe from the
//! Google SRE workbook, which is what keeps a brief latency blip from
//! paging anyone while a sustained burn still alerts in minutes.
//!
//! [`SloTracker`] feeds request outcomes into an [`IntervalRing`] and
//! runs a tiny alert state machine (`Ok ⇄ Firing`). All time comes from
//! an injected [`Clock`], so breach schedules replay deterministically
//! under a `SimulatedClock` — the module's tests depend on that.

use crate::clock::Clock;
use crate::window::{IntervalRing, WindowCounts};
use std::sync::{Arc, Mutex, MutexGuard};
use std::time::Duration;

/// One multi-window burn-rate alerting rule.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BurnRateRule {
    /// Long window: evidence the burn is sustained.
    pub long: Duration,
    /// Short window: evidence the burn is still happening.
    pub short: Duration,
    /// Fire when both windows burn at ≥ this multiple of budget-neutral.
    pub factor: f64,
}

/// An SLO over one request stream: a success objective and the latency
/// bound a request must meet to count as good.
#[derive(Debug, Clone, PartialEq)]
pub struct SloConfig {
    /// Human name, used in alerts and dumps (e.g. `"serve.request"`).
    pub name: String,
    /// Target good fraction in `(0, 1)`, e.g. `0.99`.
    pub objective: f64,
    /// A request slower than this is bad even if it succeeded.
    pub latency_threshold_ms: f64,
    /// Windows with fewer events than this never fire (cold-start and
    /// trickle-traffic guard).
    pub min_samples: u64,
    /// Burn-rate rules, checked independently; any may fire the alert.
    pub rules: Vec<BurnRateRule>,
}

impl SloConfig {
    /// A conventional two-rule page config scaled to short benchmarks:
    /// fast-burn (factor 14.4) over 60s/5s, slow-burn (factor 6) over
    /// 300s/30s.
    pub fn default_rules(name: &str, objective: f64, latency_threshold_ms: f64) -> SloConfig {
        SloConfig {
            name: name.to_string(),
            objective,
            latency_threshold_ms,
            min_samples: 10,
            rules: vec![
                BurnRateRule {
                    long: Duration::from_secs(60),
                    short: Duration::from_secs(5),
                    factor: 14.4,
                },
                BurnRateRule {
                    long: Duration::from_secs(300),
                    short: Duration::from_secs(30),
                    factor: 6.0,
                },
            ],
        }
    }

    /// Error budget: the tolerated bad fraction.
    pub fn error_budget(&self) -> f64 {
        (1.0 - self.objective).max(1e-9)
    }
}

/// Burn-rate evaluation of one rule at one instant.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RuleBurn {
    /// Burn rate over the rule's long window.
    pub long_burn: f64,
    /// Burn rate over the rule's short window.
    pub short_burn: f64,
    /// Whether this rule's condition held (both ≥ factor, enough
    /// samples).
    pub firing: bool,
}

/// Alert state machine states.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertState {
    /// Burn within budget (or insufficient evidence).
    Ok,
    /// At least one rule fired and no short window has cooled off yet.
    Firing,
}

/// A state-machine transition produced by [`SloTracker::evaluate`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AlertTransition {
    /// `Ok → Firing`: some rule's long *and* short windows both burn
    /// above its factor.
    Fired,
    /// `Firing → Ok`: every rule's short window dropped below its
    /// factor.
    Resolved,
}

/// Point-in-time SLO evaluation.
#[derive(Debug, Clone, PartialEq)]
pub struct SloReport {
    /// The SLO's name.
    pub name: String,
    /// Alert state after this evaluation.
    pub state: AlertState,
    /// Transition taken by this evaluation, if any.
    pub transition: Option<AlertTransition>,
    /// Per-rule burn rates, in config order.
    pub rules: Vec<RuleBurn>,
    /// Counts over the longest configured window.
    pub window: WindowCounts,
}

/// Tracks one SLO: ingests request outcomes, answers burn-rate queries,
/// and steps the alert state machine.
pub struct SloTracker {
    config: SloConfig,
    clock: Arc<dyn Clock>,
    ring: IntervalRing,
    state: Mutex<AlertState>,
}

impl SloTracker {
    /// Tracker whose interval ring is sized to cover the longest rule
    /// window at a resolution fine enough for the shortest.
    pub fn new(config: SloConfig, clock: Arc<dyn Clock>) -> SloTracker {
        let longest = config
            .rules
            .iter()
            .map(|r| r.long)
            .max()
            .unwrap_or(Duration::from_secs(60));
        let shortest = config
            .rules
            .iter()
            .map(|r| r.short)
            .min()
            .unwrap_or(Duration::from_secs(5));
        // ≥ 5 slots across the shortest window keeps its rollup within
        // 20% time-quantization of the nominal width.
        let slot = (shortest / 5).max(Duration::from_millis(10));
        let slots = (longest.as_nanos().div_ceil(slot.as_nanos().max(1)) as usize + 1).max(2);
        SloTracker {
            config,
            clock,
            ring: IntervalRing::new(slot, slots),
            state: Mutex::new(AlertState::Ok),
        }
    }

    /// The SLO definition this tracker enforces.
    pub fn config(&self) -> &SloConfig {
        &self.config
    }

    /// Ingest one finished request. Bad = errored, or slower than the
    /// latency threshold.
    pub fn record(&self, latency_ms: f64, error: bool) {
        let bad = error || latency_ms > self.config.latency_threshold_ms;
        self.ring.record(self.clock.now(), bad);
    }

    /// Whether the alert is currently firing.
    pub fn is_firing(&self) -> bool {
        *self.lock_state() == AlertState::Firing
    }

    fn lock_state(&self) -> MutexGuard<'_, AlertState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    fn burn(&self, counts: WindowCounts) -> f64 {
        if counts.total < self.config.min_samples {
            return 0.0;
        }
        counts.bad_fraction() / self.config.error_budget()
    }

    /// Evaluate every rule at the current clock time and step the alert
    /// state machine.
    pub fn evaluate(&self) -> SloReport {
        let now = self.clock.now();
        let mut rules = Vec::with_capacity(self.config.rules.len());
        let mut any_firing = false;
        let mut any_short_hot = false;
        let mut longest = Duration::ZERO;
        for rule in &self.config.rules {
            let long_burn = self.burn(self.ring.rollup(now, rule.long));
            let short_burn = self.burn(self.ring.rollup(now, rule.short));
            let firing = long_burn >= rule.factor && short_burn >= rule.factor;
            any_firing |= firing;
            any_short_hot |= short_burn >= rule.factor;
            longest = longest.max(rule.long);
            rules.push(RuleBurn {
                long_burn,
                short_burn,
                firing,
            });
        }
        let mut state = self.lock_state();
        let transition = match (*state, any_firing, any_short_hot) {
            (AlertState::Ok, true, _) => {
                *state = AlertState::Firing;
                Some(AlertTransition::Fired)
            }
            // Resolve only once every short window cools: the long
            // windows stay hot for a while after a burst, and that must
            // not re-page.
            (AlertState::Firing, false, false) => {
                *state = AlertState::Ok;
                Some(AlertTransition::Resolved)
            }
            _ => None,
        };
        SloReport {
            name: self.config.name.clone(),
            state: *state,
            transition,
            rules,
            window: self.ring.rollup(now, longest),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clock::SimulatedClock;

    fn tracker(clock: Arc<SimulatedClock>) -> SloTracker {
        // 99% objective (1% budget), 100ms latency bound, one rule:
        // factor 10 over 60s/5s windows.
        SloTracker::new(
            SloConfig {
                name: "test".into(),
                objective: 0.99,
                latency_threshold_ms: 100.0,
                min_samples: 10,
                rules: vec![BurnRateRule {
                    long: Duration::from_secs(60),
                    short: Duration::from_secs(5),
                    factor: 10.0,
                }],
            },
            clock,
        )
    }

    fn drive(t: &SloTracker, clock: &SimulatedClock, secs: u64, per_sec: u64, bad_fraction: f64) {
        for _ in 0..secs {
            for i in 0..per_sec {
                let bad = (i as f64) < bad_fraction * per_sec as f64;
                t.record(if bad { 500.0 } else { 10.0 }, false);
            }
            clock.advance(Duration::from_secs(1));
        }
    }

    #[test]
    fn healthy_traffic_never_fires() {
        let clock = Arc::new(SimulatedClock::new());
        let t = tracker(Arc::clone(&clock));
        drive(&t, &clock, 120, 20, 0.0);
        let report = t.evaluate();
        assert_eq!(report.state, AlertState::Ok);
        assert!(report.transition.is_none());
        assert!(report.rules[0].long_burn < 1.0);
    }

    #[test]
    fn sustained_burn_fires_then_resolves_after_recovery() {
        let clock = Arc::new(SimulatedClock::new());
        let t = tracker(Arc::clone(&clock));
        // Warm up healthy, then burn 50% bad (burn rate 50× budget).
        drive(&t, &clock, 60, 20, 0.0);
        drive(&t, &clock, 30, 20, 0.5);
        let report = t.evaluate();
        assert_eq!(report.state, AlertState::Firing);
        assert_eq!(report.transition, Some(AlertTransition::Fired));
        assert!(report.rules[0].firing);
        assert!(report.rules[0].short_burn >= 10.0);
        // Still firing while the burn continues — no duplicate event.
        drive(&t, &clock, 5, 20, 0.5);
        assert_eq!(t.evaluate().transition, None);
        assert!(t.is_firing());
        // Recovery: short window cools quickly even though the long
        // window still remembers the burst.
        drive(&t, &clock, 10, 20, 0.0);
        let report = t.evaluate();
        assert_eq!(report.transition, Some(AlertTransition::Resolved));
        assert_eq!(report.state, AlertState::Ok);
    }

    #[test]
    fn slow_requests_count_against_the_budget() {
        let clock = Arc::new(SimulatedClock::new());
        let t = tracker(Arc::clone(&clock));
        for _ in 0..100 {
            t.record(5_000.0, false); // no error, but way over 100ms
        }
        let report = t.evaluate();
        assert!((report.window.bad_fraction() - 1.0).abs() < 1e-12);
        assert_eq!(report.state, AlertState::Firing);
    }

    #[test]
    fn min_samples_suppresses_trickle_alerts() {
        let clock = Arc::new(SimulatedClock::new());
        let t = tracker(Arc::clone(&clock));
        // 5 total errors < min_samples 10: burn reads 0, no alert.
        for _ in 0..5 {
            t.record(10.0, true);
        }
        let report = t.evaluate();
        assert_eq!(report.state, AlertState::Ok);
        assert_eq!(report.rules[0].long_burn, 0.0);
    }

    #[test]
    fn schedule_is_deterministic_under_simulated_clock() {
        let run = || {
            let clock = Arc::new(SimulatedClock::new());
            let t = tracker(Arc::clone(&clock));
            let mut transitions = Vec::new();
            for step in 0..200u64 {
                let bad = (60..90).contains(&step);
                for i in 0..20 {
                    t.record(if bad && i < 10 { 900.0 } else { 5.0 }, false);
                }
                clock.advance(Duration::from_secs(1));
                if let Some(tr) = t.evaluate().transition {
                    transitions.push((step, tr));
                }
            }
            transitions
        };
        let a = run();
        let b = run();
        assert_eq!(a, b);
        assert_eq!(a.len(), 2, "exactly one fire + one resolve: {a:?}");
        assert_eq!(a[0].1, AlertTransition::Fired);
        assert_eq!(a[1].1, AlertTransition::Resolved);
        assert!(a[0].0 >= 60 && a[0].0 < 90);
        assert!(a[1].0 >= 90);
    }

    #[test]
    fn default_rules_shape() {
        let config = SloConfig::default_rules("serve.request", 0.99, 250.0);
        assert_eq!(config.rules.len(), 2);
        assert!((config.error_budget() - 0.01).abs() < 1e-12);
        assert!(config.rules[0].factor > config.rules[1].factor);
    }
}
