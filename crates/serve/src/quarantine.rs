//! Per-tenant quarantine: a sliding-window failure breaker at the
//! admission gate.
//!
//! A poison-pill tenant — one whose requests reliably panic a worker or
//! fail validation — would otherwise burn the pool one respawn at a
//! time and waste DRR bandwidth its peers could use. The quarantine
//! tracks each tenant's recent outcomes in a sliding window; when the
//! failure ratio trips the threshold the tenant moves to **Open**
//! (every submit answers [`Rejected::Quarantined`](crate::Rejected)),
//! after a cooldown to **HalfOpen** (a bounded number of probe requests
//! are admitted), and back to **Closed** only once the probes succeed.
//! A failed probe re-opens the quarantine for a fresh cooldown.
//!
//! ```text
//!            ratio ≥ threshold                cooldown elapsed
//!  Closed ────────────────────────▶ Open ────────────────────▶ HalfOpen
//!    ▲                               ▲                            │
//!    │      all probes succeed       │      any probe fails       │
//!    └───────────────────────────────┼────────────────────────────┤
//!                                    └────────────────────────────┘
//! ```
//!
//! Time comes from an injectable [`Clock`] so the state machine is unit
//! testable on a [`SimulatedClock`](genedit_telemetry::SimulatedClock)
//! with zero wall-clock sleeps; the serving runtime wires a
//! [`SystemClock`](genedit_telemetry::SystemClock).

use crate::lock;
use genedit_telemetry::{Clock, MetricsRegistry};
use std::collections::{HashMap, VecDeque};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Quarantine policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct QuarantineConfig {
    /// Master switch. The default configuration is disabled so existing
    /// deployments opt in explicitly.
    pub enabled: bool,
    /// Sliding window over which per-tenant outcomes are scored.
    pub window: Duration,
    /// Minimum outcomes inside the window before the breaker may trip —
    /// one unlucky request out of one must not quarantine a tenant.
    pub min_samples: u32,
    /// Trip when `failures / samples` inside the window reaches this
    /// ratio (panics and validation failures both count as failures).
    pub failure_ratio: f64,
    /// How long a tripped tenant stays fully rejected before half-open
    /// probing begins.
    pub cooldown: Duration,
    /// Probes admitted in half-open state. The tenant recovers only
    /// after this many consecutive probe successes.
    pub probe_quota: u32,
}

impl QuarantineConfig {
    /// Quarantine off: every tenant is always admitted.
    pub fn disabled() -> QuarantineConfig {
        QuarantineConfig {
            enabled: false,
            ..QuarantineConfig::default_policy()
        }
    }

    /// A production-shaped default: trip on ≥50% failures over a 10 s
    /// window with at least 5 samples, cool down 30 s, recover after 2
    /// clean probes.
    pub fn default_policy() -> QuarantineConfig {
        QuarantineConfig {
            enabled: true,
            window: Duration::from_secs(10),
            min_samples: 5,
            failure_ratio: 0.5,
            cooldown: Duration::from_secs(30),
            probe_quota: 2,
        }
    }
}

impl Default for QuarantineConfig {
    fn default() -> QuarantineConfig {
        QuarantineConfig::disabled()
    }
}

/// Admission decision for one tenant at one instant.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Gate {
    /// Tenant is healthy (or quarantine is disabled): admit normally.
    Admit,
    /// Tenant is half-open and this request was admitted as a probe —
    /// its outcome decides recovery. The runtime tags the queue entry so
    /// the completion path reports it back as a probe.
    AdmitProbe,
    /// Tenant is quarantined (open, or half-open with its probe quota
    /// already in flight): reject with `Rejected::Quarantined`.
    Reject,
}

/// Public snapshot of a tenant's breaker state, for tests and
/// observability.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuarantineState {
    /// Healthy; outcomes are being scored.
    Closed,
    /// Tripped; everything rejected until the cooldown elapses.
    Open,
    /// Cooldown over; probes in flight decide recovery.
    HalfOpen,
}

enum TenantState {
    Closed {
        /// (timestamp, failed) outcomes, oldest first, pruned to the
        /// configured window on every touch.
        window: VecDeque<(Duration, bool)>,
    },
    Open {
        until: Duration,
    },
    HalfOpen {
        inflight: u32,
        successes: u32,
    },
}

/// The per-tenant quarantine registry. One instance lives in the serving
/// runtime's shared state; every admission and every completion routes
/// through it.
pub struct TenantQuarantine {
    config: QuarantineConfig,
    clock: Arc<dyn Clock>,
    tenants: Mutex<HashMap<String, TenantState>>,
    metrics: Arc<MetricsRegistry>,
}

impl TenantQuarantine {
    /// A registry over `clock` with the given policy.
    pub fn new(config: QuarantineConfig, clock: Arc<dyn Clock>) -> TenantQuarantine {
        TenantQuarantine {
            config,
            clock,
            tenants: Mutex::new(HashMap::new()),
            metrics: Arc::new(MetricsRegistry::disabled()),
        }
    }

    /// Route `serve.quarantine.*` counters into `metrics`.
    pub fn with_metrics(mut self, metrics: Arc<MetricsRegistry>) -> TenantQuarantine {
        self.metrics = metrics;
        self
    }

    /// Whether quarantine is enforced at all.
    pub fn enabled(&self) -> bool {
        self.config.enabled
    }

    /// Admission check for `tenant`, advancing Open → HalfOpen when the
    /// cooldown has elapsed.
    pub fn check(&self, tenant: &str) -> Gate {
        if !self.config.enabled {
            return Gate::Admit;
        }
        let now = self.clock.now();
        let mut tenants = lock(&self.tenants);
        let Some(state) = tenants.get_mut(tenant) else {
            return Gate::Admit;
        };
        match state {
            TenantState::Closed { .. } => Gate::Admit,
            TenantState::Open { until } => {
                if now < *until {
                    self.metrics.incr("serve.quarantine.rejected", 1);
                    return Gate::Reject;
                }
                *state = TenantState::HalfOpen {
                    inflight: 1,
                    successes: 0,
                };
                self.metrics.incr("serve.quarantine.probes", 1);
                Gate::AdmitProbe
            }
            TenantState::HalfOpen {
                inflight,
                successes,
            } => {
                if *inflight + *successes >= self.config.probe_quota {
                    self.metrics.incr("serve.quarantine.rejected", 1);
                    return Gate::Reject;
                }
                *inflight += 1;
                self.metrics.incr("serve.quarantine.probes", 1);
                Gate::AdmitProbe
            }
        }
    }

    /// Record a validated completion.
    pub fn on_success(&self, tenant: &str, probe: bool) {
        self.record(tenant, probe, false);
    }

    /// Record a failure: a worker panic or an unvalidated generation.
    pub fn on_failure(&self, tenant: &str, probe: bool) {
        self.record(tenant, probe, true);
    }

    /// Record a neutral resolution (cancelled / expired / shed / drain):
    /// neither evidence of health nor of poison. A probe abandoned this
    /// way returns its slot to the half-open quota.
    pub fn on_abandoned(&self, tenant: &str, probe: bool) {
        if !self.config.enabled || !probe {
            return;
        }
        let mut tenants = lock(&self.tenants);
        if let Some(TenantState::HalfOpen { inflight, .. }) = tenants.get_mut(tenant) {
            *inflight = inflight.saturating_sub(1);
        }
    }

    fn record(&self, tenant: &str, probe: bool, failed: bool) {
        if !self.config.enabled {
            return;
        }
        let now = self.clock.now();
        let mut tenants = lock(&self.tenants);
        let state = tenants
            .entry(tenant.to_string())
            .or_insert_with(|| TenantState::Closed {
                window: VecDeque::new(),
            });
        match state {
            TenantState::Closed { window } => {
                window.push_back((now, failed));
                let horizon = now.saturating_sub(self.config.window);
                while window.front().is_some_and(|(t, _)| *t < horizon) {
                    window.pop_front();
                }
                let samples = window.len() as u32;
                let failures = window.iter().filter(|(_, f)| *f).count();
                if samples >= self.config.min_samples.max(1)
                    && failures as f64 / samples as f64 >= self.config.failure_ratio
                {
                    *state = TenantState::Open {
                        until: now + self.config.cooldown,
                    };
                    self.metrics.incr("serve.quarantine.tripped", 1);
                }
            }
            TenantState::HalfOpen {
                inflight,
                successes,
            } => {
                if !probe {
                    // A straggler admitted before the trip: its outcome
                    // is stale evidence either way.
                    return;
                }
                *inflight = inflight.saturating_sub(1);
                if failed {
                    *state = TenantState::Open {
                        until: now + self.config.cooldown,
                    };
                    self.metrics.incr("serve.quarantine.retripped", 1);
                } else {
                    *successes += 1;
                    if *successes >= self.config.probe_quota.max(1) {
                        *state = TenantState::Closed {
                            window: VecDeque::new(),
                        };
                        self.metrics.incr("serve.quarantine.recovered", 1);
                    }
                }
            }
            // In-flight stragglers finishing while fully open: stale.
            TenantState::Open { .. } => {}
        }
    }

    /// The tenant's current breaker state (Closed for unknown tenants).
    /// Pure read: does **not** advance Open → HalfOpen.
    pub fn state(&self, tenant: &str) -> QuarantineState {
        match lock(&self.tenants).get(tenant) {
            None | Some(TenantState::Closed { .. }) => QuarantineState::Closed,
            Some(TenantState::Open { .. }) => QuarantineState::Open,
            Some(TenantState::HalfOpen { .. }) => QuarantineState::HalfOpen,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_telemetry::SimulatedClock;

    fn quarantine(clock: &Arc<SimulatedClock>) -> TenantQuarantine {
        TenantQuarantine::new(
            QuarantineConfig {
                enabled: true,
                window: Duration::from_secs(10),
                min_samples: 4,
                failure_ratio: 0.5,
                cooldown: Duration::from_secs(30),
                probe_quota: 2,
            },
            Arc::clone(clock) as Arc<dyn Clock>,
        )
    }

    #[test]
    fn disabled_config_admits_everything() {
        let clock = Arc::new(SimulatedClock::new());
        let q = TenantQuarantine::new(
            QuarantineConfig::disabled(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        );
        for _ in 0..20 {
            q.on_failure("acme", false);
            assert_eq!(q.check("acme"), Gate::Admit);
        }
        assert_eq!(q.state("acme"), QuarantineState::Closed);
    }

    #[test]
    fn trips_only_past_min_samples_and_ratio() {
        let clock = Arc::new(SimulatedClock::new());
        let q = quarantine(&clock);
        // 3 failures: below min_samples, still closed.
        for _ in 0..3 {
            q.on_failure("acme", false);
        }
        assert_eq!(q.check("acme"), Gate::Admit);
        // 4th outcome is a success: ratio 3/4 ≥ 0.5 — trips.
        q.on_success("acme", false);
        assert_eq!(q.state("acme"), QuarantineState::Open);
        assert_eq!(q.check("acme"), Gate::Reject);
        // A healthy tenant is unaffected.
        assert_eq!(q.check("globex"), Gate::Admit);
    }

    #[test]
    fn successes_dilute_the_window() {
        let clock = Arc::new(SimulatedClock::new());
        let q = quarantine(&clock);
        q.on_failure("acme", false);
        for _ in 0..7 {
            q.on_success("acme", false);
        }
        // The ratio never reaches 0.5 at any prefix of ≥ min_samples
        // outcomes (1/4, 1/5, … 1/8): closed throughout.
        assert_eq!(q.state("acme"), QuarantineState::Closed);
        assert_eq!(q.check("acme"), Gate::Admit);
    }

    #[test]
    fn old_outcomes_age_out_of_the_window() {
        let clock = Arc::new(SimulatedClock::new());
        let q = quarantine(&clock);
        for _ in 0..3 {
            q.on_failure("acme", false);
        }
        // Wait past the window: those failures no longer count.
        clock.advance(Duration::from_secs(11));
        q.on_failure("acme", false);
        // Window holds 1 failure out of 1 sample — below min_samples.
        assert_eq!(q.state("acme"), QuarantineState::Closed);
    }

    #[test]
    fn half_open_probe_success_recovers() {
        let clock = Arc::new(SimulatedClock::new());
        let q = quarantine(&clock);
        for _ in 0..4 {
            q.on_failure("acme", false);
        }
        assert_eq!(q.state("acme"), QuarantineState::Open);
        // Mid-cooldown: still rejected.
        clock.advance(Duration::from_secs(29));
        assert_eq!(q.check("acme"), Gate::Reject);
        // Cooldown over: exactly probe_quota probes pass the gate.
        clock.advance(Duration::from_secs(2));
        assert_eq!(q.check("acme"), Gate::AdmitProbe);
        assert_eq!(q.state("acme"), QuarantineState::HalfOpen);
        assert_eq!(q.check("acme"), Gate::AdmitProbe);
        assert_eq!(q.check("acme"), Gate::Reject, "probe quota exhausted");
        // Both probes succeed: closed, and fresh failures start a new
        // window from zero.
        q.on_success("acme", true);
        q.on_success("acme", true);
        assert_eq!(q.state("acme"), QuarantineState::Closed);
        assert_eq!(q.check("acme"), Gate::Admit);
    }

    #[test]
    fn half_open_probe_failure_reopens() {
        let clock = Arc::new(SimulatedClock::new());
        let q = quarantine(&clock);
        for _ in 0..4 {
            q.on_failure("acme", false);
        }
        clock.advance(Duration::from_secs(31));
        assert_eq!(q.check("acme"), Gate::AdmitProbe);
        q.on_failure("acme", true);
        assert_eq!(q.state("acme"), QuarantineState::Open);
        assert_eq!(q.check("acme"), Gate::Reject);
        // The re-trip starts a fresh full cooldown.
        clock.advance(Duration::from_secs(29));
        assert_eq!(q.check("acme"), Gate::Reject);
        clock.advance(Duration::from_secs(2));
        assert_eq!(q.check("acme"), Gate::AdmitProbe);
    }

    #[test]
    fn abandoned_probe_returns_its_slot() {
        let clock = Arc::new(SimulatedClock::new());
        let q = quarantine(&clock);
        for _ in 0..4 {
            q.on_failure("acme", false);
        }
        clock.advance(Duration::from_secs(31));
        assert_eq!(q.check("acme"), Gate::AdmitProbe);
        assert_eq!(q.check("acme"), Gate::AdmitProbe);
        assert_eq!(q.check("acme"), Gate::Reject);
        // One probe is cancelled: its slot frees up for a new probe.
        q.on_abandoned("acme", true);
        assert_eq!(q.check("acme"), Gate::AdmitProbe);
    }

    #[test]
    fn stale_non_probe_outcomes_are_ignored_while_open_or_half_open() {
        let clock = Arc::new(SimulatedClock::new());
        let q = quarantine(&clock);
        for _ in 0..4 {
            q.on_failure("acme", false);
        }
        // In-flight pre-trip request completing during Open: no effect.
        q.on_success("acme", false);
        assert_eq!(q.state("acme"), QuarantineState::Open);
        clock.advance(Duration::from_secs(31));
        assert_eq!(q.check("acme"), Gate::AdmitProbe);
        // Another straggler during HalfOpen: also no effect on probes.
        q.on_failure("acme", false);
        assert_eq!(q.state("acme"), QuarantineState::HalfOpen);
        q.on_success("acme", true);
        q.on_success("acme", true);
        assert_eq!(q.state("acme"), QuarantineState::Closed);
    }
}
