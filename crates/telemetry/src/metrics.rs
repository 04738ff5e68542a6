//! Named counters, gauges, and histograms, shareable via `Arc` across
//! harness runs and serving workers.
//!
//! Histograms are bounded log-linear ([`crate::hist`]) — fixed memory,
//! lock-free `observe`, percentiles within ≤ 1% relative error of exact
//! nearest-rank. The registry's name→metric maps sit behind `RwLock`s:
//! a recording call takes a shared read lock to find its metric's `Arc`,
//! then updates atomics; only the *first* observation of a new name takes
//! the write lock.
//!
//! Non-finite observations (NaN, ±inf) are rejected — one NaN would
//! otherwise poison every percentile — and counted under
//! `telemetry.rejected_samples`. Gauges carry set/last-value semantics
//! (e.g. `serve.queue_depth`). Lock poisoning is absorbed, never
//! propagated.

use crate::hist::LogLinearHistogram;
use crate::span::Trace;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Counter name under which rejected (non-finite) observations are
/// counted.
pub const REJECTED_SAMPLES: &str = "telemetry.rejected_samples";

type Map<T> = RwLock<BTreeMap<String, Arc<T>>>;

fn read<T>(map: &Map<T>) -> RwLockReadGuard<'_, BTreeMap<String, Arc<T>>> {
    map.read().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn write<T>(map: &Map<T>) -> RwLockWriteGuard<'_, BTreeMap<String, Arc<T>>> {
    map.write().unwrap_or_else(|poisoned| poisoned.into_inner())
}

fn entry<T: Default>(map: &Map<T>, name: &str) -> Arc<T> {
    if let Some(existing) = read(map).get(name) {
        return Arc::clone(existing);
    }
    let mut guard = write(map);
    Arc::clone(guard.entry(name.to_string()).or_default())
}

/// Registry of named counters, gauges, and histograms. All methods take
/// `&self`; wrap in `Arc` to share across components or threads.
pub struct MetricsRegistry {
    counters: Map<AtomicU64>,
    gauges: Map<AtomicU64>,
    histograms: Map<LogLinearHistogram>,
}

impl Default for MetricsRegistry {
    fn default() -> Self {
        MetricsRegistry::new()
    }
}

impl MetricsRegistry {
    /// A fresh, recording registry.
    pub fn new() -> MetricsRegistry {
        MetricsRegistry {
            counters: RwLock::new(BTreeMap::new()),
            gauges: RwLock::new(BTreeMap::new()),
            histograms: RwLock::new(BTreeMap::new()),
        }
    }

    /// Add `by` to the named counter (creating it at zero).
    pub fn incr(&self, name: &str, by: u64) {
        self.counter_handle(name).fetch_add(by, Ordering::Relaxed);
    }

    /// The atomic behind a named counter (created at zero on first use).
    fn counter_handle(&self, name: &str) -> Arc<AtomicU64> {
        entry(&self.counters, name)
    }

    /// Record one observation into the named histogram. Non-finite
    /// values are dropped and counted under [`REJECTED_SAMPLES`].
    pub fn observe(&self, name: &str, value: f64) {
        if !value.is_finite() {
            self.incr(REJECTED_SAMPLES, 1);
            return;
        }
        self.histogram(name).observe(value);
    }

    /// Record a duration observation, in milliseconds.
    pub fn observe_duration(&self, name: &str, duration: Duration) {
        self.observe(name, duration.as_secs_f64() * 1e3);
    }

    /// The named histogram (created empty on first use).
    fn histogram(&self, name: &str) -> Arc<LogLinearHistogram> {
        entry(&self.histograms, name)
    }

    /// Set the named gauge to `value` (last-write-wins semantics).
    /// Non-finite values are rejected like histogram observations.
    pub fn set_gauge(&self, name: &str, value: f64) {
        if !value.is_finite() {
            self.incr(REJECTED_SAMPLES, 1);
            return;
        }
        entry(&self.gauges, name).store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value of a gauge, if it was ever set.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        read(&self.gauges)
            .get(name)
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
    }

    /// Current value of a counter (0 when never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        read(&self.counters)
            .get(name)
            .map(|c| c.load(Ordering::Relaxed))
            .unwrap_or(0)
    }

    /// Fold a finished trace in: every span becomes one `span.<name>.ms`
    /// latency observation, so that histogram's count is the span's call
    /// count; warnings increment `trace.warnings`.
    pub fn record_trace(&self, trace: &Trace) {
        for span in trace.all_spans() {
            self.observe_duration(&format!("span.{}.ms", span.name), span.duration);
        }
        if !trace.warnings.is_empty() {
            self.incr("trace.warnings", trace.warnings.len() as u64);
        }
    }

    /// Point-in-time summary of everything recorded so far.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = read(&self.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect();
        let gauges = read(&self.gauges)
            .iter()
            .map(|(name, g)| (name.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
            .collect();
        let histograms = read(&self.histograms)
            .iter()
            .map(|(name, hist)| (name.clone(), hist.snapshot().summary()))
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }

    /// Current counter values, name-sorted.
    pub fn counter_values(&self) -> BTreeMap<String, u64> {
        read(&self.counters)
            .iter()
            .map(|(name, c)| (name.clone(), c.load(Ordering::Relaxed)))
            .collect()
    }

    /// Current gauge values, name-sorted.
    pub fn gauge_values(&self) -> BTreeMap<String, f64> {
        read(&self.gauges)
            .iter()
            .map(|(name, g)| (name.clone(), f64::from_bits(g.load(Ordering::Relaxed))))
            .collect()
    }
}

/// Serializable snapshot of a [`MetricsRegistry`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Counter values by name.
    pub counters: BTreeMap<String, u64>,
    /// Gauge values by name (last value set).
    pub gauges: BTreeMap<String, f64>,
    /// Histogram summaries by name.
    pub histograms: BTreeMap<String, HistogramSummary>,
}

/// Summary statistics of one histogram. `count`/`sum`/`mean`/`min`/`max`
/// are exact; percentiles come from the log-linear bucket layout and are
/// within ≤ 1% relative error of the exact nearest-rank value.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSummary {
    /// Number of observations.
    pub count: usize,
    /// Exact sum of observations.
    pub sum: f64,
    /// Exact mean (0 when empty).
    pub mean: f64,
    /// Exact minimum (0 when empty).
    pub min: f64,
    /// Exact maximum (0 when empty).
    pub max: f64,
    /// Median (nearest-rank).
    pub p50: f64,
    /// 95th percentile (nearest-rank).
    pub p95: f64,
    /// 99th percentile (nearest-rank).
    pub p99: f64,
}

impl HistogramSummary {
    /// Summarize raw samples with **exact** nearest-rank percentiles.
    /// Empty input yields the all-zero summary. This is the reference
    /// implementation the log-linear histograms approximate.
    pub fn from_samples(samples: &[f64]) -> HistogramSummary {
        if samples.is_empty() {
            return HistogramSummary {
                count: 0,
                sum: 0.0,
                mean: 0.0,
                min: 0.0,
                max: 0.0,
                p50: 0.0,
                p95: 0.0,
                p99: 0.0,
            };
        }
        let mut sorted = samples.to_vec();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        let sum: f64 = sorted.iter().sum();
        HistogramSummary {
            count: sorted.len(),
            sum,
            mean: sum / sorted.len() as f64,
            min: sorted[0],
            max: sorted[sorted.len() - 1],
            p50: nearest_rank(&sorted, 50.0),
            p95: nearest_rank(&sorted, 95.0),
            p99: nearest_rank(&sorted, 99.0),
        }
    }
}

/// Exact nearest-rank percentile over pre-sorted samples — the oracle
/// the bounded histograms are compared against.
pub fn nearest_rank(sorted: &[f64], p: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hist::MAX_RELATIVE_ERROR;

    #[test]
    fn counters_accumulate() {
        let m = MetricsRegistry::new();
        m.incr("a", 1);
        m.incr("a", 2);
        assert_eq!(m.counter("a"), 3);
        assert_eq!(m.counter("missing"), 0);
    }

    #[test]
    fn percentiles_track_nearest_rank_within_error_bound() {
        let m = MetricsRegistry::new();
        for v in 1..=100 {
            m.observe("h", v as f64);
        }
        let snap = m.snapshot();
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 100);
        for (p, exact) in [(h.p50, 50.0), (h.p95, 95.0), (h.p99, 99.0)] {
            let rel = (p - exact).abs() / exact;
            assert!(rel <= MAX_RELATIVE_ERROR, "{p} vs {exact}: rel {rel}");
        }
        assert_eq!(h.min, 1.0);
        assert_eq!(h.max, 100.0);
        assert!((h.mean - 50.5).abs() < 1e-9);
        assert!((h.sum - 5050.0).abs() < 1e-9);
    }

    #[test]
    fn exact_summary_and_percentile_edge_cases() {
        let s = HistogramSummary::from_samples(&[7.0]);
        assert_eq!((s.p50, s.p99), (7.0, 7.0));
        assert_eq!(nearest_rank(&[1.0, 2.0], 50.0), 1.0);
        assert_eq!(nearest_rank(&[1.0, 2.0], 99.0), 2.0);
        let empty = HistogramSummary::from_samples(&[]);
        assert_eq!(empty.count, 0);
        assert_eq!(empty.p99, 0.0);
    }

    #[test]
    fn non_finite_observations_are_rejected_and_counted() {
        let m = MetricsRegistry::new();
        m.observe("h", 1.0);
        m.observe("h", f64::NAN);
        m.observe("h", f64::INFINITY);
        m.observe("h", f64::NEG_INFINITY);
        m.set_gauge("g", f64::NAN);
        let snap = m.snapshot();
        // The single finite sample is unpolluted.
        let h = &snap.histograms["h"];
        assert_eq!(h.count, 1);
        assert_eq!(h.p50, 1.0);
        assert!(h.sum.is_finite() && h.mean.is_finite());
        assert_eq!(m.counter(REJECTED_SAMPLES), 4);
        assert_eq!(m.gauge("g"), None);
    }

    #[test]
    fn gauges_have_last_value_semantics() {
        let m = MetricsRegistry::new();
        assert_eq!(m.gauge("depth"), None);
        m.set_gauge("depth", 3.0);
        m.set_gauge("depth", 7.0);
        assert_eq!(m.gauge("depth"), Some(7.0));
        let snap = m.snapshot();
        assert_eq!(snap.gauges["depth"], 7.0);
    }

    #[test]
    fn record_trace_counts_spans_and_warnings() {
        let tracer = crate::Tracer::new("t");
        {
            let _a = tracer.span("op");
            tracer.span("op").finish();
            tracer.warning("w");
        }
        let trace = tracer.finish();
        let m = MetricsRegistry::new();
        m.record_trace(&trace);
        assert_eq!(m.counter("trace.warnings"), 1);
        let snap = m.snapshot();
        assert_eq!(snap.histograms["span.op.ms"].count, 2);
        // The histogram's count is the call count: no counter repeats it.
        assert!(
            !snap.counters.keys().any(|name| name.starts_with("span.")),
            "{:?}",
            snap.counters
        );
    }

    #[test]
    fn poisoned_lock_is_absorbed() {
        use std::sync::Arc;
        let m = Arc::new(MetricsRegistry::new());
        m.incr("a", 1);
        let m2 = Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.counters.write().unwrap();
            panic!("poison the registry lock");
        })
        .join();
        m.incr("a", 1);
        assert_eq!(m.counter("a"), 2);
    }

    #[test]
    fn shared_via_arc_across_threads() {
        use std::sync::Arc;
        let m = Arc::new(MetricsRegistry::new());
        let handles: Vec<_> = (0..4)
            .map(|_| {
                let m = Arc::clone(&m);
                std::thread::spawn(move || {
                    for _ in 0..100 {
                        m.incr("n", 1);
                        m.observe("h", 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.counter("n"), 400);
        assert_eq!(m.snapshot().histograms["h"].count, 400);
    }

    #[test]
    fn cached_handles_observe_without_lookup() {
        let m = MetricsRegistry::new();
        let h = m.histogram("hot");
        let c = m.counter_handle("hits");
        for i in 0..1000 {
            h.observe(i as f64 + 0.5);
            c.fetch_add(1, Ordering::Relaxed);
        }
        assert_eq!(m.counter("hits"), 1000);
        assert_eq!(m.snapshot().histograms["hot"].count, 1000);
    }
}
