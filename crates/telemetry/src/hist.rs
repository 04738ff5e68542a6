//! Bounded log-linear (HDR-style) histograms over atomic counters.
//!
//! The old registry kept every observation in a `Vec<f64>` behind one
//! mutex: unbounded memory and a serialization point on the serve hot
//! path. A [`LogLinearHistogram`] replaces that with a **fixed** bucket
//! layout — 64 linear sub-buckets per power of two between 2⁻²⁰ and 2³¹,
//! plus one underflow and one overflow bucket — so memory is bounded by
//! construction and any percentile reads back within **≤ 1% relative
//! error** of the exact nearest-rank answer ([`MAX_RELATIVE_ERROR`] is
//! the tighter analytical bound).
//!
//! `observe` is lock-free: it indexes a bucket straight from the IEEE-754
//! bit pattern of the value (exponent ‖ top mantissa bits form a monotone
//! key) and bumps that bucket's `AtomicU64`, plus sum/min/max by CAS.
//! Snapshots read the buckets into a mergeable [`HistogramSnapshot`],
//! from which summaries and percentiles are derived.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{AtomicU64, Ordering};

/// Linear sub-buckets per power-of-two octave (2⁶ = 64).
const SUB_BITS: u32 = 6;
/// Bits dropped from the mantissa when forming a bucket key.
const KEY_SHIFT: u32 = 52 - SUB_BITS;
/// Smallest tracked value: 2⁻²⁰ (≈ 9.5e-7). Anything smaller — including
/// zero and negative values — lands in the underflow bucket.
const MIN_EXP: i64 = -20;
/// One past the largest tracked octave: values ≥ 2³¹ (≈ 2.1e9; 24 days
/// in milliseconds) land in the overflow bucket.
const LIM_EXP: i64 = 31;
/// Bucket key of the smallest tracked value.
const KEY_MIN: u64 = ((1023 + MIN_EXP) as u64) << SUB_BITS;
/// One past the largest tracked bucket key.
const KEY_LIM: u64 = ((1023 + LIM_EXP) as u64) << SUB_BITS;
/// Tracked log-linear buckets (excluding underflow/overflow).
const TRACKED: usize = (KEY_LIM - KEY_MIN) as usize;

/// Total buckets: underflow + tracked log-linear range + overflow.
pub const NUM_BUCKETS: usize = TRACKED + 2;

/// Smallest value that maps to a tracked (non-underflow) bucket.
pub const MIN_TRACKED: f64 = 1.0 / (1 << 20) as f64;
/// Smallest value that maps to the overflow bucket.
pub const MAX_TRACKED: f64 = (1u64 << 31) as f64;

/// Worst-case relative error of a bucket's representative value against
/// any sample inside the bucket: half the sub-bucket width, 1/(2·64).
pub const MAX_RELATIVE_ERROR: f64 = 1.0 / 128.0;

/// Bucket index for a finite value. Total order: underflow (0), then the
/// log-linear range in increasing value order, then overflow.
#[inline]
pub fn bucket_index(value: f64) -> usize {
    debug_assert!(value.is_finite());
    if value.is_nan() || value < MIN_TRACKED {
        // Negative, zero, and sub-2⁻²⁰ values: underflow bucket. NaN
        // lands here too as a release-mode backstop — the key
        // computation below would index out of bounds on NaN bits.
        0
    } else if value >= MAX_TRACKED {
        NUM_BUCKETS - 1
    } else {
        // For positive finite f64, (exponent ‖ mantissa) bits are
        // monotone in the value, so the top SUB_BITS mantissa bits
        // select a linear sub-bucket inside the value's octave.
        ((value.to_bits() >> KEY_SHIFT) - KEY_MIN) as usize + 1
    }
}

/// Half-open value range `[lower, upper)` covered by bucket `index`.
pub fn bucket_bounds(index: usize) -> (f64, f64) {
    if index == 0 {
        (0.0, MIN_TRACKED)
    } else if index >= NUM_BUCKETS - 1 {
        (MAX_TRACKED, f64::INFINITY)
    } else {
        let key = KEY_MIN + (index as u64 - 1);
        (
            f64::from_bits(key << KEY_SHIFT),
            f64::from_bits((key + 1) << KEY_SHIFT),
        )
    }
}

/// Representative value reported for samples in bucket `index`: the
/// bucket midpoint, which bounds relative error by [`MAX_RELATIVE_ERROR`]
/// for tracked buckets.
fn representative(index: usize) -> f64 {
    if index == 0 {
        MIN_TRACKED * 0.5
    } else if index >= NUM_BUCKETS - 1 {
        MAX_TRACKED
    } else {
        let (lower, upper) = bucket_bounds(index);
        0.5 * (lower + upper)
    }
}

/// A bounded, concurrent log-linear histogram. `observe` is lock-free;
/// memory is fixed at construction (~26 KiB of bucket counters) no
/// matter how many observations are recorded.
pub struct LogLinearHistogram {
    counts: Box<[AtomicU64]>,
    sum_bits: AtomicU64,
    min_bits: AtomicU64,
    max_bits: AtomicU64,
}

impl Default for LogLinearHistogram {
    fn default() -> Self {
        LogLinearHistogram::new()
    }
}

impl LogLinearHistogram {
    /// A fresh, empty histogram.
    pub fn new() -> LogLinearHistogram {
        LogLinearHistogram {
            counts: (0..NUM_BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            sum_bits: AtomicU64::new(0f64.to_bits()),
            min_bits: AtomicU64::new(f64::INFINITY.to_bits()),
            max_bits: AtomicU64::new(f64::NEG_INFINITY.to_bits()),
        }
    }

    /// Record one finite observation. Callers are expected to have
    /// rejected NaN/±inf already (the registry does); a non-finite value
    /// here is a debug assertion.
    #[inline]
    pub fn observe(&self, value: f64) {
        self.counts[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        // f64 accumulators via CAS on the bit pattern: lock-free, and the
        // retry loop only spins while another writer lands in between.
        let mut cur = self.sum_bits.load(Ordering::Relaxed);
        loop {
            let next = (f64::from_bits(cur) + value).to_bits();
            match self.sum_bits.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => break,
                Err(actual) => cur = actual,
            }
        }
        update_extreme(&self.min_bits, value, |new, old| new < old);
        update_extreme(&self.max_bits, value, |new, old| new > old);
    }

    /// A point-in-time, mergeable snapshot.
    pub fn snapshot(&self) -> HistogramSnapshot {
        let counts: Vec<(u32, u64)> = self
            .counts
            .iter()
            .map(|c| c.load(Ordering::Relaxed))
            .enumerate()
            .filter(|(_, c)| *c > 0)
            .map(|(i, c)| (i as u32, c))
            .collect();
        let count: u64 = counts.iter().map(|(_, c)| c).sum();
        if count == 0 {
            HistogramSnapshot::default()
        } else {
            HistogramSnapshot {
                counts,
                count,
                sum: f64::from_bits(self.sum_bits.load(Ordering::Relaxed)),
                min: f64::from_bits(self.min_bits.load(Ordering::Relaxed)),
                max: f64::from_bits(self.max_bits.load(Ordering::Relaxed)),
            }
        }
    }
}

fn update_extreme(slot: &AtomicU64, value: f64, better: impl Fn(f64, f64) -> bool) {
    let mut cur = slot.load(Ordering::Relaxed);
    while better(value, f64::from_bits(cur)) {
        match slot.compare_exchange_weak(cur, value.to_bits(), Ordering::Relaxed, Ordering::Relaxed)
        {
            Ok(_) => break,
            Err(actual) => cur = actual,
        }
    }
}

/// A point-in-time view of a [`LogLinearHistogram`]: sparse bucket
/// counts plus exact count/sum/min/max. Snapshots merge, so per-process
/// histograms roll up into fleet-wide percentiles.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HistogramSnapshot {
    /// Non-empty buckets as `(bucket index, count)`, index-ascending.
    pub counts: Vec<(u32, u64)>,
    /// Total observations.
    pub count: u64,
    /// Exact sum of all observations.
    pub sum: f64,
    /// Exact smallest observation (0 when empty).
    pub min: f64,
    /// Exact largest observation (0 when empty).
    pub max: f64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            counts: Vec::new(),
            count: 0,
            sum: 0.0,
            min: 0.0,
            max: 0.0,
        }
    }
}

impl HistogramSnapshot {
    /// Whether any observation was recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Merge another snapshot into this one (bucket-wise addition).
    pub fn merge(&mut self, other: &HistogramSnapshot) {
        if other.count == 0 {
            return;
        }
        let mut dense = vec![0u64; NUM_BUCKETS];
        for (i, c) in self.counts.iter().chain(other.counts.iter()) {
            dense[*i as usize] += c;
        }
        self.counts = dense
            .iter()
            .enumerate()
            .filter(|(_, c)| **c > 0)
            .map(|(i, c)| (i as u32, *c))
            .collect();
        if self.count == 0 {
            self.min = other.min;
            self.max = other.max;
        } else {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
        self.count += other.count;
        self.sum += other.sum;
    }

    /// Nearest-rank percentile (`p` in 0..=100) reconstructed from the
    /// bucket layout. Within [`MAX_RELATIVE_ERROR`] of the exact
    /// nearest-rank answer for samples in the tracked range; exact when
    /// all samples share one value (the result clamps to `[min, max]`).
    pub fn percentile(&self, p: f64) -> f64 {
        if self.count == 0 {
            return 0.0;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil() as u64;
        let rank = rank.clamp(1, self.count);
        let mut seen = 0u64;
        for (index, count) in &self.counts {
            seen += count;
            if seen >= rank {
                return representative(*index as usize).clamp(self.min, self.max);
            }
        }
        self.max
    }

    /// Mean of all observations (0 when empty).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Summarize to the registry's standard summary shape.
    pub fn summary(&self) -> crate::metrics::HistogramSummary {
        crate::metrics::HistogramSummary {
            count: self.count as usize,
            sum: self.sum,
            mean: self.mean(),
            min: self.min,
            max: self.max,
            p50: self.percentile(50.0),
            p95: self.percentile(95.0),
            p99: self.percentile(99.0),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn exact_percentile(sorted: &[f64], p: f64) -> f64 {
        let rank = ((p / 100.0) * sorted.len() as f64).ceil() as usize;
        sorted[rank.clamp(1, sorted.len()) - 1]
    }

    #[test]
    fn bucket_index_is_monotone_and_total() {
        let values = [
            -5.0,
            0.0,
            1e-9,
            MIN_TRACKED,
            0.001,
            0.5,
            1.0,
            1.5,
            2.0,
            100.0,
            1e6,
            2e9,
            1e12,
        ];
        let mut last = 0usize;
        for v in values {
            let i = bucket_index(v);
            assert!(i >= last, "index regressed at {v}");
            assert!(i < NUM_BUCKETS);
            last = i;
        }
        assert_eq!(bucket_index(-1.0), 0);
        assert_eq!(bucket_index(0.0), 0);
        assert_eq!(bucket_index(1e15), NUM_BUCKETS - 1);
    }

    #[test]
    fn bucket_bounds_contain_their_values() {
        for v in [0.0013, 0.9, 1.0, 7.32, 55.5, 1234.5, 9.9e8] {
            let i = bucket_index(v);
            let (lo, hi) = bucket_bounds(i);
            assert!(lo <= v && v < hi, "{v} outside [{lo}, {hi})");
            // Tracked buckets are narrow: width/lower ≤ 1/64.
            if i > 0 && i < NUM_BUCKETS - 1 {
                assert!((hi - lo) / lo <= 1.0 / 64.0 + 1e-12);
            }
        }
    }

    #[test]
    fn percentiles_within_relative_error_bound() {
        let hist = LogLinearHistogram::new();
        let samples: Vec<f64> = (1..=10_000).map(|i| i as f64 * 0.37).collect();
        for v in &samples {
            hist.observe(*v);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 10_000);
        let mut sorted = samples.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for p in [1.0, 10.0, 50.0, 90.0, 95.0, 99.0, 99.9] {
            let exact = exact_percentile(&sorted, p);
            let approx = snap.percentile(p);
            let rel = (approx - exact).abs() / exact;
            assert!(
                rel <= MAX_RELATIVE_ERROR,
                "p{p}: exact {exact}, approx {approx}, rel {rel}"
            );
        }
        assert_eq!(snap.min, 0.37);
        assert!((snap.max - 3700.0).abs() < 1e-9);
        let exact_sum: f64 = samples.iter().sum();
        assert!((snap.sum - exact_sum).abs() / exact_sum < 1e-12);
    }

    #[test]
    fn single_and_identical_samples_are_exact() {
        let hist = LogLinearHistogram::new();
        hist.observe(7.32);
        let snap = hist.snapshot();
        assert_eq!(snap.percentile(50.0), 7.32);
        assert_eq!(snap.percentile(99.0), 7.32);
        for _ in 0..99 {
            hist.observe(7.32);
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 100);
        assert_eq!(snap.percentile(50.0), 7.32);
        assert_eq!(snap.summary().p99, 7.32);
    }

    #[test]
    fn empty_snapshot_is_all_zero() {
        let snap = LogLinearHistogram::new().snapshot();
        assert!(snap.is_empty());
        assert_eq!(snap.percentile(99.0), 0.0);
        let s = snap.summary();
        assert_eq!(
            (s.count, s.sum, s.min, s.max, s.p50),
            (0, 0.0, 0.0, 0.0, 0.0)
        );
    }

    #[test]
    fn merge_equals_union() {
        let a = LogLinearHistogram::new();
        let b = LogLinearHistogram::new();
        let all = LogLinearHistogram::new();
        for i in 1..=500 {
            let v = i as f64 * 1.7;
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
            all.observe(v);
        }
        let mut merged = a.snapshot();
        merged.merge(&b.snapshot());
        let union = all.snapshot();
        assert_eq!(merged.counts, union.counts);
        assert_eq!(merged.count, union.count);
        assert_eq!(merged.min, union.min);
        assert_eq!(merged.max, union.max);
        // Sums differ only by f64 addition order.
        assert!((merged.sum - union.sum).abs() / union.sum < 1e-12);
        // Merging an empty snapshot is a no-op.
        let before = merged.clone();
        merged.merge(&HistogramSnapshot::default());
        assert_eq!(merged, before);
        // Merging into an empty snapshot copies.
        let mut empty = HistogramSnapshot::default();
        empty.merge(&before);
        assert_eq!(empty, before);
    }

    #[test]
    fn concurrent_observes_lose_nothing() {
        use std::sync::Arc;
        let hist = Arc::new(LogLinearHistogram::new());
        let handles: Vec<_> = (0..8)
            .map(|t| {
                let hist = Arc::clone(&hist);
                std::thread::spawn(move || {
                    for i in 0..10_000u64 {
                        hist.observe((t * 10_000 + i) as f64 + 1.0);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        let snap = hist.snapshot();
        assert_eq!(snap.count, 80_000);
        assert_eq!(snap.min, 1.0);
        assert_eq!(snap.max, 80_000.0);
    }

    #[test]
    fn out_of_range_values_are_still_counted() {
        let hist = LogLinearHistogram::new();
        hist.observe(-3.0);
        hist.observe(0.0);
        hist.observe(1e15);
        let snap = hist.snapshot();
        assert_eq!(snap.count, 3);
        assert_eq!(snap.min, -3.0);
        assert_eq!(snap.max, 1e15);
        // Percentiles stay inside the observed range even for outliers.
        let p = snap.percentile(50.0);
        assert!((-3.0..=1e15).contains(&p));
    }
}
