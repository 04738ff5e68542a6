//! Order statistics, the seeded samplers behind the operation streams,
//! and the FNV-1a digests printed for determinism checks.
//!
//! Everything here is a pure function of its arguments: the operation
//! stream for a seed must be bit-identical across runs, platforms and
//! later PRs, so the benchmark carries its own tiny generator instead
//! of depending on whichever `rand` the workspace vendors.

/// A percentile is only reported when at least this many samples lie
/// beyond it; with fewer, the tail value is one or two outliers.
pub const MIN_SAMPLES_BEYOND: usize = 10;

/// Nearest-rank percentile of an ascending-sorted slice (`p` in 0..=1).
/// Returns 0 for an empty slice.
pub fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let rank = (sorted.len() as f64 * p).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The highest percentile not above `wanted` that still leaves
/// [`MIN_SAMPLES_BEYOND`] samples beyond its nearest rank, or `None`
/// when even the median does not.
pub fn supported_percentile(samples: usize, wanted: f64) -> Option<f64> {
    if samples < 2 * MIN_SAMPLES_BEYOND {
        return None;
    }
    let highest = 1.0 - MIN_SAMPLES_BEYOND as f64 / samples as f64;
    Some(wanted.min(highest))
}

/// Tail percentile under the "ten samples beyond" rule: `wanted` when
/// the sample supports it, otherwise the highest supported percentile
/// (falling back to the median for tiny samples). The second element
/// is the percentile actually used.
pub fn tail_percentile(sorted: &[f64], wanted: f64) -> (f64, f64) {
    let p = supported_percentile(sorted.len(), wanted).unwrap_or(0.5);
    (percentile(sorted, p), p)
}

/// Sort a sample in place (all values are finite timings or counts).
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.total_cmp(b));
}

/// Median of an unsorted sample (nearest rank); 0 when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    sort(&mut v);
    percentile(&v, 0.5)
}

/// Arithmetic mean; 0 when empty.
pub fn mean(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        values.iter().sum::<f64>() / values.len() as f64
    }
}

/// First quartile, median and third quartile with the "exclusive"
/// method of Python's `statistics.quantiles(values, n=4)`, so spreads
/// computed here match the ones the acceptance driver computes.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64, f64)> {
    if values.len() < 2 {
        return None;
    }
    let mut v = values.to_vec();
    sort(&mut v);
    let n = v.len();
    let at = |k: usize| {
        let pos = k as f64 * (n + 1) as f64 / 4.0;
        let j = (pos.floor() as usize).clamp(1, n - 1);
        let frac = pos - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * frac
    };
    Some((at(1), at(2), at(3)))
}

/// 64-bit FNV-1a, the digest used for `ops_digest` / `sql_digest`.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Fnv {
        Fnv(0xcbf2_9ce4_8422_2325)
    }
}

impl Fnv {
    /// Fold `bytes` into the digest.
    pub fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Digest of one byte string.
    pub fn of(bytes: &[u8]) -> u64 {
        let mut h = Fnv::default();
        h.write(bytes);
        h.0
    }
}

/// SplitMix64: the seeded generator behind every operation stream.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    /// Generator for `seed`, decorrelated per `stream` so two streams
    /// drawn from one seed do not share a sequence.
    pub fn new(seed: u64, stream: u64) -> Rng {
        Rng(seed ^ stream.wrapping_mul(0x9e37_79b9_7f4a_7c15))
    }

    /// Next 64 random bits.
    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform float in [0, 1).
    pub fn next_f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Uniform integer in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    /// Fisher–Yates shuffle.
    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// Zipf(s) over `n` items by inverse-CDF lookup. Rank 0 is the most
/// popular; callers scramble ranks onto keys with a seeded shuffle so
/// popularity does not follow key order.
#[derive(Debug, Clone)]
pub struct Zipf {
    cdf: Vec<f64>,
}

impl Zipf {
    /// Distribution with exponent `s` over `n` ranks.
    pub fn new(n: usize, s: f64) -> Zipf {
        let mut cdf = Vec::with_capacity(n);
        let mut total = 0.0;
        for rank in 1..=n {
            total += 1.0 / (rank as f64).powf(s);
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        Zipf { cdf }
    }

    /// Draw one rank.
    pub fn sample(&self, rng: &mut Rng) -> usize {
        let u = rng.next_f64();
        self.cdf
            .partition_point(|&c| c <= u)
            .min(self.cdf.len() - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&v, 0.5), 50.0);
        assert_eq!(percentile(&v, 0.99), 99.0);
        assert_eq!(percentile(&v, 1.0), 100.0);
        assert_eq!(percentile(&v, 0.0), 1.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.99), 7.0);
    }

    #[test]
    fn tail_needs_ten_samples_beyond() {
        // p99 needs 1,000 samples: exactly ten lie beyond rank 990.
        assert_eq!(supported_percentile(1000, 0.99), Some(0.99));
        // 500 samples support p98 at most.
        assert_eq!(supported_percentile(500, 0.99), Some(0.98));
        assert_eq!(supported_percentile(19, 0.99), None);
        let v: Vec<f64> = (1..=500).map(f64::from).collect();
        let (value, used) = tail_percentile(&v, 0.99);
        assert_eq!(used, 0.98);
        assert_eq!(value, 490.0);
        assert_eq!(v.len() - 490, MIN_SAMPLES_BEYOND);
    }

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 5.5, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[2.0, 1.0]), Some((0.75, 1.5, 2.25)));
        assert_eq!(quartiles(&[1.0]), None);
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(Fnv::of(b""), 0xcbf29ce484222325);
        assert_eq!(Fnv::of(b"a"), 0xaf63dc4c8601ec8c);
        assert_eq!(Fnv::of(b"foobar"), 0x85944171f73967e8);
    }

    #[test]
    fn rng_and_zipf_are_bit_stable() {
        let mut rng = Rng::new(42, 0);
        let first: Vec<u64> = (0..3).map(|_| rng.next_u64()).collect();
        assert_eq!(
            first,
            [
                13679457532755275413,
                2949826092126892291,
                5139283748462763858
            ]
        );
        let zipf = Zipf::new(1088, 1.1);
        let mut rng = Rng::new(42, 1);
        let draws: Vec<usize> = (0..8).map(|_| zipf.sample(&mut rng)).collect();
        let mut again = Rng::new(42, 1);
        let repeat: Vec<usize> = (0..8).map(|_| zipf.sample(&mut again)).collect();
        assert_eq!(draws, repeat);
        // Rank 0 carries the most mass.
        let mut rng = Rng::new(7, 2);
        let mut counts = [0usize; 4];
        for _ in 0..20_000 {
            let r = zipf.sample(&mut rng);
            if r < 4 {
                counts[r] += 1;
            }
        }
        assert!(counts[0] > counts[1] && counts[1] > counts[2] && counts[2] > counts[3]);
    }

    #[test]
    fn shuffle_is_a_permutation() {
        let mut items: Vec<usize> = (0..100).collect();
        Rng::new(3, 0).shuffle(&mut items);
        let mut sorted = items.clone();
        sorted.sort_unstable();
        assert_eq!(sorted, (0..100).collect::<Vec<_>>());
        assert_ne!(items, sorted);
    }
}
