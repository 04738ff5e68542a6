//! The workspace's one stable hash: FNV-1a 64 and the seeded draws built
//! on it.
//!
//! Unlike `DefaultHasher` these are fixed across platforms, runs and
//! toolchains, and a lot hangs off their exact bits: the oracle's
//! noise/drift draws, the `FaultInjector`/`FaultyFs` schedules,
//! embedding buckets, tenant shard choice and the flight recorder's
//! sampling. The tests pin golden values; a change that moves
//! one moves every seeded result in the repository.
//!
//! Everything is `#[inline]`: the callers sit on per-token and
//! per-request paths in other crates.

/// FNV-1a 64 offset basis.
pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
/// FNV-1a 64 prime.
pub(crate) const FNV_PRIME: u64 = 0x0100_0000_01b3;

const GOLDEN_GAMMA: u64 = 0x9e37_79b9_7f4a_7c15;

/// FNV-1a 64 of `bytes`.
#[inline]
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    fnv1a64_from(FNV_OFFSET, bytes)
}

/// FNV-1a 64 continued from `basis`: chain it to hash several pieces, or
/// start from a seeded basis to get an independent hash family.
#[inline]
pub fn fnv1a64_from(basis: u64, bytes: &[u8]) -> u64 {
    let mut hash = basis;
    for &b in bytes {
        hash ^= b as u64;
        hash = hash.wrapping_mul(FNV_PRIME);
    }
    hash
}

/// Deterministic 64-bit draw from string parts and a seed: FNV-1a over
/// the parts (each terminated by `0xff`, so `["ab", "c"]` and
/// `["a", "bc"]` differ) from a seeded basis, finished with the
/// splitmix64 mixer — raw FNV's high bits avalanche poorly, which would
/// bias every probability threshold compared against [`hash01`].
#[inline]
pub fn hash_u64(parts: &[&str], seed: u64) -> u64 {
    let mut hash = FNV_OFFSET ^ seed.wrapping_mul(GOLDEN_GAMMA);
    for p in parts {
        hash = fnv1a64_from(hash, p.as_bytes());
        hash = fnv1a64_from(hash, &[0xff]);
    }
    mix64(hash.wrapping_add(GOLDEN_GAMMA))
}

/// The splitmix64 finaliser: every output bit depends on every input
/// bit, which raw FNV's low and high bits do not.
#[inline]
pub fn mix64(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// [`hash_u64`] mapped to `[0, 1)`.
#[inline]
pub fn hash01(parts: &[&str], seed: u64) -> f64 {
    (hash_u64(parts, seed) >> 11) as f64 / (1u64 << 53) as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a64_matches_the_published_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a64(b"foobar"), 0x8594_4171_f739_67e8);
    }

    // Captured from the hand-written copies this module replaced.
    #[test]
    fn seeded_variants_keep_their_golden_values() {
        assert_eq!(fnv1a64(b"revenue per club"), 0xa967_3659_1220_a704);
        // The flight recorder's basis: offset ^ seed * prime.
        let recorder_basis = FNV_OFFSET ^ 7u64.wrapping_mul(FNV_PRIME);
        assert_eq!(
            fnv1a64_from(recorder_basis, b"req-000042"),
            0xbe46_099a_d620_2129
        );
        assert_eq!(fnv1a64_from(FNV_OFFSET, b"foobar"), fnv1a64(b"foobar"));

        let parts = ["fault", "transient", "7"];
        assert_eq!(hash_u64(&parts, 42), 0xec96_16df_88c4_88d1);
        assert_eq!(hash01(&parts, 42).to_bits(), 0x3fed_92c2_dbf1_1891);
        assert_eq!(hash_u64(&[], 0), 0xc381_7c01_6ba4_ff30);
    }

    #[test]
    fn hash01_is_in_the_unit_interval_and_seed_sensitive() {
        for seed in 0..100u64 {
            assert!((0.0..1.0).contains(&hash01(&["a", "b"], seed)));
        }
        assert_ne!(hash01(&["x"], 5), hash01(&["x"], 6));
        assert_ne!(hash_u64(&["ab", "c"], 1), hash_u64(&["a", "bc"], 1));
    }
}
