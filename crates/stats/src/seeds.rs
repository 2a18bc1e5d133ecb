//! Deterministic sub-seed derivation for parallel Monte-Carlo.
//!
//! Every trial of the evaluation harness derives its own RNG seed from a
//! master seed plus structured indices (experiment id, parameter index, trial
//! index). This keeps results bit-identical regardless of how Rayon schedules
//! the trials across threads, which is the reproducibility idiom recommended
//! for parallel simulation codes.

/// SplitMix64 — a small, well-mixed 64-bit finalizer used to derive seeds.
#[inline]
pub fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E3779B97F4A7C15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58476D1CE4E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D049BB133111EB);
    z ^ (z >> 31)
}

/// Derives a child seed from a master seed and a sequence of indices.
///
/// The derivation is a chained SplitMix64 over the master seed and each
/// index, so `derive_seed(s, &[a, b])` differs from `derive_seed(s, &[b, a])`
/// and from `derive_seed(s, &[a])`.
pub fn derive_seed(master: u64, indices: &[u64]) -> u64 {
    let mut state = splitmix64(master ^ 0xA076_1D64_78BD_642F);
    for (level, &idx) in indices.iter().enumerate() {
        state = splitmix64(state ^ splitmix64(idx.wrapping_add(level as u64 + 1)));
    }
    state
}

/// A seeded partial Fisher–Yates shuffle of `0..n`: after the call, the
/// first `prefix` positions are an unbiased uniform sample-without-
/// replacement ordering (ChaCha8 stream seeded by `seed`, one
/// `gen_range(i..n)` draw per prefix position).
///
/// This is the shared primitive behind the evaluation harness's
/// sample-without-replacement node sampling (`prefix = count`, then
/// truncate) and the serving traffic model's compromise-rank assignment
/// (`prefix = n - 1`, a full shuffle) — one implementation, so the two
/// cannot drift apart.
pub fn seeded_partial_shuffle(n: usize, prefix: usize, seed: u64) -> Vec<u32> {
    use rand::{Rng, SeedableRng};
    let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
    let mut pool: Vec<u32> = (0..n as u32).collect();
    for i in 0..prefix.min(n) {
        let j = rng.gen_range(i..n);
        pool.swap(i, j);
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn splitmix_is_deterministic_and_nontrivial() {
        assert_eq!(splitmix64(0), splitmix64(0));
        assert_ne!(splitmix64(0), 0);
        assert_ne!(splitmix64(1), splitmix64(2));
    }

    #[test]
    fn derive_seed_depends_on_order_and_depth() {
        let m = 12345;
        assert_ne!(derive_seed(m, &[1, 2]), derive_seed(m, &[2, 1]));
        assert_ne!(derive_seed(m, &[1]), derive_seed(m, &[1, 0]));
        assert_ne!(derive_seed(m, &[]), derive_seed(m, &[0]));
        assert_eq!(derive_seed(m, &[7, 8, 9]), derive_seed(m, &[7, 8, 9]));
    }

    #[test]
    fn different_masters_give_different_streams() {
        assert_ne!(derive_seed(1, &[0]), derive_seed(2, &[0]));
    }

    #[test]
    fn seeds_are_wellspread() {
        // No collisions across a realistic experiment-sized index grid.
        let mut seen = HashSet::new();
        for exp in 0..10u64 {
            for param in 0..20u64 {
                for trial in 0..50u64 {
                    assert!(seen.insert(derive_seed(42, &[exp, param, trial])));
                }
            }
        }
        assert_eq!(seen.len(), 10 * 20 * 50);
    }
}
