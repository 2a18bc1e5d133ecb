//! Numerically stable binomial distribution.
//!
//! The probability metric of the LAD paper (§5.4) evaluates
//! `Pr(X_i = o_i | L_e) = C(m, o_i) · g_i(L_e)^{o_i} · (1 − g_i(L_e))^{m − o_i}`
//! for group sizes up to m = 1000, so the pmf is computed in log space.

use rand::Rng;
use serde::{Deserialize, Serialize};

/// `ln n!` is precomputed up to the paper's maximum group size (m = 1000)
/// plus headroom; the probability metric evaluates `ln C(m, k)` per group on
/// the detection hot path, so this must be a plain lookup.
pub const LN_FACTORIAL_TABLE_LEN: usize = 2048;

/// The precomputed `ln n!` table for `n < 2048`, exposed so hot loops (the
/// probability metric scans one binomial pmf per group per request) can hoist
/// the table reference out of their inner loop.
pub fn ln_factorial_table() -> &'static [f64; LN_FACTORIAL_TABLE_LEN] {
    static TABLE: std::sync::OnceLock<[f64; LN_FACTORIAL_TABLE_LEN]> = std::sync::OnceLock::new();
    TABLE.get_or_init(|| {
        let mut table = [0.0f64; LN_FACTORIAL_TABLE_LEN];
        let mut acc = 0.0f64;
        for (k, slot) in table.iter_mut().enumerate().skip(1) {
            acc += (k as f64).ln();
            *slot = acc;
        }
        table
    })
}

/// Natural log of `n!`, via a precomputed table for `n < 2048` and
/// Stirling's series beyond it.
pub fn ln_factorial(n: u64) -> f64 {
    if (n as usize) < LN_FACTORIAL_TABLE_LEN {
        return ln_factorial_table()[n as usize];
    }
    // Stirling's series with three correction terms (error < 1e-10 for n >= 32).
    let n = n as f64;
    n * n.ln() - n + 0.5 * (2.0 * std::f64::consts::PI * n).ln() + 1.0 / (12.0 * n)
        - 1.0 / (360.0 * n.powi(3))
        + 1.0 / (1260.0 * n.powi(5))
}

/// Natural log of the binomial coefficient `C(n, k)`; `-inf` when `k > n`.
pub fn ln_choose(n: u64, k: u64) -> f64 {
    if k > n {
        return f64::NEG_INFINITY;
    }
    ln_factorial(n) - ln_factorial(k) - ln_factorial(n - k)
}

/// Binomial distribution `Binomial(n, p)`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Binomial {
    /// Number of trials.
    pub n: u64,
    /// Success probability, clamped to `[0, 1]`.
    pub p: f64,
}

impl Binomial {
    /// Creates the distribution, clamping `p` into `[0, 1]`.
    pub fn new(n: u64, p: f64) -> Self {
        Self {
            n,
            p: p.clamp(0.0, 1.0),
        }
    }

    /// Natural log of the pmf at `k`; `-inf` when `k > n` or the outcome is
    /// impossible (e.g. `k > 0` with `p = 0`).
    pub fn ln_pmf(&self, k: u64) -> f64 {
        if k > self.n {
            return f64::NEG_INFINITY;
        }
        if self.p <= 0.0 {
            return if k == 0 { 0.0 } else { f64::NEG_INFINITY };
        }
        if self.p >= 1.0 {
            return if k == self.n { 0.0 } else { f64::NEG_INFINITY };
        }
        if k == 0 {
            // ln Pr(X = 0) = n·ln(1 − p). This is the common case on the
            // detection hot path (a sensor observes nobody from far-away
            // groups), so avoid ln_choose entirely; for tiny p the two-term
            // series for ln(1 − p) is exact to f64 precision.
            let ln_q = if self.p < 1e-6 {
                -self.p * (1.0 + 0.5 * self.p)
            } else {
                (1.0 - self.p).ln()
            };
            return self.n as f64 * ln_q;
        }
        ln_choose(self.n, k) + k as f64 * self.p.ln() + (self.n - k) as f64 * (1.0 - self.p).ln()
    }

    /// Probability mass at `k`.
    pub fn pmf(&self, k: u64) -> f64 {
        self.ln_pmf(k).exp()
    }

    /// The distribution mean `n·p`.
    pub fn mean(&self) -> f64 {
        self.n as f64 * self.p
    }

    /// The distribution variance `n·p·(1 − p)`.
    pub fn variance(&self) -> f64 {
        self.n as f64 * self.p * (1.0 - self.p)
    }

    /// The mode `⌊(n + 1)p⌋` (one of the modes when the distribution is
    /// bimodal), clamped to `[0, n]`.
    ///
    /// Used by the greedy adversary against the probability metric: the mode
    /// is the observation value with the highest likelihood.
    pub fn mode(&self) -> u64 {
        if self.p >= 1.0 {
            return self.n;
        }
        (((self.n + 1) as f64 * self.p).floor() as u64).min(self.n)
    }

    /// Draws a sample by inversion for small `n·p`, otherwise by a normal
    /// approximation with continuity correction (adequate for simulation use).
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> u64 {
        if self.n == 0 || self.p <= 0.0 {
            return 0;
        }
        if self.p >= 1.0 {
            return self.n;
        }
        if self.n <= 64 {
            // Direct Bernoulli summation: exact and fast for small n.
            let mut k = 0;
            for _ in 0..self.n {
                if rng.gen::<f64>() < self.p {
                    k += 1;
                }
            }
            return k;
        }
        // Normal approximation with continuity correction, clamped to support.
        let mean = self.mean();
        let sd = self.variance().sqrt();
        let u1: f64 = rng.gen::<f64>().max(f64::MIN_POSITIVE);
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        ((mean + sd * z + 0.5).floor().max(0.0) as u64).min(self.n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn ln_factorial_small_values_exact() {
        assert_eq!(ln_factorial(0), 0.0);
        assert_eq!(ln_factorial(1), 0.0);
        assert!((ln_factorial(5) - 120f64.ln()).abs() < 1e-12);
        assert!((ln_factorial(10) - 3628800f64.ln()).abs() < 1e-12);
    }

    #[test]
    fn ln_factorial_stirling_accuracy() {
        // 50! known value of ln(50!) ≈ 148.47776695177302
        assert!((ln_factorial(50) - 148.47776695177302).abs() < 1e-8);
        // Consistency across the table/Stirling boundary: ln(n!) - ln((n-1)!) = ln n.
        for n in 30u64..40 {
            assert!((ln_factorial(n) - ln_factorial(n - 1) - (n as f64).ln()).abs() < 1e-8);
        }
    }

    #[test]
    fn ln_choose_matches_pascal() {
        assert!((ln_choose(5, 2) - 10f64.ln()).abs() < 1e-10);
        assert!((ln_choose(10, 5) - 252f64.ln()).abs() < 1e-10);
        assert_eq!(ln_choose(3, 7), f64::NEG_INFINITY);
    }

    #[test]
    fn pmf_sums_to_one() {
        for &(n, p) in &[(10u64, 0.3), (100, 0.05), (300, 0.5), (1000, 0.01)] {
            let b = Binomial::new(n, p);
            let total: f64 = (0..=n).map(|k| b.pmf(k)).sum();
            assert!((total - 1.0).abs() < 1e-9, "n={n} p={p} total={total}");
        }
    }

    #[test]
    fn degenerate_probabilities() {
        let zero = Binomial::new(10, 0.0);
        assert_eq!(zero.pmf(0), 1.0);
        assert_eq!(zero.pmf(1), 0.0);
        let one = Binomial::new(10, 1.0);
        assert_eq!(one.pmf(10), 1.0);
        assert_eq!(one.pmf(3), 0.0);
        assert_eq!(one.mode(), 10);
    }

    #[test]
    fn mode_has_maximal_pmf() {
        for &(n, p) in &[(17u64, 0.23), (300, 0.04), (1000, 0.31)] {
            let b = Binomial::new(n, p);
            let mode = b.mode();
            let pm = b.pmf(mode);
            for k in 0..=n {
                assert!(b.pmf(k) <= pm + 1e-12, "n={n} p={p} k={k}");
            }
        }
    }

    #[test]
    fn sampling_mean_matches_theory() {
        use rand::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(5);
        for &(n, p) in &[(30u64, 0.2), (300, 0.05)] {
            let b = Binomial::new(n, p);
            let trials = 20_000;
            let mean: f64 =
                (0..trials).map(|_| b.sample(&mut rng) as f64).sum::<f64>() / trials as f64;
            assert!(
                (mean - b.mean()).abs() < 0.15 * b.mean().max(1.0),
                "n={n} p={p} mean={mean}"
            );
        }
    }

    proptest! {
        #[test]
        fn prop_pmf_in_unit_interval(n in 1u64..500, p in 0.0f64..1.0, k in 0u64..500) {
            let b = Binomial::new(n, p);
            let v = b.pmf(k);
            prop_assert!((0.0..=1.0 + 1e-12).contains(&v));
        }

        #[test]
        fn prop_mode_within_support(n in 1u64..1000, p in 0.0f64..1.0) {
            let b = Binomial::new(n, p);
            prop_assert!(b.mode() <= n);
        }

        #[test]
        fn prop_samples_within_support(n in 1u64..400, p in 0.0f64..1.0, seed in 0u64..100) {
            use rand::SeedableRng;
            let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(seed);
            let b = Binomial::new(n, p);
            for _ in 0..16 {
                prop_assert!(b.sample(&mut rng) <= n);
            }
        }
    }
}
