//! Theorem 1: the neighbourhood probability `g(z)` and its lookup table.
//!
//! `g(z)` is the probability that a sensor of group `G_i` (whose resident
//! point is an isotropic Gaussian with deviation σ around the deployment
//! point) lands within transmission range `R` of a point located `z` metres
//! from that deployment point:
//!
//! ```text
//! g(z) = 1{z < R}·(1 − e^{−(R−z)²/(2σ²)})
//!        + ∫_{|z−R|}^{z+R} f_R(ℓ) · 2ℓ·cos⁻¹((ℓ² + z² − R²)/(2ℓz)) dℓ
//! f_R(ℓ) = 1/(2πσ²)·e^{−ℓ²/(2σ²)}
//! ```
//!
//! The first term is the Rayleigh probability mass of the circles that lie
//! entirely inside the neighbourhood disk; the integral accumulates, over the
//! partially overlapping circles of radius ℓ, the planar Gaussian density
//! times the arc length inside the disk.
//!
//! The exact evaluation ([`gz_exact`]) uses adaptive Simpson quadrature and is
//! too expensive for sensor-side use, so §3.3 of the paper prescribes a
//! precomputed ω-entry lookup table with linear interpolation — that is
//! [`GzTable`].

use lad_geometry::Circle;
use lad_stats::integrate::adaptive_simpson;
use lad_stats::LookupTable;

/// Exact evaluation of Theorem 1's `g(z)` for distance `z`, transmission
/// range `range` and placement deviation `sigma`.
///
/// Handles the degenerate `z ≈ 0` case (the observer sits on the deployment
/// point) with the closed-form Rayleigh CDF.
pub fn gz_exact(z: f64, range: f64, sigma: f64) -> f64 {
    assert!(range > 0.0, "range must be positive");
    assert!(sigma > 0.0, "sigma must be positive");
    let z = z.abs();

    // Degenerate case: the query point coincides with the deployment point.
    if z < 1e-9 {
        return 1.0 - (-(range * range) / (2.0 * sigma * sigma)).exp();
    }

    let two_sigma_sq = 2.0 * sigma * sigma;
    let norm = 1.0 / (std::f64::consts::PI * two_sigma_sq); // 1/(2πσ²)

    // Closed-form part: circles of radius ℓ < R − z lie entirely inside the
    // neighbourhood disk (only possible when z < R).
    let inside = if z < range {
        1.0 - (-((range - z) * (range - z)) / two_sigma_sq).exp()
    } else {
        0.0
    };

    // Integral part over the partially overlapping circles.
    let lo = (z - range).abs();
    let hi = z + range;
    let integrand = |ell: f64| -> f64 {
        if ell <= 0.0 {
            return 0.0;
        }
        let density = norm * (-(ell * ell) / two_sigma_sq).exp();
        let half_angle = Circle::arc_half_angle(ell, z, range);
        // Arc length inside the disk is ℓ·2·half_angle; for ℓ in the open
        // interval (|z−R|, z+R) the half-angle is the arccos term of the paper.
        density * 2.0 * ell * half_angle
    };
    let integral = adaptive_simpson(integrand, lo, hi, 1e-10, 24);

    (inside + integral).clamp(0.0, 1.0)
}

/// The §3.3 lookup table: `g(z)` pre-evaluated at `ω + 1` equally spaced
/// distances, evaluated at query time with linear interpolation in O(1).
#[derive(Debug, Clone, PartialEq)]
pub struct GzTable {
    range: f64,
    sigma: f64,
    z_max: f64,
    table: LookupTable,
}

impl GzTable {
    /// Number of standard deviations beyond which `g(z)` is treated as 0 when
    /// sizing the table domain.
    const TAIL_SIGMAS: f64 = 6.0;

    /// Builds the table for transmission range `range`, placement deviation
    /// `sigma` and `omega` sub-ranges.
    ///
    /// The tabulated domain is `[0, R + 6σ]`; beyond it the true value is
    /// below 10⁻⁸ and the table clamps to its last entry (≈ 0).
    pub fn build(range: f64, sigma: f64, omega: usize) -> Self {
        assert!(omega >= 2, "omega must be at least 2");
        let z_max = range + Self::TAIL_SIGMAS * sigma;
        let table = LookupTable::build(0.0, z_max, omega, |z| gz_exact(z, range, sigma));
        Self {
            range,
            sigma,
            z_max,
            table,
        }
    }

    /// The transmission range the table was built for.
    pub fn range(&self) -> f64 {
        self.range
    }

    /// The placement deviation the table was built for.
    pub fn sigma(&self) -> f64 {
        self.sigma
    }

    /// Number of sub-ranges ω.
    pub fn omega(&self) -> usize {
        self.table.omega()
    }

    /// Upper end of the tabulated domain.
    pub fn z_max(&self) -> f64 {
        self.z_max
    }

    /// Interpolated `g(z)` (clamped to `[0, 1]`; 0 beyond the tabulated tail).
    #[inline]
    pub fn eval(&self, z: f64) -> f64 {
        self.prepared().eval(z)
    }

    /// A borrowed evaluator with the table invariants hoisted for hot loops
    /// (bit-identical to [`Self::eval`]).
    #[inline]
    pub fn prepared(&self) -> PreparedGz<'_> {
        PreparedGz {
            z_max: self.z_max,
            table: self.table.prepared(),
        }
    }

    /// Maximum absolute interpolation error against the exact quadrature,
    /// probed `probes_per_cell` times per sub-range (the ω ablation of
    /// DESIGN.md experiment E9).
    pub fn max_interpolation_error(&self, probes_per_cell: usize) -> f64 {
        self.table
            .max_error_against(|z| gz_exact(z, self.range, self.sigma), probes_per_cell)
    }
}

/// The hoisted-invariant `g(z)` evaluator returned by [`GzTable::prepared`].
#[derive(Debug, Clone, Copy)]
pub struct PreparedGz<'a> {
    z_max: f64,
    table: lad_stats::PreparedLookup<'a>,
}

impl PreparedGz<'_> {
    /// Interpolated `g(z)`; bit-identical to [`GzTable::eval`].
    #[inline(always)]
    pub fn eval(&self, z: f64) -> f64 {
        let z = z.abs();
        if z >= self.z_max {
            return 0.0;
        }
        self.table.eval(z).clamp(0.0, 1.0)
    }

    /// Maps gathered squared distances to expected neighbour counts in
    /// place: `d²` becomes `µ = m · g(√d²)`. This is phase 2 of
    /// [`DeploymentKnowledge::expected_sparse_into`](crate::DeploymentKnowledge::expected_sparse_into).
    ///
    /// On x86-64 with AVX2 (detected at run time) four entries go through
    /// one pass of 256-bit lanes. The scalar tail and every other CPU run
    /// [`Self::mu_in_place_scalar`]. Both give the same bits for every
    /// input: `sqrt` and `/` are correctly rounded in any lane width, the
    /// lanes keep the scalar operation order (no fused multiply-add), and
    /// masked selects stand in for the scalar branches.
    #[inline]
    pub fn mu_in_place(&self, m: f64, d_sq: &mut [f64]) {
        #[cfg(target_arch = "x86_64")]
        if avx2_lanes() {
            // SAFETY: the CPU supports AVX2 (checked just above).
            unsafe { lanes::mu_in_place_avx2(self, m, d_sq) };
            return;
        }
        self.mu_in_place_scalar(m, d_sq);
    }

    /// [`Self::mu_in_place`] from one buffer into another: `mu[i]` becomes
    /// `m · g(√d_sq[i])`, with the same bits. A µ-cache miss maps the
    /// gathered scratch straight into the slot this way, so the slot's
    /// (often cold) memory is written once, by the kernel's stores.
    ///
    /// # Panics
    /// Panics when the two slices differ in length.
    #[inline]
    pub fn mu_into(&self, m: f64, d_sq: &[f64], mu: &mut [f64]) {
        assert_eq!(d_sq.len(), mu.len(), "d² and µ buffers differ in length");
        #[cfg(target_arch = "x86_64")]
        if avx2_lanes() {
            // SAFETY: the CPU supports AVX2 (checked just above).
            unsafe { lanes::mu_into_avx2(self, m, d_sq, mu) };
            return;
        }
        self.mu_into_scalar(m, d_sq, mu);
    }

    /// The scalar form of [`Self::mu_in_place`], one [`Self::eval`] per
    /// entry. It is the oracle the lane kernel is tested against.
    #[inline]
    pub fn mu_in_place_scalar(&self, m: f64, d_sq: &mut [f64]) {
        for v in d_sq {
            *v = m * self.eval(v.sqrt());
        }
    }

    /// [`Self::mu_in_place_scalar`] from one buffer into another.
    #[inline]
    fn mu_into_scalar(&self, m: f64, d_sq: &[f64], mu: &mut [f64]) {
        for (mu, &d_sq) in mu.iter_mut().zip(d_sq) {
            *mu = m * self.eval(d_sq.sqrt());
        }
    }
}

/// Whether [`PreparedGz::mu_in_place`] and [`PreparedGz::mu_into`] run
/// four AVX2 lanes on this CPU. The answer is detected once per process
/// and cached by the standard library.
#[inline]
pub fn avx2_lanes() -> bool {
    #[cfg(target_arch = "x86_64")]
    return std::arch::is_x86_feature_detected!("avx2");
    #[cfg(not(target_arch = "x86_64"))]
    false
}

/// The AVX2 bodies of [`PreparedGz::mu_in_place`] and
/// [`PreparedGz::mu_into`].
#[cfg(target_arch = "x86_64")]
mod lanes {
    use super::PreparedGz;
    use core::arch::x86_64::*;

    /// The constants of [`PreparedGz::eval`] broadcast to four lanes.
    struct Lanes<'a> {
        values: &'a [f64],
        last: __m128i,
        min: __m256d,
        max: __m256d,
        span: __m256d,
        omega: __m256d,
        first_value: __m256d,
        last_value: __m256d,
        z_max: __m256d,
        m: __m256d,
    }

    impl<'a> Lanes<'a> {
        /// # Panics
        /// Panics when the table is empty or its indices do not fit the
        /// 32-bit index lanes; [`Self::map`]'s table loads rely on both.
        #[target_feature(enable = "avx2")]
        fn new(gz: &PreparedGz<'a>, m: f64) -> Self {
            let (min, max, span, omega) = gz.table.constants();
            let values = gz.table.values();
            let last = values.len().wrapping_sub(1);
            let last_index = i32::try_from(last).expect("g(z) table indices fit in 32-bit lanes");
            Self {
                values,
                last: _mm_set1_epi32(last_index),
                min: _mm256_set1_pd(min),
                max: _mm256_set1_pd(max),
                span: _mm256_set1_pd(span),
                omega: _mm256_set1_pd(omega),
                first_value: _mm256_set1_pd(values[0]),
                last_value: _mm256_set1_pd(values[last]),
                z_max: _mm256_set1_pd(gz.z_max),
                m: _mm256_set1_pd(m),
            }
        }

        /// µ for four d², through the scalar float program of
        /// [`PreparedGz::eval`]: `sqrt` → `|·|` → sub → div → mul,
        /// truncating convert, two table loads, separate mul/add. The
        /// branches become selects over all four lanes: a lane whose
        /// scalar run returns early still computes the interpolation, at
        /// indices clamped to `[0, last]` so the loads stay in the table,
        /// and the select then discards it. `max`/`min` take their
        /// operands in the order that reproduces `f64::clamp` (a NaN
        /// passes through, `-0.0` stays).
        #[target_feature(enable = "avx2")]
        #[inline]
        fn map(&self, d_sq: __m256d) -> __m256d {
            let one = _mm256_set1_pd(1.0);
            let z = _mm256_andnot_pd(_mm256_set1_pd(-0.0), _mm256_sqrt_pd(d_sq));
            let t = _mm256_mul_pd(
                _mm256_div_pd(_mm256_sub_pd(z, self.min), self.span),
                self.omega,
            );
            // NaN and out-of-range `t` convert to i32::MIN, which the
            // clamp turns into index 0.
            let lo = _mm_min_epi32(
                _mm_max_epi32(_mm256_cvttpd_epi32(t), _mm_setzero_si128()),
                self.last,
            );
            let hi = _mm_min_epi32(_mm_add_epi32(lo, _mm_set1_epi32(1)), self.last);
            let frac = _mm256_sub_pd(t, _mm256_cvtepi32_pd(lo));
            // SAFETY: every index of `lo` and `hi` lies in `[0, last]`,
            // and `new` has checked that `last = values.len() - 1` is a
            // valid index (the table is not empty) that fits in i32.
            let (y_lo, y_hi) = unsafe {
                (
                    _mm256_i32gather_pd::<8>(self.values.as_ptr(), lo),
                    _mm256_i32gather_pd::<8>(self.values.as_ptr(), hi),
                )
            };
            let inner = _mm256_add_pd(
                _mm256_mul_pd(y_lo, _mm256_sub_pd(one, frac)),
                _mm256_mul_pd(y_hi, frac),
            );
            // `x <= min` is tested before `x >= max`, so it is applied last.
            let ge_max = _mm256_cmp_pd::<_CMP_GE_OQ>(z, self.max);
            let v = _mm256_blendv_pd(inner, self.last_value, ge_max);
            let le_min = _mm256_cmp_pd::<_CMP_LE_OQ>(z, self.min);
            let v = _mm256_blendv_pd(v, self.first_value, le_min);
            let g = _mm256_min_pd(one, _mm256_max_pd(_mm256_setzero_pd(), v));
            // `z >= z_max` returns +0.0 before the table is consulted.
            let g = _mm256_andnot_pd(_mm256_cmp_pd::<_CMP_GE_OQ>(z, self.z_max), g);
            _mm256_mul_pd(self.m, g)
        }
    }

    /// Four entries per step of [`Lanes::map`], in place; the tail of
    /// fewer than four runs the scalar loop.
    ///
    /// # Safety
    /// The CPU must support AVX2.
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mu_in_place_avx2(gz: &PreparedGz<'_>, m: f64, d_sq: &mut [f64]) {
        let lanes = Lanes::new(gz, m);
        let mut chunks = d_sq.chunks_exact_mut(4);
        for chunk in &mut chunks {
            // SAFETY: `chunk` holds exactly four f64s.
            unsafe {
                _mm256_storeu_pd(
                    chunk.as_mut_ptr(),
                    lanes.map(_mm256_loadu_pd(chunk.as_ptr())),
                )
            };
        }
        gz.mu_in_place_scalar(m, chunks.into_remainder());
    }

    /// [`mu_in_place_avx2`] from `d_sq` into `mu` (equal lengths).
    ///
    /// # Safety
    /// As for [`mu_in_place_avx2`].
    #[target_feature(enable = "avx2")]
    pub(super) unsafe fn mu_into_avx2(gz: &PreparedGz<'_>, m: f64, d_sq: &[f64], mu: &mut [f64]) {
        let lanes = Lanes::new(gz, m);
        let mut src = d_sq.chunks_exact(4);
        let mut dst = mu.chunks_exact_mut(4);
        for (from, to) in (&mut src).zip(&mut dst) {
            // SAFETY: `from` and `to` hold exactly four f64s each.
            unsafe { _mm256_storeu_pd(to.as_mut_ptr(), lanes.map(_mm256_loadu_pd(from.as_ptr()))) };
        }
        gz.mu_into_scalar(m, src.remainder(), dst.into_remainder());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_geometry::{sampling, Point2};
    use proptest::prelude::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    const R: f64 = 40.0;
    const SIGMA: f64 = 50.0;

    #[test]
    fn gz_at_zero_is_rayleigh_cdf_of_range() {
        let expected = 1.0 - (-(R * R) / (2.0 * SIGMA * SIGMA)).exp();
        assert!((gz_exact(0.0, R, SIGMA) - expected).abs() < 1e-9);
    }

    #[test]
    fn gz_decreases_with_distance() {
        let mut prev = gz_exact(0.0, R, SIGMA);
        for i in 1..60 {
            let z = i as f64 * 10.0;
            let g = gz_exact(z, R, SIGMA);
            assert!(g <= prev + 1e-9, "g not monotone at z = {z}");
            prev = g;
        }
    }

    #[test]
    fn gz_far_away_is_negligible() {
        assert!(gz_exact(500.0, R, SIGMA) < 1e-8);
        assert!(gz_exact(1000.0, R, SIGMA) < 1e-12);
    }

    #[test]
    fn gz_is_continuous_across_z_equals_r() {
        let eps = 1e-4;
        let below = gz_exact(R - eps, R, SIGMA);
        let above = gz_exact(R + eps, R, SIGMA);
        assert!(
            (below - above).abs() < 1e-3,
            "discontinuity at z = R: {below} vs {above}"
        );
    }

    #[test]
    fn gz_matches_monte_carlo() {
        // Empirical check of Theorem 1: sample resident points from the
        // Gaussian placement and count how many fall within R of a point at
        // distance z from the deployment point.
        let deployment_point = Point2::new(0.0, 0.0);
        let mut rng = ChaCha8Rng::seed_from_u64(1234);
        let n = 200_000;
        for &z in &[0.0, 20.0, 40.0, 60.0, 90.0, 130.0, 180.0] {
            let query = Point2::new(z, 0.0);
            let mut hits = 0usize;
            for _ in 0..n {
                let p = sampling::gaussian_around(&mut rng, deployment_point, SIGMA);
                if p.distance(query) <= R {
                    hits += 1;
                }
            }
            let empirical = hits as f64 / n as f64;
            let analytic = gz_exact(z, R, SIGMA);
            assert!(
                (empirical - analytic).abs() < 0.004,
                "z={z}: analytic {analytic} vs empirical {empirical}"
            );
        }
    }

    #[test]
    fn table_matches_exact_values_closely() {
        let table = GzTable::build(R, SIGMA, 256);
        for i in 0..200 {
            let z = i as f64 * 2.0;
            assert!(
                (table.eval(z) - gz_exact(z, R, SIGMA)).abs() < 1e-4,
                "table error too large at z = {z}"
            );
        }
        assert_eq!(table.range(), R);
        assert_eq!(table.sigma(), SIGMA);
        assert_eq!(table.omega(), 256);
    }

    #[test]
    fn table_error_shrinks_with_omega() {
        let coarse = GzTable::build(R, SIGMA, 16);
        let fine = GzTable::build(R, SIGMA, 512);
        let e_coarse = coarse.max_interpolation_error(4);
        let e_fine = fine.max_interpolation_error(4);
        assert!(e_fine < e_coarse);
        assert!(e_fine < 1e-5, "fine table error {e_fine}");
    }

    #[test]
    fn table_tail_is_zero() {
        let table = GzTable::build(R, SIGMA, 64);
        assert_eq!(table.eval(table.z_max() + 1.0), 0.0);
        assert_eq!(table.eval(1e6), 0.0);
    }

    /// The tables the lane kernel is checked on: the paper's, the
    /// `small_test` one, and a coarse ω = 2 table.
    fn kernel_tables() -> &'static [GzTable] {
        static TABLES: std::sync::OnceLock<Vec<GzTable>> = std::sync::OnceLock::new();
        TABLES.get_or_init(|| {
            let paper = crate::DeploymentConfig::paper_default();
            let small = crate::DeploymentConfig::small_test();
            vec![
                GzTable::build(paper.range, paper.sigma, paper.gz_table_omega),
                GzTable::build(small.range, small.sigma, small.gz_table_omega),
                GzTable::build(small.range, small.sigma, 2),
            ]
        })
    }

    /// Maps `d_sq` through the scalar oracle, both dispatchers (in place
    /// and into a second buffer) and, when the CPU has AVX2, both lane
    /// kernels themselves, and asserts all of them agree bit for bit.
    fn assert_kernel_matches_oracle(table: &GzTable, m: f64, d_sq: &[f64]) {
        let gz = table.prepared();
        let mut oracle = d_sq.to_vec();
        gz.mu_in_place_scalar(m, &mut oracle);
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut in_place = d_sq.to_vec();
        gz.mu_in_place(m, &mut in_place);
        assert_eq!(bits(&in_place), bits(&oracle), "in place, d² = {d_sq:?}");
        let mut into = vec![f64::NAN; d_sq.len()];
        gz.mu_into(m, d_sq, &mut into);
        assert_eq!(bits(&into), bits(&oracle), "into, d² = {d_sq:?}");
        #[cfg(target_arch = "x86_64")]
        if avx2_lanes() {
            let mut in_place = d_sq.to_vec();
            let mut into = vec![f64::NAN; d_sq.len()];
            // SAFETY: AVX2 is present (checked just above).
            unsafe {
                lanes::mu_in_place_avx2(&gz, m, &mut in_place);
                lanes::mu_into_avx2(&gz, m, d_sq, &mut into);
            }
            assert_eq!(bits(&in_place), bits(&oracle), "lanes, d² = {d_sq:?}");
            assert_eq!(bits(&into), bits(&oracle), "lanes into, d² = {d_sq:?}");
        }
    }

    /// `x` and its `n` nearest floats on either side.
    fn ulp_neighbourhood(x: f64, n: usize) -> Vec<f64> {
        let (mut lo, mut hi) = (x, x);
        let mut out = vec![x];
        for _ in 0..n {
            lo = lo.next_down();
            hi = hi.next_up();
            out.extend([lo, hi]);
        }
        out
    }

    #[test]
    fn lane_kernel_is_bitwise_the_oracle_at_knots_and_edges() {
        for table in kernel_tables() {
            let (z_max, omega) = (table.z_max(), table.omega());
            let step = z_max / omega as f64;
            let mut d_sq = vec![0.0, -0.0];
            for i in 0..=omega {
                // The knot as `LookupTable::build` placed it, its ±1-ulp
                // neighbours in z, and the d² values around each square.
                let z = i as f64 * step;
                for zz in [z.next_down(), z, z.next_up()] {
                    d_sq.extend(ulp_neighbourhood(zz * zz, 2));
                }
            }
            // Just below z_max², and values whose root rounds to z_max.
            d_sq.extend(ulp_neighbourhood(z_max * z_max, 4));
            d_sq.extend([z_max * z_max * (1.0 - 1e-12), 1e6, f64::INFINITY]);
            // Outside the gather's domain, still the same bits.
            d_sq.extend([f64::NAN, -1.0, f64::NEG_INFINITY]);
            for m in [1.0, 60.0, 300.0] {
                assert_kernel_matches_oracle(table, m, &d_sq);
                // Every alignment of the four-lane blocks.
                for skip in 1..4 {
                    assert_kernel_matches_oracle(table, m, &d_sq[skip..]);
                }
            }
        }
    }

    #[test]
    fn lane_kernel_handles_every_short_length() {
        for table in kernel_tables() {
            let z_max_sq = table.z_max() * table.z_max();
            let d_sq: Vec<f64> = (0..9).map(|i| z_max_sq * i as f64 / 9.5).collect();
            for len in 0..=9 {
                assert_kernel_matches_oracle(table, 300.0, &d_sq[..len]);
            }
        }
    }

    #[test]
    #[should_panic(expected = "differ in length")]
    fn mu_into_rejects_mismatched_buffers() {
        kernel_tables()[0]
            .prepared()
            .mu_into(1.0, &[1.0; 5], &mut [0.0; 4]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        #[test]
        fn prop_lane_kernel_is_bitwise_the_oracle(
            fracs in proptest::collection::vec(0.0f64..1.0, 0..40),
            which in 0usize..3,
        ) {
            let table = &kernel_tables()[which];
            let z_max_sq = table.z_max() * table.z_max();
            let d_sq: Vec<f64> = fracs.iter().map(|f| f * z_max_sq).collect();
            assert_kernel_matches_oracle(table, 300.0, &d_sq);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_gz_is_a_probability(z in 0.0f64..800.0, r in 5.0f64..120.0, s in 5.0f64..150.0) {
            let g = gz_exact(z, r, s);
            prop_assert!((0.0..=1.0).contains(&g));
        }

        #[test]
        fn prop_gz_increases_with_range(z in 0.0f64..300.0, s in 10.0f64..100.0, r in 10.0f64..80.0) {
            // A larger transmission range can only increase the neighbourhood probability.
            prop_assert!(gz_exact(z, r + 20.0, s) + 1e-9 >= gz_exact(z, r, s));
        }

        #[test]
        fn prop_table_close_to_exact(z in 0.0f64..400.0) {
            let table = GzTable::build(R, SIGMA, 256);
            prop_assert!((table.eval(z) - gz_exact(z, R, SIGMA)).abs() < 5e-4);
        }
    }
}
