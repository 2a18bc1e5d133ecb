//! Precomputed lookup tables with linear interpolation.
//!
//! §3.3 of the paper: "we precompute g(z) and store the values in a table …
//! we divide the range of z into ω equal-size sub-ranges, and store the g(z)
//! values for these ω+1 dividing points into a table … then it uses the
//! interpolation to compute g(z₀). The computation takes only constant time."
//!
//! [`LookupTable`] is that table, generic over the tabulated function.

/// A uniformly spaced 1-D lookup table over `[min, max]` with `omega`
/// sub-ranges (`omega + 1` stored samples) and linear interpolation.
#[derive(Debug, Clone, PartialEq)]
pub struct LookupTable {
    min: f64,
    max: f64,
    values: Vec<f64>,
}

impl LookupTable {
    /// Builds a table by sampling `f` at the `omega + 1` dividing points of
    /// `[min, max]`.
    pub fn build<F: FnMut(f64) -> f64>(min: f64, max: f64, omega: usize, mut f: F) -> Self {
        assert!(max > min, "lookup range must be non-empty");
        assert!(omega >= 1, "need at least one sub-range");
        let step = (max - min) / omega as f64;
        let values = (0..=omega).map(|i| f(min + i as f64 * step)).collect();
        Self { min, max, values }
    }

    /// Number of sub-ranges ω.
    pub fn omega(&self) -> usize {
        self.values.len() - 1
    }

    /// Evaluates the table at `x` with linear interpolation. Arguments outside
    /// `[min, max]` are clamped to the nearest endpoint value.
    #[inline]
    pub fn eval(&self, x: f64) -> f64 {
        self.prepared().eval(x)
    }

    /// A borrowed evaluator with the loop-invariant parts (range span, ω,
    /// value count) hoisted out, for hot loops that evaluate the same table
    /// many times. Produces bit-identical results to [`Self::eval`] — the
    /// interpolation arithmetic is unchanged, only recomputed invariants
    /// are cached.
    #[inline]
    pub fn prepared(&self) -> PreparedLookup<'_> {
        PreparedLookup {
            min: self.min,
            max: self.max,
            span: self.max - self.min,
            omega: (self.values.len() - 1) as f64,
            last: self.values.len() - 1,
            values: &self.values,
        }
    }

    /// Maximum absolute interpolation error against `f` measured on a probe
    /// grid `probes`-times finer than the table (useful for the ω ablation).
    pub fn max_error_against<F: Fn(f64) -> f64>(&self, f: F, probes_per_cell: usize) -> f64 {
        let n = self.omega() * probes_per_cell.max(1);
        let mut worst = 0.0f64;
        for i in 0..=n {
            let x = self.min + (self.max - self.min) * i as f64 / n as f64;
            worst = worst.max((self.eval(x) - f(x)).abs());
        }
        worst
    }
}

/// The hoisted-invariant evaluator returned by [`LookupTable::prepared`].
#[derive(Debug, Clone, Copy)]
pub struct PreparedLookup<'a> {
    min: f64,
    max: f64,
    span: f64,
    omega: f64,
    last: usize,
    values: &'a [f64],
}

impl<'a> PreparedLookup<'a> {
    /// Linear interpolation at `x`, clamped to the endpoint values outside
    /// `[min, max]`. Bit-identical to [`LookupTable::eval`].
    #[inline(always)]
    pub fn eval(&self, x: f64) -> f64 {
        if x <= self.min {
            return self.values[0];
        }
        if x >= self.max {
            return self.values[self.last];
        }
        // `t ∈ [0, ω]`, so the truncating cast equals the old
        // `t.floor() as usize` and both indices stay in bounds.
        let t = (x - self.min) / self.span * self.omega;
        let lo = t as usize;
        let hi = (lo + 1).min(self.last);
        let frac = t - lo as f64;
        self.values[lo] * (1.0 - frac) + self.values[hi] * frac
    }

    /// The constants of [`Self::eval`]'s float program, `(min, max, span,
    /// ω)`, for kernels that run it over several lanes at once.
    #[inline]
    pub fn constants(&self) -> (f64, f64, f64, f64) {
        (self.min, self.max, self.span, self.omega)
    }

    /// The `ω + 1` tabulated samples.
    #[inline]
    pub fn values(&self) -> &'a [f64] {
        self.values
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn exact_at_sample_points() {
        let t = LookupTable::build(0.0, 10.0, 10, |x| x * x);
        for i in 0..=10 {
            let x = i as f64;
            assert!((t.eval(x) - x * x).abs() < 1e-12);
        }
    }

    #[test]
    fn linear_functions_are_reproduced_exactly() {
        let t = LookupTable::build(-5.0, 5.0, 7, |x| 3.0 * x - 2.0);
        for i in 0..100 {
            let x = -5.0 + 10.0 * i as f64 / 99.0;
            assert!((t.eval(x) - (3.0 * x - 2.0)).abs() < 1e-12);
        }
    }

    #[test]
    fn clamps_out_of_range_arguments() {
        let t = LookupTable::build(0.0, 1.0, 4, |x| x);
        assert_eq!(t.eval(-3.0), 0.0);
        assert_eq!(t.eval(7.0), 1.0);
    }

    #[test]
    fn error_shrinks_as_omega_grows() {
        let f = |x: f64| (x / 40.0).sin();
        let coarse = LookupTable::build(0.0, 400.0, 16, f);
        let fine = LookupTable::build(0.0, 400.0, 256, f);
        let e_coarse = coarse.max_error_against(f, 8);
        let e_fine = fine.max_error_against(f, 8);
        assert!(e_fine < e_coarse);
        assert!(e_fine < 1e-3);
    }

    proptest! {
        #[test]
        fn prop_interpolation_between_neighbouring_samples(
            omega in 2usize..64,
            x in 0.0f64..100.0,
        ) {
            // For a monotone function the interpolated value must stay within
            // the two neighbouring samples.
            let f = |v: f64| v.sqrt();
            let t = LookupTable::build(0.0, 100.0, omega, f);
            let v = t.eval(x);
            let step = 100.0 / omega as f64;
            let lo = (x / step).floor() * step;
            let hi = (lo + step).min(100.0);
            prop_assert!(v >= f(lo) - 1e-9 && v <= f(hi) + 1e-9);
        }
    }
}
