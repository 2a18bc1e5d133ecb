//! Numerical quadrature: composite Simpson and adaptive Simpson rules.
//!
//! Used to evaluate the Theorem-1 integral of the paper when building the
//! `g(z)` lookup table, and in tests to validate densities.

/// Composite Simpson's rule over `[a, b]` with `n` subintervals
/// (`n` is rounded up to the next even number; `n = 0` returns 0).
pub fn simpson<F: Fn(f64) -> f64>(f: F, a: f64, b: f64, n: usize) -> f64 {
    if n == 0 || a == b {
        return 0.0;
    }
    let n = if n.is_multiple_of(2) { n } else { n + 1 };
    let h = (b - a) / n as f64;
    let mut sum = f(a) + f(b);
    for i in 1..n {
        let x = a + i as f64 * h;
        sum += if i % 2 == 0 { 2.0 * f(x) } else { 4.0 * f(x) };
    }
    sum * h / 3.0
}

/// Adaptive Simpson quadrature over `[a, b]` with absolute tolerance `tol`.
///
/// Recursion depth is bounded by `max_depth`; when the bound is hit the
/// current best estimate is returned (the integrands in this workspace are
/// smooth, so this is a safety valve rather than an expected path).
pub fn adaptive_simpson<F: Fn(f64) -> f64 + Copy>(
    f: F,
    a: f64,
    b: f64,
    tol: f64,
    max_depth: usize,
) -> f64 {
    if a == b {
        return 0.0;
    }
    let fa = f(a);
    let fb = f(b);
    let m = 0.5 * (a + b);
    let fm = f(m);
    let whole = simpson_segment(a, b, fa, fm, fb);
    adaptive_rec(f, a, b, fa, fm, fb, whole, tol, max_depth)
}

fn simpson_segment(a: f64, b: f64, fa: f64, fm: f64, fb: f64) -> f64 {
    (b - a) / 6.0 * (fa + 4.0 * fm + fb)
}

#[allow(clippy::too_many_arguments)]
fn adaptive_rec<F: Fn(f64) -> f64 + Copy>(
    f: F,
    a: f64,
    b: f64,
    fa: f64,
    fm: f64,
    fb: f64,
    whole: f64,
    tol: f64,
    depth: usize,
) -> f64 {
    let m = 0.5 * (a + b);
    let lm = 0.5 * (a + m);
    let rm = 0.5 * (m + b);
    let flm = f(lm);
    let frm = f(rm);
    let left = simpson_segment(a, m, fa, flm, fm);
    let right = simpson_segment(m, b, fm, frm, fb);
    let delta = left + right - whole;
    if depth == 0 || delta.abs() <= 15.0 * tol {
        left + right + delta / 15.0
    } else {
        adaptive_rec(f, a, m, fa, flm, fm, left, tol * 0.5, depth - 1)
            + adaptive_rec(f, m, b, fm, frm, fb, right, tol * 0.5, depth - 1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use std::f64::consts::PI;

    #[test]
    fn simpson_polynomials_exact() {
        // Simpson is exact for cubics.
        let f = |x: f64| 3.0 * x * x * x - 2.0 * x * x + x - 7.0;
        let exact = |x: f64| 0.75 * x.powi(4) - 2.0 / 3.0 * x.powi(3) + 0.5 * x * x - 7.0 * x;
        let got = simpson(f, -1.0, 3.0, 2);
        assert!((got - (exact(3.0) - exact(-1.0))).abs() < 1e-9);
    }

    #[test]
    fn simpson_sine_quarter_period() {
        let got = simpson(|x| x.sin(), 0.0, PI, 512);
        assert!((got - 2.0).abs() < 1e-8);
    }

    #[test]
    fn adaptive_matches_fixed_on_smooth_function() {
        let f = |x: f64| (-x * x / 2.0).exp();
        let fixed = simpson(f, -8.0, 8.0, 1 << 14);
        let adaptive = adaptive_simpson(f, -8.0, 8.0, 1e-10, 30);
        assert!((fixed - adaptive).abs() < 1e-8);
        assert!((adaptive - (2.0 * PI).sqrt()).abs() < 1e-7);
    }

    #[test]
    fn odd_n_is_rounded_up_and_zero_width_is_zero() {
        let f = |x: f64| x;
        assert!((simpson(f, 0.0, 2.0, 3) - 2.0).abs() < 1e-12);
        assert_eq!(simpson(f, 1.0, 1.0, 100), 0.0);
        assert_eq!(simpson(f, 0.0, 1.0, 0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_adaptive_linear_exact(a in -10.0f64..10.0, b in -10.0f64..10.0, m in -5.0f64..5.0, c in -5.0f64..5.0) {
            let f = move |x: f64| m * x + c;
            let exact = m * (b * b - a * a) / 2.0 + c * (b - a);
            let got = adaptive_simpson(f, a, b, 1e-12, 20);
            prop_assert!((got - exact).abs() < 1e-7);
        }

        #[test]
        fn prop_simpson_reversal_negates(a in -5.0f64..5.0, b in -5.0f64..5.0) {
            let f = |x: f64| (x * 1.3).cos() + x * x;
            let fwd = simpson(f, a, b, 256);
            let bwd = simpson(f, b, a, 256);
            prop_assert!((fwd + bwd).abs() < 1e-9);
        }
    }
}
