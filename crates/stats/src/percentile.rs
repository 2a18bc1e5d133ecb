//! Percentiles / quantiles of empirical samples.
//!
//! LAD's detection thresholds are τ-percentiles of the metric values observed
//! on clean training deployments (§5.5): "the τ percent of the training
//! results should be within this selected threshold".

/// Returns the `q`-quantile (`q ∈ [0, 1]`) of `samples` using linear
/// interpolation between order statistics (the common "type 7" estimator).
///
/// Returns `None` when `samples` is empty. The input does not need to be
/// sorted; a sorted copy is made internally.
pub fn quantile(samples: &[f64], q: f64) -> Option<f64> {
    if samples.is_empty() {
        return None;
    }
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile fraction must be in [0, 1]"
    );
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in quantile input"));
    Some(quantile_sorted(&sorted, q))
}

/// Like [`quantile`] but assumes `sorted` is already ascending (no copy).
pub fn quantile_sorted(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of empty slice");
    assert!(
        (0.0..=1.0).contains(&q),
        "quantile fraction must be in [0, 1]"
    );
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    if lo == hi {
        sorted[lo]
    } else {
        let frac = pos - lo as f64;
        sorted[lo] * (1.0 - frac) + sorted[hi] * frac
    }
}

/// Returns the fraction of `samples` that are strictly greater than
/// `threshold` — the empirical false-positive rate of a "greater than
/// threshold ⇒ alarm" detector evaluated on clean data.
pub fn exceedance_fraction(samples: &[f64], threshold: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    samples.iter().filter(|&&v| v > threshold).count() as f64 / samples.len() as f64
}

/// The smallest observed value `t` such that at most a `rate` fraction of
/// `samples` are strictly greater than `t` — the budget-calibration
/// primitive: with a "value > t ⇒ act" rule, at most `rate` of the clean
/// population triggers the action.
///
/// Always feasible (no sample exceeds the maximum, so the maximum bounds any
/// rate); returns `None` only for an empty input.
///
/// # Panics
/// Panics when `rate ∉ [0, 1)` or a sample is NaN.
pub fn exceedance_threshold(samples: &[f64], rate: f64) -> Option<f64> {
    assert!(
        (0.0..1.0).contains(&rate),
        "exceedance rate must be in [0, 1), got {rate}"
    );
    if samples.is_empty() {
        return None;
    }
    let mut sorted: Vec<f64> = samples.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("NaN in exceedance_threshold input"));
    // At most `allowed` samples may sit strictly above the returned value;
    // the candidate is the order statistic just below that tail. Ties only
    // help (equal values do not exceed), so the bound holds exactly.
    let allowed = (rate * sorted.len() as f64).floor() as usize;
    Some(sorted[sorted.len() - 1 - allowed])
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn empty_input_returns_none() {
        assert!(quantile(&[], 0.5).is_none());
        assert_eq!(exceedance_fraction(&[], 1.0), 0.0);
    }

    #[test]
    fn single_element_is_every_quantile() {
        let s = [42.0];
        for &q in &[0.0, 0.25, 0.5, 1.0] {
            assert_eq!(quantile(&s, q), Some(42.0));
        }
    }

    #[test]
    fn median_and_extremes() {
        let s = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(quantile(&s, 0.5), Some(3.0));
        assert_eq!(quantile(&s, 0.0), Some(1.0));
        assert_eq!(quantile(&s, 1.0), Some(5.0));
    }

    #[test]
    fn interpolation_between_order_statistics() {
        let s = [10.0, 20.0];
        assert_eq!(quantile(&s, 0.5), Some(15.0));
        assert_eq!(quantile(&s, 0.25), Some(12.5));
    }

    #[test]
    fn exceedance_matches_threshold_semantics() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        assert_eq!(exceedance_fraction(&s, 3.0), 0.4);
        assert_eq!(exceedance_fraction(&s, 0.0), 1.0);
        assert_eq!(exceedance_fraction(&s, 5.0), 0.0);
    }

    #[test]
    fn tau_threshold_controls_training_fp() {
        // With the threshold at the tau percentile, at most (1 - tau) of the
        // training samples exceed it — the paper's training-set FP bound.
        let samples: Vec<f64> = (0..1000).map(|i| i as f64).collect();
        let tau = 0.99;
        let thr = quantile(&samples, tau).unwrap();
        assert!(exceedance_fraction(&samples, thr) <= 1.0 - tau + 1e-9);
    }

    #[test]
    fn exceedance_threshold_bounds_the_acting_fraction() {
        let s = [1.0, 2.0, 3.0, 4.0, 5.0];
        // rate 0: nothing may exceed -> the maximum.
        assert_eq!(exceedance_threshold(&s, 0.0), Some(5.0));
        // rate 0.2: exactly one sample may exceed.
        assert_eq!(exceedance_threshold(&s, 0.2), Some(4.0));
        assert_eq!(exceedance_threshold(&s, 0.5), Some(3.0));
        assert!(exceedance_threshold(&[], 0.1).is_none());
        // Ties do not exceed: a run of equal maxima still satisfies rate 0.
        let tied = [1.0, 7.0, 7.0, 7.0];
        assert_eq!(exceedance_threshold(&tied, 0.0), Some(7.0));
        assert_eq!(exceedance_fraction(&tied, 7.0), 0.0);
    }

    proptest! {
        #[test]
        fn prop_exceedance_threshold_honours_rate(
            xs in proptest::collection::vec(-1e3f64..1e3, 1..200),
            rate in 0.0f64..0.99,
        ) {
            let t = exceedance_threshold(&xs, rate).unwrap();
            prop_assert!(exceedance_fraction(&xs, t) <= rate + 1e-12);
            // And it is one of the samples (the smallest feasible one).
            prop_assert!(xs.contains(&t));
        }
    }

    proptest! {
        #[test]
        fn prop_quantile_within_range(mut xs in proptest::collection::vec(-1e3f64..1e3, 1..200), q in 0.0f64..1.0) {
            let v = quantile(&xs, q).unwrap();
            xs.sort_by(|a, b| a.partial_cmp(b).unwrap());
            prop_assert!(v >= xs[0] - 1e-9 && v <= xs[xs.len() - 1] + 1e-9);
        }

        #[test]
        fn prop_quantile_monotone_in_q(xs in proptest::collection::vec(-1e3f64..1e3, 1..200), a in 0.0f64..1.0, b in 0.0f64..1.0) {
            let (lo, hi) = if a < b { (a, b) } else { (b, a) };
            prop_assert!(quantile(&xs, lo).unwrap() <= quantile(&xs, hi).unwrap() + 1e-9);
        }

        #[test]
        fn prop_exceedance_bounded_by_tau(xs in proptest::collection::vec(-1e3f64..1e3, 2..300), tau in 0.5f64..1.0) {
            let thr = quantile(&xs, tau).unwrap();
            // Allow for ties/interpolation: exceedance can only be smaller or
            // marginally above (1 - tau) due to discreteness of the sample.
            let slack = 1.0 / xs.len() as f64 + 1e-9;
            prop_assert!(exceedance_fraction(&xs, thr) <= 1.0 - tau + slack);
        }
    }
}
