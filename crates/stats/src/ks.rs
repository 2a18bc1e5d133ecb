//! Two-sample Kolmogorov–Smirnov distance.
//!
//! Used by the deployment-model-mismatch ablation (paper §8 future work) to
//! quantify how far the clean metric-score distribution drifts when the real
//! deployment no longer matches the knowledge the detector was trained with.

/// The two-sample Kolmogorov–Smirnov statistic: the maximum absolute
/// difference between the empirical CDFs of `a` and `b`.
///
/// Returns 0 when either sample is empty.
pub fn ks_statistic(a: &[f64], b: &[f64]) -> f64 {
    if a.is_empty() || b.is_empty() {
        return 0.0;
    }
    let mut sa: Vec<f64> = a.to_vec();
    let mut sb: Vec<f64> = b.to_vec();
    sa.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS input"));
    sb.sort_by(|x, y| x.partial_cmp(y).expect("NaN in KS input"));

    let (na, nb) = (sa.len() as f64, sb.len() as f64);
    let (mut ia, mut ib) = (0usize, 0usize);
    let mut d = 0.0f64;
    while ia < sa.len() && ib < sb.len() {
        let va = sa[ia];
        let vb = sb[ib];
        if va <= vb {
            ia += 1;
        }
        if vb <= va {
            ib += 1;
        }
        d = d.max((ia as f64 / na - ib as f64 / nb).abs());
    }
    d.min(1.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn identical_samples_have_zero_distance() {
        let a: Vec<f64> = (0..100).map(|i| i as f64).collect();
        assert_eq!(ks_statistic(&a, &a), 0.0);
    }

    #[test]
    fn disjoint_samples_have_distance_one() {
        let a: Vec<f64> = (0..50).map(|i| i as f64).collect();
        let b: Vec<f64> = (100..150).map(|i| i as f64).collect();
        assert!((ks_statistic(&a, &b) - 1.0).abs() < 1e-12);
    }

    #[test]
    fn shifted_distributions_have_intermediate_distance() {
        let a: Vec<f64> = (0..200).map(|i| i as f64 / 10.0).collect();
        let b: Vec<f64> = (0..200).map(|i| i as f64 / 10.0 + 5.0).collect();
        let d = ks_statistic(&a, &b);
        assert!(d > 0.2 && d < 0.5, "d = {d}");
    }

    #[test]
    fn empty_samples_are_neutral() {
        assert_eq!(ks_statistic(&[], &[1.0]), 0.0);
        assert_eq!(ks_statistic(&[1.0], &[]), 0.0);
    }

    proptest! {
        #[test]
        fn prop_ks_is_symmetric_and_bounded(
            a in proptest::collection::vec(-1e3f64..1e3, 1..100),
            b in proptest::collection::vec(-1e3f64..1e3, 1..100),
        ) {
            let d1 = ks_statistic(&a, &b);
            let d2 = ks_statistic(&b, &a);
            prop_assert!((d1 - d2).abs() < 1e-12);
            prop_assert!((0.0..=1.0).contains(&d1));
        }
    }
}
