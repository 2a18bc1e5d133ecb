//! Receiver Operating Characteristic (ROC) curves.
//!
//! The evaluation of the LAD paper (§7.4–7.5, Figures 4–6) is phrased in
//! terms of ROC curves: detection rate (DR) versus false-positive rate (FP)
//! obtained by sweeping the detection threshold. This module builds those
//! curves from two score samples:
//!
//! * `normal_scores` — metric values measured on clean (non-attacked) nodes,
//! * `anomaly_scores` — metric values measured on attacked nodes,
//!
//! under the convention that *larger scores are more anomalous* and an alarm
//! is raised when `score > threshold`. (Metrics with the opposite convention,
//! such as the probability metric, are negated by the caller.)

use serde::{Deserialize, Serialize};

/// One operating point of a ROC curve.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RocPoint {
    /// Detection threshold producing this point (alarm when score > threshold).
    pub threshold: f64,
    /// False-positive rate: fraction of normal scores above the threshold.
    pub false_positive_rate: f64,
    /// Detection rate (true-positive rate): fraction of anomaly scores above
    /// the threshold.
    pub detection_rate: f64,
}

/// A ROC curve built from empirical normal / anomaly score samples.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RocCurve {
    points: Vec<RocPoint>,
}

impl RocCurve {
    /// Builds the curve by sweeping the threshold across every distinct score.
    ///
    /// Both slices must be non-empty. The resulting points are sorted by
    /// increasing false-positive rate (ties broken by detection rate), and
    /// always include the trivial `(0, ·)` and `(1, 1)` endpoints.
    pub fn from_scores(normal_scores: &[f64], anomaly_scores: &[f64]) -> Self {
        assert!(!normal_scores.is_empty(), "need at least one normal score");
        assert!(
            !anomaly_scores.is_empty(),
            "need at least one anomaly score"
        );

        let mut normal: Vec<f64> = normal_scores.to_vec();
        let mut anomaly: Vec<f64> = anomaly_scores.to_vec();
        normal.sort_by(|a, b| a.partial_cmp(b).expect("NaN score"));
        anomaly.sort_by(|a, b| a.partial_cmp(b).expect("NaN score"));

        // Candidate thresholds: every distinct score plus sentinels at the ends.
        let mut thresholds: Vec<f64> = normal.iter().chain(anomaly.iter()).copied().collect();
        thresholds.sort_by(|a, b| a.partial_cmp(b).unwrap());
        thresholds.dedup();

        let count_above = |sorted: &[f64], thr: f64| -> usize {
            // Number of elements strictly greater than thr.
            sorted.len() - sorted.partition_point(|&v| v <= thr)
        };

        let n_n = normal.len() as f64;
        let n_a = anomaly.len() as f64;
        let mut points = Vec::with_capacity(thresholds.len() + 2);
        // Threshold below every score: everything alarms.
        let below_all = thresholds.first().copied().unwrap_or(0.0) - 1.0;
        points.push(RocPoint {
            threshold: below_all,
            false_positive_rate: 1.0,
            detection_rate: 1.0,
        });
        for &thr in &thresholds {
            points.push(RocPoint {
                threshold: thr,
                false_positive_rate: count_above(&normal, thr) as f64 / n_n,
                detection_rate: count_above(&anomaly, thr) as f64 / n_a,
            });
        }
        points.sort_by(|a, b| {
            a.false_positive_rate
                .partial_cmp(&b.false_positive_rate)
                .unwrap()
                .then(a.detection_rate.partial_cmp(&b.detection_rate).unwrap())
        });
        Self { points }
    }

    /// Builds a curve directly from pre-computed operating points (used by
    /// the streaming-accumulator layer in [`crate::streaming`], whose points
    /// come from binned counts rather than raw score vectors).
    ///
    /// The points are sorted by increasing false-positive rate (ties broken
    /// by detection rate); consecutive duplicates of the same `(fp, dr)`
    /// operating point are collapsed to the one with the largest threshold.
    pub fn from_points(mut points: Vec<RocPoint>) -> Self {
        assert!(!points.is_empty(), "a ROC curve needs at least one point");
        points.sort_by(|a, b| {
            a.false_positive_rate
                .partial_cmp(&b.false_positive_rate)
                .expect("NaN false-positive rate")
                .then(
                    a.detection_rate
                        .partial_cmp(&b.detection_rate)
                        .expect("NaN detection rate"),
                )
                .then(
                    a.threshold
                        .partial_cmp(&b.threshold)
                        .expect("NaN threshold"),
                )
        });
        points.dedup_by(|next, kept| {
            let same = next.false_positive_rate == kept.false_positive_rate
                && next.detection_rate == kept.detection_rate;
            if same {
                kept.threshold = kept.threshold.max(next.threshold);
            }
            same
        });
        Self { points }
    }

    /// The operating points, ordered by increasing false-positive rate.
    pub fn points(&self) -> &[RocPoint] {
        &self.points
    }

    /// Area under the curve via trapezoidal integration over FP.
    pub fn auc(&self) -> f64 {
        let mut area = 0.0;
        for w in self.points.windows(2) {
            let (a, b) = (w[0], w[1]);
            area += (b.false_positive_rate - a.false_positive_rate)
                * 0.5
                * (a.detection_rate + b.detection_rate);
        }
        area.clamp(0.0, 1.0)
    }

    /// The best achievable detection rate subject to a false-positive budget
    /// `max_fp` (e.g. the paper's FP = 1 % operating point for Figures 7–9).
    /// Returns 0 when no operating point satisfies the budget.
    pub fn detection_rate_at_fp(&self, max_fp: f64) -> f64 {
        self.points
            .iter()
            .filter(|p| p.false_positive_rate <= max_fp + 1e-12)
            .map(|p| p.detection_rate)
            .fold(0.0, f64::max)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn perfectly_separable_scores_give_auc_one() {
        let normal = [1.0, 2.0, 3.0];
        let anomaly = [10.0, 11.0, 12.0];
        let roc = RocCurve::from_scores(&normal, &anomaly);
        assert!((roc.auc() - 1.0).abs() < 1e-9);
        assert_eq!(roc.detection_rate_at_fp(0.0), 1.0);
    }

    #[test]
    fn identical_distributions_give_auc_half() {
        let scores: Vec<f64> = (0..100).map(|i| i as f64).collect();
        let roc = RocCurve::from_scores(&scores, &scores);
        assert!((roc.auc() - 0.5).abs() < 0.02);
    }

    #[test]
    fn inverted_scores_give_low_auc() {
        let normal = [10.0, 11.0, 12.0];
        let anomaly = [1.0, 2.0, 3.0];
        let roc = RocCurve::from_scores(&normal, &anomaly);
        assert!(roc.auc() < 0.1);
        assert_eq!(roc.detection_rate_at_fp(0.0), 0.0);
    }

    #[test]
    fn endpoints_are_present() {
        let roc = RocCurve::from_scores(&[0.0, 1.0], &[0.5, 2.0]);
        let pts = roc.points();
        assert!((pts[0].false_positive_rate - 0.0).abs() < 1e-12);
        let last = pts.last().unwrap();
        assert_eq!(last.false_positive_rate, 1.0);
        assert_eq!(last.detection_rate, 1.0);
    }

    #[test]
    fn detection_rate_at_fp_is_monotone_in_budget() {
        let normal: Vec<f64> = (0..200).map(|i| (i % 37) as f64).collect();
        let anomaly: Vec<f64> = (0..200).map(|i| (i % 53) as f64 + 10.0).collect();
        let roc = RocCurve::from_scores(&normal, &anomaly);
        let mut prev = 0.0;
        for fp in [0.0, 0.01, 0.05, 0.1, 0.5, 1.0] {
            let dr = roc.detection_rate_at_fp(fp);
            assert!(dr >= prev - 1e-12);
            prev = dr;
        }
    }

    #[test]
    #[should_panic]
    fn empty_normal_scores_panic() {
        let _ = RocCurve::from_scores(&[], &[1.0]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]
        #[test]
        fn prop_auc_in_unit_interval(
            normal in proptest::collection::vec(-100.0f64..100.0, 1..100),
            anomaly in proptest::collection::vec(-100.0f64..100.0, 1..100),
        ) {
            let roc = RocCurve::from_scores(&normal, &anomaly);
            let auc = roc.auc();
            prop_assert!((0.0..=1.0).contains(&auc));
        }

        #[test]
        fn prop_rates_are_valid_probabilities(
            normal in proptest::collection::vec(-100.0f64..100.0, 1..60),
            anomaly in proptest::collection::vec(-100.0f64..100.0, 1..60),
        ) {
            let roc = RocCurve::from_scores(&normal, &anomaly);
            for p in roc.points() {
                prop_assert!((0.0..=1.0).contains(&p.false_positive_rate));
                prop_assert!((0.0..=1.0).contains(&p.detection_rate));
            }
        }
    }
}
