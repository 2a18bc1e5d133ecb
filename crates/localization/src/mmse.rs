//! Minimum mean square estimation (MMSE) multilateration.
//!
//! Given reference points with distance estimates, solve for the position
//! minimising the squared range residuals. The related-work section of the
//! paper notes that "almost all of the range-based localization schemes and
//! some range-free schemes … eventually reduce localization to a Minimum
//! Mean Square Estimation problem"; DV-Hop uses this solver.

use lad_geometry::Point2;

/// A single range measurement: a reference position and the estimated
/// distance to it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RangeMeasurement {
    /// Position of the reference (anchor).
    pub reference: Point2,
    /// Estimated distance from the unknown node to the reference.
    pub distance: f64,
}

/// Solves the multilateration problem by the standard linearisation: each
/// equation is subtracted from the last one, producing a linear system
/// `A·[x, y]ᵀ = b` solved by 2×2 normal equations.
///
/// Returns `None` with fewer than three measurements or when the system is
/// degenerate (collinear references).
pub fn solve(measurements: &[RangeMeasurement]) -> Option<Point2> {
    if measurements.len() < 3 {
        return None;
    }
    let last = measurements.last().expect("non-empty");
    let (xn, yn, dn) = (last.reference.x, last.reference.y, last.distance);

    // Normal-equation accumulators for the (len-1) × 2 system.
    let (mut a11, mut a12, mut a22, mut b1, mut b2) = (0.0f64, 0.0, 0.0, 0.0, 0.0);
    for m in &measurements[..measurements.len() - 1] {
        let (xi, yi, di) = (m.reference.x, m.reference.y, m.distance);
        let ai1 = 2.0 * (xi - xn);
        let ai2 = 2.0 * (yi - yn);
        let bi = xi * xi - xn * xn + yi * yi - yn * yn + dn * dn - di * di;
        a11 += ai1 * ai1;
        a12 += ai1 * ai2;
        a22 += ai2 * ai2;
        b1 += ai1 * bi;
        b2 += ai2 * bi;
    }
    let det = a11 * a22 - a12 * a12;
    if det.abs() < 1e-9 {
        return None;
    }
    let x = (a22 * b1 - a12 * b2) / det;
    let y = (a11 * b2 - a12 * b1) / det;
    let p = Point2::new(x, y);
    p.is_finite().then_some(p)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn measurements_from(truth: Point2, anchors: &[Point2]) -> Vec<RangeMeasurement> {
        anchors
            .iter()
            .map(|&a| RangeMeasurement {
                reference: a,
                distance: truth.distance(a),
            })
            .collect()
    }

    #[test]
    fn exact_ranges_recover_the_position() {
        let truth = Point2::new(123.0, 456.0);
        let anchors = [
            Point2::new(0.0, 0.0),
            Point2::new(1000.0, 0.0),
            Point2::new(0.0, 1000.0),
            Point2::new(1000.0, 1000.0),
        ];
        let m = measurements_from(truth, &anchors);
        let got = solve(&m).unwrap();
        assert!(got.distance(truth) < 1e-6);
    }

    #[test]
    fn too_few_or_collinear_anchors_fail() {
        let truth = Point2::new(10.0, 10.0);
        assert!(solve(&measurements_from(truth, &[Point2::new(0.0, 0.0)])).is_none());
        let collinear = [
            Point2::new(0.0, 0.0),
            Point2::new(100.0, 0.0),
            Point2::new(200.0, 0.0),
        ];
        assert!(solve(&measurements_from(truth, &collinear)).is_none());
    }

    #[test]
    fn noisy_ranges_stay_close() {
        let truth = Point2::new(400.0, 300.0);
        let anchors = [
            Point2::new(100.0, 100.0),
            Point2::new(900.0, 150.0),
            Point2::new(150.0, 900.0),
            Point2::new(850.0, 850.0),
            Point2::new(500.0, 100.0),
        ];
        let mut m = measurements_from(truth, &anchors);
        for (i, meas) in m.iter_mut().enumerate() {
            meas.distance *= 1.0 + if i % 2 == 0 { 0.03 } else { -0.03 };
        }
        let got = solve(&m).unwrap();
        assert!(got.distance(truth) < 40.0, "error {}", got.distance(truth));
    }

    #[test]
    fn single_bad_anchor_skews_the_estimate() {
        // The attack discussed in §6.3: one compromised anchor declaring a
        // false position introduces a large error.
        let truth = Point2::new(500.0, 500.0);
        let anchors = [
            Point2::new(100.0, 100.0),
            Point2::new(900.0, 100.0),
            Point2::new(500.0, 900.0),
        ];
        let mut m = measurements_from(truth, &anchors);
        // The compromised anchor reports a distance as if the node were 300 m away
        // from where it actually is.
        m[0].distance = truth.distance(Point2::new(100.0, 100.0)) + 300.0;
        let got = solve(&m).unwrap();
        assert!(
            got.distance(truth) > 80.0,
            "attack should skew the estimate"
        );
    }

    proptest! {
        #[test]
        fn prop_exact_ranges_recover_position(x in 50.0f64..950.0, y in 50.0f64..950.0) {
            let truth = Point2::new(x, y);
            let anchors = [
                Point2::new(0.0, 0.0),
                Point2::new(1000.0, 20.0),
                Point2::new(30.0, 1000.0),
                Point2::new(980.0, 970.0),
            ];
            let m = measurements_from(truth, &anchors);
            let got = solve(&m).unwrap();
            prop_assert!(got.distance(truth) < 1e-4);
        }
    }
}
