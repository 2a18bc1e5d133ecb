//! Random point generators used by the deployment simulator and the attack
//! injector.
//!
//! All generators take a caller-supplied [`rand::Rng`] so that experiments
//! remain reproducible under a fixed seed regardless of thread scheduling.

use crate::point::Point2;
use crate::rect::Rect;
use rand::Rng;
use std::f64::consts::TAU;

/// Samples a point uniformly at random inside `rect`.
pub fn uniform_in_rect<R: Rng + ?Sized>(rng: &mut R, rect: Rect) -> Point2 {
    Point2::new(
        rng.gen_range(rect.min_x..=rect.max_x),
        rng.gen_range(rect.min_y..=rect.max_y),
    )
}

/// Samples a point at *exactly* distance `dist` from `anchor`, in a uniformly
/// random direction. Used to create the `|L_e − L_a| = D` displaced locations
/// of a D-anomaly attack (paper §7.1, step 2).
pub fn at_distance<R: Rng + ?Sized>(rng: &mut R, anchor: Point2, dist: f64) -> Point2 {
    let theta = rng.gen_range(0.0..TAU);
    anchor.offset_polar(dist, theta)
}

/// Samples a point at exactly distance `dist` from `anchor` whose position is
/// additionally constrained to lie within `bounds`.
///
/// Guarantees, in priority order:
///
/// 1. the result is never farther than `dist` from `anchor` (exact for
///    rejection-sampling hits);
/// 2. the result lies within `bounds` whenever the two constraints are
///    jointly satisfiable along the fallback direction — in particular
///    always when `anchor` itself is in `bounds`. An anchor more than
///    `dist` outside `bounds` (e.g. a resident point that spilled past the
///    deployment area) cannot reach them, and the fallback then returns the
///    in-budget point closest to `bounds`.
pub fn at_distance_in_rect<R: Rng + ?Sized>(
    rng: &mut R,
    anchor: Point2,
    dist: f64,
    bounds: Rect,
    max_tries: usize,
) -> Point2 {
    for _ in 0..max_tries {
        let p = at_distance(rng, anchor, dist);
        if bounds.contains(p) {
            return p;
        }
    }
    // Deterministic fallback: head for the nearest in-bounds point.
    let proj = bounds.clamp(anchor);
    let d = anchor.distance(proj);
    if d == 0.0 {
        // Anchor is inside `bounds` but every sampled direction left them:
        // clamping a point at distance `dist` keeps the distance ≤ `dist`
        // (projection onto a convex set containing the anchor).
        return bounds.clamp(at_distance(rng, anchor, dist));
    }
    let t = dist / d;
    if t <= 1.0 {
        // `bounds` are out of reach: the in-budget point closest to them.
        return Point2::new(
            anchor.x + (proj.x - anchor.x) * t,
            anchor.y + (proj.y - anchor.y) * t,
        );
    }
    // Overshoot through the nearest boundary point to land at exactly
    // `dist`; the clamp only engages if that exits the far side of the
    // bounds, and componentwise it can only move the point back towards the
    // anchor, so the distance stays ≤ `dist`.
    bounds.clamp(Point2::new(
        anchor.x + (proj.x - anchor.x) * t,
        anchor.y + (proj.y - anchor.y) * t,
    ))
}

/// Samples a 2-D Gaussian displacement with standard deviation `sigma` per
/// axis, added to `center`. This is the resident-point distribution of the
/// paper's deployment model (§3.2) — isotropic, mean at the deployment point.
///
/// Uses the Box–Muller transform so only `rand`'s uniform source is needed.
pub fn gaussian_around<R: Rng + ?Sized>(rng: &mut R, center: Point2, sigma: f64) -> Point2 {
    let (dx, dy) = gaussian_pair(rng, sigma);
    Point2::new(center.x + dx, center.y + dy)
}

/// Returns a pair of independent zero-mean Gaussian samples with standard
/// deviation `sigma` (Box–Muller).
pub fn gaussian_pair<R: Rng + ?Sized>(rng: &mut R, sigma: f64) -> (f64, f64) {
    // Avoid u1 == 0 which would make ln blow up.
    let u1: f64 = loop {
        let u = rng.gen::<f64>();
        if u > f64::MIN_POSITIVE {
            break u;
        }
    };
    let u2: f64 = rng.gen();
    let mag = sigma * (-2.0 * u1.ln()).sqrt();
    (mag * (TAU * u2).cos(), mag * (TAU * u2).sin())
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn rng(seed: u64) -> ChaCha8Rng {
        ChaCha8Rng::seed_from_u64(seed)
    }

    #[test]
    fn uniform_in_rect_stays_inside() {
        let mut r = rng(1);
        let rect = Rect::new(10.0, 20.0, 30.0, 25.0);
        for _ in 0..1000 {
            assert!(rect.contains(uniform_in_rect(&mut r, rect)));
        }
    }

    #[test]
    fn at_distance_is_exact() {
        let mut r = rng(3);
        let a = Point2::new(100.0, 200.0);
        for _ in 0..500 {
            let p = at_distance(&mut r, a, 77.5);
            assert!((a.distance(p) - 77.5).abs() < 1e-9);
        }
    }

    #[test]
    fn at_distance_in_rect_respects_bounds() {
        let mut r = rng(4);
        let bounds = Rect::square(1000.0);
        let a = Point2::new(500.0, 500.0);
        for _ in 0..200 {
            let p = at_distance_in_rect(&mut r, a, 120.0, bounds, 32);
            assert!(bounds.contains(p));
            assert!((a.distance(p) - 120.0).abs() < 1e-9);
        }
        // Anchor in a corner with a huge distance: clamped fallback still in bounds.
        let corner = Point2::new(0.0, 0.0);
        let p = at_distance_in_rect(&mut r, corner, 5000.0, bounds, 8);
        assert!(bounds.contains(p));
    }

    #[test]
    fn gaussian_around_moments() {
        let mut r = rng(5);
        let c = Point2::new(150.0, 150.0);
        let sigma = 50.0;
        let n = 50_000;
        let (mut sx, mut sy, mut sxx, mut syy) = (0.0, 0.0, 0.0, 0.0);
        for _ in 0..n {
            let p = gaussian_around(&mut r, c, sigma);
            sx += p.x - c.x;
            sy += p.y - c.y;
            sxx += (p.x - c.x).powi(2);
            syy += (p.y - c.y).powi(2);
        }
        let nf = n as f64;
        assert!((sx / nf).abs() < 1.5, "mean x drift {}", sx / nf);
        assert!((sy / nf).abs() < 1.5, "mean y drift {}", sy / nf);
        assert!(((sxx / nf).sqrt() - sigma).abs() < 1.5);
        assert!(((syy / nf).sqrt() - sigma).abs() < 1.5);
    }

    #[test]
    fn at_distance_in_rect_honors_both_contracts_for_outside_anchors() {
        let bounds = Rect::new(0.0, 0.0, 1000.0, 1000.0);
        let mut r = rng(7);
        // Anchor outside the bounds with enough budget to reach them: the
        // result must be in bounds AND within the distance budget.
        let reachable = Point2::new(-50.0, 500.0);
        for _ in 0..50 {
            let p = at_distance_in_rect(&mut r, reachable, 120.0, bounds, 8);
            assert!(bounds.contains(p), "{p:?} should be inside");
            assert!(reachable.distance(p) <= 120.0 + 1e-9);
        }
        // Anchor too far outside to reach the bounds: the distance budget
        // still binds, and the point lands as close to the bounds as it
        // allows.
        let unreachable = Point2::new(-500.0, 500.0);
        let p = at_distance_in_rect(&mut r, unreachable, 30.0, bounds, 8);
        assert!(unreachable.distance(p) <= 30.0 + 1e-9);
        assert!(
            (p.x - (-470.0)).abs() < 1e-9,
            "should head straight for the bounds: {p:?}"
        );
    }

    #[test]
    fn gaussian_pair_is_deterministic_under_seed() {
        let mut a = rng(99);
        let mut b = rng(99);
        for _ in 0..100 {
            assert_eq!(gaussian_pair(&mut a, 2.0), gaussian_pair(&mut b, 2.0));
        }
    }
}
