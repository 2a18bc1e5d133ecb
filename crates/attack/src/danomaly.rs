//! D-anomaly injection (Definition 3 and §7.1 step 2 of the paper).
//!
//! A D-anomaly attack on localization leaves the victim believing it is at a
//! location `L_e` that is exactly `D` metres away from its actual location
//! `L_a`. The evaluation simulates this directly: `L_e` is drawn uniformly
//! over the directions at distance `D` from `L_a`, constrained to the
//! deployment area.

use lad_geometry::{sampling, Point2, Rect};
use rand::Rng;

/// Number of rejection-sampling tries before falling back to clamping.
const MAX_TRIES: usize = 64;

/// Draws the forged location `L_e` of a D-anomaly: a point at distance
/// `degree_of_damage` from `actual`, in a uniformly random direction,
/// constrained to `area`.
///
/// When `actual` is so close to the boundary that (almost) no direction stays
/// inside the area, the point is clamped to the boundary; the resulting error
/// is then *at most* `degree_of_damage`, which only makes the attack weaker.
pub fn displaced_location<R: Rng + ?Sized>(
    rng: &mut R,
    actual: Point2,
    degree_of_damage: f64,
    area: Rect,
) -> Point2 {
    assert!(
        degree_of_damage >= 0.0,
        "degree of damage must be non-negative"
    );
    sampling::at_distance_in_rect(rng, actual, degree_of_damage, area, MAX_TRIES)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    #[test]
    fn displaced_location_has_exact_distance_in_the_interior() {
        let mut rng = ChaCha8Rng::seed_from_u64(4);
        let area = Rect::square(1000.0);
        let actual = Point2::new(500.0, 500.0);
        for &d in &[40.0, 80.0, 120.0, 160.0] {
            for _ in 0..100 {
                let le = displaced_location(&mut rng, actual, d, area);
                assert!((actual.distance(le) - d).abs() < 1e-9);
                assert!(area.contains(le));
            }
        }
    }

    #[test]
    fn boundary_nodes_stay_inside_the_area() {
        let mut rng = ChaCha8Rng::seed_from_u64(5);
        let area = Rect::square(1000.0);
        let corner = Point2::new(3.0, 2.0);
        for _ in 0..200 {
            let le = displaced_location(&mut rng, corner, 150.0, area);
            assert!(area.contains(le));
            assert!(corner.distance(le) <= 150.0 + 1e-9);
        }
    }

    #[test]
    fn zero_damage_is_the_actual_location() {
        let mut rng = ChaCha8Rng::seed_from_u64(6);
        let area = Rect::square(100.0);
        let p = Point2::new(50.0, 50.0);
        let le = displaced_location(&mut rng, p, 0.0, area);
        assert!(p.distance(le) < 1e-9);
    }
}
