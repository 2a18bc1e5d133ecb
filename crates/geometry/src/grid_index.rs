//! A uniform-grid spatial index for fixed-radius neighbour queries.
//!
//! The WSN simulator has to answer "which of the N deployed sensors lie
//! within transmission range R of this point?" millions of times per
//! experiment. With N up to 100 groups × 1000 nodes this must not be an
//! O(N) scan. Because all queries use the same radius R, a uniform grid with
//! cell size = R is the classic HPC answer: a query inspects at most 9 cells.

use crate::point::Point2;
use crate::rect::Rect;

/// A uniform-grid bucket index over a set of points.
///
/// Points are identified by their insertion index (`usize`), which callers
/// typically map to node ids. The index is immutable after construction,
/// matching the paper's "sensors are static once deployed" assumption.
#[derive(Debug, Clone)]
pub struct GridIndex {
    bounds: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
    /// CSR-style storage: `starts[c]..starts[c+1]` indexes into `entries`.
    starts: Vec<u32>,
    entries: Vec<u32>,
    points: Vec<Point2>,
}

impl GridIndex {
    /// Builds an index over `points` with the given `cell` size.
    ///
    /// `bounds` should enclose (almost) all points; points outside are
    /// clamped into the boundary cells so they are never lost. `cell` is
    /// usually the query radius.
    pub fn build(bounds: Rect, cell: f64, points: &[Point2]) -> Self {
        assert!(cell > 0.0, "grid cell size must be positive");
        assert!(
            points.len() < u32::MAX as usize,
            "GridIndex supports at most u32::MAX points"
        );
        let cols = (bounds.width() / cell).ceil().max(1.0) as usize;
        let rows = (bounds.height() / cell).ceil().max(1.0) as usize;
        let ncells = cols * rows;

        // Counting sort of points into cells (two passes, no per-cell Vecs).
        let mut counts = vec![0u32; ncells + 1];
        let cell_of = |p: Point2| -> usize {
            let cx = (((p.x - bounds.min_x) / cell).floor() as isize).clamp(0, cols as isize - 1);
            let cy = (((p.y - bounds.min_y) / cell).floor() as isize).clamp(0, rows as isize - 1);
            cy as usize * cols + cx as usize
        };
        for &p in points {
            counts[cell_of(p) + 1] += 1;
        }
        for i in 0..ncells {
            counts[i + 1] += counts[i];
        }
        let starts = counts.clone();
        let mut cursor = counts;
        let mut entries = vec![0u32; points.len()];
        for (i, &p) in points.iter().enumerate() {
            let c = cell_of(p);
            entries[cursor[c] as usize] = i as u32;
            cursor[c] += 1;
        }

        Self {
            bounds,
            cell,
            cols,
            rows,
            starts,
            entries,
            points: points.to_vec(),
        }
    }

    /// Number of indexed points.
    pub fn len(&self) -> usize {
        self.points.len()
    }

    /// Whether the index is empty.
    pub fn is_empty(&self) -> bool {
        self.points.is_empty()
    }

    /// The bounds the index was built with.
    pub fn bounds(&self) -> Rect {
        self.bounds
    }

    /// The position of the point with insertion index `i`.
    pub fn point(&self, i: usize) -> Point2 {
        self.points[i]
    }

    /// Calls `visit(index, point)` for every point within `radius` of `query`
    /// (inclusive). Visits points in unspecified order.
    pub fn for_each_within<F: FnMut(usize, Point2)>(
        &self,
        query: Point2,
        radius: f64,
        mut visit: F,
    ) {
        self.for_each_within_sq(query, radius, |i, _d_sq| visit(i, self.points[i]));
    }

    /// Like [`Self::for_each_within`], but hands the visitor the already
    /// computed squared distance `query.distance_squared(point)` instead of
    /// the point, so callers that need the distance (e.g. a g(z) lookup)
    /// do not recompute it. Visits points in unspecified order.
    pub fn for_each_within_sq<F: FnMut(usize, f64)>(
        &self,
        query: Point2,
        radius: f64,
        mut visit: F,
    ) {
        let r2 = radius * radius;
        let min_cx = (((query.x - radius - self.bounds.min_x) / self.cell).floor() as isize)
            .clamp(0, self.cols as isize - 1) as usize;
        let max_cx = (((query.x + radius - self.bounds.min_x) / self.cell).floor() as isize)
            .clamp(0, self.cols as isize - 1) as usize;
        let min_cy = (((query.y - radius - self.bounds.min_y) / self.cell).floor() as isize)
            .clamp(0, self.rows as isize - 1) as usize;
        let max_cy = (((query.y + radius - self.bounds.min_y) / self.cell).floor() as isize)
            .clamp(0, self.rows as isize - 1) as usize;
        for cy in min_cy..=max_cy {
            for cx in min_cx..=max_cx {
                let c = cy * self.cols + cx;
                let lo = self.starts[c] as usize;
                let hi = self.starts[c + 1] as usize;
                for &e in &self.entries[lo..hi] {
                    let p = self.points[e as usize];
                    let d_sq = query.distance_squared(p);
                    if d_sq <= r2 {
                        visit(e as usize, d_sq);
                    }
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn random_points(n: usize, side: f64, seed: u64) -> Vec<Point2> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..n)
            .map(|_| Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side)))
            .collect()
    }

    fn brute_force(points: &[Point2], q: Point2, r: f64) -> Vec<usize> {
        let mut v: Vec<usize> = points
            .iter()
            .enumerate()
            .filter(|(_, p)| q.distance(**p) <= r)
            .map(|(i, _)| i)
            .collect();
        v.sort_unstable();
        v
    }

    /// The indices [`GridIndex::for_each_within`] visits, ascending.
    fn within(idx: &GridIndex, q: Point2, r: f64) -> Vec<usize> {
        let mut got = Vec::new();
        idx.for_each_within(q, r, |i, _| got.push(i));
        got.sort_unstable();
        got
    }

    #[test]
    fn empty_index_returns_nothing() {
        let idx = GridIndex::build(Rect::square(100.0), 10.0, &[]);
        assert!(idx.is_empty());
        assert!(within(&idx, Point2::new(50.0, 50.0), 25.0).is_empty());
    }

    #[test]
    fn matches_brute_force_on_random_points() {
        let side = 500.0;
        let points = random_points(2000, side, 42);
        let idx = GridIndex::build(Rect::square(side), 40.0, &points);
        assert_eq!(idx.len(), points.len());
        let mut rng = ChaCha8Rng::seed_from_u64(7);
        for _ in 0..50 {
            let q = Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side));
            assert_eq!(within(&idx, q, 40.0), brute_force(&points, q, 40.0));
        }
    }

    #[test]
    fn handles_points_outside_bounds() {
        let points = vec![
            Point2::new(-10.0, -10.0),
            Point2::new(110.0, 110.0),
            Point2::new(50.0, 50.0),
        ];
        let idx = GridIndex::build(Rect::square(100.0), 20.0, &points);
        // All three must be findable with a large enough radius.
        let got = within(&idx, Point2::new(50.0, 50.0), 200.0);
        assert_eq!(got.len(), 3);
        assert_eq!(idx.point(2), Point2::new(50.0, 50.0));
    }

    #[test]
    fn for_each_within_sq_reports_exact_squared_distances() {
        let points = random_points(300, 200.0, 11);
        let idx = GridIndex::build(Rect::square(200.0), 25.0, &points);
        let q = Point2::new(80.0, 120.0);
        let mut seen = Vec::new();
        idx.for_each_within_sq(q, 60.0, |i, d_sq| {
            assert_eq!(d_sq, q.distance_squared(points[i]), "point {i}");
            seen.push(i);
        });
        seen.sort_unstable();
        assert_eq!(seen, brute_force(&points, q, 60.0));
    }

    #[test]
    fn query_radius_larger_and_smaller_than_cell() {
        let points = random_points(500, 200.0, 3);
        let idx = GridIndex::build(Rect::square(200.0), 25.0, &points);
        for &r in &[5.0, 25.0, 80.0] {
            let q = Point2::new(100.0, 100.0);
            assert_eq!(within(&idx, q, r), brute_force(&points, q, r), "radius {r}");
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(32))]
        #[test]
        fn prop_grid_matches_brute_force(
            seed in 0u64..1000,
            n in 1usize..400,
            qx in 0.0f64..300.0,
            qy in 0.0f64..300.0,
            r in 1.0f64..120.0,
        ) {
            let points = random_points(n, 300.0, seed);
            let idx = GridIndex::build(Rect::square(300.0), 30.0, &points);
            prop_assert_eq!(within(&idx, Point2::new(qx, qy), r), brute_force(&points, Point2::new(qx, qy), r));
        }
    }
}
