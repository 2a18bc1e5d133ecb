//! The deployment knowledge object shared by all sensors.
//!
//! [`DeploymentKnowledge`] bundles everything a sensor is assumed to know
//! before deployment (§3 of the paper): the deployment points of all groups,
//! the placement distribution, the group size `m`, the transmission range `R`
//! and the precomputed `g(z)` table. One float program computes `g_i(θ)` and
//! the expected observation `µ_i(θ) = m · g_i(θ)`: a gather of the g(z)
//! support (the groups within `z_max` of `θ`, through a spatial index) and
//! the [`PreparedGz`](crate::PreparedGz) map over it. The LAD detector reads
//! µ from it, sparse or densified, and the beaconless localizer reads `g`
//! (the same fill at `m = 1`).

use crate::config::DeploymentConfig;
use crate::gz::GzTable;
use crate::layout::DeploymentLayout;
use crate::mu_cache::MuCache;
use crate::placement::PlacementModel;
use crate::sparse::{MuView, SparseMu, SupportIndex};
use lad_geometry::Point2;
use std::sync::Arc;

/// Pre-deployment knowledge stored on every sensor.
///
/// Besides the grid layout and the g(z) table, the knowledge object
/// precomputes a spatial support index over the deployment points (per-cell
/// sorted candidate lists, cells sized from the g(z) tail `z_max`), so the
/// **support** of `µ(θ)` — the groups within `z_max` of `θ`, the only ones
/// with `g_i(θ) ≠ 0` — can be enumerated in O(k) by
/// [`Self::expected_sparse_into`] (µ) and [`Self::support_g_into`] (g)
/// instead of scanning all `n` groups; the dense
/// [`Self::expected_observation`] scatters the same fill.
/// Everything here derives from the [`DeploymentConfig`], which is what
/// engine artifacts carry.
#[derive(Debug, Clone)]
pub struct DeploymentKnowledge {
    config: DeploymentConfig,
    layout: DeploymentLayout,
    gz: GzTable,
    /// Precomputed per-cell support candidate lists (see [`SupportIndex`]).
    support: SupportIndex,
}

impl DeploymentKnowledge {
    /// Builds the knowledge object for the grid layout described by
    /// `config` with the paper's Gaussian placement.
    pub fn from_config(config: &DeploymentConfig) -> Self {
        config.validate().expect("invalid deployment configuration");
        let layout = DeploymentLayout::grid(config);
        let gz = GzTable::build(config.range, config.sigma, config.gz_table_omega);
        let support = SupportIndex::build(layout.deployment_points(), layout.area(), gz.z_max());
        Self {
            config: *config,
            layout,
            gz,
            support,
        }
    }

    /// Convenience: an [`Arc`]-wrapped knowledge object, which is how the
    /// simulator shares it across threads.
    pub fn shared(config: &DeploymentConfig) -> Arc<Self> {
        Arc::new(Self::from_config(config))
    }

    /// The deployment configuration.
    pub fn config(&self) -> &DeploymentConfig {
        &self.config
    }

    /// The deployment-point layout.
    pub fn layout(&self) -> &DeploymentLayout {
        &self.layout
    }

    /// The placement model: the Gaussian with the configured σ.
    pub fn placement(&self) -> PlacementModel {
        PlacementModel::gaussian(self.config.sigma)
    }

    /// The precomputed g(z) table.
    pub fn gz_table(&self) -> &GzTable {
        &self.gz
    }

    /// Number of deployment groups `n`.
    pub fn group_count(&self) -> usize {
        self.layout.group_count()
    }

    /// Group size `m` (sensors per group).
    pub fn group_size(&self) -> usize {
        self.config.group_size
    }

    /// Transmission range `R`.
    pub fn range(&self) -> f64 {
        self.config.range
    }

    /// The expected observation `µ(θ)` with `µ_i = m · g_i(θ)` (Equation 2 of
    /// the paper), dense: the sparse fill of
    /// [`Self::expected_sparse_into`] scattered into a zeroed vector
    /// (O(n); for tests and one-off callers — a loop reuses a [`SparseMu`]
    /// and a buffer through [`SparseMu::to_dense_into`]).
    pub fn expected_observation(&self, theta: Point2) -> Vec<f64> {
        let mut mu = SparseMu::new();
        self.expected_sparse_into(theta, &mut mu);
        mu.to_dense()
    }

    /// Fills `out` with the **sparse** expected observation at `θ`: the
    /// group ids and µ values of the g(z) support (groups within `z_max` of
    /// `θ`), sorted by group index, reusing `out`'s allocations.
    ///
    /// Filling is O(k) in the support size k, not the group count n: the
    /// precomputed spatial index enumerates the support directly instead of
    /// scanning every deployment point. The support is **exact**, not
    /// approximate: every group outside it has `g_i(θ) = 0`, so this is the
    /// one program that computes µ, dense or sparse, and the sparse scoring
    /// kernels reproduce the dense scores bit for bit. A NaN `θ` has an
    /// empty support.
    pub fn expected_sparse_into(&self, theta: Point2, out: &mut SparseMu) {
        self.gather_support(theta, out);
        let m = self.group_size() as f64;
        self.gz.prepared().mu_in_place(m, out.values_mut());
    }

    /// [`Self::expected_sparse_into`] at `m = 1`: `out`'s values are
    /// `g_i(θ)` over the support, bit for bit the µ program's `g` (`1.0 · g`
    /// is `g`). The beaconless localizer reads its likelihood from this.
    pub fn support_g_into(&self, theta: Point2, out: &mut SparseMu) {
        self.gather_support(theta, out);
        self.gz.prepared().mu_in_place(1.0, out.values_mut());
    }

    /// Phase 1 of the sparse fill — gather: the support's group ids, each
    /// with its squared distance to `θ` parked in the µ slot. Both paths
    /// keep exactly the groups with `d² < z_max²` (beyond `z_max` the table
    /// gives `g = 0`) and visit candidates in ascending group order, so
    /// the entries come out sorted with no per-query sort (the indexed
    /// candidate lists are pre-sorted, the fallback scans in index order).
    fn gather_support(&self, theta: Point2, out: &mut SparseMu) {
        out.reset(self.group_count(), self.group_size());
        let z_max = self.gz.z_max();
        let z_max_sq = z_max * z_max;
        let points = self.layout.deployment_points();
        match self.support.candidates(theta) {
            Some(candidates) => out.gather(
                candidates
                    .iter()
                    .map(|&g| (g, points[g as usize].distance_squared(theta))),
                z_max_sq,
            ),
            // θ beyond the padded index bounds (degenerate estimates far
            // off the area): exact O(n) scan, same filter, same order.
            None => out.gather(
                points
                    .iter()
                    .enumerate()
                    .map(|(g, dp)| (g as u32, dp.distance_squared(theta))),
                z_max_sq,
            ),
        }
    }

    /// Phase 2 of a cached fill — the map from the gathered squared
    /// distances to µ, written straight into the cache slot
    /// ([`PreparedGz::mu_into`](crate::PreparedGz::mu_into)). Same float
    /// program as [`Self::expected_sparse_into`]: µ = m · g(√d²).
    fn mu_of_distance_sq(&self) -> impl Fn(&[f64], &mut [f64]) + '_ {
        let m = self.group_size() as f64;
        let gz = self.gz.prepared();
        move |d_sq, mu| gz.mu_into(m, d_sq, mu)
    }

    /// The sparse expected observation at `θ`, memoized through `cache`.
    ///
    /// A miss runs the two phases of [`Self::expected_sparse_into`] — the
    /// gather into the cache's scratch, the µ map straight into the slot's
    /// exact-size arrays; a hit returns a view of what that fill produced
    /// for the **same estimate bits**, read in place from the slot —
    /// bit-identical to the uncached call by construction (see
    /// [`MuCache`]). The cache must be used with a single
    /// `DeploymentKnowledge`; pairing it with another deployment returns
    /// that deployment's stale µ values.
    pub fn expected_sparse_cached<'c>(&self, theta: Point2, cache: &'c mut MuCache) -> MuView<'c> {
        cache.get_or_fill(
            theta,
            |out| self.gather_support(theta, out),
            self.mu_of_distance_sq(),
        )
    }

    /// [`Self::expected_sparse_cached`] for every estimate of a batch, in
    /// order, calling `f(row, µ)` with each memoized µ. The lookups are
    /// software-pipelined (see [`mu_cache`](crate::mu_cache)): the cache
    /// lines a hit reads are prefetched a few rows ahead, so a batch whose
    /// sets went cold overlaps those misses instead of waiting on one at a
    /// time. Every µ, the cache's replacement decisions and its
    /// `(hits, misses)` equal the row-at-a-time loop.
    pub fn for_each_mu_cached<F>(&self, estimates: &[Point2], cache: &mut MuCache, f: F)
    where
        F: FnMut(usize, MuView<'_>),
    {
        cache.for_each_or_fill(
            estimates,
            |theta, out| self.gather_support(theta, out),
            self.mu_of_distance_sq(),
            f,
        );
    }

    /// Upper end of the tabulated g(z) domain — the radius of the support
    /// disk around an estimate (`z_max = R + 6σ`).
    pub fn support_radius(&self) -> f64 {
        self.gz.z_max()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn knowledge() -> DeploymentKnowledge {
        DeploymentKnowledge::from_config(&DeploymentConfig::paper_default())
    }

    /// `g_i(θ)` for every group, densified from [`DeploymentKnowledge::support_g_into`].
    fn g_dense(k: &DeploymentKnowledge, theta: Point2) -> Vec<f64> {
        let mut g = SparseMu::new();
        k.support_g_into(theta, &mut g);
        g.to_dense()
    }

    /// Theorem 1 group by group, with no support index: the table read at
    /// the distance to each deployment point.
    fn brute_g(k: &DeploymentKnowledge, theta: Point2) -> Vec<f64> {
        k.layout()
            .deployment_points()
            .iter()
            .map(|dp| k.gz_table().eval(dp.distance(theta)))
            .collect()
    }

    #[test]
    fn g_i_is_largest_for_own_group_at_deployment_point() {
        let k = knowledge();
        let dp = k.layout().deployment_point(55);
        let g = g_dense(&k, dp);
        let g_own = g[55];
        assert!(g.iter().all(|&other| other <= g_own + 1e-12));
        assert!(
            g_own > 0.2,
            "g at the deployment point should be substantial"
        );
    }

    #[test]
    fn expected_observation_has_group_count_entries_and_is_nonnegative() {
        let k = knowledge();
        let mu = k.expected_observation(Point2::new(430.0, 510.0));
        assert_eq!(mu.len(), 100);
        assert!(mu.iter().all(|&v| v >= 0.0));
        assert!(mu.iter().all(|&v| v <= k.group_size() as f64));
    }

    #[test]
    fn expected_neighbor_count_in_interior_matches_density_estimate() {
        // Node density is N/area = 30000/1e6 = 0.03 nodes/m²; a disk of radius
        // 40 covers ~5026 m², so the interior expectation is ≈ 150 neighbours.
        let k = knowledge();
        let center = Point2::new(500.0, 500.0);
        let expected: f64 = k.expected_observation(center).iter().sum();
        assert!(
            (expected - 150.0).abs() < 15.0,
            "interior expected neighbour count {expected} should be near 150"
        );
    }

    #[test]
    fn expected_neighbor_count_drops_near_the_corner() {
        let k = knowledge();
        let interior: f64 = k
            .expected_observation(Point2::new(500.0, 500.0))
            .iter()
            .sum();
        let corner: f64 = k.expected_observation(Point2::new(5.0, 5.0)).iter().sum();
        assert!(
            corner < interior * 0.6,
            "corner {corner} vs interior {interior}"
        );
    }

    #[test]
    fn observations_at_distant_points_differ_strongly() {
        // The premise of LAD (Figure 1): the expected observations at two
        // far-apart points O and P differ substantially.
        let k = knowledge();
        let o = k.expected_observation(Point2::new(250.0, 350.0));
        let p = k.expected_observation(Point2::new(650.0, 450.0));
        let l1: f64 = o.iter().zip(&p).map(|(a, b)| (a - b).abs()).sum();
        assert!(l1 > 100.0, "observations should differ strongly, L1 = {l1}");
    }

    #[test]
    fn sparse_expected_matches_dense_bit_for_bit() {
        let k = knowledge();
        let mut smu = crate::SparseMu::new();
        for theta in [
            Point2::new(430.0, 510.0),
            Point2::new(5.0, 5.0),       // corner
            Point2::new(-200.0, 500.0),  // outside the area
            Point2::new(5000.0, 5000.0), // far outside: empty support
        ] {
            let m = k.group_size() as f64;
            let dense: Vec<f64> = brute_g(&k, theta).iter().map(|g| m * g).collect();
            k.expected_sparse_into(theta, &mut smu);
            assert_eq!(smu.group_count(), k.group_count());
            assert_eq!(smu.group_size(), k.group_size());
            // Every nonzero of the brute scan appears sparsely with the
            // identical bits…
            assert_eq!(smu.to_dense(), dense, "dense mismatch at {theta:?}");
            assert_eq!(k.expected_observation(theta), dense);
            // …and the entries are sorted and unique.
            assert!(smu.view().groups().windows(2).all(|w| w[0] < w[1]));
        }
        k.expected_sparse_into(Point2::new(5000.0, 5000.0), &mut smu);
        assert!(smu.is_empty());
    }

    #[test]
    fn grid_backed_support_equals_brute_force_within_z_max() {
        // Regression: the spatial index must enumerate exactly the groups a
        // brute-force scan finds within z_max (strictly, matching the dense
        // kernel's early-out).
        let k = knowledge();
        let z_max = k.support_radius();
        assert_eq!(z_max, k.gz_table().z_max());
        let mut smu = crate::SparseMu::new();
        for (i, theta) in [
            Point2::new(500.0, 500.0),
            Point2::new(0.0, 0.0),
            Point2::new(999.0, 1.0),
            Point2::new(-100.0, 1100.0),
            Point2::new(333.3, 666.6),
        ]
        .into_iter()
        .enumerate()
        {
            k.expected_sparse_into(theta, &mut smu);
            let got = smu.view().groups().to_vec();
            let brute: Vec<u32> = (0..k.group_count())
                .filter(|&g| k.layout().deployment_point(g).distance_squared(theta) < z_max * z_max)
                .map(|g| g as u32)
                .collect();
            assert_eq!(got, brute, "support mismatch for probe {i} at {theta:?}");
        }
    }

    #[test]
    fn support_g_matches_the_table_lookup_bit_for_bit() {
        let k = knowledge();
        // Boundary probes: θ at distance exactly z_max from a deployment
        // point, where the gather's `d² < z_max²` and the table's
        // `√d² ≥ z_max` early-out must agree, and the neighbouring f64 on
        // each side.
        let dp = k.layout().deployment_point(55);
        let z_max = k.support_radius();
        let edge = Point2::new(dp.x + z_max, dp.y);
        assert_eq!(dp.distance(edge), z_max, "probe sits on the support edge");
        let inside = Point2::new(f64::from_bits(edge.x.to_bits() - 1), dp.y);
        let outside = Point2::new(f64::from_bits(edge.x.to_bits() + 1), dp.y);
        assert!(dp.distance(inside) < z_max && dp.distance(outside) > z_max);
        let m = k.group_size() as f64;
        for theta in [Point2::new(217.0, 488.0), edge, inside, outside] {
            let g = g_dense(&k, theta);
            let mu = k.expected_observation(theta);
            for (i, &brute) in brute_g(&k, theta).iter().enumerate() {
                assert_eq!(g[i].to_bits(), brute.to_bits(), "group {i} at {theta:?}");
                assert_eq!(
                    mu[i].to_bits(),
                    (m * brute).to_bits(),
                    "µ of group {i} at {theta:?}"
                );
            }
        }
    }

    #[test]
    fn shared_returns_arc_with_same_values() {
        let cfg = DeploymentConfig::small_test();
        let k = DeploymentKnowledge::shared(&cfg);
        assert_eq!(k.group_count(), cfg.group_count());
        assert_eq!(k.group_size(), cfg.group_size);
        assert_eq!(k.range(), cfg.range);
    }
}
