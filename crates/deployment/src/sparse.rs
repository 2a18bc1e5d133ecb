//! The sparse expected observation `µ(θ)` restricted to its support.
//!
//! `g(z)` is identically zero beyond the tabulated tail `z_max = R + 6σ`
//! (see [`GzTable`](crate::GzTable)), so at any estimate `θ` only the
//! deployment groups within `z_max` of `θ` — the **support** — can have
//! `µ_i = m · g_i(θ) ≠ 0`. At paper scale that is a small fraction of the
//! `n` groups, and it stays *constant* as a deployment grows: the support
//! size is governed by the g(z) tail and the deployment-point density, not
//! by `n`.
//!
//! µ has **one storage format**: the support's group ids (`u32`) and µ
//! values (`f64`) as two parallel arrays, sorted by group index. [`SparseMu`]
//! is the reusable scratch the sparse hot path fills via
//! [`DeploymentKnowledge::expected_sparse_into`](crate::DeploymentKnowledge::expected_sparse_into)
//! — filling is **O(k)** in the support size `k` (a spatial-grid query), not
//! O(n), and reuses the buffers' allocations across calls — and
//! [`MuCache`](crate::MuCache) holds the same two arrays at exact size per
//! memoized estimate. Every sparse scoring kernel reads either owner
//! through the borrowed [`MuView`], so a cache hit is scored in place.

use lad_geometry::{GridIndex, Point2, Rect};

/// A borrowed sparse expected observation: the g(z) support's group ids and
/// µ values as parallel slices, sorted by group index, plus the group
/// count/size needed to score against them.
///
/// The entries are **exact**: every group with `µ_i ≠ 0` appears here
/// (groups on the support boundary may additionally appear with
/// `µ_i = 0.0`, which scoring treats exactly like an absent entry), and the
/// dense µ is these entries scattered into zeros
/// ([`SparseMu::to_dense_into`]). This is what makes the sparse scoring
/// kernels in `lad_core::metrics` bit-identical to the dense ones.
#[derive(Debug, Clone, Copy)]
pub struct MuView<'a> {
    groups: &'a [u32],
    values: &'a [f64],
    group_count: usize,
    group_size: usize,
}

impl<'a> MuView<'a> {
    /// Builds a view over parallel `groups`/`values` slices (strictly
    /// ascending group ids, one value per id).
    pub(crate) fn new(
        groups: &'a [u32],
        values: &'a [f64],
        group_count: usize,
        group_size: usize,
    ) -> Self {
        debug_assert_eq!(
            groups.len(),
            values.len(),
            "parallel µ arrays differ in length"
        );
        Self {
            groups,
            values,
            group_count,
            group_size,
        }
    }

    /// The support's group ids, ascending.
    #[inline]
    pub fn groups(&self) -> &'a [u32] {
        self.groups
    }

    /// µ values, parallel to [`Self::groups`].
    #[inline]
    pub fn values(&self) -> &'a [f64] {
        self.values
    }

    /// `(group, µ_i)` pairs in ascending group order.
    pub fn iter(&self) -> impl Iterator<Item = (u32, f64)> + 'a {
        self.groups.iter().copied().zip(self.values.iter().copied())
    }

    /// Number of support entries `k`.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when the support is empty (estimate farther than `z_max` from
    /// every deployment point).
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total number of deployment groups `n`.
    #[inline]
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Per-group node count `m`.
    #[inline]
    pub fn group_size(&self) -> usize {
        self.group_size
    }
}

/// The owned fill buffer of a sparse expected observation: the support's
/// group ids and µ values as parallel arrays of equal length, sorted by
/// group index. Score against it through [`Self::view`]. (Not
/// deserializable: a derived decoder could not keep the two arrays the
/// same length.)
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseMu {
    /// Support group ids, ascending.
    groups: Vec<u32>,
    /// µ values, parallel to `groups`.
    values: Vec<f64>,
    /// Total number of deployment groups `n` the sparse vector is over.
    group_count: usize,
    /// Per-group node count `m`.
    group_size: usize,
}

impl SparseMu {
    /// An empty buffer; fill it with
    /// [`DeploymentKnowledge::expected_sparse_into`](crate::DeploymentKnowledge::expected_sparse_into)
    /// before scoring against it.
    pub fn new() -> Self {
        Self::default()
    }

    /// Builds the buffer from explicit `(group, µ_i)` entries (mostly for
    /// tests). Entries must be sorted by group index with no duplicates.
    pub fn from_entries(entries: Vec<(u32, f64)>, group_count: usize, group_size: usize) -> Self {
        debug_assert!(
            entries.windows(2).all(|w| w[0].0 < w[1].0),
            "sparse µ entries must be strictly sorted by group index"
        );
        let (groups, values) = entries.into_iter().unzip();
        Self {
            groups,
            values,
            group_count,
            group_size,
        }
    }

    /// The borrowed view every sparse kernel scores against.
    #[inline]
    pub fn view(&self) -> MuView<'_> {
        MuView::new(
            &self.groups,
            &self.values,
            self.group_count,
            self.group_size,
        )
    }

    /// Number of support entries `k`.
    pub fn len(&self) -> usize {
        self.groups.len()
    }

    /// `true` when the support is empty.
    pub fn is_empty(&self) -> bool {
        self.groups.is_empty()
    }

    /// Total number of deployment groups `n`.
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Per-group node count `m`.
    pub fn group_size(&self) -> usize {
        self.group_size
    }

    /// Materialises the dense `µ` vector (O(n); for tests and interop).
    pub fn to_dense(&self) -> Vec<f64> {
        let mut mu = Vec::new();
        self.to_dense_into(&mut mu);
        mu
    }

    /// Writes the dense `µ` vector into `out`: `group_count` entries, zero
    /// off the support, reusing `out`'s allocation.
    pub fn to_dense_into(&self, out: &mut Vec<f64>) {
        out.clear();
        out.resize(self.group_count, 0.0);
        for (&g, &v) in self.groups.iter().zip(&self.values) {
            out[g as usize] = v;
        }
    }

    /// Clears the buffer and re-tags it for a deployment with `group_count`
    /// groups of `group_size` nodes, keeping the allocation.
    pub(crate) fn reset(&mut self, group_count: usize, group_size: usize) {
        self.groups.clear();
        self.values.clear();
        self.group_count = group_count;
        self.group_size = group_size;
    }

    /// Replaces the entries with the `(group, d²)` candidates whose `d²` is
    /// below `limit`, in candidate order. Branch-free compaction: every
    /// candidate is written at the cursor, which advances only past kept
    /// ones, so the unpredictable filter costs no mispredicted branch.
    #[inline]
    pub(crate) fn gather<I>(&mut self, candidates: I, limit: f64)
    where
        I: ExactSizeIterator<Item = (u32, f64)>,
    {
        let len = candidates.len();
        self.groups.resize(len, 0);
        self.values.resize(len, 0.0);
        let (groups, values) = (&mut self.groups[..len], &mut self.values[..len]);
        let mut kept = 0usize;
        for (group, d_sq) in candidates {
            groups[kept] = group;
            values[kept] = d_sq;
            kept += usize::from(d_sq < limit);
        }
        self.groups.truncate(kept);
        self.values.truncate(kept);
    }

    /// Mutable µ values for the two-phase fill (gather distances, then map
    /// them to µ in a tight loop).
    pub(crate) fn values_mut(&mut self) -> &mut [f64] {
        &mut self.values
    }
}

/// The precomputed support index: for every cell of a uniform grid over the
/// (padded) deployment area, the **sorted** list of groups whose deployment
/// point could lie within `z_max` of *some* point in the cell.
///
/// A support query is then one cell lookup plus a walk over that cell's
/// candidate list — already in ascending group order, so the per-estimate
/// fill needs **no sort** — with the exact `d < z_max` filter applied per
/// candidate. The lists are conservative supersets (cell half-diagonal
/// cushion), so exactness is decided solely by the per-query filter; the
/// brute-force scan and the indexed query agree group for group.
///
/// Estimates outside the padded bounds (rare: forged or degenerate
/// locations far off the area) fall back to the brute scan, which visits
/// groups in index order too.
#[derive(Debug, Clone)]
pub(crate) struct SupportIndex {
    bounds: Rect,
    cell: f64,
    cols: usize,
    rows: usize,
    /// CSR storage: `starts[c]..starts[c+1]` indexes into `entries`.
    starts: Vec<u32>,
    /// Candidate group ids per cell, ascending within a cell.
    entries: Vec<u32>,
}

impl SupportIndex {
    /// Cells per `z_max`: smaller cells mean tighter candidate lists (less
    /// half-diagonal cushion) at the cost of memory; 4 keeps the cushion
    /// under 18 % of `z_max` with a few hundred cells at paper scale.
    const CELLS_PER_ZMAX: f64 = 4.0;

    /// Builds the index for deployment `points` over `area`, padded by
    /// `z_max` so estimates near (or moderately beyond) the area edge still
    /// hit the fast path.
    pub(crate) fn build(points: &[Point2], area: Rect, z_max: f64) -> Self {
        let bounds = area.expand(z_max);
        let cell = z_max / Self::CELLS_PER_ZMAX;
        let cols = (bounds.width() / cell).ceil().max(1.0) as usize;
        let rows = (bounds.height() / cell).ceil().max(1.0) as usize;
        // Candidate criterion via the triangle inequality: any θ in a cell
        // is within half a diagonal of the cell centre, so only groups with
        // |centre − dp| < z_max + half_diag can satisfy |θ − dp| < z_max.
        // The ε absorbs float rounding in the distance computations — the
        // lists must be supersets, never miss a support group.
        let half_diag = 0.5 * (2.0f64).sqrt() * cell;
        let reach = z_max + half_diag + 1e-6;
        let grid = GridIndex::build(area, z_max.max(1e-9), points);
        let mut starts = Vec::with_capacity(cols * rows + 1);
        let mut entries: Vec<u32> = Vec::new();
        let mut scratch: Vec<u32> = Vec::new();
        starts.push(0u32);
        for cy in 0..rows {
            for cx in 0..cols {
                let center = Point2::new(
                    bounds.min_x + (cx as f64 + 0.5) * cell,
                    bounds.min_y + (cy as f64 + 0.5) * cell,
                );
                scratch.clear();
                grid.for_each_within_sq(center, reach, |i, _| scratch.push(i as u32));
                scratch.sort_unstable();
                entries.extend_from_slice(&scratch);
                starts.push(entries.len() as u32);
            }
        }
        Self {
            bounds,
            cell,
            cols,
            rows,
            starts,
            entries,
        }
    }

    /// The sorted candidate list for `theta`'s cell, or `None` when `theta`
    /// lies outside the padded bounds (caller falls back to a brute scan).
    #[inline]
    pub(crate) fn candidates(&self, theta: Point2) -> Option<&[u32]> {
        if !self.bounds.contains(theta) {
            return None;
        }
        let cx = (((theta.x - self.bounds.min_x) / self.cell) as usize).min(self.cols - 1);
        let cy = (((theta.y - self.bounds.min_y) / self.cell) as usize).min(self.rows - 1);
        let c = cy * self.cols + cx;
        Some(&self.entries[self.starts[c] as usize..self.starts[c + 1] as usize])
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn to_dense_scatters_entries() {
        let smu = SparseMu::from_entries(vec![(1, 2.5), (4, 0.5)], 6, 60);
        assert_eq!(smu.to_dense(), vec![0.0, 2.5, 0.0, 0.0, 0.5, 0.0]);
        // A reused buffer is cleared and resized, longer or shorter.
        for stale in [vec![9.0; 10], vec![9.0; 2]] {
            let mut out = stale;
            smu.to_dense_into(&mut out);
            assert_eq!(out, smu.to_dense());
        }
        assert_eq!(smu.view().groups(), &[1, 4]);
        assert_eq!(smu.view().values(), &[2.5, 0.5]);
        assert_eq!(smu.len(), 2);
        assert!(!smu.is_empty());
        assert_eq!(smu.group_count(), 6);
        assert_eq!(smu.group_size(), 60);
    }

    #[test]
    fn reset_keeps_allocation_and_retags() {
        let mut smu = SparseMu::from_entries(vec![(0, 1.0)], 4, 10);
        let cap = {
            smu.reset(9, 20);
            smu.groups.capacity().min(smu.values.capacity())
        };
        assert!(cap >= 1);
        assert!(smu.is_empty());
        assert_eq!(smu.group_count(), 9);
        assert_eq!(smu.group_size(), 20);
    }
}
