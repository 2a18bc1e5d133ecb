//! Flat CSR-style observation batches for the detection hot path.
//!
//! A dense [`Observation`] is one heap-allocated `Vec<u32>` of
//! `group_count` counts, most of them zero. At serving volume that is one
//! allocation and one O(n) vector per report. An [`ObservationBatch`]
//! stores a whole batch in four flat arrays instead — the classic CSR
//! layout:
//!
//! * `offsets[r] .. offsets[r + 1]` delimits row `r` inside
//! * `groups` / `counts` — the **nonzero** `(group, count)` pairs of every
//!   row, group-sorted within each row, and
//! * `estimates[r]` — the location estimate `L_e` the row is verified
//!   against.
//!
//! Pushing a report copies only its nonzero counts; after warm-up the flat
//! arrays stop growing and a reused batch performs **zero per-report
//! allocations**. Rows come back as borrowed [`ObsRow`] views, which is the
//! shape the sparse scoring kernels in `lad_core::metrics` consume directly
//! (observation nonzeros merge against the sparse µ support without ever
//! materialising a dense vector).

use crate::observation::Observation;
use lad_geometry::Point2;
use std::fmt;

/// A borrowed view of a batch's raw CSR arrays, in the exact layout
/// [`ObservationBatch`] stores them. This is the encode side of the wire
/// adapters: a frame encoder serialises these slices (totals excepted —
/// they are derived data and recomputed on decode), and the decode side
/// lands back in the same layout through
/// [`ObservationBatch::try_extend_csr`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BatchCsr<'a> {
    /// Row boundaries into `groups`/`counts` (`len() + 1` entries, first 0).
    pub offsets: &'a [u32],
    /// Group indices of the nonzero counts, row-major, sorted within a row.
    pub groups: &'a [u32],
    /// The nonzero counts, parallel to `groups`.
    pub counts: &'a [u32],
    /// Per-row totals `Σ o_i`.
    pub totals: &'a [u32],
    /// Per-row location estimates.
    pub estimates: &'a [Point2],
}

/// Typed rejection of an invalid CSR payload handed to
/// [`ObservationBatch::try_extend_csr`] — the boundary check a network
/// decoder relies on, so a malformed frame can never panic the hot path.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrError {
    /// `offsets` must hold exactly one more entry than `estimates`.
    OffsetCount {
        /// Number of offset entries supplied.
        offsets: usize,
        /// Number of rows (estimates) supplied.
        rows: usize,
    },
    /// The first offset must be 0 and offsets must be nondecreasing.
    OffsetsNotMonotone,
    /// The final offset must equal the number of `(group, count)` pairs.
    OffsetOverrun {
        /// The final offset.
        last: u32,
        /// The number of pairs actually supplied.
        nnz: usize,
    },
    /// `groups` and `counts` must be the same length.
    PairMismatch {
        /// `groups.len()`.
        groups: usize,
        /// `counts.len()`.
        counts: usize,
    },
    /// A group index is out of range for the batch's deployment.
    GroupOutOfRange {
        /// The offending row.
        row: usize,
        /// The offending group index.
        group: u32,
        /// The batch's group count.
        group_count: usize,
    },
    /// Groups within a row must be strictly ascending (sorted, no dupes).
    GroupsNotSorted {
        /// The offending row.
        row: usize,
    },
    /// Sparse rows must not store zero counts.
    ZeroCount {
        /// The offending row.
        row: usize,
    },
    /// A row's counts overflow the u32 total.
    TotalOverflow {
        /// The offending row.
        row: usize,
    },
    /// Appending these rows would push the batch past `u32::MAX` stored
    /// pairs — the offset index space.
    CapacityOverflow {
        /// Pairs already stored in the batch.
        existing: usize,
        /// Pairs the rejected payload would add.
        adding: usize,
    },
}

impl fmt::Display for CsrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsrError::OffsetCount { offsets, rows } => {
                write!(f, "{offsets} offsets for {rows} rows (need rows + 1)")
            }
            CsrError::OffsetsNotMonotone => {
                write!(f, "offsets must start at 0 and be nondecreasing")
            }
            CsrError::OffsetOverrun { last, nnz } => {
                write!(f, "final offset {last} does not match {nnz} stored pairs")
            }
            CsrError::PairMismatch { groups, counts } => {
                write!(f, "{groups} groups vs {counts} counts")
            }
            CsrError::GroupOutOfRange {
                row,
                group,
                group_count,
            } => write!(
                f,
                "row {row}: group {group} out of range for {group_count} groups"
            ),
            CsrError::GroupsNotSorted { row } => {
                write!(f, "row {row}: groups must strictly ascend")
            }
            CsrError::ZeroCount { row } => {
                write!(f, "row {row}: sparse rows must not store zero counts")
            }
            CsrError::TotalOverflow { row } => {
                write!(f, "row {row}: counts overflow the u32 row total")
            }
            CsrError::CapacityOverflow { existing, adding } => {
                write!(
                    f,
                    "appending {adding} pairs to {existing} overflows the u32 offset space"
                )
            }
        }
    }
}

impl std::error::Error for CsrError {}

/// A batch of `(sparse observation, estimate)` rows in CSR layout. See the
/// [module docs](self) for the layout and the allocation story.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObservationBatch {
    group_count: usize,
    /// Row boundaries into `groups`/`counts`; `len() + 1` entries.
    offsets: Vec<u32>,
    /// Group indices of the nonzero counts, row-major, sorted within a row.
    groups: Vec<u32>,
    /// The nonzero counts, parallel to `groups`.
    counts: Vec<u32>,
    /// Per-row total `Σ o_i` (precomputed at push time; exact u32 arithmetic).
    totals: Vec<u32>,
    /// Per-row location estimate.
    estimates: Vec<Point2>,
}

/// A borrowed view of one batch row: the nonzero `(group, count)` pairs of
/// an observation plus its precomputed total.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ObsRow<'a> {
    /// Group indices of the nonzero counts, sorted ascending.
    pub groups: &'a [u32],
    /// The nonzero counts, parallel to `groups`.
    pub counts: &'a [u32],
    /// `Σ o_i` over the whole observation.
    pub total: u32,
    /// Number of deployment groups `n` the observation is over.
    pub group_count: usize,
}

impl ObservationBatch {
    /// An empty batch over `group_count` deployment groups.
    pub fn new(group_count: usize) -> Self {
        Self {
            group_count,
            offsets: vec![0],
            ..Self::default()
        }
    }

    /// Number of deployment groups `n` every row is over.
    pub fn group_count(&self) -> usize {
        self.group_count
    }

    /// Number of rows (reports) in the batch.
    pub fn len(&self) -> usize {
        self.estimates.len()
    }

    /// `true` when the batch holds no rows.
    pub fn is_empty(&self) -> bool {
        self.estimates.is_empty()
    }

    /// Total number of stored nonzero `(group, count)` pairs.
    pub fn nnz(&self) -> usize {
        self.groups.len()
    }

    /// Removes all rows, keeping every allocation (the steady state of a
    /// serving loop reuses one batch per ingest cycle).
    pub fn clear(&mut self) {
        self.offsets.clear();
        self.offsets.push(0);
        self.groups.clear();
        self.counts.clear();
        self.totals.clear();
        self.estimates.clear();
    }

    /// Re-tags the batch for a deployment with `group_count` groups and
    /// clears it (allocations kept).
    pub fn reset(&mut self, group_count: usize) {
        self.group_count = group_count;
        self.clear();
    }

    /// Appends one report from a dense observation, copying only its
    /// nonzero counts.
    ///
    /// # Panics
    /// Panics when the observation is over a different number of groups
    /// than the batch — the once-per-row boundary check that lets the
    /// scoring kernels run on `debug_assert!`s only.
    pub fn push(&mut self, observation: &Observation, estimate: Point2) {
        assert_eq!(
            observation.group_count(),
            self.group_count,
            "observation/batch group-count mismatch"
        );
        let mut total = 0u32;
        for (g, &c) in observation.counts().iter().enumerate() {
            if c != 0 {
                self.groups.push(g as u32);
                self.counts.push(c);
                total += c;
            }
        }
        self.finish_row(total, estimate);
    }

    /// Appends one report from pre-sorted sparse `(group, count)` pairs
    /// (e.g. a row copied from another batch).
    ///
    /// # Panics
    /// Panics when a group index is out of range, the groups are not
    /// strictly ascending, or a count is zero.
    pub fn push_sparse(&mut self, groups: &[u32], counts: &[u32], estimate: Point2) {
        assert_eq!(groups.len(), counts.len(), "groups/counts length mismatch");
        let mut total = 0u32;
        let mut prev: Option<u32> = None;
        for (&g, &c) in groups.iter().zip(counts) {
            assert!(
                (g as usize) < self.group_count,
                "group {g} out of range for {} groups",
                self.group_count
            );
            assert!(prev.is_none_or(|p| p < g), "groups must strictly ascend");
            assert!(c != 0, "sparse rows must not store zero counts");
            prev = Some(g);
            total += c;
        }
        self.groups.extend_from_slice(groups);
        self.counts.extend_from_slice(counts);
        self.finish_row(total, estimate);
    }

    /// Copies row `row` of `other` into this batch.
    pub fn push_row(&mut self, other: &ObservationBatch, row: usize) {
        assert_eq!(
            other.group_count, self.group_count,
            "batch group-count mismatch"
        );
        let (lo, hi) = other.row_bounds(row);
        self.groups.extend_from_slice(&other.groups[lo..hi]);
        self.counts.extend_from_slice(&other.counts[lo..hi]);
        self.finish_row(other.totals[row], other.estimates[row]);
    }

    fn finish_row(&mut self, total: u32, estimate: Point2) {
        self.totals.push(total);
        self.estimates.push(estimate);
        self.offsets.push(self.groups.len() as u32);
    }

    fn row_bounds(&self, row: usize) -> (usize, usize) {
        (self.offsets[row] as usize, self.offsets[row + 1] as usize)
    }

    /// The sparse observation of row `row`.
    pub fn row(&self, row: usize) -> ObsRow<'_> {
        let (lo, hi) = self.row_bounds(row);
        ObsRow {
            groups: &self.groups[lo..hi],
            counts: &self.counts[lo..hi],
            total: self.totals[row],
            group_count: self.group_count,
        }
    }

    /// The estimate of row `row`.
    pub fn estimate(&self, row: usize) -> Point2 {
        self.estimates[row]
    }

    /// Iterates `(row, estimate)` over the batch in row order.
    pub fn rows(&self) -> impl Iterator<Item = (ObsRow<'_>, Point2)> + '_ {
        (0..self.len()).map(|r| (self.row(r), self.estimates[r]))
    }

    /// A borrowed view of the raw CSR arrays — the encode side of the wire
    /// adapters (`lad_wire` serialises these slices).
    pub fn as_csr(&self) -> BatchCsr<'_> {
        BatchCsr {
            offsets: &self.offsets,
            groups: &self.groups,
            counts: &self.counts,
            totals: &self.totals,
            estimates: &self.estimates,
        }
    }

    /// Validates a raw CSR payload and appends its rows to the batch —
    /// the decode side of the wire adapters. The payload's row boundaries
    /// are `offsets` (`estimates.len() + 1` entries, local to the payload:
    /// first entry 0); totals are **recomputed** here, so a decoder never
    /// trusts derived data off the wire.
    ///
    /// A decoder maps its payload bytes straight into the batch's arrays
    /// through the iterators (one copy, no scratch vectors); the landed
    /// rows are then checked in one pass that also computes their totals.
    /// The first defect is named in the order [`CsrError`] lists them:
    /// offset count, pair mismatch, offsets, capacity, then the first bad
    /// pair of the first bad row (range, order, zero count, total
    /// overflow).
    ///
    /// On `Err` the batch is untouched (its arrays are truncated back), and
    /// on `Ok` every appended row satisfies the same invariants
    /// [`Self::push_sparse`] enforces — which is what lets the scoring
    /// kernels run on `debug_assert!`s only even when the rows arrived from
    /// an untrusted network peer. Appending performs no per-report
    /// allocation (flat copies into the reused arrays).
    ///
    /// # Panics
    /// Panics when an iterator yields a different number of items than its
    /// `len()` reported — a caller bug, not a payload condition.
    pub fn try_extend_csr(
        &mut self,
        offsets: impl ExactSizeIterator<Item = u32>,
        groups: impl ExactSizeIterator<Item = u32>,
        counts: impl ExactSizeIterator<Item = u32>,
        estimates: impl ExactSizeIterator<Item = Point2>,
    ) -> Result<(), CsrError> {
        let rows = estimates.len();
        let nnz = groups.len();
        if offsets.len() != rows + 1 {
            return Err(CsrError::OffsetCount {
                offsets: offsets.len(),
                rows,
            });
        }
        if counts.len() != nnz {
            return Err(CsrError::PairMismatch {
                groups: nnz,
                counts: counts.len(),
            });
        }
        let (row0, base) = (self.len(), self.groups.len());
        if base + nnz > u32::MAX as usize {
            // Nothing is landed; offset defects still name first.
            return Err(
                offsets_defect(offsets, nnz).unwrap_or(CsrError::CapacityOverflow {
                    existing: base,
                    adding: nnz,
                }),
            );
        }
        // Land: the payload's first offset replaces the batch's closing
        // one (`base`) until the rows are rebased below.
        self.offsets.pop();
        self.offsets.extend(offsets);
        self.groups.extend(groups);
        self.counts.extend(counts);
        self.estimates.extend(estimates);
        assert!(
            self.offsets.len() == row0 + rows + 1
                && self.groups.len() == base + nnz
                && self.counts.len() == base + nnz
                && self.estimates.len() == row0 + rows,
            "CSR iterators yielded a different count than their len()"
        );
        let (offsets, groups, counts) = (
            &self.offsets[row0..],
            &self.groups[base..],
            &self.counts[base..],
        );
        if let Err(defect) =
            land_totals(offsets, groups, counts, self.group_count, &mut self.totals)
        {
            self.offsets.truncate(row0);
            self.offsets.push(base as u32);
            self.groups.truncate(base);
            self.counts.truncate(base);
            self.totals.truncate(row0);
            self.estimates.truncate(row0);
            return Err(defect);
        }
        if base != 0 {
            for offset in &mut self.offsets[row0..] {
                *offset += base as u32;
            }
        }
        Ok(())
    }
}

/// Checks a landed payload (`offsets` local to it, first entry meant to
/// be 0) and pushes each row's total onto `totals` (the caller truncates
/// them on `Err`): offsets start at 0, never decrease and end at
/// `groups.len()`; within each row groups strictly ascend below
/// `group_count`, counts are nonzero and their total fits a `u32`. Returns
/// the first defect in [`CsrError`]'s order. A row's pairs are checked
/// without branches, their defects and-ed into one flag; only a row that
/// fails is walked again, by [`row_defect`], to name its first bad pair.
fn land_totals(
    offsets: &[u32],
    groups: &[u32],
    counts: &[u32],
    group_count: usize,
    totals: &mut Vec<u32>,
) -> Result<(), CsrError> {
    if let Some(defect) = offsets_defect(offsets.iter().copied(), groups.len()) {
        return Err(defect);
    }
    totals.reserve(offsets.len() - 1);
    for (row, w) in offsets.windows(2).enumerate() {
        let (lo, hi) = (w[0] as usize, w[1] as usize);
        let (groups, counts) = (&groups[lo..hi], &counts[lo..hi]);
        // `next` is the least group the next pair may hold: one past the
        // previous group, so strict ascent is `g >= next`, and the row's
        // last group is in range iff `next <= group_count` after the row.
        let (mut next, mut total, mut ok) = (0u64, 0u64, true);
        for (&g, &c) in groups.iter().zip(counts) {
            ok &= (g as u64 >= next) & (c != 0);
            next = g as u64 + 1;
            total += c as u64;
        }
        if !(ok & (next <= group_count as u64) & (total <= u32::MAX as u64)) {
            return Err(row_defect(row, groups, counts, group_count));
        }
        totals.push(total as u32);
    }
    Ok(())
}

/// The first bad pair of a row [`land_totals`] rejected, with the checks
/// in [`CsrError`]'s order: range, order, zero count, total overflow.
#[cold]
fn row_defect(row: usize, groups: &[u32], counts: &[u32], group_count: usize) -> CsrError {
    let mut prev: Option<u32> = None;
    let mut total = 0u32;
    for (&group, &c) in groups.iter().zip(counts) {
        if group as usize >= group_count {
            return CsrError::GroupOutOfRange {
                row,
                group,
                group_count,
            };
        }
        if prev.is_some_and(|p| p >= group) {
            return CsrError::GroupsNotSorted { row };
        }
        if c == 0 {
            return CsrError::ZeroCount { row };
        }
        match total.checked_add(c) {
            Some(sum) => total = sum,
            None => return CsrError::TotalOverflow { row },
        }
        prev = Some(group);
    }
    unreachable!("row {row} passed the exact checks after failing the flagged ones")
}

/// The first offset defect of a payload of `nnz` pairs, in
/// [`CsrError`]'s order: not starting at 0 or decreasing, then a final
/// offset other than `nnz`.
fn offsets_defect(offsets: impl Iterator<Item = u32>, nnz: usize) -> Option<CsrError> {
    let mut last = 0u32;
    for (i, offset) in offsets.enumerate() {
        if (i == 0 && offset != 0) || offset < last {
            return Some(CsrError::OffsetsNotMonotone);
        }
        last = offset;
    }
    (last as usize != nnz).then_some(CsrError::OffsetOverrun { last, nnz })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn obs(counts: Vec<u32>) -> Observation {
        Observation::from_counts(counts)
    }

    /// [`ObservationBatch::try_extend_csr`] over slices.
    fn extend(
        batch: &mut ObservationBatch,
        offsets: &[u32],
        groups: &[u32],
        counts: &[u32],
        estimates: &[Point2],
    ) -> Result<(), CsrError> {
        batch.try_extend_csr(
            offsets.iter().copied(),
            groups.iter().copied(),
            counts.iter().copied(),
            estimates.iter().copied(),
        )
    }

    #[test]
    fn push_stores_only_nonzeros_and_round_trips() {
        let mut batch = ObservationBatch::new(5);
        batch.push(&obs(vec![0, 3, 0, 1, 0]), Point2::new(1.0, 2.0));
        batch.push(&obs(vec![0, 0, 0, 0, 0]), Point2::new(3.0, 4.0));
        batch.push(&obs(vec![7, 0, 0, 0, 9]), Point2::new(5.0, 6.0));
        assert_eq!(batch.len(), 3);
        assert_eq!(batch.nnz(), 4);
        assert!(!batch.is_empty());

        let r0 = batch.row(0);
        assert_eq!(r0.groups, &[1, 3]);
        assert_eq!(r0.counts, &[3, 1]);
        assert_eq!(r0.total, 4);
        assert_eq!(r0.group_count, 5);
        assert_eq!(batch.estimate(0), Point2::new(1.0, 2.0));

        let r1 = batch.row(1);
        assert!(r1.groups.is_empty());
        assert_eq!(r1.total, 0);
        assert!(r1.counts.is_empty());

        let rows: Vec<u32> = batch.rows().map(|(row, _)| row.total).collect();
        assert_eq!(rows, vec![4, 0, 16]);
    }

    #[test]
    fn clear_keeps_capacity_and_reset_retags() {
        let mut batch = ObservationBatch::new(3);
        batch.push(&obs(vec![1, 2, 3]), Point2::new(0.0, 0.0));
        let cap = batch.groups.capacity();
        batch.clear();
        assert!(batch.is_empty());
        assert_eq!(batch.nnz(), 0);
        assert_eq!(batch.groups.capacity(), cap);
        batch.reset(7);
        assert_eq!(batch.group_count(), 7);
    }

    #[test]
    fn push_sparse_and_push_row_preserve_rows() {
        let mut a = ObservationBatch::new(6);
        a.push_sparse(&[0, 5], &[2, 4], Point2::new(9.0, 9.0));
        let mut b = ObservationBatch::new(6);
        b.push_row(&a, 0);
        assert_eq!(b.row(0), a.row(0));
        assert_eq!(b.estimate(0), a.estimate(0));
    }

    #[test]
    fn csr_view_extends_bit_identically() {
        let mut a = ObservationBatch::new(5);
        a.push(&obs(vec![0, 3, 0, 1, 0]), Point2::new(1.0, 2.0));
        a.push(&obs(vec![0, 0, 0, 0, 0]), Point2::new(3.0, 4.0));
        a.push(&obs(vec![7, 0, 0, 0, 9]), Point2::new(5.0, 6.0));

        // Decode side: a fresh batch fed the raw arrays equals the source,
        // offsets and totals included.
        let csr = a.as_csr();
        let mut b = ObservationBatch::new(5);
        extend(&mut b, csr.offsets, csr.groups, csr.counts, csr.estimates)
            .expect("valid payload extends");
        assert_eq!(a, b);

        // Extending a non-empty batch rebases offsets correctly.
        let csr = a.as_csr();
        extend(&mut b, csr.offsets, csr.groups, csr.counts, csr.estimates).expect("second extend");
        assert_eq!(b.len(), 6);
        assert_eq!(b.row(3), a.row(0));
        assert_eq!(b.row(5), a.row(2));
        assert_eq!(b.estimate(4), a.estimate(1));
    }

    #[test]
    fn try_extend_csr_rejects_malformed_payloads_untouched() {
        let mut batch = ObservationBatch::new(4);
        batch.push(&obs(vec![1, 0, 0, 0]), Point2::new(0.0, 0.0));
        let pristine = batch.clone();
        let est = [Point2::new(1.0, 1.0)];

        // One offset entry too few / too many.
        let err = extend(&mut batch, &[0], &[1], &[2], &est);
        assert_eq!(
            err,
            Err(CsrError::OffsetCount {
                offsets: 1,
                rows: 1
            })
        );
        // Offsets must start at zero and be nondecreasing.
        assert_eq!(
            extend(&mut batch, &[1, 1], &[1], &[2], &est),
            Err(CsrError::OffsetsNotMonotone)
        );
        assert_eq!(
            extend(&mut batch, &[0, 2, 1], &[1, 2], &[2, 2], &[est[0]; 2]),
            Err(CsrError::OffsetsNotMonotone)
        );
        // Final offset must cover the pair arrays exactly.
        assert_eq!(
            extend(&mut batch, &[0, 1], &[1, 2], &[2, 2], &est),
            Err(CsrError::OffsetOverrun { last: 1, nnz: 2 })
        );
        // groups/counts must be parallel.
        assert_eq!(
            extend(&mut batch, &[0, 2], &[1, 2], &[2], &est),
            Err(CsrError::PairMismatch {
                groups: 2,
                counts: 1
            })
        );
        // Row-level invariants: range, order, zero counts, total overflow.
        assert_eq!(
            extend(&mut batch, &[0, 1], &[4], &[2], &est),
            Err(CsrError::GroupOutOfRange {
                row: 0,
                group: 4,
                group_count: 4
            })
        );
        assert_eq!(
            extend(&mut batch, &[0, 2], &[2, 1], &[2, 2], &est),
            Err(CsrError::GroupsNotSorted { row: 0 })
        );
        assert_eq!(
            extend(&mut batch, &[0, 2], &[1, 1], &[2, 2], &est),
            Err(CsrError::GroupsNotSorted { row: 0 })
        );
        assert_eq!(
            extend(&mut batch, &[0, 1], &[1], &[0], &est),
            Err(CsrError::ZeroCount { row: 0 })
        );
        assert_eq!(
            extend(&mut batch, &[0, 2], &[1, 2], &[u32::MAX, 1], &est),
            Err(CsrError::TotalOverflow { row: 0 })
        );
        // A failed extend never mutates the batch.
        assert_eq!(batch, pristine);
    }

    /// The slice-based `try_extend_csr` of wire v4, kept as the oracle the
    /// land-then-check path is pinned against: every check in
    /// [`CsrError`]'s order on the input slices, then the landing.
    fn oracle_extend_csr(
        batch: &mut ObservationBatch,
        offsets: &[u32],
        groups: &[u32],
        counts: &[u32],
        estimates: &[Point2],
    ) -> Result<(), CsrError> {
        let rows = estimates.len();
        if offsets.len() != rows + 1 {
            return Err(CsrError::OffsetCount {
                offsets: offsets.len(),
                rows,
            });
        }
        if groups.len() != counts.len() {
            return Err(CsrError::PairMismatch {
                groups: groups.len(),
                counts: counts.len(),
            });
        }
        if offsets[0] != 0 || offsets.windows(2).any(|w| w[0] > w[1]) {
            return Err(CsrError::OffsetsNotMonotone);
        }
        if offsets[rows] as usize != groups.len() {
            return Err(CsrError::OffsetOverrun {
                last: offsets[rows],
                nnz: groups.len(),
            });
        }
        if batch.groups.len() + groups.len() > u32::MAX as usize {
            return Err(CsrError::CapacityOverflow {
                existing: batch.groups.len(),
                adding: groups.len(),
            });
        }
        for row in 0..rows {
            let (lo, hi) = (offsets[row] as usize, offsets[row + 1] as usize);
            let mut prev: Option<u32> = None;
            let mut total = 0u32;
            for (&g, &c) in groups[lo..hi].iter().zip(&counts[lo..hi]) {
                if g as usize >= batch.group_count {
                    return Err(CsrError::GroupOutOfRange {
                        row,
                        group: g,
                        group_count: batch.group_count,
                    });
                }
                if prev.is_some_and(|p| p >= g) {
                    return Err(CsrError::GroupsNotSorted { row });
                }
                if c == 0 {
                    return Err(CsrError::ZeroCount { row });
                }
                total = total
                    .checked_add(c)
                    .ok_or(CsrError::TotalOverflow { row })?;
                prev = Some(g);
            }
        }
        let base = batch.groups.len() as u32;
        batch.groups.extend_from_slice(groups);
        batch.counts.extend_from_slice(counts);
        batch.estimates.extend_from_slice(estimates);
        for row in 0..rows {
            let (lo, hi) = (offsets[row] as usize, offsets[row + 1] as usize);
            batch.totals.push(counts[lo..hi].iter().sum());
            batch.offsets.push(base + offsets[row + 1]);
        }
        Ok(())
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(512))]

        #[test]
        fn prop_one_pass_check_matches_the_oracle(
            group_count in 1usize..12,
            prefill in 0usize..3,
            lens in proptest::collection::vec(0usize..5, 0..7),
            steps in proptest::collection::vec(0u32..4, 24),
            raw_counts in proptest::collection::vec(1u32..6, 24),
            defects in proptest::collection::vec(0usize..10, 1..3),
            at in 0usize..1000,
        ) {
            // A well-formed payload: ascending groups (steps of 0 make
            // duplicates, long rows run past `group_count`), nonzero counts.
            let nnz: usize = lens.iter().sum::<usize>().min(24);
            let mut offsets = vec![0u32];
            let mut groups = Vec::new();
            for &len in &lens {
                let mut next = 0u32;
                for _ in 0..len.min(nnz - groups.len()) {
                    next += steps[groups.len()].max(1);
                    groups.push(next - 1);
                }
                offsets.push(groups.len() as u32);
            }
            let mut counts = raw_counts[..groups.len()].to_vec();
            let mut estimates: Vec<Point2> =
                (0..lens.len()).map(|r| Point2::new(r as f64, -(r as f64))).collect();
            // Then up to two injected defects at one random place, so two
            // can hit one pair, which pins the order its checks name in.
            let pick = |len: usize| at % len.max(1);
            for &defect in &defects {
                match defect {
                    1 if offsets.len() > 2 => {
                        let i = 1 + pick(offsets.len() - 2);
                        offsets[i] = offsets[i + 1] + 1;
                    }
                    2 => {
                        let last = offsets.len() - 1;
                        offsets[last] += 1 + pick(3) as u32;
                    }
                    3 if groups.len() > 1 => {
                        let i = pick(groups.len()).max(1);
                        groups[i] = groups[i - 1] - groups[i - 1].min(at as u32 % 2);
                    }
                    4 if !groups.is_empty() => {
                        let i = pick(groups.len());
                        groups[i] = group_count as u32 + pick(4) as u32;
                    }
                    5 if !counts.is_empty() => {
                        let i = pick(counts.len());
                        counts[i] = 0;
                    }
                    6 if counts.len() > 1 => {
                        let i = pick(counts.len());
                        counts[i] = u32::MAX - pick(2) as u32;
                    }
                    7 => offsets[0] = 1 + pick(2) as u32,
                    8 => {
                        estimates.push(Point2::new(0.5, 0.5));
                    }
                    9 if !counts.is_empty() => {
                        counts.pop();
                    }
                    _ => {}
                }
            }

            let mut batch = ObservationBatch::new(group_count);
            for r in 0..prefill {
                batch.push_sparse(&[r as u32 % group_count as u32], &[2], Point2::new(9.0, 9.0));
            }
            let pristine = batch.clone();
            let mut oracle = batch.clone();
            let got = extend(&mut batch, &offsets, &groups, &counts, &estimates);
            let want = oracle_extend_csr(&mut oracle, &offsets, &groups, &counts, &estimates);
            proptest::prop_assert_eq!(&got, &want);
            proptest::prop_assert_eq!(&batch, &oracle);
            if got.is_err() {
                proptest::prop_assert_eq!(&batch, &pristine);
            }
        }
    }

    #[test]
    #[should_panic]
    fn push_rejects_mismatched_group_count() {
        let mut batch = ObservationBatch::new(4);
        batch.push(&obs(vec![1, 2]), Point2::new(0.0, 0.0));
    }

    #[test]
    #[should_panic]
    fn push_sparse_rejects_unsorted_groups() {
        let mut batch = ObservationBatch::new(4);
        batch.push_sparse(&[2, 1], &[1, 1], Point2::new(0.0, 0.0));
    }
}
