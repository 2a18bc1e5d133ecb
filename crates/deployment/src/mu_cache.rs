//! Estimate-keyed memoization of the sparse expected observation `µ(θ)`.
//!
//! `µ(θ)` is a pure function of the estimate: at serve scale many reports
//! repeat the same estimate bits (a node re-reporting its position, replayed
//! rounds, stationary populations), and every repeat re-pays the support
//! fill — the spatial-grid query plus ~k `√d²` → g(z)-table evaluations per
//! report that BENCH_4/5/6 identify as the irreducible per-request floor.
//!
//! [`MuCache`] removes that floor for repeated estimates. It is a bounded
//! set-associative cache keyed on the **exact IEEE-754 bits** of the
//! estimate (`x.to_bits(), y.to_bits()`), so a hit returns a µ that was
//! produced by the very same
//! [`expected_sparse_into`](crate::DeploymentKnowledge::expected_sparse_into)
//! float program for the very same input — **bit-exactness by
//! construction**, with nothing to prove about quantization. (Keying on the
//! `SupportIndex` grid cell alone would *not* be exact: the candidate list
//! is cell-resolved, but the µ values vary continuously within a cell.)
//!
//! Eviction is CLOCK within each set: a hit sets the slot's referenced
//! bit, a miss sweeps the set's hand past referenced slots (clearing them)
//! and replaces the first unreferenced one — an LRU approximation with no
//! per-hit bookkeeping beyond one bit. The cache is **derived state**: it
//! is never serialized, never snapshotted, and owning layers (a `lad_serve`
//! shard, an eval thread) drop and rebuild it freely.
//!
//! # Footprint
//!
//! Each slot holds its support in µ's one storage format (see
//! [`crate::sparse`]) at **exact size**: a boxed `u32` id slice and a boxed
//! `f64` value slice, 12 B per support entry. A set's four keys share one
//! 64-byte cache line; with the two slice headers and a byte of CLOCK state
//! per way, the fixed cost is ~49 B per slot. On a churning paper-scale
//! stream (22 support entries on average) a memoized estimate costs ~320 B
//! of heap; `tests/mu_cache_footprint.rs` asserts `64 B × capacity + 14 B ×
//! held entries` with a counting allocator.
//!
//! A hit is scored in place: [`MuCache::get_or_fill`] returns a [`MuView`]
//! borrowing the slot's arrays, with no decode and no copy. A miss writes µ
//! into the slot as it computes it; when the victim's support length
//! differs, it takes an evicted pair of the new length (a bounded few are
//! kept per length) before it asks the allocator.

use crate::sparse::{MuView, SparseMu};
use lad_geometry::Point2;
use lad_stats::seeds::splitmix64;

/// The exact estimate-bit keys `(θ.x.to_bits(), θ.y.to_bits())` of one
/// set's ways, packed into one cache line so a lookup touches one line.
#[derive(Debug, Clone, Copy, Default)]
#[repr(align(64))]
struct SetKeys([[u64; 2]; MuCache::WAYS]);

/// Per-set bookkeeping: one bit per way for "holds an entry" and for the
/// CLOCK referenced bit, plus the set's hand.
#[derive(Debug, Clone, Copy, Default)]
struct SetState {
    valid: u8,
    referenced: u8,
    hand: u8,
}

/// One slot's memoized support, exact-size parallel arrays.
#[derive(Debug, Clone, Default)]
struct Held {
    groups: Box<[u32]>,
    values: Box<[f64]>,
}

/// A bounded, set-associative, exact-key cache of sparse expected
/// observations. See the [module docs](self) for the design, the footprint
/// and the bit-exactness argument.
///
/// One cache belongs to **one** [`DeploymentKnowledge`] object (entries are
/// meaningless under any other deployment); the owning layer enforces that
/// by construction — a `lad_serve` shard builds its cache next to its
/// engine clone. Lookups go through
/// [`DeploymentKnowledge::expected_sparse_cached`].
///
/// [`DeploymentKnowledge`]: crate::DeploymentKnowledge
/// [`DeploymentKnowledge::expected_sparse_cached`]: crate::DeploymentKnowledge::expected_sparse_cached
#[derive(Debug, Clone)]
pub struct MuCache {
    /// Keys per set.
    keys: Vec<SetKeys>,
    /// Valid/referenced bits and CLOCK hand per set.
    state: Vec<SetState>,
    /// Memoized supports, `sets × WAYS`, set-major.
    held: Vec<Held>,
    /// The gather target of a miss. Its group count/size tags every view
    /// (one deployment per cache).
    scratch: SparseMu,
    /// Evicted supports' exact-size arrays kept for reuse, indexed by
    /// length: steady-state churn (where a victim's support length rarely
    /// equals the new one's) swaps arrays instead of paying the allocator
    /// twice per miss. Holds at most [`Self::SPARE_DEPTH`] pairs for each
    /// length below [`Self::SPARE_LENS`].
    spare: Vec<Vec<Held>>,
    /// Number of sets minus one (sets are a power of two).
    set_mask: u64,
    hits: u64,
    misses: u64,
}

impl MuCache {
    /// Associativity: slots per set. 4 ways keeps conflict misses rare at
    /// the cost of a 4-probe lookup, and bounds the CLOCK sweep.
    pub const WAYS: usize = 4;

    /// Support lengths whose evicted arrays are kept for reuse — above the
    /// ≤ 40-entry supports of paper-density deployments.
    const SPARE_LENS: usize = 64;

    /// Spare array pairs kept per length. With [`Self::SPARE_LENS`] this
    /// bounds the spares at `8 × 12 B × (1 + … + 63)` ≈ 190 KiB; on a
    /// churning paper-scale stream it turns ~90% of the allocations a miss
    /// would make into reuse.
    const SPARE_DEPTH: usize = 8;

    /// Builds a cache with room for at least `capacity` memoized estimates
    /// (rounded up to a power-of-two number of [`Self::WAYS`]-slot sets).
    ///
    /// # Panics
    /// Panics when `capacity` is 0 — disabled caching is the *absence* of a
    /// `MuCache`, not an always-missing one.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "MuCache capacity must be ≥ 1");
        let sets = capacity.div_ceil(Self::WAYS).next_power_of_two();
        Self {
            keys: vec![SetKeys::default(); sets],
            state: vec![SetState::default(); sets],
            held: vec![Held::default(); sets * Self::WAYS],
            scratch: SparseMu::new(),
            spare: vec![Vec::new(); Self::SPARE_LENS],
            set_mask: sets as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Total slot capacity (sets × ways).
    pub fn capacity(&self) -> usize {
        self.held.len()
    }

    /// Number of memoized estimates currently held.
    pub fn len(&self) -> usize {
        self.state
            .iter()
            .map(|s| s.valid.count_ones() as usize)
            .sum()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.state.iter().all(|s| s.valid == 0)
    }

    /// Support entries held across all slots — the variable part of the
    /// footprint, 12 B each.
    pub fn held_entries(&self) -> usize {
        self.held.iter().map(|h| h.groups.len()).sum()
    }

    /// Hits since construction (or the last [`Self::take_stats`]).
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Misses since construction (or the last [`Self::take_stats`]).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// Returns `(hits, misses)` accumulated since the last call and resets
    /// both to zero — how a serve shard flushes cache telemetry into its
    /// shared counters once per batch.
    pub fn take_stats(&mut self) -> (u64, u64) {
        let out = (self.hits, self.misses);
        self.hits = 0;
        self.misses = 0;
        out
    }

    /// Drops every memoized entry and frees its support storage (counters
    /// untouched).
    pub fn clear(&mut self) {
        self.state.fill(SetState::default());
        self.held.fill(Held::default());
        self.spare.fill(Vec::new());
    }

    /// The set index for an estimate key: both coordinate bit patterns run
    /// through SplitMix64 so nearby floats (which share high bits) spread
    /// over the sets.
    #[inline]
    fn set_of(&self, key: [u64; 2]) -> usize {
        (splitmix64(key[0] ^ splitmix64(key[1])) & self.set_mask) as usize
    }

    /// Returns the memoized `µ(θ)`, producing it on a miss in two phases:
    /// `gather` fills the cache's scratch with the support's group ids and
    /// one intermediate value per entry, then `map` turns each intermediate
    /// value into µ as it is written into the victim slot's exact-size
    /// arrays (the slot's possibly cold memory is written inside the
    /// compute loop, not by a separate copy).
    ///
    /// The hit path compares the exact estimate bits, so whatever `gather`
    /// and `map` produced for those bits is returned unchanged — the
    /// caller's closures *are* the float program, the cache only replays
    /// their output.
    pub fn get_or_fill<G, M>(&mut self, theta: Point2, gather: G, map: M) -> MuView<'_>
    where
        G: FnOnce(&mut SparseMu),
        M: Fn(f64) -> f64,
    {
        let key = [theta.x.to_bits(), theta.y.to_bits()];
        let set = self.set_of(key);
        let (keys, state) = (&self.keys[set].0, &mut self.state[set]);
        let way = match (0..Self::WAYS).find(|&w| state.valid & (1 << w) != 0 && keys[w] == key) {
            Some(way) => {
                self.hits += 1;
                state.referenced |= 1 << way;
                way
            }
            None => {
                self.misses += 1;
                let way = Self::victim(state);
                state.valid |= 1 << way;
                state.referenced |= 1 << way;
                self.keys[set].0[way] = key;
                gather(&mut self.scratch);
                let src = self.scratch.view();
                let held = &mut self.held[set * Self::WAYS + way];
                Self::resize_exact(held, src.len(), &mut self.spare);
                held.groups.copy_from_slice(src.groups());
                for (mu, &v) in held.values.iter_mut().zip(src.values()) {
                    *mu = map(v);
                }
                way
            }
        };
        let held = &self.held[set * Self::WAYS + way];
        MuView::new(
            &held.groups,
            &held.values,
            self.scratch.group_count(),
            self.scratch.group_size(),
        )
    }

    /// Gives `held` arrays of exactly `len` entries: its own when the
    /// length matches, else a spare pair of that length or a fresh
    /// allocation, parking the old pair among the spares of its length.
    fn resize_exact(held: &mut Held, len: usize, spare: &mut [Vec<Held>]) {
        if held.groups.len() == len {
            return;
        }
        let old = std::mem::replace(
            held,
            spare
                .get_mut(len)
                .and_then(Vec::pop)
                .unwrap_or_else(|| Held {
                    groups: vec![0; len].into(),
                    values: vec![0.0; len].into(),
                }),
        );
        if let Some(pairs) = spare.get_mut(old.groups.len()) {
            if pairs.len() < Self::SPARE_DEPTH {
                pairs.push(old);
            }
        }
    }

    /// CLOCK victim selection within one set: prefer an invalid way,
    /// otherwise sweep the hand past referenced ways (clearing their bits)
    /// and take the first unreferenced one. Bounded: after one full sweep
    /// every bit is clear, so the second probe wins.
    fn victim(state: &mut SetState) -> usize {
        if let Some(way) = (0..Self::WAYS).find(|&w| state.valid & (1 << w) == 0) {
            return way;
        }
        loop {
            let hand = state.hand as usize;
            state.hand = ((hand + 1) % Self::WAYS) as u8;
            if state.referenced & (1 << hand) != 0 {
                state.referenced &= !(1 << hand);
            } else {
                return hand;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn fill_tagged(tag: u32) -> impl FnOnce(&mut SparseMu) {
        move |out: &mut SparseMu| {
            *out = SparseMu::from_entries(vec![(tag, tag as f64)], 100, 10);
        }
    }

    #[test]
    fn hit_returns_the_first_fill_without_refilling() {
        let mut cache = MuCache::new(8);
        let theta = Point2::new(12.5, -3.25);
        let first: Vec<_> = cache
            .get_or_fill(theta, fill_tagged(1), |v| v)
            .iter()
            .collect();
        // A second lookup must not call fill again (fill_tagged(2) would
        // overwrite the entry if it ran).
        let second: Vec<_> = cache
            .get_or_fill(theta, fill_tagged(2), |v| v)
            .iter()
            .collect();
        assert_eq!(first, second);
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_bit_patterns_are_distinct_keys() {
        let mut cache = MuCache::new(8);
        let a = Point2::new(1.0, 2.0);
        let b = Point2::new(1.0, 2.0f64.next_up());
        cache.get_or_fill(a, fill_tagged(1), |v| v);
        let at_b: Vec<_> = cache.get_or_fill(b, fill_tagged(2), |v| v).iter().collect();
        assert_eq!(at_b, [(2, 2.0)]);
        assert_eq!(cache.misses(), 2);
    }

    #[test]
    fn eviction_churn_keeps_results_correct_under_tiny_capacity() {
        // 1 set × 4 ways: the 5th distinct key must evict, and every
        // re-query must re-fill with the right value.
        let mut cache = MuCache::new(1);
        assert_eq!(cache.capacity(), MuCache::WAYS);
        for round in 0..3u32 {
            for i in 0..6u32 {
                let theta = Point2::new(i as f64, 0.0);
                let got = cache.get_or_fill(theta, fill_tagged(i), |v| v);
                assert_eq!(got.groups(), &[i], "round {round} key {i}");
                assert_eq!(got.values(), &[i as f64], "round {round} key {i}");
                assert_eq!((got.group_count(), got.group_size()), (100, 10));
            }
        }
        assert_eq!(cache.hits() + cache.misses(), 18);
        assert!(cache.misses() > MuCache::WAYS as u64, "eviction must occur");
        assert!(cache.len() <= cache.capacity());
    }

    #[test]
    fn take_stats_drains_and_resets() {
        let mut cache = MuCache::new(4);
        let theta = Point2::new(5.0, 5.0);
        cache.get_or_fill(theta, fill_tagged(1), |v| v);
        cache.get_or_fill(theta, fill_tagged(1), |v| v);
        assert_eq!(cache.take_stats(), (1, 1));
        assert_eq!(cache.take_stats(), (0, 0));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        // Cleared entries miss again.
        cache.get_or_fill(theta, fill_tagged(1), |v| v);
        assert_eq!(cache.take_stats(), (0, 1));
    }

    #[test]
    fn slots_hold_exact_size_supports_and_clear_frees_them() {
        let mut cache = MuCache::new(4);
        let fill_k = |k: u32| {
            move |out: &mut SparseMu| {
                *out = SparseMu::from_entries((0..k).map(|g| (g, 1.0)).collect(), 100, 10)
            }
        };
        cache.get_or_fill(Point2::new(1.0, 0.0), fill_k(3), |v| v);
        cache.get_or_fill(Point2::new(2.0, 0.0), fill_k(5), |v| v);
        cache.get_or_fill(Point2::new(3.0, 0.0), fill_k(0), |v| v);
        assert_eq!(cache.held_entries(), 8);
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert_eq!(cache.held_entries(), 0);
        assert_eq!(
            cache
                .get_or_fill(Point2::new(2.0, 0.0), fill_k(2), |v| v)
                .len(),
            2
        );
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_is_rejected() {
        let _ = MuCache::new(0);
    }
}
