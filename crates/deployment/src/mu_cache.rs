//! Estimate-keyed memoization of the sparse expected observation `µ(θ)`.
//!
//! `µ(θ)` is a pure function of the estimate: at serve scale many reports
//! repeat the same estimate bits (a node re-reporting its position, replayed
//! rounds, stationary populations), and every repeat re-pays the support
//! fill — the spatial-grid query plus ~k `√d²` → g(z)-table evaluations per
//! report, the per-request floor of BENCH_4/5/6. The evaluations are most
//! of a fill's compute and run four lanes wide where the CPU allows
//! ([`PreparedGz::mu_into`](crate::PreparedGz::mu_into)); a miss still
//! pays them.
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
//!
//! # Pipelined batch lookup
//!
//! A hit takes three dependent loads: the set's key line (plus its CLOCK
//! byte), then the slot's header (the two array pointers), then the id and
//! value arrays. When the cache's lines have gone cold — a paced serve
//! shard idles between rounds while other work evicts them — a
//! row-at-a-time loop waits on those misses one after another.
//! [`DeploymentKnowledge::for_each_mu_cached`], which both cached engine
//! kernels run, overlaps them across the batch:
//!
//! - every row's set is hashed once, four rows ahead, and its key line,
//!   CLOCK state and four slot headers (one 64-byte-aligned pair of lines
//!   per set) are prefetched;
//! - two rows ahead, a read-only peek finds the way that would hit and
//!   prefetches the first line of its id array and the first two lines of
//!   its value array (empty supports are skipped);
//! - at row `r` the ordinary lookup runs on the precomputed set.
//!
//! The peek never changes cache state, so the pipeline is only a hint:
//! replacement decisions, `(hits, misses)` and every µ bit equal the
//! row-at-a-time loop (`tests/mu_cache_equality.rs` checks this, including
//! a one-set cache where rows inside the prefetch distance evict each
//! other). Measured on a 2-vCPU x86-64 VM, a 512-report paper-scale round
//! scored right after an 8 MiB sweep takes ~19–31% less time than the
//! row loop in the same process; warm rounds are no slower.
//!
//! The prefetch is `_mm_prefetch` with the T0 hint, this module's one
//! `unsafe` block: Rust has no safe prefetch, and a prefetch is a hint
//! that never faults and changes no architectural state. Off x86-64 it is
//! a no-op. (The crate's other `unsafe` code is the AVX2 g(z) kernel in
//! [`crate::gz`].) A safe variant that demand-loads the same lines
//! (`black_box` reads) was measured in the same probe and rejected: in
//! two of six runs it cut only ~5% where the prefetch cut ~25%. A demand
//! load that misses must wait for its line before it can retire, so a few
//! of them fill the out-of-order window; a prefetch retires at once.
//!
//! [`DeploymentKnowledge::for_each_mu_cached`]: crate::DeploymentKnowledge::for_each_mu_cached

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

/// The exact-bit cache key of an estimate.
#[inline]
fn key_of(theta: Point2) -> [u64; 2] {
    [theta.x.to_bits(), theta.y.to_bits()]
}

/// Asks the CPU to start loading the cache line holding `p` into L1 — the
/// one `unsafe` block of the pipelined lookup. A no-op off x86-64.
#[inline(always)]
fn prefetch<T>(p: *const T) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: PREFETCHT0 is a hint. It never faults, whatever the address
    // (dangling, unmapped or null), and changes no architectural state; no
    // memory is read or written through `p` from Rust's point of view.
    unsafe {
        use core::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(p.cast());
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = p;
}

/// One slot's memoized support, exact-size parallel arrays.
#[derive(Debug, Clone, Default)]
struct Held {
    groups: Box<[u32]>,
    values: Box<[f64]>,
}

/// One set's four slot headers, aligned so they fill exactly two cache
/// lines (a pipelined lookup prefetches both).
#[derive(Debug, Clone, Default)]
#[repr(align(64))]
struct SetSlots([Held; MuCache::WAYS]);

/// A bounded, set-associative, exact-key cache of sparse expected
/// observations. See the [module docs](self) for the design, the footprint
/// and the bit-exactness argument.
///
/// One cache belongs to **one** [`DeploymentKnowledge`] object (entries are
/// meaningless under any other deployment); the owning layer enforces that
/// by construction — a `lad_serve` shard builds its cache next to its
/// engine clone. Lookups go through
/// [`DeploymentKnowledge::expected_sparse_cached`] (one estimate) or
/// [`DeploymentKnowledge::for_each_mu_cached`] (a batch, pipelined).
///
/// [`DeploymentKnowledge`]: crate::DeploymentKnowledge
/// [`DeploymentKnowledge::expected_sparse_cached`]: crate::DeploymentKnowledge::expected_sparse_cached
/// [`DeploymentKnowledge::for_each_mu_cached`]: crate::DeploymentKnowledge::for_each_mu_cached
#[derive(Debug, Clone)]
pub struct MuCache {
    /// Keys per set.
    keys: Vec<SetKeys>,
    /// Valid/referenced bits and CLOCK hand per set.
    state: Vec<SetState>,
    /// Memoized supports, per set.
    held: Vec<SetSlots>,
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
            held: vec![SetSlots::default(); sets],
            scratch: SparseMu::new(),
            spare: vec![Vec::new(); Self::SPARE_LENS],
            set_mask: sets as u64 - 1,
            hits: 0,
            misses: 0,
        }
    }

    /// Total slot capacity (sets × ways).
    pub fn capacity(&self) -> usize {
        self.held.len() * Self::WAYS
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
        self.held
            .iter()
            .flat_map(|set| &set.0)
            .map(|h| h.groups.len())
            .sum()
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
        self.held.fill(SetSlots::default());
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
    /// one intermediate value per entry, then the ids are copied into the
    /// victim slot's exact-size arrays and `map(intermediate, µ)` writes
    /// µ for the whole slice straight into the slot (so it can run several
    /// entries per step, and the slot's possibly cold memory is written
    /// once).
    ///
    /// The hit path compares the exact estimate bits, so whatever `gather`
    /// and `map` produced for those bits is returned unchanged — the
    /// caller's closures *are* the float program, the cache only replays
    /// their output.
    pub fn get_or_fill<G, M>(&mut self, theta: Point2, gather: G, map: M) -> MuView<'_>
    where
        G: FnOnce(&mut SparseMu),
        M: Fn(&[f64], &mut [f64]),
    {
        let key = key_of(theta);
        self.get_or_fill_in(self.set_of(key), key, gather, map)
    }

    /// [`Self::get_or_fill`] over a batch of estimates, calling
    /// `f(row, µ)` for each in order, with the lookups software-pipelined
    /// (see the [module docs](self#pipelined-batch-lookup)): each row's set
    /// is hashed once, four rows ahead its key line, CLOCK state and slot
    /// headers are prefetched, and two rows ahead a read-only peek finds
    /// the way that would hit and prefetches the head of its id and value
    /// arrays. Row `r` then runs exactly the [`Self::get_or_fill`] logic on
    /// its precomputed set, so CLOCK transitions, `(hits, misses)` and
    /// every returned bit equal the row-at-a-time loop; a peek that a
    /// nearer row's eviction makes stale only wastes a hint.
    pub(crate) fn for_each_or_fill<G, M, F>(
        &mut self,
        thetas: &[Point2],
        gather: G,
        map: M,
        mut f: F,
    ) where
        G: Fn(Point2, &mut SparseMu),
        M: Fn(&[f64], &mut [f64]),
        F: FnMut(usize, MuView<'_>),
    {
        // (key, set) of rows r .. r + PREFETCH_SET_AHEAD, indexed by row
        // modulo the ring length.
        let mut ring = [([0u64; 2], 0usize); Self::RING];
        let ahead = |cache: &Self, ring: &mut [([u64; 2], usize); Self::RING], r: usize| {
            if let Some(&theta) = thetas.get(r) {
                let key = key_of(theta);
                let set = cache.set_of(key);
                ring[r % Self::RING] = (key, set);
                cache.prefetch_set(set);
            }
        };
        for r in 0..Self::PREFETCH_SET_AHEAD {
            ahead(self, &mut ring, r);
        }
        for (r, &theta) in thetas.iter().enumerate() {
            ahead(self, &mut ring, r + Self::PREFETCH_SET_AHEAD);
            if r + Self::PREFETCH_SLOT_AHEAD < thetas.len() {
                let (key, set) = ring[(r + Self::PREFETCH_SLOT_AHEAD) % Self::RING];
                self.prefetch_hit(set, key);
            }
            let (key, set) = ring[r % Self::RING];
            f(
                r,
                self.get_or_fill_in(set, key, |out| gather(theta, out), &map),
            );
        }
    }

    /// How many rows ahead [`Self::for_each_or_fill`] hashes a row and
    /// prefetches its set (key line, CLOCK state, four slot headers), and
    /// how many rows ahead it prefetches a hit slot's arrays. A cold set
    /// costs three dependent misses (keys → slot header → arrays); the
    /// distances start the first two loads four rows early and the third
    /// two rows early, once the header it depends on has arrived. Measured
    /// on a 2-vCPU x86-64 VM (paper scale, Diff, one 512-report round
    /// scored right after an 8 MiB sweep, median of 8 runs): the row loop
    /// takes ~105 µs cold and ~68 µs warm, the pipeline ~84 µs cold and
    /// ~69 µs warm. Distances 2/1 and 8/4 measured the same within noise.
    const PREFETCH_SET_AHEAD: usize = 4;
    const PREFETCH_SLOT_AHEAD: usize = 2;
    /// Length of the ring of precomputed `(key, set)` pairs: covers the
    /// rows in flight, rounded up to a power of two for a cheap modulo.
    const RING: usize = (Self::PREFETCH_SET_AHEAD + 1).next_power_of_two();

    /// Prefetches what a lookup in `set` reads first: its key line, its
    /// CLOCK state and its four slot headers.
    #[inline]
    fn prefetch_set(&self, set: usize) {
        prefetch(&self.keys[set]);
        prefetch(&self.state[set]);
        let slots: *const SetSlots = &self.held[set];
        prefetch(slots);
        prefetch(slots.cast::<u8>().wrapping_add(64));
    }

    /// Read-only peek: when `key` would hit in `set`, prefetches the first
    /// line of the slot's id array and the first two of its value array.
    /// Changes no cache state.
    #[inline]
    fn prefetch_hit(&self, set: usize, key: [u64; 2]) {
        if let Some(way) = self.hit_way(set, key) {
            let held = &self.held[set].0[way];
            if !held.groups.is_empty() {
                prefetch(held.groups.as_ptr());
                prefetch(held.values.as_ptr());
                prefetch(held.values.as_ptr().wrapping_add(8));
            }
        }
    }

    /// The way of `set` holding `key`, if any.
    #[inline]
    fn hit_way(&self, set: usize, key: [u64; 2]) -> Option<usize> {
        let (keys, valid) = (&self.keys[set].0, self.state[set].valid);
        (0..Self::WAYS).find(|&w| valid & (1 << w) != 0 && keys[w] == key)
    }

    /// The body of [`Self::get_or_fill`] for an already hashed key.
    #[inline]
    fn get_or_fill_in<G, M>(&mut self, set: usize, key: [u64; 2], gather: G, map: M) -> MuView<'_>
    where
        G: FnOnce(&mut SparseMu),
        M: Fn(&[f64], &mut [f64]),
    {
        let hit = self.hit_way(set, key);
        let state = &mut self.state[set];
        let way = match hit {
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
                let held = &mut self.held[set].0[way];
                Self::resize_exact(held, src.len(), &mut self.spare);
                held.groups.copy_from_slice(src.groups());
                map(src.values(), &mut held.values);
                way
            }
        };
        let held = &self.held[set].0[way];
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

    /// The identity map: the slot keeps the gathered values.
    fn copy(src: &[f64], dst: &mut [f64]) {
        dst.copy_from_slice(src);
    }

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
            .get_or_fill(theta, fill_tagged(1), copy)
            .iter()
            .collect();
        // A second lookup must not call fill again (fill_tagged(2) would
        // overwrite the entry if it ran).
        let second: Vec<_> = cache
            .get_or_fill(theta, fill_tagged(2), copy)
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
        cache.get_or_fill(a, fill_tagged(1), copy);
        let at_b: Vec<_> = cache.get_or_fill(b, fill_tagged(2), copy).iter().collect();
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
                let got = cache.get_or_fill(theta, fill_tagged(i), copy);
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
        cache.get_or_fill(theta, fill_tagged(1), copy);
        cache.get_or_fill(theta, fill_tagged(1), copy);
        assert_eq!(cache.take_stats(), (1, 1));
        assert_eq!(cache.take_stats(), (0, 0));
        assert!(!cache.is_empty());
        cache.clear();
        assert!(cache.is_empty());
        // Cleared entries miss again.
        cache.get_or_fill(theta, fill_tagged(1), copy);
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
        cache.get_or_fill(Point2::new(1.0, 0.0), fill_k(3), copy);
        cache.get_or_fill(Point2::new(2.0, 0.0), fill_k(5), copy);
        cache.get_or_fill(Point2::new(3.0, 0.0), fill_k(0), copy);
        assert_eq!(cache.held_entries(), 8);
        assert_eq!(cache.len(), 3);
        cache.clear();
        assert_eq!(cache.held_entries(), 0);
        assert_eq!(
            cache
                .get_or_fill(Point2::new(2.0, 0.0), fill_k(2), copy)
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
