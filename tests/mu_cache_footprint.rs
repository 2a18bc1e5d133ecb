//! Heap footprint of the µ cache: a counting global allocator measures
//! what `MuCache::new(16384)` holds after a churning paper-scale stream and
//! asserts it stays within 64 B per slot plus 14 B per held support entry
//! (the entries themselves are 12 B: a `u32` group id and an `f64` µ).
//!
//! This file holds a single test so no other test allocates while it
//! measures.

use lad_deployment::{DeploymentConfig, DeploymentKnowledge, MuCache};
use lad_geometry::Point2;
use lad_stats::seeds::splitmix64;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicUsize, Ordering};

/// Delegates to the system allocator and tracks the live requested bytes.
struct Counting;

static LIVE: AtomicUsize = AtomicUsize::new(0);

// SAFETY: every call forwards to `System` with the caller's arguments
// unchanged; the counter is bookkeeping only.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let p = System.alloc(layout);
        if !p.is_null() {
            LIVE.fetch_add(layout.size(), Ordering::Relaxed);
        }
        p
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
        LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let p = System.realloc(ptr, layout, new_size);
        if !p.is_null() {
            LIVE.fetch_sub(layout.size(), Ordering::Relaxed);
            LIVE.fetch_add(new_size, Ordering::Relaxed);
        }
        p
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// The seeded paper-scale stream of `tests/mu_cache_equality.rs`: half the
/// draws from 4096 hot estimates, half from a 40 000-estimate pool, over
/// the area plus a 100 m margin (interior, edge and corner supports).
fn churn_stream(len: usize) -> impl Iterator<Item = Point2> {
    const POOL: u64 = 40_000;
    const HOT: u64 = 4_096;
    (0..len as u64).map(|i| {
        let h = splitmix64(0x5EED_CAC4E ^ i);
        let id = if h & 1 == 0 {
            (h >> 1) % HOT
        } else {
            (h >> 1) % POOL
        };
        let p = splitmix64(id);
        let x = (p % 1_000_003) as f64 * 1.2e-3 - 100.0;
        let y = ((p >> 32) % 1_000_003) as f64 * 1.2e-3 - 100.0;
        Point2::new(x, y)
    })
}

#[test]
fn mu_cache_heap_stays_within_64_bytes_per_slot_plus_14_per_entry() {
    let k = DeploymentKnowledge::from_config(&DeploymentConfig::paper_default());
    let before = LIVE.load(Ordering::SeqCst);
    let mut cache = MuCache::new(16_384);
    let (mut smallest, mut largest) = (usize::MAX, 0);
    for theta in churn_stream(120_000) {
        let k_len = k.expected_sparse_cached(theta, &mut cache).len();
        smallest = smallest.min(k_len);
        largest = largest.max(k_len);
    }
    let heap = LIVE.load(Ordering::SeqCst) - before;

    assert!(
        cache.misses() > 2 * cache.capacity() as u64,
        "stream must churn"
    );
    assert!(
        largest > 2 * smallest,
        "supports must vary: {smallest}..{largest}"
    );
    let held = cache.held_entries();
    let bound = 64 * cache.capacity() + 14 * held;
    assert!(
        heap <= bound,
        "µ cache heap {heap} B exceeds 64 B × {} slots + 14 B × {held} entries = {bound} B",
        cache.capacity()
    );
}
