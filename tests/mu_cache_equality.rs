//! Cached-vs-uncached µ equality: a [`MuCache`] in front of
//! `expected_sparse_into` must be **invisible** to every consumer — the
//! same entries, bit for bit, whatever the query history — across random
//! estimate streams with repeats, cell-boundary estimates (the
//! `SupportIndex` grid seams), out-of-area fallback estimates, and
//! eviction churn under adversarially tiny capacities. On top of the raw µ
//! equality, the engine's cached row-scoring entry points must reproduce
//! the uncached ones bit for bit, all-metrics and single-metric alike.

use lad_core::{LadEngine, MetricKind};
use lad_deployment::{DeploymentConfig, DeploymentKnowledge, MuCache, SparseMu};
use lad_geometry::Point2;
use lad_net::{Observation, ObservationBatch};
use proptest::prelude::*;

fn knowledge(sigma: f64, m: usize) -> DeploymentKnowledge {
    DeploymentKnowledge::from_config(&DeploymentConfig {
        area_side: 400.0,
        grid_cols: 4,
        grid_rows: 4,
        sigma,
        group_size: m,
        range: 40.0,
        gz_table_omega: 32,
    })
}

/// Asserts the cached fill for `theta` equals the uncached one bitwise
/// (group sets identical, µ bits identical).
fn assert_cached_equals_uncached(k: &DeploymentKnowledge, cache: &mut MuCache, theta: Point2) {
    let mut fresh = SparseMu::new();
    k.expected_sparse_into(theta, &mut fresh);
    let cached = k.expected_sparse_cached(theta, cache);
    let fresh = fresh.view();
    assert_eq!(
        cached.len(),
        fresh.len(),
        "support size differs at {theta:?}"
    );
    assert_eq!(
        (cached.group_count(), cached.group_size()),
        (fresh.group_count(), fresh.group_size())
    );
    for (c, f) in cached.iter().zip(fresh.iter()) {
        assert_eq!(c.0, f.0, "support group differs at {theta:?}");
        assert_eq!(
            c.1.to_bits(),
            f.1.to_bits(),
            "µ bits differ at {theta:?} group {}",
            c.0
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random estimate streams with heavy repetition (every estimate is
    /// drawn from a small pool, so the stream mixes cold misses, warm hits
    /// and re-fills after eviction) against caches from adversarially tiny
    /// to comfortably large: every single lookup must equal an uncached
    /// fill, and the hit/miss counters must account for every query.
    #[test]
    fn prop_cached_mu_is_bit_identical_across_streams_and_eviction(
        sigma in 15.0f64..70.0,
        m in 20usize..120,
        capacity in 1usize..64,
        pool_x in proptest::collection::vec(-0.5f64..1.5, 12..13),
        pool_y in proptest::collection::vec(-0.5f64..1.5, 12..13),
        stream in proptest::collection::vec(0usize..12, 20..80),
    ) {
        let k = knowledge(sigma, m);
        let mut cache = MuCache::new(capacity);
        let mut queries = 0u64;
        for &i in &stream {
            let (xf, yf) = (pool_x[i % pool_x.len()], pool_y[i % pool_y.len()]);
            // Sweeps inside and outside the 400-unit area (the out-of-area
            // side takes the brute-scan fallback inside the fill closure).
            let theta = Point2::new(xf * 400.0, yf * 400.0);
            assert_cached_equals_uncached(&k, &mut cache, theta);
            queries += 1;
        }
        prop_assert_eq!(cache.hits() + cache.misses(), queries);
        prop_assert!(cache.len() <= cache.capacity());
    }

    /// Cell-boundary estimates: the `SupportIndex` resolves candidates per
    /// grid cell (cell = z_max/4), so estimates exactly on cell seams — and
    /// one ULP to either side — are where a cell-keyed cache would go wrong.
    /// The bit-exact estimate key must not care.
    #[test]
    fn prop_cell_boundary_estimates_are_exact(
        sigma in 15.0f64..70.0,
        m in 20usize..120,
        cell_x in 0u32..12,
        cell_y in 0u32..12,
    ) {
        let k = knowledge(sigma, m);
        let cell = k.support_radius() / 4.0;
        let mut cache = MuCache::new(16);
        let (bx, by) = (cell_x as f64 * cell, cell_y as f64 * cell);
        for theta in [
            Point2::new(bx, by),
            Point2::new(bx.next_up(), by),
            Point2::new(bx.next_down(), by),
            Point2::new(bx, by.next_up()),
            Point2::new(bx, by.next_down()),
        ] {
            // Twice each: a cold miss then a warm hit, both must be exact.
            assert_cached_equals_uncached(&k, &mut cache, theta);
            assert_cached_equals_uncached(&k, &mut cache, theta);
        }
    }

    /// The engine's cached sequential row scoring equals the uncached
    /// kernel bit for bit, for the fused all-metrics pass and the
    /// single-metric pass a serve shard runs, even when the cache is so
    /// small that almost every row evicts.
    #[test]
    fn prop_engine_cached_scoring_is_bit_identical(
        capacity in 1usize..32,
        seed in 0u64..1000,
        rows_n in 8usize..48,
    ) {
        let engine = LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .unwrap();
        let n = engine.knowledge().group_count();
        let mut rows = ObservationBatch::new(n);
        for i in 0..rows_n as u32 {
            let s = seed.wrapping_add(i as u64);
            let obs = Observation::from_counts(
                (0..n as u32).map(|g| (g.wrapping_mul(7) ^ s as u32) % 9).collect(),
            );
            // Repeats every 8 rows so the stream has both hits and misses.
            let j = (i % 8) as f64;
            rows.push(&obs, Point2::new(j * 53.1, ((seed % 7) as f64) * 61.7));
        }
        let mut uncached = Vec::new();
        engine.score_rows_into(&rows, &mut uncached);

        let mut cache = MuCache::new(capacity);
        let mut cached = vec![0.0; uncached.len()];
        engine.score_rows_seq_cached_into(&rows, &mut cache, &mut cached);
        for (c, u) in cached.iter().zip(&uncached) {
            prop_assert_eq!(c.to_bits(), u.to_bits());
        }
        prop_assert_eq!(cache.hits() + cache.misses(), rows.len() as u64);

        // Single-metric serve path, reusing the (now dirty) cache: history
        // must not matter.
        for kind in MetricKind::ALL {
            let mut one_uncached = vec![0.0; rows.len()];
            engine.score_rows_seq_one_into(&rows, kind, &mut one_uncached);
            let mut one_cached = vec![0.0; rows.len()];
            engine.score_rows_seq_one_cached_into(&rows, kind, &mut cache, &mut one_cached);
            for (c, u) in one_cached.iter().zip(&one_uncached) {
                prop_assert_eq!(c.to_bits(), u.to_bits());
            }
        }
    }
}

/// Out-of-area estimates take `SupportIndex::candidates == None` (the
/// brute-scan fallback) inside the fill; the cache must memoize those
/// exactly like indexed fills, including the empty-support case.
#[test]
fn out_of_area_fallback_estimates_cache_exactly() {
    let k = knowledge(40.0, 60);
    let mut cache = MuCache::new(8);
    let probes = [
        Point2::new(-5000.0, 200.0),  // far left: empty support
        Point2::new(200.0, 9000.0),   // far up: empty support
        Point2::new(-410.0, -410.0),  // just beyond the padded bounds
        Point2::new(f64::MAX, 200.0), // degenerate coordinates
    ];
    for theta in probes {
        assert_cached_equals_uncached(&k, &mut cache, theta);
        assert_cached_equals_uncached(&k, &mut cache, theta);
    }
    // Four distinct keys, each queried twice.
    assert_eq!((cache.hits(), cache.misses()), (4, 4));
}

/// NaN estimates: `to_bits` keys make NaN == NaN for the cache, so a hit
/// replays the fill's output — whatever it was — instead of diverging from
/// the uncached path.
#[test]
fn nan_estimates_memoize_consistently() {
    let k = knowledge(40.0, 60);
    let mut cache = MuCache::new(8);
    let theta = Point2::new(f64::NAN, 100.0);
    let first: Vec<(u32, u64)> = k
        .expected_sparse_cached(theta, &mut cache)
        .iter()
        .map(|(g, v)| (g, v.to_bits()))
        .collect();
    let second: Vec<(u32, u64)> = k
        .expected_sparse_cached(theta, &mut cache)
        .iter()
        .map(|(g, v)| (g, v.to_bits()))
        .collect();
    assert_eq!(first, second);
    assert_eq!((cache.hits(), cache.misses()), (1, 1));
}

/// A seeded paper-scale estimate stream: half the draws come from a hot set
/// of 4096 estimates, the rest from a pool of 40 000 — far beyond a
/// 16384-slot cache, so it churns. Estimates span the area plus a 100 m
/// margin, so support sizes vary from edge to interior.
fn churn_stream(len: usize) -> impl Iterator<Item = Point2> {
    use lad_stats::seeds::splitmix64;
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

/// Pins the replacement policy: the set hash, the 4 ways and CLOCK decide
/// which estimates survive, so the exact `(hits, misses)` of a churning
/// paper-scale stream through the default-capacity cache is a fingerprint
/// of all three. The numbers are those of the original slot layout.
#[test]
fn replacement_policy_is_pinned_on_a_churning_paper_scale_stream() {
    let k = DeploymentKnowledge::from_config(&DeploymentConfig::paper_default());
    let mut cache = MuCache::new(16_384);
    for theta in churn_stream(120_000) {
        k.expected_sparse_cached(theta, &mut cache);
    }
    assert_eq!((cache.hits(), cache.misses()), (69_270, 50_730));
    assert_eq!(cache.len(), 16_119);
}
