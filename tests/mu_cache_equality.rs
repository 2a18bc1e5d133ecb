//! Cached-vs-uncached µ equality: a [`MuCache`] in front of
//! `expected_sparse_into` must be **invisible** to every consumer — the
//! same entries, bit for bit, whatever the query history — across random
//! estimate streams with repeats, cell-boundary estimates (the
//! `SupportIndex` grid seams), out-of-area fallback estimates, and
//! eviction churn under adversarially tiny capacities. On top of the raw µ
//! equality, the engine's cached row-scoring entry points must reproduce
//! the uncached ones bit for bit, all-metrics and single-metric alike.
//! The software-pipelined batch lookup behind those entry points must be
//! only a hint: it equals a row-at-a-time loop in every bit and every
//! replacement decision.

use lad_core::metrics::{score_all_fused_sparse, ObsScratch};
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

/// One looked-up row as comparable bits: the support's group ids, its µ
/// bits and the three metrics' score bits against the row's observation.
type RowBits = (Vec<u32>, Vec<u64>, [u64; 3]);

fn row_bits(rows: &ObservationBatch, r: usize, mu: lad_deployment::MuView<'_>) -> RowBits {
    (
        mu.groups().to_vec(),
        mu.values().iter().map(|v| v.to_bits()).collect(),
        score_all_fused_sparse(rows.row(r), mu, &mut ObsScratch::new()).map(f64::to_bits),
    )
}

/// Looks up every estimate of `rows` through the pipelined batch path on
/// `piped` and through a row-at-a-time `expected_sparse_cached` loop on
/// `looped` (two caches in the same state), and asserts the prefetching
/// changed nothing: the same µ and score bits per row, the same
/// `(hits, misses)`, `len()` and `held_entries()`.
fn assert_pipeline_matches_row_loop(
    k: &DeploymentKnowledge,
    rows: &ObservationBatch,
    piped: &mut MuCache,
    looped: &mut MuCache,
) {
    let estimates = rows.as_csr().estimates;
    let mut got = Vec::new();
    k.for_each_mu_cached(estimates, piped, |r, mu| {
        assert_eq!(r, got.len(), "rows are visited in order");
        got.push(row_bits(rows, r, mu));
    });
    let want: Vec<RowBits> = estimates
        .iter()
        .enumerate()
        .map(|(r, &theta)| row_bits(rows, r, k.expected_sparse_cached(theta, looped)))
        .collect();
    assert_eq!(got, want);
    assert_eq!(
        (piped.hits(), piped.misses()),
        (looped.hits(), looped.misses())
    );
    assert_eq!(piped.len(), looped.len());
    assert_eq!(piped.held_entries(), looped.held_entries());
}

/// A batch of `thetas` with a small observation per row that varies with
/// the row index, so the score bits depend on which µ each row got.
fn batch_of(k: &DeploymentKnowledge, thetas: impl IntoIterator<Item = Point2>) -> ObservationBatch {
    let n = k.group_count() as u32;
    let mut rows = ObservationBatch::new(n as usize);
    for (i, theta) in thetas.into_iter().enumerate() {
        let g = (i as u32 * 37) % (n - 2);
        rows.push_sparse(&[g, g + 2], &[1 + i as u32 % 5, 3], theta);
    }
    rows
}

/// The pipelined lookup is only a hint on the churning paper-scale stream
/// (fed in 512-row batches, the serve round size, through the default
/// capacity), where it also reproduces the pinned policy fingerprint.
#[test]
fn pipelined_lookup_equals_the_row_loop_on_the_churning_stream() {
    let k = DeploymentKnowledge::from_config(&DeploymentConfig::paper_default());
    let (mut piped, mut looped) = (MuCache::new(16_384), MuCache::new(16_384));
    let stream: Vec<Point2> = churn_stream(120_000).collect();
    for chunk in stream.chunks(512) {
        let rows = batch_of(&k, chunk.iter().copied());
        assert_pipeline_matches_row_loop(&k, &rows, &mut piped, &mut looped);
    }
    assert_eq!((piped.hits(), piped.misses()), (69_270, 50_730));
    assert_eq!(piped.len(), 16_119);
}

/// A capacity-4 cache is one set, so rows inside the prefetch distance
/// evict the very slots an earlier peek prefetched: the hint goes stale
/// and must stay harmless.
#[test]
fn pipelined_lookup_equals_the_row_loop_when_rows_evict_each_other() {
    let k = DeploymentKnowledge::from_config(&DeploymentConfig::paper_default());
    let (mut piped, mut looped) = (MuCache::new(4), MuCache::new(4));
    assert_eq!(piped.capacity(), 4);
    // Seven distinct estimates in a repeating, shifting pattern: some
    // rows hit a slot that a row between the peek and the lookup evicts.
    let pool: Vec<Point2> = (0..7)
        .map(|i| Point2::new(80.0 + 130.0 * i as f64, 900.0 - 110.0 * i as f64))
        .collect();
    for batch in 0..40usize {
        let thetas = (0..batch % 13 + 5).map(|i| pool[(i * (batch % 3 + 1) + batch) % 7]);
        let rows = batch_of(&k, thetas);
        assert_pipeline_matches_row_loop(&k, &rows, &mut piped, &mut looped);
    }
    assert!(piped.hits() > 0 && piped.misses() > 100, "both paths churn");
}

/// Batches shorter than the prefetch distances (0–3 rows), on an empty
/// cache and on a warm one.
#[test]
fn pipelined_lookup_equals_the_row_loop_on_batches_shorter_than_the_distances() {
    let k = knowledge(40.0, 60);
    let (mut piped, mut looped) = (MuCache::new(8), MuCache::new(8));
    let pool = [
        Point2::new(10.0, 20.0),
        Point2::new(200.0, 310.5),
        Point2::new(-900.0, 5.0),
        Point2::new(399.0, 0.25),
    ];
    for pass in 0..3 {
        for len in 0..=3usize {
            let rows = batch_of(&k, (0..len).map(|i| pool[(i + pass + len) % pool.len()]));
            assert_pipeline_matches_row_loop(&k, &rows, &mut piped, &mut looped);
        }
    }
    assert!(piped.hits() > 0, "later passes hit");
}
