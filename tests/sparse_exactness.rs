//! Sparse-vs-dense exactness: the sparse scoring path (support-indexed
//! `SparseMu` + CSR `ObservationBatch` rows) must reproduce the dense
//! per-metric reference `MetricKind::score` **bit for bit** — same support
//! set, same µ values, same scores — over random deployments, corner and
//! out-of-area estimates, and zero / random / saturated observations, for
//! all three metrics' sparse kernels, the fused kernel and every engine
//! entry point — on rows the kernels score by walking µ's support over a
//! dense observation scratch and on rows that fall back to the sorted merge.
//! The dense µ every comparison uses is [`brute_mu`], a scan of all `n`
//! deployment points that shares neither the support index nor the lane
//! map with the library's fill.

use lad_core::metrics::{score_all_fused_sparse, ObsScratch};
use lad_core::{LadEngine, MetricKind};
use lad_deployment::{DeploymentConfig, DeploymentKnowledge, MuCache, SparseMu};
use lad_geometry::Point2;
use lad_net::{Observation, ObservationBatch};
use proptest::prelude::*;
use rand::{Rng, SeedableRng};
use rand_chacha::ChaCha8Rng;

/// A small random-but-valid deployment configuration. Grids and ω are kept
/// small so each case's g(z) quadrature stays cheap.
fn config(
    side: f64,
    cols: usize,
    rows: usize,
    sigma: f64,
    m: usize,
    omega: usize,
) -> DeploymentConfig {
    DeploymentConfig {
        area_side: side,
        grid_cols: cols,
        grid_rows: rows,
        sigma,
        group_size: m,
        range: 40.0,
        gz_table_omega: omega,
    }
}

/// The dense µ by brute force: `m · g(√d²)` for every deployment point
/// with `d² < z_max²`, 0 otherwise (a NaN estimate compares false, so its
/// µ is all zero).
fn brute_mu(knowledge: &DeploymentKnowledge, theta: Point2) -> Vec<f64> {
    let m = knowledge.group_size() as f64;
    let z_max = knowledge.support_radius();
    knowledge
        .layout()
        .deployment_points()
        .iter()
        .map(|dp| {
            let d_sq = dp.distance_squared(theta);
            if d_sq < z_max * z_max {
                m * knowledge.gz_table().eval(d_sq.sqrt())
            } else {
                0.0
            }
        })
        .collect()
}

/// Asserts bitwise f64 equality (− the strongest form of "same score").
fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

fn check_point(knowledge: &DeploymentKnowledge, obs: &Observation, theta: Point2) {
    let m = knowledge.group_size();
    let dense_mu = brute_mu(knowledge, theta);
    let mut smu = SparseMu::new();
    knowledge.expected_sparse_into(theta, &mut smu);

    // The sparse µ scatters back to the brute-force µ exactly, entries
    // sorted, and so does the library's dense µ.
    let bits = |mu: &[f64]| mu.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
    assert_eq!(
        bits(&smu.to_dense()),
        bits(&dense_mu),
        "µ mismatch at {theta:?}"
    );
    assert_eq!(
        bits(&knowledge.expected_observation(theta)),
        bits(&dense_mu),
        "dense µ mismatch at {theta:?}"
    );
    let mu = smu.view();
    assert!(mu.groups().windows(2).all(|w| w[0] < w[1]));

    // Support equals the brute-force within-z_max set (dense early-out
    // predicate), modulo boundary entries whose µ is exactly 0 — those are
    // indistinguishable from absent entries for every kernel.
    let z_max = knowledge.support_radius();
    let brute: Vec<u32> = (0..knowledge.group_count())
        .filter(|&g| {
            knowledge
                .layout()
                .deployment_point(g)
                .distance_squared(theta)
                < z_max * z_max
        })
        .map(|g| g as u32)
        .collect();
    assert_eq!(mu.groups(), brute, "support mismatch at {theta:?}");

    let mut batch = ObservationBatch::new(knowledge.group_count());
    batch.push(obs, theta);
    let row = batch.row(0);

    // The per-metric sparse kernels and the fused pass, each against the
    // dense per-metric reference.
    let mut scratch = ObsScratch::new();
    let fused = score_all_fused_sparse(row, mu, &mut scratch);
    for (i, kind) in MetricKind::ALL.into_iter().enumerate() {
        let dense = kind.score(obs, &dense_mu, m);
        assert_bits(dense, kind.score_sparse(row, mu, &mut scratch), kind.name());
        assert_bits(dense, fused[i], "fused sparse row");
    }
    assert!(scratch.is_clear(), "scratch left dirty at {theta:?}");
}

/// The row shapes [`prop_dense_walk_and_merge_fallback_match_the_dense_reference`]
/// mixes into one batch.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Shape {
    /// Counts only on support groups: scored by the dense walk.
    InsideSupport,
    /// Support counts plus one group outside the support: the merge.
    OutsideGroup,
    /// No counts at all.
    Empty,
    /// A NaN or ±1e300 estimate (empty support) under random counts.
    EmptySupport,
}

const SHAPES: [Shape; 4] = [
    Shape::InsideSupport,
    Shape::OutsideGroup,
    Shape::Empty,
    Shape::EmptySupport,
];

/// Draws one row of `shape` over `knowledge`: its estimate and dense counts.
fn shaped_row(
    knowledge: &DeploymentKnowledge,
    shape: Shape,
    rng: &mut ChaCha8Rng,
) -> (Point2, Vec<u32>) {
    let (n, m) = (knowledge.group_count(), knowledge.group_size() as u32);
    let side = knowledge.config().area_side;
    let theta = if shape == Shape::EmptySupport {
        [
            Point2::new(f64::NAN, side / 2.0),
            Point2::new(1e300, side / 2.0),
            Point2::new(side / 2.0, -1e300),
        ][rng.gen_range(0..3usize)]
    } else {
        Point2::new(rng.gen_range(0.0..side), rng.gen_range(0.0..side))
    };
    let mut smu = SparseMu::new();
    knowledge.expected_sparse_into(theta, &mut smu);
    let support = smu.view().groups();
    let mut counts = vec![0u32; n];
    match shape {
        Shape::InsideSupport | Shape::OutsideGroup => {
            for &g in support {
                if rng.gen_range(0..3u32) > 0 {
                    counts[g as usize] = rng.gen_range(1..=m);
                }
            }
            if shape == Shape::OutsideGroup {
                let outside: Vec<usize> =
                    (0..n).filter(|&g| !support.contains(&(g as u32))).collect();
                assert!(
                    !outside.is_empty(),
                    "support covers the deployment at {theta:?}"
                );
                counts[outside[rng.gen_range(0..outside.len())]] = rng.gen_range(1..=m);
            }
        }
        Shape::Empty => {}
        Shape::EmptySupport => {
            assert!(support.is_empty(), "{theta:?} has a support");
            for c in &mut counts {
                *c = rng.gen_range(0..=m);
            }
        }
    }
    (theta, counts)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn prop_sparse_matches_dense_on_random_configs(
        side in 150.0f64..600.0,
        cols in 2usize..6,
        rows in 2usize..6,
        sigma in 15.0f64..80.0,
        m in 20usize..200,
        omega in 16usize..64,
        x_frac in -0.5f64..1.5,
        y_frac in -0.5f64..1.5,
        counts in proptest::collection::vec(0u32..40, 4..36),
    ) {
        let cfg = config(side, cols, rows, sigma, m, omega);
        let knowledge = DeploymentKnowledge::from_config(&cfg);
        let n = knowledge.group_count();
        // Estimates sweep the area and beyond it (x_frac/y_frac outside
        // [0, 1] put θ outside the deployment area).
        let theta = Point2::new(x_frac * side, y_frac * side);
        let mut padded = counts;
        padded.resize(n, 0);
        let obs = Observation::from_counts(padded);
        check_point(&knowledge, &obs, theta);
    }

    #[test]
    fn prop_sparse_matches_dense_on_edge_observations(
        sigma in 20.0f64..70.0,
        m in 30usize..120,
        corner in 0usize..4,
    ) {
        let cfg = config(300.0, 3, 3, sigma, m, 32);
        let knowledge = DeploymentKnowledge::from_config(&cfg);
        let n = knowledge.group_count();
        // Corner estimates plus probes far outside the padded index bounds
        // (exercising the brute-scan fallback, including an empty support).
        let probes = [
            Point2::new(0.0, 0.0),
            Point2::new(300.0, 0.0),
            Point2::new(0.0, 300.0),
            Point2::new(300.0, 300.0),
            Point2::new(-2000.0, 150.0),
            Point2::new(150.0, 9000.0),
        ];
        let theta = probes[corner];
        let far = probes[4 + corner % 2];
        for obs in [
            Observation::zeros(n),                                   // zero
            Observation::from_counts(vec![m as u32; n]),             // saturated
            Observation::from_counts((0..n as u32).map(|i| i % 7).collect()),
        ] {
            check_point(&knowledge, &obs, theta);
            check_point(&knowledge, &obs, far);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One batch mixing dense-walk rows, fallback rows (a group outside the
    /// support), empty rows and empty-support rows, scored by every
    /// kernel and engine entry point; every score must equal the dense
    /// reference bit for bit, and the scratch must be clear after every
    /// row. The deployment (600 m, 4×4 groups, z_max ≤ 280 m) always leaves
    /// groups outside an in-area estimate's support.
    #[test]
    fn prop_dense_walk_and_merge_fallback_match_the_dense_reference(
        sigma in 15.0f64..40.0,
        m in 30usize..120,
        rows in 4usize..40,
        seed in 0u64..u64::MAX,
    ) {
        let engine = LadEngine::builder()
            .deployment(&config(600.0, 4, 4, sigma, m, 32))
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .unwrap();
        let knowledge = engine.knowledge().clone();
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let mut batch = ObservationBatch::new(knowledge.group_count());
        let mut want = Vec::new();
        let mut smu = SparseMu::new();
        for r in 0..rows {
            // The first rows take each shape once, so every batch mixes all four.
            let shape = SHAPES.get(r).copied().unwrap_or_else(|| SHAPES[rng.gen_range(0..4usize)]);
            let (theta, counts) = shaped_row(&knowledge, shape, &mut rng);
            let obs = Observation::from_counts(counts);
            let mu = brute_mu(&knowledge, theta);
            want.push(MetricKind::ALL.map(|kind| kind.score(&obs, &mu, m)));
            batch.push(&obs, theta);
        }

        // The kernels, one scratch across the whole batch.
        let mut scratch = ObsScratch::new();
        for (r, want) in want.iter().enumerate() {
            knowledge.expected_sparse_into(batch.estimate(r), &mut smu);
            let fused = score_all_fused_sparse(batch.row(r), smu.view(), &mut scratch);
            prop_assert!(scratch.is_clear(), "fused kernel left row {} dirty", r);
            for (k, kind) in MetricKind::ALL.into_iter().enumerate() {
                assert_bits(want[k], fused[k], &format!("fused row {r} {}", kind.name()));
                let one = kind.score_sparse(batch.row(r), smu.view(), &mut scratch);
                prop_assert!(scratch.is_clear(), "{} left row {} dirty", kind.name(), r);
                assert_bits(want[k], one, &format!("score_sparse row {r} {}", kind.name()));
            }
        }

        // The engine entry points: the fused pass, uncached and cached (a
        // miss pass, then a hit pass), and each single-metric shard kernel.
        let check = |scores: &[f64], width: usize, col: Option<usize>, what: &str| {
            for (r, want) in want.iter().enumerate() {
                for k in 0..width {
                    let col = col.unwrap_or(k);
                    assert_bits(want[col], scores[r * width + k], &format!("{what} row {r} col {col}"));
                }
            }
        };
        let mut flat = Vec::new();
        engine.score_rows_into(&batch, &mut flat);
        check(&flat, 3, None, "score_rows_into");
        let mut cache = MuCache::new(64);
        for pass in ["miss", "hit"] {
            let mut cached = vec![f64::NAN; 3 * batch.len()];
            engine.score_rows_seq_cached_into(&batch, &mut cache, &mut cached);
            check(&cached, 3, None, &format!("score_rows_seq_cached_into {pass}"));
        }
        for (k, kind) in MetricKind::ALL.into_iter().enumerate() {
            let mut one = vec![f64::NAN; batch.len()];
            engine.score_rows_seq_one_into(&batch, kind, &mut one);
            check(&one, 1, Some(k), &format!("score_rows_seq_one_into {}", kind.name()));
            engine.score_rows_seq_one_cached_into(&batch, kind, &mut cache, &mut one);
            check(&one, 1, Some(k), &format!("score_rows_seq_one_cached_into {}", kind.name()));
        }
    }
}

#[test]
fn nan_estimates_have_an_all_zero_dense_mu() {
    // A NaN estimate has an empty support, so the dense µ is all +0.0 and
    // the dense reference scores equal every sparse kernel's.
    let knowledge = DeploymentKnowledge::from_config(&DeploymentConfig::small_test());
    let n = knowledge.group_count();
    for theta in [
        Point2::new(f64::NAN, 200.0),
        Point2::new(200.0, f64::NAN),
        Point2::new(f64::NAN, f64::NAN),
    ] {
        let mu = knowledge.expected_observation(theta);
        assert_eq!(mu.len(), n);
        assert!(
            mu.iter().all(|v| v.to_bits() == 0),
            "µ at {theta:?}: {mu:?}"
        );
        for obs in [
            Observation::zeros(n),
            Observation::from_counts((0..n as u32).map(|g| g % 5).collect()),
        ] {
            check_point(&knowledge, &obs, theta);
        }
    }
}

#[test]
fn engine_row_scoring_matches_dense_request_scoring_bitwise() {
    let engine = LadEngine::builder()
        .deployment(&DeploymentConfig::small_test())
        .metrics(&MetricKind::ALL)
        .score_only()
        .build()
        .unwrap();
    let knowledge = engine.knowledge().clone();
    let m = knowledge.group_size();
    let network = lad_net::Network::generate(knowledge.clone(), 4242);
    let mut observations = Vec::new();
    let mut rows = ObservationBatch::new(knowledge.group_count());
    for i in 0..300u32 {
        let node = lad_net::NodeId(i * 3 % network.node_count() as u32);
        let obs = network.true_observation(node);
        let at = Point2::new(
            -50.0 + (i as f64 * 13.7) % 500.0,
            -50.0 + (i as f64 * 29.3) % 500.0,
        );
        rows.push(&obs, at);
        observations.push(obs);
    }
    // The engine's CSR row batch against the dense reference: each
    // request's dense observation scored per metric over the dense µ.
    let mut flat_rows = Vec::new();
    engine.score_rows_into(&rows, &mut flat_rows);
    let width = engine.metrics().len();
    assert_eq!(flat_rows.len(), rows.len() * width);
    for (r, (obs, row)) in observations.iter().zip(flat_rows.chunks(width)).enumerate() {
        let mu = brute_mu(&knowledge, rows.estimate(r));
        for (k, kind) in MetricKind::ALL.into_iter().enumerate() {
            assert_bits(
                row[k],
                kind.score(obs, &mu, m),
                &format!("row {r} metric {k}"),
            );
        }
    }
    // The serve shard kernel: each single-metric column reproduces the
    // fused pass's column bit for bit (what lets a shard score only its
    // decision metric without changing any alarm decision).
    for (k, &kind) in engine.metrics().iter().enumerate() {
        let mut one = vec![0.0; rows.len()];
        engine.score_rows_seq_one_into(&rows, kind, &mut one);
        for (r, &score) in one.iter().enumerate() {
            assert_eq!(
                score.to_bits(),
                flat_rows[r * width + k].to_bits(),
                "single-metric column {} row {r}",
                kind.name()
            );
        }
    }
}

#[test]
fn non_fused_engines_score_rows_identically_too() {
    // A two-metric engine takes the per-metric (non-fused) path; every
    // entry point must still match the dense reference bit for bit.
    let engine = non_fused_engine();
    let knowledge = engine.knowledge().clone();
    let n = knowledge.group_count();
    let m = knowledge.group_size();
    let mut rows = ObservationBatch::new(n);
    let mut dense = Vec::new();
    for i in 0..40u32 {
        let obs = Observation::from_counts((0..n as u32).map(|g| (g + i) % 9).collect());
        let at = Point2::new((i as f64 * 31.7) % 400.0, (i as f64 * 17.3) % 400.0);
        rows.push(&obs, at);
        let mu = brute_mu(&knowledge, at);
        for &kind in engine.metrics() {
            dense.push(kind.score(&obs, &mu, m));
        }
    }
    let check = |scores: &[f64], what: &str| {
        assert_eq!(scores.len(), dense.len(), "{what}");
        for (i, (&got, &want)) in scores.iter().zip(&dense).enumerate() {
            assert_bits(
                got,
                want,
                &format!("{what}: row {} column {}", i / 2, i % 2),
            );
        }
    };
    let mut flat_rows = Vec::new();
    engine.score_rows_into(&rows, &mut flat_rows);
    check(&flat_rows, "score_rows_into");

    // The cached kernel twice over one cache: every row misses on the first
    // pass (the fill path) and hits on the second (the in-place path).
    let mut cache = MuCache::new(1024);
    for (pass, hits) in [(1, 0), (2, rows.len() as u64)] {
        let mut cached = vec![f64::NAN; 2 * rows.len()];
        engine.score_rows_seq_cached_into(&rows, &mut cache, &mut cached);
        assert_eq!((cache.hits(), cache.misses()), (hits, rows.len() as u64));
        check(&cached, &format!("score_rows_seq_cached_into pass {pass}"));
    }

    // The single-metric shard kernels, uncached and cached, per column.
    for (k, &kind) in engine.metrics().iter().enumerate() {
        let mut one = vec![f64::NAN; rows.len()];
        let mut one_cached = vec![f64::NAN; rows.len()];
        engine.score_rows_seq_one_into(&rows, kind, &mut one);
        engine.score_rows_seq_one_cached_into(&rows, kind, &mut cache, &mut one_cached);
        for r in 0..rows.len() {
            let want = dense[r * 2 + k];
            assert_bits(one[r], want, &format!("{} row {r}", kind.name()));
            assert_bits(
                one_cached[r],
                want,
                &format!("{} cached row {r}", kind.name()),
            );
        }
    }
}

/// A score-only `[Probability, Diff]` engine: not `MetricKind::ALL`, so it
/// scores through the per-metric kernels, and `AddAll` is not configured.
fn non_fused_engine() -> LadEngine {
    LadEngine::builder()
        .deployment(&DeploymentConfig::small_test())
        .metric(MetricKind::Probability)
        .metric(MetricKind::Diff)
        .score_only()
        .build()
        .unwrap()
}

#[test]
#[should_panic(expected = "not configured")]
fn seq_one_rejects_an_unconfigured_metric() {
    let engine = non_fused_engine();
    let rows = ObservationBatch::new(engine.knowledge().group_count());
    engine.score_rows_seq_one_into(&rows, MetricKind::AddAll, &mut []);
}

#[test]
#[should_panic(expected = "not configured")]
fn seq_one_cached_rejects_an_unconfigured_metric() {
    let engine = non_fused_engine();
    let rows = ObservationBatch::new(engine.knowledge().group_count());
    let mut cache = MuCache::new(8);
    engine.score_rows_seq_one_cached_into(&rows, MetricKind::AddAll, &mut cache, &mut []);
}
