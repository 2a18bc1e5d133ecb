//! Sparse-vs-dense exactness: the sparse scoring path (support-indexed
//! `SparseMu` + CSR `ObservationBatch` rows) must reproduce the dense
//! kernels **bit for bit** — same support set, same µ values, same scores —
//! over random deployments, corner and out-of-area estimates, and zero /
//! random / saturated observations, for all three metrics and the fused
//! kernel.

use lad_core::metrics::{score_all_fused, score_all_fused_sparse};
use lad_core::{LadEngine, MetricKind, ProbabilityMetric};
use lad_deployment::{DeploymentConfig, DeploymentKnowledge, SparseMu};
use lad_geometry::Point2;
use lad_net::{Observation, ObservationBatch};
use proptest::prelude::*;

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

/// Asserts bitwise f64 equality (− the strongest form of "same score").
fn assert_bits(a: f64, b: f64, what: &str) {
    assert_eq!(a.to_bits(), b.to_bits(), "{what}: {a} vs {b}");
}

fn check_point(knowledge: &DeploymentKnowledge, obs: &Observation, theta: Point2) {
    let m = knowledge.group_size();
    let dense_mu = knowledge.expected_observation(theta);
    let mut smu = SparseMu::new();
    knowledge.expected_sparse_into(theta, &mut smu);

    // The sparse µ scatters back to the dense µ exactly, entries sorted.
    assert_eq!(smu.to_dense(), dense_mu, "µ mismatch at {theta:?}");
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

    // Per-metric sparse kernels.
    for kind in MetricKind::ALL {
        let metric = kind.metric();
        let dense = metric.score(obs, &dense_mu, m);
        let sparse = metric.score_sparse(row, mu);
        assert_bits(dense, sparse, kind.name());
    }
    assert_bits(
        ProbabilityMetric::min_ln_probability(obs, &dense_mu, m),
        ProbabilityMetric::min_ln_probability_sparse(row, mu),
        "min_ln_probability",
    );

    // Fused kernels: dense vs sparse row.
    let dense_fused = score_all_fused(obs, &dense_mu, m);
    let sparse_fused = score_all_fused_sparse(row, mu);
    for i in 0..3 {
        assert_bits(dense_fused[i], sparse_fused[i], "fused sparse row");
    }
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
    // The engine's CSR row batch against the dense oracle: each request's
    // dense observation scored by the fused kernel over the dense µ.
    let mut flat_rows = Vec::new();
    engine.score_rows_into(&rows, &mut flat_rows);
    let width = engine.metrics().len();
    assert_eq!(flat_rows.len(), rows.len() * width);
    for (r, (obs, row)) in observations.iter().zip(flat_rows.chunks(width)).enumerate() {
        let dense = score_all_fused(obs, &knowledge.expected_observation(rows.estimate(r)), m);
        for k in 0..width {
            assert_bits(row[k], dense[k], &format!("row {r} metric {k}"));
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
    // A two-metric engine takes the per-metric (non-fused) path; rows must
    // still match the dense kernels bit for bit.
    let engine = LadEngine::builder()
        .deployment(&DeploymentConfig::small_test())
        .metric(MetricKind::Probability)
        .metric(MetricKind::Diff)
        .score_only()
        .build()
        .unwrap();
    let knowledge = engine.knowledge().clone();
    let n = knowledge.group_count();
    let m = knowledge.group_size();
    let mut rows = ObservationBatch::new(n);
    let mut observations = Vec::new();
    for i in 0..40u32 {
        let obs = Observation::from_counts((0..n as u32).map(|g| (g + i) % 9).collect());
        let at = Point2::new((i as f64 * 31.7) % 400.0, (i as f64 * 17.3) % 400.0);
        rows.push(&obs, at);
        observations.push(obs);
    }
    let mut flat_rows = Vec::new();
    engine.score_rows_into(&rows, &mut flat_rows);
    assert_eq!(flat_rows.len(), 2 * rows.len());
    for (r, (obs, row)) in observations.iter().zip(flat_rows.chunks(2)).enumerate() {
        let mu = knowledge.expected_observation(rows.estimate(r));
        let p = MetricKind::Probability.metric().score(obs, &mu, m);
        let d = MetricKind::Diff.metric().score(obs, &mu, m);
        assert_bits(row[0], p, &format!("row {r} probability"));
        assert_bits(row[1], d, &format!("row {r} diff"));
    }
}
