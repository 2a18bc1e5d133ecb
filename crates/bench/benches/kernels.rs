//! Microbenchmarks of the hot kernels: g(z) evaluation, metric scoring,
//! neighbourhood queries, MLE localization, greedy taint generation — and
//! the engine's batched row verification against the equivalent loop of
//! single-shot detector calls (1 k and 100 k reports), which makes the
//! batching win (sparse µ computed once per estimate + parallel fan-out)
//! visible in the perf trajectory.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lad_attack::{taint_observation, AttackClass};
use lad_core::engine::LadEngine;
use lad_core::metrics::{score_all_fused, score_all_fused_sparse};
use lad_core::{ExpectedObservation, LadDetector, MetricKind};
use lad_deployment::{gz_exact, DeploymentConfig, DeploymentKnowledge, GzTable, SparseMu};
use lad_geometry::Point2;
use lad_localization::BeaconlessMle;
use lad_net::{Network, NodeId, Observation, ObservationBatch};

fn bench_kernels(c: &mut Criterion) {
    let config = DeploymentConfig::small_test();
    let knowledge = DeploymentKnowledge::shared(&config);
    let network = Network::generate(knowledge.clone(), 7);
    let table = GzTable::build(config.range, config.sigma, 256);
    let victim = NodeId(100);
    let obs = network.true_observation(victim);
    let forged = Point2::new(300.0, 120.0);
    let mu = knowledge.expected_observation(forged);
    let mut expected = ExpectedObservation::new();
    expected.fill(&knowledge, forged);
    let localizer = BeaconlessMle::new();

    let mut group = c.benchmark_group("kernels");
    group.sample_size(20);
    group.bench_function("gz_exact_quadrature", |b| {
        b.iter(|| gz_exact(black_box(77.0), 40.0, 50.0))
    });
    group.bench_function("gz_table_lookup", |b| {
        b.iter(|| table.eval(black_box(77.0)))
    });
    group.bench_function("expected_observation", |b| {
        b.iter(|| knowledge.expected_observation(black_box(forged)))
    });
    group.bench_function("expected_observation_into_scratch", |b| {
        let mut scratch = ExpectedObservation::new();
        b.iter(|| {
            scratch.fill(&knowledge, black_box(forged));
            scratch.mu().len()
        })
    });
    group.bench_function("neighborhood_query", |b| {
        b.iter(|| network.true_observation(black_box(victim)))
    });
    group.bench_function("diff_metric_score", |b| {
        let metric = MetricKind::Diff.metric();
        b.iter(|| metric.score_from_expected(black_box(&expected), black_box(&obs)))
    });
    group.bench_function("probability_metric_score", |b| {
        let metric = MetricKind::Probability.metric();
        b.iter(|| metric.score_from_expected(black_box(&expected), black_box(&obs)))
    });
    group.bench_function("beaconless_mle_localize", |b| {
        b.iter(|| localizer.estimate(&knowledge, black_box(&obs)))
    });
    // Paper-scale (100-group) variants of the per-request hot-path kernels.
    let paper = DeploymentConfig::paper_default();
    let paper_knowledge = DeploymentKnowledge::shared(&paper);
    let paper_network = Network::generate(paper_knowledge.clone(), 7);
    let paper_obs = paper_network.true_observation(victim);
    let mut paper_expected = ExpectedObservation::new();
    paper_expected.fill(&paper_knowledge, Point2::new(500.0, 400.0));
    group.bench_function("expected_observation_paper_scale", |b| {
        let mut scratch = ExpectedObservation::new();
        b.iter(|| {
            scratch.fill(&paper_knowledge, black_box(Point2::new(500.0, 400.0)));
            scratch.mu().len()
        })
    });
    for kind in MetricKind::ALL {
        group.bench_function(&format!("{}_metric_score_paper_scale", kind.name()), |b| {
            let metric = kind.metric();
            b.iter(|| metric.score_from_expected(black_box(&paper_expected), black_box(&paper_obs)))
        });
    }
    // The headline kernel comparison: the full per-request fused scoring
    // path at paper scale (n = 100 groups), dense vs sparse. Dense fills the
    // n-entry µ vector and scans all n `(o, µ)` pairs; sparse enumerates the
    // O(k) g(z) support via the spatial index and merges it against the
    // observation's nonzeros (CSR row). Scores are bit-identical.
    let paper_at = Point2::new(500.0, 400.0);
    let mut paper_batch = ObservationBatch::new(paper_knowledge.group_count());
    paper_batch.push(&paper_obs, paper_at);
    let paper_row_m = paper_knowledge.group_size();
    group.bench_function("fused_score_dense_paper_scale", |b| {
        let mut scratch = ExpectedObservation::new();
        b.iter(|| {
            scratch.fill(&paper_knowledge, black_box(paper_at));
            score_all_fused(black_box(&paper_obs), scratch.mu(), paper_row_m)
        })
    });
    group.bench_function("fused_score_sparse_paper_scale", |b| {
        let mut smu = SparseMu::new();
        b.iter(|| {
            paper_knowledge.expected_sparse_into(black_box(paper_at), &mut smu);
            score_all_fused_sparse(black_box(paper_batch.row(0)), smu.view())
        })
    });
    group.bench_function("expected_sparse_into_paper_scale", |b| {
        let mut smu = SparseMu::new();
        b.iter(|| {
            paper_knowledge.expected_sparse_into(black_box(paper_at), &mut smu);
            smu.len()
        })
    });
    // Same comparison on a 4× deployment (20×20 groups over 2000 m at the
    // paper's density): the support size k is set by the g(z) tail and the
    // deployment-point density, not n, so the sparse path's cost stays flat
    // while the dense path scales with n. This is where O(k) vs O(n)
    // separates — and the scale the serving roadmap grows toward.
    let big = DeploymentConfig {
        area_side: 2000.0,
        grid_cols: 20,
        grid_rows: 20,
        ..DeploymentConfig::paper_default()
    };
    let big_knowledge = DeploymentKnowledge::shared(&big);
    let big_at = Point2::new(980.0, 1110.0);
    let big_obs = {
        let mu = big_knowledge.expected_observation(Point2::new(1000.0, 1100.0));
        lad_core::expected::rounded_expected(&mu)
    };
    let mut big_batch = ObservationBatch::new(big_knowledge.group_count());
    big_batch.push(&big_obs, big_at);
    group.bench_function("fused_score_dense_4x_scale", |b| {
        let mut scratch = ExpectedObservation::new();
        b.iter(|| {
            scratch.fill(&big_knowledge, black_box(big_at));
            score_all_fused(black_box(&big_obs), scratch.mu(), big.group_size)
        })
    });
    group.bench_function("fused_score_sparse_4x_scale", |b| {
        let mut smu = SparseMu::new();
        b.iter(|| {
            big_knowledge.expected_sparse_into(black_box(big_at), &mut smu);
            score_all_fused_sparse(black_box(big_batch.row(0)), smu.view())
        })
    });
    group.bench_function("greedy_taint_diff_dec_bounded", |b| {
        b.iter(|| {
            taint_observation(
                AttackClass::DecBounded,
                MetricKind::Diff,
                black_box(&obs),
                black_box(&mu),
                10,
                config.group_size,
            )
        })
    });
    group.finish();
}

/// Reports that cycle through the network's nodes, verifying each node's
/// clean observation at its own resident point (the metric-scoring cost is
/// what matters, not whether the verdict alarms): the dense observations
/// the single-shot loop scores, and the same reports as CSR rows.
fn make_reports(network: &Network, count: usize) -> (Vec<Observation>, ObservationBatch) {
    let mut observations = Vec::with_capacity(count);
    let mut rows = ObservationBatch::new(network.group_count());
    for i in 0..count {
        let node = NodeId((i % network.node_count()) as u32);
        let obs = network.true_observation(node);
        rows.push(&obs, network.node(node).resident_point);
        observations.push(obs);
    }
    (observations, rows)
}

/// The pre-engine verification path, producing output equivalent to
/// `verify_rows`: for each report, each metric's single-shot detector
/// recomputes (and re-allocates) the dense µ(L_e) through `detect`.
fn looped_verify(
    detectors: &[LadDetector],
    knowledge: &DeploymentKnowledge,
    observations: &[Observation],
    rows: &ObservationBatch,
) -> Vec<Vec<lad_core::Verdict>> {
    observations
        .iter()
        .enumerate()
        .map(|(r, obs)| {
            detectors
                .iter()
                .map(|d| d.detect(knowledge, obs, rows.estimate(r)))
                .collect()
        })
        .collect()
}

fn bench_engine_batch(c: &mut Criterion) {
    // Paper-scale deployment (10×10 groups): the per-estimate µ computation
    // spans 100 groups, which is exactly the work `verify_rows` shares
    // across metrics and the loop of single-shot detectors repeats per
    // metric.
    let config = DeploymentConfig::paper_default();
    // Explicit thresholds: the benchmark measures verification, not training.
    let engine = LadEngine::builder()
        .deployment(&config)
        .metrics(&MetricKind::ALL)
        .thresholds(vec![35.0, 70.0, 15.0])
        .build()
        .expect("engine builds");
    let knowledge = engine.knowledge().clone();
    let network = Network::generate(knowledge.clone(), 7);
    let detectors: Vec<LadDetector> = engine
        .metrics()
        .iter()
        .map(|&m| engine.detector(m))
        .collect();

    let (observations_100k, rows_100k) = make_reports(&network, 100_000);
    let (observations_1k, rows_1k) = make_reports(&network, 1_000);

    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);
    group.bench_function("verify_rows_1k", |b| {
        b.iter(|| engine.verify_rows(black_box(&rows_1k)))
    });
    group.bench_function("verify_loop_1k", |b| {
        b.iter(|| {
            looped_verify(
                &detectors,
                &knowledge,
                black_box(&observations_1k),
                &rows_1k,
            )
        })
    });
    group.bench_function("verify_rows_100k", |b| {
        b.iter(|| engine.verify_rows(black_box(&rows_100k)))
    });
    group.bench_function("verify_loop_100k", |b| {
        b.iter(|| {
            looped_verify(
                &detectors,
                &knowledge,
                black_box(&observations_100k),
                &rows_100k,
            )
        })
    });
    // Scores only, written into one reused buffer (the serving ingest
    // shape).
    group.bench_function("score_rows_into_100k", |b| {
        let mut out = Vec::new();
        b.iter(|| {
            engine.score_rows_into(black_box(&rows_100k), &mut out);
            out.len()
        })
    });
    group.finish();
}

criterion_group!(benches, bench_kernels, bench_engine_batch);
criterion_main!(benches);
