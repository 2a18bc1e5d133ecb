//! Microbenchmarks of the hot kernels: g(z) evaluation, metric scoring
//! (dense reference and sparse), neighbourhood queries, MLE localization,
//! greedy taint generation — the engine's batched row verification and
//! scoring at 1 k and 100 k reports, and the serve shard's Diff kernel over
//! the 4096 distinct rows of the paper-scale pool.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use lad_attack::{taint_observation, AttackClass};
use lad_bench::{paper_rounds, PaperRounds};
use lad_core::engine::LadEngine;
use lad_core::metrics::{score_all_fused_sparse, ObsScratch};
use lad_core::MetricKind;
use lad_deployment::{gz_exact, DeploymentConfig, DeploymentKnowledge, GzTable, MuCache, SparseMu};
use lad_geometry::Point2;
use lad_localization::BeaconlessMle;
use lad_net::{Network, NodeId, ObservationBatch};

fn bench_kernels(c: &mut Criterion) {
    let config = DeploymentConfig::small_test();
    let knowledge = DeploymentKnowledge::shared(&config);
    let network = Network::generate(knowledge.clone(), 7);
    let table = GzTable::build(config.range, config.sigma, 256);
    let victim = NodeId(100);
    let obs = network.true_observation(victim);
    let forged = Point2::new(300.0, 120.0);
    let mu = knowledge.expected_observation(forged);
    let m = config.group_size;
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
    group.bench_function("neighborhood_query", |b| {
        b.iter(|| network.true_observation(black_box(victim)))
    });
    group.bench_function("diff_metric_score", |b| {
        b.iter(|| MetricKind::Diff.score(black_box(&obs), black_box(&mu), m))
    });
    group.bench_function("probability_metric_score", |b| {
        b.iter(|| MetricKind::Probability.score(black_box(&obs), black_box(&mu), m))
    });
    group.bench_function("beaconless_mle_localize", |b| {
        b.iter(|| localizer.estimate(&knowledge, black_box(&obs)))
    });
    // Paper-scale (100-group) variants of the per-request hot-path kernels.
    let paper = DeploymentConfig::paper_default();
    let paper_knowledge = DeploymentKnowledge::shared(&paper);
    let paper_network = Network::generate(paper_knowledge.clone(), 7);
    let paper_obs = paper_network.true_observation(victim);
    let paper_m = paper_knowledge.group_size();
    let paper_mu = paper_knowledge.expected_observation(Point2::new(500.0, 400.0));
    for kind in MetricKind::ALL {
        group.bench_function(&format!("{}_metric_score_paper_scale", kind.name()), |b| {
            b.iter(|| kind.score(black_box(&paper_obs), black_box(&paper_mu), paper_m))
        });
    }
    // The full per-request fused scoring path at paper scale (n = 100
    // groups): enumerate the O(k) g(z) support via the spatial index and
    // merge it against the observation's nonzeros (CSR row). The dense
    // per-metric reference it is bit-identical to is timed above.
    let paper_at = Point2::new(500.0, 400.0);
    let mut paper_batch = ObservationBatch::new(paper_knowledge.group_count());
    paper_batch.push(&paper_obs, paper_at);
    group.bench_function("fused_score_sparse_paper_scale", |b| {
        let mut smu = SparseMu::new();
        let mut scratch = ObsScratch::new();
        b.iter(|| {
            paper_knowledge.expected_sparse_into(black_box(paper_at), &mut smu);
            score_all_fused_sparse(black_box(paper_batch.row(0)), smu.view(), &mut scratch)
        })
    });
    group.bench_function("expected_sparse_into_paper_scale", |b| {
        let mut smu = SparseMu::new();
        b.iter(|| {
            paper_knowledge.expected_sparse_into(black_box(paper_at), &mut smu);
            smu.len()
        })
    });
    // The same kernel on a 4× deployment (20×20 groups over 2000 m at the
    // paper's density): the support size k is set by the g(z) tail and the
    // deployment-point density, not n, so the sparse path's cost stays flat
    // as n grows — the scale the serving roadmap grows toward.
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
    group.bench_function("fused_score_sparse_4x_scale", |b| {
        let mut smu = SparseMu::new();
        let mut scratch = ObsScratch::new();
        b.iter(|| {
            big_knowledge.expected_sparse_into(black_box(big_at), &mut smu);
            score_all_fused_sparse(black_box(big_batch.row(0)), smu.view(), &mut scratch)
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

/// Reports that cycle through the network's nodes as CSR rows, each
/// node's clean observation at its own resident point (the metric-scoring
/// cost is what matters, not whether the verdict alarms).
fn make_reports(network: &Network, count: usize) -> ObservationBatch {
    let mut rows = ObservationBatch::new(network.group_count());
    for i in 0..count {
        let node = NodeId((i % network.node_count()) as u32);
        rows.push(
            &network.true_observation(node),
            network.node(node).resident_point,
        );
    }
    rows
}

fn bench_engine_batch(c: &mut Criterion) {
    // Paper-scale deployment (10×10 groups): µ spans up to 100 groups per
    // estimate and is enumerated once per row over its sparse support,
    // shared by all three metrics.
    let config = DeploymentConfig::paper_default();
    // Explicit thresholds: the benchmark measures verification, not training.
    let engine = LadEngine::builder()
        .deployment(&config)
        .metrics(&MetricKind::ALL)
        .thresholds(vec![35.0, 70.0, 15.0])
        .build()
        .expect("engine builds");
    let network = Network::generate(engine.knowledge().clone(), 7);
    let rows_100k = make_reports(&network, 100_000);
    let rows_1k = make_reports(&network, 1_000);

    let mut group = c.benchmark_group("engine_batch");
    group.sample_size(10);
    group.bench_function("verify_rows_1k", |b| {
        b.iter(|| engine.verify_rows(black_box(&rows_1k)))
    });
    group.bench_function("verify_rows_100k", |b| {
        b.iter(|| engine.verify_rows(black_box(&rows_100k)))
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

/// The serve shard's Diff kernel over the paper-scale pool, one iteration
/// per pass over its 8 rounds × 512 distinct rows: cached (every estimate
/// memoized, as on a replaying shard) and uncached (a µ fill per row).
/// Distinct rows keep the branch predictor from learning one row, as the
/// single-row `fused_score_sparse_*` loops let it.
fn bench_shard_kernel(c: &mut Criterion) {
    let PaperRounds { engine, rounds, .. } = paper_rounds();
    let rounds: Vec<ObservationBatch> = rounds.into_iter().map(|(_, rows)| rows).collect();
    let mut scores = Vec::new();
    let mut group = c.benchmark_group("shard_kernel");
    group.sample_size(20);
    group.bench_function("diff_cached_paper_pool", |b| {
        let mut cache = MuCache::new(16_384);
        b.iter(|| {
            for rows in &rounds {
                scores.resize(rows.len(), 0.0);
                engine.score_rows_seq_one_cached_into(
                    black_box(rows),
                    MetricKind::Diff,
                    &mut cache,
                    &mut scores,
                );
            }
            scores[0]
        })
    });
    group.bench_function("diff_uncached_paper_pool", |b| {
        b.iter(|| {
            for rows in &rounds {
                scores.resize(rows.len(), 0.0);
                engine.score_rows_seq_one_into(black_box(rows), MetricKind::Diff, &mut scores);
            }
            scores[0]
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bench_kernels,
    bench_engine_batch,
    bench_shard_kernel
);
criterion_main!(benches);
