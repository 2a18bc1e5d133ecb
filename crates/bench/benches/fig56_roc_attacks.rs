//! Figures 5–6 bench: ROC curves for Dec-Bounded vs Dec-Only attacks.

use criterion::{criterion_group, criterion_main, Criterion};
use lad_attack::AttackClass;
use lad_bench::{bench_cache, bench_config, bench_point};
use lad_core::MetricKind;
use lad_eval::experiments::fig56_roc_attacks;
use lad_eval::scenario::ScenarioRunner;

fn bench_fig56(c: &mut Criterion) {
    let base = bench_config();
    let cache = bench_cache();

    let report = fig56_roc_attacks(&base, &cache);
    for note in &report.notes {
        println!("[fig5_6] {note}");
    }

    let mut group = c.benchmark_group("fig56_roc_attacks");
    group.sample_size(10);
    group.bench_function("full_figure", |b| {
        b.iter(|| fig56_roc_attacks(&base, &cache))
    });
    let point = bench_point(MetricKind::Diff, AttackClass::DecOnly, 80.0, 0.10);
    group.bench_function("dec_only_point_d80", |b| {
        b.iter(|| {
            let result = ScenarioRunner::with_cache(&point, &cache).run();
            let dep = result.single();
            dep.roc(&dep.cells[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig56);
criterion_main!(benches);
