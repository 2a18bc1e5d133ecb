//! Figure 4 bench: ROC curves for the three detection metrics (DR-FP-M-D).
//!
//! Regenerates the figure on the reduced bench configuration and prints the
//! headline numbers so `cargo bench` output doubles as a smoke reproduction.

use criterion::{criterion_group, criterion_main, Criterion};
use lad_attack::AttackClass;
use lad_bench::{bench_cache, bench_config, bench_point};
use lad_core::MetricKind;
use lad_eval::experiments::fig4_roc_metrics;
use lad_eval::scenario::ScenarioRunner;

fn bench_fig4(c: &mut Criterion) {
    let base = bench_config();
    let cache = bench_cache();

    // Print the reproduced headline rows once, outside the measurement loop.
    let report = fig4_roc_metrics(&base, &cache);
    for note in &report.notes {
        println!("[fig4] {note}");
    }

    let mut group = c.benchmark_group("fig4_roc_metrics");
    group.sample_size(10);
    group.bench_function("full_figure", |b| {
        b.iter(|| fig4_roc_metrics(&base, &cache))
    });
    let point = bench_point(MetricKind::Diff, AttackClass::DecBounded, 120.0, 0.10);
    group.bench_function("single_point_diff_d120", |b| {
        b.iter(|| {
            let result = ScenarioRunner::with_cache(&point, &cache).run();
            let dep = result.single();
            dep.roc(&dep.cells[0])
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig4);
criterion_main!(benches);
