//! Figure 8 bench: detection rate vs percentage of compromised nodes (DR-x-D).

use criterion::{criterion_group, criterion_main, Criterion};
use lad_attack::AttackClass;
use lad_bench::{bench_cache, bench_config, bench_point};
use lad_core::MetricKind;
use lad_eval::experiments::fig8_dr_vs_compromise;
use lad_eval::scenario::ScenarioRunner;

fn bench_fig8(c: &mut Criterion) {
    let base = bench_config();
    let cache = bench_cache();

    let report = fig8_dr_vs_compromise(&base, &cache);
    for series in &report.series {
        let row: Vec<String> = series
            .points
            .iter()
            .map(|(x, dr)| format!("x={x:.0}%:{dr:.2}"))
            .collect();
        println!("[fig8] {} -> {}", series.label, row.join(" "));
    }

    let mut group = c.benchmark_group("fig8_dr_vs_compromise");
    group.sample_size(10);
    group.bench_function("full_figure", |b| {
        b.iter(|| fig8_dr_vs_compromise(&base, &cache))
    });
    let point = bench_point(MetricKind::Diff, AttackClass::DecBounded, 160.0, 0.50);
    group.bench_function("single_dr_point_x50", |b| {
        b.iter(|| {
            let result = ScenarioRunner::with_cache(&point, &cache).run();
            let dep = result.single();
            dep.detection_rate(&dep.cells[0], 0.01)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig8);
criterion_main!(benches);
