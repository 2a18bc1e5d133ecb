//! Figure 7 bench: detection rate vs degree of damage (DR-D-x).

use criterion::{criterion_group, criterion_main, Criterion};
use lad_attack::AttackClass;
use lad_bench::{bench_cache, bench_config, bench_point};
use lad_core::MetricKind;
use lad_eval::experiments::fig7_dr_vs_damage;
use lad_eval::scenario::ScenarioRunner;

fn bench_fig7(c: &mut Criterion) {
    let base = bench_config();
    let cache = bench_cache();

    let report = fig7_dr_vs_damage(&base, &cache);
    for series in &report.series {
        let row: Vec<String> = series
            .points
            .iter()
            .map(|(d, dr)| format!("D={d:.0}:{dr:.2}"))
            .collect();
        println!("[fig7] {} -> {}", series.label, row.join(" "));
    }

    let mut group = c.benchmark_group("fig7_dr_vs_damage");
    group.sample_size(10);
    group.bench_function("full_figure", |b| {
        b.iter(|| fig7_dr_vs_damage(&base, &cache))
    });
    let point = bench_point(MetricKind::Diff, AttackClass::DecBounded, 120.0, 0.10);
    group.bench_function("single_dr_point", |b| {
        b.iter(|| {
            let result = ScenarioRunner::with_cache(&point, &cache).run();
            let dep = result.single();
            dep.detection_rate(&dep.cells[0], 0.01)
        })
    });
    group.finish();
}

criterion_group!(benches, bench_fig7);
criterion_main!(benches);
