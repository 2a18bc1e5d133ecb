//! Scenario-layer bench: the buffered (exact) accumulator layout vs the
//! streaming (binned) one, at equal sample counts.
//!
//! Both contenders run the same `{Diff} × {Dec-Bounded} × 4 damages ×
//! 3 fractions` grid (12 cells) as one `ScenarioSpec` against the same
//! deployments, each with its substrate built once up front:
//!
//! * **buffered_grid** — `AccumulatorConfig::exact()`: every clean and
//!   attacked score is kept (O(samples) memory per cell) and the ROC is
//!   the exact sort-based curve.
//! * **streaming_grid** — `exact_limit: 0`: scores stream into O(bins)
//!   accumulators from the first sample, so the binned path is actually
//!   exercised at bench scale.
//!
//! The trial simulation is identical on both sides, so the wall-clock gap
//! is the streaming layer's overhead. At bench scale (a few hundred
//! samples per cell) it is large: 6.0–6.7 ms against 3.6–5.1 ms per grid
//! on a 2-vCPU x86-64 VM, because every cell's ROC sweeps the full
//! 2048-bin ladder. What the streaming side buys is the memory ceiling:
//! per-cell state is ~2k bins instead of every score, which is what lets
//! sample counts grow 10–100× past the buffered layout.

use criterion::{criterion_group, criterion_main, Criterion};
use lad_attack::AttackClass;
use lad_bench::bench_config;
use lad_core::MetricKind;
use lad_eval::scenario::{AttackMix, ParamGrid, ScenarioRunner, ScenarioSpec, SubstrateCache};
use lad_stats::AccumulatorConfig;

const DAMAGES: [f64; 4] = [40.0, 80.0, 120.0, 160.0];
const FRACTIONS: [f64; 3] = [0.1, 0.2, 0.3];

fn grid() -> ParamGrid {
    ParamGrid {
        metrics: vec![MetricKind::Diff],
        attacks: vec![AttackMix::pure(AttackClass::DecBounded)],
        damages: DAMAGES.to_vec(),
        fractions: FRACTIONS.to_vec(),
    }
}

fn bench_scenario(c: &mut Criterion) {
    let base = bench_config();
    let mut group = c.benchmark_group("scenario_grid");
    group.sample_size(10);

    let binned = AccumulatorConfig {
        exact_limit: 0, // always binned: O(bins) memory per cell
        ..AccumulatorConfig::default()
    };
    for (name, accumulator) in [
        ("buffered_grid", AccumulatorConfig::exact()),
        ("streaming_grid", binned),
    ] {
        let spec = ScenarioSpec::new(
            "bench_grid",
            "bench grid",
            lad_eval::experiments::standard_axis(&base),
            grid(),
            base.sampling_plan(),
        )
        .with_accumulator(accumulator);
        // Substrate (networks + clean scores) built once, outside the
        // measurement: both sides time only the attack grid.
        let cache = SubstrateCache::new();
        let _ = cache.substrate(&spec.deployments[0], &spec.sampling, spec.accumulator);
        group.bench_function(name, |b| {
            b.iter(|| {
                let result = ScenarioRunner::with_cache(&spec, &cache).run();
                let dep = result.single();
                dep.cells
                    .iter()
                    .map(|cell| dep.detection_rate(cell, 0.01))
                    .sum::<f64>()
            })
        });
    }
    group.finish();
}

criterion_group!(benches, bench_scenario);
criterion_main!(benches);
