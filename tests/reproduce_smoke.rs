//! Smoke test of the figure-reproduction harness: every experiment runs on
//! the reduced configuration through the scenario layer, produces
//! well-formed reports, and the headline qualitative claims of the paper
//! hold.

use lad::eval::experiments;
use lad::eval::scenario::ScenarioResult;
use lad::prelude::*;
use lad::stats::AccumulatorConfig;

/// Runs `grid` on the standard bench deployment with accumulator layout
/// `accumulator`, sharing the deployment substrate through `cache`.
fn run_point(
    cache: &SubstrateCache,
    accumulator: AccumulatorConfig,
    grid: ParamGrid,
) -> ScenarioResult {
    let base = EvalConfig::bench();
    let spec = ScenarioSpec::new(
        "smoke_point",
        "single point",
        experiments::standard_axis(&base),
        grid,
        base.sampling_plan(),
    )
    .with_accumulator(accumulator);
    ScenarioRunner::with_cache(&spec, cache).run()
}

/// Exact-layout detection rate of one point within a false-positive budget.
fn detection_rate(
    cache: &SubstrateCache,
    metric: MetricKind,
    class: AttackClass,
    damage: f64,
    fraction: f64,
    max_fp: f64,
) -> f64 {
    let grid = ParamGrid::single(metric, class, damage, fraction);
    let result = run_point(cache, AccumulatorConfig::exact(), grid);
    let dep = result.single();
    dep.detection_rate(&dep.cells[0], max_fp)
}

#[test]
fn all_experiments_produce_saveable_reports() {
    let base = EvalConfig::bench();
    let cache = SubstrateCache::new();
    let substrate = experiments::standard_substrate(&base, &cache);
    let dir = std::env::temp_dir().join("lad-reproduce-smoke");
    let _ = std::fs::remove_dir_all(&dir);

    let reports = vec![
        experiments::deployment_figures(&substrate),
        experiments::attack_showcase(&substrate),
        experiments::fig4_roc_metrics(&base, &cache),
        experiments::fig56_roc_attacks(&base, &cache),
        experiments::fig7_dr_vs_damage(&base, &cache),
        experiments::fig8_dr_vs_compromise(&base, &cache),
        experiments::fig9_dr_vs_density(&base, &[40, 100], &cache),
        experiments::heatmap_damage_compromise(&base, &cache),
        experiments::mixed_attack_workload(&base, &cache),
        experiments::temporal_detection(&base, &cache),
        experiments::containment(&base, &cache),
        experiments::ablation_gz_table(&substrate),
        experiments::ablation_localizers(&base, &cache),
        experiments::ablation_model_mismatch(&base, &cache),
    ];

    for report in &reports {
        assert!(!report.series.is_empty(), "{} has no series", report.id);
        for series in &report.series {
            assert!(
                !series.points.is_empty(),
                "{}/{} empty",
                report.id,
                series.label
            );
            for (x, y) in &series.points {
                assert!(
                    x.is_finite() && y.is_finite(),
                    "{} has non-finite point",
                    report.id
                );
            }
        }
        report
            .save(&dir)
            .expect("experiment artefacts can be written");
        assert!(dir.join(format!("{}.csv", report.id)).exists());
    }
    // The standard deployment point was shared: far fewer substrates than
    // experiments (standard + fig9's two densities + localizer/mismatch
    // axes).
    assert!(
        cache.len() < reports.len(),
        "cache holds {} substrates for {} experiments",
        cache.len(),
        reports.len()
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn headline_claims_of_the_paper_hold_on_the_reduced_setup() {
    let cache = SubstrateCache::new();
    let dr = |class, damage, fraction, max_fp| {
        detection_rate(&cache, MetricKind::Diff, class, damage, fraction, max_fp)
    };
    use AttackClass::{DecBounded, DecOnly};

    // Claim 1 (§7.6): detection rate approaches 1 as the degree of damage grows.
    let dr_small = dr(DecBounded, 40.0, 0.10, 0.05);
    let dr_large = dr(DecBounded, 160.0, 0.10, 0.05);
    assert!(dr_large >= dr_small);
    assert!(dr_large > 0.8, "DR at D=160 is only {dr_large}");

    // Claim 2 (§7.5): Dec-Only attacks are easier to detect than Dec-Bounded
    // attacks at small D, and the two converge at large D.
    let small_gap = dr(DecOnly, 40.0, 0.10, 0.10) - dr(DecBounded, 40.0, 0.10, 0.10);
    let large_gap = dr(DecOnly, 160.0, 0.10, 0.10) - dr(DecBounded, 160.0, 0.10, 0.10);
    assert!(small_gap >= -0.05, "Dec-Only should not be harder at D=40");
    assert!(
        large_gap <= small_gap + 0.1,
        "classes should converge as D grows"
    );

    // Claim 3 (§7.7): higher damage tolerates more node compromise.
    let dr_d160_x50 = dr(DecBounded, 160.0, 0.50, 0.05);
    let dr_d80_x50 = dr(DecBounded, 80.0, 0.50, 0.05);
    assert!(dr_d160_x50 + 0.1 >= dr_d80_x50);
}

#[test]
fn roc_curves_are_valid_probability_curves() {
    let cache = SubstrateCache::new();
    let grid = ParamGrid {
        metrics: MetricKind::ALL.to_vec(),
        ..ParamGrid::single(MetricKind::Diff, AttackClass::DecBounded, 120.0, 0.10)
    };
    let result = run_point(&cache, AccumulatorConfig::exact(), grid);
    let dep = result.single();
    assert_eq!(dep.cells.len(), MetricKind::ALL.len());
    for cell in &dep.cells {
        let roc = dep.roc(cell);
        let auc = roc.auc();
        assert!(
            auc > 0.5 && auc <= 1.0,
            "{:?} should beat chance at D = 120 (AUC {auc})",
            cell.params.metric
        );
        let mut prev_fp = -1.0;
        for p in roc.points() {
            assert!((0.0..=1.0).contains(&p.false_positive_rate));
            assert!((0.0..=1.0).contains(&p.detection_rate));
            assert!(p.false_positive_rate >= prev_fp);
            prev_fp = p.false_positive_rate;
        }
    }
}

#[test]
fn streaming_scenario_results_agree_with_the_exact_layout() {
    // The same single point, once with the exact accumulator layout and
    // once forced binned: DR within the streaming layer's documented bound.
    let cache = SubstrateCache::new();
    let point = || ParamGrid::single(MetricKind::Diff, AttackClass::DecBounded, 120.0, 0.10);
    let exact = run_point(&cache, AccumulatorConfig::exact(), point());
    let exact_dr = exact
        .single()
        .detection_rate(&exact.single().cells[0], 0.05);

    let binned = AccumulatorConfig {
        exact_limit: 0,
        ..Default::default()
    };
    let result = run_point(&cache, binned, point());
    let dep = result.single();
    let cell = &dep.cells[0];
    let streamed_dr = dep.detection_rate(cell, 0.05);
    let eps = cell.attacked.max_bin_fraction();
    assert!(
        streamed_dr <= exact_dr + 1e-9 && streamed_dr >= exact_dr - eps - 1e-9,
        "streamed {streamed_dr} vs exact {exact_dr} (eps {eps})"
    );
}
