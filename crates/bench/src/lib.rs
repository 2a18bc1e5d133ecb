//! Shared helpers for the LAD benchmark suite.
//!
//! Every paper figure has a Criterion bench that regenerates it on a reduced
//! ("bench") configuration so the whole suite runs in seconds; the `reproduce`
//! binary in `lad-eval` is the way to regenerate figures at paper scale.
//! Figure benches share one [`SubstrateCache`] so the standard deployment
//! point is simulated once per bench process.

use lad_attack::AttackClass;
use lad_core::engine::LadEngine;
use lad_core::MetricKind;
use lad_deployment::DeploymentConfig;
use lad_eval::scenario::{ParamGrid, ScenarioSpec, Substrate, SubstrateCache};
use lad_eval::EvalConfig;
use lad_net::{Network, NodeId, ObservationBatch};
use lad_serve::TrafficModel;
use lad_stats::SequentialDetector;
use std::sync::Arc;

/// The reduced evaluation configuration every figure bench uses.
pub fn bench_config() -> EvalConfig {
    EvalConfig::bench()
}

/// A fresh substrate cache (share it across the experiments of one bench).
pub fn bench_cache() -> SubstrateCache {
    SubstrateCache::new()
}

/// The standard reduced-scale substrate out of `cache`.
pub fn bench_substrate(cache: &SubstrateCache) -> Arc<Substrate> {
    lad_eval::experiments::standard_substrate(&bench_config(), cache)
}

/// A one-cell scenario on the standard reduced-scale deployment: what the
/// figure benches' single-point cases run, sharing the figure's substrate
/// through the bench cache.
pub fn bench_point(
    metric: MetricKind,
    class: AttackClass,
    damage: f64,
    fraction: f64,
) -> ScenarioSpec {
    let base = bench_config();
    ScenarioSpec::new(
        "bench_point",
        "single bench point",
        lad_eval::experiments::standard_axis(&base),
        ParamGrid::single(metric, class, damage, fraction),
        base.sampling_plan(),
    )
}

/// An installed-but-idle response filter for serve-path overhead
/// measurements: 16 revoked ids and two quarantined regions, none of which
/// can ever match benchmark traffic (ids far above any generated node id,
/// circles far outside any deployment area) — every report pays the full
/// suppression check, nothing is suppressed. Shared by the
/// `serve_throughput` bench and the `bench_snapshot` binary so their
/// overhead numbers stay comparable.
pub fn idle_response_filter() -> lad_serve::ResponseFilter {
    use lad_geometry::{Circle, Point2};
    lad_serve::ResponseFilter::new(
        1,
        (0..16u32).map(|i| 100_000 + i * 7).collect(),
        vec![
            Circle::new(Point2::new(-5_000.0, -5_000.0), 60.0),
            Circle::new(Point2::new(9_000.0, 9_000.0), 80.0),
        ],
    )
}

/// Clean paper-scale traffic: the engine, a calibrated single-metric
/// detector, and an 8-round pool of rounds from 512 reporters spread
/// evenly over the network (4096 distinct rows). Shared by the `kernels`
/// bench and the `bench_snapshot` binary.
pub struct PaperRounds {
    /// A score-only paper-scale engine with all three metrics.
    pub engine: Arc<LadEngine>,
    /// CUSUM on Diff, calibrated to a 1% false-alarm rate.
    pub detector: SequentialDetector,
    /// The pool: each round's reporter ids and CSR rows.
    pub rounds: Vec<(Vec<NodeId>, ObservationBatch)>,
}

/// Builds the [`PaperRounds`] pool (deterministic in fixed seeds).
pub fn paper_rounds() -> PaperRounds {
    const REPORTERS: usize = 512;
    let engine = Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::paper_default())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("paper-scale engine builds"),
    );
    let network = Network::generate(engine.knowledge().clone(), 0xC01D);
    let stride = network.node_count() / REPORTERS;
    let nodes: Vec<NodeId> = (0..REPORTERS)
        .map(|i| NodeId((i * stride) as u32))
        .collect();
    let traffic = TrafficModel::clean(&network, &engine, nodes, 0x7A5E);
    let streams = traffic.score_streams(&network, &engine, MetricKind::Diff, 0..4);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let rounds = (0..8u64)
        .map(|r| {
            let mut nodes = Vec::new();
            let mut rows = ObservationBatch::new(engine.knowledge().group_count());
            traffic.round_rows(&network, r, &mut nodes, &mut rows);
            (nodes, rows)
        })
        .collect();
    PaperRounds {
        engine,
        detector,
        rounds,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bench_substrate_is_small_but_nonempty() {
        let substrate = bench_substrate(&bench_cache());
        assert!(substrate.clean(MetricKind::Diff).count() > 0);
        assert!(substrate.knowledge().config().total_nodes() < 5000);
    }

    #[test]
    fn bench_substrate_is_shared_through_the_cache() {
        let cache = bench_cache();
        let a = bench_substrate(&cache);
        let b = bench_substrate(&cache);
        assert!(Arc::ptr_eq(&a, &b));
    }
}
