//! # LAD — Localization Anomaly Detection for Wireless Sensor Networks
//!
//! A from-scratch Rust reproduction of *"LAD: Localization Anomaly Detection
//! for Wireless Sensor Networks"* (Wenliang Du, Lei Fang, Peng Ning,
//! IPDPS 2005), including every substrate the paper depends on:
//!
//! * [`deployment`] — the group-based deployment-knowledge model, Gaussian
//!   placement, and the Theorem-1 neighbourhood probability `g(z)`,
//! * [`net`] — the wireless sensor network simulator (nodes, neighbourhoods,
//!   group-ID neighbour-count observations, CSR batches),
//! * [`localization`] — the beaconless MLE scheme the paper evaluates on,
//!   plus centroid and DV-Hop baselines,
//! * [`core`] — the LAD contribution itself: the Diff / Add-all / Probability
//!   metrics, τ-percentile threshold training, and the batched
//!   [`LadEngine`](lad_core::engine::LadEngine) front door,
//! * [`attack`] — the adversary: attack primitives, Dec-Bounded / Dec-Only
//!   classes, greedy metric-minimising taints, DoS attacks,
//! * [`eval`] — the evaluation harness: declarative scenario specs
//!   (`lad_eval::scenario`), a grid-parallel streaming Monte-Carlo runner,
//!   and every figure of the paper's evaluation section,
//! * [`serve`] — the sharded online detection runtime: per-node sequential
//!   decisions ([`stats::sequential`]) over streaming LAD scores, with
//!   deterministic traffic generation for evaluating and benchmarking the
//!   serving path,
//! * [`wire`] — the network boundary in front of the runtime: a versioned
//!   binary frame format for observation batches, a TCP/Unix-domain framed
//!   stream server with per-connection reader threads, and an explicit
//!   load-shed policy (rate-limit → shed-with-NACK),
//! * [`response`] — the closed loop on top of the alarm stream: alarm
//!   journalling, per-node suspicion, spatial alarm clustering, calibrated
//!   revocation/quarantine policies, and the controller that installs the
//!   resulting filter back into the serving runtime,
//! * [`telemetry`] — derived-only observability: per-shard stage latency
//!   histograms with exact merge and bounded quantile error, queue
//!   gauges, a structured event ring, a bounded windowed time-series of
//!   throughput / alarm-rate / latency deltas, and a detection-health
//!   model (score-drift watch via streaming KS against a versioned
//!   calibration baseline, observed-FAR band check), exportable over the
//!   wire as JSON stats / health frames or a Prometheus text exposition —
//!   and never consulted by any decision,
//! * [`geometry`] / [`stats`] — the numeric substrates underneath it all.
//!
//! The [`prelude`] re-exports the types most applications need. See the
//! `examples/` directory for runnable end-to-end scenarios and the
//! `reproduce` binary (in `lad-eval`) for the figure regeneration CLI.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub use lad_attack as attack;
pub use lad_core as core;
pub use lad_deployment as deployment;
pub use lad_eval as eval;
pub use lad_geometry as geometry;
pub use lad_localization as localization;
pub use lad_net as net;
pub use lad_response as response;
pub use lad_serve as serve;
pub use lad_stats as stats;
pub use lad_telemetry as telemetry;
pub use lad_wire as wire;

/// The most commonly used types, re-exported flat.
pub mod prelude {
    pub use lad_attack::{
        simulate_attack, taint_observation, AttackClass, AttackConfig, AttackOutcome, Evasion,
    };
    pub use lad_core::{
        EngineArtifact, EngineError, LadEngine, LadEngineBuilder, MetricKind, MultiVerdict,
        TrainedThresholds, Trainer, TrainingConfig, Verdict,
    };
    pub use lad_deployment::{DeploymentConfig, DeploymentKnowledge, GzTable};
    pub use lad_eval::scenario::{
        AttackMix, DeploymentAxis, LocalizerChoice, ParamGrid, SamplingPlan, ScenarioRunner,
        ScenarioSpec, SubstrateCache,
    };
    pub use lad_eval::EvalConfig;
    pub use lad_geometry::{Point2, Rect};
    pub use lad_localization::{BeaconlessMle, CentroidLocalizer, DvHopLocalizer, Localizer};
    pub use lad_net::{GroupId, Network, NodeId, Observation, ObservationBatch};
    pub use lad_response::{
        AlarmJournal, ClusterQuarantine, ResponseConfig, ResponseController, RevocationList,
        RevocationPolicy, SuspectScorer, ThresholdRevoke,
    };
    pub use lad_serve::{
        render_prometheus, Alarm, AttackTimeline, DriftBaseline, DriftMonitorConfig, DriftSnapshot,
        ResponseFilter, ServeConfig, ServeRuntime, ServeSnapshot, ServeStats, TrafficModel,
    };
    pub use lad_stats::{SequentialDetector, SequentialState};
    pub use lad_telemetry::{
        EventKind, HealthCause, HealthReport, HealthStatus, SeriesSnapshot, Stage, StageSummary,
        TelemetryEvent, TelemetrySnapshot, WindowSample,
    };
    pub use lad_wire::{
        Delivery, DeliveryStatus, HealthFormat, OverloadPolicy, ShedReason, WireClient, WireError,
        WireServer, WireServerConfig,
    };
}

#[cfg(test)]
mod tests {
    use super::prelude::*;

    #[test]
    fn prelude_types_compose() {
        let config = DeploymentConfig::small_test();
        let knowledge = DeploymentKnowledge::shared(&config);
        let network = Network::generate(knowledge.clone(), 1);
        assert_eq!(network.group_count(), config.group_count());
        let engine = LadEngine::builder()
            .deployment(&config)
            .metric(MetricKind::Diff)
            .thresholds(vec![25.0])
            .build()
            .unwrap();
        let node = NodeId(0);
        let verdicts = engine.verify(
            &network.true_observation(node),
            network.node(node).resident_point,
        );
        let diff: &Verdict = verdicts.verdict(MetricKind::Diff).unwrap();
        assert_eq!(diff.threshold, 25.0);
    }
}
