//! The drift monitor's contract, end to end through the serving runtime:
//!
//! * **No false drift alarms.** Clean traffic — the very substrate the
//!   detector and baseline were calibrated on — must never cross a KS
//!   tolerance calibrated above the split-half self-distance noise floor,
//!   at any seed or shard count (proptested).
//! * **Real drift flags fast.** An engine serving a deployment whose
//!   placement noise σ drifted by ~2× must flag `ScoreDrift` within K
//!   evaluation windows (proptested over the mismatch factor and seed).
//! * **Versioned artifacts fail loudly.** The [`DriftBaseline`] JSON and
//!   the [`ServeStats`] export both carry a version field; a reader
//!   meeting the future gets a typed `UnsupportedVersion`, not a
//!   mis-parse — and a baseline for the wrong metric is rejected at
//!   startup, not silently compared.

use lad::prelude::*;
use lad::serve::{ServeError, DRIFT_BASELINE_VERSION, STATS_VERSION};
use proptest::prelude::*;
use std::sync::{Arc, OnceLock};

/// Submits `traffic`'s round `round` to `runtime` as CSR rows.
fn submit_round(runtime: &ServeRuntime, traffic: &TrafficModel, network: &Network, round: u64) {
    let (mut nodes, mut rows) = (Vec::new(), ObservationBatch::default());
    traffic.round_rows(network, round, &mut nodes, &mut rows);
    runtime.submit_rows(round, &nodes, &rows);
}

struct Substrate {
    engine: Arc<LadEngine>,
    network: Network,
    nodes: Vec<NodeId>,
    detector: SequentialDetector,
    baseline: DriftBaseline,
    /// KS tolerance calibrated from the split-half self-distance of the
    /// calibration streams (the README recipe).
    tolerance: f64,
}

const TARGET_FAR: f64 = 0.01;

fn substrate() -> &'static Substrate {
    static CELL: OnceLock<Substrate> = OnceLock::new();
    CELL.get_or_init(|| {
        let engine = Arc::new(
            LadEngine::builder()
                .deployment(&DeploymentConfig::small_test())
                .metrics(&MetricKind::ALL)
                .score_only()
                .build()
                .expect("engine builds"),
        );
        let network = Network::generate(engine.knowledge().clone(), 0xA11CE);
        let stride = (network.node_count() as u32 / 128).max(1);
        let nodes: Vec<NodeId> = (0..128u32)
            .map(|i| NodeId((i * stride) % network.node_count() as u32))
            .collect();
        let clean = TrafficModel::clean(&network, &engine, nodes.clone(), 0xCAFE);
        let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..24);
        let detector =
            SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), TARGET_FAR);
        // Self-distance via a *time* split — early rounds vs late rounds of
        // the same node streams are exchangeable under cleanness, so their
        // KS is pure resampling noise. (A split across *nodes* is not: each
        // node's score distribution depends on its geography.)
        let first = DriftBaseline::capture(
            MetricKind::Diff,
            TARGET_FAR,
            streams.iter().map(|s| &s[..s.len() / 2]),
        );
        let second = DriftBaseline::capture(
            MetricKind::Diff,
            TARGET_FAR,
            streams.iter().map(|s| &s[s.len() / 2..]),
        );
        let self_ks = lad::stats::streaming_ks(&first.scores, &second.scores);
        let tolerance = (4.0 * self_ks).max(0.06);
        let baseline = DriftBaseline::capture(
            MetricKind::Diff,
            TARGET_FAR,
            streams.iter().map(Vec::as_slice),
        );
        Substrate {
            engine,
            network,
            nodes,
            detector,
            baseline,
            tolerance,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// Clean traffic from fresh seeds — same deployment, same engine, new
    /// noise draws — evaluated every round at the calibrated tolerance:
    /// the monitor must render verdicts (enough samples flow) and never
    /// flag, and the runtime must end its life Healthy with a zero
    /// `flagged` counter.
    #[test]
    fn prop_clean_traffic_never_flags_at_calibrated_tolerance(
        seed in 0u64..1_000_000,
        shard_pick in 0usize..3,
    ) {
        let shards = [1usize, 2, 4][shard_pick];
        let s = substrate();
        let traffic = TrafficModel::clean(&s.network, &s.engine, s.nodes.clone(), seed);
        let monitor = DriftMonitorConfig::new(s.baseline.clone(), s.tolerance)
            // The FAR band is exercised separately (unit tests and the
            // monitor tour); a generous band isolates the KS axis here.
            .with_far_band(0.05);
        let runtime = ServeRuntime::start(
            s.engine.clone(),
            ServeConfig::new(MetricKind::Diff, s.detector)
                .with_shards(shards)
                .with_drift_monitor(monitor)
                .with_stats_window(0, 32),
        )
        .expect("runtime starts");
        for round in 0..10u64 {
            submit_round(&runtime, &traffic, &s.network, round);
            runtime.sync();
            let verdict = runtime.refresh_drift();
            prop_assert!(
                !verdict.flagging(),
                "clean seed {seed} flagged at round {round} (ks={} tol={} far={})",
                verdict.ks, verdict.ks_tolerance, verdict.observed_far
            );
            runtime.stats();
        }
        let stats = runtime.stats();
        prop_assert!(stats.drift.enabled);
        prop_assert!(stats.drift.evaluations > 0, "enough clean samples must flow for verdicts");
        prop_assert_eq!(stats.drift.flagged, 0);
        prop_assert_eq!(stats.health.status, HealthStatus::Healthy);
        runtime.shutdown();
    }

    /// The failure mode the monitor exists for: the field deployment's
    /// placement noise drifted to ~2× the σ the engine was built with.
    /// Honest traffic, shifted scores — the KS verdict must flag within
    /// K = 8 evaluation windows.
    #[test]
    fn prop_sigma_mismatch_flags_within_k_windows(
        seed in 0u64..1_000_000,
        sigma_factor in 1.9f64..2.6,
        shard_pick in 0usize..2,
    ) {
        let shards = [1usize, 2][shard_pick];
        const K: u64 = 8;
        let s = substrate();
        let drifted = DeploymentConfig::small_test().with_sigma(50.0 * sigma_factor);
        let network = Network::generate(DeploymentKnowledge::shared(&drifted), seed ^ 0x5EED);
        let traffic = TrafficModel::clean(&network, &s.engine, s.nodes.clone(), seed);
        let monitor = DriftMonitorConfig::new(s.baseline.clone(), s.tolerance)
            // Alarm latching under the mismatch thins the clean stream;
            // judge as soon as a window's worth of samples exists.
            .with_min_samples(64);
        let runtime = ServeRuntime::start(
            s.engine.clone(),
            ServeConfig::new(MetricKind::Diff, s.detector)
                .with_shards(shards)
                .with_drift_monitor(monitor)
                .with_stats_window(0, 32),
        )
        .expect("runtime starts");
        let mut last_ks = 0.0;
        let mut flagged_at = None;
        for round in 0..K {
            submit_round(&runtime, &traffic, &network, round);
            runtime.sync();
            let verdict = runtime.refresh_drift();
            last_ks = verdict.ks;
            if verdict.drifting {
                flagged_at = Some(round);
                break;
            }
        }
        prop_assert!(
            flagged_at.is_some(),
            "σ×{sigma_factor:.2} mismatch must flag within {K} windows (last ks={last_ks}, tol={})",
            s.tolerance
        );
        let stats = runtime.stats();
        prop_assert!(stats.drift.flagged > 0);
        prop_assert_eq!(stats.health.status, HealthStatus::Drifting);
        prop_assert!(
            stats.health.causes.iter().any(|c| matches!(c, HealthCause::ScoreDrift { .. })),
            "health must carry the ScoreDrift cause"
        );
        runtime.shutdown();
    }
}

#[test]
fn versioned_artifacts_reject_the_future_loudly() {
    let s = substrate();

    // The baseline artifact round-trips and refuses future versions.
    let json = s.baseline.to_json();
    let back = DriftBaseline::from_json(&json).expect("current baseline parses");
    assert_eq!(back, s.baseline);
    let future = json.replacen(
        &format!("\"version\":{DRIFT_BASELINE_VERSION}"),
        "\"version\":7",
        1,
    );
    assert_eq!(
        DriftBaseline::from_json(&future),
        Err(ServeError::UnsupportedVersion { found: 7 })
    );

    // The stats export carries `stats_version` and refuses it the same
    // way — a pre-versioning export (no field at all) is a parse error,
    // not a silently zero-filled snapshot.
    let runtime = ServeRuntime::start(
        s.engine.clone(),
        ServeConfig::new(MetricKind::Diff, s.detector)
            .with_shards(2)
            .with_drift_monitor(DriftMonitorConfig::new(s.baseline.clone(), s.tolerance)),
    )
    .expect("runtime starts");
    let traffic = TrafficModel::clean(&s.network, &s.engine, s.nodes.clone(), 0xBEEF);
    for round in 0..3u64 {
        submit_round(&runtime, &traffic, &s.network, round);
    }
    runtime.sync();
    runtime.refresh_drift();
    let stats_json = runtime.stats().to_json();
    let stats = ServeStats::from_json(&stats_json).expect("current stats parse");
    assert_eq!(stats.stats_version, STATS_VERSION);
    assert!(stats.drift.enabled);
    // A v1 export (the layout with a `degraded` counter) and a future one
    // are both refused by version, before any other field is read.
    let v1 = stats_json
        .replacen(
            &format!("\"stats_version\":{STATS_VERSION}"),
            "\"stats_version\":1",
            1,
        )
        .replacen("\"suppressed\":", "\"degraded\":0,\"suppressed\":", 1);
    assert_eq!(
        ServeStats::from_json(&v1),
        Err(ServeError::UnsupportedVersion { found: 1 })
    );
    let future = stats_json.replacen(
        &format!("\"stats_version\":{STATS_VERSION}"),
        "\"stats_version\":99",
        1,
    );
    assert!(matches!(
        ServeStats::from_json(&future),
        Err(ServeError::UnsupportedVersion { found: 99 })
    ));
    assert!(matches!(
        ServeStats::from_json("{}"),
        Err(ServeError::Parse(_))
    ));
    runtime.shutdown();

    // A baseline for the wrong metric is a configuration error at
    // startup: a Diff serve config cannot be judged by an AddAll
    // substrate.
    let wrong_metric = DriftBaseline::capture(MetricKind::AddAll, TARGET_FAR, [&[1.0, 2.0][..]]);
    let err = ServeRuntime::start(
        s.engine.clone(),
        ServeConfig::new(MetricKind::Diff, s.detector)
            .with_drift_monitor(DriftMonitorConfig::new(wrong_metric, 0.1)),
    )
    .err()
    .expect("metric mismatch must be rejected");
    assert!(matches!(err, ServeError::InvalidConfig(_)));
}
