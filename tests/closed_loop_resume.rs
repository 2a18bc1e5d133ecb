//! Restart safety of the closed loop: fired-but-undrained alarms ride the
//! v2 serve snapshot, response-controller state rides its own versioned
//! snapshot, and a restored pair continues exactly where the live pair
//! stopped — no alarm lost, no decision forgotten.

use lad::prelude::*;
use lad::response::{ResponseSnapshot, RESPONSE_SNAPSHOT_VERSION};
use lad::serve::SNAPSHOT_VERSION;
use std::sync::Arc;

/// Submits `traffic`'s round `round` to `runtime` as CSR rows.
fn submit_round(runtime: &ServeRuntime, traffic: &TrafficModel, network: &Network, round: u64) {
    let (mut nodes, mut rows) = (Vec::new(), ObservationBatch::default());
    traffic.round_rows(network, round, &mut nodes, &mut rows);
    runtime.submit_rows(round, &nodes, &rows);
}

fn engine() -> Arc<LadEngine> {
    Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("engine builds"),
    )
}

fn attacked_traffic(engine: &Arc<LadEngine>, network: &Network) -> (TrafficModel, TrafficModel) {
    let nodes: Vec<NodeId> = (0..48u32).map(|i| NodeId(i * 7)).collect();
    let clean = TrafficModel::clean(network, engine, nodes, 0x9E5);
    let attacked = clean.with_attack(
        AttackTimeline::Onset { at: 4 },
        AttackConfig {
            degree_of_damage: 170.0,
            compromised_fraction: 0.2,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        },
        0.4,
    );
    (clean, attacked)
}

fn key(a: &Alarm) -> (u32, u64) {
    (a.node.0, a.round)
}

#[test]
fn undrained_alarms_survive_snapshot_and_restore() {
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xA1A);
    let (clean, attacked) = attacked_traffic(&engine, &network);
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..10);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let config = ServeConfig::new(MetricKind::Diff, detector);

    // Reference: one uninterrupted run, drained at the end.
    let reference = ServeRuntime::start(engine.clone(), config.clone()).unwrap();
    for round in 0..16 {
        submit_round(&reference, &attacked, &network, round);
    }
    let mut ref_alarms: Vec<(u32, u64)> = reference.drain_alarms().iter().map(key).collect();
    ref_alarms.sort_unstable();
    assert!(!ref_alarms.is_empty(), "the attack must alarm");
    reference.shutdown();

    // Interrupted run: serve 9 rounds and snapshot WITHOUT draining.
    let first = ServeRuntime::start(engine.clone(), config.clone()).unwrap();
    for round in 0..9 {
        submit_round(&first, &attacked, &network, round);
    }
    let snapshot = first.snapshot();
    assert_eq!(snapshot.version, SNAPSHOT_VERSION);
    assert!(
        !snapshot.pending_alarms.is_empty(),
        "undrained alarms must be captured"
    );
    // The capture is non-destructive: a later drain still sees them.
    let still_there: Vec<(u32, u64)> = first.drain_alarms().iter().map(key).collect();
    assert_eq!(
        still_there,
        snapshot.pending_alarms.iter().map(key).collect::<Vec<_>>(),
        "snapshot() must not consume the alarm stream"
    );
    let json = snapshot.to_json();
    drop(first.shutdown());

    // Restore into a fresh runtime with a different shard count; the
    // pending alarms come back out of the stream ahead of new ones.
    let restored = ServeSnapshot::from_json(&json).expect("v2 parses");
    let second = ServeRuntime::start(engine.clone(), config.with_shards(3)).unwrap();
    second.restore(&restored).expect("snapshot restores");
    let mut alarms: Vec<(u32, u64)> = second.poll_alarms().iter().map(key).collect();
    assert_eq!(
        alarms,
        restored.pending_alarms.iter().map(key).collect::<Vec<_>>(),
        "restore re-injects the pending alarms"
    );
    for round in 9..16 {
        submit_round(&second, &attacked, &network, round);
    }
    alarms.extend(second.drain_alarms().iter().map(key));
    alarms.sort_unstable();
    assert_eq!(
        alarms, ref_alarms,
        "interrupted + resumed run sees exactly the reference alarm set"
    );
    let report = second.shutdown();
    // Shutdown's snapshot also carries whatever was left undrained (here:
    // nothing, we just drained).
    assert!(report.snapshot.pending_alarms.is_empty());
}

#[test]
fn shutdown_snapshot_carries_undrained_alarms() {
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xA1B);
    let (clean, attacked) = attacked_traffic(&engine, &network);
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..10);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);

    let runtime =
        ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector)).unwrap();
    for round in 0..12 {
        submit_round(&runtime, &attacked, &network, round);
    }
    let report = runtime.shutdown();
    assert!(!report.alarms.is_empty(), "the attack must alarm");
    assert_eq!(
        report.snapshot.pending_alarms, report.alarms,
        "the final snapshot must not lose the undrained alarms"
    );
    // And the whole thing round-trips through the v2 JSON.
    let back = ServeSnapshot::from_json(&report.snapshot.to_json()).expect("round trip");
    assert_eq!(back, report.snapshot);
}

#[test]
fn response_controller_resumes_identically_mid_loop() {
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xA1C);
    let (clean, attacked) = attacked_traffic(&engine, &network);
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..10);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let policy =
        || Box::new(ThresholdRevoke { budget: 1.5 }) as Box<dyn lad::response::RevocationPolicy>;

    let run = |interrupt: Option<u64>| -> (Vec<u32>, u64) {
        let runtime =
            ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector))
                .unwrap();
        let mut traffic = attacked.clone();
        let mut controller =
            ResponseController::new(ResponseConfig::default()).with_policy(policy());
        for round in 0..16 {
            if interrupt == Some(round) {
                let json = controller.snapshot().to_json();
                let snap = ResponseSnapshot::from_json(&json).expect("parses");
                assert_eq!(snap.version, RESPONSE_SNAPSHOT_VERSION);
                controller = ResponseController::from_snapshot(snap).with_policy(policy());
            }
            submit_round(&runtime, &traffic, &network, round);
            let outcome = controller.step(&runtime, round);
            if !outcome.newly_revoked.is_empty() {
                traffic.revoke_nodes(&outcome.newly_revoked, round + 1);
            }
        }
        runtime.shutdown();
        let list = controller.revocations();
        (list.revoked.iter().map(|r| r.node).collect(), list.revision)
    };

    let (live, live_rev) = run(None);
    assert!(!live.is_empty(), "the loop must revoke attackers");
    let (resumed, resumed_rev) = run(Some(7));
    assert_eq!(live, resumed, "mid-loop restore changes no decision");
    assert_eq!(live_rev, resumed_rev);
}
