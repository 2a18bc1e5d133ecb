//! The wire front door under load: liveness, typed shedding, and the
//! bit-identity of surviving traffic.
//!
//! The acceptance bar: a server offered a multiple of what its policy
//! admits must stay live (every offered batch gets a typed receipt — no
//! stall, no queue collapse), the shed counter must grow, decode errors
//! must count without ever panicking a connection thread, and the alarms
//! raised on the traffic that *survived* the gate must be bit-identical
//! to submitting exactly those batches in-process — at a different shard
//! count, so the wire path inherits the runtime's shard-count determinism.

use lad_core::{LadEngine, MetricKind};
use lad_deployment::DeploymentConfig;
use lad_net::{Network, NodeId, ObservationBatch};
use lad_serve::{AttackTimeline, ServeConfig, ServeCounters, ServeRuntime, TrafficModel};
use lad_stats::SequentialDetector;
use lad_wire::{
    DeliveryStatus, OverloadPolicy, ShedReason, WireClient, WireServer, WireServerConfig,
};
use std::io::{Read, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn engine() -> Arc<LadEngine> {
    Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .unwrap(),
    )
}

/// Clean + attacked traffic and a CUSUM detector calibrated on the clean
/// streams — the same harness the serve-runtime tests use.
fn scenario(engine: &Arc<LadEngine>, seed: u64) -> (Network, TrafficModel, SequentialDetector) {
    let network = Network::generate(engine.knowledge().clone(), seed);
    let nodes: Vec<NodeId> = (0..48u32).map(|i| NodeId(i * 11)).collect();
    let clean = TrafficModel::clean(&network, engine, nodes, 0x5EED);
    let streams = clean.score_streams(&network, engine, MetricKind::Diff, 0..12);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let attacked = clean.with_attack(
        AttackTimeline::Onset { at: 6 },
        lad_attack::AttackConfig {
            degree_of_damage: 180.0,
            compromised_fraction: 0.2,
            class: lad_attack::AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        },
        0.5,
    );
    (network, attacked, detector)
}

/// One round of the attacked workload as flat CSR rows.
fn round_rows(
    traffic: &TrafficModel,
    network: &Network,
    engine: &LadEngine,
    round: u64,
) -> (Vec<NodeId>, ObservationBatch) {
    let mut nodes = Vec::new();
    let mut rows = ObservationBatch::new(engine.knowledge().group_count());
    traffic.round_rows(network, round, &mut nodes, &mut rows);
    (nodes, rows)
}

/// Sorted, bit-exact alarm tuples — the comparison key for determinism
/// assertions.
fn alarm_bits(runtime: &ServeRuntime) -> Vec<(u32, u64, u64, u64)> {
    let mut alarms: Vec<(u32, u64, u64, u64)> = runtime
        .drain_alarms()
        .into_iter()
        .map(|a| (a.node.0, a.round, a.score.to_bits(), a.statistic.to_bits()))
        .collect();
    alarms.sort_unstable();
    alarms
}

/// Replays `rounds` of the workload in-process (no wire) on a fresh
/// runtime with `shards` shards and returns its sorted alarm bits.
fn replay_in_process(
    engine: &Arc<LadEngine>,
    network: &Network,
    traffic: &TrafficModel,
    detector: SequentialDetector,
    shards: usize,
    rounds: &[u64],
) -> (Vec<(u32, u64, u64, u64)>, ServeCounters) {
    let runtime = ServeRuntime::start(
        engine.clone(),
        ServeConfig::new(MetricKind::Diff, detector).with_shards(shards),
    )
    .unwrap();
    for &round in rounds {
        let (nodes, rows) = round_rows(traffic, network, engine, round);
        runtime.submit_rows(round, &nodes, &rows);
    }
    let alarms = alarm_bits(&runtime);
    let report = runtime.shutdown();
    (alarms, report.counters)
}

#[test]
fn tcp_alarms_are_bit_identical_to_in_process_submission() {
    let engine = engine();
    let (network, traffic, detector) = scenario(&engine, 31);
    let runtime = Arc::new(
        ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector).with_shards(2),
        )
        .unwrap(),
    );
    let server = WireServer::start(runtime.clone(), WireServerConfig::tcp("127.0.0.1:0")).unwrap();
    let mut client = WireClient::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let rounds: Vec<u64> = (0..14).collect();
    let mut offered_reports = 0u64;
    for &round in &rounds {
        let (nodes, rows) = round_rows(&traffic, &network, &engine, round);
        let receipt = client.send_rows(round, &nodes, &rows).unwrap();
        assert_eq!(receipt.round, round);
        assert_eq!(receipt.rows as usize, nodes.len());
        assert_eq!(receipt.status, DeliveryStatus::Accepted);
        offered_reports += nodes.len() as u64;
    }
    let wire_alarms = alarm_bits(&runtime);
    server.shutdown();
    let counters = runtime.counters();
    assert_eq!(counters.decode_errors, 0);
    assert_eq!(counters.shed, 0);
    assert_eq!(counters.submitted, offered_reports);

    // Same workload, no wire, different shard count.
    let (local_alarms, local_counters) =
        replay_in_process(&engine, &network, &traffic, detector, 3, &rounds);
    assert!(!wire_alarms.is_empty(), "the attack must fire");
    assert_eq!(
        wire_alarms, local_alarms,
        "wire ingest must not change a single decision bit"
    );
    assert_eq!(counters.submitted, local_counters.submitted);
}

#[test]
fn admitted_decisions_match_the_fused_pass_and_are_reported() {
    // Every admitted batch takes the shard's single-column kernel: alarms
    // raised over TCP carry exactly the decision column of the all-metrics
    // fused pass, and receipts plus counters account for every report.
    let engine = engine();
    let (network, traffic, detector) = scenario(&engine, 32);
    let runtime = Arc::new(
        ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector).with_shards(3),
        )
        .unwrap(),
    );
    let server = WireServer::start(runtime.clone(), WireServerConfig::tcp("127.0.0.1:0")).unwrap();
    let mut client = WireClient::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let width = engine.metrics().len();
    let column = engine.metric_index(MetricKind::Diff).unwrap();
    let mut states = std::collections::HashMap::new();
    let mut expected = Vec::new();
    let mut scores = Vec::new();
    let mut offered_reports = 0u64;
    for round in 0..14 {
        let (nodes, rows) = round_rows(&traffic, &network, &engine, round);
        let receipt = client.send_rows(round, &nodes, &rows).unwrap();
        assert_eq!(receipt.status, DeliveryStatus::Accepted);
        assert_eq!(receipt.rows as usize, nodes.len());
        offered_reports += nodes.len() as u64;
        engine.score_rows_into(&rows, &mut scores);
        for (node, row) in nodes.iter().zip(scores.chunks_exact(width)) {
            let state = states
                .entry(node.0)
                .or_insert_with(|| detector.initial_state());
            if detector.update(state, row[column]) {
                expected.push((node.0, round, row[column].to_bits()));
                detector.reset(state);
            }
        }
    }
    expected.sort_unstable();
    let mut wire_alarms: Vec<(u32, u64, u64)> = runtime
        .drain_alarms()
        .into_iter()
        .map(|a| (a.node.0, a.round, a.score.to_bits()))
        .collect();
    wire_alarms.sort_unstable();
    server.shutdown();
    assert!(!wire_alarms.is_empty(), "the attack must fire");
    assert_eq!(
        wire_alarms, expected,
        "served scores must equal the fused pass's decision column"
    );

    let counters = runtime.counters();
    assert_eq!(counters.submitted, offered_reports);
    assert_eq!(counters.processed, offered_reports);
    assert_eq!(counters.alarms as usize, wire_alarms.len());
    assert_eq!(counters.shed, 0);
    assert_eq!(counters.decode_errors, 0);
}

#[test]
fn saturation_sheds_typed_stays_live_and_survivors_match_in_process() {
    let engine = engine();
    let (network, traffic, detector) = scenario(&engine, 33);
    let runtime = Arc::new(
        ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector).with_shards(2),
        )
        .unwrap(),
    );
    // Budget ≈ one 48-row batch up front, trickle refill: offering 40
    // batches as fast as the socket accepts them is many times the
    // admissible rate, so most must shed — typed, without ever stalling
    // the connection or collapsing a queue.
    let config = WireServerConfig::tcp("127.0.0.1:0")
        .with_policy(OverloadPolicy::default().with_rate_limit(20.0, 48.0));
    let server = WireServer::start(runtime.clone(), config).unwrap();
    let mut client = WireClient::connect_tcp(server.tcp_addr().unwrap()).unwrap();

    let offered: Vec<u64> = (0..40).collect();
    let t0 = Instant::now();
    // Pipelined: all batches in flight at once — the overload case.
    for &round in &offered {
        let (nodes, rows) = round_rows(&traffic, &network, &engine, round);
        client.send_rows_nowait(round, &nodes, &rows).unwrap();
    }
    assert_eq!(client.in_flight(), offered.len());
    let mut accepted_rounds = Vec::new();
    let mut accepted_reports = 0u64;
    let mut shed = 0u64;
    for _ in &offered {
        let receipt = client.recv_delivery().unwrap();
        match receipt.status {
            DeliveryStatus::Accepted => {
                accepted_rounds.push(receipt.round);
                accepted_reports += receipt.rows as u64;
            }
            DeliveryStatus::Shed { reason, .. } => {
                assert_eq!(reason, ShedReason::RateLimited);
                shed += receipt.rows as u64;
            }
        }
    }
    assert_eq!(client.in_flight(), 0);
    let elapsed = t0.elapsed();
    let wire_alarms = alarm_bits(&runtime);
    server.shutdown();
    let counters = runtime.counters();

    // Liveness: every offered batch was answered, promptly — shedding is a
    // receipt, not a stall (40 batches at the admitted rate alone would
    // take ~100 s; the NACK path must not wait for tokens).
    assert!(
        elapsed < Duration::from_secs(30),
        "shedding must not serialise on the admitted rate (took {elapsed:?})"
    );
    // The gate actually shed (offered ≈ many × budget) but admitted the
    // initial burst.
    assert!(!accepted_rounds.is_empty(), "the initial burst is admitted");
    assert!(
        accepted_rounds.len() < offered.len() / 2,
        "over 2x capacity, most batches must shed (accepted {})",
        accepted_rounds.len()
    );
    assert_eq!(counters.shed, shed);
    assert!(counters.shed > 0);
    assert_eq!(counters.decode_errors, 0);
    assert_eq!(counters.submitted, accepted_reports);
    // No queue collapse: everything admitted was fully processed.
    assert_eq!(counters.processed, counters.submitted);

    // The surviving traffic's alarms are bit-identical to submitting
    // exactly those batches in-process, at a different shard count.
    let (local_alarms, _) =
        replay_in_process(&engine, &network, &traffic, detector, 5, &accepted_rounds);
    assert_eq!(
        wire_alarms, local_alarms,
        "surviving-traffic decisions must be bit-identical to in-process"
    );
}

#[test]
fn shed_depth_zero_nacks_everything_overloaded() {
    let engine = engine();
    let (network, traffic, detector) = scenario(&engine, 34);
    let runtime = Arc::new(
        ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector)).unwrap(),
    );
    let config = WireServerConfig::tcp("127.0.0.1:0")
        .with_policy(OverloadPolicy::default().with_shed_depth(0));
    let server = WireServer::start(runtime.clone(), config).unwrap();
    let mut client = WireClient::connect_tcp(server.tcp_addr().unwrap()).unwrap();
    let mut offered_reports = 0u64;
    for round in 0..3 {
        let (nodes, rows) = round_rows(&traffic, &network, &engine, round);
        let receipt = client.send_rows(round, &nodes, &rows).unwrap();
        let DeliveryStatus::Shed { reason, shed_total } = receipt.status else {
            panic!("batch must be shed at depth 0, got {:?}", receipt.status);
        };
        assert_eq!(reason, ShedReason::Overloaded);
        offered_reports += nodes.len() as u64;
        // The NACK carries the server's running totals so a sender can
        // adapt without a stats round-trip.
        assert_eq!(shed_total, offered_reports);
    }
    server.shutdown();
    let counters = runtime.counters();
    assert_eq!(counters.submitted, 0, "shed batches never touch a queue");
    assert_eq!(counters.shed, offered_reports);
    assert!(alarm_bits(&runtime).is_empty());
}

#[test]
fn uds_front_door_round_trips_and_cleans_up() {
    let engine = engine();
    let (network, traffic, detector) = scenario(&engine, 35);
    let runtime = Arc::new(
        ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector)).unwrap(),
    );
    let path = std::env::temp_dir().join(format!("lad_wire_test_{}.sock", std::process::id()));
    let server = WireServer::start(runtime.clone(), WireServerConfig::uds(&path)).unwrap();
    assert_eq!(server.uds_path(), Some(&path));
    let mut client = WireClient::connect_uds(&path).unwrap();
    let mut offered_reports = 0u64;
    for round in 0..3 {
        let (nodes, rows) = round_rows(&traffic, &network, &engine, round);
        let receipt = client.send_rows(round, &nodes, &rows).unwrap();
        assert_eq!(receipt.status, DeliveryStatus::Accepted);
        offered_reports += nodes.len() as u64;
    }
    server.shutdown();
    assert!(!path.exists(), "shutdown removes the socket file");
    assert_eq!(runtime.counters().submitted, offered_reports);
}

#[test]
fn garbage_frames_count_as_decode_errors_and_leave_the_server_live() {
    let engine = engine();
    let (network, traffic, detector) = scenario(&engine, 36);
    let runtime = Arc::new(
        ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector)).unwrap(),
    );
    let server = WireServer::start(runtime.clone(), WireServerConfig::tcp("127.0.0.1:0")).unwrap();
    let addr = server.tcp_addr().unwrap();

    // A peer speaking nonsense: the server must record a decode error and
    // close that connection — nothing more.
    let mut garbage = std::net::TcpStream::connect(addr).unwrap();
    garbage.write_all(b"GET / HTTP/1.1\r\n\r\n").unwrap();
    let mut sink = Vec::new();
    let _ = garbage.read_to_end(&mut sink); // server closes on the bad frame
    drop(garbage);
    let deadline = Instant::now() + Duration::from_secs(10);
    while runtime.counters().decode_errors == 0 {
        assert!(Instant::now() < deadline, "decode error was never counted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // A truncated frame (valid header, stream cut mid-payload) is a decode
    // error too.
    let (nodes, rows) = round_rows(&traffic, &network, &engine, 0);
    let mut wire = Vec::new();
    lad_wire::encode_batch(&mut wire, 0, &nodes, &rows);
    let mut truncating = std::net::TcpStream::connect(addr).unwrap();
    truncating.write_all(&wire[..wire.len() / 2]).unwrap();
    drop(truncating);
    let deadline = Instant::now() + Duration::from_secs(10);
    while runtime.counters().decode_errors < 2 {
        assert!(Instant::now() < deadline, "truncation was never counted");
        std::thread::sleep(Duration::from_millis(5));
    }

    // The server survived both: a well-behaved client still gets through.
    let mut client = WireClient::connect_tcp(addr).unwrap();
    let receipt = client.send_rows(0, &nodes, &rows).unwrap();
    assert_eq!(receipt.status, DeliveryStatus::Accepted);
    server.shutdown();
    let counters = runtime.counters();
    assert_eq!(counters.decode_errors, 2);
    assert_eq!(counters.submitted, nodes.len() as u64);
}
