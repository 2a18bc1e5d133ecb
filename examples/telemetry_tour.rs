//! A tour of the observability layer: serve an attack scenario behind the
//! TCP front door, then ask the *running server* what happened — over the
//! same socket the reports used — with a `StatsRequest` frame.
//!
//! The reply is a JSON [`ServeStats`]: the atomic counters plus the
//! telemetry fold — per-stage latency percentiles (decode → gate →
//! queue-wait → score → detector-update → drain → response-step),
//! fold-time queue gauges, and the structured event ring (alarms fired,
//! batches shed with their source address, revocation
//! installs). All of it is derived state: nothing here is consulted by
//! any decision, so the alarm stream is bit-identical with telemetry on
//! or off.
//!
//! ```text
//! cargo run --release --example telemetry_tour            # full demo
//! cargo run --release --example telemetry_tour -- --smoke # CI-sized
//! ```

use lad::prelude::*;
use lad::response::ClusterQuarantine;
use std::sync::Arc;

fn main() {
    let mut smoke = false;
    for arg in std::env::args().skip(1) {
        match arg.as_str() {
            "--smoke" => smoke = true,
            other => {
                eprintln!("unknown argument: {other} (try --smoke)");
                std::process::exit(2);
            }
        }
    }
    let (population, warmup, horizon) = if smoke { (64, 16, 24) } else { (256, 40, 60) };
    let onset = horizon / 3;

    // Offline: engine, simulated deployment, detector calibrated on clean
    // warm-up traffic — the same recipe as `wire_serve`.
    let engine = Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("engine builds"),
    );
    let network = Network::generate(engine.knowledge().clone(), 0x7E1E);
    let stride = (network.node_count() as u32 / population as u32).max(1);
    let nodes: Vec<NodeId> = (0..population as u32)
        .map(|i| NodeId((i * stride) % network.node_count() as u32))
        .collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, 0x0B5E);
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..warmup);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.005);
    let mut traffic = clean.with_attack(
        AttackTimeline::Onset { at: onset },
        AttackConfig {
            degree_of_damage: 150.0,
            compromised_fraction: 0.2,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        },
        0.5,
    );

    // Online: runtime (telemetry is on by default) behind a TCP listener,
    // with the closed response loop stepping alongside.
    let runtime = Arc::new(
        ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector).with_shards(2),
        )
        .expect("runtime starts"),
    );
    let server = lad::wire::WireServer::start(
        runtime.clone(),
        lad::wire::WireServerConfig::tcp("127.0.0.1:0"),
    )
    .expect("server binds");
    let addr = server.tcp_addr().expect("tcp listener bound");
    let mut client = WireClient::connect_tcp(addr).expect("client connects");
    let mut controller = ResponseController::new(ResponseConfig {
        decay: 0.9,
        ..ResponseConfig::default()
    })
    .with_policy(Box::new(ThresholdRevoke { budget: 1.8 }))
    .with_policy(Box::new(ClusterQuarantine {
        link_radius: 75.0,
        window: 10,
        min_alarms: 3,
        suspicion_budget: 1.5,
        margin: 50.0,
        lift_after: 6,
    }));

    let mut batch_nodes = Vec::new();
    let mut rows = lad::net::ObservationBatch::new(engine.knowledge().group_count());
    for round in 0..horizon {
        traffic.round_rows(&network, round, &mut batch_nodes, &mut rows);
        let receipt = client
            .send_rows(round, &batch_nodes, &rows)
            .expect("receipt arrives");
        assert!(
            matches!(receipt.status, DeliveryStatus::Accepted),
            "clean-rate traffic must be accepted"
        );
        let outcome = controller.step(&runtime, round);
        if !outcome.newly_revoked.is_empty() {
            traffic.revoke_nodes(&outcome.newly_revoked, round + 1);
        }
    }
    runtime.sync();

    // The observability query: a StatsRequest frame over the same socket,
    // answered with a JSON ServeStats snapshot.
    let json = client.query_stats().expect("stats reply arrives");
    let stats = ServeStats::from_json(&json).expect("stats parse");
    let c = &stats.counters;
    println!(
        "counters: submitted {} / processed {} / alarms {} / suppressed {} \
         (µ-cache hit rate {:.1}%)",
        c.submitted,
        c.processed,
        c.alarms,
        c.suppressed,
        c.mu_cache_hit_rate() * 100.0,
    );
    assert!(c.submitted >= c.processed, "monotone pipeline accounting");

    let t = &stats.telemetry;
    println!(
        "\nstage latency over {:.1} ms of uptime (ns; p-quantiles within \
         +6.25% of exact):",
        t.uptime_nanos as f64 / 1e6
    );
    println!(
        "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
        "stage", "count", "p50", "p95", "p99", "max"
    );
    for s in &t.stages {
        println!(
            "  {:<16} {:>8} {:>10} {:>10} {:>10} {:>10}",
            s.stage.name(),
            s.count,
            s.p50_nanos,
            s.p95_nanos,
            s.p99_nanos,
            s.max_nanos,
        );
    }
    println!(
        "\nqueues at fold time: depth {:?} (advisory), last batch waited {:?} ns",
        t.shard_queue_depth, t.shard_queue_age_nanos
    );
    println!(
        "event ring: {} logged, {} evicted; tail:",
        t.events_logged, t.events_dropped
    );
    for e in t.events.iter().rev().take(5).rev() {
        println!(
            "  #{:<4} +{:>6.1}ms {:?} round {} a={} b={} {}",
            e.seq,
            e.at_nanos as f64 / 1e6,
            e.kind,
            e.round,
            e.a,
            e.b,
            e.detail
        );
    }
    assert!(
        t.stages
            .iter()
            .any(|s| s.stage == Stage::Score && s.count > 0),
        "the scoring stage must have recorded spans"
    );
    assert!(
        t.stages
            .iter()
            .any(|s| s.stage == Stage::ResponseStep && s.count > 0),
        "the response loop must have recorded spans"
    );

    server.shutdown();
    let runtime = Arc::into_inner(runtime).expect("server released its runtime handle");
    let report = runtime.shutdown();
    println!(
        "\nclean shutdown: {} alarms total, {} reports processed",
        report.counters.alarms, report.counters.processed
    );
}
