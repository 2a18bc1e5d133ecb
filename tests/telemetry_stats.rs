//! The wire-queryable stats export under live load: a `StatsRequest`
//! frame on a second connection, answered while another connection is
//! still streaming batches, must return a coherent [`ServeStats`] —
//! `submitted >= processed` (counters are loaded processed-first), stage
//! telemetry accumulating, queue gauges advisory but sane — and a
//! telemetry-disabled runtime must answer the same query with an
//! all-zero fold rather than an error.

use lad::prelude::*;
use lad::wire::{WireServer, WireServerConfig};
use std::sync::Arc;

fn scenario() -> (Arc<LadEngine>, Network, TrafficModel, SequentialDetector) {
    let engine = Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("engine builds"),
    );
    let network = Network::generate(engine.knowledge().clone(), 0x57A7);
    let nodes: Vec<NodeId> = (0..128u32).map(NodeId).collect();
    let traffic = TrafficModel::clean(&network, &engine, nodes, 0x1E7E);
    let streams = traffic.score_streams(&network, &engine, MetricKind::Diff, 0..8);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    (engine, network, traffic, detector)
}

#[test]
fn stats_query_under_load_is_coherent_and_accumulates() {
    let (engine, network, traffic, detector) = scenario();
    let runtime = Arc::new(
        ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector)
                .with_shards(2)
                .with_queue_depth(4),
        )
        .expect("runtime starts"),
    );
    let server = WireServer::start(runtime.clone(), WireServerConfig::tcp("127.0.0.1:0"))
        .expect("server binds");
    let addr = server.tcp_addr().expect("tcp bound");
    let mut load = WireClient::connect_tcp(addr).expect("load client connects");
    // The stats query rides its own connection so it never races the load
    // client's pipelined receipts.
    let mut probe = WireClient::connect_tcp(addr).expect("probe client connects");

    let mut nodes = Vec::new();
    let mut rows = lad::net::ObservationBatch::new(engine.knowledge().group_count());
    let mut round = 0u64;
    for pass in 0..6u64 {
        for _ in 0..8 {
            traffic.round_rows(&network, round % 8, &mut nodes, &mut rows);
            load.send_rows_nowait(round, &nodes, &rows)
                .expect("batch ships");
            round += 1;
        }
        // Mid-flight probe: the load connection still has unacknowledged
        // batches in the pipeline while this runs.
        let stats =
            ServeStats::from_json(&probe.query_stats().expect("stats reply")).expect("stats parse");
        assert!(
            stats.counters.submitted >= stats.counters.processed,
            "pass {pass}: submitted {} < processed {}",
            stats.counters.submitted,
            stats.counters.processed
        );
        assert!(stats.telemetry.enabled);
        assert_eq!(stats.telemetry.shard_queue_depth.len(), 2);
        let hit_rate = stats.counters.mu_cache_hit_rate();
        assert!((0.0..=1.0).contains(&hit_rate));
    }
    while load.in_flight() > 0 {
        let receipt = load.recv_delivery().expect("receipt arrives");
        assert!(matches!(receipt.status, DeliveryStatus::Accepted));
    }
    runtime.sync();

    // Quiescent: every batch folded, and the fold shows the whole pipeline
    // was timed — decode and gate on the front registry, queue-wait /
    // score / detector-update on the shards.
    let stats =
        ServeStats::from_json(&probe.query_stats().expect("stats reply")).expect("stats parse");
    assert_eq!(stats.counters.submitted, stats.counters.processed);
    for stage in [
        Stage::Decode,
        Stage::Gate,
        Stage::QueueWait,
        Stage::Score,
        Stage::DetectorUpdate,
    ] {
        let s = stats.telemetry.stage(stage);
        assert!(s.count > 0, "{} recorded no spans", stage.name());
        assert!(s.p50_nanos <= s.p95_nanos && s.p95_nanos <= s.p99_nanos);
        assert!(s.min_nanos <= s.p50_nanos && s.p99_nanos <= s.max_nanos);
    }
    // Batches were submitted through the gate on the wire path, so the
    // decode count matches the gate count exactly (one span per batch).
    assert_eq!(
        stats.telemetry.stage(Stage::Gate).count,
        stats.counters.batches
    );

    server.shutdown();
    let runtime = Arc::into_inner(runtime).expect("server released its runtime handle");
    let report = runtime.shutdown();
    assert_eq!(report.counters.decode_errors, 0);
}

#[test]
fn health_frames_answer_in_both_formats_over_the_wire() {
    let (engine, network, traffic, detector) = scenario();
    let streams = traffic.score_streams(&network, &engine, MetricKind::Diff, 0..8);
    let baseline =
        DriftBaseline::capture(MetricKind::Diff, 0.01, streams.iter().map(Vec::as_slice));
    let runtime = Arc::new(
        ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector)
                .with_shards(2)
                .with_drift_monitor(DriftMonitorConfig::new(baseline, 0.5)),
        )
        .expect("runtime starts"),
    );
    let server = WireServer::start(runtime.clone(), WireServerConfig::tcp("127.0.0.1:0"))
        .expect("server binds");
    let mut client =
        WireClient::connect_tcp(server.tcp_addr().expect("tcp bound")).expect("client connects");

    let mut nodes = Vec::new();
    let mut rows = lad::net::ObservationBatch::new(engine.knowledge().group_count());
    for round in 0..4u64 {
        traffic.round_rows(&network, round, &mut nodes, &mut rows);
        let receipt = client.send_rows(round, &nodes, &rows).expect("receipt");
        assert!(matches!(receipt.status, DeliveryStatus::Accepted));
    }
    runtime.sync();

    // Report format: a JSON HealthReport, parseable with the same serde
    // shape the stats embed. Serving the frame refreshes the drift fold,
    // so the verdict reflects the traffic that just flowed.
    let body = client
        .query_health(HealthFormat::Report)
        .expect("health reply");
    let report: HealthReport =
        serde_json::from_str(&String::from_utf8(body).expect("utf-8 health body"))
            .expect("health report parses");
    assert_eq!(
        report.status,
        HealthStatus::Healthy,
        "clean traffic at a generous tolerance"
    );

    // Prometheus format: the full exposition, scrape-ready. Spot-check
    // the families against a directly rendered snapshot.
    let scrape = client.scrape_prometheus().expect("scrape arrives");
    for family in [
        "# TYPE lad_reports_processed_total counter",
        "lad_stats_version",
        "lad_drift_monitor_enabled 1",
        "lad_health_status 0",
        "lad_drift_ks",
    ] {
        assert!(scrape.contains(family), "scrape missing {family:?}");
    }
    let direct = render_prometheus(&runtime.stats());
    assert!(direct.contains("lad_reports_processed_total"));

    // The drift fold ran at least twice (once per health frame).
    let stats = runtime.stats();
    assert!(stats.drift.enabled);
    assert!(stats.drift.clean_scores > 0, "clean scores must accumulate");

    server.shutdown();
    let runtime = Arc::into_inner(runtime).expect("server released its runtime handle");
    runtime.shutdown();
}

#[test]
fn shed_floods_sample_their_events_instead_of_recording_every_nack() {
    let (engine, network, traffic, detector) = scenario();
    let runtime = Arc::new(
        ServeRuntime::start(engine.clone(), ServeConfig::new(MetricKind::Diff, detector))
            .expect("runtime starts"),
    );
    // shed_depth 0: every batch is NACKed Overloaded — a flood of 50
    // batches on one connection is 50 shed decisions.
    let server = WireServer::start(
        runtime.clone(),
        WireServerConfig::tcp("127.0.0.1:0")
            .with_policy(OverloadPolicy::default().with_shed_depth(0)),
    )
    .expect("server binds");
    let mut client =
        WireClient::connect_tcp(server.tcp_addr().expect("tcp bound")).expect("client connects");

    let mut nodes = Vec::new();
    let mut rows = lad::net::ObservationBatch::new(engine.knowledge().group_count());
    let floods = 50u64;
    for round in 0..floods {
        traffic.round_rows(&network, round % 8, &mut nodes, &mut rows);
        let receipt = client.send_rows(round, &nodes, &rows).expect("receipt");
        assert!(matches!(receipt.status, DeliveryStatus::Shed { .. }));
    }

    // Sampled: the first shed on the connection is recorded, then every
    // 16th — the other 46 are one relaxed counter add each (no event
    // alloc, no ring lock) so a NACK flood cannot make telemetry the
    // bottleneck, and the ring keeps room for rarer events.
    let stats = runtime.stats();
    let shed_events = stats
        .telemetry
        .events
        .iter()
        .filter(|e| e.kind == EventKind::Shed)
        .count() as u64;
    assert_eq!(shed_events, floods.div_ceil(16), "1 + every 16th recorded");
    assert_eq!(stats.telemetry.events_sampled_out, floods - shed_events);
    assert_eq!(stats.counters.shed, floods * nodes.len() as u64);
    // The sampled-out tally is first-class in the export.
    assert!(render_prometheus(&stats).contains("lad_events_sampled_out_total"));

    server.shutdown();
    let runtime = Arc::into_inner(runtime).expect("server released its runtime handle");
    runtime.shutdown();
}

#[test]
fn disabled_telemetry_still_answers_the_stats_frame() {
    let (engine, network, traffic, detector) = scenario();
    let runtime = Arc::new(
        ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector)
                .with_shards(1)
                .with_telemetry(false),
        )
        .expect("runtime starts"),
    );
    let server = WireServer::start(runtime.clone(), WireServerConfig::tcp("127.0.0.1:0"))
        .expect("server binds");
    let mut client =
        WireClient::connect_tcp(server.tcp_addr().expect("tcp bound")).expect("client connects");

    let mut nodes = Vec::new();
    let mut rows = lad::net::ObservationBatch::new(engine.knowledge().group_count());
    for round in 0..4u64 {
        traffic.round_rows(&network, round, &mut nodes, &mut rows);
        let receipt = client.send_rows(round, &nodes, &rows).expect("receipt");
        assert!(matches!(receipt.status, DeliveryStatus::Accepted));
    }
    runtime.sync();

    // Counters still work (they are pipeline accounting, not telemetry);
    // the telemetry fold is present but dark.
    let stats =
        ServeStats::from_json(&client.query_stats().expect("stats reply")).expect("stats parse");
    assert_eq!(stats.counters.submitted, stats.counters.processed);
    assert!(stats.counters.processed > 0);
    assert!(!stats.telemetry.enabled);
    assert!(stats.telemetry.stages.iter().all(|s| s.count == 0));
    assert!(stats.telemetry.events.is_empty());

    server.shutdown();
    let runtime = Arc::into_inner(runtime).expect("server released its runtime handle");
    runtime.shutdown();
}

#[test]
fn batches_folded_by_sync_record_the_same_telemetry_as_worker_folds() {
    // Paced rounds: after each submit the caller syncs right away, so most
    // batches are folded on the syncing thread rather than by a worker
    // that is still waking up. Whichever thread folds a batch must record
    // its queue wait, score and detector-update spans and move the
    // fold-time queue-depth gauge: one sample per folded batch.
    let (engine, network, traffic, detector) = scenario();
    let shards = 2;
    let runtime = ServeRuntime::start(
        engine.clone(),
        ServeConfig::new(MetricKind::Diff, detector)
            .with_shards(shards)
            .with_queue_depth(4),
    )
    .expect("runtime starts");
    let mut nodes = Vec::new();
    let mut rows = lad::net::ObservationBatch::new(engine.knowledge().group_count());
    let mut folded = 0u64;
    for round in 0..24u64 {
        std::thread::sleep(std::time::Duration::from_micros(500));
        traffic.round_rows(&network, round % 8, &mut nodes, &mut rows);
        runtime.submit_rows(round, &nodes, &rows);
        runtime.sync();
        // One batch per shard that received at least one report.
        folded += (0..shards)
            .filter(|&s| nodes.iter().any(|&n| lad::serve::shard_of(n, shards) == s))
            .count() as u64;
    }
    let stats = runtime.stats();
    assert_eq!(stats.counters.submitted, stats.counters.processed);
    for stage in [Stage::QueueWait, Stage::Score, Stage::DetectorUpdate] {
        assert_eq!(
            stats.telemetry.stage(stage).count,
            folded,
            "{} samples vs batches folded",
            stage.name()
        );
    }
    // Every submitted batch has been folded, so each shard's last fold
    // left its gauge at zero.
    assert_eq!(stats.telemetry.shard_queue_depth, vec![0; shards]);
    runtime.shutdown();
}
