//! The wire front door, end to end: calibrate → serve behind a TCP
//! listener → stream length-prefixed binary batches over a real socket →
//! watch the overload gate shed → drain alarms → clean shutdown.
//!
//! The same scenario as `online_serve`, but every report crosses a real
//! TCP connection as a versioned binary frame: a client encodes each
//! round's CSR batch, the server decodes and validates it once at the
//! boundary, the ingest gate decides accept / shed (rate limit first, then
//! queue depth), and a typed receipt comes back. A final burst at many times the configured rate
//! shows the load-shed path: NACKs with reasons, counters that add up,
//! and a runtime whose queues never collapsed.
//!
//! ```text
//! cargo run --release --example wire_serve            # full demo
//! cargo run --release --example wire_serve -- --smoke # CI-sized
//! cargo run --release --example wire_serve -- --shards 4
//! ```

use lad::net::ObservationBatch;
use lad::prelude::*;
use std::sync::Arc;
use std::time::Instant;

fn main() {
    let mut smoke = false;
    let mut shards = 2usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--smoke" => smoke = true,
            "--shards" => {
                shards = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .expect("--shards needs a number");
            }
            other => {
                eprintln!("unknown argument: {other} (try --smoke, --shards N)");
                std::process::exit(2);
            }
        }
    }
    let (population, warmup, horizon) = if smoke { (64, 16, 24) } else { (256, 40, 60) };
    let serve_from = warmup;
    let onset = serve_from + horizon / 3;

    // Offline: fit the engine, simulate the deployment, calibrate the
    // detector on clean warm-up traffic (identical to `online_serve`).
    let engine = Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("engine builds"),
    );
    let network = Network::generate(engine.knowledge().clone(), 0x1AD);
    let stride = (network.node_count() as u32 / population as u32).max(1);
    let nodes: Vec<NodeId> = (0..population as u32)
        .map(|i| NodeId((i * stride) % network.node_count() as u32))
        .collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, 0xC0FFEE);
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..warmup);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.005);
    println!(
        "calibrated {} on {} clean node-rounds: {detector:?}",
        detector.name(),
        streams.iter().map(Vec::len).sum::<usize>(),
    );
    let traffic = clean.with_attack(
        AttackTimeline::Onset { at: onset },
        AttackConfig {
            degree_of_damage: 140.0,
            compromised_fraction: 0.2,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        },
        0.5,
    );

    // Online: runtime behind the TCP front door. The policy rate-limits
    // each source generously enough for the live cadence but far below the
    // flood at the end.
    let per_round = traffic.nodes().len() as f64;
    let runtime = Arc::new(
        ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector).with_shards(shards),
        )
        .expect("runtime starts"),
    );
    let policy = OverloadPolicy::default().with_rate_limit(
        per_round * 400.0,                  // sustained: ~400 rounds/s of headroom
        per_round * (horizon as f64 + 4.0), // burst: the whole live horizon
    );
    let server = WireServer::start(
        runtime.clone(),
        WireServerConfig::tcp("127.0.0.1:0").with_policy(policy),
    )
    .expect("server binds");
    let addr = server.tcp_addr().expect("tcp listener bound");
    println!("wire server listening on {addr} ({shards} shard(s))");

    // Stream the live horizon through the socket, pipelined.
    let mut client = WireClient::connect_tcp(addr).expect("client connects");
    let rounds: Vec<(u64, Vec<NodeId>, ObservationBatch)> = (serve_from..serve_from + horizon)
        .map(|round| {
            let mut nodes = Vec::new();
            let mut rows = ObservationBatch::new(engine.knowledge().group_count());
            traffic.round_rows(&network, round, &mut nodes, &mut rows);
            (round, nodes, rows)
        })
        .collect();
    let t0 = Instant::now();
    for (round, nodes, rows) in &rounds {
        client
            .send_rows_nowait(*round, nodes, rows)
            .expect("batch ships");
    }
    let mut accepted = 0u64;
    for _ in &rounds {
        let receipt = client.recv_delivery().expect("receipt arrives");
        match receipt.status {
            DeliveryStatus::Accepted => accepted += receipt.rows as u64,
            DeliveryStatus::Shed { reason, .. } => {
                panic!("live traffic unexpectedly shed: {reason:?}")
            }
        }
    }
    let elapsed = t0.elapsed();
    println!(
        "streamed {accepted} reports over {horizon} rounds through {addr} in {elapsed:.1?} \
         ({:.0} reports/s end-to-end)",
        accepted as f64 / elapsed.as_secs_f64(),
    );

    // Flood: re-offer the whole horizon immediately. The burst budget is
    // spent, so the gate sheds — typed NACKs, not latency.
    let mut shed = 0u64;
    let mut flood_accepted = 0u64;
    for (round, nodes, rows) in &rounds {
        let receipt = client.send_rows(*round, nodes, rows).expect("receipt");
        match receipt.status {
            DeliveryStatus::Accepted => flood_accepted += receipt.rows as u64,
            DeliveryStatus::Shed {
                reason: ShedReason::RateLimited,
                ..
            } => shed += receipt.rows as u64,
            DeliveryStatus::Shed { reason, .. } => panic!("unexpected shed reason {reason:?}"),
        }
    }
    println!(
        "flood at ~{}x the sustained rate: {shed} reports shed (rate-limited), \
         {flood_accepted} trickled through",
        rounds.len(),
    );
    assert!(shed > 0, "the flood must exceed the rate budget");

    // Drain alarms, then take both layers down cleanly.
    let alarms = runtime.drain_alarms();
    let pre_onset = alarms.iter().filter(|a| a.round < onset).count();
    let first = alarms
        .iter()
        .filter(|a| a.round >= onset)
        .map(|a| a.round)
        .min();
    println!(
        "{} alarms: {pre_onset} false (before onset at round {onset}), first detection at {:?}",
        alarms.len(),
        first,
    );
    assert!(
        first.is_some(),
        "the D=140 half-population attack must be detected through the wire"
    );

    server.shutdown();
    let runtime = Arc::into_inner(runtime).expect("server released its runtime handle");
    let report = runtime.shutdown();
    println!(
        "clean shutdown: submitted {} / processed {} / shed {} / decode errors {} \
         ({} node states in the final snapshot)",
        report.counters.submitted,
        report.counters.processed,
        report.counters.shed,
        report.counters.decode_errors,
        report.snapshot.states.len(),
    );
    assert_eq!(report.counters.processed, report.counters.submitted);
    assert_eq!(report.counters.shed, shed);
    assert_eq!(report.counters.decode_errors, 0);
}
