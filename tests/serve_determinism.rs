//! Shard-count determinism of the serving runtime: for a fixed seed and
//! traffic timeline, the *set* of `(node, round)` alarms — and the final
//! per-node detector states — are identical at 1, 2 and 8 shards. Routing
//! is a pure function of the node id and every node's rounds reach its
//! shard in submission order, so parallelism must never change a decision.
//! With the response loop closed (journal → suspicion → revoke/quarantine
//! → filter → traffic feedback), the *revocation* decisions must be just
//! as shard-invariant, and the full per-node alarm sequences — scores,
//! statistics and claimed estimates included — must match bit for bit
//! once the drained stream is sorted by `(node, round)`.
//!
//! Shard counts compared with each other cannot catch a wrong
//! metric → column mapping on the shard's single-column kernel, so the
//! served alarms are also pinned to an offline oracle built from the
//! all-metrics fused pass, for every decision metric.

use lad::net::ObservationBatch;
use lad::prelude::*;
use lad::wire::{encode_batch, FramePoll, WireDecoder, WireFrame};
use std::collections::HashMap;
use std::sync::Arc;

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

fn run_trace(
    engine: &Arc<LadEngine>,
    network: &Network,
    traffic: &TrafficModel,
    detector: SequentialDetector,
    shards: usize,
    rounds: u64,
) -> (Vec<(u32, u64)>, ServeSnapshot) {
    run_trace_cached(
        engine,
        network,
        traffic,
        detector,
        shards,
        rounds,
        ServeConfig::new(MetricKind::Diff, detector).mu_cache_capacity,
    )
}

#[allow(clippy::too_many_arguments)]
fn run_trace_cached(
    engine: &Arc<LadEngine>,
    network: &Network,
    traffic: &TrafficModel,
    detector: SequentialDetector,
    shards: usize,
    rounds: u64,
    mu_cache_capacity: usize,
) -> (Vec<(u32, u64)>, ServeSnapshot) {
    let runtime = ServeRuntime::start(
        engine.clone(),
        ServeConfig::new(MetricKind::Diff, detector)
            .with_shards(shards)
            .with_mu_cache_capacity(mu_cache_capacity),
    )
    .expect("runtime starts");
    for round in 0..rounds {
        runtime.submit_batch(round, traffic.round(network, round));
    }
    let mut alarms: Vec<(u32, u64)> = runtime
        .drain_alarms()
        .into_iter()
        .map(|a| (a.node.0, a.round))
        .collect();
    alarms.sort_unstable();
    let report = runtime.shutdown();
    assert_eq!(report.counters.submitted, report.counters.processed);
    // Cache telemetry accounting: with memoization on, every report is
    // exactly one cache lookup; with it off, the counters stay 0.
    let lookups = report.counters.mu_cache_hits + report.counters.mu_cache_misses;
    if mu_cache_capacity == 0 {
        assert_eq!(lookups, 0, "disabled cache must record no lookups");
    } else {
        assert_eq!(
            lookups, report.counters.processed,
            "one cache lookup per processed report"
        );
    }
    (alarms, report.snapshot)
}

#[test]
fn alarm_sets_and_final_states_are_identical_at_1_2_and_8_shards() {
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xD37);
    let nodes: Vec<NodeId> = (0..64u32).map(|i| NodeId(i * 9)).collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, 0xFACADE);
    let traffic = clean.with_attack(
        AttackTimeline::Intermittent {
            at: 8,
            period: 6,
            active: 3,
        },
        AttackConfig {
            degree_of_damage: 150.0,
            compromised_fraction: 0.2,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        },
        0.4,
    );
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..16);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let rounds = 24;

    let (alarms_1, snapshot_1) = run_trace(&engine, &network, &traffic, detector, 1, rounds);
    assert!(
        alarms_1.iter().any(|&(_, round)| round >= 8),
        "the intermittent attack must produce alarms"
    );
    for shards in [2usize, 8] {
        let (alarms_n, snapshot_n) =
            run_trace(&engine, &network, &traffic, detector, shards, rounds);
        assert_eq!(
            alarms_1, alarms_n,
            "alarm set differs between 1 and {shards} shards"
        );
        assert_eq!(
            snapshot_1.states, snapshot_n.states,
            "final detector states differ between 1 and {shards} shards"
        );
        assert_eq!(snapshot_1.last_round, snapshot_n.last_round);
    }

    // And the whole thing is reproducible from the seed: a second 2-shard
    // run of the same trace is bit-identical.
    let (again, snapshot_again) = run_trace(&engine, &network, &traffic, detector, 2, rounds);
    assert_eq!(alarms_1, again);
    assert_eq!(snapshot_1.states, snapshot_again.states);
}

/// One round of reports as flat CSR rows.
type Round = (u64, Vec<NodeId>, ObservationBatch);

/// The offline oracle: the full-width fused pass (`score_rows_into`), the
/// decision metric's column of it, and one detector state per node, reset
/// on alarm like the runtime's default. Sorted `(node, round, score bits)`.
fn oracle_alarms(
    engine: &LadEngine,
    metric: MetricKind,
    detector: SequentialDetector,
    rounds: &[Round],
) -> Vec<(u32, u64, u64)> {
    let width = engine.metrics().len();
    let column = engine.metric_index(metric).expect("metric configured");
    let mut states: HashMap<u32, SequentialState> = HashMap::new();
    let mut scores = Vec::new();
    let mut alarms = Vec::new();
    for (round, nodes, rows) in rounds {
        engine.score_rows_into(rows, &mut scores);
        for (node, row) in nodes.iter().zip(scores.chunks_exact(width)) {
            let state = states
                .entry(node.0)
                .or_insert_with(|| detector.initial_state());
            if detector.update(state, row[column]) {
                alarms.push((node.0, *round, row[column].to_bits()));
                detector.reset(state);
            }
        }
    }
    alarms.sort_unstable();
    alarms
}

/// Serves `rounds` through a fresh runtime; sorted `(node, round, score
/// bits)` of every alarm.
fn served_alarms(
    engine: &Arc<LadEngine>,
    config: ServeConfig,
    rounds: &[Round],
) -> Vec<(u32, u64, u64)> {
    let runtime = ServeRuntime::start(engine.clone(), config).expect("runtime starts");
    for (round, nodes, rows) in rounds {
        runtime.submit_rows(*round, nodes, rows);
    }
    let mut alarms: Vec<(u32, u64, u64)> = runtime
        .drain_alarms()
        .into_iter()
        .map(|a| (a.node.0, a.round, a.score.to_bits()))
        .collect();
    alarms.sort_unstable();
    runtime.shutdown();
    alarms
}

#[test]
fn served_alarms_match_the_full_width_offline_oracle_for_every_metric() {
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xD3C);
    let nodes: Vec<NodeId> = (0..64u32).map(|i| NodeId(i * 9)).collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, 0xFACADE);
    for metric in MetricKind::ALL {
        let traffic = clean.with_attack(
            AttackTimeline::Onset { at: 6 },
            AttackConfig {
                degree_of_damage: 150.0,
                compromised_fraction: 0.2,
                class: AttackClass::DecBounded,
                targeted_metric: metric,
            },
            0.4,
        );
        let streams = clean.score_streams(&network, &engine, metric, 0..16);
        let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
        let rounds: Vec<Round> = (0..20)
            .map(|round| {
                let mut nodes = Vec::new();
                let mut rows = ObservationBatch::new(engine.knowledge().group_count());
                traffic.round_rows(&network, round, &mut nodes, &mut rows);
                (round, nodes, rows)
            })
            .collect();
        let expected = oracle_alarms(&engine, metric, detector, &rounds);
        assert!(
            !expected.is_empty(),
            "the attack must alarm on {}",
            metric.name()
        );
        let default_capacity = ServeConfig::new(metric, detector).mu_cache_capacity;
        for shards in [1usize, 2, 8] {
            for capacity in [0, default_capacity] {
                let config = ServeConfig::new(metric, detector)
                    .with_shards(shards)
                    .with_mu_cache_capacity(capacity);
                assert_eq!(
                    served_alarms(&engine, config, &rounds),
                    expected,
                    "{} at {shards} shards, µ cache {capacity}",
                    metric.name()
                );
            }
        }
    }
}

#[test]
fn non_finite_and_far_estimates_score_alarm_biased_and_match_offline() {
    // Garbage claims paired with honest observations. None is rejected at
    // the boundary: each decodes, scores as a claim far from every group,
    // and the shard's single-column score equals the fused pass's column.
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xD3D);
    let estimates = [
        Point2::new(f64::NAN, 100.0),
        Point2::new(100.0, f64::NAN),
        Point2::new(f64::INFINITY, 100.0),
        Point2::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        Point2::new(1e300, 1e300),
        Point2::new(-1e300, 50.0),
    ];
    let n = engine.knowledge().group_count();
    // Reporters that hear at least one neighbour: an empty observation
    // claimed nowhere is a perfect (all-zero) match, not an anomaly.
    let nodes: Vec<NodeId> = (0..network.node_count() as u32)
        .map(NodeId)
        .filter(|&node| network.true_observation(node).total() > 0)
        .take(estimates.len())
        .collect();
    let mut sent = ObservationBatch::new(n);
    for (&node, &at) in nodes.iter().zip(&estimates) {
        sent.push(&network.true_observation(node), at);
    }
    let mut frame = Vec::new();
    encode_batch(&mut frame, 0, &nodes, &sent);
    let mut decoder = WireDecoder::new(n);
    assert_eq!(
        decoder.poll_frame(&mut std::io::Cursor::new(&frame)),
        Ok(FramePoll::Frame(WireFrame::Batch { round: 0, rows: 6 }))
    );
    let rows = decoder.batch();

    let mut offline = Vec::new();
    engine.score_rows_into(rows, &mut offline);
    let width = engine.metrics().len();
    // Alarms on every finite score, so each alarm carries its report's
    // served score.
    let always = SequentialDetector::WindowedCount {
        score_threshold: f64::NEG_INFINITY,
        window: 1,
        min_count: 1,
    };
    let prob_floor = -(1e-300f64).ln();
    for metric in MetricKind::ALL {
        let column = engine.metric_index(metric).expect("metric configured");
        for capacity in [0usize, 64] {
            let runtime = ServeRuntime::start(
                engine.clone(),
                ServeConfig::new(metric, always).with_mu_cache_capacity(capacity),
            )
            .expect("runtime starts");
            runtime.submit_rows(0, decoder.nodes(), rows);
            let mut served = runtime.drain_alarms();
            runtime.shutdown();
            served.sort_by_key(|a| a.node.0);
            assert_eq!(served.len(), estimates.len(), "{}", metric.name());
            for (i, alarm) in served.iter().enumerate() {
                let expected = offline[i * width + column];
                assert_eq!(
                    alarm.score.to_bits(),
                    expected.to_bits(),
                    "{} row {i}",
                    metric.name()
                );
                if metric == MetricKind::Probability {
                    assert!((alarm.score - prob_floor).abs() < 1e-9, "{}", alarm.score);
                } else {
                    assert_eq!(alarm.score, rows.row(i).total as f64, "{}", metric.name());
                }
            }
        }
    }
}

#[test]
fn mu_cache_never_changes_alarms_at_any_capacity_or_shard_count() {
    // The µ-memoization cache is keyed on exact estimate bits, so alarm
    // decisions must be identical with the cache off (0), at the default
    // capacity, and at an adversarially tiny capacity (2 — constant
    // eviction churn), at every shard count. This is the serve-level
    // closure of the kernel-level proptests in mu_cache_equality.rs.
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xD39);
    let nodes: Vec<NodeId> = (0..64u32).map(|i| NodeId(i * 9)).collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, 0xFACADE);
    let traffic = clean.with_attack(
        AttackTimeline::Onset { at: 6 },
        AttackConfig {
            degree_of_damage: 150.0,
            compromised_fraction: 0.2,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        },
        0.4,
    );
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..16);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let rounds = 20;

    let (baseline_alarms, baseline_snapshot) =
        run_trace_cached(&engine, &network, &traffic, detector, 1, rounds, 0);
    assert!(
        !baseline_alarms.is_empty(),
        "the attack must alarm for the comparison to mean anything"
    );
    for capacity in [0usize, 2, 8192] {
        for shards in [1usize, 2, 8] {
            let (alarms, snapshot) = run_trace_cached(
                &engine, &network, &traffic, detector, shards, rounds, capacity,
            );
            assert_eq!(
                baseline_alarms, alarms,
                "alarm set differs at capacity {capacity}, {shards} shards"
            );
            assert_eq!(
                baseline_snapshot.states, snapshot.states,
                "final states differ at capacity {capacity}, {shards} shards"
            );
        }
    }
}

#[test]
fn telemetry_never_changes_alarms_or_states() {
    // Telemetry is derived state by construction — never serialized into
    // `ServeSnapshot`, never consulted by a decision — so the alarm set
    // and final detector states must be bit-identical with stage timing
    // on (the default) and off, at every shard count.
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xD3A);
    let nodes: Vec<NodeId> = (0..64u32).map(|i| NodeId(i * 9)).collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, 0xFACADE);
    let traffic = clean.with_attack(
        AttackTimeline::Onset { at: 6 },
        AttackConfig {
            degree_of_damage: 150.0,
            compromised_fraction: 0.2,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        },
        0.4,
    );
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..16);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let rounds = 20;

    let run = |shards: usize, telemetry: bool| {
        let runtime = ServeRuntime::start(
            engine.clone(),
            ServeConfig::new(MetricKind::Diff, detector)
                .with_shards(shards)
                .with_telemetry(telemetry),
        )
        .expect("runtime starts");
        for round in 0..rounds {
            runtime.submit_batch(round, traffic.round(&network, round));
        }
        let mut alarms: Vec<(u32, u64)> = runtime
            .drain_alarms()
            .into_iter()
            .map(|a| (a.node.0, a.round))
            .collect();
        alarms.sort_unstable();
        let stats = runtime.stats();
        assert_eq!(stats.telemetry.enabled, telemetry);
        if telemetry {
            assert!(
                stats.telemetry.stage(Stage::Score).count > 0,
                "enabled telemetry must record scoring spans"
            );
        } else {
            assert!(stats.telemetry.stages.iter().all(|s| s.count == 0));
        }
        (alarms, runtime.shutdown().snapshot)
    };

    let (baseline_alarms, baseline_snapshot) = run(1, false);
    assert!(!baseline_alarms.is_empty(), "the attack must alarm");
    for shards in [1usize, 2, 8] {
        for telemetry in [false, true] {
            let (alarms, snapshot) = run(shards, telemetry);
            assert_eq!(
                baseline_alarms, alarms,
                "alarm set differs at {shards} shards, telemetry={telemetry}"
            );
            assert_eq!(
                baseline_snapshot.states, snapshot.states,
                "final states differ at {shards} shards, telemetry={telemetry}"
            );
        }
    }
}

#[test]
fn drift_monitor_never_changes_alarms_or_states() {
    // The drift monitor is the same kind of derived state as telemetry:
    // shards feed clean scores into side accumulators and `refresh_drift`
    // folds them, but no decision ever reads the verdict. The alarm set
    // and final detector states must be bit-identical with a monitor
    // attached (and actively polled) and without one, at every shard
    // count.
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xD3B);
    let nodes: Vec<NodeId> = (0..64u32).map(|i| NodeId(i * 9)).collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, 0xFACADE);
    let traffic = clean.with_attack(
        AttackTimeline::Onset { at: 6 },
        AttackConfig {
            degree_of_damage: 150.0,
            compromised_fraction: 0.2,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        },
        0.4,
    );
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..16);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let baseline =
        DriftBaseline::capture(MetricKind::Diff, 0.01, streams.iter().map(Vec::as_slice));
    let rounds = 20;

    let run = |shards: usize, monitor: bool| {
        let mut config = ServeConfig::new(MetricKind::Diff, detector)
            .with_shards(shards)
            .with_stats_window(0, 16);
        if monitor {
            config = config.with_drift_monitor(DriftMonitorConfig::new(baseline.clone(), 0.2));
        }
        let runtime = ServeRuntime::start(engine.clone(), config).expect("runtime starts");
        for round in 0..rounds {
            runtime.submit_batch(round, traffic.round(&network, round));
            // Poll the monitor *while* traffic is in flight: the fold
            // message rides the same shard queues as the batches, so this
            // is the racy interleaving that must not perturb anything.
            runtime.refresh_drift();
            runtime.stats();
        }
        let mut alarms: Vec<(u32, u64)> = runtime
            .drain_alarms()
            .into_iter()
            .map(|a| (a.node.0, a.round))
            .collect();
        alarms.sort_unstable();
        let stats = runtime.stats();
        assert_eq!(stats.drift.enabled, monitor);
        if !monitor {
            assert_eq!(stats.drift.evaluations, 0);
        }
        (alarms, runtime.shutdown().snapshot)
    };

    let (baseline_alarms, baseline_snapshot) = run(1, false);
    assert!(!baseline_alarms.is_empty(), "the attack must alarm");
    for shards in [1usize, 2, 8] {
        for monitor in [false, true] {
            let (alarms, snapshot) = run(shards, monitor);
            assert_eq!(
                baseline_alarms, alarms,
                "alarm set differs at {shards} shards, monitor={monitor}"
            );
            assert_eq!(
                baseline_snapshot.states, snapshot.states,
                "final states differ at {shards} shards, monitor={monitor}"
            );
        }
    }
}

/// Runs the full closed loop at a given shard count and returns the
/// complete journalled alarm records sorted by `(node, round)` — every
/// field, not just the key — the final revocation list, and the
/// suppression counter. With `respond`, the loop runs through the
/// production path ([`ResponseController::step`]: drain → telemetry fold →
/// observe → install); without it, the hook stays installed-but-empty and
/// alarms are drained manually.
fn run_closed_loop(
    engine: &Arc<LadEngine>,
    network: &Network,
    traffic: &TrafficModel,
    detector: SequentialDetector,
    shards: usize,
    rounds: u64,
    respond: bool,
) -> (Vec<lad::response::JournalEntry>, RevocationList, u64) {
    use lad::response::{ClusterQuarantine, JournalEntry, ResponseSnapshot};

    let runtime = ServeRuntime::start(
        engine.clone(),
        ServeConfig::new(MetricKind::Diff, detector).with_shards(shards),
    )
    .expect("runtime starts");
    let mut traffic = traffic.clone();
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
    let mut alarms: Vec<JournalEntry> = Vec::new();
    for round in 0..rounds {
        runtime.submit_batch(round, traffic.round(network, round));
        if respond {
            let outcome = controller.step(&runtime, round);
            if !outcome.newly_revoked.is_empty() {
                traffic.revoke_nodes(&outcome.newly_revoked, round + 1);
            }
            for region in &outcome.newly_quarantined {
                let members: Vec<NodeId> = region.nodes.iter().map(|&n| NodeId(n)).collect();
                traffic.notify_quarantine(&members, round);
            }
        } else {
            alarms.extend(runtime.drain_alarms().iter().map(JournalEntry::from));
        }
    }
    let suppressed = runtime.counters().suppressed;
    runtime.shutdown();
    if respond {
        // step() journalled every drained alarm; the journal's capacity
        // exceeds anything this trace fires.
        assert_eq!(controller.journal().evicted(), 0);
        alarms = controller.journal().entries().to_vec();
    }
    alarms.sort_by_key(|a| (a.node, a.round));
    // Round-trip the controller state so the comparison also covers the
    // serialised form (bit-equal f64s survive the JSON path).
    let list = ResponseSnapshot::from_json(&controller.snapshot().to_json())
        .expect("response snapshot round-trips")
        .list;
    (alarms, list, suppressed)
}

#[test]
fn per_node_alarm_order_and_revocations_are_shard_invariant() {
    let engine = engine();
    let network = Network::generate(engine.knowledge().clone(), 0xD38);
    let nodes: Vec<NodeId> = (0..64u32).map(|i| NodeId(i * 9)).collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, 0xFACADE);
    let traffic = clean
        .with_attack(
            AttackTimeline::Onset { at: 6 },
            AttackConfig {
                degree_of_damage: 170.0,
                compromised_fraction: 0.2,
                class: AttackClass::DecBounded,
                targeted_metric: MetricKind::Diff,
            },
            0.3,
        )
        .with_evasion(Evasion::RotateForgery);
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..16);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let rounds = 24;

    for respond in [false, true] {
        let (alarms_1, list_1, suppressed_1) =
            run_closed_loop(&engine, &network, &traffic, detector, 1, rounds, respond);
        assert!(
            !alarms_1.is_empty(),
            "the attack must alarm (respond={respond})"
        );
        if respond {
            assert!(!list_1.revoked.is_empty(), "the loop must revoke attackers");
            assert!(suppressed_1 > 0, "revoked traffic must be suppressed");
        } else {
            assert!(list_1.revoked.is_empty() && suppressed_1 == 0);
        }
        for shards in [2usize, 8] {
            let (alarms_n, list_n, suppressed_n) = run_closed_loop(
                &engine, &network, &traffic, detector, shards, rounds, respond,
            );
            // Full alarm records — score, statistic, claimed estimate —
            // in per-node round order, not just the (node, round) set.
            assert_eq!(
                alarms_1, alarms_n,
                "per-node alarm sequences differ at {shards} shards (respond={respond})"
            );
            assert_eq!(
                list_1, list_n,
                "revocation decisions differ at {shards} shards (respond={respond})"
            );
            assert_eq!(suppressed_1, suppressed_n);
        }
    }
}
