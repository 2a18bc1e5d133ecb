//! Folding on the waiting thread must not change a single decision.
//!
//! A shard's queued batches are folded by its worker thread or by
//! whichever thread calls `sync`, `snapshot`, `refresh_drift` or
//! `drain_alarms` first. Batches are popped and folded under the shard's
//! state lock, so each shard folds its batches in FIFO order no matter
//! which thread does it. These tests race two submitters (disjoint node
//! sets, each in round order) against a third thread that keeps calling
//! those entry points mid-stream, and pin every node's alarm stream —
//! round, score, statistic and claimed estimate, bit for bit and in order
//! — and every final detector state to an offline replay, at 1 and 3
//! shards and queue depths 1 and 4. Every mid-stream snapshot must hold,
//! for each node, a state the offline replay passes through.

use lad::net::ObservationBatch;
use lad::prelude::*;
use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

const ROUNDS: u64 = 24;

/// An alarm's fields as bits: round, score, statistic, estimate x and y.
type AlarmBits = (u64, u64, u64, u64, u64);

fn alarm_bits(alarm: &Alarm) -> AlarmBits {
    (
        alarm.round,
        alarm.score.to_bits(),
        alarm.statistic.to_bits(),
        alarm.estimate.x.to_bits(),
        alarm.estimate.y.to_bits(),
    )
}

fn state_bits(state: &SequentialState) -> (u64, u64, u64) {
    (state.statistic.to_bits(), state.recent, state.rounds)
}

struct Scenario {
    engine: Arc<LadEngine>,
    detector: SequentialDetector,
    baseline: DriftBaseline,
    /// Each submitter's rounds: even node ids go to the first, odd ids to
    /// the second.
    halves: [Vec<(Vec<NodeId>, ObservationBatch)>; 2],
    /// Every round's full batch, in submission order.
    rounds: Vec<(Vec<NodeId>, ObservationBatch)>,
}

fn scenario() -> Scenario {
    let engine = Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("engine builds"),
    );
    let network = Network::generate(engine.knowledge().clone(), 0x4E1F);
    let nodes: Vec<NodeId> = (0..96u32).map(|i| NodeId(i * 5)).collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, 0xC0DE);
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
    let streams = clean.score_streams(&network, &engine, MetricKind::Diff, 0..12);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let baseline =
        DriftBaseline::capture(MetricKind::Diff, 0.01, streams.iter().map(Vec::as_slice));
    let groups = engine.knowledge().group_count();
    let mut rounds = Vec::new();
    let mut halves = [Vec::new(), Vec::new()];
    for round in 0..ROUNDS {
        let mut nodes = Vec::new();
        let mut rows = ObservationBatch::new(groups);
        traffic.round_rows(&network, round, &mut nodes, &mut rows);
        let mut split = [
            (Vec::new(), ObservationBatch::new(groups)),
            (Vec::new(), ObservationBatch::new(groups)),
        ];
        for (i, node) in nodes.iter().enumerate() {
            let (half_nodes, half_rows) = &mut split[(node.0 % 2) as usize];
            half_nodes.push(*node);
            half_rows.push_row(&rows, i);
        }
        let [even, odd] = split;
        halves[0].push(even);
        halves[1].push(odd);
        rounds.push((nodes, rows));
    }
    Scenario {
        engine,
        detector,
        baseline,
        halves,
        rounds,
    }
}

/// The offline replay: each node's alarm stream in round order, each
/// node's state after every round, and the final states sorted by node.
struct Offline {
    alarms: HashMap<u32, Vec<AlarmBits>>,
    trajectories: HashMap<u32, Vec<(u64, u64, u64)>>,
    final_states: Vec<(u32, (u64, u64, u64))>,
}

fn offline(s: &Scenario) -> Offline {
    let width = s.engine.metrics().len();
    let column = s
        .engine
        .metric_index(MetricKind::Diff)
        .expect("Diff scored");
    let mut states: HashMap<u32, SequentialState> = HashMap::new();
    let mut alarms: HashMap<u32, Vec<AlarmBits>> = HashMap::new();
    let mut trajectories: HashMap<u32, Vec<(u64, u64, u64)>> = HashMap::new();
    let mut scores = Vec::new();
    for (round, (nodes, rows)) in s.rounds.iter().enumerate() {
        s.engine.score_rows_into(rows, &mut scores);
        for (i, (node, row)) in nodes.iter().zip(scores.chunks_exact(width)).enumerate() {
            let score = row[column];
            let state = states
                .entry(node.0)
                .or_insert_with(|| s.detector.initial_state());
            let trajectory = trajectories
                .entry(node.0)
                .or_insert_with(|| vec![state_bits(&s.detector.initial_state())]);
            if s.detector.update(state, score) {
                let alarm = Alarm {
                    node: *node,
                    round: round as u64,
                    score,
                    statistic: s.detector.statistic(state),
                    estimate: rows.estimate(i),
                };
                alarms.entry(node.0).or_default().push(alarm_bits(&alarm));
                s.detector.reset(state);
            }
            trajectory.push(state_bits(state));
        }
    }
    let mut final_states: Vec<(u32, (u64, u64, u64))> = states
        .iter()
        .map(|(&node, state)| (node, state_bits(state)))
        .collect();
    final_states.sort_unstable();
    Offline {
        alarms,
        trajectories,
        final_states,
    }
}

fn run(s: &Scenario, expected: &Offline, shards: usize, queue_depth: usize) {
    let runtime = ServeRuntime::start(
        s.engine.clone(),
        ServeConfig::new(MetricKind::Diff, s.detector)
            .with_shards(shards)
            .with_queue_depth(queue_depth)
            .with_drift_monitor(DriftMonitorConfig::new(s.baseline.clone(), 0.9)),
    )
    .expect("runtime starts");
    let done = AtomicBool::new(false);
    // Helper calls completed so far. Each submitter waits for at least one
    // more before its next round, so the calls land mid-stream however
    // the threads are scheduled.
    let steps = AtomicU64::new(0);
    let (drained, snapshots) = std::thread::scope(|scope| {
        let submitters: Vec<_> = s
            .halves
            .iter()
            .map(|half| {
                let (runtime, steps) = (&runtime, &steps);
                scope.spawn(move || {
                    for (round, (nodes, rows)) in half.iter().enumerate() {
                        let seen = steps.load(Ordering::Acquire);
                        runtime.submit_rows(round as u64, nodes, rows);
                        while steps.load(Ordering::Acquire) == seen {
                            std::thread::yield_now();
                        }
                    }
                })
            })
            .collect();
        let helper = scope.spawn(|| {
            let mut drained = Vec::new();
            let mut snapshots = Vec::new();
            while !done.load(Ordering::Acquire) {
                match steps.load(Ordering::Relaxed) % 4 {
                    0 => runtime.sync(),
                    1 => snapshots.push(runtime.snapshot()),
                    2 => {
                        runtime.refresh_drift();
                    }
                    _ => drained.extend(runtime.drain_alarms()),
                }
                steps.fetch_add(1, Ordering::Release);
            }
            (drained, snapshots)
        });
        for submitter in submitters {
            submitter.join().expect("submitter finishes");
        }
        done.store(true, Ordering::Release);
        helper.join().expect("helper finishes")
    });
    let label = format!("{shards} shards, queue depth {queue_depth}");

    // The helper's drains came first, so concatenating them with the final
    // drain keeps the stream's order.
    let mut alarms: HashMap<u32, Vec<AlarmBits>> = HashMap::new();
    for alarm in drained.iter().chain(&runtime.drain_alarms()) {
        alarms
            .entry(alarm.node.0)
            .or_default()
            .push(alarm_bits(alarm));
    }
    assert!(!alarms.is_empty(), "{label}: the attack must alarm");
    assert_eq!(alarms, expected.alarms, "{label}: per-node alarm streams");

    for snapshot in &snapshots {
        for entry in &snapshot.states {
            assert!(
                expected.trajectories[&entry.node].contains(&state_bits(&entry.state)),
                "{label}: node {} was snapshotted in a state the replay never reaches",
                entry.node
            );
        }
    }

    let report = runtime.shutdown();
    assert_eq!(report.counters.submitted, report.counters.processed);
    assert_eq!(
        report.counters.submitted,
        s.rounds
            .iter()
            .map(|(nodes, _)| nodes.len() as u64)
            .sum::<u64>()
    );
    let final_states: Vec<(u32, (u64, u64, u64))> = report
        .snapshot
        .states
        .iter()
        .map(|entry| (entry.node, state_bits(&entry.state)))
        .collect();
    assert_eq!(
        final_states, expected.final_states,
        "{label}: final detector states"
    );
}

#[test]
fn concurrent_helpers_keep_every_node_stream_bit_identical() {
    let s = scenario();
    let expected = offline(&s);
    for shards in [1usize, 3] {
        for queue_depth in [1usize, 4] {
            run(&s, &expected, shards, queue_depth);
        }
    }
}
