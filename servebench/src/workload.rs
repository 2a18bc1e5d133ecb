//! The three workloads, their seeded inputs, and the timed set-up.
//!
//! Everything a run feeds the serving stack is generated here from the
//! `--seed` before any timing starts: a paper-scale (§7.1) deployment, a
//! simulated network, a reporter population, clean warm-up rounds for
//! calibration, and the round pool each phase replays. The program under
//! test only ever sees the generated rows.

use lad_attack::{AttackClass, AttackConfig};
use lad_core::engine::LadEngine;
use lad_core::MetricKind;
use lad_deployment::DeploymentConfig;
use lad_net::{Network, NodeId, ObservationBatch};
use lad_response::{
    clean_alarm_rounds, ClusterQuarantine, ResponseConfig, ResponseController, ThresholdRevoke,
};
use lad_serve::{AttackTimeline, ServeConfig, ServeRuntime, ShutdownReport, TrafficModel};
use lad_stats::seeds::{derive_seed, seeded_partial_shuffle};
use lad_stats::SequentialDetector;
use lad_wire::{WireClient, WireServer, WireServerConfig};
use std::ops::Range;
use std::sync::Arc;
use std::time::Instant;

/// The metric whose score drives every node's sequential decision.
pub const METRIC: MetricKind = MetricKind::Diff;
/// Per-round false-alarm target the CUSUM rule is calibrated at.
const TARGET_FAR: f64 = 0.01;
/// Collateral-revocation target the revocation budget is calibrated at.
const TARGET_COLLATERAL: f64 = 0.02;
/// Share of the reporters that turn hostile in `attack_loop`.
const ATTACKER_FRACTION: f64 = 0.08;
/// The §7.1 attack every hostile reporter runs: a consistent forged
/// location at damage D = 160 m, tainting 10% of its heard neighbourhood
/// with the Dec-Bounded strategy against the decision metric.
const ATTACK: AttackConfig = AttackConfig {
    degree_of_damage: 160.0,
    compromised_fraction: 0.1,
    class: AttackClass::DecBounded,
    targeted_metric: METRIC,
};

/// Which serving path a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// `ServeRuntime::submit_rows` in process.
    ReplayInproc,
    /// A pipelined `WireClient` into a `WireServer` over loopback TCP.
    ReplayTcp,
    /// `submit_rows` plus a `ResponseController::step` every
    /// [`STEP_EVERY`](crate::drive::STEP_EVERY) rounds.
    AttackLoop,
}

/// One named workload. The paced rate is part of the definition: it is
/// never derived from a measurement at run time.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub kind: Kind,
    /// Reporter population (one report per reporter per round).
    pub reporters: usize,
    /// Clean rounds the detector (and revocation budget) calibrate on.
    pub warmup_rounds: u64,
    /// Pre-generated rounds the phases replay cyclically.
    pub pool_rounds: usize,
    /// Offered rate of the paced (open-loop) phase, in rounds per second.
    pub paced_rounds_per_s: f64,
}

/// The benchmark's workloads, as named in `BENCHMARK.json`.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "replay_inproc",
        kind: Kind::ReplayInproc,
        reporters: 512,
        warmup_rounds: 24,
        pool_rounds: 8,
        paced_rounds_per_s: 400.0,
    },
    Workload {
        name: "replay_tcp",
        kind: Kind::ReplayTcp,
        reporters: 512,
        warmup_rounds: 24,
        pool_rounds: 8,
        paced_rounds_per_s: 400.0,
    },
    Workload {
        name: "attack_loop",
        kind: Kind::AttackLoop,
        reporters: 512,
        warmup_rounds: 24,
        pool_rounds: 64,
        paced_rounds_per_s: 250.0,
    },
];

impl Workload {
    /// The workload called `name`, if there is one.
    pub fn by_name(name: &str) -> Option<Self> {
        WORKLOADS.iter().copied().find(|w| w.name == name)
    }

    /// The same workload shrunk to a few hundred reports per phase, for
    /// the benchmark's own smoke test.
    pub fn smoke(self) -> Self {
        Self {
            reporters: 48,
            warmup_rounds: 8,
            pool_rounds: if self.kind == Kind::AttackLoop { 8 } else { 3 },
            paced_rounds_per_s: 400.0,
            ..self
        }
    }
}

/// One round of reports: the reporting nodes and their CSR rows.
pub type Round = (Vec<NodeId>, ObservationBatch);

/// A run's generated inputs.
pub struct Inputs {
    /// Clean warm-up rounds, for calibration.
    pub warmup: Vec<Round>,
    /// The round pool the phases replay.
    pub pool: Vec<Round>,
}

impl Inputs {
    /// Reports in one pass over the pool.
    pub fn pool_reports(&self) -> usize {
        self.pool.iter().map(|(nodes, _)| nodes.len()).sum()
    }
}

fn deployment() -> DeploymentConfig {
    DeploymentConfig::paper_default()
}

/// A score-only engine over the paper's §7.1 deployment, scoring all three
/// metrics (the serve shard's fused pass).
fn build_engine() -> LadEngine {
    LadEngine::builder()
        .deployment(&deployment())
        .metrics(&MetricKind::ALL)
        .score_only()
        .build()
        .expect("paper-scale engine builds")
}

/// Generates `w`'s inputs from `seed`. Deterministic: the same seed gives
/// the same rows.
pub fn generate(w: &Workload, seed: u64) -> Inputs {
    let engine = build_engine();
    let network = Network::generate(engine.knowledge().clone(), derive_seed(seed, &[1]));
    let picks = seeded_partial_shuffle(network.node_count(), w.reporters, derive_seed(seed, &[2]));
    let nodes: Vec<NodeId> = picks[..w.reporters].iter().map(|&i| NodeId(i)).collect();
    let clean = TrafficModel::clean(&network, &engine, nodes, derive_seed(seed, &[3]));
    let warmup = rounds(&clean, &network, 0..w.warmup_rounds);
    let live = if w.kind == Kind::AttackLoop {
        clean.with_attack(
            AttackTimeline::Onset {
                at: w.warmup_rounds,
            },
            ATTACK,
            ATTACKER_FRACTION,
        )
    } else {
        clean
    };
    let pool = rounds(
        &live,
        &network,
        w.warmup_rounds..w.warmup_rounds + w.pool_rounds as u64,
    );
    Inputs { warmup, pool }
}

/// Generates `range` of `model`'s rounds on two threads (generation sits
/// outside every timed phase, but the attack pool takes seconds).
fn rounds(model: &TrafficModel, network: &Network, range: Range<u64>) -> Vec<Round> {
    const THREADS: u64 = 2;
    let group_count = network.group_count();
    let mut slots: Vec<Option<Round>> = (range.clone()).map(|_| None).collect();
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..THREADS)
            .map(|t| {
                let range = range.clone();
                scope.spawn(move || {
                    range
                        .filter(|r| r % THREADS == t)
                        .map(|r| {
                            let mut nodes = Vec::new();
                            let mut rows = ObservationBatch::new(group_count);
                            model.round_rows(network, r, &mut nodes, &mut rows);
                            (r, (nodes, rows))
                        })
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        for handle in handles {
            for (r, round) in handle.join().expect("generator thread finishes") {
                slots[(r - range.start) as usize] = Some(round);
            }
        }
    });
    slots
        .into_iter()
        .map(|r| r.expect("every round generated"))
        .collect()
}

/// What calibration produces: the engine, the node decision rule and, for
/// `attack_loop`, the revocation budget.
pub struct Calibrated {
    pub engine: Arc<LadEngine>,
    pub detector: SequentialDetector,
    pub revoke: Option<ThresholdRevoke>,
}

fn response_config() -> ResponseConfig {
    ResponseConfig {
        decay: 0.9,
        ..ResponseConfig::default()
    }
}

impl Calibrated {
    /// Builds the engine and calibrates on the clean warm-up rounds (which
    /// list the same nodes in the same order every round).
    fn new(w: &Workload, warmup: &[Round]) -> Self {
        let engine = Arc::new(build_engine());
        let column = engine.metric_index(METRIC).expect("engine scores METRIC");
        let width = engine.metrics().len();
        let mut streams = vec![Vec::with_capacity(warmup.len()); warmup[0].0.len()];
        let mut scores = Vec::new();
        for (_, rows) in warmup {
            engine.score_rows_into(rows, &mut scores);
            for (stream, row) in streams.iter_mut().zip(scores.chunks_exact(width)) {
                stream.push(row[column]);
            }
        }
        let detector =
            SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), TARGET_FAR);
        let revoke = (w.kind == Kind::AttackLoop).then(|| {
            ThresholdRevoke::calibrate(
                &clean_alarm_rounds(&detector, &streams, true),
                warmup.len() as u64,
                response_config(),
                TARGET_COLLATERAL,
            )
        });
        Self {
            engine,
            detector,
            revoke,
        }
    }

    /// A fresh response controller with the calibrated revocation budget
    /// and a cluster quarantine sized to the deployment's σ. The quarantine
    /// margin is σ/5: at σ, quarantines suppressed 32–42% of the honest
    /// reports depending on the seed, and that share, not the stack, set
    /// the workload's throughput.
    pub fn controller(&self) -> ResponseController {
        let revoke = self
            .revoke
            .expect("attack_loop calibrates a revocation budget");
        let sigma = deployment().sigma;
        ResponseController::new(response_config())
            .with_policy(Box::new(revoke))
            .with_policy(Box::new(ClusterQuarantine {
                link_radius: 1.5 * sigma,
                window: 10,
                min_alarms: 3,
                suspicion_budget: 1.5,
                margin: 0.2 * sigma,
                lift_after: 8,
            }))
    }
}

/// A started serving stack: one single-shard runtime, plus for
/// `replay_tcp` a loopback `WireServer` (default accept-all policy) and one
/// connected client.
pub struct Stack {
    pub runtime: Arc<ServeRuntime>,
    pub wire: Option<(WireServer, WireClient)>,
}

impl Stack {
    pub fn start(w: &Workload, cal: &Calibrated) -> Self {
        let runtime = Arc::new(
            ServeRuntime::start(cal.engine.clone(), ServeConfig::new(METRIC, cal.detector))
                .expect("runtime starts"),
        );
        let wire = (w.kind == Kind::ReplayTcp).then(|| {
            let server = WireServer::start(runtime.clone(), WireServerConfig::tcp("127.0.0.1:0"))
                .expect("wire server binds");
            let addr = server.tcp_addr().expect("tcp listener bound");
            let client = WireClient::connect_tcp(addr).expect("client connects");
            (server, client)
        });
        Self { runtime, wire }
    }

    /// Closes the connection, drains the server, and shuts the runtime down.
    pub fn stop(self) -> ShutdownReport {
        if let Some((server, client)) = self.wire {
            drop(client);
            server.shutdown();
        }
        Arc::into_inner(self.runtime)
            .expect("the server released its runtime handle")
            .shutdown()
    }
}

/// One timed set-up: engine build, calibration and stack start (server
/// bind and client connect included). Returns the set-up and its seconds.
pub fn timed_setup(w: &Workload, inputs: &Inputs) -> (Calibrated, Stack, f64) {
    let t0 = Instant::now();
    let cal = Calibrated::new(w, &inputs.warmup);
    let stack = Stack::start(w, &cal);
    let secs = t0.elapsed().as_secs_f64();
    (cal, stack, secs)
}
