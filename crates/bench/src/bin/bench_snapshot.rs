//! `bench_snapshot` — the perf-trajectory snapshot binary.
//!
//! Runs the headline microbenches in quick mode — the fused scoring
//! kernel (dense vs sparse fill vs memoized cache hit, paper scale
//! and a 4× same-density deployment), sustained serve throughput over a
//! cores-aware shard curve with the µ cache on and off, the
//! response-hook idle overhead (with an asserted bound), the telemetry
//! overhead (serve throughput with stage timing *plus* the windowed
//! series ring *plus* the drift monitor on vs everything off, with an
//! asserted bound), and the end-to-end wire path (TCP loopback through
//! `lad_wire`, plus the shed fraction under a 2× overload, with per-stage
//! latency percentiles from the runtime's telemetry), and the shard
//! kernel's cold-round latency (one paper-scale round scored right after
//! an 8 MiB cache-evicting sweep, beside the same round scored warm), and
//! the paced serve round (`submit_rows` + `sync` of one paper-scale round
//! after the shard has idled for 2.5 ms), and the uncached µ fill (the
//! scalar g(z) map vs the dispatched lane kernel over the same gathered
//! d²), and the serve shard's Diff kernel per report over 4096 distinct
//! rows, cached and uncached, and the wire codec alone (encode and
//! in-memory decode ns per report, frame bytes per report) over the same
//! rows — and writes the numbers to a
//! `BENCH_<pr>.json` at the repo root, so every PR leaves a comparable
//! perf record behind.
//!
//! ```text
//! cargo run --release -p lad_bench --bin bench_snapshot -- \
//!     --out BENCH_<pr>.json [--quick] [--compare BENCH_26.json]
//! ```
//!
//! `--out` is required, so a bare run never overwrites a committed
//! snapshot. The snapshot's `pr` field is the `<pr>` of a `BENCH_<pr>.json`
//! file name, and `null` for any other name (e.g. a CI scratch path).
//! `--quick` shrinks iteration counts for CI; `--compare` prints
//! per-section deltas against a previous snapshot — throughputs, overhead
//! factors, and the per-stage p99 latencies from the wire run — and flags
//! anything that got more than 10% worse, so perf regressions stop hiding
//! between PRs.

use lad_bench::{paper_rounds, PaperRounds};
use lad_core::engine::LadEngine;
use lad_core::expected::rounded_expected;
use lad_core::metrics::{score_all_fused_sparse, ObsScratch};
use lad_core::MetricKind;
use lad_deployment::{DeploymentConfig, DeploymentKnowledge, MuCache, SparseMu};
use lad_geometry::Point2;
use lad_net::{Network, NodeId, ObservationBatch};
use lad_serve::{DriftBaseline, DriftMonitorConfig, ServeConfig, ServeRuntime, TrafficModel};
use lad_stats::SequentialDetector;
use lad_telemetry::StageSummary;
use lad_wire::{
    encode_batch, DeliveryStatus, FramePoll, OverloadPolicy, WireClient, WireDecoder, WireServer,
    WireServerConfig,
};
use serde::{Serialize, Value};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One kernel measurement: the dense per-metric reference vs the sparse
/// fill + fused pass vs the memoized (cache-hit) fused pass, all
/// bit-identical.
#[derive(Debug, Serialize)]
struct KernelScale {
    /// Number of deployment groups `n`.
    groups: usize,
    /// Support size `k` at the probed estimate.
    support: usize,
    /// Full per-request dense reference: µ fill + one dense
    /// [`MetricKind::score`] scan per metric, ns.
    dense_ns_per_score: f64,
    /// Full per-request sparse path: support fill + scalar fused scan, ns.
    sparse_ns_per_score: f64,
    /// Cache-hit µ lookup + fused scan over the slot's arrays in place —
    /// the serve hot path on a repeated estimate, ns.
    cached_ns_per_score: f64,
    /// dense / sparse.
    speedup: f64,
    /// sparse / cached (what memoization buys on a hit).
    cached_vs_scalar: f64,
}

/// Sustained serve throughput at one shard count.
#[derive(Debug, Serialize)]
struct ServeRate {
    shards: usize,
    reports_per_sec: f64,
    /// Shard-side µ-cache hit rate over the run (0.0 when disabled).
    mu_cache_hit_rate: f64,
}

/// The idle-response-hook overhead on the serving hot path: the same
/// single-shard sustained run with a non-empty `ResponseFilter` installed
/// whose revocations/regions never match the traffic (worst case for the
/// per-report check: every report pays the suppression scan and nothing is
/// suppressed).
#[derive(Debug, Serialize)]
struct ResponseOverhead {
    /// Single-shard baseline (no filter installed), reports/s.
    baseline_reports_per_sec: f64,
    /// Single-shard with the idle filter installed, reports/s.
    idle_hook_reports_per_sec: f64,
    /// baseline / idle-hook (1.0x = free).
    overhead_factor: f64,
    /// The bound `overhead_factor` is asserted against in this run.
    asserted_bound: f64,
}

/// The telemetry overhead on the serving hot path: the same single-shard
/// sustained run with stage timing, histograms, queue gauges, the
/// windowed series ring, *and* the score-drift monitor enabled vs
/// everything disabled. The monitor adds one accumulator push per clean
/// score on the shard; the series ring observes only on `stats()` calls,
/// off the hot path — the bound asserts the whole observability stack
/// stays within 10% of the dark runtime.
#[derive(Debug, Serialize)]
struct TelemetryOverhead {
    /// Single-shard with telemetry + series window + drift monitor, reports/s.
    on_reports_per_sec: f64,
    /// Single-shard with `ServeConfig::with_telemetry(false)`, reports/s.
    off_reports_per_sec: f64,
    /// off / on (1.0x = observability is free).
    overhead_factor: f64,
    /// The bound `overhead_factor` is asserted against in this run.
    asserted_bound: f64,
}

/// End-to-end wire ingest (TCP loopback through `lad_wire`, one shard,
/// pipelined client): every report is encoded to a binary frame, crosses
/// a real socket, is decoded/validated once at the boundary, passes the
/// ingest gate, and lands on the same shard queues as the in-process
/// baseline.
#[derive(Debug, Serialize)]
struct WireRate {
    /// Wire path, reports/s.
    reports_per_sec: f64,
    /// Single-shard in-process `submit_rows` baseline on the identical
    /// workload, reports/s.
    in_process_reports_per_sec: f64,
    /// wire / in-process (1.0 = the socket boundary is free).
    wire_vs_in_process: f64,
    /// Fraction of offered reports shed (typed NACKs) when the client
    /// offers at full speed against a rate limit set to half the measured
    /// wire capacity — the ≥2× saturation point.
    shed_fraction_at_2x_overload: f64,
}

/// The serve shard's scoring kernel (`score_rows_seq_one_cached_into`,
/// Diff, default µ-cache capacity) on one paper-scale round of 512
/// reporters whose estimates were all memoized before (a few still miss
/// on set conflicts, as on a serving shard): once right after an 8 MiB
/// sweep of other memory has evicted the cache's lines — what a paced
/// shard sees after idling between rounds — and once more straight after,
/// warm. Each round is first copied, as the shard's handoff does, so the
/// rows themselves are warm in both cases.
#[derive(Debug, Serialize)]
struct ColdRound {
    /// Mean reports per scored round.
    reports_per_round: f64,
    /// Median µs to score a round after the eviction sweep.
    cold_round_p50_us: f64,
    /// Median µs to score the same round again immediately after.
    warm_round_p50_us: f64,
    /// cold / warm.
    cold_vs_warm: f64,
    /// µ-cache hit rate over the timed rounds.
    mu_hit_rate: f64,
}

/// The serve shard's Diff kernel per report over the paper-scale pool
/// (8 rounds × 512 distinct rows), once with every estimate memoized
/// (`score_rows_seq_one_cached_into`, the serving shard's kernel) and once
/// with the µ fill on every row (`score_rows_seq_one_into`). Unlike the
/// `kernel_*_scale` loops, which score one row over and over, the rows
/// differ, so the branch predictor cannot learn one row's shape.
#[derive(Debug, Serialize)]
struct ShardKernel {
    /// Reports per timed pass over the pool.
    reports_per_pass: usize,
    /// Median ns per report of `score_rows_seq_one_cached_into` (Diff,
    /// warm cache).
    cached_ns_per_report: f64,
    /// Median ns per report of `score_rows_seq_one_into` (Diff).
    uncached_ns_per_report: f64,
    /// µ-cache hit rate over the timed cached passes.
    mu_hit_rate: f64,
}

/// The wire codec alone over the same paper-scale pool: `encode_batch`
/// of every round into a reused buffer, then `WireDecoder::poll_frame` of
/// the pool's frames from an in-memory cursor (no socket, no shard). The
/// decoded last round is checked against its source.
#[derive(Debug, Serialize)]
struct WireCodec {
    /// Reports per timed pass over the pool.
    reports_per_pass: usize,
    /// Median ns per report of `encode_batch`.
    encode_ns_per_report: f64,
    /// Median ns per report of `poll_frame` (checksum, validation and
    /// landing included).
    decode_ns_per_report: f64,
    /// Batch frame bytes per report, header included.
    bytes_per_report: f64,
}

/// One paced serve round on a single shard: `submit_rows` + `sync` of a
/// paper-scale round after the shard has idled — the latency a caller that
/// submits a round and waits for its decisions sees.
#[derive(Debug, Serialize)]
struct PacedSync {
    /// Mean reports per timed round.
    reports_per_round: f64,
    /// Idle gap before each timed round, µs.
    idle_gap_us: f64,
    /// Median µs of `submit_rows` + `sync`.
    round_p50_us: f64,
    /// 99th-percentile µs of `submit_rows` + `sync`.
    round_p99_us: f64,
}

/// The uncached µ fill at paper scale, over the 4096 estimates of the
/// paper-scale traffic pool: the whole fill (gather + map), and its map
/// phase alone — d² → µ = m · g(√d²) over each fill's gathered support,
/// as a µ-cache miss runs it (from the gathered d² straight into another
/// buffer) — once through the scalar `eval` loop and once through the
/// dispatched kernel ([`PreparedGz::mu_into`]). Both maps are checked bit
/// for bit against the fill's µ.
///
/// [`PreparedGz::mu_into`]: lad_deployment::PreparedGz::mu_into
#[derive(Debug, Serialize)]
struct MuFill {
    /// Fills per timed pass.
    fills_per_pass: usize,
    /// Mean support size k per fill.
    mean_support_k: f64,
    /// Whether the dispatched kernel ran four AVX2 lanes.
    avx2_lanes: bool,
    /// Median ns per whole fill (`expected_sparse_into`: gather + map).
    fill_ns: f64,
    /// Median ns per fill of the map phase through the scalar `eval` loop.
    map_scalar_ns: f64,
    /// Median ns per fill of the map phase through the dispatched kernel.
    map_dispatched_ns: f64,
    /// map_scalar / map_dispatched.
    map_speedup: f64,
}

/// The whole snapshot (`BENCH_<pr>.json`).
#[derive(Debug, Serialize)]
struct Snapshot {
    /// The PR number taken from a `BENCH_<pr>.json` `--out` name.
    pr: Option<u32>,
    unix_time: u64,
    /// Cores available to this run — the shard-scaling curve only covers
    /// shard counts ≤ this (shards beyond cores time-slice one CPU and
    /// measure the scheduler, not the architecture).
    cores: usize,
    /// Whether this snapshot was taken with `--quick` (shorter windows;
    /// noisier numbers).
    quick: bool,
    kernel_paper_scale: KernelScale,
    kernel_4x_scale: KernelScale,
    serve: Vec<ServeRate>,
    /// Single-shard run with µ memoization disabled — the same workload
    /// as `serve[0]`, isolating what the cache buys end to end.
    serve_uncached_1shard: ServeRate,
    serve_response_idle: ResponseOverhead,
    serve_telemetry: TelemetryOverhead,
    wire: WireRate,
    /// Per-stage latency summaries (count, mean, min/max, p50/p95/p99 in
    /// nanoseconds) folded from the accept-all wire run — the only
    /// measurement here that exercises the whole pipeline (decode → gate
    /// → queue → score → detector → drain) end to end.
    wire_stage_latency: Vec<StageSummary>,
    serve_cold_round: ColdRound,
    serve_paced_sync: PacedSync,
    mu_fill_paper_scale: MuFill,
    shard_kernel: ShardKernel,
    wire_codec: WireCodec,
}

/// Timing knobs: `--quick` shrinks every window so CI finishes in seconds.
#[derive(Clone, Copy)]
struct Effort {
    kernel_warmup: u32,
    kernel_iters: u32,
    serve_passes: usize,
    wire_passes: u64,
    cold_rounds: usize,
    paced_rounds: usize,
    fill_passes: usize,
    shard_passes: usize,
    codec_passes: usize,
}

impl Effort {
    fn full() -> Self {
        Self {
            kernel_warmup: 10_000,
            kernel_iters: 200_000,
            serve_passes: 12,
            wire_passes: 48,
            cold_rounds: 400,
            paced_rounds: 400,
            fill_passes: 200,
            shard_passes: 200,
            codec_passes: 400,
        }
    }

    fn quick() -> Self {
        Self {
            kernel_warmup: 2_000,
            kernel_iters: 20_000,
            serve_passes: 3,
            wire_passes: 8,
            cold_rounds: 64,
            paced_rounds: 100,
            fill_passes: 20,
            shard_passes: 20,
            codec_passes: 40,
        }
    }
}

fn time_ns<F: FnMut() -> f64>(effort: Effort, mut f: F) -> f64 {
    // Warm up, then time enough iterations for a stable mean.
    let mut sink = 0.0;
    for _ in 0..effort.kernel_warmup {
        sink += f();
    }
    let t0 = Instant::now();
    for _ in 0..effort.kernel_iters {
        sink += f();
    }
    black_box(sink);
    t0.elapsed().as_nanos() as f64 / effort.kernel_iters as f64
}

fn kernel_scale(effort: Effort, cfg: &DeploymentConfig, at: Point2, obs_at: Point2) -> KernelScale {
    let knowledge = DeploymentKnowledge::shared(cfg);
    let obs = rounded_expected(&knowledge.expected_observation(obs_at));
    let mut batch = ObservationBatch::new(knowledge.group_count());
    batch.push(&obs, at);
    let mut smu = SparseMu::new();
    knowledge.expected_sparse_into(at, &mut smu);
    let support = smu.len();

    // The dense reference: the sparse fill scattered into a dense µ, then
    // the three per-metric dense scores.
    let mut dense = Vec::new();
    let dense_ns = time_ns(effort, || {
        knowledge.expected_sparse_into(black_box(at), &mut smu);
        smu.to_dense_into(&mut dense);
        MetricKind::ALL
            .iter()
            .map(|kind| kind.score(black_box(&obs), &dense, cfg.group_size))
            .sum::<f64>()
    });
    let mut obs_scratch = ObsScratch::new();
    let sparse_ns = time_ns(effort, || {
        knowledge.expected_sparse_into(black_box(at), &mut smu);
        score_all_fused_sparse(black_box(batch.row(0)), smu.view(), &mut obs_scratch)[0]
    });
    // The memoized hot path: after the first fill every iteration is a
    // cache hit — exactly what a serve shard pays on a repeated estimate.
    let mut cache = MuCache::new(64);
    let cached_ns = time_ns(effort, || {
        let cached = knowledge.expected_sparse_cached(black_box(at), &mut cache);
        score_all_fused_sparse(black_box(batch.row(0)), cached, &mut obs_scratch)[0]
    });
    KernelScale {
        groups: knowledge.group_count(),
        support,
        dense_ns_per_score: dense_ns,
        sparse_ns_per_score: sparse_ns,
        cached_ns_per_score: cached_ns,
        speedup: dense_ns / sparse_ns,
        cached_vs_scalar: sparse_ns / cached_ns,
    }
}

/// The shared serving workload: a calibrated single-metric detector plus
/// 8 pre-built rounds of clean traffic from 512 nodes. Both the in-process
/// and the wire measurements replay exactly these batches; replaying them
/// also makes the workload estimate-repetitive (4096 distinct estimates),
/// which is the regime the µ cache targets.
struct Workload {
    engine: Arc<LadEngine>,
    detector: SequentialDetector,
    /// Drift baseline captured from the same calibration streams as the
    /// detector — lets the telemetry-overhead run enable the monitor.
    baseline: DriftBaseline,
    rounds: Vec<(Vec<NodeId>, ObservationBatch)>,
    reports_per_pass: usize,
}

fn serve_workload() -> Workload {
    let engine = Arc::new(
        LadEngine::builder()
            .deployment(&DeploymentConfig::small_test())
            .metrics(&MetricKind::ALL)
            .score_only()
            .build()
            .expect("engine builds"),
    );
    let network = Network::generate(engine.knowledge().clone(), 0xBE7C);
    let nodes: Vec<NodeId> = (0..512u32).map(NodeId).collect();
    let traffic = TrafficModel::clean(&network, &engine, nodes, 0x7A5E);
    let streams = traffic.score_streams(&network, &engine, MetricKind::Diff, 0..4);
    let detector = SequentialDetector::calibrate_cusum(streams.iter().map(Vec::as_slice), 0.01);
    let baseline =
        DriftBaseline::capture(MetricKind::Diff, 0.01, streams.iter().map(Vec::as_slice));
    let rounds: Vec<(Vec<NodeId>, ObservationBatch)> = (0..8u64)
        .map(|r| {
            let mut nodes = Vec::new();
            let mut rows = ObservationBatch::new(engine.knowledge().group_count());
            traffic.round_rows(&network, r, &mut nodes, &mut rows);
            (nodes, rows)
        })
        .collect();
    let reports_per_pass: usize = rounds.iter().map(|(nodes, _)| nodes.len()).sum();
    Workload {
        engine,
        detector,
        baseline,
        rounds,
        reports_per_pass,
    }
}

fn serve_rate(effort: Effort, shards: usize) -> ServeRate {
    serve_rate_with(effort, shards, false, None, true, false)
}

/// Best-of-`n` wrapper around a serve measurement: single-core boxes see
/// ±20% scheduler interference on one-shot timing windows, so every rate
/// that feeds a ratio (overhead factor, cache win, the headline) is the
/// best of `n` independent runs — the standard unloaded-estimate
/// technique, applied identically to both sides of each ratio.
fn best_of(n: usize, mut run: impl FnMut() -> ServeRate) -> ServeRate {
    let mut best = run();
    for _ in 1..n {
        let candidate = run();
        if candidate.reports_per_sec > best.reports_per_sec {
            best = candidate;
        }
    }
    best
}

/// One sustained in-process serve measurement. `mu_cache_capacity`
/// overrides the [`ServeConfig`] default when given (`Some(0)` disables
/// memoization); `monitored` additionally enables the windowed series
/// ring and the score-drift monitor (the full observability stack).
fn serve_rate_with(
    effort: Effort,
    shards: usize,
    with_idle_hook: bool,
    mu_cache_capacity: Option<usize>,
    telemetry: bool,
    monitored: bool,
) -> ServeRate {
    let Workload {
        engine,
        detector,
        baseline,
        rounds,
        reports_per_pass,
    } = serve_workload();

    let mut config = ServeConfig::new(MetricKind::Diff, detector)
        .with_shards(shards)
        .with_queue_depth(4)
        .with_telemetry(telemetry);
    if monitored {
        // A generous tolerance: the point is to pay the monitor's hot-path
        // cost (one accumulator push per clean score), not to flag drift
        // on the clean benchmark traffic.
        config = config
            .with_drift_monitor(DriftMonitorConfig::new(baseline, 0.9))
            .with_stats_window(0, 64);
    }
    if let Some(capacity) = mu_cache_capacity {
        config = config.with_mu_cache_capacity(capacity);
    }
    let runtime = ServeRuntime::start(engine, config).expect("runtime starts");
    if with_idle_hook {
        runtime.install_response_filter(lad_bench::idle_response_filter());
    }
    let mut round_counter = 0u64;
    // Warm-up pass, then the timed passes.
    for (nodes, rows) in &rounds {
        runtime.submit_rows(round_counter, nodes, rows);
        round_counter += 1;
    }
    runtime.sync();
    let t0 = Instant::now();
    for _ in 0..effort.serve_passes {
        for (nodes, rows) in &rounds {
            runtime.submit_rows(round_counter, nodes, rows);
            round_counter += 1;
        }
    }
    runtime.sync();
    let rate = (reports_per_pass * effort.serve_passes) as f64 / t0.elapsed().as_secs_f64();
    let report = runtime.shutdown();
    assert_eq!(
        report.counters.suppressed, 0,
        "the idle filter must suppress nothing"
    );
    ServeRate {
        shards,
        reports_per_sec: rate,
        mu_cache_hit_rate: report.counters.mu_cache_hit_rate(),
    }
}

/// One end-to-end wire measurement: a single-shard runtime behind a TCP
/// `WireServer`, fed by a pipelined `WireClient` replaying the shared
/// workload for `passes` passes (after one warm-up pass). Returns the
/// accepted-report rate plus the offered/accepted totals so the overload
/// run can derive its shed fraction.
fn wire_run(policy: OverloadPolicy, passes: u64) -> (f64, u64, u64, Vec<StageSummary>) {
    let Workload {
        engine,
        detector,
        rounds,
        ..
    } = serve_workload();
    let runtime = Arc::new(
        ServeRuntime::start(
            engine,
            ServeConfig::new(MetricKind::Diff, detector)
                .with_shards(1)
                .with_queue_depth(4),
        )
        .expect("runtime starts"),
    );
    let server = WireServer::start(
        runtime.clone(),
        WireServerConfig::tcp("127.0.0.1:0").with_policy(policy),
    )
    .expect("server binds");
    let addr = server.tcp_addr().expect("tcp listener bound");
    let mut client = WireClient::connect_tcp(addr).expect("client connects");

    // Warm-up pass (lockstep), then the timed pipelined passes: ship every
    // batch, then drain the receipts. In-flight stays bounded by
    // passes × rounds tiny receipts, so the socket never deadlocks.
    let mut round = 0u64;
    for (nodes, rows) in &rounds {
        client
            .send_rows(round, nodes, rows)
            .expect("warm-up receipt");
        round += 1;
    }
    runtime.sync();
    let mut offered = 0u64;
    let mut accepted = 0u64;
    let t0 = Instant::now();
    for _ in 0..passes {
        for (nodes, rows) in &rounds {
            client
                .send_rows_nowait(round, nodes, rows)
                .expect("batch ships");
            offered += nodes.len() as u64;
            round += 1;
        }
    }
    while client.in_flight() > 0 {
        let receipt = client.recv_delivery().expect("receipt arrives");
        if receipt.status == DeliveryStatus::Accepted {
            accepted += receipt.rows as u64;
        }
    }
    runtime.sync();
    let rate = accepted as f64 / t0.elapsed().as_secs_f64();
    // Fold the per-shard stage histograms while the pipeline state is
    // still warm — this is where BENCH_<pr>.json's percentiles come from.
    let stages = runtime.stats().telemetry.stages;

    server.shutdown();
    let runtime = Arc::into_inner(runtime).expect("server released its runtime handle");
    let report = runtime.shutdown();
    assert_eq!(report.counters.decode_errors, 0, "well-formed frames only");
    assert_eq!(report.counters.processed, report.counters.submitted);
    (rate, accepted, offered, stages)
}

/// Measures [`ColdRound`]: an 8-round pool of clean paper-scale traffic is
/// scored once to memoize its estimates, then each timed repetition
/// sweeps 8 MiB, copies the next round and scores it cold, then warm.
fn serve_cold_round(effort: Effort) -> ColdRound {
    const SWEEP_BYTES: usize = 8 << 20;
    let PaperRounds { engine, rounds, .. } = paper_rounds();
    let rounds: Vec<ObservationBatch> = rounds.into_iter().map(|(_, rows)| rows).collect();
    // `ServeConfig`'s default capacity.
    let mut cache = MuCache::new(16_384);
    let mut scores = Vec::new();
    let mut score_us = |rows: &ObservationBatch, cache: &mut MuCache| {
        scores.resize(rows.len(), 0.0);
        let t0 = Instant::now();
        engine.score_rows_seq_one_cached_into(rows, MetricKind::Diff, cache, &mut scores);
        let us = t0.elapsed().as_nanos() as f64 / 1e3;
        black_box(&scores);
        us
    };
    for rows in &rounds {
        score_us(rows, &mut cache);
    }
    cache.take_stats();
    let mut sweep = vec![0u64; SWEEP_BYTES / 8];
    let (mut cold, mut warm, mut reports) = (Vec::new(), Vec::new(), 0usize);
    for i in 0..effort.cold_rounds {
        // One write per 64-byte line evicts the cache's lines.
        for word in sweep.iter_mut().step_by(8) {
            *word = word.wrapping_add(1);
        }
        black_box(&mut sweep);
        let rows = rounds[i % rounds.len()].clone();
        reports += rows.len();
        cold.push(score_us(&rows, &mut cache));
        warm.push(score_us(&rows, &mut cache));
    }
    let (hits, misses) = cache.take_stats();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (cold, warm) = (median(cold), median(warm));
    ColdRound {
        reports_per_round: reports as f64 / effort.cold_rounds as f64,
        cold_round_p50_us: cold,
        warm_round_p50_us: warm,
        cold_vs_warm: cold / warm,
        mu_hit_rate: hits as f64 / (hits + misses) as f64,
    }
}

/// Measures [`PacedSync`]: a single-shard runtime takes one pass over the
/// paper-scale pool to memoize its estimates, then each timed round idles
/// 2.5 ms and times `submit_rows` + `sync` of the pool's next round.
fn serve_paced_sync(effort: Effort) -> PacedSync {
    const IDLE_GAP: Duration = Duration::from_micros(2500);
    let PaperRounds {
        engine,
        detector,
        rounds,
    } = paper_rounds();
    let runtime = ServeRuntime::start(engine, ServeConfig::new(MetricKind::Diff, detector))
        .expect("runtime starts");
    for (r, (nodes, rows)) in rounds.iter().enumerate() {
        runtime.submit_rows(r as u64, nodes, rows);
    }
    runtime.sync();
    let (mut us, mut reports) = (Vec::with_capacity(effort.paced_rounds), 0usize);
    for i in 0..effort.paced_rounds {
        std::thread::sleep(IDLE_GAP);
        let (nodes, rows) = &rounds[i % rounds.len()];
        let t0 = Instant::now();
        runtime.submit_rows((rounds.len() + i) as u64, nodes, rows);
        runtime.sync();
        us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        reports += nodes.len();
    }
    let report = runtime.shutdown();
    assert_eq!(report.counters.processed, report.counters.submitted);
    us.sort_by(f64::total_cmp);
    PacedSync {
        reports_per_round: reports as f64 / effort.paced_rounds as f64,
        idle_gap_us: IDLE_GAP.as_nanos() as f64 / 1e3,
        round_p50_us: us[us.len() / 2],
        round_p99_us: us[(us.len() * 99 / 100).min(us.len() - 1)],
    }
}

/// Measures [`MuFill`]: each timed pass runs every estimate of the
/// paper-scale pool through the whole fill and through both maps, in an
/// order that alternates between passes; each figure is the median over
/// passes.
fn mu_fill_paper_scale(effort: Effort) -> MuFill {
    let PaperRounds { engine, rounds, .. } = paper_rounds();
    let knowledge = engine.knowledge();
    let points = knowledge.layout().deployment_points();
    let gz = knowledge.gz_table().prepared();
    let m = knowledge.group_size() as f64;
    let estimates: Vec<Point2> = rounds
        .iter()
        .flat_map(|(_, rows)| (0..rows.len()).map(|r| rows.estimate(r)))
        .collect();
    // Each fill's gathered d², in support order, as CSR.
    let (mut d_sq, mut offsets) = (Vec::new(), vec![0]);
    let mut smu = SparseMu::new();
    for &theta in &estimates {
        knowledge.expected_sparse_into(theta, &mut smu);
        d_sq.extend(
            smu.view()
                .groups()
                .iter()
                .map(|&g| points[g as usize].distance_squared(theta)),
        );
        offsets.push(d_sq.len());
    }
    let mut work = vec![0.0; d_sq.len()];
    let map_ns = |map: &dyn Fn(&[f64], &mut [f64]), work: &mut [f64]| {
        let t0 = Instant::now();
        for w in offsets.windows(2) {
            let (a, b) = (w[0], w[1]);
            map(&d_sq[a..b], &mut work[a..b]);
        }
        black_box(&work);
        t0.elapsed().as_nanos() as f64 / estimates.len() as f64
    };
    let scalar = |d_sq: &[f64], mu: &mut [f64]| {
        for (mu, &d_sq) in mu.iter_mut().zip(d_sq) {
            *mu = m * gz.eval(d_sq.sqrt());
        }
    };
    let dispatched = |d_sq: &[f64], mu: &mut [f64]| gz.mu_into(m, d_sq, mu);
    // Both maps must reproduce the fill's µ bit for bit.
    let mut check = vec![0.0; d_sq.len()];
    for (map, name) in [
        (&scalar as &dyn Fn(&[f64], &mut [f64]), "scalar"),
        (&dispatched, "dispatched"),
    ] {
        map_ns(map, &mut check);
        for (r, &theta) in estimates.iter().enumerate() {
            knowledge.expected_sparse_into(theta, &mut smu);
            let got = &check[offsets[r]..offsets[r + 1]];
            assert!(
                got.iter()
                    .zip(smu.view().values())
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                "{name} map differs from the fill at estimate {r}"
            );
        }
    }
    let (mut fill, mut scalar_ns, mut dispatched_ns) = (Vec::new(), Vec::new(), Vec::new());
    for pass in 0..effort.fill_passes {
        let t0 = Instant::now();
        for &theta in &estimates {
            knowledge.expected_sparse_into(black_box(theta), &mut smu);
        }
        fill.push(t0.elapsed().as_nanos() as f64 / estimates.len() as f64);
        if pass % 2 == 0 {
            scalar_ns.push(map_ns(&scalar, &mut work));
            dispatched_ns.push(map_ns(&dispatched, &mut work));
        } else {
            dispatched_ns.push(map_ns(&dispatched, &mut work));
            scalar_ns.push(map_ns(&scalar, &mut work));
        }
    }
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    let (scalar_ns, dispatched_ns) = (median(scalar_ns), median(dispatched_ns));
    MuFill {
        fills_per_pass: estimates.len(),
        mean_support_k: d_sq.len() as f64 / estimates.len() as f64,
        avx2_lanes: lad_deployment::gz::avx2_lanes(),
        fill_ns: median(fill),
        map_scalar_ns: scalar_ns,
        map_dispatched_ns: dispatched_ns,
        map_speedup: scalar_ns / dispatched_ns,
    }
}

/// Measures [`ShardKernel`]: one untimed pass memoizes the pool's
/// estimates, then each timed pass scores every round through both
/// kernels, in an order that alternates between passes; each figure is the
/// median over passes.
fn shard_kernel(effort: Effort) -> ShardKernel {
    let PaperRounds { engine, rounds, .. } = paper_rounds();
    let rounds: Vec<ObservationBatch> = rounds.into_iter().map(|(_, rows)| rows).collect();
    let reports: usize = rounds.iter().map(ObservationBatch::len).sum();
    // `ServeConfig`'s default capacity.
    let mut cache = MuCache::new(16_384);
    let mut scores = Vec::new();
    let mut pass_ns = |cache: Option<&mut MuCache>| {
        let t0 = Instant::now();
        match cache {
            Some(cache) => {
                for rows in &rounds {
                    scores.resize(rows.len(), 0.0);
                    engine.score_rows_seq_one_cached_into(
                        rows,
                        MetricKind::Diff,
                        cache,
                        &mut scores,
                    );
                    black_box(&scores);
                }
            }
            None => {
                for rows in &rounds {
                    scores.resize(rows.len(), 0.0);
                    engine.score_rows_seq_one_into(rows, MetricKind::Diff, &mut scores);
                    black_box(&scores);
                }
            }
        }
        t0.elapsed().as_nanos() as f64 / reports as f64
    };
    pass_ns(Some(&mut cache));
    cache.take_stats();
    let (mut cached, mut uncached) = (Vec::new(), Vec::new());
    for pass in 0..effort.shard_passes {
        if pass % 2 == 0 {
            cached.push(pass_ns(Some(&mut cache)));
            uncached.push(pass_ns(None));
        } else {
            uncached.push(pass_ns(None));
            cached.push(pass_ns(Some(&mut cache)));
        }
    }
    let (hits, misses) = cache.take_stats();
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    ShardKernel {
        reports_per_pass: reports,
        cached_ns_per_report: median(cached),
        uncached_ns_per_report: median(uncached),
        mu_hit_rate: hits as f64 / (hits + misses) as f64,
    }
}

/// Measures [`WireCodec`]: each timed pass encodes every round of the
/// pool, then decodes the pool's frames; each figure is the median over
/// passes.
fn wire_codec(effort: Effort) -> WireCodec {
    let PaperRounds { engine, rounds, .. } = paper_rounds();
    let reports: usize = rounds.iter().map(|(_, rows)| rows.len()).sum();
    let mut frames = Vec::new();
    for (r, (nodes, rows)) in rounds.iter().enumerate() {
        encode_batch(&mut frames, r as u64, nodes, rows);
    }
    let mut frame = Vec::new();
    let mut decoder = WireDecoder::new(engine.knowledge().group_count());
    let (mut encode, mut decode) = (Vec::new(), Vec::new());
    for _ in 0..effort.codec_passes {
        let t0 = Instant::now();
        for (r, (nodes, rows)) in rounds.iter().enumerate() {
            frame.clear();
            encode_batch(&mut frame, r as u64, black_box(nodes), black_box(rows));
            black_box(&frame);
        }
        encode.push(t0.elapsed().as_nanos() as f64 / reports as f64);
        let t0 = Instant::now();
        let mut cursor = std::io::Cursor::new(black_box(frames.as_slice()));
        for _ in &rounds {
            match decoder.poll_frame(&mut cursor) {
                Ok(FramePoll::Frame(_)) => {}
                other => panic!("in-memory frame failed to decode: {other:?}"),
            }
        }
        black_box(decoder.batch());
        decode.push(t0.elapsed().as_nanos() as f64 / reports as f64);
    }
    let (nodes, rows) = rounds.last().expect("the pool has rounds");
    assert!(
        decoder.nodes() == nodes.as_slice() && decoder.batch() == rows,
        "the decoded round differs from its source"
    );
    let median = |mut v: Vec<f64>| {
        v.sort_by(f64::total_cmp);
        v[v.len() / 2]
    };
    WireCodec {
        reports_per_pass: reports,
        encode_ns_per_report: median(encode),
        decode_ns_per_report: median(decode),
        bytes_per_report: frames.len() as f64 / reports as f64,
    }
}

/// A numeric metric extracted from a snapshot for `--compare`: name,
/// value, and whether larger is better (throughput) or worse (ns, ratio).
struct Metric {
    name: String,
    value: f64,
    higher_is_better: bool,
}

impl Metric {
    fn new(name: impl Into<String>, value: f64, higher_is_better: bool) -> Self {
        Metric {
            name: name.into(),
            value,
            higher_is_better,
        }
    }
}

/// The comparable metric set of the *current* snapshot.
fn metrics_of(snap: &Snapshot) -> Vec<Metric> {
    let mut out = vec![
        Metric::new(
            "kernel_paper_scale.dense_ns_per_score",
            snap.kernel_paper_scale.dense_ns_per_score,
            false,
        ),
        Metric::new(
            "kernel_paper_scale.sparse_ns_per_score",
            snap.kernel_paper_scale.sparse_ns_per_score,
            false,
        ),
        Metric::new(
            "kernel_paper_scale.cached_ns_per_score",
            snap.kernel_paper_scale.cached_ns_per_score,
            false,
        ),
        Metric::new(
            "kernel_4x_scale.dense_ns_per_score",
            snap.kernel_4x_scale.dense_ns_per_score,
            false,
        ),
        Metric::new(
            "kernel_4x_scale.sparse_ns_per_score",
            snap.kernel_4x_scale.sparse_ns_per_score,
            false,
        ),
        Metric::new(
            "serve_response_idle.overhead_factor",
            snap.serve_response_idle.overhead_factor,
            false,
        ),
        Metric::new(
            "serve_telemetry.overhead_factor",
            snap.serve_telemetry.overhead_factor,
            false,
        ),
        Metric::new("wire.reports_per_sec", snap.wire.reports_per_sec, true),
        Metric::new(
            "serve_cold_round.cold_round_p50_us",
            snap.serve_cold_round.cold_round_p50_us,
            false,
        ),
        Metric::new(
            "serve_cold_round.warm_round_p50_us",
            snap.serve_cold_round.warm_round_p50_us,
            false,
        ),
        Metric::new(
            "serve_paced_sync.round_p50_us",
            snap.serve_paced_sync.round_p50_us,
            false,
        ),
        Metric::new(
            "serve_paced_sync.round_p99_us",
            snap.serve_paced_sync.round_p99_us,
            false,
        ),
        Metric::new(
            "mu_fill_paper_scale.fill_ns",
            snap.mu_fill_paper_scale.fill_ns,
            false,
        ),
        Metric::new(
            "mu_fill_paper_scale.map_dispatched_ns",
            snap.mu_fill_paper_scale.map_dispatched_ns,
            false,
        ),
        Metric::new(
            "shard_kernel.cached_ns_per_report",
            snap.shard_kernel.cached_ns_per_report,
            false,
        ),
        Metric::new(
            "shard_kernel.uncached_ns_per_report",
            snap.shard_kernel.uncached_ns_per_report,
            false,
        ),
        Metric::new(
            "wire_codec.encode_ns_per_report",
            snap.wire_codec.encode_ns_per_report,
            false,
        ),
        Metric::new(
            "wire_codec.decode_ns_per_report",
            snap.wire_codec.decode_ns_per_report,
            false,
        ),
        Metric::new(
            "wire_codec.bytes_per_report",
            snap.wire_codec.bytes_per_report,
            false,
        ),
    ];
    for rate in &snap.serve {
        // One entry per shard count; the old snapshot is matched by count.
        out.push(Metric::new(
            format!("serve.{}shard.reports_per_sec", rate.shards),
            rate.reports_per_sec,
            true,
        ));
    }
    // Per-stage tail latency from the wire run: a p99 that balloons while
    // the throughput headline holds is exactly the regression the averages
    // hide, so every stage's p99 is compared (lower is better; the old
    // snapshot is matched by stage name).
    for stage in &snap.wire_stage_latency {
        // `{:?}` yields the variant name ("Decode"), which is also how the
        // stage field serializes — so the lookup segment matches the JSON.
        out.push(Metric::new(
            format!("wire_stage_latency.{:?}.p99_nanos", stage.stage),
            stage.p99_nanos as f64,
            false,
        ));
    }
    out
}

/// Looks up a dotted path (`a.b.c`) in a parsed snapshot. The synthetic
/// `serve.<n>shard.*` segments index the `serve` array by its per-entry
/// `shards` field, and a segment hitting any other array indexes it by
/// its per-entry `stage` name — so snapshots from runs with different
/// shard curves or stage sets still align.
fn lookup(old: &Value, path: &str) -> Option<f64> {
    let mut node = old;
    for seg in path.split('.') {
        if let Some(count) = seg.strip_suffix("shard") {
            let want: u64 = count.parse().ok()?;
            node = node
                .as_array()?
                .iter()
                .find(|e| e.get("shards").and_then(Value::as_u64) == Some(want))?;
        } else if let Some(entries) = node.as_array() {
            node = entries
                .iter()
                .find(|e| e.get("stage").and_then(Value::as_str) == Some(seg))?;
        } else if let Some(next) = node.get(seg) {
            node = next;
        } else {
            return None;
        }
    }
    node.as_f64()
}

/// Prints per-section deltas vs a previous `BENCH_N.json` and flags every
/// metric that got >10% worse. Returns the number of flagged regressions.
fn compare_snapshots(old_path: &str, snap: &Snapshot) -> usize {
    let text =
        std::fs::read_to_string(old_path).unwrap_or_else(|e| panic!("--compare {old_path}: {e}"));
    let old = serde_json::parse_value(&text)
        .unwrap_or_else(|e| panic!("--compare {old_path}: parse error {e:?}"));
    match old.get("pr").and_then(Value::as_u64) {
        Some(pr) => println!("== delta vs {old_path} (PR {pr}) =="),
        None => println!("== delta vs {old_path} =="),
    }
    let mut regressions = 0usize;
    for metric in metrics_of(snap) {
        let Some(before) = lookup(&old, &metric.name) else {
            println!("  {:<44} (not in old snapshot)", metric.name);
            continue;
        };
        if before == 0.0 {
            continue;
        }
        let change = metric.value / before - 1.0;
        // "Better" is the metric's good direction; a >10% move the wrong
        // way is flagged as a regression.
        let worse = if metric.higher_is_better {
            -change
        } else {
            change
        };
        let flag = if worse > 0.10 {
            regressions += 1;
            "  ⚠ REGRESSION >10%"
        } else {
            ""
        };
        println!(
            "  {:<44} {:>14.1} -> {:>14.1}  ({:+.1}%){flag}",
            metric.name,
            before,
            metric.value,
            change * 100.0,
        );
    }
    if regressions > 0 {
        println!("  {regressions} metric(s) regressed by more than 10%");
    }
    regressions
}

/// The `<pr>` of a `BENCH_<pr>.json` path's file name, if it has that form.
fn pr_of(path: &str) -> Option<u32> {
    std::path::Path::new(path)
        .file_name()?
        .to_str()?
        .strip_prefix("BENCH_")?
        .strip_suffix(".json")?
        .parse()
        .ok()
}

fn main() {
    let mut out: Option<String> = None;
    let mut quick = false;
    let mut compare: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--out" => out = Some(args.next().expect("--out needs a path")),
            "--quick" => quick = true,
            "--compare" => compare = Some(args.next().expect("--compare needs a path")),
            other => panic!(
                "unknown argument {other} (supported: --out <path>, --quick, --compare <path>)"
            ),
        }
    }
    let out = out.expect("--out <path> is required (e.g. --out BENCH_<pr>.json)");
    let effort = if quick {
        Effort::quick()
    } else {
        Effort::full()
    };
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);

    let paper = DeploymentConfig::paper_default();
    let big = DeploymentConfig {
        area_side: 2000.0,
        grid_cols: 20,
        grid_rows: 20,
        ..paper
    };
    // Cores-aware scaling curve: shard counts beyond the machine's cores
    // time-slice one CPU and measure the scheduler, not the architecture,
    // so they are excluded (BENCH_6's "2 shards < 1 shard" line was a
    // 1-core artifact presented without context).
    let shard_counts: Vec<usize> = [1usize, 2, 4, 8]
        .into_iter()
        .filter(|&s| s <= cores.max(1))
        .collect();
    let serve: Vec<ServeRate> = shard_counts
        .iter()
        .map(|&s| best_of(3, || serve_rate(effort, s)))
        .collect();
    let serve_uncached = best_of(3, || {
        serve_rate_with(effort, 1, false, Some(0), true, false)
    });
    let idle = best_of(3, || serve_rate_with(effort, 1, true, None, true, false));
    // The idle hook must stay near-free: with the single-shard bulk
    // handoff, a non-matching filter costs one suppression scan per
    // report on the submit thread (a 16-id binary search plus two circle
    // checks) and nothing else. The bound is looser under --quick (short
    // windows on a loaded CI box stay scheduler-noisy even best-of-3).
    let idle_bound = if quick { 1.5 } else { 1.25 };
    let overhead_factor = serve[0].reports_per_sec / idle.reports_per_sec;
    assert!(
        overhead_factor < idle_bound,
        "idle response-filter overhead {overhead_factor:.3}x exceeds the {idle_bound}x bound"
    );
    // The observability stack must be near-free on the hot path: per batch
    // the stage timers cost a handful of `Instant::now()` calls (queue-wait
    // stamp + span starts) and a few relaxed atomic adds, and the drift
    // monitor adds one accumulator push per clean score — nothing else per
    // report (the series ring only observes on `stats()` calls, off the hot
    // path). Both sides are measured back to back (minutes-apart windows
    // drift >10% on a shared 1-core box all by themselves) and best-of-5;
    // the bound is looser under --quick for the same scheduler-noise
    // reason as the idle-hook bound above.
    let telemetry_on = best_of(5, || serve_rate_with(effort, 1, false, None, true, true));
    let telemetry_off = best_of(5, || serve_rate_with(effort, 1, false, None, false, false));
    let telemetry_bound = if quick { 1.5 } else { 1.10 };
    let telemetry_factor = telemetry_off.reports_per_sec / telemetry_on.reports_per_sec;
    assert!(
        telemetry_factor < telemetry_bound,
        "telemetry overhead {telemetry_factor:.3}x exceeds the {telemetry_bound}x bound"
    );
    // Longer windows than the in-process runs: the wire path shares the
    // core with its client, so short windows are scheduler-noise-bound.
    let (wire_rps, _, _, wire_stages) = wire_run(OverloadPolicy::default(), effort.wire_passes);
    // Offer at full client speed against a budget of half the measured
    // wire capacity: a ≥2× saturation by construction.
    let burst = serve_workload().reports_per_pass as f64;
    let (_, overload_accepted, overload_offered, _) = wire_run(
        OverloadPolicy::default().with_rate_limit(wire_rps * 0.5, burst),
        effort.wire_passes,
    );
    let in_process = serve[0].reports_per_sec;
    let wire = WireRate {
        reports_per_sec: wire_rps,
        in_process_reports_per_sec: in_process,
        wire_vs_in_process: wire_rps / in_process,
        shed_fraction_at_2x_overload: (overload_offered - overload_accepted) as f64
            / overload_offered as f64,
    };
    let snapshot = Snapshot {
        pr: pr_of(&out),
        unix_time: std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_secs())
            .unwrap_or(0),
        cores,
        quick,
        kernel_paper_scale: kernel_scale(
            effort,
            &paper,
            Point2::new(500.0, 400.0),
            Point2::new(480.0, 410.0),
        ),
        kernel_4x_scale: kernel_scale(
            effort,
            &big,
            Point2::new(980.0, 1110.0),
            Point2::new(1000.0, 1100.0),
        ),
        serve_response_idle: ResponseOverhead {
            baseline_reports_per_sec: serve[0].reports_per_sec,
            idle_hook_reports_per_sec: idle.reports_per_sec,
            overhead_factor,
            asserted_bound: idle_bound,
        },
        serve_telemetry: TelemetryOverhead {
            on_reports_per_sec: telemetry_on.reports_per_sec,
            off_reports_per_sec: telemetry_off.reports_per_sec,
            overhead_factor: telemetry_factor,
            asserted_bound: telemetry_bound,
        },
        serve,
        serve_uncached_1shard: serve_uncached,
        wire,
        wire_stage_latency: wire_stages,
        serve_cold_round: serve_cold_round(effort),
        serve_paced_sync: serve_paced_sync(effort),
        mu_fill_paper_scale: mu_fill_paper_scale(effort),
        shard_kernel: shard_kernel(effort),
        wire_codec: wire_codec(effort),
    };
    let json = serde_json::to_string_pretty(&snapshot).expect("snapshot serialises");
    std::fs::write(&out, format!("{json}\n")).expect("snapshot written");
    println!("{json}");
    println!("wrote {out}");
    if let Some(old_path) = compare {
        // Informational, not a gate: on shared/1-core runners whole-run
        // drift between snapshots routinely exceeds 10% in both
        // directions; the flags make regressions visible in the log.
        compare_snapshots(&old_path, &snapshot);
    }
}
