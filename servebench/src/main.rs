//! `servebench` — the end-to-end and per-layer benchmark of the LAD serving
//! stack: `lad_wire` → `lad_serve` → `lad_core` / `lad_deployment` /
//! `lad_stats` → `lad_response`, single process, one shard, on the paper's
//! §7.1 deployment.
//!
//! ```text
//! cargo run --release --manifest-path servebench/Cargo.toml -- \
//!     --workload <replay_inproc|replay_tcp|attack_loop> --seed <n> \
//!     --seconds <s> --trace <0|1>
//! cargo run --release --manifest-path servebench/Cargo.toml -- --smoke
//! ```
//!
//! A run generates its inputs from the seed, sets the stack up several
//! times (the median is `setup_s`), then runs a saturate phase and a paced
//! phase of `seconds / 2` each on fresh stacks and checks the outputs.
//! With `--trace 1` it instead runs an untraced and a traced saturate
//! phase, a traced paced phase and the per-layer spans, a quarter of
//! `seconds` each, and reports the per-layer metrics. The last line of
//! standard output is the JSON result; a failed correctness check exits 1.
//! See `servebench/README.md` for every metric and workload.

mod check;
mod drive;
mod layers;
mod report;
mod workload;

use drive::{PhaseOut, Runner, Spans};
use report::{median, quantile, Metric};
use std::time::Duration;
use workload::{Calibrated, Kind, Round, Workload, WORKLOADS};

// On a shared virtual machine the host's other tenants slow this one by
// 1.5x to 3x for seconds to minutes at a time and steal its CPUs for
// milliseconds many times a second. Every timed phase is therefore cut into short windows,
// and each end-to-end figure is an order statistic over windows that
// reads the stack in the host's calm stretches rather than the
// neighbours' duty cycle (see README.md).

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPS: usize = 21;
/// Length of one saturate window.
const RATE_WINDOW: Duration = Duration::from_millis(20);
/// The window-rate quantile reported as `reports_per_s`: the rate the
/// stack sustains over its best 2% of windows.
const RATE_QUANTILE: f64 = 0.98;
/// Paced rounds per latency window.
const LATENCY_WINDOW: usize = 100;
/// The quantile of per-window maxima reported as the paced tail latency.
/// The maximum of 100 rounds estimates their 99.3rd percentile; the tenth
/// percentile over windows drops the windows a host stall landed in.
const TAIL_QUANTILE: f64 = 0.1;

const USAGE: &str = "usage: servebench --workload <replay_inproc|replay_tcp|attack_loop> \
                     --seed <n> --seconds <s> --trace <0|1>\n       servebench --smoke";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        smoke: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, got {other}")),
                }
            }
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() {
    let args = parse_args().unwrap_or_else(|e| {
        eprintln!("servebench: {e}\n{USAGE}");
        std::process::exit(2);
    });
    if args.smoke {
        std::process::exit(smoke());
    }
    let Some(w) = Workload::by_name(&args.workload) else {
        eprintln!("servebench: unknown workload {:?}\n{USAGE}", args.workload);
        std::process::exit(2);
    };
    let outcome = run(&w, args.seed, args.seconds, args.trace, SETUP_REPS);
    for problem in &outcome.problems {
        eprintln!("servebench: CHECK FAILED: {problem}");
    }
    let correct = outcome.problems.is_empty();
    report::print_result(correct, outcome.attempted, outcome.failed, &outcome.metrics);
    if !correct {
        std::process::exit(1);
    }
}

/// Every workload, shrunk, end to end in both modes; returns the exit code.
fn smoke() -> i32 {
    let mut code = 0;
    for w in WORKLOADS {
        for trace in [false, true] {
            println!("smoke: {} trace={}", w.name, trace as u8);
            let outcome = run(&w.smoke(), 7, 0.4, trace, 1);
            report::print_result(
                outcome.problems.is_empty(),
                outcome.attempted,
                outcome.failed,
                &outcome.metrics,
            );
            for problem in &outcome.problems {
                eprintln!("smoke: {} CHECK FAILED: {problem}", w.name);
                code = 1;
            }
        }
    }
    if code == 0 {
        println!("smoke OK");
    }
    code
}

struct Outcome {
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    problems: Vec<String>,
}

/// One saturate phase on a fresh stack.
fn saturate(
    w: &Workload,
    pool: &[Round],
    cal: &Calibrated,
    duration: Duration,
    checkpoint: u64,
    traced: bool,
) -> (PhaseOut, Option<Spans>) {
    let mut runner = Runner::new(w, pool, cal, checkpoint, traced);
    runner.saturate(duration, RATE_WINDOW.min(duration));
    runner.finish()
}

/// One paced phase of `rounds` rounds on a fresh stack.
fn paced(
    w: &Workload,
    pool: &[Round],
    cal: &Calibrated,
    rounds: u64,
    traced: bool,
) -> (PhaseOut, Option<Spans>) {
    let mut runner = Runner::new(w, pool, cal, rounds, traced);
    runner.paced(rounds, w.paced_rounds_per_s);
    runner.finish()
}

/// The `q`-quantile of `values`, or 0 when the layer saw no samples.
fn pct(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        quantile(&mut values.to_vec(), q)
    }
}

/// The paced median and tail latency: the median of per-window medians,
/// and the `TAIL_QUANTILE` of per-window maxima.
fn round_latency(latency_us: &[f64]) -> (f64, f64) {
    let windows: Vec<&[f64]> = latency_us.chunks(LATENCY_WINDOW).collect();
    let medians: Vec<f64> = windows.iter().map(|w| pct(w, 0.5)).collect();
    let maxima: Vec<f64> = windows
        .iter()
        .map(|w| w.iter().copied().fold(0.0, f64::max))
        .collect();
    (pct(&medians, 0.5), pct(&maxima, TAIL_QUANTILE))
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Reports offered and reports failed over `phases`.
fn tally(phases: &[PhaseOut]) -> (u64, u64) {
    (
        phases.iter().map(|p| p.offered).sum(),
        phases.iter().map(check::failed_reports).sum(),
    )
}

/// Runs the correctness gate over `phases`; returns the problems found.
fn gate(w: &Workload, cal: &Calibrated, pool: &[Round], phases: &[PhaseOut]) -> Vec<String> {
    let mut problems = Vec::new();
    for (i, phase) in phases.iter().enumerate() {
        if let Err(e) = check::accounting(phase) {
            problems.push(format!("phase {i}: {e}"));
        }
        if w.kind != Kind::AttackLoop {
            if let Err(e) = check::replay_matches(cal, pool, phase) {
                problems.push(format!("phase {i}: {e}"));
            }
        }
    }
    if w.kind == Kind::AttackLoop {
        let digests: Vec<Option<u64>> = phases.iter().map(|p| p.digest).collect();
        if digests.iter().any(|d| d.is_none() || *d != digests[0]) {
            problems.push(format!(
                "closed-loop digests differ between phases: {digests:x?}"
            ));
        }
    }
    problems
}

fn run(w: &Workload, seed: u64, seconds: f64, trace: bool, setup_reps: usize) -> Outcome {
    let inputs = workload::generate(w, seed);
    let pool = inputs.pool.as_slice();
    let mut setup_s = Vec::new();
    let mut calibrated = None;
    for _ in 0..setup_reps {
        let (cal, stack, secs) = workload::timed_setup(w, &inputs);
        stack.stop();
        setup_s.push(secs);
        calibrated = Some(cal);
    }
    let cal = calibrated.expect("at least one set-up");
    println!(
        "{} seed {seed}: {} reporters, pool {} rounds ({} reports), paced {} rounds/s",
        w.name,
        pool[0].0.len(),
        pool.len(),
        inputs.pool_reports(),
        w.paced_rounds_per_s
    );

    let phases_secs = if trace { seconds / 4.0 } else { seconds / 2.0 };
    let phase = Duration::from_secs_f64(phases_secs);
    // Whole passes over the pool, so that `attack_loop`'s checkpoint falls
    // at the end of an episode.
    let pass = pool.len() as u64;
    let paced_rounds = ((w.paced_rounds_per_s * phases_secs) as u64 / pass).max(1) * pass;
    let (outs, metrics) = if trace {
        let (untraced, _) = saturate(w, pool, &cal, phase, paced_rounds, false);
        let (sat, sat_spans) = saturate(w, pool, &cal, phase, paced_rounds, true);
        let (pace, pace_spans) = paced(w, pool, &cal, paced_rounds, true);
        let costs = layers::measure(&cal, pool, phase);
        let sat_spans = sat_spans.expect("traced phase has spans");
        let pace_spans = pace_spans.expect("traced phase has spans");
        let untraced_rate = pct(&untraced.window_rates, RATE_QUANTILE);
        let traced_rate = pct(&sat.window_rates, RATE_QUANTILE);
        let c = &sat.counters;
        let metrics = vec![
            Metric::new("core.score_full_ns_per_report", costs.score_full_ns, "ns"),
            Metric::new(
                "core.score_decision_ns_per_report",
                costs.score_decision_ns,
                "ns",
            ),
            Metric::new("deployment.mu_fill_ns_per_report", costs.mu_fill_ns, "ns"),
            Metric::new("deployment.mu_hit_rate", c.mu_cache_hit_rate(), "frac"),
            Metric::new(
                "stats.detector_update_ns_per_report",
                costs.detector_update_ns,
                "ns",
            ),
            Metric::new(
                "serve.submit_ns_per_report",
                ratio(sat_spans.submit_ns as f64, sat_spans.submit_reports as f64),
                "ns",
            ),
            Metric::new(
                "serve.submit_blocked_frac",
                ratio(
                    sat_spans.submit_blocked_calls as f64,
                    sat_spans.submit_calls as f64,
                ),
                "frac",
            ),
            Metric::new(
                "serve.handoff_copy_ns_per_report",
                costs.handoff_copy_ns,
                "ns",
            ),
            Metric::new("serve.sync_us_p50", pct(&pace_spans.sync_us, 0.5), "us"),
            Metric::new("serve.sync_us_p99", pct(&pace_spans.sync_us, 0.99), "us"),
            Metric::new("wire.encode_ns_per_report", costs.encode_ns, "ns"),
            Metric::new("wire.decode_ns_per_report", costs.decode_ns, "ns"),
            Metric::new("wire.gate_ns_per_batch", costs.gate_ns_per_batch, "ns"),
            Metric::new(
                "wire.ack_rtt_us_p50",
                pct(&pace_spans.ack_rtt_us, 0.5),
                "us",
            ),
            Metric::new(
                "wire.ack_rtt_us_p99",
                pct(&pace_spans.ack_rtt_us, 0.99),
                "us",
            ),
            Metric::new("wire.bytes_per_report", costs.bytes_per_report, "bytes"),
            Metric::new("response.step_us_p50", pct(&pace_spans.step_us, 0.5), "us"),
            Metric::new("response.step_us_p99", pct(&pace_spans.step_us, 0.99), "us"),
            Metric::new(
                "response.suppressed_frac",
                ratio(c.suppressed as f64, sat.offered as f64),
                "frac",
            ),
            Metric::new(
                "response.alarms_per_kreport",
                1000.0 * ratio(c.alarms as f64, c.processed as f64),
                "1/kreport",
            ),
            Metric::new("bench.gen_late_p99_us", pct(&pace.late_us, 0.99), "us"),
            Metric::new(
                "bench.round_p99_us",
                round_latency(&pace.latency_us).1,
                "us",
            ),
            Metric::new(
                "bench.round_p99_all_windows_us",
                pct(&pace.latency_us, 0.99),
                "us",
            ),
            Metric::new("bench.untraced_reports_per_s", untraced_rate, "1/s"),
            Metric::new("bench.traced_reports_per_s", traced_rate, "1/s"),
            Metric::new(
                "bench.trace_overhead",
                ratio(untraced_rate, traced_rate),
                "ratio",
            ),
            Metric::new(
                "bench.stage_reconcile",
                (costs.score_full_ns + costs.detector_update_ns + costs.handoff_copy_ns)
                    * untraced_rate
                    / 1e9,
                "ratio",
            ),
        ];
        (vec![untraced, sat, pace], metrics)
    } else {
        let (sat, _) = saturate(w, pool, &cal, phase, paced_rounds, false);
        // Read before a second stack starts: a fresh shard thread may land
        // in a fresh allocator arena, which would make the peak depend on
        // the allocator's arena reuse rather than on the stack.
        let peak_rss_mb = report::peak_rss_mb();
        let (pace, _) = paced(w, pool, &cal, paced_rounds, false);
        let (round_p50, round_p99) = round_latency(&pace.latency_us);
        println!(
            "  saturate: {} rounds, {} windows, mu hit rate {:.3}, {} alarms; paced: {} rounds, \
             {} alarms, tail latency {round_p99:.1} us",
            sat.rounds,
            sat.window_rates.len(),
            sat.counters.mu_cache_hit_rate(),
            sat.counters.alarms,
            pace.rounds,
            pace.counters.alarms,
        );
        let reports_per_s = pct(&sat.window_rates, RATE_QUANTILE);
        let outs = vec![sat, pace];
        let (attempted, failed) = tally(&outs);
        let failed_frac = ratio(failed as f64, attempted as f64);
        println!("  failed_frac {failed_frac} ({failed} of {attempted} offered reports)");
        let metrics = vec![
            Metric::new("reports_per_s", reports_per_s, "1/s"),
            Metric::new("round_p50_us", round_p50, "us"),
            Metric::new("delivered_frac", 1.0 - failed_frac, "frac"),
            Metric::new("setup_s", median(&mut setup_s), "s"),
            Metric::new("peak_rss_mb", peak_rss_mb, "MiB"),
        ];
        (outs, metrics)
    };

    let problems = gate(w, &cal, pool, &outs);
    let (attempted, failed) = tally(&outs);
    Outcome {
        attempted: attempted.max(1),
        failed,
        metrics,
        problems,
    }
}
