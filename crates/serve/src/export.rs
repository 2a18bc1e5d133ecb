//! Prometheus text exposition of a [`ServeStats`] export.
//!
//! [`render_prometheus`] turns one stats export into the plain-text
//! exposition format every Prometheus-compatible scraper speaks (`# HELP`
//! / `# TYPE` preamble, one `name{labels} value` sample per line). The
//! wire front door serves it on a `HealthRequest(Prometheus)` frame, so a
//! scrape bridge is one `WireClient::scrape_prometheus` call away — no
//! HTTP stack inside the runtime.
//!
//! Conventions:
//!
//! * monotone runtime counters are `_total` counters;
//! * gauges carry the instantaneous or latest-window value;
//! * stage latency quantiles are labelled
//!   `{stage="score",quantile="p99"}` — one metric, [`Stage::ALL`]-order
//!   series;
//! * the health verdict exports both a severity gauge
//!   (`lad_health_status`: 0 healthy … 3 drifting) and one
//!   `lad_health_cause{cause="..."}` sample per firing cause, so an
//!   alerting rule can match either the level or the specific cause.

use crate::runtime::ServeStats;
use lad_telemetry::Stage;
use std::fmt::Write;

/// Appends one `# HELP`/`# TYPE` preamble.
fn preamble(out: &mut String, name: &str, kind: &str, help: &str) {
    let _ = writeln!(out, "# HELP {name} {help}");
    let _ = writeln!(out, "# TYPE {name} {kind}");
}

/// Appends one un-labelled integer sample with its preamble.
fn metric_u64(out: &mut String, name: &str, kind: &str, help: &str, value: u64) {
    preamble(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
}

/// Appends one un-labelled float sample with its preamble.
fn metric_f64(out: &mut String, name: &str, kind: &str, help: &str, value: f64) {
    preamble(out, name, kind, help);
    let _ = writeln!(out, "{name} {value}");
}

/// Renders `stats` in the Prometheus text exposition format. Pure and
/// allocation-bounded: the output is a function of the export alone, so
/// the same stats render to the same text anywhere.
pub fn render_prometheus(stats: &ServeStats) -> String {
    let mut out = String::with_capacity(4096);
    let c = &stats.counters;

    metric_u64(
        &mut out,
        "lad_stats_version",
        "gauge",
        "Stats export format version.",
        stats.stats_version as u64,
    );
    metric_u64(
        &mut out,
        "lad_reports_submitted_total",
        "counter",
        "Reports accepted into the scoring pipeline.",
        c.submitted,
    );
    metric_u64(
        &mut out,
        "lad_reports_processed_total",
        "counter",
        "Reports fully scored and decided.",
        c.processed,
    );
    metric_u64(
        &mut out,
        "lad_alarms_total",
        "counter",
        "Sequential-detector alarms raised.",
        c.alarms,
    );
    metric_u64(
        &mut out,
        "lad_reports_suppressed_total",
        "counter",
        "Reports suppressed by the response filter before scoring.",
        c.suppressed,
    );
    metric_u64(
        &mut out,
        "lad_reports_shed_total",
        "counter",
        "Reports NACKed at the ingest boundary.",
        c.shed,
    );
    metric_u64(
        &mut out,
        "lad_decode_errors_total",
        "counter",
        "Wire frames that failed to decode.",
        c.decode_errors,
    );
    metric_f64(
        &mut out,
        "lad_mu_cache_hit_rate",
        "gauge",
        "Cumulative mu-memoization hit rate.",
        c.mu_cache_hit_rate(),
    );
    metric_u64(
        &mut out,
        "lad_queue_depth_batches",
        "gauge",
        "Queued batches across all shards at the last fold.",
        stats.telemetry.queue_depth,
    );
    metric_u64(
        &mut out,
        "lad_uptime_nanos",
        "gauge",
        "Nanoseconds since the runtime started.",
        stats.telemetry.uptime_nanos,
    );
    metric_u64(
        &mut out,
        "lad_events_sampled_out_total",
        "counter",
        "Structured events producers sampled out under flood.",
        stats.telemetry.events_sampled_out,
    );

    // Stage latencies: one series per (stage, quantile), plus span counts.
    preamble(
        &mut out,
        "lad_stage_latency_nanos",
        "gauge",
        "Per-stage span latency quantiles (one-sided <=6.25% bucket error).",
    );
    for stage in Stage::ALL {
        let s = stats.telemetry.stage(stage);
        let name = stage.name();
        let _ = writeln!(
            out,
            "lad_stage_latency_nanos{{stage=\"{name}\",quantile=\"p50\"}} {}",
            s.p50_nanos
        );
        let _ = writeln!(
            out,
            "lad_stage_latency_nanos{{stage=\"{name}\",quantile=\"p99\"}} {}",
            s.p99_nanos
        );
    }
    preamble(
        &mut out,
        "lad_stage_spans_total",
        "counter",
        "Spans recorded per pipeline stage.",
    );
    for stage in Stage::ALL {
        let _ = writeln!(
            out,
            "lad_stage_spans_total{{stage=\"{}\"}} {}",
            stage.name(),
            stats.telemetry.stage(stage).count
        );
    }

    // Windowed series: the latest closed window, if any, plus ring totals.
    metric_u64(
        &mut out,
        "lad_windows_closed_total",
        "counter",
        "Time-series windows closed since start.",
        stats.series.windows_closed,
    );
    if let Some(window) = stats.series.latest() {
        metric_f64(
            &mut out,
            "lad_window_throughput_per_sec",
            "gauge",
            "Reports processed per second over the latest closed window.",
            window.throughput_per_sec(),
        );
        metric_f64(
            &mut out,
            "lad_window_alarm_rate",
            "gauge",
            "Alarms per processed report over the latest closed window.",
            window.alarm_rate(),
        );
        metric_u64(
            &mut out,
            "lad_window_shed",
            "gauge",
            "Reports shed during the latest closed window.",
            window.shed,
        );
        metric_f64(
            &mut out,
            "lad_window_mu_cache_hit_rate",
            "gauge",
            "Mu-cache hit rate over the latest closed window.",
            window.mu_cache_hit_rate,
        );
    }

    // Drift monitor.
    metric_u64(
        &mut out,
        "lad_drift_monitor_enabled",
        "gauge",
        "Whether a drift monitor is configured (1) or not (0).",
        u64::from(stats.drift.enabled),
    );
    if stats.drift.enabled {
        metric_f64(
            &mut out,
            "lad_drift_ks",
            "gauge",
            "KS distance between live clean scores and the calibration baseline.",
            stats.drift.ks,
        );
        metric_f64(
            &mut out,
            "lad_drift_ks_tolerance",
            "gauge",
            "Configured KS tolerance.",
            stats.drift.ks_tolerance,
        );
        metric_u64(
            &mut out,
            "lad_drift_flagging",
            "gauge",
            "Whether the latest evaluation flagged on KS or alarm-rate (1) or not (0).",
            u64::from(stats.drift.flagging()),
        );
        metric_u64(
            &mut out,
            "lad_drift_clean_scores",
            "gauge",
            "Clean (non-alarming) scores accumulated for the drift comparison.",
            stats.drift.clean_scores,
        );
        metric_f64(
            &mut out,
            "lad_observed_far",
            "gauge",
            "Observed alarms per processed report at the latest evaluation.",
            stats.drift.observed_far,
        );
        metric_f64(
            &mut out,
            "lad_target_far",
            "gauge",
            "Calibrated per-report false-alarm target.",
            stats.drift.target_far,
        );
        metric_u64(
            &mut out,
            "lad_drift_evaluations_total",
            "counter",
            "Drift evaluations that had enough samples for a verdict.",
            stats.drift.evaluations,
        );
        metric_u64(
            &mut out,
            "lad_drift_flagged_total",
            "counter",
            "Drift evaluations that flagged over the runtime's life.",
            stats.drift.flagged,
        );
    }

    // Health verdict.
    metric_u64(
        &mut out,
        "lad_health_status",
        "gauge",
        "Derived health severity: 0 healthy, 2 overloaded, 3 drifting.",
        stats.health.status.severity(),
    );
    preamble(
        &mut out,
        "lad_health_cause",
        "gauge",
        "One sample per firing health cause.",
    );
    for cause in &stats.health.causes {
        let label = match cause {
            lad_telemetry::HealthCause::ScoreDrift { .. } => "score_drift",
            lad_telemetry::HealthCause::AlarmRateOutOfBand { .. } => "alarm_rate_out_of_band",
            lad_telemetry::HealthCause::SheddingLoad { .. } => "shedding_load",
            lad_telemetry::HealthCause::QueueBacklog { .. } => "queue_backlog",
        };
        let _ = writeln!(out, "lad_health_cause{{cause=\"{label}\"}} 1");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::drift::DriftSnapshot;
    use crate::runtime::{ServeCounters, STATS_VERSION};
    use lad_telemetry::{HealthReport, SeriesSnapshot, Telemetry};

    fn stats() -> ServeStats {
        let telemetry = Telemetry::new(1);
        telemetry.shard(0).stage(Stage::Score).record(1000);
        ServeStats {
            stats_version: STATS_VERSION,
            counters: ServeCounters {
                submitted: 100,
                processed: 90,
                alarms: 3,
                ..ServeCounters::default()
            },
            telemetry: telemetry.fold(),
            series: SeriesSnapshot {
                window_nanos: 0,
                windows_closed: 0,
                windows_dropped: 0,
                windows: Vec::new(),
            },
            drift: DriftSnapshot::disabled(),
            health: HealthReport::healthy(),
        }
    }

    #[test]
    fn exposition_has_core_samples_and_valid_shape() {
        let text = render_prometheus(&stats());
        assert!(text.contains("lad_reports_submitted_total 100"));
        assert!(text.contains("lad_reports_processed_total 90"));
        assert!(text.contains("lad_alarms_total 3"));
        assert!(text.contains("lad_health_status 0"));
        assert!(text.contains("lad_drift_monitor_enabled 0"));
        assert!(text.contains("# TYPE lad_stage_latency_nanos gauge"));
        assert!(text.contains("lad_stage_latency_nanos{stage=\"score\",quantile=\"p99\"}"));
        // Every non-comment line is `name{labels}? value`.
        for line in text.lines() {
            if line.starts_with('#') {
                continue;
            }
            let (name, value) = line.rsplit_once(' ').expect("sample line");
            assert!(!name.is_empty());
            assert!(value.parse::<f64>().is_ok(), "unparsable value: {line}");
        }
        // Each HELP has a TYPE and at least the possibility of samples;
        // no duplicate TYPE declarations for one metric.
        let mut seen = std::collections::HashSet::new();
        for line in text.lines().filter(|l| l.starts_with("# TYPE ")) {
            let name = line.split_whitespace().nth(2).expect("metric name");
            assert!(seen.insert(name.to_string()), "duplicate TYPE for {name}");
        }
    }

    #[test]
    fn firing_causes_and_drift_metrics_appear_when_present() {
        let mut s = stats();
        s.drift = DriftSnapshot {
            enabled: true,
            clean_scores: 5000,
            ks: 0.31,
            ks_tolerance: 0.05,
            drifting: true,
            observed_far: 0.04,
            target_far: 0.01,
            far_band: 0.01,
            far_out_of_band: true,
            evaluations: 7,
            flagged: 2,
        };
        s.health = HealthReport::derive(&lad_telemetry::HealthInputs {
            window_shed: 12,
            drift: Some((0.31, 0.05)),
            ..Default::default()
        });
        let text = render_prometheus(&s);
        assert!(text.contains("lad_drift_ks 0.31"));
        assert!(text.contains("lad_drift_flagging 1"));
        assert!(text.contains("lad_health_status 3"));
        assert!(text.contains("lad_health_cause{cause=\"score_drift\"} 1"));
        assert!(text.contains("lad_health_cause{cause=\"shedding_load\"} 1"));
    }
}
