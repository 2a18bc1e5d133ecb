//! The detection-health model: a typed verdict derived purely from
//! telemetry.
//!
//! A [`HealthReport`] condenses the windowed series, the drift monitor
//! and the overload counters into one status an operator (or scraper) can
//! alert on. Derivation is a pure function of numbers already exported —
//! **nothing in the pipeline ever consults the report**, so turning the
//! health layer on or off cannot change a single alarm bit (the
//! determinism suites assert exactly that).
//!
//! Status precedence, most to least severe:
//!
//! 1. [`Drifting`](HealthStatus::Drifting) — the clean-score distribution
//!    has left its calibration substrate, or the observed alarm rate left
//!    the calibrated false-alarm band. The detector still runs, but its
//!    FAR guarantee no longer holds: recalibrate.
//! 2. [`Overloaded`](HealthStatus::Overloaded) — the front door is
//!    shedding traffic, or queue backlog is growing. Detection coverage
//!    has holes in it right now.
//! 3. [`Healthy`](HealthStatus::Healthy) — none of the above.

use serde::{Deserialize, Serialize};
use std::fmt;

/// The condensed verdict, ordered least to most severe. The discriminants
/// are the exported severity codes; code 1 (the retired `Degraded` status)
/// stays unused so alert rules written against the codes keep their
/// meaning.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Serialize, Deserialize)]
pub enum HealthStatus {
    /// No cause firing.
    Healthy = 0,
    /// Traffic is being shed, or backlog exceeds the configured queues.
    Overloaded = 2,
    /// Score distribution or alarm rate has left its calibration.
    Drifting = 3,
}

impl HealthStatus {
    /// Stable lower-case name, used in the Prometheus exposition.
    pub fn name(self) -> &'static str {
        match self {
            HealthStatus::Healthy => "healthy",
            HealthStatus::Overloaded => "overloaded",
            HealthStatus::Drifting => "drifting",
        }
    }

    /// Numeric severity for the Prometheus gauge (0 healthy, 2 overloaded,
    /// 3 drifting).
    pub fn severity(self) -> u64 {
        self as u64
    }
}

/// One reason the status is not `Healthy`, with the numbers that fired it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum HealthCause {
    /// The KS distance between the live clean-score distribution and the
    /// calibration baseline exceeded its tolerance: the deployment's
    /// score substrate has moved and the trained thresholds/FAR no longer
    /// describe it.
    ScoreDrift {
        /// The measured KS distance.
        ks: f64,
        /// The configured tolerance it exceeded.
        tolerance: f64,
    },
    /// The observed per-report alarm rate left the calibrated
    /// false-alarm band `target ± band`: either the substrate drifted
    /// hot (false alarms burn response budget) or suspiciously cold (the
    /// detector may have gone blind).
    AlarmRateOutOfBand {
        /// Alarms per processed report, observed.
        observed: f64,
        /// The calibrated per-report false-alarm target.
        target: f64,
        /// The half-width of the acceptance band.
        band: f64,
    },
    /// Reports were refused (NACKed) at the front door in the most
    /// recent window.
    SheddingLoad {
        /// Reports shed in the window.
        window_shed: u64,
    },
    /// Queue backlog at or beyond the runtime's configured capacity —
    /// submitters are blocking on backpressure.
    QueueBacklog {
        /// Reports sitting in shard queues.
        depth: u64,
        /// The depth at which backlog is called a backlog.
        limit: u64,
    },
}

impl HealthCause {
    /// The status this cause pulls the report to.
    pub fn status(&self) -> HealthStatus {
        match self {
            HealthCause::ScoreDrift { .. } | HealthCause::AlarmRateOutOfBand { .. } => {
                HealthStatus::Drifting
            }
            HealthCause::SheddingLoad { .. } | HealthCause::QueueBacklog { .. } => {
                HealthStatus::Overloaded
            }
        }
    }
}

impl fmt::Display for HealthCause {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HealthCause::ScoreDrift { ks, tolerance } => {
                write!(f, "clean-score KS {ks:.4} exceeds tolerance {tolerance:.4}")
            }
            HealthCause::AlarmRateOutOfBand {
                observed,
                target,
                band,
            } => write!(
                f,
                "alarm rate {observed:.4} outside calibrated band {target:.4} ± {band:.4}"
            ),
            HealthCause::SheddingLoad { window_shed } => {
                write!(f, "shed {window_shed} reports in the last window")
            }
            HealthCause::QueueBacklog { depth, limit } => {
                write!(f, "queue backlog {depth} at/over capacity {limit}")
            }
        }
    }
}

/// Everything the derivation reads, as plain numbers — the serve runtime
/// assembles this from its latest window, drift snapshot and counters, so
/// the health layer stays free of any dependency on where they came from.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HealthInputs {
    /// Reports shed in the most recent window (or overall when no window
    /// has closed yet).
    pub window_shed: u64,
    /// Current queue depth in reports.
    pub queue_depth: u64,
    /// Depth at which backlog counts as overload (0 disables the check).
    pub queue_limit: u64,
    /// Drift monitor verdict, when a monitor is configured and has
    /// evaluated: `(ks, tolerance)` with `ks > tolerance` meaning drift.
    pub drift: Option<(f64, f64)>,
    /// Observed alarm rate vs `(target, band)`, when a monitor is
    /// configured and enough traffic has flowed to judge it.
    pub alarm_rate: Option<(f64, f64, f64)>,
}

/// The derived report: one status plus every cause that fired, most
/// severe first.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct HealthReport {
    /// The condensed verdict (the most severe firing cause's status).
    pub status: HealthStatus,
    /// Every firing cause, most severe first.
    pub causes: Vec<HealthCause>,
}

impl HealthReport {
    /// A healthy report with no causes.
    pub fn healthy() -> Self {
        Self {
            status: HealthStatus::Healthy,
            causes: Vec::new(),
        }
    }

    /// Serializes the report to JSON — the `HealthFormat::Report` wire
    /// payload.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("health report serializes")
    }

    /// Derives the report from telemetry inputs. Pure: same inputs, same
    /// report, and nothing here is ever read back by the pipeline.
    pub fn derive(inputs: &HealthInputs) -> Self {
        let mut causes = Vec::new();
        if let Some((ks, tolerance)) = inputs.drift {
            if ks > tolerance {
                causes.push(HealthCause::ScoreDrift { ks, tolerance });
            }
        }
        if let Some((observed, target, band)) = inputs.alarm_rate {
            if (observed - target).abs() > band {
                causes.push(HealthCause::AlarmRateOutOfBand {
                    observed,
                    target,
                    band,
                });
            }
        }
        if inputs.window_shed > 0 {
            causes.push(HealthCause::SheddingLoad {
                window_shed: inputs.window_shed,
            });
        }
        if inputs.queue_limit > 0 && inputs.queue_depth >= inputs.queue_limit {
            causes.push(HealthCause::QueueBacklog {
                depth: inputs.queue_depth,
                limit: inputs.queue_limit,
            });
        }
        let status = causes
            .iter()
            .map(HealthCause::status)
            .max()
            .unwrap_or(HealthStatus::Healthy);
        Self { status, causes }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quiet_inputs_are_healthy() {
        let report = HealthReport::derive(&HealthInputs::default());
        assert_eq!(report.status, HealthStatus::Healthy);
        assert!(report.causes.is_empty());
        assert_eq!(report, HealthReport::healthy());
    }

    #[test]
    fn drift_outranks_overload() {
        let inputs = HealthInputs {
            window_shed: 10,
            drift: Some((0.3, 0.1)),
            ..HealthInputs::default()
        };
        let report = HealthReport::derive(&inputs);
        assert_eq!(report.status, HealthStatus::Drifting);
        assert_eq!(report.causes.len(), 2);
        assert!(matches!(report.causes[0], HealthCause::ScoreDrift { .. }));

        let overloaded = HealthReport::derive(&HealthInputs {
            window_shed: 10,
            ..HealthInputs::default()
        });
        assert_eq!(overloaded.status, HealthStatus::Overloaded);
    }

    #[test]
    fn severity_codes_are_stable() {
        // Exported gauge values: alert rules match on these numbers.
        assert_eq!(HealthStatus::Healthy.severity(), 0);
        assert_eq!(HealthStatus::Overloaded.severity(), 2);
        assert_eq!(HealthStatus::Drifting.severity(), 3);
    }

    #[test]
    fn alarm_rate_band_is_two_sided() {
        let hot = HealthInputs {
            alarm_rate: Some((0.08, 0.01, 0.02)),
            ..HealthInputs::default()
        };
        assert_eq!(HealthReport::derive(&hot).status, HealthStatus::Drifting);
        // Suspiciously cold flags too: a blind detector is not healthy.
        let cold = HealthInputs {
            alarm_rate: Some((0.0, 0.05, 0.02)),
            ..HealthInputs::default()
        };
        assert_eq!(HealthReport::derive(&cold).status, HealthStatus::Drifting);
        let in_band = HealthInputs {
            alarm_rate: Some((0.012, 0.01, 0.02)),
            ..HealthInputs::default()
        };
        assert_eq!(HealthReport::derive(&in_band).status, HealthStatus::Healthy);
    }

    #[test]
    fn queue_backlog_respects_the_disable_sentinel() {
        let disabled = HealthInputs {
            queue_depth: 1000,
            queue_limit: 0,
            ..HealthInputs::default()
        };
        assert_eq!(
            HealthReport::derive(&disabled).status,
            HealthStatus::Healthy
        );
        let over = HealthInputs {
            queue_depth: 1000,
            queue_limit: 512,
            ..HealthInputs::default()
        };
        assert_eq!(HealthReport::derive(&over).status, HealthStatus::Overloaded);
    }

    #[test]
    fn reports_round_trip_through_json() {
        let report = HealthReport::derive(&HealthInputs {
            window_shed: 3,
            drift: Some((0.5, 0.2)),
            ..HealthInputs::default()
        });
        let json = serde_json::to_string(&report).expect("report serializes");
        let back: HealthReport = serde_json::from_str(&json).expect("report parses");
        assert_eq!(back, report);
    }
}
