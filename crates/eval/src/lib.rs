//! Evaluation harness for the LAD reproduction.
//!
//! The harness is built around a **declarative scenario layer**
//! ([`scenario`]): an experiment is a [`ScenarioSpec`] value — deployment
//! axes × attack grid × sampling plan — executed by a [`ScenarioRunner`]
//! that deduplicates per-deployment work (network generation, clean-score
//! collection), fans the whole grid out on one Rayon pool, and streams
//! every score distribution into O(bins)-memory accumulators
//! ([`lad_stats::streaming`]). Every figure of the paper's §7, the two new
//! grid-native scenarios, and the ablations are declared this way:
//!
//! | Experiment | Paper figure | Entry point |
//! |------------|--------------|-------------|
//! | E1 | Fig. 1–2 (deployment layout, placement pdf) | [`experiments::deployment_figures`] |
//! | E2 | Fig. 3 (attack primitives showcase) | [`experiments::attack_showcase`] |
//! | E3 | Fig. 4 (ROC per metric, D ∈ {80, 120, 160}) | [`experiments::fig4_roc_metrics`] |
//! | E4/E5 | Fig. 5–6 (ROC per attack class, D ∈ {40, 80, 120, 160}) | [`experiments::fig56_roc_attacks`] |
//! | E6 | Fig. 7 (DR vs D) | [`experiments::fig7_dr_vs_damage`] |
//! | E7 | Fig. 8 (DR vs compromised fraction) | [`experiments::fig8_dr_vs_compromise`] |
//! | E8 | Fig. 9 (DR vs density m) | [`experiments::fig9_dr_vs_density`] |
//! | E9 | §3.3 lookup-table ablation | [`experiments::ablation_gz_table`] |
//! | E10 | §7.2 scheme-independence ablation | [`experiments::ablation_localizers`] |
//! | E11 | §8 deployment-model-mismatch study | [`experiments::ablation_model_mismatch`] |
//! | E12 | joint D×x detection-rate heatmap (grid-native) | [`experiments::heatmap_damage_compromise`] |
//! | E13 | mixed-attack-class workload (grid-native) | [`experiments::mixed_attack_workload`] |
//! | E14 | temporal: time-to-detection of sequential detectors (serving-native) | [`experiments::temporal_detection`] |
//! | E15 | containment: closed-loop time-to-containment, precision/recall, collateral (response-native) | [`experiments::containment`] |
//!
//! # Define your own scenario
//!
//! A scenario is ~15 lines: declare the grid, run it, query any cell.
//!
//! ```
//! use lad_eval::scenario::{AttackMix, ParamGrid, ScenarioRunner, ScenarioSpec};
//! use lad_eval::EvalConfig;
//! use lad_attack::AttackClass;
//! use lad_core::MetricKind;
//!
//! let base = EvalConfig::bench(); // deployment + sampling preset
//! let spec = ScenarioSpec::new(
//!     "my_sweep",
//!     "Diff-metric detection across damage levels and attack classes",
//!     base.deployment_axis("bench"),
//!     ParamGrid {
//!         metrics: vec![MetricKind::Diff],
//!         attacks: vec![AttackMix::pure(AttackClass::DecBounded),
//!                       AttackMix::pure(AttackClass::DecOnly)],
//!         damages: vec![60.0, 120.0],
//!         fractions: vec![0.1],
//!     },
//!     base.sampling_plan(),
//! );
//! let result = ScenarioRunner::new(&spec).run();
//! let dep = result.single();
//! let cell = dep.find_cell(MetricKind::Diff, "dec-only", 120.0, 0.1).unwrap();
//! assert!(dep.detection_rate(cell, 0.05) > 0.5);
//! ```
//!
//! The shared machinery lives in [`scenario`] (specs, substrates, the
//! grid-parallel runner), [`report`] (figure/series containers with CSV and
//! Markdown output) and [`config`] (quick / paper-scale presets). A
//! scenario with an exact accumulator layout
//! ([`lad_stats::AccumulatorConfig::exact`]) keeps every score, which is
//! the buffered evaluation; the default layout streams into O(bins)
//! memory. The
//! `reproduce` binary drives everything and writes the artefacts consumed
//! by `EXPERIMENTS.md`.
//!
//! [`ScenarioSpec`]: scenario::ScenarioSpec
//! [`ScenarioRunner`]: scenario::ScenarioRunner

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod experiments;
pub mod report;
pub mod scenario;

pub use config::EvalConfig;
pub use report::{FigureReport, Series};
pub use scenario::{ScenarioRunner, ScenarioSpec, SubstrateCache};
