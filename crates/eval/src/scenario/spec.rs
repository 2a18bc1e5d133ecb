//! The declarative scenario description: what to sweep, over which
//! deployments, with how many samples.

use lad_attack::AttackClass;
use lad_core::MetricKind;
use lad_deployment::DeploymentConfig;
use lad_stats::seeds::derive_seed;
use lad_stats::AccumulatorConfig;
use serde::{Deserialize, Serialize};

/// How many networks / samples a scenario draws, and from which master seed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SamplingPlan {
    /// Independent simulated deployments per deployment axis.
    pub networks: usize,
    /// Clean nodes sampled per network (threshold side of every ROC).
    pub clean_samples_per_network: usize,
    /// Attacked victims sampled per network *per grid cell*.
    pub victims_per_network: usize,
    /// Master seed; every trial seed is derived from it.
    pub seed: u64,
}

impl SamplingPlan {
    /// Total victims per grid cell.
    pub fn total_victims(&self) -> usize {
        self.networks * self.victims_per_network
    }
}

/// Which localization scheme supplies the clean-side estimates `L_e`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalizerChoice {
    /// The paper's beaconless MLE (knowledge + own observation only).
    BeaconlessMle,
    /// Centroid of heard anchor beacons (this many anchors per network).
    Centroid {
        /// Number of randomly placed anchors.
        anchors: usize,
    },
    /// DV-Hop over the same anchor field.
    DvHop {
        /// Number of randomly placed anchors.
        anchors: usize,
    },
}

impl LocalizerChoice {
    /// Human-readable scheme name (used in labels and reports).
    pub fn name(self) -> &'static str {
        match self {
            LocalizerChoice::BeaconlessMle => "beaconless-mle",
            LocalizerChoice::Centroid { .. } => "centroid",
            LocalizerChoice::DvHop { .. } => "dv-hop",
        }
    }
}

/// One deployment point of a scenario: the *assumed* deployment model the
/// detector is provisioned with, the *actual* placement spread (differing
/// only in model-mismatch studies), and the localization scheme producing
/// clean estimates.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DeploymentAxis {
    /// Label used in results (e.g. `"m=300"` or `"sigma=65"`).
    pub label: String,
    /// The deployment model the detector assumes (knowledge, µ, scoring).
    pub config: DeploymentConfig,
    /// Actual placement σ when it differs from `config.sigma` (the §8
    /// model-mismatch study); `None` means the model matches reality.
    pub actual_sigma: Option<f64>,
    /// The scheme that localizes clean nodes.
    pub localizer: LocalizerChoice,
}

impl DeploymentAxis {
    /// A matched-model axis with the paper's beaconless MLE.
    pub fn new(label: impl Into<String>, config: DeploymentConfig) -> Self {
        Self {
            label: label.into(),
            config,
            actual_sigma: None,
            localizer: LocalizerChoice::BeaconlessMle,
        }
    }

    /// Returns a copy with a different localization scheme.
    pub fn with_localizer(mut self, localizer: LocalizerChoice) -> Self {
        self.localizer = localizer;
        self
    }

    /// Returns a copy whose *actual* placement spread is `sigma` while the
    /// detector keeps assuming `config.sigma`. A `sigma` equal to the
    /// assumed one is normalised to "no mismatch", so such an axis shares
    /// its cached substrate with plain matched-model axes.
    pub fn with_actual_sigma(mut self, sigma: f64) -> Self {
        self.actual_sigma = (sigma != self.config.sigma).then_some(sigma);
        self
    }

    /// The configuration networks are actually generated from.
    pub fn actual_config(&self) -> DeploymentConfig {
        match self.actual_sigma {
            Some(sigma) => self.config.with_sigma(sigma),
            None => self.config,
        }
    }
}

/// A weighted mixture of attack classes. A pure mix reproduces the paper's
/// single-class sweeps; a weighted mix models an adversary population using
/// different strategies — a workload the per-point harness could not express
/// without duplicating its whole collection loop per class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AttackMix {
    label: String,
    components: Vec<(AttackClass, u32)>,
}

impl AttackMix {
    /// A single-class mix labelled with the class name.
    pub fn pure(class: AttackClass) -> Self {
        Self {
            label: class.name().to_string(),
            components: vec![(class, 1)],
        }
    }

    /// A weighted mix. Weights are relative integers (e.g. `[(DecBounded,
    /// 1), (DecOnly, 1)]` is a 50/50 split).
    pub fn weighted(label: impl Into<String>, components: Vec<(AttackClass, u32)>) -> Self {
        assert!(!components.is_empty(), "an attack mix needs components");
        assert!(
            components.iter().any(|&(_, w)| w > 0),
            "an attack mix needs positive weight"
        );
        Self {
            label: label.into(),
            components,
        }
    }

    /// The mix's display label.
    pub fn label(&self) -> &str {
        &self.label
    }

    /// The weighted components.
    pub fn components(&self) -> &[(AttackClass, u32)] {
        &self.components
    }

    /// Deterministically picks a class from `draw` (a derived-seed value):
    /// victims are assigned classes proportionally to the weights. A pure
    /// mix always returns its class.
    pub fn pick(&self, draw: u64) -> AttackClass {
        let total: u64 = self.components.iter().map(|&(_, w)| w as u64).sum();
        let mut ticket = draw % total;
        for &(class, w) in &self.components {
            if ticket < w as u64 {
                return class;
            }
            ticket -= w as u64;
        }
        self.components[0].0
    }

    /// A content-derived token mixed into attack seeds, so the same cell
    /// produces the same trials in every scenario that contains it
    /// (label changes do not perturb results).
    pub fn seed_token(&self) -> u64 {
        let indices: Vec<u64> = self
            .components
            .iter()
            .flat_map(|&(class, w)| [class as u64, w as u64])
            .collect();
        derive_seed(0x417_ACC, &indices)
    }
}

/// One cell of the expanded grid.
#[derive(Debug, Clone, PartialEq)]
pub struct CellParams {
    /// The detection metric evaluated (and targeted by the adversary).
    pub metric: MetricKind,
    /// The attack-class mix victims are subjected to.
    pub attack: AttackMix,
    /// Degree of damage `D` (metres).
    pub damage: f64,
    /// Compromised-neighbour fraction `x`.
    pub fraction: f64,
}

/// The attack grid: the cartesian product of metrics × attack mixes ×
/// damages × fractions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParamGrid {
    /// Detection metrics (each cell both scores with and is targeted at its
    /// metric).
    pub metrics: Vec<MetricKind>,
    /// Attack-class mixes.
    pub attacks: Vec<AttackMix>,
    /// Degrees of damage `D`.
    pub damages: Vec<f64>,
    /// Compromised-neighbour fractions `x`.
    pub fractions: Vec<f64>,
}

impl ParamGrid {
    /// A one-cell grid (the degenerate case: a single parameter point).
    pub fn single(metric: MetricKind, class: AttackClass, damage: f64, fraction: f64) -> Self {
        Self {
            metrics: vec![metric],
            attacks: vec![AttackMix::pure(class)],
            damages: vec![damage],
            fractions: vec![fraction],
        }
    }

    /// Number of cells in the grid.
    pub fn len(&self) -> usize {
        self.metrics.len() * self.attacks.len() * self.damages.len() * self.fractions.len()
    }

    /// `true` when the grid has no cells.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Expands the grid into cells, in deterministic (metric-major) order.
    pub fn cells(&self) -> Vec<CellParams> {
        let mut out = Vec::with_capacity(self.len());
        for &metric in &self.metrics {
            for attack in &self.attacks {
                for &damage in &self.damages {
                    for &fraction in &self.fractions {
                        out.push(CellParams {
                            metric,
                            attack: attack.clone(),
                            damage,
                            fraction,
                        });
                    }
                }
            }
        }
        out
    }
}

/// A complete declarative scenario: deployments × grid × sampling plan.
///
/// Run with [`ScenarioRunner`](crate::scenario::ScenarioRunner); see the
/// [module docs](crate::scenario) and the crate-level "define your own
/// scenario" snippet.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Short identifier (report/artefact file stem).
    pub id: String,
    /// Human-readable title.
    pub title: String,
    /// Deployment axes (at least one).
    pub deployments: Vec<DeploymentAxis>,
    /// The attack grid.
    pub grid: ParamGrid,
    /// How much to sample.
    pub sampling: SamplingPlan,
    /// Streaming-accumulator layout for all score distributions.
    pub accumulator: AccumulatorConfig,
}

impl ScenarioSpec {
    /// A single-deployment scenario with the default accumulator layout.
    pub fn new(
        id: impl Into<String>,
        title: impl Into<String>,
        axis: DeploymentAxis,
        grid: ParamGrid,
        sampling: SamplingPlan,
    ) -> Self {
        Self {
            id: id.into(),
            title: title.into(),
            deployments: vec![axis],
            grid,
            sampling,
            accumulator: AccumulatorConfig::default(),
        }
    }

    /// Returns a copy with several deployment axes.
    pub fn with_deployments(mut self, deployments: Vec<DeploymentAxis>) -> Self {
        assert!(!deployments.is_empty(), "a scenario needs a deployment");
        self.deployments = deployments;
        self
    }

    /// Returns a copy with a different accumulator layout.
    pub fn with_accumulator(mut self, accumulator: AccumulatorConfig) -> Self {
        self.accumulator = accumulator;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grid_expansion_is_the_cartesian_product_in_metric_major_order() {
        let grid = ParamGrid {
            metrics: vec![MetricKind::Diff, MetricKind::AddAll],
            attacks: vec![AttackMix::pure(AttackClass::DecBounded)],
            damages: vec![40.0, 80.0],
            fractions: vec![0.1, 0.2, 0.3],
        };
        let cells = grid.cells();
        assert_eq!(cells.len(), grid.len());
        assert_eq!(cells.len(), 2 * 2 * 3);
        assert_eq!(cells[0].metric, MetricKind::Diff);
        assert_eq!(cells[0].damage, 40.0);
        assert_eq!(cells[0].fraction, 0.1);
        assert_eq!(cells[1].fraction, 0.2);
        assert_eq!(cells.last().unwrap().metric, MetricKind::AddAll);
    }

    #[test]
    fn pure_mix_always_picks_its_class_and_mixes_split_by_weight() {
        let pure = AttackMix::pure(AttackClass::DecOnly);
        for draw in 0..50 {
            assert_eq!(pure.pick(draw), AttackClass::DecOnly);
        }
        let mix = AttackMix::weighted(
            "3:1",
            vec![(AttackClass::DecBounded, 3), (AttackClass::DecOnly, 1)],
        );
        let bounded = (0..4000u64)
            .filter(|&d| mix.pick(d) == AttackClass::DecBounded)
            .count();
        assert_eq!(bounded, 3000, "weights partition the draw space exactly");
    }

    #[test]
    fn seed_token_depends_on_content_not_label() {
        let a = AttackMix::weighted(
            "a",
            vec![(AttackClass::DecBounded, 1), (AttackClass::DecOnly, 1)],
        );
        let b = AttackMix::weighted(
            "b",
            vec![(AttackClass::DecBounded, 1), (AttackClass::DecOnly, 1)],
        );
        assert_eq!(a.seed_token(), b.seed_token());
        assert_ne!(
            a.seed_token(),
            AttackMix::pure(AttackClass::DecBounded).seed_token()
        );
    }

    #[test]
    fn axis_mismatch_only_changes_the_actual_config() {
        let axis = DeploymentAxis::new("m=300", lad_deployment::DeploymentConfig::paper_default())
            .with_actual_sigma(80.0);
        assert_eq!(axis.config.sigma, 50.0);
        assert_eq!(axis.actual_config().sigma, 80.0);
        let matched = DeploymentAxis::new("m", lad_deployment::DeploymentConfig::paper_default());
        assert_eq!(matched.actual_config(), matched.config);
    }

    #[test]
    fn matched_actual_sigma_normalises_to_no_mismatch() {
        // A "mismatch" equal to the assumed σ is no mismatch at all; the
        // normalisation lets such axes share cached substrates with plain
        // matched-model axes.
        let config = lad_deployment::DeploymentConfig::paper_default();
        let axis = DeploymentAxis::new("sigma=50", config).with_actual_sigma(config.sigma);
        assert_eq!(axis.actual_sigma, None);
    }
}
