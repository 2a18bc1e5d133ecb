//! Grid expansion and whole-grid parallel execution.

use crate::scenario::spec::{CellParams, ScenarioSpec};
use crate::scenario::substrate::{Substrate, SubstrateCache};
use lad_core::MetricKind;
use lad_stats::{streaming_roc, RocCurve, ScoreAccumulator};
use rayon::prelude::*;
use std::sync::Arc;

/// Executes a [`ScenarioSpec`]: builds (or fetches) one [`Substrate`] per
/// deployment axis, then fans the *entire* `deployment × cell` grid out on
/// one Rayon pool — a 3-deployment × 60-cell scenario is 180 independent
/// trial streams saturating the machine, not 180 sequential points each
/// parallelising internally.
pub struct ScenarioRunner<'a> {
    spec: &'a ScenarioSpec,
    cache: Option<&'a SubstrateCache>,
}

impl<'a> ScenarioRunner<'a> {
    /// A runner that builds its substrates privately.
    pub fn new(spec: &'a ScenarioSpec) -> Self {
        Self { spec, cache: None }
    }

    /// A runner that shares substrates through `cache` (deployments reused
    /// across scenarios are simulated once).
    pub fn with_cache(spec: &'a ScenarioSpec, cache: &'a SubstrateCache) -> Self {
        Self {
            spec,
            cache: Some(cache),
        }
    }

    /// Runs the scenario. Results are bit-deterministic for a fixed
    /// `sampling.seed` regardless of thread count: every trial's RNG seed is
    /// derived from the master seed and the trial's grid coordinates, and
    /// all streaming folds happen in deterministic grid order.
    pub fn run(&self) -> ScenarioResult {
        let spec = self.spec;
        assert!(
            !spec.deployments.is_empty(),
            "a scenario needs a deployment"
        );
        assert!(!spec.grid.is_empty(), "a scenario needs at least one cell");
        let owned_cache;
        let cache = match self.cache {
            Some(cache) => cache,
            None => {
                owned_cache = SubstrateCache::new();
                &owned_cache
            }
        };
        let substrates: Vec<Arc<Substrate>> = spec
            .deployments
            .iter()
            .map(|axis| cache.substrate(axis, &spec.sampling, spec.accumulator))
            .collect();

        // The whole grid as one flat work list.
        let cells = spec.grid.cells();
        let work: Vec<(usize, usize)> = (0..substrates.len())
            .flat_map(|d| (0..cells.len()).map(move |c| (d, c)))
            .collect();
        let attacked: Vec<ScoreAccumulator> = work
            .par_iter()
            .map(|&(d, c)| substrates[d].collect_attacked(&cells[c], spec.accumulator))
            .collect();

        let mut attacked = attacked.into_iter();
        let deployments = spec
            .deployments
            .iter()
            .zip(substrates)
            .map(|(axis, substrate)| DeploymentResult {
                // The spec's label, not the substrate's: cached substrates
                // are shared across scenarios whose axes differ only in
                // label.
                label: axis.label.clone(),
                cells: cells
                    .iter()
                    .map(|cell| CellResult {
                        params: cell.clone(),
                        attacked: attacked.next().expect("one result per work item"),
                    })
                    .collect(),
                substrate,
            })
            .collect();

        ScenarioResult {
            id: spec.id.clone(),
            title: spec.title.clone(),
            deployments,
        }
    }
}

/// Attacked scores of one grid cell on one deployment axis.
pub struct CellResult {
    /// The cell's grid coordinates.
    pub params: CellParams,
    /// The streamed attacked-score distribution.
    pub attacked: ScoreAccumulator,
}

/// All cells of one deployment axis, plus its shared substrate.
pub struct DeploymentResult {
    /// The axis label.
    pub label: String,
    /// The shared substrate (networks, clean scores, engine).
    pub substrate: Arc<Substrate>,
    /// One result per grid cell, in grid order.
    pub cells: Vec<CellResult>,
}

impl DeploymentResult {
    /// The clean score distribution of `metric` on this axis.
    pub fn clean(&self, metric: MetricKind) -> &ScoreAccumulator {
        self.substrate.clean(metric)
    }

    /// The ROC curve of one cell (clean vs attacked).
    pub fn roc(&self, cell: &CellResult) -> RocCurve {
        streaming_roc(self.clean(cell.params.metric), &cell.attacked)
    }

    /// Best detection rate of one cell within a false-positive budget.
    pub fn detection_rate(&self, cell: &CellResult, max_fp: f64) -> f64 {
        self.roc(cell).detection_rate_at_fp(max_fp)
    }

    /// Finds the cell at the given grid coordinates (`attack_label` as in
    /// [`crate::scenario::AttackMix::label`]).
    pub fn find_cell(
        &self,
        metric: MetricKind,
        attack_label: &str,
        damage: f64,
        fraction: f64,
    ) -> Option<&CellResult> {
        self.cells.iter().find(|c| {
            c.params.metric == metric
                && c.params.attack.label() == attack_label
                && c.params.damage == damage
                && c.params.fraction == fraction
        })
    }
}

/// The outcome of one scenario run.
pub struct ScenarioResult {
    /// The spec's identifier.
    pub id: String,
    /// The spec's title.
    pub title: String,
    /// One result per deployment axis, in spec order.
    pub deployments: Vec<DeploymentResult>,
}

impl ScenarioResult {
    /// The result of the only deployment axis (panics when there are
    /// several — use [`Self::deployments`] then).
    pub fn single(&self) -> &DeploymentResult {
        assert_eq!(
            self.deployments.len(),
            1,
            "scenario has {} deployment axes",
            self.deployments.len()
        );
        &self.deployments[0]
    }

    /// The deployment result with the given label.
    pub fn deployment(&self, label: &str) -> Option<&DeploymentResult> {
        self.deployments.iter().find(|d| d.label == label)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::EvalConfig;
    use crate::scenario::spec::{AttackMix, DeploymentAxis, ParamGrid, SamplingPlan};
    use lad_attack::AttackClass;
    use lad_stats::AccumulatorConfig;

    fn tiny_spec() -> ScenarioSpec {
        let base = EvalConfig::bench();
        ScenarioSpec::new(
            "tiny",
            "tiny scenario",
            DeploymentAxis::new("bench", base.deployment),
            ParamGrid {
                metrics: vec![MetricKind::Diff],
                attacks: vec![
                    AttackMix::pure(AttackClass::DecBounded),
                    AttackMix::pure(AttackClass::DecOnly),
                ],
                damages: vec![60.0, 140.0],
                fractions: vec![0.1],
            },
            SamplingPlan {
                networks: base.networks,
                clean_samples_per_network: base.clean_samples_per_network,
                victims_per_network: base.victims_per_network,
                seed: base.seed,
            },
        )
    }

    #[test]
    fn runner_produces_one_cell_result_per_grid_cell() {
        let spec = tiny_spec();
        let result = ScenarioRunner::new(&spec).run();
        let dep = result.single();
        assert_eq!(dep.cells.len(), spec.grid.len());
        assert!(
            dep.clean(MetricKind::Diff).count() > 0,
            "clean side collected"
        );
        for cell in &dep.cells {
            assert_eq!(
                cell.attacked.count() as usize,
                spec.sampling.total_victims()
            );
            let auc = dep.roc(cell).auc();
            assert!((0.0..=1.0).contains(&auc));
        }
        // Qualitative: more damage is easier to detect.
        let small = dep
            .find_cell(MetricKind::Diff, "dec-bounded", 60.0, 0.1)
            .unwrap();
        let large = dep
            .find_cell(MetricKind::Diff, "dec-bounded", 140.0, 0.1)
            .unwrap();
        assert!(dep.detection_rate(large, 0.05) + 1e-9 >= dep.detection_rate(small, 0.05));
    }

    #[test]
    fn reruns_are_bit_deterministic_even_when_binned() {
        let mut spec = tiny_spec();
        spec.accumulator = AccumulatorConfig {
            exact_limit: 8, // force the binned path
            ..AccumulatorConfig::default()
        };
        let a = ScenarioRunner::new(&spec).run();
        let b = ScenarioRunner::new(&spec).run();
        for (da, db) in a.deployments.iter().zip(&b.deployments) {
            for metric in MetricKind::ALL {
                assert_eq!(da.clean(metric), db.clean(metric));
            }
            for (ca, cb) in da.cells.iter().zip(&db.cells) {
                assert_eq!(ca.attacked, cb.attacked);
            }
        }
    }

    #[test]
    fn streaming_results_match_exact_results_within_the_documented_bound() {
        let exact_spec = tiny_spec().with_accumulator(AccumulatorConfig::exact());
        let binned_spec = tiny_spec().with_accumulator(AccumulatorConfig {
            exact_limit: 0,
            ..AccumulatorConfig::default()
        });
        let exact = ScenarioRunner::new(&exact_spec).run();
        let binned = ScenarioRunner::new(&binned_spec).run();
        let (de, db) = (exact.single(), binned.single());
        for (ce, cb) in de.cells.iter().zip(&db.cells) {
            let (roc_e, roc_b) = (de.roc(ce), db.roc(cb));
            let eps = db
                .clean(cb.params.metric)
                .max_bin_fraction()
                .min(cb.attacked.max_bin_fraction());
            assert!(
                (roc_e.auc() - roc_b.auc()).abs() <= eps + 1e-9,
                "cell {:?}: exact AUC {} vs binned {} (eps {eps})",
                cb.params,
                roc_e.auc(),
                roc_b.auc()
            );
            let dr_deficit = cb.attacked.max_bin_fraction();
            let (dr_e, dr_b) = (
                roc_e.detection_rate_at_fp(0.05),
                roc_b.detection_rate_at_fp(0.05),
            );
            assert!(dr_b <= dr_e + 1e-9 && dr_b >= dr_e - dr_deficit - 1e-9);
        }
    }

    #[test]
    fn shared_cache_reuses_substrates_across_scenarios() {
        let cache = SubstrateCache::new();
        let spec_a = tiny_spec();
        let mut spec_b = tiny_spec();
        spec_b.id = "other".into();
        spec_b.grid = ParamGrid::single(MetricKind::Diff, AttackClass::DecBounded, 100.0, 0.2);
        let a = ScenarioRunner::with_cache(&spec_a, &cache).run();
        let b = ScenarioRunner::with_cache(&spec_b, &cache).run();
        assert_eq!(cache.len(), 1, "one shared deployment point");
        assert!(Arc::ptr_eq(&a.single().substrate, &b.single().substrate));
    }

    /// The Diff detection rate at FP ≤ 5% of each `(attack, damage)` cell at
    /// fraction 0.1, with exact accumulators.
    fn exact_diff_detection_rates(attacks: &[AttackClass], damages: &[f64]) -> Vec<f64> {
        let mut spec = tiny_spec().with_accumulator(AccumulatorConfig::exact());
        spec.grid = ParamGrid {
            metrics: vec![MetricKind::Diff],
            attacks: attacks
                .iter()
                .map(|&class| AttackMix::pure(class))
                .collect(),
            damages: damages.to_vec(),
            fractions: vec![0.1],
        };
        let result = ScenarioRunner::new(&spec).run();
        let dep = result.single();
        let mut rates = Vec::new();
        for &class in attacks {
            for &damage in damages {
                let cell = dep
                    .find_cell(MetricKind::Diff, class.name(), damage, 0.1)
                    .unwrap();
                rates.push(dep.detection_rate(cell, 0.05));
            }
        }
        rates
    }

    #[test]
    fn large_damage_is_detected_better_than_small_damage() {
        let rates = exact_diff_detection_rates(&[AttackClass::DecBounded], &[40.0, 160.0]);
        let (dr_small, dr_large) = (rates[0], rates[1]);
        assert!(
            dr_large >= dr_small,
            "DR should not decrease with damage: {dr_small} -> {dr_large}"
        );
        assert!(
            dr_large > 0.8,
            "large-damage attacks should be detected, DR = {dr_large}"
        );
    }

    #[test]
    fn dec_only_is_easier_to_detect_than_dec_bounded() {
        let rates =
            exact_diff_detection_rates(&[AttackClass::DecBounded, AttackClass::DecOnly], &[80.0]);
        let (dr_bounded, dr_only) = (rates[0], rates[1]);
        assert!(
            dr_only + 1e-9 >= dr_bounded,
            "Dec-Only ({dr_only}) should be at least as detectable as Dec-Bounded ({dr_bounded})"
        );
    }

    #[test]
    fn single_cell_roc_is_well_formed() {
        let mut spec = tiny_spec().with_accumulator(AccumulatorConfig::exact());
        spec.grid = ParamGrid::single(MetricKind::Diff, AttackClass::DecBounded, 120.0, 0.1);
        let result = ScenarioRunner::new(&spec).run();
        let dep = result.single();
        let auc = dep.roc(&dep.cells[0]).auc();
        assert!((0.0..=1.0).contains(&auc));
        assert!(
            auc > 0.5,
            "the detector should beat chance at D = 120 (AUC {auc})"
        );
    }

    #[test]
    fn mixed_attack_workloads_interpolate_between_pure_classes() {
        let mut spec = tiny_spec();
        spec.grid = ParamGrid {
            metrics: vec![MetricKind::Diff],
            attacks: vec![
                AttackMix::pure(AttackClass::DecBounded),
                AttackMix::pure(AttackClass::DecOnly),
                AttackMix::weighted(
                    "mixed-50-50",
                    vec![(AttackClass::DecBounded, 1), (AttackClass::DecOnly, 1)],
                ),
            ],
            damages: vec![80.0],
            fractions: vec![0.1],
        };
        let result = ScenarioRunner::new(&spec).run();
        let dep = result.single();
        let dr = |label: &str| {
            let cell = dep.find_cell(MetricKind::Diff, label, 80.0, 0.1).unwrap();
            dep.detection_rate(cell, 0.10)
        };
        let (bounded, only, mixed) = (dr("dec-bounded"), dr("dec-only"), dr("mixed-50-50"));
        // Dec-Only is the easier class to detect; the mixed workload must sit
        // between the two pure workloads (generous slack for sampling noise).
        assert!(only + 1e-9 >= bounded);
        assert!(
            mixed + 0.15 >= bounded && mixed <= only + 0.15,
            "mixed {mixed} should sit between {bounded} and {only}"
        );
    }
}
