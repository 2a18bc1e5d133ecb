//! The three LAD detection metrics (§5.2–5.4 of the paper).
//!
//! All metrics are exposed through [`DetectionMetric`] under a single
//! convention: **larger scores are more anomalous**, and a detector raises an
//! alarm when `score > threshold`. The Diff and Add-all metrics already have
//! that orientation; the probability metric (where *small* likelihood means
//! anomaly) is mapped to a score by negating the log of the smallest
//! per-group likelihood.

use crate::expected::{l1_deviation, ExpectedObservation};
use lad_deployment::{DeploymentKnowledge, MuView};
use lad_geometry::Point2;
use lad_net::{ObsRow, Observation};
use lad_stats::Binomial;
use serde::{Deserialize, Serialize};

/// Which of the paper's metrics is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// The Difference metric `DM = Σ |o_i − µ_i|` (§5.2).
    Diff,
    /// The Add-all metric `AM = Σ max(o_i, µ_i)` (§5.3).
    AddAll,
    /// The Probability metric `min_i Pr(X_i = o_i | L_e)` (§5.4).
    Probability,
}

impl MetricKind {
    /// All three metrics, in paper order.
    pub const ALL: [MetricKind; 3] = [
        MetricKind::Diff,
        MetricKind::AddAll,
        MetricKind::Probability,
    ];

    /// Short human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            MetricKind::Diff => "diff",
            MetricKind::AddAll => "add-all",
            MetricKind::Probability => "probability",
        }
    }

    /// Instantiates the metric.
    pub fn metric(self) -> Box<dyn DetectionMetric> {
        match self {
            MetricKind::Diff => Box::new(DiffMetric),
            MetricKind::AddAll => Box::new(AddAllMetric),
            MetricKind::Probability => Box::new(ProbabilityMetric),
        }
    }
}

/// A detection metric: maps (observation, expected observation) to an anomaly
/// score where larger values are more anomalous.
pub trait DetectionMetric: Send + Sync {
    /// Which metric this is.
    fn kind(&self) -> MetricKind;

    /// Anomaly score for observation `obs` against the expected observation
    /// `mu`, where `group_size` is the per-group node count `m`.
    fn score(&self, obs: &Observation, mu: &[f64], group_size: usize) -> f64;

    /// Scores `obs` against a pre-computed dense expected observation:
    /// `µ(L_e)` is computed once per estimate (see [`ExpectedObservation`])
    /// and shared by every metric, instead of being recomputed per metric
    /// as [`Self::score_at`] does.
    fn score_from_expected(&self, expected: &ExpectedObservation, obs: &Observation) -> f64 {
        self.score(obs, expected.mu(), expected.group_size())
    }

    /// Scores a sparse batch row against a sparse expected observation in
    /// O(k + nnz) — k support groups plus the observation's nonzeros —
    /// instead of O(n).
    ///
    /// Bit-identical to densifying both sides and calling [`Self::score`]
    /// (see the [sparse-kernel notes](score_all_fused_sparse)). The default
    /// implementation does exactly that densification as a correctness
    /// fallback; the three built-in metrics override it with allocation-free
    /// sparse kernels.
    fn score_sparse(&self, row: ObsRow<'_>, mu: MuView<'_>) -> f64 {
        self.score(&row.to_observation(), &mu.to_dense(), mu.group_size())
    }

    /// Convenience: compute `µ(L_e)` from the knowledge and score against it.
    fn score_at(
        &self,
        knowledge: &DeploymentKnowledge,
        obs: &Observation,
        estimate: Point2,
    ) -> f64 {
        let mu = knowledge.expected_observation(estimate);
        self.score(obs, &mu, knowledge.group_size())
    }
}

/// Visits `(o_i, µ_i)` for every group in `support(µ) ∪ nonzero(o)`, in
/// ascending group order, given a **sparse** observation row.
///
/// This is the iteration pattern all sparse kernels share. Every group it
/// skips has `o_i = 0` and `µ_i = 0.0` exactly, so a sum of non-negative
/// per-group terms that are zero at `(0, 0.0)` — the Diff and Add-all
/// metrics — accumulates the *same bits* as the dense pass over all `n`
/// groups (adding `+0.0` to a non-negative IEEE accumulator is the
/// identity), and a min over per-group likelihoods skips exactly the groups
/// the dense kernel's `(o, µ) = (0, 0)` guard skips.
#[inline]
fn for_each_scored_group<F: FnMut(u32, f64)>(row: ObsRow<'_>, mu: MuView<'_>, mut f: F) {
    debug_assert_eq!(
        row.group_count,
        mu.group_count(),
        "observation/expectation group-count mismatch"
    );
    let mut oi = 0usize;
    for (&g, &mui) in mu.groups().iter().zip(mu.values()) {
        while oi < row.groups.len() && row.groups[oi] < g {
            f(row.counts[oi], 0.0);
            oi += 1;
        }
        if oi < row.groups.len() && row.groups[oi] == g {
            f(row.counts[oi], mui);
            oi += 1;
        } else {
            f(0, mui);
        }
    }
    while oi < row.groups.len() {
        f(row.counts[oi], 0.0);
        oi += 1;
    }
}

/// The Difference metric `DM = Σ_i |o_i − µ_i|`.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct DiffMetric;

impl DetectionMetric for DiffMetric {
    fn kind(&self) -> MetricKind {
        MetricKind::Diff
    }

    fn score(&self, obs: &Observation, mu: &[f64], _group_size: usize) -> f64 {
        l1_deviation(obs, mu)
    }

    /// O(k + nnz) sparse kernel: groups outside `support ∪ nonzero(o)`
    /// contribute exactly `|0 − 0.0| = 0.0` and are skipped.
    fn score_sparse(&self, row: ObsRow<'_>, mu: MuView<'_>) -> f64 {
        let mut dm = 0.0f64;
        for_each_scored_group(row, mu, |o, mui| dm += (o as f64 - mui).abs());
        dm
    }
}

/// The Add-all metric `AM = Σ_i max(o_i, µ_i)`.
///
/// The union observation `t_i = max(o_i, µ_i)` grows when the actual and the
/// expected observations disagree about *which* groups should be visible, so
/// its total is an anomaly indicator (§5.3).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct AddAllMetric;

impl DetectionMetric for AddAllMetric {
    fn kind(&self) -> MetricKind {
        MetricKind::AddAll
    }

    fn score(&self, obs: &Observation, mu: &[f64], _group_size: usize) -> f64 {
        // Hot loop: lengths are validated once per batch at the engine
        // boundary (and by `ObservationBatch::push`), not per score.
        debug_assert_eq!(
            obs.group_count(),
            mu.len(),
            "observation/expectation length mismatch"
        );
        obs.counts()
            .iter()
            .zip(mu)
            .map(|(&o, &m)| (o as f64).max(m))
            .sum()
    }

    /// O(k + nnz) sparse kernel: groups outside `support ∪ nonzero(o)`
    /// contribute exactly `max(0, 0.0) = 0.0` and are skipped.
    fn score_sparse(&self, row: ObsRow<'_>, mu: MuView<'_>) -> f64 {
        let mut am = 0.0f64;
        for_each_scored_group(row, mu, |o, mui| am += (o as f64).max(mui));
        am
    }
}

/// The Probability metric: the smallest per-group likelihood
/// `min_i Pr(X_i = o_i | L_e)` with `X_i ~ Binomial(m, g_i(L_e))`.
///
/// Exposed as a score via `−ln(min_i Pr)` so that "larger is more anomalous"
/// holds like the other metrics; [`ProbabilityMetric::min_probability`]
/// returns the raw likelihood for callers that want the paper's orientation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct ProbabilityMetric;

impl ProbabilityMetric {
    /// The smallest per-group `ln Pr(X_i = o_i | L_e)` — the hot-path
    /// quantity. Working in log space keeps the whole scan to one `exp`-free
    /// pass (minimising `ln Pr` and minimising `Pr` pick the same group).
    ///
    /// Groups with `o_i = 0` are reduced to a **single** pmf evaluation:
    /// `ln Pr(X = 0 | µ) = m·ln(1 − µ/m)` is monotonically decreasing in
    /// `µ`, so among zero-observation groups only the largest `µ` can
    /// attain the min (see the `ZeroObsMin` helper). That turns the former
    /// one-`ln`-per-visible-group scan into `nnz(o)` full evaluations plus
    /// one, and every kernel — this one, the fused pass, and the sparse
    /// variants — applies the identical reduction, so their scores agree
    /// bit for bit by construction.
    pub fn min_ln_probability(obs: &Observation, mu: &[f64], group_size: usize) -> f64 {
        // Hot loop: lengths are validated once per batch at the engine
        // boundary (and by `ObservationBatch::push`), not per score.
        debug_assert_eq!(
            obs.group_count(),
            mu.len(),
            "observation/expectation length mismatch"
        );
        let pmf = TabledLnPmf::new(group_size);
        let mut min_ln_p = 0.0f64;
        let mut zero_obs = ZeroObsMin::new();
        for (&o, &mui) in obs.counts().iter().zip(mu) {
            if o == 0 {
                // Pr(X = 0) = 1 for µ = 0 can never be the minimum; for
                // µ > 0 only the largest µ can (monotonicity) — defer it.
                zero_obs.see(mui);
                continue;
            }
            let ln_p = pmf.eval(o, mui);
            if ln_p < min_ln_p {
                min_ln_p = ln_p;
            }
        }
        zero_obs.fold_into(&pmf, min_ln_p)
    }

    /// The raw metric of §5.4: the smallest `Pr(X_i = o_i | L_e)` over groups.
    pub fn min_probability(obs: &Observation, mu: &[f64], group_size: usize) -> f64 {
        Self::min_ln_probability(obs, mu, group_size).exp()
    }

    /// O(k + nnz) sparse sibling of [`Self::min_ln_probability`].
    ///
    /// Groups outside `support ∪ nonzero(o)` have `o = 0` and `µ = 0.0`,
    /// which the dense kernel's zero-p guard skips anyway (`Pr = 1` can
    /// never be the minimum), so the min ranges over the identical set of
    /// evaluations and the result is bit-identical.
    pub fn min_ln_probability_sparse(row: ObsRow<'_>, mu: MuView<'_>) -> f64 {
        let pmf = TabledLnPmf::new(mu.group_size());
        let mut min_ln_p = 0.0f64;
        let mut zero_obs = ZeroObsMin::new();
        for_each_scored_group(row, mu, |o, mui| {
            if o == 0 {
                zero_obs.see(mui);
                return;
            }
            let ln_p = pmf.eval(o, mui);
            if ln_p < min_ln_p {
                min_ln_p = ln_p;
            }
        });
        zero_obs.fold_into(&pmf, min_ln_p)
    }
}

impl DetectionMetric for ProbabilityMetric {
    fn kind(&self) -> MetricKind {
        MetricKind::Probability
    }

    fn score(&self, obs: &Observation, mu: &[f64], group_size: usize) -> f64 {
        (-Self::min_ln_probability(obs, mu, group_size)).min(NEG_LN_FLOOR)
    }

    /// O(k + nnz) sparse kernel; see [`ProbabilityMetric::min_ln_probability_sparse`].
    fn score_sparse(&self, row: ObsRow<'_>, mu: MuView<'_>) -> f64 {
        (-Self::min_ln_probability_sparse(row, mu)).min(NEG_LN_FLOOR)
    }
}

/// Score cap of the probability metric: `−ln(1e-300)`, i.e. the minimum
/// likelihood is floored at 1e-300 as the pre-log-space implementation did.
const NEG_LN_FLOOR: f64 = 690.775_527_898_213_7;

/// Deferred minimum over the zero-observation groups of the probability
/// metric: tracks the largest µ seen with `o = 0` and evaluates the pmf for
/// it **once** at the end.
///
/// Correctness: `ln Pr(X = 0 | µ) = m·ln(1 − µ/m)` is monotonically
/// decreasing in `µ`, and every floating-point step of
/// [`TabledLnPmf::eval`]'s `k = 0` path (division by the positive constant
/// `m`, clamp, the `1 − g` complement, `ln`/the small-`g` series, the final
/// positive scaling) is weakly monotone under IEEE round-to-nearest, so the
/// minimum over all zero-observation groups is exactly the evaluation at
/// the largest µ. Every kernel (dense, fused, sparse) routes its
/// zero-observation groups through this same reduction, so their scores are
/// identical bit for bit by construction.
struct ZeroObsMin {
    max_mu: f64,
}

impl ZeroObsMin {
    fn new() -> Self {
        Self { max_mu: 0.0 }
    }

    /// Records one zero-observation group's µ.
    #[inline(always)]
    fn see(&mut self, mui: f64) {
        if mui > self.max_mu {
            self.max_mu = mui;
        }
    }

    /// Folds the deferred evaluation into `min_ln_p`. Groups with `µ = 0`
    /// were `Pr = 1` and can never be the minimum, matching the old
    /// per-group skip.
    #[inline]
    fn fold_into(self, pmf: &TabledLnPmf, min_ln_p: f64) -> f64 {
        if self.max_mu > 0.0 {
            let ln_p = pmf.eval(0, self.max_mu);
            if ln_p < min_ln_p {
                return ln_p;
            }
        }
        min_ln_p
    }
}

/// The binomial `ln Pr(X = o)` evaluator shared by the per-metric and fused
/// hot loops — one definition, so the two paths are the same float program.
///
/// Hoists the ln-factorial table and the `m`/`n` conversions out of the
/// per-group loop; falls back to [`Binomial::ln_pmf`] for group sizes beyond
/// the table.
struct TabledLnPmf {
    m: f64,
    n: u64,
    group_size: usize,
    in_table: bool,
    table: &'static [f64; lad_stats::binomial::LN_FACTORIAL_TABLE_LEN],
}

impl TabledLnPmf {
    fn new(group_size: usize) -> Self {
        Self {
            m: group_size as f64,
            n: group_size as u64,
            group_size,
            in_table: group_size < lad_stats::binomial::LN_FACTORIAL_TABLE_LEN,
            table: lad_stats::binomial::ln_factorial_table(),
        }
    }

    /// `ln Pr(X = o)` with `X ~ Binomial(m, µ_i / m)`.
    #[inline(always)]
    fn eval(&self, o: u32, mui: f64) -> f64 {
        let g = (mui / self.m).clamp(0.0, 1.0);
        let k = o as u64;
        if self.in_table && k <= self.n && g > 0.0 && g < 1.0 {
            if k == 0 {
                // ln Pr(X = 0) = n·ln(1 − g); for tiny g the two-term series
                // is exact to f64 precision and skips the ln entirely.
                let ln_q = if g < 1e-6 {
                    -g * (1.0 + 0.5 * g)
                } else {
                    (1.0 - g).ln()
                };
                self.m * ln_q
            } else {
                let ku = k as usize;
                self.table[self.group_size] - self.table[ku] - self.table[self.group_size - ku]
                    + k as f64 * g.ln()
                    + (self.m - k as f64) * (1.0 - g).ln()
            }
        } else {
            Binomial::new(self.n, g).ln_pmf(k)
        }
    }
}

/// All three paper metrics in one pass over `(o, µ)`.
///
/// Returns `[DM, AM, −ln min Pr]` in [`MetricKind::ALL`] order,
/// **bit-identical** to running [`DiffMetric`], [`AddAllMetric`] and
/// [`ProbabilityMetric`] separately (same accumulation order per metric).
/// This dense O(n) pass is the reference the sparse
/// [`score_all_fused_sparse`] is proven against; every production path
/// scores through the sparse kernel.
pub fn score_all_fused(obs: &Observation, mu: &[f64], group_size: usize) -> [f64; 3] {
    // Hot loop: lengths are validated once per batch at the engine boundary
    // (and by `ObservationBatch::push`), not per score.
    debug_assert_eq!(
        obs.group_count(),
        mu.len(),
        "observation/expectation length mismatch"
    );
    let mut acc = FusedAccumulator::new(group_size);
    for (&o, &mui) in obs.counts().iter().zip(mu) {
        acc.push(o, mui);
    }
    acc.finish()
}

/// The support's parallel id/value slices, the value slice cut to the id
/// slice's length so the merge walks index both without a second bounds
/// check.
#[inline(always)]
fn support(mu: MuView<'_>) -> (&[u32], &[f64]) {
    let groups = mu.groups();
    (groups, &mu.values()[..groups.len()])
}

/// All three paper metrics in one **O(k + nnz)** pass over a sparse batch
/// row and a sparse expected observation — the serving hot path's kernel.
///
/// Only the µ support (`k` groups within the g(z) tail `z_max` of the
/// estimate) and the observation's nonzeros are visited; every skipped
/// group contributes exactly `(o, µ) = (0, 0.0)`, which adds `+0.0` to the
/// Diff/Add-all accumulators (the IEEE identity) and is excluded from the
/// probability min by the dense kernel's own zero-p guard. The result is
/// therefore **bit-identical** to [`score_all_fused`] over the densified
/// inputs — asserted by proptest in `tests/sparse_exactness.rs` — while the
/// work no longer scales with the group count `n`.
pub fn score_all_fused_sparse(row: ObsRow<'_>, mu: MuView<'_>) -> [f64; 3] {
    // Two specialised passes instead of one merged accumulator: the first
    // carries only cheap float ops (predictable, small loop body), the
    // second carries the expensive pmf evaluations over exactly the groups
    // that need one — `nnz(o)` full evaluations plus the single deferred
    // zero-observation one. Merging them into one loop triples the inlined
    // pmf call sites and measurably slows the merge.
    let (sg, sv) = support(mu);
    let (og, oc) = (row.groups, row.counts);

    // Pass 1 — Diff/Add-all over `support ∪ nonzero(o)` in ascending group
    // order, plus the largest zero-observation µ. For groups outside the
    // support, `(o − 0.0).abs()` and `o.max(0.0)` are exactly `o as f64`.
    let mut dm = 0.0f64;
    let mut am = 0.0f64;
    let mut zero_obs = ZeroObsMin::new();
    let mut oi = 0usize;
    for (&g, &mui) in sg.iter().zip(sv) {
        while oi < og.len() && og[oi] < g {
            let of = oc[oi] as f64;
            dm += of;
            am += of;
            oi += 1;
        }
        let o = if oi < og.len() && og[oi] == g {
            let c = oc[oi];
            oi += 1;
            c
        } else {
            0
        };
        let of = o as f64;
        dm += (of - mui).abs();
        am += of.max(mui);
        if o == 0 {
            zero_obs.see(mui);
        }
    }
    while oi < og.len() {
        let of = oc[oi] as f64;
        dm += of;
        am += of;
        oi += 1;
    }

    // Pass 2 — probability: one full pmf evaluation per observation
    // nonzero (µ looked up by a second merge walk; 0.0 when the group is
    // outside the support), then the deferred zero-observation evaluation.
    let pmf = TabledLnPmf::new(mu.group_size());
    let mut min_ln_p = 0.0f64;
    let mut si = 0usize;
    for (&g, &o) in og.iter().zip(oc) {
        while si < sg.len() && sg[si] < g {
            si += 1;
        }
        let mui = if si < sg.len() && sg[si] == g {
            sv[si]
        } else {
            0.0
        };
        let ln_p = pmf.eval(o, mui);
        if ln_p < min_ln_p {
            min_ln_p = ln_p;
        }
    }
    let min_ln_p = zero_obs.fold_into(&pmf, min_ln_p);
    [dm, am, (-min_ln_p).min(NEG_LN_FLOOR)]
}

/// The per-group accumulation of the fused scoring kernel; the binomial part
/// goes through the same [`TabledLnPmf`] as the stand-alone probability
/// metric, so fused and per-metric scores are the same float program.
struct FusedAccumulator {
    pmf: TabledLnPmf,
    dm: f64,
    am: f64,
    min_ln_p: f64,
    zero_obs: ZeroObsMin,
}

impl FusedAccumulator {
    fn new(group_size: usize) -> Self {
        Self {
            pmf: TabledLnPmf::new(group_size),
            dm: 0.0,
            am: 0.0,
            min_ln_p: 0.0,
            zero_obs: ZeroObsMin::new(),
        }
    }

    #[inline(always)]
    fn push(&mut self, o: u32, mui: f64) {
        let of = o as f64;
        self.dm += (of - mui).abs();
        self.am += of.max(mui);
        if o == 0 {
            // Deferred: only the largest zero-observation µ can attain the
            // probability min (see `ZeroObsMin`).
            self.zero_obs.see(mui);
            return;
        }
        let ln_p = self.pmf.eval(o, mui);
        if ln_p < self.min_ln_p {
            self.min_ln_p = ln_p;
        }
    }

    fn finish(self) -> [f64; 3] {
        let min_ln_p = self.zero_obs.fold_into(&self.pmf, self.min_ln_p);
        [self.dm, self.am, (-min_ln_p).min(NEG_LN_FLOOR)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_deployment::DeploymentConfig;
    use proptest::prelude::*;

    fn mu_and_matching_obs() -> (Vec<f64>, Observation) {
        let mu = vec![0.0, 2.0, 5.0, 10.0, 0.5];
        let obs = Observation::from_counts(vec![0, 2, 5, 10, 1]);
        (mu, obs)
    }

    #[test]
    fn diff_metric_matches_hand_computation() {
        let (mu, obs) = mu_and_matching_obs();
        let dm = DiffMetric.score(&obs, &mu, 300);
        assert!((dm - 0.5).abs() < 1e-12);
        let shifted = Observation::from_counts(vec![3, 2, 5, 10, 1]);
        assert!((DiffMetric.score(&shifted, &mu, 300) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn addall_metric_matches_hand_computation() {
        let (mu, obs) = mu_and_matching_obs();
        // max per group: 0, 2, 5, 10, 1 -> 18
        assert!((AddAllMetric.score(&obs, &mu, 300) - 18.0).abs() < 1e-12);
        // Moving observations to the "wrong" groups inflates the union.
        let wrong = Observation::from_counts(vec![10, 0, 0, 0, 8]);
        assert!(AddAllMetric.score(&wrong, &mu, 300) > 25.0);
    }

    #[test]
    fn probability_metric_prefers_likely_observations() {
        let m = 300usize;
        let mu = vec![15.0, 3.0, 0.1];
        let likely = Observation::from_counts(vec![15, 3, 0]);
        let unlikely = Observation::from_counts(vec![40, 3, 0]);
        let p_likely = ProbabilityMetric::min_probability(&likely, &mu, m);
        let p_unlikely = ProbabilityMetric::min_probability(&unlikely, &mu, m);
        assert!(p_likely > p_unlikely);
        // Score orientation: unlikely observation scores higher.
        assert!(
            ProbabilityMetric.score(&unlikely, &mu, m) > ProbabilityMetric.score(&likely, &mu, m)
        );
    }

    #[test]
    fn fused_scores_are_bit_identical_to_separate_metrics() {
        let k = DeploymentKnowledge::from_config(&DeploymentConfig::small_test());
        let m = k.group_size();
        for (obs_seed, at) in [
            (1u64, Point2::new(120.0, 80.0)),
            (2, Point2::new(333.0, 390.0)),
            (3, Point2::new(10.0, 10.0)),
        ] {
            let mu = k.expected_observation(at);
            // A mildly perturbed integer observation around a different point.
            let other = k.expected_observation(Point2::new(200.0, 200.0));
            let obs = Observation::from_counts(
                other
                    .iter()
                    .enumerate()
                    .map(|(i, &v)| (v.round() as u32) + ((obs_seed as usize + i) % 3) as u32)
                    .collect(),
            );
            let fused = score_all_fused(&obs, &mu, m);
            let separate = [
                DiffMetric.score(&obs, &mu, m),
                AddAllMetric.score(&obs, &mu, m),
                ProbabilityMetric.score(&obs, &mu, m),
            ];
            assert_eq!(
                fused, separate,
                "fused scores must match the per-metric path exactly"
            );
        }
    }

    #[test]
    fn metric_kind_round_trips() {
        for kind in MetricKind::ALL {
            assert_eq!(kind.metric().kind(), kind);
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn score_at_uses_the_expected_observation_at_the_estimate() {
        let k = DeploymentKnowledge::from_config(&DeploymentConfig::small_test());
        let p = Point2::new(150.0, 250.0);
        let mu = k.expected_observation(p);
        let obs = crate::expected::rounded_expected(&mu);
        // An observation that matches the expectation at P scores low at P …
        let at_p = DiffMetric.score_at(&k, &obs, p);
        // … and much higher at a distant point Q.
        let at_q = DiffMetric.score_at(&k, &obs, Point2::new(350.0, 50.0));
        assert!(
            at_p < at_q,
            "diff at P {at_p} should be below diff at Q {at_q}"
        );
    }

    #[test]
    fn distant_locations_score_higher_on_all_metrics() {
        // The key premise of LAD (§5): the farther the claimed location is
        // from the true one, the more inconsistent the observation looks.
        let k = DeploymentKnowledge::from_config(&DeploymentConfig::small_test());
        let truth = Point2::new(200.0, 200.0);
        let mu_truth = k.expected_observation(truth);
        let obs = crate::expected::rounded_expected(&mu_truth);
        for kind in MetricKind::ALL {
            let metric = kind.metric();
            let near = metric.score_at(&k, &obs, Point2::new(210.0, 205.0));
            let far = metric.score_at(&k, &obs, Point2::new(360.0, 40.0));
            assert!(
                far > near,
                "{}: far score {far} should exceed near score {near}",
                kind.name()
            );
        }
    }

    proptest! {
        #[test]
        fn prop_diff_zero_only_on_exact_match(counts in proptest::collection::vec(0u32..30, 6)) {
            let mu: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
            let obs = Observation::from_counts(counts.clone());
            prop_assert_eq!(DiffMetric.score(&obs, &mu, 100), 0.0);
        }

        #[test]
        fn prop_addall_at_least_max_of_totals(
            counts in proptest::collection::vec(0u32..30, 6),
            mu in proptest::collection::vec(0.0f64..30.0, 6),
        ) {
            let obs = Observation::from_counts(counts);
            let am = AddAllMetric.score(&obs, &mu, 100);
            let total_o = obs.total() as f64;
            let total_mu: f64 = mu.iter().sum();
            prop_assert!(am + 1e-9 >= total_o.max(total_mu));
            prop_assert!(am <= total_o + total_mu + 1e-9);
        }

        #[test]
        fn prop_probability_metric_is_a_probability(
            counts in proptest::collection::vec(0u32..60, 4),
            mu in proptest::collection::vec(0.0f64..60.0, 4),
        ) {
            let obs = Observation::from_counts(counts);
            let p = ProbabilityMetric::min_probability(&obs, &mu, 60);
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
