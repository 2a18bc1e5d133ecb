//! The three LAD detection metrics (§5.2–5.4 of the paper).
//!
//! The metric set is closed: [`MetricKind`] names the paper's three metrics
//! and scores them directly — [`MetricKind::score`] is the dense reference,
//! [`MetricKind::score_sparse`] its O(k + nnz) sibling, and
//! [`score_all_fused_sparse`] all three in one pass (the serving hot path).
//! All share a single convention: **larger scores are more anomalous**, and
//! a detector raises an alarm when `score > threshold`. The Diff and Add-all
//! metrics already have that orientation; the probability metric (where
//! *small* likelihood means anomaly) is mapped to a score by negating the
//! log of the smallest per-group likelihood.
//!
//! # The sparse walk
//!
//! Every sparse kernel visits `(o_i, µ_i)` over `support(µ) ∪ nonzero(o)`
//! in ascending group order. It does so through a caller-owned
//! [`ObsScratch`]: the row's nonzero counts are scattered into a dense
//! per-group array, µ's support is walked reading `o_i` from that array,
//! and the row's slots are cleared again. The walk counts the nonzero
//! entries it met; when that count equals the row's, every observed group
//! lies inside the support, so the walk visited exactly the groups the
//! sorted merge of the two sides would, in the same order and with the same
//! `o as f64` operands — the same bits. Otherwise (an observed group outside
//! the support, including every nonempty row against an empty support) the
//! row is scored again by that merge. The walk has no data-dependent branch,
//! where the merge's `o_g < g` / `o_g == g` tests mispredict.

use lad_deployment::MuView;
use lad_net::{ObsRow, Observation};
use lad_stats::Binomial;
use serde::{Deserialize, Serialize};

/// Which of the paper's metrics is in use.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum MetricKind {
    /// The Difference metric `DM = Σ |o_i − µ_i|` (§5.2).
    Diff,
    /// The Add-all metric `AM = Σ max(o_i, µ_i)` (§5.3). The union
    /// observation `t_i = max(o_i, µ_i)` grows when the actual and the
    /// expected observations disagree about *which* groups should be
    /// visible, so its total is an anomaly indicator.
    AddAll,
    /// The Probability metric `min_i Pr(X_i = o_i | L_e)` with
    /// `X_i ~ Binomial(m, g_i(L_e))` (§5.4), scored as `−ln(min_i Pr)` so
    /// that "larger is more anomalous" holds like the other metrics.
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

    /// Anomaly score for observation `obs` against the dense expected
    /// observation `mu`, where `group_size` is the per-group node count `m`
    /// — the O(n) reference every sparse kernel is proven against
    /// (`tests/sparse_exactness.rs`).
    pub fn score(self, obs: &Observation, mu: &[f64], group_size: usize) -> f64 {
        // Lengths are validated once per batch at the engine boundary (and
        // by `ObservationBatch::push`), not per score.
        debug_assert_eq!(
            obs.group_count(),
            mu.len(),
            "observation/expectation length mismatch"
        );
        let pairs = obs.counts().iter().zip(mu);
        match self {
            MetricKind::Diff => pairs.map(|(&o, &m)| (o as f64 - m).abs()).sum(),
            MetricKind::AddAll => pairs.map(|(&o, &m)| (o as f64).max(m)).sum(),
            MetricKind::Probability => (-min_ln_probability(obs, mu, group_size)).min(NEG_LN_FLOOR),
        }
    }

    /// Scores a sparse batch row against a sparse expected observation in
    /// O(k + nnz) — k support groups plus the observation's nonzeros —
    /// instead of O(n). `scratch` is the dense observation the row is
    /// walked through (see the [module docs](self)); it is all zero again
    /// on return.
    ///
    /// Bit-identical to densifying both sides and calling [`Self::score`]:
    /// groups outside `support ∪ nonzero(o)` contribute exactly
    /// `|0 − 0.0| = max(0, 0.0) = 0.0` to Diff/Add-all and are skipped by
    /// the probability min (see [`score_all_fused_sparse`]).
    pub fn score_sparse(self, row: ObsRow<'_>, mu: MuView<'_>, scratch: &mut ObsScratch) -> f64 {
        match self {
            MetricKind::Diff => {
                fold_scored_groups(row, mu, &mut scratch.counts, 0.0f64, |dm, o, mui| {
                    dm + (o as f64 - mui).abs()
                })
            }
            MetricKind::AddAll => {
                fold_scored_groups(row, mu, &mut scratch.counts, 0.0f64, |am, o, mui| {
                    am + (o as f64).max(mui)
                })
            }
            MetricKind::Probability => {
                (-min_ln_probability_sparse(row, mu, scratch)).min(NEG_LN_FLOOR)
            }
        }
    }
}

/// The dense observation scratch every sparse kernel walks a row through:
/// one count slot per deployment group, **all zero between rows**.
///
/// A kernel scatters the row's nonzero counts into it, reads them back
/// while walking µ's support, and clears exactly the slots it wrote, so one
/// scratch serves any number of rows with no allocation and no O(n) reset.
/// It grows on first use to the row's group count.
#[derive(Debug, Clone, Default)]
pub struct ObsScratch {
    counts: Vec<u32>,
    /// The fused kernel's µ of each observed group, in row order (0.0
    /// outside the support); overwritten by every row, never read across
    /// rows.
    observed_mu: Vec<f64>,
}

impl ObsScratch {
    /// An empty scratch; it grows to the group count of the first row.
    pub fn new() -> Self {
        Self::default()
    }

    /// True when every slot is zero — the state every kernel leaves it in.
    pub fn is_clear(&self) -> bool {
        self.counts.iter().all(|&c| c == 0)
    }
}

/// The smallest per-group `ln Pr(X_i = o_i | L_e)` — the probability
/// metric's hot-path quantity. Working in log space keeps the whole scan to
/// one `exp`-free pass (minimising `ln Pr` and minimising `Pr` pick the
/// same group).
///
/// Groups with `o_i = 0` are reduced to a **single** pmf evaluation:
/// `ln Pr(X = 0 | µ) = m·ln(1 − µ/m)` is monotonically decreasing in `µ`,
/// so among zero-observation groups only the largest `µ` can attain the min
/// (see `ZeroObsMin`). That turns a one-`ln`-per-visible-group scan into
/// `nnz(o)` full evaluations plus one, and every kernel — this one, the
/// sparse one and the fused pass — applies the identical reduction, so
/// their scores agree bit for bit by construction.
fn min_ln_probability(obs: &Observation, mu: &[f64], group_size: usize) -> f64 {
    let pmf = TabledLnPmf::new(group_size);
    let mut min_ln_p = 0.0f64;
    let mut zero_obs = ZeroObsMin::new();
    for (&o, &mui) in obs.counts().iter().zip(mu) {
        if o == 0 {
            // Pr(X = 0) = 1 for µ = 0 can never be the minimum; for µ > 0
            // only the largest µ can (monotonicity) — defer it.
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

/// O(k + nnz) sparse sibling of `min_ln_probability`.
///
/// Groups outside `support ∪ nonzero(o)` have `o = 0` and `µ = 0.0`, which
/// the dense kernel's zero-p guard skips anyway (`Pr = 1` can never be the
/// minimum), so the min ranges over the identical set of evaluations and
/// the result is bit-identical.
fn min_ln_probability_sparse(row: ObsRow<'_>, mu: MuView<'_>, scratch: &mut ObsScratch) -> f64 {
    let pmf = TabledLnPmf::new(mu.group_size());
    let (min_ln_p, zero_obs) = fold_scored_groups(
        row,
        mu,
        &mut scratch.counts,
        (0.0f64, ZeroObsMin::new()),
        |(min_ln_p, mut zero_obs), o, mui| {
            if o == 0 {
                zero_obs.see(mui);
                return (min_ln_p, zero_obs);
            }
            let ln_p = pmf.eval(o, mui);
            (if ln_p < min_ln_p { ln_p } else { min_ln_p }, zero_obs)
        },
    );
    zero_obs.fold_into(&pmf, min_ln_p)
}

/// Folds `f` over `(o_i, µ_i)` for every group in `support(µ) ∪ nonzero(o)`,
/// in ascending group order, given a **sparse** observation row — the
/// iteration pattern every sparse kernel shares.
///
/// Every group it skips has `o_i = 0` and `µ_i = 0.0` exactly, so a sum of
/// non-negative per-group terms that are zero at `(0, 0.0)` — the Diff and
/// Add-all metrics — accumulates the *same bits* as the dense pass over all
/// `n` groups (adding `+0.0` to a non-negative IEEE accumulator is the
/// identity), and a min over per-group likelihoods skips exactly the groups
/// the dense kernel's `(o, µ) = (0, 0)` guard skips.
///
/// The dense walk: the row's counts are scattered into `dense` (an
/// [`ObsScratch`]'s all-zero count slots), µ's support is walked reading
/// `o_i = dense[g]`, and the row's slots are cleared. Each nonzero
/// `dense[g]` the walk meets is a row entry inside the support; when it
/// meets all of the row's entries, `support(µ) ∪ nonzero(o)` is just the
/// support, so the walk made the merge's exact calls of `f` in the merge's
/// order and its result is the merge's, bit for bit. When it met fewer, the walk's result is discarded and the row is
/// folded again by [`merge_scored_groups`] from `init`. Indexing is
/// bounds-checked: a row whose groups exceed its group count panics.
#[inline(always)]
fn fold_scored_groups<S: Copy>(
    row: ObsRow<'_>,
    mu: MuView<'_>,
    dense: &mut Vec<u32>,
    init: S,
    mut f: impl FnMut(S, u32, f64) -> S,
) -> S {
    debug_assert_eq!(
        row.group_count,
        mu.group_count(),
        "observation/expectation group-count mismatch"
    );
    if dense.len() < row.group_count {
        dense.resize(row.group_count, 0);
    }
    for (&g, &c) in row.groups.iter().zip(row.counts) {
        dense[g as usize] = c;
    }
    let (sg, sv) = support(mu);
    let mut met = 0usize;
    let mut acc = init;
    for (&g, &mui) in sg.iter().zip(sv) {
        let o = dense[g as usize];
        met += usize::from(o != 0);
        acc = f(acc, o, mui);
    }
    for &g in row.groups {
        dense[g as usize] = 0;
    }
    if met == row.groups.len() {
        acc
    } else {
        merge_scored_groups(row, mu, init, f)
    }
}

/// The sorted merge of `support(µ) ∪ nonzero(o)` — [`fold_scored_groups`]'
/// fallback for rows that observe a group outside µ's support.
#[cold]
fn merge_scored_groups<S>(
    row: ObsRow<'_>,
    mu: MuView<'_>,
    init: S,
    mut f: impl FnMut(S, u32, f64) -> S,
) -> S {
    let (sg, sv) = support(mu);
    let (og, oc) = (row.groups, row.counts);
    let mut acc = init;
    let mut oi = 0usize;
    for (&g, &mui) in sg.iter().zip(sv) {
        while oi < og.len() && og[oi] < g {
            acc = f(acc, oc[oi], 0.0);
            oi += 1;
        }
        if oi < og.len() && og[oi] == g {
            acc = f(acc, oc[oi], mui);
            oi += 1;
        } else {
            acc = f(acc, 0, mui);
        }
    }
    while oi < og.len() {
        acc = f(acc, oc[oi], 0.0);
        oi += 1;
    }
    acc
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
#[derive(Clone, Copy)]
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
/// kernels — one definition, so every path is the same float program.
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
/// Returns `[DM, AM, −ln min Pr]` in [`MetricKind::ALL`] order. `scratch`
/// is the dense observation the Diff/Add-all pass walks the row through
/// (see the [module docs](self)); it is all zero again on return.
///
/// Only the µ support (`k` groups within the g(z) tail `z_max` of the
/// estimate) and the observation's nonzeros are visited; every skipped
/// group contributes exactly `(o, µ) = (0, 0.0)`, which adds `+0.0` to the
/// Diff/Add-all accumulators (the IEEE identity) and is excluded from the
/// probability min by the dense kernel's own zero-p guard. The result is
/// therefore **bit-identical** to each metric's dense [`MetricKind::score`]
/// over the densified inputs (same accumulation order per metric) —
/// asserted by proptest in `tests/sparse_exactness.rs` — while the work no
/// longer scales with the group count `n`.
pub fn score_all_fused_sparse(
    row: ObsRow<'_>,
    mu: MuView<'_>,
    scratch: &mut ObsScratch,
) -> [f64; 3] {
    // Two passes: the first carries only cheap float ops (a small loop
    // body), the second the expensive pmf evaluations over exactly the
    // groups that need one — `nnz(o)` full evaluations plus the single
    // deferred zero-observation one.
    //
    // Pass 1 — Diff/Add-all over `support ∪ nonzero(o)` in ascending group
    // order, plus the largest zero-observation µ. Each visited group's µ is
    // also stored at the count of nonzero groups visited before it, so the
    // observed groups' µ (0.0 outside the support) end up compacted in row
    // order; the stores at zero-observation groups are overwritten.
    let ObsScratch {
        counts,
        observed_mu,
    } = scratch;
    if observed_mu.len() <= row.group_count {
        observed_mu.resize(row.group_count + 1, 0.0);
    }
    let (dm, am, zero_obs, _) = fold_scored_groups(
        row,
        mu,
        counts,
        (0.0f64, 0.0f64, ZeroObsMin::new(), 0usize),
        |(dm, am, mut zero_obs, observed), o, mui| {
            observed_mu[observed] = mui;
            let of = o as f64;
            // `see(0.0)` never moves the max (it starts at 0.0), so
            // observed groups can pass it without a data-dependent branch.
            zero_obs.see(if o == 0 { mui } else { 0.0 });
            let observed = observed + usize::from(o != 0);
            (dm + (of - mui).abs(), am + of.max(mui), zero_obs, observed)
        },
    );

    // Pass 2 — probability: one full pmf evaluation per observation
    // nonzero, in row order, then the deferred zero-observation evaluation.
    let pmf = TabledLnPmf::new(mu.group_size());
    let mut min_ln_p = 0.0f64;
    for (&o, &mui) in row.counts.iter().zip(observed_mu.iter()) {
        let ln_p = pmf.eval(o, mui);
        if ln_p < min_ln_p {
            min_ln_p = ln_p;
        }
    }
    let min_ln_p = zero_obs.fold_into(&pmf, min_ln_p);
    [dm, am, (-min_ln_p).min(NEG_LN_FLOOR)]
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_deployment::{DeploymentConfig, DeploymentKnowledge};
    use lad_geometry::Point2;
    use proptest::prelude::*;

    fn mu_and_matching_obs() -> (Vec<f64>, Observation) {
        let mu = vec![0.0, 2.0, 5.0, 10.0, 0.5];
        let obs = Observation::from_counts(vec![0, 2, 5, 10, 1]);
        (mu, obs)
    }

    #[test]
    fn diff_metric_matches_hand_computation() {
        let (mu, obs) = mu_and_matching_obs();
        let dm = MetricKind::Diff.score(&obs, &mu, 300);
        assert!((dm - 0.5).abs() < 1e-12);
        let shifted = Observation::from_counts(vec![3, 2, 5, 10, 1]);
        assert!((MetricKind::Diff.score(&shifted, &mu, 300) - 3.5).abs() < 1e-12);
    }

    #[test]
    fn addall_metric_matches_hand_computation() {
        let (mu, obs) = mu_and_matching_obs();
        // max per group: 0, 2, 5, 10, 1 -> 18
        assert!((MetricKind::AddAll.score(&obs, &mu, 300) - 18.0).abs() < 1e-12);
        // Moving observations to the "wrong" groups inflates the union.
        let wrong = Observation::from_counts(vec![10, 0, 0, 0, 8]);
        assert!(MetricKind::AddAll.score(&wrong, &mu, 300) > 25.0);
    }

    #[test]
    fn probability_metric_prefers_likely_observations() {
        let m = 300usize;
        let mu = vec![15.0, 3.0, 0.1];
        let likely = Observation::from_counts(vec![15, 3, 0]);
        let unlikely = Observation::from_counts(vec![40, 3, 0]);
        let ln_p_likely = min_ln_probability(&likely, &mu, m);
        let ln_p_unlikely = min_ln_probability(&unlikely, &mu, m);
        assert!(ln_p_likely > ln_p_unlikely);
        // Score orientation: unlikely observation scores higher.
        let p = MetricKind::Probability;
        assert!(p.score(&unlikely, &mu, m) > p.score(&likely, &mu, m));
    }

    #[test]
    #[should_panic]
    #[cfg(debug_assertions)] // length checks are debug-only in the hot loop
    fn mismatched_lengths_panic() {
        let _ = MetricKind::Diff.score(&Observation::zeros(2), &[1.0, 2.0, 3.0], 300);
    }

    #[test]
    fn metric_kind_round_trips() {
        for kind in MetricKind::ALL {
            let json = serde_json::to_string(&kind).unwrap();
            assert_eq!(serde_json::from_str::<MetricKind>(&json).unwrap(), kind);
            assert!(!kind.name().is_empty());
        }
    }

    #[test]
    fn score_at_uses_the_expected_observation_at_the_estimate() {
        let k = DeploymentKnowledge::from_config(&DeploymentConfig::small_test());
        let p = Point2::new(150.0, 250.0);
        let mu = k.expected_observation(p);
        let obs = crate::expected::rounded_expected(&mu);
        let m = k.group_size();
        let diff = MetricKind::Diff;
        // An observation that matches the expectation at P scores low at P …
        let at_p = diff.score(&obs, &mu, m);
        // … and much higher at a distant point Q.
        let at_q = diff.score(&obs, &k.expected_observation(Point2::new(350.0, 50.0)), m);
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
        let m = k.group_size();
        let mu_near = k.expected_observation(Point2::new(210.0, 205.0));
        let mu_far = k.expected_observation(Point2::new(360.0, 40.0));
        for kind in MetricKind::ALL {
            let near = kind.score(&obs, &mu_near, m);
            let far = kind.score(&obs, &mu_far, m);
            assert!(
                far > near,
                "{}: far score {far} should exceed near score {near}",
                kind.name()
            );
        }
    }

    #[test]
    fn sparse_min_ln_probability_matches_dense_beyond_the_score_floor() {
        // The scores clamp at `NEG_LN_FLOOR`, so score equality alone would
        // hide a sparse/dense disagreement below ln(1e-300): compare the
        // unclamped minimum, on saturated observations that cross it.
        let k = DeploymentKnowledge::from_config(&DeploymentConfig::small_test());
        let (n, m) = (k.group_count(), k.group_size());
        let mut smu = lad_deployment::SparseMu::new();
        let mut scratch = ObsScratch::new();
        for obs in [
            Observation::zeros(n),
            Observation::from_counts(vec![m as u32; n]),
            Observation::from_counts((0..n as u32).map(|g| g * 7 % 40).collect()),
        ] {
            for at in [Point2::new(120.0, 80.0), Point2::new(10.0, 390.0)] {
                let mut batch = lad_net::ObservationBatch::new(n);
                batch.push(&obs, at);
                k.expected_sparse_into(at, &mut smu);
                let dense = min_ln_probability(&obs, &k.expected_observation(at), m);
                let sparse = min_ln_probability_sparse(batch.row(0), smu.view(), &mut scratch);
                assert_eq!(dense.to_bits(), sparse.to_bits(), "{dense} vs {sparse}");
            }
        }
        let saturated = Observation::from_counts(vec![m as u32; n]);
        let at = Point2::new(120.0, 80.0);
        assert!(min_ln_probability(&saturated, &k.expected_observation(at), m) < -NEG_LN_FLOOR);
    }

    proptest! {
        #[test]
        fn prop_diff_zero_only_on_exact_match(counts in proptest::collection::vec(0u32..30, 6)) {
            let mu: Vec<f64> = counts.iter().map(|&c| c as f64).collect();
            let obs = Observation::from_counts(counts.clone());
            prop_assert_eq!(MetricKind::Diff.score(&obs, &mu, 100), 0.0);
        }

        #[test]
        fn prop_addall_at_least_max_of_totals(
            counts in proptest::collection::vec(0u32..30, 6),
            mu in proptest::collection::vec(0.0f64..30.0, 6),
        ) {
            let obs = Observation::from_counts(counts);
            let am = MetricKind::AddAll.score(&obs, &mu, 100);
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
            let p = min_ln_probability(&obs, &mu, 60).exp();
            prop_assert!((0.0..=1.0).contains(&p));
        }
    }
}
