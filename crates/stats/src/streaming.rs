//! Streaming score accumulation: ROC / detection-rate / percentile queries
//! in O(bins) memory instead of O(samples).
//!
//! The evaluation of the LAD paper compares a *clean* and an *attacked*
//! score distribution at every point of a parameter grid. Buffering every
//! score in a `Vec<f64>` caps how many Monte-Carlo samples a sweep can
//! afford; a [`ScoreAccumulator`] instead keeps
//!
//! * an **exact buffer** while the sample is small (`exact_limit` values, so
//!   small runs stay bit-identical to the sort-based [`RocCurve`]), and
//! * a **fixed-layout log-domain histogram** once the sample outgrows the
//!   buffer: value `v ≥ 0` lands in bin `⌊bins · ln(1+v) / ln(1+vmax)⌋`,
//!   negative values in a dedicated underflow bin, `v ≥ vmax` in an overflow
//!   bin.
//!
//! The bin layout is a pure function of the [`AccumulatorConfig`] — never of
//! the data — so accumulators can be merged in any grouping with bit-identical
//! results (bin counts are `u64` sums), which is what keeps grid-parallel
//! evaluation deterministic regardless of thread count.
//!
//! # Accuracy bound
//!
//! Every binned operating point is an **exactly achievable** operating point
//! of the underlying sample: "alarm when score ≥ edge" has exactly-known
//! clean/attacked counts. The binned ROC is therefore the exact empirical ROC
//! evaluated on the subset of thresholds that fall on bin edges, which gives
//! hard error bounds in terms of the largest probability mass `ε_c` (clean) /
//! `ε_a` (attacked) that any single bin holds:
//!
//! * **AUC**: `|auc_binned − auc_exact| ≤ min(ε_c, ε_a)`,
//! * **DR at an FP budget**: `dr_exact − ε_a ≤ dr_binned ≤ dr_exact`
//!   (the binned value never overstates the detector),
//! * **quantiles / exceedance**: off by at most one bin, i.e. a relative
//!   value error of `(1+vmax)^(1/bins) − 1` (≈ 0.7 % for the defaults).
//!
//! [`ScoreAccumulator::max_bin_fraction`] reports the realised `ε`, and the
//! property tests below assert the AUC and DR bounds against the exact
//! [`RocCurve`] on random score sets.

use crate::ks::ks_statistic;
use crate::percentile;
use crate::roc::{RocCurve, RocPoint};
use serde::{Deserialize, Serialize};

/// Shape of a [`ScoreAccumulator`]: bin count, log-domain range and the
/// exact-buffer spill threshold. The layout is data-independent so equally
/// configured accumulators merge exactly.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AccumulatorConfig {
    /// Number of interior histogram bins (resolution of the binned mode).
    pub bins: usize,
    /// Keep an exact score buffer until it would exceed this many values;
    /// afterwards spill into the histogram. `usize::MAX` never spills
    /// (exact mode, O(samples) memory — the legacy behaviour).
    pub exact_limit: usize,
    /// Upper edge of the log-domain range; scores `≥ vmax` share the
    /// overflow bin (indistinguishable from each other, all "maximally
    /// anomalous").
    pub vmax: f64,
}

impl Default for AccumulatorConfig {
    fn default() -> Self {
        Self {
            bins: 2048,
            exact_limit: 4096,
            vmax: 1e6,
        }
    }
}

impl AccumulatorConfig {
    /// A configuration that never spills: exact results, O(samples) memory.
    pub fn exact() -> Self {
        Self {
            exact_limit: usize::MAX,
            ..Self::default()
        }
    }

    /// The relative value resolution of the binned mode: scores whose ratio
    /// `(1+a)/(1+b)` is below `1 +` this value may share a bin.
    pub fn relative_resolution(&self) -> f64 {
        ((1.0 + self.vmax).ln() / self.bins as f64).exp_m1()
    }

    /// The bin index of `value` (interior bins only; the caller handles
    /// underflow/overflow).
    fn bin_of(&self, value: f64) -> usize {
        let scaled = value.ln_1p() / (1.0 + self.vmax).ln() * self.bins as f64;
        (scaled as usize).min(self.bins - 1)
    }

    /// The lower edge of interior bin `i` (`i == bins` gives `vmax`).
    fn edge(&self, i: usize) -> f64 {
        (i as f64 / self.bins as f64 * (1.0 + self.vmax).ln()).exp_m1()
    }
}

/// Binned state: interior counts plus saturating edge bins.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct Bins {
    counts: Vec<u64>,
    /// Scores `< 0` (no metric should produce them, but they must not be
    /// silently misfiled).
    underflow: u64,
    /// Scores `≥ vmax`.
    overflow: u64,
}

#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
enum State {
    Exact(Vec<f64>),
    Binned(Bins),
}

/// A streaming accumulator for one score distribution. See the
/// [module docs](self) for the design and accuracy bounds.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScoreAccumulator {
    config: AccumulatorConfig,
    state: State,
}

impl ScoreAccumulator {
    /// Creates an empty accumulator with the given layout.
    pub fn new(config: AccumulatorConfig) -> Self {
        assert!(config.bins > 0, "accumulator needs at least one bin");
        assert!(
            config.vmax.is_finite() && config.vmax > 0.0,
            "vmax must be a positive finite score"
        );
        Self {
            config,
            state: State::Exact(Vec::new()),
        }
    }

    /// The accumulator's layout.
    pub fn config(&self) -> &AccumulatorConfig {
        &self.config
    }

    /// Number of scores accumulated.
    pub fn count(&self) -> u64 {
        match &self.state {
            State::Exact(v) => v.len() as u64,
            State::Binned(b) => b.underflow + b.overflow + b.counts.iter().sum::<u64>(),
        }
    }

    /// The raw scores, available only in exact mode.
    pub fn exact_scores(&self) -> Option<&[f64]> {
        match &self.state {
            State::Exact(v) => Some(v),
            State::Binned(_) => None,
        }
    }

    /// Consumes the accumulator, returning the raw scores when still exact.
    pub fn into_exact_scores(self) -> Option<Vec<f64>> {
        match self.state {
            State::Exact(v) => Some(v),
            State::Binned(_) => None,
        }
    }

    fn spill(&mut self) {
        if let State::Exact(values) = &mut self.state {
            let values = std::mem::take(values);
            let mut bins = Bins {
                counts: vec![0; self.config.bins],
                underflow: 0,
                overflow: 0,
            };
            for v in values {
                Self::bin_add(&self.config, &mut bins, v);
            }
            self.state = State::Binned(bins);
        }
    }

    fn bin_add(config: &AccumulatorConfig, bins: &mut Bins, value: f64) {
        assert!(!value.is_nan(), "NaN score");
        if value < 0.0 {
            bins.underflow += 1;
        } else if value >= config.vmax {
            bins.overflow += 1;
        } else {
            bins.counts[config.bin_of(value)] += 1;
        }
    }

    /// Adds one score.
    pub fn add(&mut self, value: f64) {
        match &mut self.state {
            State::Exact(v) => {
                assert!(!value.is_nan(), "NaN score");
                if v.len() >= self.config.exact_limit {
                    self.spill();
                    self.add(value);
                } else {
                    v.push(value);
                }
            }
            State::Binned(bins) => Self::bin_add(&self.config, bins, value),
        }
    }

    /// Adds every score of `values`.
    pub fn extend<I: IntoIterator<Item = f64>>(&mut self, values: I) {
        for v in values {
            self.add(v);
        }
    }

    /// Merges `other` (same layout) into `self`. Merging is exact in binned
    /// mode (u64 counts add), so any deterministic merge order yields
    /// bit-identical results regardless of how the work was scheduled.
    pub fn merge(&mut self, other: ScoreAccumulator) {
        assert_eq!(
            self.config, other.config,
            "cannot merge accumulators with different layouts"
        );
        match other.state {
            State::Exact(values) => self.extend(values),
            State::Binned(other_bins) => {
                self.spill();
                let State::Binned(bins) = &mut self.state else {
                    unreachable!("spill() leaves the accumulator binned");
                };
                bins.underflow += other_bins.underflow;
                bins.overflow += other_bins.overflow;
                for (a, b) in bins.counts.iter_mut().zip(&other_bins.counts) {
                    *a += b;
                }
            }
        }
    }

    /// The largest fraction of the sample held by any single bin (including
    /// the underflow/overflow bins) — the realised `ε` of the accuracy bound
    /// in the [module docs](self). Exact mode reports 0 (no binning error);
    /// an empty accumulator reports 0.
    pub fn max_bin_fraction(&self) -> f64 {
        match &self.state {
            State::Exact(_) => 0.0,
            State::Binned(bins) => {
                let total = self.count();
                if total == 0 {
                    return 0.0;
                }
                let max = bins
                    .counts
                    .iter()
                    .copied()
                    .chain([bins.underflow, bins.overflow])
                    .max()
                    .unwrap_or(0);
                max as f64 / total as f64
            }
        }
    }

    /// Fraction of scores strictly greater than `threshold`. Exact in exact
    /// mode; in binned mode the threshold is snapped down to its bin's lower
    /// edge (error ≤ that bin's mass, counting "≥ edge" instead of
    /// "> threshold").
    pub fn exceedance_fraction(&self, threshold: f64) -> f64 {
        let total = self.count();
        if total == 0 {
            return 0.0;
        }
        match &self.state {
            State::Exact(v) => percentile::exceedance_fraction(v, threshold),
            State::Binned(bins) => {
                let above = if threshold < 0.0 {
                    total
                } else if threshold >= self.config.vmax {
                    bins.overflow
                } else {
                    let from = self.config.bin_of(threshold);
                    bins.counts[from..].iter().sum::<u64>() + bins.overflow
                };
                above as f64 / total as f64
            }
        }
    }

    /// The `q`-quantile. Exact (type-7 interpolation) in exact mode; in
    /// binned mode the upper edge of the bin where the cumulative count
    /// reaches `q · total` (value error ≤ one bin, see the module docs).
    /// `None` for an empty accumulator.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        assert!((0.0..=1.0).contains(&q), "quantile fraction in [0, 1]");
        let total = self.count();
        if total == 0 {
            return None;
        }
        match &self.state {
            State::Exact(v) => percentile::quantile(v, q),
            State::Binned(bins) => {
                let target = (q * total as f64).ceil().max(1.0) as u64;
                let mut acc = bins.underflow;
                if acc >= target {
                    return Some(0.0);
                }
                for (i, &c) in bins.counts.iter().enumerate() {
                    acc += c;
                    if acc >= target {
                        return Some(self.config.edge(i + 1));
                    }
                }
                Some(self.config.vmax)
            }
        }
    }

    /// Cumulative counts *at or above* each threshold of the shared
    /// threshold ladder: entry `i ∈ 0..=bins` is the number of scores
    /// `≥ edge(i)` (entry `bins` counts only the overflow), preceded by a
    /// sentinel counting everything. Used by the streaming ROC/KS queries.
    fn ladder_counts(&self) -> Vec<u64> {
        let State::Binned(bins) = &self.state else {
            panic!("ladder_counts needs binned state");
        };
        // Suffix sums: above[i] = overflow + sum(counts[i..]).
        let mut above = vec![0u64; self.config.bins + 1];
        above[self.config.bins] = bins.overflow;
        for i in (0..self.config.bins).rev() {
            above[i] = above[i + 1] + bins.counts[i];
        }
        above
    }
}

/// The ROC curve of a clean/attacked accumulator pair (same layout, larger
/// score = more anomalous). Falls back to the exact sort-based
/// [`RocCurve::from_scores`] while both sides are exact; otherwise sweeps
/// the shared bin-edge threshold ladder (see the [module docs](self) for the
/// resulting accuracy bound). Both accumulators must be non-empty.
pub fn streaming_roc(clean: &ScoreAccumulator, attacked: &ScoreAccumulator) -> RocCurve {
    assert_eq!(
        clean.config(),
        attacked.config(),
        "clean/attacked accumulators must share a layout"
    );
    assert!(clean.count() > 0, "need at least one clean score");
    assert!(attacked.count() > 0, "need at least one attacked score");
    if let (Some(c), Some(a)) = (clean.exact_scores(), attacked.exact_scores()) {
        return RocCurve::from_scores(c, a);
    }
    // Force both onto the shared bin layout.
    let (clean, attacked) = (force_binned(clean), force_binned(attacked));
    let (n_c, n_a) = (clean.count() as f64, attacked.count() as f64);
    let (above_c, above_a) = (clean.ladder_counts(), attacked.ladder_counts());
    let config = clean.config();

    let mut points = Vec::with_capacity(config.bins + 3);
    // Below every score (underflow included): everything alarms.
    points.push(RocPoint {
        threshold: -1.0,
        false_positive_rate: 1.0,
        detection_rate: 1.0,
    });
    for i in 0..=config.bins {
        points.push(RocPoint {
            // "alarm when score ≥ edge(i)" — an exactly achievable
            // operating point (equivalent to `> edge(i) − ε`).
            threshold: config.edge(i),
            false_positive_rate: above_c[i] as f64 / n_c,
            detection_rate: above_a[i] as f64 / n_a,
        });
    }
    // Above every score: nothing alarms.
    points.push(RocPoint {
        threshold: f64::INFINITY,
        false_positive_rate: 0.0,
        detection_rate: 0.0,
    });
    RocCurve::from_points(points)
}

/// The Kolmogorov–Smirnov distance between two accumulated distributions:
/// exact while both sides are exact, otherwise the maximum CDF difference
/// over the shared bin-edge ladder (error ≤ the larger per-bin mass).
pub fn streaming_ks(a: &ScoreAccumulator, b: &ScoreAccumulator) -> f64 {
    assert_eq!(a.config(), b.config(), "accumulators must share a layout");
    if a.count() == 0 || b.count() == 0 {
        return 0.0;
    }
    if let (Some(xa), Some(xb)) = (a.exact_scores(), b.exact_scores()) {
        return ks_statistic(xa, xb);
    }
    let (a, b) = (force_binned(a), force_binned(b));
    let (n_a, n_b) = (a.count() as f64, b.count() as f64);
    let (above_a, above_b) = (a.ladder_counts(), b.ladder_counts());
    above_a
        .iter()
        .zip(&above_b)
        .map(|(&ca, &cb)| (ca as f64 / n_a - cb as f64 / n_b).abs())
        .fold(0.0, f64::max)
}

/// A binned copy (no-op clone when already binned).
fn force_binned(acc: &ScoreAccumulator) -> ScoreAccumulator {
    let mut out = acc.clone();
    out.spill();
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    fn forced_binned_config() -> AccumulatorConfig {
        AccumulatorConfig {
            exact_limit: 0,
            ..AccumulatorConfig::default()
        }
    }

    fn accumulate(config: AccumulatorConfig, values: &[f64]) -> ScoreAccumulator {
        let mut acc = ScoreAccumulator::new(config);
        acc.extend(values.iter().copied());
        acc
    }

    #[test]
    fn exact_mode_matches_the_sort_based_roc_bit_for_bit() {
        let clean: Vec<f64> = (0..200).map(|i| (i % 37) as f64).collect();
        let attacked: Vec<f64> = (0..150).map(|i| (i % 53) as f64 + 5.0).collect();
        let config = AccumulatorConfig::exact();
        let roc = streaming_roc(&accumulate(config, &clean), &accumulate(config, &attacked));
        let exact = RocCurve::from_scores(&clean, &attacked);
        assert_eq!(roc.points(), exact.points());
    }

    #[test]
    fn spill_preserves_counts_and_happens_at_the_limit() {
        let config = AccumulatorConfig {
            exact_limit: 10,
            ..AccumulatorConfig::default()
        };
        let mut acc = ScoreAccumulator::new(config);
        acc.extend((0..10).map(|i| i as f64));
        assert_eq!(acc.exact_scores().map(<[f64]>::len), Some(10));
        acc.add(10.0);
        assert_eq!(acc.count(), 11);
        assert!(acc.exact_scores().is_none());
    }

    #[test]
    fn merge_order_and_grouping_do_not_change_binned_state() {
        let values: Vec<f64> = (0..500).map(|i| (i as f64 * 0.77) % 300.0).collect();
        let config = AccumulatorConfig {
            exact_limit: 64,
            ..AccumulatorConfig::default()
        };
        // One big accumulator vs merged per-chunk accumulators (two splits).
        let whole = accumulate(config, &values);
        for chunk_size in [7usize, 100] {
            let mut merged = ScoreAccumulator::new(config);
            for chunk in values.chunks(chunk_size) {
                merged.merge(accumulate(config, chunk));
            }
            assert_eq!(force_binned(&whole), force_binned(&merged));
        }
    }

    #[test]
    fn binned_quantile_and_exceedance_are_within_one_bin() {
        let values: Vec<f64> = (0..4000).map(|i| i as f64 / 10.0).collect();
        let acc = accumulate(forced_binned_config(), &values);
        let delta = acc.config().relative_resolution();
        for q in [0.1, 0.5, 0.9, 0.99] {
            let exact = percentile::quantile(&values, q).unwrap();
            let approx = acc.quantile(q).unwrap();
            assert!(
                approx + 1e-9 >= exact && approx <= (1.0 + exact) * (1.0 + delta) + 1e-9,
                "q={q}: approx {approx} vs exact {exact}"
            );
            // Exceedance at the binned quantile stays near 1 − q, off by at
            // most one bin's mass.
            let ex = acc.exceedance_fraction(approx);
            assert!(ex <= (1.0 - q) + acc.max_bin_fraction() + 1e-9);
        }
    }

    #[test]
    fn underflow_and_overflow_are_tracked() {
        let mut acc = ScoreAccumulator::new(forced_binned_config());
        acc.extend([-3.0, 0.5, 2.0, 1e9]);
        assert_eq!(acc.count(), 4);
        assert_eq!(acc.exceedance_fraction(-1.0), 1.0);
        assert_eq!(acc.exceedance_fraction(1e7), 0.25);
    }

    #[test]
    fn streaming_ks_matches_exact_ks_within_bin_mass() {
        let mut rng = ChaCha8Rng::seed_from_u64(11);
        let a: Vec<f64> = (0..800).map(|_| rng.gen_range(0.0..100.0)).collect();
        let b: Vec<f64> = (0..700).map(|_| rng.gen_range(20.0..140.0)).collect();
        let config = forced_binned_config();
        let (acc_a, acc_b) = (accumulate(config, &a), accumulate(config, &b));
        let stream = streaming_ks(&acc_a, &acc_b);
        let exact = ks_statistic(&a, &b);
        let eps = acc_a.max_bin_fraction().max(acc_b.max_bin_fraction());
        assert!(
            (stream - exact).abs() <= eps + 1e-9,
            "stream {stream} vs exact {exact} (eps {eps})"
        );
    }

    /// The documented bound, asserted: binned AUC within `min(ε_c, ε_a)` of
    /// the exact AUC, and binned DR-at-FP never above and at most `ε_a`
    /// below the exact value.
    fn assert_bounds(clean: &[f64], attacked: &[f64], config: AccumulatorConfig) {
        let (acc_c, acc_a) = (accumulate(config, clean), accumulate(config, attacked));
        let stream = streaming_roc(&acc_c, &acc_a);
        let exact = RocCurve::from_scores(clean, attacked);
        let (bc, ba) = (force_binned(&acc_c), force_binned(&acc_a));
        let eps_auc = bc.max_bin_fraction().min(ba.max_bin_fraction());
        let eps_dr = ba.max_bin_fraction();
        assert!(
            (stream.auc() - exact.auc()).abs() <= eps_auc + 1e-9,
            "AUC {} vs exact {} (eps {eps_auc})",
            stream.auc(),
            exact.auc()
        );
        for fp in [0.0, 0.01, 0.05, 0.1, 0.5] {
            let (dr_s, dr_e) = (
                stream.detection_rate_at_fp(fp),
                exact.detection_rate_at_fp(fp),
            );
            assert!(
                dr_s <= dr_e + 1e-9,
                "binned DR@{fp} {dr_s} overstates exact {dr_e}"
            );
            assert!(
                dr_s >= dr_e - eps_dr - 1e-9,
                "binned DR@{fp} {dr_s} below exact {dr_e} − {eps_dr}"
            );
        }
    }

    #[test]
    fn separable_distributions_keep_auc_one_when_binned() {
        let clean: Vec<f64> = (0..300).map(|i| i as f64 * 0.1).collect();
        let attacked: Vec<f64> = (0..300).map(|i| 100.0 + i as f64 * 0.1).collect();
        assert_bounds(&clean, &attacked, forced_binned_config());
        let acc_c = accumulate(forced_binned_config(), &clean);
        let acc_a = accumulate(forced_binned_config(), &attacked);
        assert!((streaming_roc(&acc_c, &acc_a).auc() - 1.0).abs() < 1e-9);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        #[test]
        fn prop_streaming_roc_matches_exact_within_documented_tolerance(
            clean in proptest::collection::vec(0.0f64..400.0, 2..160),
            attacked in proptest::collection::vec(0.0f64..400.0, 2..160),
        ) {
            assert_bounds(&clean, &attacked, forced_binned_config());
        }

        #[test]
        fn prop_exact_limit_never_changes_results_beyond_the_bound(
            clean in proptest::collection::vec(0.0f64..50.0, 2..120),
            attacked in proptest::collection::vec(10.0f64..90.0, 2..120),
            limit in 0usize..64,
        ) {
            let config = AccumulatorConfig { exact_limit: limit, ..AccumulatorConfig::default() };
            assert_bounds(&clean, &attacked, config);
        }

        #[test]
        fn prop_merge_equals_bulk_accumulation(
            values in proptest::collection::vec(0.0f64..1000.0, 0..200),
            split in 0usize..200,
        ) {
            let config = AccumulatorConfig { exact_limit: 32, ..AccumulatorConfig::default() };
            let split = split.min(values.len());
            let mut merged = ScoreAccumulator::new(config);
            merged.merge(accumulate(config, &values[..split]));
            merged.merge(accumulate(config, &values[split..]));
            let whole = accumulate(config, &values);
            prop_assert_eq!(force_binned(&whole), force_binned(&merged));
            prop_assert_eq!(whole.count(), values.len() as u64);
        }
    }
}
