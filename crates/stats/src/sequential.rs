//! Sequential (temporal) detection over per-round anomaly scores.
//!
//! The paper frames LAD as a one-shot test: one observation, one verdict. A
//! deployed service sees a *stream* — every node reports a localization
//! round after round — and the operational questions become *time to
//! detection* after attack onset and *false alarms per hour* under clean
//! traffic. This module provides the O(1)-state per-node decision rules the
//! serving runtime (`lad_serve`) runs on top of per-round LAD scores:
//!
//! * [`SequentialDetector::Cusum`] — the one-sided CUSUM recursion
//!   `s ← max(0, s + score − reference)`, alarm when `s > threshold`.
//!   Accumulates small persistent shifts that a single round would miss.
//! * [`SequentialDetector::Ewma`] — the exponentially weighted moving
//!   average `z ← (1−λ)·z + λ·score`, alarm when `z > threshold`. Smooths
//!   per-round noise; the control-limit sits far below the one-shot
//!   threshold in score units because the EWMA variance is only
//!   `λ/(2−λ)` of the per-round score variance.
//! * [`SequentialDetector::WindowedCount`] — alarm when at least
//!   `min_count` of the last `window` scores exceeded `score_threshold`.
//!   With `window = min_count = 1` this is exactly the repeated one-shot
//!   test (the paper's detector applied every round) and serves as the
//!   baseline the sequential rules are compared against.
//!
//! Every rule carries only a few machine words of state per node
//! ([`SequentialState`]), so a shard can hold millions of node states.
//!
//! # Calibration
//!
//! Each rule has a `calibrate_*` constructor that takes clean per-node score
//! streams (e.g. the warm-up rounds of a traffic model built over the
//! evaluation substrate's clean-score collection) and a **target per-round
//! false-alarm rate**. Calibration replays the detector over the clean
//! streams with the deployed semantics — **state resets after every
//! alarm**, as `lad_serve` always does — and picks the smallest threshold
//! whose replayed alarm rate does not exceed the target (for an alarm rate
//! `α` this is the classic average-run-length calibration `ARL₀ ≥ 1/α`).
//! That yields a hard guarantee *on the calibration streams themselves*:
//!
//! > replayed with reset-on-alarm, the fraction of alarm rounds is at most
//! > the target rate
//!
//! (the guarantee cannot fail: at the largest replayed statistic the
//! detector never fires at all, so the search always has a feasible
//! point). On fresh clean streams from the same distribution the realised
//! rate concentrates around the target with the usual Monte-Carlo error;
//! the property tests assert both the hard bound and a slack bound on
//! held-out streams.

use crate::percentile;
use serde::{Deserialize, Serialize};

/// The per-node state of a sequential detector: a few machine words,
/// regardless of how many rounds have been processed.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SequentialState {
    /// The decision statistic (CUSUM sum or EWMA value; unused by the
    /// windowed-count rule).
    pub statistic: f64,
    /// Bitmask of recent per-round exceedances, newest in bit 0 (only the
    /// windowed-count rule uses it).
    pub recent: u64,
    /// Rounds processed since the last reset.
    pub rounds: u64,
}

/// An O(1)-state sequential decision rule over per-round anomaly scores.
///
/// The detector itself is immutable and shared; per-node state lives in a
/// [`SequentialState`] owned by the caller (one per node). See the
/// [module docs](self) for the rules and the calibration contract.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum SequentialDetector {
    /// One-sided CUSUM: `s ← max(0, s + score − reference)`, alarm when
    /// `s > threshold`.
    Cusum {
        /// The drift reference `k`: clean scores should fall below it most
        /// of the time, attacked scores above it.
        reference: f64,
        /// The decision interval `h`.
        threshold: f64,
    },
    /// EWMA: `z ← (1−λ)·z + λ·score` (initialised at `baseline`), alarm
    /// when `z > threshold`.
    Ewma {
        /// The smoothing factor `λ ∈ (0, 1]` (1 = no smoothing).
        lambda: f64,
        /// The clean-score mean the recursion starts from.
        baseline: f64,
        /// The control limit.
        threshold: f64,
    },
    /// Windowed exceedance count: alarm when at least `min_count` of the
    /// last `window` scores were strictly above `score_threshold`. With
    /// `window = min_count = 1` this is the repeated one-shot test.
    WindowedCount {
        /// Per-round score threshold.
        score_threshold: f64,
        /// Window length in rounds (1 ..= 64).
        window: u32,
        /// Alarm when this many exceedances are in the window (≥ 1).
        min_count: u32,
    },
}

impl SequentialDetector {
    /// The state a fresh node starts from (also the post-[`reset`] state).
    ///
    /// [`reset`]: Self::reset
    pub fn initial_state(&self) -> SequentialState {
        SequentialState {
            statistic: match *self {
                SequentialDetector::Ewma { baseline, .. } => baseline,
                _ => 0.0,
            },
            recent: 0,
            rounds: 0,
        }
    }

    /// Feeds one round's score into `state` and returns whether the rule
    /// raises an alarm this round.
    #[inline]
    pub fn update(&self, state: &mut SequentialState, score: f64) -> bool {
        state.rounds += 1;
        match *self {
            SequentialDetector::Cusum {
                reference,
                threshold,
            } => {
                state.statistic = (state.statistic + score - reference).max(0.0);
                state.statistic > threshold
            }
            SequentialDetector::Ewma {
                lambda, threshold, ..
            } => {
                state.statistic = (1.0 - lambda) * state.statistic + lambda * score;
                state.statistic > threshold
            }
            SequentialDetector::WindowedCount {
                score_threshold,
                window,
                min_count,
            } => {
                let mask = if window >= 64 {
                    u64::MAX
                } else {
                    (1u64 << window) - 1
                };
                state.recent = ((state.recent << 1) | u64::from(score > score_threshold)) & mask;
                state.recent.count_ones() >= min_count
            }
        }
    }

    /// Resets `state` exactly to [`Self::initial_state`] — after a reset the
    /// node's decision sequence is bit-identical to a fresh node's.
    #[inline]
    pub fn reset(&self, state: &mut SequentialState) {
        *state = self.initial_state();
    }

    /// The current decision statistic of `state` in a rule-independent form
    /// (CUSUM sum, EWMA value, or the windowed exceedance count).
    pub fn statistic(&self, state: &SequentialState) -> f64 {
        match self {
            SequentialDetector::WindowedCount { .. } => state.recent.count_ones() as f64,
            _ => state.statistic,
        }
    }

    /// Short rule name for labels and reports.
    pub fn name(&self) -> &'static str {
        match self {
            SequentialDetector::Cusum { .. } => "cusum",
            SequentialDetector::Ewma { .. } => "ewma",
            SequentialDetector::WindowedCount {
                window: 1,
                min_count: 1,
                ..
            } => "one-shot",
            SequentialDetector::WindowedCount { .. } => "windowed-count",
        }
    }

    // ---- calibration -------------------------------------------------------

    /// Calibrates a CUSUM rule on clean score streams at a target per-round
    /// false-alarm rate. The drift reference is the pooled
    /// [`CUSUM_REFERENCE_QUANTILE`] clean quantile; the decision interval
    /// is the smallest replayed-statistic value meeting the target under
    /// reset-on-alarm replay (see the [module docs](self)).
    ///
    /// # Panics
    /// Panics when the streams are empty or `target_far ∉ (0, 1)`.
    pub fn calibrate_cusum<'a, I>(clean_streams: I, target_far: f64) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        let streams: Vec<&[f64]> = clean_streams.into_iter().collect();
        let pooled = pool(&streams);
        let reference = percentile::quantile(&pooled, CUSUM_REFERENCE_QUANTILE)
            .expect("calibration needs at least one clean score");
        let probe = SequentialDetector::Cusum {
            reference,
            threshold: f64::INFINITY,
        };
        let threshold = fit_threshold(
            |threshold| SequentialDetector::Cusum {
                reference,
                threshold,
            },
            replay(&probe, &streams),
            &streams,
            target_far,
        );
        SequentialDetector::Cusum {
            reference,
            threshold,
        }
    }

    /// Calibrates an EWMA rule (smoothing factor `lambda`) on clean score
    /// streams at a target per-round false-alarm rate. The baseline is the
    /// pooled clean mean; the control limit is the smallest
    /// replayed-statistic value meeting the target under reset-on-alarm
    /// replay (see the [module docs](self)).
    ///
    /// # Panics
    /// Panics when the streams are empty, `target_far ∉ (0, 1)` or
    /// `lambda ∉ (0, 1]`.
    pub fn calibrate_ewma<'a, I>(clean_streams: I, target_far: f64, lambda: f64) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        assert!(
            lambda > 0.0 && lambda <= 1.0,
            "EWMA lambda must be in (0, 1], got {lambda}"
        );
        let streams: Vec<&[f64]> = clean_streams.into_iter().collect();
        let pooled = pool(&streams);
        let baseline = pooled.iter().sum::<f64>() / pooled.len() as f64;
        let probe = SequentialDetector::Ewma {
            lambda,
            baseline,
            threshold: f64::INFINITY,
        };
        let threshold = fit_threshold(
            |threshold| SequentialDetector::Ewma {
                lambda,
                baseline,
                threshold,
            },
            replay(&probe, &streams),
            &streams,
            target_far,
        );
        SequentialDetector::Ewma {
            lambda,
            baseline,
            threshold,
        }
    }

    /// Calibrates the repeated one-shot baseline (`window = min_count = 1`):
    /// the per-round score threshold is the empirical clean-score quantile
    /// at `1 − target_far` (the memoryless case of
    /// [`Self::calibrate_windowed`]).
    ///
    /// # Panics
    /// Panics when the streams are empty or `target_far ∉ (0, 1)`.
    pub fn calibrate_one_shot<'a, I>(clean_streams: I, target_far: f64) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        Self::calibrate_windowed(clean_streams, target_far, 1, 1)
    }

    /// Calibrates a windowed-count rule: the per-round score threshold is
    /// the smallest clean score whose reset-on-alarm replay meets the
    /// target alarm rate. For `min_count = window = 1` (the repeated
    /// one-shot baseline) the replay is memoryless and this reduces to the
    /// empirical clean-score quantile at `1 − target_far`.
    ///
    /// # Panics
    /// Panics when the streams are empty, `target_far ∉ (0, 1)`,
    /// `window ∉ 1..=64`, or `min_count ∉ 1..=window`.
    pub fn calibrate_windowed<'a, I>(
        clean_streams: I,
        target_far: f64,
        window: u32,
        min_count: u32,
    ) -> Self
    where
        I: IntoIterator<Item = &'a [f64]>,
    {
        assert!(
            (1..=64).contains(&window),
            "window must be in 1..=64, got {window}"
        );
        assert!(
            (1..=window).contains(&min_count),
            "min_count must be in 1..=window, got {min_count}"
        );
        let streams: Vec<&[f64]> = clean_streams.into_iter().collect();
        let pooled = pool(&streams);
        let score_threshold = fit_threshold(
            |score_threshold| SequentialDetector::WindowedCount {
                score_threshold,
                window,
                min_count,
            },
            pooled,
            &streams,
            target_far,
        );
        SequentialDetector::WindowedCount {
            score_threshold,
            window,
            min_count,
        }
    }
}

/// The pooled clean quantile used as the CUSUM drift reference. The
/// reference must sit **above nearly every node's own clean-score mean**,
/// not just the pooled median: the population is heterogeneous (a node in a
/// sparse neighbourhood scores persistently higher than the pooled
/// average), and any node whose clean mean exceeds the reference drifts
/// upward forever, forcing calibration to inflate the decision interval for
/// everyone. A high quantile keeps every node's clean drift negative while
/// moderately anomalous rounds still accumulate.
pub const CUSUM_REFERENCE_QUANTILE: f64 = 0.92;

/// The false-alarm rate `detector` realises on `streams` when replayed
/// with the deployed semantics: fresh state per stream, **reset after
/// every alarm** (what `lad_serve` always does). This is the quantity the
/// `calibrate_*` constructors drive to the target — for an alarm rate `α`
/// it is exactly the reciprocal of the clean average run length `ARL₀`.
pub fn reset_replay_alarm_rate(detector: &SequentialDetector, streams: &[&[f64]]) -> f64 {
    let mut alarms = 0u64;
    let mut rounds = 0u64;
    for stream in streams {
        let mut state = detector.initial_state();
        for &score in *stream {
            rounds += 1;
            if detector.update(&mut state, score) {
                alarms += 1;
                detector.reset(&mut state);
            }
        }
    }
    if rounds == 0 {
        0.0
    } else {
        alarms as f64 / rounds as f64
    }
}

/// The calibration primitive: the smallest threshold among `candidates`
/// whose reset-on-alarm replay over `streams` alarms in at most a
/// `target_far` fraction of rounds. The alarm rate is (essentially)
/// nonincreasing in the threshold, so a binary search finds the frontier; a
/// final verification walk guarantees the hard bound even off the monotone
/// path. Always feasible: at the largest replayed statistic the detector
/// never fires.
fn fit_threshold(
    make: impl Fn(f64) -> SequentialDetector,
    mut candidates: Vec<f64>,
    streams: &[&[f64]],
    target_far: f64,
) -> f64 {
    assert!(
        target_far > 0.0 && target_far < 1.0,
        "target false-alarm rate must be in (0, 1), got {target_far}"
    );
    assert!(
        !candidates.is_empty(),
        "calibration needs at least one clean statistic"
    );
    candidates.sort_by(|a, b| a.partial_cmp(b).expect("NaN statistic"));
    candidates.dedup();
    let rate = |threshold: f64| reset_replay_alarm_rate(&make(threshold), streams);

    // Binary search for the lowest candidate meeting the target…
    let (mut lo, mut hi) = (0usize, candidates.len() - 1);
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if rate(candidates[mid]) <= target_far {
            hi = mid;
        } else {
            lo = mid + 1;
        }
    }
    // …then walk up until the bound verifiably holds (no-ops when the rate
    // really is monotone). The top candidate never alarms: trajectories
    // match the threshold-free replay until the first alarm, and no
    // replayed statistic strictly exceeds the maximum.
    while rate(candidates[lo]) > target_far {
        lo += 1;
    }
    candidates[lo]
}

/// Replays `detector` over each stream independently (fresh state per
/// stream, no alarm resets — the threshold is infinite) and returns every
/// per-round decision statistic: the candidate threshold set.
fn replay(detector: &SequentialDetector, streams: &[&[f64]]) -> Vec<f64> {
    let mut stats = Vec::new();
    for stream in streams {
        let mut state = detector.initial_state();
        for &score in *stream {
            detector.update(&mut state, score);
            stats.push(detector.statistic(&state));
        }
    }
    assert!(
        !stats.is_empty(),
        "calibration needs at least one clean score"
    );
    stats
}

fn pool(streams: &[&[f64]]) -> Vec<f64> {
    let mut pooled = Vec::new();
    for stream in streams {
        pooled.extend_from_slice(stream);
    }
    assert!(
        !pooled.is_empty(),
        "calibration needs at least one clean score"
    );
    pooled
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::{Rng, SeedableRng};
    use rand_chacha::ChaCha8Rng;

    /// A reproducible "clean" score stream: positive, right-skewed (squared
    /// uniform), the shape LAD metrics produce on clean traffic.
    fn clean_stream(seed: u64, len: usize) -> Vec<f64> {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        (0..len)
            .map(|_| {
                let u: f64 = rng.gen_range(0.0..1.0);
                10.0 * u * u
            })
            .collect()
    }

    fn detectors_for(clean: &[f64], target: f64) -> Vec<SequentialDetector> {
        let streams = [clean];
        vec![
            SequentialDetector::calibrate_cusum(streams, target),
            SequentialDetector::calibrate_ewma(streams, target, 0.25),
            SequentialDetector::calibrate_one_shot(streams, target),
        ]
    }

    /// Deployed-semantics replay: reset after every alarm (what calibration
    /// targets and what `lad_serve` always runs).
    fn alarm_fraction(detector: &SequentialDetector, stream: &[f64]) -> f64 {
        reset_replay_alarm_rate(detector, &[stream])
    }

    #[test]
    fn one_shot_matches_the_raw_quantile_construction() {
        let clean = clean_stream(7, 500);
        let target = 0.02;
        let SequentialDetector::WindowedCount {
            score_threshold,
            window,
            min_count,
        } = SequentialDetector::calibrate_one_shot([clean.as_slice()], target)
        else {
            panic!("one-shot calibration must produce a windowed-count rule");
        };
        assert_eq!((window, min_count), (1, 1));
        assert!(percentile::exceedance_fraction(&clean, score_threshold) <= target);
    }

    #[test]
    fn windowed_count_with_window_one_equals_repeated_one_shot() {
        let clean = clean_stream(8, 400);
        let one_shot = SequentialDetector::calibrate_one_shot([clean.as_slice()], 0.05);
        let SequentialDetector::WindowedCount {
            score_threshold, ..
        } = one_shot
        else {
            unreachable!()
        };
        let fresh = clean_stream(9, 300);
        let mut state = one_shot.initial_state();
        for &s in &fresh {
            let alarm = one_shot.update(&mut state, s);
            assert_eq!(alarm, s > score_threshold);
        }
    }

    #[test]
    fn windowed_count_needs_min_count_exceedances() {
        let det = SequentialDetector::WindowedCount {
            score_threshold: 1.0,
            window: 4,
            min_count: 2,
        };
        let mut state = det.initial_state();
        assert!(!det.update(&mut state, 5.0)); // 1 exceedance in window
        assert!(det.update(&mut state, 5.0)); // 2 in window
                                              // Both exceedances stay in the 4-round window for two more rounds…
        assert!(det.update(&mut state, 0.0));
        assert!(det.update(&mut state, 0.0));
        // …then the first slides out and the count drops below min_count.
        assert!(!det.update(&mut state, 0.0));
        assert!(!det.update(&mut state, 5.0)); // back to 1 in window
    }

    #[test]
    fn windowed_calibration_meets_the_target_alarm_rate() {
        let clean = clean_stream(10, 2000);
        let target = 0.01;
        let det = SequentialDetector::calibrate_windowed([clean.as_slice()], target, 8, 3);
        assert!(alarm_fraction(&det, &clean) <= target + 1e-12);
        // A multi-exceedance requirement can only make the rule stricter
        // than the one-shot baseline at the same score threshold.
        let one_shot = SequentialDetector::calibrate_one_shot([clean.as_slice()], target);
        let (
            SequentialDetector::WindowedCount {
                score_threshold: strict,
                ..
            },
            SequentialDetector::WindowedCount {
                score_threshold: single,
                ..
            },
        ) = (det, one_shot)
        else {
            unreachable!()
        };
        assert!(strict <= single + 1e-12);
    }

    #[test]
    fn statistic_reports_the_rule_specific_value() {
        let cusum = SequentialDetector::Cusum {
            reference: 1.0,
            threshold: 100.0,
        };
        let mut state = cusum.initial_state();
        cusum.update(&mut state, 3.0);
        assert!((cusum.statistic(&state) - 2.0).abs() < 1e-12);

        let windowed = SequentialDetector::WindowedCount {
            score_threshold: 0.0,
            window: 8,
            min_count: 8,
        };
        let mut state = windowed.initial_state();
        windowed.update(&mut state, 1.0);
        windowed.update(&mut state, 1.0);
        assert_eq!(windowed.statistic(&state), 2.0);
    }

    #[test]
    fn serde_round_trip_preserves_detector_and_state() {
        let clean = clean_stream(11, 200);
        for det in detectors_for(&clean, 0.05) {
            let json = serde_json::to_string(&det).unwrap();
            let back: SequentialDetector = serde_json::from_str(&json).unwrap();
            assert_eq!(det, back);
            let mut state = det.initial_state();
            det.update(&mut state, 4.2);
            let sjson = serde_json::to_string(&state).unwrap();
            let sback: SequentialState = serde_json::from_str(&sjson).unwrap();
            assert_eq!(state, sback);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Hard bound: replayed over the calibration stream itself with the
        /// deployed reset-on-alarm semantics (exactly what calibration
        /// targets — see the module docs), every calibrated rule's alarm
        /// fraction is at most the target.
        #[test]
        fn calibrated_far_bound_holds_on_the_calibration_stream(
            seed in 0u64..1000,
            len in 200usize..600,
        ) {
            let clean = clean_stream(seed, len);
            for target in [0.01, 0.05, 0.15] {
                for det in detectors_for(&clean, target) {
                    let far = alarm_fraction(&det, &clean);
                    prop_assert!(
                        far <= target + 1e-12,
                        "{} realises FAR {far} > target {target}",
                        det.name()
                    );
                }
            }
        }

        /// Held-out bound: on a fresh clean stream from the same
        /// distribution, the realised rate stays within Monte-Carlo slack of
        /// the target (documented as 3·target + 8/n).
        #[test]
        fn calibrated_far_is_near_target_on_heldout_streams(
            seed in 0u64..1000,
        ) {
            let clean = clean_stream(seed, 800);
            let fresh = clean_stream(seed.wrapping_add(0xF00D), 800);
            let target = 0.05;
            let slack = 3.0 * target + 8.0 / fresh.len() as f64;
            for det in detectors_for(&clean, target) {
                let far = alarm_fraction(&det, &fresh);
                prop_assert!(
                    far <= slack,
                    "{} held-out FAR {far} > slack {slack}",
                    det.name()
                );
            }
        }

        /// A large persistent upward shift always fires, and quickly.
        #[test]
        fn persistent_large_shift_always_fires(
            seed in 0u64..1000,
            len in 200usize..500,
        ) {
            let clean = clean_stream(seed, len);
            let max_clean = clean.iter().cloned().fold(f64::MIN, f64::max);
            let shift = 4.0 * max_clean + 50.0;
            for det in detectors_for(&clean, 0.02) {
                let mut state = det.initial_state();
                let fired = (0..64).any(|_| det.update(&mut state, shift));
                prop_assert!(fired, "{} never fired on persistent shift", det.name());
            }
        }

        /// Resets are exact: after `reset`, the decision sequence is
        /// bit-identical to a fresh node's (state equality included).
        #[test]
        fn state_resets_are_exact(
            seed in 0u64..1000,
            prefix in 1usize..50,
        ) {
            let clean = clean_stream(seed, 120 + prefix);
            for det in detectors_for(&clean[..100], 0.05) {
                let mut reset_state = det.initial_state();
                for &s in &clean[..prefix] {
                    det.update(&mut reset_state, s);
                }
                det.reset(&mut reset_state);
                prop_assert_eq!(reset_state, det.initial_state());
                let mut fresh_state = det.initial_state();
                for &s in &clean[prefix..] {
                    let a = det.update(&mut reset_state, s);
                    let b = det.update(&mut fresh_state, s);
                    prop_assert_eq!(a, b);
                    prop_assert_eq!(reset_state, fresh_state);
                }
            }
        }
    }
}
