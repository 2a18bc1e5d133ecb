//! Summary statistics: batch summaries and Welford online accumulation.

use serde::{Deserialize, Serialize};

/// Batch summary of a sample: count, mean, variance, extremes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Number of observations.
    pub count: usize,
    /// Sample mean (0 for an empty sample).
    pub mean: f64,
    /// Unbiased sample variance (0 when count < 2).
    pub variance: f64,
    /// Minimum observation (+inf for an empty sample).
    pub min: f64,
    /// Maximum observation (-inf for an empty sample).
    pub max: f64,
}

impl Summary {
    /// Computes the summary of `values`.
    pub fn of(values: &[f64]) -> Self {
        let mut acc = OnlineStats::new();
        for &v in values {
            acc.push(v);
        }
        acc.summary()
    }
}

/// Welford's online mean/variance accumulator — numerically stable and
/// single-pass, suitable for streaming millions of Monte-Carlo trial results.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct OnlineStats {
    count: usize,
    mean: f64,
    m2: f64,
    min: f64,
    max: f64,
}

impl OnlineStats {
    /// Creates an empty accumulator.
    pub fn new() -> Self {
        Self {
            count: 0,
            mean: 0.0,
            m2: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, value: f64) {
        self.count += 1;
        let delta = value - self.mean;
        self.mean += delta / self.count as f64;
        self.m2 += delta * (value - self.mean);
        self.min = self.min.min(value);
        self.max = self.max.max(value);
    }

    /// Merges another accumulator into this one (parallel reduction step).
    pub fn merge(&mut self, other: &OnlineStats) {
        if other.count == 0 {
            return;
        }
        if self.count == 0 {
            *self = *other;
            return;
        }
        let total = (self.count + other.count) as f64;
        let delta = other.mean - self.mean;
        let new_mean = self.mean + delta * other.count as f64 / total;
        self.m2 += other.m2 + delta * delta * self.count as f64 * other.count as f64 / total;
        self.mean = new_mean;
        self.count += other.count;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of observations so far.
    pub fn count(&self) -> usize {
        self.count
    }

    /// Current mean (0 for an empty accumulator).
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.mean
        }
    }

    /// Unbiased sample variance (0 when fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.count < 2 {
            0.0
        } else {
            self.m2 / (self.count - 1) as f64
        }
    }

    /// Snapshot as a [`Summary`].
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            mean: self.mean(),
            variance: self.variance(),
            min: self.min,
            max: self.max,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    #[test]
    fn summary_of_known_sample() {
        let s = Summary::of(&[2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0]);
        assert_eq!(s.count, 8);
        assert!((s.mean - 5.0).abs() < 1e-12);
        // Unbiased variance of this classic sample is 32/7.
        assert!((s.variance - 32.0 / 7.0).abs() < 1e-12);
        assert_eq!(s.min, 2.0);
        assert_eq!(s.max, 9.0);
    }

    #[test]
    fn empty_sample_is_well_defined() {
        let s = Summary::of(&[]);
        assert_eq!(s.count, 0);
        assert_eq!(s.mean, 0.0);
        assert_eq!(s.variance, 0.0);
    }

    #[test]
    fn merge_equals_sequential() {
        let data: Vec<f64> = (0..1000).map(|i| (i as f64 * 0.7).sin() * 10.0).collect();
        let mut whole = OnlineStats::new();
        for &v in &data {
            whole.push(v);
        }
        let mut left = OnlineStats::new();
        let mut right = OnlineStats::new();
        for &v in &data[..300] {
            left.push(v);
        }
        for &v in &data[300..] {
            right.push(v);
        }
        left.merge(&right);
        assert_eq!(left.count(), whole.count());
        assert!((left.mean() - whole.mean()).abs() < 1e-9);
        assert!((left.variance() - whole.variance()).abs() < 1e-9);
    }

    #[test]
    fn merge_with_empty_is_identity() {
        let mut a = OnlineStats::new();
        a.push(1.0);
        a.push(3.0);
        let before = a.summary();
        a.merge(&OnlineStats::new());
        assert_eq!(a.summary(), before);
        let mut empty = OnlineStats::new();
        empty.merge(&a);
        assert_eq!(empty.summary(), before);
    }

    proptest! {
        #[test]
        fn prop_online_matches_batch(values in proptest::collection::vec(-1e3f64..1e3, 0..200)) {
            let batch = Summary::of(&values);
            let mut online = OnlineStats::new();
            for &v in &values {
                online.push(v);
            }
            let s = online.summary();
            prop_assert_eq!(s.count, batch.count);
            prop_assert!((s.mean - batch.mean).abs() < 1e-9);
            prop_assert!((s.variance - batch.variance).abs() < 1e-6);
        }

        #[test]
        fn prop_merge_order_independent(
            a in proptest::collection::vec(-1e3f64..1e3, 1..100),
            b in proptest::collection::vec(-1e3f64..1e3, 1..100),
        ) {
            let mut ab = OnlineStats::new();
            let mut ba = OnlineStats::new();
            let (mut sa, mut sb) = (OnlineStats::new(), OnlineStats::new());
            for &v in &a { sa.push(v); }
            for &v in &b { sb.push(v); }
            ab.merge(&sa); ab.merge(&sb);
            ba.merge(&sb); ba.merge(&sa);
            prop_assert!((ab.mean() - ba.mean()).abs() < 1e-9);
            prop_assert!((ab.variance() - ba.variance()).abs() < 1e-6);
        }
    }
}
