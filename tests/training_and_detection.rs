//! Integration tests of the training → threshold → engine pipeline,
//! including serialisation of trained artefacts.

use lad::prelude::*;
use lad_geometry::Point2;

fn knowledge() -> std::sync::Arc<DeploymentKnowledge> {
    DeploymentKnowledge::shared(&DeploymentConfig::small_test())
}

fn quick_training(seed: u64) -> TrainedThresholds {
    Trainer::new(TrainingConfig {
        networks: 2,
        samples_per_network: 100,
        seed,
        ..TrainingConfig::default()
    })
    .train(&knowledge())
}

#[test]
fn thresholds_are_monotone_in_tau_and_bound_training_fp() {
    let trained = quick_training(1);
    for metric in MetricKind::ALL {
        let mut prev = f64::NEG_INFINITY;
        for tau in [0.5, 0.9, 0.95, 0.99, 0.999] {
            let thr = trained.threshold(metric, tau).unwrap();
            assert!(thr >= prev, "threshold must grow with tau for {:?}", metric);
            prev = thr;
            let fp = trained.training_fp(metric, thr).unwrap();
            let slack = 1.0 / trained.sample_count(metric) as f64 + 1e-9;
            assert!(
                fp <= (1.0 - tau) + slack,
                "training FP {fp} exceeds 1 - tau for {:?}",
                metric
            );
        }
    }
}

#[test]
fn trained_thresholds_serialize_and_round_trip() {
    let trained = quick_training(2);
    let json = serde_json::to_string(&trained).expect("thresholds serialize");
    let back: TrainedThresholds = serde_json::from_str(&json).expect("thresholds deserialize");
    for metric in MetricKind::ALL {
        // JSON text round-trips floats to within an ulp; compare value-wise.
        let before = trained.scores(metric).unwrap();
        let after = back.scores(metric).unwrap();
        assert_eq!(before.len(), after.len());
        for (a, b) in before.iter().zip(after) {
            assert!((a - b).abs() <= a.abs() * 1e-12 + 1e-300, "{a} vs {b}");
        }
        let ta = trained.threshold(metric, 0.99).unwrap();
        let tb = back.threshold(metric, 0.99).unwrap();
        assert!((ta - tb).abs() <= ta.abs() * 1e-12);
    }
}

/// An engine over the trained thresholds of `metrics` at the τ-percentile.
fn engine_at(trained: &TrainedThresholds, metrics: &[MetricKind], tau: f64) -> LadEngine {
    LadEngine::builder()
        .deployment(&DeploymentConfig::small_test())
        .metrics(metrics)
        .thresholds(
            metrics
                .iter()
                .map(|&m| trained.threshold(m, tau).unwrap())
                .collect(),
        )
        .build()
        .expect("engine builds")
}

#[test]
fn detector_verdicts_serialize() {
    let trained = quick_training(3);
    let engine = engine_at(&trained, &[MetricKind::Probability], 0.95);
    let obs = Observation::from_counts(vec![0; engine.knowledge().group_count()]);
    let verdict = engine.verify(&obs, Point2::new(200.0, 200.0));
    let single = verdict.verdicts[0];
    let json = serde_json::to_string(&single).unwrap();
    let back: Verdict = serde_json::from_str(&json).unwrap();
    assert_eq!(single, back);
    let json = serde_json::to_string(&verdict).unwrap();
    let back: MultiVerdict = serde_json::from_str(&json).unwrap();
    assert_eq!(verdict, back);
}

#[test]
fn detector_is_threshold_consistent_across_metrics() {
    let trained = quick_training(4);
    let engine = engine_at(&trained, &MetricKind::ALL, 0.999);
    // An observation matching the expectation at P, claimed at P vs far away.
    let p = Point2::new(150.0, 150.0);
    let far = Point2::new(350.0, 350.0);
    let mu = engine.knowledge().expected_observation(p);
    let obs = Observation::from_counts(mu.iter().map(|v| v.round() as u32).collect());
    let near = engine.verify(&obs, p);
    let away = engine.verify(&obs, far);
    for metric in MetricKind::ALL {
        let near_score = near.verdict(metric).unwrap().score;
        let verdict = away.verdict(metric).unwrap();
        assert!(
            verdict.score > near_score,
            "{:?}: far {} should exceed near {near_score}",
            metric,
            verdict.score
        );
        // The verdict agrees with a manual comparison against the threshold.
        let threshold = trained.threshold(metric, 0.999).unwrap();
        assert_eq!(verdict.threshold, threshold);
        assert_eq!(verdict.anomalous, verdict.score > threshold);
    }
}

#[test]
fn separate_seeds_produce_distinct_but_similar_thresholds() {
    let a = quick_training(10);
    let b = quick_training(11);
    let ta = a.threshold(MetricKind::Diff, 0.99).unwrap();
    let tb = b.threshold(MetricKind::Diff, 0.99).unwrap();
    assert_ne!(a.scores(MetricKind::Diff), b.scores(MetricKind::Diff));
    // Different training runs on the same model should land in the same
    // ballpark (within a factor of two) — the paper relies on thresholds
    // being stable under re-training.
    let ratio = ta.max(tb) / ta.min(tb).max(1e-9);
    assert!(ratio < 2.0, "thresholds too unstable: {ta} vs {tb}");
}
