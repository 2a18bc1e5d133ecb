//! Coverage for the versioned `EngineArtifact` format: JSON round trips
//! preserve verdicts and the recorded localizer, unknown versions and invalid metric lists are
//! rejected with typed errors, and unversioned legacy (pre-engine) JSON is
//! a parse error.

use lad::prelude::*;

/// Fitted with a non-default localizer, so a round trip that fell back to
/// the default scheme would localize differently.
fn fitted_engine() -> LadEngine {
    LadEngine::builder()
        .deployment(&DeploymentConfig::small_test())
        .training(TrainingConfig {
            networks: 2,
            samples_per_network: 80,
            seed: 4242,
            localizer: BeaconlessMle {
                initial_step: 32.0,
                ..BeaconlessMle::default()
            },
        })
        .metrics(&MetricKind::ALL)
        .tau(0.99)
        .build()
        .expect("engine fits")
}

fn probe_rows(engine: &LadEngine) -> ObservationBatch {
    let network = Network::generate(engine.knowledge().clone(), 77);
    let mut rows = ObservationBatch::new(engine.knowledge().group_count());
    for i in 0..60u32 {
        let obs = network.true_observation(NodeId(i * 13));
        let Some(estimate) = engine.localizer().estimate(engine.knowledge(), &obs) else {
            continue;
        };
        // Alternate honest estimates with displaced (anomalous) ones so
        // the probe set exercises both verdict outcomes.
        let estimate = if i % 2 == 0 {
            estimate
        } else {
            Point2::new(estimate.x + 180.0, estimate.y - 120.0)
        };
        rows.push(&obs, estimate);
    }
    rows
}

#[test]
fn json_round_trip_preserves_every_verdict() {
    let engine = fitted_engine();
    let restored = LadEngine::from_json(&engine.to_json()).expect("round trip loads");
    assert_eq!(engine.metrics(), restored.metrics());
    assert_eq!(engine.thresholds(), restored.thresholds());
    assert_eq!(engine.tau(), restored.tau());
    assert_eq!(restored.localizer(), engine.localizer());

    let network = Network::generate(engine.knowledge().clone(), 77);
    for i in 0..60u32 {
        let obs = network.true_observation(NodeId(i * 13));
        let bits = |e: &LadEngine| {
            e.localizer()
                .estimate(e.knowledge(), &obs)
                .map(|p| (p.x.to_bits(), p.y.to_bits()))
        };
        assert_eq!(bits(&engine), bits(&restored), "node {}", i * 13);
    }

    let rows = probe_rows(&engine);
    assert!(rows.len() > 30);
    let before = engine.verify_rows(&rows);
    let after = restored.verify_rows(&rows);
    assert!(before.iter().any(|v| v.anomalous) && before.iter().any(|v| !v.anomalous));
    for (a, b) in before.iter().zip(&after) {
        assert_eq!(a.anomalous, b.anomalous);
        for (va, vb) in a.verdicts.iter().zip(&b.verdicts) {
            assert_eq!(va.metric, vb.metric);
            assert_eq!(va.anomalous, vb.anomalous);
            // JSON text round-trips floats to within an ulp.
            assert!((va.score - vb.score).abs() <= va.score.abs() * 1e-12 + 1e-300);
            assert!((va.threshold - vb.threshold).abs() <= va.threshold.abs() * 1e-12);
        }
    }
}

#[test]
fn pretty_and_compact_artifacts_load_identically() {
    let engine = fitted_engine();
    let compact = LadEngine::from_json(&engine.to_json()).unwrap();
    let pretty = LadEngine::from_json(&engine.to_json_pretty()).unwrap();
    assert_eq!(compact.thresholds(), pretty.thresholds());
    assert_eq!(compact.metrics(), pretty.metrics());
}

#[test]
fn version_0_and_version_2_artifacts_are_rejected_with_the_typed_error() {
    let engine = fitted_engine();
    let json = engine.to_json();
    assert!(
        json.contains("\"version\":1"),
        "artifact must carry version 1"
    );
    for wrong in [0u64, 2, 99] {
        let tampered = json.replacen("\"version\":1", &format!("\"version\":{wrong}"), 1);
        match LadEngine::from_json(&tampered) {
            Err(EngineError::UnsupportedVersion { found }) => assert_eq!(found, wrong),
            other => panic!("version {wrong} should be UnsupportedVersion, got {other:?}"),
        }
    }
}

#[test]
fn legacy_pipeline_artifact_json_is_rejected() {
    // Hand-build the pre-engine single-metric pipeline JSON shape:
    // { deployment, training, trained, metric, tau } with no version field.
    let training = TrainingConfig {
        networks: 2,
        samples_per_network: 80,
        seed: 99,
        ..TrainingConfig::default()
    };
    let deployment = DeploymentConfig::small_test();
    let knowledge = DeploymentKnowledge::shared(&deployment);
    let trained = Trainer::new(training).train(&knowledge);
    let legacy = format!(
        "{{\"deployment\":{},\"training\":{},\"trained\":{},\"metric\":\"Diff\",\"tau\":0.99}}",
        serde_json::to_string(&deployment).unwrap(),
        serde_json::to_string(&training).unwrap(),
        serde_json::to_string(&trained).unwrap(),
    );
    match LadEngine::from_json(&legacy) {
        Err(EngineError::Parse(msg)) => assert!(msg.contains("version"), "{msg}"),
        other => panic!("legacy JSON should be a Parse error, got {other:?}"),
    }
}

#[test]
fn empty_and_duplicated_metric_lists_are_rejected_with_the_typed_error() {
    // A score-only artifact with its metric list emptied would otherwise
    // load and then panic on its first scored batch.
    let score_only = LadEngine::builder()
        .deployment(&DeploymentConfig::small_test())
        .metrics(&MetricKind::ALL)
        .score_only()
        .build()
        .unwrap();
    let all = "\"metrics\":[\"Diff\",\"AddAll\",\"Probability\"]";
    let json = score_only.to_json();
    assert!(json.contains(all), "test setup");
    let empty = json.replacen(all, "\"metrics\":[]", 1);
    assert_eq!(
        LadEngine::from_json(&empty).unwrap_err(),
        EngineError::InvalidMetrics(Vec::new())
    );

    let fitted = fitted_engine().to_json();
    assert!(fitted.contains(all), "test setup");
    let duplicated = fitted.replacen(all, "\"metrics\":[\"Diff\",\"AddAll\",\"Diff\"]", 1);
    assert_eq!(
        LadEngine::from_json(&duplicated).unwrap_err(),
        EngineError::InvalidMetrics(vec![MetricKind::Diff, MetricKind::AddAll, MetricKind::Diff])
    );
}

#[test]
fn non_artifact_json_is_a_clear_parse_error() {
    for bad in ["{}", "[1,2,3]", "{\"foo\": 1}", "not json at all"] {
        match LadEngine::from_json(bad) {
            Err(EngineError::Parse(msg)) => assert!(!msg.is_empty()),
            other => panic!("{bad:?} should be a Parse error, got {other:?}"),
        }
    }
}

#[test]
fn score_only_artifacts_round_trip_without_thresholds() {
    let engine = LadEngine::builder()
        .deployment(&DeploymentConfig::small_test())
        .metrics(&MetricKind::ALL)
        .score_only()
        .build()
        .unwrap();
    let restored = LadEngine::from_json(&engine.to_json()).expect("score-only round trip");
    assert!(restored.thresholds().is_empty());
    let mut rows = ObservationBatch::new(restored.knowledge().group_count());
    rows.push(
        &Observation::zeros(rows.group_count()),
        Point2::new(100.0, 100.0),
    );
    let (mut before, mut after) = (Vec::new(), Vec::new());
    engine.score_rows_into(&rows, &mut before);
    restored.score_rows_into(&rows, &mut after);
    assert_eq!(before, after);
}
