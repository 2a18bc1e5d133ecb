//! End-to-end integration test: deploy → localize → train → attack → detect,
//! exercising the public `LadEngine` API the way a downstream user would.

use lad::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn engine_setup(seed: u64, metrics: &[MetricKind]) -> (LadEngine, Network) {
    // The paper-scale deployment (10×10 groups of 300, σ = 50): the headline
    // detection-rate claims of §7 are tied to this density, so the
    // integration tests exercise it directly.
    let engine = LadEngine::builder()
        .deployment(&DeploymentConfig::paper_default())
        .training(TrainingConfig {
            networks: 2,
            samples_per_network: 120,
            seed: seed ^ 0xABCD,
            ..TrainingConfig::default()
        })
        .metrics(metrics)
        .tau(0.99)
        .build()
        .expect("engine fits");
    let network = Network::generate(engine.knowledge().clone(), seed);
    (engine, network)
}

#[test]
fn large_damage_attacks_are_detected_and_honest_nodes_pass() {
    let (engine, network) = engine_setup(100, &[MetricKind::Diff]);
    let mut rng = ChaCha8Rng::seed_from_u64(1);

    let attack = AttackConfig {
        degree_of_damage: 160.0,
        compromised_fraction: 0.10,
        class: AttackClass::DecBounded,
        targeted_metric: MetricKind::Diff,
    };

    // Honest path: one batched verification over localized nodes.
    let sampled: Vec<NodeId> = (0..network.node_count())
        .step_by(37)
        .map(|i| NodeId(i as u32))
        .collect();
    let mut honest_rows = ObservationBatch::new(network.group_count());
    for &id in &sampled {
        let obs = network.true_observation(id);
        if let Some(estimate) = engine.localizer().estimate(engine.knowledge(), &obs) {
            honest_rows.push(&obs, estimate);
        }
    }
    let honest_verdicts = engine.verify_rows(&honest_rows);
    let honest_alarms = honest_verdicts.iter().filter(|v| v.anomalous).count();

    // Attacked path: simulate the attack wave, then verify it in one batch.
    let mut attacked_rows = ObservationBatch::new(network.group_count());
    for &id in &sampled {
        let outcome = simulate_attack(&network, id, &attack, &mut rng);
        attacked_rows.push(&outcome.tainted_observation, outcome.forged_location);
    }
    let attacks_detected = engine
        .verify_rows(&attacked_rows)
        .iter()
        .filter(|v| v.anomalous)
        .count();

    let fp = honest_alarms as f64 / honest_verdicts.len() as f64;
    let dr = attacks_detected as f64 / attacked_rows.len() as f64;
    assert!(honest_verdicts.len() > 80 && attacked_rows.len() > 80);
    assert!(fp < 0.10, "honest false-positive rate too high: {fp}");
    assert!(dr > 0.85, "detection rate for D=160 too low: {dr}");
    assert!(
        dr > fp,
        "detector must separate attacks from honest traffic"
    );
}

#[test]
fn detection_rate_grows_with_degree_of_damage() {
    let (engine, network) = engine_setup(200, &[MetricKind::Diff]);
    let mut rng = ChaCha8Rng::seed_from_u64(2);

    let mut rates = Vec::new();
    for &damage in &[40.0, 100.0, 180.0] {
        let attack = AttackConfig {
            degree_of_damage: damage,
            compromised_fraction: 0.10,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        };
        let total = 150usize;
        let mut rows = ObservationBatch::new(network.group_count());
        for i in 0..total {
            // Stride across the whole id space so victims come from every
            // deployment group, not just the corner ones.
            let victim = NodeId((i * 199) as u32);
            let outcome = simulate_attack(&network, victim, &attack, &mut rng);
            rows.push(&outcome.tainted_observation, outcome.forged_location);
        }
        let detected = engine
            .verify_rows(&rows)
            .iter()
            .filter(|v| v.anomalous)
            .count();
        rates.push(detected as f64 / total as f64);
    }
    assert!(
        rates[2] + 1e-9 >= rates[0],
        "DR should not shrink with damage: {rates:?}"
    );
    assert!(rates[2] > 0.85, "DR at D=180 should be high: {rates:?}");
}

#[test]
fn all_three_metrics_detect_gross_anomalies() {
    // One engine, all three metrics: each request is verified against every
    // metric in a single pass (µ computed once per estimate).
    let (engine, network) = engine_setup(300, &MetricKind::ALL);
    let mut rng = ChaCha8Rng::seed_from_u64(3);
    let victim = NodeId(321);
    for metric in MetricKind::ALL {
        let attack = AttackConfig {
            degree_of_damage: 200.0,
            compromised_fraction: 0.05,
            class: AttackClass::DecBounded,
            targeted_metric: metric,
        };
        // A gross anomaly should be flagged for a clear majority of trials
        // (different victims and forged directions) for every metric.
        let mut rows = ObservationBatch::new(network.group_count());
        for k in 0..30u32 {
            let outcome = simulate_attack(&network, NodeId(victim.0 + k * 131), &attack, &mut rng);
            rows.push(&outcome.tainted_observation, outcome.forged_location);
        }
        let detected = engine
            .verify_rows(&rows)
            .iter()
            .filter(|v| v.verdict(metric).expect("metric is configured").anomalous)
            .count();
        assert!(
            detected >= 21,
            "metric {} detected only {detected}/30 gross anomalies",
            metric.name()
        );
    }
}
