//! Quickstart: deploy a sensor network, fit a `LadEngine`, and detect a
//! forged location — including a batched verification pass and an artifact
//! round trip.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use lad::prelude::*;

fn main() {
    // 1. Describe the deployment: a 400 m × 400 m field, 4 × 4 deployment
    //    groups of 60 sensors, Gaussian placement with sigma = 50 m, radio
    //    range 40 m. (The paper's full-scale setup is
    //    `DeploymentConfig::paper_default()`: 1000 m, 10 × 10 groups of 300.)
    let config = DeploymentConfig::small_test();
    println!(
        "deployment: {} groups x {} nodes, sigma = {} m, R = {} m",
        config.group_count(),
        config.group_size,
        config.sigma,
        config.range
    );

    // 2. Fit the detection engine offline: all three paper metrics, trained
    //    at the 99th percentile of the clean score distributions.
    let engine = LadEngine::builder()
        .deployment(&config)
        .training(TrainingConfig {
            networks: 3,
            samples_per_network: 150,
            seed: 7,
            ..TrainingConfig::default()
        })
        .metrics(&MetricKind::ALL)
        .tau(0.99)
        .build()
        .expect("engine fits");
    println!(
        "fitted engine: metrics {:?}, thresholds {:?}",
        engine
            .metrics()
            .iter()
            .map(|m| m.name())
            .collect::<Vec<_>>(),
        engine
            .thresholds()
            .iter()
            .map(|t| (t * 10.0).round() / 10.0)
            .collect::<Vec<_>>()
    );

    // 3. Simulate a deployment and let every sensor hear its neighbours.
    let network = Network::generate(engine.knowledge().clone(), 42);
    println!("simulated {} sensors", network.node_count());

    // 4. An honest sensor localizes itself (the beaconless MLE the engine's
    //    artifact records) and verifies its own estimate: no alarm.
    let victim = NodeId(123);
    let (honest_estimate, honest) = engine
        .localize_and_verify(&network, victim)
        .expect("node has neighbours");
    println!(
        "honest estimate at ({:.0}, {:.0}): {} (worst score/threshold ratio {:.2})",
        honest_estimate.x,
        honest_estimate.y,
        if honest.anomalous { "ALARM" } else { "ok" },
        honest
            .verdicts
            .iter()
            .map(|v| v.score / v.threshold)
            .fold(0.0f64, f64::max)
    );

    // 5. Now an adversary forges the victim's location 150 m away and taints
    //    the observation with 10% compromised neighbours (Dec-Bounded greedy
    //    attack against the Diff metric — the strongest attacker in the
    //    paper).
    let mut rng = <rand_chacha::ChaCha8Rng as rand::SeedableRng>::seed_from_u64(99);
    let attack = AttackConfig {
        degree_of_damage: 150.0,
        compromised_fraction: 0.10,
        class: AttackClass::DecBounded,
        targeted_metric: MetricKind::Diff,
    };
    let outcome = simulate_attack(&network, victim, &attack, &mut rng);
    let verdict = engine.verify(&outcome.tainted_observation, outcome.forged_location);
    println!(
        "forged location {:.0} m away: {} ({} of {} metrics over threshold)",
        outcome.localization_error(),
        if verdict.anomalous {
            "ALARM (attack detected)"
        } else {
            "missed"
        },
        verdict.verdicts.iter().filter(|v| v.anomalous).count(),
        verdict.verdicts.len(),
    );

    // 6. Batch verification is the production path: µ(L_e) is computed once
    //    per estimate and shared by all three metrics, and the batch fans
    //    out over worker threads.
    let mut rows = ObservationBatch::new(network.group_count());
    for i in (0..network.node_count() as u32).step_by(5) {
        let obs = network.true_observation(NodeId(i));
        if let Some(estimate) = engine.localizer().estimate(engine.knowledge(), &obs) {
            rows.push(&obs, estimate);
        }
    }
    let verdicts = engine.verify_rows(&rows);
    let alarms = verdicts.iter().filter(|v| v.anomalous).count();
    println!(
        "batch-verified {} honest sensors: {} alarms ({:.1}% clean false-positive rate)",
        verdicts.len(),
        alarms,
        100.0 * alarms as f64 / verdicts.len() as f64
    );

    // 7. The fitted engine ships to sensors as a versioned JSON artifact.
    let artifact = engine.to_json();
    let restored = LadEngine::from_json(&artifact).expect("artifact loads");
    assert_eq!(restored.thresholds(), engine.thresholds());
    println!(
        "artifact round trip ok ({} bytes, version 1)",
        artifact.len()
    );
}
