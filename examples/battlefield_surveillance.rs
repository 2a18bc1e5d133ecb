//! Battlefield surveillance: the motivating scenario of the paper's
//! introduction.
//!
//! Sensors report whether their region is safe; if an adversary can convince
//! sensors that they are somewhere they are not, "this wrong information can
//! cause significant damage". This example deploys a paper-scale network,
//! lets an adversary mislead a subset of sensors by various distances, and
//! shows how many of the misled sensors LAD flags before their (mislocated)
//! reports would be trusted.
//!
//! ```text
//! cargo run --release --example battlefield_surveillance
//! ```

use lad::prelude::*;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;

fn main() {
    // Paper-scale deployment: 10 × 10 groups of 300 sensors over 1 km².
    // Fit the detection engine once, before the mission; the simulated
    // network shares the engine's deployment knowledge.
    let config = DeploymentConfig::paper_default();
    let engine = LadEngine::builder()
        .deployment(&config)
        .training(TrainingConfig {
            networks: 2,
            samples_per_network: 200,
            seed: 11,
            ..TrainingConfig::default()
        })
        .metric(MetricKind::Diff)
        .tau(0.99)
        .build()
        .expect("engine fits");
    let network = Network::generate(engine.knowledge().clone(), 2024);
    println!(
        "battlefield deployment: {} sensors over {:.0} m x {:.0} m",
        network.node_count(),
        config.area_side,
        config.area_side
    );
    println!(
        "Diff-metric threshold (tau = 99%): {:.1}",
        engine.thresholds()[0]
    );

    // The adversary misleads 200 sensors; the damage it aims for varies.
    let mut rng = ChaCha8Rng::seed_from_u64(5);
    println!(
        "\n{:>10} {:>12} {:>12} {:>14}",
        "damage D", "victims", "detected", "detection rate"
    );
    for &damage in &[40.0, 80.0, 120.0, 160.0, 200.0] {
        let attack = AttackConfig {
            degree_of_damage: damage,
            compromised_fraction: 0.10,
            class: AttackClass::DecBounded,
            targeted_metric: MetricKind::Diff,
        };
        let victims: Vec<NodeId> = (0..200u32).map(|i| NodeId(i * 149)).collect();
        // Simulate the attacks, then verify the whole wave in one batched
        // engine pass.
        let mut rows = ObservationBatch::new(network.group_count());
        for &victim in &victims {
            let outcome = simulate_attack(&network, victim, &attack, &mut rng);
            rows.push(&outcome.tainted_observation, outcome.forged_location);
        }
        let detected = engine
            .verify_rows(&rows)
            .iter()
            .filter(|v| v.anomalous)
            .count();
        println!(
            "{:>10.0} {:>12} {:>12} {:>13.1}%",
            damage,
            victims.len(),
            detected,
            100.0 * detected as f64 / victims.len() as f64
        );
    }

    println!(
        "\nInterpretation: misleading a sensor by more than one deployment cell (100 m)\n\
         is almost always caught, so the surveillance picture can only be distorted\n\
         by small distances — exactly the paper's conclusion."
    );
}
