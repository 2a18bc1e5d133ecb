//! Centroid localization (Bulusu, Heidemann, Estrin — paper reference \[4\]).
//!
//! A sensor estimates its location as the centroid of the declared positions
//! of all anchors whose beacons it hears. "It induces low overhead, but high
//! inaccuracy as compared to others" (§2.1) — which is exactly what the
//! scheme-comparison ablation shows.

use crate::anchors::AnchorField;
use crate::scheme::Localizer;
use lad_geometry::Point2;
use lad_net::{Network, NodeId};

/// Centroid-of-heard-anchors localizer.
#[derive(Debug, Clone, PartialEq)]
pub struct CentroidLocalizer {
    anchors: AnchorField,
}

impl CentroidLocalizer {
    /// Creates the localizer over a fixed anchor field.
    pub fn new(anchors: AnchorField) -> Self {
        Self { anchors }
    }

    /// The anchor field in use.
    pub fn anchors(&self) -> &AnchorField {
        &self.anchors
    }

    /// Centroid of the declared positions of the anchors heard at `position`.
    pub fn estimate_at(&self, position: Point2) -> Option<Point2> {
        let heard = self.anchors.heard_at(position);
        if heard.is_empty() {
            return None;
        }
        let n = heard.len() as f64;
        let (sx, sy) = heard.iter().fold((0.0, 0.0), |(sx, sy), a| {
            (sx + a.declared_position.x, sy + a.declared_position.y)
        });
        Some(Point2::new(sx / n, sy / n))
    }
}

impl Localizer for CentroidLocalizer {
    fn localize(&self, network: &Network, node: NodeId) -> Option<Point2> {
        self.estimate_at(network.node(node).resident_point)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_deployment::{DeploymentConfig, DeploymentKnowledge};
    use rand::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    fn network(seed: u64) -> Network {
        Network::generate(
            DeploymentKnowledge::shared(&DeploymentConfig::small_test()),
            seed,
        )
    }

    #[test]
    fn node_hearing_no_anchor_cannot_localize() {
        let net = network(1);
        // A single anchor far outside the area with a tiny range.
        let field = AnchorField::grid(&net, 1, 1, 1.0);
        let loc = CentroidLocalizer::new(field);
        assert!(loc.localize(&net, NodeId(0)).is_none());
    }

    #[test]
    fn dense_anchor_grid_gives_bounded_error() {
        let net = network(2);
        // 8x8 anchors over 400 m with 150 m beacons: every node hears several.
        let field = AnchorField::grid(&net, 8, 8, 150.0);
        let loc = CentroidLocalizer::new(field);
        let mut errors = Vec::new();
        for i in (0..net.node_count()).step_by(13) {
            let id = NodeId(i as u32);
            if let Some(est) = loc.localize(&net, id) {
                errors.push(est.distance(net.node(id).resident_point));
            }
        }
        assert!(!errors.is_empty());
        let mean = errors.iter().sum::<f64>() / errors.len() as f64;
        // Centroid is coarse; with this anchor density errors stay below ~80 m.
        assert!(mean < 80.0, "mean centroid error {mean}");
    }

    #[test]
    fn compromised_anchors_shift_the_estimate() {
        let net = network(3);
        let honest_field = AnchorField::grid(&net, 4, 4, 300.0);
        let mut bad_field = honest_field.clone();
        let mut rng = ChaCha8Rng::seed_from_u64(17);
        bad_field.compromise(8, 400.0, &mut rng);

        let honest = CentroidLocalizer::new(honest_field);
        let attacked = CentroidLocalizer::new(bad_field);
        let id = NodeId(100);
        let truth = net.node(id).resident_point;
        let e_honest = honest.localize(&net, id).unwrap().distance(truth);
        let e_attacked = attacked.localize(&net, id).unwrap().distance(truth);
        assert!(
            e_attacked > e_honest,
            "compromised anchors should hurt: {e_attacked} vs {e_honest}"
        );
    }
}
