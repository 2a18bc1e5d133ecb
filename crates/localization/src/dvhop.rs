//! DV-Hop localization (Niculescu & Nath — paper reference \[32\]).
//!
//! Anchors flood the network; every node records its minimum hop count to
//! each anchor. Each anchor then computes an average metres-per-hop
//! correction from its hop distances to the other anchors, and nodes convert
//! hop counts into distance estimates which are fed to the MMSE
//! multilateration solver.
//!
//! The hop-count flood is simulated exactly (multi-source BFS over the
//! connectivity graph), which is the expensive part; construction therefore
//! happens once per network in [`DvHopLocalizer::build`].

use crate::anchors::AnchorField;
use crate::mmse::{self, RangeMeasurement};
use crate::scheme::Localizer;
use lad_geometry::Point2;
use lad_net::{Network, NodeId};
use std::collections::VecDeque;

/// DV-Hop localizer with precomputed hop counts.
#[derive(Debug, Clone)]
pub struct DvHopLocalizer {
    /// Declared anchor positions, in anchor order.
    anchor_positions: Vec<Point2>,
    /// `hops[a][node]` = minimum hop count from anchor `a` to `node`
    /// (`u32::MAX` when unreachable).
    hops: Vec<Vec<u32>>,
    /// Average metres-per-hop correction factor, per anchor.
    hop_size: Vec<f64>,
}

impl DvHopLocalizer {
    /// Builds the localizer: floods hop counts from the node nearest to each
    /// anchor and computes the per-anchor average hop size.
    pub fn build(network: &Network, anchors: &AnchorField) -> Self {
        let anchor_positions: Vec<Point2> = anchors
            .anchors()
            .iter()
            .map(|a| a.declared_position)
            .collect();
        // Each anchor's flood starts from the sensor node closest to the
        // anchor's *true* position (the anchor itself is a radio in the field).
        let seeds: Vec<NodeId> = anchors
            .anchors()
            .iter()
            .map(|a| nearest_node(network, a.true_position))
            .collect();
        let hops: Vec<Vec<u32>> = seeds.iter().map(|&s| bfs_hops(network, s)).collect();

        // Average hop size per anchor: true inter-anchor distances divided by
        // the hop counts between their seed nodes.
        let mut hop_size = vec![0.0f64; anchor_positions.len()];
        for (i, &seed_i) in seeds.iter().enumerate() {
            let mut dist_sum = 0.0;
            let mut hop_sum = 0u64;
            for (j, _) in seeds.iter().enumerate() {
                if i == j {
                    continue;
                }
                let h = hops[j][seed_i.index()];
                if h != u32::MAX && h > 0 {
                    dist_sum += anchor_positions[i].distance(anchor_positions[j]);
                    hop_sum += h as u64;
                }
            }
            hop_size[i] = if hop_sum > 0 {
                dist_sum / hop_sum as f64
            } else {
                network.range()
            };
        }

        Self {
            anchor_positions,
            hops,
            hop_size,
        }
    }

    /// Number of anchors.
    pub fn anchor_count(&self) -> usize {
        self.anchor_positions.len()
    }

    /// The hop count from anchor `a` to `node` (`None` when unreachable).
    pub fn hop_count(&self, a: usize, node: NodeId) -> Option<u32> {
        let h = self.hops[a][node.index()];
        (h != u32::MAX).then_some(h)
    }

    /// The average hop size (metres per hop) computed for anchor `a`.
    pub fn hop_size(&self, a: usize) -> f64 {
        self.hop_size[a]
    }
}

fn nearest_node(network: &Network, p: Point2) -> NodeId {
    network
        .nodes()
        .iter()
        .min_by(|a, b| {
            a.resident_point
                .distance_squared(p)
                .partial_cmp(&b.resident_point.distance_squared(p))
                .unwrap()
        })
        .expect("network has nodes")
        .id
}

fn bfs_hops(network: &Network, source: NodeId) -> Vec<u32> {
    let mut dist = vec![u32::MAX; network.node_count()];
    let mut queue = VecDeque::new();
    dist[source.index()] = 0;
    queue.push_back(source);
    while let Some(cur) = queue.pop_front() {
        let d = dist[cur.index()];
        for nb in network.neighbors_of(cur) {
            if dist[nb.index()] == u32::MAX {
                dist[nb.index()] = d + 1;
                queue.push_back(nb);
            }
        }
    }
    dist
}

impl Localizer for DvHopLocalizer {
    fn localize(&self, _network: &Network, node: NodeId) -> Option<Point2> {
        let measurements: Vec<RangeMeasurement> = (0..self.anchor_count())
            .filter_map(|a| {
                let h = self.hop_count(a, node)?;
                Some(RangeMeasurement {
                    reference: self.anchor_positions[a],
                    distance: h as f64 * self.hop_size[a],
                })
            })
            .collect();
        mmse::solve(&measurements)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_deployment::{DeploymentConfig, DeploymentKnowledge};

    fn network(seed: u64) -> Network {
        Network::generate(
            DeploymentKnowledge::shared(&DeploymentConfig::small_test()),
            seed,
        )
    }

    #[test]
    fn hop_counts_are_zero_at_the_seed_and_grow_with_distance() {
        let net = network(41);
        let anchors = AnchorField::grid(&net, 3, 3, 100.0);
        let dv = DvHopLocalizer::build(&net, &anchors);
        assert_eq!(dv.anchor_count(), 9);
        // The seed node of anchor 0 has hop count 0 from anchor 0.
        let seed = nearest_node(&net, anchors.anchors()[0].true_position);
        assert_eq!(dv.hop_count(0, seed), Some(0));
        // A node near the opposite corner needs several hops.
        let far = nearest_node(&net, Point2::new(390.0, 390.0));
        if let Some(h) = dv.hop_count(0, far) {
            assert!(h >= 3, "far node should be several hops away, got {h}");
        }
    }

    #[test]
    fn hop_size_is_physically_plausible() {
        let net = network(42);
        let anchors = AnchorField::grid(&net, 3, 3, 100.0);
        let dv = DvHopLocalizer::build(&net, &anchors);
        for a in 0..dv.anchor_count() {
            let hs = dv.hop_size(a);
            // Each hop covers at most the radio range and realistically at
            // least a third of it in a connected deployment.
            assert!(hs > 5.0 && hs <= net.range() * 1.5, "hop size {hs}");
        }
    }

    #[test]
    fn dvhop_errors_are_bounded_but_worse_than_mle() {
        use crate::beaconless::BeaconlessMle;
        let net = network(43);
        let anchors = AnchorField::grid(&net, 4, 4, 100.0);
        let dv = DvHopLocalizer::build(&net, &anchors);
        let mle = BeaconlessMle::new();
        let ids: Vec<NodeId> = (0..60).map(|i| NodeId(i * 16)).collect();
        let mean_err = |localize: &dyn Fn(NodeId) -> Option<Point2>| -> f64 {
            let errs: Vec<f64> = ids
                .iter()
                .filter_map(|&id| {
                    let est = localize(id)?;
                    Some(est.distance(net.node(id).resident_point))
                })
                .collect();
            errs.iter().sum::<f64>() / errs.len().max(1) as f64
        };
        let dv_err = mean_err(&|id| dv.localize(&net, id));
        let mle_err = mean_err(&|id| mle.estimate(net.knowledge(), &net.true_observation(id)));
        assert!(
            dv_err < 200.0,
            "dv-hop error should be bounded, got {dv_err}"
        );
        assert!(
            mle_err < dv_err * 1.5,
            "MLE should not be far worse than DV-Hop"
        );
    }
}
