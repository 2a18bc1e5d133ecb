//! Generation of full deployments and neighbourhood queries.

use crate::node::{GroupId, NodeId, SensorNode};
use crate::observation::Observation;
use lad_deployment::DeploymentKnowledge;
use lad_geometry::{GridIndex, Point2};
use lad_stats::seeds::derive_seed;
use rand::SeedableRng;
use rand_chacha::ChaCha8Rng;
use rayon::prelude::*;
use std::sync::Arc;

/// A fully deployed sensor network: every node of every group together with a
/// spatial index for transmission-range neighbourhood queries.
#[derive(Debug, Clone)]
pub struct Network {
    knowledge: Arc<DeploymentKnowledge>,
    nodes: Vec<SensorNode>,
    index: GridIndex,
}

impl Network {
    /// Generates a deployment from the given knowledge and master seed.
    ///
    /// Groups are sampled in parallel; each group derives its own RNG from
    /// `(seed, group_index)` so the result is identical regardless of thread
    /// scheduling.
    pub fn generate(knowledge: Arc<DeploymentKnowledge>, seed: u64) -> Self {
        let group_count = knowledge.group_count();
        let group_size = knowledge.group_size();
        let placement = knowledge.placement();
        let layout = knowledge.layout().clone();

        let per_group: Vec<Vec<Point2>> = (0..group_count)
            .into_par_iter()
            .map(|g| {
                let mut rng = ChaCha8Rng::seed_from_u64(derive_seed(seed, &[g as u64]));
                let dp = layout.deployment_point(g);
                (0..group_size)
                    .map(|_| placement.sample(&mut rng, dp))
                    .collect()
            })
            .collect();

        let mut nodes = Vec::with_capacity(group_count * group_size);
        for (g, residents) in per_group.into_iter().enumerate() {
            let dp = layout.deployment_point(g);
            for rp in residents {
                nodes.push(SensorNode {
                    id: NodeId(nodes.len() as u32),
                    group: GroupId(g as u16),
                    deployment_point: dp,
                    resident_point: rp,
                });
            }
        }

        let index = Self::build_index(&knowledge, &nodes);
        Self {
            knowledge,
            nodes,
            index,
        }
    }

    fn build_index(knowledge: &DeploymentKnowledge, nodes: &[SensorNode]) -> GridIndex {
        let points: Vec<Point2> = nodes.iter().map(|n| n.resident_point).collect();
        // Cell size = transmission range keeps range queries to a 3×3 block.
        GridIndex::build(
            knowledge.config().area(),
            knowledge.range().max(1.0),
            &points,
        )
    }

    /// The deployment knowledge the network was generated from.
    pub fn knowledge(&self) -> &Arc<DeploymentKnowledge> {
        &self.knowledge
    }

    /// Number of nodes in the network.
    pub fn node_count(&self) -> usize {
        self.nodes.len()
    }

    /// Number of deployment groups.
    pub fn group_count(&self) -> usize {
        self.knowledge.group_count()
    }

    /// Transmission range `R`.
    pub fn range(&self) -> f64 {
        self.knowledge.range()
    }

    /// The node with the given id.
    pub fn node(&self, id: NodeId) -> &SensorNode {
        &self.nodes[id.index()]
    }

    /// All nodes, ordered by id.
    pub fn nodes(&self) -> &[SensorNode] {
        &self.nodes
    }

    /// Ids of all neighbours of `id` (nodes within range, excluding itself).
    pub fn neighbors_of(&self, id: NodeId) -> Vec<NodeId> {
        let me = self.node(id);
        let mut out = Vec::new();
        self.index
            .for_each_within(me.resident_point, self.range(), |i, _| {
                if i != id.index() {
                    out.push(NodeId(i as u32));
                }
            });
        out
    }

    /// Number of neighbours of `id`.
    pub fn degree(&self, id: NodeId) -> usize {
        self.neighbors_of(id).len()
    }

    /// The true (untainted) observation of node `id`: the per-group counts of
    /// its actual neighbours, assuming every neighbour truthfully broadcasts
    /// its group id.
    pub fn true_observation(&self, id: NodeId) -> Observation {
        let groups = self
            .neighbors_of(id)
            .into_iter()
            .map(|n| self.node(n).group);
        Observation::from_groups(self.group_count(), groups)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lad_deployment::DeploymentConfig;

    fn small_network(seed: u64) -> Network {
        let knowledge = DeploymentKnowledge::shared(&DeploymentConfig::small_test());
        Network::generate(knowledge, seed)
    }

    #[test]
    fn generation_produces_all_nodes_with_correct_groups() {
        let net = small_network(1);
        let cfg = DeploymentConfig::small_test();
        assert_eq!(net.node_count(), cfg.total_nodes());
        assert_eq!(net.group_count(), cfg.group_count());
        // Node k belongs to group k / m.
        for (i, node) in net.nodes().iter().enumerate() {
            assert_eq!(node.id.index(), i);
            assert_eq!(node.group.index(), i / cfg.group_size);
            assert_eq!(
                node.deployment_point,
                net.knowledge()
                    .layout()
                    .deployment_point(node.group.index())
            );
        }
    }

    #[test]
    fn generation_is_deterministic_in_the_seed() {
        let a = small_network(7);
        let b = small_network(7);
        let c = small_network(8);
        assert_eq!(a.nodes(), b.nodes());
        assert_ne!(a.nodes(), c.nodes());
    }

    #[test]
    fn paper_default_resident_points_are_pinned() {
        // FNV-1a over every node's resident-point bits at paper scale: a
        // change to the placement sampler or the order of its RNG draws
        // moves this digest, even when generation stays deterministic.
        let knowledge = DeploymentKnowledge::shared(&DeploymentConfig::paper_default());
        let net = Network::generate(knowledge, 7);
        let digest = net
            .nodes()
            .iter()
            .flat_map(|n| [n.resident_point.x.to_bits(), n.resident_point.y.to_bits()])
            .flat_map(u64::to_le_bytes)
            .fold(0xcbf2_9ce4_8422_2325u64, |h, b| {
                (h ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3)
            });
        assert_eq!((digest, net.node_count()), (0xaddf_12fa_0254_6407, 30_000));
    }

    #[test]
    fn neighbors_are_within_range_and_exclude_self() {
        let net = small_network(2);
        let id = NodeId(10);
        let me = net.node(id);
        let neighbors = net.neighbors_of(id);
        assert!(!neighbors.contains(&id));
        for n in &neighbors {
            assert!(me.in_range(net.node(*n), net.range()));
        }
        // And nothing within range was missed (brute force check).
        let brute: Vec<NodeId> = net
            .nodes()
            .iter()
            .filter(|n| n.id != id && me.in_range(n, net.range()))
            .map(|n| n.id)
            .collect();
        let mut got = neighbors.clone();
        got.sort();
        let mut want = brute;
        want.sort();
        assert_eq!(got, want);
    }

    #[test]
    fn true_observation_counts_match_degree() {
        let net = small_network(3);
        for idx in [0u32, 5, 100, 500] {
            let id = NodeId(idx);
            let obs = net.true_observation(id);
            assert_eq!(obs.total() as usize, net.degree(id));
            assert_eq!(obs.group_count(), net.group_count());
        }
    }

    #[test]
    fn drift_statistics_match_sigma() {
        // Mean drift of a Rayleigh(50) is 50·sqrt(pi/2) ≈ 62.7; with 960 nodes
        // the sample mean should be within a few metres.
        let net = small_network(5);
        let mean_drift: f64 =
            net.nodes().iter().map(|n| n.drift()).sum::<f64>() / net.node_count() as f64;
        assert!((mean_drift - 62.7).abs() < 5.0, "mean drift {mean_drift}");
    }

    #[test]
    fn interior_degree_is_near_expected_density() {
        // For the small config: density = 960 / 160000 m^-2 = 0.006, disk area
        // = pi * 40^2 ≈ 5027 -> ≈ 30 neighbours in the interior.
        let net = small_network(6);
        let center = Point2::new(200.0, 200.0);
        let interior = net
            .nodes()
            .iter()
            .min_by(|a, b| {
                let (da, db) = (
                    a.resident_point.distance(center),
                    b.resident_point.distance(center),
                );
                da.total_cmp(&db)
            })
            .expect("the network has nodes");
        let degree = net.degree(interior.id);
        assert!((12..=55).contains(&degree), "interior degree {degree}");
    }
}
