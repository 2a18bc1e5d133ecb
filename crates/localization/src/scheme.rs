//! The interface the beacon-based localization schemes implement.
//!
//! [`Localizer`] is the simulation-facing view: given the deployed network
//! and a node id, estimate the node's location. The beacon-based baselines
//! (centroid, DV-Hop) need this view because they read anchor broadcasts
//! off the network, and the evaluation harness picks one of them at run
//! time. The beaconless MLE needs only what a sensor holds, so it is called
//! directly through [`crate::BeaconlessMle::estimate`] — the detection
//! engine localizes with the one its artifact records.

use lad_geometry::Point2;
use lad_net::{Network, NodeId};

/// A localization scheme: given the deployed network and a node, produce the
/// node's estimated location `L_e`.
///
/// Implementations only use information the node could plausibly have
/// (its neighbours' broadcasts, anchor beacons, deployment knowledge) —
/// never the node's true resident point.
///
/// The `Send + Sync` bound lets evaluation harnesses run localization for
/// many nodes in parallel.
pub trait Localizer: Send + Sync {
    /// Estimates the location of `node`, or `None` when the scheme has no
    /// information at all (e.g. an isolated node hearing no anchors).
    fn localize(&self, network: &Network, node: NodeId) -> Option<Point2>;
}
