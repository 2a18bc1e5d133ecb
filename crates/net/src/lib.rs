//! Wireless sensor network simulator for the LAD reproduction.
//!
//! This crate turns the deployment-knowledge model of [`lad_deployment`] into
//! concrete simulated networks:
//!
//! * [`node`] — sensor nodes with a group id, a deployment point and a
//!   resident point,
//! * [`network`] — generation of a full deployment (all groups, all nodes)
//!   plus a spatial index answering neighbourhood queries in O(1) cells,
//! * [`observation`] — the per-group neighbour-count vector
//!   `o = (o_1, …, o_n)` that a sensor builds after the group-ID broadcast
//!   (§5.1 of the paper),
//! * [`batch`] — flat CSR-style batches of `(sparse observation, estimate)`
//!   rows, the zero-allocation currency of the batched detection hot path,
//! * [`topology`] — degree and connectivity statistics used by the
//!   experiment reports.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod batch;
pub mod network;
pub mod node;
pub mod observation;
pub mod topology;

pub use batch::{BatchCsr, CsrError, ObsRow, ObservationBatch};
pub use network::Network;
pub use node::{GroupId, NodeId, SensorNode};
pub use observation::Observation;
