//! Localization schemes for the LAD reproduction.
//!
//! LAD itself is localization-agnostic (§7.2 of the paper): it takes an
//! already-estimated location `L_e` and decides whether it is consistent with
//! the node's observation. The paper evaluates LAD on top of the beaconless
//! localization scheme of its companion paper (reference \[8\]); this crate
//! provides that scheme plus the classic beacon-based baselines discussed in
//! the related-work section, so the "scheme independence" ablation (DESIGN.md
//! E10) can be run:
//!
//! * [`beaconless::BeaconlessMle`] — maximum-likelihood localization from the
//!   neighbours' group memberships and the deployment knowledge,
//! * [`centroid::CentroidLocalizer`] — centroid of the anchors in range
//!   (Bulusu et al.),
//! * [`dvhop::DvHopLocalizer`] — hop-count based multilateration
//!   (Niculescu & Nath), backed by the [`mmse`] least-squares solver,
//! * [`anchors`] — anchor (beacon) node generation, including compromised
//!   anchors that declare false positions.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod anchors;
pub mod beaconless;
pub mod centroid;
pub mod dvhop;
pub mod mmse;
pub mod scheme;

pub use anchors::{Anchor, AnchorField};
pub use beaconless::BeaconlessMle;
pub use centroid::CentroidLocalizer;
pub use dvhop::DvHopLocalizer;
pub use scheme::{LocalizationScheme, Localizer};
