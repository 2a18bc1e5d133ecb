//! The deployment-knowledge model of the LAD paper (§3).
//!
//! Sensors are deployed in `n` equal-size groups; group `G_i` is dropped at a
//! known **deployment point** and each of its members lands at a **resident
//! point** drawn from an isotropic 2-D Gaussian centred at the deployment
//! point (§3.2). The deployment points are arranged in a grid (Figure 1,
//! [`layout`]); the Gaussian is the [`placement`] model.
//!
//! The quantity the detector actually needs is `g_i(θ)`: the probability that
//! a node of group `G_i` resides within transmission range `R` of the point
//! `θ`. Theorem 1 gives `g_i(θ) = g(|θ − G_i|)` with
//!
//! ```text
//! g(z) = 1{z < R}·(1 − e^{−(R−z)²/2σ²})
//!        + ∫_{|z−R|}^{z+R} f_R(ℓ) · 2ℓ·cos⁻¹((ℓ² + z² − R²)/(2ℓz)) dℓ
//! ```
//!
//! [`gz`] implements the exact quadrature and the constant-time ω-entry
//! lookup table of §3.3; [`knowledge`] bundles the layout, the table and the
//! group size into the [`DeploymentKnowledge`] object consumed by the
//! detector and the localization schemes. `g(z)` is 0 beyond the table's
//! tail `z_max`, so only the groups within `z_max` of `θ` — the support —
//! can have `g_i(θ) ≠ 0`. One program computes `g_i` and `µ_i = m·g_i`: a
//! gather of the support through a spatial index, then the
//! [`PreparedGz`] map over it, into the [`sparse`] format (densified on
//! demand); [`mu_cache`] memoizes it per estimate.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod config;
pub mod gz;
pub mod knowledge;
pub mod layout;
pub mod mu_cache;
pub mod placement;
pub mod sparse;

pub use config::DeploymentConfig;
pub use gz::{gz_exact, GzTable, PreparedGz};
pub use knowledge::DeploymentKnowledge;
pub use layout::DeploymentLayout;
pub use mu_cache::MuCache;
pub use placement::PlacementModel;
pub use sparse::{MuView, SparseMu};
