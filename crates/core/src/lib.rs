//! LAD — Localization Anomaly Detection (the paper's core contribution).
//!
//! LAD runs *after* localization: a sensor holds an estimated location `L_e`
//! (from any localization scheme) and an observation `o` (per-group neighbour
//! counts from the group-ID broadcast). Using deployment knowledge it derives
//! the expected observation `µ(L_e)` and measures the inconsistency between
//! `o` and `µ` with one of three metrics (§5):
//!
//! * [`MetricKind::Diff`] — `DM = Σ |o_i − µ_i|`,
//! * [`MetricKind::AddAll`] — `AM = Σ max(o_i, µ_i)`,
//! * [`MetricKind::Probability`] — alarm when any
//!   `Pr(X_i = o_i | L_e)` is too small.
//!
//! Thresholds are obtained by τ-percentile training on clean simulated
//! deployments ([`training`]). The front door is [`engine::LadEngine`]: a
//! batched, multi-metric detection engine that scores CSR observation rows
//! ([`lad_net::ObservationBatch`]) against the sparse support of `µ(L_e)`,
//! computed once per estimate, fans batches out over worker threads,
//! verifies estimates from any localization scheme, and serialises to
//! versioned artifacts. It is the only detector: [`LadEngine::verify`] and
//! [`LadEngine::verify_rows`] return one [`Verdict`] per metric. The dense
//! [`MetricKind::score`] is the reference the sparse kernels
//! ([`MetricKind::score_sparse`], [`metrics::score_all_fused_sparse`]) are
//! tested against bit for bit.
//!
//! # Quick example
//!
//! ```
//! use lad_core::prelude::*;
//! use lad_deployment::DeploymentConfig;
//! use lad_net::{Network, ObservationBatch};
//!
//! // Small deployment for the doc test; the paper uses 10×10 groups of 300.
//! // Fit an engine offline: train all three metrics at the 99th percentile.
//! let engine = LadEngine::builder()
//!     .deployment(&DeploymentConfig::small_test())
//!     .training(TrainingConfig {
//!         networks: 2,
//!         samples_per_network: 64,
//!         seed: 7,
//!         ..TrainingConfig::default()
//!     })
//!     .metrics(&MetricKind::ALL)
//!     .tau(0.99)
//!     .build()
//!     .unwrap();
//!
//! // Online phase: verify a batch of (observation, estimate) rows. µ(L_e)
//! // is computed once per estimate and shared by all three metrics.
//! let network = Network::generate(engine.knowledge().clone(), 42);
//! let mut rows = ObservationBatch::new(engine.knowledge().group_count());
//! for i in 0..20u32 {
//!     let obs = network.true_observation(lad_net::NodeId(i * 11));
//!     if let Some(estimate) = engine.localizer().estimate(engine.knowledge(), &obs) {
//!         rows.push(&obs, estimate);
//!     }
//! }
//! let verdicts = engine.verify_rows(&rows);
//! assert_eq!(verdicts.len(), rows.len());
//! // Honest nodes rarely alarm at tau = 0.99.
//! let alarms = verdicts.iter().filter(|v| v.anomalous).count();
//! assert!(alarms * 4 < verdicts.len());
//! ```

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod engine;
pub mod expected;
pub mod metrics;
pub mod threshold;
pub mod training;

pub use engine::{EngineArtifact, EngineError, LadEngine, LadEngineBuilder, MultiVerdict, Verdict};
pub use metrics::MetricKind;
pub use threshold::TrainedThresholds;
pub use training::{Trainer, TrainingConfig};

/// Commonly used items, re-exported for convenience.
pub mod prelude {
    pub use crate::engine::{
        EngineArtifact, EngineError, LadEngine, LadEngineBuilder, MultiVerdict, Verdict,
    };
    pub use crate::metrics::MetricKind;
    pub use crate::threshold::TrainedThresholds;
    pub use crate::training::{Trainer, TrainingConfig};
}
