//! Statistics substrate for the LAD reproduction.
//!
//! The LAD paper leans on a handful of numerical and statistical tools:
//!
//! * the Theorem-1 integral for `g(z)` needs a **quadrature** routine
//!   ([`integrate`]) and a constant-time **lookup table** ([`lookup`]),
//! * the probability metric needs a numerically stable **binomial pmf**
//!   ([`binomial`]),
//! * the deployment model is a 2-D isotropic **Gaussian** ([`gaussian`]),
//! * threshold training uses **percentiles** ([`percentile`]) over sampled
//!   metric values ([`summary`]),
//! * the evaluation section is built around **ROC curves** ([`roc`]) and
//!   their O(bins)-memory **streaming accumulators** ([`streaming`]),
//! * the online serving runtime needs **sequential detectors** over
//!   per-round score streams ([`sequential`]),
//! * reproducible parallel Monte-Carlo needs **seed derivation** ([`seeds`]).
//!
//! Everything is implemented from scratch on top of `std` + `rand`, so the
//! workspace does not pull in a numerics stack.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod binomial;
pub mod gaussian;
pub mod integrate;
pub mod ks;
pub mod lookup;
pub mod percentile;
pub mod roc;
pub mod seeds;
pub mod sequential;
pub mod streaming;
pub mod summary;

pub use binomial::Binomial;
pub use gaussian::IsotropicGaussian2d;
pub use lookup::{LookupTable, PreparedLookup};
pub use roc::{RocCurve, RocPoint};
pub use sequential::{SequentialDetector, SequentialState};
pub use streaming::{streaming_ks, streaming_roc, AccumulatorConfig, ScoreAccumulator};
pub use summary::{OnlineStats, Summary};
