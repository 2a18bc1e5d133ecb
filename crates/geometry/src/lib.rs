//! 2-D geometry and spatial indexing substrate for the LAD reproduction.
//!
//! This crate provides the small geometric vocabulary used throughout the
//! workspace:
//!
//! * [`Point2`] — plain `f64` points in the deployment plane,
//! * [`Circle`] and [`Rect`] — the two primitive regions used by the
//!   deployment model (transmission disks and the deployment area),
//! * [`GridIndex`] — a uniform-grid spatial index that answers
//!   "which points lie within distance `r` of `q`?" without an O(N²) scan,
//! * [`sampling`] — random point generators (uniform in a rectangle, at
//!   an exact distance from an anchor, and 2-D Gaussian displacement), all
//!   driven by a caller-supplied [`rand::Rng`] so experiments stay
//!   deterministic under a fixed seed.
//!
//! Everything is deliberately dependency-light and `Copy`-friendly: the hot
//! loops of the Monte-Carlo harness create millions of points per run.

#![warn(missing_docs)]
#![warn(clippy::all)]

pub mod circle;
pub mod grid_index;
pub mod point;
pub mod rect;
pub mod sampling;

pub use circle::Circle;
pub use grid_index::GridIndex;
pub use point::Point2;
pub use rect::Rect;
