//! `gpufreq-pareto` — multi-objective machinery for the `gpufreq`
//! reproduction of *Predictable GPUs Frequency Scaling for Energy and
//! Performance* (Fan, Cosenza, Juurlink — ICPP 2019).
//!
//! * [`point`] — the bi-objective [`Objectives`] type (speedup ↑,
//!   normalized energy ↓) with the paper's dominance definition;
//! * [`simple`] — Algorithm 1 exactly as printed in §3.4: the test
//!   oracle, the evaluation's front, and the serving benchmark's
//!   reference for the Pareto layer;
//! * [`fast`] — the `O(n log n)` sort-and-scan front the paper alludes
//!   to (Kung, Luccio & Preparata, JACM 1975), which returns Algorithm
//!   1's exact index list on every input and is what prediction serves;
//! * [`hypervolume`](crate::hypervolume::hypervolume) — 2-D hypervolume and the binary coverage
//!   difference `D(P*, P′)` with reference point `(0.0, 2.0)` (§4.5);
//! * [`extrema`] — max-speedup / min-energy extreme-point distances
//!   (Table 2).
//!
//! # Example
//!
//! ```
//! use gpufreq_pareto::{Objectives, pareto_front_simple, paper_coverage_difference};
//!
//! let points = vec![
//!     Objectives::new(1.0, 1.0),  // default configuration
//!     Objectives::new(1.15, 1.3), // faster but hungrier
//!     Objectives::new(0.9, 0.75), // slower but frugal
//!     Objectives::new(0.85, 0.9), // dominated by the previous point
//! ];
//! let front = pareto_front_simple(&points);
//! assert_eq!(front.len(), 3);
//! assert!(paper_coverage_difference(&front, &points).abs() < 1e-12);
//! ```

#![warn(missing_docs)]

pub mod extrema;
pub mod fast;
pub mod hypervolume;
pub mod point;
pub mod simple;

pub use extrema::{extreme_point_distances, max_speedup_point, min_energy_point, ExtremeDistance};
pub use fast::{pareto_front_fast, pareto_set_fast};
pub use hypervolume::{
    coverage_difference, hypervolume, paper_coverage_difference, PAPER_REFERENCE,
};
pub use point::Objectives;
pub use simple::{pareto_front_simple, pareto_set_simple};
