//! `gpufreq-ml` — the regression substrate of the `gpufreq`
//! reproduction of *Predictable GPUs Frequency Scaling for Energy and
//! Performance* (Fan, Cosenza, Juurlink — ICPP 2019).
//!
//! Everything is implemented from scratch:
//!
//! * [`svr`] — ε-support-vector regression trained by SMO with
//!   second-order working-set selection over kernel rows stored per
//!   sample (the paper's model class: linear kernel for speedup, RBF
//!   with `γ = 0.1` for normalized energy, both at `C = 1000`,
//!   `ε = 0.1`);
//! * [`linear`] — OLS / ridge via pivoted Gaussian elimination,
//!   [`lasso`] — coordinate descent, [`poly`] — degree-2 polynomial
//!   ridge: the alternatives §3.4 reports comparing against;
//! * [`dataset`] — seeded shuffling/splitting, [`scale`] — the min-max
//!   feature scaler of §3.2;
//! * [`metrics`] — RMSE%, signed percentage errors and box-plot
//!   statistics exactly as reported in Figs. 6–7.
//!
//! # Example
//!
//! ```
//! use gpufreq_ml::{Dataset, SvrParams, train_svr};
//!
//! let mut data = Dataset::new();
//! for i in 0..50 {
//!     let x = i as f64 / 49.0;
//!     data.push(vec![x], 2.0 * x + 1.0);
//! }
//! let model = train_svr(&data, &SvrParams::paper_speedup());
//! assert!((model.predict(&[0.5]) - 2.0).abs() < 0.15);
//! ```

#![warn(missing_docs)]

pub mod dataset;
pub mod kernel_fn;
pub mod lasso;
pub mod linear;
pub mod metrics;
pub mod poly;
pub mod scale;
pub mod svr;

pub use dataset::Dataset;
pub use kernel_fn::SvmKernel;
pub use lasso::{train_lasso, LassoParams};
pub use linear::{solve_linear_system, train_ols, train_ridge, LinearModel};
pub use metrics::{mae, percent_errors, r2, rmse, rmse_percent, BoxStats};
pub use poly::{expand, train_poly, PolyModel};
pub use scale::MinMaxScaler;
pub use svr::{train_svr, LineGrid, Points, ScoringPlan, SvrModel, SvrParams};
