//! `gpufreq-sim` — a deterministic, cycle-approximate GPU DVFS
//! simulator.
//!
//! This crate is the hardware substrate of the `gpufreq` reproduction
//! of *Predictable GPUs Frequency Scaling for Energy and Performance*
//! (Fan, Cosenza, Juurlink — ICPP 2019). The paper measures a physical
//! GTX Titan X through NVML; this environment has no GPU, so the
//! simulator reproduces the *mechanisms* the measurements expose:
//!
//! * [`clocks`] — the exact clock-domain structure of the Titan X
//!   (four memory domains, 219 advertised configurations, the 1202 MHz
//!   clamp quirk, 6/71/50/50 actual core clocks per domain) and of a
//!   Tesla P100;
//! * [`voltage`] — a DVFS voltage curve with a near-threshold floor;
//! * [`timing`] — a roofline-style execution-time model that yields
//!   compute-bound (linear-in-`f_core`) and memory-bound
//!   (flat-in-`f_core`) regimes;
//! * [`power`] — a component-decomposed power model whose `V²·f` core
//!   term produces the paper's parabola-with-minimum energy curves;
//! * [`sensor`] — the 62.5 Hz NVML power sampler and the multi-run
//!   measurement protocol of §4.1, including simulated wall-clock
//!   accounting (why exhaustive sweeps take 70 minutes per kernel);
//! * [`registry`] — the typed [`Device`] registry mapping stable ids
//!   (`titan-x`, `tesla-p100`, `tesla-k20c`) to specs and simulators;
//! * [`runner`] — the [`GpuSimulator`]: run, sweep (scoped-thread-parallel)
//!   and characterize kernels against the default-clock baseline;
//! * [`noise`] — optional seeded measurement noise.
//!
//! # Example
//!
//! ```
//! use gpufreq_sim::GpuSimulator;
//! use gpufreq_kernel::{parse, AnalysisConfig, KernelProfile, LaunchConfig};
//!
//! let program = parse(
//!     "__kernel void scale(__global float* x) {
//!          uint i = get_global_id(0);
//!          x[i] = x[i] * 2.0f;
//!      }",
//! ).unwrap();
//! let profile = KernelProfile::from_kernel(
//!     program.first_kernel().unwrap(),
//!     &AnalysisConfig::default(),
//!     LaunchConfig::new(1 << 20, 256),
//! ).unwrap();
//!
//! let sim = GpuSimulator::titan_x();
//! let characterization = sim.characterize(&profile);
//! assert_eq!(characterization.points.len(), 177);
//! ```

#![deny(missing_docs)]

pub mod clocks;
pub mod device;
pub mod noise;
pub mod power;
pub mod registry;
pub mod runner;
pub mod sensor;
pub mod timing;
pub mod voltage;

pub use clocks::{
    tesla_k20c_clock_table, tesla_p100_clock_table, titan_x_clock_table, ClockTable, MemDomain,
    MemoryDomainClocks, TITAN_X_CLAMP_MHZ, TITAN_X_DEFAULT,
};
pub use device::{CpiTable, DeviceSpec, EnergyTable};
pub use noise::{NoiseModel, NoiseSampler};
pub use power::{average_power, energy_j, PowerBreakdown};
pub use registry::{Device, UnknownDevice};
pub use runner::{Characterization, GpuSimulator, NormalizedMeasurement, UnsupportedConfig};
pub use sensor::{measure, Measurement, MeasurementProtocol, NVML_SAMPLE_HZ};
pub use timing::{execution_time, KernelDemand, TimingBreakdown};
pub use voltage::VoltageCurve;
