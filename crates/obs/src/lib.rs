//! `gpufreq-obs`: dependency-free observability primitives for the
//! serving tier.
//!
//! Four small modules, each usable on its own:
//!
//! * [`trace`] — compact hex trace ids, plus structural helpers to
//!   extract an optional `"trace"` field from a raw JSON request line
//!   and to append one to a response body without re-serializing it.
//! * [`spans`] — monotonic-clock per-stage timers ([`SpanRecorder`])
//!   feeding lock-free power-of-two latency histograms grouped into a
//!   named [`StageSet`].
//! * [`expo`] — a Prometheus-style text exposition builder (counters,
//!   gauges, histograms with cumulative buckets) and a validating
//!   parser for it, shared by tests, `loadgen --trace`, and CI.
//! * [`log`] — a sampled, rate-limited JSON-lines slow-request/error
//!   log whose records carry the trace id and per-stage breakdown.
//!
//! Everything here is deliberately decoupled from the wire protocol:
//! the serve and router crates own *what* they measure; this crate
//! owns the clocks, buckets, and formats.

#![deny(missing_docs)]

pub mod expo;
pub mod log;
pub mod spans;
pub mod trace;

pub use expo::{parse as parse_exposition, Exposition};
pub use log::{TraceLog, TraceRecord};
pub use spans::{
    quantile_from_counts, Histogram, HistogramSnapshot, SpanRecorder, StageSet, BUCKETS,
};
