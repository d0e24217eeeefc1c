//! `gpufreq-serve` — the request-path side of the reproduction: a
//! long-running, multi-threaded prediction daemon for the paper's
//! deployment story (per-kernel DVFS decisions made online, "at the
//! driver level from static code alone", §4.5–§4.6 — a serving
//! problem, not a batch one).
//!
//! A [`Server`] loads one [`TrainedPlanner`](gpufreq_core::TrainedPlanner)
//! per served device and answers a JSON-lines protocol
//! ([`protocol`]) over TCP ([`Server::serve`]) or any byte stream —
//! stdin/stdout, a pipe, a recorded transcript
//! ([`Server::serve_lines`]). Internally it owns:
//!
//! * a **worker pool** fed by a [`BoundedQueue`](queue::BoundedQueue)
//!   with explicit backpressure — a full queue answers a typed
//!   `overloaded` error immediately, it never blocks the acceptor;
//! * a **sharded, capacity-bounded front cache**
//!   ([`cache::FrontCache`]) keyed by `(device, source-hash)`, so a
//!   repeated kernel skips parsing, analysis *and* the
//!   full-configuration SVR scan and replays byte-identical response
//!   bytes;
//! * **metrics** ([`metrics::Metrics`]): request counters, cache hit
//!   rates, queue depth, and a latency histogram with p50/p95/p99
//!   (a [`gpufreq_obs::Histogram`]),
//!   surfaced by the `stats` request and the final shutdown summary;
//! * **deterministic responses**: the same request stream produces
//!   byte-identical response bodies at any worker count (see
//!   [`server`]'s module docs; pinned by `tests/determinism.rs`).
//!
//! ```no_run
//! use gpufreq_core::{Corpus, Planner};
//! use gpufreq_serve::{Server, ServerConfig};
//! use std::net::TcpListener;
//!
//! # fn main() -> Result<(), Box<dyn std::error::Error>> {
//! let planners = Planner::builder().corpus(Corpus::Full).train_all_devices()?;
//! let server = Server::new(planners, ServerConfig::default())?;
//! let listener = TcpListener::bind("127.0.0.1:7071")?;
//! let summary = server.serve(listener)?; // blocks until a `shutdown` request
//! println!("served {} requests", summary.requests.total);
//! # Ok(())
//! # }
//! ```
//!
//! The daemon is also a full gateway: an optional **HTTP/1.1
//! listener** ([`http`]) shares the same server core
//! ([`Server::serve_with_http`]), a **connection cap** refuses (with a
//! typed error) rather than spawning unboundedly, **admission
//! control** ([`admission`]) sheds predict load when the rolling p99
//! crosses a target or a client exhausts its per-IP quota, and models
//! **hot-reload** ([`reload`]) per device without dropping
//! connections. The connection plumbing — the cap and its refusal,
//! socket setup, the accept loops, the bounded line framer — is the
//! [`conn`] module, which the router (`gpufreq-router`) serves its
//! clients through too, plugged in via [`http::Gateway`].
//!
//! The CLI front ends are `gpufreq serve` / `gpufreq client`; the load
//! generator is the `loadgen` binary of `gpufreq-bench`.

#![deny(missing_docs)]

pub mod admission;
pub mod cache;
pub mod codec;
pub mod conn;
pub mod http;
pub mod metrics;
pub mod protocol;
pub mod queue;
pub mod reload;
pub mod server;

pub use admission::{AdmissionConfig, Quota};
pub use codec::{LineClient, TraceEntry};
pub use protocol::{
    BatchResult, ConnectionStats, DeviceInfo, ErrorBody, ErrorCode, LatencyStats, Request,
    Response, ServerInfo, ServerStats, SlotInfo,
};
pub use reload::PlannerSlot;
pub use server::{build_rev, render_stats_table, ServeError, Server, ServerConfig, STAGE_NAMES};
