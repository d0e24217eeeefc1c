//! `gpufreq-router`: the horizontal scale-out tier of the serving
//! stack — a device-sharded router fronting replicated `gpufreq serve`
//! daemons.
//!
//! The router owns client connections (JSON-lines and the HTTP
//! gateway, same surfaces as a daemon) and forwards every request over
//! the **existing line protocol** — it computes no predictions and
//! holds no models, so backends can be added, drained, and restarted
//! behind a stable client address. Client connections go through the
//! daemon's own connection layer, [`gpufreq_serve::conn`] (the cap and
//! its typed refusal, socket setup, accept loops, the bounded line
//! framer), with [`Router`] plugged in as its
//! [`Gateway`](gpufreq_serve::http::Gateway), so both tiers answer
//! the same wire.
//!
//! # Routing
//!
//! Two levels, both deterministic:
//!
//! 1. **Shard by device**: the request's `device` field picks the set
//!    of backends (replicas) serving that device.
//! 2. **Replica by source-hash**: within a shard,
//!    `key_hash(device, source) % replicas` — the same FNV-1a hash the
//!    backends key their front caches with — picks the replica, so a
//!    given kernel always lands on the same backend and the replicas'
//!    warm caches stay disjoint. `predict_batch` splits by the same
//!    rule and the responses are merged back in request order.
//!
//! Responses are **byte-identical** to a single-backend run: single-
//! shard traffic is relayed verbatim, and split batches are merged by
//! splicing the backends' raw result-slot bytes (never re-serializing
//! a prediction). The record/replay acceptance harness in
//! `tests/acceptance.rs` pins this end-to-end.
//!
//! # Operation
//!
//! A health thread probes every backend (`devices`) on a fixed
//! cadence; each backend sits behind a circuit breaker
//! ([`wire::CircuitState`]) that opens on connection failures or typed
//! `overloaded` responses, rejects while open, and re-closes via a
//! half-open probe. In-flight requests per backend are bounded.
//! Failed replicas are failed over in ring order; when no replica can
//! take a request the router answers the protocol's own typed
//! `overloaded` error. `stats` aggregates the backends' snapshots and
//! appends a `router` section with per-backend health.

#![deny(missing_docs)]

pub mod backend;
pub mod breaker;
pub mod config;
pub(crate) mod health;
pub mod route;
pub mod server;
pub mod wire;

pub use config::{BackendSpec, RouterConfig};
pub use server::{Router, RouterError, ROUTER_STAGE_NAMES};
pub use wire::{BackendSnapshot, CircuitState, RouterCounters, RouterSnapshot};
