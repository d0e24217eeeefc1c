//! The prediction server: planners for every served device, a worker
//! pool behind a bounded queue, the response front cache, and the
//! TCP/stdio serving loops.
//!
//! # Determinism
//!
//! For every request except `stats` (a live metrics snapshot by
//! definition), the response body is a pure function of the request
//! and the loaded models: workers merge nothing, each request's
//! response is computed independently, and the per-connection
//! [`ResponseLane`] emits bodies strictly in request order. Replaying
//! a recorded request stream therefore produces **byte-identical**
//! response bodies at any worker count — pinned by
//! `tests/determinism.rs` at the workspace root, the serving-side twin
//! of the engine's serial-vs-parallel contract. Cache hits replay the
//! exact bytes that were first computed, so the front cache cannot
//! introduce drift either. Admission control (windowed-p99
//! backpressure, per-client quotas) gates only requests arriving over
//! a socket — the in-process replay path carries no peer and is always
//! admitted, so the contract survives any admission configuration.
//!
//! Within one stream, requests after a `shutdown` are answered with a
//! typed `shutting_down` error by the stream's own reader (not raced
//! through the draining queue), keeping even the drain deterministic;
//! and single-stream replay ([`Server::serve_lines`]) applies
//! backpressure by *pausing the reader* on a full queue (a pipe's
//! natural flow control), so the contract holds for streams of any
//! length. Only genuinely concurrent effects are outside it: across
//! *concurrent TCP connections* the shutdown point, `overloaded`
//! rejections, and the visibility point of a model hot-swap are
//! inherently timing-dependent, as on any real server.

use crate::admission::{Admission, AdmissionConfig, Rejection};
use crate::cache::{key_hash, FrontCache};
use crate::conn::{self, ConnGate};
use crate::http::Gateway;
use crate::metrics::Metrics;
use crate::protocol::{
    error_code_of, CacheStats, DeviceInfo, ErrorBody, ErrorCode, QueueStats, Request, Response,
    ServerInfo, ServerStats, SlotInfo,
};
use crate::queue::{BoundedQueue, PushError, ResponseLane, Slot};
use crate::reload::PlannerSlot;
use gpufreq_core::{ascii_table, ProfileCache, TrainedPlanner};
use gpufreq_obs::{trace, Exposition, SpanRecorder, StageSet, TraceLog};
use gpufreq_sim::Device;
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// The daemon's per-stage span names, in pipeline order: admission
/// gating, queue wait, front-cache lookup, kernel parse+analysis, SVR
/// scoring, and the response write (recorded per flush, not per
/// request, because the writer coalesces bodies).
pub const STAGE_NAMES: [&str; 6] = [
    "admission",
    "queue_wait",
    "cache_lookup",
    "analyze",
    "score",
    "write",
];

/// The build revision baked in at compile time (`GPUFREQ_BUILD_REV`);
/// empty for local builds.
pub fn build_rev() -> &'static str {
    option_env!("GPUFREQ_BUILD_REV").unwrap_or("")
}

/// Append the request's trace id to an already-serialized response
/// body (no-op for untraced requests, so their bytes stay pinned).
fn attach_trace(body: String, trace_id: Option<&str>) -> String {
    match trace_id {
        Some(id) => trace::attach(&body, id),
        None => body,
    }
}

/// Sizing knobs for a [`Server`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ServerConfig {
    /// Worker threads executing requests (minimum 1). Responses are
    /// byte-identical for every value; only throughput changes.
    pub workers: usize,
    /// Bound of the request queue; a full queue rejects with a typed
    /// `overloaded` error instead of blocking the acceptor.
    pub queue_capacity: usize,
    /// Total entries of the response front cache (0 disables it).
    pub cache_capacity: usize,
    /// Shards of the front cache (more shards, less lock contention).
    pub cache_shards: usize,
    /// Entry bound of the shared kernel-analysis cache (0 =
    /// unbounded).
    pub analysis_cache_capacity: usize,
    /// Concurrent-connection cap across both listeners (minimum 1).
    /// Connections past the bound receive a typed `overloaded`
    /// refusal and are closed instead of spawning an unbounded thread.
    pub max_connections: usize,
    /// Admission-control gates (windowed-p99 target, per-client
    /// quotas); both default to off.
    pub admission: AdmissionConfig,
}

impl Default for ServerConfig {
    /// All cores (capped at 8) workers, a 256-deep queue, a 4096-entry
    /// front cache over 16 shards, a 1024-entry analysis cache, a
    /// 256-connection cap, admission gates off.
    fn default() -> ServerConfig {
        ServerConfig {
            workers: std::thread::available_parallelism().map_or(4, |n| n.get().min(8)),
            queue_capacity: 256,
            cache_capacity: 4096,
            cache_shards: 16,
            analysis_cache_capacity: 1024,
            max_connections: 256,
            admission: AdmissionConfig::default(),
        }
    }
}

/// Why a [`Server`] could not be constructed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ServeError {
    /// No planners were supplied.
    NoPlanners,
    /// Two planners target the same device.
    DuplicateDevice(Device),
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::NoPlanners => f.write_str("a server needs at least one trained planner"),
            ServeError::DuplicateDevice(d) => {
                write!(f, "two planners target the same device `{d}`")
            }
        }
    }
}

impl std::error::Error for ServeError {}

/// One queued unit of work: the parsed request, the slot its response
/// body goes into, and when it was accepted (for the latency
/// histogram).
#[derive(Debug)]
struct Job {
    request: Request,
    slot: Arc<Slot>,
    accepted: Instant,
    /// Trace id the client sent (echoed in the response body).
    trace: Option<String>,
    /// Socket peer, for the slow-request log.
    peer: Option<IpAddr>,
    /// Time spent in the admission gates before enqueueing (µs).
    admission_us: u64,
}

/// The long-running prediction server. See the [module docs](self) for
/// the determinism contract and [`ServerConfig`] for sizing.
///
/// Construction takes already-trained planners (train them with
/// [`Planner::builder`](gpufreq_core::Planner::builder) or load
/// persisted artifacts); the server pins each planner's engine serial
/// — parallelism comes from the worker pool, one request per worker —
/// and re-homes them onto one shared, bounded analysis cache. Each
/// planner lives in a hot-swappable [`PlannerSlot`], so a `reload`
/// request can replace one device's model from a saved artifact
/// without dropping a single connection.
#[derive(Debug)]
pub struct Server {
    planners: Vec<(Device, PlannerSlot)>,
    analysis_cache: Arc<ProfileCache>,
    front: FrontCache,
    metrics: Metrics,
    queue: BoundedQueue<Job>,
    admission: Admission,
    shutting_down: AtomicBool,
    workers: usize,
    conns: ConnGate,
    started: Instant,
    stages: StageSet,
    trace_log: Option<Arc<TraceLog>>,
}

impl Server {
    /// Build a server holding `planners` (one per device).
    ///
    /// # Errors
    /// [`ServeError::NoPlanners`] for an empty list,
    /// [`ServeError::DuplicateDevice`] when two planners target the
    /// same device.
    pub fn new(planners: Vec<TrainedPlanner>, config: ServerConfig) -> Result<Server, ServeError> {
        if planners.is_empty() {
            return Err(ServeError::NoPlanners);
        }
        let analysis_cache = Arc::new(if config.analysis_cache_capacity == 0 {
            ProfileCache::new()
        } else {
            ProfileCache::with_capacity(config.analysis_cache_capacity)
        });
        let mut keyed: Vec<(Device, PlannerSlot)> = Vec::with_capacity(planners.len());
        for planner in planners {
            let device = planner.device();
            if keyed.iter().any(|(d, _)| *d == device) {
                return Err(ServeError::DuplicateDevice(device));
            }
            keyed.push((
                device,
                PlannerSlot::new(
                    planner
                        .with_jobs(Some(1))
                        .with_cache(Arc::clone(&analysis_cache)),
                ),
            ));
        }
        Ok(Server {
            planners: keyed,
            analysis_cache,
            front: FrontCache::new(config.cache_capacity, config.cache_shards),
            metrics: Metrics::new(),
            queue: BoundedQueue::new(config.queue_capacity),
            admission: Admission::new(config.admission),
            shutting_down: AtomicBool::new(false),
            workers: config.workers.max(1),
            conns: ConnGate::new("serve", config.max_connections),
            started: Instant::now(),
            stages: StageSet::new(&STAGE_NAMES),
            trace_log: None,
        })
    }

    /// Attach a structured slow-request/error log (see
    /// [`TraceLog`]); qualifying requests are written as JSON lines
    /// carrying the trace id and per-stage breakdown.
    pub fn set_trace_log(&mut self, log: Arc<TraceLog>) {
        self.trace_log = Some(log);
    }

    /// The devices served, in planner order.
    pub fn devices(&self) -> Vec<Device> {
        self.planners.iter().map(|(d, _)| *d).collect()
    }

    /// Whether a `shutdown` request has been accepted.
    pub fn is_shutting_down(&self) -> bool {
        // ordering: Acquire pairs with the Release store in
        // `initiate_shutdown`: a thread that observes `true` also
        // observes everything the initiator did before flipping the
        // flag (previously SeqCst, which bought nothing over the
        // pair — no other atomic participates in this protocol).
        self.shutting_down.load(Ordering::Acquire)
    }

    /// Stop accepting new work (queued work still drains). Idempotent;
    /// also triggered by the `shutdown` request.
    pub fn initiate_shutdown(&self) {
        // ordering: Release publishes the initiator's prior writes to
        // every Acquire load in `is_shutting_down`.
        self.shutting_down.store(true, Ordering::Release);
        self.queue.close();
    }

    /// A live metrics snapshot (the `stats` response payload).
    pub fn stats(&self) -> ServerStats {
        ServerStats {
            requests: self.metrics.request_counts(),
            connections: self.conns.stats(),
            front_cache: CacheStats {
                hits: self.front.hits(),
                misses: self.front.misses(),
                evictions: self.front.evictions(),
                len: self.front.len(),
                capacity: self.front.capacity(),
            },
            analysis_cache: CacheStats {
                hits: self.analysis_cache.hits() as u64,
                misses: self.analysis_cache.misses() as u64,
                evictions: self.analysis_cache.evictions() as u64,
                len: self.analysis_cache.len(),
                capacity: self.analysis_cache.capacity().unwrap_or(0),
            },
            queue: QueueStats {
                depth: self.queue.len(),
                capacity: self.queue.capacity(),
            },
            workers: self.workers,
            latency_us: self.metrics.latency(),
            server: self.server_info(),
        }
    }

    /// Process identity: uptime, build revision, and the artifact
    /// version serving in each device slot.
    pub fn server_info(&self) -> ServerInfo {
        ServerInfo {
            uptime_s: self.started.elapsed().as_secs(),
            build: build_rev().to_string(),
            slots: self
                .planners
                .iter()
                .map(|(device, slot)| SlotInfo {
                    device: device.id().to_string(),
                    version: slot.version(),
                })
                .collect(),
        }
    }

    /// Render the Prometheus-style text exposition: request counters,
    /// cache/queue/connection gauges, the whole-request latency
    /// histogram, one histogram per pipeline stage
    /// ([`STAGE_NAMES`]), and trace-log accounting. Served verbatim by
    /// `GET /metrics` and (JSON-wrapped) by the `metrics` line verb.
    pub fn exposition(&self) -> String {
        let stats = self.stats();
        let r = &stats.requests;
        let c = &stats.connections;
        let mut x = Exposition::new();
        x.info(
            "gpufreq_build_info",
            "Build metadata.",
            &[("component", "serve"), ("build", &stats.server.build)],
        );
        x.gauge(
            "gpufreq_uptime_seconds",
            "Seconds since the process started.",
            stats.server.uptime_s,
        );
        for (i, slot) in stats.server.slots.iter().enumerate() {
            x.labeled_gauge(
                "gpufreq_model_slot_version",
                (i == 0).then_some("Artifact version serving per device slot."),
                &[("device", &slot.device)],
                slot.version,
            );
        }
        x.counter(
            "gpufreq_requests_total",
            "Protocol lines received (well-formed or not).",
            r.total,
        );
        for (i, (op, n)) in [
            ("predict", r.predict),
            ("predict_batch", r.predict_batch),
            ("devices", r.devices),
            ("stats", r.stats),
            ("metrics", r.metrics),
            ("reload", r.reload),
            ("shutdown", r.shutdown),
        ]
        .iter()
        .enumerate()
        {
            x.labeled_gauge(
                "gpufreq_requests_by_op",
                (i == 0).then_some("Requests by wire op."),
                &[("op", op)],
                *n,
            );
        }
        x.counter(
            "gpufreq_request_errors_total",
            "Requests answered with a typed error.",
            r.errors,
        );
        x.counter(
            "gpufreq_requests_rejected_total",
            "Requests shed with `overloaded`.",
            r.rejected,
        );
        x.counter(
            "gpufreq_batch_kernels_total",
            "Kernels inside batch requests.",
            r.batch_kernels,
        );
        for (i, (cache, s)) in [
            ("front", &stats.front_cache),
            ("analysis", &stats.analysis_cache),
        ]
        .iter()
        .enumerate()
        {
            let labels = [("cache", *cache)];
            x.labeled_gauge(
                "gpufreq_cache_hits",
                (i == 0).then_some("Cache hits by cache."),
                &labels,
                s.hits,
            );
        }
        for (i, (cache, s)) in [
            ("front", &stats.front_cache),
            ("analysis", &stats.analysis_cache),
        ]
        .iter()
        .enumerate()
        {
            let labels = [("cache", *cache)];
            x.labeled_gauge(
                "gpufreq_cache_misses",
                (i == 0).then_some("Cache misses by cache."),
                &labels,
                s.misses,
            );
        }
        x.gauge(
            "gpufreq_queue_depth",
            "Jobs waiting for a worker.",
            stats.queue.depth as u64,
        );
        x.gauge(
            "gpufreq_queue_capacity",
            "Queue bound before `overloaded`.",
            stats.queue.capacity as u64,
        );
        x.gauge(
            "gpufreq_connections_active",
            "Connections currently served.",
            c.active,
        );
        x.counter(
            "gpufreq_connections_refused_total",
            "Connections refused at the cap.",
            c.refused,
        );
        x.histogram_us(
            "gpufreq_request_latency_us",
            "Whole-request serving latency (request read to response body ready).",
            &self.metrics.latency_snapshot(),
        );
        for (name, h) in self.stages.iter() {
            x.histogram_us(
                &format!("gpufreq_stage_{name}_latency_us"),
                &format!("Latency of the `{name}` stage."),
                &h.snapshot(),
            );
        }
        if let Some(log) = &self.trace_log {
            x.counter(
                "gpufreq_trace_log_written_total",
                "Slow/error records written to the trace log.",
                log.written(),
            );
            x.counter(
                "gpufreq_trace_log_dropped_total",
                "Trace-log records dropped (rate limit or I/O errors).",
                log.dropped(),
            );
        }
        x.finish()
    }

    /// Write one slow-request/error record if a trace log is attached
    /// and the outcome qualifies. A request without a client trace id
    /// gets one minted here so the log line is still greppable.
    fn log_request(
        &self,
        op: &str,
        trace_id: Option<&str>,
        total_us: u64,
        stages: &[(&'static str, u64)],
        body: &str,
        peer: Option<IpAddr>,
    ) {
        let Some(log) = &self.trace_log else { return };
        let error = error_code_of(body);
        if !log.qualifies(total_us, error.is_some()) {
            return;
        }
        let minted;
        let id = match trace_id {
            Some(id) => id,
            None => {
                minted = trace::mint();
                &minted
            }
        };
        let peer = peer.map(|p| p.to_string());
        log.write(&gpufreq_obs::TraceRecord {
            component: "serve",
            trace: id,
            op,
            total_us,
            stages,
            error,
            peer: peer.as_deref(),
        });
    }

    /// Finish a request answered inline (not through the worker pool):
    /// record the latency, absorb `stages` into the per-stage
    /// histograms, write the slow/error log record, and echo the trace
    /// id onto the body.
    fn finish_inline(
        &self,
        op: &str,
        accepted: Instant,
        trace_id: Option<&str>,
        peer: Option<IpAddr>,
        stages: &[(&'static str, u64)],
        body: String,
    ) -> String {
        let total_us = accepted.elapsed().as_micros() as u64;
        self.metrics.observe_us(total_us);
        for (name, us) in stages {
            self.stages.observe_us(name, *us);
        }
        self.log_request(op, trace_id, total_us, stages, &body, peer);
        attach_trace(body, trace_id)
    }

    // ------------------------------------------------------------------
    // Request execution
    // ------------------------------------------------------------------

    /// Resolve a wire device id to a served planner. The returned
    /// `Arc` pins the model for the duration of this request even if a
    /// concurrent `reload` swaps the slot.
    fn resolve(&self, id: &str) -> Result<(Device, Arc<TrainedPlanner>), ErrorBody> {
        let device: Device = id.parse().map_err(|e| ErrorBody::unknown_device(&e))?;
        self.planners
            .iter()
            .find(|(d, _)| *d == device)
            .map(|(d, slot)| (*d, slot.get()))
            .ok_or_else(|| ErrorBody::device_not_served(device, &self.devices()))
    }

    /// Hot-swap one device's model from a saved artifact at `path`:
    /// load + validate the artifact, re-home it onto the shared
    /// analysis cache, swap the slot, and invalidate the device's
    /// front-cache entries so stale bytes cannot be replayed for the
    /// new model. In-flight requests finish on the model they resolved.
    fn reload_model(&self, device_id: &str, path: &str) -> Result<(Device, u64), ErrorBody> {
        let device: Device = device_id
            .parse()
            .map_err(|e| ErrorBody::unknown_device(&e))?;
        let slot = self
            .planners
            .iter()
            .find(|(d, _)| *d == device)
            .map(|(_, slot)| slot)
            .ok_or_else(|| {
                ErrorBody::new(
                    ErrorCode::DeviceNotServed,
                    format!("no model loaded for `{device}`; reload cannot add devices"),
                )
            })?;
        let planner = TrainedPlanner::load_for_device(path, device)
            .map_err(|e| ErrorBody::new(ErrorCode::ReloadFailed, format!("{e}")))?
            .with_jobs(Some(1))
            .with_cache(Arc::clone(&self.analysis_cache));
        let version = slot.swap(planner);
        self.front.invalidate_device(device);
        Ok((device, version))
    }

    /// Execute a `reload` to its serialized response body, counted.
    fn reload_body(&self, device: &str, path: &str) -> String {
        self.metrics.count_reload();
        match self.reload_model(device, path) {
            Ok((device, version)) => Response::Reload { device, version }.to_json(),
            Err(e) => self.error_response(e),
        }
    }

    /// The cached compact-JSON `ParetoPrediction` fragment for one
    /// `(device, source)` pair; a hit skips parsing, analysis and the
    /// SVR scan entirely. Failures are typed and never cached.
    fn prediction_fragment(
        &self,
        device: Device,
        planner: &TrainedPlanner,
        source: &str,
        rec: &mut SpanRecorder,
    ) -> Result<Arc<str>, ErrorBody> {
        let key = key_hash(device, source);
        if let Some(hit) = rec.time("cache_lookup", || self.front.get(key, source)) {
            return Ok(hit);
        }
        // The split below runs exactly `TrainedPlanner::predict_source`
        // (shared-cache analyze, then the SVR scan), just timed as two
        // stages — errors and bytes are identical to the reference.
        let analyzed = match rec.time("analyze", || planner.cache().analyze(source)) {
            Ok(analyzed) => analyzed,
            Err(e) => return Err(ErrorBody::new(ErrorCode::Kernel, format!("{e}"))),
        };
        match rec.time("score", || planner.predict(&analyzed.0)) {
            // `to_compact_json` writes the same bytes as the generic
            // serializer (pinned in `gpufreq_core::predict`) without
            // building a value tree per response.
            Ok(prediction) => {
                let fragment: Arc<str> = Arc::from(prediction.to_compact_json().as_str());
                self.front
                    .insert(key, device, source, Arc::clone(&fragment));
                Ok(fragment)
            }
            Err(e) => Err(ErrorBody::new(ErrorCode::Kernel, format!("{e}"))),
        }
    }

    /// Execute a request into a typed [`Response`] (no front cache, no
    /// metrics) — the reference semantics the fast path is pinned
    /// against, and the API in-process callers use. `reload` performs
    /// the actual hot-swap (it is a side-effectful admin verb).
    pub fn handle(&self, request: &Request) -> Response {
        match request {
            Request::Predict { device, source } => match self.resolve(device) {
                Ok((device, planner)) => match planner.predict_source(source) {
                    Ok(prediction) => Response::Predict { device, prediction },
                    Err(e) => ErrorBody::new(ErrorCode::Kernel, format!("{e}")).into_response(),
                },
                Err(e) => e.into_response(),
            },
            Request::PredictBatch { device, sources } => match self.resolve(device) {
                Ok((device, planner)) => Response::PredictBatch {
                    device,
                    results: planner
                        .predict_batch(sources)
                        .into_iter()
                        .map(|r| match r {
                            Ok(p) => crate::protocol::BatchResult::Ok(p),
                            Err(e) => crate::protocol::BatchResult::Err(ErrorBody::new(
                                ErrorCode::Kernel,
                                format!("{e}"),
                            )),
                        })
                        .collect(),
                },
                Err(e) => e.into_response(),
            },
            Request::Devices => Response::Devices {
                devices: self
                    .planners
                    .iter()
                    .map(|(device, slot)| {
                        let planner = slot.get();
                        let spec = planner.simulator().spec();
                        DeviceInfo {
                            id: device.id().to_string(),
                            name: spec.name.clone(),
                            memory_domains: spec.clocks.supported_memory_clocks().len(),
                            configurations: spec.clocks.actual_configs().len(),
                        }
                    })
                    .collect(),
            },
            Request::Stats => Response::Stats {
                stats: Box::new(self.stats()),
            },
            Request::Metrics => Response::Metrics {
                exposition: self.exposition(),
            },
            Request::Reload { device, path } => match self.reload_model(device, path) {
                Ok((device, version)) => Response::Reload { device, version },
                Err(e) => e.into_response(),
            },
            Request::Shutdown => Response::Shutdown,
        }
    }

    /// Serialized error response, counted.
    fn error_response(&self, error: ErrorBody) -> String {
        self.metrics.count_error();
        error.into_response().to_json()
    }

    /// Execute a request to its serialized response body — the worker
    /// path: metrics are counted, predictions go through the front
    /// cache, `shutdown` flips the server into draining. Stage timings
    /// are recorded into `rec` (cache lookup, analysis, scoring).
    fn body_for(&self, request: &Request, rec: &mut SpanRecorder) -> String {
        match request {
            Request::Predict { device, source } => {
                self.metrics.count_predict();
                match self.resolve(device) {
                    Ok((device, planner)) => {
                        match self.prediction_fragment(device, &planner, source, rec) {
                            Ok(fragment) => format!(
                                "{{\"ok\":\"predict\",\"device\":\"{}\",\"prediction\":{}}}",
                                device.id(),
                                fragment
                            ),
                            Err(e) => self.error_response(e),
                        }
                    }
                    Err(e) => self.error_response(e),
                }
            }
            Request::PredictBatch { device, sources } => {
                self.metrics.count_predict_batch(sources.len());
                match self.resolve(device) {
                    Ok((device, planner)) => {
                        let mut body = format!(
                            "{{\"ok\":\"predict_batch\",\"device\":\"{}\",\"results\":[",
                            device.id()
                        );
                        for (i, source) in sources.iter().enumerate() {
                            if i > 0 {
                                body.push(',');
                            }
                            match self.prediction_fragment(device, &planner, source, rec) {
                                Ok(fragment) => {
                                    body.push_str("{\"prediction\":");
                                    body.push_str(&fragment);
                                    body.push('}');
                                }
                                Err(e) => {
                                    body.push_str("{\"error\":");
                                    body.push_str(
                                        &serde_json::to_string(&e)
                                            // analyze:allow(panic-in-request-path, reason = "ErrorBody is a struct of plain strings; serializing it cannot fail")
                                            .expect("error serialization is infallible"),
                                    );
                                    body.push('}');
                                }
                            }
                        }
                        body.push_str("]}");
                        body
                    }
                    Err(e) => self.error_response(e),
                }
            }
            Request::Devices => {
                self.metrics.count_devices();
                self.handle(request).to_json()
            }
            Request::Stats => {
                self.metrics.count_stats();
                self.handle(request).to_json()
            }
            Request::Metrics => {
                self.metrics.count_metrics();
                self.handle(request).to_json()
            }
            Request::Reload { device, path } => self.reload_body(device, path),
            Request::Shutdown => {
                self.metrics.count_shutdown();
                self.initiate_shutdown();
                Response::Shutdown.to_json()
            }
        }
    }

    /// Run the admission gates for `request` from `peer`, returning
    /// the serialized refusal body when a gate rejects. Only predict
    /// work from an actual socket peer is gated: control-plane verbs
    /// must stay reachable on an overloaded server, and the in-process
    /// replay path (`peer` = `None`) must stay deterministic.
    fn admission_error(&self, request: &Request, peer: Option<IpAddr>) -> Option<String> {
        if !matches!(
            request,
            Request::Predict { .. } | Request::PredictBatch { .. }
        ) {
            return None;
        }
        let rejection = self.admission.admit(peer, &self.metrics)?;
        self.metrics.count_rejected();
        let message = match rejection {
            Rejection::P99 => {
                self.metrics.count_rejected_p99();
                "rolling p99 latency is over target; retry later"
            }
            Rejection::Quota => {
                self.metrics.count_rejected_quota();
                "per-client request quota exhausted; slow down"
            }
        };
        Some(
            ErrorBody::new(ErrorCode::Overloaded, message)
                .into_response()
                .to_json(),
        )
    }

    // ------------------------------------------------------------------
    // Worker pool + connection plumbing
    // ------------------------------------------------------------------

    /// One worker: pop jobs until the queue is closed and drained.
    ///
    /// A panic inside request execution must not strand the waiting
    /// connection: it is caught, answered as a typed `internal` error,
    /// and the worker keeps serving.
    fn worker_loop(&self) {
        while let Some(job) = self.queue.pop() {
            let body = self.execute(&job);
            job.slot.fill(body);
        }
    }

    /// Run one job to its response body, catching panics so the
    /// response [`Slot`] is *always* filled (an unfilled slot would
    /// wedge the connection's writer forever). The worker owns the
    /// job's span recorder: queue wait is measured here, execution
    /// stages inside [`body_for`](Server::body_for), and the whole
    /// record feeds the per-stage histograms and the slow log.
    fn execute(&self, job: &Job) -> String {
        let mut rec = SpanRecorder::start();
        rec.record_us("admission", job.admission_us);
        rec.record_us("queue_wait", job.accepted.elapsed().as_micros() as u64);
        let body = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            self.body_for(&job.request, &mut rec)
        }))
        .unwrap_or_else(|_| {
            self.error_response(ErrorBody::new(
                ErrorCode::Internal,
                "internal error while serving the request",
            ))
        });
        let total_us = job.accepted.elapsed().as_micros() as u64;
        self.metrics.observe_us(total_us);
        self.stages.absorb(&rec);
        self.log_request(
            job.request.op(),
            job.trace.as_deref(),
            total_us,
            rec.spans(),
            &body,
            job.peer,
        );
        attach_trace(body, job.trace.as_deref())
    }

    /// Process exactly one queued job — lets tests drive the worker
    /// side by hand without spawning a pool.
    #[cfg(test)]
    fn worker_drain_one(&self) {
        let job = self.queue.pop().expect("a job is queued");
        let body = self.execute(&job);
        job.slot.fill(body);
    }

    /// Accept one protocol line: parse, enqueue (or answer inline),
    /// and push the response slot onto the connection's in-order lane.
    ///
    /// `wait_for_space` selects the backpressure flavor: single-stream
    /// replay pauses the reader on a full queue (so replayed responses
    /// never depend on worker timing), while TCP connections reject
    /// with `overloaded` (the acceptor must never block). `peer` feeds
    /// the admission gates; `None` (replay) is always admitted.
    fn accept_line(
        &self,
        line: &str,
        lane: &ResponseLane,
        local_shutdown: &mut bool,
        wait_for_space: bool,
        peer: Option<IpAddr>,
    ) {
        self.metrics.count_line();
        let accepted = Instant::now();
        let trace = trace::extract(line).map(str::to_string);
        let trace_id = trace.as_deref();
        let answer = |op: &str, stages: &[(&'static str, u64)], body: String| {
            lane.push(Arc::new(Slot::filled(
                self.finish_inline(op, accepted, trace_id, peer, stages, body),
            )));
        };
        let request = match Request::parse(line) {
            Ok(request) => request,
            Err(e) => {
                answer("invalid", &[], self.error_response(e));
                return;
            }
        };
        if *local_shutdown {
            // Deterministic drain: once this stream has asked for
            // shutdown, everything after it is refused by the stream's
            // own reader instead of racing the closing queue.
            answer(
                request.op(),
                &[],
                self.error_response(ErrorBody::new(
                    ErrorCode::ShuttingDown,
                    "server is shutting down",
                )),
            );
            return;
        }
        if matches!(request, Request::Shutdown) {
            // Control-plane: a shutdown must never lose a race against
            // a data-plane queue kept full by busy clients, so it is
            // answered inline instead of queued. Closing the queue
            // refuses *new* work; everything already queued still
            // drains, and this lane keeps emitting responses in
            // request order.
            self.metrics.count_shutdown();
            self.initiate_shutdown();
            *local_shutdown = true;
            answer("shutdown", &[], Response::Shutdown.to_json());
            return;
        }
        if let Request::Reload { device, path } = &request {
            // Control-plane like `shutdown`: a model hot-swap must not
            // lose a race against a full data-plane queue, so it runs
            // inline on the connection's reader thread.
            answer("reload", &[], self.reload_body(device, path));
            return;
        }
        let gate = Instant::now();
        let admission = self.admission_error(&request, peer);
        let admission_us = gate.elapsed().as_micros() as u64;
        if let Some(body) = admission {
            answer(request.op(), &[("admission", admission_us)], body);
            return;
        }
        let slot = Arc::new(Slot::new());
        let op = request.op();
        let job = Job {
            request,
            slot: Arc::clone(&slot),
            accepted,
            trace: trace.clone(),
            peer,
            admission_us,
        };
        let pushed = if wait_for_space {
            self.queue.push_wait(job)
        } else {
            self.queue.try_push(job)
        };
        match pushed {
            Ok(()) => {
                lane.push(slot);
            }
            Err((_, PushError::Full)) => {
                self.metrics.count_rejected();
                let body = ErrorBody::new(
                    ErrorCode::Overloaded,
                    format!(
                        "request queue is full ({} queued); retry later",
                        self.queue.capacity()
                    ),
                )
                .into_response()
                .to_json();
                answer(op, &[], body);
            }
            Err((_, PushError::Closed)) => {
                answer(
                    op,
                    &[],
                    self.error_response(ErrorBody::new(
                        ErrorCode::ShuttingDown,
                        "server is shutting down",
                    )),
                );
            }
        }
    }

    /// Read protocol lines from `reader` until EOF (or, under
    /// shutdown, until the next read timeout), feeding `lane`. Framing
    /// and its bounds are [`conn::read_lines`]; oversize and non-UTF-8
    /// lines are answered with their typed errors in request order.
    ///
    /// A poisoned lane (the connection's writer died) stops the pump:
    /// answers for a dead client are undeliverable, so reading more
    /// requests for it is pure waste. On TCP a server-wide shutdown
    /// stops it too, even while the client keeps streaming (the
    /// timeout check alone never fires while data keeps arriving);
    /// replay streams instead drain to EOF so every recorded line gets
    /// its deterministic answer.
    fn pump<R: BufRead>(
        &self,
        reader: R,
        lane: &ResponseLane,
        wait_for_space: bool,
        peer: Option<IpAddr>,
    ) {
        let mut local_shutdown = false;
        conn::read_lines(
            reader,
            |timed_out| {
                lane.is_poisoned() || ((timed_out || !wait_for_space) && self.is_shutting_down())
            },
            |line| {
                match line {
                    Ok(line) => {
                        self.accept_line(line, lane, &mut local_shutdown, wait_for_space, peer)
                    }
                    Err(error) => lane.push(Arc::new(Slot::filled(self.malformed(error)))),
                }
                true
            },
        );
    }

    /// Serve one already-connected byte stream (stdin/stdout, a pipe,
    /// an in-memory transcript): spawn the worker pool, answer every
    /// line in order, then drain and shut down at EOF. Returns the
    /// final metrics snapshot — the daemon's exit summary.
    ///
    /// This is also the replay entry point: determinism tests feed the
    /// same recorded stream at different worker counts and compare the
    /// output bytes.
    pub fn serve_lines<R, W>(&self, reader: R, writer: W) -> io::Result<ServerStats>
    where
        R: BufRead,
        W: Write + Send,
    {
        let lane = ResponseLane::new();
        let write_result = std::thread::scope(|s| {
            for _ in 0..self.workers {
                s.spawn(|| self.worker_loop());
            }
            let lane_ref = &lane;
            let stages = &self.stages;
            let writer_thread = s.spawn(move || Server::write_lane(lane_ref, writer, Some(stages)));
            // Single-stream replay: pause the reader on a full queue
            // instead of rejecting, so the replayed bytes stay
            // independent of worker timing at any stream length.
            self.pump(reader, &lane, true, None);
            lane.close();
            // analyze:allow(panic-in-request-path, reason = "join() only errors if the writer itself panicked; re-raising that panic is the faithful report")
            let result = writer_thread.join().expect("writer thread panicked");
            // Now that every accepted job has been answered, release
            // the workers (the scope joins them).
            self.initiate_shutdown();
            result
        });
        write_result?;
        Ok(self.stats())
    }

    /// Drain `lane` in order into `writer`, one body per line. Each
    /// body and its newline go out in a single write, and any further
    /// responses that are already finished ride along in the same
    /// write (bounded) — a pipelining client wakes once per batch
    /// instead of once per line. The first write error poisons the
    /// lane (so the connection's reader stops accepting new work for a
    /// client that can never see the answers) but draining continues,
    /// so producers never block on a dead connection.
    fn write_lane<W: Write>(
        lane: &ResponseLane,
        mut writer: W,
        stages: Option<&StageSet>,
    ) -> io::Result<()> {
        /// Stop coalescing once a batch reaches this many bytes.
        const BATCH_BYTES: usize = 256 * 1024;
        let mut result = Ok(());
        let mut buf: Vec<u8> = Vec::new();
        // A slot popped by `try_next` whose body was still being
        // computed: it is next in request order, so it opens the
        // following batch.
        let mut carry: Option<std::sync::Arc<Slot>> = None;
        while let Some(slot) = carry.take().or_else(|| lane.next()) {
            buf.clear();
            buf.extend_from_slice(slot.wait().as_bytes());
            buf.push(b'\n');
            while buf.len() < BATCH_BYTES {
                let Some(next) = lane.try_next() else { break };
                match next.try_take() {
                    Some(body) => {
                        buf.extend_from_slice(body.as_bytes());
                        buf.push(b'\n');
                    }
                    None => {
                        carry = Some(next);
                        break;
                    }
                }
            }
            if result.is_ok() {
                let started = Instant::now();
                result = writer.write_all(&buf).and_then(|()| writer.flush());
                if let Some(stages) = stages {
                    // One "write" span per flushed batch, not per
                    // response — that is the unit the socket sees.
                    stages.observe_us("write", started.elapsed().as_micros() as u64);
                }
                if result.is_err() {
                    lane.poison();
                }
            }
        }
        result
    }

    /// Serve TCP connections on `listener` until a `shutdown` request
    /// arrives, then drain and return the final metrics snapshot.
    ///
    /// Each connection gets its own reader and in-order writer thread;
    /// all of them share the worker pool, queue, caches and metrics.
    pub fn serve(&self, listener: TcpListener) -> io::Result<ServerStats> {
        self.serve_with_http(listener, None)
    }

    /// Like [`serve`](Server::serve), with an optional second listener
    /// answering the HTTP/1.1 gateway (see [`crate::http`]). Both
    /// listeners share one server core: the same worker pool, queue,
    /// caches, metrics, admission gates, and connection cap — a
    /// `shutdown` from either side drains both.
    pub fn serve_with_http(
        &self,
        listener: TcpListener,
        http: Option<TcpListener>,
    ) -> io::Result<ServerStats> {
        conn::serve(self, listener, http, |s| {
            for _ in 0..self.workers {
                s.spawn(|| self.worker_loop());
            }
        })?;
        Ok(self.stats())
    }
}

impl Gateway for Server {
    /// Execute one already-parsed request synchronously on the calling
    /// thread — the HTTP gateway's entry point. Control-plane verbs
    /// (`shutdown`, `reload`) run inline; everything else goes through
    /// the shared queue + worker pool with the same admission and
    /// backpressure semantics as the line protocol.
    fn execute(&self, request: Request, peer: IpAddr, trace_id: Option<&str>) -> String {
        let peer = Some(peer);
        self.metrics.count_line();
        let accepted = Instant::now();
        if let Request::Reload { device, path } = &request {
            let body = self.reload_body(device, path);
            return self.finish_inline("reload", accepted, trace_id, peer, &[], body);
        }
        if matches!(request, Request::Shutdown) {
            self.metrics.count_shutdown();
            self.initiate_shutdown();
            let body = Response::Shutdown.to_json();
            return self.finish_inline("shutdown", accepted, trace_id, peer, &[], body);
        }
        let gate = Instant::now();
        let admission = self.admission_error(&request, peer);
        let admission_us = gate.elapsed().as_micros() as u64;
        if let Some(body) = admission {
            return self.finish_inline(
                request.op(),
                accepted,
                trace_id,
                peer,
                &[("admission", admission_us)],
                body,
            );
        }
        let slot = Arc::new(Slot::new());
        let op = request.op();
        let job = Job {
            request,
            slot: Arc::clone(&slot),
            accepted,
            trace: trace_id.map(str::to_string),
            peer,
            admission_us,
        };
        match self.queue.try_push(job) {
            // The worker records latency, spans, and the trace echo
            // when it fills the slot.
            Ok(()) => slot.wait(),
            Err((_, PushError::Full)) => {
                self.metrics.count_rejected();
                let body = ErrorBody::new(
                    ErrorCode::Overloaded,
                    format!(
                        "request queue is full ({} queued); retry later",
                        self.queue.capacity()
                    ),
                )
                .into_response()
                .to_json();
                self.finish_inline(op, accepted, trace_id, peer, &[], body)
            }
            Err((_, PushError::Closed)) => {
                let body = self.error_response(ErrorBody::new(
                    ErrorCode::ShuttingDown,
                    "server is shutting down",
                ));
                self.finish_inline(op, accepted, trace_id, peer, &[], body)
            }
        }
    }

    fn shutting_down(&self) -> bool {
        self.is_shutting_down()
    }

    fn exposition(&self) -> String {
        Server::exposition(self)
    }

    fn health_body(&self) -> String {
        // analyze:allow(panic-in-request-path, reason = "the vendored serializer is infallible; expect() documents that invariant")
        let info = serde_json::to_string(&self.server_info()).expect("serializer is infallible");
        format!("{{\"ok\":\"healthz\",\"server\":{info}}}")
    }

    fn malformed(&self, error: ErrorBody) -> String {
        self.metrics.count_line();
        self.error_response(error)
    }

    fn gate(&self) -> &ConnGate {
        &self.conns
    }

    /// A reader pumping requests into the connection's in-order lane,
    /// and a writer thread draining it.
    fn line_connection(&self, reader: BufReader<TcpStream>, writer: TcpStream, peer: IpAddr) {
        let lane = ResponseLane::new();
        std::thread::scope(|s| {
            let lane_ref = &lane;
            let stages = &self.stages;
            let writer_thread = s.spawn(move || Server::write_lane(lane_ref, writer, Some(stages)));
            // TCP: never block the shared acceptor path on a full
            // queue — reject with `overloaded`.
            self.pump(reader, &lane, false, Some(peer));
            lane.close();
            // analyze:allow(panic-in-request-path, reason = "join() only errors if the connection writer panicked; re-raising is the faithful report")
            let _ = writer_thread.join().expect("connection writer panicked");
        });
    }
}

/// Render a [`ServerStats`] snapshot as the human-readable summary
/// table the CLI prints on exit and `loadgen` prints per mix.
pub fn render_stats_table(stats: &ServerStats) -> String {
    let r = &stats.requests;
    let c = &stats.connections;
    let hit_rate = |hits: u64, misses: u64| -> String {
        let total = hits + misses;
        if total == 0 {
            "-".to_string()
        } else {
            format!("{:.1}%", 100.0 * hits as f64 / total as f64)
        }
    };
    let rows = vec![
        vec!["requests".into(), r.total.to_string()],
        vec!["  predict".into(), r.predict.to_string()],
        vec![
            "  predict_batch".into(),
            format!("{} ({} kernels)", r.predict_batch, r.batch_kernels),
        ],
        vec!["  errors".into(), r.errors.to_string()],
        vec!["  rejected (overloaded)".into(), r.rejected.to_string()],
        vec![
            "    by p99 target / quota".into(),
            format!("{}/{}", r.rejected_p99, r.rejected_quota),
        ],
        vec!["  reload".into(), r.reload.to_string()],
        vec![
            "connections opened/active".into(),
            format!("{}/{}", c.opened, c.active),
        ],
        vec![
            "connections refused/failed".into(),
            format!("{}/{}", c.refused, c.failed),
        ],
        vec![
            "front cache hit rate".into(),
            hit_rate(stats.front_cache.hits, stats.front_cache.misses),
        ],
        vec![
            "front cache len/capacity".into(),
            format!("{}/{}", stats.front_cache.len, stats.front_cache.capacity),
        ],
        vec![
            "front cache evictions".into(),
            stats.front_cache.evictions.to_string(),
        ],
        vec![
            "analysis cache hit rate".into(),
            hit_rate(stats.analysis_cache.hits, stats.analysis_cache.misses),
        ],
        vec![
            "queue depth/capacity".into(),
            format!("{}/{}", stats.queue.depth, stats.queue.capacity),
        ],
        vec!["workers".into(), stats.workers.to_string()],
        vec![
            "latency p50/p95/p99 (µs)".into(),
            format!(
                "{}/{}/{}",
                stats.latency_us.p50, stats.latency_us.p95, stats.latency_us.p99
            ),
        ],
        vec!["latency max (µs)".into(), stats.latency_us.max.to_string()],
    ];
    ascii_table(&["metric", "value"], &rows)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::admission::Quota;
    use crate::conn::MAX_LINE_BYTES;
    use gpufreq_core::{Corpus, ModelConfig, Planner};
    use std::net::Ipv4Addr;
    use std::sync::OnceLock;
    use std::time::Duration;

    const SAXPY: &str = "__kernel void saxpy(__global float* x, __global float* y, float a) {
        uint i = get_global_id(0);
        y[i] = a * x[i] + y[i];
    }";

    /// One fast Titan X planner shared by every test in this module
    /// (training once keeps the suite fast).
    fn planner() -> TrainedPlanner {
        static PLANNER: OnceLock<TrainedPlanner> = OnceLock::new();
        PLANNER
            .get_or_init(|| {
                Planner::builder()
                    .corpus(Corpus::Fast)
                    .settings(6)
                    .model_config(ModelConfig::relaxed())
                    .train()
                    .expect("fast corpus trains")
            })
            .clone()
    }

    fn server(config: ServerConfig) -> Server {
        Server::new(vec![planner()], config).expect("one planner is valid")
    }

    fn small_config() -> ServerConfig {
        ServerConfig {
            workers: 2,
            queue_capacity: 8,
            cache_capacity: 64,
            cache_shards: 4,
            analysis_cache_capacity: 32,
            max_connections: 32,
            admission: AdmissionConfig::default(),
        }
    }

    #[test]
    fn construction_rejects_empty_and_duplicate_planners() {
        assert_eq!(
            Server::new(Vec::new(), ServerConfig::default()).unwrap_err(),
            ServeError::NoPlanners
        );
        let err = Server::new(vec![planner(), planner()], ServerConfig::default()).unwrap_err();
        assert_eq!(err, ServeError::DuplicateDevice(Device::TitanX));
        assert!(err.to_string().contains("titan-x"), "{err}");
    }

    #[test]
    fn fast_path_bytes_match_reference_serialization() {
        let server = server(small_config());
        // predict: cold (computes), then warm (cache replay) — both
        // must equal the reference `handle` serialization.
        let body = |request: &Request| server.body_for(request, &mut SpanRecorder::start());
        let predict = Request::predict(Device::TitanX, SAXPY);
        let reference = server.handle(&predict).to_json();
        assert_eq!(body(&predict), reference, "cold");
        assert_eq!(body(&predict), reference, "warm (cache hit)");
        assert!(server.front.hits() >= 1, "second predict hit the cache");
        // predict_batch, with a per-kernel error in the middle slot.
        let batch = Request::predict_batch(
            Device::TitanX,
            vec![SAXPY.into(), "not a kernel".into(), SAXPY.into()],
        );
        assert_eq!(body(&batch), server.handle(&batch).to_json());
        // devices and the error responses too.
        let devices = Request::Devices;
        assert_eq!(body(&devices), server.handle(&devices).to_json());
        for bad in [
            Request::Predict {
                device: "gtx-9000".into(),
                source: SAXPY.into(),
            },
            Request::Predict {
                device: "tesla-p100".into(), // registered but not served
                source: SAXPY.into(),
            },
        ] {
            assert_eq!(body(&bad), server.handle(&bad).to_json());
        }
    }

    #[test]
    fn unknown_and_unserved_devices_are_typed_errors() {
        let server = server(small_config());
        let unknown = server.handle(&Request::Predict {
            device: "gtx-9000".into(),
            source: SAXPY.into(),
        });
        let error = unknown.error().expect("unknown device is an error");
        assert_eq!(error.code, ErrorCode::UnknownDevice);
        assert!(error.message.contains("titan-x"), "{}", error.message);
        let unserved = server.handle(&Request::Predict {
            device: "tesla-k20c".into(),
            source: SAXPY.into(),
        });
        let error = unserved.error().expect("unserved device is an error");
        assert_eq!(error.code, ErrorCode::DeviceNotServed);
        assert!(
            error.message.contains("serving: titan-x"),
            "{}",
            error.message
        );
    }

    #[test]
    fn serve_lines_answers_in_request_order_and_reports_stats() {
        // One worker: with more, the two identical predicts may run
        // concurrently and both miss the front cache — the response
        // bytes are still identical (pinned below and by the root
        // determinism suite), but the hit *counter* would be racy.
        let server = server(ServerConfig {
            workers: 1,
            ..small_config()
        });
        let stream = [
            Request::predict(Device::TitanX, SAXPY).to_json(),
            "this is not json".to_string(),
            Request::Devices.to_json(),
            Request::predict(Device::TitanX, SAXPY).to_json(),
            Request::Stats.to_json(),
            Request::Shutdown.to_json(),
            // After shutdown in the same stream: deterministic refusal.
            Request::Devices.to_json(),
        ]
        .join("\n");
        let mut out = Vec::new();
        let summary = server.serve_lines(stream.as_bytes(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 7, "one response per request line");
        let parsed: Vec<Response> = lines
            .iter()
            .map(|l| Response::parse(l).expect("every response line parses"))
            .collect();
        assert!(matches!(parsed[0], Response::Predict { .. }));
        assert_eq!(parsed[1].error().unwrap().code, ErrorCode::BadRequest);
        assert!(matches!(parsed[2], Response::Devices { .. }));
        assert_eq!(
            lines[3], lines[0],
            "repeated kernel replays identical bytes"
        );
        assert!(matches!(parsed[4], Response::Stats { .. }));
        assert!(matches!(parsed[5], Response::Shutdown));
        assert_eq!(parsed[6].error().unwrap().code, ErrorCode::ShuttingDown);
        assert_eq!(summary.requests.total, 7);
        assert_eq!(summary.requests.predict, 2);
        assert_eq!(summary.requests.shutdown, 1);
        assert!(summary.requests.errors >= 2);
        assert!(summary.front_cache.hits >= 1);
        assert!(summary.latency_us.count >= 7);
    }

    #[test]
    fn oversize_and_non_utf8_lines_are_typed_errors_mid_stream() {
        let server = server(small_config());
        // A giant newline-less prefix must not be buffered: the line is
        // rejected, and the valid request after it is still served.
        let mut stream: Vec<u8> = Vec::new();
        stream.extend(std::iter::repeat_n(b'x', MAX_LINE_BYTES + 16));
        stream.push(b'\n');
        stream.extend_from_slice(&[0xff, 0xfe, b'\n']); // invalid UTF-8
        stream.extend_from_slice(Request::Devices.to_json().as_bytes());
        stream.push(b'\n');
        let mut out = Vec::new();
        let summary = server.serve_lines(stream.as_slice(), &mut out).unwrap();
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 3, "all three lines answered: {}", lines.len());
        let oversize = Response::parse(lines[0]).unwrap();
        assert_eq!(oversize.error().unwrap().code, ErrorCode::BadRequest);
        assert!(oversize.error().unwrap().message.contains("exceeds"));
        let utf8 = Response::parse(lines[1]).unwrap();
        assert_eq!(utf8.error().unwrap().code, ErrorCode::BadRequest);
        assert!(utf8.error().unwrap().message.contains("UTF-8"));
        assert!(matches!(
            Response::parse(lines[2]).unwrap(),
            Response::Devices { .. }
        ));
        assert_eq!(summary.requests.total, 3);
        assert_eq!(summary.requests.errors, 2);
    }

    #[test]
    fn replay_longer_than_the_queue_never_sees_overloaded() {
        // Single-stream replay pauses the reader on a full queue, so a
        // stream much longer than the queue bound drains without a
        // single `overloaded` rejection — at any worker count.
        let server = server(ServerConfig {
            workers: 2,
            queue_capacity: 2,
            ..small_config()
        });
        let stream = vec![Request::Devices.to_json(); 64].join("\n");
        let mut out = Vec::new();
        let summary = server.serve_lines(stream.as_bytes(), &mut out).unwrap();
        assert_eq!(summary.requests.total, 64);
        assert_eq!(summary.requests.rejected, 0, "replay must not shed load");
        assert_eq!(summary.requests.devices, 64);
        let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
        assert_eq!(lines.len(), 64);
        assert!(lines.iter().all(|l| *l == lines[0]));
    }

    #[test]
    fn full_queue_rejects_with_overloaded_instead_of_blocking() {
        // No workers draining: fill the queue directly.
        let server = server(ServerConfig {
            queue_capacity: 1,
            ..small_config()
        });
        let lane = ResponseLane::new();
        let mut local_shutdown = false;
        let line = Request::Devices.to_json();
        server.accept_line(&line, &lane, &mut local_shutdown, false, None);
        server.accept_line(&line, &lane, &mut local_shutdown, false, None);
        lane.close();
        let first = lane.next().unwrap();
        let second = lane.next().unwrap();
        // The second was rejected inline and is already filled.
        let rejected = Response::parse(&second.wait()).unwrap();
        assert_eq!(rejected.error().unwrap().code, ErrorCode::Overloaded);
        assert_eq!(server.stats().requests.rejected, 1);
        assert_eq!(server.stats().queue.depth, 1);
        // Drain the queued job so `first` fills.
        server.worker_drain_one();
        assert!(matches!(
            Response::parse(&first.wait()).unwrap(),
            Response::Devices { .. }
        ));
    }

    #[test]
    fn a_dead_writer_poisons_the_lane_and_the_pump_stops_feeding_it() {
        // Regression: write_lane used to swallow socket errors while
        // the connection's reader kept parsing and enqueueing requests
        // whose answers could never be delivered.
        struct FailingWriter {
            remaining: usize,
        }
        impl Write for FailingWriter {
            fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
                if self.remaining == 0 {
                    return Err(io::Error::new(io::ErrorKind::BrokenPipe, "peer went away"));
                }
                let n = buf.len().min(self.remaining);
                self.remaining -= n;
                Ok(n)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let lane = ResponseLane::new();
        lane.push(Arc::new(Slot::filled("first response body".into())));
        lane.push(Arc::new(Slot::filled("second response body".into())));
        lane.close();
        // The writer dies 4 bytes into the first body: the error must
        // be reported, the lane poisoned, and the rest still drained.
        let result = Server::write_lane(&lane, FailingWriter { remaining: 4 }, None);
        assert_eq!(result.unwrap_err().kind(), io::ErrorKind::BrokenPipe);
        assert!(lane.is_poisoned(), "write error poisons the lane");
        assert!(lane.next().is_none(), "queued slots were still drained");
        // And the pump refuses to feed a poisoned lane: none of these
        // perfectly valid requests may be accepted for a dead client.
        let server = server(small_config());
        let stream = format!(
            "{}\n{}\n",
            Request::Devices.to_json(),
            Request::Devices.to_json()
        );
        server.pump(stream.as_bytes(), &lane, false, None);
        assert_eq!(
            server.stats().requests.total,
            0,
            "no request accepted once the writer is known dead"
        );
    }

    #[test]
    fn socket_setup_failures_are_counted() {
        // `connection()` used to bail through `?` on try_clone /
        // set_read_timeout errors — invisible in the stats.
        let server = server(small_config());
        server
            .conns
            .note_setup_failure(&io::Error::other("synthetic fd-pressure failure"));
        let conns = server.stats().connections;
        assert_eq!(conns.failed, 1);
        assert_eq!(conns.opened, 0);
        assert_eq!(conns.active, 0);
    }

    #[test]
    fn per_client_quota_rejects_only_the_chatty_peer() {
        let server = server(ServerConfig {
            admission: AdmissionConfig {
                p99_target_us: None,
                quota: Some(Quota {
                    rate_per_sec: 1,
                    burst: 2,
                }),
            },
            ..small_config()
        });
        let lane = ResponseLane::new();
        let mut local_shutdown = false;
        let line = Request::predict(Device::TitanX, SAXPY).to_json();
        let chatty = Some(IpAddr::V4(Ipv4Addr::new(127, 0, 0, 1)));
        let other = Some(IpAddr::V4(Ipv4Addr::new(127, 0, 0, 2)));
        server.accept_line(&line, &lane, &mut local_shutdown, false, chatty);
        server.accept_line(&line, &lane, &mut local_shutdown, false, chatty);
        server.accept_line(&line, &lane, &mut local_shutdown, false, chatty); // over burst
        server.accept_line(&line, &lane, &mut local_shutdown, false, other);
        lane.close();
        // Three jobs were queued (1st, 2nd, 4th); drain them by hand.
        server.worker_drain_one();
        server.worker_drain_one();
        server.worker_drain_one();
        let bodies: Vec<String> = std::iter::from_fn(|| lane.next())
            .map(|s| s.wait())
            .collect();
        assert_eq!(bodies.len(), 4);
        assert!(matches!(
            Response::parse(&bodies[0]).unwrap(),
            Response::Predict { .. }
        ));
        assert!(matches!(
            Response::parse(&bodies[1]).unwrap(),
            Response::Predict { .. }
        ));
        let refused = Response::parse(&bodies[2]).unwrap();
        assert_eq!(refused.error().unwrap().code, ErrorCode::Overloaded);
        assert!(refused.error().unwrap().message.contains("quota"));
        assert!(matches!(
            Response::parse(&bodies[3]).unwrap(),
            Response::Predict { .. }
        ));
        let stats = server.stats().requests;
        assert_eq!(stats.rejected, 1);
        assert_eq!(stats.rejected_quota, 1);
        assert_eq!(stats.rejected_p99, 0);
    }

    #[test]
    fn reload_swaps_the_model_and_invalidates_the_device_cache() {
        let server = server(small_config());
        let predict = Request::predict(Device::TitanX, SAXPY);
        let reference = server.body_for(&predict, &mut SpanRecorder::start());
        assert!(!server.front.is_empty(), "prediction was cached");
        // Persist the same model and hot-swap it in: bytes must stay
        // identical (same artifact), but the cache must have been
        // swept and the slot version bumped.
        let path = format!(
            "{}/../../target/reload-test-{}.json",
            env!("CARGO_MANIFEST_DIR"),
            std::process::id()
        );
        planner().save(&path).expect("artifact saves");
        let body = server.reload_body("titan-x", &path);
        match Response::parse(&body).expect("reload response parses") {
            Response::Reload { device, version } => {
                assert_eq!(device, Device::TitanX);
                assert_eq!(version, 2, "first reload bumps version 1 -> 2");
            }
            other => panic!("expected a reload response, got {other:?}"),
        }
        assert_eq!(server.front.len(), 0, "device cache entries invalidated");
        assert_eq!(
            server.body_for(&predict, &mut SpanRecorder::start()),
            reference,
            "same artifact predicts the same bytes"
        );
        // Failure paths: bad path, unknown device, unserved device —
        // all typed, none of them disturb the serving slot.
        let failed = Response::parse(&server.reload_body("titan-x", "/no/such/artifact.json"))
            .expect("error response parses");
        assert_eq!(failed.error().unwrap().code, ErrorCode::ReloadFailed);
        let unknown = Response::parse(&server.reload_body("gtx-9000", &path)).unwrap();
        assert_eq!(unknown.error().unwrap().code, ErrorCode::UnknownDevice);
        let unserved = Response::parse(&server.reload_body("tesla-p100", &path)).unwrap();
        assert_eq!(unserved.error().unwrap().code, ErrorCode::DeviceNotServed);
        assert_eq!(server.stats().requests.reload, 4);
        assert_eq!(
            server.body_for(&predict, &mut SpanRecorder::start()),
            reference,
            "failed reloads leave the model serving"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_busy_client_cannot_block_tcp_shutdown() {
        // Regression: pump() used to check the shutdown flag only in
        // its read-timeout arm, so a client streaming requests
        // back-to-back kept its connection thread (and the daemon)
        // alive forever after another client's `shutdown`.
        let server = Arc::new(server(ServerConfig {
            workers: 1,
            ..small_config()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve(listener).unwrap())
        };
        // The busy client: writes requests as fast as the socket
        // accepts them, never reading, until the server hangs up.
        let busy = std::thread::spawn(move || {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let line = format!("{}\n", Request::Devices.to_json());
            while writer.write_all(line.as_bytes()).is_ok() {}
        });
        // Give the busy stream a moment to be mid-flow, then shut
        // down via a second connection.
        std::thread::sleep(Duration::from_millis(100));
        {
            use std::io::BufRead as _;
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            writeln!(writer, "{}", Request::Shutdown.to_json()).unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(matches!(
                Response::parse(line.trim()).unwrap(),
                Response::Shutdown
            ));
        }
        // The daemon must drain and exit even though the busy client
        // never stops sending; a wedged serve() would hang the suite
        // here, which the harness reports as the regression.
        let summary = daemon.join().unwrap();
        assert!(summary.requests.shutdown >= 1);
        busy.join().unwrap();
    }

    #[test]
    fn connections_past_the_cap_get_a_typed_refusal() {
        use std::io::BufRead as _;
        // Regression: serve() used to spawn one thread per accepted
        // socket with no bound at all.
        let server = Arc::new(server(ServerConfig {
            max_connections: 2,
            ..small_config()
        }));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let daemon = {
            let server = Arc::clone(&server);
            std::thread::spawn(move || server.serve(listener).unwrap())
        };
        // Fill the cap with two established connections, each proven
        // live by a round-trip (accept() is asynchronous to connect()).
        let mut held = Vec::new();
        for _ in 0..2 {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            writeln!(writer, "{}", Request::Devices.to_json()).unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(matches!(
                Response::parse(line.trim()).unwrap(),
                Response::Devices { .. }
            ));
            held.push((reader, writer));
        }
        // Everything past the cap is refused with a typed line, then
        // closed (EOF) — no thread is spawned for it.
        for _ in 0..3 {
            let stream = TcpStream::connect(addr).unwrap();
            let mut reader = BufReader::new(stream);
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            let refusal = Response::parse(line.trim()).expect("refusal line parses");
            assert_eq!(refusal.error().unwrap().code, ErrorCode::Overloaded);
            assert!(refusal.error().unwrap().message.contains("connection cap"));
            let mut rest = String::new();
            assert_eq!(reader.read_line(&mut rest).unwrap(), 0, "then EOF");
        }
        // Shut down through one of the established connections.
        {
            let (reader, writer) = &mut held[0];
            writeln!(writer, "{}", Request::Shutdown.to_json()).unwrap();
            writer.flush().unwrap();
            let mut line = String::new();
            reader.read_line(&mut line).unwrap();
            assert!(matches!(
                Response::parse(line.trim()).unwrap(),
                Response::Shutdown
            ));
        }
        let summary = daemon.join().unwrap();
        assert_eq!(summary.connections.opened, 2);
        assert_eq!(summary.connections.refused, 3);
        assert_eq!(summary.connections.active, 0, "all threads accounted for");
    }

    #[test]
    fn tcp_round_trip_with_concurrent_clients() {
        use std::io::BufRead as _;
        let server = Arc::new(server(small_config()));
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let server2 = Arc::clone(&server);
        let daemon = std::thread::spawn(move || server2.serve(listener).unwrap());
        let client = |requests: Vec<Request>| -> Vec<Response> {
            let stream = TcpStream::connect(addr).unwrap();
            let mut writer = stream.try_clone().unwrap();
            let mut reader = BufReader::new(stream);
            requests
                .iter()
                .map(|r| {
                    writeln!(writer, "{}", r.to_json()).unwrap();
                    writer.flush().unwrap();
                    let mut line = String::new();
                    reader.read_line(&mut line).unwrap();
                    Response::parse(line.trim()).unwrap()
                })
                .collect()
        };
        // Two sequential clients sharing the warm cache.
        let first = client(vec![
            Request::predict(Device::TitanX, SAXPY),
            Request::Devices,
        ]);
        assert!(matches!(first[0], Response::Predict { .. }));
        assert!(matches!(first[1], Response::Devices { .. }));
        let second = client(vec![
            Request::predict(Device::TitanX, SAXPY),
            Request::Shutdown,
        ]);
        assert!(matches!(second[0], Response::Predict { .. }));
        assert!(matches!(second[1], Response::Shutdown));
        let summary = daemon.join().unwrap();
        assert_eq!(summary.requests.predict, 2);
        assert!(summary.front_cache.hits >= 1, "second client hit the cache");
        assert_eq!(summary.connections.opened, 2);
        assert_eq!(summary.connections.closed, 2);
        assert!(server.is_shutting_down());
    }
}
