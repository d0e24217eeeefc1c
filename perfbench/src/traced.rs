//! The traced run: each workload's request stream replayed in-process,
//! on one thread, through every layer's public functions, with one span
//! per call (name, start, end, parent, request id). Spans stay in
//! memory and are written out with their self times at the end.
//!
//! The replay also rebuilds every prediction from its parts — scaled
//! rows, one `score_block` per head, `pareto_set_simple`, the mem-L
//! point — and requires the result to equal `PredictPlan::predict`
//! exactly, so the per-layer split times the real path.

use crate::summary::{delta_mean, quantile};
use crate::workload::{Kernel, Kind, Reference, Stream, FRONT_CACHE_ENTRIES};
use gpufreq_core::{analyze_source, ParetoPrediction, PredictedPoint, TrainedPlanner, MEM_L_MHZ};
use gpufreq_kernel::{memory_boundedness, FreqConfig, StaticFeatures, NUM_FEATURES};
use gpufreq_obs::{Histogram, SpanRecorder, StageSet};
use gpufreq_pareto::{pareto_set_simple, Objectives};
use gpufreq_router::route::{merge_batch, replica_for, split_batch, split_results};
use gpufreq_router::{BackendSpec, Router, RouterConfig, ROUTER_STAGE_NAMES};
use gpufreq_serve::cache::{key_hash, FrontCache};
use gpufreq_serve::{LineClient, Request, Server, ServerConfig, STAGE_NAMES};
use gpufreq_sim::Device;
use std::collections::HashMap;
use std::io::Write;
use std::net::TcpListener;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Shards of the daemon's front cache (the `ServerConfig` default).
const FRONT_CACHE_SHARDS: usize = 16;
/// Histogram observations timed together (one call is a few ns).
pub const OBSERVE_BATCH: u32 = 64;
/// Span names of `score_block`, by head index.
const HEAD_SPANS: [&str; 8] = [
    "ml.score_block.h0",
    "ml.score_block.h1",
    "ml.score_block.h2",
    "ml.score_block.h3",
    "ml.score_block.h4",
    "ml.score_block.h5",
    "ml.score_block.h6",
    "ml.score_block.h7",
];

/// One recorded call.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    /// The workload whose stream was being replayed.
    pub stream: &'static str,
    pub req: u64,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// In-memory span recorder for one thread.
pub struct Tracer {
    epoch: Instant,
    stream: &'static str,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new() -> Tracer {
        Tracer {
            epoch: Instant::now(),
            stream: "",
            spans: Vec::with_capacity(1 << 16),
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; close it with [`Tracer::close`].
    pub fn open(&mut self, name: &'static str, req: u64, parent: Option<usize>) -> usize {
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            stream: self.stream,
            req,
            parent,
            start_ns,
            end_ns: start_ns,
        });
        self.spans.len() - 1
    }

    pub fn close(&mut self, id: usize) {
        self.spans[id].end_ns = self.now_ns();
    }

    /// Time `f` as a leaf span.
    pub fn time<T>(
        &mut self,
        name: &'static str,
        req: u64,
        parent: usize,
        f: impl FnOnce() -> T,
    ) -> T {
        let id = self.open(name, req, Some(parent));
        let out = f();
        self.close(id);
        out
    }

    /// Each span's self time in ns: its duration minus its children's.
    pub fn self_times(&self) -> Vec<u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if let Some(p) = s.parent {
                child_ns[p] += s.end_ns - s.start_ns;
            }
        }
        self.spans
            .iter()
            .zip(child_ns)
            .map(|(s, c)| (s.end_ns - s.start_ns).saturating_sub(c))
            .collect()
    }

    /// Self times (µs) of every span called `name` on `stream`'s replay.
    pub fn timer_us(&self, stream: Kind, name: &str) -> Vec<f64> {
        self.spans
            .iter()
            .zip(self.self_times())
            .filter(|(s, _)| s.stream == stream.name() && s.name == name)
            .map(|(_, ns)| ns as f64 / 1e3)
            .collect()
    }

    /// Write every span as one JSON line, with its self time.
    pub fn write_jsonl(&self, path: &Path) -> Result<(), String> {
        let file = std::fs::File::create(path).map_err(|e| format!("{}: {e}", path.display()))?;
        let mut out = std::io::BufWriter::new(file);
        for (i, (s, self_ns)) in self.spans.iter().zip(self.self_times()).enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"stream\":\"{}\",\"req\":{},\"parent\":{parent},\
                 \"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                s.name, s.stream, s.req, s.start_ns, s.end_ns
            )
            .map_err(|e| e.to_string())?;
        }
        out.flush().map_err(|e| e.to_string())
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }
}

/// The prediction rebuilt from its parts, with a span per part when a
/// tracer is given.
pub fn decompose(
    planner: &TrainedPlanner,
    features: &StaticFeatures,
    mut trace: Option<(&mut Tracer, u64, usize)>,
) -> ParetoPrediction {
    let scorer = planner.plan().scorer();
    let clocks = &planner.simulator().spec().clocks;
    let modeled: Vec<FreqConfig> = clocks
        .actual_configs()
        .into_iter()
        .filter(|c| c.mem_mhz > MEM_L_MHZ)
        .collect();
    let boundedness = memory_boundedness(features);
    let mut timed = |name: &'static str, f: &mut dyn FnMut()| match trace.as_mut() {
        Some((t, req, parent)) => t.time(name, *req, *parent, f),
        None => f(),
    };
    let mut rows = vec![0.0; modeled.len() * NUM_FEATURES];
    timed("ml.write_scaled_rows", &mut || {
        for (c, row) in modeled.iter().zip(rows.chunks_exact_mut(NUM_FEATURES)) {
            scorer.write_scaled_row(
                features,
                boundedness,
                c.core_scaled(),
                c.mem_scaled(),
                row.try_into().expect("row is NUM_FEATURES wide"),
            );
        }
    });
    let mut objectives = vec![Objectives::new(0.0, 0.0); modeled.len()];
    for head in 0..scorer.num_heads() {
        let owned: Vec<usize> = (0..modeled.len())
            .filter(|&i| scorer.head_index(modeled[i]) == head)
            .collect();
        if owned.is_empty() {
            continue;
        }
        let block: Vec<f64> = owned
            .iter()
            .flat_map(|&i| {
                rows[i * NUM_FEATURES..(i + 1) * NUM_FEATURES]
                    .iter()
                    .copied()
            })
            .collect();
        let (mut speedup, mut energy) = (Vec::new(), Vec::new());
        timed(HEAD_SPANS[head.min(HEAD_SPANS.len() - 1)], &mut || {
            scorer.score_block(head, &block, &mut speedup, &mut energy)
        });
        for (k, &i) in owned.iter().enumerate() {
            objectives[i] = Objectives::new(speedup[k], energy[k]);
        }
    }
    let all_points: Vec<PredictedPoint> = modeled
        .iter()
        .zip(&objectives)
        .map(|(&config, &objectives)| PredictedPoint {
            config,
            objectives,
            heuristic: false,
        })
        .collect();
    let mut front = Vec::new();
    timed("pareto.pareto_set", &mut || {
        front = pareto_set_simple(&objectives)
    });
    let mut pareto_set: Vec<PredictedPoint> = front.iter().map(|&i| all_points[i]).collect();
    timed("core.mem_l_point", &mut || {
        if let Some(config) = clocks.actual_configs_for(MEM_L_MHZ).into_iter().last() {
            pareto_set.push(PredictedPoint {
                config,
                objectives: scorer.predict_prepared(
                    features,
                    boundedness,
                    config.core_scaled(),
                    config.mem_scaled(),
                    scorer.head_index(config),
                ),
                heuristic: true,
            });
        }
    });
    ParetoPrediction {
        all_points,
        pareto_set,
    }
}

/// The decomposition check: for every pool kernel on every device, the
/// prediction rebuilt from its parts equals `PredictPlan::predict`
/// byte for byte. Returns the number of checks.
pub fn check_decomposition(planners: &[TrainedPlanner], pool: &[Kernel]) -> Result<usize, String> {
    let mut checked = 0;
    for planner in planners {
        for kernel in pool {
            let (features, _) = analyze_source(&kernel.source, None).map_err(|e| e.to_string())?;
            let whole = planner.plan().predict(&features).to_compact_json();
            let parts = decompose(planner, &features, None).to_compact_json();
            if whole != parts {
                return Err(format!(
                    "decomposition differs from PredictPlan::predict for {} on {}",
                    kernel.name,
                    planner.device()
                ));
            }
            checked += 1;
        }
    }
    Ok(checked)
}

/// What the replays measured beyond the spans.
#[derive(Debug, Default)]
pub struct ReplayCounts {
    /// Requests replayed, per workload, with the wall time they took.
    pub replayed: Vec<(Kind, usize, f64)>,
    /// Response bytes of each cold answer.
    pub response_bytes: Vec<f64>,
    /// Pareto front sizes (modeled points) of each cold answer.
    pub front_sizes: Vec<f64>,
    /// Router stage means (µs) over the routed replay, by stage name.
    pub router_stage_means: Vec<(&'static str, f64)>,
    /// Backend exchanges per routed batch.
    pub backend_calls_per_req: f64,
    pub retried: f64,
    pub broken_circuit: f64,
}

fn planner_for(planners: &[TrainedPlanner], device: Device) -> Result<&TrainedPlanner, String> {
    planners
        .iter()
        .find(|p| p.device() == device)
        .ok_or(format!("no planner for {device}"))
}

/// A `predict` response around a cached prediction fragment, framed as
/// the daemon frames it on its hot path.
fn predict_body(device: Device, fragment: &str) -> String {
    format!(
        "{{\"ok\":\"predict\",\"device\":\"{}\",\"prediction\":{fragment}}}",
        device.id()
    )
}

/// The request body of a cycled exchange, without its HTTP framing.
fn line_of(request: &str) -> &str {
    request
        .split_once("\r\n\r\n")
        .map_or(request, |(_, body)| body)
        .trim_end()
}

/// Replay `cold_titanx`: parse, cache get (a miss), analyze, predict,
/// serialize and insert (an eviction, the cache being prefilled) as
/// the daemon's miss path does; then the same request rebuilt from its
/// parts, and through `Server::handle`.
pub fn replay_cold(
    t: &mut Tracer,
    counts: &mut ReplayCounts,
    planners: &[TrainedPlanner],
    reference: &Reference,
    pool: &[Kernel],
    seed: u64,
    requests: u64,
) -> Result<(), String> {
    let planner = planner_for(planners, Device::TitanX)?;
    let titan_only = reference.only(&Kind::ColdTitanx.devices());
    let stream = Stream::build(Kind::ColdTitanx, seed, &titan_only, pool);
    let server =
        Server::new(vec![planner.clone()], ServerConfig::default()).map_err(|e| e.to_string())?;
    let front = FrontCache::new(FRONT_CACHE_ENTRIES, FRONT_CACHE_SHARDS);
    let filler: Arc<str> = Arc::from("{}");
    for i in 0..FRONT_CACHE_ENTRIES {
        let source = format!("// prefill {i}");
        front.insert(
            key_hash(Device::TitanX, &source),
            Device::TitanX,
            &source,
            Arc::clone(&filler),
        );
    }
    t.stream = Kind::ColdTitanx.name();
    let mut buf = Vec::new();
    let started = Instant::now();
    for n in 0..requests {
        buf.clear();
        let expect = Arc::clone(stream.request(0, 1, n, &mut buf));
        let line = std::str::from_utf8(&buf)
            .map_err(|e| e.to_string())?
            .trim_end();
        let root = t.open("request", n, None);
        let request = t
            .time("serve.parse", n, root, || Request::parse(line))
            .map_err(|e| e.to_string())?;
        let Request::Predict { device, source } = &request else {
            return Err("cold stream request is not a predict".into());
        };
        let device: Device = device.parse().map_err(|e| format!("{e}"))?;
        let (key, hit) = t.time("serve.cache_get", n, root, || {
            let key = key_hash(device, source);
            (key, front.get(key, source))
        });
        if hit.is_some() {
            return Err("a cold request hit the front cache".into());
        }
        let (features, _) = t
            .time("kernel.analyze", n, root, || analyze_source(source, None))
            .map_err(|e| e.to_string())?;
        let prediction = t.time("core.predict", n, root, || {
            planner.plan().predict(&features)
        });
        let fragment = t.time("core.to_compact_json", n, root, || {
            prediction.to_compact_json()
        });
        t.time("serve.cache_insert", n, root, || {
            front.insert(key, device, source, Arc::from(fragment.as_str()))
        });
        t.close(root);
        let body = predict_body(device, &fragment);
        if body != *expect {
            return Err(format!("cold replay answer {n} differs from the reference"));
        }
        counts.response_bytes.push(body.len() as f64);
        counts.front_sizes.push(
            prediction
                .pareto_set
                .iter()
                .filter(|p| !p.heuristic)
                .count() as f64,
        );

        let parts = t.open("decompose", n, None);
        let rebuilt = decompose(planner, &features, Some((&mut *t, n, parts)));
        t.close(parts);
        if rebuilt.to_compact_json() != fragment {
            return Err(format!(
                "cold replay {n}: decomposition differs from PredictPlan::predict"
            ));
        }

        let handle = t.open("serve.handle", n, None);
        let answer = server.handle(&request);
        t.close(handle);
        if answer.to_json() != *expect {
            return Err(format!(
                "cold replay {n}: Server::handle differs from the reference"
            ));
        }
    }
    counts.replayed.push((
        Kind::ColdTitanx,
        requests as usize,
        started.elapsed().as_secs_f64(),
    ));
    Ok(())
}

/// Replay `hot_repeat`: parse, cache get (a hit) and the response
/// assembly, plus the daemon's per-request telemetry (one latency
/// observation and one six-stage span record absorbed into a stage set).
pub fn replay_hot(
    t: &mut Tracer,
    counts: &mut ReplayCounts,
    reference: &Reference,
    pool: &[Kernel],
    seed: u64,
    requests: u64,
) -> Result<(), String> {
    let stream = Stream::build(Kind::HotRepeat, seed, reference, pool);
    let front = FrontCache::new(FRONT_CACHE_ENTRIES, FRONT_CACHE_SHARDS);
    for (d, &device) in reference.devices.iter().enumerate() {
        for (k, kernel) in pool.iter().enumerate() {
            let fragment = reference.predictions[d][k].to_compact_json();
            front.insert(
                key_hash(device, &kernel.source),
                device,
                &kernel.source,
                Arc::from(fragment.as_str()),
            );
        }
    }
    let latency = Histogram::new();
    let stages = StageSet::new(&STAGE_NAMES);
    t.stream = Kind::HotRepeat.name();
    let mut buf = Vec::new();
    let started = Instant::now();
    for n in 0..requests {
        buf.clear();
        let expect = Arc::clone(stream.request(0, 1, n, &mut buf));
        let line = std::str::from_utf8(&buf)
            .map_err(|e| e.to_string())?
            .trim_end();
        let root = t.open("request", n, None);
        let request = t
            .time("serve.parse", n, root, || Request::parse(line))
            .map_err(|e| e.to_string())?;
        let Request::Predict { device, source } = &request else {
            return Err("hot stream request is not a predict".into());
        };
        let device: Device = device.parse().map_err(|e| format!("{e}"))?;
        let hit = t.time("serve.cache_get", n, root, || {
            front.get(key_hash(device, source), source)
        });
        let Some(fragment) = hit else {
            return Err("a hot request missed the front cache".into());
        };
        let body = t.time("serve.respond", n, root, || predict_body(device, &fragment));
        t.close(root);
        if body != *expect {
            return Err(format!("hot replay answer {n} differs from the reference"));
        }
        let telemetry = t.open("telemetry", n, None);
        t.time("obs.histogram_observe_x64", n, telemetry, || {
            for i in 0..OBSERVE_BATCH {
                latency.observe_us(u64::from(i) * 37 + n % 1000);
            }
        });
        t.time("obs.span_request", n, telemetry, || {
            let mut rec = SpanRecorder::start();
            for (i, name) in STAGE_NAMES.iter().enumerate() {
                rec.record_us(name, i as u64 + n % 7);
            }
            stages.absorb(&rec);
        });
        t.close(telemetry);
    }
    counts.replayed.push((
        Kind::HotRepeat,
        requests as usize,
        started.elapsed().as_secs_f64(),
    ));
    Ok(())
}

/// Replay `routed_batch_http`: `Router::handle_line` against two live
/// in-process daemons on loopback sockets, then the router's pure
/// steps (replica pick, batch split, result split, merge) on the same
/// batch and the backends' reference sub-responses.
pub fn replay_routed(
    t: &mut Tracer,
    counts: &mut ReplayCounts,
    planners: &[TrainedPlanner],
    reference: &Reference,
    pool: &[Kernel],
    seed: u64,
    batches: u64,
) -> Result<(), String> {
    let stream = Stream::build(Kind::RoutedBatchHttp, seed, reference, pool);
    let kernel_of: HashMap<&str, usize> = pool
        .iter()
        .enumerate()
        .map(|(k, x)| (x.source.as_str(), k))
        .collect();
    let mut backends = Vec::new();
    for _ in 0..2 {
        let server =
            Server::new(planners.to_vec(), ServerConfig::default()).map_err(|e| e.to_string())?;
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
        let addr = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        backends.push((server, listener, addr));
    }
    std::thread::scope(|scope| {
        let mut serving = Vec::new();
        let mut addrs = Vec::new();
        for (server, listener, addr) in backends {
            addrs.push(addr);
            serving.push(scope.spawn(move || server.serve(listener)));
        }
        let result = route_replay(
            t, counts, reference, pool, &stream, &kernel_of, &addrs, batches,
        );
        let mut stopped = Ok(());
        for addr in &addrs {
            let shut = LineClient::connect(addr).and_then(|mut c| c.request(&Request::Shutdown));
            if let Err(e) = shut {
                stopped = Err(format!("stopping in-process backend {addr}: {e}"));
            }
        }
        for handle in serving {
            match handle.join() {
                Ok(Ok(_)) => {}
                Ok(Err(e)) => stopped = Err(format!("in-process backend: {e}")),
                Err(_) => stopped = Err("in-process backend panicked".into()),
            }
        }
        result.and(stopped)
    })
}

#[allow(clippy::too_many_arguments)]
fn route_replay(
    t: &mut Tracer,
    counts: &mut ReplayCounts,
    reference: &Reference,
    pool: &[Kernel],
    stream: &Stream,
    kernel_of: &HashMap<&str, usize>,
    addrs: &[String],
    batches: u64,
) -> Result<(), String> {
    let config = RouterConfig {
        backends: addrs
            .iter()
            .map(|addr| BackendSpec {
                addr: addr.clone(),
                devices: Vec::new(),
            })
            .collect(),
        ..RouterConfig::default()
    };
    let router = Router::new(config).map_err(|e| e.to_string())?;
    // Fresh dials happen while warming up; `connect` is timed over the
    // router's whole life, every other stage over the replay alone.
    let metrics_born = router.exposition();
    // Warm both backends' front caches, checking every answer.
    for (d, &device) in reference.devices.iter().enumerate() {
        for (k, kernel) in pool.iter().enumerate() {
            let answer =
                router.handle_line(&Request::predict(device, kernel.source.clone()).to_json());
            if answer != *reference.predict[d][k] {
                return Err(format!(
                    "routed warm-up: {} on {device} differs from the reference",
                    kernel.name
                ));
            }
        }
    }
    let metrics_before = router.exposition();
    let routed_before = router.snapshot().counters;
    t.stream = Kind::RoutedBatchHttp.name();
    let mut buf = Vec::new();
    let started = Instant::now();
    for n in 0..batches {
        buf.clear();
        let expect = Arc::clone(stream.request(0, 1, n, &mut buf));
        let wire = std::str::from_utf8(&buf).map_err(|e| e.to_string())?;
        let line = line_of(wire);
        let root = t.open("request", n, None);
        let answer = t.time("router.handle_line", n, root, || router.handle_line(line));
        t.close(root);
        if answer != *expect {
            return Err(format!(
                "routed replay batch {n} differs from the reference"
            ));
        }
        let Ok(Request::PredictBatch { device, sources }) = Request::parse(line) else {
            return Err("routed stream request is not a predict_batch".into());
        };
        let device: Device = device.parse().map_err(|e| format!("{e}"))?;
        let d = reference
            .devices
            .iter()
            .position(|&x| x == device)
            .ok_or("batch device has no reference")?;
        let steps = t.open("route", n, None);
        for source in &sources {
            t.time("router.replica_for", n, steps, || {
                replica_for(device, source, addrs.len())
            });
        }
        let shards = t.time("router.split_batch", n, steps, || {
            split_batch(device, &sources, addrs.len())
        });
        let subs: Vec<String> = shards
            .iter()
            .filter(|s| !s.is_empty())
            .map(|s| {
                let kernels: Vec<usize> =
                    s.iter().map(|&i| kernel_of[sources[i].as_str()]).collect();
                reference.batch(d, &kernels)
            })
            .collect();
        let mut slots = vec![""; sources.len()];
        for (sub, shard) in subs.iter().zip(shards.iter().filter(|s| !s.is_empty())) {
            let parts = t
                .time("router.split_results", n, steps, || {
                    split_results(sub, device.id())
                })
                .ok_or("split_results refused a reference sub-response")?;
            for (part, &i) in parts.into_iter().zip(shard) {
                slots[i] = part;
            }
        }
        let merged = t.time("router.merge_batch", n, steps, || {
            merge_batch(device.id(), &slots)
        });
        t.close(steps);
        if merged != *expect {
            return Err(format!(
                "routed replay {n}: merge_batch differs from the reference"
            ));
        }
    }
    counts.replayed.push((
        Kind::RoutedBatchHttp,
        batches as usize,
        started.elapsed().as_secs_f64(),
    ));
    let metrics_after = router.exposition();
    for stage in ROUTER_STAGE_NAMES {
        let family = format!("gpufreq_stage_{stage}_latency_us");
        let since = if stage == "connect" {
            &metrics_born
        } else {
            &metrics_before
        };
        let (mean, _) = delta_mean(since, &metrics_after, &family)?;
        counts.router_stage_means.push((stage, mean));
    }
    let after = router.snapshot().counters;
    counts.backend_calls_per_req = (after.routed - routed_before.routed) as f64 / batches as f64;
    counts.retried = (after.retried - routed_before.retried) as f64;
    counts.broken_circuit = (after.broken_circuit - routed_before.broken_circuit) as f64;
    Ok(())
}

/// Median, p90 and call count of one timer.
pub fn timer_stats(values: &[f64]) -> (f64, f64, f64) {
    (
        quantile(values, 0.5),
        quantile(values, 0.9),
        values.len() as f64,
    )
}

/// What one extra span costs the replay: the mean of many empty
/// open/close pairs on a throwaway tracer, in ns.
pub fn span_overhead_ns() -> f64 {
    let mut t = Tracer::new();
    let n = 100_000u64;
    let started = Instant::now();
    for i in 0..n {
        let id = t.open("overhead", i, None);
        t.close(id);
    }
    started.elapsed().as_nanos() as f64 / n as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_subtracts_direct_children_only() {
        let mut t = Tracer::new();
        let root = t.open("root", 1, None);
        let child = t.open("child", 1, Some(root));
        let grandchild = t.open("grandchild", 1, Some(child));
        t.close(grandchild);
        t.close(child);
        t.close(root);
        // Pin the clock readings.
        t.spans[root].start_ns = 0;
        t.spans[root].end_ns = 100;
        t.spans[child].start_ns = 10;
        t.spans[child].end_ns = 70;
        t.spans[grandchild].start_ns = 20;
        t.spans[grandchild].end_ns = 50;
        assert_eq!(t.self_times(), vec![40, 30, 30]);
    }

    #[test]
    fn exchange_lines_lose_their_http_framing() {
        assert_eq!(
            line_of("POST /predict HTTP/1.1\r\na: b\r\n\r\n{\"x\":1}"),
            "{\"x\":1}"
        );
        assert_eq!(line_of("{\"x\":1}\n"), "{\"x\":1}");
    }
}
