//! `perfbench` — the serving benchmark. One command starts the release
//! `gpufreq serve --fast` daemons (and, for one workload, a `gpufreq
//! router` over two replicas) as separate processes, drives one named
//! closed-loop workload from this process, checks every answer against
//! an in-process reference, and prints the end-to-end metrics. With
//! `--trace 1` it instead replays the workloads' request streams
//! in-process through each layer's public functions, with spans, and
//! prints the per-layer metrics around one live window.
//!
//! ```text
//! bash perfbench/run.sh --workload <cold_titanx|hot_repeat|routed_batch_http> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod drive;
mod procs;
mod summary;
mod traced;
mod workload;

use drive::{Sample, Warmup, Window};
use gpufreq_core::TrainedPlanner;
use gpufreq_serve::{Request, Response, ServerStats, STAGE_NAMES};
use procs::{first_mismatch, Proc, Stack};
use serde_json::Value;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::{Duration, Instant};
use summary::{
    histogram_sum_count, median, percentile, process_cpu_s, process_rss_mb, ratio, result_json,
    Metric,
};
use traced::{ReplayCounts, Tracer};
use workload::{Kind, Reference, Stream, FRONT_CACHE_ENTRIES};

/// Length of one measured slice of the window.
const SLICE: Duration = Duration::from_secs(1);
/// Requests replayed per workload in the traced run.
const COLD_REPLAY: u64 = 480;
const HOT_REPLAY: u64 = 14_400;
const ROUTED_REPLAY: u64 = 256;

struct Args {
    kind: Kind,
    seed: u64,
    seconds: f64,
    trace: bool,
    gpufreq: PathBuf,
    out_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut it = argv.iter();
    let (mut kind, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let (mut gpufreq, mut out_dir) = (None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                kind = Some(Kind::parse(value).ok_or(format!("unknown workload `{value}`"))?)
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed `{value}`"))?),
            "--seconds" => {
                let s: f64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds `{value}`"))?;
                if s.is_nan() || s <= 0.0 {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("bad --trace `{value}` (0 or 1)")),
                })
            }
            "--gpufreq" => gpufreq = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    Ok(Args {
        kind: kind.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        gpufreq: gpufreq.ok_or("--gpufreq is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = std::fs::create_dir_all(&args.out_dir)
        .map_err(|e| format!("{}: {e}", args.out_dir.display()))
        .and_then(|()| {
            if args.trace {
                run_traced(&args)
            } else {
                run_untraced(&args)
            }
        });
    match outcome {
        Ok(report) => {
            println!("{}", report.json);
            if report.correct {
                ExitCode::SUCCESS
            } else {
                eprintln!("perfbench: answers differed from the reference");
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

struct Report {
    correct: bool,
    json: String,
}

/// The git revision of the checkout, when it is one.
fn git_rev() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "none (not a git checkout)".to_string())
}

/// `(memory domain MHz, speedup SVs, energy SVs)` per head pair, read
/// from the model's serialized form (the scorer keeps them private).
fn support_vectors(planner: &TrainedPlanner) -> Vec<(u64, usize, usize)> {
    let count = |head: &Value| match head {
        Value::Object(fields) => fields
            .iter()
            .find(|(k, _)| k == "support_x")
            .and_then(|(_, v)| match v {
                Value::Array(rows) => Some(rows.len()),
                _ => None,
            })
            .unwrap_or(0),
        _ => 0,
    };
    let field = |v: &Value, name: &str| -> Option<Value> {
        match v {
            Value::Object(fields) => fields
                .iter()
                .find(|(k, _)| k == name)
                .map(|(_, v)| v.clone()),
            _ => None,
        }
    };
    let model: Value = serde_json::from_str(&planner.model().to_json()).unwrap_or(Value::Null);
    let Some(Value::Array(domains)) = field(&model, "domains") else {
        return Vec::new();
    };
    domains
        .iter()
        .map(|d| {
            let mem = match field(d, "mem_mhz") {
                Some(Value::Number(n)) => n.as_u64().unwrap_or(0),
                _ => 0,
            };
            let s = field(d, "speedup").map_or(0, |h| count(&h));
            let e = field(d, "energy").map_or(0, |h| count(&h));
            (mem, s, e)
        })
        .collect()
}

/// Print the run's identity: machine, revision, seed, served model and
/// workload shape.
fn stamp(args: &Args, planners: &[TrainedPlanner]) {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let kind = args.kind;
    println!(
        "perfbench workload={} seed={} seconds={} trace={} nproc={nproc} rev={}",
        kind.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_rev()
    );
    println!(
        "shape: closed loop, connections={} pipeline={} entry={} setups={}",
        workload::CONNECTIONS,
        kind.pipeline(),
        if kind.http() {
            "router HTTP POST /predict"
        } else {
            "daemon line protocol"
        },
        if args.trace { 1 } else { kind.setups() }
    );
    println!(
        "model: corpus=Fast settings={} config=ModelConfig::fast()",
        workload::FAST_SETTINGS
    );
    for planner in planners {
        let heads: Vec<String> = support_vectors(planner)
            .iter()
            .enumerate()
            .map(|(k, (mem, s, e))| format!("h{k}@{mem}MHz speedup={s} energy={e}"))
            .collect();
        println!(
            "  support vectors {}: {}",
            planner.device().id(),
            heads.join(", ")
        );
    }
}

/// Train the reference, build the pool and check nothing yet.
fn prepare(
    args: &Args,
    devices: &[gpufreq_sim::Device],
) -> Result<(Vec<TrainedPlanner>, Vec<workload::Kernel>, Reference), String> {
    let started = Instant::now();
    let planners = workload::train(devices)?;
    let pool = workload::pool(args.seed);
    let reference = Reference::build(&planners, &pool)?;
    eprintln!(
        "perfbench: reference for {} device(s) x {} kernels built in {:.2}s",
        devices.len(),
        pool.len(),
        started.elapsed().as_secs_f64()
    );
    Ok((planners, pool, reference))
}

/// Start the stack once, timed from the first spawn to the first
/// byte-correct predict through the entry point.
fn timed_start(args: &Args, probe: &workload::Exchange) -> Result<(Stack, f64), String> {
    let started = Instant::now();
    let stack = Stack::start(args.kind, &args.gpufreq, &args.out_dir)?;
    if let Some((_, got)) = first_mismatch(&stack.entry, std::slice::from_ref(probe))? {
        return Err(format!(
            "first predict differs from the reference: {}",
            clip(&got)
        ));
    }
    Ok((stack, started.elapsed().as_secs_f64()))
}

fn clip(s: &str) -> String {
    s.chars().take(200).collect()
}

/// Bring up the workload's stack `setups` times, one after another.
/// Each start-up is timed, then checked to serve the reference model
/// for every (device, kernel), then measured for its share of the
/// window, then stopped: the window is spread over the whole run and
/// over several server instances, so one slow stretch of a shared host
/// or one unlucky instance moves a share of the slices, not all of
/// them. With `scrape`, every process's `stats` and `/metrics` are read
/// at each part's first and last edge.
fn live_window(
    args: &Args,
    reference: &Reference,
    pool: &[workload::Kernel],
    setups: usize,
    scrape: bool,
) -> Result<Live, String> {
    let kind = args.kind;
    let checks = workload::every_predict(reference, pool, kind.http());
    let stream = Stream::build(kind, args.seed, reference, pool);
    let warmup = match kind {
        // Fill the front cache so every measured miss also evicts.
        Kind::ColdTitanx => Warmup::Answers(FRONT_CACHE_ENTRIES as u64 + 512),
        Kind::HotRepeat | Kind::RoutedBatchHttp => Warmup::For(Duration::from_secs(1)),
    };
    let slices = args.seconds / SLICE.as_secs_f64() / setups as f64;
    let slices = (slices.round() as usize).max(1);
    let mut live = Live {
        setup_s: Vec::new(),
        parts: Vec::new(),
    };
    for _ in 0..setups {
        // Dropping the stack on an early return kills its processes.
        let (stack, seconds) = timed_start(args, &checks[0])?;
        live.setup_s.push(seconds);
        if let Some((i, got)) = first_mismatch(&stack.entry, &checks)? {
            return Err(format!(
                "start-up check: answer {i} differs from the in-process reference: {}",
                clip(&got)
            ));
        }
        let (samples, window) = drive::run(
            kind,
            &stream,
            &stack.entry,
            args.seed,
            warmup,
            SLICE,
            slices,
            |outer| read_edge(&stack, scrape && outer),
        )?;
        stack.stop()?;
        live.parts.push(Part { samples, window });
    }
    Ok(live)
}

/// The timed start-ups and the window's parts, one per start-up.
struct Live {
    setup_s: Vec<f64>,
    parts: Vec<Part>,
}

impl Live {
    fn all_ok(&self) -> bool {
        self.parts.iter().all(|p| p.samples.iter().all(|s| s.ok))
    }
}

/// One start-up's share of the window: every answer, and the slices.
struct Part {
    samples: Vec<Sample>,
    window: Window<Edge>,
}

/// What the servers had spent at one slice edge.
struct Edge {
    /// CPU seconds summed over the stack's processes.
    cpu_s: f64,
    /// Resident MB summed over the stack's processes.
    rss_mb: f64,
    /// Each process's counters, when scraped.
    scrapes: Vec<Scrape>,
}

fn read_edge(stack: &Stack, scrape_all: bool) -> Result<Edge, String> {
    let mut edge = Edge {
        cpu_s: 0.0,
        rss_mb: 0.0,
        scrapes: Vec::new(),
    };
    for pid in stack.pids() {
        edge.cpu_s += process_cpu_s(pid)?;
        edge.rss_mb += process_rss_mb(pid)?;
    }
    if scrape_all {
        edge.scrapes = stack.procs.iter().map(scrape).collect::<Result<_, _>>()?;
    }
    Ok(edge)
}

/// Consecutive answers per p99 group: ten beyond the percentile.
const P99_GROUP: usize = 1000;
/// Where among the groups' p99s the reported p99 is read.
const P99_GROUP_QUANTILE: f64 = 0.1;

/// The end-to-end numbers of one window.
///
/// The window is cut into one-second slices. Throughput, p50 and CPU
/// per request are medians over the slices, so a pause of a virtual
/// CPU moves one slice, not the figure. p99 is read from the p99s of
/// consecutive groups of [`P99_GROUP`] answers across the window, at
/// their [`P99_GROUP_QUANTILE`]: the tail of the least disturbed
/// stretches of the window. On a shared virtual machine the other
/// tenants' bursts otherwise decide the tail of whole runs (measured:
/// the median group's p99 moved 30% between runs of the same code).
struct E2e {
    attempted: u64,
    ok: u64,
    slices: usize,
    groups: usize,
    throughput_rps: f64,
    p50_us: f64,
    p99_us: f64,
    cpu_us_per_req: f64,
    rss_mb: f64,
}

fn end_to_end(parts: &[Part]) -> Result<E2e, String> {
    let (mut attempted, mut ok) = (0u64, 0u64);
    let (mut rates, mut p50s, mut cpus) = (Vec::new(), Vec::new(), Vec::new());
    let mut p99s = Vec::new();
    for Part { samples, window } in parts {
        let mut answers: Vec<(u64, f64)> = Vec::new();
        for (i, bounds) in window.bounds_ns.windows(2).enumerate() {
            let mut latencies = Vec::new();
            let mut good = 0.0;
            for s in samples
                .iter()
                .filter(|s| s.done_ns >= bounds[0] && s.done_ns < bounds[1])
            {
                latencies.push(s.latency_ns as f64 / 1e3);
                answers.push((s.done_ns, s.latency_ns as f64 / 1e3));
                good += f64::from(u8::from(s.ok));
            }
            attempted += latencies.len() as u64;
            ok += good as u64;
            latencies.sort_by(f64::total_cmp);
            p50s.push(percentile(&latencies, 0.5).ok_or("a slice has too few answers for p50")?);
            rates.push(good / ((bounds[1] - bounds[0]) as f64 / 1e9));
            let (e0, e1) = (&window.edges[i], &window.edges[i + 1]);
            cpus.push(ratio((e1.cpu_s - e0.cpu_s) * 1e6, good));
        }
        answers.sort_by_key(|&(done_ns, _)| done_ns);
        for (start, end) in summary::groups(answers.len(), P99_GROUP) {
            let mut group: Vec<f64> = answers[start..end].iter().map(|&(_, us)| us).collect();
            group.sort_by(f64::total_cmp);
            p99s.push(percentile(&group, 0.99).ok_or("a p99 group has too few answers")?);
        }
    }
    let show = |values: &[f64]| {
        values
            .iter()
            .map(|v| format!("{v:.0}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!("per-slice throughput (1/s): {}", show(&rates));
    println!("per-slice p50 (us): {}", show(&p50s));
    println!("per-slice server cpu (us/req): {}", show(&cpus));
    if p99s.is_empty() {
        return Err(format!(
            "{attempted} answers in the window are too few for p99"
        ));
    }
    let rss: Vec<f64> = parts.iter().map(|p| p.window.last().rss_mb).collect();
    Ok(E2e {
        attempted,
        ok,
        slices: rates.len(),
        groups: p99s.len(),
        throughput_rps: median(&rates),
        p50_us: median(&p50s),
        p99_us: summary::quantile(&p99s, P99_GROUP_QUANTILE),
        cpu_us_per_req: median(&cpus),
        rss_mb: median(&rss),
    })
}

fn run_untraced(args: &Args) -> Result<Report, String> {
    let (planners, pool, reference) = prepare(args, &args.kind.devices())?;
    stamp(args, &planners);
    let live = live_window(args, &reference, &pool, args.kind.setups(), false)?;
    let e = end_to_end(&live.parts)?;
    let setup = median(&live.setup_s);
    let all_ok = live.all_ok();
    let setups: Vec<String> = live.setup_s.iter().map(|s| format!("{s:.3}")).collect();
    let per_slice = format!(
        "median of {} slices over {} start-ups; {} answers in the window",
        e.slices,
        live.parts.len(),
        e.attempted
    );
    println!(
        "setup_s               {setup:.3} s (median of [{}])",
        setups.join(", ")
    );
    println!(
        "throughput_rps        {:.1} 1/s ({per_slice})",
        e.throughput_rps
    );
    println!("latency_p50_us        {:.1} us ({per_slice})", e.p50_us);
    println!(
        "latency_p99_us        {:.1} us (quantile {P99_GROUP_QUANTILE} of the p99s of {} groups of {P99_GROUP} answers)",
        e.p99_us, e.groups
    );
    println!(
        "ok_ratio              {:.6} ({} of {})",
        ratio(e.ok as f64, e.attempted as f64),
        e.ok,
        e.attempted
    );
    println!(
        "server_cpu_us_per_req {:.1} us ({per_slice})",
        e.cpu_us_per_req
    );
    println!(
        "server_rss_mb         {:.1} MB (median over start-ups, at the end of each part)",
        e.rss_mb
    );
    let metrics = [
        Metric::new("setup_s", setup, "s"),
        Metric::new("throughput_rps", e.throughput_rps, "1/s"),
        Metric::new("latency_p50_us", e.p50_us, "us"),
        Metric::new("latency_p99_us", e.p99_us, "us"),
        Metric::new("ok_ratio", ratio(e.ok as f64, e.attempted as f64), "ratio"),
        Metric::new("server_cpu_us_per_req", e.cpu_us_per_req, "us"),
        Metric::new("server_rss_mb", e.rss_mb, "MB"),
    ];
    Ok(Report {
        correct: all_ok,
        json: result_json(all_ok, e.attempted, e.attempted - e.ok, &metrics),
    })
}

/// One process's `stats` line and `/metrics` exposition.
struct Scrape {
    stats: String,
    metrics: String,
}

fn scrape(proc: &Proc) -> Result<Scrape, String> {
    let stats = proc.call(&Request::Stats)?;
    let metrics = match Response::parse(&proc.call(&Request::Metrics)?) {
        Ok(Response::Metrics { exposition }) => exposition,
        other => {
            return Err(format!(
                "{}: unexpected metrics answer {other:?}",
                proc.name
            ))
        }
    };
    Ok(Scrape { stats, metrics })
}

fn daemon_stats(s: &Scrape) -> Result<ServerStats, String> {
    match Response::parse(&s.stats) {
        Ok(Response::Stats { stats }) => Ok(*stats),
        other => Err(format!("unexpected stats answer {other:?}")),
    }
}

/// Counters and stage means the daemons gained inside the window.
fn serve_live(
    before: &[Scrape],
    after: &[Scrape],
    metrics: &mut Vec<Metric>,
) -> Result<Vec<(String, f64)>, String> {
    let (mut hits, mut misses, mut evictions, mut a_hits, mut a_misses) = (0.0, 0.0, 0.0, 0.0, 0.0);
    let (mut refused, mut kernels, mut requests) = (0.0, 0.0, 0.0);
    for (b, a) in before.iter().zip(after) {
        let (b, a) = (daemon_stats(b)?, daemon_stats(a)?);
        let d = |x: u64, y: u64| (x - y) as f64;
        hits += d(a.front_cache.hits, b.front_cache.hits);
        misses += d(a.front_cache.misses, b.front_cache.misses);
        evictions += d(a.front_cache.evictions, b.front_cache.evictions);
        a_hits += d(a.analysis_cache.hits, b.analysis_cache.hits);
        a_misses += d(a.analysis_cache.misses, b.analysis_cache.misses);
        refused += d(a.requests.rejected, b.requests.rejected)
            + d(a.connections.refused, b.connections.refused);
        kernels += d(
            a.requests.predict + a.requests.batch_kernels,
            b.requests.predict + b.requests.batch_kernels,
        );
        requests += d(
            a.requests.predict + a.requests.predict_batch,
            b.requests.predict + b.requests.predict_batch,
        );
    }
    metrics.push(Metric::new(
        "serve.front_cache.hit_ratio",
        ratio(hits, hits + misses),
        "ratio",
    ));
    metrics.push(Metric::new(
        "serve.front_cache.evictions_per_req",
        ratio(evictions, kernels),
        "ratio",
    ));
    metrics.push(Metric::new(
        "serve.analysis_cache.hit_ratio",
        ratio(a_hits, a_hits + a_misses),
        "ratio",
    ));
    metrics.push(Metric::new("serve.refused", refused, "count"));
    let mut means = Vec::new();
    for stage in STAGE_NAMES {
        let family = format!("gpufreq_stage_{stage}_latency_us");
        let (mut sum, mut count) = (0.0, 0.0);
        for (b, a) in before.iter().zip(after) {
            let (s0, c0) = histogram_sum_count(&b.metrics, &family)?;
            let (s1, c1) = histogram_sum_count(&a.metrics, &family)?;
            sum += s1 - s0;
            count += c1 - c0;
        }
        let mean = ratio(sum, count);
        println!("  live daemon stage {stage}: mean {mean:.1} us over {count} spans");
        // Analysis and scoring never run on the cache-hit workloads, so
        // their means are printed above but kept out of the result line.
        if !matches!(stage, "analyze" | "score") {
            metrics.push(Metric::new(
                format!("serve.stage.{stage}_mean_us"),
                mean,
                "us",
            ));
        }
        means.push((stage.to_string(), mean));
        if stage == "write" {
            metrics.push(Metric::new(
                "serve.write_calls_per_req",
                ratio(count, requests),
                "ratio",
            ));
        }
    }
    Ok(means)
}

fn run_traced(args: &Args) -> Result<Report, String> {
    let kind = args.kind;
    let (planners, pool, reference) = prepare(args, &gpufreq_sim::Device::all())?;
    stamp(args, &planners);
    let checked = traced::check_decomposition(&planners, &pool)?;
    println!("decomposition check: {checked} predictions rebuilt from their parts, all identical");

    let mut t = Tracer::new();
    let mut counts = ReplayCounts::default();
    traced::replay_cold(
        &mut t,
        &mut counts,
        &planners,
        &reference,
        &pool,
        args.seed,
        COLD_REPLAY,
    )?;
    traced::replay_hot(
        &mut t,
        &mut counts,
        &reference,
        &pool,
        args.seed,
        HOT_REPLAY,
    )?;
    traced::replay_routed(
        &mut t,
        &mut counts,
        &planners,
        &reference,
        &pool,
        args.seed,
        ROUTED_REPLAY,
    )?;
    let spans_path = args
        .out_dir
        .join(format!("spans-{}-{}.jsonl", kind.name(), args.seed));
    t.write_jsonl(&spans_path)?;
    println!("spans: {} written to {}", t.len(), spans_path.display());

    let mut metrics = layer_metrics(&t, &counts, &planners);
    for (k, n, seconds) in &counts.replayed {
        let rps = *n as f64 / seconds;
        println!(
            "traced replay {}: {n} requests in {seconds:.3}s = {rps:.1} req/s (one thread, spans on)",
            k.name()
        );
        metrics.push(Metric::new(
            format!("traced.{}.replay_rps", k.name()),
            rps,
            "1/s",
        ));
    }
    let overhead = traced::span_overhead_ns();
    println!("tracing overhead: {overhead:.1} ns per span");
    metrics.push(Metric::new("traced.span_overhead_ns", overhead, "ns"));

    // One live window of this workload, with every process scraped at
    // both ends.
    let live_reference = reference.only(&kind.devices());
    let live = live_window(args, &live_reference, &pool, 1, true)?;
    let window = &live.parts[0].window;
    let (first, last) = (&window.first().scrapes, &window.last().scrapes);
    // Every process but the router is a daemon.
    let daemons = first.len() - usize::from(kind == Kind::RoutedBatchHttp);
    let stage_means = serve_live(&first[..daemons], &last[..daemons], &mut metrics)?;
    let e = end_to_end(&live.parts)?;
    println!(
        "live window ({}, untraced daemons): setup {:.3}s, {:.1} req/s, p50 {:.1} us, p99 {:.1} us, \
         {:.1} server CPU us/req",
        kind.name(),
        live.setup_s[0],
        e.throughput_rps,
        e.p50_us,
        e.p99_us,
        e.cpu_us_per_req
    );
    if kind == Kind::RoutedBatchHttp {
        for stage in gpufreq_router::ROUTER_STAGE_NAMES {
            let family = format!("gpufreq_stage_{stage}_latency_us");
            let (mean, n) =
                summary::delta_mean(&first[daemons].metrics, &last[daemons].metrics, &family)?;
            println!("  live router stage {stage}: mean {mean:.1} us over {n} spans");
        }
    }
    if kind == Kind::ColdTitanx {
        reconcile(&t, &stage_means, e.cpu_us_per_req);
    }
    let all_ok = live.all_ok();
    for m in &metrics {
        println!("  {:<44} {:>14.3} {}", m.name, m.value, m.unit);
    }
    Ok(Report {
        correct: all_ok,
        json: result_json(all_ok, e.attempted, e.attempted - e.ok, &metrics),
    })
}

/// The in-process per-layer numbers: each timer's median, p90 and call
/// count over the stream it is measured on, the served model's support
/// vectors, and the replay's counts.
fn layer_metrics(t: &Tracer, counts: &ReplayCounts, planners: &[TrainedPlanner]) -> Vec<Metric> {
    let (cold, hot, routed) = (Kind::ColdTitanx, Kind::HotRepeat, Kind::RoutedBatchHttp);
    let us = (1.0, "us");
    // (metric, stream, span, scale to the unit, unit)
    let mut timers: Vec<(String, Kind, String, (f64, &'static str))> = vec![
        (
            "kernel.analyze_us".into(),
            cold,
            "kernel.analyze".into(),
            us,
        ),
        (
            "ml.write_scaled_rows_us".into(),
            cold,
            "ml.write_scaled_rows".into(),
            us,
        ),
    ];
    let heads = planners
        .iter()
        .find(|p| p.device() == gpufreq_sim::Device::TitanX)
        .map_or(0, |p| p.plan().scorer().num_heads());
    for head in 0..heads {
        let span = format!("ml.score_block.h{head}");
        if !t.timer_us(cold, &span).is_empty() {
            timers.push((format!("ml.score_block_us.h{head}"), cold, span, us));
        }
    }
    for (metric, stream, span) in [
        ("core.predict_us", cold, "core.predict"),
        ("core.to_compact_json_us", cold, "core.to_compact_json"),
        ("core.mem_l_point_us", cold, "core.mem_l_point"),
        ("pareto.pareto_set_us", cold, "pareto.pareto_set"),
        ("serve.request_parse_us", hot, "serve.parse"),
        ("serve.cache_get_us", hot, "serve.cache_get"),
        ("serve.cache_insert_us", cold, "serve.cache_insert"),
        ("serve.handle_us", cold, "serve.handle"),
        ("router.replica_for_us", routed, "router.replica_for"),
        ("router.split_batch_us", routed, "router.split_batch"),
        ("router.split_results_us", routed, "router.split_results"),
        ("router.merge_batch_us", routed, "router.merge_batch"),
        ("router.handle_line_us", routed, "router.handle_line"),
    ] {
        timers.push((metric.into(), stream, span.into(), us));
    }
    timers.push((
        "obs.histogram_observe_ns".into(),
        hot,
        "obs.histogram_observe_x64".into(),
        (1e3 / f64::from(traced::OBSERVE_BATCH), "ns"),
    ));
    timers.push((
        "obs.span_request_ns".into(),
        hot,
        "obs.span_request".into(),
        (1e3, "ns"),
    ));

    let mut metrics = Vec::new();
    for (metric, stream, span, (scale, unit)) in timers {
        let values: Vec<f64> = t
            .timer_us(stream, &span)
            .iter()
            .map(|v| v * scale)
            .collect();
        let (p50, p90, calls) = traced::timer_stats(&values);
        metrics.push(Metric::new(format!("{metric}.p50"), p50, unit));
        metrics.push(Metric::new(format!("{metric}.p90"), p90, unit));
        metrics.push(Metric::new(format!("{metric}.calls"), calls, "count"));
    }
    for planner in planners {
        for (k, (_, s, e)) in support_vectors(planner).into_iter().enumerate() {
            let base = format!("ml.support_vectors.{}.h{k}", planner.device().id());
            metrics.push(Metric::new(format!("{base}.speedup"), s as f64, "count"));
            metrics.push(Metric::new(format!("{base}.energy"), e as f64, "count"));
        }
    }
    metrics.push(Metric::new(
        "core.response_bytes",
        median(&counts.response_bytes),
        "bytes",
    ));
    metrics.push(Metric::new(
        "pareto.front_size",
        median(&counts.front_sizes),
        "count",
    ));
    for (stage, mean) in &counts.router_stage_means {
        metrics.push(Metric::new(
            format!("router.stage.{stage}_mean_us"),
            *mean,
            "us",
        ));
    }
    metrics.push(Metric::new(
        "router.backend_calls_per_req",
        counts.backend_calls_per_req,
        "ratio",
    ));
    metrics.push(Metric::new("router.retried", counts.retried, "count"));
    metrics.push(Metric::new(
        "router.broken_circuit",
        counts.broken_circuit,
        "count",
    ));
    metrics
}

/// The reconciliation: per-layer self-time medians along the cold miss
/// path against the daemon's own stage means and its CPU per request.
fn reconcile(t: &Tracer, stage_means: &[(String, f64)], cpu_us_per_req: f64) {
    let cold = Kind::ColdTitanx;
    let path = [
        "serve.parse",
        "serve.cache_get",
        "kernel.analyze",
        "core.predict",
        "core.to_compact_json",
        "serve.cache_insert",
    ];
    let parts: Vec<(&str, f64)> = path
        .iter()
        .map(|&n| (n, median(&t.timer_us(cold, n))))
        .collect();
    let layers: f64 = parts.iter().map(|(_, us)| us).sum();
    let stage = |name: &str| {
        stage_means
            .iter()
            .find(|(s, _)| s == name)
            .map_or(0.0, |(_, m)| *m)
    };
    let stages = stage("cache_lookup") + stage("analyze") + stage("score");
    let terms: Vec<String> = parts.iter().map(|(n, us)| format!("{n} {us:.1}")).collect();
    println!("reconciliation (cold_titanx miss path, self-time medians in us):");
    println!("  layers: {} = {layers:.1}", terms.join(" + "));
    println!(
        "  daemon stages cache_lookup {:.1} + analyze {:.1} + score {:.1} = {stages:.1}; gap {:+.1}%",
        stage("cache_lookup"),
        stage("analyze"),
        stage("score"),
        100.0 * (layers - stages) / stages
    );
    println!(
        "  server CPU per request {cpu_us_per_req:.1}; gap {:+.1}%",
        100.0 * (layers - cpu_us_per_req) / cpu_us_per_req
    );
}
