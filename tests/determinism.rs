//! Determinism harness: every parallel path must be bit-identical to
//! its serial twin.
//!
//! The execution engine merges worker results by index, so training,
//! evaluation and batch prediction are specified to
//! produce the same bytes for `--jobs 1` and `--jobs 4` (and any other
//! worker count) — this suite pins that contract at the artifact-JSON
//! and Table 2 level, the representations that get persisted and
//! compared across machines.

use gpufreq_core::{
    build_training_data_with, evaluate_all_with, table2, table2_csv, Corpus, Engine,
    FreqScalingModel, ModelConfig, Planner, TrainedPlanner,
};
use gpufreq_sim::{Device, GpuSimulator};
use gpufreq_synth::MicroBenchmark;

/// The shared test-suite solver preset: fast enough for CI, same code
/// path as the paper parameters.
fn fast_config() -> ModelConfig {
    ModelConfig::relaxed()
}

fn small_corpus() -> Vec<MicroBenchmark> {
    gpufreq_synth::generate_all()
        .into_iter()
        .step_by(5)
        .collect()
}

fn train_planner(jobs: usize) -> TrainedPlanner {
    Planner::builder()
        .device(Device::TitanX)
        .corpus(Corpus::Fast)
        .settings(8)
        .model_config(fast_config())
        .jobs(Some(jobs))
        .train()
        .expect("fast corpus trains")
}

#[test]
fn training_artifact_json_is_identical_serial_vs_parallel() {
    let serial = train_planner(1);
    let parallel = train_planner(4);
    assert_eq!(
        serial.artifact().to_json(),
        parallel.artifact().to_json(),
        "--jobs 4 must persist byte-identical model artifacts to --jobs 1"
    );
}

#[test]
fn training_data_is_identical_for_every_worker_count() {
    let sim = GpuSimulator::titan_x();
    let corpus = small_corpus();
    let serial = build_training_data_with(&Engine::serial(), &sim, &corpus, 6);
    for jobs in [2, 4, 16] {
        let parallel = build_training_data_with(&Engine::new(Some(jobs)), &sim, &corpus, 6);
        assert_eq!(parallel, serial, "jobs = {jobs}");
    }
}

#[test]
fn evaluate_all_and_table2_are_identical_serial_vs_parallel() {
    let sim = GpuSimulator::titan_x();
    let data = build_training_data_with(&Engine::default(), &sim, &small_corpus(), 8);
    let model = FreqScalingModel::try_train_with(&Engine::default(), &data, &fast_config())
        .expect("corpus is non-empty");
    let workloads = gpufreq_workloads::all_workloads();
    let serial = evaluate_all_with(&Engine::serial(), &sim, &model, &workloads);
    let parallel = evaluate_all_with(&Engine::new(Some(4)), &sim, &model, &workloads);
    assert_eq!(parallel, serial, "full evaluations must match");
    // And the level users diff: rendered Table 2 rows, byte for byte.
    assert_eq!(table2_csv(&table2(&parallel)), table2_csv(&table2(&serial)));
}

#[test]
fn predict_batch_is_identical_serial_vs_parallel() {
    let planner = train_planner(2);
    // Owned `String` sources straight into the generic batch API — no
    // borrow slice to rebuild.
    let sources: Vec<String> = gpufreq_workloads::all_workloads()
        .iter()
        .map(|w| w.source.clone())
        .collect();
    let serial: Vec<_> = planner
        .clone()
        .with_jobs(Some(1))
        .predict_batch(&sources)
        .into_iter()
        .map(|r| r.expect("workload kernels analyze"))
        .collect();
    let parallel: Vec<_> = planner
        .with_jobs(Some(4))
        .predict_batch(&sources)
        .into_iter()
        .map(|r| r.expect("workload kernels analyze"))
        .collect();
    assert_eq!(parallel, serial);
}

#[test]
fn serve_responses_are_identical_at_any_worker_count() {
    // The serving-side twin of the engine contract: replaying one
    // recorded request stream through `gpufreq-serve` must produce
    // byte-identical response bodies at any worker count — including
    // the error responses, the post-shutdown drain, and with the
    // front cache disabled entirely (the cache may only change
    // wall-clock, never bytes).
    use gpufreq_serve::{Request, Server, ServerConfig};
    use gpufreq_sim::Device as Dev;

    let planner = train_planner(2);
    let workloads = gpufreq_workloads::all_workloads();
    let mut stream_lines: Vec<String> = Vec::new();
    // Every workload once, the first three repeated (cache hits on
    // the second pass), one batch mixing a malformed slot in.
    for w in &workloads {
        stream_lines.push(Request::predict(Dev::TitanX, w.source.clone()).to_json());
    }
    for w in workloads.iter().take(3) {
        stream_lines.push(Request::predict(Dev::TitanX, w.source.clone()).to_json());
    }
    stream_lines.push(
        Request::predict_batch(
            Dev::TitanX,
            vec![
                workloads[0].source.clone(),
                "__kernel void broken(".to_string(),
                workloads[1].source.clone(),
            ],
        )
        .to_json(),
    );
    stream_lines.push(Request::Devices.to_json());
    stream_lines.push("{ this is not json".to_string());
    stream_lines.push(
        Request::Predict {
            device: "gtx-9000".into(),
            source: workloads[0].source.clone(),
        }
        .to_json(),
    );
    stream_lines.push(
        Request::Predict {
            device: Dev::TeslaP100.id().into(), // registered, not served
            source: workloads[0].source.clone(),
        }
        .to_json(),
    );
    stream_lines.push(Request::Shutdown.to_json());
    // Post-shutdown requests drain deterministically.
    stream_lines.push(Request::Devices.to_json());
    let stream = stream_lines.join("\n");

    let run = |workers: usize, cache_capacity: usize| -> String {
        let server = Server::new(
            vec![planner.clone()],
            ServerConfig {
                workers,
                queue_capacity: 64,
                cache_capacity,
                cache_shards: 2,
                analysis_cache_capacity: 8,
                ..ServerConfig::default()
            },
        )
        .expect("one planner serves");
        let mut out = Vec::new();
        server
            .serve_lines(stream.as_bytes(), &mut out)
            .expect("in-memory serving cannot fail");
        String::from_utf8(out).expect("responses are UTF-8")
    };

    let serial = run(1, 16);
    assert_eq!(
        serial.lines().count(),
        stream_lines.len(),
        "every request answered exactly once"
    );
    for workers in [2, 4] {
        assert_eq!(
            run(workers, 16),
            serial,
            "response bodies must not depend on the worker count ({workers})"
        );
    }
    assert_eq!(
        run(4, 0),
        serial,
        "the front cache must never change response bytes"
    );
}

#[test]
fn reproduction_report_is_identical_serial_vs_parallel() {
    // The report subsystem aggregates every engine-routed pipeline
    // (training, evaluation, error analysis, on two devices), so its
    // rendered documents are the widest determinism surface there is:
    // `gpufreq report --fast --jobs 1` and `--jobs 4` must write
    // byte-identical REPRODUCTION.md / reproduction.json.
    use gpufreq_bench::report::{generate, render, ReportOptions};
    let report = |jobs: usize| {
        generate(&ReportOptions {
            full: false,
            jobs: Some(jobs),
            git_revision: None,
        })
        .expect("fast report generates")
    };
    let serial = report(1);
    let parallel = report(4);
    assert_eq!(
        render::render_markdown(&serial),
        render::render_markdown(&parallel),
        "REPRODUCTION.md must not depend on --jobs"
    );
    assert_eq!(
        render::render_json(&serial),
        render::render_json(&parallel),
        "reproduction.json must not depend on --jobs"
    );
}

#[test]
fn train_all_devices_is_identical_serial_vs_parallel() {
    let build = |jobs: usize| {
        Planner::builder()
            .corpus(Corpus::Fast)
            .settings(6)
            .model_config(fast_config())
            .jobs(Some(jobs))
            .train_all_devices()
            .expect("fast corpus trains on every device")
    };
    let serial = build(1);
    let parallel = build(3);
    assert_eq!(serial.len(), Device::all().len());
    for (s, p) in serial.iter().zip(&parallel) {
        assert_eq!(s.device(), p.device());
        assert_eq!(
            s.artifact().to_json(),
            p.artifact().to_json(),
            "device {}",
            s.device()
        );
    }
}
