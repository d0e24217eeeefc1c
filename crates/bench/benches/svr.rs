//! SVR training and inference cost as a function of training-set size.
//!
//! Quantifies the cost of the paper's training phase (§3.4): SMO
//! training of the linear (speedup) and RBF (energy) heads at various
//! corpus sizes, plus single-row prediction latency — the quantity that
//! makes the *static* approach attractive (prediction needs no kernel
//! execution at all). `svr_train/served` times the heads `serve --fast`
//! trains at start-up, at their served shape: the P100's single memory
//! domain of the fast corpus (36 micro-benchmarks × 20 settings = 720
//! rows), scaled as the model scales it, with `ModelConfig::fast()`
//! parameters (both heads run to its 200k-iteration cap).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpufreq_core::{build_training_data, ModelConfig};
use gpufreq_ml::{train_svr, Dataset, MinMaxScaler, SvmKernel, SvrParams};
use gpufreq_sim::GpuSimulator;
use std::hint::black_box;

fn params(kernel: SvmKernel) -> SvrParams {
    // Moderate C and a tight iteration cap keep each training run
    // representative but bounded (the shape across corpus sizes is the
    // quantity of interest).
    SvrParams {
        c: 100.0,
        kernel,
        max_iter: 100_000,
        ..SvrParams::paper_speedup()
    }
}

fn bench_training(c: &mut Criterion) {
    let sim = GpuSimulator::titan_x();
    let benches = gpufreq_synth::generate_all();
    let mut group = c.benchmark_group("svr_train");
    group.sample_size(10);
    for &n_benches in &[8usize, 16, 32] {
        let subset: Vec<_> = benches.iter().take(n_benches).cloned().collect();
        let data = build_training_data(&sim, &subset, 10);
        group.bench_with_input(
            BenchmarkId::new("linear", data.speedup.len()),
            &data,
            |b, data| b.iter(|| train_svr(black_box(&data.speedup), &params(SvmKernel::Linear))),
        );
        group.bench_with_input(
            BenchmarkId::new("rbf", data.energy.len()),
            &data,
            |b, data| {
                b.iter(|| {
                    train_svr(
                        black_box(&data.energy),
                        &params(SvmKernel::Rbf { gamma: 0.1 }),
                    )
                })
            },
        );
    }
    group.finish();
}

/// The P100's fast-corpus training data, scaled like the served model:
/// `(speedup, energy)` datasets of one memory domain.
fn served_p100() -> (Dataset, Dataset) {
    let corpus: Vec<_> = gpufreq_synth::generate_all()
        .into_iter()
        .step_by(3)
        .collect();
    let data = build_training_data(&GpuSimulator::tesla_p100(), &corpus, 20);
    let scaler = MinMaxScaler::fit(data.speedup.xs());
    let scaled = |d: &Dataset| {
        let mut out = Dataset::new();
        for (x, &y) in d.xs().iter().zip(d.ys()) {
            out.push(scaler.transform(x), y);
        }
        out
    };
    (scaled(&data.speedup), scaled(&data.energy))
}

fn bench_served_training(c: &mut Criterion) {
    let (speedup, energy) = served_p100();
    let config = ModelConfig::fast();
    let mut group = c.benchmark_group("svr_train/served");
    group.sample_size(10);
    for (name, data, params) in [
        ("linear", &speedup, config.speedup),
        ("rbf", &energy, config.energy),
    ] {
        group.bench_with_input(BenchmarkId::new(name, data.len()), data, |b, data| {
            b.iter(|| train_svr(black_box(data), &params))
        });
    }
    group.finish();
}

fn bench_prediction(c: &mut Criterion) {
    let sim = GpuSimulator::titan_x();
    let benches: Vec<_> = gpufreq_synth::generate_all().into_iter().take(32).collect();
    let data = build_training_data(&sim, &benches, 10);
    let linear = train_svr(&data.speedup, &params(SvmKernel::Linear));
    let rbf = train_svr(&data.energy, &params(SvmKernel::Rbf { gamma: 0.1 }));
    let row = data.speedup.xs()[0].clone();
    let mut group = c.benchmark_group("svr_predict");
    group.bench_function("linear", |b| b.iter(|| linear.predict(black_box(&row))));
    group.bench_function("rbf", |b| b.iter(|| rbf.predict(black_box(&row))));
    group.finish();
}

criterion_group! {
    name = benches;
    // Short windows: these benches exist to show scaling shape, and the
    // full suite must run in minutes, not hours.
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_training, bench_served_training, bench_prediction
}
criterion_main!(benches);
