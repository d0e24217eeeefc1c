//! Front-end throughput: lexing, parsing and the static feature pass
//! on the twelve test benchmarks, each stage timed on its own
//! (`lex/*`, `parse/*` — which includes lexing — and
//! `feature_extraction/*`) and end to end (`source_to_features/*`).
//!
//! The paper's prediction phase cost is dominated by feature
//! extraction (everything else is a few hundred kernel evaluations);
//! this bench confirms extraction is microseconds-per-kernel, i.e. the
//! framework can "quickly derive the best configurations for any new
//! application" (§1.2).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpufreq_core::analyze_source;
use gpufreq_kernel::{analyze_kernel_with, lex, parse, AnalysisConfig, StaticFeatures};
use std::hint::black_box;

fn bench_lex(c: &mut Criterion) {
    let mut group = c.benchmark_group("lex");
    for w in gpufreq_workloads::all_workloads() {
        group.bench_with_input(BenchmarkId::from_parameter(w.name), &w, |b, w| {
            b.iter(|| lex(black_box(&w.source)).unwrap())
        });
    }
    group.finish();
}

fn bench_parse(c: &mut Criterion) {
    let mut group = c.benchmark_group("parse");
    for w in gpufreq_workloads::all_workloads() {
        group.bench_with_input(BenchmarkId::from_parameter(w.name), &w, |b, w| {
            b.iter(|| parse(black_box(&w.source)).unwrap())
        });
    }
    group.finish();
}

fn bench_analysis(c: &mut Criterion) {
    let mut group = c.benchmark_group("feature_extraction");
    for w in gpufreq_workloads::all_workloads() {
        let program = w.program();
        let kernel = program.first_kernel().unwrap();
        let config = w.analysis_config();
        group.bench_with_input(BenchmarkId::from_parameter(w.name), &w, |b, _| {
            b.iter(|| {
                let analysis = analyze_kernel_with(black_box(kernel), &config).unwrap();
                StaticFeatures::from_analysis(&analysis)
            })
        });
    }
    group.finish();
}

/// Source text to feature vector, the full static path of Fig. 3, as
/// the daemon runs it (no problem-size bindings).
fn source_to_features(source: &str) -> StaticFeatures {
    let program = parse(source).unwrap();
    let analysis =
        analyze_kernel_with(program.first_kernel().unwrap(), &AnalysisConfig::default()).unwrap();
    StaticFeatures::from_analysis(&analysis)
}

fn bench_end_to_end(c: &mut Criterion) {
    let mut group = c.benchmark_group("source_to_features");
    for w in gpufreq_workloads::all_workloads() {
        // The stage times exactly what `analyze_source` answers.
        let (served, _) = analyze_source(&w.source, None).unwrap();
        let bits = |f: StaticFeatures| f.values().map(f64::to_bits);
        assert_eq!(
            bits(source_to_features(&w.source)),
            bits(served),
            "{}",
            w.name
        );
        group.bench_with_input(BenchmarkId::from_parameter(w.name), &w, |b, w| {
            b.iter(|| source_to_features(black_box(&w.source)))
        });
    }
    group.finish();
}

criterion_group! {
    name = benches;
    // Short windows: these benches exist to show scaling shape, and the
    // full suite must run in minutes, not hours.
    config = Criterion::default()
        .measurement_time(std::time::Duration::from_secs(2))
        .warm_up_time(std::time::Duration::from_millis(500));
    targets = bench_lex, bench_parse, bench_analysis, bench_end_to_end
}
criterion_main!(benches);
