//! The cold-predict path: what a `gpufreq-serve` cache miss costs.
//!
//! A unique (never-seen) kernel source pays the full
//! `parse → analyze → score → Pareto` pipeline; this bench measures
//! that cost end to end for one kernel on every registry device, plus
//! the two halves separately (front-end analysis vs. model scoring),
//! so the ROADMAP's "sub-millisecond cold predict" claim is a measured
//! number instead of an assertion and a regression in either half is
//! attributable from the bench output alone. The `cold_predict_stage`
//! ids below each match one layer of the serving benchmark's traced
//! replay (`score_block` per head, the mem-L point, `to_compact_json`,
//! the Pareto pass).
//!
//! Planners train once in setup with exactly the model `gpufreq serve
//! --fast` serves ([`ModelConfig::fast`] on the fast corpus at 20
//! settings): the scoring cost follows the support-vector count, so
//! this bench and the daemon's `score` span measure the same vectors.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use gpufreq_core::{analyze_source, Corpus, ModelConfig, Planner, TrainedPlanner, MEM_L_MHZ};
use gpufreq_kernel::{memory_boundedness, NUM_FEATURES};
use gpufreq_pareto::{pareto_set_fast, pareto_set_simple, Objectives};
use gpufreq_sim::Device;
use std::hint::black_box;

/// One planner per registry device, trained as `serve --fast` trains.
fn planners() -> Vec<TrainedPlanner> {
    Planner::builder()
        .corpus(Corpus::Fast)
        .settings(20)
        .model_config(ModelConfig::fast())
        .train_all_devices()
        .expect("fast corpus trains on every device")
}

/// The benchmarked kernel: k-NN, a mid-sized real workload.
fn source() -> String {
    gpufreq_workloads::workload("knn").unwrap().source
}

fn bench_cold_predict(c: &mut Criterion) {
    let planners = planners();
    let source = source();
    let mut group = c.benchmark_group("cold_predict");
    for planner in &planners {
        group.bench_with_input(
            BenchmarkId::from_parameter(planner.device().id()),
            planner,
            |b, planner| {
                b.iter(|| {
                    // The serve-daemon cache-miss path without the
                    // cache: full parse + analysis + batched scoring
                    // of every device configuration + Pareto.
                    let (features, _profile) =
                        analyze_source(black_box(source.as_str()), None).unwrap();
                    planner.predict(&features).unwrap()
                })
            },
        );
    }
    group.finish();
}

fn bench_stages(c: &mut Criterion) {
    let planners = planners();
    let source = source();

    // Front-end half: source text to static features + profile.
    c.bench_function("cold_predict_stage/parse_analyze", |b| {
        b.iter(|| analyze_source(black_box(source.as_str()), None).unwrap())
    });

    // Scoring half: static features to the predicted Pareto set over
    // the full per-device configuration block.
    let (features, _) = analyze_source(&source, None).unwrap();
    let mut group = c.benchmark_group("cold_predict_stage/score_pareto");
    for planner in &planners {
        group.bench_with_input(
            BenchmarkId::from_parameter(planner.device().id()),
            planner,
            |b, planner| b.iter(|| planner.predict(black_box(&features)).unwrap()),
        );
    }
    group.finish();

    // Scoring per head, the `ModelScorer::score_block` call that the
    // serving benchmark's traced replay times as
    // `ml.score_block_us.h<head>`: that head's modeled candidates, as
    // rows written by `write_scaled_row`, in candidate order. On the
    // Titan X (three modeled memory clocks) and the P100 (one).
    for device in [Device::TitanX, Device::TeslaP100] {
        let planner = planners
            .iter()
            .find(|p| p.device() == device)
            .expect("a planner per device");
        let scorer = planner.plan().scorer();
        let boundedness = memory_boundedness(&features);
        let modeled: Vec<_> = planner
            .simulator()
            .spec()
            .clocks
            .actual_configs()
            .into_iter()
            .filter(|c| c.mem_mhz > MEM_L_MHZ)
            .collect();
        let mut group =
            c.benchmark_group(format!("cold_predict_stage/score_block/{}", device.id()));
        for head in 0..scorer.num_heads() {
            let mut block = Vec::new();
            for config in modeled.iter().filter(|&&c| scorer.head_index(c) == head) {
                let mut row = [0.0; NUM_FEATURES];
                let (core, mem) = (config.core_scaled(), config.mem_scaled());
                scorer.write_scaled_row(&features, boundedness, core, mem, &mut row);
                block.extend_from_slice(&row);
            }
            if block.is_empty() {
                continue;
            }
            let (mut speedup, mut energy) = (Vec::new(), Vec::new());
            group.bench_function(BenchmarkId::from_parameter(format!("h{head}")), |b| {
                b.iter(|| scorer.score_block(head, black_box(&block), &mut speedup, &mut energy))
            });
        }
        group.finish();
    }

    // The mem-L heuristic point on the Titan X, scored alone through
    // `predict_prepared` as the trace's `core.mem_l_point_us` times it.
    let planner = planners
        .iter()
        .find(|p| p.device() == Device::TitanX)
        .expect("a Titan X planner");
    let scorer = planner.plan().scorer();
    let clocks = &planner.simulator().spec().clocks;
    let mem_l = *clocks
        .actual_configs_for(MEM_L_MHZ)
        .last()
        .expect("the Titan X has mem-L clocks");
    let boundedness = memory_boundedness(&features);
    let head = scorer.head_index(mem_l);
    c.bench_function("cold_predict_stage/mem_l_point/titan-x", |b| {
        b.iter(|| {
            scorer.predict_prepared(
                black_box(&features),
                boundedness,
                mem_l.core_scaled(),
                mem_l.mem_scaled(),
                head,
            )
        })
    });

    // The rest of the miss path on that Titan X prediction: the answer
    // serialization the trace times as `core.to_compact_json_us`, and
    // the Pareto reduction over its modeled objectives, both by the
    // served sort-and-scan and by Algorithm 1 (which the trace's
    // `pareto.pareto_set_us` still times).
    let prediction = planner.plan().predict(&features);
    c.bench_function("cold_predict_stage/to_compact_json", |b| {
        b.iter(|| black_box(&prediction).to_compact_json())
    });
    let objectives: Vec<Objectives> = prediction.all_points.iter().map(|p| p.objectives).collect();
    let mut group = c.benchmark_group("cold_predict_stage/pareto");
    group.bench_function("simple", |b| {
        b.iter(|| pareto_set_simple(black_box(&objectives)))
    });
    group.bench_function("fast", |b| {
        b.iter(|| pareto_set_fast(black_box(&objectives)))
    });
    group.finish();
}

criterion_group!(benches, bench_cold_predict, bench_stages);
criterion_main!(benches);
