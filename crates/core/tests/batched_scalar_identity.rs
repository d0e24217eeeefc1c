//! Property pins for the batched prediction pipeline against a scalar
//! re-derivation of the historical per-point path, across random
//! kernels, the 12 workloads, the synthetic corpus, and all three
//! devices' actual configuration blocks.
//!
//! [`predict_pareto_at`] (and the [`PredictPlan`] the planner serves
//! from) scores through per-domain `ScoringPlan`s, which fold the
//! linear speedup head into primal weights and evaluate the RBF energy
//! head's `exp` in plain arithmetic. The scalar reference below
//! rebuilds the prediction the pre-refactor way — one
//! [`FreqScalingModel::predict_objectives`] call per candidate,
//! Algorithm 1, then the mem-L heuristic append. The two must agree to
//! 1e-12 relative on every objective and pick the same Pareto
//! configurations; inside the batched pipeline, a block row and a
//! single-row score must agree to the bit.

use gpufreq_core::{
    predict_pareto_at, Corpus, FreqScalingModel, ModelConfig, ModelScorer, ParetoPrediction,
    Planner, PredictPlan, PredictedPoint, MEM_L_MHZ,
};
use gpufreq_kernel::{
    memory_boundedness, FreqConfig, StaticFeatures, NUM_FEATURES, NUM_STATIC_FEATURES,
};
use gpufreq_ml::{SvmKernel, SvrParams};
use gpufreq_pareto::{pareto_set_simple, Objectives};
use gpufreq_sim::{ClockTable, Device};
use proptest::prelude::*;
use std::sync::OnceLock;

/// Train one model at test-suite scale with `config`.
fn train(config: ModelConfig) -> FreqScalingModel {
    Planner::builder()
        .corpus(Corpus::Fast)
        .settings(8)
        .model_config(config)
        .train()
        .expect("fast corpus trains")
        .model()
        .clone()
}

/// One model trained once for the whole suite (cross-device prediction
/// is supported: unseen memory clocks fall back to the nearest domain,
/// so the Titan X model exercises every device's config block).
fn model() -> &'static FreqScalingModel {
    static MODEL: OnceLock<FreqScalingModel> = OnceLock::new();
    MODEL.get_or_init(|| train(ModelConfig::relaxed()))
}

/// The historical scalar path, re-derived: per-point scalar scoring,
/// Algorithm 1, heuristic append.
fn scalar_reference(
    model: &FreqScalingModel,
    features: &StaticFeatures,
    clocks: &ClockTable,
    candidates: &[FreqConfig],
) -> ParetoPrediction {
    if candidates.is_empty() {
        return ParetoPrediction {
            all_points: Vec::new(),
            pareto_set: Vec::new(),
        };
    }
    let all_points: Vec<PredictedPoint> = candidates
        .iter()
        .filter(|c| c.mem_mhz > MEM_L_MHZ)
        .map(|&config| PredictedPoint {
            config,
            objectives: model.predict_objectives(features, config),
            heuristic: false,
        })
        .collect();
    let objectives: Vec<Objectives> = all_points.iter().map(|p| p.objectives).collect();
    let mut pareto_set: Vec<PredictedPoint> = pareto_set_simple(&objectives)
        .into_iter()
        .map(|i| all_points[i])
        .collect();
    if let Some(mem_l_last) = clocks.actual_configs_for(MEM_L_MHZ).into_iter().last() {
        pareto_set.push(PredictedPoint {
            config: mem_l_last,
            objectives: model.predict_objectives(features, mem_l_last),
            heuristic: true,
        });
    }
    ParetoPrediction {
        all_points,
        pareto_set,
    }
}

/// `batched` has the reference's points, in order, each objective
/// within 1e-12 relative of the reference's.
fn assert_objectives_close(batched: &[PredictedPoint], reference: &[PredictedPoint]) {
    assert_eq!(batched.len(), reference.len());
    for (got, want) in batched.iter().zip(reference) {
        assert_eq!(got.config, want.config);
        assert_eq!(got.heuristic, want.heuristic);
        for (g, w) in [
            (got.objectives.speedup, want.objectives.speedup),
            (got.objectives.energy, want.objectives.energy),
        ] {
            assert!(
                (g - w).abs() <= 1e-12 * w.abs(),
                "{:?}: {g} vs scalar {w}",
                got.config
            );
        }
    }
}

/// Deterministic feature generator (SplitMix64; no RNG dependency).
fn random_features(seed: u64) -> StaticFeatures {
    let mut state = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15).wrapping_add(1);
    let mut next = move || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    let mut values = [0.0; NUM_STATIC_FEATURES];
    for v in &mut values {
        *v = (next() >> 11) as f64 * (1.0 / (1u64 << 53) as f64) * 0.2;
    }
    StaticFeatures::from_values(values)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Batched vs scalar over every device's full actual-config block:
    /// every objective within 1e-12 relative, and the planner's
    /// precomputed plan byte-identical to the one-shot batched path.
    #[test]
    fn batched_objectives_are_within_1e12_of_scalar_reference(seed in 0u64..100_000) {
        let model = model();
        let features = random_features(seed);
        for device in Device::all() {
            let sim = device.simulator();
            let clocks = &sim.spec().clocks;
            let candidates = clocks.actual_configs();
            let batched = predict_pareto_at(model, &features, clocks, &candidates);
            let reference = scalar_reference(model, &features, clocks, &candidates);
            assert_objectives_close(&batched.all_points, &reference.all_points);
            let heuristic = |p: &ParetoPrediction| p.pareto_set.last().copied();
            assert_objectives_close(
                heuristic(&batched).as_slice(),
                heuristic(&reference).as_slice(),
            );
            let plan = PredictPlan::full(model, clocks);
            prop_assert_eq!(
                serde_json::to_string(&plan.predict(&features)).unwrap(),
                serde_json::to_string(&batched).unwrap()
            );
        }
    }
}

/// The 12 workloads and the 106 synthetic micro-benchmarks, through each
/// device's own model: the same Pareto configurations as the scalar
/// path, and every objective within 1e-12 relative.
#[test]
fn pareto_sets_match_scalar_reference_on_workloads_and_corpus() {
    let planners = Planner::builder()
        .corpus(Corpus::Fast)
        .settings(8)
        .model_config(ModelConfig::relaxed())
        .train_all_devices()
        .expect("fast corpus trains on every device");
    let kernels: Vec<(String, StaticFeatures)> = gpufreq_workloads::all_workloads()
        .into_iter()
        .map(|w| (w.name.to_string(), w.static_features()))
        .chain(
            gpufreq_synth::generate_all()
                .into_iter()
                .map(|b| (b.name.clone(), b.static_features())),
        )
        .collect();
    assert_eq!(kernels.len(), 12 + 106);
    for planner in &planners {
        let sim = planner.device().simulator();
        let clocks = &sim.spec().clocks;
        let plan = PredictPlan::full(planner.model(), clocks);
        for (name, features) in &kernels {
            let batched = plan.predict(features);
            let reference =
                scalar_reference(planner.model(), features, clocks, &clocks.actual_configs());
            let configs = |p: &ParetoPrediction| -> Vec<(FreqConfig, bool)> {
                p.pareto_set
                    .iter()
                    .map(|q| (q.config, q.heuristic))
                    .collect()
            };
            assert_eq!(
                configs(&batched),
                configs(&reference),
                "{name} on {}",
                planner.device().id()
            );
            assert_objectives_close(&batched.all_points, &reference.all_points);
            assert_objectives_close(&batched.pareto_set, &reference.pareto_set);
        }
    }
}

/// Every kernel family: row `i` of `ModelScorer::score_block` has
/// exactly the bits `predict_prepared` gives that candidate alone —
/// the identity the served path and the benchmark's decomposition
/// check rely on.
#[test]
fn score_block_rows_are_bit_identical_to_predict_prepared() {
    let polynomial = SvrParams {
        kernel: SvmKernel::Polynomial {
            gamma: 0.5,
            coef0: 1.0,
            degree: 2,
        },
        ..ModelConfig::relaxed().speedup
    };
    let polynomial_model = train(ModelConfig {
        speedup: polynomial,
        energy: polynomial,
    });
    let features = random_features(7);
    for model in [model(), &polynomial_model] {
        let scorer = model.scorer();
        for device in Device::all() {
            let sim = device.simulator();
            assert_block_rows_match(&scorer, &features, &sim.spec().clocks.actual_configs());
        }
    }
}

fn assert_block_rows_match(
    scorer: &ModelScorer,
    features: &StaticFeatures,
    configs: &[FreqConfig],
) {
    let boundedness = memory_boundedness(features);
    for head in 0..scorer.num_heads() {
        let owned: Vec<FreqConfig> = configs
            .iter()
            .copied()
            .filter(|&c| scorer.head_index(c) == head)
            .collect();
        let mut block = vec![0.0; owned.len() * NUM_FEATURES];
        for (c, row) in owned.iter().zip(block.chunks_exact_mut(NUM_FEATURES)) {
            let row = row.try_into().expect("row is NUM_FEATURES wide");
            scorer.write_scaled_row(features, boundedness, c.core_scaled(), c.mem_scaled(), row);
        }
        let (mut speedup, mut energy) = (Vec::new(), Vec::new());
        scorer.score_block(head, &block, &mut speedup, &mut energy);
        assert_eq!(speedup.len(), owned.len());
        for (i, c) in owned.iter().enumerate() {
            let single = scorer.predict_prepared(
                features,
                boundedness,
                c.core_scaled(),
                c.mem_scaled(),
                head,
            );
            assert_eq!(speedup[i].to_bits(), single.speedup.to_bits(), "{c:?}");
            assert_eq!(energy[i].to_bits(), single.energy.to_bits(), "{c:?}");
        }
    }
}
