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
use gpufreq_pareto::{pareto_set_fast, pareto_set_simple, Objectives};
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
    assert_objectives_within(batched, reference, 1e-12);
}

/// `batched` has the reference's points, in order, each objective
/// within `bound` relative of the reference's. Returns the worst
/// relative error seen.
fn assert_objectives_within(
    batched: &[PredictedPoint],
    reference: &[PredictedPoint],
    bound: f64,
) -> f64 {
    assert_eq!(batched.len(), reference.len());
    let mut worst: f64 = 0.0;
    for (got, want) in batched.iter().zip(reference) {
        assert_eq!(got.config, want.config);
        assert_eq!(got.heuristic, want.heuristic);
        for (g, w) in [
            (got.objectives.speedup, want.objectives.speedup),
            (got.objectives.energy, want.objectives.energy),
        ] {
            assert!(
                (g - w).abs() <= bound * w.abs(),
                "{:?}: {g} vs scalar {w}",
                got.config
            );
            worst = worst.max((g - w).abs() / w.abs());
        }
    }
    worst
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

/// The 12 workloads and the 106 synthetic micro-benchmarks.
fn workloads_and_corpus() -> Vec<(String, StaticFeatures)> {
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
    kernels
}

/// Every kernel of [`workloads_and_corpus`] through each device's own
/// model trained with `settings` and `config`: the same Pareto
/// configurations as the scalar path, and every objective within
/// `bound` relative. Returns the worst relative error seen.
fn assert_pareto_sets_match(settings: usize, config: ModelConfig, bound: f64) -> f64 {
    let planners = Planner::builder()
        .corpus(Corpus::Fast)
        .settings(settings)
        .model_config(config)
        .train_all_devices()
        .expect("fast corpus trains on every device");
    let kernels = workloads_and_corpus();
    let mut worst: f64 = 0.0;
    for planner in &planners {
        let sim = planner.device().simulator();
        let clocks = &sim.spec().clocks;
        let plan = PredictPlan::full(planner.model(), clocks);
        for (name, features) in &kernels {
            let batched = plan.predict(features);
            // The served sort-and-scan front is Algorithm 1's index
            // list on the served objectives.
            let objectives: Vec<Objectives> =
                batched.all_points.iter().map(|p| p.objectives).collect();
            assert_eq!(
                pareto_set_fast(&objectives),
                pareto_set_simple(&objectives),
                "{name} on {}",
                planner.device().id()
            );
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
            for (got, want) in [
                (&batched.all_points, &reference.all_points),
                (&batched.pareto_set, &reference.pareto_set),
            ] {
                worst = worst.max(assert_objectives_within(got, want, bound));
            }
        }
    }
    worst
}

/// The test-suite models (`ModelConfig::relaxed()`, 8 settings): the
/// same Pareto configurations as the scalar path, and every objective
/// within 1e-12 relative.
#[test]
fn pareto_sets_match_scalar_reference_on_workloads_and_corpus() {
    assert_pareto_sets_match(8, ModelConfig::relaxed(), 1e-12);
}

/// The model `gpufreq serve --fast` serves (`ModelConfig::fast()`, 20
/// settings): the same Pareto configurations as the scalar path. Its
/// larger `C` leaves larger coefficients that cancel in the sums, so
/// reassociating them moves trailing digits further than on the
/// test-suite models: the worst objective measured 8.2e-12 relative
/// (a speedup, from the primal-folded linear head), pinned here at
/// 2e-11.
#[test]
fn served_model_pareto_sets_match_scalar_reference() {
    let worst = assert_pareto_sets_match(20, ModelConfig::fast(), 2e-11);
    eprintln!("served model: worst relative objective error {worst:e}");
}

/// Row `i` of `ModelScorer::score_block` has exactly the bits
/// `predict_prepared` gives that candidate alone — the identity the
/// served path and the benchmark's decomposition check rely on — with
/// the energy head stepped along each device's clock grids.
#[test]
fn score_block_rows_are_bit_identical_to_predict_prepared() {
    let features = random_features(7);
    for device in Device::all() {
        let sim = device.simulator();
        let clocks = &sim.spec().clocks;
        let scorer = model().scorer(clocks);
        assert_block_rows_match(&scorer, &features, &clocks.actual_configs());
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

/// One head's block holding rows of two kernels at two memory clocks,
/// interleaved so that neighbouring rows share the kernel but not the
/// memory clock, or the memory clock but not the kernel, or both: each
/// row still has exactly the bits `predict_prepared` gives it alone, so
/// a run never spans rows that lie on different lines.
#[test]
fn interleaved_block_rows_are_bit_identical_to_predict_prepared() {
    let sim = Device::TitanX.simulator();
    let clocks = &sim.spec().clocks;
    let scorer = model().scorer(clocks);
    let kernels = [random_features(11), random_features(12)];
    let mems = [3505, 3304];
    let head = scorer.head_index(FreqConfig::new(mems[0], 1001));
    let cores: Vec<u32> = clocks
        .actual_configs_for(mems[0])
        .iter()
        .map(|c| c.core_mhz)
        .collect();
    // (kernel, memory clock) per row: runs of one, two and three rows.
    let pattern = [
        (0, 0),
        (0, 0),
        (0, 1),
        (1, 1),
        (1, 0),
        (1, 0),
        (1, 0),
        (0, 1),
    ];
    let rows: Vec<(usize, FreqConfig)> = cores
        .iter()
        .zip(pattern.iter().cycle())
        .map(|(&core, &(k, m))| (k, FreqConfig::new(mems[m], core)))
        .collect();
    let mut block = vec![0.0; rows.len() * NUM_FEATURES];
    for (&(k, c), row) in rows.iter().zip(block.chunks_exact_mut(NUM_FEATURES)) {
        let features = &kernels[k];
        let row = row.try_into().expect("row is NUM_FEATURES wide");
        let boundedness = memory_boundedness(features);
        scorer.write_scaled_row(features, boundedness, c.core_scaled(), c.mem_scaled(), row);
    }
    let (mut speedup, mut energy) = (Vec::new(), Vec::new());
    scorer.score_block(head, &block, &mut speedup, &mut energy);
    assert_eq!(speedup.len(), rows.len());
    for (i, &(k, c)) in rows.iter().enumerate() {
        let features = &kernels[k];
        let single = scorer.predict_prepared(
            features,
            memory_boundedness(features),
            c.core_scaled(),
            c.mem_scaled(),
            head,
        );
        assert_eq!(
            speedup[i].to_bits(),
            single.speedup.to_bits(),
            "row {i}: {c:?}"
        );
        assert_eq!(
            energy[i].to_bits(),
            single.energy.to_bits(),
            "row {i}: {c:?}"
        );
    }
}

/// Core clocks off the device's grid — an ad hoc candidate list — are
/// scored directly, next to grid rows of the same line that step: every
/// row of such a mixed block still has exactly the bits
/// `predict_prepared` gives it alone.
#[test]
fn off_grid_block_rows_are_bit_identical_to_predict_prepared() {
    let sim = Device::TitanX.simulator();
    let clocks = &sim.spec().clocks;
    let scorer = model().scorer(clocks);
    let configs: Vec<FreqConfig> = clocks
        .actual_configs_for(3505)
        .iter()
        .flat_map(|c| [*c, FreqConfig::new(c.mem_mhz, c.core_mhz + 1)])
        .collect();
    assert_block_rows_match(&scorer, &random_features(13), &configs);
}

/// A kernel whose features lie far outside the scaler's `lo`/`hi`
/// puts its lines far from every support vector, so the stepping guard
/// sends them to the direct lanes: its scores are finite and have
/// exactly the bits of a scorer with no grids, which scores every
/// candidate directly.
#[test]
fn far_out_kernels_score_as_the_direct_lanes() {
    let sim = Device::TitanX.simulator();
    let clocks = &sim.spec().clocks;
    let stepped = model().scorer(clocks);
    let direct = model().scorer(&ClockTable {
        domains: Vec::new(),
        default: clocks.default,
    });
    let far = StaticFeatures::from_values(random_features(17).values().map(|v| v * 1e4 + 50.0));
    let boundedness = memory_boundedness(&far);
    let configs = clocks.actual_configs();
    for head in 0..stepped.num_heads() {
        let owned: Vec<FreqConfig> = configs
            .iter()
            .copied()
            .filter(|&c| stepped.head_index(c) == head)
            .collect();
        let mut block = vec![0.0; owned.len() * NUM_FEATURES];
        for (c, row) in owned.iter().zip(block.chunks_exact_mut(NUM_FEATURES)) {
            let row = row.try_into().expect("row is NUM_FEATURES wide");
            stepped.write_scaled_row(&far, boundedness, c.core_scaled(), c.mem_scaled(), row);
        }
        let (mut speedup, mut energy) = (Vec::new(), Vec::new());
        let (mut want_speedup, mut want_energy) = (Vec::new(), Vec::new());
        stepped.score_block(head, &block, &mut speedup, &mut energy);
        direct.score_block(head, &block, &mut want_speedup, &mut want_energy);
        for (got, want) in energy.iter().zip(&want_energy) {
            assert!(got.is_finite(), "head {head}: {got}");
            assert_eq!(got.to_bits(), want.to_bits(), "head {head}");
        }
        assert_eq!(speedup, want_speedup);
    }
}
