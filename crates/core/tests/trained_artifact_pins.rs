//! Byte pins on trained models: the SMO solver's iterate sequence is
//! part of the contract.
//!
//! Every artifact below is reduced to its JSON byte length and the
//! FNV-1a-64 hash of those bytes. The JSON carries every support
//! vector, coefficient and bias as shortest-round-trip floats plus each
//! head's SMO `iterations`, so a solver change that picks one different
//! working pair, or rounds one gradient step differently, moves a pin.
//! A solver optimisation must leave all of them unchanged; a change
//! that means to move them (new tolerance, shrinking, new corpus) must
//! say so and re-generate them.
//!
//! The full-mode pin trains at the paper's parameters (800k-iteration
//! cap on ~2k rows per head) and is `#[ignore]`d; the nightly job runs
//! it with
//!
//! ```text
//! cargo test --release -p gpufreq-core --test trained_artifact_pins -- --ignored
//! ```

use gpufreq_core::{Corpus, ModelConfig, Planner};
use gpufreq_ml::{train_svr, Dataset, SvmKernel, SvrParams};
use gpufreq_sim::Device;

/// FNV-1a, 64-bit.
fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// Assert that each `(what, json, pin)` has its pinned `(length, hash)`;
/// on a mismatch the message lists every observed pair in the
/// constants' own syntax.
fn assert_pinned(cases: &[(String, String, (usize, u64))]) {
    let moved: Vec<String> = cases
        .iter()
        .filter_map(|(what, json, pin)| {
            let got = (json.len(), fnv1a64(json.as_bytes()));
            (got != *pin).then(|| format!("{what}: observed ({}, 0x{:016x})", got.0, got.1))
        })
        .collect();
    assert!(
        moved.is_empty(),
        "trained bytes moved:\n{}",
        moved.join("\n")
    );
}

/// The persisted artifact JSON of `device` trained on `corpus` with
/// `settings` sampled configurations per micro-benchmark.
fn artifact_json(device: Device, corpus: Corpus, settings: usize, config: ModelConfig) -> String {
    Planner::builder()
        .device(device)
        .corpus(corpus)
        .settings(settings)
        .model_config(config)
        .train()
        .expect("the corpus trains")
        .artifact()
        .to_json()
}

/// The test-suite preset on the determinism suite's reduced corpus.
const RELAXED: [(Device, (usize, u64)); 3] = [
    (Device::TitanX, (157683, 0x9064e7530efe7af4)),
    (Device::TeslaP100, (124057, 0x078578c8223497a5)),
    (Device::TeslaK20c, (83510, 0xf5dea5d13df584e8)),
];

/// Exactly the models `serve --fast` trains at start-up.
const SERVED: [(Device, (usize, u64)); 3] = [
    (Device::TitanX, (359817, 0xa7e86b4dab57f320)),
    (Device::TeslaP100, (147938, 0x686951adf65715f9)),
    (Device::TeslaK20c, (75627, 0x165da36454dc657d)),
];

#[test]
fn relaxed_artifacts_keep_their_bytes() {
    let cases: Vec<_> = RELAXED
        .into_iter()
        .map(|(device, pin)| {
            let json = artifact_json(device, Corpus::Fast, 8, ModelConfig::relaxed());
            (format!("relaxed {device:?}"), json, pin)
        })
        .collect();
    assert_pinned(&cases);
}

#[test]
fn served_fast_artifacts_keep_their_bytes() {
    let cases: Vec<_> = SERVED
        .into_iter()
        .map(|(device, pin)| {
            let json = artifact_json(device, Corpus::Fast, 20, ModelConfig::fast());
            (format!("served {device:?}"), json, pin)
        })
        .collect();
    assert_pinned(&cases);
}

/// Each row twice, targets on a quarter grid: twins have bitwise equal
/// kernel rows, so their gradients start and stay equal, and both
/// working-set picks meet exact ties on every scan; the tie-break rule
/// decides which twin moves.
fn tie_heavy_data() -> Dataset {
    let mut data = Dataset::new();
    for i in 0..40u32 {
        let x = vec![f64::from(i % 8) / 7.0, f64::from(i * 3 % 5) / 4.0];
        let y = (4.0 * (2.0 * x[0] - x[1] + 0.3 * x[0] * x[1])).round() / 4.0;
        data.push(x.clone(), y);
        data.push(x, y);
    }
    data
}

#[test]
fn tie_heavy_solves_keep_their_bytes() {
    let data = tie_heavy_data();
    // `(kernel, C, ε, pin)`. With `ε = 0` the α* gradient is exactly the
    // negated α gradient, so the first-order pick also meets ties
    // between the two blocks; `C = 0.5` parks many twins at the bound,
    // where both stay in `I_up` together.
    let pins = [
        (SvmKernel::Linear, 100.0, 0.01, (1583, 0x45ede8b702a1b550)),
        (
            SvmKernel::Rbf { gamma: 0.5 },
            100.0,
            0.01,
            (1131, 0x925534e6786e7ae7),
        ),
        (SvmKernel::Linear, 0.5, 0.0, (2279, 0x1385829e1f6f14a2)),
        (
            SvmKernel::Rbf { gamma: 0.5 },
            0.5,
            0.0,
            (2166, 0x075347dac1aba1af),
        ),
    ];
    let cases: Vec<_> = pins
        .into_iter()
        .map(|(kernel, c, epsilon, pin)| {
            let params = SvrParams {
                c,
                epsilon,
                kernel,
                max_iter: 20_000,
                ..SvrParams::paper_speedup()
            };
            let model = train_svr(&data, &params);
            let json = serde_json::to_string(&model).expect("model serializes");
            (
                format!("tie-heavy {kernel:?} C = {c} ε = {epsilon}"),
                json,
                pin,
            )
        })
        .collect();
    assert_pinned(&cases);
}

#[test]
#[ignore = "full corpus at the paper's parameters; run nightly, in release"]
fn full_mode_k20c_artifact_keeps_its_bytes() {
    let json = artifact_json(
        Device::TeslaK20c,
        Corpus::Full,
        gpufreq_synth::TRAINING_SETTINGS,
        ModelConfig::default(),
    );
    assert_pinned(&[(
        "full TeslaK20c".to_string(),
        json,
        (155216, 0x46ffb9bbb418f567),
    )]);
}
