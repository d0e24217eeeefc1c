//! Property pin: the batched [`ScoringPlan`] stays within a bounded
//! error of the scalar [`SvrModel::predict`] path, and its block and
//! single-row entry points agree to the bit.
//!
//! The plan folds a linear model into primal weights and evaluates the
//! RBF kernel's `exp` in plain arithmetic, so it reassociates the
//! scalar sum; this suite bounds that drift against *random* models
//! (every kernel family, arbitrary support vectors and coefficients
//! via [`SvrModel::from_parts`]), not just the trained models the unit
//! tests happen to produce.

use gpufreq_ml::{SvmKernel, SvrModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random model parts `(support vectors, β, bias)`: `n_sv` support
/// vectors of width `dims`.
fn random_parts(dims: usize, n_sv: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let support_x: Vec<Vec<f64>> = (0..n_sv)
        .map(|_| (0..dims).map(|_| rng.gen_range(-3.0..3.0)).collect())
        .collect();
    let beta: Vec<f64> = (0..n_sv).map(|_| rng.gen_range(-2.0..2.0)).collect();
    (support_x, beta, rng.gen_range(-1.0..1.0))
}

fn random_rows(dims: usize, n: usize, seed: u64) -> Vec<Vec<f64>> {
    let mut rng = SmallRng::seed_from_u64(seed);
    (0..n)
        .map(|_| (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect())
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// `ScoringPlan::score` is within 1e-12 of `SvrModel::predict`,
    /// relative to the magnitude of the sum (`|bias| + Σ|βᵢ·K|`), on
    /// every kernel family; every row of `score_block_into` has exactly
    /// the bits of `score` on that row.
    #[test]
    fn plan_is_within_bounded_error_of_predict(
        seed in 0u64..100_000,
        dims in 1usize..12,
        n_sv in 1usize..24,
        n_rows in 1usize..40,
        gamma in 0.01f64..3.0,
        coef0 in -1.0f64..1.0,
    ) {
        let kernels = [
            SvmKernel::Linear,
            SvmKernel::Rbf { gamma },
            SvmKernel::Polynomial { gamma, coef0, degree: 3 },
        ];
        for kernel in kernels {
            let (support_x, beta, bias) = random_parts(dims, n_sv, seed);
            let model = SvrModel::from_parts(kernel, support_x.clone(), beta.clone(), bias);
            let plan = model.scoring_plan();
            let rows = random_rows(dims, n_rows, seed ^ 0x5eed);
            let block: Vec<f64> = rows.iter().flatten().copied().collect();
            let mut out = Vec::new();
            plan.score_block_into(&block, &mut out);
            prop_assert_eq!(out.len(), rows.len());
            for (row, got) in rows.iter().zip(&out) {
                let want = model.predict(row);
                let magnitude = support_x
                    .iter()
                    .zip(&beta)
                    .fold(bias.abs(), |m, (sv, b)| m + (b * kernel.eval(sv, row)).abs());
                prop_assert!(
                    (plan.score(row) - want).abs() <= 1e-12 * magnitude,
                    "{:?}: {} vs {}", kernel, plan.score(row), want
                );
                prop_assert_eq!(got.to_bits(), plan.score(row).to_bits());
            }
        }
    }

    /// The generic `predict_batch` gives the same bits for owned and
    /// borrowed row representations.
    #[test]
    fn predict_batch_is_representation_independent(
        seed in 0u64..100_000,
        dims in 1usize..8,
        n_sv in 1usize..16,
    ) {
        let (support_x, beta, bias) = random_parts(dims, n_sv, seed);
        let model = SvrModel::from_parts(SvmKernel::Rbf { gamma: 0.5 }, support_x, beta, bias);
        let owned = random_rows(dims, 6, seed ^ 0xb10c);
        let borrowed: Vec<&[f64]> = owned.iter().map(Vec::as_slice).collect();
        let a = model.predict_batch(&owned);
        let b = model.predict_batch(&borrowed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
