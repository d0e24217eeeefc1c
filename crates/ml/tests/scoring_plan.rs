//! Property pin: the [`ScoringPlan`] line sweep stays within a bounded
//! error of the scalar [`SvrModel::predict`] path, and every lane of a
//! line has exactly the bits of that point scored alone.
//!
//! The plan folds a linear model into primal weights, expands the RBF
//! kernel's squared distance along the line, and evaluates its `exp`
//! in plain arithmetic, so it reassociates the scalar sum; this suite
//! bounds that drift against *random* models (every kernel family,
//! arbitrary support vectors and coefficients via
//! [`SvrModel::from_parts`]) and random lines, not just the trained
//! models the unit tests happen to produce.

use gpufreq_ml::{SvmKernel, SvrModel};
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Random model parts `(support vectors, β, bias)`: `n_sv` support
/// vectors of width `dims`, around the unit cube scaled features live
/// in.
fn random_parts(dims: usize, n_sv: usize, seed: u64) -> (Vec<Vec<f64>>, Vec<f64>, f64) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let support_x: Vec<Vec<f64>> = (0..n_sv)
        .map(|_| (0..dims).map(|_| rng.gen_range(-1.0..2.0)).collect())
        .collect();
    let beta: Vec<f64> = (0..n_sv).map(|_| rng.gen_range(-2.0..2.0)).collect();
    (support_x, beta, rng.gen_range(-1.0..1.0))
}

/// A random line `(origin, dir)` of width `dims`.
fn random_line(dims: usize, seed: u64) -> (Vec<f64>, Vec<f64>) {
    let mut rng = SmallRng::seed_from_u64(seed);
    let origin = (0..dims).map(|_| rng.gen_range(-1.0..2.0)).collect();
    let dir = (0..dims).map(|_| rng.gen_range(-1.0..1.0)).collect();
    (origin, dir)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every lane of `score_line_into` is within 1e-12 of
    /// `SvrModel::predict` at `origin + t·dir`, relative to the
    /// magnitude of the sum (`|bias| + Σ|βᵢ·K|`), for `t` across the
    /// scaled-clock range `[0, 1]` on every kernel family; and every
    /// lane has exactly the bits of the same line scored at its `t`
    /// alone.
    #[test]
    fn plan_is_within_bounded_error_of_predict(
        seed in 0u64..100_000,
        dims in 1usize..36,
        n_sv in 1usize..24,
        n_ts in 1usize..40,
        gamma in 0.01f64..3.0,
        coef0 in -1.0f64..1.0,
    ) {
        let kernels = [
            SvmKernel::Linear,
            SvmKernel::Rbf { gamma },
            SvmKernel::Polynomial { gamma, coef0, degree: 3 },
        ];
        let (origin, dir) = random_line(dims, seed ^ 0x5eed);
        // Both ends of the range, and the points between.
        let ts: Vec<f64> = (0..n_ts)
            .map(|k| k as f64 / (n_ts - 1).max(1) as f64)
            .collect();
        for kernel in kernels {
            let (support_x, beta, bias) = random_parts(dims, n_sv, seed);
            let model = SvrModel::from_parts(kernel, support_x.clone(), beta.clone(), bias);
            let plan = model.scoring_plan();
            let mut out = vec![0.0; ts.len()];
            plan.score_line_into(&origin, &dir, &ts, &mut out);
            for (&t, got) in ts.iter().zip(&out) {
                let x: Vec<f64> = origin.iter().zip(&dir).map(|(o, d)| o + t * d).collect();
                let want = model.predict(&x);
                let magnitude = support_x
                    .iter()
                    .zip(&beta)
                    .fold(bias.abs(), |m, (sv, b)| m + (b * kernel.eval(sv, &x)).abs());
                prop_assert!(
                    (got - want).abs() <= 1e-12 * magnitude,
                    "{:?} at t = {}: {} vs {}", kernel, t, got, want
                );
                let mut single = [0.0];
                plan.score_line_into(&origin, &dir, &[t], &mut single);
                prop_assert_eq!(got.to_bits(), single[0].to_bits());
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
        let mut rng = SmallRng::seed_from_u64(seed ^ 0xb10c);
        let owned: Vec<Vec<f64>> = (0..6)
            .map(|_| (0..dims).map(|_| rng.gen_range(-5.0..5.0)).collect())
            .collect();
        let borrowed: Vec<&[f64]> = owned.iter().map(Vec::as_slice).collect();
        let a = model.predict_batch(&owned);
        let b = model.predict_batch(&borrowed);
        for (x, y) in a.iter().zip(&b) {
            prop_assert_eq!(x.to_bits(), y.to_bits());
        }
    }
}
