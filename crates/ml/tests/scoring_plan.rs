//! Property pins: the [`ScoringPlan`] line sweep stays within a bounded
//! error of the scalar [`SvrModel::predict`] path, a grid lane stepped
//! along its [`LineGrid`] stays within the same bound of that point
//! scored directly, and every lane of a line has exactly the bits of
//! that point scored alone.
//!
//! The plan folds a linear model into primal weights, expands the RBF
//! kernel's squared distance along the line, steps it along a grid and
//! evaluates its `exp` in plain arithmetic, so it reassociates the
//! scalar sum; this suite bounds that drift against *random* models
//! (both kernel families, arbitrary support vectors and coefficients
//! via [`SvrModel::from_parts`]), random lines and random grids, not
//! just the trained models the unit tests happen to produce.

use gpufreq_ml::{LineGrid, Points, ScoringPlan, SvmKernel, SvrModel};
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

/// A random grid of `n` points in `[0, 1]`: whole-MHz clocks from a
/// random start, each step drawn from up to four step sizes (as the
/// devices' clock lists step), scaled over 135–1189 MHz like the served
/// rows; or, for `mhz = false`, arbitrary ascending reals.
fn random_grid(n: usize, mhz: bool, seed: u64) -> LineGrid {
    let mut rng = SmallRng::seed_from_u64(seed);
    let ts = if mhz {
        let sizes: Vec<u32> = (0..rng.gen_range(1..=4usize))
            .map(|_| rng.gen_range(1..30u32))
            .collect();
        let mut mhz = rng.gen_range(135..400u32);
        (0..n)
            .map(|k| {
                if k > 0 {
                    mhz += sizes[rng.gen_range(0..sizes.len())];
                }
                (f64::from(mhz) - 135.0) / (1189.0 - 135.0)
            })
            .collect()
    } else {
        let mut t = rng.gen_range(0.0..0.1);
        (0..n)
            .map(|_| {
                t += rng.gen_range(1e-4..1.0 / n as f64);
                t
            })
            .collect()
    };
    LineGrid::new(ts)
}

/// `|bias| + Σ|βᵢ·K(svᵢ, x)|`, the scale of a score's rounding error.
fn magnitude(kernel: SvmKernel, support_x: &[Vec<f64>], beta: &[f64], bias: f64, x: &[f64]) -> f64 {
    support_x
        .iter()
        .zip(beta)
        .fold(bias.abs(), |m, (sv, b)| m + (b * kernel.eval(sv, x)).abs())
}

/// `t` scored directly, on its own.
fn direct(plan: &ScoringPlan, origin: &[f64], dir: &[f64], t: f64) -> f64 {
    let mut out = [0.0];
    plan.score_line_into(origin, dir, Points::Free(&[t]), &mut out);
    out[0]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Every lane of `score_line_into` is within 1e-12 of
    /// `SvrModel::predict` at `origin + t·dir`, relative to the
    /// magnitude of the sum (`|bias| + Σ|βᵢ·K|`), for `t` across the
    /// scaled-clock range `[0, 1]` on both kernel families; and every
    /// lane has exactly the bits of the same line scored at its `t`
    /// alone.
    #[test]
    fn plan_is_within_bounded_error_of_predict(
        seed in 0u64..100_000,
        dims in 1usize..36,
        n_sv in 1usize..24,
        n_ts in 1usize..40,
        gamma in 0.01f64..3.0,
    ) {
        let kernels = [SvmKernel::Linear, SvmKernel::Rbf { gamma }];
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
            plan.score_line_into(&origin, &dir, Points::Free(&ts), &mut out);
            for (&t, got) in ts.iter().zip(&out) {
                let x: Vec<f64> = origin.iter().zip(&dir).map(|(o, d)| o + t * d).collect();
                let want = model.predict(&x);
                let magnitude = magnitude(kernel, &support_x, &beta, bias, &x);
                prop_assert!(
                    (got - want).abs() <= 1e-12 * magnitude,
                    "{:?} at t = {}: {} vs {}", kernel, t, got, want
                );
                prop_assert_eq!(got.to_bits(), direct(&plan, &origin, &dir, t).to_bits());
            }
        }
    }

    /// Over random lines and random grids of 1–80 points, every lane
    /// scored on the grid — stepped where the grid and the guard allow —
    /// is within 1e-12 of that point scored directly, relative to
    /// `|bias| + Σ|βᵢ·Kᵢ|`; and a lane has exactly the bits of its
    /// index scored alone.
    #[test]
    fn grid_lanes_are_within_bounded_error_of_direct(
        seed in 0u64..100_000,
        dims in 1usize..36,
        n_sv in 1usize..40,
        n in 1usize..=80,
        kind in 0u32..5,
        gamma in 0.01f64..3.0,
    ) {
        let kernel = SvmKernel::Rbf { gamma };
        let (origin, dir) = random_line(dims, seed ^ 0x11e);
        // Four in five grids step in whole MHz.
        let grid = random_grid(n, kind > 0, seed ^ 0x9a1d);
        let (support_x, beta, bias) = random_parts(dims, n_sv, seed);
        let model = SvrModel::from_parts(kernel, support_x.clone(), beta.clone(), bias);
        let plan = model.scoring_plan();
        // Every index, last first, so no lane sits at its own index.
        let at: Vec<usize> = (0..n).rev().collect();
        let mut out = vec![0.0; n];
        plan.score_line_into(&origin, &dir, Points::Grid(&grid, &at), &mut out);
        for (&k, &got) in at.iter().zip(&out) {
            let t = grid.ts()[k];
            let x: Vec<f64> = origin.iter().zip(&dir).map(|(o, d)| o + t * d).collect();
            let want = direct(&plan, &origin, &dir, t);
            let magnitude = magnitude(kernel, &support_x, &beta, bias, &x);
            prop_assert!(
                (got - want).abs() <= 1e-12 * magnitude,
                "t = {} (index {} of {}): {} vs direct {}", t, k, n, got, want
            );
            let mut alone = [0.0];
            plan.score_line_into(&origin, &dir, Points::Grid(&grid, &[k]), &mut alone);
            prop_assert_eq!(got.to_bits(), alone[0].to_bits());
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

/// A line far outside the unit cube the support vectors live in — the
/// rows of a kernel whose features lie far outside the scaler's
/// `lo`/`hi` — trips the guard: its lanes are finite and have exactly
/// the bits of each point scored directly.
#[test]
fn guarded_lines_score_as_the_direct_lanes() {
    let (dims, n) = (12, 71);
    let (support_x, beta, bias) = random_parts(dims, 37, 3);
    let plan =
        SvrModel::from_parts(SvmKernel::Rbf { gamma: 0.1 }, support_x, beta, bias).scoring_plan();
    let grid = random_grid(n, true, 5);
    assert!(grid.is_stepped());
    let (near, dir) = random_line(dims, 7);
    let far: Vec<f64> = near.iter().map(|v| v * 1e3).collect();
    let steep: Vec<f64> = dir.iter().map(|v| v * 1e3).collect();
    // The anchor exponent far below −600; then, with the anchor near
    // the support vectors, `|u|·span` and `γ·R·span²` far above 600.
    for (origin, dir) in [(&far, &dir), (&near, &steep)] {
        let at: Vec<usize> = (0..n).collect();
        let mut out = vec![0.0; n];
        plan.score_line_into(origin, dir, Points::Grid(&grid, &at), &mut out);
        for (&t, got) in grid.ts().iter().zip(&out) {
            assert!(got.is_finite());
            assert_eq!(got.to_bits(), direct(&plan, origin, dir, t).to_bits());
        }
    }
}
