//! Property-based tests on the core invariants, spanning crates.

use gpufreq::prelude::*;
use gpufreq_kernel::{AnalysisConfig, KernelProfile};
use gpufreq_ml::MinMaxScaler;
use gpufreq_pareto::{
    hypervolume, pareto_set_fast, pareto_set_simple, Objectives, PAPER_REFERENCE,
};
use gpufreq_sim::{execution_time, KernelDemand};
use proptest::prelude::*;

proptest! {
    /// The lexer/parser never panic, whatever bytes arrive.
    #[test]
    fn parser_never_panics(src in "\\PC*") {
        let _ = parse(&src);
    }

    /// Parsing a syntactically plausible kernel skeleton never panics
    /// either (deeper grammar coverage than pure noise).
    #[test]
    fn parser_never_panics_on_kernel_shaped_input(
        body in "[a-z0-9 +*/=;()\\[\\]{}.<>&|-]{0,200}"
    ) {
        let src = format!("__kernel void k(__global float* x) {{ {body} }}");
        let _ = parse(&src);
    }

    /// Algorithm 1 and the O(n log n) front return the same index
    /// list. Coordinates come from a coarse grid, so ties and exact
    /// duplicates are common, mixed with NaN, ±∞ and -0.0.
    #[test]
    fn pareto_algorithms_agree(
        points in prop::collection::vec((0u8..20, 0u8..20), 0..60)
    ) {
        let coordinate = |k: u8| match k {
            16 => f64::NAN,
            17 => f64::INFINITY,
            18 => f64::NEG_INFINITY,
            19 => -0.0,
            k => f64::from(k) / 8.0,
        };
        let objs: Vec<Objectives> = points
            .iter()
            .map(|&(s, e)| Objectives::new(coordinate(s), coordinate(e)))
            .collect();
        prop_assert_eq!(pareto_set_fast(&objs), pareto_set_simple(&objs));
    }

    /// Every front is mutually non-dominating and dominates-or-equals
    /// every input point.
    #[test]
    fn front_dominates_input(
        points in prop::collection::vec((0.01f64..2.0, 0.01f64..2.0), 1..60)
    ) {
        let objs: Vec<Objectives> =
            points.iter().map(|&(s, e)| Objectives::new(s, e)).collect();
        let front: Vec<Objectives> =
            pareto_set_simple(&objs).into_iter().map(|i| objs[i]).collect();
        prop_assert!(!front.is_empty());
        for f in &front {
            for g in &front {
                prop_assert!(!f.dominates(g));
            }
        }
        for p in &objs {
            prop_assert!(
                front.iter().any(|f| f.dominates(p) || f == p),
                "point {p:?} neither dominated nor on the front"
            );
        }
    }

    /// Hypervolume never decreases when a point is added.
    #[test]
    fn hypervolume_monotone(
        points in prop::collection::vec((0.01f64..1.9, 0.01f64..1.9), 1..30),
        extra in (0.01f64..1.9, 0.01f64..1.9)
    ) {
        let mut objs: Vec<Objectives> =
            points.iter().map(|&(s, e)| Objectives::new(s, e)).collect();
        let before = hypervolume(&objs, PAPER_REFERENCE);
        objs.push(Objectives::new(extra.0, extra.1));
        let after = hypervolume(&objs, PAPER_REFERENCE);
        prop_assert!(after + 1e-12 >= before);
    }

    /// Min-max scaling maps training rows into the unit cube and
    /// inverts exactly.
    #[test]
    fn scaler_round_trips(
        rows in prop::collection::vec(
            prop::collection::vec(-1e3f64..1e3, 4),
            2..40
        )
    ) {
        let scaler = MinMaxScaler::fit(&rows);
        for row in &rows {
            let t = scaler.transform(row);
            for v in &t {
                prop_assert!((-1e-9..=1.0 + 1e-9).contains(v), "scaled value {v}");
            }
            let back = scaler.inverse(&t);
            for (a, b) in row.iter().zip(&back) {
                prop_assert!((a - b).abs() < 1e-6 * (1.0 + a.abs()));
            }
        }
    }

    /// Simulator sanity over arbitrary instruction mixes: execution
    /// time is positive and non-increasing in the core clock.
    #[test]
    fn sim_time_monotone_in_core_clock(
        int_ops in 0u32..64,
        float_ops in 0u32..64,
        sf_ops in 0u32..16,
        loads in 1u32..16,
    ) {
        let mut body = String::new();
        for k in 0..int_ops { body.push_str(&format!("    v = v + {};\n", k % 5 + 1)); }
        for _ in 0..float_ops { body.push_str("    f = f * 1.01f;\n"); }
        for _ in 0..sf_ops { body.push_str("    f = sin(f);\n"); }
        for k in 0..loads { body.push_str(&format!("    f = f + x[(i + {k}u) & 1023u];\n")); }
        let src = format!(
            "__kernel void k(__global float* x) {{
                uint i = get_global_id(0);
                float f = x[i & 1023u];
                int v = (int)i;
                {body}
                x[i & 1023u] = f + (float)v;
            }}"
        );
        let program = parse(&src).unwrap();
        let profile = KernelProfile::from_kernel(
            program.first_kernel().unwrap(),
            &AnalysisConfig::default(),
            LaunchConfig::new(1 << 18, 256),
        ).unwrap();
        let sim = GpuSimulator::titan_x();
        let demand = KernelDemand::from_profile(sim.spec(), &profile);
        let mut prev = f64::INFINITY;
        for cfg in sim.spec().clocks.actual_configs_for(3505) {
            let t = execution_time(sim.spec(), &demand, cfg);
            prop_assert!(t.total_s > 0.0);
            prop_assert!(t.total_s <= prev * (1.0 + 1e-12));
            prev = t.total_s;
        }
    }

    /// Static features of any generated straight-line kernel are a
    /// valid sub-distribution (non-negative, summing to at most 1).
    #[test]
    fn features_form_subdistribution(
        float_ops in 0u32..32,
        int_ops in 0u32..32,
    ) {
        let mut body = String::new();
        for _ in 0..float_ops { body.push_str("    f = f + 0.5f;\n"); }
        for _ in 0..int_ops { body.push_str("    v = v * 3;\n"); }
        let src = format!(
            "__kernel void k(__global float* x) {{
                uint i = get_global_id(0);
                float f = x[i];
                int v = (int)i;
                {body}
                x[i] = f + (float)v;
            }}"
        );
        let program = parse(&src).unwrap();
        let analysis = analyze_kernel(program.first_kernel().unwrap()).unwrap();
        let features = StaticFeatures::from_analysis(&analysis);
        for v in features.values() {
            prop_assert!(*v >= 0.0);
        }
        prop_assert!(features.sum() <= 1.0 + 1e-12);
        prop_assert!(features.sum() > 0.0);
    }

    /// Measurements normalize consistently: speedup and normalized
    /// energy at the default configuration are exactly 1.
    #[test]
    fn baseline_normalization_invariant(seed in 0usize..12) {
        let w = &all_workloads()[seed];
        let sim = GpuSimulator::titan_x();
        let c = sim.characterize_at(&w.profile(), &[sim.spec().clocks.default]);
        prop_assert!((c.points[0].speedup - 1.0).abs() < 1e-12);
        prop_assert!((c.points[0].norm_energy - 1.0).abs() < 1e-12);
    }
}
