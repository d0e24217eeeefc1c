//! Evaluation machinery (§4): ground-truth sweeps, per-memory-domain
//! error analysis (Figs. 6–7), Pareto-front comparison (Fig. 8) and the
//! Table 2 metrics.

use crate::engine::Engine;
use crate::model::{FreqScalingModel, ModelScorer};
use crate::predict::{ParetoPrediction, MEM_L_MHZ};
use gpufreq_kernel::{FreqConfig, StaticFeatures};
use gpufreq_ml::{rmse_percent, BoxStats};
use gpufreq_pareto::{
    extreme_point_distances, paper_coverage_difference, pareto_front_simple, ExtremeDistance,
    Objectives,
};
use gpufreq_sim::{Characterization, GpuSimulator};
use gpufreq_workloads::Workload;
use serde::{Deserialize, Serialize};

/// Which objective an error analysis measures.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Objective {
    /// Speedup over the default configuration.
    Speedup,
    /// Normalized energy.
    Energy,
}

/// Complete evaluation artifacts for one test benchmark.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkEvaluation {
    /// Machine name (`"knn"`).
    pub name: String,
    /// Paper display name (`"k-NN"`).
    pub display_name: String,
    /// Static features the model saw.
    pub features: StaticFeatures,
    /// Measured sweep over every actual configuration.
    pub ground_truth: Characterization,
    /// Model predictions and predicted Pareto set.
    pub prediction: ParetoPrediction,
    /// The *measured* Pareto front over all configurations (including
    /// mem-L — the green points of Fig. 8).
    pub real_front: Vec<Objectives>,
    /// Measured objectives of the predicted-Pareto configurations (the
    /// red crosses of Fig. 8).
    pub predicted_measured: Vec<Objectives>,
    /// Binary hypervolume coverage difference `D(P*, P′)` (Table 2).
    pub coverage_d: f64,
    /// Distance between true and predicted max-speedup points.
    pub extreme_max_speedup: ExtremeDistance,
    /// Distance between true and predicted min-energy points.
    pub extreme_min_energy: ExtremeDistance,
}

impl BenchmarkEvaluation {
    /// Measured objectives at `config`, if it was swept.
    pub fn measured_at(&self, config: FreqConfig) -> Option<Objectives> {
        self.ground_truth
            .points
            .iter()
            .find(|p| p.config() == config)
            .map(|p| Objectives::new(p.speedup, p.norm_energy))
    }

    /// Whether the predicted set contains at least one configuration
    /// that (measured) strictly Pareto-dominates the default
    /// configuration. On hardware whose default sits off the front
    /// (Fig. 1c) this is common; on a device where the default is
    /// well-placed it can legitimately be empty — see
    /// [`BenchmarkEvaluation::offers_trade_off`] for the weaker,
    /// always-meaningful notion.
    pub fn improves_on_default(&self) -> bool {
        let default = Objectives::new(1.0, 1.0);
        self.predicted_measured
            .iter()
            .any(|p| p.dominates(&default))
    }

    /// The paper's headline phrased operationally: the predicted set
    /// "dominates the default configuration in either energy or
    /// performance" — some configuration is strictly better in one
    /// objective while giving up at most `tolerance` (relative) in the
    /// other. E.g. `offers_trade_off(0.05)` asks for ≥5% energy savings
    /// within 5% of default speed, or vice versa.
    pub fn offers_trade_off(&self, tolerance: f64) -> bool {
        self.predicted_measured.iter().any(|p| {
            (p.energy < 1.0 - tolerance && p.speedup >= 1.0 - tolerance)
                || (p.speedup > 1.0 + tolerance && p.energy <= 1.0 + tolerance)
        })
    }
}

/// Number of sampled settings the evaluation measures and predicts at —
/// the paper's ground truth "has been evaluated on a subset of sampled
/// configurations" (§4.5), the same 40-setting sample the training
/// phase uses.
pub const EVAL_SETTINGS: usize = 40;

/// Evaluate one workload end to end: sweep the ground truth at the
/// sampled settings, run the prediction phase at the same settings, and
/// score it.
pub fn evaluate_workload(
    sim: &GpuSimulator,
    model: &FreqScalingModel,
    workload: &Workload,
) -> BenchmarkEvaluation {
    evaluate_workload_scored(sim, &model.scorer(&sim.spec().clocks), workload)
}

/// [`evaluate_workload`] with a prebuilt [`ModelScorer`], so a batch of
/// evaluations against one model shares a single scoring plan — the
/// same batched code path the serve daemon predicts through.
pub fn evaluate_workload_scored(
    sim: &GpuSimulator,
    scorer: &ModelScorer,
    workload: &Workload,
) -> BenchmarkEvaluation {
    let profile = workload.profile();
    let features = profile.static_features();
    let mut candidates = sim.spec().clocks.sample_configs(EVAL_SETTINGS);
    // The baseline must be part of the measured set.
    let default = sim.spec().clocks.default;
    if !candidates.contains(&default) {
        candidates.push(default);
    }
    let ground_truth = sim.characterize_at(&profile, &candidates);
    let prediction =
        crate::predict::predict_pareto_scored(scorer, &features, &sim.spec().clocks, &candidates);

    // Measured objective space (Fig. 8 gray + green points).
    let measured: Vec<Objectives> = ground_truth
        .points
        .iter()
        .map(|p| Objectives::new(p.speedup, p.norm_energy))
        .collect();
    let real_front = pareto_front_simple(&measured);

    // The red crosses: predicted configurations at their measured values.
    let predicted_measured: Vec<Objectives> = prediction
        .pareto_set
        .iter()
        .filter_map(|p| {
            ground_truth
                .points
                .iter()
                .find(|m| m.config() == p.config)
                .map(|m| Objectives::new(m.speedup, m.norm_energy))
        })
        .collect();

    let coverage_d = paper_coverage_difference(&real_front, &predicted_measured);

    // Extreme-point analysis excludes mem-L on both sides (§4.5).
    let real_no_mem_l: Vec<Objectives> = ground_truth
        .points
        .iter()
        .filter(|p| p.config().mem_mhz > MEM_L_MHZ)
        .map(|p| Objectives::new(p.speedup, p.norm_energy))
        .collect();
    let real_front_no_mem_l = pareto_front_simple(&real_no_mem_l);
    let predicted_no_heuristic: Vec<Objectives> = prediction
        .pareto_set
        .iter()
        .filter(|p| !p.heuristic)
        .filter_map(|p| {
            ground_truth
                .points
                .iter()
                .find(|m| m.config() == p.config)
                .map(|m| Objectives::new(m.speedup, m.norm_energy))
        })
        .collect();
    let (extreme_max_speedup, extreme_min_energy) =
        extreme_point_distances(&real_front_no_mem_l, &predicted_no_heuristic)
            .unwrap_or((zero_distance(), zero_distance()));

    BenchmarkEvaluation {
        name: workload.name.to_string(),
        display_name: workload.display_name.to_string(),
        features,
        ground_truth,
        prediction,
        real_front,
        predicted_measured,
        coverage_d,
        extreme_max_speedup,
        extreme_min_energy,
    }
}

fn zero_distance() -> ExtremeDistance {
    ExtremeDistance {
        d_speedup: 0.0,
        d_energy: 0.0,
    }
}

/// Evaluate a set of workloads and sort by coverage difference, the
/// order Table 2 uses.
pub fn evaluate_all(
    sim: &GpuSimulator,
    model: &FreqScalingModel,
    workloads: &[Workload],
) -> Vec<BenchmarkEvaluation> {
    evaluate_all_with(&Engine::default(), sim, model, workloads)
}

/// [`evaluate_all`] with the per-workload evaluations (ground-truth
/// sweep + prediction + scoring) fanned out over `engine`.
///
/// Evaluations come back in workload order before the stable
/// coverage-difference sort, so ties break identically for every
/// worker count and the resulting Table 2 is bit-identical to a serial
/// run (pinned by `tests/determinism.rs`). The sweeps inside each
/// evaluation are pinned to one thread when the engine fans out
/// ([`Engine::inner`]).
pub fn evaluate_all_with(
    engine: &Engine,
    sim: &GpuSimulator,
    model: &FreqScalingModel,
    workloads: &[Workload],
) -> Vec<BenchmarkEvaluation> {
    let inner_sim = sim.clone().with_jobs(engine.inner(workloads.len()).jobs());
    // One scoring plan shared by every worker (read-only).
    let scorer = model.scorer(&sim.spec().clocks);
    let mut evals: Vec<BenchmarkEvaluation> = engine.map(workloads, |w| {
        evaluate_workload_scored(&inner_sim, &scorer, w)
    });
    evals.sort_by(|a, b| a.coverage_d.total_cmp(&b.coverage_d));
    evals
}

/// Per-benchmark box-plot statistics of signed percentage errors.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BenchmarkErrors {
    /// Benchmark display name.
    pub name: String,
    /// Five-number summary of the signed percent errors.
    pub stats: BoxStats,
}

/// The error analysis for one memory domain: the content of one panel
/// of Fig. 6 / Fig. 7.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DomainErrorAnalysis {
    /// Memory clock of this domain in MHz.
    pub mem_mhz: u32,
    /// Paper label (`Mem_H`, ...).
    pub label: String,
    /// Per-benchmark error distributions.
    pub per_benchmark: Vec<BenchmarkErrors>,
    /// Pooled RMSE of the percentage errors across all benchmarks
    /// (the "RMSE = 6.68%" caption).
    pub rmse_percent: f64,
}

/// Per-memory-domain prediction-error analysis over all evaluated
/// benchmarks (Fig. 6 for speedup, Fig. 7 for normalized energy).
///
/// Every actual configuration of every domain is scored — including
/// mem-L, which the Pareto phase refuses to model; its large errors
/// here are exactly the paper's justification for the heuristic.
pub fn error_analysis(
    sim: &GpuSimulator,
    model: &FreqScalingModel,
    evals: &[BenchmarkEvaluation],
    objective: Objective,
) -> Vec<DomainErrorAnalysis> {
    let clocks = &sim.spec().clocks;
    // One scoring plan for the whole analysis (every domain × eval ×
    // config cell scores through it).
    let scorer = model.scorer(clocks);
    let mut out = Vec::new();
    // Highest memory first, matching the figure layout.
    for mem_mhz in clocks.supported_memory_clocks().into_iter().rev() {
        let configs = clocks.actual_configs_for(mem_mhz);
        let mut per_benchmark = Vec::new();
        let mut pooled_truth = Vec::new();
        let mut pooled_pred = Vec::new();
        for eval in evals {
            let mut truth = Vec::with_capacity(configs.len());
            let mut pred = Vec::with_capacity(configs.len());
            for &cfg in &configs {
                let Some(measured) = eval.measured_at(cfg) else {
                    continue;
                };
                let predicted = scorer.predict_objectives(&eval.features, cfg);
                let (t, p) = match objective {
                    Objective::Speedup => (measured.speedup, predicted.speedup),
                    Objective::Energy => (measured.energy, predicted.energy),
                };
                truth.push(t);
                pred.push(p);
            }
            if truth.is_empty() {
                continue;
            }
            let errors = gpufreq_ml::percent_errors(&truth, &pred);
            per_benchmark.push(BenchmarkErrors {
                name: eval.display_name.clone(),
                stats: BoxStats::from_values(&errors),
            });
            pooled_truth.extend(truth);
            pooled_pred.extend(pred);
        }
        let rmse = if pooled_truth.is_empty() {
            0.0
        } else {
            rmse_percent(&pooled_truth, &pooled_pred)
        };
        out.push(DomainErrorAnalysis {
            mem_mhz,
            label: domain_label(mem_mhz),
            per_benchmark,
            rmse_percent: rmse,
        });
    }
    out
}

fn domain_label(mem_mhz: u32) -> String {
    match mem_mhz {
        3505 => "Mem_H".to_string(),
        3304 => "Mem_h".to_string(),
        810 => "Mem_l".to_string(),
        405 => "Mem_L".to_string(),
        other => format!("Mem_{other}"),
    }
}

/// One row of Table 2.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table2Row {
    /// Benchmark display name.
    pub benchmark: String,
    /// Coverage difference `D(P*, P′)`.
    pub coverage_d: f64,
    /// `|P′|` — size of the predicted Pareto set.
    pub predicted_points: usize,
    /// `|P*|` — size of the real Pareto set.
    pub real_points: usize,
    /// Extreme-point distance at maximum speedup.
    pub max_speedup_dist: ExtremeDistance,
    /// Extreme-point distance at minimum energy.
    pub min_energy_dist: ExtremeDistance,
}

/// Assemble Table 2 from a set of evaluations (already sorted if they
/// came from [`evaluate_all`]).
pub fn table2(evals: &[BenchmarkEvaluation]) -> Vec<Table2Row> {
    evals
        .iter()
        .map(|e| Table2Row {
            benchmark: e.display_name.clone(),
            coverage_d: e.coverage_d,
            predicted_points: e.prediction.pareto_set.len(),
            real_points: e.real_front.len(),
            max_speedup_dist: e.extreme_max_speedup,
            min_energy_dist: e.extreme_min_energy,
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::ModelConfig;
    use crate::pipeline::build_training_data;
    use gpufreq_ml::{SvmKernel, SvrParams};

    fn fast_config() -> ModelConfig {
        ModelConfig {
            speedup: SvrParams {
                c: 10.0,
                ..SvrParams::paper_speedup()
            },
            energy: SvrParams {
                c: 10.0,
                kernel: SvmKernel::Rbf { gamma: 1.0 },
                ..SvrParams::paper_energy()
            },
        }
    }

    fn setup() -> (GpuSimulator, FreqScalingModel) {
        let sim = GpuSimulator::titan_x();
        let benches: Vec<_> = gpufreq_synth::generate_all()
            .into_iter()
            .step_by(7)
            .collect();
        let data = build_training_data(&sim, &benches, 12);
        let model = FreqScalingModel::train(&data, &fast_config());
        (sim, model)
    }

    #[test]
    fn evaluation_artifacts_are_consistent() {
        let (sim, model) = setup();
        let w = gpufreq_workloads::workload("knn").unwrap();
        let eval = evaluate_workload(&sim, &model, &w);
        // 40 sampled settings plus the default baseline.
        assert!(eval.ground_truth.points.len() >= EVAL_SETTINGS);
        assert!(!eval.real_front.is_empty());
        assert_eq!(
            eval.predicted_measured.len(),
            eval.prediction.pareto_set.len()
        );
        assert!(eval.coverage_d >= 0.0);
        // The real front is mutually non-dominating.
        for a in &eval.real_front {
            for b in &eval.real_front {
                assert!(!a.dominates(b));
            }
        }
    }

    #[test]
    fn error_analysis_has_four_domains() {
        let (sim, model) = setup();
        let evals: Vec<_> = ["knn", "mt"]
            .iter()
            .map(|n| evaluate_workload(&sim, &model, &gpufreq_workloads::workload(n).unwrap()))
            .collect();
        let analysis = error_analysis(&sim, &model, &evals, Objective::Speedup);
        assert_eq!(analysis.len(), 4);
        assert_eq!(analysis[0].label, "Mem_H");
        assert_eq!(analysis[3].label, "Mem_L");
        for domain in &analysis {
            assert_eq!(domain.per_benchmark.len(), 2);
            assert!(domain.rmse_percent.is_finite());
        }
    }

    #[test]
    fn table2_rows_match_evaluations() {
        let (sim, model) = setup();
        let ws: Vec<_> = ["knn", "blackscholes"]
            .iter()
            .map(|n| gpufreq_workloads::workload(n).unwrap())
            .collect();
        let evals = evaluate_all(&sim, &model, &ws);
        let rows = table2(&evals);
        assert_eq!(rows.len(), 2);
        // Sorted by coverage difference ascending.
        assert!(rows[0].coverage_d <= rows[1].coverage_d);
        for r in &rows {
            assert!(r.predicted_points > 0);
            assert!(r.real_points > 0);
        }
    }

    #[test]
    fn measured_at_finds_default() {
        let (sim, model) = setup();
        let w = gpufreq_workloads::workload("aes").unwrap();
        let eval = evaluate_workload(&sim, &model, &w);
        let at_default = eval.measured_at(sim.spec().clocks.default).unwrap();
        assert!((at_default.speedup - 1.0).abs() < 1e-9);
        assert!((at_default.energy - 1.0).abs() < 1e-9);
    }
}
