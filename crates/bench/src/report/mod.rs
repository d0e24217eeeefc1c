//! The reproduction-report subsystem behind `gpufreq report`.
//!
//! Turns the figure/table pipelines into one self-documenting
//! deliverable: a `REPRODUCTION.md` (plus `reproduction.json` for CI
//! trend tracking) that states, per figure and table of
//! conf_icpp_FanCJ19, the paper's published value, the reproduced
//! value, the relative error and a pass/warn/FAIL tier — with a
//! provenance header recording exactly what was run.
//!
//! * [`reference`](mod@reference) — the paper's numbers as typed,
//!   cited constants;
//! * [`metrics`] — delta computation and tier grading;
//! * [`render`] — Markdown / JSON / plain-text rendering;
//! * [`generate`] — run the pipeline (fast: the golden reduced
//!   corpus; full: the paper parameters) and assemble the [`Report`].
//!
//! Each figure and table has its own per-section builder here
//! ([`section_fig6`], [`section_table2`], …); [`generate`] runs the
//! pipeline once and feeds every builder from it.
//!
//! The `--fast` report is checked in at the repository root and
//! golden-tested (`crates/bench/tests/report_golden.rs`): regenerate
//! with `GPUFREQ_BLESS=1` after an intentional change. Output is
//! byte-identical for every worker count — the [`Engine`] merges in
//! input order — which `tests/determinism.rs` pins.

pub mod metrics;
pub mod reference;
pub mod render;

use crate::{golden_config, GOLDEN_SETTINGS};
use gpufreq_core::{
    build_training_data_with, error_analysis, evaluate_all_with, table2, BenchmarkEvaluation,
    DomainErrorAnalysis, Engine, FreqScalingModel, ModelConfig, Objective, Result, Table2Row,
    MODEL_FORMAT_VERSION,
};
use gpufreq_sim::{Characterization, Device, GpuSimulator};
use gpufreq_workloads::Workload;
use metrics::{MetricCheck, Tier};
use reference as paper;
use serde::{Deserialize, Serialize};
use std::fmt::Write as _;

/// How `generate` runs the pipelines.
#[derive(Debug, Clone, Default)]
pub struct ReportOptions {
    /// `true`: paper parameters (106 micro-benchmarks × 40 settings,
    /// `C = 1000`); `false`: the pinned golden fast pipeline (every
    /// third micro-benchmark, 8 settings, relaxed solver).
    pub full: bool,
    /// Engine worker count (`None` = all cores). Output is
    /// byte-identical for every value; only wall-clock changes.
    pub jobs: Option<usize>,
    /// Git revision recorded in the provenance header (the CLI passes
    /// `GPUFREQ_GIT_REV` through); `None` renders as unset.
    pub git_revision: Option<String>,
}

/// What was run to produce a report — the header that makes two
/// reports comparable.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Provenance {
    /// `"fast"` or `"full"`.
    pub mode: String,
    /// Device registry ids the workspace knows.
    pub devices: Vec<String>,
    /// Training corpus description.
    pub corpus: String,
    /// Sampled frequency settings per micro-benchmark.
    pub settings: usize,
    /// SVR hyper-parameter preset description.
    pub model_config: String,
    /// `ModelArtifact` format version of this build.
    pub model_format_version: u32,
    /// Number of evaluation workloads.
    pub workloads: usize,
    /// Git revision (`GPUFREQ_GIT_REV`), or a note that it was unset.
    pub git_revision: String,
    /// Scheduling note: why worker count never changes the bytes.
    pub engine: String,
    /// Prediction-path note: how candidate configurations are scored
    /// and why the batched form cannot change any reported number.
    pub scoring: String,
}

/// A supplementary table of reproduced values inside a section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DetailTable {
    /// Table caption.
    pub title: String,
    /// Column headers.
    pub header: Vec<String>,
    /// Body rows (same arity as `header`).
    pub rows: Vec<Vec<String>>,
}

/// One figure/table of the paper, scored.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Section {
    /// Stable id (`"fig6"`).
    pub id: String,
    /// Heading (`"Fig. 6 — prediction error of the speedup model"`).
    pub title: String,
    /// Where the paper presents it.
    pub citation: String,
    /// Prose summary of what was reproduced and how it compares.
    pub narrative: String,
    /// The scored paper-vs-repro checks.
    pub metrics: Vec<MetricCheck>,
    /// Reproduced-value tables (no paper counterpart per cell).
    pub details: Vec<DetailTable>,
}

impl Section {
    /// `(pass, warn, fail)` counts over this section's metrics.
    pub fn score(&self) -> (usize, usize, usize) {
        let count = |t: Tier| self.metrics.iter().filter(|m| m.tier == t).count();
        (count(Tier::Pass), count(Tier::Warn), count(Tier::Fail))
    }
}

/// Scoreboard line for one section.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SectionScore {
    /// Section id.
    pub id: String,
    /// Section citation.
    pub citation: String,
    /// Metrics graded pass.
    pub pass: usize,
    /// Metrics graded warn.
    pub warn: usize,
    /// Metrics graded fail.
    pub fail: usize,
}

/// The report-wide scoreboard.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Summary {
    /// Total metrics graded pass.
    pub pass: usize,
    /// Total metrics graded warn.
    pub warn: usize,
    /// Total metrics graded fail.
    pub fail: usize,
    /// Per-section breakdown, in section order.
    pub sections: Vec<SectionScore>,
}

/// Bibliographic header of the reproduced paper (serializable copy of
/// [`reference::PaperMeta`]).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PaperInfo {
    /// Corpus key.
    pub key: String,
    /// Title.
    pub title: String,
    /// Authors.
    pub authors: String,
    /// Venue.
    pub venue: String,
    /// DOI.
    pub doi: String,
}

impl PaperInfo {
    fn current() -> PaperInfo {
        PaperInfo {
            key: paper::PAPER.key.to_string(),
            title: paper::PAPER.title.to_string(),
            authors: paper::PAPER.authors.to_string(),
            venue: paper::PAPER.venue.to_string(),
            doi: paper::PAPER.doi.to_string(),
        }
    }
}

/// A complete reproduction report.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Report {
    /// The reproduced paper.
    pub paper: PaperInfo,
    /// What was run.
    pub provenance: Provenance,
    /// Scored sections, in paper order.
    pub sections: Vec<Section>,
    /// The scoreboard.
    pub summary: Summary,
}

impl Report {
    /// Look up a metric anywhere in the report by its stable id.
    pub fn metric(&self, id: &str) -> Option<&MetricCheck> {
        self.sections
            .iter()
            .flat_map(|s| s.metrics.iter())
            .find(|m| m.id == id)
    }
}

fn summarize(sections: &[Section]) -> Summary {
    let scores: Vec<SectionScore> = sections
        .iter()
        .map(|s| {
            let (pass, warn, fail) = s.score();
            SectionScore {
                id: s.id.clone(),
                citation: s.citation.clone(),
                pass,
                warn,
                fail,
            }
        })
        .collect();
    Summary {
        pass: scores.iter().map(|s| s.pass).sum(),
        warn: scores.iter().map(|s| s.warn).sum(),
        fail: scores.iter().map(|s| s.fail).sum(),
        sections: scores,
    }
}

/// Speedup spread across the high-memory configurations — Fig. 5's
/// compute/memory discriminator.
///
/// "High-memory" is derived from the characterization itself: domains
/// running at more than half the highest swept memory clock. On the
/// Titan X that selects mem-H and mem-h (3505/3304 MHz, the paper's
/// top rows) and excludes mem-l/mem-L; on a single-domain device like
/// the P100 every point qualifies instead of none.
fn high_mem_speedup_spread(characterization: &Characterization) -> f64 {
    let Some(top_mem) = characterization
        .points
        .iter()
        .map(|p| p.config().mem_mhz)
        .max()
    else {
        return 0.0;
    };
    let (lo, hi) = characterization
        .points
        .iter()
        .filter(|p| 2 * p.config().mem_mhz > top_mem)
        .map(|p| p.speedup)
        .fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), v| {
            (lo.min(v), hi.max(v))
        });
    if lo.is_finite() {
        hi - lo
    } else {
        0.0
    }
}

/// Fig. 1 — the motivational frequency-scaling character of k-NN
/// (compute-dominated) and MT (memory-dominated).
pub fn section_fig1(knn: &Characterization, mt: &Characterization) -> Section {
    let knn_spread = high_mem_speedup_spread(knn);
    let mt_spread = high_mem_speedup_spread(mt);
    // Energy parabola: at the highest memory clock, the minimum-energy
    // core clock sits strictly inside the swept range.
    let top_mem = knn
        .points
        .iter()
        .map(|p| p.config().mem_mhz)
        .max()
        .unwrap_or(0);
    let mem_h: Vec<_> = knn
        .points
        .iter()
        .filter(|p| p.config().mem_mhz == top_mem)
        .collect();
    let min_core = mem_h.iter().map(|p| p.config().core_mhz).min().unwrap_or(0);
    let max_core = mem_h.iter().map(|p| p.config().core_mhz).max().unwrap_or(0);
    let min_energy_core = mem_h
        .iter()
        .min_by(|a, b| a.norm_energy.total_cmp(&b.norm_energy))
        .map(|p| p.config().core_mhz)
        .unwrap_or(0);
    let interior = min_energy_core > min_core && min_energy_core < max_core;
    let threshold = paper::COMPUTE_DOMINATED_SPREAD;
    Section {
        id: "fig1".to_string(),
        title: "Fig. 1 — why frequency scaling is worth predicting".to_string(),
        citation: "§1.1, Fig. 1".to_string(),
        narrative: format!(
            "k-NN and MT swept over every configuration: k-NN's speedup spreads {knn_spread:.3} \
             across the high-memory configurations (scales with the core clock) while MT's \
             spreads only {mt_spread:.3} (flat); k-NN's minimum-energy core clock at the \
             {top_mem} MHz memory domain is {min_energy_core} MHz, strictly inside \
             [{min_core}, {max_core}] MHz — the paper's parabola with an interior minimum."
        ),
        metrics: vec![
            MetricCheck::qualitative(
                "fig1.knn_core_scaling",
                &format!("k-NN speedup scales with the core clock (spread > {threshold})"),
                "§1.1, Fig. 1a",
                knn_spread > threshold,
            ),
            MetricCheck::qualitative(
                "fig1.mt_flat",
                &format!("MT speedup is flat in the core clock (spread \u{2264} {threshold})"),
                "§1.1, Fig. 1b",
                mt_spread <= threshold,
            ),
            MetricCheck::qualitative(
                "fig1.knn_energy_parabola",
                "k-NN normalized energy has an interior minimum at the highest memory clock",
                "§1.1, Fig. 1a",
                interior,
            ),
        ],
        details: Vec::new(),
    }
}

/// Fig. 4 — the clock tables of the GTX Titan X and the Tesla P100.
pub fn section_fig4() -> Section {
    let titan = Device::TitanX.spec();
    let p100 = Device::TeslaP100.spec();
    let advertised = |spec: &gpufreq_sim::DeviceSpec| -> usize {
        spec.clocks
            .domains
            .iter()
            .map(|d| d.advertised_core_mhz.len())
            .sum()
    };
    let clamp_quirk = titan.clocks.domains.iter().any(|d| {
        d.advertised_core_mhz
            .iter()
            .any(|&c| c > paper::TITAN_X_CLAMP_MHZ && d.effective_core(c) != c)
    });
    let metrics = vec![
        MetricCheck::exact_count(&paper::FIG4_TITAN_X[0], titan.clocks.domains.len()),
        MetricCheck::exact_count(&paper::FIG4_TITAN_X[1], advertised(&titan)),
        MetricCheck::exact_count(&paper::FIG4_TITAN_X[2], titan.clocks.actual_configs().len()),
        MetricCheck::qualitative(
            "fig4.titan_x.clamp",
            &format!(
                "advertised Titan X core clocks above {} MHz silently clamp (gray points)",
                paper::TITAN_X_CLAMP_MHZ
            ),
            "§2.2, Fig. 4a",
            clamp_quirk,
        ),
        MetricCheck::exact_count(&paper::FIG4_P100[0], p100.clocks.domains.len()),
        MetricCheck::exact_count(&paper::FIG4_P100[1], p100.clocks.actual_configs().len()),
    ];
    let mut details = Vec::new();
    for spec in [&titan, &p100] {
        let rows: Vec<Vec<String>> = spec
            .clocks
            .domains
            .iter()
            .map(|d| {
                let clamped = d
                    .advertised_core_mhz
                    .iter()
                    .filter(|&&c| d.effective_core(c) != c)
                    .count();
                vec![
                    d.mem_mhz.to_string(),
                    d.advertised_core_mhz.len().to_string(),
                    d.actual_core_mhz().len().to_string(),
                    clamped.to_string(),
                    if spec.clocks.default.mem_mhz == d.mem_mhz {
                        format!("core {}", spec.clocks.default.core_mhz)
                    } else {
                        "—".to_string()
                    },
                ]
            })
            .collect();
        details.push(DetailTable {
            title: format!("{} clock domains", spec.name),
            header: ["mem MHz", "advertised", "actual", "clamped", "default"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
        });
    }
    Section {
        id: "fig4".to_string(),
        title: "Fig. 4 — supported frequency configurations".to_string(),
        citation: "§2.2, Fig. 4".to_string(),
        narrative: format!(
            "The simulator reproduces both clock tables structurally: {} advertised / {} \
             settable Titan X configurations over {} memory domains (with the >{} MHz clamp \
             quirk), and {} settable core clocks in the P100's single memory domain.",
            advertised(&titan),
            titan.clocks.actual_configs().len(),
            titan.clocks.domains.len(),
            paper::TITAN_X_CLAMP_MHZ,
            p100.clocks.actual_configs().len(),
        ),
        metrics,
        details,
    }
}

/// Fig. 5 — compute- vs memory-dominated character of the eight
/// selected benchmarks, from their measured sweeps.
pub fn section_fig5(items: &[(&Workload, &Characterization)]) -> Section {
    let threshold = paper::COMPUTE_DOMINATED_SPREAD;
    let mut matches = 0usize;
    let mut rows = Vec::new();
    for (workload, characterization) in items {
        let spread = high_mem_speedup_spread(characterization);
        let derived_compute = spread > threshold;
        let paper_compute = paper::FIG5_COMPUTE_DOMINATED.contains(&workload.name);
        if derived_compute == paper_compute {
            matches += 1;
        }
        let label = |compute: bool| if compute { "compute" } else { "memory" };
        rows.push(vec![
            workload.display_name.to_string(),
            format!("{spread:.3}"),
            label(derived_compute).to_string(),
            label(paper_compute).to_string(),
        ]);
    }
    let classification = paper::Reference {
        id: "fig5.classification",
        name: "benchmarks whose compute/memory character matches the paper",
        unit: "/8",
        value: items.len() as f64,
        citation: "§4.2, Fig. 5",
    };
    Section {
        id: "fig5".to_string(),
        title: "Fig. 5 — benchmark characterization".to_string(),
        citation: "§4.2, Fig. 5".to_string(),
        narrative: format!(
            "Speedup spread across the high-memory configurations separates the paper's top row \
             (compute-dominated, spread > {threshold}) from its bottom row (memory-dominated): \
             {matches}/{} of the selected benchmarks land in the published class.",
            items.len()
        ),
        metrics: vec![MetricCheck::count_at_least(&classification, matches, 1)],
        details: vec![DetailTable {
            title: "per-benchmark character".to_string(),
            header: [
                "benchmark",
                "high-mem speedup spread",
                "reproduced",
                "paper",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows,
        }],
    }
}

fn rmse_section(
    id: &str,
    title: &str,
    citation: &str,
    objective: &str,
    analysis: &[DomainErrorAnalysis],
    references: &[paper::Reference],
) -> Section {
    let mut metrics = Vec::new();
    for (domain, reference) in analysis.iter().zip(references) {
        debug_assert!(
            reference.name.contains(&domain.label),
            "domain order must match the reference order"
        );
        metrics.push(MetricCheck::quantitative(
            reference,
            domain.rmse_percent,
            0.5,
            1.5,
        ));
    }
    let reproduced: Vec<String> = analysis
        .iter()
        .map(|d| format!("{} {:.2}%", d.label, d.rmse_percent))
        .collect();
    Section {
        id: id.to_string(),
        title: title.to_string(),
        citation: citation.to_string(),
        narrative: format!(
            "Pooled per-domain RMSE of the {objective} model over all twelve benchmarks \
             (reproduced: {}). The tiers are graded coarsely — the simulator reproduces the \
             error *structure* (low-memory domains are harder), not the silicon's exact \
             percentages.",
            reproduced.join(", ")
        ),
        metrics,
        details: Vec::new(),
    }
}

/// Fig. 6 — per-memory-domain RMSE of the speedup model.
pub fn section_fig6(analysis: &[DomainErrorAnalysis]) -> Section {
    rmse_section(
        "fig6",
        "Fig. 6 — prediction error of the speedup model",
        "§4.4, Fig. 6",
        "speedup",
        analysis,
        &paper::FIG6_RMSE,
    )
}

/// Fig. 7 — per-memory-domain RMSE of the normalized-energy model.
pub fn section_fig7(analysis: &[DomainErrorAnalysis]) -> Section {
    rmse_section(
        "fig7",
        "Fig. 7 — prediction error of the normalized-energy model",
        "§4.4, Fig. 7",
        "normalized-energy",
        analysis,
        &paper::FIG7_RMSE,
    )
}

/// Fig. 8 — predicted vs real Pareto fronts across the benchmarks.
pub fn section_fig8(evals: &[BenchmarkEvaluation]) -> Section {
    let dominating = evals.iter().filter(|e| e.improves_on_default()).count();
    let trading = evals.iter().filter(|e| e.offers_trade_off(0.05)).count();
    let rows: Vec<Vec<String>> = evals
        .iter()
        .map(|e| {
            vec![
                e.display_name.clone(),
                format!("{:.4}", e.coverage_d),
                if e.improves_on_default() { "yes" } else { "no" }.to_string(),
                if e.offers_trade_off(0.05) {
                    "yes"
                } else {
                    "no"
                }
                .to_string(),
            ]
        })
        .collect();
    Section {
        id: "fig8".to_string(),
        title: "Fig. 8 — predicted vs real Pareto fronts".to_string(),
        citation: "§4.5, Fig. 8".to_string(),
        narrative: format!(
            "Predicted Pareto sets measured at their true objectives: {dominating}/{} \
             benchmarks contain a configuration that strictly dominates the default, and \
             {trading}/{} offer a \u{2265}5% energy/performance trade-off — the paper's \
             headline that the predicted settings beat the default configuration in either \
             energy or performance.",
            evals.len(),
            evals.len()
        ),
        metrics: vec![MetricCheck::qualitative(
            "fig8.trade_offs_majority",
            "predicted sets offer a \u{2265}5% energy/performance trade-off for a majority of benchmarks",
            "§4.5, Fig. 8",
            // Strict majority: exactly half is not "a majority", and
            // grading it as one would hide a 7/12 → 6/12 regression
            // from the CI tier gate.
            trading * 2 > evals.len(),
        )],
        details: vec![DetailTable {
            title: "per-benchmark front quality".to_string(),
            header: ["benchmark", "coverage D", "dominates default", "\u{2265}5% trade-off"]
                .iter()
                .map(|s| s.to_string())
                .collect(),
            rows,
        }],
    }
}

/// Table 2 — coverage differences and extreme-point distances.
pub fn section_table2(evals: &[BenchmarkEvaluation]) -> Section {
    let rows = table2(evals);
    let good = rows
        .iter()
        .filter(|r| r.coverage_d <= paper::GOOD_COVERAGE_D)
        .count();
    let exact_speedup = evals
        .iter()
        .filter(|e| e.extreme_max_speedup.is_exact(1e-9))
        .count();
    let exact_energy = evals
        .iter()
        .filter(|e| e.extreme_min_energy.is_exact(1e-9))
        .count();
    Section {
        id: "table2".to_string(),
        title: "Table 2 — evaluation of the predicted Pareto fronts".to_string(),
        citation: "§4.5, Table 2".to_string(),
        narrative: format!(
            "Binary hypervolume coverage difference D(P*, P\u{2032}) and extreme-point \
             distances over the twelve benchmarks, sorted by D. Reproduced: {good}/{} good \
             approximations (D \u{2264} {}), max-speedup extreme exact for {exact_speedup}/{}, \
             min-energy extreme exact for {exact_energy}/{}.",
            rows.len(),
            paper::GOOD_COVERAGE_D,
            rows.len(),
            rows.len(),
        ),
        metrics: vec![
            MetricCheck::count_at_least(&paper::TABLE2_GOOD_COVERAGE, good, 2),
            MetricCheck::count_at_least(&paper::TABLE2_EXACT_MAX_SPEEDUP, exact_speedup, 2),
        ],
        details: vec![DetailTable {
            title: "reproduced Table 2".to_string(),
            header: [
                "benchmark",
                "D(P*, P\u{2032})",
                "|P\u{2032}|",
                "|P*|",
                "max speedup (ds, de)",
                "min energy (ds, de)",
            ]
            .iter()
            .map(|s| s.to_string())
            .collect(),
            rows: table2_detail_rows(&rows),
        }],
    }
}

fn table2_detail_rows(rows: &[Table2Row]) -> Vec<Vec<String>> {
    rows.iter()
        .map(|r| {
            vec![
                r.benchmark.clone(),
                format!("{:.4}", r.coverage_d),
                r.predicted_points.to_string(),
                r.real_points.to_string(),
                format!(
                    "({:.3}, {:.3})",
                    r.max_speedup_dist.d_speedup, r.max_speedup_dist.d_energy
                ),
                format!(
                    "({:.3}, {:.3})",
                    r.min_energy_dist.d_speedup, r.min_energy_dist.d_energy
                ),
            ]
        })
        .collect()
}

/// §3.3 — sweep-cost accounting: why the training phase samples.
pub fn section_sweepcost(minutes_40: f64, minutes_all: f64, settings_all: usize) -> Section {
    Section {
        id: "sweepcost".to_string(),
        title: "§3.3 — measurement cost of a frequency sweep".to_string(),
        citation: "§3.3".to_string(),
        narrative: format!(
            "Simulated wall-clock of sweeping one micro-benchmark (clock-switch settling plus \
             enough repetitions for a stable 62.5 Hz power average): {minutes_40:.1} min at 40 \
             sampled settings, {minutes_all:.1} min over all {settings_all} settings — the \
             accounting that makes exhaustive search impractical and sampling necessary."
        ),
        metrics: vec![
            MetricCheck::quantitative(&paper::SWEEP_MINUTES_40, minutes_40, 0.25, 0.75),
            MetricCheck::quantitative(&paper::SWEEP_MINUTES_ALL, minutes_all, 0.25, 0.75),
            MetricCheck::qualitative(
                "sweepcost.sampling_required",
                "an exhaustive sweep costs \u{2265}3\u{d7} the sampled sweep",
                "§3.3",
                minutes_all >= 3.0 * minutes_40,
            ),
        ],
        details: Vec::new(),
    }
}

/// §4.1 — portability: the full pipeline re-run on the Tesla P100.
pub fn section_portability(evals: &[BenchmarkEvaluation]) -> Section {
    let improving = evals.iter().filter(|e| e.improves_on_default()).count();
    let no_heuristic = evals
        .iter()
        .all(|e| e.prediction.pareto_set.iter().all(|p| !p.heuristic));
    Section {
        id: "portability".to_string(),
        title: "§4.1 — portability to the Tesla P100".to_string(),
        citation: "§4.1".to_string(),
        narrative: format!(
            "Corpus rebuilt, model retrained and all twelve benchmarks re-evaluated on the \
             P100's single 715 MHz memory domain; predicted sets improve on the P100 default \
             for {improving}/{} benchmarks. With one domain the problem collapses to \
             core-frequency selection and no mem-L heuristic point may appear.",
            evals.len()
        ),
        metrics: vec![
            MetricCheck::qualitative(
                "portability.pipeline_runs",
                "the full train/predict/evaluate pipeline runs on the second device",
                "§4.1",
                evals.len() == paper::NUM_BENCHMARKS,
            ),
            MetricCheck::qualitative(
                "portability.no_mem_l_heuristic",
                "no mem-L heuristic point is predicted on a single-domain device",
                "§4.5",
                no_heuristic,
            ),
        ],
        details: Vec::new(),
    }
}

/// Run the pipeline described by `opts` and assemble the scored
/// [`Report`].
///
/// Fast mode is the same pinned reduced pipeline the golden tests
/// snapshot ([`crate::golden_table2_rows`]); full mode is the paper's
/// parameters. Both are deterministic and schedule-independent.
pub fn generate(opts: &ReportOptions) -> Result<Report> {
    let engine = Engine::new(opts.jobs);
    let benches: Vec<_> = if opts.full {
        gpufreq_synth::generate_all()
    } else {
        gpufreq_synth::generate_all()
            .into_iter()
            .step_by(3)
            .collect()
    };
    let settings = if opts.full {
        gpufreq_synth::TRAINING_SETTINGS
    } else {
        GOLDEN_SETTINGS
    };
    let config = if opts.full {
        ModelConfig::default()
    } else {
        golden_config()
    };
    let workloads = gpufreq_workloads::all_workloads();

    let train = |sim: &GpuSimulator| -> Result<FreqScalingModel> {
        let data = build_training_data_with(&engine, sim, &benches, settings);
        FreqScalingModel::try_train_with(&engine, &data, &config)
    };

    let sim = Device::TitanX.simulator();
    let model = train(&sim)?;
    let evals = evaluate_all_with(&engine, &sim, &model, &workloads);
    let speedup_analysis = error_analysis(&sim, &model, &evals, Objective::Speedup);
    let energy_analysis = error_analysis(&sim, &model, &evals, Objective::Energy);

    let p100 = Device::TeslaP100.simulator();
    let p100_model = train(&p100)?;
    let p100_evals = evaluate_all_with(&engine, &p100, &p100_model, &workloads);

    // §3.3 cost accounting: one mid-intensity micro-benchmark
    // (`b-float-add-16`).
    let cost_bench = &gpufreq_synth::generate_all()[40];
    let cost_profile = cost_bench.profile();
    let sampled = sim.spec().clocks.sample_configs(40);
    let exhaustive = sim.spec().clocks.actual_configs();
    let minutes_40 = sim.characterize_at(&cost_profile, &sampled).sim_wall_s() / 60.0;
    let minutes_all = sim.characterize_at(&cost_profile, &exhaustive).sim_wall_s() / 60.0;

    let eval_by_name = |name: &str| -> &BenchmarkEvaluation {
        evals
            .iter()
            .find(|e| e.name == name)
            .expect("all twelve benchmarks are evaluated")
    };
    let fig5_selection: Vec<&str> = paper::FIG5_COMPUTE_DOMINATED
        .iter()
        .chain(paper::FIG5_MEMORY_DOMINATED.iter())
        .copied()
        .collect();
    let fig5_workloads: Vec<Workload> = fig5_selection
        .iter()
        .map(|n| gpufreq_workloads::workload(n).expect("known workload"))
        .collect();
    let fig5_items: Vec<(&Workload, &Characterization)> = fig5_workloads
        .iter()
        .map(|w| (w, &eval_by_name(w.name).ground_truth))
        .collect();

    let sections = vec![
        section_fig1(
            &eval_by_name("knn").ground_truth,
            &eval_by_name("mt").ground_truth,
        ),
        section_fig4(),
        section_fig5(&fig5_items),
        section_fig6(&speedup_analysis),
        section_fig7(&energy_analysis),
        section_fig8(&evals),
        section_table2(&evals),
        section_sweepcost(minutes_40, minutes_all, exhaustive.len()),
        section_portability(&p100_evals),
    ];
    let summary = summarize(&sections);

    let mut corpus = String::new();
    let _ = write!(
        corpus,
        "{} ({} of {} micro-benchmarks)",
        if opts.full { "full" } else { "fast" },
        benches.len(),
        gpufreq_synth::NUM_MICROBENCHMARKS
    );
    let provenance = Provenance {
        mode: if opts.full { "full" } else { "fast" }.to_string(),
        devices: Device::all().iter().map(|d| d.id().to_string()).collect(),
        corpus,
        settings,
        model_config: if opts.full {
            "paper (C = 1000, \u{3b5} = 0.1, \u{3b3} = 0.1)".to_string()
        } else {
            "relaxed test preset (ModelConfig::relaxed)".to_string()
        },
        model_format_version: MODEL_FORMAT_VERSION,
        workloads: workloads.len(),
        git_revision: opts
            .git_revision
            .clone()
            .unwrap_or_else(|| "(GPUFREQ_GIT_REV unset)".to_string()),
        engine: "deterministic index-ordered fan-out; output is byte-identical for every \
                 --jobs value"
            .to_string(),
        scoring: "SVR heads scored along one line per (kernel, memory clock) \
                  (ScoringPlan: primal-weight linear head, RBF head stepped along the \
                  device's core-clock grid with a few exps per support vector, \
                  plain-arithmetic exp, runtime SIMD dispatch); within 1e-12 relative of \
                  per-point evaluation on the relaxed test preset (2e-11 on the served \
                  --fast model), so only trailing digits depend on the scoring path"
            .to_string(),
    };

    Ok(Report {
        paper: PaperInfo::current(),
        provenance,
        sections,
        summary,
    })
}
