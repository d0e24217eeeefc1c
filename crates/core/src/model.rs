//! The two-headed frequency-scaling model (§3.4).
//!
//! Wraps the paper's pair of regressors — a linear-kernel ε-SVR for
//! speedup and an RBF-kernel ε-SVR for normalized energy — behind one
//! type that maps `(static features, frequency configuration)` to the
//! two predicted objectives.
//!
//! **Reproduction note — per-memory-domain heads.** The paper's entire
//! analysis is stratified by memory domain (Figs. 6–7 group every error
//! by memory clock, §4.2 discusses each domain separately, and §4.5
//! excludes mem-L from modeling altogether). A single regressor across
//! all domains must represent the max-like interaction between the two
//! clocks (a kernel that is compute-bound at mem-H becomes memory-bound
//! at mem-l, flipping which frequency matters), which is outside the
//! capacity of a linear model and empirically costs ~40% RMSE even for
//! OLS on the training set. Training one `(speedup, energy)` pair per
//! memory domain keeps each head exactly in the regime the paper
//! justifies — "speedup increases linearly with the core frequency"
//! *at fixed memory frequency* — and reproduces the paper's error
//! structure. Models are serde-serializable so a trained model can be
//! persisted and reused without re-running the 4240-sample sweep.

use crate::engine::Engine;
use crate::pipeline::TrainingData;
use gpufreq_kernel::{
    memory_boundedness, FeatureVector, FreqConfig, StaticFeatures, NUM_FEATURES,
    NUM_STATIC_FEATURES,
};
use gpufreq_ml::{train_svr, LineGrid, MinMaxScaler, Points, ScoringPlan, SvrModel, SvrParams};
use gpufreq_pareto::Objectives;
use gpufreq_sim::ClockTable;
use serde::{Deserialize, Serialize};

/// Hyper-parameters for training a [`FreqScalingModel`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ModelConfig {
    /// SVR parameters for the speedup heads (paper: linear kernel).
    pub speedup: SvrParams,
    /// SVR parameters for the normalized-energy heads (paper: RBF).
    pub energy: SvrParams,
}

impl Default for ModelConfig {
    fn default() -> Self {
        ModelConfig {
            speedup: SvrParams::paper_speedup(),
            energy: SvrParams::paper_energy(),
        }
    }
}

impl ModelConfig {
    /// Relaxed hyper-parameters for the fast path (the CLI's `--fast`,
    /// usually paired with [`Corpus::Fast`](crate::Corpus)): a smaller
    /// `C` and a bounded iteration cap trade accuracy for
    /// seconds-scale training.
    pub fn fast() -> ModelConfig {
        ModelConfig {
            speedup: SvrParams {
                c: 100.0,
                max_iter: 200_000,
                ..SvrParams::paper_speedup()
            },
            energy: SvrParams {
                c: 100.0,
                max_iter: 200_000,
                ..SvrParams::paper_energy()
            },
        }
    }

    /// The test-suite preset (`C = 10`, 100k iteration cap): even
    /// looser than [`fast`](ModelConfig::fast), converging in a second
    /// or two on reduced corpora. The determinism, property, and
    /// golden-snapshot suites all train with exactly this config, so a
    /// solver-parameter tweak lands in every suite at once.
    pub fn relaxed() -> ModelConfig {
        ModelConfig {
            speedup: SvrParams {
                c: 10.0,
                max_iter: 100_000,
                ..SvrParams::paper_speedup()
            },
            energy: SvrParams {
                c: 10.0,
                max_iter: 100_000,
                ..SvrParams::paper_energy()
            },
        }
    }
}

/// The per-memory-domain head pair.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
struct DomainHeads {
    mem_mhz: u32,
    speedup: SvrModel,
    energy: SvrModel,
}

/// A trained frequency-scaling predictor: per-memory-domain speedup and
/// normalized-energy heads sharing one feature scaler.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FreqScalingModel {
    domains: Vec<DomainHeads>,
    scaler: MinMaxScaler,
    trained_on: usize,
}

impl FreqScalingModel {
    /// Train the heads on `data` (Fig. 2, steps 5–6), one pair per
    /// memory domain present in the corpus.
    ///
    /// This is the pre-redesign panicking entry point, kept for
    /// backwards compatibility; new code should use [`try_train`]
    /// (or the [`Planner`] façade) and handle the error.
    ///
    /// [`try_train`]: FreqScalingModel::try_train
    /// [`Planner`]: crate::Planner
    ///
    /// # Panics
    /// If `data` is empty or its row configurations are misaligned.
    pub fn train(data: &TrainingData, config: &ModelConfig) -> FreqScalingModel {
        FreqScalingModel::try_train(data, config).expect("valid training data")
    }

    /// Fallible training: an empty corpus or misaligned per-row
    /// configurations are reported as [`Error`](crate::Error) values
    /// instead of panics.
    pub fn try_train(
        data: &TrainingData,
        config: &ModelConfig,
    ) -> Result<FreqScalingModel, crate::Error> {
        FreqScalingModel::try_train_with(&Engine::default(), data, config)
    }

    /// [`try_train`](FreqScalingModel::try_train) with the per-domain
    /// head fits fanned out over `engine`.
    ///
    /// Each `(memory domain, objective)` SVR solve is independent —
    /// a Titan X corpus yields eight of them — so they run as separate
    /// engine work items. Head order (ascending memory clock) and every
    /// solver input are independent of the schedule, so the trained
    /// model is bit-identical for every worker count.
    pub fn try_train_with(
        engine: &Engine,
        data: &TrainingData,
        config: &ModelConfig,
    ) -> Result<FreqScalingModel, crate::Error> {
        if data.is_empty() {
            return Err(crate::Error::EmptyCorpus);
        }
        if data.row_configs.len() != data.len() {
            return Err(crate::Error::MisalignedRows {
                rows: data.len(),
                configs: data.row_configs.len(),
            });
        }
        let scaler = MinMaxScaler::fit(data.speedup.xs());
        let mut mem_clocks: Vec<u32> = data.row_configs.iter().map(|c| c.mem_mhz).collect();
        mem_clocks.sort_unstable();
        mem_clocks.dedup();
        // Assemble the per-domain scaled datasets serially (cheap), then
        // fan the 2-per-domain SVR solves (expensive) out on the engine.
        let slices: Vec<(u32, gpufreq_ml::Dataset, gpufreq_ml::Dataset)> = mem_clocks
            .into_iter()
            .map(|mem_mhz| {
                let mut speedup = gpufreq_ml::Dataset::new();
                let mut energy = gpufreq_ml::Dataset::new();
                for (i, cfg) in data.row_configs.iter().enumerate() {
                    if cfg.mem_mhz == mem_mhz {
                        let (x, ys) = data.speedup.sample(i);
                        speedup.push(scaler.transform(x), ys);
                        let (_, ye) = data.energy.sample(i);
                        energy.push(scaler.transform(x), ye);
                    }
                }
                (mem_mhz, speedup, energy)
            })
            .collect();
        enum Head {
            Speedup(usize),
            Energy(usize),
        }
        let tasks: Vec<Head> = (0..slices.len())
            .flat_map(|i| [Head::Speedup(i), Head::Energy(i)])
            .collect();
        let mut trained: Vec<Option<SvrModel>> = engine
            .map(&tasks, |task| match task {
                Head::Speedup(i) => train_svr(&slices[*i].1, &config.speedup),
                Head::Energy(i) => train_svr(&slices[*i].2, &config.energy),
            })
            .into_iter()
            .map(Some)
            .collect();
        let domains = slices
            .iter()
            .enumerate()
            .map(|(i, (mem_mhz, _, _))| DomainHeads {
                mem_mhz: *mem_mhz,
                speedup: trained[2 * i].take().expect("speedup head trained"),
                energy: trained[2 * i + 1].take().expect("energy head trained"),
            })
            .collect();
        Ok(FreqScalingModel {
            domains,
            scaler,
            trained_on: data.len(),
        })
    }

    /// The head pair responsible for `config` — exact memory-clock
    /// match if the domain was trained, otherwise the nearest domain
    /// (supports cross-device prediction).
    fn heads(&self, config: FreqConfig) -> &DomainHeads {
        self.domains
            .iter()
            .min_by_key(|d| d.mem_mhz.abs_diff(config.mem_mhz))
            .expect("trained model has at least one domain")
    }

    /// Predicted speedup of `features` at `config`.
    pub fn predict_speedup(&self, features: &StaticFeatures, config: FreqConfig) -> f64 {
        let row = FeatureVector::new(features, config);
        self.heads(config)
            .speedup
            .predict(&self.scaler.transform(row.as_slice()))
    }

    /// Predicted normalized energy of `features` at `config`.
    pub fn predict_energy(&self, features: &StaticFeatures, config: FreqConfig) -> f64 {
        let row = FeatureVector::new(features, config);
        self.heads(config)
            .energy
            .predict(&self.scaler.transform(row.as_slice()))
    }

    /// Both objectives at once.
    pub fn predict_objectives(&self, features: &StaticFeatures, config: FreqConfig) -> Objectives {
        Objectives::new(
            self.predict_speedup(features, config),
            self.predict_energy(features, config),
        )
    }

    /// Number of training samples this model saw.
    pub fn trained_on(&self) -> usize {
        self.trained_on
    }

    /// Memory domains this model has heads for, ascending.
    pub fn trained_domains(&self) -> Vec<u32> {
        self.domains.iter().map(|d| d.mem_mhz).collect()
    }

    /// Total support-vector counts across domains `(speedup, energy)`.
    pub fn support_vectors(&self) -> (usize, usize) {
        self.domains.iter().fold((0, 0), |(s, e), d| {
            (
                s + d.speedup.num_support_vectors(),
                e + d.energy.num_support_vectors(),
            )
        })
    }

    /// Serialize to JSON.
    pub fn to_json(&self) -> String {
        serde_json::to_string(self).expect("model serializes")
    }

    /// Deserialize from JSON.
    pub fn from_json(s: &str) -> Result<FreqScalingModel, serde_json::Error> {
        serde_json::from_str(s)
    }

    /// Build the batched scoring form of this model for the device
    /// whose clock table is `clocks`: one [`ScoringPlan`] per head (the
    /// linear head folded into primal weights, the RBF head's support
    /// vectors flattened), the shared scaler, and one [`LineGrid`] per
    /// memory clock of `clocks` — its scaled core clocks — for the RBF
    /// heads to step along. Built once per trained model and device
    /// (cheap relative to training, ~a vector copy per head) and then
    /// scored without touching the serde representation again.
    pub fn scorer(&self, clocks: &ClockTable) -> ModelScorer {
        ModelScorer {
            domains: self
                .domains
                .iter()
                .map(|d| (d.mem_mhz, d.speedup.scoring_plan(), d.energy.scoring_plan()))
                .collect(),
            scaler: self.scaler.clone(),
            grids: clocks
                .domains
                .iter()
                .map(|d| {
                    let cores = d.actual_core_mhz().into_iter();
                    let ts = cores.map(|c| FreqConfig::new(d.mem_mhz, c).core_scaled());
                    let mem = FreqConfig::new(d.mem_mhz, 0).mem_scaled();
                    (mem.to_bits(), LineGrid::new(ts.collect()))
                })
                .collect(),
        }
    }
}

/// The batched scoring form of a [`FreqScalingModel`] on one device:
/// per-domain [`ScoringPlan`]s, the shared min-max scaler, and the
/// device's core-clock grid per memory clock, scoring a kernel's
/// candidates along one line per memory clock.
///
/// At a fixed kernel and memory clock only the core clock varies, and
/// the scaled model row is affine in it (the raw row holds `k`, `core`,
/// `mem`, `k·core`, `k·mem`, `b`, `b·core`, `b·mem`, and the scaler has
/// no clamp). So a run of such candidates is the line
/// `origin + core_scaled·dir`, with the origin the scaled row at core 0
/// and the direction the scaled `∂/∂core`, built once per run and
/// scored by [`ScoringPlan::score_line_into`]. A candidate on the
/// device's clock grid of its memory clock is scored as that grid
/// point, so the RBF energy head steps along the grid instead of
/// paying one `exp` per (candidate, support vector) pair; any other
/// core clock (an ad hoc configuration off the table) is scored
/// directly.
///
/// **Error contract.** Against the scalar
/// [`FreqScalingModel::predict_objectives`] path the head-selection
/// rule (first minimal `|mem - domain|`, the order heads were trained
/// in) is the same; the line, the per-head [`ScoringPlan`] arithmetic
/// and the stepping reassociate the sums, so objectives differ in their
/// trailing digits. On the test-suite models (`ModelConfig::relaxed()`)
/// every objective is within 1e-12 relative; on the served
/// `ModelConfig::fast()` model the worst measured is 8.2e-12 (pinned
/// at 2e-11), and on both the Pareto sets of the workloads and the
/// synthetic corpus are the scalar path's (`tests/batched_scalar_identity.rs`).
/// Within this type the contract is exact: a row scored inside a
/// [`score_block`](ModelScorer::score_block) has exactly the bits
/// [`predict_prepared`](ModelScorer::predict_prepared) gives it alone,
/// so a prediction does not depend on which candidates share its
/// block.
#[derive(Debug, Clone)]
pub struct ModelScorer {
    /// `(mem_mhz, speedup plan, energy plan)` in trained-domain order.
    domains: Vec<(u32, ScoringPlan, ScoringPlan)>,
    scaler: MinMaxScaler,
    /// `(mem_scaled bits, scaled core-clock grid)` per memory clock of
    /// the device's clock table.
    grids: Vec<(u64, LineGrid)>,
}

/// Where [`ModelScorer::write_scaled_row`] puts the coordinates after
/// the static features.
const BOUNDEDNESS: usize = NUM_STATIC_FEATURES;
const CORE: usize = NUM_STATIC_FEATURES + 1;
const MEM: usize = NUM_STATIC_FEATURES + 2;

/// The scaled model rows of one (kernel, memory clock) as a line in
/// `core_scaled`.
struct Line {
    origin: [f64; NUM_FEATURES],
    dir: [f64; NUM_FEATURES],
}

impl ModelScorer {
    /// Index of the head pair responsible for `config`: exact
    /// memory-clock match if trained, else the nearest domain —
    /// replicating [`FreqScalingModel`]'s rule including the tie-break
    /// (first minimal element in trained order).
    pub fn head_index(&self, config: FreqConfig) -> usize {
        self.domains
            .iter()
            .enumerate()
            .min_by_key(|(_, d)| d.0.abs_diff(config.mem_mhz))
            .map(|(i, _)| i)
            .expect("trained model has at least one domain")
    }

    /// Both objectives at `config` — the batched twin of
    /// [`FreqScalingModel::predict_objectives`], within the bounded
    /// error of the type-level contract.
    pub fn predict_objectives(&self, features: &StaticFeatures, config: FreqConfig) -> Objectives {
        self.predict_prepared(
            features,
            memory_boundedness(features),
            config.core_scaled(),
            config.mem_scaled(),
            self.head_index(config),
        )
    }

    /// The single-candidate core: score one `(kernel, config)` pair with
    /// the per-kernel invariants (`memory_boundedness`, scaled clocks,
    /// head index) hoisted by the caller — a one-row run of
    /// [`score_block`](ModelScorer::score_block), with its bits.
    pub fn predict_prepared(
        &self,
        features: &StaticFeatures,
        boundedness: f64,
        core_scaled: f64,
        mem_scaled: f64,
        head: usize,
    ) -> Objectives {
        let line = self.line(features, boundedness, mem_scaled);
        let (mut s, mut e) = ([0.0], [0.0]);
        self.score_run(head, &line, mem_scaled, &[core_scaled], &mut s, &mut e);
        Objectives::new(s[0], e[0])
    }

    /// Number of trained head pairs (memory domains).
    pub fn num_heads(&self) -> usize {
        self.domains.len()
    }

    /// Write one `(kernel, config)` pair's coordinates into `out`, for
    /// callers assembling candidate blocks for [`score_block`]: the raw
    /// static features, then the memory-boundedness, `core_scaled` and
    /// `mem_scaled`, zero-padded. The row is not scaled here;
    /// [`score_block`] scales it as part of the candidate's line.
    ///
    /// [`score_block`]: ModelScorer::score_block
    pub fn write_scaled_row(
        &self,
        features: &StaticFeatures,
        boundedness: f64,
        core_scaled: f64,
        mem_scaled: f64,
        out: &mut [f64; NUM_FEATURES],
    ) {
        out.fill(0.0);
        out[..NUM_STATIC_FEATURES].copy_from_slice(features.values());
        out[BOUNDEDNESS] = boundedness;
        out[CORE] = core_scaled;
        out[MEM] = mem_scaled;
    }

    /// Score a row-major block of candidate rows (from
    /// [`write_scaled_row`]) with head `head`, filling one speedup and
    /// one energy score per row. Consecutive rows that share
    /// bit-identical features, boundedness and `mem_scaled` form a run:
    /// one line, built once and scored at each row's `core_scaled`.
    /// Every row's bits match [`predict_prepared`] on that row.
    ///
    /// [`write_scaled_row`]: ModelScorer::write_scaled_row
    /// [`predict_prepared`]: ModelScorer::predict_prepared
    pub fn score_block(
        &self,
        head: usize,
        block: &[f64],
        speedup_out: &mut Vec<f64>,
        energy_out: &mut Vec<f64>,
    ) {
        let (rows, rest) = block.as_chunks::<NUM_FEATURES>();
        assert!(
            rest.is_empty(),
            "candidate block must be NUM_FEATURES-wide rows"
        );
        let ts: Vec<f64> = rows.iter().map(|row| row[CORE]).collect();
        for out in [&mut *speedup_out, &mut *energy_out] {
            out.clear();
            out.resize(rows.len(), 0.0);
        }
        let same_line = |a: &[f64; NUM_FEATURES], b: &[f64; NUM_FEATURES]| {
            (0..NUM_FEATURES).all(|j| j == CORE || a[j].to_bits() == b[j].to_bits())
        };
        let mut start = 0;
        for run in rows.chunk_by(same_line) {
            let first = &run[0];
            let features = StaticFeatures::from_values(
                first[..NUM_STATIC_FEATURES]
                    .try_into()
                    .expect("static features"),
            );
            let line = self.line(&features, first[BOUNDEDNESS], first[MEM]);
            let span = start..start + run.len();
            self.score_run(
                head,
                &line,
                first[MEM],
                &ts[span.clone()],
                &mut speedup_out[span.clone()],
                &mut energy_out[span.clone()],
            );
            start = span.end;
        }
    }

    /// Score one line at the core clocks `ts`: as grid points when every
    /// one lies on the device's grid of `mem_scaled`, directly when the
    /// line holds a single point off it, and row by row otherwise, so
    /// each row is scored as it would be alone.
    fn score_run(
        &self,
        head: usize,
        line: &Line,
        mem_scaled: f64,
        ts: &[f64],
        speedup: &mut [f64],
        energy: &mut [f64],
    ) {
        let grid = self
            .grids
            .iter()
            .find(|(mem, _)| *mem == mem_scaled.to_bits())
            .map(|(_, grid)| grid);
        // A run in clock-table order sits at consecutive grid indices,
        // found by one bit comparison per row; anything else searches.
        let mut at = Vec::new();
        if let Some(grid) = grid {
            for &t in ts {
                let next = at.last().map_or(0, |&k| k + 1);
                match grid.ts().get(next) {
                    Some(g) if g.to_bits() == t.to_bits() => at.push(next),
                    _ => match grid.index_of(t) {
                        Some(k) => at.push(k),
                        None => break,
                    },
                }
            }
        }
        let points = match grid {
            Some(grid) if at.len() == ts.len() => Points::Grid(grid, &at),
            _ if ts.len() == 1 => Points::Free(ts),
            _ => {
                for k in 0..ts.len() {
                    let one = k..k + 1;
                    self.score_run(
                        head,
                        line,
                        mem_scaled,
                        &ts[one.clone()],
                        &mut speedup[one.clone()],
                        &mut energy[one],
                    );
                }
                return;
            }
        };
        let (_, speedup_plan, energy_plan) = &self.domains[head];
        speedup_plan.score_line_into(&line.origin, &line.dir, points, speedup);
        energy_plan.score_line_into(&line.origin, &line.dir, points, energy);
    }

    /// The line of scaled model rows for one kernel at one memory
    /// clock. The raw direction is the difference of the raw rows at
    /// core 1 and core 0, which is exact: each raw entry is either
    /// constant in the core clock or a product `c·core`.
    fn line(&self, features: &StaticFeatures, boundedness: f64, mem_scaled: f64) -> Line {
        let (mut at0, mut at1) = ([0.0; NUM_FEATURES], [0.0; NUM_FEATURES]);
        FeatureVector::write_raw(features, 0.0, mem_scaled, boundedness, &mut at0);
        FeatureVector::write_raw(features, 1.0, mem_scaled, boundedness, &mut at1);
        let mut line = Line {
            origin: [0.0; NUM_FEATURES],
            dir: [0.0; NUM_FEATURES],
        };
        self.scaler.transform_into(&at0, &mut line.origin);
        for (d, (a1, a0)) in line.dir.iter_mut().zip(at1.iter().zip(&at0)) {
            *d = a1 - a0;
        }
        self.scaler.scale_direction(&mut line.dir);
        line
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::build_training_data;
    use gpufreq_sim::GpuSimulator;

    /// Fast hyper-parameters for tests: smaller C converges quickly and
    /// is accurate enough to validate plumbing.
    pub(crate) fn fast_config() -> ModelConfig {
        ModelConfig {
            speedup: SvrParams {
                c: 100.0,
                ..SvrParams::paper_speedup()
            },
            energy: SvrParams {
                c: 100.0,
                ..SvrParams::paper_energy()
            },
        }
    }

    fn tiny_model() -> (FreqScalingModel, GpuSimulator) {
        let sim = GpuSimulator::titan_x();
        let benches: Vec<_> = gpufreq_synth::generate_all()
            .into_iter()
            .step_by(4)
            .collect();
        // Per-domain heads need enough settings inside every domain.
        let data = build_training_data(&sim, &benches, 24);
        (FreqScalingModel::train(&data, &fast_config()), sim)
    }

    #[test]
    fn one_head_pair_per_memory_domain() {
        let (model, _) = tiny_model();
        assert_eq!(model.trained_domains(), vec![405, 810, 3304, 3505]);
    }

    #[test]
    fn model_learns_core_clock_speedup_trend() {
        let (model, sim) = tiny_model();
        // A compute-heavy kernel must be predicted faster at higher core
        // clocks within the same memory domain.
        let w = gpufreq_workloads::workload("knn").unwrap();
        let f = w.static_features();
        let slow = model.predict_speedup(&f, gpufreq_kernel::FreqConfig::new(3505, 435));
        let fast = model.predict_speedup(&f, sim.spec().clocks.default);
        assert!(fast > slow, "fast {fast} vs slow {slow}");
    }

    #[test]
    fn predictions_are_near_unity_at_default() {
        let (model, sim) = tiny_model();
        let default = sim.spec().clocks.default;
        for name in ["knn", "mt", "blackscholes"] {
            let f = gpufreq_workloads::workload(name).unwrap().static_features();
            let s = model.predict_speedup(&f, default);
            let e = model.predict_energy(&f, default);
            assert!((0.7..1.3).contains(&s), "{name} speedup at default {s}");
            assert!((0.7..1.3).contains(&e), "{name} energy at default {e}");
        }
    }

    #[test]
    fn unseen_memory_clock_uses_nearest_domain() {
        let (model, _) = tiny_model();
        let f = gpufreq_workloads::workload("knn")
            .unwrap()
            .static_features();
        // 715 MHz (a P100 clock) falls back to the 810 MHz head.
        let via_nearest = model.predict_speedup(&f, gpufreq_kernel::FreqConfig::new(715, 810));
        let at_810 = model.predict_speedup(&f, gpufreq_kernel::FreqConfig::new(810, 810));
        // Not identical (the f_mem feature differs) but produced by the
        // same head without panicking.
        assert!(via_nearest.is_finite());
        assert!((via_nearest - at_810).abs() < 0.5);
    }

    #[test]
    fn try_train_rejects_malformed_corpora() {
        let empty = TrainingData {
            speedup: gpufreq_ml::Dataset::new(),
            energy: gpufreq_ml::Dataset::new(),
            configs: Vec::new(),
            row_configs: Vec::new(),
            num_benchmarks: 0,
        };
        let err = FreqScalingModel::try_train(&empty, &fast_config()).unwrap_err();
        assert!(matches!(err, crate::Error::EmptyCorpus), "{err}");

        let sim = GpuSimulator::titan_x();
        let benches: Vec<_> = gpufreq_synth::generate_all().into_iter().take(2).collect();
        let mut misaligned = build_training_data(&sim, &benches, 4);
        misaligned.row_configs.pop();
        let err = FreqScalingModel::try_train(&misaligned, &fast_config()).unwrap_err();
        assert!(
            matches!(
                err,
                crate::Error::MisalignedRows {
                    rows: 8,
                    configs: 7
                }
            ),
            "{err}"
        );
    }

    #[test]
    fn parallel_head_training_matches_serial() {
        let sim = GpuSimulator::titan_x();
        let benches: Vec<_> = gpufreq_synth::generate_all()
            .into_iter()
            .step_by(9)
            .collect();
        let data = build_training_data(&sim, &benches, 16);
        let serial =
            FreqScalingModel::try_train_with(&Engine::serial(), &data, &fast_config()).unwrap();
        for jobs in [2, 8] {
            let parallel =
                FreqScalingModel::try_train_with(&Engine::new(Some(jobs)), &data, &fast_config())
                    .unwrap();
            assert_eq!(parallel, serial, "jobs = {jobs}");
            assert_eq!(parallel.to_json(), serial.to_json());
        }
    }

    #[test]
    fn json_round_trip() {
        let (model, _) = tiny_model();
        let json = model.to_json();
        let back = FreqScalingModel::from_json(&json).unwrap();
        assert_eq!(model, back);
        let f = gpufreq_workloads::workload("aes")
            .unwrap()
            .static_features();
        let cfg = gpufreq_kernel::FreqConfig::new(3505, 1001);
        assert_eq!(
            model.predict_objectives(&f, cfg),
            back.predict_objectives(&f, cfg)
        );
    }

    #[test]
    fn support_vectors_reported() {
        let (model, _) = tiny_model();
        let (s, e) = model.support_vectors();
        assert!(s > 0 && e > 0);
        assert!(model.trained_on() > 0);
    }
}
