//! The [`Planner`] façade: one typed, fallible entry point for the
//! whole train → persist → predict → evaluate workflow.
//!
//! The paper's deployment story (train once on the synthetic corpus,
//! persist the model, predict Pareto-optimal frequency settings for
//! unseen kernels at the driver level) previously had to be assembled
//! by hand from free functions. The façade packages it:
//!
//! ```no_run
//! use gpufreq_core::{Corpus, Planner};
//! use gpufreq_sim::Device;
//!
//! # fn main() -> Result<(), gpufreq_core::Error> {
//! let planner = Planner::builder()
//!     .device(Device::TitanX)
//!     .corpus(Corpus::Full)
//!     .settings(40)
//!     .train()?;
//! let prediction = planner.predict_source(
//!     "__kernel void scale(__global float* x) {
//!          uint i = get_global_id(0);
//!          x[i] = x[i] * 2.0f;
//!      }",
//! )?;
//! planner.save("model.json")?;
//! # Ok(())
//! # }
//! ```
//!
//! Every method returns [`Result`]: malformed kernels, empty corpora,
//! unknown devices and corrupt or mismatched artifacts are typed
//! [`Error`] values, never panics.

use crate::artifact::ModelArtifact;
use crate::engine::{Engine, ProfileCache};
use crate::error::{Error, Result};
use crate::evaluate::{evaluate_all_with, BenchmarkEvaluation};
use crate::model::{FreqScalingModel, ModelConfig};
use crate::pipeline::build_training_data_with;
use crate::predict::{predict_pareto_scored, ParetoPrediction, PredictPlan};
use gpufreq_kernel::{
    analyze_kernel_with, parse, AnalysisConfig, FreqConfig, KernelProfile, LaunchConfig,
    StaticFeatures,
};
use gpufreq_sim::{Device, GpuSimulator};
use std::path::Path;
use std::sync::Arc;

/// Which slice of the 106 synthetic micro-benchmarks to train on.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Corpus {
    /// All 106 micro-benchmarks (the paper's training set).
    #[default]
    Full,
    /// Every third micro-benchmark — for smoke tests and interactive
    /// use, at reduced accuracy.
    Fast,
}

impl Corpus {
    fn benchmarks(self) -> Vec<gpufreq_synth::MicroBenchmark> {
        let all = gpufreq_synth::generate_all();
        match self {
            Corpus::Full => all,
            Corpus::Fast => all.into_iter().step_by(3).collect(),
        }
    }
}

/// Entry point to the façade; see [`Planner::builder`].
#[derive(Debug, Clone, Copy)]
pub struct Planner;

impl Planner {
    /// Start configuring a training run. Defaults: Titan X, full
    /// corpus, 40 sampled settings, the paper's hyper-parameters.
    ///
    /// This example really trains (a reduced corpus with the relaxed
    /// test preset, so it finishes in seconds) and runs under
    /// `cargo test --doc`:
    ///
    /// ```
    /// use gpufreq_core::{Corpus, ModelConfig, Planner};
    /// use gpufreq_sim::Device;
    ///
    /// let planner = Planner::builder()
    ///     .device(Device::TitanX)
    ///     .corpus(Corpus::Fast)
    ///     .settings(4)
    ///     .model_config(ModelConfig::relaxed())
    ///     .train()?;
    /// assert_eq!(planner.device(), Device::TitanX);
    /// assert!(planner.model().trained_on() > 0);
    /// # Ok::<(), gpufreq_core::Error>(())
    /// ```
    pub fn builder() -> PlannerBuilder {
        PlannerBuilder::default()
    }

    /// Train one planner per registered device (Titan X, Tesla P100,
    /// Tesla K20c) concurrently, at the paper's defaults — the
    /// portability study (§4.1) in one call. Planners come back in
    /// [`Device::all`] order and share one [`ProfileCache`].
    ///
    /// Equivalent to
    /// `Planner::builder().train_all_devices()`; use the builder to
    /// reduce the corpus or pin the worker count first.
    pub fn train_all_devices() -> Result<Vec<TrainedPlanner>> {
        Planner::builder().train_all_devices()
    }
}

/// Builder for a training run; finished by
/// [`train`](PlannerBuilder::train).
#[derive(Debug, Clone)]
pub struct PlannerBuilder {
    device: Device,
    corpus: Corpus,
    settings: usize,
    config: ModelConfig,
    engine: Engine,
}

impl Default for PlannerBuilder {
    fn default() -> PlannerBuilder {
        PlannerBuilder {
            device: Device::TitanX,
            corpus: Corpus::Full,
            settings: gpufreq_synth::TRAINING_SETTINGS,
            config: ModelConfig::default(),
            engine: Engine::default(),
        }
    }
}

impl PlannerBuilder {
    /// The device to train on (default: [`Device::TitanX`]).
    pub fn device(mut self, device: Device) -> PlannerBuilder {
        self.device = device;
        self
    }

    /// The training corpus (default: [`Corpus::Full`]).
    pub fn corpus(mut self, corpus: Corpus) -> PlannerBuilder {
        self.corpus = corpus;
        self
    }

    /// Sampled frequency settings per micro-benchmark (default: 40,
    /// the paper's choice).
    pub fn settings(mut self, settings: usize) -> PlannerBuilder {
        self.settings = settings;
        self
    }

    /// SVR hyper-parameters (default: the paper's `C = 1000`,
    /// `ε = 0.1`, `γ = 0.1`).
    pub fn model_config(mut self, config: ModelConfig) -> PlannerBuilder {
        self.config = config;
        self
    }

    /// Worker threads for the training sweep, head fits, and every
    /// parallel method of the resulting planner. `None` (the default)
    /// uses every core; `Some(1)` is strictly serial. The trained model
    /// is bit-identical for every value — only wall-clock changes
    /// (pinned by `tests/determinism.rs`).
    pub fn jobs(mut self, jobs: Option<usize>) -> PlannerBuilder {
        self.engine = Engine::new(jobs);
        self
    }

    /// Run the training phase (Fig. 2): sweep the corpus on the
    /// device's simulator and fit the per-domain SVR heads, fanning
    /// both out over the configured [`jobs`](PlannerBuilder::jobs).
    ///
    /// # Errors
    /// [`Error::EmptyCorpus`] when the corpus × settings product is
    /// zero samples.
    pub fn train(self) -> Result<TrainedPlanner> {
        let engine = self.engine;
        self.train_with(&engine, ProfileCache::shared())
    }

    /// Train one planner per registered device concurrently, sharing
    /// one [`ProfileCache`], in [`Device::all`] order — the
    /// portability study (§4.1). The builder's `device` is ignored;
    /// every other knob (corpus, settings, model config, jobs) applies
    /// to each device's run.
    ///
    /// Device-level runs are outer work items; each run's internal
    /// stages go serial while the outer level fans out
    /// ([`Engine::inner`]).
    pub fn train_all_devices(self) -> Result<Vec<TrainedPlanner>> {
        let engine = self.engine;
        let cache = ProfileCache::shared();
        let devices = Device::all();
        let inner = engine.inner(devices.len());
        let results: Vec<Result<TrainedPlanner>> = engine.map(&devices, |device| {
            self.clone()
                .device(*device)
                .train_with(&inner, Arc::clone(&cache))
        });
        results.into_iter().collect()
    }

    fn train_with(self, engine: &Engine, cache: Arc<ProfileCache>) -> Result<TrainedPlanner> {
        let sim = self.device.simulator();
        let data = build_training_data_with(engine, &sim, &self.corpus.benchmarks(), self.settings);
        let model = FreqScalingModel::try_train_with(engine, &data, &self.config)?;
        let plan = Arc::new(PredictPlan::full(&model, &sim.spec().clocks));
        Ok(TrainedPlanner {
            artifact: ModelArtifact::new(self.device, model),
            sim,
            engine: self.engine,
            cache,
            plan,
        })
    }
}

/// A trained planner: the model, its artifact metadata, the simulator
/// of the device it was trained on, plus the [`Engine`] and shared
/// [`ProfileCache`] its batch methods use.
///
/// At build/load time the planner also precomputes its
/// [`PredictPlan`] — the batched scoring form of the model over every
/// actual configuration of the device — so a predict is one analysis
/// plus one scoring sweep. The plan changes only when the model does
/// (retrain or reload), which is the natural hook for hot-swapping
/// models in a running daemon: build the new plan off to the side,
/// then swap the planner in.
#[derive(Debug, Clone)]
pub struct TrainedPlanner {
    artifact: ModelArtifact,
    sim: GpuSimulator,
    engine: Engine,
    cache: Arc<ProfileCache>,
    plan: Arc<PredictPlan>,
}

impl TrainedPlanner {
    /// Wrap an already-validated artifact (e.g. from
    /// [`ModelArtifact::load`]).
    pub fn from_artifact(artifact: ModelArtifact) -> TrainedPlanner {
        let sim = artifact.device.simulator();
        let plan = Arc::new(PredictPlan::full(&artifact.model, &sim.spec().clocks));
        TrainedPlanner {
            artifact,
            sim,
            engine: Engine::default(),
            cache: ProfileCache::shared(),
            plan,
        }
    }

    /// Replace the engine driving [`predict_batch`] and
    /// [`evaluate`](TrainedPlanner::evaluate); `Some(1)` pins them
    /// serial, `None` uses every core. Results are identical either
    /// way.
    ///
    /// [`predict_batch`]: TrainedPlanner::predict_batch
    pub fn with_jobs(mut self, jobs: Option<usize>) -> TrainedPlanner {
        self.engine = Engine::new(jobs);
        self
    }

    /// Share `cache` with this planner (and with whoever else holds
    /// it): kernels already analyzed — by another planner, the CLI, or
    /// a previous batch — are never re-analyzed.
    pub fn with_cache(mut self, cache: Arc<ProfileCache>) -> TrainedPlanner {
        self.cache = cache;
        self
    }

    /// The kernel-analysis cache backing [`predict_source`] and
    /// [`predict_batch`]; clone the [`Arc`] to share it.
    ///
    /// [`predict_source`]: TrainedPlanner::predict_source
    /// [`predict_batch`]: TrainedPlanner::predict_batch
    pub fn cache(&self) -> &Arc<ProfileCache> {
        &self.cache
    }

    /// The engine this planner's parallel methods run on.
    pub fn engine(&self) -> Engine {
        self.engine
    }

    /// Load a persisted artifact, validating format version and JSON
    /// shape; the planner targets the device recorded in the artifact.
    pub fn load(path: impl AsRef<Path>) -> Result<TrainedPlanner> {
        Ok(TrainedPlanner::from_artifact(ModelArtifact::load(path)?))
    }

    /// Like [`load`](TrainedPlanner::load), but additionally require
    /// the artifact to have been trained on `device`.
    ///
    /// # Errors
    /// [`Error::DeviceMismatch`] when the artifact records a different
    /// device.
    pub fn load_for_device(path: impl AsRef<Path>, device: Device) -> Result<TrainedPlanner> {
        let artifact = ModelArtifact::load(path)?;
        artifact.expect_device(device)?;
        Ok(TrainedPlanner::from_artifact(artifact))
    }

    /// Persist the versioned artifact to `path`.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<()> {
        self.artifact.save(path)
    }

    /// The device this planner predicts for.
    pub fn device(&self) -> Device {
        self.artifact.device
    }

    /// The trained model.
    pub fn model(&self) -> &FreqScalingModel {
        &self.artifact.model
    }

    /// The artifact envelope (version, device, domains, corpus size).
    pub fn artifact(&self) -> &ModelArtifact {
        &self.artifact
    }

    /// The simulator of the trained device.
    pub fn simulator(&self) -> &GpuSimulator {
        &self.sim
    }

    /// Predict the Pareto-optimal frequency settings for a kernel with
    /// `features` over every actual configuration of the device
    /// (Fig. 3).
    ///
    /// # Errors
    /// [`Error::NonFiniteFeatures`] when the feature vector contains
    /// NaN or infinite components.
    pub fn predict(&self, features: &StaticFeatures) -> Result<ParetoPrediction> {
        if features.values().iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFiniteFeatures);
        }
        Ok(self.plan.predict(features))
    }

    /// [`predict`](TrainedPlanner::predict) over an explicit candidate
    /// list (the evaluation predicts at the same sampled settings the
    /// ground truth is measured at). Reuses the planner's prebuilt
    /// scorer; only the per-candidate metadata is rebuilt for the
    /// ad-hoc list.
    pub fn predict_at(
        &self,
        features: &StaticFeatures,
        candidates: &[FreqConfig],
    ) -> Result<ParetoPrediction> {
        if features.values().iter().any(|v| !v.is_finite()) {
            return Err(Error::NonFiniteFeatures);
        }
        Ok(predict_pareto_scored(
            self.plan.scorer(),
            features,
            &self.sim.spec().clocks,
            candidates,
        ))
    }

    /// The precomputed prediction pipeline this planner serves from.
    pub fn plan(&self) -> &PredictPlan {
        &self.plan
    }

    /// Parse and analyze OpenCL-C `source` through the shared
    /// [`ProfileCache`], then [`predict`](TrainedPlanner::predict) for
    /// its first kernel. A source seen before — by this planner or any
    /// planner sharing the cache — skips parsing and analysis.
    pub fn predict_source(&self, source: &str) -> Result<ParetoPrediction> {
        let analyzed = self.cache.analyze(source)?;
        self.predict(&analyzed.0)
    }

    /// [`predict_source`](TrainedPlanner::predict_source) for a whole
    /// batch of kernel sources, fanned out over this planner's
    /// [`Engine`].
    ///
    /// Result `i` is exactly what `predict_source(sources[i])` returns
    /// — including the error cases (a malformed kernel yields an `Err`
    /// in its slot without disturbing its neighbours) — and the output
    /// is bit-identical for every worker count. Duplicate sources are
    /// analyzed once thanks to the shared cache; every prediction still
    /// runs, since identical kernels still need their own result slot.
    ///
    /// The sources may be anything string-shaped — `&[&str]`,
    /// `&[String]`, `&[Arc<str>]` — so callers holding owned
    /// `String`s (a server's request decoder, file readers) don't
    /// rebuild a borrow slice first.
    ///
    /// ```
    /// use gpufreq_core::{Corpus, ModelConfig, Planner};
    ///
    /// let planner = Planner::builder()
    ///     .corpus(Corpus::Fast)
    ///     .settings(4)
    ///     .model_config(ModelConfig::relaxed())
    ///     .train()?
    ///     .with_jobs(Some(2));
    /// let saxpy = "__kernel void saxpy(__global float* x, __global float* y, float a) {
    ///                  uint i = get_global_id(0);
    ///                  y[i] = a * x[i] + y[i];
    ///              }";
    /// // Owned and borrowed sources alike, no conversion needed:
    /// let owned: Vec<String> = vec![saxpy.to_string(), "not a kernel".to_string()];
    /// let results = planner.predict_batch(&owned);
    /// assert!(results[0].is_ok());
    /// assert!(results[1].is_err(), "errors stay in their slot");
    /// assert_eq!(
    ///     results[0].as_ref().unwrap(),
    ///     planner.predict_batch(&[saxpy])[0].as_ref().unwrap(),
    /// );
    /// # Ok::<(), gpufreq_core::Error>(())
    /// ```
    pub fn predict_batch<S: AsRef<str> + Sync>(
        &self,
        sources: &[S],
    ) -> Vec<Result<ParetoPrediction>> {
        self.engine
            .map(sources, |src| self.predict_source(src.as_ref()))
    }

    /// Evaluate the planner on the paper's twelve test benchmarks
    /// (ground-truth sweep + prediction at the same settings), in
    /// Table 2 order, workloads fanned out over this planner's
    /// [`Engine`].
    pub fn evaluate(&self) -> Result<Vec<BenchmarkEvaluation>> {
        Ok(evaluate_all_with(
            &self.engine,
            &self.sim,
            &self.artifact.model,
            &gpufreq_workloads::all_workloads(),
        ))
    }

    /// Evaluate on a single named workload.
    ///
    /// # Errors
    /// [`Error::UnknownWorkload`] when `name` is not one of the twelve.
    pub fn evaluate_workload(&self, name: &str) -> Result<BenchmarkEvaluation> {
        let workload = gpufreq_workloads::workload(name).ok_or_else(|| Error::UnknownWorkload {
            name: name.to_string(),
        })?;
        Ok(crate::evaluate::evaluate_workload(
            &self.sim,
            &self.artifact.model,
            &workload,
        ))
    }
}

/// Parse and statically analyze an OpenCL-C kernel source, returning
/// the static features and execution profile of its first kernel.
///
/// `path` is only used to prefix diagnostics; pass `None` for
/// in-memory sources.
pub fn analyze_source(source: &str, path: Option<&str>) -> Result<(StaticFeatures, KernelProfile)> {
    let owned_path = || path.map(|p| p.to_string());
    let program = parse(source).map_err(|source| Error::KernelParse {
        path: owned_path(),
        source,
    })?;
    let kernel = program
        .first_kernel()
        .ok_or(Error::NoKernelFound { path: owned_path() })?;
    let config = AnalysisConfig::default();
    // One analysis serves both views: the features are the normalized
    // mix of the same counts the profile records absolutely.
    let analysis =
        analyze_kernel_with(kernel, &config).map_err(|source| Error::KernelAnalysis {
            path: owned_path(),
            source,
        })?;
    let profile = KernelProfile::from_analysis(kernel.name, &analysis, LaunchConfig::default());
    Ok((StaticFeatures::from_analysis(&analysis), profile))
}

/// Read a kernel source file and [`analyze_source`] it.
pub fn analyze_kernel_file(path: impl AsRef<Path>) -> Result<(StaticFeatures, KernelProfile)> {
    let path = path.as_ref();
    let display = path.display().to_string();
    let source = std::fs::read_to_string(path).map_err(|source| Error::Io {
        path: display.clone(),
        source,
    })?;
    analyze_source(&source, Some(&display))
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufreq_ml::SvrParams;

    fn fast_planner(device: Device) -> TrainedPlanner {
        let config = ModelConfig {
            speedup: SvrParams {
                c: 10.0,
                ..SvrParams::paper_speedup()
            },
            energy: SvrParams {
                c: 10.0,
                ..SvrParams::paper_energy()
            },
        };
        Planner::builder()
            .device(device)
            .corpus(Corpus::Fast)
            .settings(10)
            .model_config(config)
            .train()
            .unwrap()
    }

    #[test]
    fn builder_trains_and_predicts() {
        let planner = fast_planner(Device::TitanX);
        assert_eq!(planner.device(), Device::TitanX);
        let features = gpufreq_workloads::workload("knn")
            .unwrap()
            .static_features();
        let prediction = planner.predict(&features).unwrap();
        assert!(!prediction.pareto_set.is_empty());
    }

    #[test]
    fn zero_settings_is_an_empty_corpus_error() {
        let err = Planner::builder()
            .corpus(Corpus::Fast)
            .settings(0)
            .train()
            .unwrap_err();
        assert!(matches!(err, Error::EmptyCorpus), "{err}");
    }

    #[test]
    fn non_finite_features_are_rejected() {
        let planner = fast_planner(Device::TitanX);
        let mut values = *gpufreq_workloads::workload("knn")
            .unwrap()
            .static_features()
            .values();
        values[0] = f64::NAN;
        let features = StaticFeatures::from_values(values);
        let err = planner.predict(&features).unwrap_err();
        assert!(matches!(err, Error::NonFiniteFeatures), "{err}");
    }

    #[test]
    fn predict_source_rejects_bad_kernels() {
        let planner = fast_planner(Device::TitanX);
        let err = planner
            .predict_source("int main() { return 0; }")
            .unwrap_err();
        assert!(
            matches!(err, Error::KernelParse { .. } | Error::NoKernelFound { .. }),
            "{err}"
        );
        let ok = planner.predict_source(
            "__kernel void scale(__global float* x) {
                 uint i = get_global_id(0);
                 x[i] = x[i] * 2.0f;
             }",
        );
        assert!(ok.is_ok());
    }

    #[test]
    fn save_load_round_trip_preserves_predictions() {
        let planner = fast_planner(Device::TeslaP100);
        let dir = std::env::temp_dir().join("gpufreq-planner-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("p100.json");
        planner.save(&path).unwrap();
        let loaded = TrainedPlanner::load(&path).unwrap();
        assert_eq!(loaded.device(), Device::TeslaP100);
        assert_eq!(loaded.artifact(), planner.artifact());
        let features = gpufreq_workloads::workload("mt").unwrap().static_features();
        assert_eq!(
            planner.predict(&features).unwrap(),
            loaded.predict(&features).unwrap()
        );
        // Loading for the wrong device is a typed mismatch.
        let err = TrainedPlanner::load_for_device(&path, Device::TitanX).unwrap_err();
        assert!(matches!(err, Error::DeviceMismatch { .. }), "{err}");
    }

    #[test]
    fn predict_batch_matches_predict_source_including_errors() {
        let planner = fast_planner(Device::TitanX).with_jobs(Some(4));
        let good = "__kernel void scale(__global float* x) {
             uint i = get_global_id(0);
             x[i] = x[i] * 2.0f;
         }";
        let bad = "int main() { return 0; }";
        let results = planner.predict_batch(&[good, bad, good]);
        assert_eq!(results.len(), 3);
        assert_eq!(
            results[0].as_ref().unwrap(),
            &planner.predict_source(good).unwrap()
        );
        assert!(results[1].is_err());
        assert_eq!(results[2].as_ref().unwrap(), results[0].as_ref().unwrap());
        // One distinct valid source is stored (racing duplicates
        // coalesce onto one entry; the error is never cached), and the
        // serial predict_source above was necessarily a hit.
        assert_eq!(planner.cache().len(), 1);
        assert!(planner.cache().hits() >= 1);
    }

    #[test]
    fn train_all_devices_covers_the_registry_in_order() {
        let planners = Planner::builder()
            .corpus(Corpus::Fast)
            .settings(6)
            .model_config(ModelConfig::relaxed())
            .jobs(Some(3))
            .train_all_devices()
            .unwrap();
        let devices: Vec<Device> = planners.iter().map(|p| p.device()).collect();
        assert_eq!(devices, Device::all().to_vec());
        // All three share one analysis cache.
        assert!(Arc::ptr_eq(planners[0].cache(), planners[2].cache()));
        for p in &planners {
            assert!(p.model().trained_on() > 0);
        }
    }

    #[test]
    fn unknown_workload_is_a_typed_error() {
        let planner = fast_planner(Device::TitanX);
        let err = planner.evaluate_workload("nbody").unwrap_err();
        assert!(matches!(err, Error::UnknownWorkload { .. }), "{err}");
    }

    #[test]
    fn analyze_kernel_file_reports_io_errors() {
        let err = analyze_kernel_file("/does/not/exist.cl").unwrap_err();
        assert!(matches!(err, Error::Io { .. }), "{err}");
    }
}
