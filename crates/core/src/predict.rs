//! The prediction phase (§3.1, Fig. 3) and the mem-L heuristic (§4.5).
//!
//! Given a new kernel's static features: build one feature vector per
//! candidate frequency configuration, predict both objectives with the
//! trained model, and reduce to the predicted Pareto set (Algorithm 1's
//! front, found by sort-and-scan). The lowest memory domain (405 MHz)
//! is excluded from modeling — its six settings are too few and too
//! erratic to learn (§4.3–4.4) — and is covered instead by the paper's
//! simple heuristic: always add the last (highest-core) mem-L
//! configuration to the predicted set.

use crate::dtoa;
use crate::model::{FreqScalingModel, ModelScorer};
use gpufreq_kernel::{memory_boundedness, FreqConfig, StaticFeatures, NUM_FEATURES};
use gpufreq_pareto::{pareto_set_fast, Objectives};
use gpufreq_sim::ClockTable;
use serde::{Deserialize, Serialize};

/// The memory clock (MHz) below which configurations are not modeled
/// but handled by the heuristic.
pub const MEM_L_MHZ: u32 = 405;

/// One candidate configuration with its predicted objectives.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictedPoint {
    /// The frequency configuration.
    pub config: FreqConfig,
    /// Model-predicted speedup and normalized energy.
    pub objectives: Objectives,
    /// `true` if this point came from the mem-L heuristic rather than
    /// the model.
    pub heuristic: bool,
}

/// The output of the prediction phase for one kernel.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParetoPrediction {
    /// Predictions for every modeled configuration (mem-l/h/H).
    pub all_points: Vec<PredictedPoint>,
    /// The predicted Pareto set (Algorithm 1 over `all_points`, plus
    /// the mem-L heuristic point when available).
    pub pareto_set: Vec<PredictedPoint>,
}

impl ParetoPrediction {
    /// The predicted-Pareto configurations (what a user would actually
    /// apply via NVML).
    pub fn configs(&self) -> Vec<FreqConfig> {
        self.pareto_set.iter().map(|p| p.config).collect()
    }

    /// The predicted point with maximum speedup, or `None` when the
    /// Pareto set is empty or no point has a finite speedup. NaN-safe:
    /// non-finite predictions are never recommended (and never panic).
    pub fn max_speedup(&self) -> Option<&PredictedPoint> {
        self.pareto_set
            .iter()
            .filter(|p| p.objectives.speedup.is_finite())
            .max_by(|a, b| a.objectives.speedup.total_cmp(&b.objectives.speedup))
    }

    /// The predicted point with minimum normalized energy, or `None`
    /// when the Pareto set is empty or no point has a finite energy.
    /// NaN-safe like [`max_speedup`](ParetoPrediction::max_speedup).
    pub fn min_energy(&self) -> Option<&PredictedPoint> {
        self.pareto_set
            .iter()
            .filter(|p| p.objectives.energy.is_finite())
            .min_by(|a, b| a.objectives.energy.total_cmp(&b.objectives.energy))
    }

    /// Serialize to compact JSON, byte-identical to
    /// `serde_json::to_string` but written straight into one
    /// preallocated buffer instead of through an intermediate value
    /// tree. This is the serializer the daemon uses (pinned against the
    /// generic one by unit test). Numbers go through an in-crate
    /// shortest-round-trip writer rather than `core::fmt`, and each
    /// distinct point is rendered once: a `pareto_set` entry that
    /// repeats an `all_points` entry, bit for bit, copies its bytes.
    pub fn to_compact_json(&self) -> String {
        let mut out = Vec::with_capacity(self.compact_json_capacity());
        out.extend_from_slice(b"{\"all_points\":[");
        let mut spans = Vec::with_capacity(self.all_points.len());
        for (i, p) in self.all_points.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            let start = out.len();
            write_point(p, &mut out);
            spans.push(start..out.len());
        }
        out.extend_from_slice(b"],\"pareto_set\":[");
        // Both lists are in candidate order, so each Pareto point is
        // looked for only past the last one found.
        let mut next = 0;
        for (i, p) in self.pareto_set.iter().enumerate() {
            if i > 0 {
                out.push(b',');
            }
            let found = self.all_points[next..]
                .iter()
                .position(|a| same_bits(a, p))
                .map(|j| next + j);
            match found {
                Some(j) => {
                    out.extend_from_within(spans[j].clone());
                    next = j + 1;
                }
                None => write_point(p, &mut out),
            }
        }
        out.extend_from_slice(b"]}");
        String::from_utf8(out).expect("the compact writer emits ASCII")
    }

    /// The buffer [`to_compact_json`](ParetoPrediction::to_compact_json)
    /// reserves, so a prediction is written without reallocating.
    fn compact_json_capacity(&self) -> usize {
        POINT_BYTES * (self.all_points.len() + self.pareto_set.len()) + 64
    }
}

/// Bytes of one rendered point with its separating comma: 84 of field
/// names and punctuation, two clocks of up to 4 digits, two objectives
/// of up to 20 characters (a shortest-round-trip f64 near 1), and
/// `false`.
const POINT_BYTES: usize = 84 + 1 + 2 * 4 + 2 * 20 + 5;

/// Equal down to the objective bits, so both render to the same bytes
/// (`==` would equate `0.0` with `-0.0`).
fn same_bits(a: &PredictedPoint, b: &PredictedPoint) -> bool {
    a.config == b.config
        && a.heuristic == b.heuristic
        && a.objectives.speedup.to_bits() == b.objectives.speedup.to_bits()
        && a.objectives.energy.to_bits() == b.objectives.energy.to_bits()
}

fn write_point(p: &PredictedPoint, out: &mut Vec<u8>) {
    out.extend_from_slice(b"{\"config\":{\"core_mhz\":");
    dtoa::push_u64(p.config.core_mhz.into(), out);
    out.extend_from_slice(b",\"mem_mhz\":");
    dtoa::push_u64(p.config.mem_mhz.into(), out);
    out.extend_from_slice(b"},\"objectives\":{\"speedup\":");
    dtoa::push_f64(p.objectives.speedup, out);
    out.extend_from_slice(b",\"energy\":");
    dtoa::push_f64(p.objectives.energy, out);
    out.extend_from_slice(if p.heuristic {
        b"},\"heuristic\":true}"
    } else {
        b"},\"heuristic\":false}"
    });
}

/// Run the full prediction phase for a kernel with `features` over the
/// actual configurations of `clocks` (Fig. 3, steps 1–9).
pub fn predict_pareto(
    model: &FreqScalingModel,
    features: &StaticFeatures,
    clocks: &ClockTable,
) -> ParetoPrediction {
    predict_pareto_at(model, features, clocks, &clocks.actual_configs())
}

/// The prediction phase over an explicit candidate-configuration list
/// (the paper's evaluation predicts at the same 40 sampled settings the
/// ground truth is measured at; production use passes all supported
/// configurations).
pub fn predict_pareto_at(
    model: &FreqScalingModel,
    features: &StaticFeatures,
    clocks: &ClockTable,
    candidates: &[FreqConfig],
) -> ParetoPrediction {
    predict_pareto_scored(&model.scorer(clocks), features, clocks, candidates)
}

/// [`predict_pareto_at`] with a prebuilt [`ModelScorer`] — callers that
/// predict for many kernels against one model (evaluation, error
/// analysis, serving) build the scorer once and amortize the
/// support-vector flattening across every call. With a scorer built
/// for `clocks` ([`FreqScalingModel::scorer`]) the result has the bits
/// of [`predict_pareto_at`].
pub fn predict_pareto_scored(
    scorer: &ModelScorer,
    features: &StaticFeatures,
    clocks: &ClockTable,
    candidates: &[FreqConfig],
) -> ParetoPrediction {
    let (modeled, mem_l) = plan_candidates(scorer, clocks, candidates);
    predict_planned(
        scorer,
        &modeled,
        mem_l.as_ref(),
        candidates.is_empty(),
        features,
    )
}

/// One candidate configuration with everything that does not depend on
/// the kernel precomputed: the scaled clock pair and the model head
/// responsible for its memory domain.
#[derive(Debug, Clone, Copy)]
struct PlannedCandidate {
    config: FreqConfig,
    core_scaled: f64,
    mem_scaled: f64,
    head: usize,
}

impl PlannedCandidate {
    fn new(scorer: &ModelScorer, config: FreqConfig) -> PlannedCandidate {
        PlannedCandidate {
            config,
            core_scaled: config.core_scaled(),
            mem_scaled: config.mem_scaled(),
            head: scorer.head_index(config),
        }
    }
}

/// Split `candidates` into the modeled block (mem above [`MEM_L_MHZ`],
/// per-config metadata precomputed) and the mem-L heuristic point.
fn plan_candidates(
    scorer: &ModelScorer,
    clocks: &ClockTable,
    candidates: &[FreqConfig],
) -> (Vec<PlannedCandidate>, Option<PlannedCandidate>) {
    let modeled = candidates
        .iter()
        .filter(|c| c.mem_mhz > MEM_L_MHZ)
        .map(|&config| PlannedCandidate::new(scorer, config))
        .collect();
    // §4.5: the heuristic point is the last (highest-core) mem-L
    // configuration of the device, independent of the candidate list.
    let mem_l = clocks
        .actual_configs_for(MEM_L_MHZ)
        .into_iter()
        .last()
        .map(|config| PlannedCandidate::new(scorer, config));
    (modeled, mem_l)
}

/// The prediction core over precomputed candidate metadata: one
/// per-kernel invariant hoist (`memory_boundedness`), one coordinate
/// row per candidate, then one block per memory-domain head (scored
/// along one line per memory clock), the Pareto front, and the
/// heuristic append. Close to the historical per-point scalar path on every
/// objective, and exactly the bits each candidate would get scored
/// alone (see [`ModelScorer`] for both bounds).
fn predict_planned(
    scorer: &ModelScorer,
    modeled: &[PlannedCandidate],
    mem_l: Option<&PlannedCandidate>,
    no_candidates: bool,
    features: &StaticFeatures,
) -> ParetoPrediction {
    // An empty candidate list has no prediction at all — not even the
    // mem-L heuristic point, which would otherwise smuggle a
    // configuration into a deliberately empty search space.
    if no_candidates {
        return ParetoPrediction {
            all_points: Vec::new(),
            pareto_set: Vec::new(),
        };
    }
    let boundedness = memory_boundedness(features);
    let score = |c: &PlannedCandidate, heuristic: bool| PredictedPoint {
        config: c.config,
        objectives: scorer.predict_prepared(
            features,
            boundedness,
            c.core_scaled,
            c.mem_scaled,
            c.head,
        ),
        heuristic,
    };
    // Steps 2–8: predict both objectives for every modeled setting,
    // one block per memory-domain head: the coordinate rows of the
    // candidates it owns, gathered in candidate order, so each
    // candidate's score lands back in its slot with the bits it would
    // get scored alone.
    let mut objectives = vec![Objectives::new(0.0, 0.0); modeled.len()];
    let (mut owned, mut block) = (Vec::new(), Vec::new());
    let (mut speedup_out, mut energy_out) = (Vec::new(), Vec::new());
    for head in 0..scorer.num_heads() {
        owned.clear();
        owned.extend((0..modeled.len()).filter(|&i| modeled[i].head == head));
        if owned.is_empty() {
            continue;
        }
        block.resize(owned.len() * NUM_FEATURES, 0.0);
        for (&i, row) in owned.iter().zip(block.chunks_exact_mut(NUM_FEATURES)) {
            let c = &modeled[i];
            scorer.write_scaled_row(
                features,
                boundedness,
                c.core_scaled,
                c.mem_scaled,
                row.try_into().expect("row is NUM_FEATURES wide"),
            );
        }
        scorer.score_block(head, &block, &mut speedup_out, &mut energy_out);
        for (k, &i) in owned.iter().enumerate() {
            objectives[i] = Objectives::new(speedup_out[k], energy_out[k]);
        }
    }
    let all_points: Vec<PredictedPoint> = modeled
        .iter()
        .zip(&objectives)
        .map(|(c, &objectives)| PredictedPoint {
            config: c.config,
            objectives,
            heuristic: false,
        })
        .collect();
    // Step 9: the Pareto front over the predictions — Algorithm 1's
    // index list, by the O(n log n) sort-and-scan.
    let mut pareto_set: Vec<PredictedPoint> = pareto_set_fast(&objectives)
        .into_iter()
        .map(|i| all_points[i])
        .collect();
    // §4.5: append the mem-L heuristic configuration. Its objectives
    // are still model-predicted (there is nothing better available
    // statically), but it is flagged as heuristic.
    if let Some(c) = mem_l {
        pareto_set.push(score(c, true));
    }
    ParetoPrediction {
        all_points,
        pareto_set,
    }
}

/// A fully prepared prediction pipeline for one `(model, device,
/// candidate list)` triple: the batched [`ModelScorer`] with the
/// device's core-clock grids, plus per-config metadata, all computed
/// once at build/load time. A cache-miss predict then costs one
/// analysis plus one scoring sweep — no per-request support-vector
/// flattening, grid building, head lookups, or frequency scaling; a
/// candidate in clock-table order finds its grid index by one bit
/// comparison. [`TrainedPlanner`](crate::TrainedPlanner) builds one at
/// train/load time and reuses it for every request.
#[derive(Debug, Clone)]
pub struct PredictPlan {
    scorer: ModelScorer,
    modeled: Vec<PlannedCandidate>,
    mem_l: Option<PlannedCandidate>,
    no_candidates: bool,
}

impl PredictPlan {
    /// Prepare the pipeline for `model` over an explicit candidate
    /// list (see [`predict_pareto_at`] for the candidate semantics).
    pub fn new(model: &FreqScalingModel, clocks: &ClockTable, candidates: &[FreqConfig]) -> Self {
        let scorer = model.scorer(clocks);
        let (modeled, mem_l) = plan_candidates(&scorer, clocks, candidates);
        PredictPlan {
            scorer,
            modeled,
            mem_l,
            no_candidates: candidates.is_empty(),
        }
    }

    /// Prepare the pipeline over every actual configuration of
    /// `clocks` (the production path: what serving sweeps per request).
    pub fn full(model: &FreqScalingModel, clocks: &ClockTable) -> Self {
        PredictPlan::new(model, clocks, &clocks.actual_configs())
    }

    /// Number of modeled candidate configurations in the sweep.
    pub fn num_candidates(&self) -> usize {
        self.modeled.len()
    }

    /// The batched scorer backing this plan (for callers scoring
    /// ad-hoc configurations outside the planned sweep).
    pub fn scorer(&self) -> &ModelScorer {
        &self.scorer
    }

    /// Run the prediction phase for one kernel. Bit-identical to
    /// [`predict_pareto_at`] over the plan's model and candidates.
    pub fn predict(&self, features: &StaticFeatures) -> ParetoPrediction {
        predict_planned(
            &self.scorer,
            &self.modeled,
            self.mem_l.as_ref(),
            self.no_candidates,
            features,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{FreqScalingModel, ModelConfig};
    use crate::pipeline::build_training_data;
    use gpufreq_ml::{SvmKernel, SvrParams};
    use gpufreq_sim::GpuSimulator;

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

    fn setup() -> (FreqScalingModel, GpuSimulator) {
        let sim = GpuSimulator::titan_x();
        let benches: Vec<_> = gpufreq_synth::generate_all()
            .into_iter()
            .step_by(9)
            .collect();
        let data = build_training_data(&sim, &benches, 10);
        (FreqScalingModel::train(&data, &fast_config()), sim)
    }

    #[test]
    fn prediction_covers_modeled_domains_only() {
        let (model, sim) = setup();
        let f = gpufreq_workloads::workload("knn")
            .unwrap()
            .static_features();
        let pred = predict_pareto(&model, &f, &sim.spec().clocks);
        // 71 + 50 + 50 modeled configurations.
        assert_eq!(pred.all_points.len(), 171);
        assert!(pred.all_points.iter().all(|p| p.config.mem_mhz > MEM_L_MHZ));
    }

    #[test]
    fn pareto_set_is_mutually_non_dominating_modulo_heuristic() {
        let (model, sim) = setup();
        let f = gpufreq_workloads::workload("kmeans")
            .unwrap()
            .static_features();
        let pred = predict_pareto(&model, &f, &sim.spec().clocks);
        let modeled: Vec<_> = pred.pareto_set.iter().filter(|p| !p.heuristic).collect();
        for a in &modeled {
            for b in &modeled {
                assert!(!a.objectives.dominates(&b.objectives));
            }
        }
    }

    #[test]
    fn heuristic_point_is_last_mem_l_config() {
        let (model, sim) = setup();
        let f = gpufreq_workloads::workload("mt").unwrap().static_features();
        let pred = predict_pareto(&model, &f, &sim.spec().clocks);
        let heuristic: Vec<_> = pred.pareto_set.iter().filter(|p| p.heuristic).collect();
        assert_eq!(heuristic.len(), 1);
        assert_eq!(heuristic[0].config, FreqConfig::new(405, 405));
    }

    #[test]
    fn extremes_exist_and_are_ordered() {
        let (model, sim) = setup();
        let f = gpufreq_workloads::workload("aes")
            .unwrap()
            .static_features();
        let pred = predict_pareto(&model, &f, &sim.spec().clocks);
        let max_s = pred.max_speedup().unwrap();
        let min_e = pred.min_energy().unwrap();
        assert!(max_s.objectives.speedup >= min_e.objectives.speedup);
        assert!(min_e.objectives.energy <= max_s.objectives.energy);
    }

    #[test]
    fn empty_candidate_list_yields_empty_prediction() {
        let (model, sim) = setup();
        let f = gpufreq_workloads::workload("knn")
            .unwrap()
            .static_features();
        let pred = predict_pareto_at(&model, &f, &sim.spec().clocks, &[]);
        assert!(pred.all_points.is_empty());
        assert!(pred.pareto_set.is_empty());
        assert!(pred.max_speedup().is_none());
        assert!(pred.min_energy().is_none());
    }

    #[test]
    fn extremes_are_nan_safe() {
        // A hand-built prediction with a NaN objective must not panic.
        let nan_point = PredictedPoint {
            config: FreqConfig::new(3505, 1001),
            objectives: Objectives::new(f64::NAN, f64::NAN),
            heuristic: false,
        };
        let good_point = PredictedPoint {
            config: FreqConfig::new(3505, 1102),
            objectives: Objectives::new(1.1, 0.9),
            heuristic: false,
        };
        let pred = ParetoPrediction {
            all_points: vec![nan_point, good_point],
            pareto_set: vec![nan_point, good_point],
        };
        // Non-finite predictions are excluded from both extremes: the
        // finite point wins each, with no panic.
        assert_eq!(pred.max_speedup().unwrap().config, good_point.config);
        assert_eq!(pred.min_energy().unwrap().config, good_point.config);

        // A set with only NaN objectives recommends nothing.
        let all_nan = ParetoPrediction {
            all_points: vec![nan_point],
            pareto_set: vec![nan_point],
        };
        assert!(all_nan.max_speedup().is_none());
        assert!(all_nan.min_energy().is_none());
    }

    #[test]
    fn compact_json_matches_generic_serializer() {
        let (model, sim) = setup();
        let f = gpufreq_workloads::workload("knn")
            .unwrap()
            .static_features();
        let pred = predict_pareto(&model, &f, &sim.spec().clocks);
        assert_eq!(
            pred.to_compact_json(),
            serde_json::to_string(&pred).unwrap()
        );
        // Degenerate and non-finite cases follow the generic writer
        // too: empty arrays, NaN → null, integral floats with `.0`,
        // negative zero.
        let empty = ParetoPrediction {
            all_points: Vec::new(),
            pareto_set: Vec::new(),
        };
        assert_eq!(
            empty.to_compact_json(),
            serde_json::to_string(&empty).unwrap()
        );
        for (s, e) in [
            (f64::NAN, f64::INFINITY),
            (2.0, -0.0),
            (1e20, -1.0e-17),
            (0.1 + 0.2, 1234567890123456.5),
        ] {
            let odd = ParetoPrediction {
                all_points: vec![PredictedPoint {
                    config: FreqConfig::new(3505, 1102),
                    objectives: Objectives::new(s, e),
                    heuristic: false,
                }],
                pareto_set: vec![PredictedPoint {
                    config: FreqConfig::new(405, 405),
                    objectives: Objectives::new(e, s),
                    heuristic: true,
                }],
            };
            assert_eq!(odd.to_compact_json(), serde_json::to_string(&odd).unwrap());
        }
    }

    #[test]
    fn compact_json_copies_only_bit_identical_points() {
        let point = |core, speedup, energy, heuristic| PredictedPoint {
            config: FreqConfig::new(3505, core),
            objectives: Objectives::new(speedup, energy),
            heuristic,
        };
        let all = vec![
            point(1001, 0.0, 1.0, false),
            point(1102, 1.5, 0.5, false),
            point(1202, 2.0, f64::NAN, false),
        ];
        let pred = ParetoPrediction {
            pareto_set: vec![
                // Equal to all[0] under `==`, but it prints `-0.0`.
                point(1001, -0.0, 1.0, false),
                all[1],
                point(1102, 1.5, 0.5, true),
                all[2],
                // Behind the last copied entry: rendered afresh.
                all[0],
            ],
            all_points: all,
        };
        assert_eq!(
            pred.to_compact_json(),
            serde_json::to_string(&pred).unwrap()
        );
    }

    #[test]
    fn compact_json_fits_its_reservation() {
        let (model, _) = setup();
        for device in gpufreq_sim::Device::all() {
            let sim = device.simulator();
            for w in gpufreq_workloads::all_workloads() {
                let pred = predict_pareto(&model, &w.static_features(), &sim.spec().clocks);
                let json = pred.to_compact_json();
                assert!(
                    json.len() <= pred.compact_json_capacity(),
                    "{} on {}: {} bytes in a {}-byte reservation",
                    w.name,
                    device.id(),
                    json.len(),
                    pred.compact_json_capacity()
                );
            }
        }
    }

    #[test]
    fn p100_prediction_works_without_mem_l() {
        // The P100 has a single 715 MHz domain: no mem-L, no heuristic.
        let (model, _) = setup();
        let sim = GpuSimulator::tesla_p100();
        let f = gpufreq_workloads::workload("knn")
            .unwrap()
            .static_features();
        let pred = predict_pareto(&model, &f, &sim.spec().clocks);
        assert!(!pred.all_points.is_empty());
        assert!(pred.pareto_set.iter().all(|p| !p.heuristic));
    }
}
