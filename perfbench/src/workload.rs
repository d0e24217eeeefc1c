//! The three workloads: the kernel pool, the seeded request streams,
//! and the byte-exact reference answers they are checked against.

use gpufreq_core::{Corpus, ModelConfig, ParetoPrediction, Planner, TrainedPlanner};
use gpufreq_serve::codec::http_post;
use gpufreq_serve::http::Route;
use gpufreq_serve::protocol::BatchResult;
use gpufreq_serve::{Request, Response};
use gpufreq_sim::Device;
use std::sync::Arc;

/// Sampled settings per micro-benchmark that `serve --fast` trains on.
pub const FAST_SETTINGS: usize = 20;
/// Kernels in one `routed_batch_http` batch.
pub const BATCH: usize = 8;
/// Distinct batches the routed stream cycles through: eight rounds of
/// the pool cut into batches on each of the three devices.
pub const BATCHES: usize = 72;
/// Entries of the daemon's front cache (the `ServerConfig` default).
pub const FRONT_CACHE_ENTRIES: usize = 4096;
/// Client connections of every workload, each on its own thread (at
/// most `nproc` on the two-core machines this targets).
pub const CONNECTIONS: usize = 2;
/// One hot response in this many is compared byte for byte; the rest
/// are checked by tag, length and both ends.
pub const HOT_SAMPLE_EVERY: u64 = 16;

/// A small deterministic generator (SplitMix64) for seeded orders.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed ^ 0x5851_f42d_4c95_7f2d)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        mix(self.0)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }

    pub fn shuffle<T>(&mut self, items: &mut [T]) {
        for i in (1..items.len()).rev() {
            items.swap(i, self.below(i + 1));
        }
    }
}

/// The SplitMix64 finalizer: a cheap, well-spread hash of one word.
pub fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The benchmark's named workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Never-seen Titan X sources to one daemon over the line protocol.
    ColdTitanx,
    /// The same pool on all three devices, front-cache hits, deep pipeline.
    HotRepeat,
    /// Pipelined HTTP batches through the router to two replicas.
    RoutedBatchHttp,
}

impl Kind {
    pub const ALL: [Kind; 3] = [Kind::ColdTitanx, Kind::HotRepeat, Kind::RoutedBatchHttp];

    pub fn name(self) -> &'static str {
        match self {
            Kind::ColdTitanx => "cold_titanx",
            Kind::HotRepeat => "hot_repeat",
            Kind::RoutedBatchHttp => "routed_batch_http",
        }
    }

    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Requests kept in flight per connection.
    pub fn pipeline(self) -> usize {
        match self {
            Kind::ColdTitanx => 2,
            Kind::HotRepeat => 16,
            Kind::RoutedBatchHttp => 4,
        }
    }

    /// Devices the daemons serve (and the reference is trained for).
    pub fn devices(self) -> Vec<Device> {
        match self {
            Kind::ColdTitanx => vec![Device::TitanX],
            Kind::HotRepeat | Kind::RoutedBatchHttp => Device::all().to_vec(),
        }
    }

    /// Fresh start-ups timed per untraced run (`setup_s` is their
    /// median; each measures its share of the window). The routed stack
    /// trains two replicas per start-up, so it is started once to keep
    /// the whole run within its time budget.
    pub fn setups(self) -> usize {
        match self {
            Kind::ColdTitanx | Kind::HotRepeat => 3,
            Kind::RoutedBatchHttp => 1,
        }
    }

    /// Whether the entry point is the router's HTTP gateway.
    pub fn http(self) -> bool {
        self == Kind::RoutedBatchHttp
    }
}

/// One pool kernel.
#[derive(Debug, Clone)]
pub struct Kernel {
    pub name: String,
    pub source: String,
}

/// The 12 application kernels plus every ninth synthetic one (12 of
/// the 106), in the order `seed` selects.
pub fn pool(seed: u64) -> Vec<Kernel> {
    let mut pool: Vec<Kernel> = gpufreq_workloads::all_workloads()
        .into_iter()
        .map(|w| Kernel {
            name: w.name.to_string(),
            source: w.source,
        })
        .collect();
    pool.extend(
        gpufreq_synth::generate_all()
            .into_iter()
            .step_by(9)
            .map(|b| Kernel {
                name: b.name,
                source: b.source,
            }),
    );
    Rng::new(seed).shuffle(&mut pool);
    pool
}

/// Train, in-process, exactly the models `gpufreq serve --fast` serves
/// for `devices` (same corpus, settings, hyper-parameters and entry
/// point), in `devices` order.
pub fn train(devices: &[Device]) -> Result<Vec<TrainedPlanner>, String> {
    let builder = Planner::builder()
        .corpus(Corpus::Fast)
        .settings(FAST_SETTINGS)
        .model_config(ModelConfig::fast());
    let planners = if devices.len() == Device::all().len() {
        builder.train_all_devices()
    } else {
        devices
            .iter()
            .map(|&d| builder.clone().device(d).train())
            .collect()
    };
    planners.map_err(|e| format!("training the reference model: {e}"))
}

/// The in-process answers for every (device, pool kernel).
pub struct Reference {
    pub devices: Vec<Device>,
    /// `predictions[d][k]` for device `devices[d]` and pool kernel `k`.
    pub predictions: Vec<Vec<ParetoPrediction>>,
    /// `predict[d][k]`: the `predict` response line (no newline).
    pub predict: Vec<Vec<Arc<str>>>,
}

impl Reference {
    pub fn build(planners: &[TrainedPlanner], pool: &[Kernel]) -> Result<Reference, String> {
        let mut predictions = Vec::new();
        let mut predict = Vec::new();
        for planner in planners {
            let device = planner.device();
            let preds: Vec<ParetoPrediction> = pool
                .iter()
                .map(|k| {
                    planner
                        .predict_source(&k.source)
                        .map_err(|e| format!("reference {device} {}: {e}", k.name))
                })
                .collect::<Result<_, _>>()?;
            predict.push(
                preds
                    .iter()
                    .map(|p| {
                        let body = Response::Predict {
                            device,
                            prediction: p.clone(),
                        }
                        .to_json();
                        Arc::from(body.as_str())
                    })
                    .collect(),
            );
            predictions.push(preds);
        }
        Ok(Reference {
            devices: planners.iter().map(|p| p.device()).collect(),
            predictions,
            predict,
        })
    }

    /// The part of this reference for `devices`, in that order.
    pub fn only(&self, devices: &[Device]) -> Reference {
        let index = |device: &Device| {
            self.devices
                .iter()
                .position(|d| d == device)
                .expect("the reference covers every workload device")
        };
        Reference {
            devices: devices.to_vec(),
            predictions: devices
                .iter()
                .map(|d| self.predictions[index(d)].clone())
                .collect(),
            predict: devices
                .iter()
                .map(|d| self.predict[index(d)].clone())
                .collect(),
        }
    }

    /// The `predict_batch` response line for `kernels` on device `d`.
    pub fn batch(&self, d: usize, kernels: &[usize]) -> String {
        Response::PredictBatch {
            device: self.devices[d],
            results: kernels
                .iter()
                .map(|&k| BatchResult::Ok(self.predictions[d][k].clone()))
                .collect(),
        }
        .to_json()
    }
}

/// One request with the exact response it must get.
#[derive(Debug, Clone)]
pub struct Exchange {
    /// Wire bytes: a protocol line with its `\n`, or a framed HTTP POST.
    pub request: String,
    /// The response body (line without `\n`, or HTTP body).
    pub expect: Arc<str>,
}

/// Frame a request body for the workload's entry point.
pub fn frame(body: &str, http: bool) -> String {
    if http {
        http_post(Route::Predict.as_str(), body)
    } else {
        format!("{body}\n")
    }
}

/// Single predicts for every (device, pool kernel), device-major:
/// the start-up check that the daemons serve the reference model.
pub fn every_predict(reference: &Reference, pool: &[Kernel], http: bool) -> Vec<Exchange> {
    let mut out = Vec::new();
    for (d, device) in reference.devices.iter().enumerate() {
        for (k, kernel) in pool.iter().enumerate() {
            out.push(Exchange {
                request: frame(
                    &Request::predict(*device, kernel.source.clone()).to_json(),
                    http,
                ),
                expect: Arc::clone(&reference.predict[d][k]),
            });
        }
    }
    out
}

/// A workload's request stream.
pub enum Stream {
    /// `cold_titanx`: each request is pool kernel `order[i % n]` with a
    /// unique comment stamp spliced between `prefix` and `suffix`, so
    /// no cache ever sees it twice while the analysis cost is unchanged.
    Stamped {
        /// `(prefix, suffix)` of the line around the stamp, per kernel.
        templates: Vec<(String, String)>,
        expect: Vec<Arc<str>>,
    },
    /// `hot_repeat` and `routed_batch_http`: fixed exchanges cycled in
    /// order (each connection starts at its own offset).
    Cycle(Vec<Exchange>),
}

/// The marker the stamped templates are split at.
const STAMP: &str = "@STAMP@";

impl Stream {
    pub fn build(kind: Kind, seed: u64, reference: &Reference, pool: &[Kernel]) -> Stream {
        match kind {
            Kind::ColdTitanx => {
                let device = reference.devices[0];
                let templates = pool
                    .iter()
                    .map(|k| {
                        let source = format!("// perfbench cold {seed} {STAMP}\n{}", k.source);
                        let line = Request::predict(device, source).to_json();
                        let (prefix, suffix) = line
                            .split_once(STAMP)
                            .expect("the stamp survives JSON escaping");
                        (prefix.to_string(), format!("{suffix}\n"))
                    })
                    .collect();
                Stream::Stamped {
                    templates,
                    expect: reference.predict[0].clone(),
                }
            }
            Kind::HotRepeat => {
                let mut all = every_predict(reference, pool, false);
                Rng::new(seed ^ 0x407).shuffle(&mut all);
                Stream::Cycle(all)
            }
            Kind::RoutedBatchHttp => {
                // Each round cuts one seeded permutation of the pool per
                // device into batches, so every (device, kernel) pair is
                // sent equally often whatever the seed; the device
                // rotates from batch to batch.
                let mut rng = Rng::new(seed ^ 0xba7c);
                let devices = reference.devices.len();
                let per_device = pool.len() / BATCH;
                let mut batches = Vec::with_capacity(BATCHES);
                while batches.len() < BATCHES {
                    let orders: Vec<Vec<usize>> = (0..devices)
                        .map(|_| {
                            let mut order: Vec<usize> = (0..pool.len()).collect();
                            rng.shuffle(&mut order);
                            order
                        })
                        .collect();
                    for j in 0..devices * per_device {
                        let (d, part) = (j % devices, j / devices);
                        let picks = &orders[d][part * BATCH..(part + 1) * BATCH];
                        let body = Request::predict_batch(
                            reference.devices[d],
                            picks.iter().map(|&k| pool[k].source.clone()).collect(),
                        )
                        .to_json();
                        batches.push(Exchange {
                            request: frame(&body, true),
                            expect: Arc::from(reference.batch(d, picks).as_str()),
                        });
                    }
                }
                Stream::Cycle(batches)
            }
        }
    }

    /// Number of distinct request shapes (kernels or exchanges).
    pub fn len(&self) -> usize {
        match self {
            Stream::Stamped { templates, .. } => templates.len(),
            Stream::Cycle(exchanges) => exchanges.len(),
        }
    }

    /// Write request `n` of connection `conn` (of `conns`) into `out`,
    /// returning the expected response body.
    pub fn request(&self, conn: usize, conns: usize, n: u64, out: &mut Vec<u8>) -> &Arc<str> {
        let offset = conn * self.len() / conns;
        let i = (offset + n as usize) % self.len();
        match self {
            Stream::Stamped { templates, expect } => {
                let (prefix, suffix) = &templates[i];
                out.extend_from_slice(prefix.as_bytes());
                out.extend_from_slice(format!("{conn}.{n}").as_bytes());
                out.extend_from_slice(suffix.as_bytes());
                &expect[i]
            }
            Stream::Cycle(exchanges) => {
                out.extend_from_slice(exchanges[i].request.as_bytes());
                &exchanges[i].expect
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_seed_selects_the_pool_order_and_nothing_else() {
        let a = pool(1);
        let b = pool(1);
        let c = pool(2);
        assert_eq!(a.len(), 24);
        let names = |p: &[Kernel]| p.iter().map(|k| k.name.clone()).collect::<Vec<_>>();
        assert_eq!(names(&a), names(&b));
        assert_ne!(names(&a), names(&c));
        let mut sorted_a = names(&a);
        let mut sorted_c = names(&c);
        sorted_a.sort();
        sorted_c.sort();
        assert_eq!(sorted_a, sorted_c);
    }

    #[test]
    fn workload_names_round_trip() {
        for kind in Kind::ALL {
            assert_eq!(Kind::parse(kind.name()), Some(kind));
        }
        assert_eq!(Kind::parse("nope"), None);
    }
}
