//! The parallel execution engine: deterministic fan-out of the
//! embarrassingly parallel stages of the pipeline.
//!
//! Everything above [`GpuSimulator::sweep`](gpufreq_sim::GpuSimulator)
//! — per-benchmark training sweeps, per-workload evaluation,
//! per-source batch prediction — is
//! independent work over an indexed list. [`Engine`] packages the one
//! primitive they all need: [`Engine::map`], a scoped-thread fan-out
//! over a slice whose results are merged back **in input order**, so a
//! parallel run is bit-identical to a serial one regardless of how the
//! OS schedules the workers (pinned by `tests/determinism.rs`).
//!
//! ```
//! use gpufreq_core::Engine;
//!
//! let engine = Engine::new(Some(4));
//! let squares = engine.map(&[1u64, 2, 3, 4], |&x| x * x);
//! assert_eq!(squares, vec![1, 4, 9, 16]);
//! // Same result, same order, on one thread:
//! assert_eq!(Engine::serial().map(&[1u64, 2, 3, 4], |&x| x * x), squares);
//! ```
//!
//! The module also hosts [`ProfileCache`], the shared source-keyed
//! kernel-analysis cache used by
//! [`TrainedPlanner::predict_batch`](crate::TrainedPlanner::predict_batch),
//! and the CLI's `sweep` subcommand, so a
//! kernel that appears many times in a batch is parsed and analyzed
//! exactly once.

use crate::error::Result;
use crate::planner::analyze_source;
use gpufreq_kernel::{KernelProfile, StaticFeatures};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

/// A deterministic parallel map over indexed work items.
///
/// `jobs = None` resolves to [`std::thread::available_parallelism`]
/// (capped at 16); `Some(1)` runs strictly serially on the calling
/// thread (no worker threads are spawned at all); `Some(n)` pins the
/// worker count — the knob CI uses to exercise both schedules on
/// 2-core runners.
///
/// Results never depend on the worker count: work items are claimed
/// from an atomic queue but merged back by index, so `map` with any
/// `jobs` value returns exactly what a serial loop would.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Engine {
    jobs: Option<usize>,
}

impl Default for Engine {
    /// An engine using every available core (capped at 16).
    fn default() -> Engine {
        Engine { jobs: None }
    }
}

impl Engine {
    /// Hard cap on worker threads, matching the simulator's sweep cap.
    const MAX_JOBS: usize = 16;

    /// An engine with an explicit worker count (`None` = all cores).
    pub fn new(jobs: Option<usize>) -> Engine {
        Engine { jobs }
    }

    /// The strictly serial engine: `map` degenerates to a plain loop.
    pub fn serial() -> Engine {
        Engine { jobs: Some(1) }
    }

    /// The configured job override, if any.
    pub fn jobs(&self) -> Option<usize> {
        self.jobs
    }

    /// The number of worker threads `map` will actually use for
    /// `items` items: the override (or core count), clamped to
    /// `[1, min(items, 16)]`.
    pub fn effective_jobs(&self, items: usize) -> usize {
        let requested = self
            .jobs
            .unwrap_or_else(|| std::thread::available_parallelism().map_or(4, |n| n.get()));
        requested.clamp(1, Engine::MAX_JOBS).min(items.max(1))
    }

    /// The engine to hand to *nested* parallel stages: serial whenever
    /// this engine already fans out, so a parallel outer loop does not
    /// multiply into `jobs x jobs` oversubscription.
    pub fn inner(&self, items: usize) -> Engine {
        if self.effective_jobs(items) > 1 {
            Engine::serial()
        } else {
            *self
        }
    }

    /// Apply `f` to every element of `items` and return the results in
    /// input order.
    ///
    /// Work is distributed over [`effective_jobs`](Engine::effective_jobs)
    /// scoped threads pulling indices from an atomic queue; the merge
    /// is by index, so the output is identical for every worker count.
    /// A panic in `f` propagates to the caller.
    pub fn map<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(&T) -> R + Sync,
    {
        self.map_indexed(items, |_, item| f(item))
    }

    /// [`map`](Engine::map) where `f` also receives the item's index —
    /// for stages that label their output by position.
    pub fn map_indexed<T, R, F>(&self, items: &[T], f: F) -> Vec<R>
    where
        T: Sync,
        R: Send,
        F: Fn(usize, &T) -> R + Sync,
    {
        let threads = self.effective_jobs(items.len());
        if threads <= 1 {
            return items.iter().enumerate().map(|(i, t)| f(i, t)).collect();
        }
        let next = AtomicUsize::new(0);
        let indexed: Vec<(usize, R)> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..threads)
                .map(|_| {
                    s.spawn(|| {
                        let mut local = Vec::new();
                        loop {
                            // ordering: work distribution only — the
                            // RMW hands each index to exactly one
                            // worker; results are published by the
                            // scope join, not by this counter.
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= items.len() {
                                break;
                            }
                            local.push((i, f(i, &items[i])));
                        }
                        local
                    })
                })
                .collect();
            workers
                .into_iter()
                .flat_map(|w| w.join().expect("engine worker panicked"))
                .collect()
        });
        let mut out: Vec<Option<R>> = Vec::with_capacity(items.len());
        out.resize_with(items.len(), || None);
        for (i, r) in indexed {
            out[i] = Some(r);
        }
        out.into_iter()
            .map(|r| r.expect("every index produced"))
            .collect()
    }
}

/// A shared, thread-safe kernel-analysis cache keyed by the (hashed)
/// kernel source.
///
/// Parsing and statically analyzing an OpenCL-C kernel is pure — the
/// same source always yields the same [`StaticFeatures`] and
/// [`KernelProfile`] — so repeated kernels (a batch with duplicates,
/// the same file swept on several devices) only pay for analysis
/// once. The full source string is
/// the map key (hashed internally by the table), so distinct kernels
/// can never alias, whatever their hashes do. Successful analyses are
/// cached; failing sources are re-analyzed on every call so each
/// caller gets its own fully detailed error value.
///
/// All methods take `&self`; one cache can be shared across the
/// engine's worker threads (and across planners) behind an
/// [`Arc`].
///
/// By default the cache is **unbounded** (batch runs are finite, and
/// existing callers rely on every source staying resident). Long-lived
/// processes — the `gpufreq-serve` daemon holds one cache for the
/// lifetime of the server — construct it with
/// [`with_capacity`](ProfileCache::with_capacity) instead: once the
/// bound is reached, the least-recently-used entry is evicted
/// (counted by [`evictions`](ProfileCache::evictions)). Eviction only
/// drops the cache's own reference; [`Arc`]s already handed to
/// callers stay fully usable.
#[derive(Debug, Default)]
pub struct ProfileCache {
    inner: Mutex<CacheInner>,
    /// `None` = unbounded (the default).
    capacity: Option<usize>,
    hits: AtomicUsize,
    misses: AtomicUsize,
    evictions: AtomicUsize,
}

/// Map + recency index under one lock, so eviction decisions are
/// consistent with lookups. Keys are shared `Arc<str>`s: the recency
/// index holds clones of the map's keys, not second copies of the
/// (kilobytes-long) source text, and bumping recency on a hit clones
/// a pointer, not the source.
#[derive(Debug, Default)]
struct CacheInner {
    entries: HashMap<Arc<str>, CacheSlot>,
    /// Recency index: strictly increasing tick → source key. The
    /// smallest tick is the least-recently-used entry. Only
    /// maintained for bounded caches — the default unbounded cache
    /// never consults it, so its hit path stays a single map lookup.
    recency: BTreeMap<u64, Arc<str>>,
    tick: u64,
}

#[derive(Debug)]
struct CacheSlot {
    analyzed: Arc<(StaticFeatures, KernelProfile)>,
    /// The map key, shared with the recency index.
    key: Arc<str>,
    /// This entry's current position in the recency index.
    tick: u64,
}

impl CacheInner {
    /// Mark `key` as most recently used, keeping `recency` in sync.
    /// Bounded caches only — unbounded ones skip recency entirely.
    fn touch(&mut self, key: &str) {
        self.tick += 1;
        let tick = self.tick;
        if let Some(slot) = self.entries.get_mut(key) {
            self.recency.remove(&slot.tick);
            slot.tick = tick;
            self.recency.insert(tick, Arc::clone(&slot.key));
        }
    }
}

impl ProfileCache {
    /// An empty, unbounded cache.
    pub fn new() -> ProfileCache {
        ProfileCache::default()
    }

    /// An empty cache bounded to at most `capacity` entries, evicting
    /// least-recently-used sources beyond that. A capacity of `0` is
    /// treated as `1` (the entry just analyzed is always insertable).
    pub fn with_capacity(capacity: usize) -> ProfileCache {
        ProfileCache {
            capacity: Some(capacity.max(1)),
            ..ProfileCache::default()
        }
    }

    /// An empty, unbounded cache ready for sharing.
    pub fn shared() -> Arc<ProfileCache> {
        Arc::new(ProfileCache::new())
    }

    /// The configured entry bound (`None` = unbounded).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// Analyze `source` (see [`analyze_source`]), returning the cached
    /// result when this source was analyzed before.
    ///
    /// # Errors
    /// Exactly those of [`analyze_source`]; errors are never cached.
    pub fn analyze(&self, source: &str) -> Result<Arc<(StaticFeatures, KernelProfile)>> {
        {
            let mut inner = self.inner.lock().expect("cache poisoned");
            if let Some(slot) = inner.entries.get(source) {
                let hit = Arc::clone(&slot.analyzed);
                // ordering: hit/miss/eviction counters are telemetry;
                // cached entries are published by the cache mutex,
                // never by these counters (all sites in this file).
                self.hits.fetch_add(1, Ordering::Relaxed);
                // Only bounded caches pay for recency bookkeeping;
                // the (default) unbounded hit path is one lookup.
                if self.capacity.is_some() {
                    inner.touch(source);
                }
                return Ok(hit);
            }
        }
        // ordering: telemetry (see the counter note in the hit path).
        self.misses.fetch_add(1, Ordering::Relaxed);
        // Analyze outside the lock: parsing is the expensive part and
        // other sources should not serialize behind it. Two threads
        // racing on the same new source both analyze, then agree.
        let analyzed = Arc::new(analyze_source(source, None)?);
        let mut inner = self.inner.lock().expect("cache poisoned");
        let result = match inner.entries.get(source) {
            // The race lost: keep the first insertion.
            Some(slot) => Arc::clone(&slot.analyzed),
            None => {
                let key: Arc<str> = Arc::from(source);
                inner.entries.insert(
                    Arc::clone(&key),
                    CacheSlot {
                        analyzed: Arc::clone(&analyzed),
                        key,
                        tick: 0, // fixed by touch() for bounded caches
                    },
                );
                analyzed
            }
        };
        if let Some(capacity) = self.capacity {
            inner.touch(source);
            while inner.entries.len() > capacity {
                let Some((_, lru_key)) = inner.recency.pop_first() else {
                    break;
                };
                inner.entries.remove(lru_key.as_ref());
                // ordering: telemetry (see the hit-path note).
                self.evictions.fetch_add(1, Ordering::Relaxed);
            }
        }
        Ok(result)
    }

    /// Number of calls answered from the cache so far.
    pub fn hits(&self) -> usize {
        // ordering: telemetry read; nothing synchronizes on the
        // counters (here and in the two reads below).
        self.hits.load(Ordering::Relaxed)
    }

    /// Number of calls not answered from the cache (each ran the
    /// analysis, whether or not it succeeded).
    pub fn misses(&self) -> usize {
        // ordering: telemetry read (see `hits`).
        self.misses.load(Ordering::Relaxed)
    }

    /// Number of least-recently-used entries evicted to keep the cache
    /// within [`with_capacity`](ProfileCache::with_capacity). Always 0
    /// for the default unbounded cache.
    pub fn evictions(&self) -> usize {
        // ordering: telemetry read (see `hits`).
        self.evictions.load(Ordering::Relaxed)
    }

    /// Number of distinct sources currently cached.
    pub fn len(&self) -> usize {
        self.inner.lock().expect("cache poisoned").entries.len()
    }

    /// Whether the cache holds no entries yet.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const SAXPY: &str = "__kernel void saxpy(__global float* x, __global float* y, float a) {
        uint i = get_global_id(0);
        y[i] = a * x[i] + y[i];
    }";

    #[test]
    fn map_preserves_input_order_for_any_job_count() {
        let items: Vec<u64> = (0..97).collect();
        let serial = Engine::serial().map(&items, |&x| x.wrapping_mul(x) ^ 0xabc);
        for jobs in [2, 3, 4, 16, 64] {
            let parallel = Engine::new(Some(jobs)).map(&items, |&x| x.wrapping_mul(x) ^ 0xabc);
            assert_eq!(parallel, serial, "jobs = {jobs}");
        }
    }

    #[test]
    fn map_indexed_sees_true_indices() {
        let items = ["a", "b", "c"];
        let got = Engine::new(Some(2)).map_indexed(&items, |i, s| format!("{i}:{s}"));
        assert_eq!(got, vec!["0:a", "1:b", "2:c"]);
    }

    #[test]
    fn map_handles_empty_and_single_inputs() {
        let engine = Engine::new(Some(8));
        assert_eq!(engine.map(&[] as &[u32], |&x| x), Vec::<u32>::new());
        assert_eq!(engine.map(&[7u32], |&x| x + 1), vec![8]);
    }

    #[test]
    fn effective_jobs_clamps() {
        assert_eq!(Engine::new(Some(0)).effective_jobs(10), 1);
        assert_eq!(Engine::new(Some(4)).effective_jobs(2), 2);
        assert_eq!(Engine::new(Some(99)).effective_jobs(1000), 16);
        assert_eq!(Engine::serial().effective_jobs(1000), 1);
    }

    #[test]
    fn inner_engine_is_serial_under_a_parallel_outer() {
        assert_eq!(Engine::new(Some(4)).inner(8), Engine::serial());
        // A serial outer leaves the inner stage free to parallelize.
        assert_eq!(Engine::serial().inner(8), Engine::serial());
        let wide = Engine::new(Some(4));
        assert_eq!(wide.inner(1), wide);
    }

    #[test]
    fn cache_hits_after_first_analysis() {
        let cache = ProfileCache::new();
        let first = cache.analyze(SAXPY).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (0, 1, 1));
        let second = cache.analyze(SAXPY).unwrap();
        assert_eq!((cache.hits(), cache.misses(), cache.len()), (1, 1, 1));
        assert_eq!(first.0, second.0);
        assert!(Arc::ptr_eq(&first, &second), "hit returns the same entry");
    }

    #[test]
    fn cache_errors_are_not_cached() {
        let cache = ProfileCache::new();
        assert!(cache.analyze("int main() {}").is_err());
        assert!(cache.analyze("int main() {}").is_err());
        assert_eq!(cache.len(), 0);
        assert_eq!(cache.misses(), 2, "every failing call re-analyzes");
        assert_eq!(cache.hits(), 0);
    }

    /// A trivially valid kernel whose source embeds `i`, so each index
    /// is a distinct cache key.
    fn numbered_kernel(i: usize) -> String {
        format!(
            "__kernel void k{i}(__global float* x) {{
                uint t = get_global_id(0);
                x[t] = x[t] * {i}.0f;
            }}"
        )
    }

    #[test]
    fn bounded_cache_evicts_least_recently_used() {
        let cache = ProfileCache::with_capacity(2);
        assert_eq!(cache.capacity(), Some(2));
        let k0 = numbered_kernel(0);
        let k1 = numbered_kernel(1);
        let k2 = numbered_kernel(2);
        cache.analyze(&k0).unwrap();
        cache.analyze(&k1).unwrap();
        // Touch k0 so k1 becomes the LRU entry...
        cache.analyze(&k0).unwrap();
        // ...then overflow: k1 is evicted, k0 survives.
        cache.analyze(&k2).unwrap();
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.evictions(), 1);
        let hits_before = cache.hits();
        cache.analyze(&k0).unwrap();
        assert_eq!(cache.hits(), hits_before + 1, "k0 was retained");
        cache.analyze(&k1).unwrap();
        assert_eq!(cache.misses(), 4, "k1 was evicted and re-analyzed");
        assert_eq!(cache.evictions(), 2, "re-inserting k1 evicted again");
    }

    #[test]
    fn eviction_keeps_in_flight_arcs_alive() {
        let cache = ProfileCache::with_capacity(1);
        let k0 = numbered_kernel(0);
        let held = cache.analyze(&k0).unwrap();
        // Evict k0 by inserting another source.
        cache.analyze(&numbered_kernel(1)).unwrap();
        assert_eq!(cache.len(), 1);
        assert_eq!(cache.evictions(), 1);
        // The evicted entry's Arc is still fully usable.
        assert_eq!(held.1.name, "k0");
        // And re-analyzing k0 is a miss producing an equal result.
        let again = cache.analyze(&k0).unwrap();
        assert!(!Arc::ptr_eq(&held, &again));
        assert_eq!(held.0, again.0);
    }

    #[test]
    fn default_cache_is_unbounded() {
        let cache = ProfileCache::new();
        assert_eq!(cache.capacity(), None);
        for i in 0..64 {
            cache.analyze(&numbered_kernel(i)).unwrap();
        }
        assert_eq!(cache.len(), 64);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn cache_is_shareable_across_engine_workers() {
        let cache = ProfileCache::shared();
        let sources = vec![SAXPY; 32];
        let engine = Engine::new(Some(4));
        let results = engine.map(&sources, |src| cache.analyze(src).unwrap());
        assert_eq!(results.len(), 32);
        assert_eq!(cache.len(), 1, "one distinct source");
        assert_eq!(cache.hits() + cache.misses(), 32);
        for r in &results {
            assert_eq!(r.0, results[0].0);
        }
    }
}
