//! Lock-free serving metrics: request counters by kind plus the
//! whole-request latency histogram, a [`gpufreq_obs::Histogram`] with
//! the same power-of-two buckets as the per-stage histograms.
//!
//! Quantiles are reported as the **upper bound** of the bucket the
//! quantile falls in — a conservative ≤2× over-approximation that
//! needs no stored samples, no locks, and no floating point, which is
//! all a `stats` request costs under load.

use crate::protocol::{LatencyStats, RequestCounts};
use gpufreq_obs::{Histogram, HistogramSnapshot};
use std::sync::atomic::{AtomicU64, Ordering};

/// Aggregate serving metrics; all methods take `&self` and are safe to
/// call from every worker and connection thread concurrently.
#[derive(Debug, Default)]
pub struct Metrics {
    total: AtomicU64,
    predict: AtomicU64,
    predict_batch: AtomicU64,
    batch_kernels: AtomicU64,
    devices: AtomicU64,
    stats: AtomicU64,
    metrics: AtomicU64,
    shutdown: AtomicU64,
    errors: AtomicU64,
    rejected: AtomicU64,
    reload: AtomicU64,
    rejected_p99: AtomicU64,
    rejected_quota: AtomicU64,
    latency: Histogram,
}

impl Metrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Metrics {
        Metrics::default()
    }

    /// Count one incoming protocol line (well-formed or not).
    pub fn count_line(&self) {
        bump(&self.total, 1);
    }

    /// Count one `predict` request.
    pub fn count_predict(&self) {
        bump(&self.predict, 1);
    }

    /// Count one `predict_batch` request carrying `kernels` sources.
    pub fn count_predict_batch(&self, kernels: usize) {
        bump(&self.predict_batch, 1);
        bump(&self.batch_kernels, kernels as u64);
    }

    /// Count one `devices` request.
    pub fn count_devices(&self) {
        bump(&self.devices, 1);
    }

    /// Count one `stats` request.
    pub fn count_stats(&self) {
        bump(&self.stats, 1);
    }

    /// Count one `metrics` request (the exposition verb).
    pub fn count_metrics(&self) {
        bump(&self.metrics, 1);
    }

    /// Count one `shutdown` request.
    pub fn count_shutdown(&self) {
        bump(&self.shutdown, 1);
    }

    /// Count one error response (any code except `overloaded`).
    pub fn count_error(&self) {
        bump(&self.errors, 1);
    }

    /// Count one backpressure rejection (`overloaded`).
    pub fn count_rejected(&self) {
        bump(&self.rejected, 1);
    }

    /// Count one `reload` request (admin model hot-swap).
    pub fn count_reload(&self) {
        bump(&self.reload, 1);
    }

    /// Count one admission rejection caused by the windowed-p99 target.
    pub fn count_rejected_p99(&self) {
        bump(&self.rejected_p99, 1);
    }

    /// Count one admission rejection caused by a per-client quota.
    pub fn count_rejected_quota(&self) {
        bump(&self.rejected_quota, 1);
    }

    /// Record one serving latency (request read → response body
    /// ready).
    pub fn observe_us(&self, us: u64) {
        self.latency.observe_us(us);
    }

    /// The request-counter snapshot.
    pub fn request_counts(&self) -> RequestCounts {
        RequestCounts {
            total: read(&self.total),
            predict: read(&self.predict),
            predict_batch: read(&self.predict_batch),
            batch_kernels: read(&self.batch_kernels),
            devices: read(&self.devices),
            stats: read(&self.stats),
            metrics: read(&self.metrics),
            shutdown: read(&self.shutdown),
            errors: read(&self.errors),
            rejected: read(&self.rejected),
            reload: read(&self.reload),
            rejected_p99: read(&self.rejected_p99),
            rejected_quota: read(&self.rejected_quota),
        }
    }

    /// The whole-request latency histogram. The admission controller
    /// diffs the bucket counts of two snapshots to compute a
    /// *windowed* p99 over recent requests only.
    pub fn latency_snapshot(&self) -> HistogramSnapshot {
        self.latency.snapshot()
    }

    /// The latency-histogram summary (p50/p95/p99 as bucket upper
    /// bounds, max exact).
    pub fn latency(&self) -> LatencyStats {
        let h = self.latency.snapshot();
        LatencyStats {
            count: h.count,
            p50: h.quantile_us(0.50),
            p95: h.quantile_us(0.95),
            p99: h.quantile_us(0.99),
            max: h.max_us,
        }
    }
}

/// Add to a telemetry counter. Every counter bump in this module funnels
/// through here so the memory-ordering argument lives in one place.
fn bump(counter: &AtomicU64, n: u64) {
    // ordering: pure event counters — a bump publishes no other memory,
    // and totals stay exact regardless because fetch_add is a single
    // atomic RMW; Relaxed is sufficient and cheapest on the hot path.
    counter.fetch_add(n, Ordering::Relaxed);
}

/// Read a telemetry counter for a snapshot.
fn read(counter: &AtomicU64) -> u64 {
    // ordering: snapshots are diagnostics; a `stats` response may tear
    // between counters (e.g. `errors` bumped but `total` not yet), so
    // no acquire pairing would buy anything.
    counter.load(Ordering::Relaxed)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_are_bucket_upper_bounds() {
        let m = Metrics::new();
        assert_eq!(m.latency().count, 0);
        assert_eq!(m.latency().p99, 0);
        // 90 fast observations at ~8µs, 10 slow at ~4096µs.
        for _ in 0..90 {
            m.observe_us(8);
        }
        for _ in 0..10 {
            m.observe_us(4096);
        }
        let lat = m.latency();
        assert_eq!(lat.count, 100);
        assert_eq!(lat.p50, 15, "8µs falls in [8,16)");
        assert_eq!(lat.p95, 8191, "4096µs falls in [4096,8192)");
        assert_eq!(lat.p99, 8191);
        assert_eq!(lat.max, 4096, "max is exact");
    }

    #[test]
    fn request_counts_accumulate() {
        let m = Metrics::new();
        m.count_line();
        m.count_line();
        m.count_predict();
        m.count_predict_batch(7);
        m.count_error();
        m.count_rejected();
        let c = m.request_counts();
        assert_eq!(c.total, 2);
        assert_eq!(c.predict, 1);
        assert_eq!(c.predict_batch, 1);
        assert_eq!(c.batch_kernels, 7);
        assert_eq!(c.errors, 1);
        assert_eq!(c.rejected, 1);
    }
}
