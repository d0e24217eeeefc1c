//! Admission control: windowed-p99 backpressure and per-client quotas.
//!
//! Two independent, individually optional gates run before a predict
//! request is enqueued:
//!
//! * **Windowed p99** — the server already maintains a cumulative
//!   latency histogram ([`Metrics`]); the controller keeps a *base*
//!   snapshot of its bucket counts and computes the p99 of the **delta**
//!   (requests observed since the base). Once the window holds
//!   `WINDOW_SPAN` observations the base slides forward, so the p99
//!   tracks recent load instead of the whole process lifetime. When the
//!   rolling p99 exceeds the configured target, new predict work is
//!   refused with the usual typed `overloaded` error — shedding load is
//!   exactly what keeps the tail from compounding.
//! * **Per-client token buckets** — keyed by peer IP address, refilled
//!   at `rate_per_sec` up to `burst`. A client past its quota is
//!   refused without affecting anyone else.
//!
//! Both gates apply only to prediction work arriving over a socket
//! (`peer` is `Some`); control-plane requests (`stats`, `devices`,
//! `shutdown`, `reload`) and the in-process replay path (`peer` =
//! `None`, used by the determinism tests) are always admitted — an
//! overloaded server must stay observable and drainable, and replays
//! must stay byte-identical.

use crate::metrics::Metrics;
use gpufreq_obs::quantile_from_counts;
use std::collections::HashMap;
use std::net::IpAddr;
use std::sync::{Mutex, MutexGuard};
use std::time::Instant;

/// Observations after which the p99 window's base snapshot slides
/// forward (i.e. the rolling window covers at most this many requests).
pub(crate) const WINDOW_SPAN: u64 = 1024;

/// Minimum observations in the current window before the p99 gate acts
/// — a handful of requests is noise, not a tail.
pub(crate) const MIN_WINDOW: u64 = 64;

/// Token-bucket maps larger than this are swept of idle (full) buckets.
const MAX_TRACKED_CLIENTS: usize = 4096;

/// A per-client rate limit: sustained `rate_per_sec` with `burst`
/// headroom.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Quota {
    /// Sustained admissions per second per client IP.
    pub rate_per_sec: u32,
    /// Bucket depth: how many requests a quiet client may burst.
    pub burst: u32,
}

/// Which admission gates are active. The default (both off) admits
/// everything, preserving the pre-gateway behaviour.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AdmissionConfig {
    /// Refuse predict work while the rolling p99 exceeds this (µs).
    pub p99_target_us: Option<u64>,
    /// Per-client token-bucket quota keyed by peer IP.
    pub quota: Option<Quota>,
}

/// Why a request was refused admission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejection {
    /// The rolling p99 is above the configured target.
    P99,
    /// The client exhausted its token bucket.
    Quota,
}

#[derive(Debug, Default)]
struct Window {
    /// Histogram bucket counts at the start of the current window.
    base: Vec<u64>,
}

#[derive(Debug)]
struct Bucket {
    tokens: f64,
    last: Instant,
}

/// The admission controller shared by every connection thread.
#[derive(Debug)]
pub struct Admission {
    config: AdmissionConfig,
    window: Mutex<Window>,
    buckets: Mutex<HashMap<IpAddr, Bucket>>,
}

impl Admission {
    /// A controller enforcing `config`.
    pub fn new(config: AdmissionConfig) -> Admission {
        Admission {
            config,
            window: Mutex::new(Window::default()),
            buckets: Mutex::new(HashMap::new()),
        }
    }

    /// The active configuration.
    pub fn config(&self) -> AdmissionConfig {
        self.config
    }

    /// Decide whether a predict request from `peer` may be enqueued.
    /// `None` admits; `Some(rejection)` names the gate that refused.
    /// Requests without a peer (in-process replay) are always admitted.
    pub fn admit(&self, peer: Option<IpAddr>, metrics: &Metrics) -> Option<Rejection> {
        let peer = peer?;
        if let Some(quota) = self.config.quota {
            if !self.take_token(peer, quota, Instant::now()) {
                return Some(Rejection::Quota);
            }
        }
        if let Some(target_us) = self.config.p99_target_us {
            if let Some(p99) = self.windowed_p99(&metrics.latency_snapshot().buckets) {
                if p99 > target_us {
                    return Some(Rejection::P99);
                }
            }
        }
        None
    }

    /// The p99 (µs, bucket upper bound) over requests observed since the
    /// window base, or `None` while the window is too small to judge.
    /// Slides the base once the window reaches [`WINDOW_SPAN`].
    fn windowed_p99(&self, current: &[u64]) -> Option<u64> {
        let mut window = lock(&self.window);
        if window.base.len() != current.len() {
            // First observation (or a snapshot-shape change in tests):
            // start the window here.
            window.base = current.to_vec();
            return None;
        }
        let delta: Vec<u64> = current
            .iter()
            .zip(&window.base)
            .map(|(c, b)| c.saturating_sub(*b))
            .collect();
        let n: u64 = delta.iter().sum();
        if n >= WINDOW_SPAN {
            window.base = current.to_vec();
        }
        drop(window);
        if n < MIN_WINDOW {
            return None;
        }
        Some(quantile_from_counts(&delta, 0.99))
    }

    /// Refill `peer`'s bucket to `now` and try to take one token.
    fn take_token(&self, peer: IpAddr, quota: Quota, now: Instant) -> bool {
        let rate = f64::from(quota.rate_per_sec);
        let burst = f64::from(quota.burst.max(1));
        let mut buckets = lock(&self.buckets);
        if buckets.len() >= MAX_TRACKED_CLIENTS && !buckets.contains_key(&peer) {
            // Idle clients have refilled to full; dropping their buckets
            // is lossless (a fresh bucket starts full too).
            buckets
                .retain(|_, b| b.tokens + now.duration_since(b.last).as_secs_f64() * rate < burst);
        }
        let bucket = buckets.entry(peer).or_insert(Bucket {
            tokens: burst,
            last: now,
        });
        let elapsed = now.duration_since(bucket.last).as_secs_f64();
        bucket.tokens = (bucket.tokens + elapsed * rate).min(burst);
        bucket.last = now;
        if bucket.tokens >= 1.0 {
            bucket.tokens -= 1.0;
            true
        } else {
            false
        }
    }
}

/// Lock an admission mutex, propagating a poisoned-lock panic — same
/// policy as the queue and cache modules.
fn lock<T>(mutex: &Mutex<T>) -> MutexGuard<'_, T> {
    // analyze:allow(panic-in-request-path, reason = "poisoned admission state means another thread panicked mid-update; propagating is the only sound option")
    mutex.lock().expect("admission state poisoned")
}

#[cfg(test)]
mod tests {
    use super::*;
    use gpufreq_obs::BUCKETS;
    use std::net::Ipv4Addr;
    use std::time::Duration;

    fn ip(last: u8) -> IpAddr {
        IpAddr::V4(Ipv4Addr::new(127, 0, 0, last))
    }

    fn counts(pairs: &[(usize, u64)]) -> Vec<u64> {
        let mut v = vec![0u64; BUCKETS];
        for &(bucket, n) in pairs {
            v[bucket] += n;
        }
        v
    }

    #[test]
    fn no_gates_admits_everything_without_a_peer_map() {
        let adm = Admission::new(AdmissionConfig::default());
        let metrics = Metrics::new();
        for _ in 0..100 {
            assert_eq!(adm.admit(Some(ip(1)), &metrics), None);
        }
        assert_eq!(adm.admit(None, &metrics), None);
    }

    #[test]
    fn p99_gate_waits_for_a_minimum_window_then_rejects_slow_tails() {
        let adm = Admission::new(AdmissionConfig {
            p99_target_us: Some(1000),
            quota: None,
        });
        // First call establishes the base — no judgement yet.
        assert_eq!(adm.windowed_p99(&counts(&[])), None);
        // Fewer than MIN_WINDOW observations: still no judgement.
        let few = counts(&[(12, MIN_WINDOW - 1)]); // ~4096µs each
        assert_eq!(adm.windowed_p99(&few), None);
        // A full window of slow requests: p99 is the 4096µs bucket's
        // upper bound, over the 1000µs target.
        let slow = counts(&[(12, 100)]);
        let p99 = adm.windowed_p99(&slow).expect("window is large enough");
        assert!(p99 > 1000, "p99 {p99} should exceed the target");
        // Fast requests beyond the span slide the base; this delta
        // still covers old+new (100 slow of 1124 is ~9%, far past the
        // 1% tail), but the *next* one only sees what came after.
        let mut slid = slow.clone();
        slid[2] += WINDOW_SPAN; // ~4µs each
        let p99 = adm.windowed_p99(&slid).expect("window is full");
        assert!(p99 > 1000, "p99 {p99} covers old+new before the slide");
        let mut fresh = slid.clone();
        fresh[2] += MIN_WINDOW;
        let p99 = adm.windowed_p99(&fresh).expect("post-slide window");
        assert!(p99 <= 7, "post-slide p99 {p99} sees only fast requests");
    }

    #[test]
    fn rejection_is_wired_through_admit() {
        let adm = Admission::new(AdmissionConfig {
            p99_target_us: Some(1000),
            quota: None,
        });
        let metrics = Metrics::new();
        assert_eq!(adm.admit(Some(ip(1)), &metrics), None, "establishes base");
        for _ in 0..200 {
            metrics.observe_us(5000);
        }
        assert_eq!(adm.admit(Some(ip(1)), &metrics), Some(Rejection::P99));
        assert_eq!(adm.admit(None, &metrics), None, "replay path is exempt");
    }

    #[test]
    fn token_bucket_enforces_burst_then_refills_at_rate() {
        let adm = Admission::new(AdmissionConfig {
            p99_target_us: None,
            quota: Some(Quota {
                rate_per_sec: 10,
                burst: 3,
            }),
        });
        let quota = adm.config().quota.expect("configured above");
        let t0 = Instant::now();
        for _ in 0..3 {
            assert!(adm.take_token(ip(1), quota, t0), "burst admits");
        }
        assert!(!adm.take_token(ip(1), quota, t0), "bucket exhausted");
        assert!(
            adm.take_token(ip(2), quota, t0),
            "other clients are unaffected"
        );
        // 100ms at 10 rps refills exactly one token.
        let t1 = t0 + Duration::from_millis(100);
        assert!(adm.take_token(ip(1), quota, t1), "refilled one token");
        assert!(!adm.take_token(ip(1), quota, t1), "and only one");
    }
}
