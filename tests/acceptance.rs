//! Record/replay acceptance harness: a pinned wire trace replayed
//! byte-for-byte against a daemon **and** against a router fronting
//! two replicas of the same model.
//!
//! The trace (`tests/acceptance/serve.jsonl`, the format written by
//! `gpufreq client --record`) pins every response byte: protocol
//! serialization, prediction formatting, error bodies, batch slot
//! order. The same file passing against both targets is the router's
//! core contract — clients cannot tell a router from a daemon.
//!
//! When the protocol or the model legitimately changes, re-bless with:
//!
//! ```text
//! GPUFREQ_BLESS=1 cargo test --test acceptance
//! ```
//!
//! and commit the rewritten trace.

mod common;

use common::{shutdown, spawn_backend, spawn_router, test_router_config};
use gpufreq_obs::trace;
use gpufreq_serve::codec::{parse_trace, TraceEntry};
use gpufreq_serve::Request;
use std::sync::OnceLock;

const TRACE_PATH: &str = "tests/acceptance/serve.jsonl";

const SAXPY: &str = "__kernel void saxpy(__global float* x, __global float* y, float a) {
    uint i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}";

const REDUCE: &str = "__kernel void reduce(__global float* x, __global float* out) {
    uint i = get_global_id(0);
    out[0] += x[i] * x[i];
}";

/// The recorded request script, as raw wire lines. Deterministic —
/// every run (and every bless) sends exactly these bytes in order.
fn script() -> Vec<String> {
    let predict = |device: &str, source: &str| {
        Request::Predict {
            device: device.to_string(),
            source: source.to_string(),
        }
        .to_json()
    };
    let batch = |sources: &[&str]| {
        Request::PredictBatch {
            device: "titan-x".to_string(),
            sources: sources.iter().map(|s| s.to_string()).collect(),
        }
        .to_json()
    };
    vec![
        // Inventory first — pins the DeviceInfo serialization.
        Request::Devices.to_json(),
        // The cold predict and its warm (front-cache) repeat must
        // answer identical bytes.
        predict("titan-x", SAXPY),
        predict("titan-x", SAXPY),
        // Typed errors: unknown device, registered-but-unserved
        // device, unparseable kernel.
        predict("gtx-9000", SAXPY),
        predict("tesla-p100", SAXPY),
        predict("titan-x", "this is not OpenCL"),
        // Batches: split-merged by the router (mixed ok/error slots),
        // single-source, and empty.
        batch(&[SAXPY, "also not OpenCL", REDUCE, SAXPY]),
        batch(&[REDUCE]),
        batch(&[]),
        // A malformed line gets the parser's typed bad_request.
        "predict saxpy please".to_string(),
    ]
}

/// The pinned trace, loaded once for every test in this file. With
/// `GPUFREQ_BLESS` set, the script is first re-recorded against a bare
/// daemon (the source of truth the router must match) and the file
/// rewritten, so no test reads it while it is being rewritten.
fn pinned_trace() -> &'static [TraceEntry] {
    static TRACE: OnceLock<Vec<TraceEntry>> = OnceLock::new();
    TRACE.get_or_init(|| {
        if std::env::var("GPUFREQ_BLESS").is_ok_and(|v| !v.is_empty() && v != "0") {
            bless();
        }
        let contents = std::fs::read_to_string(TRACE_PATH).unwrap_or_else(|e| {
            panic!("{TRACE_PATH}: {e}; record it with GPUFREQ_BLESS=1 cargo test --test acceptance")
        });
        parse_trace(&contents).expect("parsing the pinned trace")
    })
}

/// Record the script against a fresh daemon into [`TRACE_PATH`].
fn bless() {
    let backend = spawn_backend();
    let mut client = common::connect(backend.addr);
    let mut blessed = String::from(
        "# Pinned wire trace: recorded against `gpufreq serve`, replayed\n\
         # against daemon and router by tests/acceptance.rs. Re-bless with\n\
         # GPUFREQ_BLESS=1 cargo test --test acceptance\n",
    );
    for send in script() {
        let recv = client.call(&send).expect("blessing the trace");
        blessed.push_str(&TraceEntry { send, recv }.to_json());
        blessed.push('\n');
    }
    drop(client);
    shutdown(backend.addr);
    backend.thread.join().expect("blessing backend thread");
    std::fs::create_dir_all("tests/acceptance").unwrap();
    std::fs::write(TRACE_PATH, blessed).unwrap();
}

/// Replay `entries` against `addr` on one connection, diffing each
/// response byte-for-byte.
fn replay(addr: std::net::SocketAddr, entries: &[TraceEntry], target: &str) {
    let mut client = common::connect(addr);
    for (i, entry) in entries.iter().enumerate() {
        let response = client
            .call(&entry.send)
            .unwrap_or_else(|e| panic!("{target}: trace entry {i}: {e}"));
        assert_eq!(
            response, entry.recv,
            "{target}: trace entry {i} diverged from the pinned trace \
             (request: {}); if the change is intended, re-bless with \
             GPUFREQ_BLESS=1",
            entry.send
        );
    }
}

#[test]
fn pinned_trace_replays_byte_identically_against_daemon_and_router() {
    let backends = [spawn_backend(), spawn_backend()];
    let router = spawn_router(test_router_config(&[backends[0].addr, backends[1].addr]));

    let entries = pinned_trace();
    // The pinned requests must match the in-code script — otherwise the
    // trace pins a stale conversation and needs re-blessing.
    let sends: Vec<&str> = entries.iter().map(|e| e.send.as_str()).collect();
    let expected = script();
    assert_eq!(
        sends,
        expected.iter().map(String::as_str).collect::<Vec<_>>(),
        "the pinned trace's requests drifted from the script; re-bless \
         with GPUFREQ_BLESS=1"
    );

    // Byte-identical replays: daemon first (self-consistency incl. the
    // warm cache: the script repeats its cold predict), then the router
    // (the scale-out contract).
    replay(backends[0].addr, entries, "daemon");
    replay(router.addr, entries, "router");
    // And the router answer is stable across a second pass (warm
    // connection pools, closed circuits).
    replay(router.addr, entries, "router (second pass)");

    shutdown(router.addr);
    router.thread.join().expect("router thread");
    for backend in backends {
        shutdown(backend.addr);
        backend.thread.join().expect("backend thread");
    }
}

/// Tracing is strictly additive on the wire: replaying the pinned
/// script with a trace id attached to each request must answer the
/// **pinned bytes plus exactly the echoed trace field** — nothing else
/// may move. (The untraced test above already pins that responses
/// without a trace are byte-identical to the pre-tracing wire.)
#[test]
fn traced_replay_answers_the_pinned_bytes_plus_the_echoed_trace() {
    let backends = [spawn_backend(), spawn_backend()];
    let router = spawn_router(test_router_config(&[backends[0].addr, backends[1].addr]));

    let entries = pinned_trace();

    for (target_name, addr) in [("daemon", backends[0].addr), ("router", router.addr)] {
        let mut client = common::connect(addr);
        for (i, entry) in entries.iter().enumerate() {
            // Deterministic per-entry ids — the diff message names them.
            let id = format!("{i:016x}");
            let sent = trace::attach(&entry.send, &id);
            // The malformed non-JSON line cannot carry a trace
            // (`attach` leaves it untouched); its response must then
            // stay untraced too — the pinned bytes exactly.
            let expect = if trace::extract(&sent) == Some(id.as_str()) {
                trace::attach(&entry.recv, &id)
            } else {
                entry.recv.clone()
            };
            let response = client
                .call(&sent)
                .unwrap_or_else(|e| panic!("{target_name}: traced entry {i}: {e}"));
            assert_eq!(
                response, expect,
                "{target_name}: traced entry {i} (trace {id}) diverged from \
                 pinned-bytes-plus-trace (request: {sent})"
            );
        }
    }

    shutdown(router.addr);
    router.thread.join().expect("router thread");
    for backend in backends {
        shutdown(backend.addr);
        backend.thread.join().expect("backend thread");
    }
}
