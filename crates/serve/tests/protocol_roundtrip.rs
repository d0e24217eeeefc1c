//! Wire-protocol contract tests: every request/response variant
//! round-trips through its JSON-line form, and malformed input is
//! answered with a typed error response — never a dropped connection.

use gpufreq_core::{Corpus, ModelConfig, Planner};
use gpufreq_serve::protocol::{
    BatchResult, CacheStats, ConnectionStats, DeviceInfo, ErrorBody, ErrorCode, LatencyStats,
    QueueStats, Request, RequestCounts, Response, ServerInfo, ServerStats, SlotInfo,
};
use gpufreq_serve::{Server, ServerConfig};
use gpufreq_sim::Device;

const SAXPY: &str = "__kernel void saxpy(__global float* x, __global float* y, float a) {
    uint i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}";

fn round_trip_request(request: &Request) {
    let line = request.to_json();
    assert!(!line.contains('\n'), "one request = one line: {line}");
    let back = Request::parse(&line).expect("serialized request parses");
    assert_eq!(&back, request, "{line}");
}

fn round_trip_response(response: &Response) {
    let line = response.to_json();
    assert!(!line.contains('\n'), "one response = one line: {line}");
    let back = Response::parse(&line).expect("serialized response parses");
    assert_eq!(&back, response, "{line}");
}

#[test]
fn every_request_variant_round_trips() {
    for request in [
        Request::predict(Device::TitanX, SAXPY),
        Request::Predict {
            device: "gtx-9000".into(), // unknown ids survive the wire untouched
            source: "quote \" backslash \\ newline \n tab \t".into(),
        },
        Request::predict_batch(
            Device::TeslaP100,
            vec![SAXPY.to_string(), "not a kernel".to_string()],
        ),
        Request::PredictBatch {
            device: Device::TeslaK20c.id().into(),
            sources: Vec::new(),
        },
        Request::Devices,
        Request::Stats,
        Request::Metrics,
        Request::Reload {
            device: Device::TitanX.id().into(),
            path: "/var/lib/gpufreq/models/titan-x-v2.json".into(),
        },
        Request::Shutdown,
    ] {
        round_trip_request(&request);
    }
}

/// A real prediction (from a fast-trained planner) so the heavyweight
/// payload — nested `ParetoPrediction` with f64 objectives — is
/// exercised end to end, not just an empty stub.
fn real_prediction_response() -> Response {
    let planner = Planner::builder()
        .corpus(Corpus::Fast)
        .settings(4)
        .model_config(ModelConfig::relaxed())
        .train()
        .expect("fast corpus trains");
    Response::Predict {
        device: planner.device(),
        prediction: planner.predict_source(SAXPY).expect("saxpy predicts"),
    }
}

#[test]
fn every_response_variant_round_trips() {
    let predict = real_prediction_response();
    let Response::Predict { prediction, .. } = predict.clone() else {
        unreachable!()
    };
    for response in [
        predict,
        Response::PredictBatch {
            device: Device::TitanX,
            results: vec![
                BatchResult::Ok(prediction),
                BatchResult::Err(ErrorBody::new(ErrorCode::Kernel, "expected `__kernel`")),
            ],
        },
        Response::PredictBatch {
            device: Device::TeslaP100,
            results: Vec::new(),
        },
        Response::Devices {
            devices: vec![DeviceInfo {
                id: "titan-x".into(),
                name: "GTX Titan X".into(),
                memory_domains: 4,
                configurations: 219,
            }],
        },
        Response::Stats {
            stats: Box::new(ServerStats {
                requests: RequestCounts {
                    total: 10,
                    predict: 4,
                    predict_batch: 1,
                    batch_kernels: 3,
                    devices: 1,
                    stats: 1,
                    metrics: 1,
                    shutdown: 1,
                    errors: 2,
                    rejected: 3,
                    reload: 1,
                    rejected_p99: 1,
                    rejected_quota: 1,
                },
                front_cache: CacheStats {
                    hits: 3,
                    misses: 4,
                    evictions: 1,
                    len: 3,
                    capacity: 64,
                },
                analysis_cache: CacheStats {
                    hits: 2,
                    misses: 3,
                    evictions: 0,
                    len: 3,
                    capacity: 0,
                },
                queue: QueueStats {
                    depth: 0,
                    capacity: 256,
                },
                workers: 4,
                latency_us: LatencyStats {
                    count: 9,
                    p50: 255,
                    p95: 4095,
                    p99: 4095,
                    max: 3000,
                },
                connections: ConnectionStats {
                    opened: 12,
                    closed: 9,
                    refused: 2,
                    failed: 1,
                    active: 3,
                },
                server: ServerInfo {
                    uptime_s: 42,
                    build: "abc1234".into(),
                    slots: vec![SlotInfo {
                        device: "titan-x".into(),
                        version: 2,
                    }],
                },
            }),
        },
        Response::Metrics {
            exposition: "# TYPE gpufreq_requests_total counter\ngpufreq_requests_total 7\n".into(),
        },
        Response::Reload {
            device: Device::TeslaP100,
            version: 3,
        },
        Response::Shutdown,
    ] {
        round_trip_response(&response);
    }
}

#[test]
fn every_error_code_round_trips() {
    for code in ErrorCode::ALL {
        let response = ErrorBody::new(code, format!("message for {code}")).into_response();
        round_trip_response(&response);
        let line = response.to_json();
        assert!(
            line.contains(&format!("\"code\":\"{code}\"")),
            "stable snake_case spelling on the wire: {line}"
        );
    }
}

#[test]
fn malformed_lines_are_typed_errors_not_parse_panics() {
    for bad in [
        "",
        "not json at all",
        "42",
        "[1,2,3]",
        "{}",
        "{\"op\":\"frobnicate\"}",
        "{\"op\":\"predict\"}",                               // missing fields
        "{\"op\":\"predict\",\"device\":7,\"source\":\"x\"}", // wrong type
        "{\"op\":\"predict\",\"device\":\"titan-x\",\"source\":\"x\"", // truncated
    ] {
        let err = Request::parse(bad).expect_err(&format!("`{bad}` must not parse"));
        assert_eq!(err.code, ErrorCode::BadRequest, "{bad}");
        assert!(!err.message.is_empty());
    }
}

/// A malformed line's message is plain text — the offending character
/// quoted, or the end of input — never Rust `Debug` text of an
/// `Option`.
#[test]
fn malformed_line_messages_are_plain_text() {
    for (bad, want) in [
        (
            "predict saxpy please",
            "bad request: unexpected 'p' at byte 0",
        ),
        ("", "bad request: unexpected end of input at byte 0"),
        ("[1,", "bad request: unexpected end of input at byte 3"),
    ] {
        let err = Request::parse(bad).expect_err(&format!("`{bad}` must not parse"));
        assert_eq!(err.code, ErrorCode::BadRequest, "{bad}");
        assert_eq!(err.message, want, "{bad}");
    }
}

/// The server-level half of the satellite: a stream with malformed
/// JSON in the middle keeps the connection alive — the bad line gets
/// a typed `bad_request` response and the *next* request on the same
/// stream is still served.
#[test]
fn malformed_json_mid_stream_does_not_drop_the_connection() {
    let planner = Planner::builder()
        .corpus(Corpus::Fast)
        .settings(4)
        .model_config(ModelConfig::relaxed())
        .train()
        .expect("fast corpus trains");
    let server = Server::new(
        vec![planner],
        ServerConfig {
            workers: 2,
            ..ServerConfig::default()
        },
    )
    .expect("one planner");
    let stream = format!(
        "{}\n{{{{{{ not json\n{}\n",
        Request::Devices.to_json(),
        Request::predict(Device::TitanX, SAXPY).to_json(),
    );
    let mut out = Vec::new();
    let summary = server.serve_lines(stream.as_bytes(), &mut out).unwrap();
    let lines: Vec<&str> = std::str::from_utf8(&out).unwrap().lines().collect();
    assert_eq!(lines.len(), 3, "all three lines answered: {lines:?}");
    assert!(matches!(
        Response::parse(lines[0]).unwrap(),
        Response::Devices { .. }
    ));
    assert_eq!(
        Response::parse(lines[1]).unwrap().error().unwrap().code,
        ErrorCode::BadRequest
    );
    assert!(
        matches!(Response::parse(lines[2]).unwrap(), Response::Predict { .. }),
        "the request after the bad line is still served"
    );
    assert_eq!(summary.requests.total, 3);
    assert_eq!(summary.requests.errors, 1);
}
