//! The HTTP/1.1 gateway: the same server core behind REST-shaped
//! routes, for clients (curl, dashboards, sidecars) that speak HTTP
//! rather than the canonical JSON-lines protocol.
//!
//! | route | method | maps to |
//! |---|---|---|
//! | `/predict` | POST | `predict` / `predict_batch` (body picks) |
//! | `/stats` | GET | `stats` |
//! | `/devices` | GET | `devices` |
//! | `/healthz` | GET | liveness probe (not a protocol request) |
//! | `/metrics` | GET | Prometheus text exposition (scrape probe) |
//! | `/admin/reload` | POST | `reload` (model hot-swap) |
//!
//! Response bodies are **exactly** the JSON-lines response bodies —
//! the gateway adds HTTP framing and a status code derived from the
//! typed error code, nothing else, so the two surfaces cannot drift.
//! A `POST /predict` body is either a canonical request object
//! (`{"op":"predict",...}`) or the same object without `"op"`
//! (`"sources"` selects the batch form). Both listeners share one
//! [`Server`](crate::Server): the worker pool, queue, caches, metrics,
//! admission gates, and the connection cap are common, and a
//! `shutdown` from either side drains both.
//!
//! The parser is a deliberately small hand-rolled HTTP/1.1 subset (no
//! chunked bodies, no continuation lines) — this workspace is
//! dependency-free by design. Heads are bounded to 16 KiB and bodies
//! to the line protocol's request bound; keep-alive and pipelining
//! work, requests on one connection are answered strictly in order.

use crate::conn::{ConnGate, MAX_LINE_BYTES};
use crate::protocol::{error_code_of, ErrorBody, ErrorCode, Request};
use gpufreq_obs::trace;
use serde::Value;
use std::io::{self, BufReader, Read, Write};
use std::net::{IpAddr, TcpStream};

/// Largest accepted HTTP head (request line + headers).
const MAX_HEAD_BYTES: usize = 16 * 1024;

/// The request header that carries (and the response header that
/// echoes) a request's trace id across the HTTP surface.
pub const TRACE_HEADER: &str = "x-gpufreq-trace";

/// What the shared connection layer ([`crate::conn`]) and this HTTP
/// adapter need from the process behind them. The daemon
/// ([`Server`](crate::Server)) and the router front end both implement
/// this, so one connection path serves both — the cap, refusals,
/// socket setup, line framing, routes, bounds, and status mapping
/// cannot drift between them.
pub trait Gateway: Sync {
    /// Execute one protocol request to its serialized response body.
    /// `trace` is the caller-supplied trace id (already validated), to
    /// be carried through the process and echoed in the body.
    fn execute(&self, request: Request, peer: IpAddr, trace: Option<&str>) -> String;

    /// Whether the process is draining (accept loops stop, healthz
    /// answers 503, keep-alive stops being honoured).
    fn shutting_down(&self) -> bool;

    /// The Prometheus text exposition served on `GET /metrics`. Like
    /// `/healthz` this is probe traffic: it bypasses the request queue
    /// and is not tallied in the request counters.
    fn exposition(&self) -> String;

    /// The `GET /healthz` liveness body. Implementations may extend
    /// the default with process identity (uptime, build, slots) — the
    /// `{"ok":"healthz"` prefix is load-bearing for probes.
    fn health_body(&self) -> String {
        "{\"ok\":\"healthz\"}".to_string()
    }

    /// Count and serialize a request that failed before it parsed into
    /// a protocol [`Request`] (unroutable path, wrong method, bad
    /// body, an oversize or non-UTF-8 line), so malformed traffic is
    /// tallied alike on both surfaces.
    fn malformed(&self, error: ErrorBody) -> String;

    /// The connection cap both listeners share.
    fn gate(&self) -> &ConnGate;

    /// Serve one JSON-lines connection, already set up by
    /// [`crate::conn`]: frame requests off `reader` with
    /// [`read_lines`](crate::conn::read_lines) and answer them in
    /// request order on `writer`.
    fn line_connection(&self, reader: BufReader<TcpStream>, writer: TcpStream, peer: IpAddr);
}

/// The routes the gateway answers. Paths are wire literals pinned by
/// the `wire-string-drift` lint against `wire_inventory.txt`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Route {
    /// `POST /predict` → `predict` or `predict_batch`.
    Predict,
    /// `GET /stats` → `stats`.
    Stats,
    /// `GET /devices` → `devices`.
    Devices,
    /// `GET /healthz` → liveness probe.
    Healthz,
    /// `GET /metrics` → Prometheus text exposition (scrape probe).
    Metrics,
    /// `POST /admin/reload` → `reload` (model hot-swap).
    AdminReload,
}

impl Route {
    /// Every route, for resolution and exhaustive tests.
    pub const ALL: [Route; 6] = [
        Route::Predict,
        Route::Stats,
        Route::Devices,
        Route::Healthz,
        Route::Metrics,
        Route::AdminReload,
    ];

    /// The wire path of this route.
    pub const fn as_str(self) -> &'static str {
        match self {
            Route::Predict => "/predict",
            Route::Stats => "/stats",
            Route::Devices => "/devices",
            Route::Healthz => "/healthz",
            Route::Metrics => "/metrics",
            Route::AdminReload => "/admin/reload",
        }
    }

    /// The request method this route requires.
    pub const fn method(self) -> &'static str {
        match self {
            Route::Predict | Route::AdminReload => "POST",
            Route::Stats | Route::Devices | Route::Healthz | Route::Metrics => "GET",
        }
    }

    /// Resolve a request target to a route (query strings ignored).
    pub fn resolve(target: &str) -> Option<Route> {
        let path = match target.split_once('?') {
            Some((path, _query)) => path,
            None => target,
        };
        Route::ALL.into_iter().find(|r| r.as_str() == path)
    }
}

/// One parsed HTTP request.
#[derive(Debug)]
struct HttpRequest {
    method: String,
    target: String,
    body: Vec<u8>,
    keep_alive: bool,
    /// Validated [`TRACE_HEADER`] value, if the client sent one.
    trace: Option<String>,
}

/// One response ready for framing.
#[derive(Debug)]
struct HttpReply {
    status: u16,
    body: String,
    content_type: &'static str,
    /// Trace id echoed back in the [`TRACE_HEADER`] response header.
    trace: Option<String>,
}

impl HttpReply {
    /// A JSON reply with no trace echo — the shape of every error
    /// produced before a request (and its trace header) parsed.
    fn json(status: u16, body: String) -> HttpReply {
        HttpReply {
            status,
            body,
            content_type: "application/json",
            trace: None,
        }
    }
}

/// What reading the next request off the socket produced.
enum ReadOutcome {
    /// A complete request.
    Request(HttpRequest),
    /// EOF, a socket error, or shutdown observed while idle — close
    /// quietly.
    Closed,
    /// A framing error; answer it and close (the stream can no longer
    /// be trusted to be request-aligned).
    Malformed(HttpReply),
}

/// The canned HTTP refusal for a connection rejected at the
/// connection cap — written best-effort by the acceptor, which never
/// spawns a thread for the victim.
pub fn refusal_payload(body: &str) -> String {
    format!(
        "HTTP/1.1 503 Service Unavailable\r\ncontent-type: application/json\r\n\
         content-length: {}\r\nconnection: close\r\n\r\n{}",
        body.len(),
        body
    )
}

/// Serve one accepted HTTP connection until close, keep-alive
/// included. Called by [`crate::conn`] with the connection slot
/// claimed and the socket set up.
pub(crate) fn serve_http_connection<G: Gateway>(gateway: &G, stream: TcpStream, peer: IpAddr) {
    // Bytes read past the previous request's end (pipelining).
    let mut leftover: Vec<u8> = Vec::new();
    loop {
        let request = match read_request(gateway, &stream, &mut leftover) {
            ReadOutcome::Request(request) => request,
            ReadOutcome::Closed => break,
            ReadOutcome::Malformed(reply) => {
                let _ = write_reply(&stream, &reply, false);
                break;
            }
        };
        let keep_alive = request.keep_alive && !gateway.shutting_down();
        let reply = respond(gateway, &request, peer);
        if write_reply(&stream, &reply, keep_alive).is_err() || !keep_alive {
            break;
        }
    }
}

/// Pull more bytes into `buf`. `Ok(false)` means the connection is
/// done: EOF, or a shutdown observed during a read timeout.
fn read_more<G: Gateway>(
    gateway: &G,
    mut stream: &TcpStream,
    buf: &mut Vec<u8>,
) -> io::Result<bool> {
    let mut chunk = [0u8; 4096];
    loop {
        match stream.read(&mut chunk) {
            Ok(0) => return Ok(false),
            Ok(n) => {
                buf.extend_from_slice(&chunk[..n]);
                return Ok(true);
            }
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if gateway.shutting_down() {
                    return Ok(false);
                }
            }
            Err(e) => return Err(e),
        }
    }
}

/// A 4xx framing error as a [`ReadOutcome`].
fn framing_error(message: impl Into<String>) -> ReadOutcome {
    let error = ErrorBody::new(ErrorCode::BadRequest, message);
    ReadOutcome::Malformed(HttpReply::json(400, error.into_response().to_json()))
}

/// Read and parse the next HTTP request. Bounds: the head at
/// [`MAX_HEAD_BYTES`], the body at [`MAX_LINE_BYTES`] (the same limit
/// as a protocol line, enforced *before* the body is read so an
/// oversized upload is never buffered).
fn read_request<G: Gateway>(gateway: &G, stream: &TcpStream, buf: &mut Vec<u8>) -> ReadOutcome {
    let head_end = loop {
        if let Some(pos) = find_head_end(buf) {
            break pos;
        }
        if buf.len() > MAX_HEAD_BYTES {
            return framing_error(format!("HTTP request head exceeds {MAX_HEAD_BYTES} bytes"));
        }
        match read_more(gateway, stream, buf) {
            Ok(true) => {}
            // EOF mid-head (or clean close between requests).
            Ok(false) | Err(_) => return ReadOutcome::Closed,
        }
    };
    let head = match std::str::from_utf8(&buf[..head_end]) {
        Ok(head) => head.to_string(),
        Err(_) => return framing_error("HTTP request head is not valid UTF-8"),
    };
    buf.drain(..head_end + 4);
    let mut lines = head.split("\r\n");
    let request_line = match lines.next() {
        Some(line) => line,
        None => return framing_error("empty HTTP request"),
    };
    let mut parts = request_line.split(' ');
    let (Some(method), Some(target), Some(version)) = (parts.next(), parts.next(), parts.next())
    else {
        return framing_error(format!("malformed HTTP request line `{request_line}`"));
    };
    if !version.starts_with("HTTP/1.") {
        return framing_error(format!("unsupported protocol version `{version}`"));
    }
    let mut content_length = 0usize;
    // HTTP/1.1 defaults to keep-alive, 1.0 to close.
    let mut keep_alive = version != "HTTP/1.0";
    let mut trace_id: Option<String> = None;
    for line in lines {
        let Some((name, value)) = line.split_once(':') else {
            continue;
        };
        let value = value.trim();
        if name.eq_ignore_ascii_case("content-length") {
            content_length = match value.parse::<usize>() {
                Ok(n) => n,
                Err(_) => return framing_error(format!("bad content-length `{value}`")),
            };
        } else if name.eq_ignore_ascii_case("connection") {
            if value.eq_ignore_ascii_case("close") {
                keep_alive = false;
            } else if value.eq_ignore_ascii_case("keep-alive") {
                keep_alive = true;
            }
        } else if name.eq_ignore_ascii_case(TRACE_HEADER) {
            // A malformed id is dropped, not refused: tracing is
            // opt-in telemetry and must never fail a request.
            if trace::is_valid(value) {
                trace_id = Some(value.to_string());
            }
        }
    }
    if content_length > MAX_LINE_BYTES {
        let error = ErrorBody::new(
            ErrorCode::BadRequest,
            format!("request body exceeds {MAX_LINE_BYTES} bytes"),
        );
        return ReadOutcome::Malformed(HttpReply::json(413, error.into_response().to_json()));
    }
    while buf.len() < content_length {
        match read_more(gateway, stream, buf) {
            Ok(true) => {}
            Ok(false) | Err(_) => return ReadOutcome::Closed,
        }
    }
    let body: Vec<u8> = buf.drain(..content_length).collect();
    ReadOutcome::Request(HttpRequest {
        method: method.to_string(),
        target: target.to_string(),
        body,
        keep_alive,
        trace: trace_id,
    })
}

/// Position of the `\r\n\r\n` head terminator, if buffered.
fn find_head_end(buf: &[u8]) -> Option<usize> {
    buf.windows(4).position(|w| w == b"\r\n\r\n")
}

/// Route and execute one request against the gateway behind the
/// adapter.
fn respond<G: Gateway>(gateway: &G, request: &HttpRequest, peer: IpAddr) -> HttpReply {
    let Some(route) = Route::resolve(&request.target) else {
        return HttpReply::json(
            404,
            gateway.malformed(ErrorBody::new(
                ErrorCode::BadRequest,
                format!("no route `{}`", request.target),
            )),
        );
    };
    if request.method != route.method() {
        return HttpReply::json(
            405,
            gateway.malformed(ErrorBody::new(
                ErrorCode::BadRequest,
                format!("{} requires {}", route.as_str(), route.method()),
            )),
        );
    }
    let trace = request.trace.as_deref();
    let mut reply = match route {
        // Liveness must stay cheap and must not pollute the request
        // counters — probes fire continuously.
        Route::Healthz => {
            if gateway.shutting_down() {
                HttpReply::json(
                    503,
                    ErrorBody::new(ErrorCode::ShuttingDown, "server is shutting down")
                        .into_response()
                        .to_json(),
                )
            } else {
                HttpReply::json(200, gateway.health_body())
            }
        }
        // Scrape traffic, same policy as healthz: answered outside the
        // request queue and excluded from the request counters.
        Route::Metrics => HttpReply {
            status: 200,
            body: gateway.exposition(),
            content_type: "text/plain; version=0.0.4",
            trace: None,
        },
        Route::Stats => reply_from_body(gateway.execute(Request::Stats, peer, trace)),
        Route::Devices => reply_from_body(gateway.execute(Request::Devices, peer, trace)),
        Route::Predict | Route::AdminReload => match parse_body_request(&request.body, route) {
            Ok(parsed) => reply_from_body(gateway.execute(parsed, peer, trace)),
            Err(e) => reply_from_body(gateway.malformed(e)),
        },
    };
    // Echo the caller's trace id as a response header on every routed
    // reply (the JSON body additionally carries it when the request
    // reached the protocol core).
    reply.trace = request.trace.clone();
    reply
}

/// Parse the JSON body of a POST route into a protocol [`Request`].
fn parse_body_request(body: &[u8], route: Route) -> Result<Request, ErrorBody> {
    let bad = |e: std::fmt::Arguments<'_>| {
        ErrorBody::new(ErrorCode::BadRequest, format!("bad request body: {e}"))
    };
    let text = std::str::from_utf8(body)
        .map_err(|_| bad(format_args!("not valid UTF-8")))?
        .trim();
    if text.is_empty() {
        return Err(bad(format_args!("{} requires a JSON body", route.as_str())));
    }
    let value: Value = serde_json::from_str(text).map_err(|e| bad(format_args!("{e}")))?;
    let entries =
        serde::expect_object(&value, "request body").map_err(|e| bad(format_args!("{e}")))?;
    let has = |name: &str| entries.iter().any(|(k, _)| k == name);
    match route {
        Route::Predict => {
            if has("op") {
                // The canonical line-protocol object works verbatim —
                // but only for the two predict ops this route serves.
                let request = Request::parse(text)?;
                if !matches!(
                    request,
                    Request::Predict { .. } | Request::PredictBatch { .. }
                ) {
                    return Err(bad(format_args!(
                        "op `{}` does not belong on {}",
                        request.op(),
                        Route::Predict.as_str()
                    )));
                }
                return Ok(request);
            }
            if has("sources") {
                Ok(Request::PredictBatch {
                    device: serde::field(entries, "device", "predict")
                        .map_err(|e| bad(format_args!("{e}")))?,
                    sources: serde::field(entries, "sources", "predict")
                        .map_err(|e| bad(format_args!("{e}")))?,
                })
            } else {
                Ok(Request::Predict {
                    device: serde::field(entries, "device", "predict")
                        .map_err(|e| bad(format_args!("{e}")))?,
                    source: serde::field(entries, "source", "predict")
                        .map_err(|e| bad(format_args!("{e}")))?,
                })
            }
        }
        Route::AdminReload => Ok(Request::Reload {
            device: serde::field(entries, "device", "reload")
                .map_err(|e| bad(format_args!("{e}")))?,
            path: serde::field(entries, "path", "reload").map_err(|e| bad(format_args!("{e}")))?,
        }),
        Route::Stats | Route::Devices | Route::Healthz | Route::Metrics => Err(bad(format_args!(
            "{} takes no request body",
            route.as_str()
        ))),
    }
}

/// Wrap a protocol response body, deriving the status from its typed
/// error code.
fn reply_from_body(body: String) -> HttpReply {
    let status = status_for(&body);
    HttpReply::json(status, body)
}

/// HTTP status for a serialized protocol response body.
fn status_for(body: &str) -> u16 {
    match error_code_of(body) {
        None => 200,
        Some("bad_request") => 400,
        Some("unknown_device" | "device_not_served") => 404,
        Some("kernel") => 422,
        Some("overloaded" | "shutting_down") => 503,
        // reload_failed, internal, and anything future-unknown.
        Some(_) => 500,
    }
}

/// Canonical reason phrase for the statuses the gateway emits.
const fn reason(status: u16) -> &'static str {
    match status {
        200 => "OK",
        400 => "Bad Request",
        404 => "Not Found",
        405 => "Method Not Allowed",
        413 => "Payload Too Large",
        422 => "Unprocessable Entity",
        503 => "Service Unavailable",
        _ => "Internal Server Error",
    }
}

/// Frame and write one reply; the body is always followed by a flush
/// so pipelined clients are never stuck behind a buffered response.
fn write_reply(mut stream: &TcpStream, reply: &HttpReply, keep_alive: bool) -> io::Result<()> {
    let trace_header = match &reply.trace {
        Some(id) => format!("{TRACE_HEADER}: {id}\r\n"),
        None => String::new(),
    };
    let head = format!(
        "HTTP/1.1 {} {}\r\ncontent-type: {}\r\ncontent-length: {}\r\n{}connection: {}\r\n\r\n",
        reply.status,
        reason(reply.status),
        reply.content_type,
        reply.body.len(),
        trace_header,
        if keep_alive { "keep-alive" } else { "close" },
    );
    stream.write_all(head.as_bytes())?;
    stream.write_all(reply.body.as_bytes())?;
    stream.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routes_resolve_with_and_without_query_strings() {
        for route in Route::ALL {
            assert_eq!(Route::resolve(route.as_str()), Some(route));
            assert_eq!(
                Route::resolve(&format!("{}?x=1", route.as_str())),
                Some(route)
            );
        }
        assert_eq!(Route::resolve("/nope"), None);
        assert_eq!(Route::resolve("/predict/extra"), None);
        assert_eq!(Route::resolve(""), None);
    }

    #[test]
    fn status_mapping_follows_the_typed_error_code() {
        assert_eq!(
            status_for("{\"ok\":\"predict\",\"device\":\"titan-x\"}"),
            200
        );
        let of = |code: &str| {
            status_for(&format!(
                "{{\"error\":{{\"code\":\"{code}\",\"message\":\"m\"}}}}"
            ))
        };
        assert_eq!(of("bad_request"), 400);
        assert_eq!(of("unknown_device"), 404);
        assert_eq!(of("device_not_served"), 404);
        assert_eq!(of("kernel"), 422);
        assert_eq!(of("overloaded"), 503);
        assert_eq!(of("shutting_down"), 503);
        assert_eq!(of("reload_failed"), 500);
        assert_eq!(of("internal"), 500);
    }

    #[test]
    fn predict_bodies_parse_with_and_without_op() {
        let tagged = parse_body_request(
            b"{\"op\":\"predict\",\"device\":\"titan-x\",\"source\":\"k\"}",
            Route::Predict,
        )
        .unwrap();
        assert!(matches!(tagged, Request::Predict { .. }));
        let untagged =
            parse_body_request(b"{\"device\":\"titan-x\",\"source\":\"k\"}", Route::Predict)
                .unwrap();
        assert_eq!(tagged, untagged);
        let batch = parse_body_request(
            b"{\"device\":\"titan-x\",\"sources\":[\"a\",\"b\"]}",
            Route::Predict,
        )
        .unwrap();
        assert!(matches!(batch, Request::PredictBatch { .. }));
        // A non-predict op cannot ride in through /predict.
        let err = parse_body_request(b"{\"op\":\"shutdown\"}", Route::Predict).unwrap_err();
        assert_eq!(err.code, ErrorCode::BadRequest);
        assert!(err.message.contains("does not belong"), "{}", err.message);
        // Reload bodies.
        let reload = parse_body_request(
            b"{\"device\":\"titan-x\",\"path\":\"/tmp/m.json\"}",
            Route::AdminReload,
        )
        .unwrap();
        assert!(matches!(reload, Request::Reload { .. }));
        // Garbage.
        for bad in [&b"not json"[..], b"[]", b"", b"\xff\xfe"] {
            assert_eq!(
                parse_body_request(bad, Route::Predict).unwrap_err().code,
                ErrorCode::BadRequest
            );
        }
    }

    #[test]
    fn head_terminator_and_refusal_framing() {
        assert_eq!(find_head_end(b"GET / HTTP/1.1\r\n\r\nrest"), Some(14));
        assert_eq!(find_head_end(b"partial\r\n"), None);
        let payload = refusal_payload("{\"error\":{}}");
        assert!(payload.starts_with("HTTP/1.1 503 "));
        assert!(payload.contains("content-length: 12\r\n"));
        assert!(payload.ends_with("\r\n\r\n{\"error\":{}}"));
    }
}
