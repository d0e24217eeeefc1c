//! Connection-lifecycle stress tests on loopback sockets, against a
//! daemon and against a router fronting two replicas: the
//! concurrent-connection cap refuses with a typed `overloaded` answer
//! on both listeners (never a silent drop), concurrent clients
//! pipelining mixed traffic each get byte-identical in-order answers —
//! the same bytes from the router as from the daemon — a final line
//! without a newline is still a request, and every connection thread
//! is reaped (`opened == closed`, `active == 0`).

mod common;

use common::{planner, shutdown, spawn_backend, spawn_router, test_router_config};
use gpufreq_router::{BackendSpec, Router, RouterConfig};
use gpufreq_serve::codec::read_http_body;
use gpufreq_serve::protocol::{ErrorCode, Request, Response, ServerStats};
use gpufreq_serve::{Server, ServerConfig};
use gpufreq_sim::Device;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::{Arc, Barrier};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

const SAXPY: &str = "__kernel void saxpy(__global float* x, __global float* y, float a) {
    uint i = get_global_id(0);
    y[i] = a * x[i] + y[i];
}";

/// Boot a daemon on an ephemeral loopback port; the thread returns the
/// final stats snapshot once a `shutdown` request drains it.
fn start(config: ServerConfig) -> (SocketAddr, JoinHandle<ServerStats>) {
    let listener = TcpListener::bind("127.0.0.1:0").expect("loopback bind");
    let addr = listener.local_addr().expect("bound addr");
    let server = Server::new(vec![planner()], config).expect("one planner");
    let handle = std::thread::spawn(move || server.serve(listener).expect("serve loop"));
    (addr, handle)
}

fn shut_down(addr: SocketAddr, handle: JoinHandle<ServerStats>) -> ServerStats {
    let mut stream = TcpStream::connect(addr).expect("connect for shutdown");
    writeln!(stream, "{}", Request::Shutdown.to_json()).expect("send shutdown");
    let mut line = String::new();
    BufReader::new(&stream)
        .read_line(&mut line)
        .expect("shutdown ack");
    assert!(matches!(
        Response::parse(line.trim()).expect("ack parses"),
        Response::Shutdown
    ));
    handle.join().expect("daemon thread exits cleanly")
}

/// One round trip on an already-open connection.
fn ask(stream: &mut TcpStream, request: &Request) -> Response {
    writeln!(stream, "{}", request.to_json()).expect("send");
    let mut line = String::new();
    BufReader::new(&*stream).read_line(&mut line).expect("recv");
    Response::parse(line.trim()).expect("response parses")
}

/// Send `bytes`, half-close, and read everything the peer answers
/// until it closes.
fn send_all_then_drain(addr: SocketAddr, bytes: &[u8]) -> Vec<u8> {
    let mut stream = TcpStream::connect(addr).expect("client connects");
    stream.write_all(bytes).expect("pipelined write");
    stream.shutdown(Shutdown::Write).expect("half-close");
    let mut out = Vec::new();
    stream.read_to_end(&mut out).expect("drain responses");
    out
}

#[test]
fn past_the_cap_connections_get_a_typed_refusal_then_recover() {
    let cap = 4;
    let (addr, handle) = start(ServerConfig {
        workers: 2,
        max_connections: cap,
        ..ServerConfig::default()
    });

    // Fill the cap with holders; a served round trip proves each one
    // made it past dispatch (not just into a kernel accept queue).
    let mut holders = Vec::new();
    for _ in 0..cap {
        let mut stream = TcpStream::connect(addr).expect("holder connects");
        let response = ask(&mut stream, &Request::predict(Device::TitanX, SAXPY));
        assert!(matches!(response, Response::Predict { .. }), "{response:?}");
        holders.push(stream);
    }

    // Every socket past the cap is answered with one typed
    // `overloaded` line and then closed — never silently dropped,
    // never given a thread.
    for i in 0..3 {
        let stream = TcpStream::connect(addr).expect("victim connects");
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut refusal = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut refusal)
            .expect("refusal line then EOF");
        let error = Response::parse(refusal.trim())
            .expect("refusal is protocol JSON")
            .error()
            .cloned()
            .unwrap_or_else(|| panic!("victim {i} got a non-error: {refusal}"));
        assert_eq!(error.code, ErrorCode::Overloaded, "{refusal}");
        assert!(error.message.contains("connection cap"), "{refusal}");
    }

    // Release the holders; their threads must be reaped so fresh
    // clients are admitted again (the leak regression: a stuck reader
    // would pin `active` at the cap forever).
    drop(holders);
    // A probe may itself be refused (or hit a dying socket) while the
    // holders drain, so tolerate every failure mode until the deadline.
    let probe = || -> Option<ServerStats> {
        let mut stream = TcpStream::connect(addr).ok()?;
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .ok()?;
        writeln!(stream, "{}", Request::Stats.to_json()).ok()?;
        let mut line = String::new();
        BufReader::new(&stream).read_line(&mut line).ok()?;
        match Response::parse(line.trim()).ok()? {
            Response::Stats { stats } => Some(*stats),
            _ => None,
        }
    };
    let deadline = Instant::now() + Duration::from_secs(10);
    let stats = loop {
        if let Some(stats) = probe() {
            if stats.connections.active == 1 {
                break stats; // only this probe is open
            }
        }
        assert!(
            Instant::now() < deadline,
            "holders were not reaped within 10s"
        );
        std::thread::sleep(Duration::from_millis(50));
    };
    assert_eq!(stats.connections.refused, 3);
    assert_eq!(stats.connections.opened, stats.connections.closed + 1);

    let final_stats = shut_down(addr, handle);
    assert_eq!(final_stats.connections.active, 0, "no leaked threads");
    assert_eq!(
        final_stats.connections.opened,
        final_stats.connections.closed
    );
    assert_eq!(final_stats.connections.refused, 3);
}

/// The pipelined mix: two predicts (served + error paths), a catalog
/// read, unknown and unserved devices, a batch, a malformed line, a
/// non-UTF-8 line, a blank line (skipped, never answered), and an
/// oversize line that must be discarded as it streams in. Every answer
/// is independent of server state.
fn mixed_script() -> Vec<u8> {
    let mut script = Vec::new();
    for request in [
        Request::predict(Device::TitanX, SAXPY),
        Request::Devices,
        Request::Predict {
            device: "gtx-9000".into(), // unknown id -> unknown_device
            source: "x".into(),
        },
        Request::predict(Device::TeslaP100, "x"), // known, not loaded
        Request::predict_batch(
            Device::TitanX,
            vec![SAXPY.to_string(), "not a kernel".to_string()],
        ),
    ] {
        script.extend_from_slice(request.to_json().as_bytes());
        script.push(b'\n');
    }
    script.extend_from_slice(b"not json at all\n");
    script.extend_from_slice(&[0xff, 0xfe, b'\n']);
    script.push(b'\n');
    // 4 MiB + 1 of 'x': one byte past the line bound.
    script.extend(std::iter::repeat_n(b'x', (4 << 20) + 1));
    script.push(b'\n');
    script
}

/// Answers to [`mixed_script`]: one per non-blank line.
const MIXED_ANSWERS: usize = 8;

/// Run `script` on `clients` concurrent connections to `addr`, check
/// the answers' shape, and return the bytes every client read (which
/// must be identical across clients).
fn pipeline_from_clients(addr: SocketAddr, clients: usize, script: &[u8]) -> Vec<u8> {
    let barrier = Barrier::new(clients);
    let outputs: Vec<Vec<u8>> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..clients)
            .map(|_| {
                scope.spawn(|| {
                    let mut stream = TcpStream::connect(addr).expect("client connects");
                    barrier.wait(); // all connections open before any traffic
                    stream.write_all(script).expect("pipelined write");
                    stream.shutdown(Shutdown::Write).expect("half-close");
                    let mut out = Vec::new();
                    stream.read_to_end(&mut out).expect("drain responses");
                    out
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    });

    let reference = String::from_utf8(outputs[0].clone()).expect("utf-8 responses");
    let lines: Vec<&str> = reference.lines().collect();
    assert_eq!(lines.len(), MIXED_ANSWERS, "{reference}");
    assert!(matches!(
        Response::parse(lines[0]).unwrap(),
        Response::Predict { .. }
    ));
    assert!(matches!(
        Response::parse(lines[1]).unwrap(),
        Response::Devices { .. }
    ));
    let code = |line: &str| Response::parse(line).unwrap().error().unwrap().code;
    assert_eq!(code(lines[2]), ErrorCode::UnknownDevice);
    assert_eq!(code(lines[3]), ErrorCode::DeviceNotServed);
    assert!(matches!(
        Response::parse(lines[4]).unwrap(),
        Response::PredictBatch { .. }
    ));
    assert_eq!(code(lines[5]), ErrorCode::BadRequest);
    assert_eq!(code(lines[6]), ErrorCode::BadRequest);
    assert!(lines[6].contains("UTF-8"), "{}", lines[6]);
    assert_eq!(code(lines[7]), ErrorCode::BadRequest);
    assert!(
        lines[7].contains("exceeds"),
        "oversize line gets the bounded-buffer error: {}",
        lines[7]
    );

    // Byte-identical across clients: responses were never interleaved
    // across connections and always came back in request order.
    for (i, out) in outputs.iter().enumerate() {
        assert_eq!(
            out, &outputs[0],
            "client {i} read different bytes than client 0"
        );
    }
    reference.into_bytes()
}

#[test]
fn concurrent_pipelined_clients_get_identical_in_order_answers() {
    let clients = 8;
    let script = mixed_script();

    let (addr, handle) = start(ServerConfig {
        workers: 4,
        ..ServerConfig::default()
    });
    let daemon = pipeline_from_clients(addr, clients, &script);
    let stats = shut_down(addr, handle);
    assert_eq!(stats.connections.active, 0, "no leaked threads");
    assert_eq!(stats.connections.opened, stats.connections.closed);
    assert_eq!(stats.connections.refused, 0);
    // Every answered line per client plus the shutdown line.
    assert_eq!(
        stats.requests.total,
        clients as u64 * MIXED_ANSWERS as u64 + 1
    );

    // A router over two replicas of the same model answers the same
    // bytes: clients cannot tell the tiers apart.
    let backends = [spawn_backend(), spawn_backend()];
    let router = spawn_router(test_router_config(&[backends[0].addr, backends[1].addr]));
    let routed = pipeline_from_clients(router.addr, clients, &script);
    assert_eq!(
        String::from_utf8_lossy(&routed),
        String::from_utf8_lossy(&daemon),
        "the router answered different bytes than the daemon"
    );
    shutdown(router.addr);
    router.thread.join().expect("router thread");
    for backend in backends {
        shutdown(backend.addr);
        backend.thread.join().expect("backend thread");
    }
}

#[test]
fn a_final_line_without_a_newline_is_answered_by_daemon_and_router() {
    let backend = spawn_backend();
    let router = spawn_router(test_router_config(&[backend.addr]));
    let request = Request::Devices.to_json();
    let daemon = send_all_then_drain(backend.addr, request.as_bytes());
    let routed = send_all_then_drain(router.addr, request.as_bytes());
    let daemon = String::from_utf8(daemon).expect("utf-8 answer");
    assert_eq!(daemon.lines().count(), 1, "{daemon}");
    assert!(matches!(
        Response::parse(daemon.trim()).unwrap(),
        Response::Devices { .. }
    ));
    assert_eq!(String::from_utf8_lossy(&routed), daemon);
    shutdown(router.addr);
    router.thread.join().expect("router thread");
    shutdown(backend.addr);
    backend.thread.join().expect("backend thread");
}

#[test]
fn router_connections_past_the_cap_get_a_typed_refusal() {
    // The pinned backend is never dialled by this test: `metrics` and
    // `/healthz` are answered by the router itself.
    let router = Arc::new(
        Router::new(RouterConfig {
            backends: vec![BackendSpec {
                addr: "127.0.0.1:1".into(),
                devices: vec![Device::TitanX],
            }],
            max_connections: 2,
            ..RouterConfig::default()
        })
        .expect("pinned backends defer the connection"),
    );
    let line = TcpListener::bind("127.0.0.1:0").unwrap();
    let http = TcpListener::bind("127.0.0.1:0").unwrap();
    let (line_addr, http_addr) = (line.local_addr().unwrap(), http.local_addr().unwrap());
    let thread = {
        let router = Arc::clone(&router);
        std::thread::spawn(move || router.serve_with_http(line, Some(http)).unwrap())
    };

    // Fill the cap with one live connection per listener, each proven
    // by a round trip (accept() is asynchronous to connect()).
    let mut held_line = TcpStream::connect(line_addr).unwrap();
    assert!(matches!(
        ask(&mut held_line, &Request::Metrics),
        Response::Metrics { .. }
    ));
    let mut held_http = TcpStream::connect(http_addr).unwrap();
    held_http
        .write_all(b"GET /healthz HTTP/1.1\r\n\r\n")
        .unwrap();
    let mut scratch = String::new();
    let health = read_http_body(&mut BufReader::new(&held_http), &mut scratch).unwrap();
    assert!(health.starts_with("{\"ok\":\"healthz\""), "{health}");

    // Past the cap: a typed line on the line listener, a 503 with the
    // same body on the HTTP listener, then EOF on both.
    let refusal_of = |addr: SocketAddr| {
        let stream = TcpStream::connect(addr).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(10)))
            .unwrap();
        let mut answer = String::new();
        BufReader::new(&stream)
            .read_to_string(&mut answer)
            .expect("refusal then EOF");
        answer
    };
    let refused_line = refusal_of(line_addr);
    let error = Response::parse(refused_line.trim()).expect("refusal line parses");
    assert_eq!(error.error().unwrap().code, ErrorCode::Overloaded);
    assert!(refused_line.contains("connection cap"), "{refused_line}");
    let refused_http = refusal_of(http_addr);
    assert!(refused_http.starts_with("HTTP/1.1 503 "), "{refused_http}");
    assert!(
        refused_http.ends_with(refused_line.trim()),
        "{refused_http}"
    );

    // Shut down through the held line connection.
    assert!(matches!(
        ask(&mut held_line, &Request::Shutdown),
        Response::Shutdown
    ));
    thread.join().expect("router exits");
    drop(held_http);
}
