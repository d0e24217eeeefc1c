//! The connection layer both serving tiers share: the concurrent-
//! connection cap with its typed refusal, socket setup, the accept
//! loops over the line and HTTP listeners, and the bounded line
//! framer. The daemon ([`Server`](crate::Server)) and the router plug
//! in through [`Gateway`], so a connection-path fix lands once and
//! both tiers keep answering as one wire.

use crate::http::{self, Gateway};
use crate::protocol::{ConnectionStats, ErrorBody, ErrorCode};
use std::io::{self, BufRead, BufReader, Write};
use std::net::{IpAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::thread::Scope;
use std::time::Duration;

/// How often the nonblocking accept loops re-check the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(25);

/// Read timeout on accepted sockets, so connection readers notice a
/// process-wide shutdown even while their client is idle.
pub const READ_POLL: Duration = Duration::from_millis(200);

/// Requests larger than this are answered with `bad_request` instead
/// of being parsed (a kernel source is kilobytes; a megabyte line is
/// not a kernel). The framer discards — never buffers — bytes beyond
/// the bound, so oversized (or newline-less) input cannot grow server
/// memory, on either tier. The HTTP gateway applies the same bound to
/// request bodies.
pub const MAX_LINE_BYTES: usize = 4 << 20;

/// Which protocol an accepted socket speaks.
#[derive(Debug, Clone, Copy)]
enum ConnKind {
    /// The canonical JSON-lines protocol.
    Line,
    /// The HTTP/1.1 gateway.
    Http,
}

/// The concurrent-connection cap shared by a process's listeners, with
/// its lifecycle counters. Connections past the cap receive a typed
/// `overloaded` refusal and are closed instead of spawning an
/// unbounded thread.
#[derive(Debug)]
pub struct ConnGate {
    /// Process name for log lines (`serve`, `router`).
    component: &'static str,
    max: usize,
    active: AtomicUsize,
    opened: AtomicU64,
    closed: AtomicU64,
    refused: AtomicU64,
    failed: AtomicU64,
}

impl ConnGate {
    /// A gate admitting at most `max` (minimum 1) concurrent
    /// connections; `component` names the process in log lines.
    pub fn new(component: &'static str, max: usize) -> ConnGate {
        ConnGate {
            component,
            max: max.max(1),
            active: AtomicUsize::new(0),
            opened: AtomicU64::new(0),
            closed: AtomicU64::new(0),
            refused: AtomicU64::new(0),
            failed: AtomicU64::new(0),
        }
    }

    /// Try to claim a slot under the cap. On success the caller owns
    /// one [`release`](ConnGate::release), performed when the
    /// connection thread exits.
    fn claim(&self) -> bool {
        let claim = |n: usize| (n < self.max).then_some(n + 1);
        let gate = &self.active;
        // ordering: the active-connection gate is a self-contained
        // counter — no other memory is published through it (each
        // connection's state is created by the thread that owns it),
        // so the RMW and the paired decrement can both be Relaxed; the
        // fetch_update CAS alone guarantees the cap is never crossed.
        let claimed = gate.fetch_update(Ordering::Relaxed, Ordering::Relaxed, claim);
        if claimed.is_ok() {
            bump(&self.opened);
        }
        claimed.is_ok()
    }

    /// Give back a slot taken by [`claim`](ConnGate::claim).
    fn release(&self) {
        // ordering: see `claim` — a bare counter.
        self.active.fetch_sub(1, Ordering::Relaxed);
        bump(&self.closed);
    }

    /// Refuse a connection past the cap: count it and make a
    /// best-effort attempt to deliver a typed `overloaded` refusal
    /// (JSON line or HTTP 503, by listener) before dropping the
    /// socket. The write is nonblocking so a victim's socket can never
    /// stall the shared acceptor; the payload is far below any send
    /// buffer, so it lands whole or the peer was unreachable anyway.
    fn refuse(&self, mut stream: TcpStream, kind: ConnKind) {
        bump(&self.refused);
        let body = ErrorBody::new(
            ErrorCode::Overloaded,
            format!("connection cap reached ({} active); retry later", self.max),
        )
        .into_response()
        .to_json();
        let payload = match kind {
            ConnKind::Line => format!("{body}\n"),
            ConnKind::Http => http::refusal_payload(&body),
        };
        stream.set_nonblocking(true).ok();
        let _ = stream.write_all(payload.as_bytes());
    }

    /// Record a connection dropped because socket setup failed, and
    /// log the first occurrence (one line per process, not one per
    /// victim — fd exhaustion would otherwise spam the log).
    pub(crate) fn note_setup_failure(&self, error: &io::Error) {
        bump(&self.failed);
        static LOGGED: std::sync::Once = std::sync::Once::new();
        LOGGED.call_once(|| {
            eprintln!(
                "[gpufreq-{}] dropping connection: socket setup failed: {error} \
                 (further occurrences counted as failed connections, not logged)",
                self.component
            );
        });
    }

    /// The connection-counter snapshot. `active` is derived
    /// (`opened - closed`), so a connection mid-teardown may be counted
    /// active for an instant longer — fine for a diagnostics gauge.
    pub fn stats(&self) -> ConnectionStats {
        let opened = read(&self.opened);
        let closed = read(&self.closed);
        ConnectionStats {
            opened,
            closed,
            refused: read(&self.refused),
            failed: read(&self.failed),
            active: opened.saturating_sub(closed),
        }
    }
}

/// Add one to a connection counter.
fn bump(counter: &AtomicU64) {
    // ordering: pure event counters — a bump publishes no other
    // memory, and totals stay exact because fetch_add is one RMW.
    counter.fetch_add(1, Ordering::Relaxed);
}

/// Read a connection counter for a snapshot.
fn read(counter: &AtomicU64) -> u64 {
    // ordering: snapshots are diagnostics and may tear between
    // counters; no acquire pairing would buy anything.
    counter.load(Ordering::Relaxed)
}

/// Serve `gateway` on the JSON-lines `listener` and the optional
/// `http` listener until it shuts down. Both listeners share the
/// gateway's connection cap. `background` spawns the process's own
/// long-lived threads (the daemon's workers, the router's health
/// prober) into the same scope, so shutdown joins them together with
/// every connection thread.
///
/// # Errors
/// Only if a listener cannot be switched to nonblocking accepts.
pub fn serve<'env, G: Gateway>(
    gateway: &'env G,
    listener: TcpListener,
    http: Option<TcpListener>,
    background: impl for<'scope> FnOnce(&'scope Scope<'scope, 'env>),
) -> io::Result<()> {
    listener.set_nonblocking(true)?;
    if let Some(h) = &http {
        h.set_nonblocking(true)?;
    }
    std::thread::scope(|s| {
        background(s);
        if let Some(http) = http {
            s.spawn(move || accept_loop(gateway, s, &http, ConnKind::Http));
        }
        accept_loop(gateway, s, &listener, ConnKind::Line);
        // Shutdown: background threads wind down on their own,
        // connection threads notice the flag at their next read
        // timeout; the scope joins them all.
    });
    Ok(())
}

/// Accept sockets from `listener` until shutdown, gating each through
/// the connection cap and spawning its handler thread into `scope`.
fn accept_loop<'scope, 'env, G: Gateway>(
    gateway: &'env G,
    scope: &'scope Scope<'scope, 'env>,
    listener: &TcpListener,
    kind: ConnKind,
) {
    let gate = gateway.gate();
    while !gateway.shutting_down() {
        match listener.accept() {
            Ok((stream, peer)) => {
                if !gate.claim() {
                    gate.refuse(stream, kind);
                    continue;
                }
                scope.spawn(move || {
                    connection(gateway, stream, peer.ip(), kind);
                    gate.release();
                });
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                std::thread::sleep(ACCEPT_POLL);
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => {
                // A transient accept failure must not kill the
                // process; log and keep serving.
                eprintln!("[gpufreq-{}] accept error: {e}", gate.component);
                std::thread::sleep(ACCEPT_POLL);
            }
        }
    }
}

/// Set up one accepted socket — blocking, no Nagle, reads timing out
/// at [`READ_POLL`], a second handle for a line connection's writer —
/// and serve its protocol until close. Setup can fail under fd
/// pressure; such connections are dropped, counted (`failed` in the
/// connection stats), and logged once per process.
fn connection<G: Gateway>(gateway: &G, stream: TcpStream, peer: IpAddr, kind: ConnKind) {
    let setup = (|| {
        stream.set_nonblocking(false)?;
        stream.set_nodelay(true).ok();
        stream.set_read_timeout(Some(READ_POLL))?;
        match kind {
            ConnKind::Line => stream.try_clone().map(Some),
            ConnKind::Http => Ok(None),
        }
    })();
    match setup {
        Ok(Some(writer)) => gateway.line_connection(BufReader::new(stream), writer, peer),
        Ok(None) => http::serve_http_connection(gateway, stream, peer),
        Err(e) => gateway.gate().note_setup_failure(&e),
    }
}

/// Read request lines from `reader` until EOF, a read error, or
/// `stop`, handing each to `on_line` in order; `on_line` returns
/// whether to keep reading.
///
/// A line reaches `on_line` trimmed, as `Ok`, unless it crossed
/// [`MAX_LINE_BYTES`] or is not UTF-8: those get the typed
/// `bad_request` body as `Err`. Blank lines are skipped, and a final
/// unterminated line before EOF is still a request. Lines are
/// assembled in one reused buffer: once a line crosses the bound the
/// rest of it is *discarded as it streams in* (never accumulated), so
/// a newline-less firehose cannot grow memory.
///
/// `stop` is asked before every read with `false`, and with `true`
/// whenever a read times out (sockets poll at [`READ_POLL`]); a partial
/// line stays buffered across timeouts.
pub fn read_lines<R: BufRead>(
    mut reader: R,
    mut stop: impl FnMut(bool) -> bool,
    mut on_line: impl FnMut(Result<&str, ErrorBody>) -> bool,
) {
    let mut buf: Vec<u8> = Vec::new();
    let mut overflowed = false;
    loop {
        if stop(false) {
            break;
        }
        let (consumed, complete) = match reader.fill_buf() {
            Ok([]) => {
                if !buf.is_empty() || overflowed {
                    finish_line(&mut buf, &mut overflowed, &mut on_line);
                }
                break;
            }
            Ok(bytes) => match bytes.iter().position(|&b| b == b'\n') {
                Some(pos) => {
                    append_bounded(&mut buf, &bytes[..pos], &mut overflowed);
                    (pos + 1, true)
                }
                None => {
                    append_bounded(&mut buf, bytes, &mut overflowed);
                    (bytes.len(), false)
                }
            },
            Err(e)
                if matches!(
                    e.kind(),
                    io::ErrorKind::WouldBlock
                        | io::ErrorKind::TimedOut
                        | io::ErrorKind::Interrupted
                ) =>
            {
                if stop(true) {
                    break;
                }
                continue;
            }
            Err(_) => break,
        };
        reader.consume(consumed);
        if complete && !finish_line(&mut buf, &mut overflowed, &mut on_line) {
            break;
        }
    }
}

/// Append `bytes` to the line buffer unless that would cross
/// [`MAX_LINE_BYTES`]; past the bound the line is marked overflowed
/// and everything further is dropped on the floor.
fn append_bounded(buf: &mut Vec<u8>, bytes: &[u8], overflowed: &mut bool) {
    if *overflowed || buf.len() + bytes.len() > MAX_LINE_BYTES {
        *overflowed = true;
    } else {
        buf.extend_from_slice(bytes);
    }
}

/// Hand one assembled line to `on_line` (see [`read_lines`]) and reset
/// the buffer for the next one. Returns whether to keep reading.
fn finish_line(
    buf: &mut Vec<u8>,
    overflowed: &mut bool,
    on_line: &mut impl FnMut(Result<&str, ErrorBody>) -> bool,
) -> bool {
    let keep_reading = if std::mem::take(overflowed) {
        on_line(Err(ErrorBody::new(
            ErrorCode::BadRequest,
            format!("request line exceeds {MAX_LINE_BYTES} bytes"),
        )))
    } else {
        match std::str::from_utf8(buf) {
            Ok(line) => {
                let line = line.trim();
                line.is_empty() || on_line(Ok(line))
            }
            Err(_) => on_line(Err(ErrorBody::new(
                ErrorCode::BadRequest,
                "request line is not valid UTF-8",
            ))),
        }
    };
    buf.clear();
    keep_reading
}
