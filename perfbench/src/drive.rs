//! The closed-loop client: one thread per connection, each keeping a
//! fixed number of requests in flight, checking every answer against
//! the reference, and timing it from send to full response.

use crate::procs::Entry;
use crate::workload::{mix, Kind, Stream, CONNECTIONS, HOT_SAMPLE_EVERY};
use std::collections::VecDeque;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::TcpStream;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// One answered request.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// When the full response arrived, in ns since the run's epoch.
    pub done_ns: u64,
    /// Send to full response, in ns.
    pub latency_ns: u64,
    /// `ok` and identical to the reference.
    pub ok: bool,
}

/// How the warm-up ends.
#[derive(Debug, Clone, Copy)]
pub enum Warmup {
    /// After this many answers (so the front cache is full and every
    /// further miss evicts).
    Answers(u64),
    /// After this long.
    For(Duration),
}

/// The measured window, cut into equal slices: `bounds_ns` holds the
/// slice edges (ns since the run's epoch) and `edges` what `edge` read
/// at each of them.
#[derive(Debug, Clone)]
pub struct Window<T> {
    pub bounds_ns: Vec<u64>,
    pub edges: Vec<T>,
}

impl<T> Window<T> {
    pub fn first(&self) -> &T {
        &self.edges[0]
    }

    pub fn last(&self) -> &T {
        &self.edges[self.edges.len() - 1]
    }
}

/// What one connection does.
struct Conn<'a> {
    kind: Kind,
    stream: &'a Stream,
    conn: usize,
    conns: usize,
    depth: usize,
    seed: u64,
}

/// Drive `kind`'s stream at `entry` until the warm-up ends, measure
/// `slices` slices of `slice` each, then drain. `edge` reads the
/// servers at every slice edge; its flag is set on the window's first
/// and last edge.
#[allow(clippy::too_many_arguments)]
pub fn run<T>(
    kind: Kind,
    stream: &Stream,
    entry: &Entry,
    seed: u64,
    warmup: Warmup,
    slice: Duration,
    slices: usize,
    edge: impl Fn(bool) -> Result<T, String>,
) -> Result<(Vec<Sample>, Window<T>), String> {
    let epoch = Instant::now();
    let stop = AtomicBool::new(false);
    let answered = AtomicU64::new(0);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..CONNECTIONS)
            .map(|conn| {
                let plan = Conn {
                    kind,
                    stream,
                    conn,
                    conns: CONNECTIONS,
                    depth: kind.pipeline(),
                    seed,
                };
                let (stop, answered) = (&stop, &answered);
                scope.spawn(move || {
                    let result = plan.drive(entry, epoch, stop, answered);
                    if result.is_err() {
                        // A dead connection ends the warm-up wait early.
                        stop.store(true, Ordering::SeqCst);
                    }
                    result
                })
            })
            .collect();
        let window = measure(epoch, warmup, slice, slices, edge, &answered, &stop);
        // Stop the clients on every path, then collect them.
        stop.store(true, Ordering::SeqCst);
        let mut samples = Vec::new();
        for handle in handles {
            samples.extend(
                handle
                    .join()
                    .map_err(|_| "client thread panicked".to_string())??,
            );
        }
        Ok((samples, window?))
    })
}

/// Wait out the warm-up, then time the window slice by slice, reading
/// every edge.
fn measure<T>(
    epoch: Instant,
    warmup: Warmup,
    slice: Duration,
    slices: usize,
    edge: impl Fn(bool) -> Result<T, String>,
    answered: &AtomicU64,
    stop: &AtomicBool,
) -> Result<Window<T>, String> {
    let warm_deadline = epoch + Duration::from_secs(60);
    match warmup {
        Warmup::Answers(n) => {
            while answered.load(Ordering::SeqCst) < n {
                if Instant::now() > warm_deadline || stop.load(Ordering::SeqCst) {
                    return Err(format!("warm-up did not reach {n} answers"));
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        Warmup::For(d) => std::thread::sleep(d),
    }
    let mut edges = vec![edge(true)?];
    let start = epoch.elapsed();
    let mut bounds_ns = vec![start.as_nanos() as u64];
    for i in 1..=slices {
        // Sleep to the slice's planned end so reading the edges does
        // not stretch the window.
        let due = start + slice * i as u32;
        std::thread::sleep(due.saturating_sub(epoch.elapsed()));
        bounds_ns.push(epoch.elapsed().as_nanos() as u64);
        edges.push(edge(i == slices)?);
        if stop.load(Ordering::SeqCst) {
            return Err("a client connection failed inside the window".into());
        }
    }
    Ok(Window { bounds_ns, edges })
}

impl Conn<'_> {
    fn drive(
        &self,
        entry: &Entry,
        epoch: Instant,
        stop: &AtomicBool,
        answered: &AtomicU64,
    ) -> Result<Vec<Sample>, String> {
        let stream = TcpStream::connect(entry.addr()).map_err(|e| format!("connect: {e}"))?;
        stream.set_nodelay(true).ok();
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .map_err(|e| e.to_string())?;
        let mut writer =
            BufWriter::with_capacity(1 << 16, stream.try_clone().map_err(|e| e.to_string())?);
        let mut reader = BufReader::with_capacity(1 << 20, stream);
        let http = matches!(entry, Entry::Http(_));
        let mut in_flight: VecDeque<(u64, Instant, Arc<str>)> = VecDeque::with_capacity(self.depth);
        let mut request = Vec::with_capacity(1 << 14);
        let mut body = Vec::with_capacity(1 << 18);
        let mut samples = Vec::with_capacity(1 << 16);
        let mut next = 0u64;
        loop {
            while in_flight.len() < self.depth && !stop.load(Ordering::Relaxed) {
                request.clear();
                let expect = self
                    .stream
                    .request(self.conn, self.conns, next, &mut request);
                writer.write_all(&request).map_err(|e| e.to_string())?;
                in_flight.push_back((next, Instant::now(), Arc::clone(expect)));
                next += 1;
            }
            let Some((n, sent, expect)) = in_flight.pop_front() else {
                break;
            };
            writer.flush().map_err(|e| e.to_string())?;
            if http {
                read_http(&mut reader, &mut body)?;
            } else {
                body.clear();
                reader
                    .read_until(b'\n', &mut body)
                    .map_err(|e| e.to_string())?;
                if body.pop() != Some(b'\n') {
                    return Err("server closed the connection mid-run".into());
                }
            }
            let done = Instant::now();
            let ok = if self.full_check(n) {
                body == expect.as_bytes()
            } else {
                quick_check(&body, expect.as_bytes())
            };
            samples.push(Sample {
                done_ns: done.duration_since(epoch).as_nanos() as u64,
                latency_ns: done.duration_since(sent).as_nanos() as u64,
                ok,
            });
            answered.fetch_add(1, Ordering::Relaxed);
        }
        Ok(samples)
    }

    /// Every answer is compared byte for byte, except on `hot_repeat`,
    /// where a seeded one in [`HOT_SAMPLE_EVERY`] is.
    fn full_check(&self, n: u64) -> bool {
        self.kind != Kind::HotRepeat
            || mix(self.seed ^ ((self.conn as u64) << 48) ^ n).is_multiple_of(HOT_SAMPLE_EVERY)
    }
}

/// The unsampled check: same length, same first and last 64 bytes.
fn quick_check(body: &[u8], expect: &[u8]) -> bool {
    let edge = 64.min(expect.len());
    body.len() == expect.len()
        && body[..edge] == expect[..edge]
        && body[body.len() - edge..] == expect[expect.len() - edge..]
}

/// Read one HTTP response and leave its body in `body`.
fn read_http<R: BufRead>(reader: &mut R, body: &mut Vec<u8>) -> Result<(), String> {
    let mut content_length = None;
    let mut first = true;
    loop {
        body.clear();
        if reader.read_until(b'\n', body).map_err(|e| e.to_string())? == 0 {
            return Err("server closed the connection mid-response".into());
        }
        let line = std::str::from_utf8(body)
            .map_err(|e| e.to_string())?
            .trim_end();
        if first {
            if !line.starts_with("HTTP/1.1 200") {
                return Err(format!("HTTP status line `{line}`"));
            }
            first = false;
        } else if line.is_empty() {
            break;
        } else if let Some((name, value)) = line.split_once(':') {
            if name.eq_ignore_ascii_case("content-length") {
                content_length = value.trim().parse::<usize>().ok();
            }
        }
    }
    let n = content_length.ok_or("HTTP response without content-length")?;
    body.resize(n, 0);
    reader.read_exact(body).map_err(|e| e.to_string())
}
