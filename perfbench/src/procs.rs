//! The server processes under test: spawning `gpufreq serve --fast`
//! daemons and a `gpufreq router`, readiness from their port files,
//! one-shot exchanges, and clean shutdown.

use crate::workload::{Exchange, Kind};
use gpufreq_serve::codec::read_http_body;
use gpufreq_serve::{LineClient, Request};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How often readiness and exit are polled.
const POLL: Duration = Duration::from_millis(1);
/// Longest a process may take to become ready (training included).
const READY_TIMEOUT: Duration = Duration::from_secs(120);
/// Longest a process may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(10);

/// One running server process. Dropping it kills the process if it is
/// still running and waits for it.
pub struct Proc {
    pub name: String,
    child: Child,
    /// Line-protocol address.
    pub addr: String,
    /// HTTP gateway address, when one was opened.
    pub http: Option<String>,
}

impl Proc {
    fn spawn(name: &str, bin: &Path, args: &[String], out_dir: &Path) -> Result<Proc, String> {
        let port_file = out_dir.join(format!("{name}.addr"));
        let http_file = out_dir.join(format!("{name}.http"));
        for f in [&port_file, &http_file] {
            let _ = std::fs::remove_file(f);
        }
        let log = std::fs::File::create(out_dir.join(format!("{name}.log")))
            .map_err(|e| format!("{name}: log file: {e}"))?;
        let log_err = log.try_clone().map_err(|e| e.to_string())?;
        let mut cmd = Command::new(bin);
        cmd.args(args)
            .args(["--port", "0", "--port-file"])
            .arg(&port_file)
            .stdin(Stdio::null())
            .stdout(log)
            .stderr(log_err);
        let wants_http = args.first().map(String::as_str) == Some("router");
        if wants_http {
            cmd.args(["--http-port", "0", "--http-port-file"])
                .arg(&http_file);
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawning {}: {e}", bin.display()))?;
        let mut proc = Proc {
            name: name.to_string(),
            child,
            addr: String::new(),
            http: None,
        };
        proc.addr = proc.wait_for(&port_file)?;
        if wants_http {
            proc.http = Some(proc.wait_for(&http_file)?);
        }
        Ok(proc)
    }

    /// Poll `path` until the process has written a full line to it.
    fn wait_for(&mut self, path: &PathBuf) -> Result<String, String> {
        let deadline = Instant::now() + READY_TIMEOUT;
        loop {
            if let Ok(text) = std::fs::read_to_string(path) {
                if text.ends_with('\n') {
                    return Ok(text.trim().to_string());
                }
            }
            if let Ok(Some(status)) = self.child.try_wait() {
                return Err(format!(
                    "{} exited before it was ready ({status})",
                    self.name
                ));
            }
            if Instant::now() > deadline {
                return Err(format!("{} not ready within {READY_TIMEOUT:?}", self.name));
            }
            std::thread::sleep(POLL);
        }
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// One line-protocol request on a fresh connection.
    pub fn call(&self, request: &Request) -> Result<String, String> {
        let mut client =
            LineClient::connect(&self.addr).map_err(|e| format!("{}: {e}", self.name))?;
        client
            .request(request)
            .map_err(|e| format!("{}: {e}", self.name))
    }

    /// Ask the process to drain and wait for it to exit.
    fn shutdown(mut self) -> Result<(), String> {
        let answer = self.call(&Request::Shutdown)?;
        if !answer.contains("\"ok\":\"shutdown\"") {
            return Err(format!(
                "{}: unexpected shutdown answer {answer}",
                self.name
            ));
        }
        let deadline = Instant::now() + EXIT_TIMEOUT;
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("{} exited with {status}", self.name)),
                Ok(None) if Instant::now() > deadline => {
                    return Err(format!("{} did not exit after shutdown", self.name))
                }
                Ok(None) => std::thread::sleep(POLL),
                Err(e) => return Err(format!("{}: {e}", self.name)),
            }
        }
    }
}

impl Drop for Proc {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// Where a workload's requests enter the stack.
#[derive(Debug, Clone)]
pub enum Entry {
    Line(String),
    Http(String),
}

impl Entry {
    pub fn addr(&self) -> &str {
        match self {
            Entry::Line(a) | Entry::Http(a) => a,
        }
    }
}

/// The processes of one workload: its daemons, then the router if any.
pub struct Stack {
    pub procs: Vec<Proc>,
    pub entry: Entry,
}

impl Stack {
    /// Start the workload's processes one after another, each only once
    /// the previous one is ready.
    pub fn start(kind: Kind, bin: &Path, out_dir: &Path) -> Result<Stack, String> {
        let mut serve: Vec<String> = ["serve", "--fast"].map(String::from).to_vec();
        if let [device] = kind.devices()[..] {
            serve.extend(["--device".to_string(), device.id().to_string()]);
        }
        match kind {
            Kind::ColdTitanx | Kind::HotRepeat => {
                let daemon = Proc::spawn("daemon", bin, &serve, out_dir)?;
                let entry = Entry::Line(daemon.addr.clone());
                Ok(Stack {
                    procs: vec![daemon],
                    entry,
                })
            }
            Kind::RoutedBatchHttp => {
                let a = Proc::spawn("replica-a", bin, &serve, out_dir)?;
                let b = Proc::spawn("replica-b", bin, &serve, out_dir)?;
                let router_args: Vec<String> = vec![
                    "router".into(),
                    "--backend".into(),
                    a.addr.clone(),
                    "--backend".into(),
                    b.addr.clone(),
                ];
                let router = Proc::spawn("router", bin, &router_args, out_dir)?;
                let entry = Entry::Http(router.http.clone().expect("the router opened HTTP"));
                Ok(Stack {
                    procs: vec![a, b, router],
                    entry,
                })
            }
        }
    }

    pub fn pids(&self) -> Vec<u32> {
        self.procs.iter().map(Proc::pid).collect()
    }

    /// Shut every process down, router first.
    pub fn stop(mut self) -> Result<(), String> {
        let mut first_error = None;
        while let Some(proc) = self.procs.pop() {
            if let Err(e) = proc.shutdown() {
                first_error.get_or_insert(e);
            }
        }
        first_error.map_or(Ok(()), Err)
    }
}

/// Send `exchanges` one at a time over one connection to `entry` and
/// return the index of the first answer that differs from its
/// reference, with the answer.
pub fn first_mismatch(
    entry: &Entry,
    exchanges: &[Exchange],
) -> Result<Option<(usize, String)>, String> {
    let stream = TcpStream::connect(entry.addr()).map_err(|e| format!("connect: {e}"))?;
    stream.set_nodelay(true).ok();
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    let mut writer = stream.try_clone().map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let mut line = String::new();
    for (i, x) in exchanges.iter().enumerate() {
        writer
            .write_all(x.request.as_bytes())
            .map_err(|e| e.to_string())?;
        let body = match entry {
            Entry::Http(_) => read_http_body(&mut reader, &mut line)?,
            Entry::Line(_) => {
                line.clear();
                reader.read_line(&mut line).map_err(|e| e.to_string())?;
                line.trim_end_matches('\n').to_string()
            }
        };
        if body != *x.expect {
            return Ok(Some((i, body)));
        }
    }
    Ok(None)
}
