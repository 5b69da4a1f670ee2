//! The server under test runs in a child process of its own (this same
//! executable, started with `--serve`), so its memory high-water mark is
//! measured alone.  A second child mode, `--echo`, is the bare-TCP
//! ping-pong peer the loopback probe times.

use piprov_audit::{AuditEngine, TraceConfig};
use piprov_serve::{AuditServer, ServeConfig};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpListener};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdin, ChildStdout, Command, Stdio};
use std::sync::Arc;
use std::time::Duration;

/// Where servers keep their stores: inside the working directory.
pub const DATA_DIR: &str = ".perfbench-data";

/// The server configuration of a run: the shipped defaults, with the
/// tracing plane fully off for measured runs and fully on for traced ones.
pub fn serve_config(traced: bool) -> ServeConfig {
    let trace = if traced {
        TraceConfig {
            capacity: 8192,
            ..TraceConfig::default()
        }
    } else {
        TraceConfig {
            sample_every: 0,
            slow_threshold: Duration::ZERO,
            ..TraceConfig::default()
        }
    };
    ServeConfig {
        trace,
        ..ServeConfig::default()
    }
}

/// A running server child.  Dropping it without [`ServerProcess::finish`]
/// kills the child and waits for it.
#[derive(Debug)]
pub struct ServerProcess {
    child: Child,
    stdin: Option<ChildStdin>,
    stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    dir: PathBuf,
}

fn child_command(args: &[&str]) -> Command {
    let exe = std::env::current_exe().expect("the benchmark knows its own executable");
    let mut command = Command::new(exe);
    command
        .args(args)
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit());
    command
}

fn read_tagged(stdout: &mut BufReader<ChildStdout>, tag: &str) -> Result<String, String> {
    let mut line = String::new();
    stdout
        .read_line(&mut line)
        .map_err(|e| format!("reading child output: {e}"))?;
    line.trim()
        .strip_prefix(tag)
        .map(|rest| rest.trim().to_string())
        .ok_or_else(|| format!("child answered {line:?}, expected `{tag} ...`"))
}

impl ServerProcess {
    /// Starts a server child on a fresh store directory and waits until
    /// it listens.
    pub fn spawn(traced: bool, instance: usize) -> Result<ServerProcess, String> {
        let dir = Path::new(DATA_DIR).join(format!("srv-{}-{}", std::process::id(), instance));
        let _ = std::fs::remove_dir_all(&dir);
        let dir_arg = dir
            .to_str()
            .ok_or("data directory is not UTF-8")?
            .to_string();
        let trace_arg = if traced { "1" } else { "0" };
        let mut child = child_command(&["--serve", &dir_arg, "--trace", trace_arg])
            .spawn()
            .map_err(|e| format!("spawning the server: {e}"))?;
        let stdin = child.stdin.take();
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let addr = match read_tagged(&mut stdout, "addr") {
            Ok(addr) => addr.parse().map_err(|e| format!("server address: {e}")),
            Err(e) => Err(e),
        };
        let mut process = ServerProcess {
            child,
            stdin,
            stdout,
            addr: "127.0.0.1:0".parse().expect("placeholder address"),
            dir,
        };
        process.addr = addr?;
        Ok(process)
    }

    /// Asks the child to shut down (drain, sync, exit) and returns its
    /// peak resident set (`VmHWM`) in kB.
    pub fn finish(mut self) -> Result<u64, String> {
        drop(self.stdin.take());
        let hwm = read_tagged(&mut self.stdout, "hwm_kb")
            .and_then(|kb| kb.parse::<u64>().map_err(|e| format!("hwm: {e}")));
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for server: {e}"))?;
        let _ = std::fs::remove_dir_all(&self.dir);
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        hwm
    }
}

impl Drop for ServerProcess {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

/// The `--serve` child: binds an ephemeral loopback port, prints it,
/// serves until its stdin closes, then shuts down cleanly and reports its
/// peak resident set.
pub fn serve_main(dir: &str, traced: bool) -> Result<(), String> {
    let engine = Arc::new(AuditEngine::open(dir).map_err(|e| format!("opening store: {e}"))?);
    let server = AuditServer::bind(engine, "127.0.0.1:0", serve_config(traced))
        .map_err(|e| format!("binding: {e}"))?;
    println!("addr {}", server.local_addr());
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let mut sink = Vec::new();
    let _ = std::io::stdin().read_to_end(&mut sink);
    server.shutdown().map_err(|e| format!("shutdown: {e}"))?;
    println!("hwm_kb {}", vm_hwm_kb().unwrap_or(0));
    Ok(())
}

fn vm_hwm_kb() -> Option<u64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// A bare-TCP ping-pong peer: for every `request_len`-byte message it
/// answers `response_len` bytes.  No piprov code on either side.
#[derive(Debug)]
pub struct EchoProcess {
    child: Child,
    pub addr: SocketAddr,
}

impl EchoProcess {
    pub fn spawn(request_len: usize, response_len: usize) -> Result<EchoProcess, String> {
        let mut child = child_command(&[
            "--echo",
            &request_len.to_string(),
            &response_len.to_string(),
        ])
        .spawn()
        .map_err(|e| format!("spawning the echo peer: {e}"))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut process = EchoProcess {
            child,
            addr: "127.0.0.1:0".parse().expect("placeholder address"),
        };
        process.addr = read_tagged(&mut stdout, "addr")?
            .parse()
            .map_err(|e| format!("echo address: {e}"))?;
        Ok(process)
    }
}

impl Drop for EchoProcess {
    fn drop(&mut self) {
        drop(self.child.stdin.take());
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

pub fn echo_main(request_len: usize, response_len: usize) -> Result<(), String> {
    // Exit with the parent, whose end of our stdin closes when it exits,
    // even while still parked in `accept`.
    std::thread::spawn(|| {
        let _ = std::io::stdin().read_to_end(&mut Vec::new());
        std::process::exit(0);
    });
    let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    println!("addr {}", listener.local_addr().map_err(|e| e.to_string())?);
    std::io::stdout().flush().map_err(|e| e.to_string())?;
    let (mut stream, _) = listener.accept().map_err(|e| e.to_string())?;
    stream.set_nodelay(true).map_err(|e| e.to_string())?;
    let mut request = vec![0u8; request_len.max(1)];
    let response = vec![0x5au8; response_len.max(1)];
    while stream.read_exact(&mut request).is_ok() {
        if stream.write_all(&response).is_err() {
            break;
        }
    }
    Ok(())
}
