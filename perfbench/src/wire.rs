//! The service under test as a child process, and a line-delimited
//! JSON connection to it over loopback TCP.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// Builds the shipped `pga-shop-serve` release binary from the
/// repository's own manifest (in the current directory) and returns its
/// path. Cargo's output goes to stderr, so stdout stays the report.
pub fn build_server() -> Result<PathBuf, String> {
    if !Path::new("Cargo.toml").is_file() || !Path::new("crates/serve").is_dir() {
        return Err("run from the repository root (Cargo.toml and crates/serve)".into());
    }
    let cargo = std::env::var("CARGO").unwrap_or_else(|_| "cargo".into());
    let status = Command::new(cargo)
        .args([
            "build",
            "--release",
            "--quiet",
            "--manifest-path",
            "Cargo.toml",
            "-p",
            "serve",
            "--bin",
            "pga-shop-serve",
        ])
        .stdout(Stdio::null())
        .status()
        .map_err(|e| format!("cannot run cargo: {e}"))?;
    if !status.success() {
        return Err(format!("building pga-shop-serve failed: {status}"));
    }
    let target = std::env::var("CARGO_TARGET_DIR").unwrap_or_else(|_| "target".into());
    let bin = Path::new(&target).join("release").join("pga-shop-serve");
    if bin.is_file() {
        Ok(bin)
    } else {
        Err(format!("{} missing after the build", bin.display()))
    }
}

/// A running server process. Dropping it kills and reaps the process.
pub struct Server {
    child: Child,
    // Held open so the server's own stdout writes never hit a closed
    // pipe.
    _stdout: BufReader<ChildStdout>,
    /// The bound loopback address.
    pub addr: String,
}

impl Server {
    /// Spawns `bin` on an ephemeral loopback port with `flags` and waits
    /// for its `LISTENING <addr>` line.
    pub fn spawn(bin: &Path, flags: &[String]) -> Result<Server, String> {
        let mut child = Command::new(bin)
            .args(["--port", "0"])
            .args(flags)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", bin.display()))?;
        let mut line = String::new();
        let stdout = child.stdout.take().ok_or("server stdout missing")?;
        let mut stdout = BufReader::new(stdout);
        let read = stdout.read_line(&mut line);
        let addr = match (read, line.trim().strip_prefix("LISTENING ")) {
            (Ok(_), Some(addr)) => addr.to_string(),
            _ => {
                let _ = child.kill();
                let _ = child.wait();
                return Err(format!("server did not report its address: {line:?}"));
            }
        };
        Ok(Server {
            child,
            _stdout: stdout,
            addr,
        })
    }

    /// Opens a new connection.
    pub fn connect(&self) -> Result<Conn, String> {
        Conn::open(&self.addr)
    }

    /// The server's peak resident set (`VmHWM`), in MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        let path = format!("/proc/{}/status", self.child.id());
        let status = std::fs::read_to_string(&path).map_err(|e| format!("{path}: {e}"))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| format!("no VmHWM in {path}"))
    }

    /// Asks the server to shut down and waits for it to exit.
    pub fn shutdown(mut self) -> Result<(), String> {
        let mut conn = self.connect()?;
        conn.call(r#"{"cmd":"shutdown"}"#)?;
        let deadline = Instant::now() + Duration::from_secs(20);
        while Instant::now() < deadline {
            if let Some(status) = self.child.try_wait().map_err(|e| e.to_string())? {
                return if status.success() {
                    Ok(())
                } else {
                    Err(format!("server exited with {status}"))
                };
            }
            std::thread::sleep(Duration::from_millis(5));
        }
        Err("server did not exit after shutdown".into())
    }

    /// `kill -9`: no shutdown path runs, as in a crash.
    pub fn kill(mut self) {
        self.reap();
    }

    fn reap(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.reap();
    }
}

/// One keep-alive connection: one request line out, one response line
/// back.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
    line: String,
}

impl Conn {
    /// Connects to `addr`.
    pub fn open(addr: &str) -> Result<Conn, String> {
        let stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
        stream.set_nodelay(true).map_err(|e| e.to_string())?;
        stream
            .set_read_timeout(Some(Duration::from_secs(60)))
            .map_err(|e| e.to_string())?;
        let writer = stream.try_clone().map_err(|e| e.to_string())?;
        Ok(Conn {
            reader: BufReader::with_capacity(1 << 16, stream),
            writer,
            line: String::new(),
        })
    }

    /// Sends `request` and returns the response line (without its
    /// newline) and the time from send to the full response line.
    pub fn call(&mut self, request: &str) -> Result<(&str, Duration), String> {
        let mut bytes = Vec::with_capacity(request.len() + 1);
        bytes.extend_from_slice(request.as_bytes());
        bytes.push(b'\n');
        self.line.clear();
        let started = Instant::now();
        self.writer
            .write_all(&bytes)
            .map_err(|e| format!("send: {e}"))?;
        let n = self
            .reader
            .read_line(&mut self.line)
            .map_err(|e| format!("receive: {e}"))?;
        let elapsed = started.elapsed();
        if n == 0 {
            return Err("server closed the connection".into());
        }
        Ok((self.line.trim_end_matches('\n'), elapsed))
    }
}
