//! The server under test as a child process: spawn `graphflow-serve`, find its port, scrape
//! `/metrics`, read its CPU time and peak memory from `/proc`, and stop it.

use crate::http::Conn;
use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

/// `sysconf(_SC_CLK_TCK)`; fixed at 100 on every Linux this runs on.
const CLK_TCK: f64 = 100.0;

pub struct ServerProc {
    child: Child,
    /// Held open until the child ends: the server prints while it drains, and printing to a
    /// closed pipe would abort its graceful shutdown.
    _stdout: BufReader<ChildStdout>,
    /// Spawn until the first `200` on `/healthz`.
    pub boot: Duration,
}

impl ServerProc {
    /// Start the server over `data_dir` with `threads` HTTP workers and fsync durability, and
    /// open `conns` keep-alive connections to it. A worker owns a connection for its whole
    /// lifetime, so the connections opened here are the only ones the run may use; the first
    /// one also carries the health probe that ends the boot interval.
    pub fn boot(
        bin: &Path,
        data_dir: &Path,
        threads: usize,
        conns: usize,
    ) -> Result<(ServerProc, Vec<Conn>), String> {
        assert!(conns >= 1 && conns <= threads);
        let started = Instant::now();
        let log = std::fs::File::create(data_dir.with_extension("log"))
            .map_err(|e| format!("create server log: {e}"))?;
        let mut child = Command::new(bin)
            .arg("--data-dir")
            .arg(data_dir)
            .args(["--port", "0", "--durability", "fsync", "--enable-shutdown"])
            .args(["--threads", &threads.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", bin.display()))?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout was piped"));
        let mut line = String::new();
        let read = stdout.read_line(&mut line);
        let addr = match read {
            Ok(n) if n > 0 => line
                .trim()
                .rsplit("http://")
                .next()
                .and_then(|a| a.parse::<SocketAddr>().ok()),
            _ => None,
        };
        let Some(addr) = addr else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(format!("server did not announce its address: {line:?}"));
        };
        let mut server = ServerProc {
            child,
            _stdout: stdout,
            boot: Duration::ZERO,
        };
        let mut first = Conn::connect(addr).map_err(|e| format!("connect: {e}"))?;
        let health = first
            .call("GET", "/healthz", b"")
            .map_err(|e| format!("healthz: {e}"))?;
        if health.status != 200 {
            return Err(format!("healthz answered {}", health.status));
        }
        server.boot = started.elapsed();
        let mut all = vec![first];
        for _ in 1..conns {
            all.push(Conn::connect(addr).map_err(|e| format!("connect: {e}"))?);
        }
        Ok((server, all))
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// User + system CPU seconds the server has consumed so far.
    pub fn cpu_seconds(&self) -> f64 {
        cpu_seconds_of(&format!("/proc/{}/stat", self.pid()))
    }

    /// `VmHWM`: the peak resident set of the server process, in MiB.
    pub fn peak_rss_mib(&self) -> f64 {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.pid()));
        status
            .ok()
            .and_then(|s| {
                s.lines()
                    .find_map(|l| l.strip_prefix("VmHWM:"))
                    .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
            })
            .map_or(0.0, |kb| kb / 1024.0)
    }

    /// Ask for a graceful stop over `conn` and wait for the process to end.
    pub fn shutdown(mut self, mut conn: Conn) -> Result<(), String> {
        let resp = conn
            .call("POST", "/shutdown", b"")
            .map_err(|e| format!("shutdown request: {e}"))?;
        if resp.status != 200 {
            return Err(format!("shutdown answered {}", resp.status));
        }
        drop(conn);
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("server exited with {status}")),
                Ok(None) if Instant::now() < deadline => {
                    std::thread::sleep(Duration::from_millis(2));
                }
                Ok(None) => return Err("server did not exit within 30 s".into()),
                Err(e) => return Err(format!("wait for server: {e}")),
            }
        }
        // Drop reaps the child if the loop returned an error.
    }
}

impl Drop for ServerProc {
    /// Never leave the child behind, whatever path the run took.
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
        }
        let _ = self.child.wait();
    }
}

/// User + system CPU seconds of this process.
pub fn own_cpu_seconds() -> f64 {
    cpu_seconds_of("/proc/self/stat")
}

fn cpu_seconds_of(stat_path: &str) -> f64 {
    let Ok(stat) = std::fs::read_to_string(stat_path) else {
        return 0.0;
    };
    // Fields after the parenthesised command name; utime and stime are the 14th and 15th
    // fields of the whole line, so the 12th and 13th after the name's closing parenthesis.
    let Some(rest) = stat.rsplit_once(')').map(|(_, r)| r) else {
        return 0.0;
    };
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |i: usize| {
        fields
            .get(i)
            .and_then(|f| f.parse::<f64>().ok())
            .unwrap_or(0.0)
    };
    (ticks(11) + ticks(12)) / CLK_TCK
}

/// One `/metrics` scrape as `series -> value` (labels kept in the series name).
pub fn scrape(conn: &mut Conn) -> Result<HashMap<String, f64>, String> {
    let resp = conn
        .call("GET", "/metrics", b"")
        .map_err(|e| format!("metrics scrape: {e}"))?;
    if resp.status != 200 {
        return Err(format!("metrics answered {}", resp.status));
    }
    let text = String::from_utf8_lossy(&resp.body);
    Ok(text
        .lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.rsplit_once(' ')?;
            Some((name.to_string(), value.parse().ok()?))
        })
        .collect())
}

/// A data directory path under the work root, fresh for each set-up.
pub fn fresh_dir(work: &Path, name: &str) -> Result<PathBuf, String> {
    let dir = work.join(name);
    if dir.exists() {
        std::fs::remove_dir_all(&dir).map_err(|e| format!("clear {}: {e}", dir.display()))?;
    }
    std::fs::create_dir_all(work).map_err(|e| format!("create {}: {e}", work.display()))?;
    Ok(dir)
}
