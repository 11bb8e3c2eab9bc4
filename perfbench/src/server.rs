//! The release `srbsg-server` as a child process: spawn, wait for ready,
//! read its counters, `SIGKILL`.

use std::io::{self, BufRead, BufReader};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use std::time::{Duration, Instant};

use srbsg_server::Endpoint;

use crate::procfs::{self, ProcSample};

/// Device geometry every server workload runs: 4 banks of 2^16 lines.
pub const BANKS: u64 = 4;
/// Address-space width per bank.
pub const WIDTH: u32 = 16;
/// Logical lines the client may address.
pub const LINES: u64 = BANKS << WIDTH;

/// How long a boot may take before the run fails.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

/// A running server. Dropping it kills and reaps the process.
#[derive(Debug)]
pub struct Server {
    child: Child,
    stdout: BufReader<ChildStdout>,
    /// The server's listen endpoint.
    pub endpoint: Endpoint,
    /// Spawn-to-ready wall time.
    pub boot: Duration,
}

impl Server {
    /// Spawn `bin` on the shelf in `dir` (created if needed) with the
    /// default flush policy (no `--fsync`), and wait until it prints its
    /// listening line: by then boot (recovery and re-key included) has
    /// committed its image to the shelf.
    pub fn spawn(bin: &Path, dir: &Path) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        let endpoint = Endpoint::Uds(dir.join("s.sock"));
        let start = Instant::now();
        let mut child = Command::new(bin)
            .arg("--listen")
            .arg(endpoint.to_string())
            .arg("--data-dir")
            .arg(dir)
            .args(["--banks", &BANKS.to_string(), "--width", &WIDTH.to_string()])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut server = Self {
            child,
            stdout,
            endpoint,
            boot: Duration::ZERO,
        };
        let mut line = String::new();
        loop {
            line.clear();
            if server.stdout.read_line(&mut line)? == 0 {
                return Err(io::Error::other("srbsg-server exited before it was ready"));
            }
            if line.starts_with("srbsg-server listening") {
                break;
            }
            if start.elapsed() > READY_TIMEOUT {
                return Err(io::Error::new(io::ErrorKind::TimedOut, "srbsg-server boot"));
            }
        }
        server.boot = start.elapsed();
        Ok(server)
    }

    /// The process's CPU, `wchar` and peak-RSS counters now.
    pub fn sample(&self) -> io::Result<ProcSample> {
        procfs::sample(self.child.id())
    }

    /// `SIGKILL` the server and reap it.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        // Already reaped after `kill`; otherwise stop it now.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Replace the shelf copies in `to` with those in `from`.
pub fn copy_shelf(from: &Path, to: &Path) -> io::Result<()> {
    for slot in srbsg_server::SHELF_SLOTS {
        std::fs::copy(from.join(slot), to.join(slot))?;
    }
    Ok(())
}

/// A fresh, empty shelf directory at `root/name`.
pub fn fresh_dir(root: &Path, name: &str) -> io::Result<PathBuf> {
    let dir = root.join(name);
    match std::fs::remove_dir_all(&dir) {
        Err(e) if e.kind() != io::ErrorKind::NotFound => return Err(e),
        _ => {}
    }
    std::fs::create_dir_all(&dir)?;
    Ok(dir)
}
