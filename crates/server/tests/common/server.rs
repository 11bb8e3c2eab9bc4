//! The one launcher every test that runs a real `srbsg-server` process
//! uses: spawn it on a data directory, wait until it answers a ping, and
//! stop it with `SIGKILL` or with a `SIGTERM` drain that must exit 0.
//! A test binary includes it with
//! `#[path = "common/server.rs"] mod server;`.

// Each test binary uses its own subset of the launcher.
#![allow(dead_code)]

use std::ops::Deref;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use srbsg_server::{os, Client, Endpoint};

/// A fresh, empty directory under the system temp dir, removed on drop.
/// `tag` must be unique within a test binary.
pub struct TempDir(PathBuf);

impl TempDir {
    pub fn new(tag: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("srbsg_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        Self(dir)
    }
}

impl Deref for TempDir {
    type Target = Path;
    fn deref(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// A running `srbsg-server`.
pub struct Server {
    child: Child,
    /// Where it listens, as it wrote to its `endpoint` sidecar.
    pub endpoint: Endpoint,
}

impl Server {
    /// Boot on `dir` (recovering whatever shelf it holds), listening on
    /// the Unix socket `dir/s.sock`; `flags` are further server flags.
    pub fn uds(dir: &Path, flags: &[&str]) -> Self {
        Self::start(dir, &format!("uds:{}", dir.join("s.sock").display()), flags)
    }

    /// Boot on `dir` listening on a TCP port the kernel picks.
    pub fn tcp(dir: &Path, flags: &[&str]) -> Self {
        Self::start(dir, "tcp:127.0.0.1:0", flags)
    }

    fn start(dir: &Path, listen: &str, flags: &[&str]) -> Self {
        // A sidecar left by an earlier boot may name another server's port.
        let sidecar = dir.join("endpoint");
        let _ = std::fs::remove_file(&sidecar);
        let mut child = Command::new(env!("CARGO_BIN_EXE_srbsg-server"))
            .args(["--listen", listen, "--data-dir", dir.to_str().unwrap()])
            .args(flags)
            .stdout(Stdio::null())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn srbsg-server");
        // The server writes the bound endpoint once it listens; it is up
        // when that endpoint answers a ping.
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            let endpoint = std::fs::read_to_string(&sidecar)
                .ok()
                .and_then(|s| Endpoint::parse(s.trim()).ok());
            if let Some(endpoint) = endpoint {
                if let Ok(mut c) = Client::connect(&endpoint, Duration::from_millis(200)) {
                    if c.ping().is_ok() {
                        return Self { child, endpoint };
                    }
                }
            }
            if let Ok(Some(status)) = child.try_wait() {
                panic!("srbsg-server exited during boot: {status}");
            }
            assert!(Instant::now() < deadline, "server never came up");
            std::thread::sleep(Duration::from_millis(20));
        }
    }

    pub fn client(&self) -> Client {
        Client::connect(&self.endpoint, Duration::from_secs(10)).expect("connect")
    }

    pub fn assert_alive(&self) {
        self.client()
            .ping()
            .expect("server must still answer pings");
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// `SIGKILL` and reap.
    pub fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL");
        self.child.wait().expect("wait");
    }

    /// `SIGTERM` and wait: the drain must exit 0.
    pub fn sigterm(mut self) {
        os::send_signal(self.child.id(), os::SIGTERM).expect("SIGTERM");
        let status = self.child.wait().expect("wait");
        assert_eq!(status.code(), Some(0), "the SIGTERM drain must exit 0");
    }
}

/// A test that fails mid-way must not leave its server running.
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}
