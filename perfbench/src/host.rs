//! Host metadata stamped on every result.

use std::path::Path;
use std::process::Command;

/// Cores, SIMD tier, revision, and where and how the shelf is stored.
#[derive(Debug, Clone)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Widest SIMD tier the Feistel batch kernels can dispatch to.
    pub simd: &'static str,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub rev: String,
    /// Filesystem type of the shelf's data directory.
    pub data_fs: String,
    /// How shelf saves reach the medium.
    pub flush: &'static str,
}

impl Host {
    /// Probe this host; `data_dir` must exist.
    pub fn probe(data_dir: &Path) -> Self {
        let rev = Command::new("git")
            .args(["rev-parse", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .and_then(|o| String::from_utf8(o.stdout).ok())
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|| "unknown".into());
        let data_fs = std::fs::canonicalize(data_dir)
            .ok()
            .and_then(|dir| {
                let mounts = std::fs::read_to_string("/proc/self/mounts").ok()?;
                mount_fs(&mounts, &dir.to_string_lossy())
            })
            .unwrap_or_else(|| "unknown".into());
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: simd_tier(),
            rev,
            data_fs,
            flush: "page cache, no --fsync",
        }
    }

    /// The metadata as one JSON object.
    pub fn json(&self) -> String {
        format!(
            "{{\"cores\": {}, \"simd\": \"{}\", \"rev\": \"{}\", \"data_fs\": \"{}\", \"flush\": \"{}\"}}",
            self.cores, self.simd, self.rev, self.data_fs, self.flush
        )
    }
}

fn simd_tier() -> &'static str {
    #[cfg(target_arch = "x86_64")]
    {
        if std::arch::is_x86_feature_detected!("avx512f") {
            return "avx512f";
        }
        if std::arch::is_x86_feature_detected!("avx2") {
            return "avx2";
        }
    }
    "scalar"
}

/// The filesystem type of the longest mount point containing `path`,
/// from `/proc/self/mounts` text.
pub fn mount_fs(mounts: &str, path: &str) -> Option<String> {
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (_dev, point, fs) = (f.next()?, f.next()?, f.next()?);
            let inside = path == point
                || point == "/"
                || path.strip_prefix(point).is_some_and(|r| r.starts_with('/'));
            inside.then_some((point.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map(|(_, fs)| fs.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn longest_mount_prefix_wins() {
        let mounts = "/dev/vda / ext4 rw 0 0\ntmpfs /tmp tmpfs rw 0 0\nproc /proc proc rw 0 0\n";
        assert_eq!(
            mount_fs(mounts, "/home/x/.bench_build").as_deref(),
            Some("ext4")
        );
        assert_eq!(mount_fs(mounts, "/tmp/shelf").as_deref(), Some("tmpfs"));
        assert_eq!(mount_fs(mounts, "/tmpx").as_deref(), Some("ext4"));
    }
}
