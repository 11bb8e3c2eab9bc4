//! Criterion benchmark crate for the Security RBSG reproduction.
//!
//! Six suites live under `benches/`:
//! * `mapping` — per-access costs of the randomizers, translations, and
//!   remap-step primitives;
//! * `figures` — one scaled-down pipeline per paper table/figure;
//! * `system` — controller write-path and perf-model throughput;
//! * `feistel`, `sharded`, `raa_split` — self-timed grids that also write
//!   a `BENCH_*.json` summary through [`write_summary`].
//!
//! `examples/perfbench_summary.rs` writes `BENCH_server.json` through the
//! same function, from perfbench's result lines.
//!
//! Every summary has one shape: `{"bench", "host": {"cores", "simd",
//! "rev"}, "params": {…}, "rows": [{…labels…, "value", "unit"}]}`. A
//! row's labels say which cell it measures, `value` is that cell's median
//! and `unit` what it counts.
//!
//! The self-timed suites share three environment knobs:
//!
//! - `SRBSG_BENCH_QUICK=1` — fewer repetitions and, where a suite has one,
//!   a smaller platform (CI smoke mode);
//! - `SRBSG_BENCH_JSON_DIR=DIR` — write the `BENCH_*.json` summaries into
//!   `DIR` (created if missing) instead of the working directory. A
//!   relative `DIR` is taken from the workspace root, not from
//!   `cargo bench`'s working directory `crates/bench/`;
//! - `SRBSG_BENCH_ASSERT=1` — fail the run when a suite's gate fails.

use std::ffi::OsStr;
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::process::Command;
use std::time::Instant;

fn knob_on(name: &str) -> bool {
    std::env::var(name).is_ok_and(|v| v == "1")
}

/// Whether `SRBSG_BENCH_QUICK=1`.
pub fn quick() -> bool {
    knob_on("SRBSG_BENCH_QUICK")
}

/// Whether `SRBSG_BENCH_ASSERT=1`.
pub fn assert_gate() -> bool {
    knob_on("SRBSG_BENCH_ASSERT")
}

/// A label or parameter value: an integer or a string.
#[derive(Debug)]
pub enum Field {
    /// Written as a JSON integer.
    Int(u64),
    /// Written as a JSON string.
    Str(String),
}

impl From<u64> for Field {
    fn from(v: u64) -> Self {
        Field::Int(v)
    }
}

impl From<usize> for Field {
    fn from(v: usize) -> Self {
        Field::Int(v as u64)
    }
}

impl From<u32> for Field {
    fn from(v: u32) -> Self {
        Field::Int(v.into())
    }
}

impl From<&str> for Field {
    fn from(v: &str) -> Self {
        Field::Str(v.to_string())
    }
}

/// The machine a summary was measured on.
#[derive(Debug)]
pub struct Host {
    /// `std::thread::available_parallelism`.
    pub cores: usize,
    /// Widest SIMD tier the Feistel batch kernels dispatch to.
    pub simd: &'static str,
    /// `git rev-parse HEAD`, suffixed `-dirty` when tracked files differ
    /// from it; `unknown` outside a git checkout.
    pub rev: String,
}

impl Host {
    /// Probe this host.
    pub fn probe() -> Self {
        let git = |args: &[&str]| {
            Command::new("git")
                .args(args)
                .output()
                .ok()
                .filter(|o| o.status.success())
                .and_then(|o| String::from_utf8(o.stdout).ok())
        };
        let head = git(&["rev-parse", "HEAD"]);
        let status = git(&["status", "--porcelain", "--untracked-files=no"]);
        Self {
            cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
            simd: simd_tier(),
            rev: revision(head.as_deref(), status.as_deref()),
        }
    }
}

/// The `rev` a summary records, from the output of `git rev-parse HEAD`
/// and of `git status --porcelain --untracked-files=no` (`None` where git
/// failed): the revision, marked `-dirty` when a tracked file differs from
/// it, so a summary measured on an uncommitted tree does not name its
/// parent.
fn revision(head: Option<&str>, status: Option<&str>) -> String {
    match head.map(str::trim) {
        None | Some("") => "unknown".into(),
        Some(rev) if status.is_some_and(|s| !s.trim().is_empty()) => format!("{rev}-dirty"),
        Some(rev) => rev.into(),
    }
}

/// The tier `FeistelNetwork`'s batch kernels pick, checked in the same
/// order.
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

/// One measured cell of a summary.
#[derive(Debug)]
pub struct Row {
    /// Which cell: `(name, value)` pairs, written in order.
    pub labels: Vec<(&'static str, Field)>,
    /// The cell's median.
    pub value: f64,
    /// What `value` counts, e.g. `events/s`.
    pub unit: &'static str,
}

/// A suite's summary: its name, the parameters every row shares, and one
/// row per measured cell.
#[derive(Debug)]
pub struct Summary {
    /// Suite name.
    pub bench: &'static str,
    /// Parameters shared by every row, written in order.
    pub params: Vec<(&'static str, Field)>,
    /// Measured cells.
    pub rows: Vec<Row>,
}

impl Summary {
    /// A summary with no parameters and no rows yet.
    pub fn new(bench: &'static str) -> Self {
        Self {
            bench,
            params: Vec::new(),
            rows: Vec::new(),
        }
    }

    /// Add a shared parameter.
    pub fn param(&mut self, name: &'static str, value: impl Into<Field>) -> &mut Self {
        self.params.push((name, value.into()));
        self
    }

    /// Add a row measuring `value` `unit` at the cell `labels` name.
    pub fn row(&mut self, labels: Vec<(&'static str, Field)>, value: f64, unit: &'static str) {
        self.rows.push(Row {
            labels,
            value,
            unit,
        });
    }

    /// The summary as JSON, one row per line. A value keeps six
    /// significant digits, or all of its integer digits.
    pub fn to_json(&self, host: &Host) -> String {
        let mut out = format!("{{\"bench\": {},\n", json_str(self.bench));
        let _ = writeln!(
            out,
            " \"host\": {{\"cores\": {}, \"simd\": {}, \"rev\": {}}},",
            host.cores,
            json_str(host.simd),
            json_str(&host.rev)
        );
        let _ = writeln!(out, " \"params\": {{{}}},", fields(&self.params));
        out.push_str(" \"rows\": [\n");
        for (i, row) in self.rows.iter().enumerate() {
            let sep = if row.labels.is_empty() { "" } else { ", " };
            let _ = write!(
                out,
                "  {{{}{sep}\"value\": {}, \"unit\": {}}}",
                fields(&row.labels),
                number(row.value),
                json_str(row.unit)
            );
            out.push_str(if i + 1 < self.rows.len() { ",\n" } else { "\n" });
        }
        out.push_str(" ]}\n");
        out
    }
}

fn fields(fields: &[(&'static str, Field)]) -> String {
    fields
        .iter()
        .map(|(k, v)| {
            let v = match v {
                Field::Int(n) => n.to_string(),
                Field::Str(s) => json_str(s),
            };
            format!("{}: {v}", json_str(k))
        })
        .collect::<Vec<_>>()
        .join(", ")
}

/// A JSON string. Every string written is one of the program's own names
/// or a git revision — ASCII without control characters, which Rust's
/// `{:?}` quotes exactly as JSON does.
fn json_str(s: &str) -> String {
    format!("{s:?}")
}

fn number(v: f64) -> String {
    assert!(v.is_finite(), "a bench row measured {v}");
    let int_digits = if v.abs() >= 1.0 {
        v.abs().log10().floor() as usize + 1
    } else {
        0
    };
    let s = format!("{v:.*}", 6usize.saturating_sub(int_digits));
    if s.contains('.') {
        s.trim_end_matches('0').trim_end_matches('.').to_string()
    } else {
        s
    }
}

/// Write `summary` as `file` under `SRBSG_BENCH_JSON_DIR` (a relative
/// one is taken from the workspace root), or in the working directory
/// when it is unset, stamped with this host, and print where it went.
/// Returns the host it was stamped with, so a suite's gate reads the
/// core count the file records.
pub fn write_summary(file: &str, summary: &Summary) -> Host {
    let path = match std::env::var_os("SRBSG_BENCH_JSON_DIR") {
        Some(dir) => {
            let dir = summary_dir(&dir);
            std::fs::create_dir_all(&dir).expect("create the bench summary directory");
            dir.join(file)
        }
        None => PathBuf::from(file),
    };
    let host = Host::probe();
    std::fs::write(&path, summary.to_json(&host)).expect("write bench summary");
    println!("[wrote {}]", path.display());
    host
}

/// The directory `SRBSG_BENCH_JSON_DIR=dir` names: `dir` itself when
/// absolute, else `dir` under the workspace root, so
/// `SRBSG_BENCH_JSON_DIR=results` means the workspace's `results/` under
/// `cargo bench` (working directory `crates/bench/`) and `cargo run`
/// alike.
fn summary_dir(dir: &OsStr) -> PathBuf {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"))
        .ancestors()
        .nth(2)
        .expect("crates/bench sits two levels below the workspace root");
    root.join(dir)
}

/// Median over `reps` timed calls of `f(rep)` of `units` per second:
/// `units` is the work one call does (addresses translated, trials run).
pub fn median_rate<T>(mut f: impl FnMut(u64) -> T, units: f64, reps: usize) -> f64 {
    median((0..reps as u64).map(|i| timed_rate(|| f(i), units)))
}

/// Rates in `units` per second of `workloads` workloads over `reps`
/// interleaved repetitions, where `f(w, rep)` runs workload `w`:
/// repetition `i` times `f(0, i)`, `f(1, i)`, … back to back, so load
/// that comes and goes on the host falls on every workload alike instead
/// of on whichever ran while it lasted. Returns one row of `reps` rates
/// per workload, in repetition order.
pub fn interleaved_rates<T>(
    workloads: usize,
    mut f: impl FnMut(usize, u64) -> T,
    units: f64,
    reps: usize,
) -> Vec<Vec<f64>> {
    let mut rows = vec![Vec::with_capacity(reps); workloads];
    for i in 0..reps as u64 {
        for (w, row) in rows.iter_mut().enumerate() {
            row.push(timed_rate(|| f(w, i), units));
        }
    }
    rows
}

/// The median of `xs` (the upper middle one of an even count).
pub fn median(xs: impl IntoIterator<Item = f64>) -> f64 {
    let mut xs: Vec<f64> = xs.into_iter().collect();
    xs.sort_by(|a, b| a.total_cmp(b));
    xs[xs.len() / 2]
}

/// `units` per second of one call of `f`.
fn timed_rate<T>(f: impl FnOnce() -> T, units: f64) -> f64 {
    let t0 = Instant::now();
    black_box(f());
    units / t0.elapsed().as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_changed_tracked_file_marks_the_revision_dirty() {
        assert_eq!(revision(Some("0123abc\n"), Some("")), "0123abc");
        assert_eq!(
            revision(Some("0123abc\n"), Some(" M src/lib.rs\n")),
            "0123abc-dirty"
        );
        // A failed status check cannot tell; the revision stays as read.
        assert_eq!(revision(Some("0123abc\n"), None), "0123abc");
        assert_eq!(revision(None, Some(" M src/lib.rs\n")), "unknown");
        assert_eq!(revision(Some(""), Some("")), "unknown");
    }

    #[test]
    fn a_relative_summary_dir_is_taken_from_the_workspace_root() {
        let root = summary_dir(OsStr::new(""));
        assert!(root.join("Cargo.toml").is_file() && root.join("crates/bench").is_dir());
        assert_eq!(summary_dir(OsStr::new("results")), root.join("results"));
        assert_eq!(
            summary_dir(OsStr::new("/tmp/bench-json")),
            Path::new("/tmp/bench-json")
        );
    }

    #[test]
    fn a_summary_is_written_in_the_one_shape() {
        let mut s = Summary::new("demo");
        s.param("reps", 5u64).param("mode", "full");
        s.row(
            vec![("engine", "split".into()), ("jobs", 2u64.into())],
            1_234_567.891,
            "events/s",
        );
        s.row(vec![("engine", "legacy".into())], 0.026_71, "ms");
        s.row(Vec::new(), 28.084_999, "x");
        let host = Host {
            cores: 2,
            simd: "avx2",
            rev: "0123abc".into(),
        };
        assert_eq!(
            s.to_json(&host),
            "{\"bench\": \"demo\",\n \
             \"host\": {\"cores\": 2, \"simd\": \"avx2\", \"rev\": \"0123abc\"},\n \
             \"params\": {\"reps\": 5, \"mode\": \"full\"},\n \
             \"rows\": [\n  \
             {\"engine\": \"split\", \"jobs\": 2, \"value\": 1234568, \"unit\": \"events/s\"},\n  \
             {\"engine\": \"legacy\", \"value\": 0.02671, \"unit\": \"ms\"},\n  \
             {\"value\": 28.085, \"unit\": \"x\"}\n \
             ]}\n"
        );
    }
}
