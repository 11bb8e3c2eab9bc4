//! Criterion benchmark crate for the Security RBSG reproduction.
//!
//! Six suites live under `benches/`:
//! * `mapping` — per-access costs of the randomizers, translations, and
//!   remap-step primitives;
//! * `figures` — one scaled-down pipeline per paper table/figure;
//! * `system` — controller write-path and perf-model throughput;
//! * `feistel`, `sharded`, `raa_split` — self-timed grids that also write
//!   a `BENCH_*.json` summary.
//!
//! The self-timed suites share three environment knobs:
//!
//! - `SRBSG_BENCH_QUICK=1` — fewer repetitions and, where a suite has one,
//!   a smaller platform (CI smoke mode);
//! - `SRBSG_BENCH_JSON_DIR=DIR` — write the `BENCH_*.json` summaries into
//!   `DIR` (created if missing) instead of the working directory;
//! - `SRBSG_BENCH_ASSERT=1` — fail the run when a suite's gate fails.

use std::hint::black_box;
use std::path::PathBuf;
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

/// Write a suite's JSON summary as `file` under `SRBSG_BENCH_JSON_DIR`, or
/// in the working directory when it is unset, and print where it went.
pub fn write_summary(file: &str, json: &str) {
    let path = match std::env::var_os("SRBSG_BENCH_JSON_DIR") {
        Some(dir) => {
            std::fs::create_dir_all(&dir).expect("create the bench summary directory");
            PathBuf::from(dir).join(file)
        }
        None => PathBuf::from(file),
    };
    std::fs::write(&path, json).expect("write bench summary");
    println!("[wrote {}]", path.display());
}

/// Median over `reps` timed calls of `f(rep)` of `units` per second:
/// `units` is the work one call does (addresses translated, trials run).
pub fn median_rate<T>(mut f: impl FnMut(u64) -> T, units: f64, reps: usize) -> f64 {
    let mut rates: Vec<f64> = (0..reps as u64)
        .map(|i| {
            let t0 = Instant::now();
            black_box(f(i));
            units / t0.elapsed().as_secs_f64()
        })
        .collect();
    rates.sort_by(|a, b| a.total_cmp(b));
    rates[rates.len() / 2]
}
