//! Split-trial RAA lifetime throughput: the legacy serial engine
//! (`srbsg_raa_lifetime`) vs the splittable round-range engine
//! (`srbsg_raa_lifetime_split`) at 1, 2, 4, and 8 workers — one trial
//! fanned over all cores instead of trials fanned over seeds.
//!
//! Besides the criterion report, the bench writes a summary (median
//! trials/sec per engine × worker count, stamped with the host's core
//! count) to `BENCH_raa_split.json`. The committed copy lives at
//! `results/BENCH_raa_split.json`; like `BENCH_sharded.json`, speedup
//! only shows on multi-core hosts (the CI artifact carries the
//! multi-core numbers), while the output is byte-identical at any worker
//! count either way — that part is what the determinism gates check.
//! Knobs (see the crate docs):
//!
//! - `SRBSG_BENCH_QUICK=1` — smaller platform, fewer repetitions
//!   (CI smoke mode).
//! - `SRBSG_BENCH_JSON_DIR=DIR` — where the summary goes.
//! - `SRBSG_BENCH_ASSERT=1` — fail unless split at jobs=1 is within
//!   tolerance of the legacy serial engine, ≥2× legacy at jobs=4 when the
//!   host has ≥4 cores, and ≥3× at jobs=8 when it has ≥8.

use criterion::{black_box, Criterion};
use srbsg_bench::{assert_gate, median_rate, quick, write_summary, Summary};
use srbsg_lifetime::{srbsg_raa_lifetime, srbsg_raa_lifetime_split, PcmParams, SrbsgParams};

const JOB_COUNTS: [usize; 4] = [1, 2, 4, 8];
/// Split at jobs=1 trails the legacy engine by its per-range bookkeeping
/// (both deposit through one stay kernel; the split engine also merges
/// each range, over-simulates and replays the crossing range); the gate
/// allows this much of it.
const SERIAL_TOLERANCE: f64 = 0.7;

fn platform(quick: bool) -> (PcmParams, SrbsgParams) {
    let params = if quick {
        PcmParams::small(14, 500_000)
    } else {
        PcmParams::small(16, 2_000_000)
    };
    let cfg = SrbsgParams {
        sub_regions: 64,
        inner_interval: 16,
        outer_interval: 32,
        stages: 7,
    };
    (params, cfg)
}

fn main() {
    let quick = quick();
    let reps = if quick { 3 } else { 5 };
    let (params, cfg) = platform(quick);

    let mut c = Criterion::default();
    let mut g = c.benchmark_group("raa_split_lifetime");
    g.sample_size(10);
    g.bench_function("legacy_serial", |b| {
        b.iter(|| black_box(srbsg_raa_lifetime(&params, &cfg, 1)))
    });
    for &jobs in &JOB_COUNTS {
        g.bench_function(format!("split_jobs{jobs}"), |b| {
            b.iter(|| black_box(srbsg_raa_lifetime_split(&params, &cfg, 1, jobs)))
        });
    }
    g.finish();

    // Self-timed medians for the JSON artifact (the criterion shim keeps
    // its samples internal). Seeds vary per repetition so no engine can
    // win on a lucky early failure.
    let mut summary = Summary::new("raa_split_lifetime");
    summary
        .param("width", params.width())
        .param("endurance", params.endurance)
        .param("reps", reps);
    let legacy = median_rate(|s| srbsg_raa_lifetime(&params, &cfg, s).writes, 1.0, reps);
    println!("raa_split_lifetime/legacy_serial: {legacy:.2} trials/sec");
    let cell = |engine: &str, jobs: usize| vec![("engine", engine.into()), ("jobs", jobs.into())];
    summary.row(cell("legacy", 1), legacy, "trials/s");
    let mut split_rates = Vec::new();
    for &jobs in &JOB_COUNTS {
        let rate = median_rate(
            |s| srbsg_raa_lifetime_split(&params, &cfg, s, jobs).writes,
            1.0,
            reps,
        );
        println!(
            "raa_split_lifetime/split_jobs{jobs}: {rate:.2} trials/sec \
             ({:.2}x vs legacy)",
            rate / legacy
        );
        summary.row(cell("split", jobs), rate, "trials/s");
        split_rates.push((jobs, rate));
    }

    let cores = write_summary("BENCH_raa_split.json", &summary).cores;

    let mut gate_ok = true;
    let split_j1 = split_rates[0].1;
    if split_j1 < SERIAL_TOLERANCE * legacy {
        eprintln!(
            "GATE: split at jobs=1 ({split_j1:.2}/s) below {SERIAL_TOLERANCE}x \
             of legacy serial ({legacy:.2}/s)"
        );
        gate_ok = false;
    }
    for (min_cores, jobs, min_speedup) in [(4usize, 4usize, 2.0f64), (8, 8, 3.0)] {
        if cores < min_cores {
            println!("(skipping jobs={jobs} scaling gate: only {cores} core(s) available)");
            continue;
        }
        let rate = split_rates.iter().find(|(j, _)| *j == jobs).unwrap().1;
        let speedup = rate / legacy;
        if speedup < min_speedup {
            eprintln!(
                "GATE: split at jobs={jobs} only {speedup:.2}x vs legacy serial \
                 (need >= {min_speedup}x on a {cores}-core host)"
            );
            gate_ok = false;
        }
    }
    if assert_gate() {
        assert!(
            gate_ok,
            "raa_split bench gate failed (see GATE lines above)"
        );
    }
}
