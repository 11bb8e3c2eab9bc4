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
//! - `SRBSG_BENCH_QUICK=1` — smaller platform (CI smoke mode); both
//!   modes time 25 interleaved repetitions.
//! - `SRBSG_BENCH_JSON_DIR=DIR` — where the summary goes.
//! - `SRBSG_BENCH_ASSERT=1` — fail unless split at jobs=1 is within
//!   tolerance of the legacy serial engine, ≥2× legacy at jobs=4 when the
//!   host has ≥4 cores, and ≥3× at jobs=8 when it has ≥8.

use criterion::{black_box, Criterion};
use srbsg_bench::{assert_gate, interleaved_rates, median, quick, write_summary, Summary};
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
    let reps = 25;
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

    // Self-timed rates for the JSON artifact (the criterion shim keeps
    // its samples internal). Repetition `i` runs legacy and then split at
    // each worker count on seed `i`, back to back, so host load falls on
    // every engine alike; seeds vary per repetition so no engine can win
    // on a lucky early failure. Rows are medians; the serial gate takes
    // the median of the per-repetition split/legacy ratios.
    let mut summary = Summary::new("raa_split_lifetime");
    summary
        .param("width", params.width())
        .param("endurance", params.endurance)
        .param("reps", reps);
    let rates = interleaved_rates(
        1 + JOB_COUNTS.len(),
        |engine, s| match engine {
            0 => srbsg_raa_lifetime(&params, &cfg, s).writes,
            e => srbsg_raa_lifetime_split(&params, &cfg, s, JOB_COUNTS[e - 1]).writes,
        },
        1.0,
        reps,
    );
    let legacy = median(rates[0].iter().copied());
    println!("raa_split_lifetime/legacy_serial: {legacy:.2} trials/sec");
    let cell = |engine: &str, jobs: usize| vec![("engine", engine.into()), ("jobs", jobs.into())];
    summary.row(cell("legacy", 1), legacy, "trials/s");
    let mut split_rates = Vec::new();
    for (&jobs, row) in JOB_COUNTS.iter().zip(&rates[1..]) {
        let rate = median(row.iter().copied());
        println!(
            "raa_split_lifetime/split_jobs{jobs}: {rate:.2} trials/sec \
             ({:.2}x vs legacy)",
            rate / legacy
        );
        summary.row(cell("split", jobs), rate, "trials/s");
        split_rates.push((jobs, rate));
    }
    let serial_ratio = median(rates[1].iter().zip(&rates[0]).map(|(s, l)| s / l));
    println!(
        "raa_split_lifetime/serial_ratio: {serial_ratio:.2} (median of paired split_jobs1/legacy)"
    );

    let cores = write_summary("BENCH_raa_split.json", &summary).cores;

    let mut gate_ok = true;
    if serial_ratio < SERIAL_TOLERANCE {
        eprintln!(
            "GATE: split at jobs=1 runs {serial_ratio:.2}x of legacy serial \
             (median of paired repetitions), below {SERIAL_TOLERANCE}x"
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
