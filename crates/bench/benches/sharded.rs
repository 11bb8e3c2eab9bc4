//! Sharded trace-runner throughput: events/sec of the bank-sharded
//! execution engine at 1, 2, 4, and 8 workers over an 8-bank system.
//!
//! Besides the criterion report, the bench writes a summary (median
//! events/sec per worker count, stamped with the host's core count) to
//! `BENCH_sharded.json`, in `SRBSG_BENCH_JSON_DIR` when that is set (see
//! the crate docs). The committed copy lives at
//! `results/BENCH_sharded.json`. Speedup only shows on multi-core hosts;
//! the output is byte-identical at any worker count either way, which is
//! what the determinism gates check.

use criterion::{black_box, Criterion};
use srbsg_bench::{median_rate, write_summary, Summary};
use srbsg_pcm::{MultiBankSystem, TimingModel};
use srbsg_wearlevel::StartGap;
use srbsg_workloads::{ShardedTraceRunner, WorkloadSpec};

const BANKS: usize = 8;
const LINES_PER_BANK: u64 = 1 << 10;
const EVENTS_PER_BANK: u64 = 20_000;
const REPS: usize = 5;

fn run_once(jobs: usize) -> u128 {
    let spec = WorkloadSpec::Zipf {
        s: 1.1,
        write_ratio: 0.7,
        mean_gap: 20,
    };
    let runner = ShardedTraceRunner {
        master_seed: 7,
        events_per_bank: EVENTS_PER_BANK,
        curve_points: 20,
        max_regions: 512,
    };
    let mut sys = MultiBankSystem::new(
        (0..BANKS)
            .map(|_| StartGap::start_gap(LINES_PER_BANK, 16))
            .collect(),
        u64::MAX,
        TimingModel::PAPER,
    );
    let report = runner.run(&mut sys, &|_b, lines, seed| spec.build(lines, seed), jobs);
    report.demand_writes()
}

fn main() {
    let job_counts = [1usize, 2, 4, 8];
    let mut c = Criterion::default();
    let mut g = c.benchmark_group("sharded_runner");
    g.sample_size(10);
    for &jobs in &job_counts {
        g.bench_function(format!("jobs{jobs}"), |b| {
            b.iter(|| black_box(run_once(jobs)))
        });
    }
    g.finish();

    // Self-timed medians for the JSON artifact (the criterion shim keeps
    // its samples internal).
    let total_events = BANKS as u64 * EVENTS_PER_BANK;
    let mut summary = Summary::new("sharded_runner");
    summary
        .param("banks", BANKS)
        .param("lines_per_bank", LINES_PER_BANK)
        .param("events_per_bank", EVENTS_PER_BANK)
        .param("reps", REPS);
    for &jobs in &job_counts {
        let median = median_rate(|_| run_once(jobs), total_events as f64, REPS);
        println!("sharded_runner/jobs{jobs}: {median:.0} events/sec");
        summary.row(vec![("jobs", jobs.into())], median, "events/s");
    }
    write_summary("BENCH_sharded.json", &summary);
}
