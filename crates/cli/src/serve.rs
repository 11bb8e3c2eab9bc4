//! `experiments serve` — chaos replay through the batched serving
//! front-end (`srbsg-serve`).
//!
//! Eight Security-RBSG banks, three of them deliberately hostile:
//!
//! * **bank 1 (faulty)** — elevated transient write-failure rate with a
//!   weak device-level retry ladder, plus periodic arrival bursts aimed at
//!   it, so the front-end's bounded queues and retry/backoff both fire;
//! * **bank 2 (slow)** — every device latency 6×, so sustained load blows
//!   deadlines and the front-end sheds it as `DeadlineExceeded`;
//! * **bank 5 (dying)** — low endurance and a tiny spare pool, hammered by
//!   a mid-trace hot-spot, so spare pressure crosses the quarantine
//!   threshold while the trace is still running.
//!
//! Three replays share the table and CSV (`mode` column): the chaos trace
//! **open-loop** (a rejected request is simply lost, as in the original
//! harness), the chaos trace **closed-loop** (a client that resubmits
//! `QueueFull`-rejected requests at the head of the next batch, up to
//! [`RESUBMIT_CAP`] deferrals, then drops them — the CSV distinguishes
//! requests merely *deferred* from those finally *dropped*), and a
//! **benign** control: one Zipf workload sharded across the banks with
//! per-bank `shard_seed` streams, exactly as the sharded trace runner
//! splits it, with no bursts and no hot-spot.
//!
//! After each replay, every acknowledged write is audited by reading the
//! line back: `lost_acked` must be zero — acknowledgment means the data is
//! on the device, whatever the chaos. The replays, the table, and
//! `results/serve.csv` are byte-identical for any `--jobs N`.

use crate::table::Table;
use crate::Opts;
use rand::rngs::SmallRng;
use rand::{RngExt, SeedableRng};
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{FaultConfig, LineData, MemoryController, MultiBankSystem, Ns, TimingModel};
use srbsg_serve::{percentile_ns, FrontEnd, Op, Rejected, Request, ServeConfig, ServeStats};
use srbsg_server::AckLedger;
use srbsg_workloads::{shard_seed, TraceGenerator, WorkloadSpec};

const BANKS: usize = 8;
const FAULTY_BANK: usize = 1;
const SLOW_BANK: usize = 2;
const DYING_BANK: usize = 5;

/// How many times the closed-loop client re-queues a `QueueFull`-rejected
/// request before giving up on it.
const RESUBMIT_CAP: u32 = 3;

/// Per-bank outcome accumulators, folded from completions in id order.
#[derive(Debug, Clone, Default)]
struct BankAcc {
    /// Final outcomes: a deferred `QueueFull` is not one.
    stats: ServeStats,
    /// Closed loop only: `QueueFull` rejections converted into a
    /// resubmission in a later batch.
    deferred: u64,
    /// Closed loop only: requests abandoned after [`RESUBMIT_CAP`]
    /// deferrals (every drop is also counted in `stats.rejected_queue_full`).
    dropped: u64,
    latencies: Vec<Ns>,
}

fn build_system(opts: &Opts) -> MultiBankSystem<SecurityRbsg> {
    let width = if opts.quick { 8 } else { 10 };
    let healthy_endurance = 1_000_000_000;
    let dying_endurance = if opts.quick { 60 } else { 90 };
    let base_faults = FaultConfig {
        endurance_cov: 0.1,
        transient_prob: 1e-4,
        max_retries: 2,
        retry_fail_ratio: 0.5,
        ecp_entries: 2,
        ecp_wear_step: 25,
        spare_lines: 16,
        ..FaultConfig::default()
    };
    let banks = (0..BANKS)
        .map(|b| {
            let mut scheme_cfg = SecurityRbsgConfig::small(width, 2);
            scheme_cfg.seed = 0xD00D_F00D ^ (b as u64);
            let scheme = SecurityRbsg::new(scheme_cfg);
            let faults = FaultConfig {
                seed: 0xFA17_5EED ^ ((b as u64) << 8),
                ..base_faults
            };
            match b {
                FAULTY_BANK => MemoryController::with_faults(
                    scheme,
                    healthy_endurance,
                    TimingModel::PAPER,
                    FaultConfig {
                        transient_prob: 0.05,
                        max_retries: 1,
                        retry_fail_ratio: 0.9,
                        ..faults
                    },
                ),
                SLOW_BANK => {
                    let slow = TimingModel {
                        read_ns: TimingModel::PAPER.read_ns * 6,
                        set_ns: TimingModel::PAPER.set_ns * 6,
                        reset_ns: TimingModel::PAPER.reset_ns * 6,
                        sram_ns: TimingModel::PAPER.sram_ns * 6,
                        ..TimingModel::PAPER
                    };
                    MemoryController::with_faults(scheme, healthy_endurance, slow, faults)
                }
                DYING_BANK => MemoryController::with_faults(
                    scheme,
                    dying_endurance,
                    TimingModel::PAPER,
                    FaultConfig {
                        endurance_cov: 0.15,
                        ecp_entries: 1,
                        spare_lines: 4,
                        ..faults
                    },
                ),
                _ => MemoryController::with_faults(
                    scheme,
                    healthy_endurance,
                    TimingModel::PAPER,
                    faults,
                ),
            }
        })
        .collect();
    MultiBankSystem::from_controllers(banks)
}

/// The chaos schedule: a uniform read/write mix with recurring arrival
/// bursts at the faulty bank and a mid-trace hot-spot on the dying bank.
fn chaos_trace(opts: &Opts, system_lines: u64, batch: usize) -> Vec<Request> {
    let n = if opts.quick { 24_000 } else { 96_000 };
    let lines_per_bank = system_lines / BANKS as u64;
    let hot: Vec<u64> = (0..4)
        .map(|k| k * BANKS as u64 + DYING_BANK as u64)
        .collect();
    let mut rng = SmallRng::seed_from_u64(0x5E4E_CA05);
    let mut arrival: Ns = 0;
    let mut reqs = Vec::with_capacity(n);
    for i in 0..n {
        arrival += rng.random_range(50u64..250) as Ns;
        let batch_idx = i / batch;
        let in_burst = batch_idx % 8 == 4;
        let in_hotspot = i >= n / 3 && i < 2 * n / 3;
        let la = if in_burst && rng.random_bool(0.7) {
            // Burst: pile onto the faulty bank until its queue overflows.
            rng.random_range(0..lines_per_bank) * BANKS as u64 + FAULTY_BANK as u64
        } else if in_hotspot && rng.random_bool(0.33) {
            // Hot-spot: hammer four lines of the dying bank.
            hot[rng.random_range(0usize..hot.len())]
        } else {
            rng.random_range(0..system_lines)
        };
        let op = if rng.random_bool(0.55) {
            Op::Write(LineData::Mixed(
                rng.random_range(0u64..u32::MAX as u64) as u32
            ))
        } else {
            Op::Read
        };
        reqs.push(Request {
            la,
            op,
            arrival_ns: arrival,
            deadline_ns: arrival + 60_000,
        });
    }
    reqs
}

/// The benign schedule: one logical Zipf workload sharded across the banks
/// the same way `ShardedTraceRunner` does it — an independent stream per
/// bank keyed by [`shard_seed`], round-robin interleaved into arrivals —
/// with no bursts and no hot-spot. The control group for the chaos rows.
fn benign_trace(opts: &Opts, system_lines: u64, _batch: usize) -> Vec<Request> {
    let n = if opts.quick { 24_000 } else { 96_000 };
    let lines_per_bank = system_lines / BANKS as u64;
    let spec = WorkloadSpec::Zipf {
        s: 1.1,
        write_ratio: 0.55,
        mean_gap: 100,
    };
    let mut gens: Vec<_> = (0..BANKS)
        .map(|b| spec.build(lines_per_bank, shard_seed(0xBE4169, b)))
        .collect();
    let mut arrival: Ns = 0;
    let mut reqs = Vec::with_capacity(n);
    for i in 0..n {
        let b = i % BANKS;
        let a = gens[b].next_access();
        arrival += (50 + a.gap_cycles) as Ns;
        let la = (a.addr % lines_per_bank) * BANKS as u64 + b as u64;
        let op = if a.is_write {
            Op::Write(LineData::Mixed(i as u32))
        } else {
            Op::Read
        };
        reqs.push(Request {
            la,
            op,
            arrival_ns: arrival,
            deadline_ns: arrival + 60_000,
        });
    }
    reqs
}

/// One full replay of the chaos trace through a freshly built system.
struct Replay {
    acc: Vec<BankAcc>,
    audited: u64,
    lost_acked: u64,
    quarantined_at: Vec<Option<Ns>>,
    nreqs: usize,
}

fn replay(
    opts: &Opts,
    serve_cfg: ServeConfig,
    batch: usize,
    closed_loop: bool,
    benign: bool,
) -> Replay {
    let system = build_system(opts);
    let lines = system.logical_lines();
    let reqs = if benign {
        benign_trace(opts, lines, batch)
    } else {
        chaos_trace(opts, lines, batch)
    };
    let nreqs = reqs.len();
    let mut fe = FrontEnd::new(system, serve_cfg);

    let mut acc: Vec<BankAcc> = vec![BankAcc::default(); BANKS];
    // Write-loss audit: only acknowledged last-writers must read back
    // intact; an unverified pulse may leave the line torn.
    let mut ledger = AckLedger::default();
    // Closed loop: `QueueFull` rejects waiting for the next batch, with
    // their deferral count.
    let mut carry: Vec<(Request, u32)> = Vec::new();
    let mut last_arrival: Ns = 0;

    let mut chunks = reqs.chunks(batch);
    loop {
        let fresh = chunks.next();
        if fresh.is_none() && carry.is_empty() {
            break;
        }
        let fresh = fresh.unwrap_or(&[]);
        // Deferred requests re-enter at the head of this batch, re-stamped
        // to arrive with it (their original deadline is long blown).
        let base_arrival = fresh
            .first()
            .map_or(last_arrival + 60_000, |r| r.arrival_ns);
        let mut submit: Vec<(Request, u32)> = Vec::with_capacity(carry.len() + fresh.len());
        for (mut req, tries) in carry.drain(..) {
            req.arrival_ns = base_arrival;
            req.deadline_ns = base_arrival + 60_000;
            submit.push((req, tries));
        }
        submit.extend(fresh.iter().map(|r| (*r, 0)));
        last_arrival = fresh.last().map_or(last_arrival + 60_000, |r| r.arrival_ns);

        let done = fe.submit_batch(submit.iter().map(|(r, _)| *r).collect(), opts.jobs);
        for ((req, tries), c) in submit.iter().zip(&done) {
            let bank = (req.la % BANKS as u64) as usize;
            let a = &mut acc[bank];
            let queue_full = matches!(c.result, Err(Rejected::QueueFull { .. }));
            if queue_full && closed_loop && *tries < RESUBMIT_CAP {
                // Rejected at admission: the device was never touched.
                a.deferred += 1;
                carry.push((*req, tries + 1));
                continue;
            }
            a.stats.record(c);
            if queue_full && closed_loop {
                a.dropped += 1;
            }
            if let Ok(s) = &c.result {
                a.latencies.push(s.latency_ns);
            }
            if let Op::Write(data) = req.op {
                ledger.settle(req.la, data, &c.result);
            }
        }
    }

    // An acknowledged write that does not survive is a lost write, and
    // there must be none.
    let (audited, lost_acked) =
        ledger.audit(|la| fe.system_mut().try_read(la).expect("audit read").0);

    let quarantined_at: Vec<Option<Ns>> = (0..BANKS)
        .map(|b| {
            fe.quarantine_events()
                .iter()
                .find(|e| e.bank == b)
                .map(|e| e.at_ns)
        })
        .collect();

    Replay {
        acc,
        audited,
        lost_acked,
        quarantined_at,
        nreqs,
    }
}

/// The table cells from `submitted` through `p999_ns` for one
/// accumulator.
fn outcome_cells(a: &BankAcc) -> Vec<String> {
    let s = &a.stats;
    let mut lat = a.latencies.clone();
    lat.sort_unstable();
    vec![
        s.submitted.to_string(),
        s.served_reads.to_string(),
        s.served_writes.to_string(),
        s.retries.to_string(),
        s.rejected_queue_full.to_string(),
        s.rejected_deadline.to_string(),
        s.rejected_quarantine.to_string(),
        s.rejected_retries.to_string(),
        s.rejected_fault.to_string(),
        a.deferred.to_string(),
        a.dropped.to_string(),
        format!("{:.4}", s.rejection_rate()),
        percentile_ns(&lat, 50.0).to_string(),
        percentile_ns(&lat, 99.0).to_string(),
        percentile_ns(&lat, 99.9).to_string(),
    ]
}

pub fn run(opts: &Opts) {
    let batch = 256;
    let serve_cfg = ServeConfig {
        queue_depth: 32,
        max_retries: 3,
        backoff_base_ns: 500,
        backoff_cap_ns: 16_000,
        backoff_seed: 0x5E4E_5EED,
        quarantine_spare_frac: 0.5,
    };
    let open = replay(opts, serve_cfg, batch, false, false);
    let closed = replay(opts, serve_cfg, batch, true, false);
    let benign = replay(opts, serve_cfg, batch, false, true);

    let mut t = Table::new(
        &format!(
            "Chaos replay through the serving front-end ({} requests, batch {batch}, \
             queue {}, {} front-end retries, closed loop re-queues QueueFull up to {} times)",
            open.nreqs, serve_cfg.queue_depth, serve_cfg.max_retries, RESUBMIT_CAP
        ),
        &[
            "mode",
            "bank",
            "role",
            "submitted",
            "reads",
            "writes",
            "retries",
            "rej_queue",
            "rej_deadline",
            "rej_quarantine",
            "rej_retry",
            "rej_fault",
            "deferred",
            "dropped",
            "rej_rate",
            "p50_ns",
            "p99_ns",
            "p999_ns",
            "quarantined_at_ns",
            "lost_acked",
        ],
    );
    let role = |b: usize| match b {
        FAULTY_BANK => "faulty",
        SLOW_BANK => "slow",
        DYING_BANK => "dying",
        _ => "healthy",
    };
    let mut totals: Vec<BankAcc> = Vec::new();
    for (mode, r) in [("open", &open), ("closed", &closed), ("benign", &benign)] {
        let mut total = BankAcc::default();
        for (b, a) in r.acc.iter().enumerate() {
            let mut row = vec![mode.to_string(), b.to_string(), role(b).to_string()];
            row.extend(outcome_cells(a));
            row.push(r.quarantined_at[b].map_or_else(|| "-".to_string(), |ns| ns.to_string()));
            row.push("-".to_string());
            t.row(row);
            total.stats.merge(&a.stats);
            total.deferred += a.deferred;
            total.dropped += a.dropped;
            total.latencies.extend(&a.latencies);
        }
        let mut row = vec![mode.to_string(), "TOTAL".to_string(), "-".to_string()];
        row.extend(outcome_cells(&total));
        row.push("-".to_string());
        row.push(r.lost_acked.to_string());
        t.row(row);
        totals.push(total);
    }
    t.print();
    t.write_csv(&opts.out_dir, "serve");

    println!(
        "\nopen loop: audited {} acknowledged last-writers, lost {}; \
         closed loop: audited {}, lost {}, deferred {}, dropped {}; \
         benign sharded workload: audited {}, lost {}, rejected {}",
        open.audited,
        open.lost_acked,
        closed.audited,
        closed.lost_acked,
        totals[1].deferred,
        totals[1].dropped,
        benign.audited,
        benign.lost_acked,
        totals[2].stats.rejected()
    );

    // The acceptance bars for this experiment: chaos must actually bite
    // (something rejected, something retried, the dying bank walled off),
    // no acknowledged write may be lost in either mode, and the closed
    // loop must actually convert queue-full rejections into deferrals —
    // ending with strictly fewer requests lost to full queues.
    assert_eq!(open.lost_acked, 0, "acknowledged writes must survive chaos");
    assert_eq!(
        closed.lost_acked, 0,
        "acknowledged writes must survive chaos (closed loop)"
    );
    assert!(
        totals[0].stats.rejected() > 0,
        "chaos schedule produced no rejections"
    );
    assert!(
        totals[0].stats.retries > 0,
        "chaos schedule produced no retries"
    );
    assert!(
        open.quarantined_at[DYING_BANK].is_some(),
        "the dying bank never hit the quarantine threshold"
    );
    assert!(
        totals[1].deferred > 0,
        "closed loop never deferred anything"
    );
    assert!(
        totals[1].stats.rejected_queue_full < totals[0].stats.rejected_queue_full,
        "closed loop did not reduce queue-full losses ({} vs {})",
        totals[1].stats.rejected_queue_full,
        totals[0].stats.rejected_queue_full
    );
    assert_eq!(
        benign.lost_acked, 0,
        "acknowledged writes must survive the benign sharded workload"
    );
    assert!(
        totals[2].stats.rejected_queue_full == 0,
        "benign sharded traffic should never overflow a queue ({} rejections)",
        totals[2].stats.rejected_queue_full
    );
}
