//! `experiments` — regenerate every table and figure of the Security RBSG
//! paper's evaluation (§V).
//!
//! ```text
//! experiments <subcommand> [--quick] [--seeds N] [--out DIR] [--jobs N]
//!
//!   fig11     RBSG lifetime under RTA vs RAA (regions × remap interval)
//!   fig12     Two-level SR lifetime under RTA (Table I grid)
//!   fig13     Two-level SR lifetime under RAA (Table I grid)
//!   fig14     Security RBSG lifetime vs DFN stages (RAA, BPA, references)
//!   fig15     Security RBSG lifetime under RAA (Table I grid)
//!   fig16     Normalized accumulated wear distribution under RAA
//!   overhead  Hardware overhead report (§V-C3)
//!   perf      IPC impact on PARSEC/SPEC-like traces (§V-C4)
//!   detect    RTA detection demonstrations (§III mechanics)
//!   normal    Benign-workload lifetime across schemes (§I motivation)
//!   ablation  DCW and delayed-write-buffer ablations
//!   faults    Fault-injection sweep (endurance variation × retry budget ×
//!             spare pool) + RTA signature blur from verify-retries
//!   serve     Chaos replay through the batched serving front-end
//!             (bounded queues, deadlines, retry/backoff, quarantine),
//!             open-loop and closed-loop
//!   crash     Power-failure injection sweep over the journaled metadata
//!             stack: torn/partial records, checkpoint-phase crashes,
//!             verified recovery, re-keying, checkpoint-interval sweep
//!   crashfuzz Randomized crash-under-load fuzzing: power cuts during
//!             serve replay, re-keyed restart, SLO + equivalence checks
//!   storagefuzz Deterministic storage-fault fuzzing of the persistence
//!             stack under load: short writes, transient EIO, ENOSPC,
//!             fsync lies, rename failures, bit rot — with retry healing,
//!             scrub healing, read-only degradation, equivalence checks
//!   all       Everything above
//! ```
//!
//! `--quick` shrinks the platform (2^18 lines, 10^6 endurance) so the whole
//! suite completes in about a minute; the default is the paper's platform
//! (2^22 lines, 10^8 endurance). Results are printed and written as CSV
//! under `results/`.
//!
//! `--jobs N` runs the seeded trials of each sweep on up to `N` worker
//! threads (default: the machine's available parallelism). Every table and
//! CSV is byte-identical for any `N` — each trial owns its seed and RNG
//! stream, and results are folded in a fixed order.
//!
//! `--split-trial` switches the RAA paths of fig14, fig15, fig16 and
//! faults to the splittable round-range engine: configurations run one at
//! a time and each *single trial* fans over all `--jobs` workers. Output
//! goes to `*_split.csv` next to the legacy CSVs, which stay recorded;
//! the engines draw from different RNG streams, so the two files agree
//! statistically rather than bit-for-bit (the faults part checks that).

mod ablation;
mod chaos;
mod crash;
mod crashfuzz;
mod detect;
mod faults;
mod fig11;
mod fig12;
mod fig13;
mod fig14;
mod fig15;
mod fig16;
mod normal;
mod overhead;
mod perf;
mod serve;
mod storagefuzz;
mod table;

use srbsg_lifetime::PcmParams;

/// Shared experiment options.
#[derive(Debug, Clone)]
pub struct Opts {
    /// Device parameters (paper scale or `--quick`).
    pub params: PcmParams,
    /// Seeds per stochastic configuration.
    pub seeds: u64,
    /// Output directory for CSVs.
    pub out_dir: String,
    /// Quick mode (affects sweep sizes too).
    pub quick: bool,
    /// Worker threads for seeded-trial sweeps (output is identical for
    /// any value; see `srbsg-parallel`).
    pub jobs: usize,
    /// Use the splittable round-range RAA engine: one trial fans over all
    /// `--jobs` workers and figures write `*_split.csv` next to the legacy
    /// CSVs (which stay recorded for cross-validation).
    pub split_trial: bool,
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut cmd = None;
    let mut quick = false;
    let mut seeds = 0u64;
    let mut out_dir = "results".to_string();
    let mut jobs = srbsg_parallel::available_jobs();
    let mut split_trial = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--quick" => quick = true,
            "--split-trial" => split_trial = true,
            "--seeds" => {
                seeds = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| usage("--seeds needs a number"))
            }
            "--jobs" => {
                jobs = it
                    .next()
                    .and_then(|v| v.parse().ok())
                    .filter(|&j| j >= 1)
                    .unwrap_or_else(|| usage("--jobs needs a positive number"))
            }
            "--out" => {
                out_dir = it
                    .next()
                    .unwrap_or_else(|| usage("--out needs a dir"))
                    .clone()
            }
            c if cmd.is_none() && !c.starts_with('-') => cmd = Some(c.to_string()),
            other => usage(&format!("unknown argument {other}")),
        }
    }
    let cmd = cmd.unwrap_or_else(|| usage("missing subcommand"));

    let params = if quick {
        PcmParams::small(18, 1_000_000)
    } else {
        PcmParams::paper()
    };
    if seeds == 0 {
        seeds = if quick { 1 } else { 2 };
    }
    std::fs::create_dir_all(&out_dir).expect("create output dir");
    let opts = Opts {
        params,
        seeds,
        out_dir,
        quick,
        jobs,
        split_trial,
    };

    let t0 = std::time::Instant::now();
    match cmd.as_str() {
        "fig11" => fig11::run(&opts),
        "fig12" => fig12::run(&opts),
        "fig13" => fig13::run(&opts),
        "fig14" => fig14::run(&opts),
        "fig15" => fig15::run(&opts),
        "fig16" => fig16::run(&opts),
        "overhead" => overhead::run(&opts),
        "perf" => perf::run(&opts),
        "detect" => detect::run(&opts),
        "normal" => normal::run(&opts),
        "ablation" => ablation::run(&opts),
        "faults" => faults::run(&opts),
        "serve" => serve::run(&opts),
        "crash" => crash::run(&opts),
        "crashfuzz" => crashfuzz::run(&opts),
        "storagefuzz" => storagefuzz::run(&opts),
        "all" => {
            fig11::run(&opts);
            fig12::run(&opts);
            fig13::run(&opts);
            fig14::run(&opts);
            fig15::run(&opts);
            fig16::run(&opts);
            overhead::run(&opts);
            perf::run(&opts);
            detect::run(&opts);
            normal::run(&opts);
            ablation::run(&opts);
            faults::run(&opts);
            serve::run(&opts);
            crash::run(&opts);
            crashfuzz::run(&opts);
            storagefuzz::run(&opts);
        }
        other => usage(&format!("unknown subcommand {other}")),
    }
    eprintln!("[done in {:.1}s]", t0.elapsed().as_secs_f64());
}

fn usage(msg: &str) -> ! {
    eprintln!("error: {msg}");
    eprintln!(
        "usage: experiments <fig11|fig12|fig13|fig14|fig15|fig16|overhead|perf|detect|normal|ablation|faults|serve|crash|crashfuzz|storagefuzz|all> \
         [--quick] [--seeds N] [--out DIR] [--jobs N] [--split-trial]"
    );
    std::process::exit(2);
}
