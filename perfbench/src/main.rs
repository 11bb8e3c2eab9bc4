//! `perfbench` — the repository's benchmark. It builds the release
//! `srbsg-server` and `experiments` binaries from the checkout it runs in,
//! drives one workload against them, checks the outputs, and prints one
//! JSON result as its last line of standard output.
//!
//! ```text
//! perfbench --workload <ack-heavy|read-only> --seed N --seconds S --trace <0|1>
//! ```
//!
//! `--trace 0` measures the end-to-end metrics with tracing off;
//! `--trace 1` drives the same inputs in-process through each layer's
//! public functions and reports the per-layer metrics (see `trace.rs`).
//! Run it from the repository root; README.md explains every metric.

mod closed_loop;
mod host;
mod procfs;
mod server;
mod stats;
mod sweep;
mod trace;

use std::collections::BTreeMap;
use std::ffi::OsString;
use std::io;
use std::path::{Path, PathBuf};
use std::process::{exit, Command, Stdio};
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_server::{WireRequest, WireResponse};

use closed_loop::{tag, AddrStream, Phase};
use server::{fresh_dir, Server, LINES};

/// Requests in flight on the benchmark's single connection.
pub const WINDOW: usize = 8;
/// Rounds of an end-to-end run (see [`end_to_end`]).
const ROUNDS: usize = 6;
/// Acked writes that warm a server before `ack-heavy` measures.
const ACK_HEAVY_WARM_WRITES: u64 = 64;
/// The fixed acked writes `read-only` serves its reads against.
pub const READ_ONLY_WARM_WRITES: u64 = 256;
/// Fewest measured requests per round: enough for the round's own p99
/// to have ten samples beyond it.
const MIN_OPS: u64 = 1000;

/// The benchmark's workloads.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// 100% writes: every ack pays a whole-device capture and a shelf save.
    AckHeavy,
    /// 100% reads against a server warmed by a fixed set of acked writes.
    ReadOnly,
}

impl Workload {
    fn parse(s: &str) -> Option<Self> {
        [Self::AckHeavy, Self::ReadOnly]
            .into_iter()
            .find(|w| w.name() == s)
    }

    /// The name the command line and results use.
    pub fn name(self) -> &'static str {
        match self {
            Self::AckHeavy => "ack-heavy",
            Self::ReadOnly => "read-only",
        }
    }

    /// The seeded address stream of a workload's writes.
    pub fn write_addrs(seed: u64) -> AddrStream {
        AddrStream::new(seed, LINES, WINDOW)
    }

    /// The seeded address stream of `read-only`'s reads.
    pub fn read_addrs(seed: u64) -> AddrStream {
        AddrStream::new(seed ^ 0x5EAD_0000_0000, LINES, WINDOW)
    }
}

/// Parsed command line.
#[derive(Debug)]
struct Args {
    workload: Workload,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let num = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: bad number {value:?}"))
        };
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(&value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(num()?),
            "--seconds" => seconds = Some(num()?.max(2)),
            "--trace" => trace = Some(num()? != 0),
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(1),
        seconds: seconds.unwrap_or(30),
        trace: trace.unwrap_or(false),
    })
}

/// Paths and inputs shared by every phase of a run.
pub struct Ctx {
    /// The release server binary.
    pub server_bin: PathBuf,
    /// The release experiments binary.
    pub experiments_bin: PathBuf,
    /// Working directory for shelves and sweep output; removed after the run.
    pub root: PathBuf,
    /// Where spans and full results are written.
    pub out: PathBuf,
    /// Workload seed.
    pub seed: u64,
    /// Measured seconds of the run.
    pub seconds: u64,
}

/// Counts of operations attempted and failed across a run; a failed
/// correctness check is a failed operation.
#[derive(Debug, Default, Clone, Copy)]
pub struct Tally {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or returned a wrong value.
    pub failed: u64,
}

impl Tally {
    /// Add a closed-loop phase.
    pub fn phase(&mut self, p: &Phase) {
        self.attempted += p.ok + p.failed;
        self.failed += p.failed;
    }

    /// Add one operation.
    pub fn one(&mut self, ok: bool) {
        self.attempted += 1;
        self.failed += u64::from(!ok);
    }
}

/// A metric as printed: name, value, unit.
pub type Metric = (&'static str, f64, &'static str);

/// What a run measured.
pub struct Report {
    /// The metrics `BENCHMARK.json` declares, in its order.
    pub metrics: Vec<Metric>,
    /// Further metrics printed for reading only; README.md says why each
    /// is not in `BENCHMARK.json`.
    pub info: Vec<Metric>,
    /// Operations attempted and failed.
    pub tally: Tally,
}

/// Cargo's target directory: `$CARGO_TARGET_DIR`, default `target`.
fn target_dir() -> PathBuf {
    let dir =
        PathBuf::from(std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into()));
    // Keep paths short and relative where possible: a Unix socket path
    // must fit in 108 bytes.
    match std::env::current_dir() {
        Ok(cwd) => dir.strip_prefix(&cwd).map(Path::to_path_buf).unwrap_or(dir),
        Err(_) => dir,
    }
}

/// Build the two release binaries from the checkout in the current
/// directory. Cargo's own output goes to standard error.
fn build(target: &Path) -> io::Result<(PathBuf, PathBuf)> {
    let cargo = std::env::var_os("CARGO").unwrap_or_else(|| OsString::from("cargo"));
    let status = Command::new(cargo)
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "srbsg-server", "-p", "srbsg-cli"])
        .stdin(Stdio::null())
        .stdout(Stdio::null())
        .status()?;
    if !status.success() {
        return Err(io::Error::other(format!(
            "cargo build of the program failed: {status}"
        )));
    }
    let bin = target.join("release");
    Ok((bin.join("srbsg-server"), bin.join("experiments")))
}

/// Median of durations, in seconds.
pub fn median_s(ds: &[Duration]) -> f64 {
    stats::median(&ds.iter().map(Duration::as_secs_f64).collect::<Vec<_>>())
}

/// Latency percentiles in milliseconds.
#[derive(Debug, Clone, Copy)]
pub struct Latency {
    /// Median.
    pub p50: f64,
    /// 99th percentile.
    pub p99: f64,
    /// Samples they were taken over.
    pub samples: usize,
}

/// Percentiles of `lat_ns`; an error when there are too few samples for
/// a p99 with ten beyond it.
pub fn latency_ms(lat_ns: &[u64]) -> io::Result<Latency> {
    let mut ms: Vec<f64> = lat_ns.iter().map(|&n| n as f64 / 1e6).collect();
    ms.sort_by(f64::total_cmp);
    let at = |q| {
        stats::percentile(&ms, q).ok_or_else(|| {
            io::Error::other(format!(
                "{} latency samples cannot support p{}",
                ms.len(),
                q * 100.0
            ))
        })
    };
    Ok(Latency {
        p50: at(0.50)?.value,
        p99: at(0.99)?.value,
        samples: ms.len(),
    })
}

/// Writes through a closed loop: the `i`-th carries `tag(first_tag + i)`
/// to the next line of `addrs`. Issues `count` writes, or when `count` is
/// `None`, until `stop` (and at least [`MIN_OPS`]). Each acked line's tag
/// is recorded in `acked`.
pub fn write_phase(
    ep: &srbsg_server::Endpoint,
    addrs: &mut AddrStream,
    first_tag: u64,
    count: Option<u64>,
    stop: Instant,
    acked: &mut BTreeMap<u64, LineData>,
) -> io::Result<Phase> {
    closed_loop::run(
        ep,
        WINDOW,
        stop,
        count.unwrap_or(MIN_OPS),
        |i| {
            if count.is_some_and(|c| i >= c) {
                return None;
            }
            let la = addrs.next().expect("address streams are endless");
            Some(WireRequest::Write {
                la,
                data: tag(first_tag + i),
            })
        },
        |_, req, resp| {
            let ok = matches!(resp, WireResponse::WriteOk { .. });
            if let (true, WireRequest::Write { la, data }) = (ok, req) {
                acked.insert(*la, *data);
            }
            ok
        },
    )
}

/// `read-only`'s reads, until `stop` (and at least [`MIN_OPS`]); each
/// must return the line's tag in `acked`, or `Zeros` for a line the
/// warm-up did not write.
pub fn read_phase(
    ep: &srbsg_server::Endpoint,
    seed: u64,
    stop: Instant,
    acked: &BTreeMap<u64, LineData>,
) -> io::Result<Phase> {
    let mut reads = Workload::read_addrs(seed);
    closed_loop::run(
        ep,
        WINDOW,
        stop,
        MIN_OPS,
        |_| {
            Some(WireRequest::Read {
                la: reads.next().expect("address streams are endless"),
            })
        },
        |_, req, resp| match (req, resp) {
            (WireRequest::Read { la }, WireResponse::ReadOk { data, .. }) => {
                *data == acked.get(la).copied().unwrap_or(LineData::Zeros)
            }
            _ => false,
        },
    )
}

/// Read back every line in `expect` and count mismatches as failures.
pub fn audit(ep: &srbsg_server::Endpoint, expect: &BTreeMap<u64, LineData>) -> io::Result<Phase> {
    let lines: Vec<u64> = expect.keys().copied().collect();
    closed_loop::run(
        ep,
        WINDOW,
        Instant::now(),
        lines.len() as u64,
        |i| lines.get(i as usize).map(|&la| WireRequest::Read { la }),
        |_, req, resp| match (req, resp) {
            (WireRequest::Read { la }, WireResponse::ReadOk { data, .. }) => {
                expect.get(la) == Some(data)
            }
            _ => false,
        },
    )
}

/// The end-to-end run, tracing off. It is [`ROUNDS`] identical rounds,
/// so that every metric samples the whole run rather than one stretch of
/// it; each round:
///
/// 1. runs the sweep once;
/// 2. boots a server on a fresh shelf and warms it (set-up);
/// 3. measures the workload's one op type on it;
/// 4. `SIGKILL`s it and boots its post-run shelf (recovery);
/// 5. audits the restarted server: every acked line holds its last acked
///    tag.
fn end_to_end(ctx: &Ctx, w: Workload) -> io::Result<Report> {
    let mut tally = Tally::default();
    let segment = Duration::from_secs(ctx.seconds) / 2 / ROUNDS as u32;
    let (warm_writes, first_measured_tag) = match w {
        Workload::AckHeavy => (ACK_HEAVY_WARM_WRITES, ACK_HEAVY_WARM_WRITES),
        Workload::ReadOnly => (READ_ONLY_WARM_WRITES, 0),
    };
    let sweep_out = ctx.root.join("sweep");
    // One untimed sweep first: page in the binary and fill caches.
    tally.one(sweep::run(&ctx.experiments_bin, &sweep_out)?.identical);

    let (mut sweeps, mut setups, mut recoveries, mut hwm_mb) = (vec![], vec![], vec![], vec![]);
    let (mut lat, mut goodput, mut cpu_ms_per_kop) = (vec![], vec![], vec![]);
    let (mut write_wchar, mut write_acks) = (0u64, 0u64);
    for round in 0..ROUNDS as u64 {
        let s = sweep::run(&ctx.experiments_bin, &sweep_out)?;
        tally.one(s.identical);
        sweeps.push(s.wall);

        let dir = fresh_dir(&ctx.root, "shelf")?;
        let start = Instant::now();
        let srv = Server::spawn(&ctx.server_bin, &dir)?;
        let booted = srv.sample()?;
        let mut addrs = Workload::write_addrs(ctx.seed ^ round << 32);
        let mut acked = BTreeMap::new();
        let warm = write_phase(
            &srv.endpoint,
            &mut addrs,
            0,
            Some(warm_writes),
            start,
            &mut acked,
        )?;
        setups.push(start.elapsed());
        tally.phase(&warm);

        let before = srv.sample()?;
        let stop = Instant::now() + segment;
        let measured = match w {
            Workload::AckHeavy => write_phase(
                &srv.endpoint,
                &mut addrs,
                first_measured_tag,
                None,
                stop,
                &mut acked,
            )?,
            Workload::ReadOnly => read_phase(&srv.endpoint, ctx.seed ^ round << 32, stop, &acked)?,
        };
        let after = srv.sample()?;
        tally.phase(&measured);
        let ok = measured.ok as f64;
        goodput.push(ok / measured.elapsed.as_secs_f64());
        cpu_ms_per_kop.push((after.cpu_s - before.cpu_s) * 1e6 / ok);
        hwm_mb.push(after.hwm_kb as f64 / 1024.0);
        match w {
            Workload::AckHeavy => {
                write_wchar += after.wchar - before.wchar;
                write_acks += measured.ok;
            }
            Workload::ReadOnly => {
                write_wchar += before.wchar - booted.wchar;
                write_acks += warm.ok;
            }
        }
        lat.push(latency_ms(&measured.lat_ns)?);

        srv.kill()?;
        let srv = Server::spawn(&ctx.server_bin, &dir)?;
        recoveries.push(srv.boot);
        // Zero lost acked writes across the SIGKILL.
        tally.phase(&audit(&srv.endpoint, &acked)?);
        srv.kill()?;
    }

    // Each rate and percentile is taken per round, then the median over
    // rounds: a stretch of host contention then sways one round, not the
    // run.
    let p = |f: fn(&Latency) -> f64| stats::median(&lat.iter().map(f).collect::<Vec<_>>());
    eprintln!(
        "perfbench: {ROUNDS} rounds; percentiles per round over {:?} measured requests; {} of {} ops ok",
        lat.iter().map(|l| l.samples).collect::<Vec<_>>(),
        tally.attempted - tally.failed,
        tally.attempted
    );
    let ok_frac = (tally.attempted - tally.failed) as f64 / tally.attempted as f64;
    Ok(Report {
        metrics: vec![
            ("setup_s", median_s(&setups), "s"),
            ("ok_frac", ok_frac, "ratio"),
            ("goodput_rps", stats::median(&goodput), "1/s"),
            ("p50_ms", p(|l| l.p50), "ms"),
            ("cpu_ms_per_kop", stats::median(&cpu_ms_per_kop), "ms/kop"),
            (
                "peak_rss_mb",
                hwm_mb.iter().copied().fold(0.0, f64::max),
                "MB",
            ),
            (
                "persist_bytes_per_ack",
                write_wchar as f64 / write_acks as f64,
                "B",
            ),
            ("sweep_s", median_s(&sweeps), "s"),
        ],
        info: vec![
            ("p99_ms", p(|l| l.p99), "ms"),
            ("recovery_s", median_s(&recoveries), "s"),
        ],
        tally,
    })
}

fn result_json(metrics: &[Metric], tally: Tally) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, v, unit)| format!("\"{name}\": {{\"value\": {v}, \"unit\": \"{unit}\"}}"))
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted,
        tally.failed,
        body.join(", ")
    )
}

fn run(args: &Args) -> io::Result<bool> {
    let target = target_dir();
    let (server_bin, experiments_bin) = build(&target)?;
    let out = target.join("perfbench");
    let root = out.join(format!("run-{}", std::process::id()));
    std::fs::create_dir_all(&root)?;
    let ctx = Ctx {
        server_bin,
        experiments_bin,
        root,
        out,
        seed: args.seed,
        seconds: args.seconds,
    };
    let host = host::Host::probe(&ctx.root);
    let result = if args.trace {
        trace::run(&ctx, args.workload)
    } else {
        end_to_end(&ctx, args.workload)
    };
    let _ = std::fs::remove_dir_all(&ctx.root);
    let Report {
        metrics,
        info,
        tally,
    } = result?;
    if let Some((name, v, _)) = metrics.iter().chain(&info).find(|(_, v, _)| !v.is_finite()) {
        return Err(io::Error::other(format!(
            "metric {name} is not finite: {v}"
        )));
    }
    for (name, v, unit) in &metrics {
        println!("{name:>40} {v:>14.4} {unit}");
    }
    for (name, v, unit) in &info {
        println!("{name:>40} {v:>14.4} {unit} (printed only, not in BENCHMARK.json)");
    }
    let json = result_json(&metrics, tally);
    let stamped = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"host\": {}, \"result\": {json}, \"printed_only\": {}}}\n",
        args.workload.name(),
        args.seed,
        args.seconds,
        args.trace,
        host.json(),
        result_json(&info, tally)
    );
    let file = ctx.out.join(format!(
        "result-{}-seed{}-trace{}.json",
        args.workload.name(),
        args.seed,
        args.trace as u8
    ));
    std::fs::write(&file, &stamped)?;
    println!("host {}", host.json());
    println!("{json}");
    Ok(tally.failed == 0)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(2);
        }
    };
    match run(&args) {
        Ok(true) => {}
        Ok(false) => {
            eprintln!("perfbench: a correctness check failed");
            exit(1);
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            exit(1);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let t = Tally {
            attempted: 10,
            failed: 0,
        };
        let j = result_json(&[("setup_s", 0.5, "s")], t);
        assert_eq!(
            j,
            "{\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn a_failed_check_is_a_failed_op() {
        let mut t = Tally::default();
        t.one(true);
        t.one(false);
        t.phase(&Phase {
            ok: 3,
            failed: 1,
            ..Phase::default()
        });
        assert_eq!((t.attempted, t.failed), (6, 2));
    }
}
