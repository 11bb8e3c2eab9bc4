//! Write `BENCH_server.json` from perfbench runs: per workload, the median
//! over the runs of every end-to-end metric, through
//! [`srbsg_bench::write_summary`].
//!
//! Each `WORKLOAD=FILE` argument names a file holding perfbench's result
//! line (the last line of its standard output) of each run, one per line;
//! each `--param KEY=VALUE` adds a string to the summary's `params`:
//!
//! ```sh
//! for w in ack-heavy read-only; do for i in 1 2 3; do
//!   cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload $w --seed 1 --seconds 30 --trace 0 | tail -1 >> $w.jsonl
//! done; done
//! SRBSG_BENCH_JSON_DIR=results cargo run --release -p srbsg-bench \
//!   --example perfbench_summary -- ack-heavy=ack-heavy.jsonl read-only=read-only.jsonl \
//!   --param data_fs=ext4
//! ```
//!
//! A run whose line does not say `"correct": true` is refused.

use srbsg_bench::{write_summary, Summary};

/// The command every run was measured with (`WORKLOAD` stands for each).
const COMMAND: &str = "cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml \
                       -- --workload WORKLOAD --seed 1 --seconds 30 --trace 0";

/// The `(name, value, unit)` metrics of one perfbench result line.
fn metrics(line: &str) -> Vec<(String, f64, String)> {
    assert!(
        line.contains("\"correct\": true"),
        "not a correct perfbench run: {line}"
    );
    let body = &line[line.find("\"metrics\": {").expect("a metrics object") + 12..];
    let mut out = Vec::new();
    for entry in body.split("}, ") {
        let Some((name, rest)) = entry.trim_start_matches('{').split_once("\": {\"value\": ")
        else {
            continue;
        };
        let (value, unit) = rest
            .split_once(", \"unit\": \"")
            .expect("a value and a unit");
        let unit = unit.split('"').next().expect("a quoted unit");
        let value = value.parse().expect("a numeric value");
        out.push((
            name.trim_start_matches('"').to_string(),
            value,
            unit.to_string(),
        ));
    }
    out
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

fn main() {
    let mut params = Vec::new();
    let mut workloads = Vec::new();
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        if arg == "--param" {
            let kv = args.next().expect("--param KEY=VALUE");
            let (k, v) = kv.split_once('=').expect("--param KEY=VALUE");
            params.push((leak(k), v.to_string()));
        } else {
            let (w, file) = arg.split_once('=').expect("WORKLOAD=FILE");
            let text = std::fs::read_to_string(file).expect("read a results file");
            let runs: Vec<_> = text
                .lines()
                .filter(|l| !l.trim().is_empty())
                .map(metrics)
                .collect();
            workloads.push((w.to_string(), runs));
        }
    }
    let runs = workloads
        .first()
        .expect("at least one WORKLOAD=FILE")
        .1
        .len();
    assert!(
        workloads.iter().all(|(_, r)| r.len() == runs),
        "every workload needs the same number of runs"
    );
    let mut summary = Summary::new("srbsg_server");
    summary.param("command", COMMAND).param("runs", runs).param(
        "statistic",
        "median over the runs of each run's median over its six rounds",
    );
    for (k, v) in params {
        summary.param(k, v.as_str());
    }
    for (workload, runs) in &workloads {
        for (i, (name, _, unit)) in runs[0].iter().enumerate() {
            let values = runs
                .iter()
                .map(|m| {
                    assert_eq!(&m[i].0, name, "runs list their metrics in one order");
                    m[i].1
                })
                .collect();
            summary.row(
                vec![
                    ("workload", workload.as_str().into()),
                    ("metric", name.as_str().into()),
                ],
                median(values),
                leak(unit),
            );
        }
    }
    write_summary("BENCH_server.json", &summary);
}

/// A name that lives as long as the summary: this one-shot tool never
/// frees it.
fn leak(s: &str) -> &'static str {
    Box::leak(s.to_string().into_boxed_str())
}
