//! The `--jobs` determinism contract, end to end: a figure command's CSV
//! (and stdout table) must be byte-identical for any worker count.

use std::path::Path;
use std::process::Command;

fn run_fig(figure: &str, jobs: u32, out: &Path) -> (Vec<u8>, Vec<u8>) {
    let (mut csvs, stdout) = run_fig_csvs(figure, jobs, out, &[figure]);
    (csvs.remove(0), stdout)
}

/// Like [`run_fig`], for subcommands that write more than one CSV.
fn run_fig_csvs(figure: &str, jobs: u32, out: &Path, csvs: &[&str]) -> (Vec<Vec<u8>>, Vec<u8>) {
    run_fig_csvs_with(figure, jobs, out, csvs, &[])
}

/// Like [`run_fig_csvs`], with extra CLI flags (e.g. `--split-trial`).
fn run_fig_csvs_with(
    figure: &str,
    jobs: u32,
    out: &Path,
    csvs: &[&str],
    extra: &[&str],
) -> (Vec<Vec<u8>>, Vec<u8>) {
    let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args([
            "--quick",
            "--seeds",
            "2",
            "--jobs",
            &jobs.to_string(),
            "--out",
        ])
        .arg(out)
        .args(extra)
        .arg(figure)
        .output()
        .expect("spawn experiments binary");
    assert!(
        output.status.success(),
        "{figure} --jobs {jobs} failed: {}",
        String::from_utf8_lossy(&output.stderr)
    );
    let csvs = csvs
        .iter()
        .map(|name| std::fs::read(out.join(format!("{name}.csv"))).expect("read csv"))
        .collect();
    (csvs, output.stdout)
}

#[test]
fn fig12_output_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!("srbsg-determinism-{}", std::process::id()));
    let mut outputs = Vec::new();
    for jobs in [1u32, 2, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&dir).expect("create out dir");
        outputs.push((jobs, run_fig("fig12", jobs, &dir)));
    }
    let (_, serial) = &outputs[0];
    for (jobs, parallel) in &outputs[1..] {
        assert_eq!(
            serial.0, parallel.0,
            "fig12.csv differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial.1, parallel.1,
            "fig12 stdout differs between --jobs 1 and --jobs {jobs}"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The serving front-end is a *stateful* pipeline (shared bank clocks,
/// quarantine flags, retry backoff), not a pure per-seed fan-out — so it
/// gets its own end-to-end determinism gate.
#[test]
fn serve_output_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!("srbsg-serve-determinism-{}", std::process::id()));
    let mut outputs = Vec::new();
    for jobs in [1u32, 2, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&dir).expect("create out dir");
        outputs.push((jobs, run_fig("serve", jobs, &dir)));
    }
    let (_, serial) = &outputs[0];
    for (jobs, parallel) in &outputs[1..] {
        assert_eq!(
            serial.0, parallel.0,
            "serve.csv differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial.1, parallel.1,
            "serve stdout differs between --jobs 1 and --jobs {jobs}"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// fig16 runs each total-writes point through the streaming wear profile
/// on its own worker; the curve, the region Gini, and the CSV must be
/// byte-identical for any worker count.
#[test]
fn fig16_output_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!("srbsg-fig16-determinism-{}", std::process::id()));
    let mut outputs = Vec::new();
    for jobs in [1u32, 2, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&dir).expect("create out dir");
        outputs.push((jobs, run_fig("fig16", jobs, &dir)));
    }
    let (_, serial) = &outputs[0];
    for (jobs, parallel) in &outputs[1..] {
        assert_eq!(
            serial.0, parallel.0,
            "fig16.csv differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial.1, parallel.1,
            "fig16 stdout differs between --jobs 1 and --jobs {jobs}"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The sharded trace runner drives one worker per bank over live
/// controllers — the strongest determinism claim in the suite. Heavy
/// (several full `normal` runs), so it is ignored locally and exercised by
/// the CI heavy step (`cargo test --release -- --ignored`).
#[test]
#[ignore = "heavy: runs experiments normal six times; covered by the CI heavy step"]
fn normal_output_is_byte_identical_across_job_counts() {
    let base =
        std::env::temp_dir().join(format!("srbsg-normal-determinism-{}", std::process::id()));
    let mut outputs = Vec::new();
    for jobs in [1u32, 2, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&dir).expect("create out dir");
        outputs.push((
            jobs,
            run_fig_csvs("normal", jobs, &dir, &["normal", "normal_sharded"]),
        ));
    }
    let (_, serial) = &outputs[0];
    for (jobs, parallel) in &outputs[1..] {
        assert_eq!(
            serial.0[0], parallel.0[0],
            "normal.csv differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial.0[1], parallel.0[1],
            "normal_sharded.csv differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial.1, parallel.1,
            "normal stdout differs between --jobs 1 and --jobs {jobs}"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The crash sweep both injects failures and *verifies recovery* inside
/// each trial; its table, the main CSV, and the checkpoint-interval sweep
/// CSV must all be byte-identical for any worker count.
#[test]
fn crash_output_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!("srbsg-crash-determinism-{}", std::process::id()));
    let mut outputs = Vec::new();
    for jobs in [1u32, 2, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&dir).expect("create out dir");
        outputs.push((
            jobs,
            run_fig_csvs("crash", jobs, &dir, &["crash", "crash_checkpoint"]),
        ));
    }
    let (_, serial) = &outputs[0];
    for (jobs, parallel) in &outputs[1..] {
        assert_eq!(
            serial.0[0], parallel.0[0],
            "crash.csv differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial.0[1], parallel.0[1],
            "crash_checkpoint.csv differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial.1, parallel.1,
            "crash stdout differs between --jobs 1 and --jobs {jobs}"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The fuzz loop seeds every iteration from its index alone and folds
/// results in iteration order, so the whole randomized campaign — crash
/// draws, recoveries, resubmissions — is byte-identical for any worker
/// count.
#[test]
fn crashfuzz_output_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!(
        "srbsg-crashfuzz-determinism-{}",
        std::process::id()
    ));
    let mut outputs = Vec::new();
    for jobs in [1u32, 2, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&dir).expect("create out dir");
        outputs.push((jobs, run_fig("crashfuzz", jobs, &dir)));
    }
    let (_, serial) = &outputs[0];
    for (jobs, parallel) in &outputs[1..] {
        assert_eq!(
            serial.0, parallel.0,
            "crashfuzz.csv differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial.1, parallel.1,
            "crashfuzz stdout differs between --jobs 1 and --jobs {jobs}"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// `--split-trial` inverts the parallelism axis: one trial fans its round
/// ranges over all workers instead of trials fanning over seeds. Every
/// split CSV (fig14/fig15/fig16) and the stdout tables must still be
/// byte-identical for any worker count.
#[test]
fn split_trial_fig_output_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!("srbsg-split-determinism-{}", std::process::id()));
    for figure in ["fig14", "fig15", "fig16"] {
        let csv = format!("{figure}_split");
        let mut outputs = Vec::new();
        for jobs in [1u32, 2, 4] {
            let dir = base.join(format!("{figure}-jobs{jobs}"));
            std::fs::create_dir_all(&dir).expect("create out dir");
            outputs.push((
                jobs,
                run_fig_csvs_with(figure, jobs, &dir, &[&csv], &["--split-trial"]),
            ));
        }
        let (_, serial) = &outputs[0];
        for (jobs, parallel) in &outputs[1..] {
            assert_eq!(
                serial.0, parallel.0,
                "{csv}.csv differs between --jobs 1 and --jobs {jobs}"
            );
            assert_eq!(
                serial.1, parallel.1,
                "{figure} --split-trial stdout differs between --jobs 1 and --jobs {jobs}"
            );
        }
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The faults Part-5 cross-check runs *both* engines (legacy across seeds,
/// split across round ranges) and its CSV carries the CI columns — all of
/// it must be byte-identical for any worker count.
#[test]
fn split_trial_faults_output_is_byte_identical_across_job_counts() {
    let base = std::env::temp_dir().join(format!(
        "srbsg-faults-split-determinism-{}",
        std::process::id()
    ));
    let mut outputs = Vec::new();
    for jobs in [1u32, 2, 4] {
        let dir = base.join(format!("jobs{jobs}"));
        std::fs::create_dir_all(&dir).expect("create out dir");
        outputs.push((
            jobs,
            run_fig_csvs_with("faults", jobs, &dir, &["faults_split"], &["--split-trial"]),
        ));
    }
    let (_, serial) = &outputs[0];
    for (jobs, parallel) in &outputs[1..] {
        assert_eq!(
            serial.0, parallel.0,
            "faults_split.csv differs between --jobs 1 and --jobs {jobs}"
        );
        assert_eq!(
            serial.1, parallel.1,
            "faults --split-trial stdout differs between --jobs 1 and --jobs {jobs}"
        );
    }
    std::fs::remove_dir_all(&base).ok();
}

/// The benchmark's paper sweep — fig14 over 32 seeds and fig15 over 8, on
/// 2 workers — must reproduce the committed reference CSVs under
/// `perfbench/reference/` byte for byte.
#[test]
fn sweep_csvs_match_the_benchmark_reference() {
    let out = std::env::temp_dir().join(format!("srbsg-sweep-reference-{}", std::process::id()));
    std::fs::create_dir_all(&out).expect("create out dir");
    let reference = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../perfbench/reference");
    for (figure, seeds) in [("fig14", "32"), ("fig15", "8")] {
        let output = Command::new(env!("CARGO_BIN_EXE_experiments"))
            .args(["--quick", "--seeds", seeds, "--jobs", "2", "--out"])
            .arg(&out)
            .arg(figure)
            .output()
            .expect("spawn experiments binary");
        assert!(
            output.status.success(),
            "{figure} failed: {}",
            String::from_utf8_lossy(&output.stderr)
        );
        let csv = format!("{figure}.csv");
        let got = std::fs::read(out.join(&csv)).expect("read csv");
        let want = std::fs::read(reference.join(&csv)).expect("read reference csv");
        assert!(
            got == want,
            "{csv} differs from perfbench/reference/{csv}:\n{}",
            String::from_utf8_lossy(&got)
        );
    }
    std::fs::remove_dir_all(&out).ok();
}
