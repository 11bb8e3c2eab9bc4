//! The paper's lifetime sweep through the release `experiments` binary:
//! `fig14 --quick --seeds 32` then `fig15 --quick --seeds 8`, both with
//! `--jobs 2`, checked byte for byte against reference CSVs.

use std::io;
use std::path::Path;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

/// The sweep's figure runs: (subcommand, seeds, CSV it writes).
pub const FIGURES: [(&str, u64, &str); 2] = [("fig14", 32, "fig14.csv"), ("fig15", 8, "fig15.csv")];

/// Worker threads the sweep runs with.
pub const JOBS: usize = 2;

/// Reference CSVs, recorded from the same commands; the simulator is
/// deterministic, so any change to a simulated number fails the check.
const REFERENCE: [&str; 2] = [
    include_str!("../reference/fig14.csv"),
    include_str!("../reference/fig15.csv"),
];

/// One sweep's outcome.
#[derive(Debug, Clone, Copy)]
pub struct Sweep {
    /// Wall time of both figure runs, process spawn to exit.
    pub wall: Duration,
    /// Whether every CSV matched its reference byte for byte.
    pub identical: bool,
}

/// Run the sweep once with `bin`, writing CSVs into `out` (emptied first).
pub fn run(bin: &Path, out: &Path) -> io::Result<Sweep> {
    let _ = std::fs::remove_dir_all(out);
    let start = Instant::now();
    for (fig, seeds, _) in FIGURES {
        let status = Command::new(bin)
            .arg(fig)
            .args([
                "--quick",
                "--seeds",
                &seeds.to_string(),
                "--jobs",
                &JOBS.to_string(),
            ])
            .arg("--out")
            .arg(out)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()?;
        if !status.success() {
            return Err(io::Error::other(format!(
                "experiments {fig} failed: {status}"
            )));
        }
    }
    let wall = start.elapsed();
    let mut identical = true;
    for ((_, _, csv), want) in FIGURES.iter().zip(REFERENCE) {
        identical &= std::fs::read(out.join(csv))? == want.as_bytes();
    }
    Ok(Sweep { wall, identical })
}
