//! Restart equivalence across a **real process boundary**: a seeded
//! write workload, `SIGKILL` at a deterministic point (after exactly `K`
//! acknowledged writes), restart, continue — the final device state and
//! the acked-write read-back must be identical to a run that was never
//! killed. Also asserts the graceful path: `SIGTERM` exits 0 and the
//! drained state survives a subsequent restart.
//!
//! The same durability under load: `srbsg-loadgen` keeps writing while
//! the server is `SIGKILL`ed, then drained by `SIGTERM`, mid-load; no
//! line goes back to an older write across the kill, each load finishes
//! across the restart, and an audit boot reads every acknowledged
//! address back through [`AckLedger`].

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_server::{os, AckLedger, Client, Endpoint, LoadReport};
use srbsg_workloads::splitmix64;

#[path = "common/server.rs"]
mod server;

use server::{Server, TempDir};

const LINES: u64 = 64; // 2 banks × 2^5 lines
const TOTAL_WRITES: u32 = 60;
const KILL_AFTER: u32 = 23;

fn boot(dir: &Path) -> Server {
    Server::uds(
        dir,
        &[
            "--banks",
            "2",
            "--width",
            "5",
            "--sub-regions",
            "2",
            "--seed",
            "0xD00D",
        ],
    )
}

/// The deterministic workload: write `i` targets a seeded address with a
/// unique tag, so any lost or misplaced write changes the final image.
fn workload(i: u32) -> (u64, LineData) {
    let la = splitmix64(0xFEED ^ i as u64) % LINES;
    (la, LineData::Mixed(0x0100_0000 | i))
}

fn apply_writes(c: &mut Client, range: std::ops::Range<u32>) {
    for i in range {
        let (la, data) = workload(i);
        let res = c.write(la, data).expect("write io");
        assert!(res.is_ok(), "write {i} rejected: {res:?}");
    }
}

fn read_image(c: &mut Client, lines: u64) -> Vec<LineData> {
    (0..lines)
        .map(|la| c.read(la).expect("read io").expect("read rejected"))
        .collect()
}

#[test]
fn killed_and_restarted_run_equals_never_killed_run() {
    // Baseline: never killed.
    let dir_a = TempDir::new("rse_base");
    let srv_a = boot(&dir_a);
    let mut ca = srv_a.client();
    apply_writes(&mut ca, 0..TOTAL_WRITES);
    let image_a = read_image(&mut ca, LINES);
    ca.close();
    srv_a.sigterm();

    // Chaos run: SIGKILL after exactly KILL_AFTER acknowledged writes.
    let dir_b = TempDir::new("rse_kill");
    let srv_b = boot(&dir_b);
    let mut cb = srv_b.client();
    apply_writes(&mut cb, 0..KILL_AFTER);
    // The ack for write KILL_AFTER-1 has been received, so the durable
    // state is exactly "KILL_AFTER writes applied" — kill right now.
    drop(cb);
    srv_b.sigkill();

    // Restart: recovery must re-key yet preserve every acked write.
    let srv_b2 = boot(&dir_b);
    let mut cb2 = srv_b2.client();
    let stats = cb2.stats().expect("stats");
    assert_eq!(stats.generation, 1, "restart must be generation 1");
    let expected_after_kill: Vec<LineData> = {
        // Replay the prefix on a map to compute the expected image.
        let mut img = vec![LineData::Zeros; LINES as usize];
        for i in 0..KILL_AFTER {
            let (la, data) = workload(i);
            img[la as usize] = data;
        }
        img
    };
    let image_after_restart = read_image(&mut cb2, LINES);
    assert_eq!(
        image_after_restart, expected_after_kill,
        "every acked write must survive SIGKILL, and nothing else may appear"
    );

    // Continue the workload to completion on the restarted server.
    apply_writes(&mut cb2, KILL_AFTER..TOTAL_WRITES);
    let image_b = read_image(&mut cb2, LINES);
    cb2.close();
    assert_eq!(
        image_b, image_a,
        "killed+restarted run must converge to the never-killed image"
    );
    srv_b2.sigterm();

    // And the drained state survives one more restart (generation 2).
    let srv_b3 = boot(&dir_b);
    let mut cb3 = srv_b3.client();
    assert_eq!(cb3.stats().expect("stats").generation, 2);
    assert_eq!(read_image(&mut cb3, LINES), image_a);
    cb3.close();
    srv_b3.sigterm();
}

/// The loaded device: 2 banks × 2^6 lines.
const LOAD_FLAGS: &[&str] = &[
    "--banks",
    "2",
    "--width",
    "6",
    "--sub-regions",
    "4",
    "--seed",
    "0xC4A05",
];
const LOAD_LINES: u64 = 2 << 6;

/// Acks a load phase must land before it is interrupted.
const INTERRUPT_AFTER_ACKS: u64 = 150;

/// A load phase running in the background. A test that fails before the
/// phase ends must not leave it retrying until its wall deadline.
struct Load(Child);

impl Load {
    /// Pause ([`os::SIGSTOP`]) or resume ([`os::SIGCONT`]) the load
    /// generator.
    fn signal(&self, sig: i32) {
        os::send_signal(self.0.id(), sig).expect("signal the load generator");
    }
}

impl Drop for Load {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

/// Start a load phase: 2 connections of 1200 requests, 70% writes, tags
/// from `tag_base`; its report goes to `report`.
fn spawn_loadgen(endpoint: &Endpoint, tag_base: u32, report: &Path) -> Load {
    let child = Command::new(env!("CARGO_BIN_EXE_srbsg-loadgen"))
        .args(["--connect", &endpoint.to_string()])
        .args(["--lines", &LOAD_LINES.to_string()])
        .args(["--conns", "2", "--requests", "1200", "--write-ratio", "0.7"])
        .args([
            "--gap-us",
            "20",
            "--window",
            "8",
            "--wall-deadline-s",
            "120",
        ])
        .args(["--seed", &(0x10AD_0000 + u64::from(tag_base)).to_string()])
        .args(["--tag-base", &tag_base.to_string()])
        .args(["--report", report.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn srbsg-loadgen");
    Load(child)
}

/// The tag `data` carries, 0 for a line never written. A line has one
/// writer, whose tags grow, so a larger tag is a later write.
fn tag(data: LineData) -> u32 {
    match data {
        LineData::Zeros => 0,
        LineData::Mixed(tag) => tag,
        LineData::Ones => panic!("the load never writes all-ones"),
    }
}

/// Writes the server has acknowledged since its boot; `None` while it is
/// down.
fn served_writes(endpoint: &Endpoint) -> Option<u64> {
    let mut c = Client::connect(endpoint, Duration::from_millis(300)).ok()?;
    c.stats().ok().map(|s| s.served_writes)
}

#[test]
fn acked_writes_survive_a_kill_and_a_drain_under_load() {
    let dir = TempDir::new("rse_load");
    let mut srv = Server::uds(&dir, LOAD_FLAGS);
    let mut ledger = AckLedger::default();
    for (phase, name) in ["SIGKILL", "SIGTERM"].into_iter().enumerate() {
        let report_path = dir.join(format!("phase{phase}.report"));
        let acked = served_writes(&srv.endpoint).expect("stats") + INTERRUPT_AFTER_ACKS;
        let mut load = spawn_loadgen(&srv.endpoint, (phase as u32 + 1) << 16, &report_path);
        let deadline = Instant::now() + Duration::from_secs(90);
        while served_writes(&srv.endpoint).unwrap_or(0) < acked {
            assert!(Instant::now() < deadline, "{name}: the load never got acks");
            std::thread::sleep(Duration::from_millis(5));
        }
        if name == "SIGKILL" {
            // Read what the device holds while the load keeps running:
            // a read sees only committed writes, so the kill must keep
            // it. Then kill with requests in flight. A line may move on
            // to a later write, but never back to an earlier one. The
            // load is paused from the kill until the restarted device is
            // read, so that its later writes cannot hide such a loss.
            let held = read_image(&mut srv.client(), LOAD_LINES);
            srv.sigkill();
            load.signal(os::SIGSTOP);
            srv = Server::uds(&dir, LOAD_FLAGS);
            let kept = read_image(&mut srv.client(), LOAD_LINES);
            load.signal(os::SIGCONT);
            for (la, (held, kept)) in held.into_iter().zip(kept).enumerate() {
                assert!(
                    tag(kept) >= tag(held),
                    "line {la} went back from {held:?} to {kept:?} across the kill"
                );
            }
        } else {
            srv.sigterm();
            srv = Server::uds(&dir, LOAD_FLAGS);
        }

        let status = load.0.wait().expect("wait for loadgen");
        assert!(status.success(), "{name}: loadgen exited {status}");
        let text = std::fs::read_to_string(&report_path).expect("read the load report");
        let report = LoadReport::parse(&text).expect("parse the load report");
        assert!(
            report.reconnects > 0,
            "{name}: the load must reconnect across the restart"
        );
        ledger.add_report(&report, phase);
    }

    srv.sigterm();
    let srv = Server::uds(&dir, LOAD_FLAGS);
    let mut c = srv.client();
    // Fresh boot, the restarts after the kill and the drain, and this one.
    assert_eq!(c.stats().expect("stats").generation, 3);
    let (audited, lost) = ledger.audit(|la| {
        c.read(la)
            .expect("audit read io")
            .unwrap_or_else(|r| panic!("audit read of line {la} rejected: {r:?}"))
    });
    c.close();
    srv.sigterm();
    assert_eq!(lost, 0, "{lost} of {audited} acknowledged lines lost");
    assert_eq!(audited, LOAD_LINES, "every line carried an ack");
}
