//! Restart equivalence across a **real process boundary**: a seeded
//! write workload, `SIGKILL` at a deterministic point (after exactly `K`
//! acknowledged writes), restart, continue — the final device state and
//! the acked-write read-back must be identical to a run that was never
//! killed. Also asserts the graceful path: `SIGTERM` exits 0 and the
//! drained state survives a subsequent restart.

use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_server::{os, Client, Endpoint};
use srbsg_workloads::splitmix64;

const LINES: u64 = 64; // 2 banks × 2^5 lines
const TOTAL_WRITES: u32 = 60;
const KILL_AFTER: u32 = 23;

struct ServerProc {
    child: Child,
    endpoint: Endpoint,
}

/// A test that fails mid-way must not leave its server running.
impl Drop for ServerProc {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server(dir: &Path, tag: &str) -> ServerProc {
    let sock = dir.join(format!("{tag}.sock"));
    let child = Command::new(env!("CARGO_BIN_EXE_srbsg-server"))
        .args([
            "--listen",
            &format!("uds:{}", sock.display()),
            "--data-dir",
            dir.to_str().unwrap(),
            "--banks",
            "2",
            "--width",
            "5",
            "--sub-regions",
            "2",
            "--seed",
            "0xD00D",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn srbsg-server");
    let endpoint = Endpoint::Uds(sock);
    // Wait until the server answers a ping.
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        if let Ok(mut c) = Client::connect(&endpoint, Duration::from_millis(200)) {
            if c.ping().is_ok() {
                break;
            }
        }
        assert!(Instant::now() < deadline, "server never came up");
        std::thread::sleep(Duration::from_millis(20));
    }
    ServerProc { child, endpoint }
}

impl ServerProc {
    fn client(&self) -> Client {
        Client::connect(&self.endpoint, Duration::from_secs(10)).expect("connect")
    }

    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL");
        let _ = self.child.wait();
    }

    fn sigterm_expect_clean_exit(mut self) {
        os::send_signal(self.child.id(), os::SIGTERM).expect("SIGTERM");
        let status = self.child.wait().expect("wait");
        assert_eq!(status.code(), Some(0), "SIGTERM drain must exit 0");
    }
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

fn read_image(c: &mut Client) -> Vec<LineData> {
    (0..LINES)
        .map(|la| c.read(la).expect("read io").expect("read rejected"))
        .collect()
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srbsg_rse_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn killed_and_restarted_run_equals_never_killed_run() {
    // Baseline: never killed.
    let dir_a = temp_dir("base");
    let srv_a = start_server(&dir_a, "a");
    let mut ca = srv_a.client();
    apply_writes(&mut ca, 0..TOTAL_WRITES);
    let image_a = read_image(&mut ca);
    ca.close();
    srv_a.sigterm_expect_clean_exit();

    // Chaos run: SIGKILL after exactly KILL_AFTER acknowledged writes.
    let dir_b = temp_dir("kill");
    let srv_b = start_server(&dir_b, "b1");
    let mut cb = srv_b.client();
    apply_writes(&mut cb, 0..KILL_AFTER);
    // The ack for write KILL_AFTER-1 has been received, so the durable
    // state is exactly "KILL_AFTER writes applied" — kill right now.
    drop(cb);
    srv_b.sigkill();

    // Restart: recovery must re-key yet preserve every acked write.
    let srv_b2 = start_server(&dir_b, "b2");
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
    let image_after_restart = read_image(&mut cb2);
    assert_eq!(
        image_after_restart, expected_after_kill,
        "every acked write must survive SIGKILL, and nothing else may appear"
    );

    // Continue the workload to completion on the restarted server.
    apply_writes(&mut cb2, KILL_AFTER..TOTAL_WRITES);
    let image_b = read_image(&mut cb2);
    cb2.close();
    assert_eq!(
        image_b, image_a,
        "killed+restarted run must converge to the never-killed image"
    );
    srv_b2.sigterm_expect_clean_exit();

    // And the drained state survives one more restart (generation 2).
    let srv_b3 = start_server(&dir_b, "b3");
    let mut cb3 = srv_b3.client();
    assert_eq!(cb3.stats().expect("stats").generation, 2);
    assert_eq!(read_image(&mut cb3), image_a);
    cb3.close();
    srv_b3.sigterm_expect_clean_exit();

    let _ = std::fs::remove_dir_all(&dir_a);
    let _ = std::fs::remove_dir_all(&dir_b);
}
