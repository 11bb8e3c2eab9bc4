//! `experiments servebin` — the kill–restart chaos harness for the
//! `srbsg-server` binary. Unlike `serve`/`crashfuzz`, which exercise the
//! in-process front-end, this harness drives **real processes**: it
//! launches `srbsg-server`, aims `srbsg-loadgen` at it over the wire,
//! and injects failures from the outside.
//!
//! Phases, in order, all over one durable data directory:
//!
//! 1. **fuzz (TCP)** — five classes of malformed frames against a live
//!    TCP server: oversized length prefix, undersized length prefix,
//!    bit-flipped payload, unknown opcode with a valid checksum, and a
//!    truncated frame followed by an abrupt close. Every class must
//!    produce a typed error (or a clean drop for the truncation) and
//!    leave the server answering pings; then a `SIGTERM` drain must
//!    exit 0.
//! 2. **SIGKILL chaos (UDS)** — open-loop load in the background; once
//!    enough writes are acknowledged the server is killed with `SIGKILL`,
//!    restarted on the same endpoint, and the load phase runs to
//!    completion across the gap (client-side backoff + resend).
//! 3. **SIGTERM-under-load chaos** — same, but the server is asked to
//!    drain gracefully mid-load and must exit 0 before the restart.
//! 4. **audit** — final drain + restart, then every address that ever
//!    carried an acknowledged write is read back: the device must hold
//!    the last acked tag, or an unresolved (never-acknowledged) tag from
//!    the same phase or later. Anything else is a lost acked write, and
//!    the harness panics — that is the CI gate.
//!
//! This is a gate, not a benchmark: `results/servebin.csv` records each
//! phase's request counts and no timing; `perfbench` measures the
//! server's speed. The server/loadgen binaries are found next to the
//! `experiments` binary, or via `SRBSG_SERVER_BIN` / `SRBSG_LOADGEN_BIN`.

use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_persist::crc64;
use srbsg_server::{os, Client, Endpoint, ErrCode, LoadReport, WireResponse};

use crate::chaos::AckLedger;
use crate::table::Table;
use crate::Opts;

/// Harness scale, derived from `--quick`.
struct Scale {
    banks: usize,
    width: u32,
    chaos_requests: usize,
    chaos_conns: usize,
    kill_after_writes: u64,
    wall_deadline_s: u64,
}

impl Scale {
    fn new(quick: bool) -> Self {
        if quick {
            Self {
                banks: 2,
                width: 6,
                chaos_requests: 1200,
                chaos_conns: 2,
                kill_after_writes: 150,
                wall_deadline_s: 120,
            }
        } else {
            Self {
                banks: 4,
                width: 8,
                chaos_requests: 3000,
                chaos_conns: 4,
                kill_after_writes: 600,
                wall_deadline_s: 180,
            }
        }
    }
}

struct Bins {
    server: PathBuf,
    loadgen: PathBuf,
}

/// Locate the server/loadgen binaries: explicit env override, else
/// siblings of the running `experiments` binary (same target profile).
fn find_bins() -> Bins {
    let sibling = |name: &str| -> PathBuf {
        std::env::current_exe()
            .ok()
            .and_then(|p| p.parent().map(|d| d.join(name)))
            .unwrap_or_else(|| PathBuf::from(name))
    };
    let pick = |env: &str, name: &str| -> PathBuf {
        let p = std::env::var_os(env)
            .map(PathBuf::from)
            .unwrap_or_else(|| sibling(name));
        assert!(
            p.is_file(),
            "{name} not found at {} — build it first \
             (cargo build --release -p srbsg-server) or set {env}",
            p.display()
        );
        p
    };
    Bins {
        server: pick("SRBSG_SERVER_BIN", "srbsg-server"),
        loadgen: pick("SRBSG_LOADGEN_BIN", "srbsg-loadgen"),
    }
}

struct Server {
    child: Child,
}

/// A panic anywhere in the harness must not leak an orphaned server
/// (which would also hold the harness's inherited stderr open).
impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

fn start_server(bins: &Bins, scale: &Scale, dir: &std::path::Path, listen: &str) -> Server {
    let child = Command::new(&bins.server)
        .args([
            "--listen",
            listen,
            "--data-dir",
            dir.to_str().unwrap(),
            "--banks",
            &scale.banks.to_string(),
            "--width",
            &scale.width.to_string(),
            "--sub-regions",
            "4",
            "--seed",
            "0xC4A05",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn srbsg-server");
    Server { child }
}

fn wait_ready(ep: &Endpoint) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        if let Ok(mut c) = Client::connect(ep, Duration::from_millis(200)) {
            if c.ping().is_ok() {
                return;
            }
        }
        assert!(Instant::now() < deadline, "server never came up on {ep}");
        std::thread::sleep(Duration::from_millis(20));
    }
}

impl Server {
    fn sigkill(mut self) {
        self.child.kill().expect("SIGKILL");
        let _ = self.child.wait();
    }

    fn sigterm_expect_clean_exit(mut self, what: &str) {
        os::send_signal(self.child.id(), os::SIGTERM).expect("SIGTERM");
        let status = self.child.wait().expect("wait for server");
        assert_eq!(status.code(), Some(0), "{what}: drain must exit 0");
    }
}

/// Start the chaos load (70% writes) in the background; its report goes
/// to `report`.
fn spawn_loadgen(
    bins: &Bins,
    ep_str: &str,
    scale: &Scale,
    tag_base: u32,
    report: &std::path::Path,
) -> Child {
    Command::new(&bins.loadgen)
        .args([
            "--connect",
            ep_str,
            "--lines",
            &((scale.banks as u64) << scale.width).to_string(),
            "--conns",
            &scale.chaos_conns.to_string(),
            "--requests",
            &scale.chaos_requests.to_string(),
            "--write-ratio",
            "0.7",
            "--gap-us",
            "20",
            "--window",
            "8",
            "--seed",
            &(0x10AD_0000u64 + tag_base as u64).to_string(),
            "--tag-base",
            &tag_base.to_string(),
            "--wall-deadline-s",
            &scale.wall_deadline_s.to_string(),
            "--report",
            report.to_str().unwrap(),
        ])
        .stdout(Stdio::inherit())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn srbsg-loadgen")
}

/// Wait for a load phase to end and parse its report.
fn finish_loadgen(mut child: Child, report: &std::path::Path, name: &str) -> LoadReport {
    let status = child.wait().expect("wait for loadgen");
    assert_eq!(status.code(), Some(0), "{name}: loadgen must exit 0");
    let text = std::fs::read_to_string(report)
        .unwrap_or_else(|e| panic!("{name}: read report {}: {e}", report.display()));
    LoadReport::parse(&text).unwrap_or_else(|e| panic!("{name}: {e}"))
}

/// Current acked-write count as seen over the wire; `None` while the
/// server is down or restarting.
fn served_writes(ep: &Endpoint) -> Option<u64> {
    let mut c = Client::connect(ep, Duration::from_millis(300)).ok()?;
    c.stats().ok().map(|s| s.served_writes)
}

fn wait_for_writes(ep: &Endpoint, threshold: u64, what: &str) {
    let deadline = Instant::now() + Duration::from_secs(90);
    loop {
        if let Some(w) = served_writes(ep) {
            if w >= threshold {
                return;
            }
        }
        assert!(
            Instant::now() < deadline,
            "{what}: never reached {threshold} served writes"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
}

/// Phase 1: the malformed-frame fuzz corpus against a live TCP server.
/// Returns the malformed-frame count the server itself reported.
fn fuzz_phase(bins: &Bins, scale: &Scale, root: &std::path::Path) -> u64 {
    let dir = root.join("tcp");
    std::fs::create_dir_all(&dir).unwrap();
    let srv = start_server(bins, scale, &dir, "tcp:127.0.0.1:0");
    // The kernel picks the port; the server writes the bound endpoint to
    // a sidecar for exactly this kind of discovery.
    let ep = {
        let deadline = Instant::now() + Duration::from_secs(30);
        loop {
            if let Ok(s) = std::fs::read_to_string(dir.join("endpoint")) {
                if let Ok(ep) = Endpoint::parse(s.trim()) {
                    break ep;
                }
            }
            assert!(Instant::now() < deadline, "endpoint sidecar never appeared");
            std::thread::sleep(Duration::from_millis(20));
        }
    };
    wait_ready(&ep);

    let valid_ping: Vec<u8> = {
        let mut buf = Vec::new();
        srbsg_server::encode_request(
            &mut buf,
            &srbsg_server::RequestFrame {
                req_id: 1,
                req: srbsg_server::proto::WireRequest::Ping,
            },
        );
        buf
    };
    let mut flipped = valid_ping.clone();
    let idx = flipped.len() - 9; // inside the body, before the CRC
    flipped[idx] ^= 0x40;
    let bad_opcode: Vec<u8> = {
        let mut body = vec![1u8, 0x7F];
        body.extend_from_slice(&7u64.to_le_bytes());
        let crc = crc64(&body);
        body.extend_from_slice(&crc.to_le_bytes());
        let mut f = (body.len() as u32).to_le_bytes().to_vec();
        f.extend_from_slice(&body);
        f
    };
    let corpus: [(&str, &[u8]); 4] = [
        ("oversized length", &u32::MAX.to_le_bytes()),
        ("undersized length", &2u32.to_le_bytes()),
        ("bit-flipped payload", &flipped),
        ("bad opcode, valid crc", &bad_opcode),
    ];
    for (what, bytes) in corpus {
        let mut c = Client::connect(&ep, Duration::from_secs(5)).expect("connect");
        c.send_raw(bytes).expect("send");
        match c.recv() {
            Ok(resp) => assert!(
                matches!(
                    resp.resp,
                    WireResponse::Err {
                        code: ErrCode::BadFrame,
                        ..
                    }
                ),
                "{what}: expected BadFrame, got {resp:?}"
            ),
            Err(e) => panic!("{what}: expected a BadFrame response, got {e}"),
        }
        println!("  fuzz: {what} -> typed BadFrame, connection closed");
    }
    // Class 5 — truncated frame, then abrupt close: no response owed.
    {
        let mut c = Client::connect(&ep, Duration::from_secs(5)).expect("connect");
        c.send_raw(&valid_ping[..valid_ping.len() - 3])
            .expect("send partial");
        drop(c);
        println!("  fuzz: truncated frame + abrupt close -> dropped");
    }
    let mut c = Client::connect(&ep, Duration::from_secs(5)).expect("connect");
    c.ping().expect("server must survive the fuzz corpus");
    let malformed = c.stats().expect("stats").malformed_frames;
    assert!(
        malformed >= 4,
        "server counted only {malformed} malformed frames"
    );
    srv.sigterm_expect_clean_exit("tcp fuzz server");
    malformed
}

/// Run the full harness. Panics (failing the process, and CI) on any
/// robustness violation.
pub fn run(opts: &Opts) {
    let scale = Scale::new(opts.quick);
    let bins = find_bins();
    let root = std::env::temp_dir().join(format!("srbsg_servebin_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&root);
    std::fs::create_dir_all(&root).unwrap();

    println!("== servebin: malformed-frame fuzz over TCP ==");
    let malformed = fuzz_phase(&bins, &scale, &root);

    // Everything else runs against one durable data dir over UDS, so the
    // endpoint survives restarts (no TIME_WAIT rebind races).
    let dir = root.join("main");
    std::fs::create_dir_all(&dir).unwrap();
    let ep_str = format!("uds:{}", dir.join("srv.sock").display());
    let ep = Endpoint::parse(&ep_str).unwrap();

    let srv = start_server(&bins, &scale, &dir, &ep_str);
    wait_ready(&ep);

    // A chaos phase loads the server in the background, interrupts it once
    // enough more writes are acked, restarts it on the same endpoint, and
    // lets the load run to completion across the gap (client-side backoff
    // + resend).
    let chaos = |srv: Server, name: &'static str, tag_base: u32, interrupt: fn(Server)| {
        let base = served_writes(&ep).expect("stats before chaos");
        let rp = root.join(format!("report_{name}.txt"));
        let child = spawn_loadgen(&bins, &ep_str, &scale, tag_base, &rp);
        wait_for_writes(&ep, base + scale.kill_after_writes, name);
        interrupt(srv);
        let srv = start_server(&bins, &scale, &dir, &ep_str);
        wait_ready(&ep);
        let report = finish_loadgen(child, &rp, name);
        assert!(
            report.reconnects > 0,
            "{name}: the load generator must have reconnected across the restart"
        );
        (srv, (name, report))
    };
    println!("== servebin: SIGKILL mid-load, restart, finish ==");
    let (srv, killed) = chaos(srv, "chaos-sigkill", 1 << 16, Server::sigkill);
    println!("== servebin: SIGTERM drain under load, restart, finish ==");
    let (srv, drained) = chaos(srv, "chaos-sigterm", 2 << 16, |srv| {
        srv.sigterm_expect_clean_exit("drain under load")
    });
    let phases = [killed, drained];

    println!("== servebin: final drain + audit restart ==");
    srv.sigterm_expect_clean_exit("final drain");
    let srv = start_server(&bins, &scale, &dir, &ep_str);
    wait_ready(&ep);
    let generation = Client::connect(&ep, Duration::from_secs(5))
        .expect("audit connect")
        .stats()
        .expect("stats")
        .generation;
    assert_eq!(
        generation, 3,
        "audit boot must be generation 3 (fresh + 3 restarts)"
    );
    // Every address that ever carried an acked write must hold its last
    // acked tag, or a tag left unresolved (in flight when the server died)
    // in that phase or a later one.
    let mut ledger = AckLedger::default();
    for (pi, (_, report)) in phases.iter().enumerate() {
        for (&la, &tag) in &report.acked {
            ledger.ack(la, LineData::Mixed(tag), pi);
        }
        for (&la, tags) in &report.unresolved {
            for &tag in tags {
                ledger.unresolved(la, LineData::Mixed(tag), pi);
            }
        }
    }
    let mut c = Client::connect(&ep, Duration::from_secs(10)).expect("audit connect");
    let (audited, lost) = ledger.audit(|la| {
        c.read(la)
            .expect("audit read io")
            .unwrap_or_else(|r| panic!("audit read of la={la} rejected: {r:?}"))
    });
    // Close the audit connection so the drain below need not wait on it.
    drop(c);
    srv.sigterm_expect_clean_exit("audit server");
    assert_eq!(
        lost, 0,
        "{lost} acknowledged writes were lost across kill/restart"
    );
    println!(
        "audit: {audited} acked addresses verified across {} phases, 0 lost \
         (generation {generation}, {malformed} malformed frames fuzzed)",
        phases.len()
    );

    let mut t = Table::new(
        "servebin: real-process chaos phases",
        &[
            "phase",
            "conns",
            "sent",
            "acked_writes",
            "errors",
            "reconnects",
        ],
    );
    for (name, report) in &phases {
        t.row(vec![
            name.to_string(),
            scale.chaos_conns.to_string(),
            report.sent.to_string(),
            report.acked_writes.to_string(),
            report.errors.to_string(),
            report.reconnects.to_string(),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "servebin");

    let _ = std::fs::remove_dir_all(&root);
}
