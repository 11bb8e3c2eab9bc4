//! The server runtime: accept loop, per-connection reader/writer threads,
//! a single-threaded device engine, durable ack ordering, graceful drain,
//! and `SIGKILL` recovery.
//!
//! # Thread structure
//!
//! ```text
//! accept loop ──spawns──▶ conn reader ──bounded channel──▶ engine
//!                             │  ▲                            │
//!                             ▼  │ direct replies             │ completions
//!                         conn writer ◀───────────────────────┘
//! ```
//!
//! One **engine** thread owns the [`FrontEnd`] and the disk shelf; each
//! connection gets a reader thread (frame decode, timeout policing,
//! overload shedding) and a writer thread (response encode). The reader's
//! [`crate::proto::FrameReader`] and the writer's scratch buffer are the
//! only buffers on the steady-state path — request decode and response
//! encode allocate nothing per request.
//!
//! # Durability contract
//!
//! After every batch that acknowledged at least one write, and **before**
//! any of that batch's responses are handed to writer threads, the engine
//! commits the batch to the shelf ([`commit_with_healing`]): one record
//! holding the slots the batch touched and the journal bytes it appended,
//! appended to both copies of the shelf's delta log behind a doubled
//! barrier. When the log has grown to the size of the device image, the
//! commit writes a full checkpoint instead (dual-slot atomic rename) and
//! empties the log. `WriteOk` on the wire therefore implies the write is
//! recoverable, which is exactly the invariant the chaos harness audits
//! across `SIGKILL`.
//!
//! # Drain state machine
//!
//! `SIGTERM`/`SIGINT` → accept loop stops accepting and drops its engine
//! sender → connection readers answer new requests with
//! [`ErrCode::ShuttingDown`], wait for their in-flight responses to
//! flush, and close → once the last sender is gone the engine's queue
//! disconnects → the engine runs [`FrontEnd::drain_checkpoint`],
//! checkpoints the shelf a final time, and the process exits 0.

use std::io::Write as _;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc::{self, RecvTimeoutError, SyncSender, TrySendError};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, MultiBankSystem, Ns, PcmError, TimingModel};
use srbsg_persist::{CheckpointPolicy, Journaled};
use srbsg_serve::{FrontEnd, Op, Rejected, Request, ServeConfig};
use srbsg_workloads::splitmix64;

use crate::client::{Endpoint, Stream};
use crate::os;
use crate::proto::{
    encode_response, ErrCode, FrameReader, RequestFrame, ResponseFrame, StatsWire, WireRequest,
    WireResponse,
};
use crate::shelf::{
    checkpoint_with_healing, commit_with_healing, CommitStamp, DiskShelf, RetryPolicy, SaveOutcome,
    ShelfState,
};

/// The scheme stack a server bank runs.
pub type ServerScheme = Journaled<SecurityRbsg>;

/// Server configuration (CLI flags plus `SRBSG_SERVER_*` env knobs).
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen endpoint.
    pub endpoint: Endpoint,
    /// Data directory for the shelf and sidecar files.
    pub data_dir: PathBuf,
    /// Bank count.
    pub banks: usize,
    /// Address-space width per bank (2^width logical lines per bank).
    pub width: u32,
    /// Security RBSG sub-regions per bank.
    pub sub_regions: u64,
    /// Base seed; per-bank and per-generation seeds derive from it.
    pub seed: u64,
    /// Flush saves through the page cache (power-loss durability).
    pub fsync: bool,
    /// Front-end policy.
    pub serve: ServeConfig,
    /// Optional per-request simulated deadline budget.
    pub deadline_ns: Option<u64>,
    /// Worker threads for `submit_batch`.
    pub jobs: usize,
    /// Largest request batch the engine coalesces.
    pub batch_max: usize,
    /// Bound on requests queued for the engine (then: typed overload).
    pub inflight_max: usize,
    /// Bound on concurrent connections (then: typed overload + close).
    pub max_conns: usize,
    /// Close a connection idle this long between frames.
    pub idle_timeout: Duration,
    /// Close a connection that dribbles a single frame this long
    /// (slow-loris defense).
    pub frame_timeout: Duration,
    /// Checkpoint cadence for the per-bank journals.
    pub checkpoint_every: u64,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            data_dir: PathBuf::from("srbsg-data"),
            banks: 4,
            width: 8,
            sub_regions: 4,
            seed: 0x5EC0_12B5,
            fsync: false,
            serve: ServeConfig {
                queue_depth: 1024,
                quarantine_spare_frac: 0.0,
                ..ServeConfig::default()
            },
            deadline_ns: None,
            jobs: srbsg_workloads::env::usize_knob_or("SRBSG_SERVER_JOBS", 1, 1),
            batch_max: srbsg_workloads::env::usize_knob_or("SRBSG_SERVER_BATCH", 1, 64),
            inflight_max: 1024,
            max_conns: 64,
            idle_timeout: Duration::from_secs(30),
            frame_timeout: Duration::from_secs(5),
            checkpoint_every: 128,
        }
    }
}

/// What `boot` found on the shelf.
#[derive(Debug, Clone, Copy, Default)]
pub struct BootReport {
    /// Generation now running (0 = fresh store).
    pub generation: u64,
    /// Whether state was recovered from a previous power session.
    pub recovered: bool,
    /// Journal steps replayed across banks.
    pub replayed_steps: u64,
    /// Line movements performed by the re-keying remap.
    pub rekey_movements: u64,
    /// Acked writes carried over from previous generations.
    pub acked_writes: u64,
    /// Shelf save counter committed at boot; the engine continues from
    /// the next value.
    pub save_seq: u64,
    /// Whether the load scrub healed a damaged checkpoint or log copy.
    pub healed_shelf_slot: bool,
}

struct SharedStats {
    generation: AtomicU64,
    accepted_conns: AtomicU64,
    open_conns: AtomicU64,
    served_reads: AtomicU64,
    served_writes: AtomicU64,
    retries: AtomicU64,
    shed_queue_full: AtomicU64,
    shed_deadline: AtomicU64,
    shed_quarantine: AtomicU64,
    shed_retries: AtomicU64,
    shed_fault: AtomicU64,
    shed_overload: AtomicU64,
    shed_read_only: AtomicU64,
    malformed_frames: AtomicU64,
    draining: AtomicBool,
}

impl SharedStats {
    fn new(generation: u64) -> Self {
        Self {
            generation: AtomicU64::new(generation),
            accepted_conns: AtomicU64::new(0),
            open_conns: AtomicU64::new(0),
            served_reads: AtomicU64::new(0),
            served_writes: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            shed_queue_full: AtomicU64::new(0),
            shed_deadline: AtomicU64::new(0),
            shed_quarantine: AtomicU64::new(0),
            shed_retries: AtomicU64::new(0),
            shed_fault: AtomicU64::new(0),
            shed_overload: AtomicU64::new(0),
            shed_read_only: AtomicU64::new(0),
            malformed_frames: AtomicU64::new(0),
            draining: AtomicBool::new(false),
        }
    }

    fn snapshot(&self) -> StatsWire {
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsWire {
            generation: g(&self.generation),
            accepted_conns: g(&self.accepted_conns),
            open_conns: g(&self.open_conns),
            served_reads: g(&self.served_reads),
            served_writes: g(&self.served_writes),
            retries: g(&self.retries),
            shed_queue_full: g(&self.shed_queue_full),
            shed_deadline: g(&self.shed_deadline),
            shed_quarantine: g(&self.shed_quarantine),
            shed_retries: g(&self.shed_retries),
            shed_fault: g(&self.shed_fault),
            shed_overload: g(&self.shed_overload),
            shed_read_only: g(&self.shed_read_only),
            malformed_frames: g(&self.malformed_frames),
            draining: self.draining.load(Ordering::Relaxed) as u64,
        }
    }
}

struct Shared {
    stats: SharedStats,
    draining: AtomicBool,
    logical_lines: u64,
    idle_timeout: Duration,
    frame_timeout: Duration,
}

/// Response handed to a connection's writer thread. `engine_reply` marks
/// responses completing an engine round-trip, whose flush decrements the
/// connection's in-flight counter.
struct WriterMsg {
    frame: ResponseFrame,
    engine_reply: bool,
}

struct EngineMsg {
    resp: mpsc::Sender<WriterMsg>,
    req_id: u64,
    la: u64,
    op: Op,
}

fn policy(cfg: &ServerConfig) -> CheckpointPolicy {
    CheckpointPolicy::every_steps(cfg.checkpoint_every)
}

/// Checkpoint a freshly built or recovered device before it serves.
fn boot_checkpoint(
    shelf: &mut DiskShelf,
    fe: &mut FrontEnd<ServerScheme>,
    stamp: CommitStamp,
) -> std::io::Result<()> {
    match checkpoint_with_healing(shelf, fe.system_mut(), stamp, &RetryPolicy::default()) {
        SaveOutcome::Saved { .. } => Ok(()),
        SaveOutcome::ReadOnly(e) | SaveOutcome::Failed(e) => Err(e.into()),
    }
}

/// Build a fresh device or recover the shelved one. On recovery the
/// Security RBSG mapping is **re-keyed** (a fresh per-generation seed),
/// exactly as the paper prescribes after a power cycle, and the
/// new-generation image is committed back to the shelf before serving.
pub fn boot(
    cfg: &ServerConfig,
) -> std::io::Result<(FrontEnd<ServerScheme>, DiskShelf, BootReport)> {
    let mut shelf = DiskShelf::open(&cfg.data_dir, cfg.fsync)?;
    let pol = policy(cfg);
    // `ShelfError` is typed: a corrupt image, a truncated image, and a
    // failing medium each surface distinctly in the operator log.
    let loaded = shelf.load().map_err(std::io::Error::from)?;
    match loaded {
        None => {
            let banks = (0..cfg.banks)
                .map(|b| {
                    let mut c = SecurityRbsgConfig::small(cfg.width, cfg.sub_regions);
                    c.seed = splitmix64(cfg.seed ^ b as u64);
                    MemoryController::new(
                        Journaled::with_policy(SecurityRbsg::new(c), pol),
                        u64::MAX,
                        TimingModel::PAPER,
                    )
                })
                .collect();
            let mut fe = FrontEnd::new(MultiBankSystem::from_controllers(banks), cfg.serve);
            let report = BootReport {
                save_seq: 1,
                ..BootReport::default()
            };
            let stamp = CommitStamp {
                save_seq: 1,
                seed: cfg.seed,
                ..CommitStamp::default()
            };
            boot_checkpoint(&mut shelf, &mut fe, stamp)?;
            Ok((fe, shelf, report))
        }
        Some((state, scrub)) => {
            if let Some(slot) = scrub.healed_slot {
                eprintln!(
                    "srbsg-server: shelf scrub healed copy {} ({}) from the survivor",
                    slot,
                    scrub
                        .damage
                        .map(|d| d.to_string())
                        .unwrap_or_else(|| "unknown damage".into()),
                );
            }
            if let Some(copy) = scrub.healed_log {
                eprintln!(
                    "srbsg-server: shelf scrub read rotten log copy {copy}'s records from its twin"
                );
            }
            let (mut fe, mut report) = restore(&state, pol, cfg.serve)?;
            report.healed_shelf_slot = scrub.healed_slot.is_some() || scrub.healed_log.is_some();
            let stamp = CommitStamp {
                save_seq: report.save_seq,
                generation: report.generation,
                seed: state.seed,
                acked_writes: state.acked_writes,
            };
            boot_checkpoint(&mut shelf, &mut fe, stamp)?;
            Ok((fe, shelf, report))
        }
    }
}

/// Rebuild a serving front-end from a loaded shelf image, as the next
/// generation: restore every bank, re-key its Security RBSG mapping from
/// a fresh per-generation seed, replay its journal, and advance the device
/// clock to the image's. The returned report carries the new generation,
/// the recovery counts and the `save_seq` the next commit takes; the
/// caller fills in what the load scrub found. This is the one place the
/// re-key seed is derived.
pub fn restore(
    state: &ShelfState,
    policy: CheckpointPolicy,
    serve: ServeConfig,
) -> std::io::Result<(FrontEnd<ServerScheme>, BootReport)> {
    let generation = state.generation + 1;
    let mut report = BootReport {
        generation,
        recovered: true,
        acked_writes: state.acked_writes,
        save_seq: state.save_seq + 1,
        ..BootReport::default()
    };
    let mut banks = Vec::with_capacity(state.banks.len());
    for (b, bs) in state.banks.iter().enumerate() {
        let mut bank = bs.restore_bank(u64::MAX, TimingModel::PAPER);
        let rekey = splitmix64(state.seed ^ (generation << 20) ^ b as u64);
        let (jw, rec) = Journaled::<SecurityRbsg>::recover_rekeyed_with_policy(
            &bs.store, &mut bank, rekey, policy,
        )
        .map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("bank {b} recovery failed: {e:?}"),
            )
        })?;
        report.replayed_steps += rec.replayed_steps;
        report.rekey_movements += rec.rekey_movements;
        let mut mc = MemoryController::from_bank(jw, bank);
        mc.advance_clock(state.now_ns);
        banks.push(mc);
    }
    let fe = FrontEnd::new(MultiBankSystem::from_controllers(banks), serve);
    Ok((fe, report))
}

fn reject_to_wire(rej: &Rejected, stats: &SharedStats) -> (ErrCode, u64) {
    match rej {
        Rejected::QueueFull { bank, .. } => {
            stats.shed_queue_full.fetch_add(1, Ordering::Relaxed);
            (ErrCode::QueueFull, *bank as u64)
        }
        Rejected::DeadlineExceeded { bank, .. } => {
            stats.shed_deadline.fetch_add(1, Ordering::Relaxed);
            (ErrCode::DeadlineExceeded, *bank as u64)
        }
        Rejected::BankQuarantined { bank } => {
            stats.shed_quarantine.fetch_add(1, Ordering::Relaxed);
            (ErrCode::BankQuarantined, *bank as u64)
        }
        Rejected::RetriesExhausted { attempts, .. } => {
            stats.shed_retries.fetch_add(1, Ordering::Relaxed);
            (ErrCode::RetriesExhausted, *attempts as u64)
        }
        Rejected::ReadOnly => {
            stats.shed_read_only.fetch_add(1, Ordering::Relaxed);
            (ErrCode::ReadOnly, 0)
        }
        Rejected::Fault(PcmError::AddressOutOfRange { la, .. }) => {
            stats.shed_fault.fetch_add(1, Ordering::Relaxed);
            (ErrCode::AddressOutOfRange, *la)
        }
        Rejected::Fault(_) => {
            stats.shed_fault.fetch_add(1, Ordering::Relaxed);
            (ErrCode::DeviceFault, 0)
        }
    }
}

fn clamp_ns(ns: Ns) -> u64 {
    ns.min(u64::MAX as Ns) as u64
}

struct EngineState {
    fe: FrontEnd<ServerScheme>,
    shelf: DiskShelf,
    stamp: CommitStamp,
    read_only: bool,
}

fn engine_loop(
    mut st: EngineState,
    rx: mpsc::Receiver<EngineMsg>,
    shared: Arc<Shared>,
    cfg: ServerConfig,
) -> std::io::Result<()> {
    loop {
        let first = match rx.recv_timeout(Duration::from_millis(10)) {
            Ok(m) => m,
            Err(RecvTimeoutError::Timeout) => continue,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let mut msgs = vec![first];
        while msgs.len() < cfg.batch_max {
            match rx.try_recv() {
                Ok(m) => msgs.push(m),
                Err(_) => break,
            }
        }
        let arrival = st.fe.system().now_ns();
        let deadline = cfg
            .deadline_ns
            .map(|d| arrival + d as Ns)
            .unwrap_or(Ns::MAX);
        let batch: Vec<Request> = msgs
            .iter()
            .map(|m| Request {
                la: m.la,
                op: m.op,
                arrival_ns: arrival,
                deadline_ns: deadline,
            })
            .collect();
        let mut completions = st.fe.submit_batch(batch, cfg.jobs);
        completions.sort_by_key(|c| c.id);
        debug_assert_eq!(completions.len(), msgs.len());

        let new_acks = completions
            .iter()
            .zip(&msgs)
            .filter(|(c, m)| c.result.is_ok() && matches!(m.op, Op::Write(_)))
            .count() as u64;
        // Acks must not outrun durability: a batch with fresh write acks
        // is committed *before* its responses dispatch, with self-healing
        // — a failed append falls back to a checkpoint, transient media
        // errors are retried away; persistent ENOSPC degrades the tier to
        // typed read-only shedding; anything else refuses the acks and
        // drains.
        let mut persist_failed = false;
        let mut entered_read_only = false;
        if new_acks > 0 {
            let committed = st.stamp;
            st.stamp.acked_writes += new_acks;
            st.stamp.save_seq += 1;
            let policy = RetryPolicy::default();
            match commit_with_healing(&mut st.shelf, st.fe.system_mut(), st.stamp, &policy) {
                SaveOutcome::Saved { attempts } => {
                    if attempts > 1 {
                        eprintln!(
                            "srbsg-server: shelf commit healed after {attempts} attempts (media errors)"
                        );
                    }
                }
                SaveOutcome::ReadOnly(e) => {
                    eprintln!(
                        "srbsg-server: shelf out of space ({e}); degrading to read-only serving"
                    );
                    st.stamp = committed;
                    entered_read_only = true;
                    st.read_only = true;
                    st.fe.set_read_only(true);
                }
                SaveOutcome::Failed(e) => {
                    eprintln!("srbsg-server: shelf commit failed, draining: {e}");
                    st.stamp = committed;
                    persist_failed = true;
                    os::request_shutdown();
                }
            }
        }

        for (c, m) in completions.iter().zip(&msgs) {
            let is_write = matches!(m.op, Op::Write(_));
            let resp = match (&c.result, (persist_failed || entered_read_only) && is_write) {
                (Ok(s), false) => {
                    if is_write {
                        shared.stats.served_writes.fetch_add(1, Ordering::Relaxed);
                        shared
                            .stats
                            .retries
                            .fetch_add(s.retries as u64, Ordering::Relaxed);
                        WireResponse::WriteOk {
                            retries: s.retries,
                            latency_ns: clamp_ns(s.latency_ns),
                        }
                    } else {
                        shared.stats.served_reads.fetch_add(1, Ordering::Relaxed);
                        WireResponse::ReadOk {
                            data: s.data.unwrap_or(LineData::Zeros),
                            latency_ns: clamp_ns(s.latency_ns),
                        }
                    }
                }
                (Ok(_), true) => {
                    // The device applied this write but durability failed:
                    // the ack is refused with the typed reason.
                    let code = if entered_read_only {
                        shared.stats.shed_read_only.fetch_add(1, Ordering::Relaxed);
                        ErrCode::ReadOnly
                    } else {
                        ErrCode::ShuttingDown
                    };
                    WireResponse::Err { code, aux: 0 }
                }
                (Err(rej), _) => {
                    let (code, aux) = reject_to_wire(rej, &shared.stats);
                    WireResponse::Err { code, aux }
                }
            };
            // A dead connection just drops its responses.
            let _ = m.resp.send(WriterMsg {
                frame: ResponseFrame {
                    req_id: m.req_id,
                    resp,
                },
                engine_reply: true,
            });
        }
    }

    // Drain finale: compact journals into checkpoints and checkpoint the
    // final image. Reached only when every connection has flushed. A
    // read-only tier tolerates the final save failing for space — its
    // durable state is exactly the last successful commit, by
    // construction.
    st.fe
        .drain_checkpoint()
        .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
    st.stamp.save_seq += 1;
    let policy = RetryPolicy::default();
    match checkpoint_with_healing(&mut st.shelf, st.fe.system_mut(), st.stamp, &policy) {
        SaveOutcome::Saved { .. } => Ok(()),
        SaveOutcome::ReadOnly(e) if st.read_only => {
            eprintln!("srbsg-server: final save skipped, shelf still out of space: {e}");
            Ok(())
        }
        SaveOutcome::ReadOnly(e) | SaveOutcome::Failed(e) => Err(e.into()),
    }
}

fn writer_loop(mut stream: Stream, rx: mpsc::Receiver<WriterMsg>, inflight: Arc<AtomicU64>) {
    let mut scratch = Vec::with_capacity(128);
    while let Ok(msg) = rx.recv() {
        scratch.clear();
        encode_response(&mut scratch, &msg.frame);
        let res = stream.write_all(&scratch);
        if msg.engine_reply {
            inflight.fetch_sub(1, Ordering::AcqRel);
        }
        if res.is_err() {
            // Keep draining the queue so in-flight counts still settle.
            continue;
        }
    }
}

fn conn_loop(stream: Stream, shared: Arc<Shared>, engine_tx: SyncSender<EngineMsg>) {
    let inflight = Arc::new(AtomicU64::new(0));
    let (wtx, wrx) = mpsc::channel::<WriterMsg>();
    let writer = {
        let ws = match stream.try_clone() {
            Ok(s) => s,
            Err(_) => {
                shared.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
                return;
            }
        };
        let _ = ws.set_write_timeout(Some(Duration::from_secs(5)));
        let infl = inflight.clone();
        thread::spawn(move || writer_loop(ws, wrx, infl))
    };

    let _ = stream.set_read_timeout(Some(Duration::from_millis(50)));
    let mut stream = stream;
    let mut reader = FrameReader::new();
    let mut last_activity = Instant::now();
    let mut frame_start: Option<Instant> = None;

    'conn: loop {
        // Decode everything buffered before reading more.
        loop {
            match reader.next_request() {
                Ok(Some(frame)) => {
                    last_activity = Instant::now();
                    if !dispatch(frame, &shared, &engine_tx, &wtx, &inflight) {
                        break 'conn;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    shared
                        .stats
                        .malformed_frames
                        .fetch_add(1, Ordering::Relaxed);
                    let _ = wtx.send(WriterMsg {
                        frame: ResponseFrame {
                            req_id: 0,
                            resp: WireResponse::Err {
                                code: ErrCode::BadFrame,
                                aux: malformed_aux(e),
                            },
                        },
                        engine_reply: false,
                    });
                    break 'conn;
                }
            }
        }
        frame_start = if reader.mid_frame() {
            Some(frame_start.unwrap_or_else(Instant::now))
        } else {
            None
        };

        match reader.fill_from(&mut stream) {
            Ok(0) => break 'conn,
            Ok(_) => last_activity = Instant::now(),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining.load(Ordering::Acquire) && inflight.load(Ordering::Acquire) == 0
                {
                    break 'conn;
                }
                if let Some(fs) = frame_start {
                    if fs.elapsed() > shared.frame_timeout {
                        // Slow-loris: a frame has been dribbling too long.
                        shared
                            .stats
                            .malformed_frames
                            .fetch_add(1, Ordering::Relaxed);
                        break 'conn;
                    }
                }
                if last_activity.elapsed() > shared.idle_timeout {
                    break 'conn;
                }
            }
            Err(_) => break 'conn,
        }
    }

    // Let in-flight responses flush before closing (bounded wait).
    let flush_deadline = Instant::now() + Duration::from_secs(10);
    while inflight.load(Ordering::Acquire) > 0 && Instant::now() < flush_deadline {
        thread::sleep(Duration::from_millis(1));
    }
    drop(wtx);
    let _ = writer.join();
    stream.shutdown();
    shared.stats.open_conns.fetch_sub(1, Ordering::Relaxed);
}

fn malformed_aux(e: crate::proto::FrameError) -> u64 {
    use crate::proto::FrameError::*;
    match e {
        TooLarge { .. } => 1,
        TooSmall { .. } => 2,
        BadVersion(_) => 3,
        BadOpcode(_) => 4,
        BadCrc => 5,
        Malformed(_) => 6,
    }
}

/// Handle one decoded request on the reader thread; returns `false` when
/// the connection must close.
fn dispatch(
    frame: RequestFrame,
    shared: &Shared,
    engine_tx: &SyncSender<EngineMsg>,
    wtx: &mpsc::Sender<WriterMsg>,
    inflight: &Arc<AtomicU64>,
) -> bool {
    let direct = |resp: WireResponse| {
        wtx.send(WriterMsg {
            frame: ResponseFrame {
                req_id: frame.req_id,
                resp,
            },
            engine_reply: false,
        })
        .is_ok()
    };
    let (la, op) = match frame.req {
        WireRequest::Ping => return direct(WireResponse::Pong),
        WireRequest::Stats => return direct(WireResponse::StatsOk(shared.stats.snapshot())),
        WireRequest::Read { la } => (la, Op::Read),
        WireRequest::Write { la, data } => (la, Op::Write(data)),
    };
    if shared.draining.load(Ordering::Acquire) {
        return direct(WireResponse::Err {
            code: ErrCode::ShuttingDown,
            aux: 0,
        });
    }
    if la >= shared.logical_lines {
        shared.stats.shed_fault.fetch_add(1, Ordering::Relaxed);
        return direct(WireResponse::Err {
            code: ErrCode::AddressOutOfRange,
            aux: la,
        });
    }
    inflight.fetch_add(1, Ordering::AcqRel);
    match engine_tx.try_send(EngineMsg {
        resp: wtx.clone(),
        req_id: frame.req_id,
        la,
        op,
    }) {
        Ok(()) => true,
        Err(TrySendError::Full(_)) => {
            inflight.fetch_sub(1, Ordering::AcqRel);
            shared.stats.shed_overload.fetch_add(1, Ordering::Relaxed);
            direct(WireResponse::Err {
                code: ErrCode::Overloaded,
                aux: 0,
            })
        }
        Err(TrySendError::Disconnected(_)) => {
            inflight.fetch_sub(1, Ordering::AcqRel);
            let _ = direct(WireResponse::Err {
                code: ErrCode::ShuttingDown,
                aux: 0,
            });
            false
        }
    }
}

/// Run the server to completion. Returns once a graceful drain finishes;
/// the process exit code is the returned value (0 on a clean drain).
pub fn run(cfg: ServerConfig) -> std::io::Result<i32> {
    os::install_shutdown_handlers();
    let (fe, shelf, boot_report) = boot(&cfg)?;
    let logical_lines = fe.system().logical_lines();
    let (listener, bound) = cfg.endpoint.listen()?;
    listener.set_nonblocking(true)?;
    std::fs::write(shelf.sidecar("endpoint"), bound.to_string())?;
    std::fs::write(shelf.sidecar("pid"), os::own_pid().to_string())?;
    println!(
        "srbsg-server listening on {bound} pid={} generation={} recovered={} replayed_steps={} rekey_movements={} lines={}",
        os::own_pid(),
        boot_report.generation,
        boot_report.recovered,
        boot_report.replayed_steps,
        boot_report.rekey_movements,
        logical_lines,
    );
    let _ = std::io::stdout().flush();

    let shared = Arc::new(Shared {
        stats: SharedStats::new(boot_report.generation),
        draining: AtomicBool::new(false),
        logical_lines,
        idle_timeout: cfg.idle_timeout,
        frame_timeout: cfg.frame_timeout,
    });
    let (etx, erx) = mpsc::sync_channel::<EngineMsg>(cfg.inflight_max);
    let engine = {
        let st = EngineState {
            fe,
            shelf,
            stamp: CommitStamp {
                save_seq: boot_report.save_seq,
                generation: boot_report.generation,
                seed: cfg.seed,
                acked_writes: boot_report.acked_writes,
            },
            read_only: false,
        };
        let shared = shared.clone();
        let cfg = cfg.clone();
        thread::spawn(move || engine_loop(st, erx, shared, cfg))
    };

    while !os::shutdown_requested() {
        match listener.accept() {
            Ok(stream) => {
                shared.stats.accepted_conns.fetch_add(1, Ordering::Relaxed);
                if shared.stats.open_conns.load(Ordering::Relaxed) >= cfg.max_conns as u64 {
                    shared.stats.shed_overload.fetch_add(1, Ordering::Relaxed);
                    refuse_overloaded(stream);
                    continue;
                }
                shared.stats.open_conns.fetch_add(1, Ordering::Relaxed);
                let shared = shared.clone();
                let etx = etx.clone();
                thread::spawn(move || conn_loop(stream, shared, etx));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }

    // Graceful drain: stop accepting, flip the drain flag, release our
    // engine sender, and wait for the engine's finale.
    shared.draining.store(true, Ordering::Release);
    shared.stats.draining.store(true, Ordering::Relaxed);
    drop(listener);
    drop(etx);
    let res = engine
        .join()
        .map_err(|_| std::io::Error::other("engine thread panicked"))?;
    res?;
    let s = shared.stats.snapshot();
    println!(
        "srbsg-server drained: served_reads={} served_writes={} shed_overload={} malformed_frames={}",
        s.served_reads, s.served_writes, s.shed_overload, s.malformed_frames
    );
    Ok(0)
}

fn refuse_overloaded(stream: Stream) {
    let mut stream = stream;
    let _ = stream.set_write_timeout(Some(Duration::from_millis(500)));
    let mut buf = Vec::with_capacity(64);
    encode_response(
        &mut buf,
        &ResponseFrame {
            req_id: 0,
            resp: WireResponse::Err {
                code: ErrCode::Overloaded,
                aux: 0,
            },
        },
    );
    let _ = stream.write_all(&buf);
    stream.shutdown();
}

#[cfg(test)]
mod tests {
    use super::*;

    fn test_cfg(dir: &str) -> ServerConfig {
        ServerConfig {
            data_dir: std::env::temp_dir().join(dir),
            banks: 2,
            width: 4,
            sub_regions: 2,
            ..ServerConfig::default()
        }
    }

    #[test]
    fn boot_fresh_then_recover_preserves_contents() {
        let cfg = test_cfg(&format!("srbsg_boot_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        let (mut fe, mut shelf, rep) = boot(&cfg).unwrap();
        assert_eq!(rep.generation, 0);
        assert!(!rep.recovered);

        // Write a few lines through the front-end, persist, drop.
        let lines = fe.system().logical_lines();
        let reqs: Vec<Request> = (0..8u64)
            .map(|i| Request {
                la: i % lines,
                op: Op::Write(LineData::Mixed(i as u32 + 1)),
                arrival_ns: 0,
                deadline_ns: Ns::MAX,
            })
            .collect();
        let comps = fe.submit_batch(reqs, 1);
        assert!(comps.iter().all(|c| c.result.is_ok()));
        let stamp = CommitStamp {
            save_seq: 2,
            seed: cfg.seed,
            acked_writes: 8,
            ..CommitStamp::default()
        };
        let policy = RetryPolicy::default();
        let outcome = commit_with_healing(&mut shelf, fe.system_mut(), stamp, &policy);
        assert_eq!(outcome, SaveOutcome::Saved { attempts: 1 }, "a log append");
        let expect: Vec<LineData> = (0..lines)
            .map(|la| fe.system_mut().try_read(la).unwrap().0)
            .collect();
        drop(fe);

        // "Restart": boot from the same directory recovers and re-keys.
        let (mut fe2, _shelf2, rep2) = boot(&cfg).unwrap();
        assert_eq!(rep2.generation, 1);
        assert!(rep2.recovered);
        assert_eq!(rep2.acked_writes, 8);
        let got: Vec<LineData> = (0..lines)
            .map(|la| fe2.system_mut().try_read(la).unwrap().0)
            .collect();
        assert_eq!(got, expect, "logical contents must survive recovery");
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
    }

    #[test]
    fn recovery_rekeys_the_mapping() {
        let cfg = test_cfg(&format!("srbsg_rekey_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        let (mut fe, mut shelf, _) = boot(&cfg).unwrap();
        let stamp = CommitStamp {
            save_seq: 2,
            seed: cfg.seed,
            ..CommitStamp::default()
        };
        let policy = RetryPolicy::default();
        let outcome = checkpoint_with_healing(&mut shelf, fe.system_mut(), stamp, &policy);
        assert!(matches!(outcome, SaveOutcome::Saved { .. }));
        drop(fe);
        let (_fe2, _s, rep) = boot(&cfg).unwrap();
        assert!(rep.recovered);
        // Re-keying physically moves lines into the fresh mapping.
        assert!(rep.rekey_movements > 0, "expected rekey movements");
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
    }
}
