//! The server runtime: accept loop, one thread per connection that runs
//! each request round to completion, durable ack ordering, graceful
//! drain, and `SIGKILL` recovery.
//!
//! # Thread structure
//!
//! ```text
//! accept loop ──spawns──▶ connection thread (one per connection)
//!
//!   read ──▶ decode every buffered frame ──┬──▶ direct reply ─────────────┐
//!                                          ▼                              ▼
//!                            device requests ──▶ engine lock:       reply buffer
//!                                                submit_batch ──▶        │
//!                                                commit ──▶ encode ──────┤
//!                                                                        ▼
//!                                                one socket write, unlocked
//! ```
//!
//! The server runs 1 + open-connections threads. The device engine — the
//! [`FrontEnd`], the disk shelf and the commit stamp — sits behind one
//! `Mutex` in the state every connection shares. A connection thread
//! decodes every frame its last read buffered. Pings, stats and requests
//! refused while draining (`ShuttingDown`) are encoded straight into its
//! reply buffer; device requests, out-of-range ones included, go through
//! the engine `batch_max` at a time, each chunk under the lock. The
//! thread then sends the whole reply buffer with one socket write, after
//! the lock is released, so a peer that stops reading blocks only its own
//! thread. The connection's [`crate::proto::FrameReader`] and reply
//! buffer are the only buffers on the steady-state path — request decode
//! and response encode allocate nothing per request.
//!
//! # Counters
//!
//! Request outcomes are counted once, by the front-end's
//! [`srbsg_serve::ServeStats`], under the engine lock. A stats reply takes
//! the lock and reads that tally, the commit stamp (acknowledged writes,
//! generation) and the writes whose ack a full shelf refused. Only the
//! connection-level counters, which change outside the engine, are
//! atomics.
//!
//! # Durability contract
//!
//! Under the engine lock, every chunk that acknowledged at least one
//! write is committed to the shelf ([`commit_with_healing`]) **before**
//! any of its replies are encoded: one record holding the slots the chunk
//! touched and the descriptors of the remap steps it ran, appended to both
//! copies of the shelf's delta log behind a doubled barrier. When the log
//! has grown to the size of the device image, the commit writes a full
//! checkpoint instead (dual-slot atomic rename) and empties the log.
//! `WriteOk` on the wire therefore implies the write is recoverable, which
//! is exactly the invariant the chaos harness audits across `SIGKILL`.
//!
//! # Drain state machine
//!
//! `SIGTERM`/`SIGINT` → the accept loop stops accepting and sets the
//! drain flag → connection threads answer new device requests with
//! [`ErrCode::ShuttingDown`] and close at their next read timeout (a
//! round already decoded runs to completion first) → once no connection
//! is open, the accept thread takes the engine lock, runs
//! [`FrontEnd::drain_checkpoint`], checkpoints the shelf a final time,
//! and the process exits 0.

use std::io::Write;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard};
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
    /// Largest request chunk a connection submits under one engine
    /// lock (and one commit).
    pub batch_max: usize,
    /// Bound on concurrent connections (then: typed overload + close).
    pub max_conns: usize,
    /// Close a connection idle this long between frames.
    pub idle_timeout: Duration,
    /// Close a connection that dribbles a single frame this long
    /// (slow-loris defense).
    pub frame_timeout: Duration,
    /// Remap steps between checkpoints of each bank's in-memory journal.
    /// The shelf logs steps as descriptors, not journal bytes, so this
    /// bounds only that journal's memory and the store a shelf checkpoint
    /// carries.
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
            batch_max: srbsg_workloads::env::usize_knob_or("SRBSG_SERVER_BATCH", 1, 64),
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
    /// Remap steps replayed across banks: the shelf log's step
    /// descriptors, then the steps of the checkpoint stores' journals.
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

/// The connection-level counters: the ones that change outside the
/// engine lock.
#[derive(Default)]
struct SharedStats {
    accepted_conns: AtomicU64,
    open_conns: AtomicU64,
    shed_overload: AtomicU64,
    malformed_frames: AtomicU64,
    draining: AtomicBool,
}

/// The state every connection thread shares: connection counters (the
/// drain flag among them), the request policy, and the device engine
/// behind its lock.
struct Shared {
    stats: SharedStats,
    idle_timeout: Duration,
    frame_timeout: Duration,
    batch_max: usize,
    deadline_ns: Option<u64>,
    engine: Mutex<Engine>,
}

impl Shared {
    /// Shared state for a booted device; the engine's next commit takes
    /// the `save_seq` after the boot's.
    fn new(
        cfg: &ServerConfig,
        fe: FrontEnd<ServerScheme>,
        shelf: DiskShelf,
        boot: &BootReport,
    ) -> Self {
        Self {
            stats: SharedStats::default(),
            idle_timeout: cfg.idle_timeout,
            frame_timeout: cfg.frame_timeout,
            batch_max: cfg.batch_max.max(1),
            deadline_ns: cfg.deadline_ns,
            engine: Mutex::new(Engine {
                fe,
                shelf,
                stamp: CommitStamp {
                    save_seq: boot.save_seq,
                    generation: boot.generation,
                    seed: cfg.seed,
                    acked_writes: boot.acked_writes,
                },
                boot_acked_writes: boot.acked_writes,
                refused_read_only: 0,
            }),
        }
    }

    fn draining(&self) -> bool {
        self.stats.draining.load(Ordering::Acquire)
    }

    /// The engine, or an error once a thread has panicked holding it.
    fn engine(&self) -> std::io::Result<MutexGuard<'_, Engine>> {
        self.engine
            .lock()
            .map_err(|_| std::io::Error::other("a connection thread panicked holding the engine"))
    }
}

/// A decoded device request waiting for its round's turn at the engine.
struct Pending {
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
            report.replayed_steps += scrub.replayed_steps;
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
/// generation: restore every bank, replay its journal, re-key its Security
/// RBSG mapping from a fresh per-generation seed, and advance the device
/// clock to the image's. The bank is volatile and the shelf its durable
/// copy, so the re-key burst runs straight onto the bank without
/// journaling, and each bank's store ends as one snapshot of the re-keyed
/// scheme. The returned report carries the new generation, the recovery
/// counts and the `save_seq` the next commit takes; the caller fills in
/// what the load scrub found. This is the one place the re-key seed is
/// derived.
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
        let (jw, rec) = Journaled::<SecurityRbsg>::recover_rekeyed_unjournaled(
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

fn reject_to_wire(rej: &Rejected) -> (ErrCode, u64) {
    match rej {
        Rejected::QueueFull { bank, .. } => (ErrCode::QueueFull, *bank as u64),
        Rejected::DeadlineExceeded { bank, .. } => (ErrCode::DeadlineExceeded, *bank as u64),
        Rejected::BankQuarantined { bank } => (ErrCode::BankQuarantined, *bank as u64),
        Rejected::RetriesExhausted { attempts, .. } => {
            (ErrCode::RetriesExhausted, *attempts as u64)
        }
        Rejected::ReadOnly => (ErrCode::ReadOnly, 0),
        Rejected::Fault(PcmError::AddressOutOfRange { la, .. }) => {
            (ErrCode::AddressOutOfRange, *la)
        }
        Rejected::Fault(_) => (ErrCode::DeviceFault, 0),
    }
}

fn clamp_ns(ns: Ns) -> u64 {
    ns.min(u64::MAX as Ns) as u64
}

/// The device engine: the front-end, its shelf and the commit stamp.
/// A connection thread holds it for one chunk of requests — submit,
/// commit, encode — and never across a socket read or write.
struct Engine {
    fe: FrontEnd<ServerScheme>,
    shelf: DiskShelf,
    stamp: CommitStamp,
    /// `stamp.acked_writes` at boot: the acks of earlier generations.
    boot_acked_writes: u64,
    /// Writes the device applied whose ack a full shelf refused.
    refused_read_only: u64,
}

impl Engine {
    /// Run one chunk of device requests to completion: submit it, commit
    /// its acknowledged writes, and only then encode its replies, in
    /// request order, into `out`.
    fn run_chunk(&mut self, chunk: &[Pending], deadline_ns: Option<u64>, out: &mut Vec<u8>) {
        let arrival = self.fe.system().now_ns();
        let deadline = deadline_ns.map(|d| arrival + d as Ns).unwrap_or(Ns::MAX);
        let batch: Vec<Request> = chunk
            .iter()
            .map(|p| Request {
                la: p.la,
                op: p.op,
                arrival_ns: arrival,
                deadline_ns: deadline,
            })
            .collect();
        // One worker: the chunk already runs under the one engine lock.
        let completions = self.fe.submit_batch(batch, 1);
        debug_assert_eq!(completions.len(), chunk.len());

        let new_acks = completions
            .iter()
            .zip(chunk)
            .filter(|(c, p)| c.result.is_ok() && matches!(p.op, Op::Write(_)))
            .count() as u64;
        // Acks must not outrun durability: the chunk is committed before
        // any of its replies exist.
        let refused = if new_acks > 0 {
            self.commit(new_acks)
        } else {
            None
        };

        for (c, p) in completions.iter().zip(chunk) {
            let is_write = matches!(p.op, Op::Write(_));
            let resp = match (&c.result, refused.filter(|_| is_write)) {
                (Ok(s), None) if is_write => WireResponse::WriteOk {
                    retries: s.retries,
                    latency_ns: clamp_ns(s.latency_ns),
                },
                (Ok(s), None) => WireResponse::ReadOk {
                    data: s.data.unwrap_or(LineData::Zeros),
                    latency_ns: clamp_ns(s.latency_ns),
                },
                // The device applied this write but durability failed:
                // the ack is refused with the typed reason.
                (Ok(_), Some(code)) => WireResponse::Err { code, aux: 0 },
                (Err(rej), _) => {
                    let (code, aux) = reject_to_wire(rej);
                    WireResponse::Err { code, aux }
                }
            };
            encode_response(
                out,
                &ResponseFrame {
                    req_id: p.req_id,
                    resp,
                },
            );
        }
    }

    /// Commit `new_acks` acknowledged writes with self-healing: a failed
    /// append falls back to a checkpoint and transient media errors are
    /// retried away. When durability fails, returns the code that refuses
    /// the acks: `ReadOnly` after persistent ENOSPC (the tier degrades to
    /// typed read-only shedding), `ShuttingDown` after anything else (the
    /// server drains).
    fn commit(&mut self, new_acks: u64) -> Option<ErrCode> {
        let committed = self.stamp;
        self.stamp.acked_writes += new_acks;
        self.stamp.save_seq += 1;
        let policy = RetryPolicy::default();
        match commit_with_healing(&mut self.shelf, self.fe.system_mut(), self.stamp, &policy) {
            SaveOutcome::Saved { attempts } => {
                if attempts > 1 {
                    eprintln!(
                        "srbsg-server: shelf commit healed after {attempts} attempts (media errors)"
                    );
                }
                None
            }
            SaveOutcome::ReadOnly(e) => {
                eprintln!("srbsg-server: shelf out of space ({e}); degrading to read-only serving");
                self.stamp = committed;
                self.refused_read_only += new_acks;
                self.fe.set_read_only(true);
                Some(ErrCode::ReadOnly)
            }
            SaveOutcome::Failed(e) => {
                eprintln!("srbsg-server: shelf commit failed, draining: {e}");
                self.stamp = committed;
                os::request_shutdown();
                Some(ErrCode::ShuttingDown)
            }
        }
    }

    /// Drain finale: compact journals into checkpoints and checkpoint the
    /// final image. Runs once no connection is open. A read-only tier
    /// tolerates the final save failing for space — its durable state is
    /// exactly the last successful commit, by construction.
    fn finish(&mut self) -> std::io::Result<()> {
        self.fe
            .drain_checkpoint()
            .map_err(|e| std::io::Error::other(format!("{e:?}")))?;
        self.stamp.save_seq += 1;
        let policy = RetryPolicy::default();
        match checkpoint_with_healing(&mut self.shelf, self.fe.system_mut(), self.stamp, &policy) {
            SaveOutcome::Saved { .. } => Ok(()),
            SaveOutcome::ReadOnly(e) if self.fe.read_only() => {
                eprintln!("srbsg-server: final save skipped, shelf still out of space: {e}");
                Ok(())
            }
            SaveOutcome::ReadOnly(e) | SaveOutcome::Failed(e) => Err(e.into()),
        }
    }

    /// The stats reply: request outcomes from the front-end's tally, acks
    /// and generation from the commit stamp, and the connection counters
    /// from `conns`. A write whose ack was refused never counts as served.
    fn stats(&self, conns: &SharedStats) -> StatsWire {
        let s = self.fe.stats();
        let g = |a: &AtomicU64| a.load(Ordering::Relaxed);
        StatsWire {
            generation: self.stamp.generation,
            accepted_conns: g(&conns.accepted_conns),
            open_conns: g(&conns.open_conns),
            served_reads: s.served_reads,
            served_writes: self.stamp.acked_writes - self.boot_acked_writes,
            retries: s.retries,
            shed_queue_full: s.rejected_queue_full,
            shed_deadline: s.rejected_deadline,
            shed_quarantine: s.rejected_quarantine,
            shed_retries: s.rejected_retries,
            shed_fault: s.rejected_fault,
            shed_overload: g(&conns.shed_overload),
            shed_read_only: s.rejected_read_only + self.refused_read_only,
            malformed_frames: g(&conns.malformed_frames),
            draining: conns.draining.load(Ordering::Relaxed) as u64,
        }
    }
}

/// Triage one decoded request: a reply that needs no device is encoded
/// into `replies` at once; a device request joins `pending`. Fails only
/// when a stats request finds the engine poisoned.
fn triage(
    frame: RequestFrame,
    shared: &Shared,
    pending: &mut Vec<Pending>,
    replies: &mut Vec<u8>,
) -> std::io::Result<()> {
    let mut direct = |resp| {
        encode_response(
            replies,
            &ResponseFrame {
                req_id: frame.req_id,
                resp,
            },
        );
        Ok(())
    };
    let (la, op) = match frame.req {
        WireRequest::Ping => return direct(WireResponse::Pong),
        WireRequest::Stats => {
            let stats = shared.engine()?.stats(&shared.stats);
            return direct(WireResponse::StatsOk(stats));
        }
        WireRequest::Read { la } => (la, Op::Read),
        WireRequest::Write { la, data } => (la, Op::Write(data)),
    };
    if shared.draining() {
        return direct(WireResponse::Err {
            code: ErrCode::ShuttingDown,
            aux: 0,
        });
    }
    pending.push(Pending {
        req_id: frame.req_id,
        la,
        op,
    });
    Ok(())
}

/// Finish a connection's round: run its device requests through the
/// engine `batch_max` at a time, one lock per chunk, appending their
/// replies behind the direct replies already in `replies`; then send the
/// whole buffer with one write, after the lock is released. Both buffers
/// come back empty.
fn finish_round(
    out: &mut impl Write,
    shared: &Shared,
    pending: &mut Vec<Pending>,
    replies: &mut Vec<u8>,
) -> std::io::Result<()> {
    for chunk in pending.chunks(shared.batch_max) {
        shared
            .engine()?
            .run_chunk(chunk, shared.deadline_ns, replies);
    }
    pending.clear();
    let sent = out.write_all(replies);
    replies.clear();
    sent
}

/// How often a quiet connection wakes to check the drain flag and its
/// idle and mid-frame deadlines.
const READ_POLL: Duration = Duration::from_millis(50);

/// How long the accept loop blocks waiting for a connection before it
/// re-checks the shutdown flag.
const ACCEPT_POLL: Duration = Duration::from_millis(50);

/// How long one reply write may wait on a peer that stopped reading
/// before its connection is dropped.
const WRITE_TIMEOUT: Duration = Duration::from_secs(5);

fn conn_loop(mut stream: Stream, shared: &Shared) {
    let _ = stream.set_read_timeout(Some(READ_POLL));
    let _ = stream.set_write_timeout(Some(WRITE_TIMEOUT));
    let mut reader = FrameReader::new();
    let mut pending = Vec::new();
    let mut replies = Vec::with_capacity(4096);
    let mut last_activity = Instant::now();
    let mut frame_start: Option<Instant> = None;

    loop {
        // Decode everything buffered, then run the round and answer it.
        // A bad frame or a poisoned engine closes the connection once the
        // replies decoded so far are sent.
        let mut close = false;
        loop {
            match reader.next_request() {
                Ok(Some(frame)) => {
                    if triage(frame, shared, &mut pending, &mut replies).is_err() {
                        close = true;
                        break;
                    }
                }
                Ok(None) => break,
                Err(e) => {
                    shared
                        .stats
                        .malformed_frames
                        .fetch_add(1, Ordering::Relaxed);
                    encode_response(
                        &mut replies,
                        &ResponseFrame {
                            req_id: 0,
                            resp: WireResponse::Err {
                                code: ErrCode::BadFrame,
                                aux: malformed_aux(e),
                            },
                        },
                    );
                    close = true;
                    break;
                }
            }
        }
        if finish_round(&mut stream, shared, &mut pending, &mut replies).is_err() || close {
            break;
        }
        frame_start = if reader.mid_frame() {
            Some(frame_start.unwrap_or_else(Instant::now))
        } else {
            None
        };

        match reader.fill_from(&mut stream) {
            Ok(0) => break,
            Ok(_) => last_activity = Instant::now(),
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                if shared.draining() {
                    break;
                }
                if let Some(fs) = frame_start {
                    if fs.elapsed() > shared.frame_timeout {
                        // Slow-loris: a frame has been dribbling too long.
                        shared
                            .stats
                            .malformed_frames
                            .fetch_add(1, Ordering::Relaxed);
                        break;
                    }
                }
                if last_activity.elapsed() > shared.idle_timeout {
                    break;
                }
            }
            Err(_) => break,
        }
    }
    stream.shutdown();
}

/// Counts one connection open for as long as its thread runs, unwinding
/// included, so the drain's wait for `open_conns == 0` always ends.
struct OpenConn(Arc<Shared>);

impl Drop for OpenConn {
    fn drop(&mut self) {
        self.0.stats.open_conns.fetch_sub(1, Ordering::AcqRel);
    }
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

/// Run the server to completion. Returns once a graceful drain finishes;
/// the process exit code is the returned value (0 on a clean drain).
pub fn run(cfg: ServerConfig) -> std::io::Result<i32> {
    os::install_shutdown_handlers();
    let (fe, shelf, boot_report) = boot(&cfg)?;
    let (listener, bound) = cfg.endpoint.listen()?;
    listener.set_nonblocking(true)?;
    std::fs::write(shelf.sidecar("endpoint"), bound.to_string())?;
    std::fs::write(shelf.sidecar("pid"), os::own_pid().to_string())?;
    let lines = fe.system().logical_lines();
    let shared = Arc::new(Shared::new(&cfg, fe, shelf, &boot_report));
    println!(
        "srbsg-server listening on {bound} pid={} generation={} recovered={} replayed_steps={} rekey_movements={} lines={}",
        os::own_pid(),
        boot_report.generation,
        boot_report.recovered,
        boot_report.replayed_steps,
        boot_report.rekey_movements,
        lines,
    );
    let _ = std::io::stdout().flush();

    while !os::shutdown_requested() {
        match listener.accept() {
            Ok(stream) => {
                shared.stats.accepted_conns.fetch_add(1, Ordering::Relaxed);
                if shared.stats.open_conns.load(Ordering::Acquire) >= cfg.max_conns as u64 {
                    shared.stats.shed_overload.fetch_add(1, Ordering::Relaxed);
                    refuse_overloaded(stream);
                    continue;
                }
                shared.stats.open_conns.fetch_add(1, Ordering::AcqRel);
                let conn = OpenConn(shared.clone());
                thread::spawn(move || conn_loop(stream, &conn.0));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                if listener.wait_acceptable(ACCEPT_POLL).is_err() {
                    thread::sleep(Duration::from_millis(5));
                }
            }
            Err(_) => thread::sleep(Duration::from_millis(5)),
        }
    }

    // Graceful drain: stop accepting and flip the drain flag; every
    // connection closes at its next read timeout, and the engine's
    // finale then runs on this thread.
    shared.stats.draining.store(true, Ordering::Release);
    drop(listener);
    while shared.stats.open_conns.load(Ordering::Acquire) > 0 {
        thread::sleep(Duration::from_millis(5));
    }
    let s = {
        let mut engine = shared.engine()?;
        engine.finish()?;
        engine.stats(&shared.stats)
    };
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
    use srbsg_persist::{FaultKind, FaultPlan, FaultyMedia, MemMedia};

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

    /// A socket stand-in that records every write call, or fails every
    /// one like a socket whose peer has gone.
    #[derive(Default)]
    struct Recorder {
        writes: Vec<Vec<u8>>,
        fail: bool,
    }

    impl std::io::Write for Recorder {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            if self.fail {
                return Err(std::io::ErrorKind::BrokenPipe.into());
            }
            self.writes.push(buf.to_vec());
            Ok(buf.len())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A booted engine on a fresh directory, shared as a server shares it.
    fn booted(dir: &str, batch_max: usize) -> (Shared, PathBuf) {
        let cfg = ServerConfig {
            batch_max,
            ..test_cfg(&format!("{dir}_{}", std::process::id()))
        };
        let _ = std::fs::remove_dir_all(&cfg.data_dir);
        let (fe, shelf, rep) = boot(&cfg).unwrap();
        (Shared::new(&cfg, fe, shelf, &rep), cfg.data_dir)
    }

    /// `n` writes to lines `0..n`, tagged `id + 1`, with request ids `0..n`.
    fn writes(n: u64) -> Vec<Pending> {
        (0..n)
            .map(|id| Pending {
                req_id: id,
                la: id,
                op: Op::Write(LineData::Mixed(id as u32 + 1)),
            })
            .collect()
    }

    fn save_seq(shared: &Shared) -> u64 {
        shared.engine().unwrap().stamp.save_seq
    }

    /// Decode every frame of one write.
    fn frames(bytes: &[u8]) -> Vec<ResponseFrame> {
        let mut r = FrameReader::new();
        r.extend(bytes);
        let mut frames = Vec::new();
        while let Some(f) = r.next_response().unwrap() {
            frames.push(f);
        }
        assert!(!r.mid_frame(), "a write holds whole frames only");
        frames
    }

    /// Decode every frame of one write, checking each is a `WriteOk`;
    /// returns the request ids in wire order.
    fn acked_ids(bytes: &[u8]) -> Vec<u64> {
        frames(bytes)
            .into_iter()
            .map(|f| {
                assert!(matches!(f.resp, WireResponse::WriteOk { .. }), "{f:?}");
                f.req_id
            })
            .collect()
    }

    #[cfg(target_os = "linux")]
    #[test]
    fn a_signal_caught_while_parked_in_recv_keeps_the_connection() {
        use crate::proto::encode_request;
        use std::io::Read;
        use std::os::unix::net::UnixStream;
        use std::sync::atomic::AtomicUsize;

        extern "C" {
            fn signal(signum: i32, handler: usize) -> usize;
            fn pthread_self() -> usize;
            fn pthread_kill(thread: usize, sig: i32) -> i32;
        }
        extern "C" fn ignore(_sig: i32) {}
        const SIGUSR1: i32 = 10;
        // SAFETY: installs a handler that does nothing.
        unsafe { signal(SIGUSR1, ignore as extern "C" fn(i32) as *const () as usize) };

        let (shared, dir) = booted("srbsg_eintr", 64);
        let (mut client, server) = UnixStream::pair().unwrap();
        let conn_thread = AtomicUsize::new(0);
        let closed = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                // SAFETY: reads this thread's own id.
                conn_thread.store(unsafe { pthread_self() }, Ordering::Release);
                conn_loop(Stream::Unix(server), &shared);
                closed.store(true, Ordering::Release);
            });
            // Interrupt the connection thread while it waits in `recv`,
            // with nothing sent yet: each signal lands in a read that is
            // mostly parked, under its 50 ms read timeout.
            for _ in 0..10 {
                thread::sleep(Duration::from_millis(15));
                let tid = conn_thread.load(Ordering::Acquire);
                if tid != 0 && !closed.load(Ordering::Acquire) {
                    // SAFETY: the scoped thread is not joined yet, so its
                    // id stays valid.
                    unsafe { pthread_kill(tid, SIGUSR1) };
                }
            }
            let mut req = Vec::new();
            encode_request(
                &mut req,
                &RequestFrame {
                    req_id: 7,
                    req: WireRequest::Write {
                        la: 3,
                        data: LineData::Mixed(9),
                    },
                },
            );
            client.write_all(&req).unwrap();
            client
                .set_read_timeout(Some(Duration::from_secs(5)))
                .unwrap();
            let mut reader = FrameReader::new();
            let mut buf = [0u8; 256];
            let reply = loop {
                if let Some(f) = reader.next_response().unwrap() {
                    break f;
                }
                let n = client.read(&mut buf).unwrap();
                assert!(n > 0, "the connection closed before its reply");
                reader.extend(&buf[..n]);
            };
            assert_eq!(reply.req_id, 7);
            assert!(
                matches!(reply.resp, WireResponse::WriteOk { .. }),
                "{reply:?}"
            );
            drop(client);
        });
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_buffered_round_of_8_is_one_write_in_order() {
        let (shared, dir) = booted("srbsg_round8", 64);
        let before = save_seq(&shared);
        let mut out = Recorder::default();
        let (mut pending, mut replies) = (writes(8), Vec::new());
        finish_round(&mut out, &shared, &mut pending, &mut replies).unwrap();
        assert_eq!(out.writes.len(), 1, "8 replies, one write");
        assert_eq!(acked_ids(&out.writes[0]), (0..8).collect::<Vec<_>>());
        assert_eq!(save_seq(&shared), before + 1, "one chunk, one commit");
        assert!(pending.is_empty() && replies.is_empty());
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_round_over_batch_max_commits_once_per_chunk() {
        for (n, batch_max) in [(10u64, 4usize), (12, 4), (13, 1)] {
            let (shared, dir) = booted("srbsg_chunks", batch_max);
            let before = save_seq(&shared);
            let mut out = Recorder::default();
            let (mut pending, mut replies) = (writes(n), Vec::new());
            finish_round(&mut out, &shared, &mut pending, &mut replies).unwrap();
            let chunks = n.div_ceil(batch_max as u64);
            assert_eq!(
                save_seq(&shared) - before,
                chunks,
                "n={n} batch_max={batch_max}"
            );
            assert_eq!(out.writes.len(), 1, "still one write for the round");
            assert_eq!(acked_ids(&out.writes[0]), (0..n).collect::<Vec<_>>());
            let _ = std::fs::remove_dir_all(dir);
        }
    }

    #[test]
    fn a_failed_reply_write_fails_the_round_after_its_commit() {
        let (shared, dir) = booted("srbsg_deadpeer", 64);
        let before = save_seq(&shared);
        let mut out = Recorder {
            fail: true,
            ..Recorder::default()
        };
        let (mut pending, mut replies) = (writes(8), Vec::new());
        let err = finish_round(&mut out, &shared, &mut pending, &mut replies).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::BrokenPipe);
        // The writes are durable although their acks never left, and
        // both buffers come back empty.
        assert_eq!(save_seq(&shared), before + 1);
        assert!(pending.is_empty() && replies.is_empty());
        // The engine is not held: the next round on it runs.
        let mut ok = Recorder::default();
        let mut pending = writes(2);
        finish_round(&mut ok, &shared, &mut pending, &mut replies).unwrap();
        assert_eq!(acked_ids(&ok.writes[0]), vec![0, 1]);
        let _ = std::fs::remove_dir_all(dir);
    }

    #[test]
    fn a_commit_refused_for_space_sheds_its_writes_once_and_serves_none() {
        let (shared, dir) = booted("srbsg_enospc", 64);
        let stats = || shared.engine().unwrap().stats(&shared.stats);
        let run = |chunk: &[Pending]| {
            let mut out = Vec::new();
            shared.engine().unwrap().run_chunk(chunk, None, &mut out);
            frames(&out)
        };
        let healthy = run(&writes(4));
        assert!(healthy
            .iter()
            .all(|f| matches!(f.resp, WireResponse::WriteOk { .. })));
        let before = stats();
        assert_eq!((before.served_writes, before.shed_read_only), (4, 0));

        // The shelf fills up: the next chunk's commit hits ENOSPC.
        let mut full = FaultyMedia::new(MemMedia::new());
        full.set_plan(FaultPlan::new(FaultKind::NoSpace, 1));
        shared.engine().unwrap().shelf = DiskShelf::with_media(Box::new(full));
        let mut chunk = writes(3);
        chunk.push(Pending {
            req_id: 3,
            la: 5,
            op: Op::Read,
        });
        let replies = run(&chunk);
        for f in &replies[..3] {
            assert!(
                matches!(
                    f.resp,
                    WireResponse::Err {
                        code: ErrCode::ReadOnly,
                        aux: 0
                    }
                ),
                "{f:?}"
            );
        }
        assert!(matches!(replies[3].resp, WireResponse::ReadOk { .. }));
        let refused = stats();
        assert_eq!(
            refused.served_writes, before.served_writes,
            "no ack went out"
        );
        assert_eq!(refused.shed_read_only, 3, "the chunk's writes, each once");
        assert_eq!(refused.served_reads, before.served_reads + 1);
        assert!(shared.engine().unwrap().fe.read_only());

        // A later write is shed at admission, and counted once.
        let later = run(&writes(1));
        assert!(matches!(
            later[0].resp,
            WireResponse::Err {
                code: ErrCode::ReadOnly,
                ..
            }
        ));
        let after = stats();
        assert_eq!(after.served_writes, before.served_writes);
        assert_eq!(after.shed_read_only, 4);
        let _ = std::fs::remove_dir_all(dir);
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
