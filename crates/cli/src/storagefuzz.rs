//! `experiments storagefuzz` — seeded storage-fault fuzzing of the
//! persistence stack under load.
//!
//! Every iteration replays a random read/write stream through the batched
//! serving front-end over three journaled Security RBSG banks, running the
//! server engine's durable-before-ack contract — the same
//! [`commit_with_healing`] per batch, log record or checkpoint — against a
//! [`DiskShelf`] on deterministic fault-injecting media ([`FaultyMedia`]
//! over [`MemMedia`]). Iterations cycle through the whole fault matrix —
//! on checkpoint writes: short write, transient EIO (healed by retry or
//! escalated to crash-restart), persistent ENOSPC (typed read-only
//! degradation), a lying fsync (materialized at the next power cut), a
//! failed commit rename, and at-rest bit rot in a checkpoint copy; on log
//! appends: a short append (torn tail), transient EIO, ENOSPC, a lying
//! fsync right after an append, and bit rot in a log copy — plus a
//! fault-free control that must match the never-faulted reference bit for
//! bit. Scheduled power cuts restart the stack through shelf load
//! (healing a rotten checkpoint copy, reading a rotten log record from
//! its twin, ignoring torn tails) and the server's own [`restore`]
//! (re-keyed journal recovery), resubmitting the writes of any commit
//! that failed.
//!
//! Writes and appends share one fault count, so each iteration first
//! runs its stream fault-free (a dry pass) to list the operations the
//! shelf issues, then aims its lane's fault at one of that lane's
//! operations: every armed plan fires.
//!
//! Invariants, on every iteration:
//!
//! * **no lost acknowledgments** — a write acked only after its shelf
//!   commit reads back intact at the end, across every injected fault and
//!   cut;
//! * **equivalence** — unless the iteration degraded to read-only, the
//!   recovered-then-continued system ends byte-identical to a reference
//!   run that never faulted;
//! * **typed degradation** — persistent ENOSPC sheds writes as
//!   [`Rejected::ReadOnly`] while reads keep serving; nothing panics and
//!   nothing is acked un-saved.
//!
//! Iterations are independent and seeded from the iteration index alone,
//! so the table and `results/storagefuzz.csv` are byte-identical for any
//! `--jobs N`. The iteration count is printed for the CI gate log.

use crate::chaos::{fuzz_front_end, fuzz_trace, serve_cfg, FUZZ_BANKS};
use crate::table::Table;
use crate::Opts;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use srbsg_pcm::LineData;
use srbsg_persist::{
    CheckpointPolicy, FaultKind, FaultPlan, FaultyMedia, Media, MediaError, MediaOp, MemMedia,
    SharedMedia,
};
use srbsg_serve::{FrontEnd, Op, Rejected, Request};
use srbsg_server::{
    checkpoint_with_healing, commit_with_healing, restore, AckLedger, CommitStamp, DiskShelf,
    RetryPolicy, SaveOutcome, ServerScheme, SHELF_LOGS, SHELF_SLOTS,
};
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};

/// Seed base of the fuzz banks.
const SEED_BASE: u64 = 0x0057_012A_6E00;

/// Which operations a lane's fault lands on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Target {
    /// Checkpoint temporaries (media writes).
    Write,
    /// Log records (media appends).
    Append,
    /// Barriers that follow a checkpoint write, rename or log removal.
    Sync,
    /// Barriers that follow a log append.
    AppendSync,
    /// Checkpoint renames.
    Rename,
    /// The first power cut (rot), or nothing (the control lane).
    FirstCut,
}

/// One lane of the fault matrix: a fault kind (`None` is the fault-free
/// control), the operations it lands on, and for bit rot the files it
/// may hit.
#[derive(Debug, Clone, Copy)]
struct Mode {
    kind: Option<FaultKind>,
    name: &'static str,
    target: Target,
    rot_files: &'static [&'static str],
}

const fn mode(kind: FaultKind, name: &'static str, target: Target) -> Mode {
    Mode {
        kind: Some(kind),
        name,
        target,
        rot_files: &[],
    }
}

const fn rot(name: &'static str, files: &'static [&'static str]) -> Mode {
    Mode {
        kind: Some(FaultKind::BitRot),
        name,
        target: Target::FirstCut,
        rot_files: files,
    }
}

/// The fault matrix, cycled by iteration index so every lane gets equal
/// coverage. Writes and appends share the write faults' `at_op` count,
/// so the checkpoint-write and log-append lanes differ only in where
/// they aim.
const MODES: [Mode; 12] = [
    Mode {
        kind: None,
        name: "none",
        target: Target::FirstCut,
        rot_files: &[],
    },
    mode(FaultKind::ShortWrite, "short_write", Target::Write),
    mode(FaultKind::TransientIo, "transient_eio", Target::Write),
    mode(FaultKind::NoSpace, "enospc", Target::Write),
    mode(FaultKind::SyncLie, "sync_lie", Target::Sync),
    mode(FaultKind::RenameFail, "rename_fail", Target::Rename),
    rot("bit_rot", &SHELF_SLOTS),
    mode(FaultKind::ShortWrite, "short_append", Target::Append),
    mode(FaultKind::TransientIo, "append_eio", Target::Append),
    mode(FaultKind::NoSpace, "append_enospc", Target::Append),
    mode(FaultKind::SyncLie, "append_sync_lie", Target::AppendSync),
    rot("log_rot", &SHELF_LOGS),
];

/// A pass-through medium that notes, in order, every mutation and
/// barrier the shelf issues.
#[derive(Debug)]
struct Recorder<M> {
    inner: M,
    ops: Arc<Mutex<Vec<MediaOp>>>,
}

impl<M: Media> Recorder<M> {
    fn note(&self, op: MediaOp) {
        self.ops.lock().expect("recorder lock").push(op);
    }
}

impl<M: Media> Media for Recorder<M> {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
        self.inner.read(name)
    }
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.note(MediaOp::Write);
        self.inner.write(name, bytes)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.note(MediaOp::Append);
        self.inner.append(name, bytes)
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
        self.note(MediaOp::Rename);
        self.inner.rename(from, to)
    }
    fn remove(&mut self, name: &str) -> Result<(), MediaError> {
        self.note(MediaOp::Remove);
        self.inner.remove(name)
    }
    fn list(&mut self) -> Result<Vec<String>, MediaError> {
        self.inner.list()
    }
    fn sync(&mut self) -> Result<(), MediaError> {
        self.note(MediaOp::Sync);
        self.inner.sync()
    }
}

/// The `at_op` values, as [`FaultyMedia`] counts them from its creation,
/// of the operations in `ops[from..]` that `target` names.
fn positions(ops: &[MediaOp], from: usize, target: Target) -> Vec<u64> {
    let (mut writes, mut syncs, mut renames) = (0u64, 0u64, 0u64);
    let mut last = MediaOp::Write;
    let mut out = Vec::new();
    for (i, &op) in ops.iter().enumerate() {
        let (at, hit) = match op {
            MediaOp::Write | MediaOp::Append => {
                writes += 1;
                let want = if op == MediaOp::Write {
                    Target::Write
                } else {
                    Target::Append
                };
                (writes, target == want)
            }
            MediaOp::Sync => {
                syncs += 1;
                let after_append = last == MediaOp::Append;
                let want = if after_append {
                    Target::AppendSync
                } else {
                    Target::Sync
                };
                (syncs, target == want)
            }
            MediaOp::Rename => {
                renames += 1;
                (renames, target == Target::Rename)
            }
            _ => (0, false),
        };
        if hit && i >= from {
            out.push(at);
        }
        if op != MediaOp::Sync {
            last = op;
        }
    }
    out
}

/// What one fuzz iteration drew and measured. Contract violations panic
/// the iteration (and `par_map` propagates the panic).
#[derive(Debug, Clone)]
struct FuzzOut {
    mode: Mode,
    at_op: u64,
    burst: u64,
    /// Whether the armed plan actually fired (a lane whose operations
    /// the dry pass never saw cannot — still a valid iteration, the
    /// invariants just hold trivially).
    fired: bool,
    saves: u64,
    acked: u64,
    /// Writes of failed commits reissued after a crash-restart.
    resubmitted: u64,
    lost_acked: u64,
    /// Attempts beyond the first that a healed commit used: transient
    /// retries, and failed appends the fallback checkpoint recovered.
    retried: u64,
    /// Crash-restarts taken (failed commit or scheduled power cut).
    restarts: u64,
    /// Checkpoint copies healed by the load scrub (bit rot / torn slot).
    healed_slots: u64,
    /// Log copies with a rotten record the load scrub read from the twin.
    healed_logs: u64,
    read_only: bool,
    shed_read_only: u64,
    reads_after_read_only: u64,
    equivalent: bool,
}

/// What [`cut_and_recover`] produced: the rebuilt front-end, the committed
/// counters, and what the recovery had to do along the way.
struct Recovered {
    fe: FrontEnd<ServerScheme>,
    save_seq: u64,
    generation: u64,
    restarts: u64,
    healed_slots: u64,
    healed_logs: u64,
    retried: u64,
    /// The new-generation commit itself hit persistent ENOSPC; the
    /// recovered device serves, but in read-only degradation.
    read_only: bool,
    saves: u64,
}

/// Power-cut the medium, load the shelf, [`restore`] the front-end from
/// it, and commit the new-generation image — repeating the whole cycle
/// if the commit itself is the save the armed fault kills (the
/// single-fault model guarantees the loop terminates).
fn cut_and_recover(
    handle: &SharedMedia<FaultyMedia<MemMedia>>,
    shelf: &mut DiskShelf,
    policy: CheckpointPolicy,
    dev_seed: u64,
    acked: u64,
    retry: &RetryPolicy,
) -> Recovered {
    let mut restarts = 0u64;
    let mut healed_slots = 0u64;
    let mut healed_logs = 0u64;
    let mut retried = 0u64;
    let mut saves = 0u64;
    loop {
        restarts += 1;
        handle.with(|m| m.power_cut());
        let (state, scrub) = shelf
            .load()
            .unwrap_or_else(|e| panic!("restart load failed: {e}"))
            .expect("shelf must hold state after a committed save");
        let (mut fe, boot) = restore(&state, policy, serve_cfg())
            .unwrap_or_else(|e| panic!("restart recovery failed: {e}"));
        // A failed save may have committed its first slot before dying,
        // so the recovered image can run ahead of the acked counter —
        // never behind it.
        assert!(
            state.acked_writes >= acked,
            "recovered shelf lost acked count"
        );
        healed_slots += u64::from(scrub.healed_slot.is_some());
        healed_logs += u64::from(scrub.healed_log.is_some());
        let stamp = CommitStamp {
            save_seq: boot.save_seq,
            generation: boot.generation,
            seed: dev_seed,
            acked_writes: acked,
        };
        match checkpoint_with_healing(shelf, fe.system_mut(), stamp, retry) {
            SaveOutcome::Saved { attempts } => {
                retried += u64::from(attempts - 1);
                saves += 1;
                return Recovered {
                    fe,
                    save_seq: boot.save_seq,
                    generation: boot.generation,
                    restarts,
                    healed_slots,
                    healed_logs,
                    retried,
                    read_only: false,
                    saves,
                };
            }
            SaveOutcome::ReadOnly(e) => {
                assert!(e.is_no_space(), "mistyped read-only cause");
                // The shelf still holds the pre-cut state; the recovered
                // device serves reads and sheds writes from here on.
                return Recovered {
                    fe,
                    save_seq: state.save_seq,
                    generation: state.generation,
                    restarts,
                    healed_slots,
                    healed_logs,
                    retried,
                    read_only: true,
                    saves,
                };
            }
            SaveOutcome::Failed(_) => {}
        }
    }
}

/// What one iteration draws before it serves anything.
struct Draw {
    iter: u64,
    policy: CheckpointPolicy,
    dev_seed: u64,
    /// The batch after whose commit the power is cut, if any.
    cut_after: Option<u64>,
    reqs: Vec<Request>,
    batch: usize,
}

/// One pass of an iteration's stream over a fresh shelf.
struct Pass {
    out: FuzzOut,
    fe: FrontEnd<ServerScheme>,
    /// Every mutation and barrier the shelf issued, in order.
    ops: Vec<MediaOp>,
    /// How many of `ops` the fresh-boot checkpoint issued before the
    /// plan armed.
    armed_at: usize,
}

/// One fuzz iteration, end to end.
fn run_iter(iter: u64, n: usize, batch: usize) -> FuzzOut {
    let mut rng = StdRng::seed_from_u64(0x5702_A6EF ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let mode = MODES[(iter as usize) % MODES.len()];
    let kind = mode.kind;
    let policy = CheckpointPolicy::every_steps(8);
    let dev_seed = rng.random::<u64>();
    let nb = n.div_ceil(batch) as u64;

    // Which of the lane's operations the fault lands on; see below.
    let pick = rng.random::<u64>();
    let plan = kind.map(|k| {
        // Rot fires at the first power cut; a cut is always scheduled.
        let mut p = FaultPlan::new(k, 1);
        p.seed = rng.random::<u64>();
        if k == FaultKind::TransientIo {
            // 1..=3 heals within the 4-attempt budget; 4..=6 exhausts it
            // and exercises the crash-restart path.
            p.burst = 1 + rng.random::<u64>() % 6;
        }
        if k == FaultKind::BitRot {
            let files = mode.rot_files;
            p.rot_file = files[rng.random::<u32>() as usize % files.len()].to_string();
            p.rot_bits = 1 + rng.random::<u32>() % 6;
        }
        p
    });
    // A power cut mid-stream: always for the kinds it materializes
    // (sync-lie, bit rot), occasionally everywhere else.
    let cut_after = match kind {
        Some(FaultKind::SyncLie | FaultKind::BitRot) => Some(rng.random::<u64>() % nb),
        _ => (rng.random::<u32>() % 4 == 0).then(|| rng.random::<u64>() % nb),
    };

    // The reference never faults but runs the identical serving path.
    let mut reference = fuzz_front_end(SEED_BASE, iter, policy);
    let lines = reference.system().logical_lines();
    let reqs = fuzz_trace(&mut rng, lines, n);
    for chunk in reqs.chunks(batch) {
        for c in reference.submit_batch(chunk.to_vec(), 1) {
            assert!(c.result.is_ok(), "reference run rejected a request");
        }
    }

    let draw = Draw {
        iter,
        policy,
        dev_seed,
        cut_after,
        reqs,
        batch,
    };
    // A fault-free dry pass of the same stream and power cut lists the
    // operations the shelf issues. Until the fault fires, the faulted
    // pass issues exactly these, so a plan aimed at one of the lane's
    // operations in the dry pass lands on it.
    let plan = plan.map(|mut p| {
        if mode.target != Target::FirstCut {
            let dry = drive(&draw, mode, None);
            let at = positions(&dry.ops, dry.armed_at, mode.target);
            if !at.is_empty() {
                p.at_op = at[(pick % at.len() as u64) as usize];
            }
        }
        p
    });
    let Pass {
        mut out, mut fe, ..
    } = drive(&draw, mode, plan);
    // Invariant 2: unless degraded read-only, recovered-then-continued
    // equals never-faulted, everywhere.
    out.equivalent = !out.read_only
        && (0..lines).all(|la| {
            fe.system_mut().try_read(la).expect("read").0
                == reference.system_mut().try_read(la).expect("read").0
        });
    out
}

/// Serve `draw`'s stream through the engine's commit contract on a fresh
/// faulty shelf with `plan` armed after the boot checkpoint, and audit
/// the acknowledged writes at the end.
fn drive(draw: &Draw, mode: Mode, plan: Option<FaultPlan>) -> Pass {
    let Draw {
        iter,
        policy,
        dev_seed,
        cut_after,
        ref reqs,
        batch,
    } = *draw;
    let handle = SharedMedia::new(FaultyMedia::new(MemMedia::new()));
    let ops = Arc::new(Mutex::new(Vec::new()));
    let mut shelf = DiskShelf::with_media(Box::new(Recorder {
        inner: handle.clone(),
        ops: Arc::clone(&ops),
    }));
    let retry = RetryPolicy {
        sleep: false,
        ..RetryPolicy::default()
    };
    let mut fe = fuzz_front_end(SEED_BASE, iter, policy);
    let mut save_seq = 1u64;
    let mut generation = 0u64;
    // The fresh-boot checkpoint runs fault-free; the plan arms after it so
    // `at_op` counts operations under load.
    let boot = CommitStamp {
        save_seq,
        generation,
        seed: dev_seed,
        acked_writes: 0,
    };
    assert_eq!(
        checkpoint_with_healing(&mut shelf, fe.system_mut(), boot, &retry),
        SaveOutcome::Saved { attempts: 1 },
        "fresh-boot save cannot fault"
    );
    let armed_at = ops.lock().expect("recorder lock").len();
    let at_op = plan.as_ref().map_or(0, |p| p.at_op);
    let burst = plan.as_ref().map_or(0, |p| p.burst);
    if let Some(p) = plan {
        handle.with(|m| m.set_plan(p));
    }

    // Acks in completion order — within a bank the completion order is
    // the device order, and each address lives on exactly one bank.
    let mut ledger = AckLedger::default();
    let mut out = FuzzOut {
        mode,
        at_op,
        burst,
        fired: false,
        saves: 1,
        acked: 0,
        resubmitted: 0,
        lost_acked: 0,
        retried: 0,
        restarts: 0,
        healed_slots: 0,
        healed_logs: 0,
        read_only: false,
        shed_read_only: 0,
        reads_after_read_only: 0,
        equivalent: false,
    };
    let mut carry: Vec<Request> = Vec::new();
    let mut chunks = reqs.chunks(batch);
    let mut bi = 0u64;
    loop {
        let fresh = chunks.next();
        if fresh.is_none() && carry.is_empty() {
            break;
        }
        // Writes of a failed commit re-enter at the head of the batch, so
        // each address's write order matches the reference stream.
        let mut submit: Vec<Request> = std::mem::take(&mut carry);
        out.resubmitted += submit.len() as u64;
        submit.extend_from_slice(fresh.unwrap_or(&[]));
        let done = fe.submit_batch(submit.clone(), 1);
        // Device-applied writes of this batch: acked only if the commit
        // that covers them lands (durable-before-ack).
        let mut pending: Vec<(u64, LineData)> = Vec::new();
        for (req, c) in submit.iter().zip(&done) {
            match &c.result {
                Ok(_) => match req.op {
                    Op::Write(data) => pending.push((req.la, data)),
                    Op::Read if out.read_only => out.reads_after_read_only += 1,
                    Op::Read => {}
                },
                Err(Rejected::ReadOnly) => {
                    assert!(
                        out.read_only && matches!(req.op, Op::Write(_)),
                        "iter {iter}: spurious read-only shed"
                    );
                    out.shed_read_only += 1;
                }
                Err(e) => panic!("iter {iter}: unexpected rejection {e:?}"),
            }
        }
        if out.read_only {
            // Degraded: reads keep serving, writes shed at admission,
            // nothing touches the full medium — no save to attempt.
            assert!(pending.is_empty(), "iter {iter}: write admitted read-only");
            bi += 1;
            continue;
        }
        let stamp = CommitStamp {
            save_seq: save_seq + 1,
            generation,
            seed: dev_seed,
            acked_writes: out.acked + pending.len() as u64,
        };
        let mut saved = false;
        match commit_with_healing(&mut shelf, fe.system_mut(), stamp, &retry) {
            SaveOutcome::Saved { attempts } => {
                out.retried += u64::from(attempts - 1);
                save_seq += 1;
                out.saves += 1;
                for &(la, data) in &pending {
                    ledger.ack(la, data, 0);
                    out.acked += 1;
                }
                saved = true;
            }
            SaveOutcome::ReadOnly(e) => {
                assert!(e.is_no_space(), "iter {iter}: mistyped read-only cause");
                // The batch's writes reached the device but were never
                // acked; their addresses now hold indeterminate values,
                // so they leave the acked audit set.
                for &(la, _) in &pending {
                    ledger.forget(la);
                }
                out.read_only = true;
                fe.set_read_only(true);
            }
            SaveOutcome::Failed(_) => {
                // Crash-restart: the device rolls back to the last
                // committed save; the failed batch's writes resubmit at
                // the head of the next batch.
                let rec = cut_and_recover(&handle, &mut shelf, policy, dev_seed, out.acked, &retry);
                out.restarts += rec.restarts;
                out.healed_slots += rec.healed_slots;
                out.healed_logs += rec.healed_logs;
                out.retried += rec.retried;
                out.saves += rec.saves;
                fe = rec.fe;
                save_seq = rec.save_seq;
                generation = rec.generation;
                if rec.read_only {
                    // The recovery commit hit ENOSPC: the failed batch's
                    // writes can never resubmit (they would be shed), and
                    // a half-committed slot may already hold them — their
                    // addresses leave the acked audit set.
                    for &(la, _) in &pending {
                        ledger.forget(la);
                    }
                    out.read_only = true;
                    fe.set_read_only(true);
                } else {
                    carry = submit
                        .iter()
                        .filter(|r| matches!(r.op, Op::Write(_)))
                        .copied()
                        .collect();
                }
            }
        }
        // Scheduled power cut, after a clean save so nothing is in
        // flight: materializes a lying fsync (undurable data vanishes)
        // and at-rest bit rot (discovered and healed by the load scrub).
        if saved && Some(bi) == cut_after {
            let rec = cut_and_recover(&handle, &mut shelf, policy, dev_seed, out.acked, &retry);
            out.restarts += rec.restarts;
            out.healed_slots += rec.healed_slots;
            out.healed_logs += rec.healed_logs;
            out.retried += rec.retried;
            out.saves += rec.saves;
            fe = rec.fe;
            save_seq = rec.save_seq;
            generation = rec.generation;
            if rec.read_only {
                // Nothing was pending (the cut runs after a clean save),
                // so the audit set is untouched; just degrade.
                out.read_only = true;
                fe.set_read_only(true);
            }
        }
        bi += 1;
    }

    out.fired = handle.with(|m| m.stats()).fired > 0;
    // Invariant 1: every acknowledged write survives every fault.
    out.lost_acked = ledger
        .audit(|la| fe.system_mut().try_read(la).expect("audit read").0)
        .1;
    let ops = ops.lock().expect("recorder lock").clone();
    Pass {
        out,
        fe,
        ops,
        armed_at,
    }
}

pub fn run(opts: &Opts) {
    let iters: u64 = if opts.quick { 63 } else { 245 };
    let n = if opts.quick { 360 } else { 600 };
    let batch = 48;

    let results = srbsg_parallel::par_map((0..iters).collect(), opts.jobs, |iter| {
        (iter, run_iter(iter, n, batch))
    });

    let mut t = Table::new(
        &format!(
            "Deterministic storage-fault fuzzing ({iters} iterations, {FUZZ_BANKS} journaled \
             banks on faulty media, {n} requests per iteration)"
        ),
        &[
            "iter",
            "kind",
            "at_op",
            "burst",
            "fired",
            "saves",
            "acked",
            "resubmitted",
            "lost_acked",
            "retried",
            "restarts",
            "healed_slots",
            "healed_logs",
            "read_only",
            "shed_read_only",
            "reads_after_ro",
            "equivalent",
        ],
    );
    let mut fired_by_kind: BTreeMap<&'static str, u64> = BTreeMap::new();
    let mut lost_total = 0u64;
    let mut resub_total = 0u64;
    let mut retried_total = 0u64;
    let mut restart_total = 0u64;
    let mut healed_total = 0u64;
    let mut healed_logs_total = 0u64;
    let mut ro_iters = 0u64;
    let mut shed_ro_total = 0u64;
    let mut reads_after_ro_total = 0u64;
    let mut all_equivalent = true;
    for (iter, out) in &results {
        // The dry pass aims every plan at an operation the run issues.
        assert_eq!(
            out.fired,
            out.mode.kind.is_some(),
            "iter {iter}: the {} plan did not fire where the dry pass aimed it",
            out.mode.name
        );
        if out.fired {
            *fired_by_kind.entry(out.mode.name).or_insert(0) += 1;
        }
        lost_total += out.lost_acked;
        resub_total += out.resubmitted;
        retried_total += out.retried;
        restart_total += out.restarts;
        healed_total += out.healed_slots;
        healed_logs_total += out.healed_logs;
        ro_iters += u64::from(out.read_only);
        shed_ro_total += out.shed_read_only;
        reads_after_ro_total += out.reads_after_read_only;
        // Read-only degradation is the one sanctioned divergence.
        all_equivalent &= out.equivalent || out.read_only;
        t.row(vec![
            iter.to_string(),
            out.mode.name.to_string(),
            out.at_op.to_string(),
            out.burst.to_string(),
            out.fired.to_string(),
            out.saves.to_string(),
            out.acked.to_string(),
            out.resubmitted.to_string(),
            out.lost_acked.to_string(),
            out.retried.to_string(),
            out.restarts.to_string(),
            out.healed_slots.to_string(),
            out.healed_logs.to_string(),
            out.read_only.to_string(),
            out.shed_read_only.to_string(),
            out.reads_after_read_only.to_string(),
            out.equivalent.to_string(),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "storagefuzz");

    let fired_total: u64 = fired_by_kind.values().sum();
    println!(
        "\nstoragefuzz: {iters} iterations completed; {fired_total} faults fired; \
         {retried_total} transient retries healed; {restart_total} crash-restarts; \
         {resub_total} failed-commit writes resubmitted; {healed_total} checkpoint copies \
         and {healed_logs_total} log copies scrub-healed; {ro_iters} read-only degradations ({shed_ro_total} writes shed, \
         {reads_after_ro_total} reads served after); {lost_total} acknowledged writes lost"
    );

    // Acceptance bars: zero loss, equivalence outside sanctioned
    // degradation, and the whole fault matrix actually exercised.
    assert_eq!(lost_total, 0, "an acknowledged write was lost");
    assert!(
        all_equivalent,
        "a recovered run diverged from never-faulted"
    );
    for mode in MODES.iter().filter(|m| m.kind.is_some()) {
        assert!(
            fired_by_kind.get(mode.name).copied().unwrap_or(0) > 0,
            "fault lane {} never fired — the fuzz space is miscalibrated",
            mode.name
        );
    }
    assert!(
        retried_total > 0,
        "no transient error was ever retried away"
    );
    assert!(restart_total > 0, "no crash-restart was ever taken");
    assert!(
        healed_total > 0,
        "no rotten checkpoint copy was ever healed"
    );
    assert!(healed_logs_total > 0, "no rotten log copy was ever healed");
    assert!(
        ro_iters > 0 && shed_ro_total > 0,
        "read-only degradation was never exercised"
    );
    assert!(
        reads_after_ro_total > 0,
        "no read was ever served in read-only degradation"
    );
    assert!(resub_total > 0, "no failed-save write was ever resubmitted");
}
