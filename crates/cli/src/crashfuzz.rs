//! `experiments crashfuzz` — seeded randomized crash-under-load fuzzing.
//!
//! Every iteration draws a random checkpoint interval K, a random victim
//! bank, a random crash mode (all eight, including the three
//! checkpoint-phase injection points), and a random crash step, then
//! replays a random read/write stream through the batched serving
//! front-end over three journaled Security RBSG banks with the plan
//! armed. When the victim dies mid-batch, its unacknowledged commands
//! come back as `PowerLost` faults; the iteration restarts the bank
//! through re-keyed recovery, resubmits the aborted writes in order, and
//! finishes the stream. Three invariants hold on every iteration, crash
//! or no crash:
//!
//! * **no lost acknowledgments** — every write the front-end acknowledged
//!   reads back intact at the end, across the power cut;
//! * **recovery SLO** — the recovery replayed at most `max(K, 2)` journal
//!   steps (the checkpoint policy's promise);
//! * **equivalence** — the recovered-then-continued system ends
//!   byte-identical to a reference run that never crashed.
//!
//! Iterations are independent and seeded from the iteration index alone,
//! so the table and `results/crashfuzz.csv` are byte-identical for any
//! `--jobs N`. The iteration count is printed for the CI gate log.

use crate::chaos::{fuzz_front_end, fuzz_trace, serve_cfg, FUZZ_BANKS};
use crate::table::Table;
use crate::Opts;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use srbsg_core::SecurityRbsg;
use srbsg_pcm::{MemoryController, MultiBankSystem, PcmError};
use srbsg_persist::{CheckpointPolicy, CrashMode, CrashPlan, Journaled};
use srbsg_serve::{FrontEnd, Op, Rejected, Request};
use srbsg_server::AckLedger;

/// Seed base of the fuzz banks.
const SEED_BASE: u64 = 0xC0FF_EE00;

/// What one fuzz iteration drew and measured. Contract violations panic
/// the iteration (and `par_map` propagates the panic).
#[derive(Debug, Clone)]
struct FuzzOut {
    k: u64,
    bank: usize,
    mode: CrashMode,
    at_step: u64,
    /// Whether the armed plan actually fired (a deep `at_step` can land
    /// past the journal the stream produces — still a valid iteration,
    /// the invariants just hold trivially).
    fired: bool,
    acked: u64,
    /// `PowerLost`-rejected writes reissued after the restart.
    resubmitted: u64,
    lost_acked: u64,
    replayed: u64,
    skipped: u64,
    journal_bytes: u64,
    fallback: bool,
    ckpts: u64,
    slo_ok: bool,
    equivalent: bool,
}

/// One fuzz iteration, end to end.
fn run_iter(iter: u64, n: usize, batch: usize) -> FuzzOut {
    let mut rng = StdRng::seed_from_u64(0xF022_1EAF ^ iter.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    let k = [4u64, 8, 16][(rng.random::<u32>() % 3) as usize];
    let policy = CheckpointPolicy::every_steps(k);
    let slo = policy.slo_steps().expect("every_steps policy has an SLO");
    let victim = (rng.random::<u32>() as usize) % FUZZ_BANKS;
    let mode = CrashMode::ALL[(rng.random::<u32>() as usize) % CrashMode::ALL.len()];
    let at_step = 1 + rng.random::<u64>() % 30;
    let rekey_seed = rng.random::<u64>();

    // The reference never crashes but runs the identical serving path.
    let mut reference = fuzz_front_end(SEED_BASE, iter, policy);
    let lines = reference.system().logical_lines();
    let reqs = fuzz_trace(&mut rng, lines, n);
    for chunk in reqs.chunks(batch) {
        for c in reference.submit_batch_crashable(chunk.to_vec(), 1) {
            assert!(c.result.is_ok(), "reference run rejected a request");
        }
    }

    let mut fe = fuzz_front_end(SEED_BASE, iter, policy);
    fe.system_mut()
        .bank_mut(victim)
        .scheme_mut()
        .set_crash_plan(CrashPlan { at_step, mode });

    // Acks in completion order — within a bank the completion order is
    // the device order, and each address lives on exactly one bank.
    let mut ledger = AckLedger::default();
    let mut acked = 0u64;
    let mut resubmitted = 0u64;
    let mut recovered: Option<(srbsg_persist::RecoveryReport, u64)> = None;
    let mut carry: Vec<Request> = Vec::new();
    let mut chunks = reqs.chunks(batch);
    loop {
        let fresh = chunks.next();
        if fresh.is_none() && carry.is_empty() {
            break;
        }
        // Aborted writes re-enter at the head of the batch, so each
        // bank's per-address write order matches the reference stream.
        let mut submit: Vec<Request> = std::mem::take(&mut carry);
        resubmitted += submit.len() as u64;
        submit.extend_from_slice(fresh.unwrap_or(&[]));
        let done = fe.submit_batch_crashable(submit.clone(), 1);
        for (req, c) in submit.iter().zip(&done) {
            match &c.result {
                Ok(_) => {
                    if let Op::Write(data) = req.op {
                        ledger.ack(req.la, data, 0);
                        acked += 1;
                    }
                }
                Err(Rejected::Fault(PcmError::PowerLost)) => {
                    if matches!(req.op, Op::Write(_)) {
                        carry.push(*req);
                    }
                }
                Err(e) => panic!("iter {iter}: unexpected rejection {e:?}"),
            }
        }

        // Restart: recover the dead bank in place, keep the survivors.
        let dead = fe.crashed_banks();
        if !dead.is_empty() {
            assert_eq!(dead, vec![victim], "iter {iter}: wrong bank died");
            assert!(recovered.is_none(), "iter {iter}: bank died twice");
            let banks = fe.into_system().into_controllers();
            let rebuilt = banks
                .into_iter()
                .enumerate()
                .map(|(b, mc)| {
                    if b != victim {
                        return mc;
                    }
                    let (jw, mut pbank) = mc.into_parts();
                    let ckpts = jw.checkpoints_installed();
                    let store = jw.into_store();
                    let (jw2, report) = Journaled::<SecurityRbsg>::recover(
                        &store,
                        &mut pbank,
                        policy,
                        Some(rekey_seed),
                    )
                    .unwrap_or_else(|e| panic!("iter {iter}: recovery failed: {e}"));
                    recovered = Some((report, ckpts));
                    MemoryController::from_bank(jw2, pbank)
                })
                .collect();
            fe = FrontEnd::new(MultiBankSystem::from_controllers(rebuilt), serve_cfg());
        }
    }

    // Invariant 1: every acknowledged write survives, across the cut.
    let (_, lost_acked) = ledger.audit(|la| fe.system_mut().try_read(la).expect("audit read").0);
    // Invariant 3: recovered-then-continued == never-crashed, everywhere.
    let equivalent = (0..lines).all(|la| {
        fe.system_mut().try_read(la).expect("read").0
            == reference.system_mut().try_read(la).expect("read").0
    });

    let (report, ckpts) = match &recovered {
        Some((r, c)) => (Some(r), *c),
        None => (None, 0),
    };
    FuzzOut {
        k,
        bank: victim,
        mode,
        at_step,
        fired: report.is_some(),
        acked,
        resubmitted,
        lost_acked,
        replayed: report.map_or(0, |r| r.replayed_steps),
        skipped: report.map_or(0, |r| r.skipped_steps),
        journal_bytes: report.map_or(0, |r| r.journal_bytes),
        fallback: report.is_some_and(|r| r.marker_fallback),
        ckpts,
        // Invariant 2 (checked here, asserted in `run`): the replay SLO.
        slo_ok: report.is_none_or(|r| r.replayed_steps <= slo),
        equivalent,
    }
}

pub fn run(opts: &Opts) {
    let iters: u64 = if opts.quick { 64 } else { 240 };
    let n = if opts.quick { 360 } else { 600 };
    let batch = 48;

    let results = srbsg_parallel::par_map((0..iters).collect(), opts.jobs, |iter| {
        (iter, run_iter(iter, n, batch))
    });

    let mut t = Table::new(
        &format!(
            "Randomized crash-under-load fuzzing ({iters} iterations, {FUZZ_BANKS} journaled \
             banks, {} requests per iteration, replay SLO = max(K, 2))",
            n
        ),
        &[
            "iter",
            "k",
            "bank",
            "mode",
            "at_step",
            "fired",
            "acked",
            "resubmitted",
            "lost_acked",
            "replayed",
            "skipped",
            "journal_bytes",
            "fallback",
            "ckpts",
            "slo_ok",
            "equivalent",
        ],
    );
    let mut fired = 0u64;
    let mut ckpt_fired = 0u64;
    let mut journal_fired = 0u64;
    let mut lost_total = 0u64;
    let mut resub_total = 0u64;
    let mut all_slo_ok = true;
    let mut all_equivalent = true;
    for (iter, out) in &results {
        if out.fired {
            fired += 1;
            if out.mode.is_checkpoint_phase() {
                ckpt_fired += 1;
            } else {
                journal_fired += 1;
            }
        }
        lost_total += out.lost_acked;
        resub_total += out.resubmitted;
        all_slo_ok &= out.slo_ok;
        all_equivalent &= out.equivalent;
        t.row(vec![
            iter.to_string(),
            out.k.to_string(),
            out.bank.to_string(),
            out.mode.name().to_string(),
            out.at_step.to_string(),
            out.fired.to_string(),
            out.acked.to_string(),
            out.resubmitted.to_string(),
            out.lost_acked.to_string(),
            out.replayed.to_string(),
            out.skipped.to_string(),
            out.journal_bytes.to_string(),
            out.fallback.to_string(),
            out.ckpts.to_string(),
            out.slo_ok.to_string(),
            out.equivalent.to_string(),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "crashfuzz");

    println!(
        "\ncrashfuzz: {iters} iterations completed; {fired} crashes fired \
         ({journal_fired} journal-phase, {ckpt_fired} checkpoint-phase); \
         {resub_total} aborted writes resubmitted; {lost_total} acknowledged writes lost"
    );

    // Acceptance bars: the loop must actually bite (most plans fire, both
    // crash families covered), and the three invariants hold everywhere.
    assert_eq!(lost_total, 0, "an acknowledged write was lost");
    assert!(all_slo_ok, "a recovery replayed more than the SLO");
    assert!(
        all_equivalent,
        "a recovered run diverged from never-crashed"
    );
    assert!(
        fired >= iters / 2,
        "only {fired}/{iters} plans fired — the fuzz space is miscalibrated"
    );
    assert!(ckpt_fired > 0, "no checkpoint-phase crash ever fired");
    assert!(journal_fired > 0, "no journal-phase crash ever fired");
    assert!(resub_total > 0, "no aborted write was ever resubmitted");
}
