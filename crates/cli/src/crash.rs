//! `experiments crash` — deterministic power-failure injection sweep over
//! the journaled wear-leveling stack (`srbsg-persist`).
//!
//! For every scheme, the sweep plants crashes at chosen points of the
//! write-ahead journal in every supported manner — a torn `Step` record,
//! a recorded-but-unapplied step, a half-applied swap, an applied step
//! missing its commit marker, a quiet-point crash a few demand writes
//! after a clean commit, and three crashes inside a checkpoint
//! installation (torn snapshot, torn active-marker flip, and
//! snapshot-written-journal-not-truncated). Every crashing run carries a
//! `CheckpointPolicy` bounding the journal, so each trial also checks the
//! recovery-time SLO (`replayed <= max(K, 2)` steps). Each trial recovers
//! from exactly the bytes and lines that survived, and checks the full
//! contract:
//!
//! * recovery succeeds and the recovered mapping is a bijection,
//! * every write acknowledged before the crash reads back,
//! * continuing the interrupted trace ends byte-identical to a run that
//!   never crashed,
//! * the recovery replayed no more steps than the policy's SLO allows.
//!
//! A second sweep varies K for re-keyed Security RBSG and writes the
//! aggregate trade-off (journal footprint vs. replay cost) to
//! `results/crash_checkpoint.csv`.
//!
//! Security RBSG appears twice: once with plain recovery (showing that an
//! attacker's pre-crash knowledge of the mapping survives a power cycle —
//! `overlap = 1` at quiet points) and once with re-keyed recovery, which
//! reseeds the DFN keys and bursts remap rounds until the learned mapping
//! is worthless (`overlap` collapses). The sweep guarantees at least one
//! mid-remap crash and at least one crash planted mid key-rotation round.
//!
//! Trials run on `--jobs N` workers; the table and `results/crash.csv`
//! are byte-identical for any `N`.

use crate::table::Table;
use crate::Opts;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, PcmError, TimingModel};
use srbsg_persist::{
    write_crashable, CheckpointPolicy, CrashMode, CrashPlan, Journaled, JournaledScheme,
};
use srbsg_server::AckLedger;
use srbsg_wearlevel::{MultiWaySr, Rbsg, SecurityRefresh, StartGap, TwoLevelSr};
use std::collections::HashSet;

/// The checkpoint step bound K armed for the main sweep (the dedicated
/// K-sweep below varies it).
const SWEEP_K: u64 = 8;

/// The schemes under test. Security RBSG is swept under both recovery
/// policies so the CSV carries the attacker-overlap contrast.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    StartGap,
    Rbsg,
    SecurityRefresh,
    TwoLevelSr,
    MultiWaySr,
    SecurityRbsg,
    SecurityRbsgRekey,
}

const KINDS: [Kind; 7] = [
    Kind::StartGap,
    Kind::Rbsg,
    Kind::SecurityRefresh,
    Kind::TwoLevelSr,
    Kind::MultiWaySr,
    Kind::SecurityRbsg,
    Kind::SecurityRbsgRekey,
];

fn kind_name(kind: Kind) -> &'static str {
    match kind {
        Kind::StartGap => "start_gap",
        Kind::Rbsg => "rbsg",
        Kind::SecurityRefresh => "security_refresh",
        Kind::TwoLevelSr => "two_level_sr",
        Kind::MultiWaySr => "multi_way_sr",
        Kind::SecurityRbsg => "security_rbsg",
        Kind::SecurityRbsgRekey => "security_rbsg+rekey",
    }
}

/// Logical lines of each scheme's bank (small on purpose: the sweep is
/// about protocol coverage, not capacity).
fn kind_lines(kind: Kind) -> u64 {
    match kind {
        Kind::StartGap | Kind::SecurityRbsg | Kind::SecurityRbsgRekey => 16,
        _ => 32,
    }
}

/// One crash trial: scheme × trace seed × crash point × crash mode, with
/// a checkpoint policy of "every `k` steps" armed on the crashing run.
#[derive(Debug, Clone, Copy)]
struct Spec {
    kind: Kind,
    seed: u64,
    at_step: u64,
    mode: CrashMode,
    k: u64,
}

/// What one trial measured. `None` fields never happen: any contract
/// violation panics the trial (and `par_map` propagates it).
#[derive(Debug, Clone)]
struct Outcome {
    /// Index of the trace write aborted by the power loss.
    crash_write: usize,
    /// Whether the DFN was mid key-rotation round when power died.
    mid_round: bool,
    replayed: u64,
    torn_bytes: u64,
    redone_ops: u64,
    reseeded: bool,
    rekey_moves: u64,
    /// Stale-prefix `Step` records skipped (journal older than the
    /// snapshot — the not-truncated checkpoint crash).
    skipped: u64,
    /// Journal bytes the surviving store held at recovery.
    journal_bytes: u64,
    /// Bytes of the snapshot recovery restored from.
    snap_bytes: u64,
    /// Whether recovery fell back to slot inspection (torn marker).
    fallback: bool,
    /// Checkpoints the crashing run had fully installed before power died.
    ckpts: u64,
    /// Whether the recovery met the policy's SLO: `replayed <= max(k, 2)`.
    slo_ok: bool,
    acked: u64,
    lost_acked: u64,
    /// Fraction of the attacker's pre-crash LA → PA table still valid
    /// after recovery.
    overlap: f64,
    equivalent: bool,
}

/// The same hammer-plus-spray trace the persist crate's property tests
/// use: frequent remaps in line 0's region, uniform traffic elsewhere.
fn trace(lines: u64, n: usize, seed: u64) -> Vec<(u64, LineData)> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..n)
        .map(|i| {
            let la = if rng.random::<u32>() % 3 == 0 {
                0
            } else {
                rng.random::<u64>() % lines
            };
            (la, LineData::Mixed(i as u32 + 1))
        })
        .collect()
}

fn fresh<W: JournaledScheme>(mk: &dyn Fn() -> W) -> MemoryController<Journaled<W>> {
    MemoryController::new(
        Journaled::new(mk(), CheckpointPolicy::default()),
        u64::MAX,
        TimingModel::PAPER,
    )
}

/// Steps the crash-free run journals over the whole trace.
fn total_steps<W: JournaledScheme>(mk: &dyn Fn() -> W, writes: &[(u64, LineData)]) -> u64 {
    let mut mc = fresh(mk);
    for &(la, data) in writes {
        mc.write(la, data);
    }
    mc.scheme().steps_logged()
}

/// First step count at which the crash-free run leaves the DFN mid
/// key-rotation (a line is parked: the mapping is split between `Kc`
/// and `Kp`).
fn first_mid_round_step(mk: &dyn Fn() -> SecurityRbsg, writes: &[(u64, LineData)]) -> Option<u64> {
    let mut probe = fresh(mk);
    for &(la, data) in writes {
        let before = probe.scheme().steps_logged();
        probe.write(la, data);
        let after = probe.scheme().steps_logged();
        if after > before && probe.scheme().scheme().dfn().parked().is_some() {
            return Some(after);
        }
    }
    None
}

/// Run one trial end to end. Returns `None` when the plan never fired
/// (crash point past the trace's journal), `Some(outcome)` otherwise;
/// panics on any contract violation.
fn run_one<W: JournaledScheme>(
    mk: &dyn Fn() -> W,
    writes: &[(u64, LineData)],
    plan: CrashPlan,
    policy: CheckpointPolicy,
    rekey_seed: Option<u64>,
    mid_round: &dyn Fn(&W) -> bool,
) -> Option<Outcome> {
    let mut reference = fresh(mk);
    for &(la, data) in writes {
        reference.write(la, data);
    }

    let mut mc = MemoryController::new(Journaled::new(mk(), policy), u64::MAX, TimingModel::PAPER);
    mc.scheme_mut().set_crash_plan(plan);
    let lines = mc.logical_lines();
    let mut ledger = AckLedger::default();
    let mut crash_idx = None;
    for (i, &(la, data)) in writes.iter().enumerate() {
        match write_crashable(&mut mc, la, data) {
            Ok(_) => ledger.ack(la, data, 0),
            Err(PcmError::PowerLost) => {
                crash_idx = Some(i);
                break;
            }
            Err(e) => panic!("unexpected write error under {plan:?}: {e:?}"),
        }
    }
    let crash_write = crash_idx?;
    let was_mid_round = mid_round(mc.scheme().scheme());
    // The attacker's prize at the instant power dies: the full mapping.
    let learned: Vec<u64> = (0..lines).map(|la| mc.translate(la)).collect();

    let (jw, mut bank) = mc.into_parts();
    let ckpts = jw.checkpoints_installed();
    let store = jw.into_store();
    let (jw2, report) = Journaled::<W>::recover(&store, &mut bank, policy, rekey_seed)
        .unwrap_or_else(|e| panic!("recovery failed under {plan:?}: {e}"));
    let slo_ok = policy
        .slo_steps()
        .is_none_or(|slo| report.replayed_steps <= slo);
    let mut mc = MemoryController::from_bank(jw2, bank);

    let mut seen = HashSet::new();
    for la in 0..lines {
        assert!(
            seen.insert(mc.translate(la)),
            "mapping not injective after {plan:?}"
        );
    }
    let overlap = learned
        .iter()
        .enumerate()
        .filter(|&(la, &slot)| mc.translate(la as u64) == slot)
        .count() as f64
        / lines as f64;

    let (acked, lost_acked) = ledger.audit(|la| mc.read(la).0);
    // The aborted write was never acknowledged — the client reissues it,
    // then the rest of the trace runs as if nothing happened.
    for &(la, data) in &writes[crash_write..] {
        mc.write(la, data);
    }
    // Whole-space audit through the batched read path (one lane-parallel
    // translation per controller instead of 2·lines scalar ones).
    let las: Vec<u64> = (0..lines).collect();
    let (mut got, mut want) = (Vec::new(), Vec::new());
    mc.read_batch(&las, &mut got);
    reference.read_batch(&las, &mut want);
    let equivalent = las
        .iter()
        .all(|&la| got[la as usize].0 == want[la as usize].0);

    Some(Outcome {
        crash_write,
        mid_round: was_mid_round,
        replayed: report.replayed_steps,
        torn_bytes: report.torn_bytes,
        redone_ops: report.redone_ops,
        reseeded: report.reseeded,
        rekey_moves: report.rekey_movements,
        skipped: report.skipped_steps,
        journal_bytes: report.journal_bytes,
        snap_bytes: report.snapshot_bytes,
        fallback: report.marker_fallback,
        ckpts,
        slo_ok,
        acked,
        lost_acked,
        overlap,
        equivalent,
    })
}

fn dispatch(spec: Spec, n: usize) -> Option<Outcome> {
    let writes = trace(kind_lines(spec.kind), n, spec.seed);
    let plan = CrashPlan {
        at_step: spec.at_step,
        mode: spec.mode,
    };
    let policy = CheckpointPolicy::every_steps(spec.k);
    let srbsg = move || {
        let mut cfg = SecurityRbsgConfig::small(4, 2);
        cfg.seed = spec.seed ^ 0x99;
        SecurityRbsg::new(cfg)
    };
    let dfn_mid = |s: &SecurityRbsg| s.dfn().parked().is_some();
    match spec.kind {
        Kind::StartGap => run_one(
            &|| StartGap::start_gap(16, 3),
            &writes,
            plan,
            policy,
            None,
            &|_| false,
        ),
        Kind::Rbsg => run_one(
            &|| {
                let mut rng = StdRng::seed_from_u64(spec.seed ^ 0xA5);
                Rbsg::with_feistel(&mut rng, 5, 4, 3)
            },
            &writes,
            plan,
            policy,
            None,
            &|_| false,
        ),
        Kind::SecurityRefresh => run_one(
            &|| SecurityRefresh::new(32, 4, 3, spec.seed ^ 0x51),
            &writes,
            plan,
            policy,
            None,
            &|_| false,
        ),
        Kind::TwoLevelSr => run_one(
            &|| TwoLevelSr::new(32, 4, 3, 6, spec.seed ^ 0x2D),
            &writes,
            plan,
            policy,
            None,
            &|_| false,
        ),
        Kind::MultiWaySr => run_one(
            &|| MultiWaySr::new(32, 4, 3, 6, spec.seed ^ 0x3E),
            &writes,
            plan,
            policy,
            None,
            &|_| false,
        ),
        Kind::SecurityRbsg => run_one(&srbsg, &writes, plan, policy, None, &dfn_mid),
        Kind::SecurityRbsgRekey => run_one(
            &srbsg,
            &writes,
            plan,
            policy,
            Some(0xF5E5 ^ (spec.seed << 16) ^ spec.at_step),
            &dfn_mid,
        ),
    }
}

pub fn run(opts: &Opts) {
    let n = if opts.quick { 400 } else { 800 };
    let npts = if opts.quick { 3 } else { 6 };

    // Plan the sweep serially: per scheme × trace seed, spread `npts`
    // crash points across the journal the crash-free run produces, and
    // for Security RBSG additionally target the first step that lands
    // mid key-rotation.
    let mut specs: Vec<Spec> = Vec::new();
    for kind in KINDS {
        for s in 0..opts.seeds {
            let seed = 31 + s * 0x9E37;
            let writes = trace(kind_lines(kind), n, seed);
            let steps = match kind {
                Kind::StartGap => total_steps(&|| StartGap::start_gap(16, 3), &writes),
                Kind::Rbsg => total_steps(
                    &|| {
                        let mut rng = StdRng::seed_from_u64(seed ^ 0xA5);
                        Rbsg::with_feistel(&mut rng, 5, 4, 3)
                    },
                    &writes,
                ),
                Kind::SecurityRefresh => {
                    total_steps(&|| SecurityRefresh::new(32, 4, 3, seed ^ 0x51), &writes)
                }
                Kind::TwoLevelSr => {
                    total_steps(&|| TwoLevelSr::new(32, 4, 3, 6, seed ^ 0x2D), &writes)
                }
                Kind::MultiWaySr => {
                    total_steps(&|| MultiWaySr::new(32, 4, 3, 6, seed ^ 0x3E), &writes)
                }
                Kind::SecurityRbsg | Kind::SecurityRbsgRekey => total_steps(
                    &|| {
                        let mut cfg = SecurityRbsgConfig::small(4, 2);
                        cfg.seed = seed ^ 0x99;
                        SecurityRbsg::new(cfg)
                    },
                    &writes,
                ),
            };
            assert!(steps >= 3, "{kind:?} trace too quiet: {steps} steps");
            let mut points: Vec<u64> = (0..npts)
                .map(|k| 1 + k * (steps - 1) / (npts - 1))
                .collect();
            if matches!(kind, Kind::SecurityRbsg | Kind::SecurityRbsgRekey) {
                let mid = first_mid_round_step(
                    &|| {
                        let mut cfg = SecurityRbsgConfig::small(4, 2);
                        cfg.seed = seed ^ 0x99;
                        SecurityRbsg::new(cfg)
                    },
                    &writes,
                )
                .expect("trace never caught the DFN mid key-rotation");
                points.push(mid);
            }
            points.sort_unstable();
            points.dedup();
            for at_step in points {
                for mode in CrashMode::ALL {
                    specs.push(Spec {
                        kind,
                        seed,
                        at_step,
                        mode,
                        k: SWEEP_K,
                    });
                }
            }
        }
    }

    let results = srbsg_parallel::par_map(specs, opts.jobs, |spec| (spec, dispatch(spec, n)));

    let mut t = Table::new(
        &format!(
            "Power-failure injection sweep ({} planned crashes, {} crash modes, \
             recovery verified trial by trial)",
            results.len(),
            CrashMode::ALL.len()
        ),
        &[
            "scheme",
            "seed",
            "at_step",
            "mode",
            "k",
            "crash_write",
            "mid_round",
            "replayed",
            "skipped",
            "torn_bytes",
            "journal_bytes",
            "snap_bytes",
            "redone_ops",
            "ckpts",
            "fallback",
            "slo_ok",
            "reseeded",
            "rekey_moves",
            "acked",
            "lost_acked",
            "overlap",
            "equivalent",
        ],
    );

    let mut fired = 0u64;
    let mut mid_remap = 0u64;
    let mut mid_rotation = 0u64;
    let mut redone_total = 0u64;
    let mut replay_total = 0u64;
    let mut lost_total = 0u64;
    let mut rekeys = 0u64;
    let mut rekey_overlap_sum = 0.0f64;
    let mut rekey_overlap_n = 0u64;
    let mut plain_quiet_overlap_ok = true;
    let mut all_equivalent = true;
    let mut ckpt_fired = 0u64;
    let mut fallback_seen = 0u64;
    let mut skipped_seen = 0u64;
    let mut all_slo_ok = true;

    for (spec, out) in &results {
        let Some(out) = out else { continue };
        fired += 1;
        replay_total += out.replayed;
        redone_total += out.redone_ops;
        lost_total += out.lost_acked;
        all_equivalent &= out.equivalent;
        all_slo_ok &= out.slo_ok;
        if spec.mode.is_checkpoint_phase() {
            ckpt_fired += 1;
        } else if !matches!(
            spec.mode,
            CrashMode::AfterCommit { .. } | CrashMode::RecordedNotApplied
        ) {
            mid_remap += 1;
        }
        if out.fallback {
            fallback_seen += 1;
        }
        if out.skipped > 0 {
            skipped_seen += 1;
        }
        if out.mid_round {
            mid_rotation += 1;
        }
        if out.reseeded {
            rekeys += 1;
            rekey_overlap_sum += out.overlap;
            rekey_overlap_n += 1;
        }
        if spec.kind == Kind::SecurityRbsg && matches!(spec.mode, CrashMode::AfterCommit { .. }) {
            // Plain recovery at a quiet point restores the mapping the
            // attacker learned, bit for bit — the hole rekeying closes.
            plain_quiet_overlap_ok &= out.overlap == 1.0;
        }
        t.row(vec![
            kind_name(spec.kind).to_string(),
            spec.seed.to_string(),
            spec.at_step.to_string(),
            spec.mode.name().to_string(),
            spec.k.to_string(),
            out.crash_write.to_string(),
            out.mid_round.to_string(),
            out.replayed.to_string(),
            out.skipped.to_string(),
            out.torn_bytes.to_string(),
            out.journal_bytes.to_string(),
            out.snap_bytes.to_string(),
            out.redone_ops.to_string(),
            out.ckpts.to_string(),
            out.fallback.to_string(),
            out.slo_ok.to_string(),
            out.reseeded.to_string(),
            out.rekey_moves.to_string(),
            out.acked.to_string(),
            out.lost_acked.to_string(),
            format!("{:.4}", out.overlap),
            out.equivalent.to_string(),
        ]);
    }
    t.print();
    t.write_csv(&opts.out_dir, "crash");

    let mean_overlap = rekey_overlap_sum / rekey_overlap_n.max(1) as f64;
    println!(
        "\n{fired} crashes fired; mean replay {:.1} records; {redone_total} ops redone from \
         uncommitted steps; {mid_remap} mid-remap crashes, {mid_rotation} mid key-rotation \
         crashes, {ckpt_fired} mid-checkpoint crashes ({fallback_seen} marker fallbacks, \
         {skipped_seen} stale-prefix skips); {rekeys} re-keyed recoveries, mean attacker \
         overlap after rekey {:.3}",
        replay_total as f64 / fired.max(1) as f64,
        mean_overlap
    );

    // Acceptance bars: every planned crash that fired recovered to full
    // equivalence with nothing lost and within the recovery-time SLO; the
    // sweep exercised a mid-remap crash, a mid key-rotation crash, each
    // checkpoint-phase crash path, and the redo path; rekeyed recovery
    // destroys the attacker's table while plain recovery at a quiet point
    // preserves it.
    assert!(fired > 0, "no crash plan ever fired");
    assert!(
        all_equivalent,
        "a recovered run diverged from never-crashed"
    );
    assert_eq!(lost_total, 0, "an acknowledged write was lost");
    assert!(all_slo_ok, "a recovery blew the replay SLO");
    assert!(mid_remap > 0, "sweep never crashed mid-remap");
    assert!(mid_rotation > 0, "sweep never crashed mid key-rotation");
    assert!(ckpt_fired > 0, "sweep never crashed mid-checkpoint");
    assert!(fallback_seen > 0, "marker-fallback path never exercised");
    assert!(skipped_seen > 0, "stale-prefix skip never exercised");
    assert!(redone_total > 0, "redo path never exercised");
    assert!(rekeys > 0, "no re-keyed recovery ran");
    assert!(
        mean_overlap < 0.5,
        "attacker keeps {mean_overlap:.2} of the mapping despite rekey"
    );
    assert!(
        plain_quiet_overlap_ok,
        "plain quiet-point recovery should preserve the learned mapping"
    );

    // ---- Checkpoint-interval sweep: how K trades journal footprint for
    // recovery time. Re-keyed Security RBSG, crash points spread over the
    // trace, every mode; each K aggregates into one row of
    // `crash_checkpoint.csv`.
    let ks: &[u64] = if opts.quick {
        &[4, 8, 16, 32]
    } else {
        &[4, 8, 16, 32, 64, 128]
    };
    let mut kspecs: Vec<Spec> = Vec::new();
    for &k in ks {
        for s in 0..opts.seeds {
            let seed = 31 + s * 0x9E37;
            let writes = trace(kind_lines(Kind::SecurityRbsgRekey), n, seed);
            let steps = total_steps(
                &|| {
                    let mut cfg = SecurityRbsgConfig::small(4, 2);
                    cfg.seed = seed ^ 0x99;
                    SecurityRbsg::new(cfg)
                },
                &writes,
            );
            let points: Vec<u64> = (0..npts)
                .map(|p| 1 + p * (steps - 1) / (npts - 1))
                .collect();
            for at_step in points {
                for mode in CrashMode::ALL {
                    kspecs.push(Spec {
                        kind: Kind::SecurityRbsgRekey,
                        seed,
                        at_step,
                        mode,
                        k,
                    });
                }
            }
        }
    }
    let kresults = srbsg_parallel::par_map(kspecs, opts.jobs, |spec| (spec, dispatch(spec, n)));

    let mut kt = Table::new(
        &format!(
            "Checkpoint-interval sweep (security_rbsg+rekey, K in {ks:?}, \
             replay SLO = max(K, 2) steps)"
        ),
        &[
            "scheme",
            "k",
            "slo",
            "fired",
            "max_replayed",
            "mean_replayed",
            "mean_journal_bytes",
            "mean_snap_bytes",
            "mean_ckpts",
            "slo_ok",
        ],
    );
    for &k in ks {
        let slo = CheckpointPolicy::every_steps(k)
            .slo_steps()
            .expect("every_steps policy always has an SLO");
        let outs: Vec<&Outcome> = kresults
            .iter()
            .filter(|(spec, out)| spec.k == k && out.is_some())
            .map(|(_, out)| out.as_ref().unwrap())
            .collect();
        let fired = outs.len() as u64;
        assert!(fired > 0, "K={k}: no crash fired");
        let max_replayed = outs.iter().map(|o| o.replayed).max().unwrap_or(0);
        let mean = |f: &dyn Fn(&Outcome) -> u64| {
            outs.iter().map(|o| f(o)).sum::<u64>() as f64 / fired as f64
        };
        let slo_ok = outs.iter().all(|o| o.slo_ok);
        assert!(slo_ok, "K={k}: a recovery replayed more than the SLO");
        assert!(
            max_replayed <= slo,
            "K={k}: max replay {max_replayed} exceeds SLO {slo}"
        );
        assert!(
            outs.iter().all(|o| o.lost_acked == 0 && o.equivalent),
            "K={k}: a recovery lost data or diverged"
        );
        kt.row(vec![
            kind_name(Kind::SecurityRbsgRekey).to_string(),
            k.to_string(),
            slo.to_string(),
            fired.to_string(),
            max_replayed.to_string(),
            format!("{:.2}", mean(&|o| o.replayed)),
            format!("{:.1}", mean(&|o| o.journal_bytes)),
            format!("{:.1}", mean(&|o| o.snap_bytes)),
            format!("{:.2}", mean(&|o| o.ckpts)),
            slo_ok.to_string(),
        ]);
    }
    kt.print();
    kt.write_csv(&opts.out_dir, "crash_checkpoint");
}
