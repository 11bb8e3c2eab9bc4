//! The crash-equivalence property, end to end: for every scheme × crash
//! mode × crash point, inject a power failure, recover from the surviving
//! store and bank, and verify the contract —
//!
//! 1. recovery succeeds,
//! 2. the recovered mapping is a bijection,
//! 3. every write acknowledged before the crash reads back,
//! 4. continuing the interrupted trace yields exactly the data a
//!    never-crashed run produces (equivalence on read-back, not on
//!    internal counters or timing — inter-step write counters are
//!    volatile by design).

use std::collections::{HashMap, HashSet};

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, PcmError, TimingModel};
use srbsg_persist::{
    write_crashable, CheckpointPolicy, CrashMode, CrashPlan, Journaled, JournaledScheme,
    RecoveryReport,
};
use srbsg_wearlevel::{
    AdaptiveRbsg, MultiWaySr, Rbsg, SecurityRefresh, StartGap, TwoLevelSr, WriteStreamDetector,
};

const MODES: [CrashMode; 8] = [
    CrashMode::TornRecord,
    CrashMode::RecordedNotApplied,
    CrashMode::HalfApplied,
    CrashMode::AppliedNoMarker,
    CrashMode::AfterCommit { extra_writes: 2 },
    CrashMode::CheckpointTornSnapshot,
    CrashMode::CheckpointTornMarker,
    CrashMode::CheckpointNotTruncated,
];

/// The checkpoint policy armed for every crash run: compact roughly every
/// 8 steps, so checkpoint installations are frequent enough for the three
/// checkpoint-phase crash modes to fire all over the trace, and every
/// recovery is bounded by the policy's SLO.
const POLICY_K: u64 = 8;

fn policy() -> CheckpointPolicy {
    CheckpointPolicy::every_steps(POLICY_K)
}

/// A trace that hammers one line (forcing frequent remaps in its region)
/// while also spraying uniform traffic across the space.
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
    MemoryController::new(Journaled::new(mk(), policy()), u64::MAX, TimingModel::PAPER)
}

/// Steps the full trace journals when nothing crashes.
fn total_steps<W: JournaledScheme>(mk: &dyn Fn() -> W, writes: &[(u64, LineData)]) -> u64 {
    let mut mc = fresh(mk);
    for &(la, data) in writes {
        mc.write(la, data);
    }
    mc.scheme().steps_logged()
}

/// Run the trace into an armed crash, recover, continue, and check the
/// four-part contract. Returns `None` if the plan never fired (crash point
/// past the end of the trace).
fn check_crash<W: JournaledScheme>(
    mk: &dyn Fn() -> W,
    writes: &[(u64, LineData)],
    plan: CrashPlan,
) -> Option<RecoveryReport> {
    let mut reference = fresh(mk);
    for &(la, data) in writes {
        reference.write(la, data);
    }

    let mut mc = fresh(mk);
    mc.scheme_mut().set_crash_plan(plan);
    let mut acked: HashMap<u64, LineData> = HashMap::new();
    let mut crash_idx = None;
    for (i, &(la, data)) in writes.iter().enumerate() {
        match write_crashable(&mut mc, la, data) {
            Ok(_) => {
                acked.insert(la, data);
            }
            Err(PcmError::PowerLost) => {
                crash_idx = Some(i);
                break;
            }
            Err(e) => panic!("unexpected write error under {plan:?}: {e:?}"),
        }
    }
    let i = crash_idx?;

    let (jw, mut bank) = mc.into_parts();
    assert!(jw.crashed());
    let store = jw.into_store();
    let (jw2, report) = Journaled::<W>::recover(&store, &mut bank, policy(), None)
        .unwrap_or_else(|e| panic!("{plan:?}: {e}"));
    match plan.mode {
        CrashMode::TornRecord => {
            assert!(report.torn_bytes > 0, "{plan:?} must leave a torn tail")
        }
        _ => assert_eq!(report.torn_bytes, 0, "{plan:?} must not tear the journal"),
    }
    match plan.mode {
        CrashMode::CheckpointTornSnapshot => {
            // The marker still names the previous slot; no fallback needed.
            assert!(!report.marker_fallback, "{plan:?}: marker was intact");
        }
        CrashMode::CheckpointTornMarker => {
            // The marker is unreadable; recovery must have inspected the
            // slots and found the fully-written new snapshot, whose journal
            // is now entirely a stale prefix.
            assert!(report.marker_fallback, "{plan:?} must fall back on slots");
            assert_eq!(report.replayed_steps, 0, "{plan:?}: new snapshot chosen");
        }
        CrashMode::CheckpointNotTruncated => {
            // Snapshot installed, journal stale: recovery skips every
            // record instead of replaying the checkpointed history twice.
            assert!(!report.marker_fallback, "{plan:?}: marker was flipped");
            assert!(report.skipped_steps > 0, "{plan:?} must skip stale records");
            assert_eq!(report.replayed_steps, 0, "{plan:?}: stale journal only");
        }
        _ => {}
    }
    // The recovery-time SLO: the armed policy bounds what any crash can
    // cost, no matter the mode or point.
    let slo = policy().slo_steps().unwrap();
    assert!(
        report.replayed_steps <= slo,
        "{plan:?}: replayed {} steps, SLO is {slo}",
        report.replayed_steps
    );

    let mut mc = MemoryController::from_bank(jw2, bank);
    let lines = mc.logical_lines();
    let mut seen = HashSet::new();
    for la in 0..lines {
        assert!(
            seen.insert(mc.translate(la)),
            "mapping not injective after {plan:?}"
        );
    }
    for (&la, &data) in &acked {
        assert_eq!(
            mc.read(la).0,
            data,
            "acked write to {la} lost under {plan:?}"
        );
    }
    // The aborted write at `i` was never acknowledged: the client reissues
    // it, then the rest of the trace proceeds as if nothing happened.
    for &(la, data) in &writes[i..] {
        mc.write(la, data);
    }
    for la in 0..lines {
        assert_eq!(
            mc.read(la).0,
            reference.read(la).0,
            "recovered-then-continued diverges from never-crashed at {la} under {plan:?}"
        );
    }
    Some(report)
}

/// Sweep a handful of crash points per mode for one scheme; the heavy
/// exhaustive sweep lives behind `#[ignore]` below.
fn sweep<W: JournaledScheme>(mk: &dyn Fn() -> W, writes: &[(u64, LineData)], every_step: bool) {
    let steps = total_steps(mk, writes);
    assert!(steps >= 3, "trace too quiet: only {steps} steps");
    let points: Vec<u64> = if every_step {
        (1..=steps).collect()
    } else {
        vec![1, steps / 2 + 1, steps]
    };
    let mut fired = 0u64;
    let mut ckpt_fired = 0u64;
    let mut redone = 0u64;
    for &at_step in &points {
        for mode in MODES {
            if let Some(report) = check_crash(mk, writes, CrashPlan { at_step, mode }) {
                fired += 1;
                if mode.is_checkpoint_phase() {
                    ckpt_fired += 1;
                }
                redone += report.redone_ops;
            }
        }
    }
    assert!(fired > 0, "no crash plan ever fired");
    assert!(
        ckpt_fired > 0,
        "sweep never caught a checkpoint installation mid-crash"
    );
    assert!(
        redone > 0,
        "sweep never exercised the uncommitted-step redo path"
    );
}

#[test]
fn start_gap_crash_equivalence() {
    let mk = || StartGap::start_gap(16, 3);
    sweep(&mk, &trace(16, 400, 1), false);
}

#[test]
fn rbsg_crash_equivalence() {
    let mk = || {
        let mut rng = StdRng::seed_from_u64(5);
        Rbsg::with_feistel(&mut rng, 5, 4, 3)
    };
    sweep(&mk, &trace(32, 500, 2), false);
}

#[test]
fn security_refresh_crash_equivalence() {
    let mk = || SecurityRefresh::new(32, 4, 3, 7);
    sweep(&mk, &trace(32, 500, 3), false);
}

#[test]
fn two_level_sr_crash_equivalence() {
    let mk = || TwoLevelSr::new(32, 4, 3, 6, 9);
    sweep(&mk, &trace(32, 500, 4), false);
}

#[test]
fn multi_way_sr_crash_equivalence() {
    let mk = || MultiWaySr::new(32, 4, 3, 6, 11);
    sweep(&mk, &trace(32, 500, 5), false);
}

#[test]
fn adaptive_rbsg_crash_equivalence() {
    let mk = || {
        let mut rng = StdRng::seed_from_u64(13);
        AdaptiveRbsg::new(
            Rbsg::with_feistel(&mut rng, 5, 4, 4),
            WriteStreamDetector::new(4, 64, 0.5),
            4,
        )
    };
    sweep(&mk, &trace(32, 500, 6), false);
}

#[test]
fn security_rbsg_crash_equivalence() {
    let mk = || SecurityRbsg::new(SecurityRbsgConfig::small(4, 2));
    sweep(&mk, &trace(16, 600, 7), false);
}

/// A crash planted in the middle of a DFN key-rotation round (the mapping
/// is half under `Kc`, half under `Kp`) recovers to a working bijection
/// with nothing lost.
#[test]
fn security_rbsg_mid_key_rotation_crash_recovers() {
    let mk = || SecurityRbsg::new(SecurityRbsgConfig::small(4, 2));
    let writes = trace(16, 600, 8);

    // Probe: find a step at which the DFN is mid-round, by replaying the
    // crash-free run and checking the phase after each step count.
    let mut probe = fresh(&mk);
    let mut mid_round_step = None;
    for &(la, data) in &writes {
        let before = probe.scheme().steps_logged();
        probe.write(la, data);
        let after = probe.scheme().steps_logged();
        if after > before && probe.scheme().scheme().dfn().parked().is_some() {
            mid_round_step = Some(after);
            break;
        }
    }
    let at_step = mid_round_step.expect("trace never caught the DFN mid-round");

    let mut hit = 0;
    for mode in MODES {
        if check_crash(&mk, &writes, CrashPlan { at_step, mode }).is_some() {
            hit += 1;
        }
    }
    assert_eq!(hit, MODES.len() as u64, "every mode must fire mid-round");
}

/// Exhaustive sweep: every scheme, every step, every mode. Heavy — run
/// with `cargo test -- --ignored`.
#[test]
#[ignore]
fn exhaustive_crash_sweep_all_schemes() {
    sweep(&(|| StartGap::start_gap(16, 3)), &trace(16, 400, 21), true);
    sweep(
        &(|| {
            let mut rng = StdRng::seed_from_u64(5);
            Rbsg::with_feistel(&mut rng, 5, 4, 3)
        }),
        &trace(32, 500, 22),
        true,
    );
    sweep(
        &(|| SecurityRefresh::new(32, 4, 3, 7)),
        &trace(32, 500, 23),
        true,
    );
    sweep(
        &(|| TwoLevelSr::new(32, 4, 3, 6, 9)),
        &trace(32, 500, 24),
        true,
    );
    sweep(
        &(|| MultiWaySr::new(32, 4, 3, 6, 11)),
        &trace(32, 500, 25),
        true,
    );
    sweep(
        &(|| SecurityRbsg::new(SecurityRbsgConfig::small(4, 2))),
        &trace(16, 600, 26),
        true,
    );
}
