//! The checkpoint policy and the dual-slot installation protocol, probed
//! directly: the policy's step bound holds at every point of a workload,
//! a checkpoint racing a power cut is a typed error, and each of the
//! three checkpoint-phase crash points recovers to the correct snapshot.

use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, TimingModel, WearLeveler};
use srbsg_persist::{
    parse_journal, write_crashable, CheckpointPolicy, CrashMode, CrashPlan, Journaled,
    PersistError, Record, MAX_STEPS_PER_WRITE,
};
use srbsg_wearlevel::StartGap;

fn srbsg() -> SecurityRbsg {
    SecurityRbsg::new(SecurityRbsgConfig::small(4, 2))
}

fn mc_with(policy: CheckpointPolicy) -> MemoryController<Journaled<SecurityRbsg>> {
    MemoryController::new(
        Journaled::new(srbsg(), policy),
        u64::MAX,
        TimingModel::PAPER,
    )
}

/// `Step` records currently in a journal byte string.
fn journal_steps(journal: &[u8]) -> u64 {
    parse_journal(journal)
        .expect("crash-free journal parses")
        .records
        .iter()
        .filter(|r| matches!(r, Record::Step { .. }))
        .count() as u64
}

#[test]
fn step_policy_bounds_the_journal_at_every_point() {
    for k in [1u64, 2, 4, 8, 16] {
        let mut mc = mc_with(CheckpointPolicy::every_steps(k));
        let slo = CheckpointPolicy::every_steps(k).slo_steps().unwrap();
        assert_eq!(slo, k.max(MAX_STEPS_PER_WRITE));
        for i in 0..800u64 {
            mc.write(i % 16, LineData::Mixed(i as u32));
            // The SLO invariant: at *no* point between writes may the
            // journal hold more steps than a recovery is promised to
            // replay.
            let steps = journal_steps(&mc.scheme().store().journal);
            assert!(
                steps <= slo,
                "K={k}: journal holds {steps} steps after write {i}, SLO {slo}"
            );
        }
        assert!(
            mc.scheme().checkpoints_installed() > 0,
            "K={k}: policy never fired"
        );
        // The durability overhead is visible and monotone in checkpoints.
        assert!(mc.scheme().checkpoint_bytes_written() > 0);
    }
}

#[test]
fn checkpoint_after_power_loss_is_typed_not_a_panic() {
    let mut jw = Journaled::new(srbsg(), CheckpointPolicy::default());
    jw.power_cut();
    assert_eq!(jw.checkpoint(), Err(PersistError::PowerLost));
}

#[test]
fn default_policy_never_checkpoints() {
    let mut mc = MemoryController::new(
        Journaled::new(srbsg(), CheckpointPolicy::default()),
        u64::MAX,
        TimingModel::PAPER,
    );
    for i in 0..400u64 {
        mc.write(i % 16, LineData::Mixed(i as u32));
    }
    assert_eq!(mc.scheme().checkpoints_installed(), 0);
    assert!(
        !mc.scheme().store().journal.is_empty(),
        "an unbounded journal must accumulate"
    );
}

#[test]
fn explicit_checkpoint_empties_journal_and_recovery_replays_nothing() {
    let mut mc = MemoryController::new(
        Journaled::new(srbsg(), CheckpointPolicy::default()),
        u64::MAX,
        TimingModel::PAPER,
    );
    for i in 0..300u64 {
        mc.write(i % 16, LineData::Mixed(i as u32));
    }
    assert!(mc.scheme().steps_logged() > 0);
    let (mut jw, mut bank) = mc.into_parts();
    jw.checkpoint().unwrap();
    assert!(jw.store().journal.is_empty());
    jw.power_cut();
    let store = jw.into_store();
    let (_, report) =
        Journaled::<SecurityRbsg>::recover(&store, &mut bank, CheckpointPolicy::default(), None)
            .unwrap();
    assert_eq!(report.replayed_steps, 0);
    assert_eq!(report.journal_bytes, 0);
    assert!(report.snapshot_bytes > 0);
}

/// Drive a journaled controller into a checkpoint-phase crash and return
/// the surviving store plus the bank.
fn crash_at_checkpoint(mode: CrashMode) -> (srbsg_persist::Store, srbsg_pcm::PcmBank, u64) {
    let mut mc = mc_with(CheckpointPolicy::every_steps(4));
    mc.scheme_mut()
        .set_crash_plan(CrashPlan { at_step: 1, mode });
    let mut writes_acked = 0u64;
    for i in 0..600u64 {
        match write_crashable(&mut mc, i % 16, LineData::Mixed(i as u32)) {
            Ok(_) => writes_acked += 1,
            Err(srbsg_pcm::PcmError::PowerLost) => break,
            Err(e) => panic!("unexpected: {e:?}"),
        }
    }
    let (jw, bank) = mc.into_parts();
    assert!(jw.crashed(), "{mode:?} never fired");
    (jw.into_store(), bank, writes_acked)
}

#[test]
fn torn_snapshot_leaves_previous_checkpoint_authoritative() {
    let (store, mut bank, _) = crash_at_checkpoint(CrashMode::CheckpointTornSnapshot);
    // The inactive slot holds a torn snapshot; the marker still names the
    // old one.
    let (_, report) =
        Journaled::<SecurityRbsg>::recover(&store, &mut bank, CheckpointPolicy::default(), None)
            .unwrap();
    assert!(!report.marker_fallback);
    assert!(
        report.replayed_steps > 0,
        "journal replays onto old snapshot"
    );
}

#[test]
fn torn_marker_falls_back_to_newest_decodable_slot() {
    let (store, mut bank, _) = crash_at_checkpoint(CrashMode::CheckpointTornMarker);
    assert!(store.active_slot().is_none(), "marker must be torn");
    let (_, report) =
        Journaled::<SecurityRbsg>::recover(&store, &mut bank, CheckpointPolicy::default(), None)
            .unwrap();
    assert!(report.marker_fallback);
    // The fully-written new snapshot wins; the whole journal is stale.
    assert_eq!(report.replayed_steps, 0);
    assert!(report.skipped_steps > 0);
}

#[test]
fn untruncated_journal_is_skipped_as_a_stale_prefix() {
    let (store, mut bank, _) = crash_at_checkpoint(CrashMode::CheckpointNotTruncated);
    assert!(store.active_slot().is_some(), "marker flip completed");
    assert!(
        !store.journal.is_empty(),
        "journal must be stale, not empty"
    );
    let (jw, report) =
        Journaled::<SecurityRbsg>::recover(&store, &mut bank, CheckpointPolicy::default(), None)
            .unwrap();
    assert!(!report.marker_fallback);
    assert_eq!(report.replayed_steps, 0);
    assert!(report.skipped_steps > 0);
    // The recovered store is normalized: the stale prefix is gone.
    assert!(jw.store().journal.is_empty());
}

#[test]
fn recovery_with_a_policy_rearms_and_starts_from_a_checkpoint() {
    let mut mc = mc_with(CheckpointPolicy::every_steps(4));
    for i in 0..300u64 {
        mc.write(i % 16, LineData::Mixed(i as u32));
    }
    let (mut jw, mut bank) = mc.into_parts();
    jw.power_cut();
    let store = jw.into_store();
    let policy = CheckpointPolicy::every_steps(4);
    let (jw2, _) = Journaled::<SecurityRbsg>::recover(&store, &mut bank, policy, None).unwrap();
    assert_eq!(jw2.checkpoint_policy(), policy);
    // Recovery itself checkpointed: the next crash replays nothing of the
    // pre-crash history.
    assert!(jw2.store().journal.is_empty());
    assert_eq!(jw2.steps_since_checkpoint(), 0);
}

#[test]
fn rekeyed_recovery_with_policy_absorbs_the_rekey_burst() {
    let mut mc = mc_with(CheckpointPolicy::every_steps(4));
    for i in 0..300u64 {
        mc.write(i % 16, LineData::Mixed(i as u32));
    }
    let (mut jw, mut bank) = mc.into_parts();
    jw.power_cut();
    let store = jw.into_store();
    let policy = CheckpointPolicy::every_steps(4);
    let (jw2, report) =
        Journaled::<SecurityRbsg>::recover(&store, &mut bank, policy, Some(0xD00D)).unwrap();
    assert!(report.reseeded);
    assert!(report.rekey_movements > 0);
    // The rekey burst journals far more than K steps in one go; the
    // post-recovery checkpoint absorbs it so the SLO holds from the very
    // first post-restart write.
    assert!(jw2.store().journal.is_empty());
}

#[test]
fn rekeyed_recovery_without_a_policy_journals_the_burst_for_replay() {
    let mut mc = mc_with(CheckpointPolicy::default());
    for i in 0..300u64 {
        mc.write(i % 16, LineData::Mixed(i as u32));
    }
    let (mut jw, mut bank) = mc.into_parts();
    jw.power_cut();
    let store = jw.into_store();
    let none = CheckpointPolicy::default();
    let (rekeyed, report) =
        Journaled::<SecurityRbsg>::recover(&store, &mut bank, none, Some(0xD00D)).unwrap();
    assert!(report.reseeded);
    assert!(report.rekey_movements > 0);
    // No policy, so no post-recovery checkpoint: the `Reseed` record and
    // the burst's steps stay in the journal ...
    assert_eq!(rekeyed.checkpoints_installed(), 0);
    let records = parse_journal(&rekeyed.store().journal).unwrap().records;
    assert!(records.iter().any(|r| matches!(r, Record::Reseed { .. })));
    assert!(journal_steps(&rekeyed.store().journal) > 0);
    // ... and replaying them restores the re-keyed mapping.
    let (again, _) =
        Journaled::<SecurityRbsg>::recover(rekeyed.store(), &mut bank, none, None).unwrap();
    for la in 0..16 {
        assert_eq!(again.translate(la), rekeyed.translate(la), "line {la}");
    }
}

#[test]
fn an_unjournaled_rekey_burst_leaves_the_bank_the_journaled_one_does() {
    let mut mc = MemoryController::new(
        Journaled::new(
            SecurityRbsg::new(SecurityRbsgConfig::small(6, 4)),
            CheckpointPolicy::every_steps(8),
        ),
        u64::MAX,
        TimingModel::PAPER,
    );
    // Stop mid-round (two re-key rounds) and on a round boundary (one).
    for writes in [997u64, 0] {
        for i in 0..writes {
            mc.write((i * 7) % 64, LineData::Mixed(i as u32 + 1));
        }
        let (jw, bank) = mc.into_parts();
        let store = jw.into_store();
        let policy = CheckpointPolicy::every_steps(8);
        let (mut journaled_bank, mut volatile_bank) = (bank.clone(), bank);
        let (journaled, jr) =
            Journaled::<SecurityRbsg>::recover(&store, &mut journaled_bank, policy, Some(0xD00D))
                .unwrap();
        let (volatile, vr) = Journaled::<SecurityRbsg>::recover_rekeyed_unjournaled(
            &store,
            &mut volatile_bank,
            0xD00D,
            policy,
        )
        .unwrap();
        assert!(jr.rekey_movements > 0);
        assert_eq!(vr.rekey_movements, jr.rekey_movements);
        assert!(vr.reseeded);
        for slot in 0..journaled_bank.slots() {
            assert_eq!(
                volatile_bank.read_line(slot),
                journaled_bank.read_line(slot)
            );
            assert_eq!(volatile_bank.wear_of(slot), journaled_bank.wear_of(slot));
        }
        for la in 0..64 {
            assert_eq!(volatile.translate(la), journaled.translate(la), "line {la}");
        }
        // The burst journaled nothing: the store is one checkpoint with an
        // empty journal, and recovering it restores the re-keyed mapping.
        assert!(volatile.store().journal.is_empty());
        assert_eq!(volatile.checkpoint_policy(), policy);
        let (again, _) = Journaled::<SecurityRbsg>::recover(
            volatile.store(),
            &mut volatile_bank,
            CheckpointPolicy::default(),
            None,
        )
        .unwrap();
        for la in 0..64 {
            assert_eq!(again.translate(la), journaled.translate(la), "line {la}");
        }
        mc = MemoryController::from_bank(journaled, journaled_bank);
    }
}

#[test]
fn policy_works_for_single_level_schemes_too() {
    let policy = CheckpointPolicy::every_steps(2);
    let mut mc = MemoryController::new(
        Journaled::new(StartGap::start_gap(16, 3), policy),
        u64::MAX,
        TimingModel::PAPER,
    );
    for i in 0..300u64 {
        mc.write(i % 16, LineData::Mixed(i as u32));
        let steps = journal_steps(&mc.scheme().store().journal);
        assert!(steps <= policy.slo_steps().unwrap());
    }
    assert!(mc.scheme().checkpoints_installed() > 0);
}
