//! Remapping-timing-attack resistance across power cycles.
//!
//! The strongest position the paper's attacker can reach is full knowledge
//! of the current LA → PA mapping (e.g. by running the RTA to completion
//! just before a power failure). If recovery merely restores the journaled
//! metadata, that knowledge survives the reboot intact — the attacker can
//! freeze the mapping by cycling power whenever a re-keying round
//! approaches. [`Journaled::recover`] given a re-key seed closes the hole:
//! recovery reseeds the DFN's key RNG (journaled, so the recovery itself stays
//! replayable) and bursts outer movements until freshly drawn keys fully
//! determine the mapping.

use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, TimingModel};
use srbsg_persist::{write_crashable, CheckpointPolicy, CrashMode, CrashPlan, Journaled};

fn run_to_crash(
    at_step: u64,
    mode: CrashMode,
) -> (
    Vec<u64>,
    srbsg_persist::Store,
    srbsg_pcm::PcmBank,
    std::collections::HashMap<u64, LineData>,
) {
    let mut cfg = SecurityRbsgConfig::small(4, 2);
    cfg.seed = 0xDEAD;
    let mut mc = MemoryController::new(
        Journaled::new(SecurityRbsg::new(cfg), CheckpointPolicy::default()),
        u64::MAX,
        TimingModel::PAPER,
    );
    mc.scheme_mut().set_crash_plan(CrashPlan { at_step, mode });
    let lines = mc.logical_lines();
    let mut acked = std::collections::HashMap::new();
    for i in 0..100_000u64 {
        let la = i % lines;
        let data = LineData::Mixed(i as u32);
        match write_crashable(&mut mc, la, data) {
            Ok(_) => {
                acked.insert(la, data);
            }
            Err(srbsg_pcm::PcmError::PowerLost) => break,
            Err(e) => panic!("{e:?}"),
        }
    }
    assert!(mc.scheme().crashed(), "crash plan never fired");
    // The attacker's prize: the full translation table at the instant the
    // power died (white-box stand-in for a completed RTA).
    let learned: Vec<u64> = (0..lines).map(|la| mc.translate(la)).collect();
    let (jw, bank) = mc.into_parts();
    (learned, jw.into_store(), bank, acked)
}

fn overlap(learned: &[u64], mc: &MemoryController<Journaled<SecurityRbsg>>) -> f64 {
    let hits = learned
        .iter()
        .enumerate()
        .filter(|&(la, &slot)| mc.translate(la as u64) == slot)
        .count();
    hits as f64 / learned.len() as f64
}

#[test]
fn plain_recovery_preserves_the_learned_mapping() {
    // Baseline: without re-randomization the attacker's knowledge survives
    // the power cycle perfectly — this is exactly the hole.
    let (learned, store, mut bank, _) =
        run_to_crash(40, CrashMode::AfterCommit { extra_writes: 0 });
    let (jw, report) =
        Journaled::<SecurityRbsg>::recover(&store, &mut bank, CheckpointPolicy::default(), None)
            .unwrap();
    assert!(!report.reseeded);
    assert_eq!(report.rekey_movements, 0);
    let mc = MemoryController::from_bank(jw, bank);
    assert_eq!(overlap(&learned, &mc), 1.0);
}

#[test]
fn rekeyed_recovery_invalidates_the_learned_mapping() {
    for (at_step, mode) in [
        // Quiet-point crash (round boundary or mid-round, wherever step 40
        // lands) and a torn mid-remap crash.
        (40, CrashMode::AfterCommit { extra_writes: 0 }),
        (25, CrashMode::TornRecord),
        (33, CrashMode::HalfApplied),
    ] {
        let (learned, store, mut bank, acked) = run_to_crash(at_step, mode);
        let (jw, report) = Journaled::<SecurityRbsg>::recover(
            &store,
            &mut bank,
            CheckpointPolicy::default(),
            Some(0xF5E5),
        )
        .unwrap();
        assert!(report.reseeded);
        assert!(
            report.rekey_movements > 0,
            "rekey must drive remap work, mode {mode:?}"
        );
        let mut mc = MemoryController::from_bank(jw, bank);

        // The attacker's table is now mostly wrong: with 16 lines a full
        // re-randomized round leaves expected overlap ~1/16; anything
        // below half rules out a frozen mapping.
        let frac = overlap(&learned, &mc);
        assert!(
            frac < 0.5,
            "attacker still knows {:.0}% of the mapping after rekeyed recovery ({mode:?})",
            frac * 100.0
        );

        // Re-randomization must not cost durability: every acknowledged
        // write still reads back, and the mapping is still a bijection.
        for (&la, &data) in &acked {
            assert_eq!(mc.read(la).0, data, "acked write lost during rekey");
        }
        let mut seen = std::collections::HashSet::new();
        for la in 0..mc.logical_lines() {
            assert!(seen.insert(mc.translate(la)));
        }
    }
}

#[test]
fn repeated_power_cycles_cannot_freeze_the_mapping() {
    // The attack the paper's §V worries about, lifted to power cycles: the
    // attacker reboots the machine over and over, hoping recovery pins the
    // mapping in place. With rekeyed recovery every cycle draws fresh keys.
    let mut cfg = SecurityRbsgConfig::small(4, 2);
    cfg.seed = 7;
    let mut mc = MemoryController::new(
        Journaled::new(SecurityRbsg::new(cfg), CheckpointPolicy::default()),
        u64::MAX,
        TimingModel::PAPER,
    );
    let lines = mc.logical_lines();
    let mut tables: Vec<Vec<u64>> = Vec::new();
    for cycle in 0..4u64 {
        // A little traffic, then an orderly (attacker-triggered) power cut.
        for i in 0..64u64 {
            mc.write(i % lines, LineData::Mixed((cycle * 100 + i) as u32));
        }
        let (mut jw, mut bank) = mc.into_parts();
        jw.power_cut();
        let store = jw.into_store();
        let (jw2, _) = Journaled::<SecurityRbsg>::recover(
            &store,
            &mut bank,
            CheckpointPolicy::default(),
            Some(0x1000 + cycle),
        )
        .unwrap();
        mc = MemoryController::from_bank(jw2, bank);
        tables.push((0..lines).map(|la| mc.translate(la)).collect());
    }
    // Every post-recovery mapping differs from every other: the reboot
    // loop buys the attacker nothing.
    for i in 0..tables.len() {
        for j in i + 1..tables.len() {
            assert_ne!(tables[i], tables[j], "cycles {i} and {j} share a mapping");
        }
    }
}
