//! Delta-log properties of the disk shelf, on fault-injecting in-memory
//! media: a load always returns the device of the last successful commit,
//! whether that commit was a log record or a checkpoint; torn log tails
//! are ignored; a record rotten in one log copy is read from the other;
//! load never rewrites a log copy, so a crash during it loses nothing;
//! rot in both copies of a committed record is a typed error; and a
//! failed append never loses the batch it was committing.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
use srbsg_pcm::{LineData, MemoryController, MultiBankSystem, TimingModel};
use srbsg_persist::{
    CheckpointPolicy, FaultKind, FaultPlan, FaultyMedia, Journaled, Media, MemMedia, PersistError,
    SharedMedia,
};
use srbsg_serve::ServeConfig;
use srbsg_server::{
    checkpoint_with_healing, commit_with_healing, restore, CommitStamp, DiskShelf, RetryPolicy,
    SaveOutcome, ServerScheme, ShelfError, ShelfScrub, ShelfState, SHELF_LOGS,
};
use std::time::Duration;

type Handle = SharedMedia<FaultyMedia<MemMedia>>;

/// Whether a loaded image holds the device `want` captured: the same
/// counters, lines and wear, and, restored with the one re-key seed their
/// stamps derive, banks that agree on every line, wear value and
/// translated slot. A load's stores differ from the live ones (replayed
/// log steps leave one snapshot), so the images are not compared byte for
/// byte. Returns the first difference.
fn same_device(got: &ShelfState, want: &ShelfState) -> Result<(), String> {
    let header = |s: &ShelfState| (s.save_seq, s.generation, s.seed, s.now_ns, s.acked_writes);
    if header(got) != header(want) {
        return Err(format!("header {:?} != {:?}", header(got), header(want)));
    }
    if got.banks.len() != want.banks.len() {
        return Err("bank count".into());
    }
    for (b, (g, w)) in got.banks.iter().zip(&want.banks).enumerate() {
        if (g.slots, g.sram_slot, &g.data, &g.wear) != (w.slots, w.sram_slot, &w.data, &w.wear) {
            return Err(format!("bank {b}: lines or wear differ"));
        }
    }
    let policy = CheckpointPolicy::every_steps(8);
    let [g, w] = [got, want].map(|s| restore(s, policy, ServeConfig::default()).unwrap().0);
    let banks = g.system().banks().iter().zip(w.system().banks());
    for (b, (g, w)) in banks.enumerate() {
        for slot in 0..g.bank().slots() {
            let at = |mc: &srbsg_pcm::MemoryController<ServerScheme>| {
                (mc.bank().read_line(slot), mc.bank().wear_of(slot))
            };
            if at(g) != at(w) {
                return Err(format!("restored bank {b} slot {slot}"));
            }
        }
        if let Some(la) = (0..g.logical_lines()).find(|&la| g.translate(la) != w.translate(la)) {
            return Err(format!("restored bank {b} maps line {la} apart"));
        }
    }
    Ok(())
}

const RETRY: RetryPolicy = RetryPolicy {
    max_attempts: 4,
    base_backoff: Duration::ZERO,
    sleep: false,
};

/// A serving device of two journaled Security RBSG banks of `2^width`
/// lines, its shelf on shared faulty media, and the engine's counters.
struct Rig {
    sys: MultiBankSystem<ServerScheme>,
    shelf: DiskShelf,
    handle: Handle,
    stamp: CommitStamp,
    rng: StdRng,
}

impl Rig {
    /// Build the device and checkpoint it, as boot does.
    fn new(seed: u64, width: u32) -> Self {
        let banks = (0..2u64)
            .map(|b| {
                let mut c = SecurityRbsgConfig::small(width, 2);
                c.seed = seed ^ b;
                MemoryController::new(
                    Journaled::with_policy(SecurityRbsg::new(c), CheckpointPolicy::every_steps(8)),
                    u64::MAX,
                    TimingModel::PAPER,
                )
            })
            .collect();
        let handle = SharedMedia::new(FaultyMedia::new(MemMedia::new()));
        let mut rig = Self {
            sys: MultiBankSystem::from_controllers(banks),
            shelf: DiskShelf::with_media(Box::new(handle.clone())),
            handle,
            stamp: CommitStamp {
                save_seq: 1,
                seed,
                ..CommitStamp::default()
            },
            rng: StdRng::seed_from_u64(seed),
        };
        let boot = checkpoint_with_healing(&mut rig.shelf, &mut rig.sys, rig.stamp, &RETRY);
        assert_eq!(boot, SaveOutcome::Saved { attempts: 1 });
        rig
    }

    /// Apply `n` random writes to the device.
    fn write(&mut self, n: usize) {
        let lines = self.sys.logical_lines();
        for _ in 0..n {
            let la = self.rng.random::<u64>() % lines;
            let tag = self.rng.random::<u32>();
            self.sys.try_write(la, LineData::Mixed(tag)).unwrap();
        }
        self.stamp.acked_writes += n as u64;
    }

    /// Commit the device, as the engine does after a batch.
    fn commit(&mut self) -> SaveOutcome {
        self.stamp.save_seq += 1;
        commit_with_healing(&mut self.shelf, &mut self.sys, self.stamp, &RETRY)
    }

    /// Force a checkpoint at the next commit point.
    fn checkpoint(&mut self) -> SaveOutcome {
        self.stamp.save_seq += 1;
        checkpoint_with_healing(&mut self.shelf, &mut self.sys, self.stamp, &RETRY)
    }

    /// The image the last commit promised.
    fn expected(&self) -> ShelfState {
        ShelfState::capture(&self.sys, self.stamp)
    }

    /// Load from the medium as a restarted process would.
    fn reload(&self) -> Result<(ShelfState, ShelfScrub), ShelfError> {
        Ok(DiskShelf::with_media(Box::new(self.handle.clone()))
            .load()?
            .expect("the shelf holds a checkpoint"))
    }

    /// Restart the shelf as a new process would: open the medium and
    /// load it. The device keeps its state, as if recovery rebuilt it.
    fn restart(&mut self) {
        self.shelf = DiskShelf::with_media(Box::new(self.handle.clone()));
        self.shelf
            .load()
            .unwrap()
            .expect("the shelf holds a checkpoint");
    }

    /// Both log copies, as the medium holds them now.
    fn logs(&self) -> [Vec<u8>; 2] {
        SHELF_LOGS.map(|name| {
            self.handle
                .with(|m| m.read(name).unwrap())
                .unwrap_or_default()
        })
    }

    /// Replace both log copies, durably.
    fn set_logs(&self, a: &[u8], b: &[u8]) {
        self.handle.with(|m| {
            m.write(SHELF_LOGS[0], a).unwrap();
            m.write(SHELF_LOGS[1], b).unwrap();
            m.sync().unwrap();
        });
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random batches, log commits and forced checkpoints on a small
    /// device: after every commit, and after a power cut at the end, a
    /// fresh load returns the device captured at that commit.
    #[test]
    fn load_equals_capture_at_the_last_commit(
        seed in any::<u64>(),
        steps in proptest::collection::vec((0usize..40, 0u8..6), 1..20),
    ) {
        let mut rig = Rig::new(seed, 4);
        for (n, action) in steps {
            rig.write(n);
            let outcome = if action == 0 { rig.checkpoint() } else { rig.commit() };
            prop_assert!(matches!(outcome, SaveOutcome::Saved { .. }));
            let (back, scrub) = rig.reload().unwrap();
            prop_assert_eq!(same_device(&back, &rig.expected()), Ok(()));
            prop_assert!(!scrub.healed());
        }
        rig.handle.with(|m| m.power_cut());
        prop_assert_eq!(same_device(&rig.reload().unwrap().0, &rig.expected()), Ok(()));
    }

    /// A checkpoint encodes its image straight from the live banks (one
    /// of them with an SRAM-backed slot): byte for byte what saving the
    /// captured image writes, after any mix of batches and log commits.
    #[test]
    fn the_streamed_checkpoint_is_the_captured_image_byte_for_byte(
        seed in any::<u64>(),
        steps in proptest::collection::vec((0usize..40, 0u8..4), 1..12),
    ) {
        let mut rig = Rig::new(seed, 5);
        prop_assert!(rig.sys.banks().iter().any(|mc| mc.bank().sram_slot().is_some()));
        for (n, action) in steps {
            rig.write(n);
            if action != 0 {
                prop_assert!(matches!(rig.commit(), SaveOutcome::Saved { .. }));
                continue;
            }
            prop_assert_eq!(rig.checkpoint(), SaveOutcome::Saved { attempts: 1 });
            let streamed = rig.handle.with(|m| m.read("state.a").unwrap().unwrap());
            let captured = SharedMedia::new(MemMedia::new());
            DiskShelf::with_media(Box::new(captured.clone()))
                .save(&rig.expected())
                .unwrap();
            prop_assert_eq!(streamed, captured.with(|m| m.read("state.a").unwrap().unwrap()));
        }
    }
}

#[test]
fn a_commit_appends_bytes_proportional_to_the_batch() {
    let mut rig = Rig::new(7, 12);
    let checkpoint = rig.handle.with(|m| m.read("state.a").unwrap().unwrap());
    for _ in 0..20 {
        let before = rig.logs()[0].len();
        rig.write(8);
        assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
        // Dirty slots plus a few bytes per remap step: far below the
        // device image.
        let grew = rig.logs()[0].len() - before;
        let image = checkpoint.len();
        assert!(
            grew > 0 && grew < image / 16,
            "{grew} B for 8 writes, image {image} B"
        );
    }
    let after = rig.handle.with(|m| m.read("state.a").unwrap().unwrap());
    assert_eq!(after, checkpoint, "log commits leave the checkpoint alone");
    assert_eq!(rig.logs()[0], rig.logs()[1], "the log copies are twins");
    same_device(&rig.reload().unwrap().0, &rig.expected()).unwrap();
}

#[test]
fn the_log_is_checkpointed_once_it_reaches_the_image_size() {
    let mut rig = Rig::new(11, 4);
    let mut checkpoints = 0;
    for _ in 0..40 {
        rig.write(6);
        let ckpt_before = rig.handle.with(|m| m.read("state.a").unwrap());
        assert!(matches!(rig.commit(), SaveOutcome::Saved { .. }));
        // The documented rule: a record is appended only while the log
        // stays below the checkpoint image it continues.
        let log = rig.logs()[0].len();
        let image = rig
            .handle
            .with(|m| m.read("state.a").unwrap().unwrap())
            .len();
        assert!(log < image, "log of {log} B reached a {image} B image");
        if rig.handle.with(|m| m.read("state.a").unwrap()) != ckpt_before {
            checkpoints += 1;
            assert_eq!(log, 0, "a checkpoint empties the log");
        }
    }
    assert!(checkpoints > 0, "the log never outgrew the image");
    same_device(&rig.reload().unwrap().0, &rig.expected()).unwrap();
}

#[test]
fn every_prefix_truncation_of_the_log_tail_loads_the_last_whole_record() {
    let mut rig = Rig::new(3, 8);
    let mut expected = vec![rig.expected()];
    let mut ends = vec![0];
    for _ in 0..4 {
        rig.write(5);
        assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
        expected.push(rig.expected());
        ends.push(rig.logs()[0].len());
    }
    let full = rig.logs()[0].clone();
    for cut in 0..=full.len() {
        let whole = ends.iter().rposition(|&e| e <= cut).unwrap();
        // A torn append in both copies; a torn append to the first copy
        // before the second was ever written; and the second copy torn
        // while the first holds every record — a record only commits
        // once both copies hold it whole.
        for (a_len, b_len) in [(cut, cut), (cut, ends[whole]), (full.len(), cut)] {
            rig.set_logs(&full[..a_len], &full[..b_len]);
            let (back, scrub) = rig.reload().unwrap_or_else(|e| panic!("cut {cut}: {e}"));
            same_device(&back, &expected[whole])
                .unwrap_or_else(|e| panic!("cut {cut} (a {a_len}, b {b_len}): {e}"));
            assert_eq!(scrub.dropped_tail, a_len != ends[whole], "cut {cut}");
            assert_eq!(scrub.healed_log, None, "cut {cut}: a torn tail is not rot");
            // Load left the log as it was, so a second load agrees.
            assert_eq!(
                rig.logs(),
                [&full[..a_len], &full[..b_len]].map(<[u8]>::to_vec)
            );
            rig.handle.with(|m| m.power_cut());
            assert_eq!(rig.reload().unwrap(), (back, scrub), "cut {cut}");
        }
    }
}

#[test]
fn a_record_rotten_in_one_log_copy_is_read_from_its_twin() {
    for (copy, seed) in [(0, 1u64), (1, 2), (0, 3), (1, 4), (0, 5), (1, 6)] {
        let mut rig = Rig::new(seed, 8);
        for _ in 0..5 {
            rig.write(4);
            assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
        }
        rig.handle.with(|m| {
            m.inner_mut().rot_durable(SHELF_LOGS[copy], seed * 977, 1);
            m.power_cut();
        });
        let rotten = rig.logs();
        let (back, scrub) = rig.reload().unwrap();
        same_device(&back, &rig.expected())
            .unwrap_or_else(|e| panic!("copy {copy} seed {seed}: {e}"));
        assert_eq!(scrub.healed_log, Some(copy));
        assert_eq!(rig.logs(), rotten, "load leaves the log copies alone");
        // The checkpoint that follows a load replaces both copies.
        assert_eq!(rig.checkpoint(), SaveOutcome::Saved { attempts: 1 });
        let (again, scrub) = rig.reload().unwrap();
        same_device(&again, &rig.expected()).unwrap();
        assert!(!scrub.healed(), "the checkpoint cleared the damage");
        assert_eq!(rig.logs(), [vec![], vec![]]);
    }
}

#[test]
fn a_crash_during_a_load_of_a_damaged_log_loses_nothing() {
    let mut rig = Rig::new(29, 8);
    for _ in 0..4 {
        rig.write(4);
        assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
    }
    let committed = rig.expected();
    let full = rig.logs()[0].clone();
    // One more record, to tear.
    rig.write(4);
    assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
    let next = rig.logs()[0].clone();
    let half = &next[..full.len() + (next.len() - full.len()) / 2];
    let mut rotten = full.clone();
    rotten[full.len() / 3] ^= 0x10;
    // A kill between the two appends of the last record leaves it in
    // `log.a` (whole or torn) but not in `log.b`; rot hits either copy.
    let damage: [(&[u8], &[u8]); 4] = [
        (&next, &full),
        (half, &full),
        (&rotten, &full),
        (&full, &rotten),
    ];
    for (case, (a, b)) in damage.into_iter().enumerate() {
        rig.set_logs(a, b);
        // A fresh fault injector on the same image, with a short write
        // armed on its first write or append: any log rewrite the load
        // tried would be cut short, and the process killed there. What
        // reached the medium stays; then a power cut drops what was not
        // synced.
        let handle = SharedMedia::new(FaultyMedia::new(rig.handle.with(|m| m.inner().clone())));
        let mut plan = FaultPlan::new(FaultKind::ShortWrite, 1);
        plan.seed = case as u64;
        handle.with(|m| m.set_plan(plan));
        let first = DiskShelf::with_media(Box::new(handle.clone())).load();
        for cut in [false, true] {
            if cut {
                handle.with(|m| m.power_cut());
            }
            let (again, _) = DiskShelf::with_media(Box::new(handle.clone()))
                .load()
                .unwrap()
                .unwrap();
            same_device(&again, &committed).unwrap_or_else(|e| {
                panic!("case {case} cut {cut}: a later load lost commits: {e}")
            });
        }
        same_device(&first.unwrap().unwrap().0, &committed)
            .unwrap_or_else(|e| panic!("case {case}: {e}"));
        assert_eq!(
            handle.with(|m| m.stats().fired),
            0,
            "case {case}: load wrote"
        );
    }
}

#[test]
fn both_copies_of_a_committed_record_rotten_is_a_typed_error() {
    let mut rig = Rig::new(9, 8);
    for _ in 0..3 {
        rig.write(4);
        assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
    }
    let full = rig.logs()[0].clone();
    for at in (0..full.len()).step_by(7) {
        for (bit_a, bit_b) in [(0, 0), (3, 6)] {
            let mut a = full.clone();
            let mut b = full.clone();
            a[at] ^= 1 << bit_a;
            b[at] ^= 1 << bit_b;
            rig.set_logs(&a, &b);
            match rig.reload() {
                Err(ShelfError::Decode(PersistError::Corrupt(_))) => {}
                other => panic!("byte {at}: expected a typed decode error, got {other:?}"),
            }
        }
    }
}

#[test]
fn a_log_that_skips_a_commit_is_a_typed_error() {
    let mut rig = Rig::new(17, 8);
    let mut ends = vec![0];
    for _ in 0..3 {
        rig.write(4);
        assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
        ends.push(rig.logs()[0].len());
    }
    // Drop the middle record from both copies: every frame is whole, but
    // the third record does not continue the first.
    let full = rig.logs()[0].clone();
    let gapped = [&full[..ends[1]], &full[ends[2]..]].concat();
    rig.set_logs(&gapped, &gapped);
    match rig.reload() {
        Err(ShelfError::Decode(PersistError::Corrupt(_))) => {}
        other => panic!("expected a typed decode error, got {other:?}"),
    }
}

#[test]
fn a_failed_append_never_loses_the_batch_it_was_committing() {
    // (fault, burst, whether the fallback checkpoint heals it at once)
    let cases = [
        (FaultKind::ShortWrite, 1, 1, true),
        (FaultKind::ShortWrite, 2, 1, true),
        (FaultKind::TransientIo, 1, 1, true),
        (FaultKind::TransientIo, 2, 3, true),
        (FaultKind::TransientIo, 1, 5, false),
    ];
    for (kind, nth, burst, heals) in cases {
        let mut rig = Rig::new(21, 8);
        rig.write(4);
        assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
        // Boot wrote two checkpoint temporaries and the first commit
        // appended twice: arm the `nth` append of the next commit.
        let mut plan = FaultPlan::new(kind, 4 + nth);
        plan.burst = burst;
        plan.seed = 77;
        rig.handle.with(|m| m.set_plan(plan));
        rig.write(6);
        let committed = rig.stamp;
        match rig.commit() {
            SaveOutcome::Saved { attempts } => {
                assert!(heals, "{kind:?}: expected the fallback to fail");
                assert!(attempts >= 2, "{kind:?}: the failed append counts");
            }
            SaveOutcome::Failed(e) => {
                assert!(!heals && e.is_transient(), "{kind:?}: {e}");
                // The engine refuses the acks; retrying the same batch
                // must still land every slot the failed attempt consumed.
                rig.stamp = committed;
                assert!(matches!(rig.commit(), SaveOutcome::Saved { .. }));
            }
            other => panic!("{kind:?}: unexpected {other:?}"),
        }
        let batch = rig.expected();
        rig.handle.with(|m| m.power_cut());
        same_device(&rig.reload().unwrap().0, &batch)
            .unwrap_or_else(|e| panic!("{kind:?} lost the batch: {e}"));
        // And after a restart the log takes records again.
        rig.restart();
        for _ in 0..2 {
            rig.write(3);
            assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
        }
        rig.handle.with(|m| m.power_cut());
        same_device(&rig.reload().unwrap().0, &rig.expected())
            .unwrap_or_else(|e| panic!("{kind:?}: {e}"));
    }
}

#[test]
fn a_lying_fsync_cannot_beat_the_doubled_append_barrier() {
    // Boot's checkpoint runs syncs 1..=4; the first log commit runs 5, 6.
    for plan in [5, 6].map(|at| FaultPlan::new(FaultKind::SyncLie, at)) {
        let mut rig = Rig::new(5, 8);
        rig.handle.with(|m| m.set_plan(plan.clone()));
        rig.write(7);
        assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
        assert_eq!(rig.handle.with(|m| m.stats().lied_syncs), 1, "{plan:?}");
        rig.handle.with(|m| m.power_cut());
        same_device(&rig.reload().unwrap().0, &rig.expected())
            .unwrap_or_else(|e| panic!("{plan:?}: {e}"));
    }
}

#[test]
fn enospc_on_append_degrades_to_read_only_and_keeps_the_last_commit() {
    let mut rig = Rig::new(13, 8);
    rig.write(4);
    assert_eq!(rig.commit(), SaveOutcome::Saved { attempts: 1 });
    let durable = rig.expected();
    // Boot wrote two temporaries and the first commit appended twice.
    rig.handle
        .with(|m| m.set_plan(FaultPlan::new(FaultKind::NoSpace, 5)));
    rig.write(4);
    match rig.commit() {
        SaveOutcome::ReadOnly(e) => assert!(e.is_no_space()),
        other => panic!("expected read-only degradation, got {other:?}"),
    }
    rig.handle.with(|m| m.power_cut());
    same_device(&rig.reload().unwrap().0, &durable).unwrap();
}
