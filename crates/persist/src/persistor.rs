//! The journaling [`StepSink`], the dual-slot snapshot store, and
//! deterministic power-failure injection.
//!
//! A [`Persistor`] owns the simulated non-volatile [`Store`] (two snapshot
//! slots + active marker + journal) and implements the record → apply →
//! commit protocol for every wear-leveling step:
//!
//! 1. capture before-images for the step's physical operations,
//! 2. append a `Step` record (payload + ops) to the journal,
//! 3. apply the operations to the bank in place,
//! 4. append a `Commit` marker.
//!
//! Checkpoint compaction runs a second, crash-safe protocol
//! ([`Persistor::install_checkpoint`]): the fresh snapshot is written to
//! the *inactive* slot, the active marker is flipped, and only then is the
//! journal truncated. Power may die at any of those points — the previous
//! snapshot plus the untruncated journal always survives, so recovery never
//! faces a store with no consistent restore path.
//!
//! A [`CrashPlan`] kills the power at a chosen point of either protocol for
//! a chosen step — mid-append (torn record), between append and apply,
//! halfway through the apply, after the apply but before the marker, a
//! configured number of demand writes after a successful commit, or at one
//! of the three checkpoint phases (torn snapshot, torn marker flip,
//! snapshot-installed-journal-not-truncated). After the crash the persistor
//! reports `powered() == false` and refuses further steps; the `Store`
//! holds exactly the bytes and the bank exactly the lines that survived.

use crate::codec::{crc64, Dec, Enc, PersistError};
use crate::journal::{append_commit, append_step, encode_record, Record};
use crate::state::{encode_snapshot_into, MetadataState};
use srbsg_pcm::{ApplySink, Ns, PcmBank, PhysOp, StepSink};

/// Where in the step or checkpoint protocol the injected power failure
/// strikes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// The `Step` append itself is cut short: the journal gains a torn,
    /// checksum-failing prefix of the record and nothing was applied.
    TornRecord,
    /// The `Step` record is durable but none of its operations reached the
    /// device.
    RecordedNotApplied,
    /// The `Step` record is durable and the *first write of the first
    /// operation* completed — for a swap this leaves the device in a state
    /// neither before nor after the step. (Writes are line-granular in this
    /// model, so a `Move`'s single write cannot itself be split; for a step
    /// whose first op is a move this degenerates to the record-not-applied
    /// case.)
    HalfApplied,
    /// All operations were applied but the `Commit` marker was never
    /// written: recovery must redo the step idempotently.
    AppliedNoMarker,
    /// The step commits cleanly; power fails `extra_writes` demand writes
    /// later, between steps ("quiet" crash point). With `at_step == 0` the
    /// countdown arms immediately, so a crash can also precede the first
    /// step.
    AfterCommit {
        /// Demand writes served after the commit before power dies.
        extra_writes: u64,
    },
    /// Checkpoint phase 1: the snapshot write to the inactive slot is cut
    /// short. The active marker still names the old slot; recovery replays
    /// the old snapshot plus the full journal.
    CheckpointTornSnapshot,
    /// Checkpoint phase 2: the new snapshot is fully written but the
    /// active-marker flip is torn. Recovery finds no valid marker and falls
    /// back to whichever slot yields a consistent restore (the newer one by
    /// sequence number, the survivor otherwise).
    CheckpointTornMarker,
    /// Checkpoint phase 3: snapshot written and marker flipped, but power
    /// dies before the journal truncation. Recovery must recognize the
    /// journal's stale prefix (records older than the active snapshot) and
    /// skip it instead of replaying it twice.
    CheckpointNotTruncated,
}

impl CrashMode {
    /// Every crash point, once: the four step-protocol points, a quiet
    /// point two demand writes after a commit, and the three checkpoint
    /// phases.
    pub const ALL: [CrashMode; 8] = [
        CrashMode::TornRecord,
        CrashMode::RecordedNotApplied,
        CrashMode::HalfApplied,
        CrashMode::AppliedNoMarker,
        CrashMode::AfterCommit { extra_writes: 2 },
        CrashMode::CheckpointTornSnapshot,
        CrashMode::CheckpointTornMarker,
        CrashMode::CheckpointNotTruncated,
    ];

    /// Stable lowercase name (CSV columns, logs).
    pub fn name(self) -> &'static str {
        match self {
            CrashMode::TornRecord => "torn_record",
            CrashMode::RecordedNotApplied => "recorded_not_applied",
            CrashMode::HalfApplied => "half_applied",
            CrashMode::AppliedNoMarker => "applied_no_marker",
            CrashMode::AfterCommit { .. } => "after_commit",
            CrashMode::CheckpointTornSnapshot => "ckpt_torn_snapshot",
            CrashMode::CheckpointTornMarker => "ckpt_torn_marker",
            CrashMode::CheckpointNotTruncated => "ckpt_not_truncated",
        }
    }

    /// Whether this mode strikes inside the checkpoint-installation
    /// protocol rather than the step protocol.
    pub fn is_checkpoint_phase(self) -> bool {
        matches!(
            self,
            CrashMode::CheckpointTornSnapshot
                | CrashMode::CheckpointTornMarker
                | CrashMode::CheckpointNotTruncated
        )
    }
}

/// A deterministic, seedable crash schedule: kill the power at the
/// `at_step`-th journaled step (1-based), in the manner of `mode`.
///
/// Checkpoint-phase modes fire at the first checkpoint installation at or
/// after the `at_step`-th step record (checkpoints run between demand
/// writes, so the step counter itself is unaffected).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrashPlan {
    /// Which step record triggers the crash (1-based count of `Step`
    /// records appended by this persistor). `0` is only meaningful with
    /// [`CrashMode::AfterCommit`], arming the countdown from the start.
    pub at_step: u64,
    /// Where in the protocol the power dies.
    pub mode: CrashMode,
}

/// Magic number opening the active-slot marker ("SRMK").
pub const MARKER_MAGIC: u32 = 0x5352_4D4B;

/// Encode the active-slot marker: `magic u32 | slot u8 | seq u64 | crc64`.
/// The marker is a tiny NV cell whose write, like any other, can be torn by
/// a power failure — recovery treats an undecodable marker as absent and
/// falls back to slot inspection.
pub fn encode_marker(slot: u8, seq: u64) -> Vec<u8> {
    let mut out = Vec::new();
    encode_marker_into(slot, seq, &mut out);
    out
}

/// [`encode_marker`] into `out`, replacing its contents but keeping its
/// capacity.
fn encode_marker_into(slot: u8, seq: u64, out: &mut Vec<u8>) {
    out.clear();
    let mut enc = Enc::from_vec(std::mem::take(out));
    enc.u32(MARKER_MAGIC);
    enc.u8(slot);
    enc.u64(seq);
    let crc = crc64(enc.as_bytes());
    enc.u64(crc);
    *out = enc.into_bytes();
}

/// Decode the active-slot marker, returning `(slot, seq)`. A torn or
/// bit-flipped marker is an error — the caller falls back to slot
/// inspection, never to a guessed slot.
pub fn decode_marker(bytes: &[u8]) -> Result<(u8, u64), PersistError> {
    let mut dec = Dec::new(bytes);
    if dec.u32()? != MARKER_MAGIC {
        return Err(PersistError::Corrupt("bad marker magic"));
    }
    let slot = dec.u8()?;
    if slot > 1 {
        return Err(PersistError::Corrupt("marker slot out of range"));
    }
    let seq = dec.u64()?;
    let stored_crc = dec.u64()?;
    dec.finish()?;
    if crc64(&bytes[..13]) != stored_crc {
        return Err(PersistError::Corrupt("marker checksum mismatch"));
    }
    Ok((slot, seq))
}

/// The simulated non-volatile metadata device: two snapshot slots, the
/// active-slot marker, and one append-only journal region. Everything
/// survives power failure byte-for-byte.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Store {
    /// The two snapshot slots of the dual-slot checkpoint protocol. A
    /// checkpoint always writes the slot the marker does *not* name, so
    /// the previous snapshot survives until the new one is fully durable.
    pub slots: [Vec<u8>; 2],
    /// The active-slot marker ([`encode_marker`]); possibly torn.
    pub marker: Vec<u8>,
    /// The write-ahead journal since the active snapshot (plus a stale
    /// prefix if power died between the marker flip and the truncation).
    pub journal: Vec<u8>,
}

impl Store {
    /// A store holding one snapshot in slot 0, an intact marker naming it,
    /// and an empty journal.
    pub fn with_snapshot(snapshot: Vec<u8>, seq: u64) -> Self {
        Self {
            marker: encode_marker(0, seq),
            slots: [snapshot, Vec::new()],
            journal: Vec::new(),
        }
    }

    /// The slot the marker names, if the marker decodes.
    pub fn active_slot(&self) -> Option<usize> {
        decode_marker(&self.marker).ok().map(|(s, _)| s as usize)
    }

    /// Bytes of the active snapshot slot (0 when the marker is torn).
    pub fn snapshot_bytes(&self) -> u64 {
        self.active_slot().map_or(0, |s| self.slots[s].len() as u64)
    }
}

/// Journaling sink with optional crash injection. See the module docs.
#[derive(Debug)]
pub struct Persistor {
    store: Store,
    next_seq: u64,
    steps: u64,
    active: usize,
    plan: Option<CrashPlan>,
    powered: bool,
    countdown: Option<u64>,
    checkpoints: u64,
    checkpoint_bytes: u64,
    journal_bytes_written: u64,
    /// The payloads of the steps committed since the last
    /// [`Persistor::drain_steps`], each as `len varint | payload`; `None`
    /// unless [`Persistor::track_steps`] turned tracking on.
    tracked: Option<Vec<u8>>,
}

impl Persistor {
    /// Wrap a store whose next journal record will carry sequence number
    /// `next_seq`. The active slot is taken from the store's marker
    /// (slot 0 when the marker is absent or torn — callers coming out of
    /// recovery always hand over a normalized store with a valid marker).
    pub fn new(store: Store, next_seq: u64) -> Self {
        let active = store.active_slot().unwrap_or(0);
        Self {
            store,
            next_seq,
            steps: 0,
            active,
            plan: None,
            powered: true,
            countdown: None,
            checkpoints: 0,
            checkpoint_bytes: 0,
            journal_bytes_written: 0,
            tracked: None,
        }
    }

    /// The durable store (snapshot slots + marker + journal) as it stands.
    pub fn store(&self) -> &Store {
        &self.store
    }

    /// Consume the persistor, keeping only what survives power loss.
    pub fn into_store(self) -> Store {
        self.store
    }

    /// Whether power is still on. `false` after an injected crash fires or
    /// [`Persistor::power_cut`].
    pub fn powered(&self) -> bool {
        self.powered
    }

    /// Sequence number the next appended record will carry.
    pub fn next_seq(&self) -> u64 {
        self.next_seq
    }

    /// Number of `Step` records appended by this persistor (the counter
    /// [`CrashPlan::at_step`] is matched against).
    pub fn steps_logged(&self) -> u64 {
        self.steps
    }

    /// Checkpoints fully installed by this persistor (torn installations
    /// do not count).
    pub fn checkpoints_installed(&self) -> u64 {
        self.checkpoints
    }

    /// Cumulative snapshot bytes written by completed checkpoint
    /// installations — the durability overhead a checkpoint policy pays.
    pub fn checkpoint_bytes_written(&self) -> u64 {
        self.checkpoint_bytes
    }

    /// Cumulative bytes appended to the journal region (not reduced by
    /// checkpoint truncation).
    pub fn journal_bytes_written(&self) -> u64 {
        self.journal_bytes_written
    }

    /// Start recording the payload of every step that commits, so a layer
    /// above can log the steps as descriptors instead of journal bytes.
    /// Forgets anything recorded so far. Off by default.
    pub fn track_steps(&mut self) {
        self.tracked = Some(Vec::new());
    }

    /// Replace `out`'s contents with the steps committed since tracking
    /// started or since the previous drain, in commit order, each as
    /// `len varint | payload`; recording continues from empty. Returns
    /// `false`, with `out` left empty, when tracking is off. The two
    /// buffers trade places, so a steady drain allocates nothing.
    pub fn drain_steps(&mut self, out: &mut Vec<u8>) -> bool {
        out.clear();
        match &mut self.tracked {
            Some(steps) => {
                std::mem::swap(steps, out);
                true
            }
            None => false,
        }
    }

    /// Arm a crash plan. Replaces any previous plan.
    pub fn set_plan(&mut self, plan: CrashPlan) {
        if let CrashPlan {
            at_step: 0,
            mode: CrashMode::AfterCommit { extra_writes },
        } = plan
        {
            self.countdown = Some(extra_writes);
            self.plan = None;
        } else {
            self.plan = Some(plan);
            self.countdown = None;
        }
    }

    /// Cleanly cut the power between requests (orderly shutdown has the
    /// same persistence semantics as a quiet-point crash).
    pub fn power_cut(&mut self) {
        self.powered = false;
    }

    /// Poll the crash schedule at the start of a crashable demand write.
    /// Returns `true` when the write must abort because power is (now)
    /// lost.
    pub fn poll_pre_write(&mut self) -> bool {
        if !self.powered {
            return true;
        }
        if let Some(c) = self.countdown.as_mut() {
            if *c == 0 {
                self.powered = false;
                self.countdown = None;
                return true;
            }
            *c -= 1;
        }
        false
    }

    fn append_journal(&mut self, bytes: &[u8]) {
        self.store.journal.extend_from_slice(bytes);
        self.journal_bytes_written += bytes.len() as u64;
    }

    /// Install a checkpoint of `state` via the crash-safe dual-slot
    /// protocol: write its snapshot at sequence [`Persistor::next_seq`] to
    /// the inactive slot, flip the active marker, then truncate the
    /// journal. The snapshot is encoded once, straight into the slot it
    /// lands in, reusing that slot's buffer.
    ///
    /// Returns [`PersistError::PowerLost`] — with the store holding exactly
    /// what the failure left — when power is already off or an armed
    /// checkpoint-phase [`CrashPlan`] fires during the installation. A
    /// checkpoint racing a power cut is an injectable outcome, not a
    /// panic.
    pub fn install_checkpoint<S: MetadataState>(&mut self, state: &S) -> Result<(), PersistError> {
        if !self.powered {
            return Err(PersistError::PowerLost);
        }
        let target = 1 - self.active;
        let crash = self.crash_at_checkpoint();
        let slot = &mut self.store.slots[target];
        encode_snapshot_into(state, self.next_seq, slot);
        let len = slot.len();
        match crash {
            Some(CrashMode::CheckpointTornSnapshot) => {
                slot.truncate((len / 2).max(1));
                self.powered = false;
                return Err(PersistError::PowerLost);
            }
            Some(CrashMode::CheckpointTornMarker) => {
                let marker = &mut self.store.marker;
                encode_marker_into(target as u8, self.next_seq, marker);
                marker.truncate((marker.len() / 2).max(1));
                self.powered = false;
                return Err(PersistError::PowerLost);
            }
            Some(CrashMode::CheckpointNotTruncated) => {
                encode_marker_into(target as u8, self.next_seq, &mut self.store.marker);
                self.powered = false;
                return Err(PersistError::PowerLost);
            }
            _ => {}
        }
        self.checkpoint_bytes += len as u64;
        encode_marker_into(target as u8, self.next_seq, &mut self.store.marker);
        self.active = target;
        self.store.journal.clear();
        self.checkpoints += 1;
        Ok(())
    }

    /// Append a `Reseed` record (used by recovery re-randomization).
    pub fn append_reseed(&mut self, seed: u64) {
        assert!(self.powered, "reseed after power loss");
        let rec = Record::Reseed {
            seq: self.next_seq,
            seed,
        };
        self.next_seq += 1;
        let encoded = encode_record(&rec);
        self.append_journal(&encoded);
    }

    fn crash_here(&mut self) -> Option<CrashMode> {
        match self.plan {
            Some(CrashPlan { at_step, mode })
                if at_step == self.steps && !mode.is_checkpoint_phase() =>
            {
                self.plan = None;
                Some(mode)
            }
            _ => None,
        }
    }

    fn crash_at_checkpoint(&mut self) -> Option<CrashMode> {
        match self.plan {
            Some(CrashPlan { at_step, mode })
                if mode.is_checkpoint_phase() && self.steps >= at_step =>
            {
                self.plan = None;
                Some(mode)
            }
            _ => None,
        }
    }
}

impl StepSink for Persistor {
    fn commit(&mut self, bank: &mut PcmBank, payload: &[u8], ops: &[PhysOp]) -> Ns {
        // A scheme may fire several steps inside one demand write (e.g. a
        // two-level scheme's outer then inner step). If the crash struck an
        // earlier step of the same write, the later ones die with the
        // machine: nothing is journaled, nothing touches the bank, and the
        // scheme's in-memory transition is discarded at recovery along with
        // everything else volatile.
        if !self.powered {
            return 0;
        }
        self.steps += 1;

        // The record is framed in place at the journal's end, before-images
        // read straight from the bank; a crash acts on the bytes just
        // appended.
        let start = self.store.journal.len();
        let len = append_step(&mut self.store.journal, self.next_seq, payload, ops, bank);
        self.journal_bytes_written += len as u64;

        match self.crash_here() {
            Some(CrashMode::TornRecord) => {
                let keep = (len / 2).max(1);
                self.store.journal.truncate(start + keep);
                self.journal_bytes_written -= (len - keep) as u64;
                self.powered = false;
                return 0;
            }
            Some(CrashMode::RecordedNotApplied) => {
                self.next_seq += 1;
                self.powered = false;
                return 0;
            }
            Some(CrashMode::HalfApplied) => {
                self.next_seq += 1;
                if let Some(&PhysOp::Swap { a, b }) = ops.first() {
                    bank.write_line(a, bank.read_line(b));
                }
                self.powered = false;
                return 0;
            }
            Some(CrashMode::AppliedNoMarker) => {
                self.next_seq += 1;
                ApplySink.commit(bank, payload, ops);
                self.powered = false;
                return 0;
            }
            Some(CrashMode::AfterCommit { extra_writes }) => {
                self.countdown = Some(extra_writes);
            }
            _ => {}
        }

        // The normal, crash-free protocol.
        self.next_seq += 1;
        let latency = ApplySink.commit(bank, payload, ops);
        let len = append_commit(&mut self.store.journal, self.next_seq);
        self.journal_bytes_written += len as u64;
        self.next_seq += 1;
        if let Some(steps) = self.tracked.as_mut() {
            let mut enc = Enc::from_vec(std::mem::take(steps));
            enc.varint(payload.len() as u64);
            enc.bytes(payload);
            *steps = enc.into_bytes();
        }
        latency
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::journal::LoggedOp;
    use crate::state::encode_snapshot;
    use srbsg_feistel::IdentityPermutation;
    use srbsg_pcm::LineData;

    #[test]
    fn marker_roundtrip_and_every_bit_flip_rejected() {
        let bytes = encode_marker(1, 0xABCD_EF01);
        assert_eq!(decode_marker(&bytes).unwrap(), (1, 0xABCD_EF01));
        for byte in 0..bytes.len() {
            for bit in 0..8 {
                let mut bad = bytes.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    decode_marker(&bad).is_err(),
                    "flip at byte {byte} bit {bit} accepted"
                );
            }
        }
        for cut in 0..bytes.len() {
            assert!(decode_marker(&bytes[..cut]).is_err(), "torn at {cut}");
        }
    }

    #[test]
    fn checkpoint_after_power_loss_is_a_typed_error_not_a_panic() {
        let mut p = Persistor::new(Store::with_snapshot(vec![1, 2, 3], 0), 0);
        p.power_cut();
        let before = p.store().clone();
        assert_eq!(
            p.install_checkpoint(&IdentityPermutation::new(9)),
            Err(PersistError::PowerLost)
        );
        assert_eq!(p.store(), &before, "a dead checkpoint must be a no-op");
    }

    #[test]
    fn completed_checkpoint_alternates_slots_and_truncates() {
        let (two, three) = (IdentityPermutation::new(2), IdentityPermutation::new(3));
        let mut p = Persistor::new(Store::with_snapshot(vec![1], 0), 0);
        p.append_reseed(0);
        assert!(!p.store().journal.is_empty());
        p.install_checkpoint(&two).unwrap();
        assert_eq!(p.store().active_slot(), Some(1));
        assert_eq!(p.store().slots[1], encode_snapshot(&two, 1));
        assert_eq!(p.store().slots[0], vec![1], "old slot survives");
        assert!(p.store().journal.is_empty());
        p.install_checkpoint(&three).unwrap();
        assert_eq!(p.store().active_slot(), Some(0));
        assert_eq!(p.store().slots[0], encode_snapshot(&three, 1));
        assert_eq!(p.checkpoints_installed(), 2);
        let snapshot = encode_snapshot(&two, 1).len() as u64;
        assert_eq!(p.checkpoint_bytes_written(), 2 * snapshot);
    }

    /// A store after `steps` journaled steps, two of them swaps, with a
    /// crash plan of `mode` at the last one, against the records the
    /// steps encode to as [`Record`] values.
    fn crash_run(mode: CrashMode) -> (Store, Vec<u8>, PcmBank) {
        let mut bank = PcmBank::new(8, 1_000, srbsg_pcm::TimingModel::PAPER);
        for slot in 0..8 {
            bank.write_line(slot, LineData::Mixed(slot as u32 + 1));
        }
        bank.write_line(6, LineData::Ones);
        let steps: [(&[u8], &[PhysOp]); 3] = [
            (&[0, 0, 0, 0], &[PhysOp::Move { src: 1, dst: 7 }]),
            (&[2, 0, 0, 0], &[]),
            (
                &[9],
                &[PhysOp::Swap { a: 2, b: 6 }, PhysOp::Move { src: 3, dst: 0 }],
            ),
        ];
        let mut p = Persistor::new(Store::with_snapshot(vec![1], 4), 4);
        p.set_plan(CrashPlan {
            at_step: steps.len() as u64,
            mode,
        });
        let mut expect = Vec::new();
        let mut seq = 4;
        for (payload, ops) in steps {
            let rec = Record::Step {
                seq,
                payload: payload.to_vec(),
                ops: ops.iter().map(|op| LoggedOp::capture(op, &bank)).collect(),
            };
            expect.extend_from_slice(&encode_record(&rec));
            expect.extend_from_slice(&encode_record(&Record::Commit { seq: seq + 1 }));
            seq += 2;
            p.commit(&mut bank, payload, ops);
        }
        assert_eq!(p.journal_bytes_written(), p.store().journal.len() as u64);
        (p.into_store(), expect, bank)
    }

    #[test]
    fn in_place_records_match_encode_record_at_every_crash_point() {
        let (store, expect, _) = crash_run(CrashMode::AfterCommit { extra_writes: 1 });
        assert_eq!(store.journal, expect, "clean run");
        let commit_len = encode_record(&Record::Commit { seq: 0 }).len();
        let step_end = expect.len() - commit_len;
        let last_step = &expect[..step_end];
        let step_start = parse_prefix_len(last_step);
        let step_len = step_end - step_start;
        for mode in [
            CrashMode::RecordedNotApplied,
            CrashMode::HalfApplied,
            CrashMode::AppliedNoMarker,
        ] {
            let (store, _, _) = crash_run(mode);
            assert_eq!(store.journal, last_step, "{}", mode.name());
        }
        let (store, _, _) = crash_run(CrashMode::TornRecord);
        assert_eq!(
            store.journal,
            &expect[..step_start + step_len / 2],
            "torn record keeps the prefix half of its bytes"
        );
        let (_, _, bank) = crash_run(CrashMode::HalfApplied);
        assert_eq!(bank.read_line(2), LineData::Ones, "first swap write landed");
        assert_eq!(
            bank.read_line(6),
            LineData::Ones,
            "second swap write did not"
        );
    }

    /// Length of the complete records before the final one in `journal`.
    fn parse_prefix_len(journal: &[u8]) -> usize {
        let parsed = crate::journal::parse_journal(journal).unwrap();
        let last = parsed.records.last().unwrap();
        journal.len() - encode_record(last).len()
    }

    /// The snapshot layout built the long way: the payload in its own
    /// buffer, then `magic | seq | len | payload` and the CRC over it.
    fn reference_snapshot<S: MetadataState>(state: &S, seq: u64) -> Vec<u8> {
        let mut payload = Enc::new();
        state.encode_state(&mut payload);
        let payload = payload.into_bytes();
        let mut enc = Enc::new();
        enc.u32(crate::state::SNAPSHOT_MAGIC);
        enc.u64(seq);
        enc.u32(payload.len() as u32);
        enc.bytes(&payload);
        let crc = crc64(enc.as_bytes());
        enc.u64(crc);
        enc.into_bytes()
    }

    #[test]
    fn in_place_snapshots_and_markers_match_at_every_checkpoint_phase() {
        let state = IdentityPermutation::new(7);
        let snapshot = reference_snapshot(&state, 3);
        assert_eq!(encode_snapshot(&state, 3), snapshot);
        let marker = encode_marker(1, 3);
        let run = |mode: Option<CrashMode>| {
            let mut p = Persistor::new(Store::with_snapshot(vec![1; 40], 3), 3);
            if let Some(mode) = mode {
                p.set_plan(CrashPlan { at_step: 0, mode });
            }
            let _ = p.install_checkpoint(&state);
            p.into_store()
        };
        let clean = run(None);
        assert_eq!((&clean.slots[1], &clean.marker), (&snapshot, &marker));
        let torn = run(Some(CrashMode::CheckpointTornSnapshot));
        assert_eq!(torn.slots[1], snapshot[..snapshot.len() / 2]);
        assert_eq!(torn.marker, encode_marker(0, 3));
        let torn = run(Some(CrashMode::CheckpointTornMarker));
        assert_eq!(torn.slots[1], snapshot);
        assert_eq!(torn.marker, marker[..marker.len() / 2]);
        let untruncated = run(Some(CrashMode::CheckpointNotTruncated));
        assert_eq!(
            (&untruncated.slots[1], &untruncated.marker),
            (&snapshot, &marker)
        );
    }
}
