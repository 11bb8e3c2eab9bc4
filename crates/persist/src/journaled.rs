//! The [`Journaled`] wear-leveler wrapper, checkpoint policy, and the
//! recovery path.
//!
//! `Journaled<W>` couples any [`JournaledScheme`] with a [`Persistor`] so
//! that every wear-leveling step runs the record → apply → commit protocol.
//! After a power failure, [`Journaled::recover`] rebuilds the wrapper from
//! the surviving [`Store`] and bank:
//!
//! 1. pick the snapshot: decode the active-slot marker and the slot it
//!    names; on a torn marker, fall back to whichever slot decodes with the
//!    highest sequence number (a fully-written snapshot always validates,
//!    a torn one never does),
//! 2. parse the journal, truncating a torn tail and *skipping the stale
//!    prefix* — records older than the chosen snapshot, left behind when
//!    power died between a checkpoint's marker flip and its journal
//!    truncation,
//! 3. replay every remaining record *onto the metadata only*, verifying
//!    the dense sequence chain and that each replayed step reproduces the
//!    recorded physical operations,
//! 4. if the final record is a `Step` with no `Commit` marker, redo its
//!    operations on the bank from the recorded before-images (idempotent)
//!    and append the missing marker.
//!
//! Given a re-key seed, recovery additionally re-randomizes the scheme's
//! key material (journaled as a `Reseed` record so the journal stays
//! replayable) and drives enough remap work for the fresh keys to take
//! effect — so an attacker cannot freeze the mapping by cycling power.
//!
//! A [`CheckpointPolicy`] bounds all of this: the wrapper installs a
//! checkpoint (via the persistor's crash-safe dual-slot protocol) whenever
//! the journal crosses a step-count threshold, which caps how many steps
//! any future recovery can be asked to replay — the recovery-time SLO,
//! [`CheckpointPolicy::slo_steps`].

use crate::codec::PersistError;
use crate::journal::{encode_record, parse_journal, LoggedOp, Record};
use crate::persistor::{decode_marker, encode_marker, CrashPlan, Persistor, Store};
use crate::state::{decode_snapshot, encode_snapshot, MetadataState};
use srbsg_pcm::{
    ApplySink, LineAddr, LineData, MemoryController, Ns, PcmBank, PcmError, PhysOp, StepSink,
    WearLeveler, WriteResponse,
};

/// The most wear-leveling steps one demand write can commit. Two-level
/// schemes (Security RBSG) may fire an outer *and* an inner step inside a
/// single `before_write`, so a checkpoint policy of "every K steps" can
/// only be enforced to within this slack: the journal is compacted after
/// the write that crossed the threshold, by which point it may hold up to
/// `K - 1 + MAX_STEPS_PER_WRITE - 1` … i.e. `max(K, 2)` steps.
pub const MAX_STEPS_PER_WRITE: u64 = 2;

/// When `Journaled` should compact its store automatically. Checked after
/// every demand write. The default policy has no bound — the journal grows
/// until an explicit [`Journaled::checkpoint`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CheckpointPolicy {
    /// Compact once roughly this many steps have been journaled since the
    /// last checkpoint. The enforced recovery-time bound is
    /// [`CheckpointPolicy::slo_steps`], not `K` itself, because one demand
    /// write can commit up to [`MAX_STEPS_PER_WRITE`] steps.
    pub every_steps: Option<u64>,
}

impl CheckpointPolicy {
    /// Compact every `k` journaled steps (`k >= 1`).
    pub fn every_steps(k: u64) -> Self {
        Self {
            every_steps: Some(k.max(1)),
        }
    }

    /// The recovery-time SLO this policy enforces: no recovery will ever
    /// replay more than this many steps. `None` when the policy has no
    /// step bound.
    pub fn slo_steps(&self) -> Option<u64> {
        self.every_steps.map(|k| k.max(MAX_STEPS_PER_WRITE))
    }

    /// Whether a checkpoint is due, given the steps journaled since the
    /// last checkpoint. The trigger fires one step *early* (`K - 1`) so
    /// that the following write — which may commit
    /// [`MAX_STEPS_PER_WRITE`] steps before the policy can run again —
    /// cannot push the journal past the SLO.
    pub fn due(&self, steps_since_checkpoint: u64) -> bool {
        self.every_steps
            .is_some_and(|k| steps_since_checkpoint >= (k - 1).max(1))
    }
}

/// A wear-leveling scheme whose metadata can be journaled and replayed.
///
/// Implementors route their step logic through a [`StepSink`] and expose a
/// deterministic replay: `replay_step(payload)` must re-execute exactly the
/// metadata transition that produced the recorded step — including any RNG
/// draws — and return the same physical operations. Recovery verifies the
/// returned operations against the journal, so divergence is detected, not
/// silently absorbed.
pub trait JournaledScheme: WearLeveler + MetadataState {
    /// Like [`WearLeveler::before_write`], but any step that fires is
    /// committed through `sink` instead of applied directly.
    fn before_write_logged(
        &mut self,
        la: LineAddr,
        bank: &mut PcmBank,
        sink: &mut dyn StepSink,
    ) -> Ns;

    /// Re-execute the metadata transition identified by a recorded step
    /// `payload`, returning the physical operations it implies.
    fn replay_step(&mut self, payload: &[u8]) -> Result<Vec<PhysOp>, PersistError>;

    /// Reseed the scheme's remap RNG (recovery re-randomization). Schemes
    /// without an RNG ignore this.
    fn reseed_rng(&mut self, _seed: u64) {}

    /// Drive remap work through `sink` until freshly drawn key material
    /// fully determines the mapping, returning the number of movements
    /// performed. Schemes whose mapping holds no secret key return 0.
    fn rekey(&mut self, _bank: &mut PcmBank, _sink: &mut dyn StepSink) -> u64 {
        0
    }
}

/// What recovery found and did, including what it cost.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `Step` records replayed onto the metadata.
    pub replayed_steps: u64,
    /// Torn bytes truncated from the journal tail.
    pub torn_bytes: u64,
    /// Physical operations redone from before-images (non-zero only when
    /// the final record was an uncommitted `Step`).
    pub redone_ops: u64,
    /// Whether the scheme's RNG was reseeded (recovery given a re-key
    /// seed).
    pub reseeded: bool,
    /// Remap movements performed to put fresh keys in effect.
    pub rekey_movements: u64,
    /// Journal bytes the surviving store held (torn tail and stale prefix
    /// included) — the raw recovery-read cost the checkpoint policy bounds.
    pub journal_bytes: u64,
    /// Size of the snapshot recovery restored from.
    pub snapshot_bytes: u64,
    /// `Step` records skipped as a stale prefix: journal records older
    /// than the chosen snapshot, left behind when power died between a
    /// checkpoint's marker flip and its journal truncation.
    pub skipped_steps: u64,
    /// Whether the active-slot marker was torn and recovery fell back to
    /// inspecting both slots.
    pub marker_fallback: bool,
}

/// A wear-leveler whose metadata survives power failure. See module docs.
#[derive(Debug)]
pub struct Journaled<W: JournaledScheme> {
    scheme: W,
    persistor: Persistor,
    policy: CheckpointPolicy,
    steps_at_checkpoint: u64,
}

impl<W: JournaledScheme> Journaled<W> {
    /// Wrap `scheme`, taking an initial snapshot at sequence 0 into slot 0,
    /// with the automatic checkpoint `policy` in force
    /// ([`CheckpointPolicy::default`] never checkpoints on its own).
    pub fn new(scheme: W, policy: CheckpointPolicy) -> Self {
        let snapshot = encode_snapshot(&scheme, 0);
        Self {
            scheme,
            persistor: Persistor::new(Store::with_snapshot(snapshot, 0), 0),
            policy,
            steps_at_checkpoint: 0,
        }
    }

    /// The automatic checkpoint policy in force.
    pub fn checkpoint_policy(&self) -> CheckpointPolicy {
        self.policy
    }

    /// The wrapped scheme.
    pub fn scheme(&self) -> &W {
        &self.scheme
    }

    /// The durable store as it stands.
    pub fn store(&self) -> &Store {
        self.persistor.store()
    }

    /// Consume the wrapper, keeping only what survives power loss.
    pub fn into_store(self) -> Store {
        self.persistor.into_store()
    }

    /// Arm a deterministic crash plan. Writes must then go through
    /// [`write_crashable`] so the crash can abort the in-flight request.
    pub fn set_crash_plan(&mut self, plan: CrashPlan) {
        self.persistor.set_plan(plan);
    }

    /// Whether an injected or explicit power cut has fired.
    pub fn crashed(&self) -> bool {
        !self.persistor.powered()
    }

    /// Number of journaled steps so far (for probing crash points).
    pub fn steps_logged(&self) -> u64 {
        self.persistor.steps_logged()
    }

    /// Steps journaled since the last installed checkpoint — what a crash
    /// right now would ask recovery to replay.
    pub fn steps_since_checkpoint(&self) -> u64 {
        self.persistor.steps_logged() - self.steps_at_checkpoint
    }

    /// Checkpoints fully installed by this wrapper.
    pub fn checkpoints_installed(&self) -> u64 {
        self.persistor.checkpoints_installed()
    }

    /// Cumulative snapshot bytes written by completed checkpoints — the
    /// durability overhead the policy pays for bounded recovery.
    pub fn checkpoint_bytes_written(&self) -> u64 {
        self.persistor.checkpoint_bytes_written()
    }

    /// Cumulative bytes appended to the journal region.
    pub fn journal_bytes_written(&self) -> u64 {
        self.persistor.journal_bytes_written()
    }

    /// Start recording the payload of every step that commits from here
    /// on ([`Persistor::track_steps`]), for a layer that logs steps as
    /// descriptors. Forgets anything recorded so far.
    pub fn track_steps(&mut self) {
        self.persistor.track_steps();
    }

    /// Drain the steps recorded since tracking started or since the
    /// previous drain into `out` ([`Persistor::drain_steps`]); `false` when
    /// tracking is off.
    pub fn drain_steps(&mut self, out: &mut Vec<u8>) -> bool {
        self.persistor.drain_steps(out)
    }

    /// Cleanly cut the power between requests (orderly restart).
    pub fn power_cut(&mut self) {
        self.persistor.power_cut();
    }

    /// Compact the store now: take a fresh snapshot at the current
    /// sequence number and install it via the crash-safe dual-slot
    /// protocol (write inactive slot → flip marker → truncate journal).
    ///
    /// Returns [`PersistError::PowerLost`] when power is already off or an
    /// armed checkpoint-phase crash fires mid-installation; the store then
    /// holds exactly what the failure left and recovery falls back to the
    /// surviving slot plus the full journal.
    pub fn checkpoint(&mut self) -> Result<(), PersistError> {
        self.persistor.install_checkpoint(&self.scheme)?;
        self.steps_at_checkpoint = self.persistor.steps_logged();
        Ok(())
    }

    /// Run the checkpoint policy (called after each demand write).
    /// Returns whether a checkpoint was installed.
    fn maybe_checkpoint(&mut self) -> Result<bool, PersistError> {
        if !self.policy.due(self.steps_since_checkpoint()) {
            return Ok(false);
        }
        self.checkpoint()?;
        Ok(true)
    }

    /// Stage 1: choose the snapshot to restore from. With an intact marker
    /// the named slot is authoritative (its seq must match the marker's).
    /// With a torn marker — the checkpoint protocol's phase-2 crash — try
    /// both slots and take the one that validates with the highest
    /// sequence number: a fully-written snapshot always decodes, a torn
    /// one never does, so this resolves to the newest durable checkpoint.
    fn choose_snapshot(store: &Store) -> Result<(W, u64, Vec<u8>, bool), PersistError> {
        if let Ok((slot, marker_seq)) = decode_marker(&store.marker) {
            let bytes = &store.slots[slot as usize];
            let (scheme, snap_seq) = decode_snapshot::<W>(bytes)?;
            if snap_seq != marker_seq {
                return Err(PersistError::Corrupt("marker seq does not match snapshot"));
            }
            return Ok((scheme, snap_seq, bytes.clone(), false));
        }
        let mut best: Option<(W, u64, Vec<u8>)> = None;
        for bytes in &store.slots {
            if let Ok((scheme, seq)) = decode_snapshot::<W>(bytes) {
                if best.as_ref().is_none_or(|(_, s, _)| seq > *s) {
                    best = Some((scheme, seq, bytes.clone()));
                }
            }
        }
        best.map(|(scheme, seq, bytes)| (scheme, seq, bytes, true))
            .ok_or(PersistError::Corrupt(
                "no decodable snapshot in either slot",
            ))
    }

    /// [`Journaled::recover`] with a re-key seed, for a bank that is not
    /// the durable copy of its own contents — the server's, whose durable
    /// image lives on its shelf. The re-key burst runs straight onto the
    /// bank, journaling no before-images, and the wrapper then checkpoints,
    /// so its store holds one snapshot of the re-keyed scheme and an empty
    /// journal. The bank ends exactly as the journaled burst leaves it.
    pub fn recover_rekeyed_unjournaled(
        store: &Store,
        bank: &mut PcmBank,
        seed: u64,
        policy: CheckpointPolicy,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let (mut jw, mut report) = Self::recover(store, bank, CheckpointPolicy::default(), None)?;
        jw.scheme.reseed_rng(seed);
        report.reseeded = true;
        report.rekey_movements = jw.scheme.rekey(bank, &mut ApplySink);
        jw.policy = policy;
        jw.checkpoint()?;
        Ok((jw, report))
    }

    /// The scheme `store` describes: its snapshot with the journal replayed
    /// onto the metadata only, and the sequence number the next record
    /// would carry. No bank is touched, so a journal ending in an
    /// uncommitted step — whose operations may not have reached the bank —
    /// is refused as corrupt.
    pub fn replay_metadata(store: &Store) -> Result<(W, u64), PersistError> {
        let replayed = Self::replay(store)?;
        if replayed.uncommitted.is_some() {
            return Err(PersistError::Corrupt("journal ends in an uncommitted step"));
        }
        Ok((replayed.scheme, replayed.next_seq))
    }

    /// Stages 1–3 of recovery: choose the snapshot, then replay the
    /// journal onto it, skipping the stale prefix (records the chosen
    /// snapshot already covers — only present when power died between a
    /// checkpoint's marker flip and its journal truncation) and verifying
    /// the dense sequence chain. The clean journal is rebuilt from the kept
    /// records, which both drops the stale prefix and truncates the torn
    /// tail.
    fn replay(store: &Store) -> Result<Replayed<W>, PersistError> {
        let (mut scheme, snap_seq, snapshot, marker_fallback) = Self::choose_snapshot(store)?;
        let parsed = parse_journal(&store.journal)?;

        let mut report = RecoveryReport {
            torn_bytes: parsed.torn_bytes as u64,
            journal_bytes: store.journal.len() as u64,
            snapshot_bytes: snapshot.len() as u64,
            marker_fallback,
            ..RecoveryReport::default()
        };
        let mut clean_journal = Vec::new();
        let mut stale_seq: Option<u64> = None;
        let mut expected_seq = snap_seq;
        let mut uncommitted = None;
        for rec in parsed.records {
            if rec.seq() < snap_seq {
                // Stale prefix: must itself be dense and precede any kept
                // record (a stale record after a kept one is corruption).
                if expected_seq != snap_seq {
                    return Err(PersistError::Corrupt("stale record after journal head"));
                }
                if let Some(prev) = stale_seq {
                    if rec.seq() != prev + 1 {
                        return Err(PersistError::Corrupt("stale prefix sequence gap"));
                    }
                }
                stale_seq = Some(rec.seq());
                if matches!(rec, Record::Step { .. }) {
                    report.skipped_steps += 1;
                }
                continue;
            }
            if rec.seq() != expected_seq {
                return Err(PersistError::Corrupt("journal sequence gap"));
            }
            expected_seq += 1;
            match &rec {
                Record::Step { payload, ops, .. } => {
                    let replayed = scheme.replay_step(payload)?;
                    let recorded: Vec<PhysOp> = ops.iter().map(|op| op.phys()).collect();
                    if replayed != recorded {
                        return Err(PersistError::Corrupt("replay diverged from journal"));
                    }
                    report.replayed_steps += 1;
                }
                Record::Commit { .. } => {}
                Record::Reseed { seed, .. } => scheme.reseed_rng(*seed),
            }
            clean_journal.extend_from_slice(&encode_record(&rec));
            uncommitted = match rec {
                Record::Step { ops, .. } => Some(ops),
                Record::Commit { .. } | Record::Reseed { .. } => None,
            };
        }
        Ok(Replayed {
            scheme,
            snap_seq,
            snapshot,
            clean_journal,
            next_seq: expected_seq,
            uncommitted,
            report,
        })
    }

    /// Rebuild from a surviving store and bank. See the module docs for the
    /// four recovery stages. The recovered wrapper's store is normalized:
    /// the chosen snapshot in slot 0, an intact marker, and the replayed
    /// journal (stale prefix dropped, torn tail truncated).
    ///
    /// With `rekey_seed`, the scheme's RNG is then reseeded from it and
    /// remap work runs until fresh keys fully determine the mapping
    /// (paper-motivated: without this, an attacker could freeze the
    /// mapping by cycling power).
    ///
    /// `policy` is re-armed on the recovered wrapper. Unless it is
    /// [`CheckpointPolicy::default`], a checkpoint is installed right after
    /// recovery, so the next crash starts from an empty journal and the
    /// policy's SLO holds across repeated power cycles; that checkpoint
    /// also absorbs the re-key burst, which may journal more than the
    /// policy's step bound in one go.
    pub fn recover(
        store: &Store,
        bank: &mut PcmBank,
        policy: CheckpointPolicy,
        rekey_seed: Option<u64>,
    ) -> Result<(Self, RecoveryReport), PersistError> {
        let Replayed {
            mut scheme,
            snap_seq,
            snapshot,
            mut clean_journal,
            next_seq: mut expected_seq,
            uncommitted,
            mut report,
        } = Self::replay(store)?;

        if let Some(ops) = uncommitted {
            // Stage 4: the final step was recorded but its commit marker
            // never made it: blindly redo from before-images (idempotent
            // whether the application was skipped, half-done, or complete)
            // and close the record.
            for op in &ops {
                op.redo(bank);
                report.redone_ops += 1;
            }
            let marker = Record::Commit { seq: expected_seq };
            expected_seq += 1;
            clean_journal.extend_from_slice(&encode_record(&marker));
        }

        // Normalize the recovered store: the chosen snapshot's original
        // bytes in slot 0 with an intact marker, the other slot empty, the
        // rebuilt journal. (The snapshot must stay the *pre-replay* state:
        // the journal that follows it replays onto it.)
        let mut persistor = Persistor::new(
            Store {
                marker: encode_marker(0, snap_seq),
                slots: [snapshot, Vec::new()],
                journal: clean_journal,
            },
            expected_seq,
        );

        if let Some(seed) = rekey_seed {
            persistor.append_reseed(seed);
            scheme.reseed_rng(seed);
            report.reseeded = true;
            report.rekey_movements = scheme.rekey(bank, &mut persistor);
        }

        let mut jw = Self {
            scheme,
            persistor,
            policy,
            steps_at_checkpoint: 0,
        };
        if policy != CheckpointPolicy::default() {
            // Start the policy's clock from an empty journal: the rekey
            // burst above may have journaled more steps than the policy's
            // bound allows, and the replayed journal itself is history the
            // next recovery need not pay for again.
            jw.checkpoint()?;
        }
        Ok((jw, report))
    }
}

/// What recovery's replay stages produce (see [`Journaled::replay`]).
struct Replayed<W> {
    scheme: W,
    snap_seq: u64,
    /// The chosen snapshot's bytes, as the store held them.
    snapshot: Vec<u8>,
    clean_journal: Vec<u8>,
    /// The sequence number the next record takes.
    next_seq: u64,
    /// The ops of a final `Step` with no `Commit` marker.
    uncommitted: Option<Vec<LoggedOp>>,
    report: RecoveryReport,
}

impl<W: JournaledScheme> WearLeveler for Journaled<W> {
    fn init_bank(&self, bank: &mut PcmBank) {
        self.scheme.init_bank(bank)
    }
    fn translate(&self, la: LineAddr) -> LineAddr {
        self.scheme.translate(la)
    }
    fn translate_batch(&self, las: &[LineAddr], out: &mut Vec<LineAddr>) {
        self.scheme.translate_batch(las, out)
    }
    fn before_write(&mut self, la: LineAddr, bank: &mut PcmBank) -> Ns {
        // Crash-armed runs must go through `write_crashable`, which aborts
        // the demand write when the plan fires; the plain path is for
        // crash-free operation (journaling only), where a checkpoint
        // cannot fail.
        debug_assert!(
            self.persistor.powered(),
            "before_write on a crashed Journaled wrapper"
        );
        let ns = self
            .scheme
            .before_write_logged(la, bank, &mut self.persistor);
        let _ = self.maybe_checkpoint();
        ns
    }
    fn writes_until_remap(&self, la: LineAddr) -> u64 {
        self.scheme.writes_until_remap(la)
    }
    fn note_quiet_writes(&mut self, la: LineAddr, k: u64) {
        // Quiet writes by contract trigger no remap step, so they touch
        // only volatile counters — nothing to journal.
        self.scheme.note_quiet_writes(la, k)
    }
    fn logical_lines(&self) -> u64 {
        self.scheme.logical_lines()
    }
    fn physical_slots(&self) -> u64 {
        self.scheme.physical_slots()
    }
    fn name(&self) -> &'static str {
        self.scheme.name()
    }
}

/// Issue one demand write against a journaled controller under a crash
/// schedule.
///
/// Returns [`PcmError::PowerLost`] — with the request *not* acknowledged
/// and the clock untouched — when the armed [`CrashPlan`] fires during this
/// write, whether at a quiet point before the scheme runs, inside a remap
/// step, or inside a policy-triggered checkpoint installation. Movements
/// the step already made stand: the bank is left in exactly the state the
/// power failure produced.
pub fn write_crashable<W: JournaledScheme>(
    mc: &mut MemoryController<Journaled<W>>,
    la: LineAddr,
    data: LineData,
) -> Result<WriteResponse, PcmError> {
    mc.try_write_with(la, data, |jw, bank| {
        if jw.persistor.poll_pre_write() {
            return Err(PcmError::PowerLost);
        }
        let latency = jw.scheme.before_write_logged(la, bank, &mut jw.persistor);
        if !jw.persistor.powered() {
            return Err(PcmError::PowerLost);
        }
        if jw.maybe_checkpoint().is_err() {
            return Err(PcmError::PowerLost);
        }
        Ok(latency)
    })
}

/// [`write_crashable`] with program-and-verify semantics: like
/// [`MemoryController::write_verified`], the result is
/// [`PcmError::WriteNotVerified`] when the device exhausted its retry
/// budget on this write, and [`PcmError::PowerLost`] when the armed crash
/// plan fires — so a serving front-end can drive its normal retry loop
/// over journaled banks under power-failure injection.
pub fn write_verified_crashable<W: JournaledScheme>(
    mc: &mut MemoryController<Journaled<W>>,
    la: LineAddr,
    data: LineData,
) -> Result<WriteResponse, PcmError> {
    let stuck_before = mc.bank().fault_stats().retry_exhaustions;
    let resp = write_crashable(mc, la, data)?;
    if mc.bank().fault_stats().retry_exhaustions > stuck_before {
        let attempts = mc.bank().fault_config().map(|c| c.max_retries).unwrap_or(0);
        Err(PcmError::WriteNotVerified { la, attempts })
    } else {
        Ok(resp)
    }
}
