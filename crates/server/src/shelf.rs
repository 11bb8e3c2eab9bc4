//! The disk shelf: the server's durable state, on pluggable media.
//!
//! The in-memory persistence layer (`srbsg-persist`) models crash-safe
//! checkpoints and journals inside a [`Store`]; what a real process needs
//! on top is getting each bank's scheme state — plus the simulated PCM
//! array it maps — onto durable media so the state survives `SIGKILL`.
//! The shelf is written against the [`Media`] trait, so the same protocol
//! runs over a real directory ([`srbsg_persist::DirMedia`]), the in-memory
//! medium, or a deterministic fault injector
//! ([`srbsg_persist::FaultyMedia`]).
//!
//! The shelf holds a **checkpoint** — the whole device image — plus a
//! **delta log** of the commits since it:
//!
//! * Every batch that acknowledges a write appends one CRC-framed record
//!   to *both* log copies, `log.a` and `log.b`, then runs a **doubled**
//!   barrier ([`commit_with_healing`]). A record carries the commit's
//!   counters and, per bank, the `(slot, data, wear)` of every slot the
//!   batch touched (the bank's dirty set,
//!   [`srbsg_pcm::PcmBank::drain_dirty`]) followed by the **descriptors**
//!   of the remap steps the bank ran since the previous record, in order
//!   ([`srbsg_persist::Journaled::drain_steps`]). A descriptor is the
//!   step's journal payload: a few bytes naming an outer DFN movement or
//!   an inner Start-Gap movement of one sub-region. Each step is a
//!   deterministic function of the scheme's registers, so the payload
//!   rebuilds it, and every slot it writes is dirty, so the record already
//!   holds its result: no before-image or journal byte is logged. Counts,
//!   slots, wear and lengths are LEB128 varints and a line is its kind
//!   byte, plus the tag only for `Mixed`. So a commit writes O(batch)
//!   bytes, not O(device), and few of them.
//! * When the log would reach the size of the checkpoint image, the
//!   commit writes a new checkpoint instead and empties both logs. Write
//!   amplification stays within 2× and a load replays at most one image's
//!   worth of records. Boot and the drain finale always checkpoint.
//! * The checkpoint keeps two full copies, `state.a` and `state.b`, each
//!   replaced by write-to-temp + barrier + rename, then a doubled barrier
//!   ([`DiskShelf::save`]). [`checkpoint_with_healing`] encodes the image
//!   straight from the live banks into one buffer the shelf keeps, with
//!   the same bytes as [`ShelfState::capture`] would encode. A bank's
//!   image carries its scheme's whole [`Store`], in-memory journal
//!   included.
//!
//! Under the single-fault model, one lying fsync can never leave a
//! reported-durable commit unflushed, because an honest barrier always
//! runs after the last mutation; one rotten copy of a checkpoint or of a
//! log record is served from its twin. A failed append falls back to a
//! full checkpoint, so a torn record never sits before a committed one
//! and no dirty slot or step is lost.
//!
//! [`DiskShelf::load`] CRC-validates both checkpoint copies and serves the
//! newest valid one, then folds in the log records that follow it: their
//! slots overwrite the image's, and their descriptors replay, metadata
//! only, onto the scheme recovered from the checkpoint's store. A step
//! that would move a line into a slot its record does not carry is a
//! typed corruption. A bank whose steps replayed comes back with a store
//! holding one snapshot of the replayed scheme. The scrub rewrites a
//! damaged checkpoint copy from its twin, takes a rotten log record from
//! the other log copy, ignores an uncommitted torn tail, and reports what
//! it found (typed as corruption vs truncation); damage to both copies of
//! anything committed is a typed [`ShelfError::Decode`], never a
//! plausible-but-wrong state. Load never rewrites a log copy: a crash
//! during such a rewrite could cut committed records out of the copy it
//! trusted. The checkpoint that follows every load (boot, recovery)
//! replaces both logs instead.
//!
//! Ordering contract with the serving path: a write is acknowledged to
//! the client only **after** the commit that contains it returns, so
//! "acked" implies "on the shelf, twice" implies "recoverable". A commit
//! that fails is never acked; [`save_with_healing`] classifies the
//! failure — retry transient EIO with capped backoff, degrade to typed
//! read-only on persistent ENOSPC, refuse otherwise.

use std::io;
use std::path::{Path, PathBuf};
use std::time::Duration;

use srbsg_core::SecurityRbsg;
use srbsg_pcm::{LineAddr, LineData, MultiBankSystem, Ns, PcmBank, PhysOp};
use srbsg_persist::{
    crc64, decode_line_data, encode_snapshot, Dec, DirMedia, Enc, Journaled, JournaledScheme,
    Media, MediaError, PersistError, Store,
};

use crate::engine::ServerScheme;

const MAGIC: u64 = 0x5342_5347_5348_4C46; // "SBSGSHLF"
const VERSION: u32 = 4;

/// The two checkpoint copies on the medium (dual-slot rot tolerance).
pub const SHELF_SLOTS: [&str; 2] = ["state.a", "state.b"];

const SHELF_TMPS: [&str; 2] = ["state.a.tmp", "state.b.tmp"];

/// The two copies of the delta log on the medium.
pub const SHELF_LOGS: [&str; 2] = ["log.a", "log.b"];

/// Durable image of one bank: its scheme's persistence store plus the PCM
/// array contents the scheme maps.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankShelf {
    /// The persistence store (dual snapshot slots, marker, journal): as
    /// the checkpoint holds it, or, once load replayed log steps onto it,
    /// one snapshot of the replayed scheme.
    pub store: Store,
    /// Addressable slot count of the bank.
    pub slots: u64,
    /// Per-slot line contents.
    pub data: Vec<LineData>,
    /// Per-slot wear counters.
    pub wear: Vec<u64>,
    /// The SRAM-backed slot, if marked.
    pub sram_slot: Option<u64>,
}

impl BankShelf {
    /// Capture a bank's durable image.
    pub fn capture(store: &Store, bank: &PcmBank) -> Self {
        let slots = bank.slots();
        let data = (0..slots).map(|s| bank.read_line(s)).collect();
        let wear = (0..slots).map(|s| bank.wear_of(s)).collect();
        Self {
            store: store.clone(),
            slots,
            data,
            wear,
            sram_slot: bank.sram_slot(),
        }
    }

    /// Rebuild a physical bank from the captured image. The bank is
    /// reconstructed fault-free (the chaos harness injects process kills,
    /// not cell faults): contents and wear counters match the capture.
    pub fn restore_bank(&self, endurance: u64, timing: srbsg_pcm::TimingModel) -> PcmBank {
        let mut bank = PcmBank::new(self.slots, endurance, timing);
        if let Some(s) = self.sram_slot {
            bank.mark_sram(s);
        }
        for slot in 0..self.slots {
            let want = self.data[slot as usize];
            if bank.read_line(slot) != want {
                bank.write_line(slot, want);
            }
            let have = bank.wear_of(slot);
            bank.add_wear(slot, self.wear[slot as usize].saturating_sub(have));
        }
        bank
    }

    fn store_parts(store: &Store) -> [&Vec<u8>; 4] {
        [
            &store.slots[0],
            &store.slots[1],
            &store.marker,
            &store.journal,
        ]
    }

    fn decode_store(dec: &mut Dec) -> Result<Store, PersistError> {
        let mut part = || -> Result<Vec<u8>, PersistError> {
            let len = dec.u64()? as usize;
            Ok(dec.take(len)?.to_vec())
        };
        Ok(Store {
            slots: [part()?, part()?],
            marker: part()?,
            journal: part()?,
        })
    }

    /// Bytes one bank's image takes in a checkpoint.
    fn image_len(store: &Store, slots: u64, sram_slot: Option<u64>) -> usize {
        let store: usize = Self::store_parts(store).iter().map(|p| 8 + p.len()).sum();
        let sram = if sram_slot.is_some() { 9 } else { 1 };
        store + 8 + slots as usize * (LINE_DATA_BYTES + 8) + sram
    }

    /// Append one bank's checkpoint image to `out`: the store, the slot
    /// count, every slot's line data (in
    /// [`srbsg_persist::encode_line_data`]'s layout), every slot's wear,
    /// and the SRAM slot. The captured and the streamed checkpoint both
    /// encode through here.
    fn encode_image(
        out: &mut Vec<u8>,
        store: &Store,
        lines: impl Iterator<Item = LineData>,
        wear: &[u64],
        sram_slot: Option<u64>,
    ) {
        for part in Self::store_parts(store) {
            out.extend_from_slice(&(part.len() as u64).to_le_bytes());
            out.extend_from_slice(part);
        }
        out.extend_from_slice(&(wear.len() as u64).to_le_bytes());
        let at = out.len();
        out.resize(at + wear.len() * LINE_DATA_BYTES, 0);
        for (cell, d) in out[at..].chunks_exact_mut(LINE_DATA_BYTES).zip(lines) {
            let (kind, tag) = match d {
                LineData::Zeros => (0, 0),
                LineData::Ones => (1, 0),
                LineData::Mixed(tag) => (2, tag),
            };
            cell[0] = kind;
            cell[1..].copy_from_slice(&tag.to_le_bytes());
        }
        let at = out.len();
        out.resize(at + wear.len() * 8, 0);
        for (cell, w) in out[at..].chunks_exact_mut(8).zip(wear) {
            cell.copy_from_slice(&w.to_le_bytes());
        }
        match sram_slot {
            None => out.push(0),
            Some(s) => {
                out.push(1);
                out.extend_from_slice(&s.to_le_bytes());
            }
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, PersistError> {
        let store = Self::decode_store(dec)?;
        let slots = dec.u64()?;
        if slots > 1 << 32 {
            return Err(PersistError::Corrupt("implausible bank slot count"));
        }
        let mut data = Vec::with_capacity(slots as usize);
        for _ in 0..slots {
            data.push(decode_line_data(dec)?);
        }
        let mut wear = Vec::with_capacity(slots as usize);
        for _ in 0..slots {
            wear.push(dec.u64()?);
        }
        let sram_slot = match dec.u8()? {
            0 => None,
            1 => Some(dec.u64()?),
            _ => return Err(PersistError::Corrupt("bad sram flag")),
        };
        Ok(Self {
            store,
            slots,
            data,
            wear,
            sram_slot,
        })
    }
}

/// Bytes [`srbsg_persist::encode_line_data`] writes per line.
const LINE_DATA_BYTES: usize = 5;

/// Checkpoint bytes ahead of the per-bank images: magic, version, the
/// stamp, the clock and the bank count.
const IMAGE_HEADER_BYTES: usize = 64;

/// Start a checkpoint image in `out`, emptied first: its header, sized for
/// `len` bytes in all.
fn begin_image(out: &mut Vec<u8>, len: usize, stamp: CommitStamp, now_ns: Ns, banks: usize) {
    out.clear();
    out.reserve(len);
    let mut enc = Enc::from_vec(std::mem::take(out));
    enc.u64(MAGIC);
    enc.u32(VERSION);
    enc.u64(stamp.save_seq);
    enc.u64(stamp.generation);
    enc.u64(stamp.seed);
    enc.u64((now_ns >> 64) as u64);
    enc.u64(now_ns as u64);
    enc.u64(stamp.acked_writes);
    enc.u32(banks as u32);
    *out = enc.into_bytes();
}

/// Close a checkpoint image with the CRC of everything before it.
fn seal_image(out: &mut Vec<u8>, len: usize) {
    let crc = crc64(out);
    out.extend_from_slice(&crc.to_le_bytes());
    debug_assert_eq!(out.len(), len, "checkpoint size estimate is exact");
}

/// Encode the checkpoint image of a live device into `out`, straight from
/// its banks: the same bytes as `ShelfState::capture(sys, stamp)` encodes,
/// without the capture's copy of every line and wear counter.
fn encode_live_image(out: &mut Vec<u8>, sys: &MultiBankSystem<ServerScheme>, stamp: CommitStamp) {
    let banks = sys.banks();
    let len = IMAGE_HEADER_BYTES
        + banks
            .iter()
            .map(|mc| {
                let bank = mc.bank();
                BankShelf::image_len(mc.scheme().store(), bank.slots(), bank.sram_slot())
            })
            .sum::<usize>()
        + 8;
    begin_image(out, len, stamp, sys.now_ns(), banks.len());
    for mc in banks {
        let bank = mc.bank();
        let slots = bank.slots();
        BankShelf::encode_image(
            out,
            mc.scheme().store(),
            (0..slots).map(|s| bank.read_line(s)),
            &bank.wear()[..slots as usize],
            bank.sram_slot(),
        );
    }
    seal_image(out, len);
}

/// The engine's counters a commit stamps on the shelf.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CommitStamp {
    /// Monotonic commit counter (see [`ShelfState::save_seq`]).
    pub save_seq: u64,
    /// Restart generation (see [`ShelfState::generation`]).
    pub generation: u64,
    /// The configured base Security RBSG seed.
    pub seed: u64,
    /// Writes acknowledged over the server's lifetime, this commit's
    /// included.
    pub acked_writes: u64,
}

/// Durable image of the whole server device.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShelfState {
    /// Monotonic commit counter: one per checkpoint or log record. Both
    /// checkpoint copies carry the same `save_seq` after a complete save;
    /// after a crash between the two slot renames they differ, and load
    /// picks the newest valid copy. Acknowledged writes are always covered
    /// by the *older* of the two (acks go out only after both slots land),
    /// so either choice loses nothing acked.
    pub save_seq: u64,
    /// Restart generation: 0 for a fresh store, +1 per recovery. Feeds
    /// the re-key seed so every power session maps differently.
    pub generation: u64,
    /// The configured base Security RBSG seed.
    pub seed: u64,
    /// The simulated device clock at capture time.
    pub now_ns: Ns,
    /// Writes acknowledged over the server's lifetime (all generations).
    pub acked_writes: u64,
    /// Per-bank images.
    pub banks: Vec<BankShelf>,
}

impl ShelfState {
    /// Capture the whole durable image of a serving device, stamped with
    /// the engine's counters.
    pub fn capture(sys: &MultiBankSystem<ServerScheme>, stamp: CommitStamp) -> Self {
        Self {
            save_seq: stamp.save_seq,
            generation: stamp.generation,
            seed: stamp.seed,
            now_ns: sys.now_ns(),
            acked_writes: stamp.acked_writes,
            banks: sys
                .banks()
                .iter()
                .map(|mc| BankShelf::capture(mc.scheme().store(), mc.bank()))
                .collect(),
        }
    }

    /// The engine's counters this image is stamped with.
    fn stamp(&self) -> CommitStamp {
        CommitStamp {
            save_seq: self.save_seq,
            generation: self.generation,
            seed: self.seed,
            acked_writes: self.acked_writes,
        }
    }

    /// Encode the checkpoint image into `out`, replacing its contents.
    fn encode_into(&self, out: &mut Vec<u8>) {
        let len = IMAGE_HEADER_BYTES
            + self
                .banks
                .iter()
                .map(|b| BankShelf::image_len(&b.store, b.slots, b.sram_slot))
                .sum::<usize>()
            + 8;
        begin_image(out, len, self.stamp(), self.now_ns, self.banks.len());
        for b in &self.banks {
            BankShelf::encode_image(out, &b.store, b.data.iter().copied(), &b.wear, b.sram_slot);
        }
        seal_image(out, len);
    }

    #[cfg(test)]
    fn encode(&self) -> Vec<u8> {
        let mut bytes = Vec::new();
        self.encode_into(&mut bytes);
        bytes
    }

    fn decode(bytes: &[u8]) -> Result<Self, PersistError> {
        if bytes.len() < 8 {
            return Err(PersistError::Truncated);
        }
        let (payload, crc_bytes) = bytes.split_at(bytes.len() - 8);
        let stored = u64::from_le_bytes(crc_bytes.try_into().unwrap());
        if crc64(payload) != stored {
            return Err(PersistError::Corrupt("shelf checksum mismatch"));
        }
        let mut dec = Dec::new(payload);
        if dec.u64()? != MAGIC {
            return Err(PersistError::Corrupt("bad shelf magic"));
        }
        if dec.u32()? != VERSION {
            return Err(PersistError::Corrupt("unsupported shelf version"));
        }
        let save_seq = dec.u64()?;
        let generation = dec.u64()?;
        let seed = dec.u64()?;
        let now_hi = dec.u64()?;
        let now_lo = dec.u64()?;
        let acked_writes = dec.u64()?;
        let nbanks = dec.u32()? as usize;
        if nbanks > 4096 {
            return Err(PersistError::Corrupt("implausible bank count"));
        }
        let mut banks = Vec::with_capacity(nbanks);
        for _ in 0..nbanks {
            banks.push(BankShelf::decode(&mut dec)?);
        }
        dec.finish()?;
        Ok(Self {
            save_seq,
            generation,
            seed,
            now_ns: ((now_hi as Ns) << 64) | now_lo as Ns,
            acked_writes,
            banks,
        })
    }
}

/// A bank's scheme while load replays log steps onto it: recovered, metadata
/// only, from the checkpoint's store at the first record that carries a
/// step of the bank.
#[derive(Clone)]
struct BankReplay {
    scheme: SecurityRbsg,
    /// The journal sequence number the scheme's next record would take.
    next_seq: u64,
}

/// What load carries from one log record to the next, for a state of as
/// many banks as [`LogReplay::new`] was given.
#[derive(Clone)]
struct LogReplay {
    /// Per bank, its replayed scheme once a record carried a step of it.
    banks: Vec<Option<BankReplay>>,
    /// The slots the record being folded carries for one bank.
    carried: Vec<LineAddr>,
    /// Descriptors replayed so far, over all banks.
    steps: u64,
}

impl LogReplay {
    fn new(banks: usize) -> Self {
        Self {
            banks: (0..banks).map(|_| None).collect(),
            carried: Vec::new(),
            steps: 0,
        }
    }

    /// Fold one log record (the payload of a whole frame) into `state`.
    /// Record layout (`var` is an LEB128 varint, `line` a kind byte —
    /// 0 zeros, 1 ones, 2 mixed — then, for mixed only, its tag `u32`):
    ///
    /// ```text
    /// save_seq var | now_ns (hi var, lo var) | acked_writes var | banks var
    /// per bank: dirty var | dirty × (slot var | line | wear var)
    ///         | steps len var | steps: (len var | descriptor)*
    /// ```
    ///
    /// A descriptor is the payload the bank's scheme committed a remap
    /// step with; the bank's descriptors follow in the order its steps
    /// ran. Each replays onto the bank's scheme, and every slot the
    /// replayed step writes must be one this record carries.
    fn apply(&mut self, state: &mut ShelfState, payload: &[u8]) -> Result<(), PersistError> {
        let mut dec = Dec::new(payload);
        state.save_seq = dec.varint()?;
        let now_hi = dec.varint()?;
        let now_lo = dec.varint()?;
        state.now_ns = ((now_hi as Ns) << 64) | now_lo as Ns;
        state.acked_writes = dec.varint()?;
        if dec.varint()? != state.banks.len() as u64 {
            return Err(PersistError::Corrupt("shelf log record bank count"));
        }
        for (bank, replay) in state.banks.iter_mut().zip(&mut self.banks) {
            let dirty = dec.varint()?;
            self.carried.clear();
            for _ in 0..dirty {
                let slot = dec.varint()?;
                if slot >= bank.slots {
                    return Err(PersistError::Corrupt("shelf log slot out of range"));
                }
                bank.data[slot as usize] = decode_record_line(&mut dec)?;
                bank.wear[slot as usize] = dec.varint()?;
                self.carried.push(slot);
            }
            let mut steps = Dec::new(take_varint_len(&mut dec)?);
            while steps.remaining() > 0 {
                let descriptor = take_varint_len(&mut steps)?;
                let replay = match replay {
                    Some(r) => r,
                    None => {
                        let (scheme, next_seq) =
                            Journaled::<SecurityRbsg>::replay_metadata(&bank.store)?;
                        replay.insert(BankReplay { scheme, next_seq })
                    }
                };
                for op in replay.scheme.replay_step(descriptor)? {
                    let carried = match op {
                        PhysOp::Move { dst, .. } => self.carried.contains(&dst),
                        PhysOp::Swap { a, b } => {
                            self.carried.contains(&a) && self.carried.contains(&b)
                        }
                    };
                    if !carried {
                        return Err(PersistError::Corrupt(
                            "shelf log step writes a slot its record does not carry",
                        ));
                    }
                }
                // A journaled step takes two records: the step, its commit.
                replay.next_seq += 2;
                self.steps += 1;
            }
        }
        dec.finish()
    }

    /// Give every bank whose steps replayed a store holding one snapshot of
    /// its replayed scheme; returns the descriptors replayed.
    fn finish(self, state: &mut ShelfState) -> u64 {
        for (bank, replay) in state.banks.iter_mut().zip(self.banks) {
            if let Some(BankReplay { scheme, next_seq }) = replay {
                bank.store = Store::with_snapshot(encode_snapshot(&scheme, next_seq), next_seq);
            }
        }
        self.steps
    }
}

/// A record's line data: the kind byte, then the tag for `Mixed` only.
fn encode_record_line(enc: &mut Enc, data: LineData) {
    match data {
        LineData::Zeros => enc.u8(0),
        LineData::Ones => enc.u8(1),
        LineData::Mixed(tag) => {
            enc.u8(2);
            enc.u32(tag);
        }
    }
}

/// Inverse of [`encode_record_line`].
fn decode_record_line(dec: &mut Dec) -> Result<LineData, PersistError> {
    match dec.u8()? {
        0 => Ok(LineData::Zeros),
        1 => Ok(LineData::Ones),
        2 => Ok(LineData::Mixed(dec.u32()?)),
        _ => Err(PersistError::Corrupt("unknown line-data kind")),
    }
}

/// A varint length, then that many bytes.
fn put_varint_len(enc: &mut Enc, bytes: &[u8]) {
    enc.varint(bytes.len() as u64);
    enc.bytes(bytes);
}

/// Inverse of [`put_varint_len`].
fn take_varint_len<'a>(dec: &mut Dec<'a>) -> Result<&'a [u8], PersistError> {
    let len = usize::try_from(dec.varint()?).map_err(|_| PersistError::Truncated)?;
    dec.take(len)
}

/// Log frame: `len u32 | check u32 | payload (len bytes) | crc64 u64`,
/// where `check` is the low half of the CRC of the length bytes. Checking
/// the header on its own tells a torn tail (whole header, payload cut
/// short) from rot in the length field.
const FRAME_OVERHEAD: usize = 16;

fn frame_check(len: u32) -> u32 {
    crc64(&len.to_le_bytes()) as u32
}

/// Frame the payload at `buf[8..]` in place: fill in the header the
/// first 8 bytes hold room for, and append the payload's CRC.
fn seal_frame(buf: &mut Vec<u8>) {
    let len = u32::try_from(buf.len() - 8).expect("shelf log record under 4 GiB");
    buf[..4].copy_from_slice(&len.to_le_bytes());
    buf[4..8].copy_from_slice(&frame_check(len).to_le_bytes());
    let crc = crc64(&buf[8..]);
    buf.extend_from_slice(&crc.to_le_bytes());
}

/// What one log copy holds at an offset.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Frame {
    /// The copy ends here.
    End,
    /// An append cut short: the frame runs past the end of the copy.
    Torn,
    /// A header or payload that fails its check.
    Rotten,
    /// A valid frame of this many bytes, header and CRC included.
    Whole(usize),
}

fn frame_at(log: &[u8], off: usize) -> Frame {
    let rest = log.get(off..).unwrap_or_default();
    if rest.is_empty() {
        return Frame::End;
    }
    let Some(header) = rest.get(..8) else {
        return Frame::Torn;
    };
    let len = u32::from_le_bytes(header[..4].try_into().unwrap());
    if u32::from_le_bytes(header[4..].try_into().unwrap()) != frame_check(len) {
        return Frame::Rotten;
    }
    let total = len as usize + FRAME_OVERHEAD;
    let Some(whole) = rest.get(..total) else {
        return Frame::Torn;
    };
    let (body, crc) = whole.split_at(total - 8);
    if crc64(&body[8..]) == u64::from_le_bytes(crc.try_into().unwrap()) {
        Frame::Whole(total)
    } else {
        Frame::Rotten
    }
}

/// The log as load reconstructs it from its two copies.
struct MergedLog {
    /// The payloads of the whole frames, in order, each as the copy it
    /// validates in and its byte range there.
    payloads: Vec<(usize, std::ops::Range<usize>)>,
    /// A copy that had a rotten frame its twin held whole.
    rotten_copy: Option<usize>,
    /// Whether either copy had bytes past the last whole frame.
    dropped_tail: bool,
}

/// Walk both log copies in step. Every commit appends identical bytes to
/// both, so frames sit at the same offsets; where one copy is rotten the
/// other's frame is taken. A record commits only once it is whole in both
/// copies, so the log ends at the first offset where either copy is torn
/// or ended: that record never committed and is ignored. Both copies
/// rotten at one offset is committed data lost — a typed error.
fn merge_logs(copies: &[Vec<u8>; 2]) -> Result<MergedLog, PersistError> {
    let mut merged = MergedLog {
        payloads: Vec::new(),
        rotten_copy: None,
        dropped_tail: false,
    };
    let mut off = 0;
    loop {
        let at = [frame_at(&copies[0], off), frame_at(&copies[1], off)];
        let src = match at {
            [Frame::Whole(_), Frame::Whole(_) | Frame::Rotten] => 0,
            [Frame::Rotten, Frame::Whole(_)] => 1,
            [Frame::Rotten, Frame::Rotten] => {
                return Err(PersistError::Corrupt("both shelf log copies rotten"))
            }
            _ => break,
        };
        if at[1 - src] == Frame::Rotten {
            merged.rotten_copy = Some(1 - src);
        }
        let Frame::Whole(len) = at[src] else {
            unreachable!("src holds a whole frame")
        };
        merged.payloads.push((src, off + 8..off + len - 8));
        off += len;
    }
    merged.dropped_tail = copies.iter().any(|c| c.len() > off);
    Ok(merged)
}

/// Why a shelf operation failed — typed, so the boot path and the
/// operator log can distinguish a failing medium from a corrupt or
/// truncated state image.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ShelfError {
    /// The medium itself failed (see the typed [`MediaError`]).
    Media(MediaError),
    /// Neither copy of the checkpoint, or of a committed log record,
    /// decodes; for the checkpoint the error is the primary slot's,
    /// distinguishing corruption from truncation.
    Decode(PersistError),
}

impl core::fmt::Display for ShelfError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            ShelfError::Media(e) => write!(f, "shelf medium failed: {e}"),
            ShelfError::Decode(e) => write!(f, "no usable shelf state copy: {e}"),
        }
    }
}

impl std::error::Error for ShelfError {}

impl From<ShelfError> for io::Error {
    fn from(e: ShelfError) -> Self {
        match e {
            ShelfError::Media(m) => m.into(),
            ShelfError::Decode(_) => io::Error::new(io::ErrorKind::InvalidData, e.to_string()),
        }
    }
}

/// What [`DiskShelf::load`]'s scrub found and repaired.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ShelfScrub {
    /// Index into [`SHELF_SLOTS`] of a damaged copy rewritten from the
    /// surviving one.
    pub healed_slot: Option<usize>,
    /// Why the healed copy was unusable — [`PersistError::Truncated`] for
    /// a torn file, [`PersistError::Corrupt`] for rot.
    pub damage: Option<PersistError>,
    /// Index into [`SHELF_LOGS`] of a log copy with a rotten record, which
    /// load took from the twin. The copy stays as it is until the next
    /// checkpoint replaces both logs.
    pub healed_log: Option<usize>,
    /// Whether the log ended in an uncommitted record (a torn or
    /// half-written append), which load ignored.
    pub dropped_tail: bool,
    /// Stale temporaries (from a save that died between create and
    /// rename) removed on open.
    pub stale_tmps_removed: u32,
    /// Remap-step descriptors the log records replayed onto the banks'
    /// schemes.
    pub replayed_steps: u64,
}

impl ShelfScrub {
    /// Whether the scrub found anything to repair or ignore.
    pub fn healed(&self) -> bool {
        self.healed_slot.is_some()
            || self.healed_log.is_some()
            || self.dropped_tail
            || self.stale_tmps_removed > 0
    }
}

/// What the shelf knows about its delta log since the last checkpoint.
#[derive(Debug, Default)]
struct LogCursor {
    /// Whether records may be appended: a checkpoint landed and no append
    /// failed since, so the log holds only whole, committed records.
    open: bool,
    /// Bytes in each log copy.
    bytes: u64,
    /// Bytes of the checkpoint image: the log's budget before the next.
    budget: u64,
}

/// Handle on the medium holding the server's durable state.
#[derive(Debug)]
pub struct DiskShelf {
    media: Box<dyn Media>,
    dir: PathBuf,
    log: LogCursor,
    /// The checkpoint image being saved; kept, so a checkpoint reuses the
    /// previous one's allocation.
    image: Vec<u8>,
    /// The framed log record being appended, likewise reused.
    record: Vec<u8>,
    /// One bank's dirty slots while a record is built, likewise reused.
    dirty: Vec<LineAddr>,
    /// One bank's step descriptors while a record is built, likewise
    /// reused.
    steps: Vec<u8>,
}

impl DiskShelf {
    /// Open (creating if needed) the data directory at `dir` as the
    /// backing medium. With `fsync`, every commit is flushed through the
    /// page cache — needed to survive power loss, not needed to survive
    /// process kills. Stale temporaries left by a save that died between
    /// create and rename are removed here.
    pub fn open(dir: &Path, fsync: bool) -> io::Result<Self> {
        let media = DirMedia::open(dir, fsync)?;
        let mut shelf = Self::with_dir(Box::new(media), dir.to_path_buf());
        shelf.sweep_tmps().map_err(io::Error::from)?;
        Ok(shelf)
    }

    /// Shelve onto an arbitrary medium (in-memory default, fault
    /// injection). Sidecar paths resolve against the current directory.
    pub fn with_media(media: Box<dyn Media>) -> Self {
        let mut shelf = Self::with_dir(media, PathBuf::new());
        // Media errors here surface on the first save/load instead.
        let _ = shelf.sweep_tmps();
        shelf
    }

    fn with_dir(media: Box<dyn Media>, dir: PathBuf) -> Self {
        Self {
            media,
            dir,
            log: LogCursor::default(),
            image: Vec::new(),
            record: Vec::new(),
            dirty: Vec::new(),
            steps: Vec::new(),
        }
    }

    /// Remove stale `*.tmp` files (a save that died between create and
    /// rename leaves one; it must never shadow or outlive real state).
    fn sweep_tmps(&mut self) -> Result<u32, MediaError> {
        let mut removed = 0;
        for name in self.media.list()? {
            if name.ends_with(".tmp") {
                self.media.remove(&name)?;
                removed += 1;
            }
        }
        Ok(removed)
    }

    /// Path of a small sidecar file (endpoint advertisement, pid file).
    pub fn sidecar(&self, name: &str) -> PathBuf {
        self.dir.join(name)
    }

    /// Checkpoint: replace both state copies with `state`, barrier, and
    /// empty the delta log.
    ///
    /// Protocol, per slot: write the temporary, barrier (the data must be
    /// durable before the commit), rename onto the slot. After both
    /// slots: **two** barriers — the doubled commit barrier means a
    /// single lying fsync can never leave a reported-durable save
    /// unflushed, because at least one honest barrier always runs after
    /// the last mutation. Then both log copies are removed; that removal
    /// need not be durable, since any record it would resurrect is at or
    /// below `state.save_seq` and load skips it. Any error aborts the
    /// save; the caller must not acknowledge the writes it covers (see
    /// [`save_with_healing`]).
    pub fn save(&mut self, state: &ShelfState) -> Result<(), MediaError> {
        state.encode_into(&mut self.image);
        self.save_image()
    }

    /// Save the encoded image as the checkpoint ([`DiskShelf::save`]'s
    /// protocol). Every checkpoint lands through here.
    fn save_image(&mut self) -> Result<(), MediaError> {
        self.log.open = false;
        for (slot, tmp) in SHELF_SLOTS.iter().zip(SHELF_TMPS) {
            self.media.write(tmp, &self.image)?;
            self.media.sync()?;
            self.media.rename(tmp, slot)?;
        }
        self.media.sync()?;
        self.media.sync()?;
        for log in SHELF_LOGS {
            self.media.remove(log)?;
        }
        self.log = LogCursor {
            open: true,
            bytes: 0,
            budget: self.image.len() as u64,
        };
        Ok(())
    }

    /// Build, in `self.record`, the framed log record committing `sys` at
    /// `stamp`, draining every bank's dirty set and step descriptors.
    /// Returns `false` when the commit must be a checkpoint instead: the
    /// log is closed, a bank was not tracking its dirty slots or steps yet
    /// (tracking starts now), or the log would reach the checkpoint
    /// image's size.
    fn delta_record(
        &mut self,
        sys: &mut MultiBankSystem<ServerScheme>,
        stamp: CommitStamp,
    ) -> bool {
        let mut ok = self.log.open;
        let now = sys.now_ns();
        self.record.clear();
        let mut enc = Enc::from_vec(std::mem::take(&mut self.record));
        // Room for the frame header, filled in once the length is known.
        enc.u64(0);
        enc.varint(stamp.save_seq);
        enc.varint((now >> 64) as u64);
        enc.varint(now as u64);
        enc.varint(stamp.acked_writes);
        enc.varint(sys.bank_count() as u64);
        for mc in sys.banks_mut() {
            // Both drain, tracked or not, so neither carries over.
            let tracked = mc.bank_mut().drain_dirty(&mut self.dirty)
                & mc.scheme_mut().drain_steps(&mut self.steps);
            if !tracked {
                mc.bank_mut().track_dirty();
                mc.scheme_mut().track_steps();
                ok = false;
                continue;
            }
            if !ok {
                continue;
            }
            enc.varint(self.dirty.len() as u64);
            for &slot in &self.dirty {
                enc.varint(slot);
                encode_record_line(&mut enc, mc.bank().read_line(slot));
                enc.varint(mc.bank().wear_of(slot));
            }
            put_varint_len(&mut enc, &self.steps);
        }
        self.record = enc.into_bytes();
        seal_frame(&mut self.record);
        ok && self.log.bytes + (self.record.len() as u64) < self.log.budget
    }

    /// Append the framed record [`DiskShelf::delta_record`] built to both
    /// log copies, then the doubled barrier. A failure closes the log until
    /// the next checkpoint.
    fn append_record(&mut self) -> Result<(), MediaError> {
        self.log.open = false;
        for log in SHELF_LOGS {
            self.media.append(log, &self.record)?;
        }
        self.media.sync()?;
        self.media.sync()?;
        self.log.open = true;
        self.log.bytes += self.record.len() as u64;
        Ok(())
    }

    /// After a checkpoint of `sys`: start dirty and step tracking on every
    /// bank, so the next commit can be a log record.
    fn arm_log(&mut self, sys: &mut MultiBankSystem<ServerScheme>) {
        for mc in sys.banks_mut() {
            mc.bank_mut().track_dirty();
            mc.scheme_mut().track_steps();
        }
    }

    /// Load the newest valid checkpoint and fold in the log records after
    /// it, scrubbing on the way in: `Ok(None)` when the medium holds no
    /// state at all (fresh start).
    ///
    /// Both checkpoint copies are CRC-validated. When one is torn or
    /// rotten and the other survives, the survivor is served and
    /// **rewritten over the damaged copy**, durably. The log is then read
    /// from both copies: a record rotten in one copy is taken from the
    /// other, and a torn tail (an append that never committed) is
    /// ignored. Records at or below the checkpoint's `save_seq` predate it
    /// and are skipped; the rest must continue it one commit at a time.
    /// The log copies are left as they are, and the log stays closed, so
    /// the next commit is a checkpoint that replaces them. The
    /// [`ShelfScrub`] reports what was found. When both copies of the
    /// checkpoint, or of a committed record, fail validation, load refuses
    /// with the typed decode error — never a plausible-but-wrong state.
    pub fn load(&mut self) -> Result<Option<(ShelfState, ShelfScrub)>, ShelfError> {
        self.log = LogCursor::default();
        let Some((mut state, mut scrub)) = self.load_checkpoint()? else {
            return Ok(None);
        };
        let mut copies: [Vec<u8>; 2] = Default::default();
        for (copy, name) in copies.iter_mut().zip(SHELF_LOGS) {
            *copy = self
                .media
                .read(name)
                .map_err(ShelfError::Media)?
                .unwrap_or_default();
        }
        let log = merge_logs(&copies).map_err(ShelfError::Decode)?;
        let mut replay = LogReplay::new(state.banks.len());
        for (src, range) in log.payloads {
            let payload = &copies[src][range];
            let seq = Dec::new(payload).varint().map_err(ShelfError::Decode)?;
            if seq <= state.save_seq {
                continue;
            }
            if seq != state.save_seq + 1 {
                return Err(ShelfError::Decode(PersistError::Corrupt(
                    "shelf log skips a commit",
                )));
            }
            replay
                .apply(&mut state, payload)
                .map_err(ShelfError::Decode)?;
        }
        scrub.replayed_steps = replay.finish(&mut state);
        scrub.healed_log = log.rotten_copy;
        scrub.dropped_tail = log.dropped_tail;
        Ok(Some((state, scrub)))
    }

    fn load_checkpoint(&mut self) -> Result<Option<(ShelfState, ShelfScrub)>, ShelfError> {
        let mut raw = Vec::with_capacity(2);
        for slot in SHELF_SLOTS {
            raw.push(self.media.read(slot).map_err(ShelfError::Media)?);
        }
        if raw.iter().all(|r| r.is_none()) {
            return Ok(None);
        }
        let decoded: Vec<Result<ShelfState, PersistError>> = raw
            .iter()
            .map(|r| match r {
                None => Err(PersistError::Truncated),
                Some(bytes) => ShelfState::decode(bytes),
            })
            .collect();
        let best = decoded
            .iter()
            .enumerate()
            .filter_map(|(i, d)| d.as_ref().ok().map(|s| (i, s.save_seq)))
            .max_by_key(|&(i, seq)| (seq, usize::MAX - i));
        let Some((best_idx, _)) = best else {
            // Neither copy decodes: report the primary slot's typed error
            // (corruption vs truncation) so the operator knows which.
            let err = decoded[0].as_ref().err().copied().unwrap();
            return Err(ShelfError::Decode(err));
        };
        let state = decoded[best_idx]
            .as_ref()
            .expect("best slot decodes")
            .clone();
        let mut scrub = ShelfScrub::default();
        let other = 1 - best_idx;
        if let Err(damage) = &decoded[other] {
            // The other copy is torn or rotten: rewrite it from the
            // survivor so the shelf regains its redundancy, durably.
            let survivor = raw[best_idx].as_ref().unwrap().clone();
            self.media
                .write(SHELF_SLOTS[other], &survivor)
                .map_err(ShelfError::Media)?;
            self.media.sync().map_err(ShelfError::Media)?;
            scrub.healed_slot = Some(other);
            scrub.damage = Some(*damage);
        }
        Ok(Some((state, scrub)))
    }
}

/// How [`save_with_healing`] retries transient media errors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Total attempts (first try included).
    pub max_attempts: u32,
    /// Base backoff before the second attempt; doubles per retry.
    pub base_backoff: Duration,
    /// Whether to actually sleep between attempts. The live engine
    /// sleeps; deterministic harnesses set `false`.
    pub sleep: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            max_attempts: 4,
            base_backoff: Duration::from_millis(5),
            sleep: true,
        }
    }
}

/// How a healed commit ended — the engine's durability decision point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SaveOutcome {
    /// The state is durable (both copies, barriered); acks may go out.
    /// `attempts > 1` means failed attempts were healed away.
    Saved {
        /// Attempts used, first try included.
        attempts: u32,
    },
    /// The medium is persistently out of space: the state did **not**
    /// land, retries are pointless, and the tier must degrade to typed
    /// read-only shedding — never acknowledge, never die.
    ReadOnly(MediaError),
    /// A non-retryable failure (or retries exhausted): the state did not
    /// land and the engine must refuse the acks and shut down.
    Failed(MediaError),
}

/// Save with self-healing: retry transient EIO with capped exponential
/// backoff, classify persistent ENOSPC as [`SaveOutcome::ReadOnly`], and
/// report everything else as [`SaveOutcome::Failed`]. A failed attempt may
/// have partially updated the medium; retries simply re-run the whole
/// idempotent save protocol.
pub fn save_with_healing(
    shelf: &mut DiskShelf,
    state: &ShelfState,
    policy: &RetryPolicy,
) -> SaveOutcome {
    state.encode_into(&mut shelf.image);
    save_image_with_healing(shelf, policy)
}

/// [`save_with_healing`] of the image already encoded in the shelf's
/// buffer: the one retry loop every checkpoint goes through.
fn save_image_with_healing(shelf: &mut DiskShelf, policy: &RetryPolicy) -> SaveOutcome {
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match shelf.save_image() {
            Ok(()) => return SaveOutcome::Saved { attempts },
            Err(e) if e.is_no_space() => return SaveOutcome::ReadOnly(e),
            Err(e) if e.is_transient() && attempts < policy.max_attempts => {
                if policy.sleep {
                    std::thread::sleep(policy.base_backoff * (1 << (attempts - 1).min(8)));
                }
            }
            Err(e) => return SaveOutcome::Failed(e),
        }
    }
}

/// Checkpoint a serving device with self-healing ([`save_with_healing`]
/// of its image, encoded straight from the banks) and, once it lands,
/// start the delta log from it: every bank tracks its dirty slots from
/// here on. Boot, the drain finale and [`commit_with_healing`]'s fallback
/// all checkpoint through here.
pub fn checkpoint_with_healing(
    shelf: &mut DiskShelf,
    sys: &mut MultiBankSystem<ServerScheme>,
    stamp: CommitStamp,
    policy: &RetryPolicy,
) -> SaveOutcome {
    encode_live_image(&mut shelf.image, sys, stamp);
    let outcome = save_image_with_healing(shelf, policy);
    if let SaveOutcome::Saved { .. } = outcome {
        shelf.arm_log(sys);
    }
    outcome
}

/// Commit a serving device at `stamp`: the per-batch durability point.
///
/// Normally this appends one log record holding what changed since the
/// previous commit. It writes a full checkpoint instead
/// ([`checkpoint_with_healing`]) when the log would reach the size of the
/// checkpoint image, when no checkpoint has armed the log yet, and when
/// the append fails — so a torn or unsynced record never sits before a
/// committed one, and the dirty slots the record consumed land with the
/// checkpoint. The outcome is the checkpoint's, with a failed append
/// counted as one more attempt.
pub fn commit_with_healing(
    shelf: &mut DiskShelf,
    sys: &mut MultiBankSystem<ServerScheme>,
    stamp: CommitStamp,
    policy: &RetryPolicy,
) -> SaveOutcome {
    let mut failed_appends = 0;
    if shelf.delta_record(sys, stamp) {
        match shelf.append_record() {
            Ok(()) => return SaveOutcome::Saved { attempts: 1 },
            Err(_) => failed_appends = 1,
        }
    }
    match checkpoint_with_healing(shelf, sys, stamp, policy) {
        SaveOutcome::Saved { attempts } => SaveOutcome::Saved {
            attempts: attempts + failed_appends,
        },
        other => other,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use srbsg_pcm::TimingModel;
    use srbsg_persist::{FaultKind, FaultPlan, FaultyMedia, MemMedia, SharedMedia};
    use std::fs;

    fn sample_state() -> ShelfState {
        let mut bank = PcmBank::new(16, 1_000_000, TimingModel::PAPER);
        bank.mark_sram(15);
        bank.write_line(3, LineData::Ones);
        bank.write_line(4, LineData::Mixed(77));
        bank.add_wear(9, 5);
        let store = Store {
            slots: [vec![1, 2, 3], vec![]],
            marker: vec![9; 16],
            journal: vec![4, 5, 6, 7],
        };
        ShelfState {
            save_seq: 1,
            generation: 3,
            seed: 0xABCD,
            now_ns: (7 << 64) | 42,
            acked_writes: 1234,
            banks: vec![BankShelf::capture(&store, &bank)],
        }
    }

    /// A shelf over a shared in-memory medium, plus the control handle.
    fn mem_shelf() -> (DiskShelf, SharedMedia<FaultyMedia<MemMedia>>) {
        let handle = SharedMedia::new(FaultyMedia::new(MemMedia::new()));
        (DiskShelf::with_media(Box::new(handle.clone())), handle)
    }

    #[test]
    fn shelf_roundtrip_through_disk() {
        let dir = std::env::temp_dir().join(format!("srbsg_shelf_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let mut shelf = DiskShelf::open(&dir, false).unwrap();
        assert_eq!(shelf.load().unwrap(), None);
        let state = sample_state();
        shelf.save(&state).unwrap();
        let (back, scrub) = shelf.load().unwrap().unwrap();
        assert_eq!(back, state);
        assert!(!scrub.healed());
        // Both copies are on disk and identical.
        for slot in SHELF_SLOTS {
            assert!(dir.join(slot).exists(), "{slot} missing");
        }
        // Saving again replaces atomically.
        let mut state2 = state;
        state2.save_seq += 1;
        state2.generation += 1;
        shelf.save(&state2).unwrap();
        assert_eq!(shelf.load().unwrap().unwrap().0.generation, 4);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn open_sweeps_stale_tmps() {
        let dir = std::env::temp_dir().join(format!("srbsg_shelf_tmp_{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        {
            let mut shelf = DiskShelf::open(&dir, false).unwrap();
            shelf.save(&sample_state()).unwrap();
        }
        // A save that died between create and rename leaves a temporary.
        fs::write(dir.join("state.a.tmp"), b"half a save").unwrap();
        let mut shelf = DiskShelf::open(&dir, false).unwrap();
        assert!(
            !dir.join("state.a.tmp").exists(),
            "stale tmp must be removed on open"
        );
        // And the real state is untouched.
        assert_eq!(shelf.load().unwrap().unwrap().0, sample_state());
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn one_rotten_copy_heals_from_the_survivor() {
        let (mut shelf, handle) = mem_shelf();
        let state = sample_state();
        shelf.save(&state).unwrap();
        handle.with(|m| {
            m.inner_mut().rot_durable(SHELF_SLOTS[0], 0xBAD, 4);
            m.power_cut();
        });
        let (back, scrub) = shelf.load().unwrap().unwrap();
        assert_eq!(back, state, "survivor copy must serve the exact state");
        assert_eq!(scrub.healed_slot, Some(0));
        assert!(matches!(scrub.damage, Some(PersistError::Corrupt(_))));
        // The heal is durable: after another power cut both copies decode.
        handle.with(|m| m.power_cut());
        let (again, scrub2) = shelf.load().unwrap().unwrap();
        assert_eq!(again, state);
        assert!(!scrub2.healed());
    }

    #[test]
    fn zero_length_and_every_prefix_truncation_are_survivable_or_typed() {
        let (mut shelf, handle) = mem_shelf();
        let state = sample_state();
        shelf.save(&state).unwrap();
        let full = handle.with(|m| m.read(SHELF_SLOTS[0]).unwrap().unwrap());

        // One copy truncated at every prefix length (zero-length
        // included): load serves the survivor and heals, at every cut.
        for cut in 0..full.len() {
            handle.with(|m| {
                m.write(SHELF_SLOTS[0], &full[..cut]).unwrap();
                m.sync().unwrap();
            });
            let (back, scrub) = shelf
                .load()
                .unwrap_or_else(|e| panic!("cut {cut}: {e}"))
                .unwrap();
            assert_eq!(back, state, "cut {cut} served wrong state");
            assert_eq!(scrub.healed_slot, Some(0), "cut {cut} did not heal");
            assert!(scrub.damage.is_some());
        }

        // Both copies truncated: a typed refusal, never a wrong state and
        // never a panic — at every cut.
        for cut in 0..full.len() {
            handle.with(|m| {
                for slot in SHELF_SLOTS {
                    m.write(slot, &full[..cut]).unwrap();
                }
                m.sync().unwrap();
            });
            match shelf.load() {
                Err(ShelfError::Decode(e)) => {
                    assert!(
                        matches!(e, PersistError::Truncated | PersistError::Corrupt(_)),
                        "cut {cut}: unexpected {e:?}"
                    );
                }
                other => panic!("cut {cut}: expected typed decode error, got {other:?}"),
            }
        }

        // Zero-length is typed as truncation, distinguishable from rot.
        handle.with(|m| {
            for slot in SHELF_SLOTS {
                m.write(slot, b"").unwrap();
            }
            m.sync().unwrap();
        });
        assert_eq!(
            shelf.load(),
            Err(ShelfError::Decode(PersistError::Truncated))
        );
    }

    #[test]
    fn load_picks_the_newest_valid_copy_after_a_mid_save_crash() {
        let (mut shelf, handle) = mem_shelf();
        let mut state = sample_state();
        shelf.save(&state).unwrap();
        // Simulate a crash between the two slot renames: slot a carries
        // seq+1, slot b still carries seq.
        state.save_seq += 1;
        state.acked_writes += 10;
        let newer = state.encode();
        handle.with(|m| {
            m.write(SHELF_SLOTS[0], &newer).unwrap();
            m.sync().unwrap();
        });
        let (back, _) = shelf.load().unwrap().unwrap();
        assert_eq!(back.save_seq, state.save_seq);
        assert_eq!(back.acked_writes, state.acked_writes);
    }

    #[test]
    fn a_lying_fsync_cannot_beat_the_doubled_barrier() {
        // Arm the lie at every sync index a save performs; in each case
        // the save that returned Ok must survive the power cut.
        for lie_at in 1..=6u64 {
            let (mut shelf, handle) = mem_shelf();
            let mut state = sample_state();
            state.save_seq = 1;
            shelf.save(&state).unwrap(); // syncs 1..=4
            handle.with(|m| m.set_plan(FaultPlan::new(FaultKind::SyncLie, 4 + lie_at)));
            state.save_seq = 2;
            state.acked_writes += 1;
            shelf.save(&state).unwrap(); // syncs 5..=8, one may lie
            handle.with(|m| m.power_cut());
            let (back, _) = shelf
                .load()
                .unwrap_or_else(|e| panic!("lie at +{lie_at}: {e}"))
                .unwrap();
            assert_eq!(
                back, state,
                "lie at +{lie_at}: a reported-durable save was lost"
            );
        }
    }

    #[test]
    fn save_with_healing_retries_transient_errors_away() {
        let (mut shelf, handle) = mem_shelf();
        let state = sample_state();
        let mut plan = FaultPlan::new(FaultKind::TransientIo, 1);
        plan.burst = 2;
        handle.with(|m| m.set_plan(plan));
        let policy = RetryPolicy {
            max_attempts: 4,
            sleep: false,
            ..RetryPolicy::default()
        };
        match save_with_healing(&mut shelf, &state, &policy) {
            SaveOutcome::Saved { attempts } => assert!(attempts > 1, "must have retried"),
            other => panic!("expected healed save, got {other:?}"),
        }
        assert_eq!(shelf.load().unwrap().unwrap().0, state);
    }

    #[test]
    fn save_with_healing_exhausts_retries_into_failed() {
        let (mut shelf, handle) = mem_shelf();
        let mut plan = FaultPlan::new(FaultKind::TransientIo, 1);
        plan.burst = 100;
        handle.with(|m| m.set_plan(plan));
        let policy = RetryPolicy {
            max_attempts: 3,
            sleep: false,
            ..RetryPolicy::default()
        };
        match save_with_healing(&mut shelf, &sample_state(), &policy) {
            SaveOutcome::Failed(e) => assert!(e.is_transient()),
            other => panic!("expected failure, got {other:?}"),
        }
    }

    #[test]
    fn save_with_healing_classifies_enospc_as_read_only() {
        let (mut shelf, handle) = mem_shelf();
        let state = sample_state();
        shelf.save(&state).unwrap();
        handle.with(|m| m.set_plan(FaultPlan::new(FaultKind::NoSpace, 3)));
        let policy = RetryPolicy {
            sleep: false,
            ..RetryPolicy::default()
        };
        let mut state2 = state.clone();
        state2.save_seq += 1;
        match save_with_healing(&mut shelf, &state2, &policy) {
            SaveOutcome::ReadOnly(e) => assert!(e.is_no_space()),
            other => panic!("expected read-only degradation, got {other:?}"),
        }
        // The previous durable state is still fully loadable.
        handle.with(|m| m.power_cut());
        assert_eq!(shelf.load().unwrap().unwrap().0, state);
    }

    #[test]
    fn rename_failure_fails_the_save_and_the_retry_recovers() {
        let (mut shelf, handle) = mem_shelf();
        let state = sample_state();
        handle.with(|m| m.set_plan(FaultPlan::new(FaultKind::RenameFail, 1)));
        let policy = RetryPolicy {
            sleep: false,
            ..RetryPolicy::default()
        };
        match save_with_healing(&mut shelf, &state, &policy) {
            SaveOutcome::Failed(MediaError::RenameFailed) => {}
            other => panic!("expected rename failure, got {other:?}"),
        }
        // The one-shot fault is gone; a fresh save (post-restart path)
        // succeeds even with the stale tmp still present.
        shelf.save(&state).unwrap();
        assert_eq!(shelf.load().unwrap().unwrap().0, state);
    }

    /// A medium whose durability barrier always fails — the
    /// directory-fsync-failure case.
    #[derive(Debug)]
    struct SyncAlwaysFails(MemMedia);

    impl Media for SyncAlwaysFails {
        fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
            self.0.read(name)
        }
        fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
            self.0.write(name, bytes)
        }
        fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
            self.0.rename(from, to)
        }
        fn remove(&mut self, name: &str) -> Result<(), MediaError> {
            self.0.remove(name)
        }
        fn list(&mut self) -> Result<Vec<String>, MediaError> {
            self.0.list()
        }
        fn sync(&mut self) -> Result<(), MediaError> {
            Err(MediaError::SyncFailed)
        }
    }

    #[test]
    fn a_failed_durability_barrier_fails_the_save() {
        // The old shelf discarded directory-sync errors (`let _ =`); a
        // failed barrier must fail the save so the engine never acks.
        let mut shelf = DiskShelf::with_media(Box::new(SyncAlwaysFails(MemMedia::new())));
        assert_eq!(
            shelf.save(&sample_state()),
            Err(MediaError::SyncFailed),
            "a save whose barrier failed must not report success"
        );
    }

    const NO_SLEEP: RetryPolicy = RetryPolicy {
        max_attempts: 4,
        base_backoff: Duration::ZERO,
        sleep: false,
    };

    /// A serving device of `banks` journaled Security RBSG banks of
    /// `2^width` lines, each checkpointing its journal every 8 steps.
    fn device(banks: u64, width: u32) -> MultiBankSystem<ServerScheme> {
        use srbsg_core::{SecurityRbsg, SecurityRbsgConfig};
        use srbsg_persist::{CheckpointPolicy, Journaled};
        let banks = (0..banks)
            .map(|b| {
                let mut c = SecurityRbsgConfig::small(width, 2);
                c.seed = 0x5EED ^ b;
                srbsg_pcm::MemoryController::new(
                    Journaled::with_policy(SecurityRbsg::new(c), CheckpointPolicy::every_steps(8)),
                    u64::MAX,
                    TimingModel::PAPER,
                )
            })
            .collect();
        MultiBankSystem::from_controllers(banks)
    }

    /// The payload of the record [`DiskShelf::delta_record`] last built.
    fn record_payload(shelf: &DiskShelf) -> &[u8] {
        &shelf.record[8..shelf.record.len() - 8]
    }

    /// Eight random writes to `sys`, drawn from the splitmix64 stream `s`.
    fn write_round(sys: &mut MultiBankSystem<ServerScheme>, s: &mut u64) {
        for _ in 0..8 {
            *s = srbsg_workloads::splitmix64(*s);
            let data = match *s % 3 {
                0 => LineData::Zeros,
                1 => LineData::Ones,
                _ => LineData::Mixed((*s >> 32) as u32),
            };
            sys.try_write((*s >> 8) % sys.logical_lines(), data)
                .unwrap();
        }
    }

    /// A loaded image holds the device `want` captured when both carry the
    /// same counters, lines and wear, and restoring each with the one
    /// re-key seed their stamps derive yields banks that agree on every
    /// line, wear value and translated slot. (A load's stores differ from
    /// the live ones: replayed log steps leave one snapshot.)
    fn assert_restores_alike(got: &ShelfState, want: &ShelfState) {
        assert_eq!(got.stamp(), want.stamp());
        assert_eq!(got.now_ns, want.now_ns);
        assert_eq!(got.banks.len(), want.banks.len());
        for (g, w) in got.banks.iter().zip(&want.banks) {
            assert_eq!((g.slots, g.sram_slot), (w.slots, w.sram_slot));
            assert!(g.data == w.data && g.wear == w.wear, "lines or wear differ");
        }
        let policy = srbsg_persist::CheckpointPolicy::every_steps(8);
        let restored = [got, want].map(|state| {
            crate::engine::restore(state, policy, srbsg_serve::ServeConfig::default())
                .unwrap()
                .0
        });
        let [g, w] = restored.each_ref().map(|fe| fe.system().banks());
        for (b, (g, w)) in g.iter().zip(w).enumerate() {
            for slot in 0..g.bank().slots() {
                assert_eq!(
                    g.bank().read_line(slot),
                    w.bank().read_line(slot),
                    "bank {b}"
                );
                assert_eq!(g.bank().wear_of(slot), w.bank().wear_of(slot), "bank {b}");
            }
            for la in 0..g.logical_lines() {
                assert_eq!(g.translate(la), w.translate(la), "bank {b} line {la}");
            }
        }
    }

    #[test]
    fn a_record_folds_into_the_image_it_continues_and_every_cut_is_typed() {
        let (mut shelf, _handle) = mem_shelf();
        let mut sys = device(2, 8);
        let mut stamp = CommitStamp {
            save_seq: 1,
            ..CommitStamp::default()
        };
        let boot = checkpoint_with_healing(&mut shelf, &mut sys, stamp, &NO_SLEEP);
        assert_eq!(boot, SaveOutcome::Saved { attempts: 1 });
        let mut image = ShelfState::capture(&sys, stamp);
        let mut replay = LogReplay::new(2);
        let mut s = 0x1234u64;
        for _ in 0..20 {
            write_round(&mut sys, &mut s);
            stamp.save_seq += 1;
            stamp.acked_writes += 8;
            assert!(shelf.delta_record(&mut sys, stamp));
            let payload = record_payload(&shelf);
            for cut in 0..payload.len() {
                match replay.clone().apply(&mut image.clone(), &payload[..cut]) {
                    Err(PersistError::Truncated | PersistError::Corrupt(_)) => {}
                    other => panic!("cut {cut} of {}: {other:?}", payload.len()),
                }
            }
            replay.apply(&mut image, payload).unwrap();
            let mut loaded = image.clone();
            replay.clone().finish(&mut loaded);
            assert_restores_alike(&loaded, &ShelfState::capture(&sys, stamp));
        }
        assert!(
            replay.banks.iter().all(Option::is_some),
            "every bank's steps replayed"
        );
    }

    /// A one-bank log record at `save_seq` that carries no slot and the
    /// step descriptors `steps`, framed.
    fn forged_record(save_seq: u64, steps: &[u8]) -> Vec<u8> {
        let mut enc = Enc::new();
        enc.u64(0);
        for field in [save_seq, 0, 0, 0, 1, 0] {
            enc.varint(field);
        }
        put_varint_len(&mut enc, steps);
        let mut frame = enc.into_bytes();
        seal_frame(&mut frame);
        frame
    }

    #[test]
    fn a_step_whose_destination_the_record_does_not_carry_is_a_typed_corruption() {
        let (mut shelf, handle) = mem_shelf();
        let mut sys = device(1, 6);
        let stamp = CommitStamp {
            save_seq: 1,
            ..CommitStamp::default()
        };
        let boot = checkpoint_with_healing(&mut shelf, &mut sys, stamp, &NO_SLEEP);
        assert_eq!(boot, SaveOutcome::Saved { attempts: 1 });
        // An outer DFN step (payload 0) and an inner step of sub-region 0
        // (payload 1): each moves a line into a slot the record omits.
        for payload in [0u32, 1] {
            let mut steps = vec![4];
            steps.extend_from_slice(&payload.to_le_bytes());
            let frame = forged_record(2, &steps);
            handle.with(|m| {
                for log in SHELF_LOGS {
                    m.write(log, &frame).unwrap();
                }
                m.sync().unwrap();
            });
            assert_eq!(
                DiskShelf::with_media(Box::new(handle.clone())).load(),
                Err(ShelfError::Decode(PersistError::Corrupt(
                    "shelf log step writes a slot its record does not carry"
                ))),
                "payload {payload}"
            );
        }
        // The same record without the step loads.
        let frame = forged_record(2, &[]);
        handle.with(|m| {
            for log in SHELF_LOGS {
                m.write(log, &frame).unwrap();
            }
            m.sync().unwrap();
        });
        let (back, _) = DiskShelf::with_media(Box::new(handle.clone()))
            .load()
            .unwrap()
            .unwrap();
        assert_eq!(back.save_seq, 2);
    }

    #[test]
    fn a_malformed_record_is_a_typed_corruption_never_a_panic() {
        let state = sample_state();
        assert_eq!(state.banks[0].slots, 16);
        let header = || {
            let mut enc = Enc::new();
            for field in [state.save_seq + 1, 0, 0, 0, 1] {
                enc.varint(field);
            }
            enc
        };
        let cases: [(&str, &[u8]); 6] = [
            ("overlong dirty count", &[0x80, 0x00]),
            ("slot out of range", &[1, 16, 0, 0, 0]),
            ("unknown line kind", &[1, 3, 7, 0, 0]),
            ("overlong steps length", &[0, 0x81, 0x80, 0x00]),
            ("a step onto an undecodable store", &[0, 5, 4, 0, 0, 0, 0]),
            ("trailing bytes", &[0, 0, 9]),
        ];
        for (what, bank) in cases {
            let mut enc = header();
            enc.bytes(bank);
            match LogReplay::new(1).apply(&mut state.clone(), enc.as_bytes()) {
                Err(PersistError::Corrupt(_)) => {}
                other => panic!("{what}: {other:?}"),
            }
        }
    }

    #[test]
    fn a_log_across_journal_checkpoints_reloads_to_the_live_device() {
        let (mut shelf, handle) = mem_shelf();
        let mut sys = device(2, 6);
        let mut stamp = CommitStamp {
            save_seq: 1,
            ..CommitStamp::default()
        };
        let boot = checkpoint_with_healing(&mut shelf, &mut sys, stamp, &NO_SLEEP);
        assert_eq!(boot, SaveOutcome::Saved { attempts: 1 });
        let checkpoint = handle.with(|m| m.read(SHELF_SLOTS[0]).unwrap());
        let installed = |sys: &MultiBankSystem<ServerScheme>| {
            sys.banks()
                .iter()
                .map(|mc| mc.scheme().checkpoints_installed())
                .collect::<Vec<_>>()
        };
        let before = installed(&sys);
        let mut s = 0xC0FFEEu64;
        for round in 0..24 {
            write_round(&mut sys, &mut s);
            // Two extra journal checkpoints on bank 0 between commits.
            if round % 4 == 1 {
                for _ in 0..2 {
                    sys.bank_mut(0).scheme_mut().checkpoint().unwrap();
                }
            }
            stamp.save_seq += 1;
            stamp.acked_writes += 8;
            let outcome = commit_with_healing(&mut shelf, &mut sys, stamp, &NO_SLEEP);
            assert_eq!(outcome, SaveOutcome::Saved { attempts: 1 });
            let (back, _) = DiskShelf::with_media(Box::new(handle.clone()))
                .load()
                .unwrap()
                .unwrap();
            assert_restores_alike(&back, &ShelfState::capture(&sys, stamp));
        }
        assert_eq!(
            handle.with(|m| m.read(SHELF_SLOTS[0]).unwrap()),
            checkpoint,
            "every commit was a log record"
        );
        for (b, (now, then)) in installed(&sys).iter().zip(before).enumerate() {
            assert!(
                now - then >= 3,
                "bank {b}: {} journal checkpoints",
                now - then
            );
        }
    }

    #[test]
    fn a_version_3_checkpoint_is_refused_as_unsupported() {
        let (mut shelf, handle) = mem_shelf();
        let mut old = sample_state().encode();
        old[8..12].copy_from_slice(&3u32.to_le_bytes());
        let body = old.len() - 8;
        let crc = crc64(&old[..body]);
        old[body..].copy_from_slice(&crc.to_le_bytes());
        handle.with(|m| {
            for slot in SHELF_SLOTS {
                m.write(slot, &old).unwrap();
            }
            m.sync().unwrap();
        });
        assert_eq!(
            shelf.load(),
            Err(ShelfError::Decode(PersistError::Corrupt(
                "unsupported shelf version"
            )))
        );
    }

    #[test]
    fn the_image_encodes_lines_as_the_journal_codec_does() {
        let state = sample_state();
        let bytes = state.encode();
        let bank = &state.banks[0];
        let store: usize = BankShelf::store_parts(&bank.store)
            .iter()
            .map(|p| 8 + p.len())
            .sum();
        let lines = IMAGE_HEADER_BYTES + store + 8;
        for (slot, &d) in bank.data.iter().enumerate() {
            let mut enc = Enc::new();
            srbsg_persist::encode_line_data(&mut enc, d);
            let at = lines + slot * LINE_DATA_BYTES;
            assert_eq!(
                &bytes[at..at + LINE_DATA_BYTES],
                enc.as_bytes(),
                "slot {slot}"
            );
        }
    }

    #[test]
    fn restored_bank_matches_capture() {
        let state = sample_state();
        let b = &state.banks[0];
        let bank = b.restore_bank(1_000_000, TimingModel::PAPER);
        let recap = BankShelf::capture(&b.store, &bank);
        assert_eq!(&recap, b);
    }
}
