//! The disk shelf: the server's durable state, on pluggable media.
//!
//! The in-memory persistence layer (`srbsg-persist`) already models
//! crash-safe checkpoints and journals inside a [`Store`]; what a real
//! process needs on top is getting that store — plus the simulated PCM
//! array it journals *about* — onto durable media so the state survives
//! `SIGKILL`. The shelf is written against the [`Media`] trait, so the
//! same protocol runs over a real directory ([`srbsg_persist::DirMedia`]),
//! the in-memory medium, or a deterministic fault injector
//! ([`srbsg_persist::FaultyMedia`]).
//!
//! The shelf holds a **checkpoint** — the whole device image — plus a
//! **delta log** of the commits since it:
//!
//! * Every batch that acknowledges a write appends one CRC-framed record
//!   to *both* log copies, `log.a` and `log.b`, then runs a **doubled**
//!   barrier ([`commit_with_healing`]). A record carries the commit's
//!   counters, the `(slot, data, wear)` of every slot the batch touched
//!   (the banks' dirty sets, [`srbsg_pcm::PcmBank::take_dirty`]), and each
//!   bank's [`Store`] delta: the journal bytes appended since the previous
//!   commit, or the whole small store after a journal checkpoint. So a
//!   commit writes O(batch) bytes, not O(device).
//! * When the log would reach the size of the checkpoint image, the
//!   commit writes a new checkpoint instead and empties both logs. Write
//!   amplification stays within 2× and a load replays at most one image's
//!   worth of records. Boot and the drain finale always checkpoint.
//! * The checkpoint keeps two full copies, `state.a` and `state.b`, each
//!   replaced by write-to-temp + barrier + rename, then a doubled barrier
//!   ([`DiskShelf::save`]).
//!
//! Under the single-fault model, one lying fsync can never leave a
//! reported-durable commit unflushed, because an honest barrier always
//! runs after the last mutation; one rotten copy of a checkpoint or of a
//! log record is served from its twin. A failed append falls back to a
//! full checkpoint, so a torn record never sits before a committed one
//! and no dirty slot is lost.
//!
//! [`DiskShelf::load`] CRC-validates both checkpoint copies and serves the
//! newest valid one, then folds in the log records that follow it. The
//! scrub rewrites a damaged checkpoint copy from its twin, takes a rotten
//! log record from the other log copy, ignores an uncommitted torn tail,
//! and reports what it found (typed as corruption vs truncation); damage
//! to both copies of anything committed is a typed [`ShelfError::Decode`],
//! never a plausible-but-wrong state. Load never rewrites a log copy: a
//! crash during such a rewrite could cut committed records out of the
//! copy it trusted. The checkpoint that follows every load (boot,
//! recovery) replaces both logs instead.
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

use srbsg_pcm::{LineData, MultiBankSystem, Ns, PcmBank};
use srbsg_persist::{
    crc64, decode_line_data, encode_line_data, Dec, DirMedia, Enc, Media, MediaError, PersistError,
    Store,
};

use crate::engine::ServerScheme;

const MAGIC: u64 = 0x5342_5347_5348_4C46; // "SBSGSHLF"
const VERSION: u32 = 2;

/// The two checkpoint copies on the medium (dual-slot rot tolerance).
pub const SHELF_SLOTS: [&str; 2] = ["state.a", "state.b"];

const SHELF_TMPS: [&str; 2] = ["state.a.tmp", "state.b.tmp"];

/// The two copies of the delta log on the medium.
pub const SHELF_LOGS: [&str; 2] = ["log.a", "log.b"];

/// Durable image of one bank: its persistence store plus the PCM array
/// contents the store's journal refers to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct BankShelf {
    /// The persistence store (dual snapshot slots, marker, journal).
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

    fn encode_store(store: &Store, enc: &mut Enc) {
        for part in Self::store_parts(store) {
            enc.u64(part.len() as u64);
            enc.bytes(part);
        }
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

    fn encoded_len(&self) -> usize {
        let store: usize = Self::store_parts(&self.store)
            .iter()
            .map(|p| 8 + p.len())
            .sum();
        let sram = if self.sram_slot.is_some() { 9 } else { 1 };
        store + 8 + self.data.len() * LINE_DATA_BYTES + self.wear.len() * 8 + sram
    }

    fn encode(&self, enc: &mut Enc) {
        Self::encode_store(&self.store, enc);
        enc.u64(self.slots);
        for &d in &self.data {
            encode_line_data(enc, d);
        }
        for &w in &self.wear {
            enc.u64(w);
        }
        match self.sram_slot {
            None => enc.u8(0),
            Some(s) => {
                enc.u8(1);
                enc.u64(s);
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

/// Bytes [`encode_line_data`] writes per line.
const LINE_DATA_BYTES: usize = 5;

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

    fn encode(&self) -> Vec<u8> {
        let len = 64 + self.banks.iter().map(BankShelf::encoded_len).sum::<usize>() + 8;
        let mut enc = Enc::with_capacity(len);
        enc.u64(MAGIC);
        enc.u32(VERSION);
        enc.u64(self.save_seq);
        enc.u64(self.generation);
        enc.u64(self.seed);
        enc.u64((self.now_ns >> 64) as u64);
        enc.u64(self.now_ns as u64);
        enc.u64(self.acked_writes);
        enc.u32(self.banks.len() as u32);
        for b in &self.banks {
            b.encode(&mut enc);
        }
        let mut bytes = enc.into_bytes();
        let crc = crc64(&bytes);
        bytes.extend_from_slice(&crc.to_le_bytes());
        debug_assert_eq!(bytes.len(), len, "checkpoint size estimate is exact");
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

    /// Fold one log record (the payload of a whole frame) into the image.
    /// Record layout:
    ///
    /// ```text
    /// save_seq u64 | now_ns (hi u64, lo u64) | acked_writes u64 | banks u32
    /// per bank: dirty u32 | dirty × (slot u64 | line data | wear u64)
    ///           | 0u8 journal-suffix (len u64 | bytes) or 1u8 whole store
    /// ```
    fn apply_record(&mut self, payload: &[u8]) -> Result<(), PersistError> {
        let mut dec = Dec::new(payload);
        self.save_seq = dec.u64()?;
        let now_hi = dec.u64()?;
        let now_lo = dec.u64()?;
        self.now_ns = ((now_hi as Ns) << 64) | now_lo as Ns;
        self.acked_writes = dec.u64()?;
        if dec.u32()? as usize != self.banks.len() {
            return Err(PersistError::Corrupt("shelf log record bank count"));
        }
        for bank in &mut self.banks {
            let dirty = dec.u32()?;
            for _ in 0..dirty {
                let slot = dec.u64()?;
                if slot >= bank.slots {
                    return Err(PersistError::Corrupt("shelf log slot out of range"));
                }
                bank.data[slot as usize] = decode_line_data(&mut dec)?;
                bank.wear[slot as usize] = dec.u64()?;
            }
            match dec.u8()? {
                0 => {
                    let len = dec.u64()? as usize;
                    bank.store.journal.extend_from_slice(dec.take(len)?);
                }
                1 => bank.store = BankShelf::decode_store(&mut dec)?,
                _ => return Err(PersistError::Corrupt("bad shelf log store tag")),
            }
        }
        dec.finish()
    }
}

/// Log frame: `len u32 | check u32 | payload (len bytes) | crc64 u64`,
/// where `check` is the low half of the CRC of the length bytes. Checking
/// the header on its own tells a torn tail (whole header, payload cut
/// short) from rot in the length field.
const FRAME_OVERHEAD: usize = 16;

fn frame_check(len: u32) -> u32 {
    crc64(&len.to_le_bytes()) as u32
}

fn frame(payload: &[u8]) -> Vec<u8> {
    let len = u32::try_from(payload.len()).expect("shelf log record under 4 GiB");
    let mut out = Vec::with_capacity(payload.len() + FRAME_OVERHEAD);
    out.extend_from_slice(&len.to_le_bytes());
    out.extend_from_slice(&frame_check(len).to_le_bytes());
    out.extend_from_slice(payload);
    out.extend_from_slice(&crc64(payload).to_le_bytes());
    out
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
    /// Per bank, the store the log already covers, as (journal
    /// checkpoints installed, journal length); `None` makes the next
    /// record carry the whole store.
    stores: Vec<Option<(u64, usize)>>,
}

/// Handle on the medium holding the server's durable state.
#[derive(Debug)]
pub struct DiskShelf {
    media: Box<dyn Media>,
    dir: PathBuf,
    log: LogCursor,
}

impl DiskShelf {
    /// Open (creating if needed) the data directory at `dir` as the
    /// backing medium. With `fsync`, every commit is flushed through the
    /// page cache — needed to survive power loss, not needed to survive
    /// process kills. Stale temporaries left by a save that died between
    /// create and rename are removed here.
    pub fn open(dir: &Path, fsync: bool) -> io::Result<Self> {
        let media = DirMedia::open(dir, fsync)?;
        let mut shelf = Self {
            media: Box::new(media),
            dir: dir.to_path_buf(),
            log: LogCursor::default(),
        };
        shelf.sweep_tmps().map_err(io::Error::from)?;
        Ok(shelf)
    }

    /// Shelve onto an arbitrary medium (in-memory default, fault
    /// injection). Sidecar paths resolve against the current directory.
    pub fn with_media(media: Box<dyn Media>) -> Self {
        let mut shelf = Self {
            media,
            dir: PathBuf::new(),
            log: LogCursor::default(),
        };
        // Media errors here surface on the first save/load instead.
        let _ = shelf.sweep_tmps();
        shelf
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
        self.log.open = false;
        let bytes = state.encode();
        for (slot, tmp) in SHELF_SLOTS.iter().zip(SHELF_TMPS) {
            self.media.write(tmp, &bytes)?;
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
            budget: bytes.len() as u64,
            stores: vec![None; state.banks.len()],
        };
        Ok(())
    }

    /// Build the framed log record committing `sys` at `stamp`, draining
    /// every bank's dirty set. `None` when the commit must be a
    /// checkpoint instead: the log is closed, a bank was not tracking its
    /// dirty slots yet (tracking starts now), or the log would reach the
    /// checkpoint image's size.
    fn delta_record(
        &mut self,
        sys: &mut MultiBankSystem<ServerScheme>,
        stamp: CommitStamp,
    ) -> Option<Vec<u8>> {
        let mut ok = self.log.open && self.log.stores.len() == sys.bank_count();
        let now = sys.now_ns();
        let mut enc = Enc::new();
        enc.u64(stamp.save_seq);
        enc.u64((now >> 64) as u64);
        enc.u64(now as u64);
        enc.u64(stamp.acked_writes);
        enc.u32(sys.bank_count() as u32);
        for (b, mc) in sys.banks_mut().iter_mut().enumerate() {
            let Some(dirty) = mc.bank_mut().take_dirty() else {
                mc.bank_mut().track_dirty();
                ok = false;
                continue;
            };
            if !ok {
                continue;
            }
            enc.u32(dirty.len() as u32);
            for slot in dirty {
                enc.u64(slot);
                encode_line_data(&mut enc, mc.bank().read_line(slot));
                enc.u64(mc.bank().wear_of(slot));
            }
            let scheme = mc.scheme();
            let (store, ckpts) = (scheme.store(), scheme.checkpoints_installed());
            match self.log.stores[b] {
                Some((c, len)) if c == ckpts && len <= store.journal.len() => {
                    enc.u8(0);
                    enc.u64((store.journal.len() - len) as u64);
                    enc.bytes(&store.journal[len..]);
                }
                _ => {
                    enc.u8(1);
                    BankShelf::encode_store(store, &mut enc);
                }
            }
            self.log.stores[b] = Some((ckpts, store.journal.len()));
        }
        let record = frame(enc.as_bytes());
        (ok && self.log.bytes + (record.len() as u64) < self.log.budget).then_some(record)
    }

    /// Append one framed record to both log copies, then the doubled
    /// barrier. A failure closes the log until the next checkpoint.
    fn append_record(&mut self, record: &[u8]) -> Result<(), MediaError> {
        self.log.open = false;
        for log in SHELF_LOGS {
            self.media.append(log, record)?;
        }
        self.media.sync()?;
        self.media.sync()?;
        self.log.open = true;
        self.log.bytes += record.len() as u64;
        Ok(())
    }

    /// After a checkpoint of `sys`: start dirty tracking on every bank and
    /// note the stores the checkpoint covers, so the next commit can be a
    /// log record.
    fn arm_log(&mut self, sys: &mut MultiBankSystem<ServerScheme>) {
        self.log.stores = sys
            .banks_mut()
            .iter_mut()
            .map(|mc| {
                mc.bank_mut().track_dirty();
                let scheme = mc.scheme();
                Some((scheme.checkpoints_installed(), scheme.store().journal.len()))
            })
            .collect();
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
        for (src, range) in log.payloads {
            let payload = &copies[src][range];
            let seq = Dec::new(payload).u64().map_err(ShelfError::Decode)?;
            if seq <= state.save_seq {
                continue;
            }
            if seq != state.save_seq + 1 {
                return Err(ShelfError::Decode(PersistError::Corrupt(
                    "shelf log skips a commit",
                )));
            }
            state.apply_record(payload).map_err(ShelfError::Decode)?;
        }
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
    let mut attempts = 0u32;
    loop {
        attempts += 1;
        match shelf.save(state) {
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
/// over its [`ShelfState::capture`]) and, once it lands, start the delta
/// log from it: every bank tracks its dirty slots from here on. Boot, the
/// drain finale and [`commit_with_healing`]'s fallback all checkpoint
/// through here.
pub fn checkpoint_with_healing(
    shelf: &mut DiskShelf,
    sys: &mut MultiBankSystem<ServerScheme>,
    stamp: CommitStamp,
    policy: &RetryPolicy,
) -> SaveOutcome {
    let outcome = save_with_healing(shelf, &ShelfState::capture(sys, stamp), policy);
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
    if let Some(record) = shelf.delta_record(sys, stamp) {
        match shelf.append_record(&record) {
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

    #[test]
    fn restored_bank_matches_capture() {
        let state = sample_state();
        let b = &state.banks[0];
        let bank = b.restore_bank(1_000_000, TimingModel::PAPER);
        let recap = BankShelf::capture(&b.store, &bank);
        assert_eq!(&recap, b);
    }
}
