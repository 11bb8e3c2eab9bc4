//! Pluggable storage media with deterministic fault injection.
//!
//! Everything durable in this workspace ultimately lands on a *medium* —
//! the state files of the server's disk shelf. Production media lie:
//! writes tear short, `EIO` comes and goes, `ENOSPC` comes and stays,
//! `fsync` reports success for data the device never persisted, renames
//! fail, and cold sectors rot.
//! This module makes the medium a pluggable trait so every one of those
//! lies can be injected deterministically and the recovery paths above can
//! be proven to heal:
//!
//! * [`Media`] — a flat named-file device with an explicit durability
//!   barrier ([`Media::sync`]) and a simulated power cut that loses
//!   whatever the barrier never covered;
//! * [`MemMedia`] — the in-memory default, tracking a *current* and a
//!   *durable* image per file so an unsynced write genuinely vanishes at
//!   power cut;
//! * [`DirMedia`] — a real directory; `sync` flushes every dirty file
//!   **and the directory itself**, propagating failures instead of
//!   discarding them;
//! * [`FaultyMedia`] — a wrapper around any medium with a seeded,
//!   deterministic [`FaultPlan`]: short writes and appends (torn tails),
//!   transient EIO, persistent ENOSPC, fsync-reported-success-then-lost,
//!   rename failure, and post-crash bit rot;
//! * [`SharedMedia`] — a cloneable handle so a harness can keep arming
//!   faults and cutting power on a medium another component owns;
//!
//! The fault model is **single-fault-per-run**: one scheduled fault plus
//! the power cuts that materialize it. The save protocols above defend
//! accordingly (e.g. a doubled commit barrier, so no *single* lying fsync
//! can leave a reported-durable commit unflushed).

use srbsg_parallel::splitmix64;
use std::collections::BTreeMap;
use std::io;
use std::path::{Path, PathBuf};
use std::sync::{Arc, Mutex};

/// The media operation an error occurred in.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaOp {
    /// Reading a file.
    Read,
    /// Creating or replacing a file.
    Write,
    /// Appending to the end of a file.
    Append,
    /// Renaming a file (the commit point of atomic replacement).
    Rename,
    /// Removing a file.
    Remove,
    /// Listing the medium's files.
    List,
    /// The durability barrier.
    Sync,
}

impl core::fmt::Display for MediaOp {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        let s = match self {
            MediaOp::Read => "read",
            MediaOp::Write => "write",
            MediaOp::Append => "append",
            MediaOp::Rename => "rename",
            MediaOp::Remove => "remove",
            MediaOp::List => "list",
            MediaOp::Sync => "sync",
        };
        write!(f, "{s}")
    }
}

/// Why a media operation failed. Every variant is typed so the layer above
/// can pick the right recovery: retry, degrade, or refuse to acknowledge.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MediaError {
    /// A transient I/O error (`EIO`-like): retrying the same operation may
    /// succeed.
    TransientIo {
        /// The failing operation.
        op: MediaOp,
    },
    /// The device is out of space; persistent until space is freed. The
    /// layer above must degrade (shed writes, keep serving reads) rather
    /// than retry forever or die.
    NoSpace {
        /// The failing operation.
        op: MediaOp,
    },
    /// A write persisted only a prefix: `written` of `expected` bytes
    /// reached the medium. The destination holds a torn image.
    ShortWrite {
        /// Bytes that landed.
        written: u64,
        /// Bytes requested.
        expected: u64,
    },
    /// The commit rename failed; the destination is unchanged and the
    /// source may remain as a stale temporary.
    RenameFailed,
    /// The durability barrier reported failure. Data written since the
    /// last successful barrier must be assumed lost.
    SyncFailed,
    /// An underlying OS error (real-file backend), by kind.
    Io {
        /// The failing operation.
        op: MediaOp,
        /// The OS error kind.
        kind: io::ErrorKind,
    },
}

impl MediaError {
    /// Whether retrying the operation (with backoff) may succeed.
    pub fn is_transient(&self) -> bool {
        matches!(
            self,
            MediaError::TransientIo { .. }
                | MediaError::Io {
                    kind: io::ErrorKind::Interrupted,
                    ..
                }
        )
    }

    /// Whether the device is out of space — the persistent degradation
    /// case: retries are pointless, the layer above must go read-only.
    pub fn is_no_space(&self) -> bool {
        matches!(self, MediaError::NoSpace { .. })
            || matches!(
                self,
                MediaError::Io {
                    kind: io::ErrorKind::StorageFull,
                    ..
                }
            )
    }
}

impl core::fmt::Display for MediaError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MediaError::TransientIo { op } => write!(f, "transient I/O error during {op}"),
            MediaError::NoSpace { op } => write!(f, "no space left on medium during {op}"),
            MediaError::ShortWrite { written, expected } => {
                write!(f, "short write: {written} of {expected} bytes persisted")
            }
            MediaError::RenameFailed => write!(f, "rename failed"),
            MediaError::SyncFailed => write!(f, "durability barrier failed"),
            MediaError::Io { op, kind } => write!(f, "I/O error during {op}: {kind}"),
        }
    }
}

impl std::error::Error for MediaError {}

impl From<MediaError> for io::Error {
    fn from(e: MediaError) -> Self {
        let kind = match e {
            MediaError::NoSpace { .. } => io::ErrorKind::StorageFull,
            MediaError::ShortWrite { .. } => io::ErrorKind::WriteZero,
            MediaError::Io { kind, .. } => kind,
            _ => io::ErrorKind::Other,
        };
        io::Error::new(kind, e.to_string())
    }
}

/// A flat named-file storage device with explicit durability semantics.
///
/// Contract: data reaches the *current* image as operations return, but
/// only a successful [`Media::sync`] makes it part of the *durable* image
/// — what survives [`Media::power_cut`]. Implementations for real storage
/// treat `power_cut` as a no-op (real power cuts come from outside); the
/// in-memory media model it faithfully so fsync lies have consequences.
pub trait Media: std::fmt::Debug + Send {
    /// Read a whole file; `Ok(None)` when absent.
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError>;

    /// Create or replace a file's entire contents.
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError>;

    /// Append `bytes` to the end of a file, creating it if absent. Like
    /// [`Media::write`], the bytes join the durable image only at the next
    /// successful [`Media::sync`]. The default rewrites the whole file;
    /// media that can append in place override it.
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        let mut whole = self.read(name)?.unwrap_or_default();
        whole.extend_from_slice(bytes);
        self.write(name, &whole)
    }

    /// Atomically rename `from` onto `to` — the commit point of atomic
    /// replacement. `to` is replaced if present.
    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError>;

    /// Remove a file; removing an absent file succeeds.
    fn remove(&mut self, name: &str) -> Result<(), MediaError>;

    /// All file names present, sorted.
    fn list(&mut self) -> Result<Vec<String>, MediaError>;

    /// Durability barrier: on success, everything written so far survives
    /// power loss.
    fn sync(&mut self) -> Result<(), MediaError>;

    /// Simulate a power cut: the current image reverts to the durable one.
    /// Real-storage implementations are a no-op.
    fn power_cut(&mut self) {}
}

/// The in-memory medium: the bit-identical default backend.
///
/// Two images per file — *current* (what reads observe) and *durable*
/// (what survives [`MemMedia::power_cut`]); [`MemMedia::sync`] promotes
/// current to durable wholesale.
#[derive(Debug, Default, Clone)]
pub struct MemMedia {
    current: BTreeMap<String, Vec<u8>>,
    durable: BTreeMap<String, Vec<u8>>,
}

impl MemMedia {
    /// An empty medium.
    pub fn new() -> Self {
        Self::default()
    }

    /// The durable image of `name` (what a power cut would leave), for
    /// white-box assertions.
    pub fn durable_of(&self, name: &str) -> Option<&[u8]> {
        self.durable.get(name).map(|v| v.as_slice())
    }

    /// Corrupt the **durable** image of `name`: flip `bits` seeded bits in
    /// place. Models at-rest sector rot; takes effect on the current image
    /// at the next power cut (or immediately if the file is unmodified
    /// since the last sync). No-op on an absent or empty file.
    pub fn rot_durable(&mut self, name: &str, seed: u64, bits: u32) {
        let same = self.current.get(name) == self.durable.get(name);
        if let Some(bytes) = self.durable.get_mut(name) {
            if bytes.is_empty() {
                return;
            }
            let mut s = seed;
            for _ in 0..bits {
                s = splitmix64(s);
                let bit = s as usize % (bytes.len() * 8);
                bytes[bit / 8] ^= 1 << (bit % 8);
            }
            if same {
                self.current.insert(name.to_string(), bytes.clone());
            }
        }
    }
}

impl Media for MemMedia {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
        Ok(self.current.get(name).cloned())
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.current.insert(name.to_string(), bytes.to_vec());
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.current
            .entry(name.to_string())
            .or_default()
            .extend_from_slice(bytes);
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
        match self.current.remove(from) {
            Some(bytes) => {
                self.current.insert(to.to_string(), bytes);
                Ok(())
            }
            None => Err(MediaError::Io {
                op: MediaOp::Rename,
                kind: io::ErrorKind::NotFound,
            }),
        }
    }

    fn remove(&mut self, name: &str) -> Result<(), MediaError> {
        self.current.remove(name);
        Ok(())
    }

    fn list(&mut self) -> Result<Vec<String>, MediaError> {
        Ok(self.current.keys().cloned().collect())
    }

    fn sync(&mut self) -> Result<(), MediaError> {
        self.durable = self.current.clone();
        Ok(())
    }

    fn power_cut(&mut self) {
        self.current = self.durable.clone();
    }
}

fn io_err(op: MediaOp) -> impl Fn(io::Error) -> MediaError {
    move |e| MediaError::Io { op, kind: e.kind() }
}

/// A real directory as a medium.
///
/// With `fsync` enabled, [`DirMedia::sync`] flushes every file written
/// since the last barrier **and the directory itself**, and *propagates*
/// every failure — a failed directory sync fails the barrier, it is never
/// discarded. With `fsync` disabled the barrier is a no-op: sufficient for
/// process-kill durability (the page cache survives), not for power loss.
#[derive(Debug)]
pub struct DirMedia {
    dir: PathBuf,
    fsync: bool,
    dirty: Vec<String>,
    dir_dirty: bool,
}

impl DirMedia {
    /// Open (creating if needed) the directory at `dir`.
    pub fn open(dir: &Path, fsync: bool) -> io::Result<Self> {
        std::fs::create_dir_all(dir)?;
        Ok(Self {
            dir: dir.to_path_buf(),
            fsync,
            dirty: Vec::new(),
            dir_dirty: false,
        })
    }

    /// The backing directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn mark_dirty(&mut self, name: &str) {
        if !self.dirty.iter().any(|d| d == name) {
            self.dirty.push(name.to_string());
        }
    }
}

impl Media for DirMedia {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
        match std::fs::read(self.dir.join(name)) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(io_err(MediaOp::Read)(e)),
        }
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        std::fs::write(self.dir.join(name), bytes).map_err(io_err(MediaOp::Write))?;
        self.mark_dirty(name);
        Ok(())
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        use std::io::Write as _;
        let mut file = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(self.dir.join(name))
            .map_err(io_err(MediaOp::Append))?;
        file.write_all(bytes).map_err(io_err(MediaOp::Append))?;
        self.mark_dirty(name);
        Ok(())
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
        std::fs::rename(self.dir.join(from), self.dir.join(to)).map_err(io_err(MediaOp::Rename))?;
        self.dirty.retain(|d| d != from && d != to);
        self.mark_dirty(to);
        self.dir_dirty = true;
        Ok(())
    }

    fn remove(&mut self, name: &str) -> Result<(), MediaError> {
        match std::fs::remove_file(self.dir.join(name)) {
            Ok(()) => {
                self.dirty.retain(|d| d != name);
                self.dir_dirty = true;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(io_err(MediaOp::Remove)(e)),
        }
    }

    fn list(&mut self) -> Result<Vec<String>, MediaError> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.dir).map_err(io_err(MediaOp::List))? {
            let entry = entry.map_err(io_err(MediaOp::List))?;
            if entry.file_type().map_err(io_err(MediaOp::List))?.is_file() {
                names.push(entry.file_name().to_string_lossy().into_owned());
            }
        }
        names.sort();
        Ok(names)
    }

    fn sync(&mut self) -> Result<(), MediaError> {
        if !self.fsync {
            self.dirty.clear();
            self.dir_dirty = false;
            return Ok(());
        }
        for name in std::mem::take(&mut self.dirty) {
            let f = std::fs::File::open(self.dir.join(&name)).map_err(io_err(MediaOp::Sync))?;
            f.sync_all().map_err(io_err(MediaOp::Sync))?;
        }
        // The rename/removal commits live in the directory entry: a failed
        // directory sync means the commit may not be durable, so it fails
        // the barrier — never `let _ =`.
        let d = std::fs::File::open(&self.dir).map_err(io_err(MediaOp::Sync))?;
        d.sync_all().map_err(io_err(MediaOp::Sync))?;
        self.dir_dirty = false;
        Ok(())
    }
}

/// What kind of storage fault a [`FaultPlan`] injects.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// The `at_op`-th write or append persists only a seeded prefix (for
    /// an append, a torn tail) and reports [`MediaError::ShortWrite`].
    ShortWrite,
    /// Starting at the `at_op`-th write or append, `burst` consecutive
    /// writes or appends fail with [`MediaError::TransientIo`], then the
    /// medium works again.
    TransientIo,
    /// From the `at_op`-th write or append on, every write and append
    /// fails with [`MediaError::NoSpace`] until [`FaultyMedia::free_space`].
    NoSpace,
    /// The `at_op`-th sync reports success without syncing: data written
    /// since the last honest barrier is silently at risk and vanishes at
    /// the next power cut.
    SyncLie,
    /// The `at_op`-th rename fails with [`MediaError::RenameFailed`],
    /// leaving the stale temporary behind.
    RenameFail,
    /// At the `at_op`-th power cut, flip seeded bits in the durable image
    /// of the target file (at-rest sector rot, discovered on reload).
    BitRot,
}

impl FaultKind {
    /// Stable lowercase name (CSV columns, logs).
    pub fn name(self) -> &'static str {
        match self {
            FaultKind::ShortWrite => "short_write",
            FaultKind::TransientIo => "transient_eio",
            FaultKind::NoSpace => "enospc",
            FaultKind::SyncLie => "sync_lie",
            FaultKind::RenameFail => "rename_fail",
            FaultKind::BitRot => "bit_rot",
        }
    }
}

/// A deterministic, seeded fault schedule for [`FaultyMedia`]. One plan
/// injects one fault (the single-fault-per-run model); `at_op` counts
/// operations of the kind's own category (writes and appends together for
/// write faults, syncs for the fsync lie, renames for rename failure,
/// power cuts for rot).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultPlan {
    /// What to inject.
    pub kind: FaultKind,
    /// Which operation of the relevant category triggers it (1-based).
    pub at_op: u64,
    /// [`FaultKind::TransientIo`]: consecutive failing writes or appends.
    pub burst: u64,
    /// Seed for short-write lengths and rot bit positions.
    pub seed: u64,
    /// [`FaultKind::BitRot`]: the file to rot.
    pub rot_file: String,
    /// [`FaultKind::BitRot`]: bits to flip.
    pub rot_bits: u32,
}

impl FaultPlan {
    /// A plan injecting `kind` at the `at_op`-th op of its category, with
    /// harmless defaults for the kind-specific knobs.
    pub fn new(kind: FaultKind, at_op: u64) -> Self {
        Self {
            kind,
            at_op: at_op.max(1),
            burst: 1,
            seed: 0,
            rot_file: String::new(),
            rot_bits: 3,
        }
    }
}

/// Counters of what a [`FaultyMedia`] actually did.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct FaultStats {
    /// Scheduled faults that fired (0 or 1 under the single-fault model;
    /// transient bursts count once).
    pub fired: u64,
    /// Operations failed (a transient burst fails several).
    pub failed_ops: u64,
    /// Syncs that lied.
    pub lied_syncs: u64,
    /// Bits flipped by rot.
    pub rotted_bits: u64,
    /// Power cuts observed.
    pub power_cuts: u64,
}

/// A medium that injects faults from a deterministic schedule. See
/// [`FaultPlan`] for the matrix.
#[derive(Debug)]
pub struct FaultyMedia<M> {
    inner: M,
    plan: Option<FaultPlan>,
    /// Writes and appends, counted together.
    writes_seen: u64,
    syncs_seen: u64,
    renames_seen: u64,
    transient_left: u64,
    no_space: bool,
    stats: FaultStats,
}

impl<M: Media> FaultyMedia<M> {
    /// Wrap `inner` with no fault scheduled.
    pub fn new(inner: M) -> Self {
        Self {
            inner,
            plan: None,
            writes_seen: 0,
            syncs_seen: 0,
            renames_seen: 0,
            transient_left: 0,
            no_space: false,
            stats: FaultStats::default(),
        }
    }

    /// Arm a fault plan (replacing any previous one).
    pub fn set_plan(&mut self, plan: FaultPlan) {
        self.plan = Some(plan);
    }

    /// What fired so far.
    pub fn stats(&self) -> FaultStats {
        self.stats
    }

    /// Whether the medium is currently refusing writes for lack of space.
    pub fn out_of_space(&self) -> bool {
        self.no_space
    }

    /// Operator freed space: ENOSPC clears, writes work again.
    pub fn free_space(&mut self) {
        self.no_space = false;
    }

    /// The wrapped medium (white-box inspection).
    pub fn inner(&self) -> &M {
        &self.inner
    }

    /// The wrapped medium, mutably.
    pub fn inner_mut(&mut self) -> &mut M {
        &mut self.inner
    }

    fn take_if(&mut self, kind: FaultKind, seen: u64) -> Option<FaultPlan> {
        match &self.plan {
            Some(p) if p.kind == kind && seen == p.at_op => self.plan.take(),
            _ => None,
        }
    }

    /// The write-fault schedule, shared by writes and appends: both count
    /// toward `at_op`, so one plan can land on either.
    fn write_or_append(&mut self, op: MediaOp, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        let put = |m: &mut M, b: &[u8]| match op {
            MediaOp::Append => m.append(name, b),
            _ => m.write(name, b),
        };
        if self.no_space {
            self.stats.failed_ops += 1;
            return Err(MediaError::NoSpace { op });
        }
        self.writes_seen += 1;
        if let Some(p) = self.take_if(FaultKind::ShortWrite, self.writes_seen) {
            self.stats.fired += 1;
            self.stats.failed_ops += 1;
            // A strict prefix reaches the medium; at least one byte is cut.
            let keep = if bytes.is_empty() {
                0
            } else {
                splitmix64(p.seed ^ self.writes_seen) as usize % bytes.len()
            };
            put(&mut self.inner, &bytes[..keep])?;
            return Err(MediaError::ShortWrite {
                written: keep as u64,
                expected: bytes.len() as u64,
            });
        }
        if let Some(p) = self.take_if(FaultKind::TransientIo, self.writes_seen) {
            self.stats.fired += 1;
            self.transient_left = p.burst.max(1);
        }
        if self.transient_left > 0 {
            self.transient_left -= 1;
            self.stats.failed_ops += 1;
            return Err(MediaError::TransientIo { op });
        }
        if self.take_if(FaultKind::NoSpace, self.writes_seen).is_some() {
            self.stats.fired += 1;
            self.stats.failed_ops += 1;
            self.no_space = true;
            return Err(MediaError::NoSpace { op });
        }
        put(&mut self.inner, bytes)
    }
}

impl<M: Media> Media for FaultyMedia<M> {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
        self.inner.read(name)
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.write_or_append(MediaOp::Write, name, bytes)
    }

    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.write_or_append(MediaOp::Append, name, bytes)
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
        self.renames_seen += 1;
        if self
            .take_if(FaultKind::RenameFail, self.renames_seen)
            .is_some()
        {
            self.stats.fired += 1;
            self.stats.failed_ops += 1;
            return Err(MediaError::RenameFailed);
        }
        self.inner.rename(from, to)
    }

    fn remove(&mut self, name: &str) -> Result<(), MediaError> {
        self.inner.remove(name)
    }

    fn list(&mut self) -> Result<Vec<String>, MediaError> {
        self.inner.list()
    }

    fn sync(&mut self) -> Result<(), MediaError> {
        self.syncs_seen += 1;
        if self.take_if(FaultKind::SyncLie, self.syncs_seen).is_some() {
            // The lie: report success, persist nothing. Materializes at
            // the next power cut.
            self.stats.fired += 1;
            self.stats.lied_syncs += 1;
            return Ok(());
        }
        self.inner.sync()
    }

    fn power_cut(&mut self) {
        self.stats.power_cuts += 1;
        self.inner.power_cut();
        if let Some(p) = self.take_if_rot(self.stats.power_cuts) {
            self.stats.fired += 1;
            self.stats.rotted_bits += p.rot_bits as u64;
            // Rot lives in the durable image; after a power cut current ==
            // durable, so flipping bits then re-barriering models at-rest
            // decay discovered on reload.
            if let Ok(Some(bytes)) = self.inner.read(&p.rot_file) {
                if !bytes.is_empty() {
                    let mut rotten = bytes;
                    let mut s = p.seed;
                    for _ in 0..p.rot_bits {
                        s = splitmix64(s);
                        let bit = s as usize % (rotten.len() * 8);
                        rotten[bit / 8] ^= 1 << (bit % 8);
                    }
                    let _ = self.inner.write(&p.rot_file, &rotten);
                    let _ = self.inner.sync();
                }
            }
        }
    }
}

impl<M: Media> FaultyMedia<M> {
    fn take_if_rot(&mut self, cuts: u64) -> Option<FaultPlan> {
        match &self.plan {
            Some(p) if p.kind == FaultKind::BitRot && cuts >= p.at_op => self.plan.take(),
            _ => None,
        }
    }
}

/// A cloneable handle on a medium, so a harness can keep arming faults and
/// cutting power on the same device a shelf or store owns.
#[derive(Debug)]
pub struct SharedMedia<M>(Arc<Mutex<M>>);

impl<M> Clone for SharedMedia<M> {
    fn clone(&self) -> Self {
        Self(Arc::clone(&self.0))
    }
}

impl<M: Media> SharedMedia<M> {
    /// Share `inner`.
    pub fn new(inner: M) -> Self {
        Self(Arc::new(Mutex::new(inner)))
    }

    /// Run `f` with exclusive access to the medium (arm plans, inspect
    /// durable images, cut power).
    pub fn with<R>(&self, f: impl FnOnce(&mut M) -> R) -> R {
        f(&mut self.0.lock().expect("media lock poisoned"))
    }
}

impl<M: Media> Media for SharedMedia<M> {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
        self.with(|m| m.read(name))
    }
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.with(|m| m.write(name, bytes))
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.with(|m| m.append(name, bytes))
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
        self.with(|m| m.rename(from, to))
    }
    fn remove(&mut self, name: &str) -> Result<(), MediaError> {
        self.with(|m| m.remove(name))
    }
    fn list(&mut self) -> Result<Vec<String>, MediaError> {
        self.with(|m| m.list())
    }
    fn sync(&mut self) -> Result<(), MediaError> {
        self.with(|m| m.sync())
    }
    fn power_cut(&mut self) {
        self.with(|m| m.power_cut())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mem_media_roundtrip_and_power_cut_semantics() {
        let mut m = MemMedia::new();
        m.write("a", b"one").unwrap();
        m.sync().unwrap();
        m.write("a", b"two").unwrap();
        m.write("b", b"new").unwrap();
        // Unsynced writes vanish at power cut; synced ones survive.
        m.power_cut();
        assert_eq!(m.read("a").unwrap().unwrap(), b"one");
        assert_eq!(m.read("b").unwrap(), None);
    }

    #[test]
    fn append_extends_and_is_durable_only_after_sync() {
        let mut m = MemMedia::new();
        m.append("log", b"ab").unwrap();
        m.sync().unwrap();
        m.append("log", b"cd").unwrap();
        assert_eq!(m.read("log").unwrap().unwrap(), b"abcd");
        m.power_cut();
        assert_eq!(m.read("log").unwrap().unwrap(), b"ab");
    }

    /// A medium that only implements the required methods, so `append`
    /// runs the trait's default.
    #[derive(Debug, Default)]
    struct Plain(MemMedia);

    impl Media for Plain {
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
            self.0.sync()
        }
    }

    #[test]
    fn default_append_matches_the_in_place_ones() {
        let dir = std::env::temp_dir().join(format!("srbsg_append_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let media: Vec<Box<dyn Media>> = vec![
            Box::new(Plain::default()),
            Box::new(MemMedia::new()),
            Box::new(DirMedia::open(&dir, true).unwrap()),
            Box::new(SharedMedia::new(FaultyMedia::new(MemMedia::new()))),
        ];
        for mut m in media {
            m.append("log", b"one").unwrap();
            m.append("log", b"two").unwrap();
            m.sync().unwrap();
            assert_eq!(m.read("log").unwrap().unwrap(), b"onetwo", "{m:?}");
            m.write("log", b"").unwrap();
            m.append("log", b"3").unwrap();
            assert_eq!(m.read("log").unwrap().unwrap(), b"3", "{m:?}");
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn write_faults_count_writes_and_appends_together() {
        // Short write landing on an append: a strict prefix lands as a
        // torn tail.
        let mut m = FaultyMedia::new(MemMedia::new());
        m.set_plan(FaultPlan::new(FaultKind::ShortWrite, 3));
        m.write("other", b"writes count too").unwrap();
        m.append("log", b"first").unwrap();
        match m.append("log", b"second").unwrap_err() {
            MediaError::ShortWrite { written, expected } => {
                assert_eq!(expected, 6);
                let log = m.read("log").unwrap().unwrap();
                assert_eq!(log.len() as u64, 5 + written);
                assert!(log.starts_with(b"first"));
            }
            other => panic!("expected a short append, got {other:?}"),
        }

        // Transient EIO: a burst over appends and writes, then healthy.
        let mut m = FaultyMedia::new(MemMedia::new());
        let mut plan = FaultPlan::new(FaultKind::TransientIo, 1);
        plan.burst = 2;
        m.set_plan(plan);
        assert_eq!(
            m.append("log", b"x").unwrap_err(),
            MediaError::TransientIo {
                op: MediaOp::Append
            }
        );
        assert!(m.write("f", b"x").unwrap_err().is_transient());
        m.append("log", b"x").unwrap();

        // ENOSPC: persistent for appends and writes alike.
        let mut m = FaultyMedia::new(MemMedia::new());
        m.set_plan(FaultPlan::new(FaultKind::NoSpace, 1));
        assert!(m.append("log", b"x").unwrap_err().is_no_space());
        assert!(m.write("f", b"x").unwrap_err().is_no_space());
        assert_eq!(m.stats().fired, 1);
    }

    #[test]
    fn sync_lie_after_an_append_loses_the_unsynced_tail() {
        let mut m = FaultyMedia::new(MemMedia::new());
        m.set_plan(FaultPlan::new(FaultKind::SyncLie, 2));
        m.append("log", b"a").unwrap();
        m.sync().unwrap(); // honest
        m.append("log", b"b").unwrap();
        m.sync().unwrap(); // lies
        assert_eq!(m.stats().lied_syncs, 1);
        m.power_cut();
        assert_eq!(m.read("log").unwrap().unwrap(), b"a");
        // The doubled barrier survives the lie.
        m.set_plan(FaultPlan::new(FaultKind::SyncLie, 3));
        m.append("log", b"b").unwrap();
        m.sync().unwrap(); // lies
        m.sync().unwrap(); // honest
        m.power_cut();
        assert_eq!(m.read("log").unwrap().unwrap(), b"ab");
    }

    #[test]
    fn mem_media_rename_is_a_commit_point() {
        let mut m = MemMedia::new();
        m.write("t.tmp", b"payload").unwrap();
        m.rename("t.tmp", "t").unwrap();
        m.sync().unwrap();
        m.power_cut();
        assert_eq!(m.read("t").unwrap().unwrap(), b"payload");
        assert_eq!(m.read("t.tmp").unwrap(), None);
    }

    #[test]
    fn faulty_short_write_tears_and_reports() {
        let mut m = FaultyMedia::new(MemMedia::new());
        m.set_plan(FaultPlan::new(FaultKind::ShortWrite, 2));
        m.write("x", b"first").unwrap();
        let err = m.write("y", b"second-payload").unwrap_err();
        match err {
            MediaError::ShortWrite { written, expected } => {
                assert_eq!(expected, 14);
                assert!(written < 14);
                let torn = m.read("y").unwrap().unwrap();
                assert_eq!(torn.len() as u64, written);
            }
            other => panic!("expected short write, got {other:?}"),
        }
        // One-shot: the next write is clean.
        m.write("y", b"second-payload").unwrap();
        assert_eq!(m.read("y").unwrap().unwrap(), b"second-payload");
    }

    #[test]
    fn faulty_transient_clears_after_burst() {
        let mut m = FaultyMedia::new(MemMedia::new());
        let mut plan = FaultPlan::new(FaultKind::TransientIo, 1);
        plan.burst = 1;
        m.set_plan(plan);
        assert!(m.write("x", b"a").unwrap_err().is_transient());
        m.write("x", b"a").unwrap();
        assert_eq!(m.stats().fired, 1);
    }

    #[test]
    fn faulty_no_space_is_persistent_until_freed() {
        let mut m = FaultyMedia::new(MemMedia::new());
        m.set_plan(FaultPlan::new(FaultKind::NoSpace, 1));
        assert!(m.write("x", b"a").unwrap_err().is_no_space());
        assert!(m.write("y", b"b").unwrap_err().is_no_space());
        assert!(m.out_of_space());
        // Reads still work while writes shed.
        assert_eq!(m.read("x").unwrap(), None);
        m.free_space();
        m.write("x", b"a").unwrap();
    }

    #[test]
    fn sync_lie_materializes_at_the_next_power_cut() {
        let mut m = FaultyMedia::new(MemMedia::new());
        m.set_plan(FaultPlan::new(FaultKind::SyncLie, 1));
        m.write("x", b"doomed").unwrap();
        m.sync().unwrap(); // lies
        m.power_cut();
        assert_eq!(m.read("x").unwrap(), None, "lied-about data must vanish");
        assert_eq!(m.stats().lied_syncs, 1);
        // An honest barrier after the lie saves everything written so far
        // — the doubled-barrier defense the save protocols rely on.
        m.write("x", b"safe").unwrap();
        m.sync().unwrap();
        m.power_cut();
        assert_eq!(m.read("x").unwrap().unwrap(), b"safe");
    }

    #[test]
    fn rename_fail_leaves_the_stale_tmp() {
        let mut m = FaultyMedia::new(MemMedia::new());
        m.set_plan(FaultPlan::new(FaultKind::RenameFail, 1));
        m.write("s.tmp", b"next").unwrap();
        assert_eq!(
            m.rename("s.tmp", "s").unwrap_err(),
            MediaError::RenameFailed
        );
        assert_eq!(m.read("s.tmp").unwrap().unwrap(), b"next");
        assert_eq!(m.read("s").unwrap(), None);
        m.rename("s.tmp", "s").unwrap();
    }

    #[test]
    fn bit_rot_fires_at_power_cut_and_is_detectable() {
        let mut m = FaultyMedia::new(MemMedia::new());
        let mut plan = FaultPlan::new(FaultKind::BitRot, 1);
        plan.rot_file = "f".into();
        plan.seed = 42;
        m.set_plan(plan);
        m.write("f", &[0u8; 64]).unwrap();
        m.sync().unwrap();
        m.power_cut();
        let rotten = m.read("f").unwrap().unwrap();
        assert_ne!(rotten, vec![0u8; 64], "rot must flip bits");
        assert_eq!(m.stats().rotted_bits, 3);
    }

    #[test]
    fn dir_media_roundtrip() {
        let dir = std::env::temp_dir().join(format!("srbsg_dirmedia_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut m = DirMedia::open(&dir, true).unwrap();
        m.write("a.tmp", b"hello").unwrap();
        m.sync().unwrap();
        m.rename("a.tmp", "a").unwrap();
        m.sync().unwrap();
        assert_eq!(m.read("a").unwrap().unwrap(), b"hello");
        assert_eq!(m.read("a.tmp").unwrap(), None);
        assert_eq!(m.list().unwrap(), vec!["a".to_string()]);
        m.remove("a").unwrap();
        assert_eq!(m.read("a").unwrap(), None);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn shared_media_handle_controls_the_same_device() {
        let shared = SharedMedia::new(FaultyMedia::new(MemMedia::new()));
        let mut as_media: Box<dyn Media> = Box::new(shared.clone());
        as_media.write("k", b"v").unwrap();
        as_media.sync().unwrap();
        shared.with(|m| {
            // `at_op` is absolute: one write has already happened.
            m.set_plan(FaultPlan::new(FaultKind::NoSpace, 2));
        });
        assert!(as_media.write("k", b"w").unwrap_err().is_no_space());
        shared.with(|m| m.power_cut());
        assert_eq!(as_media.read("k").unwrap().unwrap(), b"v");
    }
}
