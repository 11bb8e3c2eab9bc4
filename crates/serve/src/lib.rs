#![warn(missing_docs)]

//! A resilient batched serving front-end over [`srbsg_pcm::MultiBankSystem`].
//!
//! The paper's §IV-A manages each bank separately precisely so banks fail
//! and remap independently; this crate is the request layer that exploits
//! that independence for *serving*: a stream of read/write requests fans
//! out to per-bank bounded command queues, each bank drains its queue on
//! its own worker, and every robustness decision is explicit and typed
//! rather than an unbounded block or a panic:
//!
//! * **Bounded queues / backpressure** — each bank accepts at most
//!   [`ServeConfig::queue_depth`] commands per batch; overflow is rejected
//!   as [`Rejected::QueueFull`] at admission, before the request can touch
//!   device state.
//! * **Deadlines** — every request carries an absolute deadline. A request
//!   whose bank cannot *start* it in time (the bank clock is already past
//!   the deadline — a slow bank, a deep queue) is rejected as
//!   [`Rejected::DeadlineExceeded`] without touching the device; a write
//!   that runs out of deadline mid-retry is rejected with its attempt
//!   count, so the caller can tell the two apart.
//! * **Retry with capped exponential backoff** — a write whose device-level
//!   program-and-verify budget is exhausted surfaces as
//!   [`srbsg_pcm::PcmError::WriteNotVerified`]; the front-end re-issues it
//!   up to [`ServeConfig::max_retries`] times, sleeping a deterministic,
//!   seeded-jitter backoff between attempts (see [`backoff_ns`]). A write
//!   is *acknowledged* only when a re-issue verifies.
//! * **Bank quarantine** — a bank whose [`srbsg_pcm::DegradationReport`] shows spare
//!   pressure at or above [`ServeConfig::quarantine_spare_frac`] is
//!   quarantined: it keeps serving reads (the data is still there) but
//!   rejects writes as [`Rejected::BankQuarantined`], so a dying bank
//!   degrades the system instead of poisoning it.
//!
//! **Determinism.** Request routing fixes each bank's command subsequence;
//! a bank worker's behavior depends only on its own bank state and that
//! subsequence; results merge by request id and quarantine events by bank
//! order. The output of [`FrontEnd::submit_batch`] is therefore
//! bit-for-bit identical for any worker count — the same contract as
//! `srbsg-parallel`, extended to a stateful pipeline.

mod backoff;
mod frontend;
mod stats;

pub use backoff::backoff_ns;
pub use frontend::{FrontEnd, QuarantineEvent};
pub use stats::{percentile_ns, ServeStats};

use srbsg_pcm::{LineAddr, LineData, Ns, PcmError};

/// The operation a request performs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Read the line, returning its data.
    Read,
    /// Write the given data to the line.
    Write(LineData),
}

/// One request submitted to the front-end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Request {
    /// System logical address (interleaved across banks on the low bits).
    pub la: LineAddr,
    /// What to do.
    pub op: Op,
    /// Absolute simulated arrival time. Should be non-decreasing across a
    /// trace; a bank idles up to the arrival time before starting.
    pub arrival_ns: Ns,
    /// Absolute deadline; `Ns::MAX` for none. A request that cannot start
    /// by its deadline is rejected without touching the device.
    pub deadline_ns: Ns,
}

/// Why a request was not served — the typed backpressure surface.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The addressed bank's bounded queue was full at admission. The
    /// device was not touched.
    QueueFull {
        /// The saturated bank.
        bank: usize,
        /// The configured queue depth it was at.
        depth: usize,
    },
    /// The deadline passed before the bank could start the request
    /// (`attempts == 0`, device untouched) or mid-retry (`attempts > 0`,
    /// the unverified write pulses did land on the device).
    DeadlineExceeded {
        /// The addressed bank.
        bank: usize,
        /// The request's deadline.
        deadline_ns: Ns,
        /// When the bank would actually have started (or resumed) it.
        ready_ns: Ns,
        /// Write attempts issued to the device before giving up.
        attempts: u32,
    },
    /// The addressed bank is quarantined (spare pool nearly gone): it
    /// serves reads but rejects writes. The device was not touched.
    BankQuarantined {
        /// The quarantined bank.
        bank: usize,
    },
    /// The front-end retry budget ran out without a verified write. The
    /// attempts all landed unverified pulses on the device; the write is
    /// *not* acknowledged.
    RetriesExhausted {
        /// The addressed bank.
        bank: usize,
        /// Total write issues, including the first.
        attempts: u32,
    },
    /// The serving tier is in read-only degradation: durable storage
    /// cannot accept new state (persistent ENOSPC on the shelf), so writes
    /// are shed at admission — acknowledging them could lose them — while
    /// reads keep being served. The device was not touched.
    ReadOnly,
    /// A non-transient device error (e.g. address out of range).
    Fault(PcmError),
}

impl Rejected {
    /// Whether the rejected request issued at least one write pulse to the
    /// device before being rejected. Needed by write-loss audits: a
    /// rejection that touched the device may have clobbered the line even
    /// though it was never acknowledged.
    pub fn touched_device(&self) -> bool {
        match self {
            Rejected::DeadlineExceeded { attempts, .. } => *attempts > 0,
            Rejected::RetriesExhausted { .. } => true,
            _ => false,
        }
    }
}

/// A successfully served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Served {
    /// The bank that served it.
    pub bank: usize,
    /// End-to-end latency: completion minus arrival, including queue
    /// wait, remap stalls, device retries, and front-end backoff.
    pub latency_ns: Ns,
    /// Front-end re-issues this write needed (0 = first attempt verified;
    /// always 0 for reads).
    pub retries: u32,
    /// The data read (for [`Op::Read`]; `None` for writes).
    pub data: Option<LineData>,
}

/// The outcome of one submitted request.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Completion {
    /// Sequential id assigned at submission (submission order).
    pub id: u64,
    /// Served or rejected.
    pub result: Result<Served, Rejected>,
}

impl Completion {
    /// Whether the request issued at least one write pulse to the device
    /// (acknowledged or not). Reads never count.
    pub fn touched_device(&self, op_is_write: bool) -> bool {
        op_is_write
            && match &self.result {
                Ok(_) => true,
                Err(r) => r.touched_device(),
            }
    }
}

/// Front-end policy knobs. All deterministic; `backoff_seed` keys the
/// jitter streams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Per-bank bounded command-queue depth (per batch submission).
    pub queue_depth: usize,
    /// Front-end re-issues allowed per unverified write.
    pub max_retries: u32,
    /// First backoff interval; doubles per retry.
    pub backoff_base_ns: u64,
    /// Backoff growth cap.
    pub backoff_cap_ns: u64,
    /// Seed for the deterministic per-request jitter streams.
    pub backoff_seed: u64,
    /// Quarantine a bank once its spare pressure (spares used / spares
    /// provisioned, or 1.0 on capacity exhaustion) reaches this fraction.
    /// `0.0` disables quarantine.
    pub quarantine_spare_frac: f64,
}

impl Default for ServeConfig {
    fn default() -> Self {
        Self::DEFAULT
    }
}

impl ServeConfig {
    /// The default policy, usable in `const` context.
    pub const DEFAULT: Self = Self {
        queue_depth: 64,
        max_retries: 3,
        backoff_base_ns: 500,
        backoff_cap_ns: 16_000,
        backoff_seed: 0x5E4E_5EED,
        quarantine_spare_frac: 0.75,
    };

    /// Check invariants, panicking on nonsense values.
    pub fn validated(self) -> Self {
        assert!(self.queue_depth >= 1, "queue depth must be at least 1");
        assert!(
            self.backoff_base_ns >= 1 || self.max_retries == 0,
            "backoff base must be positive when retries are enabled"
        );
        assert!(self.backoff_cap_ns >= self.backoff_base_ns);
        assert!(
            (0.0..=1.0).contains(&self.quarantine_spare_frac),
            "quarantine fraction must be in [0, 1]"
        );
        self
    }
}
