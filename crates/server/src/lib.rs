#![warn(missing_docs)]

//! `srbsg-server` — a crash-survivable network serving binary over the
//! Security RBSG stack, plus the open-loop load generator that audits it.
//!
//! The rest of the workspace proves the wear-leveling and persistence
//! layers correct *inside one process*; this crate is where those
//! guarantees meet the outside world:
//!
//! * a **hardened wire protocol** ([`proto`]): length-prefixed CRC-64
//!   frames where every malformed input — oversized length, truncated
//!   frame, bad opcode, bit-flipped payload — becomes a typed
//!   [`proto::FrameError`] and a clean connection close, never a panic;
//! * a **serving runtime** ([`engine`]): one thread per connection that
//!   runs each request round to completion on the shared `srbsg-serve`
//!   front-end, with read/write deadlines, idle and slow-loris timeouts,
//!   a connection cap with typed overload refusal, and a
//!   durable-before-ack shelf commit on every write batch;
//! * **crash survival** ([`shelf`]): the device image — persistence
//!   stores, PCM contents, wear, clock — as a checkpoint committed by
//!   atomic rename plus a twin delta log of per-batch records, so
//!   `SIGKILL` at any instant leaves a recoverable state and restart
//!   re-keys the Security RBSG mapping exactly as the paper prescribes
//!   after a power cycle;
//! * a **graceful drain** ([`engine::run`]): `SIGTERM` stops the accept
//!   loop, lets every decoded round finish, checkpoints, and exits 0;
//! * an **auditing load generator** ([`loadgen`]): open-loop seeded
//!   traffic that retries writes until acknowledged and records exactly
//!   which tags were acked vs left unresolved, so [`AckLedger`] can prove
//!   zero acknowledged writes were lost across kill–restart cycles.

pub mod client;
pub mod engine;
pub mod loadgen;
pub mod os;
pub mod proto;
pub mod shelf;

pub use client::{Client, Endpoint, Listener, Stream};
pub use engine::{boot, restore, run, BootReport, ServerConfig, ServerScheme};
pub use loadgen::{run_load, AckLedger, LoadConfig, LoadReport};
pub use proto::{
    decode_request, decode_response, encode_request, encode_response, ErrCode, FrameError,
    FrameReader, RequestFrame, ResponseFrame, StatsWire, WireRequest, WireResponse,
};
pub use shelf::{
    checkpoint_with_healing, commit_with_healing, BankShelf, CommitStamp, DiskShelf, RetryPolicy,
    SaveOutcome, ShelfError, ShelfScrub, ShelfState, SHELF_LOGS, SHELF_SLOTS,
};
