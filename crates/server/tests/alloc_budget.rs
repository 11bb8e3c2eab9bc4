//! Steady-state allocation budget of the server's write round.
//!
//! A round is what one connection's chunk costs the engine: one
//! `FrontEnd::submit_batch` of writes, then the `commit_with_healing`
//! that makes them durable. Past warm-up, every buffer on that path —
//! per-bank queues and completion lists, the journal records each remap
//! step appends, the snapshots journal checkpoints write, the dirty-slot
//! drain and the shelf's log record — reuses its capacity, so a round
//! allocates a small constant: the completion vector `submit_batch`
//! returns and the list of per-bank work items it hands its workers,
//! and nothing per request. Rounds whose commit fell back to a
//! full shelf checkpoint (the log reached its budget) are left out.
//!
//! This file is its own test binary because it installs a counting
//! global allocator (`common/counting_alloc.rs`); the counter is
//! thread-local, so other threads never disturb it.

use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use srbsg_pcm::LineData;
use srbsg_persist::{DirMedia, Media, MediaError};
use srbsg_serve::{Op, Request};
use srbsg_server::{
    boot, checkpoint_with_healing, commit_with_healing, CommitStamp, DiskShelf, RetryPolicy,
    SaveOutcome, ServerConfig,
};
use srbsg_workloads::splitmix64;

#[path = "common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// A [`DirMedia`] that flags every checkpoint-image write, so the rounds
/// whose commit was a full checkpoint can be left out.
#[derive(Debug)]
struct Flagging {
    inner: DirMedia,
    image_written: Arc<AtomicBool>,
}

impl Media for Flagging {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
        self.inner.read(name)
    }
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        if name.starts_with("state.") {
            self.image_written.store(true, Ordering::Relaxed);
        }
        self.inner.write(name, bytes)
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.inner.append(name, bytes)
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
        self.inner.rename(from, to)
    }
    fn remove(&mut self, name: &str) -> Result<(), MediaError> {
        self.inner.remove(name)
    }
    fn list(&mut self) -> Result<Vec<String>, MediaError> {
        self.inner.list()
    }
    fn sync(&mut self) -> Result<(), MediaError> {
        self.inner.sync()
    }
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("srbsg_alloc_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// Mean allocations per measured round of `writes` random writes on a
/// booted 4-bank device of 2^16 lines per bank, after `warmup` rounds.
fn mean_allocs_per_round(dir: &Path, writes: usize, warmup: usize, rounds: usize) -> f64 {
    let cfg = ServerConfig {
        data_dir: dir.to_path_buf(),
        banks: 4,
        width: 16,
        ..ServerConfig::default()
    };
    let (mut fe, shelf, report) = boot(&cfg).expect("boot");
    drop(shelf);
    let image_written = Arc::new(AtomicBool::new(false));
    let media = Flagging {
        inner: DirMedia::open(dir, false).expect("open the data directory"),
        image_written: image_written.clone(),
    };
    let mut shelf = DiskShelf::with_media(Box::new(media));
    let policy = RetryPolicy::default();
    let mut stamp = CommitStamp {
        save_seq: report.save_seq + 1,
        seed: cfg.seed,
        ..CommitStamp::default()
    };
    let armed = checkpoint_with_healing(&mut shelf, fe.system_mut(), stamp, &policy);
    assert!(matches!(armed, SaveOutcome::Saved { .. }), "{armed:?}");

    let lines = fe.system().logical_lines();
    let mut s = writes as u64;
    let (mut measured, mut total) = (0u64, 0u64);
    for round in 0..warmup + rounds {
        let arrival = fe.system().now_ns();
        let batch: Vec<Request> = (0..writes)
            .map(|_| {
                s = splitmix64(s);
                Request {
                    la: s % lines,
                    op: Op::Write(LineData::Mixed((s >> 40) as u32)),
                    arrival_ns: arrival,
                    deadline_ns: srbsg_pcm::Ns::MAX,
                }
            })
            .collect();
        stamp.acked_writes += writes as u64;
        stamp.save_seq += 1;
        image_written.store(false, Ordering::Relaxed);

        let before = allocs();
        let completions = fe.submit_batch(batch, 1);
        let outcome = commit_with_healing(&mut shelf, fe.system_mut(), stamp, &policy);
        let spent = allocs() - before;

        assert_eq!(outcome, SaveOutcome::Saved { attempts: 1 });
        assert!(completions.iter().all(|c| c.result.is_ok()));
        if round >= warmup && !image_written.load(Ordering::Relaxed) {
            measured += 1;
            total += spent;
        }
    }
    assert!(
        measured * 10 >= rounds as u64 * 9,
        "only {measured} of {rounds} rounds were log records"
    );
    total as f64 / measured as f64
}

#[test]
fn a_steady_state_write_round_allocates_a_constant_not_per_request() {
    let dir = temp_dir("budget");
    let small = mean_allocs_per_round(&dir, 8, 300, 1_000);
    let _ = std::fs::remove_dir_all(&dir);
    let large = mean_allocs_per_round(&dir, 64, 300, 1_000);
    let _ = std::fs::remove_dir_all(&dir);
    eprintln!("allocations per round: {small:.2} (8 writes), {large:.2} (64 writes)");
    assert!(small <= 4.0, "8-write round allocates {small:.2} times");
    assert!(large <= 4.0, "64-write round allocates {large:.2} times");
    assert!(
        (small - large).abs() <= 0.5,
        "allocations grow with the batch: {small:.2} (8 writes) vs {large:.2} (64 writes)"
    );
}
