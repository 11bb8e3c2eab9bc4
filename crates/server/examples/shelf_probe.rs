//! Per-layer probe of the shelf's durable bytes at the benchmark's
//! geometry: 4 banks × 2^16 lines, rounds of 8 writes committed one round
//! at a time, the shelf on a local directory without `--fsync`.
//!
//! It reports the log record bytes per commit, split into header (frame
//! and counters), line slots and step descriptors, the remap steps a
//! commit logs, checkpoints per 100k acks, the wall time of a checkpoint
//! split into encode, CRC and media calls, and the wall time of a fresh
//! boot and of a recovery boot from the shelf the run leaves (load, log
//! replay, re-key, checkpoint). Media is the time inside the medium's
//! calls, CRC is one CRC-64 over an image-sized buffer, and encode is the
//! rest of the checkpoint's wall time.
//!
//! Each round goes through the serving path: one `FrontEnd::submit_batch`
//! of 8 writes, then `commit_with_healing`. Over the rounds whose commit
//! was a log record, it also reports the mean microseconds of
//! `submit_batch`, of building the record (the commit's wall time outside
//! the medium) and of appending it (the medium's append and barrier
//! calls), plus the checkpoints' wall time amortized over every round and
//! the heap allocations of a log-record round (submit plus commit,
//! counted by this binary's allocator).
//!
//! ```sh
//! cargo run --release -p srbsg-server --example shelf_probe -- [DIR] [ACKS]
//! ```
//!
//! `DIR` (default: a fresh directory under the system temporary
//! directory) is emptied first and removed at the end; `ACKS` defaults to
//! 400000.

use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_persist::{crc64, Dec, DirMedia, Media, MediaError, PersistError};
use srbsg_serve::{Op, Request};
use srbsg_server::{
    boot, checkpoint_with_healing, commit_with_healing, CommitStamp, DiskShelf, RetryPolicy,
    SaveOutcome, ServerConfig, SHELF_LOGS,
};
use srbsg_workloads::splitmix64;

#[path = "../tests/common/counting_alloc.rs"]
mod counting_alloc;

use counting_alloc::{allocs, Counting};

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Per-layer sums over the rounds whose commit was a log record.
#[derive(Debug, Default)]
struct Layers {
    submit: Duration,
    build: Duration,
    append: Duration,
    allocs: u64,
}

/// What the medium saw since the tally was last taken.
#[derive(Debug, Default, Clone, Copy)]
struct Tally {
    media: Duration,
    appended: u64,
    image_writes: u64,
    image_bytes: u64,
    /// The appended records' bytes by part (see [`Split`]).
    split: Split,
}

/// One log record's bytes by part, and the steps it logs.
#[derive(Debug, Default, Clone, Copy)]
struct Split {
    /// The frame's header and CRC, the commit counters, the bank count.
    header: u64,
    /// Per bank, the dirty count and every `(slot, line, wear)`.
    lines: u64,
    /// Per bank, the descriptors' length and the descriptors.
    descriptors: u64,
    steps: u64,
}

impl Split {
    fn add(&mut self, other: Split) {
        self.header += other.header;
        self.lines += other.lines;
        self.descriptors += other.descriptors;
        self.steps += other.steps;
    }

    /// Split a framed record (`len u32 | check u32 | payload | crc64`),
    /// following the record layout in the shelf's `LogReplay::apply`.
    fn of(frame: &[u8]) -> Result<Self, PersistError> {
        let payload = frame
            .get(8..frame.len() - 8)
            .ok_or(PersistError::Truncated)?;
        let mut dec = Dec::new(payload);
        let at = |dec: &Dec| (payload.len() - dec.remaining()) as u64;
        for _ in 0..4 {
            dec.varint()?;
        }
        let banks = dec.varint()?;
        let mut split = Split {
            header: 16 + at(&dec),
            ..Split::default()
        };
        for _ in 0..banks {
            let start = at(&dec);
            for _ in 0..dec.varint()? {
                dec.varint()?;
                if dec.u8()? == 2 {
                    dec.u32()?;
                }
                dec.varint()?;
            }
            let mid = at(&dec);
            let len = dec.varint()? as usize;
            let mut steps = Dec::new(dec.take(len)?);
            while steps.remaining() > 0 {
                let n = steps.varint()? as usize;
                steps.take(n)?;
                split.steps += 1;
            }
            split.lines += mid - start;
            split.descriptors += at(&dec) - mid;
        }
        dec.finish()?;
        Ok(split)
    }
}

/// A [`DirMedia`] that times every call and counts appended bytes and
/// checkpoint-image writes.
#[derive(Debug)]
struct Probe {
    inner: DirMedia,
    tally: Arc<Mutex<Tally>>,
}

impl Probe {
    fn timed<T>(&mut self, f: impl FnOnce(&mut DirMedia) -> T) -> T {
        let t = Instant::now();
        let out = f(&mut self.inner);
        self.tally.lock().expect("tally holder panicked").media += t.elapsed();
        out
    }
}

impl Media for Probe {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
        self.timed(|m| m.read(name))
    }
    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        if name.starts_with("state.") {
            let mut t = self.tally.lock().expect("tally holder panicked");
            t.image_writes += 1;
            t.image_bytes = bytes.len() as u64;
        }
        self.timed(|m| m.write(name, bytes))
    }
    fn append(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        let mut t = self.tally.lock().expect("tally holder panicked");
        t.appended += bytes.len() as u64;
        if name == SHELF_LOGS[0] {
            t.split
                .add(Split::of(bytes).expect("the shelf appends whole records"));
        }
        drop(t);
        self.timed(|m| m.append(name, bytes))
    }
    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
        self.timed(|m| m.rename(from, to))
    }
    fn remove(&mut self, name: &str) -> Result<(), MediaError> {
        self.timed(|m| m.remove(name))
    }
    fn list(&mut self) -> Result<Vec<String>, MediaError> {
        self.timed(|m| m.list())
    }
    fn sync(&mut self) -> Result<(), MediaError> {
        self.timed(|m| m.sync())
    }
}

fn median(mut xs: Vec<f64>) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs.get(xs.len() / 2).copied().unwrap_or(f64::NAN)
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

fn main() -> std::io::Result<()> {
    let mut args = std::env::args().skip(1);
    let dir = args.next().map(PathBuf::from).unwrap_or_else(|| {
        std::env::temp_dir().join(format!("srbsg_shelf_probe_{}", std::process::id()))
    });
    let acks: u64 = args.next().map_or(400_000, |a| a.parse().expect("ACKS"));
    let cfg = ServerConfig {
        data_dir: dir.clone(),
        banks: 4,
        width: 16,
        ..ServerConfig::default()
    };

    // Fresh boots: build the device and write its first checkpoint.
    let mut boots = Vec::new();
    let mut booted = None;
    for _ in 0..5 {
        let _ = std::fs::remove_dir_all(&dir);
        let t = Instant::now();
        let (fe, _, report) = boot(&cfg)?;
        boots.push(ms(t.elapsed()));
        booted = Some((fe, report));
    }
    let (mut fe, report) = booted.expect("five boots");

    let tally = Arc::new(Mutex::new(Tally::default()));
    let media = Probe {
        inner: DirMedia::open(&dir, false)?,
        tally: tally.clone(),
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
    let mut image_bytes =
        std::mem::take(&mut *tally.lock().expect("tally holder panicked")).image_bytes;

    let lines = fe.system().logical_lines();
    let (mut records, mut record_bytes) = (0u64, 0u64);
    let mut checkpoints = Vec::new();
    let mut layers = Layers::default();
    let mut split = Split::default();
    let mut s = 6u64;
    while stamp.acked_writes < acks {
        // Arrival 0 never idles a bank: the device sees exactly the
        // writes a direct `try_write` of each address would make.
        let batch: Vec<Request> = (0..8)
            .map(|_| {
                s = splitmix64(s);
                Request {
                    la: s % lines,
                    op: Op::Write(LineData::Mixed((s >> 40) as u32)),
                    arrival_ns: 0,
                    deadline_ns: srbsg_pcm::Ns::MAX,
                }
            })
            .collect();
        stamp.acked_writes += 8;
        stamp.save_seq += 1;
        let before = allocs();
        let t = Instant::now();
        let completions = fe.submit_batch(batch, 1);
        let submitted = Instant::now();
        let outcome = commit_with_healing(&mut shelf, fe.system_mut(), stamp, &policy);
        let committed = Instant::now();
        let spent = allocs() - before;
        assert!(completions.iter().all(|c| c.result.is_ok()));
        drop(completions);
        let wall = committed - submitted;
        assert_eq!(outcome, SaveOutcome::Saved { attempts: 1 });
        let seen = std::mem::take(&mut *tally.lock().expect("tally holder panicked"));
        if seen.image_writes > 0 {
            checkpoints.push((wall, seen.media));
            image_bytes = seen.image_bytes;
        } else {
            records += 1;
            // Both log copies get the same record.
            record_bytes += seen.appended / 2;
            split.add(seen.split);
            layers.submit += submitted - t;
            layers.build += wall.saturating_sub(seen.media);
            layers.append += seen.media;
            layers.allocs += spent;
        }
    }

    let image = vec![0xA5u8; image_bytes as usize];
    let crc: Vec<f64> = (0..5)
        .map(|_| {
            let t = Instant::now();
            std::hint::black_box(crc64(std::hint::black_box(&image)));
            ms(t.elapsed())
        })
        .collect();
    let crc = median(crc);
    let total = median(checkpoints.iter().map(|c| ms(c.0)).collect());
    let media = median(checkpoints.iter().map(|c| ms(c.1)).collect());
    println!("acks={} commits={}", stamp.acked_writes, stamp.save_seq);
    println!("image_bytes={image_bytes}");
    println!(
        "record_bytes_per_commit={:.1}",
        record_bytes as f64 / records.max(1) as f64
    );
    let per_commit = |x: u64| x as f64 / records.max(1) as f64;
    println!(
        "record_split header={:.1} line_slots={:.1} descriptors={:.1}",
        per_commit(split.header),
        per_commit(split.lines),
        per_commit(split.descriptors),
    );
    println!("steps_per_commit={:.2}", per_commit(split.steps));
    println!(
        "checkpoints_per_100k_acks={:.2}",
        checkpoints.len() as f64 * 1e5 / stamp.acked_writes as f64
    );
    println!(
        "checkpoint_ms={total:.2} encode_ms={:.2} crc_ms={crc:.2} media_ms={media:.2} (medians of {})",
        total - media - crc,
        checkpoints.len()
    );
    let per_record = |d: Duration| d.as_secs_f64() * 1e6 / records.max(1) as f64;
    let rounds = records + checkpoints.len() as u64;
    let checkpoint_wall: Duration = checkpoints.iter().map(|c| c.0).sum();
    println!(
        "submit_batch_us={:.2} record_build_us={:.2} append_us={:.2} checkpoint_us_amortized={:.2} (means over {records} log-record rounds of 8 writes)",
        per_record(layers.submit),
        per_record(layers.build),
        per_record(layers.append),
        checkpoint_wall.as_secs_f64() * 1e6 / rounds.max(1) as f64,
    );
    println!(
        "allocs_per_round={:.2}",
        layers.allocs as f64 / records.max(1) as f64
    );
    println!("fresh_boot_ms={:.2} (median of 5)", median(boots));

    // Recovery boots, each from the shelf as the last round left it
    // (checkpoint plus log): load and replay the log, re-key every bank,
    // checkpoint the new generation.
    drop(shelf);
    let mut files = Vec::new();
    for entry in std::fs::read_dir(&dir)? {
        let path = entry?.path();
        files.push((path.clone(), std::fs::read(path)?));
    }
    let mut recoveries = Vec::new();
    let mut recovered = None;
    for _ in 0..5 {
        for (path, bytes) in &files {
            std::fs::write(path, bytes)?;
        }
        let t = Instant::now();
        let (_, _, report) = boot(&cfg)?;
        recoveries.push(ms(t.elapsed()));
        recovered = Some(report);
    }
    let recovered = recovered.expect("five boots");
    println!(
        "recovery_boot_ms={:.2} replayed_steps={} rekey_movements={} (median of 5)",
        median(recoveries),
        recovered.replayed_steps,
        recovered.rekey_movements
    );
    let _ = std::fs::remove_dir_all(&dir);
    Ok(())
}
