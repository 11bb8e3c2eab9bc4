//! The traced run (`--trace 1`): the per-layer metrics.
//!
//! 1. An untraced pass against the release server, like the end-to-end
//!    run but shorter, gives the end-to-end `p50_ms` the busy times are
//!    subtracted from, and the acks per shelf save (the batch size the
//!    engine formed), read back with `DiskShelf::load` after the load
//!    drains and the server is killed.
//! 2. `DiskShelf::load` and `boot` are timed on copies of that post-run
//!    shelf.
//! 3. The workload's requests are replayed in-process through each layer's
//!    public functions, in the order the engine calls them today:
//!    decode → `FrontEnd::submit_batch` → `BankShelf::capture` →
//!    `DiskShelf::save` (over a timing [`Media`] around `DirMedia`) →
//!    `encode_response`.
//! 4. The sweep's lifetime engines run on the sweep's own parameters.
//!
//! Spans (name, start, end, parent, request id) are kept in memory and
//! written out as JSON lines when the run ends.

use std::collections::BTreeMap;
use std::io::{self, Write as _};
use std::path::Path;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use srbsg_lifetime::{
    sr2_raa_lifetime_trials, srbsg_raa_lifetime, srbsg_raa_lifetime_split, PcmParams, SrbsgParams,
};
use srbsg_pcm::{LineData, Ns};
use srbsg_persist::{DirMedia, Media, MediaError};
use srbsg_serve::{FrontEnd, Op, Request};
use srbsg_server::{
    boot, encode_request, encode_response, BankShelf, DiskShelf, ErrCode, FrameReader,
    RequestFrame, ResponseFrame, ServerConfig, ServerScheme, ShelfState, WireRequest, WireResponse,
};

use crate::closed_loop::tag;
use crate::server::{copy_shelf, fresh_dir, Server, BANKS, WIDTH};
use crate::{
    median_s, read_phase, stats, write_phase, Ctx, Metric, Report, Tally, Workload, WINDOW,
};

/// Boots timed on copies of the post-run shelf.
const BOOT_REPS: usize = 3;
/// Shelf saves the in-process `ack-heavy` replay performs: enough writes
/// for every bank's journal to reach a checkpoint.
const REPLAY_SAVES: u64 = 200;
/// Read batches the in-process `read-only` replay performs.
const REPLAY_READ_BATCHES: u64 = 5_000;
/// Fig. 14's quick-sweep stage counts.
const SWEEP_STAGES: [usize; 4] = [3, 7, 14, 20];
/// Seeds per stage the lifetime layers are timed on.
const SWEEP_SEEDS: u64 = 2;

/// One span: a timed call into a layer.
#[derive(Debug, Clone, Copy)]
pub struct Span {
    /// Layer call, e.g. `server.shelf.save`.
    pub name: &'static str,
    /// Start, nanoseconds since the trace began.
    pub start_ns: u64,
    /// End, nanoseconds since the trace began.
    pub end_ns: u64,
    /// Index of the enclosing span, if any.
    pub parent: Option<usize>,
    /// Request, batch, save or trial the span served.
    pub req: u64,
}

impl Span {
    /// Duration in nanoseconds.
    pub fn ns(&self) -> u64 {
        self.end_ns - self.start_ns
    }
}

/// In-memory span recorder.
#[derive(Debug)]
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Trace {
    fn new() -> Self {
        Self {
            epoch: Instant::now(),
            spans: Vec::new(),
        }
    }

    fn at(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_nanos() as u64
    }

    /// Open a span now; close it with [`Trace::end`].
    fn begin(&mut self, name: &'static str, parent: Option<usize>, req: u64) -> usize {
        let now = self.at(Instant::now());
        self.spans.push(Span {
            name,
            start_ns: now,
            end_ns: now,
            parent,
            req,
        });
        self.spans.len() - 1
    }

    fn end(&mut self, id: usize) {
        self.spans[id].end_ns = self.at(Instant::now());
    }

    /// Record an already-timed span.
    fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        req: u64,
    ) {
        let (start_ns, end_ns) = (self.at(start), self.at(end));
        self.spans.push(Span {
            name,
            start_ns,
            end_ns,
            parent,
            req,
        });
    }

    fn write_jsonl(&self, path: &Path) -> io::Result<()> {
        let mut out = io::BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\": {id}, \"name\": \"{}\", \"start_ns\": {}, \"end_ns\": {}, \"parent\": {parent}, \"req\": {}}}",
                s.name, s.start_ns, s.end_ns, s.req
            )?;
        }
        out.flush()
    }
}

/// One timed media call.
#[derive(Debug, Clone, Copy)]
pub struct MediaCall {
    /// `persist.media.write`, `.sync`, `.rename`, or another op's name.
    pub name: &'static str,
    /// When the call started.
    pub start: Instant,
    /// When it returned.
    pub end: Instant,
    /// Bytes the call wrote.
    pub bytes: u64,
}

/// A [`Media`] that times every call into the medium it wraps and keeps
/// the calls in a log the traced run drains after each save.
#[derive(Debug)]
pub struct TimingMedia<M> {
    inner: M,
    log: Arc<Mutex<Vec<MediaCall>>>,
}

impl<M: Media> TimingMedia<M> {
    /// Wrap `inner`; calls are appended to `log`.
    pub fn new(inner: M, log: Arc<Mutex<Vec<MediaCall>>>) -> Self {
        Self { inner, log }
    }

    fn timed<R>(&mut self, name: &'static str, bytes: u64, f: impl FnOnce(&mut M) -> R) -> R {
        let start = Instant::now();
        let r = f(&mut self.inner);
        let end = Instant::now();
        self.log
            .lock()
            .expect("media log holder panicked")
            .push(MediaCall {
                name,
                start,
                end,
                bytes,
            });
        r
    }
}

impl<M: Media> Media for TimingMedia<M> {
    fn read(&mut self, name: &str) -> Result<Option<Vec<u8>>, MediaError> {
        self.timed("persist.media.read", 0, |m| m.read(name))
    }

    fn write(&mut self, name: &str, bytes: &[u8]) -> Result<(), MediaError> {
        self.timed("persist.media.write", bytes.len() as u64, |m| {
            m.write(name, bytes)
        })
    }

    fn rename(&mut self, from: &str, to: &str) -> Result<(), MediaError> {
        self.timed("persist.media.rename", 0, |m| m.rename(from, to))
    }

    fn remove(&mut self, name: &str) -> Result<(), MediaError> {
        self.timed("persist.media.remove", 0, |m| m.remove(name))
    }

    fn list(&mut self) -> Result<Vec<String>, MediaError> {
        self.timed("persist.media.list", 0, |m| m.list())
    }

    fn sync(&mut self) -> Result<(), MediaError> {
        self.timed("persist.media.sync", 0, |m| m.sync())
    }

    fn power_cut(&mut self) {
        self.inner.power_cut();
    }
}

/// The server configuration the release binary runs with the benchmark's
/// flags, for in-process `boot`.
fn server_config(dir: &Path) -> ServerConfig {
    ServerConfig {
        data_dir: dir.to_path_buf(),
        banks: BANKS as usize,
        width: WIDTH,
        ..ServerConfig::default()
    }
}

/// What the untraced pass against the release server measured.
struct Untraced {
    p50_ms: f64,
    acks_per_save: f64,
    warm_acked: BTreeMap<u64, LineData>,
}

/// Step 1: the release server under the workload, then the save count
/// from its post-run shelf. Leaves that shelf in `dir`.
fn untraced_pass(ctx: &Ctx, w: Workload, dir: &Path, tally: &mut Tally) -> io::Result<Untraced> {
    let srv = Server::spawn(&ctx.server_bin, dir)?;
    let mut addrs = Workload::write_addrs(ctx.seed);
    let mut acked = BTreeMap::new();
    let mut acks = 0;
    if w == Workload::ReadOnly {
        let warm = write_phase(
            &srv.endpoint,
            &mut addrs,
            0,
            Some(crate::READ_ONLY_WARM_WRITES),
            Instant::now(),
            &mut acked,
        )?;
        tally.phase(&warm);
        acks = warm.ok;
    }
    let warm_acked = acked.clone();
    let stop = Instant::now() + Duration::from_secs(ctx.seconds) / 4;
    let measured = match w {
        Workload::AckHeavy => write_phase(&srv.endpoint, &mut addrs, 0, None, stop, &mut acked)?,
        Workload::ReadOnly => read_phase(&srv.endpoint, ctx.seed, stop, &acked)?,
    };
    tally.phase(&measured);
    if w == Workload::AckHeavy {
        acks = measured.ok;
    }
    let p50_ms = stats::median(
        &measured
            .lat_ns
            .iter()
            .map(|&n| n as f64 / 1e6)
            .collect::<Vec<_>>(),
    );
    srv.kill()?;
    let (state, _) = DiskShelf::open(dir, false)?
        .load()
        .map_err(io::Error::from)?
        .ok_or_else(|| io::Error::other("post-run shelf is empty"))?;
    // A fresh boot commits save 1; every later save covered a batch of acks.
    let saves = state.save_seq - 1;
    Ok(Untraced {
        p50_ms,
        acks_per_save: acks as f64 / saves.max(1) as f64,
        warm_acked,
    })
}

/// Step 3's state: the booted device, its timed shelf, and the engine's
/// counters.
struct Replay {
    fe: FrontEnd<ServerScheme>,
    shelf: DiskShelf,
    log: Arc<Mutex<Vec<MediaCall>>>,
    save_seq: u64,
    generation: u64,
    seed: u64,
    acked: u64,
    next_req: u64,
    reader: FrameReader,
    /// Bytes the shelf's media writes have carried.
    media_bytes: u64,
}

impl Replay {
    /// Push one batch through the layers as the engine does, recording
    /// spans. Returns each request's reply.
    fn batch(&mut self, t: &mut Trace, reqs: &[WireRequest]) -> Vec<WireResponse> {
        let first_id = self.next_req;
        self.next_req += reqs.len() as u64;
        // Client side, untimed: the frames as they arrive on the socket.
        let wire: Vec<Vec<u8>> = (first_id..)
            .zip(reqs)
            .map(|(req_id, req)| {
                let mut buf = Vec::with_capacity(64);
                encode_request(&mut buf, &RequestFrame { req_id, req: *req });
                buf
            })
            .collect();

        let mut frames = Vec::with_capacity(reqs.len());
        for (req_id, bytes) in (first_id..).zip(&wire) {
            let s = t.begin("server.proto.decode", None, req_id);
            self.reader.extend(bytes);
            let frame = self.reader.next_request();
            t.end(s);
            frames.push(
                frame
                    .expect("own frame decodes")
                    .expect("a whole frame is buffered"),
            );
        }

        let arrival = self.fe.system().now_ns();
        let requests: Vec<Request> = frames
            .iter()
            .map(|f| {
                let (la, op) = match f.req {
                    WireRequest::Read { la } => (la, Op::Read),
                    WireRequest::Write { la, data } => (la, Op::Write(data)),
                    _ => unreachable!("the replay sends reads and writes only"),
                };
                Request {
                    la,
                    op,
                    arrival_ns: arrival,
                    deadline_ns: Ns::MAX,
                }
            })
            .collect();
        let s = t.begin("serve.submit_batch", None, first_id);
        let mut completions = self.fe.submit_batch(requests, 1);
        t.end(s);
        completions.sort_by_key(|c| c.id);

        let acks = completions
            .iter()
            .zip(reqs)
            .filter(|(c, r)| c.result.is_ok() && matches!(r, WireRequest::Write { .. }))
            .count() as u64;
        if acks > 0 {
            self.acked += acks;
            self.save_seq += 1;
            let s = t.begin("server.shelf.capture", None, self.save_seq);
            let sys = self.fe.system();
            let state = ShelfState {
                save_seq: self.save_seq,
                generation: self.generation,
                seed: self.seed,
                now_ns: sys.now_ns(),
                acked_writes: self.acked,
                banks: sys
                    .banks()
                    .iter()
                    .map(|mc| BankShelf::capture(mc.scheme().store(), mc.bank()))
                    .collect(),
            };
            t.end(s);
            let s = t.begin("server.shelf.save", None, self.save_seq);
            self.shelf.save(&state).expect("healthy local disk");
            t.end(s);
            for call in self
                .log
                .lock()
                .expect("media log holder panicked")
                .drain(..)
            {
                t.push(call.name, call.start, call.end, Some(s), self.save_seq);
                self.media_bytes += call.bytes;
            }
        }

        let mut buf = Vec::with_capacity(64);
        let mut replies = Vec::with_capacity(reqs.len());
        for ((req_id, c), req) in (first_id..).zip(&completions).zip(reqs) {
            let resp = match (&c.result, req) {
                (Ok(served), WireRequest::Read { .. }) => WireResponse::ReadOk {
                    data: served.data.unwrap_or(LineData::Zeros),
                    latency_ns: served.latency_ns as u64,
                },
                (Ok(served), _) => WireResponse::WriteOk {
                    retries: served.retries,
                    latency_ns: served.latency_ns as u64,
                },
                (Err(_), _) => WireResponse::Err {
                    code: ErrCode::DeviceFault,
                    aux: 0,
                },
            };
            let s = t.begin("server.proto.encode", None, req_id);
            buf.clear();
            encode_response(&mut buf, &ResponseFrame { req_id, resp });
            t.end(s);
            replies.push(resp);
        }
        replies
    }

    /// Journal bytes written and checkpoints installed, over all banks.
    fn journal(&self) -> (u64, u64) {
        self.fe.system().banks().iter().fold((0, 0), |(b, c), mc| {
            (
                b + mc.scheme().journal_bytes_written(),
                c + mc.scheme().checkpoints_installed(),
            )
        })
    }
}

/// The part of the end-to-end median latency the traced layers do not
/// account for: channel waits, socket I/O, thread hand-offs, and queueing.
/// A request waits for its own decode and encode, for its whole batch's
/// `submit_batch`, and, when it is a write, for the batch's capture and
/// save (`save_path_ms`).
pub fn unattributed_ms(
    p50_ms: f64,
    decode_us: f64,
    encode_us: f64,
    submit_us_per_op: f64,
    batch_size: f64,
    save_path_ms: f64,
) -> f64 {
    p50_ms - (decode_us + encode_us + submit_us_per_op * batch_size) / 1e3 - save_path_ms
}

/// Step 4: the sweep's lifetime engines, per trial.
fn lifetime_layers(t: &mut Trace) -> Vec<Metric> {
    let params = PcmParams::small(18, 1_000_000);
    let items: Vec<(usize, u64)> = SWEEP_STAGES
        .iter()
        .flat_map(|&s| (0..SWEEP_SEEDS).map(move |sd| (s, sd)))
        .collect();
    let cfg = |stages| SrbsgParams {
        stages,
        ..SrbsgParams::paper_default()
    };
    let mut per_trial_ms = |name: &'static str, f: &dyn Fn(usize, u64) -> u128| {
        let mut total = 0;
        for (i, &(s, sd)) in items.iter().enumerate() {
            let id = t.begin(name, None, i as u64);
            std::hint::black_box(f(s, sd));
            t.end(id);
            total += t.spans[id].ns();
        }
        total as f64 / items.len() as f64 / 1e6
    };
    let legacy = per_trial_ms("lifetime.raa_legacy", &|s, sd| {
        srbsg_raa_lifetime(&params, &cfg(s), sd).ns
    });
    let j1 = per_trial_ms("lifetime.raa_split.j1", &|s, sd| {
        srbsg_raa_lifetime_split(&params, &cfg(s), sd, 1).ns
    });
    let j2 = per_trial_ms("lifetime.raa_split.j2", &|s, sd| {
        srbsg_raa_lifetime_split(&params, &cfg(s), sd, 2).ns
    });
    let seeds: Vec<u64> = (0..SWEEP_SEEDS * 2).collect();
    let s = t.begin("lifetime.sr2_raa", None, 0);
    std::hint::black_box(sr2_raa_lifetime_trials(&params, 512, 64, 128, &seeds, 1));
    t.end(s);
    let sr2 = t.spans[s].ns() as f64 / seeds.len() as f64 / 1e6;

    // The same trials through par_map on 2 workers: busy ÷ (2 × wall).
    let wall = t.begin("parallel.par_map", None, 0);
    let timed = srbsg_parallel::par_map(items.clone(), 2, move |(s, sd)| {
        let start = Instant::now();
        std::hint::black_box(srbsg_raa_lifetime(&params, &cfg(s), sd));
        (start, Instant::now())
    });
    t.end(wall);
    let mut busy = 0;
    for (i, (start, end)) in timed.into_iter().enumerate() {
        t.push("parallel.trial", start, end, Some(wall), i as u64);
        busy += end.duration_since(start).as_nanos() as u64;
    }
    let efficiency = busy as f64 / (2.0 * t.spans[wall].ns() as f64);
    vec![
        ("lifetime.raa_legacy_ms_per_trial", legacy, "ms"),
        ("lifetime.raa_split_ms_per_trial.j1", j1, "ms"),
        ("lifetime.raa_split_ms_per_trial.j2", j2, "ms"),
        ("lifetime.sr2_raa_ms", sr2, "ms"),
        ("parallel.sweep_efficiency", efficiency, "ratio"),
    ]
}

/// The traced run of workload `w`.
pub fn run(ctx: &Ctx, w: Workload) -> io::Result<Report> {
    let mut tally = Tally::default();
    let mut t = Trace::new();
    let post_run = fresh_dir(&ctx.root, "post-run")?;
    let untraced = untraced_pass(ctx, w, &post_run, &mut tally)?;

    // Step 2: load and boot, each on a fresh copy of the post-run shelf.
    let (mut loads, mut boots) = (Vec::new(), Vec::new());
    let mut booted = None;
    for rep in 0..BOOT_REPS {
        let dir = fresh_dir(&ctx.root, &format!("boot{rep}"))?;
        copy_shelf(&post_run, &dir)?;
        let mut shelf = DiskShelf::open(&dir, false)?;
        let s = t.begin("server.boot.load", None, rep as u64);
        let loaded = shelf.load().map_err(io::Error::from)?;
        t.end(s);
        loads.push(Duration::from_nanos(t.spans[s].ns()));
        tally.one(loaded.is_some());
        copy_shelf(&post_run, &dir)?;
        let s = t.begin("server.boot", None, rep as u64);
        let (fe, _, report) = boot(&server_config(&dir))?;
        t.end(s);
        boots.push(Duration::from_nanos(t.spans[s].ns()));
        booted = Some((fe, report, dir));
    }
    let (fe, report, dir) = booted.expect("BOOT_REPS > 0");

    // Step 3: replay the workload in-process on the last booted device.
    let log = Arc::new(Mutex::new(Vec::new()));
    let media = TimingMedia::new(DirMedia::open(&dir, false)?, log.clone());
    let shelf = DiskShelf::with_media(Box::new(media));
    log.lock().expect("media log holder panicked").clear();
    let mut r = Replay {
        fe,
        shelf,
        log,
        save_seq: report.save_seq,
        generation: report.generation,
        seed: server_config(&dir).seed,
        acked: report.acked_writes,
        next_req: 0,
        reader: FrameReader::new(),
        media_bytes: 0,
    };
    // The writes are the end-to-end run's: same addresses, same tags.
    let batch = (untraced.acks_per_save.round() as usize).clamp(1, WINDOW);
    let writes = match w {
        Workload::AckHeavy => REPLAY_SAVES * batch as u64,
        Workload::ReadOnly => crate::READ_ONLY_WARM_WRITES,
    };
    let mut addrs = Workload::write_addrs(ctx.seed);
    let reqs: Vec<WireRequest> = (0..writes)
        .map(|i| WireRequest::Write {
            la: addrs.next().expect("endless"),
            data: tag(i),
        })
        .collect();
    let (journal0, checkpoints0) = r.journal();
    let acked0 = r.acked;
    let first_write = t.spans.len();
    for chunk in reqs.chunks(batch) {
        for resp in r.batch(&mut t, chunk) {
            tally.one(matches!(resp, WireResponse::WriteOk { .. }));
        }
    }
    let (journal1, checkpoints1) = r.journal();
    let acks = (r.acked - acked0) as f64;
    let write_spans = &t.spans[first_write..];
    let saves = write_spans
        .iter()
        .filter(|s| s.name == "server.shelf.save")
        .count() as f64;
    let per_save_ms = |pick: &dyn Fn(&Span) -> bool| {
        let ns: u64 = write_spans.iter().filter(|s| pick(s)).map(Span::ns).sum();
        ns as f64 / saves / 1e6
    };
    let named = |name: &'static str| move |s: &Span| s.name == name;
    let media = |s: &Span| s.name.starts_with("persist.media.");
    let capture_ms = per_save_ms(&named("server.shelf.capture"));
    let save_ms = per_save_ms(&named("server.shelf.save"));
    let media_calls = write_spans.iter().filter(|s| media(s)).count() as f64;
    let shelf_metrics = [
        ("server.shelf.capture_ms", capture_ms, "ms"),
        ("server.shelf.save_ms", save_ms, "ms"),
        (
            "server.shelf.encode_ms",
            save_ms - per_save_ms(&media),
            "ms",
        ),
        (
            "persist.media.write_ms",
            per_save_ms(&named("persist.media.write")),
            "ms",
        ),
        (
            "persist.media.sync_ms",
            per_save_ms(&named("persist.media.sync")),
            "ms",
        ),
        (
            "persist.media.rename_ms",
            per_save_ms(&named("persist.media.rename")),
            "ms",
        ),
        (
            "persist.media.bytes_per_save",
            r.media_bytes as f64 / saves,
            "B",
        ),
        ("persist.media.calls_per_save", media_calls / saves, "count"),
        (
            "persist.journal.bytes_per_ack",
            (journal1 - journal0) as f64 / acks,
            "B",
        ),
        (
            "persist.journal.checkpoints_per_kack",
            (checkpoints1 - checkpoints0) as f64 * 1e3 / acks,
            "count",
        ),
    ];

    // Request-path layers are measured on the workload's own op type.
    let mut first_request = first_write;
    if w == Workload::ReadOnly {
        first_request = t.spans.len();
        let expect = &untraced.warm_acked;
        let mut reads = Workload::read_addrs(ctx.seed);
        for _ in 0..REPLAY_READ_BATCHES {
            let reqs: Vec<WireRequest> = (0..WINDOW)
                .map(|_| WireRequest::Read {
                    la: reads.next().expect("endless"),
                })
                .collect();
            for (req, resp) in reqs.iter().zip(r.batch(&mut t, &reqs)) {
                let want = match req {
                    WireRequest::Read { la } => expect.get(la).copied().unwrap_or(LineData::Zeros),
                    _ => unreachable!("reads only"),
                };
                tally.one(matches!(resp, WireResponse::ReadOk { data, .. } if data == want));
            }
        }
    }
    let request_spans = &t.spans[first_request..];
    let total = |name: &str| -> (f64, f64) {
        request_spans
            .iter()
            .filter(|s| s.name == name)
            .fold((0.0, 0.0), |(n, x), s| (n + 1.0, x + s.ns() as f64))
    };
    let (requests, decode_ns) = total("server.proto.decode");
    let (_, encode_ns) = total("server.proto.encode");
    let (batches, submit_ns) = total("serve.submit_batch");
    let decode_us = decode_ns / requests / 1e3;
    let encode_us = encode_ns / requests / 1e3;
    let submit_us_per_op = submit_ns / requests / 1e3;
    let batch_size = requests / batches;
    let save_path_ms = if w == Workload::AckHeavy {
        capture_ms + save_ms
    } else {
        0.0
    };

    let mut metrics = vec![
        ("server.proto.decode_us", decode_us, "us"),
        ("server.proto.encode_us", encode_us, "us"),
        ("serve.submit_batch_us_per_op", submit_us_per_op, "us"),
        ("serve.batch_size", batch_size, "count"),
    ];
    metrics.extend(shelf_metrics);
    metrics.extend([
        ("server.acks_per_save", untraced.acks_per_save, "count"),
        (
            "server.unattributed_ms",
            unattributed_ms(
                untraced.p50_ms,
                decode_us,
                encode_us,
                submit_us_per_op,
                batch_size,
                save_path_ms,
            ),
            "ms",
        ),
        ("server.boot.load_ms", median_s(&loads) * 1e3, "ms"),
        ("server.boot.total_ms", median_s(&boots) * 1e3, "ms"),
        (
            "server.boot.replayed_steps",
            report.replayed_steps as f64,
            "count",
        ),
        (
            "server.boot.rekey_movements",
            report.rekey_movements as f64,
            "count",
        ),
    ]);
    metrics.extend(lifetime_layers(&mut t));
    let spans = ctx
        .out
        .join(format!("spans-{}-seed{}.jsonl", w.name(), ctx.seed));
    t.write_jsonl(&spans)?;
    eprintln!(
        "perfbench: {} spans written to {}; untraced p50 {:.4} ms over the release server; {:.1} s traced",
        t.spans.len(),
        spans.display(),
        untraced.p50_ms,
        t.epoch.elapsed().as_secs_f64()
    );
    Ok(Report {
        metrics,
        info: Vec::new(),
        tally,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use srbsg_persist::MemMedia;

    #[test]
    fn timing_media_logs_each_call_with_its_bytes() {
        let log = Arc::new(Mutex::new(Vec::new()));
        let mut m = TimingMedia::new(MemMedia::new(), log.clone());
        m.write("a.tmp", &[0u8; 100]).unwrap();
        m.sync().unwrap();
        m.rename("a.tmp", "a").unwrap();
        assert_eq!(m.read("a").unwrap().map(|v| v.len()), Some(100));
        let names: Vec<_> = log
            .lock()
            .unwrap()
            .iter()
            .map(|c| (c.name, c.bytes))
            .collect();
        assert_eq!(
            names,
            [
                ("persist.media.write", 100),
                ("persist.media.sync", 0),
                ("persist.media.rename", 0),
                ("persist.media.read", 0)
            ]
        );
    }

    #[test]
    fn unattributed_is_p50_minus_the_request_busy_sum() {
        // Write: 20 us decode + 5 us encode + 100 us/op x 8 ops of submit
        // (0.825 ms of request path) + 16 ms capture and save.
        let u = unattributed_ms(21.0, 20.0, 5.0, 100.0, 8.0, 16.0);
        assert!((u - (21.0 - 0.825 - 16.0)).abs() < 1e-12, "{u}");
        // Read: no save path.
        let u = unattributed_ms(0.05, 4.0, 1.0, 3.0, 8.0, 0.0);
        assert!((u - (0.05 - 0.029)).abs() < 1e-12, "{u}");
    }

    #[test]
    fn spans_nest_inside_their_parent() {
        let mut t = Trace::new();
        let a = t.begin("server.shelf.save", None, 1);
        let b = t.begin("persist.media.sync", Some(a), 1);
        t.end(b);
        t.end(a);
        assert!(t.spans[b].ns() <= t.spans[a].ns());
        assert!(t.spans[a].start_ns <= t.spans[b].start_ns);
        assert_eq!(t.spans[b].parent, Some(a));
    }
}
