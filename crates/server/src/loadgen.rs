//! Open-loop load generator with write-loss accounting.
//!
//! One invocation drives one *phase* of load (the kill–restart test in
//! `tests/restart_equivalence.rs` runs several phases around kills and
//! restarts). Each connection runs on its
//! own thread, issues a seeded deterministic request mix at a configured
//! pace with a bounded pipelining window, and — the part the audit relies
//! on — **retries every write until it is acknowledged**, reconnecting
//! with capped exponential backoff (the `srbsg-serve` jitter schedule,
//! interpreted in wall-clock microseconds) when the server goes away.
//!
//! # Write-loss audit model
//!
//! * Connection `c` of `n` only ever writes addresses `la % n == c`, so
//!   every address has a single writer and "last write" is well defined.
//! * Every write carries a unique tag (`conn << 24 | seq`) as its
//!   [`LineData::Mixed`] payload.
//! * The phase report records, per address, the tag of the **last
//!   acknowledged** write, plus the tags of writes that were issued but
//!   never acknowledged (`unresolved` — the server may or may not have
//!   applied them; both outcomes are legal).
//! * The audit (after the final restart) reads every recorded address
//!   back: the device must hold either the last acked tag or an
//!   unresolved tag. Anything else — in particular an *older* acked tag —
//!   is a lost acknowledged write.

use std::collections::{BTreeMap, HashMap, VecDeque};
use std::io::Write as _;
use std::path::Path;
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_serve::{backoff_ns, percentile_ns, Rejected, ServeConfig, Served};
use srbsg_workloads::splitmix64;

use crate::client::{read_response, Endpoint};
use crate::proto::{encode_request, ErrCode, FrameReader, RequestFrame, WireRequest, WireResponse};

/// Load-phase configuration.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Server endpoint.
    pub endpoint: Endpoint,
    /// Concurrent connections.
    pub conns: usize,
    /// Requests to issue per connection.
    pub requests_per_conn: usize,
    /// Logical device size (addresses are drawn below this).
    pub lines: u64,
    /// Fraction of requests that are writes.
    pub write_ratio: f64,
    /// Open-loop pacing gap between issues, per connection.
    pub gap: Duration,
    /// Pipelining window (max outstanding requests per connection).
    pub window: usize,
    /// Base seed for the deterministic mix.
    pub seed: u64,
    /// Tag offset so tags stay unique across phases (low 24 bits).
    pub tag_base: u32,
    /// Give up on the whole phase after this long.
    pub wall_deadline: Duration,
}

impl Default for LoadConfig {
    fn default() -> Self {
        Self {
            endpoint: Endpoint::Tcp("127.0.0.1:0".into()),
            conns: 1,
            requests_per_conn: 1000,
            lines: 1024,
            write_ratio: 0.5,
            gap: Duration::from_micros(50),
            window: 8,
            seed: 0x10AD_6E4E,
            tag_base: 0,
            wall_deadline: Duration::from_secs(60),
        }
    }
}

/// Outcome of one load phase (merged over connections).
#[derive(Debug, Clone, Default)]
pub struct LoadReport {
    /// Requests issued (first sends only; resends not counted).
    pub sent: u64,
    /// Writes acknowledged durable.
    pub acked_writes: u64,
    /// Reads answered.
    pub ok_reads: u64,
    /// Typed error responses received (all codes).
    pub errors: u64,
    /// Reconnects performed.
    pub reconnects: u64,
    /// Wall-clock latencies of successful requests, microseconds, sorted.
    pub latencies_us: Vec<u64>,
    /// Wall time the phase took.
    pub elapsed: Duration,
    /// Last acknowledged write tag per address.
    pub acked: HashMap<u64, u32>,
    /// Issued-but-never-acknowledged write tags per address.
    pub unresolved: HashMap<u64, Vec<u32>>,
}

impl LoadReport {
    /// Latency percentile in microseconds (latencies must stay sorted).
    pub fn p_us(&self, pct: f64) -> u64 {
        if self.latencies_us.is_empty() {
            return 0;
        }
        let ns: Vec<u128> = self.latencies_us.iter().map(|&v| v as u128).collect();
        percentile_ns(&ns, pct) as u64
    }

    /// Successful responses per wall-clock second.
    pub fn goodput_rps(&self) -> f64 {
        let ok = (self.acked_writes + self.ok_reads) as f64;
        let secs = self.elapsed.as_secs_f64();
        if secs > 0.0 {
            ok / secs
        } else {
            0.0
        }
    }

    fn merge(&mut self, other: LoadReport) {
        self.sent += other.sent;
        self.acked_writes += other.acked_writes;
        self.ok_reads += other.ok_reads;
        self.errors += other.errors;
        self.reconnects += other.reconnects;
        self.latencies_us.extend(other.latencies_us);
        // Addresses are partitioned by connection, so plain extends are
        // collision-free.
        self.acked.extend(other.acked);
        for (la, tags) in other.unresolved {
            self.unresolved.entry(la).or_default().extend(tags);
        }
    }

    /// Serialize as a plain-text report: one `key value` line per counter,
    /// then one `a <la> <tag>` line per acked address and `u <la> <tag>`
    /// per unresolved write. Latencies stay out of the file.
    pub fn write_to(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        out.push_str(&format!("sent {}\n", self.sent));
        out.push_str(&format!("acked_writes {}\n", self.acked_writes));
        out.push_str(&format!("ok_reads {}\n", self.ok_reads));
        out.push_str(&format!("errors {}\n", self.errors));
        out.push_str(&format!("reconnects {}\n", self.reconnects));
        out.push_str(&format!("elapsed_us {}\n", self.elapsed.as_micros()));
        let mut acked: Vec<_> = self.acked.iter().collect();
        acked.sort();
        for (la, tag) in acked {
            out.push_str(&format!("a {la} {tag}\n"));
        }
        let mut unresolved: Vec<_> = self.unresolved.iter().collect();
        unresolved.sort();
        for (la, tags) in unresolved {
            for tag in tags {
                out.push_str(&format!("u {la} {tag}\n"));
            }
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())
    }

    /// Parse a report written by [`LoadReport::write_to`]: its counters
    /// and addresses. An unknown `key value` line is skipped.
    pub fn parse(text: &str) -> Result<Self, String> {
        let mut rep = LoadReport::default();
        let mut kv = HashMap::new();
        for line in text.lines() {
            let mut it = line.split_whitespace();
            match (it.next(), it.next(), it.next()) {
                (Some("a"), Some(la), Some(tag)) => {
                    rep.acked.insert(
                        la.parse().map_err(|_| format!("bad la {la:?}"))?,
                        tag.parse().map_err(|_| format!("bad tag {tag:?}"))?,
                    );
                }
                (Some("u"), Some(la), Some(tag)) => {
                    rep.unresolved
                        .entry(la.parse().map_err(|_| format!("bad la {la:?}"))?)
                        .or_default()
                        .push(tag.parse().map_err(|_| format!("bad tag {tag:?}"))?);
                }
                (Some(k), Some(v), None) => {
                    kv.insert(k.to_string(), v.to_string());
                }
                (None, _, _) => {}
                _ => return Err(format!("unparseable report line {line:?}")),
            }
        }
        let get = |k: &str| kv.get(k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0);
        rep.sent = get("sent");
        rep.acked_writes = get("acked_writes");
        rep.ok_reads = get("ok_reads");
        rep.errors = get("errors");
        rep.reconnects = get("reconnects");
        rep.elapsed = Duration::from_micros(get("elapsed_us"));
        Ok(rep)
    }
}

/// The lost-ack oracle: which value each address must read back after
/// the chaos.
///
/// A harness records every acknowledged write with [`AckLedger::ack`]
/// (the last ack of an address wins), drops an address whose line a
/// never-acknowledged write may have clobbered with [`AckLedger::forget`]
/// ([`AckLedger::settle`] picks between the two from a front-end
/// completion), and notes writes still in flight at a kill with
/// [`AckLedger::unresolved`]. A *phase* orders the acks and in-flight
/// writes of harnesses that run several load phases against one device
/// ([`AckLedger::add_report`] takes one [`LoadReport`] per phase);
/// single-phase harnesses pass 0. [`AckLedger::audit`] then reads back
/// every acknowledged address: it must hold its last acked value, or an
/// unresolved value from the last ack's phase or a later one (a write
/// the device applied without its ack reaching the client). Anything
/// else, an untagged line included, is a lost acknowledged write.
#[derive(Debug, Default)]
pub struct AckLedger {
    /// Last acknowledged value per address, with its phase.
    acked: BTreeMap<u64, (LineData, usize)>,
    /// Never-acknowledged values the device may hold, with their phases.
    unresolved: BTreeMap<u64, Vec<(LineData, usize)>>,
}

impl AckLedger {
    /// Record an acknowledged write; it supersedes any earlier ack of `la`.
    pub fn ack(&mut self, la: u64, data: LineData, phase: usize) {
        self.acked.insert(la, (data, phase));
    }

    /// A write reached the device but was never acknowledged: the line is
    /// indeterminate, so `la` leaves the audit until its next ack.
    pub fn forget(&mut self, la: u64) {
        self.acked.remove(&la);
        self.unresolved.remove(&la);
    }

    /// Settle a single-phase harness's write of `data` to `la` by its
    /// front-end `result`: an ack is recorded, a rejection that touched the
    /// device forgets `la`, and one refused before reaching the device
    /// changes nothing.
    pub fn settle(&mut self, la: u64, data: LineData, result: &Result<Served, Rejected>) {
        match result {
            Ok(_) => self.ack(la, data, 0),
            Err(r) if r.touched_device() => self.forget(la),
            Err(_) => {}
        }
    }

    /// Note a write that was in flight at a kill: the device may hold it.
    pub fn unresolved(&mut self, la: u64, data: LineData, phase: usize) {
        self.unresolved.entry(la).or_default().push((data, phase));
    }

    /// Record load phase `phase`: its last acknowledged tag per address
    /// and every tag it left unresolved. Add phases in the order they ran.
    pub fn add_report(&mut self, report: &LoadReport, phase: usize) {
        for (&la, &tag) in &report.acked {
            self.ack(la, LineData::Mixed(tag), phase);
        }
        for (&la, tags) in &report.unresolved {
            for &tag in tags {
                self.unresolved(la, LineData::Mixed(tag), phase);
            }
        }
    }

    /// Read back every acknowledged address through `read`, in address
    /// order. Returns `(audited, lost)`.
    pub fn audit(&self, mut read: impl FnMut(u64) -> LineData) -> (u64, u64) {
        let mut lost = 0u64;
        for (&la, &(data, phase)) in &self.acked {
            let got = read(la);
            let in_flight = self
                .unresolved
                .get(&la)
                .is_some_and(|u| u.iter().any(|&(d, p)| d == got && p >= phase));
            lost += u64::from(got != data && !in_flight);
        }
        (self.acked.len() as u64, lost)
    }
}

/// Tiny deterministic RNG (splitmix64 stream) so the loadgen does not
/// need the `rand` crate at runtime.
struct Mix(u64);

impl Mix {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        splitmix64(self.0)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
    fn chance(&mut self, p: f64) -> bool {
        (self.next() >> 11) as f64 / ((1u64 << 53) as f64) < p
    }
}

#[derive(Debug, Clone, Copy)]
enum Pending {
    Read { la: u64 },
    Write { la: u64, tag: u32 },
}

struct ConnState {
    stream: Option<crate::client::Stream>,
    reader: FrameReader,
    scratch: Vec<u8>,
    next_req_id: u64,
    /// In-order outstanding requests (req_id, op, first-issue instant).
    outstanding: VecDeque<(u64, Pending, Instant)>,
    /// Writes awaiting (re)send, in issue order.
    resend: VecDeque<(u64, u32)>,
    reconnect_attempt: u32,
    /// Whether a connection has ever been established: any later
    /// successful connect is a reconnect, even one that needed no
    /// backoff (a fast drain–restart cycle).
    connected_before: bool,
}

fn conn_phase(cfg: &LoadConfig, conn_id: usize) -> LoadReport {
    let started = Instant::now();
    let deadline = started + cfg.wall_deadline;
    let mut rng = Mix(splitmix64(cfg.seed ^ conn_id as u64));
    let backoff_cfg = ServeConfig::default();
    let mut rep = LoadReport::default();
    let mut st = ConnState {
        stream: None,
        reader: FrameReader::new(),
        scratch: Vec::with_capacity(64),
        next_req_id: 1,
        outstanding: VecDeque::new(),
        resend: VecDeque::new(),
        reconnect_attempt: 0,
        connected_before: false,
    };
    let owned = |r: &mut Mix| {
        let n = cfg.conns as u64;
        let la = r.below(cfg.lines / n.max(1)) * n + conn_id as u64;
        la.min(cfg.lines - 1)
    };
    let mut issued = 0usize;
    let mut seq: u32 = 0;
    let mut next_issue = Instant::now();

    let disconnect = |st: &mut ConnState, rep: &mut LoadReport| {
        if let Some(s) = st.stream.take() {
            s.shutdown();
        }
        st.reader = FrameReader::new();
        // Outstanding writes go back to the resend queue *in order*;
        // outstanding reads are abandoned (reads carry no audit state).
        let mut back: VecDeque<(u64, u32)> = VecDeque::new();
        while let Some((_, p, _)) = st.outstanding.pop_front() {
            match p {
                Pending::Write { la, tag } => back.push_back((la, tag)),
                Pending::Read { .. } => rep.errors += 1,
            }
        }
        while let Some(j) = back.pop_back() {
            st.resend.push_front(j);
        }
    };

    loop {
        let done_issuing = issued >= cfg.requests_per_conn;
        if done_issuing && st.outstanding.is_empty() && st.resend.is_empty() {
            break;
        }
        if Instant::now() >= deadline {
            break;
        }

        // (Re)connect with capped exponential backoff + seeded jitter.
        if st.stream.is_none() {
            match cfg.endpoint.connect(Duration::from_millis(500)) {
                Ok(s) => {
                    let _ = s.set_write_timeout(Some(Duration::from_secs(2)));
                    st.stream = Some(s);
                    if st.connected_before {
                        rep.reconnects += 1;
                    }
                    st.connected_before = true;
                    st.reconnect_attempt = 0;
                }
                Err(_) => {
                    st.reconnect_attempt = st.reconnect_attempt.saturating_add(1);
                    // The serve-crate backoff schedule, ns read as µs.
                    let us = backoff_ns(&backoff_cfg, conn_id as u64, st.reconnect_attempt)
                        .min(50_000) as u64;
                    std::thread::sleep(Duration::from_micros(us));
                    continue;
                }
            }
        }

        // Issue while the window and pacing allow.
        while st.outstanding.len() < cfg.window
            && st.stream.is_some()
            && Instant::now() >= next_issue
        {
            let job = if let Some((la, tag)) = st.resend.pop_front() {
                Pending::Write { la, tag }
            } else if !done_issuing && issued < cfg.requests_per_conn {
                issued += 1;
                rep.sent += 1;
                if rng.chance(cfg.write_ratio) {
                    seq += 1;
                    let tag =
                        ((conn_id as u32) << 24) | (cfg.tag_base.wrapping_add(seq) & 0x00FF_FFFF);
                    Pending::Write {
                        la: owned(&mut rng),
                        tag,
                    }
                } else {
                    Pending::Read {
                        la: rng.below(cfg.lines),
                    }
                }
            } else {
                break;
            };
            let req_id = st.next_req_id;
            st.next_req_id += 1;
            let req = match job {
                Pending::Read { la } => WireRequest::Read { la },
                Pending::Write { la, tag } => WireRequest::Write {
                    la,
                    data: LineData::Mixed(tag),
                },
            };
            st.scratch.clear();
            encode_request(&mut st.scratch, &RequestFrame { req_id, req });
            let stream = st.stream.as_mut().unwrap();
            if stream.write_all(&st.scratch).is_err() {
                disconnect(&mut st, &mut rep);
                break;
            }
            st.outstanding.push_back((req_id, job, Instant::now()));
            next_issue = Instant::now() + cfg.gap;
        }

        // Collect one response (short poll keeps the loop responsive).
        let Some(stream) = st.stream.as_mut() else {
            continue;
        };
        let poll = Instant::now() + Duration::from_millis(1);
        match read_response(stream, &mut st.reader, poll) {
            Ok(resp) => {
                let Some(pos) = st
                    .outstanding
                    .iter()
                    .position(|(id, _, _)| *id == resp.req_id)
                else {
                    continue; // stale or unsolicited; ignore
                };
                let (_, job, issue_t) = st.outstanding.remove(pos).unwrap();
                match (resp.resp, job) {
                    (WireResponse::WriteOk { .. }, Pending::Write { la, tag }) => {
                        rep.acked_writes += 1;
                        rep.acked.insert(la, tag);
                        rep.latencies_us
                            .push(issue_t.elapsed().as_micros().min(u64::MAX as u128) as u64);
                    }
                    (WireResponse::ReadOk { .. }, Pending::Read { .. }) => {
                        rep.ok_reads += 1;
                        rep.latencies_us
                            .push(issue_t.elapsed().as_micros().min(u64::MAX as u128) as u64);
                    }
                    (WireResponse::Err { code, .. }, job) => {
                        rep.errors += 1;
                        if let Pending::Write { la, tag } = job {
                            if code.retryable() {
                                st.resend.push_back((la, tag));
                            } else {
                                rep.unresolved.entry(la).or_default().push(tag);
                            }
                        }
                        if code == ErrCode::ShuttingDown {
                            // Server is draining; let it finish, then retry.
                            disconnect(&mut st, &mut rep);
                            std::thread::sleep(Duration::from_millis(20));
                        }
                    }
                    _ => rep.errors += 1,
                }
            }
            Err(e) if e.kind() == std::io::ErrorKind::TimedOut => {}
            Err(_) => disconnect(&mut st, &mut rep),
        }
    }

    // Whatever never got acknowledged is unresolved.
    while let Some((_, p, _)) = st.outstanding.pop_front() {
        if let Pending::Write { la, tag } = p {
            rep.unresolved.entry(la).or_default().push(tag);
        }
    }
    while let Some((la, tag)) = st.resend.pop_front() {
        rep.unresolved.entry(la).or_default().push(tag);
    }
    if let Some(s) = st.stream.take() {
        s.shutdown();
    }
    rep.elapsed = started.elapsed();
    rep
}

/// Run one load phase: `cfg.conns` threads, merged report.
pub fn run_load(cfg: &LoadConfig) -> LoadReport {
    let handles: Vec<_> = (0..cfg.conns)
        .map(|c| {
            let cfg = cfg.clone();
            std::thread::spawn(move || conn_phase(&cfg, c))
        })
        .collect();
    let mut merged = LoadReport::default();
    let mut max_elapsed = Duration::ZERO;
    for h in handles {
        if let Ok(rep) = h.join() {
            max_elapsed = max_elapsed.max(rep.elapsed);
            merged.merge(rep);
        }
    }
    merged.elapsed = max_elapsed;
    merged.latencies_us.sort_unstable();
    merged
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn report_roundtrips_through_text() {
        let mut rep = LoadReport {
            sent: 10,
            acked_writes: 6,
            ok_reads: 3,
            errors: 1,
            reconnects: 2,
            latencies_us: vec![5, 10, 20, 100],
            elapsed: Duration::from_micros(12345),
            ..LoadReport::default()
        };
        rep.acked.insert(7, 0x0100_0001);
        rep.acked.insert(9, 0x0100_0002);
        rep.unresolved.entry(9).or_default().push(0x0100_0003);
        let path = std::env::temp_dir().join(format!("srbsg_lg_{}.txt", std::process::id()));
        rep.write_to(&path).unwrap();
        let text = std::fs::read_to_string(&path).unwrap();
        let got = LoadReport::parse(&text).unwrap();
        assert_eq!(got.sent, 10);
        assert_eq!(got.acked_writes, 6);
        assert_eq!(got.acked.get(&7), Some(&0x0100_0001));
        assert_eq!(got.unresolved.get(&9).unwrap(), &vec![0x0100_0003]);
        assert_eq!(got.elapsed, Duration::from_micros(12345));
        // Counters, then addresses: no latency percentiles or rates.
        assert_eq!(
            text,
            "sent 10\nacked_writes 6\nok_reads 3\nerrors 1\nreconnects 2\nelapsed_us 12345\n\
             a 7 16777217\na 9 16777218\nu 9 16777219\n"
        );
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn mix_rng_is_deterministic_and_spread() {
        let mut a = Mix(splitmix64(42));
        let mut b = Mix(splitmix64(42));
        for _ in 0..100 {
            assert_eq!(a.next(), b.next());
        }
        let hits = (0..1000).filter(|_| a.chance(0.3)).count();
        assert!((200..400).contains(&hits), "chance(0.3) gave {hits}/1000");
    }

    /// Audit a ledger against a device holding `held` at every address.
    fn audit_holding(ledger: &AckLedger, held: LineData) -> (u64, u64) {
        ledger.audit(|_| held)
    }

    #[test]
    fn the_last_ack_wins() {
        let mut l = AckLedger::default();
        l.ack(7, LineData::Mixed(1), 0);
        l.ack(7, LineData::Mixed(2), 0);
        assert_eq!(audit_holding(&l, LineData::Mixed(2)), (1, 0));
        assert_eq!(audit_holding(&l, LineData::Mixed(1)), (1, 1));
    }

    #[test]
    fn forget_drops_an_address_until_its_next_ack() {
        let mut l = AckLedger::default();
        l.ack(7, LineData::Mixed(1), 0);
        l.forget(7);
        assert_eq!(audit_holding(&l, LineData::Mixed(9)), (0, 0));
        l.ack(7, LineData::Mixed(3), 0);
        assert_eq!(audit_holding(&l, LineData::Mixed(3)), (1, 0));
        assert_eq!(audit_holding(&l, LineData::Mixed(1)), (1, 1));
    }

    #[test]
    fn a_rejection_forgets_the_ack_only_if_it_touched_the_device() {
        use srbsg_pcm::PcmError;
        let (acked, rejected) = (LineData::Mixed(1), LineData::Mixed(2));
        let cases = [
            (Rejected::QueueFull { bank: 0, depth: 4 }, false),
            (
                Rejected::DeadlineExceeded {
                    bank: 0,
                    deadline_ns: 10,
                    ready_ns: 20,
                    attempts: 0,
                },
                false,
            ),
            (
                Rejected::DeadlineExceeded {
                    bank: 0,
                    deadline_ns: 10,
                    ready_ns: 20,
                    attempts: 2,
                },
                true,
            ),
            (Rejected::BankQuarantined { bank: 0 }, false),
            (
                Rejected::RetriesExhausted {
                    bank: 0,
                    attempts: 4,
                },
                true,
            ),
            (Rejected::ReadOnly, false),
            (
                Rejected::Fault(PcmError::AddressOutOfRange { la: 7, lines: 4 }),
                false,
            ),
        ];
        let served = Served {
            bank: 0,
            latency_ns: 5,
            retries: 0,
            data: None,
        };
        for (rej, touched) in cases {
            let mut l = AckLedger::default();
            l.settle(7, acked, &Ok(served));
            l.settle(7, rejected, &Err(rej));
            if touched {
                // The line may hold the rejected value: not a lost ack.
                assert_eq!(audit_holding(&l, rejected), (0, 0), "{rej:?}");
            } else {
                // Never reached the device: the ack still stands.
                assert_eq!(audit_holding(&l, acked), (1, 0), "{rej:?}");
                assert_eq!(audit_holding(&l, rejected), (1, 1), "{rej:?}");
            }
        }
    }

    #[test]
    fn an_unresolved_value_counts_from_the_acks_phase_on() {
        let mut l = AckLedger::default();
        l.ack(7, LineData::Mixed(1), 1);
        l.unresolved(7, LineData::Mixed(10), 0);
        l.unresolved(7, LineData::Mixed(11), 1);
        l.unresolved(7, LineData::Mixed(12), 2);
        // Another address's in-flight write does not cover this one.
        l.unresolved(8, LineData::Mixed(13), 2);
        assert_eq!(audit_holding(&l, LineData::Mixed(11)), (1, 0));
        assert_eq!(audit_holding(&l, LineData::Mixed(12)), (1, 0));
        assert_eq!(audit_holding(&l, LineData::Mixed(10)), (1, 1));
        assert_eq!(audit_holding(&l, LineData::Mixed(13)), (1, 1));
    }

    #[test]
    fn an_untagged_line_is_lost() {
        let mut l = AckLedger::default();
        l.ack(7, LineData::Mixed(1), 0);
        l.unresolved(7, LineData::Mixed(2), 0);
        assert_eq!(audit_holding(&l, LineData::Zeros), (1, 1));
    }
}
