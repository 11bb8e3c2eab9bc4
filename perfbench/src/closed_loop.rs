//! The benchmark's own closed-loop client, built only on the public
//! `srbsg_server::{proto, client}` API so that edits to `srbsg-loadgen`
//! cannot move the benchmark's clock.
//!
//! One connection, `window` requests per round: the client writes a
//! round's frames in one `write`, waits until every one is answered, then
//! sends the next round. A round therefore reaches the server's engine as
//! one batch, so every run sees the same batching. (Refilling the window
//! reply by reply instead lets the engine settle into either full batches
//! or alternating small and large ones, depending on thread timing at the
//! start of a run, so the acks per save, and with them the cost of an
//! ack, would follow scheduling luck.) Latency runs from the moment a
//! round's bytes are written to the moment each response frame is
//! decoded.

use std::collections::VecDeque;
use std::io::{self, Write};
use std::time::{Duration, Instant};

use srbsg_parallel::splitmix64;
use srbsg_pcm::LineData;
use srbsg_server::client::read_response;
use srbsg_server::{
    encode_request, Endpoint, FrameReader, RequestFrame, WireRequest, WireResponse,
};

/// Per-response timeout; a reply slower than this fails the run.
const REPLY_TIMEOUT: Duration = Duration::from_secs(30);

/// Seeded line addresses, each distinct from the previous `spacing`, so a
/// closed loop of that window never has two writes to one line in flight
/// and "the last acked tag" of a line is well defined.
#[derive(Debug, Clone)]
pub struct AddrStream {
    state: u64,
    lines: u64,
    spacing: usize,
    recent: VecDeque<u64>,
}

impl AddrStream {
    /// A stream over `[0, lines)` seeded by `seed`.
    pub fn new(seed: u64, lines: u64, spacing: usize) -> Self {
        assert!(
            lines as usize > spacing,
            "address space smaller than the window"
        );
        Self {
            state: splitmix64(seed ^ 0xADD2_E55E),
            lines,
            spacing,
            recent: VecDeque::with_capacity(spacing + 1),
        }
    }
}

impl Iterator for AddrStream {
    type Item = u64;

    fn next(&mut self) -> Option<u64> {
        loop {
            self.state = splitmix64(self.state);
            let la = self.state % self.lines;
            if !self.recent.contains(&la) {
                self.recent.push_back(la);
                if self.recent.len() > self.spacing {
                    self.recent.pop_front();
                }
                return Some(la);
            }
        }
    }
}

/// The tag written by the `i`-th write of a run (never `Zeros`).
pub fn tag(i: u64) -> LineData {
    LineData::Mixed(i as u32 + 1)
}

/// What a closed-loop phase measured.
#[derive(Debug, Default)]
pub struct Phase {
    /// Send-to-reply latency of every answered request, nanoseconds.
    pub lat_ns: Vec<u64>,
    /// Requests whose reply was a success and passed its check.
    pub ok: u64,
    /// Requests answered with an error or a wrong value.
    pub failed: u64,
    /// Wall time from the first send to the last reply.
    pub elapsed: Duration,
}

/// Run a closed loop on `ep` in rounds of `window` requests. `next(i)`
/// yields the `i`-th request, or `None` to stop issuing; `check(i, req,
/// resp)` judges its reply. Issuing also stops once `stop` has passed and
/// at least `min_ops` requests were sent.
pub fn run(
    ep: &Endpoint,
    window: usize,
    stop: Instant,
    min_ops: u64,
    mut next: impl FnMut(u64) -> Option<WireRequest>,
    mut check: impl FnMut(u64, &WireRequest, &WireResponse) -> bool,
) -> io::Result<Phase> {
    let mut stream = ep.connect(REPLY_TIMEOUT)?;
    stream.set_write_timeout(Some(REPLY_TIMEOUT))?;
    let mut reader = FrameReader::new();
    let mut buf = Vec::with_capacity(64);
    // (request id, request) of the round in flight, oldest first.
    let mut inflight: VecDeque<(u64, WireRequest)> = VecDeque::with_capacity(window);
    let mut phase = Phase::default();
    let mut issued = 0u64;
    let start = Instant::now();
    'rounds: loop {
        buf.clear();
        while inflight.len() < window {
            if issued >= min_ops && Instant::now() >= stop {
                break;
            }
            let Some(req) = next(issued) else {
                break;
            };
            encode_request(
                &mut buf,
                &RequestFrame {
                    req_id: issued,
                    req,
                },
            );
            inflight.push_back((issued, req));
            issued += 1;
        }
        if inflight.is_empty() {
            break 'rounds;
        }
        stream.write_all(&buf)?;
        let sent = Instant::now();
        while !inflight.is_empty() {
            let resp = read_response(&mut stream, &mut reader, Instant::now() + REPLY_TIMEOUT)?;
            let done = Instant::now();
            let pos = inflight
                .iter()
                .position(|(id, _)| *id == resp.req_id)
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "reply to no request"))?;
            let (id, req) = inflight.remove(pos).expect("position is in range");
            phase
                .lat_ns
                .push(done.duration_since(sent).as_nanos() as u64);
            if check(id, &req, &resp.resp) {
                phase.ok += 1;
            } else {
                phase.failed += 1;
            }
        }
    }
    phase.elapsed = start.elapsed();
    stream.shutdown();
    Ok(phase)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn addr_stream_is_seeded_and_spaced() {
        let a: Vec<u64> = AddrStream::new(7, 16, 8).take(500).collect();
        let b: Vec<u64> = AddrStream::new(7, 16, 8).take(500).collect();
        assert_eq!(a, b);
        assert_ne!(a, AddrStream::new(8, 16, 8).take(500).collect::<Vec<_>>());
        for w in a.windows(9) {
            assert!(!w[..8].contains(&w[8]), "repeat inside the window: {w:?}");
        }
        assert!(a.iter().all(|&la| la < 16));
    }

    #[test]
    fn tags_are_never_zeros() {
        assert_eq!(tag(0), LineData::Mixed(1));
        assert_ne!(tag(41), LineData::Zeros);
    }
}
