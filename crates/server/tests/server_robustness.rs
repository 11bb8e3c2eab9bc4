//! Live-server hardening tests: every class of malformed input sent to a
//! *real* server process produces a typed error response (where framing
//! permits) and a clean connection close — never a server death — and the
//! slow-loris/idle timeouts and out-of-range shedding behave as
//! documented.

use std::collections::BTreeMap;
use std::io::{Read, Write};
use std::path::Path;
use std::thread;
use std::time::{Duration, Instant};

use srbsg_pcm::LineData;
use srbsg_persist::crc64;
use srbsg_server::{
    encode_request, os, Client, ErrCode, RequestFrame, ResponseFrame, WireRequest, WireResponse,
};

#[path = "common/server.rs"]
mod server;

use server::{Server, TempDir};

/// A 2-bank × 2^5-line device with short idle and mid-frame timeouts.
const FLAGS: &[&str] = &[
    "--banks",
    "2",
    "--width",
    "5",
    "--sub-regions",
    "2",
    "--idle-timeout-ms",
    "600",
    "--frame-timeout-ms",
    "400",
];

/// Boot the test device on `dir` over a Unix socket.
fn boot(dir: &Path) -> Server {
    Server::uds(dir, FLAGS)
}

/// Send raw bytes, expect a `BadFrame` error response and then EOF.
fn expect_bad_frame_then_close(server: &Server, bytes: &[u8], what: &str) {
    let mut c = server.client();
    c.send_raw(bytes).expect("send");
    match c.recv() {
        Ok(resp) => {
            assert!(
                matches!(
                    resp.resp,
                    WireResponse::Err {
                        code: ErrCode::BadFrame,
                        ..
                    }
                ),
                "{what}: expected BadFrame, got {resp:?}"
            );
            // And then a clean close.
            let err = c.recv().expect_err("connection must close after BadFrame");
            assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof, "{what}");
        }
        // A close without the error frame is acceptable only if the
        // transport ate the write; the server must still be alive.
        Err(e) => panic!("{what}: expected a BadFrame response, got {e}"),
    }
    server.assert_alive();
}

fn valid_ping_bytes() -> Vec<u8> {
    let mut buf = Vec::new();
    encode_request(
        &mut buf,
        &RequestFrame {
            req_id: 42,
            req: WireRequest::Ping,
        },
    );
    buf
}

#[test]
fn malformed_inputs_get_typed_errors_and_never_kill_the_server() {
    // Over TCP, the other tests' Unix socket aside: the frame decoder
    // must hold on both transports.
    let dir = TempDir::new("rob_fuzz");
    let server = Server::tcp(&dir, FLAGS);

    // Class 1 — oversized length prefix: rejected from the prefix alone.
    expect_bad_frame_then_close(&server, &u32::MAX.to_le_bytes(), "oversized length");

    // Class 2 — undersized length prefix.
    expect_bad_frame_then_close(&server, &2u32.to_le_bytes(), "undersized length");

    // Class 3 — bit-flipped payload (checksum catches it).
    let mut flipped = valid_ping_bytes();
    let last = flipped.len() - 9; // inside the body, before the CRC
    flipped[last] ^= 0x10;
    expect_bad_frame_then_close(&server, &flipped, "bit flip");

    // Class 4 — unknown opcode with a *valid* checksum.
    let mut body = vec![1u8, 0x7F]; // version, bogus opcode
    body.extend_from_slice(&99u64.to_le_bytes());
    let crc = crc64(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    let mut bad_op = (body.len() as u32).to_le_bytes().to_vec();
    bad_op.extend_from_slice(&body);
    expect_bad_frame_then_close(&server, &bad_op, "bad opcode");

    // Class 5 — truncated frame then abrupt close: no response expected,
    // the server just drops the connection without dying.
    {
        let mut c = server.client();
        let ping = valid_ping_bytes();
        c.send_raw(&ping[..ping.len() - 3]).expect("send partial");
        drop(c);
        server.assert_alive();
    }

    // Malformed-frame accounting surfaced over the wire.
    let stats = server.client().stats().expect("stats");
    assert!(
        stats.malformed_frames >= 4,
        "expected ≥4 malformed frames counted, got {}",
        stats.malformed_frames
    );

    // A valid request still works after all of that.
    let mut c = server.client();
    assert!(c.write(3, srbsg_pcm::LineData::Mixed(7)).unwrap().is_ok());
    assert_eq!(c.read(3).unwrap().unwrap(), srbsg_pcm::LineData::Mixed(7));

    server.sigterm();
}

#[test]
fn slow_loris_and_idle_connections_are_closed() {
    let dir = TempDir::new("rob_loris");
    let server = boot(&dir);

    // Slow loris: dribble a frame forever — closed by the frame timeout.
    {
        let mut s = server.endpoint.connect(Duration::from_secs(2)).unwrap();
        let ping = valid_ping_bytes();
        s.write_all(&ping[..3]).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let start = Instant::now();
        let mut buf = [0u8; 64];
        // Read until EOF; the server must cut us off well before 5s.
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => panic!("expected EOF from frame timeout, got {e}"),
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "slow-loris close took {:?}",
            start.elapsed()
        );
    }

    // Idle: connect, send nothing — closed by the idle timeout.
    {
        let mut s = server.endpoint.connect(Duration::from_secs(2)).unwrap();
        s.set_read_timeout(Some(Duration::from_secs(5))).unwrap();
        let start = Instant::now();
        let mut buf = [0u8; 64];
        loop {
            match s.read(&mut buf) {
                Ok(0) => break,
                Ok(_) => {}
                Err(e) => panic!("expected EOF from idle timeout, got {e}"),
            }
        }
        assert!(
            start.elapsed() < Duration::from_secs(4),
            "idle close took {:?}",
            start.elapsed()
        );
    }

    server.assert_alive();
    server.sigterm();
}

#[test]
fn sequential_connections_are_answered_without_an_accept_delay() {
    // The accept loop blocks in poll(2) on the listener, so a new
    // connection is accepted as soon as it arrives rather than at the
    // loop's next wake-up. A loop that slept 5 ms between polls puts the
    // median round trip near 3 ms; the median, unlike a total, is not
    // moved by a few trips that other processes delayed.
    let dir = TempDir::new("rob_accept");
    let server = boot(&dir);
    server.assert_alive();
    let mut trips: Vec<Duration> = (0..40)
        .map(|_| {
            let start = Instant::now();
            let mut c = server.client();
            c.ping().expect("ping");
            let took = start.elapsed();
            c.close();
            took
        })
        .collect();
    trips.sort_unstable();
    let median = trips[trips.len() / 2];
    assert!(
        median < Duration::from_micros(1_500),
        "median connect-plus-ping round trip {median:?} (all: {trips:?})"
    );
    server.sigterm();
}

#[test]
fn out_of_range_addresses_are_typed_rejections() {
    let dir = TempDir::new("rob_oor");
    let server = boot(&dir);
    let mut c = server.client();
    match c.read(1 << 40).unwrap() {
        Err(WireResponse::Err {
            code: ErrCode::AddressOutOfRange,
            aux,
        }) => assert_eq!(aux, 1 << 40),
        other => panic!("expected AddressOutOfRange, got {other:?}"),
    }
    // The connection stays usable after a typed rejection.
    c.ping().expect("ping after rejection");
    server.sigterm();
}

/// Requests in one pipelined window.
const WINDOW: u64 = 64;

/// One window of [`WINDOW`] requests with ids `id_base..`: 30 writes of
/// `tag + la` to lines 0..30, 30 reads of lines 32..62 (never written),
/// two pings, a stats request and a read of an out-of-range address.
fn window(id_base: u64, tag: u32) -> Vec<RequestFrame> {
    let mut plain = 0;
    (0..WINDOW)
        .map(|i| {
            let req = match i {
                7 | 40 => WireRequest::Ping,
                21 => WireRequest::Stats,
                50 => WireRequest::Read { la: 1 << 40 },
                _ => {
                    plain += 1;
                    let la = (plain - 1) / 2;
                    if plain % 2 == 1 {
                        WireRequest::Write {
                            la,
                            data: LineData::Mixed(tag + la as u32),
                        }
                    } else {
                        WireRequest::Read { la: 32 + la }
                    }
                }
            };
            RequestFrame {
                req_id: id_base + i,
                req,
            }
        })
        .collect()
}

/// Send every frame of `frames` in one write.
fn send_window(c: &mut Client, frames: &[RequestFrame]) {
    let mut bytes = Vec::new();
    for f in frames {
        encode_request(&mut bytes, f);
    }
    c.send_raw(&bytes).expect("send the window");
}

/// Collect one reply per frame of a sent window, checking that each
/// request id is answered exactly once and with its request's response
/// type (or, while `draining`, a `ShuttingDown` refusal of a device
/// request). Returns the acknowledged writes as (line, data).
fn collect_window(c: &mut Client, frames: &[RequestFrame], draining: bool) -> Vec<(u64, LineData)> {
    let mut replies: BTreeMap<u64, ResponseFrame> = BTreeMap::new();
    for _ in frames {
        let r = c.recv().expect("a reply for every request");
        let id = r.req_id;
        assert!(
            replies.insert(id, r).is_none(),
            "req_id {id} answered twice"
        );
    }
    let mut acked = Vec::new();
    for f in frames {
        let r = &replies.get(&f.req_id).expect("every req_id answered").resp;
        match (&f.req, r) {
            (WireRequest::Ping, WireResponse::Pong) => {}
            (WireRequest::Stats, WireResponse::StatsOk(_)) => {}
            (WireRequest::Write { la, data }, WireResponse::WriteOk { .. }) => {
                acked.push((*la, *data));
            }
            (WireRequest::Read { la }, WireResponse::ReadOk { data, .. }) if *la < 1 << 40 => {
                assert_eq!(*data, LineData::Zeros, "line {la} is never written");
            }
            (
                WireRequest::Read { la },
                WireResponse::Err {
                    code: ErrCode::AddressOutOfRange,
                    aux,
                },
            ) => assert_eq!(aux, la),
            (
                WireRequest::Read { .. } | WireRequest::Write { .. },
                WireResponse::Err {
                    code: ErrCode::ShuttingDown,
                    ..
                },
            ) if draining => {}
            (req, resp) => panic!("req_id {}: {req:?} answered with {resp:?}", f.req_id),
        }
    }
    acked
}

#[test]
fn a_pipelined_window_gets_every_reply_and_survives_a_drain() {
    let dir = TempDir::new("rob_window");
    let server = boot(&dir);
    let mut c = server.client();
    let mut ledger: BTreeMap<u64, LineData> = BTreeMap::new();

    let frames = window(1, 100);
    send_window(&mut c, &frames);
    let acked = collect_window(&mut c, &frames, false);
    assert_eq!(acked.len(), 30, "a live server acks every write");
    ledger.extend(acked);

    // A second window with the drain racing it: every request is still
    // answered, and the connection then closes cleanly.
    let frames = window(1 + WINDOW, 200);
    send_window(&mut c, &frames);
    os::send_signal(server.pid(), os::SIGTERM).expect("SIGTERM");
    ledger.extend(collect_window(&mut c, &frames, true));
    let err = c.recv().expect_err("the drain closes the connection");
    assert_eq!(err.kind(), std::io::ErrorKind::UnexpectedEof);
    server.sigterm();

    // Every acked write survives the restart.
    let server = boot(&dir);
    let mut c = server.client();
    for (la, data) in &ledger {
        assert_eq!(c.read(*la).unwrap().unwrap(), *data, "line {la}");
    }
    server.sigterm();
}

/// Connections that pipeline at once in the concurrent tests.
const CONNS: u64 = 4;

/// Lines each concurrent connection owns (the test device has 64).
const LINES_PER_CONN: u64 = 16;

/// Window `w` of connection `conn`: 8 writes to distinct lines of the
/// connection's own range, tagged so every (conn, window, line) differs.
fn conn_window(conn: u64, w: u64) -> Vec<RequestFrame> {
    (0..8)
        .map(|i| {
            let la = conn * LINES_PER_CONN + (w * 8 + i) % LINES_PER_CONN;
            RequestFrame {
                req_id: w * 8 + i + 1,
                req: WireRequest::Write {
                    la,
                    data: LineData::Mixed(((conn << 16) | (w << 8) | i) as u32 + 1),
                },
            }
        })
        .collect()
}

#[test]
fn concurrent_pipelined_connections_get_every_reply_and_survive_a_kill() {
    const WINDOWS: u64 = 40;
    let dir = TempDir::new("rob_conns");
    let server = boot(&dir);
    let endpoint = &server.endpoint;
    let ledgers: Vec<BTreeMap<u64, LineData>> = thread::scope(|s| {
        let conns: Vec<_> = (0..CONNS)
            .map(|conn| {
                s.spawn(move || {
                    let mut c = Client::connect(endpoint, Duration::from_secs(5)).expect("connect");
                    let mut ledger = BTreeMap::new();
                    for w in 0..WINDOWS {
                        let frames = conn_window(conn, w);
                        send_window(&mut c, &frames);
                        let acked = collect_window(&mut c, &frames, false);
                        assert_eq!(acked.len(), 8, "conn {conn} window {w}: every write acked");
                        ledger.extend(acked);
                    }
                    ledger
                })
            })
            .collect();
        conns.into_iter().map(|h| h.join().unwrap()).collect()
    });

    server.sigkill();
    let server = boot(&dir);
    let mut c = server.client();
    for (la, data) in ledgers.iter().flatten() {
        assert_eq!(c.read(*la).unwrap().unwrap(), *data, "line {la}");
    }
    assert_eq!(
        ledgers.iter().map(BTreeMap::len).sum::<usize>(),
        (CONNS * LINES_PER_CONN) as usize
    );
    server.sigterm();
}

#[test]
fn a_peer_that_stops_reading_does_not_stall_another_connection() {
    const BURST: u64 = 40_000;
    let dir = TempDir::new("rob_stalled");
    let server = boot(&dir);

    // Connection A pipelines far more reads than the socket buffers can
    // hold replies for, and never reads a reply.
    let stalled = server.endpoint.connect(Duration::from_secs(5)).unwrap();
    let mut burst = Vec::new();
    for id in 0..BURST {
        encode_request(
            &mut burst,
            &RequestFrame {
                req_id: id,
                req: WireRequest::Read { la: id % 64 },
            },
        );
    }
    let mut sender = stalled.try_clone().unwrap();
    let sending = thread::spawn(move || {
        // Fails once the stream is shut down below; that is expected.
        let _ = sender.write_all(&burst);
    });

    // Wait until A's replies stop flowing: its connection thread is then
    // blocked writing to a peer that does not read.
    let mut probe = server.client();
    let mut last = u64::MAX;
    let deadline = Instant::now() + Duration::from_secs(20);
    loop {
        thread::sleep(Duration::from_millis(300));
        let served = probe.stats().unwrap().served_reads;
        if served == last {
            break;
        }
        last = served;
        assert!(Instant::now() < deadline, "A's reads never settled");
    }
    assert!(
        last > 0 && last < BURST,
        "A must be stalled mid-burst, not finished ({last} reads served)"
    );

    // Connection B's round runs to completion meanwhile.
    let mut b = server.client();
    let frames = conn_window(1, 0);
    let start = Instant::now();
    send_window(&mut b, &frames);
    assert_eq!(collect_window(&mut b, &frames, false).len(), 8);
    assert!(
        start.elapsed() < Duration::from_secs(2),
        "B's round took {:?} behind a stalled peer",
        start.elapsed()
    );
    // ...while A is still stalled, not after its write timed out and
    // closed it: A, the probe and B are all open.
    let stats = probe.stats().unwrap();
    assert_eq!((stats.open_conns, stats.served_reads), (3, last));

    stalled.shutdown();
    sending.join().unwrap();
    server.assert_alive();
    server.sigterm();
}
