//! The wire protocol: small length-prefixed binary frames with an
//! end-to-end checksum, and a defensive streaming decoder.
//!
//! ```text
//! frame := len:u32 LE | body            (len = body length, <= MAX_BODY)
//! body  := ver:u8 | opcode:u8 | req_id:u64 LE | payload | crc64:u64 LE
//! ```
//!
//! The CRC-64 (the same CRC the persistence layer frames its journal
//! with) covers every body byte before it, so a bit flip anywhere in the
//! body — including one that corrupts the opcode or the request id — is
//! detected before any field is acted on. The length prefix is validated
//! against [`MAX_BODY`] *before* any buffering decision, so a hostile
//! `0xFFFF_FFFF` length cannot make the server reserve memory or stall
//! reading a frame that will never arrive.
//!
//! Every way an input can be malformed maps to a typed [`FrameError`];
//! decoding never panics and never consumes bytes past a frame it
//! rejected (the connection is closed instead, so a corrupted frame can
//! never cause a following valid frame to be mis-framed).

use srbsg_pcm::LineData;
use srbsg_persist::{crc64, decode_line_data, encode_line_data, Dec, Enc, PersistError};

/// Protocol version byte this build speaks.
pub const PROTO_VERSION: u8 = 1;

/// Largest admissible body. Requests and responses are tiny; anything
/// larger is hostile or corrupt and is rejected from the length prefix
/// alone.
pub const MAX_BODY: u32 = 256;

/// Smallest possible body: version, opcode, request id, checksum.
pub const MIN_BODY: u32 = 1 + 1 + 8 + 8;

/// Request opcodes (client → server).
const OP_READ: u8 = 0x01;
const OP_WRITE: u8 = 0x02;
const OP_PING: u8 = 0x03;
const OP_STATS: u8 = 0x04;

/// Response opcodes (server → client).
const OP_READ_OK: u8 = 0x81;
const OP_WRITE_OK: u8 = 0x82;
const OP_PONG: u8 = 0x83;
const OP_STATS_OK: u8 = 0x84;
const OP_ERR: u8 = 0xEE;

/// Why an incoming byte string was rejected — the typed surface every
/// malformed input lands on. The receiver answers with a
/// [`ErrCode::BadFrame`] response where framing still permits and then
/// closes the connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameError {
    /// The length prefix announces a body larger than [`MAX_BODY`].
    TooLarge {
        /// The announced body length.
        len: u32,
    },
    /// The length prefix announces a body smaller than [`MIN_BODY`].
    TooSmall {
        /// The announced body length.
        len: u32,
    },
    /// The version byte is not [`PROTO_VERSION`].
    BadVersion(u8),
    /// The opcode is not one this receiver accepts (a server rejects
    /// response opcodes, a client rejects request opcodes).
    BadOpcode(u8),
    /// The checksum over the body does not match — a bit flip somewhere
    /// between encoder and decoder.
    BadCrc,
    /// The body is structurally wrong for its opcode: a truncated or
    /// overlong payload, or a field that fails validation.
    Malformed(&'static str),
}

impl core::fmt::Display for FrameError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            FrameError::TooLarge { len } => {
                write!(f, "frame body length {len} exceeds the {MAX_BODY}-byte cap")
            }
            FrameError::TooSmall { len } => {
                write!(
                    f,
                    "frame body length {len} below the {MIN_BODY}-byte minimum"
                )
            }
            FrameError::BadVersion(v) => write!(f, "unsupported protocol version {v}"),
            FrameError::BadOpcode(op) => write!(f, "unknown opcode {op:#04x}"),
            FrameError::BadCrc => write!(f, "frame checksum mismatch"),
            FrameError::Malformed(what) => write!(f, "malformed frame: {what}"),
        }
    }
}

impl std::error::Error for FrameError {}

fn structural(e: PersistError) -> FrameError {
    match e {
        PersistError::Truncated => FrameError::Malformed("payload truncated"),
        PersistError::Corrupt(what) => FrameError::Malformed(what),
        PersistError::PowerLost => FrameError::Malformed("impossible decode error"),
    }
}

/// Typed rejection and failure codes carried by error responses. The
/// first five mirror the serving front-end's [`srbsg_serve::Rejected`]
/// variants; the rest are conditions only the network layer can produce.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub enum ErrCode {
    /// The addressed bank's bounded queue was full (backpressure).
    QueueFull = 1,
    /// The request's deadline passed before or during service.
    DeadlineExceeded = 2,
    /// The addressed bank is quarantined and rejects writes.
    BankQuarantined = 3,
    /// The write retry budget ran out without a verified write.
    RetriesExhausted = 4,
    /// A non-transient device fault.
    DeviceFault = 5,
    /// The logical address is outside the device.
    AddressOutOfRange = 6,
    /// The server's connection limit was reached; try later.
    Overloaded = 7,
    /// The server is draining for shutdown and accepts no new work.
    ShuttingDown = 8,
    /// The request frame was malformed; the connection closes after this
    /// response.
    BadFrame = 9,
    /// The server is in read-only degradation (durable storage out of
    /// space): writes are shed before touching the device, reads serve.
    ReadOnly = 10,
}

impl TryFrom<u8> for ErrCode {
    type Error = FrameError;
    fn try_from(v: u8) -> Result<Self, FrameError> {
        Ok(match v {
            1 => ErrCode::QueueFull,
            2 => ErrCode::DeadlineExceeded,
            3 => ErrCode::BankQuarantined,
            4 => ErrCode::RetriesExhausted,
            5 => ErrCode::DeviceFault,
            6 => ErrCode::AddressOutOfRange,
            7 => ErrCode::Overloaded,
            8 => ErrCode::ShuttingDown,
            9 => ErrCode::BadFrame,
            10 => ErrCode::ReadOnly,
            _ => return Err(FrameError::Malformed("unknown error code")),
        })
    }
}

impl ErrCode {
    /// Whether a client should retry the request (after backoff): the
    /// condition is transient on the server side.
    pub fn retryable(self) -> bool {
        matches!(
            self,
            ErrCode::QueueFull
                | ErrCode::DeadlineExceeded
                | ErrCode::RetriesExhausted
                | ErrCode::Overloaded
                | ErrCode::ShuttingDown
        )
    }
}

/// One client request, payload only (the id travels in [`RequestFrame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireRequest {
    /// Read the line at `la`.
    Read {
        /// System logical address.
        la: u64,
    },
    /// Write `data` to the line at `la`; acknowledged only once durable.
    Write {
        /// System logical address.
        la: u64,
        /// The line contents.
        data: LineData,
    },
    /// Liveness probe; answered without touching the device.
    Ping,
    /// Server counter snapshot ([`StatsWire`]).
    Stats,
}

/// A decoded request frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RequestFrame {
    /// Client-chosen request id, echoed verbatim in the response.
    pub req_id: u64,
    /// The request.
    pub req: WireRequest,
}

/// Server counters exposed over the wire (the `Stats` opcode). All
/// counters are for the current power session (they restart at zero on a
/// server restart, except `generation` which counts restarts). The
/// request counters are the front-end's [`srbsg_serve::ServeStats`]; the
/// connection counters are the server's own.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct StatsWire {
    /// Restart generation: 0 for a fresh store, +1 per recovery.
    pub generation: u64,
    /// Connections accepted this session.
    pub accepted_conns: u64,
    /// Connections currently open.
    pub open_conns: u64,
    /// Reads served.
    pub served_reads: u64,
    /// Writes acknowledged (durable).
    pub served_writes: u64,
    /// Front-end write re-issues, every one: those of writes that
    /// verified and those of writes that ran out of retries or deadline
    /// ([`srbsg_serve::ServeStats::retries`]).
    pub retries: u64,
    /// Requests shed with [`ErrCode::QueueFull`].
    pub shed_queue_full: u64,
    /// Requests shed with [`ErrCode::DeadlineExceeded`].
    pub shed_deadline: u64,
    /// Writes shed with [`ErrCode::BankQuarantined`].
    pub shed_quarantine: u64,
    /// Writes shed with [`ErrCode::RetriesExhausted`].
    pub shed_retries: u64,
    /// Requests failed with [`ErrCode::DeviceFault`], or refused with
    /// [`ErrCode::AddressOutOfRange`] by the front-end's admission check.
    pub shed_fault: u64,
    /// Connections refused with [`ErrCode::Overloaded`] at the
    /// connection cap.
    pub shed_overload: u64,
    /// Writes shed with [`ErrCode::ReadOnly`] (storage-space
    /// degradation): those refused at admission and those whose ack a
    /// commit refused for space.
    pub shed_read_only: u64,
    /// Malformed frames received (each closed its connection).
    pub malformed_frames: u64,
    /// 1 while the server is draining for shutdown.
    pub draining: u64,
}

impl StatsWire {
    const FIELDS: usize = 15;

    fn encode(&self, enc: &mut Enc) {
        for v in [
            self.generation,
            self.accepted_conns,
            self.open_conns,
            self.served_reads,
            self.served_writes,
            self.retries,
            self.shed_queue_full,
            self.shed_deadline,
            self.shed_quarantine,
            self.shed_retries,
            self.shed_fault,
            self.shed_overload,
            self.shed_read_only,
            self.malformed_frames,
            self.draining,
        ] {
            enc.u64(v);
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, PersistError> {
        let mut v = [0u64; Self::FIELDS];
        for slot in &mut v {
            *slot = dec.u64()?;
        }
        Ok(Self {
            generation: v[0],
            accepted_conns: v[1],
            open_conns: v[2],
            served_reads: v[3],
            served_writes: v[4],
            retries: v[5],
            shed_queue_full: v[6],
            shed_deadline: v[7],
            shed_quarantine: v[8],
            shed_retries: v[9],
            shed_fault: v[10],
            shed_overload: v[11],
            shed_read_only: v[12],
            malformed_frames: v[13],
            draining: v[14],
        })
    }
}

/// One server response, payload only (the id travels in
/// [`ResponseFrame`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WireResponse {
    /// The read data and its simulated device latency.
    ReadOk {
        /// Line contents.
        data: LineData,
        /// Simulated service latency (low 64 bits).
        latency_ns: u64,
    },
    /// The write is verified **and durable**; it will survive any crash.
    WriteOk {
        /// Front-end re-issues the write needed.
        retries: u32,
        /// Simulated service latency (low 64 bits).
        latency_ns: u64,
    },
    /// Liveness answer.
    Pong,
    /// Counter snapshot.
    StatsOk(StatsWire),
    /// The request was rejected or failed; `code` says why.
    Err {
        /// The typed rejection.
        code: ErrCode,
        /// Code-specific detail (bank index, offending address, or 0).
        aux: u64,
    },
}

/// A decoded response frame.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ResponseFrame {
    /// The request id this responds to.
    pub req_id: u64,
    /// The response.
    pub resp: WireResponse,
}

fn seal(buf: &mut Vec<u8>, enc: Enc) {
    let mut body = enc.into_bytes();
    let crc = crc64(&body);
    body.extend_from_slice(&crc.to_le_bytes());
    debug_assert!(body.len() as u32 >= MIN_BODY && body.len() as u32 <= MAX_BODY);
    buf.extend_from_slice(&(body.len() as u32).to_le_bytes());
    buf.extend_from_slice(&body);
}

fn open_body(body: &[u8], expect_response: bool) -> Result<(u8, u64, Dec<'_>), FrameError> {
    if (body.len() as u32) < MIN_BODY {
        return Err(FrameError::TooSmall {
            len: body.len() as u32,
        });
    }
    let (payload, crc_bytes) = body.split_at(body.len() - 8);
    let stored = u64::from_le_bytes(crc_bytes.try_into().unwrap());
    if crc64(payload) != stored {
        return Err(FrameError::BadCrc);
    }
    let mut dec = Dec::new(payload);
    let ver = dec.u8().map_err(structural)?;
    if ver != PROTO_VERSION {
        return Err(FrameError::BadVersion(ver));
    }
    let op = dec.u8().map_err(structural)?;
    let is_response = op & 0x80 != 0 || op == OP_ERR;
    if is_response != expect_response {
        return Err(FrameError::BadOpcode(op));
    }
    let req_id = dec.u64().map_err(structural)?;
    Ok((op, req_id, dec))
}

/// Append one encoded request frame (length prefix included) to `buf`.
/// `buf` is a caller-owned scratch buffer: clear and reuse it across
/// requests to keep the send path allocation-free.
pub fn encode_request(buf: &mut Vec<u8>, frame: &RequestFrame) {
    let mut enc = Enc::new();
    enc.u8(PROTO_VERSION);
    match frame.req {
        WireRequest::Read { la } => {
            enc.u8(OP_READ);
            enc.u64(frame.req_id);
            enc.u64(la);
        }
        WireRequest::Write { la, data } => {
            enc.u8(OP_WRITE);
            enc.u64(frame.req_id);
            enc.u64(la);
            encode_line_data(&mut enc, data);
        }
        WireRequest::Ping => {
            enc.u8(OP_PING);
            enc.u64(frame.req_id);
        }
        WireRequest::Stats => {
            enc.u8(OP_STATS);
            enc.u64(frame.req_id);
        }
    }
    seal(buf, enc);
}

/// Append one encoded response frame (length prefix included) to `buf`.
/// The body is encoded straight into `buf` behind a placeholder length
/// that is patched once the body is sealed, so a reused `buf` makes the
/// reply path allocation-free.
pub fn encode_response(buf: &mut Vec<u8>, frame: &ResponseFrame) {
    let start = buf.len();
    buf.extend_from_slice(&[0; 4]);
    let mut enc = Enc::from_vec(std::mem::take(buf));
    enc.u8(PROTO_VERSION);
    match frame.resp {
        WireResponse::ReadOk { data, latency_ns } => {
            enc.u8(OP_READ_OK);
            enc.u64(frame.req_id);
            encode_line_data(&mut enc, data);
            enc.u64(latency_ns);
        }
        WireResponse::WriteOk {
            retries,
            latency_ns,
        } => {
            enc.u8(OP_WRITE_OK);
            enc.u64(frame.req_id);
            enc.u32(retries);
            enc.u64(latency_ns);
        }
        WireResponse::Pong => {
            enc.u8(OP_PONG);
            enc.u64(frame.req_id);
        }
        WireResponse::StatsOk(stats) => {
            enc.u8(OP_STATS_OK);
            enc.u64(frame.req_id);
            stats.encode(&mut enc);
        }
        WireResponse::Err { code, aux } => {
            enc.u8(OP_ERR);
            enc.u64(frame.req_id);
            enc.u8(code as u8);
            enc.u64(aux);
        }
    }
    *buf = enc.into_bytes();
    let crc = crc64(&buf[start + 4..]);
    buf.extend_from_slice(&crc.to_le_bytes());
    let len = (buf.len() - start - 4) as u32;
    debug_assert!((MIN_BODY..=MAX_BODY).contains(&len));
    buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
}

/// Decode one complete request body (the bytes after the length prefix).
pub fn decode_request(body: &[u8]) -> Result<RequestFrame, FrameError> {
    let (op, req_id, mut dec) = open_body(body, false)?;
    let req = match op {
        OP_READ => WireRequest::Read {
            la: dec.u64().map_err(structural)?,
        },
        OP_WRITE => {
            let la = dec.u64().map_err(structural)?;
            let data = decode_line_data(&mut dec).map_err(structural)?;
            WireRequest::Write { la, data }
        }
        OP_PING => WireRequest::Ping,
        OP_STATS => WireRequest::Stats,
        other => return Err(FrameError::BadOpcode(other)),
    };
    dec.finish().map_err(structural)?;
    Ok(RequestFrame { req_id, req })
}

/// Decode one complete response body (the bytes after the length prefix).
pub fn decode_response(body: &[u8]) -> Result<ResponseFrame, FrameError> {
    let (op, req_id, mut dec) = open_body(body, true)?;
    let resp = match op {
        OP_READ_OK => {
            let data = decode_line_data(&mut dec).map_err(structural)?;
            WireResponse::ReadOk {
                data,
                latency_ns: dec.u64().map_err(structural)?,
            }
        }
        OP_WRITE_OK => WireResponse::WriteOk {
            retries: dec.u32().map_err(structural)?,
            latency_ns: dec.u64().map_err(structural)?,
        },
        OP_PONG => WireResponse::Pong,
        OP_STATS_OK => WireResponse::StatsOk(StatsWire::decode(&mut dec).map_err(structural)?),
        OP_ERR => {
            let code = ErrCode::try_from(dec.u8().map_err(structural)?)?;
            WireResponse::Err {
                code,
                aux: dec.u64().map_err(structural)?,
            }
        }
        other => return Err(FrameError::BadOpcode(other)),
    };
    dec.finish().map_err(structural)?;
    Ok(ResponseFrame { req_id, resp })
}

/// Streaming frame assembler with a reusable internal buffer — the only
/// buffer a connection ever reads into, so the steady-state receive path
/// allocates nothing per request.
///
/// Feed it raw bytes ([`FrameReader::extend`] or
/// [`FrameReader::fill_from`]) and poll for complete frames. Every
/// rejection is a typed [`FrameError`]; after an error the caller must
/// discard the reader (and close the connection) — partial input is
/// never resynchronized, which is what guarantees a corrupt frame cannot
/// mis-frame a valid one behind it.
#[derive(Debug, Default)]
pub struct FrameReader {
    buf: Vec<u8>,
}

impl FrameReader {
    /// A fresh reader with a steady-state buffer preallocated.
    pub fn new() -> Self {
        Self {
            buf: Vec::with_capacity(4 + MAX_BODY as usize),
        }
    }

    /// Append raw bytes from the transport.
    pub fn extend(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    /// Read once from `r` into the internal buffer, returning the byte
    /// count (0 = clean EOF).
    pub fn fill_from<R: std::io::Read>(&mut self, r: &mut R) -> std::io::Result<usize> {
        let mut chunk = [0u8; 4096];
        let n = r.read(&mut chunk)?;
        self.buf.extend_from_slice(&chunk[..n]);
        Ok(n)
    }

    /// Whether a frame is partially buffered — the receiver is mid-frame,
    /// which is the state the slow-loris frame deadline applies to.
    pub fn mid_frame(&self) -> bool {
        !self.buf.is_empty()
    }

    /// Validate the buffered length prefix and return the body range if a
    /// complete frame is buffered.
    fn pending_body(&self) -> Result<Option<std::ops::Range<usize>>, FrameError> {
        if self.buf.len() < 4 {
            return Ok(None);
        }
        let len = u32::from_le_bytes(self.buf[..4].try_into().unwrap());
        if len > MAX_BODY {
            return Err(FrameError::TooLarge { len });
        }
        if len < MIN_BODY {
            return Err(FrameError::TooSmall { len });
        }
        let end = 4 + len as usize;
        if self.buf.len() < end {
            return Ok(None);
        }
        Ok(Some(4..end))
    }

    fn consume(&mut self, end: usize) {
        // Minimal copy_within: shift the (typically empty or tiny) tail
        // of pipelined bytes to the front instead of reallocating.
        self.buf.copy_within(end.., 0);
        self.buf.truncate(self.buf.len() - end);
    }

    /// Next complete frame decoded as a request, if one is buffered.
    pub fn next_request(&mut self) -> Result<Option<RequestFrame>, FrameError> {
        match self.pending_body()? {
            None => Ok(None),
            Some(range) => {
                let res = decode_request(&self.buf[range.clone()]);
                if res.is_ok() {
                    self.consume(range.end);
                }
                res.map(Some)
            }
        }
    }

    /// Next complete frame decoded as a response, if one is buffered.
    pub fn next_response(&mut self) -> Result<Option<ResponseFrame>, FrameError> {
        match self.pending_body()? {
            None => Ok(None),
            Some(range) => {
                let res = decode_response(&self.buf[range.clone()]);
                if res.is_ok() {
                    self.consume(range.end);
                }
                res.map(Some)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_requests() -> Vec<RequestFrame> {
        vec![
            RequestFrame {
                req_id: 0,
                req: WireRequest::Read { la: 0 },
            },
            RequestFrame {
                req_id: u64::MAX,
                req: WireRequest::Write {
                    la: 12345,
                    data: LineData::Mixed(0xDEAD_BEEF),
                },
            },
            RequestFrame {
                req_id: 7,
                req: WireRequest::Ping,
            },
            RequestFrame {
                req_id: 8,
                req: WireRequest::Stats,
            },
        ]
    }

    fn sample_responses() -> Vec<ResponseFrame> {
        vec![
            ResponseFrame {
                req_id: 1,
                resp: WireResponse::ReadOk {
                    data: LineData::Ones,
                    latency_ns: 125,
                },
            },
            ResponseFrame {
                req_id: 2,
                resp: WireResponse::WriteOk {
                    retries: 3,
                    latency_ns: 1000,
                },
            },
            ResponseFrame {
                req_id: 3,
                resp: WireResponse::Pong,
            },
            ResponseFrame {
                req_id: 4,
                resp: WireResponse::StatsOk(StatsWire {
                    generation: 2,
                    served_writes: 99,
                    draining: 1,
                    ..StatsWire::default()
                }),
            },
            ResponseFrame {
                req_id: 5,
                resp: WireResponse::Err {
                    code: ErrCode::QueueFull,
                    aux: 3,
                },
            },
        ]
    }

    #[test]
    fn request_roundtrip() {
        for frame in sample_requests() {
            let mut buf = Vec::new();
            encode_request(&mut buf, &frame);
            let mut r = FrameReader::new();
            r.extend(&buf);
            assert_eq!(r.next_request().unwrap(), Some(frame));
            assert!(!r.mid_frame());
        }
    }

    #[test]
    fn response_roundtrip() {
        for frame in sample_responses() {
            let mut buf = Vec::new();
            encode_response(&mut buf, &frame);
            let mut r = FrameReader::new();
            r.extend(&buf);
            assert_eq!(r.next_response().unwrap(), Some(frame));
        }
    }

    /// Frames as the original encoder (a fresh `Enc` per frame, then
    /// copied into the caller's buffer) produced them, one per
    /// `WireResponse` variant and one per `LineData` kind.
    #[test]
    fn every_response_variant_encodes_to_its_golden_bytes() {
        let stats = StatsWire {
            generation: 1,
            accepted_conns: 2,
            open_conns: 3,
            served_reads: 4,
            served_writes: 5,
            retries: 6,
            shed_queue_full: 7,
            shed_deadline: 8,
            shed_quarantine: 9,
            shed_retries: 10,
            shed_fault: 11,
            shed_overload: 12,
            shed_read_only: 13,
            malformed_frames: 14,
            draining: 15,
        };
        let read_ok = |data, latency_ns| WireResponse::ReadOk { data, latency_ns };
        let golden: [(u64, WireResponse, &str); 7] = [
            (
                0x0102_0304_0506_0708,
                read_ok(LineData::Zeros, 125),
                "1f0000000181080706050403020100000000007d0000000000000094dfa63a02721a6f",
            ),
            (
                2,
                read_ok(LineData::Ones, u64::MAX),
                "1f000000018102000000000000000100000000ffffffffffffffff751c09315662f9f4",
            ),
            (
                3,
                read_ok(LineData::Mixed(0xDEAD_BEEF), 0),
                "1f0000000181030000000000000002efbeadde00000000000000007aeaaa91760eb88c",
            ),
            (
                4,
                WireResponse::WriteOk {
                    retries: 3,
                    latency_ns: 1000,
                },
                "1e0000000182040000000000000003000000e803000000000000eabbeac619d10052",
            ),
            (
                5,
                WireResponse::Pong,
                "1200000001830500000000000000c8a601b36f41fdfa",
            ),
            (
                6,
                WireResponse::StatsOk(stats),
                "8a000000018406000000000000000100000000000000020000000000000003000000\
                 000000000400000000000000050000000000000006000000000000000700000000000000\
                 080000000000000009000000000000000a000000000000000b000000000000000c000000\
                 000000000d000000000000000e000000000000000f000000000000004536a66fc127b402",
            ),
            (
                7,
                WireResponse::Err {
                    code: ErrCode::ReadOnly,
                    aux: 0xABCD,
                },
                "1b00000001ee07000000000000000acdab00000000000019c2224704043129",
            ),
        ];
        // Appending to a non-empty buffer must leave its prefix alone.
        let mut all = vec![0xAA];
        let mut want_all = vec![0xAA];
        for (req_id, resp, hex) in golden {
            let want: Vec<u8> = (0..hex.len())
                .step_by(2)
                .map(|i| u8::from_str_radix(&hex[i..i + 2], 16).unwrap())
                .collect();
            let frame = ResponseFrame { req_id, resp };
            let mut buf = Vec::new();
            encode_response(&mut buf, &frame);
            assert_eq!(buf, want, "{frame:?}");
            encode_response(&mut all, &frame);
            want_all.extend_from_slice(&want);
        }
        assert_eq!(all, want_all);
    }

    #[test]
    fn pipelined_frames_decode_in_order() {
        let frames = sample_requests();
        let mut buf = Vec::new();
        for f in &frames {
            encode_request(&mut buf, f);
        }
        let mut r = FrameReader::new();
        // Feed byte-by-byte: fragmentation must not change the result.
        for &b in &buf {
            r.extend(&[b]);
        }
        for f in &frames {
            assert_eq!(r.next_request().unwrap(), Some(*f));
        }
        assert_eq!(r.next_request().unwrap(), None);
    }

    #[test]
    fn oversized_length_prefix_is_rejected_before_buffering() {
        let mut r = FrameReader::new();
        r.extend(&u32::MAX.to_le_bytes());
        assert_eq!(
            r.next_request(),
            Err(FrameError::TooLarge { len: u32::MAX })
        );
    }

    #[test]
    fn undersized_length_prefix_is_rejected() {
        let mut r = FrameReader::new();
        r.extend(&1u32.to_le_bytes());
        assert_eq!(r.next_request(), Err(FrameError::TooSmall { len: 1 }));
    }

    #[test]
    fn truncated_frame_is_incomplete_not_an_error() {
        let mut buf = Vec::new();
        encode_request(
            &mut buf,
            &RequestFrame {
                req_id: 9,
                req: WireRequest::Read { la: 42 },
            },
        );
        for cut in 0..buf.len() {
            let mut r = FrameReader::new();
            r.extend(&buf[..cut]);
            assert_eq!(r.next_request().unwrap(), None, "cut={cut}");
            assert_eq!(r.mid_frame(), cut > 0);
        }
    }

    #[test]
    fn every_single_bit_flip_is_a_typed_error_or_detected() {
        let frame = RequestFrame {
            req_id: 77,
            req: WireRequest::Write {
                la: 1234,
                data: LineData::Mixed(42),
            },
        };
        let mut buf = Vec::new();
        encode_request(&mut buf, &frame);
        for byte in 0..buf.len() {
            for bit in 0..8 {
                let mut bad = buf.clone();
                bad[byte] ^= 1 << bit;
                let mut r = FrameReader::new();
                r.extend(&bad);
                match r.next_request() {
                    Err(_) => {}
                    Ok(None) => {
                        // A flip in the length prefix may announce a longer
                        // (but still plausible) frame: the reader waits for
                        // bytes that never come and the frame deadline
                        // closes the connection. Never a wrong decode.
                        assert!(byte < 4, "byte {byte} bit {bit} swallowed");
                    }
                    Ok(Some(got)) => {
                        panic!("byte {byte} bit {bit} decoded as {got:?}")
                    }
                }
            }
        }
    }

    #[test]
    fn wrong_direction_opcode_is_rejected() {
        let mut buf = Vec::new();
        encode_response(
            &mut buf,
            &ResponseFrame {
                req_id: 1,
                resp: WireResponse::Pong,
            },
        );
        let mut r = FrameReader::new();
        r.extend(&buf);
        assert!(matches!(r.next_request(), Err(FrameError::BadOpcode(_))));
    }
}
