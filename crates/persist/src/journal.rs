//! Write-ahead journal records and their on-"disk" framing.
//!
//! The journal is an append-only byte string living in the simulated
//! non-volatile [`crate::persistor::Store`]. Every record is framed as
//!
//! ```text
//! [len: u32] [body: len bytes] [crc64(body): u64]
//! ```
//!
//! with `body = seq u64 | kind u8 | kind-specific data`. The crash model is
//! explicit: a power failure may cut an append at any byte boundary, so
//! recovery parses records front-to-back and treats the first incomplete or
//! checksum-failing record — and everything after it — as a *torn tail* to be
//! truncated. A record that frames correctly but does not decode is
//! *corruption*, a hard error.
//!
//! Sequence numbers are dense: the first record after a snapshot with
//! sequence `s` carries `seq == s`, and every subsequent record increments by
//! one. Replay verifies the chain, so a deleted or reordered interior record
//! is detected even though its checksum is fine.

use crate::codec::{crc64, Dec, Enc, PersistError};
use crate::state::{decode_line_data, encode_line_data};
use srbsg_pcm::{LineAddr, LineData, PcmBank, PhysOp};

/// A physical remap operation plus the before-images needed to redo it
/// idempotently.
///
/// The journal records each operation *with the data it is about to move*,
/// so recovery can blindly re-issue the writes no matter whether the crash
/// hit before, during, or after the in-place application:
///
/// * `Move`: the redo writes `src_data` to `dst` — correct whether or not
///   the original copy completed (`src` keeps its stale contents and becomes
///   the gap in either case).
/// * `Swap`: the redo writes `b_data` to `a` and `a_data` to `b`. If the
///   crash interleaved (e.g. `a` already holds `b_data` while `b` is
///   untouched), the blind writes still converge to the swapped state.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LoggedOp {
    /// A gap-style move with its before-image.
    Move {
        /// Source physical slot.
        src: LineAddr,
        /// Destination physical slot.
        dst: LineAddr,
        /// Contents of `src` before the move.
        src_data: LineData,
    },
    /// A swap with both before-images.
    Swap {
        /// First physical slot.
        a: LineAddr,
        /// Second physical slot.
        b: LineAddr,
        /// Contents of `a` before the swap.
        a_data: LineData,
        /// Contents of `b` before the swap.
        b_data: LineData,
    },
}

impl LoggedOp {
    /// Capture the before-images for `op` from the bank (reads are free and
    /// side-effect-less at this layer).
    pub fn capture(op: &PhysOp, bank: &PcmBank) -> Self {
        match *op {
            PhysOp::Move { src, dst } => LoggedOp::Move {
                src,
                dst,
                src_data: bank.read_line(src),
            },
            PhysOp::Swap { a, b } => LoggedOp::Swap {
                a,
                b,
                a_data: bank.read_line(a),
                b_data: bank.read_line(b),
            },
        }
    }

    /// The bare physical operation, without before-images.
    pub fn phys(&self) -> PhysOp {
        match *self {
            LoggedOp::Move { src, dst, .. } => PhysOp::Move { src, dst },
            LoggedOp::Swap { a, b, .. } => PhysOp::Swap { a, b },
        }
    }

    /// Blindly re-issue the operation's writes from the recorded
    /// before-images. Idempotent: safe whether the original application was
    /// skipped, half-done, or complete.
    pub fn redo(&self, bank: &mut PcmBank) {
        match *self {
            LoggedOp::Move { dst, src_data, .. } => {
                bank.write_line(dst, src_data);
            }
            LoggedOp::Swap {
                a,
                b,
                a_data,
                b_data,
            } => {
                bank.write_line(a, b_data);
                bank.write_line(b, a_data);
            }
        }
    }

    fn encode(&self, enc: &mut Enc) {
        match *self {
            LoggedOp::Move { src, dst, src_data } => {
                enc.u8(0);
                enc.u64(src);
                enc.u64(dst);
                encode_line_data(enc, src_data);
            }
            LoggedOp::Swap {
                a,
                b,
                a_data,
                b_data,
            } => {
                enc.u8(1);
                enc.u64(a);
                enc.u64(b);
                encode_line_data(enc, a_data);
                encode_line_data(enc, b_data);
            }
        }
    }

    fn decode(dec: &mut Dec) -> Result<Self, PersistError> {
        match dec.u8()? {
            0 => Ok(LoggedOp::Move {
                src: dec.u64()?,
                dst: dec.u64()?,
                src_data: decode_line_data(dec)?,
            }),
            1 => Ok(LoggedOp::Swap {
                a: dec.u64()?,
                b: dec.u64()?,
                a_data: decode_line_data(dec)?,
                b_data: decode_line_data(dec)?,
            }),
            _ => Err(PersistError::Corrupt("unknown logged-op kind")),
        }
    }
}

const KIND_STEP: u8 = 1;
const KIND_COMMIT: u8 = 2;
const KIND_RESEED: u8 = 3;

/// One journal record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Record {
    /// A wear-leveling step *about to be applied*: the scheme-defined
    /// `payload` identifies which metadata transition fired (enough for
    /// deterministic replay), `ops` are its physical movements with
    /// before-images. `ops` may be empty — skip steps still mutate metadata.
    Step {
        /// Dense sequence number.
        seq: u64,
        /// Scheme-defined replay payload.
        payload: Vec<u8>,
        /// Physical movements with before-images.
        ops: Vec<LoggedOp>,
    },
    /// Marker that the preceding `Step`'s operations were fully applied to
    /// the device. A `Step` without a following `Commit` is redone on
    /// recovery.
    Commit {
        /// Dense sequence number.
        seq: u64,
    },
    /// The scheme's RNG was reseeded (recovery re-randomization). Replay
    /// re-applies the reseed so later steps decode identically.
    Reseed {
        /// Dense sequence number.
        seq: u64,
        /// The new RNG seed.
        seed: u64,
    },
}

impl Record {
    /// The record's sequence number.
    pub fn seq(&self) -> u64 {
        match *self {
            Record::Step { seq, .. } | Record::Commit { seq } | Record::Reseed { seq, .. } => seq,
        }
    }

    fn encode_body(&self, enc: &mut Enc) {
        match self {
            Record::Step { seq, payload, ops } => {
                encode_step_body(enc, *seq, payload, ops.iter().copied());
            }
            Record::Commit { seq } => encode_commit_body(enc, *seq),
            Record::Reseed { seq, seed } => {
                enc.u64(*seq);
                enc.u8(KIND_RESEED);
                enc.u64(*seed);
            }
        }
    }

    fn decode_body(body: &[u8]) -> Result<Self, PersistError> {
        let mut dec = Dec::new(body);
        let seq = dec.u64()?;
        let rec = match dec.u8()? {
            KIND_STEP => {
                let plen = dec.u32()? as usize;
                let payload = dec.take(plen)?.to_vec();
                let nops = dec.u32()? as usize;
                let mut ops = Vec::with_capacity(nops.min(1024));
                for _ in 0..nops {
                    ops.push(LoggedOp::decode(&mut dec)?);
                }
                Record::Step { seq, payload, ops }
            }
            KIND_COMMIT => Record::Commit { seq },
            KIND_RESEED => Record::Reseed {
                seq,
                seed: dec.u64()?,
            },
            _ => return Err(PersistError::Corrupt("unknown record kind")),
        };
        dec.finish()?;
        Ok(rec)
    }
}

fn encode_step_body(
    enc: &mut Enc,
    seq: u64,
    payload: &[u8],
    ops: impl ExactSizeIterator<Item = LoggedOp>,
) {
    enc.u64(seq);
    enc.u8(KIND_STEP);
    enc.u32(payload.len() as u32);
    enc.bytes(payload);
    enc.u32(ops.len() as u32);
    for op in ops {
        op.encode(enc);
    }
}

fn encode_commit_body(enc: &mut Enc, seq: u64) {
    enc.u64(seq);
    enc.u8(KIND_COMMIT);
}

/// Append one framed record to `journal` in place: a length placeholder,
/// the body `body` writes, then the length and the body's CRC filled in.
/// Returns the framed record's length. Every journal record is framed
/// here, so a record appended in place and one built by
/// [`encode_record`] are the same bytes.
fn append_framed(journal: &mut Vec<u8>, body: impl FnOnce(&mut Enc)) -> usize {
    let start = journal.len();
    let mut enc = Enc::from_vec(std::mem::take(journal));
    enc.u32(0);
    body(&mut enc);
    *journal = enc.into_bytes();
    let len = journal.len() - start - 4;
    journal[start..start + 4].copy_from_slice(&(len as u32).to_le_bytes());
    let crc = crc64(&journal[start + 4..]);
    journal.extend_from_slice(&crc.to_le_bytes());
    journal.len() - start
}

/// Append the framed `Step` record of `ops` to `journal`, reading each
/// operation's before-images straight from `bank` (the step is about to
/// be applied, so the bank still holds them). Byte-identical to
/// [`encode_record`] of the [`Record::Step`] with those [`LoggedOp`]s,
/// without building it. Returns the framed record's length.
pub(crate) fn append_step(
    journal: &mut Vec<u8>,
    seq: u64,
    payload: &[u8],
    ops: &[PhysOp],
    bank: &PcmBank,
) -> usize {
    append_framed(journal, |enc| {
        encode_step_body(
            enc,
            seq,
            payload,
            ops.iter().map(|op| LoggedOp::capture(op, bank)),
        )
    })
}

/// Append the framed [`Record::Commit`] marker `seq` to `journal`.
/// Returns the framed record's length.
pub(crate) fn append_commit(journal: &mut Vec<u8>, seq: u64) -> usize {
    append_framed(journal, |enc| encode_commit_body(enc, seq))
}

/// Frame a record for appending to the journal.
pub fn encode_record(rec: &Record) -> Vec<u8> {
    let mut out = Vec::new();
    append_framed(&mut out, |enc| rec.encode_body(enc));
    out
}

/// Result of scanning a journal byte string.
#[derive(Debug, PartialEq, Eq)]
pub struct ParsedJournal {
    /// The validated records, in append order.
    pub records: Vec<Record>,
    /// Bytes of torn tail (an incomplete or checksum-failing final append)
    /// that recovery must truncate. Zero for a cleanly shut-down journal.
    pub torn_bytes: usize,
}

impl ParsedJournal {
    /// Length of the valid prefix: `journal.len() - torn_bytes`.
    pub fn clean_len(&self, journal: &[u8]) -> usize {
        journal.len() - self.torn_bytes
    }
}

/// Scan `journal` front to back.
///
/// Stops at the first *incomplete* frame and reports it (and anything after)
/// as torn: the journal is append-only, so a power failure can only cut the
/// final append short — it never leaves a complete frame with wrong bytes.
/// A checksum failure on a complete frame, or a checksummed body that does
/// not decode, is therefore corruption (`Err`), never silently truncated.
/// (Caveat: a bit flip *in a length field* can masquerade as a torn tail;
/// catching that would require out-of-band record boundaries.)
pub fn parse_journal(journal: &[u8]) -> Result<ParsedJournal, PersistError> {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while pos < journal.len() {
        let rest = &journal[pos..];
        if rest.len() < 4 {
            break; // torn length field
        }
        let len = u32::from_le_bytes(rest[..4].try_into().unwrap()) as usize;
        if rest.len() < 4 + len + 8 {
            break; // torn body or checksum
        }
        let body = &rest[4..4 + len];
        let stored_crc = u64::from_le_bytes(rest[4 + len..4 + len + 8].try_into().unwrap());
        if crc64(body) != stored_crc {
            return Err(PersistError::Corrupt("record checksum mismatch"));
        }
        records.push(Record::decode_body(body)?);
        pos += 4 + len + 8;
    }
    Ok(ParsedJournal {
        records,
        torn_bytes: journal.len() - pos,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<Record> {
        vec![
            Record::Step {
                seq: 5,
                payload: vec![0, 0, 0, 0],
                ops: vec![
                    LoggedOp::Move {
                        src: 9,
                        dst: 2,
                        src_data: LineData::Mixed(77),
                    },
                    LoggedOp::Swap {
                        a: 1,
                        b: 3,
                        a_data: LineData::Ones,
                        b_data: LineData::Zeros,
                    },
                ],
            },
            Record::Commit { seq: 6 },
            Record::Reseed { seq: 7, seed: 1234 },
        ]
    }

    #[test]
    fn every_record_kind_frames_as_len_body_crc() {
        for rec in sample_records() {
            let mut body = Enc::new();
            rec.encode_body(&mut body);
            let body = body.into_bytes();
            let mut framed = (body.len() as u32).to_le_bytes().to_vec();
            framed.extend_from_slice(&body);
            framed.extend_from_slice(&crc64(&body).to_le_bytes());
            assert_eq!(encode_record(&rec), framed, "{rec:?}");
        }
    }

    #[test]
    fn records_roundtrip_through_framing() {
        let recs = sample_records();
        let mut journal = Vec::new();
        for r in &recs {
            journal.extend_from_slice(&encode_record(r));
        }
        let parsed = parse_journal(&journal).unwrap();
        assert_eq!(parsed.records, recs);
        assert_eq!(parsed.torn_bytes, 0);
    }

    #[test]
    fn every_truncation_point_is_a_clean_torn_tail() {
        let recs = sample_records();
        let mut journal = Vec::new();
        let mut boundaries = vec![0usize];
        for r in &recs {
            journal.extend_from_slice(&encode_record(r));
            boundaries.push(journal.len());
        }
        for cut in 0..journal.len() {
            let parsed = parse_journal(&journal[..cut]).unwrap();
            // The valid prefix must end exactly at the last record boundary
            // at or before the cut.
            let expect_records = boundaries.iter().filter(|&&b| b <= cut).count() - 1;
            assert_eq!(parsed.records.len(), expect_records, "cut at {cut}");
            assert_eq!(
                parsed.torn_bytes,
                cut - boundaries[expect_records],
                "cut at {cut}"
            );
            assert_eq!(parsed.records[..], recs[..expect_records]);
        }
    }

    #[test]
    fn interior_corruption_is_a_hard_error_not_a_torn_tail() {
        let recs = sample_records();
        let mut journal = Vec::new();
        journal.extend_from_slice(&encode_record(&recs[0]));
        journal.extend_from_slice(&encode_record(&recs[1]));
        // Flip a bit inside the first record's body: the frame is complete,
        // so this cannot be a torn append — it must be rejected outright
        // rather than truncating the (applied!) records that follow.
        journal[6] ^= 0x40;
        assert_eq!(
            parse_journal(&journal),
            Err(PersistError::Corrupt("record checksum mismatch"))
        );
    }
}
