//! Byte-level encoding primitives shared by snapshots and journal records.
//!
//! Everything persisted by this crate is framed with explicit lengths and a
//! CRC-64 checksum so that recovery can distinguish *torn* data (a write cut
//! short by power failure — expected, truncated silently) from *corrupt* data
//! (an interior record that fails validation — a hard error, never acted on).

/// Why a persisted byte string could not be decoded, or why a durability
/// operation could not run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PersistError {
    /// The input ended before the announced structure was complete.
    Truncated,
    /// The input was structurally complete but failed validation; the
    /// message names the check that failed.
    Corrupt(&'static str),
    /// The operation raced a power cut: the store holds whatever the
    /// failure left behind and the caller must go through recovery. A
    /// checkpoint interrupted this way is an injectable outcome, not a
    /// programming error.
    PowerLost,
}

impl core::fmt::Display for PersistError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            PersistError::Truncated => write!(f, "persisted data truncated"),
            PersistError::Corrupt(what) => write!(f, "persisted data corrupt: {what}"),
            PersistError::PowerLost => write!(f, "power lost during a persistence operation"),
        }
    }
}

impl std::error::Error for PersistError {}

/// CRC-64/ECMA (reflected, polynomial `0xC96C5795D7870F42`) slice-by-8
/// lookup tables, built at compile time. `CRC64_TABLES[0]` is the classic
/// bytewise table; `CRC64_TABLES[k]` advances a byte through `k` further
/// zero bytes, so eight input bytes fold in with eight independent lookups.
const CRC64_TABLES: [[u64; 256]; 8] = {
    let mut t = [[0u64; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u64;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xC96C_5795_D787_0F42
            } else {
                crc >> 1
            };
            bit += 1;
        }
        t[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = t[k - 1][i];
            t[k][i] = (prev >> 8) ^ t[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    t
};

/// CRC-64/ECMA over `bytes` (the CRC-64/XZ parameterisation), eight bytes
/// per step.
pub fn crc64(bytes: &[u8]) -> u64 {
    let t = &CRC64_TABLES;
    let mut crc = !0u64;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let x = crc ^ u64::from_le_bytes(w.try_into().expect("chunks of eight"));
        crc = t[7][(x & 0xFF) as usize]
            ^ t[6][((x >> 8) & 0xFF) as usize]
            ^ t[5][((x >> 16) & 0xFF) as usize]
            ^ t[4][((x >> 24) & 0xFF) as usize]
            ^ t[3][((x >> 32) & 0xFF) as usize]
            ^ t[2][((x >> 40) & 0xFF) as usize]
            ^ t[1][((x >> 48) & 0xFF) as usize]
            ^ t[0][(x >> 56) as usize];
    }
    for &b in words.remainder() {
        crc = t[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    !crc
}

/// Little-endian byte-string builder.
#[derive(Debug, Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty encoder.
    pub fn new() -> Self {
        Self::default()
    }

    /// A fresh, empty encoder with room for `bytes` bytes, for callers
    /// that know the encoded size up front.
    pub fn with_capacity(bytes: usize) -> Self {
        Self {
            buf: Vec::with_capacity(bytes),
        }
    }

    /// An encoder that appends to `buf`, keeping its bytes and capacity;
    /// [`Enc::into_bytes`] hands the buffer back.
    pub fn from_vec(buf: Vec<u8>) -> Self {
        Self { buf }
    }

    /// Consume the encoder and return the accumulated bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes accumulated so far.
    pub fn as_bytes(&self) -> &[u8] {
        &self.buf
    }

    /// Append a single byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Append a `u32`, little-endian.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append a `u64`, little-endian.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Append raw bytes with no framing (caller encodes the length).
    pub fn bytes(&mut self, v: &[u8]) {
        self.buf.extend_from_slice(v);
    }
}

/// Little-endian byte-string reader; every accessor checks bounds.
#[derive(Debug)]
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Start reading `buf` from the beginning.
    pub fn new(buf: &'a [u8]) -> Self {
        Self { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    /// Read a single byte.
    pub fn u8(&mut self) -> Result<u8, PersistError> {
        let b = *self.buf.get(self.pos).ok_or(PersistError::Truncated)?;
        self.pos += 1;
        Ok(b)
    }

    /// Read a little-endian `u32`.
    pub fn u32(&mut self) -> Result<u32, PersistError> {
        let raw = self.take(4)?;
        Ok(u32::from_le_bytes(raw.try_into().unwrap()))
    }

    /// Read a little-endian `u64`.
    pub fn u64(&mut self) -> Result<u64, PersistError> {
        let raw = self.take(8)?;
        Ok(u64::from_le_bytes(raw.try_into().unwrap()))
    }

    /// Read exactly `n` raw bytes.
    pub fn take(&mut self, n: usize) -> Result<&'a [u8], PersistError> {
        if self.remaining() < n {
            return Err(PersistError::Truncated);
        }
        let out = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(out)
    }

    /// Fail unless every byte has been consumed.
    pub fn finish(&self) -> Result<(), PersistError> {
        if self.remaining() == 0 {
            Ok(())
        } else {
            Err(PersistError::Corrupt("trailing bytes after structure"))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bytewise reference the slice-by-8 [`crc64`] must match.
    fn crc64_bytewise(bytes: &[u8]) -> u64 {
        let mut crc = !0u64;
        for &b in bytes {
            crc = CRC64_TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
        }
        !crc
    }

    #[test]
    fn crc64_known_vector() {
        // CRC-64/XZ ("123456789") = 0x995DC9BBDF1939FA.
        assert_eq!(crc64(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64_bytewise(b"123456789"), 0x995D_C9BB_DF19_39FA);
        assert_eq!(crc64(b""), 0);
        // CRC-64/XZ of "The quick brown fox jumps over the lazy dog".
        let fox = b"The quick brown fox jumps over the lazy dog";
        assert_eq!(crc64(fox), 0x5B5E_B8C2_E54A_A1C4);
        assert_eq!(crc64(fox), crc64_bytewise(fox));
    }

    #[test]
    fn slice_by_8_matches_bytewise_reference() {
        let mut s = 0x5EED_u64;
        for len in (0..=67).chain([255, 256, 1023, 4097]) {
            for _ in 0..4 {
                let bytes: Vec<u8> = (0..len)
                    .map(|_| {
                        s = srbsg_parallel::splitmix64(s);
                        s as u8
                    })
                    .collect();
                assert_eq!(crc64(&bytes), crc64_bytewise(&bytes), "len {len}");
                // Every alignment of the eight-byte steps against the input.
                for start in 1..len.min(8) {
                    let tail = &bytes[start..];
                    assert_eq!(crc64(tail), crc64_bytewise(tail), "len {len} +{start}");
                }
            }
        }
    }

    #[test]
    fn enc_dec_roundtrip() {
        let mut e = Enc::new();
        e.u8(7);
        e.u32(0xDEAD_BEEF);
        e.u64(u64::MAX - 3);
        e.bytes(b"xyz");
        let bytes = e.into_bytes();

        let mut d = Dec::new(&bytes);
        assert_eq!(d.u8().unwrap(), 7);
        assert_eq!(d.u32().unwrap(), 0xDEAD_BEEF);
        assert_eq!(d.u64().unwrap(), u64::MAX - 3);
        assert_eq!(d.take(3).unwrap(), b"xyz");
        d.finish().unwrap();
    }

    #[test]
    fn dec_reports_truncation_and_trailing_bytes() {
        let bytes = [1u8, 2, 3];
        let mut d = Dec::new(&bytes);
        assert_eq!(d.u32(), Err(PersistError::Truncated));
        assert_eq!(d.u8().unwrap(), 1);
        assert!(matches!(d.finish(), Err(PersistError::Corrupt(_))));
    }
}
