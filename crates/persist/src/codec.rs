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

/// CRC-64/ECMA over `bytes` (the CRC-64/XZ parameterisation). Where the
/// CPU has a carry-less multiply (checked at run time), whole 16-byte
/// blocks fold through it; otherwise, and for the tail, slice-by-8 runs.
pub fn crc64(bytes: &[u8]) -> u64 {
    !crc64_update(!0, bytes)
}

/// Run the CRC register `crc` over `bytes` with the fastest kernel this
/// CPU has.
fn crc64_update(crc: u64, bytes: &[u8]) -> u64 {
    #[cfg(target_arch = "x86_64")]
    if bytes.len() >= 16 && clmul::available() {
        let blocks = bytes.len() & !15;
        // SAFETY: `available` found pclmulqdq on this CPU, and `blocks` is
        // a nonzero multiple of 16 no longer than `bytes`.
        let crc = unsafe { clmul::fold(crc, &bytes[..blocks]) };
        return crc64_slice8(crc, &bytes[blocks..]);
    }
    crc64_slice8(crc, bytes)
}

/// Run the CRC register `crc` over eight bytes `w` (little-endian): the
/// slice-by-8 step, eight table lookups.
#[inline]
fn crc64_word(crc: u64, w: u64) -> u64 {
    let t = &CRC64_TABLES;
    let x = crc ^ w;
    t[7][(x & 0xFF) as usize]
        ^ t[6][((x >> 8) & 0xFF) as usize]
        ^ t[5][((x >> 16) & 0xFF) as usize]
        ^ t[4][((x >> 24) & 0xFF) as usize]
        ^ t[3][((x >> 32) & 0xFF) as usize]
        ^ t[2][((x >> 40) & 0xFF) as usize]
        ^ t[1][((x >> 48) & 0xFF) as usize]
        ^ t[0][(x >> 56) as usize]
}

/// Run the CRC register `crc` over `bytes`, eight bytes per step: the
/// portable kernel.
fn crc64_slice8(mut crc: u64, bytes: &[u8]) -> u64 {
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        crc = crc64_word(
            crc,
            u64::from_le_bytes(w.try_into().expect("chunks of eight")),
        );
    }
    for &b in words.remainder() {
        crc = CRC64_TABLES[0][((crc ^ b as u64) & 0xFF) as usize] ^ (crc >> 8);
    }
    crc
}

/// The carry-less-multiply CRC kernel (x86-64 `pclmulqdq`).
///
/// Bit-reflected, a 64-bit register's bit `i` is the coefficient of
/// `x^(63-i)`, and a 16-byte block read little-endian is a 128-bit
/// polynomial whose first eight bytes hold the high half. A reflected
/// carry-less product of two 64-bit values is their polynomial product
/// times `x`. So a block `X = X_lo·x^64 + X_hi` moves `d` bits further
/// along the message, modulo the CRC polynomial `P`, as
/// `clmul(X_lo, x^(d+63) mod P) ^ clmul(X_hi, x^(d-1) mod P)`, and folding
/// every block into the last keeps the message's residue. The register
/// the table kernel would hold is then that last block's residue times
/// `x^64`: the table kernel run over its 16 bytes from zero.
#[cfg(target_arch = "x86_64")]
mod clmul {
    use core::arch::x86_64::{
        __m128i, _mm_clmulepi64_si128, _mm_cvtsi128_si64, _mm_loadu_si128, _mm_set_epi64x,
        _mm_unpackhi_epi64, _mm_xor_si128,
    };

    /// Whether this CPU has the carry-less multiply.
    pub(super) fn available() -> bool {
        std::arch::is_x86_feature_detected!("pclmulqdq")
    }

    /// `x^n mod P`, bit-reflected. `P`'s reflected low terms are the
    /// table kernel's `0xC96C5795D7870F42`.
    const fn xpow_mod(n: u32) -> u64 {
        let p = 0xC96C_5795_D787_0F42u64.reverse_bits();
        let mut v = 1u64;
        let mut i = 0;
        while i < n {
            let top = v >> 63;
            v <<= 1;
            if top != 0 {
                v ^= p;
            }
            i += 1;
        }
        v.reverse_bits()
    }

    /// The (low-half, high-half) multipliers that move a block `bits` bits
    /// along the message.
    const fn fold_keys(bits: u32) -> [u64; 2] {
        [xpow_mod(bits + 63), xpow_mod(bits - 1)]
    }

    /// One block ahead: folds the previous block into the next.
    const BY_16: [u64; 2] = fold_keys(128);
    /// Four blocks ahead: each of four lanes folds into its next block.
    const BY_64: [u64; 2] = fold_keys(512);

    /// Fold `x` forward by `k`'s distance and add block `next`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`.
    #[inline]
    #[target_feature(enable = "pclmulqdq")]
    unsafe fn fold_into(x: __m128i, k: __m128i, next: __m128i) -> __m128i {
        let lo = _mm_clmulepi64_si128(x, k, 0x00);
        let hi = _mm_clmulepi64_si128(x, k, 0x11);
        _mm_xor_si128(_mm_xor_si128(lo, hi), next)
    }

    fn keys(k: [u64; 2]) -> __m128i {
        // SAFETY: SSE2 is part of x86-64.
        unsafe { _mm_set_epi64x(k[1] as i64, k[0] as i64) }
    }

    /// Run the CRC register `crc` over `blocks`.
    ///
    /// # Safety
    ///
    /// The CPU must support `pclmulqdq`, and `blocks.len()` must be a
    /// nonzero multiple of 16.
    #[target_feature(enable = "pclmulqdq")]
    pub(super) unsafe fn fold(crc: u64, blocks: &[u8]) -> u64 {
        assert!(!blocks.is_empty() && blocks.len() & 15 == 0);
        let n = blocks.len() / 16;
        let at = blocks.as_ptr().cast::<__m128i>();
        // Unaligned loads of block `i < n`, inside `blocks`.
        let load = |i: usize| _mm_loadu_si128(at.add(i));
        let mut x = _mm_xor_si128(load(0), _mm_set_epi64x(0, crc as i64));
        let mut i = 1;
        if n >= 8 {
            let k = keys(BY_64);
            let mut lanes = [load(1), load(2), load(3)];
            i = 4;
            while i + 4 <= n {
                x = fold_into(x, k, load(i));
                for (j, lane) in lanes.iter_mut().enumerate() {
                    *lane = fold_into(*lane, k, load(i + 1 + j));
                }
                i += 4;
            }
            let k = keys(BY_16);
            for lane in lanes {
                x = fold_into(x, k, lane);
            }
        }
        let k = keys(BY_16);
        while i < n {
            x = fold_into(x, k, load(i));
            i += 1;
        }
        let lo = _mm_cvtsi128_si64(x) as u64;
        let hi = _mm_cvtsi128_si64(_mm_unpackhi_epi64(x, x)) as u64;
        super::crc64_word(super::crc64_word(0, lo), hi)
    }
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

    /// Append a `u64` as an unsigned LEB128 varint: seven bits per byte,
    /// low bits first, the high bit set on every byte but the last.
    pub fn varint(&mut self, mut v: u64) {
        while v >= 0x80 {
            self.buf.push(v as u8 | 0x80);
            v >>= 7;
        }
        self.buf.push(v as u8);
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

    /// Read an unsigned LEB128 varint ([`Enc::varint`]). Only the
    /// shortest encoding of a value decodes: a varint past ten bytes, one
    /// whose bits overflow a `u64`, or one ending in a redundant zero
    /// byte is [`PersistError::Corrupt`].
    pub fn varint(&mut self) -> Result<u64, PersistError> {
        let mut v = 0u64;
        for i in 0..10 {
            let b = self.u8()?;
            let bits = (b & 0x7F) as u64;
            if i == 9 && b > 1 {
                return Err(PersistError::Corrupt("overlong varint"));
            }
            v |= bits << (7 * i);
            if b & 0x80 == 0 {
                if b == 0 && i > 0 {
                    return Err(PersistError::Corrupt("overlong varint"));
                }
                return Ok(v);
            }
        }
        Err(PersistError::Corrupt("overlong varint"))
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

    /// The bytewise reference both [`crc64`] kernels must match.
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

    /// Check `kernel` (a CRC register update) against the bytewise
    /// reference on every length 0..=4097 at 16 start offsets into one
    /// random buffer.
    fn matches_bytewise_at_every_length(kernel: impl Fn(u64, &[u8]) -> u64) {
        let mut s = 0x5EED_u64;
        let bytes: Vec<u8> = (0..4097 + 16)
            .map(|_| {
                s = srbsg_parallel::splitmix64(s);
                s as u8
            })
            .collect();
        for start in 0..16 {
            // The reference register, one byte further per length.
            let mut reference = !0u64;
            for len in 0..=4097 {
                let input = &bytes[start..start + len];
                assert_eq!(kernel(!0, input), reference, "len {len} +{start}");
                if let Some(&b) = bytes.get(start + len) {
                    reference = CRC64_TABLES[0][((reference ^ b as u64) & 0xFF) as usize]
                        ^ (reference >> 8);
                }
            }
            assert_eq!(!reference, crc64_bytewise(&bytes[start..start + 4098]));
        }
    }

    #[test]
    fn slice_by_8_matches_bytewise_reference() {
        matches_bytewise_at_every_length(crc64_slice8);
    }

    /// On an x86-64 CPU with `pclmulqdq`, `crc64_update` runs the
    /// carry-less kernel on every input of 16 bytes or more.
    #[test]
    fn clmul_matches_bytewise_reference() {
        #[cfg(target_arch = "x86_64")]
        if !clmul::available() {
            eprintln!("no pclmulqdq on this CPU: only slice-by-8 is tested");
        }
        matches_bytewise_at_every_length(crc64_update);
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
    fn varints_roundtrip_at_every_width_and_refuse_overlong_forms() {
        let mut values = vec![0, 1, 0x7F, 0x80, 0x3FFF, 0x4000, u64::MAX - 1, u64::MAX];
        values.extend((0..64).map(|b| 1u64 << b));
        for v in values {
            let mut e = Enc::new();
            e.varint(v);
            let bytes = e.into_bytes();
            let width = (64 - v.leading_zeros()).div_ceil(7).max(1) as usize;
            assert_eq!(bytes.len(), width, "{v:#x}");
            let mut d = Dec::new(&bytes);
            assert_eq!(d.varint(), Ok(v));
            d.finish().unwrap();
            // Every strict prefix is a truncation.
            for cut in 0..bytes.len() {
                assert_eq!(
                    Dec::new(&bytes[..cut]).varint(),
                    Err(PersistError::Truncated)
                );
            }
        }
        let overlong: [&[u8]; 4] = [
            &[0x80, 0x00],
            &[0xFF, 0x80, 0x00],
            &[0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0xFF, 0x02],
            &[0x80; 11],
        ];
        for bytes in overlong {
            assert!(
                matches!(Dec::new(bytes).varint(), Err(PersistError::Corrupt(_))),
                "{bytes:x?}"
            );
        }
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
