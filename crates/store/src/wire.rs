//! Byte-level primitives of the snapshot format: the CRC-32 every section
//! and the shard manifest are checksummed with, and the little-endian
//! [`Enc`]/[`Dec`] pair behind the few field-by-field payloads (`META`,
//! `SPA_INFO`, the shard manifest).
//!
//! All multi-byte integers anywhere in the format are little-endian and
//! fixed-width; floating-point values are IEEE-754 `f64` bit patterns.
//! Decoding treats every byte as untrusted: truncation, impossible counts
//! and trailing garbage all surface as `Err(String)` (wrapped into
//! `gsr_core::GsrError::Load` at the crate boundary) — never as a panic
//! or an unbounded allocation.

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), bit-reflected,
/// table-driven. This is the same checksum zlib/PNG use, computed here from
/// scratch because the build is dependency-free.
///
/// Implemented with the slicing-by-8 technique — eight lookup tables let
/// the hot loop fold eight bytes per iteration instead of one, which
/// matters now that v3 snapshots checksum whole multi-hundred-megabyte
/// arenas: byte-at-a-time CRC would rival the disk read itself.
pub fn crc32(data: &[u8]) -> u32 {
    update_crc32(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Streaming form of [`crc32`]: feed `state` (seeded with `0xFFFF_FFFF`)
/// through successive chunks, then XOR with `0xFFFF_FFFF` to finish.
pub fn update_crc32(state: u32, data: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut crc = state;
    let mut chunks = data.chunks_exact(8);
    for w in &mut chunks {
        // Fold the CRC into the first four bytes, then look all eight up
        // in parallel tables (standard slicing-by-8 recurrence).
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        crc = T[7][(lo & 0xFF) as usize]
            ^ T[6][((lo >> 8) & 0xFF) as usize]
            ^ T[5][((lo >> 16) & 0xFF) as usize]
            ^ T[4][(lo >> 24) as usize]
            ^ T[3][w[4] as usize]
            ^ T[2][w[5] as usize]
            ^ T[1][w[6] as usize]
            ^ T[0][w[7] as usize];
    }
    for &b in chunks.remainder() {
        crc = (crc >> 8) ^ T[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    // table[t][i] extends table[t-1][i] by one zero byte: the per-table
    // shift that lets eight byte lookups combine into one 8-byte step.
    let mut t = 1;
    while t < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[t - 1][i];
            tables[t][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        t += 1;
    }
    tables
}

/// Growable little-endian payload encoder.
#[derive(Default)]
pub struct Enc {
    buf: Vec<u8>,
}

impl Enc {
    /// A fresh, empty payload.
    pub fn new() -> Self {
        Enc { buf: Vec::new() }
    }

    /// The encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Appends a raw byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a little-endian `u32`.
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a little-endian `u64`.
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an IEEE-754 `f64` bit pattern, little-endian.
    pub fn f64(&mut self, v: f64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a length-prefixed raw byte string.
    pub fn vec_u8(&mut self, v: &[u8]) {
        self.u64(v.len() as u64);
        self.buf.extend_from_slice(v);
    }
}

/// Bounds-checked little-endian payload decoder. Every read validates the
/// remaining length first, so corrupt data can never index out of bounds.
pub struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    /// Wraps a payload for decoding.
    pub fn new(buf: &'a [u8]) -> Self {
        Dec { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        if self.remaining() < n {
            return Err(format!(
                "truncated payload: {what} needs {n} bytes, {} left",
                self.remaining()
            ));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a little-endian `u32`.
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        let s = self.take(4, what)?;
        Ok(u32::from_le_bytes([s[0], s[1], s[2], s[3]]))
    }

    /// Reads a little-endian `u64`.
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        let s = self.take(8, what)?;
        Ok(u64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads an IEEE-754 `f64`.
    pub fn f64(&mut self, what: &str) -> Result<f64, String> {
        let s = self.take(8, what)?;
        Ok(f64::from_le_bytes([s[0], s[1], s[2], s[3], s[4], s[5], s[6], s[7]]))
    }

    /// Reads a count prefix for elements of at least `elem_bytes` bytes
    /// each, rejecting counts the remaining payload cannot possibly hold —
    /// the guard that keeps a corrupt length from driving a huge
    /// allocation.
    pub fn count(&mut self, elem_bytes: usize, what: &str) -> Result<usize, String> {
        let raw = self.u64(what)?;
        let n = usize::try_from(raw).map_err(|_| format!("{what}: count {raw} overflows"))?;
        let need = n.checked_mul(elem_bytes.max(1));
        match need {
            Some(need) if need <= self.remaining() => Ok(n),
            _ => Err(format!(
                "{what}: count {n} x {elem_bytes} bytes exceeds the {} remaining",
                self.remaining()
            )),
        }
    }

    /// Reads a length-prefixed raw byte string.
    pub fn vec_u8(&mut self, what: &str) -> Result<Vec<u8>, String> {
        let n = self.count(1, what)?;
        Ok(self.take(n, what)?.to_vec())
    }

    /// Asserts the payload was consumed exactly.
    pub fn finish(&self, what: &str) -> Result<(), String> {
        if self.remaining() != 0 {
            return Err(format!("{what}: {} trailing bytes in section", self.remaining()));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/ISO-HDLC.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    }

    #[test]
    fn dec_rejects_absurd_counts() {
        let mut e = Enc::new();
        e.u64(u64::MAX);
        let bytes = e.into_bytes();
        let mut d = Dec::new(&bytes);
        assert!(d.count(4, "test").is_err());
    }
}
