//! The CRC-32 every section and the shard manifest are checksummed with.
//! (The little-endian field codec behind `META` and the manifest is
//! `gsr_graph::columns::{Enc, Dec}`, next to the column declarations.)
//!
//! One checksum, two ways to compute it, chosen by what the processor can
//! do: on x86-64 with `PCLMULQDQ` the bulk of a buffer is folded 64 bytes
//! at a time with carry-less multiplies ([`crc32`] then checksums a freshly
//! mapped file at ~11 GB/s, page faults included); the table-driven
//! slicing-by-8 loop ([`crc32_portable`], ~1.5 GB/s) takes what is left,
//! inputs under 64 bytes and every other target. Both produce the same
//! value for every input — the files do not know which one wrote them.
#![allow(unsafe_code)]

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), bit-reflected. This is
/// the same checksum zlib/PNG use, computed here from scratch because the
/// build is dependency-free.
pub fn crc32(data: &[u8]) -> u32 {
    #[cfg(target_arch = "x86_64")]
    if data.len() >= 64 && std::arch::is_x86_feature_detected!("pclmulqdq") {
        // SAFETY: `fold_by_4` needs nothing but the `pclmulqdq` feature,
        // which was detected on this processor just now.
        let (state, rest) = unsafe { fold_by_4(0xFFFF_FFFF, data) };
        return update_portable(state, rest) ^ 0xFFFF_FFFF;
    }
    crc32_portable(data)
}

/// [`crc32`] by table lookups alone: the path of short inputs and of
/// processors without a carry-less multiply, public so tests can hold the
/// two against each other.
///
/// Implemented with the slicing-by-8 technique — eight lookup tables let
/// the hot loop fold eight bytes per iteration instead of one.
pub fn crc32_portable(data: &[u8]) -> u32 {
    update_portable(0xFFFF_FFFF, data) ^ 0xFFFF_FFFF
}

/// Runs the CRC register `state` over `data`.
fn update_portable(state: u32, data: &[u8]) -> u32 {
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

/// Runs the CRC register `state` over the whole 64-byte blocks of `data`
/// (at least one) and returns it with the bytes that remain.
///
/// The register is XORed into the first four message bytes, after which
/// the message is a polynomial over GF(2) that may be replaced by anything
/// congruent to it modulo the CRC polynomial. Four 128-bit lanes hold 64
/// bytes of message; a lane is moved 512 bits down the message by two
/// carry-less multiplies with `x^(512±32) mod P` (Gopal et al., "Fast CRC
/// Computation for Generic Polynomials Using PCLMULQDQ", Intel 2009 — the
/// constants are those of zlib's and Linux's kernels for this polynomial)
/// and XORed onto the next 64 bytes. The four lanes are then folded into
/// one the same way, and those 16 bytes, a message congruent to everything
/// read so far, go through the table loop from a zero register.
#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "pclmulqdq")]
fn fold_by_4(state: u32, data: &[u8]) -> (u32, &[u8]) {
    use std::arch::x86_64::*;
    let lane = |b: &[u8]| {
        let word = |at: usize| {
            i64::from_le_bytes([
                b[at],
                b[at + 1],
                b[at + 2],
                b[at + 3],
                b[at + 4],
                b[at + 5],
                b[at + 6],
                b[at + 7],
            ])
        };
        _mm_set_epi64x(word(8), word(0))
    };
    // `x` moved down by `k`'s distance: low half times the low constant,
    // high half times the high one.
    let fold = |x: __m128i, k: __m128i| {
        _mm_xor_si128(_mm_clmulepi64_si128::<0x00>(x, k), _mm_clmulepi64_si128::<0x11>(x, k))
    };
    let by_512 = _mm_set_epi64x(0x0001_C6E4_1596, 0x0001_5444_2BD4);
    let by_128 = _mm_set_epi64x(0x0000_CCAA_009E, 0x0001_7519_97D0);

    let mut blocks = data.chunks_exact(64);
    let Some(first) = blocks.next() else { return (state, data) };
    let mut x =
        [lane(&first[0..16]), lane(&first[16..32]), lane(&first[32..48]), lane(&first[48..64])];
    x[0] = _mm_xor_si128(x[0], _mm_cvtsi32_si128(state as i32));
    for block in &mut blocks {
        for (i, x) in x.iter_mut().enumerate() {
            *x = _mm_xor_si128(fold(*x, by_512), lane(&block[16 * i..16 * i + 16]));
        }
    }
    let mut one = x[0];
    for next in &x[1..] {
        one = _mm_xor_si128(fold(one, by_128), *next);
    }
    let mut folded = [0u8; 16];
    folded[..8].copy_from_slice(&_mm_cvtsi128_si64(one).to_le_bytes());
    folded[8..].copy_from_slice(&_mm_cvtsi128_si64(_mm_srli_si128::<8>(one)).to_le_bytes());
    (update_portable(0, &folded), blocks.remainder())
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard check value of CRC-32/ISO-HDLC.
        for crc in [crc32, crc32_portable] {
            assert_eq!(crc(b"123456789"), 0xCBF4_3926);
            assert_eq!(crc(b""), 0);
            assert_eq!(crc(b"a"), 0xE8B7_BE43);
        }
    }

    /// One bit at a time, straight from the polynomial: the definition the
    /// two table- and multiply-driven paths are held to.
    fn crc32_bitwise(bytes: &[u8]) -> u32 {
        !bytes.iter().fold(!0u32, |crc, &b| {
            (0..8).fold(
                crc ^ b as u32,
                |c, _| if c & 1 != 0 { 0xEDB8_8320 ^ (c >> 1) } else { c >> 1 },
            )
        })
    }

    /// Every length around the kernel's 64-byte blocks, at every start
    /// offset within a lane, and one buffer long enough for the folding
    /// loop to dominate.
    #[test]
    fn crc_kernels_agree() {
        let mut word = 0x9E37_79B9_7F4A_7C15u64;
        let mut noise = || {
            word ^= word << 13;
            word ^= word >> 7;
            word ^= word << 17;
            word as u8
        };
        let buf: Vec<u8> = (0..(1 << 20) + 16).map(|_| noise()).collect();
        for start in 0..=16 {
            for len in 0..=1024 {
                let data = &buf[start..start + len];
                let want = crc32_bitwise(data);
                assert_eq!(crc32(data), want, "start {start}, len {len}");
                assert_eq!(crc32_portable(data), want, "portable, start {start}, len {len}");
            }
        }
        let mib = &buf[3..3 + (1 << 20)];
        assert_eq!(crc32(mib), crc32_bitwise(mib));
        assert_eq!(crc32_portable(mib), crc32_bitwise(mib));
    }
}
