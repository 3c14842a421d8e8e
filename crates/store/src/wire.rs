//! The CRC-32 every section and the shard manifest are checksummed with.
//! (The little-endian field codec behind `META` and the manifest is
//! `gsr_graph::columns::{Enc, Dec}`, next to the column declarations.)

/// CRC-32 (IEEE 802.3, polynomial `0xEDB88320`), bit-reflected,
/// table-driven. This is the same checksum zlib/PNG use, computed here from
/// scratch because the build is dependency-free.
///
/// Implemented with the slicing-by-8 technique — eight lookup tables let
/// the hot loop fold eight bytes per iteration instead of one, which
/// matters because snapshots checksum whole multi-hundred-megabyte
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
}
