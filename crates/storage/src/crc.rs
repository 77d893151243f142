//! CRC-32 (IEEE 802.3 polynomial, reflected) — the checksum guarding
//! every WAL frame, snapshot frame, and page trailer in this crate.
//!
//! Hand-rolled slicing-by-8 implementation (eight table lookups per
//! eight input bytes instead of one per byte): no external crc crate
//! is used, and the algorithm is ~40 lines. The constants match the ubiquitous zlib/`crc32fast`
//! definition (init `!0`, reflected polynomial `0xEDB8_8320`, final
//! xor `!0`), verified against the standard `"123456789"` check value
//! in the tests below.

/// Slicing-by-8 lookup tables for the reflected IEEE polynomial:
/// `TABLES[0]` is the classic byte table, and `TABLES[k][b]` is the CRC
/// contribution of byte `b` followed by `k` zero bytes, so eight input
/// bytes fold into the state with eight independent lookups.
const fn build_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut bit = 0;
        while bit < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            bit += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

static TABLES: [[u32; 256]; 8] = build_tables();

/// CRC-32 of `data` (IEEE, reflected — the zlib definition), eight
/// bytes per step.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &TABLES;
    let mut c = !0u32;
    let mut chunks = data.chunks_exact(8);
    for chunk in &mut chunks {
        let lo = c ^ u32::from_le_bytes([chunk[0], chunk[1], chunk[2], chunk[3]]);
        let hi = u32::from_le_bytes([chunk[4], chunk[5], chunk[6], chunk[7]]);
        c = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in chunks.remainder() {
        c = t[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
    }
    !c
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn standard_check_value() {
        // The canonical CRC-32/IEEE check: crc32("123456789") = 0xCBF43926.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    }

    #[test]
    fn empty_and_sensitivity() {
        assert_eq!(crc32(b""), 0);
        let a = crc32(b"durability");
        let mut flipped = b"durability".to_vec();
        flipped[3] ^= 0x01;
        assert_ne!(a, crc32(&flipped), "single-bit flip must change the CRC");
    }

    /// The one-lookup-per-byte loop: the test oracle for the sliced one.
    fn crc32_bytewise(data: &[u8]) -> u32 {
        let mut c = !0u32;
        for &b in data {
            c = TABLES[0][((c ^ b as u32) & 0xFF) as usize] ^ (c >> 8);
        }
        !c
    }

    #[test]
    fn sliced_matches_bytewise_at_every_length_and_offset() {
        let mut state = 0x9E37_79B9_7F4A_7C15u64;
        let buf: Vec<u8> = (0..4100 + 8)
            .map(|_| {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                (state >> 24) as u8
            })
            .collect();
        for offset in 0..8 {
            for len in 0..=4100 {
                let data = &buf[offset..offset + len];
                assert_eq!(
                    crc32(data),
                    crc32_bytewise(data),
                    "len {len} at offset {offset}"
                );
            }
        }
    }
}
