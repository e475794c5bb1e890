//! Record integrity: the OLC3 checksum envelope.
//!
//! The OLC1 codec carries structural checks (magic word, length fields)
//! but no content checksum — a flipped bit inside a value is decoded as
//! a perfectly plausible wrong number. The OLC3 envelope closes that
//! hole: every [`crate::FileStore`] record payload is
//!
//! ```text
//! magic  u32 = 0x4F4C4333 ("OLC3")
//! crc    u32 = CRC-32 (IEEE 802.3) over the inner payload
//! inner  bytes (a complete OLC1 record, or a transaction marker's fields)
//! ```
//!
//! and every read verifies the CRC ([`unwrap_verified`]) before the OLC1
//! decoder runs. CRC-32 detects all single-bit and all burst errors up
//! to 32 bits, which covers the media-corruption model the
//! fault-injection harness simulates. There is no other record format:
//! a payload without the envelope is [`StoreError::Corrupt`]. The record
//! headers around the payloads are sealed by their transaction's
//! `COMMIT` (DESIGN.md §12).

use crate::error::StoreError;
use crate::Result;

/// Magic word opening a checksummed envelope.
pub const MAGIC_V3: u32 = 0x4F4C_4333;

/// Envelope overhead in bytes (magic + CRC).
pub const ENVELOPE_BYTES: usize = 8;

/// The CRC-32 (IEEE 802.3, reflected, polynomial 0xEDB88320) lookup
/// tables for slicing-by-8, built at compile time. `CRC_TABLES[0]` is
/// the classic bytewise table; `CRC_TABLES[k][b]` is the CRC register
/// after byte `b` is followed by `k` zero bytes, so eight table lookups
/// advance the register over eight input bytes at once.
const CRC_TABLES: [[u32; 256]; 8] = {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
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
};

/// CRC-32 (IEEE 802.3) of `bytes`: eight bytes per step (slicing-by-8),
/// then the remainder bytewise.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_append(0, bytes)
}

/// Continues a CRC-32 over more bytes:
/// `crc32_append(crc32(a), b) == crc32(a ++ b)`.
pub fn crc32_append(crc: u32, bytes: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = !crc;
    let mut words = bytes.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// Whether a record payload opens with the OLC3 checksum envelope.
pub fn is_checksummed(buf: &[u8]) -> bool {
    buf.len() >= 4 && u32::from_le_bytes(buf[..4].try_into().expect("len checked")) == MAGIC_V3
}

/// Wraps a codec payload in the OLC3 envelope.
pub fn wrap_checksummed(inner: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(ENVELOPE_BYTES + inner.len());
    out.extend_from_slice(&MAGIC_V3.to_le_bytes());
    out.extend_from_slice(&crc32(inner).to_le_bytes());
    out.extend_from_slice(inner);
    out
}

/// Verifies an OLC3 envelope and returns the inner codec payload.
/// Errors with [`StoreError::Corrupt`] on a short envelope or a CRC
/// mismatch.
pub fn unwrap_verified(buf: &[u8]) -> Result<&[u8]> {
    if buf.len() < ENVELOPE_BYTES {
        return Err(StoreError::Corrupt("truncated OLC3 envelope".into()));
    }
    let magic = u32::from_le_bytes(buf[..4].try_into().expect("len checked"));
    if magic != MAGIC_V3 {
        return Err(StoreError::Corrupt(format!("bad OLC3 magic 0x{magic:08X}")));
    }
    let stored = u32::from_le_bytes(buf[4..8].try_into().expect("len checked"));
    let inner = &buf[ENVELOPE_BYTES..];
    let actual = crc32(inner);
    if stored != actual {
        return Err(StoreError::Corrupt(format!(
            "checksum mismatch: stored 0x{stored:08X}, computed 0x{actual:08X}"
        )));
    }
    Ok(inner)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{codec, decode_any, CellValue, Chunk};

    /// Known-answer tests for the IEEE CRC-32 ("123456789" → 0xCBF43926
    /// is the standard check value).
    #[test]
    fn crc32_known_answers() {
        assert_eq!(crc32(b""), 0);
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(
            crc32(b"The quick brown fox jumps over the lazy dog"),
            0x414F_A339
        );
    }

    /// The bytewise loop slicing-by-8 replaced, kept as the oracle.
    fn crc32_bytewise(bytes: &[u8]) -> u32 {
        let mut crc = !0u32;
        for &b in bytes {
            crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
        }
        !crc
    }

    /// Slicing-by-8 agrees with the bytewise loop on every length
    /// 0..=257 at every alignment offset 0..8, and on one buffer the size
    /// of a Workforce chunk record.
    #[test]
    fn slicing_by_8_matches_bytewise() {
        let buf: Vec<u8> = (0..27_000u32)
            .map(|i| (i.wrapping_mul(2_654_435_761) >> 13) as u8)
            .collect();
        for offset in 0..8 {
            for len in 0..=257 {
                let s = &buf[offset..offset + len];
                assert_eq!(crc32(s), crc32_bytewise(s), "offset {offset} len {len}");
            }
        }
        assert_eq!(crc32(&buf), crc32_bytewise(&buf));
    }

    #[test]
    fn crc32_continues_across_splits() {
        let bytes: Vec<u8> = (0..300u32).map(|i| (i * 37 % 251) as u8).collect();
        for split in [0, 1, 7, 8, 9, 150, 299, 300] {
            let (a, b) = bytes.split_at(split);
            assert_eq!(crc32_append(crc32(a), b), crc32(&bytes), "split {split}");
        }
    }

    #[test]
    fn wrap_unwrap_roundtrip() {
        let inner = b"arbitrary codec payload";
        let wrapped = wrap_checksummed(inner);
        assert!(is_checksummed(&wrapped));
        assert!(!is_checksummed(inner));
        assert_eq!(unwrap_verified(&wrapped).unwrap(), inner);
    }

    /// Any single flipped bit anywhere in the envelope must be caught —
    /// the property that turns silent corruption into a clean error.
    #[test]
    fn every_single_bit_flip_is_detected() {
        let inner = b"payload under test";
        let wrapped = wrap_checksummed(inner);
        for byte in 0..wrapped.len() {
            for bit in 0..8 {
                let mut bad = wrapped.clone();
                bad[byte] ^= 1 << bit;
                assert!(
                    unwrap_verified(&bad).is_err(),
                    "flip of byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    /// The read path is `unwrap_verified`, then OLC1: `decode_any` takes
    /// the verified inner payload, refuses the envelope itself, and a
    /// nested envelope is corruption, not recursion.
    #[test]
    fn decode_any_handles_checksum_envelope() {
        let mut c = Chunk::new_dense(vec![4]);
        c.set(1, CellValue::num(3.5));
        let wrapped = wrap_checksummed(&codec::encode(&c).unwrap());
        assert_eq!(decode_any(unwrap_verified(&wrapped).unwrap()).unwrap(), c);
        assert!(matches!(decode_any(&wrapped), Err(StoreError::Corrupt(_))));
        let nested = wrap_checksummed(&wrapped);
        let inner = unwrap_verified(&nested).unwrap();
        assert!(matches!(decode_any(inner), Err(StoreError::Corrupt(_))));
    }

    /// The checksum turns silent payload corruption into a clean
    /// `Corrupt` error: flipping a value bit in an OLC1 record decodes
    /// to a wrong number, while the same flip under OLC3 is detected.
    #[test]
    fn envelope_catches_value_bit_flips_olc1_cannot() {
        let mut c = Chunk::new_dense(vec![2]);
        c.set(0, CellValue::num(1.0));
        let bare = codec::encode(&c).unwrap().to_vec();
        // Flip a low mantissa bit of the stored f64 (last payload byte
        // region) — structurally valid, numerically wrong.
        let mut bad_bare = bare.clone();
        let flip_at = bare.len() - 3;
        bad_bare[flip_at] ^= 0x01;
        let decoded = decode_any(&bad_bare).unwrap();
        assert_ne!(decoded, c, "OLC1 cannot detect a value bit flip");
        // The same flip inside an OLC3 envelope is caught.
        let mut bad_wrapped = wrap_checksummed(&bare);
        bad_wrapped[ENVELOPE_BYTES + flip_at] ^= 0x01;
        assert!(matches!(
            unwrap_verified(&bad_wrapped),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn short_and_unwrapped_payloads_rejected() {
        assert!(unwrap_verified(b"").is_err());
        assert!(unwrap_verified(b"3CLO").is_err());
        let wrapped = wrap_checksummed(b"x");
        assert!(unwrap_verified(&wrapped[..7]).is_err());
    }
}
