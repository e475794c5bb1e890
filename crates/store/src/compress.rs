//! Compressed chunk encoding — the paper's Section 8 future work lists
//! "compression of perspective cubes" as an open problem.
//!
//! Perspective cubes are highly compressible: relocation copies many
//! identical runs (an employee's salary is often constant across the
//! months an instance owns), and offsets of present cells cluster.
//! Format `OLC2`:
//!
//! ```text
//! magic    u32 = 0x4F4C4332 ("OLC2")
//! layout   u8  (0 dense / 1 sparse — restored in-memory layout)
//! rank     u8
//! shape    u32 × rank
//! count    u32                         (present cells)
//! offsets  delta-varint × count        (strictly increasing)
//! venc     u8  (0 = constant, 1 = raw)
//! values   f64            (venc 0: the single value)
//!          f64 × count    (venc 1)
//! ```
//!
//! Offsets compress with LEB128 deltas (dense runs cost one byte per
//! cell); the constant-value case collapses the value payload entirely.
//! [`decode_any`] dispatches on magic so OLC1 and OLC2 records coexist in
//! one store file. `FileStore` writes only OLC1; it reads the OLC2
//! records of older files, and tests use [`encode_compressed`] to
//! hand-write such records.

use crate::chunk::{Chunk, ChunkData};
use crate::codec;
use crate::error::StoreError;
use crate::integrity;
use crate::Result;
use bytes::{Buf, BufMut, Bytes, BytesMut};
use olap_model::BitSet;

const MAGIC_V2: u32 = 0x4F4C_4332;

fn put_varint(buf: &mut BytesMut, mut v: u64) {
    loop {
        let byte = (v & 0x7F) as u8;
        v >>= 7;
        if v == 0 {
            buf.put_u8(byte);
            return;
        }
        buf.put_u8(byte | 0x80);
    }
}

fn get_varint(buf: &mut &[u8]) -> Result<u64> {
    let mut out = 0u64;
    let mut shift = 0u32;
    loop {
        if !buf.has_remaining() {
            return Err(StoreError::Corrupt("truncated varint".into()));
        }
        let byte = buf.get_u8();
        if shift >= 63 && byte > 1 {
            return Err(StoreError::Corrupt("varint overflow".into()));
        }
        out |= ((byte & 0x7F) as u64) << shift;
        if byte & 0x80 == 0 {
            return Ok(out);
        }
        shift += 7;
    }
}

/// Whether a record payload carries the OLC2 compressed codec, looking
/// through an OLC3 checksum envelope if one is present (codec sniffing
/// cares about the logical encoding, not the integrity wrapper).
pub fn is_compressed(buf: &[u8]) -> bool {
    let buf = if integrity::is_checksummed(buf) {
        &buf[integrity::ENVELOPE_BYTES.min(buf.len())..]
    } else {
        buf
    };
    buf.len() >= 4 && u32::from_le_bytes(buf[..4].try_into().expect("len checked")) == MAGIC_V2
}

/// Serializes a chunk with the OLC2 compressed format. Fails if the
/// present-cell count overflows the format's `u32` count field.
pub fn encode_compressed(chunk: &Chunk) -> Result<Bytes> {
    let present: Vec<(u32, f64)> = chunk.present_cells().collect();
    let count = codec::count_u32(present.len(), "cell count")?;
    let constant = present
        .first()
        .map(|&(_, v0)| present.iter().all(|&(_, v)| v == v0))
        .unwrap_or(true);
    let mut buf = BytesMut::with_capacity(16 + chunk.shape().len() * 4 + present.len() * 9);
    buf.put_u32_le(MAGIC_V2);
    buf.put_u8(match chunk.data() {
        ChunkData::Dense { .. } => 0,
        ChunkData::Sparse { .. } => 1,
    });
    buf.put_u8(chunk.shape().len() as u8);
    for &s in chunk.shape() {
        buf.put_u32_le(s);
    }
    buf.put_u32_le(count);
    let mut prev: i64 = -1;
    for &(off, _) in &present {
        put_varint(&mut buf, (off as i64 - prev) as u64 - 1);
        prev = off as i64;
    }
    if constant {
        buf.put_u8(0);
        if let Some(&(_, v)) = present.first() {
            buf.put_f64_le(v);
        }
    } else {
        buf.put_u8(1);
        for &(_, v) in &present {
            buf.put_f64_le(v);
        }
    }
    Ok(buf.freeze())
}

/// Deserializes an OLC2 record.
pub fn decode_compressed(mut buf: &[u8]) -> Result<Chunk> {
    if buf.remaining() < 6 {
        return Err(StoreError::Corrupt("record too short".into()));
    }
    let magic = buf.get_u32_le();
    if magic != MAGIC_V2 {
        return Err(StoreError::Corrupt(format!("bad OLC2 magic 0x{magic:08X}")));
    }
    let layout = buf.get_u8();
    let rank = buf.get_u8() as usize;
    if buf.remaining() < rank * 4 + 4 {
        return Err(StoreError::Corrupt("truncated shape".into()));
    }
    let mut shape = Vec::with_capacity(rank);
    for _ in 0..rank {
        shape.push(buf.get_u32_le());
    }
    let n: u32 = shape.iter().product();
    let count = buf.get_u32_le() as usize;
    let mut offsets = Vec::with_capacity(count);
    let mut prev: i64 = -1;
    for _ in 0..count {
        let delta = get_varint(&mut buf)?;
        let off = prev + 1 + delta as i64;
        if off < 0 || off >= n as i64 {
            return Err(StoreError::Corrupt(format!("offset {off} out of {n}")));
        }
        offsets.push(off as u32);
        prev = off;
    }
    if !buf.has_remaining() {
        return Err(StoreError::Corrupt("missing value encoding byte".into()));
    }
    let venc = buf.get_u8();
    let values: Vec<f64> = match venc {
        0 => {
            if count == 0 {
                Vec::new()
            } else {
                if buf.remaining() < 8 {
                    return Err(StoreError::Corrupt("missing constant value".into()));
                }
                let v = buf.get_f64_le();
                vec![v; count]
            }
        }
        1 => {
            if buf.remaining() < count * 8 {
                return Err(StoreError::Corrupt("truncated values".into()));
            }
            (0..count).map(|_| buf.get_f64_le()).collect()
        }
        x => return Err(StoreError::Corrupt(format!("unknown value encoding {x}"))),
    };
    let entries: Vec<(u32, f64)> = offsets.into_iter().zip(values).collect();
    let data = match layout {
        0 => {
            let mut v = vec![0.0; n as usize];
            let mut present = BitSet::new(n);
            for &(o, x) in &entries {
                v[o as usize] = x;
                present.insert(o);
            }
            ChunkData::Dense { values: v, present }
        }
        1 => ChunkData::Sparse { entries },
        x => return Err(StoreError::Corrupt(format!("unknown layout {x}"))),
    };
    Chunk::from_parts(shape, data)
}

/// Decodes any record payload by magic: an OLC3 envelope (whose CRC is
/// verified before the inner codec runs) around OLC1/OLC2, or a bare
/// OLC1/OLC2 record from an older file.
pub fn decode_any(buf: &[u8]) -> Result<Chunk> {
    let buf = if integrity::is_checksummed(buf) {
        let inner = integrity::unwrap_verified(buf)?;
        if integrity::is_checksummed(inner) {
            return Err(StoreError::Corrupt("nested OLC3 envelope".into()));
        }
        inner
    } else {
        buf
    };
    if is_compressed(buf) {
        return decode_compressed(buf);
    }
    codec::decode(buf)
}

/// Compression ratio of OLC2 vs OLC1 for a chunk (< 1.0 = smaller).
pub fn compression_ratio(chunk: &Chunk) -> Result<f64> {
    let v1 = codec::encode(chunk)?.len() as f64;
    let v2 = encode_compressed(chunk)?.len() as f64;
    Ok(if v1 == 0.0 { 1.0 } else { v2 / v1 })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CellValue;

    #[test]
    fn roundtrip_dense() {
        let mut c = Chunk::new_dense(vec![4, 5]);
        for i in [0u32, 3, 7, 19] {
            c.set(i, CellValue::num(i as f64 * 1.5));
        }
        assert_eq!(
            decode_compressed(&encode_compressed(&c).unwrap()).unwrap(),
            c
        );
    }

    #[test]
    fn roundtrip_sparse_and_empty() {
        let mut c = Chunk::new_sparse(vec![100]);
        c.set(99, CellValue::num(-2.25));
        assert_eq!(
            decode_compressed(&encode_compressed(&c).unwrap()).unwrap(),
            c
        );
        let empty = Chunk::new_sparse(vec![8]);
        assert_eq!(
            decode_compressed(&encode_compressed(&empty).unwrap()).unwrap(),
            empty
        );
    }

    #[test]
    fn constant_runs_collapse() {
        // The perspective-cube pattern: one value repeated across a run.
        let mut c = Chunk::new_dense(vec![256]);
        for i in 0..256u32 {
            c.set(i, CellValue::num(10.0));
        }
        let v1 = codec::encode(&c).unwrap().len();
        let v2 = encode_compressed(&c).unwrap().len();
        // OLC1: 12 bytes/cell; OLC2: ~1 byte/cell + one f64.
        assert!(v2 * 8 < v1, "OLC2 {v2} vs OLC1 {v1}");
        assert!(compression_ratio(&c).unwrap() < 0.15);
        assert_eq!(
            decode_compressed(&encode_compressed(&c).unwrap()).unwrap(),
            c
        );
    }

    #[test]
    fn dense_offsets_cost_one_byte() {
        let mut c = Chunk::new_dense(vec![128]);
        for i in 0..128u32 {
            c.set(i, CellValue::num(i as f64)); // non-constant values
        }
        let v2 = encode_compressed(&c).unwrap().len();
        // Header ~14 + 128 offset bytes + 1 + 128×8 value bytes.
        assert!(v2 < 14 + 128 + 1 + 128 * 8 + 8);
        assert!(compression_ratio(&c).unwrap() < 0.8);
    }

    #[test]
    fn decode_any_dispatches_on_magic() {
        let mut c = Chunk::new_dense(vec![4]);
        c.set(2, CellValue::num(7.0));
        assert_eq!(decode_any(&codec::encode(&c).unwrap()).unwrap(), c);
        assert_eq!(decode_any(&encode_compressed(&c).unwrap()).unwrap(), c);
    }

    /// OLC3-enveloped payloads decode through `decode_any` for both
    /// inner codecs, and codec sniffing sees through the envelope.
    #[test]
    fn decode_any_handles_checksum_envelope() {
        let mut c = Chunk::new_dense(vec![4]);
        c.set(1, CellValue::num(3.5));
        let plain = integrity::wrap_checksummed(&codec::encode(&c).unwrap());
        let packed = integrity::wrap_checksummed(&encode_compressed(&c).unwrap());
        assert_eq!(decode_any(&plain).unwrap(), c);
        assert_eq!(decode_any(&packed).unwrap(), c);
        assert!(!is_compressed(&plain));
        assert!(is_compressed(&packed));
        // A nested envelope is corruption, not recursion.
        let nested = integrity::wrap_checksummed(&plain);
        assert!(matches!(decode_any(&nested), Err(StoreError::Corrupt(_))));
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
        let mut bad_wrapped = integrity::wrap_checksummed(&bare);
        bad_wrapped[integrity::ENVELOPE_BYTES + flip_at] ^= 0x01;
        assert!(matches!(
            decode_any(&bad_wrapped),
            Err(StoreError::Corrupt(_))
        ));
    }

    #[test]
    fn corruption_detected() {
        let mut c = Chunk::new_dense(vec![4]);
        c.set(1, CellValue::num(1.0));
        let good = encode_compressed(&c).unwrap();
        let mut bad = good.to_vec();
        bad[0] ^= 0xFF;
        assert!(decode_compressed(&bad).is_err());
        for cut in [2, 6, good.len() - 1] {
            assert!(decode_compressed(&good[..cut]).is_err());
        }
    }

    #[test]
    fn varint_roundtrip() {
        for v in [0u64, 1, 127, 128, 300, 1 << 20, u32::MAX as u64] {
            let mut buf = BytesMut::new();
            put_varint(&mut buf, v);
            let bytes = buf.freeze();
            let mut slice = &bytes[..];
            assert_eq!(get_varint(&mut slice).unwrap(), v);
            assert!(slice.is_empty());
        }
    }
}
