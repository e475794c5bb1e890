//! Replication frames: what a leader ships and a follower validates.
//!
//! A frame is the literal log bytes of one committed flush transaction:
//! its `BEGIN` record, its chunk records and its `COMMIT` record, exactly
//! as they sit in the leader's store file (DESIGN.md §17). That choice
//! buys three things:
//!
//! * **No second format.** [`parse_frame`] runs the marker parser
//!   [`crate::FileStore::open`] runs. The markers' envelopes and the
//!   `COMMIT`'s seal (a CRC-32 of every byte before it) leave no byte of
//!   a frame unchecked.
//! * **Torn streams fail closed.** A frame cut anywhere is refused whole —
//!   a follower never sees a partial transaction.
//! * **Byte-identical logs.** The follower appends the frame verbatim, so
//!   its file length is its position in the leader's history.

use crate::error::StoreError;
use crate::filestore::{frame_records, marker_fields, scan_txns, Rec, BEGIN_ID};
use crate::Result;

/// A validated frame.
#[derive(Debug, PartialEq, Eq)]
pub(crate) struct Frame {
    /// The transaction's flush epoch.
    pub(crate) epoch: u64,
    /// Log offset of the `BEGIN` record.
    pub(crate) start: u64,
    /// Log offset just past the `COMMIT` record.
    pub(crate) end: u64,
    /// The frame's records: `BEGIN`, the chunk records, `COMMIT`.
    pub(crate) recs: Vec<Rec>,
}

/// Validates one shipped frame: exactly one committed transaction and
/// nothing else, or [`StoreError::Corrupt`].
pub(crate) fn parse_frame(bytes: &[u8]) -> Result<Frame> {
    let bad = |what: &str| StoreError::Corrupt(format!("replication frame: {what}"));
    let recs = frame_records(bytes);
    let start = recs
        .first()
        .filter(|r| r.id == BEGIN_ID)
        .and_then(|r| marker_fields(&bytes[r.payload.clone()]))
        .map(|(_, main_start)| main_start)
        .ok_or_else(|| bad("does not open with a BEGIN record"))?;
    let scan = scan_txns(bytes, start, &recs)?;
    if !matches!(scan.committed.as_slice(), [txn] if *txn == (0..bytes.len())) {
        return Err(bad("not exactly one committed transaction"));
    }
    let end = start
        .checked_add(bytes.len() as u64)
        .ok_or_else(|| bad("ends past the last log offset"))?;
    Ok(Frame {
        epoch: scan.epoch,
        start,
        end,
        recs,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chunk::Chunk;
    use crate::filestore::tests::commit;
    use crate::geometry::ChunkId;
    use crate::store::ChunkStore;
    use crate::value::CellValue;
    use crate::FileStore;

    fn chunk(v: f64) -> Chunk {
        let mut c = Chunk::new_dense(vec![4]);
        c.set(1, CellValue::num(v));
        c
    }

    /// The frames of a capturing leader that committed a one-chunk base
    /// image, then one transaction per entry of `txns` (the chunk ids it
    /// writes), with the position capture started at.
    fn frames(name: &str, txns: &[&[u64]]) -> (Vec<Vec<u8>>, u64) {
        let path =
            std::env::temp_dir().join(format!("olap-repl-test-{}-{name}", std::process::id()));
        let mut s = FileStore::create(&path).unwrap();
        commit(&mut s, &[(ChunkId(0), chunk(0.5))]);
        s.set_replication(true);
        let base = s.replication_position();
        for ids in txns {
            let writes: Vec<_> = ids
                .iter()
                .map(|&id| (ChunkId(id), chunk(id as f64)))
                .collect();
            commit(&mut s, &writes);
        }
        let frames = s.retained_since(base).unwrap();
        std::fs::remove_file(&path).ok();
        (frames, base)
    }

    #[test]
    fn txn_roundtrips() {
        let (frames, base) = frames("roundtrip", &[&[11, 13]]);
        let f = parse_frame(&frames[0]).unwrap();
        assert_eq!((f.epoch, f.start), (2, base));
        assert_eq!(f.end, base + frames[0].len() as u64);
        let ids: Vec<u64> = f.recs.iter().map(|r| r.id).collect();
        assert_eq!(ids, [BEGIN_ID, 11, 13, u64::MAX - 1]);
    }

    #[test]
    fn empty_txn_roundtrips() {
        let (frames, base) = frames("empty", &[&[]]);
        let f = parse_frame(&frames[0]).unwrap();
        assert_eq!((f.epoch, f.start, f.recs.len()), (2, base, 2));
    }

    /// An open transaction is never shipped, and its bytes without a
    /// `COMMIT` are no frame.
    #[test]
    fn uncommitted_txn_refuses_to_encode() {
        let path =
            std::env::temp_dir().join(format!("olap-repl-test-{}-uncommitted", std::process::id()));
        let mut s = FileStore::create(&path).unwrap();
        s.set_replication(true);
        s.begin_flush().unwrap();
        s.write(ChunkId(3), &chunk(3.0)).unwrap();
        assert!(s.retained_since(0).unwrap().is_empty());
        assert_eq!(s.replication_position(), 0);
        let open_txn = std::fs::read(&path).unwrap();
        assert!(parse_frame(&open_txn).is_err());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn every_torn_prefix_is_rejected() {
        let (frames, _) = frames("torn", &[&[1, 2]]);
        let bytes = &frames[0];
        for cut in 0..bytes.len() {
            assert!(parse_frame(&bytes[..cut]).is_err(), "cut {cut}");
        }
    }

    #[test]
    fn bit_flips_are_rejected() {
        let (frames, _) = frames("flips", &[&[1, 2]]);
        let bytes = &frames[0];
        for pos in [5, 20, bytes.len() / 2, bytes.len() - 2] {
            let mut bad = bytes.clone();
            bad[pos] ^= 0x10;
            assert!(parse_frame(&bad).is_err(), "flip at {pos}");
        }
    }

    #[test]
    fn trailing_garbage_is_rejected() {
        let (frames, _) = frames("trailing", &[&[1]]);
        let mut bytes = frames[0].clone();
        bytes.extend_from_slice(b"xx");
        assert!(parse_frame(&bytes).is_err());
    }

    #[test]
    fn two_txns_in_one_frame_are_rejected() {
        let (frames, _) = frames("two", &[&[1], &[2]]);
        assert!(parse_frame(&frames.concat()).is_err());
    }
}
