//! In-memory chunk store.

use crate::chunk::Chunk;
use crate::error::StoreError;
use crate::geometry::ChunkId;
use crate::store::{ChunkStore, IoStats};
use crate::Result;
use std::collections::BTreeMap;

/// A `BTreeMap`-backed store — the default for tests and in-memory cubes.
///
/// I/O statistics still accumulate (byte sizes use the chunks' approximate
/// heap footprint) so algorithms can be analyzed without touching disk.
#[derive(Debug, Default)]
pub struct MemStore {
    chunks: BTreeMap<ChunkId, Chunk>,
    stats: IoStats,
}

impl MemStore {
    /// An empty store.
    pub fn new() -> Self {
        Self::default()
    }
}

impl ChunkStore for MemStore {
    fn read(&self, id: ChunkId) -> Result<Chunk> {
        let c = self
            .chunks
            .get(&id)
            .ok_or(StoreError::MissingChunk(id))?
            .clone();
        self.stats.record_read(c.byte_size() as u64, 0);
        Ok(c)
    }

    fn write(&mut self, id: ChunkId, chunk: &Chunk) -> Result<()> {
        self.stats.record_write(chunk.byte_size() as u64);
        self.chunks.insert(id, chunk.clone());
        Ok(())
    }

    fn contains(&self, id: ChunkId) -> bool {
        self.chunks.contains_key(&id)
    }

    fn ids(&self) -> Vec<ChunkId> {
        self.chunks.keys().copied().collect()
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::value::CellValue;

    #[test]
    fn write_read_roundtrip() {
        let mut s = MemStore::new();
        let mut c = Chunk::new_dense(vec![4]);
        c.set(2, CellValue::num(5.0));
        s.write(ChunkId(3), &c).unwrap();
        assert!(s.contains(ChunkId(3)));
        assert!(!s.contains(ChunkId(4)));
        assert_eq!(s.read(ChunkId(3)).unwrap(), c);
        assert_eq!(s.ids(), vec![ChunkId(3)]);
        assert_eq!(s.ids().len(), 1);
    }

    #[test]
    fn missing_chunk_errors() {
        let s = MemStore::new();
        assert!(matches!(
            s.read(ChunkId(0)),
            Err(StoreError::MissingChunk(_))
        ));
    }

    #[test]
    fn stats_count_io() {
        let mut s = MemStore::new();
        let c = Chunk::new_dense(vec![4]);
        s.write(ChunkId(0), &c).unwrap();
        s.read(ChunkId(0)).unwrap();
        s.read(ChunkId(0)).unwrap();
        assert_eq!(s.stats().writes(), 1);
        assert_eq!(s.stats().reads(), 2);
    }
}
