//! The chunk-store abstraction and its I/O statistics.

use crate::chunk::Chunk;
use crate::geometry::ChunkId;
use crate::Result;
use std::sync::atomic::{AtomicU64, Ordering};

/// Cumulative I/O counters, kept with interior mutability so reads can
/// stay `&self`.
#[derive(Debug, Default)]
pub struct IoStats {
    reads: AtomicU64,
    writes: AtomicU64,
    bytes_read: AtomicU64,
    bytes_written: AtomicU64,
    /// Sum of absolute file-offset distances between consecutive reads —
    /// the quantity the paper's Fig. 12 varies via chunk co-location.
    seek_distance: AtomicU64,
}

impl IoStats {
    /// Records a chunk read of `bytes` at seek distance `dist`.
    pub fn record_read(&self, bytes: u64, dist: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
        self.seek_distance.fetch_add(dist, Ordering::Relaxed);
    }

    /// Records a chunk write of `bytes`.
    pub fn record_write(&self, bytes: u64) {
        self.writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    /// Number of chunk reads.
    pub fn reads(&self) -> u64 {
        self.reads.load(Ordering::Relaxed)
    }

    /// Number of chunk writes.
    pub fn writes(&self) -> u64 {
        self.writes.load(Ordering::Relaxed)
    }

    /// Bytes read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }

    /// Bytes written.
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total seek distance across reads.
    pub fn seek_distance(&self) -> u64 {
        self.seek_distance.load(Ordering::Relaxed)
    }
}

/// A keyed store of chunks.
///
/// Chunks are read by value: the perspective-cube executor mutates private
/// copies while merging, and the buffer pool handles sharing. `read` is
/// `&self` (and implementations keep it safe for concurrent callers) so
/// the buffer pool can serve parallel readers; `write` is `&mut self` and
/// serialized by the pool.
pub trait ChunkStore: Send + Sync {
    /// Reads a chunk, erroring if absent.
    fn read(&self, id: ChunkId) -> Result<Chunk>;

    /// Writes (or replaces) a chunk.
    fn write(&mut self, id: ChunkId, chunk: &Chunk) -> Result<()>;

    /// Whether the chunk exists. Absent chunks are implicitly all-⊥.
    fn contains(&self, id: ChunkId) -> bool;

    /// Ids of all stored chunks, ascending.
    fn ids(&self) -> Vec<ChunkId>;

    /// Cumulative I/O counters.
    fn stats(&self) -> &IoStats;

    /// Opens a flush transaction: every `write` until the matching
    /// [`ChunkStore::commit_flush`] or [`ChunkStore::abort_flush`]
    /// belongs to one all-or-nothing unit. Stores without a durability
    /// story (e.g. [`crate::MemStore`], where a crash loses everything
    /// anyway) default to a no-op, so the buffer pool can speak the
    /// protocol unconditionally.
    fn begin_flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// Commits the open flush transaction, returning the store's flush
    /// epoch (a commit LSN; 0 for stores that don't track one). After a
    /// successful commit the transaction's writes are durable and
    /// survive a crash as a unit: the commit is the store's only fsync.
    fn commit_flush(&mut self) -> Result<u64> {
        Ok(0)
    }

    /// Rolls back the open flush transaction, undoing its writes (a
    /// no-op if none is open). Called by the pool when a flush write
    /// fails terminally, so a half-written flush never becomes visible.
    fn abort_flush(&mut self) -> Result<()> {
        Ok(())
    }

    /// The last committed flush epoch (0 if the store tracks none).
    fn flush_epoch(&self) -> u64 {
        0
    }

    /// Downcast support (e.g. to reach [`crate::FileStore::reorganize`]
    /// through a `Box<dyn ChunkStore>`).
    fn as_any(&self) -> &dyn std::any::Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_accumulate_and_reset() {
        let s = IoStats::default();
        s.record_read(100, 10);
        s.record_read(50, 0);
        s.record_write(30);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.bytes_read(), 150);
        assert_eq!(s.seek_distance(), 10);
        assert_eq!(s.writes(), 1);
        assert_eq!(s.bytes_written(), 30);
    }
}
