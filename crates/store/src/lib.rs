//! # olap-store
//!
//! Array-chunked multidimensional cube storage, modelled on the scheme of
//! Zhao, Deshpande, Naughton (SIGMOD'97) that both the paper's Essbase
//! deployment and its Section 5 algorithms assume:
//!
//! * the logical cube (cross product of the schema's axes) is partitioned
//!   into fixed-extent **chunks**;
//! * each chunk is stored **dense** (values + presence bitmap) or
//!   **sparse** ((offset, value) pairs) depending on its density;
//! * chunks live in a [`ChunkStore`] — in-memory ([`MemStore`]) or
//!   file-backed ([`FileStore`], with controllable physical chunk order and
//!   an optional seek-cost model for the paper's Fig. 12 co-location
//!   experiment);
//! * a fixed-capacity [`BufferPool`] mediates access, tracking hits,
//!   misses, evictions and — crucially for Section 5's pebbling analysis —
//!   the **peak number of simultaneously resident (pinned) chunks**.
//!
//! The null value ⊥ ("meaningless combination", paper Section 2) is a
//! first-class [`CellValue`]: chunks only materialize non-⊥ cells.

pub mod chunk;
pub mod codec;
pub mod compress;
pub mod error;
pub mod fault;
pub mod filestore;
pub mod geometry;
pub mod integrity;
pub mod memstore;
pub mod pool;
pub mod replication;
pub mod store;
pub mod value;
pub mod wal;

pub use chunk::{Chunk, ChunkData, PresentCells};
pub use compress::{decode_any, encode_compressed};
pub use error::StoreError;
pub use fault::{FaultKind, FaultOp, FaultSpec, FaultStore};
pub use filestore::{FileStore, ReplApply, SeekModel, TailRecovery};
pub use geometry::{CellCoord, ChunkCoord, ChunkGeometry, ChunkId, ChunkRuns, DimOrderIter};
pub use integrity::{crc32, is_checksummed, unwrap_verified, wrap_checksummed};
pub use memstore::MemStore;
pub use pool::{BufferPool, PoolStats};
pub use replication::{decode_txn, encode_txn, txn_end};
pub use store::{ChunkStore, IoSnapshot, IoStats};
pub use value::CellValue;
pub use wal::{Wal, WalChunk, WalRecovery, WalStats, WalTxn};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
