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
//! * the [`FileStore`] log is its own write-ahead log: a flush transaction
//!   is a `BEGIN` record, its chunk records and a `COMMIT` record in the
//!   store file; every chunk record, the built base image's included,
//!   sits in one, so every byte the store trusts is under a checksum;
//!   recovery truncates everything after the last `COMMIT`, and a
//!   replication frame is the exact log bytes of one committed
//!   transaction;
//! * a fixed-capacity [`BufferPool`] mediates access: an LRU cache of
//!   chunks that counts hits, misses and evictions, and the one place
//!   that knows which chunks exist (stored, or written but not yet
//!   flushed).
//!
//! The null value ⊥ ("meaningless combination", paper Section 2) is a
//! first-class [`CellValue`]: chunks only materialize non-⊥ cells.

pub mod chunk;
pub mod codec;
pub mod error;
pub mod fault;
pub mod filestore;
pub mod geometry;
pub mod integrity;
pub mod memstore;
pub mod pool;
mod replication;
pub mod store;
pub mod value;

pub use chunk::{Chunk, ChunkData, PresentCells};
/// Decodes the OLC1 codec payload a verified record envelope holds
/// ([`unwrap_verified`]); OLC1 is the only chunk codec.
pub use codec::decode as decode_any;
pub use error::StoreError;
pub use fault::{FaultKind, FaultOp, FaultSpec, FaultStore};
pub use filestore::{FileStore, ReplApply, SeekModel, TailRecovery, WalStats};
pub use geometry::{CellCoord, ChunkCoord, ChunkGeometry, ChunkId, ChunkRuns, DimOrderIter};
pub use integrity::{crc32, is_checksummed, unwrap_verified, wrap_checksummed};
pub use memstore::MemStore;
pub use pool::{BufferPool, PoolStats};
pub use store::{ChunkStore, IoStats};
pub use value::CellValue;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, StoreError>;
