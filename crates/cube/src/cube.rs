//! The [`Cube`]: a sealed schema plus chunked leaf-cell storage.

use crate::error::CubeError;
use crate::rules::RuleSet;
use crate::Result;
use olap_store::{
    BufferPool, CellValue, Chunk, ChunkGeometry, ChunkId, FileStore, MemStore, PoolStats,
};
use parking_lot::RwLock;
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use olap_model::Schema;

/// Where a cube's chunks live.
#[derive(Debug, Clone)]
pub enum StoreBackend {
    /// In-process `BTreeMap` store.
    Memory,
    /// Single-file store at the given path (created/truncated).
    File(PathBuf),
    /// Opens an existing single-file store at the given path, keeping
    /// its contents; staged builder cells are *discarded* — the file is
    /// the source of truth. This is how a replication follower mounts a
    /// copied base image: the dataset definition rebuilds the schema
    /// and geometry deterministically, while the chunk bytes (base
    /// image plus any replicated flushes) come from the file.
    Attach(PathBuf),
}

/// Builds a [`Cube`] by staging cells in memory, then compacting and
/// writing chunks to the chosen backend.
pub struct CubeBuilder {
    schema: Arc<Schema>,
    geometry: ChunkGeometry,
    backend: StoreBackend,
    pool_capacity: usize,
    dense_threshold: f64,
    rules: RuleSet,
    staged: BTreeMap<ChunkId, Chunk>,
}

impl CubeBuilder {
    /// Starts a builder. `extents[i]` is the chunk extent along dimension
    /// `i`; the schema must already be sealed.
    pub fn new(schema: Arc<Schema>, extents: Vec<u32>) -> Result<Self> {
        let lens = schema.shape();
        let geometry = ChunkGeometry::new(lens, extents)?;
        Ok(CubeBuilder {
            schema,
            geometry,
            backend: StoreBackend::Memory,
            pool_capacity: 1024,
            dense_threshold: 0.4,
            rules: RuleSet::default(),
            staged: BTreeMap::new(),
        })
    }

    /// Chooses the storage backend (default: memory).
    pub fn backend(mut self, b: StoreBackend) -> Self {
        self.backend = b;
        self
    }

    /// Buffer-pool capacity in chunks (default 1024).
    pub fn pool_capacity(mut self, n: usize) -> Self {
        self.pool_capacity = n;
        self
    }

    /// Density at or above which chunks stay dense (default 0.4).
    pub fn dense_threshold(mut self, t: f64) -> Self {
        self.dense_threshold = t;
        self
    }

    /// Installs the calculation rules.
    pub fn rules(mut self, rules: RuleSet) -> Self {
        self.rules = rules;
        self
    }

    /// Stages a leaf-cell value at global slot coordinates.
    pub fn set(&mut self, cell: &[u32], v: CellValue) -> Result<()> {
        self.geometry.check_cell(cell)?;
        let (id, off) = self.geometry.split_cell(cell);
        let chunk = self.staged.entry(id).or_insert_with(|| {
            Chunk::new_dense(self.geometry.chunk_shape(&self.geometry.chunk_coord(id)))
        });
        chunk.set(off, v);
        Ok(())
    }

    /// Stages a numeric value (convenience).
    pub fn set_num(&mut self, cell: &[u32], v: f64) -> Result<()> {
        self.set(cell, CellValue::num(v))
    }

    /// Compacts staged chunks and writes them to the backend as one flush
    /// transaction, the base image: a file-backed cube starts at flush
    /// epoch 1, and each later commit counts from there.
    pub fn finish(self) -> Result<Cube> {
        let attached = matches!(self.backend, StoreBackend::Attach(_));
        let mut store: Box<dyn olap_store::ChunkStore> = match &self.backend {
            StoreBackend::Memory => Box::new(MemStore::new()),
            StoreBackend::File(path) => Box::new(FileStore::create(path)?),
            StoreBackend::Attach(path) => Box::new(FileStore::open(path)?),
        };
        if !attached {
            // A failed build drops the store with its transaction open;
            // reopening the file rolls that back.
            store.begin_flush()?;
            for (id, mut chunk) in self.staged {
                if chunk.present_count() == 0 {
                    continue; // all-⊥ chunks are implicit
                }
                chunk.compact(self.dense_threshold);
                store.write(id, &chunk)?;
            }
            store.commit_flush()?;
        }
        Ok(Cube {
            schema: self.schema,
            geometry: self.geometry,
            pool: Arc::new(BufferPool::new(store, self.pool_capacity)),
            shared: RwLock::default(),
            sharing: AtomicBool::new(false),
            rules: self.rules,
            dense_threshold: self.dense_threshold,
        })
    }
}

/// A multidimensional cube: leaf cells over the schema's axes, chunked.
///
/// Cells not explicitly stored are ⊥. Reads and writes go through an
/// internal [`BufferPool`], which also decides which chunks exist; the
/// pool (its store, generation and statistics) is reachable via
/// [`Cube::with_pool`]. A derived cube may also *share* positions with
/// another cube ([`Cube::share_chunk`]): such a position is read through
/// the pool that owns its chunk, at read time, and a write to it lands
/// in this cube's own pool only.
pub struct Cube {
    schema: Arc<Schema>,
    geometry: ChunkGeometry,
    pool: Arc<BufferPool>,
    /// Shared positions by chunk id here: what each one reads.
    shared: RwLock<BTreeMap<ChunkId, SharedChunk>>,
    /// Whether this cube ever shared a position: one that never did
    /// (every base cube) reads its own pool without touching `shared`.
    sharing: AtomicBool,
    rules: RuleSet,
    dense_threshold: f64,
}

/// A position read through another cube's pool: the pool that owns the
/// chunk, and the chunk's id there.
#[derive(Clone)]
struct SharedChunk {
    pool: Arc<BufferPool>,
    id: ChunkId,
}

impl std::fmt::Debug for Cube {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Cube")
            .field("shape", &self.geometry.lens())
            .field("chunks", &self.chunk_count())
            .finish()
    }
}

impl Cube {
    /// Starts a [`CubeBuilder`].
    pub fn builder(schema: Arc<Schema>, extents: Vec<u32>) -> Result<CubeBuilder> {
        CubeBuilder::new(schema, extents)
    }

    /// The schema.
    pub fn schema(&self) -> &Arc<Schema> {
        &self.schema
    }

    /// The chunk geometry.
    pub fn geometry(&self) -> &ChunkGeometry {
        &self.geometry
    }

    /// The calculation rules.
    pub fn rules(&self) -> &RuleSet {
        &self.rules
    }

    /// Replaces the rule set (rules are metadata, not cell data).
    pub fn set_rules(&mut self, rules: RuleSet) {
        self.rules = rules;
    }

    /// Reads a leaf cell by global slot coordinates.
    pub fn get(&self, cell: &[u32]) -> Result<CellValue> {
        self.geometry.check_cell(cell)?;
        let (id, off) = self.geometry.split_cell(cell);
        Ok(self
            .read(id)?
            .map_or(CellValue::Null, |chunk| chunk.get(off)))
    }

    /// Writes a leaf cell (read-modify-write of its chunk). Not atomic
    /// against concurrent `set` calls on the same chunk; writers should
    /// be externally serialized (the parallel executors only read). A
    /// shared position is copied on write: the cell's new chunk goes to
    /// this cube's pool, and the owner's chunk is left as it was.
    pub fn set(&self, cell: &[u32], v: CellValue) -> Result<()> {
        self.geometry.check_cell(cell)?;
        let (id, off) = self.geometry.split_cell(cell);
        let mut chunk = match self.read(id)? {
            Some(chunk) => (*chunk).clone(),
            None => Chunk::new_dense(self.geometry.chunk_shape(&self.geometry.chunk_coord(id))),
        };
        chunk.set(off, v);
        self.install(id, Arc::new(chunk))
    }

    /// Fetches a chunk by id; missing chunks come back as all-⊥.
    pub fn chunk(&self, id: ChunkId) -> Result<Arc<Chunk>> {
        Ok(self.read(id)?.unwrap_or_else(|| {
            let shape = self.geometry.chunk_shape(&self.geometry.chunk_coord(id));
            Arc::new(Chunk::new_dense(shape))
        }))
    }

    /// The chunk at `id`, or `None` if it is not materialized: one pool
    /// call, to the owner's pool for a shared position and to this
    /// cube's own otherwise.
    fn read(&self, id: ChunkId) -> Result<Option<Arc<Chunk>>> {
        if self.sharing.load(Ordering::Acquire) {
            if let Some(at) = self.shared.read().get(&id) {
                return Ok(Some(at.pool.get(at.id)?));
            }
        }
        Ok(self.pool.get_present(id)?)
    }

    /// Puts `chunk` in this cube's own pool at `id`, which stops sharing
    /// that position (after the put, so a reader never finds it absent).
    fn install(&self, id: ChunkId, chunk: Arc<Chunk>) -> Result<()> {
        self.pool.put(id, chunk)?;
        if self.sharing.load(Ordering::Acquire) {
            self.shared.write().remove(&id);
        }
        Ok(())
    }

    /// Whether a chunk is materialized.
    pub fn chunk_exists(&self, id: ChunkId) -> bool {
        (self.sharing.load(Ordering::Acquire) && self.shared.read().contains_key(&id))
            || self.pool.contains(id)
    }

    /// Ids of all materialized chunks, flushed or not, shared or own,
    /// ascending.
    pub fn chunk_ids(&self) -> Vec<ChunkId> {
        let mut ids = self.pool.ids();
        if self.sharing.load(Ordering::Acquire) {
            ids.extend(self.shared.read().keys());
            ids.sort_unstable();
            ids.dedup();
        }
        ids
    }

    /// Number of materialized chunks.
    pub fn chunk_count(&self) -> usize {
        self.chunk_ids().len()
    }

    /// Makes position `id` read as `from`'s chunk at `from_id`, which
    /// must exist there, without reading it: every later read resolves
    /// through the pool that owns that chunk (`from`'s own, or the one
    /// `from` shares it with), so a write to the base between this call
    /// and a read shows in that read. Nothing is put in this cube's
    /// pool; a write here copies on write ([`Cube::set`],
    /// [`Cube::put_chunk`]) and never reaches the owner.
    pub fn share_chunk(&self, id: ChunkId, from: &Cube, from_id: ChunkId) {
        let shared = from.sharing.load(Ordering::Acquire);
        let owner = (shared.then(|| from.shared.read().get(&from_id).cloned()))
            .flatten()
            .unwrap_or_else(|| SharedChunk {
                pool: Arc::clone(&from.pool),
                id: from_id,
            });
        self.shared.write().insert(id, owner);
        self.sharing.store(true, Ordering::Release);
    }

    /// What each shared position reads, named without reading it: (id
    /// here, id in `owner`), ascending by id here, each with `owner`'s
    /// pool [`BufferPool::generation`] and store flush epoch. The two are
    /// read once, before the call returns, so a caller that reads a chunk
    /// afterwards reads it at that version or a later one. Every write
    /// that can change what a read of `owner` returns moves one of them:
    /// a `put` the generation, a commit or a replicated apply the epoch.
    ///
    /// # Panics
    ///
    /// If a position shares another cube's chunk: a version is only
    /// meaningful in the pool it was read from.
    pub fn shared_versions(&self, owner: &Cube) -> Vec<(ChunkId, ChunkId, u64, u64)> {
        let generation = owner.pool.generation();
        let epoch = owner.pool.store().flush_epoch();
        let shared = self.shared.read();
        (shared.iter())
            .map(|(&here, at)| {
                assert!(
                    Arc::ptr_eq(&at.pool, &owner.pool),
                    "chunk {here:?} is shared with another cube"
                );
                (here, at.id, generation, epoch)
            })
            .collect()
    }

    /// Runs a closure with access to the (thread-safe) buffer pool
    /// (executors, statistics readers).
    pub fn with_pool<R>(&self, f: impl FnOnce(&BufferPool) -> R) -> R {
        f(&self.pool)
    }

    /// Snapshot of the buffer pool's counters.
    pub fn pool_stats(&self) -> PoolStats {
        self.pool.stats()
    }

    /// Calls `f(cell, value)` for every stored non-⊥ leaf cell.
    pub fn for_each_present(&self, mut f: impl FnMut(&[u32], f64)) -> Result<()> {
        let ids = self.chunk_ids();
        let mut cell = Vec::with_capacity(self.geometry.ndims());
        for id in ids {
            let coord = self.geometry.chunk_coord(id);
            let chunk = self.chunk(id)?;
            for (off, v) in chunk.present_cells() {
                self.geometry.cell_of_local_into(&coord, off, &mut cell);
                f(&cell, v);
            }
        }
        Ok(())
    }

    /// Sum of non-⊥ leaf cells (sanity metric used by invariant tests).
    pub fn total_sum(&self) -> Result<f64> {
        let mut s = 0.0;
        self.for_each_present(|_, v| s += v)?;
        Ok(s)
    }

    /// Number of non-⊥ leaf cells (a per-chunk count; no cell decode).
    pub fn present_cell_count(&self) -> Result<u64> {
        let mut n = 0u64;
        for id in self.chunk_ids() {
            n += u64::from(self.chunk(id)?.present_count());
        }
        Ok(n)
    }

    /// An empty cube for `schema` (this cube's, or e.g. a split-extended
    /// one), carrying this cube's rules and chunk extents where they
    /// still fit — the starting point for operators that rewrite cells.
    /// Its chunks live only in its pool, which never evicts: a derived
    /// cube keeps each chunk once, resident, rather than spilling frames
    /// into a second in-memory copy and reading them back.
    pub fn empty_for_schema(&self, schema: Arc<Schema>) -> Result<Cube> {
        let geometry = self.geometry_for_schema(&schema)?;
        Ok(Cube {
            schema,
            geometry,
            pool: Arc::new(BufferPool::new(Box::new(MemStore::new()), usize::MAX)),
            shared: RwLock::default(),
            sharing: AtomicBool::new(false),
            rules: self.rules.clone(),
            dense_threshold: self.dense_threshold,
        })
    }

    /// The chunk geometry [`Cube::empty_for_schema`] gives `schema`'s
    /// cube: this cube's extents where they still fit.
    pub fn geometry_for_schema(&self, schema: &Schema) -> Result<ChunkGeometry> {
        let lens = schema.shape();
        let extents: Vec<u32> = self
            .geometry
            .extents()
            .iter()
            .copied()
            .chain(std::iter::repeat(8))
            .take(lens.len())
            .collect();
        Ok(ChunkGeometry::new(lens, extents)?)
    }

    /// Writes a whole chunk (used by the chunked executors). An owned
    /// chunk is compacted, then wrapped; a shared one — another cube's
    /// `Arc` — is installed as it is, so both cubes hold one allocation.
    /// A shared position stops being shared.
    pub fn put_chunk(&self, id: ChunkId, chunk: impl Into<Arc<Chunk>>) -> Result<()> {
        let mut chunk = chunk.into();
        if let Some(owned) = Arc::get_mut(&mut chunk) {
            owned.compact(self.dense_threshold);
        }
        self.install(id, chunk)
    }

    /// Flushes dirty pool frames to the backing store.
    pub fn flush(&self) -> Result<()> {
        self.pool.flush_all()?;
        Ok(())
    }

    /// Cell-by-cell equality with another cube of identical geometry.
    pub fn same_cells(&self, other: &Cube) -> Result<bool> {
        if self.geometry.lens() != other.geometry.lens() {
            return Ok(false);
        }
        let mut mine: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        self.for_each_present(|c, v| {
            mine.insert(c.to_vec(), v);
        })?;
        let mut theirs: BTreeMap<Vec<u32>, f64> = BTreeMap::new();
        other.for_each_present(|c, v| {
            theirs.insert(c.to_vec(), v);
        })?;
        Ok(mine == theirs)
    }

    pub(crate) fn check_rank(&self, got: usize) -> Result<()> {
        let expected = self.geometry.ndims();
        if got != expected {
            return Err(CubeError::BadCellRef { expected, got });
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::{DimensionSpec, SchemaBuilder};

    fn small_schema() -> Arc<Schema> {
        Arc::new(
            SchemaBuilder::new()
                .dimension(
                    DimensionSpec::new("Time")
                        .ordered()
                        .leaves(&["Jan", "Feb", "Mar", "Apr"]),
                )
                .dimension(DimensionSpec::new("Product").leaves(&["TV", "Radio", "Web"]))
                .build()
                .unwrap(),
        )
    }

    #[test]
    fn build_and_read_back() {
        let mut b = Cube::builder(small_schema(), vec![2, 2]).unwrap();
        b.set_num(&[0, 0], 10.0).unwrap();
        b.set_num(&[3, 2], 7.0).unwrap();
        let cube = b.finish().unwrap();
        assert_eq!(cube.get(&[0, 0]).unwrap(), CellValue::Num(10.0));
        assert_eq!(cube.get(&[3, 2]).unwrap(), CellValue::Num(7.0));
        assert_eq!(cube.get(&[1, 1]).unwrap(), CellValue::Null);
        // Cells in never-touched chunks are ⊥ too.
        assert_eq!(cube.get(&[2, 0]).unwrap(), CellValue::Null);
    }

    #[test]
    fn set_after_build() {
        let cube = Cube::builder(small_schema(), vec![2, 2])
            .unwrap()
            .finish()
            .unwrap();
        cube.set(&[1, 1], CellValue::num(5.0)).unwrap();
        assert_eq!(cube.get(&[1, 1]).unwrap(), CellValue::Num(5.0));
        cube.set(&[1, 1], CellValue::Null).unwrap();
        assert_eq!(cube.get(&[1, 1]).unwrap(), CellValue::Null);
    }

    #[test]
    fn for_each_present_visits_all() {
        let mut b = Cube::builder(small_schema(), vec![2, 2]).unwrap();
        b.set_num(&[0, 0], 1.0).unwrap();
        b.set_num(&[1, 2], 2.0).unwrap();
        b.set_num(&[3, 1], 3.0).unwrap();
        let cube = b.finish().unwrap();
        let mut seen = Vec::new();
        cube.for_each_present(|c, v| seen.push((c.to_vec(), v)))
            .unwrap();
        seen.sort_by(|a, b| a.0.cmp(&b.0));
        assert_eq!(
            seen,
            vec![(vec![0, 0], 1.0), (vec![1, 2], 2.0), (vec![3, 1], 3.0)]
        );
        assert_eq!(cube.total_sum().unwrap(), 6.0);
        assert_eq!(cube.present_cell_count().unwrap(), 3);
    }

    #[test]
    fn empty_chunks_not_materialized() {
        let mut b = Cube::builder(small_schema(), vec![2, 2]).unwrap();
        b.set(&[0, 0], CellValue::Null).unwrap();
        b.set_num(&[3, 2], 1.0).unwrap();
        let cube = b.finish().unwrap();
        assert_eq!(cube.chunk_count(), 1);
    }

    #[test]
    fn same_cells_detects_difference() {
        let build = |v: f64| {
            let mut b = Cube::builder(small_schema(), vec![2, 2]).unwrap();
            b.set_num(&[0, 0], v).unwrap();
            b.finish().unwrap()
        };
        let a = build(1.0);
        assert!(a.same_cells(&build(1.0)).unwrap());
        assert!(!a.same_cells(&build(2.0)).unwrap());
    }

    #[test]
    fn file_backend_roundtrip() {
        let mut path = std::env::temp_dir();
        path.push(format!("olap-cube-test-{}.dat", std::process::id()));
        let mut b = Cube::builder(small_schema(), vec![2, 2])
            .unwrap()
            .backend(StoreBackend::File(path.clone()));
        b.set_num(&[2, 1], 9.0).unwrap();
        let cube = b.finish().unwrap();
        assert_eq!(cube.get(&[2, 1]).unwrap(), CellValue::Num(9.0));
        assert!(cube.with_pool(|p| p.store().stats().bytes_written()) > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn a_write_to_a_shared_position_copies_on_write() {
        let mut b = Cube::builder(small_schema(), vec![2, 2]).unwrap();
        b.set_num(&[0, 0], 1.0).unwrap();
        b.set_num(&[3, 2], 2.0).unwrap();
        let base = b.finish().unwrap();
        let view = base.empty_for_schema(Arc::clone(base.schema())).unwrap();
        for id in base.chunk_ids() {
            view.share_chunk(id, &base, id);
        }
        assert!(view.same_cells(&base).unwrap());
        assert_eq!(view.shared_versions(&base).len(), 2);
        let generation = base.with_pool(|p| p.generation());
        view.set(&[0, 1], CellValue::num(5.0)).unwrap();
        view.set(&[0, 0], CellValue::num(7.0)).unwrap();
        // The base keeps its cells and its version; the view holds the
        // written chunk itself and still shares the other.
        assert_eq!(base.get(&[0, 0]).unwrap(), CellValue::Num(1.0));
        assert_eq!(base.get(&[0, 1]).unwrap(), CellValue::Null);
        assert_eq!(base.with_pool(|p| p.generation()), generation);
        assert_eq!(view.get(&[0, 0]).unwrap(), CellValue::Num(7.0));
        assert_eq!(view.get(&[0, 1]).unwrap(), CellValue::Num(5.0));
        assert_eq!(view.get(&[3, 2]).unwrap(), CellValue::Num(2.0));
        assert_eq!(view.shared_versions(&base).len(), 1);
        assert_eq!(view.chunk_ids(), base.chunk_ids());
        // A whole-chunk write stops sharing the last position too.
        let id = view.shared_versions(&base)[0].0;
        let shape = view
            .geometry()
            .chunk_shape(&view.geometry().chunk_coord(id));
        view.put_chunk(id, Chunk::new_dense(shape)).unwrap();
        assert!(view.shared_versions(&base).is_empty());
        assert_eq!(base.get(&[3, 2]).unwrap(), CellValue::Num(2.0));
        assert_eq!(base.with_pool(|p| p.generation()), generation);
    }

    #[test]
    fn out_of_bounds_rejected() {
        let cube = Cube::builder(small_schema(), vec![2, 2])
            .unwrap()
            .finish()
            .unwrap();
        assert!(cube.get(&[4, 0]).is_err());
        assert!(cube.get(&[0]).is_err());
    }
}
