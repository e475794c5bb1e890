//! Shared chunk-staging helper for operators that rewrite whole cubes.

use crate::Result;
use olap_cube::Cube;
use olap_store::{CellValue, Chunk, ChunkGeometry, ChunkId};
use std::collections::BTreeMap;

/// Accumulates output cells into staged chunks, then writes them to an
/// output cube in one go — much cheaper than per-cell read-modify-write.
pub struct Stager<'g> {
    geometry: &'g ChunkGeometry,
    staged: BTreeMap<ChunkId, Chunk>,
}

impl<'g> Stager<'g> {
    /// A stager for cubes with the given geometry.
    pub fn new(geometry: &'g ChunkGeometry) -> Self {
        Stager {
            geometry,
            staged: BTreeMap::new(),
        }
    }

    /// Sets a cell (Null writes are ignored — absent cells are ⊥ anyway).
    pub fn set(&mut self, cell: &[u32], v: f64) {
        let (id, off) = self.geometry.split_cell(cell);
        let chunk = self.staged.entry(id).or_insert_with(|| {
            Chunk::new_dense(self.geometry.chunk_shape(&self.geometry.chunk_coord(id)))
        });
        chunk.set(off, CellValue::num(v));
    }

    /// Writes every staged chunk into `out`.
    pub fn flush_into(self, out: &Cube) -> Result<()> {
        for (id, chunk) in self.staged {
            if chunk.present_count() > 0 {
                out.put_chunk(id, chunk)?;
            }
        }
        Ok(())
    }
}
