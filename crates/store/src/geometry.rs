//! Chunk geometry: how the logical cell space maps onto chunks.
//!
//! The logical cube is an n-dimensional array over the schema's axes. Each
//! axis `i` of length `lens[i]` is split into extents of `chunk_extents[i]`
//! cells; the cross product of extents forms the chunk grid (the paper's
//! Fig. 6 shows a 4×4×4 grid of 64 chunks). Edge chunks are clipped.
//!
//! Two linearizations matter:
//!
//! * **Canonical chunk ids** ([`ChunkId`]): row-major over the grid with
//!   the *last* dimension varying fastest. Stable — used as storage keys.
//! * **Dimension-order traversal** ([`DimOrderIter`]): the paper reads
//!   chunks "in dimension order ABC", meaning A varies fastest. Section 5's
//!   Lemma 5.1 is about choosing this order; the iterator takes an explicit
//!   permutation where `order[0]` is the fastest-varying dimension.

use crate::error::StoreError;
use crate::Result;

/// Global cell coordinates, one ordinal per dimension axis.
pub type CellCoord = Vec<u32>;

/// Chunk-grid coordinates, one per dimension.
pub type ChunkCoord = Vec<u32>;

/// Canonical chunk identifier (row-major grid linearization).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ChunkId(pub u64);

impl std::fmt::Debug for ChunkId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "Chunk({})", self.0)
    }
}

/// The chunking of a cube's logical cell space.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ChunkGeometry {
    lens: Vec<u32>,
    extents: Vec<u32>,
    grid: Vec<u32>,
}

impl ChunkGeometry {
    /// Creates a geometry. `lens[i]` is the axis length, `extents[i]` the
    /// chunk extent along axis `i`; extents are clamped to the axis length
    /// and must be ≥ 1 (0 extents are an error).
    pub fn new(lens: Vec<u32>, extents: Vec<u32>) -> Result<Self> {
        if lens.len() != extents.len() {
            return Err(StoreError::Corrupt(format!(
                "geometry rank mismatch: {} axis lengths vs {} extents",
                lens.len(),
                extents.len()
            )));
        }
        let mut ext = Vec::with_capacity(extents.len());
        for (i, (&l, &e)) in lens.iter().zip(&extents).enumerate() {
            if e == 0 {
                return Err(StoreError::OutOfBounds {
                    what: "chunk extent",
                    got: 0,
                    bound: i as u64,
                });
            }
            ext.push(e.min(l.max(1)));
        }
        let grid = lens
            .iter()
            .zip(&ext)
            .map(|(&l, &e)| l.div_ceil(e).max(1))
            .collect();
        Ok(ChunkGeometry {
            lens,
            extents: ext,
            grid,
        })
    }

    /// Uniform chunk extent along every axis.
    pub fn uniform(lens: Vec<u32>, extent: u32) -> Result<Self> {
        let e = vec![extent; lens.len()];
        ChunkGeometry::new(lens, e)
    }

    /// Number of dimensions.
    #[inline]
    pub fn ndims(&self) -> usize {
        self.lens.len()
    }

    /// Axis lengths.
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// Chunk extents.
    pub fn extents(&self) -> &[u32] {
        &self.extents
    }

    /// Chunk-grid shape (chunks along each axis).
    pub fn grid(&self) -> &[u32] {
        &self.grid
    }

    /// Total number of logical cells.
    pub fn total_cells(&self) -> u64 {
        self.lens.iter().map(|&l| l as u64).product()
    }

    /// Total number of chunks in the grid.
    pub fn total_chunks(&self) -> u64 {
        self.grid.iter().map(|&g| g as u64).product()
    }

    /// Number of cells in one full (non-edge) chunk.
    pub fn chunk_cells(&self) -> u64 {
        self.extents.iter().map(|&e| e as u64).product()
    }

    /// Canonical id of a chunk coordinate (row-major, last axis fastest).
    pub fn chunk_id(&self, coord: &[u32]) -> ChunkId {
        debug_assert_eq!(coord.len(), self.ndims());
        let mut id: u64 = 0;
        for (i, &c) in coord.iter().enumerate() {
            debug_assert!(c < self.grid[i], "chunk coord out of grid");
            id = id * self.grid[i] as u64 + c as u64;
        }
        ChunkId(id)
    }

    /// Inverse of [`ChunkGeometry::chunk_id`].
    pub fn chunk_coord(&self, id: ChunkId) -> ChunkCoord {
        let mut rest = id.0;
        let mut coord = vec![0u32; self.ndims()];
        for i in (0..self.ndims()).rev() {
            let g = self.grid[i] as u64;
            coord[i] = (rest % g) as u32;
            rest /= g;
        }
        debug_assert_eq!(rest, 0, "chunk id out of grid");
        coord
    }

    /// The global cell coordinate of a chunk's low corner.
    pub fn chunk_origin(&self, coord: &[u32]) -> CellCoord {
        coord
            .iter()
            .zip(&self.extents)
            .map(|(&c, &e)| c * e)
            .collect()
    }

    /// The (possibly clipped) shape of a chunk.
    pub fn chunk_shape(&self, coord: &[u32]) -> Vec<u32> {
        coord
            .iter()
            .zip(self.extents.iter().zip(&self.lens))
            .map(|(&c, (&e, &l))| {
                let start = c * e;
                e.min(l.saturating_sub(start))
            })
            .collect()
    }

    /// Number of cells in the chunk at `coord`.
    pub fn chunk_cell_count(&self, coord: &[u32]) -> u32 {
        self.chunk_shape(coord).iter().product()
    }

    /// Splits a global cell into (chunk id, local row-major offset).
    ///
    /// Allocation-free: the grid coordinate and clipped shape are derived
    /// per axis on the fly rather than materialized.
    pub fn split_cell(&self, cell: &[u32]) -> (ChunkId, u32) {
        debug_assert_eq!(cell.len(), self.ndims());
        let mut id: u64 = 0;
        let mut off: u32 = 0;
        let axes = cell
            .iter()
            .zip(&self.extents)
            .zip(&self.grid)
            .zip(&self.lens);
        for (((&ci, &e), &g), &l) in axes {
            let c = ci / e;
            debug_assert!(c < g, "chunk coord out of grid");
            let start = c * e;
            let shape_i = e.min(l - start);
            debug_assert!(ci - start < shape_i, "cell outside its chunk shape");
            id = id * g as u64 + c as u64;
            off = off * shape_i + (ci - start);
        }
        (ChunkId(id), off)
    }

    /// Recovers the global cell of a (chunk coord, local offset) pair.
    pub fn cell_of_local(&self, coord: &[u32], offset: u32) -> CellCoord {
        let mut cell = vec![0u32; self.ndims()];
        self.cell_of_local_into(coord, offset, &mut cell);
        cell
    }

    /// Allocation-free [`ChunkGeometry::cell_of_local`]: writes the global
    /// cell into `cell` (resized to the rank), reusing its storage.
    pub fn cell_of_local_into(&self, coord: &[u32], mut offset: u32, cell: &mut CellCoord) {
        debug_assert_eq!(coord.len(), self.ndims());
        cell.clear();
        cell.resize(self.ndims(), 0);
        for i in (0..self.ndims()).rev() {
            let start = coord[i] * self.extents[i];
            let shape_i = self.extents[i].min(self.lens[i].saturating_sub(start));
            cell[i] = start + offset % shape_i;
            offset /= shape_i;
        }
        debug_assert_eq!(offset, 0, "offset out of chunk");
    }

    /// Decomposes the chunk at `coord` into maximal row-major runs: spans
    /// of consecutive local offsets over which every dimension except the
    /// last (fastest-varying) is constant. Each run is one "row" of the
    /// (possibly clipped) chunk; within a run the local offset and the
    /// last global coordinate both advance by 1 per cell (stride 1).
    ///
    /// This is the unit of work for the run kernels: any per-cell decision
    /// that does not depend on the last dimension (destination chunk,
    /// fate lookup, kept-scope membership) is constant over a run and can
    /// be hoisted out of the inner loop.
    pub fn runs(&self, coord: &[u32]) -> ChunkRuns {
        ChunkRuns::new(self, coord, self.ndims().saturating_sub(1))
    }

    /// Like [`ChunkGeometry::runs`], but each run covers the chunk's full
    /// cross-section of the axis suffix `split..ndims` (local offsets
    /// over any suffix of a row-major layout are contiguous), while axes
    /// `0..split` stay constant per run. The returned base cell holds the
    /// chunk origin in the suffix axes. `split == ndims` degenerates to
    /// one run per cell; `split == 0` yields a single whole-chunk run.
    ///
    /// Callers pick the split so every quantity they hoist out of the
    /// inner loop depends only on axes before it — e.g. the executor
    /// splits after `max(vd, pd)`, making the cell fate, destination
    /// chunk and kept-scope check run-constant even when trailing axes
    /// (currency, version, …) have length 1 and per-axis rows would
    /// degenerate to single cells.
    pub fn runs_from(&self, coord: &[u32], split: usize) -> ChunkRuns {
        assert!(split <= self.ndims(), "split axis out of range");
        ChunkRuns::new(self, coord, split)
    }

    /// Validates a global cell coordinate.
    pub fn check_cell(&self, cell: &[u32]) -> Result<()> {
        if cell.len() != self.ndims() {
            return Err(StoreError::OutOfBounds {
                what: "cell rank",
                got: cell.len() as u64,
                bound: self.ndims() as u64,
            });
        }
        for (&c, &l) in cell.iter().zip(&self.lens) {
            if c >= l {
                return Err(StoreError::OutOfBounds {
                    what: "cell coordinate",
                    got: c as u64,
                    bound: l as u64 - 1,
                });
            }
        }
        Ok(())
    }

    /// Iterates all chunk coordinates with `order[0]` varying fastest —
    /// the paper's "reading chunks in dimension order".
    pub fn chunks_in_order<'a>(&'a self, order: &[usize]) -> DimOrderIter<'a> {
        DimOrderIter::new(self, order)
    }

    /// All chunk ids in canonical order.
    pub fn all_chunk_ids(&self) -> Vec<ChunkId> {
        (0..self.total_chunks()).map(ChunkId).collect()
    }
}

/// Lending iterator over the row-major runs of one chunk
/// (see [`ChunkGeometry::runs`]).
///
/// Not a `std::iter::Iterator` — each run's base cell is borrowed from the
/// iterator's own storage, so the runs are consumed with an explicit
/// `while let Some((base, start, len)) = it.next_run()` loop. This keeps
/// the walk allocation-free: one odometer advance per run, no `Vec` per
/// cell or per run.
pub struct ChunkRuns {
    origin: CellCoord,
    shape: Vec<u32>,
    /// Global cell of the current run's first cell.
    cell: CellCoord,
    /// Local offset of the current run's first cell.
    off: u32,
    /// Cells per run: the product of the clipped suffix extents.
    row: u32,
    /// Axes `split..` are covered wholesale by each run; the odometer
    /// walks axes `0..split` with axis `split - 1` fastest.
    split: usize,
    started: bool,
    done: bool,
}

impl ChunkRuns {
    fn new(geom: &ChunkGeometry, coord: &[u32], split: usize) -> Self {
        let origin = geom.chunk_origin(coord);
        let shape = geom.chunk_shape(coord);
        let row = shape[split..].iter().product();
        let empty = shape.contains(&0);
        ChunkRuns {
            cell: origin.clone(),
            origin,
            shape,
            off: 0,
            row,
            split,
            started: false,
            done: empty,
        }
    }

    /// The next run as `(base_cell, start_offset, len)`; `base_cell` is the
    /// global coordinate of the run's first cell, `start_offset` its local
    /// row-major offset, and the run covers offsets
    /// `start_offset..start_offset + len`.
    #[allow(clippy::should_implement_trait)]
    pub fn next_run(&mut self) -> Option<(&[u32], u32, u32)> {
        if self.done {
            return None;
        }
        if self.started {
            // Advance the odometer over the prefix axes, with the axis
            // just before the split fastest (row-major order).
            let mut i = self.split;
            loop {
                if i == 0 {
                    self.done = true;
                    return None;
                }
                i -= 1;
                self.cell[i] += 1;
                if self.cell[i] < self.origin[i] + self.shape[i] {
                    break;
                }
                self.cell[i] = self.origin[i];
            }
            self.off += self.row;
        }
        self.started = true;
        Some((&self.cell, self.off, self.row))
    }
}

/// Iterator over chunk coordinates in a chosen dimension order.
///
/// `order` is a permutation of `0..ndims`; `order[0]` varies fastest. For
/// Fig. 6's ABC order with A = dim 0, pass `[0, 1, 2]`: the walk visits
/// a0b0c0, a1b0c0, a2b0c0, a3b0c0, a0b1c0, … exactly like the figure's
/// numbering 1, 2, 3, 4, 5, …
pub struct DimOrderIter<'a> {
    geom: &'a ChunkGeometry,
    order: Vec<usize>,
    cur: Option<ChunkCoord>,
}

impl<'a> DimOrderIter<'a> {
    fn new(geom: &'a ChunkGeometry, order: &[usize]) -> Self {
        assert_eq!(order.len(), geom.ndims(), "order must be a permutation");
        let mut seen = vec![false; geom.ndims()];
        for &d in order {
            assert!(d < geom.ndims() && !seen[d], "order must be a permutation");
            seen[d] = true;
        }
        let start = if geom.total_chunks() == 0 {
            None
        } else {
            Some(vec![0u32; geom.ndims()])
        };
        DimOrderIter {
            geom,
            order: order.to_vec(),
            cur: start,
        }
    }
}

impl Iterator for DimOrderIter<'_> {
    type Item = ChunkCoord;

    fn next(&mut self) -> Option<ChunkCoord> {
        let cur = self.cur.clone()?;
        // Advance like an odometer over `order`, fastest digit first.
        let mut next = cur.clone();
        let mut done = true;
        for &d in &self.order {
            next[d] += 1;
            if next[d] < self.geom.grid[d] {
                done = false;
                break;
            }
            next[d] = 0;
        }
        self.cur = if done { None } else { Some(next) };
        Some(cur)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn geom_4x4x4() -> ChunkGeometry {
        // Fig. 6: 3 dimensions, 4 chunks each (16 cells per axis, extent 4).
        ChunkGeometry::uniform(vec![16, 16, 16], 4).unwrap()
    }

    #[test]
    fn grid_shape_and_counts() {
        let g = geom_4x4x4();
        assert_eq!(g.grid(), &[4, 4, 4]);
        assert_eq!(g.total_chunks(), 64);
        assert_eq!(g.total_cells(), 4096);
        assert_eq!(g.chunk_cells(), 64);
    }

    #[test]
    fn edge_chunks_are_clipped() {
        let g = ChunkGeometry::uniform(vec![10, 7], 4).unwrap();
        assert_eq!(g.grid(), &[3, 2]);
        assert_eq!(g.chunk_shape(&[0, 0]), vec![4, 4]);
        assert_eq!(g.chunk_shape(&[2, 1]), vec![2, 3]);
        assert_eq!(g.chunk_cell_count(&[2, 1]), 6);
    }

    #[test]
    fn chunk_id_roundtrip() {
        let g = geom_4x4x4();
        for id in 0..g.total_chunks() {
            let coord = g.chunk_coord(ChunkId(id));
            assert_eq!(g.chunk_id(&coord), ChunkId(id));
        }
    }

    #[test]
    fn split_cell_roundtrip() {
        let g = ChunkGeometry::uniform(vec![10, 7, 5], 3).unwrap();
        for x in 0..10 {
            for y in 0..7 {
                for z in 0..5 {
                    let cell = vec![x, y, z];
                    let (id, off) = g.split_cell(&cell);
                    let coord = g.chunk_coord(id);
                    assert_eq!(g.cell_of_local(&coord, off), cell);
                }
            }
        }
    }

    #[test]
    fn dim_order_iteration_matches_fig6() {
        // 2D slice of Fig. 6/7: 4 chunks along A (dim 0), 3 along B (dim 1).
        let g = ChunkGeometry::new(vec![8, 6], vec![2, 2]).unwrap();
        assert_eq!(g.grid(), &[4, 3]);
        // Order AB: A fastest — row of a-chunks first.
        let ab: Vec<ChunkCoord> = g.chunks_in_order(&[0, 1]).collect();
        assert_eq!(ab[0], vec![0, 0]);
        assert_eq!(ab[1], vec![1, 0]);
        assert_eq!(ab[4], vec![0, 1]);
        assert_eq!(ab.len(), 12);
        // Order BA: B fastest (the paper's better order for merging:
        // "read chunks in the order 1,5,9,2,6,10,...").
        let ba: Vec<ChunkCoord> = g.chunks_in_order(&[1, 0]).collect();
        assert_eq!(ba[0], vec![0, 0]);
        assert_eq!(ba[1], vec![0, 1]);
        assert_eq!(ba[3], vec![1, 0]);
    }

    #[test]
    fn check_cell_bounds() {
        let g = ChunkGeometry::uniform(vec![4, 4], 2).unwrap();
        assert!(g.check_cell(&[3, 3]).is_ok());
        assert!(g.check_cell(&[4, 0]).is_err());
        assert!(g.check_cell(&[0]).is_err());
    }

    #[test]
    fn extent_clamped_to_axis() {
        let g = ChunkGeometry::uniform(vec![3, 100], 10).unwrap();
        assert_eq!(g.extents(), &[3, 10]);
        assert_eq!(g.grid(), &[1, 10]);
    }

    #[test]
    fn zero_extent_rejected() {
        assert!(ChunkGeometry::new(vec![4], vec![0]).is_err());
    }

    #[test]
    fn empty_axis_still_has_one_grid_slot() {
        let g = ChunkGeometry::uniform(vec![0, 4], 2).unwrap();
        assert_eq!(g.grid(), &[1, 2]);
        assert_eq!(g.total_cells(), 0);
    }

    #[test]
    fn cell_of_local_into_matches_alloc_version() {
        let g = ChunkGeometry::uniform(vec![10, 7, 5], 3).unwrap();
        let mut buf = Vec::new();
        for id in 0..g.total_chunks() {
            let coord = g.chunk_coord(ChunkId(id));
            for off in 0..g.chunk_cell_count(&coord) {
                g.cell_of_local_into(&coord, off, &mut buf);
                assert_eq!(buf, g.cell_of_local(&coord, off));
            }
        }
    }

    #[test]
    fn runs_cover_every_offset_once_with_correct_bases() {
        // Clipped geometry: edge chunks have shorter rows and fewer rows.
        let g = ChunkGeometry::new(vec![10, 7, 5], vec![4, 3, 2]).unwrap();
        for id in 0..g.total_chunks() {
            let coord = g.chunk_coord(ChunkId(id));
            let n = g.chunk_cell_count(&coord);
            let mut seen = vec![false; n as usize];
            let mut it = g.runs(&coord);
            while let Some((base, start, len)) = it.next_run() {
                assert!(len > 0);
                assert_eq!(base, g.cell_of_local(&coord, start).as_slice());
                for k in 0..len {
                    let off = start + k;
                    assert!(off < n, "run overruns chunk");
                    assert!(!seen[off as usize], "offset {off} covered twice");
                    seen[off as usize] = true;
                    // Within a run only the last coordinate varies.
                    let cell = g.cell_of_local(&coord, off);
                    assert_eq!(&cell[..cell.len() - 1], &base[..base.len() - 1]);
                    assert_eq!(cell[cell.len() - 1], base[base.len() - 1] + k);
                }
            }
            assert!(seen.iter().all(|&s| s), "offsets missed in chunk {id}");
        }
    }

    #[test]
    fn runs_one_dim_is_single_run() {
        let g = ChunkGeometry::uniform(vec![10], 4).unwrap();
        let mut it = g.runs(&[2]);
        // Last chunk of a 10-cell axis with extent 4 is clipped to 2 cells.
        assert_eq!(it.next_run(), Some(([8u32].as_slice(), 0, 2)));
        assert_eq!(it.next_run(), None);
    }

    #[test]
    fn runs_empty_axis_yields_nothing() {
        let g = ChunkGeometry::uniform(vec![0, 4], 2).unwrap();
        let mut it = g.runs(&[0, 0]);
        assert_eq!(it.next_run(), None);
    }
}
