//! Simultaneous chunked aggregation (Zhao et al., SIGMOD'97).
//!
//! One pass over the base chunks — in a chosen dimension order — computes
//! every requested group-by at once. The plan is the lattice closure of
//! the requested masks, each node cascading from its smallest parent
//! (*Hierarchical Datacubes*' smallest-ancestor rule, one dimension at a
//! time): each node aggregates from its tree parent's *completed*
//! chunks, holding partial chunk buffers no longer than Zhao's memory
//! rule predicts. A pass is priced at the rule's sum over every node it
//! holds buffers for and admitted before the first base read, so its
//! observed peak never exceeds what it admitted. Each pass is one serial
//! scan on the caller's thread, and the aggregator reports its observed
//! peak buffer occupancy so tests (and the dimension-order ablation) can
//! check the prediction.
//!
//! What travels along a tree edge is a *dense block*: a completed chunk's
//! accumulators as one row-major array plus its chunk-grid coordinate,
//! never a list of cells with coordinates. Every edge aggregates exactly
//! one dimension away, so folding a block into its child's buffer is a
//! strided loop (`outer × n × inner → outer × inner`) whose strides come
//! from the block's shape; the base level folds the same way straight
//! from the pooled chunk's values and presence words. Buffers are keyed
//! by linear chunk index and recycled, so a scan allocates per grid
//! position and per live buffer, not per cell, and an all-⊥ grid position
//! only advances completion counters. Within a block sources are folded
//! in ascending offset and blocks arrive in scan order, which fixes the
//! floating-point result of every target whatever the pass split.
//!
//! Accumulators carry (sum, count, min, max) end-to-end, so the algebraic
//! AVG stays correct through arbitrary cascade depth.

use crate::bounds::Bounds;
use crate::cube::Cube;
use crate::lattice::{memory_cells, GroupByMask, Lattice};
use crate::rules::{Acc, AggFn};
use crate::Result;
use olap_store::{CellValue, Chunk, ChunkData, ChunkGeometry};
use std::collections::HashMap;

/// One completed group-by: a dense array of accumulators over the
/// retained dimensions' full axes.
#[derive(Debug, Clone)]
pub struct GroupByResult {
    dims: Vec<usize>,
    shape: Vec<u32>,
    accs: Vec<Acc>,
}

impl GroupByResult {
    fn new(dims: Vec<usize>, shape: Vec<u32>) -> Self {
        let n: usize = shape.iter().map(|&s| s as usize).product::<usize>().max(1);
        GroupByResult {
            dims,
            shape,
            accs: vec![Acc::new(); n],
        }
    }

    /// Axis lengths of the retained dimensions.
    pub fn shape(&self) -> &[u32] {
        &self.shape
    }

    #[inline]
    fn index(&self, coords: &[u32]) -> usize {
        debug_assert_eq!(coords.len(), self.shape.len());
        let mut idx = 0usize;
        for (i, &c) in coords.iter().enumerate() {
            debug_assert!(c < self.shape[i]);
            idx = idx * self.shape[i] as usize + c as usize;
        }
        idx
    }

    /// Index of the first cell of the chunk at chunk-grid coordinate
    /// `coord` (over this result's dims).
    fn chunk_start(&self, geom: &ChunkGeometry, coord: &[u32]) -> usize {
        let axes = self.dims.iter().zip(coord).zip(&self.shape);
        axes.fold(0, |at, ((&d, &c), &len)| {
            at * len as usize + (c * geom.extents()[d]) as usize
        })
    }

    /// The raw accumulator at retained-dimension coordinates.
    pub fn acc(&self, coords: &[u32]) -> &Acc {
        &self.accs[self.index(coords)]
    }

    /// The finalized value at retained-dimension coordinates.
    pub fn value(&self, coords: &[u32], agg: AggFn) -> CellValue {
        self.acc(coords).finalize(agg)
    }

    /// Every cell, row-major: its retained-dimension coordinates and its
    /// raw accumulator.
    pub fn cells(&self) -> impl Iterator<Item = (Vec<u32>, &Acc)> + '_ {
        self.accs.iter().enumerate().map(move |(i, acc)| {
            let mut rest = i;
            let mut coords = vec![0u32; self.shape.len()];
            for (c, &len) in coords.iter_mut().zip(&self.shape).rev() {
                *c = (rest % len as usize) as u32;
                rest /= len as usize;
            }
            (coords, acc)
        })
    }

    /// Sum over every cell of the group-by (grand-total sanity check —
    /// equal for every mask when the default aggregate is SUM).
    pub fn grand_total(&self) -> f64 {
        self.accs.iter().map(|a| a.sum).sum()
    }
}

/// Observed execution metrics.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AggregationReport {
    /// Peak simultaneously-live buffer cells across all group-bys, by
    /// Zhao's accounting: a chunk buffer counts in full from the first
    /// parent chunk delivered to it (all-⊥ or not) until its last. The
    /// scan's serial high-water mark; maxed across passes in multi-pass
    /// runs.
    pub peak_buffer_cells: u64,
    /// Peak simultaneously-live chunk buffers across all group-bys.
    pub peak_buffer_chunks: u64,
    /// Base chunk-grid positions visited, materialized or implicit ⊥
    /// (only the former are read; the latter are announced to the
    /// cascade as empty blocks). One scan visits every position once;
    /// summed over passes for the multi-pass fallback.
    pub base_chunks_scanned: u64,
    /// Number of passes over the input (1 unless a memory budget forced
    /// Zhao's multi-pass fallback).
    pub passes: u64,
}

/// The accumulator array of one in-flight group-by chunk.
struct Buffer {
    /// Row-major over the chunk's clipped shape; left empty until the
    /// first non-⊥ block arrives, so a chunk built from all-⊥ parents
    /// never touches memory.
    accs: Vec<Acc>,
    /// Parent chunks delivered so far.
    seen: u32,
}

/// A node's place in the cascade plan, read-only during the scan; the
/// scan runs one [`Node`] against each.
struct NodeSpec {
    mask: GroupByMask,
    /// Retained dims, ascending.
    dims: Vec<usize>,
    /// Indices of tree children participating in this computation.
    children: Vec<usize>,
    /// Parent chunks contributing to each of this node's chunks.
    expected: u32,
    /// Position, among the parent's dims, of the one dimension this
    /// node aggregates away (every cascade edge drops exactly one).
    drop_pos: usize,
    /// Whether the caller asked for this mask.
    requested: bool,
}

/// One planned pass: the requested masks it computes and the closure of
/// group-bys it cascades through, priced before anything is read.
#[derive(Debug, Clone)]
struct Pass {
    /// The requested masks, in request order.
    masks: Vec<GroupByMask>,
    /// The full mask, then each mask's path down from the nearest node
    /// already held, in the order the masks joined.
    nodes: Vec<GroupByMask>,
    /// Zhao's memory rule summed over every node but the root, which
    /// buffers nothing: what the pass admits.
    cells: u64,
}

/// The scan's mutable state for a group-by node.
#[derive(Default)]
struct Node {
    /// Live partial chunks, keyed by the row-major index of the chunk in
    /// this node's chunk grid.
    live: HashMap<u64, Buffer>,
    /// Accumulator arrays of completed chunks, kept for reuse.
    free: Vec<Vec<Acc>>,
    /// Chunk-grid coordinate and clipped shape (over the node's dims) of
    /// the chunk currently being delivered to.
    coord: Vec<u32>,
    shape: Vec<u32>,
    /// Completed output (only for requested masks).
    result: Option<GroupByResult>,
}

/// A completed chunk travelling down the cascade: its chunk-grid
/// coordinate and clipped shape over the emitting node's dims, and its
/// cells as one dense row-major array — no per-cell coordinates.
struct Block<'a> {
    coord: &'a [u32],
    shape: &'a [u32],
    cells: Cells<'a>,
}

#[derive(Clone, Copy)]
enum Cells<'a> {
    /// All ⊥: only advances the receivers' completion counters.
    Empty,
    /// A base chunk, folded straight from the pooled values and presence
    /// words.
    Base(&'a Chunk),
    /// A completed group-by chunk.
    Accs(&'a [Acc]),
}

/// Computes group-bys of a cube's leaf cells in one chunked pass.
pub struct CubeAggregator<'a> {
    cube: &'a Cube,
    order: Vec<usize>,
}

impl<'a> CubeAggregator<'a> {
    /// Aggregator with the minimum-memory (ascending-cardinality) order.
    pub fn new(cube: &'a Cube) -> Self {
        let order = crate::lattice::min_memory_order(cube.geometry());
        CubeAggregator::with_order(cube, order)
    }

    /// Aggregator with an explicit read order (`order[0]` fastest).
    pub fn with_order(cube: &'a Cube, order: Vec<usize>) -> Self {
        assert_eq!(order.len(), cube.geometry().ndims());
        CubeAggregator { cube, order }
    }

    /// The read order in use.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// The one bounded entry point. Zhao et al.'s multi-pass fallback:
    /// "If the available memory falls short of the requirement
    /// determined from the MMST, then instead of one pass, we must make
    /// multiple passes over the input cube." Packs the masks into passes,
    /// each priced at Zhao's rule summed over the closure it cascades
    /// through, and admits every pass before the first base read — a mask
    /// whose closure alone exceeds the budget refuses the request having
    /// read nothing. Then runs each pass as its own scan, checking the
    /// deadline before every base block. Results cover exactly the
    /// requested masks.
    pub fn compute_bounded(
        &self,
        masks: &[GroupByMask],
        bounds: &Bounds,
    ) -> Result<(HashMap<GroupByMask, GroupByResult>, AggregationReport)> {
        let passes = self.plan(masks, bounds)?;
        let mut out = HashMap::new();
        let mut report = AggregationReport::default();
        for pass in &passes {
            let (results, r) = self.run_pass(pass, bounds)?;
            out.extend(results);
            report.peak_buffer_cells = report.peak_buffer_cells.max(r.peak_buffer_cells);
            report.peak_buffer_chunks = report.peak_buffer_chunks.max(r.peak_buffer_chunks);
            report.base_chunks_scanned += r.base_chunks_scanned;
        }
        report.passes = passes.len() as u64;
        Ok((out, report))
    }

    /// [`CubeAggregator::compute_bounded`] under a budget of
    /// `budget_cells` (0 = unlimited) and no deadline.
    pub fn compute_with_budget(
        &self,
        masks: &[GroupByMask],
        budget_cells: u64,
    ) -> Result<(HashMap<GroupByMask, GroupByResult>, AggregationReport)> {
        self.compute_bounded(
            masks,
            &Bounds {
                budget_cells,
                deadline: None,
            },
        )
    }

    /// [`CubeAggregator::compute_bounded`], unbounded: one pass.
    pub fn compute(
        &self,
        masks: &[GroupByMask],
    ) -> Result<(HashMap<GroupByMask, GroupByResult>, AggregationReport)> {
        self.compute_bounded(masks, &Bounds::default())
    }

    /// Packs the requested masks into passes and admits each through
    /// [`Bounds::admit`]. A mask joins the open pass while the grown
    /// pass's price still fits the budget, else it opens the next one, so
    /// unbounded there is one pass. A mask whose own closure exceeds the
    /// budget sits alone in its pass, and its admission refuses the whole
    /// request before anything is read.
    fn plan(&self, masks: &[GroupByMask], bounds: &Bounds) -> Result<Vec<Pass>> {
        let root = Pass {
            masks: Vec::new(),
            nodes: vec![Lattice::new(self.cube.geometry().ndims()).full()],
            cells: 0,
        };
        let mut passes: Vec<Pass> = Vec::new();
        for &m in masks {
            let grown = (passes.last().map(|pass| self.grow(pass, m)))
                .filter(|pass| bounds.admit(pass.cells).is_ok());
            match grown {
                Some(pass) => *passes.last_mut().expect("grown from it") = pass,
                None => passes.push(self.grow(&root, m)),
            }
        }
        for pass in &passes {
            bounds.admit(pass.cells)?;
        }
        Ok(passes)
    }

    /// `pass` with `m` added: `m` and its ancestors up to the nearest
    /// node the pass already holds join the closure, root-most first, and
    /// each adds its buffer memory by Zhao's rule.
    fn grow(&self, pass: &Pass, m: GroupByMask) -> Pass {
        let mut grown = pass.clone();
        grown.masks.push(m);
        let at = grown.nodes.len();
        let mut cur = m;
        while !grown.nodes.contains(&cur) {
            grown.nodes.push(cur);
            grown.cells += memory_cells(self.cube.geometry(), &self.order, cur);
            cur = self.parent(cur);
        }
        grown.nodes[at..].reverse();
        grown
    }

    /// The group-by a proper mask cascades from: of its parents (one
    /// more retained dimension), the one with the fewest result cells,
    /// ties to the smaller mask — the minimum-size-parent rule, which
    /// minimises the cascade's work.
    fn parent(&self, g: GroupByMask) -> GroupByMask {
        let geom = self.cube.geometry();
        let lattice = Lattice::new(geom.ndims());
        let result_cells = |p: GroupByMask| -> u64 {
            (lattice.dims_of(p).into_iter())
                .map(|d| geom.lens()[d] as u64)
                .product::<u64>()
                .max(1)
        };
        (lattice.parents(g).into_iter())
            .min_by_key(|&p| (result_cells(p), p))
            .expect("a proper mask has a parent")
    }

    /// One scan of the base cube computing a pass's masks together:
    /// every requested node gets its result array, then the scan fills
    /// them.
    fn run_pass(
        &self,
        pass: &Pass,
        bounds: &Bounds,
    ) -> Result<(HashMap<GroupByMask, GroupByResult>, AggregationReport)> {
        let geom = self.cube.geometry();
        let specs = self.specs(pass);
        let mut nodes: Vec<Node> = (specs.iter())
            .map(|spec| Node {
                result: spec.requested.then(|| {
                    let shape = spec.dims.iter().map(|&d| geom.lens()[d]).collect();
                    GroupByResult::new(spec.dims.clone(), shape)
                }),
                ..Node::default()
            })
            .collect();
        let mut report = self.scan(&specs, &mut nodes, bounds)?;
        report.passes = 1;
        let out = (nodes.into_iter().zip(&specs))
            .filter_map(|(node, spec)| Some((spec.mask, node.result?)))
            .collect();
        Ok((out, report))
    }

    /// A pass's cascade: its closure root first and every node after its
    /// parent (descending retained-dimension count), with tree children,
    /// per-chunk completion counts and the axis each edge aggregates
    /// away. `specs[0]` is always the full mask.
    fn specs(&self, pass: &Pass) -> Vec<NodeSpec> {
        let geom = self.cube.geometry();
        let lattice = Lattice::new(geom.ndims());
        let mut needed = pass.nodes.clone();
        needed.sort_unstable_by_key(|m| std::cmp::Reverse(m.count_ones()));
        let mut specs: Vec<NodeSpec> = needed
            .iter()
            .map(|&m| NodeSpec {
                mask: m,
                dims: lattice.dims_of(m),
                children: Vec::new(),
                expected: 0,
                drop_pos: 0,
                requested: pass.masks.contains(&m),
            })
            .collect();
        for i in 1..specs.len() {
            let m = specs[i].mask;
            let p = self.parent(m);
            let pi = needed
                .iter()
                .position(|&x| x == p)
                .expect("closure holds every parent");
            let dropped = (p & !m).trailing_zeros() as usize;
            specs[i].drop_pos = specs[pi]
                .dims
                .iter()
                .position(|&d| d == dropped)
                .expect("the dropped dim is one of the parent's");
            specs[i].expected = geom.grid()[dropped].max(1);
            specs[pi].children.push(i);
        }
        specs
    }

    /// Streams every base chunk in the chosen order, delivering each as a
    /// block to the root's children. Implicit (all-⊥)
    /// chunks are announced too: children count completions per parent
    /// chunk. A requested full mask is filled here, from the same blocks,
    /// so the base is never walked a second time. The deadline is
    /// checked before each block; an abort drops the partial results.
    fn scan(
        &self,
        specs: &[NodeSpec],
        nodes: &mut [Node],
        bounds: &Bounds,
    ) -> Result<AggregationReport> {
        let geom = self.cube.geometry();
        let mut exec = Exec {
            geom,
            specs,
            live_cells: 0,
            live_chunks: 0,
            report: AggregationReport::default(),
        };
        for coord in geom.chunks_in_order(&self.order) {
            bounds.check_deadline()?;
            exec.report.base_chunks_scanned += 1;
            let id = geom.chunk_id(&coord);
            let shape = geom.chunk_shape(&coord);
            let chunk = if self.cube.chunk_exists(id) {
                Some(self.cube.chunk(id)?)
            } else {
                None
            };
            let cells = match &chunk {
                Some(c) if c.present_count() > 0 => Cells::Base(c),
                _ => Cells::Empty,
            };
            if let (Some(result), Cells::Base(chunk)) = (&mut nodes[0].result, cells) {
                let at = result.chunk_start(geom, &coord);
                for_each_row(&shape, &result.shape, at, |src, dst, len| {
                    chunk.for_each_present_in_range(src as u32, len as u32, |off, v| {
                        result.accs[dst + (off as usize - src)].add(v);
                    });
                });
            }
            let block = Block {
                coord: &coord,
                shape: &shape,
                cells,
            };
            for &c in &specs[0].children {
                exec.deliver(nodes, c, &block);
            }
        }
        for (node, spec) in nodes.iter().zip(specs) {
            debug_assert!(
                node.live.is_empty(),
                "group-by {:b} left {} incomplete buffers",
                spec.mask,
                node.live.len()
            );
        }
        Ok(exec.report)
    }
}

/// Mutable execution state threaded through the cascade.
struct Exec<'p> {
    geom: &'p ChunkGeometry,
    specs: &'p [NodeSpec],
    live_cells: u64,
    live_chunks: u64,
    report: AggregationReport,
}

impl<'p> Exec<'p> {
    /// Delivers a completed parent block to node `ni`; recursively emits
    /// any of `ni`'s chunks the delivery completes. Allocates nothing
    /// once the node's scratch and a recycled buffer exist.
    fn deliver(&mut self, nodes: &mut [Node], ni: usize, block: &Block<'_>) {
        let specs: &'p [NodeSpec] = self.specs;
        let spec = &specs[ni];
        let k = spec.drop_pos;
        let node = &mut nodes[ni];
        // This node's chunk is the parent's with axis `k` dropped.
        for (mine, theirs) in [
            (&mut node.coord, block.coord),
            (&mut node.shape, block.shape),
        ] {
            mine.clear();
            mine.extend_from_slice(&theirs[..k]);
            mine.extend_from_slice(&theirs[k + 1..]);
        }
        let key = spec
            .dims
            .iter()
            .zip(&node.coord)
            .fold(0u64, |key, (&d, &c)| {
                key * self.geom.grid()[d] as u64 + c as u64
            });
        let buf_len = node
            .shape
            .iter()
            .map(|&s| s as usize)
            .product::<usize>()
            .max(1);

        let free = &mut node.free;
        let buffer = node.live.entry(key).or_insert_with(|| {
            self.live_chunks += 1;
            self.live_cells += buf_len as u64;
            self.report.peak_buffer_chunks = self.report.peak_buffer_chunks.max(self.live_chunks);
            self.report.peak_buffer_cells = self.report.peak_buffer_cells.max(self.live_cells);
            Buffer {
                accs: free.pop().unwrap_or_default(),
                seen: 0,
            }
        });

        if !matches!(block.cells, Cells::Empty) && buffer.accs.is_empty() {
            buffer.accs.resize(buf_len, Acc::new());
        }
        let n = block.shape[k] as usize;
        let inner = block.shape[k + 1..].iter().map(|&s| s as usize).product();
        match block.cells {
            Cells::Empty => {}
            Cells::Base(chunk) => fold_base(chunk, &mut buffer.accs, n, inner),
            Cells::Accs(src) => fold_accs(src, &mut buffer.accs, n, inner),
        }
        buffer.seen += 1;
        if buffer.seen < spec.expected {
            return;
        }

        // Chunk complete: detach, record, cascade.
        let mut accs = node.live.remove(&key).expect("just inserted").accs;
        self.live_chunks -= 1;
        self.live_cells -= buf_len as u64;
        if let (Some(result), false) = (&mut node.result, accs.is_empty()) {
            // Every result cell lies in exactly one chunk, and folding a
            // completed accumulator into a fresh one reproduces it bit
            // for bit, so the chunk is copied into place row by row.
            let at = result.chunk_start(self.geom, &node.coord);
            for_each_row(&node.shape, &result.shape, at, |src, dst, len| {
                result.accs[dst..dst + len].copy_from_slice(&accs[src..src + len]);
            });
        }
        if !spec.children.is_empty() {
            // The scratch vectors travel with the block (children index
            // into `nodes` too) and come back afterwards.
            let (coord, shape) = (
                std::mem::take(&mut node.coord),
                std::mem::take(&mut node.shape),
            );
            let block = Block {
                coord: &coord,
                shape: &shape,
                cells: if accs.is_empty() {
                    Cells::Empty
                } else {
                    Cells::Accs(&accs)
                },
            };
            for &c in &spec.children {
                self.deliver(nodes, c, &block);
            }
            nodes[ni].coord = coord;
            nodes[ni].shape = shape;
        }
        if accs.capacity() > 0 {
            accs.clear();
            nodes[ni].free.push(accs);
        }
    }
}

/// Folds a base chunk, read as a row-major `outer × n × inner` array,
/// into `dst` (`outer × inner`), aggregating the middle axis away.
/// Present cells are taken in ascending offset, so every target receives
/// its sources in offset order.
fn fold_base(chunk: &Chunk, dst: &mut [Acc], n: usize, inner: usize) {
    match chunk.data() {
        ChunkData::Sparse { entries } => {
            let slab = n * inner;
            for &(off, v) in entries {
                let off = off as usize;
                dst[off / slab * inner + off % inner].add(v);
            }
        }
        ChunkData::Dense { .. } if inner == 1 => {
            // The fastest axis is the one aggregated away: each target
            // reduces one contiguous run.
            for (o, d) in dst.iter_mut().enumerate() {
                chunk.for_each_present_in_range((o * n) as u32, n as u32, |_, v| d.add(v));
            }
        }
        ChunkData::Dense { .. } => {
            for (o, drow) in dst.chunks_exact_mut(inner).enumerate() {
                for j in 0..n {
                    let start = ((o * n + j) * inner) as u32;
                    chunk.for_each_present_in_range(start, inner as u32, |off, v| {
                        drow[(off - start) as usize].add(v);
                    });
                }
            }
        }
    }
}

/// [`fold_base`] for a completed group-by chunk. ⊥ cells are empty
/// accumulators, and merging one is a bitwise no-op, so the loop needs no
/// presence test.
fn fold_accs(src: &[Acc], dst: &mut [Acc], n: usize, inner: usize) {
    for (slab, drow) in src.chunks_exact(n * inner).zip(dst.chunks_exact_mut(inner)) {
        for srow in slab.chunks_exact(inner) {
            for (d, s) in drow.iter_mut().zip(srow) {
                d.merge(s);
            }
        }
    }
}

/// Walks the rows (runs along the last axis) of a block of `shape`
/// embedded in a row-major array of shape `array`, the block's first cell
/// sitting at array index `at`: calls `f(src, dst, len)` with each row's
/// first offset in the block, its first index in the array, and its
/// length. The odometer lives on the stack ([`crate::Lattice`] caps the
/// rank at 31).
fn for_each_row(shape: &[u32], array: &[u32], at: usize, mut f: impl FnMut(usize, usize, usize)) {
    if shape.contains(&0) {
        return;
    }
    let lead = shape.len().saturating_sub(1);
    let row = shape.last().map_or(1, |&r| r as usize);
    let mut idx = [0u32; 32];
    let (mut src, mut dst) = (0usize, at);
    loop {
        f(src, dst, row);
        src += row;
        let mut stride = array.last().map_or(1, |&l| l as usize);
        let mut i = lead;
        loop {
            if i == 0 {
                return;
            }
            i -= 1;
            idx[i] += 1;
            if idx[i] < shape[i] {
                dst += stride;
                break;
            }
            dst -= (shape[i] - 1) as usize * stride;
            idx[i] = 0;
            stride *= array[i] as usize;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lattice::Lattice;
    use olap_model::{DimensionSpec, SchemaBuilder};
    use std::sync::Arc;

    /// A 3D cube (4×6×3 cells, extent 2) with values = 100a + 10b + c.
    fn cube3d() -> Cube {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("A").leaves(&["a0", "a1", "a2", "a3"]))
                .dimension(DimensionSpec::new("B").leaves(&["b0", "b1", "b2", "b3", "b4", "b5"]))
                .dimension(DimensionSpec::new("C").leaves(&["c0", "c1", "c2"]))
                .build()
                .unwrap(),
        );
        let mut b = Cube::builder(schema, vec![2, 2, 2]).unwrap();
        for a in 0..4u32 {
            for bb in 0..6u32 {
                for c in 0..3u32 {
                    b.set_num(&[a, bb, c], (100 * a + 10 * bb + c) as f64)
                        .unwrap();
                }
            }
        }
        b.finish().unwrap()
    }

    /// Brute-force group-by for comparison.
    fn naive(cube: &Cube, mask: GroupByMask) -> HashMap<Vec<u32>, f64> {
        let lattice = Lattice::new(cube.geometry().ndims());
        let dims = lattice.dims_of(mask);
        let mut out: HashMap<Vec<u32>, f64> = HashMap::new();
        cube.for_each_present(|cell, v| {
            let key: Vec<u32> = dims.iter().map(|&d| cell[d]).collect();
            *out.entry(key).or_insert(0.0) += v;
        })
        .unwrap();
        out
    }

    #[test]
    fn all_group_bys_match_naive() {
        let cube = cube3d();
        let lattice = Lattice::new(3);
        let masks = lattice.proper_masks();
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let (results, report) = agg.compute(&masks).unwrap();
        assert_eq!(results.len(), masks.len());
        assert_eq!(report.base_chunks_scanned, 2 * 3 * 2);
        for &m in &masks {
            let r = &results[&m];
            let expect = naive(&cube, m);
            for (key, &total) in &expect {
                assert_eq!(
                    r.value(key, AggFn::Sum),
                    CellValue::Num(total),
                    "mask {m:b} at {key:?}"
                );
            }
        }
    }

    #[test]
    fn grand_totals_agree_across_masks() {
        let cube = cube3d();
        let total = cube.total_sum().unwrap();
        let lattice = Lattice::new(3);
        let agg = CubeAggregator::new(&cube);
        let (results, _) = agg.compute(&lattice.proper_masks()).unwrap();
        for (_, r) in results {
            assert!((r.grand_total() - total).abs() < 1e-9);
        }
    }

    #[test]
    fn avg_survives_cascade() {
        let cube = cube3d();
        let agg = CubeAggregator::new(&cube);
        // ∅ cascades through intermediate group-bys; AVG must still be the
        // true mean of all 72 leaf values.
        let (results, _) = agg.compute(&[0]).unwrap();
        let scalar = &results[&0];
        let mean = cube.total_sum().unwrap() / 72.0;
        let got = scalar.value(&[], AggFn::Avg).as_f64().unwrap();
        assert!((got - mean).abs() < 1e-9);
        assert_eq!(scalar.value(&[], AggFn::Count), CellValue::Num(72.0));
    }

    #[test]
    fn min_max_through_cascade() {
        let cube = cube3d();
        let agg = CubeAggregator::new(&cube);
        let (results, _) = agg.compute(&[0]).unwrap();
        let scalar = &results[&0];
        assert_eq!(scalar.value(&[], AggFn::Min), CellValue::Num(0.0));
        assert_eq!(scalar.value(&[], AggFn::Max), CellValue::Num(352.0));
    }

    #[test]
    fn sparse_cells_and_implicit_chunks() {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("X").leaves(&["x0", "x1", "x2", "x3"]))
                .dimension(DimensionSpec::new("Y").leaves(&["y0", "y1", "y2", "y3"]))
                .build()
                .unwrap(),
        );
        let mut b = Cube::builder(schema, vec![2, 2]).unwrap();
        b.set_num(&[0, 0], 5.0).unwrap();
        b.set_num(&[3, 3], 7.0).unwrap();
        let cube = b.finish().unwrap();
        let agg = CubeAggregator::new(&cube);
        let (results, _) = agg.compute(&[0b01, 0b10, 0]).unwrap();
        let x = &results[&0b01];
        assert_eq!(x.value(&[0], AggFn::Sum), CellValue::Num(5.0));
        assert_eq!(x.value(&[1], AggFn::Sum), CellValue::Null);
        assert_eq!(x.value(&[3], AggFn::Sum), CellValue::Num(7.0));
        let scalar = &results[&0];
        assert_eq!(scalar.value(&[], AggFn::Sum), CellValue::Num(12.0));
    }

    /// Fig. 6's cube: 16×16×16 cells, extent 4, with a light sprinkle of
    /// data so chunks materialize.
    fn fig6() -> Cube {
        let names: Vec<String> = (0..16).map(|i| format!("m{i}")).collect();
        let name_refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("A").leaves(&name_refs))
                .dimension(DimensionSpec::new("B").leaves(&name_refs))
                .dimension(DimensionSpec::new("C").leaves(&name_refs))
                .build()
                .unwrap(),
        );
        let mut b = Cube::builder(schema, vec![4, 4, 4]).unwrap();
        for i in 0..16u32 {
            b.set_num(&[i, (i * 3) % 16, (i * 5) % 16], 1.0).unwrap();
        }
        b.finish().unwrap()
    }

    #[test]
    fn buffer_memory_tracks_zhao_rule() {
        // Fig. 6's cube. Under order ABC, group-by AB alone needs 16
        // chunk buffers at peak.
        let cube = fig6();
        let ab = 0b011;
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let (_, report) = agg.compute(&[ab]).unwrap();
        // AB buffers: all 16 AB-chunks live until the C dimension finishes.
        assert_eq!(report.peak_buffer_chunks, 16);
        // Under order CBA, AB completes immediately: 1 buffer at a time.
        let agg2 = CubeAggregator::with_order(&cube, vec![2, 1, 0]);
        let (_, report2) = agg2.compute(&[ab]).unwrap();
        assert_eq!(report2.peak_buffer_chunks, 1);
    }

    /// What one pass computing `masks` admits.
    fn pass_cells(agg: &CubeAggregator, masks: &[GroupByMask]) -> u64 {
        let passes = agg.plan(masks, &Bounds::default()).unwrap();
        assert_eq!(passes.len(), 1, "unbounded is one pass");
        passes[0].cells
    }

    fn budget(cells: u64) -> Bounds {
        Bounds {
            budget_cells: cells,
            ..Bounds::default()
        }
    }

    #[test]
    fn closure_parents_are_supersets() {
        let cube = fig6();
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let pass = &agg
            .plan(&Lattice::new(3).proper_masks(), &Bounds::default())
            .unwrap()[0];
        assert_eq!(pass.nodes.len(), 8, "every proper mask plus the root");
        for &m in &pass.nodes[1..] {
            let p = agg.parent(m);
            assert_eq!(p & m, m, "parent {p:b} must contain {m:b}");
            assert_eq!(p.count_ones(), m.count_ones() + 1);
            assert!(pass.nodes.contains(&p), "the closure holds {p:b}");
        }
        // Every node but the root is the child of exactly one earlier
        // node.
        let specs = agg.specs(pass);
        assert_eq!(specs[0].mask, 0b111);
        for i in 1..specs.len() {
            let parents: Vec<usize> = (0..specs.len())
                .filter(|&p| specs[p].children.contains(&i))
                .collect();
            assert_eq!(parents.len(), 1);
            assert!(parents[0] < i);
        }
    }

    #[test]
    fn closure_prefers_small_parents() {
        // Axis lens 2, 100, 100: group-by ∅ should cascade from A (len 2),
        // not from B or C, and A from AB (ties to the smaller mask).
        let names: Vec<String> = (0..100).map(|i| format!("m{i}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("A").leaves(&["a0", "a1"]))
                .dimension(DimensionSpec::new("B").leaves(&refs))
                .dimension(DimensionSpec::new("C").leaves(&refs))
                .build()
                .unwrap(),
        );
        let cube = Cube::builder(schema, vec![2, 2, 2])
            .unwrap()
            .finish()
            .unwrap();
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        assert_eq!(agg.parent(0), 0b001);
        let pass = &agg.plan(&[0], &Bounds::default()).unwrap()[0];
        assert_eq!(pass.nodes, vec![0b111, 0b011, 0b001, 0]);
    }

    #[test]
    fn plan_packs_passes_under_the_budget() {
        let cube = fig6();
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let masks = Lattice::new(3).proper_masks();
        let total = pass_cells(&agg, &masks);
        // Everything fits in one pass with the full budget.
        assert_eq!(agg.plan(&masks, &budget(total)).unwrap().len(), 1);
        // A budget that fits the costliest closure but not everything
        // forces several passes, each within it, covering every mask in
        // request order.
        let biggest = masks.iter().map(|&m| pass_cells(&agg, &[m])).max().unwrap();
        assert!(biggest + 50 < total);
        let multi = agg.plan(&masks, &budget(biggest + 50)).unwrap();
        assert!(multi.len() >= 2);
        assert!(multi.iter().all(|pass| pass.cells <= biggest + 50));
        let flat: Vec<GroupByMask> = multi.iter().flat_map(|p| p.masks.clone()).collect();
        assert_eq!(flat, masks);
        // A budget below the costliest closure refuses the request.
        match agg.plan(&masks, &budget(biggest - 1)) {
            Err(crate::CubeError::OverBudget { needed, budget }) => {
                assert_eq!((needed, budget), (biggest, biggest - 1));
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn budgeted_multipass_matches_single_pass() {
        let cube = cube3d();
        let lattice = Lattice::new(3);
        let masks = lattice.proper_masks();
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let (single, single_report) = agg.compute(&masks).unwrap();
        assert_eq!(single_report.passes, 1);
        // A budget just above the costliest closure forces several
        // passes but identical results.
        let biggest = masks.iter().map(|&m| pass_cells(&agg, &[m])).max().unwrap();
        let (multi, multi_report) = agg.compute_with_budget(&masks, biggest + 4).unwrap();
        assert!(multi_report.passes > 1, "expected multiple passes");
        assert!(
            multi_report.base_chunks_scanned > single_report.base_chunks_scanned,
            "multi-pass re-scans the base"
        );
        assert_eq!(single.len(), multi.len());
        for (&m, r) in &single {
            let r2 = &multi[&m];
            for (i, acc) in r.accs.iter().enumerate() {
                assert_eq!(acc, &r2.accs[i], "mask {m:b} cell {i}");
            }
        }
        // An impossible budget errors.
        assert!(agg.compute_with_budget(&masks, biggest - 1).is_err());
        // A lavish budget runs in one pass.
        let (_, r) = agg
            .compute_with_budget(&masks, pass_cells(&agg, &masks))
            .unwrap();
        assert_eq!(r.passes, 1);
    }

    /// Runs `f` on `n` threads at once and returns what each returned —
    /// the shape of `n` server sessions asking at the same time.
    fn concurrently<T: Send>(n: usize, f: impl Fn() -> T + Sync) -> Vec<T> {
        std::thread::scope(|s| {
            let handles: Vec<_> = (0..n).map(|_| s.spawn(&f)).collect();
            (handles.into_iter())
                .map(|h| h.join().expect("request panicked"))
                .collect()
        })
    }

    /// Requests running at once over one cube each report their own
    /// serial high-water mark: four concurrent scans read exactly the
    /// report of one scan alone, so no request's peak counts another's
    /// buffers, and the mark stays inside what the one pass admitted.
    #[test]
    fn concurrent_peak_is_true_high_water() {
        let cube = cube3d();
        let masks = Lattice::new(3).proper_masks();
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let (_, alone) = agg.compute(&masks).unwrap();
        assert!(alone.peak_buffer_cells > 0);
        assert!(alone.peak_buffer_cells <= pass_cells(&agg, &masks));
        for report in concurrently(4, || agg.compute(&masks).unwrap().1) {
            assert_eq!(report, alone);
        }
    }

    /// The multi-pass fallback's peak is the largest single pass's, at or
    /// under the budget, for each of several budgeted requests at once.
    #[test]
    fn concurrent_peak_survives_multipass_max() {
        let cube = cube3d();
        let masks = Lattice::new(3).proper_masks();
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let biggest = masks.iter().map(|&m| pass_cells(&agg, &[m])).max().unwrap();
        let (_, alone) = agg.compute_with_budget(&masks, biggest + 4).unwrap();
        assert!(alone.passes > 1);
        assert!(alone.peak_buffer_cells <= biggest + 4);
        let budgeted = || agg.compute_with_budget(&masks, biggest + 4).unwrap().1;
        for report in concurrently(4, budgeted) {
            assert_eq!(report, alone);
        }
    }

    #[test]
    fn full_mask_returns_base() {
        let cube = cube3d();
        let agg = CubeAggregator::new(&cube);
        let lattice = Lattice::new(3);
        let full = lattice.full();
        let (results, _) = agg.compute(&[full]).unwrap();
        let r = &results[&full];
        assert_eq!(r.value(&[1, 2, 1], AggFn::Sum), CellValue::Num(121.0));
        let mut cells = 0;
        cube.for_each_present(|cell, v| {
            assert_eq!(r.acc(cell).sum, v);
            assert_eq!(r.acc(cell).count, 1);
            cells += 1;
        })
        .unwrap();
        assert_eq!(r.accs.iter().filter(|a| !a.is_empty()).count(), cells);

        // The full mask is filled from the scan's own blocks: asking for
        // it costs no chunk read beyond the scan's.
        let gets = |masks: &[GroupByMask]| {
            let before = cube.pool_stats();
            let (_, report) = CubeAggregator::new(&cube).compute(masks).unwrap();
            let st = cube.pool_stats().delta(&before);
            (st.hits + st.misses, report.base_chunks_scanned)
        };
        let mut masks = lattice.proper_masks();
        let without = gets(&masks);
        masks.push(full);
        assert_eq!(gets(&masks), without);
        assert_eq!(without, (12, 12));
    }

    /// Workforce's shape: trailing axes of length 2 cut into extent-1
    /// chunks with one slot populated, so no chunk row along them is
    /// longer than one cell. Blocks are dense arrays, so row length is
    /// irrelevant: every group-by matches the per-cell fold exactly, and
    /// the unpopulated half of the grid only counts completions.
    #[test]
    fn trailing_axes_of_length_two_and_extent_one() {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("A").leaves(&["a0", "a1", "a2", "a3", "a4"]))
                .dimension(DimensionSpec::new("B").leaves(&["b0", "b1", "b2"]))
                .dimension(DimensionSpec::new("C").leaves(&["c0", "c1"]))
                .dimension(DimensionSpec::new("D").leaves(&["d0", "d1"]))
                .build()
                .unwrap(),
        );
        let mut b = Cube::builder(schema, vec![2, 3, 1, 1]).unwrap();
        for a in 0..5u32 {
            for bb in 0..3u32 {
                if (a + bb) % 4 != 0 {
                    b.set_num(&[a, bb, 0, 0], (10 * a + bb) as f64 + 0.5)
                        .unwrap();
                }
            }
        }
        let cube = b.finish().unwrap();
        assert_eq!(cube.geometry().grid(), &[3, 1, 2, 2]);
        assert_eq!(cube.chunk_count(), 3);
        let masks = Lattice::new(4).proper_masks();
        let (results, report) = CubeAggregator::new(&cube).compute(&masks).unwrap();
        assert_eq!(report.base_chunks_scanned, 12);
        for &m in &masks {
            let expect = naive(&cube, m);
            let r = &results[&m];
            for (key, &total) in &expect {
                assert_eq!(r.value(key, AggFn::Sum), CellValue::Num(total), "{m:b}");
            }
            let nonempty = r.accs.iter().filter(|a| !a.is_empty()).count();
            assert_eq!(nonempty, expect.len(), "mask {m:b}");
        }
    }
}
