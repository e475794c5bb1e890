//! Simultaneous chunked aggregation (Zhao et al., SIGMOD'97).
//!
//! One pass over the base chunks — in a chosen dimension order — computes
//! every requested group-by at once. Group-bys cascade through the
//! [`Mmst`]: each node aggregates from its tree parent's *completed*
//! chunks, holding partial chunk buffers exactly as long as Zhao's memory
//! rule predicts. The aggregator reports the observed peak buffer
//! occupancy so tests (and the dimension-order ablation) can check the
//! prediction.
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
//! floating-point result of every target whatever the thread count or
//! pass split.
//!
//! Accumulators carry (sum, count, min, max) end-to-end, so the algebraic
//! AVG stays correct through arbitrary cascade depth.

use crate::cube::Cube;
use crate::lattice::{GroupByMask, Mmst};
use crate::rules::{Acc, AggFn};
use crate::Result;
use olap_store::{CellValue, Chunk, ChunkData, ChunkGeometry, ChunkId};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};

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
    /// parent chunk delivered to it (all-⊥ or not) until its last. In
    /// parallel mode this is the sum of the per-worker peaks — an upper
    /// bound on simultaneous residency (workers need not peak together);
    /// `concurrent_peak_cells` is the exact mark.
    pub peak_buffer_cells: u64,
    /// Peak simultaneously-live chunk buffers across all group-bys
    /// (summed over workers in parallel mode, like `peak_buffer_cells`).
    pub peak_buffer_chunks: u64,
    /// Base chunk-grid positions visited, materialized or implicit ⊥
    /// (only the former are read; the latter are announced to the
    /// cascade as empty blocks). One scan visits every position once;
    /// summed over passes for the multi-pass fallback, and over workers
    /// in parallel mode — each worker streams the base once.
    pub base_chunks_scanned: u64,
    /// Number of passes over the input (1 unless a memory budget forced
    /// Zhao's multi-pass fallback).
    pub passes: u64,
    /// Peak live buffer cells observed by each worker thread. Empty in
    /// serial mode; element-wise maxed across passes in multi-pass runs.
    pub per_thread_peak_cells: Vec<u64>,
    /// True concurrent high-water mark of live buffer cells: every
    /// worker adds and subtracts on one shared gauge, and the peak is
    /// taken atomically (`fetch_max`), so this is the largest number of
    /// cells simultaneously resident across the whole pool. Equals
    /// `peak_buffer_cells` in serial mode; in parallel mode it sits
    /// between `max_worker_peak_cells()` and the summed
    /// `peak_buffer_cells` (workers need not peak together). Maxed
    /// across passes in multi-pass runs.
    pub concurrent_peak_cells: u64,
}

impl AggregationReport {
    /// Largest single-worker peak of live buffer cells — the figure
    /// comparable to a serial run's `peak_buffer_cells` (which in
    /// parallel mode sums the workers instead). Equals
    /// `peak_buffer_cells` in serial mode.
    pub fn max_worker_peak_cells(&self) -> u64 {
        self.per_thread_peak_cells
            .iter()
            .copied()
            .max()
            .unwrap_or(self.peak_buffer_cells)
    }
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

/// A node's place in the cascade plan, shared (read-only) by every
/// worker; each worker runs its own [`Node`]s against these.
struct NodeSpec {
    mask: GroupByMask,
    /// Retained dims, ascending.
    dims: Vec<usize>,
    /// Indices of tree children participating in this computation.
    children: Vec<usize>,
    /// Parent chunks contributing to each of this node's chunks.
    expected: u32,
    /// Position, among the parent's dims, of the one dimension this
    /// node aggregates away (every MMST edge drops exactly one).
    drop_pos: usize,
    /// Whether the caller asked for this mask.
    requested: bool,
}

/// One worker's mutable state for a group-by node.
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
    /// Completed output (only for requested masks this worker owns).
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
    threads: usize,
    prefetch: usize,
}

impl<'a> CubeAggregator<'a> {
    /// Aggregator with the minimum-memory (ascending-cardinality) order.
    pub fn new(cube: &'a Cube) -> Self {
        let order = crate::lattice::min_memory_order(cube.geometry());
        CubeAggregator {
            cube,
            order,
            threads: 1,
            prefetch: 0,
        }
    }

    /// Aggregator with an explicit read order (`order[0]` fastest).
    pub fn with_order(cube: &'a Cube, order: Vec<usize>) -> Self {
        assert_eq!(order.len(), cube.geometry().ndims());
        CubeAggregator {
            cube,
            order,
            threads: 1,
            prefetch: 0,
        }
    }

    /// Sets the parallelism degree. `1` (the default) runs the serial
    /// cascade; `n ≥ 2` partitions the MMST's root subtrees across up to
    /// `n` worker threads, each streaming the base chunks with a private
    /// buffer map (the `(sum, count, min, max)` accumulators make every
    /// merge associative, and each requested mask belongs to exactly one
    /// subtree, so no cross-worker merging is needed).
    pub fn with_threads(mut self, threads: usize) -> Self {
        self.threads = threads.max(1);
        self
    }

    /// Sets the prefetch lookahead: before each stored chunk is read, the
    /// next `k` *stored* chunks of the scan order are hinted to the
    /// cube's buffer pool so its I/O workers overlap reads with
    /// aggregation (implicit all-⊥ grid positions do not use up the
    /// window). `0` (the default) issues no hints and is bit-identical to
    /// no prefetching; `k ≥ 1` only changes I/O timing, never results.
    /// Requires [`Cube::start_io_threads`] to have any effect.
    pub fn with_prefetch(mut self, k: usize) -> Self {
        self.prefetch = k;
        self
    }

    /// The read order in use.
    pub fn order(&self) -> &[usize] {
        &self.order
    }

    /// Zhao et al.'s multi-pass fallback: "If the available memory falls
    /// short of the requirement determined from the MMST, then instead of
    /// one pass, we must make multiple passes over the input cube."
    /// Splits the requested masks into budget-respecting passes (see
    /// [`Mmst::plan_passes`]) and runs each as its own scan.
    pub fn compute_with_budget(
        &self,
        masks: &[GroupByMask],
        budget_cells: u64,
    ) -> Result<(HashMap<GroupByMask, GroupByResult>, AggregationReport)> {
        let mmst = Mmst::build(self.cube.geometry(), &self.order);
        let passes = mmst.plan_passes(masks, budget_cells)?;
        let mut out = HashMap::new();
        let mut report = AggregationReport::default();
        for pass in &passes {
            let (results, r) = self.run_pass(&mmst, pass)?;
            out.extend(results);
            report.peak_buffer_cells = report.peak_buffer_cells.max(r.peak_buffer_cells);
            report.peak_buffer_chunks = report.peak_buffer_chunks.max(r.peak_buffer_chunks);
            report.concurrent_peak_cells =
                report.concurrent_peak_cells.max(r.concurrent_peak_cells);
            report.base_chunks_scanned += r.base_chunks_scanned;
            for (i, &v) in r.per_thread_peak_cells.iter().enumerate() {
                if i < report.per_thread_peak_cells.len() {
                    report.per_thread_peak_cells[i] = report.per_thread_peak_cells[i].max(v);
                } else {
                    report.per_thread_peak_cells.push(v);
                }
            }
        }
        report.passes = passes.len() as u64;
        Ok((out, report))
    }

    /// Computes the requested group-bys (cascading through any MMST
    /// ancestors needed), returning results for exactly the requested
    /// masks plus execution metrics.
    pub fn compute(
        &self,
        masks: &[GroupByMask],
    ) -> Result<(HashMap<GroupByMask, GroupByResult>, AggregationReport)> {
        let mmst = Mmst::build(self.cube.geometry(), &self.order);
        self.run_pass(&mmst, masks)
    }

    /// One scan of the base cube computing `masks` together.
    fn run_pass(
        &self,
        mmst: &Mmst,
        masks: &[GroupByMask],
    ) -> Result<(HashMap<GroupByMask, GroupByResult>, AggregationReport)> {
        let specs = self.plan(mmst, masks);
        let root_children = &specs[0].children;
        let workers = self.threads.min(root_children.len().max(1));
        let gauge = Gauge::default();
        let (out, mut report) = if workers <= 1 {
            self.run_worker(&specs, root_children, true, &gauge)?
        } else {
            // Root subtrees are disjoint (every non-full mask hangs under
            // exactly one child of the root), so they partition
            // round-robin across scoped threads. Each worker streams the
            // base chunks itself (the buffer pool is safe for concurrent
            // readers) into private nodes and hands back the results of
            // its own subtrees; the first also answers the full mask. The
            // merge is a disjoint union.
            let mut assigned: Vec<Vec<usize>> = vec![Vec::new(); workers];
            for (i, &c) in root_children.iter().enumerate() {
                assigned[i % workers].push(c);
            }
            let (specs, gauge) = (&specs, &gauge);
            let parts: Vec<Result<_>> = std::thread::scope(|s| {
                let handles: Vec<_> = assigned
                    .iter()
                    .enumerate()
                    .map(|(w, mine)| s.spawn(move || self.run_worker(specs, mine, w == 0, gauge)))
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("aggregation worker panicked"))
                    .collect()
            });
            let mut out = HashMap::new();
            let mut report = AggregationReport::default();
            for part in parts {
                let (results, r) = part?;
                out.extend(results);
                report.peak_buffer_cells += r.peak_buffer_cells;
                report.peak_buffer_chunks += r.peak_buffer_chunks;
                report.base_chunks_scanned += r.base_chunks_scanned;
                report.per_thread_peak_cells.push(r.peak_buffer_cells);
            }
            (out, report)
        };
        report.concurrent_peak_cells = gauge.peak();
        report.passes = 1;
        Ok((out, report))
    }

    /// Builds the cascade plan: the closure of the requested masks under
    /// MMST parents, root first, with tree children, per-chunk completion
    /// counts and the axis each edge aggregates away. `specs[0]` is
    /// always the full mask.
    fn plan(&self, mmst: &Mmst, masks: &[GroupByMask]) -> Vec<NodeSpec> {
        let geom = self.cube.geometry();
        let lattice = mmst.lattice();
        let needed = mmst.closure(masks);
        let mut specs: Vec<NodeSpec> = needed
            .iter()
            .map(|&m| NodeSpec {
                mask: m,
                dims: lattice.dims_of(m),
                children: Vec::new(),
                expected: 0,
                drop_pos: 0,
                requested: masks.contains(&m),
            })
            .collect();
        for i in 1..specs.len() {
            let m = specs[i].mask;
            let p = mmst.parent(m).expect("non-root has a parent");
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

    /// Runs one worker: a scan of every base chunk feeding the subtrees
    /// rooted at `subtrees` (and, with `root`, the full mask's own result)
    /// from private nodes. Returns the requested results of those nodes.
    fn run_worker(
        &self,
        specs: &[NodeSpec],
        subtrees: &[usize],
        root: bool,
        gauge: &Gauge,
    ) -> Result<(HashMap<GroupByMask, GroupByResult>, AggregationReport)> {
        let geom = self.cube.geometry();
        let mut nodes: Vec<Node> = specs.iter().map(|_| Node::default()).collect();
        let mut stack = subtrees.to_vec();
        if root {
            stack.push(0);
        }
        while let Some(ni) = stack.pop() {
            let spec = &specs[ni];
            if ni != 0 {
                stack.extend_from_slice(&spec.children);
            }
            if spec.requested {
                let shape = spec.dims.iter().map(|&d| geom.lens()[d]).collect();
                nodes[ni].result = Some(GroupByResult::new(spec.dims.clone(), shape));
            }
        }
        let report = self.scan(specs, &mut nodes, subtrees, gauge)?;
        let out = nodes
            .iter_mut()
            .zip(specs)
            .filter_map(|(node, spec)| Some((spec.mask, node.result.take()?)))
            .collect();
        Ok((out, report))
    }

    /// Streams every base chunk in the chosen order, delivering each as a
    /// block to the root children in `deliver_to` only. Implicit (all-⊥)
    /// chunks are announced too: children count completions per parent
    /// chunk. A requested full mask is filled here, from the same blocks,
    /// so the base is never walked a second time.
    fn scan(
        &self,
        specs: &[NodeSpec],
        nodes: &mut [Node],
        deliver_to: &[usize],
        gauge: &Gauge,
    ) -> Result<AggregationReport> {
        let geom = self.cube.geometry();
        let mut exec = Exec {
            geom,
            specs,
            gauge,
            live_cells: 0,
            live_chunks: 0,
            report: AggregationReport::default(),
        };
        // With prefetching on, list the stored chunks in scan order once
        // up front so the window counts chunks that will actually be read
        // (the odometer iterator cannot be cloned to peek ahead).
        let stored: Vec<ChunkId> = if self.prefetch > 0 {
            geom.chunks_in_order(&self.order)
                .map(|c| geom.chunk_id(&c))
                .filter(|&id| self.cube.chunk_exists(id))
                .collect()
        } else {
            Vec::new()
        };
        let mut read = 0usize; // stored chunks reached so far
        let mut hinted = 0usize; // stored[..hinted] already hinted or read
        for coord in geom.chunks_in_order(&self.order) {
            exec.report.base_chunks_scanned += 1;
            let id = geom.chunk_id(&coord);
            let shape = geom.chunk_shape(&coord);
            let chunk = if self.cube.chunk_exists(id) {
                if self.prefetch > 0 {
                    read += 1;
                    let end = (read + self.prefetch).min(stored.len());
                    let from = hinted.max(read);
                    if end > from {
                        self.cube.prefetch(&stored[from..end]);
                        hinted = end;
                    }
                }
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
            for &c in deliver_to {
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

/// Shared high-water gauge for live buffer cells. Every worker adds and
/// subtracts on the same `cur` counter, so `peak` captures the largest
/// *simultaneous* residency across the whole pool — unlike the summed
/// per-worker peaks, which assume all workers peak at once.
#[derive(Default)]
struct Gauge {
    cur: AtomicU64,
    peak: AtomicU64,
}

impl Gauge {
    fn add(&self, n: u64) {
        let now = self.cur.fetch_add(n, Ordering::Relaxed) + n;
        self.peak.fetch_max(now, Ordering::Relaxed);
    }

    fn sub(&self, n: u64) {
        self.cur.fetch_sub(n, Ordering::Relaxed);
    }

    fn peak(&self) -> u64 {
        self.peak.load(Ordering::Relaxed)
    }
}

/// Mutable execution state threaded through the cascade.
struct Exec<'p> {
    geom: &'p ChunkGeometry,
    specs: &'p [NodeSpec],
    gauge: &'p Gauge,
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
            self.gauge.add(buf_len as u64);
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
        self.gauge.sub(buf_len as u64);
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

    #[test]
    fn buffer_memory_tracks_zhao_rule() {
        // 16×16×16 cube, extent 4 — Fig. 6. Under order ABC, group-by AB
        // alone needs 16 chunk buffers at peak.
        let mut names: Vec<String> = Vec::new();
        for i in 0..16 {
            names.push(format!("m{i}"));
        }
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
        // A light sprinkle of data so chunks materialize.
        for i in 0..16u32 {
            b.set_num(&[i, (i * 3) % 16, (i * 5) % 16], 1.0).unwrap();
        }
        let cube = b.finish().unwrap();
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

    #[test]
    fn budgeted_multipass_matches_single_pass() {
        let cube = cube3d();
        let lattice = Lattice::new(3);
        let masks = lattice.proper_masks();
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let (single, single_report) = agg.compute(&masks).unwrap();
        assert_eq!(single_report.passes, 1);
        // A budget just above the biggest single node forces several
        // passes but identical results.
        let mmst = Mmst::build(cube.geometry(), &[0, 1, 2]);
        let biggest = masks.iter().map(|&m| mmst.memory_cells(m)).max().unwrap();
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
            .compute_with_budget(&masks, mmst.total_memory_cells())
            .unwrap();
        assert_eq!(r.passes, 1);
    }

    #[test]
    fn parallel_matches_serial_accumulators() {
        let cube = cube3d();
        let lattice = Lattice::new(3);
        // Include the full mask so the main-thread path is covered too.
        let mut masks = lattice.proper_masks();
        masks.push(lattice.full());
        let serial = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let (s_res, s_rep) = serial.compute(&masks).unwrap();
        assert!(s_rep.per_thread_peak_cells.is_empty(), "serial mode");
        for threads in [2, 3, 8] {
            let par = CubeAggregator::with_order(&cube, vec![0, 1, 2]).with_threads(threads);
            let (p_res, p_rep) = par.compute(&masks).unwrap();
            assert_eq!(s_res.len(), p_res.len());
            for (&m, r) in &s_res {
                let r2 = &p_res[&m];
                for (i, acc) in r.accs.iter().enumerate() {
                    assert_eq!(acc, &r2.accs[i], "threads {threads} mask {m:b} cell {i}");
                }
            }
            assert!(!p_rep.per_thread_peak_cells.is_empty());
            assert_eq!(
                p_rep.per_thread_peak_cells.iter().sum::<u64>(),
                p_rep.peak_buffer_cells,
                "aggregate peak is the sum of per-worker peaks"
            );
            assert!(p_rep.max_worker_peak_cells() <= p_rep.peak_buffer_cells);
        }
    }

    #[test]
    fn concurrent_peak_is_true_high_water() {
        let cube = cube3d();
        let masks = Lattice::new(3).proper_masks();
        let (_, serial) = CubeAggregator::with_order(&cube, vec![0, 1, 2])
            .compute(&masks)
            .unwrap();
        // One worker: the gauge and the serial counter see the same
        // inserts/removes, so the marks coincide exactly.
        assert_eq!(serial.concurrent_peak_cells, serial.peak_buffer_cells);
        for threads in [2, 3, 8] {
            let (_, par) = CubeAggregator::with_order(&cube, vec![0, 1, 2])
                .with_threads(threads)
                .compute(&masks)
                .unwrap();
            assert!(par.concurrent_peak_cells > 0);
            // The true mark is bracketed by the busiest single worker
            // (that worker's cells were all live at its own peak) and
            // the summed per-worker peaks (the all-peak-together bound).
            assert!(par.concurrent_peak_cells >= par.max_worker_peak_cells());
            assert!(par.concurrent_peak_cells <= par.peak_buffer_cells);
        }
    }

    #[test]
    fn concurrent_peak_survives_multipass_max() {
        let cube = cube3d();
        let masks = Lattice::new(3).proper_masks();
        let agg = CubeAggregator::with_order(&cube, vec![0, 1, 2]);
        let mmst = Mmst::build(cube.geometry(), &[0, 1, 2]);
        let biggest = masks.iter().map(|&m| mmst.memory_cells(m)).max().unwrap();
        let (_, multi) = agg.compute_with_budget(&masks, biggest + 4).unwrap();
        assert!(multi.passes > 1);
        assert_eq!(multi.concurrent_peak_cells, multi.peak_buffer_cells);
        assert!(multi.concurrent_peak_cells <= biggest + 4);
    }

    #[test]
    fn threads_one_is_bit_identical_to_default() {
        let cube = cube3d();
        let masks = Lattice::new(3).proper_masks();
        let (_, base) = CubeAggregator::with_order(&cube, vec![0, 1, 2])
            .compute(&masks)
            .unwrap();
        let (_, one) = CubeAggregator::with_order(&cube, vec![0, 1, 2])
            .with_threads(1)
            .compute(&masks)
            .unwrap();
        assert_eq!(base, one);
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
        // it costs no chunk read beyond the scan's, serial or threaded.
        let gets = |masks: &[GroupByMask], threads: usize| {
            cube.reset_stats();
            let (_, report) = CubeAggregator::new(&cube)
                .with_threads(threads)
                .compute(masks)
                .unwrap();
            let st = cube.pool_stats();
            (st.hits + st.misses, report.base_chunks_scanned)
        };
        let mut masks = lattice.proper_masks();
        let without = (gets(&masks, 1), gets(&masks, 3));
        masks.push(full);
        assert_eq!((gets(&masks, 1), gets(&masks, 3)), without);
        assert_eq!(without.0, (12, 12));
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
