//! Chunked perspective-cube execution (Sections 5 and 6).
//!
//! The reference path ([`crate::operators::relocate()`]) is the semantic
//! oracle; this module is the engine the paper actually proposes: stream
//! chunks, *merge* the sub-cubes of a changing member's instances, and
//! choose the read order so that as few chunks as possible are resident
//! at once.
//!
//! Per Lemma 5.1, the varying dimension comes first in the read order
//! (slice-by-slice processing); within a slice, affected chunks are read
//! in an order chosen by pebbling the merge-dependency graph
//! (Section 5.2). Per Section 6, a multi-perspective query runs as
//! **passes** — one per perspective (static) or per range (dynamic) —
//! sharing one output cube; queries can also be **scoped** to the
//! varying-dimension slots they touch, Essbase-style. Both are arguments
//! of the one entry point, [`execute_passes_opts`]: a single-pass run is
//! a one-element pass plan (`std::slice::from_ref(&map)`), and serial,
//! unhinted, uncached execution is [`ExecOpts::default`]. [`ExecReport`]
//! exposes predicted pebbles and observed peak buffer residency for the
//! ablations.

use crate::cache::{Cached, ComponentDigest, ScenarioCache};
use crate::error::WhatIfError;
use crate::fingerprint::Fnv64;
use crate::merge::{heuristic_order, naive_order, pebbles_for_order, MergeGraph};
use crate::operators::relocate::{CellFate, DestMap};
use crate::Result;
use olap_cube::Cube;
use olap_model::DimensionId;
use olap_store::{Chunk, ChunkId};
use std::collections::HashMap;
use std::sync::Arc;

/// How to evaluate a what-if query.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Strategy {
    /// Cell-at-a-time reference implementation (the test oracle).
    Reference,
    /// Section 5/6 chunked execution with per-perspective passes.
    Chunked(OrderPolicy),
}

/// Chunk read-order policy for the chunked executor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum OrderPolicy {
    /// Varying dimension first (Lemma 5.1); affected chunks within each
    /// slice ordered by the paper's pebbling heuristic.
    Pebbling,
    /// Varying dimension first, affected chunks in physical layout order
    /// (the paper's "order 1-10" baseline).
    Naive,
    /// An explicit global dimension order (`order[0]` varies fastest) —
    /// used by the Lemma 5.1 ablation to show what happens when the
    /// varying dimension is *not* first.
    DimOrder(Vec<usize>),
}

/// Execution metrics (accumulated over passes).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ExecReport {
    /// Merge-graph nodes of the *full* plan (affected varying-dimension
    /// chunks per slice).
    pub graph_nodes: usize,
    /// Merge-graph edges of the full plan.
    pub graph_edges: usize,
    /// Peak pebbles the chosen within-slice order needs on the full slice
    /// graph (0 for `DimOrder`, which doesn't pebble).
    pub predicted_pebbles: usize,
    /// Observed peak number of simultaneously live output buffers.
    pub peak_out_buffers: u64,
    /// Chunk reads against the input (pool hits included — the paper's
    /// per-perspective re-merging repeats reads).
    pub chunks_read: u64,
    /// Cells that moved between instances.
    pub cells_relocated: u64,
    /// Cells dropped (their instance is inactive in the output).
    pub cells_dropped: u64,
    /// Slices processed (summed over passes).
    pub slices: u64,
    /// Number of passes run.
    pub passes: u64,
    /// Merge work units: graph-node chunks processed (buffer pebbled,
    /// cells scattered), summed over passes. This is the work the
    /// scenario-delta cache eliminates.
    pub merges: u64,
    /// Output chunks installed from the scenario-delta cache instead of
    /// being re-merged (0 unless `ExecOpts::cache` is set).
    pub cache_chunks_served: u64,
}

/// Inner-loop implementation for the chunked executor.
///
/// `Runs` (the default) decomposes each chunk into maximal row-major runs
/// ([`olap_store::ChunkGeometry::runs`]) and hoists every per-cell decision
/// that is constant over a run — fate lookup, kept-scope check, destination
/// chunk id and base offset — out of the inner loop, which becomes a slice
/// copy plus a word-wise presence OR. `Scalar` keeps the original
/// cell-at-a-time loops as the semantics oracle; the two are bit-identical
/// (gated by the `run_kernels` equivalence suite).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelKind {
    /// Cell-at-a-time loops (the oracle): `tests/tests/run_kernels.rs`
    /// holds `Runs` to it bit for bit.
    Scalar,
    /// Run-decomposed branch-free loops (DESIGN.md §15).
    #[default]
    Runs,
}

impl std::fmt::Display for KernelKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            KernelKind::Scalar => "scalar",
            KernelKind::Runs => "runs",
        })
    }
}

/// Tuning knobs for the chunked executor — the one declaration of them:
/// callers build a value here and pass it down; nothing re-declares the
/// fields.
#[derive(Debug, Clone)]
pub struct ExecOpts {
    /// Worker threads for the Lemma 5.1 slice fan-out; `1` (the default)
    /// is serial. Slices (fixed non-varying chunk coordinates) are
    /// independent — relocation only moves cells along the varying
    /// dimension — so `Pebbling`/`Naive` passes partition them across up
    /// to `threads` scoped workers, each with private slice/buffer maps;
    /// passes still run in order. `DimOrder` stays serial: its
    /// cross-slice interleaving is the very effect the Lemma 5.1 ablation
    /// measures.
    pub threads: usize,
    /// Prefetch lookahead K: while processing a chunk sequence, the next
    /// K chunk ids are hinted to the cube's buffer pool so its I/O
    /// workers overlap store reads with merge compute. Hints follow each
    /// worker's *whole* read order, crossing slice boundaries, so the
    /// I/O workers never stall at a slice edge. `0` disables hinting and
    /// is bit-identical to the unhinted executor; any K only changes I/O
    /// timing, never results. Has no effect unless I/O workers are
    /// running (`Cube::start_io_threads`).
    pub prefetch: usize,
    /// Scenario-delta cache (DESIGN.md §10, §14): when set, unscoped
    /// executions probe it for whole merge components whose fate tables
    /// match *any* previously cached run over the same cube — entries
    /// are versioned by digest, so alternating scenarios keep all their
    /// versions warm — serve those output chunks without re-merging,
    /// and install recomputed components afterwards. `None` (the
    /// default) is bit-identical to an uncached run; a populated cache
    /// changes only the work done, never the cells produced. The cache
    /// assumes the base cube's chunks are immutable for its lifetime
    /// (sessions never mutate their data cube).
    pub cache: Option<Arc<ScenarioCache>>,
    /// Peak-memory ceiling in *cells* for this execution; `0` means
    /// unlimited. A plan whose predicted pebble count (times the chunk
    /// cell extent) exceeds the ceiling is rejected with
    /// [`crate::WhatIfError::BudgetExceeded`] before any chunk is read —
    /// the per-session admission check of the multi-tenant server. The
    /// check uses the same pebble prediction the `.explain` report
    /// shows, so a rejection names the exact shortfall.
    pub budget_cells: u64,
    /// Inner-loop implementation (default [`KernelKind::Runs`]); `Scalar`
    /// is the bit-identical cell-at-a-time oracle.
    pub kernel: KernelKind,
    /// Cooperative wall-clock deadline; `None` (the default) means
    /// unlimited. Checked at pass boundaries and before each Lemma 5.1
    /// slice sequence (slices are independent, so aborting between them
    /// leaves no partial state); once the instant passes, execution
    /// stops with [`crate::WhatIfError::DeadlineExceeded`] and the
    /// partial output cube is discarded. The scenario cache is only
    /// updated after a complete run, so a deadline abort never installs
    /// partial entries.
    pub deadline: Option<std::time::Instant>,
}

impl Default for ExecOpts {
    fn default() -> Self {
        ExecOpts {
            threads: 1,
            prefetch: 0,
            cache: None,
            budget_cells: 0,
            kernel: KernelKind::default(),
            deadline: None,
        }
    }
}

/// Chunked execution (Sections 5 and 6) — the executor's only entry
/// point. Runs each pass of a plan over one shared output cube. `full`
/// is the undecomposed plan (it defines the merge graph, the
/// copy-through set, and the scope closure); `passes` come from
/// [`crate::plan::decompose_passes`], or are `std::slice::from_ref(full)`
/// for a single-pass run.
///
/// With `scope` set, execution is restricted to the varying-dimension
/// slots a query touches (Essbase-style scoped retrieval — the Fig. 12
/// access pattern): only chunks containing a scoped slot, plus their
/// merge partners, are read, and the output cube is guaranteed correct
/// on the scoped slots.
///
/// With `ExecOpts::cache` set (and no scope — cached chunks are full
/// output chunks, so scoped runs bypass the cache), the merge
/// components of the *full* plan are probed first: a component whose
/// fate-table digest matches a cached run has all its output chunks
/// installed verbatim and is withdrawn from every pass; the remaining
/// components run normally and are inserted afterwards.
pub fn execute_passes_opts(
    cube: &Cube,
    dim: DimensionId,
    full: &DestMap,
    passes: &[DestMap],
    policy: &OrderPolicy,
    scope: Option<&[u32]>,
    opts: ExecOpts,
) -> Result<(Cube, ExecReport)> {
    let mut env = Env::new(cube, dim, full, policy, scope, &opts)?;
    env.check_deadline()?;
    let out = cube.empty_like();
    let mut report = env.base_report();
    if opts.budget_cells > 0 {
        // Reject-before-read: the pebble prediction is the same number
        // `.explain` reports, priced in cells via the chunk extent.
        let needed =
            (report.predicted_pebbles as u64).saturating_mul(cube.geometry().chunk_cells());
        if needed > opts.budget_cells {
            return Err(crate::WhatIfError::BudgetExceeded {
                needed_cells: needed,
                budget_cells: opts.budget_cells,
            });
        }
    }
    let to_insert = match &opts.cache {
        Some(cache) if scope.is_none() => env.serve_from_cache(cache, full, &out, &mut report)?,
        _ => Vec::new(),
    };
    let copy_labels = env.copy_labels();
    let no_copy = vec![false; copy_labels.len()];
    for (i, pass) in passes.iter().enumerate() {
        env.check_deadline()?;
        let labels = if i == 0 { &copy_labels } else { &no_copy };
        env.run_pass(&out, pass, labels, &mut report)?;
        report.passes += 1;
    }
    out.flush()?;
    if let Some(cache) = &opts.cache {
        // Remember the freshly merged components (their emptiness too —
        // most affected labels flush nothing, and rediscovering that
        // costs a full re-merge).
        for (id, digest) in to_insert {
            let payload = if out.chunk_exists(id) {
                Cached::Chunk(out.chunk(id)?)
            } else {
                Cached::Empty
            };
            cache.insert(id, digest, payload);
        }
    }
    Ok((out, report))
}

/// Streams prefetch hints to the buffer pool's I/O workers over one
/// worker's *entire* read order — the concatenation of its slice
/// sequences — so the lookahead window crosses slice boundaries instead
/// of draining at every slice edge (the PR 2 watermark reset). The
/// monotone watermark guarantees each chunk id is hinted at most once
/// per pass, so hints never cause duplicate store reads.
struct Prefetcher<'a> {
    cube: &'a Cube,
    ids: Vec<ChunkId>,
    k: usize,
    pos: usize,
    hinted: usize,
}

impl<'a> Prefetcher<'a> {
    fn new<'s>(
        cube: &'a Cube,
        k: usize,
        sequences: impl Iterator<Item = &'s Vec<Vec<u32>>>,
    ) -> Self {
        let geom = cube.geometry();
        let ids: Vec<ChunkId> = if k > 0 {
            sequences
                .flat_map(|seq| seq.iter())
                .map(|c| geom.chunk_id(c))
                .collect()
        } else {
            Vec::new()
        };
        Prefetcher {
            cube,
            ids,
            k,
            pos: 0,
            hinted: 0,
        }
    }

    /// Hints the lookahead window for the current position, then moves
    /// on. Call exactly once per chunk, in read order.
    fn advance(&mut self) {
        if self.k == 0 {
            self.pos += 1;
            return;
        }
        let window = crate::merge::prefetch_window(&self.ids, self.pos, self.k);
        let end = self.pos + 1 + window.len();
        let fresh_from = self.hinted.max(self.pos + 1);
        if end > fresh_from {
            let fresh: Vec<ChunkId> = self.ids[fresh_from..end]
                .iter()
                .copied()
                .filter(|&cid| self.cube.chunk_exists(cid))
                .collect();
            self.hinted = end;
            self.cube.prefetch(&fresh);
        }
        self.pos += 1;
    }
}

/// Execution environment shared by every pass. Fixed for the run except
/// that [`Env::serve_from_cache`] may withdraw cache-served labels from
/// `kept`/`full_graph` before the first pass starts.
struct Env<'a> {
    cube: &'a Cube,
    dim: DimensionId,
    policy: &'a OrderPolicy,
    vd: usize,
    pd: usize,
    vd_extent: u32,
    /// Labels this execution may touch at all.
    kept: Vec<bool>,
    /// The full plan's merge graph, induced on `kept`.
    full_graph: MergeGraph,
    /// The caller's knobs, borrowed for the run.
    opts: &'a ExecOpts,
}

impl<'a> Env<'a> {
    fn new(
        cube: &'a Cube,
        dim: DimensionId,
        full: &DestMap,
        policy: &'a OrderPolicy,
        scope: Option<&[u32]>,
        opts: &'a ExecOpts,
    ) -> Result<Self> {
        let schema = cube.schema();
        let varying = schema
            .varying(dim)
            .ok_or_else(|| WhatIfError::NotVarying(schema.dim(dim).name().to_string()))?;
        let geom = cube.geometry();
        let vd = dim.index();
        let pd = varying.parameter_dim().index();
        let vd_extent = geom.extents()[vd];
        let whole_graph = MergeGraph::build(varying, full, vd_extent);
        let n_labels = geom.grid()[vd] as usize;
        let kept: Vec<bool> = match scope {
            None => vec![true; n_labels],
            Some(slots) => {
                let mut kept = vec![false; n_labels];
                for &s in slots {
                    kept[(s / vd_extent) as usize] = true;
                }
                for node in 0..whole_graph.len() {
                    if kept[whole_graph.label(node) as usize] {
                        for nb in whole_graph.neighbors(node) {
                            kept[whole_graph.label(nb) as usize] = true;
                        }
                    }
                }
                kept
            }
        };
        let full_graph = whole_graph.induced(|l| kept[l as usize]);
        Ok(Env {
            cube,
            dim,
            policy,
            vd,
            pd,
            vd_extent,
            kept,
            full_graph,
            opts,
        })
    }

    /// Errors with [`WhatIfError::DeadlineExceeded`] once the deadline
    /// has passed. Called only at pass/slice boundaries so an abort
    /// never observes a half-merged component.
    fn check_deadline(&self) -> Result<()> {
        match self.opts.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(WhatIfError::DeadlineExceeded),
            _ => Ok(()),
        }
    }

    fn base_report(&self) -> ExecReport {
        let mut r = ExecReport {
            graph_nodes: self.full_graph.len(),
            graph_edges: self.full_graph.edge_count(),
            ..ExecReport::default()
        };
        if !self.full_graph.is_empty() && !matches!(self.policy, OrderPolicy::DimOrder(_)) {
            let order = match self.policy {
                OrderPolicy::Pebbling => heuristic_order(&self.full_graph),
                _ => naive_order(&self.full_graph),
            };
            r.predicted_pebbles = pebbles_for_order(&self.full_graph, &order);
        }
        r
    }

    /// Probes the scenario-delta cache with every merge component of the
    /// full plan (across all slices — an output chunk is a pure function
    /// of its component's inputs and fates, see `crate::cache`). Hit
    /// components have all their chunks installed into `out` and their
    /// labels withdrawn from this execution; missed components return
    /// their `(chunk, digest)` keys so the caller can insert the freshly
    /// merged chunks after the run.
    fn serve_from_cache(
        &mut self,
        cache: &ScenarioCache,
        full: &DestMap,
        out: &Cube,
        report: &mut ExecReport,
    ) -> Result<Vec<(ChunkId, u64)>> {
        if self.full_graph.is_empty() {
            return Ok(Vec::new());
        }
        let geom = self.cube.geometry();
        let axis_len = self.cube.schema().axis_len(self.dim);
        // Scope slot numbering to this cube's shape and schema identity:
        // a cache is per-session (one base cube), but make cross-cube
        // aliasing within a process loud-proof anyway.
        let geometry_sig = {
            let mut h = Fnv64::new();
            h.write_u64(Arc::as_ptr(self.cube.schema()) as u64);
            h.write_u32(geom.ndims() as u32);
            for d in 0..geom.ndims() {
                h.write_u32(geom.lens()[d]).write_u32(geom.extents()[d]);
            }
            h.finish()
        };
        let other: Vec<usize> = (0..geom.ndims()).filter(|&d| d != self.vd).collect();
        let walk: Vec<usize> = std::iter::once(self.vd)
            .chain(other.iter().copied())
            .collect();
        let anchors: Vec<Vec<u32>> = geom
            .chunks_in_order(&walk)
            .filter(|c| c[self.vd] == 0)
            .collect();

        let mut served: Vec<u32> = Vec::new();
        let mut to_insert: Vec<(ChunkId, u64)> = Vec::new();
        for comp in self.full_graph.components() {
            let mut labels: Vec<u32> = comp.iter().map(|&n| self.full_graph.label(n)).collect();
            labels.sort_unstable();
            let mut cd =
                ComponentDigest::new(geometry_sig, self.vd, self.vd_extent, axis_len, full);
            for &l in &labels {
                cd.fold_label(l);
            }
            let digest = cd.finish();
            let mut keys: Vec<(ChunkId, u64)> = Vec::with_capacity(anchors.len() * labels.len());
            for anchor in &anchors {
                let mut coord = anchor.clone();
                for &l in &labels {
                    coord[self.vd] = l;
                    keys.push((geom.chunk_id(&coord), digest));
                }
            }
            match cache.lookup_component(&keys) {
                Some(payloads) => {
                    for (&(id, _), payload) in keys.iter().zip(payloads) {
                        if let Cached::Chunk(chunk) = payload {
                            out.put_chunk(id, (*chunk).clone())?;
                        }
                        report.cache_chunks_served += 1;
                    }
                    served.extend(labels);
                }
                None => to_insert.extend(keys),
            }
        }
        if !served.is_empty() {
            // Withdraw served components: their chunks are already in
            // `out`, so no pass may read, merge, or flush them again.
            for l in served {
                self.kept[l as usize] = false;
            }
            let kept = &self.kept;
            self.full_graph = self.full_graph.induced(|l| kept[l as usize]);
        }
        Ok(to_insert)
    }

    /// Kept labels with no merge/drop activity under the full plan —
    /// streamed through verbatim by the first pass.
    fn copy_labels(&self) -> Vec<bool> {
        let mut copy = self.kept.clone();
        for node in 0..self.full_graph.len() {
            copy[self.full_graph.label(node) as usize] = false;
        }
        copy
    }

    /// Runs one pass of `dest` into `out`, copying `copy_labels` chunks
    /// verbatim. With `opts.threads ≥ 2` under `Pebbling`/`Naive`, slices fan
    /// out over scoped workers (they are independent: cells only move
    /// along the varying dimension, so no two slices touch the same
    /// output chunk); `DimOrder` always runs serially.
    fn run_pass(
        &self,
        out: &Cube,
        dest: &DestMap,
        copy_labels: &[bool],
        report: &mut ExecReport,
    ) -> Result<()> {
        let geom = self.cube.geometry();
        let schema = self.cube.schema();
        let varying = schema.varying(self.dim).expect("checked by Env::new");
        // This pass's own merge graph (⊆ the full graph).
        let graph =
            MergeGraph::build(varying, dest, self.vd_extent).induced(|l| self.kept[l as usize]);
        let node_order: Vec<usize> = match self.policy {
            OrderPolicy::Pebbling => heuristic_order(&graph),
            OrderPolicy::Naive | OrderPolicy::DimOrder(_) => naive_order(&graph),
        };
        let n_labels = geom.grid()[self.vd] as usize;
        let mut affected = vec![false; n_labels];
        for &l in graph.labels() {
            affected[l as usize] = true;
        }
        let node_of_label: HashMap<u32, usize> = graph
            .labels()
            .iter()
            .enumerate()
            .map(|(i, &l)| (l, i))
            .collect();

        // Residue: chunks this pass owns cells in (non-Skip identity
        // entries) that are neither merge-affected nor copy-through —
        // e.g. an instance owned by pass 2 sharing a chunk with a pass-0
        // mover. Streamed with per-cell fate filtering, no buffers.
        let mut residue = vec![false; n_labels];
        for (i, inst) in varying.instances().iter().enumerate() {
            let l = (i / self.vd_extent as usize).min(n_labels.saturating_sub(1));
            if !self.kept[l] || affected[l] || copy_labels[l] || residue[l] {
                continue;
            }
            if inst
                .validity
                .iter()
                .any(|t| dest.fate(i as u32, t) != CellFate::Skip)
            {
                residue[l] = true;
            }
        }

        // This pass reads: copy-through + residue + affected labels.
        // Each group is a unit of serial work: one slice's chunks in
        // processing order for Pebbling/Naive, or the whole (interleaved)
        // walk for DimOrder.
        let touch = |l: u32| -> bool {
            copy_labels[l as usize] || residue[l as usize] || affected[l as usize]
        };
        let groups: Vec<Vec<Vec<u32>>> = match self.policy {
            OrderPolicy::DimOrder(order) => vec![geom
                .chunks_in_order(order)
                .filter(|c| touch(c[self.vd]))
                .collect()],
            OrderPolicy::Pebbling | OrderPolicy::Naive => {
                // Varying dimension first (Lemma 5.1): slice by slice;
                // within a slice, copy-through chunks stream first, then
                // the graph nodes in the chosen order.
                let mut groups = Vec::new();
                let other: Vec<usize> = (0..geom.ndims()).filter(|&d| d != self.vd).collect();
                let walk: Vec<usize> = std::iter::once(self.vd)
                    .chain(other.iter().copied())
                    .collect();
                for coord in geom.chunks_in_order(&walk) {
                    if coord[self.vd] != 0 {
                        continue; // one anchor per slice
                    }
                    let mut seq = Vec::new();
                    let mut anchor = coord;
                    for l in 0..geom.grid()[self.vd] {
                        if (copy_labels[l as usize] || residue[l as usize]) && !affected[l as usize]
                        {
                            anchor[self.vd] = l;
                            seq.push(anchor.clone());
                        }
                    }
                    for &n in &node_order {
                        anchor[self.vd] = graph.label(n);
                        seq.push(anchor.clone());
                    }
                    if !seq.is_empty() {
                        groups.push(seq);
                    }
                }
                groups
            }
        };

        let workers = match self.policy {
            OrderPolicy::DimOrder(_) => 1,
            _ => self.opts.threads.max(1).min(groups.len().max(1)),
        };
        if workers <= 1 {
            // One prefetcher for the whole pass: hints follow the full
            // read order across slice boundaries (the watermark never
            // resets between sequences).
            let mut pf = Prefetcher::new(self.cube, self.opts.prefetch, groups.iter());
            for seq in &groups {
                self.check_deadline()?;
                self.process(
                    out,
                    dest,
                    &graph,
                    &node_of_label,
                    &affected,
                    copy_labels,
                    seq,
                    &mut pf,
                    report,
                )?;
            }
            return Ok(());
        }

        let mut buckets: Vec<Vec<&Vec<Vec<u32>>>> = vec![Vec::new(); workers];
        for (i, g) in groups.iter().enumerate() {
            buckets[i % workers].push(g);
        }
        let graph = &graph;
        let node_of_label = &node_of_label;
        let affected = &affected[..];
        let parts: Vec<Result<ExecReport>> = std::thread::scope(|s| {
            let handles: Vec<_> = buckets
                .into_iter()
                .map(|bucket| {
                    s.spawn(move || {
                        let mut r = ExecReport::default();
                        // Per-worker prefetcher spanning the worker's
                        // whole bucket of slices.
                        let mut pf =
                            Prefetcher::new(self.cube, self.opts.prefetch, bucket.iter().copied());
                        for seq in bucket {
                            self.check_deadline()?;
                            self.process(
                                out,
                                dest,
                                graph,
                                node_of_label,
                                affected,
                                copy_labels,
                                seq,
                                &mut pf,
                                &mut r,
                            )?;
                        }
                        Ok(r)
                    })
                })
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("executor worker panicked"))
                .collect()
        });
        let mut peak_sum = 0u64;
        for part in parts {
            let r = part?;
            report.chunks_read += r.chunks_read;
            report.cells_relocated += r.cells_relocated;
            report.cells_dropped += r.cells_dropped;
            report.slices += r.slices;
            report.merges += r.merges;
            peak_sum += r.peak_out_buffers;
        }
        // Sum of per-worker peaks: an upper bound on simultaneous
        // residency (workers need not peak at the same instant).
        report.peak_out_buffers = report.peak_out_buffers.max(peak_sum);
        Ok(())
    }

    /// Processes one ordered chunk sequence with private slice/buffer
    /// state. Serial passes feed every group through one call chain;
    /// parallel passes give each worker its own report to merge later.
    /// The prefetcher is shared across a worker's sequences so hints
    /// span slice boundaries.
    #[allow(clippy::too_many_arguments)]
    fn process(
        &self,
        out: &Cube,
        dest: &DestMap,
        graph: &MergeGraph,
        node_of_label: &HashMap<u32, usize>,
        affected: &[bool],
        copy_labels: &[bool],
        sequence: &[Vec<u32>],
        pf: &mut Prefetcher<'_>,
        report: &mut ExecReport,
    ) -> Result<()> {
        let geom = self.cube.geometry();

        struct SliceState {
            processed: Vec<bool>,
            done: usize,
        }
        let mut slices: HashMap<Vec<u32>, SliceState> = HashMap::new();
        let mut buffers: HashMap<ChunkId, Chunk> = HashMap::new();

        for coord in sequence.iter() {
            pf.advance();
            let label = coord[self.vd];
            let id = geom.chunk_id(coord);
            let materialized = self.cube.chunk_exists(id);
            if materialized {
                report.chunks_read += 1;
            }
            if !affected[label as usize] {
                if materialized {
                    let chunk = self.cube.chunk(id)?;
                    if copy_labels[label as usize] {
                        // Copy-through (first pass only; untouched by any
                        // pass of the plan).
                        out.put_chunk(id, (*chunk).clone())?;
                    } else {
                        // Residue: keep exactly the cells this pass owns.
                        let buf = self.residue_filter(&chunk, coord, dest);
                        self.flush_overlay(out, id, buf)?;
                    }
                }
                continue;
            }
            let node = node_of_label[&label];
            report.merges += 1;
            let slice_key: Vec<u32> = coord
                .iter()
                .enumerate()
                .filter(|&(d, _)| d != self.vd)
                .map(|(_, &c)| c)
                .collect();
            {
                let state = slices.entry(slice_key.clone()).or_insert_with(|| {
                    report.slices += 1;
                    SliceState {
                        processed: vec![false; graph.len()],
                        done: 0,
                    }
                });
                debug_assert!(!state.processed[node], "chunk visited twice in a pass");
            }

            // Scatter this chunk's cells into output buffers.
            if materialized {
                let chunk = self.cube.chunk(id)?;
                self.scatter(&chunk, coord, dest, &mut buffers, report);
            }
            // This node's buffer exists even when nothing lands in it —
            // it is "pebbled" while its merges are pending.
            buffers
                .entry(id)
                .or_insert_with(|| Chunk::new_dense(geom.chunk_shape(&geom.chunk_coord(id))));
            report.peak_out_buffers = report.peak_out_buffers.max(buffers.len() as u64);

            // Flush every node of this slice whose neighbors are done.
            let state = slices.get_mut(&slice_key).expect("just inserted");
            state.processed[node] = true;
            state.done += 1;
            let mut flush: Vec<usize> = Vec::new();
            for y in 0..graph.len() {
                if state.processed[y] && graph.neighbors(y).all(|w| state.processed[w]) {
                    flush.push(y);
                }
            }
            let slice_done = state.done == graph.len();
            for y in flush {
                let mut ycoord = coord.clone();
                ycoord[self.vd] = graph.label(y);
                let yid = geom.chunk_id(&ycoord);
                if let Some(buf) = buffers.remove(&yid) {
                    self.flush_overlay(out, yid, buf)?;
                }
            }
            if slice_done {
                slices.remove(&slice_key);
            }
        }
        debug_assert!(buffers.is_empty(), "all buffers flushed at pass end");
        Ok(())
    }

    /// Filters a residue chunk down to the cells this pass owns (identity
    /// fate entries). Under `Runs`, the chunk is split just after
    /// `max(vd, pd)` so the fate is constant over every run and each kept
    /// run moves with one masked copy; under `Scalar`, the original
    /// per-cell walk runs with a reused coordinate buffer.
    fn residue_filter(&self, chunk: &Chunk, ccoord: &[u32], dest: &DestMap) -> Chunk {
        let geom = self.cube.geometry();
        let mut buf = Chunk::new_dense(geom.chunk_shape(ccoord));
        match self.opts.kernel {
            KernelKind::Scalar => {
                let mut cell: Vec<u32> = Vec::new();
                for (off, v) in chunk.present_cells() {
                    geom.cell_of_local_into(ccoord, off, &mut cell);
                    if let CellFate::To(d) = dest.fate(cell[self.vd], cell[self.pd]) {
                        debug_assert_eq!(
                            d, cell[self.vd],
                            "residue chunks only hold identity cells"
                        );
                        buf.set(off, olap_store::CellValue::num(v));
                    }
                }
            }
            KernelKind::Runs => {
                // Splitting after the later of vd/pd makes the fate
                // constant over every run — runs span the whole axis
                // suffix, so trailing length-1 axes cost nothing.
                let split = self.vd.max(self.pd) + 1;
                let mut it = geom.runs_from(ccoord, split);
                while let Some((base, start, len)) = it.next_run() {
                    if let CellFate::To(d) = dest.fate(base[self.vd], base[self.pd]) {
                        debug_assert_eq!(
                            d, base[self.vd],
                            "residue chunks only hold identity cells"
                        );
                        buf.copy_run_from(chunk, start, start, len);
                    }
                }
            }
        }
        buf
    }

    /// Scatters one affected chunk's present cells into per-destination
    /// output buffers (the Lemma 5.1 merge inner loop).
    ///
    /// Under `Runs`, the chunk is decomposed with the split axis just
    /// after `max(vd, pd)`: each run is the chunk's full cross-section
    /// of the remaining axis suffix, over which the fate, the kept-scope
    /// check and the destination chunk/offset are all constant and
    /// computed once. The cells then move with one
    /// [`Chunk::copy_run_from`] — a values `copy_from_slice` plus a
    /// word-wise presence OR. The wholesale copy is sound because the
    /// relocation map is injective per pass: distinct source runs land
    /// on disjoint destination ranges, so no present destination cell is
    /// ever overwritten (debug-asserted inside the kernel). When vd or
    /// pd is the very last axis the runs degenerate to single cells,
    /// which is still correct — just no faster than the oracle.
    fn scatter(
        &self,
        chunk: &Chunk,
        coord: &[u32],
        dest: &DestMap,
        buffers: &mut HashMap<ChunkId, Chunk>,
        report: &mut ExecReport,
    ) {
        let geom = self.cube.geometry();
        match self.opts.kernel {
            KernelKind::Scalar => {
                for (off, v) in chunk.present_cells() {
                    let cell = geom.cell_of_local(coord, off);
                    let src = cell[self.vd];
                    let t = cell[self.pd];
                    match dest.fate(src, t) {
                        CellFate::Skip => {}
                        CellFate::Drop => report.cells_dropped += 1,
                        CellFate::To(dst) => {
                            if !self.kept[(dst / self.vd_extent) as usize] {
                                continue; // out-of-scope destination
                            }
                            if dst != src {
                                report.cells_relocated += 1;
                            }
                            let mut target = cell.clone();
                            target[self.vd] = dst;
                            let (tid, toff) = geom.split_cell(&target);
                            let buf = buffers.entry(tid).or_insert_with(|| {
                                Chunk::new_dense(geom.chunk_shape(&geom.chunk_coord(tid)))
                            });
                            buf.set(toff, olap_store::CellValue::num(v));
                        }
                    }
                }
            }
            KernelKind::Runs => {
                // Splitting after the later of vd/pd makes the fate, the
                // kept-scope check and the destination chunk constant
                // over every run: a run is the chunk's full cross-section
                // of the axes behind both, so trailing length-1 axes
                // (currency, version, …) never shrink it to single cells.
                let split = self.vd.max(self.pd) + 1;
                let mut target: Vec<u32> = Vec::with_capacity(geom.ndims());
                let mut it = geom.runs_from(coord, split);
                while let Some((base, start, len)) = it.next_run() {
                    let src = base[self.vd];
                    let t = base[self.pd];
                    match dest.fate(src, t) {
                        CellFate::Skip => {}
                        CellFate::Drop => {
                            report.cells_dropped += chunk.present_in_range(start, len) as u64;
                        }
                        CellFate::To(dst) => {
                            if !self.kept[(dst / self.vd_extent) as usize] {
                                continue; // out-of-scope destination
                            }
                            // The destination chunk differs only in the
                            // vd grid coordinate (vd is before the
                            // split), so its suffix cross-section has the
                            // same clipped shape and the whole run lands
                            // contiguously from one computed base offset.
                            target.clear();
                            target.extend_from_slice(base);
                            target[self.vd] = dst;
                            let (tid, toff) = geom.split_cell(&target);
                            let buf = buffers.entry(tid).or_insert_with(|| {
                                Chunk::new_dense(geom.chunk_shape(&geom.chunk_coord(tid)))
                            });
                            let n = buf.copy_run_from(chunk, start, toff, len);
                            if dst != src {
                                report.cells_relocated += n as u64;
                            }
                        }
                    }
                }
            }
        }
    }

    /// Writes a buffer into the output cube, overlaying any cells an
    /// earlier pass already produced for the same chunk. Under `Runs`,
    /// the merge is the word-masked [`Chunk::overlay_from`] kernel;
    /// under `Scalar`, the original per-cell `set` loop.
    fn flush_overlay(&self, out: &Cube, id: ChunkId, buf: Chunk) -> Result<()> {
        if buf.present_count() == 0 {
            return Ok(());
        }
        if out.chunk_exists(id) {
            let mut existing = (*out.chunk(id)?).clone();
            match self.opts.kernel {
                KernelKind::Runs => existing.overlay_from(&buf),
                KernelKind::Scalar => {
                    for (off, v) in buf.present_cells() {
                        existing.set(off, olap_store::CellValue::num(v));
                    }
                }
            }
            out.put_chunk(id, existing)?;
        } else {
            out.put_chunk(id, buf)?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::relocate::relocate;
    use crate::perspective::Semantics;
    use crate::phi::phi;
    use crate::plan::decompose_passes;
    use olap_model::{DimensionSpec, SchemaBuilder};
    use std::sync::Arc;

    /// A 3-dim cube: Product (varying, 8 members, 4 moving) × Time (6) ×
    /// Location (4). Chunk extents 2.
    pub(crate) fn fixture() -> (Cube, DimensionId) {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("Product").tree(&[
                    ("G1", &["p0", "p1", "p2"][..]),
                    ("G2", &["p3", "p4", "p5"]),
                    ("G3", &["p6", "p7"]),
                ]))
                .dimension(
                    DimensionSpec::new("Time")
                        .ordered()
                        .leaves(&["t0", "t1", "t2", "t3", "t4", "t5"]),
                )
                .dimension(DimensionSpec::new("Location").leaves(&["L0", "L1", "L2", "L3"]))
                .varying("Product", "Time")
                .reclassify("Product", "p0", "G2", "t2")
                .reclassify("Product", "p3", "G3", "t1")
                .reclassify("Product", "p3", "G1", "t4")
                .reclassify("Product", "p7", "G1", "t3")
                .build()
                .unwrap(),
        );
        let prod = schema.resolve_dimension("Product").unwrap();
        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 2, 2]).unwrap();
        let varying = schema.varying(prod).unwrap();
        for (i, inst) in varying.instances().iter().enumerate() {
            for t in inst.validity.iter() {
                for l in 0..4u32 {
                    b.set_num(
                        &[i as u32, t, l],
                        (i as f64 + 1.0) * 1000.0 + t as f64 * 10.0 + l as f64,
                    )
                    .unwrap();
                }
            }
        }
        (b.finish().unwrap(), prod)
    }

    /// One serial single-pass run with default knobs (the helper the
    /// report-shape tests below share).
    fn single_pass(
        cube: &Cube,
        dim: DimensionId,
        map: &DestMap,
        policy: &OrderPolicy,
    ) -> (Cube, ExecReport) {
        execute_passes_opts(
            cube,
            dim,
            map,
            std::slice::from_ref(map),
            policy,
            None,
            ExecOpts::default(),
        )
        .unwrap()
    }

    /// Whether `got` agrees with `oracle` on every cell whose varying
    /// slot is in `scope` (all cells when unscoped), in both directions.
    fn agrees_on_scope(got: &Cube, oracle: &Cube, dim: DimensionId, scope: Option<&[u32]>) -> bool {
        let Some(slots) = scope else {
            return got.same_cells(oracle).unwrap();
        };
        let covers = |a: &Cube, b: &Cube| {
            let mut ok = true;
            a.for_each_present(|cell, v| {
                if slots.contains(&cell[dim.index()]) {
                    ok &= b.get(cell).unwrap() == olap_store::CellValue::num(v);
                }
            })
            .unwrap();
            ok
        };
        covers(oracle, got) && covers(got, oracle)
    }

    /// The one equivalence table over the one entry point: {single pass,
    /// decomposed passes} × {unscoped, scoped} × {1, 3 threads} ×
    /// {run kernels, scalar oracle} × {Pebbling, Naive, two DimOrders},
    /// every combination checked against `relocate` (the reference
    /// operator) on the slots the run is answerable for.
    fn check_equivalence(sem: Semantics, p: &[u32]) {
        let (cube, prod) = fixture();
        let varying = cube.schema().varying(prod).unwrap();
        let vs_out = phi(sem, varying.instances(), p, 6);
        let oracle = relocate(&cube, prod, &vs_out).unwrap();
        let map = DestMap::build(&cube, prod, &vs_out).unwrap();
        let decomposed = decompose_passes(&map, sem, p, varying);
        let p3 = cube.schema().dim(prod).resolve("p3").unwrap();
        let slots: Vec<u32> = varying.instances_of(p3).iter().map(|i| i.0).collect();
        assert!(slots.len() >= 2);
        for policy in [
            OrderPolicy::Pebbling,
            OrderPolicy::Naive,
            OrderPolicy::DimOrder(vec![1, 0, 2]),
            OrderPolicy::DimOrder(vec![0, 1, 2]),
        ] {
            for (plan, passes) in [
                ("single", std::slice::from_ref(&map)),
                ("decomposed", &decomposed[..]),
            ] {
                for scope in [None, Some(&slots[..])] {
                    // The serial run-kernel report of this row: threads
                    // and the kernel choice must not change the work done.
                    let mut serial: Option<ExecReport> = None;
                    for threads in [1, 3] {
                        for kernel in [KernelKind::Runs, KernelKind::Scalar] {
                            let opts = ExecOpts {
                                threads,
                                kernel,
                                ..ExecOpts::default()
                            };
                            let (got, report) = execute_passes_opts(
                                &cube, prod, &map, passes, &policy, scope, opts,
                            )
                            .unwrap();
                            let row = format!(
                                "{sem:?} P={p:?} {policy:?} {plan} scope={scope:?} \
                                 threads={threads} {kernel}"
                            );
                            assert!(
                                agrees_on_scope(&got, &oracle, prod, scope),
                                "{row} diverged from relocate (report: {report:?})"
                            );
                            assert_eq!(report.passes, passes.len() as u64, "{row}");
                            let base = serial.get_or_insert_with(|| report.clone());
                            assert_eq!(report.chunks_read, base.chunks_read, "{row}");
                            assert_eq!(report.cells_relocated, base.cells_relocated, "{row}");
                            assert_eq!(report.cells_dropped, base.cells_dropped, "{row}");
                            assert_eq!(report.slices, base.slices, "{row}");
                        }
                    }
                }
            }
        }
        assert_eq!(decomposed.len(), p.len());
    }

    #[test]
    fn chunked_matches_reference_forward() {
        check_equivalence(Semantics::Forward, &[1, 3]);
        check_equivalence(Semantics::Forward, &[0]);
    }

    #[test]
    fn chunked_matches_reference_static() {
        check_equivalence(Semantics::Static, &[2]);
        check_equivalence(Semantics::Static, &[0, 2, 4]);
    }

    #[test]
    fn chunked_matches_reference_extended_and_backward() {
        check_equivalence(Semantics::ExtendedForward, &[3]);
        check_equivalence(Semantics::Backward, &[4]);
        check_equivalence(Semantics::ExtendedBackward, &[2]);
    }

    #[test]
    fn report_counts_activity() {
        let (cube, prod) = fixture();
        let varying = cube.schema().varying(prod).unwrap();
        let vs_out = phi(Semantics::Forward, varying.instances(), &[0], 6);
        let map = DestMap::build(&cube, prod, &vs_out).unwrap();
        let (_, report) = single_pass(&cube, prod, &map, &OrderPolicy::Pebbling);
        assert!(report.graph_nodes > 0);
        assert!(report.cells_relocated > 0);
        assert!(report.chunks_read > 0);
        assert_eq!(report.passes, 1);
        assert!(report.peak_out_buffers >= report.predicted_pebbles as u64);
    }

    #[test]
    fn more_passes_read_more_chunks() {
        // The Fig. 11 mechanism: per-perspective passes repeat reads of
        // the affected chunks.
        let (cube, prod) = fixture();
        let varying = cube.schema().varying(prod).unwrap();
        let policy = OrderPolicy::Pebbling;
        let mut prev = 0u64;
        for p in [vec![0u32], vec![0, 2], vec![0, 2, 4]] {
            let vs_out = phi(Semantics::Static, varying.instances(), &p, 6);
            let map = DestMap::build(&cube, prod, &vs_out).unwrap();
            let passes = decompose_passes(&map, Semantics::Static, &p, varying);
            let (_, report) = execute_passes_opts(
                &cube,
                prod,
                &map,
                &passes,
                &policy,
                None,
                ExecOpts::default(),
            )
            .unwrap();
            assert!(
                report.chunks_read >= prev,
                "reads should not shrink with more perspectives"
            );
            prev = report.chunks_read;
        }
    }

    #[test]
    fn varying_dim_first_needs_less_memory() {
        // Lemma 5.1.
        let (cube, prod) = fixture();
        let varying = cube.schema().varying(prod).unwrap();
        let vs_out = phi(Semantics::Forward, varying.instances(), &[0], 6);
        let map = DestMap::build(&cube, prod, &vs_out).unwrap();
        let (_, slice_first) = single_pass(&cube, prod, &map, &OrderPolicy::Naive);
        let (_, param_first) =
            single_pass(&cube, prod, &map, &OrderPolicy::DimOrder(vec![1, 2, 0]));
        assert!(
            slice_first.peak_out_buffers < param_first.peak_out_buffers,
            "vd-first {} vs param-first {}",
            slice_first.peak_out_buffers,
            param_first.peak_out_buffers
        );
    }

    #[test]
    fn scoped_execution_reads_fewer_chunks() {
        let (cube, prod) = fixture();
        let varying = cube.schema().varying(prod).unwrap();
        let vs_out = phi(Semantics::Forward, varying.instances(), &[1], 6);
        let map = DestMap::build(&cube, prod, &vs_out).unwrap();
        let (_, full_report) = single_pass(&cube, prod, &map, &OrderPolicy::Pebbling);
        let p3 = cube.schema().dim(prod).resolve("p3").unwrap();
        let slots: Vec<u32> = varying.instances_of(p3).iter().map(|i| i.0).collect();
        let (_, scoped_report) = execute_passes_opts(
            &cube,
            prod,
            &map,
            std::slice::from_ref(&map),
            &OrderPolicy::Pebbling,
            Some(&slots),
            ExecOpts::default(),
        )
        .unwrap();
        assert!(
            scoped_report.chunks_read < full_report.chunks_read,
            "scoped {} vs full {}",
            scoped_report.chunks_read,
            full_report.chunks_read
        );
    }

    #[test]
    fn noop_scenario_copies_through() {
        let (cube, prod) = fixture();
        let n = cube.schema().axis_len(prod);
        let map = DestMap::identity(n, 6);
        let (got, report) = single_pass(&cube, prod, &map, &OrderPolicy::Pebbling);
        assert!(got.same_cells(&cube).unwrap());
        assert_eq!(report.graph_nodes, 0);
        assert_eq!(report.cells_relocated, 0);
    }
}
