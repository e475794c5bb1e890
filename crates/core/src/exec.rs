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
//! varying-dimension slots they touch, Essbase-style. All of that is
//! decided up front in a [`Plan`]; the one entry point, [`execute`], only
//! reads it. Serial, uncached execution is
//! [`ExecOpts::default`]. [`ExecReport`] exposes predicted pebbles and
//! observed peak buffer residency for the ablations.

use crate::cache::{Cached, ComponentDigest, ScenarioCache};
use crate::error::WhatIfError;
use crate::fingerprint::Fnv64;
use crate::operators::relocate::{CellFate, DestMap};
use crate::plan::{PassPlan, Plan, Role};
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
#[derive(Debug, Clone, Default)]
pub struct ExecOpts {
    /// Worker threads, shared with `.rollup`'s aggregator; `0` (the
    /// default) and `1` are serial. Lemma 5.1 slices are independent
    /// (cells only move along the varying dimension), so
    /// `Pebbling`/`Naive` passes split them across up to `threads`
    /// workers; `DimOrder` stays serial, since its cross-slice
    /// interleaving is what the Lemma 5.1 ablation measures.
    pub threads: usize,
    /// Scenario-delta cache (DESIGN.md §10, §14): when set, executions
    /// probe it for every merge component their scope keeps whole (all
    /// of them when unscoped) whose fate tables match *any* previously
    /// cached run over the same cube — entries are versioned by digest,
    /// so alternating scenarios keep all their versions warm — serve
    /// those output chunks without re-merging, and install recomputed
    /// components afterwards. `None` (the
    /// default) is bit-identical to an uncached run; a populated cache
    /// changes only the work done, never the cells produced. Entry keys
    /// fold in the base cube's pool generation and store flush epoch,
    /// so a write to the base cube, flushed or not, strands every entry
    /// computed before it.
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

impl ExecOpts {
    /// Errors with [`WhatIfError::DeadlineExceeded`] once the deadline
    /// has passed. Called only at pass/slice boundaries so an abort
    /// never observes a half-merged component.
    fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            Some(d) if std::time::Instant::now() >= d => Err(WhatIfError::DeadlineExceeded),
            _ => Ok(()),
        }
    }
}

/// Chunked execution (Sections 5 and 6) of a [`Plan`] built on `cube` —
/// the executor's only entry point. It only reads the plan: the budget
/// check against the predicted pebbles, the scenario-cache probe, then
/// each pass over one shared output cube.
///
/// With `ExecOpts::cache` set, every merge component the scope keeps
/// whole is probed first (all of them when unscoped): a component whose
/// fate-table digest matches a cached run has all its output chunks
/// installed verbatim and is withdrawn from every pass (the plan's one
/// restriction path, which the scope closure also takes); the remaining
/// whole components run normally and are inserted afterwards. A
/// component the scope cuts produces partial output chunks, so it runs
/// uncached.
pub fn execute(cube: &Cube, plan: &Plan, opts: &ExecOpts) -> Result<(Cube, ExecReport)> {
    opts.check_deadline()?;
    let out = cube.empty_like();
    let mut report = ExecReport {
        graph_nodes: plan.graph.len(),
        graph_edges: plan.graph.edge_count(),
        predicted_pebbles: plan.predicted_pebbles,
        ..ExecReport::default()
    };
    if opts.budget_cells > 0 {
        // Reject-before-read: the pebble prediction is the same number
        // `.explain` reports, priced in cells via the chunk extent.
        let needed = (plan.predicted_pebbles as u64).saturating_mul(cube.geometry().chunk_cells());
        if needed > opts.budget_cells {
            return Err(WhatIfError::BudgetExceeded {
                needed_cells: needed,
                budget_cells: opts.budget_cells,
            });
        }
    }
    let mut to_insert = Vec::new();
    let withdrawn;
    let mut run = Run { cube, plan, opts };
    if let Some(cache) = opts.cache.as_deref() {
        let served;
        (served, to_insert) = probe_cache(cube, plan, cache, &out, &mut report)?;
        if served.contains(&true) {
            // Served chunks are already in `out`: no pass may read,
            // merge, or flush them again.
            withdrawn = plan.clone().restrict(cube, |l| served[l as usize]);
            run.plan = &withdrawn;
        }
    }
    for (pass, dest) in run.plan.pass_plans.iter().zip(plan.passes()) {
        opts.check_deadline()?;
        run.pass(&out, pass, dest, &mut report)?;
        report.passes += 1;
    }
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

/// [`execute`] over hand-made maps, planned per call. Kept only because
/// `perfbench/src/trace.rs` calls it by name; build a [`Plan`] instead.
pub fn execute_passes_opts(
    cube: &Cube,
    dim: DimensionId,
    full: &DestMap,
    passes: &[DestMap],
    policy: &OrderPolicy,
    scope: Option<&[u32]>,
    opts: ExecOpts,
) -> Result<(Cube, ExecReport)> {
    let (full, passes) = (full.clone(), passes.to_vec());
    let plan = Plan::from_maps(cube, dim, full, passes, policy.clone(), scope)?;
    execute(cube, &plan, &opts)
}

/// `(output chunk, component digest)` scenario-cache keys.
type CacheKeys = Vec<(ChunkId, u64)>;

/// Probes the scenario-delta cache with every merge component the scope
/// keeps whole (across all slices — an output chunk is a pure function of
/// its component's inputs and fates, see `crate::cache`). Hit components
/// have all their chunks installed into `out`; returns the mask of their
/// labels, and the `(chunk, digest)` keys of missed components so the
/// caller can insert the freshly merged chunks after the run.
fn probe_cache(
    cube: &Cube,
    plan: &Plan,
    cache: &ScenarioCache,
    out: &Cube,
    report: &mut ExecReport,
) -> Result<(Vec<bool>, CacheKeys)> {
    let mut served = vec![false; plan.kept.len()];
    let mut to_insert: CacheKeys = Vec::new();
    let graph = &plan.graph;
    if graph.is_empty() {
        return Ok((served, to_insert));
    }
    let geom = cube.geometry();
    let vd = plan.vd;
    let axis_len = cube.schema().axis_len(plan.dim);
    // Scope slot numbering to this cube's shape, schema identity and
    // data version: a cache is per-session (one base cube), but make
    // cross-cube aliasing within a process loud-proof anyway, and never
    // serve a component merged before a base-cube write.
    let geometry_sig = {
        let mut h = Fnv64::new();
        let (generation, epoch) = cube.with_pool(|p| (p.generation(), p.store().flush_epoch()));
        h.write_u64(Arc::as_ptr(cube.schema()) as u64)
            .write_u64(generation)
            .write_u64(epoch);
        h.write_u32(geom.ndims() as u32);
        for d in 0..geom.ndims() {
            h.write_u32(geom.lens()[d]).write_u32(geom.extents()[d]);
        }
        h.finish()
    };
    for comp in graph.components() {
        if !plan.whole[graph.label(comp[0]) as usize] {
            continue; // cut by the scope: partial output chunks
        }
        let mut labels: Vec<u32> = comp.iter().map(|&n| graph.label(n)).collect();
        labels.sort_unstable();
        let mut cd = ComponentDigest::new(geometry_sig, vd, plan.vd_extent, axis_len, plan.map());
        for &l in &labels {
            cd.fold_label(l);
        }
        let digest = cd.finish();
        let mut keys: Vec<(ChunkId, u64)> = Vec::with_capacity(plan.anchors.len() * labels.len());
        for anchor in &plan.anchors {
            let mut coord = anchor.clone();
            for &l in &labels {
                coord[vd] = l;
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
                for l in labels {
                    served[l as usize] = true;
                }
            }
            None => to_insert.extend(keys),
        }
    }
    Ok((served, to_insert))
}

/// One execution's read-only context: the cube, the plan in force (the
/// caller's, or its restriction after cache withdrawal) and the knobs.
struct Run<'a> {
    cube: &'a Cube,
    plan: &'a Plan,
    opts: &'a ExecOpts,
}

impl Run<'_> {
    /// Runs one pass of `dest` into `out`. With `opts.threads ≥ 2`
    /// under `Pebbling`/`Naive`, slices fan out over scoped workers (they
    /// are independent: cells only move along the varying dimension, so
    /// no two slices touch the same output chunk); `DimOrder` always runs
    /// serially.
    fn pass(
        &self,
        out: &Cube,
        pass: &PassPlan,
        dest: &DestMap,
        report: &mut ExecReport,
    ) -> Result<()> {
        // Units of serial work: one chunk sequence per slice (the varying
        // dimension first, Lemma 5.1), or `DimOrder`'s one interleaved walk.
        let (geom, vd) = (self.cube.geometry(), self.plan.vd);
        let groups: Vec<Vec<Vec<u32>>> = match &self.plan.policy {
            OrderPolicy::DimOrder(dims) => vec![geom
                .chunks_in_order(dims)
                .filter(|c| pass.roles[c[vd] as usize] != Role::Skip)
                .collect()],
            _ if pass.reads.is_empty() => Vec::new(),
            _ => (self.plan.anchors.iter())
                .map(|anchor| {
                    let at = |&l: &u32| {
                        let mut coord = anchor.clone();
                        coord[vd] = l;
                        coord
                    };
                    pass.reads.iter().map(at).collect()
                })
                .collect(),
        };
        let workers = match self.plan.policy {
            OrderPolicy::DimOrder(_) => 1,
            _ => self.opts.threads.max(1).min(groups.len().max(1)),
        };
        let mut buckets: Vec<Vec<&Vec<Vec<u32>>>> = vec![Vec::new(); workers];
        for (i, g) in groups.iter().enumerate() {
            buckets[i % workers].push(g);
        }
        let run_bucket = |bucket: &[&Vec<Vec<u32>>]| {
            let mut r = ExecReport::default();
            for seq in bucket {
                self.opts.check_deadline()?;
                self.process(out, dest, pass, seq, &mut r)?;
            }
            Ok(r)
        };
        let parts: Vec<Result<ExecReport>> = if workers == 1 {
            vec![run_bucket(&buckets[0])]
        } else {
            std::thread::scope(|s| {
                let handles: Vec<_> = (buckets.iter())
                    .map(|bucket| s.spawn(|| run_bucket(bucket)))
                    .collect();
                (handles.into_iter())
                    .map(|h| h.join().expect("executor worker panicked"))
                    .collect()
            })
        };
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
        // residency (workers need not peak at the same instant); exact
        // for one worker.
        report.peak_out_buffers = report.peak_out_buffers.max(peak_sum);
        Ok(())
    }

    /// Processes one ordered chunk sequence with private slice/buffer
    /// state, into the worker's own report.
    fn process(
        &self,
        out: &Cube,
        dest: &DestMap,
        pass: &PassPlan,
        sequence: &[Vec<u32>],
        report: &mut ExecReport,
    ) -> Result<()> {
        let geom = self.cube.geometry();
        let vd = self.plan.vd;
        let graph = &pass.graph;

        struct SliceState {
            processed: Vec<bool>,
            done: usize,
        }
        let mut slices: HashMap<Vec<u32>, SliceState> = HashMap::new();
        let mut buffers: HashMap<ChunkId, Chunk> = HashMap::new();

        for coord in sequence.iter() {
            let label = coord[vd] as usize;
            let id = geom.chunk_id(coord);
            let materialized = self.cube.chunk_exists(id);
            if materialized {
                report.chunks_read += 1;
            }
            let node = match pass.roles[label] {
                Role::Merge(node) => node,
                // Copy-through (first pass only; untouched by any pass of
                // the plan).
                Role::Copy if materialized => {
                    out.put_chunk(id, (*self.cube.chunk(id)?).clone())?;
                    continue;
                }
                // Residue: keep exactly the cells this pass owns. None of
                // them moves, so scattering fills this chunk's own buffer.
                Role::Residue if materialized => {
                    let mut own = HashMap::new();
                    self.scatter(&*self.cube.chunk(id)?, coord, dest, &mut own, report);
                    debug_assert!(own.keys().all(|&k| k == id), "residue cells stay put");
                    if let Some(buf) = own.remove(&id) {
                        self.flush_overlay(out, id, buf)?;
                    }
                    continue;
                }
                _ => continue,
            };
            report.merges += 1;
            let slice_key: Vec<u32> = coord
                .iter()
                .enumerate()
                .filter(|&(d, _)| d != vd)
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
                ycoord[vd] = graph.label(y);
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
        let (vd, pd, vd_extent) = (self.plan.vd, self.plan.pd, self.plan.vd_extent);
        match self.opts.kernel {
            KernelKind::Scalar => {
                for (off, v) in chunk.present_cells() {
                    let cell = geom.cell_of_local(coord, off);
                    let src = cell[vd];
                    let t = cell[pd];
                    match dest.fate(src, t) {
                        CellFate::Skip => {}
                        CellFate::Drop => report.cells_dropped += 1,
                        CellFate::To(dst) => {
                            if !self.plan.kept[(dst / vd_extent) as usize] {
                                continue; // out-of-scope destination
                            }
                            if dst != src {
                                report.cells_relocated += 1;
                            }
                            let mut target = cell.clone();
                            target[vd] = dst;
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
                let split = vd.max(pd) + 1;
                let mut target: Vec<u32> = Vec::with_capacity(geom.ndims());
                let mut it = geom.runs_from(coord, split);
                while let Some((base, start, len)) = it.next_run() {
                    let src = base[vd];
                    let t = base[pd];
                    match dest.fate(src, t) {
                        CellFate::Skip => {}
                        CellFate::Drop => {
                            report.cells_dropped += chunk.present_in_range(start, len) as u64;
                        }
                        CellFate::To(dst) => {
                            if !self.plan.kept[(dst / vd_extent) as usize] {
                                continue; // out-of-scope destination
                            }
                            // The destination chunk differs only in the
                            // vd grid coordinate (vd is before the
                            // split), so its suffix cross-section has the
                            // same clipped shape and the whole run lands
                            // contiguously from one computed base offset.
                            target.clear();
                            target.extend_from_slice(base);
                            target[vd] = dst;
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
    use crate::perspective::{Mode, PerspectiveSpec, Semantics};
    use crate::phi::phi;
    use olap_model::{DimensionSpec, SchemaBuilder};

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

    /// Plans `sem`/`p` on the fixture (scoped when `scope` is set).
    fn plan(
        cube: &Cube,
        dim: DimensionId,
        sem: Semantics,
        p: &[u32],
        policy: OrderPolicy,
        scope: Option<&[u32]>,
    ) -> Plan {
        let spec = PerspectiveSpec::new(dim, p.iter().copied(), sem, Mode::Visual);
        Plan::build(cube, &spec, &policy, scope).unwrap()
    }

    /// One serial run with default knobs.
    fn run(cube: &Cube, plan: &Plan) -> (Cube, ExecReport) {
        execute(cube, plan, &ExecOpts::default()).unwrap()
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
        let oracle = relocate(&cube, prod, &phi(sem, varying.instances(), p, 6)).unwrap();
        let p3 = cube.schema().dim(prod).resolve("p3").unwrap();
        let slots: Vec<u32> = varying.instances_of(p3).iter().map(|i| i.0).collect();
        assert!(slots.len() >= 2);
        for policy in [
            OrderPolicy::Pebbling,
            OrderPolicy::Naive,
            OrderPolicy::DimOrder(vec![1, 0, 2]),
            OrderPolicy::DimOrder(vec![0, 1, 2]),
        ] {
            for scope in [None, Some(&slots[..])] {
                let decomposed = plan(&cube, prod, sem, p, policy.clone(), scope);
                assert_eq!(decomposed.passes().len(), p.len());
                let map = decomposed.map().clone();
                let single =
                    Plan::from_maps(&cube, prod, map.clone(), vec![map], policy.clone(), scope)
                        .unwrap();
                for (name, plan) in [("single", &single), ("decomposed", &decomposed)] {
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
                            let (got, report) = execute(&cube, plan, &opts).unwrap();
                            let row = format!(
                                "{sem:?} P={p:?} {policy:?} {name} scope={scope:?} \
                                 threads={threads} {kernel}"
                            );
                            assert!(
                                agrees_on_scope(&got, &oracle, prod, scope),
                                "{row} diverged from relocate (report: {report:?})"
                            );
                            assert_eq!(report.passes, plan.passes().len() as u64, "{row}");
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
        let plan = plan(
            &cube,
            prod,
            Semantics::Forward,
            &[0],
            OrderPolicy::Pebbling,
            None,
        );
        let (_, report) = run(&cube, &plan);
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
        let mut prev = 0u64;
        for p in [vec![0u32], vec![0, 2], vec![0, 2, 4]] {
            let plan = plan(
                &cube,
                prod,
                Semantics::Static,
                &p,
                OrderPolicy::Pebbling,
                None,
            );
            let (_, report) = run(&cube, &plan);
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
        let naive = plan(
            &cube,
            prod,
            Semantics::Forward,
            &[0],
            OrderPolicy::Naive,
            None,
        );
        let param_first = OrderPolicy::DimOrder(vec![1, 2, 0]);
        let param_first = plan(&cube, prod, Semantics::Forward, &[0], param_first, None);
        let (_, slice_first) = run(&cube, &naive);
        let (_, param_first) = run(&cube, &param_first);
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
        let full = plan(
            &cube,
            prod,
            Semantics::Forward,
            &[1],
            OrderPolicy::Pebbling,
            None,
        );
        let varying = cube.schema().varying(prod).unwrap();
        let p3 = cube.schema().dim(prod).resolve("p3").unwrap();
        let slots: Vec<u32> = varying.instances_of(p3).iter().map(|i| i.0).collect();
        let scoped = plan(
            &cube,
            prod,
            Semantics::Forward,
            &[1],
            OrderPolicy::Pebbling,
            Some(&slots),
        );
        assert!(scoped.kept.contains(&false) && !full.kept.contains(&false));
        let (_, full_report) = run(&cube, &full);
        let (_, scoped_report) = run(&cube, &scoped);
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
        let map = DestMap::identity(cube.schema().axis_len(prod), 6);
        let plan = Plan::from_maps(
            &cube,
            prod,
            map.clone(),
            vec![map],
            OrderPolicy::Pebbling,
            None,
        )
        .unwrap();
        let (got, report) = run(&cube, &plan);
        assert!(got.same_cells(&cube).unwrap());
        assert_eq!(report.graph_nodes, 0);
        assert_eq!(report.cells_relocated, 0);
    }
}
