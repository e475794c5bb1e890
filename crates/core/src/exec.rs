//! Chunked perspective-cube execution (Sections 5 and 6).
//!
//! ρ (Definition 4.4) moves each cell along a [`DestMap`]; this module is
//! the engine the paper proposes for it: stream chunks, *merge* the
//! sub-cubes of a changing member's instances, and choose the read order
//! so that as few chunks as possible are resident at once.
//!
//! Per Lemma 5.1, the varying dimension comes first in the read order
//! (slice-by-slice processing); within a slice, affected chunks are read
//! in an order chosen by pebbling the merge-dependency graph
//! (Section 5.2). Per Section 6, a multi-perspective query runs as
//! **passes** — one per perspective (static) or per range (dynamic) —
//! sharing one output cube; queries can also be **scoped** to the
//! varying-dimension slots they touch, Essbase-style, and a positive
//! scenario writes onto a grown axis. All of that is decided up front in
//! a [`Plan`]; the one entry point, [`execute`], only reads it, on the
//! caller's thread. Uncached, unbounded execution is
//! [`ExecOpts::default`]. [`ExecReport`] exposes predicted pebbles and
//! observed peak buffer residency for the ablations.

use crate::cache::{Cached, ComponentDigest, ScenarioCache};
use crate::fingerprint::Fnv64;
use crate::operators::relocate::{CellFate, DestMap};
use crate::plan::{PassPlan, Plan, Role};
use crate::Result;
use olap_cube::{Bounds, Cube};
use olap_model::DimensionId;
use olap_store::{Chunk, ChunkId};
use std::collections::HashMap;
use std::sync::Arc;

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
    /// Chunk reads against the input (pool hits included): the merge-graph
    /// and residue chunks each pass reads, which the paper's
    /// per-perspective re-merging repeats. A copied chunk is shared, not
    /// read (`chunks_shared`).
    pub chunks_read: u64,
    /// Output positions that share the input's chunk instead of reading
    /// it: every copied label's chunks, recorded by the first pass. The
    /// result reads them through the input's pool when it is read.
    pub chunks_shared: u64,
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

/// The one request context every bounded layer takes: the executor reads
/// it here, MDX grid evaluation through `QueryContext::opts`, and the
/// aggregator through its [`Bounds`]. A caller builds one value per
/// request and passes it down; nothing re-declares the fields.
#[derive(Debug, Clone, Default)]
pub struct ExecOpts {
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
    /// The request's budget and deadline (unbounded by default). A plan
    /// of either scenario kind whose predicted pebble count, times the
    /// chunk cell extent — the number `.explain` reports — exceeds the
    /// budget is refused before any chunk is read. The deadline is
    /// checked when execution starts, at pass boundaries and before each
    /// Lemma 5.1 slice sequence (slices are independent, so aborting
    /// between them leaves no partial state); an abort discards the
    /// partial output cube, and since the scenario cache is only updated
    /// after a complete run, it never installs partial entries.
    pub bounds: Bounds,
}

/// Chunked execution (Sections 5 and 6) of a [`Plan`] built on `cube` —
/// the executor's only entry point. It only reads the plan: the budget
/// check against the predicted pebbles, the scenario-cache probe, then
/// each pass over one shared output cube of the plan's output schema.
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
    opts.bounds.check_deadline()?;
    let out = cube.empty_for_schema(Arc::clone(&plan.out_schema))?;
    let mut report = ExecReport {
        graph_nodes: plan.graph.len(),
        graph_edges: plan.graph.edge_count(),
        predicted_pebbles: plan.predicted_pebbles,
        ..ExecReport::default()
    };
    // Reject-before-read: the pebble prediction is the same number
    // `.explain` reports, priced in cells via the chunk extent.
    let needed = (plan.predicted_pebbles as u64).saturating_mul(cube.geometry().chunk_cells());
    opts.bounds.admit(needed)?;
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
        opts.bounds.check_deadline()?;
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
/// its component's inputs, its fates and the output geometry, see
/// `crate::cache`). Hit components have all their chunks installed into
/// `out`; returns the mask of their labels, and the `(output chunk,
/// digest)` keys of missed components so the caller can insert the
/// freshly merged chunks after the run.
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
    let out_geom = &plan.out_geom;
    let vd = plan.vd;
    let axis_len = cube.schema().axis_len(plan.dim);
    // Scope slot numbering to this cube's shape, schema identity and
    // data version, and to the output axis's length (which a positive
    // plan grows): a cache is per-session (one base cube), but make
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
        h.write_u32(out_geom.lens()[vd]);
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
            for &l in labels.iter().filter(|&&l| l < out_geom.grid()[vd]) {
                coord[vd] = l;
                keys.push((out_geom.chunk_id(&coord), digest));
            }
        }
        match cache.lookup_component(&keys) {
            Some(payloads) => {
                for (&(id, _), payload) in keys.iter().zip(payloads) {
                    if let Cached::Chunk(chunk) = payload {
                        out.put_chunk(id, chunk)?;
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
    /// Runs one pass of `dest` into `out`: one chunk sequence per
    /// slice (the varying dimension first, Lemma 5.1), or `DimOrder`'s
    /// one interleaved walk, with the deadline checked before each.
    fn pass(
        &self,
        out: &Cube,
        pass: &PassPlan,
        dest: &DestMap,
        report: &mut ExecReport,
    ) -> Result<()> {
        let (geom, vd) = (self.cube.geometry(), self.plan.vd);
        if let OrderPolicy::DimOrder(dims) = &self.plan.policy {
            let walk: Vec<Vec<u32>> = (geom.chunks_in_order(dims))
                .filter(|c| pass.roles[c[vd] as usize] != Role::Skip)
                .collect();
            self.opts.bounds.check_deadline()?;
            return self.process(out, dest, pass, &walk, report);
        }
        if pass.reads.is_empty() {
            return Ok(());
        }
        for anchor in &self.plan.anchors {
            let slice: Vec<Vec<u32>> = (pass.reads.iter())
                .map(|&l| {
                    let mut coord = anchor.clone();
                    coord[vd] = l;
                    coord
                })
                .collect();
            self.opts.bounds.check_deadline()?;
            self.process(out, dest, pass, &slice, report)?;
        }
        Ok(())
    }

    /// Processes one ordered chunk sequence with its own slice/buffer
    /// state; `peak_out_buffers` is the high-water mark of one sequence's
    /// live buffers, the serial figure Sec. 5.2's pebbling predicts.
    fn process(
        &self,
        out: &Cube,
        dest: &DestMap,
        pass: &PassPlan,
        sequence: &[Vec<u32>],
        report: &mut ExecReport,
    ) -> Result<()> {
        let (geom, out_geom) = (self.cube.geometry(), &self.plan.out_geom);
        let vd = self.plan.vd;
        let graph = &pass.graph;

        struct SliceState {
            processed: Vec<bool>,
            done: usize,
        }
        let mut slices: HashMap<Vec<u32>, SliceState> = HashMap::new();
        let mut buffers: HashMap<ChunkId, Chunk> = HashMap::new();

        for coord in sequence.iter() {
            let label = coord[vd];
            // A label past the input's end (the axis grew) has no input
            // chunk and reads as absent; one past the output's end (it
            // shrank) has no output chunk and keeps no buffer.
            let input = (label < geom.grid()[vd])
                .then(|| geom.chunk_id(coord))
                .filter(|&id| self.cube.chunk_exists(id));
            let out_id = (label < out_geom.grid()[vd]).then(|| out_geom.chunk_id(coord));
            let role = pass.roles[label as usize];
            // Copy-through (first pass only; untouched by any pass of the
            // plan, and one shape in both geometries): the output shares
            // the input's chunk, unread.
            if let (Role::Copy, Some(id)) = (role, input) {
                let out_id = out_id.expect("a copied label is in both geometries");
                out.share_chunk(out_id, self.cube, id);
                report.chunks_shared += 1;
                continue;
            }
            if input.is_some() {
                report.chunks_read += 1;
            }
            let node = match (role, input) {
                (Role::Merge(node), _) => node,
                // Residue: keep exactly the cells this pass owns. None of
                // them moves, so scattering fills this chunk's own buffer.
                (Role::Residue, Some(id)) => {
                    let mut own = HashMap::new();
                    self.scatter(&*self.cube.chunk(id)?, coord, dest, &mut own, report);
                    debug_assert!(own.keys().all(|&k| Some(k) == out_id), "cells stay put");
                    for (out_id, buf) in own {
                        self.flush_overlay(out, out_id, buf)?;
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
            if let Some(id) = input {
                let chunk = self.cube.chunk(id)?;
                self.scatter(&chunk, coord, dest, &mut buffers, report);
            }
            // This node's buffer exists even when nothing lands in it —
            // it is "pebbled" while its merges are pending.
            if let Some(out_id) = out_id {
                buffers
                    .entry(out_id)
                    .or_insert_with(|| Chunk::new_dense(out_geom.chunk_shape(coord)));
            }
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
            for y in flush
                .into_iter()
                .filter(|&y| graph.label(y) < out_geom.grid()[vd])
            {
                let mut ycoord = coord.clone();
                ycoord[vd] = graph.label(y);
                let yid = out_geom.chunk_id(&ycoord);
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
    /// The chunk is decomposed into runs with the split axis just after
    /// `max(vd, pd)`: each run is the chunk's full cross-section of the
    /// remaining axis suffix, over which the fate, the kept-scope check
    /// and the destination chunk/offset are all constant and computed
    /// once — so trailing length-1 axes (currency, version, …) never
    /// shrink a run to single cells. The cells then move with one
    /// [`Chunk::copy_run_from`] — a values `copy_from_slice` plus a
    /// word-wise presence OR. The wholesale copy is sound because the
    /// relocation map is injective per pass: distinct source runs land
    /// on disjoint destination ranges, so no present destination cell is
    /// ever overwritten (debug-asserted inside the kernel). Both
    /// geometries share every extent, so the argument holds across them.
    /// When vd or
    /// pd is the very last axis the runs degenerate to single cells,
    /// which is still correct.
    fn scatter(
        &self,
        chunk: &Chunk,
        coord: &[u32],
        dest: &DestMap,
        buffers: &mut HashMap<ChunkId, Chunk>,
        report: &mut ExecReport,
    ) {
        let (geom, out_geom) = (self.cube.geometry(), &self.plan.out_geom);
        let (vd, pd, vd_extent) = (self.plan.vd, self.plan.pd, self.plan.vd_extent);
        let mut target: Vec<u32> = Vec::with_capacity(geom.ndims());
        let mut it = geom.runs_from(coord, vd.max(pd) + 1);
        while let Some((base, start, len)) = it.next_run() {
            let src = base[vd];
            match dest.fate(src, base[pd]) {
                CellFate::Skip => {}
                CellFate::Drop => {
                    report.cells_dropped += chunk.present_in_range(start, len) as u64;
                }
                CellFate::To(dst) => {
                    if !self.plan.kept[(dst / vd_extent) as usize] {
                        continue; // out-of-scope destination
                    }
                    // The destination chunk differs only in the vd grid
                    // coordinate (vd is before the split), so its suffix
                    // cross-section has the same clipped shape and the
                    // whole run lands contiguously from one base offset.
                    target.clear();
                    target.extend_from_slice(base);
                    target[vd] = dst;
                    let (tid, toff) = out_geom.split_cell(&target);
                    let buf = buffers.entry(tid).or_insert_with(|| {
                        Chunk::new_dense(out_geom.chunk_shape(&out_geom.chunk_coord(tid)))
                    });
                    let n = buf.copy_run_from(chunk, start, toff, len);
                    if dst != src {
                        report.cells_relocated += n as u64;
                    }
                }
            }
        }
    }

    /// Writes a buffer into the output cube, overlaying any cells an
    /// earlier pass already produced for the same chunk with the
    /// word-masked [`Chunk::overlay_from`] kernel.
    fn flush_overlay(&self, out: &Cube, id: ChunkId, buf: Chunk) -> Result<()> {
        if buf.present_count() == 0 {
            return Ok(());
        }
        if out.chunk_exists(id) {
            let mut existing = (*out.chunk(id)?).clone();
            existing.overlay_from(&buf);
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
    use crate::perspective::{Mode, PerspectiveSpec, Semantics};
    use olap_model::{DimensionSpec, SchemaBuilder};

    /// A 3-dim cube: Product (varying, 8 members, 4 moving) × Time (6) ×
    /// Location (4). Chunk extents 2.
    fn fixture() -> (Cube, DimensionId) {
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
    fn run_plan(cube: &Cube, plan: &Plan) -> (Cube, ExecReport) {
        execute(cube, plan, &ExecOpts::default()).unwrap()
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
        let (_, report) = run_plan(&cube, &plan);
        assert!(report.graph_nodes > 0);
        assert!(report.cells_relocated > 0);
        assert!(report.chunks_read > 0);
        assert_eq!(report.passes, 1);
        assert!(report.peak_out_buffers >= report.predicted_pebbles as u64);
    }

    /// The Fig. 11 mechanism, counted exactly: per-perspective passes
    /// repeat reads only of what they re-merge. Pass 1 visits every input
    /// chunk once, reading what it merges or keeps as residue and sharing
    /// what it copies; a later pass reads only labels of the full merge
    /// graph (its own graph and its residue), never one pass 1 copied
    /// through. With no merge at all, a k-pass run shares every chunk and
    /// reads none.
    #[test]
    fn later_passes_read_only_merge_graph_labels() {
        let (cube, prod) = fixture();
        let geom = cube.geometry();
        let ids = cube.chunk_ids();
        let chunks_at = |l: usize| {
            (ids.iter())
                .filter(|&&id| geom.chunk_coord(id)[prod.index()] as usize == l)
                .count()
        };
        let mut reads = Vec::new();
        for p in [vec![0u32], vec![0, 2], vec![0, 2, 4]] {
            let plan = plan(
                &cube,
                prod,
                Semantics::Static,
                &p,
                OrderPolicy::Pebbling,
                None,
            );
            let (_, report) = run_plan(&cube, &plan);
            let copied = (0..plan.pass_plans[0].roles.len())
                .filter(|&l| plan.pass_plans[0].roles[l] == Role::Copy)
                .map(chunks_at)
                .sum::<usize>();
            assert_eq!(report.chunks_shared, copied as u64, "{p:?}");
            let mut want = ids.len() - copied;
            for pass in &plan.pass_plans[1..] {
                for (l, &role) in pass.roles.iter().enumerate() {
                    if role != Role::Skip {
                        let in_graph = plan.graph.labels().contains(&(l as u32));
                        assert!(in_graph, "{p:?}: a later pass reads copied label {l}");
                        want += chunks_at(l);
                    }
                }
            }
            assert_eq!(report.chunks_read, want as u64, "{p:?}");
            reads.push(report.chunks_read);
        }
        assert_eq!(reads, [22, 24, 0], "merges 24, 12, 0");

        let map = DestMap::identity(cube.schema().axis_len(prod), 6);
        let passes = (0..3).map(|i| map.restrict(|_, t| t % 3 == i)).collect();
        let plan = Plan::from_maps(&cube, prod, map, passes, OrderPolicy::Pebbling, None).unwrap();
        let (got, report) = run_plan(&cube, &plan);
        assert!(got.same_cells(&cube).unwrap());
        assert_eq!((report.passes, report.merges), (3, 0));
        assert_eq!(
            (report.chunks_read, report.chunks_shared),
            (0, ids.len() as u64)
        );
    }

    /// A result shares every chunk it did not compute: a copied label's
    /// output chunk is the input's own `Arc`, for one pass and for k, and
    /// a warm run's cache-served chunk is the one the cold run inserted
    /// (the cache holds the cold output's `Arc`s).
    #[test]
    fn copies_and_cache_hits_share_their_chunks() {
        let (cube, prod) = fixture();
        let geom = cube.geometry();
        let label = |id: ChunkId| geom.chunk_coord(id)[prod.index()] as usize;
        for (sem, p) in [
            (Semantics::Forward, vec![1u32]),
            (Semantics::Static, vec![0, 2, 4]),
            (Semantics::Backward, vec![1, 3]),
        ] {
            let plan = plan(&cube, prod, sem, &p, OrderPolicy::Pebbling, None);
            let (out, _) = run_plan(&cube, &plan);
            let copied: Vec<ChunkId> = (cube.chunk_ids().into_iter())
                .filter(|&id| plan.pass_plans[0].roles[label(id)] == Role::Copy)
                .collect();
            assert!(!copied.is_empty(), "{sem:?} {p:?}: nothing copied");
            for id in copied {
                let (got, input) = (out.chunk(id).unwrap(), cube.chunk(id).unwrap());
                assert!(Arc::ptr_eq(&got, &input), "{sem:?} {p:?}: {id:?} copied");
            }
        }

        let cache = Arc::new(ScenarioCache::with_capacity_mb(16));
        let opts = ExecOpts {
            cache: Some(cache),
            ..ExecOpts::default()
        };
        let plan = plan(
            &cube,
            prod,
            Semantics::Forward,
            &[1],
            OrderPolicy::Pebbling,
            None,
        );
        let (cold, _) = execute(&cube, &plan, &opts).unwrap();
        let (warm, report) = execute(&cube, &plan, &opts).unwrap();
        assert!(report.cache_chunks_served > 0);
        assert_eq!(report.merges, 0, "every component is served");
        assert_eq!(warm.chunk_ids(), cold.chunk_ids());
        for id in warm.chunk_ids() {
            let got = warm.chunk(id).unwrap();
            let from = if plan.graph.labels().contains(&(label(id) as u32)) {
                cold.chunk(id).unwrap()
            } else {
                cube.chunk(id).unwrap()
            };
            assert!(Arc::ptr_eq(&got, &from), "{id:?} shared");
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
        let (_, slice_first) = run_plan(&cube, &naive);
        let (_, param_first) = run_plan(&cube, &param_first);
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
        let (_, full_report) = run_plan(&cube, &full);
        let (_, scoped_report) = run_plan(&cube, &scoped);
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
        let (got, report) = run_plan(&cube, &plan);
        assert!(got.same_cells(&cube).unwrap());
        assert_eq!(report.graph_nodes, 0);
        assert_eq!(report.cells_relocated, 0);
    }
}
