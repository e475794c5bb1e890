//! Planning: everything a what-if execution decides before it reads a
//! chunk (Sections 5.2 and 6).
//!
//! A [`Plan`] is built once per request and only read by
//! [`crate::exec::execute`]. It holds the *what* — the validated scenario,
//! Φ's output, the destination map, the Section 6 pass partition and the
//! output schema (grown, for a positive scenario: S is ρ onto a grown
//! axis) — and the *how*: the label mask after the scope closure, the full
//! merge graph and its predicted pebbles, and for each pass its induced
//! graph, pebbling order, residue and copy-through labels and the label
//! sequence every Lemma 5.1 slice reads.
//! Scoping and scenario-cache withdrawal are one operation, a restriction
//! of the label mask: drop these labels, re-induce, re-order.
//!
//! The paper's Essbase implementation does not materialize a perspective
//! cube in one sweep; it processes perspectives one at a time:
//!
//! * *static*: "for every perspective in the query, each employee's
//!   structure be reported as it existed for that perspective. As the
//!   number of perspectives increases so does the overhead in merging
//!   varying member instances from each perspective" — one pass per
//!   perspective, covering the instances valid at it;
//! * *forward*: "implemented directly by organizing perspectives into
//!   ranges and imposing the structure that existed at the start of every
//!   range through all members in the range" — one pass per range
//!   `[pᵢ, pᵢ₊₁)`, with "retrievals along cube slices indexed by members
//!   of the parameter dimension that occur in each perspective range".
//!
//! [`decompose_passes`] splits a full [`DestMap`] into those passes: each
//! pass keeps its own cells and marks the rest `Skip`. Running the passes
//! in sequence over a shared output cube reproduces the full plan —
//! including the paper's linear-in-k cost (Fig. 11), which a single-pass
//! execution would hide.

use crate::error::WhatIfError;
use crate::exec::OrderPolicy;
use crate::merge::{heuristic_order, naive_order, pebbles_for_order, MergeGraph};
use crate::operators::check_changes;
use crate::operators::relocate::{CellFate, DestMap};
use crate::perspective::{PerspectiveSpec, Semantics};
use crate::phi::{phi, VsMap};
use crate::scenario::{Change, Scenario};
use crate::Result;
use olap_cube::Cube;
use olap_model::{DimensionId, InstanceId, Moment, Schema, VaryingDimension};
use olap_store::ChunkGeometry;
use std::sync::Arc;

/// A what-if execution, decided: built once per request on the cube it
/// will run over, then only read by [`crate::exec::execute`].
#[derive(Debug, Clone)]
pub struct Plan {
    pub(crate) dim: DimensionId,
    map: DestMap,
    /// The Section 6 passes, in run order.
    passes: Vec<DestMap>,
    /// The output schema (the input's, or a positive plan's grown clone)
    /// and geometry. The geometries differ at most in the varying axis's
    /// length, so a label and an anchor name one coordinate in both.
    pub(crate) out_schema: Arc<Schema>,
    pub(crate) out_geom: ChunkGeometry,
    pub(crate) policy: OrderPolicy,
    pub(crate) vd: usize,
    pub(crate) pd: usize,
    pub(crate) vd_extent: u32,
    /// One chunk coordinate per Lemma 5.1 slice (varying-dimension grid
    /// coordinate 0), in slice-major order.
    pub(crate) anchors: Vec<Vec<u32>>,
    /// Labels (varying-dimension chunk indices, over the longer of the
    /// input and output axes) the execution may touch.
    pub(crate) kept: Vec<bool>,
    /// Per label: whether the scope keeps its merge component of the
    /// unrestricted graph whole (every label when unscoped). Only whole
    /// components produce whole output chunks, so only they are served
    /// from and inserted into the scenario cache.
    pub(crate) whole: Vec<bool>,
    /// The full plan's merge graph, induced on `kept`.
    pub(crate) graph: MergeGraph,
    /// Peak pebbles the policy's order needs on `graph` (0 for
    /// `DimOrder`, which doesn't pebble).
    pub(crate) predicted_pebbles: usize,
    pub(crate) pass_plans: Vec<PassPlan>,
}

/// How one pass reads the cube.
#[derive(Debug, Clone, Default)]
pub(crate) struct PassPlan {
    /// This pass's merge graph (⊆ the full graph), induced on `kept`.
    pub graph: MergeGraph,
    /// Per label, what the pass does with its chunks.
    pub roles: Vec<Role>,
    /// The labels every slice reads, in order: copy-through and residue
    /// first, then the graph nodes in the policy's order.
    pub reads: Vec<u32>,
}

/// What a pass does with one label's chunks.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Role {
    /// Not read.
    Skip,
    /// Kept, with no merge or drop under the full plan and one shape in
    /// both geometries: copied verbatim (first pass only).
    Copy,
    /// Holds cells this pass owns but neither merges nor copies (say an
    /// instance owned by pass 2 sharing a chunk with a pass-0 mover): only
    /// those cells are written, and nothing merges into them.
    Residue,
    /// Node `n` of the pass's merge graph.
    Merge(usize),
}

impl OrderPolicy {
    /// The within-slice read order of a merge graph's nodes: the pebbling
    /// heuristic, or layout order (`DimOrder` doesn't pebble).
    pub fn read_order(&self, g: &MergeGraph) -> Vec<usize> {
        match self {
            OrderPolicy::Pebbling => heuristic_order(g),
            OrderPolicy::Naive | OrderPolicy::DimOrder(_) => naive_order(g),
        }
    }
}

impl Plan {
    /// Plans a scenario of either kind with [`OrderPolicy::Pebbling`] —
    /// the plan [`crate::apply`] runs: a negative one by [`Plan::build`],
    /// a positive one as one pass of S onto the grown axis. `scope`
    /// names output slots.
    pub fn for_scenario(cube: &Cube, scenario: &Scenario, scope: Option<&[u32]>) -> Result<Plan> {
        let (dim, changes) = match scenario {
            Scenario::Negative(spec) => {
                return Plan::build(cube, spec, &OrderPolicy::Pebbling, scope)
            }
            Scenario::Positive { dim, changes, .. } => (*dim, changes),
        };
        let out = grown_schema(cube.schema(), dim, changes)?;
        let map = split_map(cube.schema(), &out, dim);
        let passes = vec![map.clone()];
        Plan::over(cube, dim, map, passes, OrderPolicy::Pebbling, scope, out)
    }

    /// Plans a negative scenario: validates it, applies Φ, builds the
    /// destination map and splits it into the Section 6 passes. `scope`
    /// optionally restricts execution to the varying-dimension slots a
    /// query touches (Essbase-style retrieval, the Fig. 12 access
    /// pattern): only chunks holding a scoped slot, plus their direct
    /// merge partners, are read, and the output is correct on those slots.
    pub fn build(
        cube: &Cube,
        spec: &PerspectiveSpec,
        policy: &OrderPolicy,
        scope: Option<&[u32]>,
    ) -> Result<Plan> {
        let vs = checked_phi(cube, spec)?;
        let map = DestMap::build(cube, spec.dim, &vs)?;
        let varying = cube.schema().varying(spec.dim).expect("checked_phi");
        let passes = decompose_passes(&map, spec.semantics, &spec.perspectives, varying);
        Plan::from_maps(cube, spec.dim, map, passes, policy.clone(), scope)
    }

    /// Plans hand-made maps onto the input's own axis: `map` is the full
    /// plan (it defines the merge graph, the copy-through set and the
    /// scope closure), `passes` run in order over one output cube
    /// (`vec![map.clone()]` for a single pass).
    pub fn from_maps(
        cube: &Cube,
        dim: DimensionId,
        map: DestMap,
        passes: Vec<DestMap>,
        policy: OrderPolicy,
        scope: Option<&[u32]>,
    ) -> Result<Plan> {
        let out = Arc::clone(cube.schema());
        Plan::over(cube, dim, map, passes, policy, scope, out)
    }

    /// [`Plan::from_maps`] onto `out_schema`.
    fn over(
        cube: &Cube,
        dim: DimensionId,
        map: DestMap,
        passes: Vec<DestMap>,
        policy: OrderPolicy,
        scope: Option<&[u32]>,
        out_schema: Arc<Schema>,
    ) -> Result<Plan> {
        let out_geom = cube.geometry_for_schema(&out_schema)?;
        let schema = cube.schema();
        let varying = schema
            .varying(dim)
            .ok_or_else(|| WhatIfError::NotVarying(schema.dim(dim).name().to_string()))?;
        let geom = cube.geometry();
        let vd = dim.index();
        let vd_extent = geom.extents()[vd];
        let n_labels = geom.grid()[vd].max(out_geom.grid()[vd]) as usize;
        let graph = MergeGraph::build(varying, &map, vd_extent);
        let mut in_scope = vec![scope.is_none(); n_labels];
        for &slot in scope.unwrap_or_default() {
            let axis_len = out_geom.lens()[vd];
            if slot >= axis_len {
                return Err(WhatIfError::BadScopeSlot { slot, axis_len });
            }
            in_scope[(slot / vd_extent) as usize] = true;
        }
        if scope.is_some() {
            // Close over merge partners, one hop: a scoped chunk cannot be
            // merged without the chunks it exchanges cells with, and only
            // its direct partners send cells into it. The snapshot keeps
            // a partner marked earlier in the scan from marking its own.
            let scoped = in_scope.clone();
            for node in 0..graph.len() {
                if scoped[graph.label(node) as usize] {
                    for nb in graph.neighbors(node) {
                        in_scope[graph.label(nb) as usize] = true;
                    }
                }
            }
        }
        let mut whole = vec![false; n_labels];
        for comp in graph.components() {
            if comp.iter().all(|&n| in_scope[graph.label(n) as usize]) {
                for n in comp {
                    whole[graph.label(n) as usize] = true;
                }
            }
        }
        let single = passes.len() == 1 && passes[0] == map;
        let pass_plans = (passes.iter())
            .map(|p| PassPlan {
                // A single pass over the full map shares the full graph.
                graph: if single {
                    MergeGraph::default()
                } else {
                    MergeGraph::build(varying, p, vd_extent)
                },
                ..PassPlan::default()
            })
            .collect();
        let walk: Vec<usize> = std::iter::once(vd)
            .chain((0..geom.ndims()).filter(|&d| d != vd))
            .collect();
        let plan = Plan {
            dim,
            map,
            passes,
            out_schema,
            out_geom,
            policy,
            vd,
            pd: varying.parameter_dim().index(),
            vd_extent,
            anchors: geom.chunks_in_order(&walk).filter(|c| c[vd] == 0).collect(),
            kept: vec![true; n_labels],
            whole,
            graph,
            predicted_pebbles: 0,
            pass_plans,
        };
        Ok(plan.restrict(cube, |l| !in_scope[l as usize]))
    }

    /// The full destination map.
    pub fn map(&self) -> &DestMap {
        &self.map
    }

    /// The passes, in run order.
    pub fn passes(&self) -> &[DestMap] {
        &self.passes
    }

    /// The one label-mask path, shared by the scope closure and the
    /// scenario cache's withdrawal of served components: drops the `drop`
    /// labels, re-induces every graph on the smaller mask, re-orders it,
    /// and redoes every pass's roles and reads.
    pub(crate) fn restrict(mut self, cube: &Cube, drop: impl Fn(u32) -> bool) -> Plan {
        for (l, k) in self.kept.iter_mut().enumerate() {
            *k &= !drop(l as u32);
        }
        let kept = &self.kept;
        self.graph = self.graph.induced(|l| kept[l as usize]);
        let order = self.policy.read_order(&self.graph);
        self.predicted_pebbles = match self.policy {
            OrderPolicy::DimOrder(_) => 0,
            _ => pebbles_for_order(&self.graph, &order),
        };
        let pass_plans = if self.passes.len() == 1 && self.passes[0] == self.map {
            // One pass over the full map: its graph and order are the
            // full plan's.
            vec![self.pass_plan(cube, true, self.graph.clone(), &order, &self.map)]
        } else {
            (self.pass_plans.iter().zip(&self.passes).enumerate())
                .map(|(i, (p, dest))| {
                    let g = p.graph.induced(|l| self.kept[l as usize]);
                    let o = self.policy.read_order(&g);
                    self.pass_plan(cube, i == 0, g, &o, dest)
                })
                .collect()
        };
        self.pass_plans = pass_plans;
        self
    }

    /// One pass's plan over `graph` (already induced on `kept`), read in
    /// `order`; the first pass also copies through every kept label
    /// outside the full graph, as residue where its chunk shapes differ.
    fn pass_plan(
        &self,
        cube: &Cube,
        first: bool,
        graph: MergeGraph,
        order: &[usize],
        dest: &DestMap,
    ) -> PassPlan {
        let n_in = cube.geometry().lens()[self.vd];
        let n_out = self.out_geom.lens()[self.vd];
        let same_shape = |l| n_in == n_out || (l + 1) * self.vd_extent <= n_in.min(n_out);
        let copy = |(l, k): (usize, &bool)| {
            if *k && first && same_shape(l as u32) {
                Role::Copy
            } else {
                Role::Skip
            }
        };
        let mut roles: Vec<Role> = self.kept.iter().enumerate().map(copy).collect();
        for &l in self.graph.labels() {
            roles[l as usize] = Role::Skip;
        }
        for (n, &l) in graph.labels().iter().enumerate() {
            roles[l as usize] = Role::Merge(n);
        }
        let varying = cube
            .schema()
            .varying(self.dim)
            .expect("checked by from_maps");
        let last = roles.len().saturating_sub(1);
        for (i, inst) in varying.instances().iter().enumerate() {
            let l = (i / self.vd_extent as usize).min(last);
            if self.kept[l]
                && roles[l] == Role::Skip
                && (inst.validity.iter()).any(|t| dest.fate(i as u32, t) != CellFate::Skip)
            {
                roles[l] = Role::Residue;
            }
        }
        let streamed = (0..roles.len() as u32)
            .filter(|&l| matches!(roles[l as usize], Role::Copy | Role::Residue));
        let reads = streamed
            .chain(order.iter().map(|&n| graph.label(n)))
            .collect();
        PassPlan {
            graph,
            roles,
            reads,
        }
    }
}

/// The schema a scenario's output lives on, derived without reading a
/// cell: the input's own for a negative scenario, S's grown clone for a
/// positive one — the schema [`Plan::for_scenario`] plans onto.
pub fn output_schema(schema: &Arc<Schema>, scenario: &Scenario) -> Result<Arc<Schema>> {
    match scenario {
        Scenario::Negative(_) => Ok(Arc::clone(schema)),
        Scenario::Positive { dim, changes, .. } => grown_schema(schema, *dim, changes),
    }
}

/// S's output schema: a clone of `schema` with `changes` checked and
/// applied in list order, so a later change of a member overrides an
/// earlier one from its own moment on (the ordered reading of Definition
/// 4.5's `R`, DESIGN.md §3).
fn grown_schema(schema: &Schema, dim: DimensionId, changes: &[Change]) -> Result<Arc<Schema>> {
    check_changes(schema, dim, changes)?;
    let mut out = schema.clone();
    for ch in changes {
        out.reclassify(dim, ch.member, ch.new_parent, ch.at)
            .map_err(|e| WhatIfError::BadChange(e.to_string()))?;
    }
    out.seal();
    out.validate()?;
    Ok(Arc::new(out))
}

/// S as a destination map onto `out`'s axis (Definition 4.5): each input
/// instance's cell at a valid τ moves to the output instance of the same
/// member valid at τ; every other cell is dropped.
fn split_map(schema: &Schema, out: &Schema, dim: DimensionId) -> DestMap {
    let varying_in = schema.varying(dim).expect("checked by check_changes");
    let varying_out = out.varying(dim).expect("still varying");
    let moments = varying_in.moments();
    let mut dest = vec![u32::MAX; (varying_in.instance_count() * moments) as usize];
    for (i, inst) in varying_in.instances().iter().enumerate() {
        for t in inst.validity.iter() {
            if let Some(new) = varying_out.instance_at(inst.member, t) {
                dest[i * moments as usize + t as usize] = new.0;
            }
        }
    }
    DestMap::from_raw(dest, moments)
}

/// Validates a negative scenario against the cube and applies Φ: the
/// dimension must vary, the perspective set must be non-empty and in
/// range, and dynamic semantics need an ordered parameter dimension.
fn checked_phi(cube: &Cube, spec: &PerspectiveSpec) -> Result<VsMap> {
    let schema = cube.schema();
    let varying = schema
        .varying(spec.dim)
        .ok_or_else(|| WhatIfError::NotVarying(schema.dim(spec.dim).name().to_string()))?;
    if spec.perspectives.is_empty() {
        return Err(WhatIfError::NoPerspectives);
    }
    let moments = varying.moments();
    if let Some(&moment) = spec.perspectives.iter().find(|&&p| p >= moments) {
        return Err(WhatIfError::BadPerspective { moment, moments });
    }
    let pdim = varying.parameter_dim();
    if spec.semantics.requires_order() && !schema.dim(pdim).is_ordered() {
        return Err(WhatIfError::UnorderedParameter {
            varying: schema.dim(spec.dim).name().to_string(),
            parameter: schema.dim(pdim).name().to_string(),
        });
    }
    Ok(phi(
        spec.semantics,
        varying.instances(),
        &spec.perspectives,
        moments,
    ))
}

/// Splits a plan into the Section 6 passes. `perspectives` must be
/// sorted and non-empty; the union of all passes' non-`Skip` entries is
/// exactly the full map's.
pub fn decompose_passes(
    full: &DestMap,
    semantics: Semantics,
    perspectives: &[Moment],
    varying: &VaryingDimension,
) -> Vec<DestMap> {
    debug_assert!(!perspectives.is_empty());
    let moments = varying.moments();
    match semantics {
        Semantics::Static => {
            // Pass i: the instances whose structure existed at pᵢ (their
            // whole validity set). Instances valid at several perspectives
            // are re-merged each time — the paper's per-perspective
            // overhead. Drops (instances valid at no perspective) are
            // assigned to pass 0 so exactly one pass owns them.
            perspectives
                .iter()
                .enumerate()
                .map(|(i, &p)| {
                    full.restrict(|src, t| {
                        let inst = varying.instance(InstanceId(src));
                        if inst.validity.is_valid_at(p) {
                            return true;
                        }
                        if i == 0 {
                            // Pass 0 owns every cell of never-valid
                            // instances (all drops).
                            return !perspectives.iter().any(|&q| inst.validity.is_valid_at(q))
                                && inst.validity.is_valid_at(t);
                        }
                        false
                    })
                })
                .collect()
        }
        Semantics::Forward | Semantics::ExtendedForward => {
            // Pass i owns [pᵢ, pᵢ₊₁); pass 0 additionally owns everything
            // before Pmin (retained pre-history / extended backfill).
            let owner = owner_by_most_recent(perspectives, moments);
            perspectives
                .iter()
                .enumerate()
                .map(|(i, _)| full.restrict(|_, t| owner[t as usize] == i))
                .collect()
        }
        Semantics::Backward | Semantics::ExtendedBackward => {
            // Mirror: pass i owns (pᵢ₋₁, pᵢ]; the last pass owns the
            // post-Pmax tail.
            let owner = owner_by_next(perspectives, moments);
            perspectives
                .iter()
                .enumerate()
                .map(|(i, _)| full.restrict(|_, t| owner[t as usize] == i))
                .collect()
        }
    }
}

/// For each moment, the index of `max{p ∈ P | p ≤ t}` (pre-Pmin → 0).
fn owner_by_most_recent(perspectives: &[Moment], moments: u32) -> Vec<usize> {
    let mut owner = vec![0usize; moments as usize];
    let mut pi = 0usize;
    for t in 0..moments {
        while pi + 1 < perspectives.len() && perspectives[pi + 1] <= t {
            pi += 1;
        }
        owner[t as usize] = if t < perspectives[0] { 0 } else { pi };
    }
    owner
}

/// For each moment, the index of `min{p ∈ P | p ≥ t}` (post-Pmax → last).
fn owner_by_next(perspectives: &[Moment], moments: u32) -> Vec<usize> {
    let last = perspectives.len() - 1;
    let mut owner = vec![last; moments as usize];
    let mut pi = 0usize;
    for t in 0..moments {
        while pi < last && perspectives[pi] < t {
            pi += 1;
        }
        owner[t as usize] = if t > perspectives[last] { last } else { pi };
    }
    owner
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::operators::relocate::CellFate;
    use crate::phi::phi;
    use olap_model::Dimension;

    fn setup() -> (Dimension, VaryingDimension) {
        let mut d = Dimension::new("Org");
        let a = d.add_child_of_root("A").unwrap();
        let b = d.add_child_of_root("B").unwrap();
        let m = d.add_member("m", a).unwrap();
        d.add_member("n", a).unwrap();
        d.add_member("o", b).unwrap();
        d.seal();
        let mut v =
            VaryingDimension::new(olap_model::DimensionId(0), olap_model::DimensionId(1), 12);
        v.reclassify(&d, m, b, 4).unwrap();
        v.rebuild(&d);
        (d, v)
    }

    fn full_map(v: &VaryingDimension, sem: Semantics, p: &[u32]) -> DestMap {
        let vs = phi(sem, v.instances(), p, 12);
        let moments = 12;
        let n = v.instance_count();
        let mut flat = vec![u32::MAX; (n * moments) as usize];
        for (i, vsi) in vs.iter().enumerate() {
            let member = v.instance(InstanceId(i as u32)).member;
            for t in vsi.iter() {
                if let Some(src) = v.instance_at(member, t) {
                    flat[(src.0 * moments + t) as usize] = i as u32;
                }
            }
        }
        DestMap::from_raw(flat, moments)
    }

    /// Every non-Skip entry of the union of passes equals the full map,
    /// and each (src, t) is owned by exactly the expected passes.
    fn check_union(sem: Semantics, p: &[u32]) {
        let (_, v) = setup();
        let full = full_map(&v, sem, p);
        let passes = decompose_passes(&full, sem, p, &v);
        assert_eq!(passes.len(), p.len());
        for src in 0..v.instance_count() {
            for t in 0..12 {
                let owners: Vec<CellFate> = passes
                    .iter()
                    .map(|m| m.fate(src, t))
                    .filter(|f| *f != CellFate::Skip)
                    .collect();
                match full.fate(src, t) {
                    CellFate::To(d) => {
                        assert!(
                            owners.iter().all(|f| *f == CellFate::To(d)),
                            "{sem:?} ({src},{t}): owners {owners:?} ≠ To({d})"
                        );
                        assert!(
                            !owners.is_empty(),
                            "{sem:?} ({src},{t}): no pass owns a live cell"
                        );
                    }
                    CellFate::Drop => {
                        assert!(
                            owners.iter().all(|f| *f == CellFate::Drop),
                            "{sem:?} ({src},{t}): drop leaked {owners:?}"
                        );
                    }
                    CellFate::Skip => unreachable!("full maps never skip"),
                }
            }
        }
    }

    #[test]
    fn static_passes_cover_full_map() {
        check_union(Semantics::Static, &[2, 7]);
        check_union(Semantics::Static, &[0]);
        check_union(Semantics::Static, &[1, 5, 9]);
    }

    #[test]
    fn forward_passes_partition_moments() {
        check_union(Semantics::Forward, &[2, 7]);
        check_union(Semantics::ExtendedForward, &[4]);
        let (_, v) = setup();
        let p = [2u32, 7];
        let full = full_map(&v, Semantics::Forward, &p);
        let passes = decompose_passes(&full, Semantics::Forward, &p, &v);
        // Moment 9 belongs to the second range only.
        for src in 0..v.instance_count() {
            assert_eq!(passes[0].fate(src, 9), CellFate::Skip);
        }
    }

    #[test]
    fn backward_passes_partition_moments() {
        check_union(Semantics::Backward, &[3, 8]);
        check_union(Semantics::ExtendedBackward, &[5]);
    }

    #[test]
    fn static_remerges_multi_perspective_instances() {
        // An instance valid at both perspectives is processed twice — the
        // paper's per-perspective merge overhead.
        let (_, v) = setup();
        let p = [0u32, 1];
        let full = full_map(&v, Semantics::Static, &p);
        let passes = decompose_passes(&full, Semantics::Static, &p, &v);
        // Instance 2 ("n", never reclassified) is valid at both.
        let n_owners = passes
            .iter()
            .filter(|m| m.fate(2, 0) != CellFate::Skip)
            .count();
        assert_eq!(n_owners, 2);
    }

    /// The scope closure is exactly one hop. On the chain A–B–C (labels
    /// 0–1–2, two slots each), scope {A} keeps A and its partner B but
    /// not C, whatever order the nodes are scanned in; only a scope that
    /// keeps the whole chain makes its component whole.
    #[test]
    fn scope_closure_is_one_hop() {
        use olap_model::{DimensionSpec, SchemaBuilder};
        use std::sync::Arc;
        let leaves = ["a0", "a1", "b0", "b1", "c0", "c1"];
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("Org").tree(&[("G", &leaves[..])]))
                .dimension(DimensionSpec::new("Time").ordered().leaves(&["t0", "t1"]))
                .varying("Org", "Time")
                .build()
                .unwrap(),
        );
        let dim = schema.resolve_dimension("Org").unwrap();
        let cube = Cube::builder(schema, vec![2, 2]).unwrap().finish().unwrap();
        // Identity, except slot 1 → slot 2 (A–B) and slot 3 → slot 4 (B–C).
        let mut flat: Vec<u32> = (0..6).flat_map(|s| [s, s]).collect();
        flat[2..4].fill(2);
        flat[6..8].fill(4);
        let map = DestMap::from_raw(flat, 2);
        let plan = |scope: &[u32]| {
            let passes = vec![map.clone()];
            Plan::from_maps(
                &cube,
                dim,
                map.clone(),
                passes,
                OrderPolicy::Pebbling,
                Some(scope),
            )
            .unwrap()
        };
        let a = plan(&[0]);
        assert_eq!(a.kept, [true, true, false]);
        assert_eq!(a.whole, [false; 3]);
        let c = plan(&[5]);
        assert_eq!(c.kept, [false, true, true]);
        assert_eq!(c.whole, [false; 3]);
        let b = plan(&[2]);
        assert_eq!(b.kept, [true; 3]);
        assert_eq!(b.whole, [true; 3]);
    }

    #[test]
    fn owner_maps() {
        assert_eq!(
            owner_by_most_recent(&[2, 7], 12),
            vec![0, 0, 0, 0, 0, 0, 0, 1, 1, 1, 1, 1]
        );
        assert_eq!(
            owner_by_next(&[3, 8], 12),
            vec![0, 0, 0, 0, 1, 1, 1, 1, 1, 1, 1, 1]
        );
    }
}
