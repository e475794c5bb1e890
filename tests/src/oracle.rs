//! The definitional oracle: σ (Definition 4.1), Φ (Definitions 4.2 /
//! 4.3) and ρ (Definition 4.4) for negative scenarios, S
//! (Definition 4.5) for positive ones, and E (Definition 4.6) over a
//! negative scenario's output, written straight from the paper, per
//! member and per moment, over plain `BTreeSet`s and `BTreeMap`s.
//! [`eval`] evaluates a Theorem 4.1 expression ([`AlgebraExpr`]) by those
//! definitions; it is the only evaluator of the algebra there is, as the
//! product runs every scenario through its executor.
//!
//! It shares no code with the engine it checks: it calls no `whatif_core`
//! function, nothing of `olap_cube::eval`, and takes [`Semantics`],
//! [`Change`], [`AlgebraExpr`] and [`Sel`] only as inputs. The input's
//! instances, validity sets, parent timelines and hierarchies come from
//! the schema (`olap_model`), its cells through
//! [`Cube::for_each_present`], its formula rules from its `RuleSet`. The outputs of σ and ρ are staged chunk by
//! chunk into an empty cube of the input's geometry and rules, so a grid
//! can evaluate them.
//!
//! σ keeps the sub-cubes of the instances a predicate accepts, and drops
//! the rest. Its structural predicates read one instance at a time:
//! its member ("Product = TV"), its ancestor path ("under AudioVideo"),
//! its validity set ("VS ∩ {Feb, Apr} ≠ ∅"); whether the member is
//! changing is whether it has more than one instance. σ by value
//! ("sales over $1000 in Jan") reaches users only as MDX's `Filter`.
//!
//! Each semantics, for one instance `d` of member `m` with input validity
//! set `VS(d)`, perspectives `P`, `Pmin = min P`, `Pmax = max P`:
//!
//! * **static** keeps `VS(d)` when `d` is valid at some `p ∈ P`, else
//!   nothing;
//! * **forward** gives each `t ≥ Pmin` to `d` when `d` is valid at
//!   `max{p ∈ P | p ≤ t}`, and keeps `d`'s own history before `Pmin`. An
//!   instance whose stretch (the moments so given) is empty is inactive
//!   and keeps nothing, its pre-`Pmin` history included (the paper's
//!   Fig. 4: FTE/Joe, valid at neither perspective, vanishes);
//! * **extended forward** also gives every `t < Pmin` to the instance
//!   valid at `Pmin`, in place of the instances' own histories;
//! * **backward** and **extended backward** are the mirror images: each
//!   `t ≤ Pmax` goes to the instance valid at `min{p ∈ P | p ≥ t}`, and
//!   the moments after `Pmax` are kept (or, extended, go to the instance
//!   valid at `Pmax`).
//!
//! ρ then moves every input cell `(s, t, ē)` whose instance `s` is valid
//! at `t` to the one instance of the same member whose output set holds
//! `t`; a cell no output set claims is dropped, and a cell at an instance
//! not valid at its moment is never read.
//!
//! S adds instances, so its output has another schema and other axis
//! slots; the oracle states it by what does not change, the hierarchy
//! path. Every member's parent timeline is read off the input schema,
//! and the tuples `(m, o, n, t)` of `R` apply in list order, each setting
//! `m`'s parent to `n` at every `τ ≥ t`. Definition 4.5 treats `R` as a
//! set and says nothing of a member changed twice; the list order is the
//! reading `WITH CHANGES` and the shell's `.change` give it, so a later
//! tuple overrides an earlier one from its own moment on. A cell
//! `(m, τ, ē)` read off an instance valid at `τ` then belongs at `m`'s
//! path at `τ` under those timelines, and [`split_cells`] reads any cube
//! the same way through its own schema.
//!
//! E reads a cell addressed by one selector per dimension. A member
//! covers every axis slot whose ancestor chain holds it (a leaf member of
//! a varying dimension: each of its instances). The cell is *base* when
//! every selector covers one slot and no formula targets its measure,
//! else *derived*. Visual mode reads every cell on the output; non-visual
//! reads base cells there and derived cells on the input. A cube reads a
//! cell under its own rules: the most specific formula whose scope holds
//! for the cell, evaluated over the same coordinates with ⊥ through
//! arithmetic and ÷0 → ⊥, or else the sum of the present leaves the
//! selectors cover, ⊥ when none is ([`e`], over [`Leaves`]).

use olap_cube::rules::Expr;
use olap_cube::{Cube, Sel};
use olap_model::{AxisSlot, DimensionId, MemberId, Schema};
use olap_store::{CellValue, Chunk, ChunkId};
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use whatif_core::{AlgebraExpr, Change, Semantics};

/// One varying-dimension instance: its member and input validity set.
pub type Instance = (MemberId, BTreeSet<u32>);

/// The instances of varying dimension `dim`, in axis-slot order, and the
/// parameter dimension's moment count.
pub fn instances(cube: &Cube, dim: DimensionId) -> (Vec<Instance>, u32) {
    let varying = cube.schema().varying(dim).expect("a varying dimension");
    let instances = (varying.instances().iter())
        .map(|inst| (inst.member, inst.validity.iter().collect()))
        .collect();
    (instances, varying.moments())
}

/// Φ for `semantics` over `instances` (Definitions 4.2 / 4.3): one output
/// validity set per instance. `perspectives` must be non-empty.
pub fn phi(
    semantics: Semantics,
    instances: &[Instance],
    perspectives: &BTreeSet<u32>,
    moments: u32,
) -> Vec<BTreeSet<u32>> {
    let forward = matches!(semantics, Semantics::Forward | Semantics::ExtendedForward);
    let extended = matches!(
        semantics,
        Semantics::ExtendedForward | Semantics::ExtendedBackward
    );
    // The perspective that governs moment t, if one does: the latest at
    // or before t (forward), the earliest at or after t (backward).
    let governs = |t: u32| {
        if forward {
            perspectives.range(..=t).next_back()
        } else {
            perspectives.range(t..).next()
        }
    };
    // Whose structure the extended forms impose on ungoverned moments.
    let anchor = if forward {
        perspectives.first()
    } else {
        perspectives.last()
    };
    let anchor = *anchor.expect("a perspective");
    (instances.iter())
        .map(|(_, vs)| {
            if semantics == Semantics::Static {
                let active = perspectives.iter().any(|p| vs.contains(p));
                return if active { vs.clone() } else { BTreeSet::new() };
            }
            let stretch: BTreeSet<u32> = (0..moments)
                .filter(|&t| governs(t).is_some_and(|p| vs.contains(p)))
                .collect();
            if stretch.is_empty() {
                return stretch; // inactive: nothing, its own history included
            }
            let ungoverned = (0..moments).filter(|&t| governs(t).is_none());
            let kept: Vec<u32> = if extended {
                ungoverned.filter(|_| vs.contains(&anchor)).collect()
            } else {
                ungoverned.filter(|t| vs.contains(t)).collect()
            };
            stretch.into_iter().chain(kept).collect()
        })
        .collect()
}

/// ρ (Definition 4.4): relocates `cube`'s cells along varying dimension
/// `dim` to the output validity sets `vs_out`, one cell at a time.
pub fn relocate(cube: &Cube, dim: DimensionId, vs_out: &[BTreeSet<u32>]) -> Cube {
    let (instances, _) = instances(cube, dim);
    assert_eq!(vs_out.len(), instances.len(), "one output set per instance");
    let varying = cube.schema().varying(dim).expect("a varying dimension");
    let pd = varying.parameter_dim().index();
    let vd = dim.index();
    // (member, moment) → the one output instance that owns it.
    let mut owner: BTreeMap<(MemberId, u32), u32> = BTreeMap::new();
    for (d, vs) in vs_out.iter().enumerate() {
        for &t in vs {
            let claimed = owner.insert((instances[d].0, t), d as u32);
            assert!(claimed.is_none(), "two instances own moment {t}");
        }
    }
    stage(cube, |cell| {
        let (src, t) = (cell[vd] as usize, cell[pd]);
        let (member, valid) = &instances[src];
        if !valid.contains(&t) {
            return None; // Cin(d_t, t, ē) never reads a cell off its instance
        }
        let &d = owner.get(&(*member, t))?;
        let mut target = cell.to_vec();
        target[vd] = d;
        Some(target)
    })
}

/// σ (Definition 4.1) over varying dimension `dim`: the cube with the
/// sub-cubes of the instances that `keep` rejects removed. `keep` reads
/// one instance as the structural predicates do: its member, its
/// ancestor path below the root (top-down) and its validity set.
pub fn select(
    cube: &Cube,
    dim: DimensionId,
    keep: impl Fn(MemberId, &[MemberId], &BTreeSet<u32>) -> bool,
) -> Cube {
    let varying = cube.schema().varying(dim).expect("a varying dimension");
    let kept: Vec<bool> = (varying.instances().iter())
        .map(|inst| keep(inst.member, &inst.path, &inst.validity.iter().collect()))
        .collect();
    stage(cube, |cell| {
        kept[cell[dim.index()] as usize].then(|| cell.to_vec())
    })
}

/// A cube of `cube`'s geometry and rules holding each present cell at
/// `target(cell)`, or nowhere when that is `None`; staged chunk by chunk.
fn stage(cube: &Cube, mut target: impl FnMut(&[u32]) -> Option<Vec<u32>>) -> Cube {
    let geom = cube.geometry();
    let mut staged: BTreeMap<ChunkId, Chunk> = BTreeMap::new();
    cube.for_each_present(|cell, v| {
        if let Some(target) = target(cell) {
            let (id, off) = geom.split_cell(&target);
            (staged.entry(id))
                .or_insert_with(|| Chunk::new_dense(geom.chunk_shape(&geom.chunk_coord(id))))
                .set(off, CellValue::num(v));
        }
    })
    .expect("read the input");
    let out = (cube.empty_for_schema(Arc::clone(cube.schema()))).expect("the input's schema");
    for (id, chunk) in staged {
        out.put_chunk(id, chunk).expect("stage the output");
    }
    out
}

/// The perspective cube's leaf cells: ρ(C, Φ(VS, P)) by definition.
pub fn perspective_cube(
    cube: &Cube,
    dim: DimensionId,
    semantics: Semantics,
    perspectives: &[u32],
) -> Cube {
    let (instances, moments) = instances(cube, dim);
    let p: BTreeSet<u32> = perspectives.iter().copied().collect();
    relocate(cube, dim, &phi(semantics, &instances, &p, moments))
}

/// A leaf cell as Definition 4.5 speaks of it: the leaf member, its
/// ancestor path below the root at the cell's moment, and the cell's
/// other coordinates (the varying one removed, the moment kept). The
/// path is `None` for a cell that lies off its instance's validity set,
/// where no definition puts one.
pub type PathCell = (MemberId, Option<Vec<MemberId>>, Vec<u32>);

/// S(C, R) by definition: the cells the split of `cube` along `dim` by
/// the change list `changes` holds, each keyed by its [`PathCell`], with
/// the value's bits.
pub fn split(cube: &Cube, dim: DimensionId, changes: &[Change]) -> BTreeMap<PathCell, u64> {
    let schema = cube.schema();
    let varying = schema.varying(dim).expect("a varying dimension");
    let d = schema.dim(dim);
    let moments = varying.moments();
    let timeline = |m: MemberId| -> Vec<Option<MemberId>> {
        (0..moments).map(|t| varying.parent_at(d, m, t)).collect()
    };
    let mut timelines: BTreeMap<MemberId, Vec<Option<MemberId>>> = BTreeMap::new();
    for c in changes {
        let tl = timelines
            .entry(c.member)
            .or_insert_with(|| timeline(c.member));
        for parent in &mut tl[c.at as usize..] {
            *parent = Some(c.new_parent);
        }
    }
    let parent = |m: MemberId, t: u32| match timelines.get(&m) {
        Some(tl) => tl[t as usize],
        None => varying.parent_at(d, m, t),
    };
    // The path below the root, top-down; `None` if a link is missing.
    let path = |leaf: MemberId, t: u32| -> Option<Vec<MemberId>> {
        let mut up = Vec::new();
        let mut m = parent(leaf, t)?;
        while m != MemberId::ROOT {
            up.push(m);
            assert!(up.len() <= d.member_count(), "a cycle above {leaf:?}");
            m = parent(m, t)?;
        }
        up.reverse();
        Some(up)
    };
    let (instances, _) = instances(cube, dim);
    let pd = varying.parameter_dim().index();
    let mut out = BTreeMap::new();
    cube.for_each_present(|cell, v| {
        let (member, valid) = &instances[cell[dim.index()] as usize];
        let t = cell[pd];
        if !valid.contains(&t) {
            return; // never read, as in ρ
        }
        if let Some(p) = path(*member, t) {
            let mut rest = cell.to_vec();
            rest.remove(dim.index());
            out.insert((*member, Some(p), rest), v.to_bits());
        }
    })
    .expect("read the input");
    out
}

/// `cube`'s cells keyed by [`PathCell`] through its own schema: the form
/// in which [`split`] states what a split must hold.
pub fn split_cells(cube: &Cube, dim: DimensionId) -> BTreeMap<PathCell, u64> {
    let varying = cube.schema().varying(dim).expect("a varying dimension");
    let pd = varying.parameter_dim().index();
    let mut out = BTreeMap::new();
    cube.for_each_present(|cell, v| {
        let inst = &varying.instances()[cell[dim.index()] as usize];
        let path = inst
            .validity
            .is_valid_at(cell[pd])
            .then(|| inst.path.clone());
        let mut rest = cell.to_vec();
        rest.remove(dim.index());
        out.insert((inst.member, path, rest), v.to_bits());
    })
    .expect("read the cube");
    out
}

/// What [`eval`] returns: a negative expression's output cube, or a
/// positive one's cells keyed by hierarchy path (S grows the schema).
pub enum Evaluated {
    /// The leaf cells of ρ∘Φ, over the input's schema.
    Cube(Box<Cube>),
    /// The cells of S(C, R), as [`split`] states them.
    Paths(BTreeMap<PathCell, u64>),
}

/// An algebra expression evaluated by definition, left to right: Φρ is
/// [`perspective_cube`], S is [`split`] and E leaves the leaf cells as
/// they are (it only says how derived cells evaluate). S's output is
/// stated by path, not as a cube, so S must be the last operator.
pub fn eval(cube: &Cube, expr: &AlgebraExpr) -> Evaluated {
    fn flatten<'e>(expr: &'e AlgebraExpr, out: &mut Vec<&'e AlgebraExpr>) {
        match expr {
            AlgebraExpr::Compose(steps) => steps.iter().for_each(|s| flatten(s, out)),
            step => out.push(step),
        }
    }
    let mut steps = Vec::new();
    flatten(expr, &mut steps);
    let mut current: Option<Cube> = None;
    for (i, step) in steps.iter().enumerate() {
        let input = current.as_ref().unwrap_or(cube);
        match step {
            AlgebraExpr::PhiRelocate { spec } => {
                let p = &spec.perspectives;
                current = Some(perspective_cube(input, spec.dim, spec.semantics, p));
            }
            AlgebraExpr::Split { dim, changes } => {
                let rest = &steps[i + 1..];
                assert!(
                    rest.iter().all(|s| matches!(s, AlgebraExpr::Eval { .. })),
                    "S is stated by path, so no operator may follow it: {expr:?}"
                );
                return Evaluated::Paths(split(input, *dim, changes));
            }
            AlgebraExpr::Eval { .. } | AlgebraExpr::Compose(_) => {}
        }
    }
    Evaluated::Cube(Box::new(current.expect("an expression with an operator")))
}

/// Whether `got` holds exactly `want`'s cells among those whose slot on
/// `dim` is in `scope` (every cell when unscoped).
pub fn agrees_on_scope(got: &Cube, want: &Cube, dim: DimensionId, scope: Option<&[u32]>) -> bool {
    let cells = |c: &Cube| {
        let mut m = BTreeMap::new();
        c.for_each_present(|cell, v| {
            if scope.is_none_or(|s| s.contains(&cell[dim.index()])) {
                m.insert(cell.to_vec(), v.to_bits());
            }
        })
        .expect("read the cube");
        m
    };
    cells(got) == cells(want)
}

/// A cube as [`e`] reads it: its present leaf cells, dense in row-major
/// axis order, under its schema and rules.
pub struct Leaves<'c> {
    cube: &'c Cube,
    cells: Vec<Option<f64>>,
}

impl<'c> Leaves<'c> {
    /// Reads `cube`'s leaves once.
    pub fn of(cube: &'c Cube) -> Self {
        let schema = cube.schema();
        let len: usize = (schema.dim_ids())
            .map(|d| schema.axis_len(d) as usize)
            .product();
        let mut leaves = Leaves {
            cube,
            cells: vec![None; len],
        };
        let mut present = Vec::new();
        cube.for_each_present(|cell, v| present.push((leaves.offset(cell), v)))
            .expect("read the cube");
        for (off, v) in present {
            leaves.cells[off] = Some(v);
        }
        leaves
    }

    fn offset(&self, cell: &[u32]) -> usize {
        let schema = self.cube.schema();
        (schema.dim_ids().zip(cell)).fold(0, |off, (d, &s)| {
            off * schema.axis_len(d) as usize + s as usize
        })
    }

    /// The cell's value under this cube's rules.
    fn value(&self, sels: &[Sel], depth: u32) -> Option<f64> {
        assert!(depth < 32, "a rule cycle at {sels:?}");
        let (schema, rules) = (self.cube.schema(), self.cube.rules());
        if let Some(mdim) = rules.measure_dim() {
            let measure = chain(schema, mdim, sels[mdim.index()])[0];
            let holds = |scope: &[(DimensionId, MemberId)]| {
                (scope.iter()).all(|&(d, m)| chain(schema, d, sels[d.index()]).contains(&m))
            };
            // `candidates` lists the rules for the measure, most specific
            // scope first.
            if let Some(rule) = (rules.candidates(measure).into_iter()).find(|r| holds(&r.scope)) {
                return self.formula(&rule.expr, sels, mdim, depth);
            }
        }
        let covers: Vec<Vec<u32>> = (schema.dim_ids().zip(sels))
            .map(|(d, &sel)| covered(schema, d, sel))
            .collect();
        let mut sum = None;
        let mut cell = vec![0u32; covers.len()];
        let mut each = |cell: &[u32]| {
            if let Some(v) = self.cells[self.offset(cell)] {
                *sum.get_or_insert(0.0) += v;
            }
        };
        cross(&covers, 0, &mut cell, &mut each);
        sum
    }

    fn formula(&self, expr: &Expr, sels: &[Sel], mdim: DimensionId, depth: u32) -> Option<f64> {
        let arg = |e: &Expr| self.formula(e, sels, mdim, depth);
        match expr {
            Expr::Const(c) => Some(*c),
            Expr::Measure(m) => {
                let mut at = sels.to_vec();
                at[mdim.index()] = Sel::Member(*m);
                self.value(&at, depth + 1)
            }
            Expr::Add(a, b) => Some(arg(a)? + arg(b)?),
            Expr::Sub(a, b) => Some(arg(a)? - arg(b)?),
            Expr::Mul(a, b) => Some(arg(a)? * arg(b)?),
            Expr::Div(a, b) => {
                let (x, y) = (arg(a)?, arg(b)?);
                (y != 0.0).then(|| x / y)
            }
            Expr::Neg(a) => Some(-arg(a)?),
        }
    }
}

/// A selector's member, then its ancestors up to the root: a slot's leaf
/// member (an instance's on a varying dimension) and that slot's chain.
fn chain(schema: &Schema, dim: DimensionId, sel: Sel) -> Vec<MemberId> {
    match sel {
        Sel::Member(m) => std::iter::once(m)
            .chain(schema.dim(dim).ancestors(m))
            .collect(),
        Sel::Slot(s) => std::iter::once(schema.slot_member(dim, AxisSlot(s)))
            .chain(schema.slot_ancestors(dim, AxisSlot(s)))
            .collect(),
    }
}

/// The axis slots a selector covers: a slot itself, a member every slot
/// whose chain holds it.
fn covered(schema: &Schema, dim: DimensionId, sel: Sel) -> Vec<u32> {
    match sel {
        Sel::Slot(s) => vec![s],
        Sel::Member(m) => (0..schema.axis_len(dim))
            .filter(|&s| chain(schema, dim, Sel::Slot(s)).contains(&m))
            .collect(),
    }
}

/// Calls `each` on every cell of the cross product of `covers`.
fn cross(covers: &[Vec<u32>], d: usize, cell: &mut Vec<u32>, each: &mut impl FnMut(&[u32])) {
    if d == covers.len() {
        return each(cell);
    }
    for &s in &covers[d] {
        cell[d] = s;
        cross(covers, d + 1, cell, each);
    }
}

/// E (Definition 4.6) over `output`, a negative scenario's perspective
/// cube of `input` (the two share one schema): the value of the cell
/// `sels` addresses, `None` for ⊥. Visual mode reads every cell on the
/// output; non-visual reads base cells there and derived cells on the
/// input.
pub fn e(input: &Leaves, output: &Leaves, visual: bool, sels: &[Sel]) -> Option<f64> {
    assert!(
        Arc::ptr_eq(output.cube.schema(), input.cube.schema()),
        "one schema"
    );
    if reads_output(output.cube, visual, sels) {
        output.value(sels, 0)
    } else {
        input.value(sels, 0)
    }
}

/// Whether [`e`] reads the cell `sels` addresses on the output, judged
/// by `cube`'s schema and rules (the output's, which are the input's):
/// every cell in visual mode; in non-visual mode a base cell, which
/// covers one slot on every dimension and whose measure no formula rule
/// targets.
pub fn reads_output(cube: &Cube, visual: bool, sels: &[Sel]) -> bool {
    let (schema, rules) = (cube.schema(), cube.rules());
    assert_eq!(sels.len(), schema.dim_count(), "one selector per dimension");
    let formula = (rules.measure_dim())
        .is_some_and(|d| rules.has_formula(chain(schema, d, sels[d.index()])[0]));
    let single = (schema.dim_ids().zip(sels)).all(|(d, &sel)| covered(schema, d, sel).len() == 1);
    visual || (single && !formula)
}
