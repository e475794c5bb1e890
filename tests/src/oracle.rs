//! The definitional oracle for negative scenarios: Φ (Definitions 4.2 /
//! 4.3) and ρ (Definition 4.4) written straight from the paper, per
//! member and per moment, over plain `BTreeSet<u32>` validity sets.
//!
//! It shares no code with the engine it checks: it calls no `whatif_core`
//! function and takes [`Semantics`] only as an input enum. The input's
//! instances and validity sets come from the schema (`olap_model`), its
//! cells through [`Cube::for_each_present`]; the output is staged chunk
//! by chunk into an empty cube of the input's geometry and rules, so a
//! grid can evaluate it.
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

use olap_cube::Cube;
use olap_model::{DimensionId, MemberId};
use olap_store::{CellValue, Chunk, ChunkId};
use std::collections::{BTreeMap, BTreeSet};
use whatif_core::Semantics;

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
    let schema = cube.schema();
    let pd = schema
        .varying(dim)
        .expect("varying")
        .parameter_dim()
        .index();
    let vd = dim.index();
    // (member, moment) → the one output instance that owns it.
    let mut owner: BTreeMap<(MemberId, u32), u32> = BTreeMap::new();
    for (d, vs) in vs_out.iter().enumerate() {
        for &t in vs {
            let claimed = owner.insert((instances[d].0, t), d as u32);
            assert!(claimed.is_none(), "two instances own moment {t}");
        }
    }
    let geom = cube.geometry();
    let mut staged: BTreeMap<ChunkId, Chunk> = BTreeMap::new();
    cube.for_each_present(|cell, v| {
        let (src, t) = (cell[vd] as usize, cell[pd]);
        let (member, valid) = &instances[src];
        if !valid.contains(&t) {
            return; // Cin(d_t, t, ē) never reads a cell off its instance
        }
        if let Some(&d) = owner.get(&(*member, t)) {
            let mut target = cell.to_vec();
            target[vd] = d;
            let (id, off) = geom.split_cell(&target);
            (staged.entry(id))
                .or_insert_with(|| Chunk::new_dense(geom.chunk_shape(&geom.chunk_coord(id))))
                .set(off, CellValue::num(v));
        }
    })
    .expect("read the input");
    let out = cube.empty_like();
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
