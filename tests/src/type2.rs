//! A Type-2 slowly-changing-dimension baseline (paper Section 7).
//!
//! "Type-2 methodology tracks changes by introducing a new member in a
//! dimension with the same name as the member being changed but with a
//! different key and an optional effective date property. Thus history is
//! preserved and changes can be isolated using effective date. However,
//! the simulation of change via certain duplicate members is
//! fundamentally not known to an OLAP engine. Thus it is not possible to
//! issue hypothetical queries readily to such engines."
//!
//! [`type2_of`] converts any varying-dimension cube into its Type-2
//! twin: each member *instance* becomes a surrogate member (`Joe#1`,
//! `Joe#2`, …) under its instance parent, with the validity set kept in a
//! side table the engine knows nothing about. [`simulate_forward`] is
//! then what a Type-2 user must do for a what-if: re-implement the
//! forward semantics *client-side* over the side table, touching the cube
//! cell by cell — the baseline the paper's native perspectives replace.
//! It is a second statement of forward semantics, written the way a
//! Type-2 user would: `client_side_simulation_matches_native_perspectives`
//! holds it to `whatif_core::apply`.

use olap_cube::Cube;
use olap_model::{DimensionId, MemberId, Moment, Schema, ValiditySet};
use std::collections::HashMap;
use std::sync::Arc;

/// The Type-2 twin of a varying-dimension cube.
pub struct Type2 {
    /// Schema with surrogate members and *no* varying dimension.
    pub schema: Arc<Schema>,
    /// The re-homed cube.
    pub cube: Cube,
    /// The converted dimension.
    pub dim: DimensionId,
    /// The parameter dimension (still ordered Time, unchanged).
    pub param: DimensionId,
    /// Effective moments per surrogate — the side table an OLAP engine
    /// cannot see (generalizes Type-2 effective dates to interleaved
    /// validity).
    pub effective: HashMap<MemberId, ValiditySet>,
    /// Surrogate → natural key ("Joe#2" → "Joe").
    pub natural_key: HashMap<MemberId, String>,
    /// Natural key → surrogates in instance order.
    pub surrogates: HashMap<String, Vec<MemberId>>,
}

/// Converts a cube whose `dim` varies over an ordered parameter into its
/// Type-2 representation.
pub fn type2_of(cube: &Cube, dim: DimensionId) -> Type2 {
    let src_schema = cube.schema();
    let varying = src_schema.varying(dim).expect("dim must be varying");
    let param = varying.parameter_dim();
    let src_dim = src_schema.dim(dim);

    // Rebuild the schema: identical dimensions, but `dim` gets one
    // surrogate member per instance and no varying registration.
    let mut schema = Schema::new();
    let mut dim_map: HashMap<DimensionId, DimensionId> = HashMap::new();
    for d in src_schema.dim_ids() {
        let nd = schema.add_dimension(src_schema.dim(d).name());
        dim_map.insert(d, nd);
        if d == dim {
            // Non-leaf structure first (groups), then surrogates.
            for m in src_schema.dim(d).member_ids() {
                if m == MemberId::ROOT || src_schema.dim(d).is_leaf(m) {
                    continue;
                }
                let parent = src_schema.dim(d).parent(m).expect("non-root");
                let parent_name = if parent == MemberId::ROOT {
                    None
                } else {
                    Some(src_schema.dim(d).member_name(parent).to_string())
                };
                let target = &mut *schema.dim_mut(nd);
                let p = match parent_name {
                    None => MemberId::ROOT,
                    Some(n) => target.find(&n).expect("parents added in order"),
                };
                target
                    .add_member(src_schema.dim(d).member_name(m), p)
                    .expect("unique sibling names");
            }
        } else {
            // Clone the hierarchy verbatim (preorder keeps parents first).
            clone_dim(src_schema.dim(d), schema.dim_mut(nd));
        }
        schema
            .dim_mut(nd)
            .set_ordered(src_schema.dim(d).is_ordered());
        schema
            .dim_mut(nd)
            .set_measure(src_schema.dim(d).is_measure());
    }
    // Surrogates, one per instance, numbered in instance order.
    let ndim = dim_map[&dim];
    let mut effective = HashMap::new();
    let mut natural_key = HashMap::new();
    let mut surrogates: HashMap<String, Vec<MemberId>> = HashMap::new();
    let mut per_member_counter: HashMap<MemberId, u32> = HashMap::new();
    let mut surrogate_of_instance: Vec<MemberId> = Vec::new();
    for inst in varying.instances() {
        let counter = per_member_counter.entry(inst.member).or_insert(0);
        *counter += 1;
        let natural = src_dim.member_name(inst.member).to_string();
        let surrogate_name = format!("{natural}#{counter}");
        let parent_name = src_dim.member_name(inst.parent()).to_string();
        let parent = schema.dim(ndim).find(&parent_name).expect("groups cloned");
        let sid = schema
            .dim_mut(ndim)
            .add_member(&surrogate_name, parent)
            .expect("surrogate names unique");
        effective.insert(sid, inst.validity.clone());
        natural_key.insert(sid, natural.clone());
        surrogates.entry(natural).or_default().push(sid);
        surrogate_of_instance.push(sid);
    }
    schema.seal();
    let schema = Arc::new(schema);

    // Re-home the data: instance slot → surrogate slot.
    let mut b =
        Cube::builder(Arc::clone(&schema), cube.geometry().extents().to_vec()).expect("same rank");
    let vd = dim.index();
    let slot_of_surrogate: HashMap<u32, u32> = surrogate_of_instance
        .iter()
        .enumerate()
        .map(|(i, &sid)| {
            (
                i as u32,
                schema
                    .dim(ndim)
                    .leaf_ordinal(sid)
                    .expect("surrogates are leaves"),
            )
        })
        .collect();
    cube.for_each_present(|cell, v| {
        let mut c = cell.to_vec();
        c[vd] = slot_of_surrogate[&c[vd]];
        b.set_num(&c, v).expect("in range");
    })
    .expect("iterate");
    Type2 {
        cube: b.finish().expect("build"),
        schema,
        dim: ndim,
        param: dim_map[&param],
        effective,
        natural_key,
        surrogates,
    }
}

fn clone_dim(src: &olap_model::Dimension, dst: &mut olap_model::Dimension) {
    // Preorder walk keeps parents before children; map by name path.
    let mut stack: Vec<(MemberId, MemberId)> = src
        .children(MemberId::ROOT)
        .iter()
        .rev()
        .map(|&c| (c, MemberId::ROOT))
        .collect();
    while let Some((m, parent)) = stack.pop() {
        let nm = dst
            .add_member(src.member_name(m), parent)
            .expect("same names are unique in source");
        for &c in src.children(m).iter().rev() {
            stack.push((c, nm));
        }
    }
    dst.seal();
}

/// The client-side simulation a Type-2 user needs for a forward what-if:
/// re-derive each natural member's "owner" surrogate per moment from the
/// side table, then read and re-map the cube cell by cell. Returns
/// per-(surrogate-parent-name) totals — the "impact on salary allocation"
/// a paper-style query reports — over the given measure-and-context
/// slicer (a fixed slot per non-dim, non-param dimension; `None` = sum
/// over that axis).
pub fn simulate_forward(
    t2: &Type2,
    perspectives: &[Moment],
    slicer: &[Option<u32>],
) -> HashMap<String, f64> {
    assert!(!perspectives.is_empty());
    let schema = &t2.schema;
    let d = schema.dim(t2.dim);
    let vd = t2.dim.index();
    let pd = t2.param.index();
    let moments = schema.dim(t2.param).leaf_count();
    // owner[natural][t] = surrogate whose data counts at t under forward
    // semantics (the client-side Φ).
    let mut owner: HashMap<&str, Vec<Option<MemberId>>> = HashMap::new();
    for (natural, sids) in &t2.surrogates {
        let mut row = vec![None; moments as usize];
        for t in 0..moments {
            // most recent perspective ≤ t; pre-Pmin keeps history.
            let pt = perspectives.iter().copied().filter(|&p| p <= t).max();
            match pt {
                Some(p) => {
                    // The surrogate valid at p owns [p, next perspective).
                    let owner_sid = sids
                        .iter()
                        .copied()
                        .find(|s| t2.effective[s].is_valid_at(p));
                    row[t as usize] = owner_sid;
                }
                None => {
                    // t < Pmin: original owner keeps it, if it survives.
                    let actual = sids
                        .iter()
                        .copied()
                        .find(|s| t2.effective[s].is_valid_at(t));
                    let survives = actual.is_some_and(|s| {
                        perspectives
                            .iter()
                            .any(|&p| t2.effective[&s].is_valid_at(p))
                    });
                    row[t as usize] = if survives { actual } else { None };
                }
            }
        }
        owner.insert(natural.as_str(), row);
    }
    // Scan the cube, re-mapping every cell to its owner's parent.
    let mut totals: HashMap<String, f64> = HashMap::new();
    t2.cube
        .for_each_present(|cell, v| {
            for (i, s) in slicer.iter().enumerate() {
                if let Some(slot) = s {
                    if i != vd && i != pd && cell[i] != *slot {
                        return;
                    }
                }
            }
            let surrogate = d.leaf_at(cell[vd]).expect("slot in range");
            let natural = &t2.natural_key[&surrogate];
            let t = cell[pd];
            // Only cells of the surrogate actually valid at t count (the
            // cube stores them that way already).
            if let Some(owner_sid) = owner[natural.as_str()][t as usize] {
                let parent = d.parent(owner_sid).expect("leaf");
                *totals
                    .entry(d.member_name(parent).to_string())
                    .or_insert(0.0) += v;
            }
        })
        .expect("iterate");
    totals
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_cube::{CellEvaluator, Sel};
    use olap_workload::running_example;
    use whatif_core::{apply, ExecOpts, Mode, Scenario, Semantics};

    #[test]
    fn surrogates_mirror_instances() {
        let ex = running_example();
        let t2 = type2_of(&ex.cube, ex.org);
        // Joe has three surrogates with the instance validity sets.
        let sids = &t2.surrogates["Joe"];
        assert_eq!(sids.len(), 3);
        assert_eq!(t2.effective[&sids[0]].iter().collect::<Vec<_>>(), vec![0]);
        assert_eq!(
            t2.effective[&sids[2]].iter().collect::<Vec<_>>(),
            vec![2, 3, 5]
        );
        assert_eq!(t2.schema.dim(t2.dim).member_name(sids[1]), "Joe#2");
        // Data re-homed exactly.
        assert_eq!(t2.cube.total_sum().unwrap(), ex.cube.total_sum().unwrap());
        assert_eq!(
            t2.cube.present_cell_count().unwrap(),
            ex.cube.present_cell_count().unwrap()
        );
    }

    #[test]
    fn plain_rollups_still_work_on_type2() {
        // "History is preserved" — ordinary queries are fine.
        let ex = running_example();
        let t2 = type2_of(&ex.cube, ex.org);
        let ev = CellEvaluator::new(&t2.cube);
        let fte = t2.schema.dim(t2.dim).resolve("FTE").unwrap();
        let ny = {
            let loc = t2.schema.resolve_dimension("Location").unwrap();
            Sel::Member(t2.schema.dim(loc).resolve("NY").unwrap())
        };
        let salary = {
            let m = t2.schema.resolve_dimension("Measures").unwrap();
            Sel::Member(t2.schema.dim(m).resolve("Salary").unwrap())
        };
        let v = ev
            .value(&[Sel::Member(fte), ny, Sel::Member(MemberId::ROOT), salary])
            .unwrap();
        // FTE NY salary over the year: Joe#1 (Jan) + Lisa (6 months).
        assert_eq!(v, olap_store::CellValue::Num(70.0));
    }

    #[test]
    fn client_side_simulation_matches_native_perspectives() {
        // The paper's point, quantified: the Type-2 user *can* compute a
        // forward what-if, but only by re-implementing Φ client-side. The
        // numbers must agree with the native perspective query.
        let ex = running_example();
        let t2 = type2_of(&ex.cube, ex.org);
        for p in [vec![0u32], vec![1, 3], vec![2]] {
            // Type-2 simulation: NY × Salary slice.
            let slicer = vec![None, Some(0u32), None, Some(0u32)];
            let simulated = simulate_forward(&t2, &p, &slicer);
            // Native: perspective cube + visual rollups per type.
            let scenario = Scenario::negative(ex.org, p.clone(), Semantics::Forward, Mode::Visual);
            let (r, _) = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
            let ev = CellEvaluator::new(&r);
            for group in ["FTE", "PTE", "Contractor"] {
                let g = ex.schema.dim(ex.org).resolve(group).unwrap();
                let native = ev
                    .value(&[
                        Sel::Member(g),
                        Sel::Slot(0), // NY
                        Sel::Member(MemberId::ROOT),
                        Sel::Slot(0), // Salary
                    ])
                    .unwrap()
                    .or_zero();
                let sim = simulated.get(group).copied().unwrap_or(0.0);
                assert!(
                    (native - sim).abs() < 1e-9,
                    "P={p:?} {group}: native {native} vs simulated {sim}"
                );
            }
        }
    }
}
