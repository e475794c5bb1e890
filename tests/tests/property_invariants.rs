//! Property-based invariants (DESIGN.md §7), driven by randomly generated
//! warehouses. The load-bearing one is the last: the chunked Section 5/6
//! executor must agree cell-for-cell with the reference relocate on
//! arbitrary schemas, scenarios, and chunkings.

use olap_cube::Cube;
use olap_model::{DimensionId, InstanceId, ValiditySet};
use proptest::prelude::*;
use std::sync::Arc;
use whatif_core::{
    execute, execute_passes_opts, phi, relocate, ExecOpts, KernelKind, Mode, OrderPolicy,
    PerspectiveSpec, Plan, ScenarioCache, Semantics,
};
use whatif_integration_tests::{all_semantics, random_warehouse, whole_component_chunks};

/// Whether `got` agrees with `oracle` on every cell whose varying slot is
/// in `scope` (all cells when unscoped), in both directions.
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

fn arb_perspectives(moments: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0..moments, 1..=4).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Invariant 1: validity sets of distinct instances of one member are
    /// disjoint, for any change history the generator can produce.
    #[test]
    fn instance_validity_disjoint(seed in 0u64..500) {
        let w = random_warehouse(seed, 3, 8, 8, 4);
        let v = w.schema.varying(w.dim).unwrap();
        v.validate(w.schema.dim(w.dim)).unwrap();
    }

    /// Invariant 2: Φs is the identity on surviving instances' validity
    /// sets (and empties the rest).
    #[test]
    fn phi_static_is_identity_on_survivors(seed in 0u64..200, p_seed in 0u64..50) {
        let w = random_warehouse(seed, 3, 8, 8, 4);
        let v = w.schema.varying(w.dim).unwrap();
        let p = vec![(p_seed % w.moments as u64) as u32];
        let out = phi(Semantics::Static, v.instances(), &p, w.moments);
        for (i, inst) in v.instances().iter().enumerate() {
            if inst.validity.is_valid_at(p[0]) {
                prop_assert_eq!(&out[i], &inst.validity);
            } else {
                prop_assert!(out[i].is_empty());
            }
        }
    }

    /// Invariant 3: under every semantics, output validity sets of one
    /// member stay pairwise disjoint, and for dynamic semantics the
    /// moments ≥ Pmin where *some* instance existed are fully covered.
    #[test]
    fn phi_outputs_disjoint_and_forward_covers(
        seed in 0u64..200,
        p in arb_perspectives(8),
    ) {
        let w = random_warehouse(seed, 3, 8, 8, 4);
        let v = w.schema.varying(w.dim).unwrap();
        for sem in all_semantics() {
            let out = phi(sem, v.instances(), &p, w.moments);
            // Disjointness per member.
            let mut by_member: std::collections::HashMap<_, Vec<usize>> = Default::default();
            for (i, inst) in v.instances().iter().enumerate() {
                by_member.entry(inst.member).or_default().push(i);
            }
            for ids in by_member.values() {
                for (ai, &a) in ids.iter().enumerate() {
                    for &b in &ids[ai + 1..] {
                        prop_assert!(
                            !out[a].intersects(&out[b]),
                            "{sem:?}: instances {a}/{b} overlap"
                        );
                    }
                }
            }
            // Forward coverage: for t ≥ Pmin, if the member had an
            // instance valid at max(P_t), exactly one output VS owns t.
            if sem == Semantics::Forward {
                for (member, ids) in &by_member {
                    for t in p[0]..w.moments {
                        let pt = *p.iter().filter(|&&q| q <= t).max().unwrap();
                        let had = v.instance_at(*member, pt).is_some();
                        let owners = ids.iter().filter(|&&i| out[i].is_valid_at(t)).count();
                        prop_assert_eq!(
                            owners, usize::from(had),
                            "t={} member {:?}", t, member
                        );
                    }
                }
            }
        }
    }

    /// Invariant 4: ρ never invents values — every non-⊥ output leaf
    /// equals some input leaf at the same (t, ē).
    #[test]
    fn relocate_never_invents_values(seed in 0u64..120, p in arb_perspectives(8)) {
        let w = random_warehouse(seed, 3, 8, 8, 4);
        let v = w.schema.varying(w.dim).unwrap();
        let vs = phi(Semantics::Forward, v.instances(), &p, w.moments);
        let out = relocate(&w.cube, w.dim, &vs).unwrap();
        let vd = w.dim.index();
        out.for_each_present(|cell, value| {
            // Some instance of the same member must supply this value at
            // the same other-coordinates.
            let member = v.instance(InstanceId(cell[vd])).member;
            let found = v.instances_of(member).iter().any(|&src| {
                let mut c = cell.to_vec();
                c[vd] = src.0;
                w.cube.get(&c).unwrap() == olap_store::CellValue::num(value)
            });
            assert!(found, "output cell {cell:?}={value} has no input source");
        }).unwrap();
    }

    /// Invariant 5: forward relocation with Pmin = 0 preserves the total
    /// (every moment has a most-recent perspective, and instances valid at
    /// it receive every cell whose member existed then).
    #[test]
    fn forward_from_zero_preserves_member_months(seed in 0u64..120) {
        let w = random_warehouse(seed, 3, 8, 8, 4);
        let v = w.schema.varying(w.dim).unwrap();
        let vs = phi(Semantics::Forward, v.instances(), &[0], w.moments);
        let out = relocate(&w.cube, w.dim, &vs).unwrap();
        // Data moves only between instances of one member at the same t:
        // compare per-(member, t) totals. A (member, t) keeps its total
        // iff the member had an instance valid at the owning perspective
        // (t=0 here) — otherwise it is dropped entirely.
        let vd = w.dim.index();
        let pd = 0usize; // T is dimension 0 in random_warehouse
        let mut in_totals: std::collections::HashMap<(u32, u32), f64> = Default::default();
        w.cube.for_each_present(|cell, value| {
            let m = v.instance(InstanceId(cell[vd])).member;
            *in_totals.entry((m.0, cell[pd])).or_default() += value;
        }).unwrap();
        let mut out_totals: std::collections::HashMap<(u32, u32), f64> = Default::default();
        out.for_each_present(|cell, value| {
            let m = v.instance(InstanceId(cell[vd])).member;
            *out_totals.entry((m.0, cell[pd])).or_default() += value;
        }).unwrap();
        for (&(m, t), &total) in &in_totals {
            let survives = v.instance_at(olap_model::MemberId(m), 0).is_some();
            let got = out_totals.get(&(m, t)).copied().unwrap_or(0.0);
            if survives {
                prop_assert!((got - total).abs() < 1e-9, "member {m} t {t}");
            } else {
                prop_assert_eq!(got, 0.0);
            }
        }
    }

    /// Invariant 12 (the load-bearing one): a planned execution — single
    /// pass and Section 6 passes, under a random read order, scope,
    /// thread count and kernel, with the scenario cache cold then warm —
    /// agrees with the reference relocate on the slots it answers for,
    /// serves from the warm cache exactly the merge components its scope
    /// keeps whole,
    /// reports exactly what `execute_passes_opts` reports for the same
    /// inputs, and gives the same cells each time one `Plan` runs.
    #[test]
    fn chunked_equals_reference(
        seed in 0u64..60,
        p in arb_perspectives(8),
        policy in 0usize..8,
        scope_bits in proptest::option::of(any::<u32>()),
        threads in 1usize..=3,
        scalar in any::<bool>(),
    ) {
        let w = random_warehouse(seed, 3, 8, 8, 4);
        let v = w.schema.varying(w.dim).unwrap();
        let policy = match policy {
            0 => OrderPolicy::Pebbling,
            1 => OrderPolicy::Naive,
            // The six permutations of (T, D, X).
            k => OrderPolicy::DimOrder(
                [[0, 1, 2], [0, 2, 1], [1, 0, 2], [1, 2, 0], [2, 0, 1], [2, 1, 0]][k - 2].to_vec(),
            ),
        };
        let slots: Option<Vec<u32>> = scope_bits
            .map(|bits| (0..v.instance_count()).filter(|s| bits >> (s % 32) & 1 == 1).collect());
        let scope = slots.as_deref();
        let kernel = if scalar { KernelKind::Scalar } else { KernelKind::Runs };
        for sem in all_semantics() {
            let oracle = relocate(&w.cube, w.dim, &phi(sem, v.instances(), &p, w.moments)).unwrap();
            let spec = PerspectiveSpec::new(w.dim, p.iter().copied(), sem, Mode::Visual);
            let passes = Plan::build(&w.cube, &spec, &policy, scope).unwrap();
            let map = passes.map().clone();
            let single = Plan::from_maps(
                &w.cube, w.dim, map.clone(), vec![map.clone()], policy.clone(), scope,
            ).unwrap();
            for (name, plan) in [("single-pass", &single), ("multi-pass", &passes)] {
                // Same history on both sides: the plan and the wrapper
                // each get their own cache, run cold, then warm.
                let opts = |cache| ExecOpts {
                    threads,
                    kernel,
                    cache: Some(cache),
                    ..ExecOpts::default()
                };
                let planned = opts(Arc::new(ScenarioCache::with_capacity_mb(4)));
                let wrapped = opts(Arc::new(ScenarioCache::with_capacity_mb(4)));
                let mut first: Option<Cube> = None;
                for phase in ["cold", "warm"] {
                    let row = format!("{sem:?} P={p:?} {policy:?} scope={scope:?} {name} {phase}");
                    let (got, rep) = execute(&w.cube, plan, &planned).unwrap();
                    let (_, wrapper_rep) = execute_passes_opts(
                        &w.cube, w.dim, &map, plan.passes(), &policy, scope, wrapped.clone(),
                    ).unwrap();
                    prop_assert_eq!(&rep, &wrapper_rep, "{} report", row);
                    // A warm run serves exactly the components its scope
                    // keeps whole and withdraws them, so the restriction
                    // path runs too; a component the scope cuts runs
                    // uncached.
                    let served = match phase {
                        "warm" => whole_component_chunks(&w.cube, w.dim, &map, scope),
                        _ => 0,
                    };
                    prop_assert_eq!(rep.cache_chunks_served, served, "{} cache", row);
                    prop_assert!(agrees_on_scope(&got, &oracle, w.dim, scope), "{} diverged ({:?})", row, rep);
                    match &first {
                        None => first = Some(got),
                        Some(cold) => prop_assert!(got.same_cells(cold).unwrap(), "{} rerun", row),
                    }
                }
            }
        }
    }

    /// Chunk codec roundtrip on random chunks.
    #[test]
    fn codec_roundtrip(
        shape in proptest::collection::vec(1u32..5, 1..4),
        cells in proptest::collection::vec((0u32..64, -1e6f64..1e6), 0..32),
        sparse in any::<bool>(),
    ) {
        let mut chunk = if sparse {
            olap_store::Chunk::new_sparse(shape.clone())
        } else {
            olap_store::Chunk::new_dense(shape.clone())
        };
        let n = chunk.len();
        if n > 0 {
            for (off, v) in cells {
                chunk.set(off % n, olap_store::CellValue::num(v));
            }
        }
        let decoded = olap_store::codec::decode(&olap_store::codec::encode(&chunk).unwrap()).unwrap();
        prop_assert_eq!(chunk, decoded);
    }

    /// Validity-set algebra matches a BTreeSet model.
    #[test]
    fn validity_set_model(
        a in proptest::collection::btree_set(0u32..64, 0..20),
        b in proptest::collection::btree_set(0u32..64, 0..20),
    ) {
        let va = ValiditySet::of(64, a.iter().copied());
        let vb = ValiditySet::of(64, b.iter().copied());
        let mut u = va.clone();
        u.union_with(&vb);
        let model_u: Vec<u32> = a.union(&b).copied().collect();
        prop_assert_eq!(u.iter().collect::<Vec<_>>(), model_u);
        let mut i = va.clone();
        i.intersect_with(&vb);
        let model_i: Vec<u32> = a.intersection(&b).copied().collect();
        prop_assert_eq!(i.iter().collect::<Vec<_>>(), model_i.clone());
        let mut d = va.clone();
        d.difference_with(&vb);
        let model_d: Vec<u32> = a.difference(&b).copied().collect();
        prop_assert_eq!(d.iter().collect::<Vec<_>>(), model_d);
        prop_assert_eq!(va.intersects(&vb), !model_i.is_empty());
        prop_assert_eq!(va.first(), a.first().copied());
        prop_assert_eq!(va.last(), a.last().copied());
    }
}
