//! Coverage for two model features the paper calls out but its
//! experiments don't exercise:
//!
//! * **Unordered parameter dimensions** — "If work performed by employees
//!   in different locations is classified differently, we have a
//!   parameter dimension Location, which is unordered" (Definition 2.1),
//!   and scenario S2: "What if FTE Lisa performed some work in MA where
//!   she is classified as PTE?" Only static semantics applies.
//! * **Multiple varying dimensions** — "A cube may have several varying
//!   dimensions, each depending on one or more parameters" (Section 2);
//!   scenarios compose through the algebra.

use olap_cube::{CellEvaluator, Cube, RuleSet, Sel};
use olap_model::{DimensionId, Schema};
use olap_store::CellValue;
use std::sync::Arc;
use whatif_core::{
    apply, AlgebraExpr, Change, ExecOpts, ExecReport, Mode, PerspectiveSpec, Scenario, Semantics,
};
use whatif_integration_tests::oracle;

/// The chunked engine's answer with the default knobs.
fn apply_default(cube: &Cube, scenario: &Scenario) -> whatif_core::Result<(Cube, ExecReport)> {
    apply(cube, scenario, None, &ExecOpts::default())
}

/// S2's warehouse: Organization varies over *Location* — Lisa is FTE in
/// NY and CA but classified PTE for work performed in MA.
fn location_varying() -> (Cube, DimensionId, DimensionId) {
    let mut schema = Schema::new();
    let location = schema.add_dimension("Location");
    for l in ["NY", "MA", "CA"] {
        schema.dim_mut(location).add_child_of_root(l).unwrap();
    }
    // NOT ordered: locations have no temporal sequence.
    let org = schema.add_dimension("Organization");
    let fte = schema.dim_mut(org).add_child_of_root("FTE").unwrap();
    let lisa = schema.dim_mut(org).add_member("Lisa", fte).unwrap();
    let pte = schema.dim_mut(org).add_child_of_root("PTE").unwrap();
    schema.dim_mut(org).add_member("Tom", pte).unwrap();
    schema.make_varying(org, location).unwrap();
    // Lisa is PTE for MA work (location ordinal 1).
    schema.set_parent_at(org, lisa, pte, [1]).unwrap();
    schema.seal();
    schema.validate().unwrap();
    let schema = Arc::new(schema);
    let mut rules = RuleSet::new();
    let measures = None::<DimensionId>;
    let _ = measures;
    rules.set_default_agg(olap_cube::AggFn::Sum);
    let mut b = Cube::builder(Arc::clone(&schema), vec![3, 2])
        .unwrap()
        .rules(rules);
    // Hours worked: every valid (instance, location) = 8.
    let varying = schema.varying(org).unwrap();
    for (i, inst) in varying.instances().iter().enumerate() {
        for l in inst.validity.iter() {
            b.set_num(&[l, i as u32], 8.0).unwrap();
        }
    }
    (b.finish().unwrap(), org, location)
}

#[test]
fn s2_lisa_is_pte_in_ma_only() {
    let (cube, org, _location) = location_varying();
    let schema = cube.schema();
    let v = schema.varying(org).unwrap();
    let lisa = schema.dim(org).resolve("Lisa").unwrap();
    let ids = v.instances_of(lisa);
    assert_eq!(ids.len(), 2);
    let names: Vec<String> = ids
        .iter()
        .map(|&i| v.instance_name(schema.dim(org), i))
        .collect();
    assert_eq!(names, vec!["FTE/Lisa", "PTE/Lisa"]);
    // FTE/Lisa valid in {NY, CA}, PTE/Lisa in {MA}.
    assert_eq!(
        v.instance(ids[0]).validity.iter().collect::<Vec<_>>(),
        vec![0, 2]
    );
    assert_eq!(
        v.instance(ids[1]).validity.iter().collect::<Vec<_>>(),
        vec![1]
    );
    // FTE hours across locations: Lisa's NY + CA work only.
    let ev = CellEvaluator::new(&cube);
    let fte = schema.dim(org).resolve("FTE").unwrap();
    let total = ev
        .value(&[Sel::Member(olap_model::MemberId::ROOT), Sel::Member(fte)])
        .unwrap();
    assert_eq!(total, CellValue::Num(16.0));
}

#[test]
fn static_perspective_over_locations() {
    // "What did the org look like from NY's point of view?" — static with
    // P = {NY} keeps only the structures valid in NY.
    let (cube, org, _) = location_varying();
    let scenario = Scenario::negative(org, [0], Semantics::Static, Mode::Visual);
    let (r, _) = apply_default(&cube, &scenario).unwrap();
    let schema = cube.schema();
    let v = schema.varying(org).unwrap();
    let lisa = schema.dim(org).resolve("Lisa").unwrap();
    let ids = v.instances_of(lisa);
    // PTE/Lisa (valid only in MA) is dropped; FTE/Lisa keeps NY + CA.
    assert_eq!(r.get(&[1, ids[1].0]).unwrap(), CellValue::Null);
    assert_eq!(r.get(&[0, ids[0].0]).unwrap(), CellValue::Num(8.0));
    assert_eq!(r.get(&[2, ids[0].0]).unwrap(), CellValue::Num(8.0));
}

#[test]
fn dynamic_semantics_rejected_on_unordered_parameter() {
    let (cube, org, _) = location_varying();
    for sem in [
        Semantics::Forward,
        Semantics::ExtendedForward,
        Semantics::Backward,
        Semantics::ExtendedBackward,
    ] {
        let scenario = Scenario::negative(org, [0], sem, Mode::Visual);
        assert!(
            matches!(
                apply_default(&cube, &scenario),
                Err(whatif_core::WhatIfError::UnorderedParameter { .. })
            ),
            "{sem:?} must require an ordered parameter"
        );
    }
}

#[test]
fn s2_as_positive_change_over_location() {
    // The hypothetical version of S2, before any real change exists: take
    // an all-FTE Lisa and assume she is PTE from MA "onward" (ordinal
    // order of locations stands in for the change's extent; for a purely
    // unordered assignment use Schema::set_parent_at as above).
    let mut schema = Schema::new();
    let location = schema.add_dimension("Location");
    for l in ["NY", "MA", "CA"] {
        schema.dim_mut(location).add_child_of_root(l).unwrap();
    }
    let org = schema.add_dimension("Organization");
    let fte = schema.dim_mut(org).add_child_of_root("FTE").unwrap();
    let lisa = schema.dim_mut(org).add_member("Lisa", fte).unwrap();
    let pte = schema.dim_mut(org).add_child_of_root("PTE").unwrap();
    schema.dim_mut(org).add_member("Tom", pte).unwrap();
    schema.make_varying(org, location).unwrap();
    schema.seal();
    let schema = Arc::new(schema);
    let mut b = Cube::builder(Arc::clone(&schema), vec![3, 2]).unwrap();
    for i in 0..schema.axis_len(org) {
        for l in 0..3 {
            b.set_num(&[l, i], 8.0).unwrap();
        }
    }
    let cube = b.finish().unwrap();
    let scenario = Scenario::positive(
        org,
        vec![Change {
            member: lisa,
            old_parent: Some(fte),
            new_parent: pte,
            at: 1,
        }],
        Mode::Visual,
    );
    let (r, _) = apply_default(&cube, &scenario).unwrap();
    let v2 = r.schema().varying(org).unwrap();
    let ids = v2.instances_of(lisa);
    assert_eq!(ids.len(), 2);
    // Hypothetical PTE/Lisa holds the MA and CA work.
    assert_eq!(r.get(&[1, ids[1].0]).unwrap(), CellValue::Num(8.0));
    assert_eq!(r.get(&[0, ids[1].0]).unwrap(), CellValue::Null);
    assert_eq!(r.total_sum().unwrap(), cube.total_sum().unwrap());
}

/// Two varying dimensions in one cube: Org varies over Time AND Product
/// varies over Time. Scenarios on each compose through the algebra.
fn two_varying() -> (Cube, DimensionId, DimensionId) {
    let mut schema = Schema::new();
    let time = schema.add_dimension("Time");
    for t in ["t0", "t1", "t2", "t3"] {
        schema.dim_mut(time).add_child_of_root(t).unwrap();
    }
    schema.dim_mut(time).set_ordered(true);

    let org = schema.add_dimension("Org");
    let a = schema.dim_mut(org).add_child_of_root("A").unwrap();
    let joe = schema.dim_mut(org).add_member("Joe", a).unwrap();
    let b_grp = schema.dim_mut(org).add_child_of_root("B").unwrap();
    schema.dim_mut(org).add_member("Sam", b_grp).unwrap();

    let product = schema.add_dimension("Product");
    let g1 = schema.dim_mut(product).add_child_of_root("G1").unwrap();
    let tv = schema.dim_mut(product).add_member("TV", g1).unwrap();
    let g2 = schema.dim_mut(product).add_child_of_root("G2").unwrap();
    schema.dim_mut(product).add_member("Radio", g2).unwrap();

    schema.make_varying(org, time).unwrap();
    schema.make_varying(product, time).unwrap();
    schema.reclassify(org, joe, b_grp, 2).unwrap();
    schema.reclassify(product, tv, g2, 1).unwrap();
    schema.seal();
    schema.validate().unwrap();
    let schema = Arc::new(schema);
    let mut b = Cube::builder(Arc::clone(&schema), vec![2, 2, 2]).unwrap();
    let vo = schema.varying(org).unwrap();
    let vp = schema.varying(product).unwrap();
    for (i, io) in vo.instances().iter().enumerate() {
        for (j, jp) in vp.instances().iter().enumerate() {
            for t in 0..4u32 {
                if io.validity.is_valid_at(t) && jp.validity.is_valid_at(t) {
                    b.set_num(&[t, i as u32, j as u32], 1.0).unwrap();
                }
            }
        }
    }
    (b.finish().unwrap(), org, product)
}

#[test]
fn two_varying_dimensions_coexist() {
    let (cube, org, product) = two_varying();
    let schema = cube.schema();
    assert!(schema.is_varying(org) && schema.is_varying(product));
    // Joe: 2 instances; TV: 2 instances; axis lengths reflect both.
    assert_eq!(schema.axis_len(org), 3);
    assert_eq!(schema.axis_len(product), 3);
    // Each (t) slice has exactly one valid (org-instance, product-
    // instance) pair per (member, member): 2 members × 2 members = 4.
    assert_eq!(cube.present_cell_count().unwrap(), 16);
}

#[test]
fn scenarios_on_both_varying_dims_compose() {
    let (cube, org, product) = two_varying();
    // Undo Joe's move (forward from t0 on Org), then undo TV's move
    // (forward from t0 on Product) — composed through the algebra.
    let expr = AlgebraExpr::Compose(vec![
        AlgebraExpr::PhiRelocate {
            spec: PerspectiveSpec::new(org, [0], Semantics::Forward, Mode::Visual),
        },
        AlgebraExpr::PhiRelocate {
            spec: PerspectiveSpec::new(product, [0], Semantics::Forward, Mode::Visual),
        },
    ]);
    // The chunked engine step by step, and the definitional oracle's
    // evaluation of the composed expression.
    let chunked = {
        let step = |c: &Cube, dim| {
            let s = Scenario::negative(dim, [0], Semantics::Forward, Mode::Visual);
            apply_default(c, &s).unwrap().0
        };
        step(&step(&cube, org), product)
    };
    let oracle::Evaluated::Cube(definitional) = oracle::eval(&cube, &expr) else {
        panic!("ρ∘Φ evaluates to a cube");
    };
    for (name, out) in [("chunked", &chunked), ("oracle", &definitional)] {
        // Everything flows back to the t0 structures: A/Joe × G1/TV cells
        // exist at every t.
        let schema = cube.schema();
        let vo = schema.varying(org).unwrap();
        let vp = schema.varying(product).unwrap();
        let joe = schema.dim(org).resolve("Joe").unwrap();
        let tv = schema.dim(product).resolve("TV").unwrap();
        let a_joe = vo.instances_of(joe)[0].0;
        let g1_tv = vp.instances_of(tv)[0].0;
        for t in 0..4u32 {
            assert_eq!(
                out.get(&[t, a_joe, g1_tv]).unwrap(),
                CellValue::Num(1.0),
                "{name} t={t}"
            );
        }
        // Totals conserved: both members existed at t0.
        assert_eq!(out.total_sum().unwrap(), cube.total_sum().unwrap());
        // The moved-away instances are empty.
        let b_joe = vo.instances_of(joe)[1].0;
        for t in 0..4u32 {
            for j in 0..3u32 {
                assert_eq!(out.get(&[t, b_joe, j]).unwrap(), CellValue::Null);
            }
        }
    }
    assert!(chunked.same_cells(&definitional).unwrap());
}

#[test]
fn order_of_composition_is_immaterial_for_independent_dims() {
    let (cube, org, product) = two_varying();
    let spec = |dim| PerspectiveSpec::new(dim, [1], Semantics::Forward, Mode::Visual);
    let forward = |c: &Cube, dim| {
        let (out, _) = apply_default(c, &Scenario::Negative(spec(dim))).unwrap();
        out
    };
    let ab = forward(&forward(&cube, org), product);
    let ba = forward(&forward(&cube, product), org);
    assert!(ab.same_cells(&ba).unwrap());
    // The definitional oracle, composed in both orders, agrees.
    let s1 = AlgebraExpr::PhiRelocate { spec: spec(org) };
    let s2 = AlgebraExpr::PhiRelocate {
        spec: spec(product),
    };
    for steps in [vec![s1.clone(), s2.clone()], vec![s2, s1]] {
        let oracle::Evaluated::Cube(want) = oracle::eval(&cube, &AlgebraExpr::Compose(steps))
        else {
            panic!("ρ∘Φ evaluates to a cube");
        };
        assert!(ab.same_cells(&want).unwrap());
    }
}
