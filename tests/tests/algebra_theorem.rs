//! Theorem 4.1 at the integration level: every extended-MDX what-if query
//! equals its compiled algebra expression applied to the core query's
//! result — across semantics, modes, scenario kinds, and datasets. Three
//! implementations meet: the chunked engine ([`apply`]), the algebra by
//! definition ([`run`] of [`compile`]'s ρ∘Φ or S) and the definitional
//! oracle.

use olap_cube::Cube;
use olap_model::DimensionId;
use olap_workload::{retail_example, running_example};
use whatif_core::{
    apply, compile, run, AlgebraExpr, Change, ExecOpts, Mode, PerspectiveSpec, Predicate, Scenario,
    Semantics,
};
use whatif_integration_tests::all_semantics;
use whatif_integration_tests::oracle::{self, split_cells};

#[test]
fn theorem_4_1_negative_all_semantics_and_modes() {
    let ex = running_example();
    for sem in all_semantics() {
        for mode in [Mode::Visual, Mode::NonVisual] {
            for p in [vec![0u32], vec![1, 3], vec![0, 2, 5]] {
                let scenario = Scenario::negative(ex.org, p.clone(), sem, mode);
                let chunked = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
                let algebra = run(&ex.cube, &compile(&scenario)).unwrap();
                let want = oracle::perspective_cube(&ex.cube, ex.org, sem, &p);
                let row = format!("{sem:?} {mode:?} P={p:?}");
                assert!(
                    algebra.cube.same_cells(&want).unwrap(),
                    "ρ∘Φ vs oracle: {row}"
                );
                assert!(
                    chunked.cube.same_cells(&want).unwrap(),
                    "apply vs oracle: {row}"
                );
                assert_eq!(algebra.mode, Some(mode));
            }
        }
    }
}

/// `(member, new parent, moment)` by name, as `.change` takes them.
fn changes(cube: &Cube, dim: DimensionId, list: &[(&str, &str, u32)]) -> Vec<Change> {
    let d = cube.schema().dim(dim);
    (list.iter())
        .map(|&(m, n, at)| Change {
            member: d.resolve(m).unwrap(),
            old_parent: None,
            new_parent: d.resolve(n).unwrap(),
            at,
        })
        .collect()
}

/// Positive scenarios, three ways: the engine's `apply`, `run` of the
/// compiled `S` and the oracle's split by definition. The relations hold
/// one change, two changes of two members, and two changes of one member
/// (where list order decides the cube), each in both orders, on the
/// running example and on retail, visual and non-visual.
#[test]
fn theorem_4_1_positive_on_retail() {
    let ex = running_example();
    let r = retail_example(9);
    let d = r.schema.dim(r.product);
    let claimed = Change {
        member: d.resolve("1002").unwrap(),
        old_parent: Some(d.resolve("100").unwrap()),
        new_parent: d.resolve("200").unwrap(),
        at: 3,
    };
    let joe_twice = [("Joe", "Contractor", 4), ("Joe", "FTE", 1)];
    // (cube, dimension, R, whether R's two orders split differently)
    let relations: Vec<(&Cube, DimensionId, Vec<Change>, bool)> = vec![
        (
            &ex.cube,
            ex.org,
            changes(&ex.cube, ex.org, &[("Lisa", "PTE", 3)]),
            false,
        ),
        (
            &ex.cube,
            ex.org,
            changes(
                &ex.cube,
                ex.org,
                &[("Lisa", "PTE", 2), ("Tom", "Contractor", 4)],
            ),
            false,
        ),
        (
            &ex.cube,
            ex.org,
            changes(&ex.cube, ex.org, &joe_twice),
            true,
        ),
        (&r.cube, r.product, vec![claimed], false),
        (
            &r.cube,
            r.product,
            changes(
                &r.cube,
                r.product,
                &[("1002", "200", 3), ("2001", "100", 1)],
            ),
            false,
        ),
        (
            &r.cube,
            r.product,
            changes(
                &r.cube,
                r.product,
                &[("1002", "200", 2), ("1002", "300", 5)],
            ),
            true,
        ),
    ];
    for (cube, dim, list, order_matters) in relations {
        let mut reversed = list.clone();
        reversed.reverse();
        let mut wants = Vec::new();
        for r in [list, reversed] {
            let want = oracle::split(cube, dim, &r);
            assert_ne!(want, split_cells(cube, dim), "R moves cells: {r:?}");
            for mode in [Mode::Visual, Mode::NonVisual] {
                let scenario = Scenario::positive(dim, r.clone(), mode);
                let chunked = apply(cube, &scenario, None, &ExecOpts::default()).unwrap();
                let algebra = run(cube, &compile(&scenario)).unwrap();
                let row = format!("{mode:?} R={r:?}");
                let (s, a) = (
                    split_cells(&algebra.cube, dim),
                    split_cells(&chunked.cube, dim),
                );
                assert!(s == want, "S vs oracle: {row}");
                assert!(a == want, "apply vs oracle: {row}");
                assert!(algebra.cube.same_cells(&chunked.cube).unwrap(), "{row}");
                assert_eq!(
                    algebra.cube.schema().shape(),
                    chunked.cube.schema().shape(),
                    "{row}"
                );
                assert_eq!(algebra.mode, Some(mode));
            }
            wants.push(want);
        }
        assert_eq!(wants[0] != wants[1], order_matters, "{wants:?}");
    }
}

#[test]
fn operators_compose_in_any_useful_order() {
    // σ before Φρ equals Φρ before σ when the predicate is structural
    // (member-based selection commutes with relocation *within* the
    // member's instances).
    let ex = running_example();
    let joe = ex.schema.dim(ex.org).resolve("Joe").unwrap();
    let spec = PerspectiveSpec::new(ex.org, [1], Semantics::Forward, Mode::Visual);
    let select_then_phi = AlgebraExpr::Compose(vec![
        AlgebraExpr::Select {
            dim: ex.org,
            pred: Predicate::MemberIs(joe),
        },
        AlgebraExpr::PhiRelocate { spec: spec.clone() },
    ]);
    let phi_then_select = AlgebraExpr::Compose(vec![
        AlgebraExpr::PhiRelocate { spec },
        AlgebraExpr::Select {
            dim: ex.org,
            pred: Predicate::MemberIs(joe),
        },
    ]);
    let a = run(&ex.cube, &select_then_phi).unwrap();
    let b = run(&ex.cube, &phi_then_select).unwrap();
    assert!(a.cube.same_cells(&b.cube).unwrap());
    assert!(a.cube.total_sum().unwrap() > 0.0);
}

#[test]
fn split_then_perspective_s2_style() {
    // A composite scenario: hypothetically reclassify (split), then
    // apply a perspective to the hypothetical history.
    let ex = running_example();
    let d = ex.schema.dim(ex.org);
    let lisa = d.resolve("Lisa").unwrap();
    let pte = d.resolve("PTE").unwrap();
    let expr = AlgebraExpr::Compose(vec![
        AlgebraExpr::Split {
            dim: ex.org,
            changes: vec![Change {
                member: lisa,
                old_parent: None,
                new_parent: pte,
                at: 2,
            }],
        },
        AlgebraExpr::PhiRelocate {
            spec: PerspectiveSpec::new(ex.org, [0], Semantics::Forward, Mode::Visual),
        },
    ]);
    let out = run(&ex.cube, &expr).unwrap();
    // Forward from Jan undoes the hypothetical change again: Lisa's value
    // flows back to FTE/Lisa. Total is conserved through both steps.
    assert_eq!(out.cube.total_sum().unwrap(), ex.cube.total_sum().unwrap());
    let v2 = out.cube.schema().varying(ex.org).unwrap();
    let ids = v2.instances_of(lisa);
    assert_eq!(ids.len(), 2, "split created the hypothetical instance");
    // All of Lisa's cells sit on the FTE instance after the perspective.
    let fte_cells: f64 = (0..6)
        .map(|t| out.cube.get(&[ids[0].0, 0, t, 0]).unwrap().or_zero())
        .sum();
    assert_eq!(fte_cells, 60.0);
}

#[test]
fn value_predicate_selection_example() {
    // Section 4.1: σ retains "those products which had a sales over
    // $1000 in Jan".
    let r = retail_example(4);
    let time = r.schema.resolve_dimension("Time").unwrap();
    let jan = r.schema.dim(time).resolve("Jan").unwrap();
    let measures = r.schema.resolve_dimension("Measures").unwrap();
    let sales = r.schema.dim(measures).resolve("Sales").unwrap();
    let pred = Predicate::ValueCmp {
        fixed: vec![(time, jan), (measures, sales)],
        op: whatif_core::CmpOp::Gt,
        threshold: 1000.0,
    };
    let kept = whatif_core::operators::select::matching_slots(&r.cube, r.product, &pred).unwrap();
    // Verify against direct evaluation.
    let ev = olap_cube::CellEvaluator::new(&r.cube);
    for slot in 0..r.schema.axis_len(r.product) {
        let v = ev
            .value(&[
                olap_cube::Sel::Slot(slot),
                olap_cube::Sel::Member(olap_model::MemberId::ROOT),
                olap_cube::Sel::Member(jan),
                olap_cube::Sel::Member(sales),
            ])
            .unwrap();
        let expect = v.as_f64().map(|x| x > 1000.0).unwrap_or(false);
        assert_eq!(kept.contains(&slot), expect, "slot {slot}");
    }
}
