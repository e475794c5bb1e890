//! Theorem 4.1 at the integration level: every extended-MDX what-if query
//! equals its compiled algebra expression applied to the core query's
//! result — across semantics, modes, scenario kinds, and datasets. The
//! chunked engine ([`apply`]) meets the definitional oracle's evaluation
//! of [`compile`]'s ρ∘Φ or S ([`oracle::eval`]).

use olap_cube::{CellEvaluator, Cube, Sel};
use olap_model::DimensionId;
use olap_workload::{retail_example, running_example};
use whatif_core::{apply, compile, AlgebraExpr, Change, ExecOpts, Mode, Scenario};
use whatif_integration_tests::all_semantics;
use whatif_integration_tests::oracle::{self, split_cells, Evaluated};

/// Whether `compile(scenario)` ends in the E marker of `mode`.
fn evaluates_in(scenario: &Scenario, mode: Mode) -> bool {
    let visual = mode == Mode::Visual;
    matches!(compile(scenario), AlgebraExpr::Compose(steps)
        if steps.last() == Some(&AlgebraExpr::Eval { visual }))
}

#[test]
fn theorem_4_1_negative_all_semantics_and_modes() {
    let ex = running_example();
    for sem in all_semantics() {
        for mode in [Mode::Visual, Mode::NonVisual] {
            for p in [vec![0u32], vec![1, 3], vec![0, 2, 5]] {
                let scenario = Scenario::negative(ex.org, p.clone(), sem, mode);
                let (chunked, _) = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
                let Evaluated::Cube(algebra) = oracle::eval(&ex.cube, &compile(&scenario)) else {
                    panic!("ρ∘Φ evaluates to a cube");
                };
                let want = oracle::perspective_cube(&ex.cube, ex.org, sem, &p);
                let row = format!("{sem:?} {mode:?} P={p:?}");
                assert!(
                    algebra.same_cells(&want).unwrap(),
                    "compiled ρ∘Φ vs oracle: {row}"
                );
                assert!(
                    chunked.same_cells(&algebra).unwrap(),
                    "apply vs oracle: {row}"
                );
                assert!(evaluates_in(&scenario, mode), "{row}");
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

/// Positive scenarios: the engine's `apply` against the oracle's
/// evaluation of the compiled `S`, which is its split by definition.
/// The relations hold
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
                let (chunked, _) = apply(cube, &scenario, None, &ExecOpts::default()).unwrap();
                let Evaluated::Paths(algebra) = oracle::eval(cube, &compile(&scenario)) else {
                    panic!("S evaluates to path-keyed cells");
                };
                let row = format!("{mode:?} R={r:?}");
                assert!(algebra == want, "S vs oracle: {row}");
                assert!(split_cells(&chunked, dim) == want, "apply vs oracle: {row}");
                assert!(evaluates_in(&scenario, mode), "{row}");
            }
            wants.push(want);
        }
        assert_eq!(wants[0] != wants[1], order_matters, "{wants:?}");
    }
}

/// σ commutes with ρ∘Φ for a member predicate, because ρ moves cells
/// only between instances of one member: σ(`apply`(C)) =
/// `apply`(σ(C)), and both equal the oracle's, for every semantics.
#[test]
fn operators_compose_in_any_useful_order() {
    let ex = running_example();
    let d = ex.schema.dim(ex.org);
    for name in ["Joe", "Lisa"] {
        let member = d.resolve(name).unwrap();
        let sigma = |c: &Cube| oracle::select(c, ex.org, |m, _, _| m == member);
        let selected = sigma(&ex.cube);
        for sem in all_semantics() {
            for p in [vec![0u32], vec![1, 3], vec![0, 2, 5]] {
                let scenario = Scenario::negative(ex.org, p.clone(), sem, Mode::Visual);
                let run = |c: &Cube| {
                    let (out, _) = apply(c, &scenario, None, &ExecOpts::default()).unwrap();
                    out
                };
                let phi_then_select = sigma(&run(&ex.cube));
                let select_then_phi = run(&selected);
                let want = sigma(&oracle::perspective_cube(&ex.cube, ex.org, sem, &p));
                let row = format!("{name} {sem:?} P={p:?}");
                assert!(phi_then_select.same_cells(&want).unwrap(), "σ∘apply: {row}");
                assert!(select_then_phi.same_cells(&want).unwrap(), "apply∘σ: {row}");
                let definitional = oracle::perspective_cube(&selected, ex.org, sem, &p);
                assert!(definitional.same_cells(&want).unwrap(), "oracle: {row}");
            }
        }
        assert!(selected.total_sum().unwrap() > 0.0, "{name} has cells");
        assert!(selected.total_sum().unwrap() < ex.cube.total_sum().unwrap());
    }
}

#[test]
fn split_then_perspective_s2_style() {
    // A composite scenario: hypothetically reclassify (split), then
    // apply a perspective to the hypothetical history — a positive
    // `apply`, then a negative one on the grown cube.
    let ex = running_example();
    let d = ex.schema.dim(ex.org);
    let lisa = d.resolve("Lisa").unwrap();
    let pte = d.resolve("PTE").unwrap();
    let split = Scenario::positive(
        ex.org,
        vec![Change {
            member: lisa,
            old_parent: None,
            new_parent: pte,
            at: 2,
        }],
        Mode::Visual,
    );
    let (grown, _) = apply(&ex.cube, &split, None, &ExecOpts::default()).unwrap();
    let forward = Scenario::negative(ex.org, [0], whatif_core::Semantics::Forward, Mode::Visual);
    let (out, _) = apply(&grown, &forward, None, &ExecOpts::default()).unwrap();
    // Forward from Jan undoes the hypothetical change again: Lisa's value
    // flows back to FTE/Lisa. Total is conserved through both steps.
    assert_eq!(out.total_sum().unwrap(), ex.cube.total_sum().unwrap());
    let v2 = out.schema().varying(ex.org).unwrap();
    let ids = v2.instances_of(lisa);
    assert_eq!(ids.len(), 2, "split created the hypothetical instance");
    // All of Lisa's cells sit on the FTE instance after the perspective.
    let fte_cells: f64 = (0..6)
        .map(|t| out.get(&[ids[0].0, 0, t, 0]).unwrap().or_zero())
        .sum();
    assert_eq!(fte_cells, 60.0);
    let definitional =
        oracle::perspective_cube(&grown, ex.org, whatif_core::Semantics::Forward, &[0]);
    assert!(out.same_cells(&definitional).unwrap());
}

#[test]
fn value_predicate_selection_example() {
    // Section 4.1: σ retains "those products which had a sales over
    // $1000 in Jan" — which users ask as MDX's Filter: over the members
    // of family 100, and over every instance slot spelled by its path.
    let r = retail_example(4);
    let ctx = olap_mdx::QueryContext::new(&r.cube);
    let time = r.schema.resolve_dimension("Time").unwrap();
    let jan = r.schema.dim(time).resolve("Jan").unwrap();
    let measures = r.schema.resolve_dimension("Measures").unwrap();
    let sales = r.schema.dim(measures).resolve("Sales").unwrap();
    let d = r.schema.dim(r.product);
    let varying = r.schema.varying(r.product).unwrap();
    let family = d.children(d.resolve("100").unwrap());
    let members = (family.iter()).map(|&m| (d.member_name(m).to_string(), Sel::Member(m)));
    let slots: Vec<(String, Sel)> = (0..varying.instance_count())
        .map(|s| {
            let label = varying.instance_name(d, olap_model::InstanceId(s));
            (label, Sel::Slot(s))
        })
        .collect();
    let paths = (varying.instances().iter()).map(|i| {
        format!(
            "Product.[{}].[{}]",
            d.member_name(i.parent()),
            d.member_name(i.member)
        )
    });
    let filter = |set: &str| {
        format!("SELECT {{Filter({{{set}}}, (Time.[Jan], Measures.[Sales]) > 1000)}} ON COLUMNS FROM [W]")
    };
    let cases = [
        (filter("Product.[100].Children"), members.collect()),
        (filter(&paths.collect::<Vec<_>>().join(", ")), slots),
    ];
    // Verify against direct evaluation.
    let ev = CellEvaluator::new(&r.cube);
    let root = Sel::Member(olap_model::MemberId::ROOT);
    let mut rejected = 0;
    for (query, candidates) in cases {
        let grid = olap_mdx::execute(&ctx, &query).unwrap();
        let mut kept = Vec::new();
        for (label, sel) in candidates {
            let v = ev.value(&[sel, root, Sel::Member(jan), Sel::Member(sales)]);
            if v.unwrap().as_f64().is_some_and(|x| x > 1000.0) {
                kept.push(label);
            } else {
                rejected += 1;
            }
        }
        assert_eq!(grid.columns, kept, "{query}");
    }
    assert!(rejected > 0, "some slot fails the predicate");
}
