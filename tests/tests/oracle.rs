//! The definitional oracle (`whatif_integration_tests::oracle`) against
//! the paper's worked examples and against Φ, and — the load-bearing
//! part — the chunked executor against the oracle: negative plans over
//! every read order, pass layout, scope and cache phase, positive ones
//! (S onto a grown axis) over random change lists and cache phases.

use olap_cube::{Cube, Sel};
use olap_mdx::{evaluate_with, parse, QueryContext};
use olap_model::{DimensionId, DimensionSpec, SchemaBuilder};
use olap_store::CellValue;
use olap_workload::{retail_example, running_example};
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;
use whatif_core::{
    apply, evaluator, execute, phi, Change, ExecOpts, Mode, OrderPolicy, PerspectiveSpec, Plan,
    Scenario, ScenarioCache, Semantics,
};
use whatif_integration_tests::oracle::{self, agrees_on_scope};
use whatif_integration_tests::{
    all_semantics, oracle_result, random_warehouse, whole_component_chunks,
};

/// The running example's Joe instances (FTE, PTE, Contractor) under the
/// oracle's Φ for `semantics` and `p`.
fn joe_phi(semantics: Semantics, p: &[u32]) -> [Vec<u32>; 3] {
    let ex = running_example();
    let (instances, moments) = oracle::instances(&ex.cube, ex.org);
    let p: BTreeSet<u32> = p.iter().copied().collect();
    let out = oracle::phi(semantics, &instances, &p, moments);
    let joe = ex.schema.dim(ex.org).resolve("Joe").unwrap();
    let ids = ex.schema.varying(ex.org).unwrap().instances_of(joe);
    [0, 1, 2].map(|k| out[ids[k].index()].iter().copied().collect())
}

/// Φ on the paper's examples (Section 3, Figs. 2 and 4, scenario S3):
/// Joe is FTE in Jan, PTE in Feb, Contractor in Mar, Apr and Jun.
#[test]
fn oracle_phi_reproduces_the_papers_examples() {
    let none: Vec<u32> = vec![];
    use Semantics::*;
    // Static, P = {Jan}: only FTE/Joe survives, with its own set.
    assert_eq!(joe_phi(Static, &[0]), [vec![0], none.clone(), none.clone()]);
    // Fig. 4, forward, P = {Feb, Apr}: PTE/Joe owns [Feb, Apr) and
    // Contractor/Joe [Apr, ∞); FTE/Joe, valid at neither, vanishes.
    assert_eq!(
        joe_phi(Forward, &[1, 3]),
        [none.clone(), vec![1, 2], vec![3, 4, 5]]
    );
    // S3, forward, P = {Jan, Apr}.
    assert_eq!(
        joe_phi(Forward, &[0, 3]),
        [vec![0, 1, 2], none.clone(), vec![3, 4, 5]]
    );
    // Forward, P = {Apr}: Contractor/Joe keeps its own March; FTE/Joe and
    // PTE/Joe are inactive and keep nothing, their history included.
    assert_eq!(
        joe_phi(Forward, &[3]),
        [none.clone(), none.clone(), vec![2, 3, 4, 5]]
    );
    // Extended forward, P = {Apr}: Contractor/Joe takes Jan–Mar too.
    assert_eq!(
        joe_phi(ExtendedForward, &[3]),
        [none.clone(), none.clone(), vec![0, 1, 2, 3, 4, 5]]
    );
    // Backward, P = {Apr}: Contractor/Joe owns (-∞, Apr] and keeps its
    // own June.
    assert_eq!(
        joe_phi(Backward, &[3]),
        [none.clone(), none.clone(), vec![0, 1, 2, 3, 5]]
    );
    // Extended backward, P = {Feb}: PTE/Joe owns every moment.
    assert_eq!(
        joe_phi(ExtendedBackward, &[1]),
        [none.clone(), vec![0, 1, 2, 3, 4, 5], none]
    );
}

/// The paper's grids (Fig. 4's visual quarter totals, the non-visual
/// retention, backward and extended forward) rendered over the oracle's
/// leaves: the numbers `semantics_golden.rs` pins for the engine.
#[test]
fn oracle_grids_reproduce_the_semantics_goldens() {
    let ex = running_example();
    let ctx = QueryContext::new(&ex.cube);
    let rows = "{Organization.[FTE], Organization.[PTE], Organization.[Contractor]} ON ROWS \
                FROM [Warehouse] WHERE (Location.[NY], Measures.[Salary])";
    let cols = "SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS,";
    let cases = [
        (
            "{(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL",
            [
                ("PTE", "Qtr1", 50.0),
                ("FTE", "Qtr1", 30.0),
                ("Contractor", "Qtr2", 50.0),
            ],
        ),
        (
            "{(Feb), (Apr)} FOR Organization DYNAMIC FORWARD NONVISUAL",
            [
                ("PTE", "Qtr1", 40.0),
                ("FTE", "Qtr1", 40.0),
                ("Contractor", "Qtr2", 50.0),
            ],
        ),
        (
            "{(Apr)} FOR Organization DYNAMIC BACKWARD VISUAL",
            [
                ("Contractor", "Qtr1", 60.0),
                ("FTE", "Qtr1", 30.0),
                ("Contractor", "Qtr2", 50.0),
            ],
        ),
        (
            "{(Apr)} FOR Organization DYNAMIC EXTENDED FORWARD VISUAL",
            [
                ("Contractor", "Qtr1", 60.0),
                ("FTE", "Qtr1", 30.0),
                ("Contractor", "Qtr2", 50.0),
            ],
        ),
    ];
    for (clause, cells) in cases {
        let query = parse(&format!("WITH PERSPECTIVE {clause} {cols} {rows}")).unwrap();
        let grid = evaluate_with(&ctx, &query, |s, _| Ok(oracle_result(&ex.cube, s)))
            .unwrap()
            .grid;
        for (row, col, want) in cells {
            assert_eq!(
                grid.cell(row, col),
                Some(CellValue::Num(want)),
                "{clause}: {row} {col}"
            );
        }
    }
    // Rows a Filter decides on the input before the scenario runs: in
    // Feb only PTE (Tom 10 + PTE/Joe 10) tops 15, and forward from
    // {Feb, Apr} gives it Joe's Feb and Mar in Qtr1 and Tom alone in Qtr2.
    let query = parse(&format!(
        "WITH PERSPECTIVE {{(Feb), (Apr)}} FOR Organization DYNAMIC FORWARD VISUAL {cols} \
         {{Filter({{Organization.[FTE], Organization.[PTE], Organization.[Contractor]}}, \
                  (Time.[Feb], Location.[NY], Measures.[Salary]) > 15)}} ON ROWS \
         FROM [Warehouse] WHERE (Location.[NY], Measures.[Salary])"
    ))
    .unwrap();
    let grid = evaluate_with(&ctx, &query, |s, _| Ok(oracle_result(&ex.cube, s)))
        .unwrap()
        .grid;
    assert_eq!(grid.rows, vec!["PTE"]);
    assert_eq!(
        grid.cells[0],
        vec![CellValue::Num(50.0), CellValue::Num(30.0)]
    );
}

fn arb_perspectives(moments: u32) -> impl Strategy<Value = Vec<u32>> {
    proptest::collection::btree_set(0..moments, 1..=4).prop_map(|s| s.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The oracle's Φ and the engine's `phi` agree on every instance of
    /// random warehouses, under all five semantics.
    #[test]
    fn oracle_phi_agrees_with_phi(seed in 0u64..200, p in arb_perspectives(8)) {
        let w = random_warehouse(seed, 3, 8, 8, 4);
        let v = w.schema.varying(w.dim).unwrap();
        let (instances, moments) = oracle::instances(&w.cube, w.dim);
        let set: BTreeSet<u32> = p.iter().copied().collect();
        for sem in all_semantics() {
            let want = oracle::phi(sem, &instances, &set, moments);
            let got = phi(sem, v.instances(), &p, moments);
            for (i, (g, w)) in got.iter().zip(&want).enumerate() {
                prop_assert_eq!(&g.iter().collect::<BTreeSet<u32>>(), w, "{:?} P={:?} instance {}", sem, p, i);
            }
        }
    }
}

/// S on the paper's example (Section 3.4, R = {(FTE/Lisa, FTE, PTE,
/// Apr)}): Lisa's cells before April stay under FTE, from April on they
/// sit under PTE, and every other cell keeps its path and value.
#[test]
fn oracle_split_reproduces_the_papers_example() {
    let ex = running_example();
    let d = ex.schema.dim(ex.org);
    let [lisa, fte, pte] = ["Lisa", "FTE", "PTE"].map(|n| d.resolve(n).unwrap());
    let r = [Change {
        member: lisa,
        old_parent: Some(fte),
        new_parent: pte,
        at: 3,
    }];
    let before = oracle::split_cells(&ex.cube, ex.org);
    let after = oracle::split(&ex.cube, ex.org, &r);
    assert_eq!(before.len(), after.len());
    // The moment's place among the coordinates once Organization's is gone.
    let t_at = ex.time.index() - usize::from(ex.time.index() > ex.org.index());
    let mut lisa_cells = [0, 0];
    for ((member, path, rest), v) in &after {
        if *member == lisa {
            let april_on = rest[t_at] >= 3;
            lisa_cells[usize::from(april_on)] += 1;
            let parent = if april_on { pte } else { fte };
            assert_eq!(path.as_deref(), Some(&[parent][..]), "{rest:?}");
        } else {
            assert_eq!(before.get(&(*member, path.clone(), rest.clone())), Some(v));
        }
    }
    assert!(lisa_cells[0] > 0 && lisa_cells[1] > 0, "{lisa_cells:?}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A positive `apply` holds exactly the oracle's cells on random
    /// warehouses under random change lists of one to five tuples over
    /// four of the eight members, so that many lists change a member more
    /// than once and some move a member back (the axis shrinks). Each
    /// list runs with the cache off, cold and warm (the warm run serves
    /// every component), and scoped to member `m0`'s output slots, where
    /// it must agree with the unscoped run.
    #[test]
    fn oracle_split_agrees_with_split(
        seed in 0u64..200,
        picks in proptest::collection::vec((0u32..4, 0u32..3, 0u32..8), 1..6),
    ) {
        let w = random_warehouse(seed, 3, 8, 8, 4);
        let d = w.schema.dim(w.dim);
        let changes: Vec<Change> = (picks.iter())
            .map(|&(m, g, at)| Change {
                member: d.resolve(&format!("m{m}")).unwrap(),
                old_parent: None,
                new_parent: d.resolve(&format!("g{g}")).unwrap(),
                at,
            })
            .collect();
        let want = oracle::split(&w.cube, w.dim, &changes);
        let scenario = Scenario::positive(w.dim, changes, Mode::Visual);
        let cache = Arc::new(ScenarioCache::with_capacity_mb(4));
        let mut unscoped = None;
        for (phase, cache) in [("off", None), ("cold", Some(cache.clone())), ("warm", Some(cache))] {
            let opts = ExecOpts { cache, ..ExecOpts::default() };
            let (out, report) = apply(&w.cube, &scenario, None, &opts).unwrap();
            let row = format!("seed {seed} R={picks:?} cache {phase}");
            prop_assert!(oracle::split_cells(&out, w.dim) == want, "{}", row);
            prop_assert_eq!(report.passes, 1, "{}", row);
            let served = report.cache_chunks_served > 0;
            prop_assert_eq!(served, phase == "warm" && report.graph_nodes > 0, "{}", row);
            unscoped = Some(out);
        }
        let unscoped = unscoped.expect("three phases ran");
        let m0 = unscoped.schema().dim(w.dim).resolve("m0").unwrap();
        let varying = unscoped.schema().varying(w.dim).unwrap();
        let slots: Vec<u32> = varying.instances_of(m0).iter().map(|i| i.0).collect();
        let (scoped, _) = apply(&w.cube, &scenario, Some(&slots), &ExecOpts::default()).unwrap();
        prop_assert!(
            agrees_on_scope(&scoped, &unscoped, w.dim, Some(&slots)),
            "seed {} R={:?} scoped to {:?}", seed, picks, slots
        );
    }
}

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

/// The one equivalence table over the one entry point: {single pass,
/// decomposed passes} × {unscoped, scoped} × cache {off, cold, warm} ×
/// {Pebbling, Naive, two DimOrders}, every combination checked against
/// the oracle on the slots the run is answerable for. A warm run serves
/// exactly the components its scope keeps whole.
fn check_equivalence(sem: Semantics, p: &[u32]) {
    let (cube, prod) = fixture();
    let want = oracle::perspective_cube(&cube, prod, sem, p);
    let varying = cube.schema().varying(prod).unwrap();
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
            let spec = PerspectiveSpec::new(prod, p.iter().copied(), sem, Mode::Visual);
            let decomposed = Plan::build(&cube, &spec, &policy, scope).unwrap();
            assert_eq!(decomposed.passes().len(), p.len());
            let map = decomposed.map().clone();
            let single = Plan::from_maps(
                &cube,
                prod,
                map.clone(),
                vec![map.clone()],
                policy.clone(),
                scope,
            )
            .unwrap();
            let whole = whole_component_chunks(&cube, prod, &map, scope);
            for (name, plan) in [("single", &single), ("decomposed", &decomposed)] {
                let cache = Arc::new(ScenarioCache::with_capacity_mb(4));
                let phases = [None, Some(cache.clone()), Some(cache)];
                for (k, cache) in phases.into_iter().enumerate() {
                    let phase = ["off", "cold", "warm"][k];
                    let opts = ExecOpts {
                        cache,
                        ..ExecOpts::default()
                    };
                    let (got, report) = execute(&cube, plan, &opts).unwrap();
                    let row = format!("{sem:?} P={p:?} {policy:?} {name} scope={scope:?} {phase}");
                    assert!(
                        agrees_on_scope(&got, &want, prod, scope),
                        "{row} diverged from the oracle (report: {report:?})"
                    );
                    assert_eq!(report.passes, plan.passes().len() as u64, "{row}");
                    let served = if phase == "warm" { whole } else { 0 };
                    assert_eq!(report.cache_chunks_served, served, "{row}");
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

/// Every selector of one dimension: each of its members (the root,
/// non-leaf and leaf members) and, on a varying dimension, each instance.
fn selectors(cube: &Cube, dim: DimensionId) -> Vec<Sel> {
    let schema = cube.schema();
    let instances = schema.varying(dim).map_or(0, |_| schema.axis_len(dim));
    let members = schema.dim(dim).member_ids().map(Sel::Member);
    members.chain((0..instances).map(Sel::Slot)).collect()
}

/// Calls `each` on every cell one selector per dimension addresses.
fn for_each_cell(per_dim: &[Vec<Sel>], cell: &mut Vec<Sel>, each: &mut impl FnMut(&[Sel])) {
    match per_dim.split_first() {
        None => each(cell),
        Some((sels, rest)) => {
            for &sel in sels {
                cell.push(sel);
                for_each_cell(rest, cell, each);
                cell.pop();
            }
        }
    }
}

/// The product's `E` (`CellEvaluator`, its mode picked by
/// `whatif_core::evaluator`) equals the definitional one bit for bit
/// over the oracle's leaves: all five semantics × visual / non-visual, on
/// the running example, the retail catalog (its formula rules, the scoped
/// `Market = East` one included) and random warehouses, at every cell
/// one selector per dimension addresses.
#[test]
fn product_e_matches_the_definitional_e() {
    let ex = running_example();
    let retail = retail_example(42);
    let mut inputs = vec![
        ("running".to_string(), ex.cube, ex.org, vec![1, 3]),
        (
            "retail".to_string(),
            retail.cube,
            retail.product,
            vec![2, 6],
        ),
    ];
    for seed in 0..3 {
        let w = random_warehouse(seed, 3, 8, 8, 4);
        inputs.push((format!("random seed {seed}"), w.cube, w.dim, vec![1, 5]));
    }
    for (name, cube, dim, p) in &inputs {
        let per_dim: Vec<Vec<Sel>> = (cube.schema().dim_ids())
            .map(|d| selectors(cube, d))
            .collect();
        let input = oracle::Leaves::of(cube);
        let mut modes_differ = false;
        for sem in all_semantics() {
            let leaves = oracle::perspective_cube(cube, *dim, sem, p);
            let output = oracle::Leaves::of(&leaves);
            let e = |mode| {
                evaluator(
                    cube,
                    &Scenario::negative(*dim, p.clone(), sem, mode),
                    &leaves,
                )
            };
            let (visual, non_visual) = (e(Mode::Visual), e(Mode::NonVisual));
            for_each_cell(&per_dim, &mut Vec::new(), &mut |sels| {
                let want = [true, false].map(|v| oracle::e(&input, &output, v, sels));
                let got = [&visual, &non_visual].map(|ev| ev.value(sels).unwrap().as_f64());
                assert_eq!(
                    got.map(|v| v.map(f64::to_bits)),
                    want.map(|v| v.map(f64::to_bits)),
                    "{name} {sem:?} at {sels:?}: [visual, non-visual]"
                );
                modes_differ |= want[0] != want[1];
            });
        }
        assert!(modes_differ, "{name}: some cell tells the modes apart");
    }
}
