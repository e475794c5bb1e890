//! Golden tests of the paper's worked examples (Figs. 2, 4, 5 and the
//! Section 3 prose) on the running example, end to end through the
//! public API.

use olap_cube::Sel;
use olap_mdx::{execute, QueryContext};
use olap_model::{InstanceId, MemberId};
use olap_store::CellValue;
use olap_workload::running_example;
use whatif_core::{
    apply, evaluator, phi, prune_vacancies, Change, ExecOpts, Mode, Scenario, Semantics,
};

/// Instance ids in the running example's axis order.
fn joe_instances(ex: &olap_workload::RunningExample) -> (u32, u32, u32) {
    let v = ex.schema.varying(ex.org).unwrap();
    let joe = ex.schema.dim(ex.org).resolve("Joe").unwrap();
    let ids = v.instances_of(joe);
    (ids[0].0, ids[1].0, ids[2].0)
}

fn ny_salary_cell(_ex: &olap_workload::RunningExample, inst: u32, t: u32) -> Vec<u32> {
    // Axis order: Organization, Location, Time, Measures; NY = slot 0,
    // Salary = slot 0.
    vec![inst, 0, t, 0]
}

#[test]
fn fig2_meaningless_combinations() {
    // "the combination (FTE/Joe, Feb) is meaningless as FTE/Joe is not
    // valid in Feb" — and May is Joe's vacation (no instance valid).
    let ex = running_example();
    let (fte_joe, pte_joe, contr_joe) = joe_instances(&ex);
    assert_eq!(
        ex.cube.get(&ny_salary_cell(&ex, fte_joe, 1)).unwrap(),
        CellValue::Null
    );
    assert_eq!(
        ex.cube.get(&ny_salary_cell(&ex, pte_joe, 0)).unwrap(),
        CellValue::Null
    );
    for inst in [fte_joe, pte_joe, contr_joe] {
        assert_eq!(
            ex.cube.get(&ny_salary_cell(&ex, inst, 4)).unwrap(),
            CellValue::Null
        );
    }
    // Valid combinations hold data.
    assert_eq!(
        ex.cube.get(&ny_salary_cell(&ex, fte_joe, 0)).unwrap(),
        CellValue::Num(10.0)
    );
}

#[test]
fn fig2_validity_sets() {
    // VS(FTE/Joe) = {Jan}, VS(PTE/Joe) = {Feb},
    // VS(Contractor/Joe) = {Mar, Apr, Jun}; VS(Lisa) = {Jan, …, Jun}.
    let ex = running_example();
    let v = ex.schema.varying(ex.org).unwrap();
    let (a, b, c) = joe_instances(&ex);
    assert_eq!(
        v.instance(InstanceId(a))
            .validity
            .iter()
            .collect::<Vec<_>>(),
        vec![0]
    );
    assert_eq!(
        v.instance(InstanceId(b))
            .validity
            .iter()
            .collect::<Vec<_>>(),
        vec![1]
    );
    assert_eq!(
        v.instance(InstanceId(c))
            .validity
            .iter()
            .collect::<Vec<_>>(),
        vec![2, 3, 5]
    );
    let lisa = ex.schema.dim(ex.org).resolve("Lisa").unwrap();
    let lisa_inst = v.instances_of(lisa)[0];
    assert_eq!(v.instance(lisa_inst).validity.len(), 6);
}

#[test]
fn fig4_forward_visual_inheritance() {
    // Fig. 4 (P = {Feb, Apr}, forward, visual): "The leaf cell
    // (PTE/Joe, Mar) has value (instead of ⊥), 'inherited' from the
    // corresponding cell (Contractor/Joe, Mar). Note that (PTE/Joe, Jan)
    // remains ⊥ since PTE/Joe was not valid in Jan in the input."
    let ex = running_example();
    let (fte_joe, pte_joe, contr_joe) = joe_instances(&ex);
    let scenario = Scenario::negative(ex.org, [1, 3], Semantics::Forward, Mode::Visual);
    let (r, _) = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
    assert_eq!(
        r.get(&ny_salary_cell(&ex, pte_joe, 2)).unwrap(),
        CellValue::Num(10.0),
        "(PTE/Joe, Mar) inherits Contractor/Joe's value"
    );
    assert_eq!(
        r.get(&ny_salary_cell(&ex, pte_joe, 0)).unwrap(),
        CellValue::Null,
        "(PTE/Joe, Jan) remains ⊥"
    );
    // FTE/Joe (valid at neither perspective) disappears entirely.
    for t in 0..6 {
        assert_eq!(
            r.get(&ny_salary_cell(&ex, fte_joe, t)).unwrap(),
            CellValue::Null
        );
    }
    // Contractor/Joe owns [Apr, ∞): Apr and Jun, ⊥ in May (vacation).
    assert_eq!(
        r.get(&ny_salary_cell(&ex, contr_joe, 3)).unwrap(),
        CellValue::Num(10.0)
    );
    assert_eq!(
        r.get(&ny_salary_cell(&ex, contr_joe, 4)).unwrap(),
        CellValue::Null
    );
    assert_eq!(
        r.get(&ny_salary_cell(&ex, contr_joe, 5)).unwrap(),
        CellValue::Num(10.0)
    );
}

#[test]
fn fig4_visual_quarter_totals() {
    // Visual mode recomputes quarter rollups on the perspective cube.
    let ex = running_example();
    let ctx = QueryContext::new(&ex.cube);
    let g = execute(
        &ctx,
        "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD VISUAL \
         SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, \
         {Organization.[FTE], Organization.[PTE], Organization.[Contractor]} ON ROWS \
         FROM [Warehouse] WHERE (Location.[NY], Measures.[Salary])",
    )
    .unwrap();
    // PTE Qtr1: Tom (Jan+Feb+Mar) + PTE/Joe (Feb own + Mar inherited).
    assert_eq!(g.cell("PTE", "Qtr1"), Some(CellValue::Num(50.0)));
    // FTE Qtr1: Lisa only — Joe's FTE instance is inactive.
    assert_eq!(g.cell("FTE", "Qtr1"), Some(CellValue::Num(30.0)));
    // Contractor Qtr2: Jane (30) + Joe (Apr, Jun).
    assert_eq!(g.cell("Contractor", "Qtr2"), Some(CellValue::Num(50.0)));
}

#[test]
fn nonvisual_keeps_input_aggregates() {
    // "If mode is non-visual, the cell values from the input cube are
    // retained" for derived cells.
    let ex = running_example();
    let ctx = QueryContext::new(&ex.cube);
    let g = execute(
        &ctx,
        "WITH PERSPECTIVE {(Feb), (Apr)} FOR Organization DYNAMIC FORWARD NONVISUAL \
         SELECT {Time.[Qtr1]} ON COLUMNS, {Organization.[PTE]} ON ROWS \
         FROM [Warehouse] WHERE (Location.[NY], Measures.[Salary])",
    )
    .unwrap();
    // Input PTE Qtr1: Tom 30 + PTE/Joe Feb 10.
    assert_eq!(g.cell("PTE", "Qtr1"), Some(CellValue::Num(40.0)));
}

#[test]
fn fig5_positive_split() {
    // Fig. 5's shape via WITH CHANGES: a member hypothetically
    // reclassified in April gets "before" and "after" instances whose
    // cells partition at the change moment.
    let ex = running_example();
    let d = ex.schema.dim(ex.org);
    let lisa = d.resolve("Lisa").unwrap();
    let fte = d.resolve("FTE").unwrap();
    let pte = d.resolve("PTE").unwrap();
    let scenario = Scenario::positive(
        ex.org,
        vec![Change {
            member: lisa,
            old_parent: Some(fte),
            new_parent: pte,
            at: 3,
        }],
        Mode::Visual,
    );
    let (r, _) = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
    let v2 = r.schema().varying(ex.org).unwrap();
    let ids = v2.instances_of(lisa);
    assert_eq!(ids.len(), 2);
    assert_eq!(
        v2.instance(ids[0]).validity.iter().collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    assert_eq!(
        v2.instance(ids[1]).validity.iter().collect::<Vec<_>>(),
        vec![3, 4, 5]
    );
    // FTE/Lisa ⊥ for τ ≥ Apr; PTE/Lisa ⊥ for τ < Apr.
    assert_eq!(r.get(&[ids[0].0, 0, 3, 0]).unwrap(), CellValue::Null);
    assert_eq!(r.get(&[ids[0].0, 0, 2, 0]).unwrap(), CellValue::Num(10.0));
    assert_eq!(r.get(&[ids[1].0, 0, 2, 0]).unwrap(), CellValue::Null);
    assert_eq!(r.get(&[ids[1].0, 0, 3, 0]).unwrap(), CellValue::Num(10.0));
    // Values are conserved across the split.
    assert_eq!(r.total_sum().unwrap(), ex.cube.total_sum().unwrap());
}

#[test]
fn s1_scenario_tom_contractor_then_fte() {
    // S1: "What if Tom became a contractor from March onward and became
    // an FTE [later] onward?" (scaled to the 6-month example: Jun).
    let ex = running_example();
    let d = ex.schema.dim(ex.org);
    let tom = d.resolve("Tom").unwrap();
    let contractor = d.resolve("Contractor").unwrap();
    let fte = d.resolve("FTE").unwrap();
    let scenario = Scenario::positive(
        ex.org,
        vec![
            Change {
                member: tom,
                old_parent: None,
                new_parent: contractor,
                at: 2,
            },
            Change {
                member: tom,
                old_parent: None,
                new_parent: fte,
                at: 5,
            },
        ],
        Mode::Visual,
    );
    let (r, _) = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
    let v2 = r.schema().varying(ex.org).unwrap();
    let names: Vec<String> = v2
        .instances_of(tom)
        .iter()
        .map(|&i| v2.instance_name(r.schema().dim(ex.org), i))
        .collect();
    assert_eq!(names, vec!["PTE/Tom", "Contractor/Tom", "FTE/Tom"]);
    // Visual impact on salary allocation: Contractor June total excludes
    // Tom again.
    let contractor_jun = evaluator(&ex.cube, &scenario, &r)
        .value(&[
            Sel::Member(contractor),
            Sel::Member(ex.schema.dim(ex.location).resolve("NY").unwrap()),
            Sel::Member(ex.schema.dim(ex.time).resolve("Jun").unwrap()),
            Sel::Member(ex.schema.dim(ex.measures).resolve("Salary").unwrap()),
        ])
        .unwrap();
    // Jane 10 + Joe 10 (Contractor in Jun) — Tom back to FTE.
    assert_eq!(contractor_jun, CellValue::Num(20.0));
}

#[test]
fn s3_static_structure_continuation() {
    // S3: "what-if whatever structure existed in January continued until
    // April and then the structure in April continued through rest of the
    // year?" — forward semantics with P = {Jan, Apr}.
    let ex = running_example();
    let v = ex.schema.varying(ex.org).unwrap();
    let mut vs = phi(Semantics::Forward, v.instances(), &[0, 3], 6);
    prune_vacancies(&mut vs, v.instances(), 6);
    let (fte_joe, pte_joe, contr_joe) = joe_instances(&ex);
    // Joe was FTE in January: FTE/Joe owns [Jan, Apr).
    assert_eq!(
        vs[fte_joe as usize].iter().collect::<Vec<_>>(),
        vec![0, 1, 2]
    );
    // In April he was a Contractor: Contractor/Joe owns [Apr, ∞) minus
    // the May vacancy.
    assert_eq!(
        vs[contr_joe as usize].iter().collect::<Vec<_>>(),
        vec![3, 5]
    );
    assert!(vs[pte_joe as usize].is_empty());
}

#[test]
fn backward_semantics_through_mdx() {
    // DYNAMIC BACKWARD with P = {Apr}: the structure at Apr (Joe =
    // Contractor) is imposed on the *past* back to the previous
    // perspective (none ⇒ everything), keeping its own later history.
    let ex = running_example();
    let ctx = QueryContext::new(&ex.cube);
    let g = execute(
        &ctx,
        "WITH PERSPECTIVE {(Apr)} FOR Organization DYNAMIC BACKWARD VISUAL \
         SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, \
         {Organization.[FTE], Organization.[PTE], Organization.[Contractor]} ON ROWS \
         FROM [Warehouse] WHERE (Location.[NY], Measures.[Salary])",
    )
    .unwrap();
    // Contractor Qtr1: Jane 30 + Joe's Jan/Feb/Mar pulled onto
    // Contractor/Joe = 30 ⇒ 60.
    assert_eq!(g.cell("Contractor", "Qtr1"), Some(CellValue::Num(60.0)));
    // FTE Qtr1: Lisa only (Joe's FTE history re-homed).
    assert_eq!(g.cell("FTE", "Qtr1"), Some(CellValue::Num(30.0)));
    // Contractor Qtr2: Jane 30 + Joe Apr & Jun (own post-history kept).
    assert_eq!(g.cell("Contractor", "Qtr2"), Some(CellValue::Num(50.0)));
}

#[test]
fn extended_forward_backfills_through_mdx() {
    // EXTENDED FORWARD from Apr assigns Joe's pre-April history to
    // Contractor/Joe as well.
    let ex = running_example();
    let ctx = QueryContext::new(&ex.cube);
    let g = execute(
        &ctx,
        "WITH PERSPECTIVE {(Apr)} FOR Organization DYNAMIC EXTENDED FORWARD VISUAL \
         SELECT {Time.[Qtr1], Time.[Qtr2]} ON COLUMNS, \
         {Organization.[Contractor]} ON ROWS \
         FROM [Warehouse] WHERE (Location.[NY], Measures.[Salary])",
    )
    .unwrap();
    assert_eq!(g.cell("Contractor", "Qtr1"), Some(CellValue::Num(60.0)));
    assert_eq!(g.cell("Contractor", "Qtr2"), Some(CellValue::Num(50.0)));
}

#[test]
fn backward_mirrors_forward_on_mirrored_input() {
    // The paper: backward "is symmetric to the forward, except members of
    // I are ordered in descending order".
    let ex = running_example();
    let v = ex.schema.varying(ex.org).unwrap();
    let fwd = phi(Semantics::Forward, v.instances(), &[1], 6);
    let bwd = phi(Semantics::Backward, v.instances(), &[4], 6);
    // Spot-check symmetry on Lisa (full validity): forward from Feb keeps
    // everything; backward from May keeps everything.
    let lisa = ex.schema.dim(ex.org).resolve("Lisa").unwrap();
    let li = v.instances_of(lisa)[0].0 as usize;
    assert_eq!(fwd[li].len(), 6);
    assert_eq!(bwd[li].len(), 6);
    let _ = MemberId::ROOT;
}
