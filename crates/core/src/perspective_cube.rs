//! The perspective cube: the result of a what-if query (Section 5).
//!
//! "We call the result of any of the what-if queries we discussed in this
//! paper a perspective cube." [`apply`] computes it for either scenario
//! kind through the one chunked executor: a negative scenario is ρ∘Φ
//! onto the input's axis, a positive one S as ρ onto a grown axis. The
//! result is a plain [`Cube`]; [`evaluator`] answers its cells under the
//! scenario's **mode**: visual re-derives non-leaf cells on the output,
//! non-visual retains the input's.

use crate::exec::{execute, ExecOpts, ExecReport};
use crate::perspective::Mode;
use crate::plan::Plan;
use crate::scenario::Scenario;
use crate::Result;
use olap_cube::{CellEvaluator, Cube};

/// Applies a what-if scenario to a cube (Theorem 4.1's right-hand side:
/// the algebra applied to the core query's result) — the one way a
/// scenario runs, whatever its kind: [`Plan::for_scenario`] plans it with
/// the pebbling order and [`execute`] runs it chunk by chunk (Sections
/// 5–6) under `opts`, the executor's cache, budget and deadline. `scope`
/// optionally restricts execution to the output slots the query touches
/// (Essbase-style retrieval); the MDX layer passes `None` for a positive
/// scenario, whose axes name instances that exist only in its output.
/// Other read orders run through [`Plan::build`] and [`execute`].
///
/// Returns the perspective cube (over [`crate::output_schema`]) and the
/// executor's report of the run.
pub fn apply(
    cube: &Cube,
    scenario: &Scenario,
    scope: Option<&[u32]>,
    opts: &ExecOpts,
) -> Result<(Cube, ExecReport)> {
    execute(cube, &Plan::for_scenario(cube, scenario, scope)?, opts)
}

/// The Eval operator `E` (Definition 4.6) over `output`, the perspective
/// cube `scenario` made of `input`: selectors address the output's
/// schema; visual mode reads every cell on the output, non-visual reads
/// derived cells on the input (a positive scenario's instance selectors
/// widened to their member there).
pub fn evaluator<'a>(input: &'a Cube, scenario: &Scenario, output: &'a Cube) -> CellEvaluator<'a> {
    let grown = matches!(scenario, Scenario::Positive { .. }).then(|| scenario.dim());
    match scenario.mode() {
        Mode::Visual => CellEvaluator::new(output),
        Mode::NonVisual => CellEvaluator::non_visual(output, input, grown),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WhatIfError;
    use crate::perspective::Semantics;
    use crate::phi::{phi, prune_vacancies};
    use crate::scenario::Change;
    use olap_cube::Sel;
    use olap_model::{DimensionSpec, MemberId, SchemaBuilder};
    use olap_store::CellValue;
    use std::sync::Arc;

    /// Running example with a measures axis: Org (varying) × Time ×
    /// Measures {Salary}. Salary 10/month per valid instance.
    fn fixture() -> Cube {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("Organization").tree(&[
                    ("FTE", &["Joe", "Lisa"][..]),
                    ("PTE", &["Tom"]),
                    ("Contractor", &["Jane"]),
                ]))
                .dimension(DimensionSpec::new("Time").ordered().tree(&[
                    ("Qtr1", &["Jan", "Feb", "Mar"][..]),
                    ("Qtr2", &["Apr", "May", "Jun"]),
                ]))
                .dimension(
                    DimensionSpec::new("Measures")
                        .measures()
                        .leaves(&["Salary"]),
                )
                .varying("Organization", "Time")
                .reclassify("Organization", "Joe", "PTE", "Feb")
                .reclassify("Organization", "Joe", "Contractor", "Mar")
                .clear_at("Organization", "Joe", &["May"])
                .build()
                .unwrap(),
        );
        let org = schema.resolve_dimension("Organization").unwrap();
        let mut rules = olap_cube::RuleSet::new();
        rules.set_measure_dim(schema.resolve_dimension("Measures").unwrap());
        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 3, 1])
            .unwrap()
            .rules(rules);
        let varying = schema.varying(org).unwrap();
        for (i, inst) in varying.instances().iter().enumerate() {
            for t in inst.validity.iter() {
                b.set_num(&[i as u32, t, 0], 10.0).unwrap();
            }
        }
        b.finish().unwrap()
    }

    fn org_sel(cube: &Cube, name: &str) -> Sel {
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        Sel::Member(cube.schema().dim(org).resolve(name).unwrap())
    }

    fn time_sel(cube: &Cube, name: &str) -> Sel {
        let t = cube.schema().resolve_dimension("Time").unwrap();
        Sel::Member(cube.schema().dim(t).resolve(name).unwrap())
    }

    #[test]
    fn forward_visual_rolls_up_on_output() {
        let cube = fixture();
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        // P = {Feb, Apr}, forward, visual.
        let scenario = Scenario::negative(org, [1, 3], Semantics::Forward, Mode::Visual);
        let (out, _) = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        let e = evaluator(&cube, &scenario, &out);
        // PTE total over Qtr1 in the output: Tom (Jan+Feb+Mar) + PTE/Joe
        // (Feb + Mar inherited) = 30 + 20 = 50.
        let v = e
            .value(&[org_sel(&cube, "PTE"), time_sel(&cube, "Qtr1"), Sel::Slot(0)])
            .unwrap();
        assert_eq!(v, CellValue::Num(50.0));
        // FTE Qtr1: only Lisa (Joe's FTE instance is inactive): 30.
        let v = e
            .value(&[org_sel(&cube, "FTE"), time_sel(&cube, "Qtr1"), Sel::Slot(0)])
            .unwrap();
        assert_eq!(v, CellValue::Num(30.0));
    }

    #[test]
    fn forward_nonvisual_keeps_input_totals() {
        let cube = fixture();
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        let scenario = Scenario::negative(org, [1, 3], Semantics::Forward, Mode::NonVisual);
        let (out, _) = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        let e = evaluator(&cube, &scenario, &out);
        // Non-visual: the PTE Qtr1 total is the input's (Tom 30 + PTE/Joe
        // Feb 10 = 40), even though leaf cells moved.
        let v = e
            .value(&[org_sel(&cube, "PTE"), time_sel(&cube, "Qtr1"), Sel::Slot(0)])
            .unwrap();
        assert_eq!(v, CellValue::Num(40.0));
        // Leaf cells still reflect the scenario (PTE/Joe Mar inherited),
        // read through E as base cells of the output.
        assert_eq!(out.get(&[1, 2, 0]).unwrap(), CellValue::Num(10.0));
        let leaf = e.value(&[Sel::Slot(1), Sel::Slot(2), Sel::Slot(0)]);
        assert_eq!(leaf.unwrap(), CellValue::Num(10.0));
    }

    #[test]
    fn static_multiple_perspectives() {
        // S3-style: structure at Jan and at Apr.
        let cube = fixture();
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        let varying = cube.schema().varying(org).unwrap();
        let mut vs = phi(Semantics::Static, varying.instances(), &[0, 3], 6);
        prune_vacancies(&mut vs, varying.instances(), varying.moments());
        // FTE/Joe (valid at Jan) and Contractor/Joe (valid at Apr) stay
        // with original values; PTE/Joe drops.
        assert_eq!(vs[0].iter().collect::<Vec<_>>(), vec![0]);
        assert!(vs[1].is_empty());
        assert_eq!(vs[2].iter().collect::<Vec<_>>(), vec![2, 3, 5]);
        // The executor moves the leaves accordingly: PTE/Joe's Feb is gone.
        let scenario = Scenario::negative(org, [0, 3], Semantics::Static, Mode::Visual);
        let (out, _) = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        assert_eq!(out.get(&[1, 1, 0]).unwrap(), CellValue::Null);
        assert_eq!(out.get(&[0, 0, 0]).unwrap(), CellValue::Num(10.0));
    }

    #[test]
    fn positive_scenario_splits_and_answers() {
        let cube = fixture();
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        let d = cube.schema().dim(org);
        let lisa = d.resolve("Lisa").unwrap();
        let fte = d.resolve("FTE").unwrap();
        let pte = d.resolve("PTE").unwrap();
        let scenario = Scenario::positive(
            org,
            vec![Change {
                member: lisa,
                old_parent: Some(fte),
                new_parent: pte,
                at: 3,
            }],
            Mode::Visual,
        );
        let (out, _) = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        assert!(!Arc::ptr_eq(out.schema(), cube.schema()));
        // Visual: PTE Qtr2 total = Tom 30 + PTE/Lisa (Apr, May, Jun) 30.
        let pte_sel = Sel::Member(pte);
        let qtr2 = {
            let t = out.schema().resolve_dimension("Time").unwrap();
            Sel::Member(out.schema().dim(t).resolve("Qtr2").unwrap())
        };
        let e = evaluator(&cube, &scenario, &out);
        let v = e.value(&[pte_sel, qtr2, Sel::Slot(0)]).unwrap();
        assert_eq!(v, CellValue::Num(60.0));
    }

    #[test]
    fn positive_nonvisual_retains_input_totals() {
        let cube = fixture();
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        let d = cube.schema().dim(org);
        let lisa = d.resolve("Lisa").unwrap();
        let pte = d.resolve("PTE").unwrap();
        let scenario = Scenario::positive(
            org,
            vec![Change {
                member: lisa,
                old_parent: None,
                new_parent: pte,
                at: 3,
            }],
            Mode::NonVisual,
        );
        let (out, _) = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        let e = evaluator(&cube, &scenario, &out);
        // Non-visual PTE Qtr2: input total (Tom only) = 30.
        let qtr2 = {
            let t = out.schema().resolve_dimension("Time").unwrap();
            Sel::Member(out.schema().dim(t).resolve("Qtr2").unwrap())
        };
        let v = e.value(&[Sel::Member(pte), qtr2, Sel::Slot(0)]).unwrap();
        assert_eq!(v, CellValue::Num(30.0));
        // The grown instance PTE/Lisa is a derived cell over Qtr2: it
        // reads its member Lisa on the input, whose Qtr2 total is 30.
        let grown = out.schema().varying(org).unwrap();
        let pte_lisa = grown
            .instances()
            .iter()
            .position(|i| i.member == lisa && i.parent() == pte);
        let pte_lisa = pte_lisa.unwrap() as u32;
        let v = e.value(&[Sel::Slot(pte_lisa), qtr2, Sel::Slot(0)]).unwrap();
        assert_eq!(v, CellValue::Num(30.0));
    }

    #[test]
    fn validation_errors() {
        let cube = fixture();
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        let time = cube.schema().resolve_dimension("Time").unwrap();
        // Empty perspectives.
        let s = Scenario::negative(org, [], Semantics::Static, Mode::Visual);
        assert!(matches!(
            apply(&cube, &s, None, &ExecOpts::default()),
            Err(WhatIfError::NoPerspectives)
        ));
        // Out-of-range moment.
        let s = Scenario::negative(org, [17], Semantics::Static, Mode::Visual);
        assert!(matches!(
            apply(&cube, &s, None, &ExecOpts::default()),
            Err(WhatIfError::BadPerspective { .. })
        ));
        // Non-varying dimension.
        let s = Scenario::negative(time, [0], Semantics::Static, Mode::Visual);
        assert!(matches!(
            apply(&cube, &s, None, &ExecOpts::default()),
            Err(WhatIfError::NotVarying(_))
        ));
    }

    #[test]
    fn unordered_parameter_rejected_for_dynamic() {
        // Location-style unordered parameter: static OK, forward not.
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("Org").tree(&[("A", &["x"][..]), ("B", &["y"])]))
                .dimension(DimensionSpec::new("Location").leaves(&["NY", "MA", "CA"]))
                .varying("Org", "Location")
                .build()
                .unwrap(),
        );
        let org = schema.resolve_dimension("Org").unwrap();
        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 2]).unwrap();
        b.set_num(&[0, 0], 1.0).unwrap();
        let cube = b.finish().unwrap();
        let s = Scenario::negative(org, [0], Semantics::Forward, Mode::Visual);
        assert!(matches!(
            apply(&cube, &s, None, &ExecOpts::default()),
            Err(WhatIfError::UnorderedParameter { .. })
        ));
        let s = Scenario::negative(org, [0], Semantics::Static, Mode::Visual);
        assert!(apply(&cube, &s, None, &ExecOpts::default()).is_ok());
        let _ = MemberId::ROOT;
    }
}
