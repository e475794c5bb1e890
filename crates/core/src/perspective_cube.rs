//! The perspective cube: the result of a what-if query (Section 5).
//!
//! "We call the result of any of the what-if queries we discussed in this
//! paper a perspective cube." [`apply`] computes it for either scenario
//! kind through the one chunked executor: a negative scenario is ρ∘Φ
//! onto the input's axis, a positive one S as ρ onto a grown axis.
//! [`WhatIfResult`] answers cell queries respecting the query's
//! **mode**: visual re-derives non-leaf cells on the output cube,
//! non-visual retains the input's.

use crate::exec::{execute, ExecOpts, ExecReport};
use crate::perspective::Mode;
use crate::phi::{prune_vacancies, VsMap};
use crate::plan::Plan;
use crate::scenario::Scenario;
use crate::Result;
use olap_cube::{CellEvaluator, Cube, Sel};
use olap_model::AxisSlot;
use olap_store::CellValue;

/// The materialized perspective cube plus everything needed to answer
/// queries under the scenario's mode.
pub struct WhatIfResult {
    /// The output cube (leaf cells after the scenario) over the output
    /// schema — the input's for negative scenarios, an extended clone for
    /// positive ones (split adds instances).
    pub cube: Cube,
    /// The scenario it answers.
    pub scenario: Scenario,
    /// Output validity sets for negative scenarios (vacancy-pruned, as in
    /// the paper's examples). `None` for positive scenarios, whose
    /// validity sets live in the output schema itself.
    pub vs_out: Option<VsMap>,
    /// Executor metrics of the run that built `cube`.
    pub report: ExecReport,
}

impl WhatIfResult {
    /// The value of a cell under the query's mode.
    ///
    /// `input` must be the cube the scenario was applied to. Selectors
    /// address the *output* schema. For positive scenarios queried
    /// non-visually, slot selectors on the varying dimension are widened
    /// to their member when falling back to the input cube (the input has
    /// no such instance; the paper's non-visual split keeps input
    /// *totals*).
    pub fn value(&self, input: &Cube, sels: &[Sel]) -> Result<CellValue> {
        match self.scenario.mode() {
            Mode::Visual => Ok(CellEvaluator::new(&self.cube).value(sels)?),
            Mode::NonVisual => {
                let ev_out = CellEvaluator::new(&self.cube);
                if self.is_base_cell(&ev_out, sels)? {
                    return Ok(ev_out.value(sels)?);
                }
                // Derived cell: retain the input cube's value.
                let sels_in = self.to_input_sels(sels);
                Ok(CellEvaluator::new(input).value(&sels_in)?)
            }
        }
    }

    /// A cell is *base* when every selector pins a single slot and no
    /// formula rule defines the selected measure ("all leaf level cells
    /// are base and all non-leaf cells are derived").
    fn is_base_cell(&self, ev: &CellEvaluator<'_>, sels: &[Sel]) -> Result<bool> {
        for (i, &sel) in sels.iter().enumerate() {
            if ev.slots_for(i, sel)?.len() != 1 {
                return Ok(false);
            }
        }
        if let Some(mdim) = self.cube.rules().measure_dim() {
            let measure = match sels.get(mdim.index()) {
                Some(Sel::Member(m)) => Some(*m),
                Some(Sel::Slot(s)) => Some(self.cube.schema().slot_member(mdim, AxisSlot(*s))),
                None => None,
            };
            if let Some(m) = measure {
                if self.cube.rules().has_formula(m) {
                    return Ok(false);
                }
            }
        }
        Ok(true)
    }

    /// Translates output-schema selectors for evaluation against the
    /// input cube (needed only when the schemas differ, i.e. positive
    /// scenarios).
    fn to_input_sels(&self, sels: &[Sel]) -> Vec<Sel> {
        match &self.scenario {
            Scenario::Negative(_) => sels.to_vec(),
            Scenario::Positive { dim, .. } => {
                let mut out = sels.to_vec();
                if let Some(Sel::Slot(s)) = sels.get(dim.index()) {
                    let member = self.cube.schema().slot_member(*dim, AxisSlot(*s));
                    out[dim.index()] = Sel::Member(member);
                }
                out
            }
        }
    }
}

/// Applies a what-if scenario to a cube (Theorem 4.1's right-hand side:
/// the algebra applied to the core query's result) — the one way a
/// scenario runs, whatever its kind: [`Plan::for_scenario`] plans it with
/// the pebbling order and [`execute`] runs it chunk by chunk (Sections
/// 5–6) under `opts`, the executor's cache, budget and deadline. `scope`
/// optionally restricts execution to the output slots the query touches
/// (Essbase-style retrieval); the MDX layer passes `None` for a positive
/// scenario, whose axes name instances that exist only in its output.
/// Other read orders run through [`Plan::build`] and [`execute`].
pub fn apply(
    cube: &Cube,
    scenario: &Scenario,
    scope: Option<&[u32]>,
    opts: &ExecOpts,
) -> Result<WhatIfResult> {
    let plan = Plan::for_scenario(cube, scenario, scope)?;
    let (out, report) = execute(cube, &plan, opts)?;
    let vs_out = plan.vs.map(|mut vs| {
        let varying = cube
            .schema()
            .varying(plan.dim)
            .expect("checked by planning");
        prune_vacancies(&mut vs, varying.instances(), varying.moments());
        vs
    });
    Ok(WhatIfResult {
        cube: out,
        scenario: scenario.clone(),
        vs_out,
        report,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::error::WhatIfError;
    use crate::perspective::Semantics;
    use crate::scenario::Change;
    use olap_model::{DimensionSpec, MemberId, SchemaBuilder};
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
        let r = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        // PTE total over Qtr1 in the output: Tom (Jan+Feb+Mar) + PTE/Joe
        // (Feb + Mar inherited) = 30 + 20 = 50.
        let v = r
            .value(
                &cube,
                &[org_sel(&cube, "PTE"), time_sel(&cube, "Qtr1"), Sel::Slot(0)],
            )
            .unwrap();
        assert_eq!(v, CellValue::Num(50.0));
        // FTE Qtr1: only Lisa (Joe's FTE instance is inactive): 30.
        let v = r
            .value(
                &cube,
                &[org_sel(&cube, "FTE"), time_sel(&cube, "Qtr1"), Sel::Slot(0)],
            )
            .unwrap();
        assert_eq!(v, CellValue::Num(30.0));
    }

    #[test]
    fn forward_nonvisual_keeps_input_totals() {
        let cube = fixture();
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        let scenario = Scenario::negative(org, [1, 3], Semantics::Forward, Mode::NonVisual);
        let r = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        // Non-visual: the PTE Qtr1 total is the input's (Tom 30 + PTE/Joe
        // Feb 10 = 40), even though leaf cells moved.
        let v = r
            .value(
                &cube,
                &[org_sel(&cube, "PTE"), time_sel(&cube, "Qtr1"), Sel::Slot(0)],
            )
            .unwrap();
        assert_eq!(v, CellValue::Num(40.0));
        // Leaf cells still reflect the scenario (PTE/Joe Mar inherited).
        assert_eq!(r.cube.get(&[1, 2, 0]).unwrap(), CellValue::Num(10.0));
    }

    #[test]
    fn static_multiple_perspectives() {
        // S3-style: structure at Jan and at Apr.
        let cube = fixture();
        let org = cube.schema().resolve_dimension("Organization").unwrap();
        let scenario = Scenario::negative(org, [0, 3], Semantics::Static, Mode::Visual);
        let r = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        // FTE/Joe (valid at Jan) and Contractor/Joe (valid at Apr) stay
        // with original values; PTE/Joe drops.
        let vs = r.vs_out.as_ref().unwrap();
        assert_eq!(vs[0].iter().collect::<Vec<_>>(), vec![0]);
        assert!(vs[1].is_empty());
        assert_eq!(vs[2].iter().collect::<Vec<_>>(), vec![2, 3, 5]);
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
        let r = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        assert!(!Arc::ptr_eq(r.cube.schema(), cube.schema()));
        // Visual: PTE Qtr2 total = Tom 30 + PTE/Lisa (Apr, May, Jun) 30.
        let pte_sel = Sel::Member(pte);
        let qtr2 = {
            let t = r.cube.schema().resolve_dimension("Time").unwrap();
            Sel::Member(r.cube.schema().dim(t).resolve("Qtr2").unwrap())
        };
        let v = r.value(&cube, &[pte_sel, qtr2, Sel::Slot(0)]).unwrap();
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
        let r = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        // Non-visual PTE Qtr2: input total (Tom only) = 30.
        let qtr2 = {
            let t = r.cube.schema().resolve_dimension("Time").unwrap();
            Sel::Member(r.cube.schema().dim(t).resolve("Qtr2").unwrap())
        };
        let v = r
            .value(&cube, &[Sel::Member(pte), qtr2, Sel::Slot(0)])
            .unwrap();
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
