//! The what-if algebra and the Theorem 4.1 compiler.
//!
//! Theorem 4.1: for every extended-MDX what-if query `Qn` (core query `Q`,
//! perspectives `P`, semantics, mode) there is an algebra expression `En`
//! with `Qn(Cin) = En(Q(Cin))` — and likewise `Ep` for positive-change
//! queries. [`compile`] constructs that expression from a [`Scenario`];
//! [`run`] evaluates expressions over cubes, composing the operators
//! freely (σ before Φρ, say): σ and Φρ by definition, cell by cell (Φρ is
//! [`crate::operators::relocate()`] over [`crate::phi()`]). S has one
//! implementation in the product, the chunked executor: [`run`]'s split
//! step is [`crate::apply`] of a positive scenario, and the definitional
//! S is the test oracle's. Queries do not run through [`run`]: the MDX
//! layer hands the scenario to [`crate::apply`], and `.explain` prints
//! [`compile`]'s expression beside the plan that ran. [`run`] is the
//! theorem's left-hand side in the tests that hold the two equal.

use crate::exec::ExecOpts;
use crate::operators::relocate::relocate;
use crate::operators::select::{select, Predicate};
use crate::perspective::{Mode, PerspectiveSpec};
use crate::perspective_cube::apply;
use crate::plan::checked_phi;
use crate::scenario::{Change, Scenario};
use crate::Result;
use olap_cube::Cube;
use olap_model::DimensionId;

/// An expression in the Section 4 algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgebraExpr {
    /// σₚ over one dimension (Definition 4.1).
    Select {
        /// The dimension whose slots are filtered.
        dim: DimensionId,
        /// The predicate.
        pred: Predicate,
    },
    /// Φ followed by ρ: `ρ(C, Φ_sem(VSin, P))` (Definitions 4.2–4.4).
    PhiRelocate {
        /// The perspective clause.
        spec: PerspectiveSpec,
    },
    /// S(C, R) (Definition 4.5).
    Split {
        /// The varying dimension.
        dim: DimensionId,
        /// The change relation R.
        changes: Vec<Change>,
    },
    /// E(C¹, C²) (Definition 4.6): `visual` evaluates functions over the
    /// current (output) cube; non-visual retains the input's derived
    /// cells. A marker consumed by the query layer — derived cells are
    /// computed lazily.
    Eval {
        /// Visual (output-scope) evaluation?
        visual: bool,
    },
    /// Left-to-right composition.
    Compose(Vec<AlgebraExpr>),
}

/// The result of running an algebra expression.
pub struct AlgebraOutput {
    /// Output cube (leaf cells), over the output schema (the input's, or
    /// a grown one after Split).
    pub cube: Cube,
    /// The mode requested by a trailing Eval marker, if any.
    pub mode: Option<Mode>,
}

/// Theorem 4.1: compiles a what-if scenario into the algebra.
pub fn compile(scenario: &Scenario) -> AlgebraExpr {
    match scenario {
        Scenario::Negative(spec) => AlgebraExpr::Compose(vec![
            AlgebraExpr::PhiRelocate { spec: spec.clone() },
            AlgebraExpr::Eval {
                visual: spec.mode == Mode::Visual,
            },
        ]),
        Scenario::Positive { dim, changes, mode } => AlgebraExpr::Compose(vec![
            AlgebraExpr::Split {
                dim: *dim,
                changes: changes.clone(),
            },
            AlgebraExpr::Eval {
                visual: *mode == Mode::Visual,
            },
        ]),
    }
}

/// Evaluates an algebra expression over a cube: σ and Φρ each by its
/// definition, S through [`crate::apply`]. The first operator reads
/// `cube` itself; each operator
/// builds a new cube and none writes its input. An expression with no
/// operator (a bare `Eval`) is σ_true.
pub fn run(cube: &Cube, expr: &AlgebraExpr) -> Result<AlgebraOutput> {
    let mut state = State::default();
    run_into(cube, &mut state, expr)?;
    let out = match state.cube {
        Some(out) => out,
        None => select(cube, DimensionId(0), &Predicate::True)?,
    };
    Ok(AlgebraOutput {
        cube: out,
        mode: state.mode,
    })
}

/// [`run`]'s progress: the last operator's output, `None` before the
/// first.
#[derive(Default)]
struct State {
    cube: Option<Cube>,
    mode: Option<Mode>,
}

fn run_into(input: &Cube, state: &mut State, expr: &AlgebraExpr) -> Result<()> {
    let current = state.cube.as_ref().unwrap_or(input);
    match expr {
        AlgebraExpr::Select { dim, pred } => {
            state.cube = Some(select(current, *dim, pred)?);
        }
        AlgebraExpr::PhiRelocate { spec } => {
            let vs = checked_phi(current, spec)?;
            state.cube = Some(relocate(current, spec.dim, &vs)?);
        }
        AlgebraExpr::Split { dim, changes } => {
            // The mode only marks how derived cells evaluate later.
            let scenario = Scenario::positive(*dim, changes.clone(), Mode::Visual);
            let out = apply(current, &scenario, None, &ExecOpts::default())?;
            state.cube = Some(out.cube);
        }
        AlgebraExpr::Eval { visual } => {
            state.mode = Some(if *visual {
                Mode::Visual
            } else {
                Mode::NonVisual
            });
        }
        AlgebraExpr::Compose(steps) => {
            for s in steps {
                run_into(input, state, s)?;
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::perspective::Semantics;
    use olap_model::{DimensionSpec, SchemaBuilder};
    use std::sync::Arc;

    fn fixture() -> (Cube, DimensionId) {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(
                    DimensionSpec::new("Org")
                        .tree(&[("FTE", &["Joe", "Lisa"][..]), ("PTE", &["Tom"])]),
                )
                .dimension(
                    DimensionSpec::new("Time")
                        .ordered()
                        .leaves(&["Jan", "Feb", "Mar", "Apr"]),
                )
                .varying("Org", "Time")
                .reclassify("Org", "Joe", "PTE", "Feb")
                .build()
                .unwrap(),
        );
        let org = schema.resolve_dimension("Org").unwrap();
        let mut b = Cube::builder(Arc::clone(&schema), vec![2, 2]).unwrap();
        let v = schema.varying(org).unwrap();
        for (i, inst) in v.instances().iter().enumerate() {
            for t in inst.validity.iter() {
                b.set_num(&[i as u32, t], 10.0 + i as f64).unwrap();
            }
        }
        (b.finish().unwrap(), org)
    }

    #[test]
    fn theorem_4_1_negative() {
        // compile(scenario) run over Cin by definition equals the chunked
        // apply(scenario) on cells.
        let (cube, org) = fixture();
        for sem in [Semantics::Static, Semantics::Forward, Semantics::Backward] {
            for mode in [Mode::Visual, Mode::NonVisual] {
                let scenario = Scenario::negative(org, [1], sem, mode);
                let direct = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
                let algebra = run(&cube, &compile(&scenario)).unwrap();
                assert!(algebra.cube.same_cells(&direct.cube).unwrap(), "{sem:?}");
                assert_eq!(algebra.mode, Some(mode));
            }
        }
    }

    #[test]
    fn theorem_4_1_positive() {
        let (cube, org) = fixture();
        let d = cube.schema().dim(org);
        let lisa = d.resolve("Lisa").unwrap();
        let pte = d.resolve("PTE").unwrap();
        let scenario = Scenario::positive(
            org,
            vec![Change {
                member: lisa,
                old_parent: None,
                new_parent: pte,
                at: 2,
            }],
            Mode::Visual,
        );
        let direct = apply(&cube, &scenario, None, &ExecOpts::default()).unwrap();
        let algebra = run(&cube, &compile(&scenario)).unwrap();
        assert!(algebra.cube.same_cells(&direct.cube).unwrap());
        assert_eq!(algebra.cube.schema().shape(), direct.cube.schema().shape());
    }

    #[test]
    fn select_composes_before_perspectives() {
        // σ_changing ∘ Φf∘ρ — the experiment queries' shape: restrict to
        // changing members, then apply perspectives.
        let (cube, org) = fixture();
        let expr = AlgebraExpr::Compose(vec![
            AlgebraExpr::Select {
                dim: org,
                pred: Predicate::Changing,
            },
            AlgebraExpr::PhiRelocate {
                spec: PerspectiveSpec::new(org, [0], Semantics::Forward, Mode::Visual),
            },
        ]);
        let out = run(&cube, &expr).unwrap();
        // Only Joe's data survives the selection; forward from Jan pulls
        // his Feb+ data into FTE/Joe (instance 0).
        // Joe instances: 0 (FTE, t0), 1 (PTE, t1..3): values 10, 11.
        assert_eq!(out.cube.total_sum().unwrap(), 10.0 + 3.0 * 11.0);
        assert_eq!(
            out.cube.get(&[0, 2]).unwrap(),
            olap_store::CellValue::Num(11.0)
        );
    }

    #[test]
    fn an_expression_without_an_operator_is_the_identity() {
        let (cube, _) = fixture();
        let out = run(&cube, &AlgebraExpr::Eval { visual: false }).unwrap();
        assert!(out.cube.same_cells(&cube).unwrap());
        assert_eq!(out.mode, Some(Mode::NonVisual));
    }
}
