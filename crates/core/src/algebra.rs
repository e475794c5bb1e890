//! The what-if algebra and the Theorem 4.1 compiler.
//!
//! Theorem 4.1: for every extended-MDX what-if query `Qn` (core query `Q`,
//! perspectives `P`, semantics, mode) there is an algebra expression `En`
//! with `Qn(Cin) = En(Q(Cin))` — and likewise `Ep` for positive-change
//! queries. [`compile`] constructs that expression from a [`Scenario`],
//! and `.explain` prints it beside the plan that ran. The product does not
//! evaluate it: every query runs through [`crate::apply`]. The expression
//! is evaluated by definition only by the test oracle, in the tests that
//! hold the two equal.

use crate::perspective::{Mode, PerspectiveSpec};
use crate::scenario::{Change, Scenario};
use olap_model::DimensionId;

/// An expression in the Section 4 algebra.
#[derive(Debug, Clone, PartialEq)]
pub enum AlgebraExpr {
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
