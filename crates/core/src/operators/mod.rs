//! The algebraic operators of Section 4: σ (selection), ρ (relocate),
//! the validation of S's change relation, and E (eval). Φ lives in
//! [`crate::phi()`]; S runs as a plan ([`crate::Plan::for_scenario`]).

pub mod eval_op;
pub mod relocate;
pub mod select;
pub mod split;
mod stage;

pub use eval_op::EvalOp;
pub use relocate::{relocate, DestMap};
pub use select::{select, CmpOp, Predicate};
pub use split::check_changes;
