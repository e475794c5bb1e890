//! The algebraic operators of Section 4: σ (selection), ρ (relocate),
//! S (split), and E (eval). Φ lives in [`crate::phi()`].

pub mod eval_op;
pub mod relocate;
pub mod select;
pub mod split;
mod stage;

pub use eval_op::EvalOp;
pub use relocate::{relocate, DestMap};
pub use select::{select, CmpOp, Predicate};
pub use split::{check_changes, split};
