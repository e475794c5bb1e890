//! What the executor keeps of Section 4's operators: ρ's destination map
//! and the validation of S's change relation. Φ lives in [`crate::phi()`];
//! ρ and S run as a plan ([`crate::Plan::for_scenario`]); E is
//! `olap_cube::CellEvaluator` (see [`crate::evaluator`]). σ, and each
//! operator stated by its definition, are the test oracle's.

pub mod relocate;
pub mod split;

pub use relocate::DestMap;
pub use split::check_changes;
