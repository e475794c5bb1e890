//! # olap-cube
//!
//! Cube computation on top of [`olap_store`]'s chunked arrays:
//!
//! * [`Cube`]: a sealed [`olap_model::Schema`] plus a chunked store of
//!   leaf cells, with point reads/writes and region aggregation;
//! * the **group-by lattice** and the **memory rule** of Zhao, Deshpande,
//!   Naughton (SIGMOD'97) — the algorithm the paper's Section 5 builds
//!   its perspective-cube evaluation on ([`lattice`]);
//! * **simultaneous chunked aggregation** computing the requested
//!   group-bys in one pass over the base chunks, cascading each from its
//!   smallest parent, in as many passes as the budget admits
//!   ([`aggregate`]);
//! * the **rules** engine (paper Section 2): default aggregation per
//!   measure plus scoped formula rules like
//!   `"For Market = East, Margin = 0.93 * Sales - COGS"` ([`rules`],
//!   evaluated in [`eval`]).
//!
//! Non-leaf cells are *derived*: their values come from rules evaluated
//! over descendant leaf cells (the paper's simplifying assumption, which we
//! adopt). [`eval::CellEvaluator`] is the single implementation of that,
//! shared by queries and by the what-if operators' visual mode.

pub mod aggregate;
pub mod bounds;
pub mod cube;
pub mod error;
pub mod eval;
pub mod lattice;
pub mod rules;

pub use aggregate::{CubeAggregator, GroupByResult};
pub use bounds::Bounds;
pub use cube::{Cube, CubeBuilder, StoreBackend};
pub use error::CubeError;
pub use eval::{CellEvaluator, Sel};
pub use lattice::{GroupByMask, Lattice};
pub use rules::{AggFn, Expr, FormulaRule, RuleSet};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, CubeError>;
