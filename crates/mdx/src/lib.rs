//! # olap-mdx
//!
//! An MDX-subset parser and evaluator with the paper's extensions
//! (Section 3.2–3.4, and the experiment queries of Fig. 10):
//!
//! ```text
//! WITH PERSPECTIVE {(Jan), (Apr)} FOR Department DYNAMIC FORWARD VISUAL
//! SELECT {CrossJoin({[Account].Levels(0).Members}, {([Current], [Local])})} ON COLUMNS,
//!        {CrossJoin({[EmployeeS3]}, {Descendants([Period], 1, SELF_AND_AFTER)})}
//!        DIMENSION PROPERTIES [Department] ON ROWS
//! FROM [App].[Db]
//! WHERE (Organization.[FTE].[Joe], Measures.[Salary])
//! ```
//!
//! Supported set machinery: `{…}` set literals, `(…)` tuples,
//! `CrossJoin`, `Union`, `Head`, `.Children`, `.Members`,
//! `<levels>.MEMBERS`, `[X].Levels(n).Members` (Essbase convention:
//! level 0 = leaves), `Descendants(m, n, SELF_AND_AFTER)`, named sets
//! registered on the [`QueryContext`], and the `WITH CHANGES
//! {(m, o, n, t), …}` positive-scenario clause.
//!
//! Evaluation compiles the `WITH` clause to a [`whatif_core::Scenario`],
//! applies it with [`whatif_core::apply`], and renders the axes into a
//! [`Grid`] through one Eval operator `E` per grid
//! ([`whatif_core::evaluator`]), which respects visual / non-visual mode
//! for derived cells.

pub mod ast;
pub mod error;
pub mod eval;
pub mod grid;
pub mod lexer;
pub mod parser;
pub mod resolve;

pub use ast::{Axis, AxisSpec, DescFlag, MemberExpr, Query, SetExpr, WithClause};
pub use error::MdxError;
pub use eval::{
    compile_with, evaluate, evaluate_full, evaluate_with, execute, Evaluation, QueryContext,
};
pub use grid::Grid;
pub use parser::parse;

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, MdxError>;
