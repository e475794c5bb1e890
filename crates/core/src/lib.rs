//! # whatif-core
//!
//! The primary contribution of *"What-if OLAP Queries with Changing
//! Dimensions"* (Lakshmanan, Russakovsky, Sashikanth; ICDE 2008):
//! what-if (hypothetical) OLAP queries whose scenarios are **changes to
//! dimension hierarchies**, not data edits.
//!
//! ## Concepts
//!
//! * **Perspectives** (Section 3): a set `P` of moments of the parameter
//!   dimension. Applying perspectives to a cube *negates* structural
//!   changes — "what if whatever structure existed in January continued
//!   until April…". Semantics: [`Semantics::Static`],
//!   [`Semantics::Forward`], [`Semantics::ExtendedForward`], and the
//!   backward mirrors. Modes: [`Mode::Visual`] re-derives non-leaf cells
//!   on the output; [`Mode::NonVisual`] retains the input's.
//! * **Positive changes** (Section 3.4): a relation `R(m, o, n, t)` of
//!   hypothetical reclassifications that never happened.
//! * **The algebra** (Section 4): selection [`operators::select()`], the
//!   validity-set transform [`phi()`], relocation [`operators::relocate()`],
//!   split [`operators::split()`], and eval [`operators::EvalOp`]; plus the
//!   Theorem 4.1 compiler in [`algebra`].
//! * **The perspective cube** (Section 5): [`perspective_cube::apply`]
//!   evaluates a what-if query either cell-at-a-time (the reference
//!   oracle) or chunked — ordering chunk reads with the
//!   **merge-dependency graph** and **pebbling heuristic** of Section 5.2
//!   ([`merge`]) and measuring memory via the buffer pool. A [`Plan`] holds
//!   every decision made before a chunk is read; [`execute`] runs it.

pub mod algebra;
pub mod cache;
pub mod error;
pub mod exec;
pub mod fingerprint;
pub mod forest;
pub mod merge;
pub mod operators;
pub mod perspective;
pub mod perspective_cube;
pub mod phi;
pub mod plan;
pub mod scenario;
pub mod split_memo;

pub use algebra::{compile, run, AlgebraExpr, AlgebraOutput};
pub use cache::{CacheStats, Cached, ScenarioCache};
pub use error::WhatIfError;
pub use exec::{
    execute, execute_passes_opts, ExecOpts, ExecReport, KernelKind, OrderPolicy, Strategy,
};
pub use fingerprint::{positive_fingerprint, Fnv64, FnvSuffix};
pub use forest::{CowChanges, ForestError, ForkRow, ScenarioForest};
pub use merge::MergeGraph;
pub use operators::{relocate, select, split, CmpOp, DestMap, EvalOp, Predicate};
pub use perspective::{Mode, PerspectiveSpec, Semantics};
pub use perspective_cube::{apply, apply_default, apply_opts, WhatIfResult};
pub use phi::{phi, prune_vacancies, VsMap};
pub use plan::{decompose_passes, Plan};
pub use scenario::{Change, Scenario};
pub use split_memo::{memo_key, SplitMemo, SplitMemoStats, SplitResult};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WhatIfError>;
