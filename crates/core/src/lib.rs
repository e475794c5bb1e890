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
//! * **The algebra** (Section 4): the validity-set transform [`phi()`],
//!   relocation (a [`DestMap`] that a [`Plan`] runs), split (a [`Plan`]
//!   over a grown axis, validated by [`check_changes`]) and eval
//!   (`olap_cube::CellEvaluator`, its mode picked by [`evaluator`]);
//!   plus the Theorem 4.1 compiler in [`algebra`], whose expression
//!   `.explain` prints. Selection σ reaches users as MDX's `Filter` and
//!   scope.
//! * **The perspective cube** (Section 5): [`apply`] evaluates a what-if
//!   query chunk by chunk — ordering chunk reads with the
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

pub use algebra::{compile, AlgebraExpr};
pub use cache::{CacheStats, Cached, ScenarioCache};
pub use error::WhatIfError;
pub use exec::{execute, execute_passes_opts, ExecOpts, ExecReport, OrderPolicy};
pub use fingerprint::{Fnv64, FnvSuffix};
pub use forest::{ForestError, ForkRow, ScenarioForest};
pub use merge::MergeGraph;
pub use operators::{check_changes, DestMap};
pub use perspective::{Mode, PerspectiveSpec, Semantics};
pub use perspective_cube::{apply, evaluator};
pub use phi::{phi, prune_vacancies, VsMap};
pub use plan::{decompose_passes, output_schema, Plan};
pub use scenario::{Change, Scenario};

/// Crate-wide result alias.
pub type Result<T> = std::result::Result<T, WhatIfError>;
