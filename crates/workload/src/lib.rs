//! # olap-workload
//!
//! Synthetic datasets for the reproduction:
//!
//! * [`mod@running_example`]: the paper's Fig. 1/2 warehouse (Organization /
//!   Location / Time / Measures, with Joe's reclassifications) — used by
//!   examples and the semantic golden tests;
//! * [`workforce`]: the Section 6 customer workload, parameterized — a
//!   7-dimension workforce-planning cube where N employees roll up into
//!   departments, ~1% change departments 1–11 times over 12 months, with
//!   the experiment queries of Fig. 10;
//! * [`retail`]: a product-catalog dataset (the Fig. 7 products) with
//!   margin rules, for positive-scenario demos.

pub mod retail;
pub mod running_example;
pub mod workforce;

pub use retail::{retail_example, Retail};
pub use running_example::{running_example, RunningExample};
pub use workforce::{replay_scenarios, Workforce, WorkforceConfig, MONTHS};
