//! Section 5.2: the merge-dependency graph between chunks and the
//! pebbling strategies that pick a read order minimizing how many chunks
//! must be simultaneously resident.

pub mod graph;
pub mod pebbling;

pub use graph::MergeGraph;
pub use pebbling::{heuristic_order, naive_order, optimal_pebbles, pebbles_for_order};
