//! The paper's comparison baseline for Fig. 11: "the upper bound of
//! execution time for a multi-perspective query can be obtained by
//! simulating it via a series of single perspective queries and
//! post-processing individual query results into a single result set
//! (line 'Multiple MDX')."

use olap_mdx::{Grid, QueryContext};
use olap_workload::Workforce;

/// Simulates a k-perspective **static visual** Fig. 10(a) query as k
/// single-perspective queries whose grids are merged (union of rows;
/// per-cell, the first non-⊥ value wins). A member's month is the one
/// instance valid then, which static keeps whole if it is valid at any
/// perspective, so the merge is exact. Visual, because a non-visual grid
/// of these member rows reads no cell of the scenario's output.
pub fn multiple_mdx(ctx: &QueryContext<'_>, wf: &Workforce, perspectives: &[&str]) -> Grid {
    assert!(!perspectives.is_empty());
    let mut merged: Option<Grid> = None;
    for p in perspectives {
        let q = wf.fig10a_query_sem(&[p], "STATIC VISUAL");
        let g = olap_mdx::execute(ctx, &q).expect("single-perspective query");
        merged = Some(match merged {
            None => g,
            Some(acc) => merge(acc, g),
        });
    }
    merged.expect("at least one perspective")
}

/// Post-processing step: merges two grids over the same columns.
pub fn merge(mut acc: Grid, other: Grid) -> Grid {
    assert_eq!(acc.columns, other.columns, "mismatched column axes");
    for (i, row) in other.rows.iter().enumerate() {
        match acc.rows.iter().position(|r| r == row) {
            Some(j) => {
                for c in 0..acc.columns.len() {
                    if acc.cells[j][c].is_null() && !other.cells[i][c].is_null() {
                        acc.cells[j][c] = other.cells[i][c];
                    }
                }
            }
            None => {
                acc.rows.push(row.clone());
                acc.cells.push(other.cells[i].clone());
                acc.row_properties
                    .push(other.row_properties.get(i).cloned().unwrap_or_default());
            }
        }
    }
    acc
}
