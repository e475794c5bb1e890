//! Bottom-Up Cube computation with iceberg pruning — Beyer &
//! Ramakrishnan, *Bottom-Up Computation of Sparse and Iceberg CUBEs*
//! (SIGMOD'99), the paper's citation \[2\] for "substantial work in
//! efficient evaluation of OLAP queries".
//!
//! Where the Zhao-style [`crate::CubeAggregator`] computes *all* requested
//! group-bys in one array pass, BUC recurses over dimensions partition by
//! partition and prunes any partition whose support falls below the
//! iceberg threshold — the standard choice for sparse cubes and
//! `HAVING COUNT(*) >= N` style queries. Both engines agree exactly on
//! the cells they both emit (tested), so either can back the what-if
//! evaluation.

use crate::cube::Cube;
use crate::lattice::GroupByMask;
use crate::rules::{Acc, AggFn};
use crate::Result;
use olap_store::CellValue;
use std::collections::HashMap;

/// One iceberg cell: a group-by mask plus coordinates over its retained
/// dimensions (ascending dimension order).
pub type IcebergKey = (GroupByMask, Vec<u32>);

/// The result of a BUC run: every group-by cell (across *all* masks at or
/// above the iceberg threshold), keyed by mask + coordinates.
#[derive(Debug, Clone)]
pub struct IcebergCube {
    cells: HashMap<IcebergKey, Acc>,
    /// Minimum support (non-⊥ base cells) a cell needs to be emitted.
    pub min_support: u64,
}

impl IcebergCube {
    /// The accumulator for one cell, if it met the threshold.
    pub fn acc(&self, mask: GroupByMask, coords: &[u32]) -> Option<&Acc> {
        self.cells.get(&(mask, coords.to_vec()))
    }

    /// The finalized value for one cell.
    pub fn value(&self, mask: GroupByMask, coords: &[u32], agg: AggFn) -> CellValue {
        self.acc(mask, coords)
            .map(|a| a.finalize(agg))
            .unwrap_or(CellValue::Null)
    }

    /// Number of emitted cells across all group-bys.
    pub fn len(&self) -> usize {
        self.cells.len()
    }

    /// `true` when nothing met the threshold.
    pub fn is_empty(&self) -> bool {
        self.cells.is_empty()
    }

    /// Cells of one mask, as (coords, acc) pairs.
    pub fn cells_of(&self, mask: GroupByMask) -> Vec<(&[u32], &Acc)> {
        let mut out: Vec<(&[u32], &Acc)> = self
            .cells
            .iter()
            .filter(|((m, _), _)| *m == mask)
            .map(|((_, c), a)| (c.as_slice(), a))
            .collect();
        out.sort_by(|a, b| a.0.cmp(b.0));
        out
    }
}

/// Runs BUC over the cube's non-⊥ leaf cells.
///
/// `min_support` is the iceberg condition (`COUNT(*) >= min_support`);
/// 1 computes the full sparse cube. The apex (∅ mask) is always
/// evaluated; descendants of a pruned partition are never visited — the
/// anti-monotonicity of COUNT that makes BUC fast on sparse data.
/// Kept as an oracle: `tests/tests/aggregation.rs` checks the dense
/// cascade against it.
pub fn buc(cube: &Cube, min_support: u64) -> Result<IcebergCube> {
    let ndims = cube.geometry().ndims();
    assert!(ndims <= 31, "mask width");
    // Materialize the fact list once (BUC is tuple-oriented).
    let mut tuples: Vec<(Vec<u32>, f64)> = Vec::new();
    cube.for_each_present(|cell, v| tuples.push((cell.to_vec(), v)))?;
    let mut out = IcebergCube {
        cells: HashMap::new(),
        min_support: min_support.max(1),
    };
    let n = tuples.len();
    let mut order: Vec<usize> = (0..n).collect();
    let mut coords = vec![0u32; 0];
    recurse(
        &mut tuples,
        &mut order,
        0,
        ndims,
        0,
        &mut coords,
        out.min_support,
        &mut out.cells,
    );
    Ok(out)
}

/// BUC recursion: aggregate the current partition (writing the cell for
/// the current mask/coords), then for each remaining dimension, partition
/// by its values and recurse into partitions meeting the threshold.
#[allow(clippy::too_many_arguments)]
fn recurse(
    tuples: &mut [(Vec<u32>, f64)],
    order: &mut [usize],
    first_dim: usize,
    ndims: usize,
    mask: GroupByMask,
    coords: &mut Vec<u32>,
    min_support: u64,
    out: &mut HashMap<IcebergKey, Acc>,
) {
    let mut acc = Acc::new();
    for &i in order.iter() {
        acc.add(tuples[i].1);
    }
    out.insert((mask, coords.clone()), acc);
    for d in first_dim..ndims {
        // Partition the current tuple set by dimension d's coordinate.
        let mut groups: HashMap<u32, Vec<usize>> = HashMap::new();
        for &i in order.iter() {
            groups.entry(tuples[i].0[d]).or_default().push(i);
        }
        let mut keys: Vec<u32> = groups.keys().copied().collect();
        keys.sort_unstable();
        for k in keys {
            let mut part = groups.remove(&k).expect("key from map");
            if (part.len() as u64) < min_support {
                continue; // prune: no descendant can recover support
            }
            coords.push(k);
            recurse(
                tuples,
                &mut part,
                d + 1,
                ndims,
                mask | (1 << d),
                coords,
                min_support,
                out,
            );
            coords.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aggregate::CubeAggregator;
    use crate::lattice::Lattice;
    use olap_model::{DimensionSpec, SchemaBuilder};
    use std::sync::Arc;

    fn cube3d(sparse: bool) -> Cube {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("A").leaves(&["a0", "a1", "a2", "a3"]))
                .dimension(DimensionSpec::new("B").leaves(&["b0", "b1", "b2"]))
                .dimension(DimensionSpec::new("C").leaves(&["c0", "c1"]))
                .build()
                .unwrap(),
        );
        let mut b = Cube::builder(schema, vec![2, 2, 2]).unwrap();
        for a in 0..4u32 {
            for bb in 0..3u32 {
                for c in 0..2u32 {
                    if sparse && (a + bb + c) % 3 == 0 {
                        continue;
                    }
                    b.set_num(&[a, bb, c], (a * 100 + bb * 10 + c) as f64)
                        .unwrap();
                }
            }
        }
        b.finish().unwrap()
    }

    #[test]
    fn full_sparse_cube_matches_cascade_engine() {
        let cube = cube3d(true);
        let iceberg = buc(&cube, 1).unwrap();
        let lattice = Lattice::new(3);
        let agg = CubeAggregator::new(&cube);
        let (results, _) = agg.compute(&lattice.proper_masks()).unwrap();
        for m in lattice.proper_masks() {
            let r = &results[&m];
            for (coords, acc) in iceberg.cells_of(m) {
                assert_eq!(
                    acc.finalize(AggFn::Sum),
                    r.value(coords, AggFn::Sum),
                    "mask {m:b} at {coords:?}"
                );
                assert_eq!(acc.count, r.acc(coords).count);
            }
            // And BUC emitted every non-empty cell the cascade found.
            let emitted = iceberg.cells_of(m).len();
            let mut nonempty = 0;
            let shape: Vec<u32> = r.shape().to_vec();
            let mut idx = vec![0u32; shape.len()];
            loop {
                if !r.acc(&idx).is_empty() {
                    nonempty += 1;
                }
                let mut d = shape.len();
                let mut done = shape.is_empty();
                while d > 0 {
                    d -= 1;
                    idx[d] += 1;
                    if idx[d] < shape[d] {
                        break;
                    }
                    idx[d] = 0;
                    if d == 0 {
                        done = true;
                    }
                }
                if done {
                    break;
                }
            }
            assert_eq!(emitted, nonempty, "mask {m:b}");
        }
        // The apex too.
        assert_eq!(
            iceberg.value(0, &[], AggFn::Sum),
            CellValue::num(cube.total_sum().unwrap())
        );
    }

    #[test]
    fn iceberg_threshold_prunes_anti_monotonically() {
        let cube = cube3d(false); // dense: every (a,b) has 2 support
        let iceberg = buc(&cube, 3).unwrap();
        // AB cells have support 2 < 3: all pruned.
        assert!(iceberg.cells_of(0b011).is_empty());
        // A cells have support 6 ≥ 3: all present.
        assert_eq!(iceberg.cells_of(0b001).len(), 4);
        // Anti-monotonicity: any emitted cell's ancestors are emitted.
        for ((mask, coords), _) in iceberg.cells.iter() {
            for (pos, d) in Lattice::new(3).dims_of(*mask).into_iter().enumerate() {
                let parent_mask = mask & !(1 << d);
                let mut parent_coords = coords.clone();
                parent_coords.remove(pos);
                assert!(
                    iceberg.acc(parent_mask, &parent_coords).is_some(),
                    "cell ({mask:b}, {coords:?}) lacks ancestor ({parent_mask:b})"
                );
            }
        }
    }

    #[test]
    fn support_counts_are_exact() {
        let cube = cube3d(false);
        let iceberg = buc(&cube, 1).unwrap();
        // Every A-cell groups 3×2 = 6 base cells.
        for (_, acc) in iceberg.cells_of(0b001) {
            assert_eq!(acc.count, 6);
        }
        assert_eq!(iceberg.acc(0, &[]).unwrap().count, 24);
    }

    #[test]
    fn min_support_one_on_empty_cube() {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("X").leaves(&["x0", "x1"]))
                .build()
                .unwrap(),
        );
        let cube = Cube::builder(schema, vec![2]).unwrap().finish().unwrap();
        let iceberg = buc(&cube, 1).unwrap();
        // Only the apex (with an empty accumulator) is present.
        assert_eq!(iceberg.len(), 1);
        assert_eq!(iceberg.value(0, &[], AggFn::Sum), CellValue::Null);
    }

    #[test]
    fn higher_threshold_emits_subset() {
        let cube = cube3d(true);
        let low = buc(&cube, 1).unwrap();
        let high = buc(&cube, 4).unwrap();
        assert!(high.len() < low.len());
        for (key, acc) in high.cells.iter() {
            let base = low.cells.get(key).expect("subset");
            assert_eq!(acc, base);
            assert!(acc.count >= 4);
        }
    }
}
