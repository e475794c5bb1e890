//! Aggregation suite for the dense-block cascade: a differential
//! property test against the per-cell oracle and BUC on random clipped
//! geometries, a property test that a budgeted run never holds more than
//! it admitted, and golden `.rollup` replies plus accumulator digests
//! (the digests were captured at the commit before the dense blocks
//! replaced the per-cell ones; neither may move by a bit).

use olap_cube::lattice::memory_cells;
use olap_cube::rules::Acc;
use olap_cube::{Cube, CubeAggregator, CubeError, GroupByMask, GroupByResult, Lattice};
use olap_model::{DimensionSpec, SchemaBuilder};
use olap_store::ChunkGeometry;
use polap_cli::{Dataset, Outcome, Session};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;
use whatif_core::Fnv64;
use whatif_integration_tests::buc::buc;

/// Calls `f(coords)` for every coordinate of a row-major array of `shape`.
fn for_each_coord(shape: &[u32], mut f: impl FnMut(&[u32])) {
    if shape.contains(&0) {
        return;
    }
    let mut coords = vec![0u32; shape.len()];
    loop {
        f(&coords);
        let mut d = shape.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            coords[d] += 1;
            if coords[d] < shape[d] {
                break;
            }
            coords[d] = 0;
        }
    }
}

/// Calls `f(coords, acc)` for every cell of a group-by, row-major.
fn for_each_acc(result: &GroupByResult, mut f: impl FnMut(&[u32], &Acc)) {
    for_each_coord(result.shape(), |coords| f(coords, result.acc(coords)));
}

/// A cube over a random clipped geometry whose chunks are a mix of
/// implicit-⊥, sparse, dense and full, with half-integer values (every
/// sum is exact, so accumulators are comparable bit for bit whatever the
/// fold order).
fn random_cube(rng: &mut StdRng) -> Cube {
    let mut lens: Vec<u32> = (0..rng.random_range(1usize..=4))
        .map(|_| rng.random_range(1u32..=7))
        .collect();
    let mut extents: Vec<u32> = lens.iter().map(|&l| rng.random_range(1..=l + 1)).collect();
    // Workforce's shape: trailing axes of length 2 cut into extent-1
    // chunks, of which only some are populated.
    for _ in 0..rng.random_range(0usize..=2) {
        lens.push(2);
        extents.push(1);
    }
    let mut schema = SchemaBuilder::new();
    for (i, &l) in lens.iter().enumerate() {
        let names: Vec<String> = (0..l).map(|j| format!("m{j}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        schema = schema.dimension(DimensionSpec::new(&format!("D{i}")).leaves(&refs));
    }
    let schema = Arc::new(schema.build().unwrap());
    let geom = ChunkGeometry::new(lens.clone(), extents.clone()).unwrap();
    let fill: Vec<f64> = (0..geom.total_chunks())
        .map(|_| [0.0, 0.0, 0.15, 0.8, 1.0][rng.random_range(0usize..5)])
        .collect();
    let mut b = Cube::builder(schema, extents).unwrap();
    for_each_coord(&lens, |cell| {
        let (id, _) = geom.split_cell(cell);
        if rng.random_bool(fill[id.0 as usize]) {
            let halves = rng.random_range(0u32..=80) as f64 - 40.0;
            b.set_num(cell, halves * 0.5).unwrap();
        }
    });
    b.finish().unwrap()
}

/// What a pass computing `m` alone admits, read from the aggregator's
/// refusal under a one-cell budget (a closure of at most one cell is
/// admitted, and runs).
fn closure_cells(agg: &CubeAggregator, m: GroupByMask) -> u64 {
    match agg.compute_with_budget(&[m], 1) {
        Err(CubeError::OverBudget { needed, .. }) => needed,
        Ok(_) => 1,
        Err(e) => panic!("mask {m:b}: {e}"),
    }
}

/// Zhao's memory rule summed over the closure of `masks` — each mask and
/// its ancestors by the smallest-parent rule, the full mask (which holds
/// no buffer) left out: what one pass computing them all must admit,
/// derived here from the definitions rather than read from the planner.
fn union_cells(geom: &ChunkGeometry, order: &[usize], masks: &[GroupByMask]) -> u64 {
    let lattice = Lattice::new(geom.ndims());
    let result_cells = |g: GroupByMask| -> u64 {
        (lattice.dims_of(g).into_iter())
            .map(|d| u64::from(geom.lens()[d]))
            .product()
    };
    let mut closure = HashSet::new();
    for &m in masks {
        let mut g = m;
        while g != lattice.full() && closure.insert(g) {
            g = (lattice.parents(g).into_iter())
                .min_by_key(|&p| (result_cells(p), p))
                .unwrap();
        }
    }
    closure.iter().map(|&g| memory_cells(geom, order, g)).sum()
}

/// A random non-empty mask set and a random read order for `cube`.
fn random_request(rng: &mut StdRng, cube: &Cube) -> (Vec<GroupByMask>, Vec<usize>) {
    let ndims = cube.geometry().ndims();
    let mut masks: Vec<GroupByMask> = Lattice::new(ndims)
        .all_masks()
        .into_iter()
        .filter(|_| rng.random_bool(0.4))
        .collect();
    if masks.is_empty() {
        masks.push(0);
    }
    let mut order: Vec<usize> = (0..ndims).collect();
    for i in (1..order.len()).rev() {
        order.swap(i, rng.random_range(0..=i));
    }
    (masks, order)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The dense cascade — under a random read order, thread count, mask
    /// set and budget — agrees with a per-cell fold of the base cube and
    /// with BUC on all four accumulator fields of every cell of every
    /// requested group-by.
    #[test]
    fn dense_cascade_matches_per_cell_oracle_and_buc(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cube = random_cube(&mut rng);
        let geom = cube.geometry();
        let lattice = Lattice::new(geom.ndims());
        let (masks, order) = random_request(&mut rng, &cube);
        let agg = CubeAggregator::with_order(&cube, order);
        let biggest = masks.iter().map(|&m| closure_cells(&agg, m)).max().unwrap();
        let (results, report) = match rng.random_range(0u32..3) {
            0 => agg.compute(&masks).unwrap(),
            1 => agg.compute_with_budget(&masks, u64::MAX).unwrap(),
            _ => agg
                .compute_with_budget(&masks, biggest + rng.random_range(0u64..8))
                .unwrap(),
        };
        prop_assert_eq!(results.len(), masks.len());
        prop_assert_eq!(report.base_chunks_scanned % geom.total_chunks(), 0);

        let mut oracle: HashMap<(GroupByMask, Vec<u32>), Acc> = HashMap::new();
        cube.for_each_present(|cell, v| {
            for &m in &masks {
                let key = lattice.dims_of(m).into_iter().map(|d| cell[d]).collect();
                oracle.entry((m, key)).or_default().add(v);
            }
        })
        .unwrap();
        let iceberg = buc(&cube, 1).unwrap();
        for &m in &masks {
            let mut nonempty = 0;
            for_each_acc(&results[&m], |coords, acc| {
                let want = oracle.remove(&(m, coords.to_vec())).unwrap_or_default();
                assert_eq!(acc, &want, "seed {seed} mask {m:b} at {coords:?}");
                if !acc.is_empty() {
                    nonempty += 1;
                    assert_eq!(
                        iceberg.acc(m, coords),
                        Some(acc),
                        "seed {seed} mask {m:b} at {coords:?} (buc)"
                    );
                }
            });
            let emitted = iceberg
                .cells_of(m)
                .iter()
                .filter(|(_, a)| !a.is_empty())
                .count();
            prop_assert_eq!(emitted, nonempty, "seed {} mask {:b}", seed, m);
        }
        prop_assert!(oracle.is_empty(), "seed {}: cells outside every result", seed);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Under a random budget in `[1, 2 × the union's cost]`, a request
    /// over a random cube, mask set and read order is either refused for
    /// the budget having read nothing, or peaks at or under the budget
    /// with every accumulator equal to the unbudgeted run's. One pass is
    /// admitted at exactly the union's cost and not a cell below it.
    #[test]
    fn budgeted_aggregation_never_holds_more_than_it_admitted(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let cube = random_cube(&mut rng);
        let (masks, order) = random_request(&mut rng, &cube);
        let agg = CubeAggregator::with_order(&cube, order.clone());
        let (want, _) = agg.compute(&masks).unwrap();
        let union = union_cells(cube.geometry(), &order, &masks);
        let budget = rng.random_range(1..=2 * union.max(1));

        let before = cube.pool_stats();
        match agg.compute_with_budget(&masks, budget) {
            Err(CubeError::OverBudget { needed, budget: b }) => {
                prop_assert_eq!(b, budget);
                prop_assert!(needed > budget, "seed {}", seed);
                let read = cube.pool_stats().delta(&before);
                prop_assert_eq!(read.hits + read.misses, 0, "seed {} read before refusing", seed);
            }
            Err(e) => panic!("seed {seed}: {e}"),
            Ok((got, report)) => {
                prop_assert!(
                    report.peak_buffer_cells <= budget,
                    "seed {} peak {} over budget {}",
                    seed,
                    report.peak_buffer_cells,
                    budget
                );
                for &m in &masks {
                    for_each_acc(&want[&m], |coords, acc| {
                        assert_eq!(got[&m].acc(coords), acc, "seed {seed} mask {m:b} at {coords:?}");
                    });
                }
            }
        }

        let (_, one) = agg.compute_with_budget(&masks, union.max(1)).unwrap();
        prop_assert_eq!(one.passes, 1, "seed {}", seed);
        if union > 1 {
            match agg.compute_with_budget(&masks, union - 1) {
                Err(CubeError::OverBudget { .. }) => {}
                Ok((_, split)) => prop_assert!(split.passes > 1, "seed {}", seed),
                Err(e) => panic!("seed {seed}: {e}"),
            }
        }
    }
}

/// FNV-1a over every accumulator field of the given group-bys, masks
/// ascending, cells row-major.
fn acc_digest(results: &HashMap<GroupByMask, GroupByResult>) -> u64 {
    let mut masks: Vec<GroupByMask> = results.keys().copied().collect();
    masks.sort_unstable();
    let mut h = Fnv64::new();
    for m in masks {
        h.write_u64(u64::from(m));
        for_each_acc(&results[&m], |_, a| {
            h.write_u64(a.sum.to_bits())
                .write_u64(a.count)
                .write_u64(a.min.to_bits())
                .write_u64(a.max.to_bits());
        });
    }
    h.finish()
}

/// The reply text and accumulator digest pinned for each bundled
/// dataset: `.rollup`'s reply (one line per single-dimension group-by,
/// its non-⊥ cells and `group_by_digest`, captured by applying that
/// digest to the accumulators of the aggregator before the reply
/// changed), and a digest over the seven (or however many)
/// single-dimension group-bys it computes plus the apex, a
/// two-dimensional group-by and (where it is small) the base itself.
const GOLDEN: [(Dataset, &str, u64); 4] = [
    (
        Dataset::Running,
        include_str!("../golden/rollup_running.txt"),
        0xb802_5e06_0293_8a8e,
    ),
    (
        Dataset::Retail,
        include_str!("../golden/rollup_retail.txt"),
        0x5adc_5e06_85ad_bd0e,
    ),
    (
        Dataset::Bench,
        include_str!("../golden/rollup_bench.txt"),
        0xd91b_1e71_20a5_3f8b,
    ),
    (
        Dataset::Workforce,
        include_str!("../golden/rollup_workforce.txt"),
        0x8061_ae40_cc33_0856,
    ),
];

#[test]
fn rollup_replies_and_accumulators_match_the_parent_commit() {
    for (dataset, reply, digest) in GOLDEN {
        let mut session = Session::new(dataset);
        match session.handle(".rollup") {
            Outcome::Continue(text) => assert_eq!(format!("{text}\n"), reply, "{dataset:?}"),
            other => panic!("{dataset:?}: {other:?}"),
        }
        let cube = session.shared().cube();
        let lattice = Lattice::new(cube.geometry().ndims());
        let mut masks: Vec<GroupByMask> = (0..lattice.ndims() as u32).map(|d| 1 << d).collect();
        masks.extend([0, 0b11]);
        if cube.geometry().total_cells() < 1 << 16 {
            masks.push(lattice.full());
        }
        // Unbudgeted and budget-squeezed runs fold every target in the
        // same order, so one digest covers them. The squeezed budget is
        // the costliest single mask's closure, the least that admits all.
        let agg = CubeAggregator::new(cube);
        let biggest = masks.iter().map(|&m| closure_cells(&agg, m)).max().unwrap();
        for budget in [u64::MAX, biggest] {
            let (results, _) = CubeAggregator::new(cube)
                .compute_with_budget(&masks, budget)
                .unwrap();
            assert_eq!(
                acc_digest(&results),
                digest,
                "{dataset:?} budget {budget}: got {:#018x}",
                acc_digest(&results)
            );
        }
    }
}
