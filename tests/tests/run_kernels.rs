//! Run-kernel gates (DESIGN.md §15): the run decomposition of a chunk
//! covers every local offset exactly once with correct base cells
//! (property-tested over random clipped geometries), and the executor's
//! run kernels give exactly the definitional oracle's cells across
//! semantics, modes, dense and sparse chunk layouts and clipped edges.
//! Also checks that the aggregator's peak is each request's own serial
//! high-water mark, however many requests run at once.

use olap_cube::lattice::memory_cells;
use olap_cube::{CubeAggregator, Lattice};
use olap_store::ChunkGeometry;
use olap_workload::{running_example, Workforce, WorkforceConfig};
use proptest::prelude::*;
use whatif_core::{apply, ExecOpts, Mode, Scenario, Semantics};
use whatif_integration_tests::{concurrently, oracle_result};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Every local offset of every (possibly clipped) chunk appears in
    /// exactly one run, runs are contiguous in the fastest-varying
    /// dimension, and each run's base cell decodes its start offset.
    #[test]
    fn runs_partition_every_chunk_of_random_geometries(
        dims in proptest::collection::vec((1u32..12, 1u32..6), 1..5),
    ) {
        let lens: Vec<u32> = dims.iter().map(|&(l, _)| l).collect();
        let extents: Vec<u32> = dims.iter().map(|&(l, e)| e.min(l)).collect();
        let geom = ChunkGeometry::new(lens, extents).unwrap();
        let last = geom.ndims() - 1;
        for id in geom.all_chunk_ids() {
            let coord = geom.chunk_coord(id);
            let cells = geom.chunk_cell_count(&coord);
            let mut seen = vec![false; cells as usize];
            let mut runs = geom.runs(&coord);
            while let Some((base, start, len)) = runs.next_run() {
                prop_assert!(len >= 1);
                let base = base.to_vec();
                prop_assert_eq!(&base, &geom.cell_of_local(&coord, start));
                for k in 0..len {
                    let off = start + k;
                    prop_assert!(off < cells, "offset {} out of chunk", off);
                    prop_assert!(!seen[off as usize], "offset {} covered twice", off);
                    seen[off as usize] = true;
                    // Within a run only the last coordinate varies.
                    let mut want = base.clone();
                    want[last] += k;
                    prop_assert_eq!(geom.cell_of_local(&coord, off), want);
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "chunk {:?} not fully covered", coord);
        }
    }

    /// `runs_from(coord, split)` partitions the chunk for ANY split axis:
    /// exact one-time coverage, base cells decode their start offsets,
    /// and within a run only coordinates in the axis suffix vary (the
    /// prefix `0..split` is run-constant — the soundness condition the
    /// executor relies on when it splits just after `max(vd, pd)`).
    #[test]
    fn split_runs_partition_chunks_and_pin_prefix_coords(
        dims in proptest::collection::vec((1u32..12, 1u32..6), 1..5),
        split_pick in 0usize..5,
    ) {
        let lens: Vec<u32> = dims.iter().map(|&(l, _)| l).collect();
        let extents: Vec<u32> = dims.iter().map(|&(l, e)| e.min(l)).collect();
        let geom = ChunkGeometry::new(lens, extents).unwrap();
        let split = split_pick % (geom.ndims() + 1);
        for id in geom.all_chunk_ids() {
            let coord = geom.chunk_coord(id);
            let cells = geom.chunk_cell_count(&coord);
            let mut seen = vec![false; cells as usize];
            let mut runs = geom.runs_from(&coord, split);
            while let Some((base, start, len)) = runs.next_run() {
                prop_assert!(len >= 1);
                let base = base.to_vec();
                prop_assert_eq!(&base, &geom.cell_of_local(&coord, start));
                for k in 0..len {
                    let off = start + k;
                    prop_assert!(off < cells, "offset {} out of chunk", off);
                    prop_assert!(!seen[off as usize], "offset {} covered twice", off);
                    seen[off as usize] = true;
                    let cell = geom.cell_of_local(&coord, off);
                    prop_assert_eq!(
                        &cell[..split], &base[..split],
                        "prefix coordinate varied inside a split-{} run", split
                    );
                }
            }
            prop_assert!(seen.iter().all(|&s| s), "chunk {:?} not fully covered", coord);
        }
    }
}

/// Runs one negative scenario through the executor and asserts its
/// perspective cube is cell-identical to the definitional oracle's.
fn assert_kernels_agree(cube: &olap_cube::Cube, scenario: &Scenario, tag: &str) {
    let (runs, _) = apply(cube, scenario, None, &ExecOpts::default()).unwrap();
    let (oracle, _) = oracle_result(cube, scenario);
    assert!(
        runs.same_cells(&oracle).unwrap(),
        "{tag}: run kernels diverged from the oracle"
    );
    assert_eq!(
        runs.present_cell_count().unwrap(),
        oracle.present_cell_count().unwrap(),
        "{tag}: present-cell counts diverged"
    );
}

#[test]
fn kernels_agree_on_running_example_negative_scenarios() {
    // Sparse-ish chunks with clipped edges (extents 2/3/3/2 over axes
    // 8/8/6/4); vd is dim 0 and pd is dim 2, so the per-run fast path
    // applies for fate but the pd check still exercises mixed layouts.
    let ex = running_example();
    for semantics in [
        Semantics::Static,
        Semantics::Forward,
        Semantics::ExtendedForward,
        Semantics::Backward,
    ] {
        for mode in [Mode::Visual, Mode::NonVisual] {
            let scenario = Scenario::negative(ex.org, [0, 3], semantics, mode);
            let tag = format!("running {semantics:?}/{mode:?}");
            assert_kernels_agree(&ex.cube, &scenario, &tag);
        }
    }
}

#[test]
fn kernels_agree_on_all_sparse_chunks() {
    // Rebuild the running-example cube with an impossible dense
    // threshold so every chunk stores as a sorted entry list — the
    // sparse gather/per-cell fallbacks must match the oracle too.
    let ex = running_example();
    let geom = ex.cube.geometry();
    let mut b = olap_cube::Cube::builder(ex.schema.clone(), geom.extents().to_vec())
        .unwrap()
        .dense_threshold(2.0);
    let mut cells: Vec<(Vec<u32>, f64)> = Vec::new();
    ex.cube
        .for_each_present(|cell, v| cells.push((cell.to_vec(), v)))
        .unwrap();
    for (cell, v) in cells {
        b.set_num(&cell, v).unwrap();
    }
    let sparse_cube = b.finish().unwrap();
    assert_eq!(
        sparse_cube.present_cell_count().unwrap(),
        ex.cube.present_cell_count().unwrap()
    );
    let scenario = Scenario::negative(ex.org, [0, 3], Semantics::Forward, Mode::Visual);
    assert_kernels_agree(&sparse_cube, &scenario, "all-sparse");
}

#[test]
fn kernels_agree_on_dense_workforce_relocations() {
    // Dense chunks: the masked-run copy path dominates. The small cube
    // (employee_extent 1 packs the varying axis) has odd axis lengths
    // that leave clipped edge chunks in every dimension; the wide one
    // is merge-heavy — a 64 × 4 Account × Scenario cross-section makes
    // 256-cell runs inside 12288-cell chunks at the default extent.
    let small = WorkforceConfig {
        employees: 60,
        departments: 5,
        changing: 20,
        employee_extent: 1,
        accounts: 3,
        scenarios: 2,
        ..WorkforceConfig::default()
    };
    let wide = WorkforceConfig {
        employees: 400,
        departments: 12,
        changing: 120,
        accounts: 64,
        scenarios: 4,
        ..WorkforceConfig::default()
    };
    // (The wide cube runs the one scenario its old `repro` gate ran.)
    for (name, config, moment_sets) in [
        ("small", small, vec![vec![0u32, 6], vec![0, 4, 8]]),
        ("wide", wide, vec![vec![0, 6]]),
    ] {
        let wf = Workforce::build(config);
        for moments in moment_sets {
            let tag = format!("{name} workforce {moments:?}");
            let scenario =
                Scenario::negative(wf.department, moments, Semantics::Forward, Mode::Visual);
            assert_kernels_agree(&wf.cube, &scenario, &tag);
        }
    }
}

/// Four aggregation requests at once over one workforce cube, each on
/// its own thread, report exactly what one request alone reports: the
/// peak is that request's serial high-water mark, never a sum over other
/// requests' buffers, and it stays inside what its one pass admitted.
#[test]
fn aggregation_concurrent_peak_is_bounded_and_exact_in_serial() {
    let wf = Workforce::build(WorkforceConfig {
        employees: 60,
        departments: 5,
        changing: 20,
        employee_extent: 1,
        accounts: 3,
        scenarios: 2,
        ..WorkforceConfig::default()
    });
    let lattice = Lattice::new(wf.cube.geometry().ndims());
    let masks = lattice.proper_masks();
    let agg = CubeAggregator::new(&wf.cube);
    let (_, alone) = agg.compute(&masks).unwrap();
    assert!(alone.peak_buffer_cells > 0);
    // Every proper mask is in the closure of the request, so its one
    // pass admits Zhao's rule summed over all of them, and runs as is
    // under exactly that budget.
    let admitted: u64 = (masks.iter())
        .map(|&m| memory_cells(wf.cube.geometry(), agg.order(), m))
        .sum();
    assert!(alone.peak_buffer_cells <= admitted);
    assert_eq!(agg.compute_with_budget(&masks, admitted).unwrap().1, alone);
    for report in concurrently(4, || agg.compute(&masks).unwrap().1) {
        assert_eq!(
            report.unwrap(),
            alone,
            "a concurrent request changed the peak"
        );
    }
}
