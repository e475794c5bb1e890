//! Allocation count of the aggregation scan. A target of its own: the
//! counting `#[global_allocator]` sees every allocation of the process,
//! so nothing else may run beside the one test.

use olap_cube::CubeAggregator;
use olap_workload::{Workforce, WorkforceConfig};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

struct Counting;

static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every call is forwarded unchanged to `System`, which upholds
// the `GlobalAlloc` contract; the counter has no bearing on the memory
// handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: the caller's obligations are passed through as they are.
        unsafe { System.alloc(layout) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System.alloc` above with this layout.
        unsafe { System.dealloc(ptr, layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with `layout`; passed through.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `.rollup` on a Workforce-shaped cube (trailing axes of length 2 and
/// extent 1, an eighth of the grid stored) allocates per grid position
/// and per live buffer, never per cell: the blocks that travel down the
/// cascade are dense arrays taken from a free list.
#[test]
fn workforce_rollup_allocates_per_grid_position_not_per_cell() {
    let wf = Workforce::build(WorkforceConfig {
        employees: 300,
        departments: 8,
        changing: 10,
        ..WorkforceConfig::default()
    });
    let geom = wf.cube.geometry();
    let positions = geom.total_chunks();
    let cells = wf.cube.present_cell_count().unwrap();
    assert_eq!(positions, 8 * wf.cube.chunk_count() as u64);
    assert!(
        cells > 100 * positions,
        "{cells} cells, {positions} positions"
    );
    let masks: Vec<u32> = (0..geom.ndims() as u32).map(|d| 1 << d).collect();

    let before = ALLOCATIONS.load(Ordering::Relaxed);
    let (results, report) = CubeAggregator::new(&wf.cube)
        .compute_with_budget(&masks, u64::MAX)
        .unwrap();
    let allocations = ALLOCATIONS.load(Ordering::Relaxed) - before;

    assert_eq!(results.len(), masks.len());
    assert_eq!(report.base_chunks_scanned, positions);
    // The scan itself: a coordinate (two vectors in the odometer) and a
    // shape per grid position. Everything else — the MMST over 128
    // masks, the plan, one scratch pair, a buffer table and a handful of
    // recycled buffers per node, the results — is independent of both the
    // grid and the data.
    assert!(
        allocations <= 4 * positions + 4096,
        "{allocations} allocations for {positions} grid positions ({cells} cells)"
    );
    assert!(allocations < cells / 50);
}
