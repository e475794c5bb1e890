//! Parallel simultaneous aggregation: compute the full group-by lattice
//! of the retail catalog serially and on worker threads, and show the
//! results agree while each worker holds its own buffer budget.
//!
//! ```sh
//! cargo run --release --example parallel_aggregation
//! ```

use olap_cube::{CubeAggregator, Lattice};
use olap_workload::retail_example;

fn main() {
    let retail = retail_example(7);
    let lattice = Lattice::new(retail.cube.geometry().ndims());
    let masks = lattice.proper_masks();
    println!(
        "retail cube: {} dims, {} chunks, {} group-bys requested",
        retail.cube.geometry().ndims(),
        retail.cube.chunk_count(),
        masks.len()
    );

    let (serial, serial_report) = CubeAggregator::new(&retail.cube)
        .compute(&masks)
        .expect("serial aggregation");
    println!(
        "serial   : peak {} buffer cells, {} base chunks scanned",
        serial_report.peak_buffer_cells, serial_report.base_chunks_scanned
    );

    for threads in [2, 4] {
        let (parallel, report) = CubeAggregator::new(&retail.cube)
            .with_threads(threads)
            .compute(&masks)
            .expect("parallel aggregation");
        let agree = masks
            .iter()
            .all(|m| serial[m].grand_total() == parallel[m].grand_total());
        println!(
            "{threads} threads: per-worker peaks {:?} cells, grand totals {}",
            report.per_thread_peak_cells,
            if agree { "identical" } else { "DIVERGED" }
        );
        assert!(agree, "parallel aggregation diverged from serial");
    }

    // One sample group-by, so the numbers are visible: total sales by
    // the first dimension alone (mask 0b0001).
    let mask = 1u32;
    println!(
        "group-by {:04b}: grand total {:?}",
        mask,
        serial[&mask].grand_total()
    );
}
