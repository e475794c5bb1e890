//! Concurrency tests: the thread-safe buffer pool under real contention,
//! and the parallel executors agreeing with their serial counterparts.

use olap_cube::{CubeAggregator, Lattice};
use olap_store::{BufferPool, CellValue, Chunk, ChunkId, ChunkStore, MemStore};
use olap_workload::{retail_example, running_example};
use std::sync::Barrier;
use whatif_core::{apply, ExecOpts, Mode, Scenario, Semantics};

/// A MemStore holding `n` small materialized chunks.
fn store_with_chunks(n: u64) -> Box<dyn ChunkStore> {
    let mut store = MemStore::new();
    for i in 0..n {
        let mut c = Chunk::new_dense(vec![2, 2]);
        c.set(0, CellValue::num(i as f64));
        store.write(ChunkId(i), &c).unwrap();
    }
    Box::new(store)
}

#[test]
fn pool_concurrent_pins_lose_no_peak_updates() {
    // 8 threads get 4 distinct chunks each and rendezvous after their
    // reads: the pool has room for all 32, so exactly 32 frames are
    // resident at the barrier and a lost update to the peak-resident
    // counter is directly observable.
    const THREADS: u64 = 8;
    const PER: u64 = 4;
    let pool = BufferPool::new(store_with_chunks(THREADS * PER), 64);
    let barrier = Barrier::new(THREADS as usize);
    std::thread::scope(|s| {
        for t in 0..THREADS {
            let pool = &pool;
            let barrier = &barrier;
            s.spawn(move || {
                for k in 0..PER {
                    pool.get(ChunkId(t * PER + k)).unwrap();
                }
                barrier.wait();
                assert_eq!(pool.resident(), (THREADS * PER) as usize);
            });
        }
    });
    let stats = pool.stats();
    assert_eq!(
        stats.peak_resident,
        THREADS * PER,
        "lost peak_resident update"
    );
    assert_eq!(stats.misses, THREADS * PER, "each chunk read exactly once");
    assert_eq!(stats.hits, 0);
    assert_eq!(stats.evictions, 0);
}

#[test]
fn pool_eviction_accounting_survives_contention() {
    // A tiny pool hammered by concurrent gets: every admitted
    // frame must be either still resident or accounted as an eviction.
    const IDS: u64 = 32;
    let pool = BufferPool::new(store_with_chunks(IDS), 4);
    std::thread::scope(|s| {
        for t in 0..8u64 {
            let pool = &pool;
            s.spawn(move || {
                for round in 0..200u64 {
                    let id = ChunkId((t * 7 + round * 13) % IDS);
                    let chunk = pool.get(id).unwrap();
                    assert_eq!(chunk.get(0), CellValue::Num(id.0 as f64));
                }
            });
        }
    });
    let stats = pool.stats();
    assert_eq!(stats.hits + stats.misses, 8 * 200, "lost hit/miss updates");
    assert_eq!(
        pool.resident() as u64,
        stats.misses - stats.evictions,
        "admissions minus evictions must equal residency (lost eviction updates)"
    );
}

#[test]
fn retail_parallel_aggregation_matches_serial_grand_totals() {
    let retail = retail_example(42);
    let lattice = Lattice::new(retail.cube.geometry().ndims());
    let masks = lattice.proper_masks();
    let (serial, serial_report) = CubeAggregator::new(&retail.cube).compute(&masks).unwrap();
    assert!(serial_report.per_thread_peak_cells.is_empty());
    for threads in [2, 4] {
        let (parallel, report) = CubeAggregator::new(&retail.cube)
            .with_threads(threads)
            .compute(&masks)
            .unwrap();
        assert_eq!(serial.len(), parallel.len());
        for (mask, result) in &serial {
            // Same subtree ⇒ same merge order ⇒ bitwise-equal totals.
            assert_eq!(
                result.grand_total(),
                parallel[mask].grand_total(),
                "mask {mask:b} at {threads} threads"
            );
        }
        assert!(!report.per_thread_peak_cells.is_empty());
        assert_eq!(
            report.per_thread_peak_cells.iter().sum::<u64>(),
            report.peak_buffer_cells
        );
    }
}

#[test]
fn running_example_whatif_parallel_matches_serial() {
    let ex = running_example();
    let scenario = Scenario::negative(ex.org, [1, 3], Semantics::Forward, Mode::Visual);
    let serial = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
    for threads in [2, 4] {
        let opts = ExecOpts {
            threads,
            ..ExecOpts::default()
        };
        let parallel = apply(&ex.cube, &scenario, None, &opts).unwrap();
        assert!(
            parallel.cube.same_cells(&serial.cube).unwrap(),
            "threads={threads} perspective cube diverged"
        );
    }
}
