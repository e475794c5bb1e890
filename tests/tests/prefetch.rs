//! Prefetching tests: hinted execution must be bit-identical to demand
//! paging, and on a seek-model FileStore the hints must actually land.

use olap_cube::{CubeAggregator, Lattice, ScanOpts};
use olap_store::{Chunk, ChunkId, ChunkStore, FileStore, IoStats, SeekModel, StoreError};
use olap_workload::{retail_example, running_example, Workforce, WorkforceConfig};
use whatif_core::{apply, apply_opts, ExecOpts, Mode, OrderPolicy, Scenario, Semantics, Strategy};

#[test]
fn prefetched_aggregation_matches_demand_paging() {
    let retail = retail_example(42);
    let lattice = Lattice::new(retail.cube.geometry().ndims());
    let masks = lattice.proper_masks();
    let (plain, plain_report) = CubeAggregator::new(&retail.cube).compute(&masks).unwrap();

    retail.cube.start_io_threads(2);
    let (hinted, hinted_report) = CubeAggregator::new(&retail.cube)
        .with_scan(ScanOpts {
            prefetch: 3,
            ..ScanOpts::default()
        })
        .compute(&masks)
        .unwrap();

    assert_eq!(plain.len(), hinted.len());
    for (mask, result) in &plain {
        // Same scan order ⇒ same merge order ⇒ bitwise-equal totals.
        assert_eq!(
            result.grand_total(),
            hinted[mask].grand_total(),
            "mask {mask:b} diverged under prefetch"
        );
    }
    assert_eq!(
        plain_report.base_chunks_scanned,
        hinted_report.base_chunks_scanned
    );
}

#[test]
fn prefetched_whatif_matches_demand_paging() {
    let ex = running_example();
    let scenario = Scenario::negative(ex.org, [1, 3], Semantics::Forward, Mode::Visual);
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
    let plain = apply(&ex.cube, &scenario, &strategy).unwrap();

    ex.cube.start_io_threads(2);
    for prefetch in [1, 3, 8] {
        let hinted = apply_opts(
            &ex.cube,
            &scenario,
            &strategy,
            None,
            ExecOpts {
                scan: ScanOpts {
                    threads: 1,
                    prefetch,
                },
                cache: None,
                ..Default::default()
            },
        )
        .unwrap();
        assert!(
            hinted.cube.same_cells(&plain.cube).unwrap(),
            "prefetch={prefetch} perspective cube diverged"
        );
        // Hints may only change I/O timing, never the work done.
        assert_eq!(hinted.report, plain.report, "prefetch={prefetch}");
    }
}

#[test]
fn prefetch_hits_on_a_seek_model_filestore() {
    let path = std::env::temp_dir().join(format!(
        "perspective-olap-prefetch-test-{}.cube",
        std::process::id()
    ));
    let wf = Workforce::build(WorkforceConfig {
        employees: 200,
        departments: 8,
        changing: 40,
        accounts: 4,
        scenarios: 2,
        backend: olap_cube::StoreBackend::File(path.clone()),
        ..WorkforceConfig::default()
    });
    // Cold pool with a simulated disk: every demand read pays seek
    // latency, so the I/O workers have time to get ahead of the scan.
    wf.cube.with_pool(|pool| {
        pool.flush_all().unwrap();
        let mut guard = pool.store_mut();
        let store = guard
            .as_any_mut()
            .downcast_mut::<FileStore>()
            .expect("file-backed workload");
        store.set_seek_model(Some(SeekModel {
            ns_per_byte: 10.0,
            max_ns: 200_000,
        }));
    });
    wf.cube.with_pool(|pool| pool.clear().unwrap());
    wf.cube.start_io_threads(2);

    let scenario = Scenario::negative(wf.department, [0, 6], Semantics::Forward, Mode::Visual);
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
    apply_opts(
        &wf.cube,
        &scenario,
        &strategy,
        None,
        ExecOpts {
            scan: ScanOpts {
                threads: 1,
                prefetch: 4,
            },
            cache: None,
            ..Default::default()
        },
    )
    .unwrap();

    let st = wf.cube.with_pool(|pool| {
        pool.wait_prefetch_idle();
        pool.stats()
    });
    let resident = wf.cube.with_pool(|pool| pool.resident()) as u64;
    assert!(st.prefetch_issued > 0, "executor issued no hints: {st:?}");
    assert!(st.prefetch_hits > 0, "no prefetch ever landed: {st:?}");
    assert_eq!(
        resident,
        st.misses - st.evictions,
        "prefetch admissions broke the residency invariant: {st:?}"
    );
    drop(wf);
    std::fs::remove_file(&path).ok();
}

/// The prefetch watermark is per *pass*, not per slice: a serial
/// multi-slice what-if hints every chunk of the pass exactly once, so
/// hints span slice boundaries instead of restarting (and re-reading)
/// at each slice.
#[test]
fn prefetch_hints_span_slice_boundaries() {
    let wf = Workforce::build(WorkforceConfig {
        employees: 120,
        departments: 6,
        changing: 30,
        accounts: 3,
        scenarios: 2,
        ..WorkforceConfig::default()
    });
    wf.cube.with_pool(|pool| pool.clear().unwrap());
    wf.cube.start_io_threads(2);

    let scenario = Scenario::negative(wf.department, [0, 6], Semantics::Forward, Mode::Visual);
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
    let result = apply_opts(
        &wf.cube,
        &scenario,
        &strategy,
        None,
        ExecOpts {
            scan: ScanOpts {
                threads: 1,
                prefetch: 4,
            },
            cache: None,
            ..Default::default()
        },
    )
    .unwrap();
    assert!(
        result.report.slices >= 2,
        "workload must span multiple slices: {:?}",
        result.report
    );

    let st = wf.cube.with_pool(|pool| {
        pool.wait_prefetch_idle();
        pool.stats()
    });
    // Within each pass, every chunk of the serial read order except the
    // very first is hinted exactly once — the watermark is monotone over
    // the *concatenated* slice sequences. A per-slice watermark (the
    // pre-PR 3 behavior) would restart at every slice boundary and issue
    // only `chunks_read - slices` hints; crossing boundaries recovers
    // one hint per interior slice edge.
    assert_eq!(
        st.prefetch_issued,
        result.report.chunks_read - result.report.passes,
        "hints must cover each pass's whole read order, slice gaps included: {st:?} {:?}",
        result.report
    );
    assert!(
        st.prefetch_issued > result.report.chunks_read - result.report.slices,
        "hints do not span slice boundaries: {st:?} {:?}",
        result.report
    );
    // No chunk is fetched from the store twice: demand misses plus
    // prefetch admissions account for every resident chunk.
    let resident = wf.cube.with_pool(|pool| pool.resident()) as u64;
    assert_eq!(st.evictions, 0, "pool must be large enough for the test");
    assert_eq!(
        resident, st.misses,
        "a chunk was fetched from the store more than once: {st:?}"
    );
}

/// A store whose reads of one chunk always fail: cuts a scan short at a
/// known chunk, whichever thread gets to it first.
struct PoisonedChunk {
    inner: Box<dyn ChunkStore>,
    bad: ChunkId,
}

impl ChunkStore for PoisonedChunk {
    fn read(&self, id: ChunkId) -> olap_store::Result<Chunk> {
        if id == self.bad {
            return Err(StoreError::Corrupt("poisoned for the test".into()));
        }
        self.inner.read(id)
    }
    fn write(&mut self, id: ChunkId, chunk: &Chunk) -> olap_store::Result<()> {
        self.inner.write(id, chunk)
    }
    fn contains(&self, id: ChunkId) -> bool {
        self.inner.contains(id)
    }
    fn ids(&self) -> Vec<ChunkId> {
        self.inner.ids()
    }
    fn stats(&self) -> &IoStats {
        self.inner.stats()
    }
    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The aggregation scan's lookahead counts *stored* chunks. Workforce's
/// grid is eight times sparser than its store (Currency, Version and
/// HSP_Rates have two leaves, extent 1, one populated — and they vary
/// fastest), so a window counted in grid positions would reach one
/// stored chunk ahead; `ScanOpts { prefetch: 8, .. }` must reach eight.
#[test]
fn aggregation_hints_run_eight_stored_chunks_ahead_on_a_sparse_grid() {
    const K: usize = 8;
    let wf = Workforce::build(WorkforceConfig {
        employees: 200,
        departments: 8,
        changing: 40,
        accounts: 4,
        scenarios: 2,
        ..WorkforceConfig::default()
    });
    let geom = wf.cube.geometry();
    let masks: Vec<u32> = (0..geom.ndims() as u32).map(|d| 1 << d).collect();
    let agg = CubeAggregator::new(&wf.cube).with_scan(ScanOpts {
        prefetch: K,
        ..ScanOpts::default()
    });
    let stored: Vec<ChunkId> = geom
        .chunks_in_order(agg.order())
        .map(|c| geom.chunk_id(&c))
        .filter(|&id| wf.cube.chunk_exists(id))
        .collect();
    assert_eq!(
        geom.total_chunks(),
        8 * stored.len() as u64,
        "8x-sparse grid"
    );
    let cut = 5;
    assert!(
        stored.len() > cut + K + 1,
        "the cut must leave a full window"
    );

    wf.cube.start_io_threads(2);
    let issued = || {
        wf.cube.with_pool(|pool| {
            pool.wait_prefetch_idle();
            pool.stats().prefetch_issued
        })
    };
    // A whole scan hints every stored chunk but the first, once.
    wf.cube.reset_stats();
    agg.compute(&masks).unwrap();
    assert_eq!(issued(), stored.len() as u64 - 1);

    // Cut the scan at stored chunk `cut`: by the time it is read, the
    // window has been slid over chunks 1 ..= cut + K.
    wf.cube.flush().unwrap();
    wf.cube.with_pool(|pool| {
        pool.clear().unwrap();
        pool.wrap_store(|inner| {
            Box::new(PoisonedChunk {
                inner,
                bad: stored[cut],
            })
        });
    });
    wf.cube.reset_stats();
    assert!(
        agg.compute(&masks).is_err(),
        "the poisoned chunk ends the scan"
    );
    assert_eq!(issued(), (cut + K) as u64);
}
