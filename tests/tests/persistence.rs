//! File-backed persistence: cubes survive reopen, reorganization
//! preserves contents, what-if queries give identical answers on
//! memory- and file-backed stores, and a crash-torn log tail is
//! recovered (not fatal) on reopen.

use olap_cube::{Cube, StoreBackend};
use olap_store::{BufferPool, CellValue, Chunk, ChunkId, ChunkStore, FileStore, SeekModel};
use olap_workload::{Workforce, WorkforceConfig};
use std::collections::BTreeMap;
use whatif_core::{apply_default, Mode, Scenario, Semantics};
use whatif_integration_tests::commit;

fn tmp(name: &str) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "perspective-olap-it-{}-{}.cube",
        std::process::id(),
        name
    ))
}

fn cleanup(path: &std::path::Path) {
    std::fs::remove_file(path).ok();
}

/// A small two-cell chunk keyed by a single value.
fn marked_chunk(v: f64) -> Chunk {
    let mut c = Chunk::new_dense(vec![8]);
    c.set(0, CellValue::num(v));
    c.set(3, CellValue::num(v * 2.0 + 1.0));
    c
}

/// Reads the full on-disk image of a store as an id → chunk map.
fn disk_image(s: &FileStore) -> BTreeMap<u64, Chunk> {
    s.ids()
        .into_iter()
        .map(|id| (id.0, s.read(id).unwrap()))
        .collect()
}

/// Cell-exact equality between an observed image and a reference one.
fn images_match(got: &BTreeMap<u64, Chunk>, want: &BTreeMap<u64, Chunk>) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .all(|(id, c)| want.get(id).is_some_and(|w| c.same_cells(w)))
}

fn file_workforce(path: &std::path::Path) -> Workforce {
    Workforce::build(WorkforceConfig {
        backend: StoreBackend::File(path.to_path_buf()),
        ..WorkforceConfig::tiny()
    })
}

#[test]
fn file_and_memory_backends_agree() {
    let path = tmp("agree");
    let mem = Workforce::build(WorkforceConfig::tiny());
    let file = file_workforce(&path);
    assert!(mem.cube.same_cells(&file.cube).unwrap());
    // And a what-if gives the same output cube.
    let scenario = Scenario::negative(mem.department, [0, 6], Semantics::Forward, Mode::Visual);
    let a = apply_default(&mem.cube, &scenario).unwrap();
    let b = apply_default(&file.cube, &scenario).unwrap();
    assert!(a.cube.same_cells(&b.cube).unwrap());
    std::fs::remove_file(&path).ok();
}

#[test]
fn reopened_store_serves_the_same_cube() {
    let path = tmp("reopen");
    let wf = file_workforce(&path);
    let expected_total = wf.cube.total_sum().unwrap();
    let expected_cells = wf.cube.present_cell_count().unwrap();
    let schema = std::sync::Arc::clone(wf.cube.schema());
    let geometry = wf.cube.geometry().clone();
    wf.cube.flush().unwrap();
    drop(wf);

    // Reopen the raw store and verify chunk-level integrity.
    let store = FileStore::open(&path).unwrap();
    assert!(!store.ids().is_empty());
    let mut total = 0.0;
    let mut cells = 0u64;
    for id in store.ids() {
        let chunk = store.read(id).unwrap();
        for (_, v) in chunk.present_cells() {
            total += v;
            cells += 1;
        }
    }
    assert!((total - expected_total).abs() < 1e-6);
    assert_eq!(cells, expected_cells);
    let _ = (schema, geometry);
    std::fs::remove_file(&path).ok();
}

#[test]
fn reorganize_preserves_query_results() {
    let path = tmp("reorg");
    let wf = file_workforce(&path);
    let before = wf.cube.total_sum().unwrap();
    let scenario = Scenario::negative(wf.department, [3], Semantics::Static, Mode::Visual);
    let r_before = apply_default(&wf.cube, &scenario).unwrap();
    let total_before = r_before.cube.total_sum().unwrap();

    // Reverse the physical chunk order, then re-ask.
    wf.cube.with_pool(|pool| {
        pool.clear().unwrap();
        let ids: Vec<_> = pool.store().ids().into_iter().rev().collect();
        let mut guard = pool.store_mut();
        let store = guard.as_any_mut().downcast_mut::<FileStore>().unwrap();
        store.reorganize(&ids).unwrap();
        store.set_seek_model(Some(SeekModel::default_disk()));
    });
    assert_eq!(wf.cube.total_sum().unwrap(), before);
    let r_after = apply_default(&wf.cube, &scenario).unwrap();
    assert!((r_after.cube.total_sum().unwrap() - total_before).abs() < 1e-9);
    assert!(r_after.cube.same_cells(&r_before.cube).unwrap());
    std::fs::remove_file(&path).ok();
}

/// The torn-tail matrix: four records committed, then a
/// tear inside a fifth record's transaction — mid-header, mid-payload,
/// exactly at the record boundary, and at the transaction boundary.
/// Every committed record must survive the reopen, bit for bit.
#[test]
fn torn_tail_matrix_recovers_pre_tear_records() {
    const REC_HEADER: u64 = 12; // chunk id u64 + payload len u32

    let base = tmp("torn");
    let committed_end;
    let mut payload_offsets = Vec::new();
    {
        let mut s = FileStore::create(&base).unwrap();
        let chunks: Vec<_> = (0..5u64)
            .map(|i| {
                let mut c = Chunk::new_dense(vec![8]);
                for j in 0..8u32 {
                    c.set(j, CellValue::num((i * 8) as f64 + j as f64));
                }
                (ChunkId(i), c)
            })
            .collect();
        commit(&mut s, &chunks[..4]);
        committed_end = s.file_size();
        // The fifth record's transaction never commits.
        s.begin_flush().unwrap();
        s.write(chunks[4].0, &chunks[4].1).unwrap();
        for i in 0..5u64 {
            payload_offsets.push(s.offset_of(ChunkId(i)).unwrap());
        }
    }
    let bytes = std::fs::read(&base).unwrap();
    let last_start = payload_offsets[4] - REC_HEADER;

    // (tear description, bytes kept, records expected after reopen)
    let cases = [
        ("mid-header", last_start + 5, 4u64),
        ("mid-payload", payload_offsets[4] + 3, 4),
        ("boundary", last_start, 4),
        ("committed", committed_end, 4),
    ];
    for (what, cut, keep) in cases {
        let torn = tmp(&format!("torn-{what}"));
        std::fs::write(&torn, &bytes[..cut as usize]).unwrap();
        let s = FileStore::open(&torn).unwrap_or_else(|e| panic!("{what}: open failed: {e}"));
        assert_eq!(s.ids().len() as u64, keep, "{what}");
        for i in 0..keep {
            let c = s.read(ChunkId(i)).unwrap();
            for j in 0..8u32 {
                assert_eq!(
                    c.get(j),
                    CellValue::Num((i * 8) as f64 + j as f64),
                    "{what}: chunk {i} cell {j} damaged"
                );
            }
        }
        if cut == committed_end {
            // A cut at the transaction boundary leaves a perfectly
            // clean (shorter) file — nothing to recover, nothing to
            // report.
            assert!(s.tail_recovery().is_none(), "{what}");
        } else {
            let tr = s
                .tail_recovery()
                .unwrap_or_else(|| panic!("{what}: tear not reported"));
            // The committed transaction's BEGIN, records and COMMIT.
            assert_eq!(tr.records_recovered, keep + 2, "{what}");
            assert_eq!(tr.records_rolled_back, 1, "{what}: the open BEGIN");
            assert_eq!(tr.bytes_truncated, cut - committed_end, "{what}");
            assert_eq!(s.file_size(), committed_end, "{what}");
        }
        // Recovery is physical: the store accepts appends and a
        // second open is clean.
        drop(s);
        let mut s = FileStore::open(&torn).unwrap();
        assert!(s.tail_recovery().is_none(), "{what}: reopen dirty");
        let mut c = Chunk::new_dense(vec![8]);
        c.set(0, CellValue::num(777.0));
        commit(&mut s, &[(ChunkId(50), c)]);
        assert_eq!(s.read(ChunkId(50)).unwrap().get(0), CellValue::Num(777.0));
        std::fs::remove_file(&torn).ok();
    }
    std::fs::remove_file(&base).ok();
}

/// A torn write can leave a structurally complete record of garbage
/// after the last `COMMIT`; the reopen must cut it (no `COMMIT` seals
/// it) and keep the committed prefix.
#[test]
fn torn_full_length_garbage_record_is_dropped() {
    let path = tmp("torn-garbage-rec");
    {
        let mut s = FileStore::create(&path).unwrap();
        let chunks: Vec<_> = (0..3u64)
            .map(|i| {
                let mut c = Chunk::new_dense(vec![4]);
                c.set(0, CellValue::num(i as f64));
                (ChunkId(i), c)
            })
            .collect();
        commit(&mut s, &chunks);
    }
    let clean_len = std::fs::metadata(&path).unwrap().len();
    {
        use std::io::Write;
        let mut f = std::fs::OpenOptions::new()
            .append(true)
            .open(&path)
            .unwrap();
        // A complete record frame promising 16 payload bytes of noise.
        f.write_all(&7u64.to_le_bytes()).unwrap();
        f.write_all(&16u32.to_le_bytes()).unwrap();
        f.write_all(&[0x5A; 16]).unwrap();
    }
    let s = FileStore::open(&path).unwrap();
    let tr = s.tail_recovery().expect("garbage record must be reported");
    assert_eq!(tr.records_recovered, 5, "BEGIN, three chunks, COMMIT");
    assert_eq!(tr.records_rolled_back, 1, "the garbage record");
    assert_eq!(s.file_size(), clean_len);
    assert!(!s.contains(ChunkId(7)));
    for i in 0..3u64 {
        assert_eq!(s.read(ChunkId(i)).unwrap().get(0), CellValue::Num(i as f64));
    }
    std::fs::remove_file(&path).ok();
}

#[test]
fn dirty_cube_flushes_through_pool_pressure() {
    // Writes through a tiny pool must survive eviction churn.
    let path = tmp("pressure");
    let schema = std::sync::Arc::new({
        let mut s = olap_model::Schema::new();
        let d = s.add_dimension("D");
        for i in 0..64 {
            s.dim_mut(d).add_child_of_root(&format!("m{i}")).unwrap();
        }
        s.seal();
        s
    });
    let cube = Cube::builder(std::sync::Arc::clone(&schema), vec![4])
        .unwrap()
        .backend(StoreBackend::File(path.clone()))
        .pool_capacity(2)
        .finish()
        .unwrap();
    for i in 0..64u32 {
        cube.set(&[i], olap_store::CellValue::num(i as f64))
            .unwrap();
    }
    cube.flush().unwrap();
    for i in 0..64u32 {
        assert_eq!(
            cube.get(&[i]).unwrap(),
            olap_store::CellValue::Num(i as f64)
        );
    }
    assert!(cube.pool_stats().evictions > 0, "pool pressure happened");
    std::fs::remove_file(&path).ok();
}

/// The crash-point matrix of ISSUE 5: inject a crash after every
/// possible physical store op during a pool flush.
/// The reopened store must be cell-identical to exactly the pre-flush
/// or the post-flush image — never a mix of the two.
#[test]
fn pool_flush_crash_points_recover_exact_image() {
    let tag = "crashmat";

    // Reference images: four chunks committed up front, then a
    // second flush that overwrites three and adds a fifth.
    let pre: BTreeMap<u64, Chunk> = (0..4u64).map(|i| (i, marked_chunk(i as f64))).collect();
    let mut post = pre.clone();
    for i in 0..3u64 {
        post.insert(i, marked_chunk(100.0 + i as f64));
    }
    post.insert(9, marked_chunk(999.0));
    let dirty: Vec<u64> = vec![0, 1, 2, 9];

    // One run of the scenario; `crash_op` of `None` is the dry
    // run that learns the deterministic op-schedule length.
    let run = |crash_op: Option<u64>, path: &std::path::Path| -> (bool, u64) {
        cleanup(path);
        let pool = BufferPool::new(Box::new(FileStore::create(path).unwrap()), 16);
        for (id, c) in &pre {
            pool.put(ChunkId(*id), c.clone()).unwrap();
        }
        pool.flush_all().unwrap();
        let before = {
            let guard = pool.store();
            guard
                .as_any()
                .downcast_ref::<FileStore>()
                .unwrap()
                .phys_ops()
        };
        {
            let mut guard = pool.store_mut();
            let fs = guard.as_any_mut().downcast_mut::<FileStore>().unwrap();
            fs.set_crash_after_ops(crash_op);
        }
        for id in &dirty {
            pool.put(ChunkId(*id), post[id].clone()).unwrap();
        }
        let ok = pool.flush_all().is_ok();
        let ops = {
            let guard = pool.store();
            guard
                .as_any()
                .downcast_ref::<FileStore>()
                .unwrap()
                .phys_ops()
                - before
        };
        (ok, ops)
    };

    let dry = tmp(&format!("{tag}-dry"));
    let (ok, total_ops) = run(None, &dry);
    assert!(ok, "{tag}: dry run must flush cleanly");
    cleanup(&dry);
    // One flush transaction of the four dirty chunks: the BEGIN append,
    // four chunk appends, the fsync of the records, the COMMIT append
    // and its fsync.
    assert_eq!(total_ops, 1 + 4 + 3, "{tag}: op schedule");

    let (mut saw_pre, mut saw_post) = (0u64, 0u64);
    for k in 0..=total_ops {
        let path = tmp(&format!("{tag}-k{k}"));
        let (ok, _) = run(Some(k), &path);
        assert_eq!(
            ok,
            k >= total_ops,
            "{tag}: k={k} flush outcome out of schedule"
        );
        let got = disk_image(&FileStore::open(&path).unwrap());
        if images_match(&got, &pre) {
            saw_pre += 1;
        } else if images_match(&got, &post) {
            saw_post += 1;
        } else {
            panic!("{tag}: k={k} recovered a mixed image: {:?}", got.keys());
        }
        if k == total_ops {
            assert!(images_match(&got, &post), "{tag}: clean flush lost data");
        }
        cleanup(&path);
    }
    // Every crash before the COMMIT append rolls back; the crash at its
    // fsync and the uncrashed run (k = total_ops) recover the post-image.
    assert_eq!((saw_pre, saw_post), (total_ops - 1, 2), "{tag}");
}

/// The ISSUE 6 satellite sweep: the write at the crash point is a dirty
/// *eviction* (demand admission under a capacity-1 pool), not a
/// `flush_all`. PR 5 closed the flush path but evictions still wrote
/// through bare; routed through `begin_flush`/`commit_flush` they must
/// now satisfy the same contract — a crash after every physical store
/// op recovers exactly the pre- or post-eviction image, never a mix.
#[test]
fn dirty_eviction_crash_points_recover_exact_image() {
    let tag = "evictmat";

    // Reference images: chunks 0 and 1 committed up front; the
    // eviction writes an updated chunk 0 through.
    let pre: BTreeMap<u64, Chunk> = (0..2u64).map(|i| (i, marked_chunk(i as f64))).collect();
    let mut post = pre.clone();
    post.insert(0, marked_chunk(100.0));

    // One run: dirty chunk 0 in a capacity-1 pool, then demand
    // chunk 1 so the eviction write-through is the only store
    // write in the armed window. `None` is the dry run that
    // learns the deterministic op-schedule length.
    let run = |crash_op: Option<u64>, path: &std::path::Path| -> (bool, u64) {
        cleanup(path);
        let mut s = FileStore::create(path).unwrap();
        let base: Vec<_> = pre
            .iter()
            .map(|(id, c)| (ChunkId(*id), c.clone()))
            .collect();
        commit(&mut s, &base);
        let before = s.phys_ops();
        s.set_crash_after_ops(crash_op);
        let pool = BufferPool::new(Box::new(s), 1);
        pool.put(ChunkId(0), post[&0].clone()).unwrap();
        let ok = pool.get(ChunkId(1)).is_ok();
        let ops = {
            let guard = pool.store();
            guard
                .as_any()
                .downcast_ref::<FileStore>()
                .unwrap()
                .phys_ops()
                - before
        };
        (ok, ops)
    };

    let dry = tmp(&format!("{tag}-dry"));
    let (ok, total_ops) = run(None, &dry);
    assert!(ok, "{tag}: dry run must evict cleanly");
    cleanup(&dry);
    // The eviction's single-chunk transaction: the BEGIN append, the
    // chunk append, the fsync of the record, the COMMIT append and its
    // fsync.
    assert_eq!(total_ops, 1 + 1 + 3, "{tag}: op schedule");

    let (mut saw_pre, mut saw_post) = (0u64, 0u64);
    for k in 0..=total_ops {
        let path = tmp(&format!("{tag}-k{k}"));
        let (ok, _) = run(Some(k), &path);
        assert_eq!(
            ok,
            k >= total_ops,
            "{tag}: k={k} eviction outcome out of schedule"
        );
        let got = disk_image(&FileStore::open(&path).unwrap());
        if images_match(&got, &pre) {
            saw_pre += 1;
        } else if images_match(&got, &post) {
            saw_post += 1;
        } else {
            panic!("{tag}: k={k} recovered a mixed image: {:?}", got.keys());
        }
        if k == total_ops {
            assert!(images_match(&got, &post), "{tag}: clean eviction lost data");
        }
        cleanup(&path);
    }
    // Every crash before the COMMIT append rolls back; the crash at its
    // fsync and the uncrashed run (k = total_ops) recover the post-image.
    assert_eq!((saw_pre, saw_post), (total_ops - 1, 2), "{tag}");
}

mod crash_interleavings {
    use super::*;
    use proptest::prelude::*;
    use std::sync::atomic::{AtomicU64, Ordering};

    /// Distinguishes concurrently-running proptest cases in temp paths.
    static CASE: AtomicU64 = AtomicU64::new(0);

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(24))]

        /// Random flush/crash interleavings: run a random sequence of
        /// put-batches separated by flushes, then crash after a random
        /// number of physical ops during the final flush (possibly past
        /// the end of its schedule, in which case it succeeds). The
        /// recovered image must be exactly the image as of one of the
        /// two adjacent flush boundaries.
        #[test]
        fn random_flush_crash_recovers_a_flush_boundary(
            flushes in proptest::collection::vec(
                proptest::collection::vec((0u64..6, 0u32..1000), 1..5), 1..4),
            crash_op in 0u64..40,
        ) {
            let case = CASE.fetch_add(1, Ordering::Relaxed);
            let path = tmp(&format!("crashprop-{case}"));
            cleanup(&path);
            let s = FileStore::create(&path).unwrap();
            let pool = BufferPool::new(Box::new(s), 16);

            // `mirror` tracks the logical contents; `prev_image` is a
            // snapshot of it as of the last committed flush.
            let mut mirror: BTreeMap<u64, Chunk> = BTreeMap::new();
            let mut prev_image = mirror.clone();
            let mut final_flush_ok = true;
            for (j, batch) in flushes.iter().enumerate() {
                for &(id, v) in batch {
                    let c = marked_chunk(f64::from(v) + id as f64 / 7.0);
                    pool.put(ChunkId(id), c.clone()).unwrap();
                    mirror.insert(id, c);
                }
                if j + 1 == flushes.len() {
                    {
                        let mut guard = pool.store_mut();
                        guard
                            .as_any_mut()
                            .downcast_mut::<FileStore>()
                            .unwrap()
                            .set_crash_after_ops(Some(crash_op));
                    }
                    final_flush_ok = pool.flush_all().is_ok();
                } else {
                    pool.flush_all().unwrap();
                    prev_image = mirror.clone();
                }
            }
            drop(pool);

            let got = disk_image(&FileStore::open(&path).unwrap());
            if final_flush_ok {
                prop_assert!(
                    images_match(&got, &mirror),
                    "case {case}: committed flush not visible after reopen"
                );
            } else {
                prop_assert!(
                    images_match(&got, &prev_image) || images_match(&got, &mirror),
                    "case {case}: recovered image matches neither flush boundary"
                );
            }
            cleanup(&path);
        }
    }
}
