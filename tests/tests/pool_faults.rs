//! The buffer pool's fault paths: bounded retry of transient reads and
//! writes, no retry of corruption, waiters that take over a failed read,
//! and dirty frames that survive a failed write-back. Each test builds
//! its pool directly over a [`FaultStore`], so the plan sees every store
//! operation from the pool's first one.

use olap_store::pool::READ_RETRIES;
use olap_store::{BufferPool, CellValue, Chunk, ChunkId, ChunkStore, MemStore, StoreError};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{mpsc, Arc};
use std::time::Duration;
use whatif_integration_tests::fault::{FaultKind, FaultOp, FaultSpec, FaultStore};

/// A store of `n` two-cell chunks; chunk `i` holds `i` in cell 0.
fn store_with(n: u64) -> Box<dyn ChunkStore> {
    let mut s = MemStore::new();
    for i in 0..n {
        let mut c = Chunk::new_dense(vec![2]);
        c.set(0, CellValue::num(i as f64));
        s.write(ChunkId(i), &c).unwrap();
    }
    Box::new(s)
}

/// A pool of `capacity` frames over `store_with(n)` behind `plan`.
fn faulted_pool(n: u64, plan: Vec<FaultSpec>, capacity: usize) -> BufferPool {
    BufferPool::new(Box::new(FaultStore::new(store_with(n), plan)), capacity)
}

/// One-shot faults of `kind` on the `op` operations numbered `at`.
fn one_shot(op: FaultOp, at: impl IntoIterator<Item = u64>, kind: FaultKind) -> Vec<FaultSpec> {
    at.into_iter()
        .map(|at| FaultSpec {
            op,
            at,
            kind,
            persistent: false,
        })
        .collect()
}

/// A terminal eviction write failure must not drop the dirty frame —
/// the update would be lost with no recovery path. The frame is
/// restored (still dirty), the eviction is un-counted, and the next
/// admission retries the write-back.
#[test]
fn failed_eviction_write_restores_dirty_frame() {
    // Enough one-shot write faults to exhaust the retry budget.
    let plan = one_shot(
        FaultOp::Write,
        1..=1 + READ_RETRIES as u64,
        FaultKind::Error,
    );
    let p = faulted_pool(2, plan, 1);
    let mut c = Chunk::new_dense(vec![2]);
    c.set(0, CellValue::num(42.0));
    p.put(ChunkId(0), c).unwrap();
    // Admitting chunk 1 must evict dirty 0; the write-through fails
    // terminally and the error surfaces on the get.
    assert!(matches!(p.get(ChunkId(1)), Err(StoreError::Io(_))));
    assert!(p.contains(ChunkId(0)), "dirty frame must be restored");
    let st = p.stats();
    assert_eq!(st.evictions, 0, "failed eviction stays un-counted");
    assert_eq!(st.write_retries, READ_RETRIES as u64);
    assert_eq!(p.resident(), 1, "only the restored frame is resident");
    // The fault budget is spent: the next admission evicts cleanly
    // and the penned-up update reaches the store.
    p.get(ChunkId(1)).unwrap();
    assert_eq!(
        p.store().read(ChunkId(0)).unwrap().get(0),
        CellValue::Num(42.0)
    );
}

/// A single transient read fault is absorbed by the retry loop: the
/// caller sees success, and the stats record the retry.
#[test]
fn transient_read_fault_is_retried() {
    let p = BufferPool::new(Box::new(FaultStore::fail_nth_read(store_with(2), 1)), 4);
    let c = p.get(ChunkId(0)).unwrap();
    assert_eq!(c.get(0), CellValue::Num(0.0));
    let st = p.stats();
    assert_eq!(st.retries, 1);
    assert_eq!(st.read_errors, 0);
    assert_eq!(st.misses, 1);
}

/// A persistent fault exhausts the retry budget: the error propagates,
/// `read_errors` records it, nothing is admitted, and the chunk's
/// in-flight marker is cleared — a second reader takes the read over
/// and fails the same way instead of waiting on the condvar for an
/// owner that is gone.
#[test]
fn exhausted_retries_surface_error_and_count() {
    let plan = vec![FaultSpec {
        op: FaultOp::Read,
        at: 1,
        kind: FaultKind::Error,
        persistent: true,
    }];
    let p = Arc::new(faulted_pool(2, plan, 4));
    assert!(matches!(p.get(ChunkId(0)), Err(StoreError::Io(_))));
    let st = p.stats();
    assert_eq!(st.retries, READ_RETRIES as u64);
    assert_eq!(st.read_errors, 1);
    assert_eq!(st.misses, 0);
    assert_eq!(p.resident(), 0);
    // On another thread, so a leaked marker fails the test by timeout
    // rather than hanging it.
    let (tx, rx) = mpsc::channel();
    let pool = Arc::clone(&p);
    let reader = std::thread::spawn(move || {
        let _ = tx.send(pool.get(ChunkId(0)).map(|_| ()));
    });
    let second = rx
        .recv_timeout(Duration::from_secs(30))
        .expect("failed read left its in-flight marker: a second get waited");
    reader.join().expect("second reader panicked");
    assert!(matches!(second, Err(StoreError::Io(_))), "{second:?}");
}

/// Corrupt reads are deterministic: no retry, immediate error, counted
/// once.
#[test]
fn corrupt_read_is_not_retried() {
    let p = faulted_pool(1, one_shot(FaultOp::Read, [1], FaultKind::BitFlip), 4);
    assert!(matches!(p.get(ChunkId(0)), Err(StoreError::Corrupt(_))));
    let st = p.stats();
    assert_eq!(st.retries, 0, "corruption must not be retried");
    assert_eq!(st.read_errors, 1);
    // The fault was one-shot; the pool recovers on the next demand.
    assert_eq!(p.get(ChunkId(0)).unwrap().get(0), CellValue::Num(0.0));
}

/// A demand read whose owner fails must wake condvar waiters and let
/// one of them take over the read — never strand them. Three transient
/// faults exhaust the first owner's whole retry budget (1 +
/// READ_RETRIES attempts), so a waiter must take over with attempt 4,
/// which succeeds.
#[test]
fn failed_owner_wakes_waiters_who_retry() {
    let p = faulted_pool(1, one_shot(FaultOp::Read, 1..=3, FaultKind::Error), 4);
    let barrier = std::sync::Barrier::new(8);
    let errors = AtomicUsize::new(0);
    std::thread::scope(|s| {
        for _ in 0..8 {
            let p = &p;
            let barrier = &barrier;
            let errors = &errors;
            s.spawn(move || {
                barrier.wait();
                match p.get(ChunkId(0)) {
                    Ok(c) => assert_eq!(c.get(0), CellValue::Num(0.0)),
                    Err(StoreError::Io(_)) => {
                        errors.fetch_add(1, Ordering::Relaxed);
                    }
                    Err(e) => panic!("unexpected error class: {e}"),
                }
            });
        }
    });
    // Exactly one thread (the first owner) burned the fault budget;
    // every waiter it woke re-raced the slot and succeeded.
    assert_eq!(errors.load(Ordering::Relaxed), 1);
    let st = p.stats();
    assert_eq!(st.read_errors, 1);
    assert_eq!(st.retries, READ_RETRIES as u64);
    assert_eq!(st.misses, 1);
    assert_eq!(p.resident(), 1);
}

/// One transient write fault must not fail the flush: flush writes get
/// the same bounded retry as demand reads, counted in `write_retries`.
#[test]
fn transient_flush_write_fault_is_retried() {
    let p = faulted_pool(0, one_shot(FaultOp::Write, [1], FaultKind::Error), 4);
    let mut c = Chunk::new_dense(vec![2]);
    c.set(0, CellValue::num(5.0));
    p.put(ChunkId(0), c).unwrap();
    p.flush_all().unwrap();
    let st = p.stats();
    assert_eq!(st.write_retries, 1);
    assert_eq!(st.flushes, 1);
    assert_eq!(
        p.store().read(ChunkId(0)).unwrap().get(0),
        CellValue::Num(5.0)
    );
}

/// A terminal flush failure must leave every staged frame dirty (frames
/// written before the error must not be marked clean, or their data
/// could be lost), and the next flush must retry and succeed.
#[test]
fn failed_flush_keeps_frames_dirty_for_retry() {
    // Writes 2..4 fail often enough to exhaust the retry budget
    // mid-flush, after the first chunk already went through.
    let plan = one_shot(
        FaultOp::Write,
        2..=2 + READ_RETRIES as u64,
        FaultKind::Error,
    );
    let p = faulted_pool(0, plan, 8);
    for i in 0..3u64 {
        let mut c = Chunk::new_dense(vec![2]);
        c.set(0, CellValue::num(i as f64 + 10.0));
        p.put(ChunkId(i), c).unwrap();
    }
    assert!(matches!(p.flush_all(), Err(StoreError::Io(_))));
    let st = p.stats();
    assert_eq!(st.flushes, 0);
    assert_eq!(st.write_retries, READ_RETRIES as u64);
    // All three frames are still dirty: the second flush rewrites every
    // one of them and the store ends up complete.
    p.flush_all().unwrap();
    assert_eq!(p.stats().flushes, 1);
    for i in 0..3u64 {
        assert_eq!(
            p.store().read(ChunkId(i)).unwrap().get(0),
            CellValue::Num(i as f64 + 10.0)
        );
    }
}
