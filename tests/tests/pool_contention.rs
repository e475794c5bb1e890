//! The thread-safe buffer pool under real contention: the shape of many
//! server sessions sharing one pool, each request on its own thread.

use olap_store::{BufferPool, CellValue, Chunk, ChunkId, ChunkStore, MemStore};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Barrier;
use std::time::Duration;
use whatif_integration_tests::fault::{FaultKind, FaultOp, FaultSpec, FaultStore};

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

/// A dirty chunk being written back on eviction has left the frames but
/// may not be in the store yet; it must still exist for `contains` and
/// `ids`, or `Cube::chunk` reads ⊥ and `Cube::set` rebuilds it from an
/// empty chunk. Writers `put` chunks that only the pool holds into a
/// two-frame pool, so nearly every `put` evicts a dirty frame, while
/// checkers ask for every chunk a writer has finished putting. Store
/// writes stall a little (a test-side `FaultStore` delay) to hold the
/// write-back open longer. This is evidence, not proof: a green run says
/// the window was not hit, not that it cannot be.
#[test]
fn evicting_chunks_never_vanish_from_contains_or_ids() {
    const WRITERS: u64 = 4;
    const PER: u64 = 400;
    let stall = FaultSpec {
        op: FaultOp::Write,
        at: 1,
        kind: FaultKind::Delay(Duration::from_micros(50)),
        persistent: true,
    };
    let store = FaultStore::new(Box::new(MemStore::new()), vec![stall]);
    let pool = BufferPool::new(Box::new(store), 2);
    // How many chunks each writer has finished putting: every id below
    // it exists from then on.
    let done: Vec<AtomicU64> = (0..WRITERS).map(|_| AtomicU64::new(0)).collect();
    let writing = AtomicBool::new(true);
    let id = |w: u64, k: u64| ChunkId(w * PER + k);
    let (mut probes, mut listings) = (0u64, 0u64);
    std::thread::scope(|s| {
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let (pool, done) = (&pool, &done);
                s.spawn(move || {
                    for k in 0..PER {
                        let mut c = Chunk::new_dense(vec![2]);
                        c.set(0, CellValue::num((w * PER + k) as f64));
                        pool.put(id(w, k), c).unwrap();
                        done[w as usize].store(k + 1, Ordering::Release);
                    }
                })
            })
            .collect();
        let checkers: Vec<_> = (0..2)
            .map(|t| {
                let (pool, done, writing) = (&pool, &done, &writing);
                s.spawn(move || {
                    let (mut probes, mut listings) = (0u64, 0u64);
                    while writing.load(Ordering::Acquire) {
                        let upto: Vec<u64> =
                            done.iter().map(|d| d.load(Ordering::Acquire)).collect();
                        if t == 0 {
                            for (w, &n) in upto.iter().enumerate() {
                                for k in n.saturating_sub(8)..n {
                                    assert!(pool.contains(id(w as u64, k)), "lost {w}/{k}");
                                    probes += 1;
                                }
                            }
                        } else {
                            let ids = pool.ids();
                            for (w, &n) in upto.iter().enumerate() {
                                for k in 0..n {
                                    let want = id(w as u64, k);
                                    assert!(ids.binary_search(&want).is_ok(), "ids lost {want:?}");
                                }
                            }
                            listings += 1;
                        }
                    }
                    (probes, listings)
                })
            })
            .collect();
        for w in writers {
            w.join().unwrap();
        }
        writing.store(false, Ordering::Release);
        for c in checkers {
            let (p, l) = c.join().unwrap();
            (probes, listings) = (probes + p, listings + l);
        }
    });
    assert!(probes > 0 && listings > 0, "the checkers never ran");
    // Every put admitted a frame and no get ran: what is not resident
    // was evicted, and written back, once.
    let stats = pool.stats();
    assert_eq!(stats.misses, 0);
    assert_eq!(pool.resident() as u64 + stats.evictions, WRITERS * PER);
    for w in 0..WRITERS {
        for k in 0..PER {
            let c = pool.get(id(w, k)).unwrap();
            assert_eq!(c.get(0), CellValue::num((w * PER + k) as f64));
        }
    }
}
