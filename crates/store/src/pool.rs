//! A fixed-capacity, thread-safe buffer pool over a chunk store.
//!
//! The pool is the measuring instrument for Section 5 of the paper: the
//! perspective-cube executor *pins* every chunk that still awaits a merge,
//! and [`PoolStats::peak_pinned`] then equals the number of pebbles the
//! chosen read order required. Unpinned chunks are cached LRU up to
//! `capacity`; pinned chunks are never evicted (the pool grows past
//! capacity if it must, counting [`PoolStats::overflows`]).
//!
//! Concurrency: every method takes `&self`. Frames are partitioned into
//! [`SHARD_COUNT`] independently locked shards so parallel aggregation
//! workers contend only when touching the same shard; counters are
//! atomics. The backing store sits behind a `RwLock` — reads proceed
//! concurrently, writes (flushes) are exclusive. Lock order is always
//! one shard at a time, then the store, so the pool cannot deadlock
//! against itself. Concurrent misses on the *same* chunk are
//! deduplicated: the first thread reads while the rest wait on the
//! shard's condvar, so each admission is exactly one store read and
//! exactly one counted miss (`resident == misses - evictions` holds
//! under contention). Residency can still transiently exceed
//! `capacity` by at most one frame per thread admitting a *distinct*
//! chunk; in single-threaded use the LRU behavior (victim choice,
//! eviction and overflow counts) is exactly that of the previous
//! exclusive pool.
//!
//! Prefetching: [`BufferPool::prefetch`] queues chunk ids for a small
//! pool of background I/O workers ([`BufferPool::with_io_threads`]), so
//! store reads overlap the caller's compute. Workers admit chunks
//! through the same per-shard in-flight/condvar machinery as demand
//! misses: a demand `get()` racing a prefetch of the same chunk either
//! hits the already-admitted frame or waits on the in-flight slot —
//! never a duplicate store read, and exactly one counted miss. With no
//! I/O workers running, `prefetch` is a no-op, so `--prefetch 0`
//! behavior is bit-identical to a pool without the feature.
//!
//! Fault handling (DESIGN.md §11): a demand read that fails with a
//! *transient* ([`crate::StoreError::Io`]) error is retried a bounded
//! number of times with backoff before the error propagates;
//! deterministic failures (`Corrupt`, `MissingChunk`) are never
//! retried. A failed read always clears the in-flight slot and wakes
//! condvar waiters — they re-enter the miss path and retry rather than
//! hanging on a slot whose owner errored out. Prefetch-worker read
//! errors are still deferred to the demand read (a prefetch is a hint)
//! but are now *counted* in [`PoolStats::read_errors`] instead of
//! vanishing.

use crate::chunk::Chunk;
use crate::error::StoreError;
use crate::geometry::ChunkId;
use crate::store::ChunkStore;
use crate::Result;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{HashMap, HashSet, VecDeque};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Extra read attempts after a transient (`StoreError::Io`) failure
/// before the error propagates to the caller.
pub const READ_RETRIES: u32 = 2;

/// Backoff before retry `n` (1-based): `n × READ_RETRY_BACKOFF`.
pub const READ_RETRY_BACKOFF: Duration = Duration::from_micros(50);

/// Number of frame shards (fixed; chunk ids are multiplicatively hashed
/// across them).
pub const SHARD_COUNT: usize = 16;

/// Pool counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PoolStats {
    /// Requests satisfied from the pool.
    pub hits: u64,
    /// Store reads that admitted a frame: demand misses plus prefetch
    /// admissions (so `resident == misses - evictions` stays exact).
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Maximum simultaneously resident frames.
    pub peak_resident: u64,
    /// Maximum simultaneously pinned frames — the "pebble count" of
    /// Section 5.2.
    pub peak_pinned: u64,
    /// Times a frame had to be admitted with every other frame pinned
    /// (capacity exceeded).
    pub overflows: u64,
    /// Chunk ids handed to [`BufferPool::prefetch`] while I/O workers
    /// were running (hints dropped for lack of workers are not counted).
    pub prefetch_issued: u64,
    /// Demand requests that found a prefetched frame already resident
    /// (each prefetched frame is counted at most once, on first touch).
    pub prefetch_hits: u64,
    /// Prefetched frames evicted or cleared before any demand touch —
    /// wasted store reads.
    pub prefetch_wasted: u64,
    /// Store reads that ultimately failed with an I/O or corruption
    /// error (after retries; missing-chunk lookups are a caller error,
    /// not a store failure, and are not counted). Includes
    /// prefetch-worker reads, whose errors are otherwise deferred to
    /// the demand read.
    pub read_errors: u64,
    /// Transient-failure read attempts that were retried (each backoff
    /// retry counts once, whether or not it eventually succeeded).
    pub retries: u64,
    /// Transient-failure write attempts (flush or eviction) that were
    /// retried with backoff, mirroring `retries` for the read path.
    pub write_retries: u64,
    /// Completed [`BufferPool::flush_all`] calls that committed at
    /// least one dirty frame.
    pub flushes: u64,
}

impl PoolStats {
    /// The counter difference `self − baseline`: pool activity since
    /// `baseline` was snapshotted, without globally resetting the
    /// counters (which would race with concurrent measurement).
    /// Monotone counters subtract saturating (a `reset_stats` between
    /// the snapshots never underflows); `peak_resident`/`peak_pinned`
    /// are high-water marks, not monotone counters, so the later
    /// snapshot's value is kept as-is.
    pub fn delta(&self, baseline: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(baseline.hits),
            misses: self.misses.saturating_sub(baseline.misses),
            evictions: self.evictions.saturating_sub(baseline.evictions),
            peak_resident: self.peak_resident,
            peak_pinned: self.peak_pinned,
            overflows: self.overflows.saturating_sub(baseline.overflows),
            prefetch_issued: self
                .prefetch_issued
                .saturating_sub(baseline.prefetch_issued),
            prefetch_hits: self.prefetch_hits.saturating_sub(baseline.prefetch_hits),
            prefetch_wasted: self
                .prefetch_wasted
                .saturating_sub(baseline.prefetch_wasted),
            read_errors: self.read_errors.saturating_sub(baseline.read_errors),
            retries: self.retries.saturating_sub(baseline.retries),
            write_retries: self.write_retries.saturating_sub(baseline.write_retries),
            flushes: self.flushes.saturating_sub(baseline.flushes),
        }
    }
}

#[derive(Debug)]
struct Frame {
    chunk: Arc<Chunk>,
    pins: u32,
    last_use: u64,
    dirty: bool,
    /// Admitted by a prefetch worker and not yet touched by a demand
    /// request; resolves to `prefetch_hits` or `prefetch_wasted`.
    prefetched: bool,
}

#[derive(Debug, Default)]
struct Shard {
    frames: HashMap<ChunkId, Frame>,
    /// Chunks some thread is currently reading from the store; other
    /// threads missing on the same chunk wait instead of re-reading.
    in_flight: HashSet<ChunkId>,
}

/// One lockable frame shard plus the condvar its in-flight readers
/// signal on.
#[derive(Debug, Default)]
struct ShardSlot {
    shard: Mutex<Shard>,
    read_done: Condvar,
}

/// Prefetch work queue shared with the I/O workers.
#[derive(Debug, Default)]
struct IoQueue {
    queue: VecDeque<ChunkId>,
    shutdown: bool,
}

/// Pool state shared between the owning [`BufferPool`] handle and its
/// background I/O workers.
struct PoolInner {
    store: RwLock<Box<dyn ChunkStore>>,
    capacity: usize,
    shards: Vec<ShardSlot>,
    tick: AtomicU64,
    resident: AtomicUsize,
    pinned: AtomicUsize,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    peak_resident: AtomicU64,
    peak_pinned: AtomicU64,
    overflows: AtomicU64,
    prefetch_issued: AtomicU64,
    prefetch_hits: AtomicU64,
    prefetch_wasted: AtomicU64,
    read_errors: AtomicU64,
    retries: AtomicU64,
    write_retries: AtomicU64,
    flushes: AtomicU64,
    /// When set, [`BufferPool::flush_all`] fsyncs the store after
    /// writing dirty frames.
    durable_flush: AtomicBool,
    io_queue: Mutex<IoQueue>,
    io_ready: Condvar,
    /// Prefetch reads popped from the queue but not yet admitted
    /// (bumped under the queue lock so idle-waiters see no gap).
    io_busy: AtomicUsize,
}

/// Sharded LRU buffer pool with pinning and optional background
/// prefetching; safe for concurrent readers.
pub struct BufferPool {
    inner: Arc<PoolInner>,
    io_workers: Mutex<Vec<JoinHandle<()>>>,
}

/// Read access to the pool's backing store (guard; holds the store's
/// read lock while alive).
pub struct StoreRef<'a>(parking_lot::RwLockReadGuard<'a, Box<dyn ChunkStore>>);

impl Deref for StoreRef<'_> {
    type Target = dyn ChunkStore;
    fn deref(&self) -> &(dyn ChunkStore + 'static) {
        self.0.as_ref()
    }
}

/// Exclusive access to the pool's backing store (guard; holds the
/// store's write lock while alive).
pub struct StoreMut<'a>(parking_lot::RwLockWriteGuard<'a, Box<dyn ChunkStore>>);

impl Deref for StoreMut<'_> {
    type Target = dyn ChunkStore;
    fn deref(&self) -> &(dyn ChunkStore + 'static) {
        self.0.as_ref()
    }
}

impl DerefMut for StoreMut<'_> {
    fn deref_mut(&mut self) -> &mut (dyn ChunkStore + 'static) {
        self.0.as_mut()
    }
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BufferPool")
            .field("capacity", &self.inner.capacity)
            .field("resident", &self.resident())
            .field("io_threads", &self.io_threads())
            .field("stats", &self.stats())
            .finish()
    }
}

fn shard_of(id: ChunkId) -> usize {
    ((id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 48) as usize % SHARD_COUNT
}

/// Body of one background I/O worker: pop ids and admit them until told
/// to shut down.
fn io_worker_loop(inner: Arc<PoolInner>) {
    loop {
        let id = {
            let mut q = inner.io_queue.lock();
            loop {
                if q.shutdown {
                    return;
                }
                if let Some(id) = q.queue.pop_front() {
                    // Claimed under the queue lock so `wait_prefetch_idle`
                    // never observes "queue empty, nothing busy" mid-pop.
                    inner.io_busy.fetch_add(1, Ordering::Relaxed);
                    break id;
                }
                inner.io_ready.wait(&mut q);
            }
        };
        inner.prefetch_one(id);
        inner.io_busy.fetch_sub(1, Ordering::Relaxed);
    }
}

impl PoolInner {
    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Store read with bounded retry/backoff for transient
    /// (`StoreError::Io`) failures; deterministic failures (`Corrupt`,
    /// `MissingChunk`, …) propagate immediately. Counts every retry in
    /// `retries` and the final failure — missing chunks excepted — in
    /// `read_errors`.
    fn read_with_retry(&self, id: ChunkId) -> Result<Chunk> {
        let mut attempt = 0u32;
        loop {
            match self.store.read().read(id) {
                Ok(c) => return Ok(c),
                Err(StoreError::Io(_)) if attempt < READ_RETRIES => {
                    attempt += 1;
                    self.retries.fetch_add(1, Ordering::Relaxed);
                    // Backoff outside the store lock so concurrent
                    // readers of healthy chunks proceed meanwhile.
                    std::thread::sleep(READ_RETRY_BACKOFF * attempt);
                }
                Err(e) => {
                    if !matches!(e, StoreError::MissingChunk(_)) {
                        self.read_errors.fetch_add(1, Ordering::Relaxed);
                    }
                    return Err(e);
                }
            }
        }
    }

    /// Store write with the same bounded retry/backoff policy as
    /// [`PoolInner::read_with_retry`]: transient (`StoreError::Io`)
    /// failures get `READ_RETRIES` extra attempts, deterministic ones
    /// propagate immediately. The caller holds the store's write lock,
    /// so the backoff sleeps under it — writes are exclusive anyway,
    /// and releasing mid-flush would let another writer interleave into
    /// an open flush transaction.
    fn write_with_retry(
        &self,
        store: &mut dyn ChunkStore,
        id: ChunkId,
        chunk: &Chunk,
    ) -> Result<()> {
        let mut attempt = 0u32;
        loop {
            match store.write(id, chunk) {
                Ok(()) => return Ok(()),
                Err(StoreError::Io(_)) if attempt < READ_RETRIES => {
                    attempt += 1;
                    self.write_retries.fetch_add(1, Ordering::Relaxed);
                    std::thread::sleep(READ_RETRY_BACKOFF * attempt);
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Records a transition of a frame's pin count from zero.
    fn note_first_pin(&self) {
        let now = self.pinned.fetch_add(1, Ordering::Relaxed) + 1;
        self.peak_pinned.fetch_max(now as u64, Ordering::Relaxed);
    }

    /// Scores a hit, resolving a prefetched frame to a prefetch hit on
    /// its first demand touch.
    fn note_hit(&self, f: &mut Frame) {
        self.hits.fetch_add(1, Ordering::Relaxed);
        if f.prefetched {
            f.prefetched = false;
            self.prefetch_hits.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// Evicts least-recently-used unpinned frames until residency drops
    /// below capacity, or counts an overflow if everything is pinned.
    fn make_room(&self) -> Result<()> {
        while self.resident.load(Ordering::Relaxed) >= self.capacity {
            // Global LRU victim: scan shards one lock at a time.
            let mut victim: Option<(u64, usize, ChunkId)> = None;
            for (si, slot) in self.shards.iter().enumerate() {
                let sh = slot.shard.lock();
                for (&id, f) in &sh.frames {
                    if f.pins == 0 && victim.map(|(lu, _, _)| f.last_use < lu).unwrap_or(true) {
                        victim = Some((f.last_use, si, id));
                    }
                }
            }
            let Some((last_use, si, id)) = victim else {
                if self.resident.load(Ordering::Relaxed) < self.capacity {
                    // A concurrent eviction made room during the scan.
                    return Ok(());
                }
                if self.pinned.load(Ordering::Relaxed) == 0 {
                    // Nothing is pinned, so unpinned frames exist — the
                    // scan just raced admissions/evictions. Rescan
                    // rather than count a spurious overflow.
                    continue;
                }
                // Everything is pinned: exceed capacity rather than fail —
                // Section 5's point is to *measure* this, not crash.
                self.overflows.fetch_add(1, Ordering::Relaxed);
                return Ok(());
            };
            let mut sh = self.shards[si].shard.lock();
            // Revalidate under the shard lock: the frame may have been
            // pinned, touched, or removed since the scan.
            let still_victim = sh
                .frames
                .get(&id)
                .map(|f| f.pins == 0 && f.last_use == last_use)
                .unwrap_or(false);
            if !still_victim {
                continue;
            }
            let frame = sh.frames.remove(&id).expect("checked above");
            // Decrement residency before releasing the shard lock so a
            // concurrent victimless scan never sees the removed frame
            // still counted (which would read as an overflow).
            self.resident.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if frame.prefetched {
                self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
            }
            if frame.dirty {
                self.evict_dirty(si, id, frame, sh)?;
            }
        }
        Ok(())
    }

    /// Writes an evicted dirty frame through to the store as its own
    /// single-chunk WAL transaction (`begin_flush` … `commit_flush`),
    /// so a crash mid-eviction recovers to the pre- or post-image and
    /// never persists part of a logical update outside any transaction.
    ///
    /// The caller has already removed the frame from its shard and
    /// still holds the shard guard. `id` is parked in the shard's
    /// in-flight set for the duration of the write, so a concurrent
    /// miss on the same chunk waits on the condvar for the post-image
    /// instead of re-admitting the store's pre-image. On a terminal
    /// write failure the frame is restored (still dirty) and the
    /// eviction un-counted — an eviction must never lose an update.
    fn evict_dirty(
        &self,
        si: usize,
        id: ChunkId,
        frame: Frame,
        mut sh: MutexGuard<'_, Shard>,
    ) -> Result<()> {
        sh.in_flight.insert(id);
        drop(sh);
        let (committed, synced) = {
            let mut store = self.store.write();
            let committed = (|| {
                store.begin_flush()?;
                if let Err(e) = self.write_with_retry(store.as_mut(), id, &frame.chunk) {
                    let _ = store.abort_flush();
                    return Err(e);
                }
                if let Err(e) = store.commit_flush() {
                    let _ = store.abort_flush();
                    return Err(e);
                }
                Ok(())
            })();
            let synced = if committed.is_ok() && self.durable_flush.load(Ordering::Relaxed) {
                // Post-commit, as in `flush_all`: a sync failure
                // propagates but must not roll back the committed
                // write, so the frame stays evicted.
                store.sync()
            } else {
                Ok(())
            };
            (committed, synced)
        };
        let slot = &self.shards[si];
        let mut sh = slot.shard.lock();
        sh.in_flight.remove(&id);
        if committed.is_err() {
            // The write never committed: restore the frame (unless a
            // concurrent `put` already re-admitted a newer version —
            // that one supersedes the evicted bytes) and undo the
            // accounting so `resident == misses - evictions` holds.
            if let std::collections::hash_map::Entry::Vacant(e) = sh.frames.entry(id) {
                e.insert(frame);
                self.resident.fetch_add(1, Ordering::Relaxed);
                self.evictions.fetch_sub(1, Ordering::Relaxed);
            }
        }
        drop(sh);
        slot.read_done.notify_all();
        committed.and(synced)
    }

    /// Hit-or-read-and-admit, optionally pinning, with miss accounting
    /// only after the store read succeeds (a failed read must leave
    /// stats and residency untouched). Concurrent misses on the same
    /// chunk are read once: the first thread registers the chunk as
    /// in-flight and later threads wait on the shard's condvar, turning
    /// their requests into hits once the frame is admitted.
    fn fetch(&self, id: ChunkId, pin: bool) -> Result<Arc<Chunk>> {
        let slot = &self.shards[shard_of(id)];
        {
            let mut sh = slot.shard.lock();
            loop {
                if let Some(f) = sh.frames.get_mut(&id) {
                    f.last_use = self.next_tick();
                    if pin {
                        f.pins += 1;
                        if f.pins == 1 {
                            self.note_first_pin();
                        }
                    }
                    self.note_hit(f);
                    return Ok(Arc::clone(&f.chunk));
                }
                if sh.in_flight.insert(id) {
                    break; // this thread performs the read
                }
                // Another thread (demand or prefetch worker) is reading
                // `id`; wait for it rather than duplicating the store
                // I/O, then re-check.
                slot.read_done.wait(&mut sh);
            }
        }
        // Miss: read outside the shard lock so reads of distinct chunks
        // overlap. Transient failures are retried with backoff while
        // this thread still owns the in-flight slot; on final failure
        // the slot is cleared and waiters are woken below, so they
        // re-enter the miss path and retry instead of hanging.
        let read = self.read_with_retry(id);
        let room = if read.is_ok() {
            self.make_room()
        } else {
            Ok(())
        };
        let mut sh = slot.shard.lock();
        sh.in_flight.remove(&id);
        slot.read_done.notify_all();
        let chunk = match read {
            Ok(c) => Arc::new(c),
            Err(e) => return Err(e),
        };
        room?;
        // Decide hit-vs-miss under the shard lock: only the thread that
        // actually admits the frame counts a miss, paired with exactly
        // one residency increment, so `resident == misses - evictions`
        // holds under contention. If another thread admitted `id` first
        // (e.g. via `put`), its frame wins and this is a hit.
        let mut admitted = false;
        let f = sh.frames.entry(id).or_insert_with(|| {
            admitted = true;
            let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak_resident.fetch_max(now as u64, Ordering::Relaxed);
            Frame {
                chunk: Arc::clone(&chunk),
                pins: 0,
                last_use: 0,
                dirty: false,
                prefetched: false,
            }
        });
        if admitted {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.note_hit(f);
        }
        f.last_use = self.next_tick();
        if pin {
            f.pins += 1;
            if f.pins == 1 {
                self.note_first_pin();
            }
        }
        Ok(Arc::clone(&f.chunk))
    }

    /// Reads one prefetch hint into the pool. Runs on an I/O worker;
    /// errors don't propagate (a prefetch is only a hint — a missing or
    /// corrupt chunk surfaces on the demand read that follows, which
    /// also owns the retry budget) but failed reads are counted in
    /// `read_errors` so they can't vanish silently.
    fn prefetch_one(&self, id: ChunkId) {
        let slot = &self.shards[shard_of(id)];
        {
            let mut sh = slot.shard.lock();
            if sh.frames.contains_key(&id) || !sh.in_flight.insert(id) {
                // Already resident, or a demand read (or another worker)
                // owns the in-flight slot — nothing to do either way.
                return;
            }
        }
        let read = self.store.read().read(id);
        if matches!(read, Err(ref e) if !matches!(e, StoreError::MissingChunk(_))) {
            self.read_errors.fetch_add(1, Ordering::Relaxed);
        }
        let room = if read.is_ok() {
            self.make_room()
        } else {
            Ok(())
        };
        let mut sh = slot.shard.lock();
        sh.in_flight.remove(&id);
        slot.read_done.notify_all();
        let (Ok(chunk), Ok(())) = (read, room) else {
            return;
        };
        let chunk = Arc::new(chunk);
        let mut admitted = false;
        let f = sh.frames.entry(id).or_insert_with(|| {
            admitted = true;
            let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak_resident.fetch_max(now as u64, Ordering::Relaxed);
            Frame {
                chunk,
                pins: 0,
                last_use: 0,
                dirty: false,
                prefetched: true,
            }
        });
        if admitted {
            // A prefetch admission is a store read, so it counts as a
            // miss — keeping `resident == misses - evictions` exact.
            // The demand touch that consumes the frame scores a hit
            // (and a prefetch_hit).
            self.misses.fetch_add(1, Ordering::Relaxed);
            f.last_use = self.next_tick();
        }
    }

    fn unpin(&self, id: ChunkId) {
        let mut sh = self.shards[shard_of(id)].shard.lock();
        let f = sh
            .frames
            .get_mut(&id)
            .unwrap_or_else(|| panic!("unpin of non-resident chunk {id:?}"));
        assert!(f.pins > 0, "unpin of unpinned chunk {id:?}");
        f.pins -= 1;
        if f.pins == 0 {
            self.pinned.fetch_sub(1, Ordering::Relaxed);
        }
    }

    fn put(&self, id: ChunkId, chunk: Chunk) -> Result<()> {
        let arc = Arc::new(chunk);
        let si = shard_of(id);
        {
            let mut sh = self.shards[si].shard.lock();
            if let Some(f) = sh.frames.get_mut(&id) {
                f.chunk = arc;
                f.dirty = true;
                f.last_use = self.next_tick();
                // Overwritten before any demand read: the prefetched
                // contents are gone, but the frame lives on — treat the
                // read as wasted.
                if f.prefetched {
                    f.prefetched = false;
                    self.prefetch_wasted.fetch_add(1, Ordering::Relaxed);
                }
                return Ok(());
            }
        }
        self.make_room()?;
        let mut sh = self.shards[si].shard.lock();
        let f = sh.frames.entry(id).or_insert_with(|| {
            let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak_resident.fetch_max(now as u64, Ordering::Relaxed);
            Frame {
                chunk: Arc::clone(&arc),
                pins: 0,
                last_use: 0,
                dirty: true,
                prefetched: false,
            }
        });
        f.chunk = arc;
        f.dirty = true;
        f.prefetched = false;
        f.last_use = self.next_tick();
        Ok(())
    }

    fn flush_all(&self) -> Result<()> {
        // Stage dirty frames under brief shard locks — previously each
        // shard lock was held across the store writes (and the final
        // fsync held the last one), stalling readers for the whole
        // flush. Dirty bits are NOT cleared here: if the flush fails
        // they must stay set so a later flush retries every frame
        // (previously a mid-flush error left earlier frames marked
        // clean while the store had no commitment to keep them).
        let mut staged: Vec<(ChunkId, Arc<Chunk>)> = Vec::new();
        for slot in &self.shards {
            let sh = slot.shard.lock();
            for (&id, f) in sh.frames.iter() {
                if f.dirty {
                    staged.push((id, Arc::clone(&f.chunk)));
                }
            }
        }
        if staged.is_empty() {
            if self.durable_flush.load(Ordering::Relaxed) {
                self.store.write().sync()?;
            }
            return Ok(());
        }
        // Ascending id order: deterministic log layout and a
        // deterministic crash-point schedule for the fault harness.
        staged.sort_by_key(|&(id, _)| id);
        {
            let mut store = self.store.write();
            store.begin_flush()?;
            for (id, chunk) in &staged {
                if let Err(e) = self.write_with_retry(store.as_mut(), *id, chunk) {
                    // Terminal failure: roll back so the store never
                    // exposes a partial flush. Frames are still dirty.
                    let _ = store.abort_flush();
                    return Err(e);
                }
            }
            if let Err(e) = store.commit_flush() {
                let _ = store.abort_flush();
                return Err(e);
            }
            if self.durable_flush.load(Ordering::Relaxed) {
                // Post-commit: a sync failure propagates but must not
                // roll back the already-committed flush.
                store.sync()?;
            }
        }
        self.flushes.fetch_add(1, Ordering::Relaxed);
        // Clear dirty bits only where the frame still holds the exact
        // chunk that was written — a concurrent `put` during the flush
        // swapped in a new Arc, and that frame must stay dirty.
        for (id, chunk) in &staged {
            let mut sh = self.shards[shard_of(*id)].shard.lock();
            if let Some(f) = sh.frames.get_mut(id) {
                if f.dirty && Arc::ptr_eq(&f.chunk, chunk) {
                    f.dirty = false;
                }
            }
        }
        Ok(())
    }
}

impl BufferPool {
    /// Wraps `store` with a pool of at most `capacity` resident chunks
    /// (minimum 1).
    pub fn new(store: Box<dyn ChunkStore>, capacity: usize) -> Self {
        BufferPool {
            inner: Arc::new(PoolInner {
                store: RwLock::new(store),
                capacity: capacity.max(1),
                shards: (0..SHARD_COUNT).map(|_| ShardSlot::default()).collect(),
                tick: AtomicU64::new(0),
                resident: AtomicUsize::new(0),
                pinned: AtomicUsize::new(0),
                hits: AtomicU64::new(0),
                misses: AtomicU64::new(0),
                evictions: AtomicU64::new(0),
                peak_resident: AtomicU64::new(0),
                peak_pinned: AtomicU64::new(0),
                overflows: AtomicU64::new(0),
                prefetch_issued: AtomicU64::new(0),
                prefetch_hits: AtomicU64::new(0),
                prefetch_wasted: AtomicU64::new(0),
                read_errors: AtomicU64::new(0),
                retries: AtomicU64::new(0),
                write_retries: AtomicU64::new(0),
                flushes: AtomicU64::new(0),
                durable_flush: AtomicBool::new(false),
                io_queue: Mutex::new(IoQueue::default()),
                io_ready: Condvar::new(),
                io_busy: AtomicUsize::new(0),
            }),
            io_workers: Mutex::new(Vec::new()),
        }
    }

    /// Builder form of [`BufferPool::start_io_threads`].
    pub fn with_io_threads(self, n: usize) -> Self {
        self.start_io_threads(n);
        self
    }

    /// Starts `n` background I/O workers servicing [`BufferPool::prefetch`]
    /// hints. Idempotent: does nothing if workers are already running or
    /// `n` is zero.
    pub fn start_io_threads(&self, n: usize) {
        let mut workers = self.io_workers.lock();
        if n == 0 || !workers.is_empty() {
            return;
        }
        for _ in 0..n {
            let inner = Arc::clone(&self.inner);
            workers.push(std::thread::spawn(move || io_worker_loop(inner)));
        }
    }

    /// Number of running background I/O workers.
    pub fn io_threads(&self) -> usize {
        self.io_workers.lock().len()
    }

    /// Signals the I/O workers to exit and joins them. The prefetch
    /// queue is dropped; already-claimed reads complete first.
    fn stop_io_threads(&self) {
        let handles: Vec<_> = std::mem::take(&mut *self.io_workers.lock());
        if handles.is_empty() {
            return;
        }
        {
            let mut q = self.inner.io_queue.lock();
            q.shutdown = true;
            q.queue.clear();
        }
        self.inner.io_ready.notify_all();
        for h in handles {
            let _ = h.join();
        }
        // Re-arm so `start_io_threads` can be called again.
        self.inner.io_queue.lock().shutdown = false;
    }

    /// Queues chunk ids for background admission so the store reads
    /// overlap the caller's compute. A hint is exactly that: ids already
    /// resident or in flight are skipped, and read errors are deferred
    /// to the demand `get()`. With no I/O workers running this is a
    /// no-op (nothing is counted), so behavior is bit-identical to a
    /// pool without prefetching.
    pub fn prefetch(&self, ids: &[ChunkId]) {
        if ids.is_empty() || self.io_workers.lock().is_empty() {
            return;
        }
        self.inner
            .prefetch_issued
            .fetch_add(ids.len() as u64, Ordering::Relaxed);
        {
            let mut q = self.inner.io_queue.lock();
            q.queue.extend(ids.iter().copied());
        }
        self.inner.io_ready.notify_all();
    }

    /// Blocks until every queued prefetch has been serviced (admitted or
    /// skipped). Intended for tests and benchmarks that need the
    /// prefetcher quiesced before asserting on counters.
    pub fn wait_prefetch_idle(&self) {
        loop {
            {
                let q = self.inner.io_queue.lock();
                if q.queue.is_empty() && self.inner.io_busy.load(Ordering::Relaxed) == 0 {
                    return;
                }
            }
            std::thread::yield_now();
        }
    }

    /// Fetches a chunk (cached or from the store), unpinned.
    pub fn get(&self, id: ChunkId) -> Result<Arc<Chunk>> {
        self.inner.fetch(id, false)
    }

    /// Fetches and pins a chunk; it stays resident until unpinned.
    pub fn pin(&self, id: ChunkId) -> Result<Arc<Chunk>> {
        self.inner.fetch(id, true)
    }

    /// Releases one pin. Panics if the chunk is not pinned (a pin/unpin
    /// imbalance is always an executor bug worth failing loudly on).
    pub fn unpin(&self, id: ChunkId) {
        self.inner.unpin(id);
    }

    /// Replaces a chunk's contents (write-through is deferred until
    /// eviction or [`BufferPool::flush_all`]).
    pub fn put(&self, id: ChunkId, chunk: Chunk) -> Result<()> {
        self.inner.put(id, chunk)
    }

    /// Writes every dirty frame back to the store. When
    /// [`BufferPool::set_durable_flush`] is on, also fsyncs the store so
    /// the flush survives a crash.
    pub fn flush_all(&self) -> Result<()> {
        self.inner.flush_all()
    }

    /// Enables/disables fsync-on-flush (off by default: in-memory
    /// stores have nothing to sync and benchmarks shouldn't pay for
    /// durability they don't measure). No caller today; kept because it
    /// guards the fsync that makes a flush survive a crash.
    pub fn set_durable_flush(&self, on: bool) {
        self.inner.durable_flush.store(on, Ordering::Relaxed);
    }

    /// Whether [`BufferPool::flush_all`] fsyncs the store.
    pub fn durable_flush(&self) -> bool {
        self.inner.durable_flush.load(Ordering::Relaxed)
    }

    /// Replaces the backing store with `f(old store)` — the injection
    /// point for wrapping a live pool's store in a
    /// [`crate::FaultStore`]. Resident frames keep serving hits; call
    /// [`BufferPool::clear`] first if subsequent reads must go through
    /// the new store.
    ///
    /// Panic-safe: if `f` panics, the original store is reinstalled
    /// before the panic resumes (previously the pool was left silently
    /// serving an empty placeholder). `f` receives the original store
    /// behind a transparent reclaim wrapper whose `as_any` forwards to
    /// the real store, so downcasts through it keep working.
    pub fn wrap_store(&self, f: impl FnOnce(Box<dyn ChunkStore>) -> Box<dyn ChunkStore>) {
        use std::panic::{catch_unwind, resume_unwind, AssertUnwindSafe};
        let mut guard = self.inner.store.write();
        let placeholder: Box<dyn ChunkStore> = Box::new(crate::memstore::MemStore::new());
        let old = std::mem::replace(&mut *guard, placeholder);
        let slot: Arc<Mutex<Option<Box<dyn ChunkStore>>>> = Arc::new(Mutex::new(None));
        let reclaim: Box<dyn ChunkStore> = Box::new(ReclaimStore {
            inner: Some(old),
            slot: Arc::clone(&slot),
        });
        match catch_unwind(AssertUnwindSafe(|| f(reclaim))) {
            Ok(new_store) => *guard = new_store,
            Err(payload) => {
                // The unwinding closure dropped the reclaim wrapper,
                // which parked the original store in the slot instead of
                // destroying it — put it back.
                if let Some(old) = slot.lock().take() {
                    *guard = old;
                }
                drop(guard);
                resume_unwind(payload);
            }
        }
    }

    /// Whether the chunk exists (resident or in the backing store).
    pub fn contains(&self, id: ChunkId) -> bool {
        if self.inner.shards[shard_of(id)]
            .shard
            .lock()
            .frames
            .contains_key(&id)
        {
            return true;
        }
        self.inner.store.read().contains(id)
    }

    /// Currently resident frames.
    pub fn resident(&self) -> usize {
        self.inner.resident.load(Ordering::Relaxed)
    }

    /// Currently pinned frames.
    pub fn pinned_count(&self) -> usize {
        self.inner.pinned.load(Ordering::Relaxed)
    }

    /// Pool counters (a consistent-enough snapshot; each field is
    /// individually atomic).
    pub fn stats(&self) -> PoolStats {
        let i = &self.inner;
        PoolStats {
            hits: i.hits.load(Ordering::Relaxed),
            misses: i.misses.load(Ordering::Relaxed),
            evictions: i.evictions.load(Ordering::Relaxed),
            peak_resident: i.peak_resident.load(Ordering::Relaxed),
            peak_pinned: i.peak_pinned.load(Ordering::Relaxed),
            overflows: i.overflows.load(Ordering::Relaxed),
            prefetch_issued: i.prefetch_issued.load(Ordering::Relaxed),
            prefetch_hits: i.prefetch_hits.load(Ordering::Relaxed),
            prefetch_wasted: i.prefetch_wasted.load(Ordering::Relaxed),
            read_errors: i.read_errors.load(Ordering::Relaxed),
            retries: i.retries.load(Ordering::Relaxed),
            write_retries: i.write_retries.load(Ordering::Relaxed),
            flushes: i.flushes.load(Ordering::Relaxed),
        }
    }

    /// Zeroes the counters (keeps resident frames).
    pub fn reset_stats(&self) {
        let i = &self.inner;
        i.hits.store(0, Ordering::Relaxed);
        i.misses.store(0, Ordering::Relaxed);
        i.evictions.store(0, Ordering::Relaxed);
        i.peak_resident.store(0, Ordering::Relaxed);
        i.peak_pinned.store(0, Ordering::Relaxed);
        i.overflows.store(0, Ordering::Relaxed);
        i.prefetch_issued.store(0, Ordering::Relaxed);
        i.prefetch_hits.store(0, Ordering::Relaxed);
        i.prefetch_wasted.store(0, Ordering::Relaxed);
        i.read_errors.store(0, Ordering::Relaxed);
        i.retries.store(0, Ordering::Relaxed);
        i.write_retries.store(0, Ordering::Relaxed);
        i.flushes.store(0, Ordering::Relaxed);
    }

    /// Read access to the backing store.
    pub fn store(&self) -> StoreRef<'_> {
        StoreRef(self.inner.store.read())
    }

    /// Exclusive access to the backing store (reorganization, seek
    /// models).
    pub fn store_mut(&self) -> StoreMut<'_> {
        StoreMut(self.inner.store.write())
    }

    /// Flushes and drops every frame, forcing subsequent reads back to
    /// the store. Pending prefetch hints are discarded. Panics if any
    /// frame is pinned.
    pub fn clear(&self) -> Result<()> {
        assert_eq!(self.pinned_count(), 0, "clear() with pinned frames");
        self.inner.io_queue.lock().queue.clear();
        self.flush_all()?;
        for slot in &self.inner.shards {
            let mut sh = slot.shard.lock();
            let n = sh.frames.len();
            let wasted = sh.frames.values().filter(|f| f.prefetched).count();
            sh.frames.clear();
            self.inner.resident.fetch_sub(n, Ordering::Relaxed);
            self.inner
                .prefetch_wasted
                .fetch_add(wasted as u64, Ordering::Relaxed);
        }
        Ok(())
    }

    /// Flushes, stops the I/O workers, and returns the backing store.
    pub fn into_store(self) -> Result<Box<dyn ChunkStore>> {
        self.flush_all()?;
        self.stop_io_threads();
        let inner = Arc::clone(&self.inner);
        drop(self); // workers already joined; releases the handle's Arc
        let inner = Arc::try_unwrap(inner)
            .ok()
            .expect("no references remain after I/O workers are joined");
        Ok(inner.store.into_inner())
    }
}

impl Drop for BufferPool {
    fn drop(&mut self) {
        self.stop_io_threads();
    }
}

/// The store handed to [`BufferPool::wrap_store`]'s closure: a
/// transparent delegate that, when dropped mid-unwind (the closure
/// panicked), parks the wrapped store in a shared slot instead of
/// destroying it, so `wrap_store` can reinstall it.
struct ReclaimStore {
    /// `Some` until drop; `Option` only so `Drop` can move it out.
    inner: Option<Box<dyn ChunkStore>>,
    slot: Arc<Mutex<Option<Box<dyn ChunkStore>>>>,
}

impl ReclaimStore {
    fn get(&self) -> &dyn ChunkStore {
        self.inner.as_deref().expect("present until drop")
    }

    fn get_mut(&mut self) -> &mut dyn ChunkStore {
        self.inner.as_deref_mut().expect("present until drop")
    }
}

impl Drop for ReclaimStore {
    fn drop(&mut self) {
        if let Some(s) = self.inner.take() {
            *self.slot.lock() = Some(s);
        }
    }
}

impl ChunkStore for ReclaimStore {
    fn read(&self, id: ChunkId) -> Result<Chunk> {
        self.get().read(id)
    }

    fn write(&mut self, id: ChunkId, chunk: &Chunk) -> Result<()> {
        self.get_mut().write(id, chunk)
    }

    fn contains(&self, id: ChunkId) -> bool {
        self.get().contains(id)
    }

    fn ids(&self) -> Vec<ChunkId> {
        self.get().ids()
    }

    fn stats(&self) -> &crate::store::IoStats {
        self.get().stats()
    }

    fn chunk_count(&self) -> usize {
        self.get().chunk_count()
    }

    fn sync(&mut self) -> Result<()> {
        self.get_mut().sync()
    }

    fn begin_flush(&mut self) -> Result<()> {
        self.get_mut().begin_flush()
    }

    fn commit_flush(&mut self) -> Result<u64> {
        self.get_mut().commit_flush()
    }

    fn abort_flush(&mut self) -> Result<()> {
        self.get_mut().abort_flush()
    }

    fn flush_epoch(&self) -> u64 {
        self.get().flush_epoch()
    }

    // Transparent: downcasts reach the wrapped store, not the wrapper.
    fn as_any(&self) -> &dyn std::any::Any {
        self.get().as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.get_mut().as_any_mut()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::memstore::MemStore;
    use crate::value::CellValue;

    fn store_with(n: u64) -> Box<dyn ChunkStore> {
        let mut s = MemStore::new();
        for i in 0..n {
            let mut c = Chunk::new_dense(vec![2]);
            c.set(0, CellValue::num(i as f64));
            s.write(ChunkId(i), &c).unwrap();
        }
        Box::new(s)
    }

    #[test]
    fn hits_and_misses() {
        let p = BufferPool::new(store_with(4), 2);
        p.get(ChunkId(0)).unwrap();
        p.get(ChunkId(0)).unwrap();
        let s = p.stats();
        assert_eq!(s.misses, 1);
        assert_eq!(s.hits, 1);
    }

    #[test]
    fn lru_eviction() {
        let p = BufferPool::new(store_with(4), 2);
        p.get(ChunkId(0)).unwrap();
        p.get(ChunkId(1)).unwrap();
        p.get(ChunkId(0)).unwrap(); // 1 is now LRU
        p.get(ChunkId(2)).unwrap(); // evicts 1
        assert_eq!(p.stats().evictions, 1);
        p.get(ChunkId(0)).unwrap(); // still resident
        assert_eq!(p.stats().hits, 2);
        p.get(ChunkId(1)).unwrap(); // must re-read
        assert_eq!(p.stats().misses, 4);
    }

    #[test]
    fn pinned_chunks_survive_pressure() {
        let p = BufferPool::new(store_with(5), 2);
        p.pin(ChunkId(0)).unwrap();
        p.pin(ChunkId(1)).unwrap();
        // Pool full of pins; next get overflows rather than evicting.
        p.get(ChunkId(2)).unwrap();
        assert!(p.stats().overflows >= 1);
        assert!(p.resident() >= 3);
        p.unpin(ChunkId(0));
        p.unpin(ChunkId(1));
    }

    #[test]
    fn peak_pinned_tracks_pebbles() {
        let p = BufferPool::new(store_with(5), 10);
        p.pin(ChunkId(0)).unwrap();
        p.pin(ChunkId(1)).unwrap();
        p.pin(ChunkId(2)).unwrap();
        p.unpin(ChunkId(1));
        p.pin(ChunkId(3)).unwrap();
        assert_eq!(p.stats().peak_pinned, 3);
        assert_eq!(p.pinned_count(), 3);
    }

    #[test]
    fn put_writes_back_on_flush() {
        let p = BufferPool::new(store_with(2), 2);
        let mut c = Chunk::new_dense(vec![2]);
        c.set(1, CellValue::num(42.0));
        p.put(ChunkId(0), c.clone()).unwrap();
        p.flush_all().unwrap();
        let store = p.into_store().unwrap();
        assert_eq!(store.read(ChunkId(0)).unwrap().get(1), CellValue::Num(42.0));
    }

    #[test]
    fn eviction_flushes_dirty_frames() {
        let p = BufferPool::new(store_with(3), 1);
        let mut c = Chunk::new_dense(vec![2]);
        c.set(0, CellValue::num(7.0));
        p.put(ChunkId(0), c).unwrap();
        p.get(ChunkId(1)).unwrap(); // evicts dirty 0
        let store = p.into_store().unwrap();
        assert_eq!(store.read(ChunkId(0)).unwrap().get(0), CellValue::Num(7.0));
    }

    /// Satellite bugfix (ISSUE 6): a dirty eviction's write-through must
    /// run inside its own `begin_flush`/`commit_flush` transaction —
    /// previously it wrote bare, outside any WAL transaction, exactly
    /// the torn state PR 5's commit record was built to prevent.
    #[test]
    fn eviction_write_runs_in_a_flush_transaction() {
        use crate::store::IoStats;

        #[derive(Debug)]
        struct TxnGate {
            inner: MemStore,
            in_txn: bool,
            begins: usize,
            commits: usize,
        }
        impl ChunkStore for TxnGate {
            fn read(&self, id: ChunkId) -> Result<Chunk> {
                self.inner.read(id)
            }
            fn write(&mut self, id: ChunkId, chunk: &Chunk) -> Result<()> {
                assert!(self.in_txn, "store write outside a flush transaction");
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
            fn begin_flush(&mut self) -> Result<()> {
                self.in_txn = true;
                self.begins += 1;
                Ok(())
            }
            fn commit_flush(&mut self) -> Result<u64> {
                assert!(self.in_txn, "commit without begin");
                self.in_txn = false;
                self.commits += 1;
                Ok(self.commits as u64)
            }
            fn abort_flush(&mut self) -> Result<()> {
                self.in_txn = false;
                Ok(())
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }

        let mut inner = MemStore::new();
        inner.write(ChunkId(1), &Chunk::new_dense(vec![2])).unwrap();
        let gate = TxnGate {
            inner,
            in_txn: false,
            begins: 0,
            commits: 0,
        };
        let p = BufferPool::new(Box::new(gate), 1);
        let mut c = Chunk::new_dense(vec![2]);
        c.set(0, CellValue::num(7.0));
        p.put(ChunkId(0), c).unwrap();
        p.get(ChunkId(1)).unwrap(); // evicts dirty 0 through the WAL
        let store = p.store();
        let gate = store.as_any().downcast_ref::<TxnGate>().unwrap();
        assert_eq!(gate.begins, 1, "eviction must open one transaction");
        assert_eq!(gate.commits, 1, "eviction must commit it");
        assert!(!gate.in_txn, "transaction left open");
        assert_eq!(
            gate.inner.read(ChunkId(0)).unwrap().get(0),
            CellValue::Num(7.0)
        );
    }

    /// Satellite bugfix (ISSUE 6): a terminal eviction write failure
    /// must not drop the dirty frame — the update would be lost with no
    /// recovery path. The frame is restored (still dirty), the eviction
    /// is un-counted, and the next admission retries the write-back.
    #[test]
    fn failed_eviction_write_restores_dirty_frame() {
        use crate::fault::{FaultKind, FaultOp, FaultSpec, FaultStore};
        let p = BufferPool::new(store_with(2), 1);
        // Enough one-shot write faults to exhaust the retry budget.
        let plan = (1..=1 + READ_RETRIES as u64)
            .map(|at| FaultSpec {
                op: FaultOp::Write,
                at,
                kind: FaultKind::Error,
                persistent: false,
            })
            .collect();
        p.wrap_store(|s| Box::new(FaultStore::new(s, plan)));
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

    #[test]
    #[should_panic(expected = "unpin")]
    fn unbalanced_unpin_panics() {
        let p = BufferPool::new(store_with(1), 2);
        p.get(ChunkId(0)).unwrap();
        p.unpin(ChunkId(0));
    }

    /// Regression: a failed store read must not disturb the counters or
    /// admit anything — previously the miss was counted before the read
    /// could fail.
    #[test]
    fn failed_read_leaves_stats_and_residency_unchanged() {
        let p = BufferPool::new(store_with(2), 4);
        p.get(ChunkId(0)).unwrap();
        let before = p.stats();
        let resident_before = p.resident();
        assert!(p.get(ChunkId(99)).is_err());
        assert!(p.pin(ChunkId(99)).is_err());
        assert_eq!(p.stats(), before);
        assert_eq!(p.resident(), resident_before);
        let sh = p.inner.shards[shard_of(ChunkId(99))].shard.lock();
        assert!(!sh.frames.contains_key(&ChunkId(99)));
        assert!(
            sh.in_flight.is_empty(),
            "failed read left an in-flight marker"
        );
    }

    /// Regression: threads racing to miss on the same chunk must produce
    /// exactly one store read / counted miss (the rest wait on the
    /// in-flight marker and score hits), keeping
    /// `resident == misses - evictions` under contention.
    #[test]
    fn concurrent_misses_on_one_chunk_count_once() {
        let p = BufferPool::new(store_with(1), 4);
        let barrier = std::sync::Barrier::new(8);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let p = &p;
                let barrier = &barrier;
                s.spawn(move || {
                    barrier.wait();
                    let c = p.get(ChunkId(0)).unwrap();
                    assert_eq!(c.get(0), CellValue::Num(0.0));
                });
            }
        });
        let st = p.stats();
        assert_eq!(st.misses, 1, "racing misses must not double-count");
        assert_eq!(st.hits, 7);
        assert_eq!(p.resident(), 1);
    }

    /// The pool is usable from multiple threads through `&self`.
    #[test]
    fn concurrent_gets_share_the_pool() {
        let p = BufferPool::new(store_with(8), 4);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let p = &p;
                s.spawn(move || {
                    for i in 0..200u64 {
                        let id = ChunkId((i + t) % 8);
                        let c = p.pin(id).unwrap();
                        assert_eq!(c.get(0), CellValue::num((id.0) as f64));
                        p.unpin(id);
                    }
                });
            }
        });
        let s = p.stats();
        assert_eq!(s.hits + s.misses, 800);
    }

    /// Without I/O workers, `prefetch` is a pure no-op: no counters
    /// move, nothing is admitted — the `--prefetch 0` guarantee.
    #[test]
    fn prefetch_without_workers_is_a_noop() {
        let p = BufferPool::new(store_with(4), 4);
        p.prefetch(&[ChunkId(0), ChunkId(1)]);
        assert_eq!(p.stats(), PoolStats::default());
        assert_eq!(p.resident(), 0);
    }

    /// A prefetched chunk is admitted once (counted as a miss) and the
    /// demand read that consumes it scores a hit and a prefetch hit.
    #[test]
    fn prefetch_admits_and_demand_hits() {
        let p = BufferPool::new(store_with(4), 4).with_io_threads(2);
        p.prefetch(&[ChunkId(0), ChunkId(1)]);
        p.wait_prefetch_idle();
        let st = p.stats();
        assert_eq!(st.prefetch_issued, 2);
        assert_eq!(st.misses, 2);
        assert_eq!(p.resident(), 2);
        let c = p.get(ChunkId(0)).unwrap();
        assert_eq!(c.get(0), CellValue::Num(0.0));
        p.get(ChunkId(0)).unwrap();
        let st = p.stats();
        assert_eq!(st.hits, 2);
        assert_eq!(st.prefetch_hits, 1, "first touch only");
        assert_eq!(st.misses, 2);
        assert_eq!(st.evictions, 0);
        assert_eq!(p.resident() as u64, st.misses - st.evictions);
    }

    /// A prefetched frame evicted before any demand touch counts as
    /// wasted exactly once.
    #[test]
    fn prefetch_evicted_before_use_counts_wasted() {
        let p = BufferPool::new(store_with(4), 1).with_io_threads(1);
        p.prefetch(&[ChunkId(0)]);
        p.wait_prefetch_idle();
        p.get(ChunkId(1)).unwrap(); // capacity 1: evicts prefetched 0
        let st = p.stats();
        assert_eq!(st.prefetch_wasted, 1);
        assert_eq!(st.prefetch_hits, 0);
        assert_eq!(p.resident() as u64, st.misses - st.evictions);
    }

    /// The contention guarantee of the issue: a demand `get()` racing a
    /// prefetch of the same chunk counts exactly one miss per chunk and
    /// performs exactly one store read — never a duplicate — and the
    /// residency invariant `resident == misses - evictions` holds.
    #[test]
    fn demand_get_racing_prefetch_counts_one_miss() {
        const N: u64 = 200;
        let p = BufferPool::new(store_with(N), N as usize + 8).with_io_threads(4);
        let reads_before = p.store().stats().snapshot().reads;
        let ids: Vec<ChunkId> = (0..N).map(ChunkId).collect();
        p.prefetch(&ids);
        // Demand-read everything from several threads while the workers
        // are still admitting the same ids.
        std::thread::scope(|s| {
            for _ in 0..4 {
                let p = &p;
                let ids = &ids;
                s.spawn(move || {
                    for &id in ids {
                        let c = p.get(id).unwrap();
                        assert_eq!(c.get(0), CellValue::num(id.0 as f64));
                    }
                });
            }
        });
        p.wait_prefetch_idle();
        let st = p.stats();
        let reads = p.store().stats().snapshot().reads - reads_before;
        assert_eq!(st.misses, N, "each chunk admitted exactly once");
        assert_eq!(reads, N, "no duplicate store reads under contention");
        assert_eq!(st.evictions, 0);
        assert_eq!(p.resident() as u64, st.misses - st.evictions);
        assert_eq!(st.prefetch_issued, N);
        // Nothing was evicted, so every prefetch admission was consumed
        // by a later demand get: of the 4N demand gets, the N−prefetch_hits
        // demand admissions counted misses and the rest hit.
        assert_eq!(st.prefetch_wasted, 0);
        assert_eq!(st.hits, 3 * N + st.prefetch_hits);
    }

    /// `PoolStats::delta` isolates one measured phase without resetting
    /// the live counters.
    #[test]
    fn stats_delta_isolates_a_phase() {
        let p = BufferPool::new(store_with(4), 4);
        p.get(ChunkId(0)).unwrap();
        p.get(ChunkId(0)).unwrap();
        let baseline = p.stats();
        p.get(ChunkId(0)).unwrap();
        p.get(ChunkId(1)).unwrap();
        let d = p.stats().delta(&baseline);
        assert_eq!(d.hits, 1);
        assert_eq!(d.misses, 1);
        // High-water marks carry through instead of subtracting.
        assert_eq!(d.peak_resident, p.stats().peak_resident);
        // A reset between snapshots saturates instead of underflowing.
        p.reset_stats();
        let d = p.stats().delta(&baseline);
        assert_eq!(d.hits, 0);
        assert_eq!(d.misses, 0);
    }

    /// A single transient read fault is absorbed by the retry loop: the
    /// caller sees success, and the stats record the retry.
    #[test]
    fn transient_read_fault_is_retried() {
        use crate::fault::FaultStore;
        let p = BufferPool::new(store_with(2), 4);
        p.wrap_store(|s| Box::new(FaultStore::fail_nth_read(s, 1)));
        let c = p.get(ChunkId(0)).unwrap();
        assert_eq!(c.get(0), CellValue::Num(0.0));
        let st = p.stats();
        assert_eq!(st.retries, 1);
        assert_eq!(st.read_errors, 0);
        assert_eq!(st.misses, 1);
    }

    /// A persistent fault exhausts the retry budget: the error
    /// propagates, `read_errors` records it, and nothing is admitted.
    #[test]
    fn exhausted_retries_surface_error_and_count() {
        use crate::fault::{FaultKind, FaultOp, FaultSpec, FaultStore};
        let p = BufferPool::new(store_with(2), 4);
        p.wrap_store(|s| {
            Box::new(FaultStore::new(
                s,
                vec![FaultSpec {
                    op: FaultOp::Read,
                    at: 1,
                    kind: FaultKind::Error,
                    persistent: true,
                }],
            ))
        });
        assert!(matches!(p.get(ChunkId(0)), Err(StoreError::Io(_))));
        let st = p.stats();
        assert_eq!(st.retries, READ_RETRIES as u64);
        assert_eq!(st.read_errors, 1);
        assert_eq!(st.misses, 0);
        assert_eq!(p.resident(), 0);
        let sh = p.inner.shards[shard_of(ChunkId(0))].shard.lock();
        assert!(sh.in_flight.is_empty(), "failed read left in-flight slot");
    }

    /// Corrupt reads are deterministic: no retry, immediate error,
    /// counted once.
    #[test]
    fn corrupt_read_is_not_retried() {
        use crate::fault::{FaultKind, FaultOp, FaultSpec, FaultStore};
        let p = BufferPool::new(store_with(1), 4);
        p.wrap_store(|s| {
            Box::new(FaultStore::new(
                s,
                vec![FaultSpec {
                    op: FaultOp::Read,
                    at: 1,
                    kind: FaultKind::BitFlip,
                    persistent: false,
                }],
            ))
        });
        assert!(matches!(p.get(ChunkId(0)), Err(StoreError::Corrupt(_))));
        let st = p.stats();
        assert_eq!(st.retries, 0, "corruption must not be retried");
        assert_eq!(st.read_errors, 1);
        // The fault was one-shot; the pool recovers on the next demand.
        assert_eq!(p.get(ChunkId(0)).unwrap().get(0), CellValue::Num(0.0));
    }

    /// Satellite regression: PR 2's prefetch workers swallowed read
    /// errors entirely; they must now surface in `read_errors` while
    /// the demand path still owns the authoritative error.
    #[test]
    fn prefetch_error_is_counted_not_swallowed() {
        use crate::fault::FaultStore;
        let p = BufferPool::new(store_with(2), 4).with_io_threads(1);
        p.wrap_store(|s| Box::new(FaultStore::fail_nth_read(s, 1)));
        p.prefetch(&[ChunkId(0)]);
        p.wait_prefetch_idle();
        let st = p.stats();
        assert_eq!(st.read_errors, 1, "prefetch error vanished");
        assert_eq!(st.misses, 0);
        assert_eq!(p.resident(), 0);
        // The transient fault cleared; the demand read succeeds.
        assert_eq!(p.get(ChunkId(0)).unwrap().get(0), CellValue::Num(0.0));
    }

    /// Satellite regression: a demand read whose owner fails must wake
    /// condvar waiters and let one of them take over the read — never
    /// strand them. Three transient faults exhaust the first owner's
    /// whole retry budget (1 + READ_RETRIES attempts), so a waiter must
    /// take over with attempt 4, which succeeds.
    #[test]
    fn failed_owner_wakes_waiters_who_retry() {
        use crate::fault::{FaultKind, FaultOp, FaultSpec, FaultStore};
        let p = BufferPool::new(store_with(1), 4);
        let plan = (1..=3)
            .map(|at| FaultSpec {
                op: FaultOp::Read,
                at,
                kind: FaultKind::Error,
                persistent: false,
            })
            .collect();
        p.wrap_store(|s| Box::new(FaultStore::new(s, plan)));
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

    /// `flush_all` fsyncs the store when (and only when) the durability
    /// knob is on.
    #[test]
    fn durable_flush_syncs_store() {
        use crate::store::IoStats;

        #[derive(Debug, Default)]
        struct SyncCounting {
            inner: MemStore,
            syncs: AtomicUsize,
        }
        impl ChunkStore for SyncCounting {
            fn read(&self, id: ChunkId) -> Result<Chunk> {
                self.inner.read(id)
            }
            fn write(&mut self, id: ChunkId, chunk: &Chunk) -> Result<()> {
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
            fn sync(&mut self) -> Result<()> {
                self.syncs.fetch_add(1, Ordering::Relaxed);
                Ok(())
            }
            fn as_any(&self) -> &dyn std::any::Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
                self
            }
        }

        let p = BufferPool::new(Box::new(SyncCounting::default()), 4);
        let syncs = |p: &BufferPool| {
            p.store()
                .as_any()
                .downcast_ref::<SyncCounting>()
                .unwrap()
                .syncs
                .load(Ordering::Relaxed)
        };
        p.put(ChunkId(0), Chunk::new_dense(vec![2])).unwrap();
        p.flush_all().unwrap();
        assert_eq!(syncs(&p), 0, "durability off: no fsync");
        p.set_durable_flush(true);
        assert!(p.durable_flush());
        p.flush_all().unwrap();
        assert_eq!(syncs(&p), 1, "durability on: flush fsyncs");
    }

    /// Satellite regression: one transient write fault must not fail
    /// the flush — the retry policy demand reads got in PR 4 now covers
    /// flush writes too, counted in `write_retries`.
    #[test]
    fn transient_flush_write_fault_is_retried() {
        use crate::fault::{FaultKind, FaultOp, FaultSpec, FaultStore};
        let p = BufferPool::new(store_with(0), 4);
        p.wrap_store(|s| {
            Box::new(FaultStore::new(
                s,
                vec![FaultSpec {
                    op: FaultOp::Write,
                    at: 1,
                    kind: FaultKind::Error,
                    persistent: false,
                }],
            ))
        });
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

    /// Satellite regression: a terminal flush failure must leave every
    /// staged frame dirty (previously frames written before the error
    /// were marked clean and their data could be lost), and the next
    /// flush must retry and succeed.
    #[test]
    fn failed_flush_keeps_frames_dirty_for_retry() {
        use crate::fault::{FaultKind, FaultOp, FaultSpec, FaultStore};
        let p = BufferPool::new(store_with(0), 8);
        // Writes 2..4 fail persistently enough to exhaust the retry
        // budget mid-flush, after the first chunk already went through.
        let plan = (2..=2 + READ_RETRIES as u64)
            .map(|at| FaultSpec {
                op: FaultOp::Write,
                at,
                kind: FaultKind::Error,
                persistent: false,
            })
            .collect();
        p.wrap_store(|s| Box::new(FaultStore::new(s, plan)));
        for i in 0..3u64 {
            let mut c = Chunk::new_dense(vec![2]);
            c.set(0, CellValue::num(i as f64 + 10.0));
            p.put(ChunkId(i), c).unwrap();
        }
        assert!(matches!(p.flush_all(), Err(StoreError::Io(_))));
        let st = p.stats();
        assert_eq!(st.flushes, 0);
        assert_eq!(st.write_retries, READ_RETRIES as u64);
        // All three frames are still dirty: the second flush rewrites
        // every one of them and the store ends up complete.
        p.flush_all().unwrap();
        assert_eq!(p.stats().flushes, 1);
        for i in 0..3u64 {
            assert_eq!(
                p.store().read(ChunkId(i)).unwrap().get(0),
                CellValue::Num(i as f64 + 10.0)
            );
        }
    }

    /// Satellite regression: a panicking `wrap_store` closure used to
    /// leave the pool silently serving an empty `MemStore` placeholder;
    /// the original store must be reinstalled before the panic resumes.
    #[test]
    fn wrap_store_panic_restores_old_store() {
        let p = BufferPool::new(store_with(2), 4);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.wrap_store(|_old| panic!("injected wrap failure"));
        }));
        assert!(r.is_err(), "the panic must propagate");
        // The original store is back: its chunks are still served.
        assert_eq!(p.get(ChunkId(0)).unwrap().get(0), CellValue::Num(0.0));
        assert_eq!(p.get(ChunkId(1)).unwrap().get(0), CellValue::Num(1.0));
        assert_eq!(p.store().chunk_count(), 2);
    }

    /// `wrap_store`'s reclaim wrapper is transparent to downcasts: a
    /// successful wrap that keeps the store inside a new wrapper still
    /// lets `as_any` reach the original concrete type.
    #[test]
    fn wrap_store_stays_downcastable() {
        use crate::fault::FaultStore;
        let p = BufferPool::new(store_with(1), 4);
        p.wrap_store(|s| Box::new(FaultStore::new(s, vec![])));
        let store = p.store();
        let fs = store
            .as_any()
            .downcast_ref::<FaultStore>()
            .expect("outermost store is the FaultStore");
        assert!(fs
            .inner()
            .as_any()
            .downcast_ref::<MemStore>()
            .is_some_and(|m| m.contains(ChunkId(0))));
    }

    /// I/O workers shut down cleanly on drop and `into_store`.
    #[test]
    fn io_workers_join_on_drop_and_into_store() {
        let p = BufferPool::new(store_with(2), 2).with_io_threads(2);
        p.prefetch(&[ChunkId(0), ChunkId(1)]);
        drop(p); // must not hang or leak threads
        let p = BufferPool::new(store_with(2), 2).with_io_threads(2);
        p.prefetch(&[ChunkId(0)]);
        let store = p.into_store().unwrap();
        assert!(store.contains(ChunkId(0)));
    }
}
