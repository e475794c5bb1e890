//! A fixed-capacity, thread-safe LRU cache of chunks over a chunk store.
//!
//! The pool keeps at most `capacity` chunks as frames and evicts the
//! least recently used frame to admit another; a dirty frame (written by
//! [`BufferPool::put`]) reaches the store when it is evicted or on
//! [`BufferPool::flush_all`]. The pool is also the one place that knows
//! which chunks exist: a chunk exists if it is in a frame or in the
//! store ([`BufferPool::contains`], [`BufferPool::ids`]), so a chunk
//! written by `put` is visible before any flush. Every `put` advances
//! [`BufferPool::generation`], which memos over the pool's contents fold
//! into their keys.
//!
//! Concurrency: every method takes `&self`. Frames are partitioned into
//! [`SHARD_COUNT`] independently locked shards so concurrent sessions
//! contend only when touching the same shard; counters are atomics.
//! The backing store sits behind a `RwLock` — reads proceed
//! concurrently, writes (flushes) are exclusive. Lock order is always
//! one shard at a time, then the store, so the pool cannot deadlock
//! against itself. Concurrent misses on the *same* chunk are
//! deduplicated: the first thread reads while the rest wait on the
//! shard's condvar, so each admission is exactly one store read and
//! exactly one counted miss (`resident == misses - evictions` holds
//! under contention). Residency can still transiently exceed
//! `capacity` by at most one frame per thread admitting a *distinct*
//! chunk; in single-threaded use it never exceeds `capacity`. A dirty
//! frame being written back on eviction is neither a frame nor yet in
//! the store, so the shard records it as *evicting* until the write
//! commits: `contains` and `ids` count it as present, and `get` waits
//! for it as it waits for a read in flight.
//!
//! Fault handling (DESIGN.md §11): a demand read that fails with a
//! *transient* ([`crate::StoreError::Io`]) error is retried a bounded
//! number of times with backoff before the error propagates;
//! deterministic failures (`Corrupt`, `MissingChunk`) are never
//! retried. A failed read always clears the in-flight slot and wakes
//! condvar waiters — they re-enter the miss path and retry rather than
//! hanging on a slot whose owner errored out.

use crate::chunk::Chunk;
use crate::error::StoreError;
use crate::geometry::ChunkId;
use crate::store::ChunkStore;
use crate::Result;
use parking_lot::{Condvar, Mutex, MutexGuard, RwLock};
use std::collections::{HashMap, HashSet};
use std::ops::{Deref, DerefMut};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::Arc;
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
    /// Store reads that admitted a frame (`resident == misses -
    /// evictions` stays exact).
    pub misses: u64,
    /// Frames evicted to make room.
    pub evictions: u64,
    /// Maximum simultaneously resident frames.
    pub peak_resident: u64,
    /// Store reads that ultimately failed with an I/O or corruption
    /// error (after retries; missing-chunk lookups are a caller error,
    /// not a store failure, and are not counted).
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
    /// `baseline` was snapshotted, which is how a caller reads the
    /// counters over a window. Counters subtract saturating, so a
    /// `baseline` taken after `self` yields zeros, not an underflow;
    /// `peak_resident` is a high-water mark, not a counter, so the later
    /// snapshot's value is kept as-is.
    pub fn delta(&self, baseline: &PoolStats) -> PoolStats {
        PoolStats {
            hits: self.hits.saturating_sub(baseline.hits),
            misses: self.misses.saturating_sub(baseline.misses),
            evictions: self.evictions.saturating_sub(baseline.evictions),
            peak_resident: self.peak_resident,
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
    last_use: u64,
    dirty: bool,
}

#[derive(Debug, Default)]
struct Shard {
    frames: HashMap<ChunkId, Frame>,
    /// Chunks some thread is currently reading from the store; other
    /// threads missing on the same chunk wait instead of re-reading.
    /// A read in flight admits a chunk the store already holds, so it
    /// says nothing about existence.
    in_flight: HashSet<ChunkId>,
    /// Dirty chunks some thread has taken out of `frames` and is writing
    /// back to the store. Until the write commits the store may not hold
    /// them, so these still exist; a `get` waits for the write.
    evicting: HashSet<ChunkId>,
}

/// One lockable frame shard plus the condvar its in-flight reads and
/// evictions signal on.
#[derive(Debug, Default)]
struct ShardSlot {
    shard: Mutex<Shard>,
    read_done: Condvar,
}

/// Sharded LRU buffer pool; safe for concurrent readers.
pub struct BufferPool {
    store: RwLock<Box<dyn ChunkStore>>,
    capacity: usize,
    shards: Vec<ShardSlot>,
    tick: AtomicU64,
    resident: AtomicUsize,
    /// Bumped by every [`BufferPool::put`].
    generation: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
    peak_resident: AtomicU64,
    read_errors: AtomicU64,
    retries: AtomicU64,
    write_retries: AtomicU64,
    flushes: AtomicU64,
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
            .field("capacity", &self.capacity)
            .field("resident", &self.resident())
            .field("stats", &self.stats())
            .finish()
    }
}

fn shard_of(id: ChunkId) -> usize {
    ((id.0.wrapping_mul(0x9E37_79B9_7F4A_7C15)) >> 48) as usize % SHARD_COUNT
}

impl BufferPool {
    /// Wraps `store` with a pool of at most `capacity` resident chunks
    /// (minimum 1).
    pub fn new(store: Box<dyn ChunkStore>, capacity: usize) -> Self {
        BufferPool {
            store: RwLock::new(store),
            capacity: capacity.max(1),
            shards: (0..SHARD_COUNT).map(|_| ShardSlot::default()).collect(),
            tick: AtomicU64::new(0),
            resident: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            peak_resident: AtomicU64::new(0),
            read_errors: AtomicU64::new(0),
            retries: AtomicU64::new(0),
            write_retries: AtomicU64::new(0),
            flushes: AtomicU64::new(0),
        }
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    /// Store read with bounded retry/backoff for transient
    /// (`StoreError::Io`) failures; deterministic failures (`Corrupt`,
    /// `MissingChunk`, …) propagate immediately. Counts every retry in
    /// `retries` and the final failure — missing chunks excepted — in
    /// `read_errors`. With `absent_ok`, a chunk the store does not hold
    /// is `Ok(None)`, decided under the read's own store lock.
    fn read_with_retry(&self, id: ChunkId, absent_ok: bool) -> Result<Option<Chunk>> {
        let mut attempt = 0u32;
        loop {
            let read = {
                let store = self.store.read();
                if absent_ok && !store.contains(id) {
                    return Ok(None);
                }
                store.read(id)
            };
            match read {
                Ok(c) => return Ok(Some(c)),
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
    /// [`BufferPool::read_with_retry`]: transient (`StoreError::Io`)
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

    /// Evicts least-recently-used frames until residency drops below
    /// capacity.
    fn make_room(&self) -> Result<()> {
        while self.resident.load(Ordering::Relaxed) >= self.capacity {
            // Global LRU victim: scan shards one lock at a time.
            let mut victim: Option<(u64, usize, ChunkId)> = None;
            for (si, slot) in self.shards.iter().enumerate() {
                let sh = slot.shard.lock();
                for (&id, f) in &sh.frames {
                    if victim.map(|(lu, _, _)| f.last_use < lu).unwrap_or(true) {
                        victim = Some((f.last_use, si, id));
                    }
                }
            }
            let Some((last_use, si, id)) = victim else {
                // The scan raced concurrent evictions; the loop
                // condition rechecks residency.
                continue;
            };
            let mut sh = self.shards[si].shard.lock();
            // Revalidate under the shard lock: the frame may have been
            // touched or removed since the scan.
            let still_victim = sh
                .frames
                .get(&id)
                .map(|f| f.last_use == last_use)
                .unwrap_or(false);
            if !still_victim {
                continue;
            }
            let frame = sh.frames.remove(&id).expect("checked above");
            // Decrement residency before releasing the shard lock so a
            // concurrent scan that finds no victim never sees the
            // removed frame still counted.
            self.resident.fetch_sub(1, Ordering::Relaxed);
            self.evictions.fetch_add(1, Ordering::Relaxed);
            if frame.dirty {
                self.evict_dirty(si, id, frame, sh)?;
            }
        }
        Ok(())
    }

    /// Writes an evicted dirty frame through to the store as its own
    /// single-chunk flush transaction (`begin_flush` … `commit_flush`),
    /// so a crash mid-eviction recovers to the pre- or post-image and
    /// never persists part of a logical update outside any transaction.
    ///
    /// The caller has already removed the frame from its shard and
    /// still holds the shard guard. `id` moves to the shard's evicting
    /// set in the same critical section and stays there for the duration
    /// of the write, so `contains` and `ids` never miss it, and a
    /// concurrent miss on the same chunk waits on the condvar for the
    /// post-image instead of re-admitting the store's pre-image. On a
    /// terminal write failure the frame is restored (still dirty) and
    /// the eviction un-counted — an eviction must never lose an update.
    fn evict_dirty(
        &self,
        si: usize,
        id: ChunkId,
        frame: Frame,
        mut sh: MutexGuard<'_, Shard>,
    ) -> Result<()> {
        sh.evicting.insert(id);
        drop(sh);
        let committed = {
            let mut store = self.store.write();
            (|| {
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
            })()
        };
        let slot = &self.shards[si];
        let mut sh = slot.shard.lock();
        sh.evicting.remove(&id);
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
        committed
    }

    /// Fetches a chunk: a hit, or a store read that admits a frame. The
    /// miss is counted only after the read succeeds (a failed read must
    /// leave stats and residency untouched). Concurrent misses on the
    /// same chunk are read once: the first thread registers the chunk as
    /// in-flight and later threads wait on the shard's condvar, turning
    /// their requests into hits once the frame is admitted.
    pub fn get(&self, id: ChunkId) -> Result<Arc<Chunk>> {
        let chunk = self.fetch(id, false)?;
        Ok(chunk.expect("a read that may not be absent returns a chunk or errs"))
    }

    /// [`BufferPool::get`] of a chunk that may not exist: `None` where
    /// [`BufferPool::contains`] would say `false`, with no hit or miss
    /// counted. One call replaces `contains` then `get`: a hit takes its
    /// shard lock once, and a miss asks the store under the read's own
    /// store lock.
    pub fn get_present(&self, id: ChunkId) -> Result<Option<Arc<Chunk>>> {
        self.fetch(id, true)
    }

    fn fetch(&self, id: ChunkId, absent_ok: bool) -> Result<Option<Arc<Chunk>>> {
        let slot = &self.shards[shard_of(id)];
        {
            let mut sh = slot.shard.lock();
            loop {
                if let Some(f) = sh.frames.get_mut(&id) {
                    f.last_use = self.next_tick();
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return Ok(Some(Arc::clone(&f.chunk)));
                }
                if !sh.evicting.contains(&id) && sh.in_flight.insert(id) {
                    break; // this thread performs the read
                }
                // Another thread is reading or writing back `id`; wait
                // for it rather than duplicating the store I/O or reading
                // the pre-image, then re-check.
                slot.read_done.wait(&mut sh);
            }
        }
        // Miss: read outside the shard lock so reads of distinct chunks
        // overlap. Transient failures are retried with backoff while
        // this thread still owns the in-flight slot; on final failure
        // the slot is cleared and waiters are woken below, so they
        // re-enter the miss path and retry instead of hanging.
        let read = self.read_with_retry(id, absent_ok);
        let room = if matches!(read, Ok(Some(_))) {
            self.make_room()
        } else {
            Ok(())
        };
        let mut sh = slot.shard.lock();
        sh.in_flight.remove(&id);
        slot.read_done.notify_all();
        let chunk = match read {
            Ok(Some(c)) => Arc::new(c),
            Ok(None) => return Ok(None),
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
                last_use: 0,
                dirty: false,
            }
        });
        if admitted {
            self.misses.fetch_add(1, Ordering::Relaxed);
        } else {
            self.hits.fetch_add(1, Ordering::Relaxed);
        }
        f.last_use = self.next_tick();
        Ok(Some(Arc::clone(&f.chunk)))
    }

    /// Replaces a chunk's contents (write-through is deferred until
    /// eviction or [`BufferPool::flush_all`]) and advances
    /// [`BufferPool::generation`]. The frame holds `chunk` itself, so a
    /// caller may install an `Arc` another pool also holds: nothing
    /// mutates a chunk behind an `Arc` (a write clones, then puts).
    pub fn put(&self, id: ChunkId, chunk: Arc<Chunk>) -> Result<()> {
        let si = shard_of(id);
        {
            let mut sh = self.shards[si].shard.lock();
            if let Some(f) = sh.frames.get_mut(&id) {
                f.chunk = chunk;
                f.dirty = true;
                f.last_use = self.next_tick();
                self.generation.fetch_add(1, Ordering::SeqCst);
                return Ok(());
            }
        }
        self.make_room()?;
        let mut sh = self.shards[si].shard.lock();
        let f = sh.frames.entry(id).or_insert_with(|| {
            let now = self.resident.fetch_add(1, Ordering::Relaxed) + 1;
            self.peak_resident.fetch_max(now as u64, Ordering::Relaxed);
            Frame {
                chunk: Arc::clone(&chunk),
                last_use: 0,
                dirty: true,
            }
        });
        f.chunk = chunk;
        f.dirty = true;
        f.last_use = self.next_tick();
        self.generation.fetch_add(1, Ordering::SeqCst);
        Ok(())
    }

    /// Writes every dirty frame back to the store in one flush
    /// transaction; the store's commit makes it durable.
    pub fn flush_all(&self) -> Result<()> {
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

    /// Installs `store` as the backing store and returns the one it
    /// replaces. Resident frames keep serving hits; call
    /// [`BufferPool::clear`] first if subsequent reads must go through
    /// the new store.
    pub fn replace_store(&self, store: Box<dyn ChunkStore>) -> Box<dyn ChunkStore> {
        std::mem::replace(&mut *self.store.write(), store)
    }

    /// Whether the chunk exists (resident, being written back, or in
    /// the backing store). An evicting chunk leaves the evicting set only
    /// after its write commits, so a chunk absent from the shard here is
    /// either new or already in the store.
    pub fn contains(&self, id: ChunkId) -> bool {
        let sh = self.shards[shard_of(id)].shard.lock();
        if sh.frames.contains_key(&id) || sh.evicting.contains(&id) {
            return true;
        }
        drop(sh);
        self.store.read().contains(id)
    }

    /// Ids of every existing chunk — stored, resident or being written
    /// back — ascending. The shards are read before the store, for the
    /// reason [`BufferPool::contains`] gives.
    pub fn ids(&self) -> Vec<ChunkId> {
        let mut ids = Vec::new();
        for slot in &self.shards {
            let sh = slot.shard.lock();
            ids.extend(sh.frames.keys().chain(&sh.evicting));
        }
        ids.extend(self.store.read().ids());
        ids.sort_unstable();
        ids.dedup();
        ids
    }

    /// The number of [`BufferPool::put`] calls so far. A memo over the
    /// pool's contents folds it into its key (beside the store's flush
    /// epoch), so a write, flushed or not, strands every entry computed
    /// before it. A `put` advances it after its frame is in place, so a
    /// reader that sees the new generation also sees the new contents.
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::SeqCst)
    }

    /// Currently resident frames.
    pub fn resident(&self) -> usize {
        self.resident.load(Ordering::Relaxed)
    }

    /// Pool counters (a consistent-enough snapshot; each field is
    /// individually atomic).
    pub fn stats(&self) -> PoolStats {
        PoolStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            peak_resident: self.peak_resident.load(Ordering::Relaxed),
            read_errors: self.read_errors.load(Ordering::Relaxed),
            retries: self.retries.load(Ordering::Relaxed),
            write_retries: self.write_retries.load(Ordering::Relaxed),
            flushes: self.flushes.load(Ordering::Relaxed),
        }
    }

    /// Read access to the backing store.
    pub fn store(&self) -> StoreRef<'_> {
        StoreRef(self.store.read())
    }

    /// Exclusive access to the backing store (reorganization, seek
    /// models).
    pub fn store_mut(&self) -> StoreMut<'_> {
        StoreMut(self.store.write())
    }

    /// Flushes and drops every frame, forcing subsequent reads back to
    /// the store.
    pub fn clear(&self) -> Result<()> {
        self.flush_all()?;
        for slot in &self.shards {
            let mut sh = slot.shard.lock();
            let n = sh.frames.len();
            sh.frames.clear();
            self.resident.fetch_sub(n, Ordering::Relaxed);
        }
        Ok(())
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
    fn put_writes_back_on_flush() {
        let p = BufferPool::new(store_with(2), 2);
        let mut c = Chunk::new_dense(vec![2]);
        c.set(1, CellValue::num(42.0));
        p.put(ChunkId(0), Arc::new(c.clone())).unwrap();
        p.flush_all().unwrap();
        assert_eq!(
            p.store().read(ChunkId(0)).unwrap().get(1),
            CellValue::Num(42.0)
        );
    }

    #[test]
    fn eviction_flushes_dirty_frames() {
        let p = BufferPool::new(store_with(3), 1);
        let mut c = Chunk::new_dense(vec![2]);
        c.set(0, CellValue::num(7.0));
        p.put(ChunkId(0), Arc::new(c)).unwrap();
        p.get(ChunkId(1)).unwrap(); // evicts dirty 0
        assert_eq!(
            p.store().read(ChunkId(0)).unwrap().get(0),
            CellValue::Num(7.0)
        );
    }

    /// Satellite bugfix (ISSUE 6): a dirty eviction's write-through must
    /// run inside its own `begin_flush`/`commit_flush` transaction —
    /// previously it wrote bare, outside any flush transaction, exactly
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
        p.put(ChunkId(0), Arc::new(c)).unwrap();
        p.get(ChunkId(1)).unwrap(); // evicts dirty 0 in a flush transaction
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
        assert_eq!(p.stats(), before);
        assert_eq!(p.resident(), resident_before);
        let sh = p.shards[shard_of(ChunkId(99))].shard.lock();
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
                        let c = p.get(id).unwrap();
                        assert_eq!(c.get(0), CellValue::num((id.0) as f64));
                    }
                });
            }
        });
        let s = p.stats();
        assert_eq!(s.hits + s.misses, 800);
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
    }

    /// A committed `flush_all` on a file store is durable by itself:
    /// the commit fsyncs the log twice (records, then the `COMMIT`
    /// record), and a flush with nothing dirty syncs nothing.
    #[test]
    fn durable_flush_syncs_store() {
        use crate::filestore::FileStore;
        let path =
            std::env::temp_dir().join(format!("olap-pool-test-{}-durable", std::process::id()));
        let p = BufferPool::new(Box::new(FileStore::create(&path).unwrap()), 4);
        let syncs = |p: &BufferPool| {
            p.store()
                .as_any()
                .downcast_ref::<FileStore>()
                .unwrap()
                .wal_stats()
                .syncs
        };
        p.put(ChunkId(0), Arc::new(Chunk::new_dense(vec![2])))
            .unwrap();
        p.put(ChunkId(1), Arc::new(Chunk::new_dense(vec![2])))
            .unwrap();
        p.flush_all().unwrap();
        assert_eq!(syncs(&p), 2, "one committed flush, two fsyncs");
        p.flush_all().unwrap();
        assert_eq!(syncs(&p), 2, "nothing dirty, no transaction, no fsync");
        drop(p);
        std::fs::remove_file(&path).ok();
    }
}
