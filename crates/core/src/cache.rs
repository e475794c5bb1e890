//! The scenario-delta cache: memoized what-if output chunks.
//!
//! Interactive what-if analysis replays near-identical scenarios — the
//! analyst nudges one perspective and re-queries, toggles between two
//! alternatives to compare them, or (behind the server) shares the
//! cache with sessions exploring *different* scenarios. This module
//! caches *merged output chunks* keyed by `(chunk id, digest of the
//! fate table of the chunk's merge-graph component)` so the executor
//! can skip re-merging every component whose relocation plan matches a
//! previously computed one (DESIGN.md §10, §14).
//!
//! ## Why the component is the unit
//!
//! An output chunk of an affected label is a pure function of (a) the
//! input chunks of its merge-graph *component* within the slice and
//! (b) the destination-map fates of every slot of that component: cells
//! can only arrive from labels the chunk shares an edge with (that is
//! the definition of a [`crate::merge::MergeGraph`] edge), so labels
//! outside the component cannot influence it. With the input cube held
//! fixed — the cache belongs to a `Session` over one cube — the fate
//! table alone determines the bytes. A perspective edit rewrites fates
//! only for instances whose structure differs around the edited moment;
//! every other component keeps its digest and its chunks are served
//! from cache without touching the store.
//!
//! ## Versioned entries: a mismatch is a miss, never a destroy
//!
//! Entries are keyed by the *pair* `(ChunkId, digest)`, and multiple
//! digests may be resident for one chunk id at once — one per scenario
//! version that produced it. A lookup under a digest that is not
//! resident is simply a miss: nothing is dropped, so an analyst
//! toggling A↔B (or two server sessions pinned to different scenarios)
//! finds both versions warm after one pass over each. The only way an
//! entry leaves the cache is the global LRU byte bound (counted in
//! [`CacheStats::evictions`]) or an explicit [`ScenarioCache::clear`].
//!
//! The LRU order is an ordered index on last-use ticks (a `BTreeMap`
//! from unique tick to key), so eviction pops the oldest entry in
//! `O(log n)` instead of scanning the whole map per victim.

use crate::fingerprint::Fnv64;
use crate::operators::relocate::{CellFate, DestMap};
use olap_store::{Chunk, ChunkId};
use parking_lot::Mutex;
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A memoized output chunk. Merged cubes are sparse: most affected
/// labels produce *no* chunk (all cells relocated away or dropped), and
/// remembering that emptiness is exactly as valuable as remembering
/// bytes — otherwise every replay would re-merge just to rediscover ⊥.
#[derive(Debug, Clone)]
pub enum Cached {
    /// The merge produced no materialized chunk (all-⊥).
    Empty,
    /// The merged chunk, shared with the producing cube's pool.
    Chunk(Arc<Chunk>),
}

impl Cached {
    fn bytes(&self) -> usize {
        // A flat floor per entry keeps the map's own overhead counted.
        const ENTRY_OVERHEAD: usize = 64;
        match self {
            Cached::Empty => ENTRY_OVERHEAD,
            Cached::Chunk(c) => ENTRY_OVERHEAD + c.byte_size(),
        }
    }
}

/// Counters in the spirit of [`olap_store::PoolStats`]: lock-free to
/// read, reset-able between experiment phases.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Per-chunk digest probes.
    pub lookups: u64,
    /// Probes answered from cache (and actually served — a component is
    /// only served when *all* of its chunks hit, so partial matches are
    /// not counted as hits).
    pub hits: u64,
    /// Entries dropped by the LRU byte bound.
    pub evictions: u64,
    /// Resident payload bytes right now.
    pub bytes: u64,
}

#[derive(Debug)]
struct Entry {
    payload: Cached,
    bytes: usize,
    /// The unique tick of this entry's slot in `Inner::lru`.
    last_use: u64,
}

/// One version of one output chunk: the chunk id plus the component
/// digest it was merged under.
type Key = (ChunkId, u64);

#[derive(Debug, Default)]
struct Inner {
    entries: HashMap<Key, Entry>,
    /// Ordered LRU index: unique last-use tick → entry key. Eviction is
    /// `pop_first()`; a touch moves the entry's tick to the maximum.
    lru: BTreeMap<u64, Key>,
    bytes: usize,
    tick: u64,
}

impl Inner {
    /// Assigns a fresh (maximal, unique) tick to `key`'s LRU slot.
    fn touch(&mut self, key: Key) {
        self.tick += 1;
        let tick = self.tick;
        let e = self.entries.get_mut(&key).expect("touched key is resident");
        let old = std::mem::replace(&mut e.last_use, tick);
        self.lru.remove(&old);
        self.lru.insert(tick, key);
    }
}

/// A bounded, LRU-evicted, thread-safe cache of merged what-if chunks,
/// versioned by component digest.
///
/// `Send + Sync`: one instance is shared by every query a `Session`
/// runs — and, behind the server, by every *session* of a multi-tenant
/// process, each on its own thread. The executor
/// consults it before pebbling each merge component and installs the
/// component's output chunks after a miss. Because entries are keyed by
/// `(chunk id, digest)`, sessions on different scenarios coexist: each
/// keeps hitting its own versions instead of destroying the other's.
///
/// The interior lock is a [`parking_lot::Mutex`] (same as the buffer
/// pool's shards), which does not poison: a query that panics while
/// holding the lock leaves the cache usable for every other session.
/// The cache is an optimization — it must degrade, never propagate a
/// peer's failure.
#[derive(Debug)]
pub struct ScenarioCache {
    inner: Mutex<Inner>,
    capacity: usize,
    lookups: AtomicU64,
    hits: AtomicU64,
    evictions: AtomicU64,
}

impl ScenarioCache {
    /// A cache bounded to `capacity` payload bytes (floored at one
    /// chunk-sized unit so a tiny bound still caches something).
    pub fn new(capacity: usize) -> Self {
        ScenarioCache {
            inner: Mutex::new(Inner::default()),
            capacity: capacity.max(4096),
            lookups: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
        }
    }

    /// Convenience for the `--cache <MB>` flags.
    pub fn with_capacity_mb(mb: usize) -> Self {
        ScenarioCache::new(mb.saturating_mul(1024 * 1024))
    }

    /// The configured byte bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of resident entries (chunk versions, not chunk ids).
    pub fn len(&self) -> usize {
        self.inner.lock().entries.len()
    }

    /// Whether nothing is cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// All-or-nothing probe for one merge component: `keys` lists every
    /// output chunk the component owns with the digest of its current
    /// fate table. Returns the payloads only if *every* chunk is
    /// resident under a matching digest — serving a partial component
    /// would mix plans. A digest mismatch is a plain miss: entries
    /// cached under other digests stay resident for whichever scenario
    /// produced them.
    pub fn lookup_component(&self, keys: &[(ChunkId, u64)]) -> Option<Vec<Cached>> {
        self.lookups.fetch_add(keys.len() as u64, Ordering::Relaxed);
        let mut inner = self.inner.lock();
        if !keys.iter().all(|key| inner.entries.contains_key(key)) {
            return None;
        }
        let mut out = Vec::with_capacity(keys.len());
        for &key in keys {
            inner.touch(key);
            out.push(inner.entries[&key].payload.clone());
        }
        self.hits.fetch_add(keys.len() as u64, Ordering::Relaxed);
        Some(out)
    }

    /// Installs (or replaces) one chunk version under `(id, digest)`,
    /// evicting least-recently-used entries if the byte bound is
    /// exceeded. Other digests of the same chunk id are untouched.
    pub fn insert(&self, id: ChunkId, digest: u64, payload: Cached) {
        let bytes = payload.bytes();
        let key = (id, digest);
        let mut inner = self.inner.lock();
        inner.tick += 1;
        let tick = inner.tick;
        if let Some(old) = inner.entries.remove(&key) {
            inner.bytes -= old.bytes;
            inner.lru.remove(&old.last_use);
        }
        inner.bytes += bytes;
        inner.entries.insert(
            key,
            Entry {
                payload,
                bytes,
                last_use: tick,
            },
        );
        inner.lru.insert(tick, key);
        let mut evicted = 0u64;
        // The entry just inserted holds the maximal tick, so popping the
        // front never evicts it while anything else is resident.
        while inner.bytes > self.capacity && inner.entries.len() > 1 {
            let Some((_, victim)) = inner.lru.pop_first() else {
                break;
            };
            let e = inner.entries.remove(&victim).expect("lru tracks entries");
            inner.bytes -= e.bytes;
            evicted += 1;
        }
        self.evictions.fetch_add(evicted, Ordering::Relaxed);
    }

    /// Counter snapshot.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            lookups: self.lookups.load(Ordering::Relaxed),
            hits: self.hits.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            bytes: self.inner.lock().bytes as u64,
        }
    }

    /// Drops every entry.
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.entries.clear();
        inner.lru.clear();
        inner.bytes = 0;
    }
}

/// Digest of one merge component's relocation plan: the sorted label
/// set and the complete fate table of every slot those labels own,
/// prefixed with the geometry context that scopes slot numbering. Equal
/// digests ⇒ identical relocation of identical inputs ⇒ identical
/// output bytes (see the module docs for the locality argument).
pub struct ComponentDigest<'a> {
    h: Fnv64,
    vd_extent: u32,
    axis_len: u32,
    moments: u32,
    dest: &'a DestMap,
}

impl<'a> ComponentDigest<'a> {
    /// Starts a digest under a fixed geometry/dimension context.
    pub fn new(
        geometry_sig: u64,
        vd: usize,
        vd_extent: u32,
        axis_len: u32,
        dest: &'a DestMap,
    ) -> Self {
        let mut h = Fnv64::new();
        h.write_u64(geometry_sig)
            .write_u32(vd as u32)
            .write_u32(vd_extent)
            .write_u32(axis_len)
            .write_u32(dest.moments());
        ComponentDigest {
            h,
            vd_extent,
            axis_len,
            moments: dest.moments(),
            dest,
        }
    }

    /// Folds one label of the component (callers fold labels in sorted
    /// order) and the fates of every slot it owns.
    pub fn fold_label(&mut self, label: u32) {
        self.h.write_u32(label);
        let lo = label * self.vd_extent;
        let hi = ((label + 1) * self.vd_extent).min(self.axis_len);
        for slot in lo..hi {
            for t in 0..self.moments {
                match self.dest.fate(slot, t) {
                    CellFate::Skip => {
                        self.h.write_u8(0);
                    }
                    CellFate::Drop => {
                        self.h.write_u8(1);
                    }
                    CellFate::To(d) => {
                        self.h.write_u8(2).write_u32(d);
                    }
                }
            }
        }
    }

    /// The component digest.
    pub fn finish(&self) -> u64 {
        self.h.finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk() -> Arc<Chunk> {
        let mut c = Chunk::new_dense(vec![2, 2]);
        c.set(0, olap_store::CellValue::num(1.0));
        Arc::new(c)
    }

    #[test]
    fn all_or_nothing_component_lookup() {
        let cache = ScenarioCache::new(1 << 20);
        cache.insert(ChunkId(1), 7, Cached::Chunk(chunk()));
        // Partial component: chunk 2 missing ⇒ no serve, no hit counted.
        assert!(cache
            .lookup_component(&[(ChunkId(1), 7), (ChunkId(2), 7)])
            .is_none());
        cache.insert(ChunkId(2), 7, Cached::Empty);
        let served = cache
            .lookup_component(&[(ChunkId(1), 7), (ChunkId(2), 7)])
            .expect("full component should hit");
        assert_eq!(served.len(), 2);
        let st = cache.stats();
        assert_eq!(st.lookups, 4);
        assert_eq!(st.hits, 2);
    }

    #[test]
    fn digest_mismatch_is_a_miss_not_a_destroy() {
        let cache = ScenarioCache::new(1 << 20);
        cache.insert(ChunkId(9), 1, Cached::Chunk(chunk()));
        // Probing under another digest misses — and destroys nothing.
        assert!(cache.lookup_component(&[(ChunkId(9), 2)]).is_none());
        assert_eq!(cache.len(), 1, "the other version must stay resident");
        // The original version still hits.
        assert!(cache.lookup_component(&[(ChunkId(9), 1)]).is_some());
    }

    #[test]
    fn two_digests_of_one_chunk_coexist_and_both_hit() {
        // The A/B toggle in miniature: scenario A's and scenario B's
        // versions of one output chunk are both resident, and switching
        // between them is hit after hit.
        let cache = ScenarioCache::new(1 << 20);
        cache.insert(ChunkId(5), 0xA, Cached::Chunk(chunk()));
        cache.insert(ChunkId(5), 0xB, Cached::Empty);
        assert_eq!(cache.len(), 2, "both versions of chunk 5 are resident");
        for _ in 0..4 {
            assert!(cache.lookup_component(&[(ChunkId(5), 0xA)]).is_some());
            assert!(cache.lookup_component(&[(ChunkId(5), 0xB)]).is_some());
        }
        let st = cache.stats();
        assert_eq!(st.evictions, 0);
        assert_eq!(st.hits, 8);
    }

    #[test]
    fn reinsert_same_version_replaces_in_place() {
        let cache = ScenarioCache::new(1 << 20);
        cache.insert(ChunkId(3), 7, Cached::Chunk(chunk()));
        cache.insert(ChunkId(3), 7, Cached::Empty);
        assert_eq!(cache.len(), 1);
        let st = cache.stats();
        assert_eq!(st.bytes, 64, "replaced payload must re-account bytes");
    }

    #[test]
    fn panicked_session_does_not_poison_the_cache() {
        // A multi-tenant server shares one cache across sessions; a
        // panicking query must not take the cache down with it. The
        // parking_lot mutex does not poison, so lookups from surviving
        // sessions keep being served.
        let cache = Arc::new(ScenarioCache::new(1 << 20));
        cache.insert(ChunkId(1), 7, Cached::Chunk(chunk()));
        let peer = Arc::clone(&cache);
        let crashed = std::thread::spawn(move || {
            peer.insert(ChunkId(2), 7, Cached::Empty);
            // Unwind *while holding* the cache lock: the scenario that
            // poisoned the old std::sync::Mutex for every later caller.
            let _guard = peer.inner.lock();
            panic!("simulated mid-query session crash");
        })
        .join();
        assert!(crashed.is_err(), "the session thread must have panicked");
        let served = cache
            .lookup_component(&[(ChunkId(1), 7), (ChunkId(2), 7)])
            .expect("cache must keep serving after a peer panic");
        assert_eq!(served.len(), 2);
        cache.insert(ChunkId(3), 9, Cached::Empty);
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_eviction_respects_byte_bound() {
        let per_entry = Cached::Chunk(chunk()).bytes();
        let cache = ScenarioCache::new(4096.max(2 * per_entry + 10));
        let n_fit = cache.capacity() / per_entry;
        for i in 0..(n_fit as u64 + 3) {
            cache.insert(ChunkId(i), 0, Cached::Chunk(chunk()));
        }
        let st = cache.stats();
        assert!(st.bytes as usize <= cache.capacity());
        assert!(st.evictions >= 3, "LRU must have evicted: {st:?}");
        // Oldest entries went first; the most recent insert survives.
        assert!(cache
            .lookup_component(&[(ChunkId(n_fit as u64 + 2), 0)])
            .is_some());
    }

    #[test]
    fn lru_eviction_order_follows_recency_across_versions() {
        let per_entry = Cached::Chunk(chunk()).bytes();
        // Room for exactly 4096/per_entry entries; insert three versions,
        // touch the oldest, then overflow — the untouched middle one goes.
        let cache = ScenarioCache::new(4096);
        let capacity = cache.capacity() / per_entry;
        assert!(capacity >= 3, "fixture assumes at least 3 entries fit");
        for i in 0..capacity as u64 {
            cache.insert(ChunkId(0), i, Cached::Chunk(chunk()));
        }
        // Refresh version 0 so version 1 becomes the LRU victim.
        assert!(cache.lookup_component(&[(ChunkId(0), 0)]).is_some());
        cache.insert(ChunkId(0), 999, Cached::Chunk(chunk()));
        assert!(cache.lookup_component(&[(ChunkId(0), 0)]).is_some());
        assert!(cache.lookup_component(&[(ChunkId(0), 1)]).is_none());
        assert_eq!(cache.stats().evictions, 1);
    }

    #[test]
    fn lru_index_stays_consistent_under_churn() {
        // The ordered index and the entry map must agree at all times —
        // this is the invariant the O(log n) eviction rests on.
        let cache = ScenarioCache::new(4096);
        for round in 0..50u64 {
            cache.insert(ChunkId(round % 7), round % 3, Cached::Chunk(chunk()));
            let _ = cache.lookup_component(&[(ChunkId(round % 5), round % 3)]);
            let inner = cache.inner.lock();
            assert_eq!(inner.entries.len(), inner.lru.len());
            for (tick, key) in &inner.lru {
                assert_eq!(inner.entries[key].last_use, *tick);
            }
            let tracked: usize = inner.entries.values().map(|e| e.bytes).sum();
            assert_eq!(tracked, inner.bytes);
        }
    }
}
