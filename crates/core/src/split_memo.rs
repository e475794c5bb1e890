//! Memoization for the positive/split path.
//!
//! Negative scenarios have been cached since PR 6 ([`crate::cache`]
//! keys perspective components by fingerprint), but positive scenarios
//! — which *rebuild the varying axis* via [`crate::operators::split()`] —
//! were recomputed on every `.apply`, even though a fork replaying the
//! same change relation produces a bit-identical result every time
//! (split is a pure function of the base cube and the change set).
//! This module closes that ROADMAP leftover: split results are retained
//! keyed by [`crate::positive_fingerprint`], salted with the base
//! cube's identity, so a warm replay answers from the memo with zero
//! re-splits.
//!
//! Invalidation: the key folds in the base schema's address and the
//! backing store's flush epoch ([`memo_key`]), so swapping datasets or
//! committing new base data (locally or via a replicated apply) changes
//! every key and strands the stale entries, which the small LRU-ish cap
//! then evicts. The mutex is `parking_lot` — a session panicking
//! mid-insert must not poison the memo for its neighbours (same
//! discipline as [`crate::ScenarioCache`]).

use crate::fingerprint::{positive_fingerprint, Fnv64};
use crate::perspective::Mode;
use crate::scenario::Change;
use olap_cube::Cube;
use olap_model::{DimensionId, Schema};
use parking_lot::Mutex;
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// One memoized split: the rebuilt schema and cube, plus the
/// caller-computed summary a warm replay answers with.
#[derive(Debug)]
pub struct SplitResult {
    /// Schema with the varying axis rebuilt by the change relation.
    pub schema: Arc<Schema>,
    /// The split output cube.
    pub cube: Cube,
    /// Present cells in `cube`.
    pub cells: u64,
    /// Order-independent content digest of `cube` (caller-defined).
    pub digest: u64,
}

/// Entry ceiling: split outputs are whole cubes, so the memo stays
/// small; overflow clears the map (the keys carry no recency signal
/// worth an LRU's bookkeeping at this size).
const MEMO_CAP: usize = 16;

/// Counters surfaced through `.stats`-style reporting.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SplitMemoStats {
    /// Lookups answered from the memo (splits avoided).
    pub hits: u64,
    /// Lookups that missed (a split was performed and inserted).
    pub misses: u64,
    /// Entries dropped by the overflow clear.
    pub evictions: u64,
}

/// A keyed store of memoized split results. Thread-safe; shared per
/// session (or wider) behind an `Arc`.
/// Not folded into [`crate::ScenarioCache`]: that one keys
/// `(chunk, component digest)` entries under a byte-bounded LRU, while
/// this one keys whole split cubes by fingerprint and flush epoch and
/// clears at `MEMO_CAP` entries.
#[derive(Debug, Default)]
pub struct SplitMemo {
    inner: Mutex<HashMap<u64, Arc<SplitResult>>>,
    hits: AtomicU64,
    misses: AtomicU64,
    evictions: AtomicU64,
}

impl SplitMemo {
    /// An empty memo.
    pub fn new() -> Self {
        Self::default()
    }

    /// Looks up a memoized split.
    pub fn lookup(&self, key: u64) -> Option<Arc<SplitResult>> {
        let found = self.inner.lock().get(&key).cloned();
        match &found {
            Some(_) => self.hits.fetch_add(1, Ordering::Relaxed),
            None => self.misses.fetch_add(1, Ordering::Relaxed),
        };
        found
    }

    /// Inserts a freshly computed split under `key`.
    pub fn insert(&self, key: u64, result: Arc<SplitResult>) {
        let mut map = self.inner.lock();
        if map.len() >= MEMO_CAP && !map.contains_key(&key) {
            self.evictions
                .fetch_add(map.len() as u64, Ordering::Relaxed);
            map.clear();
        }
        map.insert(key, result);
    }

    /// Drops every entry (e.g. after a replicated apply rewrote the
    /// base store).
    pub fn clear(&self) {
        let mut map = self.inner.lock();
        self.evictions
            .fetch_add(map.len() as u64, Ordering::Relaxed);
        map.clear();
    }

    /// Entries currently resident.
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the memo holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Counter snapshot.
    pub fn stats(&self) -> SplitMemoStats {
        SplitMemoStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
        }
    }
}

/// The memo key for splitting `cube` by the change relation
/// `(dim, mode, changes)`: the scenario's [`positive_fingerprint`]
/// salted with the base schema's address and the backing store's flush
/// epoch. The salt makes the key self-invalidating — a different
/// dataset (new schema allocation) or newly committed base data (epoch
/// advance, including a follower's replicated applies) can never
/// collide with a stale entry.
pub fn memo_key<'a>(
    cube: &Cube,
    dim: DimensionId,
    mode: Mode,
    changes: impl Iterator<Item = &'a Change>,
) -> u64 {
    let fp = positive_fingerprint(dim, mode, changes);
    let mut h = Fnv64::new();
    h.write_u64(fp)
        .write_u64(Arc::as_ptr(cube.schema()) as u64)
        .write_u64(cube.with_pool(|p| p.store().flush_epoch()));
    h.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_model::SchemaBuilder;

    fn entry() -> Arc<SplitResult> {
        let schema = Arc::new(
            SchemaBuilder::new()
                .dimension(olap_model::DimensionSpec::new("D").tree(&[("g", &["a", "b"])]))
                .build()
                .unwrap(),
        );
        let cube = Cube::builder(Arc::clone(&schema), vec![2])
            .unwrap()
            .finish()
            .unwrap();
        Arc::new(SplitResult {
            schema,
            cube,
            cells: 0,
            digest: 1,
        })
    }

    #[test]
    fn lookup_counts_hits_and_misses() {
        let memo = SplitMemo::new();
        assert!(memo.lookup(7).is_none());
        memo.insert(7, entry());
        assert!(memo.lookup(7).is_some());
        assert!(memo.lookup(8).is_none());
        let s = memo.stats();
        assert_eq!(s.hits, 1);
        assert_eq!(s.misses, 2);
    }

    #[test]
    fn overflow_clears_rather_than_grows() {
        let memo = SplitMemo::new();
        for k in 0..(MEMO_CAP as u64 + 3) {
            memo.insert(k, entry());
        }
        assert!(memo.len() <= MEMO_CAP);
        assert!(memo.stats().evictions >= MEMO_CAP as u64);
    }

    #[test]
    fn panicked_holder_does_not_poison() {
        let memo = Arc::new(SplitMemo::new());
        let m2 = Arc::clone(&memo);
        let res = std::thread::spawn(move || {
            m2.insert(1, entry());
            let _guard_held = m2.lookup(1);
            panic!("session died mid-use");
        })
        .join();
        assert!(res.is_err());
        // A poisoning mutex would panic here; parking_lot just locks.
        assert!(memo.lookup(1).is_some());
    }
}
