//! Deterministic fault injection for the storage stack.
//!
//! [`FaultStore`] wraps any [`ChunkStore`] and executes a scriptable
//! **fault plan**: fail the Nth read or write (once, or persistently
//! from then on), corrupt a read with a single bit flip, or delay an
//! operation. Plans are plain data ([`FaultSpec`]) so tests can script
//! exact scenarios, and [`FaultStore::with_random_plan`] derives a plan
//! from a seed for the randomized suites — the same seed always yields
//! the same schedule.
//!
//! Fault semantics:
//!
//! * [`FaultKind::Error`] — the operation fails with an injected
//!   [`StoreError::Io`] (the *transient* class: the buffer pool's
//!   bounded retry applies). With `persistent: true` every subsequent
//!   matching operation fails too (a dead device: retries exhaust).
//! * [`FaultKind::BitFlip`] — on a read, the chunk's stored bytes are
//!   reproduced with one bit flipped and re-decoded, exercising the
//!   OLC3 checksum: the read surfaces [`StoreError::Corrupt`], never a
//!   silently wrong chunk. On a write it reports
//!   [`StoreError::Corrupt`] (a failed post-write verify) rather than
//!   persisting garbage.
//! * [`FaultKind::Delay`] — the operation completes normally after a
//!   busy delay (I/O stall; exercises waiter timeouts, not errors).
//!
//! The wrapper is deliberately cheap and lock-light: op counters are
//! atomics and the plan is only scanned when armed, so wrapping a store
//! in an (empty-plan) `FaultStore` does not perturb timing-sensitive
//! tests.
//!
//! A pool built over a `FaultStore` (`BufferPool::new(Box::new(..), cap)`)
//! sees the plan from its first read; [`inject`] puts one under a live
//! pool instead, through `BufferPool::replace_store`.

use olap_store::{
    codec, integrity, BufferPool, Chunk, ChunkId, ChunkStore, IoStats, MemStore, Result, StoreError,
};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Which operation class a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultOp {
    /// Chunk reads.
    Read,
    /// Chunk writes.
    Write,
}

/// What happens when a fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultKind {
    /// Fail with an injected I/O error (transient class — retryable).
    Error,
    /// Corrupt one bit of the stored payload (reads surface
    /// [`StoreError::Corrupt`] via the checksum; never a wrong value).
    BitFlip,
    /// Stall the operation, then let it succeed.
    Delay(Duration),
}

/// One scheduled fault: fire on the `at`-th matching operation
/// (1-based, counted per [`FaultOp`] class across the store's lifetime).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FaultSpec {
    /// Operation class to target.
    pub op: FaultOp,
    /// 1-based index of the targeted operation within its class.
    pub at: u64,
    /// Failure mode.
    pub kind: FaultKind,
    /// `false`: fire exactly once, on operation `at`. `true`: fire on
    /// `at` and every matching operation after it (dead device).
    pub persistent: bool,
}

impl FaultSpec {
    fn matches(&self, op: FaultOp, n: u64) -> bool {
        self.op == op
            && if self.persistent {
                n >= self.at
            } else {
                n == self.at
            }
    }
}

/// A [`ChunkStore`] wrapper that injects scheduled faults.
///
/// Deterministic: given the same plan and the same per-class operation
/// order, the same operations fault. (Under a concurrent pool the
/// *assignment* of op indices to chunk ids depends on thread timing,
/// which is exactly the nondeterminism robustness tests need to
/// survive.)
pub struct FaultStore {
    inner: Box<dyn ChunkStore>,
    plan: Vec<FaultSpec>,
    reads_seen: AtomicU64,
    writes_seen: AtomicU64,
    faults_injected: AtomicU64,
}

impl FaultStore {
    /// Wraps `inner` with a fault plan.
    pub fn new(inner: Box<dyn ChunkStore>, plan: Vec<FaultSpec>) -> Self {
        FaultStore {
            inner,
            plan,
            reads_seen: AtomicU64::new(0),
            writes_seen: AtomicU64::new(0),
            faults_injected: AtomicU64::new(0),
        }
    }

    /// Convenience: fail exactly the `n`-th read (1-based) with a
    /// transient error.
    pub fn fail_nth_read(inner: Box<dyn ChunkStore>, n: u64) -> Self {
        FaultStore::new(
            inner,
            vec![FaultSpec {
                op: FaultOp::Read,
                at: n,
                kind: FaultKind::Error,
                persistent: false,
            }],
        )
    }

    /// Derives a 1–3 fault plan from `seed` (same seed, same plan).
    /// Faults skew toward early reads with occasional writes, bit
    /// flips, and sub-millisecond delays.
    pub fn with_random_plan(inner: Box<dyn ChunkStore>, seed: u64) -> Self {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.random_range(1u32..=3) as usize;
        let mut plan = Vec::with_capacity(n);
        for _ in 0..n {
            let op = if rng.random_bool(0.8) {
                FaultOp::Read
            } else {
                FaultOp::Write
            };
            let kind = match rng.random_range(0u32..100) {
                0..=59 => FaultKind::Error,
                60..=84 => FaultKind::BitFlip,
                _ => FaultKind::Delay(Duration::from_micros(rng.random_range(50u64..=500))),
            };
            plan.push(FaultSpec {
                op,
                at: rng.random_range(1u64..=24),
                kind,
                persistent: rng.random_bool(0.25),
            });
        }
        FaultStore::new(inner, plan)
    }

    /// The scheduled plan.
    pub fn plan(&self) -> &[FaultSpec] {
        &self.plan
    }

    /// Reads attempted so far (including faulted ones).
    pub fn reads_seen(&self) -> u64 {
        self.reads_seen.load(Ordering::Relaxed)
    }

    /// Faults that actually fired.
    pub fn faults_injected(&self) -> u64 {
        self.faults_injected.load(Ordering::Relaxed)
    }

    /// The first scheduled fault firing on the `n`-th op of class `op`.
    fn armed(&self, op: FaultOp, n: u64) -> Option<FaultKind> {
        let spec = self.plan.iter().find(|s| s.matches(op, n))?;
        self.faults_injected.fetch_add(1, Ordering::Relaxed);
        Some(spec.kind)
    }

    fn injected_io(what: &str, n: u64) -> StoreError {
        StoreError::Io(std::io::Error::other(format!(
            "injected fault: {what} #{n} failed"
        )))
    }
}

/// Drains `pool` (flushes and drops every frame, so every later read
/// reaches the store), then wraps its backing store in `fault`.
pub fn inject(pool: &BufferPool, fault: impl FnOnce(Box<dyn ChunkStore>) -> FaultStore) {
    pool.clear().expect("drain the pool");
    let store = pool.replace_store(Box::new(MemStore::new()));
    pool.replace_store(Box::new(fault(store)));
}

/// Switches off the fault plan of the [`FaultStore`] behind `pool`, so
/// every later store operation passes through to the wrapped store.
pub fn disarm(pool: &BufferPool) {
    let mut store = pool.store_mut();
    let fault =
        (store.as_any_mut().downcast_mut::<FaultStore>()).expect("a FaultStore behind the pool");
    fault.plan.clear();
}

impl ChunkStore for FaultStore {
    fn read(&self, id: ChunkId) -> Result<Chunk> {
        let n = self.reads_seen.fetch_add(1, Ordering::Relaxed) + 1;
        match self.armed(FaultOp::Read, n) {
            Some(FaultKind::Error) => return Err(Self::injected_io("read", n)),
            Some(FaultKind::BitFlip) => {
                // Reproduce the chunk's stored form, flip one bit of the
                // codec payload, and decode as a reader would: the OLC3
                // checksum turns the flip into `Corrupt`, never a wrong
                // value.
                let chunk = self.inner.read(id)?;
                let mut bytes = integrity::wrap_checksummed(&codec::encode(&chunk)?);
                let victim = bytes.len() - 3; // a value byte, not framing
                bytes[victim] ^= 1 << (n % 8) as u8;
                return codec::decode(integrity::unwrap_verified(&bytes)?);
            }
            Some(FaultKind::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
        self.inner.read(id)
    }

    fn write(&mut self, id: ChunkId, chunk: &Chunk) -> Result<()> {
        let n = self.writes_seen.fetch_add(1, Ordering::Relaxed) + 1;
        match self.armed(FaultOp::Write, n) {
            Some(FaultKind::Error) => return Err(Self::injected_io("write", n)),
            Some(FaultKind::BitFlip) => {
                // A write that would land corrupt reports a failed
                // post-write verify instead of persisting garbage.
                return Err(StoreError::Corrupt(format!(
                    "injected fault: write #{n} failed post-write verify"
                )));
            }
            Some(FaultKind::Delay(d)) => std::thread::sleep(d),
            None => {}
        }
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

    // The flush-transaction protocol passes through untouched: faults
    // target chunk reads/writes, and the wrapped store's log (if any)
    // must keep seeing real begin/commit boundaries.
    fn begin_flush(&mut self) -> Result<()> {
        self.inner.begin_flush()
    }

    fn commit_flush(&mut self) -> Result<u64> {
        self.inner.commit_flush()
    }

    fn abort_flush(&mut self) -> Result<()> {
        self.inner.abort_flush()
    }

    fn flush_epoch(&self) -> u64 {
        self.inner.flush_epoch()
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use olap_store::CellValue;

    fn store_with(n: u64) -> Box<dyn ChunkStore> {
        let mut s = MemStore::new();
        for i in 0..n {
            let mut c = Chunk::new_dense(vec![4]);
            c.set(0, CellValue::num(i as f64));
            s.write(ChunkId(i), &c).unwrap();
        }
        Box::new(s)
    }

    #[test]
    fn nth_read_fails_once_then_recovers() {
        let fs = FaultStore::fail_nth_read(store_with(4), 2);
        assert!(fs.read(ChunkId(0)).is_ok());
        assert!(matches!(fs.read(ChunkId(1)), Err(StoreError::Io(_))));
        assert!(fs.read(ChunkId(1)).is_ok(), "transient fault must clear");
        assert_eq!(fs.faults_injected(), 1);
        assert_eq!(fs.reads_seen(), 3);
    }

    #[test]
    fn persistent_fault_never_clears() {
        let fs = FaultStore::new(
            store_with(2),
            vec![FaultSpec {
                op: FaultOp::Read,
                at: 2,
                kind: FaultKind::Error,
                persistent: true,
            }],
        );
        assert!(fs.read(ChunkId(0)).is_ok());
        for _ in 0..5 {
            assert!(fs.read(ChunkId(1)).is_err());
        }
        assert_eq!(fs.faults_injected(), 5);
    }

    #[test]
    fn bit_flip_surfaces_corrupt_not_wrong_value() {
        let fs = FaultStore::new(
            store_with(1),
            vec![FaultSpec {
                op: FaultOp::Read,
                at: 1,
                kind: FaultKind::BitFlip,
                persistent: false,
            }],
        );
        assert!(matches!(fs.read(ChunkId(0)), Err(StoreError::Corrupt(_))));
        // The underlying data is intact.
        assert_eq!(fs.read(ChunkId(0)).unwrap().get(0), CellValue::Num(0.0));
    }

    #[test]
    fn write_faults_fire_and_clear() {
        let mut fs = FaultStore::new(
            store_with(0),
            vec![FaultSpec {
                op: FaultOp::Write,
                at: 1,
                kind: FaultKind::Error,
                persistent: false,
            }],
        );
        let c = Chunk::new_dense(vec![4]);
        assert!(fs.write(ChunkId(9), &c).is_err());
        assert!(!fs.contains(ChunkId(9)), "failed write must not land");
        assert!(fs.write(ChunkId(9), &c).is_ok());
    }

    #[test]
    fn delay_passes_through_with_stall() {
        let fs = FaultStore::new(
            store_with(1),
            vec![FaultSpec {
                op: FaultOp::Read,
                at: 1,
                kind: FaultKind::Delay(Duration::from_millis(5)),
                persistent: false,
            }],
        );
        let t = std::time::Instant::now();
        assert!(fs.read(ChunkId(0)).is_ok());
        assert!(t.elapsed() >= Duration::from_millis(5));
    }

    #[test]
    fn random_plans_are_reproducible() {
        let a = FaultStore::with_random_plan(store_with(0), 1234);
        let b = FaultStore::with_random_plan(store_with(0), 1234);
        let c = FaultStore::with_random_plan(store_with(0), 1235);
        assert_eq!(a.plan(), b.plan());
        assert!(!a.plan().is_empty());
        assert_ne!(a.plan(), c.plan(), "different seeds should differ");
    }
}
