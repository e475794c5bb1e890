//! File-backed chunk store with controllable physical layout.
//!
//! Chunks are appended to a single log file as self-describing records
//! (`chunk id`, `payload length`, codec payload); an in-memory index maps
//! chunk ids to file extents. Re-writing a chunk appends a new record and
//! leaves a hole — [`FileStore::reorganize`] rewrites the file contiguously
//! in a caller-chosen chunk order, which is exactly what the paper does
//! between Fig. 12 measurements ("the cube was reorganized after every such
//! insert to ensure there was no fragmentation").
//!
//! An optional [`SeekModel`] charges a latency per read proportional to the
//! file-offset distance from the previous read, saturating at a maximum —
//! the rise-then-flatten behaviour of a physical disk arm that Fig. 12
//! observes ("beyond that distance, the query elapsed time stabilizes
//! because disk seek time eventually becomes a constant overhead"). Modern
//! page-cached SSD I/O would otherwise hide the co-location effect
//! entirely; see DESIGN.md §2 for the substitution rationale.

use crate::chunk::Chunk;
use crate::codec;
use crate::compress;
use crate::error::StoreError;
use crate::geometry::ChunkId;
use crate::integrity;
use crate::store::{ChunkStore, IoStats};
use crate::wal::{self, Wal, WalChunk, WalRecovery, WalStats, WalTxn};
use crate::Result;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Per-read latency model: `min(distance × ns_per_byte, max_ns)` of busy
/// waiting, where `distance` is the absolute file-offset gap from the end
/// of the previous read.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SeekModel {
    /// Nanoseconds charged per byte of seek distance.
    pub ns_per_byte: f64,
    /// Saturation point — a full-stroke seek (the Fig. 12 plateau).
    pub max_ns: u64,
}

impl SeekModel {
    /// A model calibrated so that chunk separations in the hundreds of
    /// kilobytes produce measurable (tens of microseconds) but not absurd
    /// latencies: 0.05 ns/byte, saturating at 200 µs.
    pub fn default_disk() -> Self {
        SeekModel {
            ns_per_byte: 0.05,
            max_ns: 200_000,
        }
    }

    /// The latency charged for a given seek distance.
    pub fn latency(&self, distance: u64) -> Duration {
        let ns = (distance as f64 * self.ns_per_byte) as u64;
        Duration::from_nanos(ns.min(self.max_ns))
    }

    fn apply(&self, distance: u64) {
        let d = self.latency(distance);
        if d.is_zero() {
            return;
        }
        // Sleeping frees the core (essential once background I/O workers
        // share it) but overshoots by scheduler quanta; spinning is
        // precise but burns CPU for the whole delay. Hybrid: sleep off
        // the bulk of long delays, spin only the short remainder.
        const SPIN_CEILING: Duration = Duration::from_micros(5);
        let start = Instant::now();
        if d > SPIN_CEILING {
            std::thread::sleep(d - SPIN_CEILING);
        }
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }
}

const REC_HEADER: usize = 8 + 4; // chunk id + payload length

/// Chunk id → (payload offset, payload length) in the log.
type LogIndex = BTreeMap<ChunkId, (u64, u32)>;

/// What [`FileStore::open`] salvaged from a file with a torn tail: the
/// crash-recovery rule is *truncate to the last valid record* instead
/// of refusing the whole store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailRecovery {
    /// Complete, valid records kept (the index may map fewer ids —
    /// later records supersede earlier ones).
    pub records_recovered: u64,
    /// Complete-looking trailing records dropped because their payload
    /// failed validation (a torn write can leave a full-length record
    /// of partial bytes).
    pub records_dropped: u64,
    /// Bytes truncated off the tail (partial fragment + dropped
    /// records).
    pub bytes_truncated: u64,
}

/// Retained committed transactions a leader ships to followers.
///
/// Replication positions are **main-log byte offsets**: because the
/// store is an append log and followers replay the exact record bytes
/// in order, a follower's file length names its position in the
/// leader's history unambiguously (the same way an LSN does), and it is
/// durable for free — no separate position file to keep in sync.
#[derive(Debug, Default)]
struct ReplLog {
    /// Committed transactions in epoch order, each starting at the
    /// main-log offset its `main_end` records.
    txns: VecDeque<Arc<WalTxn>>,
    /// Oldest main-log position still shippable; a follower behind this
    /// needs a base-image copy, not a stream.
    base_pos: u64,
    /// Payload bytes retained (the eviction budget).
    retained_bytes: u64,
}

/// Retention ceiling for the leader's shipping buffer: beyond this the
/// oldest transactions are evicted and too-stale followers must re-seed
/// from a base image.
const REPL_RETAIN_BYTES: u64 = 64 << 20;

/// What [`FileStore::apply_replicated`] did with a shipped transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplApply {
    /// The transaction advanced this store to its post-image.
    Applied,
    /// The transaction was already applied (delivery is at-least-once);
    /// nothing changed.
    Duplicate,
}

/// An open flush transaction: what `abort_flush` needs to undo it and
/// `commit_flush` needs to seal it.
#[derive(Debug)]
struct FlushTxn {
    /// The epoch this transaction will commit as (`store.epoch + 1`).
    epoch: u64,
    /// Main-log end when the flush began — the rollback point.
    main_start: u64,
    /// WAL length when the flush began (runtime aborts truncate back).
    wal_start: u64,
    /// Chunk records appended so far.
    records: u32,
    /// Per-write undo log: the index entry each write displaced (`None`
    /// for first-time chunks), in write order.
    displaced: Vec<(ChunkId, Option<(u64, u32)>)>,
    /// `dead_bytes` added during the transaction.
    dead_added: u64,
    /// Exact record payloads staged for replication (only when the
    /// store is a publishing leader); shipped on commit, dropped on
    /// abort.
    staged: Vec<WalChunk>,
}

/// A single-file, append-log chunk store.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    path: PathBuf,
    index: LogIndex,
    /// Next append offset.
    end: u64,
    /// Bytes occupied by superseded records.
    dead_bytes: u64,
    stats: IoStats,
    last_read_end: AtomicU64,
    seek_model: Option<SeekModel>,
    /// Set when [`FileStore::open`] truncated a torn tail.
    tail_recovery: Option<TailRecovery>,
    /// The sidecar commit-record WAL, opened lazily on first
    /// `begin_flush` (so stores that never flush transactionally never
    /// create one).
    wal: Option<Wal>,
    /// Last committed flush epoch (the commit LSN).
    epoch: u64,
    /// The open flush transaction, if any.
    txn: Option<FlushTxn>,
    wal_stats: WalStats,
    /// What WAL replay did during [`FileStore::open`], if anything.
    wal_recovery: Option<WalRecovery>,
    /// Crash injection: remaining physical ops before the store "loses
    /// power" (`None` = disarmed). See [`FileStore::set_crash_after_ops`].
    crash_budget: Option<u64>,
    /// Physical I/O operations attempted so far.
    phys_ops: u64,
    /// Shipping buffer of committed transactions, when this store
    /// publishes to followers. See [`FileStore::set_replication`].
    repl: Option<ReplLog>,
}

/// Fsyncs the directory containing `path`, making a rename or unlink of
/// an entry in it durable (POSIX fsyncs the file, not its name).
fn fsync_dir(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

impl FileStore {
    /// Creates (truncating) a store at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        // A stale sidecar from a previous store at this path would
        // replay foreign transactions into the fresh log.
        let _ = std::fs::remove_file(wal::sidecar_path(&path));
        Ok(FileStore {
            file,
            path,
            index: BTreeMap::new(),
            end: 0,
            dead_bytes: 0,
            stats: IoStats::default(),
            last_read_end: AtomicU64::new(0),
            seek_model: None,
            tail_recovery: None,
            wal: None,
            epoch: 0,
            txn: None,
            wal_stats: WalStats::default(),
            wal_recovery: None,
            crash_budget: None,
            phys_ops: 0,
            repl: None,
        })
    }

    /// Opens an existing store, rebuilding the index by scanning records
    /// (later records for the same chunk win, as in any append log).
    ///
    /// A torn tail — a crash mid-append leaving a partial record, or a
    /// complete-looking final record whose payload fails validation — is
    /// recovered from by truncating the file back to the last valid
    /// record ([`TailRecovery`] reports what was salvaged). Interior
    /// records are not decoded here (truncating at an interior record
    /// would discard the good data after it); corruption before the
    /// tail surfaces as [`StoreError::Corrupt`] when the record is
    /// read.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        // Pass 1: collect structurally complete records. The first
        // record extending past EOF (torn mid-header or mid-payload)
        // marks the tear; everything from it on is tail fragment.
        struct Rec {
            id: u64,
            payload_start: usize,
            payload_end: usize,
        }
        let mut recs: Vec<Rec> = Vec::new();
        let mut pos = 0usize;
        while pos < bytes.len() {
            if pos + REC_HEADER > bytes.len() {
                break; // torn mid-header
            }
            let id = u64::from_le_bytes(bytes[pos..pos + 8].try_into().unwrap());
            let len = u32::from_le_bytes(bytes[pos + 8..pos + 12].try_into().unwrap());
            let payload_start = pos + REC_HEADER;
            let payload_end = payload_start + len as usize;
            if payload_end > bytes.len() {
                break; // torn mid-payload
            }
            recs.push(Rec {
                id,
                payload_start,
                payload_end,
            });
            pos = payload_end;
        }

        // Pass 2: a torn write can also leave a record whose framing is
        // complete but whose payload bytes are partial. Drop trailing
        // records until the last one decodes. Interior corruption (a bad
        // record with valid records after it) is *not* a torn tail and
        // still refuses the open.
        let mut dropped = 0u64;
        while let Some(last) = recs.last() {
            if compress::decode_any(&bytes[last.payload_start..last.payload_end]).is_ok() {
                break;
            }
            recs.pop();
            dropped += 1;
        }

        let mut valid_end = recs.last().map_or(0, |r| r.payload_end) as u64;
        let mut tail_recovery = None;
        if valid_end < bytes.len() as u64 {
            let recovery = TailRecovery {
                records_recovered: recs.len() as u64,
                records_dropped: dropped,
                bytes_truncated: bytes.len() as u64 - valid_end,
            };
            eprintln!(
                "olap-store: torn tail in {}: truncating {} byte(s) ({} record(s) dropped), \
                 {} record(s) recovered",
                path.display(),
                recovery.bytes_truncated,
                recovery.records_dropped,
                recovery.records_recovered,
            );
            file.set_len(valid_end)?;
            file.sync_all()?;
            bytes.truncate(valid_end as usize);
            tail_recovery = Some(recovery);
        }

        // WAL replay: a sidecar with records means the last session
        // crashed mid- or post-flush without reaching a checkpoint.
        // Committed transactions are guaranteed visible (re-applied from
        // WAL payloads if the main tail was torn off); the uncommitted
        // one, if any, is rolled back to its BEGIN offset — the store
        // recovers to exactly the pre-flush or post-flush image.
        let wal_path = wal::sidecar_path(&path);
        let mut epoch = 0u64;
        let mut wal_recovery = None;
        let wal_bytes = std::fs::read(&wal_path).unwrap_or_default();
        if !wal_bytes.is_empty() {
            let scan = wal::scan(&wal_bytes);
            let mut rep = WalRecovery::default();
            bytes.truncate(valid_end as usize);
            // Roll back the uncommitted transaction (at most one can
            // exist: BEGIN only follows a COMMIT or a runtime abort's
            // truncation) by truncating the main log to its BEGIN
            // offset, dropping every record the flush introduced.
            if let Some(t) = scan.txns.iter().find(|t| !t.committed) {
                rep.txns_rolled_back = 1;
                let cut = t.main_end.min(valid_end);
                if cut < valid_end {
                    let kept = recs
                        .iter()
                        .take_while(|r| r.payload_end as u64 <= cut)
                        .count();
                    rep.records_rolled_back = (recs.len() - kept) as u64;
                    recs.truncate(kept);
                    // Snap to a record boundary in case the tear and the
                    // BEGIN offset disagree.
                    let cut = recs.last().map_or(0, |r| r.payload_end) as u64;
                    rep.bytes_rolled_back = valid_end - cut;
                    file.set_len(cut)?;
                    file.sync_all()?;
                    bytes.truncate(cut as usize);
                    valid_end = cut;
                }
            }
            // Redo committed transactions: any chunk record the main
            // log lost is re-applied from the WAL payload. Idempotent —
            // append logs are last-record-wins, and a newer non-flush
            // record for the same chunk sorts later in `recs` anyway.
            for t in scan.txns.iter().take_while(|t| t.committed) {
                epoch = t.epoch;
                rep.committed_txns += 1;
                for c in &t.chunks {
                    let intact = c.main_off >= REC_HEADER as u64
                        && c.main_off + c.payload.len() as u64 <= valid_end
                        && {
                            let h = (c.main_off as usize) - REC_HEADER;
                            let end = c.main_off as usize + c.payload.len();
                            bytes[h..h + 8] == c.id.0.to_le_bytes()
                                && bytes[h + 8..h + 12] == (c.payload.len() as u32).to_le_bytes()
                                && bytes[c.main_off as usize..end] == c.payload[..]
                        };
                    if intact {
                        rep.records_intact += 1;
                        continue;
                    }
                    let len = codec::count_u32(c.payload.len(), "WAL replay payload")?;
                    let mut rec = Vec::with_capacity(REC_HEADER + c.payload.len());
                    rec.extend_from_slice(&c.id.0.to_le_bytes());
                    rec.extend_from_slice(&len.to_le_bytes());
                    rec.extend_from_slice(&c.payload);
                    file.write_all_at(&rec, valid_end)?;
                    recs.push(Rec {
                        id: c.id.0,
                        payload_start: valid_end as usize + REC_HEADER,
                        payload_end: valid_end as usize + REC_HEADER + c.payload.len(),
                    });
                    bytes.extend_from_slice(&rec);
                    valid_end += rec.len() as u64;
                    rep.records_reapplied += 1;
                }
            }
            if rep.acted() {
                file.sync_all()?;
                eprintln!(
                    "olap-store: WAL recovery in {}: {} committed txn(s) \
                     ({} record(s) intact, {} re-applied); {} txn(s) rolled back \
                     ({} record(s), {} byte(s))",
                    path.display(),
                    rep.committed_txns,
                    rep.records_intact,
                    rep.records_reapplied,
                    rep.txns_rolled_back,
                    rep.records_rolled_back,
                    rep.bytes_rolled_back,
                );
            }
            wal_recovery = Some(rep);
            // Checkpoint: the main log now reflects every committed
            // flush, so the redo records are obsolete.
            Wal::open_or_create(&wal_path)?.truncate_to(0)?;
        }

        let mut index = BTreeMap::new();
        let mut dead = 0u64;
        for rec in &recs {
            let len = (rec.payload_end - rec.payload_start) as u32;
            if let Some((_, old_len)) =
                index.insert(ChunkId(rec.id), (rec.payload_start as u64, len))
            {
                dead += REC_HEADER as u64 + old_len as u64;
            }
        }
        Ok(FileStore {
            file,
            path,
            index,
            end: valid_end,
            dead_bytes: dead,
            stats: IoStats::default(),
            last_read_end: AtomicU64::new(0),
            seek_model: None,
            tail_recovery,
            wal: None,
            epoch,
            txn: None,
            wal_stats: WalStats::default(),
            wal_recovery,
            crash_budget: None,
            phys_ops: 0,
            repl: None,
        })
    }

    /// What [`FileStore::open`] salvaged if the file had a torn tail;
    /// `None` when the file was clean.
    pub fn tail_recovery(&self) -> Option<TailRecovery> {
        self.tail_recovery
    }

    /// Cumulative WAL activity counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal_stats
    }

    /// What WAL replay did during [`FileStore::open`]; `None` when no
    /// sidecar records existed.
    pub fn wal_recovery(&self) -> Option<WalRecovery> {
        self.wal_recovery
    }

    /// Current WAL length in bytes (0 when never opened or
    /// checkpointed away).
    pub fn wal_len(&self) -> u64 {
        self.wal.as_ref().map_or(0, |w| w.len())
    }

    /// Arms deterministic crash injection: the next `ops` physical I/O
    /// operations (WAL appends, main-log appends, fsyncs, truncations)
    /// succeed, after which every one fails permanently — the
    /// in-process analogue of pulling the plug, leaving the on-disk
    /// bytes exactly as a crash at that point would. Recovery is then
    /// exercised by dropping the store and re-opening the path. `None`
    /// disarms.
    pub fn set_crash_after_ops(&mut self, ops: Option<u64>) {
        self.crash_budget = ops;
    }

    /// Physical I/O operations attempted so far (the op space
    /// [`FileStore::set_crash_after_ops`] indexes into).
    pub fn phys_ops(&self) -> u64 {
        self.phys_ops
    }

    /// One "power rail" check before every physical I/O operation.
    fn crash_gate(&mut self) -> Result<()> {
        self.phys_ops += 1;
        match &mut self.crash_budget {
            Some(0) => Err(StoreError::Io(std::io::Error::other(
                "injected crash: store halted",
            ))),
            Some(n) => {
                *n -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Opens the sidecar WAL if this store hasn't yet. First-time
    /// opening is a counted crash point: creating the sidecar (and
    /// fsyncing its directory entry) is physical I/O a crash can land
    /// on, and the crash-point sweeps must cover it.
    fn ensure_wal(&mut self) -> Result<&mut Wal> {
        if self.wal.is_none() {
            self.crash_gate()?;
            self.wal = Some(Wal::open_or_create(wal::sidecar_path(&self.path))?);
        }
        Ok(self.wal.as_mut().expect("just opened"))
    }

    /// Enables/disables leader-side replication capture. While on,
    /// every committed flush transaction is retained (as the exact
    /// record payloads and destination offsets, i.e. the WAL image) for
    /// shipping to followers via [`FileStore::retained_since`]. Turning
    /// it off drops the buffer.
    ///
    /// `reorganize` rewrites the whole file and breaks the byte-offset
    /// contract, so it is refused while replication is on.
    pub fn set_replication(&mut self, on: bool) {
        if on && self.repl.is_none() {
            self.repl = Some(ReplLog {
                txns: VecDeque::new(),
                base_pos: self.end,
                retained_bytes: 0,
            });
        } else if !on {
            self.repl = None;
        }
    }

    /// Whether leader-side replication capture is on.
    pub fn replication(&self) -> bool {
        self.repl.is_some()
    }

    /// This store's replication position: the main-log byte offset a
    /// follower reaches by applying every committed transaction so far.
    /// Refers to committed state only — an open flush transaction's
    /// appends are not part of any shippable position, so the pre-flush
    /// offset is reported while one is open.
    pub fn replication_position(&self) -> u64 {
        self.txn.as_ref().map_or(self.end, |t| t.main_start)
    }

    /// Committed transactions a follower at main-log position `pos`
    /// still needs, oldest first. An empty vec means the follower is
    /// caught up. Errors if `pos` predates the retained history (the
    /// follower must re-seed from a base image) or names an offset the
    /// leader never committed at.
    pub fn retained_since(&self, pos: u64) -> Result<Vec<Arc<WalTxn>>> {
        let repl = self.repl.as_ref().ok_or_else(|| {
            StoreError::Io(std::io::Error::other("replication capture is not enabled"))
        })?;
        if pos < repl.base_pos {
            return Err(StoreError::Io(std::io::Error::other(format!(
                "replication position {pos} predates retained history (base {}): \
                 follower needs a fresh base image",
                repl.base_pos
            ))));
        }
        if pos > self.replication_position() {
            return Err(StoreError::Io(std::io::Error::other(format!(
                "replication position {pos} is ahead of the leader ({}): diverged store",
                self.replication_position()
            ))));
        }
        Ok(repl
            .txns
            .iter()
            .filter(|t| t.main_end >= pos)
            .cloned()
            .collect())
    }

    /// Retains a committed transaction for shipping, evicting the
    /// oldest ones past the byte budget.
    fn repl_push(&mut self, txn: Arc<WalTxn>) {
        let Some(repl) = self.repl.as_mut() else {
            return;
        };
        repl.retained_bytes += txn
            .chunks
            .iter()
            .map(|c| c.payload.len() as u64)
            .sum::<u64>();
        repl.txns.push_back(txn);
        while repl.retained_bytes > REPL_RETAIN_BYTES && repl.txns.len() > 1 {
            let evicted = repl.txns.pop_front().expect("len > 1");
            repl.retained_bytes -= evicted
                .chunks
                .iter()
                .map(|c| c.payload.len() as u64)
                .sum::<u64>();
            repl.base_pos = repl.txns.front().map(|t| t.main_end).unwrap_or(self.end);
        }
    }

    /// Applies a transaction shipped from a leader through the same
    /// idempotent redo path [`FileStore::open`] runs: WAL-stage the
    /// whole transaction, fsync, append the `COMMIT` record, fsync (the
    /// atomicity point), then append the records to the main log and
    /// checkpoint. A crash at any physical operation leaves a store
    /// that re-opens to exactly the pre- or post-transaction image —
    /// before the commit fsync the transaction rolls back, after it the
    /// redo replay finishes the main-log appends at their recorded
    /// offsets.
    ///
    /// Delivery may be at-least-once: a transaction ending at or before
    /// this store's position is reported [`ReplApply::Duplicate`] and
    /// ignored. A transaction starting beyond the position (a gap) or
    /// whose record offsets disagree with the local log (divergence) is
    /// refused before any I/O.
    pub fn apply_replicated(&mut self, txn: &WalTxn) -> Result<ReplApply> {
        if !txn.committed {
            return Err(StoreError::Corrupt(
                "apply_replicated: transaction has no COMMIT".into(),
            ));
        }
        if self.txn.is_some() {
            return Err(StoreError::Io(std::io::Error::other(
                "apply_replicated during an open flush transaction",
            )));
        }
        if txn.main_end < self.end {
            return Ok(ReplApply::Duplicate);
        }
        if txn.main_end > self.end {
            return Err(StoreError::Io(std::io::Error::other(format!(
                "replication gap: transaction starts at {} but this store ends at {}",
                txn.main_end, self.end
            ))));
        }
        if txn.chunks.is_empty() {
            // Nothing to write and no position to advance.
            return Ok(ReplApply::Duplicate);
        }
        // Validate every destination offset against the local log
        // before the first physical write: shipped appends must land
        // back-to-back exactly where the leader put them, or the stores
        // have diverged.
        let mut expect = self.end;
        for c in &txn.chunks {
            if c.main_off != expect + REC_HEADER as u64 {
                return Err(StoreError::Corrupt(format!(
                    "replication divergence: chunk {} targets offset {} but local log \
                     expects {}",
                    c.id.0,
                    c.main_off,
                    expect + REC_HEADER as u64
                )));
            }
            expect = c.main_off + c.payload.len() as u64;
        }
        let records = codec::count_u32(txn.chunks.len(), "replicated txn records")?;
        // Stage the whole transaction in the WAL first, exactly as the
        // leader's flush did.
        let (epoch, main_end) = (txn.epoch, txn.main_end);
        {
            let wal = self.ensure_wal()?;
            let wal_start = wal.len();
            // A previous crashed apply can leave stale records; recovery
            // checkpoints them away on open, so a non-empty WAL here
            // means this store is also a leader mid-capture — refuse.
            if wal_start != 0 {
                return Err(StoreError::Io(std::io::Error::other(
                    "apply_replicated with WAL records pending",
                )));
            }
        }
        self.crash_gate()?;
        let n = self
            .wal
            .as_mut()
            .expect("ensure_wal opened it")
            .append_begin(epoch, main_end)?;
        self.wal_stats.bytes_logged += n;
        for c in &txn.chunks {
            self.crash_gate()?;
            let n = self
                .wal
                .as_mut()
                .expect("ensure_wal opened it")
                .append_chunk(epoch, c.id, c.main_off, &c.payload)?;
            self.wal_stats.records_logged += 1;
            self.wal_stats.bytes_logged += n;
        }
        self.crash_gate()?;
        self.wal.as_mut().expect("ensure_wal opened it").sync()?;
        self.wal_stats.syncs += 1;
        self.crash_gate()?;
        let n = self
            .wal
            .as_mut()
            .expect("ensure_wal opened it")
            .append_commit(epoch, records)?;
        self.wal_stats.bytes_logged += n;
        self.crash_gate()?;
        self.wal.as_mut().expect("ensure_wal opened it").sync()?;
        self.wal_stats.syncs += 1;
        // The commit record is durable: the transaction is now
        // guaranteed visible even if every operation below is lost.
        for c in &txn.chunks {
            self.crash_gate()?;
            let len = codec::count_u32(c.payload.len(), "replicated payload")?;
            let mut rec = Vec::with_capacity(REC_HEADER + c.payload.len());
            rec.extend_from_slice(&c.id.0.to_le_bytes());
            rec.extend_from_slice(&len.to_le_bytes());
            rec.extend_from_slice(&c.payload);
            self.file.write_all_at(&rec, self.end)?;
            if let Some((_, old_len)) = self.index.insert(c.id, (c.main_off, len)) {
                self.dead_bytes += REC_HEADER as u64 + old_len as u64;
            }
            self.end += rec.len() as u64;
            self.stats.record_write(c.payload.len() as u64);
        }
        self.crash_gate()?;
        self.file.sync_all()?;
        self.epoch = epoch;
        self.wal_stats.txns_committed += 1;
        // Checkpoint: the main log holds the full post-image.
        self.crash_gate()?;
        self.wal
            .as_mut()
            .expect("ensure_wal opened it")
            .truncate_to(0)?;
        self.wal_stats.checkpoints += 1;
        // A follower can relay: if it publishes too, retain the txn.
        if self.repl.is_some() {
            self.repl_push(Arc::new(txn.clone()));
        }
        Ok(ReplApply::Applied)
    }

    /// Installs (or clears) the seek-latency model.
    pub fn set_seek_model(&mut self, model: Option<SeekModel>) {
        self.seek_model = model;
    }

    /// Current file size in bytes.
    pub fn file_size(&self) -> u64 {
        self.end
    }

    /// Bytes wasted by superseded records (cleared by `reorganize`).
    pub fn dead_bytes(&self) -> u64 {
        self.dead_bytes
    }

    /// The backing file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// File offset of a chunk's payload, if stored.
    pub fn offset_of(&self, id: ChunkId) -> Option<u64> {
        self.index.get(&id).map(|&(off, _)| off)
    }

    /// Distance in bytes between two chunks' payloads, if both stored.
    pub fn separation(&self, a: ChunkId, b: ChunkId) -> Option<u64> {
        let (oa, ob) = (self.offset_of(a)?, self.offset_of(b)?);
        Some(oa.abs_diff(ob))
    }

    /// Rewrites the file with chunks laid out contiguously in `order`
    /// (chunks not listed follow in ascending id order). Defragments and
    /// resets the read head.
    pub fn reorganize(&mut self, order: &[ChunkId]) -> Result<()> {
        if self.txn.is_some() {
            return Err(StoreError::Io(std::io::Error::other(
                "reorganize during an open flush transaction",
            )));
        }
        if self.repl.is_some() {
            // Rewriting the file re-keys every byte offset, breaking the
            // position contract followers replicate against.
            return Err(StoreError::Io(std::io::Error::other(
                "reorganize on a replicating store (followers track byte positions)",
            )));
        }
        let requested: HashSet<ChunkId> = order.iter().copied().collect();
        let mut sequence: Vec<ChunkId> = Vec::with_capacity(self.index.len());
        for &id in order {
            if self.index.contains_key(&id) {
                sequence.push(id);
            }
        }
        for &id in self.index.keys() {
            if !requested.contains(&id) {
                sequence.push(id);
            }
        }
        let tmp_path = self.path.with_extension("reorg");
        let tmp = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&tmp_path)?;
        let rewrite = || -> Result<(LogIndex, u64)> {
            let mut new_index = BTreeMap::new();
            let mut pos = 0u64;
            for id in sequence {
                let (off, len) = self.index[&id];
                let mut payload = vec![0u8; len as usize];
                self.file.read_exact_at(&mut payload, off)?;
                let mut rec = Vec::with_capacity(REC_HEADER + len as usize);
                rec.extend_from_slice(&id.0.to_le_bytes());
                rec.extend_from_slice(&len.to_le_bytes());
                rec.extend_from_slice(&payload);
                tmp.write_all_at(&rec, pos)?;
                new_index.insert(id, (pos + REC_HEADER as u64, len));
                pos += rec.len() as u64;
            }
            tmp.sync_all()?;
            std::fs::rename(&tmp_path, &self.path)?;
            // The rename swapped a directory entry; without fsyncing the
            // directory a crash can resurrect the pre-reorganize file
            // while callers believe the new layout is on disk.
            fsync_dir(&self.path)?;
            Ok((new_index, pos))
        };
        let (new_index, pos) = match rewrite() {
            Ok(v) => v,
            Err(e) => {
                // A failed rewrite must not strand the temp file; the
                // original log is untouched and stays authoritative.
                let _ = std::fs::remove_file(&tmp_path);
                return Err(e);
            }
        };
        self.file = tmp;
        self.index = new_index;
        self.end = pos;
        self.dead_bytes = 0;
        self.last_read_end.store(0, Ordering::Relaxed);
        // Reorganize doubles as a WAL checkpoint: the rewritten log was
        // fsynced before the rename, so it holds exactly the committed
        // image and every redo record is obsolete.
        if let Some(w) = self.wal.as_mut() {
            if !w.is_empty() {
                w.truncate_to(0)?;
                self.wal_stats.checkpoints += 1;
                fsync_dir(&self.path)?;
            }
        }
        Ok(())
    }
}

impl ChunkStore for FileStore {
    fn read(&self, id: ChunkId) -> Result<Chunk> {
        let &(off, len) = self.index.get(&id).ok_or(StoreError::MissingChunk(id))?;
        let prev_end = self.last_read_end.swap(off + len as u64, Ordering::Relaxed);
        let dist = off.abs_diff(prev_end);
        if let Some(model) = &self.seek_model {
            model.apply(dist);
        }
        let mut payload = vec![0u8; len as usize];
        self.file.read_exact_at(&mut payload, off)?;
        self.stats.record_read(len as u64, dist);
        compress::decode_any(&payload)
    }

    fn write(&mut self, id: ChunkId, chunk: &Chunk) -> Result<()> {
        let payload = integrity::wrap_checksummed(&codec::encode(chunk)?);
        let len = codec::count_u32(payload.len(), "record payload")?;
        let payload_off = self.end + REC_HEADER as u64;
        // Inside a flush transaction the payload goes to the sidecar
        // first: it must be re-creatable from the WAL before the main
        // log sees it, or a committed flush couldn't be redone.
        if let Some(epoch) = self.txn.as_ref().map(|t| t.epoch) {
            self.crash_gate()?;
            let n = self
                .wal
                .as_mut()
                .expect("begin_flush opened the WAL")
                .append_chunk(epoch, id, payload_off, &payload)?;
            self.wal_stats.records_logged += 1;
            self.wal_stats.bytes_logged += n;
        }
        self.crash_gate()?;
        let mut rec = Vec::with_capacity(REC_HEADER + payload.len());
        rec.extend_from_slice(&id.0.to_le_bytes());
        rec.extend_from_slice(&len.to_le_bytes());
        rec.extend_from_slice(&payload);
        self.file.write_all_at(&rec, self.end)?;
        let displaced = self.index.insert(id, (payload_off, len));
        if let Some((_, old_len)) = displaced {
            self.dead_bytes += REC_HEADER as u64 + old_len as u64;
        }
        let capturing = self.repl.is_some();
        if let Some(t) = self.txn.as_mut() {
            t.records += 1;
            t.displaced.push((id, displaced));
            if let Some((_, old_len)) = displaced {
                t.dead_added += REC_HEADER as u64 + old_len as u64;
            }
            if capturing {
                t.staged.push(WalChunk {
                    id,
                    main_off: payload_off,
                    payload: payload.clone(),
                });
            }
        }
        self.end += rec.len() as u64;
        self.stats.record_write(payload.len() as u64);
        Ok(())
    }

    fn contains(&self, id: ChunkId) -> bool {
        self.index.contains_key(&id)
    }

    fn ids(&self) -> Vec<ChunkId> {
        self.index.keys().copied().collect()
    }

    fn stats(&self) -> &IoStats {
        &self.stats
    }

    fn sync(&mut self) -> Result<()> {
        self.crash_gate()?;
        self.file.sync_all()?;
        Ok(())
    }

    fn begin_flush(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(StoreError::Io(std::io::Error::other(
                "begin_flush with a flush transaction already open",
            )));
        }
        let epoch = self.epoch + 1;
        let main_start = self.end;
        self.crash_gate()?;
        let wal = self.ensure_wal()?;
        let wal_start = wal.len();
        let n = wal.append_begin(epoch, main_start)?;
        self.wal_stats.bytes_logged += n;
        self.txn = Some(FlushTxn {
            epoch,
            main_start,
            wal_start,
            records: 0,
            displaced: Vec::new(),
            dead_added: 0,
            staged: Vec::new(),
        });
        Ok(())
    }

    fn commit_flush(&mut self) -> Result<u64> {
        let Some(t) = self.txn.as_ref() else {
            return Ok(self.epoch);
        };
        let (epoch, records) = (t.epoch, t.records);
        // Payload durability first: the commit record must never become
        // durable before the chunk payloads it promises.
        self.crash_gate()?;
        self.wal.as_mut().expect("open txn has a WAL").sync()?;
        self.wal_stats.syncs += 1;
        self.crash_gate()?;
        let n = self
            .wal
            .as_mut()
            .expect("open txn has a WAL")
            .append_commit(epoch, records)?;
        self.wal_stats.bytes_logged += n;
        self.crash_gate()?;
        self.wal.as_mut().expect("open txn has a WAL").sync()?;
        self.wal_stats.syncs += 1;
        // On any failure above the transaction stays open, so the
        // caller's abort_flush can still undo it cleanly.
        let t = self.txn.take().expect("checked above");
        self.epoch = epoch;
        self.wal_stats.txns_committed += 1;
        if self.repl.is_some() && !t.staged.is_empty() {
            self.repl_push(Arc::new(WalTxn {
                epoch,
                main_end: t.main_start,
                chunks: t.staged,
                committed: true,
            }));
        }
        Ok(epoch)
    }

    fn abort_flush(&mut self) -> Result<()> {
        let Some(t) = self.txn.take() else {
            return Ok(());
        };
        // In-memory undo first, in reverse write order, so the index is
        // consistent even if the physical truncations fail (e.g. the
        // crash gate is down — recovery then happens on re-open).
        for (id, old) in t.displaced.into_iter().rev() {
            match old {
                Some(entry) => {
                    self.index.insert(id, entry);
                }
                None => {
                    self.index.remove(&id);
                }
            }
        }
        self.dead_bytes -= t.dead_added;
        self.end = t.main_start;
        self.wal_stats.txns_aborted += 1;
        self.crash_gate()?;
        self.file.set_len(t.main_start)?;
        self.crash_gate()?;
        self.wal
            .as_mut()
            .expect("open txn has a WAL")
            .truncate_to(t.wal_start)?;
        Ok(())
    }

    fn flush_epoch(&self) -> u64 {
        self.epoch
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
    use crate::value::CellValue;

    fn tmp(name: &str) -> PathBuf {
        let mut p = std::env::temp_dir();
        p.push(format!("olap-store-test-{}-{}", std::process::id(), name));
        p
    }

    fn chunk(v: f64) -> Chunk {
        let mut c = Chunk::new_dense(vec![4]);
        c.set(0, CellValue::num(v));
        c
    }

    #[test]
    fn write_read_roundtrip() {
        let path = tmp("rw");
        let mut s = FileStore::create(&path).unwrap();
        s.write(ChunkId(1), &chunk(1.0)).unwrap();
        s.write(ChunkId(2), &chunk(2.0)).unwrap();
        assert_eq!(s.read(ChunkId(1)).unwrap().get(0), CellValue::Num(1.0));
        assert_eq!(s.read(ChunkId(2)).unwrap().get(0), CellValue::Num(2.0));
        assert_eq!(s.ids().len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reopen_rebuilds_index_with_overwrites() {
        let path = tmp("reopen");
        {
            let mut s = FileStore::create(&path).unwrap();
            s.write(ChunkId(7), &chunk(1.0)).unwrap();
            s.write(ChunkId(7), &chunk(9.0)).unwrap(); // supersedes
            s.write(ChunkId(8), &chunk(3.0)).unwrap();
            assert!(s.dead_bytes() > 0);
        }
        let s = FileStore::open(&path).unwrap();
        assert_eq!(s.read(ChunkId(7)).unwrap().get(0), CellValue::Num(9.0));
        assert_eq!(s.read(ChunkId(8)).unwrap().get(0), CellValue::Num(3.0));
        assert!(s.dead_bytes() > 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn reorganize_orders_and_defragments() {
        let path = tmp("reorg");
        let mut s = FileStore::create(&path).unwrap();
        for i in 0..5u64 {
            s.write(ChunkId(i), &chunk(i as f64)).unwrap();
        }
        s.write(ChunkId(0), &chunk(100.0)).unwrap(); // fragment
        let before = s.file_size();
        s.reorganize(&[ChunkId(4), ChunkId(0)]).unwrap();
        assert!(s.file_size() < before);
        assert_eq!(s.dead_bytes(), 0);
        // Requested order is physically first.
        assert!(s.offset_of(ChunkId(4)).unwrap() < s.offset_of(ChunkId(0)).unwrap());
        assert!(s.offset_of(ChunkId(0)).unwrap() < s.offset_of(ChunkId(1)).unwrap());
        // Values survive.
        assert_eq!(s.read(ChunkId(0)).unwrap().get(0), CellValue::Num(100.0));
        assert_eq!(s.read(ChunkId(3)).unwrap().get(0), CellValue::Num(3.0));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn separation_reflects_layout() {
        let path = tmp("sep");
        let mut s = FileStore::create(&path).unwrap();
        for i in 0..10u64 {
            s.write(ChunkId(i), &chunk(i as f64)).unwrap();
        }
        let near = s.separation(ChunkId(0), ChunkId(1)).unwrap();
        let far = s.separation(ChunkId(0), ChunkId(9)).unwrap();
        assert!(far > near);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn seek_model_saturates() {
        let m = SeekModel {
            ns_per_byte: 1.0,
            max_ns: 1000,
        };
        assert_eq!(m.latency(10), Duration::from_nanos(10));
        assert_eq!(m.latency(10_000_000), Duration::from_nanos(1000));
        assert_eq!(m.latency(0), Duration::ZERO);
    }

    #[test]
    fn seek_distance_recorded() {
        let path = tmp("dist");
        let mut s = FileStore::create(&path).unwrap();
        for i in 0..4u64 {
            s.write(ChunkId(i), &chunk(i as f64)).unwrap();
        }
        s.read(ChunkId(0)).unwrap();
        let d0 = s.stats().seek_distance();
        s.read(ChunkId(3)).unwrap(); // jump forward
        assert!(s.stats().seek_distance() > d0);
        std::fs::remove_file(&path).ok();
    }

    /// The hybrid sleep/spin `apply` must still charge at least the
    /// modeled latency, in both the spin-only (<5µs) and the
    /// sleep-then-spin (≥5µs) regimes.
    #[test]
    fn seek_model_apply_charges_latency() {
        let m = SeekModel {
            ns_per_byte: 1000.0,
            max_ns: 2_000_000,
        };
        for dist in [
            2u64, /* 2µs: spin */
            500,  /* 500µs: sleep+spin */
        ] {
            let d = m.latency(dist);
            let start = Instant::now();
            m.apply(dist);
            assert!(start.elapsed() >= d, "undercharged {dist}-byte seek");
        }
    }

    /// Regression: a mid-loop read failure during `reorganize` used to
    /// strand the `.reorg` temp file; it must be removed and the
    /// original log left authoritative.
    #[test]
    fn reorganize_failure_cleans_up_temp_file() {
        let path = tmp("reorgfail");
        let mut s = FileStore::create(&path).unwrap();
        for i in 0..4u64 {
            s.write(ChunkId(i), &chunk(i as f64)).unwrap();
        }
        // Point one index entry past EOF so the rewrite loop's read fails.
        s.index.insert(ChunkId(9), (1 << 30, 64));
        assert!(s.reorganize(&[ChunkId(9)]).is_err());
        let tmp_path = path.with_extension("reorg");
        assert!(
            !tmp_path.exists(),
            "stranded {} after failed reorganize",
            tmp_path.display()
        );
        // The original file is untouched and still readable.
        assert_eq!(s.read(ChunkId(2)).unwrap().get(0), CellValue::Num(2.0));
        std::fs::remove_file(&path).ok();
    }

    /// Files written before the OLC3 envelope hold plain OLC1/OLC2
    /// payloads. They stay readable record by record, and whatever a
    /// reopened store appends next is enveloped — there is no mode to
    /// carry over.
    #[test]
    fn plain_legacy_records_stay_readable_and_new_writes_are_enveloped() {
        let path = tmp("legacy-plain");
        let mut bytes = Vec::new();
        for (id, payload) in [
            (1u64, codec::encode(&chunk(1.0)).unwrap()),
            (2, compress::encode_compressed(&chunk(2.0)).unwrap()),
        ] {
            assert!(!integrity::is_checksummed(&payload));
            bytes.extend_from_slice(&id.to_le_bytes());
            bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
            bytes.extend_from_slice(&payload);
        }
        std::fs::write(&path, &bytes).unwrap();
        let mut s = FileStore::open(&path).unwrap();
        assert!(s.tail_recovery().is_none(), "plain records are not a tear");
        assert_eq!(s.read(ChunkId(1)).unwrap().get(0), CellValue::Num(1.0));
        assert_eq!(s.read(ChunkId(2)).unwrap().get(0), CellValue::Num(2.0));
        s.write(ChunkId(3), &chunk(3.0)).unwrap();
        let (off, len) = s.index[&ChunkId(3)];
        drop(s);
        let on_disk = std::fs::read(&path).unwrap();
        assert!(integrity::is_checksummed(
            &on_disk[off as usize..off as usize + len as usize]
        ));
        let s = FileStore::open(&path).unwrap();
        for i in 1..=3u64 {
            assert_eq!(s.read(ChunkId(i)).unwrap().get(0), CellValue::Num(i as f64));
        }
        std::fs::remove_file(&path).ok();
    }

    /// The corruption smoke test of the issue: one flipped payload byte
    /// must surface as `StoreError::Corrupt`, never as garbage cells.
    /// (A flipped *final* record is instead dropped by the torn-tail
    /// rule on reopen; interior corruption is kept and caught on read.)
    #[test]
    fn flipped_payload_byte_reads_as_corrupt() {
        let path = tmp("cksum-flip");
        let mut s = FileStore::create(&path).unwrap();
        s.write(ChunkId(1), &chunk(3.5)).unwrap();
        s.write(ChunkId(2), &chunk(4.5)).unwrap();
        let (off, len) = s.index[&ChunkId(1)];
        drop(s);
        // Flip a bit in the middle of chunk 1's codec payload, past the
        // OLC3 + OLC1 headers — the bytes where a wrong-but-plausible
        // value would otherwise hide.
        let mut bytes = std::fs::read(&path).unwrap();
        let victim = off as usize + len as usize - 3;
        bytes[victim] ^= 0x10;
        std::fs::write(&path, &bytes).unwrap();
        let s = FileStore::open(&path).unwrap();
        assert!(s.tail_recovery().is_none(), "interior flip is not a tear");
        assert!(matches!(s.read(ChunkId(1)), Err(StoreError::Corrupt(_))));
        // Healthy records around the corruption still read fine.
        assert_eq!(s.read(ChunkId(2)).unwrap().get(0), CellValue::Num(4.5));
        std::fs::remove_file(&path).ok();
    }

    /// A crash mid-append (partial trailing record) must not condemn
    /// the store: reopen truncates the tail and serves everything
    /// written before it.
    #[test]
    fn torn_tail_is_truncated_on_open() {
        let path = tmp("torn-basic");
        let full_len;
        {
            let mut s = FileStore::create(&path).unwrap();
            for i in 0..3u64 {
                s.write(ChunkId(i), &chunk(i as f64)).unwrap();
            }
            full_len = s.file_size();
        }
        // Simulate a torn append: a record header promising more bytes
        // than the file holds.
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&99u64.to_le_bytes()).unwrap();
            f.write_all(&1024u32.to_le_bytes()).unwrap();
            f.write_all(&[0xAB; 10]).unwrap();
        }
        let s = FileStore::open(&path).unwrap();
        let rec = s.tail_recovery().expect("tear must be reported");
        assert_eq!(rec.records_recovered, 3);
        assert_eq!(rec.records_dropped, 0);
        assert_eq!(rec.bytes_truncated, REC_HEADER as u64 + 10);
        assert_eq!(s.file_size(), full_len);
        assert!(!s.contains(ChunkId(99)));
        for i in 0..3u64 {
            assert_eq!(s.read(ChunkId(i)).unwrap().get(0), CellValue::Num(i as f64));
        }
        // The truncation is physical: a second open is clean.
        let s = FileStore::open(&path).unwrap();
        assert!(s.tail_recovery().is_none());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_chunk_errors() {
        let path = tmp("missing");
        let s = FileStore::create(&path).unwrap();
        assert!(matches!(
            s.read(ChunkId(0)),
            Err(StoreError::MissingChunk(_))
        ));
        std::fs::remove_file(&path).ok();
    }

    /// Removes a test store's main log and WAL sidecar.
    fn cleanup(path: &Path) {
        std::fs::remove_file(path).ok();
        std::fs::remove_file(wal::sidecar_path(path)).ok();
    }

    /// The full logical image of a store, for pre/post comparisons.
    fn image(s: &FileStore) -> std::collections::BTreeMap<ChunkId, Chunk> {
        s.ids()
            .into_iter()
            .map(|id| (id, s.read(id).unwrap()))
            .collect()
    }

    /// A committed flush whose main-log records were lost (tail torn
    /// off after the commit) is redone from the WAL payloads on open —
    /// the "committed means visible" half of the guarantee.
    #[test]
    fn committed_flush_is_redone_after_main_tail_loss() {
        let path = tmp("wal-redo");
        let pre_flush_end;
        {
            let mut s = FileStore::create(&path).unwrap();
            s.write(ChunkId(1), &chunk(1.0)).unwrap();
            pre_flush_end = s.file_size();
            s.begin_flush().unwrap();
            s.write(ChunkId(1), &chunk(10.0)).unwrap();
            s.write(ChunkId(2), &chunk(20.0)).unwrap();
            assert_eq!(s.commit_flush().unwrap(), 1);
            assert_eq!(s.flush_epoch(), 1);
        }
        // Simulate the crash model the WAL exists for: the WAL was
        // fsynced at commit, but the main log's appends never hit disk.
        let f = OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(pre_flush_end).unwrap();
        drop(f);
        let s = FileStore::open(&path).unwrap();
        let rep = s.wal_recovery().expect("replay must be reported");
        assert_eq!(rep.committed_txns, 1);
        assert_eq!(rep.records_reapplied, 2);
        assert_eq!(rep.txns_rolled_back, 0);
        assert_eq!(s.read(ChunkId(1)).unwrap().get(0), CellValue::Num(10.0));
        assert_eq!(s.read(ChunkId(2)).unwrap().get(0), CellValue::Num(20.0));
        // The replay checkpointed: a second open is clean.
        let s = FileStore::open(&path).unwrap();
        assert!(s.wal_recovery().is_none());
        assert_eq!(s.read(ChunkId(1)).unwrap().get(0), CellValue::Num(10.0));
        cleanup(&path);
    }

    /// A flush with no commit record is rolled back on open — the
    /// "uncommitted means invisible" half, even though every chunk
    /// record landed in the main log.
    #[test]
    fn uncommitted_flush_rolls_back_on_open() {
        let path = tmp("wal-rollback");
        {
            let mut s = FileStore::create(&path).unwrap();
            s.write(ChunkId(1), &chunk(1.0)).unwrap();
            s.begin_flush().unwrap();
            s.write(ChunkId(1), &chunk(10.0)).unwrap();
            s.write(ChunkId(2), &chunk(20.0)).unwrap();
            // Crash before commit: the store is dropped mid-transaction.
        }
        let s = FileStore::open(&path).unwrap();
        let rep = s.wal_recovery().expect("rollback must be reported");
        assert_eq!(rep.txns_rolled_back, 1);
        assert_eq!(rep.records_rolled_back, 2);
        assert_eq!(s.read(ChunkId(1)).unwrap().get(0), CellValue::Num(1.0));
        assert!(!s.contains(ChunkId(2)));
        cleanup(&path);
    }

    /// A runtime abort undoes the transaction in place: index entries
    /// restored, main log and WAL truncated back, and the store remains
    /// usable for a subsequent successful flush.
    #[test]
    fn abort_flush_restores_index_and_log() {
        let path = tmp("wal-abort");
        let mut s = FileStore::create(&path).unwrap();
        s.write(ChunkId(1), &chunk(1.0)).unwrap();
        let end_before = s.file_size();
        let img_before = image(&s);
        s.begin_flush().unwrap();
        s.write(ChunkId(1), &chunk(10.0)).unwrap();
        s.write(ChunkId(2), &chunk(20.0)).unwrap();
        s.abort_flush().unwrap();
        assert_eq!(s.file_size(), end_before);
        assert_eq!(s.dead_bytes(), 0);
        assert_eq!(image(&s), img_before);
        assert_eq!(s.flush_epoch(), 0);
        // The WAL kept nothing of the aborted transaction...
        assert_eq!(s.wal_len(), 0);
        // ...and the next flush commits normally with the same epoch.
        s.begin_flush().unwrap();
        s.write(ChunkId(3), &chunk(30.0)).unwrap();
        assert_eq!(s.commit_flush().unwrap(), 1);
        assert_eq!(s.wal_stats().txns_aborted, 1);
        assert_eq!(s.wal_stats().txns_committed, 1);
        cleanup(&path);
    }

    /// With no crash, the WAL adds no bytes to the main log: writes
    /// bracketed by a flush transaction leave the same bytes as the
    /// same writes issued bare.
    #[test]
    fn flush_transaction_leaves_the_main_log_bytes_unchanged() {
        let pa = tmp("wal-ab-txn");
        let pb = tmp("wal-ab-bare");
        for (path, in_txn) in [(&pa, true), (&pb, false)] {
            let mut s = FileStore::create(path).unwrap();
            s.write(ChunkId(0), &chunk(0.5)).unwrap();
            if in_txn {
                s.begin_flush().unwrap();
            }
            for i in 1..5u64 {
                s.write(ChunkId(i), &chunk(i as f64)).unwrap();
            }
            s.commit_flush().unwrap();
            s.sync().unwrap();
        }
        let a = std::fs::read(&pa).unwrap();
        let b = std::fs::read(&pb).unwrap();
        assert_eq!(a, b, "WAL must not perturb the main log's bytes");
        assert!(wal::sidecar_path(&pa).exists());
        assert!(!wal::sidecar_path(&pb).exists());
        cleanup(&pa);
        cleanup(&pb);
    }

    /// Crash-point sweep at the store level: kill the store after every
    /// possible physical op count during a begin/write×3/commit/sync
    /// sequence; the reopened store must equal exactly the pre-flush or
    /// the post-flush image — never a mix.
    #[test]
    fn crash_sweep_recovers_pre_or_post_image_only() {
        let path = tmp("wal-crash-sweep");
        let build_base = |path: &Path| -> FileStore {
            let mut s = FileStore::create(path).unwrap();
            s.write(ChunkId(1), &chunk(1.0)).unwrap();
            s.write(ChunkId(2), &chunk(2.0)).unwrap();
            s
        };
        let flush = |s: &mut FileStore| -> Result<()> {
            s.begin_flush()?;
            s.write(ChunkId(1), &chunk(10.0))?;
            s.write(ChunkId(2), &chunk(20.0))?;
            s.write(ChunkId(3), &chunk(30.0))?;
            s.commit_flush()?;
            s.sync()
        };
        // Dry run: learn the op count and both legal images.
        let mut s = build_base(&path);
        let pre = image(&s);
        let ops_before = s.phys_ops();
        flush(&mut s).unwrap();
        let total_ops = s.phys_ops() - ops_before;
        let post = image(&s);
        drop(s);
        assert!(total_ops >= 9, "begin + 3×(wal+main) + commit×3 + sync");
        let mut saw_pre = 0u32;
        let mut saw_post = 0u32;
        for k in 0..total_ops {
            let mut s = build_base(&path);
            s.set_crash_after_ops(Some(k));
            let crashed = flush(&mut s).is_err();
            assert!(crashed, "crash at op {k} must surface an error");
            drop(s);
            let r = FileStore::open(&path).unwrap();
            let img = image(&r);
            if img == pre {
                saw_pre += 1;
            } else if img == post {
                saw_post += 1;
            } else {
                panic!("crash at op {k} recovered to a mixed image: {img:?}");
            }
        }
        // Early crashes roll back, post-commit crashes redo.
        assert!(saw_pre > 0, "no crash point recovered the pre-image");
        assert!(saw_post > 0, "no crash point recovered the post-image");
        cleanup(&path);
    }

    /// `reorganize` doubles as the WAL checkpoint: committed redo
    /// records are dropped once the rewritten log is durable.
    #[test]
    fn reorganize_checkpoints_the_wal() {
        let path = tmp("wal-reorg-ckpt");
        let mut s = FileStore::create(&path).unwrap();
        s.begin_flush().unwrap();
        s.write(ChunkId(1), &chunk(1.0)).unwrap();
        s.write(ChunkId(2), &chunk(2.0)).unwrap();
        s.commit_flush().unwrap();
        assert!(s.wal_len() > 0);
        s.reorganize(&[ChunkId(2)]).unwrap();
        assert_eq!(s.wal_len(), 0);
        assert_eq!(s.wal_stats().checkpoints, 1);
        // The checkpoint is durable: reopen sees no WAL work.
        drop(s);
        let s = FileStore::open(&path).unwrap();
        assert!(s.wal_recovery().is_none());
        assert_eq!(s.read(ChunkId(1)).unwrap().get(0), CellValue::Num(1.0));
        cleanup(&path);
    }

    /// Satellite regression: a *failed* reorganize must leave the WAL
    /// intact (checkpointing on failure would discard redo records the
    /// still-live old log may need), exercised through the existing
    /// poisoned-index failure hook.
    #[test]
    fn failed_reorganize_leaves_wal_intact() {
        let path = tmp("wal-reorg-fail");
        let mut s = FileStore::create(&path).unwrap();
        s.begin_flush().unwrap();
        s.write(ChunkId(1), &chunk(1.0)).unwrap();
        s.commit_flush().unwrap();
        let wal_len = s.wal_len();
        assert!(wal_len > 0);
        // Point one index entry past EOF so the rewrite loop's read fails.
        s.index.insert(ChunkId(9), (1 << 30, 64));
        assert!(s.reorganize(&[ChunkId(9)]).is_err());
        assert_eq!(s.wal_len(), wal_len, "failed reorganize checkpointed");
        assert_eq!(s.wal_stats().checkpoints, 0);
        assert_eq!(s.read(ChunkId(1)).unwrap().get(0), CellValue::Num(1.0));
        cleanup(&path);
    }

    /// `create` must not inherit a stale sidecar from a previous store
    /// at the same path — its transactions belong to a dead log.
    #[test]
    fn create_discards_stale_sidecar() {
        let path = tmp("wal-stale");
        {
            let mut s = FileStore::create(&path).unwrap();
            s.begin_flush().unwrap();
            s.write(ChunkId(1), &chunk(1.0)).unwrap();
            s.commit_flush().unwrap();
            assert!(wal::sidecar_path(&path).exists());
        }
        let s = FileStore::create(&path).unwrap();
        assert!(!wal::sidecar_path(&path).exists());
        assert_eq!(s.ids().len(), 0);
        drop(s);
        let s = FileStore::open(&path).unwrap();
        assert!(s.wal_recovery().is_none());
        assert!(!s.contains(ChunkId(1)));
        cleanup(&path);
    }
}
