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
//! The log is also its own write-ahead log (DESIGN.md §12), using the
//! commit-record idea of ARIES (Mohan et al., TODS '92). A flush
//! transaction is a `BEGIN` record, the transaction's chunk records and a
//! `COMMIT` record. The two markers are framed like chunk records under
//! the two reserved ids `u64::MAX` and `u64::MAX − 1`:
//!
//! * `BEGIN {epoch, main_start}` names the offset it sits at;
//! * `COMMIT {epoch, records, seal}` carries the CRC-32 of every byte from
//!   its `BEGIN` up to itself, so a committed transaction's record headers
//!   are checksummed too;
//! * `commit_flush` fsyncs the log, appends `COMMIT` and fsyncs again, so
//!   the commit record never becomes durable before the records it seals;
//! * [`FileStore::open`] truncates a `BEGIN` that no `COMMIT` closed, so a
//!   crash recovers exactly the pre- or the post-flush image, and reads
//!   the flush epoch off the last `COMMIT`.
//!
//! A replication frame is the exact log bytes of one committed
//! transaction ([`FileStore::retained_since`],
//! [`FileStore::apply_replicated`]).
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
use crate::replication;
use crate::store::{ChunkStore, IoStats};
use crate::Result;
use std::collections::{BTreeMap, HashSet};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::ops::Range;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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

/// Reserved record id of a transaction's `BEGIN {epoch, main_start}`.
pub(crate) const BEGIN_ID: u64 = u64::MAX;
/// Reserved record id of a transaction's `COMMIT {epoch, records, seal}`.
const COMMIT_ID: u64 = u64::MAX - 1;
/// Bytes of one marker record: header, OLC3 envelope, two 8-byte fields.
const MARKER_BYTES: u64 = (REC_HEADER + integrity::ENVELOPE_BYTES + 16) as u64;

/// Chunk id → (payload offset, payload length) in the log.
type LogIndex = BTreeMap<ChunkId, (u64, u32)>;

/// Frames one record: `id u64 | len u32 | payload`.
fn record(id: u64, payload: &[u8]) -> Result<Vec<u8>> {
    let len = codec::count_u32(payload.len(), "record payload")?;
    let mut rec = Vec::with_capacity(REC_HEADER + payload.len());
    rec.extend_from_slice(&id.to_le_bytes());
    rec.extend_from_slice(&len.to_le_bytes());
    rec.extend_from_slice(payload);
    Ok(rec)
}

/// A marker record: `epoch`, then eight bytes of `rest`, enveloped.
fn marker(id: u64, epoch: u64, rest: [u8; 8]) -> Vec<u8> {
    let mut fields = [0u8; 16];
    fields[..8].copy_from_slice(&epoch.to_le_bytes());
    fields[8..].copy_from_slice(&rest);
    record(id, &integrity::wrap_checksummed(&fields)).expect("a marker fits its length field")
}

fn begin_marker(epoch: u64, main_start: u64) -> Vec<u8> {
    marker(BEGIN_ID, epoch, main_start.to_le_bytes())
}

fn commit_marker(epoch: u64, records: u32, seal: u32) -> Vec<u8> {
    let mut rest = [0u8; 8];
    rest[..4].copy_from_slice(&records.to_le_bytes());
    rest[4..].copy_from_slice(&seal.to_le_bytes());
    marker(COMMIT_ID, epoch, rest)
}

/// A marker payload's two 8-byte fields, unverified: callers compare the
/// whole record against the marker those fields describe.
pub(crate) fn marker_fields(payload: &[u8]) -> Option<(u64, u64)> {
    let field = |at: usize| {
        let at = integrity::ENVELOPE_BYTES + at;
        let bytes = payload.get(at..at + 8)?;
        Some(u64::from_le_bytes(bytes.try_into().expect("8 bytes")))
    };
    Some((field(0)?, field(8)?))
}

/// One framed record of a log buffer.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) struct Rec {
    pub(crate) id: u64,
    /// Buffer offset of the record's header.
    pub(crate) start: usize,
    /// Buffer range of the payload.
    pub(crate) payload: Range<usize>,
}

/// Splits `bytes` into framed records, stopping at the first record that
/// runs past the end: a torn tail.
pub(crate) fn frame_records(bytes: &[u8]) -> Vec<Rec> {
    let mut recs = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + REC_HEADER) {
        let id = u64::from_le_bytes(header[..8].try_into().expect("8 bytes"));
        let len = u32::from_le_bytes(header[8..].try_into().expect("4 bytes")) as usize;
        let payload = pos + REC_HEADER..pos + REC_HEADER + len;
        if payload.end > bytes.len() {
            break;
        }
        let start = pos;
        pos = payload.end;
        recs.push(Rec { id, start, payload });
    }
    recs
}

/// What pairing the markers of a record run found.
#[derive(Debug, Default)]
pub(crate) struct TxnScan {
    /// Epoch of the last `COMMIT` (0 when there is none).
    pub(crate) epoch: u64,
    /// Committed transactions as `[BEGIN, COMMIT end)` buffer ranges.
    pub(crate) committed: Vec<Range<usize>>,
    /// Index of a trailing `BEGIN` that no `COMMIT` closed.
    pub(crate) open: Option<usize>,
}

/// Pairs the markers of `recs`, framed from `bytes` whose first byte sits
/// at log offset `base`. Every `BEGIN` must name its own offset and open
/// only after the previous transaction closed; every `COMMIT` must close
/// the open `BEGIN` with its epoch, its chunk-record count and its seal.
/// Anything else is corruption. [`FileStore::open`] and the follower's
/// frame validation share this one parser.
pub(crate) fn scan_txns(bytes: &[u8], base: u64, recs: &[Rec]) -> Result<TxnScan> {
    let corrupt = |r: &Rec, what: &str| {
        StoreError::Corrupt(format!(
            "log offset {}: {what}",
            base.wrapping_add(r.start as u64)
        ))
    };
    let mut scan = TxnScan::default();
    // The open transaction: its BEGIN's index, its epoch and its chunk
    // records so far.
    let mut open: Option<(usize, u64, u64)> = None;
    for (i, r) in recs.iter().enumerate() {
        let rec = &bytes[r.start..r.payload.end];
        match r.id {
            BEGIN_ID => {
                let epoch = marker_fields(&bytes[r.payload.clone()]).map(|(e, _)| e);
                let at = base.wrapping_add(r.start as u64);
                if open.is_some() {
                    return Err(corrupt(r, "BEGIN inside an open transaction"));
                }
                match epoch {
                    Some(e) if rec == begin_marker(e, at) => open = Some((i, e, 0)),
                    _ => return Err(corrupt(r, "bad BEGIN record")),
                }
            }
            COMMIT_ID => {
                let Some((b, epoch, records)) = open.take() else {
                    return Err(corrupt(r, "COMMIT without a BEGIN"));
                };
                let start = recs[b].start;
                let seal = integrity::crc32(&bytes[start..r.start]);
                let want = u32::try_from(records)
                    .ok()
                    .map(|n| commit_marker(epoch, n, seal));
                if want.as_deref() != Some(rec) {
                    return Err(corrupt(r, "COMMIT does not seal its transaction"));
                }
                scan.epoch = epoch;
                scan.committed.push(start..r.payload.end);
            }
            _ => {
                if let Some((_, _, n)) = open.as_mut() {
                    *n += 1;
                }
            }
        }
    }
    scan.open = open.map(|(i, ..)| i);
    Ok(scan)
}

/// What [`FileStore::open`] cut off the end of the log: a torn tail
/// (a crash mid-append) and the flush transaction it left unclosed.
/// The recovery rule is *truncate to the last committed boundary*
/// instead of refusing the whole store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TailRecovery {
    /// Records kept (the index may map fewer ids — later records
    /// supersede earlier ones — and markers map none).
    pub records_recovered: u64,
    /// Complete-looking trailing records dropped because their payload
    /// failed validation (a torn write can leave a full-length record
    /// of partial bytes).
    pub records_dropped: u64,
    /// Records of the flush transaction no `COMMIT` closed, its `BEGIN`
    /// included, rolled back (0 when every transaction was closed).
    pub records_rolled_back: u64,
    /// Bytes truncated off the tail (partial fragment, dropped and
    /// rolled-back records).
    pub bytes_truncated: u64,
}

/// Cumulative flush-transaction counters for one [`FileStore`], printed
/// by `.commit` in the shell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Flush transactions committed (the flush epoch advances with
    /// each).
    pub txns_committed: u64,
    /// Flush transactions rolled back at runtime (a flush write failed
    /// after retries and `abort_flush` undid it).
    pub txns_aborted: u64,
    /// `BEGIN` and `COMMIT` marker bytes appended to the log.
    pub bytes_logged: u64,
    /// Commit fsyncs of the log (two per committed transaction).
    pub syncs: u64,
}

/// Committed transactions a leader ships to followers.
///
/// Replication positions are **log byte offsets**: because the store is
/// an append log and followers append the exact record bytes in order, a
/// follower's file length names its position in the leader's history
/// unambiguously (the same way an LSN does), and it is durable for free —
/// no separate position file to keep in sync.
#[derive(Debug)]
struct ReplLog {
    /// Log position capture started at; a follower behind this needs a
    /// base-image copy, not a stream.
    base_pos: u64,
    /// `[BEGIN, COMMIT end)` log ranges of the transactions committed
    /// since, in log order. The bytes stay in the file: `reorganize` is
    /// refused while capturing.
    committed: Vec<Range<u64>>,
}

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
    /// The epoch this transaction commits as.
    epoch: u64,
    /// Log end when the flush began (its `BEGIN`'s offset) — the
    /// rollback point.
    main_start: u64,
    /// Chunk records appended so far.
    records: u32,
    /// Running CRC-32 of every byte appended since the `BEGIN`, the
    /// `BEGIN` included: the `COMMIT`'s seal.
    seal: u32,
    /// Per-write undo log: the index entry each write displaced (`None`
    /// for first-time chunks), in write order.
    displaced: Vec<(ChunkId, Option<(u64, u32)>)>,
    /// `dead_bytes` added during the transaction.
    dead_added: u64,
}

/// A single-file, append-log chunk store.
#[derive(Debug)]
pub struct FileStore {
    file: File,
    path: PathBuf,
    index: LogIndex,
    /// Next append offset.
    end: u64,
    /// Bytes occupied by superseded records and transaction markers.
    dead_bytes: u64,
    stats: IoStats,
    last_read_end: AtomicU64,
    seek_model: Option<SeekModel>,
    /// Set when [`FileStore::open`] truncated the tail.
    tail_recovery: Option<TailRecovery>,
    /// Last committed flush epoch (the commit LSN).
    epoch: u64,
    /// The open flush transaction, if any.
    txn: Option<FlushTxn>,
    wal_stats: WalStats,
    /// Crash injection: remaining physical ops before the store "loses
    /// power" (`None` = disarmed). See [`FileStore::set_crash_after_ops`].
    crash_budget: Option<u64>,
    /// Physical I/O operations attempted so far.
    phys_ops: u64,
    /// Committed transactions to ship, when this store publishes to
    /// followers. See [`FileStore::set_replication`].
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

fn io_err(msg: String) -> StoreError {
    StoreError::Io(std::io::Error::other(msg))
}

impl FileStore {
    fn with_log(file: File, path: PathBuf, index: LogIndex, end: u64, dead_bytes: u64) -> Self {
        FileStore {
            file,
            path,
            index,
            end,
            dead_bytes,
            stats: IoStats::default(),
            last_read_end: AtomicU64::new(0),
            seek_model: None,
            tail_recovery: None,
            epoch: 0,
            txn: None,
            wal_stats: WalStats::default(),
            crash_budget: None,
            phys_ops: 0,
            repl: None,
        }
    }

    /// Creates (truncating) a store at `path`.
    pub fn create(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(FileStore::with_log(file, path, BTreeMap::new(), 0, 0))
    }

    /// Opens an existing store, rebuilding the index by scanning records
    /// (later records for the same chunk win, as in any append log).
    ///
    /// Recovery truncates the log to its last committed boundary
    /// ([`TailRecovery`] reports what was cut): first a torn tail — a
    /// partial record, or complete-looking final records whose payload
    /// fails validation — then a flush transaction whose `BEGIN` no
    /// `COMMIT` closed. Interior chunk records are not decoded here;
    /// corruption in one outside any transaction surfaces as
    /// [`StoreError::Corrupt`] when it is read. A marker that does not
    /// pair up, or a committed transaction whose seal does not match its
    /// bytes, refuses the open.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        let mut file = OpenOptions::new().read(true).write(true).open(&path)?;
        let mut bytes = Vec::new();
        file.read_to_end(&mut bytes)?;

        let mut recs = frame_records(&bytes);
        let mut dropped = 0u64;
        while let Some(last) = recs.last() {
            let payload = &bytes[last.payload.clone()];
            let valid = if last.id >= COMMIT_ID {
                integrity::unwrap_verified(payload).is_ok()
            } else {
                compress::decode_any(payload).is_ok()
            };
            if valid {
                break;
            }
            recs.pop();
            dropped += 1;
        }
        let scan = scan_txns(&bytes, 0, &recs)?;
        let rolled_back = scan.open.map_or(0, |i| (recs.len() - i) as u64);
        recs.truncate(scan.open.unwrap_or(recs.len()));

        let valid_end = recs.last().map_or(0, |r| r.payload.end) as u64;
        let mut tail_recovery = None;
        if valid_end < bytes.len() as u64 {
            let recovery = TailRecovery {
                records_recovered: recs.len() as u64,
                records_dropped: dropped,
                records_rolled_back: rolled_back,
                bytes_truncated: bytes.len() as u64 - valid_end,
            };
            eprintln!(
                "olap-store: recovered {}: truncated {} byte(s) ({} torn record(s) dropped, \
                 {} record(s) of an uncommitted flush rolled back), {} record(s) kept",
                path.display(),
                recovery.bytes_truncated,
                recovery.records_dropped,
                recovery.records_rolled_back,
                recovery.records_recovered,
            );
            file.set_len(valid_end)?;
            file.sync_all()?;
            tail_recovery = Some(recovery);
        }

        let mut index = BTreeMap::new();
        let mut dead = 0u64;
        for r in &recs {
            let len = r.payload.len() as u32;
            if r.id >= COMMIT_ID {
                dead += MARKER_BYTES;
            } else if let Some((_, old_len)) =
                index.insert(ChunkId(r.id), (r.payload.start as u64, len))
            {
                dead += REC_HEADER as u64 + old_len as u64;
            }
        }
        let mut store = FileStore::with_log(file, path, index, valid_end, dead);
        store.tail_recovery = tail_recovery;
        store.epoch = scan.epoch;
        Ok(store)
    }

    /// What [`FileStore::open`] cut off the end of the log; `None` when
    /// the file ended on a committed boundary.
    pub fn tail_recovery(&self) -> Option<TailRecovery> {
        self.tail_recovery
    }

    /// Cumulative flush-transaction counters.
    pub fn wal_stats(&self) -> WalStats {
        self.wal_stats
    }

    /// Arms deterministic crash injection: the next `ops` physical I/O
    /// operations (log appends, fsyncs, truncations) succeed, after
    /// which every one fails permanently — the in-process analogue of
    /// pulling the plug, leaving the on-disk bytes exactly as a crash at
    /// that point would. Recovery is then exercised by dropping the
    /// store and re-opening the path. `None` disarms.
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
            Some(0) => Err(io_err("injected crash: store halted".into())),
            Some(n) => {
                *n -= 1;
                Ok(())
            }
            None => Ok(()),
        }
    }

    /// Appends one framed record at the end of the log, folding it into
    /// the open transaction's seal.
    fn append(&mut self, rec: &[u8]) -> Result<()> {
        self.crash_gate()?;
        self.file.write_all_at(rec, self.end)?;
        self.end += rec.len() as u64;
        if let Some(t) = self.txn.as_mut() {
            t.seal = integrity::crc32_append(t.seal, rec);
        }
        Ok(())
    }

    /// Fsyncs the log: one of a commit's two syncs.
    fn sync_log(&mut self) -> Result<()> {
        self.crash_gate()?;
        self.file.sync_all()?;
        self.wal_stats.syncs += 1;
        Ok(())
    }

    /// Appends the `BEGIN` record `begin` and opens the transaction it
    /// starts.
    fn open_txn(&mut self, begin: &[u8], epoch: u64) -> Result<()> {
        let main_start = self.end;
        self.append(begin)?;
        self.dead_bytes += MARKER_BYTES;
        self.wal_stats.bytes_logged += MARKER_BYTES;
        self.txn = Some(FlushTxn {
            epoch,
            main_start,
            records: 0,
            seal: integrity::crc32(begin),
            displaced: Vec::new(),
            dead_added: MARKER_BYTES,
        });
        Ok(())
    }

    /// Appends the framed chunk record `rec` and indexes it, logging the
    /// entry it displaced for the open transaction's undo.
    fn append_chunk(&mut self, id: ChunkId, rec: &[u8]) -> Result<()> {
        let len = (rec.len() - REC_HEADER) as u32;
        let payload_off = self.end + REC_HEADER as u64;
        self.append(rec)?;
        let displaced = self.index.insert(id, (payload_off, len));
        let dead = displaced.map_or(0, |(_, old_len)| REC_HEADER as u64 + old_len as u64);
        self.dead_bytes += dead;
        if let Some(t) = self.txn.as_mut() {
            t.records += 1;
            t.displaced.push((id, displaced));
            t.dead_added += dead;
        }
        self.stats.record_write(len as u64);
        Ok(())
    }

    /// Seals the open transaction with the `COMMIT` record `commit`:
    /// fsync (the records become durable first), append, fsync. On
    /// failure the transaction stays open for `abort_flush`.
    fn close_txn(&mut self, commit: &[u8]) -> Result<u64> {
        self.sync_log()?;
        self.append(commit)?;
        self.wal_stats.bytes_logged += MARKER_BYTES;
        self.sync_log()?;
        let t = self.txn.take().expect("close_txn with a transaction open");
        self.dead_bytes += MARKER_BYTES;
        self.epoch = t.epoch;
        self.wal_stats.txns_committed += 1;
        if let Some(repl) = self.repl.as_mut() {
            repl.committed.push(t.main_start..self.end);
        }
        Ok(t.epoch)
    }

    /// Enables/disables leader-side replication capture. While on,
    /// every committed flush transaction's log range is kept for
    /// shipping to followers via [`FileStore::retained_since`]. Turning
    /// it off forgets them.
    ///
    /// `reorganize` rewrites the whole file and breaks the byte-offset
    /// contract, so it is refused while replication is on.
    pub fn set_replication(&mut self, on: bool) {
        if on && self.repl.is_none() {
            self.repl = Some(ReplLog {
                base_pos: self.replication_position(),
                committed: Vec::new(),
            });
        } else if !on {
            self.repl = None;
        }
    }

    /// Whether leader-side replication capture is on.
    pub fn replication(&self) -> bool {
        self.repl.is_some()
    }

    /// This store's replication position: the log byte offset a
    /// follower reaches by applying every committed transaction so far.
    /// Refers to committed state only — an open flush transaction's
    /// appends are not part of any shippable position, so the pre-flush
    /// offset is reported while one is open.
    pub fn replication_position(&self) -> u64 {
        self.txn.as_ref().map_or(self.end, |t| t.main_start)
    }

    /// The frames a follower at log position `pos` still needs, oldest
    /// first: each is the exact log bytes of one committed transaction,
    /// `BEGIN` through `COMMIT`. An empty vec means the follower is
    /// caught up. Errors if `pos` predates capture (the follower must
    /// re-seed from a base image) or lies past the leader's position.
    pub fn retained_since(&self, pos: u64) -> Result<Vec<Vec<u8>>> {
        let repl = self
            .repl
            .as_ref()
            .ok_or_else(|| io_err("replication capture is not enabled".into()))?;
        if pos < repl.base_pos {
            return Err(io_err(format!(
                "replication position {pos} predates retained history (base {}): \
                 follower needs a fresh base image",
                repl.base_pos
            )));
        }
        if pos > self.replication_position() {
            return Err(io_err(format!(
                "replication position {pos} is ahead of the leader ({}): diverged store",
                self.replication_position()
            )));
        }
        let from = repl.committed.partition_point(|r| r.start < pos);
        repl.committed[from..]
            .iter()
            .map(|r| {
                let mut frame = vec![0u8; (r.end - r.start) as usize];
                self.file.read_exact_at(&mut frame, r.start)?;
                Ok(frame)
            })
            .collect()
    }

    /// Applies one shipped frame — the log bytes of one committed
    /// transaction — by appending it verbatim in the shape of a local
    /// commit: `BEGIN` and the chunk records, fsync, `COMMIT`, fsync. A
    /// crash at any physical operation leaves a file that re-opens to
    /// exactly the pre- or post-transaction image, and the two logs stay
    /// byte-identical.
    ///
    /// The frame is validated first, by the parser [`FileStore::open`]
    /// uses: anything but exactly one sealed transaction fails with
    /// [`StoreError::Corrupt`] before any I/O. Delivery may be
    /// at-least-once: a frame ending at or before this store's position
    /// is reported [`ReplApply::Duplicate`] and ignored. A frame that
    /// does not start at this store's position (a gap, or a divergence)
    /// is refused before any I/O.
    pub fn apply_replicated(&mut self, frame: &[u8]) -> Result<ReplApply> {
        let f = replication::parse_frame(frame)?;
        if self.txn.is_some() {
            return Err(io_err(
                "apply_replicated during an open flush transaction".into(),
            ));
        }
        if f.end <= self.end {
            return Ok(ReplApply::Duplicate);
        }
        if f.start != self.end {
            let what = if f.start > self.end {
                "gap"
            } else {
                "divergence"
            };
            return Err(io_err(format!(
                "replication {what}: frame spans [{}, {}) but this store ends at {}",
                f.start, f.end, self.end
            )));
        }
        let (begin, rest) = f.recs.split_first().expect("a frame opens with BEGIN");
        let (commit, chunks) = rest.split_last().expect("a frame closes with COMMIT");
        let applied = (|| {
            self.open_txn(&frame[..begin.payload.end], f.epoch)?;
            for r in chunks {
                self.append_chunk(ChunkId(r.id), &frame[r.start..r.payload.end])?;
            }
            self.close_txn(&frame[commit.start..])
        })();
        if let Err(e) = applied {
            let _ = self.abort_flush();
            return Err(e);
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

    /// Bytes of superseded records and transaction markers — what
    /// `reorganize` reclaims.
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
    /// resets the read head. Transaction markers are dropped; a store
    /// that has committed a flush ends the rewritten log with one empty
    /// committed transaction, so its epoch survives a reopen.
    pub fn reorganize(&mut self, order: &[ChunkId]) -> Result<()> {
        if self.txn.is_some() {
            return Err(io_err("reorganize during an open flush transaction".into()));
        }
        if self.repl.is_some() {
            // Rewriting the file re-keys every byte offset, breaking the
            // position contract followers replicate against.
            return Err(io_err(
                "reorganize on a replicating store (followers track byte positions)".into(),
            ));
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
        let epoch = self.epoch;
        let rewrite = || -> Result<(LogIndex, u64)> {
            let mut new_index = BTreeMap::new();
            let mut pos = 0u64;
            for id in sequence {
                let (off, len) = self.index[&id];
                let mut payload = vec![0u8; len as usize];
                self.file.read_exact_at(&mut payload, off)?;
                let rec = record(id.0, &payload)?;
                tmp.write_all_at(&rec, pos)?;
                new_index.insert(id, (pos + REC_HEADER as u64, len));
                pos += rec.len() as u64;
            }
            if epoch > 0 {
                let begin = begin_marker(epoch, pos);
                let commit = commit_marker(epoch, 0, integrity::crc32(&begin));
                tmp.write_all_at(&[begin, commit].concat(), pos)?;
                pos += 2 * MARKER_BYTES;
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
        self.dead_bytes = if epoch > 0 { 2 * MARKER_BYTES } else { 0 };
        self.last_read_end.store(0, Ordering::Relaxed);
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

    /// Appends the chunk's record. The two topmost ids are the
    /// transaction markers' and are refused.
    fn write(&mut self, id: ChunkId, chunk: &Chunk) -> Result<()> {
        if id.0 >= COMMIT_ID {
            return Err(StoreError::OutOfBounds {
                what: "chunk id (the top two are transaction markers)",
                got: id.0,
                bound: COMMIT_ID - 1,
            });
        }
        let payload = integrity::wrap_checksummed(&codec::encode(chunk)?);
        self.append_chunk(id, &record(id.0, &payload)?)
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

    fn begin_flush(&mut self) -> Result<()> {
        if self.txn.is_some() {
            return Err(io_err(
                "begin_flush with a flush transaction already open".into(),
            ));
        }
        let epoch = self.epoch + 1;
        self.open_txn(&begin_marker(epoch, self.end), epoch)
    }

    fn commit_flush(&mut self) -> Result<u64> {
        let Some(t) = self.txn.as_ref() else {
            return Ok(self.epoch);
        };
        let commit = commit_marker(t.epoch, t.records, t.seal);
        self.close_txn(&commit)
    }

    fn abort_flush(&mut self) -> Result<()> {
        let Some(t) = self.txn.take() else {
            return Ok(());
        };
        // In-memory undo first, in reverse write order, so the index is
        // consistent even if the physical truncation fails (e.g. the
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

    /// The full logical image of a store, for pre/post comparisons.
    fn image(s: &FileStore) -> BTreeMap<ChunkId, Chunk> {
        s.ids()
            .into_iter()
            .map(|id| (id, s.read(id).unwrap()))
            .collect()
    }

    /// Whether a sidecar WAL (`<path>.wal`) exists next to `path`.
    fn sidecar_exists(path: &Path) -> bool {
        let mut wal = path.as_os_str().to_os_string();
        wal.push(".wal");
        Path::new(&wal).exists()
    }

    /// A flush with no commit record is rolled back on open — the
    /// "uncommitted means invisible" half, even though every chunk
    /// record landed in the log.
    #[test]
    fn uncommitted_flush_rolls_back_on_open() {
        let path = tmp("txn-rollback");
        let committed_end;
        {
            let mut s = FileStore::create(&path).unwrap();
            s.write(ChunkId(1), &chunk(1.0)).unwrap();
            committed_end = s.file_size();
            s.begin_flush().unwrap();
            s.write(ChunkId(1), &chunk(10.0)).unwrap();
            s.write(ChunkId(2), &chunk(20.0)).unwrap();
            // Crash before commit: the store is dropped mid-transaction.
        }
        let s = FileStore::open(&path).unwrap();
        let rep = s.tail_recovery().expect("rollback must be reported");
        assert_eq!(rep.records_rolled_back, 3, "BEGIN and two chunk records");
        assert_eq!(rep.records_dropped, 0);
        assert_eq!(rep.records_recovered, 1);
        assert_eq!(s.file_size(), committed_end);
        assert_eq!(s.read(ChunkId(1)).unwrap().get(0), CellValue::Num(1.0));
        assert!(!s.contains(ChunkId(2)));
        assert_eq!(s.flush_epoch(), 0);
        std::fs::remove_file(&path).ok();
    }

    /// A runtime abort undoes the transaction in place: index entries
    /// restored, the log truncated back, and the store remains usable
    /// for a subsequent successful flush.
    #[test]
    fn abort_flush_restores_index_and_log() {
        let path = tmp("txn-abort");
        let mut s = FileStore::create(&path).unwrap();
        s.write(ChunkId(1), &chunk(1.0)).unwrap();
        let end_before = s.file_size();
        let img_before = image(&s);
        s.begin_flush().unwrap();
        s.write(ChunkId(1), &chunk(10.0)).unwrap();
        s.write(ChunkId(2), &chunk(20.0)).unwrap();
        s.abort_flush().unwrap();
        assert_eq!(s.file_size(), end_before);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), end_before);
        assert_eq!(s.dead_bytes(), 0);
        assert_eq!(image(&s), img_before);
        assert_eq!(s.flush_epoch(), 0);
        // The next flush commits normally with the same epoch.
        s.begin_flush().unwrap();
        s.write(ChunkId(3), &chunk(30.0)).unwrap();
        assert_eq!(s.commit_flush().unwrap(), 1);
        assert_eq!(s.wal_stats().txns_aborted, 1);
        assert_eq!(s.wal_stats().txns_committed, 1);
        std::fs::remove_file(&path).ok();
    }

    /// A flush transaction's bytes are its `BEGIN`, then exactly the
    /// bytes the same writes leave when issued bare, then its `COMMIT`
    /// sealing everything from the `BEGIN` on.
    #[test]
    fn flush_transaction_leaves_the_main_log_bytes_unchanged() {
        let pa = tmp("txn-ab-txn");
        let pb = tmp("txn-ab-bare");
        let mut pre = 0;
        for (path, in_txn) in [(&pa, true), (&pb, false)] {
            let mut s = FileStore::create(path).unwrap();
            s.write(ChunkId(0), &chunk(0.5)).unwrap();
            pre = s.file_size() as usize;
            if in_txn {
                s.begin_flush().unwrap();
            }
            for i in 1..5u64 {
                s.write(ChunkId(i), &chunk(i as f64)).unwrap();
            }
            s.commit_flush().unwrap();
        }
        let a = std::fs::read(&pa).unwrap();
        let b = std::fs::read(&pb).unwrap();
        let begin = begin_marker(1, pre as u64);
        let body = &b[pre..];
        let seal = integrity::crc32(&[&begin[..], body].concat());
        let commit = commit_marker(1, 4, seal);
        assert_eq!(a, [&b[..pre], &begin, body, &commit].concat());
        assert_eq!(begin.len() as u64, MARKER_BYTES);
        assert!(!sidecar_exists(&pa));
        std::fs::remove_file(&pa).ok();
        std::fs::remove_file(&pb).ok();
    }

    /// Crash-point sweep at the store level: kill the store after every
    /// possible physical op count during a begin/write×3/commit
    /// sequence; the reopened store must equal exactly the pre-flush or
    /// the post-flush image — never a mix.
    #[test]
    fn crash_sweep_recovers_pre_or_post_image_only() {
        let path = tmp("txn-crash-sweep");
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
            s.commit_flush().map(|_| ())
        };
        // Dry run: learn the op count and both legal images.
        let mut s = build_base(&path);
        let pre = image(&s);
        let ops_before = s.phys_ops();
        flush(&mut s).unwrap();
        let total_ops = s.phys_ops() - ops_before;
        let post = image(&s);
        drop(s);
        // The schedule: the BEGIN append (op 1), three chunk appends
        // (2–4), the fsync of the records (5), the COMMIT append (6) and
        // its fsync (7).
        assert_eq!(total_ops, 7);
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
                assert_eq!(r.flush_epoch(), 0, "k={k}");
                saw_pre += 1;
            } else if img == post {
                assert_eq!(r.flush_epoch(), 1, "k={k}");
                saw_post += 1;
            } else {
                panic!("crash at op {k} recovered to a mixed image: {img:?}");
            }
        }
        // Crashes before the COMMIT append (k ≤ 5) roll back; once it is
        // written (k = 6) the flush is committed although its last fsync
        // failed.
        assert_eq!((saw_pre, saw_post), (6, 1));
        std::fs::remove_file(&path).ok();
    }

    /// The flush epoch lives in the log: two commits read back as epoch
    /// 2 on every reopen, and a reorganized log keeps it.
    #[test]
    fn epochs_survive_reopen() {
        let path = tmp("txn-epochs");
        let mut s = FileStore::create(&path).unwrap();
        for v in [1.0, 2.0] {
            s.begin_flush().unwrap();
            s.write(ChunkId(1), &chunk(v)).unwrap();
            s.commit_flush().unwrap();
        }
        assert_eq!(s.flush_epoch(), 2);
        drop(s);
        for _ in 0..2 {
            let s = FileStore::open(&path).unwrap();
            assert_eq!(s.flush_epoch(), 2);
            assert!(s.tail_recovery().is_none());
        }
        let mut s = FileStore::open(&path).unwrap();
        s.reorganize(&[]).unwrap();
        assert_eq!(
            s.dead_bytes(),
            2 * MARKER_BYTES,
            "the epoch's empty transaction"
        );
        drop(s);
        let mut s = FileStore::open(&path).unwrap();
        assert_eq!(s.flush_epoch(), 2);
        assert_eq!(s.read(ChunkId(1)).unwrap().get(0), CellValue::Num(2.0));
        s.begin_flush().unwrap();
        s.write(ChunkId(2), &chunk(3.0)).unwrap();
        assert_eq!(s.commit_flush().unwrap(), 3);
        std::fs::remove_file(&path).ok();
    }

    /// The two topmost ids belong to the transaction markers; writing a
    /// chunk under one is refused before any I/O.
    #[test]
    fn marker_ids_are_refused_as_chunk_ids() {
        let path = tmp("marker-ids");
        let mut s = FileStore::create(&path).unwrap();
        for id in [BEGIN_ID, COMMIT_ID] {
            assert!(matches!(
                s.write(ChunkId(id), &chunk(1.0)),
                Err(StoreError::OutOfBounds { .. })
            ));
        }
        assert_eq!(s.file_size(), 0);
        s.write(ChunkId(COMMIT_ID - 1), &chunk(1.0)).unwrap();
        std::fs::remove_file(&path).ok();
    }

    /// No code path creates a `<path>.wal` sidecar: not a flush, not an
    /// abort, not a replicated apply.
    #[test]
    fn no_store_creates_a_sidecar() {
        let lp = tmp("nowal-leader");
        let fp = tmp("nowal-follower");
        let mut l = FileStore::create(&lp).unwrap();
        l.set_replication(true);
        let mut f = FileStore::create(&fp).unwrap();
        l.begin_flush().unwrap();
        l.write(ChunkId(1), &chunk(1.0)).unwrap();
        l.commit_flush().unwrap();
        l.begin_flush().unwrap();
        l.write(ChunkId(2), &chunk(2.0)).unwrap();
        l.abort_flush().unwrap();
        for frame in l.retained_since(0).unwrap() {
            assert_eq!(f.apply_replicated(&frame).unwrap(), ReplApply::Applied);
        }
        assert_eq!(std::fs::read(&fp).unwrap(), std::fs::read(&lp).unwrap());
        assert!(!sidecar_exists(&lp) && !sidecar_exists(&fp));
        std::fs::remove_file(&lp).ok();
        std::fs::remove_file(&fp).ok();
    }

    /// Byte-fuzz of the one log parser over a real three-transaction
    /// log. `open` never panics: it returns `Err` or an image equal to a
    /// committed prefix (truncation: exactly the longest prefix the cut
    /// keeps). Frame validation of one transaction's mutated bytes
    /// returns `Err` or exactly that transaction.
    #[test]
    fn mutated_logs_open_to_a_committed_prefix_or_err() {
        let path = tmp("fuzz-log");
        let scratch = tmp("fuzz-case");
        let mut s = FileStore::create(&path).unwrap();
        s.set_replication(true);
        // Every record sits inside a transaction, so every byte is under
        // a checksum: the markers' envelopes and the COMMIT's seal.
        let mut prefixes = vec![(0usize, image(&s))];
        for txn in [
            &[(1u64, 1.0), (2, 2.0), (3, 3.0)][..],
            &[(1, 10.0), (4, 4.0)],
            &[(2, 20.0), (3, 30.0)],
        ] {
            s.begin_flush().unwrap();
            for &(id, v) in txn {
                s.write(ChunkId(id), &chunk(v)).unwrap();
            }
            s.commit_flush().unwrap();
            prefixes.push((s.file_size() as usize, image(&s)));
        }
        let frames = s.retained_since(0).unwrap();
        drop(s);
        let log = std::fs::read(&path).unwrap();
        let open_mutated = |bytes: &[u8]| -> Result<BTreeMap<ChunkId, Chunk>> {
            std::fs::write(&scratch, bytes).unwrap();
            let s = FileStore::open(&scratch)?;
            s.ids()
                .into_iter()
                .map(|id| Ok((id, s.read(id)?)))
                .collect()
        };
        let is_prefix = |img: &BTreeMap<ChunkId, Chunk>| prefixes.iter().any(|(_, p)| p == img);
        for cut in 0..=log.len() {
            let want = &prefixes
                .iter()
                .rev()
                .find(|(end, _)| *end <= cut)
                .unwrap()
                .1;
            assert_eq!(&open_mutated(&log[..cut]).unwrap(), want, "cut {cut}");
        }
        for pos in (0..log.len()).step_by(7) {
            let mut bad = log.clone();
            bad[pos] ^= 1 << (pos % 8);
            if let Ok(img) = open_mutated(&bad) {
                assert!(is_prefix(&img), "flip at {pos}");
            }
        }
        // Spliced at every transaction boundary: a BEGIN no COMMIT
        // closes, and a duplicate of the last COMMIT.
        let last_commit = &log[log.len() - MARKER_BYTES as usize..];
        for &(end, _) in &prefixes {
            for splice in [begin_marker(9, end as u64), last_commit.to_vec()] {
                let bytes = [&log[..end], &splice, &log[end..]].concat();
                if let Ok(img) = open_mutated(&bytes) {
                    assert!(is_prefix(&img), "splice at {end}");
                }
            }
        }
        assert_eq!(frames.len(), 3);
        for frame in &frames {
            let want = replication::parse_frame(frame).unwrap();
            let check = |bytes: &[u8]| {
                if let Ok(got) = replication::parse_frame(bytes) {
                    assert_eq!(got, want);
                }
            };
            for cut in 0..frame.len() {
                check(&frame[..cut]);
            }
            for pos in 0..frame.len() {
                for bit in 0..8 {
                    let mut bad = frame.clone();
                    bad[pos] ^= 1 << bit;
                    check(&bad);
                }
            }
        }
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&scratch).ok();
    }
}
