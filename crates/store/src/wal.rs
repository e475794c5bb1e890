//! The commit-record write-ahead log that makes [`crate::FileStore`]
//! flushes all-or-nothing.
//!
//! PR 4 made each *record* crash-consistent (OLC3 checksums, torn-tail
//! recovery), but a crash between the per-chunk appends of one
//! `flush_all` could persist some chunks of a logical update and not
//! others — silently mixing old and new scenario state. This module
//! closes that torn-update hazard with an ARIES-style redo log (Mohan
//! et al., TODS '92), radically simplified by the append-only main log:
//!
//! * `FileStore`'s [`ChunkStore::begin_flush`](crate::ChunkStore::begin_flush)
//!   appends a `BEGIN` record carrying the flush epoch and the main log's
//!   pre-flush end offset;
//! * every chunk record written inside the flush window is first
//!   appended to the WAL (`CHUNK`: epoch, chunk id, destination offset,
//!   and the *exact payload bytes* destined for the main log), and only
//!   then to the main log itself;
//! * `FileStore`'s [`ChunkStore::commit_flush`](crate::ChunkStore::commit_flush)
//!   fsyncs the WAL (making every staged payload durable), appends a `COMMIT`
//!   record, and fsyncs again. The commit record is the atomicity
//!   point: it cannot become durable before the payloads it promises.
//!
//! Recovery on [`FileStore::open`](crate::FileStore::open):
//!
//! * a transaction **with** a commit record is guaranteed visible — any
//!   of its chunk records missing from (or torn off) the main log are
//!   re-applied from the WAL payloads, idempotently (append logs are
//!   last-record-wins);
//! * a transaction **without** one is rolled back — the main log is
//!   truncated to the `BEGIN` record's pre-flush offset, dropping every
//!   index entry the flush introduced;
//! * either way the recovered store equals exactly the pre-flush or the
//!   post-flush image, never a mix (crash-point matrix in
//!   `tests/tests/persistence.rs`).
//!
//! The WAL is truncated at a **checkpoint** — after recovery, and by
//! [`FileStore::reorganize`](crate::FileStore::reorganize) (which
//! already rewrites and fsyncs the whole main log, so it doubles as the
//! checkpoint the paper's "reorganize after every insert" discipline
//! provides for free).
//!
//! Every WAL record reuses the OLC3 CRC envelope
//! ([`crate::integrity`]), framed by a `u32` length, so a torn WAL tail
//! is detected the same way a torn main-log tail is: scan until the
//! first record that is short or fails its CRC, ignore the rest.

use crate::error::StoreError;
use crate::geometry::ChunkId;
use crate::integrity;
use crate::Result;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};

/// Record kind tags (first byte of the envelope's inner payload).
const KIND_BEGIN: u8 = 1;
const KIND_CHUNK: u8 = 2;
const KIND_COMMIT: u8 = 3;

/// One chunk record staged in a WAL transaction: the id, the main-log
/// payload offset it was (or will be) appended at, and the exact
/// payload bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalChunk {
    /// Chunk id of the staged record.
    pub id: ChunkId,
    /// Main-log *payload* offset the record targets (header sits
    /// `REC_HEADER` bytes before it).
    pub main_off: u64,
    /// The record payload exactly as written to the main log.
    pub payload: Vec<u8>,
}

/// One flush transaction recovered from a WAL scan.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct WalTxn {
    /// Flush epoch (the commit LSN the transaction commits as).
    pub epoch: u64,
    /// Main-log end offset when the flush began — the rollback point.
    pub main_end: u64,
    /// Staged chunk records, in append order.
    pub chunks: Vec<WalChunk>,
    /// Whether a valid `COMMIT` record closed the transaction.
    pub committed: bool,
}

/// Result of scanning a WAL file: the transactions found and the byte
/// length of the valid prefix (a torn tail is everything after it).
#[derive(Debug, Default)]
pub struct WalScan {
    /// Transactions in log order. At most the last one is uncommitted
    /// in any legal WAL (a runtime abort truncates its transaction).
    pub txns: Vec<WalTxn>,
    /// Bytes of valid records; anything beyond is a torn tail.
    pub valid_len: u64,
}

/// Cumulative WAL activity counters for one [`crate::FileStore`],
/// surfaced through `.stats`/`.commit` in the shell.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Flush transactions committed (the flush epoch advances with
    /// each).
    pub txns_committed: u64,
    /// Flush transactions rolled back at runtime (a flush write failed
    /// after retries and `abort_flush` undid it).
    pub txns_aborted: u64,
    /// Chunk records appended to the WAL.
    pub records_logged: u64,
    /// Bytes appended to the WAL (all record kinds, incl. framing).
    pub bytes_logged: u64,
    /// WAL fsyncs (two per committed flush: payloads, then the commit
    /// record).
    pub syncs: u64,
    /// Checkpoints (WAL truncations): after recovery and on
    /// `reorganize`.
    pub checkpoints: u64,
}

/// What WAL replay did during one [`crate::FileStore::open`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalRecovery {
    /// Committed transactions found in the WAL.
    pub committed_txns: u64,
    /// Committed chunk records already intact in the main log.
    pub records_intact: u64,
    /// Committed chunk records re-applied from WAL payloads because the
    /// main log had lost them.
    pub records_reapplied: u64,
    /// Uncommitted transactions rolled back.
    pub txns_rolled_back: u64,
    /// Main-log records dropped by the rollback.
    pub records_rolled_back: u64,
    /// Main-log bytes truncated by the rollback.
    pub bytes_rolled_back: u64,
}

impl WalRecovery {
    /// Whether replay changed anything (all-intact recoveries are
    /// silent).
    pub fn acted(&self) -> bool {
        self.records_reapplied > 0 || self.txns_rolled_back > 0
    }
}

/// The sidecar path for a main log at `path`: `<path>.wal` (appended,
/// not substituted, so `a.cube` and `a.log` cannot collide).
pub fn sidecar_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".wal");
    PathBuf::from(s)
}

/// Fsyncs the directory containing `path`, making a create, rename or
/// unlink of an entry in it durable (POSIX fsyncs the file, not its
/// name).
pub(crate) fn fsync_dir(path: &Path) -> Result<()> {
    let dir = match path.parent() {
        Some(p) if !p.as_os_str().is_empty() => p,
        _ => Path::new("."),
    };
    File::open(dir)?.sync_all()?;
    Ok(())
}

/// An open WAL file handle (append-only; truncated at checkpoints).
#[derive(Debug)]
pub struct Wal {
    file: File,
    len: u64,
    /// Whether [`Wal::open_or_create`] created the file (as opposed to
    /// opening an existing sidecar).
    created: bool,
}

impl Wal {
    /// Opens (creating if absent) the WAL at `path`, appending after
    /// any existing content. Creation fsyncs the parent directory: the
    /// sidecar's *name* must be durable before any record in it is —
    /// otherwise a crash right after creation can lose the whole file
    /// while the main log believes WAL mode is on, leaving a committed
    /// flush with no redo records to replay.
    pub fn open_or_create(path: impl AsRef<Path>) -> Result<Wal> {
        let path = path.as_ref().to_path_buf();
        let created = !path.exists();
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        if created {
            fsync_dir(&path)?;
        }
        let len = file.metadata()?.len();
        Ok(Wal { file, len, created })
    }

    /// Whether [`Wal::open_or_create`] created the file.
    pub fn was_created(&self) -> bool {
        self.created
    }

    /// Current WAL length in bytes.
    pub fn len(&self) -> u64 {
        self.len
    }

    /// Whether the WAL holds no records.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Frames `inner` in the OLC3 envelope and appends it. Returns the
    /// framed byte count.
    fn append_inner(&mut self, inner: &[u8]) -> Result<u64> {
        let rec = encode_record(inner)?;
        self.file.write_all_at(&rec, self.len)?;
        self.len += rec.len() as u64;
        Ok(rec.len() as u64)
    }

    /// Appends a `BEGIN` record opening flush transaction `epoch` with
    /// the main log currently ending at `main_end`.
    pub fn append_begin(&mut self, epoch: u64, main_end: u64) -> Result<u64> {
        self.append_inner(&begin_inner(epoch, main_end))
    }

    /// Appends a `CHUNK` record staging `payload` for chunk `id` at
    /// main-log payload offset `main_off`.
    pub fn append_chunk(
        &mut self,
        epoch: u64,
        id: ChunkId,
        main_off: u64,
        payload: &[u8],
    ) -> Result<u64> {
        self.append_inner(&chunk_inner(epoch, id, main_off, payload))
    }

    /// Appends the `COMMIT` record closing transaction `epoch` after
    /// `records` staged chunk records.
    pub fn append_commit(&mut self, epoch: u64, records: u32) -> Result<u64> {
        self.append_inner(&commit_inner(epoch, records))
    }

    /// Forces appended records to durable media.
    pub fn sync(&mut self) -> Result<()> {
        self.file.sync_all()?;
        Ok(())
    }

    /// Truncates the WAL back to `len` bytes (a runtime abort drops the
    /// open transaction; a checkpoint passes 0) and fsyncs.
    pub fn truncate_to(&mut self, len: u64) -> Result<()> {
        self.file.set_len(len)?;
        self.file.sync_all()?;
        self.len = len;
        Ok(())
    }
}

/// Frames one record's inner payload in the OLC3 envelope plus the
/// `u32` length prefix — the exact bytes a WAL append writes.
/// Pure so replication can build shipped transaction frames without a
/// WAL file.
pub fn encode_record(inner: &[u8]) -> Result<Vec<u8>> {
    let envelope = integrity::wrap_checksummed(inner);
    let len = crate::codec::count_u32(envelope.len(), "WAL record")?;
    let mut rec = Vec::with_capacity(4 + envelope.len());
    rec.extend_from_slice(&len.to_le_bytes());
    rec.extend_from_slice(&envelope);
    Ok(rec)
}

/// Inner payload of a `BEGIN` record.
pub fn begin_inner(epoch: u64, main_end: u64) -> Vec<u8> {
    let mut inner = Vec::with_capacity(17);
    inner.push(KIND_BEGIN);
    inner.extend_from_slice(&epoch.to_le_bytes());
    inner.extend_from_slice(&main_end.to_le_bytes());
    inner
}

/// Inner payload of a `CHUNK` record.
pub fn chunk_inner(epoch: u64, id: ChunkId, main_off: u64, payload: &[u8]) -> Vec<u8> {
    let mut inner = Vec::with_capacity(25 + payload.len());
    inner.push(KIND_CHUNK);
    inner.extend_from_slice(&epoch.to_le_bytes());
    inner.extend_from_slice(&id.0.to_le_bytes());
    inner.extend_from_slice(&main_off.to_le_bytes());
    inner.extend_from_slice(payload);
    inner
}

/// Inner payload of a `COMMIT` record.
pub fn commit_inner(epoch: u64, records: u32) -> Vec<u8> {
    let mut inner = Vec::with_capacity(13);
    inner.push(KIND_COMMIT);
    inner.extend_from_slice(&epoch.to_le_bytes());
    inner.extend_from_slice(&records.to_le_bytes());
    inner
}

/// Parses one envelope's inner payload into its record fields.
fn parse_inner(inner: &[u8]) -> Result<ParsedRecord<'_>> {
    let bad = |what: &str| StoreError::Corrupt(format!("WAL record: {what}"));
    let (&kind, rest) = inner.split_first().ok_or_else(|| bad("empty"))?;
    let u64_at = |b: &[u8], at: usize| -> Result<u64> {
        b.get(at..at + 8)
            .map(|s| u64::from_le_bytes(s.try_into().expect("len checked")))
            .ok_or_else(|| bad("short field"))
    };
    match kind {
        KIND_BEGIN => Ok(ParsedRecord::Begin {
            epoch: u64_at(rest, 0)?,
            main_end: u64_at(rest, 8)?,
        }),
        KIND_CHUNK => Ok(ParsedRecord::Chunk {
            epoch: u64_at(rest, 0)?,
            id: ChunkId(u64_at(rest, 8)?),
            main_off: u64_at(rest, 16)?,
            payload: rest.get(24..).ok_or_else(|| bad("short chunk"))?,
        }),
        KIND_COMMIT => {
            // The declared record count is informational (a write retry
            // can legally duplicate a CHUNK record); only validate that
            // the field is present.
            if rest.get(8..12).is_none() {
                return Err(bad("short commit"));
            }
            Ok(ParsedRecord::Commit {
                epoch: u64_at(rest, 0)?,
            })
        }
        k => Err(bad(&format!("unknown kind {k}"))),
    }
}

enum ParsedRecord<'a> {
    Begin {
        epoch: u64,
        main_end: u64,
    },
    Chunk {
        epoch: u64,
        id: ChunkId,
        main_off: u64,
        payload: &'a [u8],
    },
    Commit {
        epoch: u64,
    },
}

/// Scans WAL bytes into transactions, stopping at the first torn or
/// invalid record (everything from it on is tail fragment, exactly like
/// the main log's torn-tail rule). A structurally valid record in an
/// illegal position (e.g. a `CHUNK` with no open transaction) also
/// stops the scan — nothing after a protocol violation is trusted.
pub fn scan(bytes: &[u8]) -> WalScan {
    let mut out = WalScan::default();
    let mut open: Option<WalTxn> = None;
    let mut pos = 0usize;
    while pos < bytes.len() {
        let Some(len_bytes) = bytes.get(pos..pos + 4) else {
            break; // torn mid-frame
        };
        let len = u32::from_le_bytes(len_bytes.try_into().expect("len checked")) as usize;
        let Some(envelope) = bytes.get(pos + 4..pos + 4 + len) else {
            break; // torn mid-record
        };
        let Ok(inner) = integrity::unwrap_verified(envelope) else {
            break; // CRC failure: torn or corrupt tail
        };
        let Ok(rec) = parse_inner(inner) else {
            break;
        };
        match rec {
            ParsedRecord::Begin { epoch, main_end } => {
                // A BEGIN while a transaction is open means the previous
                // one never committed; keep it (uncommitted) and open
                // the new one.
                if let Some(t) = open.take() {
                    out.txns.push(t);
                }
                open = Some(WalTxn {
                    epoch,
                    main_end,
                    chunks: Vec::new(),
                    committed: false,
                });
            }
            ParsedRecord::Chunk {
                epoch,
                id,
                main_off,
                payload,
            } => {
                let Some(t) = open.as_mut().filter(|t| t.epoch == epoch) else {
                    // Chunk outside its transaction: protocol violation.
                    if let Some(t) = open.take() {
                        out.txns.push(t);
                    }
                    out.valid_len = pos as u64;
                    return out;
                };
                t.chunks.push(WalChunk {
                    id,
                    main_off,
                    payload: payload.to_vec(),
                });
            }
            ParsedRecord::Commit { epoch, .. } => {
                let Some(mut t) = open.take().filter(|t| t.epoch == epoch) else {
                    out.valid_len = pos as u64;
                    return out;
                };
                t.committed = true;
                out.txns.push(t);
            }
        }
        pos += 4 + len;
        out.valid_len = pos as u64;
    }
    if let Some(t) = open.take() {
        out.txns.push(t);
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(name: &str) -> PathBuf {
        std::env::temp_dir().join(format!("olap-wal-test-{}-{}", std::process::id(), name))
    }

    #[test]
    fn sidecar_appends_extension() {
        assert_eq!(
            sidecar_path(Path::new("/tmp/a.cube")),
            PathBuf::from("/tmp/a.cube.wal")
        );
        assert_eq!(sidecar_path(Path::new("log")), PathBuf::from("log.wal"));
    }

    #[test]
    fn committed_txn_roundtrips_through_scan() {
        let path = tmp("roundtrip");
        let mut w = Wal::open_or_create(&path).unwrap();
        w.append_begin(1, 128).unwrap();
        w.append_chunk(1, ChunkId(7), 140, b"payload-7").unwrap();
        w.append_chunk(1, ChunkId(9), 161, b"payload-9").unwrap();
        w.append_commit(1, 2).unwrap();
        w.sync().unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let s = scan(&bytes);
        assert_eq!(s.valid_len, bytes.len() as u64);
        assert_eq!(s.txns.len(), 1);
        let t = &s.txns[0];
        assert!(t.committed);
        assert_eq!(t.epoch, 1);
        assert_eq!(t.main_end, 128);
        assert_eq!(t.chunks.len(), 2);
        assert_eq!(t.chunks[0].id, ChunkId(7));
        assert_eq!(t.chunks[0].main_off, 140);
        assert_eq!(t.chunks[0].payload, b"payload-7");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn missing_commit_scans_as_uncommitted() {
        let path = tmp("uncommitted");
        let mut w = Wal::open_or_create(&path).unwrap();
        w.append_begin(3, 64).unwrap();
        w.append_chunk(3, ChunkId(1), 76, b"x").unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let s = scan(&bytes);
        assert_eq!(s.txns.len(), 1);
        assert!(!s.txns[0].committed);
        assert_eq!(s.txns[0].main_end, 64);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn torn_tail_stops_the_scan_cleanly() {
        let path = tmp("torn");
        let mut w = Wal::open_or_create(&path).unwrap();
        w.append_begin(1, 0).unwrap();
        w.append_chunk(1, ChunkId(2), 12, b"abcd").unwrap();
        w.append_commit(1, 1).unwrap();
        let good = std::fs::read(&path).unwrap();
        w.append_begin(2, 100).unwrap();
        let full = std::fs::read(&path).unwrap();
        // Tear the second BEGIN at every byte boundary: the first
        // transaction must always survive, the second must never
        // half-appear committed.
        for cut in good.len()..full.len() {
            let s = scan(&full[..cut]);
            assert_eq!(s.valid_len, good.len() as u64, "cut {cut}");
            assert_eq!(s.txns.len(), 1, "cut {cut}");
            assert!(s.txns[0].committed);
        }
        // A flipped byte in the tail record is equally a tear.
        let mut bad = full.clone();
        let n = bad.len();
        bad[n - 3] ^= 0x40;
        let s = scan(&bad);
        assert_eq!(s.txns.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn open_or_create_reports_creation_once() {
        let path = tmp("created");
        std::fs::remove_file(&path).ok();
        let w = Wal::open_or_create(&path).unwrap();
        assert!(w.was_created());
        drop(w);
        let w = Wal::open_or_create(&path).unwrap();
        assert!(!w.was_created());
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn encoders_match_appended_bytes() {
        let path = tmp("encoders");
        let mut w = Wal::open_or_create(&path).unwrap();
        w.append_begin(4, 512).unwrap();
        w.append_chunk(4, ChunkId(3), 524, b"chunk-bytes").unwrap();
        w.append_commit(4, 1).unwrap();
        let mut expect = Vec::new();
        expect.extend(encode_record(&begin_inner(4, 512)).unwrap());
        expect.extend(encode_record(&chunk_inner(4, ChunkId(3), 524, b"chunk-bytes")).unwrap());
        expect.extend(encode_record(&commit_inner(4, 1)).unwrap());
        assert_eq!(std::fs::read(&path).unwrap(), expect);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn chunk_without_begin_is_rejected() {
        let path = tmp("orphan");
        let mut w = Wal::open_or_create(&path).unwrap();
        w.append_chunk(5, ChunkId(1), 0, b"zz").unwrap();
        let s = scan(&std::fs::read(&path).unwrap());
        assert!(s.txns.is_empty());
        assert_eq!(s.valid_len, 0);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncate_checkpoints_and_reopen_appends() {
        let path = tmp("truncate");
        {
            let mut w = Wal::open_or_create(&path).unwrap();
            w.append_begin(1, 0).unwrap();
            w.append_commit(1, 0).unwrap();
            assert!(!w.is_empty());
            w.truncate_to(0).unwrap();
            assert!(w.is_empty());
        }
        {
            let mut w = Wal::open_or_create(&path).unwrap();
            assert_eq!(w.len(), 0);
            w.append_begin(2, 10).unwrap();
            w.append_commit(2, 0).unwrap();
        }
        let w = Wal::open_or_create(&path).unwrap();
        let s = scan(&std::fs::read(&path).unwrap());
        assert_eq!(w.len(), s.valid_len);
        assert_eq!(s.txns.len(), 1);
        assert_eq!(s.txns[0].epoch, 2);
        std::fs::remove_file(&path).ok();
    }
}
