//! Follower-side replication: a read-only replica server fed by a
//! leader's log-shipping stream (DESIGN.md §17).
//!
//! A [`Follower`] owns two things: a [`crate::Server`] started in
//! replica mode (sessions are read-only — `.commit` refused — and run
//! under the apply gate), and a *sync loop* that connects to the
//! leader, issues `.replicate <position>`, and applies each shipped
//! frame — the exact log bytes of one committed transaction — through
//! [`FileStore::apply_replicated`]. The apply appends the frame in the
//! shape of a local commit, so a follower killed mid-apply re-opens to
//! the pre- or post-transaction image, its file byte-identical to a
//! prefix of the leader's, and simply resumes from the position its
//! file ends at. Its flush epoch is read off the log on open like any
//! store's, so a restarted follower greets with the epoch it stands at.
//!
//! Consistency: the sync loop takes the [`FollowerState`] gate in
//! write mode around each apply; every session request holds it in
//! read mode. Reads therefore always observe the store at a committed
//! position — some position the leader actually stood at — never a
//! half-applied transaction. After each apply the buffer pool's frames
//! and both scenario caches are dropped: they were computed against
//! the pre-apply image and carry no versioning of their own.
//!
//! Transport errors (leader restart, hangup, and a torn or corrupt frame,
//! which [`FileStore::apply_replicated`] refuses as
//! [`StoreError::Corrupt`] before any I/O) reconnect with the current
//! position — delivery is at-least-once and already-applied frames are
//! duplicates. Other store errors are *fatal*: the in-memory store has
//! refused an operation (e.g. an injected crash), so the loop parks
//! with [`FollowerState::is_dead`] set and the file waits for the next
//! open's recovery.

use crate::{Server, ServerConfig};
use olap_store::{ChunkStore as _, FileStore, ReplApply, StoreError};
use parking_lot::{Mutex, RwLock, RwLockReadGuard};
use polap_cli::proto::{read_response, read_response_bytes, write_request, STATUS_OK, STATUS_REPL};
use polap_cli::SharedData;
use std::io;
use std::net::{SocketAddr, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Shared between the sync loop and the replica server's sessions.
pub struct FollowerState {
    /// Log byte offset applied up to (committed state only).
    position: AtomicU64,
    /// Flush epoch of the last applied transaction (reporting only —
    /// positions, not epochs, are the replication cursor).
    epoch: AtomicU64,
    /// Write-held around each apply; read-held around each session
    /// request.
    gate: RwLock<()>,
    /// Set when the sync loop hit a fatal store error and parked.
    dead: AtomicBool,
    last_error: Mutex<Option<String>>,
}

impl FollowerState {
    fn new(position: u64, epoch: u64) -> FollowerState {
        FollowerState {
            position: AtomicU64::new(position),
            epoch: AtomicU64::new(epoch),
            gate: RwLock::new(()),
            dead: AtomicBool::new(false),
            last_error: Mutex::new(None),
        }
    }

    /// The position this replica has applied up to.
    pub fn position(&self) -> u64 {
        self.position.load(Ordering::Acquire)
    }

    /// The flush epoch of the last applied transaction.
    pub fn epoch(&self) -> u64 {
        self.epoch.load(Ordering::Acquire)
    }

    /// Whether the sync loop has parked on a fatal store error.
    pub fn is_dead(&self) -> bool {
        self.dead.load(Ordering::Acquire)
    }

    /// The fatal store error, if the sync loop parked on one.
    pub fn last_error(&self) -> Option<String> {
        self.last_error.lock().clone()
    }

    pub(crate) fn read_gate(&self) -> RwLockReadGuard<'_, ()> {
        self.gate.read()
    }
}

/// How a sync attempt ended.
enum SyncEnd {
    /// Transport trouble (hangup, torn frame, leader drain): reconnect
    /// and resume from the current position.
    Reconnect,
    /// The store refused an apply: the in-memory handle is wedged (by
    /// an injected crash or a real I/O fault) and only a re-open's
    /// recovery can continue. The loop parks.
    Fatal(String),
    /// Stop was requested.
    Stopped,
}

/// A running replica: a read-only server over a follower store plus
/// the sync loop that keeps it converging toward the leader.
pub struct Follower {
    /// `Some` until shutdown; `Option` only so `shutdown` can move it
    /// out past this type's `Drop`.
    server: Option<Server>,
    state: Arc<FollowerState>,
    stop: Arc<AtomicBool>,
    sync: Option<JoinHandle<()>>,
}

impl Follower {
    /// Starts a replica over `shared` (which must be file-backed —
    /// typically mounted with `StoreBackend::Attach` from a copy of the
    /// leader's base image), serving sessions on `bind` and following
    /// the leader at `leader`.
    pub fn start(
        shared: Arc<SharedData>,
        bind: &str,
        cfg: ServerConfig,
        leader: SocketAddr,
    ) -> io::Result<Follower> {
        let seed = shared.cube().with_pool(|p| {
            let s = p.store();
            s.as_any()
                .downcast_ref::<FileStore>()
                .map(|fs| (fs.replication_position(), fs.flush_epoch()))
        });
        let Some((pos, epoch)) = seed else {
            return Err(io::Error::new(
                io::ErrorKind::InvalidInput,
                "follower requires a file-backed store (a copy of the leader's base image)",
            ));
        };
        let state = Arc::new(FollowerState::new(pos, epoch));
        let server = Server::start_replica(Arc::clone(&shared), bind, cfg, Arc::clone(&state))?;
        let stop = Arc::new(AtomicBool::new(false));
        let sync = {
            let state = Arc::clone(&state);
            let stop = Arc::clone(&stop);
            thread::spawn(move || sync_loop(shared, state, leader, stop))
        };
        Ok(Follower {
            server: Some(server),
            state,
            stop,
            sync: Some(sync),
        })
    }

    /// The replica server's bound address.
    pub fn addr(&self) -> SocketAddr {
        self.server.as_ref().expect("present until shutdown").addr()
    }

    /// Sync/apply state, shared with the serving side.
    pub fn state(&self) -> &Arc<FollowerState> {
        &self.state
    }

    /// The position this replica has applied up to.
    pub fn position(&self) -> u64 {
        self.state.position()
    }

    /// Whether the sync loop has parked on a fatal store error (e.g.
    /// an injected crash) — the replica needs a restart to recover.
    pub fn is_dead(&self) -> bool {
        self.state.is_dead()
    }

    /// Stops the sync loop and drains the replica server. Returns the
    /// number of force-closed sessions, as [`Server::shutdown`].
    pub fn shutdown(mut self) -> usize {
        self.stop_sync();
        self.server.take().map(Server::shutdown).unwrap_or_default()
    }

    fn stop_sync(&mut self) {
        self.stop.store(true, Ordering::Release);
        if let Some(h) = self.sync.take() {
            let _ = h.join();
        }
    }
}

impl Drop for Follower {
    fn drop(&mut self) {
        self.stop_sync();
        // The server's own Drop drains it.
    }
}

/// Pause between reconnect attempts.
const RECONNECT_PAUSE: Duration = Duration::from_millis(100);
/// Socket read timeout while waiting for shipped frames — bounds how
/// long a stop request waits on a quiet leader.
const SYNC_READ_TIMEOUT: Duration = Duration::from_millis(500);

fn sync_loop(
    shared: Arc<SharedData>,
    state: Arc<FollowerState>,
    leader: SocketAddr,
    stop: Arc<AtomicBool>,
) {
    while !stop.load(Ordering::Acquire) {
        match sync_once(&shared, &state, leader, &stop) {
            SyncEnd::Stopped => return,
            SyncEnd::Reconnect => {
                // Leader restart, hangup, drain, or a torn frame:
                // resume from the current position after a pause.
                // Delivery is at-least-once; duplicates are ignored.
                for _ in 0..5 {
                    if stop.load(Ordering::Acquire) {
                        return;
                    }
                    thread::sleep(RECONNECT_PAUSE / 5);
                }
            }
            SyncEnd::Fatal(msg) => {
                *state.last_error.lock() = Some(msg);
                state.dead.store(true, Ordering::Release);
                return;
            }
        }
    }
}

/// One leader connection: greet, request the stream from the current
/// position, apply frames until something ends it.
fn sync_once(
    shared: &SharedData,
    state: &FollowerState,
    leader: SocketAddr,
    stop: &AtomicBool,
) -> SyncEnd {
    let mut stream = match TcpStream::connect_timeout(&leader, Duration::from_secs(1)) {
        Ok(s) => s,
        Err(_) => return SyncEnd::Reconnect,
    };
    let _ = stream.set_read_timeout(Some(SYNC_READ_TIMEOUT));
    match read_response(&mut stream) {
        Ok(Some((STATUS_OK, _greeting))) => {}
        _ => return SyncEnd::Reconnect, // refused (admission cap) or garbled
    }
    if write_request(&mut stream, &format!(".replicate {}", state.position())).is_err() {
        return SyncEnd::Reconnect;
    }
    loop {
        if stop.load(Ordering::Acquire) {
            return SyncEnd::Stopped;
        }
        let frame = match read_response_bytes(&mut stream) {
            Ok(Some(f)) => f,
            Ok(None) => return SyncEnd::Reconnect, // leader hung up
            Err(e)
                if e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::TimedOut =>
            {
                continue; // quiet leader; re-check stop
            }
            Err(_) => return SyncEnd::Reconnect,
        };
        match frame {
            (STATUS_REPL, bytes) if bytes.is_empty() => {} // heartbeat
            (STATUS_REPL, frame) => match apply_one(shared, state, &frame) {
                Ok(()) => {}
                // A torn or corrupted delivery, refused before any I/O:
                // drop the connection and re-request from the unchanged
                // position rather than guessing.
                Err(StoreError::Corrupt(_)) => return SyncEnd::Reconnect,
                Err(e) => return SyncEnd::Fatal(e.to_string()),
            },
            // `-` here is the leader refusing the stream (draining,
            // capture off, position out of retained history). All are
            // either transient or operator errors; retrying from the
            // same position is safe and keeps the replica available
            // for reads at its current position.
            _ => return SyncEnd::Reconnect,
        }
    }
}

/// Applies one shipped frame under the write gate and invalidates every
/// cache that was computed against the pre-apply image.
fn apply_one(shared: &SharedData, state: &FollowerState, frame: &[u8]) -> olap_store::Result<()> {
    let _gate = state.gate.write();
    let applied = shared.cube().with_pool(|p| -> olap_store::Result<_> {
        let mut s = p.store_mut();
        let fs = s
            .as_any_mut()
            .downcast_mut::<FileStore>()
            .expect("checked file-backed at Follower::start");
        let applied = fs.apply_replicated(frame)?;
        Ok((applied, fs.replication_position(), fs.flush_epoch()))
    });
    match applied? {
        (ReplApply::Applied, position, epoch) => {
            // The pool's frames and the scenario cache hold pre-apply
            // state. Sessions are excluded by the gate, so nothing is
            // pinned.
            shared.cube().with_pool(|p| p.clear())?;
            if let Some(cache) = shared.cache() {
                cache.clear();
            }
            state.position.store(position, Ordering::Release);
            state.epoch.store(epoch, Ordering::Release);
            Ok(())
        }
        // Already part of our image (at-least-once delivery after a
        // reconnect): nothing to invalidate.
        (ReplApply::Duplicate, ..) => Ok(()),
    }
}
