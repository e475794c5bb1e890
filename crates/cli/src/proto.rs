//! The wire protocol `polap --connect` and `olap-server` share
//! (DESIGN.md §13). It lives in the cli crate so the shell's client
//! mode and the server can use one implementation without a package
//! cycle (the server depends on the cli for [`crate::Session`]).
//!
//! Requests are UTF-8 text in a length-prefixed frame: a big-endian
//! `u32` byte count, then the payload. Responses are a frame whose
//! payload starts with one status byte ([`STATUS_OK`], [`STATUS_ERR`],
//! [`STATUS_QUIT`]); on connect the server pushes one greeting frame
//! before any request (`+` admitted, `-` refused by admission control).
//! The greeting banner is versioned — `polap/1 <text>` — so a
//! mismatched client/server pair fails with a readable error instead of
//! misparsing each other's frames.

use std::io::{self, Read, Write};
use std::net::{SocketAddr, TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Frames larger than this are refused — a corrupt length prefix must
/// not make either end allocate gigabytes.
pub const MAX_FRAME: usize = 16 * 1024 * 1024;

/// Payload bytes are read (and memory committed) in steps of this size,
/// so a garbage length prefix costs at most one step of allocation, not
/// [`MAX_FRAME`] per connection.
const READ_CHUNK: usize = 64 * 1024;

/// Greeting magic: the protocol family name in the banner's
/// `magic/version` prefix.
pub const PROTO_MAGIC: &str = "polap";
/// Protocol version this build speaks. Bump on any frame-layout change;
/// [`Client::connect`] refuses a server that speaks another version.
pub const PROTO_VERSION: u8 = 1;

/// Response status: request handled, text follows.
pub const STATUS_OK: u8 = b'+';
/// Response status: server-level error. The connection closes for
/// admission refusal, malformed frames and handler panics, but stays
/// open for a request-deadline abort (the session is still healthy).
pub const STATUS_ERR: u8 = b'-';
/// Response status: quit acknowledged; the connection is closing.
pub const STATUS_QUIT: u8 = b'Q';
/// Response status: a replication frame. The payload after the status
/// byte is *binary* — one shipped flush transaction in its WAL byte
/// encoding (`olap_store::replication`) — not UTF-8 text.
pub const STATUS_REPL: u8 = b'R';

/// The versioned greeting banner a server sends on admit:
/// `polap/1 <text>`.
pub fn greeting_banner(text: &str) -> String {
    format!("{PROTO_MAGIC}/{PROTO_VERSION} {text}")
}

/// Validates a greeting banner against this build's magic + version.
/// Returns the human text after the version prefix.
pub fn parse_greeting(banner: &str) -> io::Result<&str> {
    let Some(rest) = banner.strip_prefix(PROTO_MAGIC) else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("server did not present a {PROTO_MAGIC}/<version> greeting (old server?)"),
        ));
    };
    let Some(rest) = rest.strip_prefix('/') else {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed greeting: missing protocol version",
        ));
    };
    let (ver, text) = rest.split_once(' ').unwrap_or((rest, ""));
    match ver.parse::<u8>() {
        Ok(v) if v == PROTO_VERSION => Ok(text),
        Ok(v) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!(
                "protocol version mismatch: server speaks {PROTO_MAGIC}/{v}, \
                 this client speaks {PROTO_MAGIC}/{PROTO_VERSION}"
            ),
        )),
        Err(_) => Err(io::Error::new(
            io::ErrorKind::InvalidData,
            "malformed greeting: non-numeric protocol version",
        )),
    }
}

/// Writes one frame: length prefix, optional status byte, payload. A
/// frame the reader would refuse is refused here, before any byte is
/// written. The parts still go out as separate writes, as they always
/// have: coalescing them (and `TCP_NODELAY`) removes a 40 ms
/// Nagle × delayed-ACK stall per small frame and moves every benchmark
/// workload, so it is its own measured change (ROADMAP, fix 1).
fn write_parts(w: &mut impl Write, status: Option<u8>, payload: &[u8]) -> io::Result<()> {
    let len = usize::from(status.is_some()) + payload.len();
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    w.write_all(&(len as u32).to_be_bytes())?;
    if let Some(status) = status {
        w.write_all(&[status])?;
    }
    w.write_all(payload)?;
    w.flush()
}

/// Writes one response frame: `status` byte, then `text`.
pub fn write_frame(w: &mut impl Write, status: u8, text: &str) -> io::Result<()> {
    write_parts(w, Some(status), text.as_bytes())
}

/// Writes one response frame whose payload is raw bytes (replication
/// frames ship WAL-encoded transactions, not text).
pub fn write_frame_bytes(w: &mut impl Write, status: u8, bytes: &[u8]) -> io::Result<()> {
    write_parts(w, Some(status), bytes)
}

/// Writes one request frame (no status byte — requests are bare text).
pub fn write_request(w: &mut impl Write, line: &str) -> io::Result<()> {
    write_parts(w, None, line.as_bytes())
}

fn read_payload(r: &mut impl Read) -> io::Result<Option<Vec<u8>>> {
    let mut len = [0u8; 4];
    // A clean EOF at a frame boundary ends the conversation.
    match r.read_exact(&mut len) {
        Ok(()) => {}
        Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => return Ok(None),
        Err(e) => return Err(e),
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            format!("frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"),
        ));
    }
    // Grow in bounded steps as real payload bytes arrive: the length
    // prefix is untrusted, and committing `len` bytes up front would let
    // a garbage header on N connections pin N × MAX_FRAME of memory
    // without ever sending a payload.
    let mut buf = Vec::with_capacity(len.min(READ_CHUNK));
    while buf.len() < len {
        let step = (len - buf.len()).min(READ_CHUNK);
        let old = buf.len();
        buf.resize(old + step, 0);
        r.read_exact(&mut buf[old..])?;
    }
    Ok(Some(buf))
}

/// Reads one request frame; `None` on clean end-of-stream.
pub fn read_request(r: &mut impl Read) -> io::Result<Option<String>> {
    match read_payload(r)? {
        None => Ok(None),
        Some(buf) => String::from_utf8(buf)
            .map(Some)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e)),
    }
}

/// Reads one response frame as `(status, bytes)` without requiring the
/// payload to be UTF-8; `None` on clean end-of-stream. Replication
/// consumers use this — a `STATUS_REPL` payload is binary.
pub fn read_response_bytes(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    match read_payload(r)? {
        None => Ok(None),
        Some(buf) => {
            let (&status, rest) = buf
                .split_first()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
            Ok(Some((status, rest.to_vec())))
        }
    }
}

/// Reads one response frame as `(status, text)`; `None` on clean
/// end-of-stream.
pub fn read_response(r: &mut impl Read) -> io::Result<Option<(u8, String)>> {
    match read_payload(r)? {
        None => Ok(None),
        Some(buf) => {
            let (&status, text) = buf
                .split_first()
                .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "empty response"))?;
            let text = String::from_utf8(text.to_vec())
                .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
            Ok(Some((status, text)))
        }
    }
}

/// Bounded-retry policy for [`Client::request`]: on an I/O failure the
/// client backs off exponentially (with deterministic jitter from
/// `seed`), reconnects, replays its session journal into the fresh
/// server session, and re-issues the failed request.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Reconnect attempts per failed request; 0 disables retry (the
    /// default — a bare `Client::connect` behaves exactly as before).
    pub attempts: u32,
    /// First backoff delay; doubles per attempt up to `max`.
    pub base: Duration,
    /// Backoff ceiling.
    pub max: Duration,
    /// Jitter seed (xorshift), so concurrent clients don't reconnect in
    /// lockstep while tests stay reproducible.
    pub seed: u64,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            attempts: 0,
            base: Duration::from_millis(10),
            max: Duration::from_millis(500),
            seed: 1,
        }
    }
}

impl RetryPolicy {
    /// A sensible retrying policy: `attempts` reconnects, 10 ms base
    /// backoff doubling to a 500 ms cap, jitter seeded per client.
    pub fn retries(attempts: u32, seed: u64) -> RetryPolicy {
        RetryPolicy {
            attempts,
            seed: seed | 1,
            ..RetryPolicy::default()
        }
    }
}

/// Verbs whose *acknowledged* execution changes server-session state
/// and must therefore be replayed into a fresh session after a
/// reconnect: tuning (`.budget`, `.deadline`), the scenario forest
/// (`.fork`, `.switch`, `.change`), and an argful `.apply` (it records
/// the fork's negative scenario). Bare `.apply` and plain queries are
/// read-only.
fn is_stateful(line: &str) -> bool {
    let line = line.trim();
    let Some(rest) = line.strip_prefix('.') else {
        return false;
    };
    let mut parts = rest.splitn(2, ' ');
    let head = parts.next().unwrap_or("").to_ascii_lowercase();
    let arg = parts.next().unwrap_or("").trim();
    match head.as_str() {
        "budget" | "deadline" | "fork" | "switch" | "change" => !arg.is_empty(),
        "apply" => !arg.is_empty(),
        _ => false,
    }
}

/// Compacts a reconnect journal in place, dropping lines whose effect a
/// later line provably supersedes. Without this the journal grows
/// without bound — a long tuning session accumulates thousands of acked
/// `.budget`/`.apply` lines that every reconnect replays in full.
///
/// The rules are conservative: a line is dropped only when a later
/// *kept* line of the same verb supersedes it AND no kept line between
/// them could observe the earlier value:
///
/// * `.budget`/`.deadline` — last-write-wins, unless an argful `.apply`
///   sits between (it executed under the earlier setting, and must
///   replay under it);
/// * `.switch` — last-write-wins, unless a `.fork`/`.change`/`.apply`
///   sits between (those act on the then-current fork);
/// * argful `.apply` — the fork's negative scenario is overwritten by
///   the next argful `.apply`, unless a `.fork`/`.switch` sits between
///   (the fork in effect may differ, or a child fork inherited the
///   earlier scenario);
/// * `.fork`/`.change` — never dropped: forks cannot be deleted, so
///   their creation and change history stays live.
///
/// Dropped lines are not barriers — they will not be replayed, so they
/// cannot observe anything.
pub fn compact_journal(journal: &mut Vec<String>) {
    let verb_of = |line: &str| -> String {
        line.trim()
            .strip_prefix('.')
            .unwrap_or("")
            .split(' ')
            .next()
            .unwrap_or("")
            .to_ascii_lowercase()
    };
    let n = journal.len();
    let mut keep = vec![true; n];
    let (mut later_budget, mut later_deadline, mut later_switch, mut later_apply) =
        (false, false, false, false);
    for i in (0..n).rev() {
        match verb_of(&journal[i]).as_str() {
            "budget" => {
                if later_budget {
                    keep[i] = false;
                } else {
                    later_budget = true;
                }
            }
            "deadline" => {
                if later_deadline {
                    keep[i] = false;
                } else {
                    later_deadline = true;
                }
            }
            "switch" => {
                if later_switch {
                    keep[i] = false;
                } else {
                    later_switch = true;
                    later_apply = false;
                }
            }
            "apply" => {
                if later_apply {
                    keep[i] = false;
                } else {
                    later_apply = true;
                    later_budget = false;
                    later_deadline = false;
                    later_switch = false;
                }
            }
            "fork" => {
                later_switch = false;
                later_apply = false;
            }
            "change" => {
                later_switch = false;
            }
            _ => {}
        }
    }
    let mut i = 0;
    journal.retain(|_| {
        let k = keep[i];
        i += 1;
        k
    });
}

/// A blocking client: one request, one response. With a
/// [`RetryPolicy`], a failed request transparently reconnects (bounded
/// attempts, exponential backoff + jitter) and replays the session
/// journal — every acknowledged state-setting verb — before re-issuing
/// the failed request. Re-issuing is safe even for non-idempotent verbs
/// like `.fork`: a reconnect always lands in a *fresh* server session,
/// and the journal holds only acknowledged requests, so the replayed
/// session has never seen the failed one. `.apply` replies are
/// deterministic digests, so a replayed answer is byte-identical to the
/// lost one.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Resolved server addresses, kept for reconnects.
    addrs: Vec<SocketAddr>,
    retry: RetryPolicy,
    /// Acknowledged state-setting requests, in issue order (compacted
    /// after every ack — see [`compact_journal`]).
    journal: Vec<String>,
    /// xorshift state for backoff jitter.
    jitter: u64,
    /// Greeting text from the server (after the version prefix), e.g.
    /// the replica's replication position.
    greeting: String,
}

impl Client {
    /// Connects and reads the greeting frame. Admission refusal comes
    /// back as a `ConnectionRefused` error carrying the server's text;
    /// a greeting with the wrong magic or protocol version is an
    /// `InvalidData` error naming both versions.
    pub fn connect(addr: impl ToSocketAddrs) -> io::Result<Client> {
        let addrs: Vec<SocketAddr> = addr.to_socket_addrs()?.collect();
        let (stream, greeting) = Self::open(&addrs)?;
        Ok(Client {
            stream,
            addrs,
            retry: RetryPolicy::default(),
            journal: Vec::new(),
            jitter: 0x9e3779b97f4a7c15,
            greeting,
        })
    }

    /// Like [`Client::connect`] with a retry policy from the start.
    pub fn connect_with(addr: impl ToSocketAddrs, retry: RetryPolicy) -> io::Result<Client> {
        let mut c = Client::connect(addr)?;
        c.jitter = retry.seed | 1;
        c.retry = retry;
        Ok(c)
    }

    /// One TCP connect + greeting handshake. Returns the stream and the
    /// greeting text after the version prefix.
    fn open(addrs: &[SocketAddr]) -> io::Result<(TcpStream, String)> {
        let mut stream = TcpStream::connect(addrs)?;
        match read_response(&mut stream)? {
            Some((STATUS_OK, banner)) => {
                let text = parse_greeting(&banner)?.to_string();
                Ok((stream, text))
            }
            Some((_, text)) => Err(io::Error::new(io::ErrorKind::ConnectionRefused, text)),
            None => Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server closed the connection before greeting",
            )),
        }
    }

    /// The server's greeting text (after the `polap/<n>` prefix) from
    /// the most recent successful connect. A replica's greeting carries
    /// its replication position, letting clients bound staleness.
    pub fn greeting(&self) -> &str {
        &self.greeting
    }

    /// Sends one line and waits for its `(status, text)` response.
    /// Server-closed-without-reply surfaces as `UnexpectedEof` — unless
    /// the retry policy allows reconnecting, in which case the journal
    /// is replayed and the request re-issued before giving up.
    pub fn request(&mut self, line: &str) -> io::Result<(u8, String)> {
        let first = self.send_once(line);
        let mut last_err = match first {
            Ok(resp) => return Ok(self.journal_ack(line, resp)),
            Err(e) => e,
        };
        for attempt in 0..self.retry.attempts {
            std::thread::sleep(self.backoff(attempt));
            match self.reconnect_and_replay() {
                Ok(()) => {}
                Err(e) => {
                    last_err = e;
                    continue;
                }
            }
            match self.send_once(line) {
                Ok(resp) => return Ok(self.journal_ack(line, resp)),
                Err(e) => last_err = e,
            }
        }
        Err(last_err)
    }

    /// The session journal replayed on reconnect (for tests).
    pub fn journal(&self) -> &[String] {
        &self.journal
    }

    fn send_once(&mut self, line: &str) -> io::Result<(u8, String)> {
        write_request(&mut self.stream, line)?;
        read_response(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(io::ErrorKind::UnexpectedEof, "server closed the connection")
        })
    }

    /// Records an acknowledged state-setting verb, then passes the
    /// response through.
    fn journal_ack(&mut self, line: &str, resp: (u8, String)) -> (u8, String) {
        if resp.0 == STATUS_OK && is_stateful(line) {
            self.journal.push(line.to_string());
            compact_journal(&mut self.journal);
        }
        resp
    }

    /// Opens a fresh connection and replays the journal into the new
    /// (blank) server session. Any replay failure fails the whole
    /// attempt — a half-restored session must not serve requests.
    fn reconnect_and_replay(&mut self) -> io::Result<()> {
        let (mut stream, greeting) = Self::open(&self.addrs)?;
        for line in &self.journal {
            write_request(&mut stream, line)?;
            match read_response(&mut stream)? {
                Some((STATUS_OK, _)) => {}
                Some((_, text)) => {
                    return Err(io::Error::new(
                        io::ErrorKind::InvalidData,
                        format!("journal replay of {line:?} failed: {text}"),
                    ));
                }
                None => {
                    return Err(io::Error::new(
                        io::ErrorKind::UnexpectedEof,
                        "server closed the connection during journal replay",
                    ));
                }
            }
        }
        self.stream = stream;
        self.greeting = greeting;
        Ok(())
    }

    /// Exponential backoff with ±50% deterministic jitter.
    fn backoff(&mut self, attempt: u32) -> Duration {
        let exp = self
            .retry
            .base
            .saturating_mul(1u32 << attempt.min(16))
            .min(self.retry.max);
        jittered(exp, &mut self.jitter)
    }
}

/// Scales `exp` into [50%, 150%] with an xorshift64 step of `state` —
/// deterministic per seed, decorrelated across clients.
fn jittered(exp: Duration, state: &mut u64) -> Duration {
    *state ^= *state << 13;
    *state ^= *state >> 7;
    *state ^= *state << 17;
    let pct = 50 + (*state % 101);
    exp.mul_f64(pct as f64 / 100.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn frames_round_trip() {
        let mut buf = Vec::new();
        write_request(&mut buf, ".schema").unwrap();
        write_frame(&mut buf, STATUS_OK, "fine").unwrap();
        let mut r = &buf[..];
        assert_eq!(read_request(&mut r).unwrap().as_deref(), Some(".schema"));
        assert_eq!(
            read_response(&mut r).unwrap(),
            Some((STATUS_OK, "fine".to_string()))
        );
        assert_eq!(read_response(&mut r).unwrap(), None);
    }

    #[test]
    fn oversized_frames_are_refused_before_any_byte_is_written() {
        // A text reply the reader would refuse (status byte + payload
        // over the cap) must not reach the wire at all.
        let text = "x".repeat(MAX_FRAME);
        let mut w = Vec::new();
        let err = write_frame(&mut w, STATUS_OK, &text).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidInput);
        assert!(write_frame_bytes(&mut w, STATUS_REPL, text.as_bytes()).is_err());
        assert!(write_request(&mut w, &format!("{text}x")).is_err());
        assert!(w.is_empty());
        // Exactly at the cap still goes through.
        write_request(&mut w, &text).unwrap();
        assert_eq!(w.len(), 4 + MAX_FRAME);
    }

    #[test]
    fn oversized_frames_are_refused() {
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32 + 1).to_be_bytes());
        let mut r = &buf[..];
        assert!(read_request(&mut r).is_err());
    }

    #[test]
    fn large_frames_round_trip_through_chunked_reads() {
        let line = "x".repeat(READ_CHUNK * 3 + 7);
        let mut buf = Vec::new();
        write_request(&mut buf, &line).unwrap();
        let mut r = &buf[..];
        assert_eq!(read_request(&mut r).unwrap().as_deref(), Some(&line[..]));
    }

    #[test]
    fn garbage_header_does_not_commit_the_whole_frame() {
        // A maximal length prefix with no payload: the incremental
        // reader must fail with EOF after at most one chunk step, not
        // allocate MAX_FRAME first. (The capacity bound is the
        // observable part; the error proves we tried to read, not to
        // pre-commit.)
        let mut buf = Vec::new();
        buf.extend_from_slice(&(MAX_FRAME as u32).to_be_bytes());
        let mut r = &buf[..];
        let err = read_request(&mut r).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn greeting_version_is_enforced() {
        assert_eq!(
            parse_greeting(&greeting_banner("olap-server ready")).unwrap(),
            "olap-server ready"
        );
        let wrong = format!("{PROTO_MAGIC}/{} hi", PROTO_VERSION + 1);
        let err = parse_greeting(&wrong).unwrap_err();
        assert!(err.to_string().contains("version mismatch"), "{err}");
        let old = parse_greeting("olap-server ready").unwrap_err();
        assert!(old.to_string().contains("greeting"), "{old}");
    }

    #[test]
    fn stateful_verbs_feed_the_journal() {
        assert!(is_stateful(".budget 100"));
        assert!(is_stateful(".deadline 50"));
        assert!(is_stateful(".fork a"));
        assert!(is_stateful(".switch a"));
        assert!(is_stateful(".change FTE Contractor 3"));
        assert!(is_stateful(".apply static 2,3"));
        assert!(!is_stateful(".apply")); // re-run only, no state change
        assert!(!is_stateful(".budget")); // query, not a set
        assert!(!is_stateful(".schema"));
        assert!(!is_stateful("SELECT x ON COLUMNS FROM c"));
    }

    fn compacted(lines: &[&str]) -> Vec<String> {
        let mut j: Vec<String> = lines.iter().map(|s| s.to_string()).collect();
        compact_journal(&mut j);
        j
    }

    #[test]
    fn journal_compaction_is_last_write_wins_for_tuning() {
        // A tuning sweep: hundreds of budget/deadline lines with no
        // applies between them collapse to the final pair.
        let mut j: Vec<String> = (0..200)
            .flat_map(|i| [format!(".budget {i}"), format!(".deadline {i}")])
            .collect();
        compact_journal(&mut j);
        assert_eq!(
            j,
            vec![".budget 199".to_string(), ".deadline 199".to_string()]
        );
    }

    #[test]
    fn journal_compaction_keeps_settings_an_apply_ran_under() {
        // The apply executed under budget 1000 and must replay under it;
        // the later budget 10 still wins for the final state.
        assert_eq!(
            compacted(&[".budget 1000", ".apply static 2", ".budget 10"]),
            vec![".budget 1000", ".apply static 2", ".budget 10"]
        );
        // With no apply between, the earlier budget is dead.
        assert_eq!(
            compacted(&[".budget 1000", ".budget 10", ".apply static 2"]),
            vec![".budget 10", ".apply static 2"]
        );
    }

    #[test]
    fn journal_compaction_collapses_switch_runs_but_not_across_fork_work() {
        assert_eq!(
            compacted(&[".switch a", ".switch b", ".switch c"]),
            vec![".switch c"]
        );
        // The change acted on fork a; both switches must survive.
        assert_eq!(
            compacted(&[".switch a", ".change FTE Contractor 3", ".switch b"]),
            vec![".switch a", ".change FTE Contractor 3", ".switch b"]
        );
    }

    #[test]
    fn journal_compaction_supersedes_applies_on_the_same_fork() {
        assert_eq!(
            compacted(&[".apply static 2", ".apply forward 3", ".apply static 4"]),
            vec![".apply static 4"]
        );
        // A fork between applies inherits the earlier scenario: keep it.
        assert_eq!(
            compacted(&[".apply static 2", ".fork child", ".apply static 4"]),
            vec![".apply static 2", ".fork child", ".apply static 4"]
        );
        // A switch between applies means different forks: keep both.
        assert_eq!(
            compacted(&[".apply static 2", ".switch b", ".apply static 4"]),
            vec![".apply static 2", ".switch b", ".apply static 4"]
        );
    }

    #[test]
    fn journal_compaction_never_drops_fork_or_change_history() {
        let lines = [".fork a", ".change FTE X 1", ".change FTE X 1", ".fork b"];
        assert_eq!(compacted(&lines), lines.to_vec());
    }

    #[test]
    fn journal_compaction_is_idempotent_and_bounded_under_churn() {
        // A long alternating workload stays bounded: every round of
        // budget + apply churn on one fork compacts to a constant-size
        // tail.
        let mut j = Vec::new();
        for i in 0..500 {
            j.push(format!(".budget {i}"));
            j.push(format!(".apply static {}", i % 7));
            compact_journal(&mut j);
        }
        assert!(j.len() <= 3, "journal grew: {} lines", j.len());
        let once = j.clone();
        compact_journal(&mut j);
        assert_eq!(j, once);
    }

    #[test]
    fn raw_frames_round_trip() {
        let mut buf = Vec::new();
        let payload = vec![0u8, 159, 146, 150, 255]; // not UTF-8
        write_frame_bytes(&mut buf, STATUS_REPL, &payload).unwrap();
        let mut r = &buf[..];
        assert_eq!(
            read_response_bytes(&mut r).unwrap(),
            Some((STATUS_REPL, payload))
        );
        assert_eq!(read_response_bytes(&mut r).unwrap(), None);
    }

    #[test]
    fn backoff_jitter_is_bounded_and_deterministic() {
        let exp = Duration::from_millis(100);
        let mut a = 42u64;
        let mut b = 42u64;
        for _ in 0..32 {
            let d = jittered(exp, &mut a);
            assert!(d >= Duration::from_millis(50) && d <= Duration::from_millis(150));
            assert_eq!(d, jittered(exp, &mut b)); // same seed, same schedule
        }
    }
}
