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

use crate::{is_refusal, lookup, SessionEffect, Verb};
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
        return Err(invalid(format!(
            "server did not present a {PROTO_MAGIC}/<version> greeting (old server?)"
        )));
    };
    let Some(rest) = rest.strip_prefix('/') else {
        return Err(invalid("malformed greeting: missing protocol version"));
    };
    let (ver, text) = rest.split_once(' ').unwrap_or((rest, ""));
    match ver.parse::<u8>() {
        Ok(v) if v == PROTO_VERSION => Ok(text),
        Ok(v) => Err(invalid(format!(
            "protocol version mismatch: server speaks {PROTO_MAGIC}/{v}, \
             this client speaks {PROTO_MAGIC}/{PROTO_VERSION}"
        ))),
        Err(_) => Err(invalid("malformed greeting: non-numeric protocol version")),
    }
}

/// An `InvalidData` error: the peer sent bytes this protocol refuses.
fn invalid(e: impl Into<Box<dyn std::error::Error + Send + Sync>>) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, e)
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
    // A clean EOF at a frame boundary ends the conversation; one inside
    // the length prefix is a cut frame, not a hang-up.
    let mut got = 0;
    while got < len.len() {
        match r.read(&mut len[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => {
                return Err(io::Error::new(
                    io::ErrorKind::UnexpectedEof,
                    "connection closed inside a frame's length prefix",
                ))
            }
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(len) as usize;
    if len > MAX_FRAME {
        return Err(invalid(format!(
            "frame of {len} bytes exceeds the {MAX_FRAME}-byte cap"
        )));
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
    read_payload(r)?
        .map(|buf| String::from_utf8(buf).map_err(invalid))
        .transpose()
}

/// Reads one response frame as `(status, bytes)` without requiring the
/// payload to be UTF-8; `None` on clean end-of-stream. Replication
/// consumers use this — a `STATUS_REPL` payload is binary.
pub fn read_response_bytes(r: &mut impl Read) -> io::Result<Option<(u8, Vec<u8>)>> {
    let Some(mut buf) = read_payload(r)? else {
        return Ok(None);
    };
    if buf.is_empty() {
        return Err(invalid("empty response"));
    }
    let status = buf.remove(0);
    Ok(Some((status, buf)))
}

/// Reads one response frame as `(status, text)`; `None` on clean
/// end-of-stream.
pub fn read_response(r: &mut impl Read) -> io::Result<Option<(u8, String)>> {
    read_response_bytes(r)?
        .map(|(status, bytes)| Ok((status, String::from_utf8(bytes).map_err(invalid)?)))
        .transpose()
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

/// The row and effect of a line that changes its server session once
/// accepted, and so must replay into a fresh one after a reconnect: an
/// argument to a verb whose row `sets_session`.
fn session_effect(line: &str) -> Option<(&'static Verb, SessionEffect)> {
    let (verb, arg) = lookup(line)?;
    Some((verb, verb.sets_session.filter(|_| !arg.is_empty())?))
}

/// Journals `line` if the server took it — a `+` reply that is not a
/// refusal ([`is_refusal`]) to a stateful line — then compacts.
fn journal_accepted(journal: &mut Vec<String>, line: &str, (status, reply): &(u8, String)) {
    if *status == STATUS_OK && !is_refusal(reply) && session_effect(line).is_some() {
        journal.push(line.to_string());
        compact_journal(journal);
    }
}

/// Compacts a reconnect journal in place, dropping lines whose effect a
/// later line provably supersedes. Without this the journal grows
/// without bound: a long tuning session accumulates thousands of
/// accepted knob and scenario lines that every reconnect replays.
///
/// The rule is conservative and reads only each row's
/// [`SessionEffect`]: a line is dropped when a later *kept* line of the
/// same verb follows it and no kept line between them
/// [observes](SessionEffect::observes) its effect. Growth (new forks,
/// changes) is never dropped: forks cannot be deleted. Dropped lines
/// are not barriers — they will not be replayed.
pub fn compact_journal(journal: &mut Vec<String>) {
    let mut keep = vec![true; journal.len()];
    // Verbs with a kept later line that no kept line since observes.
    let mut superseding: Vec<(&str, SessionEffect)> = Vec::new();
    for (i, line) in journal.iter().enumerate().rev() {
        let Some((verb, effect)) = session_effect(line) else {
            continue;
        };
        let last_wins = effect != SessionEffect::Grow;
        if last_wins && superseding.iter().any(|&(name, _)| name == verb.name) {
            keep[i] = false;
            continue;
        }
        superseding.retain(|&(_, later)| !effect.observes(later));
        if last_wins {
            superseding.push((verb.name, effect));
        }
    }
    let mut keep = keep.into_iter();
    journal.retain(|_| keep.next().unwrap_or(true));
}

/// A blocking client: one request, one response. With a
/// [`RetryPolicy`], a failed request transparently reconnects (bounded
/// attempts, exponential backoff + jitter) and replays the session
/// journal — every accepted state-setting line — before re-issuing the
/// failed request. Re-issuing is safe even for a non-idempotent verb
/// such as a fork: a reconnect always lands in a *fresh* server
/// session, and the journal holds only accepted requests, so the
/// replayed session has never seen the failed one. Scenario replies are
/// deterministic digests, so a replayed answer is byte-identical to the
/// lost one.
#[derive(Debug)]
pub struct Client {
    stream: TcpStream,
    /// Resolved server addresses, kept for reconnects.
    addrs: Vec<SocketAddr>,
    retry: RetryPolicy,
    /// Accepted state-setting requests, in issue order (compacted after
    /// every one — see [`compact_journal`]).
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

    /// Journals an accepted state-setting line, then passes the
    /// response through.
    fn journal_ack(&mut self, line: &str, resp: (u8, String)) -> (u8, String) {
        journal_accepted(&mut self.journal, line, &resp);
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
                Some((STATUS_OK, text)) if !is_refusal(&text) => {}
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
        use SessionEffect::*;
        let effect = |line| session_effect(line).map(|(_, e)| e);
        assert_eq!(effect(".budget 100"), Some(Knob));
        assert_eq!(effect(".DEADLINE 50"), Some(Knob));
        assert_eq!(effect(".fork a"), Some(Grow));
        assert_eq!(effect(".switch a"), Some(Pick));
        assert_eq!(effect(".change FTE Contractor 3"), Some(Grow));
        assert_eq!(effect(".apply static 2,3"), Some(Record));
        assert_eq!(effect(".apply"), None); // re-run only, no state change
        assert_eq!(effect(".budget"), None); // query, not a set
        assert_eq!(effect(".schema"), None);
        assert_eq!(effect("SELECT x ON COLUMNS FROM c"), None);
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

    /// The wire status the server gives a reply `Session::handle` made.
    fn wire(outcome: crate::Outcome) -> (u8, String) {
        match outcome {
            crate::Outcome::Continue(t) => (STATUS_OK, t),
            crate::Outcome::Deadline(t) => (STATUS_ERR, t),
            crate::Outcome::Quit(t) => (STATUS_QUIT, t),
        }
    }

    /// Drives `script` through a live session, journaling and compacting
    /// each reply the way `Client` does, then replays the journal into a
    /// fresh session (as a reconnect does; every line must be accepted
    /// again) and asks both sessions the same probes.
    fn assert_replay_matches_live(script: &[&str]) {
        use crate::{Dataset, Session};
        let mut live = Session::new(Dataset::Running);
        let mut journal = Vec::new();
        for line in script {
            journal_accepted(&mut journal, line, &wire(live.handle(line)));
        }
        let mut fresh = Session::new(Dataset::Running);
        for line in &journal {
            let (status, reply) = wire(fresh.handle(line));
            assert!(
                status == STATUS_OK && !is_refusal(&reply),
                "replaying {line:?} of {journal:?}: {reply}"
            );
        }
        for probe in [".scenarios", ".apply", ".budget", ".deadline"] {
            assert_eq!(
                wire(fresh.handle(probe)),
                wire(live.handle(probe)),
                "{probe} after {script:?}, replayed from {journal:?}"
            );
        }
    }

    #[test]
    fn a_replayed_journal_restores_exactly_the_accepted_lines() {
        // A refused switch must not supersede the good one before it.
        assert_replay_matches_live(&[
            ".apply forward 1,3",
            ".fork a",
            ".apply forward 2,4",
            ".switch main",
            ".switch ghost",
        ]);
        // A refused scenario must not supersede the recorded one.
        assert_replay_matches_live(&[".apply forward 1,3", ".apply forward one,two"]);
        // A seeded mix of accepted and refused state-setting lines.
        let lines = [
            ".apply forward 1,3",
            ".apply static 2,4",
            ".apply xbackward 0,5",
            ".apply forward one,two",
            ".apply sideways 1",
            ".apply",
            ".fork f0",
            ".fork f1",
            ".switch main",
            ".switch f0",
            ".switch f1",
            ".switch ghost",
            ".change Joe Contractor 2",
            ".change Lisa PTE Mar",
            ".change Ghost FTE 1",
            ".change Joe FTE Smarch",
            ".budget 0",
            ".budget 1",
            ".budget lots",
            ".deadline 0",
            ".deadline 600000",
            ".deadline soon",
        ];
        for seed in 1..=200u64 {
            let mut state = seed.wrapping_mul(0x9e3779b97f4a7c15) | 1;
            let script: Vec<&str> = (0..24)
                .map(|_| {
                    state ^= state << 13;
                    state ^= state >> 7;
                    state ^= state << 17;
                    lines[(state % lines.len() as u64) as usize]
                })
                .collect();
            assert_replay_matches_live(&script);
        }
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
