//! A socket-level fault proxy for hardening tests (DESIGN.md §16).
//!
//! [`ChaosProxy`] sits between `proto` clients and an `olap-server`,
//! forwarding bytes in both directions while a seed-reproducible plan
//! of [`NetFaultSpec`]s injects the network's failure modes: delay,
//! mid-frame disconnect, partial-frame-then-stall, and connection
//! refusal. It is the wire-level sibling of the store's
//! [`FaultStore`] — same scripted-plan discipline, one layer up.
//!
//! Determinism caveat (same as [`FaultStore::with_random_plan`]): the
//! *plan* is a pure function of the seed, but which logical client
//! lands on which connection index depends on accept order under
//! concurrency. That scheduling randomness is the point — the chaos
//! gate asserts invariants that must hold under *every* schedule
//! (clean error or bit-identical answer, no leaked slots), not a
//! specific interleaving.
//!
//! [`FaultStore`]: crate::fault::FaultStore
//! [`FaultStore::with_random_plan`]: crate::fault::FaultStore::with_random_plan

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread::{self, JoinHandle};
use std::time::Duration;

/// Which pump of a proxied connection a fault arms.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Dir {
    /// Requests: bytes flowing from the client toward the server.
    ClientToServer,
    /// Responses: bytes flowing from the server back to the client.
    ServerToClient,
}

/// What happens when an armed fault fires.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NetFaultKind {
    /// Accept the TCP connection, then close it before relaying a byte
    /// — the client never even sees a greeting.
    Refuse,
    /// Hold the burst for the duration, then forward it intact (a slow
    /// network, not a broken one — answers must still be correct).
    Delay(Duration),
    /// Forward roughly half of the burst, then cut both directions —
    /// the receiver sees a length prefix whose payload never finishes.
    CutMidFrame,
    /// Forward part of the burst, go silent for the duration, then cut
    /// — a slowloris from the receiver's point of view.
    StallThenCut(Duration),
}

/// One scripted fault: on connection `conn` (0-based accept order), in
/// direction `dir`, when that pump forwards the burst in which its
/// `at`-th length-prefixed frame (1-based) begins, inject `kind`.
/// Counting frames, not TCP bursts, keeps a plan's meaning independent
/// of how the kernel slices the stream: frame 1 server→client is the
/// greeting whether it arrives in one read or three. Mirrors
/// [`FaultSpec`]'s `(op, at, kind)` shape.
///
/// [`FaultSpec`]: crate::fault::FaultSpec
#[derive(Debug, Clone, Copy)]
pub struct NetFaultSpec {
    /// 0-based index of the proxied connection, in accept order.
    pub conn: u64,
    /// Which direction's pump arms the fault.
    pub dir: Dir,
    /// 1-based frame count at which the fault fires (`Refuse` ignores
    /// it — the connection dies before any frame).
    pub at: u64,
    /// The injected failure.
    pub kind: NetFaultKind,
}

/// A seed-reproducible plan over `conns` connections, mirroring
/// [`FaultStore::with_random_plan`]: roughly half the connections get one
/// fault, a few get two, and one in eight is refused outright. Kinds
/// and fire points are drawn uniformly from the early exchanges, where
/// a session's state-setting verbs live — the hardest point to recover.
///
/// [`FaultStore::with_random_plan`]: crate::fault::FaultStore::with_random_plan
pub fn random_plan(seed: u64, conns: u64) -> Vec<NetFaultSpec> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut plan = Vec::new();
    for conn in 0..conns {
        if rng.random_bool(0.125) {
            plan.push(NetFaultSpec {
                conn,
                dir: Dir::ClientToServer,
                at: 1,
                kind: NetFaultKind::Refuse,
            });
            continue;
        }
        if !rng.random_bool(0.66) {
            continue; // this connection runs clean
        }
        let n = if rng.random_bool(0.25) { 2 } else { 1 };
        for _ in 0..n {
            let dir = if rng.random_bool(0.5) {
                Dir::ClientToServer
            } else {
                Dir::ServerToClient
            };
            let kind = match rng.random_range(0u32..4) {
                0 => NetFaultKind::Delay(Duration::from_millis(rng.random_range(1u64..=20))),
                1 => NetFaultKind::CutMidFrame,
                2 => NetFaultKind::StallThenCut(Duration::from_millis(rng.random_range(5u64..=50))),
                _ => NetFaultKind::Delay(Duration::from_millis(rng.random_range(1u64..=5))),
            };
            plan.push(NetFaultSpec {
                conn,
                dir,
                at: rng.random_range(1u64..=6),
                kind,
            });
        }
    }
    plan
}

/// Shared proxy state: the scripted plan plus the sockets of live
/// proxied connections, so shutdown can cut everything at once.
struct Inner {
    upstream: SocketAddr,
    plan: Vec<NetFaultSpec>,
    next_conn: AtomicU64,
    stop: AtomicBool,
    live: Mutex<Vec<TcpStream>>,
    pumps: Mutex<Vec<JoinHandle<()>>>,
}

/// An in-process TCP proxy with scripted fault injection. Bind it in
/// front of a server, point clients at [`ChaosProxy::addr`], and every
/// byte flows through a pump thread pair that consults the plan.
pub struct ChaosProxy {
    addr: SocketAddr,
    inner: Arc<Inner>,
    accept: Option<JoinHandle<()>>,
}

impl ChaosProxy {
    /// Starts a proxy in front of `upstream` on an ephemeral local
    /// port, injecting `plan`.
    pub fn start(upstream: SocketAddr, plan: Vec<NetFaultSpec>) -> io::Result<ChaosProxy> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let addr = listener.local_addr()?;
        let inner = Arc::new(Inner {
            upstream,
            plan,
            next_conn: AtomicU64::new(0),
            stop: AtomicBool::new(false),
            live: Mutex::new(Vec::new()),
            pumps: Mutex::new(Vec::new()),
        });
        let accept = {
            let inner = inner.clone();
            thread::spawn(move || accept_loop(listener, inner))
        };
        Ok(ChaosProxy {
            addr,
            inner,
            accept: Some(accept),
        })
    }

    /// Where clients should connect.
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// Connections accepted so far (refused ones included).
    pub fn connections(&self) -> u64 {
        self.inner.next_conn.load(Ordering::Relaxed)
    }

    /// Stops accepting, cuts every live proxied connection, and joins
    /// all pump threads.
    pub fn shutdown(mut self) {
        self.stop();
    }

    fn stop(&mut self) {
        self.inner.stop.store(true, Ordering::Relaxed);
        let _ = TcpStream::connect(self.addr); // unblock accept
        if let Some(h) = self.accept.take() {
            let _ = h.join();
        }
        for s in self.inner.live.lock().expect("proxy lock").drain(..) {
            let _ = s.shutdown(Shutdown::Both);
        }
        let pumps: Vec<_> = self
            .inner
            .pumps
            .lock()
            .expect("proxy lock")
            .drain(..)
            .collect();
        for h in pumps {
            let _ = h.join();
        }
    }
}

impl Drop for ChaosProxy {
    fn drop(&mut self) {
        if self.accept.is_some() {
            self.stop();
        }
    }
}

fn accept_loop(listener: TcpListener, inner: Arc<Inner>) {
    for stream in listener.incoming() {
        if inner.stop.load(Ordering::Relaxed) {
            break;
        }
        let Ok(client) = stream else { continue };
        let conn = inner.next_conn.fetch_add(1, Ordering::Relaxed);
        if inner
            .plan
            .iter()
            .any(|f| f.conn == conn && f.kind == NetFaultKind::Refuse)
        {
            drop(client); // refused before a single relayed byte
            continue;
        }
        let Ok(server) = TcpStream::connect(inner.upstream) else {
            continue; // upstream gone; client sees EOF
        };
        {
            let mut live = inner.live.lock().expect("proxy lock");
            if let Ok(c) = client.try_clone() {
                live.push(c);
            }
            if let Ok(s) = server.try_clone() {
                live.push(s);
            }
        }
        // One pump per direction; each owns its scripted fault list.
        let faults = |dir: Dir| -> Vec<(u64, NetFaultKind)> {
            let mut v: Vec<(u64, NetFaultKind)> = inner
                .plan
                .iter()
                .filter(|f| f.conn == conn && f.dir == dir)
                .map(|f| (f.at, f.kind))
                .collect();
            v.sort_by_key(|&(at, _)| at);
            v
        };
        let spawn_pump =
            |mut from: TcpStream, mut to: TcpStream, faults: Vec<(u64, NetFaultKind)>| {
                thread::spawn(move || pump(&mut from, &mut to, faults))
            };
        let mut pumps = inner.pumps.lock().expect("proxy lock");
        if let (Ok(c2), Ok(s2)) = (client.try_clone(), server.try_clone()) {
            pumps.push(spawn_pump(client, s2, faults(Dir::ClientToServer)));
            pumps.push(spawn_pump(server, c2, faults(Dir::ServerToClient)));
        }
    }
}

/// Follows the wire's `u32`-BE length prefixes across bursts, so the
/// pump knows which frames a burst begins.
#[derive(Default)]
struct FrameCounter {
    /// Frames begun so far.
    begun: u64,
    /// Length-prefix bytes of the current frame collected so far.
    prefix: [u8; 4],
    prefix_len: usize,
    /// Payload bytes of the current frame still to come.
    payload_left: usize,
}

impl FrameCounter {
    /// Consumes one burst; returns the (1-based) numbers of the frames
    /// whose first byte it carried — empty for a pure continuation.
    fn feed(&mut self, mut burst: &[u8]) -> std::ops::RangeInclusive<u64> {
        let first = self.begun + 1;
        while !burst.is_empty() {
            if self.payload_left > 0 {
                let n = burst.len().min(self.payload_left);
                self.payload_left -= n;
                burst = &burst[n..];
                continue;
            }
            if self.prefix_len == 0 {
                self.begun += 1;
            }
            let n = burst.len().min(4 - self.prefix_len);
            self.prefix[self.prefix_len..self.prefix_len + n].copy_from_slice(&burst[..n]);
            self.prefix_len += n;
            burst = &burst[n..];
            if self.prefix_len == 4 {
                self.payload_left = u32::from_be_bytes(self.prefix) as usize;
                self.prefix_len = 0;
            }
        }
        first..=self.begun
    }
}

/// Copies bursts from `from` to `to`, consulting the scripted faults.
/// Any read/write failure (including a fired cut) tears down both
/// directions: half-open proxied connections would mask bugs the real
/// network produces with RST storms.
fn pump(from: &mut TcpStream, to: &mut TcpStream, faults: Vec<(u64, NetFaultKind)>) {
    let mut buf = [0u8; 8 * 1024];
    let mut frames = FrameCounter::default();
    let cut = |a: &TcpStream, b: &TcpStream| {
        let _ = a.shutdown(Shutdown::Both);
        let _ = b.shutdown(Shutdown::Both);
    };
    loop {
        let n = match from.read(&mut buf) {
            Ok(0) | Err(_) => {
                cut(from, to);
                return;
            }
            Ok(n) => n,
        };
        let begun = frames.feed(&buf[..n]);
        match faults
            .iter()
            .find(|&&(at, _)| begun.contains(&at))
            .map(|&(_, k)| k)
        {
            None | Some(NetFaultKind::Refuse) => {
                if to.write_all(&buf[..n]).is_err() {
                    cut(from, to);
                    return;
                }
            }
            Some(NetFaultKind::Delay(d)) => {
                thread::sleep(d);
                if to.write_all(&buf[..n]).is_err() {
                    cut(from, to);
                    return;
                }
            }
            Some(NetFaultKind::CutMidFrame) => {
                // Half the burst, then the wire goes dead: the receiver
                // holds a length prefix whose payload never arrives.
                let _ = to.write_all(&buf[..n / 2]);
                cut(from, to);
                return;
            }
            Some(NetFaultKind::StallThenCut(d)) => {
                let _ = to.write_all(&buf[..n / 2]);
                thread::sleep(d);
                cut(from, to);
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_seed_reproducible() {
        let a = random_plan(7, 32);
        let b = random_plan(7, 32);
        assert_eq!(a.len(), b.len());
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.conn, y.conn);
            assert_eq!(x.dir, y.dir);
            assert_eq!(x.at, y.at);
            assert_eq!(x.kind, y.kind);
        }
        let c = random_plan(8, 32);
        let same = a.len() == c.len()
            && a.iter()
                .zip(&c)
                .all(|(x, y)| x.conn == y.conn && x.at == y.at && x.kind == y.kind);
        assert!(!same, "different seeds should draw different plans");
    }

    #[test]
    fn clean_connections_relay_untouched() {
        // A trivial echo upstream.
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let echo = thread::spawn(move || {
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 64];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 || s.write_all(&buf[..n]).is_err() {
                        break;
                    }
                }
            }
        });
        let proxy = ChaosProxy::start(upstream, Vec::new()).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        c.write_all(b"ping").unwrap();
        let mut got = [0u8; 4];
        c.read_exact(&mut got).unwrap();
        assert_eq!(&got, b"ping");
        drop(c);
        proxy.shutdown();
        let _ = echo.join();
    }

    #[test]
    fn refused_connections_die_before_a_byte() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let plan = vec![NetFaultSpec {
            conn: 0,
            dir: Dir::ClientToServer,
            at: 1,
            kind: NetFaultKind::Refuse,
        }];
        let proxy = ChaosProxy::start(upstream, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let mut buf = [0u8; 1];
        // The proxy accepted then closed: read sees EOF, never data.
        assert_eq!(c.read(&mut buf).unwrap_or(0), 0);
        proxy.shutdown();
    }

    /// Frames, not TCP bursts, are what `at` counts. A greeting that
    /// reaches the pump as three bursts (length prefix, status byte,
    /// text — the wire's separate writes) is still frame 1, so a cut
    /// scripted for frame 2 leaves it whole. The client acks each part
    /// before the upstream writes the next, which forces one burst per
    /// part.
    #[test]
    fn greeting_delivered_in_three_writes_is_one_frame() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let (acked_tx, acked_rx) = std::sync::mpsc::channel::<()>();
        let server = thread::spawn(move || {
            let (mut s, _) = listener.accept().unwrap();
            for part in [&7u32.to_be_bytes()[..], b"+", b"hello!"] {
                s.write_all(part).unwrap();
                acked_rx.recv().unwrap();
            }
            let _ = s.write_all(&[&4u32.to_be_bytes()[..], b"+two"].concat());
            // Hold the socket open until the client has seen the cut.
            let _ = acked_rx.recv();
        });
        let plan = vec![NetFaultSpec {
            conn: 0,
            dir: Dir::ServerToClient,
            at: 2,
            kind: NetFaultKind::CutMidFrame,
        }];
        let proxy = ChaosProxy::start(upstream, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let mut frame1 = Vec::new();
        for len in [4usize, 1, 6] {
            let mut part = vec![0u8; len];
            c.read_exact(&mut part)
                .expect("frame 1 must arrive whole, however it is sliced");
            frame1.extend(part);
            acked_tx.send(()).unwrap();
        }
        assert_eq!(frame1, [&7u32.to_be_bytes()[..], b"+hello!"].concat());
        let mut frame2 = Vec::new();
        let _ = c.read_to_end(&mut frame2);
        assert!(frame2.len() < 8, "frame 2 survived its cut: {frame2:?}");
        drop(acked_tx);
        server.join().unwrap();
        proxy.shutdown();
    }

    #[test]
    fn cut_mid_frame_truncates_the_burst() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let upstream = listener.local_addr().unwrap();
        let sink = thread::spawn(move || {
            let mut total = Vec::new();
            if let Ok((mut s, _)) = listener.accept() {
                let mut buf = [0u8; 64];
                while let Ok(n) = s.read(&mut buf) {
                    if n == 0 {
                        break;
                    }
                    total.extend_from_slice(&buf[..n]);
                }
            }
            total
        });
        let plan = vec![NetFaultSpec {
            conn: 0,
            dir: Dir::ClientToServer,
            at: 1,
            kind: NetFaultKind::CutMidFrame,
        }];
        let proxy = ChaosProxy::start(upstream, plan).unwrap();
        let mut c = TcpStream::connect(proxy.addr()).unwrap();
        let _ = c.write_all(&[0xAB; 32]);
        // The cut closes our socket too; either the write or the next
        // read fails. The upstream must have seen a strict prefix.
        let got = sink.join().unwrap();
        assert!(got.len() < 32, "upstream saw {} of 32 bytes", got.len());
        proxy.shutdown();
    }
}
