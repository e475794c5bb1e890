//! Network-fault hardening tests (DESIGN.md §16): request deadlines
//! that abort at pass boundaries with the session intact, out-of-range
//! scopes that fail as errors rather than panics, clients that
//! retry through scripted socket faults with journal replay, and the
//! versioned greeting that turns protocol skew into a readable error.

use olap_cube::{Bounds, CubeError};
use olap_server::{Server, ServerConfig, STATUS_ERR, STATUS_OK, STATUS_QUIT};
use olap_workload::{Workforce, WorkforceConfig};
use polap_cli::proto::{self, Client, RetryPolicy};
use polap_cli::{Dataset, SharedData};
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};
use whatif_core::{apply, ExecOpts, Mode, Scenario, Semantics, WhatIfError};
use whatif_integration_tests::chaos::{ChaosProxy, Dir, NetFaultKind, NetFaultSpec};
use whatif_integration_tests::serial_replies;

fn start(dataset: Dataset, cfg: ServerConfig) -> Server {
    let shared = Arc::new(SharedData::load(dataset));
    Server::start(shared, "127.0.0.1:0", cfg).expect("bind")
}

fn wait_for_sessions(server: &Server, n: usize) {
    for _ in 0..1000 {
        if server.active_sessions() == n {
            return;
        }
        thread::sleep(Duration::from_millis(5));
    }
    panic!(
        "live-session count stuck at {} (wanted {n})",
        server.active_sessions()
    );
}

/// An already-expired deadline aborts before any chunk is read, and a
/// fresh run of the same scenario afterwards is untouched by the abort
/// — the cooperative check leaves no partial state behind.
#[test]
fn executor_deadline_aborts_cleanly() {
    let ex = olap_workload::running_example();
    let scenario = Scenario::negative(ex.org, [1, 3], Semantics::Forward, Mode::Visual);
    let expired = ExecOpts {
        bounds: Bounds {
            deadline: Some(Instant::now() - Duration::from_millis(1)),
            ..Bounds::default()
        },
        ..ExecOpts::default()
    };
    match apply(&ex.cube, &scenario, None, &expired) {
        Err(WhatIfError::Cube(CubeError::DeadlineExceeded)) => {}
        Err(e) => panic!("wrong error: {e}"),
        Ok(_) => panic!("expired deadline must abort"),
    }
    // Same cube, no deadline: bit-identical to a never-aborted run.
    let (a, _) = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
    let (b, _) = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
    assert!(a.same_cells(&b).unwrap());
}

/// A scope slot past the end of the varying axis is an error naming the
/// slot and the axis length, not an index panic inside the executor.
#[test]
fn out_of_range_scope_slot_is_an_error() {
    let ex = olap_workload::running_example();
    let scenario = Scenario::negative(ex.org, [1, 3], Semantics::Forward, Mode::Visual);
    let scope = Some(&[9999][..]);
    match apply(&ex.cube, &scenario, scope, &ExecOpts::default()) {
        Err(e) => {
            let axis_len = ex.schema.axis_len(ex.org);
            assert!(
                matches!(e, WhatIfError::BadScopeSlot { slot: 9999, axis_len: n } if n == axis_len)
            );
            assert!(
                e.to_string().contains(&format!(
                    "9999 out of range (varying axis has {axis_len} slots)"
                )),
                "{e}"
            );
        }
        Ok(_) => panic!("slot 9999 is past the axis"),
    }
}

/// `.deadline 1` on the bench dataset trips every bounded layer — the
/// executor (`.apply`), the aggregator (`.rollup`) and grid evaluation
/// (a Fig. 10 query): the server answers each with a `-` frame and keeps
/// the connection open, and once the deadline is lifted the very same
/// request answers what a fresh session does — the session (forest,
/// budget, cache) survived the abort.
#[test]
fn server_deadline_aborts_and_session_survives() {
    let server = start(
        Dataset::Bench,
        ServerConfig {
            drain_grace_ms: 200,
            ..ServerConfig::default()
        },
    );
    let grid = Workforce::build(WorkforceConfig::bench()).fig10a_query(&["Jan", "Apr", "Jul"]);
    let lines = [".apply forward 0,3,6,9", ".rollup", grid.as_str()];
    let fresh = serial_replies(Dataset::Bench, &lines.map(|l| vec![l.to_string()]));
    let mut c = Client::connect(server.addr()).unwrap();
    for (line, fresh) in lines.iter().zip(&fresh) {
        assert_eq!(c.request(".deadline 1").unwrap().0, STATUS_OK);
        let (status, text) = c.request(line).unwrap();
        assert_eq!(status, STATUS_ERR, "{line}: {text}");
        assert!(text.contains("deadline"), "{line}: {text}");
        // Same connection, deadline lifted: the request now completes.
        assert_eq!(c.request(".deadline 0").unwrap().0, STATUS_OK);
        let (status, text) = c.request(line).unwrap();
        assert_eq!(status, STATUS_OK, "{line}: {text}");
        assert_eq!(text, fresh[0], "{line}");
    }
    assert_eq!(c.request(".quit").unwrap().0, STATUS_QUIT);
    server.shutdown();
}

/// A server-side `--deadline-ms` default applies to sessions that never
/// issue `.deadline`, and each session may override its own.
#[test]
fn server_default_deadline_is_per_session() {
    let server = start(
        Dataset::Bench,
        ServerConfig {
            deadline_ms: 1,
            drain_grace_ms: 200,
            ..ServerConfig::default()
        },
    );
    let mut capped = Client::connect(server.addr()).unwrap();
    let (status, text) = capped.request(".apply forward 0,3,6,9").unwrap();
    assert_eq!(status, STATUS_ERR, "{text}");
    // A sibling raises its own deadline and runs to completion.
    let mut free = Client::connect(server.addr()).unwrap();
    assert_eq!(free.request(".deadline 0").unwrap().0, STATUS_OK);
    let (status, text) = free.request(".apply forward 0,3,6,9").unwrap();
    assert_eq!(status, STATUS_OK, "{text}");
    assert!(text.contains("digest"), "{text}");
    server.shutdown();
}

/// A scripted mid-frame cut on the response path: the client's bounded
/// retry reconnects through the proxy, replays its journal of
/// state-setting verbs into the fresh session, re-issues the lost
/// request, and every reply still matches a faultless serial session.
#[test]
fn client_retry_heals_a_mid_frame_cut_with_journal_replay() {
    let server = start(
        Dataset::Running,
        ServerConfig {
            drain_grace_ms: 200,
            ..ServerConfig::default()
        },
    );
    // Frame 1 of ServerToClient is the greeting, frame 2 the first
    // reply; cut the third mid-frame — right after the session gained
    // journaled state worth replaying.
    let plan = vec![NetFaultSpec {
        conn: 0,
        dir: Dir::ServerToClient,
        at: 3,
        kind: NetFaultKind::CutMidFrame,
    }];
    let proxy = ChaosProxy::start(server.addr(), plan).expect("proxy");
    let script: Vec<String> = [
        ".fork alt",
        ".apply forward 1,3",
        ".switch main",
        ".apply static 2",
        ".scenarios",
    ]
    .map(String::from)
    .into();
    // Faultless oracle: the same script on a direct session.
    let expected = serial_replies(Dataset::Running, std::slice::from_ref(&script)).remove(0);
    let mut c = Client::connect_with(proxy.addr(), RetryPolicy::retries(6, 9)).unwrap();
    for (cmd, want) in script.iter().zip(&expected) {
        let (status, got) = c.request(cmd).expect("request should heal through retry");
        assert_eq!(status, STATUS_OK, "{cmd}: {got}");
        assert_eq!(&got, want, "{cmd} diverged after reconnect");
    }
    // The cut really fired (two connections), and the journal carried
    // the state-setting verbs across it.
    assert!(proxy.connections() >= 2, "cut never forced a reconnect");
    assert!(!c.journal().is_empty());
    drop(c);
    proxy.shutdown();
    wait_for_sessions(&server, 0);
    assert_eq!(server.shutdown(), 0);
}

/// A refused connection (accept-then-close before the greeting) is a
/// clean connect error, and the next attempt gets through.
#[test]
fn refused_connection_errors_cleanly_then_recovers() {
    let server = start(
        Dataset::Running,
        ServerConfig {
            drain_grace_ms: 200,
            ..ServerConfig::default()
        },
    );
    let plan = vec![NetFaultSpec {
        conn: 0,
        dir: Dir::ClientToServer,
        at: 1,
        kind: NetFaultKind::Refuse,
    }];
    let proxy = ChaosProxy::start(server.addr(), plan).expect("proxy");
    let refused = Client::connect(proxy.addr()).expect_err("conn 0 is scripted to die");
    assert!(
        matches!(
            refused.kind(),
            std::io::ErrorKind::UnexpectedEof | std::io::ErrorKind::ConnectionReset
        ),
        "{refused}"
    );
    let mut c = Client::connect(proxy.addr()).expect("conn 1 runs clean");
    assert_eq!(c.request(".schema").unwrap().0, STATUS_OK);
    drop(c);
    proxy.shutdown();
    wait_for_sessions(&server, 0);
    server.shutdown();
}

/// A server speaking a future protocol version is refused by the client
/// with an error naming both versions — not a frame misparse.
#[test]
fn greeting_version_mismatch_is_a_readable_error() {
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let fake = thread::spawn(move || {
        if let Ok((mut s, _)) = listener.accept() {
            let banner = format!("{}/{} from the future", proto::PROTO_MAGIC, 99);
            let _ = proto::write_frame(&mut s, STATUS_OK, &banner);
        }
    });
    let err = Client::connect(addr).expect_err("version skew must not look like success");
    assert!(err.to_string().contains("version mismatch"), "{err}");
    assert!(err.to_string().contains("99"), "{err}");
    let _ = fake.join();
}

/// Stall-then-cut mid-frame server-side: the handler is left holding a
/// frame that never finishes, and must free its admission slot when
/// the cut lands (no slowloris wedge).
#[test]
fn stall_then_cut_frees_the_server_slot() {
    let server = start(
        Dataset::Running,
        ServerConfig {
            idle_timeout_ms: 500,
            drain_grace_ms: 200,
            ..ServerConfig::default()
        },
    );
    let plan = vec![NetFaultSpec {
        conn: 0,
        dir: Dir::ClientToServer,
        at: 1,
        kind: NetFaultKind::StallThenCut(Duration::from_millis(30)),
    }];
    let proxy = ChaosProxy::start(server.addr(), plan).expect("proxy");
    let mut c = Client::connect(proxy.addr()).unwrap();
    // Frame 1 client→server is this request; the proxy forwards half of
    // the burst that begins it, stalls, then cuts. The reply never comes.
    let _ = c.request(".apply forward 1,3");
    drop(c);
    wait_for_sessions(&server, 0);
    proxy.shutdown();
    assert_eq!(server.shutdown(), 0);
}
