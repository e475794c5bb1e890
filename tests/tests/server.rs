//! Multi-tenant server tests: concurrent sessions over one buffer pool
//! and one scenario-delta cache must be indistinguishable — byte for
//! byte — from analysts taking turns, and one analyst's crash or budget
//! must never leak into a neighbor's session (DESIGN.md §13).

use olap_server::{RetryPolicy, Server, ServerConfig, STATUS_ERR, STATUS_OK, STATUS_QUIT};
use polap_cli::proto::Client;
use polap_cli::{Dataset, SharedData};
use std::io;
use std::sync::Arc;
use whatif_integration_tests::{
    connect, drive_sessions, edit_script, first_divergence, serial_replies,
};

fn start(dataset: Dataset, cache_mb: usize, cfg: ServerConfig) -> Server {
    let mut shared = SharedData::load(dataset);
    if cache_mb > 0 {
        shared.set_cache_mb(cache_mb);
    }
    Server::start(Arc::new(shared), "127.0.0.1:0", cfg).expect("bind")
}

/// The tentpole guarantee: concurrent sessions hammering one pool and
/// one cache get byte-identical answers to a serial replay of the same
/// scripts on a cache-less private copy — 32 analysts on the running
/// example, 8 on the `bench` workforce (where an `.apply` is real merge
/// work and the rollup scans a real cube). Replies carry only
/// deterministic fields, so any cross-session interference — a
/// poisoned cache entry, a torn eviction, a budget leaking between
/// sessions — shows up as a diff, not a flake.
#[test]
fn thirty_two_concurrent_sessions_match_serial_replay() {
    for (dataset, sessions) in [(Dataset::Running, 32), (Dataset::Bench, 8)] {
        let scripts: Vec<_> = (0..sessions).map(|i| edit_script(dataset, i)).collect();
        let expected = serial_replies(dataset, &scripts);
        let server = start(
            dataset,
            64,
            ServerConfig {
                max_sessions: sessions,
                ..ServerConfig::default()
            },
        );
        let runs = drive_sessions(server.addr(), &scripts, &RetryPolicy::default());
        for (i, run) in runs.iter().enumerate() {
            assert_eq!(run.stopped, None, "{dataset:?} session {i} stopped early");
        }
        assert_eq!(first_divergence(&runs, &expected), None, "{dataset:?}");
        server.shutdown();
    }
}

/// One analyst's panic must not take the cache — or anyone else's
/// session — down with it: the `.panic` hook (debug builds) dies while
/// the shared state is live, and a surviving session keeps getting
/// correct, cache-served answers.
#[test]
fn session_panic_leaves_shared_cache_serving_others() {
    let server = start(Dataset::Running, 16, ServerConfig::default());
    let mut survivor = Client::connect(server.addr()).unwrap();
    let (_, before) = survivor.request(".apply forward 1,3").unwrap();
    assert!(before.contains("digest"), "{before}");

    let mut victim = Client::connect(server.addr()).unwrap();
    // Warm the shared cache from the victim too, then kill it mid-flight.
    assert_eq!(victim.request(".apply forward 1,3").unwrap().0, STATUS_OK);
    let (status, text) = victim.request(".panic").expect("panic reply frame");
    assert_eq!(status, STATUS_ERR, "{text}");
    assert!(text.contains("panicked"), "{text}");
    // The victim's connection is gone…
    assert!(victim.request(".schema").is_err());

    // …but the survivor still gets the same bytes as before the crash,
    // through the same shared cache.
    let (status, after) = survivor.request(".apply forward 1,3").unwrap();
    assert_eq!(status, STATUS_OK);
    assert_eq!(after, before, "shared state corrupted by a session panic");
    let (status, cache) = survivor.request(".cache").unwrap();
    assert_eq!(status, STATUS_OK);
    assert!(!cache.contains("cache off"), "{cache}");
    assert_eq!(survivor.request(".quit").unwrap().0, STATUS_QUIT);
    server.shutdown();
}

/// Admission control is a hard cap: connection N+1 is refused with an
/// error, and a freed slot re-admits.
#[test]
fn admission_cap_refuses_then_readmits() {
    let server = start(
        Dataset::Running,
        0,
        ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        },
    );
    let mut only = Client::connect(server.addr()).unwrap();
    let refused = Client::connect(server.addr()).expect_err("cap is 1");
    assert_eq!(refused.kind(), io::ErrorKind::ConnectionRefused);
    assert!(refused.to_string().contains("server full"), "{refused}");
    // The refusal reports the *live* count, not the cap twice.
    assert!(
        refused.to_string().contains("1 sessions active (max 1)"),
        "{refused}"
    );
    assert_eq!(only.request(".quit").unwrap().0, STATUS_QUIT);
    // Teardown is asynchronous; the slot frees shortly after the quit.
    let mut readmitted = connect(server.addr(), &RetryPolicy::default()).expect("readmitted");
    assert_eq!(readmitted.request(".budget").unwrap().0, STATUS_OK);
    server.shutdown();
}

/// A panic that escapes the per-request `catch_unwind` (the
/// `.panic-outside` debug hook fires on the connection thread, outside
/// it) must still free the admission slot: the slot rides a drop guard,
/// so the unwind releases it and the next connection is admitted. Before
/// the guard, this leaked the slot and permanently shrank the server.
#[test]
fn escaped_panic_frees_the_admission_slot() {
    let server = start(
        Dataset::Running,
        0,
        ServerConfig {
            max_sessions: 1,
            ..ServerConfig::default()
        },
    );
    let mut victim = Client::connect(server.addr()).unwrap();
    // The connection thread dies unwinding; no reply frame is written.
    assert!(victim.request(".panic-outside").is_err());
    let mut readmitted = connect(server.addr(), &RetryPolicy::default()).expect("readmitted");
    assert_eq!(readmitted.request(".budget").unwrap().0, STATUS_OK);
    assert_eq!(readmitted.request(".quit").unwrap().0, STATUS_QUIT);
    server.shutdown();
}

/// Two tenants pinned to *different* scenarios share one versioned
/// cache without thrashing it: after each has warmed its own scenario,
/// alternating requests from both hit on every probe, evicting nothing
/// (under the old one-digest-per-chunk cache each request destroyed the
/// other tenant's entries).
#[test]
fn two_sessions_on_different_scenarios_sustain_cache_hits() {
    let mut shared = SharedData::load(Dataset::Running);
    shared.set_cache_mb(16);
    let shared = Arc::new(shared);
    let server =
        Server::start(shared.clone(), "127.0.0.1:0", ServerConfig::default()).expect("bind");
    let mut a = Client::connect(server.addr()).unwrap();
    let mut b = Client::connect(server.addr()).unwrap();

    // Warm each tenant's scenario once and pin the expected replies.
    let (_, reply_a) = a.request(".apply forward 1,3").unwrap();
    let (_, reply_b) = b.request(".apply forward 2,4").unwrap();
    assert!(reply_a.contains("digest"), "{reply_a}");
    assert!(reply_b.contains("digest"), "{reply_b}");
    let cache = shared.cache().expect("cache on");
    let before = cache.stats();

    // Interleave: every request replays warm and byte-identical.
    for _ in 0..3 {
        assert_eq!(a.request(".apply forward 1,3").unwrap().1, reply_a);
        assert_eq!(b.request(".apply forward 2,4").unwrap().1, reply_b);
    }
    let stats = cache.stats();
    let (hits, lookups) = (stats.hits - before.hits, stats.lookups - before.lookups);
    assert_eq!(stats.evictions, before.evictions, "{stats:?}");
    assert!(
        hits > 0 && hits == lookups,
        "tenants thrashed the cache: {stats:?}"
    );
    assert_eq!(a.request(".quit").unwrap().0, STATUS_QUIT);
    assert_eq!(b.request(".quit").unwrap().0, STATUS_QUIT);
    server.shutdown();
}

/// Scenario forks work transparently over the wire — `.fork`, `.switch`
/// and bare `.apply` are session state on the server side, so a client
/// toggling two forks gets each fork's own bytes back every time.
#[test]
fn fork_toggle_works_over_the_wire() {
    let server = start(Dataset::Running, 16, ServerConfig::default());
    let mut c = Client::connect(server.addr()).unwrap();
    let (_, base) = c.request(".apply forward 1,3").unwrap();
    assert_eq!(c.request(".fork alt").unwrap().0, STATUS_OK);
    let (_, alt) = c.request(".apply forward 2,4").unwrap();
    assert_ne!(base, alt);
    for _ in 0..2 {
        assert_eq!(c.request(".switch main").unwrap().0, STATUS_OK);
        assert_eq!(c.request(".apply").unwrap().1, base);
        assert_eq!(c.request(".switch alt").unwrap().0, STATUS_OK);
        assert_eq!(c.request(".apply").unwrap().1, alt);
    }
    let (_, list) = c.request(".scenarios").unwrap();
    assert!(list.contains("* alt"), "{list}");
    assert_eq!(c.request(".quit").unwrap().0, STATUS_QUIT);
    server.shutdown();
}

/// Per-session budgets ride the existing multi-pass machinery: a starved
/// session is rejected with the budget error while its neighbor — same
/// server, same shared state — runs the identical query to completion.
#[test]
fn budgets_are_enforced_per_session() {
    let server = start(Dataset::Running, 0, ServerConfig::default());
    let mut broke = Client::connect(server.addr()).unwrap();
    let mut rich = Client::connect(server.addr()).unwrap();
    assert_eq!(broke.request(".budget 1").unwrap().0, STATUS_OK);
    let (status, text) = broke.request(".apply forward 1,3").unwrap();
    assert_eq!(status, STATUS_OK);
    assert!(text.contains("budget"), "{text}");
    let (status, text) = rich.request(".apply forward 1,3").unwrap();
    assert_eq!(status, STATUS_OK);
    assert!(text.contains("digest"), "{text}");
    // A squeezed rollup degrades to more passes instead of failing: 232
    // cells hold the costliest single group-by's closure on `running`
    // but not the 353 all four need in one pass. Below one closure (the
    // cheapest is 87) it is refused.
    assert_eq!(broke.request(".budget 232").unwrap().0, STATUS_OK);
    let (_, rollup) = broke.request(".rollup").unwrap();
    assert!(
        rollup.ends_with("3 pass(es), peak 192 buffer cells"),
        "{rollup}"
    );
    assert_eq!(broke.request(".budget 64").unwrap().0, STATUS_OK);
    let (_, rollup) = broke.request(".rollup").unwrap();
    assert!(
        rollup.starts_with("error:") && rollup.contains("budget"),
        "{rollup}"
    );
    server.shutdown();
}

/// A server-side default budget applies to every fresh session.
#[test]
fn server_default_budget_applies_to_new_sessions() {
    let server = start(
        Dataset::Running,
        0,
        ServerConfig {
            budget_cells: 1,
            ..ServerConfig::default()
        },
    );
    let mut c = Client::connect(server.addr()).unwrap();
    let (_, text) = c.request(".apply forward 1,3").unwrap();
    assert!(text.contains("budget"), "{text}");
    // The session can raise its own ceiling.
    assert_eq!(c.request(".budget 0").unwrap().0, STATUS_OK);
    let (_, text) = c.request(".apply forward 1,3").unwrap();
    assert!(text.contains("digest"), "{text}");
    server.shutdown();
}
