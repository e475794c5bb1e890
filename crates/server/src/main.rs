//! The `olap-server` binary: load a dataset, bind, serve analyst
//! sessions until killed. Connect with `polap --connect host:port`.
//!
//! With `--store PATH` the dataset is file-backed and the server acts
//! as a replication *leader*: committed flushes are captured and any
//! client may stream them with `.replicate <pos>`. With `--follow`
//! the server is a read-only *replica* over a copy of the leader's
//! base image, converging through the same stream (DESIGN.md §17).

use olap_server::{enable_replication, Follower, Server, ServerConfig};
use polap_cli::{Dataset, SharedData};
use std::net::ToSocketAddrs;
use std::sync::Arc;

const USAGE: &str = "\
usage: olap-server [dataset] [options]
  dataset               running | retail | workforce | bench (default: running)
  --bind ADDR:PORT      listen address (default 127.0.0.1:3811; port 0 = ephemeral)
  --store PATH          file-backed store: create PATH (leader) or attach a copied
                        base image (with --follow); workforce/bench datasets only
  --follow ADDR:PORT    run as a read-only replica of the leader at ADDR:PORT
                        (requires --store pointing at a copy of its base image);
                        sessions are served locally, .commit is refused
  --max-sessions N      admission cap: refuse connections past N sessions (default 64)
  --cache MB            shared scenario-delta cache size (default 0 = off)
  --budget CELLS        default per-session peak-memory budget (default 0 = unlimited)
  --idle-timeout MS     per-connection socket read/write timeout; a silent peer is
                        disconnected and frees its session slot (default 0 = none)
  --deadline-ms MS      default per-request deadline; an expired request gets an
                        error frame, the session survives (default 0 = unlimited)
  --drain-grace MS      how long shutdown waits for in-flight sessions before
                        force-closing them (default 2000)
  --help                this text";

fn main() {
    let mut dataset = Dataset::Running;
    let mut bind = "127.0.0.1:3811".to_string();
    let mut cfg = ServerConfig::default();
    let mut cache_mb = 0usize;
    let mut store_path: Option<String> = None;
    let mut follow: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |flag: &str| {
            args.next().unwrap_or_else(|| {
                eprintln!("{flag} needs a value\n{USAGE}");
                std::process::exit(2);
            })
        };
        match arg.as_str() {
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            "--bind" => bind = value("--bind"),
            "--store" => store_path = Some(value("--store")),
            "--follow" => follow = Some(value("--follow")),
            "--max-sessions" => match value("--max-sessions").parse() {
                Ok(n) if n > 0 => cfg.max_sessions = n,
                _ => die("--max-sessions needs a positive integer"),
            },
            "--cache" => match value("--cache").parse() {
                Ok(mb) => cache_mb = mb,
                Err(_) => die("--cache needs a size in MiB"),
            },
            "--budget" => match value("--budget").parse() {
                Ok(n) => cfg.budget_cells = n,
                Err(_) => die("--budget needs a cell count"),
            },
            "--idle-timeout" => match value("--idle-timeout").parse() {
                Ok(ms) => cfg.idle_timeout_ms = ms,
                Err(_) => die("--idle-timeout needs milliseconds (0 = none)"),
            },
            "--deadline-ms" => match value("--deadline-ms").parse() {
                Ok(ms) => cfg.deadline_ms = ms,
                Err(_) => die("--deadline-ms needs milliseconds (0 = unlimited)"),
            },
            "--drain-grace" => match value("--drain-grace").parse() {
                Ok(ms) => cfg.drain_grace_ms = ms,
                Err(_) => die("--drain-grace needs milliseconds"),
            },
            other => match Dataset::parse(other) {
                Some(d) => dataset = d,
                None => die(&format!("unknown argument {other:?}")),
            },
        }
    }

    if follow.is_some() && store_path.is_none() {
        die("--follow requires --store (a copy of the leader's base image)");
    }
    let backend = match &store_path {
        None => olap_cube::StoreBackend::Memory,
        // A follower attaches an existing base image; a leader creates
        // a fresh store file.
        Some(p) if follow.is_some() => olap_cube::StoreBackend::Attach(p.into()),
        Some(p) => olap_cube::StoreBackend::File(p.into()),
    };
    let mut shared = match SharedData::load_with_backend(dataset, backend) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("{e}");
            std::process::exit(1);
        }
    };
    if cache_mb > 0 {
        shared.set_cache_mb(cache_mb);
    }
    let shared = Arc::new(shared);

    if let Some(leader) = follow {
        let addr = match leader.to_socket_addrs().ok().and_then(|mut a| a.next()) {
            Some(a) => a,
            None => die(&format!("cannot resolve leader address {leader:?}")),
        };
        let follower = match Follower::start(shared, &bind, cfg, addr) {
            Ok(f) => f,
            Err(e) => {
                eprintln!("cannot start replica on {bind}: {e}");
                std::process::exit(1);
            }
        };
        println!(
            "olap-server replica on {} following {} ({:?} dataset, position {})",
            follower.addr(),
            addr,
            dataset,
            follower.position(),
        );
        loop {
            std::thread::park();
        }
    }

    if store_path.is_some() {
        // Leaders capture from the first flush on; a follower seeded
        // from a copy of the store file taken any time after this call
        // can stream everything it is missing.
        enable_replication(&shared);
    }
    let max_sessions = cfg.max_sessions;
    let server = match Server::start(shared, &bind, cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("cannot bind {bind}: {e}");
            std::process::exit(1);
        }
    };
    println!(
        "olap-server listening on {} ({:?} dataset, {} session cap, cache {} MiB)",
        server.addr(),
        dataset,
        max_sessions,
        cache_mb,
    );
    // Serve until killed: the accept loop owns the process from here.
    loop {
        std::thread::park();
    }
}

fn die(msg: &str) -> ! {
    eprintln!("{msg}\n{USAGE}");
    std::process::exit(2);
}
