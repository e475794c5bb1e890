//! Multi-seed sweeps over the full serving stack — each test is its own
//! repetition (three fixed seeds), so CI runs this target once, outside
//! the 10× flake loop.
//!
//! * the chaos sweep (DESIGN.md §16): eight sessions through a
//!   seed-reproducible socket-fault proxy;
//! * the replica sweep (DESIGN.md §17): four log-shipping followers
//!   under random kill/restart schedules.

use olap_cube::StoreBackend;
use olap_server::{
    enable_replication, Client, Follower, RetryPolicy, Server, ServerConfig, STATUS_OK,
};
use olap_store::FileStore;
use polap_cli::{Dataset, Outcome, Session, SharedData};
use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;
use std::time::{Duration, Instant};
use whatif_integration_tests::chaos::{random_plan, ChaosProxy};
use whatif_integration_tests::{drive_sessions, edit_script, first_divergence, serial_replies};

const SEEDS: [u64; 3] = [11, 29, 47];
/// Wall-clock ceiling per seed: far above a healthy round, far below a
/// hang.
const ROUND_BUDGET: Duration = Duration::from_secs(120);

/// Concurrent edit sessions run through a `ChaosProxy` whose plan
/// injects delays, mid-frame cuts, partial-frame stalls and refusals,
/// against a server with idle timeouts and drain-on-shutdown, using
/// clients with bounded retry/backoff and journal replay. For every
/// seed:
///
/// * every request either fails with a clean client-side error or
///   returns a reply byte-identical to a faultless serial replay of the
///   same script (the retry journal makes a reconnected session answer
///   exactly like the uninterrupted one);
/// * about a third of the sessions set `.deadline` first: `1` ms trips
///   on bench work, and that `-` reply is a clean stop; `600000` never
///   trips, so those sessions are held to every reply;
/// * the server ends with zero live sessions — no admission slot leaked
///   by a cut, stalled or refused connection;
/// * the whole round finishes inside the wall budget (no hangs).
#[test]
fn chaos_sweep_replies_match_serial_or_error_cleanly() {
    const SESSIONS: usize = 8;
    const TRIPS: &str = ".deadline 1";
    let deadline = |i: usize| match i % 6 {
        0 => Some(TRIPS),
        3 => Some(".deadline 600000"),
        _ => None,
    };
    let scripts: Vec<Vec<String>> = (0..SESSIONS)
        .map(|i| {
            let knob = deadline(i).map(str::to_string);
            knob.into_iter()
                .chain(edit_script(Dataset::Bench, i))
                .collect()
        })
        .collect();
    // The serial replay never trips: it runs each script with the short
    // deadline lifted, and answers the knob line itself as it is set.
    let lifted: Vec<Vec<String>> = scripts
        .iter()
        .map(|s| s.iter().map(|l| l.replace(TRIPS, ".deadline 0")).collect())
        .collect();
    let mut expected = serial_replies(Dataset::Bench, &lifted);
    let knob = serial_replies(Dataset::Running, &[vec![TRIPS.to_string()]]);
    for (script, want) in scripts.iter().zip(&mut expected) {
        if script[0] == TRIPS {
            want[0] = knob[0][0].clone();
        }
    }

    for seed in SEEDS {
        let t0 = Instant::now();
        let mut data = SharedData::load(Dataset::Bench);
        data.set_cache_mb(64);
        let server = Server::start(
            Arc::new(data),
            "127.0.0.1:0",
            ServerConfig {
                // Headroom over the session count: reconnects briefly
                // hold a dying slot and a fresh one at once.
                max_sessions: SESSIONS * 2 + 4,
                idle_timeout_ms: 2_000,
                drain_grace_ms: 500,
                ..ServerConfig::default()
            },
        )
        .expect("bind server");
        // Plan over more connections than sessions: every reconnect
        // advances the accept-order index into fresh faults.
        let plan = random_plan(seed, (SESSIONS * 8) as u64);
        let proxy = ChaosProxy::start(server.addr(), plan).expect("bind chaos proxy");

        let runs = drive_sessions(proxy.addr(), &scripts, &RetryPolicy::retries(10, seed));
        assert_eq!(first_divergence(&runs, &expected), None, "seed {seed}");
        // Only a short deadline stops a session with a `-` deadline
        // reply, and at least one of them does.
        let tripped: Vec<usize> = (runs.iter().enumerate())
            .filter(|(_, r)| (r.stopped.as_deref()).is_some_and(|s| s.contains("-error: deadline")))
            .map(|(i, _)| i)
            .collect();
        assert!(
            tripped.iter().all(|&i| deadline(i) == Some(TRIPS)),
            "seed {seed}: {tripped:?}"
        );
        assert!(!tripped.is_empty(), "seed {seed}: no deadline ever tripped");

        // More accepted connections than sessions = reconnects = faults
        // actually fired and were healed.
        let conns = proxy.connections();
        assert!(conns > SESSIONS as u64, "seed {seed}: no fault ever fired");
        proxy.shutdown();
        // Every slot must come home: cut, stalled, refused or drained,
        // no connection may leak its admission slot.
        let drain_t0 = Instant::now();
        while server.active_sessions() > 0 && drain_t0.elapsed() < Duration::from_secs(10) {
            thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(
            server.active_sessions(),
            0,
            "seed {seed}: leaked session slots"
        );
        server.shutdown();
        let elapsed = t0.elapsed();
        let answered: usize = runs.iter().map(|r| r.replies.len()).sum();
        let stopped = runs.iter().filter(|r| r.stopped.is_some()).count();
        println!(
            "seed {seed}: {answered} replies matched, {stopped} sessions stopped on a clean \
             error ({} on a deadline), {conns} connections for {SESSIONS} sessions, {:.2} s",
            tripped.len(),
            elapsed.as_secs_f64()
        );
        assert!(
            elapsed <= ROUND_BUDGET,
            "seed {seed}: {elapsed:?} over budget"
        );
    }
}

fn tmp(tag: &str, seed: u64) -> PathBuf {
    std::env::temp_dir().join(format!(
        "perspective-olap-sweep-{}-{tag}-{seed}.cube",
        std::process::id()
    ))
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
}

fn replication_position(shared: &SharedData) -> u64 {
    shared.cube().with_pool(|p| {
        p.store()
            .as_any()
            .downcast_ref::<FileStore>()
            .expect("file-backed")
            .replication_position()
    })
}

fn read_reply(shared: &Arc<SharedData>, read: &str) -> String {
    match Session::attach(shared.clone()).handle(read) {
        Outcome::Continue(text) => text,
        other => panic!("{read}: unexpected outcome {other:?}"),
    }
}

/// What one follower thread saw across its kill/restart schedule.
#[derive(Default)]
struct FollowerLog {
    restarts: u32,
    clean_errors: u32,
    replies: Vec<String>,
    violations: Vec<String>,
}

/// A file-backed leader commits a series of flushes while follower
/// replicas — each seeded from the base image — stream them with
/// `.replicate`, under a per-follower random kill/restart schedule
/// (crash budgets injected mid-apply, then a fresh attach of the same
/// file). For every seed:
///
/// * every follower restart lands on a *committed leader position* (the
///   recovered file is the pre- or post-image of some shipped
///   transaction, never a blend);
/// * every read served during catch-up either errors cleanly or matches
///   the leader's serial reply at one of its committed epochs;
/// * every follower converges to a byte-identical store file;
/// * no session or sync thread panics (the registry and caches use
///   non-poisoning locks), and the round stays under its wall budget.
#[test]
fn replica_sweep_followers_converge_through_kill_and_restart() {
    const FOLLOWERS: usize = 4;
    const ROUNDS: u32 = 5;
    const READ: &str = ".apply forward 1,3";

    for seed in SEEDS {
        let t0 = Instant::now();
        let lpath = tmp("leader", seed);
        cleanup(&lpath);
        let leader_shared = Arc::new(
            SharedData::load_with_backend(Dataset::Bench, StoreBackend::File(lpath.clone()))
                .expect("file-backed bench dataset"),
        );
        let base = enable_replication(&leader_shared).expect("leader store is file-backed");
        let fpaths: Vec<_> = (0..FOLLOWERS)
            .map(|i| tmp(&format!("f{i}"), seed))
            .collect();
        for p in &fpaths {
            cleanup(p);
            std::fs::copy(&lpath, p).expect("seed follower base image");
        }
        let cfg = ServerConfig {
            max_sessions: FOLLOWERS * 4 + 8,
            drain_grace_ms: 500,
            ..ServerConfig::default()
        };
        let leader_srv =
            Server::start(leader_shared.clone(), "127.0.0.1:0", cfg.clone()).expect("bind leader");
        let leader_addr = leader_srv.addr();

        // Shared truth the follower threads check against: committed
        // positions (a recovered follower must stand at one) and the
        // done/final-position flags. The leader's serial reply at each
        // committed epoch (a catch-up read must match one) is checked
        // after the run, once the oracle is complete.
        let committed = Arc::new(Mutex::new(vec![base]));
        let mut oracle = vec![read_reply(&leader_shared, READ)];
        let done = Arc::new(AtomicBool::new(false));
        let final_pos = Arc::new(AtomicU64::new(0));

        let workers: Vec<_> = fpaths
            .iter()
            .enumerate()
            .map(|(i, fpath)| {
                let fpath = fpath.clone();
                let cfg = cfg.clone();
                let committed = committed.clone();
                let done = done.clone();
                let final_pos = final_pos.clone();
                thread::spawn(move || -> FollowerLog {
                    let mut rng = StdRng::seed_from_u64(seed ^ ((i as u64 + 1) << 16));
                    let mut log = FollowerLog::default();
                    loop {
                        // (Re)start: attach the store file — crash
                        // recovery runs here — and serve + sync.
                        let fshared = Arc::new(
                            SharedData::load_with_backend(
                                Dataset::Bench,
                                StoreBackend::Attach(fpath.clone()),
                            )
                            .expect("attach follower image"),
                        );
                        let follower = match Follower::start(
                            fshared.clone(),
                            "127.0.0.1:0",
                            cfg.clone(),
                            leader_addr,
                        ) {
                            Ok(f) => f,
                            Err(e) => {
                                log.violations
                                    .push(format!("follower {i} failed to start: {e}"));
                                break;
                            }
                        };
                        log.restarts += 1;
                        // Gate: a restarted follower stands at a
                        // committed leader position — the recovered
                        // image is pre- or post- some shipped
                        // transaction, never a blend.
                        let pos = follower.position();
                        if !committed.lock().unwrap().contains(&pos) {
                            log.violations.push(format!(
                                "follower {i} recovered to uncommitted position {pos}"
                            ));
                        }
                        thread::sleep(Duration::from_millis(rng.random_range(20..120)));
                        // A read mid-catch-up: clean error or a reply
                        // the leader gave at some committed epoch.
                        match Client::connect(follower.addr()) {
                            Ok(mut c) => match c.request(READ) {
                                Ok((STATUS_OK, text)) => {
                                    log.replies.push(text);
                                    let _ = c.request(".quit");
                                }
                                Ok((_, _)) | Err(_) => log.clean_errors += 1,
                            },
                            Err(_) => log.clean_errors += 1,
                        }
                        if done.load(Ordering::Acquire)
                            && follower.position() >= final_pos.load(Ordering::Acquire)
                        {
                            follower.shutdown();
                            break;
                        }
                        // Kill: arm a crash budget so the next applies
                        // die mid-transaction, then wait briefly for
                        // the sync loop to park (a caught-up follower
                        // may simply see no traffic — that makes this
                        // a clean restart, also a valid schedule).
                        let budget = rng.random_range(0..12);
                        fshared.cube().with_pool(|p| {
                            let mut s = p.store_mut();
                            if let Some(fs) = s.as_any_mut().downcast_mut::<FileStore>() {
                                fs.set_crash_after_ops(Some(budget));
                            }
                        });
                        let kill_t0 = Instant::now();
                        while !follower.is_dead() && kill_t0.elapsed() < Duration::from_millis(300)
                        {
                            thread::sleep(Duration::from_millis(10));
                        }
                        follower.shutdown();
                        drop(fshared);
                    }
                    log
                })
            })
            .collect();

        // The leader's commit schedule: mutate a few cells, flush,
        // record the committed position and the serial reply at this
        // epoch, breathe, repeat.
        let mut lrng = StdRng::seed_from_u64(seed);
        let lens: Vec<u32> = leader_shared.cube().geometry().lens().to_vec();
        for _round in 0..ROUNDS {
            for _ in 0..3 {
                let coords: Vec<u32> = lens.iter().map(|&l| lrng.random_range(0..l)).collect();
                let v = lrng.random_range(0.0..1000.0);
                leader_shared
                    .cube()
                    .set(&coords, olap_store::CellValue::num(v))
                    .expect("leader cell write");
            }
            leader_shared.cube().flush().expect("leader flush");
            committed
                .lock()
                .unwrap()
                .push(replication_position(&leader_shared));
            oracle.push(read_reply(&leader_shared, READ));
            thread::sleep(Duration::from_millis(60));
        }
        final_pos.store(replication_position(&leader_shared), Ordering::Release);
        done.store(true, Ordering::Release);

        let logs: Vec<FollowerLog> = workers
            .into_iter()
            .map(|w| w.join().expect("follower thread panicked"))
            .collect();
        let mut violations: Vec<String> = Vec::new();
        let leader_bytes = std::fs::read(&lpath).expect("read leader file");
        for (i, (log, fpath)) in logs.iter().zip(&fpaths).enumerate() {
            violations.extend(log.violations.iter().cloned());
            for text in &log.replies {
                if !oracle.contains(text) {
                    violations.push(format!(
                        "follower {i} served a reply matching no committed epoch: {text}"
                    ));
                }
            }
            let got = std::fs::read(fpath).expect("read follower file");
            if got != leader_bytes {
                violations.push(format!(
                    "follower {i} did not converge: {} bytes vs leader {}",
                    got.len(),
                    leader_bytes.len()
                ));
            }
        }
        leader_srv.shutdown();
        let elapsed = t0.elapsed();
        println!(
            "seed {seed}: {} restarts across {FOLLOWERS} followers, {} reads matched an epoch, \
             {} clean errors, {:.2} s",
            logs.iter().map(|l| l.restarts).sum::<u32>(),
            logs.iter().map(|l| l.replies.len()).sum::<usize>(),
            logs.iter().map(|l| l.clean_errors).sum::<u32>(),
            elapsed.as_secs_f64(),
        );
        cleanup(&lpath);
        for p in &fpaths {
            cleanup(p);
        }
        assert!(violations.is_empty(), "seed {seed}: {violations:#?}");
        assert!(
            elapsed <= ROUND_BUDGET,
            "seed {seed}: {elapsed:?} over budget"
        );
    }
}
