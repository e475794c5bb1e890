//! Log-shipping replication (DESIGN.md §17): torn shipping frames are
//! rejected whole, duplicate delivery is a no-op, a follower crashed at
//! every physical operation of an apply recovers to exactly the pre- or
//! post-transaction image, and a full leader/follower server pair
//! converges to byte-identical store files while serving reads.

use olap_cube::StoreBackend;
use olap_server::{
    enable_replication, Client, Follower, Server, ServerConfig, STATUS_ERR, STATUS_OK, STATUS_QUIT,
};
use olap_store::{Chunk, ChunkId, ChunkStore, FileStore, ReplApply, StoreError};
use polap_cli::{Dataset, Outcome, Session, SharedData, VERBS};
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::{Duration, Instant};

fn tmp(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!(
        "perspective-olap-repl-{}-{}.cube",
        std::process::id(),
        name
    ))
}

fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
}

/// Whether a sidecar WAL (`<path>.wal`) exists next to `path`.
fn sidecar_exists(path: &Path) -> bool {
    let mut wal = path.as_os_str().to_os_string();
    wal.push(".wal");
    Path::new(&wal).exists()
}

fn main_bytes(path: &Path) -> Vec<u8> {
    std::fs::read(path).unwrap()
}

/// A small chunk keyed by one value.
fn chunk(v: f64) -> Chunk {
    let mut c = Chunk::new_dense(vec![8]);
    c.set(0, olap_store::CellValue::num(v));
    c.set(5, olap_store::CellValue::num(v * 3.0 - 1.0));
    c
}

/// A leader with committed base content, its base image copied to
/// `follower`, capture on from there, and `rounds` captured flush
/// transactions (the odd ones three chunks long, so a frame can tear
/// *between* and *inside* chunk records). Returns the shipped frames.
fn leader_with_history(path: &Path, follower: &Path, rounds: usize) -> (FileStore, Vec<Vec<u8>>) {
    cleanup(path);
    let mut s = FileStore::create(path).unwrap();
    s.begin_flush().unwrap();
    s.write(ChunkId(1), &chunk(1.0)).unwrap();
    s.write(ChunkId(2), &chunk(2.0)).unwrap();
    s.commit_flush().unwrap();
    s.set_replication(true);
    let base_pos = s.replication_position();
    cleanup(follower);
    std::fs::copy(path, follower).unwrap();
    for r in 0..rounds {
        s.begin_flush().unwrap();
        s.write(ChunkId(1), &chunk(10.0 + r as f64)).unwrap();
        if r % 2 == 1 {
            s.write(ChunkId(3 + r as u64), &chunk(20.0 + r as f64))
                .unwrap();
            s.write(ChunkId(2), &chunk(30.0 + r as f64)).unwrap();
        }
        s.commit_flush().unwrap();
    }
    let frames = s.retained_since(base_pos).unwrap();
    assert_eq!(frames.len(), rounds);
    (s, frames)
}

#[test]
fn torn_shipping_frames_are_rejected_whole() {
    let lpath = tmp("torn-leader");
    let fpath = tmp("torn-follower");
    let (_leader, frames) = leader_with_history(&lpath, &fpath, 2);
    let mut f = FileStore::open(&fpath).unwrap();
    f.apply_replicated(&frames[0]).unwrap();
    let before = main_bytes(&fpath);
    // The three-chunk transaction, at the follower's position: cut the
    // frame at every byte boundary — mid-BEGIN, between chunk records,
    // mid-record, mid-COMMIT — and every cut must be refused whole, as
    // corruption and before any I/O (a follower never sees a partial
    // transaction).
    let bytes = &frames[1];
    assert!(bytes.len() > frames[0].len(), "want a multi-chunk frame");
    for cut in 0..bytes.len() {
        let got = f.apply_replicated(&bytes[..cut]);
        assert!(matches!(got, Err(StoreError::Corrupt(_))), "cut at {cut}");
    }
    // A bit flip anywhere inside fails a checksum, not a partial apply.
    for pos in (0..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x04;
        let got = f.apply_replicated(&bad);
        assert!(matches!(got, Err(StoreError::Corrupt(_))), "flip at {pos}");
    }
    assert_eq!(main_bytes(&fpath), before, "refused frames wrote nothing");
    assert_eq!(f.apply_replicated(bytes).unwrap(), ReplApply::Applied);
    assert_eq!(main_bytes(&fpath), main_bytes(&lpath));
    cleanup(&lpath);
    cleanup(&fpath);
}

#[test]
fn duplicate_delivery_is_a_no_op_and_gaps_are_refused() {
    let lpath = tmp("dup-leader");
    let fpath = tmp("dup-follower");
    let (leader, frames) = leader_with_history(&lpath, &fpath, 2);
    let mut f = FileStore::open(&fpath).unwrap();
    // Applying t2 before t1 is a gap: refused before any I/O.
    let before = main_bytes(&fpath);
    let gap = f.apply_replicated(&frames[1]);
    assert!(gap.is_err(), "gap must be refused");
    assert_eq!(main_bytes(&fpath), before, "refused gap wrote nothing");
    // In order: t1, then t1 again (at-least-once redelivery), then t2.
    assert!(matches!(
        f.apply_replicated(&frames[0]).unwrap(),
        ReplApply::Applied
    ));
    let after_t1 = main_bytes(&fpath);
    assert!(matches!(
        f.apply_replicated(&frames[0]).unwrap(),
        ReplApply::Duplicate
    ));
    assert_eq!(main_bytes(&fpath), after_t1, "duplicate wrote nothing");
    assert!(matches!(
        f.apply_replicated(&frames[1]).unwrap(),
        ReplApply::Applied
    ));
    assert_eq!(f.replication_position(), leader.replication_position());
    assert_eq!(f.flush_epoch(), leader.flush_epoch());
    // Byte-identical to the leader's log.
    assert_eq!(main_bytes(&fpath), main_bytes(&lpath));
    cleanup(&lpath);
    cleanup(&fpath);
}

/// The replication crash-point sweep: for every shipped frame, inject a
/// crash after every physical store operation of its apply and require
/// the re-opened file to be exactly the pre- or post-transaction image,
/// then require the re-delivered frame to finish the job. Every
/// intermediate and final image must be a byte prefix of the leader's
/// log.
#[test]
fn follower_crash_at_every_op_recovers_pre_or_post_image() {
    let lpath = tmp("sweep-leader");
    let fpath = tmp("sweep-follower");
    let scratch = tmp("sweep-scratch");
    let crashp = tmp("sweep-crash");
    let (_leader, frames) = leader_with_history(&lpath, &fpath, 3);
    let leader_bytes = main_bytes(&lpath);

    // An apply of a frame with `n` chunk records is the shape of a local
    // commit: the BEGIN append (op 1), the `n` chunk appends, the fsync
    // of the records, the COMMIT append and its fsync — `n + 4` ops.
    // Rounds 0, 1, 2 write 1, 3, 1 chunks: 5, 7 and 5 ops. A crash
    // after `k` ops leaves the COMMIT on disk only for `k = n + 3`.
    let chunks = [1u64, 3, 1];
    let mut crash_points = 0u64;
    for (frame, n) in frames.iter().zip(chunks) {
        let pre = main_bytes(&fpath);
        // Dry run on a scratch copy to learn the op count and the
        // post-image.
        std::fs::copy(&fpath, &scratch).unwrap();
        let (ops, post_bytes) = {
            let mut s = FileStore::open(&scratch).unwrap();
            let ops0 = s.phys_ops();
            assert!(matches!(
                s.apply_replicated(frame).unwrap(),
                ReplApply::Applied
            ));
            (s.phys_ops() - ops0, main_bytes(&scratch))
        };
        assert_eq!(ops, n + 4, "apply op schedule");
        crash_points += ops;
        assert!(
            leader_bytes.starts_with(&post_bytes),
            "post-image must be a prefix of the leader log"
        );
        let mut saw_post = Vec::new();
        for k in 0..ops {
            std::fs::copy(&fpath, &crashp).unwrap();
            let mut s = FileStore::open(&crashp).unwrap();
            s.set_crash_after_ops(Some(k));
            assert!(s.apply_replicated(frame).is_err(), "k={k}: crash surfaces");
            drop(s);
            // Recovery on re-open must land on exactly one of the two
            // committed images, and redelivery must converge to post.
            let mut s = FileStore::open(&crashp).unwrap();
            let got = main_bytes(&crashp);
            if got == post_bytes {
                saw_post.push(k);
            } else {
                assert!(
                    got == pre,
                    "k={k}: recovered image is neither pre nor post ({} bytes, pre {} post {})",
                    got.len(),
                    pre.len(),
                    post_bytes.len()
                );
            }
            let redeliver = s.apply_replicated(frame).unwrap();
            match redeliver {
                ReplApply::Applied | ReplApply::Duplicate => {}
            }
            assert_eq!(
                main_bytes(&crashp),
                post_bytes,
                "k={k}: redelivery converges"
            );
        }
        assert_eq!(saw_post, [n + 3], "only a written COMMIT commits");
        // Advance the real follower cleanly.
        let mut f = FileStore::open(&fpath).unwrap();
        assert!(matches!(
            f.apply_replicated(frame).unwrap(),
            ReplApply::Applied
        ));
        assert_eq!(main_bytes(&fpath), post_bytes);
    }
    assert_eq!(crash_points, 17, "sweep exercised every crash point");
    assert_eq!(
        main_bytes(&fpath),
        leader_bytes,
        "follower converged byte-identically"
    );
    for p in [&lpath, &fpath, &scratch, &crashp] {
        cleanup(p);
    }
}

/// Commits `rounds` one-cell flushes on a file-backed leader.
fn commit_rounds(shared: &SharedData, rounds: u32) {
    let lens: Vec<u32> = shared.cube().geometry().lens().to_vec();
    for round in 0..rounds {
        let coords: Vec<u32> = lens.iter().map(|&l| (round + 1).min(l - 1)).collect();
        shared
            .cube()
            .set(&coords, olap_store::CellValue::num(1000.0 + round as f64))
            .unwrap();
        shared.cube().flush().unwrap();
    }
}

fn leader_position(shared: &SharedData) -> u64 {
    shared.cube().with_pool(|p| {
        p.store()
            .as_any()
            .downcast_ref::<FileStore>()
            .unwrap()
            .replication_position()
    })
}

/// The epoch lives in the log, so a follower started on a copy of a
/// leader at epoch N greets with `epoch N` before any apply. The leader
/// built its base image as epoch 1, then committed three rounds.
#[test]
fn follower_seeded_from_a_leader_copy_greets_with_its_epoch() {
    let lpath = tmp("epoch-leader");
    let fpath = tmp("epoch-follower");
    cleanup(&lpath);
    let leader_shared = Arc::new(
        SharedData::load_with_backend(Dataset::Bench, StoreBackend::File(lpath.clone())).unwrap(),
    );
    enable_replication(&leader_shared).expect("file-backed leader");
    commit_rounds(&leader_shared, 3);
    let pos = leader_position(&leader_shared);
    cleanup(&fpath);
    std::fs::copy(&lpath, &fpath).unwrap();
    let cfg = ServerConfig {
        drain_grace_ms: 200,
        ..ServerConfig::default()
    };
    let leader_srv = Server::start(leader_shared, "127.0.0.1:0", cfg.clone()).unwrap();
    let follower_shared = Arc::new(
        SharedData::load_with_backend(Dataset::Bench, StoreBackend::Attach(fpath.clone())).unwrap(),
    );
    let follower = Follower::start(follower_shared, "127.0.0.1:0", cfg, leader_srv.addr()).unwrap();
    assert_eq!(follower.state().epoch(), 4);
    let fc = Client::connect(follower.addr()).unwrap();
    assert!(
        fc.greeting()
            .contains(&format!("(replica, position {pos}, epoch 4)")),
        "{}",
        fc.greeting()
    );
    drop(fc);
    follower.shutdown();
    leader_srv.shutdown();
    cleanup(&lpath);
    cleanup(&fpath);
}

/// A follower refuses every verb that writes the base cube however the
/// line spells it — any case, any trailing argument — because it asks
/// the verb table's `writes_base`, not a string compare. Its store file
/// stays the leader's, byte for byte.
#[test]
fn follower_refuses_every_base_write_in_any_spelling() {
    let lpath = tmp("refuse-leader");
    let fpath = tmp("refuse-follower");
    cleanup(&lpath);
    cleanup(&fpath);
    let leader_shared = Arc::new(
        SharedData::load_with_backend(Dataset::Bench, StoreBackend::File(lpath.clone())).unwrap(),
    );
    enable_replication(&leader_shared).expect("file-backed leader");
    std::fs::copy(&lpath, &fpath).unwrap();
    let cfg = ServerConfig {
        drain_grace_ms: 200,
        ..ServerConfig::default()
    };
    let leader_srv = Server::start(leader_shared, "127.0.0.1:0", cfg.clone()).unwrap();
    let follower_shared = Arc::new(
        SharedData::load_with_backend(Dataset::Bench, StoreBackend::Attach(fpath.clone())).unwrap(),
    );
    let follower = Follower::start(follower_shared, "127.0.0.1:0", cfg, leader_srv.addr()).unwrap();

    let mut fc = Client::connect(follower.addr()).unwrap();
    let writes: Vec<_> = VERBS.iter().filter(|v| v.writes_base).collect();
    assert!(!writes.is_empty(), "the table names no base write");
    for verb in writes {
        for name in std::iter::once(&verb.name).chain(verb.aliases) {
            let upper = name.to_ascii_uppercase();
            for line in [
                format!(".{name}"),
                format!(".{upper}"),
                format!(".{name} now"),
            ] {
                let (status, text) = fc.request(&line).unwrap();
                assert_eq!(status, STATUS_ERR, "{line}: {text}");
                assert!(text.contains("read-only replica"), "{line}: {text}");
            }
        }
    }
    // Refusals keep the connection: the session still answers.
    assert_eq!(fc.request(".schema").unwrap().0, STATUS_OK);
    assert_eq!(fc.request(".quit").unwrap().0, STATUS_QUIT);

    follower.shutdown();
    leader_srv.shutdown();
    assert_eq!(main_bytes(&fpath), main_bytes(&lpath));
    cleanup(&lpath);
    cleanup(&fpath);
}

/// Full stack: a leader server shipping to a follower server. The
/// follower greets with its position, refuses `.commit`, serves reads
/// that match the leader's replies, and its store file converges to
/// byte identity after each committed flush.
#[test]
fn leader_and_follower_servers_converge_and_serve_reads() {
    let lpath = tmp("e2e-leader");
    let fpath = tmp("e2e-follower");
    cleanup(&lpath);
    cleanup(&fpath);
    let leader_shared = Arc::new(
        SharedData::load_with_backend(Dataset::Bench, StoreBackend::File(lpath.clone())).unwrap(),
    );
    let base = enable_replication(&leader_shared).expect("file-backed leader");
    // Seed the follower from the base image, then start both servers.
    std::fs::copy(&lpath, &fpath).unwrap();
    let cfg = ServerConfig {
        drain_grace_ms: 200,
        ..ServerConfig::default()
    };
    let leader_srv = Server::start(leader_shared.clone(), "127.0.0.1:0", cfg.clone()).unwrap();
    let follower_shared = Arc::new(
        SharedData::load_with_backend(Dataset::Bench, StoreBackend::Attach(fpath.clone())).unwrap(),
    );
    let follower = Follower::start(follower_shared, "127.0.0.1:0", cfg, leader_srv.addr()).unwrap();
    assert_eq!(
        follower.position(),
        base,
        "fresh follower stands at the base image"
    );

    let mut fc = Client::connect(follower.addr()).unwrap();
    assert!(fc.greeting().contains("replica"), "{}", fc.greeting());
    assert!(
        fc.greeting().contains(&format!("position {base}")),
        "{}",
        fc.greeting()
    );
    let (status, text) = fc.request(".commit").unwrap();
    assert_eq!(status, STATUS_ERR);
    assert!(text.contains("read-only replica"), "{text}");

    // Two committed rounds on the leader; after each, the follower must
    // catch up to byte identity.
    let lens: Vec<u32> = leader_shared.cube().geometry().lens().to_vec();
    for round in 0..2u32 {
        let coords: Vec<u32> = lens.iter().map(|&l| (round + 1).min(l - 1)).collect();
        leader_shared
            .cube()
            .set(&coords, olap_store::CellValue::num(1000.0 + round as f64))
            .unwrap();
        leader_shared.cube().flush().unwrap();
        let target = leader_shared.cube().with_pool(|p| {
            p.store()
                .as_any()
                .downcast_ref::<FileStore>()
                .unwrap()
                .replication_position()
        });
        let t0 = Instant::now();
        while follower.position() < target {
            assert!(
                !follower.is_dead(),
                "sync loop died: {:?}",
                follower.state().last_error()
            );
            assert!(
                t0.elapsed() < Duration::from_secs(20),
                "follower stuck at {} (target {target})",
                follower.position()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        assert_eq!(main_bytes(&fpath), main_bytes(&lpath), "round {round}");
    }

    // A read through the follower answers exactly what the leader's
    // own session answers over the same bytes.
    let expected = match Session::attach(leader_shared.clone()).handle(".apply forward 1,3") {
        Outcome::Continue(t) => t,
        other => panic!("unexpected outcome {other:?}"),
    };
    let (status, got) = fc.request(".apply forward 1,3").unwrap();
    assert_eq!(status, STATUS_OK);
    assert_eq!(got, expected);
    assert_eq!(fc.request(".quit").unwrap().0, STATUS_QUIT);

    follower.shutdown();
    leader_srv.shutdown();
    assert!(!sidecar_exists(&lpath) && !sidecar_exists(&fpath));
    cleanup(&lpath);
    cleanup(&fpath);
}
