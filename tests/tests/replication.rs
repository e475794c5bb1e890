//! WAL-shipping replication (DESIGN.md §17): torn shipping frames are
//! rejected whole, duplicate delivery is a no-op, a follower crashed at
//! every physical operation of an apply recovers to exactly the pre- or
//! post-transaction image, and a full leader/follower server pair
//! converges to byte-identical store files while serving reads.

use olap_cube::StoreBackend;
use olap_server::{
    enable_replication, Client, Follower, Server, ServerConfig, STATUS_ERR, STATUS_OK, STATUS_QUIT,
};
use olap_store::{
    decode_txn, encode_txn, txn_end, Chunk, ChunkId, ChunkStore, FileStore, ReplApply, WalTxn,
};
use polap_cli::{Dataset, Outcome, Session, SharedData};
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

/// Removes a store file and its WAL sidecar.
fn cleanup(path: &Path) {
    std::fs::remove_file(path).ok();
    std::fs::remove_file(olap_store::wal::sidecar_path(path)).ok();
}

/// Copies a store image: the main file, plus the WAL sidecar when one
/// exists (a fresh base copy has none — the follower's first apply
/// creates it, which is exactly the `ensure_wal` crash window the
/// sweep below exercises).
fn copy_store(src: &Path, dst: &Path) {
    cleanup(dst);
    std::fs::copy(src, dst).unwrap();
    let src_wal = olap_store::wal::sidecar_path(src);
    if src_wal.exists() {
        std::fs::copy(src_wal, olap_store::wal::sidecar_path(dst)).unwrap();
    }
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

/// A leader with committed base content, capture on from `base_pos`,
/// and `rounds` captured flush transactions (the second one
/// multi-chunk, so a frame can tear *between* and *inside* CHUNK
/// records).
fn leader_with_history(path: &Path, rounds: usize) -> (FileStore, u64, Vec<Arc<WalTxn>>) {
    cleanup(path);
    let mut s = FileStore::create(path).unwrap();
    s.begin_flush().unwrap();
    s.write(ChunkId(1), &chunk(1.0)).unwrap();
    s.write(ChunkId(2), &chunk(2.0)).unwrap();
    s.commit_flush().unwrap();
    s.set_replication(true);
    let base_pos = s.replication_position();
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
    let txns = s.retained_since(base_pos).unwrap();
    assert_eq!(txns.len(), rounds);
    (s, base_pos, txns)
}

#[test]
fn torn_shipping_frames_are_rejected_whole() {
    let lpath = tmp("torn-leader");
    let (_leader, _base, txns) = leader_with_history(&lpath, 2);
    // The multi-chunk transaction: cut the encoded frame at every byte
    // boundary — including mid-BEGIN, between CHUNKs, and mid-CHUNK —
    // and at every boundary the whole frame must be refused (a
    // follower never sees a partial transaction).
    let bytes = encode_txn(&txns[1]).unwrap();
    assert!(txns[1].chunks.len() > 1, "want a multi-chunk txn");
    for cut in 0..bytes.len() {
        assert!(decode_txn(&bytes[..cut]).is_err(), "cut at {cut}");
    }
    // A bit flip anywhere inside is a CRC failure, not a partial apply.
    for pos in (0..bytes.len()).step_by(97) {
        let mut bad = bytes.clone();
        bad[pos] ^= 0x04;
        assert!(decode_txn(&bad).is_err(), "flip at {pos}");
    }
    cleanup(&lpath);
}

#[test]
fn duplicate_delivery_is_a_no_op_and_gaps_are_refused() {
    let lpath = tmp("dup-leader");
    let fpath = tmp("dup-follower");
    cleanup(&fpath);
    let (_leader, _base, txns) = {
        // Copy the base image before any captured transaction exists.
        cleanup(&lpath);
        let mut s = FileStore::create(&lpath).unwrap();
        s.begin_flush().unwrap();
        s.write(ChunkId(1), &chunk(1.0)).unwrap();
        s.commit_flush().unwrap();
        s.set_replication(true);
        let base = s.replication_position();
        std::fs::copy(&lpath, &fpath).unwrap();
        s.begin_flush().unwrap();
        s.write(ChunkId(2), &chunk(2.0)).unwrap();
        s.commit_flush().unwrap();
        s.begin_flush().unwrap();
        s.write(ChunkId(1), &chunk(9.0)).unwrap();
        s.write(ChunkId(3), &chunk(3.0)).unwrap();
        s.commit_flush().unwrap();
        let txns = s.retained_since(base).unwrap();
        (s, base, txns)
    };
    let mut f = FileStore::open(&fpath).unwrap();
    // Applying t2 before t1 is a gap: refused before any I/O.
    let gap = f.apply_replicated(&txns[1]);
    assert!(gap.is_err(), "gap must be refused");
    let before = main_bytes(&fpath);
    assert_eq!(main_bytes(&fpath), before, "refused gap wrote nothing");
    // In order: t1, then t1 again (at-least-once redelivery), then t2.
    assert!(matches!(
        f.apply_replicated(&txns[0]).unwrap(),
        ReplApply::Applied
    ));
    let after_t1 = main_bytes(&fpath);
    assert!(matches!(
        f.apply_replicated(&txns[0]).unwrap(),
        ReplApply::Duplicate
    ));
    assert_eq!(main_bytes(&fpath), after_t1, "duplicate wrote nothing");
    assert!(matches!(
        f.apply_replicated(&txns[1]).unwrap(),
        ReplApply::Applied
    ));
    assert_eq!(f.replication_position(), txn_end(&txns[1]));
    // Byte-identical to the leader's main log.
    assert_eq!(main_bytes(&fpath), main_bytes(&lpath));
    cleanup(&lpath);
    cleanup(&fpath);
}

/// The replication crash-point sweep: for every captured transaction,
/// inject a crash after every physical store operation of its apply —
/// including the follower's first-ever WAL creation (sidecar create +
/// directory fsync) — and require the re-opened file to be exactly the
/// pre- or post-transaction image, then require the re-delivered
/// transaction to finish the job. Every intermediate and final image
/// must be a byte prefix of the leader's log.
#[test]
fn follower_crash_at_every_op_recovers_pre_or_post_image() {
    let lpath = tmp("sweep-leader");
    let fpath = tmp("sweep-follower");
    let scratch = tmp("sweep-scratch");
    let crashp = tmp("sweep-crash");
    cleanup(&lpath);
    let mut leader = FileStore::create(&lpath).unwrap();
    leader.begin_flush().unwrap();
    leader.write(ChunkId(1), &chunk(1.0)).unwrap();
    leader.write(ChunkId(2), &chunk(2.0)).unwrap();
    leader.commit_flush().unwrap();
    leader.set_replication(true);
    let base = leader.replication_position();
    // The follower's base image: the main file only — no WAL sidecar,
    // so the first apply walks the WAL-creation crash points too.
    cleanup(&fpath);
    std::fs::copy(&lpath, &fpath).unwrap();
    for r in 0..3u64 {
        leader.begin_flush().unwrap();
        leader.write(ChunkId(1), &chunk(100.0 + r as f64)).unwrap();
        if r == 1 {
            leader.write(ChunkId(7), &chunk(7.7)).unwrap();
            leader.write(ChunkId(2), &chunk(2.2)).unwrap();
        }
        leader.commit_flush().unwrap();
    }
    let txns = leader.retained_since(base).unwrap();
    let leader_bytes = main_bytes(&lpath);

    let mut crash_points = 0u64;
    for txn in &txns {
        let pre = main_bytes(&fpath);
        // Dry run on a scratch copy to learn the op count and the
        // post-image.
        copy_store(&fpath, &scratch);
        let post = {
            let mut s = FileStore::open(&scratch).unwrap();
            let ops0 = s.phys_ops();
            assert!(matches!(
                s.apply_replicated(txn).unwrap(),
                ReplApply::Applied
            ));
            let ops = s.phys_ops() - ops0;
            assert!(ops > 0);
            crash_points += ops;
            (ops, main_bytes(&scratch))
        };
        let (ops, post_bytes) = post;
        assert!(
            leader_bytes.starts_with(&post_bytes),
            "post-image must be a prefix of the leader log"
        );
        for k in 0..ops {
            copy_store(&fpath, &crashp);
            let mut s = FileStore::open(&crashp).unwrap();
            s.set_crash_after_ops(Some(k));
            let crashed = s.apply_replicated(txn);
            drop(s);
            // Recovery on re-open must land on exactly one of the two
            // committed images, and redelivery must converge to post.
            let mut s = FileStore::open(&crashp).unwrap();
            let got = main_bytes(&crashp);
            if crashed.is_ok() {
                // The crash budget outlived the apply (k beyond its
                // last op): the image is simply post.
                assert_eq!(got, post_bytes, "k={k}");
            } else {
                assert!(
                    got == pre || got == post_bytes,
                    "k={k}: recovered image is neither pre nor post ({} bytes, pre {} post {})",
                    got.len(),
                    pre.len(),
                    post_bytes.len()
                );
            }
            let redeliver = s.apply_replicated(txn).unwrap();
            match redeliver {
                ReplApply::Applied | ReplApply::Duplicate => {}
            }
            assert_eq!(
                main_bytes(&crashp),
                post_bytes,
                "k={k}: redelivery converges"
            );
        }
        // Advance the real follower cleanly.
        let mut f = FileStore::open(&fpath).unwrap();
        assert!(matches!(
            f.apply_replicated(txn).unwrap(),
            ReplApply::Applied
        ));
        assert_eq!(main_bytes(&fpath), post_bytes);
    }
    assert!(
        crash_points >= 10,
        "sweep exercised {crash_points} crash points"
    );
    assert_eq!(
        main_bytes(&fpath),
        leader_bytes,
        "follower converged byte-identically"
    );
    for p in [&lpath, &fpath, &scratch, &crashp] {
        cleanup(p);
    }
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
    cleanup(&lpath);
    cleanup(&fpath);
}
