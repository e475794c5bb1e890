//! `cell_digest` — the fingerprint every `.apply` reply carries — must
//! not move by a bit: golden `.apply` transcripts captured with the
//! per-cell digest, and a seed-derived differential test of the row and
//! table kernel against that per-cell body on random geometries.

use olap_cube::Cube;
use olap_model::{DimensionSpec, MemberId, SchemaBuilder};
use olap_store::{CellValue, ChunkGeometry};
use polap_cli::{cell_digest, is_refusal, Dataset, Outcome, Session, SharedData};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{RngCore, RngExt, SeedableRng};
use std::sync::Arc;
use whatif_core::{Change, ExecOpts, Mode, PerspectiveSpec, Scenario};
use whatif_integration_tests::random_warehouse;

/// The digest as it was computed before the row kernel, kept verbatim
/// as the oracle: one FNV-1a hash per present cell over its coordinates
/// and value bits, summed.
fn per_cell_digest(cube: &olap_cube::Cube) -> olap_cube::Result<(u64, u64)> {
    let mut count = 0u64;
    let mut digest = 0u64;
    cube.for_each_present(|coords, v| {
        let mut h = whatif_core::Fnv64::new();
        for &c in coords {
            h.write_u32(c);
        }
        h.write_u64(v.to_bits());
        digest = digest.wrapping_add(h.finish());
        count += 1;
    })?;
    Ok((count, digest))
}

/// Calls `f(coords)` for every coordinate of a row-major array of `shape`.
fn for_each_coord(shape: &[u32], mut f: impl FnMut(&[u32])) {
    if shape.contains(&0) {
        return;
    }
    let mut coords = vec![0u32; shape.len()];
    loop {
        f(&coords);
        let mut d = shape.len();
        loop {
            if d == 0 {
                return;
            }
            d -= 1;
            coords[d] += 1;
            if coords[d] < shape[d] {
                break;
            }
            coords[d] = 0;
        }
    }
}

/// Any non-NaN bit pattern: signs, zeros, subnormals and infinities all
/// reach the hash through `to_bits`.
fn value(rng: &mut StdRng) -> f64 {
    loop {
        let v = f64::from_bits(rng.next_u64());
        if !v.is_nan() {
            return v;
        }
    }
}

/// A random geometry of 1–7 axes: mostly short axes with clipped edge
/// chunks, sometimes an axis longer than 255 (row coordinates past one
/// byte), sometimes Workforce's tail of length-2 axes cut into extent-1
/// chunks, sometimes every chunk a single cell. At most ~30k cells.
fn random_geometry(rng: &mut StdRng) -> (Vec<u32>, Vec<u32>) {
    let tail = rng.random_range(0usize..=2);
    let ndims = rng.random_range(1usize..=7).max(tail + 1);
    let mut lens = Vec::new();
    let mut extents = Vec::new();
    for _ in 0..ndims - tail {
        let len = match rng.random_range(0u32..8) {
            0 => rng.random_range(256u32..=700),
            1 => 1,
            _ => rng.random_range(1u32..=6),
        };
        extents.push(match rng.random_range(0u32..4) {
            0 => 1,
            1 => len,
            _ => rng.random_range(1..=len + 1),
        });
        lens.push(len);
    }
    for _ in 0..tail {
        lens.push(2);
        extents.push(1);
    }
    if rng.random_bool(0.1) {
        extents.iter_mut().for_each(|e| *e = 1);
    }
    while lens.iter().map(|&l| u64::from(l)).product::<u64>() > 30_000 {
        let i = (0..lens.len()).max_by_key(|&i| lens[i]).unwrap();
        lens[i] /= 2;
    }
    (lens, extents)
}

/// A cube over `lens` / `extents` whose chunks are a mix of implicit-⊥,
/// sparse and dense, then touched by writes left unflushed in the pool
/// (some into chunks the store never held, some clearing cells).
fn random_cube(rng: &mut StdRng, lens: &[u32], extents: &[u32]) -> Cube {
    let mut schema = SchemaBuilder::new();
    for (i, &l) in lens.iter().enumerate() {
        let names: Vec<String> = (0..l).map(|j| format!("m{j}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        schema = schema.dimension(DimensionSpec::new(&format!("D{i}")).leaves(&refs));
    }
    let schema = Arc::new(schema.build().unwrap());
    let geom = ChunkGeometry::new(lens.to_vec(), extents.to_vec()).unwrap();
    let fill: Vec<f64> = (0..geom.total_chunks())
        .map(|_| [0.0, 0.0, 0.02, 0.3, 0.9, 1.0][rng.random_range(0usize..6)])
        .collect();
    let mut b = Cube::builder(schema, extents.to_vec()).unwrap();
    for_each_coord(lens, |cell| {
        let (id, _) = geom.split_cell(cell);
        if rng.random_bool(fill[id.0 as usize]) {
            b.set_num(cell, value(rng)).unwrap();
        }
    });
    let cube = b.finish().unwrap();
    for round in 0..2 {
        if round == 1 && rng.random_bool(0.5) {
            cube.flush().unwrap();
        }
        for _ in 0..rng.random_range(0usize..=6) {
            let cell: Vec<u32> = lens.iter().map(|&l| rng.random_range(0..l)).collect();
            let v = if rng.random_bool(0.3) {
                CellValue::Null
            } else {
                CellValue::num(value(rng))
            };
            cube.set(&cell, v).unwrap();
        }
    }
    cube
}

fn assert_digests_agree(cube: &Cube, what: &str) {
    let want = per_cell_digest(cube).unwrap();
    assert_eq!(cell_digest(cube).unwrap(), want, "{what}");
    assert_eq!(cube.present_cell_count().unwrap(), want.0, "{what}");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(160))]

    /// The row and table kernel returns the per-cell `(count, digest)`
    /// bit for bit on random geometries and fills.
    #[test]
    fn row_kernel_matches_per_cell_digest(seed in 0u64..u64::MAX) {
        let mut rng = StdRng::seed_from_u64(seed);
        let (lens, extents) = random_geometry(&mut rng);
        let cube = random_cube(&mut rng, &lens, &extents);
        assert_digests_agree(&cube, &format!("seed {seed}: lens {lens:?} extents {extents:?}"));
    }
}

/// Chosen geometries: prefix coordinates past one byte, row coordinates
/// up to 279 in one-row chunks sharing one set of tables, clipped edge
/// chunks before extent-1 tails, all-singleton chunks, one axis, and
/// the empty cube.
#[test]
fn row_kernel_matches_per_cell_digest_on_chosen_geometries() {
    let cases: [(&[u32], &[u32]); 6] = [
        (&[600, 3, 2], &[600, 3, 1]),
        (&[600, 280], &[1, 280]),
        (&[5, 300, 2, 2], &[2, 128, 1, 1]),
        (&[7, 5, 3], &[1, 1, 1]),
        (&[9], &[4]),
        (&[4, 3], &[2, 2]),
    ];
    for (seed, (lens, extents)) in cases.into_iter().enumerate() {
        let mut rng = StdRng::seed_from_u64(seed as u64);
        let cube = random_cube(&mut rng, lens, extents);
        assert_digests_agree(&cube, &format!("lens {lens:?} extents {extents:?}"));
    }
    let empty = Cube::builder(
        Arc::new(
            SchemaBuilder::new()
                .dimension(DimensionSpec::new("D").leaves(&["a", "b"]))
                .build()
                .unwrap(),
        ),
        vec![1],
    )
    .unwrap()
    .finish()
    .unwrap();
    assert_eq!(cell_digest(&empty).unwrap(), (0, 0));
    assert_digests_agree(&empty, "empty cube");
}

/// `.apply` transcripts captured with the per-cell digest: all five
/// semantics, then a fork with one `.change` and a bare `.apply`. Each
/// file alternates a command line and its reply.
const GOLDEN: [(Dataset, &str); 3] = [
    (
        Dataset::Running,
        include_str!("../golden/apply_running.txt"),
    ),
    (Dataset::Bench, include_str!("../golden/apply_bench.txt")),
    (
        Dataset::Workforce,
        include_str!("../golden/apply_workforce.txt"),
    ),
];

#[test]
fn apply_replies_match_the_per_cell_digest() {
    for (dataset, transcript) in GOLDEN {
        let mut session = Session::new(dataset);
        let lines: Vec<&str> = transcript.lines().collect();
        assert_eq!(lines.len() % 2, 0, "{dataset:?}: odd transcript");
        for pair in lines.chunks(2) {
            match session.handle(pair[0]) {
                Outcome::Continue(reply) => assert_eq!(reply, pair[1], "{dataset:?}: {}", pair[0]),
                other => panic!("{dataset:?}: {}: {other:?}", pair[0]),
            }
        }
    }
}

/// A varying warehouse (`random_warehouse`) re-chunked over random
/// extents, so that chunk shapes, clipped edges and a grown axis's
/// renumbering vary with the seed.
fn random_varying_cube(seed: u64) -> Cube {
    let mut rng = StdRng::seed_from_u64(seed);
    let (groups, members) = (rng.random_range(2..=4), rng.random_range(3..=12));
    let (moments, changers) = (rng.random_range(3..=8), rng.random_range(1..=6));
    let w = random_warehouse(seed, groups, members, moments, changers);
    let extents: Vec<u32> = (w.schema.shape().iter())
        .map(|&len| rng.random_range(1..=len))
        .collect();
    let mut b = Cube::builder(Arc::clone(&w.schema), extents).unwrap();
    w.cube
        .for_each_present(|cell, v| b.set_num(cell, v).unwrap())
        .unwrap();
    b.finish().unwrap()
}

/// The `(count, digest)` an `.apply` reply states.
fn reply_digest(reply: &str) -> (u64, u64) {
    let (_, rest) = reply.rsplit_once(": ").expect(reply);
    let (count, rest) = rest.split_once(" cells, digest ").expect(reply);
    let hex = rest.split(',').next().unwrap();
    (
        count.parse().unwrap(),
        u64::from_str_radix(hex, 16).unwrap(),
    )
}

/// Runs `line` on `session` and checks its digest against `cell_digest`
/// and the per-cell digest of `whatif_core::apply`'s result for the
/// same scenario on the same (possibly since written) base cube.
fn check_apply(session: &mut Session, line: &str, scenario: &Scenario, what: &str) {
    let reply = match session.handle(line) {
        Outcome::Continue(reply) if !is_refusal(&reply) => reply,
        other => panic!("{what}: {line}: {other:?}"),
    };
    let cube = session.shared().cube();
    let (out, _) = whatif_core::apply(cube, scenario, None, &ExecOpts::default()).unwrap();
    let want = per_cell_digest(&out).unwrap();
    assert_eq!(cell_digest(&out).unwrap(), want, "{what}: {line}");
    assert_eq!(reply_digest(&reply), want, "{what}: {line}: {reply}");
}

/// Appends one positive change that the product accepts to `session`'s
/// current fork, and returns the scenario it stands for.
fn accepted_change(session: &mut Session, rng: &mut StdRng, what: &str) -> Scenario {
    let schema = Arc::clone(session.shared().cube().schema());
    let dim = schema
        .dim_ids()
        .find(|&d| schema.varying(d).is_some())
        .unwrap();
    let (dimension, varying) = (schema.dim(dim), schema.varying(dim).unwrap());
    let parents: Vec<MemberId> = (dimension.members_at_level(1).into_iter())
        .filter(|&m| !dimension.is_leaf(m))
        .collect();
    for _ in 0..64 {
        let leaf = dimension.leaves()[rng.random_range(0..dimension.leaves().len())];
        let parent = parents[rng.random_range(0..parents.len())];
        let at = rng.random_range(1..varying.moments());
        let (m, n) = (dimension.member_name(leaf), dimension.member_name(parent));
        let line = format!(".change {m} {n} {at}");
        if let Outcome::Continue(reply) = session.handle(&line) {
            if !is_refusal(&reply) {
                let change = Change {
                    member: dimension.find(m).unwrap(),
                    old_parent: None,
                    new_parent: dimension.find(n).unwrap(),
                    at,
                };
                return Scenario::positive(dim, vec![change], Mode::Visual);
            }
        }
    }
    panic!("{what}: no change accepted");
}

/// `.apply`'s digest, memoised on `SharedData` by chunk identity, equals
/// `cell_digest` and the per-cell digest of the same `apply` result:
/// every semantics with 1–4 moments (one count per semantics on the
/// larger `bench` cube) and a positive `.change`, each run cold (first
/// sight of its merged chunks) and warm (a replay), negative and
/// positive alternating, while a second session on the same data writes
/// base cells and commits them between the runs.
#[test]
fn apply_digest_memo_matches_the_full_digest() {
    let mut cached = SharedData::load(Dataset::Running);
    cached.set_cache_mb(8);
    let mut datasets: Vec<(String, SharedData)> = vec![
        ("running".into(), SharedData::load(Dataset::Running)),
        ("running, cached".into(), cached),
        ("bench".into(), SharedData::load(Dataset::Bench)),
    ];
    for seed in 0..6 {
        let cube = random_varying_cube(seed);
        datasets.push((format!("random {seed}"), SharedData::from(cube)));
    }
    for (i, (name, shared)) in datasets.into_iter().enumerate() {
        let shared = Arc::new(shared);
        let (mut s, mut writer) = (
            Session::attach(Arc::clone(&shared)),
            Session::attach(shared),
        );
        let mut rng = StdRng::seed_from_u64(i as u64);
        let schema = Arc::clone(s.shared().cube().schema());
        let dim = schema
            .dim_ids()
            .find(|&d| schema.varying(d).is_some())
            .unwrap();
        let moments = schema.varying(dim).unwrap().moments();
        let lens = schema.shape();
        let mut fork = 0;
        let sems = ["static", "forward", "xforward", "backward", "xbackward"];
        for (j, sem) in sems.into_iter().enumerate() {
            let ks = match name.as_str() {
                "bench" => 1 + j as u32 % 4..=1 + j as u32 % 4,
                _ => 1..=4.min(moments),
            };
            for k in ks {
                let what = format!("{name}: {sem} k={k}");
                let mut p: Vec<u32> = (0..moments).collect();
                while p.len() > k as usize {
                    p.remove(rng.random_range(0..p.len()));
                }
                let list: Vec<String> = p.iter().map(u32::to_string).collect();
                let line = format!(".apply {sem} {}", list.join(","));
                let spec = PerspectiveSpec::new(dim, p.clone(), semantics(sem), Mode::Visual);
                let negative = Scenario::Negative(spec);
                check_apply(&mut s, &line, &negative, &what);
                fork += 1;
                assert!(matches!(
                    s.handle(&format!(".fork f{fork}")),
                    Outcome::Continue(_)
                ));
                let positive = accepted_change(&mut s, &mut rng, &what);
                check_apply(&mut s, ".apply", &positive, &what);

                let cell: Vec<u32> = lens.iter().map(|&l| rng.random_range(0..l)).collect();
                let v = CellValue::num(rng.random_range(1.0..1000.0_f64).round());
                writer.shared().cube().set(&cell, v).unwrap();
                assert!(
                    matches!(writer.handle(".commit"), Outcome::Continue(t) if t.contains("flushed"))
                );

                assert!(matches!(s.handle(".switch main"), Outcome::Continue(_)));
                check_apply(&mut s, ".apply", &negative, &what);
                check_apply(&mut s, ".apply", &negative, &what);
                assert!(matches!(
                    s.handle(&format!(".switch f{fork}")),
                    Outcome::Continue(_)
                ));
                check_apply(&mut s, ".apply", &positive, &what);
                assert!(matches!(s.handle(".switch main"), Outcome::Continue(_)));
            }
        }
    }
}

fn semantics(name: &str) -> whatif_core::Semantics {
    use whatif_core::Semantics::*;
    match name {
        "static" => Static,
        "forward" => Forward,
        "xforward" => ExtendedForward,
        "backward" => Backward,
        _ => ExtendedBackward,
    }
}
