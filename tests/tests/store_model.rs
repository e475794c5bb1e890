//! Model-based property tests for the storage substrate: the file store
//! against a hash-map model (through overwrites, reorganizations, and
//! reopens), the buffer pool's caching contract, and Zhao et al.'s memory
//! prediction against the aggregation engine's observed peak.

use olap_cube::{lattice, Cube, CubeAggregator, Lattice};
use olap_model::{DimensionSpec, SchemaBuilder};
use olap_store::{BufferPool, CellValue, Chunk, ChunkId, ChunkStore, FileStore, MemStore};
use proptest::prelude::*;
use std::collections::HashMap;
use std::sync::Arc;
use whatif_integration_tests::commit;

fn tmp(tag: u64) -> std::path::PathBuf {
    std::env::temp_dir().join(format!(
        "polap-store-model-{}-{tag}.dat",
        std::process::id()
    ))
}

fn chunk_of(vals: &[(u32, f64)]) -> Chunk {
    let mut c = Chunk::new_dense(vec![16]);
    for &(o, v) in vals {
        c.set(o % 16, CellValue::num(v));
    }
    c
}

/// Operations the file-store model test drives.
#[derive(Debug, Clone)]
enum Op {
    Write(u64, Vec<(u32, f64)>),
    Reorganize(Vec<u64>),
    Reopen,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        4 => (0u64..12, proptest::collection::vec((0u32..16, -1e3f64..1e3), 0..6))
            .prop_map(|(id, vals)| Op::Write(id, vals)),
        1 => proptest::collection::vec(0u64..12, 0..6).prop_map(Op::Reorganize),
        1 => Just(Op::Reopen),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The file store behaves like a map under writes, overwrites,
    /// physical reorganization, and reopen.
    #[test]
    fn filestore_matches_map_model(tag in 0u64..10_000, ops in proptest::collection::vec(arb_op(), 1..25)) {
        let path = tmp(tag);
        let mut store = FileStore::create(&path).unwrap();
        let mut model: HashMap<u64, Chunk> = HashMap::new();
        for op in ops {
            match op {
                Op::Write(id, vals) => {
                    let c = chunk_of(&vals);
                    commit(&mut store, &[(ChunkId(id), c.clone())]);
                    model.insert(id, c);
                }
                Op::Reorganize(order) => {
                    let ids: Vec<ChunkId> = order.into_iter().map(ChunkId).collect();
                    store.reorganize(&ids).unwrap();
                    // Only the rewritten image's BEGIN and COMMIT (36
                    // bytes each) are dead.
                    prop_assert_eq!(store.dead_bytes(), 72);
                }
                Op::Reopen => {
                    drop(store);
                    store = FileStore::open(&path).unwrap();
                }
            }
            // Full read-back check after every op.
            prop_assert_eq!(store.ids().len(), model.len());
            for (&id, expect) in &model {
                let got = store.read(ChunkId(id)).unwrap();
                prop_assert!(got.same_cells(expect), "chunk {} diverged", id);
            }
            for id in store.ids() {
                prop_assert!(model.contains_key(&id.0));
            }
        }
        std::fs::remove_file(&path).ok();
    }

    /// The buffer pool never lies: every get returns the latest content,
    /// hits + misses count every get, residency never exceeds capacity,
    /// and a flush hands the store every update.
    #[test]
    fn buffer_pool_contract(
        capacity in 1usize..5,
        ops in proptest::collection::vec((0u64..8, any::<bool>()), 1..40),
    ) {
        let mut backing = MemStore::new();
        let mut model: HashMap<u64, Chunk> = HashMap::new();
        for id in 0..8u64 {
            let c = chunk_of(&[(id as u32 % 16, id as f64)]);
            backing.write(ChunkId(id), &c).unwrap();
            model.insert(id, c);
        }
        let pool = BufferPool::new(Box::new(backing), capacity);
        let mut gets = 0u64;
        for (id, put) in ops {
            if put {
                let c = chunk_of(&[(3, id as f64 * 2.0)]);
                pool.put(ChunkId(id), c.clone()).unwrap();
                model.insert(id, c);
            } else {
                let got = pool.get(ChunkId(id)).unwrap();
                gets += 1;
                prop_assert!(got.same_cells(&model[&id]));
            }
            let stats = pool.stats();
            prop_assert_eq!(stats.hits + stats.misses, gets);
            prop_assert!(pool.resident() <= capacity);
        }
        // Flush, then verify the backing store has every update.
        pool.flush_all().unwrap();
        let store = pool.store();
        for (&id, expect) in &model {
            prop_assert!(store.read(ChunkId(id)).unwrap().same_cells(expect));
        }
    }

    /// Zhao's memory rule is exact for direct children of the base cube:
    /// the aggregator's observed peak chunk buffers equals the predicted
    /// requirement when computing one such group-by alone.
    #[test]
    fn zhao_prediction_exact_for_base_children(
        lens in proptest::collection::vec(2u32..9, 3..5),
        extent in 1u32..4,
        drop_dim_seed in 0u32..100,
        order_seed in 0u32..100,
    ) {
        let ndims = lens.len();
        let mut builder = SchemaBuilder::new();
        for (i, &l) in lens.iter().enumerate() {
            let names: Vec<String> = (0..l).map(|j| format!("m{j}")).collect();
            let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
            builder = builder.dimension(DimensionSpec::new(&format!("D{i}")).leaves(&refs));
        }
        let schema = Arc::new(builder.build().unwrap());
        let mut b = Cube::builder(schema, vec![extent; ndims]).unwrap();
        // A sprinkle of data so some chunks materialize (the memory rule
        // is about buffers, which exist regardless of data density).
        let mut cell = vec![0u32; ndims];
        for k in 0..lens[0] {
            cell[0] = k;
            cell[1] = k % lens[1];
            b.set_num(&cell, k as f64 + 1.0).unwrap();
        }
        let cube = b.finish().unwrap();
        // Random read order and dropped dimension.
        let mut order: Vec<usize> = (0..ndims).collect();
        order.rotate_left((order_seed as usize) % ndims);
        if order_seed % 2 == 0 {
            order.reverse();
        }
        let lattice_ = Lattice::new(ndims);
        let drop = (drop_dim_seed as usize) % ndims;
        let mask = lattice_.full() & !(1 << drop);
        let predicted = lattice::memory_chunks(cube.geometry(), &order, mask);
        let agg = CubeAggregator::with_order(&cube, order.clone());
        let (_, report) = agg.compute(&[mask]).unwrap();
        prop_assert_eq!(
            report.peak_buffer_chunks, predicted,
            "order {:?}, mask {:b}", order, mask
        );
    }
}

/// Pinned from `store_model.proptest-regressions`: the shrunk case
/// `lens = [2, 3, 2], extent = 2, drop_dim_seed = 50, order_seed = 31`
/// (i.e. mask 0b011 under read order [1, 2, 0]) once disagreed with the
/// Zhao prediction. Kept as an explicit test so the exact input runs on
/// every `cargo test`, independent of any proptest seed replay.
#[test]
fn regression_zhao_prediction_lens_2_3_2() {
    let lens = [2u32, 3, 2];
    let extent = 2u32;
    let ndims = lens.len();
    let mut builder = SchemaBuilder::new();
    for (i, &l) in lens.iter().enumerate() {
        let names: Vec<String> = (0..l).map(|j| format!("m{j}")).collect();
        let refs: Vec<&str> = names.iter().map(|s| s.as_str()).collect();
        builder = builder.dimension(DimensionSpec::new(&format!("D{i}")).leaves(&refs));
    }
    let schema = Arc::new(builder.build().unwrap());
    let mut b = Cube::builder(schema, vec![extent; ndims]).unwrap();
    let mut cell = vec![0u32; ndims];
    for k in 0..lens[0] {
        cell[0] = k;
        cell[1] = k % lens[1];
        b.set_num(&cell, k as f64 + 1.0).unwrap();
    }
    let cube = b.finish().unwrap();
    // drop_dim_seed = 50 → drop dim 2; order_seed = 31 → rotate by 1, no
    // reverse.
    let order = vec![1usize, 2, 0];
    let mask = Lattice::new(ndims).full() & !(1 << 2);
    let predicted = lattice::memory_chunks(cube.geometry(), &order, mask);
    let agg = CubeAggregator::with_order(&cube, order.clone());
    let (_, report) = agg.compute(&[mask]).unwrap();
    assert_eq!(
        report.peak_buffer_chunks, predicted,
        "order {order:?}, mask {mask:b}"
    );
}
