//! Fault-injection suite (ISSUE 4): under any scheduled storage fault,
//! a query either returns `Err` or the bit-identical answer of a
//! fault-free run — never a panic, a hang, or a silently wrong cell.
//!
//! Faults are injected by wrapping the cube's backing store in a
//! [`FaultStore`] with [`fault::inject`], which drains the pool first so
//! reads actually reach the store. Schedules are scripted for the
//! regression tests and seed-derived for the property tests. Contention
//! comes from concurrent requests, the server's shape: several callers,
//! each on its own thread, run one serial `apply` or `compute` apiece
//! over the one faulted cube and its shared pool.

use olap_cube::{CubeAggregator, CubeError, Lattice};
use olap_store::StoreError;
use olap_workload::running_example;
use proptest::prelude::*;
use std::time::{Duration, Instant};
use whatif_core::{apply, ExecOpts, Mode, Scenario, Semantics, WhatIfError};
use whatif_integration_tests::concurrently;
use whatif_integration_tests::fault::{self, FaultKind, FaultOp, FaultSpec, FaultStore};

/// Hard per-query wall-clock budget: generous for slow CI machines but
/// far below any hang (condvar waiters stranded on a failed read would
/// block forever, not for seconds).
const QUERY_TIME_BUDGET: Duration = Duration::from_secs(60);

/// The injected transient class, seen through either wrapper layer.
fn cube_err_is_io(e: &CubeError) -> bool {
    matches!(e, CubeError::Store(StoreError::Io(_)))
}

fn whatif_err_is_io(e: &WhatIfError) -> bool {
    match e {
        WhatIfError::Store(StoreError::Io(_)) => true,
        WhatIfError::Cube(c) => cube_err_is_io(c),
        _ => false,
    }
}

fn whatif_err_is_corrupt(e: &WhatIfError) -> bool {
    matches!(
        e,
        WhatIfError::Store(StoreError::Corrupt(_))
            | WhatIfError::Cube(CubeError::Store(StoreError::Corrupt(_)))
    )
}

/// A running-example cube whose store is wrapped by `wrap` after the
/// pool is drained, so every chunk read goes through the fault plan.
fn faulted_example(
    wrap: impl FnOnce(Box<dyn olap_store::ChunkStore>) -> FaultStore,
) -> olap_workload::RunningExample {
    let ex = running_example();
    ex.cube.flush().unwrap();
    ex.cube.with_pool(|pool| fault::inject(pool, wrap));
    ex
}

fn whatif_scenario(ex: &olap_workload::RunningExample) -> Scenario {
    Scenario::negative(ex.org, [1, 3], Semantics::Forward, Mode::Visual)
}

/// The pebbling what-if, one serial request.
fn apply_serial(
    cube: &olap_cube::Cube,
    scenario: &Scenario,
) -> whatif_core::Result<olap_cube::Cube> {
    apply(cube, scenario, None, &ExecOpts::default()).map(|(out, _)| out)
}

/// Satellite regression: exactly one transient read failure under
/// contention. The bounded retry absorbs it — every concurrent what-if
/// must *succeed* and match the fault-free run bit for bit, with no
/// stranded condvar waiter (the test completing is the hang assertion),
/// and the fault is retried exactly once across all callers.
#[test]
fn single_transient_read_fault_under_contention_is_absorbed() {
    let baseline = {
        let ex = running_example();
        let scenario = whatif_scenario(&ex);
        apply_serial(&ex.cube, &scenario).unwrap()
    };
    let ex = faulted_example(|s| FaultStore::fail_nth_read(s, 1));
    let scenario = whatif_scenario(&ex);
    let start = Instant::now();
    for got in concurrently(4, || apply_serial(&ex.cube, &scenario)) {
        let got = got
            .expect("a caller panicked")
            .expect("one transient fault must be retried, not surfaced");
        assert!(got.same_cells(&baseline).unwrap());
    }
    assert!(start.elapsed() < QUERY_TIME_BUDGET, "query stalled");
    let stats = ex.cube.pool_stats();
    assert_eq!(stats.retries, 1, "the fault must be visible in stats");
    assert_eq!(stats.read_errors, 0);
}

/// A dead device (persistent read failure) makes queries return `Err` —
/// alone and from concurrent callers, aggregation and what-if — never
/// panic or hang.
#[test]
fn persistent_read_fault_surfaces_as_err_everywhere() {
    let plan = vec![FaultSpec {
        op: FaultOp::Read,
        at: 1,
        kind: FaultKind::Error,
        persistent: true,
    }];
    let ex = faulted_example(|s| FaultStore::new(s, plan));
    let scenario = whatif_scenario(&ex);
    let start = Instant::now();

    let masks = Lattice::new(ex.cube.geometry().ndims()).proper_masks();
    for callers in [1, 4] {
        let aggregate = || CubeAggregator::new(&ex.cube).compute(&masks);
        for r in concurrently(callers, aggregate) {
            assert!(
                matches!(r, Ok(Err(ref e)) if cube_err_is_io(e)),
                "{callers} callers: dead device must surface as Err from aggregation"
            );
        }
        for r in concurrently(callers, || apply_serial(&ex.cube, &scenario)) {
            assert!(
                matches!(r, Ok(Err(ref e)) if whatif_err_is_io(e)),
                "{callers} callers: dead device must surface as Err from the what-if"
            );
        }
    }
    assert!(start.elapsed() < QUERY_TIME_BUDGET, "query stalled");
    let stats = ex.cube.pool_stats();
    assert!(stats.read_errors >= 1);
}

/// Bit-flip corruption is caught by the OLC3 checksum and surfaces as
/// `StoreError::Corrupt` — garbage cells can never flow into a result.
#[test]
fn bit_flip_fault_yields_corrupt_not_garbage() {
    let plan = vec![FaultSpec {
        op: FaultOp::Read,
        at: 1,
        kind: FaultKind::BitFlip,
        persistent: false,
    }];
    let ex = faulted_example(|s| FaultStore::new(s, plan));
    let scenario = whatif_scenario(&ex);
    let r = apply(&ex.cube, &scenario, None, &ExecOpts::default());
    assert!(matches!(r, Err(ref e) if whatif_err_is_corrupt(e)));
    // The flip was injected on the read path only; the store itself is
    // intact, so the same query now succeeds and matches a clean run.
    let (clean, _) = {
        let clean_ex = running_example();
        apply(
            &clean_ex.cube,
            &whatif_scenario(&clean_ex),
            None,
            &ExecOpts::default(),
        )
        .unwrap()
    };
    let (retried, _) = apply(&ex.cube, &scenario, None, &ExecOpts::default()).unwrap();
    assert!(retried.same_cells(&clean).unwrap());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The tentpole invariant, aggregation edition: under a seed-derived
    /// random fault schedule (single- and multi-fault, transient and
    /// persistent, errors/bit-flips/delays), each of 1–4 concurrent
    /// `compute` calls over the full lattice either errors or produces
    /// bitwise-identical grand totals — and never panics or exceeds the
    /// time budget.
    #[test]
    fn random_fault_schedules_aggregation_err_or_identical(
        seed in 0u64..u64::MAX,
        callers in 1usize..5,
    ) {
        let baseline = {
            let ex = running_example();
            let masks = Lattice::new(ex.cube.geometry().ndims()).proper_masks();
            CubeAggregator::new(&ex.cube).compute(&masks).unwrap()
        };
        let ex = faulted_example(|s| FaultStore::with_random_plan(s, seed));
        let masks = Lattice::new(ex.cube.geometry().ndims()).proper_masks();
        let start = Instant::now();
        let outcomes = concurrently(callers, || CubeAggregator::new(&ex.cube).compute(&masks));
        prop_assert!(start.elapsed() < QUERY_TIME_BUDGET, "query stalled");
        for outcome in outcomes {
            let Ok(result) = outcome else {
                return Err(TestCaseError::Fail(format!("seed {seed}: query panicked")));
            };
            // Err is an allowed outcome — silent divergence is not.
            if let Ok((got, _report)) = result {
                let (want, _) = &baseline;
                prop_assert_eq!(got.len(), want.len());
                for (mask, result) in want {
                    prop_assert_eq!(
                        result.grand_total(),
                        got[mask].grand_total(),
                        "seed {}: mask {:b} total diverged under faults", seed, mask
                    );
                }
            }
        }
    }

    /// The tentpole invariant, what-if edition: a random fault schedule
    /// under 1–4 concurrent scenario merges yields, for each, `Err` or a
    /// perspective cube bit-identical to the fault-free run.
    #[test]
    fn random_fault_schedules_whatif_err_or_identical(
        seed in 0u64..u64::MAX,
        callers in 1usize..5,
    ) {
        let baseline = {
            let ex = running_example();
            let scenario = whatif_scenario(&ex);
            apply_serial(&ex.cube, &scenario).unwrap()
        };
        let ex = faulted_example(|s| FaultStore::with_random_plan(s, seed));
        let scenario = whatif_scenario(&ex);
        let start = Instant::now();
        let outcomes = concurrently(callers, || apply_serial(&ex.cube, &scenario));
        prop_assert!(start.elapsed() < QUERY_TIME_BUDGET, "query stalled");
        for outcome in outcomes {
            let Ok(result) = outcome else {
                return Err(TestCaseError::Fail(format!("seed {seed}: query panicked")));
            };
            if let Ok(got) = result {
                prop_assert!(
                    got.same_cells(&baseline).unwrap(),
                    "seed {}: perspective cube silently diverged under faults", seed
                );
            }
        }
    }
}
