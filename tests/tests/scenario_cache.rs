//! Scenario-delta cache tests: a replay of one-perspective edits must do
//! strictly less work with the cache on, while staying bit-identical to
//! the uncached executor — and the default (cache off) path must be
//! byte-for-byte the seed behavior.

use olap_workload::{replay_scenarios, Workforce, WorkforceConfig};
use std::sync::Arc;
use whatif_core::{
    apply, apply_opts, ExecOpts, Mode, OrderPolicy, Scenario, ScenarioCache, Semantics, Strategy,
};

fn small_workforce() -> Workforce {
    Workforce::build(WorkforceConfig {
        employees: 120,
        departments: 6,
        changing: 30,
        employee_extent: 1,
        accounts: 2,
        scenarios: 1,
        ..WorkforceConfig::default()
    })
}

#[test]
fn cached_replay_is_identical_and_does_strictly_less_work() {
    let wf = small_workforce();
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
    // The `repro --replay` edit session: early history pinned, the last
    // perspective nudged back and forth.
    let scenarios = replay_scenarios(wf.department, Semantics::Forward);

    let mut baseline = Vec::new();
    let (mut reads_off, mut merges_off) = (0u64, 0u64);
    for s in &scenarios {
        let r = apply_opts(&wf.cube, s, &strategy, None, ExecOpts::default()).unwrap();
        reads_off += r.report.chunks_read;
        merges_off += r.report.merges;
        assert_eq!(
            r.report.cache_chunks_served, 0,
            "cache off must serve nothing"
        );
        baseline.push(r.cube);
    }

    let cache = Arc::new(ScenarioCache::with_capacity_mb(32));
    let opts = ExecOpts {
        cache: Some(cache.clone()),
        ..ExecOpts::default()
    };
    let (mut reads_on, mut merges_on) = (0u64, 0u64);
    for (s, expect) in scenarios.iter().zip(&baseline) {
        let r = apply_opts(&wf.cube, s, &strategy, None, opts.clone()).unwrap();
        reads_on += r.report.chunks_read;
        merges_on += r.report.merges;
        assert!(
            r.cube.same_cells(expect).unwrap(),
            "cached replay diverged from the uncached executor"
        );
    }

    let stats = cache.stats();
    assert!(stats.hits > 0, "replay produced no cache hits: {stats:?}");
    assert!(
        merges_on < merges_off,
        "cache did not reduce merges: {merges_on} vs {merges_off}"
    );
    assert!(
        reads_on < reads_off,
        "cache did not reduce chunk reads: {reads_on} vs {reads_off}"
    );
}

#[test]
fn warm_cache_serves_a_repeated_scenario_without_merging() {
    let wf = small_workforce();
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
    let scenario = Scenario::negative(
        wf.department,
        [0, 3, 6, 9],
        Semantics::Forward,
        Mode::Visual,
    );
    let cache = Arc::new(ScenarioCache::with_capacity_mb(32));
    let opts = ExecOpts {
        cache: Some(cache.clone()),
        ..ExecOpts::default()
    };

    let cold = apply_opts(&wf.cube, &scenario, &strategy, None, opts.clone()).unwrap();
    assert!(cold.report.merges > 0, "cold run must do real merge work");

    let warm = apply_opts(&wf.cube, &scenario, &strategy, None, opts).unwrap();
    assert_eq!(
        warm.report.merges, 0,
        "warm identical replay must merge nothing"
    );
    assert!(warm.report.cache_chunks_served > 0);
    assert!(warm.cube.same_cells(&cold.cube).unwrap());
    assert!(cache.stats().hits > 0);
}

/// The versioned-cache regression: an analyst toggling K scenarios
/// (A↔B, then A→B→C) must find every one warm after one pass over each
/// — every probe a hit, zero merges, bit-identical cells on every
/// switch. Under the old one-digest-per-chunk keying every switch
/// destroyed the other scenarios' entries and re-merged from scratch.
#[test]
fn ab_toggle_replays_warm_with_zero_misses_and_merges() {
    const ROUNDS: usize = 4;
    let wf = small_workforce();
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
    for k in [2, 3] {
        let scenarios: Vec<Scenario> = [[0, 3, 6, 9], [0, 3, 6, 10], [0, 3, 7, 10]][..k]
            .iter()
            .map(|&p| Scenario::negative(wf.department, p, Semantics::Forward, Mode::Visual))
            .collect();
        // Cache-off baselines establish what "bit-identical" means.
        let baselines: Vec<_> = scenarios
            .iter()
            .map(|s| {
                apply_opts(&wf.cube, s, &strategy, None, ExecOpts::default())
                    .unwrap()
                    .cube
            })
            .collect();

        let cache = Arc::new(ScenarioCache::with_capacity_mb(32));
        let opts = ExecOpts {
            cache: Some(cache.clone()),
            ..ExecOpts::default()
        };
        // One warm pass over each scenario…
        for s in &scenarios {
            apply_opts(&wf.cube, s, &strategy, None, opts.clone()).unwrap();
        }
        let before = cache.stats();
        // …then the toggle: every switch must replay entirely from cache.
        for round in 0..ROUNDS {
            for (i, (s, base)) in scenarios.iter().zip(&baselines).enumerate() {
                let r = apply_opts(&wf.cube, s, &strategy, None, opts.clone()).unwrap();
                assert_eq!(r.report.merges, 0, "K={k} round {round}: {i} re-merged");
                assert!(r.cube.same_cells(base).unwrap(), "K={k} round {round}: {i}");
            }
        }
        // The gate the toggle used to be held to was a ≥ 90 % hit rate;
        // with versioned entries every probe hits.
        let stats = cache.stats();
        let (hits, lookups) = (stats.hits - before.hits, stats.lookups - before.lookups);
        assert_eq!(
            hits, lookups,
            "K={k}: a switch must not destroy another version: {stats:?}"
        );
        assert_eq!(
            stats.evictions, before.evictions,
            "K={k}: every version must stay resident: {stats:?}"
        );
        assert!(hits > 0, "K={k}: {stats:?}");
    }
}

#[test]
fn default_opts_leave_the_cache_off_and_match_apply() {
    let wf = small_workforce();
    let strategy = Strategy::Chunked(OrderPolicy::Pebbling);
    let scenario = Scenario::negative(wf.department, [0, 6], Semantics::Forward, Mode::Visual);

    assert!(ExecOpts::default().cache.is_none(), "cache must be opt-in");
    let plain = apply(&wf.cube, &scenario, &strategy).unwrap();
    let defaulted = apply_opts(&wf.cube, &scenario, &strategy, None, ExecOpts::default()).unwrap();
    assert!(defaulted.cube.same_cells(&plain.cube).unwrap());
    assert_eq!(defaulted.report, plain.report);
}
