#!/usr/bin/env sh
# CI gate: tier-1 (release build + full test suite) plus lint.
# Run from the repository root. Fails on the first broken step.
set -eu

# Step banner with the seconds the previous step took (the flake gate
# is the step worth watching). Every gate is a `cargo test` target;
# `repro` only reproduces figures and `perfbench` only times.
ci_t0=$(date +%s)
step_t0=$ci_t0
step() {
    now=$(date +%s)
    [ -n "${step_name:-}" ] && echo "   [$step_name: $((now - step_t0)) s]"
    step_name=$1
    step_t0=$now
    echo "== $1 =="
}

step "fmt check"
# First, so a formatting slip fails in a second, not after the full run.
cargo fmt --all --check

step "product lines"
# The non-test line count every change reports, counted one way.
./scripts/product_lines.sh

step "build (release)"
cargo build --release

step "tests"
cargo test -q

step "examples run"
# `cargo test` compiles examples/ but runs none of them, so a panicking
# `expect` in one would pass every step above. Run each once.
for example in examples/*.rs; do
    name=$(basename "$example" .rs)
    cargo run --release --offline -q -p examples --example "$name" >/dev/null
    echo "$name: ok"
done

step "clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc (-D warnings)"
# A deletion must never leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

step "product crates ship no test rig"
# The storage and network fault harnesses live in the test crate; the
# store and the server must not depend on `rand` again. Depth 1: the
# server still reaches `rand` through polap-cli -> olap-workload, which
# generates the datasets. --no-dedupe: without it the second package's
# dependencies print as `(*)` once the first has listed the package.
direct=$(cargo tree --offline --locked -e normal --depth 1 --no-dedupe \
    -p olap-store -p olap-server)
if echo "$direct" | grep -q ' rand v'; then
    echo "$direct"
    echo "olap-store or olap-server depends on rand directly"
    exit 1
fi
echo "(no direct rand dependency)"

step "concurrency flake gate (10x)"
# The pool's concurrent demand misses and dirty write-backs, concurrent
# requests over one faulted cube, the shared scenario cache, the
# fault-injection suite and the flush-transaction crash tests are
# timing-sensitive; a single green run proves little. Hammer the
# concurrency-heavy suites (olap-store --lib includes the log-parser
# fuzz and filestore crash-sweep tests; `--test pool_contention` the
# pool under many threads, its eviction race stress test included;
# `--test pool_faults` the pool's retry and waiter tests; the test
# crate's --lib the FaultStore and ChaosProxy unit tests, socket timing
# included; `--test oracle` the executor against the definitional oracle
# with the cache off, cold and warm). `--test sweeps` stays
# out of the loop: its chaos and replica sweeps each run three fixed
# seeds, so the one run in the tests step is already a repetition.
i=1
while [ "$i" -le 10 ]; do
    cargo test -q -p olap-store --lib >/dev/null
    cargo test -q -p whatif-integration-tests --lib \
        --test pool_contention --test scenario_cache --test pool_faults \
        --test scenario_forest --test fault_injection --test persistence \
        --test server --test run_kernels --test chaos \
        --test replication --test aggregation --test oracle >/dev/null
    i=$((i + 1))
done
echo "(10/10 green)"

step "gates run by name"
# A `cargo test` filter that matches nothing exits 0, so a renamed or
# deleted crash sweep would pass unnoticed. Each gate runs by exact
# name and must report exactly one passed test. The last store gate is
# the log byte-fuzz: a cleanly closed log never opens to a cut. The
# next two hold the verb table's contracts: a follower refuses every
# base write however it is spelled, and a reconnect replays exactly
# the lines a session accepted. The next three hold the executor to the
# definitional oracle: the random-warehouse property, Theorem 4.1's
# check of ρ∘Φ, and σ commuting with ρ∘Φ (σ(apply(C)) = apply(σ(C)),
# both equal to the oracle's). The next four hold the positive path,
# which runs through the same executor: Theorem 4.1's check of S (R in
# list order); the session-level regression that a change list and its
# reversal never share a reply; a session's budget and deadline refusing
# MDX and `.apply`, negative and positive, alike; and the scenario cache
# never serving a chunk across toggled output geometries.
# The next two hold the pool under contention: one transient read fault
# among concurrent requests is retried exactly once and absorbed, and a
# chunk being written back by a dirty eviction never reads as absent.
# The next four hold the one request context: every verb-table row, a
# plain MDX line and a `WITH` line under an already expired deadline and
# under a one-chunk budget answer as unbounded or are refused before
# their first pool get, a grid whose `Filter` or positive scenario reads
# before its cells is refused for the budget with no pool get, and a
# derived cube's pool never evicts. The next two hold the aggregator's
# budget as a ceiling: on random cubes, mask sets, read orders and
# budgets a run is refused having read nothing or peaks within the
# budget with the unbudgeted accumulators, and `.rollup` under a session
# budget is refused below a group-by's closure and splits into passes
# within it above. The next holds E to Definition 4.6: the product's
# `CellEvaluator` equals the definitional oracle's E bit for bit at
# every selector, over all five semantics, visual and non-visual. The
# last five hold a result's sharing of what it did not change: copied
# and cache-served output chunks are the input's and the cache's own
# `Arc`s; `.apply`'s digest memo, which finds shared partials by the
# base chunk's version and own ones by identity, equals the full digest
# cold and warm, across positive and negative scenarios and base writes
# committed by a second session; a result whose copied positions
# reference the input, unread, equals the definitional oracle over
# every semantics and k = 1–4 on the bench cube (a pool smaller than
# the cube) and on random chunkings; a warm A/B toggle reads nothing
# from the base pool and replies as before; and a follower's `.apply`
# after a shipped commit, which moves only its store's flush epoch,
# equals the leader's. Twenty-eight gates in all.
gate() { # gate "<cargo test target args>" <exact test name>
    out=$(cargo test -q $1 -- --exact "$2" 2>&1) || { echo "$out"; exit 1; }
    case "$out" in
        *"test result: ok. 1 passed"*) echo "$2: 1 passed" ;;
        *) echo "$out"; echo "gate $2 did not run"; exit 1 ;;
    esac
}
gate "-p olap-store --lib" filestore::tests::crash_sweep_recovers_pre_or_post_image_only
gate "-p olap-store --lib" filestore::tests::mutated_logs_open_to_a_committed_prefix_or_err
gate "-p whatif-integration-tests --test persistence" pool_flush_crash_points_recover_exact_image
gate "-p whatif-integration-tests --test persistence" dirty_eviction_crash_points_recover_exact_image
gate "-p whatif-integration-tests --test replication" follower_crash_at_every_op_recovers_pre_or_post_image
gate "-p whatif-integration-tests --test replication" follower_refuses_every_base_write_in_any_spelling
gate "-p polap-cli --lib" proto::tests::a_replayed_journal_restores_exactly_the_accepted_lines
gate "-p whatif-integration-tests --test property_invariants" chunked_equals_reference
gate "-p whatif-integration-tests --test algebra_theorem" theorem_4_1_negative_all_semantics_and_modes
gate "-p whatif-integration-tests --test algebra_theorem" operators_compose_in_any_useful_order
gate "-p whatif-integration-tests --test algebra_theorem" theorem_4_1_positive_on_retail
gate "-p whatif-integration-tests --test scenario_forest" reordered_change_lists_never_share_a_reply
gate "-p polap-cli --lib" tests::mdx_and_apply_run_under_the_same_request_options
gate "-p polap-cli --test base_writes" toggled_output_geometries_never_share_cached_chunks
gate "-p whatif-integration-tests --test fault_injection" single_transient_read_fault_under_contention_is_absorbed
gate "-p whatif-integration-tests --test pool_contention" evicting_chunks_never_vanish_from_contains_or_ids
gate "-p polap-cli --lib" tests::every_row_answers_an_expired_deadline_before_reading
gate "-p polap-cli --lib" tests::every_row_answers_a_one_chunk_budget_before_reading
gate "-p polap-cli --lib" tests::refused_grids_read_nothing
gate "-p polap-cli --lib" tests::a_derived_cube_keeps_its_chunks_once
gate "-p whatif-integration-tests --test aggregation" budgeted_aggregation_never_holds_more_than_it_admitted
gate "-p polap-cli --lib" tests::rollup_respects_the_session_budget
gate "-p whatif-integration-tests --test oracle" product_e_matches_the_definitional_e
gate "-p whatif-core --lib" exec::tests::copies_and_cache_hits_share_their_chunks
gate "-p whatif-integration-tests --test cell_digest" apply_digest_memo_matches_the_full_digest
gate "-p whatif-integration-tests --test cell_digest" shared_results_equal_the_oracle
gate "-p polap-cli --lib" tests::a_warm_toggle_reads_nothing
gate "-p whatif-integration-tests --test replication" a_follower_apply_after_a_shipped_commit_matches_the_leader

step "corruption smoke test"
# One flipped payload byte never becomes garbage cells. Flipped while
# the store is open, it reads back as StoreError::Corrupt (the OLC3
# checksum) and the neighbouring chunk still reads; flipped at rest,
# `open` returns Err (the transaction's COMMIT seal).
cargo test -q -p olap-store --lib \
    filestore::tests::flipped_payload_byte_reads_as_corrupt >/dev/null
cargo test -q -p whatif-integration-tests \
    --test fault_injection bit_flip_fault_yields_corrupt_not_garbage >/dev/null
echo "(corrupt reads surface as Err)"

step "repro --ablations smoke"
# The only binary that drives OrderPolicy::Naive / DimOrder through the
# executor, via a hand-made single-pass Plan; nothing in the tests runs it.
./target/release/repro --ablations >/dev/null
echo "(repro --ablations ran)"

step "perfbench builds and its oracles hold"
# perfbench is a workspace of its own, so neither tier-1 nor the steps
# above notice when a product refactor breaks the yardstick. Build it
# against the crates as they are now and run every workload's oracle
# checks once (perf exits non-zero on a failed reply).
cargo build --release --offline --manifest-path perfbench/Cargo.toml
./perfbench/target/release/perf --quick >/dev/null
echo "(perf --quick: every workload's replies match its serial oracle)"

step "perfbench unit tests"
# Its own suite, e.g. benchmark_json_describes_this_program, which pins
# BENCHMARK.json's metric names to what perf emits.
cargo test -q --offline --manifest-path perfbench/Cargo.toml

step "done"
echo "CI OK ($(( $(date +%s) - ci_t0 )) s)"
