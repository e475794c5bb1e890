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

step "clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "rustdoc (-D warnings)"
# A deletion must never leave a dangling intra-doc link behind.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace --offline

step "concurrency flake gate (10x)"
# The pool's concurrent demand misses, the parallel executors and
# aggregation workers, the shared scenario cache, the fault-injection
# suite and the flush-transaction crash tests are timing-sensitive; a
# single green run proves little. Hammer the
# concurrency-heavy suites (olap-store --lib includes the log-parser
# fuzz, filestore crash-sweep and pool retry tests). `--test sweeps` stays
# out of the loop: its chaos and replica sweeps each run three fixed
# seeds, so the one run in the tests step is already a repetition.
i=1
while [ "$i" -le 10 ]; do
    cargo test -q -p olap-store --lib >/dev/null
    cargo test -q -p whatif-integration-tests \
        --test parallel_exec --test scenario_cache \
        --test scenario_forest --test fault_injection --test persistence \
        --test server --test run_kernels --test chaos \
        --test replication --test aggregation >/dev/null
    i=$((i + 1))
done
echo "(10/10 green)"

step "durability gates run by name"
# A `cargo test` filter that matches nothing exits 0, so a renamed or
# deleted crash sweep would pass unnoticed. Each gate runs by exact
# name and must report exactly one passed test. The last store gate is
# the log byte-fuzz: a cleanly closed log never opens to a cut.
gate() { # gate "<cargo test target args>" <exact test name>
    out=$(cargo test -q $1 -- --exact "$2" 2>&1) || { echo "$out"; exit 1; }
    case "$out" in
        *"test result: ok. 1 passed"*) echo "$2: 1 passed" ;;
        *) echo "$out"; echo "durability gate $2 did not run"; exit 1 ;;
    esac
}
gate "-p olap-store --lib" filestore::tests::crash_sweep_recovers_pre_or_post_image_only
gate "-p olap-store --lib" filestore::tests::mutated_logs_open_to_a_committed_prefix_or_err
gate "-p whatif-integration-tests --test persistence" pool_flush_crash_points_recover_exact_image
gate "-p whatif-integration-tests --test persistence" dirty_eviction_crash_points_recover_exact_image
gate "-p whatif-integration-tests --test replication" follower_crash_at_every_op_recovers_pre_or_post_image

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
