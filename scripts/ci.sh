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
# suite and the WAL crash tests are timing-sensitive; a single green run
# proves little. Hammer the
# concurrency-heavy suites (olap-store --lib includes the wal,
# filestore crash-sweep and pool retry tests). `--test sweeps` stays
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

step "corruption smoke test"
# One flipped payload byte must surface as StoreError::Corrupt on read,
# never as garbage cells (the OLC3 checksum gate).
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
