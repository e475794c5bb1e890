#!/usr/bin/env sh
# CI gate: tier-1 (release build + full test suite) plus lint.
# Run from the repository root. Fails on the first broken step.
set -eu

# Step banner with the seconds the previous step took (the flake gate
# and the smoke benches are the steps worth watching).
step_t0=$(date +%s)
step() {
    now=$(date +%s)
    [ -n "${step_name:-}" ] && echo "   [$step_name: $((now - step_t0)) s]"
    step_name=$1
    step_t0=$now
    echo "== $1 =="
}

step "build (release)"
cargo build --release

step "tests"
cargo test -q

step "clippy (-D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

step "concurrency flake gate (10x)"
# The pool prefetcher, the parallel executors and aggregation workers,
# the shared scenario cache, the fault-injection suite and the WAL crash
# tests are timing-sensitive; a single green run proves little. Hammer the
# concurrency-heavy suites (olap-store --lib includes the wal,
# filestore crash-sweep and pool retry tests).
i=1
while [ "$i" -le 10 ]; do
    cargo test -q -p olap-store --lib >/dev/null
    cargo test -q -p whatif-integration-tests \
        --test parallel_exec --test prefetch --test scenario_cache \
        --test scenario_forest --test fault_injection --test persistence \
        --test server --test run_kernels --test chaos \
        --test replication --test aggregation >/dev/null
    i=$((i + 1))
done
echo "(10/10 green)"

step "crash-recovery smoke test"
# A crash injected after every physical store op during a pool flush
# must recover to exactly the pre- or post-flush image (repro exits
# non-zero on any torn state), across checksum/compression configs.
./target/release/repro --crash-points >/dev/null 2>&1
echo "(all crash points recover to a flush boundary)"

step "multi-tenant server smoke test"
# Eight concurrent analyst sessions over one pool and one shared
# scenario-delta cache must answer byte-identically to a serial replay
# of the same edit scripts (repro exits non-zero on any divergence).
./target/release/repro --serve-bench 8 >/dev/null
echo "(8 concurrent sessions byte-identical to serial replay)"

step "chaos smoke test"
# Eight sessions driven through a seed-reproducible fault proxy
# (delays, mid-frame cuts, stall-then-cut, refused connections) must
# each either error cleanly or answer byte-identically to a faultless
# serial replay, with zero leaked session slots and zero force-closed
# connections at drain (repro runs three seeds and exits non-zero on
# any violation or on blowing the wall-clock budget).
./target/release/repro --chaos-bench 8 >/dev/null
echo "(faults healed by retry+replay, 0 leaked slots, 0 force-closes)"

step "replication smoke test"
# Four WAL-shipping followers per seed under random kill/restart
# schedules must only ever restart on committed leader positions,
# serve catch-up reads that error cleanly or match a serial oracle,
# and end byte-identical to the leader's store file (repro runs three
# seeds and exits non-zero on any violation or a blown wall budget).
./target/release/repro --replica-bench 4 >/dev/null
echo "(followers converge byte-identical through kill/restart)"

step "scenario-toggle smoke test"
# An analyst toggling two scenarios over the versioned cache must —
# after one warm pass over each — replay every switch from cache:
# >= 90% hit rate, zero merges, cells bit-identical to the cache-off
# baseline (repro exits non-zero if any gate fails).
./target/release/repro --toggle-bench 2 >/dev/null
echo "(A/B toggle warm, bit-identical to cache-off)"

step "corruption smoke test"
# One flipped payload byte must surface as StoreError::Corrupt on read,
# never as garbage cells (the OLC3 checksum gate), and a seeded fault
# sweep through repro must hold the Err-or-identical invariant (repro
# exits non-zero on a silent divergence).
cargo test -q -p olap-store --lib \
    filestore::tests::flipped_payload_byte_reads_as_corrupt >/dev/null
cargo test -q -p whatif-integration-tests \
    --test fault_injection bit_flip_fault_yields_corrupt_not_garbage >/dev/null
./target/release/repro --faults 4 >/dev/null
echo "(corrupt reads surface as Err, fault sweep invariant holds)"

step "kernel-equivalence smoke test"
# The run kernels must be cell-identical to the scalar per-cell oracle
# on the merge-heavy ablation workload (repro exits non-zero on any
# digest divergence).
./target/release/repro --kernel-bench >/dev/null
echo "(run kernels bit-identical to the scalar oracle)"

step "perfbench builds and its oracles hold"
# perfbench is a workspace of its own, so neither tier-1 nor the steps
# above notice when a product refactor breaks the yardstick. Build it
# against the crates as they are now and run every workload's oracle
# checks once (perf exits non-zero on a failed reply).
cargo build --release --offline --manifest-path perfbench/Cargo.toml
./perfbench/target/release/perf --quick >/dev/null
echo "(perf --quick: every workload's replies match its serial oracle)"

step "fmt check"
cargo fmt --all --check

step "done"
echo "CI OK"
