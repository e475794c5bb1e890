#!/usr/bin/env sh
# Prints the non-test product line count: every `.rs` file under
# `crates/*/src` and `examples/`, each counted up to its first
# `#[cfg(test)]` line. Run from anywhere inside the repository.
set -eu
cd "$(dirname "$0")/.."
find crates/*/src examples -name '*.rs' -print0 | sort -z | xargs -0 awk '
    FNR == 1 { in_tests = 0 }
    /^[[:space:]]*#\[cfg\(test\)\]/ { in_tests = 1 }
    !in_tests { n++ }
    END { print n + 0 }
' | awk '{ total += $1 } END { print total }'
