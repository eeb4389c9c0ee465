#!/usr/bin/env bash
# Forbidden-patterns lint: non-test library code must not call
# `.unwrap()`, `.expect(` or `panic!` — failures flow through `Result`
# as structured `AggViewError`s so every caller can handle them.
#
# `#[cfg(test)]` items are stripped before matching (by
# ci/strip_tests.awk, which ci/line_count.sh counts with), comment
# lines are skipped, and the `src/bin` trees are out of scope: binaries own
# the process and may abort it. The few justified remaining uses are
# allowlisted in ci/forbidden_patterns_allowlist.txt — each
# non-comment line there is an extended regex matched against the
# whole `path:line: code` record.
set -euo pipefail
cd "$(dirname "$0")/.."

allow="ci/forbidden_patterns_allowlist.txt"

hits=$(
    find crates/*/src src -name '*.rs' ! -path '*/bin/*' | sort \
        | xargs awk -f ci/strip_tests.awk \
        | grep -Ev '^[^:]*:[0-9]+: [[:space:]]*//' \
        | grep -E '\.unwrap\(\)|\.expect\(|panic!' \
        | grep -Ev -f <(grep -Ev '^(#|[[:space:]]*$)' "$allow") || true
)

if [ -n "$hits" ]; then
    echo "forbidden patterns in non-test library code (unwrap/expect/panic!):" >&2
    echo "$hits" >&2
    echo "route the failure through Result/AggViewError, or add a justified" >&2
    echo "entry to $allow" >&2
    exit 1
fi
echo "forbidden-patterns lint: ok"
