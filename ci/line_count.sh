#!/usr/bin/env bash
# Non-test line count of the library and binaries: for every `.rs` file
# under `crates/*/src` and `src`, the lines before its first
# `#[cfg(test)]` (the whole file when it has none). Unit tests sit at
# the end of their file, so what is counted is the code that ships.
# Prints one `lines path` row per file, then the total.
#
#   bash ci/line_count.sh          # per-file rows and the total
#   bash ci/line_count.sh | tail -1
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' | sort | while read -r f; do
    awk -v FNAME="$f" '
        /#\[cfg\(test\)\]/ { exit }
        { n++ }
        END { printf "%6d %s\n", n, FNAME }
    ' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
