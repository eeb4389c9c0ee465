#!/usr/bin/env bash
# Non-test line count of the library and binaries: for every `.rs` file
# under `crates/*/src` and `src`, its lines less each `#[cfg(test)]`
# attribute and the item under it (the brace-balanced block, or the
# single `;`-terminated item, that follows), wherever in the file they
# sit. What is counted is the code that ships.
# Prints one `lines path` row per file, then the total.
#
#   bash ci/line_count.sh          # per-file rows and the total
#   bash ci/line_count.sh | tail -1
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' | sort | while read -r f; do
    awk -v FNAME="$f" '
        /#\[cfg\(test\)\]/ { intest = 1; started = 0; depth = 0; next }
        intest {
            # Braces inside string literals do not nest.
            code = $0
            gsub(/"([^"\\]|\\.)*"/, "", code)
            o = gsub(/\{/, "{", code); c = gsub(/\}/, "}", code)
            if (o > 0) started = 1
            depth += o - c
            if (!started && /;/) { intest = 0 }
            else if (started && depth <= 0) { intest = 0; started = 0 }
            next
        }
        { n++ }
        END { printf "%6d %s\n", n, FNAME }
    ' "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
