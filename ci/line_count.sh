#!/usr/bin/env bash
# Non-test line count of the library and binaries: for every `.rs` file
# under `crates/*/src` and `src`, its lines less each `#[cfg(test)]`
# attribute and the item under it, wherever in the file they sit (the
# stripping is ci/strip_tests.awk's). What is counted is the code that
# ships. Prints one `lines path` row per file, then the total.
#
#   bash ci/line_count.sh          # per-file rows and the total
#   bash ci/line_count.sh | tail -1
set -euo pipefail
cd "$(dirname "$0")/.."

find crates/*/src src -name '*.rs' | sort | while read -r f; do
    printf "%6d %s\n" "$(awk -f ci/strip_tests.awk "$f" | wc -l)" "$f"
done | awk '{ print; total += $1 } END { printf "%6d total\n", total }'
