#!/usr/bin/env bash
# Every workload, end to end and traced, once per seed given (default: 1).
# Results append to benchmark/out/results.tsv; run from the repository root.
set -eu
cd "$(dirname "$0")/.."
cargo build --release --quiet --manifest-path benchmark/Cargo.toml
bin="${CARGO_TARGET_DIR:-benchmark/target}/release/aggview-benchmark"
for seed in "${@:-1}"; do
    for workload in view_join star_agg plan_heavy dml_maintain plan_choice; do
        for trace in 0 1; do
            echo "== $workload seed $seed trace $trace" >&2
            "$bin" --workload "$workload" --seed "$seed" --trace "$trace"
        done
    done
done
