#!/usr/bin/env bash
# Fails when the benchmark's sources mention a name the ROADMAP's
# simplification item deletes (the row executor, the duplicate partial
# aggregation nodes, the insert-only maintenance path). Later PRs that
# remove those may not edit the benchmark, so it must not depend on them.
set -u
cd "$(dirname "$0")"
forbidden='ExecMode|Data::Rows|PartialGroupBy|PartialAggregate|IoBreakdown|apply_delta|legacy_'
if grep -rnE "$forbidden" src; then
    echo "check_api: the names above are not part of the stable surface" >&2
    exit 1
fi
echo "check_api: ok"
