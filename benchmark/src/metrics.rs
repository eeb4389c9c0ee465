//! The benchmark's contract: workloads, end-to-end metrics with their
//! regression bounds, and per-layer metrics. `BENCHMARK.json` is this
//! table rendered by [`manifest`]; `selftest` fails when the file on
//! disk and the table disagree, so there is one source of truth and no
//! JSON parser.

use crate::json::Json;

/// Seconds one run measures (`--seconds` default, `run_seconds`).
pub const RUN_SECONDS: u32 = 20;

pub struct WorkloadInfo {
    pub name: &'static str,
    pub why: &'static str,
}

pub const WORKLOADS: &[WorkloadInfo] = &[
    WorkloadInfo {
        name: "view_join",
        why: "aggregate views joined to emp/dept (Examples 1-2, Figure 4): the executor does the work, the optimizer's pull-up/push-down choice decides which work",
    },
    WorkloadInfo {
        name: "star_agg",
        why: "GROUP BY over 2-5-way star joins: join output dominates time and peak memory, where eager aggregation and join kernels must show",
    },
    WorkloadInfo {
        name: "plan_heavy",
        why: "short multi-view, nested and EXPLAIN VERIFY statements over a tiny star: parse, bind, optimize and analyze dominate; the bypass workload for executor changes",
    },
    WorkloadInfo {
        name: "dml_maintain",
        why: "durable session, three materialized views, 80% INSERT/UPDATE/DELETE: catalog mutation, delta maintenance, WAL and checkpoints do the work; ends with a reopen",
    },
    WorkloadInfo {
        name: "plan_choice",
        why: "E1/E3 regimes, the eager-aggregation shape and a matview hit, each run under five optimizer configs: the never-worse claim in wall-clock",
    },
];

pub struct MetricInfo {
    pub name: &'static str,
    pub unit: &'static str,
    /// `"lower"` or `"higher"`.
    pub better: &'static str,
    /// Share of the parent's median by which the metric may worsen
    /// (end-to-end metrics only).
    pub bound: Option<f64>,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    better: &'static str,
    bound: f64,
) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: Some(bound),
    }
}

const fn layer(name: &'static str, unit: &'static str, better: &'static str) -> MetricInfo {
    MetricInfo {
        name,
        unit,
        better,
        bound: None,
    }
}

/// Measured with tracing off; every workload reports every one. The
/// time bounds are the widest the contract allows: ten-seed sweeps of
/// one binary spread by at most 5% on this host in an ordinary hour, but
/// a slow phase of the host moves a whole sweep by more than that
/// (`benchmark/README.md` has the measurements).
pub const END_TO_END: &[MetricInfo] = &[
    e2e("setup_s", "s", "lower", 0.25),
    e2e("stmts_per_s", "1/s", "higher", 0.25),
    e2e("stmt_p50_ms", "ms", "lower", 0.25),
    e2e("stmt_p95_ms", "ms", "lower", 0.25),
    e2e("peak_rss_mb", "MB", "lower", 0.15),
];

/// Bounded end-to-end metrics that exist on one workload only, with the
/// workload that reports them. `BENCHMARK.json` cannot hold them (every
/// workload must report every `end_to_end` metric, and none may be 0),
/// so the `--trace 0` run writes them to the result files only and
/// `compare` applies these bounds.
pub const ONE_WORKLOAD: &[(&str, MetricInfo)] = &[
    ("dml_maintain", e2e("dml_p50_ms", "ms", "lower", 0.10)),
    ("dml_maintain", e2e("dml_p95_ms", "ms", "lower", 0.15)),
    ("dml_maintain", e2e("query_p50_ms", "ms", "lower", 0.10)),
    ("dml_maintain", e2e("recover_s", "s", "lower", 0.15)),
    (
        "dml_maintain",
        e2e("wal_bytes_per_stmt", "B", "lower", 0.01),
    ),
    (
        "plan_choice",
        e2e("chosen_vs_traditional", "ratio", "lower", 0.10),
    ),
    ("plan_choice", e2e("regret", "ratio", "lower", 0.10)),
];

/// The one-workload metrics `workload` reports.
pub fn one_workload(workload: &str) -> impl Iterator<Item = &'static MetricInfo> + '_ {
    ONE_WORKLOAD
        .iter()
        .filter(move |(w, _)| *w == workload)
        .map(|(_, m)| m)
}

/// The bounded metric `name` of `workload`, if it is one.
pub fn bounded(workload: &str, name: &str) -> Option<&'static MetricInfo> {
    END_TO_END
        .iter()
        .chain(one_workload(workload))
        .find(|m| m.name == name)
}

/// Measured by the traced run; every workload reports every one (a
/// layer the workload bypasses reads 0).
pub const PER_LAYER: &[MetricInfo] = &[
    layer("sql.parse_ms", "ms", "lower"),
    layer("sql.parse_share", "ratio", "lower"),
    layer("sql.bind_ms", "ms", "lower"),
    layer("sql.bind_share", "ratio", "lower"),
    layer("optimizer.optimize_ms", "ms", "lower"),
    layer("optimizer.optimize_share", "ratio", "lower"),
    layer("optimizer.plans_built", "count", "lower"),
    layer("optimizer.groupby_placements", "count", "lower"),
    layer("optimizer.degraded_count", "count", "lower"),
    layer("optimizer.pullup_share", "ratio", "higher"),
    layer("optimizer.pushdown_share", "ratio", "higher"),
    layer("optimizer.eager_share", "ratio", "higher"),
    layer("matview.hit_share", "ratio", "higher"),
    layer("cost.qerror_geomean", "ratio", "lower"),
    layer("cost.qerror_max", "ratio", "lower"),
    layer("cost.rank_agreement", "ratio", "higher"),
    layer("cost.regret_geomean", "ratio", "lower"),
    layer("cost.worst_regret", "ratio", "lower"),
    layer("analyze.verify_ms", "ms", "lower"),
    layer("analyze.verify_share", "ratio", "lower"),
    layer("executor.execute_ms", "ms", "lower"),
    layer("executor.execute_share", "ratio", "lower"),
    layer("executor.rows_in_per_s", "1/s", "higher"),
    layer("executor.io_pages", "pages", "lower"),
    layer("executor.peak_intermediate_bytes", "B", "lower"),
    layer("executor.parallel_ratio", "ratio", "lower"),
    layer("session.overhead_ms", "ms", "lower"),
    layer("session.overhead_share", "ratio", "lower"),
    layer("query.p50_ms", "ms", "lower"),
    layer("catalog.mutate_share", "ratio", "lower"),
    layer("delta.maintain_share", "ratio", "lower"),
    layer("delta.views_maintained", "count", "higher"),
    layer("wal.append_share", "ratio", "lower"),
    layer("wal.checkpoint_share", "ratio", "lower"),
    layer("wal.bytes_per_stmt", "B", "lower"),
    layer("wal.replay_records", "count", "lower"),
    layer("wal.snapshot_bytes", "B", "lower"),
    layer("wal.recover_rows_per_s", "1/s", "higher"),
    layer("dml.stmts_per_s", "1/s", "higher"),
    layer("dml.p95_over_p50", "ratio", "lower"),
    layer("matview.build_ms", "ms", "lower"),
    layer("matview.refresh_ms", "ms", "lower"),
    layer("matview.extent_rows", "count", "lower"),
    layer("datagen.gen_ms", "ms", "lower"),
    layer("trace.overhead_ratio", "ratio", "lower"),
];

fn metric_json(m: &MetricInfo) -> Json {
    let mut fields = vec![
        ("name", Json::str(m.name)),
        ("unit", Json::str(m.unit)),
        ("better", Json::str(m.better)),
    ];
    if let Some(b) = m.bound {
        fields.push(("bound", Json::Num(b)));
    }
    Json::obj(fields)
}

/// The contents of `BENCHMARK.json`.
pub fn manifest() -> Json {
    let command = [
        "cargo",
        "run",
        "--release",
        "--quiet",
        "--manifest-path",
        "benchmark/Cargo.toml",
        "--",
    ];
    Json::obj([
        (
            "command",
            Json::Arr(command.iter().map(|s| Json::str(*s)).collect()),
        ),
        ("paths", Json::Arr(vec![Json::str("benchmark")])),
        ("run_seconds", Json::Int(i64::from(RUN_SECONDS))),
        (
            "workloads",
            Json::Arr(
                WORKLOADS
                    .iter()
                    .map(|w| Json::obj([("name", Json::str(w.name)), ("why", Json::str(w.why))]))
                    .collect(),
            ),
        ),
        (
            "end_to_end",
            Json::Arr(END_TO_END.iter().map(metric_json).collect()),
        ),
        (
            "per_layer",
            Json::Arr(PER_LAYER.iter().map(metric_json).collect()),
        ),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn names_are_unique_and_within_limits() {
        let mut names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
        names.extend(END_TO_END.iter().chain(PER_LAYER).map(|m| m.name));
        names.extend(ONE_WORKLOAD.iter().map(|(_, m)| m.name));
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        for name in names {
            assert!(
                name.len() <= 64
                    && name
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
            );
        }
        for w in WORKLOADS {
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
        let setup = END_TO_END
            .iter()
            .find(|m| m.name == "setup_s" && m.unit == "s" && m.better == "lower")
            .expect("setup_s is an end-to-end metric");
        // The contract: no bound above 0.25, and set-up has the largest.
        assert!(END_TO_END
            .iter()
            .all(|m| m.bound.is_some_and(|b| b <= 0.25 && Some(b) <= setup.bound)));
        assert!(ONE_WORKLOAD
            .iter()
            .all(|(w, _)| WORKLOADS.iter().any(|i| i.name == *w)));
    }
}
