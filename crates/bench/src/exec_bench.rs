//! Executor throughput and scaling benchmark — the `BENCH_exec.json`
//! trajectory.
//!
//! Runs three end-to-end paper workloads (E1 Example 1, E3 Figure 4, E8
//! coalescing group-by) and three operator micro-workloads (scan+filter,
//! hash join, hash aggregation), each at `threads = 1` and
//! `threads = N`, reporting wall-clock, rows/sec, parallel speedup and
//! peak intermediate bytes. A separate *serial kernel* section times
//! the three vectorized kernels the engine runs (filter, hash join,
//! group-by) on their own, outside any plan. A *matview* section
//! measures the same aggregate query cold (inlined), answered from a
//! materialized
//! view extent, and after staleness + `REFRESH`, and checks that
//! incremental `INSERT` maintenance reproduces the rebuilt extent. An
//! *eager_agg* section A/B-tests eager partial aggregation pushed below
//! a join against the materialize-then-aggregate shape on a self-join
//! workload, asserting identical results and reporting the peak-bytes
//! ratio.
//!
//! The report records `host_cpus`: on a single-core host the parallel
//! speedup cannot exceed ~1.0 regardless of implementation, so CI (or
//! any multi-core machine) is where the scaling numbers are meaningful.

use crate::model_with_mem;
use aggview_common::expr::BoundExpr;
use aggview_common::predicate::BoundPredicate;
use aggview_common::{
    AggFunc, AggSpec, AggViewError, Batch, CmpOp, Col, DataType, Expr, Predicate, RelId, Result,
    Schema, Tuple, Value, ViewId,
};
use aggview_core::analyze::PlanAnalyzer;
use aggview_core::governor::ResourceGovernor;
use aggview_core::optimizer::multi_view::optimize;
use aggview_core::plan::{all_cols, GroupBySpec, Plan};
use aggview_core::query::examples::{dept, emp, example1_query};
use aggview_core::query::{CanonicalQuery, QueryEnv, TopGroup, ViewDef};
use aggview_core::OptimizerConfig;
use aggview_executor::partition::AggInput;
use aggview_executor::{vector, Engine, ExecOptions};
use aggview_storage::datagen::{gen_empdept, gen_star, EmpDeptConfig, StarConfig};
use aggview_storage::{Catalog, Table};
use std::collections::HashMap;
use std::time::Instant;

/// Knobs for one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct ExecBenchConfig {
    /// Parallel thread count (`N` in the `threads = {1, N}` pair).
    pub threads: usize,
    /// Multiplier on the base workload sizes.
    pub scale: usize,
    /// Timing repeats per measurement; the best (minimum) is reported.
    pub repeats: usize,
}

impl Default for ExecBenchConfig {
    fn default() -> Self {
        ExecBenchConfig {
            threads: 4,
            scale: 1,
            repeats: 3,
        }
    }
}

/// One workload measured at both thread counts.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub name: &'static str,
    pub input_rows: u64,
    pub output_rows: u64,
    pub serial_ms: f64,
    pub parallel_ms: f64,
    pub serial_rows_per_sec: f64,
    pub parallel_rows_per_sec: f64,
    /// `serial_ms / parallel_ms`.
    pub speedup: f64,
    pub peak_intermediate_bytes: u64,
}

/// The materialized-view workload: the same aggregate query answered
/// cold (inlined over base data), from a fresh extent, and after a
/// staleness-induced refresh, plus an incremental-vs-rebuild
/// equivalence check.
#[derive(Debug, Clone)]
pub struct MatviewReport {
    /// Rows in the base `emp` table the view aggregates.
    pub base_rows: u64,
    /// Rows in the view extent (one per department).
    pub extent_rows: u64,
    /// Inlined aggregation over base data, no extent available.
    pub cold_ms: f64,
    /// Same query answered from the extent access path.
    pub materialized_ms: f64,
    /// `cold_ms / materialized_ms`.
    pub speedup: f64,
    /// From-scratch `REFRESH MATERIALIZED VIEW` rebuild.
    pub refresh_ms: f64,
    /// Staleness recovery: refresh then answer the query.
    pub stale_then_refreshed_ms: f64,
    /// Extent after incremental `INSERT` maintenance equals the extent
    /// after a from-scratch refresh over the same base data.
    pub incremental_matches_refresh: bool,
}

/// The streaming-delta-maintenance workload: rounds of mixed DML
/// (`INSERT`, `UPDATE`, `DELETE`) against several registered views,
/// maintained incrementally through the Z-set delta path vs. refreshed
/// from scratch after every statement.
#[derive(Debug, Clone)]
pub struct MaintenanceReport {
    /// Materialized views registered over the base table.
    pub views: u64,
    /// Mixed-DML rounds per measured run (each round: one insert, one
    /// update, one delete — net zero, so repeats see steady state).
    pub rounds: u64,
    /// Rows in the base table the views aggregate.
    pub base_rows: u64,
    /// DML statements per measured run (`rounds * 3`).
    pub statements: u64,
    /// Maintenance time for all statements via the Z-set delta path.
    /// Both strategies pay the identical base-table mutation cost, so
    /// the clocks cover maintenance work only.
    pub incremental_ms: f64,
    /// Maintenance time with a full `REFRESH` of every view after each
    /// statement.
    pub refresh_ms: f64,
    pub incremental_stmts_per_sec: f64,
    pub refresh_stmts_per_sec: f64,
    /// `refresh_ms / incremental_ms` — how much cheaper maintaining
    /// deltas is than rebuilding per change.
    pub speedup: f64,
    /// After both histories, every extent is byte-identical between the
    /// two strategies.
    pub incremental_matches_refresh: bool,
}

/// The durability workload: WAL append overhead against the zero-IO
/// in-memory path, WAL replay throughput, and checkpoint + recover
/// latency, all on a scratch directory under the system temp dir.
#[derive(Debug, Clone)]
pub struct DurabilityReport {
    /// Rows appended per measured run.
    pub rows_appended: u64,
    /// Appends into a plain in-memory catalog (no WAL).
    pub mem_insert_ms: f64,
    /// The same appends into a durable catalog (each batch WAL-logged
    /// and fsynced).
    pub wal_insert_ms: f64,
    /// `wal_insert_ms / mem_insert_ms` — the per-batch durability tax.
    pub wal_overhead: f64,
    /// Committed WAL records replayed on recovery.
    pub replay_records: u64,
    /// `Catalog::open` over the un-checkpointed WAL.
    pub replay_ms: f64,
    /// Rows recovered per second of replay.
    pub replay_rows_per_sec: f64,
    /// Snapshot write + WAL truncation.
    pub checkpoint_ms: f64,
    /// `Catalog::open` when the snapshot covers everything (no replay).
    pub recover_after_checkpoint_ms: f64,
}

/// One serial vectorized kernel, timed outside any plan.
#[derive(Debug, Clone)]
pub struct KernelTiming {
    pub name: &'static str,
    pub input_rows: u64,
    pub ms: f64,
    pub rows_per_sec: f64,
}

/// The serial-kernel section of the report.
#[derive(Debug, Clone)]
pub struct SerialKernels {
    /// The engine's filter, hash-join and group-by kernels.
    pub kernels: Vec<KernelTiming>,
    /// Typed-column demotions to `ColumnVec::Mixed` observed across the
    /// timed workloads and kernels. The corpus certifies Mixed-free, so
    /// a non-zero count is a regression in the type lattice or the
    /// vectorized kernels.
    pub mixed_demotions: u64,
}

/// The dataflow static-analysis section: how many plans the pass
/// covered and what it did with them.
#[derive(Debug, Clone)]
pub struct StaticAnalysisReport {
    /// Plans run through the dataflow pass.
    pub plans_analyzed: u64,
    /// Provably-empty subtrees rewritten to `EmptyScan`.
    pub empty_subtrees_pruned: u64,
    /// Over-budget plans rejected before execution
    /// (`plan-inadmissible`).
    pub statically_rejected: u64,
}

/// The eager-aggregation A/B section: one join-then-aggregate self-join
/// workload optimized twice — `use_eager_agg` on (partial aggregation
/// pushed below the join) and off (aggregate over the materialized
/// join) — and both plans executed and measured like ordinary
/// workloads.
#[derive(Debug, Clone)]
pub struct EagerAggReport {
    /// The two shapes as ordinary workload measurements
    /// (`eager_agg_on`, `eager_agg_off`), rendered with the same JSON
    /// line layout as `workloads` so the peak-regression baseline
    /// check covers them.
    pub shapes: Vec<WorkloadReport>,
    /// Traditional peak / eager peak, from measured
    /// `peak_intermediate_bytes`.
    pub peak_ratio: f64,
    /// The eager-configured optimizer actually placed a partial
    /// aggregate below the join.
    pub eager_plan_fired: bool,
    /// Both shapes returned identical sorted result rows.
    pub results_match: bool,
}

/// Full benchmark output, serializable to `BENCH_exec.json`.
#[derive(Debug, Clone)]
pub struct ExecBenchReport {
    pub host_cpus: usize,
    pub threads: usize,
    pub scale: usize,
    pub repeats: usize,
    pub workloads: Vec<WorkloadReport>,
    pub serial_kernels: SerialKernels,
    pub matview: MatviewReport,
    pub maintenance: MaintenanceReport,
    pub durability: DurabilityReport,
    pub static_analysis: StaticAnalysisReport,
    pub eager_agg: EagerAggReport,
    /// Plans run through the static integrity analyzer before execution.
    pub plans_checked: u64,
    /// Plans the analyzer accepted. The run aborts on the first
    /// rejection, so a finished report always has `passed == checked`.
    pub plans_passed: u64,
}

/// Gate a bench workload plan behind the static integrity analyzer:
/// every plan must pass before it is timed, and a rejection fails the
/// whole bench run (and with it the CI bench-smoke job).
#[allow(clippy::too_many_arguments)]
fn analyze_workload(
    name: &str,
    catalog: &Catalog,
    model: aggview_core::CostModel,
    plan: &Plan,
    env: &QueryEnv,
    query: Option<&CanonicalQuery>,
    checked: &mut u64,
    passed: &mut u64,
) -> Result<()> {
    let analyzer = PlanAnalyzer::new(catalog).with_model(model);
    let analyzer = match query {
        Some(q) => analyzer.with_query(q),
        None => analyzer.with_env(env),
    };
    *checked += 1;
    let report = analyzer.analyze(plan);
    if !report.is_ok() {
        return Err(AggViewError::PlanInvalid(format!(
            "bench workload {name}: {}",
            report.summary()
        )));
    }
    *passed += 1;
    Ok(())
}

/// Run the full suite.
pub fn run_exec_bench(cfg: &ExecBenchConfig) -> Result<ExecBenchReport> {
    let threads = cfg.threads.max(2);
    let scale = cfg.scale.max(1);
    let repeats = cfg.repeats.max(1);

    let empdept = gen_empdept(&EmpDeptConfig {
        n_depts: 200,
        emps_per_dept: 100 * scale,
        young_fraction: 0.1,
        low_budget_fraction: 0.3,
        seed: 12,
    })?;
    let star = gen_star(&StarConfig {
        customers: 2000,
        orders_per_customer: 8,
        lines_per_order: 4 * scale,
        nations: 25,
        seed: 8,
    })?;
    let model = model_with_mem(64.0);
    let full = OptimizerConfig::default();

    let mut workloads = Vec::new();
    let mut plans_checked = 0u64;
    let mut plans_passed = 0u64;
    let demotions_before = aggview_common::mixed_demotions();

    // End-to-end paper workloads: optimize once, execute at both thread
    // counts.
    {
        let q = example1_query();
        let plan = optimize(&q, &empdept, model, &full)?.plan;
        analyze_workload(
            "e1_example1",
            &empdept,
            model,
            &plan,
            &q.env,
            Some(&q),
            &mut plans_checked,
            &mut plans_passed,
        )?;
        workloads.push(run_workload(
            "e1_example1",
            &empdept,
            &q.env,
            model,
            &plan,
            base_rows(&empdept, &q.env),
            threads,
            repeats,
        )?);
    }
    {
        let q = figure4_query();
        let plan = optimize(&q, &empdept, model, &full)?.plan;
        analyze_workload(
            "e3_figure4",
            &empdept,
            model,
            &plan,
            &q.env,
            Some(&q),
            &mut plans_checked,
            &mut plans_passed,
        )?;
        workloads.push(run_workload(
            "e3_figure4",
            &empdept,
            &q.env,
            model,
            &plan,
            base_rows(&empdept, &q.env),
            threads,
            repeats,
        )?);
    }
    {
        let q = count_per_customer();
        let plan = optimize(&q, &star, model, &full)?.plan;
        analyze_workload(
            "e8_groupby",
            &star,
            model,
            &plan,
            &q.env,
            Some(&q),
            &mut plans_checked,
            &mut plans_passed,
        )?;
        workloads.push(run_workload(
            "e8_groupby",
            &star,
            &q.env,
            model,
            &plan,
            base_rows(&star, &q.env),
            threads,
            repeats,
        )?);
    }

    // Operator micro-workloads over Emp/Dept.
    let env2 = QueryEnv::new(vec!["emp".into(), "dept".into()]);
    let n_emp = empdept.get("emp").map_or(0, |t| t.len()) as u64;
    let n_dept = empdept.get("dept").map_or(0, |t| t.len()) as u64;
    let scan_plan = Plan::scan(
        RelId(0),
        "emp",
        vec![Predicate::cmp_const(
            Col::base(RelId(0), emp::AGE),
            CmpOp::Lt,
            Value::Int(40),
        )],
        all_cols(RelId(0), 5),
    );
    analyze_workload(
        "scan_filter",
        &empdept,
        model,
        &scan_plan,
        &env2,
        None,
        &mut plans_checked,
        &mut plans_passed,
    )?;
    workloads.push(run_workload(
        "scan_filter",
        &empdept,
        &env2,
        model,
        &scan_plan,
        n_emp,
        threads,
        repeats,
    )?);
    let join_plan = Plan::join_all(
        Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
        Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4)),
        vec![Predicate::eq_cols(
            Col::base(RelId(0), emp::DNO),
            Col::base(RelId(1), dept::DNO),
        )],
    );
    analyze_workload(
        "hash_join",
        &empdept,
        model,
        &join_plan,
        &env2,
        None,
        &mut plans_checked,
        &mut plans_passed,
    )?;
    workloads.push(run_workload(
        "hash_join",
        &empdept,
        &env2,
        model,
        &join_plan,
        n_emp + n_dept,
        threads,
        repeats,
    )?);
    let agg_plan = Plan::group_by_all(
        Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(0), emp::DNO)],
            aggs: vec![
                AggSpec::count_star(),
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(RelId(0), emp::SAL))),
            ],
            having: vec![],
        },
    );
    analyze_workload(
        "hash_agg",
        &empdept,
        model,
        &agg_plan,
        &env2,
        None,
        &mut plans_checked,
        &mut plans_passed,
    )?;
    workloads.push(run_workload(
        "hash_agg", &empdept, &env2, model, &agg_plan, n_emp, threads, repeats,
    )?);

    let emp_rows = empdept
        .get("emp")
        .map(|t| t.rows().to_vec())
        .unwrap_or_default();
    let dept_rows = empdept
        .get("dept")
        .map(|t| t.rows().to_vec())
        .unwrap_or_default();
    let emp_types: Vec<DataType> = empdept
        .get("emp")?
        .schema()
        .fields()
        .iter()
        .map(|f| f.ty)
        .collect();
    let dept_types: Vec<DataType> = empdept
        .get("dept")?
        .schema()
        .fields()
        .iter()
        .map(|f| f.ty)
        .collect();
    let serial_kernels = SerialKernels {
        kernels: vec![
            filter_kernel(empdept.get("emp")?.as_ref(), repeats)?,
            join_kernel(
                "hash_join",
                JOIN_MIXED_PAYLOAD,
                (&emp_rows, &emp_types),
                (&dept_rows, &dept_types),
                repeats,
            )?,
            join_kernel(
                "hash_join_str",
                JOIN_STR_PAYLOAD,
                (&emp_rows, &emp_types),
                (&dept_rows, &dept_types),
                repeats,
            )?,
            group_kernel(
                "group_by",
                (&[emp::DNO], &[0]),
                COUNT_AVG_SAL,
                (&emp_rows, &emp_types),
                repeats,
            )?,
            group_kernel(
                "group_by_str",
                (&[emp::NAME], &[0]),
                COUNT_AVG_SAL,
                (&dept_labelled(&emp_rows), &emp_types),
                repeats,
            )?,
            group_kernel(
                "group_by_many",
                (&[emp::DNO], &[0]),
                &[
                    (AggFunc::Count, None),
                    (AggFunc::Sum, Some(emp::SAL)),
                    (AggFunc::Max, Some(emp::AGE)),
                ],
                (&in_teams(&emp_rows), &emp_types),
                repeats,
            )?,
            group_kernel(
                "group_by_determined",
                (&[0, 1, 2, 3, 4], &[0]),
                &[(AggFunc::Avg, Some(TEAM_SAL))],
                (&team_rows(&emp_rows), TEAM_TYPES),
                repeats,
            )?,
        ],
        mixed_demotions: aggview_common::mixed_demotions().saturating_sub(demotions_before),
    };

    let matview = matview_report(scale, repeats)?;
    let maintenance = maintenance_report(scale, repeats)?;
    let durability = durability_report(scale, repeats)?;
    let static_analysis = static_analysis_report(&empdept, &star)?;
    let eager_agg = eager_agg_report(
        &empdept,
        threads,
        repeats,
        &mut plans_checked,
        &mut plans_passed,
    )?;

    Ok(ExecBenchReport {
        host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        threads,
        scale,
        repeats,
        workloads,
        serial_kernels,
        matview,
        maintenance,
        durability,
        static_analysis,
        eager_agg,
        plans_checked,
        plans_passed,
    })
}

/// The join-then-aggregate self-join (`SELECT e1.dno, AVG(e1.age),
/// MIN(e2.sal), SUM(e2.age) FROM emp e1, emp e2 WHERE e1.dno = e2.dno
/// GROUP BY e1.dno`). With ~100 employees per department the join
/// materializes ~10,000 rows per department before the traditional
/// aggregate collapses them; the eager optimizer folds one `emp` input
/// to one partial row per department first.
fn eager_selfjoin_query() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let e1 = env.add_rel("emp");
    let e2 = env.add_rel("emp");
    let aggs = vec![
        AggSpec::new(AggFunc::Avg, Expr::col(Col::base(e1, emp::AGE))),
        AggSpec::new(AggFunc::Min, Expr::col(Col::base(e2, emp::SAL))),
        AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e2, emp::AGE))),
    ];
    let n = aggs.len();
    CanonicalQuery {
        env,
        views: vec![],
        base_rels: vec![e1, e2],
        preds: vec![Predicate::eq_cols(
            Col::base(e1, emp::DNO),
            Col::base(e2, emp::DNO),
        )],
        group: Some(TopGroup {
            group_cols: vec![Col::base(e1, emp::DNO)],
            aggs,
            having: vec![],
        }),
        projection: std::iter::once(Col::base(e1, emp::DNO))
            .chain((0..n).map(|i| Col::agg(ViewId::Top, i)))
            .collect(),
    }
}

/// Does the plan hold an *eager* partial aggregate (one carrying a
/// duplicate factor; simple coalescing carries none)?
fn contains_partial_aggregate(p: &Plan) -> bool {
    match p {
        Plan::PartialAggregate { spec, .. } => spec.count.is_some(),
        Plan::Join { left, right, .. } => {
            contains_partial_aggregate(left) || contains_partial_aggregate(right)
        }
        Plan::GroupBy { input, .. } => contains_partial_aggregate(input),
        Plan::Scan { .. } | Plan::ExtentScan { .. } | Plan::EmptyScan { .. } => false,
    }
}

/// Measure the eager-aggregation A/B pair: optimize
/// [`eager_selfjoin_query`] with `use_eager_agg` on and off, gate both
/// plans through the analyzer, time both like ordinary workloads, and
/// compare their executed result sets row for row.
fn eager_agg_report(
    empdept: &Catalog,
    threads: usize,
    repeats: usize,
    checked: &mut u64,
    passed: &mut u64,
) -> Result<EagerAggReport> {
    let model = model_with_mem(64.0);
    let q = eager_selfjoin_query();
    let eager_plan = optimize(
        &q,
        empdept,
        model,
        &OptimizerConfig {
            use_eager_agg: true,
            ..Default::default()
        },
    )?
    .plan;
    let plain_plan = optimize(
        &q,
        empdept,
        model,
        &OptimizerConfig {
            use_eager_agg: false,
            ..Default::default()
        },
    )?
    .plan;
    let input_rows = 2 * empdept.get("emp").map_or(0, |t| t.len()) as u64;
    let mut shapes = Vec::new();
    for (name, plan) in [
        ("eager_agg_on", &eager_plan),
        ("eager_agg_off", &plain_plan),
    ] {
        analyze_workload(
            name,
            empdept,
            model,
            plan,
            &q.env,
            Some(&q),
            checked,
            passed,
        )?;
        shapes.push(run_workload(
            name, empdept, &q.env, model, plan, input_rows, threads, repeats,
        )?);
    }
    let engine = Engine::new(empdept, &q.env, model).with_options(ExecOptions::with_threads(1));
    let sorted = |plan: &Plan| -> Result<Vec<Tuple>> {
        let rs = engine.execute(plan)?;
        let positions: Vec<usize> = q
            .projection
            .iter()
            .map(|c| {
                rs.col_index(*c).ok_or_else(|| {
                    AggViewError::PlanInvalid(format!("bench eager_agg: plan lost column {c}"))
                })
            })
            .collect::<Result<_>>()?;
        let mut rows: Vec<Tuple> = rs.rows.iter().map(|r| r.project(&positions)).collect();
        rows.sort();
        Ok(rows)
    };
    let results_match = sorted(&eager_plan)? == sorted(&plain_plan)?;
    let peak_ratio = shapes[1].peak_intermediate_bytes as f64
        / (shapes[0].peak_intermediate_bytes as f64).max(1.0);
    Ok(EagerAggReport {
        shapes,
        peak_ratio,
        eager_plan_fired: contains_partial_aggregate(&eager_plan),
        results_match,
    })
}

/// Exercise the dataflow pass end to end for the report: the timed
/// workload plans must certify Mixed-free with no provably-empty
/// subtrees, a contradictory filter must prune to a zero-IO
/// `EmptyScan`, and an over-budget scan must be rejected before
/// execution. Any deviation fails the bench run (and the CI
/// bench-smoke job).
fn static_analysis_report(empdept: &Catalog, star: &Catalog) -> Result<StaticAnalysisReport> {
    use aggview_core::analyze::dataflow;
    use aggview_core::governor::ResourceLimits;

    let model = model_with_mem(64.0);
    let full = OptimizerConfig::default();
    let mut plans_analyzed = 0u64;
    let mut empty_subtrees_pruned = 0u64;
    let mut statically_rejected = 0u64;

    for (q, cat) in [
        (example1_query(), empdept),
        (figure4_query(), empdept),
        (count_per_customer(), star),
    ] {
        let plan = optimize(&q, cat, model, &full)?.plan;
        let df = dataflow::analyze_plan(&plan, cat, Some(q.env.rel_tables.as_slice()));
        plans_analyzed += 1;
        if !df.mixed_free || df.provably_empty {
            return Err(AggViewError::PlanInvalid(format!(
                "bench corpus plan failed dataflow certification:\n{}",
                plan.explain()
            )));
        }
    }

    let env = QueryEnv::new(vec!["emp".into()]);
    let r = RelId(0);
    let contradictory = Plan::scan(
        r,
        "emp",
        vec![
            Predicate::cmp_const(Col::base(r, emp::SAL), CmpOp::Gt, Value::Float(5.0)),
            Predicate::cmp_const(Col::base(r, emp::SAL), CmpOp::Lt, Value::Float(3.0)),
        ],
        all_cols(r, 5),
    );
    let (pruned, n) =
        dataflow::prune_empty(&contradictory, empdept, Some(env.rel_tables.as_slice()));
    plans_analyzed += 1;
    empty_subtrees_pruned += n as u64;
    let engine = Engine::new(empdept, &env, model);
    let rs = engine.execute(&pruned)?;
    if n != 1 || !rs.rows.is_empty() || rs.io_pages != 0.0 {
        return Err(AggViewError::PlanInvalid(
            "contradictory plan was not pruned to a zero-IO EmptyScan".into(),
        ));
    }

    let scan = Plan::scan(r, "emp", vec![], all_cols(r, 5));
    plans_analyzed += 1;
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_rows(1));
    match engine.execute_governed(&scan, &gov, None) {
        Err(e) if e.kind() == "plan-inadmissible" && gov.rows_used() == 0 => {
            statically_rejected += 1;
        }
        Ok(_) => {
            return Err(AggViewError::PlanInvalid(
                "over-budget scan was admitted past the static gate".into(),
            ))
        }
        Err(e) => return Err(e),
    }

    Ok(StaticAnalysisReport {
        plans_analyzed,
        empty_subtrees_pruned,
        statically_rejected,
    })
}

/// Measure the durability subsystem on a scratch directory: the WAL
/// append tax over the in-memory insert path, replay throughput on
/// recovery, and checkpoint + post-checkpoint recovery latency.
/// Correctness (recovered state == committed state) is the integration
/// suite's job; this only quantifies the cost.
fn durability_report(scale: usize, repeats: usize) -> Result<DurabilityReport> {
    use aggview_common::Schema;
    use aggview_storage::{Table, WalReader};

    let base = std::env::temp_dir().join(format!("aggview-bench-dur-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&base);

    let n_batches = 40 * scale;
    let batch_rows = 25usize;
    let rows_appended = (n_batches * batch_rows) as u64;
    let mk_table = || -> Result<std::sync::Arc<Table>> {
        Table::builder(
            "kv",
            Schema::of(&[("k", DataType::Int), ("v", DataType::Float)]),
        )
        .primary_key(&["k"])?
        .build()
    };
    let batch = |b: usize| -> Vec<Tuple> {
        (0..batch_rows)
            .map(|i| {
                let k = (b * batch_rows + i) as i64;
                Tuple::new(vec![Value::Int(k), Value::Float(k as f64 * 0.5)])
            })
            .collect()
    };

    // In-memory baseline: identical batches, no WAL.
    let mut mem_insert_ms = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let cat = Catalog::new();
        cat.add(mk_table()?)?;
        let t0 = Instant::now();
        for b in 0..n_batches {
            cat.append_rows("kv", batch(b))?;
        }
        mem_insert_ms = mem_insert_ms.min(t0.elapsed().as_secs_f64() * 1e3);
    }

    // Durable appends: a fresh directory per repeat so every run logs
    // the same record sequence.
    let mut wal_insert_ms = f64::INFINITY;
    let replay_dir = base.join("replay");
    for rep in 0..repeats.max(1) {
        let dir = base.join(format!("ins{rep}"));
        let _ = std::fs::remove_dir_all(&dir);
        let cat = Catalog::open(&dir)?;
        cat.add(mk_table()?)?;
        let t0 = Instant::now();
        for b in 0..n_batches {
            cat.append_rows("kv", batch(b))?;
        }
        wal_insert_ms = wal_insert_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        if rep + 1 == repeats.max(1) {
            drop(cat);
            let _ = std::fs::remove_dir_all(&replay_dir);
            std::fs::rename(&dir, &replay_dir)
                .map_err(|e| AggViewError::Io(format!("stage replay dir: {e}")))?;
        }
    }

    // Replay: recover the un-checkpointed log.
    let replay_records =
        WalReader::read_committed(&replay_dir.join(aggview_storage::catalog::WAL_FILE))?
            .records
            .len() as u64;
    let mut replay_ms = f64::INFINITY;
    let mut recovered_rows = 0;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let cat = Catalog::open(&replay_dir)?;
        replay_ms = replay_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        recovered_rows = cat.get("kv")?.len() as u64;
    }
    if recovered_rows != rows_appended {
        return Err(AggViewError::PlanInvalid(format!(
            "durability bench: recovered {recovered_rows} rows, appended {rows_appended}"
        )));
    }

    // Checkpoint, then recover from the snapshot alone.
    let cat = Catalog::open(&replay_dir)?;
    let (checkpoint_ms, _) = time_best(repeats, || cat.checkpoint())?;
    drop(cat);
    let mut recover_after_checkpoint_ms = f64::INFINITY;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let cat = Catalog::open(&replay_dir)?;
        recover_after_checkpoint_ms =
            recover_after_checkpoint_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        debug_assert_eq!(cat.get("kv")?.len() as u64, rows_appended);
    }
    let _ = std::fs::remove_dir_all(&base);

    Ok(DurabilityReport {
        rows_appended,
        mem_insert_ms,
        wal_insert_ms,
        wal_overhead: wal_insert_ms / mem_insert_ms.max(1e-9),
        replay_records,
        replay_ms,
        replay_rows_per_sec: rate(rows_appended, replay_ms),
        checkpoint_ms,
        recover_after_checkpoint_ms,
    })
}

/// Measure the materialized-view trajectory on a per-department salary
/// aggregate: cold (inlined), hot (extent access path — the bench
/// fails if the optimizer does not pick it, since on this data the
/// extent is strictly cheaper), and stale-then-refreshed recovery.
fn matview_report(scale: usize, repeats: usize) -> Result<MatviewReport> {
    use aggview_sql::Session;

    let mut s = Session::new(gen_empdept(&EmpDeptConfig {
        n_depts: 200,
        emps_per_dept: 100 * scale,
        young_fraction: 0.1,
        low_budget_fraction: 0.3,
        seed: 12,
    })?);
    // Serial execution on both sides: the section isolates the
    // access-path difference, not thread scaling.
    s.exec = ExecOptions::with_threads(1);
    let query = "select dno, sum(sal), count(*) from emp group by dno";
    let base_rows = s.catalog().get("emp")?.len() as u64;

    let (cold_ms, cold) = time_best(repeats, || s.execute(query))?;

    s.execute(
        "create materialized view dsal(dno, total, n) as \
         select dno, sum(sal), count(*) from emp group by dno",
    )?;
    let extent_rows = s.catalog().get("__mv_dsal")?.len() as u64;
    let (materialized_ms, hot) = time_best(repeats, || s.execute(query))?;
    if !hot.plan.contains("ExtentScan") {
        return Err(AggViewError::PlanInvalid(format!(
            "bench matview workload: extent not chosen:\n{}",
            hot.plan
        )));
    }
    if sorted(&cold.rows) != sorted(&hot.rows) {
        return Err(AggViewError::PlanInvalid(
            "bench matview workload: extent rows diverge from inlined rows".into(),
        ));
    }

    // Incremental INSERT maintenance must land on the same extent a
    // from-scratch rebuild produces.
    s.execute("insert into emp values (900001, 'pat', 0, 1234.5, 25)")?;
    let incremental = sorted(s.catalog().get("__mv_dsal")?.rows());
    let (refresh_ms, _) = time_best(repeats, || s.execute("refresh materialized view dsal"))?;
    let rebuilt = sorted(s.catalog().get("__mv_dsal")?.rows());
    let incremental_matches_refresh = incremental == rebuilt;

    // Staleness recovery: a maintenance-bypassing append invalidates
    // the extent; measure refresh + answer. Each repeat appends a
    // distinct key (eno is emp's primary key).
    let mut next_eno = 900_002i64;
    let (stale_then_refreshed_ms, _) = time_best(repeats, || {
        let eno = next_eno;
        next_eno += 1;
        s.catalog().append_rows(
            "emp",
            vec![Tuple::new(vec![
                Value::Int(eno),
                Value::str("kim"),
                Value::Int(1),
                Value::Float(800.0),
                Value::Int(40),
            ])],
        )?;
        s.execute("refresh materialized view dsal")?;
        s.execute(query)
    })?;

    Ok(MatviewReport {
        base_rows,
        extent_rows,
        cold_ms,
        materialized_ms,
        speedup: cold_ms / materialized_ms.max(1e-9),
        refresh_ms,
        stale_then_refreshed_ms,
        incremental_matches_refresh,
    })
}

/// Steady-state DML maintenance: each round inserts a row, gives it a
/// raise, and deletes it again (net zero, so every repeat and both
/// strategies see the same base data), against three registered views.
/// Salaries are multiples of 0.5 so incremental retraction is exact
/// arithmetic and the final-extent comparison is byte-for-byte.
fn maintenance_report(scale: usize, repeats: usize) -> Result<MaintenanceReport> {
    use aggview_sql::Session;
    use aggview_storage::{MatViewMeta, Table};

    const N_DEPTS: i64 = 50;
    let emps_per_dept = (200 * scale) as i64;
    let rounds = 8u64;

    let seed_catalog = || -> Result<Catalog> {
        let cat = Catalog::new();
        let mut b = Table::builder(
            "emp",
            Schema::of(&[
                ("eno", DataType::Int),
                ("name", DataType::Str),
                ("dno", DataType::Int),
                ("sal", DataType::Float),
                ("age", DataType::Int),
            ]),
        )
        .primary_key(&["eno"])?;
        let mut eno = 0i64;
        for dno in 0..N_DEPTS {
            for k in 0..emps_per_dept {
                // Every group spans exactly [1000, 1237.5] so the
                // interior salaries the rounds insert are never a
                // group extremum (no MIN/MAX recompute on their
                // deletion — the steady-state delta path is what this
                // section times).
                b.push(Tuple::new(vec![
                    Value::Int(eno),
                    Value::Str(format!("p{eno}").into()),
                    Value::Int(dno),
                    Value::Float(1000.0 + (k % 20) as f64 * 12.5),
                    Value::Int(21 + (k % 30)),
                ]))?;
                eno += 1;
            }
        }
        cat.add(b.build()?)?;
        Ok(cat)
    };
    const VIEWS: &[(&str, &str)] = &[
        (
            "msum",
            "create materialized view msum(dno, total, n) as \
             select dno, sum(sal), count(*) from emp group by dno",
        ),
        (
            "mrange",
            "create materialized view mrange(dno, lo, hi, n) as \
             select dno, min(sal), max(sal), count(*) from emp group by dno",
        ),
        (
            "myoung",
            "create materialized view myoung(dno, avgsal) as \
             select dno, avg(sal) from emp where age < 30 group by dno",
        ),
    ];

    let session = || -> Result<Session> {
        let mut s = Session::new(seed_catalog()?);
        s.exec = ExecOptions::with_threads(1);
        for (_, create) in VIEWS {
            s.execute(create)?;
        }
        Ok(s)
    };
    let inc = session()?;
    let mut refr = session()?;
    let base_rows = inc.catalog().get("emp")?.len() as u64;
    let model = model_with_mem(64.0);
    let opts = ExecOptions::with_threads(1);

    // Both strategies pay the identical base-table mutation cost, so the
    // clock covers *maintenance work only*: the Z-set delta pass on one
    // side, the per-change `REFRESH` rebuilds on the other. Mutations
    // run outside the timed regions.
    let emp_row = |eno: i64, dno: i64, sal: f64, age: i64| {
        Tuple::new(vec![
            Value::Int(eno),
            Value::str("mx"),
            Value::Int(dno),
            Value::Float(sal),
            Value::Int(age),
        ])
    };

    // Incremental strategy: the delta-maintenance entry point the SQL
    // layer's INSERT/UPDATE/DELETE statements call.
    let mut next_eno = 1_000_000i64;
    let mut incremental_ms = f64::INFINITY;
    for _ in 0..repeats {
        let gov = ResourceGovernor::new(aggview_core::governor::ResourceLimits::unlimited());
        let cat = inc.catalog();
        let mut elapsed = 0.0f64;
        let mut maintain = |delta: &aggview_common::ZSet| -> Result<()> {
            let t = Instant::now();
            aggview_executor::delta::maintain_after_dml(
                "emp", delta, cat, model, opts, &gov, None,
            )?;
            elapsed += t.elapsed().as_secs_f64() * 1e3;
            Ok(())
        };
        for r in 0..rounds {
            let eno = next_eno;
            next_eno += 1;
            let dno = (r as i64) % N_DEPTS;
            // Interior, never tying a stored value (offset ends .25).
            let sal = 1106.25 + (r as i64 % 8) as f64 * 12.5;
            let age = 20 + (r as i64 % 30);

            cat.append_rows("emp", vec![emp_row(eno, dno, sal, age)])?;
            maintain(&aggview_common::ZSet::from_inserts([emp_row(
                eno, dno, sal, age,
            )]))?;

            let pos = cat.get("emp")?.len() - 1;
            let pairs = cat.update_rows("emp", &[pos], vec![emp_row(eno, dno, sal + 12.5, age)])?;
            let mut delta = aggview_common::ZSet::new();
            for (old, new) in pairs {
                delta.add(old, -1);
                delta.add(new, 1);
            }
            maintain(&delta)?;

            let removed = cat.delete_rows("emp", &[pos])?;
            maintain(&aggview_common::ZSet::from_deletes(removed))?;
        }
        incremental_ms = incremental_ms.min(elapsed);
    }

    // Refresh-per-change strategy: every view rebuilt from scratch
    // after each mutation.
    let mut refresh_ms = f64::INFINITY;
    for _ in 0..repeats {
        let mut elapsed = 0.0f64;
        let mut refresh_all = |s: &mut Session| -> Result<()> {
            let t = Instant::now();
            for (name, _) in VIEWS {
                s.execute(&format!("refresh materialized view {name}"))?;
            }
            elapsed += t.elapsed().as_secs_f64() * 1e3;
            Ok(())
        };
        for r in 0..rounds {
            let eno = next_eno;
            next_eno += 1;
            let dno = (r as i64) % N_DEPTS;
            let sal = 1106.25 + (r as i64 % 8) as f64 * 12.5;
            let age = 20 + (r as i64 % 30);
            refr.catalog()
                .append_rows("emp", vec![emp_row(eno, dno, sal, age)])?;
            refresh_all(&mut refr)?;
            let pos = refr.catalog().get("emp")?.len() - 1;
            refr.catalog()
                .update_rows("emp", &[pos], vec![emp_row(eno, dno, sal + 12.5, age)])?;
            refresh_all(&mut refr)?;
            refr.catalog().delete_rows("emp", &[pos])?;
            refresh_all(&mut refr)?;
        }
        refresh_ms = refresh_ms.min(elapsed);
    }

    // Both histories are net no-ops over identical seeds, so every
    // extent must agree byte-for-byte across the two strategies.
    let mut incremental_matches_refresh = true;
    for (name, _) in VIEWS {
        let ext = MatViewMeta::extent_name(name);
        let a = sorted(inc.catalog().get(&ext)?.rows());
        let b = sorted(refr.catalog().get(&ext)?.rows());
        incremental_matches_refresh &= a == b;
    }

    let statements = rounds * 3;
    Ok(MaintenanceReport {
        views: VIEWS.len() as u64,
        rounds,
        base_rows,
        statements,
        incremental_ms,
        refresh_ms,
        incremental_stmts_per_sec: rate(statements, incremental_ms),
        refresh_stmts_per_sec: rate(statements, refresh_ms),
        speedup: refresh_ms / incremental_ms.max(1e-9),
        incremental_matches_refresh,
    })
}

fn sorted(rows: &[Tuple]) -> Vec<Tuple> {
    let mut v = rows.to_vec();
    v.sort();
    v
}

/// Total base-table rows feeding a query (each relation occurrence
/// scans its table once).
fn base_rows(catalog: &Catalog, env: &QueryEnv) -> u64 {
    env.rel_tables
        .iter()
        .map(|t| catalog.get(t).map_or(0, |t| t.len()) as u64)
        .sum()
}

#[allow(clippy::too_many_arguments)]
fn run_workload(
    name: &'static str,
    catalog: &Catalog,
    env: &QueryEnv,
    model: aggview_core::CostModel,
    plan: &Plan,
    input_rows: u64,
    threads: usize,
    repeats: usize,
) -> Result<WorkloadReport> {
    let serial = Engine::new(catalog, env, model).with_options(ExecOptions::with_threads(1));
    let parallel =
        Engine::new(catalog, env, model).with_options(ExecOptions::with_threads(threads));
    let (serial_ms, rs) = time_best(repeats, || serial.execute(plan))?;
    let (parallel_ms, rp) = time_best(repeats, || parallel.execute(plan))?;
    Ok(WorkloadReport {
        name,
        input_rows,
        output_rows: rs.rows.len() as u64,
        serial_ms,
        parallel_ms,
        serial_rows_per_sec: rate(input_rows, serial_ms),
        parallel_rows_per_sec: rate(input_rows, parallel_ms),
        speedup: serial_ms / parallel_ms.max(1e-9),
        peak_intermediate_bytes: rs.peak_intermediate_bytes.max(rp.peak_intermediate_bytes),
    })
}

fn time_best<T>(repeats: usize, mut f: impl FnMut() -> Result<T>) -> Result<(f64, T)> {
    let mut best_ms = f64::INFINITY;
    let mut last = None;
    for _ in 0..repeats.max(1) {
        let t0 = Instant::now();
        let out = f()?;
        best_ms = best_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        last = Some(out);
    }
    Ok((best_ms, last.expect("at least one repeat")))
}

fn rate(rows: u64, ms: f64) -> f64 {
    rows as f64 / (ms / 1e3).max(1e-9)
}

// ---------------------------------------------------------------------
// Serial kernels: the engine's vectorized kernels timed on their own.
// ---------------------------------------------------------------------

/// Layout binder for a tuple laid out as emp's five base columns.
fn emp_layout(c: Col) -> Option<usize> {
    (0..5).find(|&i| c == Col::base(RelId(0), i))
}

fn identity(n: usize) -> Vec<usize> {
    (0..n).collect()
}

fn timing(name: &'static str, input_rows: usize, ms: f64) -> KernelTiming {
    KernelTiming {
        name,
        input_rows: input_rows as u64,
        ms,
        rows_per_sec: rate(input_rows as u64, ms),
    }
}

/// Scan+filter+project of the emp table, as the engine's scan runs it:
/// over the table's column image. Whichever scan names a column first
/// transposes it; best-of-`repeats` times the scans after that one.
fn filter_kernel(table: &Table, repeats: usize) -> Result<KernelTiming> {
    let gov = ResourceGovernor::unlimited();
    let opts = ExecOptions::with_threads(1);
    // SELECT dno, sal FROM emp WHERE sal >= 800 AND age < 40.
    let preds: Vec<BoundPredicate> = [
        Predicate::cmp_const(
            Col::base(RelId(0), emp::SAL),
            CmpOp::Ge,
            Value::Float(800.0),
        ),
        Predicate::cmp_const(Col::base(RelId(0), emp::AGE), CmpOp::Lt, Value::Int(40)),
    ]
    .iter()
    .map(|p| p.bind(&emp_layout))
    .collect::<Result<_>>()?;
    let (ms, _) = time_best(repeats, || {
        vector::scan_table(&opts, &gov, table, &preds, &[emp::DNO, emp::SAL])
    })?;
    Ok(timing("filter", table.len(), ms))
}

/// Join payloads over the combined layout `dept ++ emp`: every dept
/// column plus emp name and sal (three numeric, three string columns),
/// and the three string columns alone (dname, loc, emp name).
const JOIN_MIXED_PAYLOAD: &[usize] = &[0, 1, 2, 3, 4 + emp::NAME, 4 + emp::SAL];
const JOIN_STR_PAYLOAD: &[usize] = &[dept::DNAME, dept::LOC, 4 + emp::NAME];

/// Hash join build + probe on the Int key `dno`, emitting `positions`.
/// Inputs are transposed outside the timed region: in the engine a join
/// consumes batches produced upstream, so transposition belongs to the
/// scan (the `filter` entry), not the join.
fn join_kernel(
    name: &'static str,
    positions: &[usize],
    (emp_rows, emp_types): (&[Tuple], &[DataType]),
    (dept_rows, dept_types): (&[Tuple], &[DataType]),
    repeats: usize,
) -> Result<KernelTiming> {
    let gov = ResourceGovernor::unlimited();
    let opts = ExecOptions::with_threads(1);
    let build_pos = [dept::DNO];
    let probe_pos = [emp::DNO];
    let build = Batch::from_tuples(dept_rows, &identity(dept_types.len()), dept_types);
    let probe = Batch::from_tuples(emp_rows, &identity(emp_types.len()), emp_types);
    let (ms, _) = time_best(repeats, || {
        let index = vector::build_index(&opts, &gov, &build, &probe, &build_pos, &probe_pos)?;
        vector::probe_join(
            &opts,
            &gov,
            &build,
            &probe,
            &index,
            &build_pos,
            &probe_pos,
            &[],
            true,
            4,
            positions,
        )
    })?;
    Ok(timing(name, emp_rows.len() + dept_rows.len(), ms))
}

/// The emp rows with `name` replaced by a label of the row's `dno`: a
/// string key with exactly the groups of the Int key.
fn dept_labelled(emp_rows: &[Tuple]) -> Vec<Tuple> {
    emp_rows
        .iter()
        .map(|r| {
            let mut cells = r.values().to_vec();
            cells[emp::NAME] = Value::str(format!("dept-{}", r.get(emp::DNO)));
            Tuple::new(cells)
        })
        .collect()
}

/// Employees per team in [`in_teams`] and [`team_rows`]: 20,000
/// employees make 2,000 groups.
const TEAM_SIZE: i64 = 10;

/// The emp rows with `dno` replaced by the employee's team, `eno / 10`:
/// many small groups instead of a few large ones.
fn in_teams(emp_rows: &[Tuple]) -> Vec<Tuple> {
    emp_rows
        .iter()
        .map(|r| {
            let mut cells = r.values().to_vec();
            cells[emp::DNO] = Value::Int(r.get(emp::ENO).as_i64().unwrap_or(0) / TEAM_SIZE);
            Tuple::new(cells)
        })
        .collect()
}

/// Layout of [`team_rows`]: the team, four columns it determines (two of
/// them strings), and the salary.
const TEAM_TYPES: &[DataType] = &[
    DataType::Int,
    DataType::Str,
    DataType::Str,
    DataType::Int,
    DataType::Float,
    DataType::Float,
];
const TEAM_SAL: usize = 5;

/// The shape the Figure 4 pull-up hands its group-by: rows that group on
/// a key (the team) *and* on what the key determines.
fn team_rows(emp_rows: &[Tuple]) -> Vec<Tuple> {
    emp_rows
        .iter()
        .map(|r| {
            let team = r.get(emp::ENO).as_i64().unwrap_or(0) / TEAM_SIZE;
            Tuple::new(vec![
                Value::Int(team),
                Value::str(format!("team-{team}")),
                Value::str(format!("site-{}", team % 50)),
                Value::Int(team * 3),
                Value::Float(team as f64 * 12.5),
                r.get(emp::SAL).clone(),
            ])
        })
        .collect()
}

/// COUNT(*) and AVG(sal) over emp-shaped rows.
const COUNT_AVG_SAL: &[(AggFunc, Option<usize>)] =
    &[(AggFunc::Count, None), (AggFunc::Avg, Some(emp::SAL))];

/// Hash aggregation of `aggs` (function and argument column) over
/// `rows`, grouped by the columns `keys` and looked up by `keys[l]` for
/// `l` in `lookup`. As with the join, the input batch is transposed
/// outside the timed region.
fn group_kernel(
    name: &'static str,
    (keys, lookup): (&[usize], &[usize]),
    aggs: &[(AggFunc, Option<usize>)],
    (rows, types): (&[Tuple], &[DataType]),
    repeats: usize,
) -> Result<KernelTiming> {
    let gov = ResourceGovernor::unlimited();
    let opts = ExecOptions::with_threads(1);
    let inputs: Vec<AggInput> = aggs
        .iter()
        .map(|(_, arg)| arg.map_or(AggInput::RawCountStar, |c| AggInput::Raw(BoundExpr::Col(c))))
        .collect();
    let funcs: Vec<AggFunc> = aggs.iter().map(|&(f, _)| f).collect();
    let batch = Batch::from_tuples(rows, &identity(types.len()), types);
    let (ms, _) = time_best(repeats, || {
        vector::accumulate_groups(&opts, &gov, &batch, keys, lookup, &inputs, &funcs)?
            .into_columns(true)
    })?;
    Ok(timing(name, rows.len(), ms))
}

// ---------------------------------------------------------------------
// Workload queries (shared with the criterion benches).
// ---------------------------------------------------------------------

/// E3 / Figure 4: one aggregate view joined to a filtered outer emp.
fn figure4_query() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let e1 = env.add_rel("emp");
    let d = env.add_rel("dept");
    let e3 = env.add_rel("emp");
    let view = ViewDef {
        index: 0,
        rels: vec![e1, d],
        preds: vec![Predicate::eq_cols(
            Col::base(e1, emp::DNO),
            Col::base(d, dept::DNO),
        )],
        group_cols: vec![
            Col::base(e1, emp::DNO),
            Col::base(d, dept::DNAME),
            Col::base(d, dept::LOC),
        ],
        aggs: vec![AggSpec::new(
            AggFunc::Avg,
            Expr::col(Col::base(e1, emp::SAL)),
        )],
        having: vec![],
    };
    CanonicalQuery {
        env,
        views: vec![view],
        base_rels: vec![e3],
        preds: vec![
            Predicate::eq_cols(Col::base(e3, emp::DNO), Col::base(e1, emp::DNO)),
            Predicate::cmp_const(Col::base(e3, emp::AGE), CmpOp::Lt, Value::Int(22)),
            Predicate::new(
                Expr::col(Col::base(e3, emp::SAL)),
                CmpOp::Gt,
                Expr::col(Col::agg(ViewId::View(0), 0)),
            ),
        ],
        group: None,
        projection: vec![
            Col::base(e3, emp::SAL),
            Col::base(d, dept::DNAME),
            Col::base(d, dept::LOC),
        ],
    }
}

/// E8: count line items per customer (the coalescing shape).
fn count_per_customer() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let l = env.add_rel("lineitem");
    let o = env.add_rel("orders");
    CanonicalQuery {
        env,
        views: vec![],
        base_rels: vec![l, o],
        preds: vec![Predicate::eq_cols(Col::base(l, 1), Col::base(o, 0))],
        group: Some(TopGroup {
            group_cols: vec![Col::base(o, 1)],
            aggs: vec![AggSpec::count_star()],
            having: vec![],
        }),
        projection: vec![Col::base(o, 1), Col::agg(ViewId::Top, 0)],
    }
}

// ---------------------------------------------------------------------
// Report rendering.
// ---------------------------------------------------------------------

impl ExecBenchReport {
    /// Serialize to JSON (handwritten — the workspace carries no JSON
    /// dependency).
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"exec\",\n");
        s.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        s.push_str(&format!("  \"threads\": {},\n", self.threads));
        s.push_str(&format!("  \"scale\": {},\n", self.scale));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str(&format!("  \"plans_checked\": {},\n", self.plans_checked));
        s.push_str(&format!("  \"plans_passed\": {},\n", self.plans_passed));
        s.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            s.push_str(&format!(
                "    {}{}\n",
                workload_json(w, self.host_cpus),
                comma(i, self.workloads.len()),
            ));
        }
        s.push_str("  ],\n");
        let m = &self.matview;
        s.push_str(&format!(
            "  \"matview\": {{\"base_rows\": {}, \"extent_rows\": {}, \
             \"cold_ms\": {}, \"materialized_ms\": {}, \"speedup\": {}, \
             \"refresh_ms\": {}, \"stale_then_refreshed_ms\": {}, \
             \"incremental_matches_refresh\": {}}},\n",
            m.base_rows,
            m.extent_rows,
            num(m.cold_ms),
            num(m.materialized_ms),
            num(m.speedup),
            num(m.refresh_ms),
            num(m.stale_then_refreshed_ms),
            m.incremental_matches_refresh,
        ));
        let mn = &self.maintenance;
        s.push_str(&format!(
            "  \"maintenance\": {{\"views\": {}, \"rounds\": {}, \"base_rows\": {}, \
             \"statements\": {}, \"incremental_ms\": {}, \"refresh_ms\": {}, \
             \"incremental_stmts_per_sec\": {}, \"refresh_stmts_per_sec\": {}, \
             \"speedup\": {}, \"incremental_matches_refresh\": {}}},\n",
            mn.views,
            mn.rounds,
            mn.base_rows,
            mn.statements,
            num(mn.incremental_ms),
            num(mn.refresh_ms),
            num(mn.incremental_stmts_per_sec),
            num(mn.refresh_stmts_per_sec),
            num(mn.speedup),
            mn.incremental_matches_refresh,
        ));
        let d = &self.durability;
        s.push_str(&format!(
            "  \"durability\": {{\"rows_appended\": {}, \"mem_insert_ms\": {}, \
             \"wal_insert_ms\": {}, \"wal_overhead\": {}, \"replay_records\": {}, \
             \"replay_ms\": {}, \"replay_rows_per_sec\": {}, \"checkpoint_ms\": {}, \
             \"recover_after_checkpoint_ms\": {}}},\n",
            d.rows_appended,
            num(d.mem_insert_ms),
            num(d.wal_insert_ms),
            num(d.wal_overhead),
            d.replay_records,
            num(d.replay_ms),
            num(d.replay_rows_per_sec),
            num(d.checkpoint_ms),
            num(d.recover_after_checkpoint_ms),
        ));
        s.push_str("  \"serial_kernels\": {\n");
        s.push_str("    \"kernels\": [\n");
        let ks = &self.serial_kernels.kernels;
        for (i, k) in ks.iter().enumerate() {
            s.push_str(&format!(
                "      {{\"name\": \"{}\", \"input_rows\": {}, \"ms\": {}, \
                 \"rows_per_sec\": {}}}{}\n",
                k.name,
                k.input_rows,
                num(k.ms),
                num(k.rows_per_sec),
                comma(i, ks.len()),
            ));
        }
        s.push_str("    ],\n");
        s.push_str(&format!(
            "    \"mixed_demotions\": {}\n",
            self.serial_kernels.mixed_demotions
        ));
        s.push_str("  },\n");
        let ea = &self.eager_agg;
        s.push_str("  \"eager_agg\": {\n");
        s.push_str("    \"shapes\": [\n");
        for (i, w) in ea.shapes.iter().enumerate() {
            s.push_str(&format!(
                "      {}{}\n",
                workload_json(w, self.host_cpus),
                comma(i, ea.shapes.len()),
            ));
        }
        s.push_str("    ],\n");
        s.push_str(&format!("    \"peak_ratio\": {},\n", num(ea.peak_ratio)));
        s.push_str(&format!(
            "    \"eager_plan_fired\": {},\n",
            ea.eager_plan_fired
        ));
        s.push_str(&format!("    \"results_match\": {}\n", ea.results_match));
        s.push_str("  },\n");
        let sa = &self.static_analysis;
        s.push_str(&format!(
            "  \"static_analysis\": {{\"plans_analyzed\": {}, \
             \"empty_subtrees_pruned\": {}, \"statically_rejected\": {}}}\n",
            sa.plans_analyzed, sa.empty_subtrees_pruned, sa.statically_rejected,
        ));
        s.push_str("}\n");
        s
    }

    /// Human-readable summary for the REPL `.bench` command and the
    /// bench binary's stdout.
    pub fn summary_table(&self) -> String {
        let mut s = format!(
            "exec bench — host_cpus {}, threads 1 vs {}, scale {}, best of {}\n\
             plan analyzer: {}/{} workload plans pass integrity checks\n",
            self.host_cpus,
            self.threads,
            self.scale,
            self.repeats,
            self.plans_passed,
            self.plans_checked
        );
        s.push_str(&format!(
            "{:<14} {:>10} {:>10} {:>10} {:>10} {:>8} {:>12}\n",
            "workload", "rows", "serial ms", "par ms", "speedup", "out", "peak bytes"
        ));
        for w in &self.workloads {
            let speedup = if self.host_cpus > 1 {
                format!("{:>9.2}x", w.speedup)
            } else {
                format!("{:>10}", "n/a")
            };
            s.push_str(&format!(
                "{:<14} {:>10} {:>10.2} {:>10.2} {} {:>8} {:>12}\n",
                w.name,
                w.input_rows,
                w.serial_ms,
                w.parallel_ms,
                speedup,
                w.output_rows,
                w.peak_intermediate_bytes
            ));
        }
        if self.host_cpus == 1 {
            s.push_str(
                "note: single-cpu host — parallel speedup suppressed (null in the \
                 JSON report); run on a multi-core host for scaling numbers\n",
            );
        }
        s.push_str(&format!(
            "serial kernels: {}\n",
            self.serial_kernels
                .kernels
                .iter()
                .map(|k| format!("{} {:.2} ms ({:.0} rows/s)", k.name, k.ms, k.rows_per_sec))
                .collect::<Vec<_>>()
                .join(", ")
        ));
        let m = &self.matview;
        s.push_str(&format!(
            "matview ({} base rows -> {} extent rows): cold {:.2} ms, \
             materialized {:.2} ms ({:.2}x), refresh {:.2} ms, \
             stale+refresh+answer {:.2} ms, incremental == refresh: {}\n",
            m.base_rows,
            m.extent_rows,
            m.cold_ms,
            m.materialized_ms,
            m.speedup,
            m.refresh_ms,
            m.stale_then_refreshed_ms,
            m.incremental_matches_refresh
        ));
        let mn = &self.maintenance;
        s.push_str(&format!(
            "maintenance ({} views, {} mixed-DML stmts over {} rows, maintenance time only): \
             incremental {:.2} ms ({:.0} stmts/s) vs refresh-per-change {:.2} ms \
             ({:.0} stmts/s) — {:.1}x, extents identical: {}\n",
            mn.views,
            mn.statements,
            mn.base_rows,
            mn.incremental_ms,
            mn.incremental_stmts_per_sec,
            mn.refresh_ms,
            mn.refresh_stmts_per_sec,
            mn.speedup,
            mn.incremental_matches_refresh
        ));
        let d = &self.durability;
        s.push_str(&format!(
            "durability ({} rows): insert mem {:.2} ms / wal {:.2} ms ({:.2}x tax), \
             replay {} records in {:.2} ms ({:.0} rows/s), \
             checkpoint {:.2} ms, recover-from-snapshot {:.2} ms\n",
            d.rows_appended,
            d.mem_insert_ms,
            d.wal_insert_ms,
            d.wal_overhead,
            d.replay_records,
            d.replay_ms,
            d.replay_rows_per_sec,
            d.checkpoint_ms,
            d.recover_after_checkpoint_ms
        ));
        let ea = &self.eager_agg;
        s.push_str(&format!(
            "eager aggregation (self-join then group-by): peak {} bytes eager vs {} \
             traditional ({:.1}x less), serial {:.2} ms vs {:.2} ms, \
             plan fired: {}, results identical: {}\n",
            ea.shapes.first().map_or(0, |w| w.peak_intermediate_bytes),
            ea.shapes.get(1).map_or(0, |w| w.peak_intermediate_bytes),
            ea.peak_ratio,
            ea.shapes.first().map_or(0.0, |w| w.serial_ms),
            ea.shapes.get(1).map_or(0.0, |w| w.serial_ms),
            ea.eager_plan_fired,
            ea.results_match
        ));
        let sa = &self.static_analysis;
        s.push_str(&format!(
            "static analysis: {} plans analyzed, {} empty subtree(s) pruned, \
             {} plan(s) statically rejected, {} Mixed demotion(s)\n",
            sa.plans_analyzed,
            sa.empty_subtrees_pruned,
            sa.statically_rejected,
            self.serial_kernels.mixed_demotions
        ));
        s
    }
}

/// Check fresh workload peaks against a committed baseline report
/// (`BENCH_exec.json`). The scan is deliberately naive — one workload
/// object per line, extract `name` and `peak_intermediate_bytes` from
/// lines that carry both — so it needs no JSON dependency. Workloads
/// missing from the baseline are ignored (new workloads are allowed); a
/// fresh peak more than `tolerance` times its baseline is a regression.
pub fn check_peak_regression(
    baseline_json: &str,
    workloads: &[WorkloadReport],
    tolerance: f64,
) -> std::result::Result<(), String> {
    let mut baseline: HashMap<String, u64> = HashMap::new();
    for line in baseline_json.lines() {
        let Some(name) = extract_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(peak) = extract_u64(line, "\"peak_intermediate_bytes\": ") else {
            continue;
        };
        baseline.insert(name, peak);
    }
    let mut errs = Vec::new();
    for w in workloads {
        if let Some(&base) = baseline.get(w.name) {
            let limit = (base as f64 * tolerance).ceil() as u64;
            if w.peak_intermediate_bytes > limit {
                errs.push(format!(
                    "{}: peak_intermediate_bytes {} exceeds {} ({} x baseline {})",
                    w.name, w.peak_intermediate_bytes, limit, tolerance, base
                ));
            }
        }
    }
    if errs.is_empty() {
        Ok(())
    } else {
        Err(errs.join("\n"))
    }
}

fn extract_str(line: &str, key: &str) -> Option<String> {
    let rest = &line[line.find(key)? + key.len()..];
    Some(rest[..rest.find('"')?].to_string())
}

fn extract_u64(line: &str, key: &str) -> Option<u64> {
    let rest = &line[line.find(key)? + key.len()..];
    let end = rest
        .find(|c: char| !c.is_ascii_digit())
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// One workload measurement as a single-line JSON object — `name` and
/// `peak_intermediate_bytes` must share the line for the naive
/// [`check_peak_regression`] baseline scanner.
fn workload_json(w: &WorkloadReport, host_cpus: usize) -> String {
    // On a single-core host the serial/parallel ratio measures
    // scheduling noise, not scaling: suppress it rather than commit a
    // misleading ~1.0 to the report.
    let speedup = if host_cpus > 1 {
        num(w.speedup)
    } else {
        "null".to_string()
    };
    format!(
        "{{\"name\": \"{}\", \"input_rows\": {}, \"output_rows\": {}, \
         \"serial_ms\": {}, \"parallel_ms\": {}, \
         \"serial_rows_per_sec\": {}, \"parallel_rows_per_sec\": {}, \
         \"speedup\": {}, \"peak_intermediate_bytes\": {}}}",
        w.name,
        w.input_rows,
        w.output_rows,
        num(w.serial_ms),
        num(w.parallel_ms),
        num(w.serial_rows_per_sec),
        num(w.parallel_rows_per_sec),
        speedup,
        w.peak_intermediate_bytes,
    )
}

fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.4}")
    } else {
        "null".to_string()
    }
}

fn comma(i: usize, len: usize) -> &'static str {
    if i + 1 < len {
        ","
    } else {
        ""
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn small_run_produces_consistent_report() {
        let report = run_exec_bench(&ExecBenchConfig {
            threads: 2,
            scale: 1,
            repeats: 1,
        })
        .unwrap();
        assert_eq!(report.workloads.len(), 6);
        let kernel_names: Vec<_> = report
            .serial_kernels
            .kernels
            .iter()
            .map(|k| k.name)
            .collect();
        assert_eq!(
            kernel_names,
            [
                "filter",
                "hash_join",
                "hash_join_str",
                "group_by",
                "group_by_str",
                "group_by_many",
                "group_by_determined"
            ]
        );
        for k in &report.serial_kernels.kernels {
            assert!(k.ms > 0.0 && k.rows_per_sec > 0.0, "{} times", k.name);
        }
        for w in &report.workloads {
            assert!(w.input_rows > 0, "{} input", w.name);
            assert!(w.serial_ms > 0.0 && w.parallel_ms > 0.0, "{} times", w.name);
        }
        assert_eq!(report.plans_checked, 8, "every workload plan analyzed");
        assert_eq!(report.plans_passed, 8, "every workload plan accepted");
        let ea = &report.eager_agg;
        let shape_names: Vec<_> = ea.shapes.iter().map(|w| w.name).collect();
        assert_eq!(shape_names, ["eager_agg_on", "eager_agg_off"]);
        assert!(
            ea.eager_plan_fired,
            "eager optimizer must push a partial aggregate below the self-join"
        );
        assert!(
            ea.results_match,
            "eager and traditional shapes must compute identical results"
        );
        // The headline claim: partial aggregation below the join keeps
        // the peak footprint at least 2x under the materialize-then-
        // aggregate shape (measured bytes are deterministic).
        assert!(
            ea.peak_ratio >= 2.0,
            "eager aggregation should cut measured peak bytes >= 2x, got {:.2}x \
             (eager {} vs traditional {})",
            ea.peak_ratio,
            ea.shapes[0].peak_intermediate_bytes,
            ea.shapes[1].peak_intermediate_bytes
        );
        assert_eq!(
            report.serial_kernels.mixed_demotions, 0,
            "certified workloads must execute without Mixed demotions"
        );
        let sa = &report.static_analysis;
        assert_eq!(sa.plans_analyzed, 5);
        assert_eq!(sa.empty_subtrees_pruned, 1);
        assert_eq!(sa.statically_rejected, 1);
        assert!(report.matview.speedup > 0.0);
        assert!(
            report.matview.incremental_matches_refresh,
            "incremental maintenance must reproduce the rebuilt extent"
        );
        let mn = &report.maintenance;
        assert_eq!(mn.views, 3);
        assert_eq!(mn.statements, mn.rounds * 3);
        assert!(
            mn.incremental_matches_refresh,
            "delta maintenance must land on the refreshed extents"
        );
        assert!(
            mn.speedup >= 5.0,
            "incremental maintenance should beat refresh-per-change by >= 5x, got {:.2}x",
            mn.speedup
        );
        let d = &report.durability;
        assert_eq!(d.rows_appended, 1000);
        // put_table + one record per insert batch.
        assert_eq!(d.replay_records, 41);
        assert!(d.wal_insert_ms > 0.0 && d.replay_ms > 0.0 && d.checkpoint_ms > 0.0);
        let json = report.to_json();
        assert!(json.contains("\"plans_passed\": 8"));
        assert!(json.contains("\"eager_agg\""));
        assert!(json.contains("\"eager_agg_on\""));
        assert!(json.contains("\"eager_agg_off\""));
        assert!(json.contains("\"eager_plan_fired\": true"));
        assert!(json.contains("\"results_match\": true"));
        assert!(json.contains("\"durability\""));
        assert!(json.contains("\"replay_records\": 41"));
        assert!(json.contains("\"incremental_matches_refresh\": true"));
        assert!(json.contains("\"maintenance\""));
        assert!(json.contains("\"e8_groupby\""));
        assert!(json.contains("\"serial_kernels\""));
        assert!(json.contains("\"kernels\""));
        assert!(json.contains("\"mixed_demotions\": 0"));
        assert!(json.contains("\"static_analysis\""));
        assert!(json.contains("\"plans_analyzed\": 5"));
        assert!(json.contains("\"empty_subtrees_pruned\": 1"));
        assert!(json.contains("\"statically_rejected\": 1"));
        // Trailing-comma-free JSON: no ",\n<indent>]" sequences.
        assert!(!json.contains(",\n  ]"));
        assert!(!json.contains(",\n    ]"));

        // Workload speedups are suppressed on a single-core host and
        // emitted verbatim otherwise; the matview access-path speedup
        // is unaffected either way.
        let mut single = report.clone();
        single.host_cpus = 1;
        assert!(single
            .to_json()
            .contains("\"speedup\": null, \"peak_intermediate_bytes\""));
        assert!(single.summary_table().contains("n/a"));
        let mut multi = report;
        multi.host_cpus = 8;
        assert!(!multi
            .to_json()
            .contains("\"speedup\": null, \"peak_intermediate_bytes\""));
    }

    fn workload(name: &'static str, peak: u64) -> WorkloadReport {
        WorkloadReport {
            name,
            input_rows: 1,
            output_rows: 1,
            serial_ms: 1.0,
            parallel_ms: 1.0,
            serial_rows_per_sec: 1.0,
            parallel_rows_per_sec: 1.0,
            speedup: 1.0,
            peak_intermediate_bytes: peak,
        }
    }

    #[test]
    fn peak_baseline_check_flags_only_regressions() {
        let baseline = concat!(
            "  \"workloads\": [\n",
            "    {\"name\": \"scan_filter\", \"speedup\": 1.0, \
             \"peak_intermediate_bytes\": 1000},\n",
            "    {\"name\": \"hash_join\", \"speedup\": null, \
             \"peak_intermediate_bytes\": 2000}\n",
            "  ],\n",
            // Kernel entries have a name but no peak: must be ignored.
            "      {\"name\": \"group_by\", \"ms\": 2.0}\n",
        );

        // Within tolerance (exactly 10% over rounds up via ceil).
        let ok = [workload("scan_filter", 1100), workload("hash_join", 2000)];
        assert!(check_peak_regression(baseline, &ok, 1.10).is_ok());

        // A workload absent from the baseline is allowed.
        let new = [workload("brand_new", u64::MAX)];
        assert!(check_peak_regression(baseline, &new, 1.10).is_ok());

        // Past tolerance: named in the error.
        let bad = [workload("scan_filter", 1101), workload("hash_join", 1999)];
        let err = check_peak_regression(baseline, &bad, 1.10).unwrap_err();
        assert!(err.contains("scan_filter"), "{err}");
        assert!(!err.contains("hash_join"), "{err}");
    }
}
