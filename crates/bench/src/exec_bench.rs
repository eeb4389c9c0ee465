//! Serial kernel timings and the peak-memory gate — the
//! `BENCH_exec.json` report.
//!
//! Two things nothing else in the repository provides:
//!
//! * **Serial kernels.** The engine's vectorized kernels (scan+filter,
//!   hash join, group-by) timed on their own, outside any plan, at one
//!   thread: the rates per-row cost weights are to be fitted from.
//! * **Peak intermediate bytes.** Eight named plans — the E1, E3 and E8
//!   paper queries, three single-operator plans, and one self-join
//!   optimized with eager aggregation on and off — each executed once
//!   at one thread for its `peak_intermediate_bytes`. The figure is a
//!   deterministic byte count, so the committed report doubles as the
//!   baseline of a memory-regression gate ([`check_peak_regression`]).
//!   Every plan must pass the static integrity analyzer first.
//!
//! End-to-end timings (statements per second, per-layer shares, DML
//! maintenance, WAL, materialized views, thread scaling) are the
//! `benchmark/` package's job, not this module's.

use crate::model_with_mem;
use aggview_common::expr::BoundExpr;
use aggview_common::predicate::BoundPredicate;
use aggview_common::{
    AggFunc, AggSpec, AggViewError, Batch, CmpOp, Col, DataType, Expr, Predicate, RelId, Result,
    Tuple, Value, ViewId,
};
use aggview_core::analyze::PlanAnalyzer;
use aggview_core::governor::ResourceGovernor;
use aggview_core::optimizer::multi_view::optimize;
use aggview_core::plan::{all_cols, GroupBySpec, Plan};
use aggview_core::query::examples::{dept, emp, example1_query};
use aggview_core::query::{CanonicalQuery, QueryEnv, TopGroup, ViewDef};
use aggview_core::{CostModel, OptimizerConfig};
use aggview_executor::lookup::AggInput;
use aggview_executor::vector::{self, Held, JoinShape, Probe, Slot};
use aggview_executor::{Engine, ExecOptions};
use aggview_storage::datagen::{gen_empdept, gen_star, EmpDeptConfig, StarConfig};
use aggview_storage::{Catalog, Table};
use std::sync::Arc;
use std::time::Instant;

/// Knobs for one benchmark run.
#[derive(Debug, Clone, Copy)]
pub struct ExecBenchConfig {
    /// Multiplier on the base workload sizes.
    pub scale: usize,
    /// Timing repeats per kernel; the best (minimum) is reported. The
    /// first few repeats of a kernel also warm the allocator: below
    /// about five the join kernels read up to twice their steady state.
    pub repeats: usize,
}

impl Default for ExecBenchConfig {
    fn default() -> Self {
        ExecBenchConfig {
            scale: 1,
            repeats: 10,
        }
    }
}

/// One plan executed once at one thread.
#[derive(Debug, Clone)]
pub struct WorkloadReport {
    pub name: &'static str,
    pub input_rows: u64,
    pub output_rows: u64,
    pub peak_intermediate_bytes: u64,
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
}

/// Full benchmark output, serializable to `BENCH_exec.json`.
#[derive(Debug, Clone)]
pub struct ExecBenchReport {
    pub host_cpus: usize,
    pub scale: usize,
    pub repeats: usize,
    pub workloads: Vec<WorkloadReport>,
    pub serial_kernels: SerialKernels,
}

/// Run the suite: the serial kernels, then the eight peak workloads.
pub fn run_exec_bench(cfg: &ExecBenchConfig) -> Result<ExecBenchReport> {
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

    // Kernels first: their timings then do not depend on the allocator
    // state the workloads leave behind (`eager_agg_off` materializes a
    // 64 MB join output).
    let emp_rows = empdept.get("emp").map(|t| t.rows()).unwrap_or_default();
    let dept_rows = empdept.get("dept").map(|t| t.rows()).unwrap_or_default();
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
    let kernels = vec![
        filter_kernel(empdept.get("emp")?, repeats)?,
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
    ];

    let mut workloads = Vec::new();
    // End-to-end paper workloads, as the full optimizer plans them.
    for (name, q, catalog) in [
        ("e1_example1", example1_query(), &empdept),
        ("e3_figure4", figure4_query(), &empdept),
        ("e8_groupby", count_per_customer(), &star),
    ] {
        let plan = optimize(&q, catalog, model, &full)?.plan;
        workloads.push(peak_workload(
            name,
            catalog,
            model,
            &plan,
            &q.env,
            Some(&q),
        )?);
    }

    // Single-operator plans over Emp/Dept.
    let emp_env = QueryEnv::new(vec!["emp".into()]);
    let emp_dept_env = QueryEnv::new(vec!["emp".into(), "dept".into()]);
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
    let join_plan = Plan::join_all(
        Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
        Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4)),
        vec![Predicate::eq_cols(
            Col::base(RelId(0), emp::DNO),
            Col::base(RelId(1), dept::DNO),
        )],
    );
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
    for (name, plan, env) in [
        ("scan_filter", &scan_plan, &emp_env),
        ("hash_join", &join_plan, &emp_dept_env),
        ("hash_agg", &agg_plan, &emp_env),
    ] {
        workloads.push(peak_workload(name, &empdept, model, plan, env, None)?);
    }

    // The eager-aggregation pair: one self-join optimized with
    // `use_eager_agg` on (partial aggregation pushed below the join) and
    // off (aggregate over the materialized join).
    let q = eager_selfjoin_query();
    for (name, use_eager_agg) in [("eager_agg_on", true), ("eager_agg_off", false)] {
        let config = OptimizerConfig {
            use_eager_agg,
            ..full
        };
        let plan = optimize(&q, &empdept, model, &config)?.plan;
        if use_eager_agg && !contains_partial_aggregate(&plan) {
            return Err(AggViewError::PlanInvalid(format!(
                "bench workload {name}: no partial aggregate below the join:\n{}",
                plan.explain()
            )));
        }
        workloads.push(peak_workload(
            name,
            &empdept,
            model,
            &plan,
            &q.env,
            Some(&q),
        )?);
    }

    Ok(ExecBenchReport {
        host_cpus: std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get),
        scale,
        repeats,
        workloads,
        serial_kernels: SerialKernels { kernels },
    })
}

/// Gate `plan` behind the static integrity analyzer — a rejection fails
/// the whole bench run (and with it the CI bench-smoke job) — then
/// execute it once at one thread. Each relation occurrence of `env`
/// scans its table once, so the input is the sum of those tables' rows.
fn peak_workload(
    name: &'static str,
    catalog: &Catalog,
    model: CostModel,
    plan: &Plan,
    env: &QueryEnv,
    query: Option<&CanonicalQuery>,
) -> Result<WorkloadReport> {
    let analyzer = PlanAnalyzer::new(catalog).with_model(model);
    let analyzer = match query {
        Some(q) => analyzer.with_query(q),
        None => analyzer.with_env(env),
    };
    let report = analyzer.analyze(plan);
    if !report.is_ok() {
        return Err(AggViewError::PlanInvalid(format!(
            "bench workload {name}: {}",
            report.summary()
        )));
    }
    let rs = Engine::new(catalog, env, model).execute(plan)?;
    Ok(WorkloadReport {
        name,
        input_rows: env
            .rel_tables
            .iter()
            .map(|t| catalog.get(t).map_or(0, |t| t.len()) as u64)
            .sum(),
        output_rows: rs.rows.len() as u64,
        peak_intermediate_bytes: rs.peak_intermediate_bytes,
    })
}

// ---------------------------------------------------------------------
// Serial kernels: the engine's vectorized kernels timed on their own.
// ---------------------------------------------------------------------

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
/// over the table's columns; best-of-`repeats`.
fn filter_kernel(table: Arc<Table>, repeats: usize) -> Result<KernelTiming> {
    let gov = ResourceGovernor::unlimited();
    let opts = ExecOptions::default();
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
        let rows =
            vector::scan_table(&opts, &gov, table.clone(), &preds, vec![emp::DNO, emp::SAL])?;
        vector::collect(&opts, &gov, &rows, &[])
    })?;
    Ok(timing("filter", table.len(), ms))
}

/// Join payloads, dept (the build side, `true`) then emp: every dept
/// column plus emp name and sal (three numeric, three string columns),
/// and the three string columns alone (dname, loc, emp name).
const JOIN_MIXED_PAYLOAD: &[Slot] = &[
    (true, 0),
    (true, 1),
    (true, 2),
    (true, 3),
    (false, emp::NAME),
    (false, emp::SAL),
];
const JOIN_STR_PAYLOAD: &[Slot] = &[(true, dept::DNAME), (true, dept::LOC), (false, emp::NAME)];

/// Hash join build + probe on the Int key `dno`, emitting `payload`.
/// Inputs are transposed outside the timed region: in the engine a join
/// reads rows held upstream, so transposition belongs to the scan (the
/// `filter` entry), not the join.
fn join_kernel(
    name: &'static str,
    payload: &[Slot],
    (emp_rows, emp_types): (&[Tuple], &[DataType]),
    (dept_rows, dept_types): (&[Tuple], &[DataType]),
    repeats: usize,
) -> Result<KernelTiming> {
    let gov = ResourceGovernor::unlimited();
    let opts = ExecOptions::default();
    let shape = JoinShape {
        keys: vec![(dept::DNO, emp::DNO)],
        emit: payload.to_vec(),
        ..Default::default()
    };
    let batch = |rows, types: &[DataType]| {
        Batch::from_tuples(rows, &identity(types.len()), types).map(Held::batch)
    };
    let (build, probe) = (batch(dept_rows, dept_types)?, batch(emp_rows, emp_types)?);
    let (ms, _) = time_best(repeats, || {
        let index = Probe::new(&opts, &gov, &build, &probe.cols(), &shape)?;
        vector::collect(&opts, &gov, &probe, &[index])
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
    let opts = ExecOptions::default();
    let inputs: Vec<AggInput> = aggs
        .iter()
        .map(|(_, arg)| arg.map_or(AggInput::RawCountStar, |c| AggInput::Raw(BoundExpr::Col(c))))
        .collect();
    let funcs: Vec<AggFunc> = aggs.iter().map(|&(f, _)| f).collect();
    let batch = Held::batch(Batch::from_tuples(rows, &identity(types.len()), types)?);
    let (ms, _) = time_best(repeats, || {
        let (table, _) =
            vector::aggregate(&opts, &gov, &batch, &[], keys, lookup, &inputs, &funcs)?;
        table.into_columns(true)
    })?;
    Ok(timing(name, rows.len(), ms))
}

// ---------------------------------------------------------------------
// Workload queries.
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
        Plan::Scan { .. } | Plan::ExtentScan { .. } => false,
    }
}

// ---------------------------------------------------------------------
// Report rendering.
// ---------------------------------------------------------------------

impl ExecBenchReport {
    /// Serialize to JSON (handwritten — the workspace carries no JSON
    /// dependency). Each workload is one line carrying both `name` and
    /// `peak_intermediate_bytes`: the naive [`check_peak_regression`]
    /// baseline scanner relies on it.
    pub fn to_json(&self) -> String {
        let mut s = String::new();
        s.push_str("{\n");
        s.push_str("  \"bench\": \"exec\",\n");
        s.push_str(&format!("  \"host_cpus\": {},\n", self.host_cpus));
        s.push_str(&format!("  \"scale\": {},\n", self.scale));
        s.push_str(&format!("  \"repeats\": {},\n", self.repeats));
        s.push_str("  \"workloads\": [\n");
        for (i, w) in self.workloads.iter().enumerate() {
            s.push_str(&format!(
                "    {{\"name\": \"{}\", \"input_rows\": {}, \"output_rows\": {}, \
                 \"peak_intermediate_bytes\": {}}}{}\n",
                w.name,
                w.input_rows,
                w.output_rows,
                w.peak_intermediate_bytes,
                comma(i, self.workloads.len()),
            ));
        }
        s.push_str("  ],\n");
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
        s.push_str("    ]\n");
        s.push_str("  }\n");
        s.push_str("}\n");
        s
    }

    /// Human-readable summary for the bench binary's stdout.
    pub fn summary_table(&self) -> String {
        let mut s = format!(
            "exec bench — host_cpus {}, scale {}, one thread, kernels best of {}\n",
            self.host_cpus, self.scale, self.repeats
        );
        s.push_str(&format!(
            "{:<14} {:>10} {:>8} {:>12}\n",
            "workload", "rows", "out", "peak bytes"
        ));
        for w in &self.workloads {
            s.push_str(&format!(
                "{:<14} {:>10} {:>8} {:>12}\n",
                w.name, w.input_rows, w.output_rows, w.peak_intermediate_bytes
            ));
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
        s
    }
}

/// Check fresh workload peaks against a committed baseline report
/// (`BENCH_exec.json`). The scan is deliberately naive — one workload
/// object per line, extract `name` and `peak_intermediate_bytes` from
/// lines that carry both — so it needs no JSON dependency. A fresh peak
/// more than `tolerance` times its baseline is a regression, and so is
/// a baseline workload with no fresh counterpart (a renamed or dropped
/// workload would otherwise leave the gate silently). Workloads missing
/// from the baseline are allowed: that is how a new one gets in.
pub fn check_peak_regression(
    baseline_json: &str,
    workloads: &[WorkloadReport],
    tolerance: f64,
) -> std::result::Result<(), String> {
    let mut errs = Vec::new();
    for line in baseline_json.lines() {
        let Some(name) = extract_str(line, "\"name\": \"") else {
            continue;
        };
        let Some(base) = extract_u64(line, "\"peak_intermediate_bytes\": ") else {
            continue;
        };
        let Some(w) = workloads.iter().find(|w| w.name == name) else {
            errs.push(format!(
                "{name}: in the baseline (peak_intermediate_bytes {base}) but not measured"
            ));
            continue;
        };
        let limit = (base as f64 * tolerance).ceil() as u64;
        if w.peak_intermediate_bytes > limit {
            errs.push(format!(
                "{}: peak_intermediate_bytes {} exceeds {} ({} x baseline {})",
                w.name, w.peak_intermediate_bytes, limit, tolerance, base
            ));
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
            scale: 1,
            repeats: 1,
        })
        .unwrap();
        let workload_names: Vec<_> = report.workloads.iter().map(|w| w.name).collect();
        assert_eq!(
            workload_names,
            [
                "e1_example1",
                "e3_figure4",
                "e8_groupby",
                "scan_filter",
                "hash_join",
                "hash_agg",
                "eager_agg_on",
                "eager_agg_off"
            ]
        );
        for w in &report.workloads {
            assert!(w.input_rows > 0, "{} input", w.name);
            assert!(w.output_rows > 0, "{} output", w.name);
            assert!(w.peak_intermediate_bytes > 0, "{} peak", w.name);
        }
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

        let json = report.to_json();
        let top_level_keys: Vec<&str> = json
            .lines()
            .filter_map(|l| l.strip_prefix("  \""))
            .filter_map(|l| l.split('"').next())
            .collect();
        assert_eq!(
            top_level_keys,
            [
                "bench",
                "host_cpus",
                "scale",
                "repeats",
                "workloads",
                "serial_kernels"
            ]
        );
        assert!(json.ends_with("    ]\n  }\n}\n"));
        // Trailing-comma-free JSON: no ",\n<indent>]" or ",\n<indent>}".
        assert!(!json.contains(",\n  ]"));
        assert!(!json.contains(",\n    ]"));
        assert!(!json.contains(",\n  }"));
        assert!(!json.contains(",\n}"));
        // The report is its own baseline: every workload line is one the
        // gate's scanner reads back.
        assert_eq!(check_peak_regression(&json, &report.workloads, 1.0), Ok(()));
    }

    fn workload(name: &'static str, peak: u64) -> WorkloadReport {
        WorkloadReport {
            name,
            input_rows: 1,
            output_rows: 1,
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
        let new = [
            workload("scan_filter", 1000),
            workload("hash_join", 2000),
            workload("brand_new", u64::MAX),
        ];
        assert!(check_peak_regression(baseline, &new, 1.10).is_ok());

        // Past tolerance: named in the error.
        let bad = [workload("scan_filter", 1101), workload("hash_join", 1999)];
        let err = check_peak_regression(baseline, &bad, 1.10).unwrap_err();
        assert!(err.contains("scan_filter"), "{err}");
        assert!(!err.contains("hash_join"), "{err}");

        // A baseline workload that was not measured (renamed or dropped)
        // is an error naming it, not a silent pass.
        let renamed = [workload("scan_filter", 1000), workload("hash_join2", 2000)];
        let err = check_peak_regression(baseline, &renamed, 1.10).unwrap_err();
        assert!(err.contains("hash_join:"), "{err}");
        assert!(!err.contains("scan_filter"), "{err}");
        assert!(!err.contains("group_by"), "{err}");
    }
}
