//! A REPL-style session: parse → bind → optimize → execute.

use crate::ast::{AstExpr, AstPred, Stmt};
use crate::binder::{
    bind, bind_dml, bind_matview, bind_values, view_column_names, BoundQuery, ViewRegistry,
};
use crate::parser::parse_script;
use aggview_common::{AggViewError, Batch, ColumnVec, FaultInjector, Result, Tuple, Value};
use aggview_core::analyze::PlanAnalyzer;
use aggview_core::cost::{CardEstimator, CostModel};
use aggview_core::governor::{OptimizeOutcome, ResourceGovernor, ResourceLimits};
use aggview_core::optimizer::multi_view::{optimize_governed, Optimized};
use aggview_core::OptimizerConfig;
use aggview_executor::delta::{maintain_after_dml, RowDelta};
use aggview_executor::vector::matching_rows;
use aggview_executor::{Engine, ExecOptions};
use aggview_storage::Catalog;
use std::cmp::Ordering;
use std::path::Path;
use std::time::Duration;

/// Deterministic exponential backoff before retry `attempt` (1-based):
/// 1 ms, 2 ms, 4 ms, ... capped at [`RETRY_BACKOFF_CAP`]. A pure
/// function of the attempt number — no wall clock, no randomness — so a
/// statement's retry schedule is fully reproducible.
pub fn retry_backoff(attempt: u32) -> Duration {
    let exp = attempt.saturating_sub(1).min(6);
    RETRY_BACKOFF_BASE
        .saturating_mul(1 << exp)
        .min(RETRY_BACKOFF_CAP)
}

/// First retry waits this long; each further retry doubles it.
pub const RETRY_BACKOFF_BASE: Duration = Duration::from_millis(1);

/// Backoff ceiling: retries never wait longer than this.
pub const RETRY_BACKOFF_CAP: Duration = Duration::from_millis(64);

/// The result of running a SELECT through the session.
#[derive(Debug, Clone)]
pub struct SqlResult {
    /// Output column names.
    pub columns: Vec<String>,
    /// Result rows.
    pub rows: Vec<Tuple>,
    /// Measured IO of the executed plan, in pages.
    pub io_pages: f64,
    /// The optimizer's estimated cost of the chosen plan.
    pub estimated_cost: f64,
    /// EXPLAIN-style rendering of the executed plan.
    pub plan: String,
    /// Whether the optimizer completed its full search or degraded to
    /// the traditional two-phase plan (and why).
    pub outcome: OptimizeOutcome,
    /// Retries consumed recovering from transient failures.
    pub retries: u32,
}

impl SqlResult {
    /// Render rows as simple aligned text (for examples and the
    /// quickstart).
    pub fn to_table(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(String::len).collect();
        let cells: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|r| r.values().iter().map(ToString::to_string).collect())
            .collect();
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(c.len());
                }
            }
        }
        let mut out = String::new();
        for (i, c) in self.columns.iter().enumerate() {
            out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
        }
        out.push('\n');
        for (i, _) in self.columns.iter().enumerate() {
            out.push_str(&"-".repeat(widths[i]));
            out.push_str("  ");
        }
        out.push('\n');
        for row in &cells {
            for (i, c) in row.iter().enumerate() {
                out.push_str(&format!("{:<w$}  ", c, w = widths[i]));
            }
            out.push('\n');
        }
        out
    }
}

/// A session holding a catalog, registered views, and optimizer
/// configuration.
pub struct Session {
    catalog: Catalog,
    registry: ViewRegistry,
    /// Cost-model parameters (page size, memory budget).
    pub model: CostModel,
    /// Optimizer configuration (pull-up level, push-down, gating).
    pub config: OptimizerConfig,
    /// Resource limits applied to every statement. A fresh
    /// [`ResourceGovernor`] is created per attempt so budgets reset
    /// between statements and between retries.
    pub limits: ResourceLimits,
    /// Automatic retries of retryable (transient) failures per
    /// statement. Non-retryable errors — cancellation, budget
    /// exhaustion, plan/bind errors — never retry.
    pub max_retries: u32,
    /// Executor tile size (REPL `.set batch_rows N`). Execution is
    /// serial: `exec.threads` is accepted and ignored.
    pub exec: ExecOptions,
    faults: Option<Box<dyn FaultInjector>>,
}

impl Session {
    /// Create a session over a catalog with default model and config.
    pub fn new(catalog: Catalog) -> Session {
        Session {
            catalog,
            registry: ViewRegistry::new(),
            model: CostModel::default(),
            config: OptimizerConfig::default(),
            limits: ResourceLimits::unlimited(),
            max_retries: 2,
            exec: ExecOptions::default(),
            faults: None,
        }
    }

    /// Create a session over a **durable** catalog rooted at `dir`,
    /// recovering any previously committed state (see
    /// [`Catalog::open`]). Every statement the session executes that
    /// changes the catalog is then one WAL frame, durable before
    /// `execute` returns.
    pub fn open(dir: impl AsRef<Path>) -> Result<Session> {
        Ok(Session::new(Catalog::open(dir)?))
    }

    /// The underlying catalog.
    pub fn catalog(&self) -> &Catalog {
        &self.catalog
    }

    /// True when this session's catalog persists its mutations.
    pub fn is_durable(&self) -> bool {
        self.catalog.is_durable()
    }

    /// Fold the catalog's committed state into a snapshot and reset its
    /// WAL, which keeps the file's blocks for the next commits to
    /// overwrite. Errors on a non-durable session.
    pub fn checkpoint(&self) -> Result<()> {
        self.catalog.checkpoint()
    }

    /// Install (or clear) a fault injector consulted at storage scans
    /// and executor operator boundaries. Testing hook; off by default.
    pub fn set_fault_injector(&mut self, faults: Option<Box<dyn FaultInjector>>) {
        self.faults = faults;
    }

    /// Execute a script: `CREATE VIEW`s register views; `CREATE
    /// MATERIALIZED VIEW` additionally builds and stores the extent;
    /// `INSERT INTO ... VALUES` appends rows and incrementally
    /// maintains affected extents; `REFRESH MATERIALIZED VIEW` rebuilds
    /// one. The result of the **last SELECT** (or a status row for a
    /// trailing DML/materialization statement) is returned.
    ///
    /// Every statement that changes the catalog — DML with the view
    /// maintenance it causes, `CREATE MATERIALIZED VIEW`, `REFRESH` — is
    /// one [`Catalog::statement`]: it commits as a whole (one WAL frame,
    /// one fsync on a durable session) or returns `Err` having changed
    /// nothing.
    pub fn execute(&mut self, sql: &str) -> Result<SqlResult> {
        let stmts = parse_script(sql)?;
        let mut last = None;
        for stmt in stmts {
            match stmt {
                Stmt::CreateView {
                    name,
                    columns,
                    query,
                } => {
                    view_column_names(&name, columns.as_deref(), &query.items)?;
                    self.registry.register(&name, columns, query);
                }
                Stmt::CreateMaterializedView {
                    name,
                    columns,
                    query,
                } => {
                    last = Some(self.create_matview(&name, columns.as_deref(), &query)?);
                }
                Stmt::Insert { table, rows } => {
                    last = Some(self.insert_rows(&table, &rows)?);
                }
                Stmt::Update { table, sets, preds } => {
                    last = Some(self.update_stmt(&table, &sets, &preds)?);
                }
                Stmt::Delete { table, preds } => {
                    last = Some(self.delete_stmt(&table, &preds)?);
                }
                Stmt::RefreshMaterializedView { name } => {
                    last = Some(self.commit_statement(|| {
                        let gov = ResourceGovernor::new(self.limits);
                        let n = aggview_executor::matview::refresh(
                            &name,
                            &self.catalog,
                            self.model,
                            self.exec,
                            &gov,
                        )?;
                        Ok(format!(
                            "refreshed materialized view `{name}`: {n} extent row(s)"
                        ))
                    })?);
                }
                Stmt::Select(s) => {
                    let bound = bind(&s, &self.catalog, &self.registry)?;
                    last = Some(self.run_bound(&bound)?);
                }
                Stmt::ExplainVerify(s) => {
                    let bound = bind(&s, &self.catalog, &self.registry)?;
                    last = Some(self.verify_bound(&bound)?);
                }
            }
        }
        last.ok_or_else(|| AggViewError::Bind("script contains no SELECT".into()))
    }

    /// `CREATE MATERIALIZED VIEW`: bind the body to a self-contained
    /// definition and store it with its extent in the catalog, which is
    /// where a query naming the view finds it (the optimizer then picks
    /// the extent or the body purely by cost).
    fn create_matview(
        &mut self,
        name: &str,
        columns: Option<&[String]>,
        query: &crate::ast::SelectStmt,
    ) -> Result<SqlResult> {
        if self.catalog.matview(name).is_some() {
            return Err(AggViewError::Catalog(format!(
                "materialized view `{name}` already exists \
                 (use REFRESH MATERIALIZED VIEW to rebuild it)"
            )));
        }
        let def = bind_matview(name, columns, query, &self.catalog, &self.registry)?;
        self.commit_statement(|| {
            let gov = ResourceGovernor::new(self.limits);
            let n = aggview_executor::matview::build_extent(
                &def,
                &self.catalog,
                self.model,
                self.exec,
                &gov,
            )?;
            Ok(format!("materialized view `{name}`: {n} extent row(s)"))
        })
    }

    /// `INSERT INTO ... VALUES`: evaluate each bound value as a SELECT
    /// would (over no columns), append the rows to a base table, then
    /// maintain every materialized view that references it
    /// (incremental partial-state merge where possible, full rebuild
    /// otherwise) from the rows as the table stored them.
    fn insert_rows(&mut self, table: &str, rows: &[Vec<AstExpr>]) -> Result<SqlResult> {
        let empty = Tuple::new(Vec::new());
        let tuples: Vec<Tuple> = bind_values(rows)?
            .iter()
            .map(|r| r.iter().map(|e| e.eval(&empty)).collect::<Result<_>>())
            .map(|r| r.map(Tuple::new))
            .collect::<Result<_>>()?;
        let n = tuples.len();
        self.commit_statement(|| {
            let prev = self.catalog.append_rows(table, tuples.clone())?;
            let total = prev + n;
            let stored = self.catalog.get(table)?;
            let delta = RowDelta {
                plus: (prev..total).map(|i| stored.row(i)).collect(),
                minus: Vec::new(),
            };
            let gov = ResourceGovernor::new(self.limits);
            let maintained = self.maintain(table, delta, &gov)?;
            Ok(format!(
                "inserted {n} row(s) into `{table}` ({total} total){maintained}"
            ))
        })
    }

    /// `UPDATE table SET col = expr, ... [WHERE ...]`: evaluate each SET
    /// expression against the *old* row for every matching row, replace
    /// the rows in place, and maintain dependent materialized views from
    /// the old rows removed and the new rows added.
    fn update_stmt(
        &mut self,
        table: &str,
        sets: &[(String, AstExpr)],
        preds: &[AstPred],
    ) -> Result<SqlResult> {
        self.commit_statement(|| {
            let dml = bind_dml(&self.catalog, table, sets, preds)?;
            let t = self.catalog.get(table)?;
            let gov = ResourceGovernor::new(self.limits);
            let indices = matching_rows(&self.exec, &gov, &t, &dml.preds)?;
            let mut replacements = Vec::with_capacity(indices.len());
            for &i in &indices {
                let old = t.row(i);
                let mut vals = old.values().to_vec();
                for (pos, expr) in &dml.sets {
                    vals[*pos] = expr.eval(&old)?;
                }
                replacements.push(Tuple::new(vals));
            }
            // A table still referenced here would be copied, not edited.
            drop(t);
            let pairs = self.catalog.update_rows(table, &indices, replacements)?;
            let n = pairs.len();
            let maintained = self.maintain(table, RowDelta::of_updates(pairs), &gov)?;
            Ok(format!("updated {n} row(s) in `{table}`{maintained}"))
        })
    }

    /// `DELETE FROM table [WHERE ...]`: remove matching rows and
    /// maintain dependent materialized views from the rows removed.
    fn delete_stmt(&mut self, table: &str, preds: &[AstPred]) -> Result<SqlResult> {
        self.commit_statement(|| {
            let dml = bind_dml(&self.catalog, table, &[], preds)?;
            let t = self.catalog.get(table)?;
            let gov = ResourceGovernor::new(self.limits);
            let indices = matching_rows(&self.exec, &gov, &t, &dml.preds)?;
            let remaining = t.len() - indices.len();
            // A table still referenced here would be copied, not edited.
            drop(t);
            let removed = self.catalog.delete_rows(table, &indices)?;
            let n = removed.len();
            let delta = RowDelta {
                minus: removed,
                plus: Vec::new(),
            };
            let maintained = self.maintain(table, delta, &gov)?;
            Ok(format!(
                "deleted {n} row(s) from `{table}` ({remaining} remaining){maintained}"
            ))
        })
    }

    /// Maintain every materialized view over `table` after a DML
    /// statement changed it by `delta`. Returns the status row's suffix
    /// naming the views maintained (empty when there are none).
    fn maintain(&self, table: &str, delta: RowDelta, gov: &ResourceGovernor) -> Result<String> {
        let views = maintain_after_dml(table, delta, &self.catalog, self.model, self.exec, gov)?;
        if views.is_empty() {
            return Ok(String::new());
        }
        Ok(format!("; maintained views: {}", views.join(", ")))
    }

    /// Walk a script without executing it — view definitions are
    /// registered, statements with side effects skipped — and bind its
    /// last SELECT: what the planning-only surfaces start from.
    fn bind_last_select(&mut self, sql: &str) -> Result<BoundQuery> {
        let stmts = parse_script(sql)?;
        let mut select = None;
        for stmt in stmts {
            match stmt {
                Stmt::CreateView {
                    name,
                    columns,
                    query,
                }
                | Stmt::CreateMaterializedView {
                    name,
                    columns,
                    query,
                } => self.registry.register(&name, columns, query),
                // Planning-only surfaces never execute side effects.
                Stmt::Insert { .. }
                | Stmt::Update { .. }
                | Stmt::Delete { .. }
                | Stmt::RefreshMaterializedView { .. } => {}
                Stmt::Select(s) | Stmt::ExplainVerify(s) => select = Some(s),
            }
        }
        let s = select.ok_or_else(|| AggViewError::Bind("script contains no SELECT".into()))?;
        bind(&s, &self.catalog, &self.registry)
    }

    /// Bind and optimize without executing; returns the bound query and
    /// the optimizer result (for EXPLAIN-style inspection).
    pub fn plan(&mut self, sql: &str) -> Result<(BoundQuery, Optimized)> {
        let bound = self.bind_last_select(sql)?;
        let gov = ResourceGovernor::new(self.limits);
        let opt = optimize_governed(&bound.query, &self.catalog, self.model, &self.config, &gov)?;
        Ok((bound, opt))
    }

    /// EXPLAIN rendering of the chosen plan with per-operator estimated
    /// peak intermediate bytes (backs the REPL's `.explain`).
    pub fn explain(&mut self, sql: &str) -> Result<(String, Optimized)> {
        let (bound, opt) = self.plan(sql)?;
        let est = CardEstimator::new(self.model, &self.catalog, &bound.query.env);
        Ok((est.explain_with_peaks(&opt.plan), opt))
    }

    /// Optimize the script's last SELECT and run the static
    /// plan-integrity analyzer over the chosen plan, without executing
    /// it. Backs the REPL's `.lint` command and `EXPLAIN VERIFY`.
    ///
    /// The result has one `(code, severity, rule, finding)` row per
    /// finding — errors first, then warnings, each ordered by code — or
    /// a single `ok` row when the plan is clean; the `plan` and
    /// `estimated_cost` fields describe the analyzed plan.
    pub fn verify(&mut self, sql: &str) -> Result<SqlResult> {
        let bound = self.bind_last_select(sql)?;
        self.verify_bound(&bound)
    }

    fn verify_bound(&self, bound: &BoundQuery) -> Result<SqlResult> {
        let gov = ResourceGovernor::new(self.limits);
        let opt = optimize_governed(&bound.query, &self.catalog, self.model, &self.config, &gov)?;
        let analyzer = PlanAnalyzer::new(&self.catalog)
            .with_query(&bound.query)
            .with_model(self.model);
        let report = if opt.outcome.is_degraded() {
            analyzer.analyze_degraded(&opt.plan)
        } else {
            analyzer.analyze(&opt.plan)
        };
        let rows = if report.is_clean() {
            vec![Tuple::new(vec![
                Value::str("ok"),
                Value::str("info"),
                Value::str("ok"),
                Value::str("plan passes all integrity checks"),
            ])]
        } else {
            report
                .sorted()
                .iter()
                .map(|v| {
                    let finding = if v.path.is_empty() {
                        v.message.clone()
                    } else {
                        format!("at {}: {}", v.path, v.message)
                    };
                    Tuple::new(vec![
                        Value::str(v.code),
                        Value::str(v.severity.to_string()),
                        Value::str(v.rule),
                        Value::str(finding),
                    ])
                })
                .collect()
        };
        Ok(SqlResult {
            columns: vec![
                "code".into(),
                "severity".into(),
                "rule".into(),
                "finding".into(),
            ],
            rows,
            io_pages: 0.0,
            estimated_cost: opt.props.cost,
            plan: CardEstimator::new(self.model, &self.catalog, &bound.query.env)
                .explain_with_peaks(&opt.plan),
            outcome: opt.outcome,
            retries: 0,
        })
    }

    fn run_bound(&self, bound: &BoundQuery) -> Result<SqlResult> {
        let (mut result, retries) = self.with_retries(|| self.run_bound_once(bound))?;
        result.retries = retries;
        Ok(result)
    }

    /// Run `attempt` until it succeeds, fails for good, or has used up
    /// the session's retries on retryable failures (backing off between
    /// attempts, see [`retry_backoff`]). Returns the retries consumed.
    fn with_retries<T>(&self, mut attempt: impl FnMut() -> Result<T>) -> Result<(T, u32)> {
        let mut retries: u32 = 0;
        loop {
            match attempt() {
                Ok(out) => return Ok((out, retries)),
                Err(e) if e.is_retryable() && retries < self.max_retries => {
                    retries += 1;
                    std::thread::sleep(retry_backoff(retries));
                }
                Err(e) if e.is_retryable() => {
                    // Retries exhausted: surface the attempt count in
                    // the error without laundering its variant (the
                    // caller can still see it was retryable).
                    let attempts = retries + 1;
                    return Err(
                        e.map_message(|m| format!("{m} (gave up after {attempts} attempt(s))"))
                    );
                }
                Err(e) => return Err(e),
            }
        }
    }

    /// Run a statement that changes the catalog: `body` — the change
    /// and whatever maintenance it causes — is one [`Catalog::statement`],
    /// committed whole or not at all. A failed attempt has changed
    /// nothing, so a retryable failure (a failed fsync) is retried like
    /// a query's. Returns `body`'s message as a status row.
    fn commit_statement(&self, body: impl Fn() -> Result<String>) -> Result<SqlResult> {
        let (status, retries) = self.with_retries(|| self.catalog.statement(&body))?;
        let mut result = status_result(status);
        result.retries = retries;
        Ok(result)
    }

    fn run_bound_once(&self, bound: &BoundQuery) -> Result<SqlResult> {
        let gov = ResourceGovernor::new(self.limits);
        let opt = optimize_governed(&bound.query, &self.catalog, self.model, &self.config, &gov)?;
        let engine =
            Engine::new(&self.catalog, &bound.query.env, self.model).with_options(self.exec);
        let rs = engine.execute_columns(&opt.plan, &gov, self.faults.as_deref())?;
        // The query's declared projection, over the result's columns.
        let positions: Vec<usize> = bound
            .query
            .projection
            .iter()
            .map(|c| {
                rs.col_index(*c)
                    .ok_or_else(|| AggViewError::Exec(format!("plan lost projected column {c}")))
            })
            .collect::<Result<_>>()?;
        let batch = rs.batch.project(&positions);
        let batch = order_and_limit(batch, &bound.order_by, bound.limit)?;
        Ok(SqlResult {
            columns: bound.column_names.clone(),
            rows: batch.to_tuples(),
            io_pages: rs.io_pages,
            estimated_cost: opt.props.cost,
            plan: opt.plan.explain(),
            outcome: opt.outcome,
            retries: 0,
        })
    }
}

/// A single status row describing a DDL/DML statement's effect.
fn status_result(msg: String) -> SqlResult {
    SqlResult {
        columns: vec!["status".into()],
        rows: vec![Tuple::new(vec![Value::str(msg)])],
        io_pages: 0.0,
        estimated_cost: 0.0,
        plan: String::new(),
        outcome: OptimizeOutcome::Full,
        retries: 0,
    }
}

/// `batch`, a projected result, in `order_by` order and cut at
/// `limit`: a stable sort of its row numbers by each key column's
/// [`Value`] order (`true` reverses a key), then one gather of the rows
/// kept. With neither clause the batch comes back as it is.
fn order_and_limit(
    batch: Batch,
    order_by: &[(usize, bool)],
    limit: Option<usize>,
) -> Result<Batch> {
    let n = batch.len();
    let keep = limit.map_or(n, |l| l.min(n));
    if order_by.is_empty() && keep == n {
        return Ok(batch);
    }
    let rows = u32::try_from(n)
        .map_err(|_| AggViewError::Exec(format!("{n} result rows are too many to order")))?;
    let mut perm: Vec<u32> = (0..rows).collect();
    if !order_by.is_empty() {
        let keys: Vec<(Vec<Value>, bool)> = order_by
            .iter()
            .map(|&(p, desc)| ((0..n).map(|r| batch.value_at(p, r)).collect(), desc))
            .collect();
        perm.sort_by(|&a, &b| {
            for (vals, desc) in &keys {
                let ord = vals[a as usize].cmp(&vals[b as usize]);
                let ord = if *desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
    }
    let all: Vec<usize> = (0..batch.n_cols()).collect();
    let empty = batch.cols().iter().map(ColumnVec::empty_like).collect();
    let mut out = Batch::from_parts(empty, 0);
    out.gather_from(&batch, &all, Some(&perm[..keep]), 0..0)?;
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn session() -> Session {
        Session::new(
            gen_empdept(&EmpDeptConfig {
                n_depts: 6,
                emps_per_dept: 10,
                young_fraction: 0.3,
                seed: 21,
                ..Default::default()
            })
            .unwrap(),
        )
    }

    #[test]
    fn end_to_end_example1_view_vs_single_block() {
        let mut s = session();
        let via_view = s
            .execute(
                "create view A1(dno, Asal) as \
                   select e2.dno, avg(e2.sal) from emp e2 group by e2.dno; \
                 select e1.sal from emp e1, A1 b \
                  where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal;",
            )
            .unwrap();
        let via_having = s
            .execute(
                "select e1.sal from emp e1, emp e2 \
                  where e1.dno = e2.dno and e1.age < 22 \
                  group by e2.dno, e1.eno, e1.sal having e1.sal > avg(e2.sal)",
            )
            .unwrap();
        let mut a: Vec<String> = via_view.rows.iter().map(|r| r.to_string()).collect();
        let mut b: Vec<String> = via_having.rows.iter().map(|r| r.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b, "paper's A1/A2 vs B must agree");
        assert!(!a.is_empty());
    }

    #[test]
    fn correlated_subquery_matches_view_form() {
        let mut s = session();
        let via_view = s
            .execute(
                "create view A1(dno, Asal) as \
                   select e2.dno, avg(e2.sal) from emp e2 group by e2.dno; \
                 select e1.sal from emp e1, A1 b \
                  where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal;",
            )
            .unwrap();
        let via_subquery = s
            .execute(
                "select e1.sal from emp e1 where e1.age < 22 and \
                 e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
            )
            .unwrap();
        let mut a: Vec<String> = via_view.rows.iter().map(|r| r.to_string()).collect();
        let mut b: Vec<String> = via_subquery.rows.iter().map(|r| r.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn example2_results() {
        let mut s = session();
        let r = s
            .execute(
                "select e.dno, avg(e.sal) from emp e, dept d \
                  where e.dno = d.dno and d.budget < 1000000 group by e.dno",
            )
            .unwrap();
        assert_eq!(r.columns, vec!["dno", "AVG(e.sal)"]);
        assert!(r.io_pages > 0.0);
        assert!(r.plan.contains("GroupBy"));
    }

    #[test]
    fn plan_without_execution() {
        let mut s = session();
        let (bound, opt) = s
            .plan("select dno, count(*) from emp group by dno having count(*) > 2")
            .unwrap();
        assert!(bound.query.group.is_some());
        assert!(opt.props.cost > 0.0);
    }

    #[test]
    fn to_table_renders() {
        let mut s = session();
        let r = s
            .execute("select dno, dname from dept where dno < 2")
            .unwrap();
        let t = r.to_table();
        assert!(t.contains("dno"));
        assert!(t.contains("dept0"));
    }

    #[test]
    fn script_without_select_errors() {
        let mut s = session();
        let err = s
            .execute("create view v as select dno, avg(sal) from emp group by dno")
            .unwrap_err();
        assert!(err.message().contains("no SELECT"));
        // The view was registered all the same.
        assert!(s.execute("select dno from v").is_ok());
    }

    #[test]
    fn transient_faults_are_retried_bounded_times() {
        use aggview_common::ScheduledFaults;
        let mut s = session();
        // First attempt fails at its first consulted site; the retry
        // (fresh governor, same injector call counter) succeeds.
        s.set_fault_injector(Some(Box::new(ScheduledFaults::failing_calls([0]))));
        let r = s.execute("select eno from emp").unwrap();
        assert_eq!(r.retries, 1);
        assert!(!r.rows.is_empty());

        // More consecutive failures than max_retries allows: the error
        // surfaces, structured and retryable, with no panic, carrying
        // the attempt count.
        s.max_retries = 1;
        s.set_fault_injector(Some(Box::new(ScheduledFaults::failing_calls(0..100))));
        let err = s.execute("select eno from emp").unwrap_err();
        assert_eq!(err.kind(), "transient");
        assert!(err.is_retryable());
        assert!(
            err.message().contains("gave up after 2 attempt(s)"),
            "exhaustion must surface the attempt count: {err}"
        );
    }

    #[test]
    fn retry_backoff_is_pure_doubling_and_capped() {
        assert_eq!(retry_backoff(1), Duration::from_millis(1));
        assert_eq!(retry_backoff(2), Duration::from_millis(2));
        assert_eq!(retry_backoff(3), Duration::from_millis(4));
        assert_eq!(retry_backoff(7), Duration::from_millis(64));
        assert_eq!(retry_backoff(8), RETRY_BACKOFF_CAP);
        assert_eq!(retry_backoff(u32::MAX), RETRY_BACKOFF_CAP);
        // Pure: same input, same output — no hidden clock or RNG.
        for a in 0..10 {
            assert_eq!(retry_backoff(a), retry_backoff(a));
        }
    }

    #[test]
    fn tiny_search_budget_degrades_to_traditional_plan() {
        let mut s = session();
        let full = s
            .execute(
                "create view A1(dno, Asal) as \
                   select e2.dno, avg(e2.sal) from emp e2 group by e2.dno; \
                 select e1.sal from emp e1, A1 b \
                  where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal;",
            )
            .unwrap();
        assert!(!full.outcome.is_degraded());

        s.limits = ResourceLimits::unlimited().with_max_plans(1);
        let degraded = s
            .execute(
                "select e1.sal from emp e1, A1 b \
                  where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal;",
            )
            .unwrap();
        assert!(degraded.outcome.is_degraded());
        // Graceful degradation is not wrong results: same rows.
        let mut a: Vec<String> = full.rows.iter().map(|r| r.to_string()).collect();
        let mut b: Vec<String> = degraded.rows.iter().map(|r| r.to_string()).collect();
        a.sort();
        b.sort();
        assert_eq!(a, b);
    }

    #[test]
    fn row_budget_aborts_execution_with_structured_error() {
        let mut s = session();
        s.limits = ResourceLimits::unlimited().with_max_rows(3);
        // An unfiltered scan's static row floor is the whole table, so
        // admission control rejects the query before any operator runs…
        let err = s.execute("select eno from emp").unwrap_err();
        assert_eq!(err.kind(), "plan-inadmissible");
        assert!(!err.is_retryable(), "admission rejections must not retry");
        // …while a filtered scan (floor 0) is admitted and aborts
        // mid-run once the budget is actually exceeded.
        let err = s.execute("select eno from emp where age < 22").unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted");
        assert!(!err.is_retryable(), "budget errors must not retry");
    }
}

#[cfg(test)]
mod matview_tests {
    use super::*;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    // Large enough that the extent (one row per department) is strictly
    // cheaper than rescanning emp: the matcher only wins on cost.
    fn session() -> Session {
        Session::new(
            gen_empdept(&EmpDeptConfig {
                n_depts: 30,
                emps_per_dept: 40,
                young_fraction: 0.3,
                seed: 33,
                ..Default::default()
            })
            .unwrap(),
        )
    }

    fn sorted_rows(r: &SqlResult) -> Vec<String> {
        let mut v: Vec<String> = r.rows.iter().map(|t| t.to_string()).collect();
        v.sort();
        v
    }

    #[test]
    fn create_matview_builds_extent_and_answers_queries() {
        let mut s = session();
        let st = s
            .execute(
                "create materialized view dsal(dno, total, n) as \
                 select dno, sum(sal), count(*) from emp group by dno",
            )
            .unwrap();
        assert!(st.rows[0].get(0).to_string().contains("30 extent row"));
        assert!(s.catalog().matview("dsal").is_some());

        let with_mv = s
            .execute("select dno, sum(sal) from emp group by dno")
            .unwrap();
        assert!(
            with_mv.plan.contains("ExtentScan"),
            "expected extent access path, got:\n{}",
            with_mv.plan
        );
        s.config.use_matviews = false;
        let inlined = s
            .execute("select dno, sum(sal) from emp group by dno")
            .unwrap();
        assert_eq!(sorted_rows(&with_mv), sorted_rows(&inlined));
        assert!(with_mv.estimated_cost <= inlined.estimated_cost);
    }

    #[test]
    fn insert_maintains_extent_incrementally() {
        let mut s = session();
        s.execute(
            "create materialized view dsal(dno, total, n) as \
             select dno, sum(sal), count(*) from emp group by dno",
        )
        .unwrap();
        let st = s
            .execute("insert into emp values (9001, 'pat', 0, 1234.5, 25)")
            .unwrap();
        let msg = st.rows[0].get(0).to_string();
        assert!(msg.contains("maintained views: dsal"), "{msg}");
        let meta = s.catalog().matview("dsal").unwrap();
        assert!(
            !meta.is_stale(s.catalog()),
            "maintenance must refresh versions"
        );

        // The maintained extent agrees with recomputing from base data.
        let via_mv = s
            .execute("select dno, sum(sal) from emp group by dno")
            .unwrap();
        s.config.use_matviews = false;
        let inlined = s
            .execute("select dno, sum(sal) from emp group by dno")
            .unwrap();
        assert_eq!(sorted_rows(&via_mv), sorted_rows(&inlined));
    }

    #[test]
    fn stale_extent_is_bypassed_until_refresh() {
        let mut s = session();
        s.execute(
            "create materialized view dsal(dno, total, n) as \
             select dno, sum(sal), count(*) from emp group by dno",
        )
        .unwrap();
        // Programmatic append without maintenance: the extent goes
        // stale and the matcher must fall back to inlining.
        s.catalog()
            .append_rows(
                "emp",
                vec![Tuple::new(vec![
                    Value::Int(9002),
                    Value::str("sam"),
                    Value::Int(1),
                    Value::Float(700.0),
                    Value::Int(41),
                ])],
            )
            .unwrap();
        assert!(s.catalog().matview("dsal").unwrap().is_stale(s.catalog()));
        let stale = s
            .execute("select dno, sum(sal) from emp group by dno")
            .unwrap();
        assert!(
            !stale.plan.contains("ExtentScan"),
            "stale extents must not be scanned:\n{}",
            stale.plan
        );

        let st = s.execute("refresh materialized view dsal").unwrap();
        assert!(st.rows[0].get(0).to_string().contains("refreshed"));
        assert!(!s.catalog().matview("dsal").unwrap().is_stale(s.catalog()));
        let fresh = s
            .execute("select dno, sum(sal) from emp group by dno")
            .unwrap();
        assert!(fresh.plan.contains("ExtentScan"));
        assert_eq!(sorted_rows(&stale), sorted_rows(&fresh));
    }

    #[test]
    fn duplicate_matview_create_is_rejected() {
        let mut s = session();
        let ddl = "create materialized view dsal(dno, total, n) as \
                   select dno, sum(sal), count(*) from emp group by dno";
        s.execute(ddl).unwrap();
        let err = s.execute(ddl).unwrap_err();
        assert!(err.message().contains("already exists"), "{err}");
        // The original view survives the rejected re-create.
        assert!(s.catalog().matview("dsal").is_some());
    }

    #[test]
    fn insert_literal_overflow_is_an_error_not_a_panic() {
        let mut s = session();
        for sql in [
            "insert into emp values (9223372036854775807 + 1, 'x', 0, 1.0, 20)",
            "insert into emp values (9223372036854775807 * 2, 'x', 0, 1.0, 20)",
            "insert into emp values (-9223372036854775807 - 2, 'x', 0, 1.0, 20)",
        ] {
            let err = s.execute(sql).unwrap_err();
            assert!(err.message().contains("overflow"), "{sql}: got {err}");
        }
    }

    #[test]
    fn matview_body_errors_are_clear() {
        let mut s = session();
        for (sql, needle) in [
            (
                "create materialized view x as select dno from emp group by dno",
                "no aggregates",
            ),
            (
                "create materialized view x(a) as select sum(sal) from emp group by dno",
                "must appear in the select list",
            ),
            (
                "create materialized view x(d, t) as select dno, sum(sal) from emp \
                 group by dno having sum(sal) > 1",
                "HAVING",
            ),
        ] {
            let err = s.execute(sql).unwrap_err();
            assert!(err.message().contains(needle), "{sql}: got {err}");
        }
        let err = s
            .execute("insert into emp values (1, bogus, 2, 3.0, 4)")
            .unwrap_err();
        assert!(err.message().contains("bogus"), "{err}");
        let err = s.execute("refresh materialized view ghost").unwrap_err();
        assert!(err.message().contains("unknown materialized view"));
    }

    #[test]
    fn a_matview_body_may_select_each_value_once() {
        let mut s = session();
        for body in [
            "select dno, sum(sal), sum(sal) from emp group by dno",
            "select dno, dno, sum(sal) from emp group by dno",
            "select e.dno, sum(e.sal), dno from emp e group by dno",
        ] {
            let err = s
                .execute(&format!("create materialized view x as {body}"))
                .unwrap_err();
            assert!(matches!(err, AggViewError::Bind(_)), "{body}: {err}");
            assert!(err.message().contains("twice"), "{body}: {err}");
        }
        assert!(s.catalog().matview("x").is_none());
    }

    #[test]
    fn a_matview_column_list_longer_than_its_select_list_is_rejected() {
        let mut s = session();
        let err = s
            .execute(
                "create materialized view mv(a, b, c) as \
                 select dno, sum(sal) from emp group by dno",
            )
            .unwrap_err();
        assert!(matches!(err, AggViewError::Bind(_)), "{err}");
        assert!(
            err.message()
                .contains("`mv` names 3 columns but its select list has 2"),
            "{err}"
        );
        assert!(s.catalog().matview("mv").is_none());
        // A shorter list names the leading columns only.
        s.execute(
            "create materialized view mv(d) as \
             select dno, sum(sal) as total from emp group by dno",
        )
        .unwrap();
        let r = s.execute("select d, total from mv").unwrap();
        assert_eq!(r.rows.len(), 30);
    }

    #[test]
    fn a_view_column_list_longer_than_its_select_list_is_rejected() {
        let mut s = session();
        for body in [
            "select dno, avg(sal) from emp group by dno",
            "select eno, dno from emp",
        ] {
            let err = s
                .execute(&format!("create view v(a, b, c) as {body}"))
                .unwrap_err();
            assert!(matches!(err, AggViewError::Bind(_)), "{body}: {err}");
            assert!(
                err.message()
                    .contains("`v` names 3 columns but its select list has 2"),
                "{body}: {err}"
            );
        }
        assert!(s.execute("select a from v").is_err(), "nothing registered");
        let r = s
            .execute(
                "create view v(d) as select dno, avg(sal) as a from emp group by dno; \
                 select d, a from v",
            )
            .unwrap();
        assert_eq!(r.rows.len(), 30);
    }
}

#[cfg(test)]
mod dml_tests {
    use super::*;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn session() -> Session {
        Session::new(
            gen_empdept(&EmpDeptConfig {
                n_depts: 4,
                emps_per_dept: 6,
                young_fraction: 0.5,
                seed: 7,
                ..Default::default()
            })
            .unwrap(),
        )
    }

    /// Rows as text, sorted, floats to 12 significant digits: an extent
    /// and the inlined plan sum the same values in different orders.
    /// Callers assert the extent side reads the extent, so the two sides
    /// do run different plans.
    fn sorted_rows(r: &SqlResult) -> Vec<String> {
        let cell = |v: &aggview_common::Value| match v {
            aggview_common::Value::Float(f) => format!("{f:.11e}"),
            v => v.to_string(),
        };
        let row = |t: &Tuple| t.values().iter().map(cell).collect::<Vec<_>>().join(", ");
        let mut v: Vec<String> = r.rows.iter().map(row).collect();
        v.sort();
        v
    }

    #[test]
    fn delete_removes_rows_and_maintains_views() {
        let mut s = session();
        s.execute(
            "create materialized view dsal(dno, total, n) as \
             select dno, sum(sal), count(*) from emp group by dno",
        )
        .unwrap();
        let st = s.execute("delete from emp where dno = 2").unwrap();
        let msg = st.rows[0].get(0).to_string();
        assert!(msg.contains("deleted 6 row(s)"), "{msg}");
        assert!(msg.contains("18 remaining"), "{msg}");
        assert!(msg.contains("maintained views: dsal"), "{msg}");
        let meta = s.catalog().matview("dsal").unwrap();
        assert!(!meta.is_stale(s.catalog()));

        // Extent answers agree with recomputing from base data, and the
        // emptied group's extent row is gone.
        let via_mv = s
            .execute("select dno, count(*) from emp group by dno")
            .unwrap();
        s.config.use_matviews = false;
        let inlined = s
            .execute("select dno, count(*) from emp group by dno")
            .unwrap();
        assert!(via_mv.plan.contains("ExtentScan"), "{}", via_mv.plan);
        assert_eq!(sorted_rows(&via_mv), sorted_rows(&inlined));
        assert_eq!(via_mv.rows.len(), 3);
    }

    #[test]
    fn update_rewrites_rows_and_maintains_views() {
        let mut s = session();
        s.execute(
            "create materialized view dsal(dno, total, n) as \
             select dno, sum(sal), count(*) from emp group by dno",
        )
        .unwrap();
        // Move every young employee of dept 1 into dept 3 with a raise
        // computed from the OLD row.
        let st = s
            .execute("update emp set dno = 3, sal = sal + 100.0 where dno = 1 and age < 30")
            .unwrap();
        let msg = st.rows[0].get(0).to_string();
        assert!(msg.contains("updated"), "{msg}");
        assert!(msg.contains("maintained views: dsal"), "{msg}");
        let via_mv = s
            .execute("select dno, sum(sal), count(*) from emp group by dno")
            .unwrap();
        s.config.use_matviews = false;
        let inlined = s
            .execute("select dno, sum(sal), count(*) from emp group by dno")
            .unwrap();
        assert!(via_mv.plan.contains("ExtentScan"), "{}", via_mv.plan);
        assert_eq!(sorted_rows(&via_mv), sorted_rows(&inlined));
    }

    #[test]
    fn update_without_where_touches_every_row() {
        let mut s = session();
        let st = s.execute("update emp set age = age + 1").unwrap();
        let msg = st.rows[0].get(0).to_string();
        assert!(msg.contains("updated 24 row(s)"), "{msg}");
    }

    #[test]
    fn dml_binding_errors_are_clear() {
        let mut s = session();
        for (sql, needle) in [
            ("delete from ghost where eno = 1", "unknown table"),
            ("delete from emp where bogus = 1", "bogus"),
            ("update emp set bogus = 1", "bogus"),
            ("update emp set sal = 1.0, sal = 2.0", "SET more than once"),
            ("update emp set sal = sum(sal)", "aggregate"),
            ("update emp set sal = 1.0 where dept.dno = 1", "dept"),
        ] {
            let err = s.execute(sql).unwrap_err();
            assert!(err.message().contains(needle), "{sql}: got {err}");
        }
    }

    #[test]
    fn dml_scans_are_charged_against_the_row_budget() {
        let mut s = session();
        s.limits = ResourceLimits::unlimited().with_max_rows(3);
        let err = s.execute("delete from emp where age < 30").unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted");
        let err = s
            .execute("update emp set sal = 0.0 where age < 30")
            .unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted");
        // The budget abort left the table untouched.
        assert_eq!(s.catalog().get("emp").unwrap().rows().len(), 24);
    }
}

#[cfg(test)]
mod durable_tests {
    use super::*;
    use aggview_common::{DataType, Schema};
    use aggview_storage::Table;

    fn tmpdir(tag: &str) -> std::path::PathBuf {
        let dir =
            std::env::temp_dir().join(format!("aggview-session-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn emp_table() -> std::sync::Arc<Table> {
        Table::builder(
            "emp",
            Schema::of(&[
                ("eno", DataType::Int),
                ("dno", DataType::Int),
                ("sal", DataType::Float),
            ]),
        )
        .primary_key(&["eno"])
        .unwrap()
        .build()
        .unwrap()
    }

    #[test]
    fn durable_session_survives_reopen_and_checkpoint() {
        let dir = tmpdir("roundtrip");
        {
            let mut s = Session::open(&dir).unwrap();
            assert!(s.is_durable());
            s.catalog().add(emp_table()).unwrap();
            s.execute("insert into emp values (1, 0, 10.0)").unwrap();
            s.execute(
                "create materialized view dsal(dno, total) as \
                 select dno, sum(sal) from emp group by dno",
            )
            .unwrap();
            s.execute("insert into emp values (2, 0, 5.0)").unwrap();
        } // session dropped without any shutdown ceremony — the WAL has it all
        let mut s2 = Session::open(&dir).unwrap();
        let r = s2.execute("select eno from emp order by eno").unwrap();
        assert_eq!(r.rows.len(), 2);
        let meta = s2.catalog().matview("dsal").unwrap();
        assert!(
            !meta.is_stale(s2.catalog()),
            "maintained view must recover fresh: versions restored exactly"
        );
        s2.checkpoint().unwrap();
        drop(s2);
        let mut s3 = Session::open(&dir).unwrap();
        assert_eq!(s3.catalog().get("emp").unwrap().len(), 2);
        let r = s3.execute("select eno from emp order by eno").unwrap();
        assert_eq!(r.rows.len(), 2);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn in_memory_session_rejects_checkpoint() {
        let s = Session::new(Catalog::new());
        assert!(!s.is_durable());
        assert_eq!(s.checkpoint().unwrap_err().kind(), "catalog");
    }
}

#[cfg(test)]
mod order_limit_tests {
    use super::*;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn session() -> Session {
        Session::new(
            gen_empdept(&EmpDeptConfig {
                n_depts: 5,
                emps_per_dept: 6,
                young_fraction: 0.2,
                low_budget_fraction: 0.3,
                seed: 51,
            })
            .unwrap(),
        )
    }

    #[test]
    fn order_by_ascending_and_descending() {
        let mut s = session();
        let asc = s.execute("select eno, sal from emp order by sal").unwrap();
        let desc = s
            .execute("select eno, sal from emp order by sal desc")
            .unwrap();
        let sals = |r: &SqlResult| -> Vec<f64> {
            r.rows.iter().map(|t| t.get(1).as_f64().unwrap()).collect()
        };
        let a = sals(&asc);
        let d = sals(&desc);
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(d.windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(a.len(), d.len());
    }

    #[test]
    fn order_by_alias_and_multi_key() {
        let mut s = session();
        let r = s
            .execute("select dno, count(*) as n from emp group by dno order by n desc, dno")
            .unwrap();
        assert_eq!(r.rows.len(), 5);
        // All counts equal → tie-broken by dno ascending.
        let dnos: Vec<i64> = r.rows.iter().map(|t| t.get(0).as_i64().unwrap()).collect();
        assert!(dnos.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn limit_truncates() {
        let mut s = session();
        let r = s
            .execute("select eno from emp order by eno limit 3")
            .unwrap();
        assert_eq!(r.rows.len(), 3);
        let unlimited = s.execute("select eno from emp limit 1000").unwrap();
        assert_eq!(unlimited.rows.len(), 30);
    }

    #[test]
    fn order_by_unknown_column_errors() {
        let mut s = session();
        let err = s.execute("select eno from emp order by bogus").unwrap_err();
        assert!(err.message().contains("ORDER BY"));
        assert!(s.execute("select eno from emp limit -1").is_err());
        // A qualified key must name a select item: an unselected column
        // and an unknown binding are not in the select list.
        for key in ["e.sal", "x.eno", "e.bogus"] {
            let err = s
                .execute(&format!("select e.eno from emp e order by {key}"))
                .unwrap_err();
            assert!(matches!(err, AggViewError::Bind(_)), "{key}: {err}");
            assert!(err.message().contains("not in the select list"), "{err}");
        }
    }

    fn ints(r: &SqlResult, i: usize) -> Vec<i64> {
        r.rows.iter().map(|t| t.get(i).as_i64().unwrap()).collect()
    }

    #[test]
    fn order_by_qualified_alias_and_output_name_keys() {
        let mut s = session();
        let by_qualified = s
            .execute("select e.dno, count(*) from emp e group by e.dno order by e.dno desc")
            .unwrap();
        assert_eq!(ints(&by_qualified, 0), [4, 3, 2, 1, 0]);
        // The same item under an alias: the qualified key still names it,
        // and so does the alias.
        for key in ["e.dno", "d"] {
            let r = s
                .execute(&format!(
                    "select e.eno, e.dno as d from emp e order by {key} desc, eno"
                ))
                .unwrap();
            let (enos, dnos) = (ints(&r, 0), ints(&r, 1));
            assert!(dnos.windows(2).all(|w| w[0] >= w[1]), "{key}");
            assert!((1..enos.len()).all(|i| dnos[i - 1] != dnos[i] || enos[i - 1] < enos[i]));
        }
        let by_name = s
            .execute("select e.sal, e.eno from emp e order by eno desc limit 4")
            .unwrap();
        assert_eq!(ints(&by_name, 1), [29, 28, 27, 26]);
    }

    #[test]
    fn order_by_a_name_two_select_items_carry_is_ambiguous() {
        let mut s = session();
        let err = s
            .execute(
                "select e1.sal, e2.sal from emp e1, emp e2 \
                  where e1.dno = e2.dno order by sal",
            )
            .unwrap_err();
        assert!(matches!(err, AggViewError::Bind(_)), "{err}");
        assert!(err.message().contains("ambiguous"), "{err}");
        // The qualified keys are not.
        assert!(s
            .execute(
                "select e1.sal, e2.sal from emp e1, emp e2 \
                  where e1.dno = e2.dno order by e2.sal"
            )
            .is_ok());
        // One column selected twice is one key.
        let twice = s
            .execute("select dno, dno from emp order by dno desc")
            .unwrap();
        assert!(ints(&twice, 0).windows(2).all(|w| w[0] >= w[1]));
        assert_eq!(ints(&twice, 0), ints(&twice, 1));
    }

    #[test]
    fn order_by_keeps_ties_in_result_order() {
        let mut s = session();
        let unordered = s.execute("select eno, dno from emp").unwrap();
        let ordered = s.execute("select eno, dno from emp order by dno").unwrap();
        let mut want = unordered.rows.clone();
        want.sort_by(|a, b| a.get(1).cmp(b.get(1)));
        assert_eq!(ordered.rows, want);
        // Ties keep the plan's order, whatever it is: not sorted by eno
        // descending unless the plan emitted them that way.
        let desc = s
            .execute("select eno, dno from emp order by dno desc")
            .unwrap();
        let mut want = unordered.rows;
        want.sort_by(|a, b| b.get(1).cmp(a.get(1)));
        assert_eq!(desc.rows, want);
    }

    /// A small deterministic generator (xorshift64*).
    struct Gen(u64);

    impl Gen {
        fn next(&mut self) -> u64 {
            self.0 ^= self.0 >> 12;
            self.0 ^= self.0 << 25;
            self.0 ^= self.0 >> 27;
            self.0.wrapping_mul(0x2545_f491_4f6c_dd1d)
        }

        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
    }

    /// What ORDER BY and LIMIT did before they ran on columns: sort the
    /// finished rows, then truncate them.
    fn sort_then_truncate(
        mut rows: Vec<Tuple>,
        keys: &[(usize, bool)],
        limit: Option<usize>,
    ) -> Vec<Tuple> {
        rows.sort_by(|a, b| {
            for &(i, desc) in keys {
                let ord = a.get(i).cmp(b.get(i));
                let ord = if desc { ord.reverse() } else { ord };
                if ord != Ordering::Equal {
                    return ord;
                }
            }
            Ordering::Equal
        });
        if let Some(n) = limit {
            rows.truncate(n);
        }
        rows
    }

    #[test]
    fn ordering_columns_equals_sorting_rows() {
        use aggview_common::DataType;
        let mut g = Gen(0x35_5eed);
        let types = [DataType::Int, DataType::Float, DataType::Str, DataType::Int];
        for round in 0..200 {
            let n = g.below(40) as usize;
            // Few distinct values per column, so ties are common.
            let rows: Vec<Tuple> = (0..n)
                .map(|_| {
                    Tuple::new(vec![
                        Value::Int(g.below(5) as i64 - 2),
                        Value::Float(g.below(4) as f64 * 0.5 - 1.0),
                        Value::str(["b", "a", "ab", ""][g.below(4) as usize]),
                        Value::Int(g.below(1000) as i64),
                    ])
                })
                .collect();
            let batch = Batch::from_tuples(&rows, &[0, 1, 2, 3], &types).unwrap();
            let nkeys = 1 + g.below(3) as usize;
            let keys: Vec<(usize, bool)> = (0..nkeys)
                .map(|_| (g.below(3) as usize, g.below(2) == 1))
                .collect();
            for limit in [None, Some(0), Some(1), Some(n), Some(n + 3)] {
                for keys in [&keys[..], &[]] {
                    let got = order_and_limit(batch.clone(), keys, limit)
                        .unwrap()
                        .to_tuples();
                    let want = sort_then_truncate(rows.clone(), keys, limit);
                    assert_eq!(got, want, "round {round}: keys {keys:?}, limit {limit:?}");
                }
            }
        }
    }
}
