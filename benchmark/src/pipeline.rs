//! The statement pipeline, stage by stage: what `Session::execute` does
//! for a SELECT, re-enacted from the benchmark's own file by calling
//! each layer's public function, with a span around each call. The
//! traced run executes this next to `Session::execute` for the same
//! statement; the difference is the session's own overhead.

use crate::trace::Tracer;
use crate::workloads::Ctx;
use aggview_common::{AggViewError, Result};
use aggview_core::{optimize_governed, Optimized, OptimizerConfig, PlanAnalyzer, ResourceGovernor};
use aggview_executor::Engine;
use aggview_sql::ast::Stmt as AstStmt;
use aggview_sql::binder::bind;
use aggview_sql::parser::parse_script;
use aggview_storage::Catalog;

/// Durations (ms) and counts of one staged execution.
#[derive(Debug, Clone, Default)]
pub struct Staged {
    pub parse_ms: f64,
    pub bind_ms: f64,
    pub optimize_ms: f64,
    /// `PlanAnalyzer::verify`, timed on its own; `execute_governed`
    /// repeats it internally, so executor self time subtracts it.
    pub verify_ms: f64,
    /// `Engine::execute_governed`, including its internal verify. Zero
    /// for `EXPLAIN VERIFY`, which stops after analysis.
    pub execute_governed_ms: f64,
    pub executed: bool,
    pub rows: usize,
    pub estimated_rows: f64,
    pub plans_built: u64,
    pub groupby_placements: u64,
    pub degraded: bool,
    pub io_pages: f64,
    pub peak_intermediate_bytes: u64,
    /// Base and extent rows the plan's scans read.
    pub rows_in: usize,
    pub pulled_up: bool,
    pub extent_scan: bool,
    pub plan_text: String,
}

impl Staged {
    /// Executor time proper: `execute_governed` minus the analysis it
    /// repeats.
    pub fn execute_self_ms(&self) -> f64 {
        if self.executed {
            (self.execute_governed_ms - self.verify_ms).max(0.0)
        } else {
            0.0
        }
    }

    pub fn staged_total_ms(&self) -> f64 {
        let tail = if self.executed {
            self.execute_governed_ms
        } else {
            self.verify_ms
        };
        self.parse_ms + self.bind_ms + self.optimize_ms + tail
    }

    /// max(est/actual, actual/est), both floored at one row.
    pub fn q_error(&self) -> f64 {
        let (e, a) = (self.estimated_rows.max(1.0), (self.rows as f64).max(1.0));
        (e / a).max(a / e)
    }
}

/// Rows of the tables a plan scans, read off its EXPLAIN text (`Scan
/// <table> ...` and `ExtentScan <table> ...` lines) so no plan-node
/// names are matched.
fn rows_scanned(plan_text: &str, catalog: &Catalog) -> usize {
    plan_text
        .lines()
        .filter_map(|line| {
            let mut words = line.split_whitespace();
            match words.next() {
                Some("Scan") | Some("ExtentScan") => words.next(),
                _ => None,
            }
        })
        .filter_map(|table| catalog.get(table).ok())
        .map(|t| t.len())
        .sum()
}

/// Run one SELECT (or `EXPLAIN VERIFY`) statement stage by stage under
/// the session's current configuration, recording a child span of
/// `parent` per stage.
pub fn run_staged(
    ctx: &Ctx,
    sql: &str,
    tracer: &mut Tracer,
    stmt_id: u32,
    parent: u32,
) -> Result<Staged> {
    let session = &ctx.session;
    let catalog = session.catalog();
    let mut out = Staged::default();

    let span = tracer.begin("sql.parse", stmt_id, Some(parent));
    let parsed = parse_script(sql);
    out.parse_ms = tracer.end(span);
    let (select, explain_only) = match parsed?.pop() {
        Some(AstStmt::Select(s)) => (s, false),
        Some(AstStmt::ExplainVerify(s)) => (s, true),
        _ => {
            return Err(AggViewError::Bind(
                "the staged pipeline runs SELECT statements only".into(),
            ))
        }
    };

    let span = tracer.begin("sql.bind", stmt_id, Some(parent));
    let bound = bind(&select, catalog, &ctx.registry);
    out.bind_ms = tracer.end(span);
    let bound = bound?;

    let gov = ResourceGovernor::unlimited();
    let span = tracer.begin("optimizer.optimize", stmt_id, Some(parent));
    let opt = optimize_governed(&bound.query, catalog, session.model, &session.config, &gov);
    out.optimize_ms = tracer.end(span);
    let opt = opt?;

    let span = tracer.begin("analyze.verify", stmt_id, Some(parent));
    let verified = PlanAnalyzer::new(catalog)
        .with_env(&bound.query.env)
        .verify(&opt.plan);
    out.verify_ms = tracer.end(span);
    verified?;

    out.estimated_rows = opt.props.card;
    out.plans_built = opt.stats.plans_built;
    out.groupby_placements = opt.stats.groupby_placements;
    out.degraded = opt.outcome.is_degraded();
    out.pulled_up = opt.pulled.iter().any(|p| !p.is_empty());
    out.plan_text = opt.plan.explain();
    out.extent_scan = out.plan_text.contains("ExtentScan");
    out.rows_in = rows_scanned(&out.plan_text, catalog);

    if !explain_only {
        let engine =
            Engine::new(catalog, &bound.query.env, session.model).with_options(session.exec);
        let span = tracer.begin("executor.execute", stmt_id, Some(parent));
        let result = engine.execute_governed(&opt.plan, &gov, None);
        out.execute_governed_ms = tracer.end(span);
        let result = result?;
        out.executed = true;
        out.rows = result.rows.len();
        out.io_pages = result.io_pages;
        out.peak_intermediate_bytes = result.peak_intermediate_bytes;
    }
    Ok(out)
}

/// Which optional transformations shaped the chosen plan: a
/// transformation counts as used when switching it off changes the plan.
#[derive(Debug, Clone, Copy, Default)]
pub struct Features {
    pub push_down: bool,
    pub eager: bool,
}

pub fn features_used(ctx: &Ctx, sql: &str) -> Result<Features> {
    let catalog = ctx.session.catalog();
    let select = match parse_script(sql)?.pop() {
        Some(AstStmt::Select(s)) | Some(AstStmt::ExplainVerify(s)) => s,
        _ => return Ok(Features::default()),
    };
    let bound = bind(&select, catalog, &ctx.registry)?;
    let plan_under = |config: &OptimizerConfig| -> Result<String> {
        let gov = ResourceGovernor::unlimited();
        let opt: Optimized =
            optimize_governed(&bound.query, catalog, ctx.session.model, config, &gov)?;
        Ok(opt.plan.explain())
    };
    let config = ctx.session.config;
    let chosen = plan_under(&config)?;
    let without_eager = OptimizerConfig {
        use_eager_agg: false,
        ..config
    };
    let without_push_down = OptimizerConfig {
        push_down: false,
        use_eager_agg: false,
        ..config
    };
    let no_eager = plan_under(&without_eager)?;
    Ok(Features {
        eager: no_eager != chosen,
        push_down: plan_under(&without_push_down)? != no_eager,
    })
}
