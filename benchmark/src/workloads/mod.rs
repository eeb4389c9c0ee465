//! Workload definitions: generated tables, view DDL, seeded SQL
//! statement lists and the plain-Rust expected answer of each template.

pub mod dml_maintain;
pub mod plan_choice;
pub mod plan_heavy;
pub mod star_agg;
pub mod view_join;

use crate::oracle::{Row, Tables};
use crate::rng::{Draw, Rng};
use aggview_common::Result;
use aggview_sql::ast::Stmt as AstStmt;
use aggview_sql::binder::ViewRegistry;
use aggview_sql::parser::parse_script;
use aggview_sql::Session;
use aggview_storage::Catalog;
use std::time::Instant;

/// `Full` is what `BENCHMARK.json` runs; `Tiny` is `selftest`'s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    Tiny,
    Full,
}

impl Scale {
    pub fn pick<T>(self, tiny: T, full: T) -> T {
        match self {
            Scale::Tiny => tiny,
            Scale::Full => full,
        }
    }

    pub fn name(self) -> &'static str {
        self.pick("tiny", "full")
    }
}

/// A statement parameter, drawn per statement from the seed.
#[derive(Debug, Clone, PartialEq)]
pub enum P {
    I(i64),
    F(f64),
    S(&'static str),
}

impl P {
    pub fn i(&self) -> i64 {
        match self {
            P::I(v) => *v,
            other => panic!("parameter {other:?} is not an integer"),
        }
    }

    pub fn f(&self) -> f64 {
        match self {
            P::F(v) => *v,
            P::I(v) => *v as f64,
            P::S(_) => panic!("parameter {self:?} is not numeric"),
        }
    }

    pub fn s(&self) -> &'static str {
        match self {
            P::S(v) => v,
            other => panic!("parameter {other:?} is not a string"),
        }
    }
}

/// A decimal constant with three fractional digits, as the SQL text and
/// the oracle both read it.
pub fn thousandths(k: i64) -> P {
    P::F(
        format!("{}.{:03}", k / 1000, k % 1000)
            .parse()
            .expect("decimal literal"),
    )
}

/// One query shape: how to draw its constants, render its SQL and
/// compute its answer without the engine.
pub struct Template {
    pub name: &'static str,
    /// Relative frequency in the statement list.
    pub weight: u32,
    pub draw: fn(&mut Draw, &Catalog) -> Vec<P>,
    pub sql: fn(&[P]) -> String,
    pub expected: fn(&Tables, &[P]) -> Vec<Row>,
}

/// One SQL statement of a workload's list.
#[derive(Debug, Clone)]
pub struct Stmt {
    pub template: usize,
    /// Which session (catalog) it runs against.
    pub ctx: usize,
    pub sql: String,
    pub params: Vec<P>,
}

/// A session plus a mirror of its view registry (the staged pipeline
/// binds against it). The oracle's copies of the tables are not kept
/// here: they are read from the catalog when a check runs
/// ([`Tables::read`]), so they are not in memory while a run measures.
pub struct Ctx {
    pub session: Session,
    pub registry: ViewRegistry,
}

/// Set-up costs that are per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub gen_ms: f64,
    pub matview_build_ms: f64,
    pub matview_refresh_ms: f64,
    pub extent_rows: f64,
}

/// Everything a read-only workload is made of.
pub struct Built {
    pub ctxs: Vec<Ctx>,
    pub templates: &'static [Template],
    pub stmts: Vec<Stmt>,
    /// One statement per template with seed-independent constants: the
    /// cells on which optimizer configurations are compared.
    pub cells: Vec<Stmt>,
    pub times: SetupTimes,
}

/// Build a context: wrap `catalog` in a single-threaded session, run
/// the view DDL (plain views first, materialized views last so the
/// script ends in a status row), refresh `refresh` once, and mirror the
/// views into a registry.
pub fn make_ctx(
    mut session: Session,
    ddl: &str,
    refresh: &str,
    times: &mut SetupTimes,
) -> Result<Ctx> {
    // One client, one thread: nothing queues, so a layer's share of the
    // time is the ceiling of what speeding it up can save.
    session.exec.threads = 1;
    let t = Instant::now();
    session.execute(ddl)?;
    times.matview_build_ms += ms_since(t);
    let t = Instant::now();
    session.execute(&format!("refresh materialized view {refresh}"))?;
    times.matview_refresh_ms += ms_since(t);

    let mut registry = ViewRegistry::new();
    for stmt in parse_script(ddl)? {
        if let AstStmt::CreateView {
            name,
            columns,
            query,
        }
        | AstStmt::CreateMaterializedView {
            name,
            columns,
            query,
        } = stmt
        {
            registry.register(&name, columns, query);
        }
    }
    times.extent_rows += extent_rows(session.catalog()) as f64;
    Ok(Ctx { session, registry })
}

/// Rows held by materialized-view extents.
pub fn extent_rows(catalog: &Catalog) -> usize {
    catalog
        .matview_names()
        .iter()
        .filter_map(|n| catalog.matview(n))
        .filter_map(|m| catalog.get(&m.extent).ok())
        .map(|t| t.len())
        .sum()
}

pub fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}

fn instantiate(
    templates: &[Template],
    i: usize,
    ctx: usize,
    draw: &mut Draw,
    catalog: &Catalog,
) -> Stmt {
    let params = (templates[i].draw)(draw, catalog);
    Stmt {
        template: i,
        ctx,
        sql: (templates[i].sql)(&params),
        params,
    }
}

/// The seeded statement list of a single-context workload. Every
/// template appears `weight * rounds` times, its decisive constant
/// stratified over those instances (see [`Draw`]); each statement is
/// listed `copies` times (2 = every text recurs once); the seed decides
/// the remaining constants and the order. The mix of work is thus the
/// same for every seed, which keeps run-to-run spread inside the bounds.
pub fn statement_list(
    templates: &[Template],
    catalog: &Catalog,
    seed: u64,
    rounds: usize,
    copies: usize,
) -> Vec<Stmt> {
    let mut rng = Rng::fork(seed, 1);
    let mut out = Vec::new();
    for (i, template) in templates.iter().enumerate() {
        let k = template.weight as usize * rounds;
        let offset = rng.unit();
        for j in 0..k {
            let stratum = (j as f64 + offset) / k as f64;
            let stmt = instantiate(templates, i, 0, &mut Draw::new(&mut rng, stratum), catalog);
            out.extend(std::iter::repeat_n(stmt, copies));
        }
    }
    // Fisher-Yates.
    for i in (1..out.len()).rev() {
        out.swap(i, rng.below(i as u64 + 1) as usize);
    }
    out
}

/// One cell per template, with constants that do not depend on the
/// workload seed (the data still does), so configuration ratios compare
/// like with like across seeds.
pub fn template_cells(templates: &[Template], catalog: &Catalog) -> Vec<Stmt> {
    (0..templates.len())
        .map(|i| {
            let mut rng = Rng::fork(0xCE11, i as u64);
            instantiate(templates, i, 0, &mut Draw::new(&mut rng, 0.5), catalog)
        })
        .collect()
}

pub fn build(name: &str, seed: u64, scale: Scale) -> Result<Built> {
    match name {
        "view_join" => view_join::build(seed, scale),
        "star_agg" => star_agg::build(seed, scale),
        "plan_heavy" => plan_heavy::build(seed, scale),
        "plan_choice" => plan_choice::build(seed, scale),
        other => panic!("`{other}` is not a read workload"),
    }
}
