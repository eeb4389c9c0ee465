//! `plan_choice` — the paper's never-worse claim checked in wall-clock.
//!
//! Each cell is one query over its own catalog, sized so that a
//! different plan shape should win: the Example 1 crossover grid
//! (departments x young fraction, EXPERIMENTS.md E1), the four Figure 4
//! regimes (E3, including the cell where cardinality error makes the
//! cost winner lose), the join-then-aggregate self-join on which eager
//! aggregation fires, and a query a materialized view answers. The
//! runner executes every cell under five optimizer configurations.
//! E1/E3 cells use the 4-page memory model of those experiments, the
//! setting at which the shapes separate.

use super::view_join::{self, EMPDEPT_DDL, EMPDEPT_MATVIEW};
use super::{make_ctx, Built, Scale, SetupTimes, Stmt, Template, P};
use crate::oracle::{dept_salaries, Acc, Cell, Row, Tables};
use crate::rng::{Draw, Rng};
use aggview_common::Result;
use aggview_sql::Session;
use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview_storage::Catalog;
use std::time::Instant;

const DEPT_PAY_DDL: &str = "; \
create materialized view dept_pay(dno, total, n) as \
  select dno, sum(sal), count(*) from emp group by dno";

/// The data one cell runs over.
struct CellData {
    depts: usize,
    emps: usize,
    young: f64,
    /// Operator memory of the cost model, in pages (`None` = default).
    mem_pages: Option<f64>,
    dept_pay: bool,
}

const fn cell(depts: usize, emps: usize, young: f64, mem_pages: Option<f64>) -> CellData {
    CellData {
        depts,
        emps,
        young,
        mem_pages,
        dept_pay: false,
    }
}

/// Parallel to [`TEMPLATES`].
const CELLS: &[CellData] = &[
    cell(8000, 20_000, 0.002, Some(4.0)),
    cell(8000, 20_000, 0.02, Some(4.0)),
    cell(5, 20_000, 0.6, Some(4.0)),
    cell(50, 60_000, 0.003, Some(4.0)),
    cell(1200, 60_000, 0.003, Some(4.0)),
    cell(30_000, 60_000, 0.003, Some(4.0)),
    cell(30_000, 60_000, 0.5, Some(4.0)),
    cell(200, 20_000, 0.1, None),
    CellData {
        depts: 200,
        emps: 20_000,
        young: 0.1,
        mem_pages: None,
        dept_pay: true,
    },
];

fn age_22(_: &mut Draw, _: &Catalog) -> Vec<P> {
    vec![P::I(22)]
}

fn ex1_expected(t: &Tables, p: &[P]) -> Vec<Row> {
    view_join::above_dept_average(t.empdept(), |e| e.age < p[0].i())
}

const fn ex1(name: &'static str) -> Template {
    Template {
        name,
        weight: 1,
        draw: age_22,
        sql: view_join::ex1_view_sql,
        expected: ex1_expected,
    }
}

const fn fig4(name: &'static str) -> Template {
    Template {
        name,
        weight: 1,
        draw: age_22,
        sql: view_join::fig4_sql,
        expected: view_join::fig4_expected,
    }
}

static TEMPLATES: &[Template] = &[
    ex1("e1_many_depts_0.2pct_young"),
    ex1("e1_many_depts_2pct_young"),
    ex1("e1_few_depts_60pct_young"),
    fig4("e3_50_depts_selective"),
    fig4("e3_1200_depts_selective"),
    fig4("e3_30000_depts_selective"),
    fig4("e3_30000_depts_unselective"),
    Template {
        name: "eager_selfjoin",
        weight: 1,
        draw: |_, _| Vec::new(),
        sql: |_| {
            "select e1.dno, avg(e1.age), min(e2.sal), sum(e2.age) from emp e1, emp e2 \
              where e1.dno = e2.dno group by e1.dno"
                .into()
        },
        expected: |t, _| {
            // Every emp row pairs with every row of its department, so
            // each aggregate over one side repeats n times.
            let t = t.empdept();
            let sal = dept_salaries(t, |_| true);
            let mut age = vec![Acc::default(); t.depts.len()];
            for e in &t.emps {
                age[e.dno as usize].add(e.age as f64);
            }
            (0..t.depts.len())
                .filter(|&d| age[d].n > 0)
                .map(|d| {
                    vec![
                        Cell::I(d as i64),
                        Cell::F(age[d].avg()),
                        Cell::F(sal[d].min),
                        Cell::F(age[d].sum * age[d].n as f64),
                    ]
                })
                .collect()
        },
    },
    Template {
        name: "matview_sum",
        weight: 1,
        draw: |_, _| Vec::new(),
        sql: |_| "select dno, sum(sal), count(*) from emp group by dno".into(),
        expected: |t, _| {
            dept_salaries(t.empdept(), |_| true)
                .iter()
                .enumerate()
                .filter(|(_, a)| a.n > 0)
                .map(|(dno, a)| vec![Cell::I(dno as i64), Cell::F(a.sum), Cell::I(a.n)])
                .collect()
        },
    },
];

pub fn build(seed: u64, scale: Scale) -> Result<Built> {
    let mut times = SetupTimes::default();
    let mut ctxs = Vec::new();
    let mut stmts = Vec::new();
    let shrink = scale.pick(40, 1);
    for (i, data) in CELLS.iter().enumerate() {
        let depts = (data.depts / shrink).max(2);
        let t = Instant::now();
        let catalog = gen_empdept(&EmpDeptConfig {
            n_depts: depts,
            emps_per_dept: (data.emps / shrink / depts).max(2),
            young_fraction: data.young,
            low_budget_fraction: 0.3,
            seed: seed.wrapping_mul(31).wrapping_add(i as u64),
        })?;
        times.gen_ms += super::ms_since(t);
        let mut session = Session::new(catalog);
        if let Some(pages) = data.mem_pages {
            session.model.io.mem_pages = pages;
        }
        let ddl = if data.dept_pay {
            format!("{EMPDEPT_DDL}{DEPT_PAY_DDL}")
        } else {
            EMPDEPT_DDL.to_string()
        };
        let ctx = make_ctx(session, &ddl, EMPDEPT_MATVIEW, &mut times)?;
        let params =
            (TEMPLATES[i].draw)(&mut Draw::new(&mut Rng::new(0), 0.5), ctx.session.catalog());
        stmts.push(Stmt {
            template: i,
            ctx: i,
            sql: (TEMPLATES[i].sql)(&params),
            params,
        });
        ctxs.push(ctx);
    }
    Ok(Built {
        ctxs,
        templates: TEMPLATES,
        cells: stmts.clone(),
        stmts,
        times,
    })
}
