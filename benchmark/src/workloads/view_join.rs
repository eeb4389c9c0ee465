//! `view_join` — the paper's home ground: aggregate views over `emp`
//! joined to base tables (Example 1 as a view join, as the correlated
//! subquery that flattens to it, and as the paper's single-block query
//! B; Example 2; the Figure 4 query; a two-view query). Constants are
//! drawn per statement, so the outer selectivity — what decides between
//! pull-up, push-down and the traditional plan — varies across the list.
//! The data is many small departments (2 000 x 10), the regime in which
//! the paper's pull-up can win.

use super::{make_ctx, statement_list, template_cells, Built, Scale, SetupTimes, Template, P};
use crate::oracle::{dept_salaries, Cell, EmpDept, Row, Tables};
use crate::rng::Draw;
use aggview_common::Result;
use aggview_sql::Session;
use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview_storage::Catalog;
use std::collections::BTreeMap;
use std::time::Instant;

/// Views every emp/dept catalog of the benchmark gets. The materialized
/// view is over `dept` so that no `emp` aggregate is answered from an
/// extent: the views above it are computed by the executor every time.
pub const EMPDEPT_DDL: &str = "\
create view dept_avg(dno, asal) as \
  select e2.dno, avg(e2.sal) from emp e2 group by e2.dno; \
create view dept_stat(dno, total, hi, n) as \
  select e3.dno, sum(e3.sal), max(e3.sal), count(*) from emp e3 group by e3.dno; \
create view dept_info(dno, dname, loc, asal) as \
  select e4.dno, d4.dname, d4.loc, avg(e4.sal) from emp e4, dept d4 \
   where e4.dno = d4.dno group by e4.dno, d4.dname, d4.loc; \
create materialized view loc_budget(loc, total, n) as \
  select loc, sum(budget), count(*) from dept group by loc";

pub const EMPDEPT_MATVIEW: &str = "loc_budget";

fn draw_age(rng: &mut Draw, _: &Catalog) -> Vec<P> {
    vec![P::I(rng.range(19, 40))]
}

/// Ages for the Figure 4 query. Past this selectivity the optimizer
/// may pull the outer `emp` up through the three-column view and the
/// executor then aggregates emp x emp; with large departments that took
/// seconds per statement and starved every other template of samples.
/// `plan_choice` is where such misjudgments are measured.
fn draw_selective_age(rng: &mut Draw, _: &Catalog) -> Vec<P> {
    vec![P::I(rng.range(19, 25))]
}

fn draw_budget(rng: &mut Draw, _: &Catalog) -> Vec<P> {
    vec![P::I(rng.range(2, 30) * 100_000)]
}

fn draw_age_budget(rng: &mut Draw, t: &Catalog) -> Vec<P> {
    vec![draw_age(rng, t).remove(0), draw_budget(rng, t).remove(0)]
}

/// Rows of `emp` per row of `dept`, from the generated tables.
fn emps_per_dept(catalog: &Catalog) -> i64 {
    let rows = |name: &str| catalog.get(name).map_or(1, |t| t.len().max(1));
    (rows("emp") / rows("dept")) as i64
}

fn draw_none(_: &mut Draw, _: &Catalog) -> Vec<P> {
    Vec::new()
}

/// Example 1: employees under an age who earn more than their
/// department's average salary, as `(eno, sal)`.
pub fn above_dept_average(t: &EmpDept, keep: impl Fn(&crate::oracle::Emp) -> bool) -> Vec<Row> {
    let avg = dept_salaries(t, |_| true);
    t.emps
        .iter()
        .filter(|e| keep(e) && e.sal > avg[e.dno as usize].avg())
        .map(|e| vec![Cell::I(e.eno), Cell::F(e.sal)])
        .collect()
}

fn ex1_expected(t: &Tables, p: &[P]) -> Vec<Row> {
    above_dept_average(t.empdept(), |e| e.age < p[0].i())
}

/// The Figure 4 query: Example 1 against a view that also exports the
/// department's name and location, as `(eno, dname, loc)`.
pub fn fig4_expected(t: &Tables, p: &[P]) -> Vec<Row> {
    let t = t.empdept();
    let avg = dept_salaries(t, |_| true);
    t.emps
        .iter()
        .filter(|e| e.age < p[0].i() && e.sal > avg[e.dno as usize].avg())
        .map(|e| {
            let d = &t.depts[e.dno as usize];
            vec![
                Cell::I(e.eno),
                Cell::S(d.dname.clone()),
                Cell::S(d.loc.clone()),
            ]
        })
        .collect()
}

pub fn fig4_sql(p: &[P]) -> String {
    format!(
        "select e5.eno, v.dname, v.loc from emp e5, dept_info v \
          where e5.dno = v.dno and e5.age < {} and e5.sal > v.asal",
        p[0].i()
    )
}

pub fn ex1_view_sql(p: &[P]) -> String {
    format!(
        "select e1.eno, e1.sal from emp e1, dept_avg b \
          where e1.dno = b.dno and e1.age < {} and e1.sal > b.asal",
        p[0].i()
    )
}

static TEMPLATES: &[Template] = &[
    Template {
        name: "ex1_view",
        weight: 3,
        draw: draw_age,
        sql: ex1_view_sql,
        expected: ex1_expected,
    },
    Template {
        name: "ex1_subquery",
        weight: 2,
        draw: draw_age,
        sql: |p| {
            format!(
                "select e1.eno, e1.sal from emp e1 where e1.age < {} and e1.sal > \
                  (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
                p[0].i()
            )
        },
        expected: ex1_expected,
    },
    Template {
        // The paper's query B, selective enough that the emp x emp join
        // it asks for stays small.
        name: "ex1_single_block",
        weight: 2,
        draw: |rng, c| {
            let per_dept = emps_per_dept(c);
            vec![P::I(rng.range(per_dept * 50, per_dept * 500))]
        },
        sql: |p| {
            format!(
                "select e1.eno, e1.sal from emp e1, emp e2 \
                  where e1.dno = e2.dno and e1.eno < {} \
                  group by e2.dno, e1.eno, e1.sal having e1.sal > avg(e2.sal)",
                p[0].i()
            )
        },
        expected: |t, p| above_dept_average(t.empdept(), |e| e.eno < p[0].i()),
    },
    Template {
        name: "ex2_invariant",
        weight: 2,
        draw: draw_budget,
        sql: |p| {
            format!(
                "select e.dno, avg(e.sal) from emp e, dept d \
                  where e.dno = d.dno and d.budget < {} group by e.dno",
                p[0].i()
            )
        },
        expected: |t, p| {
            let t = t.empdept();
            dept_salaries(t, |_| true)
                .iter()
                .enumerate()
                .filter(|(dno, a)| a.n > 0 && t.depts[*dno].budget < p[0].f())
                .map(|(dno, a)| vec![Cell::I(dno as i64), Cell::F(a.avg())])
                .collect()
        },
    },
    Template {
        name: "view_dim",
        weight: 2,
        draw: draw_budget,
        sql: |p| {
            format!(
                "select d.dname, b.asal from dept d, dept_avg b \
                  where d.dno = b.dno and d.budget < {}",
                p[0].i()
            )
        },
        expected: |t, p| {
            let t = t.empdept();
            dept_salaries(t, |_| true)
                .iter()
                .zip(&t.depts)
                .filter(|(a, d)| a.n > 0 && d.budget < p[0].f())
                .map(|(a, d)| vec![Cell::S(d.dname.clone()), Cell::F(a.avg())])
                .collect()
        },
    },
    Template {
        name: "fig4",
        weight: 3,
        draw: draw_selective_age,
        sql: fig4_sql,
        expected: fig4_expected,
    },
    Template {
        name: "fig4_dim",
        weight: 2,
        draw: draw_age_budget,
        sql: |p| {
            format!(
                "select e6.eno, d.dname from emp e6, dept d, dept_avg b \
                  where e6.dno = d.dno and e6.dno = b.dno and e6.age < {} \
                    and d.budget < {} and e6.sal > b.asal",
                p[0].i(),
                p[1].i()
            )
        },
        expected: |t, p| {
            let t = t.empdept();
            let avg = dept_salaries(t, |_| true);
            t.emps
                .iter()
                .filter(|e| {
                    e.age < p[0].i()
                        && t.depts[e.dno as usize].budget < p[1].f()
                        && e.sal > avg[e.dno as usize].avg()
                })
                .map(|e| {
                    vec![
                        Cell::I(e.eno),
                        Cell::S(t.depts[e.dno as usize].dname.clone()),
                    ]
                })
                .collect()
        },
    },
    Template {
        name: "two_view",
        weight: 2,
        draw: |rng, _| vec![P::I(rng.range(198_000, 199_800))],
        sql: |p| {
            format!(
                "select a.dno, a.asal, s.hi from dept_avg a, dept_stat s \
                  where a.dno = s.dno and s.hi > {}",
                p[0].i()
            )
        },
        expected: |t, p| {
            dept_salaries(t.empdept(), |_| true)
                .iter()
                .enumerate()
                .filter(|(_, a)| a.n > 0 && a.max > p[0].f())
                .map(|(dno, a)| vec![Cell::I(dno as i64), Cell::F(a.avg()), Cell::F(a.max)])
                .collect()
        },
    },
    Template {
        name: "having_count",
        weight: 1,
        draw: |rng, c| {
            let per_dept = emps_per_dept(c);
            vec![P::I(rng.range(25, 45)), P::I(rng.range(1, per_dept / 3))]
        },
        sql: |p| {
            format!(
                "select dno, count(*) from emp where age < {} group by dno having count(*) >= {}",
                p[0].i(),
                p[1].i()
            )
        },
        expected: |t, p| {
            dept_salaries(t.empdept(), |e| e.age < p[0].i())
                .iter()
                .enumerate()
                .filter(|(_, a)| a.n >= p[1].i().max(1))
                .map(|(dno, a)| vec![Cell::I(dno as i64), Cell::I(a.n)])
                .collect()
        },
    },
    Template {
        name: "min_max",
        weight: 1,
        draw: |rng, _| vec![P::I(rng.range(30, 60))],
        sql: |p| {
            format!(
                "select dno, min(sal), max(sal) from emp where age >= {} group by dno",
                p[0].i()
            )
        },
        expected: |t, p| {
            dept_salaries(t.empdept(), |e| e.age >= p[0].i())
                .iter()
                .enumerate()
                .filter(|(_, a)| a.n > 0)
                .map(|(dno, a)| vec![Cell::I(dno as i64), Cell::F(a.min), Cell::F(a.max)])
                .collect()
        },
    },
    Template {
        name: "matview_hit",
        weight: 1,
        draw: draw_none,
        sql: |_| "select loc, sum(budget), count(*) from dept group by loc".into(),
        expected: loc_budget_expected,
    },
];

pub fn loc_budget_expected(t: &Tables, _: &[P]) -> Vec<Row> {
    let mut by_loc: BTreeMap<&str, (f64, i64)> = BTreeMap::new();
    for d in &t.empdept().depts {
        let e = by_loc.entry(&d.loc).or_default();
        e.0 += d.budget;
        e.1 += 1;
    }
    by_loc
        .into_iter()
        .map(|(loc, (total, n))| vec![Cell::S(loc.to_string()), Cell::F(total), Cell::I(n)])
        .collect()
}

pub fn build(seed: u64, scale: Scale) -> Result<Built> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let catalog = gen_empdept(&EmpDeptConfig {
        n_depts: scale.pick(40, 2_000),
        emps_per_dept: scale.pick(12, 10),
        young_fraction: 0.1,
        low_budget_fraction: 0.3,
        seed,
    })?;
    times.gen_ms = super::ms_since(t);
    let ctx = make_ctx(
        Session::new(catalog),
        EMPDEPT_DDL,
        EMPDEPT_MATVIEW,
        &mut times,
    )?;
    let stmts = statement_list(TEMPLATES, ctx.session.catalog(), seed, scale.pick(1, 10), 1);
    let cells = template_cells(TEMPLATES, ctx.session.catalog());
    Ok(Built {
        ctxs: vec![ctx],
        templates: TEMPLATES,
        stmts,
        cells,
        times,
    })
}
