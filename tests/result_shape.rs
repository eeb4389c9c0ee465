//! What a SELECT returns, root by root: the session projects the
//! engine's result columns, orders and cuts them, and only then builds
//! rows. Each query here must come back exactly as projecting every
//! row of `Engine::execute_governed` would give it — same rows, same
//! order — and agree with the reference interpreter as a multiset, at
//! the smallest tile size and at the default one.

use aggview::core::governor::ResourceGovernor;
use aggview::core::plan::Plan;
use aggview::executor::{reference, Engine, ResultSet};
use aggview::sql::Session;
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview::Tuple;

fn session(batch_rows: usize) -> Session {
    let mut s = Session::new(
        gen_empdept(&EmpDeptConfig {
            n_depts: 9,
            emps_per_dept: 14,
            young_fraction: 0.3,
            low_budget_fraction: 0.5,
            seed: 35,
        })
        .unwrap(),
    );
    s.exec.batch_rows = batch_rows;
    s.execute(
        "create view dept_avg(dno, asal) as \
           select e2.dno, avg(e2.sal) from emp e2 group by e2.dno; \
         create materialized view dsal(dno, total, n) as \
           select dno, sum(sal), count(*) from emp group by dno",
    )
    .unwrap();
    s
}

/// Each row of `rs` projected onto `onto`'s columns, in `rs`'s order.
fn project_rows(rs: &ResultSet, onto: &[aggview::Col]) -> Vec<Tuple> {
    let positions: Vec<usize> = onto.iter().map(|c| rs.col_index(*c).unwrap()).collect();
    rs.rows.iter().map(|r| r.project(&positions)).collect()
}

fn sorted(mut rows: Vec<Tuple>) -> Vec<Tuple> {
    rows.sort();
    rows
}

/// Run `sql` through the session and against both per-row paths; the
/// chosen plan's root must satisfy `root`.
fn check(sql: &str, root: fn(&Plan) -> bool) {
    for batch_rows in [1, 1024] {
        let mut s = session(batch_rows);
        let got = s.execute(sql).unwrap();
        let (bound, opt) = s.plan(sql).unwrap();
        assert!(
            root(&opt.plan),
            "{sql}: unexpected root\n{}",
            opt.plan.explain()
        );
        let projection = &bound.query.projection;

        let engine = Engine::new(s.catalog(), &bound.query.env, s.model).with_options(s.exec);
        let rs = engine
            .execute_governed(&opt.plan, &ResourceGovernor::unlimited(), None)
            .unwrap();
        let per_row = project_rows(&rs, projection);
        assert!(!per_row.is_empty(), "{sql}: the check needs rows");
        assert_eq!(got.rows, per_row, "{sql} at batch_rows {batch_rows}");
        assert_eq!(got.columns, bound.column_names);
        assert!((got.io_pages - rs.io_pages).abs() < 1e-9);

        let oracle = reference::evaluate(&opt.plan, s.catalog()).unwrap();
        assert_eq!(
            sorted(got.rows),
            sorted(project_rows(&oracle, projection)),
            "{sql} at batch_rows {batch_rows}: differs from the reference"
        );
    }
}

#[test]
fn scan_root() {
    check(
        "select e.eno, e.dno, e.sal from emp e where e.age < 30",
        |p| matches!(p, Plan::Scan { .. }),
    );
}

#[test]
fn join_root() {
    check(
        "select e1.eno, e1.sal from emp e1, dept_avg b \
          where e1.dno = b.dno and e1.age < 40 and e1.sal > b.asal",
        |p| matches!(p, Plan::Join { .. }),
    );
}

#[test]
fn aggregate_root() {
    check(
        "select dno, min(sal), max(sal) from emp where age >= 30 group by dno",
        |p| matches!(p, Plan::GroupBy { .. }),
    );
}

#[test]
fn extent_scan_root() {
    check("select dno, sum(sal) from emp group by dno", |p| {
        matches!(p, Plan::ExtentScan { .. })
    });
}

#[test]
fn reordered_select_list() {
    check("select e.sal, e.eno from emp e where e.age < 30", |_| true);
    check(
        "select d.loc, e.sal, d.dname, e.eno from emp e, dept d \
          where e.dno = d.dno and e.age < 30",
        |_| true,
    );
}

#[test]
fn repeated_select_item() {
    check(
        "select e.sal, e.dno, e.sal from emp e where e.age < 30",
        |_| true,
    );
    check(
        "select d.dname, e.sal, d.dname from emp e, dept d \
          where e.dno = d.dno and e.age < 30",
        |_| true,
    );
}
