//! End-to-end SQL tests: the paper's queries verbatim, plus
//! decision-support queries, checked against independent brute-force
//! computations over the raw tables.

use aggview::sql::Session;
use aggview::storage::datagen::{gen_empdept, gen_star, EmpDeptConfig, StarConfig};
use aggview::{AggViewError, Value};
use std::collections::HashMap;

fn empdept_session() -> Session {
    Session::new(
        gen_empdept(&EmpDeptConfig {
            n_depts: 12,
            emps_per_dept: 15,
            young_fraction: 0.25,
            low_budget_fraction: 0.5,
            seed: 31,
        })
        .unwrap(),
    )
}

/// Brute-force: employees under 22 earning more than their department's
/// average salary.
fn expected_example1(session: &Session) -> Vec<f64> {
    let emp = session.catalog().get("emp").unwrap();
    let mut sums: HashMap<i64, (f64, usize)> = HashMap::new();
    for r in emp.rows() {
        let e = sums.entry(r.get(2).as_i64().unwrap()).or_insert((0.0, 0));
        e.0 += r.get(3).as_f64().unwrap();
        e.1 += 1;
    }
    let mut out: Vec<f64> = emp
        .rows()
        .iter()
        .filter(|r| r.get(4).as_i64().unwrap() < 22)
        .filter(|r| {
            let (s, n) = sums[&r.get(2).as_i64().unwrap()];
            r.get(3).as_f64().unwrap() > s / n as f64
        })
        .map(|r| r.get(3).as_f64().unwrap())
        .collect();
    out.sort_by(f64::total_cmp);
    out
}

fn extract_f64s(rows: &[aggview::Tuple], idx: usize) -> Vec<f64> {
    let mut out: Vec<f64> = rows.iter().map(|r| r.get(idx).as_f64().unwrap()).collect();
    out.sort_by(f64::total_cmp);
    out
}

#[test]
fn paper_example1_three_formulations_match_brute_force() {
    let mut s = empdept_session();
    let expected = expected_example1(&s);
    assert!(!expected.is_empty());

    // (A1)+(A2): the aggregate-view formulation.
    let via_view = s
        .execute(
            "create view A1(dno, Asal) as \
               select e2.dno, avg(e2.sal) from emp e2 group by e2.dno; \
             select e1.sal from emp e1, A1 b \
              where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal;",
        )
        .unwrap();
    // (B): the paper's pulled-up single-block formulation.
    let via_b = s
        .execute(
            "select e1.sal from emp e1, emp e2 \
              where e1.dno = e2.dno and e1.age < 22 \
              group by e2.dno, e1.eno, e1.sal having e1.sal > avg(e2.sal)",
        )
        .unwrap();
    // Correlated subquery formulation (flattened by the binder).
    let via_sub = s
        .execute(
            "select e1.sal from emp e1 where e1.age < 22 and \
             e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
        )
        .unwrap();

    for (name, result) in [("A1/A2", &via_view), ("B", &via_b), ("subquery", &via_sub)] {
        let got = extract_f64s(&result.rows, 0);
        assert_eq!(got.len(), expected.len(), "{name} row count");
        for (g, e) in got.iter().zip(&expected) {
            assert!((g - e).abs() < 1e-9, "{name}: {g} vs {e}");
        }
    }
}

#[test]
fn paper_example2_matches_brute_force() {
    let mut s = empdept_session();
    let result = s
        .execute(
            "select e.dno, avg(e.sal) from emp e, dept d \
              where e.dno = d.dno and d.budget < 1000000 group by e.dno",
        )
        .unwrap();

    let emp = s.catalog().get("emp").unwrap();
    let dept = s.catalog().get("dept").unwrap();
    let low: std::collections::HashSet<i64> = dept
        .rows()
        .iter()
        .filter(|r| r.get(2).as_f64().unwrap() < 1_000_000.0)
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    let mut sums: HashMap<i64, (f64, usize)> = HashMap::new();
    for r in emp.rows() {
        let dno = r.get(2).as_i64().unwrap();
        if low.contains(&dno) {
            let e = sums.entry(dno).or_insert((0.0, 0));
            e.0 += r.get(3).as_f64().unwrap();
            e.1 += 1;
        }
    }
    assert_eq!(result.rows.len(), sums.len());
    for row in &result.rows {
        let dno = row.get(0).as_i64().unwrap();
        let (sum, n) = sums[&dno];
        let avg = row.get(1).as_f64().unwrap();
        assert!((avg - sum / n as f64).abs() < 1e-9, "dept {dno}");
    }
}

#[test]
fn group_by_with_having_and_count() {
    let mut s = empdept_session();
    let result = s
        .execute("select dno, count(*) from emp group by dno having count(*) >= 15")
        .unwrap();
    // Every department has exactly 15 employees in this catalog.
    assert_eq!(result.rows.len(), 12);
    assert!(result.rows.iter().all(|r| r.get(1) == &Value::Int(15)));
}

#[test]
fn min_max_sum_stddev_against_brute_force() {
    let mut s = empdept_session();
    let result = s
        .execute(
            "select dno, min(sal), max(sal), sum(sal), stddev(sal) \
             from emp group by dno",
        )
        .unwrap();
    let emp = s.catalog().get("emp").unwrap();
    for row in &result.rows {
        let dno = row.get(0).as_i64().unwrap();
        let sals: Vec<f64> = emp
            .rows()
            .iter()
            .filter(|r| r.get(2).as_i64() == Some(dno))
            .map(|r| r.get(3).as_f64().unwrap())
            .collect();
        let mn = sals.iter().cloned().fold(f64::INFINITY, f64::min);
        let mx = sals.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        let sum: f64 = sals.iter().sum();
        let mean = sum / sals.len() as f64;
        let var = sals.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / sals.len() as f64;
        assert!((row.get(1).as_f64().unwrap() - mn).abs() < 1e-9);
        assert!((row.get(2).as_f64().unwrap() - mx).abs() < 1e-9);
        assert!((row.get(3).as_f64().unwrap() - sum).abs() < 1e-6);
        assert!((row.get(4).as_f64().unwrap() - var.sqrt()).abs() < 1e-6);
    }
}

#[test]
fn star_schema_revenue_per_order() {
    let mut s = Session::new(
        gen_star(&StarConfig {
            customers: 60,
            orders_per_customer: 3,
            lines_per_order: 4,
            nations: 10,
            seed: 32,
        })
        .unwrap(),
    );
    let result = s
        .execute(
            "create view order_rev(ono, rev) as \
               select l.ono, sum(l.price) from lineitem l group by l.ono; \
             select o.ono, r.rev from orders o, order_rev r \
              where o.ono = r.ono and o.status = 'returned';",
        )
        .unwrap();
    let orders = s.catalog().get("orders").unwrap();
    let lineitem = s.catalog().get("lineitem").unwrap();
    let returned: std::collections::HashSet<i64> = orders
        .rows()
        .iter()
        .filter(|r| r.get(3).as_str() == Some("returned"))
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    let mut revs: HashMap<i64, f64> = HashMap::new();
    for r in lineitem.rows() {
        *revs.entry(r.get(1).as_i64().unwrap()).or_default() += r.get(4 - 1).as_f64().unwrap();
    }
    let expected: usize = returned.iter().filter(|o| revs.contains_key(o)).count();
    assert_eq!(result.rows.len(), expected);
    for row in &result.rows {
        let ono = row.get(0).as_i64().unwrap();
        assert!(returned.contains(&ono));
        assert!((row.get(1).as_f64().unwrap() - revs[&ono]).abs() < 1e-6);
    }
}

#[test]
fn arithmetic_predicates_work() {
    let mut s = empdept_session();
    let all = s.execute("select eno from emp").unwrap();
    let half = s
        .execute("select eno from emp where sal / 2 > 50000")
        .unwrap();
    let manual = s.execute("select eno from emp where sal > 100000").unwrap();
    assert_eq!(half.rows.len(), manual.rows.len());
    assert!(half.rows.len() < all.rows.len());
}

#[test]
fn errors_are_reported_not_panicked() {
    let mut s = empdept_session();
    for bad in [
        "select nosuch from emp",
        "select sal from nosuchtable",
        "select sal from emp where",
        "select sal, avg(sal) from emp", // ungrouped column
        "create view v as select sal from emp; select v.sal from v, v", // dup binding
    ] {
        assert!(s.execute(bad).is_err(), "{bad}");
    }
}

/// INSERT values, UPDATE's SET and WHERE, and SELECT share one
/// arithmetic and one set of name rules: `INT / INT` is a FLOAT, a
/// value the column's type refuses or an arithmetic error inserts
/// nothing, and DML names resolve as a SELECT's do.
#[test]
fn insert_update_and_select_share_one_arithmetic() {
    let mut s = empdept_session();
    let state = |s: &Session| {
        let c = s.catalog();
        (c.get("emp").unwrap().len(), c.data_version("emp"))
    };
    s.execute("insert into emp values (90001, 'a', 1, 7/2, 30)")
        .unwrap();
    let found = s
        .execute("select eno, sal from emp where sal = 7/2")
        .unwrap();
    assert_eq!(found.rows.len(), 1, "{:?}", found.rows);
    assert_eq!(*found.rows[0].get(0), Value::Int(90001));
    assert_eq!(*found.rows[0].get(1), Value::Float(3.5));

    let before = state(&s);
    for (sql, needle) in [
        ("insert into emp values (90002, 'b', 1, 1.0, 7/2)", "age"),
        (
            "insert into emp values (90003, 'c', 1, 1.0/0, 30)",
            "division by zero",
        ),
        (
            "insert into emp values (90004, 'd', 1, 1.0, 30 / 0)",
            "division by zero",
        ),
    ] {
        let err = s.execute(sql).unwrap_err();
        assert!(err.message().contains(needle), "{sql}: {err}");
        assert_eq!(state(&s), before, "{sql} changed emp");
    }

    s.execute("update emp set sal = emp.sal + 1 where EMP.eno = 90001")
        .unwrap();
    let r = s
        .execute("select e.sal from emp e where e.eno = 90001")
        .unwrap();
    assert_eq!(*r.rows[0].get(0), Value::Float(4.5));
    let err = s
        .execute("update emp set sal = 1.0 where e.eno = 90001")
        .unwrap_err();
    assert!(err.message().contains("unknown table alias `e`"), "{err}");
}

/// The binder leaves the canonical query's checks to the optimizer,
/// which makes them first: one that binds but is not well formed is
/// still rejected, as a plan error, before anything runs.
#[test]
fn invalid_canonical_query_is_rejected_by_the_optimizer() {
    let mut s = empdept_session();
    let bad = "select e.dno, count(*) from emp e group by e.dno having e.sal > 5";
    let err = s.execute(bad).unwrap_err();
    assert!(
        matches!(err, AggViewError::Plan(_)) && err.message().contains("HAVING"),
        "{err}"
    );
}

#[test]
fn optimizer_modes_agree_through_sql() {
    use aggview::core::OptimizerConfig;
    let sql = "create view A1(dno, Asal) as \
                 select e2.dno, avg(e2.sal) from emp e2 group by e2.dno; \
               select e1.sal from emp e1, A1 b \
                where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal;";
    let mut rows_by_mode = Vec::new();
    for cfg in [
        OptimizerConfig::traditional(),
        OptimizerConfig::push_down_only(),
        OptimizerConfig::default(),
    ] {
        let mut s = empdept_session();
        s.config = cfg;
        let result = s.execute(sql).unwrap();
        let mut rows = extract_f64s(&result.rows, 0);
        rows.sort_by(f64::total_cmp);
        rows_by_mode.push(rows);
    }
    assert_eq!(rows_by_mode[0], rows_by_mode[1]);
    assert_eq!(rows_by_mode[0], rows_by_mode[2]);
}

/// Empty results come back through the same projection as any other:
/// the select list's names, no rows. The gate answers a provably empty
/// plan without running it (no IO); a WHERE that just matches nothing
/// runs.
#[test]
fn empty_results_keep_their_select_list() {
    let mut s = empdept_session();
    let proven = s
        .execute("select e.sal, e.dno from emp e where e.sal > 5 and e.sal < 3")
        .unwrap();
    assert_eq!(proven.columns, ["sal", "dno"]);
    assert!(proven.rows.is_empty());
    assert_eq!(proven.io_pages, 0.0);

    // A salary between two neighbouring ones: inside the column's range,
    // so nothing proves the equality false before the scan does.
    let mut sals: Vec<f64> = s
        .catalog()
        .get("emp")
        .unwrap()
        .rows()
        .iter()
        .map(|r| r.get(3).as_f64().unwrap())
        .collect();
    sals.sort_by(f64::total_cmp);
    sals.dedup();
    let gap = (sals[0] + sals[1]) / 2.0;
    let unmatched = s
        .execute(&format!(
            "select e.sal, e.dno from emp e where e.sal = {gap}"
        ))
        .unwrap();
    assert_eq!(unmatched.columns, ["sal", "dno"]);
    assert!(unmatched.rows.is_empty());
    assert!(unmatched.io_pages > 0.0);

    for wheres in ["e.sal > 5 and e.sal < 3", &format!("e.sal = {gap}")] {
        let repeated = s
            .execute(&format!(
                "select e.sal, e.dno, e.sal from emp e where {wheres} order by sal limit 3"
            ))
            .unwrap();
        assert_eq!(repeated.columns, ["sal", "dno", "sal"]);
        assert!(repeated.rows.is_empty());
    }
}
