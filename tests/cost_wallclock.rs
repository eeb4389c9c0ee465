//! The default cost model prices the rows the engine touches, so the
//! plan it chooses is the one that runs fastest. These tests pin that
//! choice on the benchmark's shapes (`plan_choice`'s cells and the
//! Figure 4 query on `view_join`'s data, generated as the benchmark
//! generates them) against the paper's IO-only model, which chose plans
//! that ran slower than the traditional one. They look at plans only —
//! no timing — so they are deterministic; EXPERIMENTS.md ("a CPU term
//! in the cost model") has the times.

use aggview::core::{CostModel, Optimized, Plan};
use aggview::sql::Session;
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview::storage::Catalog;

const DEPT_AVG: &str = "create view dept_avg(dno, asal) as \
    select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;";
const DEPT_INFO: &str = "create view dept_info(dno, dname, loc, asal) as \
    select e4.dno, d4.dname, d4.loc, avg(e4.sal) from emp e4, dept d4 \
     where e4.dno = d4.dno group by e4.dno, d4.dname, d4.loc;";

fn ex1(age: i64) -> String {
    format!(
        "{DEPT_AVG} select e1.eno, e1.sal from emp e1, dept_avg b \
          where e1.dno = b.dno and e1.age < {age} and e1.sal > b.asal"
    )
}

fn fig4(age: i64) -> String {
    format!(
        "{DEPT_INFO} select e5.eno, v.dname, v.loc from emp e5, dept_info v \
          where e5.dno = v.dno and e5.age < {age} and e5.sal > v.asal"
    )
}

fn empdept(n_depts: usize, emps_per_dept: usize, young_fraction: f64, seed: u64) -> Catalog {
    gen_empdept(&EmpDeptConfig {
        n_depts,
        emps_per_dept,
        young_fraction,
        low_budget_fraction: 0.3,
        seed,
    })
    .unwrap()
}

/// `plan_choice`'s cell `i` at seed 1: its catalog seed, and the 4-page
/// operator memory of the E1/E3 cells.
fn cell(i: u64, n_depts: usize, rows: usize, young_fraction: f64) -> (Catalog, Option<f64>) {
    let per_dept = (rows / n_depts).max(2);
    (
        empdept(n_depts, per_dept, young_fraction, 31 + i),
        Some(4.0),
    )
}

/// The default configuration's plan for `sql` under `model`.
fn plan(catalog: Catalog, model: CostModel, mem_pages: Option<f64>, sql: &str) -> Optimized {
    let mut session = Session::new(catalog);
    session.model = model;
    if let Some(pages) = mem_pages {
        session.model.io.mem_pages = pages;
    }
    session.plan(sql).unwrap().1
}

fn pulled(opt: &Optimized) -> bool {
    opt.pulled.iter().any(|w| !w.is_empty())
}

/// Does some group-by of `plan` aggregate rows joined to `table`?
fn groups_over(plan: &Plan, table: &str) -> bool {
    fn scans(plan: &Plan, table: &str) -> bool {
        match plan {
            Plan::Scan { table: t, .. } => t == table,
            Plan::Join { left, right, .. } => scans(left, table) || scans(right, table),
            Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => {
                scans(input, table)
            }
            Plan::ExtentScan { .. } => false,
        }
    }
    match plan {
        Plan::GroupBy { input, .. } => scans(input, table) || groups_over(input, table),
        Plan::Join { left, right, .. } => groups_over(left, table) || groups_over(right, table),
        Plan::PartialAggregate { input, .. } => groups_over(input, table),
        Plan::Scan { .. } | Plan::ExtentScan { .. } => false,
    }
}

/// `view_join`'s data (2,000 departments of 10) and its Figure 4 ages:
/// the paper's model pulls `emp e5` up through `dept_info` and the
/// executor groups the join of both `emp`s (0.43–0.79 ms against the
/// push-down plan's 0.19–0.40). The default model groups `emp e4` by
/// department before anything is joined to it.
#[test]
fn figure4_on_view_join_data_groups_before_it_joins() {
    for age in 19..=23 {
        let cat = || empdept(2000, 10, 0.1, 1);
        let paper = plan(cat(), CostModel::paper(), None, &fig4(age));
        let chosen = plan(cat(), CostModel::default(), None, &fig4(age));
        assert!(pulled(&paper), "age < {age}: the paper's model pulls up");
        assert!(
            !pulled(&chosen),
            "age < {age}: pulled emp through dept_info\n{}",
            chosen.plan.explain()
        );
        assert!(
            !groups_over(&chosen.plan, "dept"),
            "age < {age}: grouped after joining dept\n{}",
            chosen.plan.explain()
        );
    }
}

/// benchmark/README.md's finding: on 1,000 departments of 200, `age <
/// 30`, the paper's model pulls `emp` up through the Figure 4 view and
/// the executor aggregates `emp` × `emp` (188 ms against 3.4 ms for the
/// push-down plan). The default model prices those rows and does not.
/// The shape is kept at full size and only planned: scaled down to 20–200
/// employees per department, the paper's model no longer pulls up.
#[test]
fn readme_shape_is_not_pulled_up() {
    let cat = || empdept(1000, 200, 0.1, 1);
    let paper = plan(cat(), CostModel::paper(), None, &fig4(30));
    let chosen = plan(cat(), CostModel::default(), None, &fig4(30));
    assert!(pulled(&paper), "{}", paper.plan.explain());
    assert!(!pulled(&chosen), "{}", chosen.plan.explain());
}

/// `e3_30000_depts_unselective`: half of `emp` is under 22, but the
/// histogram estimates a tenth (DESIGN §8, "Estimates the CPU term
/// inherits"), so every model sees a cheap pull-up. The paper's model
/// groups `emp` × `emp` × `dept` (executor time 3.7 ms); the default
/// model groups `emp` × `emp` and joins `dept` after (Figure 4's shape
/// (d), 2.9 ms, as traditional's 2.9). Push-down only, which groups
/// `emp` alone (2.5 ms), is not chosen: under these estimates it costs
/// more. EXPERIMENTS.md ("a CPU term in the cost model") reports the
/// cell as not met.
#[test]
fn e3_30000_depts_unselective_groups_before_joining_dept() {
    let cat = || cell(6, 30_000, 60_000, 0.5);
    let (paper_cat, mem) = cat();
    let paper = plan(paper_cat, CostModel::paper(), mem, &fig4(22));
    let chosen = plan(cat().0, CostModel::default(), mem, &fig4(22));
    assert!(groups_over(&paper.plan, "dept"), "{}", paper.plan.explain());
    assert!(
        !groups_over(&chosen.plan, "dept"),
        "{}",
        chosen.plan.explain()
    );
}

/// Where pulling up is what runs fastest, the default model still pulls
/// up: few young employees spread over many departments (E1), and
/// Figure 4 over 30,000 departments with a selective age (E3).
#[test]
fn pull_up_still_wins_where_it_runs_fastest() {
    let (cat, mem) = cell(0, 8000, 20_000, 0.002);
    let e1 = plan(cat, CostModel::default(), mem, &ex1(22));
    assert!(
        pulled(&e1),
        "e1_many_depts_0.2pct_young\n{}",
        e1.plan.explain()
    );
    let (cat, mem) = cell(5, 30_000, 60_000, 0.003);
    let e3 = plan(cat, CostModel::default(), mem, &fig4(22));
    assert!(
        pulled(&e3),
        "e3_30000_depts_selective\n{}",
        e3.plan.explain()
    );
}
