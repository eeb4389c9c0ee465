//! Integration tests for the plan-dataflow subsystem:
//!
//! 1. **contradictions** — a SQL query with contradictory predicates
//!    is answered at the executor's gate without touching storage
//!    (zero IO pages, zero governed rows), and the analyzer names the
//!    contradiction;
//! 2. **static admission control** — a plan whose guaranteed row/byte
//!    floor exceeds the budget is rejected *before* execution with a
//!    structured `plan-inadmissible` error and no work performed;
//! 3. **soundness property** — over randomized databases and the
//!    optimizer corpus, every concrete
//!    output value lies inside its predicted domain and every measured
//!    resource counter meets its static lower bound;
//! 4. **type certification** — corpus plans, two-phase ones included,
//!    type cleanly, and every value they put out has its column's
//!    certified type;
//! 5. **carried bounds** — between two recomputations of a table's
//!    statistics, the `min`/`max` the scan domains seed from still hold
//!    every value: a deleted extreme leaves them wide, an inserted value
//!    beyond them widens them, and SELECTs filtered at the old and new
//!    extremes answer what the reference interpreter does.

use aggview::common::fault::{FaultInjector, SeededFaultInjector};
use aggview::common::{AggFunc, AggSpec, CmpOp, Col, Expr, Predicate, Value, ViewId};
use aggview::core::analyze::dataflow;
use aggview::core::cost::ops::IoParams;
use aggview::core::plan::all_cols;
use aggview::core::query::examples::{emp, example1_query, example2_query, example2_wide_query};
use aggview::core::query::{CanonicalQuery, QueryEnv, TopGroup};
use aggview::core::{optimize, CostModel, OptimizerConfig, Plan, ResourceGovernor, ResourceLimits};
use aggview::executor::{reference, Engine};
use aggview::sql::Session;
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview::storage::Catalog;
use proptest::prelude::*;

fn catalog() -> Catalog {
    gen_empdept(&EmpDeptConfig::default()).unwrap()
}

/// An unfiltered scan of `emp` inside a fresh single-relation
/// environment, plus that environment.
fn emp_scan_env() -> (Plan, QueryEnv) {
    let mut env = QueryEnv::default();
    let e = env.add_rel("emp");
    (Plan::scan(e, "emp", vec![], all_cols(e, 5)), env)
}

#[test]
fn contradictory_sql_query_is_answered_at_the_gate() {
    let mut session = Session::new(catalog());
    let sql = "select eno from emp where sal > 5 and sal < 3;";
    let r = session.execute(sql).unwrap();
    assert!(r.rows.is_empty(), "contradictory predicates admit no rows");
    assert_eq!(r.io_pages, 0.0, "a provably-empty plan reads no pages");
    // The plan keeps its filters; the analyzer names the contradiction
    // and where it arose.
    let report = session.verify(sql).unwrap();
    let df001: Vec<String> = report
        .rows
        .iter()
        .filter(|row| *row.get(0) == Value::str("DF001"))
        .map(|row| row.get(3).to_string())
        .collect();
    assert_eq!(df001.len(), 1, "{:?}", report.rows);
    assert!(df001[0].contains("provably empty"), "{df001:?}");
    // `r0.c3` is `emp.sal`.
    assert!(df001[0].contains("r0.c3"), "{df001:?}");
}

/// INT arithmetic that may leave `i64` bounds nothing at the gate: the
/// executor raises an error on such a plan, so the gate must never
/// answer it empty. A plain contradiction is still answered there.
#[test]
fn the_gate_never_answers_a_plan_whose_execution_fails() {
    let mut session = Session::new(catalog());
    for sql in [
        "select count(*) from emp where age * 9223372036854775807 < 0",
        "select count(*) from emp where age * 9223372036854775807 > 0",
        "select count(*) from emp where age > 9223372036854775807 + 1",
        "select count(*) from emp where age < 9223372036854775807 + 1",
    ] {
        match session.execute(sql) {
            Err(e) => assert!(e.message().contains("integer overflow"), "{sql}: {e}"),
            Ok(r) => panic!("{sql}: answered {:?} at {} pages", r.rows, r.io_pages),
        }
    }
    let r = session
        .execute("select eno from emp where sal > 5 and sal < 3")
        .unwrap();
    assert!(r.rows.is_empty());
    assert_eq!(r.io_pages, 0.0);
}

/// `select * from emp where sal > 5 and sal < 3`, unpruned, alone and
/// under a join with `dept`.
fn contradictory_plans() -> (Vec<Plan>, QueryEnv) {
    let mut env = QueryEnv::default();
    let e = env.add_rel("emp");
    let d = env.add_rel("dept");
    let contradictory = Plan::scan(
        e,
        "emp",
        vec![
            Predicate::cmp_const(Col::base(e, emp::SAL), CmpOp::Gt, Value::Float(5.0)),
            Predicate::cmp_const(Col::base(e, emp::SAL), CmpOp::Lt, Value::Float(3.0)),
        ],
        all_cols(e, 5),
    );
    let joined = Plan::join_all(
        contradictory.clone(),
        Plan::scan(d, "dept", vec![], all_cols(d, 4)),
        vec![Predicate::eq_cols(Col::base(e, emp::DNO), Col::base(d, 0))],
    );
    (vec![contradictory, joined], env)
}

#[test]
fn provably_empty_plan_runs_no_operator_and_charges_nothing() {
    let cat = catalog();
    let (plans, env) = contradictory_plans();
    let engine = Engine::new(&cat, &env, CostModel::default());
    // A fault at every scan and operator site: none may be reached.
    let always = SeededFaultInjector::new(7, 1000);
    for plan in &plans {
        for faults in [None, Some(&always as &dyn FaultInjector)] {
            let gov = ResourceGovernor::unlimited();
            let rs = engine.execute_governed(plan, &gov, faults).unwrap();
            assert!(rs.rows.is_empty(), "{}", plan.explain());
            assert_eq!(rs.cols, plan.output_cols());
            assert_eq!(rs.io_pages, 0.0);
            assert!(rs.breakdown.is_empty(), "{:?}", rs.breakdown);
            assert_eq!(rs.peak_intermediate_bytes, 0);
            assert_eq!(gov.rows_used(), 0, "no tuples may be charged");
            assert_eq!(gov.bytes_used(), 0, "no bytes may be charged");
        }
    }
    assert_eq!(always.calls(), 0, "no fault site was consulted");
}

#[test]
fn over_budget_plan_is_rejected_before_any_work() {
    let cat = catalog();
    let (scan, env) = emp_scan_env();
    let engine = Engine::new(&cat, &env, CostModel::default());

    // The static row floor of an unfiltered scan is the table's row
    // count; a cap of 3 is provably unreachable, so the engine must
    // reject up front instead of scanning and aborting mid-run.
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_rows(3));
    let err = engine.execute_governed(&scan, &gov, None).unwrap_err();
    assert_eq!(err.kind(), "plan-inadmissible");
    assert!(
        !err.is_retryable(),
        "an inadmissible plan never succeeds on retry"
    );
    assert_eq!(gov.rows_used(), 0, "rejection must precede execution");
    assert_eq!(gov.bytes_used(), 0, "rejection must precede execution");

    // The byte floor triggers the same gate.
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_bytes(8));
    let err = engine.execute_governed(&scan, &gov, None).unwrap_err();
    assert_eq!(err.kind(), "plan-inadmissible");
    assert_eq!(gov.bytes_used(), 0);

    // A budget at the floor itself is admissible: the gate only rejects
    // caps the floor *exceeds*.
    let floor = dataflow::analyze_plan(&scan, &cat, Some(env.rel_tables.as_slice()))
        .bounds
        .min_rows;
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_rows(floor));
    engine
        .execute_governed(&scan, &gov, None)
        .expect("a cap equal to the floor must be admitted");
}

/// The eager self-join: `AVG(e1.age)` is pushed below the join with a
/// duplicate factor, the merge above coalesces it.
fn eager_selfjoin_query() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let e1 = env.add_rel("emp");
    let e2 = env.add_rel("emp");
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
            aggs: vec![
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(e1, emp::AGE))),
                AggSpec::new(AggFunc::Min, Expr::col(Col::base(e2, emp::SAL))),
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e2, emp::AGE))),
            ],
            having: vec![],
        }),
        projection: vec![
            Col::base(e1, emp::DNO),
            Col::agg(ViewId::Top, 0),
            Col::agg(ViewId::Top, 1),
            Col::agg(ViewId::Top, 2),
        ],
    }
}

/// Every corpus plan types cleanly, and every value it puts out at run
/// time has the static type the pass gave its column.
#[test]
fn certified_corpus_executes_with_the_types_it_certifies() {
    let cat = catalog();
    let big = gen_empdept(&EmpDeptConfig {
        n_depts: 200,
        emps_per_dept: 100,
        young_fraction: 0.3,
        low_budget_fraction: 0.3,
        seed: 12,
    })
    .unwrap();
    let small_memory = CostModel {
        io: IoParams {
            mem_pages: 64.0,
            ..Default::default()
        },
        ..Default::default()
    };
    let mut corpus = Vec::new();
    for q in [example1_query(), example2_query(), example2_wide_query()] {
        for cfg in [OptimizerConfig::traditional(), OptimizerConfig::default()] {
            corpus.push((&cat, q.clone(), CostModel::default(), cfg));
        }
    }
    corpus.push((
        &big,
        eager_selfjoin_query(),
        small_memory,
        OptimizerConfig::default(),
    ));
    let mut saw_partial = false;
    for (cat, q, model, cfg) in corpus {
        let opt = optimize(&q, cat, model, &cfg).unwrap();
        saw_partial |= opt.plan.explain().contains("PartialAggregate");
        let df = dataflow::analyze_plan(&opt.plan, cat, Some(q.env.rel_tables.as_slice()));
        assert!(
            df.findings.iter().all(|v| v.rule != dataflow::RULE_SCHEMA),
            "corpus plan failed type certification:\n{}",
            opt.plan.explain()
        );
        let engine = Engine::new(cat, &q.env, model);
        let rs = engine.execute(&opt.plan).unwrap();
        assert!(!rs.rows.is_empty());
        for (k, c) in rs.cols.iter().enumerate() {
            let certified = df.columns[c].ty;
            assert!(
                rs.rows
                    .iter()
                    .all(|r| Some(r.get(k).data_type()) == certified),
                "column {c} is not all {certified:?} at run time:\n{}",
                opt.plan.explain()
            );
        }
    }
    assert!(saw_partial, "the corpus must hold a two-phase plan");
}

/// Run `sql` through the session: it returns what the reference
/// interpreter does over the same plan, `n` rows, and the gate (which
/// reads no page) answers it only if that is none.
fn answers(s: &mut Session, sql: &str, n: usize) {
    let got = s.execute(sql).unwrap();
    let (bound, opt) = s.plan(sql).unwrap();
    let oracle = reference::evaluate(&opt.plan, s.catalog()).unwrap();
    let projection = &bound.query.projection;
    let at: Vec<usize> = projection
        .iter()
        .map(|c| oracle.col_index(*c).unwrap())
        .collect();
    let mut want: Vec<_> = oracle.rows.iter().map(|r| r.project(&at)).collect();
    let gated = got.io_pages == 0.0;
    let mut rows = got.rows;
    rows.sort();
    want.sort();
    assert_eq!(rows, want, "{sql}");
    assert_eq!(rows.len(), n, "{sql}");
    assert!(
        !gated || rows.is_empty(),
        "{sql}: answered empty at the gate"
    );
}

#[test]
fn carried_bounds_stay_sound_between_recomputations() {
    // 5,000 `emp` rows: a tenth is 500, far more than this test changes,
    // so every statistic below is carried, none computed again.
    let mut s = Session::new(catalog());
    let sal = |s: &Session| {
        let t = s.catalog().get("emp").unwrap();
        (
            t.stats().columns[emp::SAL].min.unwrap(),
            t.stats().columns[emp::SAL].max.unwrap(),
        )
    };
    let (lo, hi) = sal(&s);
    let at_max = format!("select eno from emp where sal >= {hi:?}");
    let top = s.execute(&at_max).unwrap().rows.len();
    assert!((1..100).contains(&top), "{top} rows hold the maximum");
    answers(&mut s, &at_max, top);

    // The rows holding the maximum go: the carried bound stays wide.
    s.execute(&format!("delete from emp where sal >= {hi:?}"))
        .unwrap();
    assert_eq!(sal(&s), (lo, hi), "no recomputation yet");
    answers(&mut s, &at_max, 0);
    answers(
        &mut s,
        &format!("select eno from emp where sal > {hi:?}"),
        0,
    );
    // Then values beyond both old ends arrive.
    let (above, below) = (hi + 250.0, lo - 250.0);
    s.execute(&format!(
        "insert into emp values (900001, 'high', 1, {above:?}, 70), (900002, 'low', 2, {below:?}, 17)"
    ))
    .unwrap();
    assert_eq!(sal(&s), (below, above));

    let queries = [
        (at_max, 1),
        (format!("select eno from emp where sal > {hi:?}"), 1),
        (format!("select eno from emp where sal >= {above:?}"), 1),
        (format!("select eno from emp where sal > {above:?}"), 0),
        (format!("select eno from emp where sal < {lo:?}"), 1),
        (
            format!("select eno from emp where sal <= {below:?} and age < 18"),
            1,
        ),
        (format!("select eno from emp where sal < {below:?}"), 0),
        (
            format!("select eno from emp where sal > {hi:?} and sal < {above:?}"),
            0,
        ),
    ];
    for (sql, n) in queries {
        answers(&mut s, &sql, n);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// The pass is sound: executed results never escape the predicted
    /// per-column domains, and the measured row/byte/peak counters are
    /// never below the guaranteed floors — over randomized databases
    /// and the full example corpus.
    #[test]
    fn predicted_domains_and_bounds_are_sound(
        n_depts in 2usize..30,
        emps_per_dept in 1usize..25,
        young_pct in 0u32..100,
        seed in 0u64..10_000,
        which in 0usize..3,
    ) {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts,
            emps_per_dept,
            young_fraction: young_pct as f64 / 100.0,
            low_budget_fraction: 0.4,
            seed,
        })
        .unwrap();
        let q = match which {
            0 => example1_query(),
            1 => example2_query(),
            _ => example2_wide_query(),
        };
        let opt = optimize(&q, &cat, CostModel::default(), &OptimizerConfig::default()).unwrap();
        let df = dataflow::analyze_plan(&opt.plan, &cat, Some(q.env.rel_tables.as_slice()));

        let engine = Engine::new(&cat, &q.env, CostModel::default());
        let gov = ResourceGovernor::unlimited();
        let rs = engine.execute_governed(&opt.plan, &gov, None).unwrap();

        // Every concrete output value satisfies its column's domain.
        for (k, col) in rs.cols.iter().enumerate() {
            if let Some(dom) = df.columns.get(col) {
                for row in &rs.rows {
                    prop_assert!(
                        dom.admits(row.get(k)),
                        "value {} of column {col} escapes its domain {dom:?}",
                        row.get(k)
                    );
                }
            }
        }

        // Measured usage meets every static lower bound (an
        // unlimited governor still counts exactly).
        prop_assert!(
            gov.rows_used() >= df.bounds.min_rows,
            "row floor {} exceeds measured {}",
            df.bounds.min_rows,
            gov.rows_used()
        );
        prop_assert!(
            gov.bytes_used() >= df.bounds.min_bytes,
            "byte floor {} exceeds measured {}",
            df.bounds.min_bytes,
            gov.bytes_used()
        );
    }
}
