//! Executor edge cases: empty inputs, empty groups, degenerate keys,
//! zero-width projections, concurrent catalog access, and a thread
//! count that is accepted and ignored.

use aggview_common::{
    AggFunc, AggSpec, CmpOp, Col, DataType, Expr, Predicate, RelId, Schema, Value, ViewId,
};
use aggview_core::cost::CostModel;
use aggview_core::plan::{all_cols, GroupBySpec, Plan};
use aggview_core::query::QueryEnv;
use aggview_executor::Engine;
use aggview_storage::{Catalog, Table};
use std::sync::Arc;

fn empty_and_tiny() -> (Catalog, QueryEnv) {
    let cat = Catalog::new();
    cat.add(
        Table::builder(
            "empty",
            Schema::of(&[("a", DataType::Int), ("b", DataType::Float)]),
        )
        .primary_key(&["a"])
        .unwrap()
        .build()
        .unwrap(),
    )
    .unwrap();
    let mut tiny = Table::builder(
        "tiny",
        Schema::of(&[("a", DataType::Int), ("b", DataType::Float)]),
    )
    .primary_key(&["a"])
    .unwrap();
    tiny.push(aggview_common::tuple![1i64, 10.0]).unwrap();
    tiny.push(aggview_common::tuple![2i64, 20.0]).unwrap();
    cat.add(tiny.build().unwrap()).unwrap();
    (cat, QueryEnv::new(vec!["empty".into(), "tiny".into()]))
}

#[test]
fn scan_of_empty_table_charges_nothing_and_yields_nothing() {
    let (cat, env) = empty_and_tiny();
    let engine = Engine::new(&cat, &env, CostModel::default());
    let rs = engine
        .execute(&Plan::scan(
            RelId(0),
            "empty",
            vec![],
            all_cols(RelId(0), 2),
        ))
        .unwrap();
    assert!(rs.rows.is_empty());
    assert_eq!(rs.io_pages, 0.0);
}

#[test]
fn group_by_over_empty_input_yields_no_groups() {
    let (cat, env) = empty_and_tiny();
    let engine = Engine::new(&cat, &env, CostModel::default());
    let plan = Plan::group_by_all(
        Plan::scan(RelId(0), "empty", vec![], all_cols(RelId(0), 2)),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(0), 0)],
            aggs: vec![AggSpec::new(
                AggFunc::Sum,
                Expr::col(Col::base(RelId(0), 1)),
            )],
            having: vec![],
        },
    );
    let rs = engine.execute(&plan).unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn scalar_aggregate_over_nonempty_input_yields_one_row() {
    // Empty grouping-column list: one global group.
    let (cat, env) = empty_and_tiny();
    let engine = Engine::new(&cat, &env, CostModel::default());
    let plan = Plan::group_by_all(
        Plan::scan(RelId(1), "tiny", vec![], all_cols(RelId(1), 2)),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(RelId(1), 1)),
            )],
            having: vec![],
        },
    );
    let rs = engine.execute(&plan).unwrap();
    assert_eq!(rs.rows.len(), 1);
    assert_eq!(rs.rows[0].get(0), &Value::Float(15.0));
}

#[test]
fn join_with_empty_side_is_empty() {
    let (cat, env) = empty_and_tiny();
    let engine = Engine::new(&cat, &env, CostModel::default());
    let plan = Plan::join_all(
        Plan::scan(RelId(0), "empty", vec![], all_cols(RelId(0), 2)),
        Plan::scan(RelId(1), "tiny", vec![], all_cols(RelId(1), 2)),
        vec![Predicate::eq_cols(
            Col::base(RelId(0), 0),
            Col::base(RelId(1), 0),
        )],
    );
    let rs = engine.execute(&plan).unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn filter_eliminating_all_rows_then_aggregate() {
    let (cat, env) = empty_and_tiny();
    let engine = Engine::new(&cat, &env, CostModel::default());
    let plan = Plan::group_by_all(
        Plan::scan(
            RelId(1),
            "tiny",
            vec![Predicate::cmp_const(
                Col::base(RelId(1), 0),
                CmpOp::Gt,
                Value::Int(100),
            )],
            all_cols(RelId(1), 2),
        ),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(1), 0)],
            aggs: vec![AggSpec::count_star()],
            having: vec![],
        },
    );
    let rs = engine.execute(&plan).unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn catalog_is_safely_shared_across_threads() {
    let (cat, _) = empty_and_tiny();
    let cat = Arc::new(cat);
    let handles: Vec<_> = (0..8)
        .map(|i| {
            let cat = Arc::clone(&cat);
            std::thread::spawn(move || {
                let env = QueryEnv::new(vec!["empty".into(), "tiny".into()]);
                let engine = Engine::new(&cat, &env, CostModel::default());
                let plan = Plan::scan(RelId(1), "tiny", vec![], all_cols(RelId(1), 2));
                let rs = engine.execute(&plan).unwrap();
                assert_eq!(rs.rows.len(), 2, "thread {i}");
                rs.rows.len()
            })
        })
        .collect();
    for h in handles {
        assert_eq!(h.join().unwrap(), 2);
    }
}

#[test]
fn optimizer_handles_empty_tables_gracefully() {
    use aggview_core::optimizer::multi_view::optimize;
    use aggview_core::query::{CanonicalQuery, TopGroup};
    use aggview_core::OptimizerConfig;
    let (cat, _) = empty_and_tiny();
    let mut env = QueryEnv::default();
    let e = env.add_rel("empty");
    let t = env.add_rel("tiny");
    let q = CanonicalQuery {
        env,
        views: vec![],
        base_rels: vec![e, t],
        preds: vec![Predicate::eq_cols(Col::base(e, 0), Col::base(t, 0))],
        group: Some(TopGroup {
            group_cols: vec![Col::base(t, 0)],
            aggs: vec![AggSpec::count_star()],
            having: vec![],
        }),
        projection: vec![Col::base(t, 0), Col::agg(ViewId::Top, 0)],
    };
    let opt = optimize(&q, &cat, CostModel::default(), &OptimizerConfig::default()).unwrap();
    let engine = Engine::new(&cat, &q.env, CostModel::default());
    let rs = engine.execute(&opt.plan).unwrap();
    assert!(rs.rows.is_empty());
}

#[test]
fn duplicate_join_values_multiply_correctly() {
    // tiny ⋈ tiny on a constant-equal column produces a full cross of
    // matching keys.
    let cat = Catalog::new();
    let mut b = Table::builder(
        "dups",
        Schema::of(&[("k", DataType::Int), ("v", DataType::Int)]),
    );
    for i in 0..4 {
        b.push(aggview_common::tuple![1i64, i as i64]).unwrap();
    }
    cat.add(b.build().unwrap()).unwrap();
    let env = QueryEnv::new(vec!["dups".into(), "dups".into()]);
    let engine = Engine::new(&cat, &env, CostModel::default());
    let plan = Plan::join_all(
        Plan::scan(RelId(0), "dups", vec![], all_cols(RelId(0), 2)),
        Plan::scan(RelId(1), "dups", vec![], all_cols(RelId(1), 2)),
        vec![Predicate::eq_cols(
            Col::base(RelId(0), 0),
            Col::base(RelId(1), 0),
        )],
    );
    let rs = engine.execute(&plan).unwrap();
    assert_eq!(rs.rows.len(), 16, "4×4 matches on the shared key");
}

fn labels(rows: &[(i64, &str)]) -> Arc<Table> {
    let mut b = Table::builder(
        "labels",
        Schema::of(&[("id", DataType::Int), ("label", DataType::Str)]),
    )
    .primary_key(&["id"])
    .unwrap();
    for &(id, label) in rows {
        b.push(aggview_common::tuple![id, label]).unwrap();
    }
    b.build().unwrap()
}

fn label_counts(filters: Vec<Predicate>) -> Plan {
    Plan::group_by_all(
        Plan::scan(RelId(0), "labels", filters, all_cols(RelId(0), 2)),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![AggSpec::count_star()],
            having: vec![],
        },
    )
}

#[test]
fn string_columns_of_an_empty_table_filter_group_and_join_to_nothing() {
    let cat = Catalog::new();
    cat.add(labels(&[])).unwrap();
    let env = QueryEnv::new(vec!["labels".into(), "labels".into()]);
    let engine = Engine::new(&cat, &env, CostModel::default());
    let is_x = Predicate::cmp_const(Col::base(RelId(0), 1), CmpOp::Eq, Value::str("x"));
    let join = Plan::join_all(
        Plan::scan(RelId(0), "labels", vec![], all_cols(RelId(0), 2)),
        Plan::scan(RelId(1), "labels", vec![], all_cols(RelId(1), 2)),
        vec![Predicate::eq_cols(
            Col::base(RelId(0), 1),
            Col::base(RelId(1), 1),
        )],
    );
    for plan in [label_counts(vec![]), label_counts(vec![is_x]), join] {
        let rs = engine.execute(&plan).unwrap();
        assert!(rs.rows.is_empty());
    }
}

/// DML brings strings the column's dictionary never held; a
/// reader that took the table before the statement keeps scanning its
/// own rows through its own dictionary.
#[test]
fn strings_new_to_the_dictionary_reach_new_scans_but_not_a_held_table() {
    use aggview_core::governor::ResourceGovernor;
    use aggview_executor::{vector, ExecOptions};

    let cat = Catalog::new();
    cat.add(labels(&[(1, "old"), (2, "old"), (3, "older")]))
        .unwrap();
    let env = QueryEnv::new(vec!["labels".into()]);
    let engine = Engine::new(&cat, &env, CostModel::default());
    let run = |plan: &Plan| {
        let mut rows = engine.execute(plan).unwrap().rows;
        rows.sort();
        rows
    };
    let is_new = || {
        vec![Predicate::cmp_const(
            Col::base(RelId(0), 1),
            CmpOp::Eq,
            Value::str("new"),
        )]
    };

    // The engine scans the table `held` points at, through the
    // dictionary `label` has before the DML arrives.
    let held = cat.get("labels").unwrap();
    let before = run(&label_counts(vec![]));
    assert_eq!(
        before,
        [
            aggview_common::tuple!["old", 2i64],
            aggview_common::tuple!["older", 1i64]
        ]
    );
    assert!(run(&label_counts(is_new())).is_empty());

    cat.append_rows("labels", vec![aggview_common::tuple![4i64, "new"]])
        .unwrap();
    cat.update_rows("labels", &[0], vec![aggview_common::tuple![1i64, "new"]])
        .unwrap();
    assert_eq!(
        run(&label_counts(vec![])),
        [
            aggview_common::tuple!["new", 2i64],
            aggview_common::tuple!["old", 1i64],
            aggview_common::tuple!["older", 1i64]
        ]
    );
    assert_eq!(
        run(&label_counts(is_new())),
        [aggview_common::tuple!["new", 2i64]]
    );

    let gov = ResourceGovernor::unlimited();
    let bound = is_new()[0]
        .bind(&|c| match c {
            Col::Base(b) => Some(b.col as usize),
            _ => None,
        })
        .unwrap();
    let opts = ExecOptions {
        batch_rows: 2,
        ..ExecOptions::default()
    };
    let scan = |preds| {
        let rows = vector::scan_table(&opts, &gov, held.clone(), preds, vec![1]).unwrap();
        vector::collect(&opts, &gov, &rows, &[]).unwrap()
    };
    let (all, _) = scan(&[]);
    assert_eq!(
        all.to_tuples(),
        held.rows()
            .iter()
            .map(|r| r.project(&[1]))
            .collect::<Vec<_>>()
    );
    let (hits, flows) = scan(std::slice::from_ref(&bound));
    let bytes = flows[0].bytes;
    assert_eq!((hits.len(), bytes), (0, 0));
}

/// A join's residual predicates are evaluated a column at a time over
/// the candidate pairs of a tile; what fails there fails with the
/// message the row-at-a-time reference gives.
#[test]
fn residual_errors_read_as_the_row_evaluator_puts_them() {
    use aggview_common::BinaryOp;
    use aggview_executor::reference;

    let (cat, _) = empty_and_tiny();
    let env = QueryEnv::new(vec!["tiny".into(), "tiny".into()]);
    let (a0, b0, a1) = (
        Col::base(RelId(0), 0),
        Col::base(RelId(0), 1),
        Col::base(RelId(1), 0),
    );
    let self_join = |residual: Predicate| {
        Plan::join_all(
            Plan::scan(RelId(0), "tiny", vec![], all_cols(RelId(0), 2)),
            Plan::scan(RelId(1), "tiny", vec![], all_cols(RelId(1), 2)),
            vec![Predicate::eq_cols(a0, a1), residual],
        )
    };
    let zero = Expr::col(a1).binary(BinaryOp::Sub, Expr::col(a1));
    let cases = [
        // Float over an Int zero, on every pair.
        (
            self_join(Predicate::new(
                Expr::col(b0).binary(BinaryOp::Div, zero),
                CmpOp::Gt,
                Expr::val(1.0f64),
            )),
            "division by zero",
        ),
        // `2 * i64::MAX` on the one pair of key 2.
        (
            self_join(Predicate::new(
                Expr::col(a0).binary(BinaryOp::Mul, Expr::val(i64::MAX)),
                CmpOp::Ge,
                Expr::col(a1),
            )),
            "integer overflow (2 * 9223372036854775807)",
        ),
    ];
    for (plan, message) in cases {
        let want = reference::evaluate(&plan, &cat).unwrap_err().to_string();
        assert!(want.contains(message), "{want}");
        for batch_rows in [1, 1024] {
            let got = Engine::new(&cat, &env, CostModel::default())
                .with_options(aggview_executor::ExecOptions {
                    batch_rows,
                    ..aggview_executor::ExecOptions::default()
                })
                .execute(&plan)
                .unwrap_err();
            assert_eq!(got.to_string(), want);
        }
    }
}

/// Execution is serial: a thread count is accepted — the benchmark
/// assigns `session.exec.threads` — and changes nothing a run reports,
/// through the engine or through a session.
#[test]
fn a_thread_count_is_accepted_and_changes_nothing() {
    use aggview_core::governor::ResourceGovernor;
    use aggview_core::query::examples::example1_query;
    use aggview_core::OptimizerConfig;
    use aggview_executor::ExecOptions;
    use aggview_sql::Session;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    let catalog = || {
        gen_empdept(&EmpDeptConfig {
            n_depts: 40,
            emps_per_dept: 60,
            young_fraction: 0.3,
            low_budget_fraction: 0.5,
            seed: 5,
        })
        .unwrap()
    };
    let cat = catalog();
    let q = example1_query();
    let model = CostModel::default();
    let plan = aggview_core::optimize(&q, &cat, model, &OptimizerConfig::default())
        .unwrap()
        .plan;
    let engine_run = |threads| {
        let gov = ResourceGovernor::unlimited();
        let rs = Engine::new(&cat, &q.env, model)
            .with_options(ExecOptions {
                threads,
                ..ExecOptions::default()
            })
            .execute_governed(&plan, &gov, None)
            .unwrap();
        let used = (gov.rows_used(), gov.bytes_used());
        (
            rs.rows,
            rs.io_pages.to_bits(),
            rs.breakdown,
            rs.peak_intermediate_bytes,
            used,
        )
    };
    let one = engine_run(1);
    assert!(!one.0.is_empty());
    assert_eq!(engine_run(4), one);

    let sql = "select e.dno, count(*), avg(e.sal) from emp e, dept d \
               where e.dno = d.dno and e.age < 30 group by e.dno";
    let session_run = |threads| {
        let mut s = Session::new(catalog());
        s.exec.threads = threads;
        let r = s.execute(sql).unwrap();
        (r.rows, r.io_pages.to_bits(), r.plan)
    };
    let one = session_run(1);
    assert!(!one.0.is_empty());
    assert_eq!(session_run(4), one);
}
