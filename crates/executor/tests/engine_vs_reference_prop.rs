//! Differential property test: the engine must return the same rows as
//! the naive reference interpreter (`aggview_executor::reference`) on
//! randomized databases and plan shapes, serial and multi-threaded.
//! (Accounting is the engine's alone; `parallel_exec.rs` pins it across
//! thread counts.)
//!
//! A small, non-divisor `batch_rows` and a zero parallel threshold force
//! chunk and tile boundaries to fall mid-input so stitching is exercised.

use aggview_common::{AggFunc, AggRef, AggSpec, CmpOp, Col, Expr, Predicate, RelId, Value, ViewId};
use aggview_core::cost::CostModel;
use aggview_core::plan::{all_cols, GroupBySpec, PartialAggSpec, Plan};
use aggview_core::query::QueryEnv;
use aggview_executor::{assert_equivalent, reference, Engine, ExecOptions};
use aggview_storage::datagen::{gen_random_catalog, RandomCatalogConfig};
use aggview_storage::Catalog;
use proptest::prelude::*;

fn setup(seed: u64, max_rows: usize) -> (Catalog, QueryEnv) {
    let cat = gen_random_catalog(&RandomCatalogConfig {
        n_tables: 2,
        rows: (1, max_rows),
        join_domain: (1, 30),
        seed,
        ..Default::default()
    })
    .unwrap();
    (cat, QueryEnv::new(vec!["t0".into(), "t1".into()]))
}

fn options(threads: usize) -> ExecOptions {
    ExecOptions {
        threads,
        parallel_threshold: 1,
        batch_rows: 7,
    }
}

/// A randomized select-project-join(-group-by) plan. `shape` picks the
/// operator mix, `cut` parameterizes the filter/having constants.
fn random_plan(shape: usize, cut: i64) -> Plan {
    let scan0 =
        |filters: Vec<Predicate>| Plan::scan(RelId(0), "t0", filters, all_cols(RelId(0), 4));
    let scan1 = Plan::scan(RelId(1), "t1", vec![], all_cols(RelId(1), 4));
    let eq = Predicate::eq_cols(Col::base(RelId(0), 1), Col::base(RelId(1), 1));
    let theta = Predicate::new(
        Expr::col(Col::base(RelId(0), 2)),
        CmpOp::Gt,
        Expr::col(Col::base(RelId(1), 2)),
    );
    let sum0 = AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(0), 3)));
    match shape % 6 {
        // Filtered scan, mixing Int and Float constants over Int data.
        0 => scan0(vec![
            Predicate::cmp_const(Col::base(RelId(0), 1), CmpOp::Lt, Value::Int(cut)),
            Predicate::cmp_const(
                Col::base(RelId(0), 2),
                CmpOp::Ge,
                Value::Float(cut as f64 / 2.0),
            ),
        ]),
        // Hash join with a residual theta predicate.
        1 => Plan::join_all(scan0(vec![]), scan1, vec![eq, theta]),
        // Pure theta join: the nested-loop kernel.
        2 => Plan::join_all(scan0(vec![]), scan1, vec![theta]),
        // Group-by over a join, with HAVING.
        3 => Plan::group_by_all(
            Plan::join_all(scan0(vec![]), scan1, vec![eq]),
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![Col::base(RelId(0), 1)],
                aggs: vec![
                    AggSpec::count_star(),
                    AggSpec::new(AggFunc::Avg, Expr::col(Col::base(RelId(0), 3))),
                ],
                having: vec![Predicate::new(
                    Expr::col(Col::agg(ViewId::Top, 0)),
                    CmpOp::Ge,
                    Expr::val(Value::Int(cut.rem_euclid(8))),
                )],
            },
        ),
        // Simple coalescing: every aggregate decomposed below the join.
        4 => Plan::group_by_all(
            Plan::join_all(
                Plan::partial_aggregate_all(
                    scan0(vec![]),
                    PartialAggSpec {
                        group_cols: vec![Col::base(RelId(0), 1)],
                        aggs: vec![(AggRef::new(ViewId::Top, 0), sum0.clone())],
                        count: None,
                    },
                ),
                scan1,
                vec![eq],
            ),
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![Col::base(RelId(0), 1)],
                aggs: vec![sum0],
                having: vec![],
            },
        ),
        // Eager aggregation: SUM(t0.val) pushed with a duplicate factor
        // that scales the COUNT(*) and SUM(t1.val) kept at the merge.
        _ => {
            let aggs = vec![
                sum0.clone(),
                AggSpec::count_star(),
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(1), 3))),
            ];
            Plan::group_by_all(
                Plan::join_all(
                    Plan::partial_aggregate_all(
                        scan0(vec![]),
                        PartialAggSpec {
                            group_cols: vec![Col::base(RelId(0), 1)],
                            aggs: vec![(AggRef::new(ViewId::Top, 0), sum0)],
                            count: Some(AggRef::new(ViewId::Top, aggs.len())),
                        },
                    ),
                    scan1,
                    vec![eq],
                ),
                GroupBySpec {
                    owner: ViewId::Top,
                    group_cols: vec![Col::base(RelId(0), 1)],
                    aggs,
                    having: vec![],
                },
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// The engine agrees with the reference interpreter at 1 and 4
    /// threads, as a multiset up to canonical float rounding (the
    /// reference emits groups in key order and sums in input order).
    #[test]
    fn engine_matches_reference(
        seed in 0u64..5000,
        rows in 1usize..250,
        shape in 0usize..6,
        cut in -5i64..35,
    ) {
        let (cat, env) = setup(seed, rows);
        let plan = random_plan(shape, cut);
        let expect = reference::evaluate(&plan, &cat).unwrap();
        for threads in [1usize, 4] {
            let got = Engine::new(&cat, &env, CostModel::default())
                .with_options(options(threads))
                .execute(&plan)
                .unwrap();
            if let Err(e) = assert_equivalent(&expect, &got) {
                prop_assert!(false, "shape {} at {} threads: {}", shape % 6, threads, e);
            }
        }
    }
}
