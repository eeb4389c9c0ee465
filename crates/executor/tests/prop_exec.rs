//! Property tests for executor correctness: the coalescing (partial →
//! merge) path must match direct aggregation, HAVING must match a
//! post-filter, and scan filters must be exact, on randomized databases.

use aggview_common::{AggFunc, AggRef, AggSpec, Col, Expr, Predicate, RelId, ViewId};
use aggview_core::cost::CostModel;
use aggview_core::plan::{all_cols, GroupBySpec, PartialAggSpec, Plan};
use aggview_core::query::QueryEnv;
use aggview_executor::{assert_equivalent, Engine};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Partial aggregation below the join + coalescing above equals the
    /// direct group-by, for every decomposable aggregate.
    #[test]
    fn coalescing_equals_direct(seed in 0u64..5000, rows in 1usize..200, fidx in 0usize..5) {
        let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
        let func = funcs[fidx];
        let (cat, env) = setup(seed, rows);
        let engine = Engine::new(&cat, &env, CostModel::default());
        let agg = AggSpec::new(func, Expr::col(Col::base(RelId(0), 3)));
        let jp = Predicate::eq_cols(Col::base(RelId(0), 1), Col::base(RelId(1), 1));
        let gspec = GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![agg.clone()],
            having: vec![],
        };

        let direct = Plan::group_by_all(
            Plan::join_all(
                Plan::scan(RelId(0), "t0", vec![], all_cols(RelId(0), 4)),
                Plan::scan(RelId(1), "t1", vec![], all_cols(RelId(1), 4)),
                vec![jp.clone()],
            ),
            gspec.clone(),
        );

        let aref = AggRef::new(ViewId::Top, 0);
        let partial = Plan::partial_aggregate_all(
            Plan::scan(RelId(0), "t0", vec![], all_cols(RelId(0), 4)),
            PartialAggSpec {
                group_cols: vec![Col::base(RelId(0), 1)],
                aggs: vec![(aref, agg)],
                count: None,
            },
        );
        let coalesced = Plan::group_by_all(
            Plan::join_all(
                partial,
                Plan::scan(RelId(1), "t1", vec![], all_cols(RelId(1), 4)),
                vec![jp],
            ),
            gspec,
        );

        let a = engine.execute(&direct).unwrap();
        let b = engine.execute(&coalesced).unwrap();
        prop_assert!(
            assert_equivalent(&a, &b).is_ok(),
            "{func} coalescing diverges"
        );
    }

    /// Scan filters match brute-force filtering.
    #[test]
    fn scan_filters_are_exact(seed in 0u64..5000, cut in -5i64..35) {
        let (cat, env) = setup(seed, 150);
        let engine = Engine::new(&cat, &env, CostModel::default());
        let plan = Plan::scan(
            RelId(0),
            "t0",
            vec![Predicate::cmp_const(
                Col::base(RelId(0), 1),
                aggview_common::CmpOp::Lt,
                aggview_common::Value::Int(cut),
            )],
            all_cols(RelId(0), 4),
        );
        let rs = engine.execute(&plan).unwrap();
        let expect = cat
            .get("t0")
            .unwrap()
            .rows()
            .iter()
            .filter(|r| r.get(1).as_i64().unwrap() < cut)
            .count();
        prop_assert_eq!(rs.rows.len(), expect);
    }

    /// HAVING is equivalent to filtering the grouped output.
    #[test]
    fn having_equals_post_filter(seed in 0u64..5000, threshold in 0i64..40) {
        let (cat, env) = setup(seed, 150);
        let engine = Engine::new(&cat, &env, CostModel::default());
        let mk = |having: Vec<Predicate>| {
            Plan::group_by_all(
                Plan::scan(RelId(0), "t0", vec![], all_cols(RelId(0), 4)),
                GroupBySpec {
                    owner: ViewId::Top,
                    group_cols: vec![Col::base(RelId(0), 1)],
                    aggs: vec![AggSpec::count_star()],
                    having,
                },
            )
        };
        let unfiltered = engine.execute(&mk(vec![])).unwrap();
        let havinged = engine
            .execute(&mk(vec![Predicate::new(
                Expr::col(Col::agg(ViewId::Top, 0)),
                aggview_common::CmpOp::Ge,
                Expr::val(aggview_common::Value::Int(threshold)),
            )]))
            .unwrap();
        let cnt_idx = unfiltered.col_index(Col::agg(ViewId::Top, 0)).unwrap();
        let expect = unfiltered
            .rows
            .iter()
            .filter(|r| r.get(cnt_idx).as_i64().unwrap() >= threshold)
            .count();
        prop_assert_eq!(havinged.rows.len(), expect);
    }
}
