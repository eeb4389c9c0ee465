//! Query shapes and catalogs the cost-invariant tests share: the
//! emp/dept grid of the paper's examples and the star-schema shapes of a
//! statement mix of short multi-view queries, each under the optimizer
//! configurations that between them choose every transformation.
//!
//! Integration tests include it as a module, and so does the core
//! library's own test build, for checks that need its internals.

#![allow(dead_code)]

use aggview_common::{AggFunc, AggSpec, CmpOp, Col, Expr, Predicate, RelId, Value, ViewId};
use aggview_core::query::examples::{example1_query, example2_query, example2_wide_query};
use aggview_core::query::{CanonicalQuery, QueryEnv, TopGroup, ViewDef};
use aggview_core::OptimizerConfig;
use aggview_storage::datagen::{gen_empdept, gen_star, EmpDeptConfig, StarConfig};
use aggview_storage::Catalog;

/// Figure 4's query: `emp e5` joined to a view over `emp ⋈ dept`
/// grouped by (dno, dname, loc) — the shape on which invariant grouping
/// moves the view's group-by below its own join.
pub fn figure4_query() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let e5 = env.add_rel("emp");
    let e4 = env.add_rel("emp");
    let d4 = env.add_rel("dept");
    CanonicalQuery {
        env,
        views: vec![ViewDef {
            index: 0,
            rels: vec![e4, d4],
            preds: vec![Predicate::eq_cols(Col::base(e4, 2), Col::base(d4, 0))],
            group_cols: vec![Col::base(e4, 2), Col::base(d4, 1), Col::base(d4, 3)],
            aggs: vec![AggSpec::new(AggFunc::Avg, Expr::col(Col::base(e4, 3)))],
            having: vec![],
        }],
        base_rels: vec![e5],
        preds: vec![
            Predicate::eq_cols(Col::base(e5, 2), Col::base(e4, 2)),
            Predicate::cmp_const(Col::base(e5, 4), CmpOp::Lt, Value::Int(22)),
            Predicate::new(
                Expr::col(Col::base(e5, 3)),
                CmpOp::Gt,
                Expr::col(Col::agg(ViewId::View(0), 0)),
            ),
        ],
        group: None,
        projection: vec![Col::base(e5, 0), Col::base(d4, 1), Col::base(d4, 3)],
    }
}

/// `emp e1 ⋈ emp e2` on dno under a group-by with aggregates on both
/// sides — the shape on which eager partial aggregation fires.
pub fn selfjoin_query() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let e1 = env.add_rel("emp");
    let e2 = env.add_rel("emp");
    CanonicalQuery {
        env,
        views: vec![],
        base_rels: vec![e1, e2],
        preds: vec![Predicate::eq_cols(Col::base(e1, 2), Col::base(e2, 2))],
        group: Some(TopGroup {
            group_cols: vec![Col::base(e1, 2)],
            aggs: vec![
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(e1, 4))),
                AggSpec::new(AggFunc::Min, Expr::col(Col::base(e2, 3))),
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e2, 4))),
            ],
            having: vec![],
        }),
        projection: std::iter::once(Col::base(e1, 2))
            .chain((0..3).map(|i| Col::agg(ViewId::Top, i)))
            .collect(),
    }
}

/// The traditional optimizer, push-down only, pull-up only, and both.
pub fn configs() -> [OptimizerConfig; 4] {
    [
        OptimizerConfig::traditional(),
        OptimizerConfig::push_down_only(),
        OptimizerConfig {
            push_down: false,
            use_eager_agg: false,
            ..Default::default()
        },
        OptimizerConfig {
            use_eager_agg: true,
            ..Default::default()
        },
    ]
}

/// Five emp/dept catalogs, from two rows to skewed fan-outs, each with
/// Examples 1 and 2, Example 2's wide variant, Figure 4's query and the
/// self-join: between them every transformation is chosen somewhere.
pub fn empdept_grid() -> Vec<(Catalog, Vec<CanonicalQuery>)> {
    let shapes = [
        (2, 1, 0.0),
        (2000, 3, 0.01),
        (5, 1200, 0.6),
        (1200, 10, 0.003),
        (200, 50, 0.1),
    ];
    let grid = shapes.map(|(n_depts, emps_per_dept, young_fraction)| {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts,
            emps_per_dept,
            young_fraction,
            low_budget_fraction: 0.3,
            seed: 15,
        })
        .unwrap();
        let queries = vec![
            example1_query(),
            example2_query(),
            example2_wide_query(),
            figure4_query(),
            selfjoin_query(),
        ];
        (cat, queries)
    });
    grid.into()
}

/// `region ⋈ nation ⋈ customer ⋈ orders` joined to a view of revenue per
/// order, one region, early orders.
pub fn view_four_base_query() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let [rg, n, c, o, l] =
        ["region", "nation", "customer", "orders", "lineitem"].map(|t| env.add_rel(t));
    CanonicalQuery {
        env,
        views: vec![ViewDef {
            index: 0,
            rels: vec![l],
            preds: vec![],
            group_cols: vec![Col::base(l, 1)],
            aggs: vec![AggSpec::new(AggFunc::Sum, Expr::col(Col::base(l, 3)))],
            having: vec![],
        }],
        base_rels: vec![rg, n, c, o],
        preds: vec![
            Predicate::eq_cols(Col::base(rg, 0), Col::base(n, 1)),
            Predicate::eq_cols(Col::base(n, 0), Col::base(c, 1)),
            Predicate::eq_cols(Col::base(c, 0), Col::base(o, 1)),
            Predicate::eq_cols(Col::base(o, 0), Col::base(l, 1)),
            Predicate::cmp_const(Col::base(rg, 1), CmpOp::Eq, "asia"),
            Predicate::cmp_const(Col::base(o, 2), CmpOp::Lt, Value::Int(300)),
        ],
        group: None,
        projection: vec![Col::base(c, 2), Col::agg(ViewId::View(0), 0)],
    }
}

/// `nation ⋈ customer ⋈ orders` joined to two views: spend per customer
/// and revenue per order, the second under a threshold.
pub fn two_view_three_base_query() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let [n, c, o1, o, l] =
        ["nation", "customer", "orders", "orders", "lineitem"].map(|t| env.add_rel(t));
    let sum = |c: Col| AggSpec::new(AggFunc::Sum, Expr::col(c));
    CanonicalQuery {
        env,
        views: vec![
            ViewDef {
                index: 0,
                rels: vec![o1],
                preds: vec![],
                group_cols: vec![Col::base(o1, 1)],
                aggs: vec![sum(Col::base(o1, 4)), AggSpec::count_star()],
                having: vec![],
            },
            ViewDef {
                index: 1,
                rels: vec![l],
                preds: vec![],
                group_cols: vec![Col::base(l, 1)],
                aggs: vec![sum(Col::base(l, 3))],
                having: vec![],
            },
        ],
        base_rels: vec![n, c, o],
        preds: vec![
            Predicate::eq_cols(Col::base(n, 0), Col::base(c, 1)),
            Predicate::eq_cols(Col::base(c, 0), Col::base(o1, 1)),
            Predicate::eq_cols(Col::base(c, 0), Col::base(o, 1)),
            Predicate::eq_cols(Col::base(o, 0), Col::base(l, 1)),
            Predicate::cmp_const(Col::base(n, 2), CmpOp::Eq, "nation3"),
            Predicate::cmp_const(Col::agg(ViewId::View(1), 0), CmpOp::Gt, Value::Int(12000)),
        ],
        group: None,
        projection: vec![
            Col::base(c, 2),
            Col::agg(ViewId::View(0), 0),
            Col::agg(ViewId::View(1), 0),
        ],
    }
}

/// A nested subquery flattened to a view: rows of `table` above the
/// average of column `val` over the rows sharing their column `by`,
/// under `filters` on the outer rows.
pub fn flattened_query(
    table: &str,
    (by, val, out): (usize, usize, usize),
    filters: impl Fn(RelId) -> Vec<Predicate>,
) -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let (outer, inner) = (env.add_rel(table), env.add_rel(table));
    let mut preds = filters(outer);
    preds.push(Predicate::eq_cols(
        Col::base(outer, by),
        Col::base(inner, by),
    ));
    preds.push(Predicate::new(
        Expr::col(Col::base(outer, val)),
        CmpOp::Gt,
        Expr::col(Col::agg(ViewId::View(0), 0)),
    ));
    CanonicalQuery {
        env,
        views: vec![ViewDef {
            index: 0,
            rels: vec![inner],
            preds: vec![],
            group_cols: vec![Col::base(inner, by)],
            aggs: vec![AggSpec::new(AggFunc::Avg, Expr::col(Col::base(inner, val)))],
            having: vec![],
        }],
        base_rels: vec![outer],
        preds,
        group: None,
        projection: vec![Col::base(outer, out)],
    }
}

/// `region ⋈ nation ⋈ customer ⋈ orders ⋈ lineitem` grouped by region
/// and segment.
pub fn five_way_group_query() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let [rg, n, c, o, l] =
        ["region", "nation", "customer", "orders", "lineitem"].map(|t| env.add_rel(t));
    CanonicalQuery {
        env,
        views: vec![],
        base_rels: vec![rg, n, c, o, l],
        preds: vec![
            Predicate::eq_cols(Col::base(rg, 0), Col::base(n, 1)),
            Predicate::eq_cols(Col::base(n, 0), Col::base(c, 1)),
            Predicate::eq_cols(Col::base(c, 0), Col::base(o, 1)),
            Predicate::eq_cols(Col::base(o, 0), Col::base(l, 1)),
            Predicate::cmp_const(Col::base(o, 3), CmpOp::Eq, "F"),
            Predicate::cmp_const(Col::base(l, 2), CmpOp::Lt, Value::Int(20)),
        ],
        group: Some(TopGroup {
            group_cols: vec![Col::base(rg, 1), Col::base(c, 3)],
            aggs: vec![
                AggSpec::count_star(),
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(l, 3))),
            ],
            having: vec![],
        }),
        projection: vec![
            Col::base(rg, 1),
            Col::base(c, 3),
            Col::agg(ViewId::Top, 0),
            Col::agg(ViewId::Top, 1),
        ],
    }
}

/// The star-schema shapes over a 40- and a 300-customer star.
pub fn star_grid() -> Vec<(Catalog, Vec<CanonicalQuery>)> {
    let grid = [(40, 1), (300, 2)].map(|(customers, seed)| {
        let cat = gen_star(&StarConfig {
            customers,
            orders_per_customer: 5,
            lines_per_order: 4,
            nations: 25,
            seed,
        })
        .unwrap();
        let queries = vec![
            view_four_base_query(),
            two_view_three_base_query(),
            flattened_query("customer", (1, 4, 2), |c| {
                vec![Predicate::cmp_const(
                    Col::base(c, 1),
                    CmpOp::Eq,
                    Value::Int(4),
                )]
            }),
            flattened_query("orders", (1, 4, 0), |o| {
                vec![
                    Predicate::cmp_const(Col::base(o, 3), CmpOp::Eq, "F"),
                    Predicate::cmp_const(Col::base(o, 2), CmpOp::Lt, Value::Int(400)),
                ]
            }),
            five_way_group_query(),
        ];
        (cat, queries)
    });
    grid.into()
}
