//! What a pipeline holds, and what the governor still sees of it.
//!
//! A star roll-up — `lineitem` probing through `orders`, `customer`,
//! `nation` and `region` into a group table — streams its fact table: it
//! holds an index per dimension, the group table and, over a filtered
//! fact scan, one selection bit per fact row; no scan copy and no join
//! output. So `peak_intermediate_bytes` is bounded by the dimensions and
//! does not move when the fact table doubles. The governor, for its
//! part, is still charged every row every operator puts out, kept or
//! not: a budget the streamed rows overrun aborts the statement exactly
//! as it did when they were materialized.

use aggview_common::{AggFunc, AggSpec, CmpOp, Col, Expr, Predicate, RelId, Value, ViewId};
use aggview_core::analyze::dataflow;
use aggview_core::cost::CostModel;
use aggview_core::governor::{ResourceGovernor, ResourceLimits};
use aggview_core::plan::{GroupBySpec, Plan};
use aggview_core::query::QueryEnv;
use aggview_executor::lookup::dir_cells;
use aggview_executor::{Engine, ExecOptions, ResultSet};
use aggview_storage::datagen::{gen_star, StarConfig};
use aggview_storage::Catalog;

const TABLES: [&str; 5] = ["lineitem", "orders", "customer", "nation", "region"];
const DIMENSIONS: [&str; 4] = ["orders", "customer", "nation", "region"];

fn star(lines_per_order: usize) -> Catalog {
    gen_star(&StarConfig {
        customers: 300,
        orders_per_customer: 5,
        lines_per_order,
        nations: 25,
        seed: 3,
    })
    .unwrap()
}

/// `SELECT r.rname, SUM(l.price), COUNT(*) FROM lineitem l, orders o,
/// customer c, nation n, region r WHERE <the four key joins> [AND l.qty
/// < qty] GROUP BY r.rname`, joined left-deep from the fact table.
fn region_lines(qty: Option<i64>) -> Plan {
    let [l, o, c, n, r] = [0, 1, 2, 3, 4].map(RelId);
    let filters = qty.map(|k| Predicate::cmp_const(Col::base(l, 2), CmpOp::Lt, Value::Int(k)));
    let lines = Plan::scan(
        l,
        "lineitem",
        filters.into_iter().collect(),
        vec![Col::base(l, 1), Col::base(l, 3)],
    );
    // Every dimension gives its key and what the next join or the
    // group-by reads.
    let dimensions = [
        (o, "orders", 1, (Col::base(l, 1), Col::base(o, 0))),
        (c, "customer", 1, (Col::base(o, 1), Col::base(c, 0))),
        (n, "nation", 1, (Col::base(c, 1), Col::base(n, 0))),
        (r, "region", 1, (Col::base(n, 1), Col::base(r, 0))),
    ];
    let joined = dimensions
        .into_iter()
        .fold(lines, |prefix, (rel, table, carried, (from, to))| {
            let carried = Col::base(rel, carried);
            let dimension = Plan::scan(rel, table, vec![], vec![to, carried]);
            Plan::join(
                prefix,
                dimension,
                vec![Predicate::eq_cols(from, to)],
                vec![Col::base(l, 3), carried],
            )
        });
    Plan::group_by_all(
        joined,
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(r, 1)],
            aggs: vec![
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(l, 3))),
                AggSpec::count_star(),
            ],
            having: vec![],
        },
    )
}

fn env() -> QueryEnv {
    QueryEnv::new(TABLES.iter().map(|t| t.to_string()).collect())
}

fn run(cat: &Catalog, plan: &Plan, options: ExecOptions) -> ResultSet {
    Engine::new(cat, &env(), CostModel::default())
        .with_options(options)
        .execute(plan)
        .unwrap()
}

fn rows_of(cat: &Catalog, table: &str) -> usize {
    cat.get(table).unwrap().len()
}

#[test]
fn a_star_rollup_holds_its_dimensions_and_not_its_fact_table() {
    let (small, large) = (star(4), star(8));
    assert_eq!(2 * rows_of(&small, "lineitem"), rows_of(&large, "lineitem"));
    for table in DIMENSIONS {
        assert_eq!(
            small.get(table).unwrap().rows(),
            large.get(table).unwrap().rows()
        );
    }
    // Per dimension an index of at most 16 bytes a directory cell (two
    // `u32` links and a hash) — the dimensions themselves are read in
    // place — and five groups of a name, a sum and a count.
    let indexes: usize = DIMENSIONS
        .iter()
        .map(|t| 16 * dir_cells(rows_of(&small, t)))
        .sum();
    let groups = 5 * (16 + 8 + 8);
    for options in [
        ExecOptions::default(),
        ExecOptions {
            batch_rows: 7,
            ..ExecOptions::default()
        },
    ] {
        // Unfiltered, the fact table is read in place: doubling it
        // moves nothing.
        let one = run(&small, &region_lines(None), options);
        let two = run(&large, &region_lines(None), options);
        assert_eq!(one.rows.len(), 5);
        assert!(one.peak_intermediate_bytes > 0);
        assert!(
            one.peak_intermediate_bytes as usize <= indexes + groups,
            "peak {} over the {indexes} + {groups} bytes the dimensions allow",
            one.peak_intermediate_bytes
        );
        assert_eq!(two.peak_intermediate_bytes, one.peak_intermediate_bytes);
        // Filtered, it adds its selection: a bit a row, in 64-bit words.
        let bitmap = |cat: &Catalog| 8 * rows_of(cat, "lineitem").div_ceil(64) as u64;
        let one_filtered = run(&small, &region_lines(Some(25)), options);
        let two_filtered = run(&large, &region_lines(Some(25)), options);
        assert_eq!(
            one_filtered.peak_intermediate_bytes,
            one.peak_intermediate_bytes + bitmap(&small)
        );
        assert_eq!(
            two_filtered.peak_intermediate_bytes,
            one.peak_intermediate_bytes + bitmap(&large)
        );
    }
}

/// The numbers below are the parent commit's (the engine that
/// materialized every operator's output): this file's test ran there
/// unchanged.
#[test]
fn a_row_budget_under_the_fact_table_still_aborts_the_streamed_join() {
    let cat = star(4);
    let plan = region_lines(Some(45));
    let lines = rows_of(&cat, "lineitem") as u64;
    assert_eq!(lines, 6000);
    // The filter keeps most of the fact table, but no floor says so: the
    // plan is admitted on its dimension scans alone and runs.
    let floor = dataflow::analyze_plan(&plan, &cat, Some(env().rel_tables.as_slice()))
        .bounds
        .min_rows;
    assert_eq!(floor, 1830);
    let cap = 3000;
    assert!(floor < cap && cap < lines);
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_rows(cap));
    let err = Engine::new(&cat, &env(), CostModel::default())
        .execute_governed(&plan, &gov, None)
        .unwrap_err();
    assert_eq!(
        err.to_string(),
        "resource-exhausted error: row budget exhausted (3001 > 3000)"
    );
    assert_eq!(gov.rows_used(), cap + 1);
    // With room for every operator's output the same plan charges what
    // it always did.
    let gov = ResourceGovernor::unlimited();
    Engine::new(&cat, &env(), CostModel::default())
        .execute_governed(&plan, &gov, None)
        .unwrap();
    assert_eq!((gov.rows_used(), gov.bytes_used()), (28470, 449708));
}
