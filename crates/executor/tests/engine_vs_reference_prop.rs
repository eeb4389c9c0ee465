//! Differential property test: the engine must return the same rows as
//! the naive reference interpreter (`aggview_executor::reference`) on
//! randomized databases and plan shapes, serial and multi-threaded.
//! (Accounting is the engine's alone; `parallel_exec.rs` pins it across
//! thread counts.)
//!
//! A small, non-divisor `batch_rows` and a zero parallel threshold force
//! chunk and tile boundaries to fall mid-input so stitching is exercised.

use aggview_common::{
    AggFunc, AggRef, AggSpec, CmpOp, Col, DataType, Expr, Predicate, RelId, Schema, Value, ViewId,
};
use aggview_core::cost::CostModel;
use aggview_core::plan::{all_cols, GroupBySpec, PartialAggSpec, Plan};
use aggview_core::query::QueryEnv;
use aggview_executor::{assert_equivalent, reference, Engine, ExecOptions};
use aggview_storage::datagen::{gen_random_catalog, RandomCatalogConfig};
use aggview_storage::{Catalog, Table};
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

/// Strings both tables draw `tag` from: the empty string, one-chunk and
/// multi-chunk strings, a shared prefix. `s1` takes its tags from the
/// pool's tail, so the two dictionaries overlap without coinciding.
const TAGS: [&str; 7] = [
    "",
    "a",
    "ab",
    "open",
    "returned",
    "longer than eight bytes",
    "zz",
];

/// Comparison constants: present in every dictionary, in none, and
/// below / between / above every entry.
const CONSTS: [&str; 7] = ["", "a", "aa", "open", "p", "zz", "zzz"];

/// `s0(id, tag, name, grp, val)` and `s1(id, tag, kind, w)`: `tag` and
/// `kind` are low-cardinality strings, `name` is distinct on every row.
/// Either table may come out empty.
fn string_setup(seed: u64, max_rows: usize) -> (Catalog, QueryEnv) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let cat = Catalog::new();
    let mut s0 = Table::builder(
        "s0",
        Schema::of(&[
            ("id", DataType::Int),
            ("tag", DataType::Str),
            ("name", DataType::Str),
            ("grp", DataType::Int),
            ("val", DataType::Float),
        ]),
    );
    for i in 0..next(max_rows + 1) {
        let row = vec![
            Value::Int(i as i64),
            Value::str(TAGS[next(TAGS.len())]),
            Value::str(format!("name-{i}")),
            Value::Int(next(3) as i64),
            Value::Float(next(400) as f64 * 12.5),
        ];
        s0.push(row.into()).unwrap();
    }
    cat.add(s0.build().unwrap()).unwrap();
    let mut s1 = Table::builder(
        "s1",
        Schema::of(&[
            ("id", DataType::Int),
            ("tag", DataType::Str),
            ("kind", DataType::Str),
            ("w", DataType::Float),
        ]),
    );
    for i in 0..next(max_rows / 4 + 1) {
        let row = vec![
            Value::Int(i as i64),
            Value::str(TAGS[2 + next(TAGS.len() - 2)]),
            Value::str(["x", "y", ""][next(3)]),
            Value::Float(next(40) as f64 * 12.5),
        ];
        s1.push(row.into()).unwrap();
    }
    cat.add(s1.build().unwrap()).unwrap();
    (cat, QueryEnv::new(vec!["s0".into(), "s1".into()]))
}

/// Plans whose filters, join keys, group keys and aggregate arguments
/// are strings. `pick` selects the comparison constant and operator.
fn string_plan(shape: usize, pick: usize) -> Plan {
    let (tag0, name0, grp0, val0) = (
        Col::base(RelId(0), 1),
        Col::base(RelId(0), 2),
        Col::base(RelId(0), 3),
        Col::base(RelId(0), 4),
    );
    let (tag1, kind1) = (Col::base(RelId(1), 1), Col::base(RelId(1), 2));
    let constant = Value::str(CONSTS[pick % CONSTS.len()]);
    let op = [CmpOp::Eq, CmpOp::Lt, CmpOp::Ge, CmpOp::Ne][(pick / CONSTS.len()) % 4];
    let scan0 = |filters| Plan::scan(RelId(0), "s0", filters, all_cols(RelId(0), 5));
    let scan1 = || Plan::scan(RelId(1), "s1", vec![], all_cols(RelId(1), 4));
    let grouped = |input: Plan, group_cols: Vec<Col>, having: Vec<Predicate>| {
        Plan::group_by_all(
            input,
            GroupBySpec {
                owner: ViewId::Top,
                group_cols,
                aggs: vec![
                    AggSpec::count_star(),
                    AggSpec::new(AggFunc::Sum, Expr::col(val0)),
                    AggSpec::new(AggFunc::Max, Expr::col(name0)),
                ],
                having,
            },
        )
    };
    let tag_join = || Plan::join_all(scan0(vec![]), scan1(), vec![Predicate::eq_cols(tag0, tag1)]);
    match shape % 7 {
        // String filter, column on either side of the operator.
        0 => scan0(vec![Predicate::cmp_const(tag0, op, constant)]),
        1 => scan0(vec![
            Predicate::new(Expr::val(constant), op, Expr::col(tag0)),
            Predicate::cmp_const(name0, CmpOp::Ge, Value::str("name-3")),
        ]),
        // One string key (the flat code path), HAVING on the key itself.
        2 => grouped(
            scan0(vec![]),
            vec![tag0],
            vec![Predicate::cmp_const(tag0, op, constant)],
        ),
        // String + int key, and an all-distinct string key.
        3 => grouped(scan0(vec![]), vec![tag0, grp0], vec![]),
        4 => grouped(scan0(vec![]), vec![name0], vec![]),
        // String equi-join across two dictionaries.
        5 => tag_join(),
        // Two string keys, one from each side of that join.
        _ => grouped(tag_join(), vec![kind1, tag0], vec![]),
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

    /// The same agreement where the filters, join keys and group keys
    /// are strings: chunk stitching and table merging cross worker
    /// boundaries at 4 threads, the join crosses two dictionaries.
    #[test]
    fn engine_matches_reference_on_string_keys(
        seed in 0u64..5000,
        rows in 0usize..120,
        shape in 0usize..7,
        pick in 0usize..28,
    ) {
        let (cat, env) = string_setup(seed, rows);
        let plan = string_plan(shape, pick);
        let expect = reference::evaluate(&plan, &cat).unwrap();
        for threads in [1usize, 4] {
            let got = Engine::new(&cat, &env, CostModel::default())
                .with_options(options(threads))
                .execute(&plan)
                .unwrap();
            prop_assert_eq!(got.mixed_demotions, 0);
            if let Err(e) = assert_equivalent(&expect, &got) {
                prop_assert!(false, "shape {} at {} threads: {}", shape % 7, threads, e);
            }
        }
    }
}
