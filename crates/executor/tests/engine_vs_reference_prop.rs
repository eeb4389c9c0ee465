//! Differential property test: the engine must return the same rows as
//! the naive reference interpreter (`aggview_executor::reference`) on
//! randomized databases and plan shapes. (Accounting is the engine's
//! alone: `pipelines_match_reference_and_account_alike` pins it across
//! tile sizes.)
//!
//! A small, non-divisor `batch_rows` forces tile boundaries to fall
//! mid-input.

use aggview_common::{
    AggFunc, AggRef, AggSpec, CmpOp, Col, DataType, Expr, Predicate, RelId, Schema, Value, ViewId,
};
use aggview_core::cost::CostModel;
use aggview_core::governor::ResourceGovernor;
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

fn options() -> ExecOptions {
    ExecOptions {
        batch_rows: 7,
        ..ExecOptions::default()
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

/// Key families for `k0.id`: dense, negative, sparse, and the two ends
/// of `i64` with zero between them. The group lookup addresses the
/// first two directly and hashes the others.
fn key_value(family: usize, i: i64) -> i64 {
    match family % 4 {
        0 => i,
        1 => i - 40,
        2 => i * 1_000_003 - 9_000_000_000,
        _ => match i % 3 {
            0 => i64::MIN + i,
            1 => i64::MAX - i,
            _ => i - 1,
        },
    }
}

/// `k0(id PK, grp, tag, val, n)`, `k1(id PK, ref -> k0.id, w)` and `h0`,
/// which is `k0` without the key declaration. `grp` and `tag` are
/// functions of `id` that the catalog does not know about. Any table
/// may come out empty.
fn keyed_setup(seed: u64, max_rows: usize, family: usize) -> (Catalog, QueryEnv) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let fields = [
        ("id", DataType::Int),
        ("grp", DataType::Int),
        ("tag", DataType::Str),
        ("val", DataType::Float),
        ("n", DataType::Int),
    ];
    let n0 = next(max_rows + 1);
    let k0_rows: Vec<Vec<Value>> = (0..n0 as i64)
        .map(|i| {
            vec![
                Value::Int(key_value(family, i)),
                Value::Int(key_value(family, i % 5)),
                Value::str(TAGS[(i % 4) as usize]),
                Value::Float(next(400) as f64 * 12.5),
                Value::Int(next(9) as i64 - 4),
            ]
        })
        .collect();
    let cat = Catalog::new();
    let mut k0 = Table::builder("k0", Schema::of(&fields))
        .primary_key(&["id"])
        .unwrap();
    let mut h0 = Table::builder("h0", Schema::of(&fields));
    for row in &k0_rows {
        k0.push(row.clone().into()).unwrap();
        h0.push(row.clone().into()).unwrap();
    }
    cat.add(k0.build().unwrap()).unwrap();
    cat.add(h0.build().unwrap()).unwrap();
    let mut k1 = Table::builder(
        "k1",
        Schema::of(&[
            ("id", DataType::Int),
            ("ref", DataType::Int),
            ("w", DataType::Float),
        ]),
    )
    .primary_key(&["id"])
    .unwrap();
    for i in 0..next(2 * max_rows + 1) {
        // A few references dangle: the join drops them.
        let to = next(n0 + 2) as i64;
        let row = vec![
            Value::Int(i as i64),
            Value::Int(key_value(family, to)),
            Value::Float(next(40) as f64 * 12.5),
        ];
        k1.push(row.into()).unwrap();
    }
    cat.add(k1.build().unwrap()).unwrap();
    (cat, QueryEnv::new(vec!["k0".into(), "k1".into()]))
}

/// Every aggregate function, over Int, Float and string arguments and
/// an expression.
fn every_function(val: Col, n: Col, tag: Col) -> Vec<AggSpec> {
    let arg = |f, c| AggSpec::new(f, Expr::col(c));
    vec![
        AggSpec::count_star(),
        arg(AggFunc::Sum, val),
        arg(AggFunc::Sum, n),
        arg(AggFunc::Min, val),
        arg(AggFunc::Max, tag),
        arg(AggFunc::Avg, n),
        arg(AggFunc::StdDev, val),
        AggSpec::new(
            AggFunc::Sum,
            Expr::col(val).binary(aggview_common::BinaryOp::Mul, Expr::col(n)),
        ),
        arg(AggFunc::Count, tag),
    ]
}

/// Group-bys whose grouping columns hold a key *and* what it
/// determines — so the engine finds groups by a subset of them — and
/// the shapes in which it must not. `keyless` swaps `k0` for `h0`.
fn keyed_plan(shape: usize, cut: i64, keyless: bool) -> Plan {
    let t0 = if keyless { "h0" } else { "k0" };
    let (id0, grp0, tag0, val0, n0) = (
        Col::base(RelId(0), 0),
        Col::base(RelId(0), 1),
        Col::base(RelId(0), 2),
        Col::base(RelId(0), 3),
        Col::base(RelId(0), 4),
    );
    let (id1, ref1, w1) = (
        Col::base(RelId(1), 0),
        Col::base(RelId(1), 1),
        Col::base(RelId(1), 2),
    );
    let scan0 = |filters| Plan::scan(RelId(0), t0, filters, all_cols(RelId(0), 5));
    let scan1 = || Plan::scan(RelId(1), "k1", vec![], all_cols(RelId(1), 3));
    let fk_join =
        |left: Plan| Plan::join_all(left, scan0(vec![]), vec![Predicate::eq_cols(ref1, id0)]);
    let top = |input: Plan, group_cols: Vec<Col>, aggs: Vec<AggSpec>, having: Vec<Predicate>| {
        Plan::group_by_all(
            input,
            GroupBySpec {
                owner: ViewId::Top,
                group_cols,
                aggs,
                having,
            },
        )
    };
    match shape % 8 {
        // The key and two columns it determines, same table; HAVING on
        // a determined column, and only determined columns projected.
        0 => {
            let spec = GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![grp0, id0, tag0],
                aggs: every_function(val0, n0, tag0),
                having: vec![Predicate::cmp_const(tag0, CmpOp::Ge, Value::str("ab"))],
            };
            let mut project = vec![tag0, grp0];
            project.extend(spec.agg_cols());
            Plan::group_by(scan0(vec![]), spec, project)
        }
        // Across an equi-join: k1.ref = k0.id determines all of k0.
        1 => top(
            fk_join(scan1()),
            vec![tag0, ref1, grp0, id0],
            every_function(w1, n0, tag0),
            vec![Predicate::cmp_const(grp0, CmpOp::Ge, Value::Int(cut))],
        ),
        // The pull-up shape: the joined relation's key first, what is
        // carried upward after it.
        2 => top(
            fk_join(scan1()),
            vec![id1, ref1, tag0, val0],
            every_function(w1, n0, tag0),
            vec![],
        ),
        // Through a group-by below: its grouping column determines its
        // aggregates, which the upper one groups on.
        3 => {
            let lower = GroupBySpec {
                owner: ViewId::View(0),
                group_cols: vec![ref1],
                aggs: vec![
                    AggSpec::count_star(),
                    AggSpec::new(AggFunc::Sum, Expr::col(w1)),
                ],
                having: vec![],
            };
            let (cnt, total) = (Col::agg(ViewId::View(0), 0), Col::agg(ViewId::View(0), 1));
            top(
                fk_join(Plan::group_by_all(scan1(), lower)),
                vec![cnt, id0, total, tag0],
                vec![
                    AggSpec::count_star(),
                    AggSpec::new(AggFunc::Max, Expr::col(total)),
                    AggSpec::new(AggFunc::StdDev, Expr::col(val0)),
                    AggSpec::new(AggFunc::Avg, Expr::col(cnt)),
                ],
                vec![],
            )
        }
        // Through a partial aggregate, coalesced: every function once as
        // partial state (pushed) and once scaled by the duplicate factor
        // (kept), several partial rows per final group.
        4 | 5 => {
            let pushed = [
                AggSpec::new(AggFunc::Sum, Expr::col(w1)),
                AggSpec::new(AggFunc::Avg, Expr::col(w1)),
                AggSpec::new(AggFunc::StdDev, Expr::col(w1)),
                AggSpec::new(AggFunc::Min, Expr::col(w1)),
                AggSpec::new(AggFunc::Max, Expr::col(w1)),
                AggSpec::new(AggFunc::Count, Expr::col(w1)),
            ];
            let kept = [
                AggSpec::count_star(),
                AggSpec::new(AggFunc::Sum, Expr::col(n0)),
                AggSpec::new(AggFunc::Sum, Expr::col(val0)),
                AggSpec::new(AggFunc::Avg, Expr::col(val0)),
                AggSpec::new(AggFunc::StdDev, Expr::col(n0)),
                AggSpec::new(AggFunc::Max, Expr::col(tag0)),
            ];
            let aggs: Vec<AggSpec> = pushed.iter().chain(&kept).cloned().collect();
            let partial = Plan::partial_aggregate_all(
                scan1(),
                PartialAggSpec {
                    group_cols: vec![ref1],
                    aggs: pushed
                        .iter()
                        .enumerate()
                        .map(|(i, a)| (AggRef::new(ViewId::Top, i), a.clone()))
                        .collect(),
                    count: Some(AggRef::new(ViewId::Top, aggs.len())),
                },
            );
            // Coarse (grp: partial rows really coalesce) or with the
            // key among the grouping columns (one partial row a group).
            let by = if shape % 8 == 4 {
                vec![grp0]
            } else {
                vec![grp0, ref1, tag0]
            };
            top(fk_join(partial), by, aggs, vec![])
        }
        // One Int grouping column whose values may be negative, sparse
        // or span `i64`; the filter may leave no row at all.
        6 => top(
            scan0(vec![Predicate::cmp_const(n0, CmpOp::Lt, Value::Int(cut))]),
            vec![grp0],
            every_function(val0, n0, tag0),
            vec![],
        ),
        // No grouping column: one group, or none over no rows.
        _ => top(
            scan0(vec![Predicate::cmp_const(n0, CmpOp::Ge, Value::Int(cut))]),
            vec![],
            every_function(val0, n0, tag0),
            vec![],
        ),
    }
}

/// The star of `pipeline_plan`: `f(id, a -> d1.id, b, tag, val)` is the
/// fact table; `d1(id PK, grp, tag, w)` is met 1:N on `f.a`; `d2(k, g,
/// tag, x)` repeats its `k`, so `f.b = d2.k` is N:M; `d3(id, label)` is
/// met on `d1.grp` and on `d2.g`. A few `f.a` dangle. The three `tag`
/// columns draw from different slices of `TAGS` into their own
/// dictionaries. Any table may come out empty.
fn star_setup(seed: u64, max_rows: usize) -> (Catalog, QueryEnv) {
    let mut state = seed.wrapping_mul(0x9e37_79b9_7f4a_7c15) | 1;
    let mut next = move |n: usize| {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        (state % n as u64) as usize
    };
    let cat = Catalog::new();
    let add = |name: &str, fields: &[(&str, DataType)], rows: Vec<Vec<Value>>| {
        let mut t = Table::builder(name, Schema::of(fields));
        for row in rows {
            t.push(row.into()).unwrap();
        }
        cat.add(t.build().unwrap()).unwrap();
    };
    let (int, float, string) = (DataType::Int, DataType::Float, DataType::Str);
    let n1 = next(max_rows / 3 + 1);
    let d1 = (0..n1 as i64).map(|i| {
        vec![
            Value::Int(i),
            Value::Int(next(4) as i64),
            Value::str(TAGS[next(4)]),
            Value::Float(next(40) as f64 * 12.5),
        ]
    });
    let d1 = d1.collect();
    add(
        "d1",
        &[("id", int), ("grp", int), ("tag", string), ("w", float)],
        d1,
    );
    let d2 = (0..next(max_rows / 3 + 1)).map(|_| {
        vec![
            Value::Int(next(5) as i64),
            Value::Int(next(4) as i64),
            Value::str(TAGS[2 + next(5)]),
            Value::Float(next(40) as f64 * 12.5),
        ]
    });
    let d2 = d2.collect();
    add(
        "d2",
        &[("k", int), ("g", int), ("tag", string), ("x", float)],
        d2,
    );
    let n3 = [0, 2, 4, 4, 4][next(5)];
    let d3 = (0..n3).map(|i| vec![Value::Int(i), Value::str(format!("label-{i}"))]);
    let d3 = d3.collect();
    add("d3", &[("id", int), ("label", string)], d3);
    let f = (0..next(max_rows + 1) as i64).map(|i| {
        vec![
            Value::Int(i),
            Value::Int(next(n1 + 2) as i64),
            Value::Int(next(6) as i64),
            Value::str(TAGS[1 + next(5)]),
            Value::Float(next(400) as f64 * 12.5),
        ]
    });
    let f = f.collect();
    add(
        "f",
        &[
            ("id", int),
            ("a", int),
            ("b", int),
            ("tag", string),
            ("val", float),
        ],
        f,
    );
    let env = QueryEnv::new(vec!["f".into(), "d1".into(), "d2".into(), "d3".into()]);
    (cat, env)
}

/// A join tree over the star — left-deep, right-deep or bushy, its scans
/// filtered or not, with or without a residual predicate — under a
/// group-by with HAVING, or under a partial aggregate that a join above
/// coalesces. `with` switches the optional parts on bit by bit.
fn pipeline_plan(shape: usize, with: usize, cut: i64) -> Plan {
    let (f, d1, d2, d3) = (RelId(0), RelId(1), RelId(2), RelId(3));
    let on = |bit: usize| with >> bit & 1 == 1;
    let filtered = |bit: usize, col: Col, op| match on(bit) {
        true => vec![Predicate::cmp_const(col, op, Value::Int(cut))],
        false => vec![],
    };
    let scan_f = Plan::scan(
        f,
        "f",
        filtered(0, Col::base(f, 2), CmpOp::Lt),
        all_cols(f, 5),
    );
    let scan_d1 = Plan::scan(
        d1,
        "d1",
        filtered(1, Col::base(d1, 1), CmpOp::Lt),
        all_cols(d1, 4),
    );
    let scan_d2 = Plan::scan(d2, "d2", vec![], all_cols(d2, 4));
    let scan_d3 = Plan::scan(d3, "d3", vec![], all_cols(d3, 2));
    let eq = |a: Col, b: Col| Predicate::eq_cols(a, b);
    let f_d1 = {
        let mut preds = vec![eq(Col::base(f, 1), Col::base(d1, 0))];
        if on(2) {
            // A residual the engine evaluates a column at a time.
            preds.push(Predicate::new(
                Expr::col(Col::base(f, 4)).binary(aggview_common::BinaryOp::Add, Expr::val(1i64)),
                CmpOp::Gt,
                Expr::col(Col::base(d1, 3))
                    .binary(aggview_common::BinaryOp::Mul, Expr::val(2.0f64)),
            ));
        }
        preds
    };
    let f_d2 = vec![eq(Col::base(f, 2), Col::base(d2, 0))];
    let d1_d3 = vec![eq(Col::base(d1, 1), Col::base(d3, 0))];
    let d2_d3 = vec![eq(Col::base(d2, 1), Col::base(d3, 0))];
    let f_tag = vec![eq(Col::base(f, 3), Col::base(d2, 2))];
    let (val, x, tag1, label) = (
        Col::base(f, 4),
        Col::base(d2, 3),
        Col::base(d1, 2),
        Col::base(d3, 1),
    );
    let having = vec![Predicate::new(
        Expr::col(Col::agg(ViewId::Top, 0)),
        CmpOp::Ge,
        Expr::val(Value::Int(cut.rem_euclid(3))),
    )];
    let top = |input: Plan, group_cols: Vec<Col>, extra: AggSpec| {
        Plan::group_by_all(
            input,
            GroupBySpec {
                owner: ViewId::Top,
                group_cols,
                aggs: vec![
                    AggSpec::count_star(),
                    AggSpec::new(AggFunc::Sum, Expr::col(val)),
                    extra,
                ],
                having: having.clone(),
            },
        )
    };
    match shape % 6 {
        // Left-deep, 1:N twice.
        0 => top(
            Plan::join_all(Plan::join_all(scan_f, scan_d1, f_d1), scan_d3, d1_d3),
            vec![label, tag1],
            AggSpec::new(AggFunc::Max, Expr::col(Col::base(f, 3))),
        ),
        // Left-deep, N:M then 1:N.
        1 => top(
            Plan::join_all(Plan::join_all(scan_f, scan_d2, f_d2), scan_d1, f_d1),
            vec![tag1],
            AggSpec::new(AggFunc::Avg, Expr::col(x)),
        ),
        // Bushy: both inputs of the top join are joins.
        2 => top(
            Plan::join_all(
                Plan::join_all(scan_f, scan_d1, f_d1),
                Plan::join_all(scan_d2, scan_d3, d2_d3),
                f_d2,
            ),
            vec![label, tag1],
            AggSpec::new(AggFunc::StdDev, Expr::col(x)),
        ),
        // Right-deep: every join's right input is the join below.
        3 => top(
            Plan::join_all(scan_d3, Plan::join_all(scan_d1, scan_f, f_d1), d1_d3),
            vec![label],
            AggSpec::new(AggFunc::Min, Expr::col(tag1)),
        ),
        // A string key that meets another dictionary, then 1:N.
        4 => top(
            Plan::join_all(Plan::join_all(scan_f, scan_d2, f_tag), scan_d1, f_d1),
            vec![Col::base(d2, 2), Col::base(d1, 1)],
            AggSpec::new(AggFunc::Max, Expr::col(x)),
        ),
        // A partial aggregate over a streamed N:M join, coalesced above
        // the 1:N join; the pushed SUM and the duplicate factor scale
        // COUNT(*) and AVG(d1.w).
        _ => {
            let pushed = AggSpec::new(AggFunc::Sum, Expr::col(val));
            let aggs = vec![
                AggSpec::count_star(),
                pushed.clone(),
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(d1, 3))),
            ];
            let partial = Plan::partial_aggregate_all(
                Plan::join_all(scan_f, scan_d2, f_d2),
                PartialAggSpec {
                    group_cols: vec![Col::base(f, 1)],
                    aggs: vec![(AggRef::new(ViewId::Top, 1), pushed)],
                    count: Some(AggRef::new(ViewId::Top, aggs.len())),
                },
            );
            Plan::group_by_all(
                Plan::join_all(
                    partial,
                    scan_d1,
                    vec![eq(Col::base(f, 1), Col::base(d1, 0))],
                ),
                GroupBySpec {
                    owner: ViewId::Top,
                    group_cols: vec![tag1],
                    aggs,
                    having,
                },
            )
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Joins under a group-by or a partial aggregate run as pipelines:
    /// whatever the tile size cuts them into, the rows are the
    /// reference's, and every tile size charges the same pages to the
    /// same operators and the same rows and bytes to the governor.
    #[test]
    fn pipelines_match_reference_and_account_alike(
        seed in 0u64..5000,
        rows in 0usize..120,
        shape in 0usize..6,
        with in 0usize..8,
        cut in 1i64..6,
    ) {
        let (cat, env) = star_setup(seed, rows);
        let plan = pipeline_plan(shape, with, cut);
        let expect = reference::evaluate(&plan, &cat).unwrap();
        let mut first = None;
        for batch_rows in [1usize, 7, 1024] {
            let gov = ResourceGovernor::unlimited();
            let got = Engine::new(&cat, &env, CostModel::default())
                .with_options(ExecOptions { batch_rows, ..ExecOptions::default() })
                .execute_governed(&plan, &gov, None)
                .unwrap();
            if let Err(e) = assert_equivalent(&expect, &got) {
                prop_assert!(false, "shape {} with {:03b}, {} rows a tile: {}",
                    shape % 6, with, batch_rows, e);
            }
            let pages: Vec<(String, u64)> =
                got.breakdown.iter().map(|b| (b.op.clone(), b.pages.to_bits())).collect();
            let account = (got.io_pages.to_bits(), pages, gov.rows_used(), gov.bytes_used());
            let first = first.get_or_insert_with(|| account.clone());
            prop_assert_eq!(&*first, &account, "shape {} with {:03b}, {} rows a tile",
                shape % 6, with, batch_rows);
        }
    }

    /// Group-bys that are found by a determinant of their grouping
    /// columns, on keys of every family, keyed and keyless, possibly
    /// over no rows: the same groups with the same carried columns and
    /// the same aggregates as the reference.
    #[test]
    fn engine_matches_reference_on_determined_grouping_columns(
        seed in 0u64..5000,
        rows in 0usize..90,
        shape in 0usize..8,
        family in 0usize..4,
        cut in -5i64..6,
        keyless in 0usize..3,
    ) {
        let keyless = keyless == 0;
        let (cat, mut env) = keyed_setup(seed, rows, family);
        if keyless {
            env = QueryEnv::new(vec!["h0".into(), "k1".into()]);
        }
        let plan = keyed_plan(shape, cut, keyless);
        let expect = reference::evaluate(&plan, &cat).unwrap();
        let got = Engine::new(&cat, &env, CostModel::default())
            .with_options(options())
            .execute(&plan)
            .unwrap();
        if let Err(e) = assert_equivalent(&expect, &got) {
            prop_assert!(false, "shape {} family {} keyless {}: {}",
                shape % 8, family % 4, keyless, e);
        }
    }

    /// A global aggregate — no grouping column, so no lookup column — is
    /// one group made from the first row, whichever tile brings it, and
    /// no group over no rows: SUM, COUNT, AVG, MIN and MAX over one
    /// table or above a join give the reference's answer at every tile
    /// size.
    #[test]
    fn global_aggregates_match_reference_at_every_tile_size(
        seed in 0u64..5000,
        rows in 0usize..90,
        family in 0usize..4,
        cut in -5i64..6,
        joined in 0usize..2,
    ) {
        let (cat, env) = keyed_setup(seed, rows, family);
        let (id0, tag0, val0, n0) = (
            Col::base(RelId(0), 0),
            Col::base(RelId(0), 2),
            Col::base(RelId(0), 3),
            Col::base(RelId(0), 4),
        );
        let filter = vec![Predicate::cmp_const(n0, CmpOp::Ge, Value::Int(cut))];
        let scan0 = Plan::scan(RelId(0), "k0", filter, all_cols(RelId(0), 5));
        let input = match joined {
            0 => scan0,
            _ => Plan::join_all(
                Plan::scan(RelId(1), "k1", vec![], all_cols(RelId(1), 3)),
                scan0,
                vec![Predicate::eq_cols(Col::base(RelId(1), 1), id0)],
            ),
        };
        let arg = |f, c| AggSpec::new(f, Expr::col(c));
        let plan = Plan::group_by_all(
            input,
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![],
                aggs: vec![
                    AggSpec::count_star(),
                    arg(AggFunc::Count, tag0),
                    arg(AggFunc::Sum, val0),
                    arg(AggFunc::Sum, n0),
                    arg(AggFunc::Avg, n0),
                    arg(AggFunc::Avg, val0),
                    arg(AggFunc::Min, val0),
                    arg(AggFunc::Min, n0),
                    arg(AggFunc::Max, tag0),
                    arg(AggFunc::Max, n0),
                ],
                having: vec![],
            },
        );
        let expect = reference::evaluate(&plan, &cat).unwrap();
        for batch_rows in [1usize, 7, 1024] {
            let got = Engine::new(&cat, &env, CostModel::default())
                .with_options(ExecOptions { batch_rows, ..ExecOptions::default() })
                .execute(&plan)
                .unwrap();
            prop_assert!(got.rows.len() <= 1, "{} groups", got.rows.len());
            if let Err(e) = assert_equivalent(&expect, &got) {
                prop_assert!(false, "joined {} at {} rows a tile: {}", joined, batch_rows, e);
            }
        }
    }

    /// The engine agrees with the reference interpreter, as a multiset
    /// up to canonical float rounding (the
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
        let got = Engine::new(&cat, &env, CostModel::default())
            .with_options(options())
            .execute(&plan)
            .unwrap();
        if let Err(e) = assert_equivalent(&expect, &got) {
            prop_assert!(false, "shape {}: {}", shape % 6, e);
        }
    }

    /// One-column equi-joins of a table with itself: the two sides read
    /// one stored column, so string keys share a dictionary and — like
    /// Int keys of a narrow range — address the build side directly;
    /// sparse and `i64`-spanning keys stay hashed. Same rows either way.
    #[test]
    fn engine_matches_reference_on_self_joins(
        seed in 0u64..5000,
        rows in 0usize..70,
        on in 0usize..3,
        family in 0usize..4,
        cut in -5i64..6,
    ) {
        let (cat, _) = keyed_setup(seed, rows, family);
        let env = QueryEnv::new(vec!["k0".into(), "k0".into()]);
        let side = |rel: u32, filters| Plan::scan(RelId(rel), "k0", filters, all_cols(RelId(rel), 5));
        let key = [2usize, 0, 1][on];
        let plan = Plan::join_all(
            side(0, vec![Predicate::cmp_const(Col::base(RelId(0), 4), CmpOp::Lt, Value::Int(cut))]),
            side(1, vec![]),
            vec![
                Predicate::eq_cols(Col::base(RelId(0), key), Col::base(RelId(1), key)),
                Predicate::new(
                    Expr::col(Col::base(RelId(0), 3)),
                    CmpOp::Le,
                    Expr::col(Col::base(RelId(1), 3)),
                ),
            ],
        );
        let expect = reference::evaluate(&plan, &cat).unwrap();
        let got = Engine::new(&cat, &env, CostModel::default())
            .with_options(options())
            .execute(&plan)
            .unwrap();
        if let Err(e) = assert_equivalent(&expect, &got) {
            prop_assert!(false, "on column {} family {}: {}", key, family % 4, e);
        }
    }

    /// The same agreement where the filters, join keys and group keys
    /// are strings: tiles cut string columns mid-input, the join crosses
    /// two dictionaries.
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
        let got = Engine::new(&cat, &env, CostModel::default())
            .with_options(options())
            .execute(&plan)
            .unwrap();
        if let Err(e) = assert_equivalent(&expect, &got) {
            prop_assert!(false, "shape {}: {}", shape % 7, e);
        }
    }
}
