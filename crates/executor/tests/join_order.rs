//! The hash join's output-order contract, checked row by row against
//! `reference::evaluate` (nested loops, `for left { for right }`) — not
//! as a multiset: a join emits its probe rows in input order and, per
//! probe row, the matching build rows in ascending build-row order,
//! whatever the hash function, the directory layout or the tile size.
//! The engine builds on the smaller input, so with the larger table on
//! the left the emitted order *is* the reference's.

use aggview_common::{CmpOp, Col, DataType, Expr, Predicate, RelId, Schema, Tuple, Value};
use aggview_core::cost::CostModel;
use aggview_core::plan::Plan;
use aggview_core::query::QueryEnv;
use aggview_executor::{reference, Engine, ExecOptions, ResultSet};
use aggview_storage::{Catalog, Table};

const BIG: usize = 40;
const SMALL: usize = 15;

/// `big(k INT, f FLOAT, n INT)` and `small(k INT, g INT, m INT)`: `n`
/// and `m` number the rows; every `small.k` repeats three times, so
/// build chains are longer than one.
fn catalog() -> Catalog {
    let cat = Catalog::new();
    let mut big = Table::builder(
        "big",
        Schema::of(&[
            ("k", DataType::Int),
            ("f", DataType::Float),
            ("n", DataType::Int),
        ]),
    );
    for i in 0..BIG as i64 {
        big.push(Tuple::new(vec![
            Value::Int(i % 6),
            Value::Float((i % 4) as f64),
            Value::Int(i),
        ]))
        .unwrap();
    }
    let mut small = Table::builder(
        "small",
        Schema::of(&[
            ("k", DataType::Int),
            ("g", DataType::Int),
            ("m", DataType::Int),
        ]),
    );
    for i in 0..SMALL as i64 {
        small
            .push(Tuple::new(vec![
                Value::Int(i % 5),
                Value::Int(i % 4),
                Value::Int(i),
            ]))
            .unwrap();
    }
    cat.add(big.build().unwrap()).unwrap();
    cat.add(small.build().unwrap()).unwrap();
    cat
}

const B: RelId = RelId(0);
const S: RelId = RelId(1);

fn col(rel: RelId, c: usize) -> Col {
    Col::base(rel, c)
}

fn scan(rel: RelId, filters: Vec<Predicate>) -> Plan {
    let table = if rel == B { "big" } else { "small" };
    Plan::scan(rel, table, filters, (0..3).map(|c| col(rel, c)).collect())
}

/// `big ⋈ small` on `preds`, projecting the two row numbers and a key.
fn join(big_filters: Vec<Predicate>, small_filters: Vec<Predicate>, preds: Vec<Predicate>) -> Plan {
    Plan::join(
        scan(B, big_filters),
        scan(S, small_filters),
        preds,
        vec![col(B, 2), col(S, 2), col(S, 0)],
    )
}

fn none(rel: RelId) -> Vec<Predicate> {
    vec![Predicate::cmp_const(col(rel, 2), CmpOp::Lt, Value::Int(0))]
}

/// Run with seven-row tiles: several tiles per input.
fn run(plan: &Plan, cat: &Catalog) -> ResultSet {
    let env = QueryEnv::new(vec!["big".into(), "small".into()]);
    Engine::new(cat, &env, CostModel::default())
        .with_options(ExecOptions {
            batch_rows: 7,
            ..ExecOptions::default()
        })
        .execute(plan)
        .unwrap()
}

/// The engine's rows equal the reference's *in order*.
fn emitted_in_reference_order(plan: &Plan, cat: &Catalog) -> Vec<Tuple> {
    let expect = reference::evaluate(plan, cat).unwrap();
    let got = run(plan, cat);
    assert_eq!(got.cols, expect.cols);
    assert_eq!(got.rows, expect.rows);
    got.rows
}

fn int(t: &Tuple, i: usize) -> i64 {
    t.get(i).as_i64().unwrap()
}

#[test]
fn duplicate_build_keys_come_out_in_build_row_order() {
    let cat = catalog();
    let rows = emitted_in_reference_order(
        &join(
            vec![],
            vec![],
            vec![Predicate::eq_cols(col(B, 0), col(S, 0))],
        ),
        &cat,
    );
    // 40 probe rows, keys 0..=4 match three build rows each, key 5 none.
    assert_eq!(rows.len(), 3 * (0..BIG).filter(|i| i % 6 < 5).count());
    // Said directly: probe rows in input order, and within one probe
    // row the build rows ascend.
    for w in rows.windows(2) {
        let (n0, n1) = (int(&w[0], 0), int(&w[1], 0));
        assert!(n0 < n1 || (n0 == n1 && int(&w[0], 1) < int(&w[1], 1)));
    }
}

#[test]
fn int_and_float_keys_meet() {
    let cat = catalog();
    // big.f FLOAT = small.g INT: equal numbers hash and compare equal.
    let rows = emitted_in_reference_order(
        &join(
            vec![],
            vec![],
            vec![Predicate::eq_cols(col(B, 1), col(S, 1))],
        ),
        &cat,
    );
    assert!(!rows.is_empty());
}

#[test]
fn two_column_keys() {
    let cat = catalog();
    let rows = emitted_in_reference_order(
        &join(
            vec![],
            vec![],
            vec![
                Predicate::eq_cols(col(B, 0), col(S, 0)),
                Predicate::eq_cols(col(S, 1), col(B, 1)),
            ],
        ),
        &cat,
    );
    assert!(!rows.is_empty());
}

#[test]
fn a_residual_rejects_part_of_a_chain() {
    let cat = catalog();
    let keyed = vec![Predicate::eq_cols(col(B, 0), col(S, 0))];
    let all = emitted_in_reference_order(&join(vec![], vec![], keyed.clone()), &cat);
    let mut preds = keyed;
    preds.push(Predicate::new(
        Expr::col(col(B, 2)),
        CmpOp::Gt,
        Expr::col(col(S, 2)),
    ));
    let some = emitted_in_reference_order(&join(vec![], vec![], preds), &cat);
    // Probe row n = 7 (key 1) keeps build rows 1 and 6 of its chain
    // {1, 6, 11}, in that order.
    let of_seven: Vec<i64> = some
        .iter()
        .filter(|t| int(t, 0) == 7)
        .map(|t| int(t, 1))
        .collect();
    assert_eq!(of_seven, [1, 6]);
    assert!(some.len() < all.len());
}

#[test]
fn empty_build_and_empty_probe() {
    let cat = catalog();
    let keyed = || vec![Predicate::eq_cols(col(B, 0), col(S, 0))];
    // An empty side is the smaller one, hence the build side; with both
    // empty the probe side is empty too.
    for (big_filters, small_filters) in [(vec![], none(S)), (none(B), vec![]), (none(B), none(S))] {
        let rows = emitted_in_reference_order(&join(big_filters, small_filters, keyed()), &cat);
        assert!(rows.is_empty());
    }
}

#[test]
fn a_smaller_left_input_is_the_build_side() {
    let cat = catalog();
    let preds = vec![Predicate::eq_cols(col(B, 0), col(S, 0))];
    let project = vec![col(B, 2), col(S, 2)];
    let small_left = Plan::join(
        scan(S, vec![]),
        scan(B, vec![]),
        preds.clone(),
        project.clone(),
    );
    let big_left = Plan::join(scan(B, vec![]), scan(S, vec![]), preds, project);
    // The probe side drives the order either way: the mirrored plan is
    // the same join, emitted identically.
    let mirrored = emitted_in_reference_order(&big_left, &cat);
    assert_eq!(run(&small_left, &cat).rows, mirrored);
}
