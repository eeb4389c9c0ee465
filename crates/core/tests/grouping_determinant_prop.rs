//! `grouping_determinant` must never change a partition: grouping the
//! rows a plan produces by the subset it returns and by all the grouping
//! columns puts the same rows together. Checked on `datagen::random`
//! catalogs over every dependency source — primary keys, equalities of
//! joins and filters, a group-by below — and on the shapes that must
//! *not* yield one: a table without a key, an equality of `Float`s.
//!
//! The rows come from a evaluator local to this file (nested loops and a
//! `BTreeMap`), so nothing here trusts the dependency reasoning it
//! tests.

use aggview_common::{AggSpec, CmpOp, Col, Expr, Predicate, RelId, Tuple, Value, ViewId};
use aggview_core::plan::{all_cols, GroupBySpec, Plan};
use aggview_core::transform::grouping_determinant;
use aggview_storage::datagen::{gen_random_catalog, RandomCatalogConfig};
use aggview_storage::{Catalog, Table};
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};

/// `t0`, `t1` (`id` is the primary key; `j1`, `j2` repeat) and `heap`:
/// `t1`'s rows without the key declaration.
fn setup(seed: u64, max_rows: usize) -> Catalog {
    let cat = gen_random_catalog(&RandomCatalogConfig {
        n_tables: 2,
        rows: (1, max_rows),
        join_domain: (1, 6),
        extra_cols: 1,
        seed,
    })
    .unwrap();
    let t1 = cat.get("t1").unwrap();
    let mut heap = Table::builder("heap", t1.schema().clone());
    for r in t1.rows() {
        heap.push(r.clone()).unwrap();
    }
    cat.add(heap.build().unwrap()).unwrap();
    cat
}

const ARITY: usize = 5; // id, j1, j2, val, x0

fn select(cols: &[Col], rows: Vec<Tuple>, preds: &[Predicate]) -> Vec<Tuple> {
    let bound: Vec<_> = preds
        .iter()
        .map(|p| p.bind(&|c| cols.iter().position(|x| *x == c)).unwrap())
        .collect();
    rows.into_iter()
        .filter(|r| bound.iter().all(|p| p.eval(r).unwrap()))
        .collect()
}

fn project(cols: &[Col], rows: &[Tuple], onto: &[Col]) -> Vec<Tuple> {
    let at: Vec<usize> = onto
        .iter()
        .map(|c| cols.iter().position(|x| x == c).unwrap())
        .collect();
    rows.iter().map(|r| r.project(&at)).collect()
}

/// The rows `plan` produces (scans, inner joins, COUNT(*) group-bys).
fn rows_of(plan: &Plan, cat: &Catalog) -> Vec<Tuple> {
    match plan {
        Plan::Scan {
            rel,
            table,
            filters,
            project: onto,
        } => {
            let t = cat.get(table).unwrap();
            let cols: Vec<Col> = (0..t.schema().len()).map(|c| Col::base(*rel, c)).collect();
            project(&cols, &select(&cols, t.rows(), filters), onto)
        }
        Plan::Join {
            left,
            right,
            preds,
            project: onto,
            ..
        } => {
            let mut cols = left.output_cols().to_vec();
            cols.extend_from_slice(right.output_cols());
            let (l, r) = (rows_of(left, cat), rows_of(right, cat));
            let pairs = l
                .iter()
                .flat_map(|l| r.iter().map(move |r| l.concat(r)))
                .collect();
            project(&cols, &select(&cols, pairs, preds), onto)
        }
        Plan::GroupBy {
            input,
            spec,
            project: onto,
            ..
        } => {
            assert_eq!(spec.aggs, [AggSpec::count_star()]);
            let keys = project(input.output_cols(), &rows_of(input, cat), &spec.group_cols);
            let mut counts: BTreeMap<Tuple, i64> = BTreeMap::new();
            for k in keys {
                *counts.entry(k).or_default() += 1;
            }
            let mut cols = spec.group_cols.clone();
            cols.extend(spec.agg_cols());
            let rows: Vec<Tuple> = counts
                .into_iter()
                .map(|(k, n)| k.concat(&Tuple::new(vec![Value::Int(n)])))
                .collect();
            project(&cols, &rows, onto)
        }
        other => panic!("not generated here: {other:?}"),
    }
}

fn scan(rel: u32, table: &str, filters: Vec<Predicate>) -> Plan {
    Plan::scan(RelId(rel), table, filters, all_cols(RelId(rel), ARITY))
}

fn col(rel: u32, c: usize) -> Col {
    Col::base(RelId(rel), c)
}

/// The plan shapes, and for each whether `t0.id` alone must come back
/// when every output column is grouped on (`None`: no such claim).
fn shape(which: usize) -> (Plan, Option<Vec<Col>>) {
    let eq = |a, b| Predicate::eq_cols(a, b);
    let counted = |input: Plan, by: Vec<Col>| {
        Plan::group_by_all(
            input,
            GroupBySpec {
                owner: ViewId::View(0),
                group_cols: by,
                aggs: vec![AggSpec::count_star()],
                having: vec![],
            },
        )
    };
    match which % 8 {
        // One table: its key determines it.
        0 => (scan(0, "t0", vec![]), Some(vec![col(0, 0)])),
        // Key join: t0.id -> t0.j1 = t1.id -> all of t1.
        1 => (
            Plan::join_all(
                scan(0, "t0", vec![]),
                scan(1, "t1", vec![]),
                vec![eq(col(0, 1), col(1, 0))],
            ),
            Some(vec![col(0, 0)]),
        ),
        // Many-to-many join: both keys are needed.
        2 => (
            Plan::join_all(
                scan(0, "t0", vec![]),
                scan(1, "t1", vec![]),
                vec![eq(col(0, 1), col(1, 1))],
            ),
            Some(vec![col(0, 0), col(1, 0)]),
        ),
        // No declared key: only the equality's own two columns depend.
        3 => (
            Plan::join_all(
                scan(0, "t0", vec![]),
                scan(1, "heap", vec![]),
                vec![eq(col(0, 1), col(1, 0))],
            ),
            None,
        ),
        // A filter equating two columns of one table.
        4 => (scan(1, "heap", vec![eq(col(1, 1), col(1, 2))]), None),
        // A group-by below: its grouping column determines its count,
        // and through the join the other side's j1.
        5 => (
            Plan::join_all(
                counted(scan(0, "t0", vec![]), vec![col(0, 1)]),
                scan(1, "t1", vec![]),
                vec![eq(col(0, 1), col(1, 1))],
            ),
            Some(vec![col(1, 0)]),
        ),
        // Float = Float proves nothing (a Float column may hold Ints).
        6 => (
            Plan::join_all(
                scan(0, "heap", vec![]),
                scan(1, "heap", vec![]),
                vec![eq(col(0, 3), col(1, 3))],
            ),
            None,
        ),
        // A theta join and a selective filter: keys still hold.
        _ => (
            Plan::join_all(
                scan(
                    0,
                    "t0",
                    vec![Predicate::cmp_const(col(0, 1), CmpOp::Lt, Value::Int(3))],
                ),
                scan(1, "t1", vec![]),
                vec![Predicate::new(
                    Expr::col(col(0, 2)),
                    CmpOp::Le,
                    Expr::col(col(1, 2)),
                )],
            ),
            Some(vec![col(0, 0), col(1, 0)]),
        ),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn determinant_partitions_like_all_columns(
        seed in 0u64..10_000,
        rows in 1usize..40,
        which in 0usize..8,
        mask in 1u32..1024,
    ) {
        let cat = setup(seed, rows);
        let (plan, _) = shape(which);
        let out = plan.output_cols().to_vec();
        // A random non-empty list of output columns, in a rotated order.
        let mut group_cols: Vec<Col> = out
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << (i % 10)) != 0)
            .map(|(_, c)| *c)
            .collect();
        let turn = (seed as usize) % group_cols.len().max(1);
        group_cols.rotate_left(turn);

        let det = grouping_determinant(&group_cols, &plan, &cat).unwrap();
        // A sub-list, in order.
        let mut rest = group_cols.iter();
        prop_assert!(det.iter().all(|d| rest.any(|g| g == d)), "{det:?} of {group_cols:?}");
        prop_assert!(!det.is_empty() || group_cols.is_empty());

        let data = rows_of(&plan, &cat);
        let by_det = project(&out, &data, &det);
        let by_all = project(&out, &data, &group_cols);
        let mut full_key_of: BTreeMap<&Tuple, &Tuple> = BTreeMap::new();
        for (d, a) in by_det.iter().zip(&by_all) {
            let first = full_key_of.entry(d).or_insert(a);
            prop_assert_eq!(*first, a, "shape {}: {:?} does not determine {:?}",
                which % 8, det, group_cols);
        }
        // Minimal: no kept column is determined by the other kept ones
        // (as far as the plan can prove — re-asking must drop nothing).
        prop_assert_eq!(&grouping_determinant(&det, &plan, &cat).unwrap(), &det);
    }
}

/// What each shape must (and must not) be able to drop when every
/// output column is a grouping column.
#[test]
fn determinants_of_the_shapes() {
    let cat = setup(7, 30);
    for which in 0..8 {
        let (plan, expect) = shape(which);
        let all = plan.output_cols().to_vec();
        let det = grouping_determinant(&all, &plan, &cat).unwrap();
        if let Some(expect) = expect {
            assert_eq!(det, expect, "shape {which}");
        }
    }
    // The table without a key: all ten columns but one side of the
    // equality stay.
    let (plan, _) = shape(3);
    let det = grouping_determinant(plan.output_cols(), &plan, &cat).unwrap();
    let dropped: BTreeSet<Col> = plan
        .output_cols()
        .iter()
        .filter(|c| !det.contains(c))
        .copied()
        .collect();
    // t0.id determines t0.*, t0.j1 = heap.id determines heap.id — and
    // nothing of heap beyond it.
    assert_eq!(
        dropped,
        [col(0, 1), col(0, 2), col(0, 3), col(0, 4), col(1, 0)].into()
    );
    let (plan, _) = shape(4);
    let all = plan.output_cols().to_vec();
    let det = grouping_determinant(&all, &plan, &cat).unwrap();
    assert_eq!(
        det.len(),
        ARITY - 1,
        "j1 = j2 drops one of the two: {det:?}"
    );
    let (plan, _) = shape(6);
    let all = plan.output_cols().to_vec();
    assert_eq!(grouping_determinant(&all, &plan, &cat).unwrap(), all);
}
