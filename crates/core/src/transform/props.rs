//! Key properties of operator outputs.
//!
//! Definition 1 of the paper makes the deferred group-by group on "a
//! primary key of R2", and notes the key may be omitted "in case the
//! join J1 is a foreign key join". Invariant grouping's soundness
//! likewise rests on the joined relation matching at most one tuple per
//! group. Both need to answer: *what is a key of this plan's output?*

use crate::plan::Plan;
use aggview_common::{Col, Predicate, Result};
use aggview_storage::Catalog;
use std::collections::BTreeSet;

/// A key of the plan's output: a set of output columns whose values
/// functionally determine the whole output tuple, with no duplicate
/// combinations. Returns `None` when no key can be derived from the
/// available declarations (e.g. a projection that drops the key).
///
/// Derivation rules:
/// * **Scan** — the table's primary key, if all its columns survive the
///   projection (duplicate-free because the builder enforces PK
///   uniqueness).
/// * **Join** — the union of the children's keys (a tuple of the join is
///   identified by the pair of contributing tuples), if both are
///   derivable and projected.
/// * **GroupBy** — the grouping columns (one output tuple per group), if
///   projected.
/// * **PartialAggregate** — its pushed grouping columns, likewise.
pub fn output_key(plan: &Plan, catalog: &Catalog) -> Result<Option<Vec<Col>>> {
    let out: BTreeSet<Col> = plan.output_cols().iter().copied().collect();
    let key = match plan {
        Plan::Scan { rel, table, .. } => {
            let t = catalog.get(table)?;
            t.primary_key()
                .map(|pk| pk.cols.iter().map(|&c| Col::base(*rel, c)).collect())
        }
        Plan::Join { left, right, .. } => {
            match (output_key(left, catalog)?, output_key(right, catalog)?) {
                (Some(mut l), Some(r)) => {
                    l.extend(r);
                    Some(l)
                }
                _ => None,
            }
        }
        Plan::GroupBy { spec, .. } => Some(spec.group_cols.clone()),
        Plan::PartialAggregate { spec, .. } => Some(spec.group_cols.clone()),
        // Zero rows trivially satisfy any key, but claiming one would
        // let invariant-grouping reason from a vacuous property.
        Plan::EmptyScan { .. } => None,
        Plan::ExtentScan {
            table,
            cols,
            outputs,
            ..
        } => {
            // The extent table's primary key is the view's group columns;
            // expose it under the logical identities this scan maps them
            // to, provided every key column is read.
            let t = catalog.get(table)?;
            match t.primary_key() {
                Some(pk) => {
                    let mapped: Vec<Option<Col>> = pk
                        .cols
                        .iter()
                        .map(|k| cols.iter().position(|c| c == k).map(|i| outputs[i]))
                        .collect();
                    if mapped.iter().all(Option::is_some) {
                        Some(mapped.into_iter().flatten().collect())
                    } else {
                        None
                    }
                }
                None => None,
            }
        }
    };
    Ok(key.filter(|k| k.iter().all(|c| out.contains(c))))
}

/// True when `preds` equate (transitively, via simple equality
/// predicates) a full key of `keyed` with columns available on the other
/// side — i.e. the join is a key join *into* `keyed`: each tuple of the
/// other side matches at most one tuple of `keyed`.
///
/// `keyed_cols` must be the column set produced by the keyed side;
/// `key` its key.
pub fn is_fk_join_into(preds: &[Predicate], key: &[Col], keyed_cols: &BTreeSet<Col>) -> bool {
    if key.is_empty() {
        return false;
    }
    // Columns of the keyed side equated to something on the other side.
    let mut equated: BTreeSet<Col> = BTreeSet::new();
    for p in preds {
        if let Some((a, b)) = p.as_col_eq_col() {
            match (keyed_cols.contains(&a), keyed_cols.contains(&b)) {
                (true, false) => {
                    equated.insert(a);
                }
                (false, true) => {
                    equated.insert(b);
                }
                _ => {}
            }
        }
    }
    key.iter().all(|k| equated.contains(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{all_cols, GroupBySpec};
    use aggview_common::{AggFunc, AggSpec, DataType, Expr, RelId, Schema, ViewId};
    use aggview_storage::Table;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.add(
            Table::builder(
                "emp",
                Schema::of(&[
                    ("eno", DataType::Int),
                    ("dno", DataType::Int),
                    ("sal", DataType::Float),
                ]),
            )
            .primary_key(&["eno"])
            .unwrap()
            .build()
            .unwrap(),
        )
        .unwrap();
        cat.add(
            Table::builder("heap", Schema::of(&[("x", DataType::Int)]))
                .build()
                .unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn scan_key_is_primary_key() {
        let cat = catalog();
        let s = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 3));
        let k = output_key(&s, &cat).unwrap().unwrap();
        assert_eq!(k, vec![Col::base(RelId(0), 0)]);
    }

    #[test]
    fn projection_dropping_key_loses_it() {
        let cat = catalog();
        let s = Plan::scan(RelId(0), "emp", vec![], vec![Col::base(RelId(0), 2)]);
        assert!(output_key(&s, &cat).unwrap().is_none());
    }

    #[test]
    fn heap_table_has_no_key() {
        let cat = catalog();
        let s = Plan::scan(RelId(1), "heap", vec![], all_cols(RelId(1), 1));
        assert!(output_key(&s, &cat).unwrap().is_none());
    }

    #[test]
    fn join_key_is_union_of_child_keys() {
        let cat = catalog();
        let a = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 3));
        let b = Plan::scan(RelId(2), "emp", vec![], all_cols(RelId(2), 3));
        let j = Plan::join_all(a, b, vec![]);
        let k = output_key(&j, &cat).unwrap().unwrap();
        assert_eq!(k, vec![Col::base(RelId(0), 0), Col::base(RelId(2), 0)]);
    }

    #[test]
    fn group_by_key_is_grouping_columns() {
        let cat = catalog();
        let s = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 3));
        let g = Plan::group_by_all(
            s,
            GroupBySpec {
                owner: ViewId::View(0),
                group_cols: vec![Col::base(RelId(0), 1)],
                aggs: vec![AggSpec::new(
                    AggFunc::Avg,
                    Expr::col(Col::base(RelId(0), 2)),
                )],
                having: vec![],
            },
        );
        let k = output_key(&g, &cat).unwrap().unwrap();
        assert_eq!(k, vec![Col::base(RelId(0), 1)]);
    }

    #[test]
    fn fk_join_detection() {
        let key = vec![Col::base(RelId(1), 0)];
        let keyed_cols: BTreeSet<Col> = (0..3).map(|c| Col::base(RelId(1), c)).collect();
        let preds = vec![Predicate::eq_cols(
            Col::base(RelId(0), 1),
            Col::base(RelId(1), 0),
        )];
        assert!(is_fk_join_into(&preds, &key, &keyed_cols));
        // Join on a non-key column is not a key join.
        let preds2 = vec![Predicate::eq_cols(
            Col::base(RelId(0), 1),
            Col::base(RelId(1), 2),
        )];
        assert!(!is_fk_join_into(&preds2, &key, &keyed_cols));
        // Empty key set never qualifies.
        assert!(!is_fk_join_into(&preds, &[], &keyed_cols));
    }

    #[test]
    fn composite_key_needs_all_columns_equated() {
        let key = vec![Col::base(RelId(1), 0), Col::base(RelId(1), 1)];
        let keyed_cols: BTreeSet<Col> = (0..3).map(|c| Col::base(RelId(1), c)).collect();
        let one = vec![Predicate::eq_cols(
            Col::base(RelId(0), 0),
            Col::base(RelId(1), 0),
        )];
        assert!(!is_fk_join_into(&one, &key, &keyed_cols));
        let both = vec![
            Predicate::eq_cols(Col::base(RelId(0), 0), Col::base(RelId(1), 0)),
            Predicate::eq_cols(Col::base(RelId(0), 1), Col::base(RelId(1), 1)),
        ];
        assert!(is_fk_join_into(&both, &key, &keyed_cols));
    }
}
