//! Simple coalescing grouping (paper Section 4.2).
//!
//! "Instead of moving a group-by, the effect of simple coalescing is to
//! add group-by operators": a new partial group-by `G2` is placed below
//! a join while the original `G1` keeps its position, coalescing the
//! groups `G2` created. Applicability "requires that the aggregating
//! functions ... satisfy the property of being decomposable".
//!
//! Correctness sketch: `G2` groups the early side by the original
//! grouping columns (restricted to that side) *plus every column of that
//! side that later join predicates read*. All tuples of a partial group
//! therefore behave identically under all later joins: if the partial
//! row matches `k` tuples, each original tuple would have matched the
//! same `k`. Summing `k` copies of a partial SUM/COUNT state equals
//! summing the `k`-duplicated originals; MIN/MAX are duplicate-
//! insensitive; AVG and STDDEV scale numerator and denominator by the
//! same `k`. The upper `G1` merges states (the executor detects partial
//! inputs by their [`aggview_common::PartRef`] columns) and applies
//! HAVING as before.

use crate::plan::{PartialAggSpec, Plan};
use aggview_common::{AggRef, AggSpec, Col, Predicate, RelId, ViewId};
use std::collections::BTreeSet;

/// May a partial group-by for `aggs` (owned by `owner`) be placed over
/// the relations in `subset`, given the block's predicates and the final
/// grouping columns?
///
/// Requirements:
/// * every aggregate is decomposable;
/// * every aggregate argument reads only columns of `subset` (COUNT(*)
///   qualifies trivially);
/// * `subset` is a proper, non-empty subset of the block (placing the
///   "partial" group-by over everything is just the full group-by).
pub fn coalescing_applicable(aggs: &[AggSpec], subset: u64, block_rels: u64) -> bool {
    if subset == 0 || subset & !block_rels != 0 || subset == block_rels {
        return false;
    }
    aggs.iter().all(|a| {
        a.func.is_decomposable()
            && a.cols_used().iter().all(|c| match c.as_base() {
                Some(b) => subset & b.rel.bit() != 0,
                None => false,
            })
    })
}

/// Build the partial group-by node over `input` (the plan for the early
/// side) for the final group-by `owner`/`final_group_cols`/`aggs`.
///
/// `later_pred_cols` must contain every column of the early side that
/// predicates *above* the partial group-by read (join predicates to the
/// other side, and deferred selections); they join the partial grouping
/// columns so the later joins see them.
///
/// Returns the `PartialAggregate` plan (no duplicate factor: every
/// aggregate is decomposed, so the merge keeps nothing to scale); the caller joins it onward and
/// finally applies the unchanged `G1`, whose executor coalesces the
/// partial states.
pub fn make_coalescing_pair(
    input: Plan,
    owner: ViewId,
    final_group_cols: &[Col],
    aggs: &[AggSpec],
    later_pred_cols: &BTreeSet<Col>,
) -> Plan {
    let input_cols: BTreeSet<Col> = input.output_cols().iter().copied().collect();
    let mut group_cols: Vec<Col> = Vec::new();
    let mut seen = BTreeSet::new();
    for c in final_group_cols.iter().chain(later_pred_cols.iter()) {
        if input_cols.contains(c) && seen.insert(*c) {
            group_cols.push(*c);
        }
    }
    let spec = PartialAggSpec {
        group_cols,
        aggs: aggs
            .iter()
            .enumerate()
            .map(|(i, a)| (AggRef::new(owner, i), a.clone()))
            .collect(),
        count: None,
    };
    Plan::partial_aggregate_all(input, spec)
}

/// The early-side columns later predicates read: for each predicate that
/// spans `subset` and its complement, the columns on the `subset` side.
pub fn later_pred_cols(preds: &[Predicate], subset: u64) -> BTreeSet<Col> {
    let in_subset = |r: RelId| subset & r.bit() != 0;
    let mut out = BTreeSet::new();
    for p in preds {
        let rels: Vec<RelId> = p.rels_used().into_iter().collect();
        let inside = rels.iter().any(|r| in_subset(*r));
        let outside = rels.iter().any(|r| !in_subset(*r));
        if inside && outside {
            for c in p.cols_used() {
                if matches!(c.as_base(), Some(b) if in_subset(b.rel)) {
                    out.insert(c);
                }
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::PlanAnalyzer;
    use crate::plan::{all_cols, GroupBySpec};
    use crate::query::QueryEnv;
    use aggview_common::{AggFunc, CmpOp, DataType, Expr, Schema, Value};
    use aggview_storage::{Catalog, Table};

    fn setup() -> (Catalog, QueryEnv) {
        let catalog = Catalog::new();
        catalog
            .add(
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
        catalog
            .add(
                Table::builder(
                    "dept",
                    Schema::of(&[("dno", DataType::Int), ("budget", DataType::Float)]),
                )
                .primary_key(&["dno"])
                .unwrap()
                .build()
                .unwrap(),
            )
            .unwrap();
        (catalog, QueryEnv::new(vec!["emp".into(), "dept".into()]))
    }

    #[test]
    fn applicability_requires_args_inside_subset() {
        let e = RelId(0);
        let d = RelId(1);
        let both = e.bit() | d.bit();
        let sum_sal = vec![AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e, 2)))];
        assert!(coalescing_applicable(&sum_sal, e.bit(), both));
        assert!(!coalescing_applicable(&sum_sal, d.bit(), both));
        // COUNT(*) may be partially computed on either side.
        let cstar = vec![AggSpec::count_star()];
        assert!(coalescing_applicable(&cstar, e.bit(), both));
        assert!(coalescing_applicable(&cstar, d.bit(), both));
        // Proper subset required.
        assert!(!coalescing_applicable(&sum_sal, both, both));
        assert!(!coalescing_applicable(&sum_sal, 0, both));
    }

    #[test]
    fn later_pred_cols_collects_subset_side() {
        let e = RelId(0);
        let d = RelId(1);
        let preds = vec![
            Predicate::eq_cols(Col::base(e, 1), Col::base(d, 0)),
            Predicate::cmp_const(Col::base(d, 1), CmpOp::Lt, Value::Float(1e6)),
            Predicate::cmp_const(Col::base(e, 2), CmpOp::Gt, Value::Float(0.0)),
        ];
        let cols = later_pred_cols(&preds, e.bit());
        // Only e.dno crosses; the dept selection and the emp selection
        // are single-sided.
        assert_eq!(cols.len(), 1);
        assert!(cols.contains(&Col::base(e, 1)));
    }

    #[test]
    fn full_coalescing_pipeline_is_legal() {
        let (cat, env) = setup();
        let e = RelId(0);
        let d = RelId(1);
        let aggs = vec![
            AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e, 2))),
            AggSpec::count_star(),
        ];
        let final_groups = vec![Col::base(e, 1)];
        let preds = vec![Predicate::eq_cols(Col::base(e, 1), Col::base(d, 0))];
        let lpc = later_pred_cols(&preds, e.bit());
        let partial = make_coalescing_pair(
            Plan::scan(e, "emp", vec![], all_cols(e, 3)),
            ViewId::Top,
            &final_groups,
            &aggs,
            &lpc,
        );
        // Partial grouping cols: e.dno once (group col == join col here).
        let Plan::PartialAggregate { spec, .. } = &partial else {
            panic!("partial expected")
        };
        assert_eq!(spec.group_cols, vec![Col::base(e, 1)]);
        assert_eq!(spec.aggs.len(), 2);

        let join = Plan::join_all(
            partial,
            Plan::scan(d, "dept", vec![], all_cols(d, 2)),
            preds,
        );
        let final_gb = Plan::group_by_all(
            join,
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: final_groups,
                aggs,
                having: vec![],
            },
        );
        PlanAnalyzer::new(&cat)
            .with_env(&env)
            .verify(&final_gb)
            .unwrap();
        assert_eq!(final_gb.group_by_count(), 2);
    }

    #[test]
    fn partial_group_includes_distinct_join_cols() {
        // Final grouping on e.dno but join on e.eno: partial grouping
        // must include both.
        let e = RelId(0);
        let d = RelId(1);
        let aggs = vec![AggSpec::new(AggFunc::Min, Expr::col(Col::base(e, 2)))];
        let preds = vec![Predicate::eq_cols(Col::base(e, 0), Col::base(d, 0))];
        let lpc = later_pred_cols(&preds, e.bit());
        let partial = make_coalescing_pair(
            Plan::scan(e, "emp", vec![], all_cols(e, 3)),
            ViewId::View(0),
            &[Col::base(e, 1)],
            &aggs,
            &lpc,
        );
        let Plan::PartialAggregate { spec, .. } = &partial else {
            panic!()
        };
        assert_eq!(spec.group_cols, vec![Col::base(e, 1), Col::base(e, 0)]);
    }
}
