//! Combining successive group-by operators (paper Section 3).
//!
//! "Successive group-by operators can arise in the transformed query if
//! the original query has a group-by on an aggregate view or, if the
//! query is a join between two aggregate views. Execution of such
//! successive group-by operators can be combined under many
//! circumstances."
//!
//! This module implements the safe circumstances for an *adjacent* pair
//! `G_outer(G_inner(X))`:
//!
//! * the outer grouping columns are a subset of the inner grouping
//!   columns (outer groups coarsen inner groups);
//! * the inner operator has no HAVING clause (its filter would be lost);
//! * every outer aggregate re-aggregates an inner aggregate with a
//!   collapsible function pair — `MIN∘MIN = MIN`, `MAX∘MAX = MAX`,
//!   `SUM∘SUM = SUM`, `SUM∘COUNT = COUNT` — over the same argument.
//!
//! Outer aggregates over inner *grouping columns* (e.g. `COUNT(*)`
//! counting groups, or `AVG` of per-group averages) do **not** collapse:
//! their value depends on the inner grouping structure itself.
//!
//! The combined operator keeps the *outer* identity, so references to
//! `Col::Agg(outer, i)` above the pair remain valid.

use crate::plan::{GroupBySpec, Plan};
use aggview_common::{AggFunc, AggSpec, Col, Expr};
use std::sync::Arc;

/// If `plan` is a group-by directly over another group-by and the pair
/// is collapsible, return the single combined group-by; else `None`.
pub fn combine_groupbys(plan: &Plan) -> Option<Plan> {
    let Plan::GroupBy {
        input: outer_input,
        spec: outer,
        project,
    } = plan
    else {
        return None;
    };
    let Plan::GroupBy {
        input: inner_input,
        spec: inner,
        ..
    } = outer_input.as_ref()
    else {
        return None;
    };
    if !inner.having.is_empty() {
        return None;
    }
    // Outer groups must coarsen inner groups.
    if !outer
        .group_cols
        .iter()
        .all(|c| inner.group_cols.contains(c))
    {
        return None;
    }
    // Rewrite each outer aggregate against the inner input.
    let mut combined_aggs = Vec::with_capacity(outer.aggs.len());
    for a in &outer.aggs {
        let arg = a.arg.as_ref()?;
        let Expr::Col(Col::Agg(inner_ref)) = arg else {
            return None; // outer aggregates a grouping column: keep split
        };
        if inner_ref.owner != inner.owner {
            return None;
        }
        let inner_spec = inner.aggs.get(inner_ref.idx as usize)?;
        let combined_func = match (a.func, inner_spec.func) {
            (AggFunc::Min, AggFunc::Min) => AggFunc::Min,
            (AggFunc::Max, AggFunc::Max) => AggFunc::Max,
            (AggFunc::Sum, AggFunc::Sum) => AggFunc::Sum,
            (AggFunc::Sum, AggFunc::Count) => AggFunc::Count,
            _ => return None,
        };
        combined_aggs.push(AggSpec {
            func: combined_func,
            arg: inner_spec.arg.clone(),
        });
    }
    let spec = GroupBySpec {
        owner: outer.owner,
        group_cols: outer.group_cols.clone(),
        aggs: combined_aggs,
        having: outer.having.clone(),
    };
    Some(Plan::GroupBy {
        input: inner_input.clone(),
        spec,
        project: project.clone(),
    })
}

/// Apply [`combine_groupbys`] everywhere in the tree, bottom-up, until a
/// fixpoint; `None` when no pair combines. Subtrees without one are
/// shared, not copied.
pub fn combine_all(plan: &Plan) -> Option<Plan> {
    let combined = |sub: &Arc<Plan>| combine_all(sub).map(Arc::new);
    let rebuilt = match plan {
        Plan::Scan { .. } | Plan::ExtentScan { .. } => None,
        Plan::Join {
            left,
            right,
            preds,
            project,
        } => match (combined(left), combined(right)) {
            (None, None) => None,
            (l, r) => Some(Plan::Join {
                left: l.unwrap_or_else(|| left.clone()),
                right: r.unwrap_or_else(|| right.clone()),
                preds: preds.clone(),
                project: project.clone(),
            }),
        },
        Plan::GroupBy {
            input,
            spec,
            project,
        } => combined(input).map(|input| Plan::GroupBy {
            input,
            spec: spec.clone(),
            project: project.clone(),
        }),
        Plan::PartialAggregate {
            input,
            spec,
            project,
        } => combined(input).map(|input| Plan::PartialAggregate {
            input,
            spec: spec.clone(),
            project: project.clone(),
        }),
    };
    match combine_groupbys(rebuilt.as_ref().unwrap_or(plan)) {
        Some(pair) => Some(combine_all(&pair).unwrap_or(pair)),
        None => rebuilt,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::all_cols;
    use aggview_common::{CmpOp, Predicate, RelId, Value, ViewId};

    /// inner: SUM(val) by (j1, j2); outer: SUM of that by j1.
    fn stacked(outer_func: AggFunc, inner_func: AggFunc, having_inner: bool) -> Plan {
        let r = RelId(0);
        let inner = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(r, 1), Col::base(r, 2)],
            aggs: vec![AggSpec {
                func: inner_func,
                arg: Some(Expr::col(Col::base(r, 3))),
            }],
            having: if having_inner {
                vec![Predicate::new(
                    Expr::col(Col::agg(ViewId::View(0), 0)),
                    CmpOp::Gt,
                    Expr::val(Value::Int(0)),
                )]
            } else {
                vec![]
            },
        };
        let outer = GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(r, 1)],
            aggs: vec![AggSpec {
                func: outer_func,
                arg: Some(Expr::col(Col::agg(ViewId::View(0), 0))),
            }],
            having: vec![],
        };
        Plan::group_by_all(
            Plan::group_by_all(Plan::scan(r, "t0", vec![], all_cols(r, 4)), inner),
            outer,
        )
    }

    #[test]
    fn sum_of_sum_collapses() {
        let p = stacked(AggFunc::Sum, AggFunc::Sum, false);
        let c = combine_groupbys(&p).expect("collapsible");
        let Plan::GroupBy { spec, input, .. } = &c else {
            panic!()
        };
        assert_eq!(spec.owner, ViewId::Top);
        assert_eq!(spec.aggs[0].func, AggFunc::Sum);
        assert!(matches!(input.as_ref(), Plan::Scan { .. }));
        assert_eq!(c.group_by_count(), 1);
    }

    #[test]
    fn sum_of_count_becomes_count() {
        let p = stacked(AggFunc::Sum, AggFunc::Count, false);
        let c = combine_groupbys(&p).unwrap();
        let Plan::GroupBy { spec, .. } = &c else {
            panic!()
        };
        assert_eq!(spec.aggs[0].func, AggFunc::Count);
    }

    #[test]
    fn min_min_and_max_max_collapse() {
        for f in [AggFunc::Min, AggFunc::Max] {
            let c = combine_groupbys(&stacked(f, f, false)).unwrap();
            let Plan::GroupBy { spec, .. } = &c else {
                panic!()
            };
            assert_eq!(spec.aggs[0].func, f);
        }
    }

    #[test]
    fn avg_of_avg_does_not_collapse() {
        assert!(combine_groupbys(&stacked(AggFunc::Avg, AggFunc::Avg, false)).is_none());
        assert!(combine_groupbys(&stacked(AggFunc::Sum, AggFunc::Avg, false)).is_none());
        assert!(combine_groupbys(&stacked(AggFunc::Min, AggFunc::Max, false)).is_none());
    }

    #[test]
    fn inner_having_blocks_combination() {
        assert!(combine_groupbys(&stacked(AggFunc::Sum, AggFunc::Sum, true)).is_none());
    }

    #[test]
    fn non_subset_grouping_blocks_combination() {
        // Outer groups by a column the inner did not group by.
        let r = RelId(0);
        let inner = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(r, 1)],
            aggs: vec![AggSpec::new(AggFunc::Sum, Expr::col(Col::base(r, 3)))],
            having: vec![],
        };
        let p = Plan::group_by_all(
            Plan::group_by_all(Plan::scan(r, "t0", vec![], all_cols(r, 4)), inner),
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![Col::base(r, 2)],
                aggs: vec![],
                having: vec![],
            },
        );
        // (also invalid as a plan — c2 not produced — but combine must
        // simply decline, not panic)
        assert!(combine_groupbys(&p).is_none());
    }

    #[test]
    fn combine_all_reaches_fixpoint() {
        let p = stacked(AggFunc::Sum, AggFunc::Sum, false);
        let c = combine_all(&p).unwrap();
        assert_eq!(c.group_by_count(), 1);
        // Idempotent.
        assert_eq!(combine_all(&c), None);
    }

    #[test]
    fn non_adjacent_groupbys_untouched() {
        let p = stacked(AggFunc::Avg, AggFunc::Avg, false);
        assert_eq!(combine_all(&p), None);
    }
}
