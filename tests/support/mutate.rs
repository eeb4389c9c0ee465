//! Seeded plan mutations for the analyzer's negative-test harness.
//!
//! Each mutation takes a valid plan and breaks exactly one invariant
//! the [`PlanAnalyzer`](aggview::core::PlanAnalyzer) is supposed to check:
//! dropping a grouping column out from under the projection, moving a
//! HAVING predicate below the group-by, corrupting a coalescing merge
//! stage, dereferencing columns no operator produces, and so on. Only
//! mutations applicable to the given plan's shape are emitted — a plan
//! without a join cannot demonstrate a join mutation — so the test
//! corpus spans several plan shapes to exercise every kind.

use aggview::common::{AggFunc, CmpOp, Col, Expr, Predicate, RelId, Value};
use aggview::core::plan::Plan;
use std::sync::Arc;

/// A deliberately corrupted plan the analyzer must reject.
#[derive(Debug, Clone)]
pub struct Mutant {
    /// Stable mutation-kind identifier, e.g. `drop-group-col`.
    pub name: &'static str,
    /// The mutated plan.
    pub plan: Plan,
}

/// One node-level rewrite attempt: `Some(replacement)` when applicable.
type Mutation = fn(&Plan) -> Option<Plan>;

/// Every applicable single-site mutation of `plan`, one mutant per
/// mutation kind, each corrupting the first matching node.
pub fn mutants(plan: &Plan) -> Vec<Mutant> {
    let kinds: [(&'static str, Mutation); 15] = [
        ("drop-group-col", drop_group_col),
        ("move-having-below", move_having_below),
        ("swap-coalesce-func", swap_coalesce_func),
        ("drop-partial-component", drop_partial_component),
        ("drop-join-input-col", drop_join_input_col),
        ("overlap-join-children", overlap_join_children),
        ("rename-scan-table", rename_scan_table),
        ("agg-arg-unavailable", agg_arg_unavailable),
        ("group-on-unavailable", group_on_unavailable),
        ("having-foreign-column", having_foreign_column),
        ("nonlocal-scan-filter", nonlocal_scan_filter),
        ("join-pred-unavailable", join_pred_unavailable),
        ("eager-drop-pushed-key", eager_drop_pushed_key),
        ("eager-drop-count", eager_drop_count),
        ("eager-component-lie", eager_component_lie),
    ];
    kinds
        .into_iter()
        .filter_map(|(name, f)| {
            let mut f = f;
            map_first(plan, &mut f).map(|plan| Mutant { name, plan })
        })
        .collect()
}

/// Every applicable dataflow-specific mutation of `plan`: corruptions
/// only the [`dataflow`](aggview::core::analyze::dataflow) pass can see. Kept separate
/// from [`mutants`] because the contradictory-filter mutant produces a
/// *warning* (the plan still computes correct results: the executor
/// answers it with no rows) rather than a rejection.
pub fn dataflow_mutants(plan: &Plan) -> Vec<Mutant> {
    let kinds: [(&'static str, Mutation); 1] = [("contradictory-filter", contradictory_filter)];
    kinds
        .into_iter()
        .filter_map(|(name, f)| {
            let mut f = f;
            map_first(plan, &mut f).map(|plan| Mutant { name, plan })
        })
        .collect()
}

/// Rebuild the tree with the first node (pre-order) for which `f`
/// returns a replacement swapped in; `None` when no node matched.
fn map_first(plan: &Plan, f: &mut impl FnMut(&Plan) -> Option<Plan>) -> Option<Plan> {
    if let Some(p) = f(plan) {
        return Some(p);
    }
    match plan {
        Plan::Scan { .. } | Plan::ExtentScan { .. } => None,
        Plan::Join {
            left,
            right,
            preds,
            project,
        } => {
            if let Some(l) = map_first(left, f) {
                return Some(Plan::Join {
                    left: Arc::new(l),
                    right: right.clone(),
                    preds: preds.clone(),
                    project: project.clone(),
                });
            }
            map_first(right, f).map(|r| Plan::Join {
                left: left.clone(),
                right: Arc::new(r),
                preds: preds.clone(),
                project: project.clone(),
            })
        }
        Plan::GroupBy {
            input,
            spec,
            project,
        } => map_first(input, f).map(|i| Plan::GroupBy {
            input: Arc::new(i),
            spec: spec.clone(),
            project: project.clone(),
        }),
        Plan::PartialAggregate {
            input,
            spec,
            project,
        } => map_first(input, f).map(|i| Plan::PartialAggregate {
            input: Arc::new(i),
            spec: spec.clone(),
            project: project.clone(),
        }),
    }
}

/// A base column no plan in the corpus produces (relations are numbered
/// from zero; 63 is the last representable id).
fn foreign_col() -> Col {
    Col::base(RelId(63), 0)
}

/// Remove a grouping column while keeping it projected: the projection
/// then references a column the group-by no longer produces.
fn drop_group_col(node: &Plan) -> Option<Plan> {
    let Plan::GroupBy {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let mut spec = spec.clone();
    let g = spec.group_cols.pop()?;
    let mut project = project.clone();
    if !project.contains(&g) {
        project.push(g);
    }
    Some(Plan::GroupBy {
        input: input.clone(),
        spec,
        project,
    })
}

/// Move an aggregate-referencing HAVING predicate into the join below:
/// the aggregate column does not exist under the group-by.
fn move_having_below(node: &Plan) -> Option<Plan> {
    let Plan::GroupBy {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let pos = spec.having.iter().position(|h| h.uses_agg())?;
    let Plan::Join {
        left,
        right,
        preds,
        project: jproject,
    } = input.as_ref()
    else {
        return None;
    };
    let mut spec = spec.clone();
    let moved = spec.having.remove(pos);
    let mut preds = preds.clone();
    preds.push(moved);
    Some(Plan::GroupBy {
        input: Arc::new(Plan::Join {
            left: left.clone(),
            right: right.clone(),
            preds,
            project: jproject.clone(),
        }),
        spec,
        project: project.clone(),
    })
}

/// Change the merge-stage function of a coalescing group-by so it no
/// longer mirrors the partial stage below.
fn swap_coalesce_func(node: &Plan) -> Option<Plan> {
    let Plan::GroupBy {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let below = input.output_cols();
    let i = (0..spec.aggs.len()).find(|&i| below.contains(&Col::part(spec.agg_ref(i), 0)))?;
    let mut spec = spec.clone();
    spec.aggs[i].func = match spec.aggs[i].func {
        AggFunc::Sum => AggFunc::Min,
        AggFunc::Min => AggFunc::Max,
        AggFunc::Max => AggFunc::Sum,
        AggFunc::Count => AggFunc::Sum,
        AggFunc::Avg => AggFunc::Sum,
        AggFunc::StdDev => AggFunc::Avg,
    };
    Some(Plan::GroupBy {
        input: input.clone(),
        spec,
        project: project.clone(),
    })
}

/// Drop one partial-state component from a partial aggregate's output,
/// orphaning the merge stage above. Only components the analyzer can
/// prove missing are dropped: a non-zero component, or component 0 of
/// an aggregate with an argument (whose base columns are unavailable
/// above the partial aggregate).
fn drop_partial_component(node: &Plan) -> Option<Plan> {
    let Plan::PartialAggregate {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let pos = project.iter().position(|c| match c {
        Col::Part(p) => {
            p.part > 0
                || spec
                    .aggs
                    .iter()
                    .any(|(aref, a)| *aref == p.agg && a.arg.is_some())
        }
        _ => false,
    })?;
    let mut project = project.clone();
    project.remove(pos);
    Some(Plan::PartialAggregate {
        input: input.clone(),
        spec: spec.clone(),
        project,
    })
}

/// Remove a grouping column from the join feeding a group-by: the
/// group-by then groups on a column its input does not produce.
fn drop_join_input_col(node: &Plan) -> Option<Plan> {
    let Plan::GroupBy {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let Plan::Join {
        left,
        right,
        preds,
        project: jproject,
    } = input.as_ref()
    else {
        return None;
    };
    let g = *spec.group_cols.first()?;
    let pos = jproject.iter().position(|c| *c == g)?;
    let mut jproject = jproject.clone();
    jproject.remove(pos);
    Some(Plan::GroupBy {
        input: Arc::new(Plan::Join {
            left: left.clone(),
            right: right.clone(),
            preds: preds.clone(),
            project: jproject,
        }),
        spec: spec.clone(),
        project: project.clone(),
    })
}

/// Duplicate a join's left child as its right: the children then
/// overlap in base relations.
fn overlap_join_children(node: &Plan) -> Option<Plan> {
    let Plan::Join {
        left,
        preds,
        project,
        ..
    } = node
    else {
        return None;
    };
    Some(Plan::Join {
        left: left.clone(),
        right: left.clone(),
        preds: preds.clone(),
        project: project.clone(),
    })
}

/// Point a scan at a table the catalog does not know.
fn rename_scan_table(node: &Plan) -> Option<Plan> {
    let Plan::Scan {
        rel,
        table,
        filters,
        project,
    } = node
    else {
        return None;
    };
    Some(Plan::Scan {
        rel: *rel,
        table: format!("{table}__mutant"),
        filters: filters.clone(),
        project: project.clone(),
    })
}

/// Rewrite a (non-coalescing) aggregate's argument to read a column no
/// operator produces.
fn agg_arg_unavailable(node: &Plan) -> Option<Plan> {
    let Plan::GroupBy {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let below = input.output_cols();
    let i = (0..spec.aggs.len())
        .find(|&i| spec.aggs[i].arg.is_some() && !below.contains(&Col::part(spec.agg_ref(i), 0)))?;
    let mut spec = spec.clone();
    spec.aggs[i].arg = Some(Expr::col(foreign_col()));
    Some(Plan::GroupBy {
        input: input.clone(),
        spec,
        project: project.clone(),
    })
}

/// Add an unavailable column to a group-by's grouping list.
fn group_on_unavailable(node: &Plan) -> Option<Plan> {
    let Plan::GroupBy {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let mut spec = spec.clone();
    spec.group_cols.push(foreign_col());
    Some(Plan::GroupBy {
        input: input.clone(),
        spec,
        project: project.clone(),
    })
}

/// Add a HAVING predicate over a base column that is neither a grouping
/// column nor an aggregate of this group-by.
fn having_foreign_column(node: &Plan) -> Option<Plan> {
    let Plan::GroupBy {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let mut spec = spec.clone();
    spec.having.push(Predicate::cmp_const(
        Col::base(RelId(62), 0),
        CmpOp::Gt,
        Value::Int(0),
    ));
    Some(Plan::GroupBy {
        input: input.clone(),
        spec,
        project: project.clone(),
    })
}

/// Add a scan filter referencing another relation's column: scan
/// filters must be local.
fn nonlocal_scan_filter(node: &Plan) -> Option<Plan> {
    let Plan::Scan {
        rel,
        table,
        filters,
        project,
    } = node
    else {
        return None;
    };
    let mut filters = filters.clone();
    filters.push(Predicate::eq_cols(Col::base(*rel, 0), foreign_col()));
    Some(Plan::Scan {
        rel: *rel,
        table: table.clone(),
        filters,
        project: project.clone(),
    })
}

/// Add a constant-false filter to a scan. The subtree becomes provably
/// empty — still *correct*, so the dataflow pass reports it as a
/// `dataflow-domain` warning (a provably-empty plan), not an error.
/// Constants keep the mutation schema-safe on any table.
fn contradictory_filter(node: &Plan) -> Option<Plan> {
    let Plan::Scan {
        rel,
        table,
        filters,
        project,
    } = node
    else {
        return None;
    };
    let mut filters = filters.clone();
    filters.push(Predicate::new(
        Expr::val(Value::Int(1)),
        CmpOp::Gt,
        Expr::val(Value::Int(2)),
    ));
    Some(Plan::Scan {
        rel: *rel,
        table: table.clone(),
        filters,
        project: project.clone(),
    })
}

/// Remove one pushed grouping column from a partial aggregate
/// (and its projection): early grouping then merges rows the merge
/// stage above still needs to tell apart (Definition 1, dualized).
fn eager_drop_pushed_key(node: &Plan) -> Option<Plan> {
    let Plan::PartialAggregate {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let mut spec = spec.clone();
    let g = spec.group_cols.pop()?;
    let project: Vec<Col> = project.iter().copied().filter(|c| *c != g).collect();
    Some(Plan::PartialAggregate {
        input: input.clone(),
        spec,
        project,
    })
}

/// Strip the duplicate-factor count column from a partial
/// aggregate: kept duplicate-sensitive aggregates above the join are
/// then merged without compensation for join replication.
fn eager_drop_count(node: &Plan) -> Option<Plan> {
    let Plan::PartialAggregate {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let count_col = spec.count_col()?;
    let mut spec = spec.clone();
    spec.count = None;
    let project: Vec<Col> = project
        .iter()
        .copied()
        .filter(|c| *c != count_col)
        .collect();
    Some(Plan::PartialAggregate {
        input: input.clone(),
        spec,
        project,
    })
}

/// Change the function of a pushed aggregate so the partial states it
/// emits no longer match what the merge stage above expects.
fn eager_component_lie(node: &Plan) -> Option<Plan> {
    let Plan::PartialAggregate {
        input,
        spec,
        project,
    } = node
    else {
        return None;
    };
    let mut spec = spec.clone();
    let (_, a) = spec.aggs.first_mut()?;
    a.func = match a.func {
        AggFunc::Sum => AggFunc::Count,
        AggFunc::Count => AggFunc::Sum,
        AggFunc::Min => AggFunc::Max,
        AggFunc::Max => AggFunc::Min,
        AggFunc::Avg => AggFunc::Sum,
        AggFunc::StdDev => AggFunc::Avg,
    };
    Some(Plan::PartialAggregate {
        input: input.clone(),
        spec,
        project: project.clone(),
    })
}

/// Add a join predicate over columns neither side produces.
fn join_pred_unavailable(node: &Plan) -> Option<Plan> {
    let Plan::Join {
        left,
        right,
        preds,
        project,
    } = node
    else {
        return None;
    };
    let mut preds = preds.clone();
    preds.push(Predicate::eq_cols(
        Col::base(RelId(60), 1),
        Col::base(RelId(61), 2),
    ));
    Some(Plan::Join {
        left: left.clone(),
        right: right.clone(),
        preds,
        project: project.clone(),
    })
}
