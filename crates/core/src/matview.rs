//! Matching query blocks against materialized aggregate-view extents.
//!
//! A materialized view stores the result of an aggregate view — and,
//! for decomposable aggregates, the mergeable partial states of
//! Figure 2 — in an *extent* table registered in the catalog. During
//! block optimization the matcher checks whether a single-block query
//! (or a pulled-up block Φ(V₀, W) whose leaves are all base-table
//! scans) is *subsumed* by a registered extent:
//!
//! * the block joins exactly the view's tables (a bijection θ from the
//!   view's local relations to the block's relations, matched by table
//!   name);
//! * every view predicate appears among the block's predicates under θ
//!   (the extent holds no fewer rows than the block needs), and every
//!   residual block predicate references only the view's grouping
//!   columns (so it can compensate as an extent-scan filter);
//! * the block's grouping columns are a subset of θ(view grouping
//!   columns), and every block aggregate is one of the view's
//!   aggregates under θ.
//!
//! When the grouping matches exactly, the extent's *finalized* columns
//! answer the block directly. When the block groups strictly coarser, a
//! compensating group-by coalesces the extent's stored partial states
//! (requires every matched aggregate to store partial state — see
//! [`aggview_storage::stores_partial_state`]).
//!
//! The rewritten access path is enumerated *in addition to* the inlined
//! plan and chosen purely by cost, so the optimizer's never-worse
//! guarantee is untouched. Stale extents (base data modified since the
//! last build or refresh) are never matched; freshness is read once per
//! statement.

use crate::cost::CardEstimator;
use crate::governor::ResourceGovernor;
use crate::optimizer::greedy::BlockQuery;
use crate::optimizer::stats::SearchStats;
use crate::optimizer::Planned;
use crate::plan::{GroupBySpec, Plan};
use aggview_common::{AggSpec, Col, Predicate, RelId, Result};
use aggview_storage::{stores_partial_state, MatViewMeta};
use std::collections::BTreeSet;

/// The block's leaves, flattened: parallel relation / table-name lists
/// plus every predicate (scan-local and multi-relation).
struct FlatBlock<'a> {
    rels: Vec<RelId>,
    tables: Vec<&'a str>,
    preds: Vec<&'a Predicate>,
}

/// Flatten a block whose items are all plain base-table scans; `None`
/// when any leaf is already a planned sub-block (extents only answer
/// blocks over base tables).
fn flatten<'a>(q: &'a BlockQuery) -> Option<FlatBlock<'a>> {
    let mut rels = Vec::with_capacity(q.items.len());
    let mut tables = Vec::with_capacity(q.items.len());
    let mut preds: Vec<&Predicate> = Vec::new();
    for it in &q.items {
        let Plan::Scan {
            rel,
            table,
            filters,
            ..
        } = &*it.plan
        else {
            return None;
        };
        rels.push(*rel);
        tables.push(table.as_str());
        preds.extend(filters);
    }
    preds.extend(q.preds.iter().map(|f| &f.pred));
    Some(FlatBlock {
        rels,
        tables,
        preds,
    })
}

/// Find the cheapest matching extent access path for the block, if any
/// fresh registered materialized view subsumes it. The fresh views are
/// those `est` resolved once for the statement. Each candidate is
/// costed through `est` and charged to the search budget; the caller
/// compares the result against its best inlined plan.
pub(crate) fn best_extent_entry(
    q: &BlockQuery,
    est: &CardEstimator<'_>,
    stats: &mut SearchStats,
    gov: &ResourceGovernor,
) -> Result<Option<Planned>> {
    let Some(gspec) = q.group.as_ref() else {
        return Ok(None);
    };
    // A view answers only a block over as many relations as it joins,
    // each scanning one of its tables.
    let fresh = est.fresh_matviews();
    let scanned = |t: &String| {
        let scans = |it: &Planned| matches!(&*it.plan, Plan::Scan { table, .. } if table.eq_ignore_ascii_case(t));
        q.items.iter().any(scans)
    };
    let answers =
        |m: &MatViewMeta| m.def.tables.len() == q.items.len() && m.def.tables.iter().all(scanned);
    if !fresh.iter().any(|(_, m)| answers(m)) {
        return Ok(None);
    }
    let Some(flat) = flatten(q) else {
        return Ok(None);
    };
    let mut best: Option<Planned> = None;
    for (_, meta) in fresh {
        for theta in bijections(&meta.def.tables, &flat.tables) {
            let Some(plan) = match_view(meta, &theta, &flat, gspec, &q.project) else {
                continue;
            };
            stats.plans_built += 1;
            gov.charge_plans(1)?;
            let Ok(candidate) = Planned::new(plan, est) else {
                continue; // uncostable candidate (e.g. missing stats): skip
            };
            if best
                .as_ref()
                .is_none_or(|b| candidate.props.cost < b.props.cost)
            {
                best = Some(candidate);
            }
        }
    }
    Ok(best)
}

/// All bijections θ assigning each view-local relation a distinct block
/// relation over the same table name. `theta[i]` is the index into the
/// block's relation list for view-local relation `i`. Self-joins make
/// this a backtracking search; for the common no-repeated-table case at
/// most one assignment survives.
fn bijections(view_tables: &[String], block_tables: &[&str]) -> Vec<Vec<usize>> {
    let mut out = Vec::new();
    if view_tables.len() != block_tables.len() {
        return out;
    }
    let mut used = vec![false; block_tables.len()];
    let mut current = Vec::with_capacity(view_tables.len());
    assign(view_tables, block_tables, &mut used, &mut current, &mut out);
    out
}

fn assign(
    view_tables: &[String],
    block_tables: &[&str],
    used: &mut [bool],
    current: &mut Vec<usize>,
    out: &mut Vec<Vec<usize>>,
) {
    let i = current.len();
    if i == view_tables.len() {
        out.push(current.clone());
        return;
    }
    for j in 0..block_tables.len() {
        if !used[j] && view_tables[i].eq_ignore_ascii_case(block_tables[j]) {
            used[j] = true;
            current.push(j);
            assign(view_tables, block_tables, used, current, out);
            current.pop();
            used[j] = false;
        }
    }
}

/// Attempt to answer the block from `meta`'s extent under the relation
/// bijection `theta`; returns the compensated access path on success.
fn match_view(
    meta: &MatViewMeta,
    theta: &[usize],
    flat: &FlatBlock,
    gspec: &GroupBySpec,
    project: &[Col],
) -> Option<Plan> {
    let def = &meta.def;
    // Rewrite view-local columns into the block's relation frame.
    let map = |c: Col| match c {
        Col::Base(b) => Col::base(flat.rels[theta[b.rel.idx()]], b.col as usize),
        other => other,
    };
    let mapped_preds: Vec<Predicate> = def.preds.iter().map(|p| p.map_cols(&map)).collect();
    let mapped_groups: Vec<Col> = def.group_cols.iter().map(|&c| map(c)).collect();
    let mapped_aggs: Vec<AggSpec> = def
        .aggs
        .iter()
        .map(|a| AggSpec {
            func: a.func,
            arg: a.arg.as_ref().map(|e| e.map_cols(&map)),
        })
        .collect();
    let group_set: BTreeSet<Col> = mapped_groups.iter().copied().collect();

    // Every view predicate must be enforced by the block (the extent is
    // missing rows otherwise); every residual block predicate must be
    // evaluable over the view's grouping columns so it can compensate
    // as an extent-scan filter.
    let mut covered = vec![false; mapped_preds.len()];
    let mut residue: Vec<Predicate> = Vec::new();
    for &bp in &flat.preds {
        if let Some(k) = mapped_preds.iter().position(|vp| preds_equal(bp, vp)) {
            covered[k] = true;
        } else if bp.cols_used().iter().all(|c| group_set.contains(c)) {
            residue.push(bp.clone());
        } else {
            return None;
        }
    }
    if !covered.iter().all(|&c| c) {
        return None;
    }

    // The block may group no finer than the view.
    if !gspec.group_cols.iter().all(|c| group_set.contains(c)) {
        return None;
    }
    let exact = group_set.iter().all(|c| gspec.group_cols.contains(c));

    // Every block aggregate must be one of the view's aggregates.
    let agg_map: Vec<usize> = gspec
        .aggs
        .iter()
        .map(|a| mapped_aggs.iter().position(|va| va == a))
        .collect::<Option<_>>()?;

    let covers = flat.rels.clone();
    if exact {
        // Finalized columns answer the block directly; residual
        // predicates and the HAVING clause become extent-scan filters.
        let mut cols: Vec<usize> = (0..mapped_groups.len()).collect();
        let mut outputs = mapped_groups.clone();
        for (i, &j) in agg_map.iter().enumerate() {
            cols.push(meta.layout.aggs[j].finalized);
            outputs.push(Col::agg(gspec.owner, i));
        }
        let out_set: BTreeSet<Col> = outputs.iter().copied().collect();
        if !project.iter().all(|c| out_set.contains(c)) {
            return None;
        }
        let mut filters = residue;
        filters.extend(gspec.having.iter().cloned());
        Some(Plan::extent_scan(
            &def.name,
            &meta.extent,
            covers,
            cols,
            outputs,
            filters,
            project.to_vec(),
        ))
    } else {
        // Strictly coarser grouping: scan the stored partial states and
        // coalesce them with a compensating group-by (Figure 2). Every
        // matched aggregate must store partial state.
        if !agg_map
            .iter()
            .all(|&j| stores_partial_state(def.aggs[j].func))
        {
            return None;
        }
        let mut cols: Vec<usize> = (0..mapped_groups.len()).collect();
        let mut outputs = mapped_groups.clone();
        for (i, &j) in agg_map.iter().enumerate() {
            let aref = gspec.agg_ref(i);
            for (k, &phys) in meta.layout.aggs[j].components.iter().enumerate() {
                cols.push(phys);
                outputs.push(Col::part(aref, k));
            }
        }
        // The compensating group-by consumes the block's grouping
        // columns and the partial states; residual predicates filter
        // the extent rows first (they may reference view grouping
        // columns the block no longer groups by).
        let mut scan_project: Vec<Col> = gspec.group_cols.clone();
        scan_project.extend(outputs.iter().copied().filter(|c| c.is_part()));
        let agg_set: BTreeSet<Col> = (0..gspec.aggs.len())
            .map(|i| Col::agg(gspec.owner, i))
            .collect();
        if !project
            .iter()
            .all(|c| gspec.group_cols.contains(c) || agg_set.contains(c))
        {
            return None;
        }
        let extent = Plan::extent_scan(
            &def.name,
            &meta.extent,
            covers,
            cols,
            outputs,
            residue,
            scan_project,
        );
        Some(Plan::group_by(extent, gspec.clone(), project.to_vec()))
    }
}

/// Structural predicate equality, tolerating a flipped comparison
/// (`a < b` matches `b > a`).
fn preds_equal(a: &Predicate, b: &Predicate) -> bool {
    a == b || (a.op == b.op.flipped() && a.left == b.right && a.right == b.left)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{AggFunc, CmpOp, Expr, Value};

    #[test]
    fn bijections_respect_table_names() {
        let view = vec!["emp".to_string(), "dept".to_string()];
        let block = vec!["dept", "emp"];
        assert_eq!(bijections(&view, &block), vec![vec![1, 0]]);
        // Arity mismatch: no assignment.
        assert!(bijections(&view, &block[..1]).is_empty());
    }

    #[test]
    fn self_join_yields_both_assignments() {
        let view = vec!["emp".to_string(), "emp".to_string()];
        let block = vec!["emp", "emp"];
        let all = bijections(&view, &block);
        assert_eq!(all.len(), 2);
        assert!(all.contains(&vec![0, 1]) && all.contains(&vec![1, 0]));
    }

    #[test]
    fn flipped_predicates_compare_equal() {
        let lt = Predicate::new(
            Expr::col(Col::base(RelId(0), 1)),
            CmpOp::Lt,
            Expr::val(Value::Int(5)),
        );
        let gt = Predicate::new(
            Expr::val(Value::Int(5)),
            CmpOp::Gt,
            Expr::col(Col::base(RelId(0), 1)),
        );
        assert!(preds_equal(&lt, &gt));
        assert!(preds_equal(&lt, &lt));
        let ne = Predicate::new(
            Expr::col(Col::base(RelId(0), 1)),
            CmpOp::Le,
            Expr::val(Value::Int(5)),
        );
        assert!(!preds_equal(&lt, &ne));
    }

    #[test]
    fn mapped_agg_equality_uses_func_and_arg() {
        let a = AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(2), 1)));
        let b = AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(2), 1)));
        let c = AggSpec::new(AggFunc::Avg, Expr::col(Col::base(RelId(2), 1)));
        assert_eq!(a, b);
        assert_ne!(a, c);
    }
}
