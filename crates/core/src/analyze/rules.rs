//! Transformation-legality rules: the paper's structural invariants.
//!
//! * **Pull-up key rule** (Definition 1, Figure 1): a view-owned
//!   group-by deferred past relations outside its block must
//!   distinguish those relations' tuples — every primary-key column of
//!   each pulled relation is a grouping column or is equated (through
//!   the join's equality predicates) to one. Requires the canonical
//!   query, which records each view's original relations.
//! * **Invariant grouping** (Section 4.1): once the top group-by's
//!   finalized groups cross a join, that join must match at most one
//!   tuple per group — a key join into the other side.
//! * **Partial-aggregation merge stage** (Section 4.2, Figure 2): every
//!   partial aggregate's states must be re-assembled by the nearest full
//!   group-by above under the same identity, function and argument; its
//!   pushed keys must cover what the merge and the joins between still
//!   read; and it must carry a duplicate factor when the merge keeps a
//!   duplicate-sensitive aggregate.
//! * **Degraded shape**: a governor-degraded plan must be the
//!   traditional two-phase form — no partial aggregation, every view
//!   aggregated over exactly its own relations, the top group-by at the
//!   root.

use super::Violation;
use crate::plan::{GroupBySpec, PartialAggSpec, Plan};
use crate::query::CanonicalQuery;
use crate::transform::props::{is_fk_join_into, output_key};
use aggview_common::{Col, Predicate, RelId, ViewId};
use aggview_storage::{stores_partial_state, Catalog};
use std::collections::BTreeSet;

pub(crate) const RULE_PULLUP: &str = "pull-up-key";
pub(crate) const RULE_INVARIANT: &str = "invariant-grouping";
pub(crate) const RULE_COALESCE: &str = "coalescing-merge";
pub(crate) const RULE_DEGRADED: &str = "degraded-shape";
pub(crate) const RULE_MATVIEW: &str = "matview-extent";

// ---------------------------------------------------------------------
// Pull-up key rule (Definition 1).
// ---------------------------------------------------------------------

/// Check every view-owned group-by that aggregates over relations
/// outside its view's declared block: the pulled relations' keys must
/// be covered by the grouping columns (directly or through equated
/// join columns), or grouping would merge tuples Definition 1 keeps
/// apart.
pub(crate) fn check_pullup_keys(
    plan: &Plan,
    catalog: &Catalog,
    query: &CanonicalQuery,
    out: &mut Vec<Violation>,
) {
    walk(plan, &mut |node| {
        let Plan::GroupBy { input, spec, .. } = node else {
            return;
        };
        let ViewId::View(i) = spec.owner else {
            return; // the top group-by is governed by invariant grouping
        };
        let Some(view) = query.views.get(i as usize) else {
            return; // unknown owner: the dataflow pass flags dangling refs
        };
        let pulled = input.rel_set() & !view.rel_set();
        if pulled == 0 {
            return;
        }
        let classes = EquivClasses::collect(input);
        let grouped: BTreeSet<Col> = spec.group_cols.iter().copied().collect();
        for rel in rel_ids(pulled) {
            let Ok(table) = query.env.table_of(rel) else {
                out.push(Violation::new(
                    RULE_PULLUP,
                    format!(
                        "group-by {} is deferred past undeclared relation {rel}",
                        spec.owner
                    ),
                ));
                continue;
            };
            let Ok(t) = catalog.get(table) else {
                continue; // unknown table: the dataflow pass reports it
            };
            let Some(pk) = t.primary_key() else {
                out.push(Violation::new(
                    RULE_PULLUP,
                    format!(
                        "group-by {} is deferred past relation {rel} (`{table}`), which has \
                         no primary key to add to the grouping columns (Definition 1)",
                        spec.owner
                    ),
                ));
                continue;
            };
            for &c in &pk.cols {
                let kc = Col::base(rel, c);
                let covered = grouped.contains(&kc) || grouped.iter().any(|&g| classes.same(kc, g));
                if !covered {
                    out.push(Violation::new(
                        RULE_PULLUP,
                        format!(
                            "group-by {} is deferred past {rel} (`{table}`) but key column \
                             {kc} is neither a grouping column nor equated to one \
                             (Definition 1)",
                            spec.owner
                        ),
                    ));
                }
            }
        }
    });
}

// ---------------------------------------------------------------------
// Invariant grouping (Section 4.1).
// ---------------------------------------------------------------------

/// Check every join whose input carries the finalized output of the top
/// group-by: the other side must be key-joined, so each group row
/// matches at most one tuple and the early grouping is invariant.
pub(crate) fn check_invariant_grouping(plan: &Plan, catalog: &Catalog, out: &mut Vec<Violation>) {
    walk(plan, &mut |node| {
        let Plan::Join {
            left, right, preds, ..
        } = node
        else {
            return;
        };
        for (grouped_side, other) in [(left, right), (right, left)] {
            if !exposes_top_group(grouped_side) {
                continue;
            }
            let other_cols: BTreeSet<Col> = other.output_cols().iter().copied().collect();
            let keyed = match output_key(other, catalog) {
                Ok(Some(key)) => is_fk_join_into(preds, &key, &other_cols),
                _ => false,
            };
            if !keyed {
                out.push(Violation::new(
                    RULE_INVARIANT,
                    format!(
                        "join above the early top group-by is not a key join into the \
                         other side (relations {:?}); grouping before it is not \
                         invariant (Section 4.1)",
                        other.rels()
                    ),
                ));
            }
        }
    });
}

/// True when the subtree's output rows are finalized groups of the top
/// group-by (`G0`) — i.e. the grouping already happened below this
/// point and has not been re-aggregated since.
fn exposes_top_group(plan: &Plan) -> bool {
    match plan {
        // An extent scan exposes finalized *view* aggregates; the top
        // group-by (when matched at all) sits above it as compensation.
        Plan::Scan { .. } | Plan::ExtentScan { .. } => false,
        Plan::Join { left, right, .. } => exposes_top_group(left) || exposes_top_group(right),
        Plan::GroupBy { spec, .. } => spec.owner == ViewId::Top,
        Plan::PartialAggregate { input, .. } => exposes_top_group(input),
    }
}

// ---------------------------------------------------------------------
// Partial-aggregation merge stage (Section 4.2, Figure 2; push-down
// duality).
// ---------------------------------------------------------------------

/// Check every partial aggregate — simple coalescing and eager
/// push-down alike — against the nearest full group-by above it:
///
/// * **merge stage** — each pushed aggregate must be re-assembled under
///   the same identity, function and argument (Figure 2), and stored
///   partial states exposed by an extent scan need a group-by above just
///   the same. (Decomposability and component availability are
///   `schema` findings of the dataflow pass.)
/// * **pushed keys** (Definition 1, dualized) — the pushed grouping
///   columns must cover every final grouping column this subtree
///   produces *and* every subtree column referenced by a predicate
///   evaluated between this node and the merge, or early grouping would
///   merge rows the joins and filters above still need to tell apart;
/// * **duplicate factor** — when the merge re-aggregates partner-side
///   duplicate-sensitive aggregates, the node must carry the per-group
///   count column that scales them for join replication (vacuous for
///   coalescing, which keeps nothing).
///
/// A count-free partial aggregate at the root is a materialized view's
/// *state plan*: its states are the result, stored as an extent whose
/// readers coalesce them — which the extent-scan case above checks.
pub(crate) fn check_coalescing(plan: &Plan, out: &mut Vec<Violation>) {
    let plan = match plan {
        Plan::PartialAggregate { input, spec, .. } if spec.count.is_none() => input,
        _ => plan,
    };
    merge_walk(plan, None, &mut Vec::new(), out);
}

fn merge_walk<'p>(
    plan: &'p Plan,
    nearest: Option<&'p GroupBySpec>,
    preds_above: &mut Vec<&'p Predicate>,
    out: &mut Vec<Violation>,
) {
    match plan {
        Plan::Scan { .. } => {}
        Plan::ExtentScan { outputs, .. } => {
            // Stored partial states must be coalesced by a group-by above,
            // exactly like the output of a partial aggregate.
            if nearest.is_none() && outputs.iter().any(|c| matches!(c, Col::Part(_))) {
                out.push(Violation::new(
                    RULE_COALESCE,
                    "extent scan exposes stored partial aggregate states but no group-by \
                     above coalesces them (Figure 2)"
                        .into(),
                ));
            }
        }
        Plan::Join {
            left, right, preds, ..
        } => {
            let n = preds_above.len();
            preds_above.extend(preds.iter());
            merge_walk(left, nearest, preds_above, out);
            merge_walk(right, nearest, preds_above, out);
            preds_above.truncate(n);
        }
        // A full group-by finalizes: predicates above it no longer see
        // pre-aggregation rows, so the pending set restarts.
        Plan::GroupBy { input, spec, .. } => merge_walk(input, Some(spec), &mut Vec::new(), out),
        Plan::PartialAggregate { input, spec, .. } => {
            check_partial_node(input, spec, nearest, preds_above, out);
            merge_walk(input, nearest, preds_above, out);
        }
    }
}

fn check_partial_node(
    input: &Plan,
    spec: &PartialAggSpec,
    nearest: Option<&GroupBySpec>,
    preds_above: &[&Predicate],
    out: &mut Vec<Violation>,
) {
    let Some(g) = nearest else {
        out.push(Violation::new(
            RULE_COALESCE,
            "partial aggregate produces partial states but no group-by above merges them \
             (Figure 2)"
                .into(),
        ));
        return;
    };
    // Merge stage: identity, function and argument must line up.
    for (aref, a) in &spec.aggs {
        if aref.owner != g.owner {
            out.push(Violation::new(
                RULE_COALESCE,
                format!(
                    "partial aggregate decomposes {aref} but the nearest group-by above is \
                     {} (Figure 2 merge-stage mismatch)",
                    g.owner
                ),
            ));
            continue;
        }
        match g.aggs.get(aref.idx as usize) {
            None => out.push(Violation::new(
                RULE_COALESCE,
                format!(
                    "partial aggregate decomposes {aref} but {} declares only {} aggregate(s)",
                    g.owner,
                    g.aggs.len()
                ),
            )),
            Some(up) if up.func != a.func || up.arg != a.arg => out.push(Violation::new(
                RULE_COALESCE,
                format!(
                    "coalescing mismatch for {aref}: the partial stage computes `{a}` but \
                     the merge stage expects `{up}`"
                ),
            )),
            Some(_) => {}
        }
    }
    // Pushed keys: the final grouping columns this subtree produces and
    // every subtree column a predicate above still inspects.
    let avail: BTreeSet<Col> = input.output_cols().iter().copied().collect();
    let pushed: BTreeSet<Col> = spec.group_cols.iter().copied().collect();
    let mut required: BTreeSet<Col> = g
        .group_cols
        .iter()
        .copied()
        .filter(|c| avail.contains(c))
        .collect();
    for p in preds_above {
        required.extend(p.cols_used().into_iter().filter(|c| avail.contains(c)));
    }
    for c in required {
        if !pushed.contains(&c) {
            out.push(Violation::new(
                RULE_COALESCE,
                format!(
                    "partial aggregate drops {c} from its pushed grouping columns, but the \
                     merge above still groups or joins on it (Definition 1)"
                ),
            ));
        }
    }
    // Duplicate factor: kept duplicate-sensitive aggregates on the
    // partner side are scaled by this node's per-group count.
    let decomposed: BTreeSet<u32> = spec
        .aggs
        .iter()
        .filter(|(r, _)| r.owner == g.owner)
        .map(|(r, _)| r.idx)
        .collect();
    let kept_dup_sensitive = g
        .aggs
        .iter()
        .enumerate()
        .any(|(i, a)| !decomposed.contains(&(i as u32)) && a.func.is_duplicate_sensitive());
    if kept_dup_sensitive && spec.count.is_none() {
        out.push(Violation::new(
            RULE_COALESCE,
            "merge above the partial aggregate re-aggregates duplicate-sensitive \
             partner-side aggregates, but the node carries no per-group count column to \
             scale them (duplicate-factor compensation)"
                .into(),
        ));
    }
}

// ---------------------------------------------------------------------
// Materialized-view extent scans.
// ---------------------------------------------------------------------

/// Check every extent scan against the catalog's materialized-view
/// registry: the view must be registered, the scan must read the view's
/// extent table, every physical-to-logical column mapping must agree
/// with the extent layout (base column at a key position, finalized
/// aggregate at a finalized position, partial component at the matching
/// component position of a state-storing aggregate), and the extent
/// must be fresh — a rewrite over a stale extent would silently return
/// pre-modification data.
pub(crate) fn check_matview(plan: &Plan, catalog: &Catalog, out: &mut Vec<Violation>) {
    walk(plan, &mut |node| {
        let Plan::ExtentScan {
            view,
            table,
            cols,
            outputs,
            ..
        } = node
        else {
            return;
        };
        let Some(meta) = catalog.matview(view) else {
            out.push(Violation::new(
                RULE_MATVIEW,
                format!("extent scan references unregistered materialized view `{view}`"),
            ));
            return;
        };
        if !meta.extent.eq_ignore_ascii_case(table) {
            out.push(Violation::new(
                RULE_MATVIEW,
                format!(
                    "extent scan of `{view}` reads `{table}` but the view's extent is `{}`",
                    meta.extent
                ),
            ));
        }
        if meta.is_stale(catalog) {
            out.push(Violation::new(
                RULE_MATVIEW,
                format!(
                    "extent of `{view}` is stale: base data changed since its last build \
                     or refresh"
                ),
            ));
        }
        for (&c, o) in cols.iter().zip(outputs) {
            let ok = match o {
                Col::Base(_) => c < meta.layout.key_cols,
                Col::Agg(_) => meta.layout.aggs.iter().any(|a| a.finalized == c),
                Col::Part(p) => meta.layout.aggs.iter().enumerate().any(|(j, a)| {
                    a.components.get(p.part as usize) == Some(&c)
                        && meta
                            .def
                            .aggs
                            .get(j)
                            .is_some_and(|spec| stores_partial_state(spec.func))
                }),
            };
            if !ok {
                out.push(Violation::new(
                    RULE_MATVIEW,
                    format!(
                        "extent scan of `{view}` maps physical column {c} to {o}, which \
                         does not agree with the extent layout"
                    ),
                ));
            }
        }
    });
}

// ---------------------------------------------------------------------
// Degraded (traditional two-phase) shape.
// ---------------------------------------------------------------------

/// Check that a governor-degraded plan is a well-formed traditional
/// two-phase plan: no partial aggregation, every surviving view
/// group-by computed over exactly its view's declared relations
/// (nothing pulled or pushed), and the top group-by — present exactly
/// when the query has one — at the root.
pub(crate) fn check_degraded_shape(plan: &Plan, query: &CanonicalQuery, out: &mut Vec<Violation>) {
    let mut top_count = 0usize;
    walk(plan, &mut |node| match node {
        Plan::PartialAggregate { .. } => out.push(Violation::new(
            RULE_DEGRADED,
            "degraded plan contains a partial aggregate; the traditional two-phase plan \
             performs no early aggregation"
                .into(),
        )),
        Plan::GroupBy { input, spec, .. } => match spec.owner {
            ViewId::Top => top_count += 1,
            ViewId::View(i) => {
                let Some(view) = query.views.get(i as usize) else {
                    return;
                };
                if input.rel_set() != view.rel_set() {
                    out.push(Violation::new(
                        RULE_DEGRADED,
                        format!(
                            "degraded plan aggregates {} over relations {:?} instead of \
                             its declared block {:?} (group-by was moved across a join)",
                            spec.owner,
                            input.rels(),
                            view.rels
                        ),
                    ));
                }
            }
        },
        _ => {}
    });
    let top_at_root = matches!(
        plan,
        Plan::GroupBy { spec, .. } if spec.owner == ViewId::Top
    );
    match (&query.group, top_count) {
        (Some(_), 1) if top_at_root => {}
        (Some(_), 1) => out.push(Violation::new(
            RULE_DEGRADED,
            "degraded plan computes the top group-by below a join instead of at the root".into(),
        )),
        (Some(_), n) => out.push(Violation::new(
            RULE_DEGRADED,
            format!("degraded plan computes the top group-by {n} times"),
        )),
        (None, 0) => {}
        (None, n) => out.push(Violation::new(
            RULE_DEGRADED,
            format!("degraded plan computes {n} top group-by(s) for a query without one"),
        )),
    }
}

// ---------------------------------------------------------------------
// Shared walking and equivalence machinery.
// ---------------------------------------------------------------------

/// Pre-order traversal applying `f` at every node.
fn walk<'p>(plan: &'p Plan, f: &mut impl FnMut(&'p Plan)) {
    f(plan);
    match plan {
        Plan::Scan { .. } | Plan::ExtentScan { .. } => {}
        Plan::Join { left, right, .. } => {
            walk(left, f);
            walk(right, f);
        }
        Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => walk(input, f),
    }
}

/// Relation ids present in a bitset, ascending.
fn rel_ids(set: u64) -> Vec<RelId> {
    (0..64).filter(|i| set & (1 << i) != 0).map(RelId).collect()
}

/// Column equivalence classes induced by the simple equality predicates
/// (`a = b` over bare columns) of a subtree — join predicates and scan
/// filters alike. Transitive: `a = b` and `b = c` place all three in
/// one class.
struct EquivClasses {
    classes: Vec<BTreeSet<Col>>,
}

impl EquivClasses {
    fn collect(plan: &Plan) -> EquivClasses {
        let mut pairs = Vec::new();
        walk(plan, &mut |node| {
            let preds = match node {
                Plan::Scan { filters, .. } | Plan::ExtentScan { filters, .. } => filters.as_slice(),
                Plan::Join { preds, .. } => preds.as_slice(),
                Plan::GroupBy { .. } | Plan::PartialAggregate { .. } => &[],
            };
            for p in preds {
                if let Some(pair) = p.as_col_eq_col() {
                    pairs.push(pair);
                }
            }
        });
        let mut classes: Vec<BTreeSet<Col>> = Vec::new();
        for (a, b) in pairs {
            let ia = classes.iter().position(|s| s.contains(&a));
            let ib = classes.iter().position(|s| s.contains(&b));
            match (ia, ib) {
                (Some(x), Some(y)) if x == y => {}
                (Some(x), Some(y)) => {
                    let (lo, hi) = (x.min(y), x.max(y));
                    let merged = classes.remove(hi);
                    classes[lo].extend(merged);
                }
                (Some(x), None) => {
                    classes[x].insert(b);
                }
                (None, Some(y)) => {
                    classes[y].insert(a);
                }
                (None, None) => {
                    classes.push([a, b].into_iter().collect());
                }
            }
        }
        EquivClasses { classes }
    }

    fn same(&self, a: Col, b: Col) -> bool {
        a == b
            || self
                .classes
                .iter()
                .any(|s| s.contains(&a) && s.contains(&b))
    }
}
