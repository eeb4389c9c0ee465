//! Cost-annotation sanity: the estimator's properties for every
//! subtree must be finite, non-negative, and monotone.
//!
//! The plan IR carries no cost fields; the annotations under test are
//! the [`PlanProps`] the [`CardEstimator`] derives for each node. This
//! pass re-derives them bottom-up and checks the invariants any sane
//! IO cost model satisfies: cost and cardinality are finite and
//! non-negative, a node never costs less than its inputs, a group-by
//! never emits more rows than it consumes (modulo the estimator's
//! floor of one group), a join never exceeds the cross product, and a
//! scan never exceeds the table.

use super::Violation;
use crate::cost::{CardEstimator, CostModel, PlanProps};
use crate::plan::Plan;
use crate::query::QueryEnv;
use aggview_storage::Catalog;

pub(crate) const RULE: &str = "cost-sanity";

/// Absolute slack for floating-point comparisons.
const EPS: f64 = 1e-6;

/// Run the pass, appending one violation per defect found.
pub(crate) fn check(
    plan: &Plan,
    model: CostModel,
    catalog: &Catalog,
    env: &QueryEnv,
    out: &mut Vec<Violation>,
) {
    let est = CardEstimator::new(model, catalog, env);
    let _ = props_checked(plan, &est, catalog, out);
}

fn push(out: &mut Vec<Violation>, message: String) {
    out.push(Violation::new(RULE, message));
}

/// Cost the node from its children's (checked) properties and check its
/// annotations against them. `None` when the estimator cannot price the
/// subtree.
fn props_checked(
    plan: &Plan,
    est: &CardEstimator<'_>,
    catalog: &Catalog,
    out: &mut Vec<Violation>,
) -> Option<PlanProps> {
    let children: Vec<PlanProps> = match plan {
        Plan::Scan { .. } | Plan::ExtentScan { .. } => Vec::new(),
        Plan::Join { left, right, .. } => {
            let l = props_checked(left, est, catalog, out);
            let r = props_checked(right, est, catalog, out);
            match (l, r) {
                (Some(l), Some(r)) => vec![l, r],
                _ => return None,
            }
        }
        Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => {
            vec![props_checked(input, est, catalog, out)?]
        }
    };
    let props = match est.cost_node(plan, &children.iter().collect::<Vec<_>>()) {
        Ok(p) => p,
        Err(e) => {
            push(
                out,
                format!("cost model cannot price this subtree: {}", e.message()),
            );
            return None;
        }
    };
    for (what, v) in [
        ("cost", props.cost),
        ("cardinality", props.card),
        ("width", props.width),
        ("peak bytes", props.peak_bytes),
    ] {
        if !v.is_finite() || v < 0.0 {
            push(
                out,
                format!("estimated {what} is {v}; must be finite and non-negative"),
            );
        }
    }
    for c in &children {
        if props.cost < c.cost - EPS {
            push(
                out,
                format!(
                    "estimated cost {:.3} is below an input's cumulative cost {:.3}; \
                     cost must be monotone up the tree",
                    props.cost, c.cost
                ),
            );
        }
    }
    match plan {
        Plan::Scan { rel, table, .. } => {
            if let Ok(t) = catalog.get(table) {
                let rows = t.len() as f64;
                if props.card > rows + EPS {
                    push(
                        out,
                        format!(
                            "scan of {rel} estimates {:.1} rows but `{table}` holds {rows}",
                            props.card
                        ),
                    );
                }
            }
        }
        Plan::ExtentScan { view, table, .. } => {
            if let Ok(t) = catalog.get(table) {
                let rows = t.len() as f64;
                if props.card > rows + EPS {
                    push(
                        out,
                        format!(
                            "extent scan of `{view}` estimates {:.1} rows but `{table}` \
                             holds {rows}",
                            props.card
                        ),
                    );
                }
            }
        }
        Plan::Join { .. } => {
            let cross = children[0].card * children[1].card;
            if props.card > cross * (1.0 + EPS) + EPS {
                push(
                    out,
                    format!(
                        "join estimates {:.1} rows, above the cross product {:.1}",
                        props.card, cross
                    ),
                );
            }
        }
        Plan::GroupBy { .. } | Plan::PartialAggregate { .. } => {
            // The estimator floors group counts at one, so a grouping of
            // a sub-row estimate may legitimately report one group.
            let bound = children[0].card.max(1.0);
            if props.card > bound + EPS {
                push(
                    out,
                    format!(
                        "group-by estimates {:.1} groups from only {:.1} input rows",
                        props.card, children[0].card
                    ),
                );
            }
        }
    }
    Some(props)
}
