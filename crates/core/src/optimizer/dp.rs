//! Selinger-style dynamic-programming join enumeration ([SAC+79],
//! reviewed in the paper's Section 5.1).
//!
//! The enumerator works over *items* rather than raw relations: an item
//! is any leaf plan — a base-table scan or an already-optimized
//! aggregate-view block — with its estimated properties. This is exactly
//! how the paper's phase-2 enumeration treats pulled-up views: "treating
//! relations in the latter set as base relations".
//!
//! The execution space is linear (left-deep) join orders, the space
//! [SAC+79] searches and the one the paper's extensions are defined
//! over. Cross products are deferred: an extension is only considered
//! when a predicate connects the new item to the partial plan, unless no
//! connected extension exists for some subset.

use crate::cost::{CardEstimator, PlanProps};
use crate::governor::ResourceGovernor;
use crate::optimizer::stats::SearchStats;
use crate::plan::Plan;
use aggview_common::{AggViewError, Col, Predicate, Result};
use std::collections::{BTreeSet, HashMap};

/// A leaf the enumerator sequences: a plan plus its estimated properties.
#[derive(Debug, Clone)]
pub struct DpItem {
    pub plan: Plan,
    pub props: PlanProps,
}

impl DpItem {
    /// Build an item by costing `plan`.
    pub fn new(plan: Plan, est: &CardEstimator<'_>) -> Result<DpItem> {
        let props = est.cost_plan(&plan)?;
        Ok(DpItem { plan, props })
    }

    fn output_set(&self) -> BTreeSet<Col> {
        self.plan.output_cols().iter().copied().collect()
    }
}

/// A memo entry: the best plan found for a subset of items.
#[derive(Debug, Clone)]
pub struct DpEntry {
    pub plan: Plan,
    pub props: PlanProps,
}

/// Which predicates become evaluable exactly when `new_cols` joins
/// `have_cols`: every column available, not evaluable before.
fn newly_evaluable(
    preds: &[Predicate],
    have: &BTreeSet<Col>,
    new: &BTreeSet<Col>,
) -> Vec<Predicate> {
    preds
        .iter()
        .filter(|p| {
            let cols = p.cols_used();
            let all_avail = cols.iter().all(|c| have.contains(c) || new.contains(c));
            let was_avail = cols.iter().all(|c| have.contains(c));
            let is_new = cols.iter().any(|c| new.contains(c));
            all_avail && !was_avail && is_new
        })
        .cloned()
        .collect()
}

/// Is the item graph connected under `preds`? (An edge links every pair
/// of items a predicate touches.) When it is, the enumerators forbid
/// cross-product joins outright — every subset worth memoizing is
/// reachable through connected extensions; when it is not, cross
/// products are unavoidable and allowed everywhere.
pub(crate) fn graph_connected(outsets: &[BTreeSet<Col>], preds: &[Predicate]) -> bool {
    let n = outsets.len();
    if n <= 1 {
        return true;
    }
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut Vec<usize>, x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for p in preds {
        let touched: Vec<usize> = (0..n)
            .filter(|&i| p.cols_used().iter().any(|c| outsets[i].contains(c)))
            .collect();
        for w in touched.windows(2) {
            let a = find(&mut parent, w[0]);
            let b = find(&mut parent, w[1]);
            parent[a] = b;
        }
    }
    let root = find(&mut parent, 0);
    (1..n).all(|i| find(&mut parent, i) == root)
}

/// Columns a partial plan must carry upward: required outputs plus the
/// columns of predicates not yet evaluable.
fn needed_projection(
    avail: &BTreeSet<Col>,
    required: &BTreeSet<Col>,
    pending_preds: &[&Predicate],
) -> Vec<Col> {
    let mut needed: BTreeSet<Col> = required
        .iter()
        .filter(|c| avail.contains(c))
        .copied()
        .collect();
    for p in pending_preds {
        for c in p.cols_used() {
            if avail.contains(&c) {
                needed.insert(c);
            }
        }
    }
    needed.into_iter().collect()
}

/// Enumerate the optimal left-deep join order of `items` under `preds`,
/// projecting (at least) `required` at the root.
///
/// This is the paper's `Enumerate` function: stage `i` builds optimal
/// plans for every subset of size `i` by extending stage `i−1` plans
/// with one item (`joinplan`), keeping the cheapest per subset
/// (`MinCost`).
pub fn enumerate_linear(
    items: &[DpItem],
    preds: &[Predicate],
    required: &BTreeSet<Col>,
    est: &CardEstimator<'_>,
    stats: &mut SearchStats,
) -> Result<DpEntry> {
    enumerate_linear_governed(
        items,
        preds,
        required,
        est,
        stats,
        &ResourceGovernor::unlimited(),
    )
}

/// [`enumerate_linear`] under a [`ResourceGovernor`]: each subset
/// extension checks cancellation/deadline and charges the search budget.
pub fn enumerate_linear_governed(
    items: &[DpItem],
    preds: &[Predicate],
    required: &BTreeSet<Col>,
    est: &CardEstimator<'_>,
    stats: &mut SearchStats,
    gov: &ResourceGovernor,
) -> Result<DpEntry> {
    if items.is_empty() {
        return Err(AggViewError::Optimize("no items to enumerate".into()));
    }
    if items.len() > 63 {
        return Err(AggViewError::Optimize(format!(
            "too many items for bitset enumeration: {}",
            items.len()
        )));
    }
    let n = items.len();
    let full: u64 = if n == 64 { !0 } else { (1u64 << n) - 1 };
    let mut memo: HashMap<u64, DpEntry> = HashMap::with_capacity(1 << n.min(20));

    // Stage 1: single items (already planned leaves).
    for (i, it) in items.iter().enumerate() {
        memo.insert(
            1u64 << i,
            DpEntry {
                plan: it.plan.clone(),
                props: it.props.clone(),
            },
        );
        stats.memo_entries += 1;
        gov.charge_memo(1)?;
    }

    // Output columns per item, for predicate assignment.
    let outsets: Vec<BTreeSet<Col>> = items.iter().map(DpItem::output_set).collect();
    let connected_graph = graph_connected(&outsets, preds);

    for size in 2..=n {
        // Iterate subsets of `size` bits among n.
        let mut subset = (1u64 << size) - 1;
        while subset <= full {
            if (subset & full) == subset {
                extend_subset(
                    subset,
                    items,
                    &outsets,
                    preds,
                    required,
                    est,
                    stats,
                    &mut memo,
                    connected_graph,
                    gov,
                )?;
            }
            // Gosper's hack: next subset with the same popcount.
            let c = subset & subset.wrapping_neg();
            let r = subset + c;
            if r == 0 {
                break;
            }
            subset = (((r ^ subset) >> 2) / c) | r;
        }
    }
    memo.remove(&full)
        .ok_or_else(|| AggViewError::Optimize("enumeration produced no plan".into()))
}

#[allow(clippy::too_many_arguments)]
fn extend_subset(
    subset: u64,
    items: &[DpItem],
    outsets: &[BTreeSet<Col>],
    preds: &[Predicate],
    required: &BTreeSet<Col>,
    est: &CardEstimator<'_>,
    stats: &mut SearchStats,
    memo: &mut HashMap<u64, DpEntry>,
    connected_graph: bool,
    gov: &ResourceGovernor,
) -> Result<()> {
    gov.check_interrupt()?;
    let members: Vec<usize> = (0..items.len())
        .filter(|i| subset & (1 << i) != 0)
        .collect();

    // Availability for the whole subset.
    let avail: BTreeSet<Col> = members
        .iter()
        .flat_map(|&i| outsets[i].iter().copied())
        .collect();
    let pending: Vec<&Predicate> = preds
        .iter()
        .filter(|p| !p.cols_used().iter().all(|c| avail.contains(c)))
        .collect();
    let project = needed_projection(&avail, required, &pending);

    // Which last-items produce a connected (non-cross-product) join?
    let connected_last: Vec<usize> = members
        .iter()
        .copied()
        .filter(|&last| {
            let prior = subset & !(1u64 << last);
            let prior_cols: BTreeSet<Col> = (0..items.len())
                .filter(|i| prior & (1 << i) != 0)
                .flat_map(|i| outsets[i].iter().copied())
                .collect();
            !newly_evaluable(preds, &prior_cols, &outsets[last]).is_empty()
        })
        .collect();
    let candidates: &[usize] = if connected_last.is_empty() && !connected_graph {
        &members
    } else {
        &connected_last
    };

    let mut best: Option<DpEntry> = None;
    for &last in candidates {
        let prior = subset & !(1u64 << last);
        let Some(sub) = memo.get(&prior) else {
            continue; // prior subset unreachable (pruned)
        };
        let prior_cols: BTreeSet<Col> = sub.plan.output_cols().iter().copied().collect();
        let join_preds = newly_evaluable(preds, &prior_cols, &outsets[last]);
        let plan = Plan::join(
            sub.plan.clone(),
            items[last].plan.clone(),
            join_preds,
            project.clone(),
        );
        stats.plans_built += 1;
        gov.charge_plans(1)?;
        let props = est.cost_plan(&plan)?;
        if best.as_ref().is_none_or(|b| props.cost < b.props.cost) {
            best = Some(DpEntry { plan, props });
        }
    }
    if let Some(b) = best {
        memo.insert(subset, b);
        stats.memo_entries += 1;
        gov.charge_memo(1)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::plan::all_cols;
    use crate::query::QueryEnv;
    use aggview_common::RelId;
    use aggview_storage::datagen::{gen_star, StarConfig};
    use aggview_storage::Catalog;

    fn star() -> (Catalog, QueryEnv) {
        let cat = gen_star(&StarConfig {
            customers: 200,
            orders_per_customer: 4,
            lines_per_order: 3,
            ..Default::default()
        })
        .unwrap();
        let env = QueryEnv::new(vec![
            "customer".into(),
            "orders".into(),
            "lineitem".into(),
            "nation".into(),
        ]);
        (cat, env)
    }

    fn items(cat: &Catalog, env: &QueryEnv, est: &CardEstimator<'_>) -> Vec<DpItem> {
        env.rel_tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let arity = cat.get(t).unwrap().schema().len();
                DpItem::new(
                    Plan::scan(RelId(i as u32), t, vec![], all_cols(RelId(i as u32), arity)),
                    est,
                )
                .unwrap()
            })
            .collect()
    }

    fn chain_preds() -> Vec<Predicate> {
        vec![
            // customer.cno = orders.cno
            Predicate::eq_cols(Col::base(RelId(0), 0), Col::base(RelId(1), 1)),
            // orders.ono = lineitem.ono
            Predicate::eq_cols(Col::base(RelId(1), 0), Col::base(RelId(2), 1)),
            // customer.nno = nation.nno
            Predicate::eq_cols(Col::base(RelId(0), 1), Col::base(RelId(3), 0)),
        ]
    }

    #[test]
    fn enumerates_full_chain_with_all_predicates_applied() {
        let (cat, env) = star();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let its = items(&cat, &env, &est);
        let required: BTreeSet<Col> = [Col::base(RelId(2), 3)].into_iter().collect();
        let mut stats = SearchStats::default();
        let entry = enumerate_linear(&its, &chain_preds(), &required, &est, &mut stats).unwrap();
        entry.plan.validate(&cat, &env.rel_tables).unwrap();
        assert_eq!(entry.plan.join_count(), 3);
        assert_eq!(entry.plan.output_cols(), &[Col::base(RelId(2), 3)]);
        assert!(stats.plans_built > 0);
        // All three predicates must appear somewhere in the tree.
        let explained = entry.plan.explain();
        assert!(explained.matches('=').count() >= 3, "{explained}");
    }

    #[test]
    fn single_item_returns_leaf() {
        let (cat, env) = star();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let its = items(&cat, &env, &est);
        let mut stats = SearchStats::default();
        let required: BTreeSet<Col> = [Col::base(RelId(0), 0)].into_iter().collect();
        let entry = enumerate_linear(&its[..1], &[], &required, &est, &mut stats).unwrap();
        assert_eq!(entry.plan.join_count(), 0);
    }

    #[test]
    fn avoids_cross_products_when_connected_order_exists() {
        let (cat, env) = star();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let its = items(&cat, &env, &est);
        let required: BTreeSet<Col> = [Col::base(RelId(0), 0)].into_iter().collect();
        let mut stats = SearchStats::default();
        let entry = enumerate_linear(&its, &chain_preds(), &required, &est, &mut stats).unwrap();
        // Every join in the chosen plan must carry at least one predicate.
        fn no_cross(p: &Plan) -> bool {
            match p {
                Plan::Join {
                    left, right, preds, ..
                } => !preds.is_empty() && no_cross(left) && no_cross(right),
                Plan::Scan { .. } | Plan::ExtentScan { .. } | Plan::EmptyScan { .. } => true,
                Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => {
                    no_cross(input)
                }
            }
        }
        assert!(no_cross(&entry.plan), "{}", entry.plan.explain());
    }

    #[test]
    fn disconnected_items_still_get_a_plan() {
        let (cat, env) = star();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let its = items(&cat, &env, &est);
        let required: BTreeSet<Col> = [Col::base(RelId(0), 0)].into_iter().collect();
        let mut stats = SearchStats::default();
        // No predicates at all → cross products are unavoidable.
        let entry = enumerate_linear(&its[..2], &[], &required, &est, &mut stats).unwrap();
        assert_eq!(entry.plan.join_count(), 1);
    }

    #[test]
    fn dp_beats_worst_linear_order() {
        // The optimal plan should never cost more than the plan that
        // joins in declaration order (a legal member of the space).
        let (cat, env) = star();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let its = items(&cat, &env, &est);
        let preds = chain_preds();
        let required: BTreeSet<Col> = [Col::base(RelId(3), 1)].into_iter().collect();
        let mut stats = SearchStats::default();
        let best = enumerate_linear(&its, &preds, &required, &est, &mut stats).unwrap();

        // Declaration order: ((c ⋈ o) ⋈ l) ⋈ n.
        let mut cols: BTreeSet<Col> = its[0].output_set();
        let mut plan = its[0].plan.clone();
        for it in &its[1..] {
            let jp = newly_evaluable(&preds, &cols, &it.output_set());
            cols.extend(it.output_set());
            let pending: Vec<&Predicate> = preds
                .iter()
                .filter(|p| !p.cols_used().iter().all(|c| cols.contains(c)))
                .collect();
            let project = needed_projection(&cols, &required, &pending);
            plan = Plan::join(plan, it.plan.clone(), jp, project);
        }
        let naive = est.cost_plan(&plan).unwrap();
        assert!(
            best.props.cost <= naive.cost + 1e-9,
            "dp {} vs naive {}",
            best.props.cost,
            naive.cost
        );
    }

    #[test]
    fn too_many_items_rejected() {
        let (cat, env) = star();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let one = items(&cat, &env, &est).remove(0);
        let many: Vec<DpItem> = (0..70).map(|_| one.clone()).collect();
        let mut stats = SearchStats::default();
        let required = BTreeSet::new();
        assert!(enumerate_linear(&many, &[], &required, &est, &mut stats).is_err());
        assert!(enumerate_linear(&[], &[], &required, &est, &mut stats).is_err());
    }
}
