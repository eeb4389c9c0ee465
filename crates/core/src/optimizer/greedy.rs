//! Single-block enumeration over *linear aggregate join trees* with the
//! greedy conservative heuristic (paper Section 5.2, after \[CS94\]).
//!
//! The execution space extends [SAC+79]'s linear join orders: "we will
//! consider all linear orderings of joins and group-by nodes ... some or
//! all of the joins may succeed execution of the group-by". At each DP
//! extension step the heuristic considers, besides the plain
//!
//! 1. `joinplan(optPlan(Sⱼ), Rⱼ)`,
//!
//! an early application of the block's group-by (whenever semantically
//! correct):
//!
//! 2. `joinplan(G(optPlan(Sⱼ)), Rⱼ)` — invariant grouping — and
//!    `joinplan(G₂(optPlan(Sⱼ)), Rⱼ)` with a *partial* `G₂` — simple
//!    coalescing grouping.
//!
//! "Next, we choose only one of the plans in (1) and (2). If Plan (2) is
//! cheaper and if the width of the computed relation corresponding to
//! Plan (2) is no more than that of Plan (1), then Plan (2) is chosen."
//! Because the grouped plan has no more tuples and no more width, and
//! the cost model is IO-only, the chosen plan is never worse — the
//! heuristic preserves the never-worse guarantee while keeping one plan
//! per subset.

use crate::cost::CardEstimator;
use crate::governor::ResourceGovernor;
use crate::optimizer::dp::{DpEntry, DpItem};
use crate::optimizer::stats::SearchStats;
use crate::optimizer::OptimizerConfig;
use crate::plan::{GroupBySpec, PartialAggSpec, Plan};
use crate::transform::props::output_key;
use aggview_common::{AggRef, AggViewError, Col, Predicate, Result};
use aggview_storage::Catalog;
use std::collections::{BTreeSet, HashMap};

/// A single-block query: items to join, conjunctive predicates, an
/// optional group-by, and what the block must output.
#[derive(Debug, Clone)]
pub struct BlockQuery {
    /// Leaves (scans or already-planned view blocks).
    pub items: Vec<DpItem>,
    /// Multi-item predicates (single-item predicates belong in the
    /// leaves — scan filters or view HAVINGs).
    pub preds: Vec<Predicate>,
    /// The block's group-by, if any (HAVING included in the spec).
    pub group: Option<GroupBySpec>,
    /// The block's output layout.
    pub project: Vec<Col>,
}

/// Group-by progress of a partial plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum GState {
    /// Group-by not yet applied.
    Raw,
    /// Group-by (and HAVING) already applied early.
    Grouped,
    /// A partial group-by applied; the coalescing group-by is pending.
    Partial,
}

#[derive(Debug, Clone)]
struct Entry {
    plan: Plan,
    cost: f64,
    state: GState,
}

/// Optimize a single block over the linear-aggregate-join-tree space,
/// without resource limits.
pub fn optimize_block(
    q: &BlockQuery,
    est: &CardEstimator<'_>,
    catalog: &Catalog,
    config: &OptimizerConfig,
    stats: &mut SearchStats,
) -> Result<DpEntry> {
    optimize_block_governed(
        q,
        est,
        catalog,
        config,
        stats,
        &ResourceGovernor::unlimited(),
    )
}

/// Optimize a single block under a [`ResourceGovernor`]: every subset
/// extension checks cancellation/deadline and charges the search budget,
/// so an exhausted budget surfaces as `ResourceExhausted` at the next
/// enumeration boundary (callers degrade to the traditional plan).
pub fn optimize_block_governed(
    q: &BlockQuery,
    est: &CardEstimator<'_>,
    catalog: &Catalog,
    config: &OptimizerConfig,
    stats: &mut SearchStats,
    gov: &ResourceGovernor,
) -> Result<DpEntry> {
    let n = q.items.len();
    if n == 0 {
        return Err(AggViewError::Optimize("empty block".into()));
    }
    if n > 24 {
        return Err(AggViewError::Optimize(format!(
            "block too large for exhaustive enumeration: {n} items"
        )));
    }
    let full: u64 = (1u64 << n) - 1;
    let outsets: Vec<BTreeSet<Col>> = q
        .items
        .iter()
        .map(|it| it.plan.output_cols().iter().copied().collect())
        .collect();
    let keys: Vec<Option<Vec<Col>>> = q
        .items
        .iter()
        .map(|it| output_key(&it.plan, catalog))
        .collect::<Result<_>>()?;
    let connected_graph = crate::optimizer::dp::graph_connected(&outsets, &q.preds);
    // Columns the block must deliver upward, before the group-by's
    // perspective: the group-by's own needs plus the final projection.
    let mut required: BTreeSet<Col> = q.project.iter().copied().collect();
    if let Some(g) = &q.group {
        required.extend(g.group_cols.iter().copied());
        for a in &g.aggs {
            required.extend(a.cols_used());
        }
        for h in &g.having {
            required.extend(h.cols_used().into_iter().filter(|c| !c.is_agg()));
        }
    }

    let ctx = Ctx {
        q,
        est,
        config,
        gov,
        outsets: &outsets,
        keys: &keys,
        required: &required,
        connected_graph,
    };

    let mut memo: HashMap<u64, Entry> = HashMap::new();
    for (i, it) in q.items.iter().enumerate() {
        memo.insert(
            1u64 << i,
            Entry {
                plan: it.plan.clone(),
                cost: it.props.cost,
                state: GState::Raw,
            },
        );
        stats.memo_entries += 1;
        gov.charge_memo(1)?;
    }

    for size in 2..=n {
        let mut subset = (1u64 << size) - 1;
        while subset <= full {
            extend(&ctx, subset, &mut memo, stats)?;
            let c = subset & subset.wrapping_neg();
            let r = subset + c;
            if r == 0 {
                break;
            }
            subset = (((r ^ subset) >> 2) / c) | r;
        }
    }

    let entry = memo
        .remove(&full)
        .ok_or_else(|| AggViewError::Optimize("block enumeration failed".into()))?;
    let entry = finish(&ctx, entry, stats)?;

    // Materialized extents are one more costed access path for the
    // whole block: take the extent plan only when strictly cheaper, so
    // the never-worse guarantee carries over unchanged.
    if config.use_matviews {
        if let Some(alt) = crate::matview::best_extent_entry(q, est, catalog, stats, gov)? {
            if alt.props.cost < entry.props.cost {
                return Ok(alt);
            }
        }
    }
    Ok(entry)
}

struct Ctx<'a, 'b> {
    q: &'a BlockQuery,
    est: &'a CardEstimator<'b>,
    config: &'a OptimizerConfig,
    gov: &'a ResourceGovernor,
    outsets: &'a [BTreeSet<Col>],
    keys: &'a [Option<Vec<Col>>],
    required: &'a BTreeSet<Col>,
    connected_graph: bool,
}

impl Ctx<'_, '_> {
    fn avail(&self, subset: u64) -> BTreeSet<Col> {
        (0..self.q.items.len())
            .filter(|i| subset & (1 << i) != 0)
            .flat_map(|i| self.outsets[i].iter().copied())
            .collect()
    }

    /// Predicates that become evaluable exactly when `new` joins `have`.
    fn newly_evaluable(&self, have: &BTreeSet<Col>, new: &BTreeSet<Col>) -> Vec<Predicate> {
        self.q
            .preds
            .iter()
            .filter(|p| {
                let cols = p.cols_used();
                cols.iter().all(|c| have.contains(c) || new.contains(c))
                    && !cols.iter().all(|c| have.contains(c))
                    && cols.iter().any(|c| new.contains(c))
            })
            .cloned()
            .collect()
    }

    /// Projection for a join whose output columns are `avail`: required
    /// columns plus operands of still-pending predicates.
    fn projection_for(&self, avail: &BTreeSet<Col>) -> Vec<Col> {
        let mut needed: BTreeSet<Col> = self
            .required
            .iter()
            .filter(|c| avail.contains(c))
            .copied()
            .collect();
        for p in &self.q.preds {
            if !p.cols_used().iter().all(|c| avail.contains(c)) {
                for c in p.cols_used() {
                    if avail.contains(&c) {
                        needed.insert(c);
                    }
                }
            }
        }
        // Partial aggregate states must always flow to the coalescing
        // group-by at the block root.
        for c in avail {
            if c.is_part() {
                needed.insert(*c);
            }
        }
        needed.into_iter().collect()
    }

    /// Columns needed above subset `prior` (required + pending preds).
    fn needed_above(&self, avail_prior: &BTreeSet<Col>) -> BTreeSet<Col> {
        let mut needed: BTreeSet<Col> = self
            .required
            .iter()
            .filter(|c| avail_prior.contains(c))
            .copied()
            .collect();
        for p in &self.q.preds {
            if !p.cols_used().iter().all(|c| avail_prior.contains(c)) {
                for c in p.cols_used() {
                    if avail_prior.contains(&c) {
                        needed.insert(c);
                    }
                }
            }
        }
        needed
    }

    /// Is an *invariant grouping* placement of the block's group-by
    /// legal over subset `prior` (items outside joined afterwards)?
    fn group_placement_ok(&self, prior: u64, prior_plan: &Plan) -> bool {
        let Some(g) = &self.q.group else { return false };
        let avail: BTreeSet<Col> = prior_plan.output_cols().iter().copied().collect();
        // Aggregate arguments must be computed here. Grouping columns may
        // be split: those inside `prior` become the pushed group-by's
        // grouping columns; those belonging to *outside* items are
        // functionally determined by the (mandatory) key join and attach
        // after the group-by — the [YL94] generalization the paper's
        // Section 4.1 builds on.
        for a in &g.aggs {
            if !a.cols_used().iter().all(|c| avail.contains(c)) {
                return false;
            }
        }
        let inside_group: BTreeSet<Col> = g
            .group_cols
            .iter()
            .filter(|c| avail.contains(c))
            .copied()
            .collect();
        // Every outside grouping column must come from some item (not be
        // an unavailable aggregate of this block).
        for c in &g.group_cols {
            if !avail.contains(c) && !self.outsets.iter().any(|o| o.contains(c)) {
                return false;
            }
        }
        if inside_group.is_empty() {
            // Without grouping columns on the prior side, cross
            // predicates cannot reference grouping columns; keep the
            // group-by later.
            return false;
        }
        // HAVING runs at the pushed group-by: it may only read inside
        // grouping columns and the aggregates.
        for h in &g.having {
            for c in h.cols_used() {
                if !c.is_agg() && !inside_group.contains(&c) {
                    return false;
                }
            }
        }
        let group_set = inside_group;
        // Raw columns needed *above the group-by* must survive it:
        // the block's final projection and the operands of predicates
        // still pending. (The group-by's own inputs — aggregate
        // arguments — are consumed here, so `self.required` would be too
        // strict.) Outside grouping columns are produced by later joins.
        let mut above: BTreeSet<Col> = self
            .q
            .project
            .iter()
            .filter(|c| avail.contains(c))
            .copied()
            .collect();
        for p in &self.q.preds {
            if !p.cols_used().iter().all(|c| avail.contains(c)) {
                for c in p.cols_used() {
                    if avail.contains(&c) {
                        above.insert(c);
                    }
                }
            }
        }
        for c in above {
            if !group_set.contains(&c) {
                return false;
            }
        }
        // Conditions per outside item.
        let n = self.q.items.len();
        for o in (0..n).filter(|i| prior & (1 << i) == 0) {
            let out = &self.outsets[o];
            let mut connected = false;
            let mut equated: BTreeSet<Col> = BTreeSet::new();
            for p in &self.q.preds {
                let cols = p.cols_used();
                let touches_o = cols.iter().any(|c| out.contains(c));
                if !touches_o {
                    continue;
                }
                let touches_prior = cols.iter().any(|c| avail.contains(c));
                if touches_prior {
                    connected = true;
                    // Prior-side operands must be grouping columns.
                    for c in &cols {
                        if avail.contains(c) && !group_set.contains(c) {
                            return false;
                        }
                    }
                }
                // Key-coverage evidence from equalities anywhere.
                if let Some((a, b)) = p.as_col_eq_col() {
                    if out.contains(&a) && !out.contains(&b) {
                        equated.insert(a);
                    }
                    if out.contains(&b) && !out.contains(&a) {
                        equated.insert(b);
                    }
                }
            }
            // Connectivity to the rest of the query (directly to prior or
            // to another outside item that itself chains to prior is
            // still a cross product risk — require a predicate at all).
            let touches_anything = connected
                || self
                    .q
                    .preds
                    .iter()
                    .any(|p| p.cols_used().iter().any(|c| out.contains(c)));
            if !touches_anything {
                return false;
            }
            // Each outside item must be joined on a full key so groups
            // are never duplicated.
            match &self.keys[o] {
                Some(key) if key.iter().all(|k| equated.contains(k)) => {}
                _ => return false,
            }
        }
        true
    }

    /// Is a *simple coalescing* partial group-by legal over `prior`?
    fn coalesce_placement_ok(&self, prior: u64, prior_plan: &Plan) -> bool {
        let Some(g) = &self.q.group else { return false };
        if g.aggs.is_empty() {
            return false;
        }
        let avail: BTreeSet<Col> = prior_plan.output_cols().iter().copied().collect();
        g.aggs.iter().all(|a| {
            a.func.is_decomposable() && a.cols_used().iter().all(|c| avail.contains(c))
        }) && prior != (1u64 << self.q.items.len()) - 1
            // Partial states cannot cross a second grouping: every raw
            // column needed above must be representable as a partial
            // grouping column (always true — we group by it).
            && !avail.is_empty()
    }

    /// Is an *eager partial aggregation* (Yan–Larson push-down) legal
    /// over `prior`? Unlike simple coalescing, only the aggregates whose
    /// arguments live entirely inside `prior` are pushed; aggregates on
    /// the partner side stay at the merge, scaled by the carried
    /// per-group count. Every aggregate must classify cleanly as pushed
    /// (arguments available and decomposable) or kept (arguments fully
    /// outside), and at least one must be kept — otherwise simple
    /// coalescing already covers the shape.
    fn eager_placement_ok(&self, prior: u64, prior_plan: &Plan) -> bool {
        let Some(g) = &self.q.group else { return false };
        if g.aggs.is_empty() || prior == (1u64 << self.q.items.len()) - 1 {
            return false;
        }
        let avail: BTreeSet<Col> = prior_plan.output_cols().iter().copied().collect();
        if avail.is_empty() || self.eager_group_cols(g, &avail).is_empty() {
            return false;
        }
        let mut kept = 0usize;
        for a in &g.aggs {
            let cols = a.cols_used();
            if cols.iter().all(|c| avail.contains(c)) {
                // COUNT(*) (no argument columns) always pushes.
                if !a.func.is_decomposable() {
                    return false;
                }
            } else if cols.iter().all(|c| !avail.contains(c)) {
                kept += 1;
            } else {
                // Arguments span both sides: no clean decomposition.
                return false;
            }
        }
        kept >= 1
    }

    /// Pushed grouping keys of an eager node over a subtree producing
    /// `avail`: the block's grouping columns inside the subtree plus the
    /// operands of still-pending (join) predicates — Definition 1's
    /// "grouping columns extended with join keys". Pushed aggregate
    /// arguments are deliberately *not* keys: the partial node consumes
    /// them.
    fn eager_group_cols(&self, g: &GroupBySpec, avail: &BTreeSet<Col>) -> Vec<Col> {
        let mut group_cols: Vec<Col> = Vec::new();
        let mut seen = BTreeSet::new();
        for c in g.group_cols.iter().filter(|c| avail.contains(c)) {
            if seen.insert(*c) {
                group_cols.push(*c);
            }
        }
        for p in &self.q.preds {
            if !p.cols_used().iter().all(|c| avail.contains(c)) {
                for c in p.cols_used() {
                    if avail.contains(&c) && seen.insert(c) {
                        group_cols.push(c);
                    }
                }
            }
        }
        group_cols
    }

    /// Build the eager partial-aggregate node over `prior_plan`: pushed
    /// grouping keys are the block's grouping columns inside `prior`
    /// plus the operands of still-pending (join) predicates, and the
    /// node always carries the duplicate-factor COUNT(*) so the merge
    /// can scale the partner side's duplicate-sensitive aggregates.
    fn make_eager(&self, prior_plan: &Plan) -> Plan {
        let g = self.q.group.as_ref().expect("checked by caller");
        let avail: BTreeSet<Col> = prior_plan.output_cols().iter().copied().collect();
        let spec = PartialAggSpec {
            group_cols: self.eager_group_cols(g, &avail),
            aggs: g
                .aggs
                .iter()
                .enumerate()
                .filter(|(_, a)| a.cols_used().iter().all(|c| avail.contains(c)))
                .map(|(i, a)| (AggRef::new(g.owner, i), a.clone()))
                .collect(),
            count: Some(AggRef::new(g.owner, g.aggs.len())),
        };
        Plan::partial_aggregate_all(prior_plan.clone(), spec)
    }

    /// Build the simple-coalescing partial aggregate over `prior_plan`:
    /// every aggregate decomposed, no duplicate factor.
    fn make_partial(&self, prior_plan: &Plan) -> Plan {
        let g = self.q.group.as_ref().expect("checked by caller");
        let avail: BTreeSet<Col> = prior_plan.output_cols().iter().copied().collect();
        let mut group_cols: Vec<Col> = Vec::new();
        let mut seen = BTreeSet::new();
        let add = |c: Col, seen: &mut BTreeSet<Col>, out: &mut Vec<Col>| {
            if seen.insert(c) {
                out.push(c);
            }
        };
        for c in g.group_cols.iter().filter(|c| avail.contains(c)) {
            add(*c, &mut seen, &mut group_cols);
        }
        for c in self.needed_above(&avail) {
            add(c, &mut seen, &mut group_cols);
        }
        let spec = PartialAggSpec {
            group_cols,
            aggs: g
                .aggs
                .iter()
                .enumerate()
                .map(|(i, a)| (AggRef::new(g.owner, i), a.clone()))
                .collect(),
            count: None,
        };
        Plan::partial_aggregate_all(prior_plan.clone(), spec)
    }

    /// Build the full group-by node over `plan` and re-project the block
    /// output.
    fn apply_group(&self, plan: Plan) -> Plan {
        let g = self.q.group.as_ref().expect("checked by caller");
        Plan::group_by(plan, g.clone(), self.q.project.clone())
    }
}

fn extend(
    ctx: &Ctx<'_, '_>,
    subset: u64,
    memo: &mut HashMap<u64, Entry>,
    stats: &mut SearchStats,
) -> Result<()> {
    ctx.gov.check_interrupt()?;
    let n = ctx.q.items.len();
    let members: Vec<usize> = (0..n).filter(|i| subset & (1 << i) != 0).collect();

    // Prefer connected extensions (no cross products when avoidable).
    let connected: Vec<usize> = members
        .iter()
        .copied()
        .filter(|&last| {
            let prior_cols = ctx.avail(subset & !(1u64 << last));
            !ctx.newly_evaluable(&prior_cols, &ctx.outsets[last])
                .is_empty()
        })
        .collect();
    let candidates: &[usize] = if connected.is_empty() && !ctx.connected_graph {
        &members
    } else {
        &connected
    };

    let mut best: Option<Entry> = None;
    for &last in candidates {
        let prior = subset & !(1u64 << last);
        let Some(sub) = memo.get(&prior).cloned() else {
            continue;
        };
        let prior_cols: BTreeSet<Col> = sub.plan.output_cols().iter().copied().collect();
        let join_preds = ctx.newly_evaluable(&prior_cols, &ctx.outsets[last]);
        let actual_avail: BTreeSet<Col> = prior_cols
            .iter()
            .copied()
            .chain(ctx.outsets[last].iter().copied())
            .collect();
        let project = ctx.projection_for(&actual_avail);

        // Plan (1): plain extension.
        let plain = Plan::join(
            sub.plan.clone(),
            ctx.q.items[last].plan.clone(),
            join_preds.clone(),
            project.clone(),
        );
        stats.plans_built += 1;
        ctx.gov.charge_plans(1)?;
        let plain_props = ctx.est.cost_plan(&plain)?;
        let mut chosen = Entry {
            plan: plain,
            cost: plain_props.cost,
            state: sub.state,
        };

        // Plans (2)/(2'): early group-by, only from a Raw prefix and only
        // when push-down is enabled.
        if sub.state == GState::Raw && ctx.config.push_down && ctx.q.group.is_some() {
            let mut alternatives: Vec<(Plan, GState)> = Vec::new();
            if ctx.group_placement_ok(prior, &sub.plan) {
                alternatives.push((ctx.apply_group_inline(&sub.plan), GState::Grouped));
            }
            if ctx.coalesce_placement_ok(prior, &sub.plan) {
                alternatives.push((ctx.make_partial(&sub.plan), GState::Partial));
            }
            if ctx.config.use_eager_agg && ctx.eager_placement_ok(prior, &sub.plan) {
                alternatives.push((ctx.make_eager(&sub.plan), GState::Partial));
            }
            for (early, state) in alternatives {
                stats.groupby_placements += 1;
                // Join predicates recomputed against the grouped output.
                let early_cols: BTreeSet<Col> = early.output_cols().iter().copied().collect();
                let jp = ctx.newly_evaluable(&early_cols, &ctx.outsets[last]);
                let early_avail: BTreeSet<Col> = early_cols
                    .iter()
                    .copied()
                    .chain(ctx.outsets[last].iter().copied())
                    .collect();
                let early_project = ctx.projection_for(&early_avail);
                let candidate =
                    Plan::join(early, ctx.q.items[last].plan.clone(), jp, early_project);
                stats.plans_built += 1;
                ctx.gov.charge_plans(1)?;
                let props = ctx.est.cost_plan(&candidate)?;
                // Greedy conservative rule. The paper compares cost and
                // *width*; since a grouped plan never has more tuples
                // than the plain plan, comparing total bytes
                // (cardinality × width) subsumes the width rule whenever
                // it fires — and extends it to partial aggregation,
                // whose state columns widen rows while collapsing
                // cardinality. Adopt the early-group-by plan only when
                // it is locally cheaper and produces no more data.
                // Peak intermediate bytes joins the rule: an early
                // aggregation that would hold a larger working set than
                // the plain join (e.g. a wide partial-state table) is
                // rejected even when its IO cost is lower.
                let plain_bytes = plain_props.card * plain_props.width;
                let cand_bytes = props.card * props.width;
                if props.cost < chosen.cost
                    && cand_bytes <= plain_bytes + 1e-6
                    && props.peak_bytes <= plain_props.peak_bytes + 1e-6
                {
                    chosen = Entry {
                        plan: candidate,
                        cost: props.cost,
                        state,
                    };
                }
            }
        }

        if best.as_ref().is_none_or(|b| chosen.cost < b.cost) {
            best = Some(chosen);
        }
    }
    if let Some(b) = best {
        memo.insert(subset, b);
        stats.memo_entries += 1;
        ctx.gov.charge_memo(1)?;
    }
    Ok(())
}

impl Ctx<'_, '_> {
    /// Group-by applied *inline* (not at the block root): projects its
    /// grouping columns and aggregates for the joins above.
    fn apply_group_inline(&self, plan: &Plan) -> Plan {
        let g = self.q.group.as_ref().expect("checked by caller");
        // Grouping columns restricted to what the subtree produces; the
        // remaining (functionally determined) grouping columns attach via
        // the later key joins — see `group_placement_ok`.
        let avail: BTreeSet<Col> = plan.output_cols().iter().copied().collect();
        let spec = GroupBySpec {
            owner: g.owner,
            group_cols: g
                .group_cols
                .iter()
                .filter(|c| avail.contains(c))
                .copied()
                .collect(),
            aggs: g.aggs.clone(),
            having: g.having.clone(),
        };
        Plan::group_by_all(plan.clone(), spec)
    }
}

/// Complete the block: apply the group-by if still pending, re-project.
fn finish(ctx: &Ctx<'_, '_>, entry: Entry, stats: &mut SearchStats) -> Result<DpEntry> {
    let plan = match (&ctx.q.group, entry.state) {
        (None, _) => reproject(entry.plan, &ctx.q.project)?,
        (Some(_), GState::Raw) => {
            stats.groupby_placements += 1;
            ctx.apply_group(entry.plan)
        }
        (Some(_), GState::Partial) => {
            // The coalescing group-by: same spec; the executor merges the
            // partial states it finds in its input.
            ctx.apply_group(entry.plan)
        }
        (Some(_), GState::Grouped) => reproject(entry.plan, &ctx.q.project)?,
    };
    let props = ctx.est.cost_plan(&plan)?;
    Ok(DpEntry { plan, props })
}

/// Narrow (or reorder) a plan's output to `project`.
fn reproject(plan: Plan, project: &[Col]) -> Result<Plan> {
    let avail: BTreeSet<Col> = plan.output_cols().iter().copied().collect();
    for c in project {
        if !avail.contains(c) {
            return Err(AggViewError::Optimize(format!(
                "block cannot produce required column {c}"
            )));
        }
    }
    Ok(plan.with_project(project.to_vec()))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::plan::all_cols;
    use crate::query::examples::{dept, emp, example2_query};
    use crate::query::QueryEnv;
    use aggview_common::{AggFunc, AggSpec, CmpOp, Expr, RelId, Value, ViewId};
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn setup(n_depts: usize, emps_per_dept: usize) -> (Catalog, QueryEnv) {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts,
            emps_per_dept,
            ..Default::default()
        })
        .unwrap();
        (cat, QueryEnv::new(vec!["emp".into(), "dept".into()]))
    }

    /// Example 2 as a BlockQuery: G0(emp ⋈ dept) with avg(sal) by dno.
    fn example2_block(_cat: &Catalog, _env: &QueryEnv, est: &CardEstimator<'_>) -> BlockQuery {
        let q = example2_query();
        let e = RelId(0);
        let d = RelId(1);
        let g = q.group.clone().unwrap();
        let items = vec![
            DpItem::new(Plan::scan(e, "emp", vec![], all_cols(e, 5)), est).unwrap(),
            DpItem::new(
                Plan::scan(
                    d,
                    "dept",
                    vec![Predicate::cmp_const(
                        Col::base(d, dept::BUDGET),
                        CmpOp::Lt,
                        Value::Float(1_000_000.0),
                    )],
                    all_cols(d, 4),
                ),
                est,
            )
            .unwrap(),
        ];
        BlockQuery {
            items,
            preds: vec![Predicate::eq_cols(
                Col::base(e, emp::DNO),
                Col::base(d, dept::DNO),
            )],
            group: Some(GroupBySpec {
                owner: ViewId::Top,
                group_cols: g.group_cols,
                aggs: g.aggs,
                having: vec![],
            }),
            project: vec![Col::base(e, emp::DNO), Col::agg(ViewId::Top, 0)],
        }
    }

    #[test]
    fn block_with_group_by_produces_legal_plan() {
        let (cat, env) = setup(20, 10);
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let q = example2_block(&cat, &env, &est);
        let mut stats = SearchStats::default();
        let entry =
            optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut stats).unwrap();
        entry.plan.validate(&cat, &env.rel_tables).unwrap();
        assert!(entry.plan.group_by_count() >= 1);
        assert_eq!(
            entry.plan.output_cols(),
            &[Col::base(RelId(0), emp::DNO), Col::agg(ViewId::Top, 0)]
        );
    }

    #[test]
    fn push_down_chosen_when_group_by_is_strongly_reducing() {
        // Many employees per department, tiny memory → aggregating emp
        // before the join saves join IO. Use a small memory budget so the
        // join actually spills on raw emp.
        let (cat, env) = setup(10, 400);
        let model = CostModel {
            io: crate::cost::ops::IoParams {
                mem_pages: 4.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let est = CardEstimator::new(model, &cat, &env);
        let q = example2_block(&cat, &env, &est);
        let mut stats = SearchStats::default();
        let greedy =
            optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut stats).unwrap();
        let trad =
            optimize_block(&q, &est, &cat, &OptimizerConfig::traditional(), &mut stats).unwrap();
        assert!(
            greedy.props.cost <= trad.props.cost + 1e-9,
            "greedy {} vs traditional {}",
            greedy.props.cost,
            trad.props.cost
        );
    }

    #[test]
    fn traditional_config_keeps_group_by_at_top() {
        let (cat, env) = setup(10, 10);
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let q = example2_block(&cat, &env, &est);
        let mut stats = SearchStats::default();
        let entry =
            optimize_block(&q, &est, &cat, &OptimizerConfig::traditional(), &mut stats).unwrap();
        // Exactly one group-by, at the root.
        assert_eq!(entry.plan.group_by_count(), 1);
        assert!(matches!(entry.plan, Plan::GroupBy { .. }));
    }

    #[test]
    fn no_group_block_is_plain_spj() {
        let (cat, env) = setup(10, 10);
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let mut q = example2_block(&cat, &env, &est);
        q.group = None;
        q.project = vec![Col::base(RelId(0), emp::SAL)];
        let mut stats = SearchStats::default();
        let entry =
            optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut stats).unwrap();
        entry.plan.validate(&cat, &env.rel_tables).unwrap();
        assert_eq!(entry.plan.group_by_count(), 0);
        assert_eq!(entry.plan.output_cols(), &[Col::base(RelId(0), emp::SAL)]);
    }

    #[test]
    fn grouped_plans_never_beat_raw_unless_cheaper_and_narrower() {
        // With generous memory the join never spills, so early grouping
        // cannot be cheaper; the chosen plan must be the traditional one.
        let (cat, env) = setup(5, 10);
        let model = CostModel {
            io: crate::cost::ops::IoParams {
                mem_pages: 4096.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let est = CardEstimator::new(model, &cat, &env);
        let q = example2_block(&cat, &env, &est);
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        let greedy = optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut s1).unwrap();
        let trad =
            optimize_block(&q, &est, &cat, &OptimizerConfig::traditional(), &mut s2).unwrap();
        assert!((greedy.props.cost - trad.props.cost).abs() < 1e-9);
    }

    #[test]
    fn search_stats_grow_with_push_down() {
        let (cat, env) = setup(10, 10);
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let q = example2_block(&cat, &env, &est);
        let mut with = SearchStats::default();
        let mut without = SearchStats::default();
        optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut with).unwrap();
        optimize_block(
            &q,
            &est,
            &cat,
            &OptimizerConfig::traditional(),
            &mut without,
        )
        .unwrap();
        assert!(with.groupby_placements >= without.groupby_placements);
        assert!(with.total() >= without.total());
    }

    #[test]
    fn empty_block_rejected() {
        let (cat, env) = setup(2, 2);
        let _ = &env;
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let q = BlockQuery {
            items: vec![],
            preds: vec![],
            group: None,
            project: vec![],
        };
        let mut stats = SearchStats::default();
        assert!(optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut stats).is_err());
    }

    #[test]
    fn coalescing_block_with_sum() {
        // SUM over the emp side: coalescing applicable; with tiny memory
        // the partial aggregation should not be *worse*.
        let (cat, env) = setup(8, 200);
        let model = CostModel {
            io: crate::cost::ops::IoParams {
                mem_pages: 4.0,
                ..Default::default()
            },
            ..Default::default()
        };
        let est = CardEstimator::new(model, &cat, &env);
        let mut q = example2_block(&cat, &env, &est);
        q.group.as_mut().unwrap().aggs = vec![AggSpec::new(
            AggFunc::Sum,
            Expr::col(Col::base(RelId(0), emp::SAL)),
        )];
        let mut stats = SearchStats::default();
        let entry =
            optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut stats).unwrap();
        entry.plan.validate(&cat, &env.rel_tables).unwrap();
        let mut s2 = SearchStats::default();
        let trad =
            optimize_block(&q, &est, &cat, &OptimizerConfig::traditional(), &mut s2).unwrap();
        assert!(entry.props.cost <= trad.props.cost + 1e-9);
    }
}
