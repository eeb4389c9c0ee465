//! Single-block enumeration over *linear aggregate join trees* with the
//! greedy conservative heuristic (paper Sections 5.1–5.2, after
//! [SAC+79] and \[CS94\]).
//!
//! The enumerator works over *items* rather than raw relations: an item
//! is any planned leaf — a base-table scan or an already-optimized
//! aggregate-view block ("treating relations in the latter set as base
//! relations"). Stage `i` builds the best plan for every subset of `i`
//! items by extending a stage `i−1` plan with one item, keeping the
//! cheapest per subset. Cross products are deferred: an extension is
//! considered only when a predicate connects the new item to the partial
//! plan, unless the item graph itself is disconnected.
//!
//! The execution space extends [SAC+79]'s linear join orders: "we will
//! consider all linear orderings of joins and group-by nodes ... some or
//! all of the joins may succeed execution of the group-by". At each
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
//! the paper's cost model is IO-only, the chosen plan is never worse —
//! the heuristic preserves the never-worse guarantee while keeping one
//! plan per subset. Under the default model, which also prices CPU work,
//! plans compare once each has paid for the block's group-by
//! (`Ctx::settled`).
//!
//! **A candidate costs one node.** A memo entry holds the sub-plan
//! behind an `Arc`, its [`PlanProps`] and its
//! output columns as a bitset. `joinplan` shares the two inputs, prices
//! the new join from their stored properties
//! ([`CardEstimator::cost_node`]) and answers every set question
//! (evaluable predicates, projection, early group-by legality) with
//! mask operations over the block's column universe, numbered once per
//! block; column and predicate vectors are materialised only for the
//! node being built. An early group-by and the join above it are first
//! priced without their CPU work (`CardEstimator::shape_node`): most
//! are rejected on their size, and only the rest pay for finding how
//! their group table looks rows up.

use crate::cost::{CardEstimator, Lookup, PlanProps};
use crate::governor::ResourceGovernor;
use crate::optimizer::colset::{ColSet, ColUniverse};
use crate::optimizer::stats::SearchStats;
use crate::optimizer::{bits_of, OptimizerConfig, Planned};
use crate::plan::{GroupBySpec, PartialAggSpec, Plan};
use crate::transform::props::output_key;
use aggview_common::{AggViewError, Col, Predicate, Result};
use aggview_storage::Catalog;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::sync::Arc;

/// A single-block query: items to join, conjunctive predicates, an
/// optional group-by, and what the block must output.
#[derive(Debug, Clone)]
pub struct BlockQuery {
    /// Leaves (scans or already-planned view blocks).
    pub items: Vec<Planned>,
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

/// A planned subtree inside one block's search: with its group-by
/// progress and its output columns in the block's numbering.
#[derive(Debug)]
struct Entry {
    sub: Planned,
    state: GState,
    out: ColSet,
}

/// Optimize a single block over the linear-aggregate-join-tree space,
/// without resource limits.
pub fn optimize_block(
    q: &BlockQuery,
    est: &CardEstimator<'_>,
    catalog: &Catalog,
    config: &OptimizerConfig,
    stats: &mut SearchStats,
) -> Result<Planned> {
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
) -> Result<Planned> {
    let n = q.items.len();
    if n == 0 {
        return Err(AggViewError::Optimize("empty block".into()));
    }
    if n > 24 {
        return Err(AggViewError::Optimize(format!(
            "block too large for exhaustive enumeration: {n} items"
        )));
    }
    let ctx = Ctx::new(q, est, catalog, config, gov)?;
    let full = ctx.full;

    let mut memo: HashMap<u64, Entry> = HashMap::new();
    for (i, it) in q.items.iter().enumerate() {
        memo.insert(
            1u64 << i,
            Entry {
                sub: it.clone(),
                state: GState::Raw,
                out: ctx.outsets[i],
            },
        );
        stats.memo_entries += 1;
        gov.charge_memo(1)?;
    }

    for size in 2..=n {
        // Gosper's hack: every subset of `size` bits, ascending.
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

/// The block's group-by, with its columns in the block's numbering.
struct GroupSets<'a> {
    spec: &'a GroupBySpec,
    /// Grouping columns, and the number of each in declared order.
    keys: ColSet,
    key_idx: Vec<usize>,
    /// Argument columns of each aggregate, and of all of them.
    args: Vec<ColSet>,
    all_args: ColSet,
    /// Non-aggregate operands of the HAVING predicates.
    having: ColSet,
}

/// Everything about a block that does not change while it is searched.
struct Ctx<'a, 'b> {
    q: &'a BlockQuery,
    est: &'a CardEstimator<'b>,
    config: &'a OptimizerConfig,
    gov: &'a ResourceGovernor,
    /// The subset holding every item.
    full: u64,
    /// Every column the block can mention: item outputs, predicate
    /// operands, the projection, and the group-by's inputs and outputs.
    uni: ColUniverse,
    /// Output columns of each item, and of all of them.
    outsets: Vec<ColSet>,
    all_out: ColSet,
    /// Operands of each predicate; for a bare `a = b`, the two sides.
    pred_cols: Vec<ColSet>,
    pred_eq: Vec<Option<(ColSet, ColSet)>>,
    /// Columns the block must deliver upward, before the group-by's
    /// perspective: the group-by's own needs plus the final projection.
    required: ColSet,
    /// The final projection alone.
    project: ColSet,
    /// Partial-state columns anywhere in the universe.
    part_cols: ColSet,
    group: Option<GroupSets<'a>>,
    /// A key of each item's output (only early grouping reads them).
    keys: Vec<Option<ColSet>>,
    connected_graph: bool,
    /// How the block's group-by will find its groups, when partial plans
    /// are compared with what they still owe it (see [`Ctx::settled`]);
    /// worked out the first time one is.
    owed: OnceCell<Option<Lookup>>,
}

impl<'a, 'b> Ctx<'a, 'b> {
    fn new(
        q: &'a BlockQuery,
        est: &'a CardEstimator<'b>,
        catalog: &Catalog,
        config: &'a OptimizerConfig,
        gov: &'a ResourceGovernor,
    ) -> Result<Self> {
        let pred_operands: Vec<_> = q.preds.iter().map(Predicate::cols_used).collect();
        let mut mentioned: Vec<Col> = q.project.clone();
        for it in &q.items {
            mentioned.extend_from_slice(it.plan.output_cols());
        }
        mentioned.extend(pred_operands.iter().flatten());
        let mut agg_args = Vec::new();
        let mut having_raw = Vec::new();
        if let Some(g) = &q.group {
            mentioned.extend_from_slice(&g.group_cols);
            mentioned.extend(g.agg_cols());
            // What an early aggregation can output: the aggregates, or
            // their partial states and the duplicate-factor count.
            for (i, a) in g.aggs.iter().enumerate() {
                mentioned.extend((0..a.func.partial_arity()).map(|k| Col::part(g.agg_ref(i), k)));
                agg_args.push(a.cols_used());
            }
            mentioned.push(Col::part(g.agg_ref(g.aggs.len()), 0));
            mentioned.extend(agg_args.iter().flatten());
            for h in &g.having {
                having_raw.extend(h.cols_used().into_iter().filter(|c| !c.is_agg()));
            }
            mentioned.extend_from_slice(&having_raw);
        }
        let uni = ColUniverse::new(mentioned)?;

        let outsets: Vec<ColSet> = q
            .items
            .iter()
            .map(|it| uni.set(it.plan.output_cols()))
            .collect();
        let all_out = outsets.iter().fold(ColSet::default(), |a, o| a | *o);
        let pred_cols: Vec<ColSet> = pred_operands.iter().map(|cols| uni.set(cols)).collect();
        let pred_eq = q
            .preds
            .iter()
            .map(|p| {
                p.as_col_eq_col()
                    .map(|(a, b)| (uni.set(&[a]), uni.set(&[b])))
            })
            .collect();
        let project = uni.set(&q.project);
        let group = q.group.as_ref().map(|g| {
            let args: Vec<ColSet> = agg_args.iter().map(|cols| uni.set(cols)).collect();
            GroupSets {
                spec: g,
                keys: uni.set(&g.group_cols),
                key_idx: g.group_cols.iter().filter_map(|c| uni.index(*c)).collect(),
                all_args: args.iter().fold(ColSet::default(), |a, s| a | *s),
                args,
                having: uni.set(&having_raw),
            }
        });
        let required = group
            .as_ref()
            .map_or(project, |g| project | g.keys | g.all_args | g.having);
        let keys = if config.push_down && q.group.is_some() {
            q.items
                .iter()
                .map(|it| Ok(output_key(&it.plan, catalog)?.map(|k| uni.set(&k))))
                .collect::<Result<_>>()?
        } else {
            vec![None; q.items.len()]
        };
        let connected_graph = graph_connected(&outsets, &pred_cols);
        let part_cols = uni.set(uni.all().iter().filter(|c| c.is_part()));
        Ok(Ctx {
            q,
            est,
            config,
            gov,
            full: (1u64 << q.items.len()) - 1,
            part_cols,
            uni,
            outsets,
            all_out,
            pred_cols,
            pred_eq,
            required,
            project,
            group,
            keys,
            connected_graph,
            owed: OnceCell::new(),
        })
    }
}

/// The block's items joined under all of its predicates: the rows its
/// group-by reads, for finding how it will look them up.
fn whole_block(q: &BlockQuery) -> Option<Arc<Plan>> {
    let mut items = q.items.iter().map(|it| it.plan.clone());
    let first = items.next()?;
    let mut preds = q.preds.clone();
    Some(items.fold(first, |joined, item| {
        Arc::new(Plan::join(
            joined,
            item,
            std::mem::take(&mut preds),
            Vec::new(),
        ))
    }))
}

/// How [`Ctx`] prices a node it builds.
#[derive(Debug, Clone, Copy)]
enum Price {
    /// [`CardEstimator::cost_node`].
    Full,
    /// [`CardEstimator::shape_node`]: an early aggregation, and the join
    /// above it, are rejected on their size before their work is priced.
    Shape,
}

/// Is the item graph connected under the predicates? (An edge links
/// every pair of items a predicate touches.) When it is, cross-product
/// joins are forbidden outright — every subset worth memoizing is
/// reachable through connected extensions; when it is not, cross
/// products are unavoidable and allowed everywhere.
fn graph_connected(outsets: &[ColSet], pred_cols: &[ColSet]) -> bool {
    let n = outsets.len();
    let mut parent: Vec<usize> = (0..n).collect();
    fn find(parent: &mut [usize], x: usize) -> usize {
        if parent[x] != x {
            let r = find(parent, parent[x]);
            parent[x] = r;
        }
        parent[x]
    }
    for pc in pred_cols {
        let mut touched = (0..n).filter(|&i| pc.intersects(outsets[i]));
        if let Some(first) = touched.next() {
            for other in touched {
                let a = find(&mut parent, first);
                let b = find(&mut parent, other);
                parent[a] = b;
            }
        }
    }
    (1..n).all(|i| find(&mut parent, i) == find(&mut parent, 0))
}

impl Ctx<'_, '_> {
    /// Columns the items of `subset` produce.
    fn avail(&self, subset: u64) -> ColSet {
        bits_of(subset).fold(ColSet::default(), |a, i| a | self.outsets[i])
    }

    /// Does predicate `pc` become evaluable exactly when `new` joins
    /// `have`: every operand available, not all of them before.
    fn newly_evaluable(pc: ColSet, have: ColSet, new: ColSet) -> bool {
        pc.is_subset(have | new) && !pc.is_subset(have) && pc.intersects(new)
    }

    /// Operands, inside `avail`, of the predicates `avail` cannot yet
    /// evaluate.
    fn pending_operands(&self, avail: ColSet) -> ColSet {
        self.pred_cols
            .iter()
            .filter(|pc| !pc.is_subset(avail))
            .fold(ColSet::default(), |a, pc| a | (*pc & avail))
    }

    /// Columns needed above a subtree producing `avail`: required
    /// columns plus operands of still-pending predicates.
    fn needed_above(&self, avail: ColSet) -> ColSet {
        (self.required & avail) | self.pending_operands(avail)
    }

    /// Projection for a join whose inputs produce `avail`. Partial
    /// aggregate states must always flow to the coalescing group-by at
    /// the block root.
    fn projection_for(&self, avail: ColSet) -> ColSet {
        self.needed_above(avail) | (avail & self.part_cols)
    }

    /// `joinplan(left, Rⱼ)`: join item `last` onto `left`, which
    /// produces `left_out`, and price the one new node as `price` says.
    fn join(
        &self,
        left: &Planned,
        left_out: ColSet,
        last: usize,
        stats: &mut SearchStats,
        price: Price,
    ) -> Result<(Planned, ColSet)> {
        let right = &self.q.items[last];
        let new = self.outsets[last];
        let preds = self
            .q
            .preds
            .iter()
            .zip(&self.pred_cols)
            .filter(|(_, pc)| Self::newly_evaluable(**pc, left_out, new))
            .map(|(p, _)| p.clone())
            .collect();
        let out = self.projection_for(left_out | new);
        let node = Plan::join(
            left.plan.clone(),
            right.plan.clone(),
            preds,
            self.uni.cols(out).collect(),
        );
        stats.plans_built += 1;
        self.gov.charge_plans(1)?;
        let joined = self.price(node, &[&left.props, &right.props], price)?;
        Ok((joined, out))
    }

    /// Plan `node` over `inputs`, priced as `price` says.
    fn price(&self, node: Plan, inputs: &[&PlanProps], price: Price) -> Result<Planned> {
        match price {
            Price::Full => Planned::over(node, inputs, self.est),
            Price::Shape => Ok(Planned {
                props: self.est.shape_node(&node, inputs)?,
                plan: Arc::new(node),
            }),
        }
    }

    /// Price in full a candidate early aggregation `early` over `sub`,
    /// and `joined`, item `last` joined onto it; both were priced by
    /// [`Price::Shape`].
    fn price_in_full(
        &self,
        sub: &Planned,
        early: &Planned,
        joined: Planned,
        last: usize,
    ) -> Result<Planned> {
        if !self.est.model.cpu {
            return Ok(joined);
        }
        let early = self.est.cost_node(&early.plan, &[&sub.props])?;
        let right = &self.q.items[last].props;
        let props = self.est.cost_node(&joined.plan, &[&early, right])?;
        Ok(Planned {
            plan: joined.plan,
            props,
        })
    }

    /// Is an *invariant grouping* placement of the block's group-by
    /// legal over subset `prior`, whose plan produces `avail` (items
    /// outside joined afterwards)?
    fn group_placement_ok(&self, prior: u64, avail: ColSet) -> bool {
        let Some(g) = &self.group else { return false };
        // Aggregate arguments must be computed here. Grouping columns may
        // be split: those inside `prior` become the pushed group-by's
        // grouping columns; those belonging to *outside* items are
        // functionally determined by the (mandatory) key join and attach
        // after the group-by — the [YL94] generalization the paper's
        // Section 4.1 builds on.
        if !g.all_args.is_subset(avail) {
            return false;
        }
        let inside_group = g.keys & avail;
        // Every outside grouping column must come from some item (not be
        // an unavailable aggregate of this block). Without grouping
        // columns on the prior side, cross predicates cannot reference
        // grouping columns; keep the group-by later.
        if !(g.keys & !avail).is_subset(self.all_out) || inside_group.is_empty() {
            return false;
        }
        // HAVING runs at the pushed group-by: it may only read inside
        // grouping columns and the aggregates.
        if !g.having.is_subset(inside_group) {
            return false;
        }
        // Raw columns needed *above the group-by* must survive it:
        // the block's final projection and the operands of predicates
        // still pending. (The group-by's own inputs — aggregate
        // arguments — are consumed here, so `self.required` would be too
        // strict.) Outside grouping columns are produced by later joins.
        let above = (self.project & avail) | self.pending_operands(avail);
        if !above.is_subset(inside_group) {
            return false;
        }
        // Conditions per outside item.
        for o in bits_of(self.full & !prior) {
            let out = self.outsets[o];
            let mut touched = false;
            let mut equated = ColSet::default();
            for (pc, eq) in self.pred_cols.iter().zip(&self.pred_eq) {
                if !pc.intersects(out) {
                    continue;
                }
                touched = true;
                // Prior-side operands must be grouping columns.
                if !(*pc & avail).is_subset(inside_group) {
                    return false;
                }
                // Key-coverage evidence from equalities anywhere.
                if let Some((a, b)) = eq {
                    if a.is_subset(out) && !b.is_subset(out) {
                        equated |= *a;
                    }
                    if b.is_subset(out) && !a.is_subset(out) {
                        equated |= *b;
                    }
                }
            }
            // An outside item no predicate touches is a cross product
            // risk; and each outside item must be joined on a full key
            // so groups are never duplicated.
            if !touched || !self.keys[o].is_some_and(|key| key.is_subset(equated)) {
                return false;
            }
        }
        true
    }

    /// Is a *simple coalescing* partial group-by legal over `prior`?
    /// Partial states cannot cross a second grouping: every raw column
    /// needed above must be representable as a partial grouping column
    /// (always true — we group by it).
    fn coalesce_placement_ok(&self, prior: u64, avail: ColSet) -> bool {
        let Some(g) = &self.group else { return false };
        !g.spec.aggs.is_empty()
            && g.spec.aggs.iter().all(|a| a.func.is_decomposable())
            && g.all_args.is_subset(avail)
            && prior != self.full
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
    fn eager_placement_ok(&self, prior: u64, avail: ColSet) -> bool {
        let Some(g) = &self.group else { return false };
        if g.spec.aggs.is_empty() || prior == self.full {
            return false;
        }
        // The pushed node needs at least one grouping key.
        if ((g.keys & avail) | self.pending_operands(avail)).is_empty() {
            return false;
        }
        let mut kept = 0usize;
        for (a, args) in g.spec.aggs.iter().zip(&g.args) {
            if args.is_subset(avail) {
                // COUNT(*) (no argument columns) always pushes.
                if !a.func.is_decomposable() {
                    return false;
                }
            } else if !args.intersects(avail) {
                kept += 1;
            } else {
                // Arguments span both sides: no clean decomposition.
                return false;
            }
        }
        kept >= 1
    }

    /// The block's grouping columns a subtree producing `avail` holds,
    /// in declared order, each once.
    fn keys_inside(g: &GroupSets, avail: ColSet) -> (Vec<Col>, ColSet) {
        let mut cols = Vec::new();
        let mut seen = ColSet::default();
        for (c, &i) in g.spec.group_cols.iter().zip(&g.key_idx) {
            if avail.contains(i) && !seen.contains(i) {
                seen.insert(i);
                cols.push(*c);
            }
        }
        (cols, seen)
    }

    /// The block's group-by (callers checked a placement of it).
    fn grouping(&self) -> &GroupSets<'_> {
        self.group.as_ref().expect("checked by caller")
    }

    /// What `e` will have cost once the block's group-by is paid for: its
    /// cost, plus the CPU price of that group-by over its output if it
    /// still owes it (raw, or partial states awaiting the merge). A plan
    /// that grouped early has paid already, so partial plans compare as
    /// they will be paid for. Under the paper's IO-only model the owed
    /// price is zero and partial plans compare as they stand.
    fn settled(&self, e: &Entry) -> f64 {
        let Some(g) = &self.group else {
            return e.sub.props.cost;
        };
        let owed = match (self.owed_lookup(), e.state) {
            (Some(lookup), GState::Raw | GState::Partial) => {
                let accs = g.spec.aggs.len();
                let cols = g.spec.group_cols.len() + accs;
                let by = (&g.spec.group_cols[..], lookup);
                self.est.group_cpu(by, &e.sub.props, accs, cols)
            }
            _ => 0.0,
        };
        e.sub.props.cost + owed
    }

    /// How the block's group-by will find its groups, over every item of
    /// the block; `None` when nothing is owed a price (the paper's
    /// model).
    fn owed_lookup(&self) -> Option<&Lookup> {
        let lookup = || {
            let g = self.group.as_ref()?;
            if !self.est.model.cpu {
                return None;
            }
            let whole = whole_block(self.q)?;
            Some(self.est.group_lookup(&g.spec.group_cols, &whole))
        };
        self.owed.get_or_init(lookup).as_ref()
    }

    /// Plan an early aggregation node over `sub`, priced by
    /// [`Price::Shape`].
    fn early(&self, node: Plan, state: GState, sub: &Entry) -> Result<Entry> {
        let out = self.uni.set(node.output_cols());
        Ok(Entry {
            sub: self.price(node, &[&sub.sub.props], Price::Shape)?,
            state,
            out,
        })
    }

    /// Group-by applied *inline* (not at the block root): projects its
    /// grouping columns and aggregates for the joins above. Grouping
    /// columns are restricted to what the subtree produces; the
    /// remaining (functionally determined) grouping columns attach via
    /// the later key joins — see `group_placement_ok`.
    fn apply_group_inline(&self, sub: &Entry) -> Result<Entry> {
        let g = self.grouping();
        let spec = GroupBySpec {
            owner: g.spec.owner,
            group_cols: g
                .spec
                .group_cols
                .iter()
                .zip(&g.key_idx)
                .filter(|(_, &i)| sub.out.contains(i))
                .map(|(c, _)| *c)
                .collect(),
            aggs: g.spec.aggs.clone(),
            having: g.spec.having.clone(),
        };
        let node = Plan::group_by_all(sub.sub.plan.clone(), spec);
        self.early(node, GState::Grouped, sub)
    }

    /// Build the simple-coalescing partial aggregate over `sub`: every
    /// aggregate decomposed, no duplicate factor. It groups by the
    /// block's grouping columns inside `sub` plus everything needed
    /// above.
    fn make_partial(&self, sub: &Entry) -> Result<Entry> {
        let g = self.grouping();
        let (mut group_cols, seen) = Self::keys_inside(g, sub.out);
        group_cols.extend(self.uni.cols(self.needed_above(sub.out) & !seen));
        let spec = PartialAggSpec {
            group_cols,
            aggs: (0..g.spec.aggs.len())
                .map(|i| (g.spec.agg_ref(i), g.spec.aggs[i].clone()))
                .collect(),
            count: None,
        };
        let node = Plan::partial_aggregate_all(sub.sub.plan.clone(), spec);
        self.early(node, GState::Partial, sub)
    }

    /// Build the eager partial-aggregate node over `sub`: pushed
    /// grouping keys are the block's grouping columns inside `sub` plus
    /// the operands of still-pending (join) predicates — Definition 1's
    /// "grouping columns extended with join keys"; pushed aggregate
    /// arguments are deliberately *not* keys, the partial node consumes
    /// them. The node always carries the duplicate-factor COUNT(*) so
    /// the merge can scale the partner side's duplicate-sensitive
    /// aggregates.
    fn make_eager(&self, sub: &Entry) -> Result<Entry> {
        let g = self.grouping();
        let (mut group_cols, mut keys) = Self::keys_inside(g, sub.out);
        for pc in self.pred_cols.iter().filter(|pc| !pc.is_subset(sub.out)) {
            let add = *pc & sub.out & !keys;
            group_cols.extend(self.uni.cols(add));
            keys |= add;
        }
        let n = g.spec.aggs.len();
        let spec = PartialAggSpec {
            group_cols,
            aggs: (0..n)
                .filter(|&i| g.args[i].is_subset(sub.out))
                .map(|i| (g.spec.agg_ref(i), g.spec.aggs[i].clone()))
                .collect(),
            count: Some(g.spec.agg_ref(n)),
        };
        let node = Plan::partial_aggregate_all(sub.sub.plan.clone(), spec);
        self.early(node, GState::Partial, sub)
    }
}

fn extend(
    ctx: &Ctx<'_, '_>,
    subset: u64,
    memo: &mut HashMap<u64, Entry>,
    stats: &mut SearchStats,
) -> Result<()> {
    ctx.gov.check_interrupt()?;

    // Prefer connected extensions (no cross products when avoidable).
    let connected = bits_of(subset)
        .filter(|&last| {
            let have = ctx.avail(subset & !(1u64 << last));
            let new = ctx.outsets[last];
            ctx.pred_cols
                .iter()
                .any(|pc| Ctx::newly_evaluable(*pc, have, new))
        })
        .fold(0u64, |set, last| set | (1u64 << last));
    let candidates = if connected == 0 && !ctx.connected_graph {
        subset
    } else {
        connected
    };

    let mut best: Option<(Entry, Option<f64>)> = None;
    for last in bits_of(candidates) {
        let prior = subset & !(1u64 << last);
        let Some(sub) = memo.get(&prior) else {
            continue; // prior subset unreachable (pruned)
        };

        // Plan (1): plain extension.
        let (plain, out) = ctx.join(&sub.sub, sub.out, last, stats, Price::Full)?;
        let plain_bytes = plain.props.out_bytes();
        let plain_peak = plain.props.peak_bytes;
        let mut chosen = Entry {
            sub: plain,
            state: sub.state,
            out,
        };
        // Its settled cost, once a comparison needs it.
        let mut chosen_cost = None;

        // Plans (2)/(2'): early group-by, only from a Raw prefix and only
        // when push-down is enabled.
        if sub.state == GState::Raw && ctx.config.push_down && ctx.group.is_some() {
            let mut alternatives: Vec<Entry> = Vec::new();
            if ctx.group_placement_ok(prior, sub.out) {
                alternatives.push(ctx.apply_group_inline(sub)?);
            }
            if ctx.coalesce_placement_ok(prior, sub.out) {
                alternatives.push(ctx.make_partial(sub)?);
            }
            if ctx.config.use_eager_agg && ctx.eager_placement_ok(prior, sub.out) {
                alternatives.push(ctx.make_eager(sub)?);
            }
            for early in alternatives {
                stats.groupby_placements += 1;
                // Join predicates and projection are recomputed against
                // the grouped output.
                let (cand, out) = ctx.join(&early.sub, early.out, last, stats, Price::Shape)?;
                // Greedy conservative rule. The paper compares cost and
                // *width*; since a grouped plan never has more tuples
                // than the plain plan, comparing total bytes
                // (cardinality × width) subsumes the width rule whenever
                // it fires — and extends it to partial aggregation,
                // whose state columns widen rows while collapsing
                // cardinality. Adopt the early-group-by plan only when
                // it is locally cheaper — once each plan's group-by is
                // paid for — and produces no more data.
                // Peak intermediate bytes joins the rule: an early
                // aggregation that would hold a larger working set than
                // the plain join (e.g. a wide partial-state table) is
                // rejected even when its IO cost is lower.
                if cand.props.out_bytes() > plain_bytes + 1e-6
                    || cand.props.peak_bytes > plain_peak + 1e-6
                {
                    continue;
                }
                let cand = Entry {
                    sub: ctx.price_in_full(&sub.sub, &early.sub, cand, last)?,
                    state: early.state,
                    out,
                };
                let cand_cost = ctx.settled(&cand);
                if cand_cost < *chosen_cost.get_or_insert_with(|| ctx.settled(&chosen)) {
                    chosen = cand;
                    chosen_cost = Some(cand_cost);
                }
            }
        }

        // Plans that owe the same — nothing, or the same group-by over
        // this subset's rows — compare as they stand.
        let cheaper = match &mut best {
            None => true,
            Some((b, b_cost)) => match (b.state, chosen.state) {
                (GState::Raw, GState::Raw) | (GState::Grouped, GState::Grouped) => {
                    chosen.sub.props.cost < b.sub.props.cost
                }
                _ => {
                    let b_cost = *b_cost.get_or_insert_with(|| ctx.settled(b));
                    *chosen_cost.get_or_insert_with(|| ctx.settled(&chosen)) < b_cost
                }
            },
        };
        if cheaper {
            best = Some((chosen, chosen_cost));
        }
    }
    if let Some((b, _)) = best {
        memo.insert(subset, b);
        stats.memo_entries += 1;
        ctx.gov.charge_memo(1)?;
    }
    Ok(())
}

/// Complete the block: apply the group-by if still pending, re-project.
fn finish(ctx: &Ctx<'_, '_>, entry: Entry, stats: &mut SearchStats) -> Result<Planned> {
    let project = ctx.q.project.clone();
    match (&ctx.q.group, entry.state) {
        // Raw: the group-by at the block root. Partial: the coalescing
        // group-by — same spec; the executor merges the partial states
        // it finds in its input.
        (Some(g), GState::Raw | GState::Partial) => {
            if entry.state == GState::Raw {
                stats.groupby_placements += 1;
            }
            let node = Plan::group_by(entry.sub.plan, g.clone(), project);
            Planned::over(node, &[&entry.sub.props], ctx.est)
        }
        // Narrow (or reorder) the root's output to the block's. The
        // root's inputs are not entries of their own, so this one plan
        // per block is priced from the leaves.
        (None, _) | (Some(_), GState::Grouped) => {
            let produced = |c: &&Col| ctx.uni.index(**c).is_some_and(|i| entry.out.contains(i));
            if let Some(missing) = project.iter().find(|c| !produced(c)) {
                return Err(AggViewError::Optimize(format!(
                    "block cannot produce required column {missing}"
                )));
            }
            let root = Arc::unwrap_or_clone(entry.sub.plan).with_project(project);
            Planned::new(root, ctx.est)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::PlanAnalyzer;
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
            Planned::new(Plan::scan(e, "emp", vec![], all_cols(e, 5)), est).unwrap(),
            Planned::new(
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
        PlanAnalyzer::new(&cat)
            .with_env(&env)
            .verify(&entry.plan)
            .unwrap();
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
        assert!(matches!(*entry.plan, Plan::GroupBy { .. }));
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
        PlanAnalyzer::new(&cat)
            .with_env(&env)
            .verify(&entry.plan)
            .unwrap();
        assert_eq!(entry.plan.group_by_count(), 0);
        assert_eq!(entry.plan.output_cols(), &[Col::base(RelId(0), emp::SAL)]);
    }

    #[test]
    fn grouped_plans_never_beat_raw_unless_cheaper_and_narrower() {
        // With generous memory the join never spills, so under the
        // paper's IO-only model early grouping cannot be cheaper; the
        // chosen plan must be the traditional one.
        let (cat, env) = setup(5, 10);
        let model = CostModel {
            io: crate::cost::ops::IoParams {
                mem_pages: 4096.0,
                ..Default::default()
            },
            ..CostModel::paper()
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
        PlanAnalyzer::new(&cat)
            .with_env(&env)
            .verify(&entry.plan)
            .unwrap();
        let mut s2 = SearchStats::default();
        let trad =
            optimize_block(&q, &est, &cat, &OptimizerConfig::traditional(), &mut s2).unwrap();
        assert!(entry.props.cost <= trad.props.cost + 1e-9);
    }

    /// customer ⋈ orders ⋈ lineitem, customer ⋈ nation: four full-width
    /// scans under the star schema's three key joins, no group-by.
    fn star_block(project: Col) -> (Catalog, QueryEnv, Vec<Plan>, Vec<Predicate>, Vec<Col>) {
        let cat = aggview_storage::datagen::gen_star(&aggview_storage::datagen::StarConfig {
            customers: 200,
            orders_per_customer: 4,
            lines_per_order: 3,
            ..Default::default()
        })
        .unwrap();
        let tables = ["customer", "orders", "lineitem", "nation"];
        let env = QueryEnv::new(tables.iter().map(|t| t.to_string()).collect());
        let scans = tables
            .iter()
            .enumerate()
            .map(|(i, t)| {
                let rel = RelId(i as u32);
                let arity = cat.get(t).unwrap().schema().len();
                Plan::scan(rel, *t, vec![], all_cols(rel, arity))
            })
            .collect();
        let preds = vec![
            // customer.cno = orders.cno
            Predicate::eq_cols(Col::base(RelId(0), 0), Col::base(RelId(1), 1)),
            // orders.ono = lineitem.ono
            Predicate::eq_cols(Col::base(RelId(1), 0), Col::base(RelId(2), 1)),
            // customer.nno = nation.nno
            Predicate::eq_cols(Col::base(RelId(0), 1), Col::base(RelId(3), 0)),
        ];
        (cat, env, scans, preds, vec![project])
    }

    fn spj_block(
        scans: &[Plan],
        preds: &[Predicate],
        project: &[Col],
        est: &CardEstimator<'_>,
    ) -> BlockQuery {
        BlockQuery {
            items: scans
                .iter()
                .map(|s| Planned::new(s.clone(), est).unwrap())
                .collect(),
            preds: preds.to_vec(),
            group: None,
            project: project.to_vec(),
        }
    }

    #[test]
    fn avoids_cross_products_when_connected_order_exists() {
        let (cat, env, scans, preds, project) = star_block(Col::base(RelId(0), 0));
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let q = spj_block(&scans, &preds, &project, &est);
        let mut stats = SearchStats::default();
        let entry =
            optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut stats).unwrap();
        PlanAnalyzer::new(&cat)
            .with_env(&env)
            .verify(&entry.plan)
            .unwrap();
        assert_eq!(entry.plan.join_count(), 3);
        assert_eq!(entry.plan.output_cols(), &project[..]);
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
        let (cat, env, scans, _, project) = star_block(Col::base(RelId(0), 0));
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        // No predicates at all → cross products are unavoidable.
        let q = spj_block(&scans[..2], &[], &project, &est);
        let mut stats = SearchStats::default();
        let entry =
            optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut stats).unwrap();
        assert_eq!(entry.plan.join_count(), 1);
    }

    #[test]
    fn best_order_never_costs_more_than_declaration_order() {
        let (cat, env, scans, preds, project) = star_block(Col::base(RelId(3), 1));
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let q = spj_block(&scans, &preds, &project, &est);
        let mut stats = SearchStats::default();
        let best = optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut stats).unwrap();

        // ((customer ⋈ orders) ⋈ lineitem) ⋈ nation, a legal member of
        // the space: each join applies the predicate that became
        // evaluable and projects what the block still needs.
        let co = Plan::join(
            scans[0].clone(),
            scans[1].clone(),
            vec![preds[0].clone()],
            vec![Col::base(RelId(0), 1), Col::base(RelId(1), 0)],
        );
        let col = Plan::join(
            co,
            scans[2].clone(),
            vec![preds[1].clone()],
            vec![Col::base(RelId(0), 1)],
        );
        let naive = Plan::join(col, scans[3].clone(), vec![preds[2].clone()], project);
        PlanAnalyzer::new(&cat)
            .with_env(&env)
            .verify(&naive)
            .unwrap();
        let naive = est.cost_plan(&naive).unwrap();
        assert!(
            best.props.cost <= naive.cost + 1e-9,
            "search {} vs declaration order {}",
            best.props.cost,
            naive.cost
        );
    }

    #[test]
    fn more_than_24_items_rejected() {
        let (cat, env, scans, _, project) = star_block(Col::base(RelId(0), 0));
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let many: Vec<Plan> = (0..25).map(|_| scans[0].clone()).collect();
        let q = spj_block(&many, &[], &project, &est);
        let mut stats = SearchStats::default();
        let err =
            optimize_block(&q, &est, &cat, &OptimizerConfig::default(), &mut stats).unwrap_err();
        assert!(err.message().contains("block too large"), "{err}");
    }
}
