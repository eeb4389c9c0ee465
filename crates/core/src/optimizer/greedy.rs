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
//! **A candidate costs one price, and is not built.** A memo entry holds
//! its [`PlanProps`], its output columns as a bitset and how it is made
//! (which entry it extends, with which item, through which early
//! aggregation). `joinplan` prices the new join from its inputs' stored
//! properties with the cost model's own arithmetic
//! (`CardEstimator::join_price`, `group_price`: what `cost_node` runs)
//! and answers every set question (evaluable predicates, projection,
//! early group-by legality) with mask operations over the block's
//! column universe, numbered once per block. Only the candidate a subset
//! keeps gets its distinct counts, and nodes are built only for the plan
//! the block returns. An early group-by and the join above it are first
//! priced without their CPU work: most are rejected on their size, and
//! only the rest pay for finding how their group table looks rows up.

use crate::cost::model::{capped_at, group_output, streams};
use crate::cost::{CardEstimator, Lookup, PlanProps};
use crate::governor::ResourceGovernor;
use crate::optimizer::colset::{ColSet, ColUniverse};
use crate::optimizer::facts::PredFacts;
use crate::optimizer::stats::SearchStats;
use crate::optimizer::{bits_of, OptimizerConfig, Planned};
use crate::plan::{GroupBySpec, PartialAggSpec, Plan};
use crate::transform::props::{determinant_over, output_key};
use aggview_common::{AggViewError, Col, Predicate, Result};
use std::borrow::Cow;
use std::cell::OnceCell;
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::Arc;

/// A single-block query: items to join, conjunctive predicates, an
/// optional group-by, and what the block must output.
#[derive(Debug, Clone)]
pub(crate) struct BlockQuery<'a> {
    /// Leaves (scans or already-planned view blocks).
    pub items: Vec<Planned>,
    /// Multi-item predicates (single-item predicates belong in the
    /// leaves — scan filters or view HAVINGs), with the answers the
    /// statement worked out for them.
    pub preds: Vec<&'a PredFacts>,
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

/// The best plan found for one subset of a block's items: its
/// properties, its group-by progress, its output columns in the block's
/// numbering, and how it is made. Its nodes are built only when a plan
/// that contains it is ([`Ctx::plan_of`]).
#[derive(Debug)]
struct Entry<'a> {
    props: Cow<'a, PlanProps>,
    state: GState,
    out: ColSet,
    made: Made,
    /// Its plan, once built.
    plan: OnceCell<Arc<Plan>>,
}

/// How a memo entry is made.
#[derive(Debug)]
enum Made {
    /// It is item `i`.
    Item(usize),
    /// Item `last` joined onto the entry of subset `prior`, or onto an
    /// early aggregation of it.
    Join {
        prior: u64,
        early: Option<Early>,
        last: usize,
    },
}

/// The best plan found for each subset of a block's items.
type Memo<'a> = HashMap<u64, Entry<'a>, BuildHasherDefault<SubsetHash>>;

/// Hashes a subset by one multiplication (Fibonacci hashing): a subset
/// is its own well-spread key, and SipHash's resistance to chosen keys
/// buys nothing here.
#[derive(Default)]
struct SubsetHash(u64);

impl Hasher for SubsetHash {
    fn write(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.write_u64(self.0 << 8 | u64::from(b));
        }
    }

    fn write_u64(&mut self, subset: u64) {
        self.0 = subset.wrapping_mul(0x9e37_79b9_7f4a_7c15);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// Optimize a single block over the linear-aggregate-join-tree space,
/// without resource limits.
#[cfg(test)]
fn optimize_block(
    q: &BlockQuery,
    est: &CardEstimator<'_>,
    config: &OptimizerConfig,
    stats: &mut SearchStats,
) -> Result<Planned> {
    optimize_block_governed(q, est, config, stats, &ResourceGovernor::unlimited())
}

/// Optimize a single block under a [`ResourceGovernor`]: every subset
/// extension checks cancellation/deadline and charges the search budget,
/// so an exhausted budget surfaces as `ResourceExhausted` at the next
/// enumeration boundary (callers degrade to the traditional plan).
pub(crate) fn optimize_block_governed(
    q: &BlockQuery,
    est: &CardEstimator<'_>,
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
    let entry = match n {
        1 => {
            stats.memo_entries += 1;
            gov.charge_memo(1)?;
            only_item(q, est, stats)?
        }
        _ => search(q, est, config, stats, gov)?,
    };

    // Materialized extents are one more costed access path for the
    // whole block: take the extent plan only when strictly cheaper, so
    // the never-worse guarantee carries over unchanged.
    if config.use_matviews {
        if let Some(alt) = crate::matview::best_extent_entry(q, est, stats, gov)? {
            if alt.props.cost < entry.props.cost {
                return Ok(alt);
            }
        }
    }
    Ok(entry)
}

/// Search a block of several items: every subset, smallest first, then
/// the whole block completed.
fn search(
    q: &BlockQuery,
    est: &CardEstimator<'_>,
    config: &OptimizerConfig,
    stats: &mut SearchStats,
    gov: &ResourceGovernor,
) -> Result<Planned> {
    let n = q.items.len();
    let ctx = Ctx::new(q, est, config, gov)?;
    let full = ctx.full;

    // Room for every subset of a small block, so the memo never rehashes.
    let mut memo = Memo::with_capacity_and_hasher(1 << n.min(6), Default::default());
    for (i, it) in q.items.iter().enumerate() {
        memo.insert(
            1u64 << i,
            Entry {
                props: Cow::Borrowed(&it.props),
                state: GState::Raw,
                out: ctx.outsets[i],
                made: Made::Item(i),
                plan: OnceCell::from(it.plan.clone()),
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
    finish(&ctx, entry, &memo, stats)
}

/// A one-item block: its item under the block's group-by, or narrowed to
/// the block's output and priced whole.
fn only_item(q: &BlockQuery, est: &CardEstimator<'_>, stats: &mut SearchStats) -> Result<Planned> {
    let item = &q.items[0];
    let project = q.project.clone();
    if let Some(g) = &q.group {
        stats.groupby_placements += 1;
        let node = Plan::group_by(item.plan.clone(), g.clone(), project);
        return Planned::over(node, &[&item.props], est);
    }
    let outputs = item.plan.output_cols();
    if let Some(missing) = project.iter().find(|c| !outputs.contains(c)) {
        return Err(AggViewError::Optimize(format!(
            "block cannot produce required column {missing}"
        )));
    }
    if outputs == project {
        return Ok(item.clone());
    }
    Planned::new(
        Arc::unwrap_or_clone(item.plan.clone()).with_project(project),
        est,
    )
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

impl GroupSets<'_> {
    /// The partial-state columns of aggregates `aggs`, in order.
    fn partial_states<'s>(
        &'s self,
        aggs: impl Iterator<Item = usize> + 's,
    ) -> impl Iterator<Item = Col> + 's {
        let g = self.spec;
        aggs.flat_map(move |i| {
            (0..g.aggs[i].func.partial_arity()).map(move |k| Col::part(g.agg_ref(i), k))
        })
    }
}

/// Everything about a block that does not change while it is searched.
struct Ctx<'a, 'b> {
    q: &'a BlockQuery<'a>,
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
    /// Operands of each predicate.
    pred_cols: Vec<ColSet>,
    /// Columns the block must deliver upward, before the group-by's
    /// perspective: the group-by's own needs plus the final projection.
    required: ColSet,
    /// The final projection alone.
    project: ColSet,
    /// Partial-state columns anywhere in the universe.
    part_cols: ColSet,
    group: Option<GroupSets<'a>>,
    /// A key of each item's output, worked out the first time an early
    /// grouping asks ([`Ctx::item_keys`]).
    keys: OnceCell<Vec<Option<ColSet>>>,
    connected_graph: bool,
    /// How the block's group-by will find its groups, when partial plans
    /// are compared with what they still owe it (see [`Ctx::settled`]);
    /// worked out the first time one is.
    owed: OnceCell<Option<Lookup>>,
}

impl<'a, 'b> Ctx<'a, 'b> {
    fn new(
        q: &'a BlockQuery<'a>,
        est: &'a CardEstimator<'b>,
        config: &'a OptimizerConfig,
        gov: &'a ResourceGovernor,
    ) -> Result<Self> {
        let mut mentioned: Vec<Col> = Vec::with_capacity(64);
        mentioned.extend_from_slice(&q.project);
        for it in &q.items {
            mentioned.extend_from_slice(it.plan.output_cols());
        }
        for f in &q.preds {
            mentioned.extend_from_slice(&f.cols);
        }
        if let Some(g) = &q.group {
            mentioned.extend_from_slice(&g.group_cols);
            mentioned.extend((0..g.aggs.len()).map(|i| Col::agg(g.owner, i)));
            // What an early aggregation can output: the aggregates, or
            // their partial states and the duplicate-factor count.
            mentioned.extend(g.aggs.iter().enumerate().flat_map(|(i, a)| {
                (0..a.func.partial_arity()).map(move |k| Col::part(g.agg_ref(i), k))
            }));
            mentioned.push(Col::part(g.agg_ref(g.aggs.len()), 0));
            for arg in g.aggs.iter().filter_map(|a| a.arg.as_ref()) {
                arg.for_each_col(&mut |c| mentioned.push(c));
            }
            for h in &g.having {
                h.for_each_col(&mut |c| mentioned.extend((!c.is_agg()).then_some(c)));
            }
        }
        let uni = ColUniverse::new(mentioned)?;

        let outsets: Vec<ColSet> = q
            .items
            .iter()
            .map(|it| uni.set(it.plan.output_cols()))
            .collect();
        let all_out = outsets.iter().fold(ColSet::default(), |a, o| a | *o);
        let pred_cols: Vec<ColSet> = q.preds.iter().map(|f| uni.set(&f.cols)).collect();
        let project = uni.set(&q.project);
        let group = q.group.as_ref().map(|g| {
            let mut having = ColSet::default();
            for h in &g.having {
                h.for_each_col(&mut |c| {
                    if let Some(i) = uni.index(c).filter(|_| !c.is_agg()) {
                        having.insert(i);
                    }
                });
            }
            let args: Vec<ColSet> = g
                .aggs
                .iter()
                .map(|a| {
                    let mut set = ColSet::default();
                    if let Some(arg) = &a.arg {
                        arg.for_each_col(&mut |c| {
                            if let Some(i) = uni.index(c) {
                                set.insert(i);
                            }
                        });
                    }
                    set
                })
                .collect();
            GroupSets {
                spec: g,
                keys: uni.set(&g.group_cols),
                key_idx: g.group_cols.iter().filter_map(|c| uni.index(*c)).collect(),
                all_args: args.iter().fold(ColSet::default(), |a, s| a | *s),
                args,
                having,
            }
        });
        let required = group
            .as_ref()
            .map_or(project, |g| project | g.keys | g.all_args | g.having);
        let connected_graph = graph_connected(&outsets, &pred_cols);
        // Partial states sort last in `Col` order.
        let mut part_cols = ColSet::default();
        let first_part = uni.all().partition_point(|c| !c.is_part());
        (first_part..uni.all().len()).for_each(|i| part_cols.insert(i));
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
            required,
            project,
            group,
            keys: OnceCell::new(),
            connected_graph,
            owed: OnceCell::new(),
        })
    }

    /// A key of each item's output, in the block's numbering.
    fn item_keys(&self) -> Result<&[Option<ColSet>]> {
        if let Some(keys) = self.keys.get() {
            return Ok(keys);
        }
        let key =
            |it: &Planned| Ok(output_key(&it.plan, self.est.catalog)?.map(|k| self.uni.set(&k)));
        let keys = self.q.items.iter().map(key).collect::<Result<_>>()?;
        Ok(self.keys.get_or_init(|| keys))
    }
}

/// Is the item graph connected under the predicates? (An edge links
/// every pair of items a predicate touches.) When it is, cross-product
/// joins are forbidden outright — every subset worth memoizing is
/// reachable through connected extensions; when it is not, cross
/// products are unavoidable and allowed everywhere.
fn graph_connected(outsets: &[ColSet], pred_cols: &[ColSet]) -> bool {
    let touched = |pc: &ColSet| {
        let items = outsets.iter().enumerate();
        items.fold(0u64, |m, (i, o)| m | u64::from(pc.intersects(*o)) << i)
    };
    // Grow the items reachable from the first until no predicate adds one.
    let mut reached = 1u64;
    loop {
        let before = reached;
        for pc in pred_cols {
            let t = touched(pc);
            if t & reached != 0 {
                reached |= t;
            }
        }
        if reached == before {
            return reached.count_ones() as usize == outsets.len();
        }
    }
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

    /// `joinplan(left, Rⱼ)`: item `last` joined onto `from`, the entry of
    /// subset `prior`, or onto an `early` aggregation of it; priced (its
    /// CPU work only when `cpu`) and not built. Every candidate counts as
    /// a plan built.
    fn join<'m>(
        &self,
        (prior, from): (u64, &'m Entry<'m>),
        early: Option<Early>,
        last: usize,
        stats: &mut SearchStats,
        cpu: bool,
    ) -> Result<Cand<'m>> {
        stats.plans_built += 1;
        self.gov.charge_plans(1)?;
        let (left_out, state) = match &early {
            None => (from.out, from.state),
            Some(e) if e.kind == EarlyKind::Group => (e.out, GState::Grouped),
            Some(e) => (e.out, GState::Partial),
        };
        let out = self.projection_for(left_out | self.outsets[last]);
        let price = self.join_price(from, early.as_ref(), last, out, cpu);
        Ok(Cand {
            prior,
            from,
            early,
            last,
            out,
            state,
            price,
        })
    }

    /// The predicates that become evaluable when item `last` joins a
    /// subtree producing `left_out`.
    fn join_preds(&self, left_out: ColSet, last: usize) -> impl Iterator<Item = &Predicate> {
        let new = self.outsets[last];
        let preds = self.q.preds.iter().zip(&self.pred_cols);
        preds
            .filter(move |(_, pc)| Self::newly_evaluable(**pc, left_out, new))
            .map(|(f, _)| &f.pred)
    }

    /// The properties, but for distinct counts, of joining item `last`
    /// onto `from` (or `early` over it) and projecting `out`.
    fn join_price(
        &self,
        from: &Entry,
        early: Option<&Early>,
        last: usize,
        out: ColSet,
        cpu: bool,
    ) -> PlanProps {
        let right = &self.q.items[last];
        let (left, left_out, left_streams) = match (early, &from.made) {
            (Some(e), _) => (&e.price, e.out, false),
            (None, Made::Item(i)) => (&*from.props, from.out, streams(&self.q.items[*i].plan)),
            (None, Made::Join { .. }) => (&*from.props, from.out, true),
        };
        let input = |c: &Col| {
            let left = || self.left_distinct(from, early, c);
            right.props.distinct_of(c).or_else(left)
        };
        let sides = ((left, left_streams), (&*right.props, streams(&right.plan)));
        let preds = self.join_preds(left_out, last);
        self.est
            .join_price(cpu, sides, &input, preds, self.uni.cols(out))
    }

    /// The distinct count of `c` in a candidate join's left input:
    /// `from`, or an `early` aggregation of it.
    fn left_distinct(&self, from: &Entry, early: Option<&Early>, c: &Col) -> Option<f64> {
        let known = |c: &Col| from.props.distinct_of(c);
        match early {
            None => known(c),
            Some(e) => group_output(&known, (&e.group_cols, &e.produced), e.groups)(c),
        }
    }

    /// The distinct count of `col` in the output of `cand`: what its
    /// built node's properties would hold.
    fn distinct(&self, cand: &Cand, col: &Col) -> Option<f64> {
        let i = self.uni.index(*col)?;
        if !cand.out.contains(i) {
            return None;
        }
        let right = &self.q.items[cand.last].props;
        let d = right.distinct_of(col);
        let d = d.or_else(|| self.left_distinct(cand.from, cand.early.as_ref(), col));
        capped_at(d, cand.price.card)
    }

    /// Price in full a candidate priced without its CPU work: its early
    /// aggregation, and the join above it.
    fn price_in_full<'m>(&self, mut cand: Cand<'m>, memo: &Memo) -> Result<Cand<'m>> {
        if self.est.model.cpu {
            if let Some(e) = &mut cand.early {
                let input = self.plan_of(cand.from, memo)?;
                let cols = (&e.group_cols[..], &e.produced[..]);
                (e.price, e.groups) = self.early_price(e.kind, cols, cand.from, Some(&input));
            }
            let early = cand.early.as_ref();
            cand.price = self.join_price(cand.from, early, cand.last, cand.out, true);
        }
        Ok(cand)
    }

    /// The entry a subset keeps: `cand`'s properties, the distinct counts
    /// of its projected columns included; not its nodes.
    fn keep<'e>(&self, cand: Cand) -> Entry<'e> {
        let right = &self.q.items[cand.last].props;
        let input = |c: &Col| {
            let left = || self.left_distinct(cand.from, cand.early.as_ref(), c);
            right.distinct_of(c).or_else(left)
        };
        let props = cand.price.join_props(self.uni.cols(cand.out), &input);
        Entry {
            props: Cow::Owned(props),
            state: cand.state,
            out: cand.out,
            made: Made::Join {
                prior: cand.prior,
                early: cand.early,
                last: cand.last,
            },
            plan: OnceCell::new(),
        }
    }

    /// The plan of `entry`, built (with the plans it extends) the first
    /// time it is asked for.
    fn plan_of(&self, entry: &Entry, memo: &Memo) -> Result<Arc<Plan>> {
        if let Some(plan) = entry.plan.get() {
            return Ok(plan.clone());
        }
        let project = self.uni.cols(entry.out).collect();
        let plan = Arc::new(self.join_node(entry, memo, project)?.0);
        Ok(entry.plan.get_or_init(|| plan).clone())
    }

    /// The join `entry` is made of, projecting `project`, and the
    /// properties of its left input when that is an early aggregation.
    fn join_node(
        &self,
        entry: &Entry,
        memo: &Memo,
        project: Vec<Col>,
    ) -> Result<(Plan, Option<PlanProps>)> {
        let Made::Join { prior, early, last } = &entry.made else {
            return Err(AggViewError::Optimize("an item is not a join".into()));
        };
        let from = memo
            .get(prior)
            .ok_or_else(|| AggViewError::Optimize("a memo entry's input is missing".into()))?;
        let mut left = self.plan_of(from, memo)?;
        let mut left_out = from.out;
        let mut early_props = None;
        if let Some(e) = early {
            let known = |c: &Col| from.props.distinct_of(c);
            let node = self.early_node(e, left, from.out);
            let cols = (&e.group_cols[..], &e.produced[..]);
            early_props = Some(e.price.clone().group_props(
                node.output_cols().iter().copied(),
                &known,
                cols,
                e.groups,
            ));
            (left, left_out) = (Arc::new(node), e.out);
        }
        let preds = self.join_preds(left_out, *last).cloned().collect();
        let right = self.q.items[*last].plan.clone();
        Ok((Plan::join(left, right, preds, project), early_props))
    }

    /// Check that `cand`, priced with the CPU term when `cpu`, has the
    /// properties [`CardEstimator::cost_node`] gives its built nodes, to
    /// the bit — distinct counts included, and every one it answers
    /// unbuilt.
    #[cfg(test)]
    fn audit(&self, cand: &Cand, cpu: bool, memo: &Memo) -> Result<()> {
        let (early, price) = (cand.early.clone(), cand.price.clone());
        let entry: Entry = self.keep(Cand {
            early,
            price,
            ..*cand
        });
        let project = self.uni.cols(entry.out).collect();
        let (node, early) = self.join_node(&entry, memo, project)?;
        let explain = || node.explain();
        let est = self.est.with_cpu(cpu);
        let from = &*cand.from.props;
        let left = match (&node, &early) {
            (Plan::Join { left, .. }, Some(early)) => {
                let priced = props_bits(&est.cost_node(left.as_ref(), &[from])?);
                assert_eq!(
                    props_bits(early),
                    priced,
                    "early aggregation\n{}",
                    explain()
                );
                early
            }
            _ => from,
        };
        let right = &*self.q.items[cand.last].props;
        let priced = props_bits(&est.cost_node(&node, &[left, right])?);
        assert_eq!(props_bits(&entry.props), priced, "join\n{}", explain());
        for c in self.uni.all() {
            let built = entry.props.distinct_of(c).map(f64::to_bits);
            let answered = self.distinct(cand, c).map(f64::to_bits);
            assert_eq!(answered, built, "distinct count of {c}\n{}", explain());
        }
        AUDITED.with(|n| n.set(n.get() + 1));
        Ok(())
    }

    /// Is an *invariant grouping* placement of the block's group-by
    /// legal over subset `prior`, whose plan produces `avail` (items
    /// outside joined afterwards)?
    fn group_placement_ok(&self, prior: u64, avail: ColSet) -> Result<bool> {
        let Some(g) = &self.group else {
            return Ok(false);
        };
        // Aggregate arguments must be computed here. Grouping columns may
        // be split: those inside `prior` become the pushed group-by's
        // grouping columns; those belonging to *outside* items are
        // functionally determined by the (mandatory) key join and attach
        // after the group-by — the [YL94] generalization the paper's
        // Section 4.1 builds on.
        if !g.all_args.is_subset(avail) {
            return Ok(false);
        }
        let inside_group = g.keys & avail;
        // Every outside grouping column must come from some item (not be
        // an unavailable aggregate of this block). Without grouping
        // columns on the prior side, cross predicates cannot reference
        // grouping columns; keep the group-by later.
        if !(g.keys & !avail).is_subset(self.all_out) || inside_group.is_empty() {
            return Ok(false);
        }
        // HAVING runs at the pushed group-by: it may only read inside
        // grouping columns and the aggregates.
        if !g.having.is_subset(inside_group) {
            return Ok(false);
        }
        // Raw columns needed *above the group-by* must survive it:
        // the block's final projection and the operands of predicates
        // still pending. (The group-by's own inputs — aggregate
        // arguments — are consumed here, so `self.required` would be too
        // strict.) Outside grouping columns are produced by later joins.
        let above = (self.project & avail) | self.pending_operands(avail);
        if !above.is_subset(inside_group) {
            return Ok(false);
        }
        // Conditions per outside item.
        let keys = self.item_keys()?;
        for o in bits_of(self.full & !prior) {
            let out = self.outsets[o];
            let mut touched = false;
            let mut equated = ColSet::default();
            for (f, pc) in self.q.preds.iter().zip(&self.pred_cols) {
                if !pc.intersects(out) {
                    continue;
                }
                touched = true;
                // Prior-side operands must be grouping columns.
                if !(*pc & avail).is_subset(inside_group) {
                    return Ok(false);
                }
                // Key-coverage evidence from equalities anywhere.
                if let Some((a, b)) = f.eq {
                    let (a, b) = (self.uni.set(&[a]), self.uni.set(&[b]));
                    if a.is_subset(out) && !b.is_subset(out) {
                        equated |= a;
                    }
                    if b.is_subset(out) && !a.is_subset(out) {
                        equated |= b;
                    }
                }
            }
            // An outside item no predicate touches is a cross product
            // risk; and each outside item must be joined on a full key
            // so groups are never duplicated.
            if !touched || !keys[o].is_some_and(|key| key.is_subset(equated)) {
                return Ok(false);
            }
        }
        Ok(true)
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

    /// What `cand` will have cost once the block's group-by is paid for:
    /// its cost, plus the CPU price of that group-by over its output if it
    /// still owes it (raw, or partial states awaiting the merge). A plan
    /// that grouped early has paid already, so partial plans compare as
    /// they will be paid for. Under the paper's IO-only model the owed
    /// price is zero and partial plans compare as they stand.
    fn settled(&self, cand: &Cand) -> f64 {
        let Some(g) = &self.group else {
            return cand.price.cost;
        };
        let owed = match (self.owed_lookup(), cand.state) {
            (Some(lookup), GState::Raw | GState::Partial) => {
                let accs = g.spec.aggs.len();
                let cols = g.spec.group_cols.len() + accs;
                let by = (&g.spec.group_cols[..], lookup);
                let known = |c: &Col| self.distinct(cand, c);
                self.est
                    .group_cpu(by, (cand.price.card, &known), accs, cols)
            }
            _ => 0.0,
        };
        cand.price.cost + owed
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
            // The rows it reads: every item, joined under every predicate.
            let (items, preds) = (self.q.items.iter(), self.q.preds.iter());
            let by = &g.spec.group_cols;
            let catalog = self.est.catalog;
            let det = determinant_over(
                by,
                items.map(|it| &*it.plan),
                preds.map(|f| &f.pred),
                catalog,
            );
            Some(self.est.lookup_by(by, det.ok()))
        };
        self.owed.get_or_init(lookup).as_ref()
    }

    /// An early aggregation of `from` (callers checked its placement),
    /// priced without its CPU work: most are rejected on their size.
    ///
    /// - *Invariant grouping* applies the block's group-by inline,
    ///   grouping by the grouping columns `from` produces; the remaining
    ///   (functionally determined) ones attach via the later key joins —
    ///   see `group_placement_ok`.
    /// - *Simple coalescing* decomposes every aggregate, with no
    ///   duplicate factor, grouping by the block's grouping columns
    ///   inside `from` plus everything needed above.
    /// - *Eager aggregation* groups by the block's grouping columns inside
    ///   `from` plus the operands of still-pending (join) predicates —
    ///   Definition 1's "grouping columns extended with join keys"; pushed
    ///   aggregate arguments are deliberately *not* keys, the partial node
    ///   consumes them. It pushes the aggregates whose arguments `from`
    ///   holds and always carries the duplicate-factor COUNT(*), so the
    ///   merge can scale the partner side's duplicate-sensitive
    ///   aggregates.
    fn early(&self, kind: EarlyKind, from: &Entry) -> Early {
        let g = self.grouping();
        let (group_cols, produced) = match kind {
            EarlyKind::Group => {
                let inside = g.spec.group_cols.iter().zip(&g.key_idx);
                let inside = inside.filter(|(_, &i)| from.out.contains(i));
                (inside.map(|(c, _)| *c).collect(), g.spec.agg_cols())
            }
            EarlyKind::Coalesce => {
                let (mut cols, seen) = Self::keys_inside(g, from.out);
                cols.extend(self.uni.cols(self.needed_above(from.out) & !seen));
                (cols, g.partial_states(0..g.spec.aggs.len()).collect())
            }
            EarlyKind::Eager => {
                let (mut cols, mut keys) = Self::keys_inside(g, from.out);
                for pc in self.pred_cols.iter().filter(|pc| !pc.is_subset(from.out)) {
                    let add = *pc & from.out & !keys;
                    cols.extend(self.uni.cols(add));
                    keys |= add;
                }
                let n = g.spec.aggs.len();
                let mut produced: Vec<Col> = g.partial_states(self.pushed(from.out)).collect();
                produced.push(Col::part(g.spec.agg_ref(n), 0));
                (cols, produced)
            }
        };
        let (price, groups) = self.early_price(kind, (&group_cols, &produced), from, None);
        Early {
            kind,
            out: self.uni.set(group_cols.iter().chain(&produced)),
            group_cols,
            produced,
            groups,
            price,
        }
    }

    /// The properties, but for distinct counts, and the groups of an
    /// early aggregation `kind` over `from` by `group_cols` into
    /// `produced`, with its CPU work over `from`'s plan when that is
    /// given.
    fn early_price(
        &self,
        kind: EarlyKind,
        (group_cols, produced): (&[Col], &[Col]),
        from: &Entry,
        plan: Option<&Plan>,
    ) -> (PlanProps, f64) {
        let having: &[Predicate] = match kind {
            EarlyKind::Group => &self.grouping().spec.having,
            EarlyKind::Coalesce | EarlyKind::Eager => &[],
        };
        let known = |c: &Col| from.props.distinct_of(c);
        let project = group_cols.iter().chain(produced).copied();
        let cols = (group_cols, produced);
        self.est
            .group_price((plan, &from.props), &known, cols, having, project)
    }

    /// The aggregates an eager aggregation over a subtree producing
    /// `avail` pushes: those whose arguments it holds.
    fn pushed(&self, avail: ColSet) -> impl Iterator<Item = usize> + '_ {
        let g = self.grouping();
        (0..g.spec.aggs.len()).filter(move |&i| g.args[i].is_subset(avail))
    }

    /// The node of `early`, over `input`, which produces `avail`.
    fn early_node(&self, early: &Early, input: Arc<Plan>, avail: ColSet) -> Plan {
        let g = self.grouping();
        let group_cols = early.group_cols.clone();
        let partial = |i: usize| (g.spec.agg_ref(i), g.spec.aggs[i].clone());
        match early.kind {
            EarlyKind::Group => {
                let spec = GroupBySpec {
                    owner: g.spec.owner,
                    group_cols,
                    aggs: g.spec.aggs.clone(),
                    having: g.spec.having.clone(),
                };
                Plan::group_by_all(input, spec)
            }
            EarlyKind::Coalesce => {
                let spec = PartialAggSpec {
                    group_cols,
                    aggs: (0..g.spec.aggs.len()).map(partial).collect(),
                    count: None,
                };
                Plan::partial_aggregate_all(input, spec)
            }
            EarlyKind::Eager => {
                let spec = PartialAggSpec {
                    group_cols,
                    aggs: self.pushed(avail).map(partial).collect(),
                    count: Some(g.spec.agg_ref(g.spec.aggs.len())),
                };
                Plan::partial_aggregate_all(input, spec)
            }
        }
    }
}

/// Every number of `p`, as bits.
#[cfg(test)]
fn props_bits(p: &PlanProps) -> ([u64; 4], Vec<(Col, u64)>) {
    let scalars = [p.cost, p.card, p.width, p.peak_bytes].map(f64::to_bits);
    (
        scalars,
        p.distinct.iter().map(|(c, d)| (*c, d.to_bits())).collect(),
    )
}

#[cfg(test)]
thread_local! {
    static AUDITED: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// How many candidates this thread's searches have priced and then
/// built, to check that their prices agree bit for bit.
#[cfg(test)]
fn candidates_audited() -> u64 {
    AUDITED.with(|n| n.get())
}

/// An early aggregation of a memo entry.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum EarlyKind {
    /// Invariant grouping: the block's group-by itself.
    Group,
    /// Simple coalescing: a partial aggregation of every aggregate.
    Coalesce,
    /// Eager aggregation: a partial aggregation of the aggregates whose
    /// arguments are below it, with a duplicate-factor count.
    Eager,
}

/// An early aggregation of a memo entry, priced and not built.
#[derive(Debug, Clone)]
struct Early {
    kind: EarlyKind,
    /// Its grouping columns, then the aggregate outputs or partial states
    /// it produces: its output, in order.
    group_cols: Vec<Col>,
    produced: Vec<Col>,
    out: ColSet,
    /// Its estimated groups, which its output's distinct counts read.
    groups: f64,
    /// Its properties, but for distinct counts.
    price: PlanProps,
}

/// `joinplan(…, Rⱼ)` priced and not built: item `last` joined onto
/// `from`, the memo entry of subset `prior`, or onto an early
/// aggregation of it. Only the candidate its subset keeps becomes an
/// entry ([`Ctx::keep`]).
struct Cand<'m> {
    prior: u64,
    from: &'m Entry<'m>,
    early: Option<Early>,
    last: usize,
    /// The join's output columns, and its group-by progress.
    out: ColSet,
    state: GState,
    /// Its properties, but for distinct counts ([`Ctx::distinct`]
    /// answers those).
    price: PlanProps,
}

fn extend(ctx: &Ctx<'_, '_>, subset: u64, memo: &mut Memo, stats: &mut SearchStats) -> Result<()> {
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

    let mut best: Option<(Cand, Option<f64>)> = None;
    let cpu = ctx.est.model.cpu;
    for last in bits_of(candidates) {
        let prior = subset & !(1u64 << last);
        let Some(sub) = memo.get(&prior) else {
            continue; // prior subset unreachable (pruned)
        };

        // Plan (1): plain extension.
        let mut chosen = ctx.join((prior, sub), None, last, stats, cpu)?;
        #[cfg(test)]
        ctx.audit(&chosen, cpu, memo)?;
        let plain_bytes = chosen.price.out_bytes();
        let plain_peak = chosen.price.peak_bytes;
        // Its settled cost, once a comparison needs it.
        let mut chosen_cost = None;

        // Plans (2)/(2'): early group-by, only from a Raw prefix and only
        // when push-down is enabled.
        if sub.state == GState::Raw && ctx.config.push_down && ctx.group.is_some() {
            let placements = [
                (EarlyKind::Group, ctx.group_placement_ok(prior, sub.out)?),
                (
                    EarlyKind::Coalesce,
                    ctx.coalesce_placement_ok(prior, sub.out),
                ),
                (
                    EarlyKind::Eager,
                    ctx.config.use_eager_agg && ctx.eager_placement_ok(prior, sub.out),
                ),
            ];
            for (kind, _) in placements.into_iter().filter(|(_, ok)| *ok) {
                stats.groupby_placements += 1;
                // Join predicates and projection are recomputed against
                // the grouped output; the early aggregation and the join
                // above it are first priced without their CPU work.
                let early = ctx.early(kind, sub);
                let cand = ctx.join((prior, sub), Some(early), last, stats, false)?;
                #[cfg(test)]
                ctx.audit(&cand, false, memo)?;
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
                if cand.price.out_bytes() > plain_bytes + 1e-6
                    || cand.price.peak_bytes > plain_peak + 1e-6
                {
                    continue;
                }
                let cand = ctx.price_in_full(cand, memo)?;
                #[cfg(test)]
                ctx.audit(&cand, cpu, memo)?;
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
                    chosen.price.cost < b.price.cost
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
    // Only the candidate the subset keeps becomes an entry.
    if let Some(entry) = best.map(|(b, _)| ctx.keep(b)) {
        memo.insert(subset, entry);
        stats.memo_entries += 1;
        ctx.gov.charge_memo(1)?;
    }
    Ok(())
}

/// Complete the block: apply the group-by if still pending, re-project,
/// and build the plan. Either way one node is priced, from stored
/// properties: the pending group-by's input is `entry`, and a
/// re-projected root join's inputs are the memo entry it extended, or
/// the early group-by over it, and the item it joined.
fn finish(
    ctx: &Ctx<'_, '_>,
    entry: Entry,
    memo: &Memo,
    stats: &mut SearchStats,
) -> Result<Planned> {
    let project = ctx.q.project.clone();
    match (&ctx.q.group, entry.state) {
        // Raw: the group-by at the block root. Partial: the coalescing
        // group-by — same spec; the executor merges the partial states
        // it finds in its input.
        (Some(g), GState::Raw | GState::Partial) => {
            if entry.state == GState::Raw {
                stats.groupby_placements += 1;
            }
            let node = Plan::group_by(ctx.plan_of(&entry, memo)?, g.clone(), project);
            Planned::over(node, &[&entry.props], ctx.est)
        }
        // Narrow (or reorder) the root's output to the block's.
        (None, _) | (Some(_), GState::Grouped) => {
            let produced = |c: &&Col| ctx.uni.index(**c).is_some_and(|i| entry.out.contains(i));
            if let Some(missing) = project.iter().find(|c| !produced(c)) {
                return Err(AggViewError::Optimize(format!(
                    "block cannot produce required column {missing}"
                )));
            }
            let Made::Join { prior, last, .. } = entry.made else {
                return Err(AggViewError::Optimize(
                    "a searched block ends in an item".into(),
                ));
            };
            if ctx.uni.cols(entry.out).eq(project.iter().copied()) {
                let plan = ctx.plan_of(&entry, memo)?;
                let props = Arc::new(entry.props.into_owned());
                return Ok(Planned { plan, props });
            }
            let (root, early) = ctx.join_node(&entry, memo, project)?;
            let prior = memo
                .get(&prior)
                .ok_or_else(|| AggViewError::Optimize("a memo entry's input is missing".into()))?;
            let left = early.as_ref().unwrap_or(&prior.props);
            Planned::over(root, &[left, &ctx.q.items[last].props], ctx.est)
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
    use aggview_storage::Catalog;

    fn setup(n_depts: usize, emps_per_dept: usize) -> (Catalog, QueryEnv) {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts,
            emps_per_dept,
            ..Default::default()
        })
        .unwrap();
        (cat, QueryEnv::new(vec!["emp".into(), "dept".into()]))
    }

    /// Example 2's join predicate, emp.dno = dept.dno.
    fn example2_join() -> [PredFacts; 1] {
        [PredFacts::new(&Predicate::eq_cols(
            Col::base(RelId(0), emp::DNO),
            Col::base(RelId(1), dept::DNO),
        ))]
    }

    /// Example 2 as a BlockQuery: G0(emp ⋈ dept) with avg(sal) by dno.
    fn example2_block<'a>(est: &CardEstimator<'_>, join: &'a [PredFacts]) -> BlockQuery<'a> {
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
            preds: join.iter().collect(),
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
        let join = example2_join();
        let q = example2_block(&est, &join);
        let mut stats = SearchStats::default();
        let entry = optimize_block(&q, &est, &OptimizerConfig::default(), &mut stats).unwrap();
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
        let join = example2_join();
        let q = example2_block(&est, &join);
        let mut stats = SearchStats::default();
        let greedy = optimize_block(&q, &est, &OptimizerConfig::default(), &mut stats).unwrap();
        let trad = optimize_block(&q, &est, &OptimizerConfig::traditional(), &mut stats).unwrap();
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
        let join = example2_join();
        let q = example2_block(&est, &join);
        let mut stats = SearchStats::default();
        let entry = optimize_block(&q, &est, &OptimizerConfig::traditional(), &mut stats).unwrap();
        // Exactly one group-by, at the root.
        assert_eq!(entry.plan.group_by_count(), 1);
        assert!(matches!(*entry.plan, Plan::GroupBy { .. }));
    }

    #[test]
    fn no_group_block_is_plain_spj() {
        let (cat, env) = setup(10, 10);
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let join = example2_join();
        let mut q = example2_block(&est, &join);
        q.group = None;
        q.project = vec![Col::base(RelId(0), emp::SAL)];
        let mut stats = SearchStats::default();
        let entry = optimize_block(&q, &est, &OptimizerConfig::default(), &mut stats).unwrap();
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
        let join = example2_join();
        let q = example2_block(&est, &join);
        let mut s1 = SearchStats::default();
        let mut s2 = SearchStats::default();
        let greedy = optimize_block(&q, &est, &OptimizerConfig::default(), &mut s1).unwrap();
        let trad = optimize_block(&q, &est, &OptimizerConfig::traditional(), &mut s2).unwrap();
        assert!((greedy.props.cost - trad.props.cost).abs() < 1e-9);
    }

    #[test]
    fn search_stats_grow_with_push_down() {
        let (cat, env) = setup(10, 10);
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let join = example2_join();
        let q = example2_block(&est, &join);
        let mut with = SearchStats::default();
        let mut without = SearchStats::default();
        optimize_block(&q, &est, &OptimizerConfig::default(), &mut with).unwrap();
        optimize_block(&q, &est, &OptimizerConfig::traditional(), &mut without).unwrap();
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
        assert!(optimize_block(&q, &est, &OptimizerConfig::default(), &mut stats).is_err());
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
        let join = example2_join();
        let mut q = example2_block(&est, &join);
        q.group.as_mut().unwrap().aggs = vec![AggSpec::new(
            AggFunc::Sum,
            Expr::col(Col::base(RelId(0), emp::SAL)),
        )];
        let mut stats = SearchStats::default();
        let entry = optimize_block(&q, &est, &OptimizerConfig::default(), &mut stats).unwrap();
        PlanAnalyzer::new(&cat)
            .with_env(&env)
            .verify(&entry.plan)
            .unwrap();
        let mut s2 = SearchStats::default();
        let trad = optimize_block(&q, &est, &OptimizerConfig::traditional(), &mut s2).unwrap();
        assert!(entry.props.cost <= trad.props.cost + 1e-9);
    }

    /// Example 2's block with `aggs` by `emp.dno`, emp joined to dept on
    /// `on` = `dept.dno`, and its memo of single items.
    fn coalescing_block<'a>(
        est: &CardEstimator<'_>,
        join: &'a [PredFacts],
        aggs: Vec<AggSpec>,
    ) -> BlockQuery<'a> {
        let mut q = example2_block(est, join);
        q.group.as_mut().unwrap().aggs = aggs;
        q
    }

    fn singletons<'a>(ctx: &Ctx<'a, '_>) -> Memo<'a> {
        let mut memo = Memo::default();
        for (i, it) in ctx.q.items.iter().enumerate() {
            let entry = Entry {
                props: Cow::Borrowed(&it.props),
                state: GState::Raw,
                out: ctx.outsets[i],
                made: Made::Item(i),
                plan: OnceCell::from(it.plan.clone()),
            };
            memo.insert(1 << i, entry);
        }
        memo
    }

    /// Simple coalescing groups the early side by the final grouping
    /// columns it holds *and* the columns later join predicates read:
    /// final grouping on `emp.dno`, join on `emp.eno`.
    #[test]
    fn partial_group_includes_distinct_join_cols() {
        let (cat, env) = setup(10, 10);
        let est = CardEstimator::new(CostModel::paper(), &cat, &env);
        let e = RelId(0);
        let on_eno = Predicate::eq_cols(Col::base(e, emp::ENO), Col::base(RelId(1), dept::DNO));
        let join = [PredFacts::new(&on_eno)];
        let min_sal = AggSpec::new(AggFunc::Min, Expr::col(Col::base(e, emp::SAL)));
        let q = coalescing_block(&est, &join, vec![min_sal]);
        let config = OptimizerConfig::default();
        let gov = ResourceGovernor::unlimited();
        let ctx = Ctx::new(&q, &est, &config, &gov).unwrap();
        let memo = singletons(&ctx);
        let emp_entry = &memo[&1];
        assert!(ctx.coalesce_placement_ok(1, emp_entry.out));
        let early = ctx.early(EarlyKind::Coalesce, emp_entry);
        assert_eq!(early.group_cols[0], Col::base(e, emp::DNO));
        assert!(early.group_cols.contains(&Col::base(e, emp::ENO)));
        let node = ctx.early_node(&early, emp_entry.plan.get().unwrap().clone(), emp_entry.out);
        let Plan::PartialAggregate { spec, .. } = &node else {
            panic!("a partial aggregation expected")
        };
        assert_eq!((spec.aggs.len(), spec.count), (1, None));
        assert_eq!(spec.group_cols, early.group_cols);
    }

    /// The coalescing partial below the join and the block's group-by
    /// above it, completed by the block, form a legal plan.
    #[test]
    fn full_coalescing_pipeline_is_legal() {
        let (cat, env) = setup(10, 10);
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let join = example2_join();
        let sum_sal = AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(0), emp::SAL)));
        let q = coalescing_block(&est, &join, vec![sum_sal, AggSpec::count_star()]);
        let config = OptimizerConfig::default();
        let gov = ResourceGovernor::unlimited();
        let ctx = Ctx::new(&q, &est, &config, &gov).unwrap();
        let memo = singletons(&ctx);
        let mut stats = SearchStats::default();
        let early = ctx.early(EarlyKind::Coalesce, &memo[&1]);
        let cand = ctx
            .join((1, &memo[&1]), Some(early), 1, &mut stats, false)
            .unwrap();
        let entry = ctx.keep(ctx.price_in_full(cand, &memo).unwrap());
        assert_eq!(entry.state, GState::Partial);
        let block = finish(&ctx, entry, &memo, &mut stats).unwrap();
        PlanAnalyzer::new(&cat)
            .with_env(&env)
            .verify(&block.plan)
            .unwrap();
        assert_eq!(block.plan.group_by_count(), 2);
        assert_eq!(*block.props, est.cost_plan(&block.plan).unwrap());
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

    fn spj_block<'a>(
        scans: &[Plan],
        preds: &'a [PredFacts],
        project: &[Col],
        est: &CardEstimator<'_>,
    ) -> BlockQuery<'a> {
        BlockQuery {
            items: scans
                .iter()
                .map(|s| Planned::new(s.clone(), est).unwrap())
                .collect(),
            preds: preds.iter().collect(),
            group: None,
            project: project.to_vec(),
        }
    }

    #[test]
    fn avoids_cross_products_when_connected_order_exists() {
        let (cat, env, scans, preds, project) = star_block(Col::base(RelId(0), 0));
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let facts: Vec<PredFacts> = preds.iter().map(PredFacts::new).collect();
        let q = spj_block(&scans, &facts, &project, &est);
        let mut stats = SearchStats::default();
        let entry = optimize_block(&q, &est, &OptimizerConfig::default(), &mut stats).unwrap();
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
                Plan::Scan { .. } | Plan::ExtentScan { .. } => true,
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
        let entry = optimize_block(&q, &est, &OptimizerConfig::default(), &mut stats).unwrap();
        assert_eq!(entry.plan.join_count(), 1);
    }

    #[test]
    fn best_order_never_costs_more_than_declaration_order() {
        let (cat, env, scans, preds, project) = star_block(Col::base(RelId(3), 1));
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let facts: Vec<PredFacts> = preds.iter().map(PredFacts::new).collect();
        let q = spj_block(&scans, &facts, &project, &est);
        let mut stats = SearchStats::default();
        let best = optimize_block(&q, &est, &OptimizerConfig::default(), &mut stats).unwrap();

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
        let err = optimize_block(&q, &est, &OptimizerConfig::default(), &mut stats).unwrap_err();
        assert!(err.message().contains("block too large"), "{err}");
    }

    /// Block enumeration prices every candidate — each join, each early
    /// aggregation and the join above it — from the stored properties of
    /// its inputs, without building it. Under test, each such price is
    /// checked where it is made: the candidate's nodes are built and
    /// priced by `cost_node` (with the CPU term as the candidate was
    /// priced), and every field, distinct counts included, must agree to
    /// the bit. This drives that check over the emp/dept grid and the star
    /// shapes of a short multi-view statement mix, under both weight
    /// vectors and every configuration, and counts that it ran for every
    /// candidate.
    #[test]
    fn candidate_prices_equal_cost_node_bit_for_bit() {
        use crate::shapes::{configs, empdept_grid, star_grid};
        let before = candidates_audited();
        let mut candidates = 0;
        for (cat, queries) in empdept_grid().into_iter().chain(star_grid()) {
            for q in &queries {
                for m in [CostModel::paper(), CostModel::default()] {
                    for config in &configs() {
                        let opt = crate::optimize(q, &cat, m, config).unwrap();
                        candidates += opt.stats.plans_built;
                    }
                }
            }
        }
        let audited = candidates_audited() - before;
        assert!(
            candidates > 1000 && audited >= candidates,
            "{audited} candidates audited of {candidates} priced"
        );
    }
}
