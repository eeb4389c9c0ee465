//! The general optimization algorithm for queries with multiple
//! aggregate views (paper Section 5.4), which subsumes the single-view
//! algorithm of Section 5.3.
//!
//! With one view (`m = 1`) it is exactly Section 5.3's procedure:
//! (a) generate the query `Φ(V₀, B′)`; (b) single-block optimization of
//! the pulled blocks; (c) choose a plan for `Φ(V₀, W)` for each `W ⊆ B′`
//! (adding `G1` on top); (d) optimize the single-block query (with
//! `G0`) consisting of `B′ − W` and `Φ(V₀, W)` for each choice of `W`.
//! The paper's three cases map onto `W` as:
//! * `W = V − V₀` — the original aggregate view, optimized locally
//!   (Figure 4(a)/(b));
//! * `W ⊋ V − V₀` — an *extended* aggregate view including base
//!   relations, i.e. pull-up (Figure 4(c)); with `W = B′` the query
//!   collapses to a single block;
//! * `W ⊉ V − V₀` — combined push-down and pull-up (Figure 4(d)).
//!
//! Two-phase structure, following the paper:
//!
//! **Phase 1.** For each view `Qi = Gi(Vi)`: compute the minimal
//! invariant set `V₀i` (relations in `Vi − V₀i` "can be treated like
//! relations in B and can be freely reordered"), then optimize the
//! *pulled-up* single block `Φ(V₀i, Wi)` for every admissible choice of
//! `Wi ⊆ B′` — the relations pulled through the view. Each `Φ(V₀i, Wi)`
//! is a single-block query with a group-by, searched over linear
//! aggregate join trees with the greedy conservative heuristic
//! ([`crate::optimizer::greedy`]), so cases (i) local optimization,
//! (ii) extended views, and (iii) combined push-down + pull-up of the
//! paper's Section 5.3 all arise.
//!
//! **Phase 2.** For every combination of pairwise-disjoint `Wi`, the
//! outer block — the pulled views (treated as base relations) joined
//! with the remaining `B′` relations under `G0` — is enumerated, again
//! greedily-conservatively. The cheapest plan over all combinations
//! wins.
//!
//! Practical restrictions (paper Section 5.3): a relation is pulled
//! through a view only if it *shares a predicate* with the view, and at
//! most `k` relations may be pulled per view (k-level pull-up).

use crate::cost::{CardEstimator, CostModel, PlanProps};
use crate::governor::{OptimizeOutcome, ResourceGovernor};
use crate::optimizer::facts::PredFacts;
use crate::optimizer::greedy::{optimize_block_governed, BlockQuery};
use crate::optimizer::stats::SearchStats;
use crate::optimizer::{bits_of, bitset, rels_of, OptimizerConfig, Planned};
use crate::plan::{GroupBySpec, Plan};
use crate::query::CanonicalQuery;
use crate::transform::pushdown::{minimal_invariant_set, InvariantGroupBy};
use aggview_common::{AggViewError, Col, RelId, Result, ViewId};
use aggview_storage::Catalog;
use std::cell::RefCell;
use std::collections::BTreeSet;
use std::ops::Range;
use std::sync::Arc;

/// The result of an optimizer run.
#[derive(Debug, Clone)]
pub struct Optimized {
    /// The chosen execution plan.
    pub plan: Plan,
    /// Its estimated properties (cost, cardinality, width).
    pub props: PlanProps,
    /// Search-effort counters.
    pub stats: SearchStats,
    /// For each view, the relations pulled through it in the chosen
    /// plan (empty = the view was optimized locally).
    pub pulled: Vec<Vec<RelId>>,
    /// Whether the full search ran to completion or degraded to the
    /// traditional two-phase plan after a budget/deadline ran out.
    pub outcome: OptimizeOutcome,
}

/// Optimize a canonical query under `config`.
///
/// The search space always contains the traditional two-phase strategy,
/// and the greedy conservative heuristic never adopts a worse local
/// choice, so the returned plan's estimated cost is never above the
/// traditional optimizer's (verified by tests and experiment E6).
pub fn optimize(
    query: &CanonicalQuery,
    catalog: &Catalog,
    model: CostModel,
    config: &OptimizerConfig,
) -> Result<Optimized> {
    optimize_governed(
        query,
        catalog,
        model,
        config,
        &ResourceGovernor::unlimited(),
    )
}

/// [`optimize`] under a [`ResourceGovernor`].
///
/// The governor's search budget (max plans built / memo entries) and
/// deadline are checked throughout enumeration. When either runs out
/// mid-search, the optimizer **degrades gracefully**: it falls back to
/// the traditional two-phase strategy (always in the search space and
/// cheap to produce) instead of failing, and records the reason in
/// [`Optimized::outcome`]. Explicit cancellation is different — it means
/// "stop working", so [`AggViewError::Cancelled`] propagates as an
/// error and no fallback plan is produced.
pub fn optimize_governed(
    query: &CanonicalQuery,
    catalog: &Catalog,
    model: CostModel,
    config: &OptimizerConfig,
    gov: &ResourceGovernor,
) -> Result<Optimized> {
    match optimize_inner(query, catalog, model, config, gov) {
        Ok(opt) => Ok(opt),
        Err(AggViewError::ResourceExhausted(msg)) => {
            let Some(reason) = gov.degradation_reason() else {
                // Exhaustion not attributable to the search budget or the
                // optimizer deadline (e.g. an execution-side row budget
                // shared with this governor): nothing to degrade to.
                return Err(AggViewError::ResourceExhausted(msg));
            };
            let fallback_gov = gov.for_fallback();
            let mut opt = optimize_inner(
                query,
                catalog,
                model,
                &OptimizerConfig::traditional(),
                &fallback_gov,
            )?;
            opt.outcome = OptimizeOutcome::Degraded(reason);
            // Debug-mode post-condition: a degraded plan must be a
            // well-formed traditional two-phase plan.
            #[cfg(debug_assertions)]
            {
                let report = crate::analyze::PlanAnalyzer::new(catalog)
                    .with_query(query)
                    .analyze_degraded(&opt.plan);
                debug_assert!(
                    report.is_ok(),
                    "degraded plan violates integrity invariants:\n{report}{}",
                    opt.plan.explain()
                );
            }
            Ok(opt)
        }
        Err(e) => Err(e),
    }
}

fn optimize_inner(
    query: &CanonicalQuery,
    catalog: &Catalog,
    model: CostModel,
    config: &OptimizerConfig,
    gov: &ResourceGovernor,
) -> Result<Optimized> {
    query.validate(catalog)?;
    let st = Statement::new(query, CardEstimator::new(model, catalog, &query.env));
    let mut stats = SearchStats::default();

    // Phase 0: minimal invariant sets; B' = B ∪ ⋃(Vi − V₀i).
    let mut v0: Vec<u64> = Vec::with_capacity(query.views.len());
    let mut d: Vec<u64> = Vec::with_capacity(query.views.len());
    for v in &query.views {
        let igb = InvariantGroupBy {
            rels: &v.rels,
            preds: &v.preds,
            group_cols: &v.group_cols,
            aggs: &v.aggs,
        };
        // Every removal was accepted by `group_applicable_at` on the
        // smaller set, so the fixpoint needs no re-check.
        let (v0_rels, _) = minimal_invariant_set(&igb, &query.env, catalog)?;
        let v0_set = bitset(&v0_rels);
        v0.push(v0_set);
        d.push(bitset(&v.rels) & !v0_set);
    }
    let base_set = bitset(&query.base_rels);
    let d_all: u64 = d.iter().fold(0, |a, b| a | b);
    let bprime = base_set | d_all;

    // Phase 1: per-view W candidates and their optimized blocks.
    let mut per_view: Vec<Vec<ViewBlock>> = Vec::with_capacity(query.views.len());
    for (i, &v0) in v0.iter().enumerate() {
        gov.check_interrupt()?;
        let mut blocks = Vec::new();
        for w in st.w_candidates(i, d[i], bprime, config) {
            if let Some(vb) = st.build_view_block(i, v0, w, config, &mut stats, gov)? {
                blocks.push(vb);
            }
        }
        if blocks.is_empty() {
            return Err(AggViewError::Optimize(format!(
                "no admissible block for view Q{}",
                i + 1
            )));
        }
        per_view.push(blocks);
    }

    // Phase 2: combinations of disjoint Wi, outer enumeration.
    let mut best: Option<(Planned, Vec<Vec<RelId>>)> = None;
    let mut infeasible: Option<AggViewError> = None;
    let mut combo: Vec<usize> = vec![0; per_view.len()];
    loop {
        gov.check_interrupt()?;
        let chosen: Vec<&ViewBlock> = combo
            .iter()
            .zip(&per_view)
            .map(|(&c, vbs)| &vbs[c])
            .collect();
        // Disjointness of pulled sets.
        let mut used = 0u64;
        let disjoint = chosen.iter().all(|vb| {
            let free = used & vb.w & bprime == 0;
            used |= vb.w & bprime;
            free
        });
        if disjoint {
            match st.outer_phase(&chosen, bprime, config, &mut stats, gov) {
                Ok(candidate) => {
                    if best
                        .as_ref()
                        .is_none_or(|(b, _)| candidate.props.cost < b.props.cost)
                    {
                        let pulled = chosen
                            .iter()
                            .map(|vb| rels_of(vb.w & base_set).collect())
                            .collect();
                        best = Some((candidate, pulled));
                    }
                }
                // An infeasible combination; the first reason is reported
                // when no combination is feasible.
                Err(e @ AggViewError::Optimize(_)) => {
                    infeasible.get_or_insert(e);
                }
                Err(e) => return Err(e),
            }
        }
        // Advance the mixed-radix counter; it is done when every digit
        // wraps.
        let carry = combo.iter_mut().zip(&per_view).all(|(c, vbs)| {
            *c = (*c + 1) % vbs.len();
            *c == 0
        });
        if carry {
            break;
        }
    }

    let (best, pulled) = best.ok_or_else(|| {
        infeasible.unwrap_or_else(|| AggViewError::Optimize("no feasible plan found".into()))
    })?;
    let mut out = Optimized {
        plan: Arc::unwrap_or_clone(best.plan),
        props: Arc::unwrap_or_clone(best.props),
        stats: SearchStats::default(),
        pulled,
        outcome: OptimizeOutcome::Full,
    };
    // Post-pass: merge successive group-by operators (paper Section 3 —
    // "pull-up may result in combining G0 and G1"). Combining removes an
    // operator, so the estimated cost never increases; keep the combined
    // plan when it is valid and no costlier.
    if let Some(combined) = crate::transform::combine::combine_all(&out.plan) {
        let legal = crate::analyze::PlanAnalyzer::new(catalog)
            .with_env(&query.env)
            .verify(&combined)
            .is_ok();
        if legal {
            if let Ok(props) = st.est.cost_plan(&combined) {
                if props.cost <= out.props.cost + 1e-9 {
                    out.plan = combined;
                    out.props = props;
                }
            }
        }
    }
    out.stats = stats;
    // Debug-mode post-condition: every plan the optimizer hands out
    // satisfies the static integrity invariants.
    #[cfg(debug_assertions)]
    {
        let report = crate::analyze::PlanAnalyzer::new(catalog)
            .with_query(query)
            .analyze(&out.plan);
        debug_assert!(
            report.is_ok(),
            "optimizer emitted a plan violating integrity invariants:\n{report}{}",
            out.plan.explain()
        );
    }
    Ok(out)
}

/// A phase-1 product: the optimized plan for Φ(V₀, W).
struct ViewBlock {
    /// The pulled set W (bitset over B′; the view's own removable
    /// relations that were re-included are also recorded here).
    w: u64,
    /// Optimized block plan.
    item: Planned,
    /// Which of `query.preds` this block absorbed.
    absorbed: Vec<bool>,
    /// View predicates expelled to the outer block (they touch excluded
    /// removable relations), as indexes into [`Statement::preds`].
    expelled: Vec<usize>,
    /// Relations of the block (V₀ ∪ W ∩ view ∪ pulled base rels).
    block_set: u64,
}

/// The statement's optimizer facts, worked out once at the top of
/// [`optimize_inner`]: every W candidate, view block and outer
/// combination reads them, and hands each block's context the
/// predicate facts it needs. Relations are resolved once by the
/// estimator, and each distinct scan leaf is built and priced once.
struct Statement<'a> {
    query: &'a CanonicalQuery,
    est: CardEstimator<'a>,
    /// `query.preds`, then each view's predicates in view order.
    preds: Vec<PredFacts>,
    /// `preds[view_preds[i]]` are view `i`'s.
    view_preds: Vec<Range<usize>>,
    /// What the query reads above its blocks: `G0`'s grouping columns and
    /// aggregate operands, and the projection.
    top_cols: Vec<Col>,
    /// Scan leaves built so far (a handful: a list beats hashing keys).
    leaves: RefCell<Vec<(LeafKey, Planned)>>,
}

/// A scan leaf's relation and filters (indexes into
/// [`Statement::preds`], in order); its projection is its plan's.
type LeafKey = (RelId, Vec<usize>);

impl<'a> Statement<'a> {
    fn new(query: &'a CanonicalQuery, est: CardEstimator<'a>) -> Statement<'a> {
        let mut preds: Vec<PredFacts> = query.preds.iter().map(PredFacts::new).collect();
        let view_preds = query
            .views
            .iter()
            .map(|v| {
                let start = preds.len();
                preds.extend(v.preds.iter().map(PredFacts::new));
                start..preds.len()
            })
            .collect();
        let mut top_cols = query.projection.clone();
        if let Some(g) = &query.group {
            top_cols.extend_from_slice(&g.group_cols);
            top_cols.extend(g.aggs.iter().flat_map(|a| a.cols_used()));
        }
        Statement {
            query,
            est,
            preds,
            view_preds,
            top_cols,
            leaves: RefCell::default(),
        }
    }

    /// The indexes of `query.preds` in [`Self::preds`].
    fn query_preds(&self) -> Range<usize> {
        0..self.query.preds.len()
    }

    /// Enumerate admissible W sets for view `i`: always the original view
    /// (`W = Vi − V₀i`); plus, when pull-up is enabled, connected subsets
    /// of B′ relations that share a predicate with the view, combined
    /// with subsets of the view's own removable relations (case iii).
    fn w_candidates(&self, i: usize, d: u64, bprime: u64, config: &OptimizerConfig) -> Vec<u64> {
        let mut out: Vec<u64> = vec![d]; // the original view
        let cap = config.pull_up.cap(32);
        if cap == 0 {
            return out;
        }

        // Base-side candidates: relations of B′ (outside this view) that
        // share a predicate with the view's relations or exports.
        let view = &self.query.views[i];
        let view_set = bitset(&view.rels);
        let shares_pred = |w: RelId| {
            let mut preds = self.query_preds().chain(self.view_preds[i].clone());
            preds.any(|k| {
                let f = &self.preds[k];
                f.rels & w.bit() != 0 && (f.rels & view_set != 0 || f.aggs.contains(&view.id()))
            })
        };
        let base_candidates: Vec<RelId> = rels_of(bprime & !view_set)
            .filter(|w| !config.require_shared_predicate || shares_pred(*w))
            .collect();

        // Subsets of the view's removable relations (case iii): exhaustive
        // when small, else just all-or-nothing.
        let d_rels: Vec<RelId> = rels_of(d).collect();
        let d_subsets: Vec<u64> = match d_rels.len() {
            n @ 0..=3 => (0..1u64 << n)
                .map(|m| bits_of(m).fold(0, |a, j| a | d_rels[j].bit()))
                .collect(),
            _ => vec![0, d],
        };

        // Connected subsets of base candidates up to the k-level cap.
        let mut base_subsets: Vec<u64> = vec![0];
        let mut frontier: Vec<u64> = vec![0];
        for _ in 0..cap {
            let mut next = Vec::new();
            for &s in &frontier {
                for w in &base_candidates {
                    if s & w.bit() != 0 {
                        continue;
                    }
                    let ns = s | w.bit();
                    if !base_subsets.contains(&ns) {
                        base_subsets.push(ns);
                        next.push(ns);
                    }
                }
            }
            if next.is_empty() {
                break;
            }
            frontier = next;
        }

        for &ds in &d_subsets {
            for &bs in &base_subsets {
                let w = ds | bs;
                if !out.contains(&w) {
                    out.push(w);
                }
            }
        }
        // Keep the candidate list bounded.
        out.truncate(96);
        out
    }

    /// Build and optimize Φ(V₀, W) for view `i`. Returns `None` when the
    /// choice of W is unsound (an excluded removable relation cannot
    /// legally stay outside the deferred group-by).
    fn build_view_block(
        &self,
        i: usize,
        v0: u64,
        w: u64,
        config: &OptimizerConfig,
        stats: &mut SearchStats,
        gov: &ResourceGovernor,
    ) -> Result<Option<ViewBlock>> {
        let view = &self.query.views[i];
        let view_set = bitset(&view.rels);
        let block_set = v0 | w;
        let excluded = view_set & !block_set; // removable rels left outside
        let in_block = |r: RelId| block_set & r.bit() != 0;
        let inside = |k: &usize| self.preds[*k].rels & !block_set == 0;

        // Split view predicates: inside the block vs expelled.
        let (mut block_preds, expelled): (Vec<usize>, Vec<usize>) =
            self.view_preds[i].clone().partition(inside);

        // Absorb outer predicates fully contained in the block.
        let mut absorbed = vec![false; self.query.preds.len()];
        let mut deferred: Vec<usize> = Vec::new();
        for k in self.query_preds().filter(inside) {
            let aggs = &self.preds[k].aggs;
            if aggs.is_empty() {
                block_preds.push(k);
                absorbed[k] = true;
            } else if aggs.iter().all(|&o| o == view.id()) {
                deferred.push(k);
                absorbed[k] = true;
            }
            // Predicates referencing other views' aggregates stay outer.
        }

        // Columns of this block referenced outside it, in `Col` order.
        let note = |c: &&Col| match c {
            Col::Base(b) => in_block(b.rel),
            Col::Agg(a) => a.owner == view.id(),
            Col::Part(_) => false,
        };
        let outside = self.query_preds().filter(|&k| !absorbed[k]);
        let outside = outside.chain(expelled.iter().copied());
        let mut needed_outside: Vec<Col> = outside
            .flat_map(|k| self.preds[k].cols.iter())
            .chain(&self.top_cols)
            .filter(note)
            .copied()
            .collect();
        needed_outside.sort_unstable();
        needed_outside.dedup();

        // Deferred group-by G′: grouping columns, the view's first.
        // Relations pulled *through* the group-by: members of W that are not
        // the view's own relations. (Re-included removable relations sit
        // below G′ exactly where the original view had them — they need no
        // key machinery.)
        let pulled_foreign = w & !view_set;
        let mut group_cols: Vec<Col> = view.group_cols.clone();
        let add_group = |c: Col, out: &mut Vec<Col>| {
            if !out.contains(&c) {
                out.push(c);
            }
        };
        // May column `c` be added to G′'s grouping columns without changing
        // group identities? Original grouping columns: trivially. Columns of
        // pulled foreign relations: yes — they are functionally determined
        // by the relation's key, which pull-up adds below. Other view-side
        // columns (of V₀ or re-included removable relations): no — grouping
        // by them would split the view's groups.
        let exportable = |c: &Col| -> bool {
            if view.group_cols.contains(c) {
                return true;
            }
            match c.as_base() {
                Some(b) => pulled_foreign & b.rel.bit() != 0,
                None => false,
            }
        };
        // Needed-outside base columns must pass through G′; deferred HAVING
        // predicates may only read grouping columns and the view's
        // aggregates, so their base operands become grouping columns too.
        let deferred_cols = deferred.iter().flat_map(|&k| &self.preds[k].cols);
        for c in needed_outside.iter().chain(deferred_cols) {
            if c.as_base().is_some() {
                if !exportable(c) {
                    return Ok(None);
                }
                add_group(*c, &mut group_cols);
            }
        }
        // Cross-predicate block-side columns for excluded relations.
        let view_then_query = || self.view_preds[i].clone().chain(self.query_preds());
        for r in rels_of(excluded) {
            for k in view_then_query().filter(|&k| self.preds[k].rels & r.bit() != 0) {
                for c in &self.preds[k].cols {
                    if c.as_base().is_some_and(|b| in_block(b.rel)) {
                        if !exportable(c) {
                            return Ok(None); // unsound exclusion
                        }
                        add_group(*c, &mut group_cols);
                    }
                }
            }
        }
        // Keys of pulled foreign relations (Definition 1 item 2), with the
        // foreign-key-join omission.
        for wr in rels_of(pulled_foreign) {
            let Some(pk) = self.est.rel_table(wr)?.primary_key() else {
                return Ok(None); // no derivable key → pull-up inadmissible
            };
            let key_cols: Vec<Col> = pk.cols.iter().map(|&c| Col::base(wr, c)).collect();
            // FK omission: all key columns equated (by block predicates) to
            // existing grouping columns.
            let fk_covered = key_cols.iter().all(|k| {
                block_preds.iter().any(|&p| match self.preds[p].eq {
                    Some((a, b)) => {
                        (a == *k && group_cols.contains(&b)) || (b == *k && group_cols.contains(&a))
                    }
                    None => false,
                })
            });
            if !fk_covered {
                for k in key_cols {
                    add_group(k, &mut group_cols);
                }
            }
        }

        // Soundness for excluded relations: key coverage into the block.
        for r in rels_of(excluded) {
            let mut equated: BTreeSet<usize> = BTreeSet::new();
            for k in view_then_query() {
                if let Some((a, b)) = self.preds[k].eq {
                    if let (Some(x), Some(y)) = (a.as_base(), b.as_base()) {
                        if x.rel == r && in_block(y.rel) {
                            equated.insert(x.col as usize);
                        }
                        if y.rel == r && in_block(x.rel) {
                            equated.insert(y.col as usize);
                        }
                    }
                }
            }
            let eq: Vec<usize> = equated.into_iter().collect();
            if !self.est.rel_table(r)?.cols_contain_key(&eq) {
                return Ok(None);
            }
        }

        let mut having = view.having.clone();
        having.extend(deferred.iter().map(|&k| self.preds[k].pred.clone()));
        let gspec = GroupBySpec {
            owner: view.id(),
            group_cols,
            aggs: view.aggs.clone(),
            having,
        };

        // Block output: exported needed-outside columns (grouping columns
        // pass through; aggregates are produced by G′). Nothing referenced
        // outside (degenerate): export the grouping columns so the block
        // has an output.
        let project = if needed_outside.is_empty() {
            gspec.group_cols.clone()
        } else {
            needed_outside
        };

        // Leaf scans for the block relations; single-relation predicates
        // become scan filters.
        let mut needed = project.clone();
        needed.extend_from_slice(&gspec.group_cols);
        needed.extend(gspec.aggs.iter().flat_map(|a| a.cols_used()));
        needed.extend(gspec.having.iter().flat_map(|h| h.cols_used()));
        let (items, preds) = self.leaves(block_set, &block_preds, needed)?;

        let bq = BlockQuery {
            items,
            preds,
            group: Some(gspec),
            project,
        };
        stats.pulled_blocks += 1;
        let entry = optimize_block_governed(&bq, &self.est, config, stats, gov)?;
        Ok(Some(ViewBlock {
            w,
            item: entry,
            absorbed,
            expelled,
            block_set,
        }))
    }

    /// Scan leaves for the relations of `rels`. Each takes as filters the
    /// predicates of `preds` that read it alone, and projects the columns
    /// of `needed` and of `preds` it holds (at least one). Returns the
    /// leaves and the predicates left for the block.
    fn leaves(
        &self,
        rels: u64,
        preds: &[usize],
        mut needed: Vec<Col>,
    ) -> Result<(Vec<Planned>, Vec<&PredFacts>)> {
        needed.extend(preds.iter().flat_map(|&k| &self.preds[k].cols));
        needed.sort_unstable();
        needed.dedup();
        let mut items = Vec::with_capacity(rels.count_ones() as usize);
        for r in rels_of(rels) {
            let reads_r = |&&k: &&usize| {
                let f = &self.preds[k];
                f.is_filter() && f.rels == r.bit()
            };
            let width = self.est.rel_table(r)?.schema().len();
            let proj = needed.iter().copied().filter(move |c| {
                c.as_base()
                    .is_some_and(|b| b.rel == r && (b.col as usize) < width)
            });
            items.push(self.leaf(r, preds.iter().filter(reads_r).copied(), proj)?);
        }
        let multi = preds.iter().map(|&k| &self.preds[k]);
        let multi = multi.filter(|f| !(f.is_filter() && f.rels & rels != 0));
        Ok((items, multi.collect()))
    }

    /// The scan of `r` under `filters` projecting `proj` (at least its
    /// first column: a relation used purely for its existence still needs
    /// an output), built and priced the first time any block asks for it.
    fn leaf(
        &self,
        r: RelId,
        filters: impl Iterator<Item = usize> + Clone,
        proj: impl Iterator<Item = Col> + Clone,
    ) -> Result<Planned> {
        let bare = proj.clone().next().is_none();
        let proj = proj.chain(bare.then(|| Col::base(r, 0)));
        let same = |((rel, fs), scan): &&(LeafKey, Planned)| {
            let projects = scan.plan.output_cols().iter().copied();
            *rel == r && fs.iter().copied().eq(filters.clone()) && projects.eq(proj.clone())
        };
        if let Some((_, hit)) = self.leaves.borrow().iter().find(same) {
            return Ok(hit.clone());
        }
        let key = (r, filters.collect::<Vec<_>>());
        let fs = key.1.iter().map(|&k| self.preds[k].pred.clone()).collect();
        let table = self.query.env.table_of(r)?;
        let scan = Planned::new(Plan::scan(r, table, fs, proj.collect()), &self.est)?;
        self.leaves.borrow_mut().push((key, scan.clone()));
        Ok(scan)
    }

    /// Phase 2: enumerate the outer block for one combination of view
    /// blocks.
    fn outer_phase(
        &self,
        chosen: &[&ViewBlock],
        bprime: u64,
        config: &OptimizerConfig,
        stats: &mut SearchStats,
        gov: &ResourceGovernor,
    ) -> Result<Planned> {
        // Outer predicate pool: query preds not absorbed anywhere, plus all
        // expelled view predicates.
        let mut pool: Vec<usize> = self
            .query_preds()
            .filter(|&k| !chosen.iter().any(|vb| vb.absorbed[k]))
            .collect();
        for vb in chosen {
            pool.extend_from_slice(&vb.expelled);
        }

        // Outer relations: B′ minus everything consumed by blocks.
        let consumed: u64 = chosen.iter().fold(0, |a, vb| a | vb.block_set);
        let outer_rels = bprime & !consumed;

        // Items: view blocks first, then outer scans. Predicates of the
        // pool reading one outer relation alone become its scan filters;
        // the rest feed the enumerator ("item" granularity: a view block
        // is one item).
        let (scans, preds) = self.leaves(outer_rels, &pool, self.top_cols.clone())?;
        let mut items: Vec<Planned> = chosen.iter().map(|vb| vb.item.clone()).collect();
        items.extend(scans);

        let bq = BlockQuery {
            items,
            preds,
            group: self.query.group.as_ref().map(|g| GroupBySpec {
                owner: ViewId::Top,
                group_cols: g.group_cols.clone(),
                aggs: g.aggs.clone(),
                having: g.having.clone(),
            }),
            project: self.query.projection.clone(),
        };
        optimize_block_governed(&bq, &self.est, config, stats, gov)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::PlanAnalyzer;
    use crate::query::examples::{dept, emp, example1_query, example2_query};
    use aggview_common::Predicate;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn catalog(n_depts: usize, emps: usize, young: f64) -> Catalog {
        gen_empdept(&EmpDeptConfig {
            n_depts,
            emps_per_dept: emps,
            young_fraction: young,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn example1_optimizes_and_validates() {
        let cat = catalog(20, 10, 0.1);
        let q = example1_query();
        let opt = optimize(&q, &cat, CostModel::default(), &OptimizerConfig::default()).unwrap();
        PlanAnalyzer::new(&cat)
            .with_env(&q.env)
            .verify(&opt.plan)
            .unwrap();
        assert!(opt.props.cost > 0.0);
        assert_eq!(opt.pulled.len(), 1);
    }

    #[test]
    fn example1_never_worse_than_traditional() {
        for (nd, ne, yf) in [(50, 4, 0.5), (4, 100, 0.02), (20, 20, 0.1)] {
            let cat = catalog(nd, ne, yf);
            let q = example1_query();
            let full =
                optimize(&q, &cat, CostModel::default(), &OptimizerConfig::default()).unwrap();
            let trad = optimize(
                &q,
                &cat,
                CostModel::default(),
                &OptimizerConfig::traditional(),
            )
            .unwrap();
            assert!(
                full.props.cost <= trad.props.cost + 1e-6,
                "({nd},{ne},{yf}): full {} vs trad {}",
                full.props.cost,
                trad.props.cost
            );
        }
    }

    #[test]
    fn example2_single_block_works() {
        let cat = catalog(10, 20, 0.1);
        let q = example2_query();
        let opt = optimize(&q, &cat, CostModel::default(), &OptimizerConfig::default()).unwrap();
        PlanAnalyzer::new(&cat)
            .with_env(&q.env)
            .verify(&opt.plan)
            .unwrap();
        assert!(matches!(opt.plan, Plan::GroupBy { .. } | Plan::Join { .. }));
    }

    #[test]
    fn traditional_keeps_view_boundary() {
        let cat = catalog(10, 10, 0.1);
        let q = example1_query();
        let opt = optimize(
            &q,
            &cat,
            CostModel::default(),
            &OptimizerConfig::traditional(),
        )
        .unwrap();
        // Traditional: nothing pulled through the view.
        assert!(opt.pulled[0].is_empty());
        PlanAnalyzer::new(&cat)
            .with_env(&q.env)
            .verify(&opt.plan)
            .unwrap();
    }

    #[test]
    fn pull_up_selected_when_outer_is_very_selective() {
        // Few young employees, many departments: the paper says query B
        // (pull-up) should win.
        let cat = catalog(200, 10, 0.01);
        let q = example1_query();
        let opt = optimize(&q, &cat, CostModel::default(), &OptimizerConfig::default()).unwrap();
        let trad = optimize(
            &q,
            &cat,
            CostModel::default(),
            &OptimizerConfig::traditional(),
        )
        .unwrap();
        assert!(opt.props.cost <= trad.props.cost + 1e-6);
    }

    #[test]
    fn traditional_never_pulls_up() {
        let cat = catalog(30, 5, 0.1);
        let q = example1_query();
        let t = optimize(
            &q,
            &cat,
            CostModel::default(),
            &OptimizerConfig::traditional(),
        )
        .unwrap();
        assert!(t.pulled.iter().all(Vec::is_empty));
    }

    #[test]
    fn traditional_explores_no_more_than_full() {
        let cat = catalog(10, 10, 0.1);
        let q = example1_query();
        let model = CostModel::default();
        let t = optimize(&q, &cat, model, &OptimizerConfig::traditional()).unwrap();
        let f = optimize(&q, &cat, model, &OptimizerConfig::default()).unwrap();
        assert!(t.stats.total() <= f.stats.total());
        assert!(f.props.cost <= t.props.cost + 1e-6);
    }

    /// Example 1 with the department joined on the view's grouping
    /// column and its name in the output:
    ///
    /// ```sql
    /// select e1.sal, d.dname from emp e1, A1 b, <dept_table> d
    ///  where e1.dno = b.dno and b.dno = d.dno
    ///    and e1.age < 22 and e1.sal > b.Asal
    /// ```
    ///
    /// `r0` = emp e1, `r1` = emp e2 (the view's), `r2` = dept d.
    fn example1_with_dept(dept_table: &str) -> CanonicalQuery {
        let mut q = example1_query();
        let d = q.env.add_rel(dept_table);
        q.base_rels.push(d);
        q.preds.push(Predicate::eq_cols(
            Col::base(RelId(1), emp::DNO),
            Col::base(d, dept::DNO),
        ));
        q.projection.push(Col::base(d, dept::DNAME));
        q
    }

    /// Phase 1 for view Q1 of `q` with `W` = {dept}: G′'s grouping
    /// columns, or `None` when the block is inadmissible.
    fn pulled_dept_block(q: &CanonicalQuery, cat: &Catalog) -> Option<Vec<Col>> {
        let st = Statement::new(q, CardEstimator::new(CostModel::default(), cat, &q.env));
        let gov = ResourceGovernor::unlimited();
        // No push-down: G′ stays at the block's root as built.
        let config = OptimizerConfig {
            push_down: false,
            use_eager_agg: false,
            ..OptimizerConfig::default()
        };
        let vb = st
            .build_view_block(
                0,
                RelId(1).bit(),
                RelId(2).bit(),
                &config,
                &mut SearchStats::default(),
                &gov,
            )
            .unwrap()?;
        fn owned_by_view(p: &Plan) -> Option<&GroupBySpec> {
            match p {
                Plan::GroupBy { spec, .. } if spec.owner == ViewId::View(0) => Some(spec),
                Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => {
                    owned_by_view(input)
                }
                Plan::Join { left, right, .. } => {
                    owned_by_view(left).or_else(|| owned_by_view(right))
                }
                Plan::Scan { .. } | Plan::ExtentScan { .. } => None,
            }
        }
        Some(owned_by_view(&vb.item.plan).expect("G′").group_cols.clone())
    }

    /// Definition 1 item 2 with the foreign-key omission: `d.dno` is
    /// equated to the view's grouping column `e2.dno`, so G′ does not
    /// group by it; `d.dname`, read above the block, is carried as a
    /// grouping column.
    #[test]
    fn pulled_fk_join_omits_the_key_from_grouping() {
        let cat = catalog(10, 5, 0.1);
        let g = pulled_dept_block(&example1_with_dept("dept"), &cat).expect("admissible");
        assert!(g.contains(&Col::base(RelId(1), emp::DNO)), "{g:?}");
        assert!(g.contains(&Col::base(RelId(2), dept::DNAME)), "{g:?}");
        assert!(
            !g.contains(&Col::base(RelId(2), dept::DNO)),
            "FK key kept: {g:?}"
        );
    }

    /// A relation without a primary key cannot be pulled through a
    /// view: no key to add to G′ (Definition 1 item 2).
    #[test]
    fn pulling_a_keyless_relation_is_inadmissible() {
        let cat = catalog(10, 5, 0.1);
        let dept = cat.get("dept").unwrap();
        let mut keyless = aggview_storage::Table::builder("dept_nokey", dept.schema().clone());
        for row in dept.rows() {
            keyless.push(row).unwrap();
        }
        cat.add(keyless.build().unwrap()).unwrap();
        assert!(pulled_dept_block(&example1_with_dept("dept_nokey"), &cat).is_none());
        assert!(pulled_dept_block(&example1_with_dept("dept"), &cat).is_some());
    }

    #[test]
    fn search_stats_accumulate() {
        let cat = catalog(10, 10, 0.1);
        let q = example1_query();
        let opt = optimize(&q, &cat, CostModel::default(), &OptimizerConfig::default()).unwrap();
        assert!(opt.stats.plans_built > 0);
        assert!(opt.stats.pulled_blocks >= 1);
    }
}
