//! The general optimization algorithm for queries with multiple
//! aggregate views (paper Section 5.4), which subsumes the single-view
//! algorithm of Section 5.3.
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
use crate::optimizer::greedy::{optimize_block_governed, BlockQuery};
use crate::optimizer::stats::SearchStats;
use crate::optimizer::{bitset, rels_of, OptimizerConfig, Planned};
use crate::plan::{all_cols, GroupBySpec, Plan};
use crate::query::{CanonicalQuery, ViewDef};
use crate::transform::pushdown::{group_applicable_at, minimal_invariant_set, InvariantGroupBy};
use aggview_common::{AggViewError, Col, Predicate, RelId, Result, ViewId};
use aggview_storage::Catalog;
use std::collections::BTreeSet;
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
    let est = CardEstimator::new(model, catalog, &query.env);
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
        let (v0_rels, removed) = minimal_invariant_set(&igb, &query.env, catalog)?;
        let v0_set = bitset(&v0_rels);
        // Defensive re-validation of the fixpoint (greedy removal order
        // could in principle leave an inconsistent set).
        let v0_set =
            if removed.is_empty() || group_applicable_at(&igb, v0_set, &query.env, catalog)? {
                v0_set
            } else {
                bitset(&v.rels)
            };
        v0.push(v0_set);
        d.push(bitset(&v.rels) & !v0_set);
    }
    let base_set = bitset(&query.base_rels);
    let d_all: u64 = d.iter().fold(0, |a, b| a | b);
    let bprime = base_set | d_all;

    // Phase 1: per-view W candidates and their optimized blocks.
    let mut per_view: Vec<Vec<ViewBlock>> = Vec::with_capacity(query.views.len());
    for (i, v) in query.views.iter().enumerate() {
        gov.check_interrupt()?;
        let ws = w_candidates(query, v, v0[i], d[i], bprime, config);
        let mut blocks = Vec::new();
        for w in ws {
            if let Some(vb) =
                build_view_block(query, v, v0[i], w, &est, catalog, config, &mut stats, gov)?
            {
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
        // Disjointness of pulled sets.
        let mut used = 0u64;
        let mut disjoint = true;
        for (i, &c) in combo.iter().enumerate() {
            let w = per_view[i][c].w & bprime;
            if used & w != 0 {
                disjoint = false;
                break;
            }
            used |= w;
        }
        if disjoint {
            let chosen: Vec<&ViewBlock> = combo
                .iter()
                .enumerate()
                .map(|(i, &c)| &per_view[i][c])
                .collect();
            match outer_phase(
                query, &chosen, bprime, &est, catalog, config, &mut stats, gov,
            ) {
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
        // Advance the mixed-radix counter.
        let mut i = 0;
        loop {
            if i == combo.len() {
                break;
            }
            combo[i] += 1;
            if combo[i] < per_view[i].len() {
                break;
            }
            combo[i] = 0;
            i += 1;
        }
        if i == combo.len() {
            break;
        }
        if combo.iter().all(|&c| c == 0) {
            break;
        }
    }

    let (best, pulled) = best.ok_or_else(|| {
        infeasible.unwrap_or_else(|| AggViewError::Optimize("no feasible plan found".into()))
    })?;
    let mut out = Optimized {
        plan: Arc::unwrap_or_clone(best.plan),
        props: best.props,
        stats: SearchStats::default(),
        pulled,
        outcome: OptimizeOutcome::Full,
    };
    // Post-pass: merge successive group-by operators (paper Section 3 —
    // "pull-up may result in combining G0 and G1"). Combining removes an
    // operator, so the estimated cost never increases; keep the combined
    // plan when it is valid and no costlier.
    let legal = |plan: &Plan| {
        crate::analyze::PlanAnalyzer::new(catalog)
            .with_env(&query.env)
            .verify(plan)
            .is_ok()
    };
    let combined = crate::transform::combine::combine_all(&out.plan);
    if combined != out.plan && legal(&combined) {
        if let Ok(props) = est.cost_plan(&combined) {
            if props.cost <= out.props.cost + 1e-9 {
                out.plan = combined;
                out.props = props;
            }
        }
    }
    // Post-pass: rewrite a provably-empty plan (contradictory
    // predicates found by the dataflow pass) to an `EmptyScan` so the
    // executor never scans for rows that cannot exist.
    let (pruned, n_pruned) = crate::analyze::dataflow::prune_empty(
        &out.plan,
        catalog,
        Some(query.env.rel_tables.as_slice()),
    );
    if n_pruned > 0 && legal(&pruned) {
        if let Ok(props) = est.cost_plan(&pruned) {
            out.plan = pruned;
            out.props = props;
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
    /// Indexes into `query.preds` absorbed by this block.
    absorbed: BTreeSet<usize>,
    /// View predicates expelled to the outer block (they touch excluded
    /// removable relations).
    expelled: Vec<Predicate>,
    /// Relations of the block (V₀ ∪ W ∩ view ∪ pulled base rels).
    block_set: u64,
}

/// Enumerate admissible W sets for a view: always the original view
/// (`W = Vi − V₀i`); plus, when pull-up is enabled, connected subsets of
/// B′ relations that share a predicate with the view, combined with
/// subsets of the view's own removable relations (case iii).
fn w_candidates(
    query: &CanonicalQuery,
    view: &ViewDef,
    _v0: u64,
    d: u64,
    bprime: u64,
    config: &OptimizerConfig,
) -> Vec<u64> {
    let mut out: Vec<u64> = vec![d]; // the original view
    let cap = config.pull_up.cap(32);
    if cap == 0 {
        return out;
    }

    // Base-side candidates: relations of B′ (outside this view) that
    // share a predicate with the view's relations or exports.
    let view_set = bitset(&view.rels);
    let shares_pred = |w: RelId| {
        query.preds.iter().chain(view.preds.iter()).any(|p| {
            let rels = p.rels_used();
            let touches_w = rels.contains(&w);
            let touches_view = rels.iter().any(|r| view_set & r.bit() != 0)
                || p.cols_used()
                    .iter()
                    .any(|c| matches!(c.as_agg(), Some(a) if a.owner == view.id()));
            touches_w && touches_view
        })
    };
    let base_candidates: Vec<RelId> = rels_of(bprime & !view_set)
        .filter(|w| !config.require_shared_predicate || shares_pred(*w))
        .collect();

    // Subsets of the view's removable relations (case iii): exhaustive
    // when small, else just all-or-nothing.
    let d_rels: Vec<RelId> = rels_of(d).collect();
    let d_subsets: Vec<u64> = if d_rels.len() <= 3 {
        (0..(1u64 << d_rels.len()))
            .map(|m| {
                d_rels
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| m & (1 << j) != 0)
                    .map(|(_, r)| r.bit())
                    .fold(0, |a, b| a | b)
            })
            .collect()
    } else {
        vec![0, d]
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

/// Build and optimize Φ(V₀, W) for one view. Returns `None` when the
/// choice of W is unsound (an excluded removable relation cannot legally
/// stay outside the deferred group-by).
#[allow(clippy::too_many_arguments)]
fn build_view_block(
    query: &CanonicalQuery,
    view: &ViewDef,
    v0: u64,
    w: u64,
    est: &CardEstimator<'_>,
    catalog: &Catalog,
    config: &OptimizerConfig,
    stats: &mut SearchStats,
    gov: &ResourceGovernor,
) -> Result<Option<ViewBlock>> {
    let view_set = bitset(&view.rels);
    let block_set = v0 | w;
    let excluded = view_set & !block_set; // removable rels left outside
    let in_block = |r: RelId| block_set & r.bit() != 0;

    // Split view predicates: inside the block vs expelled.
    let mut block_preds: Vec<Predicate> = Vec::new();
    let mut expelled: Vec<Predicate> = Vec::new();
    for p in &view.preds {
        if p.rels_used().iter().all(|r| in_block(*r)) {
            block_preds.push(p.clone());
        } else {
            expelled.push(p.clone());
        }
    }

    // Absorb outer predicates fully contained in the block.
    let mut absorbed: BTreeSet<usize> = BTreeSet::new();
    let mut deferred: Vec<Predicate> = Vec::new();
    for (i, p) in query.preds.iter().enumerate() {
        if !p.rels_used().iter().all(|r| in_block(*r)) {
            continue;
        }
        let aggs_used: Vec<_> = p.cols_used().iter().filter_map(|c| c.as_agg()).collect();
        if aggs_used.is_empty() {
            block_preds.push(p.clone());
            absorbed.insert(i);
        } else if aggs_used.iter().all(|a| a.owner == view.id()) {
            deferred.push(p.clone());
            absorbed.insert(i);
        }
        // Predicates referencing other views' aggregates stay outer.
    }

    // Columns of this block referenced outside it.
    let mut needed_outside: BTreeSet<Col> = BTreeSet::new();
    let note = |c: Col, needed: &mut BTreeSet<Col>| match c {
        Col::Base(b) if in_block(b.rel) => {
            needed.insert(c);
        }
        Col::Agg(a) if a.owner == view.id() => {
            needed.insert(c);
        }
        _ => {}
    };
    for (i, p) in query.preds.iter().enumerate() {
        if !absorbed.contains(&i) {
            for c in p.cols_used() {
                note(c, &mut needed_outside);
            }
        }
    }
    for p in &expelled {
        for c in p.cols_used() {
            note(c, &mut needed_outside);
        }
    }
    if let Some(g) = &query.group {
        for c in &g.group_cols {
            note(*c, &mut needed_outside);
        }
        for a in &g.aggs {
            for c in a.cols_used() {
                note(c, &mut needed_outside);
            }
        }
    }
    for c in &query.projection {
        note(*c, &mut needed_outside);
    }

    // Deferred group-by G′: grouping columns.
    let g_set: BTreeSet<Col> = view.group_cols.iter().copied().collect();
    // Relations pulled *through* the group-by: members of W that are not
    // the view's own relations. (Re-included removable relations sit
    // below G′ exactly where the original view had them — they need no
    // key machinery.)
    let pulled_foreign = w & !view_set;
    let mut group_cols: Vec<Col> = view.group_cols.clone();
    let mut gseen: BTreeSet<Col> = g_set.clone();
    let add_group = |c: Col, gseen: &mut BTreeSet<Col>, out: &mut Vec<Col>| {
        if gseen.insert(c) {
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
        if g_set.contains(c) {
            return true;
        }
        match c.as_base() {
            Some(b) => pulled_foreign & b.rel.bit() != 0,
            None => false,
        }
    };
    // Needed-outside base columns must pass through G′.
    for c in &needed_outside {
        if let Some(_b) = c.as_base() {
            if !exportable(c) {
                return Ok(None);
            }
            add_group(*c, &mut gseen, &mut group_cols);
        }
    }
    // Deferred HAVING predicates may only read grouping columns and the
    // view's aggregates: their base operands become grouping columns.
    for p in &deferred {
        for c in p.cols_used() {
            if c.as_base().is_some() {
                if !exportable(&c) {
                    return Ok(None);
                }
                add_group(c, &mut gseen, &mut group_cols);
            }
        }
    }
    // Cross-predicate block-side columns for excluded relations.
    for r in rels_of(excluded) {
        for p in view.preds.iter().chain(query.preds.iter()) {
            let rels = p.rels_used();
            if !rels.contains(&r) {
                continue;
            }
            for c in p.cols_used() {
                if let Some(b) = c.as_base() {
                    if in_block(b.rel) {
                        if !exportable(&c) {
                            return Ok(None); // unsound exclusion
                        }
                        add_group(c, &mut gseen, &mut group_cols);
                    }
                }
            }
        }
    }
    // Keys of pulled foreign relations (Definition 1 item 2), with the
    // foreign-key-join omission.
    for wr in rels_of(pulled_foreign) {
        let table = catalog.get(query.env.table_of(wr)?)?;
        let Some(pk) = table.primary_key() else {
            return Ok(None); // no derivable key → pull-up inadmissible
        };
        let key_cols: Vec<Col> = pk.cols.iter().map(|&c| Col::base(wr, c)).collect();
        // FK omission: all key columns equated (by block predicates) to
        // existing grouping columns.
        let fk_covered = key_cols.iter().all(|k| {
            block_preds.iter().any(|p| match p.as_col_eq_col() {
                Some((a, b)) => (a == *k && gseen.contains(&b)) || (b == *k && gseen.contains(&a)),
                None => false,
            })
        });
        if !fk_covered {
            for k in key_cols {
                add_group(k, &mut gseen, &mut group_cols);
            }
        }
    }

    // Soundness for excluded relations: key coverage into the block.
    for r in rels_of(excluded) {
        let table = catalog.get(query.env.table_of(r)?)?;
        let mut equated: BTreeSet<usize> = BTreeSet::new();
        for p in view.preds.iter().chain(query.preds.iter()) {
            if let Some((a, b)) = p.as_col_eq_col() {
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
        if !table.cols_contain_key(&eq) {
            return Ok(None);
        }
    }

    let mut having = view.having.clone();
    having.extend(deferred);
    let gspec = GroupBySpec {
        owner: view.id(),
        group_cols: group_cols.clone(),
        aggs: view.aggs.clone(),
        having,
    };

    // Block output: exported needed-outside columns (grouping columns
    // pass through; aggregates are produced by G′). Always export the
    // view's declared exports that are needed.
    let mut project: Vec<Col> = Vec::new();
    let mut pseen = BTreeSet::new();
    for c in needed_outside {
        if pseen.insert(c) {
            project.push(c);
        }
    }
    if project.is_empty() {
        // Nothing referenced outside (degenerate); export the grouping
        // columns so the block has an output.
        for c in &group_cols {
            if pseen.insert(*c) {
                project.push(*c);
            }
        }
    }

    // Leaf scans for the block relations; single-relation predicates
    // become scan filters.
    let (items, multi_preds) = make_leaves(
        query,
        block_set,
        &block_preds,
        &gspec,
        &project,
        est,
        catalog,
    )?;

    let bq = BlockQuery {
        items,
        preds: multi_preds,
        group: Some(gspec),
        project,
    };
    stats.pulled_blocks += 1;
    let entry = optimize_block_governed(&bq, est, catalog, config, stats, gov)?;
    Ok(Some(ViewBlock {
        w,
        item: entry,
        absorbed,
        expelled,
        block_set,
    }))
}

/// Build scan leaves for `rel_set`, assigning single-relation predicates
/// as scan filters and returning the remaining multi-relation ones.
fn make_leaves(
    query: &CanonicalQuery,
    rel_set: u64,
    preds: &[Predicate],
    gspec: &GroupBySpec,
    project: &[Col],
    est: &CardEstimator<'_>,
    catalog: &Catalog,
) -> Result<(Vec<Planned>, Vec<Predicate>)> {
    let mut needed: BTreeSet<Col> = project.iter().copied().collect();
    needed.extend(gspec.group_cols.iter().copied());
    for a in &gspec.aggs {
        needed.extend(a.cols_used());
    }
    for h in &gspec.having {
        needed.extend(h.cols_used().into_iter().filter(|c| !c.is_agg()));
    }
    let mut multi: Vec<Predicate> = Vec::new();
    let mut filters: Vec<(RelId, Predicate)> = Vec::new();
    for p in preds {
        let rels: Vec<RelId> = p.rels_used().into_iter().collect();
        if rels.len() == 1 && !p.uses_agg() {
            filters.push((rels[0], p.clone()));
        } else {
            multi.push(p.clone());
            needed.extend(p.cols_used().into_iter().filter(|c| !c.is_agg()));
        }
    }
    let mut items = Vec::new();
    for r in rels_of(rel_set) {
        let table_name = query.env.table_of(r)?.to_string();
        let table = catalog.get(&table_name)?;
        let fs: Vec<Predicate> = filters
            .iter()
            .filter(|(fr, _)| *fr == r)
            .map(|(_, p)| {
                needed.extend(p.cols_used());
                p.clone()
            })
            .collect();
        let proj: Vec<Col> = all_cols(r, table.schema().len())
            .into_iter()
            .filter(|c| needed.contains(c))
            .collect();
        let proj = if proj.is_empty() {
            // Keep at least the first column so the scan has an output
            // (e.g. a relation used purely for its existence).
            vec![Col::base(r, 0)]
        } else {
            proj
        };
        let plan = Plan::scan(r, table_name, fs, proj);
        items.push(Planned::new(plan, est)?);
    }
    Ok((items, multi))
}

/// Phase 2: enumerate the outer block for one combination of view
/// blocks.
#[allow(clippy::too_many_arguments)]
fn outer_phase(
    query: &CanonicalQuery,
    chosen: &[&ViewBlock],
    bprime: u64,
    est: &CardEstimator<'_>,
    catalog: &Catalog,
    config: &OptimizerConfig,
    stats: &mut SearchStats,
    gov: &ResourceGovernor,
) -> Result<Planned> {
    // Outer predicate pool: query preds not absorbed anywhere, plus all
    // expelled view predicates.
    let absorbed: BTreeSet<usize> = chosen
        .iter()
        .flat_map(|vb| vb.absorbed.iter().copied())
        .collect();
    let mut pool: Vec<Predicate> = query
        .preds
        .iter()
        .enumerate()
        .filter(|(i, _)| !absorbed.contains(i))
        .map(|(_, p)| p.clone())
        .collect();
    for vb in chosen {
        pool.extend(vb.expelled.iter().cloned());
    }

    // Outer relations: B′ minus everything consumed by blocks.
    let consumed: u64 = chosen.iter().fold(0, |a, vb| a | vb.block_set);
    let outer_rels = bprime & !consumed;

    // Group spec for G0.
    let g0 = query.group.as_ref().map(|g| GroupBySpec {
        owner: ViewId::Top,
        group_cols: g.group_cols.clone(),
        aggs: g.aggs.clone(),
        having: g.having.clone(),
    });

    // Needed columns for scans: projection + pool preds + G0.
    let mut needed: BTreeSet<Col> = query.projection.iter().copied().collect();
    for p in &pool {
        needed.extend(p.cols_used());
    }
    if let Some(g) = &g0 {
        needed.extend(g.group_cols.iter().copied());
        for a in &g.aggs {
            needed.extend(a.cols_used());
        }
    }

    // Split pool: single-item predicates become scan filters; the rest
    // feed the enumerator. "Item" granularity: a view block is one item.
    let item_of_rel = |r: RelId| -> usize {
        for (i, vb) in chosen.iter().enumerate() {
            if vb.block_set & r.bit() != 0 {
                return i;
            }
        }
        usize::MAX // outer scan; refined below
    };
    let mut scan_filters: Vec<(RelId, Predicate)> = Vec::new();
    let mut multi: Vec<Predicate> = Vec::new();
    for p in &pool {
        let rels: Vec<RelId> = p.rels_used().into_iter().collect();
        let has_agg = p.uses_agg();
        if rels.len() == 1 && !has_agg && outer_rels & rels[0].bit() != 0 {
            scan_filters.push((rels[0], p.clone()));
        } else if !has_agg && !rels.is_empty() && {
            let first = item_of_rel(rels[0]);
            first != usize::MAX && rels.iter().all(|r| item_of_rel(*r) == first)
        } {
            // Single-item predicate on a view block's exports: apply as a
            // join-time predicate is impossible; it should have been
            // absorbed. Treat as multi to be safe (it will be evaluable
            // at the first join involving the block).
            multi.push(p.clone());
        } else {
            multi.push(p.clone());
        }
    }

    // Items: view blocks first, then outer scans.
    let mut items: Vec<Planned> = chosen.iter().map(|vb| vb.item.clone()).collect();
    for r in rels_of(outer_rels) {
        let table_name = query.env.table_of(r)?.to_string();
        let table = catalog.get(&table_name)?;
        let fs: Vec<Predicate> = scan_filters
            .iter()
            .filter(|(fr, _)| *fr == r)
            .map(|(_, p)| {
                needed.extend(p.cols_used());
                p.clone()
            })
            .collect();
        let proj: Vec<Col> = all_cols(r, table.schema().len())
            .into_iter()
            .filter(|c| needed.contains(c))
            .collect();
        let proj = if proj.is_empty() {
            vec![Col::base(r, 0)]
        } else {
            proj
        };
        items.push(Planned::new(Plan::scan(r, table_name, fs, proj), est)?);
    }

    let bq = BlockQuery {
        items,
        preds: multi,
        group: g0,
        project: query.projection.clone(),
    };
    optimize_block_governed(&bq, est, catalog, config, stats, gov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::PlanAnalyzer;
    use crate::query::examples::{example1_query, example2_query};
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
    fn search_stats_accumulate() {
        let cat = catalog(10, 10, 0.1);
        let q = example1_query();
        let opt = optimize(&q, &cat, CostModel::default(), &OptimizerConfig::default()).unwrap();
        assert!(opt.stats.plans_built > 0);
        assert!(opt.stats.pulled_blocks >= 1);
    }
}
