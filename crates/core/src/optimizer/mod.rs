//! Optimization algorithms for queries with aggregate views (paper
//! Section 5).
//!
//! * [`greedy`] — the one block enumerator: [SAC+79] dynamic
//!   programming over linear join orders (Section 5.1), extended per
//!   Section 5.2 to *linear aggregate join trees* with the **greedy
//!   conservative heuristic** (early group-by placement kept only when
//!   cheaper and no wider, which preserves the never-worse guarantee).
//!   A block without a group-by is the plain SPJ search;
//! * [`OptimizerConfig::traditional`] — the baseline two-phase
//!   optimizer: the general algorithm with pull-up and push-down off;
//! * [`multi_view`] — Sections 5.3 and 5.4: pull-up enumeration
//!   `Φ(V₀, W)` for each aggregate view, with disjoint pulled-up sets
//!   per view;
//! * [`stats`] — search-effort accounting (plans built, subsets
//!   explored) used by experiment E5.

mod colset;
pub(crate) mod facts;
pub mod greedy;
pub mod multi_view;
pub mod stats;

pub use stats::SearchStats;

use crate::cost::{CardEstimator, PlanProps};
use crate::plan::Plan;
use aggview_common::{RelId, Result};
use std::sync::Arc;

/// A planned subtree: a plan and the properties the cost model derives
/// for it (`props == est.cost_plan(&plan)`, bit for bit). It is what
/// the enumerator sequences (a base-table scan or an already-optimized
/// view block — the paper's phase 2 treats "relations in the latter set
/// as base relations"), what its memo holds per subset, and what it
/// returns. Plan and properties sit behind an `Arc` each, so placing a
/// planned subtree under a new join, or in another block, shares them.
#[derive(Debug, Clone)]
pub struct Planned {
    pub plan: Arc<Plan>,
    pub props: Arc<PlanProps>,
}

impl Planned {
    /// Plan a whole tree, costing it from the leaves.
    pub fn new(plan: impl Into<Arc<Plan>>, est: &CardEstimator<'_>) -> Result<Planned> {
        let plan = plan.into();
        let props = Arc::new(est.cost_plan(&plan)?);
        Ok(Planned { plan, props })
    }

    /// Plan `node`, whose inputs are the already planned `inputs`: one
    /// node is priced, from their stored properties.
    pub fn over(node: Plan, inputs: &[&PlanProps], est: &CardEstimator<'_>) -> Result<Planned> {
        let props = est.cost_node(&node, inputs)?;
        Ok(Planned {
            plan: Arc::new(node),
            props: Arc::new(props),
        })
    }
}

/// How aggressively pull-up may be applied (the paper's "k-level
/// pull-up" restriction: "no partial plan may involve more than k
/// applications of pull-up").
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PullUpLevel {
    /// Never pull up (push-down-only optimizer: the paper's "immediate
    /// improvement" configuration).
    Disabled,
    /// At most `k` relations pulled through each view.
    Limited(u32),
    /// Any subset of eligible relations may be pulled up.
    Unlimited,
}

impl PullUpLevel {
    /// Maximum number of relations that may be pulled through a view.
    pub fn cap(self, available: usize) -> usize {
        match self {
            PullUpLevel::Disabled => 0,
            PullUpLevel::Limited(k) => (k as usize).min(available),
            PullUpLevel::Unlimited => available,
        }
    }
}

/// Optimizer configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct OptimizerConfig {
    /// Pull-up aggressiveness (k-level restriction).
    pub pull_up: PullUpLevel,
    /// Enable the push-down transformations inside block enumeration
    /// (invariant grouping and simple coalescing via the greedy
    /// conservative heuristic). Disabling both push-down and pull-up
    /// yields exactly the traditional optimizer.
    pub push_down: bool,
    /// Only pull a relation through a view when it shares a predicate
    /// with the view ("we do not pull-up a relation through a view
    /// unless they share a predicate").
    pub require_shared_predicate: bool,
    /// Consider materialized-view extents as additional access paths
    /// during block enumeration (cost-based: an extent scan is chosen
    /// only when cheaper than the best inlined plan, so the never-worse
    /// guarantee is preserved).
    pub use_matviews: bool,
    /// Consider eager partial aggregation below join inputs (Yan–Larson
    /// push-down with duplicate-factor compensation). Cost-based with
    /// the same never-worse rule as coalescing: adopted only when
    /// strictly cheaper and no larger in peak intermediate bytes.
    pub use_eager_agg: bool,
}

impl Default for OptimizerConfig {
    fn default() -> Self {
        OptimizerConfig {
            pull_up: PullUpLevel::Unlimited,
            push_down: true,
            require_shared_predicate: true,
            use_matviews: true,
            use_eager_agg: true,
        }
    }
}

impl OptimizerConfig {
    /// The traditional two-phase optimizer (paper Section 5.1), the
    /// baseline every experiment compares against:
    ///
    /// "1. Optimize each aggregate view Qi locally using the traditional
    /// optimization algorithm for SPJ queries that determines a linear
    /// join order. 2. Determine a linear join order among relations in B
    /// and relations corresponding to view definitions in Q, treating
    /// relations in the latter set as base relations."
    ///
    /// It is the general algorithm with no pull-up, no push-down and no
    /// materialized extents: each view's only block is the view itself,
    /// with its group-by at the root, and no early group-by is placed.
    pub fn traditional() -> Self {
        OptimizerConfig {
            pull_up: PullUpLevel::Disabled,
            push_down: false,
            require_shared_predicate: true,
            use_matviews: false,
            use_eager_agg: false,
        }
    }

    /// Push-down only (greedy conservative heuristic, no pull-up) — the
    /// paper's "immediate improvement" configuration.
    pub fn push_down_only() -> Self {
        OptimizerConfig {
            pull_up: PullUpLevel::Disabled,
            push_down: true,
            require_shared_predicate: true,
            use_matviews: true,
            use_eager_agg: true,
        }
    }
}

/// Relations as a bitset, with helpers shared by the enumerators.
pub(crate) fn bitset(rels: &[RelId]) -> u64 {
    rels.iter().map(|r| r.bit()).fold(0, |a, b| a | b)
}

/// The positions of the set bits of `set`, ascending.
pub(crate) fn bits_of(mut set: u64) -> impl Iterator<Item = usize> + Clone {
    std::iter::from_fn(move || {
        if set == 0 {
            return None;
        }
        let i = set.trailing_zeros() as usize;
        set &= set - 1;
        Some(i)
    })
}

/// Iterate the relations in a bitset.
pub(crate) fn rels_of(set: u64) -> impl Iterator<Item = RelId> {
    bits_of(set).map(|i| RelId(i as u32))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pull_up_level_caps() {
        assert_eq!(PullUpLevel::Disabled.cap(5), 0);
        assert_eq!(PullUpLevel::Limited(2).cap(5), 2);
        assert_eq!(PullUpLevel::Limited(9).cap(5), 5);
        assert_eq!(PullUpLevel::Unlimited.cap(5), 5);
    }

    #[test]
    fn config_presets() {
        let t = OptimizerConfig::traditional();
        assert_eq!(t.pull_up, PullUpLevel::Disabled);
        assert!(!t.push_down);
        let p = OptimizerConfig::push_down_only();
        assert!(p.push_down);
        let d = OptimizerConfig::default();
        assert_eq!(d.pull_up, PullUpLevel::Unlimited);
    }

    #[test]
    fn bitset_round_trip() {
        let rels = vec![RelId(0), RelId(3), RelId(7)];
        let set = bitset(&rels);
        let back: Vec<RelId> = rels_of(set).collect();
        assert_eq!(back, rels);
    }
}
