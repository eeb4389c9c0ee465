//! # aggview-core — the paper's contribution
//!
//! Cost-based optimization of queries with aggregate views, after
//! Chaudhuri & Shim (EDBT 1996). The crate is organized along the
//! paper's sections:
//!
//! * [`plan`] — operator trees (join + group-by with annotated grouping
//!   columns, aggregates, HAVING predicates and projection lists; the
//!   paper's Section 2 algebraic view), including *legal operator tree*
//!   validation,
//! * [`query`] — the canonical multi-block query form of Figure 3: a join
//!   among base tables and aggregate views under an optional top group-by,
//! * [`transform`] — Section 3's **pull-up** transformation
//!   (Definition 1) and Section 4's **push-down** transformations
//!   (invariant grouping, simple coalescing grouping), plus the *minimal
//!   invariant set* computation,
//! * [`cost`] — the IO-only cost model (Section 5's optimization
//!   criterion): page-based operator costs shared with the executor, and
//!   statistics-driven cardinality estimation,
//! * [`optimizer`] — Section 5's algorithms: Selinger-style DP join
//!   enumeration ([SAC+79]), the greedy conservative heuristic
//!   (Section 5.2 / \[CS94\]), the two-phase algorithm for one aggregate
//!   view (Section 5.3), its generalization to multiple views
//!   (Section 5.4), the traditional two-phase baseline, and search-space
//!   accounting with the paper's practical restrictions (k-level pull-up,
//!   predicate-connectivity gating),
//! * [`matview`] — matching query blocks against materialized
//!   aggregate-view extents (finalized rows or Figure 2 partial states),
//!   enumerated as additional costed access paths,
//! * [`analyze`] — the static plan-integrity analyzer: a typed schema
//!   pass plus machine-checked forms of the transformation invariants
//!   above (Definition 1's key rule, the invariant-grouping key-join
//!   condition, Figure 2's coalescing merge stage) and cost-annotation
//!   sanity, with a seeded-mutation negative-test harness.

#![forbid(unsafe_code)]

// The shapes the cost-invariant tests share name this crate as their
// integration tests see it.
#[cfg(test)]
extern crate self as aggview_core;
#[cfg(test)]
#[path = "../tests/support/shapes.rs"]
mod shapes;

pub mod analyze;
pub mod cost;
pub mod governor;
pub mod matview;
pub mod optimizer;
pub mod plan;
pub mod query;
pub mod transform;

pub use analyze::{AnalysisReport, PlanAnalyzer, Violation};
pub use cost::{CardEstimator, CostModel, PlanProps};
pub use governor::{
    CancellationToken, DegradationReason, OptimizeOutcome, ResourceGovernor, ResourceLimits,
};
pub use optimizer::multi_view::{optimize, optimize_governed, Optimized};
pub use optimizer::{OptimizerConfig, PullUpLevel, SearchStats};
pub use plan::{GroupBySpec, PartialAggSpec, Plan};
pub use query::{CanonicalQuery, QueryEnv, TopGroup, ViewDef};
