//! The IO cost model (paper Section 5).
//!
//! "The optimization algorithm that we present minimizes IO cost. This
//! is a reasonable criterion in the context of decision-support
//! applications where the volume of stored data is large. ... The cost
//! model is assumed to satisfy the principle of optimality."
//!
//! * [`ops`] — the page-IO charging formulas for each physical operator.
//!   These are **shared with the executor**: the optimizer evaluates them
//!   over *estimated* cardinalities, the executor over *measured* ones,
//!   so estimation error (experiment E9) is exactly the difference in
//!   inputs, never a difference in formulas. It also holds the engine's
//!   per-row CPU prices, which only the estimator charges, and only under
//!   [`CostModel::default`].
//! * [`model`] — statistics-driven cardinality estimation (selectivity
//!   of selections from histograms, join selectivity from distinct
//!   counts, group-by output cardinality via the Yao approximation) and
//!   recursive plan costing.

pub mod model;
pub mod ops;

pub(crate) use model::Lookup;
pub use model::{CardEstimator, CostModel, PlanProps};
pub use ops::{IoParams, JoinSides};
