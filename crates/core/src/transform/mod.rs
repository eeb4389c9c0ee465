//! The paper's plan transformations.
//!
//! * [`props`] — key derivation for operator outputs (pull-up and
//!   invariant grouping both reason about keys),
//! * [`pushdown`] — Section 4.1's invariant grouping: move a group-by
//!   below a join, and the *minimal invariant set* computation,
//! * [`combine`] — Section 3's note on merging *successive* group-by
//!   operators (e.g. after a full pull-up stacks `G0` over a deferred
//!   view group-by).
//!
//! None of these is universally beneficial (the paper's Section 3 lists
//! advantages and disadvantages of each); they define the expanded
//! execution space that [`crate::optimizer`] searches cost-based. Section
//! 4.2's simple coalescing grouping — a partial group-by added below a
//! join for decomposable aggregates — has no rewrite of its own: the
//! block enumerator ([`crate::optimizer::greedy`]) places it as one of
//! its early aggregations. Nor does Section 3's pull-up (Definition 1):
//! [`crate::optimizer::multi_view`] builds each pulled block Φ(V₀, W)
//! directly, and the analyzer's pull-up key rule checks what it builds.

pub mod combine;
pub mod props;
pub mod pushdown;

pub use combine::{combine_all, combine_groupbys};
pub use props::{grouping_determinant, is_fk_join_into, output_key};
pub use pushdown::{group_applicable_at, minimal_invariant_set, InvariantGroupBy};
