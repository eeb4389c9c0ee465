//! # aggview-executor — plan execution with page-IO accounting
//!
//! Executes [`aggview_core::Plan`] operator trees against an
//! [`aggview_storage::Catalog`] and *measures* the IO each operator
//! would incur, using the **same charging formulas** as the optimizer's
//! cost model ([`aggview_core::cost::ops`]) evaluated over actual —
//! rather than estimated — cardinalities and widths. Estimated vs.
//! measured cost therefore differ only by estimation error, which
//! experiment E9 quantifies.
//!
//! * [`engine`] — the plan evaluator: a plan runs as pipelines cut at
//!   its breakers. Scans hold their table's columns behind a selection,
//!   joins are stages of the stream they probe with, and one
//!   aggregation body serves both the full group-by (finalize + HAVING)
//!   and the partial aggregate (emit Figure-2 state components); a
//!   group-by whose input carries [`aggview_common::PartRef`] columns
//!   merges those states instead of re-aggregating;
//! * [`vector`] — what the pipelines are made of: held rows, tile-wise
//!   filters, the join stage, hash aggregation over typed column
//!   vectors, and the one driver that runs them, serially on the
//!   caller's thread. Tile size comes from [`ExecOptions`] (REPL
//!   `.set batch_rows N`);
//! * [`lookup`] — the hash structures beneath them: the flat join
//!   index, the ordinal rule, and how an aggregate reads its input;
//! * [`matview`] / [`delta`] — building and maintaining materialized
//!   aggregate-view extents, every aggregation of them one governed run
//!   of the view's state plan (its SPJ body under the partial
//!   aggregate): full builds/refreshes, and maintenance from a DML
//!   statement's removed and added rows that merges, retracts or
//!   recomputes — by a semijoin on the queued keys —
//!   exactly the stored groups a DML statement touched;
//! * [`correlated`] — naive tuple-at-a-time evaluation of correlated
//!   aggregate subqueries (Kim's type-JA shape), the baseline the
//!   flattening pathway (experiment E7) is measured against;
//! * [`mod@reference`] — a naive interpreter for every [`aggview_core::Plan`]
//!   variant (nested loops, `BTreeMap` groups), never called by the
//!   engine: the oracle of the differential tests;
//! * [`verify`] — multiset result comparison used by every
//!   plan-equivalence test.

#![forbid(unsafe_code)]

pub mod correlated;
pub mod delta;
pub mod engine;
pub mod lookup;
pub mod matview;
pub mod reference;
pub mod vector;
pub mod verify;

pub use delta::{dependency_graph, DependencyGraph};
pub use engine::{Engine, ExecOptions, IoBreakdown, ResultBatch, ResultSet};
pub use verify::{assert_equivalent, canonical_rows};
