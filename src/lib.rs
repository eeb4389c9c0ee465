//! # aggview — Optimizing Queries with Aggregate Views
//!
//! A from-scratch Rust reproduction of Chaudhuri & Shim, *Optimizing
//! Queries with Aggregate Views* (EDBT 1996): cost-based optimization of
//! multi-block SQL queries whose blocks are aggregate views (SPJ +
//! GROUP BY/HAVING), built on the paper's two transformation families —
//! **pull-up** (defer a view's group-by past joins, enabling reordering
//! across query blocks) and **push-down** (invariant grouping and simple
//! coalescing grouping, performing aggregation early) — embedded in a
//! Selinger-style dynamic-programming enumerator with the *greedy
//! conservative heuristic*.
//!
//! This facade crate re-exports the workspace's public API:
//!
//! * [`common`] — values, schemas, expressions, predicates, aggregates;
//! * [`storage`] — tables, catalog, keys, statistics, data generators;
//! * [`executor`] — vectorized, pipelined execution with page-IO
//!   accounting, and materialized-view builds and delta maintenance;
//! * [`core`] — the paper's contribution: transformations, cost model,
//!   and optimization algorithms;
//! * [`sql`] — SQL frontend and nested-subquery flattening.
//!
//! The experiment harness (`crates/bench`: the E1–E10 benches and the
//! `bench` binary) depends on these crates, not the other way round.
//!
//! ## Quickstart
//!
//! See `examples/quickstart.rs` for an end-to-end tour: build a catalog,
//! state the paper's Example 1 as SQL, optimize it with and without
//! pull-up, and execute both plans.

#![forbid(unsafe_code)]

pub use aggview_common as common;
pub use aggview_core as core;
pub use aggview_executor as executor;
pub use aggview_sql as sql;
pub use aggview_storage as storage;

pub use aggview_common::{
    AggFunc, AggSpec, AggViewError, CmpOp, Col, ColRef, DataType, Expr, Predicate, RelId, Result,
    Schema, Tuple, Value, ViewId,
};
