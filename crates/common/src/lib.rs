//! Shared vocabulary for the `aggview` workspace.
//!
//! This crate defines the data model used by every other crate in the
//! reproduction of Chaudhuri & Shim, *Optimizing Queries with Aggregate
//! Views* (EDBT 1996):
//!
//! * [`Value`] / [`DataType`] — the scalar type system (no NULLs, per the
//!   paper's Section 2 simplifying assumptions),
//! * [`Schema`] / [`Field`] — relation schemas,
//! * [`ColRef`] / [`Col`] / [`AggRef`] — column identity across query
//!   blocks (base columns vs. aggregated columns),
//! * [`Expr`] / [`Predicate`] — scalar expressions and conjunctive
//!   comparison predicates,
//! * [`AggFunc`] / [`AggSpec`] — aggregate functions, including the
//!   decomposability machinery needed by the *simple coalescing grouping*
//!   transformation (partial/combine/finalize states),
//! * [`hash`] — the allocation-free key-hash chain of the executor's
//!   hash join and hash aggregation,
//! * [`ColumnVec`] / [`Batch`] — typed column vectors (strings as
//!   [`StrCol`] codes into a shared [`StrDict`]) and column-major
//!   batches, the data representation of the vectorized executor,
//! * [`AggViewError`] — the workspace-wide error type.

#![forbid(unsafe_code)]

pub mod agg;
pub mod batch;
pub mod column;
pub mod error;
pub mod expr;
pub mod fault;
pub mod hash;
pub mod ids;
pub mod predicate;
pub mod schema;
pub mod tuple;
pub mod value;

pub use agg::{AggFunc, AggSpec, PartialAggState, Retraction};
pub use batch::{hash_columns, Batch};
pub use column::{ColumnVec, StrCol, StrDict};
pub use error::{AggViewError, Result};
pub use expr::{eval_binary, BinaryOp, Expr};
pub use fault::{
    registered_site, FaultInjector, IoFaultKind, NoFaults, RecordingFaults, ScheduledFaults,
    ScheduledIoFaults, SeededFaultInjector, REGISTERED_FAULT_SITES,
};
pub use ids::{AggRef, Col, ColRef, PartRef, RelId, ViewId};
pub use predicate::{CmpOp, Predicate};
pub use schema::{Field, Schema};
pub use tuple::Tuple;
pub use value::{DataType, Value};
