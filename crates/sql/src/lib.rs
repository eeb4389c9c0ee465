//! # aggview-sql — SQL frontend for the aggregate-view optimizer
//!
//! A small, from-scratch SQL layer sufficient to state every query in
//! the paper verbatim:
//!
//! * [`lexer`] / [`parser`] / [`ast`] — `SELECT`-`FROM`-`WHERE`-
//!   `GROUP BY`-`HAVING` with arithmetic expressions, the aggregate
//!   functions of [`aggview_common::AggFunc`], `CREATE VIEW`, and
//!   scalar aggregate subqueries in `WHERE` (correlated or not);
//! * [`binder`] — name resolution and lowering to the canonical
//!   multi-block form ([`aggview_core::CanonicalQuery`], the paper's
//!   Figure 3): view references become [`aggview_core::ViewDef`]s,
//!   non-aggregate views are merged into the referencing block
//!   (traditional view reduction), and correlated aggregate subqueries
//!   are **flattened** into joins with aggregate views
//!   ([`flatten`], after Kim's type-A/type-JA algorithms — the pathway
//!   the paper's Section 1 builds on); DML's expressions are bound
//!   here by the same rules;
//! * [`session`] — a convenience REPL-style API: `CREATE VIEW` + query
//!   → optimize → execute, returning rows plus measured IO, plus the
//!   materialized-view statements (`CREATE MATERIALIZED VIEW`,
//!   `INSERT INTO ... VALUES` with incremental extent maintenance, and
//!   `REFRESH MATERIALIZED VIEW`).

#![forbid(unsafe_code)]

pub mod ast;
pub mod binder;
pub mod flatten;
pub mod lexer;
pub mod parser;
pub mod session;

pub use binder::{bind, bind_matview, BoundQuery};
pub use parser::parse;
pub use session::{retry_backoff, Session, SqlResult, RETRY_BACKOFF_BASE, RETRY_BACKOFF_CAP};
