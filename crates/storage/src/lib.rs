//! In-memory relational storage substrate for the aggview workspace.
//!
//! The paper was evaluated inside a full DBMS; this crate provides the
//! equivalent substrate, built from scratch:
//!
//! * [`Table`] / [`TableBuilder`] — in-memory relations with declared
//!   primary and foreign keys (the pull-up transformation's correctness
//!   hinges on key information; see paper Definition 1), shared behind
//!   `Arc` and edited copy-on-write by [`RowPatch`]es,
//! * [`Catalog`] — a concurrent name → table registry,
//! * [`TableStats`] / [`ColumnStats`] — row counts, distinct counts,
//!   min/max and average widths, and equi-depth [`Histogram`]s built on
//!   first read (`Table::histogram`), feeding the cost model's
//!   cardinality estimation,
//! * [`PageModel`] — the byte→page accounting shared by the cost model
//!   (estimates) and the executor (measurements),
//! * [`datagen`] — synthetic workload generators: the paper's Emp/Dept
//!   running example, a TPC-D-like decision-support star schema, and
//!   random catalogs for property-based testing.

#![forbid(unsafe_code)]

pub mod catalog;
pub mod codec;
pub mod datagen;
pub mod keys;
pub mod matview;
pub mod page;
pub mod snapshot;
pub mod stats;
pub mod table;
pub mod wal;

pub use catalog::Catalog;
pub use keys::{ForeignKey, PrimaryKey};
pub use matview::{stores_partial_state, AggColumns, ExtentLayout, MatViewDef, MatViewMeta};
pub use page::PageModel;
pub use snapshot::Snapshot;
pub use stats::{ColumnStats, Histogram, TableStats};
pub use table::{RowPatch, Table, TableBuilder};
pub use wal::{WalReader, WalRecord, WalWriter};
