//! Synthetic workload generators.
//!
//! The paper's experimental context — decision-support workloads in the
//! style of TPC-D, and the Emp/Dept examples used throughout the text —
//! is reproduced with deterministic (seeded) generators so every
//! experiment is exactly repeatable:
//!
//! * [`empdept`] — the paper's running example schema (Examples 1 and 2),
//!   with tunable knobs for the parameters the paper identifies as
//!   decisive: number of departments, employees per department, and the
//!   selectivity of the `age < 22` style predicate.
//! * [`star`] — a TPC-D-like decision-support star schema
//!   (region/nation/customer/orders/lineitem) standing in for the real
//!   benchmark data, which is not redistributable; structure (keys,
//!   fan-outs, selective dimension predicates) is what the
//!   transformations respond to, and those are preserved.
//! * [`random`] — random catalogs for property-based tests of plan
//!   equivalence and the optimizer's never-worse guarantee.
//! * [`zipf`] — Zipf-skewed fact tables for probing the cost model's
//!   uniformity assumptions (experiment E9's error narrative).

pub mod empdept;
pub mod random;
pub mod star;
pub mod zipf;

pub use empdept::{gen_empdept, EmpDeptConfig};
pub use random::{gen_random_catalog, RandomCatalogConfig};
pub use star::{gen_star, StarConfig};
pub use zipf::{gen_zipf_table, ZipfConfig};

use aggview_common::Value;
use std::fmt::Write;

/// Generated names (`emp17`, `nation3`), formatted into one reused
/// buffer: a row allocates only its name's string value.
#[derive(Default)]
struct Names(String);

impl Names {
    fn value(&mut self, prefix: &str, n: usize) -> Value {
        self.0.clear();
        let _ = write!(self.0, "{prefix}{n}");
        Value::str(&self.0)
    }
}
