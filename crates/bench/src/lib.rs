//! Shared harness for the experiment suite (benches `e1`–`e10`).
//!
//! Each bench target regenerates one of the paper's figures or
//! quantitative claims (see `DESIGN.md` §4 and `EXPERIMENTS.md`): it
//! builds a seeded workload, runs the optimizer variants, executes the
//! chosen plans with measured IO, prints the table/series, and asserts
//! the expected *shape* (who wins, where the crossover falls).

#![forbid(unsafe_code)]

pub mod exec_bench;

use aggview_core::cost::ops::IoParams;
use aggview_core::cost::CostModel;
use aggview_core::optimizer::multi_view::{optimize, Optimized};
use aggview_core::{CanonicalQuery, OptimizerConfig, PullUpLevel};
use aggview_executor::Engine;
use aggview_storage::Catalog;

/// An optimizer variant under comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// Section 5.1 baseline.
    Traditional,
    /// Greedy conservative heuristic only (push-down; the paper's
    /// "immediate improvement").
    PushDown,
    /// Pull-up enabled, push-down disabled (isolates Section 3).
    PullUp,
    /// Everything on (the paper's full algorithm).
    Full,
}

impl Variant {
    pub const ALL: [Variant; 4] = [
        Variant::Traditional,
        Variant::PushDown,
        Variant::PullUp,
        Variant::Full,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Variant::Traditional => "traditional",
            Variant::PushDown => "push-down",
            Variant::PullUp => "pull-up",
            Variant::Full => "full",
        }
    }

    pub fn config(self) -> OptimizerConfig {
        match self {
            Variant::Traditional => OptimizerConfig::traditional(),
            Variant::PushDown => OptimizerConfig::push_down_only(),
            Variant::PullUp => OptimizerConfig {
                pull_up: PullUpLevel::Unlimited,
                push_down: false,
                require_shared_predicate: true,
                use_matviews: true,
                use_eager_agg: false,
            },
            Variant::Full => OptimizerConfig::default(),
        }
    }
}

/// Result of optimizing + executing one variant.
#[derive(Debug, Clone)]
pub struct VariantRun {
    pub variant: Variant,
    pub optimized: Optimized,
    /// Measured IO of the executed plan, in pages.
    pub measured_io: f64,
    /// Result-row count (for cross-variant consistency checks).
    pub rows: usize,
}

/// The paper's cost model with the given operator memory budget (pages).
pub fn model_with_mem(mem_pages: f64) -> CostModel {
    CostModel {
        io: IoParams {
            mem_pages,
            ..Default::default()
        },
        ..CostModel::paper()
    }
}

/// Optimize and execute the query under every variant; panics if any
/// variant produces a different result-set size (plans must be
/// equivalent) or if the full optimizer's estimate exceeds the
/// traditional one (never-worse guarantee).
pub fn run_all_variants(
    query: &CanonicalQuery,
    catalog: &Catalog,
    model: CostModel,
) -> Vec<VariantRun> {
    let engine = Engine::new(catalog, &query.env, model);
    let mut out = Vec::new();
    let mut reference: Option<usize> = None;
    for v in Variant::ALL {
        let optimized = optimize(query, catalog, model, &v.config())
            .unwrap_or_else(|e| panic!("{} failed: {e}", v.name()));
        let rs = engine.execute(&optimized.plan).unwrap_or_else(|e| {
            panic!(
                "{} execution failed: {e}\n{}",
                v.name(),
                optimized.plan.explain()
            )
        });
        match reference {
            None => reference = Some(rs.rows.len()),
            Some(r) => assert_eq!(
                r,
                rs.rows.len(),
                "{} result size diverges from traditional",
                v.name()
            ),
        }
        out.push(VariantRun {
            variant: v,
            measured_io: rs.io_pages,
            rows: rs.rows.len(),
            optimized,
        });
    }
    // Never-worse: full ≤ traditional on estimated cost.
    let trad = out[0].optimized.props.cost;
    let full = out[3].optimized.props.cost;
    assert!(
        full <= trad + 1e-6,
        "guarantee violated: full {full} > traditional {trad}"
    );
    out
}

/// Fixed-width table printing for experiment output.
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    println!("\n## {title}\n");
    let mut widths: Vec<usize> = headers.iter().map(|h| h.len()).collect();
    for r in rows {
        for (i, c) in r.iter().enumerate() {
            if i < widths.len() {
                widths[i] = widths[i].max(c.len());
            }
        }
    }
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:<w$}", c, w = widths.get(i).copied().unwrap_or(8)))
            .collect::<Vec<_>>()
            .join("  ")
    };
    println!(
        "{}",
        fmt_row(&headers.iter().map(|s| s.to_string()).collect::<Vec<_>>())
    );
    println!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for r in rows {
        println!("{}", fmt_row(r));
    }
}

/// Format a page count compactly.
pub fn pages(x: f64) -> String {
    if x >= 1000.0 {
        format!("{:.1}k", x / 1000.0)
    } else {
        format!("{x:.1}")
    }
}

/// Geometric mean of positive values.
pub fn geo_mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        return f64::NAN;
    }
    (xs.iter().map(|x| x.ln()).sum::<f64>() / xs.len() as f64).exp()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_core::query::examples::example1_query;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    #[test]
    fn run_all_variants_agrees_and_orders() {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts: 10,
            emps_per_dept: 10,
            young_fraction: 0.3,
            low_budget_fraction: 0.3,
            seed: 5,
        })
        .unwrap();
        let q = example1_query();
        let runs = run_all_variants(&q, &cat, model_with_mem(8.0));
        assert_eq!(runs.len(), 4);
        assert_eq!(runs[0].variant, Variant::Traditional);
        let n = runs[0].rows;
        assert!(runs.iter().all(|r| r.rows == n));
    }

    #[test]
    fn geo_mean_sane() {
        assert!((geo_mean(&[1.0, 4.0]) - 2.0).abs() < 1e-12);
        assert!(geo_mean(&[]).is_nan());
    }

    #[test]
    fn pages_formatting() {
        assert_eq!(pages(12.34), "12.3");
        assert_eq!(pages(12345.0), "12.3k");
    }

    #[test]
    fn variant_configs_differ() {
        assert!(!Variant::Traditional.config().push_down);
        assert!(Variant::PushDown.config().push_down);
        assert_eq!(Variant::PullUp.config().pull_up, PullUpLevel::Unlimited);
        assert!(!Variant::PullUp.config().push_down);
    }
}
