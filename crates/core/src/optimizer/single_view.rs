//! The single-aggregate-view case (paper Section 5.3).
//!
//! With `m = 1` the general algorithm of [`crate::optimizer::multi_view`]
//! specializes to exactly the paper's Section 5.3 procedure:
//!
//! (a) generate the query `Φ(V₀, B′)`; (b) single-block optimization of
//! the pulled blocks; (c) choose a plan for `Φ(V₀, W)` for each `W ⊆ B′`
//! (adding `G1` on top); (d) optimize the single-block query (with
//! `G0`) consisting of `B′ − W` and `Φ(V₀, W)` for each choice of `W`.
//!
//! The three cases of the paper map onto `W` as:
//! * `W = V − V₀` — the original aggregate view, optimized locally
//!   (Figure 4(a)/(b));
//! * `W ⊋ V − V₀` — an *extended* aggregate view including base
//!   relations, i.e. pull-up (Figure 4(c)); with `W = B′` the query
//!   collapses to a single block;
//! * `W ⊉ V − V₀` — combined push-down and pull-up (Figure 4(d)).

use crate::cost::CostModel;
use crate::governor::ResourceGovernor;
use crate::optimizer::multi_view::{optimize_governed, Optimized};
use crate::optimizer::OptimizerConfig;
use crate::query::CanonicalQuery;
use aggview_common::{AggViewError, Result};
use aggview_storage::Catalog;

/// Optimize a query with exactly one aggregate view.
///
/// Identical to [`crate::optimize`] but asserts the query shape, making
/// intent explicit at call sites that implement the paper's Section 5.3
/// experiments.
pub fn optimize_single_view(
    query: &CanonicalQuery,
    catalog: &Catalog,
    model: CostModel,
    config: &OptimizerConfig,
) -> Result<Optimized> {
    optimize_single_view_governed(
        query,
        catalog,
        model,
        config,
        &ResourceGovernor::unlimited(),
    )
}

/// [`optimize_single_view`] under a [`ResourceGovernor`].
pub fn optimize_single_view_governed(
    query: &CanonicalQuery,
    catalog: &Catalog,
    model: CostModel,
    config: &OptimizerConfig,
    gov: &ResourceGovernor,
) -> Result<Optimized> {
    if query.views.len() != 1 {
        return Err(AggViewError::Optimize(format!(
            "optimize_single_view expects exactly one view, got {}",
            query.views.len()
        )));
    }
    optimize_governed(query, catalog, model, config, gov)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::PlanAnalyzer;
    use crate::query::examples::{example1_query, example2_query};
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    #[test]
    fn accepts_single_view_query() {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts: 10,
            emps_per_dept: 10,
            ..Default::default()
        })
        .unwrap();
        let q = example1_query();
        let opt = optimize_single_view(&q, &cat, CostModel::default(), &OptimizerConfig::default())
            .unwrap();
        PlanAnalyzer::new(&cat)
            .with_env(&q.env)
            .verify(&opt.plan)
            .unwrap();
    }

    #[test]
    fn rejects_other_shapes() {
        let cat = gen_empdept(&EmpDeptConfig::default()).unwrap();
        let q = example2_query(); // zero views
        assert!(
            optimize_single_view(&q, &cat, CostModel::default(), &OptimizerConfig::default())
                .is_err()
        );
    }
}
