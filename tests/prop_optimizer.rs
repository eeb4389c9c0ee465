//! Property tests for the optimizer's two central guarantees, over
//! randomized databases and memory budgets:
//!
//! 1. **semantic safety** — every configuration's chosen plan executes
//!    to the same result multiset;
//! 2. **never-worse** — the full optimizer's estimated cost never
//!    exceeds the traditional optimizer's.

use aggview::core::cost::ops::IoParams;
use aggview::core::query::examples::{example1_query, example2_query, example2_wide_query};
use aggview::core::{optimize, CostModel, OptimizerConfig, PlanAnalyzer, PullUpLevel};
use aggview::executor::{assert_equivalent, Engine};
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};
use proptest::prelude::*;

fn model(mem: f64) -> CostModel {
    CostModel {
        io: IoParams {
            mem_pages: mem,
            ..Default::default()
        },
        ..Default::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn all_configs_agree_and_never_worse(
        n_depts in 2usize..60,
        emps_per_dept in 1usize..40,
        young_pct in 0u32..100,
        seed in 0u64..10_000,
        mem in prop::sample::select(vec![4.0f64, 16.0, 256.0]),
        which in 0usize..3,
    ) {
        let catalog = gen_empdept(&EmpDeptConfig {
            n_depts,
            emps_per_dept,
            young_fraction: young_pct as f64 / 100.0,
            low_budget_fraction: 0.4,
            seed,
        })
        .unwrap();
        let q = match which {
            0 => example1_query(),
            1 => example2_query(),
            _ => example2_wide_query(),
        };
        let m = model(mem);
        let engine = Engine::new(&catalog, &q.env, m);

        let trad = optimize(&q, &catalog, m, &OptimizerConfig::traditional()).unwrap();
        let reference = engine.execute(&trad.plan).unwrap();

        for cfg in [
            OptimizerConfig::push_down_only(),
            OptimizerConfig {
                pull_up: PullUpLevel::Limited(1),
                ..Default::default()
            },
            OptimizerConfig::default(),
        ] {
            let opt = optimize(&q, &catalog, m, &cfg).unwrap();
            PlanAnalyzer::new(&catalog)
        .with_env(&q.env)
        .verify(&opt.plan)
        .unwrap();
            prop_assert!(
                opt.props.cost <= trad.props.cost + 1e-6,
                "never-worse violated: {} > {}",
                opt.props.cost,
                trad.props.cost
            );
            let rs = engine.execute(&opt.plan).unwrap();
            prop_assert!(
                assert_equivalent(&reference, &rs).is_ok(),
                "results diverge under {cfg:?}:\n{}",
                opt.plan.explain()
            );
        }
    }

    /// Pull-up level is monotone in the cost guarantee: more search never
    /// hurts the estimate.
    #[test]
    fn more_pull_up_never_hurts(
        n_depts in 2usize..40,
        emps_per_dept in 1usize..25,
        seed in 0u64..10_000,
    ) {
        let catalog = gen_empdept(&EmpDeptConfig {
            n_depts,
            emps_per_dept,
            young_fraction: 0.1,
            low_budget_fraction: 0.4,
            seed,
        })
        .unwrap();
        let q = example1_query();
        let m = model(8.0);
        let mut prev = f64::INFINITY;
        for level in [
            PullUpLevel::Disabled,
            PullUpLevel::Limited(1),
            PullUpLevel::Unlimited,
        ] {
            let cfg = OptimizerConfig {
                pull_up: level,
                push_down: true,
                require_shared_predicate: true,
                ..Default::default()
            };
            let opt = optimize(&q, &catalog, m, &cfg).unwrap();
            prop_assert!(
                opt.props.cost <= prev + 1e-6,
                "larger space produced costlier plan at {level:?}"
            );
            prev = opt.props.cost.min(prev);
        }
    }
}
