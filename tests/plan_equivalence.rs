//! Cross-crate integration: every optimizer configuration must produce
//! plans that execute to the same results, and transformed plans must be
//! equivalent to their sources (the paper's central correctness claims).

use aggview::core::cost::ops::IoParams;
use aggview::core::query::examples::{example1_query, example2_query, example2_wide_query};
use aggview::core::{optimize, CostModel, OptimizerConfig, PlanAnalyzer, PullUpLevel};
use aggview::executor::{assert_equivalent, Engine};
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview::storage::Catalog;

fn catalog(n_depts: usize, emps: usize, young: f64, seed: u64) -> Catalog {
    gen_empdept(&EmpDeptConfig {
        n_depts,
        emps_per_dept: emps,
        young_fraction: young,
        low_budget_fraction: 0.4,
        seed,
    })
    .unwrap()
}

fn configs() -> Vec<(&'static str, OptimizerConfig)> {
    vec![
        ("traditional", OptimizerConfig::traditional()),
        ("push-down-only", OptimizerConfig::push_down_only()),
        (
            "pull-up-1",
            OptimizerConfig {
                pull_up: PullUpLevel::Limited(1),
                ..Default::default()
            },
        ),
        ("full", OptimizerConfig::default()),
    ]
}

fn models() -> Vec<CostModel> {
    vec![
        CostModel::default(),
        CostModel {
            io: IoParams {
                mem_pages: 4.0,
                ..Default::default()
            },
            ..Default::default()
        },
        CostModel {
            io: IoParams {
                mem_pages: 1024.0,
                ..Default::default()
            },
            ..Default::default()
        },
    ]
}

#[test]
fn example1_all_configs_agree_on_results() {
    for (i, cat) in [
        catalog(30, 8, 0.2, 1),
        catalog(5, 40, 0.5, 2),
        catalog(60, 3, 0.05, 3),
    ]
    .iter()
    .enumerate()
    {
        let q = example1_query();
        for model in models() {
            let engine = Engine::new(cat, &q.env, model);
            let baseline = optimize(&q, cat, model, &OptimizerConfig::traditional()).unwrap();
            let base_rs = engine.execute(&baseline.plan).unwrap();
            assert!(!base_rs.rows.is_empty(), "catalog {i} yields matches");
            for (name, cfg) in configs() {
                let opt = optimize(&q, cat, model, &cfg).unwrap();
                PlanAnalyzer::new(cat)
                    .with_env(&q.env)
                    .verify(&opt.plan)
                    .unwrap();
                let rs = engine.execute(&opt.plan).unwrap();
                assert_equivalent(&base_rs, &rs).unwrap_or_else(|e| {
                    panic!("catalog {i} config {name}: {e}\n{}", opt.plan.explain())
                });
            }
        }
    }
}

#[test]
fn example2_all_configs_agree_on_results() {
    for cat in [catalog(20, 10, 0.2, 4), catalog(8, 100, 0.1, 5)] {
        let q = example2_query();
        for model in models() {
            let engine = Engine::new(&cat, &q.env, model);
            let baseline = optimize(&q, &cat, model, &OptimizerConfig::traditional()).unwrap();
            let base_rs = engine.execute(&baseline.plan).unwrap();
            for (name, cfg) in configs() {
                let opt = optimize(&q, &cat, model, &cfg).unwrap();
                let rs = engine.execute(&opt.plan).unwrap();
                assert_equivalent(&base_rs, &rs)
                    .unwrap_or_else(|e| panic!("config {name}: {e}\n{}", opt.plan.explain()));
            }
        }
    }
}

/// The FD-based push-down (grouping columns of the key-joined relation
/// attached after the group-by) must preserve results exactly.
#[test]
fn example2_wide_all_configs_agree_on_results() {
    for cat in [catalog(40, 12, 0.2, 8), catalog(300, 60, 0.1, 9)] {
        let q = example2_wide_query();
        for model in models() {
            let engine = Engine::new(&cat, &q.env, model);
            let baseline = optimize(&q, &cat, model, &OptimizerConfig::traditional()).unwrap();
            let base_rs = engine.execute(&baseline.plan).unwrap();
            assert!(!base_rs.rows.is_empty());
            for (name, cfg) in configs() {
                let opt = optimize(&q, &cat, model, &cfg).unwrap();
                let rs = engine.execute(&opt.plan).unwrap();
                assert_equivalent(&base_rs, &rs)
                    .unwrap_or_else(|e| panic!("config {name}: {e}\n{}", opt.plan.explain()));
            }
        }
    }
}

#[test]
fn never_worse_guarantee_estimated_cost() {
    for seed in 0..6u64 {
        let cat = catalog(
            10 + (seed as usize) * 13,
            5 + (seed as usize) * 9,
            0.1 + seed as f64 * 0.1,
            seed,
        );
        for q in [example1_query(), example2_query()] {
            for model in models() {
                let full = optimize(&q, &cat, model, &OptimizerConfig::default()).unwrap();
                let trad = optimize(&q, &cat, model, &OptimizerConfig::traditional()).unwrap();
                assert!(
                    full.props.cost <= trad.props.cost + 1e-6,
                    "seed {seed}: full {} > traditional {}",
                    full.props.cost,
                    trad.props.cost
                );
            }
        }
    }
}

/// Definition 1 as an executable statement, in E1's pull-up regime
/// (many departments, few young employees, 4 memory pages): the
/// optimizer pulls `emp e1` through the view, and the pulled plan
/// returns the traditional plan's rows.
#[test]
fn pulled_plan_preserves_results() {
    let cat = catalog(8000, 2, 0.002, 1);
    let q = example1_query();
    let model = CostModel {
        io: IoParams {
            mem_pages: 4.0,
            ..Default::default()
        },
        ..CostModel::paper()
    };
    let full = optimize(&q, &cat, model, &OptimizerConfig::default()).unwrap();
    assert!(
        full.pulled.iter().any(|w| !w.is_empty()),
        "expected a pull-up:\n{}",
        full.plan.explain()
    );
    let trad = optimize(&q, &cat, model, &OptimizerConfig::traditional()).unwrap();
    assert!(trad.pulled.iter().all(Vec::is_empty));
    let engine = Engine::new(&cat, &q.env, model);
    let a = engine.execute(&trad.plan).unwrap();
    let b = engine.execute(&full.plan).unwrap();
    assert!(!a.rows.is_empty(), "a vacuous comparison");
    assert_equivalent(&a, &b).unwrap_or_else(|e| {
        panic!(
            "pull-up changed results: {e}\ntraditional:\n{}\npulled:\n{}",
            trad.plan.explain(),
            full.plan.explain()
        )
    });
}
