//! Integration tests for the resource-governance subsystem: graceful
//! degradation to the traditional plan under search budgets, prompt
//! aborts under cancellation and row budgets, and a property test that
//! injected storage/executor faults always surface as structured,
//! retryable errors — never as panics or silent partial results.

use aggview::common::ScheduledFaults;
use aggview::core::analyze::dataflow;
use aggview::core::query::examples::{example1_query, example2_query};
use aggview::core::{
    optimize, optimize_governed, CancellationToken, CostModel, DegradationReason, OptimizerConfig,
    ResourceGovernor, ResourceLimits,
};
use aggview::executor::{assert_equivalent, Engine};
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};
use proptest::prelude::*;
use std::time::Duration;

fn catalog() -> aggview::storage::Catalog {
    gen_empdept(&EmpDeptConfig {
        n_depts: 10,
        emps_per_dept: 12,
        young_fraction: 0.3,
        low_budget_fraction: 0.5,
        seed: 7,
    })
    .unwrap()
}

#[test]
fn tiny_search_budget_degrades_to_the_traditional_plan() {
    let catalog = catalog();
    let q = example1_query();
    let model = CostModel::default();

    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_plans(1));
    let opt = optimize_governed(&q, &catalog, model, &OptimizerConfig::default(), &gov).unwrap();
    assert!(opt.outcome.is_degraded(), "expected degraded outcome");
    assert_eq!(
        opt.outcome.degradation_reason(),
        Some(DegradationReason::SearchBudgetExhausted)
    );

    // The fallback is exactly the traditional two-phase plan: same
    // estimated cost, same results.
    let trad = optimize(&q, &catalog, model, &OptimizerConfig::traditional()).unwrap();
    assert!(
        (opt.props.cost - trad.props.cost).abs() < 1e-9,
        "degraded cost {} != traditional cost {}",
        opt.props.cost,
        trad.props.cost
    );
    let engine = Engine::new(&catalog, &q.env, model);
    let degraded = engine.execute(&opt.plan).unwrap();
    let reference = engine.execute(&trad.plan).unwrap();
    assert_equivalent(&reference, &degraded).unwrap();
}

#[test]
fn zero_timeout_degrades_with_timeout_reason() {
    let catalog = catalog();
    let q = example2_query();
    let model = CostModel::default();

    let gov =
        ResourceGovernor::new(ResourceLimits::unlimited().with_timeout(Duration::from_nanos(0)));
    let opt = optimize_governed(&q, &catalog, model, &OptimizerConfig::default(), &gov).unwrap();
    assert_eq!(
        opt.outcome.degradation_reason(),
        Some(DegradationReason::OptimizerTimeout)
    );
    // The degraded plan still executes (the fallback governor keeps the
    // token but drops the exhausted limits).
    let engine = Engine::new(&catalog, &q.env, model);
    engine.execute(&opt.plan).unwrap();
}

#[test]
fn cancellation_propagates_and_never_degrades() {
    let catalog = catalog();
    let q = example1_query();
    let model = CostModel::default();
    let cfg = OptimizerConfig::default();

    let token = CancellationToken::new();
    token.cancel();
    let gov = ResourceGovernor::with_token(token.clone(), ResourceLimits::unlimited());

    // Cancellation is a user decision, not resource pressure: the
    // optimizer must not fall back to the traditional plan.
    let err = optimize_governed(&q, &catalog, model, &cfg, &gov).unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    assert!(!err.is_retryable());

    // The executor honours the same token at operator boundaries.
    let opt = optimize(&q, &catalog, model, &cfg).unwrap();
    let engine = Engine::new(&catalog, &q.env, model);
    let err = engine.execute_governed(&opt.plan, &gov, None).unwrap_err();
    assert_eq!(err.kind(), "cancelled");
}

#[test]
fn row_budget_aborts_within_one_operator_boundary() {
    let catalog = catalog();
    let q = example1_query();
    let model = CostModel::default();

    let opt = optimize(&q, &catalog, model, &OptimizerConfig::default()).unwrap();
    let engine = Engine::new(&catalog, &q.env, model);

    // Just above the dataflow row floor: static admission control
    // rejects any cap at or under the floor before execution starts, so
    // a mid-run abort needs a budget the floor admits but the real
    // (larger) output exhausts.
    let floor = dataflow::analyze_plan(&opt.plan, &catalog, Some(q.env.rel_tables.as_slice()))
        .bounds
        .min_rows;
    let cap = floor + 5;
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_rows(cap));
    let err = engine.execute_governed(&opt.plan, &gov, None).unwrap_err();
    assert_eq!(err.kind(), "resource-exhausted");
    assert!(!err.is_retryable());
    // Every intermediate tuple is charged as it is produced, so the
    // abort lands on the first tuple past the cap — not after a whole
    // operator has materialized its output.
    assert_eq!(
        gov.rows_used(),
        cap + 1,
        "abort was not prompt: {} rows charged against a cap of {cap}",
        gov.rows_used()
    );
}

#[test]
fn byte_budget_aborts_with_structured_error() {
    let catalog = catalog();
    let q = example2_query();
    let model = CostModel::default();

    let opt = optimize(&q, &catalog, model, &OptimizerConfig::default()).unwrap();
    let engine = Engine::new(&catalog, &q.env, model);

    // Just above the static byte floor (see the row-budget test): the
    // floor counts minimum value widths, real tuples are wider.
    let floor = dataflow::analyze_plan(&opt.plan, &catalog, Some(q.env.rel_tables.as_slice()))
        .bounds
        .min_bytes;
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_bytes(floor + 64));
    let err = engine.execute_governed(&opt.plan, &gov, None).unwrap_err();
    assert_eq!(err.kind(), "resource-exhausted");
}

/// Governance must not change what a run computes: under budgets it
/// stays inside, the governed run returns the ungoverned run's rows, in
/// order, with the same accounting — never a silent partial result.
#[test]
fn governed_run_under_generous_budgets_matches_ungoverned() {
    let catalog = catalog();
    let q = example1_query();
    let model = CostModel::default();

    let opt = optimize(&q, &catalog, model, &OptimizerConfig::default()).unwrap();
    let engine = Engine::new(&catalog, &q.env, model);
    let ungoverned = engine.execute(&opt.plan).unwrap();

    let limits = ResourceLimits::unlimited()
        .with_max_rows(1_000_000)
        .with_max_bytes(1 << 30);
    let gov = ResourceGovernor::new(limits);
    let governed = engine.execute_governed(&opt.plan, &gov, None).unwrap();
    assert_eq!(governed.rows, ungoverned.rows);
    assert_eq!(governed.io_pages.to_bits(), ungoverned.io_pages.to_bits());
    assert_eq!(governed.breakdown, ungoverned.breakdown);
    assert_eq!(
        governed.peak_intermediate_bytes,
        ungoverned.peak_intermediate_bytes
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Under any schedule of injected faults, every plan either runs to
    /// completion with the correct result or returns a structured,
    /// retryable error. No panics, no silent partial results.
    #[test]
    fn injected_faults_complete_or_fail_cleanly(
        n_depts in 2usize..20,
        emps_per_dept in 1usize..15,
        seed in 0u64..1_000,
        schedule in prop::collection::vec(0u64..40, 0..5),
        which in 0usize..2,
    ) {
        let catalog = gen_empdept(&EmpDeptConfig {
            n_depts,
            emps_per_dept,
            young_fraction: 0.3,
            low_budget_fraction: 0.4,
            seed,
        })
        .unwrap();
        let q = if which == 0 { example1_query() } else { example2_query() };
        let model = CostModel::default();
        let opt = optimize(&q, &catalog, model, &OptimizerConfig::default()).unwrap();
        let engine = Engine::new(&catalog, &q.env, model);
        let reference = engine.execute(&opt.plan).unwrap();

        let faults = ScheduledFaults::failing_calls(schedule.iter().copied());
        let gov = ResourceGovernor::unlimited();
        match engine.execute_governed(&opt.plan, &gov, Some(&faults)) {
            // No scheduled call was reached: the run must be complete
            // and correct, not silently truncated.
            Ok(rs) => prop_assert!(assert_equivalent(&reference, &rs).is_ok()),
            Err(e) => {
                prop_assert_eq!(e.kind(), "transient");
                prop_assert!(e.is_retryable());
                prop_assert!(e.to_string().contains("injected fault"),
                    "unexpected error text: {}", e);
            }
        }
    }
}
