//! Parallel execution correctness: for every operator, the chunked
//! parallel path at `threads ∈ {2, 4, 8}` must produce the same results
//! as the serial path on randomized databases — *exactly* (same rows,
//! same order) for scans and joins, whose chunked outputs are stitched
//! in input order, and as an equivalent multiset for aggregation, where
//! the two-phase merge may associate float sums differently — and the
//! same accounting: IO pages, per-operator breakdown and peak
//! intermediate bytes do not depend on the thread count.
//!
//! The governance tests check the other half of the contract: shared
//! row/byte budgets and cancellation are honoured from inside a
//! parallel operator with bounded overshoot.

use aggview_common::{AggFunc, AggSpec, CmpOp, Col, Expr, Predicate, RelId, Value, ViewId};
use aggview_core::analyze::dataflow;
use aggview_core::cost::CostModel;
use aggview_core::governor::{ResourceGovernor, ResourceLimits};
use aggview_core::plan::{all_cols, GroupBySpec, Plan};
use aggview_core::query::QueryEnv;
use aggview_executor::{assert_equivalent, Engine, ExecOptions, ResultSet};
use aggview_storage::datagen::{gen_random_catalog, RandomCatalogConfig};
use aggview_storage::Catalog;
use proptest::prelude::*;

fn setup(seed: u64, max_rows: usize) -> (Catalog, QueryEnv) {
    let cat = gen_random_catalog(&RandomCatalogConfig {
        n_tables: 2,
        rows: (1, max_rows),
        join_domain: (1, 30),
        seed,
        ..Default::default()
    })
    .unwrap();
    (cat, QueryEnv::new(vec!["t0".into(), "t1".into()]))
}

/// Parallel options that take the multi-worker path even on tiny inputs.
fn par(threads: usize) -> ExecOptions {
    ExecOptions {
        threads,
        parallel_threshold: 1,
        ..ExecOptions::serial()
    }
}

const THREADS: [usize; 3] = [2, 4, 8];

/// IO pages, per-operator breakdown and peak bytes are bit-identical.
fn same_accounting(a: &ResultSet, b: &ResultSet) -> bool {
    a.io_pages.to_bits() == b.io_pages.to_bits()
        && a.peak_intermediate_bytes == b.peak_intermediate_bytes
        && a.breakdown.len() == b.breakdown.len()
        && a.breakdown
            .iter()
            .zip(&b.breakdown)
            .all(|(x, y)| x.op == y.op && x.pages.to_bits() == y.pages.to_bits())
}

fn filter_scan() -> Plan {
    Plan::scan(
        RelId(0),
        "t0",
        vec![Predicate::cmp_const(
            Col::base(RelId(0), 1),
            CmpOp::Lt,
            Value::Int(20),
        )],
        all_cols(RelId(0), 4),
    )
}

fn join_plan() -> Plan {
    Plan::join_all(
        filter_scan(),
        Plan::scan(RelId(1), "t1", vec![], all_cols(RelId(1), 4)),
        vec![Predicate::eq_cols(
            Col::base(RelId(0), 1),
            Col::base(RelId(1), 1),
        )],
    )
}

fn group_plan(func: AggFunc, having: Vec<Predicate>) -> Plan {
    Plan::group_by_all(
        join_plan(),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(1), 2)],
            aggs: vec![
                AggSpec::count_star(),
                AggSpec::new(func, Expr::col(Col::base(RelId(0), 3))),
            ],
            having,
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Scans and joins stitch worker chunks in input order, so the
    /// parallel output is byte-identical to the serial one — including
    /// the peak intermediate footprint.
    #[test]
    fn parallel_scan_and_join_match_serial_exactly(
        seed in 0u64..5000,
        rows in 1usize..300,
        t_idx in 0usize..3,
    ) {
        let (cat, env) = setup(seed, rows);
        let serial = Engine::new(&cat, &env, CostModel::default())
            .with_options(ExecOptions::with_threads(1));
        let parallel = Engine::new(&cat, &env, CostModel::default())
            .with_options(par(THREADS[t_idx]));
        for plan in [filter_scan(), join_plan()] {
            let a = serial.execute(&plan).unwrap();
            let b = parallel.execute(&plan).unwrap();
            prop_assert_eq!(&a.rows, &b.rows, "row order diverged");
            prop_assert!(same_accounting(&a, &b), "accounting depends on threads");
        }
    }

    /// Two-phase aggregation agrees with single-phase for every
    /// decomposable aggregate, up to canonical float rounding.
    #[test]
    fn parallel_group_by_matches_serial(
        seed in 0u64..5000,
        rows in 1usize..250,
        fidx in 0usize..5,
        t_idx in 0usize..3,
    ) {
        let funcs = [AggFunc::Count, AggFunc::Sum, AggFunc::Min, AggFunc::Max, AggFunc::Avg];
        let (cat, env) = setup(seed, rows);
        let plan = group_plan(funcs[fidx], vec![]);
        let a = Engine::new(&cat, &env, CostModel::default())
            .with_options(ExecOptions::with_threads(1))
            .execute(&plan)
            .unwrap();
        let b = Engine::new(&cat, &env, CostModel::default())
            .with_options(par(THREADS[t_idx]))
            .execute(&plan)
            .unwrap();
        prop_assert!(
            assert_equivalent(&a, &b).is_ok(),
            "{} two-phase aggregation diverges at {} threads",
            funcs[fidx],
            THREADS[t_idx]
        );
        prop_assert!(same_accounting(&a, &b), "accounting depends on threads");
    }

    /// HAVING filters see fully coalesced groups — a group split across
    /// workers must be merged before the predicate is applied.
    #[test]
    fn parallel_having_matches_serial(
        seed in 0u64..5000,
        rows in 1usize..250,
        threshold in 0i64..10,
        t_idx in 0usize..3,
    ) {
        let (cat, env) = setup(seed, rows);
        let plan = group_plan(
            AggFunc::Max,
            vec![Predicate::new(
                Expr::col(Col::agg(ViewId::Top, 0)),
                CmpOp::Ge,
                Expr::val(Value::Int(threshold)),
            )],
        );
        let a = Engine::new(&cat, &env, CostModel::default())
            .with_options(ExecOptions::with_threads(1))
            .execute(&plan)
            .unwrap();
        let b = Engine::new(&cat, &env, CostModel::default())
            .with_options(par(THREADS[t_idx]))
            .execute(&plan)
            .unwrap();
        prop_assert!(assert_equivalent(&a, &b).is_ok(), "HAVING diverges under parallelism");
    }
}

#[test]
fn parallel_row_budget_aborts_with_bounded_overshoot() {
    let (cat, env) = setup(42, 300);
    let threads = 4;
    let engine = Engine::new(&cat, &env, CostModel::default()).with_options(par(threads));

    // Sit just above the dataflow row floor: small enough that the join
    // still blows the budget mid-run, large enough that static admission
    // control lets the plan start (a cap at or under the floor would be
    // rejected with `PlanInadmissible` before any operator runs).
    let floor = dataflow::analyze_plan(&join_plan(), &cat, Some(env.rel_tables.as_slice()))
        .bounds
        .min_rows;
    let cap = floor + 5;
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_rows(cap));
    let err = engine
        .execute_governed(&join_plan(), &gov, None)
        .unwrap_err();
    assert_eq!(err.kind(), "resource-exhausted");
    // Charges are per output tuple through a shared atomic: each worker
    // stops at its own first failed charge, so the overshoot is bounded
    // by one tuple per worker.
    assert!(
        gov.rows_used() <= cap + threads as u64,
        "abort was not prompt: {} rows charged against a cap of {cap} on {threads} workers",
        gov.rows_used()
    );
}

#[test]
fn parallel_byte_budget_aborts_with_structured_error() {
    let (cat, env) = setup(43, 300);
    let engine = Engine::new(&cat, &env, CostModel::default()).with_options(par(4));
    let plan = group_plan(AggFunc::Sum, vec![]);
    // Just above the static byte floor so admission passes but the
    // real (wider) tuples exhaust the budget mid-run.
    let floor = dataflow::analyze_plan(&plan, &cat, Some(env.rel_tables.as_slice()))
        .bounds
        .min_bytes;
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_bytes(floor + 48));
    let err = engine.execute_governed(&plan, &gov, None).unwrap_err();
    assert_eq!(err.kind(), "resource-exhausted");
    assert!(!err.is_retryable());
}

#[test]
fn cancellation_is_observed_inside_parallel_operators() {
    let (cat, env) = setup(44, 300);
    let engine = Engine::new(&cat, &env, CostModel::default()).with_options(par(8));
    let gov = ResourceGovernor::unlimited();
    gov.token().cancel();
    let err = engine
        .execute_governed(&join_plan(), &gov, None)
        .unwrap_err();
    assert_eq!(err.kind(), "cancelled");
    assert!(!err.is_retryable());
}
