//! Differential tests for eager partial aggregation (Yan–Larson
//! push-down below a join input): plans optimized with
//! `use_eager_agg` on and off must execute to **byte-identical**
//! result sets over randomized catalogs and aggregate mixes — including MIN/MAX and the duplicate-sensitive
//! SUM/AVG, whose merged partial states are scaled by the partner
//! side's per-group count.
//!
//! All salaries are multiples of 12.5, so float SUM/AVG arithmetic is
//! exact and "byte-identical" is a meaningful bar (see DESIGN.md §16):
//! the eager plan multiplies partial sums by integer duplicate factors
//! where the traditional plan adds row by row, and with arbitrary
//! floats the two could differ in the last ulp.
//!
//! Directed cases pin down when eager must NOT fire: an aggregate
//! whose argument spans both join sides (not decomposable per side), a
//! cost tie (everything fits in memory, so eager is not *strictly*
//! cheaper and the never-worse rule keeps the traditional shape), and
//! stale statistics (plans made from fresh ones still compute identical
//! results: the executor sizes everything from its actual inputs).

use aggview::core::cost::ops::IoParams;
use aggview::core::cost::CostModel;
use aggview::core::query::examples::{dept, emp};
use aggview::core::query::{CanonicalQuery, QueryEnv, TopGroup};
use aggview::core::{optimize, OptimizerConfig, Plan};
use aggview::executor::Engine;
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview::storage::{Catalog, Table};
use aggview::{AggFunc, AggSpec, Col, DataType, Expr, Predicate, Schema, Tuple, Value, ViewId};
use proptest::prelude::*;

/// xorshift64*: deterministic data generator, independent of any RNG
/// crate surface.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Binary-exact random catalog: one `emp` table (empdept schema),
/// salaries multiples of 12.5, uneven department sizes.
fn random_catalog(n_depts: u64, n_emps: u64, seed: u64) -> Catalog {
    let mut rng = Rng(seed);
    let cat = Catalog::new();
    let mut e = Table::builder(
        "emp",
        Schema::of(&[
            ("eno", DataType::Int),
            ("name", DataType::Str),
            ("dno", DataType::Int),
            ("sal", DataType::Float),
            ("age", DataType::Int),
        ]),
    )
    .primary_key(&["eno"])
    .unwrap();
    for eno in 0..n_emps as i64 {
        let dno = rng.below(n_depts) as i64;
        let sal = 500.0 + rng.below(4000) as f64 * 12.5;
        let age = 18 + rng.below(45) as i64;
        e.push(Tuple::new(vec![
            Value::Int(eno),
            Value::Str(format!("p{eno}").into()),
            Value::Int(dno),
            Value::Float(sal),
            Value::Int(age),
        ]))
        .unwrap();
    }
    cat.add(e.build().unwrap()).unwrap();
    cat
}

/// `SELECT e1.dno, aggs... FROM emp e1, emp e2 WHERE e1.dno = e2.dno
/// GROUP BY e1.dno` — the join-then-aggregate shape where eager
/// aggregation folds one input before the join materializes.
fn selfjoin_query(aggs: Vec<AggSpec>) -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let e1 = env.add_rel("emp");
    let e2 = env.add_rel("emp");
    let n = aggs.len();
    CanonicalQuery {
        env,
        views: vec![],
        base_rels: vec![e1, e2],
        preds: vec![Predicate::eq_cols(
            Col::base(e1, emp::DNO),
            Col::base(e2, emp::DNO),
        )],
        group: Some(TopGroup {
            group_cols: vec![Col::base(e1, emp::DNO)],
            aggs,
            having: vec![],
        }),
        projection: std::iter::once(Col::base(e1, emp::DNO))
            .chain((0..n).map(|i| Col::agg(ViewId::Top, i)))
            .collect(),
    }
}

/// Execute `plan` and return the projected rows, sorted (plans may
/// emit groups in different orders).
fn run_sorted(engine: &Engine, plan: &Plan, projection: &[Col]) -> (Vec<Tuple>, u64) {
    let rs = engine.execute(plan).unwrap();
    let positions: Vec<usize> = projection
        .iter()
        .map(|c| {
            rs.col_index(*c)
                .unwrap_or_else(|| panic!("plan lost projected column {c}\n{}", plan.explain()))
        })
        .collect();
    let mut rows: Vec<Tuple> = rs.rows.iter().map(|r| r.project(&positions)).collect();
    rows.sort();
    (rows, rs.peak_intermediate_bytes)
}

/// Does the plan hold an *eager* partial aggregate (one carrying a
/// duplicate factor; simple coalescing carries none)?
fn contains_partial_aggregate(p: &Plan) -> bool {
    match p {
        Plan::PartialAggregate { spec, .. } => spec.count.is_some(),
        Plan::Join { left, right, .. } => {
            contains_partial_aggregate(left) || contains_partial_aggregate(right)
        }
        Plan::GroupBy { input, .. } => contains_partial_aggregate(input),
        Plan::Scan { .. } | Plan::ExtentScan { .. } => false,
    }
}

/// The paper's model, whose IO alone decides where eager aggregation
/// pays; the shapes below are its firing and declining cases.
fn tight_model() -> CostModel {
    CostModel {
        io: IoParams {
            mem_pages: 64.0,
            ..Default::default()
        },
        ..CostModel::paper()
    }
}

fn eager_on() -> OptimizerConfig {
    OptimizerConfig {
        use_eager_agg: true,
        ..Default::default()
    }
}

fn eager_off() -> OptimizerConfig {
    OptimizerConfig {
        use_eager_agg: false,
        ..Default::default()
    }
}

/// Optimize with eager on and off, run both, and assert
/// byte-identical sorted results. Returns whether
/// the eager config actually placed a partial aggregate.
fn differential(q: &CanonicalQuery, cat: &Catalog, model: CostModel) -> bool {
    let eager = optimize(q, cat, model, &eager_on()).unwrap();
    let plain = optimize(q, cat, model, &eager_off()).unwrap();
    assert!(
        eager.props.cost <= plain.props.cost + 1e-6,
        "never-worse violated: eager {} > plain {}",
        eager.props.cost,
        plain.props.cost
    );
    let engine = Engine::new(cat, &q.env, model);
    let (eager_rows, _) = run_sorted(&engine, &eager.plan, &q.projection);
    let (plain_rows, _) = run_sorted(&engine, &plain.plan, &q.projection);
    assert_eq!(
        eager_rows,
        plain_rows,
        "eager diverges from plain\n{}",
        eager.plan.explain()
    );
    contains_partial_aggregate(&eager.plan)
}

/// Canonical firing shape: both join sides large, duplicate-sensitive
/// aggregates on both sides. Eager must fire, match byte-for-byte, and
/// shrink the measured peak by at least 2x.
#[test]
fn eager_fires_and_matches_on_large_selfjoin() {
    let cat = gen_empdept(&EmpDeptConfig {
        n_depts: 200,
        emps_per_dept: 100,
        young_fraction: 0.3,
        low_budget_fraction: 0.3,
        seed: 12,
    })
    .unwrap();
    // Integer aggregate arguments (plus float MIN, which never rounds)
    // keep this large case exact without constraining the generator.
    let q = selfjoin_query(vec![
        AggSpec::new(
            AggFunc::Avg,
            Expr::col(Col::base(aggview::RelId(0), emp::AGE)),
        ),
        AggSpec::new(
            AggFunc::Min,
            Expr::col(Col::base(aggview::RelId(1), emp::SAL)),
        ),
        AggSpec::new(
            AggFunc::Sum,
            Expr::col(Col::base(aggview::RelId(1), emp::AGE)),
        ),
        AggSpec::count_star(),
    ]);
    let model = tight_model();
    assert!(
        differential(&q, &cat, model),
        "eager aggregation did not fire on the canonical self-join"
    );
    // Measured (not just estimated) peak must drop by at least 2x.
    let eager = optimize(&q, &cat, model, &eager_on()).unwrap();
    let plain = optimize(&q, &cat, model, &eager_off()).unwrap();
    let engine = Engine::new(&cat, &q.env, model);
    let (_, peak_eager) = run_sorted(&engine, &eager.plan, &q.projection);
    let (_, peak_plain) = run_sorted(&engine, &plain.plan, &q.projection);
    assert!(
        peak_eager * 2 <= peak_plain,
        "eager peak {peak_eager} not ≤ half of traditional peak {peak_plain}"
    );
}

/// The aggregate pool the randomized cases draw from: a mix of pushed
/// (e2-side), kept (e1-side), MIN/MAX, and duplicate-sensitive
/// SUM/AVG over the 12.5-exact float salary.
fn agg_pool() -> Vec<AggSpec> {
    let r0 = aggview::RelId(0);
    let r1 = aggview::RelId(1);
    vec![
        AggSpec::new(AggFunc::Avg, Expr::col(Col::base(r0, emp::SAL))),
        AggSpec::new(AggFunc::Sum, Expr::col(Col::base(r0, emp::AGE))),
        AggSpec::new(AggFunc::Min, Expr::col(Col::base(r0, emp::SAL))),
        AggSpec::new(AggFunc::Avg, Expr::col(Col::base(r1, emp::SAL))),
        AggSpec::new(AggFunc::Sum, Expr::col(Col::base(r1, emp::SAL))),
        AggSpec::new(AggFunc::Min, Expr::col(Col::base(r1, emp::SAL))),
        AggSpec::new(AggFunc::Max, Expr::col(Col::base(r1, emp::AGE))),
        AggSpec::count_star(),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized differential: catalog shape, aggregate subset, and
    /// memory budget all vary; results must stay byte-identical with
    /// eager on vs off.
    #[test]
    fn eager_matches_plain_on_random_catalogs(
        seed in 0u64..1u64 << 48,
        n_depts in 2u64..16,
        n_emps in 4u64..220,
        mask in 1u8..=255,
        mem in prop::sample::select(vec![4.0f64, 64.0, 1024.0]),
    ) {
        let cat = random_catalog(n_depts, n_emps, seed);
        let aggs: Vec<AggSpec> = agg_pool()
            .into_iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, a)| a)
            .collect();
        prop_assert!(!aggs.is_empty());
        let model = CostModel {
            io: IoParams { mem_pages: mem, ..Default::default() },
            ..Default::default()
        };
        differential(&selfjoin_query(aggs), &cat, model);
    }
}

/// An aggregate whose argument spans both join sides cannot be
/// decomposed into per-side partial states: eager must not fire, and
/// the plan must equal the eager-off plan.
#[test]
fn eager_declines_aggregate_spanning_the_join() {
    let cat = random_catalog(8, 120, 7);
    let q = selfjoin_query(vec![AggSpec::new(
        AggFunc::Sum,
        Expr::col(Col::base(aggview::RelId(0), emp::AGE)).binary(
            aggview::common::BinaryOp::Add,
            Expr::col(Col::base(aggview::RelId(1), emp::AGE)),
        ),
    )]);
    let model = tight_model();
    let eager = optimize(&q, &cat, model, &eager_on()).unwrap();
    assert!(
        !contains_partial_aggregate(&eager.plan),
        "eager fired on a spanning aggregate\n{}",
        eager.plan.explain()
    );
    differential(&q, &cat, model);
}

/// When every operator fits in memory the eager shape saves no IO, so
/// it is not *strictly* cheaper and the never-worse rule keeps the
/// traditional plan (a cost tie must not flip the shape).
#[test]
fn cost_tie_keeps_traditional_shape() {
    let cat = random_catalog(6, 80, 3);
    let q = selfjoin_query(vec![
        AggSpec::new(
            AggFunc::Sum,
            Expr::col(Col::base(aggview::RelId(1), emp::SAL)),
        ),
        AggSpec::new(
            AggFunc::Avg,
            Expr::col(Col::base(aggview::RelId(0), emp::SAL)),
        ),
    ]);
    // Default memory budget: both the build side and the aggregate
    // output fit, so every candidate costs the same IO.
    let model = CostModel::paper();
    let eager = optimize(&q, &cat, model, &eager_on()).unwrap();
    let plain = optimize(&q, &cat, model, &eager_off()).unwrap();
    assert!(
        !contains_partial_aggregate(&eager.plan),
        "eager fired without a strict cost win\n{}",
        eager.plan.explain()
    );
    assert_eq!(eager.props.cost, plain.props.cost);
}

/// Eager never fires on a two-sided shape where every aggregate sits
/// on one side and nothing is kept for the merge — simple coalescing
/// already owns that shape, and the partial-aggregate node must not
/// duplicate it.
#[test]
fn eager_requires_a_kept_aggregate() {
    let cat = random_catalog(8, 150, 11);
    let q = selfjoin_query(vec![
        AggSpec::new(
            AggFunc::Sum,
            Expr::col(Col::base(aggview::RelId(1), emp::SAL)),
        ),
        AggSpec::new(
            AggFunc::Min,
            Expr::col(Col::base(aggview::RelId(1), emp::SAL)),
        ),
    ]);
    let model = tight_model();
    let eager = optimize(&q, &cat, model, &eager_on()).unwrap();
    assert!(
        !contains_partial_aggregate(&eager.plan),
        "eager fired with zero kept aggregates\n{}",
        eager.plan.explain()
    );
    differential(&q, &cat, model);
}

/// Statistics going stale after planning: the executor reads no
/// statistics — the join index is sized from the build batch it is
/// handed — so results stay byte-identical.
#[test]
fn stale_stats_after_planning_still_correct() {
    let cat = gen_empdept(&EmpDeptConfig {
        n_depts: 40,
        emps_per_dept: 25,
        young_fraction: 0.3,
        low_budget_fraction: 0.3,
        seed: 9,
    })
    .unwrap();
    let q = selfjoin_query(vec![
        AggSpec::new(
            AggFunc::Sum,
            Expr::col(Col::base(aggview::RelId(1), emp::AGE)),
        ),
        AggSpec::new(
            AggFunc::Avg,
            Expr::col(Col::base(aggview::RelId(0), emp::AGE)),
        ),
    ]);
    let model = tight_model();
    let eager = optimize(&q, &cat, model, &eager_on()).unwrap();
    let plain = optimize(&q, &cat, model, &eager_off()).unwrap();
    let engine = Engine::new(&cat, &q.env, model);
    let (fresh_rows, _) = run_sorted(&engine, &eager.plan, &q.projection);
    // Invalidate the statistics *after* planning: execution must not
    // rely on them for correctness.
    cat.mark_modified("emp").unwrap();
    let (stale_eager, _) = run_sorted(&engine, &eager.plan, &q.projection);
    let (stale_plain, _) = run_sorted(&engine, &plain.plan, &q.projection);
    assert_eq!(fresh_rows, stale_eager);
    assert_eq!(fresh_rows, stale_plain);
}

/// Eager composes with the rest of the optimizer: the emp ⋈ dept
/// example-style query still agrees across configs when eager is in
/// the search space (dept is tiny, so eager should not change the
/// result either way).
#[test]
fn empdept_join_agrees_with_eager_in_search_space() {
    let cat = gen_empdept(&EmpDeptConfig {
        n_depts: 30,
        emps_per_dept: 20,
        young_fraction: 0.3,
        low_budget_fraction: 0.3,
        seed: 21,
    })
    .unwrap();
    let mut env = QueryEnv::default();
    let e = env.add_rel("emp");
    let d = env.add_rel("dept");
    let q = CanonicalQuery {
        env,
        views: vec![],
        base_rels: vec![e, d],
        preds: vec![Predicate::eq_cols(
            Col::base(e, emp::DNO),
            Col::base(d, dept::DNO),
        )],
        group: Some(TopGroup {
            group_cols: vec![Col::base(d, dept::DNO)],
            aggs: vec![
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e, emp::AGE))),
                AggSpec::new(AggFunc::Min, Expr::col(Col::base(d, dept::BUDGET))),
            ],
            having: vec![],
        }),
        projection: vec![
            Col::base(d, dept::DNO),
            Col::agg(ViewId::Top, 0),
            Col::agg(ViewId::Top, 1),
        ],
    };
    for model in [CostModel::default(), tight_model()] {
        differential(&q, &cat, model);
    }
}
