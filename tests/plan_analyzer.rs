//! Integration tests for the plan-integrity analyzer:
//!
//! 1. **corpus acceptance** — every plan the optimizer emits, across
//!    example queries, configurations and memory budgets, passes every
//!    analyzer rule (including cost-annotation sanity);
//! 2. **mutation rejection** — every applicable seeded mutation of a
//!    valid plan is rejected, covering all twelve mutation kinds;
//! 3. **targeted rules** — hand-built plans that violate exactly one of
//!    the pull-up key rule (Definition 1), the invariant-grouping
//!    key-join condition, the coalescing merge-stage identity
//!    (Figure 2), the degraded-plan shape, or cost sanity;
//! 4. **property** — analyzer-accepted plans execute without
//!    `plan-invalid`, over randomized databases;
//! 5. **SQL surface** — `EXPLAIN VERIFY` and `Session::verify` report
//!    the analyzer verdict.

#[path = "support/mutate.rs"]
mod mutate;

use aggview::common::{
    AggFunc, AggRef, AggSpec, CmpOp, Col, Expr, Predicate, RelId, Value, ViewId,
};
use aggview::core::cost::ops::IoParams;
use aggview::core::plan::{all_cols, PartialAggSpec};
use aggview::core::query::examples::{
    dept, emp, example1_query, example2_query, example2_wide_query,
};
use aggview::core::query::{CanonicalQuery, QueryEnv, TopGroup};
use aggview::core::{
    optimize, optimize_governed, CostModel, GroupBySpec, OptimizerConfig, Plan, PlanAnalyzer,
    PullUpLevel, ResourceGovernor, ResourceLimits,
};
use aggview::executor::Engine;
use aggview::sql::Session;
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview::storage::Catalog;
use mutate::mutants;
use proptest::prelude::*;
use std::collections::BTreeSet;

fn catalog() -> Catalog {
    gen_empdept(&EmpDeptConfig::default()).unwrap()
}

fn model(mem: f64) -> CostModel {
    CostModel {
        io: IoParams {
            mem_pages: mem,
            ..Default::default()
        },
        ..Default::default()
    }
}

fn configs() -> Vec<OptimizerConfig> {
    vec![
        OptimizerConfig::traditional(),
        OptimizerConfig::push_down_only(),
        OptimizerConfig {
            pull_up: PullUpLevel::Limited(1),
            ..Default::default()
        },
        OptimizerConfig::default(),
    ]
}

fn scan_emp(rel: RelId) -> Plan {
    Plan::scan(rel, "emp", vec![], all_cols(rel, 5))
}

fn scan_dept(rel: RelId) -> Plan {
    Plan::scan(rel, "dept", vec![], all_cols(rel, 4))
}

/// A two-phase (simple coalescing grouping) plan over one emp relation:
/// a partial SUM(sal) per dno, coalesced by a merge group-by above.
fn coalescing_plan() -> Plan {
    let mut env = QueryEnv::default();
    let e = env.add_rel("emp");
    let aref = AggRef::new(ViewId::Top, 0);
    let agg = AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e, emp::SAL)));
    let partial = Plan::partial_aggregate_all(
        scan_emp(e),
        PartialAggSpec {
            group_cols: vec![Col::base(e, emp::DNO)],
            aggs: vec![(aref, agg.clone())],
            count: None,
        },
    );
    Plan::group_by_all(
        partial,
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(e, emp::DNO)],
            aggs: vec![agg],
            having: vec![],
        },
    )
}

/// An emp ⋈ dept plan aggregated above the join, with an aggregate
/// HAVING predicate — the shape the HAVING-motion mutations need.
fn having_join_plan() -> Plan {
    let mut env = QueryEnv::default();
    let e = env.add_rel("emp");
    let d = env.add_rel("dept");
    let join = Plan::join_all(
        scan_emp(e),
        scan_dept(d),
        vec![Predicate::eq_cols(
            Col::base(e, emp::DNO),
            Col::base(d, dept::DNO),
        )],
    );
    Plan::group_by_all(
        join,
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(e, emp::DNO)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(e, emp::SAL)),
            )],
            having: vec![Predicate::cmp_const(
                Col::agg(ViewId::Top, 0),
                CmpOp::Gt,
                Value::Float(0.0),
            )],
        },
    )
}

/// Example 1's view group-by pulled above the join with `e1` (the
/// outer emp), grouping on `extra` in addition to the view's `e2.dno`.
/// Definition 1 requires `e1`'s key among the grouping columns.
fn pulled_plan(extra: Option<Col>) -> Plan {
    let e1 = RelId(0);
    let e2 = RelId(1);
    let join = Plan::join_all(
        scan_emp(e1),
        scan_emp(e2),
        vec![Predicate::eq_cols(
            Col::base(e1, emp::DNO),
            Col::base(e2, emp::DNO),
        )],
    );
    let mut group_cols = vec![Col::base(e2, emp::DNO)];
    group_cols.extend(extra);
    Plan::group_by_all(
        join,
        GroupBySpec {
            owner: ViewId::View(0),
            group_cols,
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(e2, emp::SAL)),
            )],
            having: vec![],
        },
    )
}

fn rules_fired(report: &aggview::core::AnalysisReport) -> BTreeSet<&'static str> {
    report.violations.iter().map(|v| v.rule).collect()
}

/// A self-join aggregate query whose optimized plan (under a tight
/// memory budget and a large catalog) contains an eager
/// partial-aggregate below the join — the shape the three eager
/// mutation kinds need.
fn eager_selfjoin_query() -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let e1 = env.add_rel("emp");
    let e2 = env.add_rel("emp");
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
            aggs: vec![
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(e1, emp::AGE))),
                AggSpec::new(AggFunc::Min, Expr::col(Col::base(e2, emp::SAL))),
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e2, emp::AGE))),
            ],
            having: vec![],
        }),
        projection: vec![
            Col::base(e1, emp::DNO),
            Col::agg(ViewId::Top, 0),
            Col::agg(ViewId::Top, 1),
            Col::agg(ViewId::Top, 2),
        ],
    }
}

/// A hand-built eager plan with *two* pushed keys (a grouping column of
/// the pushed side plus its join key): partial SUM(e2.sal) with the
/// duplicate-factor count below the join, scaled merge above. The
/// eager-drop-pushed-key mutation needs the second key.
fn eager_plan() -> Plan {
    let e1 = RelId(0);
    let e2 = RelId(1);
    let partial = Plan::partial_aggregate_all(
        scan_emp(e2),
        PartialAggSpec {
            group_cols: vec![Col::base(e2, emp::AGE), Col::base(e2, emp::DNO)],
            aggs: vec![(
                AggRef::new(ViewId::Top, 1),
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e2, emp::SAL))),
            )],
            count: Some(AggRef::new(ViewId::Top, 2)),
        },
    );
    let join = Plan::join_all(
        partial,
        scan_emp(e1),
        vec![Predicate::eq_cols(
            Col::base(e1, emp::DNO),
            Col::base(e2, emp::DNO),
        )],
    );
    Plan::group_by_all(
        join,
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(e1, emp::DNO), Col::base(e2, emp::AGE)],
            aggs: vec![
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(e1, emp::SAL))),
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e2, emp::SAL))),
            ],
            having: vec![],
        },
    )
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

#[test]
fn analyzer_accepts_every_corpus_plan() {
    let catalog = catalog();
    let queries = [example1_query(), example2_query(), example2_wide_query()];
    let mut accepted = 0usize;
    let mut total = 0usize;
    for mem in [4.0, 256.0] {
        let m = model(mem);
        for q in &queries {
            for cfg in configs() {
                let opt = optimize(q, &catalog, m, &cfg).unwrap();
                let report = PlanAnalyzer::new(&catalog)
                    .with_query(q)
                    .with_model(m)
                    .analyze(&opt.plan);
                total += 1;
                assert!(
                    report.is_ok(),
                    "corpus plan rejected under {cfg:?}:\n{report}{}",
                    opt.plan.explain()
                );
                accepted += 1;
            }
        }
    }
    assert_eq!(accepted, total, "analyzer must accept 100% of the corpus");
}

#[test]
fn analyzer_rejects_every_seeded_mutant() {
    let catalog = catalog();
    let m = model(64.0);
    let mut kinds = BTreeSet::new();
    let mut total = 0usize;

    // Mutants of real optimizer outputs, checked with full query context.
    let queries = [example1_query(), example2_query(), example2_wide_query()];
    for q in &queries {
        for cfg in configs() {
            let opt = optimize(q, &catalog, m, &cfg).unwrap();
            for mt in mutants(&opt.plan) {
                total += 1;
                let report = PlanAnalyzer::new(&catalog).with_query(q).analyze(&mt.plan);
                assert!(
                    !report.is_ok(),
                    "mutant `{}` accepted:\n{}",
                    mt.name,
                    mt.plan.explain()
                );
                kinds.insert(mt.name);
            }
        }
    }

    // Hand-built shapes covering mutation kinds the optimizer corpus may
    // not exhibit (coalescing stages, aggregate HAVING above a join);
    // these only need the catalog-level rules.
    for plan in [coalescing_plan(), having_join_plan(), eager_plan()] {
        let base = PlanAnalyzer::new(&catalog).analyze(&plan);
        assert!(base.is_ok(), "unmutated shape rejected:\n{base}");
        for mt in mutants(&plan) {
            total += 1;
            let report = PlanAnalyzer::new(&catalog).analyze(&mt.plan);
            assert!(
                !report.is_ok(),
                "mutant `{}` accepted:\n{}",
                mt.name,
                mt.plan.explain()
            );
            kinds.insert(mt.name);
        }
    }

    // An eager (partial-aggregate-below-join) optimizer output: the
    // three eager mutation kinds only apply to this shape.
    let big = gen_empdept(&EmpDeptConfig {
        n_depts: 200,
        emps_per_dept: 100,
        young_fraction: 0.3,
        low_budget_fraction: 0.3,
        seed: 12,
    })
    .unwrap();
    let eq = eager_selfjoin_query();
    let cfg = OptimizerConfig {
        use_eager_agg: true,
        ..Default::default()
    };
    let opt = optimize(&eq, &big, m, &cfg).unwrap();
    assert!(
        contains_partial_aggregate(&opt.plan),
        "eager shape missing from the mutation corpus:\n{}",
        opt.plan.explain()
    );
    let base = PlanAnalyzer::new(&big).with_query(&eq).analyze(&opt.plan);
    assert!(base.is_ok(), "unmutated eager plan rejected:\n{base}");
    for mt in mutants(&opt.plan) {
        total += 1;
        let report = PlanAnalyzer::new(&big).with_query(&eq).analyze(&mt.plan);
        assert!(
            !report.is_ok(),
            "mutant `{}` accepted:\n{}",
            mt.name,
            mt.plan.explain()
        );
        kinds.insert(mt.name);
    }

    let all_kinds: BTreeSet<&str> = [
        "drop-group-col",
        "move-having-below",
        "swap-coalesce-func",
        "drop-partial-component",
        "drop-join-input-col",
        "overlap-join-children",
        "rename-scan-table",
        "agg-arg-unavailable",
        "group-on-unavailable",
        "having-foreign-column",
        "nonlocal-scan-filter",
        "join-pred-unavailable",
        "eager-drop-pushed-key",
        "eager-drop-count",
        "eager-component-lie",
    ]
    .into_iter()
    .collect();
    assert_eq!(
        kinds, all_kinds,
        "every mutation kind must apply somewhere in the corpus"
    );
    assert!(kinds.len() >= 10, "need at least 10 distinct mutant kinds");
    assert!(total >= all_kinds.len());
}

#[test]
fn dataflow_mutants_are_flagged() {
    use aggview::core::analyze::Severity;
    use mutate::dataflow_mutants;
    let catalog = catalog();
    let mut env = QueryEnv::default();
    let e = env.add_rel("emp");

    // A constant-false scan filter makes the plan provably empty —
    // still correct (the executor answers it with no rows), so it's a
    // DF001 *warning*: the plan passes the gate but the finding is
    // surfaced.
    let muts = dataflow_mutants(&scan_emp(e));
    let contradiction = muts
        .iter()
        .find(|m| m.name == "contradictory-filter")
        .expect("scan shape must admit the contradictory-filter mutant");
    let report = PlanAnalyzer::new(&catalog)
        .with_env(&env)
        .analyze(&contradiction.plan);
    assert!(report.is_ok(), "a warning must not reject:\n{report}");
    assert!(!report.is_clean(), "the contradiction must be surfaced");
    let v = report
        .violations
        .iter()
        .find(|v| v.rule == "dataflow-domain")
        .expect("expected a dataflow-domain finding");
    assert_eq!(v.code, "DF001");
    assert_eq!(v.severity, Severity::Warning);
}

#[test]
fn pullup_without_the_joined_relations_key_is_rejected() {
    let catalog = catalog();
    let q = example1_query();
    let analyzer = PlanAnalyzer::new(&catalog);
    let analyzer = analyzer.with_query(&q);

    // Deferring the view's group-by past emp e1 without grouping on
    // e1's key multiplies e2 rows per matching e1 row — Definition 1's
    // exact counterexample.
    let bad = analyzer.analyze(&pulled_plan(None));
    assert!(
        rules_fired(&bad).contains("pull-up-key"),
        "expected a pull-up-key violation, got: {bad}"
    );

    // Adding e1's primary key (eno) to the grouping columns restores
    // Definition 1's condition.
    let good = analyzer.analyze(&pulled_plan(Some(Col::base(RelId(0), emp::ENO))));
    assert!(good.is_ok(), "legal pull-up rejected:\n{good}");
}

#[test]
fn non_key_join_above_the_top_group_by_is_rejected() {
    let catalog = catalog();
    let mut env = QueryEnv::default();
    let e = env.add_rel("emp");
    let other = env.add_rel("emp"); // swap to "dept" for the legal case below
    let grouped = Plan::group_by_all(
        scan_emp(e),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(e, emp::DNO)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(e, emp::SAL)),
            )],
            having: vec![],
        },
    );

    // emp.dno is not a key of emp: several e2 rows match one group, so
    // the join is not invariant with respect to the grouping.
    let bad = Plan::join_all(
        grouped.clone(),
        scan_emp(other),
        vec![Predicate::eq_cols(
            Col::base(e, emp::DNO),
            Col::base(other, emp::DNO),
        )],
    );
    let report = PlanAnalyzer::new(&catalog).analyze(&bad);
    assert!(
        rules_fired(&report).contains("invariant-grouping"),
        "expected an invariant-grouping violation, got: {report}"
    );

    // dept.dno is dept's primary key: at most one dept row per group,
    // so joining above the group-by is legal (invariant grouping).
    let good = Plan::join_all(
        grouped,
        scan_dept(other),
        vec![Predicate::eq_cols(
            Col::base(e, emp::DNO),
            Col::base(other, dept::DNO),
        )],
    );
    let report = PlanAnalyzer::new(&catalog).analyze(&good);
    assert!(report.is_ok(), "legal key join rejected:\n{report}");
}

#[test]
fn partial_aggregation_requires_a_matching_merge_stage() {
    let catalog = catalog();
    let mut env = QueryEnv::default();
    let e = env.add_rel("emp");
    let d = env.add_rel("dept");
    let aref = AggRef::new(ViewId::Top, 0);
    let partial = Plan::partial_aggregate_all(
        scan_emp(e),
        PartialAggSpec {
            group_cols: vec![Col::base(e, emp::DNO)],
            aggs: vec![(
                aref,
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e, emp::SAL))),
            )],
            count: None,
        },
    );
    // Partial states joined onward with no merge group-by above leak
    // into the result — Figure 2 requires the second stage.
    let leaked = Plan::join_all(
        partial.clone(),
        scan_dept(d),
        vec![Predicate::eq_cols(
            Col::base(e, emp::DNO),
            Col::base(d, dept::DNO),
        )],
    );
    let report = PlanAnalyzer::new(&catalog).analyze(&leaked);
    assert!(
        rules_fired(&report).contains("coalescing-merge"),
        "expected a coalescing-merge violation, got: {report}"
    );

    // At the root the partial aggregate is a materialized view's state
    // plan: the extent stores its states and a reader's group-by merges
    // them.
    let report = PlanAnalyzer::new(&catalog).analyze(&partial);
    assert!(report.is_ok(), "state plan rejected:\n{report}");

    // The full two-phase shape passes.
    let report = PlanAnalyzer::new(&catalog).analyze(&coalescing_plan());
    assert!(report.is_ok(), "legal coalescing plan rejected:\n{report}");
}

/// A merge group-by types each aggregate from the partial states below
/// it, so two-phase plans — hand-built coalescing and eager shapes, the
/// optimizer's eager self-join, and a matview answer merging stored
/// partials — type cleanly, with no finding at all.
#[test]
fn two_phase_plans_are_clean() {
    let assert_clean = |analyzer: PlanAnalyzer, plan: &Plan| {
        let report = analyzer.analyze(plan);
        assert!(report.is_clean(), "{report}{}", plan.explain());
    };
    let catalog = catalog();
    assert_clean(PlanAnalyzer::new(&catalog), &coalescing_plan());
    assert_clean(PlanAnalyzer::new(&catalog), &eager_plan());

    let big = gen_empdept(&EmpDeptConfig {
        n_depts: 200,
        emps_per_dept: 100,
        young_fraction: 0.3,
        low_budget_fraction: 0.3,
        seed: 12,
    })
    .unwrap();
    let eq = eager_selfjoin_query();
    let opt = optimize(&eq, &big, model(64.0), &OptimizerConfig::default()).unwrap();
    assert!(
        contains_partial_aggregate(&opt.plan),
        "{}",
        opt.plan.explain()
    );
    assert_clean(PlanAnalyzer::new(&big).with_query(&eq), &opt.plan);

    let mut session = Session::new(catalog);
    session
        .execute(
            "create materialized view dept_loc_pay(dno, loc, total, n) as \
             select e.dno, d.loc, sum(e.sal), count(*) from emp e, dept d \
              where e.dno = d.dno group by e.dno, d.loc;",
        )
        .unwrap();
    let (bound, opt) = session
        .plan("select d.loc, sum(e.sal) from emp e, dept d where e.dno = d.dno group by d.loc;")
        .unwrap();
    let Plan::GroupBy { input, .. } = &opt.plan else {
        panic!("expected a compensating group-by:\n{}", opt.plan.explain())
    };
    assert!(
        matches!(input.as_ref(), Plan::ExtentScan { outputs, .. }
            if outputs.iter().any(|c| matches!(c, Col::Part(_)))),
        "expected stored partials under the group-by:\n{}",
        opt.plan.explain()
    );
    assert_clean(
        PlanAnalyzer::new(session.catalog()).with_query(&bound.query),
        &opt.plan,
    );
}

#[test]
fn degraded_plans_must_have_the_traditional_shape() {
    let catalog = catalog();
    let m = model(64.0);
    let q = example2_query();

    // A genuinely degraded optimization passes the stricter check.
    let gov = ResourceGovernor::new(ResourceLimits::unlimited().with_max_plans(1));
    let opt = optimize_governed(&q, &catalog, m, &OptimizerConfig::default(), &gov).unwrap();
    assert!(opt.outcome.is_degraded(), "expected a degraded outcome");
    let report = PlanAnalyzer::new(&catalog)
        .with_query(&q)
        .analyze_degraded(&opt.plan);
    assert!(report.is_ok(), "degraded plan rejected:\n{report}");

    // A coalescing (partial-aggregation) plan is valid in general but
    // is not a traditional two-phase plan, so the degraded check
    // refuses it.
    let report = PlanAnalyzer::new(&catalog)
        .with_query(&q)
        .analyze_degraded(&coalescing_plan());
    assert!(
        rules_fired(&report).contains("degraded-shape"),
        "expected a degraded-shape violation, got: {report}"
    );
}

#[test]
fn unpriceable_joins_fail_cost_sanity() {
    let catalog = catalog();
    let mut env = QueryEnv::default();
    let e = env.add_rel("emp");
    let d = env.add_rel("dept");
    let g = env.add_rel("ghost");
    // No statistics price a scan of a table the catalog does not hold,
    // nor the joins above it: the cost-sanity rule reports that as a
    // violation instead of letting the analyzer error out.
    let ghost = Plan::scan(g, "ghost", vec![], vec![Col::base(g, 0)]);
    let plan = Plan::join_all(
        Plan::join_all(scan_emp(e), scan_dept(d), vec![]),
        ghost,
        vec![Predicate::new(
            Expr::col(Col::base(e, emp::SAL)),
            CmpOp::Gt,
            Expr::col(Col::base(d, dept::BUDGET)),
        )],
    );
    let report = PlanAnalyzer::new(&catalog)
        .with_env(&env)
        .with_model(model(64.0))
        .analyze(&plan);
    assert!(
        rules_fired(&report).contains("cost-sanity"),
        "expected a cost-sanity violation, got: {report}"
    );
}

#[test]
fn explain_verify_reports_the_analyzer_verdict() {
    let mut session = Session::new(catalog());
    let r = session
        .execute(
            "explain verify select e.dno, avg(e.sal) from emp e, dept d \
             where e.dno = d.dno group by e.dno;",
        )
        .unwrap();
    assert_eq!(r.columns, ["code", "severity", "rule", "finding"]);
    assert_eq!(r.rows.len(), 1);
    assert_eq!(*r.rows[0].get(0), Value::str("ok"));
    assert!(!r.plan.is_empty(), "the verdict should carry the plan");

    // The same surface through the programmatic entry point, across a
    // multi-statement script with a view definition.
    let r = session
        .verify(
            "create view a1(dno, asal) as \
               select e2.dno, avg(e2.sal) from emp e2 group by e2.dno; \
             select e1.sal from emp e1, a1 b \
              where e1.dno = b.dno and e1.age < 22 and e1.sal > b.asal;",
        )
        .unwrap();
    assert_eq!(*r.rows[0].get(0), Value::str("ok"));
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Analyzer-accepted plans execute cleanly — in particular the
    /// executor's hard `plan-invalid` gate never fires — over
    /// randomized databases.
    #[test]
    fn accepted_plans_execute(
        n_depts in 2usize..40,
        emps_per_dept in 1usize..30,
        young_pct in 0u32..100,
        seed in 0u64..10_000,
        which in 0usize..3,
        cfg_i in 0usize..4,
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
        let m = model(64.0);
        let cfg = configs().swap_remove(cfg_i);
        let opt = optimize(&q, &catalog, m, &cfg).unwrap();
        let report = PlanAnalyzer::new(&catalog)
            .with_query(&q)
            .with_model(m)
            .analyze(&opt.plan);
        prop_assert!(report.is_ok(), "{report}{}", opt.plan.explain());
        if let Err(e) = Engine::new(&catalog, &q.env, m).execute(&opt.plan) {
            prop_assert!(false, "execution failed ({}): {}", e.kind(), e.message());
        }
    }
}
