//! Cost-model invariants the optimization algorithms rely on.

use aggview_common::{AggFunc, AggSpec, CmpOp, Col, Expr, Predicate, RelId, Value, ViewId};
use aggview_core::cost::ops::IoParams;
use aggview_core::cost::{CardEstimator, CostModel, PlanProps};
use aggview_core::optimize;
use aggview_core::plan::{all_cols, GroupBySpec, Plan};
use aggview_core::query::QueryEnv;
use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview_storage::Catalog;

#[path = "support/shapes.rs"]
mod shapes;
use shapes::{configs, empdept_grid, star_grid};

fn setup() -> (Catalog, QueryEnv) {
    let cat = gen_empdept(&EmpDeptConfig {
        n_depts: 40,
        emps_per_dept: 25,
        young_fraction: 0.2,
        low_budget_fraction: 0.3,
        seed: 61,
    })
    .unwrap();
    (cat, QueryEnv::new(vec!["emp".into(), "dept".into()]))
}

/// The paper's model with `mem` pages of operator memory.
fn model(mem: f64) -> CostModel {
    CostModel {
        io: IoParams {
            mem_pages: mem,
            ..Default::default()
        },
        ..CostModel::paper()
    }
}

fn emp_scan(filters: Vec<Predicate>) -> Plan {
    Plan::scan(RelId(0), "emp", filters, all_cols(RelId(0), 5))
}

fn dept_scan() -> Plan {
    Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4))
}

/// More memory never increases any plan's estimated cost (monotonicity —
/// without it the principle of optimality across memory settings would
/// be suspect).
#[test]
fn cost_monotone_in_memory() {
    let (cat, env) = setup();
    let join = Plan::join_all(
        emp_scan(vec![]),
        dept_scan(),
        vec![Predicate::eq_cols(
            Col::base(RelId(0), 2),
            Col::base(RelId(1), 0),
        )],
    );
    let gb = Plan::group_by_all(
        join.clone(),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(RelId(0), 3)),
            )],
            having: vec![],
        },
    );
    for plan in [join, gb] {
        let mut prev = f64::INFINITY;
        for mem in [2.0, 4.0, 16.0, 64.0, 1024.0] {
            let est = CardEstimator::new(model(mem), &cat, &env);
            let c = est.cost_plan(&plan).unwrap().cost;
            assert!(c <= prev + 1e-9, "mem {mem}: {c} > {prev}");
            prev = c;
        }
    }
}

/// Filters reduce estimated cardinality, never increase it; stacking
/// filters compounds.
#[test]
fn filters_shrink_cardinality() {
    let (cat, env) = setup();
    let est = CardEstimator::new(model(64.0), &cat, &env);
    let base = est.cost_plan(&emp_scan(vec![])).unwrap().card;
    let one = est
        .cost_plan(&emp_scan(vec![Predicate::cmp_const(
            Col::base(RelId(0), 4),
            CmpOp::Lt,
            Value::Int(30),
        )]))
        .unwrap()
        .card;
    let two = est
        .cost_plan(&emp_scan(vec![
            Predicate::cmp_const(Col::base(RelId(0), 4), CmpOp::Lt, Value::Int(30)),
            Predicate::cmp_const(Col::base(RelId(0), 3), CmpOp::Gt, Value::Float(150_000.0)),
        ]))
        .unwrap()
        .card;
    assert!(one < base);
    assert!(two < one);
    assert!(two >= 0.0);
}

/// The group-by output estimate never exceeds its input cardinality and
/// never exceeds the grouping-domain product.
#[test]
fn group_estimate_bounded() {
    let (cat, env) = setup();
    let est = CardEstimator::new(model(64.0), &cat, &env);
    let input = est.cost_plan(&emp_scan(vec![])).unwrap().card;
    let gb = Plan::group_by_all(
        emp_scan(vec![]),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![AggSpec::count_star()],
            having: vec![],
        },
    );
    let groups = est.cost_plan(&gb).unwrap().card;
    assert!(groups <= input);
    assert!(groups <= 40.0 + 1e-9, "at most n_depts groups");
    assert!(groups > 30.0, "nearly every department is realized");
}

/// A narrower projection never makes a plan cost more, and never widens
/// the estimated row.
#[test]
fn projection_narrowing_is_free_or_better() {
    let (cat, env) = setup();
    let est = CardEstimator::new(model(4.0), &cat, &env);
    let wide = Plan::join_all(
        emp_scan(vec![]),
        dept_scan(),
        vec![Predicate::eq_cols(
            Col::base(RelId(0), 2),
            Col::base(RelId(1), 0),
        )],
    );
    let narrow = wide
        .clone()
        .with_project(vec![Col::base(RelId(0), 2), Col::base(RelId(0), 3)]);
    let w = est.cost_plan(&wide).unwrap();
    let n = est.cost_plan(&narrow).unwrap();
    assert!(n.width < w.width);
    assert!(n.cost <= w.cost + 1e-9);
    assert_eq!(n.card, w.card);
}

/// Join cardinality with an FK-style equality is about the child side's
/// cardinality; applying the same predicate twice must not double-count
/// selectivity (each predicate contributes once).
#[test]
fn join_cardinality_sane() {
    let (cat, env) = setup();
    let est = CardEstimator::new(model(64.0), &cat, &env);
    let join = Plan::join_all(
        emp_scan(vec![]),
        dept_scan(),
        vec![Predicate::eq_cols(
            Col::base(RelId(0), 2),
            Col::base(RelId(1), 0),
        )],
    );
    let card = est.cost_plan(&join).unwrap().card;
    let emp_rows = 40.0 * 25.0;
    assert!(
        (card - emp_rows).abs() / emp_rows < 0.1,
        "FK join ≈ |emp|, got {card}"
    );
}

/// Every field of `p`, as bits.
type PropBits = ([u64; 4], Vec<(Col, u64)>);

fn bits(p: &PlanProps) -> PropBits {
    let scalars = [p.cost, p.card, p.width, p.peak_bytes].map(f64::to_bits);
    let distinct = p.distinct.iter().map(|(c, d)| (*c, d.to_bits())).collect();
    (scalars, distinct)
}

/// Costs are what the recursion says. The enumerator prices a candidate
/// from the stored properties of its inputs (`cost_node`), never by
/// walking the tree, so the properties it reports for the chosen plan
/// must equal a from-the-leaves `cost_plan` of that plan bit for bit —
/// in every field, under every configuration, whether the group-by
/// stayed at the root, moved below a join (invariant grouping, eager
/// aggregation) or was pulled up. A search that priced the join above
/// an early group-by from anything but that group-by's own properties
/// would report numbers this recomputation does not reproduce.
#[test]
fn optimizer_props_equal_cost_plan_bit_for_bit() {
    let configs = configs();
    let (mut pushed_down, mut pulled_up, mut eager) = (0, 0, 0);
    for (cat, queries) in empdept_grid() {
        for q in &queries {
            let with_cpu = CostModel {
                io: model(4.0).io,
                ..CostModel::default()
            };
            for m in [model(4.0), model(64.0), CostModel::default(), with_cpu] {
                let est = CardEstimator::new(m, &cat, &q.env);
                let trad = optimize(q, &cat, m, &configs[0]).unwrap();
                for config in &configs {
                    let opt = optimize(q, &cat, m, config).unwrap();
                    assert_eq!(
                        bits(&opt.props),
                        bits(&est.cost_plan(&opt.plan).unwrap()),
                        "{m:?} {config:?}\n{}",
                        opt.plan.explain()
                    );
                    let text = opt.plan.explain();
                    if text.contains("PartialAggregate") {
                        eager += 1;
                    } else if opt.pulled.iter().any(|w| !w.is_empty()) {
                        pulled_up += 1;
                    } else if opt.plan != trad.plan {
                        pushed_down += 1;
                    }
                }
            }
        }
    }
    assert!(
        pushed_down >= 3 && pulled_up >= 3 && eager >= 3,
        "the grid must choose each transformation: {pushed_down} push-downs, \
         {pulled_up} pull-ups, {eager} eager aggregations"
    );
}

/// The same bit-for-bit check on the star-schema shapes a statement mix
/// of short multi-view queries runs: two aggregate views joined to three
/// base relations and one joined to four, the two flattened nested
/// subqueries, and the five-way GROUP BY — under both weight vectors and
/// every configuration. Most of their blocks have no group-by left at
/// the root, so the enumerator prices the root's re-projection as one
/// node from the properties it stored for the root's inputs; drift
/// there shows here.
#[test]
fn star_shapes_props_equal_cost_plan_bit_for_bit() {
    let (mut join_roots, mut pulled_up) = (0, 0);
    for (cat, queries) in star_grid() {
        for q in &queries {
            for m in [CostModel::paper(), CostModel::default()] {
                let est = CardEstimator::new(m, &cat, &q.env);
                for config in &configs() {
                    let opt = optimize(q, &cat, m, config).unwrap();
                    assert_eq!(
                        bits(&opt.props),
                        bits(&est.cost_plan(&opt.plan).unwrap()),
                        "{m:?} {config:?}\n{}",
                        opt.plan.explain()
                    );
                    join_roots += usize::from(matches!(opt.plan, Plan::Join { .. }));
                    pulled_up += usize::from(opt.pulled.iter().any(|w| !w.is_empty()));
                }
            }
        }
    }
    assert!(
        join_roots >= 40 && pulled_up >= 1,
        "the grid must re-project join roots and pull up: {join_roots} join roots, \
         {pulled_up} pull-ups"
    );
}
