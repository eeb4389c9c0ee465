//! E6 — the never-worse guarantee, empirically.
//!
//! "We guarantee that the chosen plan is no worse than that produced by
//! the traditional optimization algorithm." The guarantee is on
//! *estimated* cost (both optimizers use the same cost model and the
//! extended search space contains the traditional plan). This
//! experiment stresses it on randomized catalogs and memory budgets,
//! and also reports the distribution of the *measured* IO ratio, where
//! estimation error can occasionally cost the full optimizer.

use aggview_bench::{geo_mean, model_with_mem, print_table};
use aggview_common::{AggFunc, AggSpec, CmpOp, Col, Expr, Predicate, Value, ViewId};
use aggview_core::optimizer::multi_view::optimize;
use aggview_core::query::{CanonicalQuery, QueryEnv, ViewDef};
use aggview_core::OptimizerConfig;
use aggview_executor::{assert_equivalent, Engine};
use aggview_storage::datagen::{gen_random_catalog, RandomCatalogConfig};

/// Random-shape query: aggregate view over t0 (avg val by j1), outer
/// block t1 [⋈ t2] with a selective filter, comparison against the
/// view's aggregate.
fn random_query(with_t2: bool, t1_id_cut: i64) -> CanonicalQuery {
    let mut env = QueryEnv::default();
    let t0 = env.add_rel("t0");
    let t1 = env.add_rel("t1");
    let view = ViewDef {
        index: 0,
        rels: vec![t0],
        preds: vec![],
        // Grouping by both join columns makes the view's aggregation
        // output large (often comparable to t0 itself), so deferring it
        // past a selective join can pay.
        group_cols: vec![Col::base(t0, 1), Col::base(t0, 2)],
        aggs: vec![AggSpec::new(AggFunc::Avg, Expr::col(Col::base(t0, 3)))],
        having: vec![],
    };
    let mut base = vec![t1];
    let mut preds = vec![
        Predicate::eq_cols(Col::base(t1, 1), Col::base(t0, 1)),
        Predicate::cmp_const(Col::base(t1, 0), CmpOp::Lt, Value::Int(t1_id_cut)),
        Predicate::new(
            Expr::col(Col::base(t1, 3)),
            CmpOp::Gt,
            Expr::col(Col::agg(ViewId::View(0), 0)),
        ),
    ];
    if with_t2 {
        let t2 = env.add_rel("t2");
        base.push(t2);
        preds.push(Predicate::eq_cols(Col::base(t1, 2), Col::base(t2, 2)));
    }
    CanonicalQuery {
        env,
        views: vec![view],
        base_rels: base,
        preds,
        group: None,
        projection: vec![Col::base(t1, 3)],
    }
}

fn main() {
    let mut ratios_est = Vec::new();
    let mut ratios_meas = Vec::new();
    let mut strict_wins = 0u32;
    let mut cases = 0u32;
    for seed in 0..40u64 {
        let catalog = gen_random_catalog(&RandomCatalogConfig {
            n_tables: 3,
            rows: (200, 30_000),
            join_domain: (2, 4000),
            seed,
            ..Default::default()
        })
        .expect("catalog");
        for mem in [4.0, 16.0, 64.0] {
            let model = model_with_mem(mem);
            for with_t2 in [false, true] {
                // Cut keeps roughly (seed % 5 + 1) * 4 percent of t1.
                let cut = ((seed % 5 + 1) * 4 * 30_000 / 100) as i64;
                let q = random_query(with_t2, cut);
                let trad = optimize(&q, &catalog, model, &OptimizerConfig::traditional())
                    .expect("traditional");
                let full =
                    optimize(&q, &catalog, model, &OptimizerConfig::default()).expect("full");
                // THE guarantee.
                assert!(
                    full.props.cost <= trad.props.cost + 1e-6,
                    "violated at seed={seed} mem={mem} t2={with_t2}: \
                     full {} > trad {}",
                    full.props.cost,
                    trad.props.cost
                );
                // Execution equivalence + measured ratio.
                let engine = Engine::new(&catalog, &q.env, model);
                let a = engine.execute(&trad.plan).expect("exec trad");
                let b = engine.execute(&full.plan).expect("exec full");
                assert_equivalent(&a, &b)
                    .unwrap_or_else(|e| panic!("results diverge at seed={seed} mem={mem}: {e}"));
                ratios_est.push(trad.props.cost / full.props.cost.max(1e-9));
                ratios_meas.push(a.io_pages / b.io_pages.max(1e-9));
                if full.props.cost < trad.props.cost - 1e-6 {
                    strict_wins += 1;
                }
                cases += 1;
            }
        }
    }
    let max_meas_regression = ratios_meas.iter().cloned().fold(f64::INFINITY, f64::min);
    let rows = vec![vec![
        cases.to_string(),
        strict_wins.to_string(),
        format!("{:.3}", geo_mean(&ratios_est)),
        format!("{:.3}", ratios_est.iter().cloned().fold(0.0, f64::max)),
        format!("{:.3}", geo_mean(&ratios_meas)),
        format!("{:.3}", max_meas_regression),
    ]];
    print_table(
        "E6: never-worse guarantee over randomized catalogs \
         (ratio = traditional / full; >1 means full wins)",
        &[
            "cases",
            "strict est wins",
            "est geo-mean",
            "est best",
            "meas geo-mean",
            "meas worst",
        ],
        &rows,
    );
    assert!(cases >= 200, "need a meaningful sample");
    assert!(
        max_meas_regression > 0.5,
        "measured regressions should be bounded (estimation error only)"
    );
    println!("\nshape check passed: estimated cost is never worse across {cases} cases.");
}
