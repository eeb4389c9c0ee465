//! Fault-site registry discipline: the registry itself must be
//! unambiguous (no duplicates, no entry shadowing another through the
//! dot-prefix resolution rule), and a representative workload must
//! consult every registered site — so a site cannot rot in the registry
//! while its call site silently disappears, and a new call site cannot
//! ship without registering.

use aggview::common::ids::AggRef;
use aggview::common::{registered_site, RecordingFaults, REGISTERED_FAULT_SITES};
use aggview::core::governor::ResourceGovernor;
use aggview::core::plan::{all_cols, GroupBySpec, PartialAggSpec, Plan};
use aggview::core::query::examples::{dept, emp};
use aggview::core::query::QueryEnv;
use aggview::core::CostModel;
use aggview::executor::Engine;
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};
use aggview::storage::Catalog;
use aggview::{AggFunc, AggSpec, Col, Expr, Predicate, RelId, ViewId};
use std::sync::Arc;

#[test]
fn registry_is_unique_and_unambiguous() {
    for (i, a) in REGISTERED_FAULT_SITES.iter().enumerate() {
        for (j, b) in REGISTERED_FAULT_SITES.iter().enumerate() {
            if i == j {
                continue;
            }
            assert_ne!(a, b, "duplicate registry entry");
            assert!(
                !(b.starts_with(a) && b.as_bytes().get(a.len()) == Some(&b'.')),
                "`{b}` is shadowed by `{a}` under dot-prefix resolution"
            );
        }
    }
    // Every entry resolves to itself, both exactly and with a suffix.
    for &site in REGISTERED_FAULT_SITES {
        assert_eq!(registered_site(site), Some(site));
        assert_eq!(registered_site(&format!("{site}.suffix")), Some(site));
    }
    // Non-sites and non-dot extensions do not resolve.
    assert_eq!(registered_site("exec.nonsense"), None);
    assert_eq!(registered_site("wal.appendix"), None);
}

#[test]
fn representative_workload_consults_every_registered_site() {
    let rec = Arc::new(RecordingFaults::new());

    // Execution-time sites: a plan with a scan under a partial
    // aggregate, joined, then merged by a final group-by touches
    // every operator entry the registry names.
    let catalog = gen_empdept(&EmpDeptConfig {
        n_depts: 5,
        emps_per_dept: 10,
        ..Default::default()
    })
    .unwrap();
    let env = QueryEnv::new(vec!["emp".into(), "dept".into()]);
    let engine = Engine::new(&catalog, &env, CostModel::default());
    let agg = AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(0), emp::SAL)));
    let plan = Plan::group_by_all(
        Plan::join_all(
            Plan::partial_aggregate_all(
                Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
                PartialAggSpec {
                    group_cols: vec![Col::base(RelId(0), emp::DNO)],
                    aggs: vec![(AggRef::new(ViewId::Top, 0), agg.clone())],
                    count: None,
                },
            ),
            Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4)),
            vec![Predicate::eq_cols(
                Col::base(RelId(0), emp::DNO),
                Col::base(RelId(1), dept::DNO),
            )],
        ),
        GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(0), emp::DNO)],
            aggs: vec![agg],
            having: vec![],
        },
    );
    engine
        .execute_governed(&plan, &ResourceGovernor::unlimited(), Some(rec.as_ref()))
        .unwrap();

    // Durability sites: one logged mutation (append + fsync) and one
    // checkpoint (snapshot write/fsync/rename + WAL reset).
    let dir = std::env::temp_dir().join(format!("aggview-sites-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let durable = Catalog::open_with_faults(&dir, rec.clone()).unwrap();
    durable
        .add(catalog.get("dept").unwrap())
        .and_then(|()| durable.checkpoint())
        .unwrap();
    drop(durable);
    std::fs::remove_dir_all(&dir).unwrap();

    let consulted = rec.sites();
    // Completeness: every registered site was consulted.
    for &site in REGISTERED_FAULT_SITES {
        assert!(
            consulted.iter().any(|c| registered_site(c) == Some(site)),
            "registered site `{site}` never consulted; saw {consulted:?}"
        );
    }
    // Soundness: every consulted site resolves to a registered entry.
    for c in &consulted {
        assert!(
            registered_site(c).is_some(),
            "unregistered fault site consulted: `{c}` — add it to REGISTERED_FAULT_SITES"
        );
    }
}
