//! The pull-up transformation (paper Section 3, Definition 1).
//!
//! Given a legal operator tree `P1 = J1(G1(V), R2)`, produce the
//! equivalent tree `P2 = G2(J2(V, R2))`, deferring the group-by past the
//! join:
//!
//! 1. the projection columns of `G2` are those of `J1`;
//! 2. the grouping columns of `G2` are the union of `G1`'s grouping
//!    columns, `J1`'s projection columns (except aggregated columns of
//!    `G1`), and a primary key of `R2`;
//! 3. `G1`'s aggregating columns survive as aggregating columns of `G2`;
//! 4. join predicates of `J1` involving aggregated columns of `G1`
//!    become HAVING predicates of `G2`;
//! 5. the remaining join predicates of `J1` become `J2`'s predicates.
//!
//! When `J1` is a foreign-key join into `R2` (its predicates equate a
//! full key of `R2`), the key columns need not be added to `G2`'s
//! grouping columns — they are functionally determined by `G1`'s
//! grouping columns.
//!
//! **Why this is correct** (the paper's Section 3 argument): `G1`'s
//! output exposes only grouping columns and aggregates, so every
//! *non-aggregate* join predicate depends only on grouping-column values.
//! After deferral, a `(g, key(R2))` group of `J2`'s output therefore
//! contains either *all* tuples of `V`'s group `g` (each paired with the
//! same `R2` tuple) or none — aggregates computed per `(g, key(R2))`
//! group equal those computed per `g` group, and deferred predicates
//! filter `(g, key(R2))` combinations exactly as `J1` filtered
//! `(G1-row, R2-row)` pairs.

use crate::plan::{GroupBySpec, Plan};
use crate::transform::props::{is_fk_join_into, output_key};
use aggview_common::{AggViewError, Col, Predicate, Result};
use aggview_storage::Catalog;
use std::collections::BTreeSet;

/// Apply pull-up to a join node whose left or right child is a group-by.
///
/// Returns the transformed plan `G2(J2(V, R2))`. Errors if the node is
/// not a join over a group-by, or if no key of the other side can be
/// derived (the paper's fallback — the internal tuple id — corresponds
/// to declaring a primary key in this engine).
pub fn pull_up(plan: &Plan, catalog: &Catalog) -> Result<Plan> {
    let Plan::Join {
        left,
        right,
        preds,
        project,
        ..
    } = plan
    else {
        return Err(AggViewError::Plan("pull-up applies to a join node".into()));
    };
    // Normalize: the group-by child becomes `gb`, the other child `other`.
    let (gb, other, gb_on_left) = match (left.as_ref(), right.as_ref()) {
        (Plan::GroupBy { .. }, _) => (left.as_ref(), right.as_ref(), true),
        (_, Plan::GroupBy { .. }) => (right.as_ref(), left.as_ref(), false),
        _ => {
            return Err(AggViewError::Plan(
                "pull-up needs a group-by child under the join".into(),
            ))
        }
    };
    let Plan::GroupBy {
        input: v_plan,
        spec: g1,
        project: gb_project,
        ..
    } = gb
    else {
        unreachable!("matched above");
    };

    // (4)/(5): split J1's predicates on whether they read G1's aggregates.
    let reads_g1_agg = |p: &Predicate| {
        p.cols_used()
            .iter()
            .any(|c| matches!(c.as_agg(), Some(a) if a.owner == g1.owner))
    };
    let (deferred, kept): (Vec<Predicate>, Vec<Predicate>) =
        preds.iter().cloned().partition(reads_g1_agg);

    // Key of R2 (paper: use the declared primary key; our tables may
    // also derive keys through joins/group-bys).
    let other_cols: BTreeSet<Col> = other.output_cols().iter().copied().collect();
    let r2_key = output_key(other, catalog)?.ok_or_else(|| {
        AggViewError::Plan("pull-up requires a derivable key for the non-aggregated side".into())
    })?;
    let fk_join = is_fk_join_into(&kept, &r2_key, &other_cols);

    // (2): grouping columns of G2.
    let g1_aggs: BTreeSet<Col> = g1.agg_cols().into_iter().collect();
    let mut group_cols: Vec<Col> = Vec::new();
    let mut seen: BTreeSet<Col> = BTreeSet::new();
    let add_group = |c: Col, seen: &mut BTreeSet<Col>, out: &mut Vec<Col>| {
        if seen.insert(c) {
            out.push(c);
        }
    };
    for &c in &g1.group_cols {
        add_group(c, &mut seen, &mut group_cols);
    }
    for &c in project.iter() {
        if !g1_aggs.contains(&c) {
            add_group(c, &mut seen, &mut group_cols);
        }
    }
    if !fk_join {
        for &c in &r2_key {
            add_group(c, &mut seen, &mut group_cols);
        }
    }
    // Columns the deferred predicates read from the R2 side (legal in P1
    // because they were join-predicate operands; must become grouping
    // columns of G2 — they are functionally determined by key(R2)).
    for p in &deferred {
        for c in p.cols_used() {
            if other_cols.contains(&c) {
                add_group(c, &mut seen, &mut group_cols);
            }
        }
    }

    // J2's projection: everything G2 consumes.
    let v_cols: BTreeSet<Col> = v_plan.output_cols().iter().copied().collect();
    let mut j2_needed: BTreeSet<Col> = group_cols.iter().copied().collect();
    for a in &g1.aggs {
        j2_needed.extend(a.cols_used());
    }
    for p in deferred.iter().chain(&g1.having) {
        for c in p.cols_used() {
            if !g1_aggs.contains(&c) {
                j2_needed.insert(c);
            }
        }
    }
    for c in &j2_needed {
        if !v_cols.contains(c) && !other_cols.contains(c) {
            return Err(AggViewError::Plan(format!(
                "pull-up needs column {c}, unavailable below the join"
            )));
        }
    }
    let j2_project: Vec<Col> = j2_needed.into_iter().collect();

    // (5): J2 with the kept predicates, preserving child order.
    let j2 = if gb_on_left {
        Plan::join((**v_plan).clone(), other.clone(), kept, j2_project)
    } else {
        Plan::join(other.clone(), (**v_plan).clone(), kept, j2_project)
    };

    // G2: same owner (aggregate identities survive), original HAVING plus
    // the deferred predicates.
    let mut having = g1.having.clone();
    having.extend(deferred);
    let g2 = GroupBySpec {
        owner: g1.owner,
        group_cols,
        aggs: g1.aggs.clone(),
        having,
    };
    // (1): G2 projects what J1 projected.
    let _ = gb_project; // G1's own projection is subsumed by J1's.
    let out = Plan::group_by(j2, g2, project.clone());
    // Debug-mode post-condition: the transformed tree must satisfy the
    // structural invariants (typed schema, coalescing, key joins).
    #[cfg(debug_assertions)]
    {
        let report = crate::analyze::PlanAnalyzer::new(catalog).analyze(&out);
        debug_assert!(
            report.is_ok(),
            "pull-up produced a plan violating integrity invariants:\n{report}{}",
            out.explain()
        );
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::PlanAnalyzer;
    use crate::plan::all_cols;
    use crate::query::examples::{dept, emp};
    use crate::query::QueryEnv;
    use aggview_common::{AggFunc, AggSpec, CmpOp, DataType, Expr, RelId, Schema, Value, ViewId};
    use aggview_storage::Table;

    /// Build the paper's Example 1 as plan P1:
    /// J1( G1(emp e2 by dno, avg(sal)), emp e1 filtered age<22 )
    fn example1_p1() -> (Catalog, QueryEnv, Plan) {
        let catalog = Catalog::new();
        catalog
            .add(
                Table::builder(
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
                .unwrap()
                .build()
                .unwrap(),
            )
            .unwrap();
        let env = QueryEnv::new(vec!["emp".into(), "emp".into()]);
        let e1 = RelId(0);
        let e2 = RelId(1);
        let g1 = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(e2, emp::DNO)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(e2, emp::SAL)),
            )],
            having: vec![],
        };
        let view = Plan::group_by_all(
            Plan::scan(
                e2,
                "emp",
                vec![],
                vec![Col::base(e2, emp::DNO), Col::base(e2, emp::SAL)],
            ),
            g1,
        );
        let outer = Plan::scan(
            e1,
            "emp",
            vec![Predicate::cmp_const(
                Col::base(e1, emp::AGE),
                CmpOp::Lt,
                Value::Int(22),
            )],
            vec![
                Col::base(e1, emp::ENO),
                Col::base(e1, emp::DNO),
                Col::base(e1, emp::SAL),
            ],
        );
        let asal = Col::agg(ViewId::View(0), 0);
        let join = Plan::join(
            view,
            outer,
            vec![
                Predicate::eq_cols(Col::base(e2, emp::DNO), Col::base(e1, emp::DNO)),
                Predicate::new(
                    Expr::col(Col::base(e1, emp::SAL)),
                    CmpOp::Gt,
                    Expr::col(asal),
                ),
            ],
            vec![Col::base(e1, emp::SAL)],
        );
        (catalog, env, join)
    }

    #[test]
    fn example1_pull_up_produces_query_b_shape() {
        let (cat, env, p1) = example1_p1();
        PlanAnalyzer::new(&cat).with_env(&env).verify(&p1).unwrap();
        let p2 = pull_up(&p1, &cat).unwrap();
        PlanAnalyzer::new(&cat).with_env(&env).verify(&p2).unwrap();

        // P2 must be GroupBy over Join over two scans (query B's shape).
        let Plan::GroupBy {
            input,
            spec,
            project,
            ..
        } = &p2
        else {
            panic!("expected group-by root, got:\n{}", p2.explain());
        };
        assert!(matches!(input.as_ref(), Plan::Join { .. }));
        // Aggregate identity preserved.
        assert_eq!(spec.owner, ViewId::View(0));
        assert_eq!(spec.aggs.len(), 1);
        // Grouping columns: e2.dno (G1), e1.sal (J1 projection),
        // e1.eno (key of R2). The paper's query B groups by
        // "e2.dno, e1.eno, e1.sal" — exactly this set.
        let g: BTreeSet<Col> = spec.group_cols.iter().copied().collect();
        assert!(g.contains(&Col::base(RelId(1), emp::DNO)), "e2.dno");
        assert!(g.contains(&Col::base(RelId(0), emp::ENO)), "e1.eno (key)");
        assert!(g.contains(&Col::base(RelId(0), emp::SAL)), "e1.sal");
        // The aggregate comparison moved into HAVING.
        assert_eq!(spec.having.len(), 1);
        assert!(spec.having[0].uses_agg());
        // Output unchanged.
        assert_eq!(project, &[Col::base(RelId(0), emp::SAL)]);
        // The join below carries only the non-aggregate predicate.
        let Plan::Join { preds, .. } = input.as_ref() else {
            unreachable!()
        };
        assert_eq!(preds.len(), 1);
        assert!(!preds[0].uses_agg());
    }

    #[test]
    fn pull_up_requires_join_over_group_by() {
        let (cat, _, p1) = example1_p1();
        let Plan::Join { right, .. } = &p1 else {
            unreachable!()
        };
        // A bare scan is not eligible.
        assert!(pull_up(right, &cat).is_err());
        // A join of two scans is not eligible either.
        let j = Plan::join_all(
            (**right).clone(),
            {
                let e2 = RelId(1);
                Plan::scan(e2, "emp", vec![], all_cols(e2, 5))
            },
            vec![],
        );
        assert!(pull_up(&j, &cat).is_err());
    }

    #[test]
    fn pull_up_fails_without_derivable_key() {
        // R2 projection drops its primary key → no key derivable.
        let (cat, env, p1) = example1_p1();
        let Plan::Join {
            left, right, preds, ..
        } = &p1
        else {
            unreachable!()
        };
        let keyless = (**right).clone().with_project(vec![
            Col::base(RelId(0), emp::DNO),
            Col::base(RelId(0), emp::SAL),
        ]);
        let j = Plan::Join {
            left: left.clone(),
            right: keyless.into(),
            preds: preds.clone(),
            project: vec![Col::base(RelId(0), emp::SAL)],
        };
        PlanAnalyzer::new(&cat).with_env(&env).verify(&j).unwrap();
        let err = pull_up(&j, &cat).unwrap_err();
        assert!(err.message().contains("key"));
    }

    #[test]
    fn fk_join_omits_key_from_grouping() {
        // Join the view to dept on dept's primary key: group-by deferred
        // past a key join into dept must NOT add dept.dno redundantly
        // beyond the view's grouping column.
        let catalog = Catalog::new();
        catalog
            .add(
                Table::builder(
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
                .unwrap()
                .build()
                .unwrap(),
            )
            .unwrap();
        catalog
            .add(
                Table::builder(
                    "dept",
                    Schema::of(&[
                        ("dno", DataType::Int),
                        ("dname", DataType::Str),
                        ("budget", DataType::Float),
                        ("loc", DataType::Str),
                    ]),
                )
                .primary_key(&["dno"])
                .unwrap()
                .build()
                .unwrap(),
            )
            .unwrap();
        let env = QueryEnv::new(vec!["emp".into(), "dept".into()]);
        let e = RelId(0);
        let d = RelId(1);
        let g1 = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(e, emp::DNO)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(e, emp::SAL)),
            )],
            having: vec![],
        };
        let view = Plan::group_by_all(
            Plan::scan(
                e,
                "emp",
                vec![],
                vec![Col::base(e, emp::DNO), Col::base(e, emp::SAL)],
            ),
            g1,
        );
        let dscan = Plan::scan(d, "dept", vec![], all_cols(d, 4));
        let join = Plan::join(
            view,
            dscan,
            vec![Predicate::eq_cols(
                Col::base(e, emp::DNO),
                Col::base(d, dept::DNO),
            )],
            vec![
                Col::base(e, emp::DNO),
                Col::agg(ViewId::View(0), 0),
                Col::base(d, dept::DNAME),
            ],
        );
        PlanAnalyzer::new(&catalog)
            .with_env(&env)
            .verify(&join)
            .unwrap();
        let p2 = pull_up(&join, &catalog).unwrap();
        PlanAnalyzer::new(&catalog)
            .with_env(&env)
            .verify(&p2)
            .unwrap();
        let Plan::GroupBy { spec, .. } = &p2 else {
            panic!("group-by root expected")
        };
        // dept.dno is a key join target → not required; dname flows in
        // via J1's projection (item 2 of Definition 1).
        let g: BTreeSet<Col> = spec.group_cols.iter().copied().collect();
        assert!(g.contains(&Col::base(e, emp::DNO)));
        assert!(g.contains(&Col::base(d, dept::DNAME)));
        assert!(!g.contains(&Col::base(d, dept::DNO)), "FK key omitted");
    }

    use std::collections::BTreeSet;
}
