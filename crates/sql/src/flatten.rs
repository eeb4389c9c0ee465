//! Flattening of scalar aggregate subqueries (Kim's algorithms).
//!
//! The paper's Section 1: "The result of Kim's transformation on a query
//! with nested subqueries is a query that is a join of base tables and
//! one or more aggregate views. Thus, using Kim's transformation, the
//! result of optimizing queries containing aggregate views can be used
//! for optimizing an important class of queries with correlated nested
//! subqueries."
//!
//! Supported shapes:
//!
//! * **type-A** (uncorrelated): `o.x > (SELECT AGG(i.y) FROM inner ...)`
//!   — becomes an aggregate view with *no* grouping columns joined by
//!   the comparison predicate alone;
//! * **type-JA** (correlated by equality): the correlation predicates
//!   `i.c = o.c` become the view's grouping columns and reappear as join
//!   predicates between the view and the outer block.
//!
//! Semantics note: flattening uses an inner join, so outer tuples whose
//! subquery ranges over an empty set are dropped. Under SQL's NULL
//! semantics a comparison with a NULL aggregate is *unknown*, which also
//! drops the tuple — except for COUNT, where SQL yields 0 instead of
//! NULL (the classic "COUNT bug" [Kim82/GW87]). Since this engine has no
//! NULLs (paper Section 2), COUNT subqueries over potentially-empty
//! ranges are rejected rather than silently mis-evaluated.

use crate::ast::{AstExpr, AstPred};
use crate::binder::{bind_scalar, resolve_col, table_scope, Scope};
use aggview_common::{AggFunc, AggSpec, AggViewError, Col, Expr, Predicate, Result, ViewId};
use aggview_core::query::{QueryEnv, ViewDef};
use aggview_storage::Catalog;

/// Flatten one WHERE predicate containing a scalar aggregate subquery.
///
/// Returns the new view definition and the predicates to add to the
/// outer block (correlation joins plus the rewritten comparison).
pub(crate) fn flatten_subquery(
    pred: &AstPred,
    outer_scopes: &[Scope],
    env: &mut QueryEnv,
    view_index: u32,
    catalog: &Catalog,
) -> Result<(ViewDef, Vec<Predicate>)> {
    // Normalize: subquery on the right.
    let (outer_expr, op, sub) = match (&pred.left, &pred.right) {
        (e, AstExpr::Subquery(s)) if !e.has_subquery() => (e, pred.op, s.as_ref()),
        (AstExpr::Subquery(s), e) if !e.has_subquery() => (e, pred.op.flipped(), s.as_ref()),
        _ => {
            return Err(AggViewError::Bind(
                "exactly one side of a predicate may be a subquery".into(),
            ))
        }
    };

    // The subquery must be a single-aggregate scalar select.
    if sub.items.len() != 1 || !sub.group_by.is_empty() || !sub.having.is_empty() {
        return Err(AggViewError::Bind(
            "scalar subquery must select exactly one aggregate and have no \
             GROUP BY/HAVING"
                .into(),
        ));
    }
    let AstExpr::Agg { func, arg } = &sub.items[0].expr else {
        return Err(AggViewError::Bind(
            "scalar subquery must select an aggregate".into(),
        ));
    };
    if *func == AggFunc::Count {
        return Err(AggViewError::Bind(
            "COUNT subqueries are not supported: with inner-join flattening \
             they exhibit the classic COUNT bug on empty ranges (see module \
             docs)"
                .into(),
        ));
    }

    // Inner scopes: base tables only.
    let (rels, inner_scopes): (Vec<_>, Vec<_>) = sub
        .from
        .iter()
        .map(|item| table_scope(catalog, env, item))
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .unzip();

    // Partition the subquery's WHERE into local predicates and
    // correlation equalities (inner column = outer column).
    let mut local = Vec::new();
    let mut group_cols = Vec::new();
    let mut join_preds = Vec::new();
    for p in &sub.where_preds {
        let l_inner = bind_scalar(&p.left, &inner_scopes);
        let r_inner = bind_scalar(&p.right, &inner_scopes);
        match (l_inner, r_inner) {
            (Ok(l), Ok(r)) => local.push(Predicate::new(l, p.op, r)),
            (inner, outer_side) => {
                // One side failed inner resolution → try it as an outer
                // reference; correlation must be `inner.col = outer.col`.
                if p.op != aggview_common::CmpOp::Eq {
                    return Err(AggViewError::Bind(format!(
                        "unsupported non-equality correlation `{p}`"
                    )));
                }
                let (inner_expr, outer_ast) = match (inner, outer_side) {
                    (Ok(l), _) => (l, &p.right),
                    (_, Ok(r)) => (r, &p.left),
                    (Err(e), Err(_)) => return Err(e),
                };
                let Expr::Col(inner_col) = inner_expr else {
                    return Err(AggViewError::Bind(format!(
                        "correlation side `{p}` must be a bare column"
                    )));
                };
                let AstExpr::Col { qualifier, name } = outer_ast else {
                    return Err(AggViewError::Bind(format!(
                        "correlation side `{p}` must reference an outer column"
                    )));
                };
                let outer_col = resolve_col(qualifier.as_deref(), name, outer_scopes)?;
                if !group_cols.contains(&inner_col) {
                    group_cols.push(inner_col);
                }
                join_preds.push(Predicate::eq_cols(outer_col, inner_col));
            }
        }
    }

    let agg_spec = AggSpec {
        func: *func,
        arg: arg
            .as_ref()
            .map(|a| bind_scalar(a, &inner_scopes))
            .transpose()?,
    };
    let owner = ViewId::View(view_index);
    let vdef = ViewDef {
        index: view_index,
        rels,
        preds: local,
        group_cols,
        aggs: vec![agg_spec],
        having: vec![],
    };

    // The comparison itself: outer expression vs the view's aggregate.
    let outer_bound = bind_scalar(outer_expr, outer_scopes)?;
    join_preds.push(Predicate::new(
        outer_bound,
        op,
        Expr::Col(Col::agg(owner, 0)),
    ));
    Ok((vdef, join_preds))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ast::Stmt;
    use crate::binder::{bind, ViewRegistry};
    use crate::parser::parse;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn setup() -> Catalog {
        gen_empdept(&EmpDeptConfig {
            n_depts: 4,
            emps_per_dept: 5,
            ..Default::default()
        })
        .unwrap()
    }

    fn select(sql: &str) -> crate::ast::SelectStmt {
        match parse(sql).unwrap() {
            Stmt::Select(s) => s,
            _ => panic!(),
        }
    }

    #[test]
    fn type_ja_correlated_flattening() {
        let cat = setup();
        let reg = ViewRegistry::new();
        let s = select(
            "select e1.sal from emp e1 where \
             e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
        );
        let bq = bind(&s, &cat, &reg).unwrap();
        let v = &bq.query.views[0];
        assert_eq!(v.group_cols.len(), 1);
        assert!(v.preds.is_empty());
        // join: e1.dno = e2.dno, comparison: e1.sal > V#a0
        assert_eq!(bq.query.preds.len(), 2);
        assert!(bq.query.preds.iter().any(|p| p.uses_agg()));
    }

    #[test]
    fn type_a_uncorrelated_flattening() {
        let cat = setup();
        let reg = ViewRegistry::new();
        let s = select(
            "select e1.sal from emp e1 where \
             e1.sal > (select avg(e2.sal) from emp e2 where e2.age < 30)",
        );
        let bq = bind(&s, &cat, &reg).unwrap();
        let v = &bq.query.views[0];
        assert!(v.group_cols.is_empty(), "type-A: scalar view");
        assert_eq!(v.preds.len(), 1, "local filter stays in the view");
        assert_eq!(bq.query.preds.len(), 1, "only the comparison joins");
    }

    #[test]
    fn subquery_on_left_side_flips() {
        let cat = setup();
        let reg = ViewRegistry::new();
        let s = select(
            "select e1.sal from emp e1 where \
             (select avg(e2.sal) from emp e2 where e2.dno = e1.dno) < e1.sal",
        );
        let bq = bind(&s, &cat, &reg).unwrap();
        let cmp = bq.query.preds.iter().find(|p| p.uses_agg()).unwrap();
        assert_eq!(cmp.op, aggview_common::CmpOp::Gt, "flipped to outer > agg");
    }

    #[test]
    fn count_bug_is_rejected_not_mis_evaluated() {
        let cat = setup();
        let reg = ViewRegistry::new();
        let s = select(
            "select e1.sal from emp e1 where \
             0 = (select count(e2.eno) from emp e2 where e2.dno = e1.dno)",
        );
        let err = bind(&s, &cat, &reg).unwrap_err();
        assert!(err.message().contains("COUNT bug"));
    }

    #[test]
    fn malformed_subqueries_rejected() {
        let cat = setup();
        let reg = ViewRegistry::new();
        for sql in [
            // non-aggregate subquery
            "select sal from emp e1 where e1.sal > (select sal from emp e2)",
            // grouped subquery
            "select sal from emp e1 where e1.sal > (select avg(sal) from emp e2 group by dno)",
            // non-equality correlation
            "select sal from emp e1 where e1.sal > (select avg(e2.sal) from emp e2 where e2.dno < e1.dno)",
        ] {
            assert!(bind(&select(sql), &cat, &reg).is_err(), "{sql}");
        }
    }
}
