//! The canonical multi-block query form (paper Figure 3).
//!
//! A query is a join among base tables `B1..Bn` and aggregate views
//! `Q1..Qm` — each view `Qi = Gi(Vi)` an SPJ block under a group-by —
//! optionally under a top-level group-by `G0` with a HAVING clause.
//! Every optimizer entry point takes a [`CanonicalQuery`]; the SQL
//! binder lowers parsed SQL (including flattened nested subqueries) into
//! this form.

use aggview_common::{AggSpec, AggViewError, Col, ColRef, Predicate, RelId, Result, ViewId};
use aggview_storage::Catalog;
use std::fmt;

/// Per-query environment: which base table each relation instance
/// denotes. `rel_tables[r.idx()]` is the table scanned by `RelId r`.
#[derive(Debug, Clone, Default)]
pub struct QueryEnv {
    /// Relation instance → base table name.
    pub rel_tables: Vec<String>,
}

impl QueryEnv {
    pub fn new(rel_tables: Vec<String>) -> QueryEnv {
        QueryEnv { rel_tables }
    }

    /// Table name bound to `rel`.
    pub fn table_of(&self, rel: RelId) -> Result<&str> {
        self.rel_tables
            .get(rel.idx())
            .map(String::as_str)
            .ok_or_else(|| AggViewError::Plan(format!("undeclared relation {rel}")))
    }

    /// Number of relation instances.
    pub fn len(&self) -> usize {
        self.rel_tables.len()
    }

    /// True when no relations are declared.
    pub fn is_empty(&self) -> bool {
        self.rel_tables.is_empty()
    }

    /// Register a new relation instance, returning its id.
    pub fn add_rel(&mut self, table: impl Into<String>) -> RelId {
        let id = RelId(self.rel_tables.len() as u32);
        self.rel_tables.push(table.into());
        id
    }
}

/// An aggregate view `Qi = G(gi, Ai)(Vi)`: an SPJ block (`rels`,
/// `preds`) under a group-by.
#[derive(Debug, Clone, PartialEq)]
pub struct ViewDef {
    /// Which view this is (0-based; its group-by is `ViewId::View(index)`).
    pub index: u32,
    /// Relations of the SPJ block `Vi`.
    pub rels: Vec<RelId>,
    /// Conjunctive predicates of `Vi` (selections and joins among `rels`).
    pub preds: Vec<Predicate>,
    /// Grouping columns `gi` (base columns of `rels`).
    pub group_cols: Vec<Col>,
    /// Aggregate list `Ai`.
    pub aggs: Vec<AggSpec>,
    /// View-level HAVING predicates.
    pub having: Vec<Predicate>,
}

impl ViewDef {
    /// The view's group-by identity.
    pub fn id(&self) -> ViewId {
        ViewId::View(self.index)
    }

    /// Columns the view exports to the outer block: its grouping columns
    /// followed by its aggregate outputs.
    pub fn exported_cols(&self) -> Vec<Col> {
        let mut out = self.group_cols.clone();
        out.extend((0..self.aggs.len()).map(|i| Col::agg(self.id(), i)));
        out
    }

    /// Bitset of the view's relations.
    pub fn rel_set(&self) -> u64 {
        self.rels.iter().map(|r| r.bit()).fold(0, |a, b| a | b)
    }
}

/// The top-level group-by `G0`.
#[derive(Debug, Clone, PartialEq)]
pub struct TopGroup {
    /// Grouping columns (base columns or view aggregate outputs).
    pub group_cols: Vec<Col>,
    /// Aggregate list `A0`.
    pub aggs: Vec<AggSpec>,
    /// Query-level HAVING predicates.
    pub having: Vec<Predicate>,
}

/// A query in the canonical form of Figure 3.
#[derive(Debug, Clone)]
pub struct CanonicalQuery {
    /// Relation instance → table bindings.
    pub env: QueryEnv,
    /// Aggregate views `Q1..Qm`.
    pub views: Vec<ViewDef>,
    /// Base relations `B1..Bn` of the outer block.
    pub base_rels: Vec<RelId>,
    /// Outer-block predicates: joins among views and base relations, and
    /// selections on base relations. May reference view grouping columns
    /// and view aggregate outputs.
    pub preds: Vec<Predicate>,
    /// Optional top group-by `G0`.
    pub group: Option<TopGroup>,
    /// Final projection (columns visible to the client).
    pub projection: Vec<Col>,
}

impl CanonicalQuery {
    /// Structural validation: relation sets are disjoint and cover the
    /// environment; every predicate references only columns available at
    /// its level; aggregate references resolve to declared aggregates.
    pub fn validate(&self, catalog: &Catalog) -> Result<()> {
        // Relation partition.
        let mut seen = 0u64;
        for v in &self.views {
            for r in &v.rels {
                self.env.table_of(*r)?;
                if seen & r.bit() != 0 {
                    return Err(AggViewError::Plan(format!(
                        "relation {r} appears in more than one block"
                    )));
                }
                seen |= r.bit();
            }
            if v.rels.is_empty() {
                return Err(AggViewError::Plan(format!(
                    "view Q{} has no relations",
                    v.index + 1
                )));
            }
        }
        for r in &self.base_rels {
            self.env.table_of(*r)?;
            if seen & r.bit() != 0 {
                return Err(AggViewError::Plan(format!(
                    "relation {r} appears in more than one block"
                )));
            }
            seen |= r.bit();
        }
        if self.views.is_empty() && self.base_rels.is_empty() {
            return Err(AggViewError::Plan("query has no relations".into()));
        }

        // View indexes must match positions.
        for (i, v) in self.views.iter().enumerate() {
            if v.index as usize != i {
                return Err(AggViewError::Plan(format!(
                    "view at position {i} declares index {}",
                    v.index
                )));
            }
        }

        // Column availability within views.
        for v in &self.views {
            let base = self.base_cols_of(&v.rels, catalog)?;
            let avail = |c: &Col| base.contains(c);
            for p in &v.preds {
                if p.uses_agg() {
                    return Err(AggViewError::Plan(format!(
                        "view Q{} WHERE predicate `{p}` references an aggregate",
                        v.index + 1
                    )));
                }
                check_cols(
                    |f| p.for_each_col(f),
                    avail,
                    format_args!("view Q{}", v.index + 1),
                )?;
            }
            for g in &v.group_cols {
                if !avail(g) {
                    return Err(AggViewError::Plan(format!(
                        "view Q{} groups on unavailable column {g}",
                        v.index + 1
                    )));
                }
            }
            for a in &v.aggs {
                let args = |f: &mut dyn FnMut(Col)| a.arg.iter().for_each(|e| e.for_each_col(f));
                check_cols(args, avail, format_args!("view Q{}", v.index + 1))?;
            }
            // View HAVING sees group cols + own aggs.
            let havail = grouped_output(&v.group_cols, v.id(), v.aggs.len());
            for h in &v.having {
                let ctx = format_args!("view Q{} HAVING", v.index + 1);
                check_cols(|f| h.for_each_col(f), &havail, ctx)?;
            }
        }

        // Outer block: base columns of base rels + exported view columns.
        let base = self.base_cols_of(&self.base_rels, catalog)?;
        let exported = |c: &Col| {
            let view = |v: &ViewDef| grouped_output(&v.group_cols, v.id(), v.aggs.len())(c);
            self.views.iter().any(view)
        };
        let outer = |c: &Col| base.contains(c) || exported(c);
        for p in &self.preds {
            check_cols(|f| p.for_each_col(f), outer, "outer block")?;
        }
        // Top group-by / projection.
        match &self.group {
            Some(g) => {
                for c in &g.group_cols {
                    if !outer(c) {
                        return Err(AggViewError::Plan(format!(
                            "G0 groups on unavailable column {c}"
                        )));
                    }
                }
                for a in &g.aggs {
                    let args =
                        |f: &mut dyn FnMut(Col)| a.arg.iter().for_each(|e| e.for_each_col(f));
                    check_cols(args, outer, "G0 aggregates")?;
                }
                let havail = grouped_output(&g.group_cols, ViewId::Top, g.aggs.len());
                for h in &g.having {
                    check_cols(|f| h.for_each_col(f), &havail, "G0 HAVING")?;
                }
                // SQL semantics: projection ⊆ grouping cols ∪ aggregates.
                for c in &self.projection {
                    if !havail(c) {
                        return Err(AggViewError::Plan(format!(
                            "projection column {c} is neither grouped nor aggregated"
                        )));
                    }
                }
            }
            None => {
                for c in &self.projection {
                    if !outer(c) {
                        return Err(AggViewError::Plan(format!(
                            "projection references unavailable column {c}"
                        )));
                    }
                }
            }
        }
        if self.projection.is_empty() {
            return Err(AggViewError::Plan("query projects no columns".into()));
        }
        Ok(())
    }

    /// The columns of relations `rels`: each with its table's arity.
    fn base_cols_of(&self, rels: &[RelId], catalog: &Catalog) -> Result<BaseCols> {
        let arity = |r: &RelId| Ok((*r, catalog.get(self.env.table_of(*r)?)?.schema().len()));
        Ok(BaseCols(rels.iter().map(arity).collect::<Result<_>>()?))
    }
}

impl fmt::Display for CanonicalQuery {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "query {{")?;
        for v in &self.views {
            let rels: Vec<String> = v.rels.iter().map(|r| r.to_string()).collect();
            writeln!(f, "  view Q{}: rels [{}]", v.index + 1, rels.join(", "))?;
        }
        let base: Vec<String> = self.base_rels.iter().map(|r| r.to_string()).collect();
        writeln!(f, "  base [{}]", base.join(", "))?;
        for p in &self.preds {
            writeln!(f, "  where {p}")?;
        }
        if let Some(g) = &self.group {
            let gs: Vec<String> = g.group_cols.iter().map(|c| c.to_string()).collect();
            writeln!(f, "  group by [{}]", gs.join(", "))?;
        }
        write!(f, "}}")
    }
}

/// The columns of some base relations, each relation with its arity.
struct BaseCols(Vec<(RelId, usize)>);

impl BaseCols {
    fn contains(&self, c: &Col) -> bool {
        let holds = |b: ColRef| {
            self.0
                .iter()
                .any(|&(r, n)| r == b.rel && (b.col as usize) < n)
        };
        c.as_base().is_some_and(holds)
    }
}

/// Is a column an output of a group-by by `group_cols`, owned by `owner`,
/// with `aggs` aggregates?
fn grouped_output(group_cols: &[Col], owner: ViewId, aggs: usize) -> impl Fn(&Col) -> bool + '_ {
    move |c| {
        matches!(c, Col::Agg(a) if a.owner == owner && (a.idx as usize) < aggs)
            || group_cols.contains(c)
    }
}

/// Fail on the first column, in `Col` order, that `visit` reaches and
/// `avail` lacks.
fn check_cols(
    visit: impl FnOnce(&mut dyn FnMut(Col)),
    avail: impl Fn(&Col) -> bool,
    ctx: impl fmt::Display,
) -> Result<()> {
    let mut missing: Option<Col> = None;
    visit(&mut |c| {
        if !avail(&c) {
            missing = Some(missing.map_or(c, |m| m.min(c)));
        }
    });
    match missing {
        Some(c) => Err(AggViewError::Plan(format!(
            "{ctx} references unavailable column {c}"
        ))),
        None => Ok(()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::examples::{example1_query, example2_query};
    use aggview_common::{AggFunc, CmpOp, Expr, Value};
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn catalog() -> Catalog {
        gen_empdept(&EmpDeptConfig {
            n_depts: 5,
            emps_per_dept: 4,
            ..Default::default()
        })
        .unwrap()
    }

    #[test]
    fn example1_is_valid_canonical_form() {
        let cat = catalog();
        let q = example1_query();
        q.validate(&cat).unwrap();
        assert_eq!(q.views.len(), 1);
        assert_eq!(q.base_rels.len(), 1);
    }

    #[test]
    fn example2_is_valid_canonical_form() {
        let cat = catalog();
        let q = example2_query();
        q.validate(&cat).unwrap();
        assert!(q.group.is_some());
        assert!(q.views.is_empty());
    }

    #[test]
    fn duplicate_relation_across_blocks_rejected() {
        let cat = catalog();
        let mut q = example1_query();
        // Make the base block claim the view's relation too.
        let stolen = q.views[0].rels[0];
        q.base_rels.push(stolen);
        let err = q.validate(&cat).unwrap_err();
        assert!(err.message().contains("more than one block"));
    }

    #[test]
    fn view_where_may_not_reference_aggregates() {
        let cat = catalog();
        let mut q = example1_query();
        q.views[0].preds.push(Predicate::new(
            Expr::col(Col::agg(ViewId::View(0), 0)),
            CmpOp::Gt,
            Expr::val(Value::Int(0)),
        ));
        assert!(q.validate(&cat).is_err());
    }

    #[test]
    fn projection_must_be_grouped_or_aggregated_under_g0() {
        let cat = catalog();
        let mut q = example2_query();
        // Project dept.budget which is neither grouped nor aggregated.
        q.projection.push(Col::base(RelId(1), 2));
        let err = q.validate(&cat).unwrap_err();
        assert!(err.message().contains("neither grouped nor aggregated"));
    }

    #[test]
    fn empty_query_rejected() {
        let cat = catalog();
        let q = CanonicalQuery {
            env: QueryEnv::default(),
            views: vec![],
            base_rels: vec![],
            preds: vec![],
            group: None,
            projection: vec![],
        };
        assert!(q.validate(&cat).is_err());
    }

    #[test]
    fn env_add_rel_assigns_sequential_ids() {
        let mut env = QueryEnv::default();
        assert_eq!(env.add_rel("emp"), RelId(0));
        assert_eq!(env.add_rel("dept"), RelId(1));
        assert_eq!(env.table_of(RelId(1)).unwrap(), "dept");
        assert!(env.table_of(RelId(9)).is_err());
        assert_eq!(env.len(), 2);
    }

    #[test]
    fn display_summarizes_blocks() {
        let s = example1_query().to_string();
        assert!(s.contains("view Q1"));
        assert!(s.contains("base"));
    }

    #[test]
    fn view_exports_group_cols_then_aggs() {
        let q = example1_query();
        let exported = q.views[0].exported_cols();
        assert_eq!(exported[0].as_base().unwrap().rel, q.views[0].rels[0]);
        assert!(exported[1].is_agg());
    }

    #[test]
    fn misnumbered_view_rejected() {
        let cat = catalog();
        let mut q = example1_query();
        q.views[0].index = 3;
        assert!(q.validate(&cat).is_err());
    }

    #[test]
    fn example1_agg_is_avg_sal() {
        let q = example1_query();
        assert_eq!(q.views[0].aggs[0].func, AggFunc::Avg);
    }
}

pub mod examples {
    //! The paper's worked examples as canonical queries, bound against
    //! the [`aggview_storage::datagen::empdept`] schema:
    //! `emp(eno, name, dno, sal, age)`, `dept(dno, dname, budget, loc)`.

    use super::*;
    use aggview_common::{AggFunc, AggSpec, CmpOp, Expr, Value};

    /// Column ordinals of the generated `emp` table.
    pub mod emp {
        pub const ENO: usize = 0;
        pub const NAME: usize = 1;
        pub const DNO: usize = 2;
        pub const SAL: usize = 3;
        pub const AGE: usize = 4;
    }

    /// Column ordinals of the generated `dept` table.
    pub mod dept {
        pub const DNO: usize = 0;
        pub const DNAME: usize = 1;
        pub const BUDGET: usize = 2;
        pub const LOC: usize = 3;
    }

    /// Paper Example 1 — employees below 22 earning more than their
    /// department's average salary:
    ///
    /// ```sql
    /// A1(dno, Asal) AS select e2.dno, avg(e2.sal) from emp e2 group by e2.dno
    /// select e1.sal from emp e1, A1 b
    ///  where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal
    /// ```
    ///
    /// Relations: `r0` = emp e1 (base), `r1` = emp e2 (inside the view).
    pub fn example1_query() -> CanonicalQuery {
        let mut env = QueryEnv::default();
        let e1 = env.add_rel("emp"); // r0: outer emp
        let e2 = env.add_rel("emp"); // r1: view emp
        let view = ViewDef {
            index: 0,
            rels: vec![e2],
            preds: vec![],
            group_cols: vec![Col::base(e2, emp::DNO)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(e2, emp::SAL)),
            )],
            having: vec![],
        };
        let asal = Col::agg(ViewId::View(0), 0);
        CanonicalQuery {
            env,
            views: vec![view],
            base_rels: vec![e1],
            preds: vec![
                Predicate::eq_cols(Col::base(e1, emp::DNO), Col::base(e2, emp::DNO)),
                Predicate::cmp_const(Col::base(e1, emp::AGE), CmpOp::Lt, Value::Int(22)),
                Predicate::new(
                    Expr::col(Col::base(e1, emp::SAL)),
                    CmpOp::Gt,
                    Expr::col(asal),
                ),
            ],
            group: None,
            projection: vec![Col::base(e1, emp::SAL)],
        }
    }

    /// A wide-output variant of Example 2 — average salary per
    /// department, carrying the department's descriptive columns:
    ///
    /// ```sql
    /// select e.dno, d.dname, d.loc, d.budget, avg(e.sal)
    ///   from emp e, dept d where e.dno = d.dno
    ///  group by e.dno, d.dname, d.loc, d.budget
    /// ```
    ///
    /// Because `d.dname/loc/budget` are functionally determined by the
    /// key join on `dno`, invariant grouping can still push the group-by
    /// below the join (grouping only by `e.dno`) — the \[YL94\]
    /// generalization. The wide grouping input makes the traditional
    /// plan's group-by expensive, which is what experiment E2 measures.
    pub fn example2_wide_query() -> CanonicalQuery {
        let mut env = QueryEnv::default();
        let e = env.add_rel("emp");
        let d = env.add_rel("dept");
        let group_cols = vec![
            Col::base(e, emp::DNO),
            Col::base(d, dept::DNAME),
            Col::base(d, dept::LOC),
            Col::base(d, dept::BUDGET),
        ];
        let mut projection = group_cols.clone();
        projection.push(Col::agg(ViewId::Top, 0));
        CanonicalQuery {
            env,
            views: vec![],
            base_rels: vec![e, d],
            preds: vec![Predicate::eq_cols(
                Col::base(e, emp::DNO),
                Col::base(d, dept::DNO),
            )],
            group: Some(TopGroup {
                group_cols,
                aggs: vec![AggSpec::new(
                    AggFunc::Avg,
                    Expr::col(Col::base(e, emp::SAL)),
                )],
                having: vec![],
            }),
            projection,
        }
    }

    /// Paper Example 2 — average salary per department with budget under
    /// one million:
    ///
    /// ```sql
    /// select e.dno, avg(e.sal) from emp e, dept d
    ///  where e.dno = d.dno and d.budget < 1000000 group by e.dno
    /// ```
    ///
    /// Relations: `r0` = emp, `r1` = dept; single-block with `G0`.
    pub fn example2_query() -> CanonicalQuery {
        let mut env = QueryEnv::default();
        let e = env.add_rel("emp");
        let d = env.add_rel("dept");
        CanonicalQuery {
            env,
            views: vec![],
            base_rels: vec![e, d],
            preds: vec![
                Predicate::eq_cols(Col::base(e, emp::DNO), Col::base(d, dept::DNO)),
                Predicate::cmp_const(
                    Col::base(d, dept::BUDGET),
                    CmpOp::Lt,
                    Value::Float(1_000_000.0),
                ),
            ],
            group: Some(TopGroup {
                group_cols: vec![Col::base(e, emp::DNO)],
                aggs: vec![AggSpec::new(
                    AggFunc::Avg,
                    Expr::col(Col::base(e, emp::SAL)),
                )],
                having: vec![],
            }),
            projection: vec![Col::base(e, emp::DNO), Col::agg(ViewId::Top, 0)],
        }
    }
}
