//! Operator trees ("execution plans").
//!
//! The paper views queries algebraically "in terms of operators. An
//! operator tree reflects the partial order on evaluation of operators in
//! a query" (Section 2). Two operators matter: **join** (with a list of
//! join predicates) and **group-by** (with grouping columns, aggregating
//! columns, aggregate functions and HAVING predicates). Projection is
//! not an explicit operator: "each join as well as each group-by operator
//! has an associated list of projection columns" — here the `project`
//! field of every node, which doubles as the node's output layout.
//!
//! The paper's *legal operator tree* notion — every column a node
//! consumes is produced below it, and a predicate over aggregated columns
//! appears only at or above the group-by that computes the aggregate —
//! is checked by the analyzer's dataflow pass
//! ([`crate::analyze::dataflow`]).
//!
//! A node owns its annotations and shares its inputs (`Arc<Plan>`):
//! plans are immutable values, and the optimizer builds thousands of
//! candidates over the same memoized sub-plans.

use aggview_common::{AggRef, AggSpec, Col, ColRef, Predicate, RelId, ViewId};
use std::sync::Arc;

/// A group-by operator's annotations (paper Section 2): grouping
/// columns, aggregate specifications, and HAVING predicates.
///
/// `owner` gives the operator its identity in [`AggRef`] space: the
/// `idx`-th entry of `aggs` produces column `Col::Agg(AggRef { owner,
/// idx })`. Transformations that *move* the operator (pull-up) keep
/// `owner` stable, so references to its outputs survive the move.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupBySpec {
    /// Which logical group-by this is (view `Qi` or the top `G0`).
    pub owner: ViewId,
    /// Grouping columns.
    pub group_cols: Vec<Col>,
    /// Aggregate computations, in `AggRef::idx` order.
    pub aggs: Vec<AggSpec>,
    /// HAVING predicates, evaluated per group (may reference grouping
    /// columns and this operator's aggregate outputs).
    pub having: Vec<Predicate>,
}

impl GroupBySpec {
    /// The aggregate output columns this operator produces.
    pub fn agg_cols(&self) -> Vec<Col> {
        (0..self.aggs.len())
            .map(|i| Col::agg(self.owner, i))
            .collect()
    }

    /// Reference to the `i`-th aggregate output.
    pub fn agg_ref(&self, i: usize) -> AggRef {
        AggRef::new(self.owner, i)
    }
}

/// The one partial-aggregation node: the *local* phase of Figure 2,
/// computed below a join and merged by the nearest full group-by above
/// under the same [`AggRef`] identities. Both early-aggregation
/// transformations build it:
///
/// * **simple coalescing** (paper Section 4.2) decomposes *every*
///   aggregate of the final group-by and carries no count
///   (`count: None`) — nothing is kept for the merge to scale;
/// * **eager aggregation** (the push-down direction, Yan–Larson) pushes
///   only the aggregates whose arguments live inside the subtree and
///   sets `count`: a per-group row count the merge uses as the duplicate
///   factor, because each duplicate-sensitive aggregate kept on the
///   *partner* side must be scaled by how many pushed-side rows its join
///   match stands for.
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAggSpec {
    /// Pushed grouping columns: the final grouping columns this side
    /// produces, extended with every column of this side that later
    /// predicates read (Definition 1: pushed keys ⊇ pull-up keys).
    pub group_cols: Vec<Col>,
    /// The final aggregates whose *local* phase is computed here, with
    /// their identities in the merge group-by above.
    pub aggs: Vec<(AggRef, AggSpec)>,
    /// Identity of the per-group COUNT(*) column emitted as the
    /// duplicate factor; `None` when every kept partner-side aggregate
    /// is duplicate-insensitive (MIN/MAX) and no compensation is
    /// needed.
    pub count: Option<AggRef>,
}

impl PartialAggSpec {
    /// The partial-state component columns produced for aggregate `i`.
    pub fn part_cols(&self, i: usize) -> Vec<Col> {
        let (aref, spec) = &self.aggs[i];
        (0..spec.func.partial_arity())
            .map(|k| Col::part(*aref, k))
            .collect()
    }

    /// The duplicate-factor count column, when one is emitted.
    pub fn count_col(&self) -> Option<Col> {
        self.count.map(|aref| Col::part(aref, 0))
    }

    /// All partial-state columns produced, in aggregate order, with the
    /// count column (if any) last.
    pub fn all_part_cols(&self) -> Vec<Col> {
        let mut cols: Vec<Col> = (0..self.aggs.len())
            .flat_map(|i| self.part_cols(i))
            .collect();
        cols.extend(self.count_col());
        cols
    }
}

/// An execution plan / operator tree.
///
/// Every node carries its projection list, which is also its output
/// layout: executing a node yields tuples whose `i`-th value corresponds
/// to `project[i]`.
///
/// Children are `Arc<Plan>`: a plan is immutable once built, so the
/// enumerator puts a memoized sub-plan under each candidate join by
/// bumping a reference count, and `clone` copies one node. A rewrite
/// builds new nodes above the subtrees it keeps.
#[derive(Debug, Clone, PartialEq)]
pub enum Plan {
    /// Scan a base relation instance, applying pushed-down selection
    /// predicates, producing `project`.
    Scan {
        /// The relation instance this scan produces.
        rel: RelId,
        /// Base table name (resolved through the catalog).
        table: String,
        /// Local selection predicates (reference only `rel`).
        filters: Vec<Predicate>,
        /// Output columns (base columns of `rel`).
        project: Vec<Col>,
    },
    /// Join two subtrees on a conjunction of predicates.
    Join {
        left: Arc<Plan>,
        right: Arc<Plan>,
        /// Join predicates (columns from both sides; never aggregate
        /// outputs that are not yet computed below).
        preds: Vec<Predicate>,
        /// Output columns (subset of the union of child outputs).
        project: Vec<Col>,
    },
    /// Full group-by: produces one tuple per group surviving HAVING.
    GroupBy {
        input: Arc<Plan>,
        spec: GroupBySpec,
        /// Output columns (grouping columns and aggregate outputs).
        project: Vec<Col>,
    },
    /// Partial aggregation below a join (simple coalescing or eager
    /// push-down): produces pushed group keys, partial aggregate
    /// states, and (optionally) the per-group duplicate-factor count.
    /// No HAVING — predicates over aggregates wait for the merge
    /// group-by above the join.
    PartialAggregate {
        input: Arc<Plan>,
        spec: PartialAggSpec,
        /// Output columns (pushed grouping columns, partial-state
        /// columns, and the count column when present).
        project: Vec<Col>,
    },
    /// Scan a materialized aggregate-view extent in place of the view's
    /// body (scans + joins + group-by over `covers`). Leaf node: the
    /// extent table stores one row per group, with physical column
    /// `cols[i]` exposed under the logical identity `outputs[i]` — a
    /// `Col::Base` for a group column, `Col::Agg` for a finalized
    /// aggregate, or `Col::Part` for a stored partial-state component
    /// (consumed by a compensating coalescing group-by above).
    ExtentScan {
        /// Materialized view name (registered in the catalog).
        view: String,
        /// Extent table name (resolved through the catalog).
        table: String,
        /// Base relation instances of the query this extent stands for.
        covers: Vec<RelId>,
        /// Physical column positions read from the extent table.
        cols: Vec<usize>,
        /// Logical identity of each read column, parallel to `cols`.
        outputs: Vec<Col>,
        /// Compensating predicates over `outputs` (residual selections
        /// and, for exact-grouping matches, HAVING compensation).
        filters: Vec<Predicate>,
        /// Output columns (subset of `outputs`).
        project: Vec<Col>,
    },
}

impl Plan {
    /// Scan with explicit projection.
    pub fn scan(
        rel: RelId,
        table: impl Into<String>,
        filters: Vec<Predicate>,
        project: Vec<Col>,
    ) -> Plan {
        Plan::Scan {
            rel,
            table: table.into(),
            filters,
            project,
        }
    }

    /// Join with explicit projection.
    pub fn join(
        left: impl Into<Arc<Plan>>,
        right: impl Into<Arc<Plan>>,
        preds: Vec<Predicate>,
        project: Vec<Col>,
    ) -> Plan {
        Plan::Join {
            left: left.into(),
            right: right.into(),
            preds,
            project,
        }
    }

    /// Join projecting everything both children produce.
    pub fn join_all(left: Plan, right: Plan, preds: Vec<Predicate>) -> Plan {
        let mut project = left.output_cols().to_vec();
        project.extend_from_slice(right.output_cols());
        Plan::join(left, right, preds, project)
    }

    /// Group-by projecting all grouping columns and aggregate outputs.
    pub fn group_by_all(input: impl Into<Arc<Plan>>, spec: GroupBySpec) -> Plan {
        let mut project = spec.group_cols.clone();
        project.extend(spec.agg_cols());
        Plan::GroupBy {
            input: input.into(),
            spec,
            project,
        }
    }

    /// Group-by with explicit projection.
    pub fn group_by(input: impl Into<Arc<Plan>>, spec: GroupBySpec, project: Vec<Col>) -> Plan {
        Plan::GroupBy {
            input: input.into(),
            spec,
            project,
        }
    }

    /// Partial aggregate projecting all pushed keys, partial
    /// columns, and the count column (if any).
    pub fn partial_aggregate_all(input: impl Into<Arc<Plan>>, spec: PartialAggSpec) -> Plan {
        let mut project = spec.group_cols.clone();
        project.extend(spec.all_part_cols());
        Plan::PartialAggregate {
            input: input.into(),
            spec,
            project,
        }
    }

    /// Scan of a materialized-view extent with explicit column mapping.
    #[allow(clippy::too_many_arguments)]
    pub fn extent_scan(
        view: impl Into<String>,
        table: impl Into<String>,
        covers: Vec<RelId>,
        cols: Vec<usize>,
        outputs: Vec<Col>,
        filters: Vec<Predicate>,
        project: Vec<Col>,
    ) -> Plan {
        Plan::ExtentScan {
            view: view.into(),
            table: table.into(),
            covers,
            cols,
            outputs,
            filters,
            project,
        }
    }

    /// This node's output layout.
    pub fn output_cols(&self) -> &[Col] {
        match self {
            Plan::Scan { project, .. }
            | Plan::Join { project, .. }
            | Plan::GroupBy { project, .. }
            | Plan::PartialAggregate { project, .. }
            | Plan::ExtentScan { project, .. } => project,
        }
    }

    /// Replace this node's projection list (the analyzer catches
    /// projections of unavailable columns).
    pub fn with_project(mut self, new_project: Vec<Col>) -> Plan {
        match &mut self {
            Plan::Scan { project, .. }
            | Plan::Join { project, .. }
            | Plan::GroupBy { project, .. }
            | Plan::PartialAggregate { project, .. }
            | Plan::ExtentScan { project, .. } => *project = new_project,
        }
        self
    }

    /// Bitset of base relation instances covered by this subtree.
    pub fn rel_set(&self) -> u64 {
        match self {
            Plan::Scan { rel, .. } => rel.bit(),
            Plan::Join { left, right, .. } => left.rel_set() | right.rel_set(),
            Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => input.rel_set(),
            Plan::ExtentScan { covers, .. } => covers.iter().fold(0, |s, r| s | r.bit()),
        }
    }

    /// All base relation instances covered, ascending.
    pub fn rels(&self) -> Vec<RelId> {
        let set = self.rel_set();
        (0..64).filter(|i| set & (1 << i) != 0).map(RelId).collect()
    }

    /// Number of group-by operators (full or partial) in the tree.
    pub fn group_by_count(&self) -> usize {
        match self {
            Plan::Scan { .. } | Plan::ExtentScan { .. } => 0,
            Plan::Join { left, right, .. } => left.group_by_count() + right.group_by_count(),
            Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => {
                1 + input.group_by_count()
            }
        }
    }

    /// Number of join operators in the tree.
    pub fn join_count(&self) -> usize {
        match self {
            Plan::Scan { .. } | Plan::ExtentScan { .. } => 0,
            Plan::Join { left, right, .. } => 1 + left.join_count() + right.join_count(),
            Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => {
                input.join_count()
            }
        }
    }

    /// Multi-line indented rendering for debugging and EXPLAIN-style
    /// output. Joins and aggregations carry the tag `[auto]`: the engine
    /// picks nothing per node (a join always builds a hash index, an
    /// aggregation a hash group table), and the tag keeps renderings
    /// that tests and fixtures pin unchanged.
    pub fn explain(&self) -> String {
        let mut s = String::new();
        self.explain_into(&mut s, 0);
        s
    }

    fn explain_into(&self, out: &mut String, depth: usize) {
        use std::fmt::Write;
        let pad = "  ".repeat(depth);
        match self {
            Plan::Scan {
                rel,
                table,
                filters,
                ..
            } => {
                let _ = write!(out, "{pad}Scan {table} as {rel}");
                if !filters.is_empty() {
                    let fs: Vec<String> = filters.iter().map(|p| p.to_string()).collect();
                    let _ = write!(out, " filter [{}]", fs.join(" AND "));
                }
                let _ = writeln!(out);
            }
            Plan::Join {
                left, right, preds, ..
            } => {
                let ps: Vec<String> = preds.iter().map(|p| p.to_string()).collect();
                let _ = writeln!(out, "{pad}Join[auto] on [{}]", ps.join(" AND "));
                left.explain_into(out, depth + 1);
                right.explain_into(out, depth + 1);
            }
            Plan::GroupBy { input, spec, .. } => {
                let gs: Vec<String> = spec.group_cols.iter().map(|c| c.to_string()).collect();
                let aggs: Vec<String> = spec.aggs.iter().map(|a| a.to_string()).collect();
                let _ = write!(
                    out,
                    "{pad}GroupBy[auto] {} by [{}] agg [{}]",
                    spec.owner,
                    gs.join(", "),
                    aggs.join(", ")
                );
                if !spec.having.is_empty() {
                    let hs: Vec<String> = spec.having.iter().map(|p| p.to_string()).collect();
                    let _ = write!(out, " having [{}]", hs.join(" AND "));
                }
                let _ = writeln!(out);
                input.explain_into(out, depth + 1);
            }
            Plan::PartialAggregate { input, spec, .. } => {
                let gs: Vec<String> = spec.group_cols.iter().map(|c| c.to_string()).collect();
                let aggs: Vec<String> = spec
                    .aggs
                    .iter()
                    .enumerate()
                    .map(|(i, (r, a))| {
                        let parts: Vec<String> =
                            spec.part_cols(i).iter().map(|c| c.to_string()).collect();
                        format!("{a} as {r} -> [{}]", parts.join(", "))
                    })
                    .collect();
                let _ = write!(
                    out,
                    "{pad}PartialAggregate[auto] keys [{}] agg [{}]",
                    gs.join(", "),
                    aggs.join(", ")
                );
                if let Some(c) = spec.count_col() {
                    let _ = write!(out, " dup-count {c}");
                }
                let _ = writeln!(out);
                input.explain_into(out, depth + 1);
            }
            Plan::ExtentScan {
                view,
                table,
                covers,
                filters,
                ..
            } => {
                let rs: Vec<String> = covers.iter().map(|r| r.to_string()).collect();
                let _ = write!(
                    out,
                    "{pad}ExtentScan {table} (matview {view}) covers [{}]",
                    rs.join(", ")
                );
                if !filters.is_empty() {
                    let fs: Vec<String> = filters.iter().map(|p| p.to_string()).collect();
                    let _ = write!(out, " filter [{}]", fs.join(" AND "));
                }
                let _ = writeln!(out);
            }
        }
    }
}

/// Columns of a base table as `Col`s, for plan construction.
pub fn all_cols(rel: RelId, arity: usize) -> Vec<Col> {
    (0..arity).map(|c| Col::base(rel, c)).collect()
}

/// The base column positions (within their table schemas) of a set of
/// grouping columns restricted to relation `rel`.
pub fn positions_of(cols: &[Col], rel: RelId) -> Vec<usize> {
    cols.iter()
        .filter_map(|c| c.as_base())
        .filter(|c: &ColRef| c.rel == rel)
        .map(|c| c.col as usize)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::analyze::PlanAnalyzer;
    use crate::query::QueryEnv;
    use aggview_common::{AggFunc, CmpOp, DataType, Expr, Result, Schema, Value};
    use aggview_storage::{Catalog, Table};

    /// emp(eno, name, dno, sal, age) as r0, dept(dno, dname, budget,
    /// loc) as r1.
    fn setup() -> (Catalog, QueryEnv) {
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
        let mut env = QueryEnv::default();
        env.add_rel("emp");
        env.add_rel("dept");
        (catalog, env)
    }

    /// The analyzer's verdict on `plan` under the emp/dept binding.
    fn verify(plan: &Plan) -> Result<()> {
        let (cat, env) = setup();
        PlanAnalyzer::new(&cat).with_env(&env).verify(plan)
    }

    fn emp_scan() -> Plan {
        Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5))
    }

    fn dept_scan() -> Plan {
        Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4))
    }

    #[test]
    fn legal_spj_tree_validates() {
        let join = Plan::join_all(
            emp_scan(),
            dept_scan(),
            vec![Predicate::eq_cols(
                Col::base(RelId(0), 2),
                Col::base(RelId(1), 0),
            )],
        );
        verify(&join).unwrap();
        assert_eq!(join.rels(), vec![RelId(0), RelId(1)]);
        assert_eq!(join.join_count(), 1);
        assert_eq!(join.group_by_count(), 0);
    }

    #[test]
    fn scan_filter_must_be_local() {
        let bad = Plan::scan(
            RelId(0),
            "emp",
            vec![Predicate::eq_cols(
                Col::base(RelId(0), 2),
                Col::base(RelId(1), 0),
            )],
            all_cols(RelId(0), 5),
        );
        assert!(verify(&bad).is_err());
    }

    #[test]
    fn join_children_must_be_disjoint() {
        let bad = Plan::join_all(emp_scan(), emp_scan(), vec![]);
        let err = verify(&bad).unwrap_err();
        assert!(err.message().contains("overlap"));
    }

    #[test]
    fn group_by_validates_and_exports_aggs() {
        let spec = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(RelId(0), 3)),
            )],
            having: vec![],
        };
        let g = Plan::group_by_all(emp_scan(), spec);
        verify(&g).unwrap();
        assert_eq!(
            g.output_cols(),
            &[Col::base(RelId(0), 2), Col::agg(ViewId::View(0), 0)]
        );
        assert_eq!(g.group_by_count(), 1);
    }

    #[test]
    fn having_may_only_see_group_keys_and_own_aggs() {
        let spec = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(RelId(0), 3)),
            )],
            // references emp.age, which is not a group key
            having: vec![Predicate::cmp_const(
                Col::base(RelId(0), 4),
                CmpOp::Lt,
                Value::Int(22),
            )],
        };
        let g = Plan::group_by_all(emp_scan(), spec);
        let err = verify(&g).unwrap_err();
        assert!(err.message().contains("HAVING"));
    }

    #[test]
    fn join_predicate_over_uncomputed_aggregate_is_illegal() {
        // Join emp with dept comparing sal > Q1#a0, but no group-by below.
        let bad = Plan::join_all(
            emp_scan(),
            dept_scan(),
            vec![Predicate::new(
                Expr::col(Col::base(RelId(0), 3)),
                CmpOp::Gt,
                Expr::col(Col::agg(ViewId::View(0), 0)),
            )],
        );
        let err = verify(&bad).unwrap_err();
        assert!(err.message().contains("not available"));
    }

    #[test]
    fn partial_aggregate_produces_component_columns() {
        let aref = AggRef::new(ViewId::View(0), 0);
        let spec = PartialAggSpec {
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![(
                aref,
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(RelId(0), 3))),
            )],
            count: None,
        };
        let p = Plan::partial_aggregate_all(emp_scan(), spec);
        verify(&p).unwrap();
        assert_eq!(
            p.output_cols(),
            &[
                Col::base(RelId(0), 2),
                Col::part(aref, 0),
                Col::part(aref, 1)
            ]
        );
    }

    #[test]
    fn coalescing_pipeline_validates() {
        // PartialAggregate (no count) → Join → GroupBy coalescing.
        let aref = AggRef::new(ViewId::Top, 0);
        let agg = AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(0), 3)));
        let partial = Plan::partial_aggregate_all(
            emp_scan(),
            PartialAggSpec {
                group_cols: vec![Col::base(RelId(0), 2)],
                aggs: vec![(aref, agg.clone())],
                count: None,
            },
        );
        let join = Plan::join_all(
            partial,
            dept_scan(),
            vec![Predicate::eq_cols(
                Col::base(RelId(0), 2),
                Col::base(RelId(1), 0),
            )],
        );
        let final_spec = GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![agg],
            having: vec![],
        };
        let plan = Plan::group_by_all(join, final_spec);
        verify(&plan).unwrap();
        assert_eq!(plan.group_by_count(), 2);
    }

    #[test]
    fn eager_pipeline_validates_and_explains() {
        // PartialAggregate → Join → GroupBy merge with duplicate-factor
        // compensation for the kept COUNT(*).
        let sum_ref = AggRef::new(ViewId::Top, 0);
        let cnt_ref = AggRef::new(ViewId::Top, 2);
        let sum = AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(0), 3)));
        let eager = Plan::partial_aggregate_all(
            emp_scan(),
            PartialAggSpec {
                group_cols: vec![Col::base(RelId(0), 2)],
                aggs: vec![(sum_ref, sum.clone())],
                count: Some(cnt_ref),
            },
        );
        assert_eq!(
            eager.output_cols(),
            &[
                Col::base(RelId(0), 2),
                Col::part(sum_ref, 0),
                Col::part(cnt_ref, 0)
            ]
        );
        let join = Plan::join_all(
            eager,
            dept_scan(),
            vec![Predicate::eq_cols(
                Col::base(RelId(0), 2),
                Col::base(RelId(1), 0),
            )],
        );
        let plan = Plan::group_by_all(
            join,
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![Col::base(RelId(0), 2)],
                aggs: vec![sum, AggSpec::count_star()],
                having: vec![],
            },
        );
        verify(&plan).unwrap();
        assert_eq!(plan.group_by_count(), 2);
        let text = plan.explain();
        assert!(text.contains("PartialAggregate"), "{text}");
        assert!(text.contains("keys ["), "{text}");
        assert!(text.contains("dup-count"), "{text}");
    }

    #[test]
    fn partial_aggregate_requires_available_columns() {
        let aref = AggRef::new(ViewId::Top, 0);
        let foreign = Plan::partial_aggregate_all(
            emp_scan(),
            PartialAggSpec {
                group_cols: vec![Col::base(RelId(0), 2)],
                aggs: vec![(
                    aref,
                    AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(1), 2))),
                )],
                count: None,
            },
        );
        assert!(verify(&foreign).is_err());
    }

    #[test]
    fn scan_table_must_match_binding() {
        let bad = Plan::scan(RelId(0), "dept", vec![], vec![Col::base(RelId(0), 0)]);
        assert!(verify(&bad).is_err());
    }

    #[test]
    fn extent_scan_must_cover_relations() {
        let bare = Plan::extent_scan(
            "v",
            "dept",
            vec![],
            vec![0],
            vec![Col::base(RelId(1), 0)],
            vec![],
            vec![Col::base(RelId(1), 0)],
        );
        let err = verify(&bare).unwrap_err();
        assert!(err.message().contains("covers no relations"), "{err}");
    }

    #[test]
    fn explain_renders_tree() {
        let join = Plan::join_all(
            emp_scan(),
            dept_scan(),
            vec![Predicate::eq_cols(
                Col::base(RelId(0), 2),
                Col::base(RelId(1), 0),
            )],
        );
        let text = join.explain();
        assert!(text.contains("Join"));
        assert!(text.contains("Scan emp"));
        assert!(text.contains("Scan dept"));
    }

    #[test]
    fn positions_of_filters_by_relation() {
        let cols = vec![
            Col::base(RelId(0), 2),
            Col::base(RelId(1), 0),
            Col::agg(ViewId::Top, 0),
        ];
        assert_eq!(positions_of(&cols, RelId(0)), vec![2]);
        assert_eq!(positions_of(&cols, RelId(1)), vec![0]);
    }

    #[test]
    fn with_project_replaces_layout() {
        let s = emp_scan().with_project(vec![Col::base(RelId(0), 3)]);
        assert_eq!(s.output_cols(), &[Col::base(RelId(0), 3)]);
    }
}
