//! Cardinality estimation and plan costing, one node at a time.
//!
//! [`CardEstimator::cost_node`] derives a node's [`PlanProps`] from its
//! children's; it holds every formula below exactly once.
//! [`CardEstimator::cost_plan`] is the recursion over it, and block
//! enumeration calls `cost_node` directly with the properties it stored
//! for the sub-plans a candidate is built from. Base-table statistics
//! are read in place through tables resolved once per estimator.
//!
//! Estimation follows the System-R tradition the paper builds on:
//! uniformity within columns, independence across predicates, equijoin
//! selectivity `1/max(d₁, d₂)` from distinct counts, and group-by output
//! cardinality via the Yao/Cardenas approximation `D·(1−(1−1/D)ⁿ)`.
//! Range selectivities come from equi-depth histograms where available.
//!
//! Distinct counts are propagated *contextually* down the plan: each
//! costed subtree reports a per-column distinct estimate, so a group-by
//! above a selective join sees reduced domains — this is what lets the
//! cost model price the paper's trade-off between early and late
//! aggregation ("if the join is selective, deferring the group-by can
//! take advantage of the selectivity of the join predicate", Section 3).

use crate::cost::ops::{self, IoParams, JoinSides};
use crate::plan::{AggAlgo, JoinAlgo, Plan};
use crate::query::QueryEnv;
use aggview_common::{AggViewError, Col, ColRef, Expr, Predicate, Result};
use aggview_storage::{Catalog, PageModel, Table, TableStats};
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tunable cost-model parameters.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct CostModel {
    /// Byte → page conversion.
    pub page: PageModel,
    /// Operator memory budget.
    pub io: IoParams,
}

/// Estimated properties of a (sub)plan.
#[derive(Debug, Clone, PartialEq)]
pub struct PlanProps {
    /// Cumulative IO cost in pages.
    pub cost: f64,
    /// Estimated output rows.
    pub card: f64,
    /// Estimated output row width in bytes.
    pub width: f64,
    /// Estimated peak intermediate bytes held at any moment while
    /// executing this subtree: the largest of any child's peak, this
    /// node's own output (card × width), and — for hash joins — the
    /// build side retained alongside the output. Priced separately from
    /// `cost` so IO-cost comparisons stay unchanged; the optimizer's
    /// never-worse rule consults both.
    pub peak_bytes: f64,
    /// Per-output-column distinct-value estimates.
    pub distinct: BTreeMap<Col, f64>,
}

impl PlanProps {
    /// Estimated output size in pages.
    pub fn pages(&self, page: &PageModel) -> f64 {
        page.pages_for(self.card, self.width)
    }

    /// Estimated output size in bytes.
    pub fn out_bytes(&self) -> f64 {
        self.card * self.width
    }
}

/// Statistics-driven estimator bound to a catalog and query environment.
///
/// Construction resolves every relation instance of the environment to
/// its table once; column widths and constant selectivities then read
/// the table's statistics in place, with no name lookup, lock or copy
/// per column.
#[derive(Debug, Clone)]
pub struct CardEstimator<'a> {
    pub model: CostModel,
    pub catalog: &'a Catalog,
    pub env: &'a QueryEnv,
    /// `tables[r]` is the table bound to `RelId(r)`; `None` when the
    /// catalog does not know it (its columns then price at the defaults).
    tables: Vec<Option<Arc<Table>>>,
}

impl<'a> CardEstimator<'a> {
    pub fn new(model: CostModel, catalog: &'a Catalog, env: &'a QueryEnv) -> Self {
        CardEstimator {
            model,
            catalog,
            env,
            tables: env
                .rel_tables
                .iter()
                .map(|t| Self::table(catalog, t).ok())
                .collect(),
        }
    }

    /// The one place the estimator takes a table (and so its statistics)
    /// from the catalog.
    fn table(catalog: &Catalog, name: &str) -> Result<Arc<Table>> {
        let t = catalog.get(name)?;
        debug_assert!(
            catalog.stats_fresh(name),
            "cost model read stale statistics for `{name}` (data changed without re-analyze)"
        );
        Ok(t)
    }

    /// Average stored width of a column in bytes.
    pub fn col_width(&self, col: Col) -> f64 {
        match col.as_base() {
            Some(b) => self.base_col_width(b),
            None => 8.0, // aggregates and partial-state components are numeric
        }
    }

    fn base_col_width(&self, c: ColRef) -> f64 {
        self.table_stats(c)
            .map(|(s, col)| {
                if s.rows == 0 {
                    8.0
                } else {
                    s.columns[col].avg_width
                }
            })
            .unwrap_or(8.0)
    }

    fn table_stats(&self, c: ColRef) -> Option<(&TableStats, usize)> {
        let t = self.tables.get(c.rel.idx())?.as_ref()?;
        Some((t.stats(), c.col as usize))
    }

    /// Selectivity of a predicate, given per-side distinct maps (used for
    /// join selectivity) and base statistics (for column-vs-constant).
    fn pred_selectivity(&self, p: &Predicate, distinct: &BTreeMap<Col, f64>) -> f64 {
        // Column = column: 1 / max(d1, d2).
        if let Some((a, b)) = p.as_col_eq_col() {
            let da = distinct.get(&a).copied().unwrap_or(f64::NAN);
            let db = distinct.get(&b).copied().unwrap_or(f64::NAN);
            let d = da.max(db);
            if d.is_finite() && d >= 1.0 {
                return 1.0 / d;
            }
            return p.op.default_selectivity();
        }
        // Column op constant on a base column: histogram/minmax estimate.
        if let Some(sel) = self.base_vs_const_selectivity(p) {
            return sel;
        }
        p.op.default_selectivity()
    }

    fn base_vs_const_selectivity(&self, p: &Predicate) -> Option<f64> {
        let (col, op, constant) = match (&p.left, &p.right) {
            (Expr::Col(c), Expr::Const(v)) => (*c, p.op, v.clone()),
            (Expr::Const(v), Expr::Col(c)) => (*c, p.op.flipped(), v.clone()),
            _ => return None,
        };
        let b = col.as_base()?;
        let (stats, idx) = self.table_stats(b)?;
        if stats.rows == 0 {
            return Some(0.0);
        }
        Some(stats.columns[idx].selectivity(op, &constant))
    }

    /// Expected number of distinct combinations when drawing `n` rows
    /// whose key domain has `domain` combinations (Yao/Cardenas).
    pub fn yao_distinct(domain: f64, n: f64) -> f64 {
        if domain <= 1.0 {
            return domain.max(if n > 0.0 { 1.0 } else { 0.0 });
        }
        if n <= 0.0 {
            return 0.0;
        }
        // 1 - (1 - 1/D)^n, computed stably.
        let ln = (1.0 - 1.0 / domain).ln();
        let frac = 1.0 - (n * ln).exp();
        (domain * frac).min(n).min(domain).max(1.0)
    }

    /// Cost a plan bottom-up: the recursion over [`Self::cost_node`].
    pub fn cost_plan(&self, plan: &Plan) -> Result<PlanProps> {
        match plan {
            Plan::Join { left, right, .. } => {
                let l = self.cost_plan(left)?;
                let r = self.cost_plan(right)?;
                self.cost_node(plan, &[&l, &r])
            }
            Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => {
                let i = self.cost_plan(input)?;
                self.cost_node(plan, &[&i])
            }
            Plan::Scan { .. } | Plan::ExtentScan { .. } | Plan::EmptyScan { .. } => {
                self.cost_node(plan, &[])
            }
        }
    }

    /// Price the top node of `plan` from the properties of its children
    /// (`children` parallel to the node's inputs: left then right for a
    /// join, none for a leaf). Every formula of the model lives here,
    /// once; an enumerator that keeps each sub-plan's properties prices
    /// a candidate with one call. `Auto` algorithm annotations are
    /// priced at the cheapest applicable algorithm (what the executor
    /// will pick).
    pub fn cost_node(&self, plan: &Plan, children: &[&PlanProps]) -> Result<PlanProps> {
        match (plan, children) {
            (Plan::EmptyScan { project, types, .. }, []) => {
                // Produces nothing and reads nothing. Distincts floor at
                // 1.0 like every other estimate so selectivity math above
                // an empty input stays finite.
                let width: f64 = types.iter().map(|t| t.default_width() as f64).sum();
                Ok(PlanProps {
                    cost: 0.0,
                    card: 0.0,
                    width,
                    peak_bytes: 0.0,
                    distinct: project.iter().map(|c| (*c, 1.0)).collect(),
                })
            }
            (
                Plan::Scan {
                    rel,
                    table,
                    filters,
                    project,
                },
                [],
            ) => {
                let t = Self::table(self.catalog, table)?;
                let stats = t.stats();
                let distinct = (0..t.schema().len())
                    .map(|c| (Col::base(*rel, c), column_distinct(stats, c)))
                    .collect();
                let width: f64 = project.iter().map(|c| self.col_width(*c)).sum();
                Ok(self.scanned(stats, distinct, filters, project, width))
            }
            (
                Plan::Join {
                    algo,
                    preds,
                    project,
                    ..
                },
                [l, r],
            ) => {
                let mut distinct = l.distinct.clone();
                distinct.extend(r.distinct.iter().map(|(k, v)| (*k, *v)));
                let mut card = l.card * r.card;
                for p in preds {
                    card *= self.pred_selectivity(p, &distinct);
                }
                card = card.max(0.0);
                for d in distinct.values_mut() {
                    *d = d.min(card.max(1.0));
                }
                distinct.retain(|c, _| project.contains(c));
                let width: f64 = project.iter().map(|c| self.col_width(*c)).sum();
                let sides = JoinSides {
                    left_rows: l.card,
                    left_pages: l.pages(&self.model.page),
                    right_rows: r.card,
                    right_pages: r.pages(&self.model.page),
                };
                let mem = self.model.io.mem_pages;
                let extra = match algo {
                    JoinAlgo::Auto => ops::best_join(&sides, preds, mem).1,
                    a => {
                        if !ops::join_algo_applicable(*a, preds) {
                            return Err(AggViewError::Plan(format!(
                                "join algorithm {a} requires an equality predicate"
                            )));
                        }
                        ops::join_io(*a, &sides, preds, mem)
                    }
                };
                // The probe streams, but the build side (the smaller
                // input) is held while the output accumulates.
                let build_bytes = l.out_bytes().min(r.out_bytes());
                let peak_bytes = l
                    .peak_bytes
                    .max(r.peak_bytes)
                    .max(card * width + build_bytes);
                Ok(PlanProps {
                    cost: l.cost + r.cost + extra,
                    card,
                    width,
                    peak_bytes,
                    distinct,
                })
            }
            (
                Plan::GroupBy {
                    algo,
                    spec,
                    project,
                    ..
                },
                [i],
            ) => Ok(self.grouped(
                *algo,
                i,
                &spec.group_cols,
                spec.agg_cols(),
                &spec.having,
                project,
            )),
            (
                Plan::PartialAggregate {
                    algo,
                    spec,
                    project,
                    ..
                },
                [i],
            ) => Ok(self.grouped(
                *algo,
                i,
                &spec.group_cols,
                spec.all_part_cols(),
                &[],
                project,
            )),
            (
                Plan::ExtentScan {
                    table,
                    cols,
                    outputs,
                    filters,
                    project,
                    ..
                },
                [],
            ) => {
                // Priced exactly like a base-table scan of the extent: the
                // materialized row count, widths and distinct counts come
                // from the extent table's own statistics, exposed under
                // the logical identities the scan maps them to.
                let t = Self::table(self.catalog, table)?;
                let stats = t.stats();
                let distinct = cols
                    .iter()
                    .zip(outputs)
                    .map(|(&c, &o)| (o, column_distinct(stats, c)))
                    .collect();
                let width: f64 = project
                    .iter()
                    .map(|p| {
                        outputs
                            .iter()
                            .position(|o| o == p)
                            .and_then(|i| stats.columns.get(cols[i]))
                            .map(|s| s.avg_width)
                            .unwrap_or(8.0)
                    })
                    .sum();
                Ok(self.scanned(stats, distinct, filters, project, width))
            }
            _ => Err(AggViewError::Plan(format!(
                "cost_node was given {} child properties for a node that takes another number",
                children.len()
            ))),
        }
    }

    /// A scan of a table with statistics `stats`, whose columns enter
    /// with the `distinct` counts given: filters thin the rows, the
    /// surviving cardinality caps every distinct count, the whole table
    /// is read.
    fn scanned(
        &self,
        stats: &TableStats,
        mut distinct: BTreeMap<Col, f64>,
        filters: &[Predicate],
        project: &[Col],
        width: f64,
    ) -> PlanProps {
        let table_pages = self
            .model
            .page
            .pages_for(stats.rows as f64, stats.row_width.max(1.0));
        let mut card = stats.rows as f64;
        for f in filters {
            card *= self.pred_selectivity(f, &distinct);
        }
        card = card.max(0.0);
        for d in distinct.values_mut() {
            *d = d.min(card.max(1.0));
        }
        distinct.retain(|c, _| project.contains(c));
        PlanProps {
            cost: ops::scan_io(table_pages),
            card,
            width,
            peak_bytes: card * width,
            distinct,
        }
    }

    /// A (full or partial) aggregation of `i` by `group_cols`: the
    /// group count is Yao's estimate over the grouping domain, every
    /// `produced` column (aggregate outputs or partial states) takes one
    /// value per group, HAVING predicates thin the groups.
    fn grouped(
        &self,
        algo: AggAlgo,
        i: &PlanProps,
        group_cols: &[Col],
        produced: Vec<Col>,
        having: &[Predicate],
        project: &[Col],
    ) -> PlanProps {
        let known = |c: &Col| i.distinct.get(c).copied().unwrap_or(DEFAULT_AGG_DISTINCT);
        let domain: f64 = group_cols
            .iter()
            .map(known)
            .fold(1.0, |a, b| (a * b).min(1e18));
        let groups = Self::yao_distinct(domain, i.card);
        let mut distinct: BTreeMap<Col, f64> = group_cols
            .iter()
            .map(|c| (*c, known(c).min(groups.max(1.0))))
            .collect();
        distinct.extend(produced.into_iter().map(|c| (c, groups.max(1.0))));
        let mut card = groups;
        for h in having {
            card *= self.pred_selectivity(h, &distinct);
        }
        card = card.max(0.0);
        distinct.retain(|c, _| project.contains(c));
        let width: f64 = project.iter().map(|c| self.col_width(*c)).sum();
        let in_pages = i.pages(&self.model.page);
        let out_pages = self.model.page.pages_for(groups, width.max(1.0));
        let extra = ops::agg_io(algo, in_pages, out_pages, &self.model.io).1;
        PlanProps {
            cost: i.cost + extra,
            card,
            width,
            peak_bytes: i.peak_bytes.max(groups * width),
            distinct,
        }
    }

    /// [`Plan::explain`] with each operator line annotated with the
    /// estimated peak intermediate bytes of its subtree (backs the
    /// REPL's `.explain` and `.lint`). Operators whose subtree cannot be
    /// costed (e.g. stale statistics) are left unannotated.
    pub fn explain_with_peaks(&self, plan: &Plan) -> String {
        let mut peaks = Vec::new();
        self.collect_peaks(plan, &mut peaks);
        let mut out = String::new();
        for (line, peak) in plan.explain().lines().zip(peaks) {
            out.push_str(line);
            if let Some(p) = peak {
                out.push_str(&format!("  ~peak {}", fmt_bytes(p)));
            }
            out.push('\n');
        }
        out
    }

    /// Pre-order per-node peak estimates, in the same order
    /// `explain_into` emits lines (one per node; join children
    /// left-then-right). Returns the node's properties so its parent is
    /// priced from them: one `cost_node` per node.
    fn collect_peaks(&self, plan: &Plan, out: &mut Vec<Option<f64>>) -> Option<PlanProps> {
        let at = out.len();
        out.push(None);
        let props = match plan {
            Plan::Join { left, right, .. } => {
                let l = self.collect_peaks(left, out);
                let r = self.collect_peaks(right, out);
                self.cost_node(plan, &[&l?, &r?])
            }
            Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => {
                self.cost_node(plan, &[&self.collect_peaks(input, out)?])
            }
            Plan::Scan { .. } | Plan::ExtentScan { .. } | Plan::EmptyScan { .. } => {
                self.cost_node(plan, &[])
            }
        }
        .ok()?;
        out[at] = Some(props.peak_bytes);
        Some(props)
    }
}

/// The distinct count of physical column `c`; 1 when the table's
/// statistics do not cover it.
fn column_distinct(stats: &TableStats, c: usize) -> f64 {
    stats.columns.get(c).map_or(1.0, |s| s.distinct as f64)
}

/// Compact human-readable byte count for EXPLAIN annotations.
fn fmt_bytes(b: f64) -> String {
    if b >= 1e6 {
        format!("{:.1}MB", b / 1e6)
    } else if b >= 1e3 {
        format!("{:.1}KB", b / 1e3)
    } else {
        format!("{b:.0}B")
    }
}

/// Fallback distinct estimate for columns whose provenance the estimator
/// has lost (e.g. an aggregate output used as a grouping column without
/// context).
const DEFAULT_AGG_DISTINCT: f64 = 100.0;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{all_cols, GroupBySpec};
    use crate::query::examples::{emp, example2_query};
    use aggview_common::{AggFunc, AggSpec, CmpOp, RelId, Value, ViewId};
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn setup() -> (Catalog, QueryEnv) {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts: 50,
            emps_per_dept: 20,
            young_fraction: 0.1,
            ..Default::default()
        })
        .unwrap();
        let env = example2_query().env;
        (cat, env)
    }

    #[test]
    fn scan_card_uses_histograms() {
        let (cat, env) = setup();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let scan = Plan::scan(
            RelId(0),
            "emp",
            vec![Predicate::cmp_const(
                Col::base(RelId(0), emp::AGE),
                CmpOp::Lt,
                Value::Int(22),
            )],
            all_cols(RelId(0), 5),
        );
        let props = est.cost_plan(&scan).unwrap();
        // 10% of 1000 employees are under 22 → estimate within 2x.
        assert!(
            props.card > 40.0 && props.card < 250.0,
            "card {}",
            props.card
        );
        assert!(props.cost > 0.0);
    }

    #[test]
    fn join_selectivity_from_distinct_counts() {
        let (cat, env) = setup();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let e = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5));
        let d = Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4));
        let j = Plan::join_all(
            e,
            d,
            vec![Predicate::eq_cols(
                Col::base(RelId(0), emp::DNO),
                Col::base(RelId(1), 0),
            )],
        );
        let props = est.cost_plan(&j).unwrap();
        // FK join: output ≈ |emp| = 1000.
        assert!(
            (props.card - 1000.0).abs() < 50.0,
            "join card {}",
            props.card
        );
    }

    #[test]
    fn group_by_card_is_group_count() {
        let (cat, env) = setup();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let e = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5));
        let g = Plan::group_by_all(
            e,
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![Col::base(RelId(0), emp::DNO)],
                aggs: vec![AggSpec::new(
                    AggFunc::Avg,
                    aggview_common::Expr::col(Col::base(RelId(0), emp::SAL)),
                )],
                having: vec![],
            },
        );
        let props = est.cost_plan(&g).unwrap();
        assert!((props.card - 50.0).abs() < 5.0, "groups {}", props.card);
        // Aggregate output column has one value per group.
        assert!(props.distinct.contains_key(&Col::agg(ViewId::Top, 0)));
    }

    #[test]
    fn yao_behaves_at_extremes() {
        // Tiny domain: all groups realized.
        assert!((CardEstimator::yao_distinct(10.0, 10_000.0) - 10.0).abs() < 1e-6);
        // Huge domain: every row its own group.
        let d = CardEstimator::yao_distinct(1e12, 100.0);
        assert!((d - 100.0).abs() < 1.0, "{d}");
        // Zero rows → zero groups.
        assert_eq!(CardEstimator::yao_distinct(10.0, 0.0), 0.0);
        // Monotone in n.
        assert!(
            CardEstimator::yao_distinct(100.0, 50.0) <= CardEstimator::yao_distinct(100.0, 500.0)
        );
    }

    #[test]
    fn having_reduces_cardinality() {
        let (cat, env) = setup();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let e = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5));
        let mk = |having: Vec<Predicate>| {
            Plan::group_by_all(
                e.clone(),
                GroupBySpec {
                    owner: ViewId::Top,
                    group_cols: vec![Col::base(RelId(0), emp::DNO)],
                    aggs: vec![AggSpec::new(
                        AggFunc::Avg,
                        aggview_common::Expr::col(Col::base(RelId(0), emp::SAL)),
                    )],
                    having,
                },
            )
        };
        let without = est.cost_plan(&mk(vec![])).unwrap();
        let with = est
            .cost_plan(&mk(vec![Predicate::new(
                aggview_common::Expr::col(Col::agg(ViewId::Top, 0)),
                CmpOp::Gt,
                aggview_common::Expr::val(Value::Float(100_000.0)),
            )]))
            .unwrap();
        assert!(with.card < without.card);
    }

    #[test]
    fn width_tracks_projection() {
        let (cat, env) = setup();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let wide = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5));
        let narrow = Plan::scan(RelId(0), "emp", vec![], vec![Col::base(RelId(0), emp::DNO)]);
        let w = est.cost_plan(&wide).unwrap();
        let n = est.cost_plan(&narrow).unwrap();
        assert!(n.width < w.width);
        // Same IO though: the whole table is read either way.
        assert_eq!(n.cost, w.cost);
    }

    #[test]
    fn explicit_algo_requiring_equality_rejected_without_one() {
        let (cat, env) = setup();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        let e = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5));
        let d = Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4));
        let mut j = Plan::join_all(e, d, vec![]);
        if let Plan::Join { algo, .. } = &mut j {
            *algo = JoinAlgo::Hash;
        }
        assert!(est.cost_plan(&j).is_err());
    }
}
