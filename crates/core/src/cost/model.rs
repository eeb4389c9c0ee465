//! Cardinality estimation and plan costing, one node at a time.
//!
//! [`CardEstimator::cost_node`] derives a node's [`PlanProps`] from its
//! children's; every formula below is in it, or in the join and
//! aggregation prices it calls, exactly once.
//! [`CardEstimator::cost_plan`] is the recursion over it. Block
//! enumeration calls those prices directly with the properties it stored
//! for a candidate's inputs, and gives the candidate it keeps the
//! distinct counts `cost_node` would, so an unbuilt candidate costs what
//! its built node does, to the bit. Base-table statistics are read in
//! place through tables resolved once per estimator.
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

use crate::cost::ops::{self, GroupLookup, IoParams, JoinSides};
use crate::plan::Plan;
use crate::query::QueryEnv;
use crate::transform::grouping_determinant;
use aggview_common::{AggViewError, Col, ColRef, DataType, Expr, Predicate, RelId, Result};
use aggview_storage::{Catalog, MatViewMeta, PageModel, Table, TableStats};
use std::cell::OnceCell;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Tunable cost-model parameters.
///
/// Two weight vectors: [`CostModel::paper`] prices page IO alone, the
/// paper's model, under which the E1–E10 experiments reproduce;
/// [`CostModel::default`] adds the engine's CPU work per row, at the
/// prices of [`ops`], so that the cheapest plan is also the fastest one.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Byte → page conversion.
    pub page: PageModel,
    /// Operator memory budget.
    pub io: IoParams,
    /// Whether the cost adds the engine's CPU work per row; off under
    /// the paper's model.
    pub cpu: bool,
}

impl CostModel {
    /// The paper's model: page IO only.
    pub fn paper() -> Self {
        CostModel {
            page: PageModel::default(),
            io: IoParams::default(),
            cpu: false,
        }
    }
}

impl Default for CostModel {
    /// Page IO plus the engine's CPU work.
    fn default() -> Self {
        CostModel {
            cpu: true,
            ..Self::paper()
        }
    }
}

/// How the engine's group table finds an input row's group
/// ([`CardEstimator::group_lookup`]): the subset of the grouping columns
/// that determines the rest, and how it is looked up.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct Lookup {
    /// The determinant, when it is fewer than all the grouping columns.
    reduced: Option<Vec<Col>>,
    kind: GroupLookup,
}

impl Lookup {
    /// The lookup columns, of grouping columns `group_cols`.
    fn cols<'a>(&'a self, group_cols: &'a [Col]) -> &'a [Col] {
        self.reduced.as_deref().unwrap_or(group_cols)
    }
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

    /// The distinct count it holds for `c`.
    pub(crate) fn distinct_of(&self, c: &Col) -> Option<f64> {
        self.distinct.get(c).copied()
    }

    /// A join priced `self` — [`CardEstimator::join_price`], which leaves
    /// the distinct counts out — with the counts of its `project`ed
    /// columns, from inputs whose columns have the `input` counts.
    pub(crate) fn join_props(
        mut self,
        project: impl IntoIterator<Item = Col>,
        input: Distinct,
    ) -> PlanProps {
        self.distinct = capped(project, input, self.card);
        self
    }

    /// An aggregation priced `self` by [`CardEstimator::group_price`],
    /// of `groups` groups, with the counts of its `project`ed columns
    /// ([`group_output`]).
    pub(crate) fn group_props(
        mut self,
        project: impl IntoIterator<Item = Col>,
        known: Distinct,
        cols: (&[Col], &[Col]),
        groups: f64,
    ) -> PlanProps {
        self.distinct = projected(project, &group_output(known, cols, groups));
        self
    }
}

/// Distinct counts by column, for an input or output whose map is not
/// built.
pub(crate) type Distinct<'a> = &'a dyn Fn(&Col) -> Option<f64>;

/// Statistics-driven estimator bound to a catalog and query environment.
///
/// Construction resolves every relation instance of the environment to
/// its table once; scans, column widths, constant selectivities and the
/// optimizer's key checks then read that table in place, with no name
/// lookup, lock or copy per column. The fresh materialized views are
/// resolved once too, the first time a block asks for them.
#[derive(Debug, Clone)]
pub struct CardEstimator<'a> {
    pub model: CostModel,
    pub catalog: &'a Catalog,
    pub env: &'a QueryEnv,
    /// `tables[r]` is the table bound to `RelId(r)`; `None` when the
    /// catalog does not know it (its columns then price at the defaults).
    tables: Vec<Option<Arc<Table>>>,
    /// The materialized views fresh when first asked, each after its
    /// extent table when the catalog has it.
    matviews: OnceCell<Vec<(Option<Arc<Table>>, MatViewMeta)>>,
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
            matviews: OnceCell::new(),
        }
    }

    /// The table bound to relation instance `rel`.
    pub(crate) fn rel_table(&self, rel: RelId) -> Result<&Arc<Table>> {
        let t = self.tables.get(rel.idx()).and_then(Option::as_ref);
        t.ok_or_else(|| AggViewError::Catalog(format!("no table bound to {rel}")))
    }

    /// The materialized views whose extents are fresh, read from the
    /// catalog the first time any block asks.
    pub(crate) fn fresh_matviews(&self) -> &[(Option<Arc<Table>>, MatViewMeta)] {
        self.matviews.get_or_init(|| {
            let (catalog, names) = (self.catalog, self.catalog.matview_names());
            let metas = names.iter().filter_map(|n| catalog.matview(n));
            let fresh = metas.filter(|m| !m.is_stale(catalog));
            fresh
                .map(|m| (Self::table(catalog, &m.extent).ok(), m))
                .collect()
        })
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

    /// This estimator, with the CPU term or without it.
    #[cfg(test)]
    pub(crate) fn with_cpu(&self, cpu: bool) -> CardEstimator<'a> {
        let model = CostModel { cpu, ..self.model };
        CardEstimator {
            model,
            ..self.clone()
        }
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

    /// Selectivity of a predicate, given the distinct counts of the
    /// columns it is evaluated over (used for join selectivity) and base
    /// statistics (for column-vs-constant).
    fn pred_selectivity(&self, p: &Predicate, distinct: &dyn Fn(&Col) -> Option<f64>) -> f64 {
        // Column = column: 1 / max(d1, d2).
        if let Some((a, b)) = p.as_col_eq_col() {
            let da = distinct(&a).unwrap_or(f64::NAN);
            let db = distinct(&b).unwrap_or(f64::NAN);
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
        let t = self.tables.get(b.rel.idx())?.as_ref()?;
        let (stats, idx) = (t.stats(), b.col as usize);
        if stats.rows == 0 {
            return Some(0.0);
        }
        Some(stats.columns[idx].selectivity(op, &constant, || t.histogram(idx)))
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
            Plan::Scan { .. } | Plan::ExtentScan { .. } => self.cost_node(plan, &[]),
        }
    }

    /// Price the top node of `plan` from the properties of its children
    /// (`children` parallel to the node's inputs: left then right for a
    /// join, none for a leaf). Every formula of the model is reached from
    /// here, once. Joins and aggregations are charged the cheapest of the
    /// paper's formulas that applies, as the executor charges them.
    pub fn cost_node(&self, plan: &Plan, children: &[&PlanProps]) -> Result<PlanProps> {
        let cpu = self.model.cpu;
        match (plan, children) {
            (
                Plan::Scan {
                    rel,
                    table,
                    filters,
                    project,
                },
                [],
            ) => {
                // The table bound to `rel` when it is the one scanned.
                let t = match self.rel_table(*rel) {
                    Ok(t) if t.name().eq_ignore_ascii_case(table) => Arc::clone(t),
                    _ => Self::table(self.catalog, table)?,
                };
                let (stats, arity) = (t.stats(), t.schema().len());
                let distinct = |c: &Col| {
                    let b = c
                        .as_base()
                        .filter(|b| b.rel == *rel && (b.col as usize) < arity)?;
                    Some(column_distinct(stats, b.col as usize))
                };
                let width: f64 = project.iter().map(|c| self.col_width(*c)).sum();
                Ok(self.scanned(cpu, stats, &distinct, filters, project, width))
            }
            (
                Plan::Join {
                    left,
                    right,
                    preds,
                    project,
                },
                [l, r],
            ) => {
                // A column both inputs produce takes the right's count.
                let input = |c: &Col| r.distinct_of(c).or_else(|| l.distinct_of(c));
                let sides = ((*l, streams(left)), (*r, streams(right)));
                let price =
                    self.join_price(cpu, sides, &input, preds.iter(), project.iter().copied());
                Ok(price.join_props(project.iter().copied(), &input))
            }
            (
                Plan::GroupBy {
                    input,
                    spec,
                    project,
                },
                [i],
            ) => Ok(self.grouped(
                cpu,
                (input, i),
                (&spec.group_cols, &spec.agg_cols()),
                &spec.having,
                project,
            )),
            (
                Plan::PartialAggregate {
                    input,
                    spec,
                    project,
                },
                [i],
            ) => Ok(self.grouped(
                cpu,
                (input, i),
                (&spec.group_cols, &spec.all_part_cols()),
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
                let mut fresh = self.fresh_matviews().iter();
                let t = match fresh.find(|(_, m)| m.extent.eq_ignore_ascii_case(table)) {
                    Some((Some(t), _)) => Arc::clone(t),
                    _ => Self::table(self.catalog, table)?,
                };
                let stats = t.stats();
                let distinct = |c: &Col| {
                    let i = outputs.iter().rposition(|o| o == c)?;
                    Some(column_distinct(stats, cols[i]))
                };
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
                Ok(self.scanned(cpu, stats, &distinct, filters, project, width))
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
        cpu: bool,
        stats: &TableStats,
        distinct: &dyn Fn(&Col) -> Option<f64>,
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
            card *= self.pred_selectivity(f, distinct);
        }
        card = card.max(0.0);
        let distinct = capped(project.iter().copied(), distinct, card);
        let rows = stats.rows as f64;
        let work = ops::cpu_pages(cpu, || {
            ops::scan_ns(rows, filters.len(), card, project.len())
        });
        PlanProps {
            cost: ops::scan_io(table_pages) + work,
            card,
            width,
            peak_bytes: card * width,
            distinct,
        }
    }

    /// The properties, but for distinct counts, of a join of inputs `l`
    /// and `r` — each flagged when it streams (is itself a join) rather
    /// than arriving whole — under `preds`, projecting `project`, whose
    /// input columns have the `input` distinct counts. Joins are charged
    /// the cheapest of the paper's formulas that applies, as the executor
    /// charges them.
    pub(crate) fn join_price<'p>(
        &self,
        cpu: bool,
        (l, r): ((&PlanProps, bool), (&PlanProps, bool)),
        input: Distinct,
        preds: impl Iterator<Item = &'p Predicate>,
        project: impl Iterator<Item = Col> + Clone,
    ) -> PlanProps {
        let ((l, left_streams), (r, right_streams)) = (l, r);
        // `pairs`: the key matches, which the residual predicates are
        // evaluated on.
        let mut card = l.card * r.card;
        let (mut pairs, mut residuals, mut keyed) = (card, 0, false);
        for p in preds {
            let s = self.pred_selectivity(p, input);
            card *= s;
            match p.as_col_eq_col() {
                Some(_) => (pairs, keyed) = (pairs * s, true),
                None => residuals += 1,
            }
        }
        card = card.max(0.0);
        let width: f64 = project.clone().map(|c| self.col_width(c)).sum();
        let sides = JoinSides {
            left_rows: l.card,
            left_pages: l.pages(&self.model.page),
            right_rows: r.card,
            right_pages: r.pages(&self.model.page),
        };
        let extra = ops::best_join(&sides, keyed, self.model.io.mem_pages).1;
        // The probe streams, but the build side (the smaller input) is
        // held while the output accumulates.
        let build_bytes = l.out_bytes().min(r.out_bytes());
        let peak_bytes = l
            .peak_bytes
            .max(r.peak_bytes)
            .max(card * width + build_bytes);
        let work = ops::cpu_pages(cpu, || {
            let builds_left = match (left_streams, right_streams) {
                (false, false) => keyed && l.card <= r.card,
                (false, true) => true,
                (true, _) => false,
            };
            let (build, probe) = match builds_left {
                true => (l.card, r.card),
                false => (r.card, l.card),
            };
            ops::join_ns(build, probe, (pairs, residuals), card, project.count())
        });
        PlanProps {
            cost: l.cost + r.cost + extra + work,
            card,
            width,
            peak_bytes,
            distinct: BTreeMap::new(),
        }
    }

    /// A (full or partial) aggregation of `input`, whose properties are
    /// `i`: [`Self::group_price`], and one distinct count per projected
    /// column ([`group_output`]).
    fn grouped(
        &self,
        cpu: bool,
        (input, i): (&Plan, &PlanProps),
        cols: (&[Col], &[Col]),
        having: &[Predicate],
        project: &[Col],
    ) -> PlanProps {
        let known = |c: &Col| i.distinct_of(c);
        let (price, groups) = self.group_price(
            (cpu.then_some(input), i),
            &known,
            cols,
            having,
            project.iter().copied(),
        );
        price.group_props(project.iter().copied(), &known, cols, groups)
    }

    /// The properties but for distinct counts, and the group count, of
    /// aggregating `input`, with properties `i` and the `known` distinct
    /// counts, by `group_cols` into the
    /// `produced` columns (aggregate outputs or partial states), under
    /// `having`, projecting `project`: the group count is Yao's estimate
    /// over the grouping domain, HAVING predicates thin the groups, and
    /// aggregation is charged the cheaper of the paper's formulas. The
    /// CPU term is priced only when `input`'s plan is given: the work
    /// depends on how the group table will look its rows up.
    pub(crate) fn group_price(
        &self,
        (input, i): (Option<&Plan>, &PlanProps),
        known: Distinct,
        (group_cols, produced): (&[Col], &[Col]),
        having: &[Predicate],
        project: impl Iterator<Item = Col>,
    ) -> (PlanProps, f64) {
        let (accs, out_cols) = (produced.len(), group_cols.len() + produced.len());
        let groups = Self::groups(group_cols, i.card, known);
        let work = input.map_or(0.0, |input| {
            ops::cpu_pages(true, || {
                let lookup = self.group_lookup(group_cols, input);
                let table_groups = match &lookup.reduced {
                    None => groups,
                    Some(cols) => Self::groups(cols, i.card, known),
                };
                ops::agg_ns(i.card, (lookup.kind, accs), table_groups, out_cols)
            })
        });
        let output = group_output(known, (group_cols, produced), groups);
        let mut card = groups;
        for h in having {
            card *= self.pred_selectivity(h, &output);
        }
        card = card.max(0.0);
        let width: f64 = project.map(|c| self.col_width(c)).sum();
        let in_pages = i.pages(&self.model.page);
        let out_pages = self.model.page.pages_for(groups, width.max(1.0));
        let extra = ops::best_agg(in_pages, out_pages, &self.model.io).1;
        let price = PlanProps {
            cost: i.cost + extra + work,
            card,
            width,
            peak_bytes: i.peak_bytes.max(groups * width),
            distinct: BTreeMap::new(),
        };
        (price, groups)
    }

    /// The CPU term, in pages, of aggregating `card` rows whose columns
    /// have the `known` distinct counts by `group_cols`, found by
    /// `lookup`, into `accs` accumulators (aggregate outputs or partial
    /// states) and `cols` output columns; zero under the paper's model.
    pub(crate) fn group_cpu(
        &self,
        (group_cols, lookup): (&[Col], &Lookup),
        (card, known): (f64, Distinct),
        accs: usize,
        cols: usize,
    ) -> f64 {
        ops::cpu_pages(self.model.cpu, || {
            let groups = Self::groups(lookup.cols(group_cols), card, known);
            ops::agg_ns(card, (lookup.kind, accs), groups, cols)
        })
    }

    /// The groups of `card` rows by `cols`, whose distinct counts are
    /// `known`: Yao's estimate over their domain. A lookup by a
    /// determinant of the grouping columns makes the same groups, and is
    /// estimated over its own, smaller, domain.
    fn groups(cols: &[Col], card: f64, known: Distinct) -> f64 {
        let known = |c: &Col| known(c).unwrap_or(DEFAULT_AGG_DISTINCT);
        let domain = cols.iter().map(known).fold(1.0, |a, b| (a * b).min(1e18));
        Self::yao_distinct(domain, card)
    }

    /// How the engine's group table will find the groups of `input`'s
    /// rows: by the subset of `group_cols` that determines the rest,
    /// through its ordinal when that is one `Int` or string column.
    pub(crate) fn group_lookup(&self, group_cols: &[Col], input: &Plan) -> Lookup {
        self.lookup_by(
            group_cols,
            grouping_determinant(group_cols, input, self.catalog).ok(),
        )
    }

    /// How the group table finds groups by `group_cols`, given their
    /// `determinant` when one was found.
    pub(crate) fn lookup_by(&self, group_cols: &[Col], determinant: Option<Vec<Col>>) -> Lookup {
        let reduced = determinant.filter(|cols| cols.len() < group_cols.len());
        let kind = match reduced.as_deref().unwrap_or(group_cols) {
            [c] if matches!(self.col_type(*c), Some(DataType::Int | DataType::Str)) => {
                GroupLookup::Ordinal
            }
            cols => GroupLookup::Hashed(cols.len()),
        };
        Lookup { reduced, kind }
    }

    /// Declared type of a base column; `None` for anything else.
    fn col_type(&self, col: Col) -> Option<DataType> {
        let b = col.as_base()?;
        let t = self.tables.get(b.rel.idx())?.as_ref()?;
        t.schema().fields().get(b.col as usize).map(|f| f.ty)
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
            Plan::Scan { .. } | Plan::ExtentScan { .. } => self.cost_node(plan, &[]),
        }
        .ok()?;
        out[at] = Some(props.peak_bytes);
        Some(props)
    }
}

/// Whether `plan` streams its output (a join) rather than delivering a
/// collected input of known size. The engine builds a join's index on
/// the smaller of two inputs of known size (ties to the left; without an
/// equality the right is held); a streaming input always probes; of two
/// streams the right is collected and built on.
pub(crate) fn streams(plan: &Plan) -> bool {
    matches!(plan, Plan::Join { .. })
}

/// The distinct counts of an aggregation's output, of `groups` groups
/// over an input with the `known` counts: one value per group of every
/// `produced` column; grouping columns keep their input counts, capped
/// at the groups.
pub(crate) fn group_output<'a>(
    known: Distinct<'a>,
    (group_cols, produced): (&'a [Col], &'a [Col]),
    groups: f64,
) -> impl Fn(&Col) -> Option<f64> + 'a {
    let cap = groups.max(1.0);
    move |c| match produced.contains(c) {
        true => Some(cap),
        false => group_cols
            .contains(c)
            .then(|| known(c).unwrap_or(DEFAULT_AGG_DISTINCT).min(cap)),
    }
}

/// The distinct counts of the `project`ed columns `counts` knows.
fn projected(
    project: impl IntoIterator<Item = Col>,
    counts: &dyn Fn(&Col) -> Option<f64>,
) -> BTreeMap<Col, f64> {
    let mut out = BTreeMap::new();
    for c in project {
        if let Some(d) = counts(&c) {
            out.insert(c, d);
        }
    }
    out
}

/// The distinct counts of the `project`ed columns an operator's input
/// has counts for, each [`capped_at`] its `card` rows.
fn capped(
    project: impl IntoIterator<Item = Col>,
    input: Distinct,
    card: f64,
) -> BTreeMap<Col, f64> {
    projected(project, &|c| capped_at(input(c), card))
}

/// A distinct count `d` of an operator's input, at most its `card`
/// output rows (and at least one).
pub(crate) fn capped_at(d: Option<f64>, card: f64) -> Option<f64> {
    Some(d?.min(card.max(1.0)))
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

    /// Plans over `emp` (r0, r2) and `dept` (r1) that exercise every
    /// priced quantity: filtered and unfiltered scans, a join between
    /// two scans, a join probing with a join, a residual predicate, a
    /// full and a partial aggregation.
    fn corpus() -> (Catalog, QueryEnv, Vec<Plan>) {
        let (cat, _) = setup();
        let env = QueryEnv::new(vec!["emp".into(), "dept".into(), "emp".into()]);
        let (e, d, e2) = (RelId(0), RelId(1), RelId(2));
        let young = Predicate::cmp_const(Col::base(e, emp::AGE), CmpOp::Lt, Value::Int(22));
        let scan_e = Plan::scan(e, "emp", vec![young.clone()], all_cols(e, 5));
        let scan_d = Plan::scan(d, "dept", vec![], all_cols(d, 4));
        let scan_e2 = Plan::scan(e2, "emp", vec![], all_cols(e2, 5));
        let on_dno =
            |a: RelId, b: RelId| Predicate::eq_cols(Col::base(a, emp::DNO), Col::base(b, 0));
        let emp_dept = Plan::join_all(scan_e.clone(), scan_d.clone(), vec![on_dno(e, d)]);
        let richer = Predicate::new(
            Expr::col(Col::base(e, emp::SAL)),
            CmpOp::Gt,
            Expr::col(Col::base(e2, emp::SAL)),
        );
        let same_dno = Predicate::eq_cols(Col::base(e, emp::DNO), Col::base(e2, emp::DNO));
        let avg_sal = GroupBySpec {
            owner: ViewId::Top,
            group_cols: vec![Col::base(e, emp::DNO)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(e, emp::SAL)),
            )],
            having: vec![],
        };
        let partial = Plan::partial_aggregate_all(
            scan_e.clone(),
            crate::plan::PartialAggSpec {
                group_cols: vec![Col::base(e, emp::DNO)],
                aggs: vec![(avg_sal.agg_ref(0), avg_sal.aggs[0].clone())],
                count: None,
            },
        );
        let plans = vec![
            scan_e.clone(),
            scan_e2.clone(),
            emp_dept.clone(),
            Plan::join_all(emp_dept.clone(), scan_e2.clone(), vec![same_dno.clone()]),
            Plan::join_all(scan_e, scan_e2, vec![same_dno, richer]),
            Plan::group_by_all(emp_dept, avg_sal.clone()),
            Plan::group_by_all(Plan::join_all(partial, scan_d, vec![on_dno(e, d)]), avg_sal),
        ];
        (cat, env, plans)
    }

    /// Under `paper()` every cost is what the model computed before the
    /// CPU term existed, to the bit.
    #[test]
    fn paper_costs_are_bit_identical() {
        let (cat, env, plans) = corpus();
        let est = CardEstimator::new(CostModel::paper(), &cat, &env);
        let bits: Vec<u64> = plans
            .iter()
            .map(|p| est.cost_plan(p).unwrap().cost.to_bits())
            .collect();
        assert_eq!(bits, PAPER_BITS);
    }

    /// `cost_plan(p).cost` for `corpus()` under the IO-only model, from
    /// the commit before the CPU term.
    const PAPER_BITS: [u64; 7] = [
        4621397180001812480, // 9.25048828125
        4621397180001812480, // 9.25048828125
        4621960129955233792, // 10.25048828125
        4626182254605893632, // 19.5009765625
        4625900779629182976, // 18.5009765625
        4621960129955233792, // 10.25048828125
        4621960129955233792, // 10.25048828125
    ];

    /// The CPU term is zero under `paper()`, for a whole plan and for the
    /// group-by a partial plan still owes; under `default()` every plan
    /// costs more.
    #[test]
    fn cpu_term_is_zero_under_paper() {
        let (cat, env, plans) = corpus();
        let paper = CardEstimator::new(CostModel::paper(), &cat, &env);
        let default = CardEstimator::new(CostModel::default(), &cat, &env);
        for p in &plans {
            let io = paper.cost_plan(p).unwrap();
            assert!(
                default.cost_plan(p).unwrap().cost > io.cost,
                "{}",
                p.explain()
            );
            if let Plan::GroupBy { input, spec, .. } = p {
                let i = paper.cost_plan(input).unwrap();
                let lookup = paper.group_lookup(&spec.group_cols, input);
                let cols = spec.group_cols.len() + spec.aggs.len();
                let by = (&spec.group_cols[..], &lookup);
                let known = |c: &Col| i.distinct_of(c);
                let rows = (i.card, &known as Distinct);
                assert_eq!(paper.group_cpu(by, rows, spec.aggs.len(), cols), 0.0);
            }
        }
    }

    /// Monotonicity: more rows into a node never make it cheaper — for
    /// either input of a join (across the switch of build side) and for
    /// an aggregation's input.
    #[test]
    fn cost_never_falls_when_a_child_grows() {
        let (cat, env, plans) = corpus();
        let est = CardEstimator::new(CostModel::default(), &cat, &env);
        for p in &plans {
            let inputs: Vec<&Plan> = match p {
                Plan::Join { left, right, .. } => vec![left, right],
                Plan::GroupBy { input, .. } | Plan::PartialAggregate { input, .. } => {
                    vec![input]
                }
                _ => continue,
            };
            let props: Vec<PlanProps> = inputs.iter().map(|i| est.cost_plan(i).unwrap()).collect();
            for grown in 0..props.len() {
                let mut prev = f64::NEG_INFINITY;
                for factor in [0.01, 0.5, 1.0, 2.0, 10.0, 100.0, 1e4] {
                    let mut children = props.clone();
                    children[grown].card *= factor;
                    let refs: Vec<&PlanProps> = children.iter().collect();
                    let cost = est.cost_node(p, &refs).unwrap().cost;
                    assert!(
                        cost >= prev,
                        "input {grown} x{factor}: {cost} < {prev}\n{}",
                        p.explain()
                    );
                    prev = cost;
                }
            }
        }
    }
}
