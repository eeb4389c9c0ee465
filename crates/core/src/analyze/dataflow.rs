//! Bottom-up abstract interpretation of plan trees.
//!
//! The structural rules in [`super::rules`] re-check the paper's
//! transformation invariants; this pass reasons about the *values*
//! flowing through a plan. For every operator output it computes a
//! [`ColDomain`] per column — a closed numeric interval, an optional
//! known constant, and an upper bound on distinct values, seeded from
//! fresh [`aggview_storage::TableStats`] — by propagating intervals
//! through [`Predicate`]s and [`Expr`]s, folding constants, and
//! intersecting the domains of columns equated by join predicates
//! (the implied-predicate fixpoint subsumes an explicit equivalence
//!-class closure: `x = y` and `y = z` converge to a shared interval
//! after two passes).
//!
//! Three consumers sit on top of the domains:
//!
//! * **Contradiction detection** — a predicate whose truth value is
//!   provably `false` over the current domains (e.g. `x > 5 AND x < 3`)
//!   makes the subtree provably empty. The optimizer rewrites such
//!   subtrees to [`Plan::EmptyScan`] via [`prune_empty`]; the analyzer
//!   flags any that survive as `dataflow-domain` warnings.
//! * **Type certification** — the pass assigns every operator a static
//!   type signature. A plan whose every output column types cleanly is
//!   *Mixed-free*: the vectorized executor can pre-allocate typed
//!   columns, and any runtime demotion to `ColumnVec::Mixed` on such a
//!   plan is a counted diagnostic rather than a silent slow path.
//! * **Admission bounds** — guaranteed lower bounds on the rows and
//!   bytes every execution of the plan must charge against the
//!   governor. The executor rejects
//!   a plan whose bounds already exceed the budget with
//!   [`aggview_common::AggViewError::PlanInadmissible`] before any
//!   work runs.
//!
//! Soundness is the design constraint throughout: statistics seed
//! intervals only when [`aggview_storage::Catalog::stats_fresh`] holds,
//! interval arithmetic widens bounds outward by one ulp, integer
//! domains tighten strict bounds (`x < 5` ⇒ `x ≤ 4`) only for
//! `DataType::Int` columns, and aggregates widen conservatively
//! (`SUM` over a sign-definite argument keeps one bound, `COUNT` is
//! only known to be `≥ 1` per group). The companion proptest executes
//! plans and asserts every concrete output value lies in its predicted
//! interval and every measured resource figure meets its bound.

use super::Violation;
use crate::plan::Plan;
use aggview_common::{AggFunc, CmpOp, Col, DataType, Expr, Predicate, RelId, Value};
use aggview_storage::Catalog;
use std::collections::BTreeMap;

/// Rule name for contradiction findings (provably-empty subtrees the
/// optimizer did not prune). Severity: warning — the plan is correct,
/// just wasteful.
pub const RULE_DOMAIN: &str = "dataflow-domain";
/// Rule name for type-lattice findings: an [`Plan::EmptyScan`] whose
/// recorded types contradict the catalog schema (error), or a plan
/// that cannot be certified Mixed-free (warning).
pub const RULE_TYPE: &str = "dataflow-type";
/// Rule name for admission-bounds bookkeeping defects: an
/// [`Plan::EmptyScan`] covering a relation the query never declared,
/// which would corrupt relation-set and bounds accounting. Severity:
/// error.
pub const RULE_BOUNDS: &str = "dataflow-bounds";

/// A closed interval over `f64`, empty when `lo > hi`.
///
/// Integer column values embed exactly for |v| ≤ 2⁵³; beyond that the
/// seeding and arithmetic paths widen outward, so containment stays
/// sound.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    pub lo: f64,
    pub hi: f64,
}

impl Interval {
    /// The unconstrained interval (every value).
    pub const FULL: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// The empty interval (no value).
    pub const EMPTY: Interval = Interval {
        lo: f64::INFINITY,
        hi: f64::NEG_INFINITY,
    };

    /// Single-point interval.
    pub fn point(x: f64) -> Interval {
        Interval { lo: x, hi: x }
    }

    /// True when no value satisfies the bounds (NaN endpoints count as
    /// empty).
    pub fn is_empty(self) -> bool {
        !matches!(
            self.lo.partial_cmp(&self.hi),
            Some(std::cmp::Ordering::Less | std::cmp::Ordering::Equal)
        )
    }

    /// True when nothing is known.
    pub fn is_full(self) -> bool {
        self.lo == f64::NEG_INFINITY && self.hi == f64::INFINITY
    }

    /// True when `x` lies within the bounds.
    pub fn contains(self, x: f64) -> bool {
        self.lo <= x && x <= self.hi
    }

    /// Set intersection.
    pub fn intersect(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.max(o.lo),
            hi: self.hi.min(o.hi),
        }
    }

    /// Smallest interval containing both.
    pub fn hull(self, o: Interval) -> Interval {
        if self.is_empty() {
            return o;
        }
        if o.is_empty() {
            return self;
        }
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// The square of every value in the interval (tighter than
    /// `self * self` because both factors are the *same* value).
    pub fn square(self) -> Interval {
        if self.is_empty() {
            return Interval::EMPTY;
        }
        let (a, b) = (self.lo * self.lo, self.hi * self.hi);
        if a.is_nan() || b.is_nan() {
            return Interval {
                lo: 0.0,
                hi: f64::INFINITY,
            };
        }
        if self.contains(0.0) {
            widened_nonneg(0.0, a.max(b))
        } else {
            widened_nonneg(a.min(b), a.max(b))
        }
    }
}

/// Interval addition, widened outward by one ulp.
impl std::ops::Add for Interval {
    type Output = Interval;
    fn add(self, o: Interval) -> Interval {
        if self.is_empty() || o.is_empty() {
            return Interval::EMPTY;
        }
        widened(self.lo + o.lo, self.hi + o.hi)
    }
}

/// Interval subtraction, widened outward by one ulp.
impl std::ops::Sub for Interval {
    type Output = Interval;
    fn sub(self, o: Interval) -> Interval {
        if self.is_empty() || o.is_empty() {
            return Interval::EMPTY;
        }
        widened(self.lo - o.hi, self.hi - o.lo)
    }
}

/// Interval multiplication, widened outward by one ulp.
impl std::ops::Mul for Interval {
    type Output = Interval;
    fn mul(self, o: Interval) -> Interval {
        if self.is_empty() || o.is_empty() {
            return Interval::EMPTY;
        }
        let cands = [
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ];
        if cands.iter().any(|c| c.is_nan()) {
            return Interval::FULL;
        }
        let (mut lo, mut hi) = (cands[0], cands[0]);
        for &c in &cands[1..] {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        widened(lo, hi)
    }
}

/// Interval division. Divisors whose interval touches zero yield the
/// full interval (runtime either errors or produces an arbitrary
/// quotient; both are covered).
impl std::ops::Div for Interval {
    type Output = Interval;
    fn div(self, o: Interval) -> Interval {
        if self.is_empty() || o.is_empty() {
            return Interval::EMPTY;
        }
        if o.contains(0.0) {
            return Interval::FULL;
        }
        let cands = [
            self.lo / o.lo,
            self.lo / o.hi,
            self.hi / o.lo,
            self.hi / o.hi,
        ];
        if cands.iter().any(|c| c.is_nan()) {
            return Interval::FULL;
        }
        let (mut lo, mut hi) = (cands[0], cands[0]);
        for &c in &cands[1..] {
            lo = lo.min(c);
            hi = hi.max(c);
        }
        widened(lo, hi)
    }
}

/// Widen `[lo, hi]` outward by one ulp each side; NaN bounds collapse
/// to the full interval (soundness over precision).
fn widened(lo: f64, hi: f64) -> Interval {
    if lo.is_nan() || hi.is_nan() {
        return Interval::FULL;
    }
    Interval {
        lo: next_down(lo),
        hi: next_up(hi),
    }
}

fn widened_nonneg(lo: f64, hi: f64) -> Interval {
    let w = widened(lo, hi);
    Interval {
        lo: w.lo.max(0.0),
        hi: w.hi,
    }
}

/// Largest representable f64 strictly below `x` (identity at -∞).
fn next_down(x: f64) -> f64 {
    if x.is_nan() || x == f64::NEG_INFINITY {
        return f64::NEG_INFINITY;
    }
    if x == 0.0 {
        return -f64::MIN_POSITIVE;
    }
    let bits = x.to_bits();
    f64::from_bits(if x > 0.0 { bits - 1 } else { bits + 1 })
}

/// Smallest representable f64 strictly above `x` (identity at +∞).
fn next_up(x: f64) -> f64 {
    if x.is_nan() || x == f64::INFINITY {
        return f64::INFINITY;
    }
    if x == 0.0 {
        return f64::MIN_POSITIVE;
    }
    let bits = x.to_bits();
    f64::from_bits(if x > 0.0 { bits + 1 } else { bits - 1 })
}

/// What the pass knows about one column of one operator's output.
#[derive(Debug, Clone, PartialEq)]
pub struct ColDomain {
    /// Static type, when the type lattice resolved it.
    pub ty: Option<DataType>,
    /// Value bounds (meaningful for numeric columns; `FULL` otherwise).
    pub interval: Interval,
    /// Exact value taken by *every* row, when known.
    pub constant: Option<Value>,
    /// Upper bound on the number of distinct values, when known.
    pub distinct: Option<u64>,
    /// The engine has no NULLs; kept explicit so the lattice is honest
    /// about what it certifies.
    pub nullable: bool,
}

impl ColDomain {
    fn unknown(ty: Option<DataType>) -> ColDomain {
        ColDomain {
            ty,
            interval: Interval::FULL,
            constant: None,
            distinct: None,
            nullable: false,
        }
    }

    /// True when `v` is consistent with this domain (the soundness
    /// predicate the proptest checks against executed rows).
    pub fn admits(&self, v: &Value) -> bool {
        if let Some(ty) = self.ty {
            if v.data_type() != ty {
                return false;
            }
        }
        if let Some(c) = &self.constant {
            if c.try_cmp(v) != Some(std::cmp::Ordering::Equal) {
                return false;
            }
        }
        match v.as_f64() {
            Some(x) => self.interval.contains(x),
            None => true,
        }
    }
}

/// Guaranteed lower bounds on what executing the plan must cost.
///
/// `min_rows` and `min_bytes` bound the *cumulative* output rows and
/// bytes charged against the governor across all operators — charged
/// whether an operator's output is kept whole or streams through a
/// pipeline tile by tile. Both are reachable
/// floors, never estimates: a plan whose floor exceeds the budget can
/// only end in `ResourceExhausted` after wasted work.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Bounds {
    /// Total output rows across all operators, at minimum.
    pub min_rows: u64,
    /// Total output bytes across all operators, at minimum.
    pub min_bytes: u64,
}

/// The result of analyzing one plan.
#[derive(Debug, Clone)]
pub struct Dataflow {
    /// Per-column domains of the root operator's output.
    pub columns: BTreeMap<Col, ColDomain>,
    /// Guaranteed resource floors for admission control.
    pub bounds: Bounds,
    /// True when every operator output typed cleanly: the vectorized
    /// executor can run the whole plan on typed columns, and any
    /// runtime `Mixed` demotion is a diagnostic.
    pub mixed_free: bool,
    /// True when the root provably produces zero rows.
    pub provably_empty: bool,
    /// Root-cause contradictions, as `(plan path, reason)` pairs. Only
    /// the node that *introduced* each contradiction is listed — an
    /// empty child makes every ancestor empty, so ancestors are not
    /// repeated.
    pub contradictions: Vec<(String, String)>,
}

/// Run the pass over `plan`.
///
/// `rel_tables` (the query environment's relation-to-table binding)
/// enables the [`Plan::EmptyScan`] bookkeeping checks; without it they
/// are skipped, never guessed.
pub fn analyze_plan(plan: &Plan, catalog: &Catalog, rel_tables: Option<&[String]>) -> Dataflow {
    let mut cx = Cx {
        catalog,
        rel_tables,
        bounds: Bounds::default(),
        contradictions: Vec::new(),
        type_errors: Vec::new(),
        bounds_errors: Vec::new(),
    };
    let root = summarize(plan, "root", &mut cx);
    Dataflow {
        columns: root.cols,
        bounds: cx.bounds,
        mixed_free: root.typed,
        provably_empty: root.empty,
        contradictions: cx.contradictions,
    }
}

/// Analyzer entry point: surface dataflow findings as violations.
pub(crate) fn check(
    plan: &Plan,
    catalog: &Catalog,
    rel_tables: Option<&[String]>,
    out: &mut Vec<Violation>,
) {
    let mut cx = Cx {
        catalog,
        rel_tables,
        bounds: Bounds::default(),
        contradictions: Vec::new(),
        type_errors: Vec::new(),
        bounds_errors: Vec::new(),
    };
    let root = summarize(plan, "root", &mut cx);
    for (path, why) in cx.contradictions {
        out.push(Violation::warn(
            RULE_DOMAIN,
            path,
            format!("provably empty subtree was not pruned: {why}"),
        ));
    }
    for (path, msg) in cx.type_errors {
        out.push(Violation::error_at(RULE_TYPE, path, msg));
    }
    for (path, msg) in cx.bounds_errors {
        out.push(Violation::error_at(RULE_BOUNDS, path, msg));
    }
    if !root.typed {
        out.push(Violation::warn(
            RULE_TYPE,
            "root".into(),
            "plan cannot be certified Mixed-free: some operator output types did not resolve"
                .into(),
        ));
    }
}

/// Rewrite a provably-empty plan to [`Plan::EmptyScan`].
///
/// Returns the (possibly unchanged) plan and the number of subtrees
/// pruned. Because emptiness propagates through every operator (a join
/// with an empty child is empty, a group-by over no rows produces no
/// groups), the maximal provably-empty subtree containing any
/// contradiction is always the root — so the rewrite is root-or-nothing
/// and the count is 0 or 1. The rewrite is skipped (never guessed) when
/// any output column's type did not resolve.
pub fn prune_empty(plan: &Plan, catalog: &Catalog, rel_tables: Option<&[String]>) -> (Plan, usize) {
    let df = analyze_plan(plan, catalog, rel_tables);
    if !df.provably_empty {
        return (plan.clone(), 0);
    }
    let project: Vec<Col> = plan.output_cols().to_vec();
    let mut types = Vec::with_capacity(project.len());
    for c in &project {
        match df.columns.get(c).and_then(|d| d.ty) {
            Some(t) => types.push(t),
            None => return (plan.clone(), 0),
        }
    }
    let mask = plan.rel_set();
    let covers: Vec<RelId> = (0..64)
        .filter(|b| mask & (1u64 << b) != 0)
        .map(RelId)
        .collect();
    if covers.is_empty() {
        return (plan.clone(), 0);
    }
    let reason = df
        .contradictions
        .first()
        .map(|(path, why)| format!("{why} (at {path})"))
        .unwrap_or_else(|| "contradictory predicates".into());
    (Plan::empty_scan(covers, project, types, reason), 1)
}

// ---------------------------------------------------------------------------
// The bottom-up pass.
// ---------------------------------------------------------------------------

type DomainMap = BTreeMap<Col, ColDomain>;

struct Cx<'a> {
    catalog: &'a Catalog,
    rel_tables: Option<&'a [String]>,
    bounds: Bounds,
    contradictions: Vec<(String, String)>,
    type_errors: Vec<(String, String)>,
    bounds_errors: Vec<(String, String)>,
}

/// Per-node summary flowing up the recursion.
struct Node {
    cols: DomainMap,
    min_rows: u64,
    empty: bool,
    typed: bool,
}

/// Minimum bytes one output row of `cols` (restricted to `project`)
/// can charge, mirroring `Value::width` floors: 8 for numerics, 1 for
/// strings (`len().max(1)`) and bools, 0 when the type is unknown.
fn min_row_width(project: &[Col], cols: &DomainMap) -> u64 {
    project
        .iter()
        .map(|c| match cols.get(c).and_then(|d| d.ty) {
            Some(DataType::Int) | Some(DataType::Float) => 8,
            Some(DataType::Str) | Some(DataType::Bool) => 1,
            None => 0,
        })
        .sum()
}

/// Restrict a domain map to the node's projection; `true` iff every
/// projected column was present and typed.
fn project_domains(project: &[Col], avail: &DomainMap, out: &mut DomainMap) -> bool {
    let mut typed = true;
    for c in project {
        match avail.get(c) {
            Some(d) => {
                typed &= d.ty.is_some();
                out.insert(*c, d.clone());
            }
            None => {
                typed = false;
                out.insert(*c, ColDomain::unknown(None));
            }
        }
    }
    typed
}

/// Finish a node: compute its byte floor, fold it into the running
/// totals, and build the summary.
fn finish(
    cx: &mut Cx<'_>,
    project: &[Col],
    avail: &DomainMap,
    min_rows: u64,
    empty: bool,
    typed: bool,
) -> Node {
    let mut cols = DomainMap::new();
    let projected_typed = project_domains(project, avail, &mut cols);
    let min_rows = if empty { 0 } else { min_rows };
    let min_bytes = min_rows.saturating_mul(min_row_width(project, &cols));
    cx.bounds.min_rows = cx.bounds.min_rows.saturating_add(min_rows);
    cx.bounds.min_bytes = cx.bounds.min_bytes.saturating_add(min_bytes);
    Node {
        cols,
        min_rows,
        empty,
        typed: typed && projected_typed,
    }
}

fn summarize(plan: &Plan, path: &str, cx: &mut Cx<'_>) -> Node {
    match plan {
        Plan::Scan {
            rel,
            table,
            filters,
            project,
        } => {
            let mut avail = DomainMap::new();
            let mut typed = true;
            let mut rows = 0u64;
            match cx.catalog.get(table) {
                Ok(t) => {
                    rows = t.len() as u64;
                    let fresh = cx.catalog.stats_fresh(table);
                    let stats = t.stats();
                    for (i, f) in t.schema().fields().iter().enumerate() {
                        let mut d = ColDomain::unknown(Some(f.ty));
                        if fresh {
                            if let Some(cs) = stats.columns.get(i) {
                                d.distinct = Some(cs.distinct);
                                if f.ty.is_numeric() {
                                    if let (Some(lo), Some(hi)) = (cs.min, cs.max) {
                                        d.interval = Interval { lo, hi };
                                    }
                                }
                            }
                        }
                        avail.insert(Col::base(*rel, i), d);
                    }
                }
                Err(_) => typed = false,
            }
            let (empty, all_true) = apply_filters(filters, &mut avail, path, cx);
            let min_rows = if filters.is_empty() || all_true {
                rows
            } else {
                0
            };
            finish(cx, project, &avail, min_rows, empty, typed)
        }
        Plan::ExtentScan {
            table,
            cols,
            outputs,
            filters,
            project,
            ..
        } => {
            let mut avail = DomainMap::new();
            let mut typed = true;
            let mut rows = 0u64;
            match cx.catalog.get(table) {
                Ok(t) => {
                    rows = t.len() as u64;
                    let fresh = cx.catalog.stats_fresh(table);
                    let stats = t.stats();
                    for (&c, &o) in cols.iter().zip(outputs) {
                        let ty = t.schema().fields().get(c).map(|f| f.ty);
                        let mut d = ColDomain::unknown(ty);
                        if fresh {
                            if let Some(cs) = stats.columns.get(c) {
                                d.distinct = Some(cs.distinct);
                                if ty.is_some_and(DataType::is_numeric) {
                                    if let (Some(lo), Some(hi)) = (cs.min, cs.max) {
                                        d.interval = Interval { lo, hi };
                                    }
                                }
                            }
                        }
                        typed &= ty.is_some();
                        avail.insert(o, d);
                    }
                }
                Err(_) => typed = false,
            }
            let (empty, all_true) = apply_filters(filters, &mut avail, path, cx);
            let min_rows = if filters.is_empty() || all_true {
                rows
            } else {
                0
            };
            finish(cx, project, &avail, min_rows, empty, typed)
        }
        Plan::EmptyScan {
            covers,
            project,
            types,
            ..
        } => {
            let mut avail = DomainMap::new();
            for (c, ty) in project.iter().zip(types) {
                avail.insert(
                    *c,
                    ColDomain {
                        ty: Some(*ty),
                        interval: Interval::EMPTY,
                        constant: None,
                        distinct: Some(0),
                        nullable: false,
                    },
                );
            }
            if let Some(rel_tables) = cx.rel_tables {
                for r in covers {
                    if r.idx() >= rel_tables.len() {
                        cx.bounds_errors.push((
                            path.to_string(),
                            format!(
                                "empty scan covers undeclared relation {r}: relation-set and \
                                 admission-bounds bookkeeping would be corrupted"
                            ),
                        ));
                    }
                }
                for (c, ty) in project.iter().zip(types) {
                    let Some(cr) = c.as_base() else { continue };
                    let Some(table) = rel_tables.get(cr.rel.idx()) else {
                        continue;
                    };
                    let Ok(t) = cx.catalog.get(table) else {
                        continue;
                    };
                    if let Some(f) = t.schema().fields().get(cr.col as usize) {
                        if f.ty != *ty {
                            cx.type_errors.push((
                                path.to_string(),
                                format!(
                                    "empty scan records {c} as {} but `{table}` declares {}",
                                    ty, f.ty
                                ),
                            ));
                        }
                    }
                }
            }
            finish(cx, project, &avail, 0, true, true)
        }
        Plan::Join {
            left,
            right,
            preds,
            project,
            ..
        } => {
            let l = summarize(left, &format!("{path}.l"), cx);
            let r = summarize(right, &format!("{path}.r"), cx);
            let mut avail = l.cols;
            avail.extend(r.cols);
            let mut empty = l.empty || r.empty;
            let mut all_true = true;
            // An empty child already makes the join vacuous; the
            // contradiction was recorded where it arose.
            if !empty {
                let (e, t) = apply_filters(preds, &mut avail, path, cx);
                empty = e;
                all_true = t;
            }
            let min_rows = if !empty && all_true {
                l.min_rows.saturating_mul(r.min_rows)
            } else {
                0
            };
            finish(cx, project, &avail, min_rows, empty, l.typed && r.typed)
        }
        Plan::GroupBy {
            input,
            spec,
            project,
            ..
        } => {
            let i = summarize(input, &format!("{path}.in"), cx);
            let mut avail = DomainMap::new();
            let mut typed = i.typed;
            for g in &spec.group_cols {
                match i.cols.get(g) {
                    Some(d) => {
                        avail.insert(*g, d.clone());
                    }
                    None => {
                        typed = false;
                        avail.insert(*g, ColDomain::unknown(None));
                    }
                }
            }
            for (idx, a) in spec.aggs.iter().enumerate() {
                let d = agg_domain(a.func, a.arg.as_ref(), &i.cols);
                typed &= d.ty.is_some();
                avail.insert(Col::agg(spec.owner, idx), d);
            }
            let mut empty = i.empty;
            let mut all_true = true;
            if !empty {
                let (e, t) = apply_filters(&spec.having, &mut avail, path, cx);
                empty = e;
                all_true = t;
            }
            let min_rows = if !empty && i.min_rows >= 1 && (spec.having.is_empty() || all_true) {
                1
            } else {
                0
            };
            finish(cx, project, &avail, min_rows, empty, typed)
        }
        Plan::PartialAggregate {
            input,
            spec,
            project,
            ..
        } => {
            let i = summarize(input, &format!("{path}.in"), cx);
            let mut avail = DomainMap::new();
            let mut typed = i.typed;
            for g in &spec.group_cols {
                match i.cols.get(g) {
                    Some(d) => {
                        avail.insert(*g, d.clone());
                    }
                    None => {
                        typed = false;
                        avail.insert(*g, ColDomain::unknown(None));
                    }
                }
            }
            for (aref, a) in &spec.aggs {
                let parts = partial_domains(a.func, a.arg.as_ref(), &i.cols);
                for (k, d) in parts.into_iter().enumerate() {
                    typed &= d.ty.is_some();
                    avail.insert(Col::part(*aref, k), d);
                }
            }
            // The duplicate-factor column is a per-group COUNT(*):
            // every group is formed from at least one row.
            if let Some(c) = spec.count_col() {
                avail.insert(
                    c,
                    ColDomain {
                        ty: Some(DataType::Int),
                        interval: Interval {
                            lo: 1.0,
                            hi: f64::INFINITY,
                        },
                        constant: None,
                        distinct: None,
                        nullable: false,
                    },
                );
            }
            let min_rows = if !i.empty && i.min_rows >= 1 { 1 } else { 0 };
            finish(cx, project, &avail, min_rows, i.empty, typed)
        }
    }
}

/// Domain of a finalized aggregate output.
fn agg_domain(func: AggFunc, arg: Option<&Expr>, input: &DomainMap) -> ColDomain {
    let arg_dom = arg.map(|e| eval_expr(e, input));
    let arg_ty = arg_dom.as_ref().and_then(|d| d.ty);
    let ty = func.output_type(arg_ty).ok();
    let arg_iv = arg_dom.map_or(Interval::FULL, |d| d.interval);
    let interval = match func {
        // Groups are formed from rows, so every group holds ≥ 1.
        AggFunc::Count => Interval {
            lo: 1.0,
            hi: f64::INFINITY,
        },
        AggFunc::Sum => sum_widen(arg_iv),
        AggFunc::Min | AggFunc::Max => arg_iv,
        // The mean of values from an interval stays inside it.
        AggFunc::Avg => arg_iv,
        AggFunc::StdDev => Interval {
            lo: 0.0,
            hi: f64::INFINITY,
        },
    };
    ColDomain {
        ty,
        interval,
        constant: None,
        distinct: None,
        nullable: false,
    }
}

/// Domains of the partial-state components (paper Figure 2 order).
fn partial_domains(func: AggFunc, arg: Option<&Expr>, input: &DomainMap) -> Vec<ColDomain> {
    let arg_dom = arg.map(|e| eval_expr(e, input));
    let arg_ty = arg_dom.as_ref().and_then(|d| d.ty);
    let arg_iv = arg_dom.map_or(Interval::FULL, |d| d.interval);
    let tys = func.partial_types(arg_ty).ok();
    let count = Interval {
        lo: 1.0,
        hi: f64::INFINITY,
    };
    let nonneg = Interval {
        lo: 0.0,
        hi: f64::INFINITY,
    };
    let ivs: Vec<Interval> = match func {
        AggFunc::Count => vec![count],
        AggFunc::Sum => vec![sum_widen(arg_iv)],
        AggFunc::Min | AggFunc::Max => vec![arg_iv],
        AggFunc::Avg => vec![sum_widen(arg_iv), count],
        AggFunc::StdDev => vec![
            sum_widen(arg_iv),
            sum_widen(arg_iv.square()).hull(nonneg).intersect(nonneg),
            count,
        ],
    };
    ivs.into_iter()
        .enumerate()
        .map(|(k, interval)| ColDomain {
            ty: tys.as_ref().and_then(|t| t.get(k).copied()),
            interval,
            constant: None,
            distinct: None,
            nullable: false,
        })
        .collect()
}

/// Sum of ≥ 1 values from `arg`: sign-definite arguments keep one
/// bound, mixed-sign arguments widen fully.
fn sum_widen(arg: Interval) -> Interval {
    if arg.is_empty() {
        return Interval::EMPTY;
    }
    if arg.lo >= 0.0 {
        Interval {
            lo: arg.lo,
            hi: f64::INFINITY,
        }
    } else if arg.hi <= 0.0 {
        Interval {
            lo: f64::NEG_INFINITY,
            hi: arg.hi,
        }
    } else {
        Interval::FULL
    }
}

// ---------------------------------------------------------------------------
// Expressions and predicates over domains.
// ---------------------------------------------------------------------------

/// Abstract value of an expression over the current domains.
struct ExprDom {
    ty: Option<DataType>,
    interval: Interval,
    constant: Option<Value>,
}

fn eval_expr(e: &Expr, cols: &DomainMap) -> ExprDom {
    match e {
        Expr::Const(v) => ExprDom {
            ty: Some(v.data_type()),
            interval: v.as_f64().map_or(Interval::FULL, Interval::point),
            constant: Some(v.clone()),
        },
        Expr::Col(c) => match cols.get(c) {
            Some(d) => ExprDom {
                ty: d.ty,
                interval: d.interval,
                constant: d.constant.clone(),
            },
            None => ExprDom {
                ty: None,
                interval: Interval::FULL,
                constant: None,
            },
        },
        Expr::Binary { op, left, right } => {
            let l = eval_expr(left, cols);
            let r = eval_expr(right, cols);
            let ty = match (l.ty, r.ty) {
                (Some(a), Some(b)) if a.is_numeric() && b.is_numeric() => {
                    if *op == aggview_common::BinaryOp::Div
                        || a == DataType::Float
                        || b == DataType::Float
                    {
                        Some(DataType::Float)
                    } else {
                        Some(DataType::Int)
                    }
                }
                _ => None,
            };
            let interval = match op {
                aggview_common::BinaryOp::Add => l.interval + r.interval,
                aggview_common::BinaryOp::Sub => l.interval - r.interval,
                aggview_common::BinaryOp::Mul => l.interval * r.interval,
                aggview_common::BinaryOp::Div => l.interval / r.interval,
            };
            // Constant folding mirrors `eval_binary` exactly: checked
            // integer arithmetic (overflow would error at runtime, so
            // the fold abstains), float division by a non-zero.
            let constant = match (&l.constant, &r.constant) {
                (Some(a), Some(b)) => fold_binary(*op, a, b),
                _ => None,
            };
            ExprDom {
                ty,
                interval,
                constant,
            }
        }
    }
}

/// Constant-fold `a op b` with the runtime's exact semantics, or
/// abstain (`None`) where the runtime would error.
fn fold_binary(op: aggview_common::BinaryOp, a: &Value, b: &Value) -> Option<Value> {
    use aggview_common::BinaryOp;
    if let (Some(x), Some(y)) = (a.as_i64(), b.as_i64()) {
        return match op {
            BinaryOp::Add => x.checked_add(y).map(Value::Int),
            BinaryOp::Sub => x.checked_sub(y).map(Value::Int),
            BinaryOp::Mul => x.checked_mul(y).map(Value::Int),
            BinaryOp::Div => {
                if y == 0 {
                    None
                } else {
                    Some(Value::Float(x as f64 / y as f64))
                }
            }
        };
    }
    let (x, y) = (a.as_f64()?, b.as_f64()?);
    match op {
        BinaryOp::Add => Some(Value::Float(x + y)),
        BinaryOp::Sub => Some(Value::Float(x - y)),
        BinaryOp::Mul => Some(Value::Float(x * y)),
        BinaryOp::Div => {
            if y == 0.0 {
                None
            } else {
                Some(Value::Float(x / y))
            }
        }
    }
}

/// Three-valued truth of a predicate over the current domains.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tri {
    True,
    False,
    Unknown,
}

fn truth(p: &Predicate, cols: &DomainMap) -> Tri {
    let l = eval_expr(&p.left, cols);
    let r = eval_expr(&p.right, cols);
    if let (Some(a), Some(b)) = (&l.constant, &r.constant) {
        if let Some(ord) = a.try_cmp(b) {
            return if p.op.matches(ord) {
                Tri::True
            } else {
                Tri::False
            };
        }
        return Tri::Unknown;
    }
    let (a, b) = (l.interval, r.interval);
    if a.is_empty() || b.is_empty() {
        return Tri::Unknown;
    }
    match p.op {
        CmpOp::Lt => cmp_tri(a.hi < b.lo, a.lo >= b.hi),
        CmpOp::Le => cmp_tri(a.hi <= b.lo, a.lo > b.hi),
        CmpOp::Gt => cmp_tri(a.lo > b.hi, a.hi <= b.lo),
        CmpOp::Ge => cmp_tri(a.lo >= b.hi, a.hi < b.lo),
        CmpOp::Eq => {
            if a.hi < b.lo || b.hi < a.lo {
                Tri::False
            } else {
                Tri::Unknown
            }
        }
        CmpOp::Ne => {
            if a.hi < b.lo || b.hi < a.lo {
                Tri::True
            } else {
                Tri::Unknown
            }
        }
    }
}

fn cmp_tri(provably: bool, refutably: bool) -> Tri {
    if provably {
        Tri::True
    } else if refutably {
        Tri::False
    } else {
        Tri::Unknown
    }
}

/// Apply a conjunction of predicates to the domains, to fixpoint.
///
/// Returns `(empty, all_provably_true)`:
/// * `empty` — some predicate is provably false over the domains, or a
///   column's refined interval became empty; the node produces no
///   rows. The contradiction is recorded in `cx` with this node's
///   path.
/// * `all_provably_true` — every predicate was already provably true
///   over the domains *before* refinement, so the node passes all its
///   input rows through (used for row lower bounds; evaluated against
///   the pre-refinement snapshot to avoid predicates certifying
///   themselves).
fn apply_filters(
    preds: &[Predicate],
    cols: &mut DomainMap,
    path: &str,
    cx: &mut Cx<'_>,
) -> (bool, bool) {
    if preds.is_empty() {
        return (false, true);
    }
    let all_true = preds.iter().all(|p| truth(p, cols) == Tri::True);
    // Fixpoint: equalities propagate transitively (x = y, y = z), so a
    // second pass can tighten what the first learned. Plans are small;
    // cap the iteration defensively.
    for _ in 0..8 {
        let before = cols.clone();
        for p in preds {
            if let Err(why) = refine(p, cols) {
                cx.contradictions.push((path.to_string(), why));
                return (true, false);
            }
        }
        if *cols == before {
            break;
        }
    }
    (false, all_true)
}

/// Refine domains with one predicate; `Err(reason)` on contradiction.
fn refine(p: &Predicate, cols: &mut DomainMap) -> Result<(), String> {
    if truth(p, cols) == Tri::False {
        return Err(format!("predicate `{p}` is provably false"));
    }
    let r = eval_expr(&p.right, cols);
    refine_side(&p.left, p.op, &r, cols, p)?;
    let l = eval_expr(&p.left, cols);
    refine_side(&p.right, p.op.flipped(), &l, cols, p)?;
    Ok(())
}

/// Tighten the domain of `side` (when it is a bare column) against the
/// abstract value of the other side.
fn refine_side(
    side: &Expr,
    op: CmpOp,
    other: &ExprDom,
    cols: &mut DomainMap,
    p: &Predicate,
) -> Result<(), String> {
    let Expr::Col(c) = side else { return Ok(()) };
    let Some(d) = cols.get_mut(c) else {
        return Ok(());
    };
    let is_int = d.ty == Some(DataType::Int);
    let numeric = d.ty.is_some_and(DataType::is_numeric);
    match op {
        CmpOp::Eq => {
            if let Some(v) = &other.constant {
                match &d.constant {
                    Some(cur) => {
                        if cur.try_cmp(v) == Some(std::cmp::Ordering::Equal) {
                            // Already known.
                        } else if cur.try_cmp(v).is_some() {
                            return Err(format!(
                                "predicate `{p}` requires {c} = {v} but {c} is always {cur}"
                            ));
                        }
                    }
                    None => {
                        if d.ty.is_none() || d.ty == Some(v.data_type()) || numeric {
                            d.constant = Some(v.clone());
                            d.distinct = Some(1);
                        }
                    }
                }
            }
            if numeric {
                d.interval = d.interval.intersect(other.interval);
            }
        }
        CmpOp::Ne => {
            // Inequality prunes nothing from an interval; pure
            // contradiction (constant vs constant) is caught by
            // `truth` before refinement.
        }
        CmpOp::Lt if numeric => {
            let mut hi = other.interval.hi;
            if is_int {
                hi = if hi.fract() == 0.0 {
                    hi - 1.0
                } else {
                    hi.floor()
                };
            }
            d.interval.hi = d.interval.hi.min(hi);
        }
        CmpOp::Le if numeric => {
            let mut hi = other.interval.hi;
            if is_int {
                hi = hi.floor();
            }
            d.interval.hi = d.interval.hi.min(hi);
        }
        CmpOp::Gt if numeric => {
            let mut lo = other.interval.lo;
            if is_int {
                lo = if lo.fract() == 0.0 {
                    lo + 1.0
                } else {
                    lo.ceil()
                };
            }
            d.interval.lo = d.interval.lo.max(lo);
        }
        CmpOp::Ge if numeric => {
            let mut lo = other.interval.lo;
            if is_int {
                lo = lo.ceil();
            }
            d.interval.lo = d.interval.lo.max(lo);
        }
        _ => {}
    }
    if numeric {
        if d.interval.is_empty() {
            return Err(format!(
                "predicate `{p}` leaves {c} with an empty value domain"
            ));
        }
        // A pinched interval names the constant.
        if d.constant.is_none() && d.interval.lo == d.interval.hi && d.interval.lo.is_finite() {
            let x = d.interval.lo;
            d.constant = match d.ty {
                Some(DataType::Int) if x.fract() == 0.0 && x.abs() < 9.0e15 => {
                    Some(Value::Int(x as i64))
                }
                Some(DataType::Float) => Some(Value::Float(x)),
                _ => None,
            };
            if d.constant.is_some() {
                d.distinct = Some(1);
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::Severity;
    use super::*;
    use crate::plan::{all_cols, GroupBySpec};
    use aggview_common::{AggSpec, Schema, ViewId};
    use aggview_storage::Table;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        let mut b = Table::builder(
            "emp",
            Schema::of(&[
                ("eno", DataType::Int),
                ("dno", DataType::Int),
                ("sal", DataType::Float),
            ]),
        );
        for i in 0..10i64 {
            b = b
                .row(vec![
                    Value::Int(i),
                    Value::Int(i % 3),
                    Value::Float(1000.0 + 100.0 * i as f64),
                ])
                .unwrap();
        }
        cat.add(b.build().unwrap()).unwrap();
        cat
    }

    fn scan(filters: Vec<Predicate>) -> Plan {
        Plan::scan(RelId(0), "emp", filters, all_cols(RelId(0), 3))
    }

    #[test]
    fn interval_arithmetic_is_outward() {
        let a = Interval { lo: 1.0, hi: 2.0 };
        let b = Interval { lo: -3.0, hi: 5.0 };
        let s = a + b;
        assert!(s.lo <= -2.0 && s.hi >= 7.0);
        let d = a - b;
        assert!(d.lo <= -4.0 && d.hi >= 5.0);
        let m = a * b;
        assert!(m.lo <= -6.0 && m.hi >= 10.0);
        assert!((a / b).is_full(), "divisor spans zero");
        let q = a / Interval { lo: 2.0, hi: 4.0 };
        assert!(q.lo <= 0.25 && q.hi >= 1.0);
    }

    #[test]
    fn square_is_tighter_than_mul() {
        let a = Interval { lo: -2.0, hi: 3.0 };
        let sq = a.square();
        assert!(sq.lo <= 0.0 && sq.lo >= -1e-9);
        assert!(sq.hi >= 9.0 && sq.hi < 10.0);
    }

    #[test]
    fn stats_seed_scan_domains() {
        let cat = catalog();
        let df = analyze_plan(&scan(vec![]), &cat, None);
        let sal = &df.columns[&Col::base(RelId(0), 2)];
        assert_eq!(sal.ty, Some(DataType::Float));
        assert!(sal.interval.contains(1000.0) && sal.interval.contains(1900.0));
        assert!(!sal.interval.contains(999.0) || sal.interval.lo <= 999.0);
        assert_eq!(sal.distinct, Some(10));
        assert!(df.mixed_free);
        assert!(!df.provably_empty);
        // Unfiltered scan must charge all 10 rows: 3 numeric cols × 8B.
        assert_eq!(df.bounds.min_rows, 10);
        assert_eq!(df.bounds.min_bytes, 240);
    }

    #[test]
    fn stale_stats_do_not_seed() {
        let cat = catalog();
        cat.mark_modified("emp").unwrap();
        let df = analyze_plan(&scan(vec![]), &cat, None);
        let sal = &df.columns[&Col::base(RelId(0), 2)];
        assert!(sal.interval.is_full());
        assert_eq!(sal.distinct, None);
    }

    #[test]
    fn contradiction_is_detected_with_int_tightening() {
        let cat = catalog();
        // eno > 5 AND eno < 3 — classic contradiction.
        let p = scan(vec![
            Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Gt, Value::Int(5)),
            Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Lt, Value::Int(3)),
        ]);
        let df = analyze_plan(&p, &cat, None);
        assert!(df.provably_empty);
        assert_eq!(df.contradictions.len(), 1);
        // Int tightening: eno < 6 AND eno > 4 pins eno = 5.
        let p = scan(vec![
            Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Lt, Value::Int(6)),
            Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Gt, Value::Int(4)),
        ]);
        let df = analyze_plan(&p, &cat, None);
        assert!(!df.provably_empty);
        let eno = &df.columns[&Col::base(RelId(0), 0)];
        assert_eq!(eno.constant, Some(Value::Int(5)));
    }

    #[test]
    fn equality_chain_propagates_intervals() {
        let cat = catalog();
        let l = scan(vec![Predicate::cmp_const(
            Col::base(RelId(0), 1),
            CmpOp::Le,
            Value::Int(1),
        )]);
        let r = Plan::scan(RelId(1), "emp", vec![], all_cols(RelId(1), 3));
        let join = Plan::join(
            l,
            r,
            vec![Predicate::eq_cols(
                Col::base(RelId(0), 1),
                Col::base(RelId(1), 1),
            )],
            vec![Col::base(RelId(0), 0), Col::base(RelId(1), 1)],
        );
        let df = analyze_plan(&join, &cat, None);
        let rd = &df.columns[&Col::base(RelId(1), 1)];
        assert!(rd.interval.hi <= 1.0, "equated column inherits the bound");
    }

    #[test]
    fn contradictory_join_pred_empties_the_join() {
        let cat = catalog();
        let l = scan(vec![Predicate::cmp_const(
            Col::base(RelId(0), 0),
            CmpOp::Le,
            Value::Int(2),
        )]);
        let r = Plan::scan(
            RelId(1),
            "emp",
            vec![Predicate::cmp_const(
                Col::base(RelId(1), 0),
                CmpOp::Ge,
                Value::Int(7),
            )],
            all_cols(RelId(1), 3),
        );
        let join = Plan::join(
            l,
            r,
            vec![Predicate::eq_cols(
                Col::base(RelId(0), 0),
                Col::base(RelId(1), 0),
            )],
            vec![Col::base(RelId(0), 0)],
        );
        let df = analyze_plan(&join, &cat, None);
        assert!(df.provably_empty);
    }

    #[test]
    fn prune_rewrites_root_to_empty_scan() {
        let cat = catalog();
        let p = scan(vec![
            Predicate::cmp_const(Col::base(RelId(0), 2), CmpOp::Gt, Value::Float(5000.0)),
            Predicate::cmp_const(Col::base(RelId(0), 2), CmpOp::Lt, Value::Float(3000.0)),
        ]);
        let (pruned, n) = prune_empty(&p, &cat, None);
        assert_eq!(n, 1);
        match &pruned {
            Plan::EmptyScan { covers, types, .. } => {
                assert_eq!(covers, &vec![RelId(0)]);
                assert_eq!(types, &vec![DataType::Int, DataType::Int, DataType::Float]);
            }
            other => panic!("expected EmptyScan, got {other:?}"),
        }
        let (same, n) = prune_empty(&scan(vec![]), &cat, None);
        assert_eq!(n, 0);
        assert_eq!(same, scan(vec![]));
    }

    #[test]
    fn group_by_domains_and_bounds() {
        let cat = catalog();
        let spec = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![
                AggSpec::count_star(),
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(0), 2))),
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(RelId(0), 2))),
            ],
            having: vec![],
        };
        let project = vec![
            Col::base(RelId(0), 1),
            Col::agg(ViewId::View(0), 0),
            Col::agg(ViewId::View(0), 1),
            Col::agg(ViewId::View(0), 2),
        ];
        let gb = Plan::group_by(scan(vec![]), spec, project);
        let df = analyze_plan(&gb, &cat, None);
        assert!(df.mixed_free);
        let cnt = &df.columns[&Col::agg(ViewId::View(0), 0)];
        assert_eq!(cnt.ty, Some(DataType::Int));
        assert!(cnt.interval.lo >= 1.0);
        let sum = &df.columns[&Col::agg(ViewId::View(0), 1)];
        assert_eq!(sum.ty, Some(DataType::Float));
        assert!(sum.interval.lo <= 1000.0 && sum.interval.lo > 0.0);
        let avg = &df.columns[&Col::agg(ViewId::View(0), 2)];
        assert!(avg.interval.contains(1450.0));
        assert!(!avg.interval.contains(100.0));
        // Scan (10 rows) + one guaranteed group.
        assert_eq!(df.bounds.min_rows, 11);
    }

    #[test]
    fn having_contradiction_empties_group_by() {
        let cat = catalog();
        let spec = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![AggSpec::new(
                AggFunc::Min,
                Expr::col(Col::base(RelId(0), 2)),
            )],
            // MIN(sal) < 0 is impossible: sal ∈ [1000, 1900].
            having: vec![Predicate::cmp_const(
                Col::agg(ViewId::View(0), 0),
                CmpOp::Lt,
                Value::Float(0.0),
            )],
        };
        let gb = Plan::group_by(
            scan(vec![]),
            spec,
            vec![Col::base(RelId(0), 1), Col::agg(ViewId::View(0), 0)],
        );
        let df = analyze_plan(&gb, &cat, None);
        assert!(df.provably_empty);
        // COUNT must stay unbounded above: `HAVING count > N` is never
        // a contradiction.
        let spec = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![AggSpec::count_star()],
            having: vec![Predicate::cmp_const(
                Col::agg(ViewId::View(0), 0),
                CmpOp::Gt,
                Value::Int(1_000_000),
            )],
        };
        let gb = Plan::group_by(
            scan(vec![]),
            spec,
            vec![Col::base(RelId(0), 1), Col::agg(ViewId::View(0), 0)],
        );
        let df = analyze_plan(&gb, &cat, None);
        assert!(!df.provably_empty);
    }

    #[test]
    fn empty_scan_type_lie_is_an_error() {
        let cat = catalog();
        let rels = vec!["emp".to_string()];
        let good = Plan::empty_scan(
            vec![RelId(0)],
            vec![Col::base(RelId(0), 0)],
            vec![DataType::Int],
            "test",
        );
        let mut out = Vec::new();
        check(&good, &cat, Some(&rels), &mut out);
        assert!(out.is_empty(), "{out:?}");
        let lie = Plan::empty_scan(
            vec![RelId(0)],
            vec![Col::base(RelId(0), 0)],
            vec![DataType::Str],
            "test",
        );
        let mut out = Vec::new();
        check(&lie, &cat, Some(&rels), &mut out);
        assert!(out
            .iter()
            .any(|v| v.rule == RULE_TYPE && v.severity == Severity::Error));
        let phantom = Plan::empty_scan(
            vec![RelId(0), RelId(9)],
            vec![Col::base(RelId(0), 0)],
            vec![DataType::Int],
            "test",
        );
        let mut out = Vec::new();
        check(&phantom, &cat, Some(&rels), &mut out);
        assert!(out
            .iter()
            .any(|v| v.rule == RULE_BOUNDS && v.severity == Severity::Error));
    }

    #[test]
    fn unpruned_contradiction_is_a_warning() {
        let cat = catalog();
        let p = scan(vec![
            Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Gt, Value::Int(5)),
            Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Lt, Value::Int(3)),
        ]);
        let mut out = Vec::new();
        check(&p, &cat, None, &mut out);
        let w = out
            .iter()
            .find(|v| v.rule == RULE_DOMAIN)
            .expect("domain warning");
        assert_eq!(w.severity, Severity::Warning);
        assert_eq!(w.code, "DF001");
        assert_eq!(w.path, "root");
    }

    #[test]
    fn filtered_scan_has_zero_row_floor() {
        let cat = catalog();
        let p = scan(vec![Predicate::cmp_const(
            Col::base(RelId(0), 0),
            CmpOp::Gt,
            Value::Int(5),
        )]);
        let df = analyze_plan(&p, &cat, None);
        assert_eq!(df.bounds.min_rows, 0);
        // A provably-true filter keeps the floor at the table size.
        let p = scan(vec![Predicate::cmp_const(
            Col::base(RelId(0), 0),
            CmpOp::Ge,
            Value::Int(0),
        )]);
        let df = analyze_plan(&p, &cat, None);
        assert_eq!(df.bounds.min_rows, 10);
    }

    #[test]
    fn output_types_resolves_agg_columns() {
        let cat = catalog();
        let spec = GroupBySpec {
            owner: ViewId::View(0),
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![
                AggSpec::count_star(),
                AggSpec::new(AggFunc::Avg, Expr::col(Col::base(RelId(0), 2))),
            ],
            having: vec![],
        };
        let gb = Plan::group_by(
            scan(vec![]),
            spec,
            vec![
                Col::base(RelId(0), 1),
                Col::agg(ViewId::View(0), 0),
                Col::agg(ViewId::View(0), 1),
            ],
        );
        let df = analyze_plan(&gb, &cat, None);
        assert!(df.mixed_free, "typed plan");
        let ty = |c: Col| df.columns[&c].ty;
        assert_eq!(ty(Col::agg(ViewId::View(0), 0)), Some(DataType::Int));
        assert_eq!(ty(Col::agg(ViewId::View(0), 1)), Some(DataType::Float));
        assert_eq!(ty(Col::base(RelId(0), 1)), Some(DataType::Int));
    }
}
