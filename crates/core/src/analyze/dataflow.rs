//! Bottom-up abstract interpretation of plan trees: the one walk that
//! types, scopes and bounds a plan.
//!
//! The structural rules in [`super::rules`] re-check the paper's
//! transformation invariants; this pass reasons about the columns and
//! *values* flowing through a plan. For every operator output it
//! computes a [`ColDomain`] per column — a static type, a closed numeric
//! interval and an optional known constant, seeded from the `min`/`max`
//! bounds of fresh [`aggview_storage::TableStats`] — by
//! propagating intervals through [`Predicate`]s and [`Expr`]s, folding
//! constants with the runtime's [`aggview_common::eval_binary`] (an
//! `INT` node that may overflow bounds nothing), and intersecting the domains of columns equated by join
//! predicates (the implied-predicate fixpoint subsumes an explicit
//! equivalence-class closure: `x = y` and `y = z` converge to a shared
//! interval after two passes).
//!
//! Four consumers sit on top of the domains:
//!
//! * **Legality** — the paper's *legal operator tree* (Section 2):
//!   every column an operator reads is produced below it (so scan
//!   filters are local and HAVING sees only the group keys and the
//!   operator's own aggregates), join children are disjoint, scans read
//!   the tables the query binds, and aggregate arguments, partial-state
//!   components and predicate operands type. Each defect is a `schema`
//!   (`AV001`) error recorded where the column failed to resolve; a
//!   column left unresolved is not reported again above it.
//! * **Contradiction detection** — a predicate whose truth value is
//!   provably `false` over the current domains (e.g. `x > 5 AND x < 3`)
//!   makes the subtree provably empty, and emptiness propagates through
//!   every operator above it. The analyzer reports each contradiction
//!   where it arose as a `dataflow-domain` warning, and the executor's
//!   gate answers a plan whose root is provably empty with no rows
//!   before any operator runs.
//! * **Type certification** — a plan with no schema finding gives every
//!   operator output a static type, and the executor runs it on typed
//!   columns only: every kernel is chosen once per operator from its
//!   input columns' types. The engine refuses a plan with a schema
//!   finding before any kernel runs, so no kernel meets a value of
//!   another type than its column's (tables conform values on entry).
//! * **Admission bounds** — guaranteed lower bounds on the rows and
//!   bytes every execution of the plan must charge against the
//!   governor. The executor rejects a plan whose bounds already exceed
//!   the budget with
//!   [`aggview_common::AggViewError::PlanInadmissible`] before any work
//!   runs.
//!
//! Findings cost nothing until they fire: messages and node paths
//! (`root.l.in`) are formatted only when one is recorded.
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
use aggview_common::{
    eval_binary, AggFunc, AggRef, AggSpec, BinaryOp, CmpOp, Col, DataType, Expr, Predicate, Value,
};
use aggview_storage::{Catalog, ColumnStats};
use std::collections::BTreeMap;
use std::fmt;

/// Rule name for legality and typing findings: a column an operator
/// reads that nothing below produces, an unknown table, a scan of a
/// relation the query binds elsewhere, overlapping join children, an
/// ill-typed expression or comparison. Severity: error.
pub const RULE_SCHEMA: &str = "schema";
/// Rule name for contradiction findings (a predicate that makes the
/// plan provably empty). Severity: warning — the plan is correct, and
/// the executor answers it without running it.
pub const RULE_DOMAIN: &str = "dataflow-domain";

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
    /// Static type; `None` when the column did not resolve (a schema
    /// finding was recorded for it).
    pub ty: Option<DataType>,
    /// Value bounds (meaningful for numeric columns; `FULL` otherwise).
    pub interval: Interval,
    /// Exact value taken by *every* row, when known.
    pub constant: Option<Value>,
    /// The engine has no NULLs; kept explicit so the lattice is honest
    /// about what it certifies.
    pub nullable: bool,
}

/// Every group holds at least one row, and so does every COUNT.
const AT_LEAST_ONE: Interval = Interval {
    lo: 1.0,
    hi: f64::INFINITY,
};

const NON_NEGATIVE: Interval = Interval {
    lo: 0.0,
    hi: f64::INFINITY,
};

impl ColDomain {
    fn unknown(ty: Option<DataType>) -> ColDomain {
        ColDomain::within(ty, Interval::FULL)
    }

    fn within(ty: Option<DataType>, interval: Interval) -> ColDomain {
        ColDomain {
            ty,
            interval,
            constant: None,
            nullable: false,
        }
    }

    /// A stored column's domain: its type, plus the `min`/`max` bounds
    /// of its statistics when they are fresh (a superset of the values
    /// it holds, which is what soundness asks).
    fn stored(ty: DataType, stats: Option<&ColumnStats>) -> ColDomain {
        let mut d = ColDomain::unknown(Some(ty));
        if let Some(cs) = stats {
            if ty.is_numeric() {
                if let (Some(lo), Some(hi)) = (cs.min, cs.max) {
                    d.interval = Interval { lo, hi };
                }
            }
        }
        d
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
    /// True when the root provably produces zero rows.
    pub provably_empty: bool,
    /// Root-cause contradictions, as `(plan path, reason)` pairs. Only
    /// the node that *introduced* each contradiction is listed — an
    /// empty child makes every ancestor empty, so ancestors are not
    /// repeated.
    pub contradictions: Vec<(String, String)>,
    /// Every finding, in discovery order: schema errors, then one
    /// warning per contradiction.
    pub findings: Vec<Violation>,
}

/// Run the pass over `plan`.
///
/// `rel_tables` (the query environment's relation-to-table binding)
/// enables the scan-binding check; without it the check is skipped,
/// never guessed.
pub fn analyze_plan(plan: &Plan, catalog: &Catalog, rel_tables: Option<&[String]>) -> Dataflow {
    let mut cx = Cx {
        catalog,
        rel_tables,
        bounds: Bounds::default(),
        contradictions: Vec::new(),
        findings: Vec::new(),
    };
    let root = summarize(plan, &Path::ROOT, &mut cx);
    let mut findings = cx.findings;
    findings.extend(cx.contradictions.iter().map(|(path, why)| {
        Violation::warn(
            RULE_DOMAIN,
            path.clone(),
            format!("plan is provably empty: {why}"),
        )
    }));
    Dataflow {
        columns: root.cols,
        bounds: cx.bounds,
        provably_empty: root.empty,
        contradictions: cx.contradictions,
        findings,
    }
}

// ---------------------------------------------------------------------------
// The bottom-up pass.
// ---------------------------------------------------------------------------

type DomainMap = BTreeMap<Col, ColDomain>;

/// A node's position in the plan (`root.l.in`), rendered only when a
/// finding names it.
#[derive(Clone, Copy)]
struct Path<'a> {
    parent: Option<&'a Path<'a>>,
    step: &'static str,
}

impl Path<'_> {
    const ROOT: Path<'static> = Path {
        parent: None,
        step: "root",
    };

    fn child(&self, step: &'static str) -> Path<'_> {
        Path {
            parent: Some(self),
            step,
        }
    }
}

impl fmt::Display for Path<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if let Some(parent) = self.parent {
            write!(f, "{parent}.")?;
        }
        f.write_str(self.step)
    }
}

struct Cx<'a> {
    catalog: &'a Catalog,
    rel_tables: Option<&'a [String]>,
    bounds: Bounds,
    contradictions: Vec<(String, String)>,
    findings: Vec<Violation>,
}

/// Record a schema (`AV001`) error at `path`.
macro_rules! schema {
    ($cx:expr, $path:expr, $($msg:tt)+) => {
        $cx.findings.push(Violation::error_at(
            RULE_SCHEMA,
            $path.to_string(),
            format!($($msg)+),
        ))
    };
}

/// How findings name an operator.
#[derive(Clone, Copy)]
struct Named<'p>(&'p Plan);

impl fmt::Display for Named<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.0 {
            Plan::Scan { rel, .. } => write!(f, "scan of {rel}"),
            Plan::ExtentScan { view, .. } => write!(f, "extent scan of `{view}`"),
            Plan::Join { .. } => f.write_str("join"),
            Plan::GroupBy { spec, .. } => write!(f, "group-by {}", spec.owner),
            Plan::PartialAggregate { .. } => f.write_str("partial aggregate"),
        }
    }
}

/// Per-node summary flowing up the recursion.
struct Node {
    cols: DomainMap,
    min_rows: u64,
    empty: bool,
}

/// A node whose output could not be typed at all (an unknown table, a
/// malformed leaf; the finding is recorded): its columns are
/// unresolved, so nothing above reports them again.
fn unresolved(plan: &Plan) -> Node {
    Node {
        cols: plan
            .output_cols()
            .iter()
            .map(|c| (*c, ColDomain::unknown(None)))
            .collect(),
        min_rows: 0,
        empty: false,
    }
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

/// Domains of the grouping columns, carried over from the input; a
/// grouping column the input does not produce is a finding.
fn group_domains(
    group_cols: &[Col],
    input: &DomainMap,
    who: Named<'_>,
    path: &Path<'_>,
    cx: &mut Cx<'_>,
) -> DomainMap {
    let mut avail = DomainMap::new();
    for g in group_cols {
        let d = input.get(g).cloned().unwrap_or_else(|| {
            schema!(
                cx,
                path,
                "{who} groups on {g}, which its input does not produce"
            );
            ColDomain::unknown(None)
        });
        avail.insert(*g, d);
    }
    avail
}

/// Summarize one node: what its output columns hold, the rows it
/// must produce, and whether it provably produces none. Its row and
/// byte floors are folded into the running totals.
fn summarize(plan: &Plan, path: &Path<'_>, cx: &mut Cx<'_>) -> Node {
    let who = Named(plan);
    let (avail, min_rows, empty) = match plan {
        Plan::Scan {
            rel,
            table,
            filters,
            ..
        } => {
            let t = match cx.catalog.get(table) {
                Ok(t) => t,
                Err(e) => {
                    schema!(cx, path, "{who}: {}", e.message());
                    return unresolved(plan);
                }
            };
            match cx.rel_tables.map(|tables| tables.get(rel.idx())) {
                Some(Some(declared)) if !declared.eq_ignore_ascii_case(table) => schema!(
                    cx,
                    path,
                    "{who} names table `{table}` but the query binds {rel} to `{declared}`"
                ),
                Some(None) => schema!(
                    cx,
                    path,
                    "scan of undeclared relation {rel} (table `{table}`)"
                ),
                _ => {}
            }
            let fresh = cx.catalog.stats_fresh(table);
            let stats = &t.stats().columns;
            let mut avail = DomainMap::new();
            for (i, f) in t.schema().fields().iter().enumerate() {
                let d = ColDomain::stored(f.ty, stats.get(i).filter(|_| fresh));
                avail.insert(Col::base(*rel, i), d);
            }
            check_predicates(filters, &avail, who, "filter", path, cx);
            let (empty, all_true) = apply_filters(filters, &mut avail, path, cx);
            (avail, if all_true { t.len() as u64 } else { 0 }, empty)
        }
        Plan::ExtentScan {
            table,
            covers,
            cols,
            outputs,
            filters,
            ..
        } => {
            let t = match cx.catalog.get(table) {
                Ok(t) => t,
                Err(e) => {
                    schema!(cx, path, "{who}: {}", e.message());
                    return unresolved(plan);
                }
            };
            if covers.is_empty() {
                schema!(cx, path, "{who} covers no relations");
            }
            if cols.len() != outputs.len() {
                let (c, o) = (cols.len(), outputs.len());
                schema!(cx, path, "{who} maps {c} physical columns to {o} outputs");
                return unresolved(plan);
            }
            let fresh = cx.catalog.stats_fresh(table);
            let stats = &t.stats().columns;
            let fields = t.schema().fields();
            let mut avail = DomainMap::new();
            for (&c, &o) in cols.iter().zip(outputs) {
                let d = match fields.get(c) {
                    Some(f) => ColDomain::stored(f.ty, stats.get(c).filter(|_| fresh)),
                    None => {
                        let n = fields.len();
                        schema!(
                            cx,
                            path,
                            "{who} reads column {c} of the {n}-column extent `{table}`"
                        );
                        ColDomain::unknown(None)
                    }
                };
                avail.insert(o, d);
            }
            check_predicates(filters, &avail, who, "filter", path, cx);
            let (empty, all_true) = apply_filters(filters, &mut avail, path, cx);
            (avail, if all_true { t.len() as u64 } else { 0 }, empty)
        }
        Plan::Join {
            left, right, preds, ..
        } => {
            let l = summarize(left, &path.child("l"), cx);
            let r = summarize(right, &path.child("r"), cx);
            if left.rel_set() & right.rel_set() != 0 {
                schema!(cx, path, "{who} children overlap in base relations");
            }
            let mut avail = l.cols;
            avail.extend(r.cols);
            check_predicates(preds, &avail, who, "predicate", path, cx);
            // An empty child already makes the join vacuous; the
            // contradiction was recorded where it arose.
            let (empty, all_true) = if l.empty || r.empty {
                (true, false)
            } else {
                apply_filters(preds, &mut avail, path, cx)
            };
            let min_rows = if all_true {
                l.min_rows.saturating_mul(r.min_rows)
            } else {
                0
            };
            (avail, min_rows, empty)
        }
        Plan::GroupBy { input, spec, .. } => {
            let i = summarize(input, &path.child("in"), cx);
            let owner = spec.owner;
            let mut avail = group_domains(&spec.group_cols, &i.cols, who, path, cx);
            for (idx, a) in spec.aggs.iter().enumerate() {
                let aref = spec.agg_ref(idx);
                // Coalescing: an input carrying this aggregate's partial
                // states is merged, not aggregated from the raw argument.
                let d = match i.cols.get(&Col::part(aref, 0)) {
                    Some(first) => merged_domain(a, aref, first, &i.cols, who, path, cx),
                    None => agg_domain(a, &i.cols, who, path, cx),
                };
                avail.insert(Col::agg(owner, idx), d);
            }
            check_predicates(&spec.having, &avail, who, "HAVING", path, cx);
            let (empty, all_true) = if i.empty {
                (true, false)
            } else {
                apply_filters(&spec.having, &mut avail, path, cx)
            };
            let min_rows = u64::from(all_true && i.min_rows >= 1);
            (avail, min_rows, empty)
        }
        Plan::PartialAggregate { input, spec, .. } => {
            let i = summarize(input, &path.child("in"), cx);
            let mut avail = group_domains(&spec.group_cols, &i.cols, who, path, cx);
            for (aref, a) in &spec.aggs {
                let parts = partial_domains(a, &i.cols, who, path, cx);
                avail.extend((0..).map(|k| Col::part(*aref, k)).zip(parts));
            }
            // The duplicate-factor column is a per-group COUNT(*):
            // every group is formed from at least one row.
            if let Some(c) = spec.count_col() {
                avail.insert(c, ColDomain::within(Some(DataType::Int), AT_LEAST_ONE));
            }
            (avail, u64::from(i.min_rows >= 1), i.empty)
        }
    };
    // The projection: every projected column must be produced here.
    let project = plan.output_cols();
    let mut cols = DomainMap::new();
    for c in project {
        let d = avail.get(c).cloned().unwrap_or_else(|| {
            schema!(cx, path, "{who} projects {c}, which it does not produce");
            ColDomain::unknown(None)
        });
        cols.insert(*c, d);
    }
    let min_rows = if empty { 0 } else { min_rows };
    let min_bytes = min_rows.saturating_mul(min_row_width(project, &cols));
    cx.bounds.min_rows = cx.bounds.min_rows.saturating_add(min_rows);
    cx.bounds.min_bytes = cx.bounds.min_bytes.saturating_add(min_bytes);
    Node {
        cols,
        min_rows,
        empty,
    }
}

/// Type and bound an aggregate's argument over its input: `None` when
/// the argument does not resolve (the finding is recorded here or
/// below).
fn agg_arg(
    a: &AggSpec,
    input: &DomainMap,
    who: Named<'_>,
    path: &Path<'_>,
    cx: &mut Cx<'_>,
) -> Option<(Option<DataType>, Interval)> {
    let Some(e) = &a.arg else {
        return Some((None, Interval::FULL));
    };
    match expr_type(e, input) {
        Ok(Some(ty)) => Some((Some(ty), eval_expr(e, input).interval)),
        Ok(None) => None,
        Err(why) => {
            schema!(cx, path, "{who} computes `{a}`: {why}");
            None
        }
    }
}

/// Domain of a finalized aggregate computed from its raw argument.
fn agg_domain(
    a: &AggSpec,
    input: &DomainMap,
    who: Named<'_>,
    path: &Path<'_>,
    cx: &mut Cx<'_>,
) -> ColDomain {
    let Some((arg_ty, arg_iv)) = agg_arg(a, input, who, path, cx) else {
        return ColDomain::unknown(None);
    };
    let ty = match a.func.output_type(arg_ty) {
        Ok(t) => Some(t),
        Err(e) => {
            schema!(cx, path, "{who} computes `{a}`: {}", e.message());
            None
        }
    };
    let interval = match a.func {
        // Groups are formed from rows, so every group holds ≥ 1.
        AggFunc::Count => AT_LEAST_ONE,
        AggFunc::Sum => sum_widen(arg_iv),
        // The extremes and the mean of values from an interval stay
        // inside it.
        AggFunc::Min | AggFunc::Max | AggFunc::Avg => arg_iv,
        AggFunc::StdDev => NON_NEGATIVE,
    };
    ColDomain::within(ty, interval)
}

/// Domain of an aggregate a merge group-by coalesces from the partial
/// states its input carries (Figure 2's second stage), `first` being
/// component 0. It is typed from the decomposition, not from the raw
/// argument, which the merge's input no longer holds.
fn merged_domain(
    a: &AggSpec,
    aref: AggRef,
    first: &ColDomain,
    input: &DomainMap,
    who: Named<'_>,
    path: &Path<'_>,
    cx: &mut Cx<'_>,
) -> ColDomain {
    let mut complete = true;
    for k in 1..a.func.partial_arity() {
        if !input.contains_key(&Col::part(aref, k)) {
            schema!(
                cx,
                path,
                "{who} coalesces {aref} but its input misses partial component {k}"
            );
            complete = false;
        }
    }
    if !complete {
        return ColDomain::unknown(None);
    }
    match a.func {
        AggFunc::Count => ColDomain::within(Some(DataType::Int), AT_LEAST_ONE),
        AggFunc::Sum => ColDomain::within(first.ty, sum_widen(first.interval)),
        AggFunc::Min | AggFunc::Max => ColDomain::within(first.ty, first.interval),
        AggFunc::Avg => ColDomain::unknown(Some(DataType::Float)),
        AggFunc::StdDev => ColDomain::within(Some(DataType::Float), NON_NEGATIVE),
    }
}

/// Domains of the partial-state components (paper Figure 2 order).
fn partial_domains(
    a: &AggSpec,
    input: &DomainMap,
    who: Named<'_>,
    path: &Path<'_>,
    cx: &mut Cx<'_>,
) -> Vec<ColDomain> {
    let unknown_parts = || vec![ColDomain::unknown(None); a.func.partial_arity()];
    if !a.func.is_decomposable() {
        schema!(
            cx,
            path,
            "{who} decomposes non-decomposable aggregate `{a}`"
        );
        return unknown_parts();
    }
    let Some((arg_ty, arg_iv)) = agg_arg(a, input, who, path, cx) else {
        return unknown_parts();
    };
    let tys = match a.func.partial_types(arg_ty) {
        Ok(tys) => tys,
        Err(e) => {
            schema!(cx, path, "{who} computes `{a}`: {}", e.message());
            return unknown_parts();
        }
    };
    let ivs: Vec<Interval> = match a.func {
        AggFunc::Count => vec![AT_LEAST_ONE],
        AggFunc::Sum => vec![sum_widen(arg_iv)],
        AggFunc::Min | AggFunc::Max => vec![arg_iv],
        AggFunc::Avg => vec![sum_widen(arg_iv), AT_LEAST_ONE],
        AggFunc::StdDev => vec![
            sum_widen(arg_iv),
            sum_widen(arg_iv.square())
                .hull(NON_NEGATIVE)
                .intersect(NON_NEGATIVE),
            AT_LEAST_ONE,
        ],
    };
    ivs.into_iter()
        .zip(tys)
        .map(|(interval, ty)| ColDomain::within(Some(ty), interval))
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

/// The static type of `e` over `avail`: `Ok(None)` when an input column
/// is unresolved (its finding is already recorded), `Err` naming the
/// defect when a column is not available or the arithmetic is
/// ill-typed.
fn expr_type(e: &Expr, avail: &DomainMap) -> Result<Option<DataType>, String> {
    match e {
        Expr::Const(v) => Ok(Some(v.data_type())),
        Expr::Col(c) => avail
            .get(c)
            .map(|d| d.ty)
            .ok_or_else(|| format!("reads {c}, which is not available here")),
        Expr::Binary { op, left, right } => {
            match (expr_type(left, avail)?, expr_type(right, avail)?) {
                (Some(l), Some(r)) => op
                    .result_type(l, r)
                    .map(Some)
                    .map_err(|e| e.message().to_string()),
                _ => Ok(None),
            }
        }
    }
}

/// Require every predicate's operands to type over `avail`, and its two
/// sides to be comparable: the same type, or both numeric.
fn check_predicates(
    preds: &[Predicate],
    avail: &DomainMap,
    who: Named<'_>,
    role: &str,
    path: &Path<'_>,
    cx: &mut Cx<'_>,
) {
    for p in preds {
        match (expr_type(&p.left, avail), expr_type(&p.right, avail)) {
            (Err(why), _) | (_, Err(why)) => schema!(cx, path, "{who} {role} `{p}`: {why}"),
            (Ok(Some(l)), Ok(Some(r))) if l != r && !(l.is_numeric() && r.is_numeric()) => {
                schema!(cx, path, "{who} {role} `{p}` compares {l} with {r}")
            }
            _ => {}
        }
    }
}

/// Abstract value of an expression over the current domains.
struct ExprDom {
    interval: Interval,
    constant: Option<Value>,
    /// The value is an `INT` (a column or constant of that type, or
    /// `INT op INT` with `op` other than `/`).
    int: bool,
}

/// 2⁶³: an `INT` node whose interval is not strictly inside
/// `(−2⁶³, 2⁶³)` may overflow.
const INT_EDGE: f64 = 9_223_372_036_854_775_808.0;

fn eval_expr(e: &Expr, cols: &DomainMap) -> ExprDom {
    match e {
        Expr::Const(v) => ExprDom {
            interval: v.as_f64().map_or(Interval::FULL, Interval::point),
            constant: Some(v.clone()),
            int: v.data_type() == DataType::Int,
        },
        Expr::Col(c) => match cols.get(c) {
            Some(d) => ExprDom {
                interval: d.interval,
                constant: d.constant.clone(),
                int: d.ty == Some(DataType::Int),
            },
            None => ExprDom {
                interval: Interval::FULL,
                constant: None,
                int: false,
            },
        },
        Expr::Binary { op, left, right } => {
            let l = eval_expr(left, cols);
            let r = eval_expr(right, cols);
            let int = l.int && r.int && *op != BinaryOp::Div;
            let mut interval = match op {
                BinaryOp::Add => l.interval + r.interval,
                BinaryOp::Sub => l.interval - r.interval,
                BinaryOp::Mul => l.interval * r.interval,
                BinaryOp::Div => l.interval / r.interval,
            };
            // Where INT arithmetic may leave `i64` the runtime raises an
            // error rather than compute a value in the interval, so the
            // node bounds nothing (as a divisor touching zero does).
            if int && !(interval.lo > -INT_EDGE && interval.hi < INT_EDGE) {
                interval = Interval::FULL;
            }
            // Folding is the runtime's arithmetic, abstaining where it
            // errors.
            let constant = match (&l.constant, &r.constant) {
                (Some(a), Some(b)) => eval_binary(*op, a, b).ok(),
                _ => None,
            };
            ExprDom {
                interval,
                constant,
                int,
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
    path: &Path<'_>,
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
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::super::Severity;
    use super::*;
    use crate::plan::{all_cols, GroupBySpec};
    use aggview_common::{AggSpec, RelId, Schema, ViewId};
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
        assert!(df.findings.is_empty());
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
        assert!(df.findings.is_empty());
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
    fn unpruned_contradiction_is_a_warning() {
        let cat = catalog();
        let p = scan(vec![
            Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Gt, Value::Int(5)),
            Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Lt, Value::Int(3)),
        ]);
        let out = analyze_plan(&p, &cat, None).findings;
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
        assert!(df.findings.is_empty(), "typed plan");
        let ty = |c: Col| df.columns[&c].ty;
        assert_eq!(ty(Col::agg(ViewId::View(0), 0)), Some(DataType::Int));
        assert_eq!(ty(Col::agg(ViewId::View(0), 1)), Some(DataType::Float));
        assert_eq!(ty(Col::base(RelId(0), 1)), Some(DataType::Int));
    }
}
