//! Table and column statistics.
//!
//! The optimizer's cardinality estimation (selection selectivity, join
//! selectivity via distinct counts, group-by output cardinality) reads
//! these statistics. They are computed exactly from the in-memory data by
//! [`analyze`] — a luxury a disk-based system doesn't have, but the right
//! choice for a reproduction: estimation error is then a controlled,
//! measurable quantity (experiment E9) rather than noise.
//!
//! ## The contract under DML
//!
//! A table that is mutated keeps a `StatsSummary` — one value →
//! multiplicity map per column — and derives its [`TableStats`] from it
//! after every mutation, in time proportional to the rows changed:
//!
//! * `rows`, `row_width`, and per column `avg_width`, `distinct`, `min`
//!   and `max` are **exact** and equal to what [`analyze`] computes over
//!   the same rows (on NaN-free columns; the engine has no NaN literal).
//!   The plan dataflow analysis proves plans empty from `min`/`max`,
//!   so these may never lag.
//! * the equi-depth `histogram` may **lag by at most
//!   `rows / HISTOGRAM_BUCKETS` changed rows** — one bucket's depth, its
//!   own resolution. When a mutation takes the lag past that, every
//!   histogram of the table is rebuilt from the summary and is then
//!   equal to [`analyze`]'s again. Tables under [`HISTOGRAM_BUCKETS`]
//!   rows therefore never lag.
//!
//! A table that is never mutated never builds a summary.

use aggview_common::{CmpOp, ColumnVec, Tuple, Value};
use serde::Serialize;
use std::collections::{BTreeMap, HashSet};

/// Statistics for one column.
#[derive(Debug, Clone, Serialize)]
pub struct ColumnStats {
    /// Number of distinct values.
    pub distinct: u64,
    /// Minimum value as f64, for numeric columns.
    pub min: Option<f64>,
    /// Maximum value as f64, for numeric columns.
    pub max: Option<f64>,
    /// Average stored width in bytes.
    pub avg_width: f64,
    /// Equi-depth histogram over numeric values.
    pub histogram: Option<Histogram>,
}

impl ColumnStats {
    /// Estimated selectivity of `col op constant`.
    ///
    /// Equality uses `1/distinct` (uniformity); ranges use the histogram
    /// when present, falling back to linear interpolation over
    /// `[min, max]`, falling back to System-R constants.
    pub fn selectivity(&self, op: CmpOp, constant: &Value) -> f64 {
        match op {
            CmpOp::Eq => {
                if self.distinct == 0 {
                    0.0
                } else {
                    1.0 / self.distinct as f64
                }
            }
            CmpOp::Ne => {
                if self.distinct == 0 {
                    0.0
                } else {
                    1.0 - 1.0 / self.distinct as f64
                }
            }
            CmpOp::Lt | CmpOp::Le | CmpOp::Gt | CmpOp::Ge => {
                let c = match constant.as_f64() {
                    Some(c) => c,
                    None => return op.default_selectivity(),
                };
                let frac_below = if let Some(h) = &self.histogram {
                    h.fraction_below(c)
                } else if let (Some(mn), Some(mx)) = (self.min, self.max) {
                    if mx > mn {
                        ((c - mn) / (mx - mn)).clamp(0.0, 1.0)
                    } else if c >= mn {
                        1.0
                    } else {
                        0.0
                    }
                } else {
                    return op.default_selectivity();
                };
                let sel = match op {
                    CmpOp::Lt | CmpOp::Le => frac_below,
                    _ => 1.0 - frac_below,
                };
                // Half-open vs closed intervals differ by at most one
                // distinct value's worth of mass.
                let eps = if self.distinct > 0 {
                    1.0 / self.distinct as f64
                } else {
                    0.0
                };
                match op {
                    CmpOp::Le | CmpOp::Ge => (sel + eps).clamp(0.0, 1.0),
                    _ => sel.clamp(0.0, 1.0),
                }
            }
        }
    }
}

/// Equi-depth histogram: `bounds` are bucket upper edges; each bucket
/// holds (approximately) the same number of rows.
#[derive(Debug, Clone, Serialize)]
pub struct Histogram {
    /// Lower edge of the first bucket.
    pub lo: f64,
    /// Upper edges of each bucket, ascending.
    pub bounds: Vec<f64>,
}

impl Histogram {
    /// Build an equi-depth histogram with up to `buckets` buckets from
    /// numeric samples. Returns `None` for empty input.
    pub fn equi_depth(mut samples: Vec<f64>, buckets: usize) -> Option<Histogram> {
        samples.sort_by(f64::total_cmp);
        let n = samples.len();
        Histogram::from_sorted_runs(samples.into_iter().map(|x| (x, 1)), n, buckets)
    }

    /// [`equi_depth`](Histogram::equi_depth) over samples already in
    /// `f64::total_cmp` order and run-length encoded as
    /// `(value, multiplicity)`; `n` is the total multiplicity.
    fn from_sorted_runs(
        runs: impl IntoIterator<Item = (f64, u64)>,
        n: usize,
        buckets: usize,
    ) -> Option<Histogram> {
        if n == 0 || buckets == 0 {
            return None;
        }
        let mut runs = runs.into_iter();
        let (mut value, mut seen) = runs.next()?;
        let lo = value;
        let mut bounds = Vec::with_capacity(buckets);
        for b in 1..=buckets {
            // Bucket `b` ends at the sample of this rank.
            let rank = (b * n / buckets).saturating_sub(1).min(n - 1) as u64;
            while seen <= rank {
                let (v, count) = runs.next()?;
                value = v;
                seen += count;
            }
            bounds.push(value);
        }
        bounds.dedup_by(|a, b| a == b);
        Some(Histogram { lo, bounds })
    }

    /// Fraction of rows with value `< c` (approximately).
    pub fn fraction_below(&self, c: f64) -> f64 {
        if c <= self.lo {
            return 0.0;
        }
        let nb = self.bounds.len() as f64;
        let mut prev = self.lo;
        for (i, &hi) in self.bounds.iter().enumerate() {
            if c <= hi {
                let within = if hi > prev {
                    (c - prev) / (hi - prev)
                } else {
                    1.0
                };
                return ((i as f64 + within) / nb).clamp(0.0, 1.0);
            }
            prev = hi;
        }
        1.0
    }
}

/// Statistics for one table.
#[derive(Debug, Clone, Serialize)]
pub struct TableStats {
    /// Row count.
    pub rows: u64,
    /// Average row width in bytes.
    pub row_width: f64,
    /// Per-column statistics, in schema order.
    pub columns: Vec<ColumnStats>,
}

impl TableStats {
    /// Stats for an empty table of `ncols` columns.
    pub fn empty(ncols: usize) -> TableStats {
        TableStats {
            rows: 0,
            row_width: 0.0,
            columns: (0..ncols)
                .map(|_| ColumnStats {
                    distinct: 0,
                    min: None,
                    max: None,
                    avg_width: 0.0,
                    histogram: None,
                })
                .collect(),
        }
    }
}

/// Number of histogram buckets built per numeric column.
pub const HISTOGRAM_BUCKETS: usize = 128;

/// Compute exact statistics over `rows` of arity `ncols` — the
/// reference a table's carried statistics are checked against. Reads
/// the rows value by value, so it shares none of the typed sweeps a
/// table's own build uses.
pub fn analyze(rows: impl AsRef<[Tuple]>, ncols: usize) -> TableStats {
    let rows = rows.as_ref();
    if rows.is_empty() {
        return TableStats::empty(ncols);
    }
    let n = rows.len() as f64;
    let mut bytes = 0u64;
    let columns = (0..ncols)
        .map(|c| {
            let values = || rows.iter().map(|r| r.get(c));
            let distinct: HashSet<&Value> = values().collect();
            let views: Option<Vec<f64>> = values().map(Value::as_f64).collect();
            let ((min, max), views) = views.map(|v| (range_of(&v), v)).unwrap_or_default();
            let width: u64 = values().map(|v| v.width() as u64).sum();
            bytes += width;
            ColumnStats {
                distinct: distinct.len() as u64,
                min,
                max,
                avg_width: width as f64 / n,
                histogram: Histogram::equi_depth(views, HISTOGRAM_BUCKETS),
            }
        })
        .collect();
    TableStats {
        rows: rows.len() as u64,
        row_width: bytes as f64 / n,
        columns,
    }
}

/// Exact statistics of a table whose rows are the `len` entries of each
/// of `cols`.
pub(crate) fn analyze_columns(cols: &[ColumnVec], len: usize) -> TableStats {
    if len == 0 {
        return TableStats::empty(cols.len());
    }
    let bytes: u64 = cols.iter().map(ColumnVec::total_bytes).sum();
    TableStats {
        rows: len as u64,
        row_width: bytes as f64 / len as f64,
        columns: cols.iter().map(analyze_column).collect(),
    }
}

/// One non-empty column's statistics. A numeric column is sorted once —
/// for its distinct count and as the sample its histogram is cut from;
/// what it yields is what [`analyze`]'s value-by-value pass does.
fn analyze_column(col: &ColumnVec) -> ColumnStats {
    // The distinct count and, of an all-numeric column, the range and
    // the float views (in `total_cmp` order already, when typed).
    let (distinct, numeric) = match col {
        ColumnVec::Int(xs) => {
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let views: Vec<f64> = sorted.iter().map(|&x| x as f64).collect();
            sorted.dedup();
            (sorted.len(), Some((range_of(&views), views)))
        }
        ColumnVec::Float(xs) => {
            // Value equality on floats is `total_cmp`: equal bits.
            let mut sorted = xs.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let steps = sorted
                .windows(2)
                .filter(|w| w[0].to_bits() != w[1].to_bits());
            (1 + steps.count(), Some((range_of(xs), sorted)))
        }
        ColumnVec::Str(xs) => {
            let mut seen = vec![false; xs.dict().len()];
            let fresh = |code: &&u32| !std::mem::replace(&mut seen[**code as usize], true);
            (xs.codes().iter().filter(fresh).count(), None)
        }
        ColumnVec::Bool(xs) => {
            let both = usize::from(xs.contains(&true)) + usize::from(xs.contains(&false));
            (both, None)
        }
    };
    let ((min, max), views) = numeric.unwrap_or_default();
    ColumnStats {
        distinct: distinct as u64,
        min,
        max,
        avg_width: col.total_bytes() as f64 / col.len() as f64,
        histogram: Histogram::equi_depth(views, HISTOGRAM_BUCKETS),
    }
}

/// `(min, max)` as a left fold of `f64::min`/`f64::max` in the order
/// given (which is what decides between `0.0` and `-0.0`, and skips
/// NaNs — sorted `Int` views hold neither).
fn range_of(xs: &[f64]) -> (Option<f64>, Option<f64>) {
    xs.iter().fold((None, None), |(min, max), &x| {
        (
            Some(min.map_or(x, |m: f64| m.min(x))),
            Some(max.map_or(x, |m: f64| m.max(x))),
        )
    })
}

/// One column's values as a multiset, ordered as [`Value`] orders them
/// (numerics by `f64::total_cmp` of their float view — the order
/// [`Histogram::equi_depth`] sorts by).
#[derive(Debug, Clone)]
struct ColumnSummary {
    counts: BTreeMap<Value, u64>,
    /// Sum of [`Value::width`] over the column.
    width: u64,
    /// Whether the column's type is numeric: only then does it have a
    /// `min`, a `max` and a histogram, as in [`analyze`].
    numeric: bool,
}

impl ColumnSummary {
    fn add(&mut self, v: &Value) {
        match self.counts.get_mut(v) {
            Some(n) => *n += 1,
            None => {
                self.counts.insert(v.clone(), 1);
            }
        }
        self.width += v.width() as u64;
    }

    fn remove(&mut self, v: &Value) {
        if let Some(n) = self.counts.get_mut(v) {
            *n -= 1;
            if *n == 0 {
                self.counts.remove(v);
            }
            self.width -= v.width() as u64;
        }
    }

    /// `(min, max)` of a numeric column.
    fn range(&self) -> (Option<f64>, Option<f64>) {
        if !self.numeric {
            return (None, None);
        }
        let mut keys = self.counts.keys().filter_map(Value::as_f64);
        let min = keys.next();
        (min, keys.next_back().or(min))
    }

    fn histogram(&self, rows: u64) -> Option<Histogram> {
        if !self.numeric {
            return None;
        }
        let runs = self
            .counts
            .iter()
            .filter_map(|(v, &n)| v.as_f64().map(|x| (x, n)));
        Histogram::from_sorted_runs(runs, rows as usize, HISTOGRAM_BUCKETS)
    }
}

/// What a mutated table keeps so that its [`TableStats`] follow every
/// mutation at a cost proportional to the rows changed (module docs:
/// the contract under DML).
#[derive(Debug, Clone)]
pub(crate) struct StatsSummary {
    rows: u64,
    columns: Vec<ColumnSummary>,
    /// Rows changed since the histograms were last rebuilt.
    histogram_lag: u64,
}

impl StatsSummary {
    /// Summarize a table of `len` rows held as `cols`, whose current
    /// histograms are exact.
    pub(crate) fn of(cols: &[ColumnVec], len: usize) -> StatsSummary {
        let summarize = |col: &ColumnVec| {
            let mut summary = ColumnSummary {
                counts: BTreeMap::new(),
                width: 0,
                numeric: col.data_type().is_numeric(),
            };
            (0..len).for_each(|i| summary.add(&col.value_at(i)));
            summary
        };
        StatsSummary {
            rows: len as u64,
            columns: cols.iter().map(summarize).collect(),
            histogram_lag: 0,
        }
    }

    pub(crate) fn add(&mut self, row: &Tuple) {
        self.rows += 1;
        for (c, v) in self.columns.iter_mut().zip(row.values()) {
            c.add(v);
        }
    }

    pub(crate) fn remove(&mut self, row: &Tuple) {
        self.rows -= 1;
        for (c, v) in self.columns.iter_mut().zip(row.values()) {
            c.remove(v);
        }
    }

    /// Sum of [`Tuple::width`] over the summarized rows.
    fn bytes(&self) -> u64 {
        self.columns.iter().map(|c| c.width).sum()
    }

    /// Bring `stats` up to date with the summary after a mutation that
    /// changed `changed` rows: the exact fields always, the histograms
    /// when their lag passes one bucket's depth.
    pub(crate) fn refresh(&mut self, stats: &mut TableStats, changed: u64) {
        let rows = self.rows;
        if rows == 0 {
            self.histogram_lag = 0;
            *stats = TableStats::empty(self.columns.len());
            return;
        }
        self.histogram_lag += changed;
        let rebuild = self.histogram_lag > rows / HISTOGRAM_BUCKETS as u64;
        if rebuild {
            self.histogram_lag = 0;
        }
        stats.rows = rows;
        stats.row_width = self.bytes() as f64 / rows as f64;
        for (c, out) in self.columns.iter().zip(&mut stats.columns) {
            out.distinct = c.counts.len() as u64;
            (out.min, out.max) = c.range();
            out.avg_width = c.width as f64 / rows as f64;
            if rebuild {
                out.histogram = c.histogram(rows);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::tuple;

    fn rows() -> Vec<Tuple> {
        (0..100)
            .map(|i| tuple![i as i64 % 10, i as f64, "abcd"])
            .collect()
    }

    #[test]
    fn analyze_counts_distincts_and_widths() {
        let s = analyze(rows(), 3);
        assert_eq!(s.rows, 100);
        assert_eq!(s.columns[0].distinct, 10);
        assert_eq!(s.columns[1].distinct, 100);
        assert_eq!(s.columns[2].distinct, 1);
        assert_eq!(s.columns[2].avg_width, 4.0);
        assert_eq!(s.row_width, 8.0 + 8.0 + 4.0);
        assert_eq!(s.columns[1].min, Some(0.0));
        assert_eq!(s.columns[1].max, Some(99.0));
    }

    #[test]
    fn string_columns_have_no_numeric_stats() {
        let s = analyze(rows(), 3);
        assert!(s.columns[2].min.is_none());
        assert!(s.columns[2].histogram.is_none());
    }

    #[test]
    fn equality_selectivity_is_one_over_distinct() {
        let s = analyze(rows(), 3);
        let sel = s.columns[0].selectivity(CmpOp::Eq, &Value::Int(3));
        assert!((sel - 0.1).abs() < 1e-12);
        let ne = s.columns[0].selectivity(CmpOp::Ne, &Value::Int(3));
        assert!((ne - 0.9).abs() < 1e-12);
    }

    #[test]
    fn range_selectivity_tracks_data_distribution() {
        let s = analyze(rows(), 3);
        // col1 is uniform over 0..100, so `< 25` should be ~0.25.
        let sel = s.columns[1].selectivity(CmpOp::Lt, &Value::Float(25.0));
        assert!((sel - 0.25).abs() < 0.05, "sel = {sel}");
        let sel_hi = s.columns[1].selectivity(CmpOp::Gt, &Value::Float(75.0));
        assert!((sel_hi - 0.25).abs() < 0.05, "sel_hi = {sel_hi}");
    }

    #[test]
    fn histogram_handles_skew_better_than_interpolation() {
        // 90% of mass at 0..10, 10% spread to 1000.
        let mut vals: Vec<f64> = (0..90).map(|i| (i % 10) as f64).collect();
        vals.extend((0..10).map(|i| 100.0 + i as f64 * 90.0));
        let h = Histogram::equi_depth(vals, 16).unwrap();
        let below_10 = h.fraction_below(10.0);
        assert!(below_10 > 0.8, "histogram should see the skew: {below_10}");
    }

    #[test]
    fn fraction_below_is_monotone_and_bounded() {
        let h = Histogram::equi_depth((0..1000).map(|i| i as f64).collect(), 32).unwrap();
        let mut prev = 0.0;
        for c in [-5.0, 0.0, 10.0, 500.0, 999.0, 2000.0] {
            let f = h.fraction_below(c);
            assert!((0.0..=1.0).contains(&f));
            assert!(f >= prev, "monotonicity violated at {c}");
            prev = f;
        }
        assert_eq!(h.fraction_below(-5.0), 0.0);
        assert_eq!(h.fraction_below(2000.0), 1.0);
    }

    #[test]
    fn empty_input() {
        let s = analyze(&[], 2);
        assert_eq!(s.rows, 0);
        assert_eq!(s.columns.len(), 2);
        assert_eq!(s.columns[0].selectivity(CmpOp::Eq, &Value::Int(1)), 0.0);
        assert!(Histogram::equi_depth(vec![], 8).is_none());
    }

    #[test]
    fn constant_column_range_selectivity() {
        let rows: Vec<Tuple> = (0..10).map(|_| tuple![7i64]).collect();
        let s = analyze(&rows, 1);
        assert_eq!(s.columns[0].distinct, 1);
        let ge = s.columns[0].selectivity(CmpOp::Ge, &Value::Int(7));
        assert!(ge > 0.9, "all rows match: {ge}");
        let lt = s.columns[0].selectivity(CmpOp::Lt, &Value::Int(7));
        assert!(lt < 0.1, "no rows match: {lt}");
    }

    #[test]
    fn non_numeric_constant_falls_back_to_default() {
        let s = analyze(rows(), 3);
        let sel = s.columns[1].selectivity(CmpOp::Lt, &Value::str("x"));
        assert_eq!(sel, CmpOp::Lt.default_selectivity());
    }
}
