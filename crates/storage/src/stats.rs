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
//! A table that is mutated keeps a `StatsSummary` — per column a
//! multiset of its values, held in the column's declared type: INT
//! values in an ordered `i64` map, FLOAT values in an ordered map keyed
//! by their bits remapped so that unsigned order is `f64::total_cmp`
//! order, STRING values counted by content, BOOL values as two counters
//! — and derives its [`TableStats`] from it after every mutation, in
//! time proportional to the rows changed. The table's first patch
//! builds the summary from its columns in one pass per column (a
//! numeric column sorted once and its runs collected, a string column
//! counted per dictionary code, widths from the columns' byte totals);
//! later patches count each leaving and arriving cell out and in.
//!
//! * `rows`, `row_width`, and per column `avg_width`, `distinct`, `min`
//!   and `max` are **exact** and bit-identical to what [`analyze`]
//!   computes over the same rows. `min` and `max` are taken by
//!   `f64::total_cmp` over the values that are not NaN, so `-0.0` is
//!   below `0.0` whatever order the rows hold them in. The plan
//!   dataflow analysis proves plans empty from `min`/`max`, so these
//!   may never lag.
//! * the equi-depth `histogram` may **lag by at most
//!   `rows / HISTOGRAM_BUCKETS` changed rows** — one bucket's depth, its
//!   own resolution. When a mutation takes the lag past that, every
//!   histogram of the table is rebuilt from the ordered maps, without a
//!   sort, and is then bit-identical to [`analyze`]'s again. Tables
//!   under [`HISTOGRAM_BUCKETS`] rows therefore never lag.
//!
//! A table that is never mutated never builds a summary.

use aggview_common::{CmpOp, ColumnVec, Tuple, Value};
use serde::Serialize;
use std::collections::btree_map::Entry;
use std::collections::{BTreeMap, HashSet};
use std::sync::Arc;

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
    // The distinct count and, of a numeric column, the float views in
    // `total_cmp` order.
    let (distinct, views) = match col {
        ColumnVec::Int(xs) => {
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let views: Vec<f64> = sorted.iter().map(|&x| x as f64).collect();
            sorted.dedup();
            (sorted.len(), Some(views))
        }
        ColumnVec::Float(xs) => {
            // Value equality on floats is `total_cmp`: equal bits.
            let mut sorted = xs.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let steps = sorted
                .windows(2)
                .filter(|w| w[0].to_bits() != w[1].to_bits());
            (1 + steps.count(), Some(sorted))
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
    let (min, max) = views
        .as_deref()
        .map_or((None, None), |v| ends(v.iter().copied()));
    ColumnStats {
        distinct: distinct as u64,
        min,
        max,
        avg_width: col.total_bytes() as f64 / col.len() as f64,
        histogram: Histogram::equi_depth(views.unwrap_or_default(), HISTOGRAM_BUCKETS),
    }
}

/// `(min, max)` of values in `f64::total_cmp` order: the first and the
/// last that are not NaN, since `total_cmp` puts NaNs at either end.
fn ends(sorted: impl DoubleEndedIterator<Item = f64>) -> (Option<f64>, Option<f64>) {
    let mut numbers = sorted.filter(|x| !x.is_nan());
    let min = numbers.next();
    (min, numbers.next_back().or(min))
}

/// `(min, max)` of the values that are not NaN, by `f64::total_cmp`:
/// so `-0.0` is below `0.0`, whatever order the rows hold them in.
fn range_of(xs: &[f64]) -> (Option<f64>, Option<f64>) {
    let numbers = || xs.iter().copied().filter(|x| !x.is_nan());
    (
        numbers().min_by(f64::total_cmp),
        numbers().max_by(f64::total_cmp),
    )
}

/// A FLOAT's bits, remapped so that unsigned order is
/// `f64::total_cmp` order: the sign bit flipped on non-negatives, every
/// bit flipped on negatives. Equal keys are equal bits, which is
/// [`Value`] equality on floats.
fn float_key(x: f64) -> u64 {
    let bits = x.to_bits();
    if bits >> 63 == 0 {
        bits | 1 << 63
    } else {
        !bits
    }
}

/// The float whose [`float_key`] is `key`.
fn float_of(key: u64) -> f64 {
    f64::from_bits(if key >> 63 == 1 { key ^ 1 << 63 } else { !key })
}

/// The multiset of `keys`: sorted once, each run of equal keys one
/// entry of the ordered map.
fn runs<K: Ord + Copy>(mut keys: Vec<K>) -> BTreeMap<K, u64> {
    keys.sort_unstable();
    keys.chunk_by(|a, b| a == b)
        .map(|run| (run[0], run.len() as u64))
        .collect()
}

/// Take one `key` out of `counts`; false when it holds none.
fn take_one<K: Ord>(counts: &mut BTreeMap<K, u64>, key: K) -> bool {
    match counts.entry(key) {
        Entry::Occupied(mut n) if *n.get() > 1 => *n.get_mut() -= 1,
        Entry::Occupied(n) => {
            n.remove();
        }
        Entry::Vacant(_) => return false,
    }
    true
}

/// One column's values as a multiset, held in the column's declared
/// type. The numeric maps iterate in `f64::total_cmp` order of the
/// values' float views — the order [`Histogram::equi_depth`] sorts by —
/// so a histogram is cut from them without a sort.
#[derive(Debug, Clone, PartialEq)]
enum Multiset {
    Int(BTreeMap<i64, u64>),
    /// Keyed by [`float_key`].
    Float(BTreeMap<u64, u64>),
    /// Keyed by content.
    Str(BTreeMap<Arc<str>, u64>),
    /// The counts of `false` and `true`.
    Bool([u64; 2]),
}

impl Multiset {
    fn distinct(&self) -> u64 {
        match self {
            Multiset::Int(m) => m.len() as u64,
            Multiset::Float(m) => m.len() as u64,
            Multiset::Str(m) => m.len() as u64,
            Multiset::Bool(n) => n.iter().filter(|&&n| n > 0).count() as u64,
        }
    }

    /// A numeric column's values as floats with their multiplicities,
    /// in `f64::total_cmp` order.
    fn views(&self) -> Option<Box<dyn DoubleEndedIterator<Item = (f64, u64)> + '_>> {
        match self {
            Multiset::Int(m) => Some(Box::new(m.iter().map(|(&k, &n)| (k as f64, n)))),
            Multiset::Float(m) => Some(Box::new(m.iter().map(|(&k, &n)| (float_of(k), n)))),
            Multiset::Str(_) | Multiset::Bool(_) => None,
        }
    }

    fn range(&self) -> (Option<f64>, Option<f64>) {
        self.views()
            .map_or((None, None), |v| ends(v.map(|(x, _)| x)))
    }

    fn histogram(&self, rows: u64) -> Option<Histogram> {
        Histogram::from_sorted_runs(self.views()?, rows as usize, HISTOGRAM_BUCKETS)
    }
}

/// One column of a [`StatsSummary`].
#[derive(Debug, Clone, PartialEq)]
struct ColumnSummary {
    counts: Multiset,
    /// Sum of [`Value::width`] over the column.
    width: u64,
}

impl ColumnSummary {
    /// The summary of a whole column in one pass over its vector: a
    /// numeric column sorted once and its runs collected, a string
    /// column counted per dictionary code and then keyed by content,
    /// the width its running byte total.
    fn of(col: &ColumnVec) -> ColumnSummary {
        let counts = match col {
            ColumnVec::Int(xs) => Multiset::Int(runs(xs.clone())),
            ColumnVec::Float(xs) => {
                Multiset::Float(runs(xs.iter().map(|&x| float_key(x)).collect()))
            }
            ColumnVec::Str(xs) => {
                let mut per_code = vec![0u64; xs.dict().len()];
                xs.codes().iter().for_each(|&c| per_code[c as usize] += 1);
                let used = xs
                    .dict()
                    .strs()
                    .iter()
                    .zip(per_code)
                    .filter(|(_, n)| *n > 0);
                Multiset::Str(used.map(|(s, n)| (Arc::clone(s), n)).collect())
            }
            ColumnVec::Bool(xs) => {
                let trues = xs.iter().filter(|&&b| b).count() as u64;
                Multiset::Bool([xs.len() as u64 - trues, trues])
            }
        };
        ColumnSummary {
            counts,
            width: col.total_bytes(),
        }
    }

    /// Count `v` in. Every row is conformed to its table's schema before
    /// it reaches the summary (an `Int` bound for a FLOAT column arrives
    /// as the `Float` it widens to), so `v` has the column's type; a
    /// value of another type is ignored, as [`remove`](Self::remove)
    /// ignores one the column does not hold.
    fn add(&mut self, v: &Value) {
        match (&mut self.counts, v) {
            (Multiset::Int(m), Value::Int(x)) => *m.entry(*x).or_insert(0) += 1,
            (Multiset::Float(m), Value::Float(x)) => *m.entry(float_key(*x)).or_insert(0) += 1,
            (Multiset::Str(m), Value::Str(s)) => *m.entry(Arc::clone(s)).or_insert(0) += 1,
            (Multiset::Bool(n), Value::Bool(b)) => n[usize::from(*b)] += 1,
            _ => return,
        }
        self.width += v.width() as u64;
    }

    /// Count `v` out; a value the column does not hold (of its type or
    /// not) changes nothing.
    fn remove(&mut self, v: &Value) {
        let found = match (&mut self.counts, v) {
            (Multiset::Int(m), Value::Int(x)) => take_one(m, *x),
            (Multiset::Float(m), Value::Float(x)) => take_one(m, float_key(*x)),
            (Multiset::Str(m), Value::Str(s)) => take_one(m, Arc::clone(s)),
            (Multiset::Bool(n), Value::Bool(b)) => {
                let n = &mut n[usize::from(*b)];
                let held = *n > 0;
                *n -= u64::from(held);
                held
            }
            _ => false,
        };
        if found {
            self.width -= v.width() as u64;
        }
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
        StatsSummary {
            rows: len as u64,
            columns: cols.iter().map(ColumnSummary::of).collect(),
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
            out.distinct = c.counts.distinct();
            (out.min, out.max) = c.counts.range();
            out.avg_width = c.width as f64 / rows as f64;
            if rebuild {
                out.histogram = c.counts.histogram(rows);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;
    use aggview_common::{tuple, DataType, Schema, StrCol};

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

    /// Every field of `s` as bits, histograms included.
    fn bits(s: &TableStats) -> Vec<u64> {
        let mut out = vec![s.rows, s.row_width.to_bits()];
        for c in &s.columns {
            let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
            out.extend([c.distinct, opt(c.min), opt(c.max), c.avg_width.to_bits()]);
            if let Some(h) = &c.histogram {
                out.push(h.lo.to_bits());
                out.extend(h.bounds.iter().map(|b| b.to_bits()));
            }
            out.push(u64::MAX);
        }
        out
    }

    /// The statistics a summary gives once its histograms are rebuilt.
    fn derived(mut summary: StatsSummary) -> TableStats {
        let mut stats = TableStats::empty(summary.columns.len());
        summary.refresh(&mut stats, summary.rows + 1);
        stats
    }

    /// The summary built from `cols`, the summary built by adding the
    /// rows one at a time, `analyze` of the rows and the table's own
    /// build give bit-identical statistics.
    fn agree(cols: &[ColumnVec]) {
        let len = cols.first().map_or(0, ColumnVec::len);
        let rows: Vec<Tuple> = (0..len)
            .map(|i| cols.iter().map(|c| c.value_at(i)).collect())
            .collect();
        let empty: Vec<ColumnVec> = cols.iter().map(ColumnVec::empty_like).collect();
        let mut by_rows = StatsSummary::of(&empty, 0);
        rows.iter().for_each(|r| by_rows.add(r));
        let want = bits(&analyze(&rows, cols.len()));
        assert_eq!(bits(&derived(StatsSummary::of(cols, len))), want);
        assert_eq!(bits(&derived(by_rows)), want);
        assert_eq!(bits(&analyze_columns(cols, len)), want);
    }

    fn strs(xs: &[&str]) -> StrCol {
        xs.iter().map(|&x| Arc::from(x)).collect()
    }

    #[test]
    fn summaries_agree_with_analyze_on_signed_zeros_and_nans() {
        let xs = [
            0.0,
            -0.0,
            f64::NAN,
            1.5,
            -0.0,
            -f64::NAN,
            0.0,
            -2.5,
            f64::NAN,
        ];
        agree(&[ColumnVec::Float(xs.to_vec())]);
        let (min, max) = range_of(&xs);
        assert_eq!(min.map(f64::to_bits), Some((-2.5f64).to_bits()));
        assert_eq!(max.map(f64::to_bits), Some(1.5f64.to_bits()));
        let zeros = [0.0, -0.0, 0.0];
        let (min, max) = range_of(&zeros);
        assert_eq!(min.map(f64::to_bits), Some((-0.0f64).to_bits()));
        assert_eq!(max.map(f64::to_bits), Some(0.0f64.to_bits()));
        agree(&[ColumnVec::Float(zeros.to_vec())]);
        agree(&[ColumnVec::Float(vec![f64::NAN, -f64::NAN])]);
    }

    #[test]
    fn summaries_agree_on_ints_widened_into_a_float_column() {
        let two53 = 1i64 << 53;
        let written: Vec<Value> = [two53 + 1, two53, -7, two53 + 1, 3]
            .map(Value::Int)
            .into_iter()
            .chain([Value::Float(-7.0), Value::Float(0.5)])
            .collect();
        let table = Table::builder("t", Schema::of(&[("x", DataType::Float)]));
        let table = written
            .iter()
            .try_fold(table, |b, v| b.row(vec![v.clone()]))
            .unwrap()
            .build()
            .unwrap();
        // 2^53 + 1 widens to 2^53, and -7 to the -7.0 already there.
        assert_eq!(table.stats().columns[0].distinct, 4);
        agree(&[table.column(0).clone()]);
    }

    #[test]
    fn summaries_agree_on_the_int_extremes() {
        let xs = vec![i64::MAX, 0, i64::MIN, i64::MAX, -1, i64::MIN + 1, 1];
        agree(&[ColumnVec::Int(xs)]);
    }

    #[test]
    fn summaries_agree_on_empty_strings_and_reinterned_dictionaries() {
        let col = strs(&["", "ab", "", "c", "ab", "dddd"]);
        agree(&[ColumnVec::Str(col.clone())]);
        // A column over part of its dictionary: unreferenced entries
        // count for nothing.
        let mut part = col.with_codes(vec![2, 2, 0]);
        assert!(part.dict().len() > 2);
        agree(&[ColumnVec::Str(part.clone())]);
        part.reintern();
        assert_eq!(part.dict().len(), 2);
        agree(&[ColumnVec::Str(part)]);
    }

    #[test]
    fn summaries_agree_on_bool_columns_and_empty_tables() {
        let both = ColumnVec::Bool(vec![true, false, true, true]);
        let trues = ColumnVec::Bool(vec![true; 4]);
        agree(&[both, trues]);
        let types = [
            DataType::Int,
            DataType::Float,
            DataType::Str,
            DataType::Bool,
        ];
        agree(&types.map(ColumnVec::with_type));
        agree(&[]);
    }

    #[test]
    fn a_table_of_every_type_agrees_through_adds_and_removes() {
        let cols = [
            ColumnVec::Int(vec![5, -3, 5, i64::MIN]),
            ColumnVec::Float(vec![-0.0, 2.0, 0.0, f64::NAN]),
            ColumnVec::Str(strs(&["x", "", "x", "yz"])),
            ColumnVec::Bool(vec![false, false, true, false]),
        ];
        agree(&cols);
        let mut summary = StatsSummary::of(&cols, 4);
        let row = |i: usize| -> Tuple { cols.iter().map(|c| c.value_at(i)).collect() };
        // Take out the rows holding every extremum, then put them back.
        [0, 3, 1].iter().for_each(|&i| summary.remove(&row(i)));
        let kept = [row(2)];
        assert_eq!(bits(&derived(summary.clone())), bits(&analyze(&kept, 4)));
        [0, 3, 1].iter().for_each(|&i| summary.add(&row(i)));
        let all: Vec<Tuple> = (0..4).map(row).collect();
        assert_eq!(bits(&derived(summary)), bits(&analyze(&all, 4)));
    }

    #[test]
    fn removing_an_absent_value_changes_nothing() {
        let cols = [
            ColumnVec::Int(vec![1, 2]),
            ColumnVec::Float(vec![0.0, 2.0]),
            ColumnVec::Str(strs(&["a", "b"])),
            ColumnVec::Bool(vec![true, true]),
        ];
        let absent = [
            Value::Int(3),
            Value::Float(-0.0),
            Value::str("c"),
            Value::Bool(false),
        ];
        for (col, v) in cols.iter().zip(&absent) {
            let mut summary = ColumnSummary::of(col);
            let before = summary.clone();
            summary.remove(v);
            assert_eq!(summary, before, "removing {v:?}");
        }
    }

    #[test]
    fn a_cell_of_another_type_is_ignored() {
        let cols = [
            ColumnVec::Int(vec![1]),
            ColumnVec::Float(vec![1.0]),
            ColumnVec::Str(strs(&["1"])),
            ColumnVec::Bool(vec![true]),
        ];
        let foreign = [
            [Value::Float(1.0), Value::str("1"), Value::Bool(true)],
            [Value::Int(1), Value::str("1"), Value::Bool(true)],
            [Value::Int(1), Value::Float(1.0), Value::Bool(true)],
            [Value::Int(1), Value::Float(1.0), Value::str("true")],
        ];
        for (col, vs) in cols.iter().zip(&foreign) {
            for v in vs {
                let mut summary = ColumnSummary::of(col);
                let before = summary.clone();
                summary.add(v);
                assert_eq!(summary, before, "adding {v:?}");
                summary.remove(v);
                assert_eq!(summary, before, "removing {v:?}");
            }
        }
    }

    #[test]
    fn float_keys_order_as_total_cmp() {
        let xs = [
            -f64::NAN,
            f64::NEG_INFINITY,
            -1.5,
            -f64::MIN_POSITIVE,
            -0.0,
            0.0,
            f64::MIN_POSITIVE,
            1.5,
            f64::INFINITY,
            f64::NAN,
        ];
        for w in xs.windows(2) {
            assert!(float_key(w[0]) < float_key(w[1]), "{} < {}", w[0], w[1]);
        }
        for x in xs {
            assert_eq!(float_of(float_key(x)).to_bits(), x.to_bits());
        }
    }

    #[test]
    fn non_numeric_constant_falls_back_to_default() {
        let s = analyze(rows(), 3);
        let sel = s.columns[1].selectivity(CmpOp::Lt, &Value::str("x"));
        assert_eq!(sel, CmpOp::Lt.default_selectivity());
    }
}
