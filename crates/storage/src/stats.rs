//! Table and column statistics.
//!
//! The optimizer's cardinality estimation (selection selectivity, join
//! selectivity via distinct counts, group-by output cardinality) reads
//! these statistics, and the plan dataflow analysis seeds scan domains
//! from their `min`/`max`. A table computes them exactly from its
//! columns when it is built — a luxury a disk-based system doesn't
//! have, but the right choice for a reproduction: estimation error is
//! then a controlled, measurable quantity (experiment E9) rather than
//! noise. [`analyze`] is the value-by-value reference they are checked
//! against.
//!
//! ## The contract under DML
//!
//! No patch counts a cell in or out. Across patches a table's
//! [`TableStats`] are kept as follows:
//!
//! * `rows`, `row_width`, and per column `avg_width` are **exact**: the
//!   row count and the columns' byte totals are running totals.
//! * `min` and `max` are **sound bounds**. Each arriving value that is
//!   not NaN widens them, by `f64::total_cmp`, and nothing narrows them,
//!   so every value a column holds that is not NaN lies in
//!   `[min, max]`. The plan dataflow analysis proves plans empty from
//!   them, which takes containment, not exactness.
//! * `distinct` keeps its last exact value, capped at `rows`. A string
//!   column whose dictionary is re-interned takes the dictionary's
//!   length, which is exact.
//!
//! A table counts the rows its patches changed since its statistics
//! were last computed. The patch that takes that count past
//! `rows / REANALYZE_DIVISOR` (a tenth of the table), or that empties
//! the table, computes them again from the columns: they are then
//! bit-identical to [`analyze`] over the rows. `min` and `max` are taken
//! by `f64::total_cmp` over the values that are not NaN, so `-0.0` is
//! below `0.0` whatever order the rows hold them in.
//!
//! A numeric column's equi-depth [`Histogram`] is not part of
//! [`TableStats`]. `Table::histogram` cuts it from the column on its
//! first read (the cost model pricing a column-vs-constant range),
//! bit-identical to [`histogram_of`] over the rows then, and keeps it
//! until the statistics are next computed. A histogram that is read is
//! therefore never more than a tenth of the rows stale either.

use aggview_common::{CmpOp, ColumnVec, Tuple, Value};
use serde::Serialize;
use std::collections::HashSet;

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
}

impl ColumnStats {
    /// Estimated selectivity of `col op constant`.
    ///
    /// Equality uses `1/distinct` (uniformity); ranges use the column's
    /// histogram when `histogram` gives one, falling back to linear
    /// interpolation over `[min, max]`, falling back to System-R
    /// constants. `histogram` is called only for a range against a
    /// numeric constant, so no other estimate builds one.
    pub fn selectivity<'h>(
        &self,
        op: CmpOp,
        constant: &Value,
        histogram: impl FnOnce() -> Option<&'h Histogram>,
    ) -> f64 {
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
                let frac_below = if let Some(h) = histogram() {
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
        let n = samples.len();
        if n == 0 || buckets == 0 {
            return None;
        }
        samples.sort_by(f64::total_cmp);
        // Bucket `b` ends at the sample of rank `b * n / buckets - 1`.
        let mut bounds: Vec<f64> = (1..=buckets)
            .map(|b| samples[(b * n / buckets).saturating_sub(1).min(n - 1)])
            .collect();
        bounds.dedup_by(|a, b| a == b);
        Some(Histogram {
            lo: samples[0],
            bounds,
        })
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
    /// Take an arriving row's values into each column's `min`/`max`
    /// (module docs: the contract under DML).
    pub(crate) fn widen(&mut self, row: &Tuple) {
        for (c, v) in self.columns.iter_mut().zip(row.values()) {
            let Some(x) = v.as_f64().filter(|x| !x.is_nan()) else {
                continue;
            };
            if c.min.is_none_or(|m| x.total_cmp(&m).is_lt()) {
                c.min = Some(x);
            }
            if c.max.is_none_or(|m| x.total_cmp(&m).is_gt()) {
                c.max = Some(x);
            }
        }
    }

    /// Carry the statistics to a table now of `len > 0` rows held as
    /// `cols`, whose arriving rows were [`widen`](Self::widen)ed in:
    /// exact widths, `distinct` capped at the rows.
    pub(crate) fn carry(&mut self, cols: &[ColumnVec], len: usize) {
        let n = len as f64;
        self.rows = len as u64;
        self.row_width = cols.iter().map(ColumnVec::total_bytes).sum::<u64>() as f64 / n;
        for (c, col) in self.columns.iter_mut().zip(cols) {
            c.distinct = c.distinct.min(len as u64);
            c.avg_width = col.total_bytes() as f64 / n;
        }
    }

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
                })
                .collect(),
        }
    }
}

/// Number of histogram buckets built per numeric column.
pub const HISTOGRAM_BUCKETS: usize = 128;

/// A patched table computes its statistics again once the rows changed
/// since they were last computed pass `rows / REANALYZE_DIVISOR`: a
/// tenth, PostgreSQL's default `autovacuum_analyze_scale_factor`.
pub const REANALYZE_DIVISOR: u64 = 10;

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
            let (min, max) = views.map(|v| range_of(&v)).unwrap_or_default();
            let width: u64 = values().map(|v| v.width() as u64).sum();
            bytes += width;
            ColumnStats {
                distinct: distinct.len() as u64,
                min,
                max,
                avg_width: width as f64 / n,
            }
        })
        .collect();
    TableStats {
        rows: rows.len() as u64,
        row_width: bytes as f64 / n,
        columns,
    }
}

/// The histogram of column `col` of `rows` — the reference a table's
/// histograms are checked against: `None` unless every value is numeric
/// and there is one.
pub fn histogram_of(rows: &[Tuple], col: usize) -> Option<Histogram> {
    let views: Option<Vec<f64>> = rows.iter().map(|r| r.get(col).as_f64()).collect();
    Histogram::equi_depth(views?, HISTOGRAM_BUCKETS)
}

/// Exact statistics of a table whose rows are the `len` entries of each
/// of `cols`: the one place a table's statistics are computed from its
/// columns.
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

/// One non-empty column's statistics. A numeric column is sorted once,
/// for its distinct count and its ends; what it yields is what
/// [`analyze`]'s value-by-value pass does.
fn analyze_column(col: &ColumnVec) -> ColumnStats {
    let (distinct, (min, max)) = match col {
        ColumnVec::Int(xs) => {
            let mut sorted = xs.clone();
            sorted.sort_unstable();
            let ends = ends(sorted.iter().map(|&x| x as f64));
            sorted.dedup();
            (sorted.len(), ends)
        }
        ColumnVec::Float(xs) => {
            // Value equality on floats is `total_cmp`: equal bits.
            let mut sorted = xs.clone();
            sorted.sort_unstable_by(f64::total_cmp);
            let steps = sorted
                .windows(2)
                .filter(|w| w[0].to_bits() != w[1].to_bits());
            (1 + steps.count(), ends(sorted.iter().copied()))
        }
        ColumnVec::Str(xs) => {
            let mut seen = vec![false; xs.dict().len()];
            let fresh = |code: &&u32| !std::mem::replace(&mut seen[**code as usize], true);
            (xs.codes().iter().filter(fresh).count(), (None, None))
        }
        ColumnVec::Bool(xs) => {
            let both = usize::from(xs.contains(&true)) + usize::from(xs.contains(&false));
            (both, (None, None))
        }
    };
    ColumnStats {
        distinct: distinct as u64,
        min,
        max,
        avg_width: col.total_bytes() as f64 / col.len() as f64,
    }
}

/// The histogram of a numeric column, cut from its values sorted once;
/// bit-identical to [`histogram_of`] over its rows.
pub(crate) fn column_histogram(col: &ColumnVec) -> Option<Histogram> {
    let views = match col {
        ColumnVec::Int(xs) => xs.iter().map(|&x| x as f64).collect(),
        ColumnVec::Float(xs) => xs.clone(),
        ColumnVec::Str(_) | ColumnVec::Bool(_) => return None,
    };
    Histogram::equi_depth(views, HISTOGRAM_BUCKETS)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Table;
    use aggview_common::{tuple, DataType, Schema, StrCol};
    use std::sync::Arc;

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

    /// The histogram argument of an estimate that must not read one.
    fn unread<'h>() -> Option<&'h Histogram> {
        panic!("this estimate reads no histogram")
    }

    #[test]
    fn string_columns_have_no_numeric_stats() {
        let s = analyze(rows(), 3);
        assert!(s.columns[2].min.is_none());
        assert!(histogram_of(&rows(), 2).is_none());
        assert!(histogram_of(&rows(), 1).is_some());
    }

    #[test]
    fn equality_selectivity_is_one_over_distinct() {
        let s = analyze(rows(), 3);
        let sel = s.columns[0].selectivity(CmpOp::Eq, &Value::Int(3), unread);
        assert!((sel - 0.1).abs() < 1e-12);
        let ne = s.columns[0].selectivity(CmpOp::Ne, &Value::Int(3), unread);
        assert!((ne - 0.9).abs() < 1e-12);
    }

    #[test]
    fn range_selectivity_tracks_data_distribution() {
        let s = analyze(rows(), 3);
        let h = histogram_of(&rows(), 1);
        // col1 is uniform over 0..100, so `< 25` should be ~0.25.
        let sel = s.columns[1].selectivity(CmpOp::Lt, &Value::Float(25.0), || h.as_ref());
        assert!((sel - 0.25).abs() < 0.05, "sel = {sel}");
        let sel_hi = s.columns[1].selectivity(CmpOp::Gt, &Value::Float(75.0), || h.as_ref());
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
        assert_eq!(
            s.columns[0].selectivity(CmpOp::Eq, &Value::Int(1), unread),
            0.0
        );
        assert!(Histogram::equi_depth(vec![], 8).is_none());
        assert!(histogram_of(&[], 0).is_none());
    }

    #[test]
    fn constant_column_range_selectivity() {
        let rows: Vec<Tuple> = (0..10).map(|_| tuple![7i64]).collect();
        let s = analyze(&rows, 1);
        let h = histogram_of(&rows, 0);
        assert_eq!(s.columns[0].distinct, 1);
        let ge = s.columns[0].selectivity(CmpOp::Ge, &Value::Int(7), || h.as_ref());
        assert!(ge > 0.9, "all rows match: {ge}");
        let lt = s.columns[0].selectivity(CmpOp::Lt, &Value::Int(7), || h.as_ref());
        assert!(lt < 0.1, "no rows match: {lt}");
    }

    /// Every field of `s` as bits, and then every histogram of `hists`.
    fn bits<'h>(
        s: &TableStats,
        hists: impl IntoIterator<Item = Option<&'h Histogram>>,
    ) -> Vec<u64> {
        let mut out = vec![s.rows, s.row_width.to_bits()];
        for c in &s.columns {
            let opt = |x: Option<f64>| x.map_or(u64::MAX, f64::to_bits);
            out.extend([c.distinct, opt(c.min), opt(c.max), c.avg_width.to_bits()]);
        }
        for h in hists {
            if let Some(h) = h {
                out.push(h.lo.to_bits());
                out.extend(h.bounds.iter().map(|b| b.to_bits()));
            }
            out.push(u64::MAX);
        }
        out
    }

    /// The statistics and histograms of `rows`, as bits.
    fn exact(rows: &[Tuple], ncols: usize) -> Vec<u64> {
        let hists: Vec<_> = (0..ncols).map(|c| histogram_of(rows, c)).collect();
        bits(&analyze(rows, ncols), hists.iter().map(Option::as_ref))
    }

    /// A table of `cols`' types, empty.
    fn table_like(cols: &[ColumnVec]) -> crate::TableBuilder {
        let names: Vec<String> = (0..cols.len()).map(|c| format!("c{c}")).collect();
        let fields: Vec<(&str, DataType)> = names
            .iter()
            .zip(cols)
            .map(|(n, c)| (n.as_str(), c.data_type()))
            .collect();
        Table::builder("t", Schema::of(&fields))
    }

    /// `analyze` and `histogram_of` of the rows, the columns' own build,
    /// and a table built from the rows give bit-identical statistics and
    /// histograms; and the rows widened in one at a time carry an exact
    /// range and exact widths (only `distinct` is not carried).
    fn agree(cols: &[ColumnVec]) {
        let len = cols.first().map_or(0, ColumnVec::len);
        let rows: Vec<Tuple> = (0..len)
            .map(|i| cols.iter().map(|c| c.value_at(i)).collect())
            .collect();
        let want = exact(&rows, cols.len());
        let hists: Vec<_> = cols.iter().map(column_histogram).collect();
        let by_columns = bits(
            &analyze_columns(cols, len),
            hists.iter().map(Option::as_ref),
        );
        assert_eq!(by_columns, want);
        let mut table = table_like(cols);
        rows.iter().for_each(|r| table.push(r.clone()).unwrap());
        let table = table.build().unwrap();
        let read = (0..cols.len()).map(|c| table.histogram(c));
        assert_eq!(bits(table.stats(), read), want);

        let truth = analyze(&rows, cols.len());
        let mut carried = TableStats::empty(cols.len());
        rows.iter().for_each(|r| carried.widen(r));
        if len > 0 {
            carried.carry(cols, len);
        }
        for (c, t) in carried.columns.iter_mut().zip(&truth.columns) {
            c.distinct = t.distinct;
        }
        assert_eq!(bits(&carried, []), bits(&truth, []));
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
        let row = |i: usize| -> Tuple { cols.iter().map(|c| c.value_at(i)).collect() };
        let mut b = table_like(&cols);
        (0..4).for_each(|i| b.push(row(i)).unwrap());
        let mut t = Arc::try_unwrap(b.build().unwrap()).unwrap();
        let mut apply = |mut p: crate::RowPatch| {
            t.check_patch(&mut p).unwrap();
            t.apply_patch(p).unwrap();
            let read: Vec<_> = (0..4).map(|c| t.histogram(c).cloned()).collect();
            bits(t.stats(), read.iter().map(Option::as_ref))
        };
        // Take out the rows holding every extremum, then put them back:
        // on a table this small each patch computes the statistics anew.
        let gone = crate::RowPatch {
            deletes: vec![0, 1, 3],
            ..Default::default()
        };
        assert_eq!(apply(gone), exact(&[row(2)], 4));
        let back = crate::RowPatch {
            inserts: [0, 3, 1].map(row).to_vec(),
            ..Default::default()
        };
        let all = [2, 0, 3, 1].map(row);
        assert_eq!(apply(back), exact(&all, 4));
    }

    #[test]
    fn non_numeric_constant_falls_back_to_default() {
        let s = analyze(rows(), 3);
        let sel = s.columns[1].selectivity(CmpOp::Lt, &Value::str("x"), unread);
        assert_eq!(sel, CmpOp::Lt.default_selectivity());
    }
}
