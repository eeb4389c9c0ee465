//! Column-major batches: the unit of work of the vectorized executor.
//!
//! A [`Batch`] is a set of equal-length [`ColumnVec`]s plus an explicit
//! row count (so zero-column projections still know how many rows they
//! carry). Scans gather batches out of their table's columns;
//! operators process fixed-size tiles with per-column kernels and
//! materialize back to `Vec<Tuple>` ([`Batch::to_tuples`]) only at plan
//! boundaries — the result set, matview extent builds, and verification.
//!
//! Byte accounting is representation-independent: a batch's
//! [`total_bytes`](Batch::total_bytes) equals the sum of
//! [`Tuple::width`] over the rows it would materialize to, so IO-page
//! and peak-intermediate numbers match the row-at-a-time path exactly.

use crate::column::ColumnVec;
use crate::error::Result;
use crate::hash::FX_SEED;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use std::ops::Range;

/// A column-major batch of rows.
#[derive(Debug, Clone, Default)]
pub struct Batch {
    cols: Vec<ColumnVec>,
    len: usize,
}

impl Batch {
    /// Build from columns, which must share one length.
    pub fn new(cols: Vec<ColumnVec>) -> Batch {
        let len = cols.first().map_or(0, ColumnVec::len);
        debug_assert!(cols.iter().all(|c| c.len() == len));
        Batch { cols, len }
    }

    /// Assemble from columns plus an explicit row count (used by kernels
    /// that build output columns independently — e.g. join emit gathers
    /// from two source batches — and for zero-column outputs).
    pub fn from_parts(cols: Vec<ColumnVec>, len: usize) -> Batch {
        debug_assert!(cols.iter().all(|c| c.len() == len));
        Batch { cols, len }
    }

    pub fn n_cols(&self) -> usize {
        self.cols.len()
    }

    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    pub fn col(&self, i: usize) -> &ColumnVec {
        &self.cols[i]
    }

    pub fn cols(&self) -> &[ColumnVec] {
        &self.cols
    }

    /// The value of column `col` at row `row`.
    pub fn value_at(&self, col: usize, row: usize) -> Value {
        self.cols[col].value_at(row)
    }

    /// Total byte width (= Σ [`Tuple::width`] of the materialized rows);
    /// O(columns).
    pub fn total_bytes(&self) -> u64 {
        self.cols.iter().map(ColumnVec::total_bytes).sum()
    }

    /// Transpose row-major tuples into a batch. `project` selects which
    /// tuple positions become columns (in order); `types` gives each
    /// output column's type, which its values must have.
    pub fn from_tuples(rows: &[Tuple], project: &[usize], types: &[DataType]) -> Result<Batch> {
        debug_assert_eq!(project.len(), types.len());
        let cols = project
            .iter()
            .zip(types)
            .map(|(&p, &t)| ColumnVec::from_tuples_col(rows, p, t))
            .collect::<Result<_>>()?;
        Ok(Batch {
            cols,
            len: rows.len(),
        })
    }

    /// Materialize back to row-major tuples (the late-materialization
    /// boundary, and the only place a coded string column is decoded
    /// into [`Value::Str`] cells wholesale).
    pub fn to_tuples(&self) -> Vec<Tuple> {
        (0..self.len)
            .map(|r| Tuple::new(self.cols.iter().map(|c| c.value_at(r)).collect()))
            .collect()
    }

    /// Keep columns `positions`, in that order, of every row: a column
    /// moves out the last time it is named and is copied before that.
    pub fn project(self, positions: &[usize]) -> Batch {
        let mut from: Vec<Option<ColumnVec>> = self.cols.into_iter().map(Some).collect();
        let cols = positions
            .iter()
            .enumerate()
            .filter_map(|(i, &p)| {
                if positions[i + 1..].contains(&p) {
                    from[p].clone()
                } else {
                    from[p].take()
                }
            })
            .collect();
        Batch {
            cols,
            len: self.len,
        }
    }

    /// Gather `positions` of the rows selected by `sel` (or the whole
    /// `range` when `sel` is `None`) from `src` into `self`, returning
    /// the byte width appended.
    pub fn gather_from(
        &mut self,
        src: &Batch,
        positions: &[usize],
        sel: Option<&[u32]>,
        range: Range<usize>,
    ) -> Result<u64> {
        debug_assert_eq!(self.n_cols(), positions.len());
        let mut bytes = 0u64;
        match sel {
            Some(sel) => {
                for (dst, &p) in self.cols.iter_mut().zip(positions) {
                    bytes += dst.append_gather(&src.cols[p], sel)?;
                }
                self.len += sel.len();
            }
            None => {
                for (dst, &p) in self.cols.iter_mut().zip(positions) {
                    bytes += dst.append_range(&src.cols[p], range.clone())?;
                }
                self.len += range.len();
            }
        }
        Ok(bytes)
    }

    /// Per-row key hashes over `key_pos` for rows `range`, written into
    /// `out` (cleared and refilled). Uses the fx chain seeded at
    /// [`FX_SEED`]; equal keys (cross-numeric included) hash equally.
    pub fn hash_rows(&self, key_pos: &[usize], range: Range<usize>, out: &mut Vec<u64>) {
        hash_columns(key_pos.iter().map(|&k| &self.cols[k]), range, out);
    }
}

/// [`Batch::hash_rows`] over key columns wherever they live: the same
/// chain, so a key hashes the same in a batch and out of one.
pub fn hash_columns<'c>(
    key_cols: impl IntoIterator<Item = &'c ColumnVec>,
    range: Range<usize>,
    out: &mut Vec<u64>,
) {
    out.clear();
    out.resize(range.len(), FX_SEED);
    for col in key_cols {
        col.hash_fx_into(range.clone(), out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::tuple;

    fn sample() -> Batch {
        let rows = vec![
            tuple![1i64, "a", 1.5f64],
            tuple![2i64, "bb", 2.5f64],
            tuple![3i64, "ccc", 3.5f64],
        ];
        Batch::from_tuples(
            &rows,
            &[0, 1, 2],
            &[DataType::Int, DataType::Str, DataType::Float],
        )
        .unwrap()
    }

    #[test]
    fn transpose_round_trips() {
        let b = sample();
        assert_eq!(b.len(), 3);
        assert_eq!(b.n_cols(), 3);
        let rows = b.to_tuples();
        assert_eq!(rows[1], tuple![2i64, "bb", 2.5f64]);
        let tuple_bytes: usize = rows.iter().map(Tuple::width).sum();
        assert_eq!(b.total_bytes(), tuple_bytes as u64);
    }

    #[test]
    fn gather_selects_and_projects() {
        let b = sample();
        let mut out = Batch::new(vec![b.col(2).empty_like(), b.col(0).empty_like()]);
        let w = out.gather_from(&b, &[2, 0], Some(&[2, 0]), 0..0).unwrap();
        assert_eq!(out.len(), 2);
        assert_eq!(out.to_tuples()[0], tuple![3.5f64, 3i64]);
        assert_eq!(w, 32);
        // Range gather (no selection) appends contiguously.
        let w2 = out.gather_from(&b, &[2, 0], None, 1..3).unwrap();
        assert_eq!(out.len(), 4);
        assert_eq!(w2, 32);
    }

    #[test]
    fn project_moves_and_repeats_columns() {
        let b = sample();
        let want: Vec<Tuple> = b
            .to_tuples()
            .iter()
            .map(|t| t.project(&[2, 0, 2]))
            .collect();
        let out = b.project(&[2, 0, 2]);
        assert_eq!(out.n_cols(), 3);
        assert_eq!(out.to_tuples(), want);
        assert_eq!(sample().project(&[]).len(), 3);
    }

    #[test]
    fn zero_col_batches_track_row_count() {
        let b = sample();
        let mut out = Batch::from_parts(Vec::new(), 0);
        let w = out.gather_from(&b, &[], Some(&[0, 1, 2]), 0..0).unwrap();
        assert_eq!(out.len(), 3);
        assert_eq!(w, 0);
        assert_eq!(out.to_tuples().len(), 3);
        assert_eq!(out.to_tuples()[0], tuple![]);
    }

    #[test]
    fn hash_rows_collides_only_on_equal_keys() {
        let b = sample();
        let mut h = Vec::new();
        b.hash_rows(&[0], 0..3, &mut h);
        assert_eq!(h.len(), 3);
        assert_ne!(h[0], h[1]);
        // Same key values in a different column layout hash equally.
        let b2 = Batch::new(vec![ColumnVec::Float(vec![1.0, 2.0, 3.0])]);
        let mut h2 = Vec::new();
        b2.hash_rows(&[0], 0..3, &mut h2);
        assert_eq!(h, h2); // Int(k) vs Float(k) must collide
    }

    #[test]
    fn empty_key_hashes_are_uniform() {
        let b = sample();
        let mut h = Vec::new();
        b.hash_rows(&[], 0..3, &mut h);
        assert!(h.iter().all(|&x| x == h[0]));
    }
}
