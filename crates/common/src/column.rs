//! Typed column vectors — the storage unit of columnar batches.
//!
//! A [`ColumnVec`] stores one column of a batch as a contiguous typed
//! vector (`Vec<i64>`, `Vec<f64>`, `Vec<bool>`, or — for strings — `u32`
//! codes into a shared dictionary, [`StrCol`]), so hot kernels run tight
//! per-column loops over primitive slices instead of matching a
//! [`Value`] enum per cell. A column is always the vector of one type:
//! a value of another type handed to it is refused with
//! [`AggViewError::Schema`]. Converting a value to its column's type
//! happens once, where rows enter a table (an `Int` written to a FLOAT
//! column is widened there), and nowhere else.
//!
//! The paper's engine has no NULLs (Section 2), so columns carry no
//! validity bitmap; selection vectors (`Vec<u32>` of surviving row
//! indices) play that role for filtered batches instead.

use crate::error::{AggViewError, Result};
use crate::hash::{fx_mix, str_digest};
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use std::ops::Range;
use std::sync::Arc;

/// The distinct strings of a string column, each stored once.
///
/// Entry `c` (a *code*) carries the string, its byte width and its
/// [`str_digest`]: the width is the length word of the `Arc<str>` fat
/// pointer, so neither it nor the digest ever dereferences the string.
/// Interning keeps entries unique, hence under one dictionary two codes
/// are equal exactly when their strings are. A dictionary only grows;
/// columns hold it behind an `Arc` and may reference any subset of it
/// (a column that has stopped referencing most of one moves to a
/// dictionary of its own, [`StrCol::reintern`]).
#[derive(Clone, Default)]
pub struct StrDict {
    strs: Vec<Arc<str>>,
    digests: Vec<u64>,
    /// The interning index: an open-addressed table of `code + 1`
    /// (`0` = empty), a power of two long and at most half full, homed
    /// by the digest's top bits (the fx chain ends in a multiply, which
    /// leaves a key's entropy there) and probed linearly. It reuses the
    /// digests the entries carry anyway, so a lookup hashes the string
    /// once and growing rehashes nothing. Like every fx table in the
    /// engine it is unkeyed: it is an index, never an ordering.
    cells: Vec<u32>,
}

impl std::fmt::Debug for StrDict {
    /// The entries in code order; digests and index derive from them.
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_list().entries(&self.strs).finish()
    }
}

impl StrDict {
    /// Number of entries; codes range over `0..len`.
    pub fn len(&self) -> usize {
        self.strs.len()
    }

    pub fn is_empty(&self) -> bool {
        self.strs.is_empty()
    }

    /// The string of `code`.
    pub fn get(&self, code: u32) -> &Arc<str> {
        &self.strs[code as usize]
    }

    /// Every entry's string, in code order.
    pub fn strs(&self) -> &[Arc<str>] {
        &self.strs
    }

    /// Byte width of `code`'s string, matching [`Value::width`] (an
    /// empty string still charges 1).
    pub fn width(&self, code: u32) -> u64 {
        self.strs[code as usize].len().max(1) as u64
    }

    /// Home cell of `digest`; `cells` must not be empty.
    fn home(&self, digest: u64) -> usize {
        (digest >> (64 - self.cells.len().trailing_zeros())) as usize
    }

    /// The code of `s`, whose digest is `digest`, if it has an entry.
    fn find(&self, s: &str, digest: u64) -> Option<u32> {
        if self.cells.is_empty() {
            return None;
        }
        let mut i = self.home(digest);
        loop {
            let code = self.cells[i].checked_sub(1)?;
            if self.digests[code as usize] == digest && *self.strs[code as usize] == *s {
                return Some(code);
            }
            i = (i + 1) & (self.cells.len() - 1);
        }
    }

    /// Put entry `code` (already pushed) into the first free cell from
    /// its home.
    fn seat(&mut self, code: u32) {
        let mut i = self.home(self.digests[code as usize]);
        while self.cells[i] != 0 {
            i = (i + 1) & (self.cells.len() - 1);
        }
        self.cells[i] = code + 1;
    }

    /// Replace the index by one of `cells` cells over the same entries.
    /// Only the stored digests are read: no string is rehashed.
    fn reindex(&mut self, cells: usize) {
        self.cells = vec![0; cells];
        (0..self.strs.len() as u32).for_each(|code| self.seat(code));
    }

    /// Add `s`, which [`Self::find`] did not find.
    fn insert(&mut self, s: &Arc<str>, digest: u64) -> u32 {
        let code = u32::try_from(self.strs.len()).expect("row indices are u32, so codes fit");
        self.strs.push(s.clone());
        self.digests.push(digest);
        if self.strs.len() * 2 > self.cells.len() {
            self.reindex(index_cells(self.strs.len()));
        } else {
            self.seat(code);
        }
        code
    }
}

/// Index size for `entries` strings: the power of two that keeps the
/// table at most half full.
fn index_cells(entries: usize) -> usize {
    (entries * 2).next_power_of_two().max(16)
}

/// A dictionary-coded string column: one `u32` code per row into a
/// shared [`StrDict`], plus the running byte total of the rows.
///
/// Columns derived from one another — `empty_like`, gathers, appends —
/// share the source's dictionary and copy codes; only a column that
/// meets a string from elsewhere (another dictionary, a [`Value`])
/// interns, copying the dictionary first if others still share it.
#[derive(Debug, Clone, Default)]
pub struct StrCol {
    dict: Arc<StrDict>,
    codes: Vec<u32>,
    /// Σ `dict.width(code)` over `codes`.
    bytes: u64,
}

impl StrCol {
    pub fn len(&self) -> usize {
        self.codes.len()
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// The per-row codes into [`Self::dict`].
    pub fn codes(&self) -> &[u32] {
        &self.codes
    }

    pub fn dict(&self) -> &StrDict {
        &self.dict
    }

    /// The string at row `i`.
    pub fn get(&self, i: usize) -> &Arc<str> {
        self.dict.get(self.codes[i])
    }

    /// True when `self` and `other` draw codes from the same dictionary
    /// (so equal codes mean equal strings, and codes can be copied).
    pub fn same_dict(&self, other: &StrCol) -> bool {
        Arc::ptr_eq(&self.dict, &other.dict)
    }

    /// The code of `s` in this column's dictionary, entering it if new
    /// (into a copy of the dictionary when others still share it).
    fn intern(&mut self, s: &Arc<str>) -> u32 {
        let digest = str_digest(s);
        match self.dict.find(s, digest) {
            Some(code) => code,
            None => Arc::make_mut(&mut self.dict).insert(s, digest),
        }
    }

    /// Append `s`, interning it; returns the byte width appended.
    pub fn push(&mut self, s: &Arc<str>) -> u64 {
        let code = self.intern(s);
        let w = self.dict.width(code);
        self.codes.push(code);
        self.bytes += w;
        w
    }

    /// Overwrite row `i` with `s`, interning it.
    fn set(&mut self, i: usize, s: &Arc<str>) {
        let code = self.intern(s);
        self.bytes = self.bytes - self.dict.width(self.codes[i]) + self.dict.width(code);
        self.codes[i] = code;
    }

    /// Move the column to a dictionary of exactly the strings its rows
    /// reference, entered in row order — what interning the rows afresh
    /// would build, without hashing a string. For a long-lived column
    /// whose edits left most entries unreferenced; sharers keep the old.
    pub fn reintern(&mut self) {
        const UNSEEN: u32 = u32::MAX;
        let old = Arc::clone(&self.dict);
        let mut dict = StrDict::default();
        let mut moved = vec![UNSEEN; old.len()];
        for code in &mut self.codes {
            let from = *code as usize;
            if moved[from] == UNSEEN {
                moved[from] = dict.insert(&old.strs[from], old.digests[from]);
            }
            *code = moved[from];
        }
        self.dict = Arc::new(dict);
    }

    fn empty_like(&self) -> StrCol {
        self.with_codes(Vec::new())
    }

    /// A column of `codes` over this column's dictionary, every one of
    /// which must be a code of it (a kernel that kept codes instead of
    /// rows — a running MIN or MAX per group — hands them back here).
    pub fn with_codes(&self, codes: Vec<u32>) -> StrCol {
        let bytes = codes.iter().map(|&c| self.dict.width(c)).sum();
        StrCol {
            dict: self.dict.clone(),
            codes,
            bytes,
        }
    }

    /// Append the rows of `src` that `rows` yields: code copies under a
    /// shared dictionary — which an empty column adopts from its first
    /// source — and re-interned strings otherwise.
    fn append_rows(&mut self, src: &StrCol, rows: impl Iterator<Item = usize>) -> u64 {
        if self.codes.is_empty() {
            self.dict = src.dict.clone();
        }
        let mut w = 0u64;
        if self.same_dict(src) {
            let dict = &*src.dict;
            self.codes.extend(rows.map(|i| {
                let code = src.codes[i];
                w += dict.width(code);
                code
            }));
            self.bytes += w;
        } else {
            for i in rows {
                w += self.push(src.get(i));
            }
        }
        w
    }
}

impl FromIterator<Arc<str>> for StrCol {
    fn from_iter<I: IntoIterator<Item = Arc<str>>>(iter: I) -> StrCol {
        let mut col = StrCol::default();
        for s in iter {
            col.push(&s);
        }
        col
    }
}

/// One column of a batch: the typed vector of its type.
#[derive(Debug, Clone)]
pub enum ColumnVec {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(StrCol),
    Bool(Vec<bool>),
}

/// The error of a `ty` column handed a value of type `got`.
fn off_type(ty: DataType, got: DataType) -> AggViewError {
    AggViewError::Schema(format!("{ty} column cannot hold a value of type {got}"))
}

impl ColumnVec {
    /// The type every value of the column has.
    pub fn data_type(&self) -> DataType {
        match self {
            ColumnVec::Int(_) => DataType::Int,
            ColumnVec::Float(_) => DataType::Float,
            ColumnVec::Str(_) => DataType::Str,
            ColumnVec::Bool(_) => DataType::Bool,
        }
    }

    /// An empty column of the given declared type.
    pub fn with_type(ty: DataType) -> ColumnVec {
        match ty {
            DataType::Int => ColumnVec::Int(Vec::new()),
            DataType::Float => ColumnVec::Float(Vec::new()),
            DataType::Str => ColumnVec::Str(StrCol::default()),
            DataType::Bool => ColumnVec::Bool(Vec::new()),
        }
    }

    /// An empty column of the same representation as `self` (for
    /// strings: over the same dictionary).
    pub fn empty_like(&self) -> ColumnVec {
        match self {
            ColumnVec::Int(_) => ColumnVec::Int(Vec::new()),
            ColumnVec::Float(_) => ColumnVec::Float(Vec::new()),
            ColumnVec::Str(v) => ColumnVec::Str(v.empty_like()),
            ColumnVec::Bool(_) => ColumnVec::Bool(Vec::new()),
        }
    }

    pub fn len(&self) -> usize {
        match self {
            ColumnVec::Int(v) => v.len(),
            ColumnVec::Float(v) => v.len(),
            ColumnVec::Str(v) => v.len(),
            ColumnVec::Bool(v) => v.len(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The value at `i` as an owned [`Value`] (cheap: strings are `Arc`).
    pub fn value_at(&self, i: usize) -> Value {
        match self {
            ColumnVec::Int(v) => Value::Int(v[i]),
            ColumnVec::Float(v) => Value::Float(v[i]),
            ColumnVec::Str(v) => Value::Str(v.get(i).clone()),
            ColumnVec::Bool(v) => Value::Bool(v[i]),
        }
    }

    /// Total byte width of the column (the sum of [`Value::width`] over
    /// every entry — identical to summing the widths of the tuples the
    /// column came from). O(1): strings keep a running total.
    pub fn total_bytes(&self) -> u64 {
        match self {
            ColumnVec::Int(v) => 8 * v.len() as u64,
            ColumnVec::Float(v) => 8 * v.len() as u64,
            ColumnVec::Str(v) => v.bytes,
            ColumnVec::Bool(v) => v.len() as u64,
        }
    }

    /// Byte width of the entries at `rows`: what [`Self::append_gather`]
    /// of them would report, without copying anything.
    pub fn bytes_at(&self, rows: impl ExactSizeIterator<Item = usize>) -> u64 {
        match self {
            ColumnVec::Int(_) | ColumnVec::Float(_) => 8 * rows.len() as u64,
            ColumnVec::Bool(_) => rows.len() as u64,
            ColumnVec::Str(v) => rows.map(|i| v.dict.width(v.codes[i])).sum(),
        }
    }

    /// Drop every entry and keep the allocation (a string column also
    /// keeps its dictionary): a tile buffer between two tiles.
    pub fn clear(&mut self) {
        match self {
            ColumnVec::Int(v) => v.clear(),
            ColumnVec::Float(v) => v.clear(),
            ColumnVec::Str(v) => {
                v.codes.clear();
                v.bytes = 0;
            }
            ColumnVec::Bool(v) => v.clear(),
        }
    }

    /// Transpose tuple position `p` of `rows` into a `ty` column: a
    /// [`ColumnVec::push_value`] loop, refusing the first value of
    /// another type.
    pub fn from_tuples_col(rows: &[Tuple], p: usize, ty: DataType) -> Result<ColumnVec> {
        let mut col = ColumnVec::with_type(ty);
        for row in rows {
            col.push_value(row.get(p).clone())?;
        }
        Ok(col)
    }

    /// Append a value of the column's type.
    pub fn push_value(&mut self, v: Value) -> Result<()> {
        match (&mut *self, v) {
            (ColumnVec::Int(xs), Value::Int(x)) => xs.push(x),
            (ColumnVec::Float(xs), Value::Float(x)) => xs.push(x),
            (ColumnVec::Str(xs), Value::Str(s)) => {
                xs.push(&s);
            }
            (ColumnVec::Bool(xs), Value::Bool(b)) => xs.push(b),
            (col, v) => return Err(off_type(col.data_type(), v.data_type())),
        }
        Ok(())
    }

    /// Append `src[i]` column to column: a typed cell never round-trips
    /// through a [`Value`], and a coded string under a shared dictionary
    /// never re-interns. `src` must be of the column's type.
    #[inline]
    pub fn push_from(&mut self, src: &ColumnVec, i: usize) -> Result<()> {
        match (&mut *self, src) {
            (ColumnVec::Int(out), ColumnVec::Int(xs)) => out.push(xs[i]),
            (ColumnVec::Float(out), ColumnVec::Float(xs)) => out.push(xs[i]),
            (ColumnVec::Str(out), ColumnVec::Str(xs)) => {
                out.append_rows(xs, std::iter::once(i));
            }
            (ColumnVec::Bool(out), ColumnVec::Bool(xs)) => out.push(xs[i]),
            (out, src) => return Err(off_type(out.data_type(), src.data_type())),
        }
        Ok(())
    }

    /// Overwrite the value at `i` with a value of the column's type.
    pub fn set_value(&mut self, i: usize, v: Value) -> Result<()> {
        match (&mut *self, v) {
            (ColumnVec::Int(xs), Value::Int(x)) => xs[i] = x,
            (ColumnVec::Float(xs), Value::Float(x)) => xs[i] = x,
            (ColumnVec::Str(xs), Value::Str(s)) => xs.set(i, &s),
            (ColumnVec::Bool(xs), Value::Bool(b)) => xs[i] = b,
            (col, v) => return Err(off_type(col.data_type(), v.data_type())),
        }
        Ok(())
    }

    /// Remove the rows at `doomed` (strictly increasing positions) in one
    /// pass; the others keep their order. A string column keeps its
    /// dictionary, entries the removed rows alone referenced included.
    pub fn remove_rows(&mut self, doomed: &[usize]) {
        match self {
            ColumnVec::Int(xs) => close_gaps(xs, doomed),
            ColumnVec::Float(xs) => close_gaps(xs, doomed),
            ColumnVec::Str(xs) => {
                let gone: u64 = doomed.iter().map(|&i| xs.dict.width(xs.codes[i])).sum();
                xs.bytes -= gone;
                close_gaps(&mut xs.codes, doomed);
            }
            ColumnVec::Bool(xs) => close_gaps(xs, doomed),
        }
    }

    /// Append `src[idx]` for every index in `sel`, returning the byte
    /// width appended. This is the late-materialization gather: output
    /// columns are assembled from selection vectors without ever building
    /// intermediate row tuples. `src` must be of the column's type.
    pub fn append_gather(&mut self, src: &ColumnVec, sel: &[u32]) -> Result<u64> {
        Ok(match (&mut *self, src) {
            (ColumnVec::Int(out), ColumnVec::Int(xs)) => {
                out.extend(sel.iter().map(|&i| xs[i as usize]));
                8 * sel.len() as u64
            }
            (ColumnVec::Float(out), ColumnVec::Float(xs)) => {
                out.extend(sel.iter().map(|&i| xs[i as usize]));
                8 * sel.len() as u64
            }
            (ColumnVec::Str(out), ColumnVec::Str(xs)) => {
                out.append_rows(xs, sel.iter().map(|&i| i as usize))
            }
            (ColumnVec::Bool(out), ColumnVec::Bool(xs)) => {
                out.extend(sel.iter().map(|&i| xs[i as usize]));
                sel.len() as u64
            }
            (out, src) => return Err(off_type(out.data_type(), src.data_type())),
        })
    }

    /// Append the contiguous range `range` of `src` (the unselective
    /// fast path of a filterless scan), returning the byte width added.
    /// `src` must be of the column's type.
    pub fn append_range(&mut self, src: &ColumnVec, range: Range<usize>) -> Result<u64> {
        Ok(match (&mut *self, src) {
            (ColumnVec::Int(out), ColumnVec::Int(xs)) => {
                out.extend_from_slice(&xs[range.clone()]);
                8 * range.len() as u64
            }
            (ColumnVec::Float(out), ColumnVec::Float(xs)) => {
                out.extend_from_slice(&xs[range.clone()]);
                8 * range.len() as u64
            }
            (ColumnVec::Str(out), ColumnVec::Str(xs)) => out.append_rows(xs, range),
            (ColumnVec::Bool(out), ColumnVec::Bool(xs)) => {
                out.extend_from_slice(&xs[range.clone()]);
                range.len() as u64
            }
            (out, src) => return Err(off_type(out.data_type(), src.data_type())),
        })
    }

    /// Value equality between `self[i]` and `other[j]` under the same
    /// cross-numeric rules as [`Value::eq`] (`Int(3) == Float(3.0)`,
    /// floats by total order, cross-type otherwise unequal). Strings
    /// compare by code under one dictionary, by content across two.
    pub fn eq_rows(&self, i: usize, other: &ColumnVec, j: usize) -> bool {
        use std::cmp::Ordering::Equal;
        match (self, other) {
            (ColumnVec::Int(a), ColumnVec::Int(b)) => a[i] == b[j],
            (ColumnVec::Float(a), ColumnVec::Float(b)) => a[i].total_cmp(&b[j]) == Equal,
            (ColumnVec::Int(a), ColumnVec::Float(b)) => (a[i] as f64).total_cmp(&b[j]) == Equal,
            (ColumnVec::Float(a), ColumnVec::Int(b)) => a[i].total_cmp(&(b[j] as f64)) == Equal,
            (ColumnVec::Str(a), ColumnVec::Str(b)) => {
                if a.same_dict(b) {
                    a.codes[i] == b.codes[j]
                } else {
                    a.get(i) == b.get(j)
                }
            }
            (ColumnVec::Bool(a), ColumnVec::Bool(b)) => a[i] == b[j],
            _ => false,
        }
    }

    /// Fold rows `range` of this column into the per-row hash chain
    /// `out` (`out[k]` accumulates row `range.start + k`). The chain
    /// preserves [`Value`]'s collision guarantee: equal values — across
    /// Int/Float columns — fold identically. A string folds as one step
    /// over its digest ([`str_digest`]), read here from the dictionary
    /// entry.
    pub fn hash_fx_into(&self, range: Range<usize>, out: &mut [u64]) {
        debug_assert_eq!(range.len(), out.len());
        match self {
            ColumnVec::Int(xs) => {
                for (o, &x) in out.iter_mut().zip(&xs[range]) {
                    *o = fx_mix(fx_mix(*o, 0), (x as f64).to_bits());
                }
            }
            ColumnVec::Float(xs) => {
                for (o, &x) in out.iter_mut().zip(&xs[range]) {
                    *o = fx_mix(fx_mix(*o, 0), x.to_bits());
                }
            }
            ColumnVec::Str(xs) => {
                let digests = &xs.dict.digests;
                for (o, &code) in out.iter_mut().zip(&xs.codes[range]) {
                    *o = fx_mix(*o, digests[code as usize]);
                }
            }
            ColumnVec::Bool(xs) => {
                for (o, &b) in out.iter_mut().zip(&xs[range]) {
                    *o = fx_mix(fx_mix(*o, 2), u64::from(b));
                }
            }
        }
    }

    /// Typed slice views, used by vectorized kernels to specialize loops.
    pub fn as_int(&self) -> Option<&[i64]> {
        match self {
            ColumnVec::Int(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_strs(&self) -> Option<&StrCol> {
        match self {
            ColumnVec::Str(v) => Some(v),
            _ => None,
        }
    }

    pub fn as_bool(&self) -> Option<&[bool]> {
        match self {
            ColumnVec::Bool(v) => Some(v),
            _ => None,
        }
    }
}

/// Drop the elements at `doomed` (strictly increasing positions).
fn close_gaps<T>(xs: &mut Vec<T>, doomed: &[usize]) {
    let mut doomed = doomed.iter().copied().peekable();
    let mut at = 0;
    xs.retain(|_| {
        at += 1;
        doomed.next_if_eq(&(at - 1)).is_none()
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::{fx_value, FX_SEED};

    #[test]
    fn typed_push_refuses_an_off_type_value() {
        let mut c = ColumnVec::with_type(DataType::Int);
        c.push_value(Value::Int(1)).unwrap();
        c.push_value(Value::Int(2)).unwrap();
        let err = c.push_value(Value::str("oops")).unwrap_err();
        assert_eq!(err.kind(), "schema");
        assert!(c.set_value(0, Value::Bool(true)).is_err());
        assert_eq!(values(&c), [Value::Int(1), Value::Int(2)]);
        // Not even an Int goes into a FLOAT column: widening is the
        // table's, where rows come in.
        let mut f = ColumnVec::Float(vec![0.5]);
        assert!(f.push_value(Value::Int(7)).is_err());
        assert!(f.push_from(&c, 0).is_err());
        assert!(f.append_gather(&c, &[1]).is_err());
        assert!(f.append_range(&c, 0..2).is_err());
        let mut s = strs(&["a", ""]);
        assert!(s.push_value(Value::Int(7)).is_err());
        assert!(ColumnVec::from_tuples_col(&[crate::tuple![1i64]], 0, DataType::Str).is_err());
        assert_eq!((f.len(), s.len(), s.total_bytes()), (1, 2, 2));
    }

    fn strs(items: &[&str]) -> ColumnVec {
        ColumnVec::Str(items.iter().map(|&s| Arc::from(s)).collect())
    }

    fn values(c: &ColumnVec) -> Vec<Value> {
        (0..c.len()).map(|i| c.value_at(i)).collect()
    }

    #[test]
    fn widths_match_value_widths() {
        let mut c = ColumnVec::with_type(DataType::Str);
        c.push_value(Value::str("abcd")).unwrap();
        c.push_value(Value::str("")).unwrap();
        c.push_value(Value::str("abcd")).unwrap();
        assert_eq!(c.bytes_at(0..1), 4);
        assert_eq!(c.bytes_at(1..2), 1); // empty strings charge 1, like Value::width
        assert_eq!(c.total_bytes(), 9);
        assert_eq!(c.as_strs().unwrap().dict().len(), 2, "interned once");
    }

    #[test]
    fn interning_stays_unique_while_the_index_grows() {
        let items: Vec<Arc<str>> = (0..5000).map(|i| Arc::from(format!("k{i}"))).collect();
        let col: StrCol = items.iter().chain(&items).cloned().collect();
        assert_eq!(col.dict().len(), 5000);
        assert_eq!(col.codes()[..5000], col.codes()[5000..]);
        assert!((0..5000).all(|i| col.get(i) == &items[i]));
        assert_eq!(col.dict().strs(), items);
    }

    #[test]
    fn string_appends_copy_codes_under_one_dictionary_and_intern_across_two() {
        let src = strs(&["x", "yy", "", "x", "zzz"]);
        let want_bytes = |c: &ColumnVec| values(c).iter().map(|v| v.width() as u64).sum::<u64>();

        // Same dictionary: `empty_like` shares it, an empty `with_type`
        // column adopts it on first append.
        for mut out in [src.empty_like(), ColumnVec::with_type(DataType::Str)] {
            assert_eq!(out.append_gather(&src, &[4, 2, 0]).unwrap(), 3 + 1 + 1);
            assert_eq!(out.append_range(&src, 1..4).unwrap(), 2 + 1 + 1);
            out.push_from(&src, 1).unwrap();
            let (o, s) = (out.as_strs().unwrap(), src.as_strs().unwrap());
            assert!(o.same_dict(s));
            let want = ["zzz", "", "x", "yy", "", "x", "yy"].map(Value::str);
            assert_eq!(values(&out), want);
            assert_eq!(out.total_bytes(), want_bytes(&out));
            assert_eq!(out.total_bytes(), 3 + 1 + 1 + 2 + 1 + 1 + 2);
        }

        // Different dictionaries: strings are re-interned, the source's
        // dictionary is left alone, and sharers of the destination's
        // dictionary do not see the new entries.
        let mut out = strs(&["q", "x"]);
        let sharer = out.empty_like();
        assert_eq!(out.append_gather(&src, &[1, 0]).unwrap(), 2 + 1);
        assert_eq!(out.append_range(&src, 2..5).unwrap(), 1 + 1 + 3);
        out.push_from(&src, 1).unwrap();
        let want = ["q", "x", "yy", "x", "", "x", "zzz", "yy"].map(Value::str);
        assert_eq!(values(&out), want);
        assert_eq!(out.total_bytes(), want_bytes(&out));
        let o = out.as_strs().unwrap();
        assert!(!o.same_dict(src.as_strs().unwrap()));
        assert_eq!(o.dict().len(), 5, "q x yy '' zzz, each once");
        assert_eq!(o.codes()[1], o.codes()[3]);
        assert_eq!(src.as_strs().unwrap().dict().len(), 4);
        assert_eq!(sharer.as_strs().unwrap().dict().len(), 2);
    }

    #[test]
    fn from_tuples_col_codes_strings_and_refuses_ill_typed_data() {
        let rows = vec![
            crate::tuple!["a", 1i64],
            crate::tuple!["", 2i64],
            crate::tuple!["a", 3i64],
        ];
        let c = ColumnVec::from_tuples_col(&rows, 0, DataType::Str).unwrap();
        let s = c.as_strs().unwrap();
        assert_eq!(s.codes(), [0, 1, 0]);
        assert_eq!(c.total_bytes(), 3);
        let ill = ColumnVec::from_tuples_col(&rows, 1, DataType::Str).unwrap_err();
        assert_eq!(
            ill.message(),
            "STRING column cannot hold a value of type INT"
        );
    }

    #[test]
    fn gather_and_range_append_preserve_values() {
        let src = ColumnVec::Float(vec![1.0, 2.0, 3.0, 4.0]);
        let mut out = src.empty_like();
        let w = out.append_gather(&src, &[3, 1]).unwrap();
        assert_eq!(w, 16);
        assert_eq!(out.value_at(0), Value::Float(4.0));
        assert_eq!(out.value_at(1), Value::Float(2.0));
        let w2 = out.append_range(&src, 0..2).unwrap();
        assert_eq!(w2, 16);
        assert_eq!(out.len(), 4);
        assert_eq!(out.value_at(3), Value::Float(2.0));
    }

    #[test]
    fn eq_rows_is_cross_numeric() {
        let a = ColumnVec::Int(vec![3, 4]);
        let b = ColumnVec::Float(vec![3.0, 4.5]);
        assert!(a.eq_rows(0, &b, 0));
        assert!(b.eq_rows(0, &a, 0));
        assert!(!a.eq_rows(1, &b, 1));
        let s = strs(&["3"]);
        assert!(!a.eq_rows(0, &s, 0)); // cross-type is unequal, not an error
        assert!(!ColumnVec::Bool(vec![true]).eq_rows(0, &a, 0));
    }

    #[test]
    fn string_equality_and_hash_chains_agree_across_representations() {
        let items = ["k", "", "longer than eight bytes", "k"];
        let coded = strs(&items);
        let other_dict = strs(&["pad", "longer than eight bytes", "k", ""]);
        // Row i of `coded` equals row `at[i]` of `other_dict`.
        let at = [2usize, 3, 1, 2];
        for i in 0..items.len() {
            for j in 0..items.len() {
                let same = items[i] == items[j];
                assert_eq!(coded.eq_rows(i, &coded, j), same);
                assert_eq!(coded.eq_rows(i, &other_dict, at[j]), same);
                assert_eq!(other_dict.eq_rows(at[j], &coded, i), same);
            }
        }
        let chain = |c: &ColumnVec, rows: Range<usize>| {
            let mut h = vec![fx_mix(FX_SEED, 9); rows.len()];
            c.hash_fx_into(rows, &mut h);
            h
        };
        let hc = chain(&coded, 0..4);
        assert_eq!(hc[0], hc[3]);
        assert_ne!(hc[0], hc[1]);
        let ho = chain(&other_dict, 0..4);
        for (i, &j) in at.iter().enumerate() {
            assert_eq!(hc[i], ho[j]);
            // ... and the bare-value form folds the same way.
            assert_eq!(hc[i], fx_value(fx_mix(FX_SEED, 9), &Value::str(items[i])));
        }
        assert_eq!(chain(&coded, 1..3), hc[1..3]);
    }

    #[test]
    fn int_and_float_hash_chains_agree() {
        let ints = ColumnVec::Int(vec![7, 8]);
        let floats = ColumnVec::Float(vec![7.0, 8.0]);
        let mut hi = vec![FX_SEED; 2];
        let mut hf = vec![FX_SEED; 2];
        ints.hash_fx_into(0..2, &mut hi);
        floats.hash_fx_into(0..2, &mut hf);
        assert_eq!(hi, hf);
        assert_ne!(hi[0], hi[1]);
        assert_eq!(hi[1], fx_value(FX_SEED, &Value::Float(8.0)));
        // A second key column of strings keeps the two in step.
        strs(&["a", "b"]).hash_fx_into(0..2, &mut hi);
        strs(&["a", "b"]).hash_fx_into(0..2, &mut hf);
        assert_eq!(hi, hf);
    }
}
