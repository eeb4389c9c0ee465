//! Vectorized (columnar) operator kernels, and the pipelines they run in.
//!
//! Rows flow in tiles of [`ExecOptions::batch_rows`] from rows that are
//! held whole to a sink, through buffers that are cleared and refilled:
//!
//! * [`Held`] — where a pipeline starts and what a join builds on: a
//!   table's own columns behind a scan's selection ([`scan_table`]
//!   evaluates the filters and copies nothing; [`matching_rows`] is the
//!   filter alone), or a collected batch;
//! * [`Probe`] — one join of the pipeline: an index over a held build
//!   side, candidate pairs collected per tile, residuals evaluated over
//!   the pairs' columns, matches gathered into the stage's tile buffer;
//! * [`collect`] and [`aggregate`] — the two sinks: a batch, or a
//!   [`BatchGroupTable`] whose grouping columns *and* aggregate states
//!   are typed columns and whose groups are found by the grouping
//!   columns that determine the rest.
//!
//! `drive` runs a pipeline once over its whole source, on the caller's
//! thread, into one sink. Every stage charges the governor per tile via
//! [`ResourceGovernor::charge_output_bulk`] (clamped so a budget overrun
//! reads as exactly one row past the cap), and cancellation is checked
//! at every tile boundary.
//!
//! Key hashing uses the fx chain ([`hash_columns`]): the hash
//! function is private to one operator execution — candidates are
//! always confirmed by comparing key values, and group/candidate order
//! never depends on hash values — so a cheap mix changes no observable
//! output.

use crate::engine::ExecOptions;
use crate::lookup::{dir_cells, dir_index, ordinal_cell, AggInput, JoinIndex, Ordinals};
use aggview_common::expr::{BoundExpr, NumColumn};
use aggview_common::predicate::BoundPredicate;
use aggview_common::{
    hash_columns, AggFunc, AggViewError, Batch, ColumnVec, DataType, Result, StrCol, Value,
};
use aggview_core::governor::ResourceGovernor;
use aggview_storage::Table;
use std::borrow::Cow;
use std::cmp::Ordering;
use std::ops::Range;
use std::sync::Arc;

/// Iterate tiles of `batch_rows` over `range`, checking the governor at
/// each tile boundary.
fn for_each_tile(
    gov: &ResourceGovernor,
    range: Range<usize>,
    batch_rows: usize,
    mut body: impl FnMut(Range<usize>) -> Result<()>,
) -> Result<()> {
    let step = batch_rows.max(1);
    let mut i = range.start;
    while i < range.end {
        gov.check_interrupt()?;
        let end = (i + step).min(range.end);
        body(i..end)?;
        i = end;
    }
    Ok(())
}

// ---------------------------------------------------------------------
// Filtering: selection-vector sweeps
// ---------------------------------------------------------------------

/// Push every row of the current selection that passes `test`.
/// `cur == None` means "all rows of `rows`". Every candidate is written
/// and the write position advances only past the ones that pass: no
/// branch depends on the data, so a filter that keeps half its rows
/// costs what one that keeps all or none does.
fn sel_by(
    rows: Range<usize>,
    cur: Option<&[u32]>,
    out: &mut Vec<u32>,
    test: impl Fn(usize) -> bool,
) {
    let from = out.len();
    out.resize(from + cur.map_or(rows.len(), <[u32]>::len), 0);
    let mut n = from;
    let mut keep = |i: u32| {
        out[n] = i;
        n += usize::from(test(i as usize));
    };
    match cur {
        Some(sel) => sel.iter().for_each(|&i| keep(i)),
        None => rows.for_each(|i| keep(i as u32)),
    }
    out.truncate(n);
}

/// [`sel_by`] on a three-way comparison: keep the rows whose `ord(i)`
/// satisfies `op`.
fn sel_by_ord(
    op: aggview_common::CmpOp,
    rows: Range<usize>,
    cur: Option<&[u32]>,
    out: &mut Vec<u32>,
    ord: impl Fn(usize) -> Ordering,
) {
    sel_by(rows, cur, out, |i| op.matches(ord(i)));
}

/// Fallible variant of [`sel_by_ord`] for generic row-wise evaluation.
fn sel_by_eval(
    rows: Range<usize>,
    cur: Option<&[u32]>,
    out: &mut Vec<u32>,
    mut f: impl FnMut(usize) -> Result<bool>,
) -> Result<()> {
    match cur {
        Some(sel) => {
            for &i in sel {
                if f(i as usize)? {
                    out.push(i);
                }
            }
        }
        None => {
            for i in rows {
                if f(i)? {
                    out.push(i as u32);
                }
            }
        }
    }
    Ok(())
}

/// Typed column-vs-constant sweep. Returns `false` when no typed
/// specialization applies (caller falls back to generic evaluation,
/// which also produces the row-wise evaluator's error for incomparable types).
/// A coded string column never gets here against a string constant:
/// [`RowFilter`] settles that comparison per dictionary entry.
fn sel_col_const(
    op: aggview_common::CmpOp,
    col: &ColumnVec,
    c: &Value,
    rows: Range<usize>,
    cur: Option<&[u32]>,
    out: &mut Vec<u32>,
) -> bool {
    match (col, c) {
        (ColumnVec::Int(xs), Value::Int(k)) => sel_by_ord(op, rows, cur, out, |i| xs[i].cmp(k)),
        (ColumnVec::Int(xs), Value::Float(k)) => {
            sel_by_ord(op, rows, cur, out, |i| (xs[i] as f64).total_cmp(k))
        }
        (ColumnVec::Float(xs), Value::Int(k)) => {
            let k = *k as f64;
            sel_by_ord(op, rows, cur, out, |i| xs[i].total_cmp(&k))
        }
        (ColumnVec::Float(xs), Value::Float(k)) => {
            sel_by_ord(op, rows, cur, out, |i| xs[i].total_cmp(k))
        }
        (ColumnVec::Bool(xs), Value::Bool(k)) => sel_by_ord(op, rows, cur, out, |i| xs[i].cmp(k)),
        _ => return false,
    }
    true
}

/// Typed column-vs-column sweep; same fallback convention as
/// [`sel_col_const`].
fn sel_col_col(
    op: aggview_common::CmpOp,
    a: &ColumnVec,
    b: &ColumnVec,
    rows: Range<usize>,
    cur: Option<&[u32]>,
    out: &mut Vec<u32>,
) -> bool {
    match (a, b) {
        (ColumnVec::Int(xs), ColumnVec::Int(ys)) => {
            sel_by_ord(op, rows, cur, out, |i| xs[i].cmp(&ys[i]))
        }
        (ColumnVec::Int(xs), ColumnVec::Float(ys)) => {
            sel_by_ord(op, rows, cur, out, |i| (xs[i] as f64).total_cmp(&ys[i]))
        }
        (ColumnVec::Float(xs), ColumnVec::Int(ys)) => {
            sel_by_ord(op, rows, cur, out, |i| xs[i].total_cmp(&(ys[i] as f64)))
        }
        (ColumnVec::Float(xs), ColumnVec::Float(ys)) => {
            sel_by_ord(op, rows, cur, out, |i| xs[i].total_cmp(&ys[i]))
        }
        (ColumnVec::Str(xs), ColumnVec::Str(ys)) => {
            sel_by_ord(op, rows, cur, out, |i| xs.get(i).cmp(ys.get(i)))
        }
        (ColumnVec::Bool(xs), ColumnVec::Bool(ys)) => {
            sel_by_ord(op, rows, cur, out, |i| xs[i].cmp(&ys[i]))
        }
        _ => return false,
    }
    true
}

/// The conjunction `preds` over a set of columns (predicates are bound
/// to their numbering), readied for tile-wise sweeps: whatever depends
/// on the columns' dictionaries alone is worked out once here, not per
/// tile.
pub(crate) struct RowFilter<'a> {
    preds: &'a [BoundPredicate],
    /// Per predicate, when it compares a coded string column to a string
    /// constant: the column and the comparison's outcome for each entry
    /// of its dictionary, so the sweep never touches a string. A table
    /// keeps a dictionary under twice its column's distinct strings, so
    /// this is at most two comparisons a row of a full sweep — and one
    /// per distinct string, usually far fewer.
    str_pass: Vec<Option<(usize, Vec<bool>)>>,
}

impl<'a> RowFilter<'a> {
    /// `col` hands out the columns [`Self::rows`] will sweep, or empty
    /// ones over the same dictionaries.
    pub(crate) fn new<'c>(
        preds: &'a [BoundPredicate],
        col: impl Fn(usize) -> &'c ColumnVec,
    ) -> Self {
        let str_pass = preds
            .iter()
            .map(|p| {
                // Flip the operator when the constant is on the left,
                // so the column drives the comparison.
                let (op, i, k) = match (&p.left, &p.right) {
                    (BoundExpr::Col(i), BoundExpr::Const(Value::Str(k))) => (p.op, *i, k),
                    (BoundExpr::Const(Value::Str(k)), BoundExpr::Col(i)) => (p.op.flipped(), *i, k),
                    _ => return None,
                };
                let dict = col(i).as_strs()?.dict();
                Some((
                    i,
                    dict.strs().iter().map(|s| op.matches(s.cmp(k))).collect(),
                ))
            })
            .collect();
        RowFilter { preds, str_pass }
    }

    /// Evaluate the conjunction over rows `rows` of `col`'s columns,
    /// returning the surviving row indices (`None` = every row survives).
    ///
    /// Predicates sweep one at a time over the shrinking selection, so
    /// evaluation is predicate-major; when several predicates *can* error
    /// (only possible on ill-typed data), the surfaced error may belong to a
    /// different row than the row-major reference would pick — both paths
    /// still error, with identical messages for any given (row, predicate).
    pub(crate) fn rows<'c>(
        &self,
        col: impl Fn(usize) -> &'c ColumnVec,
        rows: Range<usize>,
    ) -> Result<Option<Vec<u32>>> {
        let n = rows.len();
        let mut cur: Option<Vec<u32>> = None;
        let mut next: Vec<u32> = Vec::new();
        for (p, str_pass) in self.preds.iter().zip(&self.str_pass) {
            next.clear();
            let sel = cur.as_deref();
            let coded = str_pass
                .as_ref()
                .and_then(|(i, pass)| Some((col(*i).as_strs()?.codes(), pass)));
            let handled = if let Some((codes, pass)) = coded {
                sel_by(rows.clone(), sel, &mut next, |r| pass[codes[r] as usize]);
                true
            } else {
                match (&p.left, &p.right) {
                    (BoundExpr::Col(i), BoundExpr::Const(v)) => {
                        sel_col_const(p.op, col(*i), v, rows.clone(), sel, &mut next)
                    }
                    (BoundExpr::Const(v), BoundExpr::Col(j)) => {
                        // Flip the operator so the column drives the sweep; the
                        // typed specializations only fire for comparable pairs,
                        // where flipping cannot change the outcome or error.
                        sel_col_const(p.op.flipped(), col(*j), v, rows.clone(), sel, &mut next)
                    }
                    (BoundExpr::Col(i), BoundExpr::Col(j)) => {
                        sel_col_col(p.op, col(*i), col(*j), rows.clone(), sel, &mut next)
                    }
                    // Arithmetic over typed numeric columns: both sides a
                    // column at a time. Only while no earlier predicate has
                    // dropped a row — a row-major evaluation never computes
                    // (and never fails on) the later predicates of a dropped
                    // row, so neither may this.
                    (l, r)
                        if sel.is_none()
                            && l.numeric_type(&col).is_some()
                            && r.numeric_type(&col).is_some() =>
                    {
                        let side = |e: &BoundExpr| {
                            Ok(match e.eval_columns(&col, rows.clone())? {
                                NumColumn::Int(xs) => ColumnVec::Int(xs),
                                NumColumn::Float(xs) => ColumnVec::Float(xs),
                            })
                        };
                        sel_col_col(p.op, &side(l)?, &side(r)?, 0..n, None, &mut next);
                        next.iter_mut().for_each(|i| *i += rows.start as u32);
                        true
                    }
                    _ => false,
                }
            };
            if !handled {
                sel_by_eval(rows.clone(), sel, &mut next, |i| {
                    p.eval_with(&|k| col(k).value_at(i))
                })?;
            }
            if next.len() == n && cur.is_none() {
                next.clear(); // still unselective
            } else {
                cur = Some(std::mem::take(&mut next));
                if cur.as_deref().is_some_and(<[u32]>::is_empty) {
                    break;
                }
            }
        }
        Ok(cur)
    }
}

// ---------------------------------------------------------------------
// Held rows
// ---------------------------------------------------------------------

/// The rows of a table that pass a scan's filters: one bit a row, so a
/// filter that keeps most of a large table holds what one that keeps
/// little does.
#[derive(Debug)]
struct Selection {
    words: Vec<u64>,
    count: usize,
}

impl Selection {
    /// Visit the words `range` reaches into, each with the mask of the
    /// bits of `range` it holds and the row of its lowest such bit.
    fn words_of(range: Range<usize>, mut visit: impl FnMut(usize, u64, usize)) {
        let mut at = range.start;
        while at < range.end {
            let end = (((at >> 6) + 1) << 6).min(range.end);
            let low = !0u64 >> (64 - (end - at));
            visit(at >> 6, low << (at & 63), at);
            at = end;
        }
    }

    fn add(&mut self, rows: &[u32]) {
        self.count += rows.len();
        for &i in rows {
            self.words[i as usize >> 6] |= 1 << (i & 63);
        }
    }

    fn add_all(&mut self, range: Range<usize>) {
        self.count += range.len();
        Self::words_of(range, |w, mask, _| self.words[w] |= mask);
    }

    /// The selected rows of `range`, ascending, appended to `out`.
    fn rows_in(&self, range: Range<usize>, out: &mut Vec<u32>) {
        Self::words_of(range, |w, mask, first| {
            let mut bits = (self.words[w] & mask) >> (first & 63);
            while bits != 0 {
                out.push((first + bits.trailing_zeros() as usize) as u32);
                bits &= bits - 1;
            }
        });
    }
}

/// Rows held whole — where a pipeline starts and what a join builds on:
/// a table's own columns behind the selection of a scan (nothing is
/// copied out of the table), or a batch a pipeline collected.
#[derive(Debug)]
pub struct Held {
    data: HeldData,
    /// The rows that count, when a scan's filters dropped some.
    sel: Option<Selection>,
}

#[derive(Debug)]
enum HeldData {
    /// Column `i` is the table's column `positions[i]`. The scan's output
    /// is charged to the governor when it is read.
    Scan {
        table: Arc<Table>,
        positions: Vec<usize>,
    },
    /// Charged when it was made.
    Batch(Batch),
}

/// Rows and their byte width ([`aggview_common::Tuple::width`] summed):
/// what one stage of a pipeline put out.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Flow {
    pub rows: u64,
    pub bytes: u64,
}

impl Flow {
    fn add(&mut self, rows: usize, bytes: u64) {
        self.rows += rows as u64;
        self.bytes += bytes;
    }
}

impl Held {
    pub fn batch(batch: Batch) -> Held {
        Held {
            data: HeldData::Batch(batch),
            sel: None,
        }
    }

    /// The batch, if these rows are one.
    pub fn into_batch(self) -> Option<Batch> {
        match self.data {
            HeldData::Batch(b) => Some(b),
            HeldData::Scan { .. } => None,
        }
    }

    pub fn is_scan(&self) -> bool {
        matches!(self.data, HeldData::Scan { .. })
    }

    /// Rows that count.
    pub fn rows(&self) -> usize {
        self.sel.as_ref().map_or(self.stored(), |s| s.count)
    }

    /// Rows the columns hold, selected or not.
    fn stored(&self) -> usize {
        match &self.data {
            HeldData::Scan { table, .. } => table.len(),
            HeldData::Batch(b) => b.len(),
        }
    }

    pub fn cols(&self) -> Vec<&ColumnVec> {
        match &self.data {
            HeldData::Scan { table, positions } => {
                positions.iter().map(|&p| table.column(p)).collect()
            }
            HeldData::Batch(b) => b.cols().iter().collect(),
        }
    }

    /// Bytes held on top of the table: the selection, or the batch.
    pub fn resident_bytes(&self) -> u64 {
        match &self.data {
            HeldData::Scan { .. } => self.sel.as_ref().map_or(0, |s| 8 * s.words.len() as u64),
            HeldData::Batch(b) => b.total_bytes(),
        }
    }
}

/// Sweep `preds` (bound to `table`'s physical column numbers) over the
/// table a tile at a time, handing `each` the tile's rows and the ones
/// of them that pass (`None`: all).
fn filter_tiles(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    table: &Table,
    preds: &[BoundPredicate],
    mut each: impl FnMut(Range<usize>, Option<Vec<u32>>) -> Result<()>,
) -> Result<()> {
    let col = |p: usize| table.column(p);
    let filter = RowFilter::new(preds, col);
    for_each_tile(gov, 0..table.len(), opts.batch_rows, |rows| {
        each(rows.clone(), filter.rows(col, rows)?)
    })
}

/// Scan `table`: evaluate `preds` into a selection and hold the table's
/// columns `positions` behind it. Nothing is copied and nothing is
/// charged yet — the rows are when a pipeline reads them or a join
/// builds on them — but their number is known.
pub fn scan_table(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    table: Arc<Table>,
    preds: &[BoundPredicate],
    positions: Vec<usize>,
) -> Result<Held> {
    let mut sel = None;
    if !preds.is_empty() {
        let mut kept = Selection {
            words: vec![0; table.len().div_ceil(64)],
            count: 0,
        };
        filter_tiles(opts, gov, &table, preds, |rows, pass| {
            match pass {
                Some(pass) => kept.add(&pass),
                None => kept.add_all(rows),
            }
            Ok(())
        })?;
        sel = (kept.count < table.len()).then_some(kept);
    }
    let data = HeldData::Scan { table, positions };
    Ok(Held { data, sel })
}

/// The positions of `table`'s rows that pass `preds`, ascending: the
/// scan's filter alone, for statements that address rows in place.
/// Every row swept is charged to the row budget, a tile at a time.
pub fn matching_rows(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    table: &Table,
    preds: &[BoundPredicate],
) -> Result<Vec<usize>> {
    let mut out = Vec::new();
    filter_tiles(opts, gov, table, preds, |rows, pass| {
        gov.charge_output_bulk(rows.len() as u64, 0)?;
        match pass {
            Some(pass) => out.extend(pass.iter().map(|&i| i as usize)),
            None => out.extend(rows),
        }
        Ok(())
    })?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------

/// Where a column of joined pairs comes from: the build side or the
/// probe side, and which column of it.
pub type Slot = (bool, usize);

/// One join as a pipeline stage sees it, in positions: of the build
/// side's columns, and of the tile coming in on the probe side.
#[derive(Debug, Default)]
pub struct JoinShape {
    /// `(build column, probe column)` of every hashable equality.
    pub keys: Vec<(usize, usize)>,
    /// The other predicates, bound to the numbering of `residual_slots`:
    /// the columns they read.
    pub residual: Vec<BoundPredicate>,
    pub residual_slots: Vec<Slot>,
    /// The columns the join puts out.
    pub emit: Vec<Slot>,
}

/// One join of a pipeline: the tile coming in probes an index over the
/// held build side — by key ordinal on a direct index, which holds the
/// rows of exactly that key; otherwise by hashing the tile's key columns
/// and confirming candidates by per-column key comparison; with no
/// equality at all every build row is a candidate — and the pairs that
/// pass the residual predicates are gathered column by column, in probe
/// order, each probe row's matches in build order.
pub struct Probe<'a> {
    build: Vec<&'a ColumnVec>,
    /// What the build side comes to as an operator's output.
    pub build_flow: Flow,
    /// The stored row of build row `i`, behind a scan's selection.
    rows: Option<Vec<u32>>,
    shape: &'a JoinShape,
    /// The build key columns by build row: the held columns themselves,
    /// or gathered through `rows`.
    keys: Vec<Cow<'a, ColumnVec>>,
    /// `None`: the join has no equality to index.
    index: Option<JoinIndex>,
    residual: RowFilter<'a>,
    /// Empty columns like the ones this stage puts out, and like the
    /// ones its residual predicates read.
    protos: Vec<ColumnVec>,
    residual_protos: Vec<ColumnVec>,
}

/// The buffers of one [`Probe`]: cleared and refilled tile after tile.
struct ProbeWork {
    out: Vec<ColumnVec>,
    residual: Vec<ColumnVec>,
    build_sel: Vec<u32>,
    probe_sel: Vec<u32>,
    hashes: Vec<u64>,
    flow: Flow,
}

impl<'a> Probe<'a> {
    /// Take `held` as the build side of a join whose probe tiles have
    /// columns like `probe`: charge its rows to the governor if they are
    /// a scan's output (nothing is copied), and index them. A one-column
    /// key of small ordinals on both sides ([`Ordinals::pair`]) whose
    /// build-side range passes the ordinal rule is addressed directly
    /// ([`JoinIndex::direct`]); anything else hashes the key columns
    /// tile-wise and links every row into the hashed index.
    pub fn new(
        opts: &ExecOptions,
        gov: &ResourceGovernor,
        held: &'a Held,
        probe: &[&ColumnVec],
        shape: &'a JoinShape,
    ) -> Result<Probe<'a>> {
        gov.check_interrupt()?;
        let build = held.cols();
        let n = held.rows();
        let rows = held.sel.as_ref().map(|sel| {
            let mut rows = Vec::with_capacity(n);
            sel.rows_in(0..held.stored(), &mut rows);
            rows
        });
        let mut build_flow = Flow::default();
        if held.is_scan() {
            let width = |c: &&ColumnVec| match &rows {
                Some(rows) => c.bytes_at(rows.iter().map(|&i| i as usize)),
                None => c.total_bytes(),
            };
            build_flow.add(n, build.iter().map(width).sum());
            gov.charge_output_bulk(build_flow.rows, build_flow.bytes)?;
        } else {
            build_flow.add(n, held.resident_bytes());
        }
        let keys: Vec<Cow<'a, ColumnVec>> = shape
            .keys
            .iter()
            .map(|&(b, _)| match &rows {
                None => Ok(Cow::Borrowed(build[b])),
                Some(rows) => {
                    let mut key = build[b].empty_like();
                    key.append_gather(build[b], rows)?;
                    Ok(Cow::Owned(key))
                }
            })
            .collect::<Result<_>>()?;
        let direct = match (&keys[..], &shape.keys[..]) {
            ([key], [(_, p)]) => Ordinals::pair(key, probe[*p])
                .and_then(|(ordinals, _)| JoinIndex::direct(ordinals, n)),
            _ => None,
        };
        let index = if keys.is_empty() || direct.is_some() {
            direct
        } else {
            let mut hashes = Vec::with_capacity(n);
            let mut tile = Vec::new();
            for_each_tile(gov, 0..n, opts.batch_rows, |r| {
                hash_columns(keys.iter().map(|k| &**k), r, &mut tile);
                hashes.extend_from_slice(&tile);
                Ok(())
            })?;
            Some(JoinIndex::new(hashes))
        };
        let like = |slots: &[Slot]| -> Vec<ColumnVec> {
            let of = |&(from_build, c): &Slot| if from_build { build[c] } else { probe[c] };
            slots.iter().map(|s| of(s).empty_like()).collect()
        };
        let residual_protos = like(&shape.residual_slots);
        Ok(Probe {
            residual: RowFilter::new(&shape.residual, |i| &residual_protos[i]),
            protos: like(&shape.emit),
            residual_protos,
            build,
            build_flow,
            rows,
            shape,
            keys,
            index,
        })
    }

    /// Bytes this stage holds while the pipeline runs: the index, the row
    /// map and the gathered keys.
    pub fn resident_bytes(&self) -> u64 {
        let owned = |k: &Cow<'_, ColumnVec>| match k {
            Cow::Owned(k) => k.total_bytes(),
            Cow::Borrowed(_) => 0,
        };
        self.index.as_ref().map_or(0, JoinIndex::bytes)
            + self.rows.as_ref().map_or(0, |r| 4 * r.len() as u64)
            + self.keys.iter().map(owned).sum::<u64>()
    }

    /// Empty columns like the ones this stage puts out.
    pub fn protos(&self) -> Vec<&ColumnVec> {
        self.protos.iter().collect()
    }

    fn work(&self) -> ProbeWork {
        ProbeWork {
            out: self.protos.clone(),
            residual: self.residual_protos.clone(),
            build_sel: Vec::new(),
            probe_sel: Vec::new(),
            hashes: Vec::new(),
            flow: Flow::default(),
        }
    }

    /// Gather the pairs `(build_sel[k], probe_sel[k])` — stored build
    /// rows and rows of the tile `cols` — into `dst` by `slots`,
    /// returning the byte width appended.
    fn gather(
        &self,
        slots: &[Slot],
        dst: &mut [ColumnVec],
        cols: &[&ColumnVec],
        (build_sel, probe_sel): (&[u32], &[u32]),
    ) -> Result<u64> {
        let pairs = dst.iter_mut().zip(slots);
        let widths = pairs.map(|(col, &(from_build, c))| match from_build {
            true => col.append_gather(self.build[c], build_sel),
            false => col.append_gather(cols[c], probe_sel),
        });
        widths.sum()
    }

    /// Put out the pairs collected in `work`: drop the ones a residual
    /// predicate rejects, gather the rest into the stage's buffer —
    /// emptied first, unless `keep` makes the buffer the pipeline's
    /// collected output — charge them, and hand the buffer on.
    fn flush(
        &self,
        gov: &ResourceGovernor,
        cols: &[&ColumnVec],
        work: &mut ProbeWork,
        keep: bool,
        emit: &mut impl FnMut(&[&ColumnVec], Range<usize>) -> Result<()>,
    ) -> Result<()> {
        gov.check_interrupt()?;
        if !self.shape.residual.is_empty() {
            work.residual.iter_mut().for_each(ColumnVec::clear);
            let pairs = (&work.build_sel[..], &work.probe_sel[..]);
            self.gather(&self.shape.residual_slots, &mut work.residual, cols, pairs)?;
            let gathered = &work.residual;
            if let Some(pass) = self.residual.rows(|i| &gathered[i], 0..pairs.0.len())? {
                // `pass` ascends, so pair `k` never lands past itself.
                for (to, &k) in pass.iter().enumerate() {
                    work.build_sel[to] = work.build_sel[k as usize];
                    work.probe_sel[to] = work.probe_sel[k as usize];
                }
                work.build_sel.truncate(pass.len());
                work.probe_sel.truncate(pass.len());
            }
        }
        let n = work.build_sel.len();
        if n > 0 {
            if !keep {
                work.out.iter_mut().for_each(ColumnVec::clear);
            }
            let pairs = (&work.build_sel[..], &work.probe_sel[..]);
            let w = self.gather(&self.shape.emit, &mut work.out, cols, pairs)?;
            gov.charge_output_bulk(n as u64, w)?;
            work.flow.add(n, w);
            if !keep {
                let out: Vec<&ColumnVec> = work.out.iter().collect();
                emit(&out, 0..n)?;
            }
        }
        work.build_sel.clear();
        work.probe_sel.clear();
        Ok(())
    }

    /// Probe with rows `range` of the tile `cols`, flushing whenever
    /// `batch_rows` pairs have come together (a probe row's matches are
    /// never split, so a buffer overshoots by at most one chain).
    fn run(
        &self,
        (gov, batch_rows): (&ResourceGovernor, usize),
        cols: &[&ColumnVec],
        range: Range<usize>,
        work: &mut ProbeWork,
        keep: bool,
        mut emit: impl FnMut(&[&ColumnVec], Range<usize>) -> Result<()>,
    ) -> Result<()> {
        let stored = |bi: u32| self.rows.as_ref().map_or(bi, |rows| rows[bi as usize]);
        let probe_key = |k: usize| cols[self.shape.keys[k].1];
        let ordinals = match &self.keys[..] {
            [key] => Ordinals::pair(key, probe_key(0)),
            _ => None,
        };
        // One `$probe_row` per probe row, pushing its pairs.
        macro_rules! sweep {
            ($pi:ident, $probe_row:block) => {
                for $pi in range.clone() {
                    $probe_row
                    if work.build_sel.len() >= batch_rows {
                        self.flush(gov, cols, work, keep, &mut emit)?;
                    }
                }
            };
        }
        match (&self.index, ordinals) {
            (None, _) => sweep!(pi, {
                let n = self.build_flow.rows as u32;
                work.build_sel.extend((0..n).map(stored));
                work.probe_sel.extend((0..n).map(|_| pi as u32));
            }),
            // Whether a probe row has a match is as unpredictable as the
            // build side's filter made it: the first pair is written
            // either way (a direct index has a row 0) and kept only if
            // there is one, so the loop branches on nothing but a second
            // row of the same key.
            (Some(index), Some((_, key))) if index.is_direct() => sweep!(pi, {
                let head = index.head(key.at(pi));
                let first = head.saturating_sub(1);
                let pairs = work.build_sel.len() + usize::from(head != 0);
                work.build_sel.push(stored(first));
                work.probe_sel.push(pi as u32);
                work.build_sel.truncate(pairs);
                work.probe_sel.truncate(pairs);
                let mut at = index.after(first) * u32::from(head != 0);
                while let Some(bi) = at.checked_sub(1) {
                    work.build_sel.push(stored(bi));
                    work.probe_sel.push(pi as u32);
                    at = index.after(bi);
                }
            }),
            (Some(index), ordinals) => {
                // A single Int key on both sides is confirmed on the `i64`
                // slices themselves: cheaper than the hash comparison that
                // would spare it.
                let int_keys = match ordinals {
                    Some((Ordinals::Int(bk), Ordinals::Int(pk))) => Some((bk, pk)),
                    _ => None,
                };
                let mut hashes = std::mem::take(&mut work.hashes);
                let probe_keys = (0..self.keys.len()).map(probe_key);
                hash_columns(probe_keys, range.clone(), &mut hashes);
                sweep!(pi, {
                    let h = hashes[pi - range.start];
                    for bi in index.chain(h) {
                        let b = bi as usize;
                        let same_key = match int_keys {
                            Some((bk, pk)) => bk[b] == pk[pi],
                            None => {
                                index.hash_of(bi) == h
                                    && (0..self.keys.len())
                                        .all(|k| self.keys[k].eq_rows(b, probe_key(k), pi))
                            }
                        };
                        if same_key {
                            work.build_sel.push(stored(bi));
                            work.probe_sel.push(pi as u32);
                        }
                    }
                });
                work.hashes = hashes;
            }
        }
        self.flush(gov, cols, work, keep, &mut emit)
    }
}

// ---------------------------------------------------------------------
// Pipelines
// ---------------------------------------------------------------------

/// Hand rows `range` of the tile `cols` to the first of `probes` —
/// whose output goes to the next, and so on — or, past the last, to the
/// group table. With no table the last probe's buffer is kept as the
/// pipeline's collected output.
fn push(
    env: (&ResourceGovernor, usize),
    probes: &[Probe<'_>],
    work: &mut [ProbeWork],
    cols: &[&ColumnVec],
    range: Range<usize>,
    mut table: Option<&mut BatchGroupTable<'_>>,
) -> Result<()> {
    let (Some((probe, rest)), Some((mine, rest_work))) =
        (probes.split_first(), work.split_first_mut())
    else {
        return table.map_or(Ok(()), |t| t.accumulate(cols, range));
    };
    let keep = rest.is_empty() && table.is_none();
    probe.run(env, cols, range, mine, keep, |cols, range| {
        push(env, rest, rest_work, cols, range, table.as_deref_mut())
    })
}

/// Run the pipeline `source → probes → sink` over the whole source:
/// tiles of the source's selected rows — views of its columns where a
/// tile lost no row, gathered into a buffer otherwise — pass through
/// every probe into `table` or, with none, a collected batch. Returns
/// the last stage's buffer — the collected rows, when there is no
/// table — and what each stage (the source first) put out.
fn drive(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    source: &Held,
    probes: &[Probe<'_>],
    mut table: Option<&mut BatchGroupTable<'_>>,
) -> Result<(Vec<ColumnVec>, Vec<Flow>)> {
    let cols = source.cols();
    // With nothing between the source and a collected batch, the scan's
    // buffer is that batch.
    let keep = probes.is_empty() && table.is_none();
    let env = (gov, opts.batch_rows.max(1));
    let mut buf: Vec<ColumnVec> = cols.iter().map(|c| c.empty_like()).collect();
    let mut flow = Flow::default();
    let mut ids = Vec::new();
    let mut work: Vec<ProbeWork> = probes.iter().map(Probe::work).collect();
    for_each_tile(gov, 0..source.stored(), opts.batch_rows, |tile| {
        ids.clear();
        if let Some(sel) = &source.sel {
            sel.rows_in(tile.clone(), &mut ids);
        }
        let all = source.sel.is_none() || ids.len() == tile.len();
        let n = if all { tile.len() } else { ids.len() };
        let copy = keep || !all;
        let w: u64 = if copy {
            if !keep {
                buf.iter_mut().for_each(ColumnVec::clear);
            }
            let copied = buf.iter_mut().zip(&cols).map(|(dst, src)| match all {
                true => dst.append_range(src, tile.clone()),
                false => dst.append_gather(src, &ids),
            });
            copied.sum::<Result<u64>>()?
        } else if source.is_scan() {
            cols.iter().map(|c| c.bytes_at(tile.clone())).sum()
        } else {
            0
        };
        if source.is_scan() {
            gov.charge_output_bulk(n as u64, w)?;
            flow.add(n, w);
        }
        let table = table.as_deref_mut();
        if n == 0 || keep {
            Ok(())
        } else if copy {
            let held: Vec<&ColumnVec> = buf.iter().collect();
            push(env, probes, &mut work, &held, 0..n, table)
        } else {
            push(env, probes, &mut work, &cols, tile, table)
        }
    })?;
    if !source.is_scan() {
        flow.add(source.rows(), source.resident_bytes());
    }
    let mut flows = vec![flow];
    flows.extend(work.iter().map(|w| w.flow));
    Ok((work.pop().map_or(buf, |last| last.out), flows))
}

/// Run `source → probes` into a batch. The flows are the source's and
/// every probe's, in pipeline order.
pub fn collect(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    source: &Held,
    probes: &[Probe<'_>],
) -> Result<(Batch, Vec<Flow>)> {
    let (cols, flows) = drive(opts, gov, source, probes, None)?;
    let rows = flows[probes.len()].rows as usize;
    Ok((Batch::from_parts(cols, rows), flows))
}

// ---------------------------------------------------------------------
// Aggregation
// ---------------------------------------------------------------------

/// Open-addressed slot directory for [`BatchGroupTable`]: maps a key
/// hash to a group slot by linear probing over a flat `Vec<u32>` of
/// `slot + 1` entries (`0` = empty). Compared to a chained hash map this
/// is one dependent load per probe step and no per-bucket allocation;
/// distinct keys that share a hash simply occupy separate cells along
/// the probe chain. The directory is purely an index — group order is
/// first-seen append order, so its layout never affects output.
struct SlotDir {
    table: Vec<u32>,
    /// `log2(table.len())`: the home cell is [`dir_index`] of this many
    /// bits.
    bits: u32,
}

/// Directory probe outcome: an existing group, or the empty cell where
/// the new group's slot belongs.
enum Found {
    Hit(usize),
    Miss(usize),
}

impl SlotDir {
    fn new() -> SlotDir {
        SlotDir {
            table: vec![0; 16],
            bits: 4,
        }
    }

    fn mask(&self) -> usize {
        self.table.len() - 1
    }

    /// Keep the directory at most half full so probe chains stay short
    /// (and always terminate); the per-group cost of the larger table is
    /// 8 bytes, dwarfed by the group's key and states.
    ///
    /// Half full means the directory over `g` groups comes to
    /// [`dir_cells`]`(g)` cells, and `n` rows make at most `n` groups.
    /// `dir_cells(n)` is therefore the bound of the ordinal rule
    /// ([`Lookup::Ordinal`]): a flat array over the key's value range is
    /// used when it takes no more cells than this directory could come
    /// to.
    fn needs_grow(&self, groups: usize) -> bool {
        groups * 2 >= self.table.len()
    }

    /// Enter slots `from..` in the first free cell from the home of
    /// their hashes (`hashes[s]` is slot `s`'s) — every slot, into a
    /// directory doubled until it has room, when these would overfill
    /// it. Deterministic given the (deterministic) group order.
    fn seat(&mut self, hashes: &[u64], mut from: usize) {
        if self.needs_grow(hashes.len()) {
            let mut cells = self.table.len();
            while hashes.len() * 2 >= cells {
                cells *= 2;
            }
            self.table.clear();
            self.table.resize(cells, 0);
            self.bits = cells.trailing_zeros();
            from = 0;
        }
        let mask = self.mask();
        for (s, &h) in hashes.iter().enumerate().skip(from) {
            let mut idx = dir_index(h, self.bits);
            while self.table[idx] != 0 {
                idx = (idx + 1) & mask;
            }
            self.table[idx] = s as u32 + 1;
        }
    }
}

/// A typed column — of the input batch or of one evaluated tile — as
/// the slice an accumulator reads.
#[derive(Clone, Copy)]
enum Typed<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Bool(&'a [bool]),
    /// Codes, and a column over the dictionary that orders them.
    Str(&'a [u32], &'a StrCol),
}

impl<'a> Typed<'a> {
    fn of(col: &'a ColumnVec) -> Typed<'a> {
        match col {
            ColumnVec::Int(xs) => Typed::Int(xs),
            ColumnVec::Float(xs) => Typed::Float(xs),
            ColumnVec::Bool(xs) => Typed::Bool(xs),
            ColumnVec::Str(xs) => Typed::Str(xs.codes(), xs),
        }
    }

    fn slice(self, r: Range<usize>) -> Typed<'a> {
        match self {
            Typed::Int(xs) => Typed::Int(&xs[r]),
            Typed::Float(xs) => Typed::Float(&xs[r]),
            Typed::Bool(xs) => Typed::Bool(&xs[r]),
            Typed::Str(xs, col) => Typed::Str(&xs[r], col),
        }
    }
}

/// Where an aggregate's raw argument comes from.
#[derive(Clone, Copy)]
enum Arg<'a> {
    /// A column of the tile.
    Col(usize),
    /// A constant, repeated to the tile's length.
    Const(&'a Value),
    /// Evaluated a tile at a time ([`BoundExpr::eval_columns`]).
    Expr(&'a BoundExpr),
}

/// A column of `n` copies of `v`: a constant argument as a tile. One
/// string repeated always comes to the same one-entry dictionary.
fn repeated(v: &Value, n: usize) -> Result<ColumnVec> {
    let mut col = ColumnVec::with_type(v.data_type());
    (0..n).try_for_each(|_| col.push_value(v.clone()))?;
    Ok(col)
}

/// How one aggregate reads the tiles coming in: its [`AggInput`]
/// resolved against their columns' types, once per operator. Columns
/// are named by position and read tile by tile.
#[derive(Clone, Copy)]
enum Feed<'a> {
    /// A raw argument, each row standing for `weight` rows (`None`:
    /// one). COUNT goes without: its argument is only ever evaluated for
    /// its errors, and a bare column has none. A one-component partial
    /// state (SUM, MIN, MAX) merges exactly as its value absorbs, so it
    /// is fed as a raw column too.
    Raw {
        arg: Option<Arg<'a>>,
        weight: Option<usize>,
    },
    /// Partial-state components that *add*: the float sums (none for
    /// COUNT, one for AVG, two for STDDEV) and the row count.
    Partial { sums: [Option<usize>; 2], n: usize },
}

/// One tile of a [`Feed`], indexed by tile row.
enum Tile<'t> {
    Raw {
        x: Option<Typed<'t>>,
        weight: Option<&'t [i64]>,
    },
    Partial {
        sums: [&'t [f64]; 2],
        n: &'t [i64],
    },
}

/// "No string yet": the identity of a running string MIN/MAX.
const NO_CODE: u32 = u32::MAX;

/// The running extreme of each group under the type's total order.
enum Extremes {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Bool(Vec<bool>),
    /// Codes into the dictionary of `like` (the input column, emptied).
    Str {
        codes: Vec<u32>,
        like: StrCol,
    },
}

/// One aggregate's state for every group, as typed columns: entry `g`
/// of each vector belongs to group `g`.
///
/// A group is created by a row that every aggregate then absorbs, so no
/// group is ever empty and an accumulator needs no "seen" flag: it
/// starts at the identity of its operation, chosen so that the first
/// value lands bit for bit — `0` and `-0.0` for sums (`-0.0 + x` is `x`
/// for every `x`; `+0.0 + -0.0` is not `-0.0`), the far end of the total
/// order for MIN and MAX. From there every step is the arithmetic of
/// [`PartialAggState`]: the same checked integer adds with the same
/// messages, float adds in the same per-group row order, `total_cmp`
/// for float extremes, AVG and STDDEV seeded at `+0.0`.
enum AccCol {
    Count(Vec<i64>),
    SumInt(Vec<i64>),
    SumFloat(Vec<f64>),
    /// MIN keeps what compares `Less`, MAX what compares `Greater`.
    Extreme(Ordering, Extremes),
    /// AVG (`sumsq: None`) and STDDEV: running sum, sum of squares and
    /// row count.
    Moments {
        sum: Vec<f64>,
        sumsq: Option<Vec<f64>>,
        n: Vec<i64>,
    },
}

/// Checked count addition with [`PartialAggState`]'s overflow message.
fn count_add(n: i64, by: i64, what: &str) -> Result<i64> {
    n.checked_add(by)
        .ok_or_else(|| AggViewError::Exec(format!("{what} overflow")))
}

fn sum_add(s: i64, x: i64) -> Result<i64> {
    s.checked_add(x)
        .ok_or_else(|| AggViewError::Exec(format!("SUM overflow ({s} + {x})")))
}

fn sum_scale(x: i64, n: i64) -> Result<i64> {
    x.checked_mul(n)
        .ok_or_else(|| AggViewError::Exec(format!("SUM overflow ({x} * {n})")))
}

fn mismatch() -> AggViewError {
    AggViewError::Exec("aggregate input does not fit its accumulator".into())
}

/// `acc[slot] = step(acc[slot], k)` for every tile row `k`, in row order.
#[inline]
fn fold<T: Copy>(
    acc: &mut [T],
    slots: &[u32],
    mut step: impl FnMut(T, usize) -> Result<T>,
) -> Result<()> {
    for (k, &s) in slots.iter().enumerate() {
        let a = &mut acc[s as usize];
        *a = step(*a, k)?;
    }
    Ok(())
}

/// The vectors of an [`AccCol::Moments`], borrowed for one tile.
struct Moments<'m> {
    sum: &'m mut [f64],
    sumsq: Option<&'m mut [f64]>,
    n: &'m mut [i64],
}

impl Moments<'_> {
    /// Add `delta(k)` — to the sum, the sum of squares and the count —
    /// into the group of every tile row `k`, in row order.
    #[inline]
    fn add(&mut self, slots: &[u32], delta: impl Fn(usize) -> (f64, f64, i64)) -> Result<()> {
        let what = match self.sumsq {
            Some(_) => "STDDEV count",
            None => "AVG count",
        };
        for (k, &g) in slots.iter().enumerate() {
            let (g, (dx, dq, dn)) = (g as usize, delta(k));
            self.sum[g] += dx;
            if let Some(q) = self.sumsq.as_deref_mut() {
                q[g] += dq;
            }
            self.n[g] = count_add(self.n[g], dn, what)?;
        }
        Ok(())
    }
}

/// [`fold`] keeping, per group, the value whose comparison with the
/// running one comes out as `want`.
#[inline]
fn fold_extreme<T: Copy>(
    acc: &mut [T],
    slots: &[u32],
    xs: &[T],
    want: Ordering,
    cmp: impl Fn(&T, &T) -> Ordering,
) -> Result<()> {
    fold(acc, slots, |cur, k| {
        let x = xs[k];
        Ok(if cmp(&x, &cur) == want { x } else { cur })
    })
}

impl AccCol {
    /// The accumulator and feed of `func` over `input`, by the types of
    /// the columns `input` reads — `cols` are the tiles' columns, or
    /// empty ones like them. An input no accumulator takes is ill-typed
    /// (a SUM of strings, arithmetic on a boolean): the dataflow pass
    /// reports it and the engine runs no such plan, so here it is an
    /// error.
    fn resolve<'a>(
        cols: &[&ColumnVec],
        input: &'a AggInput,
        func: AggFunc,
    ) -> Result<(AccCol, Feed<'a>)> {
        let unfit = || AggViewError::Schema(format!("{func} has no accumulator for {input:?}"));
        let col = |i: usize| cols[i];
        let (arg, weight) = match input {
            AggInput::RawCountStar => (None, None),
            AggInput::Raw(e) => (Some(e), None),
            AggInput::Scaled(e, cnt) => {
                col(*cnt).as_int().ok_or_else(unfit)?;
                (e.as_ref(), Some(*cnt))
            }
            AggInput::Partial(comps) => {
                let typed: Vec<Typed<'_>> = comps.iter().map(|&c| Typed::of(col(c))).collect();
                return match (func, &typed[..], &comps[..]) {
                    (AggFunc::Count, [Typed::Int(_)], &[n]) => Ok((
                        AccCol::Count(Vec::new()),
                        Feed::Partial {
                            sums: [None, None],
                            n,
                        },
                    )),
                    (AggFunc::Avg, [Typed::Float(_), Typed::Int(_)], &[s, n]) => Ok((
                        AccCol::moments(None),
                        Feed::Partial {
                            sums: [Some(s), None],
                            n,
                        },
                    )),
                    (
                        AggFunc::StdDev,
                        [Typed::Float(_), Typed::Float(_), Typed::Int(_)],
                        &[s, q, n],
                    ) => Ok((
                        AccCol::moments(Some(Vec::new())),
                        Feed::Partial {
                            sums: [Some(s), Some(q)],
                            n,
                        },
                    )),
                    (AggFunc::Sum | AggFunc::Min | AggFunc::Max, &[x], &[c]) => Ok((
                        AccCol::over(func, x).ok_or_else(unfit)?,
                        Feed::Raw {
                            arg: Some(Arg::Col(c)),
                            weight: None,
                        },
                    )),
                    _ => Err(unfit()),
                };
            }
        };
        // What the argument's values look like. COUNT evaluates an
        // expression argument only for the errors that raises; a column
        // or a constant raises none.
        let constant;
        let (arg, like) = match (func, arg) {
            (AggFunc::Count, Some(BoundExpr::Col(_) | BoundExpr::Const(_))) | (_, None) => {
                (None, None)
            }
            (_, Some(BoundExpr::Col(i))) => (Some(Arg::Col(*i)), Some(Typed::of(col(*i)))),
            (_, Some(BoundExpr::Const(v))) => {
                constant = repeated(v, 1)?;
                (Some(Arg::Const(v)), Some(Typed::of(&constant)))
            }
            (_, Some(e)) => {
                let like = match e.numeric_type(&col).ok_or_else(unfit)? {
                    DataType::Int => Typed::Int(&[]),
                    _ => Typed::Float(&[]),
                };
                (Some(Arg::Expr(e)), Some(like))
            }
        };
        let acc = match (func, like) {
            (AggFunc::Count, _) => AccCol::Count(Vec::new()),
            (_, Some(x)) => AccCol::over(func, x).ok_or_else(unfit)?,
            // Only COUNT goes without an argument.
            (_, None) => return Err(unfit()),
        };
        Ok((acc, Feed::Raw { arg, weight }))
    }

    fn moments(sumsq: Option<Vec<f64>>) -> AccCol {
        AccCol::Moments {
            sum: Vec::new(),
            sumsq,
            n: Vec::new(),
        }
    }

    /// The accumulator of `func` (not COUNT) over values like `x`'s.
    fn over(func: AggFunc, x: Typed<'_>) -> Option<AccCol> {
        let extreme = |want| {
            let of = match x {
                Typed::Int(_) => Extremes::Int(Vec::new()),
                Typed::Float(_) => Extremes::Float(Vec::new()),
                Typed::Bool(_) => Extremes::Bool(Vec::new()),
                Typed::Str(_, col) => Extremes::Str {
                    codes: Vec::new(),
                    like: col.with_codes(Vec::new()),
                },
            };
            Some(AccCol::Extreme(want, of))
        };
        let numeric = matches!(x, Typed::Int(_) | Typed::Float(_));
        match (func, x) {
            (AggFunc::Sum, Typed::Int(_)) => Some(AccCol::SumInt(Vec::new())),
            (AggFunc::Sum, Typed::Float(_)) => Some(AccCol::SumFloat(Vec::new())),
            (AggFunc::Min, _) => extreme(Ordering::Less),
            (AggFunc::Max, _) => extreme(Ordering::Greater),
            (AggFunc::Avg, _) if numeric => Some(AccCol::moments(None)),
            (AggFunc::StdDev, _) if numeric => Some(AccCol::moments(Some(Vec::new()))),
            _ => None,
        }
    }

    /// Extend to `groups` groups, the new ones at the identity.
    fn grow(&mut self, groups: usize) {
        match self {
            AccCol::Count(v) | AccCol::SumInt(v) => v.resize(groups, 0),
            AccCol::SumFloat(v) => v.resize(groups, -0.0),
            AccCol::Extreme(want, of) => {
                // The identity is the value everything else beats: the
                // largest of the total order for MIN, the smallest for MAX.
                let min = *want == Ordering::Less;
                match of {
                    Extremes::Int(v) => v.resize(groups, if min { i64::MAX } else { i64::MIN }),
                    Extremes::Float(v) => {
                        let nan = if min { u64::MAX >> 1 } else { u64::MAX };
                        v.resize(groups, f64::from_bits(nan));
                    }
                    Extremes::Bool(v) => v.resize(groups, min),
                    Extremes::Str { codes, .. } => codes.resize(groups, NO_CODE),
                }
            }
            AccCol::Moments { sum, sumsq, n } => {
                sum.resize(groups, 0.0);
                if let Some(q) = sumsq {
                    q.resize(groups, 0.0);
                }
                n.resize(groups, 0);
            }
        }
    }

    fn func(&self) -> AggFunc {
        match self {
            AccCol::Count(_) => AggFunc::Count,
            AccCol::SumInt(_) | AccCol::SumFloat(_) => AggFunc::Sum,
            AccCol::Extreme(Ordering::Less, _) => AggFunc::Min,
            AccCol::Extreme(..) => AggFunc::Max,
            AccCol::Moments { sumsq: None, .. } => AggFunc::Avg,
            AccCol::Moments { .. } => AggFunc::StdDev,
        }
    }

    /// Absorb one tile: tile row `k` goes to group `slots[k]`, in row
    /// order. Aggregates absorb a tile one after the other, so when
    /// rows fail in several of them the error surfaced may belong to a
    /// later row than a row-at-a-time fold would stop at — either way
    /// the operator fails with one of the rows' own messages.
    fn absorb(&mut self, tile: Tile<'_>, slots: &[u32]) -> Result<()> {
        if let Tile::Raw {
            weight: Some(w), ..
        } = &tile
        {
            if let Some(n) = w.iter().find(|&&n| n <= 0) {
                return Err(AggViewError::Exec(format!(
                    "non-positive duplicate factor {n} for {}",
                    self.func()
                )));
            }
        }
        let float_tile;
        match (self, tile) {
            (AccCol::Count(ns), Tile::Raw { weight: None, .. }) => {
                fold(ns, slots, |n, _| count_add(n, 1, "COUNT"))
            }
            (
                AccCol::Count(ns),
                Tile::Raw {
                    weight: Some(by), ..
                }
                | Tile::Partial { n: by, .. },
            ) => fold(ns, slots, |n, k| count_add(n, by[k], "COUNT")),
            (
                AccCol::SumInt(sum),
                Tile::Raw {
                    x: Some(Typed::Int(xs)),
                    weight,
                },
            ) => match weight {
                None => fold(sum, slots, |s, k| sum_add(s, xs[k])),
                Some(w) => fold(sum, slots, |s, k| sum_add(s, sum_scale(xs[k], w[k])?)),
            },
            (
                AccCol::SumFloat(sum),
                Tile::Raw {
                    x: Some(Typed::Float(xs)),
                    weight,
                },
            ) => match weight {
                None => fold(sum, slots, |s, k| Ok(s + xs[k])),
                Some(w) => fold(sum, slots, |s, k| Ok(s + xs[k] * w[k] as f64)),
            },
            (AccCol::Extreme(want, of), Tile::Raw { x: Some(x), .. }) => match (of, x) {
                (Extremes::Int(m), Typed::Int(xs)) => fold_extreme(m, slots, xs, *want, i64::cmp),
                (Extremes::Float(m), Typed::Float(xs)) => {
                    fold_extreme(m, slots, xs, *want, f64::total_cmp)
                }
                (Extremes::Bool(m), Typed::Bool(xs)) => {
                    fold_extreme(m, slots, xs, *want, bool::cmp)
                }
                (Extremes::Str { codes, .. }, Typed::Str(xs, col)) => {
                    let dict = col.dict();
                    fold(codes, slots, |cur, k| {
                        let x = xs[k];
                        let wins = cur == NO_CODE || dict.get(x).cmp(dict.get(cur)) == *want;
                        Ok(if wins { x } else { cur })
                    })
                }
                _ => Err(mismatch()),
            },
            (AccCol::Moments { sum, sumsq, n }, tile) => {
                let mut acc = Moments {
                    sum,
                    sumsq: sumsq.as_deref_mut(),
                    n,
                };
                match tile {
                    Tile::Raw { x: Some(x), weight } => {
                        // Integers widen as `Value::as_f64` widens them.
                        let xs = match x {
                            Typed::Float(xs) => xs,
                            Typed::Int(xs) => {
                                float_tile = xs.iter().map(|&x| x as f64).collect::<Vec<f64>>();
                                &float_tile
                            }
                            _ => return Err(mismatch()),
                        };
                        match weight {
                            None => acc.add(slots, |k| (xs[k], xs[k] * xs[k], 1)),
                            Some(w) => acc.add(slots, |k| {
                                let (x, times) = (xs[k], w[k] as f64);
                                (x * times, x * x * times, w[k])
                            }),
                        }
                    }
                    // AVG carries no sum of squares.
                    Tile::Partial { sums: [s, q], n } => {
                        acc.add(slots, |k| (s[k], q.get(k).copied().unwrap_or(0.0), n[k]))
                    }
                    Tile::Raw { x: None, .. } => Err(mismatch()),
                }
            }
            _ => Err(mismatch()),
        }
    }

    /// The state as output columns: the one finalized value per group,
    /// or (`finalize == false`) the partial-state components in
    /// component order — which *are* the accumulator vectors.
    fn into_columns(self, finalize: bool) -> Result<Vec<ColumnVec>> {
        let func = self.func();
        let empty_group =
            || AggViewError::Exec(format!("{func} over empty group (NULL unsupported)"));
        Ok(match self {
            AccCol::Count(v) | AccCol::SumInt(v) => vec![ColumnVec::Int(v)],
            AccCol::SumFloat(v) => vec![ColumnVec::Float(v)],
            AccCol::Extreme(_, of) => vec![match of {
                Extremes::Int(v) => ColumnVec::Int(v),
                Extremes::Float(v) => ColumnVec::Float(v),
                Extremes::Bool(v) => ColumnVec::Bool(v),
                Extremes::Str { codes, like } => {
                    if codes.contains(&NO_CODE) {
                        return Err(empty_group());
                    }
                    ColumnVec::Str(like.with_codes(codes))
                }
            }],
            AccCol::Moments { sum, sumsq, n } if finalize => {
                if n.contains(&0) {
                    return Err(empty_group());
                }
                let mean = sum.iter().zip(&n).map(|(&s, &n)| s / n as f64);
                vec![ColumnVec::Float(match sumsq {
                    None => mean.collect(),
                    Some(q) => mean
                        .zip(q.iter().zip(&n))
                        .map(|(mean, (&q, &n))| (q / n as f64 - mean * mean).max(0.0).sqrt())
                        .collect(),
                })]
            }
            AccCol::Moments { sum, sumsq, n } => std::iter::once(sum)
                .chain(sumsq)
                .map(ColumnVec::Float)
                .chain([ColumnVec::Int(n)])
                .collect(),
        })
    }
}

/// How a [`BatchGroupTable`] finds the groups of the rows coming in.
enum Lookup {
    /// The one lookup column holds small ordinals — `Int` values or
    /// dictionary codes whose range so far passes the bound stated at
    /// [`SlotDir::needs_grow`] — so `seats[ordinal - min]` is the
    /// group's `slot + 1` (`0`: not seen yet). No row hashes or
    /// compares; groups are still created in first-seen order. The
    /// range widens tile by tile; once it outgrows the bound the groups
    /// are entered in the hashed directory ([`BatchGroupTable::seat`])
    /// and the table goes on [`Lookup::Hashed`].
    Ordinal { min: i64, seats: Vec<u32> },
    /// Hash the lookup columns, probe the directory, confirm by value.
    Hashed,
}

/// Columnar hash-aggregation table: insertion-ordered groups whose
/// grouping columns stay column-major (one [`ColumnVec`] each) and
/// whose aggregate states are typed accumulator columns (`AccCol`),
/// one per aggregate.
///
/// A group is *found* by the `lookup` columns alone — a subset of the
/// grouping columns that determines the rest
/// ([`aggview_core::transform::grouping_determinant`]) — while every
/// grouping column is *stored*, from the group's first row. The
/// determined columns hold the same value on every row of a group, so
/// that is the value hashing them would have stored.
///
/// Groups are emitted in first-appearance order; rows fold into a
/// group's states in input order.
pub struct BatchGroupTable<'a> {
    index: SlotDir,
    /// The hash of the lookup columns of every group the directory
    /// holds: all of them, or — while groups are found by ordinal —
    /// none yet.
    hashes: Vec<u64>,
    keys: Vec<ColumnVec>,
    /// Where the grouping columns are in the tiles coming in, and which
    /// of `keys` identify a group.
    key_pos: &'a [usize],
    lookup: &'a [usize],
    find: Lookup,
    /// Rows folded in so far, and how many the pipeline's source holds:
    /// the larger is the `n` of the ordinal rule.
    seen: usize,
    expected: usize,
    accs: Vec<AccCol>,
    /// How each aggregate reads the tiles.
    feeds: Vec<Feed<'a>>,
    /// The group of every row of the tile being folded in.
    slots: Vec<u32>,
    len: usize,
}

impl<'a> BatchGroupTable<'a> {
    /// Number of groups.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a group whose grouping columns are row `row` of `src`.
    #[inline]
    fn push_group(&mut self, src: &[&ColumnVec], row: usize) -> Result<usize> {
        for (key_col, from) in self.keys.iter_mut().zip(src) {
            key_col.push_from(from, row)?;
        }
        self.len += 1;
        Ok(self.len - 1)
    }

    /// Enter every group in the directory, so [`Self::slot_for`] finds
    /// it. Groups found by ordinal are distinct by construction and have
    /// no hash yet; they are hashed here in one sweep over the key
    /// columns.
    fn seat(&mut self) {
        let from = self.hashes.len();
        let lookup_cols = self.lookup.iter().map(|&l| &self.keys[l]);
        let mut fresh = Vec::new();
        hash_columns(lookup_cols, from..self.len, &mut fresh);
        self.hashes.append(&mut fresh);
        self.index.seat(&self.hashes, from);
    }

    /// Probe the directory for `hash`, confirming candidates with `eq`
    /// (hash equality is checked first, so `eq` only runs on real
    /// collisions within a probe chain).
    fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Found {
        let mask = self.index.mask();
        let mut idx = dir_index(hash, self.index.bits);
        loop {
            let e = self.index.table[idx];
            if e == 0 {
                return Found::Miss(idx);
            }
            let s = (e - 1) as usize;
            if self.hashes[s] == hash && eq(s) {
                return Found::Hit(s);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The slot of the group row `row` of `src` belongs to — `src` being
    /// the grouping columns, in key order, of an input tile — created
    /// from that row if it is the group's first.
    /// `hash` is the hash of the row's lookup columns; the directory
    /// must hold every group.
    fn slot_for(&mut self, src: &[&ColumnVec], row: usize, hash: u64) -> Result<usize> {
        // One Int lookup column is confirmed on the `i64` slices.
        let ints = match self.lookup[..] {
            [l] => self.keys[l].as_int().zip(src[l].as_int()),
            _ => None,
        };
        let found = match ints {
            Some((mine, theirs)) => self.find(hash, |s| mine[s] == theirs[row]),
            None => self.find(hash, |s| {
                let same = |&l: &usize| self.keys[l].eq_rows(s, src[l], row);
                self.lookup.iter().all(same)
            }),
        };
        Ok(match found {
            Found::Hit(s) => s,
            Found::Miss(idx) => {
                let slot = self.push_group(src, row)?;
                self.index.table[idx] = slot as u32 + 1;
                self.hashes.push(hash);
                self.index.seat(&self.hashes, self.len);
                slot
            }
        })
    }

    /// Widen the ordinal directory to hold the ordinals of rows `range`
    /// of `keys` — or, when the range they come to no longer passes the
    /// ordinal rule, go on hashed.
    fn admit_ordinals(&mut self, keys: Option<Ordinals<'_>>, range: Range<usize>) {
        let Lookup::Ordinal { min, seats } = &mut self.find else {
            return;
        };
        let bound = dir_cells(self.seen.max(self.expected));
        let widened = keys
            .and_then(|k| k.span(range, bound))
            .and_then(|(lo, cells)| {
                if seats.is_empty() {
                    return Some((lo, cells));
                }
                let first = lo.min(*min);
                let last = (lo + (cells as i64 - 1)).max(*min + (seats.len() as i64 - 1));
                let cells = usize::try_from(last.checked_sub(first)?)
                    .ok()?
                    .checked_add(1)?;
                (cells <= bound).then_some((first, cells))
            });
        match widened {
            Some((first, cells)) => {
                let below = ordinal_cell(*min, first).min(cells);
                if !seats.is_empty() && below > 0 {
                    seats.splice(0..0, vec![0; below]);
                }
                seats.resize(cells, 0);
                *min = first;
            }
            None => {
                self.find = Lookup::Hashed;
                self.seat();
            }
        }
    }

    /// Fold rows `range` of the tile `cols` in: find every row's group
    /// (creating the new ones), then let each aggregate absorb the tile
    /// in one typed loop.
    fn accumulate(&mut self, cols: &[&ColumnVec], r: Range<usize>) -> Result<()> {
        let key_cols: Vec<&ColumnVec> = self.key_pos.iter().map(|&k| cols[k]).collect();
        self.seen += r.len();
        let ordinals = match self.lookup[..] {
            [l] => Ordinals::of(key_cols[l]),
            _ => None,
        };
        self.admit_ordinals(ordinals, r.clone());
        let mut slots = std::mem::take(&mut self.slots);
        slots.clear();
        // A key cell a new group's column refuses fails the fold after
        // the sweep: each sweep stays one `extend`, which writes the
        // slots with no check per row (a loop of fallible pushes
        // measured 4-10% slower on the group-by kernels).
        let mut refused = Ok(());
        match (std::mem::replace(&mut self.find, Lookup::Hashed), ordinals) {
            (Lookup::Ordinal { min, mut seats }, Some(keys)) => {
                slots.extend(r.clone().map(|row| {
                    let seat = &mut seats[ordinal_cell(keys.at(row), min)];
                    if *seat == 0 {
                        match self.push_group(&key_cols, row) {
                            Ok(g) => *seat = g as u32 + 1,
                            Err(e) => refused = Err(e),
                        }
                    }
                    seat.wrapping_sub(1)
                }));
                self.find = Lookup::Ordinal { min, seats };
            }
            // No lookup column: every row is in the one group, made from
            // the first row (no rows, no group).
            _ if self.lookup.is_empty() => {
                if self.len == 0 && !r.is_empty() {
                    self.push_group(&key_cols, r.start)?;
                }
                slots.resize(r.len(), 0);
            }
            _ => {
                let mut hashes = Vec::new();
                let lookup_cols = self.lookup.iter().map(|&l| key_cols[l]);
                hash_columns(lookup_cols, r.clone(), &mut hashes);
                let found = r.clone().zip(&hashes);
                slots.extend(found.map(|(row, &h)| {
                    let slot = self.slot_for(&key_cols, row, h);
                    slot.unwrap_or_else(|e| {
                        refused = Err(e);
                        0
                    }) as u32
                }));
            }
        }
        refused?;
        let col = |i: usize| cols[i];
        let typed = |i: usize| Typed::of(cols[i]).slice(r.clone());
        for (acc, feed) in self.accs.iter_mut().zip(&self.feeds) {
            acc.grow(self.len);
            let (evaluated, constant);
            let none: &[f64] = &[];
            let tile = match feed {
                Feed::Raw { arg, weight } => Tile::Raw {
                    x: match arg {
                        None => None,
                        Some(Arg::Col(i)) => Some(typed(*i)),
                        Some(Arg::Const(v)) => {
                            constant = repeated(v, r.len())?;
                            Some(Typed::of(&constant))
                        }
                        Some(Arg::Expr(e)) => {
                            evaluated = e.eval_columns(&col, r.clone())?;
                            Some(match &evaluated {
                                NumColumn::Int(xs) => Typed::Int(xs),
                                NumColumn::Float(xs) => Typed::Float(xs),
                            })
                        }
                    },
                    weight: match weight {
                        None => None,
                        Some(w) => Some(&cols[*w].as_int().ok_or_else(mismatch)?[r.clone()]),
                    },
                },
                Feed::Partial { sums, n } => {
                    // COUNT and AVG leave sums empty.
                    let floats = |s: &Option<usize>| match s.map(typed) {
                        None => Ok(none),
                        Some(Typed::Float(xs)) => Ok(xs),
                        Some(_) => Err(mismatch()),
                    };
                    Tile::Partial {
                        sums: [floats(&sums[0])?, floats(&sums[1])?],
                        n: &cols[*n].as_int().ok_or_else(mismatch)?[r.clone()],
                    }
                }
            };
            acc.absorb(tile, &slots)?;
        }
        self.slots = slots;
        Ok(())
    }

    /// The finished table as columns, one entry per group in first-seen
    /// order: the grouping columns, then per aggregate its finalized
    /// value (`finalize`) or its partial-state components. Accumulator
    /// vectors move out as they are; nothing is rebuilt per group.
    pub fn into_columns(self, finalize: bool) -> Result<Vec<ColumnVec>> {
        let mut cols = self.keys;
        for mut acc in self.accs {
            // A table no row was fed (zero input rows) never grew.
            acc.grow(self.len);
            cols.extend(acc.into_columns(finalize)?);
        }
        Ok(cols)
    }
}

/// Run `source → probes` into a group table that accumulates tile by
/// tile. The flows are the source's and every probe's, in pipeline
/// order.
///
/// Groups are stored under the last stage's columns `key_pos` and found
/// by the columns `key_pos[l]` for `l` in `lookup`, which must determine
/// the others.
#[allow(clippy::too_many_arguments)]
pub fn aggregate<'a>(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    source: &Held,
    probes: &[Probe<'_>],
    key_pos: &'a [usize],
    lookup: &'a [usize],
    inputs: &'a [AggInput],
    funcs: &[AggFunc],
) -> Result<(BatchGroupTable<'a>, Vec<Flow>)> {
    // The aggregation is resolved against columns like the ones it will
    // be fed.
    let cols = probes.last().map_or_else(|| source.cols(), Probe::protos);
    let resolved = inputs.iter().zip(funcs);
    let (accs, feeds) = resolved
        .map(|(input, &f)| AccCol::resolve(&cols, input, f))
        .collect::<Result<Vec<_>>>()?
        .into_iter()
        .unzip();
    let ordinal = matches!(lookup, [l] if Ordinals::of(cols[key_pos[*l]]).is_some());
    let mut table = BatchGroupTable {
        index: SlotDir::new(),
        hashes: Vec::new(),
        keys: key_pos.iter().map(|&k| cols[k].empty_like()).collect(),
        key_pos,
        lookup,
        find: match ordinal {
            true => Lookup::Ordinal {
                min: 0,
                seats: Vec::new(),
            },
            false => Lookup::Hashed,
        },
        seen: 0,
        expected: source.rows(),
        accs,
        feeds,
        slots: Vec::new(),
        len: 0,
    };
    let (_, flows) = drive(opts, gov, source, probes, Some(&mut table))?;
    Ok((table, flows))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference;
    use aggview_common::{
        tuple, AggSpec, CmpOp, Col, DataType, Expr, PartialAggState, Predicate, RelId, Schema,
        Tuple, ViewId,
    };
    use aggview_core::plan::{all_cols, GroupBySpec, Plan};
    use aggview_storage::Catalog;

    const TYPES: [DataType; 3] = [DataType::Int, DataType::Int, DataType::Str];

    fn opts() -> ExecOptions {
        ExecOptions {
            batch_rows: 7, // force multi-tile on small inputs
            ..ExecOptions::default()
        }
    }

    fn layout(c: Col) -> Option<usize> {
        match c {
            Col::Base(b) => Some(b.col as usize),
            _ => None,
        }
    }

    fn input_rows(n: usize) -> Vec<Tuple> {
        (0..n)
            .map(|i| tuple![(i % 5) as i64, i as i64, format!("s{}", i % 3).as_str()])
            .collect()
    }

    /// A catalog holding `input_rows(n)` as table `name(k, n, s)` for
    /// each `(name, n)` — what the reference interpreter reads to
    /// produce the kernels' expected outputs.
    fn catalog(tables: &[(&str, usize)]) -> Catalog {
        let cat = Catalog::new();
        for &(name, n) in tables {
            let schema = Schema::of(&[("k", TYPES[0]), ("n", TYPES[1]), ("s", TYPES[2])]);
            let mut b = Table::builder(name, schema);
            for r in input_rows(n) {
                b.push(r).unwrap();
            }
            cat.add(b.build().unwrap()).unwrap();
        }
        cat
    }

    fn bytes_of(rows: &[Tuple]) -> u64 {
        rows.iter().map(|t| t.width() as u64).sum()
    }

    #[test]
    fn scan_matches_reference() {
        let cat = catalog(&[("t", 50)]);
        let gov = ResourceGovernor::unlimited();
        let pred = Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Ge, 2i64);
        let bound = pred.bind(&|c| layout(c)).unwrap();
        let preds = std::slice::from_ref(&bound);
        let rows = scan_table(&opts(), &gov, cat.get("t").unwrap(), preds, vec![2, 0]).unwrap();
        let (batch, flows) = collect(&opts(), &gov, &rows, &[]).unwrap();
        let bytes = flows[0].bytes;
        let plan = Plan::scan(
            RelId(0),
            "t",
            vec![pred],
            vec![Col::base(RelId(0), 2), Col::base(RelId(0), 0)],
        );
        let expect = reference::evaluate(&plan, &cat).unwrap();
        assert_eq!(batch.to_tuples(), expect.rows);
        assert_eq!(bytes, bytes_of(&expect.rows));
    }

    #[test]
    fn hash_join_matches_reference() {
        let gov = ResourceGovernor::unlimited();
        let lb = Batch::from_tuples(&input_rows(40), &[0, 1, 2], &TYPES).unwrap();
        let rb = Batch::from_tuples(&input_rows(25), &[0, 1, 2], &TYPES).unwrap();
        // Join on col 0 with a residual on the right row number.
        let eq = Predicate::eq_cols(Col::base(RelId(0), 0), Col::base(RelId(1), 0));
        let residual = Predicate::new(
            Expr::col(Col::base(RelId(0), 1)),
            CmpOp::Ge,
            Expr::col(Col::base(RelId(1), 1)),
        );
        let bound = residual
            .bind(&|c| match c {
                Col::Base(b) => Some(b.rel.0 as usize),
                _ => None,
            })
            .unwrap();
        // Build on the smaller (right) side, like the engine would; the
        // probe then walks the left side in order with ascending
        // candidates — the reference's `for l { for r }` order. Over the
        // layout `l ++ r` the join puts out columns 1, 4 and 2.
        let (lb, rb) = (Held::batch(lb), Held::batch(rb));
        let shape = JoinShape {
            keys: vec![(0, 0)],
            residual: vec![bound],
            residual_slots: vec![(false, 1), (true, 1)],
            emit: vec![(false, 1), (true, 1), (false, 2)],
        };
        let probe = Probe::new(&opts(), &gov, &rb, &lb.cols(), &shape).unwrap();
        let (got, flows) = collect(&opts(), &gov, &lb, &[probe]).unwrap();
        let bytes = flows[1].bytes;
        let plan = Plan::join(
            Plan::scan(RelId(0), "l", vec![], all_cols(RelId(0), 3)),
            Plan::scan(RelId(1), "r", vec![], all_cols(RelId(1), 3)),
            vec![eq, residual],
            vec![
                Col::base(RelId(0), 1),
                Col::base(RelId(1), 1),
                Col::base(RelId(0), 2),
            ],
        );
        let expect = reference::evaluate(&plan, &catalog(&[("l", 40), ("r", 25)])).unwrap();
        assert!(!expect.rows.is_empty());
        assert_eq!(got.to_tuples(), expect.rows);
        assert_eq!(bytes, bytes_of(&expect.rows));
    }

    #[test]
    fn groups_match_reference_bitwise() {
        let gov = ResourceGovernor::unlimited();
        let batch = Batch::from_tuples(&input_rows(60), &[0, 1, 2], &TYPES).unwrap();
        let n = Expr::col(Col::base(RelId(0), 1));
        let inputs = [
            AggInput::RawCountStar,
            AggInput::Raw(n.bind(&|c| layout(c)).unwrap()),
        ];
        let funcs = [AggFunc::Count, AggFunc::Avg];
        let batch = Held::batch(batch);
        let (got, _) = aggregate(&opts(), &gov, &batch, &[], &[0], &[0], &inputs, &funcs).unwrap();
        let groups = got.len();
        let cols = got.into_columns(true).unwrap();
        let mut got_rows = Batch::from_parts(cols, groups).to_tuples();
        got_rows.sort();
        let plan = Plan::group_by_all(
            Plan::scan(RelId(0), "t", vec![], all_cols(RelId(0), 3)),
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![Col::base(RelId(0), 0)],
                aggs: vec![AggSpec::count_star(), AggSpec::new(AggFunc::Avg, n)],
                having: vec![],
            },
        );
        // The reference emits groups in key order; both sides sum each
        // group's rows in input order, so the averages agree bit for bit.
        let expect = reference::evaluate(&plan, &catalog(&[("t", 60)])).unwrap();
        assert_eq!(format!("{got_rows:?}"), format!("{:?}", expect.rows));
    }

    /// The same [`AggInput`]s folded through one [`PartialAggState`] per
    /// group and aggregate, one `Value` at a time: the oracle for the
    /// typed accumulators. Groups come back in first-seen order on both
    /// sides, so runs are compared positionally, cell for cell
    /// and float bit for float bit.
    fn value_fold(
        rows: &[Tuple],
        key_pos: &[usize],
        inputs: &[AggInput],
        funcs: &[AggFunc],
        finalize: bool,
    ) -> Result<Vec<Tuple>> {
        let mut groups: Vec<(Tuple, Vec<PartialAggState>)> = Vec::new();
        for r in rows {
            let key = r.project(key_pos);
            let g = match groups.iter().position(|(k, _)| *k == key) {
                Some(g) => g,
                None => {
                    let states = funcs.iter().map(|&f| PartialAggState::empty(f));
                    groups.push((key, states.collect()));
                    groups.len() - 1
                }
            };
            for (state, input) in groups[g].1.iter_mut().zip(inputs) {
                input.absorb_with(state, &|i| r.get(i).clone())?;
            }
        }
        groups
            .into_iter()
            .map(|(key, states)| {
                let mut cells = key.into_values();
                for s in &states {
                    if finalize {
                        cells.push(s.finalize()?);
                    } else {
                        cells.extend(s.components().iter().cloned());
                    }
                }
                Ok(Tuple::new(cells))
            })
            .collect()
    }

    fn typed_fold(
        opts: &ExecOptions,
        batch: &Batch,
        keys: (&[usize], &[usize]),
        inputs: &[AggInput],
        funcs: &[AggFunc],
        finalize: bool,
    ) -> Result<Vec<Tuple>> {
        let gov = ResourceGovernor::unlimited();
        let batch = Held::batch(batch.clone());
        let (table, _) = aggregate(opts, &gov, &batch, &[], keys.0, keys.1, inputs, funcs)?;
        let groups = table.len();
        Ok(Batch::from_parts(table.into_columns(finalize)?, groups).to_tuples())
    }

    /// Debug rendering tells `-0.0` from `0.0` and prints floats
    /// round-trip exactly: equal strings are equal bits.
    fn bits(rows: &[Tuple]) -> String {
        format!("{rows:?}")
    }

    /// `(key, twin, label, int, float, flag, count, fsum, fsumsq)`:
    /// `twin` and `label` are functions of `key`; `count`/`fsum`/`fsumsq`
    /// serve as a duplicate factor and as partial-state components.
    const FOLD_TYPES: [DataType; 9] = [
        DataType::Int,
        DataType::Int,
        DataType::Str,
        DataType::Int,
        DataType::Float,
        DataType::Bool,
        DataType::Int,
        DataType::Float,
        DataType::Float,
    ];

    fn fold_rows(n: usize, key_of: impl Fn(i64) -> i64) -> Vec<Tuple> {
        (0..n as i64)
            .map(|i| {
                let key = key_of((i * 7 + i / 5) % 11);
                let x = (i * 37 % 101 - 50) as f64 * 0.25;
                tuple![
                    key,
                    key.wrapping_mul(3),
                    format!("k{key}").as_str(),
                    i % 13 - 6,
                    if i % 17 == 0 { -0.0 } else { x },
                    i % 3 == 0,
                    i % 4 + 1,
                    x * 3.0,
                    x * x
                ]
            })
            .collect()
    }

    /// Every function over every input shape it takes, against the
    /// `Value` fold: raw Int and Float columns, expressions, the
    /// duplicate-factor scaling, and partial-state components.
    fn fold_cases() -> Vec<(AggFunc, AggInput)> {
        let col = BoundExpr::Col;
        let expr = |op, l, r| BoundExpr::Binary {
            op,
            left: Box::new(l),
            right: Box::new(r),
        };
        let mut cases = vec![
            (AggFunc::Count, AggInput::RawCountStar),
            (AggFunc::Count, AggInput::Raw(col(2))),
            (AggFunc::Count, AggInput::Scaled(None, 6)),
            (AggFunc::Count, AggInput::Partial(vec![6])),
            (AggFunc::Min, AggInput::Raw(col(2))),
            (AggFunc::Max, AggInput::Raw(col(2))),
            (AggFunc::Min, AggInput::Raw(col(5))),
            (AggFunc::Max, AggInput::Raw(col(5))),
            (AggFunc::Max, AggInput::Partial(vec![2])),
            (AggFunc::Avg, AggInput::Partial(vec![7, 6])),
            (AggFunc::StdDev, AggInput::Partial(vec![7, 8, 6])),
        ];
        // Constant arguments, repeated to each tile's length.
        let konst = |v: Value| AggInput::Raw(BoundExpr::Const(v));
        cases.extend([
            (AggFunc::Count, konst(Value::str("c"))),
            (AggFunc::Min, konst(Value::str("c"))),
            (AggFunc::Max, konst(Value::Bool(true))),
            (AggFunc::Sum, konst(Value::Int(2))),
            (AggFunc::Avg, konst(Value::Float(0.5))),
        ]);
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::StdDev,
        ] {
            let int_expr = expr(
                aggview_common::BinaryOp::Mul,
                col(3),
                BoundExpr::Const(Value::Int(3)),
            );
            let float_expr = expr(aggview_common::BinaryOp::Add, col(4), col(3));
            for arg in [col(3), col(4), int_expr, float_expr] {
                cases.push((f, AggInput::Raw(arg.clone())));
                cases.push((f, AggInput::Scaled(Some(arg), 6)));
            }
            if f.partial_arity() == 1 && f != AggFunc::Count {
                cases.push((f, AggInput::Partial(vec![3])));
                cases.push((f, AggInput::Partial(vec![4])));
            }
        }
        cases
    }

    #[test]
    fn typed_accumulators_match_the_value_fold_bitwise() {
        let cases = fold_cases();
        let (funcs, inputs): (Vec<AggFunc>, Vec<AggInput>) = cases.into_iter().unzip();
        // Dense, negative, sparse and i64-spanning keys: the ordinal
        // rule takes the first two and refuses the others.
        let key_fns: [fn(i64) -> i64; 4] = [
            |k| k,
            |k| k - 7,
            |k| k * 1_000_003 - 5_000_000,
            |k| match k % 3 {
                0 => i64::MIN + k,
                1 => i64::MAX - k,
                _ => k,
            },
        ];
        for (which, key_of) in key_fns.into_iter().enumerate() {
            for n in [0usize, 1, 6, 60] {
                let rows = fold_rows(n, key_of);
                let batch =
                    Batch::from_tuples(&rows, &[0, 1, 2, 3, 4, 5, 6, 7, 8], &FOLD_TYPES).unwrap();
                // Found by the key alone, by its string label alone, and
                // by all three columns; always stored under all three.
                for lookup in [&[0usize][..], &[2], &[0, 1, 2]] {
                    for finalize in [true, false] {
                        let want = value_fold(&rows, &[0, 1, 2], &inputs, &funcs, finalize);
                        let got = typed_fold(
                            &opts(),
                            &batch,
                            (&[0, 1, 2], lookup),
                            &inputs,
                            &funcs,
                            finalize,
                        );
                        let (want, got) = (want.unwrap(), got.unwrap());
                        assert_eq!(
                            bits(&got),
                            bits(&want),
                            "keys {which}, {n} rows, lookup {lookup:?}, finalize {finalize}"
                        );
                    }
                }
            }
        }
    }

    /// One failing row: the typed fold stops with the `Value` fold's
    /// message.
    #[test]
    fn overflow_and_bad_factor_errors_match_the_value_fold() {
        let types = [DataType::Int, DataType::Int, DataType::Float, DataType::Int];
        let rows = |big: i64, n: i64| {
            vec![
                tuple![1i64, 5i64, 1.5f64, 2i64],
                tuple![2i64, big, 2.5f64, 1i64],
                tuple![2i64, 1i64, 3.5f64, n],
            ]
        };
        let cases: Vec<(AggFunc, AggInput, Vec<Tuple>, &str)> = vec![
            (
                AggFunc::Sum,
                AggInput::Raw(BoundExpr::Col(1)),
                rows(i64::MAX, 1),
                "SUM overflow (9223372036854775807 + 1)",
            ),
            (
                AggFunc::Sum,
                AggInput::Partial(vec![1]),
                rows(i64::MAX, 1),
                "SUM overflow (9223372036854775807 + 1)",
            ),
            (
                AggFunc::Sum,
                AggInput::Scaled(Some(BoundExpr::Col(1)), 3),
                rows(i64::MAX, 2),
                "SUM overflow (9223372036854775807 + 2)",
            ),
            (
                AggFunc::Sum,
                AggInput::Scaled(Some(BoundExpr::Col(1)), 1),
                rows(1 << 62, 1),
                "SUM overflow (4611686018427387904 * 4611686018427387904)",
            ),
            (
                AggFunc::Count,
                AggInput::Partial(vec![1]),
                rows(i64::MAX, 1),
                "COUNT overflow",
            ),
            (
                AggFunc::Count,
                AggInput::Scaled(None, 1),
                rows(i64::MAX, 1),
                "COUNT overflow",
            ),
            (
                AggFunc::Avg,
                AggInput::Partial(vec![2, 1]),
                rows(i64::MAX, 1),
                "AVG count overflow",
            ),
            (
                AggFunc::StdDev,
                AggInput::Scaled(Some(BoundExpr::Col(2)), 1),
                rows(i64::MAX, 1),
                "STDDEV count overflow",
            ),
            (
                AggFunc::Avg,
                AggInput::Scaled(Some(BoundExpr::Col(2)), 3),
                rows(7, 0),
                "non-positive duplicate factor 0 for AVG",
            ),
            (
                AggFunc::Sum,
                AggInput::Raw(BoundExpr::Binary {
                    op: aggview_common::BinaryOp::Add,
                    left: Box::new(BoundExpr::Col(1)),
                    right: Box::new(BoundExpr::Col(3)),
                }),
                rows(i64::MAX, 1),
                "integer overflow (9223372036854775807 + 1)",
            ),
        ];
        // COUNT evaluates an expression argument only for its errors.
        let (count_of, divided) = (AggFunc::Count, aggview_common::BinaryOp::Div);
        let by_zero = BoundExpr::Binary {
            op: divided,
            left: Box::new(BoundExpr::Col(2)),
            right: Box::new(BoundExpr::Const(Value::Int(0))),
        };
        let of_bool = BoundExpr::Binary {
            op: divided,
            left: Box::new(BoundExpr::Col(2)),
            right: Box::new(BoundExpr::Const(Value::Bool(true))),
        };
        let mut cases = cases;
        cases.push((
            count_of,
            AggInput::Raw(by_zero),
            rows(1, 1),
            "division by zero",
        ));
        for (func, input, rows, message) in cases {
            let batch = Batch::from_tuples(&rows, &[0, 1, 2, 3], &types).unwrap();
            let inputs = std::slice::from_ref(&input);
            let want = value_fold(&rows, &[0], inputs, &[func], true).unwrap_err();
            assert!(want.to_string().contains(message), "{want} / {message}");
            let got = typed_fold(&opts(), &batch, (&[0], &[0]), inputs, &[func], true).unwrap_err();
            assert_eq!(got.to_string(), want.to_string(), "{func} {input:?}");
        }
        // An ill-typed argument has no accumulator: the operator refuses
        // it before any row, with a schema error (the dataflow pass
        // reports it when the plan is checked).
        let batch = Batch::from_tuples(&rows(1, 1), &[0, 1, 2, 3], &types).unwrap();
        let inputs = [AggInput::Raw(of_bool)];
        let got = typed_fold(&opts(), &batch, (&[0], &[0]), &inputs, &[count_of], true);
        assert_eq!(got.unwrap_err().kind(), "schema");
    }

    #[test]
    fn filter_rows_errors_match_row_errors() {
        // Comparing a string column to an int constant must produce the
        // row-wise evaluator's exact message.
        let rows = vec![tuple![1i64, "x"]];
        let tile = Batch::from_tuples(&rows, &[0, 1], &[DataType::Int, DataType::Str]).unwrap();
        let p = Predicate::cmp_const(Col::base(RelId(0), 1), CmpOp::Lt, 3i64)
            .bind(&|c| layout(c))
            .unwrap();
        let col = |i: usize| tile.col(i);
        let batch_err = RowFilter::new(std::slice::from_ref(&p), col)
            .rows(col, 0..tile.len())
            .unwrap_err();
        let row_err = p.eval(&rows[0]).unwrap_err();
        assert_eq!(batch_err.to_string(), row_err.to_string());
    }
}
