//! Vectorized (columnar) operator kernels.
//!
//! The engine's operators process fixed-size column-major tiles of
//! [`ExecOptions::batch_rows`] rows with tight per-column loops:
//!
//! * [`scan_table`] — filter a table's columns via selection vectors,
//!   gather-project the survivors ([`matching_rows`]: the filter alone);
//! * [`build_index`] / [`probe_join`] / [`nested_loop_join`] — hash and
//!   nested-loop joins whose matches are emitted as per-side selection
//!   vectors and gathered column-by-column;
//! * [`accumulate_groups`] — aggregation into a [`BatchGroupTable`]
//!   whose grouping columns *and* aggregate states are typed columns,
//!   and whose groups are found by the grouping columns that determine
//!   the rest.
//!
//! Contracts every kernel keeps: inputs split into [`chunk_ranges`]
//! worker chunks (all but the join build, one serial pass) and outputs
//! stitch back in chunk order (so a parallel run emits the rows of the
//! serial one, and the two-phase aggregation's float-merge order is
//! fixed by the chunking alone), the governor is
//! charged per tile via [`ResourceGovernor::charge_output_bulk`]
//! (clamped so budget overshoot still reads as at most one row past the
//! cap), and cancellation is checked at every tile boundary.
//!
//! Key hashing uses the fx chain ([`Batch::hash_rows`]): the hash
//! function is private to one operator execution — candidates are
//! always confirmed by comparing key values, and group/candidate order
//! never depends on hash values — so a cheap mix changes no observable
//! output.

use crate::parallel::{run_chunks, ExecOptions};
use crate::partition::{
    chunk_ranges, dir_cells, dir_index, ordinal_cell, AggInput, JoinIndex, Ordinals,
};
use aggview_common::expr::{BoundExpr, NumColumn};
use aggview_common::predicate::BoundPredicate;
use aggview_common::{
    hash_columns, AggFunc, AggViewError, Batch, ColumnVec, DataType, PartialAggState, Result,
    StrCol, Value,
};
use aggview_core::governor::ResourceGovernor;
use aggview_storage::Table;
use std::cmp::Ordering;
use std::ops::Range;

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

/// Stitch per-chunk `(batch, bytes)` results in chunk order. `empty`
/// supplies the output layout when the input had no chunks at all (so
/// empty results still carry correctly-typed columns downstream).
fn stitch(parts: Vec<(Batch, u64)>, empty: impl FnOnce() -> Batch) -> (Batch, u64) {
    let mut iter = parts.into_iter();
    let Some((mut out, mut bytes)) = iter.next() else {
        return (empty(), 0);
    };
    for (part, b) in iter {
        out.append(&part);
        bytes += b;
    }
    (out, bytes)
}

// ---------------------------------------------------------------------
// Filtering: selection-vector sweeps
// ---------------------------------------------------------------------

/// Push every row of the current selection that passes `test`.
/// `cur == None` means "all rows of `rows`".
fn sel_by(
    rows: Range<usize>,
    cur: Option<&[u32]>,
    out: &mut Vec<u32>,
    test: impl Fn(usize) -> bool,
) {
    match cur {
        Some(sel) => {
            for &i in sel {
                if test(i as usize) {
                    out.push(i);
                }
            }
        }
        None => {
            for i in rows {
                if test(i) {
                    out.push(i as u32);
                }
            }
        }
    }
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

/// The conjunction `preds` over the columns `col` hands out (predicates
/// are bound to its numbering), readied for tile-wise sweeps: whatever
/// depends on the columns alone is worked out once here, not per tile.
pub(crate) struct RowFilter<'a, F> {
    preds: &'a [BoundPredicate],
    col: F,
    /// Per predicate, when it compares a coded string column to a string
    /// constant: the column's codes and the comparison's outcome for
    /// each entry of its dictionary, so the sweep never touches a
    /// string. A table keeps a dictionary under twice its column's
    /// distinct strings, so this is at most two comparisons a row of a
    /// full sweep — and one per distinct string, usually far fewer.
    str_pass: Vec<Option<(&'a [u32], Vec<bool>)>>,
}

impl<'a, F: Fn(usize) -> &'a ColumnVec> RowFilter<'a, F> {
    pub(crate) fn new(preds: &'a [BoundPredicate], col: F) -> Self {
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
                let coded = col(i).as_strs()?;
                let pass = coded.dict().strs().iter().map(|s| op.matches(s.cmp(k)));
                Some((coded.codes(), pass.collect()))
            })
            .collect();
        RowFilter {
            preds,
            col,
            str_pass,
        }
    }

    /// Evaluate the conjunction over rows `rows`, returning the
    /// surviving row indices (`None` = every row survives).
    ///
    /// Predicates sweep one at a time over the shrinking selection, so
    /// evaluation is predicate-major; when several predicates *can* error
    /// (only possible on ill-typed data), the surfaced error may belong to a
    /// different row than the row-major reference would pick — both paths
    /// still error, with identical messages for any given (row, predicate).
    pub(crate) fn rows(&self, rows: Range<usize>) -> Result<Option<Vec<u32>>> {
        let col = &self.col;
        let n = rows.len();
        let mut cur: Option<Vec<u32>> = None;
        let mut next: Vec<u32> = Vec::new();
        for (p, str_pass) in self.preds.iter().zip(&self.str_pass) {
            next.clear();
            let sel = cur.as_deref();
            let handled = if let Some((codes, pass)) = str_pass {
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
// Scan
// ---------------------------------------------------------------------

/// Columnar scan of `table`'s columns ([`Table::column`]): sweep `preds`
/// over each tile's row range and gather `positions` of the survivors.
/// Both are bound to the table's physical column numbers, and only the
/// columns they name are ever read. Survivors come back in row order;
/// the second component is their total byte width.
pub fn scan_table(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    table: &Table,
    preds: &[BoundPredicate],
    positions: &[usize],
) -> Result<(Batch, u64)> {
    let out_layout = || -> Vec<ColumnVec> {
        positions
            .iter()
            .map(|&p| ColumnVec::with_type(table.schema().field(p).ty))
            .collect()
    };
    let col = |p: usize| table.column(p);
    let filter = RowFilter::new(preds, col);
    let chunks = chunk_ranges(table.len(), opts.workers_for(table.len()));
    let parts = run_chunks(chunks, |range| {
        let mut out = out_layout();
        let mut out_len = 0usize;
        let mut bytes = 0u64;
        for_each_tile(gov, range, opts.batch_rows, |rows| {
            let sel = filter.rows(rows.clone())?;
            let mut w = 0u64;
            for (dst, &p) in out.iter_mut().zip(positions) {
                w += match &sel {
                    Some(s) => dst.append_gather(col(p), s),
                    None => dst.append_range(col(p), rows.clone()),
                };
            }
            let added = sel.map_or(rows.len(), |s| s.len());
            gov.charge_output_bulk(added as u64, w)?;
            out_len += added;
            bytes += w;
            Ok(())
        })?;
        Ok((Batch::from_parts(out, out_len), bytes))
    })?;
    Ok(stitch(parts, || Batch::from_parts(out_layout(), 0)))
}

/// The positions of `table`'s rows that pass `preds` (bound to its
/// physical column numbers), ascending: the scan's filter without the
/// gather, for statements that address rows in place. Every row swept is
/// charged to the row budget, a tile at a time.
pub fn matching_rows(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    table: &Table,
    preds: &[BoundPredicate],
) -> Result<Vec<usize>> {
    let filter = RowFilter::new(preds, |p| table.column(p));
    let mut out = Vec::new();
    for_each_tile(gov, 0..table.len(), opts.batch_rows, |rows| {
        gov.charge_output_bulk(rows.len() as u64, 0)?;
        match filter.rows(rows.clone())? {
            Some(sel) => out.extend(sel.iter().map(|&i| i as usize)),
            None => out.extend(rows),
        }
        Ok(())
    })?;
    Ok(out)
}

// ---------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------

/// Build the join index over the build-side batch. A one-column key of
/// small ordinals on both sides ([`Ordinals::pair`]) whose build-side
/// range passes the ordinal rule is addressed directly
/// ([`JoinIndex::direct`]); anything else hashes the key columns
/// tile-wise and links every row into the hashed index. Always one
/// serial pass — the index costs a few nanoseconds a row, less than
/// handing rows between workers would.
pub fn build_index(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    build: &Batch,
    probe: &Batch,
    build_pos: &[usize],
    probe_pos: &[usize],
) -> Result<JoinIndex> {
    let n = build.len();
    if let Some((keys, _)) = ordinal_keys(build, probe, build_pos, probe_pos) {
        gov.check_interrupt()?;
        if let Some(index) = JoinIndex::direct(keys, n) {
            return Ok(index);
        }
    }
    let mut hashes = Vec::with_capacity(n);
    let mut tile = Vec::new();
    for_each_tile(gov, 0..n, opts.batch_rows, |r| {
        build.hash_rows(build_pos, r, &mut tile);
        hashes.extend_from_slice(&tile);
        Ok(())
    })?;
    Ok(JoinIndex::new(hashes))
}

/// The build and probe key of a one-column equi-join as ordinals, when
/// equal ordinals mean equal keys.
fn ordinal_keys<'a>(
    build: &'a Batch,
    probe: &'a Batch,
    build_pos: &[usize],
    probe_pos: &[usize],
) -> Option<(Ordinals<'a>, Ordinals<'a>)> {
    match (build_pos, probe_pos) {
        ([b], [p]) => Ordinals::pair(build.col(*b), probe.col(*p)),
        _ => None,
    }
}

/// Where each projected join-output column gathers from.
struct BatchJoinEmit {
    /// `(from_build, source column index)` per output column.
    slots: Vec<(bool, usize)>,
}

impl BatchJoinEmit {
    /// `positions` index into the combined `left ++ right` layout.
    fn new(positions: &[usize], left_arity: usize, build_left: bool) -> BatchJoinEmit {
        let slots = positions
            .iter()
            .map(|&p| {
                let (left_side, i) = if p < left_arity {
                    (true, p)
                } else {
                    (false, p - left_arity)
                };
                (left_side == build_left, i)
            })
            .collect();
        BatchJoinEmit { slots }
    }

    fn out_columns(&self, build: &Batch, probe: &Batch) -> Vec<ColumnVec> {
        self.slots
            .iter()
            .map(|&(from_build, c)| {
                if from_build {
                    build.col(c).empty_like()
                } else {
                    probe.col(c).empty_like()
                }
            })
            .collect()
    }

    /// Gather one tile's matches (`build_sel[k]` joins `probe_sel[k]`)
    /// into the output columns, returning the byte width appended.
    fn gather(
        &self,
        out: &mut [ColumnVec],
        build: &Batch,
        probe: &Batch,
        build_sel: &[u32],
        probe_sel: &[u32],
    ) -> u64 {
        let mut w = 0u64;
        for (col, &(from_build, c)) in out.iter_mut().zip(&self.slots) {
            w += if from_build {
                col.append_gather(build.col(c), build_sel)
            } else {
                col.append_gather(probe.col(c), probe_sel)
            };
        }
        w
    }
}

/// Evaluate residual predicates (bound against the combined
/// `left ++ right` layout) for one candidate pair without materializing
/// anything.
fn residual_ok(
    residual: &[BoundPredicate],
    build: &Batch,
    probe: &Batch,
    bi: usize,
    pi: usize,
    build_left: bool,
    left_arity: usize,
) -> Result<bool> {
    let (lb, lrow, rb, rrow) = if build_left {
        (build, bi, probe, pi)
    } else {
        (probe, pi, build, bi)
    };
    let get = |q: usize| {
        if q < left_arity {
            lb.value_at(q, lrow)
        } else {
            rb.value_at(q - left_arity, rrow)
        }
    };
    for p in residual {
        if !p.eval_with(&get)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Probe phase of the columnar hash join: find each probe row's build
/// rows — by key ordinal on a direct index, which holds the rows of
/// exactly that key; otherwise by hashing the tile's key columns and
/// confirming candidates by per-column key comparison — apply
/// residuals, and gather matches column-by-column, in probe order, each
/// probe row's matches in build order. `index` is [`build_index`]'s over
/// the same two batches and key positions.
#[allow(clippy::too_many_arguments)]
pub fn probe_join(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    build: &Batch,
    probe: &Batch,
    index: &JoinIndex,
    build_pos: &[usize],
    probe_pos: &[usize],
    residual: &[BoundPredicate],
    build_left: bool,
    left_arity: usize,
    positions: &[usize],
) -> Result<(Batch, u64)> {
    let emit = BatchJoinEmit::new(positions, left_arity, build_left);
    let ordinals = ordinal_keys(build, probe, build_pos, probe_pos);
    // A single Int key on both sides is confirmed on the `i64` slices
    // themselves: cheaper than the hash comparison that would spare it.
    let int_keys = match ordinals {
        Some((Ordinals::Int(bk), Ordinals::Int(pk))) => Some((bk, pk)),
        _ => None,
    };
    let direct = ordinals
        .filter(|_| index.is_direct())
        .map(|(_, probe_key)| probe_key);
    let passes = |bi: u32, pi: usize| -> Result<bool> {
        Ok(residual.is_empty()
            || residual_ok(
                residual,
                build,
                probe,
                bi as usize,
                pi,
                build_left,
                left_arity,
            )?)
    };
    let chunks = chunk_ranges(probe.len(), opts.workers_for(probe.len()));
    let parts = run_chunks(chunks, |range| {
        let mut out = emit.out_columns(build, probe);
        let mut out_len = 0usize;
        let mut bytes = 0u64;
        let mut hashes = Vec::new();
        let mut build_sel = Vec::new();
        let mut probe_sel = Vec::new();
        for_each_tile(gov, range, opts.batch_rows, |r| {
            build_sel.clear();
            probe_sel.clear();
            if let Some(key) = direct {
                for pi in r {
                    for bi in index.matches(key.at(pi)) {
                        if passes(bi, pi)? {
                            build_sel.push(bi);
                            probe_sel.push(pi as u32);
                        }
                    }
                }
            } else {
                probe.hash_rows(probe_pos, r.clone(), &mut hashes);
                for (pi, &h) in r.zip(&hashes) {
                    for bi in index.chain(h) {
                        let b = bi as usize;
                        let same_key = match int_keys {
                            Some((bk, pk)) => bk[b] == pk[pi],
                            None => {
                                index.hash_of(bi) == h
                                    && build_pos.iter().zip(probe_pos).all(|(&bp, &pp)| {
                                        build.col(bp).eq_rows(b, probe.col(pp), pi)
                                    })
                            }
                        };
                        if same_key && passes(bi, pi)? {
                            build_sel.push(bi);
                            probe_sel.push(pi as u32);
                        }
                    }
                }
            }
            if !build_sel.is_empty() {
                let w = emit.gather(&mut out, build, probe, &build_sel, &probe_sel);
                gov.charge_output_bulk(build_sel.len() as u64, w)?;
                out_len += build_sel.len();
                bytes += w;
            }
            Ok(())
        })?;
        Ok((Batch::from_parts(out, out_len), bytes))
    })?;
    Ok(stitch(parts, || {
        Batch::from_parts(emit.out_columns(build, probe), 0)
    }))
}

/// Columnar nested-loop join (no hashable equality): workers split the
/// left side; matches come back in the serial `for l { for r }` order.
pub fn nested_loop_join(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    left: &Batch,
    right: &Batch,
    preds: &[BoundPredicate],
    positions: &[usize],
) -> Result<(Batch, u64)> {
    let left_arity = left.n_cols();
    // Reuse the emit machinery with "build" = left.
    let emit = BatchJoinEmit::new(positions, left_arity, true);
    let chunks = chunk_ranges(left.len(), opts.workers_for(left.len()));
    let parts = run_chunks(chunks, |range| {
        let mut out = emit.out_columns(left, right);
        let mut out_len = 0usize;
        let mut bytes = 0u64;
        let mut lsel = Vec::new();
        let mut rsel = Vec::new();
        for_each_tile(gov, range, 1, |r| {
            let li = r.start;
            lsel.clear();
            rsel.clear();
            for ri in 0..right.len() {
                let get = |q: usize| {
                    if q < left_arity {
                        left.value_at(q, li)
                    } else {
                        right.value_at(q - left_arity, ri)
                    }
                };
                let mut ok = true;
                for p in preds {
                    if !p.eval_with(&get)? {
                        ok = false;
                        break;
                    }
                }
                if ok {
                    lsel.push(li as u32);
                    rsel.push(ri as u32);
                }
            }
            if !lsel.is_empty() {
                let w = emit.gather(&mut out, left, right, &lsel, &rsel);
                gov.charge_output_bulk(lsel.len() as u64, w)?;
                out_len += lsel.len();
                bytes += w;
            }
            Ok(())
        })?;
        Ok((Batch::from_parts(out, out_len), bytes))
    })?;
    Ok(stitch(parts, || {
        Batch::from_parts(emit.out_columns(left, right), 0)
    }))
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
enum Probe {
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
    /// [`dir_cells`]`(g)` cells, and a chunk of `n` rows makes at most
    /// `n` groups. `dir_cells(n)` is therefore the bound of the ordinal
    /// rule ([`Lookup::Ordinal`]): a flat array over the key's value
    /// range is used when it takes no more cells than this directory
    /// could come to.
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

/// A typed column — of the input batch, of one evaluated tile, or of
/// another group table's accumulators — as the slice an accumulator
/// reads.
#[derive(Clone, Copy)]
enum Typed<'a> {
    Int(&'a [i64]),
    Float(&'a [f64]),
    Bool(&'a [bool]),
    /// Codes, and a column over the dictionary that orders them.
    Str(&'a [u32], &'a StrCol),
}

impl<'a> Typed<'a> {
    fn of(col: &'a ColumnVec) -> Option<Typed<'a>> {
        match col {
            ColumnVec::Int(xs) => Some(Typed::Int(xs)),
            ColumnVec::Float(xs) => Some(Typed::Float(xs)),
            ColumnVec::Bool(xs) => Some(Typed::Bool(xs)),
            ColumnVec::Str(xs) => Some(Typed::Str(xs.codes(), xs)),
            ColumnVec::Mixed(_) => None,
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
enum Arg<'a> {
    Col(Typed<'a>),
    /// Evaluated a tile at a time ([`BoundExpr::eval_columns`]).
    Expr(&'a BoundExpr),
}

/// How one aggregate reads the input batch: its [`AggInput`] resolved
/// against the batch's columns, once per operator.
enum Feed<'a> {
    /// A raw argument, each row standing for `weight` rows (`None`:
    /// one). COUNT goes without: its argument is only ever evaluated for
    /// its errors, and a bare column has none. A one-component partial
    /// state (SUM, MIN, MAX) merges exactly as its value absorbs, so it
    /// is fed as a raw column too.
    Raw {
        arg: Option<Arg<'a>>,
        weight: Option<&'a [i64]>,
    },
    /// Partial-state components that *add*: the float sums (none for
    /// COUNT, one for AVG, two for STDDEV) and the row count.
    Partial { sums: [&'a [f64]; 2], n: &'a [i64] },
    /// No typed accumulator fits: fold through `Value`s.
    Values(&'a AggInput),
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
#[derive(Clone)]
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
#[derive(Clone)]
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
    /// The fallback for inputs no typed accumulator fits (`Mixed`
    /// columns, ill-typed arguments): one boxed state per group.
    Values(AggFunc, Vec<PartialAggState>),
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
    /// The accumulator and feed of `func` over `input`, by the
    /// representation of the batch columns `input` reads.
    fn resolve<'a>(batch: &'a Batch, input: &'a AggInput, func: AggFunc) -> (AccCol, Feed<'a>) {
        Self::typed(batch, input, func)
            .unwrap_or_else(|| (AccCol::Values(func, Vec::new()), Feed::Values(input)))
    }

    fn typed<'a>(
        batch: &'a Batch,
        input: &'a AggInput,
        func: AggFunc,
    ) -> Option<(AccCol, Feed<'a>)> {
        let col = |i: usize| batch.col(i);
        let none: &[f64] = &[];
        let (arg, weight) = match input {
            AggInput::RawCountStar => (None, None),
            AggInput::Raw(e) => (Some(e), None),
            AggInput::Scaled(e, cnt) => (e.as_ref(), Some(col(*cnt).as_int()?)),
            AggInput::Partial(comps) => {
                let comps: Vec<Typed<'a>> = comps
                    .iter()
                    .map(|&c| Typed::of(col(c)))
                    .collect::<Option<_>>()?;
                return Some(match (func, &comps[..]) {
                    (AggFunc::Count, &[Typed::Int(n)]) => (
                        AccCol::Count(Vec::new()),
                        Feed::Partial {
                            sums: [none, none],
                            n,
                        },
                    ),
                    (AggFunc::Avg, &[Typed::Float(s), Typed::Int(n)]) => {
                        (AccCol::moments(None), Feed::Partial { sums: [s, none], n })
                    }
                    (AggFunc::StdDev, &[Typed::Float(s), Typed::Float(q), Typed::Int(n)]) => (
                        AccCol::moments(Some(Vec::new())),
                        Feed::Partial { sums: [s, q], n },
                    ),
                    (AggFunc::Sum | AggFunc::Min | AggFunc::Max, &[x]) => (
                        AccCol::over(func, x)?,
                        Feed::Raw {
                            arg: Some(Arg::Col(x)),
                            weight: None,
                        },
                    ),
                    _ => return None,
                });
            }
        };
        // What the argument's values look like: an expression that is
        // not numeric column-wise goes to the `Value` fold, COUNT's too,
        // for the errors evaluating it raises.
        let (arg, like) = match (func, arg) {
            (AggFunc::Count, Some(BoundExpr::Col(_))) | (_, None) => (None, None),
            (_, Some(BoundExpr::Col(i))) => {
                let x = Typed::of(col(*i))?;
                (Some(Arg::Col(x)), Some(x))
            }
            (_, Some(e)) => {
                let like = match e.numeric_type(&col)? {
                    DataType::Int => Typed::Int(&[]),
                    _ => Typed::Float(&[]),
                };
                (Some(Arg::Expr(e)), Some(like))
            }
        };
        let acc = match func {
            AggFunc::Count => AccCol::Count(Vec::new()),
            // Only COUNT goes without an argument.
            _ => AccCol::over(func, like?)?,
        };
        Some((acc, Feed::Raw { arg, weight }))
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
            AccCol::Values(func, states) => {
                states.resize_with(groups, || PartialAggState::empty(*func))
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
            AccCol::Values(func, _) => *func,
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

    /// Coalesce `other`'s group `g` into group `slots[g]`, for every
    /// `g`: the accumulators of `other` are the partial-state columns
    /// of its groups, and merge as such.
    fn merge(&mut self, other: &AccCol, slots: &[u32]) -> Result<()> {
        let none: &[f64] = &[];
        let raw = |x| Tile::Raw {
            x: Some(x),
            weight: None,
        };
        let tile = match other {
            AccCol::Count(n) => Tile::Partial {
                sums: [none, none],
                n,
            },
            AccCol::SumInt(v) => raw(Typed::Int(v)),
            AccCol::SumFloat(v) => raw(Typed::Float(v)),
            AccCol::Extreme(_, Extremes::Int(v)) => raw(Typed::Int(v)),
            AccCol::Extreme(_, Extremes::Float(v)) => raw(Typed::Float(v)),
            AccCol::Extreme(_, Extremes::Bool(v)) => raw(Typed::Bool(v)),
            AccCol::Extreme(_, Extremes::Str { codes, like }) => raw(Typed::Str(codes, like)),
            AccCol::Moments { sum, sumsq, n } => Tile::Partial {
                sums: [sum, sumsq.as_deref().unwrap_or(none)],
                n,
            },
            AccCol::Values(_, theirs) => {
                let AccCol::Values(_, mine) = self else {
                    return Err(mismatch());
                };
                for (state, &s) in theirs.iter().zip(slots) {
                    mine[s as usize].merge(state)?;
                }
                return Ok(());
            }
        };
        self.absorb(tile, slots)
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
            AccCol::Values(_, states) if finalize => {
                let values = states.iter().map(PartialAggState::finalize);
                vec![column_of(values.collect::<Result<_>>()?)]
            }
            AccCol::Values(_, states) => (0..func.partial_arity())
                .map(|k| {
                    let comp = |s: &PartialAggState| s.components().get(k).cloned();
                    let values: Option<Vec<Value>> = states.iter().map(comp).collect();
                    values.map(column_of).ok_or_else(empty_group)
                })
                .collect::<Result<_>>()?,
        })
    }
}

/// A column of `values`: typed when they share one type, `Mixed` — as
/// built, not demoted — otherwise.
fn column_of(values: Vec<Value>) -> ColumnVec {
    let ty = values.first().map(Value::data_type);
    match ty.filter(|&t| values.iter().all(|v| v.data_type() == t)) {
        Some(t) => {
            let mut col = ColumnVec::with_type(t);
            values.into_iter().for_each(|v| col.push_value(v));
            col
        }
        None => ColumnVec::Mixed(values),
    }
}

/// How [`BatchGroupTable::accumulate_range`] finds the groups of a
/// chunk's rows.
enum Lookup<'a> {
    /// The one lookup column holds small ordinals — `Int` values or
    /// dictionary codes whose range over the chunk passes the bound
    /// stated at [`SlotDir::needs_grow`] — so `seats[ordinal - min]`
    /// is the group's `slot + 1` (`0`: not seen yet). No row hashes or
    /// compares; groups are still created in first-seen order, and are
    /// entered in the hashed directory only if chunk tables come to
    /// merge ([`BatchGroupTable::seat`]).
    Ordinal {
        keys: Ordinals<'a>,
        min: i64,
        seats: Vec<u32>,
    },
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
/// group's states in input order within a worker chunk, and chunk tables
/// merge in chunk order.
pub struct BatchGroupTable {
    index: SlotDir,
    /// The hash of the lookup columns of every group the directory
    /// holds: all of them, or — while groups are found by ordinal —
    /// none yet.
    hashes: Vec<u64>,
    keys: Vec<ColumnVec>,
    /// Which of `keys` identify a group.
    lookup: Vec<usize>,
    accs: Vec<AccCol>,
    len: usize,
}

impl BatchGroupTable {
    fn new(key_cols: &[&ColumnVec], lookup: &[usize], accs: &[AccCol]) -> BatchGroupTable {
        BatchGroupTable {
            index: SlotDir::new(),
            hashes: Vec::new(),
            keys: key_cols.iter().map(|c| c.empty_like()).collect(),
            lookup: lookup.to_vec(),
            accs: accs.to_vec(),
            len: 0,
        }
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Append a group whose grouping columns are row `row` of `src`.
    fn push_group(&mut self, src: &[&ColumnVec], row: usize) -> usize {
        for (key_col, from) in self.keys.iter_mut().zip(src) {
            key_col.push_from(from, row);
        }
        self.len += 1;
        self.len - 1
    }

    /// Hash the lookup columns of the groups that have no hash yet.
    fn fill_hashes(&mut self) {
        let from = self.hashes.len();
        let lookup_cols = self.lookup.iter().map(|&l| &self.keys[l]);
        let mut fresh = Vec::new();
        hash_columns(lookup_cols, from..self.len, &mut fresh);
        self.hashes.append(&mut fresh);
    }

    /// Enter every group in the directory, so [`Self::slot_for`] finds
    /// it. Groups found by ordinal are distinct by construction; they
    /// are hashed here in one sweep over the key columns.
    fn seat(&mut self) {
        let from = self.hashes.len();
        self.fill_hashes();
        self.index.seat(&self.hashes, from);
    }

    /// Probe the directory for `hash`, confirming candidates with `eq`
    /// (hash equality is checked first, so `eq` only runs on real
    /// collisions within a probe chain).
    fn find(&self, hash: u64, mut eq: impl FnMut(usize) -> bool) -> Probe {
        let mask = self.index.mask();
        let mut idx = dir_index(hash, self.index.bits);
        loop {
            let e = self.index.table[idx];
            if e == 0 {
                return Probe::Miss(idx);
            }
            let s = (e - 1) as usize;
            if self.hashes[s] == hash && eq(s) {
                return Probe::Hit(s);
            }
            idx = (idx + 1) & mask;
        }
    }

    /// The slot of the group row `row` of `src` belongs to — `src` being
    /// the grouping columns, in key order, of an input batch or of
    /// another table — created from that row if it is the group's first.
    /// `hash` is the hash of the row's lookup columns; the directory
    /// must hold every group.
    fn slot_for(&mut self, src: &[&ColumnVec], row: usize, hash: u64) -> usize {
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
        match found {
            Probe::Hit(s) => s,
            Probe::Miss(idx) => {
                let slot = self.push_group(src, row);
                self.index.table[idx] = slot as u32 + 1;
                self.hashes.push(hash);
                self.index.seat(&self.hashes, self.len);
                slot
            }
        }
    }

    /// Fold rows `range` of `batch` in, a tile at a time: find every
    /// row's group (creating the new ones), then let each aggregate
    /// absorb the tile in one typed loop.
    #[allow(clippy::too_many_arguments)]
    fn accumulate_range(
        &mut self,
        gov: &ResourceGovernor,
        batch: &Batch,
        range: Range<usize>,
        batch_rows: usize,
        key_cols: &[&ColumnVec],
        lookup_pos: &[usize],
        feeds: &[Feed<'_>],
    ) -> Result<()> {
        let ordinal = |&k: &usize| {
            let keys = Ordinals::of(batch.col(k))?;
            let (min, cells) = keys.span(range.clone(), dir_cells(range.len()))?;
            let seats = vec![0; cells];
            Some(Lookup::Ordinal { keys, min, seats })
        };
        let mut lookup = match lookup_pos {
            [k] => ordinal(k).unwrap_or(Lookup::Hashed),
            _ => Lookup::Hashed,
        };
        let col = |i: usize| batch.col(i);
        let mut hashes = Vec::new();
        let mut slots: Vec<u32> = Vec::new();
        for_each_tile(gov, range, batch_rows, |r| {
            slots.clear();
            match &mut lookup {
                Lookup::Ordinal { keys, min, seats } => slots.extend(r.clone().map(|row| {
                    let seat = &mut seats[ordinal_cell(keys.at(row), *min)];
                    if *seat == 0 {
                        *seat = self.push_group(key_cols, row) as u32 + 1;
                    }
                    *seat - 1
                })),
                Lookup::Hashed => {
                    batch.hash_rows(lookup_pos, r.clone(), &mut hashes);
                    let found = r.clone().zip(&hashes);
                    slots.extend(found.map(|(row, &h)| self.slot_for(key_cols, row, h) as u32));
                }
            }
            for (acc, feed) in self.accs.iter_mut().zip(feeds) {
                acc.grow(self.len);
                let evaluated;
                let tile = match feed {
                    Feed::Raw { arg, weight } => Tile::Raw {
                        x: match arg {
                            None => None,
                            Some(Arg::Col(x)) => Some(x.slice(r.clone())),
                            Some(Arg::Expr(e)) => {
                                evaluated = e.eval_columns(&col, r.clone())?;
                                Some(match &evaluated {
                                    NumColumn::Int(xs) => Typed::Int(xs),
                                    NumColumn::Float(xs) => Typed::Float(xs),
                                })
                            }
                        },
                        weight: weight.map(|w| &w[r.clone()]),
                    },
                    Feed::Partial { sums: [s, q], n } => Tile::Partial {
                        // COUNT and AVG leave sums empty.
                        sums: [s, q].map(|v| v.get(r.clone()).unwrap_or(&[])),
                        n: &n[r.clone()],
                    },
                    Feed::Values(input) => {
                        let AccCol::Values(_, states) = acc else {
                            return Err(mismatch());
                        };
                        for (row, &s) in r.clone().zip(&slots) {
                            let get = |i: usize| batch.value_at(i, row);
                            input.absorb_with(&mut states[s as usize], &get)?;
                        }
                        continue;
                    }
                };
                acc.absorb(tile, &slots)?;
            }
            Ok(())
        })
    }

    /// Coalesce `other`'s groups into `self` in `other`'s group order.
    fn merge_from(&mut self, mut other: BatchGroupTable) -> Result<()> {
        self.seat();
        other.fill_hashes();
        let src: Vec<&ColumnVec> = other.keys.iter().collect();
        let slots: Vec<u32> = (0..other.len)
            .map(|g| self.slot_for(&src, g, other.hashes[g]) as u32)
            .collect();
        for (mine, theirs) in self.accs.iter_mut().zip(&other.accs) {
            mine.grow(self.len);
            mine.merge(theirs, &slots)?;
        }
        Ok(())
    }

    /// The finished table as columns, one entry per group in first-seen
    /// order: the grouping columns, then per aggregate its finalized
    /// value (`finalize`) or its partial-state components. Accumulator
    /// vectors move out as they are; nothing is rebuilt per group.
    pub fn into_columns(self, finalize: bool) -> Result<Vec<ColumnVec>> {
        let mut cols = self.keys;
        for mut acc in self.accs {
            // A table no chunk fed (zero input rows) never grew.
            acc.grow(self.len);
            cols.extend(acc.into_columns(finalize)?);
        }
        Ok(cols)
    }
}

/// Two-phase columnar aggregation: per-chunk tables accumulate
/// tile-wise (phase 1 — the paper's partial aggregation), then coalesce
/// in worker order (phase 2 — the global merge). With one worker this is
/// the serial hash aggregation.
///
/// Groups are stored under all of `key_pos` and found by the columns
/// `key_pos[l]` for `l` in `lookup`, which must determine the others.
pub fn accumulate_groups(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    batch: &Batch,
    key_pos: &[usize],
    lookup: &[usize],
    inputs: &[AggInput],
    funcs: &[AggFunc],
) -> Result<BatchGroupTable> {
    let key_cols: Vec<&ColumnVec> = key_pos.iter().map(|&k| batch.col(k)).collect();
    let lookup_pos: Vec<usize> = lookup.iter().map(|&l| key_pos[l]).collect();
    let (accs, feeds): (Vec<AccCol>, Vec<Feed<'_>>) = inputs
        .iter()
        .zip(funcs)
        .map(|(input, &f)| AccCol::resolve(batch, input, f))
        .unzip();
    let new_table = || BatchGroupTable::new(&key_cols, lookup, &accs);
    let chunks = chunk_ranges(batch.len(), opts.workers_for(batch.len()));
    let tables = run_chunks(chunks, |range| {
        let mut table = new_table();
        table.accumulate_range(
            gov,
            batch,
            range,
            opts.batch_rows,
            &key_cols,
            &lookup_pos,
            &feeds,
        )?;
        Ok(table)
    })?;
    let mut iter = tables.into_iter();
    let mut global = iter.next().unwrap_or_else(new_table);
    for t in iter {
        global.merge_from(t)?;
    }
    Ok(global)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::partition::GroupTable;
    use crate::reference;
    use aggview_common::{
        tuple, AggSpec, CmpOp, Col, DataType, Expr, Predicate, RelId, Schema, Tuple, ViewId,
    };
    use aggview_core::plan::{all_cols, GroupBySpec, Plan};
    use aggview_storage::Catalog;

    const TYPES: [DataType; 3] = [DataType::Int, DataType::Int, DataType::Str];

    fn opts() -> ExecOptions {
        ExecOptions {
            batch_rows: 7, // force multi-tile on small inputs
            ..ExecOptions::serial()
        }
    }

    /// Multi-worker options that split even tiny inputs.
    fn par(threads: usize) -> ExecOptions {
        ExecOptions {
            threads,
            parallel_threshold: 1,
            ..opts()
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
        let (batch, bytes) = scan_table(
            &opts(),
            &gov,
            &cat.get("t").unwrap(),
            std::slice::from_ref(&bound),
            &[2, 0],
        )
        .unwrap();
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
        let lb = Batch::from_tuples(&input_rows(40), &[0, 1, 2], &TYPES);
        let rb = Batch::from_tuples(&input_rows(25), &[0, 1, 2], &TYPES);
        // Join on col 0 with a residual on the right row number.
        let eq = Predicate::eq_cols(Col::base(RelId(0), 0), Col::base(RelId(1), 0));
        let residual = Predicate::new(
            Expr::col(Col::base(RelId(0), 1)),
            CmpOp::Ge,
            Expr::col(Col::base(RelId(1), 1)),
        );
        let bound = residual
            .bind(&|c| match c {
                Col::Base(b) if b.rel == RelId(0) => Some(b.col as usize),
                Col::Base(b) => Some(3 + b.col as usize),
                _ => None,
            })
            .unwrap();
        let positions = [1usize, 4, 2];
        // Build on the smaller (right) side, like the engine would; the
        // probe then walks the left side in order with ascending
        // candidates — the reference's `for l { for r }` order.
        let index = build_index(&opts(), &gov, &rb, &lb, &[0], &[0]).unwrap();
        let (got, bytes) = probe_join(
            &opts(),
            &gov,
            &rb,
            &lb,
            &index,
            &[0],
            &[0],
            std::slice::from_ref(&bound),
            false,
            3,
            &positions,
        )
        .unwrap();
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
        let batch = Batch::from_tuples(&input_rows(60), &[0, 1, 2], &TYPES);
        let n = Expr::col(Col::base(RelId(0), 1));
        let inputs = [
            AggInput::RawCountStar,
            AggInput::Raw(n.bind(&|c| layout(c)).unwrap()),
        ];
        let funcs = [AggFunc::Count, AggFunc::Avg];
        let got = accumulate_groups(&opts(), &gov, &batch, &[0], &[0], &inputs, &funcs).unwrap();
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

    /// The row-major [`GroupTable`] folds the same [`AggInput`]s through
    /// [`PartialAggState`] one `Value` at a time: the oracle for the
    /// typed accumulators. Groups come back in first-seen order on both
    /// sides, so serial runs are compared positionally, cell for cell
    /// and float bit for float bit.
    fn value_fold(
        rows: &[Tuple],
        key_pos: &[usize],
        inputs: &[AggInput],
        funcs: &[AggFunc],
        finalize: bool,
    ) -> Result<Vec<Tuple>> {
        let mut gt = GroupTable::new();
        for r in rows {
            gt.accumulate(r, key_pos, inputs, funcs)?;
        }
        gt.groups
            .into_iter()
            .map(|g| {
                let mut cells = g.key.into_values();
                for s in &g.states {
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
        let table = accumulate_groups(opts, &gov, batch, keys.0, keys.1, inputs, funcs)?;
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
                let batch = Batch::from_tuples(&rows, &[0, 1, 2, 3, 4, 5, 6, 7, 8], &FOLD_TYPES);
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
                        // Typed inputs give typed outputs: no column of
                        // the table is `Mixed`.
                        // Chunk merges add partial float sums in another
                        // association than one pass: same groups in the
                        // same order, values up to rounding.
                        let par = typed_fold(
                            &par(4),
                            &batch,
                            (&[0, 1, 2], lookup),
                            &inputs,
                            &funcs,
                            finalize,
                        )
                        .unwrap();
                        assert_eq!(par.len(), want.len());
                        for (p, w) in par.iter().zip(&want) {
                            for (a, b) in p.values().iter().zip(w.values()) {
                                match (a, b) {
                                    (Value::Float(a), Value::Float(b)) => assert!(
                                        (a - b).abs() <= 1e-9 * b.abs().max(1.0),
                                        "{a} vs {b}"
                                    ),
                                    _ => assert_eq!(a, b),
                                }
                            }
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn typed_inputs_make_no_mixed_column_and_no_boxed_state() {
        let rows = fold_rows(40, |k| k);
        let batch = Batch::from_tuples(&rows, &[0, 1, 2, 3, 4, 5, 6, 7, 8], &FOLD_TYPES);
        for (func, input) in fold_cases() {
            let (acc, _) = AccCol::resolve(&batch, &input, func);
            assert!(
                !matches!(acc, AccCol::Values(..)),
                "{func} over {input:?} fell back to boxed states"
            );
            for finalize in [true, false] {
                let gov = ResourceGovernor::unlimited();
                let table = accumulate_groups(
                    &opts(),
                    &gov,
                    &batch,
                    &[0],
                    &[0],
                    std::slice::from_ref(&input),
                    &[func],
                )
                .unwrap();
                let cols = table.into_columns(finalize).unwrap();
                assert!(cols.iter().all(|c| !matches!(c, ColumnVec::Mixed(_))));
            }
        }
        // A Mixed argument column is what the fallback is for; its
        // answers are the Value fold's own.
        let mixed = vec![tuple![1i64, 2i64], tuple![1i64, 2.5f64], tuple![2i64, 1i64]];
        let batch = Batch::from_tuples(&mixed, &[0, 1], &[DataType::Int, DataType::Int]);
        let inputs = [AggInput::Raw(BoundExpr::Col(1))];
        let (acc, _) = AccCol::resolve(&batch, &inputs[0], AggFunc::Sum);
        assert!(matches!(acc, AccCol::Values(..)));
        let want = value_fold(&mixed, &[0], &inputs, &[AggFunc::Sum], true).unwrap();
        let got = typed_fold(
            &opts(),
            &batch,
            (&[0], &[0]),
            &inputs,
            &[AggFunc::Sum],
            true,
        );
        assert_eq!(bits(&got.unwrap()), bits(&want));
    }

    /// One failing row: the typed fold stops with the `Value` fold's
    /// message, serial and across a chunk merge.
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
        cases.push((
            count_of,
            AggInput::Raw(of_bool),
            rows(1, 1),
            "arithmetic on non-numeric values",
        ));
        for (func, input, rows, message) in cases {
            let batch = Batch::from_tuples(&rows, &[0, 1, 2, 3], &types);
            let inputs = std::slice::from_ref(&input);
            let want = value_fold(&rows, &[0], inputs, &[func], true).unwrap_err();
            assert!(want.to_string().contains(message), "{want} / {message}");
            for o in [opts(), par(4)] {
                let got = typed_fold(&o, &batch, (&[0], &[0]), inputs, &[func], true).unwrap_err();
                assert_eq!(got.to_string(), want.to_string(), "{func} {input:?}");
            }
        }
    }

    #[test]
    fn cancellation_aborts_parallel_workers() {
        let cat = catalog(&[("t", 2000)]);
        let gov = ResourceGovernor::unlimited();
        gov.token().cancel();
        let err = scan_table(&par(4), &gov, &cat.get("t").unwrap(), &[], &[0]).unwrap_err();
        assert_eq!(err.kind(), "cancelled");
    }

    #[test]
    fn filter_rows_errors_match_row_errors() {
        // Comparing a string column to an int constant must produce the
        // row-wise evaluator's exact message.
        let rows = vec![tuple![1i64, "x"]];
        let tile = Batch::from_tuples(&rows, &[0, 1], &[DataType::Int, DataType::Str]);
        let p = Predicate::cmp_const(Col::base(RelId(0), 1), CmpOp::Lt, 3i64)
            .bind(&|c| layout(c))
            .unwrap();
        let batch_err = RowFilter::new(std::slice::from_ref(&p), |i| tile.col(i))
            .rows(0..tile.len())
            .unwrap_err();
        let row_err = p.eval(&rows[0]).unwrap_err();
        assert_eq!(batch_err.to_string(), row_err.to_string());
    }
}
