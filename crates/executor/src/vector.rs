//! Vectorized (columnar) operator kernels.
//!
//! The engine's operators process fixed-size column-major tiles of
//! [`ExecOptions::batch_rows`] rows with tight per-column loops:
//!
//! * [`scan_table`] — filter a table's column image via selection
//!   vectors, gather-project the survivors;
//! * [`build_index`] / [`probe_join`] / [`nested_loop_join`] — hash and
//!   nested-loop joins whose matches are emitted as per-side selection
//!   vectors and gathered column-by-column;
//! * [`accumulate_groups`] — hash aggregation into a
//!   [`BatchGroupTable`] whose keys stay column-major.
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
use crate::partition::{chunk_ranges, dir_index, AggInput, JoinIndex};
use aggview_common::expr::BoundExpr;
use aggview_common::predicate::BoundPredicate;
use aggview_common::{AggFunc, AggViewError, Batch, ColumnVec, PartialAggState, Result, Value};
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
    /// string. A dictionary holds no more entries than the rows that
    /// were scanned to build it, so this is never more comparisons than
    /// a row-wise sweep of those rows.
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

/// Columnar scan of `table`'s column image ([`Table::column`]): sweep
/// `preds` over each tile's row range and gather `positions` of the
/// survivors. Both are bound to the table's physical column numbers, and
/// only the columns they name are ever transposed. Survivors come back
/// in row order; the second component is their total byte width.
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

// ---------------------------------------------------------------------
// Joins
// ---------------------------------------------------------------------

/// Build the hash-join index over the build-side batch: hash the key
/// columns tile-wise, then link every row into [`JoinIndex`]'s flat
/// arrays. Always one serial pass — the index costs a few nanoseconds a
/// row, less than handing rows between workers would.
pub fn build_index(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    build: &Batch,
    key_pos: &[usize],
) -> Result<JoinIndex> {
    let n = build.len();
    let mut hashes = Vec::with_capacity(n);
    let mut tile = Vec::new();
    for_each_tile(gov, 0..n, opts.batch_rows, |r| {
        build.hash_rows(key_pos, r, &mut tile);
        hashes.extend_from_slice(&tile);
        Ok(())
    })?;
    Ok(JoinIndex::new(hashes))
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

/// Probe phase of the columnar hash join: hash each probe tile's key
/// columns, confirm candidates by per-column key comparison, apply
/// residuals, and gather matches column-by-column — in probe order,
/// each probe row's matches in build order.
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
    // A single Int key on both sides is confirmed on the `i64` slices
    // themselves: cheaper than the hash comparison that would spare it.
    let int_keys = match (build_pos, probe_pos) {
        ([b], [p]) => build.col(*b).as_int().zip(probe.col(*p).as_int()),
        _ => None,
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
            probe.hash_rows(probe_pos, r.clone(), &mut hashes);
            build_sel.clear();
            probe_sel.clear();
            for (k, &h) in hashes.iter().enumerate() {
                let pi = r.start + k;
                for bi in index.chain(h) {
                    let b = bi as usize;
                    let same_key = match int_keys {
                        Some((bk, pk)) => bk[b] == pk[pi],
                        None => {
                            index.hash_of(bi) == h
                                && build_pos
                                    .iter()
                                    .zip(probe_pos)
                                    .all(|(&bp, &pp)| build.col(bp).eq_rows(b, probe.col(pp), pi))
                        }
                    };
                    if same_key
                        && (residual.is_empty()
                            || residual_ok(residual, build, probe, b, pi, build_left, left_arity)?)
                    {
                        build_sel.push(bi);
                        probe_sel.push(pi as u32);
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
    fn needs_grow(&self, groups: usize) -> bool {
        groups * 2 >= self.table.len()
    }

    /// Double the directory and reinsert every slot from the per-group
    /// hashes — deterministic given the (deterministic) group order.
    fn grow(&mut self, hashes: &[u64]) {
        let cap = self.table.len() * 2;
        self.table.clear();
        self.table.resize(cap, 0);
        self.bits += 1;
        let mask = self.mask();
        for (s, &h) in hashes.iter().enumerate() {
            let mut idx = dir_index(h, self.bits);
            while self.table[idx] != 0 {
                idx = (idx + 1) & mask;
            }
            self.table[idx] = s as u32 + 1;
        }
    }
}

/// Columnar hash-aggregation table: insertion-ordered groups whose keys
/// stay column-major (one [`ColumnVec`] per grouping column) and whose
/// aggregate states live in a flat `Vec` with stride `n_aggs`.
///
/// Groups are emitted in first-appearance order; rows fold into a
/// group's states in input order within a worker chunk, and chunk tables
/// merge in chunk order.
pub struct BatchGroupTable {
    index: SlotDir,
    hashes: Vec<u64>,
    keys: Vec<ColumnVec>,
    states: Vec<PartialAggState>,
    n_aggs: usize,
    len: usize,
}

impl BatchGroupTable {
    fn new(key_templates: &[&ColumnVec], n_aggs: usize) -> BatchGroupTable {
        BatchGroupTable {
            index: SlotDir::new(),
            hashes: Vec::new(),
            keys: key_templates.iter().map(|c| c.empty_like()).collect(),
            states: Vec::new(),
            n_aggs,
            len: 0,
        }
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

    /// Claim directory cell `idx` for the next slot and record its hash;
    /// the caller appends the key values and states.
    fn claim(&mut self, idx: usize, hash: u64) -> usize {
        let slot = self.len;
        self.index.table[idx] = slot as u32 + 1;
        self.hashes.push(hash);
        self.len += 1;
        if self.index.needs_grow(self.len) {
            self.index.grow(&self.hashes);
        }
        slot
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.len
    }

    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The group-key columns, group-major.
    pub fn into_key_columns(self) -> (Vec<ColumnVec>, Vec<PartialAggState>, usize) {
        (self.keys, self.states, self.n_aggs)
    }

    /// State of aggregate `j` for group `g`.
    pub fn state(&self, g: usize, j: usize) -> &PartialAggState {
        &self.states[g * self.n_aggs + j]
    }

    fn slot_for(
        &mut self,
        batch: &Batch,
        row: usize,
        hash: u64,
        key_pos: &[usize],
        funcs: &[AggFunc],
    ) -> usize {
        let found = self.find(hash, |s| {
            self.keys
                .iter()
                .zip(key_pos)
                .all(|(key_col, &kp)| key_col.eq_rows(s, batch.col(kp), row))
        });
        match found {
            Probe::Hit(s) => s,
            Probe::Miss(idx) => {
                for (key_col, &kp) in self.keys.iter_mut().zip(key_pos) {
                    key_col.push_from(batch.col(kp), row);
                }
                self.states
                    .extend(funcs.iter().map(|&f| PartialAggState::empty(f)));
                self.claim(idx, hash)
            }
        }
    }

    /// [`Self::slot_for`] specialized to the single typed-Int grouping
    /// key: candidate confirmation and key insertion read/write the `i64`
    /// key column directly, skipping the per-row [`ColumnVec::eq_rows`]
    /// double dispatch. Same first-seen insertion order, hence the same
    /// group order as the generic path.
    fn slot_for_int(&mut self, x: i64, hash: u64, funcs: &[AggFunc]) -> usize {
        let ColumnVec::Int(key) = &self.keys[0] else {
            unreachable!("slot_for_int requires an Int key column");
        };
        match self.find(hash, |s| key[s] == x) {
            Probe::Hit(s) => s,
            Probe::Miss(idx) => {
                let ColumnVec::Int(key) = &mut self.keys[0] else {
                    unreachable!();
                };
                key.push(x);
                self.states
                    .extend(funcs.iter().map(|&f| PartialAggState::empty(f)));
                self.claim(idx, hash)
            }
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn accumulate_range(
        &mut self,
        gov: &ResourceGovernor,
        batch: &Batch,
        range: Range<usize>,
        batch_rows: usize,
        key_pos: &[usize],
        inputs: &[AggInput],
        funcs: &[AggFunc],
    ) -> Result<()> {
        let mut accs: Vec<HotAcc<'_>> = inputs
            .iter()
            .zip(funcs)
            .map(|(input, &f)| HotAcc::plan(batch, input, f))
            .collect();
        let mut key = match key_pos {
            [k] => match batch.col(*k) {
                ColumnVec::Int(xs) => SingleKey::Int(xs),
                // `slot + 1` per dictionary entry, 0 = not seen yet.
                ColumnVec::Str(xs) => SingleKey::Code(xs.codes(), vec![0; xs.dict().len()]),
                _ => SingleKey::No,
            },
            _ => SingleKey::No,
        };
        let mut hashes = Vec::new();
        for_each_tile(gov, range, batch_rows, |r| {
            if !matches!(key, SingleKey::Code(..)) {
                batch.hash_rows(key_pos, r.clone(), &mut hashes);
            }
            for row in r.clone() {
                let before = self.len;
                let slot = match &mut key {
                    SingleKey::Int(xs) => self.slot_for_int(xs[row], hashes[row - r.start], funcs),
                    SingleKey::Code(codes, slot_of) => {
                        // One array read per row; the hash is only worked
                        // out for a code's first row, to seat its group in
                        // the directory the chunk merge probes.
                        let seat = &mut slot_of[codes[row] as usize];
                        if *seat == 0 {
                            batch.hash_rows(key_pos, row..row + 1, &mut hashes);
                            *seat = self.slot_for(batch, row, hashes[0], key_pos, funcs) as u32 + 1;
                        }
                        (*seat - 1) as usize
                    }
                    SingleKey::No => {
                        self.slot_for(batch, row, hashes[row - r.start], key_pos, funcs)
                    }
                };
                if self.len > before {
                    for acc in accs.iter_mut() {
                        acc.grow();
                    }
                }
                let base = slot * self.n_aggs;
                for (j, acc) in accs.iter_mut().enumerate() {
                    if let HotAcc::Cold(input) = acc {
                        let get = |i: usize| batch.value_at(i, row);
                        input.absorb_with(&mut self.states[base + j], &get)?;
                    } else {
                        acc.absorb(slot, row)?;
                    }
                }
            }
            Ok(())
        })?;
        for (j, acc) in accs.into_iter().enumerate() {
            acc.flush(j, self.n_aggs, &mut self.states)?;
        }
        Ok(())
    }

    /// Coalesce `other`'s groups into `self` in `other`'s group order.
    fn merge_from(&mut self, other: BatchGroupTable, funcs: &[AggFunc]) -> Result<()> {
        for g in 0..other.len {
            let hash = other.hashes[g];
            let found = self.find(hash, |s| {
                self.keys
                    .iter()
                    .zip(&other.keys)
                    .all(|(mine, theirs)| mine.eq_rows(s, theirs, g))
            });
            match found {
                Probe::Hit(s) => {
                    let base = s * self.n_aggs;
                    for j in 0..self.n_aggs {
                        self.states[base + j].merge(&other.states[g * self.n_aggs + j])?;
                    }
                }
                Probe::Miss(idx) => {
                    for (mine, theirs) in self.keys.iter_mut().zip(&other.keys) {
                        mine.push_from(theirs, g);
                    }
                    for (j, &f) in funcs.iter().enumerate() {
                        let mut st = PartialAggState::empty(f);
                        st.merge(&other.states[g * self.n_aggs + j])?;
                        self.states.push(st);
                    }
                    self.claim(idx, hash);
                }
            }
        }
        Ok(())
    }
}

/// How [`BatchGroupTable::accumulate_range`] finds a row's group when
/// the grouping key is one typed column.
enum SingleKey<'a> {
    /// Hash, then confirm on the `i64` slice ([`BatchGroupTable::slot_for_int`]).
    Int(&'a [i64]),
    /// A coded string column: the row's code indexes a flat `code → slot`
    /// array, so steady-state rows neither hash nor compare. Groups are
    /// still created in first-seen order.
    Code(&'a [u32], Vec<u32>),
    /// Anything else: hash the key columns, confirm with `eq_rows`.
    No,
}

/// Per-aggregate absorb plan for one [`BatchGroupTable::accumulate_range`]
/// call. The common (function, input) shapes — COUNT, and SUM/MIN/MAX/AVG
/// of a plain column stored as a typed Int or Float [`ColumnVec`] —
/// accumulate straight out of column storage into native scalars, skipping
/// the per-row [`Value`] boxing of [`PartialAggState::update`]. Everything
/// else (expressions, partial-state coalescing, Str/Bool/Mixed columns,
/// STDDEV) falls back to the generic cold path.
///
/// Every arithmetic step mirrors the cold path exactly: additions happen
/// in the same per-row order, Int sums use the same checked add (with the
/// same error message), Float MIN/MAX use the same `total_cmp` ordering
/// as [`Value`]'s comparison, and counts use the same checked increment.
/// [`HotAcc::flush`] then folds each finished accumulator into the
/// group's pristine empty [`PartialAggState`] via
/// [`PartialAggState::merge_components`], which reproduces the cold
/// representation bit-for-bit: SUM/MIN/MAX merges clone the value into
/// the empty state unchanged, and COUNT/AVG merges add onto `0`/`+0.0` —
/// a no-op on the bits, since a running float sum seeded at `+0.0` can
/// never be `-0.0` (IEEE round-to-nearest only yields `-0.0` from adding
/// two negative zeros).
enum HotAcc<'a> {
    /// COUNT(*) / COUNT(col): the argument is ignored, and a bare column
    /// reference cannot fail to evaluate.
    Count(Vec<i64>),
    SumInt(&'a [i64], Vec<Option<i64>>),
    SumFloat(&'a [f64], Vec<Option<f64>>),
    MinInt(&'a [i64], Vec<Option<i64>>),
    MinFloat(&'a [f64], Vec<Option<f64>>),
    MaxInt(&'a [i64], Vec<Option<i64>>),
    MaxFloat(&'a [f64], Vec<Option<f64>>),
    /// Running `(sum, count)` — column values widen to `f64` exactly as
    /// `Value::as_f64` does for the cold path.
    AvgInt(&'a [i64], Vec<(f64, i64)>),
    AvgFloat(&'a [f64], Vec<(f64, i64)>),
    /// Fallback: absorb through [`AggInput::absorb_with`] on the cold
    /// state.
    Cold(&'a AggInput),
}

impl<'a> HotAcc<'a> {
    fn plan(batch: &'a Batch, input: &'a AggInput, func: AggFunc) -> HotAcc<'a> {
        let col = match input {
            AggInput::RawCountStar => None,
            AggInput::Raw(BoundExpr::Col(i)) => Some(*i),
            _ => return HotAcc::Cold(input),
        };
        if func == AggFunc::Count {
            return HotAcc::Count(Vec::new());
        }
        let Some(c) = col else {
            return HotAcc::Cold(input);
        };
        match (func, batch.col(c)) {
            (AggFunc::Sum, ColumnVec::Int(xs)) => HotAcc::SumInt(xs, Vec::new()),
            (AggFunc::Sum, ColumnVec::Float(xs)) => HotAcc::SumFloat(xs, Vec::new()),
            (AggFunc::Min, ColumnVec::Int(xs)) => HotAcc::MinInt(xs, Vec::new()),
            (AggFunc::Min, ColumnVec::Float(xs)) => HotAcc::MinFloat(xs, Vec::new()),
            (AggFunc::Max, ColumnVec::Int(xs)) => HotAcc::MaxInt(xs, Vec::new()),
            (AggFunc::Max, ColumnVec::Float(xs)) => HotAcc::MaxFloat(xs, Vec::new()),
            (AggFunc::Avg, ColumnVec::Int(xs)) => HotAcc::AvgInt(xs, Vec::new()),
            (AggFunc::Avg, ColumnVec::Float(xs)) => HotAcc::AvgFloat(xs, Vec::new()),
            _ => HotAcc::Cold(input),
        }
    }

    /// Append the identity accumulator for a freshly created group.
    fn grow(&mut self) {
        match self {
            HotAcc::Count(ns) => ns.push(0),
            HotAcc::SumInt(_, acc) | HotAcc::MinInt(_, acc) | HotAcc::MaxInt(_, acc) => {
                acc.push(None)
            }
            HotAcc::SumFloat(_, acc) | HotAcc::MinFloat(_, acc) | HotAcc::MaxFloat(_, acc) => {
                acc.push(None)
            }
            HotAcc::AvgInt(_, acc) | HotAcc::AvgFloat(_, acc) => acc.push((0.0, 0)),
            HotAcc::Cold(_) => {}
        }
    }

    /// Absorb input row `row` into group `slot`.
    fn absorb(&mut self, slot: usize, row: usize) -> Result<()> {
        match self {
            HotAcc::Count(ns) => ns[slot] = count_inc(ns[slot], "COUNT")?,
            HotAcc::SumInt(xs, acc) => {
                let x = xs[row];
                acc[slot] = Some(match acc[slot] {
                    None => x,
                    Some(s) => s
                        .checked_add(x)
                        .ok_or_else(|| AggViewError::Exec(format!("SUM overflow ({s} + {x})")))?,
                });
            }
            HotAcc::SumFloat(xs, acc) => {
                let x = xs[row];
                acc[slot] = Some(acc[slot].map_or(x, |s| s + x));
            }
            HotAcc::MinInt(xs, acc) => {
                let x = xs[row];
                if acc[slot].is_none_or(|cur| x < cur) {
                    acc[slot] = Some(x);
                }
            }
            HotAcc::MinFloat(xs, acc) => {
                let x = xs[row];
                if acc[slot].is_none_or(|cur| x.total_cmp(&cur) == Ordering::Less) {
                    acc[slot] = Some(x);
                }
            }
            HotAcc::MaxInt(xs, acc) => {
                let x = xs[row];
                if acc[slot].is_none_or(|cur| x > cur) {
                    acc[slot] = Some(x);
                }
            }
            HotAcc::MaxFloat(xs, acc) => {
                let x = xs[row];
                if acc[slot].is_none_or(|cur| x.total_cmp(&cur) == Ordering::Greater) {
                    acc[slot] = Some(x);
                }
            }
            HotAcc::AvgInt(xs, acc) => {
                let x = xs[row] as f64;
                let (s, n) = acc[slot];
                acc[slot] = (s + x, count_inc(n, "AVG count")?);
            }
            HotAcc::AvgFloat(xs, acc) => {
                let x = xs[row];
                let (s, n) = acc[slot];
                acc[slot] = (s + x, count_inc(n, "AVG count")?);
            }
            HotAcc::Cold(_) => {}
        }
        Ok(())
    }

    /// Fold the finished accumulators for all groups into the cold states
    /// (this accumulator is aggregate `j` of stride `n_aggs`).
    fn flush(self, j: usize, n_aggs: usize, states: &mut [PartialAggState]) -> Result<()> {
        let mut fold = |g: usize, comps: &[Value]| states[g * n_aggs + j].merge_components(comps);
        match self {
            HotAcc::Count(ns) => {
                for (g, n) in ns.into_iter().enumerate() {
                    fold(g, &[Value::Int(n)])?;
                }
            }
            HotAcc::SumInt(_, acc) | HotAcc::MinInt(_, acc) | HotAcc::MaxInt(_, acc) => {
                for (g, v) in acc.into_iter().enumerate() {
                    if let Some(x) = v {
                        fold(g, &[Value::Int(x)])?;
                    }
                }
            }
            HotAcc::SumFloat(_, acc) | HotAcc::MinFloat(_, acc) | HotAcc::MaxFloat(_, acc) => {
                for (g, v) in acc.into_iter().enumerate() {
                    if let Some(x) = v {
                        fold(g, &[Value::Float(x)])?;
                    }
                }
            }
            HotAcc::AvgInt(_, acc) | HotAcc::AvgFloat(_, acc) => {
                for (g, (s, n)) in acc.into_iter().enumerate() {
                    fold(g, &[Value::Float(s), Value::Int(n)])?;
                }
            }
            HotAcc::Cold(_) => {}
        }
        Ok(())
    }
}

/// Checked group-count increment with [`PartialAggState::update`]'s
/// overflow message.
fn count_inc(n: i64, what: &str) -> Result<i64> {
    n.checked_add(1)
        .ok_or_else(|| AggViewError::Exec(format!("{what} overflow")))
}

/// Two-phase columnar aggregation: per-chunk tables accumulate
/// tile-wise (phase 1 — the paper's partial aggregation), then coalesce
/// in worker order (phase 2 — the global merge). With one worker this is
/// the serial hash aggregation.
pub fn accumulate_groups(
    opts: &ExecOptions,
    gov: &ResourceGovernor,
    batch: &Batch,
    key_pos: &[usize],
    inputs: &[AggInput],
    funcs: &[AggFunc],
) -> Result<BatchGroupTable> {
    let key_templates: Vec<&ColumnVec> = key_pos.iter().map(|&k| batch.col(k)).collect();
    let chunks = chunk_ranges(batch.len(), opts.workers_for(batch.len()));
    let tables = run_chunks(chunks, |range| {
        let mut table = BatchGroupTable::new(&key_templates, funcs.len());
        table.accumulate_range(gov, batch, range, opts.batch_rows, key_pos, inputs, funcs)?;
        Ok(table)
    })?;
    let mut iter = tables.into_iter();
    let mut global = iter
        .next()
        .unwrap_or_else(|| BatchGroupTable::new(&key_templates, funcs.len()));
    for t in iter {
        global.merge_from(t, funcs)?;
    }
    Ok(global)
}

#[cfg(test)]
mod tests {
    use super::*;
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
        let index = build_index(&opts(), &gov, &rb, &[0]).unwrap();
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
        let got = accumulate_groups(&opts(), &gov, &batch, &[0], &inputs, &funcs).unwrap();
        let mut got_rows: Vec<Tuple> = (0..got.len())
            .map(|g| {
                tuple![
                    got.keys[0].value_at(g),
                    got.state(g, 0).finalize().unwrap(),
                    got.state(g, 1).finalize().unwrap()
                ]
            })
            .collect();
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
