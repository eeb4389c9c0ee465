//! In-memory tables: built in bulk, then edited copy-on-write.

use crate::keys::{ForeignKey, PrimaryKey};
use crate::stats::{analyze_columns, column_histogram, Histogram, TableStats, REANALYZE_DIVISOR};
use aggview_common::{
    hash_columns, AggViewError, ColumnVec, DataType, Result, Schema, Tuple, Value,
};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A relation: schema, key declarations, statistics — and its rows,
/// held as one [`ColumnVec`] per schema column. The columns *are* the
/// table: scans read them and patches edit them in place, and a
/// [`Tuple`] exists only where a row is handed in or out. A column is
/// the typed vector of its declared type (strings as codes into its own
/// dictionary). Every row that enters — built, appended, updated,
/// decoded from a snapshot or the WAL — is conformed to the schema
/// first (`conform`): an `Int` written to a FLOAT column is stored as
/// the `Float` it widens to, and any other mismatch is refused.
///
/// Tables are built via [`TableBuilder`] (which validates arity, types
/// and key uniqueness, then computes exact statistics) and shared behind
/// `Arc`. Readers hold the `Arc` and see the rows it had when they took
/// it: the catalog's mutators edit a table through `Arc::make_mut` — in
/// place when no reader holds it, on a private copy of the columns when
/// one does — one [`RowPatch`] at a time, and every patch leaves rows,
/// key index and statistics consistent with each other (see
/// [`crate::stats`] for what "consistent" means for histograms).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    /// One per schema field, each `len` long.
    cols: Vec<ColumnVec>,
    len: usize,
    primary_key: Option<PrimaryKey>,
    foreign_keys: Vec<ForeignKey>,
    stats: TableStats,
    /// Rows changed by patches since `stats` were last computed from the
    /// columns.
    stats_lag: u64,
    /// One cell per column: its histogram, built by the first read
    /// ([`Table::histogram`]) and emptied whenever `stats` are computed
    /// again.
    histograms: Vec<OnceLock<Option<Histogram>>>,
    /// Primary-key value → an upper bound on its row's position (exact
    /// when written; deletions only ever move rows towards the front).
    /// Built by the first patch of a table with a primary key and
    /// carried forward, so that key uniqueness is never checked against
    /// the rows again; a table that is only ever read never allocates it.
    keys: Option<HashMap<Tuple, usize>>,
}

/// A positional edit of a table's row vector. Positions refer to the
/// rows *before* the patch; `updates` and `deletes` are each strictly
/// increasing and share no position. Replacements happen in place, the
/// deleted rows are then removed (later rows keep their order), and
/// `inserts` are appended.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowPatch {
    /// `(position, replacement row)`.
    pub updates: Vec<(usize, Tuple)>,
    pub deletes: Vec<usize>,
    pub inserts: Vec<Tuple>,
}

impl RowPatch {
    /// Number of rows the patch changes.
    pub fn len(&self) -> usize {
        self.updates.len() + self.deletes.len() + self.inserts.len()
    }

    /// True when the patch changes nothing.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

/// The rows a [`RowPatch`] displaced, in position order.
#[derive(Debug)]
pub(crate) struct Displaced {
    /// Previous content of each updated position.
    pub(crate) replaced: Vec<Tuple>,
    /// The deleted rows.
    pub(crate) removed: Vec<Tuple>,
}

/// What it takes to take an applied [`RowPatch`] back: where it wrote,
/// what it displaced there, and how many rows it appended. Sized by the
/// patch, not by the table.
#[derive(Debug)]
pub(crate) struct PatchUndo {
    /// Positions the patch replaced (`displaced.replaced[i]` was there).
    updated: Vec<usize>,
    /// Positions the patch deleted (`displaced.removed[i]` was there).
    deleted: Vec<usize>,
    /// Rows the patch appended.
    inserted: usize,
    pub(crate) displaced: Displaced,
    /// The table's statistics and their lag before the patch.
    stats: TableStats,
    stats_lag: u64,
}

impl Table {
    /// Start building a table.
    pub fn builder(name: impl Into<String>, schema: Schema) -> TableBuilder {
        let cols = schema
            .fields()
            .iter()
            .map(|f| ColumnVec::with_type(f.ty))
            .collect();
        TableBuilder {
            name: name.into(),
            schema,
            cols,
            len: 0,
            primary_key: None,
            foreign_keys: Vec::new(),
        }
    }

    /// Start rebuilding a table from its persisted parts. Those name key
    /// columns by ordinal, which a damaged file can put out of range.
    pub(crate) fn restore(
        name: String,
        schema: Schema,
        primary_key: Option<PrimaryKey>,
        foreign_keys: Vec<ForeignKey>,
    ) -> Result<TableBuilder> {
        let declared = primary_key.iter().flat_map(|pk| &pk.cols);
        let referencing = foreign_keys.iter().flat_map(|fk| &fk.cols);
        if let Some(i) = declared.chain(referencing).find(|&&i| i >= schema.len()) {
            return Err(AggViewError::Schema(format!(
                "table `{name}` key references column {i} beyond arity {}",
                schema.len()
            )));
        }
        Ok(TableBuilder {
            primary_key,
            foreign_keys,
            ..Table::builder(name, schema)
        })
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// Every row, materialized in row order, for whoever wants the table
    /// row-wise (reference evaluators, tests); scans read the columns.
    pub fn rows(&self) -> Vec<Tuple> {
        (0..self.len).map(|i| self.row(i)).collect()
    }

    /// Row `i`, materialized.
    pub fn row(&self, i: usize) -> Tuple {
        row_at(&self.cols, i)
    }

    /// Column `p` of every row as one typed vector, in row order — what
    /// a scan filters and gathers from. A string column's dictionary is
    /// the table's: everything gathered from it downstream shares it.
    pub fn column(&self, p: usize) -> &ColumnVec {
        &self.cols[p]
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Sum of [`Tuple::width`] over all rows — what a scan reads.
    pub fn byte_size(&self) -> u64 {
        self.cols.iter().map(ColumnVec::total_bytes).sum()
    }

    /// Declared primary key, if any.
    pub fn primary_key(&self) -> Option<&PrimaryKey> {
        self.primary_key.as_ref()
    }

    /// Declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Statistics of the current rows, kept under the [`crate::stats`]
    /// contract: exact at build time and whenever a patch computes them
    /// again; between those, `rows` and the widths exact, `min`/`max`
    /// bounds that contain every value, `distinct` its last exact count.
    pub fn stats(&self) -> &TableStats {
        &self.stats
    }

    /// The equi-depth histogram of numeric column `col` (`None` for any
    /// other column, and for an empty table). Cut from the column on
    /// first read and kept under the [`crate::stats`] contract.
    pub fn histogram(&self, col: usize) -> Option<&Histogram> {
        let build = || column_histogram(&self.cols[col]);
        self.histograms.get(col)?.get_or_init(build).as_ref()
    }

    /// True if `cols` is a superset of some key of this table — i.e.
    /// values of `cols` functionally determine the row. Used by the
    /// invariant-grouping applicability test and by pull-up's key
    /// machinery.
    pub fn cols_contain_key(&self, cols: &[usize]) -> bool {
        match &self.primary_key {
            Some(pk) => pk.cols.iter().all(|k| cols.contains(k)),
            None => false,
        }
    }

    /// Position of the row whose primary-key columns equal `key`.
    /// Answered from the key index once a patch has built it (walking
    /// back over as many rows as were deleted in front of the row since
    /// its entry was last written), by a scan before that.
    pub fn find_key(&self, key: &Tuple) -> Option<usize> {
        let pk = self.primary_key.as_ref()?;
        if key.arity() != pk.cols.len() {
            return None;
        }
        let is_key = |i: &usize| {
            pk.cols
                .iter()
                .zip(key.values())
                .all(|(&c, k)| self.cols[c].value_at(*i) == *k)
        };
        match &self.keys {
            Some(keys) => {
                let bound = *keys.get(key)?;
                (0..self.len.min(bound + 1)).rev().find(is_key)
            }
            None => (0..self.len).find(is_key),
        }
    }

    /// Check everything that can make `patch` fail — positions, row
    /// arity and types, primary-key uniqueness of the result — without
    /// changing rows, keys or statistics, so that a rejected patch
    /// leaves no trace and an accepted one cannot fail half-way. The
    /// patch's rows are conformed to the schema in place: what is logged
    /// and applied afterwards is what the table stores.
    pub(crate) fn check_patch(&mut self, patch: &mut RowPatch) -> Result<()> {
        let Table {
            name,
            schema,
            cols,
            len,
            primary_key,
            keys,
            ..
        } = self;
        let positions: Vec<usize> = patch.updates.iter().map(|(i, _)| *i).collect();
        check_positions(name, &positions, *len)?;
        check_positions(name, &patch.deletes, *len)?;
        if let Some(i) = positions
            .iter()
            .find(|i| patch.deletes.binary_search(i).is_ok())
        {
            return Err(AggViewError::Catalog(format!(
                "row position {i} of `{name}` is both updated and deleted"
            )));
        }
        let arriving = patch.updates.iter_mut().map(|(_, r)| r);
        for row in arriving.chain(&mut patch.inserts) {
            conform(name, schema, row.values_mut())?;
        }
        let incoming = || patch.updates.iter().map(|(_, r)| r).chain(&patch.inserts);
        let Some(pk) = primary_key else {
            return Ok(());
        };
        let keys = key_index(keys, cols, *len, pk);
        // The result is duplicate-free when every arriving key is new to
        // the patch and either absent from the table or on its way out.
        let outgoing: HashSet<Tuple> = positions
            .iter()
            .chain(&patch.deletes)
            .map(|&i| key_at(cols, pk, i))
            .collect();
        let mut arriving = HashSet::with_capacity(patch.updates.len() + patch.inserts.len());
        for row in incoming() {
            let key = row.project(&pk.cols);
            let held = keys.contains_key(&key) && !outgoing.contains(&key);
            if held || !arriving.insert(key) {
                return Err(duplicate_key(name, row));
            }
        }
        Ok(())
    }

    /// Apply a patch that [`check_patch`](Table::check_patch) accepted:
    /// updates overwrite their cells, deletes close their gaps in one
    /// pass per column, inserts are appended, and the statistics follow
    /// under the [`crate::stats`] contract. Returns what
    /// [`revert_patch`](Table::revert_patch) needs to take it back, the
    /// displaced rows among it.
    pub(crate) fn apply_patch(&mut self, patch: RowPatch) -> Result<PatchUndo> {
        let Table {
            cols,
            len,
            primary_key,
            stats,
            stats_lag,
            histograms,
            keys,
            ..
        } = self;
        let (stats_before, lag_before) = (stats.clone(), *stats_lag);
        let after = (*len - patch.deletes.len() + patch.inserts.len()) as u64;
        *stats_lag += patch.len() as u64;
        let reanalyze = after == 0 || *stats_lag > after / REANALYZE_DIVISOR;
        let mut keyed = primary_key
            .as_ref()
            .map(|pk| (key_index(keys, cols, *len, pk), pk));
        let updated: Vec<usize> = patch.updates.iter().map(|(i, _)| *i).collect();
        let inserted = patch.inserts.len();

        // Everything leaving goes before anything arriving: a patch may
        // hand a key from one row to another.
        let mut leave = |i: &usize| {
            let row = row_at(cols, *i);
            if let Some((keys, pk)) = &mut keyed {
                keys.remove(&row.project(&pk.cols));
            }
            row
        };
        let displaced = Displaced {
            replaced: updated.iter().map(&mut leave).collect(),
            removed: patch.deletes.iter().map(&mut leave).collect(),
        };
        let mut arrive = |row: &Tuple, at: usize| {
            if !reanalyze {
                stats.widen(row);
            }
            if let Some((keys, pk)) = &mut keyed {
                keys.insert(row.project(&pk.cols), at);
            }
        };
        for (i, new) in patch.updates {
            arrive(&new, i);
            for (col, v) in cols.iter_mut().zip(new.into_values()) {
                col.set_value(i, v)?;
            }
        }
        if !patch.deletes.is_empty() {
            for col in cols.iter_mut() {
                col.remove_rows(&patch.deletes);
            }
            *len -= patch.deletes.len();
        }
        for row in patch.inserts {
            arrive(&row, *len);
            push_row(cols, row.into_values())?;
            *len += 1;
        }

        if reanalyze {
            *stats = analyze_columns(cols, *len);
            *stats_lag = 0;
            histograms.fill_with(OnceLock::new);
        } else {
            stats.carry(cols, *len);
        }
        for (col, of) in cols.iter_mut().zip(&mut stats.columns) {
            if let Some(distinct) = trim_dictionary(col, of.distinct) {
                of.distinct = distinct;
            }
        }
        Ok(PatchUndo {
            updated,
            deleted: patch.deletes,
            inserted,
            displaced,
            stats: stats_before,
            stats_lag: lag_before,
        })
    }

    /// Take back the patch `undo` came from — the last one applied, or
    /// the last one not yet taken back. The rows return to what they
    /// were, position by position, and the statistics and their lag to
    /// what they were before it, bit for bit. The key index is dropped
    /// rather than walked backwards (the next patch rebuilds it, as on a
    /// table no patch has touched yet), and the histograms are emptied
    /// (the next read cuts them from the restored columns). The rows
    /// put back are rows the table held, of its columns' types, so
    /// nothing here can be refused.
    pub(crate) fn revert_patch(&mut self, undo: PatchUndo) -> Result<()> {
        let PatchUndo {
            updated,
            deleted,
            inserted,
            displaced,
            stats,
            stats_lag,
        } = undo;
        let kept = self.len - inserted;
        for (p, col) in self.cols.iter_mut().enumerate() {
            if inserted > 0 || !deleted.is_empty() {
                // Copy the surviving runs, reopening each gap with the
                // row that was there; the appended tail is not copied.
                let mut out = col.empty_like();
                let mut from = 0;
                for (&at, row) in deleted.iter().zip(&displaced.removed) {
                    let run = at - out.len();
                    out.append_range(col, from..from + run)?;
                    out.push_value(row.get(p).clone())?;
                    from += run;
                }
                out.append_range(col, from..kept)?;
                *col = out;
            }
            for (&at, row) in updated.iter().zip(&displaced.replaced) {
                col.set_value(at, row.get(p).clone())?;
            }
        }
        self.len = kept + deleted.len();
        self.keys = None;
        self.histograms.fill_with(OnceLock::new);
        (self.stats, self.stats_lag) = (stats, stats_lag);
        // Every string the restored rows hold was held before the patch,
        // when the dictionary was within twice `distinct`: a trim here
        // keeps it so without touching the statistics.
        for (col, of) in self.cols.iter_mut().zip(&self.stats.columns) {
            trim_dictionary(col, of.distinct);
        }
        Ok(())
    }
}

/// A table's dictionaries outlive its patches, so strings that updates
/// and deletes took out of a column stay entered; once the entries pass
/// twice the column's `distinct` the column moves to a fresh dictionary
/// of the strings it references, whose length it returns: the column's
/// exact distinct count. A move re-enters no more strings than the
/// column holds.
fn trim_dictionary(col: &mut ColumnVec, distinct: u64) -> Option<u64> {
    match col {
        ColumnVec::Str(strs) if strs.dict().len() as u64 > 2 * distinct => {
            strs.reintern();
            Some(strs.dict().len() as u64)
        }
        _ => None,
    }
}

/// Row `i` of a table held as `cols`.
fn row_at(cols: &[ColumnVec], i: usize) -> Tuple {
    cols.iter().map(|c| c.value_at(i)).collect()
}

/// The primary-key value of row `i`.
fn key_at(cols: &[ColumnVec], pk: &PrimaryKey, i: usize) -> Tuple {
    pk.cols.iter().map(|&c| cols[c].value_at(i)).collect()
}

/// Append a row that [`conform`] accepted.
fn push_row(cols: &mut [ColumnVec], row: impl IntoIterator<Item = Value>) -> Result<()> {
    cols.iter_mut()
        .zip(row)
        .try_for_each(|(col, v)| col.push_value(v))
}

fn duplicate_key(table: &str, row: &Tuple) -> AggViewError {
    AggViewError::Schema(format!(
        "table `{table}`: duplicate primary key value in row {row}"
    ))
}

/// The key index of a table with primary key `pk`, built from its
/// columns on first use.
fn key_index<'a>(
    slot: &'a mut Option<HashMap<Tuple, usize>>,
    cols: &[ColumnVec],
    len: usize,
    pk: &PrimaryKey,
) -> &'a mut HashMap<Tuple, usize> {
    slot.get_or_insert_with(|| (0..len).map(|i| (key_at(cols, pk, i), i)).collect())
}

/// Positional DML operates on strictly increasing, in-bounds row
/// positions: that is what makes the WAL's positional records replay
/// deterministically.
fn check_positions(name: &str, indices: &[usize], len: usize) -> Result<()> {
    for (k, &i) in indices.iter().enumerate() {
        if i >= len {
            return Err(AggViewError::Catalog(format!(
                "row position {i} out of bounds for `{name}` ({len} rows)"
            )));
        }
        if k > 0 && indices[k - 1] >= i {
            return Err(AggViewError::Catalog(format!(
                "row positions for `{name}` must be strictly increasing"
            )));
        }
    }
    Ok(())
}

/// The one place a value meets its column's type: check one row's
/// arity and column types against a table's schema, widening an `Int`
/// in a FLOAT column to the `Float` it is stored as (exact up to 2^53 in
/// magnitude, rounded beyond, as under SQL `CAST`). Every other
/// mismatch is refused.
fn conform(table: &str, schema: &Schema, row: &mut [Value]) -> Result<()> {
    if row.len() != schema.len() {
        return Err(AggViewError::Schema(format!(
            "table `{table}` expects {} columns, row has {}",
            schema.len(),
            row.len()
        )));
    }
    let mut widen = false;
    for (v, field) in row.iter().zip(schema.fields()) {
        let (expect, got) = (field.ty, v.data_type());
        if expect == DataType::Float && got == DataType::Int {
            widen = true;
        } else if got != expect {
            return Err(AggViewError::Schema(format!(
                "table `{table}` column `{}` expects {expect}, got {got}",
                field.name
            )));
        }
    }
    if widen {
        for (v, field) in row.iter_mut().zip(schema.fields()) {
            if let (Value::Int(x), DataType::Float) = (&*v, field.ty) {
                *v = Value::Float(*x as f64);
            }
        }
    }
    Ok(())
}

impl PartialEq for Table {
    /// The same relation: name, schema, keys, and equal values in every
    /// cell (statistics and column representation follow from those).
    fn eq(&self, other: &Table) -> bool {
        let cells = |(a, b): (&ColumnVec, &ColumnVec)| (0..self.len).all(|i| a.eq_rows(i, b, i));
        self.len == other.len
            && (&self.name, &self.schema) == (&other.name, &other.schema)
            && self.primary_key == other.primary_key
            && self.foreign_keys == other.foreign_keys
            && self.cols.iter().zip(&other.cols).all(cells)
    }
}

impl fmt::Display for Table {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}{} [{} rows]", self.name, self.schema, self.len())
    }
}

/// Builder enforcing table invariants before the table becomes shareable.
#[derive(Debug)]
pub struct TableBuilder {
    name: String,
    schema: Schema,
    cols: Vec<ColumnVec>,
    len: usize,
    primary_key: Option<PrimaryKey>,
    foreign_keys: Vec<ForeignKey>,
}

impl TableBuilder {
    /// Declare the primary key by column names.
    pub fn primary_key(mut self, cols: &[&str]) -> Result<TableBuilder> {
        let idxs = self.resolve_cols(cols)?;
        self.primary_key = Some(PrimaryKey::new(idxs));
        Ok(self)
    }

    /// Declare a foreign key by column names.
    pub fn foreign_key(
        mut self,
        cols: &[&str],
        parent: &str,
        parent_cols: &[usize],
    ) -> Result<TableBuilder> {
        let idxs = self.resolve_cols(cols)?;
        self.foreign_keys
            .push(ForeignKey::new(idxs, parent, parent_cols.to_vec()));
        Ok(self)
    }

    fn resolve_cols(&self, cols: &[&str]) -> Result<Vec<usize>> {
        let mut idxs = Vec::with_capacity(cols.len());
        for c in cols {
            idxs.push(self.schema.resolve(c)?);
        }
        Ok(idxs)
    }

    /// Append a row, validating arity and types.
    pub fn row(mut self, values: Vec<Value>) -> Result<TableBuilder> {
        self.push(Tuple::new(values))?;
        Ok(self)
    }

    /// Append a row (non-consuming form for loops): conformed, then
    /// taken apart into the columns.
    pub fn push(&mut self, row: Tuple) -> Result<()> {
        self.push_values(row.into_values())
    }

    /// [`Self::push`] for a row given as its values — an array, so a
    /// generator allocates no row.
    pub fn push_values(
        &mut self,
        mut row: impl AsMut<[Value]> + IntoIterator<Item = Value>,
    ) -> Result<()> {
        conform(&self.name, &self.schema, row.as_mut())?;
        push_row(&mut self.cols, row)?;
        self.len += 1;
        Ok(())
    }

    /// Validate keys, compute statistics, freeze.
    pub fn build(self) -> Result<Arc<Table>> {
        if let Some(pk) = &self.primary_key {
            if let Some(i) = second_of_a_key(&self.cols, pk, self.len) {
                return Err(duplicate_key(&self.name, &row_at(&self.cols, i)));
            }
        }
        let stats = analyze_columns(&self.cols, self.len);
        Ok(Arc::new(Table {
            name: self.name,
            schema: self.schema,
            histograms: self.cols.iter().map(|_| OnceLock::new()).collect(),
            cols: self.cols,
            len: self.len,
            primary_key: self.primary_key,
            foreign_keys: self.foreign_keys,
            stats,
            stats_lag: 0,
            keys: None,
        }))
    }
}

/// The first row whose primary-key value an earlier row already has.
/// Rows are told apart by their key hash ([`hash_columns`]) in an
/// open-addressed table of row numbers, at most half full and homed by
/// the hash's top bits; equal hashes are confirmed on the key columns.
fn second_of_a_key(cols: &[ColumnVec], pk: &PrimaryKey, len: usize) -> Option<usize> {
    let key_cols = || pk.cols.iter().map(|&c| &cols[c]);
    let mut hashes = Vec::new();
    hash_columns(key_cols(), 0..len, &mut hashes);
    let cells = (len * 2).next_power_of_two().max(2);
    let shift = 64 - cells.trailing_zeros();
    // `row + 1`; 0 = empty.
    let mut seats = vec![0u32; cells];
    for i in 0..len {
        let mut at = (hashes[i] >> shift) as usize;
        while let Some(j) = seats[at].checked_sub(1) {
            let j = j as usize;
            if hashes[j] == hashes[i] && key_cols().all(|c| c.eq_rows(j, c, i)) {
                return Some(i);
            }
            at = (at + 1) & (cells - 1);
        }
        seats[at] = i as u32 + 1;
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::tuple;

    fn dept_schema() -> Schema {
        Schema::of(&[
            ("dno", DataType::Int),
            ("dname", DataType::Str),
            ("budget", DataType::Float),
        ])
    }

    #[test]
    fn build_and_read_back() {
        let t = Table::builder("dept", dept_schema())
            .primary_key(&["dno"])
            .unwrap()
            .row(vec![Value::Int(1), Value::str("eng"), Value::Float(5e5)])
            .unwrap()
            .row(vec![Value::Int(2), Value::str("hr"), Value::Float(2e5)])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(t.len(), 2);
        assert_eq!(t.stats().rows, 2);
        assert_eq!(t.primary_key().unwrap().cols, vec![0]);
        assert_eq!(t.name(), "dept");
    }

    #[test]
    fn arity_mismatch_rejected() {
        let err = Table::builder("dept", dept_schema())
            .row(vec![Value::Int(1)])
            .unwrap_err();
        assert_eq!(err.kind(), "schema");
    }

    #[test]
    fn type_mismatch_rejected_but_int_widens_to_float() {
        let b = Table::builder("dept", dept_schema())
            // budget declared FLOAT, Int(5) accepted via widening
            .row(vec![Value::Int(1), Value::str("x"), Value::Int(5)])
            .unwrap();
        let err = b
            .row(vec![Value::str("no"), Value::str("x"), Value::Float(1.0)])
            .unwrap_err();
        assert!(err.message().contains("dno"));
    }

    #[test]
    fn duplicate_primary_key_rejected_at_build() {
        let err = Table::builder("dept", dept_schema())
            .primary_key(&["dno"])
            .unwrap()
            .row(vec![Value::Int(1), Value::str("a"), Value::Float(1.0)])
            .unwrap()
            .row(vec![Value::Int(1), Value::str("b"), Value::Float(2.0)])
            .unwrap()
            .build()
            .unwrap_err();
        assert!(err.message().contains("duplicate primary key"));
    }

    #[test]
    fn unknown_key_column_rejected() {
        let err = Table::builder("dept", dept_schema())
            .primary_key(&["nope"])
            .unwrap_err();
        assert_eq!(err.kind(), "bind");
    }

    #[test]
    fn cols_contain_key() {
        let t = Table::builder("dept", dept_schema())
            .primary_key(&["dno"])
            .unwrap()
            .row(vec![Value::Int(1), Value::str("a"), Value::Float(1.0)])
            .unwrap()
            .build()
            .unwrap();
        assert!(t.cols_contain_key(&[0]));
        assert!(t.cols_contain_key(&[2, 0]));
        assert!(!t.cols_contain_key(&[1, 2]));
        let nokey = Table::builder("x", dept_schema()).build().unwrap();
        assert!(!nokey.cols_contain_key(&[0, 1, 2]));
    }

    #[test]
    fn push_loop_form() {
        let mut b = Table::builder("d", dept_schema());
        for i in 0..10 {
            b.push(tuple![i as i64, "n", (i * 100) as f64]).unwrap();
        }
        let t = b.build().unwrap();
        assert_eq!(t.len(), 10);
        assert_eq!(t.stats().columns[0].distinct, 10);
    }

    #[test]
    fn foreign_key_declaration() {
        let emp = Schema::of(&[("eno", DataType::Int), ("dno", DataType::Int)]);
        let t = Table::builder("emp", emp)
            .foreign_key(&["dno"], "dept", &[0])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(t.foreign_keys().len(), 1);
        assert_eq!(t.foreign_keys()[0].parent, "dept");
    }

    /// Which columns' histograms are built.
    fn built(t: &Table) -> Vec<bool> {
        t.histograms.iter().map(|h| h.get().is_some()).collect()
    }

    fn bits(h: Option<&Histogram>) -> Option<(u64, Vec<u64>)> {
        h.map(|h| {
            (
                h.lo.to_bits(),
                h.bounds.iter().map(|b| b.to_bits()).collect(),
            )
        })
    }

    /// `Histogram::equi_depth` of column `col` as it is stored now.
    fn cut(t: &Table, col: usize) -> Option<(u64, Vec<u64>)> {
        let views: Vec<f64> = (0..t.len())
            .map(|i| t.column(col).value_at(i).as_f64().unwrap())
            .collect();
        bits(Histogram::equi_depth(views, crate::stats::HISTOGRAM_BUCKETS).as_ref())
    }

    /// Check and apply `patch`, as the catalog does.
    fn patch(t: &mut Table, mut patch: RowPatch) -> PatchUndo {
        t.check_patch(&mut patch).unwrap();
        t.apply_patch(patch).unwrap()
    }

    /// `t(id INT PRIMARY KEY, x FLOAT)` of `n` rows, `x` from `-0.0`
    /// and `NaN` upwards.
    fn numbers(n: i64) -> Table {
        let schema = Schema::of(&[("id", DataType::Int), ("x", DataType::Float)]);
        let mut b = Table::builder("t", schema).primary_key(&["id"]).unwrap();
        for i in 0..n {
            let x = match i % 7 {
                0 => -0.0,
                1 => f64::NAN,
                k => (i * k) as f64 / 8.0,
            };
            b.push(tuple![i * 37 % n, x]).unwrap();
        }
        Arc::try_unwrap(b.build().unwrap()).unwrap()
    }

    #[test]
    fn a_built_table_cuts_each_histogram_from_its_column_on_first_read() {
        let t = Table::builder("dept", dept_schema())
            .row(vec![Value::Int(3), Value::str("eng"), Value::Float(0.0)])
            .unwrap()
            .row(vec![Value::Int(-1), Value::str("hr"), Value::Float(-0.0)])
            .unwrap()
            .row(vec![Value::Int(3), Value::str(""), Value::Float(f64::NAN)])
            .unwrap()
            .build()
            .unwrap();
        assert_eq!(built(&t), [false; 3]);
        assert_eq!(bits(t.histogram(2)), cut(&t, 2));
        assert!(bits(t.histogram(2)).is_some());
        assert_eq!(built(&t), [false, false, true]);
        assert_eq!(bits(t.histogram(0)), cut(&t, 0));
        assert!(t.histogram(1).is_none());
        assert!(t.histogram(3).is_none());
        let bools = Schema::of(&[("b", DataType::Bool)]);
        let b = Table::builder("b", bools).row(vec![Value::Bool(true)]);
        assert!(b.unwrap().build().unwrap().histogram(0).is_none());
        let empty = Table::builder("dept", dept_schema()).build().unwrap();
        assert!((0..3).all(|c| empty.histogram(c).is_none()));
        let t = numbers(500);
        assert_eq!(bits(t.histogram(1)), cut(&t, 1));
        assert_eq!(bits(t.histogram(0)), cut(&t, 0));
    }

    #[test]
    fn a_patched_table_that_is_never_read_builds_no_histogram() {
        let mut t = numbers(300);
        for i in 0..20 {
            let p = RowPatch {
                updates: vec![(i, tuple![t.row(i).get(0).clone(), 1.5])],
                deletes: vec![i + 100],
                inserts: vec![tuple![1000 + i as i64, -3.0]],
            };
            patch(&mut t, p);
        }
        assert!(t.keys.is_some());
        assert_eq!(built(&t), [false, false]);
    }

    #[test]
    fn a_histogram_lives_until_the_patches_pass_a_tenth_of_the_rows() {
        // 1,000 rows: a tenth is 100.
        let mut t = numbers(1000);
        let first = bits(t.histogram(1));
        assert_eq!(first, cut(&t, 1));
        // Debug prints each float so that it reads back to the same bits.
        let stats = |t: &Table| format!("{:?}", t.stats());
        let exact = |t: &Table| format!("{:?}", crate::stats::analyze(t.rows(), 2));
        let update = |t: &Table, at: usize| RowPatch {
            updates: vec![(at, tuple![t.row(at).get(0).clone(), 1e6 + at as f64])],
            ..RowPatch::default()
        };
        for at in 0..100 {
            let p = update(&t, at);
            patch(&mut t, p);
            assert_eq!(built(&t), [false, true], "after {} rows", at + 1);
            assert_eq!(bits(t.histogram(1)), first);
            // The carried range takes the new maximum in at once.
            assert_eq!(t.stats().columns[1].max, Some(1e6 + at as f64));
        }
        assert_ne!(cut(&t, 1), first);
        assert_ne!(stats(&t), exact(&t));
        let before = stats(&t);
        let p = update(&t, 100);
        let undo = patch(&mut t, p);
        assert_eq!(built(&t), [false, false]);
        assert_eq!(stats(&t), exact(&t));
        assert_eq!(bits(t.histogram(1)), cut(&t, 1));
        // Taken back, the patch leaves the statistics as they were before
        // it, and the histograms to be cut from the restored column.
        t.revert_patch(undo).unwrap();
        assert_eq!(built(&t), [false, false]);
        assert!(t.keys.is_none());
        assert_eq!(stats(&t), before);
        assert_eq!(t.stats_lag, 100);
        assert_eq!(bits(t.histogram(1)), cut(&t, 1));
        assert_eq!(t.len(), 1000);
        // Applied again it recomputes them, and the next patch carries
        // them and the histogram it finds.
        let p = update(&t, 100);
        patch(&mut t, p);
        assert_eq!((t.stats_lag, built(&t)), (0, vec![false, false]));
        let now = bits(t.histogram(1));
        let p = update(&t, 101);
        patch(&mut t, p);
        assert_eq!((t.stats_lag, built(&t)), (1, vec![false, true]));
        assert_eq!(bits(t.histogram(1)), now);
    }

    #[test]
    fn display_summarizes() {
        let t = Table::builder("dept", dept_schema()).build().unwrap();
        assert!(t.to_string().contains("dept"));
        assert!(t.to_string().contains("0 rows"));
        assert!(t.is_empty());
    }
}
