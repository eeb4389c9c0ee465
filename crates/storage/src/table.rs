//! In-memory tables: built in bulk, then edited copy-on-write.

use crate::keys::{ForeignKey, PrimaryKey};
use crate::stats::{analyze_sized, StatsSummary, TableStats};
use aggview_common::{AggViewError, ColumnVec, DataType, Result, Schema, Tuple, Value};
use std::collections::{HashMap, HashSet};
use std::fmt;
use std::sync::{Arc, OnceLock};

/// A relation: schema, rows, key declarations, statistics — and, derived
/// from the rows on demand, the column image scans read
/// ([`Table::column`]).
///
/// Tables are built via [`TableBuilder`] (which validates arity, types
/// and key uniqueness, then computes exact statistics) and shared behind
/// `Arc`. Readers hold the `Arc` and see the rows it had when they took
/// it: the catalog's mutators edit a table through `Arc::make_mut` — in
/// place when no reader holds it, on a private copy when one does — one
/// [`RowPatch`] at a time, and every patch leaves rows, key index and
/// statistics consistent with each other (see [`crate::stats`] for what
/// "consistent" means for histograms).
#[derive(Debug, Clone)]
pub struct Table {
    name: String,
    schema: Schema,
    rows: Vec<Tuple>,
    primary_key: Option<PrimaryKey>,
    foreign_keys: Vec<ForeignKey>,
    stats: TableStats,
    /// Sum of [`Tuple::width`] over `rows`.
    bytes: u64,
    /// Built by the first patch and carried forward; a table that is
    /// only ever read never allocates it.
    live: Option<Box<Live>>,
    image: Image,
}

/// The typed column-major image of a table's rows that scans read: one
/// slot per column, filled by the first [`Table::column`] call that asks
/// for it, so a column no scan touches costs nothing. The rows stay the
/// source of truth — the image is derived from them, never persisted,
/// and [`Table::apply_patch`] empties it.
#[derive(Debug)]
struct Image(Vec<OnceLock<ColumnVec>>);

impl Image {
    fn empty(ncols: usize) -> Image {
        Image((0..ncols).map(|_| OnceLock::new()).collect())
    }
}

impl Clone for Image {
    /// A table is cloned by `Arc::make_mut`, for a patch that would drop
    /// the image anyway: the clone starts without one.
    fn clone(&self) -> Image {
        Image::empty(self.0.len())
    }
}

/// What a table under DML carries from one patch to the next, so that
/// neither key uniqueness nor statistics are recomputed from the rows.
#[derive(Debug, Clone)]
struct Live {
    /// Primary-key value → an upper bound on its row's position (exact
    /// when written; deletions only ever move rows towards the front).
    /// `None` for a table without a primary key.
    keys: Option<HashMap<Tuple, usize>>,
    summary: StatsSummary,
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
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Displaced {
    /// Previous content of each updated position.
    pub replaced: Vec<Tuple>,
    /// The deleted rows.
    pub removed: Vec<Tuple>,
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
}

impl Table {
    /// Start building a table.
    pub fn builder(name: impl Into<String>, schema: Schema) -> TableBuilder {
        TableBuilder {
            name: name.into(),
            schema,
            rows: Vec::new(),
            primary_key: None,
            foreign_keys: Vec::new(),
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The schema.
    pub fn schema(&self) -> &Schema {
        &self.schema
    }

    /// All rows.
    pub fn rows(&self) -> &[Tuple] {
        &self.rows
    }

    /// Column `p` of [`rows`](Table::rows) as one typed vector, in row
    /// order — what a scan filters and gathers from. Transposed from the
    /// rows on first use and kept until the next patch; a string column
    /// is interned into a dictionary of its own here, once per table
    /// version, and everything gathered from it downstream shares that
    /// dictionary.
    pub fn column(&self, p: usize) -> &ColumnVec {
        self.image.0[p]
            .get_or_init(|| ColumnVec::from_tuples_col(&self.rows, p, self.schema.field(p).ty))
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.rows.len()
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Sum of [`Tuple::width`] over all rows — what a scan reads.
    pub fn byte_size(&self) -> u64 {
        self.bytes
    }

    /// Declared primary key, if any.
    pub fn primary_key(&self) -> Option<&PrimaryKey> {
        self.primary_key.as_ref()
    }

    /// Declared foreign keys.
    pub fn foreign_keys(&self) -> &[ForeignKey] {
        &self.foreign_keys
    }

    /// Statistics of the current rows: exact at build time, kept under
    /// the [`crate::stats`] contract by every patch.
    pub fn stats(&self) -> &TableStats {
        &self.stats
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
        let is_key = |row: &Tuple| {
            pk.cols
                .iter()
                .zip(key.values())
                .all(|(&c, k)| row.get(c) == k)
        };
        match self.live.as_ref().and_then(|l| l.keys.as_ref()) {
            Some(keys) => {
                let bound = *keys.get(key)?;
                let end = self.rows.len().min(bound + 1);
                self.rows[..end].iter().rposition(is_key)
            }
            None => self.rows.iter().position(is_key),
        }
    }

    /// Check everything that can make `patch` fail — positions, row
    /// arity and types, primary-key uniqueness of the result — without
    /// changing rows, keys or statistics, so that a rejected patch
    /// leaves no trace and an accepted one cannot fail half-way.
    pub(crate) fn check_patch(&mut self, patch: &RowPatch) -> Result<()> {
        let Table {
            name,
            schema,
            rows,
            primary_key,
            live,
            ..
        } = self;
        let positions: Vec<usize> = patch.updates.iter().map(|(i, _)| *i).collect();
        check_positions(name, &positions, rows.len())?;
        check_positions(name, &patch.deletes, rows.len())?;
        if let Some(i) = positions
            .iter()
            .find(|i| patch.deletes.binary_search(i).is_ok())
        {
            return Err(AggViewError::Catalog(format!(
                "row position {i} of `{name}` is both updated and deleted"
            )));
        }
        let incoming = || patch.updates.iter().map(|(_, r)| r).chain(&patch.inserts);
        for row in incoming() {
            check_row(name, schema, row)?;
        }
        let live = Live::of(live, rows, primary_key.as_ref(), schema.len());
        let (Some(pk), Some(keys)) = (primary_key, &live.keys) else {
            return Ok(());
        };
        // The result is duplicate-free when every arriving key is new to
        // the patch and either absent from the table or on its way out.
        let outgoing: HashSet<Tuple> = positions
            .iter()
            .chain(&patch.deletes)
            .map(|&i| rows[i].project(&pk.cols))
            .collect();
        let mut arriving = HashSet::with_capacity(patch.updates.len() + patch.inserts.len());
        for row in incoming() {
            let key = row.project(&pk.cols);
            let held = keys.contains_key(&key) && !outgoing.contains(&key);
            if held || !arriving.insert(key) {
                return Err(AggViewError::Schema(format!(
                    "table `{name}`: duplicate primary key value in row {row}"
                )));
            }
        }
        Ok(())
    }

    /// Apply a patch that [`check_patch`](Table::check_patch) accepted.
    /// Returns what [`revert_patch`](Table::revert_patch) needs to take
    /// it back, the displaced rows among it.
    pub(crate) fn apply_patch(&mut self, patch: RowPatch) -> PatchUndo {
        let Table {
            schema,
            rows,
            primary_key,
            stats,
            bytes,
            live,
            image,
            ..
        } = self;
        for col in &mut image.0 {
            col.take();
        }
        let changed = patch.len() as u64;
        let Live { keys, summary } = Live::of(live, rows, primary_key.as_ref(), schema.len());
        // Both are `Some` or both `None`: a key index exists iff a key does.
        let mut keyed = keys.as_mut().zip(primary_key.as_ref());
        let mut out = Displaced::default();
        let updated = patch.updates.iter().map(|(i, _)| *i).collect();
        let inserted = patch.inserts.len();

        // Everything leaving goes before anything arriving: a patch may
        // hand a key from one row to another.
        for &i in patch.updates.iter().map(|(i, _)| i).chain(&patch.deletes) {
            summary.remove(&rows[i]);
            if let Some((keys, pk)) = &mut keyed {
                keys.remove(&rows[i].project(&pk.cols));
            }
        }
        for (i, new) in patch.updates {
            summary.add(&new);
            if let Some((keys, pk)) = &mut keyed {
                keys.insert(new.project(&pk.cols), i);
            }
            out.replaced.push(std::mem::replace(&mut rows[i], new));
        }
        for &i in &patch.deletes {
            out.removed.push(std::mem::take(&mut rows[i]));
        }
        if let Some(&first) = patch.deletes.first() {
            // Close the gaps, keeping the survivors' order.
            let mut doomed = patch.deletes.iter().copied().peekable();
            let mut to = first;
            for from in first..rows.len() {
                if doomed.next_if_eq(&from).is_none() {
                    rows.swap(to, from);
                    to += 1;
                }
            }
            rows.truncate(to);
        }

        for row in patch.inserts {
            summary.add(&row);
            if let Some((keys, pk)) = &mut keyed {
                keys.insert(row.project(&pk.cols), rows.len());
            }
            rows.push(row);
        }

        summary.refresh(stats, changed);
        *bytes = summary.bytes();
        PatchUndo {
            updated,
            deleted: patch.deletes,
            inserted,
            displaced: out,
        }
    }

    /// Take back the patch `undo` came from — the last one applied, or
    /// the last one not yet taken back. The rows return to what they
    /// were, position by position. What the table carried from patch to
    /// patch (key index, statistics summary) is dropped rather than
    /// walked backwards: the statistics are re-derived from the rows
    /// here, the key index by the next patch — exactly as on a table no
    /// patch has touched yet.
    pub(crate) fn revert_patch(&mut self, undo: PatchUndo) {
        let PatchUndo {
            updated,
            deleted,
            inserted,
            displaced,
        } = undo;
        let rows = &mut self.rows;
        rows.truncate(rows.len() - inserted);
        // Reopen the gaps from the back: `dst - src` deleted rows are
        // still to be placed at or before `dst`.
        let mut src = rows.len();
        let mut dst = src + deleted.len();
        rows.resize_with(dst, Tuple::default);
        for (&at, row) in deleted.iter().zip(displaced.removed).rev() {
            while dst - 1 > at {
                dst -= 1;
                src -= 1;
                rows.swap(dst, src);
            }
            dst -= 1;
            rows[dst] = row;
        }
        for (at, row) in updated.into_iter().zip(displaced.replaced) {
            rows[at] = row;
        }
        self.live = None;
        self.image = Image::empty(self.schema.len());
        (self.stats, self.bytes) = analyze_sized(&self.rows, self.schema.len());
    }
}

impl Live {
    /// The table's carried state, built from its rows on first use.
    fn of<'a>(
        slot: &'a mut Option<Box<Live>>,
        rows: &[Tuple],
        pk: Option<&PrimaryKey>,
        ncols: usize,
    ) -> &'a mut Live {
        slot.get_or_insert_with(|| {
            Box::new(Live {
                keys: pk.map(|pk| {
                    rows.iter()
                        .enumerate()
                        .map(|(i, r)| (r.project(&pk.cols), i))
                        .collect()
                }),
                summary: StatsSummary::of(rows, ncols),
            })
        })
    }
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

/// Arity and column types of one row against a table's schema.
fn check_row(table: &str, schema: &Schema, row: &Tuple) -> Result<()> {
    if row.arity() != schema.len() {
        return Err(AggViewError::Schema(format!(
            "table `{table}` expects {} columns, row has {}",
            schema.len(),
            row.arity()
        )));
    }
    for (i, v) in row.values().iter().enumerate() {
        let expect = schema.field(i).ty;
        let got = v.data_type();
        // Int is acceptable where Float is declared (numeric widening).
        let ok = got == expect || (expect == DataType::Float && got == DataType::Int);
        if !ok {
            return Err(AggViewError::Schema(format!(
                "table `{table}` column `{}` expects {expect}, got {got}",
                schema.field(i).name
            )));
        }
    }
    Ok(())
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
    rows: Vec<Tuple>,
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

    /// Append a row (non-consuming form for loops).
    pub fn push(&mut self, row: Tuple) -> Result<()> {
        check_row(&self.name, &self.schema, &row)?;
        self.rows.push(row);
        Ok(())
    }

    /// Validate keys, compute statistics, freeze.
    pub fn build(self) -> Result<Arc<Table>> {
        if let Some(pk) = &self.primary_key {
            let mut seen: HashSet<Tuple> = HashSet::with_capacity(self.rows.len());
            for row in &self.rows {
                let key = row.project(&pk.cols);
                if !seen.insert(key) {
                    return Err(AggViewError::Schema(format!(
                        "table `{}`: duplicate primary key value in row {}",
                        self.name, row
                    )));
                }
            }
        }
        let ncols = self.schema.len();
        let (stats, bytes) = analyze_sized(&self.rows, ncols);
        Ok(Arc::new(Table {
            name: self.name,
            schema: self.schema,
            rows: self.rows,
            primary_key: self.primary_key,
            foreign_keys: self.foreign_keys,
            stats,
            bytes,
            live: None,
            image: Image::empty(ncols),
        }))
    }
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

    #[test]
    fn display_summarizes() {
        let t = Table::builder("dept", dept_schema()).build().unwrap();
        assert!(t.to_string().contains("dept"));
        assert!(t.to_string().contains("0 rows"));
        assert!(t.is_empty());
    }
}
