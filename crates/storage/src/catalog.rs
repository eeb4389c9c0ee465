//! The table catalog, with optional crash-consistent durability.
//!
//! A catalog built with [`Catalog::new`] is purely in-memory: mutations
//! touch no files. A catalog built with [`Catalog::open`] is *durable*:
//! every statement's mutations are written to a checksummed log
//! ([`crate::wal`]) — one frame, one fsync — before the statement
//! returns, and [`Catalog::checkpoint`] folds the log into an atomic
//! snapshot ([`crate::snapshot`]). Reopening the same directory
//! recovers by loading the latest valid snapshot and replaying the
//! committed log suffix — restoring tables, per-table version counters,
//! and materialized-view metadata exactly as they were at the last
//! committed statement.
//!
//! ## Statements
//!
//! [`Catalog::statement`] is the one unit of commit. Inside it every
//! mutator keeps its *validate → log → apply* order, where "log" appends
//! the mutation's record to the statement's frame and "apply" also
//! notes how to take the mutation back. A statement whose body returns
//! `Ok` writes its frame and fsyncs once; it is **committed iff that
//! fsync returned**. A statement whose body returns `Err`, or whose
//! write or fsync fails, takes back what it applied, newest first, and
//! is absent from memory and disk alike. A mutator called outside any
//! statement is a statement of one.
//!
//! Statements take turns (as do checkpoints): the in-memory locks are
//! held per mutator, the turn from the first mutation to the commit, so
//! log order equals application order. A reader on another thread can
//! see a statement's changes before it commits; it cannot see half a
//! mutation.
//!
//! Recovery invariants (exercised by the crash-point harness in
//! `tests/durability_recovery.rs`):
//!
//! * **recovered == committed**: a statement that returned `Ok` is
//!   present after recovery, with every mutation it made; one that
//!   returned `Err` is absent.
//! * **idempotent replay**: recovering twice (or recovering a recovered
//!   directory) yields the identical catalog.
//! * **staleness across crashes**: a materialized view may come back
//!   *stale* (its extent or bases could not be re-verified — it is
//!   quarantined), but never fresher than its bases.
//!
//! Lock ordering is `turn → tables → versions → matviews → open → wal`,
//! acquired strictly in that order (skipping is fine, back-acquisition
//! is not).

use crate::matview::MatViewMeta;
use crate::snapshot::Snapshot;
use crate::table::{Displaced, PatchUndo, RowPatch, Table};
use crate::wal::{Frame, FrameMark, WalContents, WalReader, WalRecord, WalWriter};
use aggview_common::{AggViewError, FaultInjector, NoFaults, Result, Tuple};
use parking_lot::{Mutex, RwLock};
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::thread::ThreadId;

/// WAL file name within a durable catalog directory.
pub const WAL_FILE: &str = "wal.agv";

/// Per-table modification bookkeeping.
///
/// `data` increments on every registration or data change; `stats` records
/// the data version the table's statistics are kept under the
/// [`crate::stats`] contract for: exact row count and widths, `min`/`max`
/// bounds that contain every value, estimates no more than a tenth of
/// the rows stale. The two stay equal under every mutator of this module
/// (registration analyzes the rows, a row patch carries the statistics
/// forward with them); only [`Catalog::mark_modified`] moves `data`
/// alone. `stats != data` therefore flags statistics that went stale
/// silently — the cost model debug-asserts on it via
/// [`Catalog::stats_fresh`], and the dataflow analysis then seeds no
/// bounds from them.
#[derive(Debug, Clone, Copy, Default)]
struct TableVersions {
    data: u64,
    stats: u64,
}

/// The durable half of a catalog: where it lives, its open WAL, and the
/// fault injector consulted at IO sites.
#[derive(Debug)]
struct Durable {
    dir: PathBuf,
    wal: Mutex<WalWriter>,
    faults: RwLock<Arc<dyn FaultInjector>>,
}

/// How to take one applied mutation back. Each holds what the mutation
/// displaced, so a statement's undo log is the size of its changes.
#[derive(Debug)]
enum Undo {
    /// A table was registered or replaced; `prev` held the name before.
    Table {
        key: String,
        prev: Option<Arc<Table>>,
    },
    /// A row patch was applied to the table.
    Rows { key: String, patch: PatchUndo },
    /// A table's version entry moved on from `prev`.
    Versions {
        key: String,
        prev: Option<TableVersions>,
    },
    /// A view's metadata was registered or replaced.
    MatView {
        key: String,
        prev: Option<MatViewMeta>,
    },
    /// A view's base-version stamp moved on from `prev`.
    Stamp { key: String, prev: Vec<u64> },
}

/// The statement in progress, if any: who runs it, the records of the
/// mutations it made so far (durable catalogs only) and how to take
/// them back.
#[derive(Debug, Default)]
struct OpenStatement {
    /// The thread whose mutators belong to the statement.
    owner: Option<ThreadId>,
    frame: Option<Frame>,
    undo: Vec<Undo>,
}

/// A point inside an open statement to roll back to.
#[derive(Debug, Clone, Copy, Default)]
struct Savepoint {
    undo: usize,
    frame: FrameMark,
}

impl OpenStatement {
    fn savepoint(&self) -> Savepoint {
        Savepoint {
            undo: self.undo.len(),
            frame: self.frame.as_ref().map(Frame::mark).unwrap_or_default(),
        }
    }

    /// Append a mutation's record to the frame; in memory, nothing.
    fn log(&mut self, record: impl FnOnce(&mut Frame)) {
        if let Some(frame) = &mut self.frame {
            record(frame);
        }
    }

    /// Move `key`'s data version on by one. Registration and row
    /// patches leave the table's statistics describing its new rows
    /// (`stats_follow`); a modification mark does not.
    fn bump(&mut self, vers: &mut BTreeMap<String, TableVersions>, key: &str, stats_follow: bool) {
        let prev = vers.get(key).copied();
        let mut v = prev.unwrap_or_default();
        v.data += 1;
        if stats_follow {
            v.stats = v.data;
        }
        match vers.get_mut(key) {
            Some(entry) => *entry = v,
            None => drop(vers.insert(key.to_string(), v)),
        }
        self.undo.push(Undo::Versions {
            key: key.to_string(),
            prev,
        });
    }

    /// Apply a patch its table has checked, bump the table's version
    /// and note how to take both back. Returns what `keep` copies out of
    /// the displaced rows; the undo log keeps them.
    fn patch<T>(
        &mut self,
        table: &mut Table,
        patch: RowPatch,
        vers: &mut BTreeMap<String, TableVersions>,
        key: String,
        keep: impl FnOnce(&Displaced) -> T,
    ) -> Result<T> {
        let undo = table.apply_patch(patch)?;
        let kept = keep(&undo.displaced);
        self.bump(vers, &key, true);
        self.undo.push(Undo::Rows { key, patch: undo });
        Ok(kept)
    }
}

/// Ends a statement's turn however its body ends: takes back what is
/// not committed and hands the catalog to the next statement.
struct Turn<'a>(&'a Catalog);

impl Drop for Turn<'_> {
    fn drop(&mut self) {
        let open = std::mem::take(&mut *self.0.open.lock());
        self.0.take_back(open.undo);
    }
}

/// A concurrent name → table registry.
///
/// Names are case-insensitive (normalized to lowercase), matching SQL
/// identifier behaviour. Lookups hand out `Arc<Table>` so executors and
/// optimizers can hold tables without locking.
///
/// Beyond plain tables the catalog also tracks per-table modification
/// counters (the staleness basis for statistics and materialized views)
/// and the registry of [`MatViewMeta`] entries describing materialized
/// aggregate-view extents. See the module docs for statements and the
/// optional durability layer.
#[derive(Debug, Default)]
pub struct Catalog {
    tables: RwLock<BTreeMap<String, Arc<Table>>>,
    versions: RwLock<BTreeMap<String, TableVersions>>,
    matviews: RwLock<BTreeMap<String, MatViewMeta>>,
    /// Held from a statement's first mutation to its commit or
    /// rollback, and across a checkpoint.
    turn: Mutex<()>,
    open: Mutex<OpenStatement>,
    durable: Option<Durable>,
}

/// The map key of a case-insensitive name: the name itself unless it
/// holds an ASCII uppercase letter, so a lookup by an already lowercase
/// name allocates nothing.
fn key_of(name: &str) -> Cow<'_, str> {
    if name.bytes().any(|b| b.is_ascii_uppercase()) {
        Cow::Owned(name.to_ascii_lowercase())
    } else {
        Cow::Borrowed(name)
    }
}

fn unknown_table(name: &str) -> AggViewError {
    AggViewError::Catalog(format!("unknown table `{name}`"))
}

impl Catalog {
    /// A purely in-memory catalog: no directory, no WAL, zero IO.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Open (or create) a durable catalog rooted at `dir`, recovering
    /// any previously committed state.
    pub fn open(dir: impl AsRef<Path>) -> Result<Catalog> {
        Catalog::open_with_faults(dir, Arc::new(NoFaults))
    }

    /// [`Catalog::open`] with a fault injector consulted at every
    /// durability IO site (`wal.append`, `snapshot.rename`, ...).
    /// Recovery itself reads without injection — the injector shapes
    /// *future* writes.
    pub fn open_with_faults(
        dir: impl AsRef<Path>,
        faults: Arc<dyn FaultInjector>,
    ) -> Result<Catalog> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)
            .map_err(|e| AggViewError::Io(format!("create catalog directory: {e}")))?;
        let snap = Snapshot::read(&dir)?.unwrap_or_default();
        // Not durable until the struct below: replay goes through the
        // public mutators and logs nothing.
        let cat = Catalog::new();
        {
            let mut tables = cat.tables.write();
            for t in &snap.tables {
                tables.insert(t.name().to_ascii_lowercase(), Arc::clone(t));
            }
            let mut vers = cat.versions.write();
            for (name, data, stats) in &snap.versions {
                vers.insert(
                    name.clone(),
                    TableVersions {
                        data: *data,
                        stats: *stats,
                    },
                );
            }
            let mut mvs = cat.matviews.write();
            for m in &snap.matviews {
                mvs.insert(m.def.name.to_ascii_lowercase(), m.clone());
            }
        }
        let wal_path = dir.join(WAL_FILE);
        let contents = WalReader::read_committed(&wal_path)?;
        cat.replay(&snap, &contents)?;
        cat.reverify_matviews();
        let min_next_lsn = if snap.any_covered {
            snap.last_lsn + 1
        } else {
            0
        };
        let wal = WalWriter::open(&wal_path, &contents, min_next_lsn)?;
        Ok(Catalog {
            durable: Some(Durable {
                dir,
                wal: Mutex::new(wal),
                faults: RwLock::new(faults),
            }),
            ..cat
        })
    }

    fn replay(&self, snap: &Snapshot, contents: &WalContents) -> Result<()> {
        for (i, (lsn, rec)) in contents.records.iter().enumerate() {
            if snap.covers(*lsn) {
                // The snapshot already reflects this frame — the crash
                // landed between its rename and the WAL reset.
                continue;
            }
            self.apply(rec).map_err(|e| {
                // A committed record that cannot re-apply means log and
                // state disagree — corruption, not a user error.
                let offset = if i == 0 {
                    crate::wal::WAL_MAGIC.len() as u64
                } else {
                    contents.frame_ends[i - 1]
                };
                AggViewError::Corrupt {
                    offset,
                    record: i as u64,
                    message: format!("WAL replay failed: {}", e.message()),
                }
            })?;
        }
        Ok(())
    }

    /// Replay one WAL record through the mutator that logged it, so
    /// recovery reproduces the same tables, statistics, and version
    /// counters (on a catalog that is not durable yet, see
    /// [`Catalog::open_with_faults`]).
    fn apply(&self, rec: &WalRecord) -> Result<()> {
        match rec {
            WalRecord::PutTable { table, replace } => self.put_table(Arc::clone(table), *replace),
            WalRecord::InsertBatch { table, rows } => {
                self.append_rows(table, rows.clone()).map(drop)
            }
            WalRecord::MarkModified { table } => self.mark_modified(table),
            WalRecord::PutMatView { meta } => self.update_matview(meta.clone()),
            WalRecord::DeleteBatch { table, indices } => self.delete_rows(table, indices).map(drop),
            WalRecord::UpdateBatch { table, updates } => {
                self.replace_rows(table, updates.clone()).map(drop)
            }
            WalRecord::PatchExtent {
                view,
                patch,
                base_versions,
            } => self.patch_extent(view, patch.clone(), base_versions.clone()),
            WalRecord::Statement(members) => {
                self.statement(|| members.iter().try_for_each(|m| self.apply(m)))
            }
        }
    }

    // ---- statements ------------------------------------------------

    /// Run `body` as one statement: every mutation it makes on this
    /// thread commits together — one WAL frame, one fsync — when it
    /// returns `Ok`, and none of them happened when it returns `Err` or
    /// the commit fails (the error is returned; rows, versions, view
    /// metadata and stamps are as before, in memory and on disk).
    ///
    /// Statements take turns: a second thread's statement (a lone
    /// mutator is one too) and [`Catalog::checkpoint`] wait for this
    /// one to end. A statement opened *inside* one, on the same thread,
    /// joins it as a savepoint: its failure takes back its own
    /// mutations and leaves the outer statement to its caller.
    pub fn statement<T>(&self, body: impl FnOnce() -> Result<T>) -> Result<T> {
        let me = std::thread::current().id();
        let joined = {
            let open = self.open.lock();
            (open.owner == Some(me)).then(|| open.savepoint())
        };
        if let Some(savepoint) = joined {
            let out = body();
            if out.is_err() {
                self.roll_back_to(savepoint);
            }
            return out;
        }
        let _turn = self.turn.lock();
        *self.open.lock() = OpenStatement {
            owner: Some(me),
            frame: self.durable.as_ref().map(|_| Frame::new()),
            undo: Vec::new(),
        };
        let _end = Turn(self);
        let out = body()?;
        self.commit()?;
        Ok(out)
    }

    /// Make the open statement durable — the single write and fsync —
    /// after which nothing of it can be taken back.
    fn commit(&self) -> Result<()> {
        let frame = self.open.lock().frame.take();
        if let (Some(d), Some(mut frame)) = (&self.durable, frame) {
            if !frame.is_empty() {
                let faults = d.faults.read().clone();
                d.wal.lock().commit(&mut frame, faults.as_ref())?;
            }
        }
        self.open.lock().undo.clear();
        Ok(())
    }

    /// Take back every mutation the open statement made since
    /// `savepoint`, and drop their records from its frame.
    fn roll_back_to(&self, savepoint: Savepoint) {
        let undo = {
            let mut open = self.open.lock();
            if let Some(frame) = &mut open.frame {
                frame.truncate(savepoint.frame);
            }
            open.undo.split_off(savepoint.undo)
        };
        self.take_back(undo);
    }

    /// Undo applied mutations, newest first.
    fn take_back(&self, undo: Vec<Undo>) {
        if undo.is_empty() {
            return;
        }
        let mut tables = self.tables.write();
        let mut vers = self.versions.write();
        let mut mvs = self.matviews.write();
        for step in undo.into_iter().rev() {
            match step {
                Undo::Table { key, prev } => {
                    match prev {
                        Some(t) => tables.insert(key, t),
                        None => tables.remove(&key),
                    };
                }
                Undo::Rows { key, patch } => {
                    if let Some(slot) = tables.get_mut(&key) {
                        // Puts back rows the table held: its columns take
                        // them, so there is no error to report.
                        let _ = Arc::make_mut(slot).revert_patch(patch);
                    }
                }
                Undo::Versions { key, prev } => {
                    match prev {
                        Some(v) => vers.insert(key, v),
                        None => vers.remove(&key),
                    };
                }
                Undo::MatView { key, prev } => {
                    match prev {
                        Some(m) => mvs.insert(key, m),
                        None => mvs.remove(&key),
                    };
                }
                Undo::Stamp { key, prev } => {
                    if let Some(meta) = mvs.get_mut(&key) {
                        meta.base_versions = prev;
                    }
                }
            }
        }
    }

    /// True when this catalog persists its mutations.
    pub fn is_durable(&self) -> bool {
        self.durable.is_some()
    }

    /// The durable directory, if any.
    pub fn dir(&self) -> Option<&Path> {
        self.durable.as_ref().map(|d| d.dir.as_path())
    }

    /// Swap the fault injector consulted at durability IO sites.
    /// Returns `false` (and does nothing) on an in-memory catalog.
    pub fn set_io_faults(&self, faults: Arc<dyn FaultInjector>) -> bool {
        match &self.durable {
            Some(d) => {
                *d.faults.write() = faults;
                true
            }
            None => false,
        }
    }

    /// Register a table; rejects duplicates.
    pub fn add(&self, table: Arc<Table>) -> Result<()> {
        self.put_table(table, false)
    }

    /// Register a table, replacing any existing one with the same name.
    ///
    /// On an in-memory catalog this cannot fail; on a durable one the
    /// commit can, in which case the in-memory state is as before (the
    /// mutation did not commit).
    pub fn add_or_replace(&self, table: Arc<Table>) -> Result<()> {
        self.put_table(table, true)
    }

    fn put_table(&self, table: Arc<Table>, replace: bool) -> Result<()> {
        self.statement(|| {
            let key = table.name().to_ascii_lowercase();
            let mut map = self.tables.write();
            if !replace && map.contains_key(&key) {
                return Err(AggViewError::Catalog(format!(
                    "table `{}` already exists",
                    table.name()
                )));
            }
            let mut vers = self.versions.write();
            let mut open = self.open.lock();
            open.log(|f| f.put_table(&table, replace));
            let prev = map.insert(key.clone(), table);
            open.bump(&mut vers, &key, true);
            open.undo.push(Undo::Table { key, prev });
            Ok(())
        })
    }

    /// Look up a table by name.
    pub fn get(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(&*key_of(name))
            .cloned()
            .ok_or_else(|| unknown_table(name))
    }

    /// True if a table with this name exists.
    pub fn contains(&self, name: &str) -> bool {
        self.tables.read().contains_key(&*key_of(name))
    }

    /// Names of all registered tables, sorted.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.read().len()
    }

    /// True when no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.read().is_empty()
    }

    // ---- modification counters -------------------------------------

    /// Current data version of a table (0 when never registered).
    pub fn data_version(&self, name: &str) -> u64 {
        self.versions
            .read()
            .get(&*key_of(name))
            .map_or(0, |v| v.data)
    }

    /// Data version the table's statistics were computed from.
    pub fn stats_version(&self, name: &str) -> u64 {
        self.versions
            .read()
            .get(&*key_of(name))
            .map_or(0, |v| v.stats)
    }

    /// True when the table's statistics match its data version. The cost
    /// model debug-asserts this before trusting `ColumnStats`.
    pub fn stats_fresh(&self, name: &str) -> bool {
        self.versions
            .read()
            .get(&*key_of(name))
            .is_none_or(|v| v.stats == v.data)
    }

    /// Record an out-of-band data modification without re-analyzed stats
    /// (marks the table's statistics stale until it is re-registered).
    pub fn mark_modified(&self, name: &str) -> Result<()> {
        self.statement(|| {
            let key = name.to_ascii_lowercase();
            let mut vers = self.versions.write();
            let mut open = self.open.lock();
            open.log(|f| f.mark_modified(&key));
            open.bump(&mut vers, &key, false);
            Ok(())
        })
    }

    /// The one way rows of a registered table change: check `patch`
    /// against the table, append `record` to the statement's frame
    /// (durable catalogs), apply the patch, bump the table's version
    /// and note the undo, all under the tables write lock, so concurrent
    /// mutations of one table serialize and none is lost. Returns the
    /// row count before the patch and what `keep` copies out of the rows
    /// it displaced.
    ///
    /// The table is edited through `Arc::make_mut`: in place when the
    /// catalog holds the only reference, on a copy when a reader still
    /// holds the `Arc` it got from [`Catalog::get`] — that reader keeps
    /// seeing the rows it started with. A patch that fails its check
    /// changes nothing and logs nothing.
    fn patch_rows<T>(
        &self,
        name: &str,
        mut patch: RowPatch,
        record: impl FnOnce(&mut Frame, &str, &RowPatch),
        keep: impl FnOnce(&Displaced) -> T,
    ) -> Result<(usize, T)> {
        self.statement(|| {
            let key = name.to_ascii_lowercase();
            let mut map = self.tables.write();
            let table = Arc::make_mut(map.get_mut(&key).ok_or_else(|| unknown_table(name))?);
            table.check_patch(&mut patch)?;
            let mut vers = self.versions.write();
            let mut open = self.open.lock();
            open.log(|f| record(f, &key, &patch));
            let before = table.len();
            Ok((before, open.patch(table, patch, &mut vers, key, keep)?))
        })
    }

    /// Append rows to a table, returning its previous row count (callers
    /// maintaining materialized views use it to locate the delta).
    ///
    /// Arity, types and primary-key uniqueness of the batch are checked
    /// — the keys against the table's carried key index, not by
    /// re-reading the table — *before* anything is logged or applied: a
    /// rejected batch produces no WAL record and leaves rows, keys,
    /// statistics and versions as they were. An accepted one costs work
    /// proportional to the batch (see `patch_rows` for the locking and
    /// copy-on-write rules every mutator shares).
    pub fn append_rows(&self, name: &str, rows: Vec<Tuple>) -> Result<usize> {
        let patch = RowPatch {
            inserts: rows,
            ..RowPatch::default()
        };
        let record = |f: &mut Frame, table: &str, p: &RowPatch| f.insert_batch(table, &p.inserts);
        Ok(self.patch_rows(name, patch, record, |_| ())?.0)
    }

    /// Remove the rows at the given positions (which must be strictly
    /// increasing and in bounds), returning the removed rows in position
    /// order. Callers maintaining materialized views hand the result
    /// to maintenance as the rows removed.
    ///
    /// Same discipline as [`append_rows`](Catalog::append_rows); the
    /// record is positional (every mutator keeps the surviving rows in
    /// order, so positions replay deterministically). An empty position
    /// list is a no-op that logs and bumps nothing.
    pub fn delete_rows(&self, name: &str, indices: &[usize]) -> Result<Vec<Tuple>> {
        if indices.is_empty() {
            return self.get(name).map(|_| Vec::new());
        }
        let patch = RowPatch {
            deletes: indices.to_vec(),
            ..RowPatch::default()
        };
        let record = |f: &mut Frame, table: &str, p: &RowPatch| f.delete_batch(table, &p.deletes);
        let removed = |d: &Displaced| d.removed.clone();
        Ok(self.patch_rows(name, patch, record, removed)?.1)
    }

    /// Replace the rows at the given positions (strictly increasing, in
    /// bounds) with `rows[i]`, returning `(old, new)` pairs in position
    /// order, `new` as stored (conformed to the schema). Maintenance
    /// reads each pair as the old row removed and the new one added.
    ///
    /// Primary-key uniqueness is checked on the table as it will be
    /// after the whole batch (two rows may swap keys), so an update that
    /// would collide two keys fails atomically with nothing logged or
    /// applied.
    pub fn update_rows(
        &self,
        name: &str,
        indices: &[usize],
        rows: Vec<Tuple>,
    ) -> Result<Vec<(Tuple, Tuple)>> {
        if indices.len() != rows.len() {
            return Err(AggViewError::Catalog(format!(
                "update of `{name}`: {} positions but {} replacement rows",
                indices.len(),
                rows.len()
            )));
        }
        let updates = indices.iter().copied().zip(rows).collect();
        let old = self.replace_rows(name, updates)?;
        let t = self.get(name)?;
        Ok(old
            .into_iter()
            .zip(indices.iter().map(|&i| t.row(i)))
            .collect())
    }

    /// Replace the row at each `(position, new content)`; returns the
    /// replaced rows, in position order.
    fn replace_rows(&self, name: &str, updates: Vec<(usize, Tuple)>) -> Result<Vec<Tuple>> {
        if updates.is_empty() {
            return self.get(name).map(|_| Vec::new());
        }
        let patch = RowPatch {
            updates,
            ..RowPatch::default()
        };
        let record = |f: &mut Frame, table: &str, p: &RowPatch| f.update_batch(table, &p.updates);
        let replaced = |d: &Displaced| d.replaced.clone();
        Ok(self.patch_rows(name, patch, record, replaced)?.1)
    }

    // ---- materialized views ----------------------------------------

    /// Register a materialized view's metadata; rejects duplicates.
    pub fn register_matview(&self, meta: MatViewMeta) -> Result<()> {
        self.put_matview(meta, false)
    }

    /// Replace a materialized view's metadata (after refresh/maintenance).
    pub fn update_matview(&self, meta: MatViewMeta) -> Result<()> {
        self.put_matview(meta, true)
    }

    fn put_matview(&self, meta: MatViewMeta, replace: bool) -> Result<()> {
        self.statement(|| {
            let key = meta.def.name.to_ascii_lowercase();
            let mut map = self.matviews.write();
            if !replace && map.contains_key(&key) {
                return Err(AggViewError::Catalog(format!(
                    "materialized view `{}` already exists",
                    meta.def.name
                )));
            }
            let mut open = self.open.lock();
            open.log(|f| f.put_matview(&meta));
            let prev = map.insert(key.clone(), meta);
            open.undo.push(Undo::MatView { key, prev });
            Ok(())
        })
    }

    /// One maintenance round of `view`: apply `patch` to its extent
    /// table and record `base_versions` as the base-table versions the
    /// extent now reflects — one WAL record, one critical section
    /// (`tables → versions → matviews`), so no reader and no crash sees
    /// the extent patched but not stamped or the reverse. The extent
    /// goes through the same check-log-apply steps as any table
    /// (`patch_rows`); an empty patch only restamps.
    pub fn patch_extent(
        &self,
        view: &str,
        mut patch: RowPatch,
        base_versions: Vec<u64>,
    ) -> Result<()> {
        self.statement(|| {
            let mut map = self.tables.write();
            let mut vers = self.versions.write();
            let mut mvs = self.matviews.write();
            let view_key = view.to_ascii_lowercase();
            let meta = mvs.get_mut(&view_key).ok_or_else(|| {
                AggViewError::Catalog(format!("unknown materialized view `{view}`"))
            })?;
            if base_versions.len() != meta.def.tables.len() {
                return Err(AggViewError::Catalog(format!(
                    "view `{view}`: {} base versions for {} tables",
                    base_versions.len(),
                    meta.def.tables.len()
                )));
            }
            let key = meta.extent.to_ascii_lowercase();
            let slot = map
                .get_mut(&key)
                .ok_or_else(|| unknown_table(&meta.extent))?;
            // An empty patch must not cost a copy of a shared extent.
            let mut table = (!patch.is_empty()).then(|| Arc::make_mut(slot));
            if let Some(t) = &mut table {
                t.check_patch(&mut patch)?;
            }
            let mut open = self.open.lock();
            open.log(|f| f.patch_extent(view, &patch, &base_versions));
            let prev = std::mem::replace(&mut meta.base_versions, base_versions);
            open.undo.push(Undo::Stamp {
                key: view_key,
                prev,
            });
            if let Some(t) = table {
                open.patch(t, patch, &mut vers, key, |_| ())?;
            }
            Ok(())
        })
    }

    /// Metadata for one materialized view.
    pub fn matview(&self, name: &str) -> Option<MatViewMeta> {
        self.matviews.read().get(&*key_of(name)).cloned()
    }

    /// Names of all materialized views, sorted.
    pub fn matview_names(&self) -> Vec<String> {
        self.matviews.read().keys().cloned().collect()
    }

    /// All materialized views whose body reads `table`.
    pub fn matviews_on(&self, table: &str) -> Vec<MatViewMeta> {
        self.matviews
            .read()
            .values()
            .filter(|m| m.def.tables.iter().any(|t| t.eq_ignore_ascii_case(table)))
            .cloned()
            .collect()
    }

    /// Quarantine every materialized view whose structure cannot be
    /// re-verified against the current tables: a missing base table, a
    /// missing extent table, or an extent whose arity disagrees with
    /// the definition's layout. Returns the quarantined names.
    ///
    /// Recovery runs this after replay. The direction is deliberately
    /// one-way: a view can be demoted to (unconditionally) stale, never
    /// promoted — freshness only ever comes from comparing the recorded
    /// base versions, which recovery restored exactly.
    pub fn reverify_matviews(&self) -> Vec<String> {
        let tables = self.tables.read();
        let mut mvs = self.matviews.write();
        let mut quarantined = Vec::new();
        for (name, meta) in mvs.iter_mut() {
            if meta.is_quarantined() {
                continue;
            }
            let bases_ok = meta
                .def
                .tables
                .iter()
                .all(|t| tables.contains_key(&t.to_ascii_lowercase()));
            let extent_ok = tables
                .get(&meta.extent.to_ascii_lowercase())
                .is_some_and(|t| t.schema().len() == meta.layout.width);
            if !bases_ok || !extent_ok {
                meta.quarantine();
                quarantined.push(name.clone());
            }
        }
        quarantined
    }

    // ---- durability ------------------------------------------------

    /// Fold all committed state into a fresh snapshot and reset the
    /// WAL: the log ends right after its magic, and the file keeps its
    /// blocks (at most twice the log it closes) for the next commits to
    /// overwrite. Errors on an in-memory catalog.
    ///
    /// The snapshot is written atomically (temp + fsync + rename)
    /// *before* the WAL is reset, so a crash anywhere inside the
    /// checkpoint loses nothing: recovery uses the surviving snapshot
    /// and skips any WAL frames it already covers (by LSN). Waits for
    /// an open statement to end; errors inside one.
    pub fn checkpoint(&self) -> Result<()> {
        let d = self.durable.as_ref().ok_or_else(|| {
            AggViewError::Catalog("checkpoint requires a durable catalog (Catalog::open)".into())
        })?;
        if self.open.lock().owner == Some(std::thread::current().id()) {
            return Err(AggViewError::Catalog(
                "checkpoint inside an open statement".into(),
            ));
        }
        // A snapshot never holds half a statement.
        let _turn = self.turn.lock();
        let tables = self.tables.read();
        let vers = self.versions.read();
        let mvs = self.matviews.read();
        let mut wal = d.wal.lock();
        let next = wal.next_lsn();
        let snap = Snapshot {
            last_lsn: next.saturating_sub(1),
            any_covered: next > 0,
            tables: tables.values().cloned().collect(),
            versions: vers
                .iter()
                .map(|(k, v)| (k.clone(), v.data, v.stats))
                .collect(),
            matviews: mvs.values().cloned().collect(),
        };
        let faults = d.faults.read().clone();
        snap.write(&d.dir, faults.as_ref())?;
        wal.truncate_all(faults.as_ref())?;
        Ok(())
    }

    /// Copy every table and materialized view from `src` into this
    /// catalog (used to seed a freshly opened durable directory from an
    /// in-memory session). Version lineage starts over; a view that was
    /// fresh in `src` has its base versions re-anchored to the new
    /// counters, and one that was stale arrives quarantined — seeding
    /// never launders staleness. One statement: a failed import leaves
    /// this catalog as it was.
    pub fn import_from(&self, src: &Catalog) -> Result<()> {
        self.statement(|| {
            for name in src.table_names() {
                self.add_or_replace(src.get(&name)?)?;
            }
            for vname in src.matview_names() {
                let Some(mut meta) = src.matview(&vname) else {
                    continue;
                };
                if meta.is_stale(src) {
                    meta.quarantine();
                } else {
                    meta.base_versions = meta
                        .def
                        .tables
                        .iter()
                        .map(|t| self.data_version(t))
                        .collect();
                }
                self.update_matview(meta)?;
            }
            Ok(())
        })
    }

    /// A deterministic, human-readable dump of the complete catalog
    /// state: every table (schema, keys, rows), every version counter,
    /// every materialized view. Two catalogs with equal dumps are
    /// equal for durability purposes — the recovery tests compare dumps
    /// of recovered and reference catalogs.
    pub fn describe_state(&self) -> String {
        let tables = self.tables.read();
        let vers = self.versions.read();
        let mvs = self.matviews.read();
        let mut out = String::new();
        for (key, t) in tables.iter() {
            let cols: Vec<String> = t
                .schema()
                .fields()
                .iter()
                .map(|f| format!("{}:{}", f.name, f.ty))
                .collect();
            let _ = writeln!(
                out,
                "table {key} name={} schema=[{}] pk={:?} fks={:?}",
                t.name(),
                cols.join(","),
                t.primary_key().map(|pk| pk.cols.clone()),
                t.foreign_keys()
                    .iter()
                    .map(|fk| format!("{:?}->{}{:?}", fk.cols, fk.parent, fk.parent_cols))
                    .collect::<Vec<_>>(),
            );
            for i in 0..t.len() {
                let _ = writeln!(out, "  row {}", t.row(i));
            }
        }
        for (k, v) in vers.iter() {
            let _ = writeln!(out, "version {k} data={} stats={}", v.data, v.stats);
        }
        for (k, m) in mvs.iter() {
            let _ = writeln!(
                out,
                "matview {k} extent={} tables={:?} base_versions={:?}",
                m.extent, m.def.tables, m.base_versions
            );
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{tuple, DataType, Schema};

    fn table(name: &str) -> Arc<Table> {
        Table::builder(name, Schema::of(&[("a", DataType::Int)]))
            .build()
            .unwrap()
    }

    #[test]
    fn add_get_case_insensitive() {
        let c = Catalog::new();
        c.add(table("Emp")).unwrap();
        assert!(c.contains("EMP"));
        assert_eq!(c.get("emp").unwrap().name(), "Emp");
        assert_eq!(c.len(), 1);
        assert!(!c.is_durable());
        assert!(c.dir().is_none());
    }

    #[test]
    fn duplicate_rejected() {
        let c = Catalog::new();
        c.add(table("t")).unwrap();
        let err = c.add(table("T")).unwrap_err();
        assert_eq!(err.kind(), "catalog");
    }

    #[test]
    fn add_or_replace_overwrites() {
        let c = Catalog::new();
        c.add(table("t")).unwrap();
        c.add_or_replace(table("t")).unwrap();
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn unknown_lookup_errors() {
        let c = Catalog::new();
        assert!(c.get("ghost").is_err());
        assert!(c.is_empty());
    }

    #[test]
    fn table_names_sorted() {
        let c = Catalog::new();
        c.add(table("zeta")).unwrap();
        c.add(table("alpha")).unwrap();
        assert_eq!(c.table_names(), vec!["alpha", "zeta"]);
    }

    #[test]
    fn versions_track_registration_and_modification() {
        let c = Catalog::new();
        assert_eq!(c.data_version("t"), 0);
        c.add(table("t")).unwrap();
        assert_eq!(c.data_version("t"), 1);
        assert!(c.stats_fresh("t"));
        c.mark_modified("t").unwrap();
        assert_eq!(c.data_version("t"), 2);
        assert!(!c.stats_fresh("t"));
        c.add_or_replace(table("t")).unwrap();
        assert_eq!(c.data_version("t"), 3);
        assert!(c.stats_fresh("t"));
        assert_eq!(c.stats_version("t"), 3);
    }

    #[test]
    fn append_rows_preserves_keys_and_keeps_stats_current() {
        let c = Catalog::new();
        let t = Table::builder(
            "k",
            Schema::of(&[("id", DataType::Int), ("v", DataType::Int)]),
        )
        .primary_key(&["id"])
        .unwrap()
        .row(vec![1i64.into(), 10i64.into()])
        .unwrap()
        .build()
        .unwrap();
        c.add(t).unwrap();
        let prev = c.append_rows("k", vec![tuple![2i64, 20i64]]).unwrap();
        assert_eq!(prev, 1);
        let t2 = c.get("k").unwrap();
        assert_eq!(t2.len(), 2);
        assert_eq!(t2.stats().rows, 2);
        assert!(t2.primary_key().is_some());
        assert!(c.stats_fresh("k"));
        // Duplicate primary key in the delta is rejected.
        assert!(c.append_rows("k", vec![tuple![1i64, 99i64]]).is_err());
        assert!(c.append_rows("ghost", vec![]).is_err());
    }

    fn keyed(rows: &[(i64, i64)]) -> Arc<Table> {
        let mut b = Table::builder(
            "k",
            Schema::of(&[("id", DataType::Int), ("v", DataType::Int)]),
        )
        .primary_key(&["id"])
        .unwrap();
        for &(id, v) in rows {
            b.push(tuple![id, v]).unwrap();
        }
        b.build().unwrap()
    }

    #[test]
    fn a_reader_keeps_its_rows_across_mutations() {
        let c = Catalog::new();
        c.add(keyed(&[(1, 10), (2, 20)])).unwrap();
        let reader = c.get("k").unwrap();
        c.append_rows("k", vec![tuple![3i64, 30i64]]).unwrap();
        c.update_rows("k", &[0], vec![tuple![1i64, 11i64]]).unwrap();
        c.delete_rows("k", &[1]).unwrap();
        // The snapshot the reader took is untouched, statistics included.
        assert_eq!(reader.rows(), &[tuple![1i64, 10i64], tuple![2i64, 20i64]]);
        assert_eq!(reader.stats().rows, 2);
        assert_eq!(reader.stats().columns[1].max, Some(20.0));
        let now = c.get("k").unwrap();
        assert_eq!(now.rows(), &[tuple![1i64, 11i64], tuple![3i64, 30i64]]);
        assert_eq!(now.stats().columns[1].max, Some(30.0));
        // Copied once, for the reader's sake; then edited in place.
        assert!(!Arc::ptr_eq(&reader, &now));
        let at = Arc::as_ptr(&now);
        drop((reader, now));
        c.append_rows("k", vec![tuple![4i64, 40i64]]).unwrap();
        assert_eq!(Arc::as_ptr(&c.get("k").unwrap()), at);
    }

    #[test]
    fn a_readers_columns_are_untouched_by_later_patches() {
        let c = Catalog::new();
        c.add(keyed(&[(1, 10), (2, 20), (3, 30)])).unwrap();
        let reader = c.get("k").unwrap();
        let (ids, vs) = (reader.column(0), reader.column(1));
        let at = vs.as_int().unwrap().as_ptr();
        c.update_rows("k", &[1], vec![tuple![2i64, 21i64]]).unwrap();
        c.delete_rows("k", &[0]).unwrap();
        c.append_rows("k", vec![tuple![4i64, 40i64]]).unwrap();
        // Copy-on-write-if-shared: the patches edited columns of their
        // own, the reader's are the vectors they were.
        assert_eq!(ids.as_int().unwrap(), [1, 2, 3]);
        assert_eq!(vs.as_int().unwrap(), [10, 20, 30]);
        assert_eq!(vs.as_int().unwrap().as_ptr(), at);
        let now = c.get("k").unwrap();
        assert_eq!(now.column(0).as_int().unwrap(), [2, 3, 4]);
        assert_eq!(now.column(1).as_int().unwrap(), [21, 30, 40]);
        // A second table is no party to the first one's sharing.
        c.add(table("other")).unwrap();
        let other = c.get("other").unwrap();
        c.append_rows("k", vec![tuple![5i64, 50i64]]).unwrap();
        assert!(Arc::ptr_eq(&other, &c.get("other").unwrap()));
    }

    #[test]
    fn patch_extent_edits_and_stamps_as_one() {
        use crate::matview::{ExtentLayout, MatViewDef};
        use aggview_common::{AggSpec, Col, RelId};
        let c = Catalog::new();
        c.add(keyed(&[(1, 10)])).unwrap();
        let def = MatViewDef {
            name: "by_v".into(),
            tables: vec!["k".into()],
            preds: vec![],
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![AggSpec::count_star()],
            column_names: vec!["v".into(), "n".into()],
        };
        let extent = Table::builder(
            "__mv_by_v",
            Schema::of(&[
                ("v", DataType::Int),
                ("n", DataType::Int),
                ("__n_p0", DataType::Int),
            ]),
        )
        .primary_key(&["v"])
        .unwrap()
        .row(vec![10i64.into(), 1i64.into(), 1i64.into()])
        .unwrap()
        .build()
        .unwrap();
        c.add(extent).unwrap();
        c.register_matview(MatViewMeta {
            layout: ExtentLayout::of(&def),
            extent: "__mv_by_v".into(),
            base_versions: vec![c.data_version("k")],
            def,
        })
        .unwrap();

        c.append_rows("k", vec![tuple![2i64, 10i64], tuple![3i64, 30i64]])
            .unwrap();
        assert!(c.matview("by_v").unwrap().is_stale(&c));
        let patch = RowPatch {
            updates: vec![(0, tuple![10i64, 2i64, 2i64])],
            deletes: vec![],
            inserts: vec![tuple![30i64, 1i64, 1i64]],
        };
        c.patch_extent("by_v", patch, vec![c.data_version("k")])
            .unwrap();
        assert!(!c.matview("by_v").unwrap().is_stale(&c));
        assert_eq!(
            c.get("__mv_by_v").unwrap().rows(),
            vec![tuple![10i64, 2i64, 2i64], tuple![30i64, 1i64, 1i64]]
        );
        assert_eq!(c.data_version("__mv_by_v"), 2);

        // A patch that fails its check changes neither rows nor stamp.
        c.mark_modified("k").unwrap();
        let dup = RowPatch {
            inserts: vec![tuple![30i64, 9i64, 9i64]],
            ..RowPatch::default()
        };
        assert!(c
            .patch_extent("by_v", dup, vec![c.data_version("k")])
            .is_err());
        assert!(c.matview("by_v").unwrap().is_stale(&c));
        assert_eq!(c.data_version("__mv_by_v"), 2);

        // An empty patch restamps without touching the extent.
        c.patch_extent("by_v", RowPatch::default(), vec![c.data_version("k")])
            .unwrap();
        assert!(!c.matview("by_v").unwrap().is_stale(&c));
        assert_eq!(c.data_version("__mv_by_v"), 2);

        assert!(c
            .patch_extent("ghost", RowPatch::default(), vec![1])
            .is_err());
        assert!(c.patch_extent("by_v", RowPatch::default(), vec![]).is_err());
    }

    /// `k(id, v)` with one row, and the view `by_v` counting it.
    fn keyed_with_view() -> Catalog {
        use crate::matview::{ExtentLayout, MatViewDef};
        use aggview_common::{AggSpec, Col, RelId};
        let c = Catalog::new();
        c.add(keyed(&[(1, 10)])).unwrap();
        let def = MatViewDef {
            name: "by_v".into(),
            tables: vec!["k".into()],
            preds: vec![],
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![AggSpec::count_star()],
            column_names: vec!["v".into(), "n".into()],
        };
        let extent = Table::builder(
            "__mv_by_v",
            Schema::of(&[
                ("v", DataType::Int),
                ("n", DataType::Int),
                ("__n_p0", DataType::Int),
            ]),
        )
        .primary_key(&["v"])
        .unwrap()
        .row(vec![10i64.into(), 1i64.into(), 1i64.into()])
        .unwrap()
        .build()
        .unwrap();
        c.add(extent).unwrap();
        c.register_matview(MatViewMeta {
            layout: ExtentLayout::of(&def),
            extent: "__mv_by_v".into(),
            base_versions: vec![c.data_version("k")],
            def,
        })
        .unwrap();
        c
    }

    fn abort<T>() -> Result<T> {
        Err(AggViewError::Exec("abort".into()))
    }

    #[test]
    fn a_failed_statement_takes_back_every_kind_of_mutation() {
        let c = keyed_with_view();
        c.append_rows("k", vec![tuple![2i64, 20i64], tuple![3i64, 30i64]])
            .unwrap();
        let before = c.describe_state();
        let err = c
            .statement(|| {
                c.add(table("fresh"))?;
                c.add_or_replace(keyed(&[(7, 70)]))?;
                c.append_rows("k", vec![tuple![8i64, 80i64]])?;
                c.update_rows("k", &[0], vec![tuple![9i64, 90i64]])?;
                c.delete_rows("k", &[0])?;
                c.mark_modified("k")?;
                c.mark_modified("never_registered")?;
                let mut meta = c.matview("by_v").unwrap();
                meta.quarantine();
                c.update_matview(meta.clone())?;
                meta.def.name = "another".into();
                c.register_matview(meta)?;
                let patch = RowPatch {
                    updates: vec![(0, tuple![10i64, 5i64, 5i64])],
                    deletes: vec![],
                    inserts: vec![tuple![20i64, 1i64, 1i64]],
                };
                c.patch_extent("by_v", patch, vec![c.data_version("k")])?;
                c.patch_extent("by_v", RowPatch::default(), vec![77])?;
                abort::<()>()
            })
            .unwrap_err();
        assert_eq!(err.kind(), "exec");
        assert_eq!(c.describe_state(), before);
        assert_eq!(c.data_version("never_registered"), 0);
        assert!(c.matview("another").is_none());
        // The tables take patches as if nothing had happened: stored
        // keys are held, the keys the statement used are free.
        assert!(c.append_rows("k", vec![tuple![2i64, 0i64]]).is_err());
        c.append_rows("k", vec![tuple![8i64, 80i64]]).unwrap();
        let t = c.get("k").unwrap();
        assert_eq!(t.find_key(&tuple![8i64]), Some(3));
        assert_eq!(t.stats().rows, 4);
        assert_eq!(t.stats().columns[1].max, Some(80.0));
    }

    #[test]
    fn deletes_are_taken_back_into_their_positions() {
        let c = Catalog::new();
        c.add(keyed(&[
            (0, 0),
            (1, 10),
            (2, 20),
            (3, 30),
            (4, 40),
            (5, 50),
        ]))
        .unwrap();
        let before = c.get("k").unwrap().rows();
        for doomed in [
            &[0usize][..],
            &[5],
            &[0, 5],
            &[1, 2, 4],
            &[0, 1, 2, 3, 4, 5],
        ] {
            let out: Result<()> = c.statement(|| {
                let patch = RowPatch {
                    updates: vec![(3, tuple![3i64, 33i64])],
                    deletes: doomed.iter().copied().filter(|&i| i != 3).collect(),
                    inserts: vec![tuple![6i64, 60i64]],
                };
                c.patch_rows("k", patch, |_, _, _| {}, |_| ())?;
                abort()
            });
            assert!(out.is_err());
            assert_eq!(c.get("k").unwrap().rows(), before, "{doomed:?}");
        }
    }

    #[test]
    fn a_statement_inside_a_statement_is_a_savepoint() {
        let c = Catalog::new();
        c.add(keyed(&[(1, 10)])).unwrap();
        c.statement(|| {
            c.append_rows("k", vec![tuple![2i64, 20i64]])?;
            let inner: Result<()> = c.statement(|| {
                c.append_rows("k", vec![tuple![3i64, 30i64]])?;
                c.mark_modified("k")?;
                abort()
            });
            assert!(inner.is_err());
            // A single mutator that fails its check is one too.
            assert!(c.append_rows("k", vec![tuple![1i64, 0i64]]).is_err());
            c.append_rows("k", vec![tuple![4i64, 40i64]]).map(drop)
        })
        .unwrap();
        assert_eq!(
            c.get("k").unwrap().rows(),
            &[
                tuple![1i64, 10i64],
                tuple![2i64, 20i64],
                tuple![4i64, 40i64]
            ]
        );
        assert_eq!(c.data_version("k"), 3);
        assert!(c.stats_fresh("k"));
    }

    #[test]
    fn statements_take_turns() {
        use std::sync::mpsc::channel;
        use std::time::Duration;
        let c = Arc::new(Catalog::new());
        c.add(table("t")).unwrap();
        let (opened, is_open) = channel();
        let (go_on, may_go_on) = channel::<()>();
        let first = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.statement(|| {
                    c.append_rows("t", vec![tuple![1i64]])?;
                    opened.send(()).unwrap();
                    may_go_on.recv().unwrap();
                    c.append_rows("t", vec![tuple![2i64]]).map(drop)
                })
                .unwrap();
            })
        };
        is_open.recv().unwrap();
        // A lone mutator is a statement: it waits for the open one.
        let (done, is_done) = channel();
        let second = {
            let c = Arc::clone(&c);
            std::thread::spawn(move || {
                c.append_rows("t", vec![tuple![3i64]]).unwrap();
                done.send(()).unwrap();
            })
        };
        assert!(is_done.recv_timeout(Duration::from_millis(50)).is_err());
        go_on.send(()).unwrap();
        first.join().unwrap();
        second.join().unwrap();
        assert_eq!(
            c.get("t").unwrap().rows(),
            &[tuple![1i64], tuple![2i64], tuple![3i64]]
        );
    }

    #[test]
    fn concurrent_appends_lose_no_rows() {
        let c = Arc::new(Catalog::new());
        c.add(table("t")).unwrap();
        let handles: Vec<_> = (0..8)
            .map(|i| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || c.append_rows("t", vec![tuple![i as i64]]).unwrap())
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.get("t").unwrap().len(), 8);
        assert_eq!(c.data_version("t"), 9);
        assert!(c.stats_fresh("t"));
    }

    #[test]
    fn delete_rows_removes_and_returns_victims() {
        let c = Catalog::new();
        c.add(table("t")).unwrap();
        c.append_rows("t", vec![tuple![1i64], tuple![2i64], tuple![3i64]])
            .unwrap();
        let removed = c.delete_rows("t", &[0, 2]).unwrap();
        assert_eq!(removed, vec![tuple![1i64], tuple![3i64]]);
        let t = c.get("t").unwrap();
        assert_eq!(t.rows(), &[tuple![2i64]]);
        assert_eq!(t.stats().rows, 1);
        assert!(c.stats_fresh("t"));
        assert_eq!(c.data_version("t"), 3);
        // Empty delete is a no-op that bumps nothing.
        assert!(c.delete_rows("t", &[]).unwrap().is_empty());
        assert_eq!(c.data_version("t"), 3);
        // Out-of-bounds and unsorted position lists are rejected.
        assert!(c.delete_rows("t", &[5]).is_err());
        assert!(c.delete_rows("ghost", &[0]).is_err());
        let c2 = Catalog::new();
        c2.add(table("u")).unwrap();
        c2.append_rows("u", vec![tuple![1i64], tuple![2i64]])
            .unwrap();
        assert!(c2.delete_rows("u", &[1, 0]).is_err());
        assert!(c2.delete_rows("u", &[0, 0]).is_err());
    }

    #[test]
    fn update_rows_replaces_in_place_and_reports_pairs() {
        let c = Catalog::new();
        let t = Table::builder(
            "k",
            Schema::of(&[("id", DataType::Int), ("v", DataType::Int)]),
        )
        .primary_key(&["id"])
        .unwrap()
        .row(vec![1i64.into(), 10i64.into()])
        .unwrap()
        .row(vec![2i64.into(), 20i64.into()])
        .unwrap()
        .build()
        .unwrap();
        c.add(t).unwrap();
        let pairs = c.update_rows("k", &[1], vec![tuple![2i64, 25i64]]).unwrap();
        assert_eq!(pairs, vec![(tuple![2i64, 20i64], tuple![2i64, 25i64])]);
        assert_eq!(
            c.get("k").unwrap().rows(),
            &[tuple![1i64, 10i64], tuple![2i64, 25i64]]
        );
        assert_eq!(c.data_version("k"), 2);
        // A primary-key collision fails atomically: nothing applied.
        assert!(c.update_rows("k", &[1], vec![tuple![1i64, 99i64]]).is_err());
        assert_eq!(c.data_version("k"), 2);
        assert_eq!(
            c.get("k").unwrap().rows(),
            &[tuple![1i64, 10i64], tuple![2i64, 25i64]]
        );
        // Arity mismatch between positions and rows is rejected.
        assert!(c
            .update_rows("k", &[0, 1], vec![tuple![3i64, 1i64]])
            .is_err());
    }

    #[test]
    fn checkpoint_and_io_faults_require_durable() {
        let c = Catalog::new();
        assert_eq!(c.checkpoint().unwrap_err().kind(), "catalog");
        assert!(!c.set_io_faults(Arc::new(NoFaults)));
    }

    #[test]
    fn describe_state_distinguishes_content() {
        let a = Catalog::new();
        let b = Catalog::new();
        a.add(table("t")).unwrap();
        b.add(table("t")).unwrap();
        assert_eq!(a.describe_state(), b.describe_state());
        b.append_rows("t", vec![tuple![5i64]]).unwrap();
        assert_ne!(a.describe_state(), b.describe_state());
    }
}
