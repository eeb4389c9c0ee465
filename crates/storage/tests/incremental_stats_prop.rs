//! The statistics contract under DML (`aggview_storage::stats` module
//! docs), checked over random INSERT/UPDATE/DELETE histories against a
//! durable catalog and the test's own model of when a table computes
//! its statistics again ([`Lag`]):
//!
//! * after every mutation `rows`, `row_width` and every `avg_width` are
//!   bit-identical to `analyze(rows)`; every value that is not NaN lies
//!   within `[min, max]`; `distinct` is within the model's lag of the
//!   true count; `byte_size` is the sum of the row widths, and every row
//!   is found under its key;
//! * at every mutation the model marks as a recomputation (the changed
//!   rows passed a tenth of the table, or the table was emptied), the
//!   statistics are bit-identical to `analyze(rows)` and every histogram
//!   to `histogram_of(rows)`;
//! * every histogram, when read, is the exact histogram of a state since
//!   the last recomputation — histograms are read on every third step
//!   only, so some are built in the middle of a lag window and carried
//!   across later patches;
//! * a rejected batch (duplicate key on INSERT or UPDATE) leaves rows,
//!   key index, statistics, versions and the WAL untouched;
//! * after every batch, accepted or rejected, the columns scans read
//!   (`Table::column`) hold the rows cell for cell, and a reader that
//!   took the table before the batch keeps its rows and its columns;
//! * a statement that applied several patches and was then rolled back
//!   leaves rows, versions, statistics and the WAL as they were and
//!   every surviving key findable — and the next patch is accepted or
//!   rejected exactly as on a table that never saw the rolled-back ones.
//!
//! The op mix includes the cases carried statistics get wrong first:
//! deleting the current minimum and maximum, emptying the table, and an
//! UPDATE that swaps the keys of two rows.
//!
//! A second property checks the table itself — its columns *are* the
//! rows — against a plain `Vec<Tuple>` model over random `RowPatch`
//! histories (`tables_agree_with_a_row_model`, below).

use aggview_common::{
    hash_columns, AggSpec, AggViewError, Col, ColumnVec, DataType, RelId, Schema, Tuple, Value,
};
use aggview_storage::catalog::WAL_FILE;
use aggview_storage::stats::{analyze, histogram_of, Histogram, TableStats, REANALYZE_DIVISOR};
use aggview_storage::{Catalog, ExtentLayout, MatViewDef, MatViewMeta, RowPatch, Table};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::collections::HashSet;
use std::path::PathBuf;

const NCOLS: usize = 4;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggview-statsprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `t(id INT PRIMARY KEY, g INT, x FLOAT, s STRING)`; `x` is sometimes
/// written as an Int (which the table widens), `s` has varying width.
fn row(id: i64, rng: &mut TestRng) -> Tuple {
    let x = rng.below(2000) as i64 - 1000;
    Tuple::new(vec![
        Value::Int(id),
        Value::Int(rng.below(7) as i64),
        if x % 5 == 0 {
            Value::Int(x)
        } else {
            Value::Float(x as f64 / 4.0)
        },
        Value::str("s".repeat(1 + rng.below(6) as usize)),
    ])
}

fn fresh(cat: &Catalog, n: usize, rng: &mut TestRng) {
    let mut b = Table::builder(
        "t",
        Schema::of(&[
            ("id", DataType::Int),
            ("g", DataType::Int),
            ("x", DataType::Float),
            ("s", DataType::Str),
        ]),
    )
    .primary_key(&["id"])
    .unwrap();
    for id in 0..n as i64 {
        b.push(row(id, rng)).unwrap();
    }
    cat.add(b.build().unwrap()).unwrap();
}

type HistBits = Option<(u64, Vec<u64>)>;

fn hist_bits(h: Option<&Histogram>) -> HistBits {
    h.map(|h| {
        (
            h.lo.to_bits(),
            h.bounds.iter().map(|b| b.to_bits()).collect(),
        )
    })
}

/// Every histogram the table answers with.
fn hists(t: &Table) -> Vec<HistBits> {
    (0..t.schema().len())
        .map(|c| hist_bits(t.histogram(c)))
        .collect()
}

/// The exact histograms of `rows`.
fn exact_hists(rows: &[Tuple]) -> Vec<HistBits> {
    (0..NCOLS)
        .map(|c| hist_bits(histogram_of(rows, c).as_ref()))
        .collect()
}

/// Everything a rejected batch must leave alone; the histograms only
/// when `read` (reading one builds it).
fn fingerprint(
    cat: &Catalog,
    wal: &std::path::Path,
    read: bool,
) -> (String, String, u64, u64, u64) {
    let t = cat.get("t").unwrap();
    let hists = if read { hists(&t) } else { Vec::new() };
    (
        cat.describe_state(),
        format!("{:?} {:?} {}", t.stats(), hists, t.byte_size()),
        cat.data_version("t"),
        cat.stats_version("t"),
        std::fs::metadata(wal).unwrap().len(),
    )
}

/// Equal as stored: same variant, same bits (`Value`'s own `==` takes
/// `Int(2)` for `Float(2.0)`).
fn identical(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a.data_type() == b.data_type() && a == b,
    }
}

/// `r` as `t` stores it: an Int written to a FLOAT column is the Float
/// it widens to.
fn stored(t: &Table, r: &Tuple) -> Vec<Value> {
    let fields = t.schema().fields();
    let widen = |(v, f): (&Value, &aggview_common::Field)| match v {
        Value::Int(x) if f.ty == DataType::Float => Value::Float(*x as f64),
        v => v.clone(),
    };
    r.values().iter().zip(fields).map(widen).collect()
}

/// Every cell of every column, the point read and the materialized rows
/// against `rows` as stored; every column is the vector of its declared
/// type.
fn columns_hold(t: &Table, rows: &[Tuple]) -> bool {
    let cells = |i: usize, r: &Tuple| {
        let want = stored(t, r);
        (0..r.arity()).all(|p| identical(&t.column(p).value_at(i), &want[p]))
            && t.row(i)
                .values()
                .iter()
                .zip(&want)
                .all(|(a, b)| identical(a, b))
    };
    let typed = |p: usize| t.column(p).data_type() == t.schema().field(p).ty;
    let sized = |p: usize| {
        let bytes: usize = rows.iter().map(|r| r.get(p).width()).sum();
        t.column(p).len() == rows.len() && t.column(p).total_bytes() == bytes as u64
    };
    t.len() == rows.len()
        && t.rows() == rows
        && rows.iter().enumerate().all(|(i, r)| cells(i, r))
        && (0..t.schema().len()).all(|p| sized(p) && typed(p))
}

/// Distinct random positions in `0..len`, ascending.
fn positions(len: usize, want: usize, rng: &mut TestRng) -> Vec<usize> {
    let mut all: Vec<usize> = (0..len).collect();
    for i in 0..want.min(len) {
        let j = i + rng.below((len - i) as u64) as usize;
        all.swap(i, j);
    }
    all.truncate(want.min(len));
    all.sort_unstable();
    all
}

/// Position of the row with the smallest (`max: false`) or largest `x`.
fn extremum(rows: &[Tuple], max: bool) -> Option<usize> {
    let x = |r: &Tuple| r.get(2).as_f64().unwrap();
    let by = |a: &(usize, &Tuple), b: &(usize, &Tuple)| x(a.1).total_cmp(&x(b.1));
    let it = rows.iter().enumerate();
    let found = if max { it.max_by(by) } else { it.min_by(by) };
    found.map(|(i, _)| i)
}

/// The test's model of a table's statistics lag: the rows its accepted
/// patches changed since its statistics were last computed.
#[derive(Debug, Clone, Copy, Default)]
struct Lag(u64);

impl Lag {
    /// One accepted patch that changed `n` rows and left `rows`: true
    /// when it computes the statistics again.
    fn patch(&mut self, n: usize, rows: usize) -> bool {
        self.0 += n as u64;
        let again = rows == 0 || self.0 > rows as u64 / REANALYZE_DIVISOR;
        if again {
            self.0 = 0;
        }
        again
    }
}

/// `a <= b` by `f64::total_cmp`; vacuous when either is missing.
fn within(a: Option<f64>, b: Option<f64>) -> bool {
    a.zip(b).is_none_or(|(a, b)| a.total_cmp(&b).is_le())
}

/// The contract between recomputations, against `exact = analyze(rows)`:
/// `rows` and the widths bit-identical, `[min, max]` around every value
/// that is not NaN (there is a bound wherever there is such a value),
/// `distinct` off by at most the rows changed since the last
/// recomputation, and no more than the rows.
fn assert_sound(got: &TableStats, exact: &TableStats, lag: Lag, step: usize) {
    assert_eq!(got.rows, exact.rows, "step {step}");
    assert_eq!(got.row_width.to_bits(), exact.row_width.to_bits());
    for (p, (g, e)) in got.columns.iter().zip(&exact.columns).enumerate() {
        assert_eq!(g.avg_width.to_bits(), e.avg_width.to_bits());
        assert!(e.min.is_none() || g.min.is_some(), "step {step} column {p}");
        assert!(e.max.is_none() || g.max.is_some(), "step {step} column {p}");
        assert!(
            within(g.min, e.min) && within(e.max, g.max),
            "step {step} column {p}: {g:?} {e:?}"
        );
        assert!(
            g.distinct.abs_diff(e.distinct) <= lag.0,
            "step {step} column {p}: {g:?} {e:?} {lag:?}"
        );
        assert!(g.distinct <= got.rows, "step {step} column {p}");
    }
}

/// Every field bit-identical.
fn assert_exact(got: &TableStats, exact: &TableStats, step: usize) {
    assert_sound(got, exact, Lag(0), step);
    for (g, e) in got.columns.iter().zip(&exact.columns) {
        assert_eq!(
            g.min.map(f64::to_bits),
            e.min.map(f64::to_bits),
            "step {step}"
        );
        assert_eq!(
            g.max.map(f64::to_bits),
            e.max.map(f64::to_bits),
            "step {step}"
        );
    }
}

/// The statistics contract at `lag` (exact, histograms included, when
/// the last patch computed them again), and the key index: the table's
/// size is the sum of its rows' widths, and every row is found under its
/// key.
fn assert_stats_and_keys(t: &Table, lag: Lag, again: bool, step: usize) {
    let exact = analyze(t.rows(), NCOLS);
    if again {
        assert_exact(t.stats(), &exact, step);
        // Read from a copy, so that this check builds no histogram the
        // history below does not read.
        assert_eq!(
            hists(&Table::clone(t)),
            exact_hists(&t.rows()),
            "step {step}"
        );
    } else {
        assert_sound(t.stats(), &exact, lag, step);
    }
    let bytes: usize = t.rows().iter().map(Tuple::width).sum();
    assert_eq!(t.byte_size(), bytes as u64, "step {step}");
    for (i, r) in t.rows().iter().enumerate() {
        assert_eq!(t.find_key(&r.project(&[0])), Some(i), "step {step}");
    }
    assert_eq!(t.find_key(&Tuple::new(vec![Value::Int(-1)])), None);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn incremental_stats_follow_every_mutation(
        seed in 0u64..1_000_000,
        initial in 0usize..400,
    ) {
        let mut rng = TestRng::deterministic("incremental_stats", seed as u32);
        let dir = tmpdir("hist");
        let wal = dir.join(WAL_FILE);
        let cat = Catalog::open(&dir).unwrap();
        fresh(&cat, initial, &mut rng);
        let mut next_id = initial as i64;

        // The exact histograms of every state, and where in that history
        // the statistics were last computed.
        let mut history = vec![hists(&cat.get("t").unwrap())];
        let (mut lag, mut since) = (Lag::default(), 0);

        for step in 0..40 {
            let rows = cat.get("t").unwrap().rows();
            let kind = rng.below(14);
            let read = step % 3 == 0;
            let before = fingerprint(&cat, &wal, read);
            // Every other step a reader holds the table across the
            // batch: the batch then edits a copy.
            let reader = (step % 2 == 0).then(|| cat.get("t").unwrap());
            prop_assert!(reader.iter().all(|t| columns_hold(t, &rows)));
            // `Some(n)`: the op must succeed and changes n rows;
            // `None`: it must be rejected without a trace.
            let outcome: Option<usize> = match kind {
                0..=2 => {
                    let n = 1 + rng.below(if kind == 0 { 150 } else { 6 }) as usize;
                    let batch: Vec<Tuple> = (0..n)
                        .map(|_| {
                            next_id += 1;
                            row(next_id, &mut rng)
                        })
                        .collect();
                    cat.append_rows("t", batch).unwrap();
                    Some(n)
                }
                3 if !rows.is_empty() => {
                    // A batch whose last row repeats a stored key.
                    let dup = rows[rng.below(rows.len() as u64) as usize].get(0).clone();
                    let mut batch = vec![row(next_id + 1, &mut rng), row(next_id + 2, &mut rng)];
                    batch.push(Tuple::new(vec![
                        dup,
                        Value::Int(0),
                        Value::Float(0.5),
                        Value::str("dup"),
                    ]));
                    prop_assert!(cat.append_rows("t", batch).is_err());
                    None
                }
                4 | 5 => {
                    let at = positions(rows.len(), 1 + rng.below(5) as usize, &mut rng);
                    prop_assert_eq!(cat.delete_rows("t", &at).unwrap().len(), at.len());
                    Some(at.len())
                }
                6 => {
                    // The current minimum and maximum of `x` go.
                    let mut at: Vec<usize> =
                        [extremum(&rows, false), extremum(&rows, true)].into_iter().flatten().collect();
                    at.sort_unstable();
                    at.dedup();
                    cat.delete_rows("t", &at).unwrap();
                    Some(at.len())
                }
                7 if step % 3 == 0 => {
                    let at: Vec<usize> = (0..rows.len()).collect();
                    cat.delete_rows("t", &at).unwrap();
                    Some(at.len())
                }
                8 | 9 => {
                    // New values under the old keys.
                    let at = positions(rows.len(), 1 + rng.below(4) as usize, &mut rng);
                    let new: Vec<Tuple> = at
                        .iter()
                        .map(|&i| row(rows[i].get(0).as_i64().unwrap(), &mut rng))
                        .collect();
                    cat.update_rows("t", &at, new).unwrap();
                    Some(at.len())
                }
                10 if rows.len() >= 2 => {
                    // Two rows swap keys: legal, though each new key is
                    // held by another row until the batch is through.
                    let at = positions(rows.len(), 2, &mut rng);
                    let with_id = |r: &Tuple, id: &Value| {
                        let mut v = r.values().to_vec();
                        v[0] = id.clone();
                        Tuple::new(v)
                    };
                    let new = vec![
                        with_id(&rows[at[0]], rows[at[1]].get(0)),
                        with_id(&rows[at[1]], rows[at[0]].get(0)),
                    ];
                    cat.update_rows("t", &at, new).unwrap();
                    Some(2)
                }
                11 if rows.len() >= 2 => {
                    // One row takes a key another row keeps.
                    let at = positions(rows.len(), 2, &mut rng);
                    let mut v = rows[at[0]].values().to_vec();
                    v[0] = rows[at[1]].get(0).clone();
                    prop_assert!(cat.update_rows("t", &at[..1], vec![Tuple::new(v)]).is_err());
                    None
                }
                12 | 13 => {
                    // A statement appends, deletes and updates, and then
                    // fails: all three patches are taken back.
                    let at = positions(rows.len(), 1 + rng.below(3) as usize, &mut rng);
                    let state = (cat.describe_state(), before.2, before.3, before.4);
                    let stats = format!("{:?}", cat.get("t").unwrap().stats());
                    let aborted = cat.statement(|| {
                        let batch = vec![row(next_id + 1, &mut rng), row(next_id + 2, &mut rng)];
                        cat.append_rows("t", batch)?;
                        if let Some((&first, rest)) = at.split_first() {
                            cat.delete_rows("t", &[first])?;
                            // Positions behind the deleted row moved up.
                            let moved: Vec<usize> = rest.iter().map(|i| i - 1).collect();
                            let new = rest
                                .iter()
                                .map(|&i| row(rows[i].get(0).as_i64().unwrap(), &mut rng))
                                .collect();
                            cat.update_rows("t", &moved, new)?;
                        }
                        Err::<(), _>(AggViewError::Exec("abort".into()))
                    });
                    prop_assert!(aborted.is_err());
                    let after = fingerprint(&cat, &wal, read);
                    prop_assert_eq!((after.0, after.2, after.3, after.4), state, "step {}", step);
                    prop_assert_eq!(format!("{:?}", cat.get("t").unwrap().stats()), stats);
                    assert_stats_and_keys(&cat.get("t").unwrap(), lag, false, step);
                    // A key the statement took and gave back is free; a
                    // key the table holds is still held.
                    if let Some(held) = rows.first() {
                        let mut dup = row(next_id + 1, &mut rng).values().to_vec();
                        dup[0] = held.get(0).clone();
                        prop_assert!(cat.append_rows("t", vec![Tuple::new(dup)]).is_err());
                    }
                    next_id += 1;
                    cat.append_rows("t", vec![row(next_id, &mut rng)]).unwrap();
                    Some(1)
                }
                _ => Some(0),
            };
            let t = cat.get("t").unwrap();
            let again = match outcome {
                None => {
                    prop_assert_eq!(&fingerprint(&cat, &wal, read), &before, "step {}", step);
                    false
                }
                Some(0) => false,
                Some(n) => lag.patch(n, t.len()),
            };

            if let Some(held) = reader {
                prop_assert!(columns_hold(&held, &rows), "step {}", step);
            }
            prop_assert!(columns_hold(&t, &t.rows()), "step {}", step);
            assert_stats_and_keys(&t, lag, again, step);
            prop_assert!(cat.stats_fresh("t"));
            history.push(exact_hists(&t.rows()));
            if again {
                since = history.len() - 1;
            }
            if read {
                let current = hists(&t);
                prop_assert!(
                    history[since..].contains(&current),
                    "step {}: histograms older than the last recomputation ({} rows)",
                    step, t.len()
                );
            }
        }

        // Replay goes through the same mutators: a reopened catalog
        // holds the same rows (statistics restart exact there).
        let live = cat.describe_state();
        drop(cat);
        prop_assert_eq!(Catalog::open(&dir).unwrap().describe_state(), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}

// ---- the table against a row model ------------------------------------

/// Values the columns' typed paths get wrong first: an `Int` in the
/// `Float` column (and the pair `Int(2^53 + 1)` / `Float(2^53)` that is
/// equal as values but not as integers), both zeros, a NaN.
fn float_cell(rng: &mut TestRng) -> Value {
    match rng.below(10) {
        0 => Value::Int(rng.below(5) as i64),
        1 => Value::Float(-0.0),
        2 => Value::Float(0.0),
        3 => Value::Float(f64::NAN),
        4 => Value::Int((1 << 53) + 1),
        5 => Value::Float((1u64 << 53) as f64),
        _ => Value::Float(rng.below(40) as f64 / 4.0 - 3.0),
    }
}

/// Mostly a few recurring strings (the empty one among them), sometimes
/// one never seen before, so dictionaries gain entries that later
/// updates and deletes leave unreferenced.
fn str_cell(rng: &mut TestRng, fresh: &mut u64) -> Value {
    match rng.below(6) {
        0 => Value::str(""),
        1 | 2 => Value::str(["a", "bb", "ccc"][rng.below(3) as usize]),
        _ => {
            *fresh += 1;
            Value::str(format!("s{fresh}"))
        }
    }
}

/// One of the two modelled tables: `keyed(id INT PRIMARY KEY, x FLOAT,
/// s STRING, b BOOL)` or `loose(s STRING, x FLOAT)` without a key.
struct Modelled {
    view: &'static str,
    table: &'static str,
    keyed: bool,
    rows: Vec<Tuple>,
    next_id: i64,
    fresh: u64,
    lag: Lag,
    /// Rows changed by the patches logged since the checkpoint, which a
    /// reopened catalog replays.
    replayed: usize,
}

impl Modelled {
    fn schema(&self) -> Schema {
        if self.keyed {
            Schema::of(&[
                ("id", DataType::Int),
                ("x", DataType::Float),
                ("s", DataType::Str),
                ("b", DataType::Bool),
            ])
        } else {
            Schema::of(&[("s", DataType::Str), ("x", DataType::Float)])
        }
    }

    fn new_row(&mut self, rng: &mut TestRng) -> Tuple {
        self.next_id += 1;
        self.row_with_id(self.next_id, rng)
    }

    fn row_with_id(&mut self, id: i64, rng: &mut TestRng) -> Tuple {
        let (x, s) = (float_cell(rng), str_cell(rng, &mut self.fresh));
        Tuple::new(if self.keyed {
            vec![Value::Int(id), x, s, Value::Bool(rng.below(2) == 0)]
        } else {
            vec![s, x]
        })
    }

    /// Register the table, with `n` rows, as the extent of a view, so
    /// that `Catalog::patch_extent` applies whole `RowPatch`es to it.
    fn register(&mut self, cat: &Catalog, n: usize, rng: &mut TestRng) {
        let mut b = Table::builder(self.table, self.schema());
        if self.keyed {
            b = b.primary_key(&["id"]).unwrap();
        }
        for _ in 0..n {
            let row = self.new_row(rng);
            b.push(row.clone()).unwrap();
            self.rows.push(row);
        }
        cat.add(b.build().unwrap()).unwrap();
        let def = MatViewDef {
            name: self.view.into(),
            tables: vec!["base".into()],
            preds: vec![],
            group_cols: vec![Col::base(RelId(0), 0)],
            aggs: vec![AggSpec::count_star()],
            column_names: vec!["k".into(), "n".into()],
        };
        cat.register_matview(MatViewMeta {
            layout: ExtentLayout::of(&def),
            extent: self.table.into(),
            base_versions: vec![0],
            def,
        })
        .unwrap();
    }

    /// A random patch and whether the table must accept it.
    fn patch(&mut self, rng: &mut TestRng) -> (RowPatch, bool) {
        let len = self.rows.len();
        let touched = positions(len, rng.below(5) as usize, rng);
        let (at_updates, deletes): (Vec<usize>, Vec<usize>) =
            touched.iter().partition(|_| rng.below(2) == 0);
        let mut patch = RowPatch {
            updates: Vec::new(),
            deletes,
            inserts: Vec::new(),
        };
        for at in at_updates {
            // Usually the row keeps its key; sometimes it takes a new one.
            let id = match rng.below(4) {
                0 => self.next_id + 100 + at as i64,
                _ => self.rows[at].get(0).as_i64().unwrap_or(0),
            };
            patch.updates.push((at, self.row_with_id(id, rng)));
        }
        for _ in 0..rng.below(4) {
            let row = self.new_row(rng);
            patch.inserts.push(row);
        }
        let mut valid = true;
        match rng.below(12) {
            0 if len > 0 => {
                patch.deletes.push(len + rng.below(3) as usize);
                valid = false;
            }
            1 if patch.deletes.len() >= 2 => {
                patch.deletes.reverse();
                valid = false;
            }
            2 if !patch.updates.is_empty() && !patch.deletes.contains(&patch.updates[0].0) => {
                // A position both updated and deleted.
                patch.deletes.push(patch.updates[0].0);
                patch.deletes.sort_unstable();
                valid = false;
            }
            3 => {
                let mut short = self.new_row(rng).into_values();
                short.pop();
                patch.inserts.push(Tuple::new(short));
                valid = false;
            }
            4 => {
                let mut ill = self.new_row(rng).into_values();
                ill[1] = Value::Bool(true);
                patch.inserts.push(Tuple::new(ill));
                valid = false;
            }
            5 if self.keyed && len > 0 => {
                // A key some stored row holds (and may be giving up).
                let id = self.rows[rng.below(len as u64) as usize]
                    .get(0)
                    .as_i64()
                    .unwrap();
                let dup = self.row_with_id(id, rng);
                patch.inserts.push(dup);
            }
            _ => {}
        }
        // Well-formed, the patch stands or falls with key uniqueness of
        // the rows it leaves.
        if valid && self.keyed {
            let after = patched(&self.rows, &patch);
            let keys: HashSet<&Value> = after.iter().map(|r| r.get(0)).collect();
            valid = keys.len() == after.len();
        }
        (patch, valid)
    }

    /// Everything the table answers, against the model. `again`: the
    /// last patch computed the statistics anew, so they and the
    /// histograms are exact; otherwise they are sound at `lag`.
    fn check(&self, cat: &Catalog, lag: Lag, again: bool, step: usize) {
        let t = cat.get(self.table).unwrap();
        let rows = &self.rows;
        assert!(
            columns_hold(&t, rows),
            "step {step}: {:?} vs {rows:?}",
            t.rows()
        );
        let bytes: usize = rows.iter().map(Tuple::width).sum();
        assert_eq!(t.byte_size(), bytes as u64, "step {step}");
        for (i, r) in rows.iter().enumerate() {
            let found = t.find_key(&r.project(&[0]));
            assert_eq!(found, self.keyed.then_some(i), "step {step}");
        }
        let (exact, got) = (analyze(rows, t.schema().len()), t.stats());
        if again {
            assert_exact(got, &exact, step);
            // A copy reads them, so that no check builds a histogram.
            let copy = Table::clone(&t);
            for p in 0..t.schema().len() {
                let want = histogram_of(rows, p);
                assert_eq!(hist_bits(copy.histogram(p)), hist_bits(want.as_ref()));
            }
        } else {
            assert_sound(got, &exact, lag, step);
        }
        // A string column's dictionary stays within twice its `distinct`.
        for (p, g) in got.columns.iter().enumerate() {
            if let Some(strs) = t.column(p).as_strs() {
                assert!(strs.dict().len() as u64 <= 2 * g.distinct, "step {step}");
            }
        }
    }
}

/// What an accepted patch makes of a row vector.
fn patched(rows: &[Tuple], patch: &RowPatch) -> Vec<Tuple> {
    let mut rows = rows.to_vec();
    for (at, row) in &patch.updates {
        rows[*at] = row.clone();
    }
    let mut at = 0;
    rows.retain(|_| {
        at += 1;
        !patch.deletes.contains(&(at - 1))
    });
    rows.extend(patch.inserts.iter().cloned());
    rows
}

/// `a.s = b.s` as a nested loop over the two tables' string columns —
/// two dictionaries that never met — against the same join over the
/// model rows: equality and hash agree across the dictionaries, and
/// gathering both sides into one column keeps every string.
fn joined_on_strings(cat: &Catalog, a: &Modelled, b: &Modelled) {
    let (ta, tb) = (cat.get(a.table).unwrap(), cat.get(b.table).unwrap());
    let (ca, cb) = (ta.column(2), tb.column(0));
    let hashes = |c: &ColumnVec| {
        let mut out = Vec::new();
        hash_columns([c], 0..c.len(), &mut out);
        out
    };
    let (ha, hb) = (hashes(ca), hashes(cb));
    let mut out = ca.empty_like();
    let mut want = Vec::new();
    for (i, ra) in a.rows.iter().enumerate() {
        for (j, rb) in b.rows.iter().enumerate() {
            let equal = ra.get(2) == rb.get(0);
            assert_eq!(ca.eq_rows(i, cb, j), equal, "rows {i} and {j}");
            if equal {
                assert_eq!(ha[i], hb[j]);
                out.append_gather(ca, &[i as u32]).unwrap();
                out.append_gather(cb, &[j as u32]).unwrap();
                want.extend([ra.get(2).clone(), rb.get(0).clone()]);
            }
        }
    }
    let got: Vec<Value> = (0..out.len()).map(|i| out.value_at(i)).collect();
    assert_eq!(got, want);
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random `RowPatch` histories — updates, deletes and inserts in one
    /// patch, rejected patches, statements rolled back, a checkpoint —
    /// over a keyed and a keyless table, each checked after every step
    /// against a plain `Vec<Tuple>`: `rows()`, every `column(p)` cell,
    /// `row(i)`, `find_key`, `byte_size`, `stats()`; a reader that took
    /// the table first keeps what it saw; and what the log and the
    /// snapshot encoded from the columns reopens as the same rows.
    #[test]
    fn tables_agree_with_a_row_model(seed in 0u64..1_000_000, initial in 0usize..40) {
        let mut rng = TestRng::deterministic("row_model", seed as u32);
        let dir = tmpdir(&format!("model-{seed}"));
        let cat = Catalog::open(&dir).unwrap();
        let mut keyed = Modelled {
            view: "v_keyed", table: "keyed", keyed: true, rows: vec![], next_id: 0, fresh: 0,
            lag: Lag::default(), replayed: 0,
        };
        let mut loose = Modelled {
            view: "v_loose", table: "loose", keyed: false, rows: vec![], next_id: 0, fresh: 1000,
            lag: Lag::default(), replayed: 0,
        };
        keyed.register(&cat, initial, &mut rng);
        loose.register(&cat, initial / 2, &mut rng);
        keyed.check(&cat, Lag::default(), true, 0);
        loose.check(&cat, Lag::default(), true, 0);

        for step in 1..=40 {
            let m = if rng.below(3) == 0 { &mut loose } else { &mut keyed };
            let reader = (step % 2 == 0).then(|| (cat.get(m.table).unwrap(), m.rows.clone()));
            let (patch, valid) = m.patch(&mut rng);
            let before = cat.describe_state();
            // One valid patch in four is applied inside a statement that
            // then fails, after a second patch of its own.
            let rolled_back = valid && rng.below(4) == 0;
            if rolled_back {
                let more = RowPatch { inserts: vec![m.new_row(&mut rng)], ..RowPatch::default() };
                let aborted = cat.statement(|| {
                    cat.patch_extent(m.view, patch.clone(), vec![step as u64])?;
                    cat.patch_extent(m.view, more, vec![0])?;
                    Err::<(), _>(AggViewError::Exec("abort".into()))
                });
                prop_assert!(aborted.is_err());
            } else {
                let applied = cat.patch_extent(m.view, patch.clone(), vec![step as u64]);
                prop_assert_eq!(applied.is_ok(), valid, "step {}: {:?}", step, patch);
            }
            let mut again = false;
            if valid && !rolled_back {
                m.rows = patched(&m.rows, &patch);
                again = m.lag.patch(patch.len(), m.rows.len());
                m.replayed += patch.len();
            } else {
                prop_assert_eq!(cat.describe_state(), before, "step {}", step);
            }
            m.check(&cat, m.lag, again, step);
            if let Some((held, rows)) = reader {
                prop_assert!(columns_hold(&held, &rows), "step {}", step);
            }
            if step == 20 {
                cat.checkpoint().unwrap();
                keyed.replayed = 0;
                loose.replayed = 0;
            }
        }

        joined_on_strings(&cat, &keyed, &loose);
        drop(cat);
        // (The two stand-in views come back quarantined: no base table.)
        // Replay computes the statistics from the checkpoint's tables and
        // carries them through the logged patches.
        let reopened = Catalog::open(&dir).unwrap();
        keyed.check(&reopened, Lag(keyed.replayed as u64), false, 41);
        loose.check(&reopened, Lag(loose.replayed as u64), false, 41);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
