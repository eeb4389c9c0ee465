//! The statistics contract under DML (`aggview_storage::stats` module
//! docs), checked over random INSERT/UPDATE/DELETE histories against a
//! durable catalog:
//!
//! * after every mutation the exact fields — `rows`, `row_width`, and
//!   per column `distinct`, `min`, `max`, `avg_width` — are bit-identical
//!   to `analyze(rows)`, `byte_size` is the sum of the row widths, and
//!   every row is found under its key;
//! * every histogram is the exact histogram of a state at most
//!   `rows / HISTOGRAM_BUCKETS` changed rows old;
//! * a rejected batch (duplicate key on INSERT or UPDATE) leaves rows,
//!   key index, statistics, versions and the WAL untouched;
//! * after every batch, accepted or rejected, the column image scans
//!   read (`Table::column`) is the transpose of the rows, and a reader
//!   that took the table before the batch keeps its rows and its image;
//! * a statement that applied several patches and was then rolled back
//!   leaves rows, versions and the WAL as they were, statistics equal to
//!   `analyze(rows)` and every surviving key findable — and the next
//!   patch is accepted or rejected exactly as on a table that never saw
//!   the rolled-back ones.
//!
//! The op mix includes the cases an incremental summary gets wrong
//! first: deleting the current minimum and maximum, emptying the table,
//! and an UPDATE that swaps the keys of two rows.

use aggview_common::{AggViewError, ColumnVec, DataType, Schema, Tuple, Value};
use aggview_storage::catalog::WAL_FILE;
use aggview_storage::stats::{analyze, Histogram, TableStats, HISTOGRAM_BUCKETS};
use aggview_storage::{Catalog, Table};
use proptest::prelude::*;
use proptest::test_runner::TestRng;
use std::path::PathBuf;

const NCOLS: usize = 4;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggview-statsprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// `t(id INT PRIMARY KEY, g INT, x FLOAT, s STRING)`; `x` sometimes
/// holds an Int (numeric widening), `s` has varying width.
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

fn hist_bits(h: &Option<Histogram>) -> HistBits {
    h.as_ref().map(|h| {
        (
            h.lo.to_bits(),
            h.bounds.iter().map(|b| b.to_bits()).collect(),
        )
    })
}

fn hists(s: &TableStats) -> Vec<HistBits> {
    s.columns.iter().map(|c| hist_bits(&c.histogram)).collect()
}

/// Everything a rejected batch must leave alone.
fn fingerprint(cat: &Catalog, wal: &std::path::Path) -> (String, String, u64, u64, u64) {
    let t = cat.get("t").unwrap();
    (
        cat.describe_state(),
        format!("{:?} {}", t.stats(), t.byte_size()),
        cat.data_version("t"),
        cat.stats_version("t"),
        std::fs::metadata(wal).unwrap().len(),
    )
}

/// Every column of the image against a fresh transpose of the rows,
/// representation (typed or `Mixed`) included.
fn image_is_transpose_of_rows(t: &Table) -> bool {
    (0..NCOLS).all(|p| {
        let fresh = ColumnVec::from_tuples_col(t.rows(), p, t.schema().field(p).ty);
        format!("{:?}", t.column(p)) == format!("{fresh:?}")
    })
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

/// The exact half of the statistics contract, and the key index: the
/// table's statistics are those of its rows, its size is the sum of
/// their widths, and every row is found under its key.
fn assert_exact_and_keyed(t: &Table, step: usize) {
    let (exact, got) = (analyze(t.rows(), NCOLS), t.stats());
    assert_eq!(got.rows, exact.rows, "step {step}");
    assert_eq!(got.row_width.to_bits(), exact.row_width.to_bits());
    for (g, e) in got.columns.iter().zip(&exact.columns) {
        assert_eq!(g.distinct, e.distinct, "step {step}");
        assert_eq!(g.min.map(f64::to_bits), e.min.map(f64::to_bits));
        assert_eq!(g.max.map(f64::to_bits), e.max.map(f64::to_bits));
        assert_eq!(g.avg_width.to_bits(), e.avg_width.to_bits());
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

        // (changed rows so far, exact histograms then) of every state.
        let mut changed = 0u64;
        let mut history = vec![(0u64, hists(cat.get("t").unwrap().stats()))];

        for step in 0..40 {
            let rows = cat.get("t").unwrap().rows().to_vec();
            let kind = rng.below(14);
            let before = fingerprint(&cat, &wal);
            // Every other step a reader holds the table, image built,
            // across the batch: the batch then edits a copy.
            let reader = (step % 2 == 0).then(|| cat.get("t").unwrap());
            prop_assert!(reader.iter().all(|t| image_is_transpose_of_rows(t)));
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
                    let after = fingerprint(&cat, &wal);
                    prop_assert_eq!((after.0, after.2, after.3, after.4), state, "step {}", step);
                    assert_exact_and_keyed(&cat.get("t").unwrap(), step);
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
            match outcome {
                None => prop_assert_eq!(&fingerprint(&cat, &wal), &before, "step {}", step),
                Some(n) => changed += n as u64,
            }

            if let Some(held) = reader {
                prop_assert_eq!(held.rows(), &rows[..], "step {}", step);
                prop_assert!(image_is_transpose_of_rows(&held), "step {}", step);
            }
            let t = cat.get("t").unwrap();
            prop_assert!(image_is_transpose_of_rows(&t), "step {}", step);
            assert_exact_and_keyed(&t, step);
            prop_assert!(cat.stats_fresh("t"));
            let (exact, got) = (analyze(t.rows(), NCOLS), t.stats());

            history.push((changed, hists(&exact)));
            let lag = got.rows / HISTOGRAM_BUCKETS as u64;
            let current = hists(got);
            prop_assert!(
                history.iter().any(|(at, h)| changed - at <= lag && *h == current),
                "step {}: histograms older than {} changed rows ({} rows)",
                step, lag, got.rows
            );
        }

        // Replay goes through the same mutators: a reopened catalog
        // holds the same rows (statistics restart exact there).
        let live = cat.describe_state();
        drop(cat);
        prop_assert_eq!(Catalog::open(&dir).unwrap().describe_state(), live);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
