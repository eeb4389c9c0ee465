//! Torn-tail property tests (the paper-agnostic half of crash safety):
//! for a random committed statement stream, truncating the WAL at
//! *every byte boundary* inside the final record must recover exactly
//! the committed prefix — the final record is gone, nothing else is —
//! and recovering the truncated log twice yields the identical catalog.
//! The same holds when the log recycles the blocks of a longer interval
//! a checkpoint closed, and the final record is torn by laying its new
//! bytes over the old ones rather than by cutting the file.

use aggview_common::{DataType, Schema, Tuple, Value};
use aggview_storage::catalog::WAL_FILE;
use aggview_storage::{Catalog, Table, WalReader};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggview-durprop-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn small_table(name: &str) -> Arc<Table> {
    Table::builder(
        name,
        Schema::of(&[("k", DataType::Int), ("s", DataType::Str)]),
    )
    .build()
    .unwrap()
}

/// One catalog mutation, decoded from a pair of random draws. Applied
/// identically to the durable catalog under test and the in-memory
/// reference that defines "committed prefix".
#[derive(Debug, Clone, Copy)]
enum Op {
    Insert { rows: usize, seed: i64 },
    MarkModified,
    AddTable { suffix: usize },
}

fn decode_ops(raw: &[i64]) -> Vec<Op> {
    let mut next_suffix = 0;
    raw.iter()
        .map(|&seed| match seed.unsigned_abs() % 4 {
            0 | 1 => Op::Insert {
                rows: (seed.unsigned_abs() as usize % 3) + 1,
                seed,
            },
            2 => Op::MarkModified,
            _ => {
                next_suffix += 1;
                Op::AddTable {
                    suffix: next_suffix,
                }
            }
        })
        .collect()
}

fn apply(cat: &Catalog, op: Op) {
    match op {
        Op::Insert { rows, seed } => {
            let batch: Vec<Tuple> = (0..rows)
                .map(|i| {
                    let k = seed.wrapping_mul(31).wrapping_add(i as i64);
                    Tuple::new(vec![Value::Int(k), Value::str(format!("r{k}"))])
                })
                .collect();
            cat.append_rows("t", batch).unwrap();
        }
        Op::MarkModified => cat.mark_modified("t").unwrap(),
        Op::AddTable { suffix } => cat.add(small_table(&format!("t{suffix}"))).unwrap(),
    }
}

/// Copy a durable catalog directory, truncating its WAL to `cut` bytes.
fn clone_with_cut(src: &Path, dst: &Path, cut: u64) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    let wal = std::fs::read(dst.join(WAL_FILE)).unwrap();
    std::fs::write(dst.join(WAL_FILE), &wal[..cut as usize]).unwrap();
}

/// Copy a durable catalog directory, with `wal` as its WAL.
fn clone_with_wal(src: &Path, dst: &Path, wal: &[u8]) {
    clone_with_cut(src, dst, 0);
    std::fs::write(dst.join(WAL_FILE), wal).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn truncating_final_record_recovers_exactly_the_committed_prefix(
        raw in proptest::collection::vec(-100_000i64..100_000, 1..8),
    ) {
        let ops = decode_ops(&raw);
        let dir = tmpdir("stream");
        let scratch = tmpdir("cut");

        // Reference states: `states[i]` is the catalog after the table
        // create plus the first `i` ops.
        let reference = Catalog::new();
        reference.add(small_table("t")).unwrap();
        let mut states = vec![reference.describe_state()];
        let durable = Catalog::open(&dir).unwrap();
        durable.add(small_table("t")).unwrap();
        for &op in &ops {
            apply(&reference, op);
            apply(&durable, op);
            states.push(reference.describe_state());
        }
        prop_assert_eq!(&durable.describe_state(), states.last().unwrap());
        drop(durable);

        let contents = WalReader::read_committed(&dir.join(WAL_FILE)).unwrap();
        // One frame for the create, one per op.
        prop_assert_eq!(contents.records.len(), ops.len() + 1);
        let last_start = contents.frame_ends[contents.frame_ends.len() - 2];
        let last_end = contents.committed_len;

        for cut in last_start..=last_end {
            clone_with_cut(&dir, &scratch, cut);
            let expected = if cut == last_end {
                states.last().unwrap()
            } else {
                // Any cut strictly inside the final record loses exactly
                // that record: the committed prefix is ops[..N-1].
                &states[states.len() - 2]
            };
            let recovered = Catalog::open(&scratch).unwrap();
            prop_assert_eq!(&recovered.describe_state(), expected, "cut at byte {}", cut);
            drop(recovered);
            // Recovery is idempotent: opening the recovered directory
            // again (whose writer dropped the torn tail) is identical.
            let again = Catalog::open(&scratch).unwrap();
            prop_assert_eq!(&again.describe_state(), expected, "re-open at byte {}", cut);
        }

        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&scratch);
    }

    #[test]
    fn a_frame_torn_over_a_recycled_log_recovers_exactly_the_committed_prefix(
        old in proptest::collection::vec(-100_000i64..100_000, 4..12),
        new in proptest::collection::vec(-100_000i64..100_000, 1..6),
    ) {
        let (old, new) = (decode_ops(&old), decode_ops(&new));
        // `decode_ops` numbers added tables from 1 in each list.
        let new: Vec<Op> = new
            .into_iter()
            .map(|op| match op {
                Op::AddTable { suffix } => Op::AddTable { suffix: suffix + 100 },
                op => op,
            })
            .collect();
        let dir = tmpdir("recycled");
        let scratch = tmpdir("overlaid");
        let wal = dir.join(WAL_FILE);

        let reference = Catalog::new();
        reference.add(small_table("t")).unwrap();
        let durable = Catalog::open(&dir).unwrap();
        durable.add(small_table("t")).unwrap();
        for &op in &old {
            apply(&reference, op);
            apply(&durable, op);
        }
        durable.checkpoint().unwrap();
        let (last, first) = new.split_last().unwrap();
        for &op in first {
            apply(&reference, op);
            apply(&durable, op);
        }
        let prefix = reference.describe_state();
        let before = std::fs::read(&wal).unwrap();
        apply(&reference, *last);
        apply(&durable, *last);
        let whole = reference.describe_state();
        prop_assert_eq!(&durable.describe_state(), &whole);
        drop(durable);

        let after = std::fs::read(&wal).unwrap();
        let contents = WalReader::read_committed(&wal).unwrap();
        prop_assert_eq!(contents.records.len(), new.len());
        let last_end = contents.committed_len as usize;
        let last_start = contents.frame_ends.len().checked_sub(2)
            .map_or(8, |i| contents.frame_ends[i] as usize);

        // The commit wrote the frame and the 8-byte end marker; a crash
        // keeps the first `cut` bytes of that write and the old bytes
        // behind them.
        for cut in last_start..=last_end + 8 {
            let mut image = after[..cut].to_vec();
            image.extend_from_slice(before.get(cut..).unwrap_or_default());
            // The frame is recovered iff every one of its bytes is on
            // disk — which old bytes equal to the new ones can complete.
            let expected = if image.get(last_start..last_end) == Some(&after[last_start..last_end]) {
                &whole
            } else {
                &prefix
            };
            clone_with_wal(&dir, &scratch, &image);
            let recovered = Catalog::open(&scratch).unwrap();
            prop_assert_eq!(&recovered.describe_state(), expected, "cut at byte {}", cut);
            drop(recovered);
            let again = Catalog::open(&scratch).unwrap();
            prop_assert_eq!(&again.describe_state(), expected, "re-open at byte {}", cut);
        }

        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&scratch);
    }
}
