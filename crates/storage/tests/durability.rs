//! Durable-catalog integration tests: reopen recovers exactly what was
//! committed, a statement of several mutations is one frame or nothing,
//! checkpoints fold the WAL into a snapshot without losing anything,
//! recovery is idempotent, torn/garbage WAL tails are tolerated, and a
//! corrupt snapshot is reported as corruption rather than silently
//! recovered around.

use aggview_common::{
    tuple, AggSpec, AggViewError, Col, DataType, IoFaultKind, RelId, ScheduledIoFaults, Schema,
    Value,
};
use aggview_storage::catalog::WAL_FILE;
use aggview_storage::matview::{ExtentLayout, MatViewDef, MatViewMeta};
use aggview_storage::snapshot::SNAPSHOT_FILE;
use aggview_storage::{Catalog, Table, WalReader, WalRecord};
use std::path::PathBuf;
use std::sync::Arc;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggview-dur-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn dept() -> Arc<Table> {
    let mut b = Table::builder(
        "dept",
        Schema::of(&[("dno", DataType::Int), ("budget", DataType::Float)]),
    )
    .primary_key(&["dno"])
    .unwrap();
    b.push(tuple![0, 100.0]).unwrap();
    b.push(tuple![1, 200.0]).unwrap();
    b.build().unwrap()
}

fn emp() -> Arc<Table> {
    Table::builder(
        "emp",
        Schema::of(&[("eno", DataType::Int), ("dno", DataType::Int)]),
    )
    .primary_key(&["eno"])
    .unwrap()
    .foreign_key(&["dno"], "dept", &[0])
    .unwrap()
    .build()
    .unwrap()
}

/// A minimal valid view over `emp`, with an extent table shaped to its
/// computed layout.
fn view_over_emp(catalog: &Catalog, name: &str) -> (MatViewMeta, Arc<Table>) {
    let def = MatViewDef {
        name: name.to_string(),
        tables: vec!["emp".to_string()],
        preds: vec![],
        group_cols: vec![Col::base(RelId(0), 1)],
        aggs: vec![AggSpec::count_star()],
        column_names: vec!["dno".to_string(), "n".to_string()],
    };
    let layout = ExtentLayout::of(&def);
    let fields: Vec<(String, DataType)> = (0..layout.width)
        .map(|i| (format!("c{i}"), DataType::Int))
        .collect();
    let refs: Vec<(&str, DataType)> = fields.iter().map(|(n, t)| (n.as_str(), *t)).collect();
    let extent = Table::builder(MatViewMeta::extent_name(name), Schema::of(&refs))
        .build()
        .unwrap();
    let meta = MatViewMeta {
        extent: MatViewMeta::extent_name(name),
        layout,
        base_versions: vec![catalog.data_version("emp")],
        def,
    };
    (meta, extent)
}

/// A representative committed workload: tables with keys, inserts,
/// an out-of-band modification, and a registered materialized view.
fn workload(cat: &Catalog) {
    cat.add(dept()).unwrap();
    cat.add(emp()).unwrap();
    cat.append_rows("emp", vec![tuple![10, 0], tuple![11, 1]])
        .unwrap();
    cat.append_rows("emp", vec![tuple![12, 1]]).unwrap();
    cat.mark_modified("dept").unwrap();
    let (meta, extent) = view_over_emp(cat, "by_dno");
    cat.add(extent).unwrap();
    cat.register_matview(meta).unwrap();
}

#[test]
fn reopen_recovers_tables_rows_versions_and_matviews() {
    let dir = tmpdir("reopen");
    let expected = {
        let cat = Catalog::open(&dir).unwrap();
        workload(&cat);
        cat.describe_state()
    };
    let cat = Catalog::open(&dir).unwrap();
    assert_eq!(cat.describe_state(), expected);
    // Version counters are exact, not merely consistent.
    assert_eq!(cat.data_version("emp"), 3); // add + 2 inserts
    assert_eq!(cat.data_version("dept"), 2); // add + mark_modified
    let meta = cat.matview("by_dno").unwrap();
    assert!(!meta.is_quarantined());
    assert_eq!(meta.base_versions, vec![3]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_statement_is_one_frame_or_nothing() {
    let dir = tmpdir("stmt");
    let cat = Catalog::open(&dir).unwrap();
    workload(&cat);
    let wal = dir.join(WAL_FILE);
    let frames = |n: usize| {
        let contents = WalReader::read_committed(&wal).unwrap();
        assert_eq!(contents.records.len(), n);
        contents.records
    };
    let logged = frames(7).len();
    let body = || {
        cat.append_rows("emp", vec![tuple![13, 0]])?;
        cat.mark_modified("dept")?;
        cat.delete_rows("emp", &[0]).map(drop)
    };

    // Its body fails: nothing in memory, nothing in the log.
    let before = cat.describe_state();
    let failed: Result<(), _> = cat.statement(|| {
        body()?;
        // Not while a statement is open, either.
        assert_eq!(cat.checkpoint().unwrap_err().kind(), "catalog");
        Err(AggViewError::Exec("abort".into()))
    });
    assert_eq!(failed.unwrap_err().kind(), "exec");
    assert_eq!(cat.describe_state(), before);
    frames(logged);

    // Its one fsync fails: the same, and the next one starts clean.
    let faults = Arc::new(ScheduledIoFaults::at("wal.fsync", 0, IoFaultKind::Error));
    cat.set_io_faults(faults.clone());
    assert_eq!(cat.statement(body).unwrap_err().kind(), "io");
    assert_eq!(faults.hits(), 1);
    assert_eq!(cat.describe_state(), before);
    frames(logged);

    // It commits: one frame more, holding its three records in order.
    cat.statement(body).unwrap();
    assert_eq!(faults.hits(), 2, "one fsync");
    let records = frames(logged + 1);
    let WalRecord::Statement(members) = &records[logged].1 else {
        panic!("{:?}", records[logged]);
    };
    assert!(
        matches!(
            members[..],
            [
                WalRecord::InsertBatch { .. },
                WalRecord::MarkModified { .. },
                WalRecord::DeleteBatch { .. }
            ]
        ),
        "{members:?}"
    );
    let committed = cat.describe_state();
    assert_ne!(committed, before);
    drop(cat);
    assert_eq!(Catalog::open(&dir).unwrap().describe_state(), committed);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn checkpoint_truncates_wal_and_preserves_state() {
    let dir = tmpdir("ckpt");
    let wal = dir.join(WAL_FILE);
    let (expected, closed) = {
        let cat = Catalog::open(&dir).unwrap();
        workload(&cat);
        let closed = WalReader::read_committed(&wal).unwrap().committed_len;
        cat.checkpoint().unwrap();
        (cat.describe_state(), closed)
    };
    // The log holds no records and ends right after its magic; the file
    // keeps its blocks, at most twice the interval it closed. The
    // snapshot carries the state.
    let contents = WalReader::read_committed(&wal).unwrap();
    assert!(contents.records.is_empty(), "{:?}", contents.records);
    assert_eq!(contents.committed_len, 8);
    let kept = std::fs::metadata(&wal).unwrap().len();
    assert!(
        kept > 8 && kept <= 2 * closed,
        "{kept} bytes after {closed}"
    );
    assert!(dir.join(SNAPSHOT_FILE).exists());
    let cat = Catalog::open(&dir).unwrap();
    assert_eq!(cat.describe_state(), expected);

    // Mutations after the checkpoint land in the (fresh) WAL and
    // survive another reopen alongside the snapshot contents.
    cat.append_rows("emp", vec![tuple![13, 0]]).unwrap();
    let expected2 = cat.describe_state();
    drop(cat);
    let cat = Catalog::open(&dir).unwrap();
    assert_eq!(cat.describe_state(), expected2);
    assert_eq!(cat.get("emp").unwrap().len(), 4);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A crash between the snapshot's rename and the log's reset leaves the
/// snapshot beside the frames it covers: recovery skips them, and LSNs
/// run on from the snapshot's, behind the old frames and after the next
/// reset alike.
#[test]
fn a_crash_between_snapshot_and_reset_keeps_lsns_running() {
    let dir = tmpdir("ckpt-crash");
    let wal = dir.join(WAL_FILE);
    let lsns = || -> Vec<u64> {
        let contents = WalReader::read_committed(&wal).unwrap();
        contents.records.iter().map(|(lsn, _)| *lsn).collect()
    };
    let expected = {
        let faults = ScheduledIoFaults::at("wal.truncate", 0, IoFaultKind::Error);
        let cat = Catalog::open_with_faults(&dir, Arc::new(faults)).unwrap();
        workload(&cat);
        assert_eq!(cat.checkpoint().unwrap_err().kind(), "io");
        cat.describe_state()
    };
    assert!(dir.join(SNAPSHOT_FILE).exists());
    let covered = lsns();
    let last = *covered.last().unwrap();
    let cat = Catalog::open(&dir).unwrap();
    assert_eq!(cat.describe_state(), expected);
    cat.append_rows("emp", vec![tuple![13, 0]]).unwrap();
    assert_eq!(lsns(), [covered, vec![last + 1]].concat());
    cat.checkpoint().unwrap();
    cat.append_rows("emp", vec![tuple![14, 1]]).unwrap();
    assert_eq!(lsns(), vec![last + 2]);
    let expected = cat.describe_state();
    drop(cat);
    for _ in 0..2 {
        assert_eq!(Catalog::open(&dir).unwrap().describe_state(), expected);
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn recovery_is_idempotent() {
    let dir = tmpdir("idem");
    {
        let cat = Catalog::open(&dir).unwrap();
        workload(&cat);
    }
    let first = Catalog::open(&dir).unwrap().describe_state();
    let second = Catalog::open(&dir).unwrap().describe_state();
    assert_eq!(first, second);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_recovers_committed_prefix() {
    let dir = tmpdir("torn");
    let expected = {
        let cat = Catalog::open(&dir).unwrap();
        workload(&cat);
        cat.describe_state()
    };
    // A crash mid-append leaves a prefix of the next frame: a plausible
    // length header and part of a payload.
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[0x40, 0, 0, 0, 0xAA, 0xBB, 0xCC]);
    std::fs::write(&wal, &bytes).unwrap();
    let cat = Catalog::open(&dir).unwrap();
    assert_eq!(cat.describe_state(), expected);
    // The torn tail is also physically dropped by the next append, so a
    // further mutation and reopen stay exact.
    cat.append_rows("emp", vec![tuple![14, 1]]).unwrap();
    let expected2 = cat.describe_state();
    drop(cat);
    assert_eq!(Catalog::open(&dir).unwrap().describe_state(), expected2);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn crc_garbage_tail_recovers_committed_prefix() {
    let dir = tmpdir("crc");
    let expected = {
        let cat = Catalog::open(&dir).unwrap();
        workload(&cat);
        cat.describe_state()
    };
    // A full-length frame of recycled bytes: length parses, CRC cannot.
    let wal = dir.join(WAL_FILE);
    let mut bytes = std::fs::read(&wal).unwrap();
    bytes.extend_from_slice(&[4, 0, 0, 0, 0xDE, 0xAD, 0xBE, 0xEF, 1, 2, 3, 4]);
    std::fs::write(&wal, &bytes).unwrap();
    assert_eq!(Catalog::open(&dir).unwrap().describe_state(), expected);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn corrupt_snapshot_is_an_error_not_data_loss() {
    let dir = tmpdir("snapcorrupt");
    {
        let cat = Catalog::open(&dir).unwrap();
        workload(&cat);
        cat.checkpoint().unwrap();
    }
    let snap = dir.join(SNAPSHOT_FILE);
    let mut bytes = std::fs::read(&snap).unwrap();
    let mid = bytes.len() / 2;
    bytes[mid] ^= 0xFF;
    std::fs::write(&snap, &bytes).unwrap();
    let err = Catalog::open(&dir).unwrap_err();
    assert_eq!(err.kind(), "corrupt");
    assert!(!err.is_retryable(), "corruption must never be retried");
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn missing_extent_quarantines_view_on_recovery() {
    let dir = tmpdir("quarantine");
    {
        let cat = Catalog::open(&dir).unwrap();
        cat.add(dept()).unwrap();
        cat.add(emp()).unwrap();
        // Register the view without ever adding its extent table —
        // recovery must demote it, never trust it.
        let (meta, _extent) = view_over_emp(&cat, "ghost");
        cat.register_matview(meta).unwrap();
    }
    let cat = Catalog::open(&dir).unwrap();
    let meta = cat.matview("ghost").unwrap();
    assert!(meta.is_quarantined());
    assert!(meta.is_stale(&cat), "quarantined extents are always stale");
    // Idempotent: a second recovery sees the same quarantined state.
    drop(cat);
    let again = Catalog::open(&dir).unwrap();
    assert!(again.matview("ghost").unwrap().is_quarantined());
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn in_memory_catalog_stays_in_memory() {
    let cat = Catalog::new();
    cat.add(dept()).unwrap();
    cat.append_rows("dept", vec![tuple![2, 300.0]]).unwrap();
    assert!(!cat.is_durable());
    assert!(cat.dir().is_none());
    assert_eq!(cat.checkpoint().unwrap_err().kind(), "catalog");
}

#[test]
fn import_from_seeds_a_durable_catalog() {
    let dir = tmpdir("import");
    let src = Catalog::new();
    workload(&src);
    let dst = Catalog::open(&dir).unwrap();
    dst.import_from(&src).unwrap();
    assert_eq!(dst.len(), src.len());
    assert_eq!(
        dst.get("emp").unwrap().rows(),
        src.get("emp").unwrap().rows()
    );
    // The imported view was fresh in the source, so it must be fresh in
    // the destination (re-anchored to the destination's counters) and
    // survive a reopen that way.
    assert!(!dst.matview("by_dno").unwrap().is_stale(&dst));
    drop(dst);
    let dst = Catalog::open(&dir).unwrap();
    assert!(!dst.matview("by_dno").unwrap().is_stale(&dst));

    // A stale view must arrive quarantined — import never launders
    // staleness into freshness.
    src.mark_modified("emp").unwrap();
    assert!(src.matview("by_dno").unwrap().is_stale(&src));
    let dir2 = tmpdir("import2");
    let dst2 = Catalog::open(&dir2).unwrap();
    dst2.import_from(&src).unwrap();
    assert!(dst2.matview("by_dno").unwrap().is_quarantined());
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&dir2).unwrap();
}

#[test]
fn value_types_round_trip_through_wal_and_snapshot() {
    let dir = tmpdir("values");
    let expected = {
        let cat = Catalog::open(&dir).unwrap();
        let t = Table::builder(
            "mixed",
            Schema::of(&[
                ("i", DataType::Int),
                ("f", DataType::Float),
                ("s", DataType::Str),
            ]),
        )
        .build()
        .unwrap();
        cat.add(t).unwrap();
        cat.append_rows(
            "mixed",
            vec![
                tuple![1, 1.5, "naïve ünïcode"],
                tuple![-9, f64::MIN_POSITIVE, ""],
                aggview_common::Tuple::new(vec![
                    Value::Int(i64::MIN),
                    Value::Float(-0.0),
                    Value::str("end"),
                ]),
                // An integer in the FLOAT column is stored widened.
                tuple![7, 50000, "int"],
            ],
        )
        .unwrap();
        // UPDATE stores what INSERT does, and hands back the row stored.
        let pairs = cat.update_rows("mixed", &[0], vec![tuple![1, 50000, "upd"]]);
        assert_eq!(
            format!("{:?}", pairs.unwrap()[0].1.get(1)),
            "Float(50000.0)"
        );
        let refused = cat.append_rows("mixed", vec![tuple![8, "lots", "str"]]);
        assert_eq!(refused.unwrap_err().kind(), "schema");
        cat.describe_state()
    };
    let stored_as_floats = |cat: &Catalog| {
        let t = cat.get("mixed").unwrap();
        assert!(matches!(t.column(1), aggview_common::ColumnVec::Float(_)));
        let f = |i: usize| format!("{:?}", t.row(i).get(1));
        assert_eq!(
            (f(0), f(3)),
            ("Float(50000.0)".into(), "Float(50000.0)".into())
        );
    };
    stored_as_floats(&Catalog::open(&dir).unwrap());
    // Once via WAL replay, once via snapshot.
    assert_eq!(Catalog::open(&dir).unwrap().describe_state(), expected);
    let cat = Catalog::open(&dir).unwrap();
    cat.checkpoint().unwrap();
    drop(cat);
    let cat = Catalog::open(&dir).unwrap();
    assert_eq!(cat.describe_state(), expected);
    stored_as_floats(&cat);
    drop(cat);
    std::fs::remove_dir_all(&dir).unwrap();
}
