//! Crash-point recovery harness.
//!
//! For every durability IO site, every fault kind, and every
//! occurrence of that site in a fixed workload, this test: runs the
//! workload against a durable catalog with exactly that one fault
//! injected, mirrors each operation that *reported success* into an
//! in-memory reference catalog, "crashes" (drops the catalog with no
//! shutdown ceremony), recovers with a plain `Catalog::open`, and
//! asserts:
//!
//! 1. **recovered == committed** — the recovered catalog's state equals
//!    the reference built from successful operations only, where an
//!    operation is a whole statement: one that logs several records
//!    (a base change plus two extent patches; an extent plus its view's
//!    metadata) is recovered with all of them or none;
//! 2. **idempotence** — recovering the same directory again yields the
//!    identical state;
//! 3. **staleness across crashes** — a materialized view the recovered
//!    catalog considers fresh is fresh in the reference too (demotion
//!    to stale is legal, promotion to fresh never is).

use aggview::common::{tuple, IoFaultKind, ScheduledIoFaults};
use aggview::sql::Session;
use aggview::storage::catalog::WAL_FILE;
use aggview::storage::matview::{ExtentLayout, MatViewDef, MatViewMeta};
use aggview::storage::{Catalog, RowPatch, Table, WalReader, WalRecord};
use aggview::{AggSpec, Col, DataType, RelId, Schema};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// The IO sites a durable catalog consults, in first-use order.
const DURABLE_SITES: &[&str] = &[
    "wal.append",
    "wal.fsync",
    "wal.truncate",
    "snapshot.write",
    "snapshot.fsync",
    "snapshot.rename",
];

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggview-crash-{tag}-{}", std::process::id()));
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
    .build()
    .unwrap()
}

fn view_meta(catalog: &Catalog) -> (MatViewMeta, Arc<Table>) {
    view_named(catalog, "by_dno")
}

fn view_named(catalog: &Catalog, name: &str) -> (MatViewMeta, Arc<Table>) {
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

/// Run the fixed workload against `cat`, mirroring every operation that
/// reports success into `reference`. Operations keep going after a
/// failure — exercising the writer's rollback of torn state on the next
/// append. `checkpoint` mutates no logical state, so it is issued to
/// the durable catalog only.
fn run_workload(cat: &Catalog, reference: &Catalog) {
    let both = |durable_ok: bool, mirror: &dyn Fn(&Catalog)| {
        if durable_ok {
            mirror(reference);
        }
    };
    both(cat.add(dept()).is_ok(), &|r| r.add(dept()).unwrap());
    both(cat.add(emp()).is_ok(), &|r| r.add(emp()).unwrap());
    both(
        cat.append_rows("emp", vec![tuple![10, 0], tuple![11, 1]])
            .is_ok(),
        &|r| {
            r.append_rows("emp", vec![tuple![10, 0], tuple![11, 1]])
                .unwrap();
        },
    );
    let _ = cat.checkpoint();
    both(cat.append_rows("emp", vec![tuple![12, 1]]).is_ok(), &|r| {
        r.append_rows("emp", vec![tuple![12, 1]]).unwrap();
    });
    both(cat.mark_modified("dept").is_ok(), &|r| {
        r.mark_modified("dept").unwrap()
    });
    // The view pair (extent table, then meta) is attempted only when
    // the base table exists, and each half is mirrored independently so
    // a fault between the two leaves both catalogs with just the
    // extent. Version counters stay in lock-step across the catalogs
    // (a failed durable op never bumps, and its mirror is skipped), so
    // anchoring each meta to its own catalog's counters yields equal
    // `base_versions`.
    if cat.contains("emp") {
        let (meta, extent) = view_meta(cat);
        let extent_ok = cat.add(extent).is_ok();
        both(extent_ok, &|r| {
            let (_, e) = view_meta(r);
            r.add(e).unwrap();
        });
        if extent_ok {
            both(cat.register_matview(meta.clone()).is_ok(), &|r| {
                let (m, _) = view_meta(r);
                r.register_matview(m).unwrap();
            });
        }
    }
    // A maintenance round on the (empty) extent: two groups appear.
    // Gated on the meta so both catalogs hold the view when it runs.
    let round =
        |c: &Catalog, patch: RowPatch| c.patch_extent("by_dno", patch, vec![c.data_version("emp")]);
    if cat.matview("by_dno").is_some() {
        let patch = RowPatch {
            inserts: vec![tuple![0, 1, 1], tuple![1, 2, 2]],
            ..RowPatch::default()
        };
        both(round(cat, patch.clone()).is_ok(), &|r| {
            round(r, patch.clone()).unwrap();
        });
    }
    // Statements of several records, each one frame: the fault sweep
    // reaches their write and their fsync like any other, and a fault
    // there (a torn half-frame included) must lose every member.
    // First a second view, extent and metadata together...
    let create_second = |c: &Catalog| {
        c.statement(|| {
            let (meta, extent) = view_named(c, "by_dno2");
            c.add(extent)?;
            c.register_matview(meta)
        })
    };
    if cat.contains("emp") {
        both(create_second(cat).is_ok(), &|r| create_second(r).unwrap());
    }
    // ...then what a DML statement over two views does: the base change
    // and both extents' patches. Gated on what its positions assume.
    let insert_maintained = |c: &Catalog| {
        c.statement(|| {
            c.append_rows("emp", vec![tuple![14, 1]])?;
            let stamp = vec![c.data_version("emp")];
            let first = RowPatch {
                updates: vec![(1, tuple![1, 3, 3])],
                ..RowPatch::default()
            };
            c.patch_extent("by_dno", first, stamp.clone())?;
            let second = RowPatch {
                inserts: vec![tuple![0, 1, 1], tuple![1, 3, 3]],
                ..RowPatch::default()
            };
            c.patch_extent("by_dno2", second, stamp)
        })
    };
    if cat.get("__mv_by_dno").is_ok_and(|t| t.len() == 2) && cat.matview("by_dno2").is_some() {
        both(insert_maintained(cat).is_ok(), &|r| {
            insert_maintained(r).unwrap();
        });
    }
    let _ = cat.checkpoint();
    both(cat.append_rows("emp", vec![tuple![13, 0]]).is_ok(), &|r| {
        r.append_rows("emp", vec![tuple![13, 0]]).unwrap();
    });
    // A round with all three edits, replayed from the WAL tail over the
    // snapshot image: positions are only valid when the first round
    // committed, so it is gated on the extent's row count.
    if cat.get("__mv_by_dno").is_ok_and(|t| t.len() == 2) {
        let patch = RowPatch {
            updates: vec![(0, tuple![0, 2, 2])],
            deletes: vec![1],
            inserts: vec![tuple![7, 1, 1]],
        };
        both(round(cat, patch.clone()).is_ok(), &|r| {
            round(r, patch.clone()).unwrap();
        });
    }
    // Mixed DML after a checkpoint: both record kinds (UpdateBatch,
    // DeleteBatch) land in the live WAL tail, so every crash point in
    // this suffix exercises their replay. Positions are only valid when
    // the earlier appends committed, so each op is gated on the durable
    // catalog's current row count.
    if cat.contains("emp") && cat.get("emp").unwrap().rows().len() >= 2 {
        both(
            cat.update_rows("emp", &[1], vec![tuple![11, 0]]).is_ok(),
            &|r| {
                r.update_rows("emp", &[1], vec![tuple![11, 0]]).unwrap();
            },
        );
        both(cat.delete_rows("emp", &[0]).is_ok(), &|r| {
            r.delete_rows("emp", &[0]).unwrap();
        });
    }
    let _ = cat.checkpoint();
    if cat.contains("emp") && !cat.get("emp").unwrap().rows().is_empty() {
        // A delete after the final checkpoint: replayed from the WAL
        // tail over the snapshot image.
        both(cat.delete_rows("emp", &[0]).is_ok(), &|r| {
            r.delete_rows("emp", &[0]).unwrap();
        });
    }
}

/// Versions can legitimately diverge between the durable catalog and
/// the reference once an op fails on only one side (a failed insert
/// still never bumps, but a *skipped* mirror keeps the reference one
/// mutation behind forever after). The workload above is written so
/// every mirrored op succeeds on the reference exactly when it
/// succeeded durably, keeping the two in lock-step; this helper is the
/// equality assertion with a readable diff.
fn assert_state_eq(recovered: &Catalog, reference: &Catalog, ctx: &str) {
    let got = recovered.describe_state();
    let want = reference.describe_state();
    assert_eq!(got, want, "recovered state diverged ({ctx})");
}

#[test]
fn every_crash_point_recovers_exactly_the_committed_state() {
    let mut cases = 0u32;
    for &site in DURABLE_SITES {
        for &kind in IoFaultKind::ALL {
            for nth in 0.. {
                let dir = tmpdir("site");
                let faults = Arc::new(ScheduledIoFaults::at(site, nth, kind));
                let cat = Catalog::open_with_faults(&dir, faults.clone()).unwrap();
                let reference = Catalog::new();
                run_workload(&cat, &reference);
                let delivered = faults.fired();
                drop(cat); // crash: no checkpoint, no shutdown

                let ctx = format!("site={site} kind={kind:?} nth={nth}");
                let recovered = Catalog::open(&dir).unwrap();
                assert_state_eq(&recovered, &reference, &ctx);

                // Staleness across the crash: never fresher than the
                // reference says.
                for name in recovered.matview_names() {
                    let meta = recovered.matview(&name).unwrap();
                    if !meta.is_stale(&recovered) {
                        let ref_meta = reference
                            .matview(&name)
                            .unwrap_or_else(|| panic!("{ctx}: phantom fresh view {name}"));
                        assert!(
                            !ref_meta.is_stale(&reference),
                            "{ctx}: view {name} recovered fresher than committed"
                        );
                    }
                }
                drop(recovered);

                // Idempotence: recovery of a recovered directory is a
                // fixed point.
                let again = Catalog::open(&dir).unwrap();
                assert_state_eq(&again, &reference, &format!("{ctx} (second recovery)"));
                drop(again);
                std::fs::remove_dir_all(&dir).unwrap();

                cases += 1;
                if !delivered {
                    // nth exceeded the number of times the workload
                    // consults this site: the clean run doubles as the
                    // no-fault baseline, and the sweep is complete.
                    break;
                }
            }
        }
    }
    // Every site must have been exercised at least once with a real
    // fault (one clean terminating run per site/kind, plus ≥1 faulted).
    assert!(
        cases >= (DURABLE_SITES.len() * IoFaultKind::ALL.len() * 2) as u32,
        "suspiciously few crash points: {cases}"
    );
}

/// A fault during recovery's own WAL re-open (the tail rollback) must
/// not corrupt anything: the next clean open still lands on the
/// committed state.
#[test]
fn recovery_after_failed_recovery_is_clean() {
    let dir = tmpdir("rerecover");
    let reference = Catalog::new();
    {
        let cat = Catalog::open(&dir).unwrap();
        run_workload(&cat, &reference);
    }
    // The clean run reaches the workload's multi-record statements.
    assert_eq!(reference.get("__mv_by_dno2").unwrap().len(), 2);
    assert!(reference
        .get("emp")
        .unwrap()
        .find_key(&tuple![14])
        .is_some());
    // Fail the first post-recovery append; state must be unchanged.
    let faults = Arc::new(ScheduledIoFaults::at("wal.append", 0, IoFaultKind::Error));
    let cat = Catalog::open_with_faults(&dir, faults).unwrap();
    assert_state_eq(&cat, &reference, "recovery under injector");
    assert!(cat.append_rows("emp", vec![tuple![99, 0]]).is_err());
    assert_state_eq(&cat, &reference, "failed append rolled back");
    drop(cat);
    let clean = Catalog::open(&dir).unwrap();
    assert_state_eq(&clean, &reference, "clean reopen");
    std::fs::remove_dir_all(&dir).unwrap();
}

/// Copy a durable directory, keeping only the first `cut` bytes of its
/// WAL.
fn clone_with_cut(src: &Path, dst: &Path, cut: usize) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
    let wal = std::fs::read(dst.join(WAL_FILE)).unwrap();
    std::fs::write(dst.join(WAL_FILE), &wal[..cut]).unwrap();
}

/// A crash that tears a DML statement's frame at any byte loses the
/// whole statement: the base-table change is not recovered without the
/// extent patch it caused, so the table comes back as it was before the
/// statement and the view comes back *fresh* — and a second recovery
/// agrees with the first.
#[test]
fn torn_statement_is_absent_and_views_stay_fresh() {
    let dir = tmpdir("tornstmt");
    let scratch = tmpdir("tornstmt-cut");
    let mut s = Session::open(&dir).unwrap();
    let cat = s.catalog();
    cat.add(emp()).unwrap();
    cat.append_rows("emp", vec![tuple![10, 0], tuple![11, 1]])
        .unwrap();
    s.execute(
        "create materialized view by_dno(dno, n) as \
         select dno, count(*) from emp group by dno",
    )
    .unwrap();
    let before = s.catalog().describe_state();
    s.execute("insert into emp values (12, 1), (13, 5)")
        .unwrap();
    let committed = s.catalog().describe_state();
    assert_ne!(before, committed);
    drop(s);

    let wal = dir.join(WAL_FILE);
    let contents = WalReader::read_committed(&wal).unwrap();
    let n = contents.records.len();
    let WalRecord::Statement(members) = &contents.records[n - 1].1 else {
        panic!(
            "the statement is the log's last frame: {:?}",
            contents.records
        );
    };
    assert!(
        matches!(
            members[..],
            [WalRecord::InsertBatch { .. }, WalRecord::PatchExtent { .. }]
        ),
        "{members:?}"
    );
    let (start, end) = (
        contents.frame_ends[n - 2] as usize,
        contents.committed_len as usize,
    );
    for cut in start..end {
        clone_with_cut(&dir, &scratch, cut);
        let recovered = Catalog::open(&scratch).unwrap();
        assert_eq!(recovered.describe_state(), before, "cut at {cut}");
        assert!(
            !recovered.matview("by_dno").unwrap().is_stale(&recovered),
            "cut at {cut}: no base change was recovered, so the view is fresh"
        );
        drop(recovered);
        let again = Catalog::open(&scratch).unwrap();
        assert_eq!(
            again.describe_state(),
            before,
            "cut at {cut} (second recovery)"
        );
    }
    clone_with_cut(&dir, &scratch, end);
    let whole = Catalog::open(&scratch).unwrap();
    assert_eq!(whole.describe_state(), committed);
    assert!(!whole.matview("by_dno").unwrap().is_stale(&whole));
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&scratch).unwrap();
}

/// A log written by the commit before extent patches existed (record
/// kinds 0–5 only: every maintenance round a whole-extent `PutTable`
/// plus a `PutMatView`) replays to the state that commit printed, and
/// the recovered views are then maintained by patches.
#[test]
fn log_in_the_previous_format_replays() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/wal_pr11");
    let dir = tmpdir("oldlog");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture.join(WAL_FILE), dir.join(WAL_FILE)).unwrap();
    let contents = WalReader::read_committed(&dir.join(WAL_FILE)).unwrap();
    assert!(contents
        .records
        .iter()
        .all(|(_, r)| !matches!(r, WalRecord::PatchExtent { .. })));
    let expected = std::fs::read_to_string(fixture.join("state.txt")).unwrap();

    let mut s = Session::open(&dir).unwrap();
    assert_eq!(s.catalog().describe_state(), expected);
    for view in ["vsum", "vrange"] {
        assert!(!s.catalog().matview(view).unwrap().is_stale(s.catalog()));
    }
    let before = contents.records.len();
    s.execute("insert into emp values (200, 'n200', 0, 2000.0, 30)")
        .unwrap();
    drop(s);
    let contents = WalReader::read_committed(&dir.join(WAL_FILE)).unwrap();
    let [(_, WalRecord::Statement(kinds))] = &contents.records[before..] else {
        panic!(
            "one statement, one frame: {:?}",
            &contents.records[before..]
        );
    };
    assert!(
        matches!(
            kinds[..],
            [
                WalRecord::InsertBatch { .. },
                WalRecord::PatchExtent { .. },
                WalRecord::PatchExtent { .. }
            ]
        ),
        "{kinds:?}"
    );
    let reopened = Catalog::open(&dir).unwrap();
    assert_eq!(
        reopened.get("__mv_vsum").unwrap().rows()[0],
        tuple![0, 4137.5, 4137.5, 3, 3]
    );
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A checkpoint and a two-statement log tail written before the CRC-32
/// became table-driven (`tests/fixtures/snapshot_agvsnp01`: tables of
/// every column type, signed zeros and a NaN among them, and a
/// materialized view) read back to the state that build printed. A
/// catalog opened from the checkpoint alone writes it again byte for
/// byte, and running the same two statements there logs the same frames.
#[test]
fn files_checksummed_bit_by_bit_read_back_and_are_written_again() {
    let fixture = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures/snapshot_agvsnp01");
    let read = |name: &str| std::fs::read(fixture.join(name)).unwrap();
    let text = |name: &str| String::from_utf8(read(name)).unwrap();
    let dir = tmpdir("oldsnap");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::copy(fixture.join("snapshot.agv"), dir.join("snapshot.agv")).unwrap();
    std::fs::copy(fixture.join(WAL_FILE), dir.join(WAL_FILE)).unwrap();
    assert_eq!(
        Catalog::open(&dir).unwrap().describe_state(),
        text("state.txt")
    );

    let again = tmpdir("oldsnap-again");
    std::fs::create_dir_all(&again).unwrap();
    std::fs::copy(fixture.join("snapshot.agv"), again.join("snapshot.agv")).unwrap();
    let mut s = Session::open(&again).unwrap();
    assert_eq!(s.catalog().describe_state(), text("checkpoint.txt"));
    s.checkpoint().unwrap();
    assert_eq!(
        std::fs::read(again.join("snapshot.agv")).unwrap(),
        read("snapshot.agv")
    );
    s.execute("insert into emp values (101, 'n101', 2, 1212.5, 31)")
        .unwrap();
    s.execute("update emp set sal = sal + 25.0 where dno = 1")
        .unwrap();
    assert_eq!(s.catalog().describe_state(), text("state.txt"));
    drop(s);
    let frames = WalReader::read_committed(&again.join(WAL_FILE)).unwrap();
    assert_eq!(frames.records.len(), 2);
    let log = std::fs::read(again.join(WAL_FILE)).unwrap();
    assert!(
        read(WAL_FILE).starts_with(&log),
        "{} log bytes differ",
        log.len()
    );
    std::fs::remove_dir_all(&dir).unwrap();
    std::fs::remove_dir_all(&again).unwrap();
}

/// A materialized view lives in the catalog, so a reopened session
/// answers a query that names it exactly as the session that created it
/// did, and still refuses to create it a second time.
#[test]
fn a_materialized_view_is_queryable_by_name_after_reopen() {
    let dir = tmpdir("byname");
    let ddl = "create materialized view by_dno(dno, n) as \
               select dno, count(*) from emp group by dno";
    let query = "select v.dno, v.n from by_dno v where v.n > 0 order by dno";
    let before = {
        let mut s = Session::open(&dir).unwrap();
        s.catalog().add(emp()).unwrap();
        s.execute("insert into emp values (10, 0), (11, 1), (12, 1)")
            .unwrap();
        s.execute(ddl).unwrap();
        s.execute("insert into emp values (13, 2)").unwrap();
        s.execute(query).unwrap().rows
    };
    assert_eq!(before, [tuple![0, 1], tuple![1, 2], tuple![2, 1]]);
    let mut s = Session::open(&dir).unwrap();
    assert_eq!(s.execute(query).unwrap().rows, before);
    let err = s.execute(ddl).unwrap_err();
    assert!(err.message().contains("already exists"), "{err}");
    assert_eq!(s.execute(query).unwrap().rows, before);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}
