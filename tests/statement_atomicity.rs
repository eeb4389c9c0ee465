//! One statement, one commit: a statement that changes the catalog —
//! DML with the view maintenance it causes, `CREATE MATERIALIZED VIEW`,
//! `REFRESH` — is present as a whole or absent as a whole, in two
//! places:
//!
//! * **on disk** — after any injected fault at the statement's write or
//!   fsync, a reopened directory holds exactly the statements that
//!   returned `Ok`, every view fresh;
//! * **in memory** — after any `Err` from `Session::execute` (a failed
//!   commit, a budget abort in the middle of maintenance) rows, version
//!   counters, statistics, key lookups, view metadata and stamps are as
//!   before the statement.
//!
//! The property tests drive random INSERT/UPDATE/DELETE streams through
//! a durable session over two views and compare it, after every
//! statement, with an in-memory reference session that executed exactly
//! the statements that returned `Ok`.

use aggview::common::{IoFaultKind, ScheduledIoFaults};
use aggview::core::governor::{ResourceGovernor, ResourceLimits};
use aggview::core::CostModel;
use aggview::executor::ExecOptions;
use aggview::sql::Session;
use aggview::storage::catalog::WAL_FILE;
use aggview::storage::codec::{crc32, enc_rows, Enc};
use aggview::storage::stats::analyze;
use aggview::storage::{Catalog, MatViewMeta, Table, WalReader, WalRecord};
use aggview::{DataType, Schema, Tuple, Value};
use proptest::prelude::*;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const N_DEPTS: i64 = 4;

fn tmpdir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("aggview-stmt-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// 4 departments × 5 employees; salaries are multiples of 12.5, so
/// float sums are exact and an incrementally maintained extent can be
/// compared with a refreshed one byte for byte.
fn emp_table() -> Arc<Table> {
    let mut e = Table::builder(
        "emp",
        Schema::of(&[
            ("eno", DataType::Int),
            ("name", DataType::Str),
            ("dno", DataType::Int),
            ("sal", DataType::Float),
            ("age", DataType::Int),
        ]),
    )
    .primary_key(&["eno"])
    .unwrap();
    for eno in 0..N_DEPTS * 5 {
        e.push(Tuple::new(vec![
            Value::Int(eno),
            Value::Str(format!("p{eno}").into()),
            Value::Int(eno % N_DEPTS),
            Value::Float(1000.0 + eno as f64 * 12.5),
            Value::Int(20 + eno),
        ]))
        .unwrap();
    }
    e.build().unwrap()
}

const VIEWS: &[(&str, &str)] = &[
    (
        "vrange",
        "create materialized view vrange(dno, lo, hi, n) as \
         select dno, min(sal), max(sal), count(*) from emp group by dno",
    ),
    (
        "vsum",
        "create materialized view vsum(dno, total, n) as \
         select dno, sum(sal), count(*) from emp group by dno",
    ),
];

/// A session over `emp` and the two views: durable in `dir`, or in
/// memory. Both go through the same calls, so their version counters
/// start equal.
fn session(dir: Option<&Path>) -> Session {
    let mut s = match dir {
        Some(dir) => Session::open(dir).unwrap(),
        None => Session::new(Catalog::new()),
    };
    s.exec.threads = 1;
    s.catalog().add(emp_table()).unwrap();
    for (_, create) in VIEWS {
        s.execute(create).unwrap();
    }
    s
}

/// xorshift-style statement generator, independent of any RNG crate.
struct Rng(u64);
impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        (x ^ (x >> 31)) % n
    }
}

fn random_insert(rng: &mut Rng, next_eno: &mut i64) -> String {
    let eno = *next_eno;
    *next_eno += 1;
    let dno = rng.below(N_DEPTS as u64 + 1);
    let sal = 500.0 + rng.below(200) as f64 * 12.5;
    let age = 18 + rng.below(40);
    format!("insert into emp values ({eno}, 'n{eno}', {dno}, {sal:?}, {age})")
}

/// One random DML statement; covers a new group, a moved group, an
/// emptied group and the retraction of a group's minimum.
fn random_dml(rng: &mut Rng, next_eno: &mut i64) -> String {
    let dno = rng.below(N_DEPTS as u64);
    match rng.below(6) {
        0 | 1 => random_insert(rng, next_eno),
        2 => format!("update emp set sal = sal + 12.5 where dno = {dno}"),
        3 => format!(
            "update emp set dno = {} where dno = {dno} and age < 30",
            (dno + 1) % N_DEPTS as u64
        ),
        4 => format!("delete from emp where dno = {dno}"),
        _ => format!(
            "delete from emp where dno = {dno} and age < {}",
            22 + rng.below(15)
        ),
    }
}

fn copy_dir(src: &Path, dst: &Path) {
    let _ = std::fs::remove_dir_all(dst);
    std::fs::create_dir_all(dst).unwrap();
    for entry in std::fs::read_dir(src).unwrap() {
        let entry = entry.unwrap();
        std::fs::copy(entry.path(), dst.join(entry.file_name())).unwrap();
    }
}

fn sorted_extent(cat: &Catalog, view: &str) -> Vec<Tuple> {
    let mut rows = cat
        .get(&MatViewMeta::extent_name(view))
        .unwrap()
        .rows()
        .to_vec();
    rows.sort();
    rows
}

/// What must hold after every statement, committed or not: the durable
/// session equals the reference that ran exactly the `Ok` statements,
/// so does what a crash right now would recover, every view is fresh,
/// and every extent is what a from-scratch refresh would build.
fn check(durable: &Session, reference: &Session, dir: &Path, scratch: &Path, ctx: &str) {
    let cat = durable.catalog();
    let state = cat.describe_state();
    assert_eq!(state, reference.catalog().describe_state(), "{ctx}");
    copy_dir(dir, scratch);
    let reopened = Catalog::open(scratch).unwrap();
    assert_eq!(reopened.describe_state(), state, "{ctx}: reopened");
    let rebuilt = Catalog::new();
    rebuilt.import_from(cat).unwrap();
    for (view, _) in VIEWS {
        for (which, c) in [("live", cat), ("reopened", &reopened)] {
            assert!(
                !c.matview(view).unwrap().is_stale(c),
                "{ctx}: {view} stale ({which})"
            );
        }
        aggview::executor::matview::refresh(
            view,
            &rebuilt,
            CostModel::default(),
            ExecOptions::default(),
            &ResourceGovernor::unlimited(),
        )
        .unwrap();
        assert_eq!(
            sorted_extent(cat, view),
            sorted_extent(&rebuilt, view),
            "{ctx}: {view} differs from a refresh"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// One fault, of any shape, at the k-th write or fsync of the
    /// stream: the statement it hits returns `Err` and is absent, every
    /// other one is present.
    #[test]
    fn a_fault_at_the_commit_loses_exactly_that_statement(
        seed in 0u64..1_000_000,
        k in 0u64..8,
        site in 0usize..2,
        kind in 0usize..3,
    ) {
        let (site, kind) = (["wal.fsync", "wal.append"][site], IoFaultKind::ALL[kind]);
        let (dir, scratch) = (tmpdir("fault"), tmpdir("fault-copy"));
        let mut durable = session(Some(&dir));
        let mut reference = session(None);
        durable.max_retries = 0;
        let faults = Arc::new(ScheduledIoFaults::at(site, k, kind));
        durable.catalog().set_io_faults(faults.clone());
        let mut rng = Rng(seed);
        let mut next_eno = 10_000;
        let mut failed = 0;
        for round in 0..10 {
            let sql = random_dml(&mut rng, &mut next_eno);
            let ctx = format!("{site} {kind:?} k={k} round {round} `{sql}`");
            match durable.execute(&sql) {
                Ok(_) => {
                    reference.execute(&sql).unwrap();
                }
                Err(e) => {
                    prop_assert_eq!(e.kind(), "io", "{}", ctx);
                    failed += 1;
                }
            }
            check(&durable, &reference, &dir, &scratch, &ctx);
        }
        // Garbage written behind a frame does not fail its statement;
        // every other fault fails the one it hits, and only that one.
        let harmless = site == "wal.append" && kind == IoFaultKind::TrailingGarbage;
        prop_assert_eq!(failed, usize::from(faults.fired() && !harmless));
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&scratch);
    }

    /// Every other statement is an INSERT under a two-row budget: the
    /// base row is in, the first view may be patched, and the governor
    /// stops the maintenance. The statement returns `Err` and nothing
    /// of it remains.
    #[test]
    fn a_budget_abort_in_mid_maintenance_leaves_no_trace(seed in 0u64..1_000_000) {
        let (dir, scratch) = (tmpdir("budget"), tmpdir("budget-copy"));
        let mut durable = session(Some(&dir));
        let mut reference = session(None);
        let mut rng = Rng(seed);
        let mut next_eno = 10_000;
        for round in 0..10 {
            let starved = round % 2 == 1;
            let sql = if starved {
                random_insert(&mut rng, &mut next_eno)
            } else {
                random_dml(&mut rng, &mut next_eno)
            };
            let ctx = format!("round {round} `{sql}`");
            if starved {
                durable.limits = ResourceLimits::unlimited().with_max_rows(2);
                let err = durable.execute(&sql).unwrap_err();
                prop_assert_eq!(err.kind(), "resource-exhausted", "{}", ctx);
                durable.limits = ResourceLimits::unlimited();
            } else {
                durable.execute(&sql).unwrap();
                reference.execute(&sql).unwrap();
            }
            check(&durable, &reference, &dir, &scratch, &ctx);
        }
        std::fs::remove_dir_all(&dir).unwrap();
        let _ = std::fs::remove_dir_all(&scratch);
    }
}

/// Consultations of `wal.fsync` — one per `sync_data` of the log —
/// while `f` runs.
fn fsyncs(s: &mut Session, f: impl FnOnce(&mut Session)) -> u64 {
    let counter = Arc::new(ScheduledIoFaults::at(
        "wal.fsync",
        u64::MAX,
        IoFaultKind::Error,
    ));
    s.catalog().set_io_faults(counter.clone());
    f(s);
    counter.hits()
}

#[test]
fn a_statement_is_one_fsync_however_many_views_it_maintains() {
    let dir = tmpdir("fsyncs");
    let mut s = session(Some(&dir));
    let create = |s: &mut Session| {
        s.execute(
            "create materialized view vyoung(dno, avgsal) as \
             select dno, avg(sal) from emp where age < 30 group by dno",
        )
        .unwrap();
    };
    assert_eq!(fsyncs(&mut s, create), 1, "extent and metadata together");
    for sql in [
        "insert into emp values (900, 'late', 0, 512.5, 22)",
        "update emp set sal = sal + 12.5 where dno = 1",
        "delete from emp where dno = 2",
        "refresh materialized view vsum",
    ] {
        let run = |s: &mut Session| {
            let status = s.execute(sql).unwrap().rows[0].get(0).to_string();
            assert!(
                sql.starts_with("refresh") || status.contains("vrange, vsum, vyoung"),
                "{status}"
            );
        };
        assert_eq!(fsyncs(&mut s, run), 1, "{sql}");
    }
    // A statement that changes nothing logs nothing.
    let none = |s: &mut Session| {
        s.execute("delete from emp where dno = 99").unwrap();
    };
    assert_eq!(fsyncs(&mut s, none), 0);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// A mutator called outside any statement is a statement of one, and
/// what it writes is the frame it has always written.
#[test]
fn a_lone_append_writes_the_plain_insert_frame() {
    let dir = tmpdir("plain");
    let cat = Catalog::open(&dir).unwrap();
    cat.add(emp_table()).unwrap();
    let wal = dir.join(WAL_FILE);
    let before = WalReader::read_committed(&wal).unwrap().committed_len as usize;
    let rows = vec![Tuple::new(vec![
        Value::Int(900),
        Value::str("late"),
        Value::Int(0),
        Value::Float(512.5),
        Value::Int(22),
    ])];
    cat.append_rows("EMP", rows.clone()).unwrap();
    // [u32 len][u32 crc][u64 lsn][u8 kind 1][table][rows]
    let mut e = Enc::new();
    e.u64(1);
    e.u8(1);
    e.str("emp");
    enc_rows(&mut e, &rows);
    let payload = e.into_bytes();
    let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
    frame.extend_from_slice(&crc32(&payload).to_le_bytes());
    frame.extend_from_slice(&payload);
    // ... and behind it the end-of-log marker, eight 0xFF bytes.
    frame.extend_from_slice(&[0xFF; 8]);
    assert_eq!(std::fs::read(&wal).unwrap()[before..], frame[..]);
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn a_failed_fsync_is_retried_and_the_statement_lands_once() {
    let dir = tmpdir("retry");
    let mut s = session(Some(&dir));
    let sql = "insert into emp values (900, 'late', 0, 512.5, 22)";
    let frames = |dir: &Path| {
        WalReader::read_committed(&dir.join(WAL_FILE))
            .unwrap()
            .records
            .len()
    };
    let logged = frames(&dir);
    s.catalog().set_io_faults(Arc::new(ScheduledIoFaults::at(
        "wal.fsync",
        0,
        IoFaultKind::Error,
    )));
    let r = s.execute(sql).unwrap();
    assert_eq!(r.retries, 1);
    let emp = s.catalog().get("emp").unwrap();
    assert_eq!(emp.len(), 21);
    assert!(emp.find_key(&Tuple::new(vec![Value::Int(900)])).is_some());
    drop(emp);
    let contents = WalReader::read_committed(&dir.join(WAL_FILE)).unwrap();
    assert_eq!(contents.records.len(), logged + 1, "one frame for it");
    assert!(matches!(
        &contents.records[logged].1,
        WalRecord::Statement(members) if members.len() == 3
    ));

    // Without retries the failure surfaces, and nothing has changed —
    // in memory or for whoever opens the directory next.
    s.max_retries = 0;
    let before = s.catalog().describe_state();
    s.catalog().set_io_faults(Arc::new(ScheduledIoFaults::at(
        "wal.fsync",
        0,
        IoFaultKind::Error,
    )));
    let err = s
        .execute("insert into emp values (901, 'later', 1, 525.0, 23)")
        .unwrap_err();
    assert_eq!(err.kind(), "io");
    assert!(
        err.message().contains("gave up after 1 attempt(s)"),
        "{err}"
    );
    assert_eq!(s.catalog().describe_state(), before);
    assert_eq!(frames(&dir), logged + 1);
    drop(s);
    assert_eq!(Catalog::open(&dir).unwrap().describe_state(), before);
    std::fs::remove_dir_all(&dir).unwrap();
}

/// After a statement that returned `Err`, the base table is not merely
/// row-equal to what it was: its version counters, its statistics and
/// its key lookups are too, and it takes the next statement as if the
/// failed one had never run.
#[test]
fn an_aborted_statement_leaves_versions_statistics_and_keys_alone() {
    let mut s = session(None);
    // Patch the table once, so that it carries a key index and a
    // statistics summary for the abort to disturb.
    s.execute("insert into emp values (800, 'early', 0, 512.5, 22)")
        .unwrap();
    let cat_versions = |s: &Session| {
        ["emp", "__mv_vrange", "__mv_vsum"]
            .map(|t| (s.catalog().data_version(t), s.catalog().stats_version(t)))
    };
    let (state, versions) = (s.catalog().describe_state(), cat_versions(&s));
    let exact = |s: &Session| {
        let t = s.catalog().get("emp").unwrap();
        let st = t.stats();
        (
            st.rows,
            st.row_width.to_bits(),
            st.columns
                .iter()
                .map(|c| (c.distinct, c.min.map(f64::to_bits), c.max.map(f64::to_bits)))
                .collect::<Vec<_>>(),
            t.byte_size(),
        )
    };
    let stats = exact(&s);

    s.limits = ResourceLimits::unlimited().with_max_rows(2);
    for sql in [
        "insert into emp values (900, 'late', 0, 100.0, 22)",
        "insert into emp values (901, 'newgroup', 9, 100.0, 22)",
    ] {
        let err = s.execute(sql).unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted", "{sql}");
        assert_eq!(s.catalog().describe_state(), state, "{sql}");
        assert_eq!(cat_versions(&s), versions, "{sql}");
        assert_eq!(exact(&s), stats, "{sql}");
        let t = s.catalog().get("emp").unwrap();
        // The statistics restored are carried ones: they contain the
        // truth (rows exact, every value within `[min, max]`).
        let fresh = analyze(t.rows(), 5);
        assert_eq!(t.stats().rows, fresh.rows);
        for (got, want) in t.stats().columns.iter().zip(&fresh.columns) {
            assert!(got.distinct <= fresh.rows);
            let below = |a: Option<f64>, b: Option<f64>| {
                a.zip(b).is_none_or(|(a, b)| a.total_cmp(&b).is_le())
            };
            assert_eq!(got.min.is_some(), want.min.is_some());
            assert!(below(got.min, want.min) && below(want.max, got.max));
        }
        for (i, row) in t.rows().iter().enumerate() {
            assert_eq!(t.find_key(&row.project(&[0])), Some(i));
        }
        assert_eq!(t.find_key(&Tuple::new(vec![Value::Int(900)])), None);
    }
    s.limits = ResourceLimits::unlimited();
    // The key the aborted statement held is free; a stored one is not.
    s.execute("insert into emp values (900, 'late', 0, 100.0, 22)")
        .unwrap();
    let err = s
        .execute("insert into emp values (800, 'again', 0, 100.0, 22)")
        .unwrap_err();
    assert!(err.message().contains("duplicate primary key"), "{err}");
    for (view, _) in VIEWS {
        assert!(!s.catalog().matview(view).unwrap().is_stale(s.catalog()));
    }
}

/// `CREATE MATERIALIZED VIEW` and `REFRESH` are statements too: a
/// failed commit leaves no extent, no metadata and no stamp behind.
#[test]
fn a_failed_create_or_refresh_changes_nothing() {
    let dir = tmpdir("ddl");
    let mut s = session(Some(&dir));
    s.max_retries = 0;
    let fail_next_fsync = |s: &Session| {
        s.catalog().set_io_faults(Arc::new(ScheduledIoFaults::at(
            "wal.fsync",
            0,
            IoFaultKind::ShortWrite,
        )));
    };
    let before = s.catalog().describe_state();
    fail_next_fsync(&s);
    let create = "create materialized view vyoung(dno, avgsal) as \
                  select dno, avg(sal) from emp where age < 30 group by dno";
    assert_eq!(s.execute(create).unwrap_err().kind(), "io");
    assert_eq!(s.catalog().describe_state(), before);
    assert!(s.catalog().matview("vyoung").is_none());
    assert!(!s.catalog().contains("__mv_vyoung"));
    // Not registered for name resolution either: the name is free.
    s.execute(create).unwrap();

    // An out-of-band change makes vsum stale; a refresh that fails to
    // commit leaves it exactly that stale.
    s.catalog().mark_modified("emp").unwrap();
    let before = s.catalog().describe_state();
    fail_next_fsync(&s);
    let err = s.execute("refresh materialized view vsum").unwrap_err();
    assert_eq!(err.kind(), "io");
    assert_eq!(s.catalog().describe_state(), before);
    assert!(s.catalog().matview("vsum").unwrap().is_stale(s.catalog()));
    drop(s);
    assert_eq!(Catalog::open(&dir).unwrap().describe_state(), before);
    std::fs::remove_dir_all(&dir).unwrap();
}
