//! Differential tests for streaming delta maintenance: randomized
//! mixed INSERT/UPDATE/DELETE batches applied through the SQL frontend
//! must leave every materialized view's extent **byte-identical** to a
//! from-scratch `REFRESH MATERIALIZED VIEW`.
//!
//! All salaries are multiples of 0.5, so float SUM/AVG arithmetic is
//! exact and "byte-identical" is a meaningful bar (with arbitrary
//! floats, incremental subtraction and refresh re-summation may differ
//! in the last ulp — see DESIGN.md §16).
//!
//! The op mix deliberately covers the hard retraction cases: deleting a
//! department wholesale (group deletion — the extent row must vanish),
//! deleting the youngest/cheapest rows (MIN/MAX extremum retraction →
//! targeted recompute), and UPDATEs that move rows between groups
//! (simultaneous retraction from one group and insertion into another).

use aggview::common::ColumnVec;
use aggview::sql::Session;
use aggview::storage::{Catalog, Table};
use aggview::{DataType, Schema, Tuple, Value};
use proptest::prelude::*;

const N_DEPTS: i64 = 4;

/// Binary-exact starting data: 4 departments × 6 employees, salaries
/// multiples of 12.5, even slots young (age < 30); and the departments,
/// two to a region.
fn seed_catalog() -> Catalog {
    let cat = Catalog::new();
    cat.add(emp_table(6)).unwrap();
    let mut d = Table::builder(
        "dept",
        Schema::of(&[("dno", DataType::Int), ("region", DataType::Int)]),
    )
    .primary_key(&["dno"])
    .unwrap();
    for dno in 0..N_DEPTS {
        d.push(Tuple::new(vec![Value::Int(dno), Value::Int(dno % 2)]))
            .unwrap();
    }
    cat.add(d.build().unwrap()).unwrap();
    cat
}

/// `emp` with `per_dept` employees in each of the 4 departments.
fn emp_table(per_dept: i64) -> std::sync::Arc<Table> {
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
    let mut eno = 0i64;
    for dno in 0..N_DEPTS {
        for k in 0..per_dept {
            let sal = 1000.0 + (dno * per_dept + k) as f64 * 12.5;
            let age = if k % 2 == 0 { 21 + k } else { 31 + k };
            e.push(Tuple::new(vec![
                Value::Int(eno),
                Value::Str(format!("p{eno}").into()),
                Value::Int(dno),
                Value::Float(sal),
                Value::Int(age),
            ]))
            .unwrap();
            eno += 1;
        }
    }
    e.build().unwrap()
}

const VIEWS: &[(&str, &str)] = &[
    (
        "vsum",
        "create materialized view vsum(dno, total, n) as \
         select dno, sum(sal), count(*) from emp group by dno",
    ),
    (
        "vrange",
        "create materialized view vrange(dno, lo, hi, n) as \
         select dno, min(sal), max(sal), count(*) from emp group by dno",
    ),
    (
        "vyoung",
        "create materialized view vyoung(dno, avgsal) as \
         select dno, avg(sal) from emp where age < 30 group by dno",
    ),
];

/// Views whose recompute the differential run also covers: keys that
/// live on the joined relation (and no count to witness emptiness, so
/// every retraction recomputes), one keyless group, and a two-column
/// key.
const RECOMPUTED_VIEWS: &[(&str, &str)] = &[
    (
        "vregion",
        "create materialized view vregion(region, lo, hi) as \
         select d.region, min(e.sal), max(e.sal) from emp e, dept d \
         where e.dno = d.dno group by d.region",
    ),
    (
        "vall",
        "create materialized view vall(lo, hi, n) as \
         select min(sal), max(sal), count(*) from emp",
    ),
    (
        "vdnoage",
        "create materialized view vdnoage(dno, age, lo, n) as \
         select dno, age, min(sal), count(*) from emp group by dno, age",
    ),
];

fn extent_rows(s: &Session, view: &str) -> Vec<Tuple> {
    let ext = aggview::storage::MatViewMeta::extent_name(view);
    let mut rows = match s.catalog().get(&ext) {
        Ok(t) => t.rows().to_vec(),
        Err(_) => Vec::new(),
    };
    rows.sort();
    rows
}

/// xorshift64*: deterministic op generator, independent of any RNG
/// crate surface.
struct Rng(u64);
impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0.wrapping_add(0x9e3779b97f4a7c15);
        self.0 = x;
        x ^= x >> 30;
        x = x.wrapping_mul(0xbf58476d1ce4e5b9);
        x ^= x >> 27;
        x = x.wrapping_mul(0x94d049bb133111eb);
        x ^ (x >> 31)
    }
    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// One random DML statement. Salaries stay multiples of 0.5.
fn random_dml(rng: &mut Rng, next_eno: &mut i64) -> String {
    let dno = rng.below(N_DEPTS as u64) as i64;
    match rng.below(6) {
        0 | 1 => {
            let eno = *next_eno;
            *next_eno += 1;
            let sal = 500.0 + rng.below(200) as f64 * 12.5;
            let age = 18 + rng.below(40) as i64;
            format!("insert into emp values ({eno}, 'n{eno}', {dno}, {sal:?}, {age})")
        }
        2 => format!("update emp set sal = sal + 12.5 where dno = {dno}"),
        3 => {
            let to = (dno + 1) % N_DEPTS;
            format!("update emp set dno = {to}, age = age + 1 where dno = {dno} and age < 30")
        }
        4 => format!("delete from emp where dno = {dno}"),
        5 => {
            let cutoff = 20 + rng.below(15) as i64;
            format!("delete from emp where dno = {dno} and age < {cutoff}")
        }
        _ => unreachable!(),
    }
}

/// Apply `rounds` random DML statements; after every one, the
/// incrementally maintained extent of each view must equal the extent
/// a full refresh rebuilds.
fn run_differential(seed: u64, rounds: usize) {
    let mut s = Session::new(seed_catalog());
    let views = || VIEWS.iter().chain(RECOMPUTED_VIEWS);
    for (_, create) in views() {
        s.execute(create).unwrap();
    }
    let mut rng = Rng(seed);
    let mut next_eno = 10_000i64;
    for round in 0..rounds {
        let sql = random_dml(&mut rng, &mut next_eno);
        s.execute(&sql).unwrap();
        for (view, _) in views() {
            let meta = s.catalog().matview(view).unwrap();
            assert!(
                !meta.is_stale(s.catalog()),
                "round {round} `{sql}` left {view} stale"
            );
            let incremental = extent_rows(&s, view);
            s.execute(&format!("refresh materialized view {view}"))
                .unwrap();
            let refreshed = extent_rows(&s, view);
            assert_eq!(
                incremental, refreshed,
                "round {round} `{sql}`: incremental extent of {view} \
                 diverged from refresh"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Incremental maintenance is byte-identical to refresh across
    /// randomized mixed-DML histories.
    #[test]
    fn mixed_dml_matches_refresh_1_thread(seed in 0u64..1_000_000) {
        run_differential(seed, 10);
    }
}

/// A directed history that forces every retraction edge in one run:
/// extremum deletion, whole-group deletion, cross-group moves, and a
/// re-insert into a previously emptied group.
#[test]
fn directed_retraction_gauntlet() {
    let mut s = Session::new(seed_catalog());
    for (_, create) in VIEWS {
        s.execute(create).unwrap();
    }
    let history = [
        "delete from emp where dno = 0 and sal <= 1012.5", // min extremum out
        "update emp set sal = sal + 500.0 where dno = 1",  // max shifts
        "update emp set dno = 2, age = age + 1 where dno = 1 and age < 30",
        "delete from emp where dno = 3", // group gone
        "insert into emp values (7777, 'back', 3, 2000.5, 24)", // group reborn
        "update emp set dno = 0 where dno = 3", // gone again
    ];
    for sql in history {
        s.execute(sql).unwrap();
        for (view, _) in VIEWS {
            let incremental = extent_rows(&s, view);
            s.execute(&format!("refresh materialized view {view}"))
                .unwrap();
            assert_eq!(
                incremental,
                extent_rows(&s, view),
                "`{sql}` diverged for {view}"
            );
        }
    }
    // dept 3 was emptied twice: its extent rows must be gone.
    assert!(!extent_rows(&s, "vsum")
        .iter()
        .any(|r| r.get(0) == &Value::Int(3)));
}

/// Rows `vyoung`'s WHERE excludes (`age >= 30`) change its extent by
/// nothing: the maintenance plans over such a delta are provably empty
/// and answered without running. The other views take the rows, and
/// every extent stays bitwise equal to a refresh.
#[test]
fn rows_a_view_filters_out_leave_it_equal_to_refresh() {
    let mut s = Session::new(seed_catalog());
    for (_, create) in VIEWS.iter().chain(RECOMPUTED_VIEWS) {
        s.execute(create).unwrap();
    }
    let young = extent_rows(&s, "vyoung");
    let history = [
        "insert into emp values (8801, 'old', 3, 3000.5, 64)",
        "update emp set sal = sal + 250.0, age = age + 10 where age >= 30 and dno = 1",
    ];
    for sql in history {
        s.execute(sql).unwrap();
        assert_eq!(extent_rows(&s, "vyoung"), young, "`{sql}` moved vyoung");
        for (view, _) in VIEWS.iter().chain(RECOMPUTED_VIEWS) {
            let incremental = extent_rows(&s, view);
            s.execute(&format!("refresh materialized view {view}"))
                .unwrap();
            assert_eq!(
                incremental,
                extent_rows(&s, view),
                "`{sql}` diverged for {view}"
            );
        }
    }
}

/// DML costs what it changes, not what it leaves alone: the log of a
/// one-row INSERT maintained into three views is one statement frame of
/// 1 + 3 records whose bytes do not depend on the size of the base
/// table.
#[test]
fn wal_bytes_of_a_one_row_insert_do_not_depend_on_table_size() {
    use aggview::storage::catalog::WAL_FILE;
    use aggview::storage::wal::WAL_MAGIC;
    use aggview::storage::{WalReader, WalRecord};
    let logged = |per_dept: i64| -> u64 {
        let dir =
            std::env::temp_dir().join(format!("aggview-walsize-{per_dept}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let mut s = Session::open(&dir).unwrap();
        s.catalog().add(emp_table(per_dept)).unwrap();
        for (_, create) in VIEWS {
            s.execute(create).unwrap();
        }
        s.checkpoint().unwrap();
        let wal = dir.join(WAL_FILE);
        s.execute("insert into emp values (999999, 'late', 0, 512.5, 22)")
            .unwrap();
        let contents = WalReader::read_committed(&wal).unwrap();
        let [(_, WalRecord::Statement(members))] = &contents.records[..] else {
            panic!("one statement, one frame: {:?}", contents.records);
        };
        assert!(
            matches!(
                members[..],
                [
                    WalRecord::InsertBatch { .. },
                    WalRecord::PatchExtent { .. },
                    WalRecord::PatchExtent { .. },
                    WalRecord::PatchExtent { .. }
                ]
            ),
            "{members:?}"
        );
        for (view, _) in VIEWS {
            assert!(!s.catalog().matview(view).unwrap().is_stale(s.catalog()));
        }
        let bytes = contents.committed_len - WAL_MAGIC.len() as u64;
        drop(s);
        std::fs::remove_dir_all(&dir).unwrap();
        bytes
    };
    let (small, large) = (logged(250), logged(4000));
    assert_eq!(small, large, "1 000 vs 16 000 base rows");
    assert!(small < 1024, "{small} bytes for one row and three groups");
}

/// An integer literal written to the FLOAT column `sal` is the Float it
/// widens to: in the column, in what a scan returns, in every view
/// maintained from it (bitwise equal to a refresh), after a checkpoint
/// and a reopen, whether INSERT or UPDATE wrote it. A string is refused.
#[test]
fn an_integer_written_to_a_float_column_is_stored_as_a_float() {
    let dir = std::env::temp_dir().join(format!("aggview-intfloat-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let check = |s: &mut Session, n: usize| {
        assert!(matches!(
            s.catalog().get("emp").unwrap().column(3),
            ColumnVec::Float(_)
        ));
        let got = s
            .execute("select eno, sal from emp where sal > 40000.0")
            .unwrap();
        let sals: Vec<String> = got.rows.iter().map(|r| format!("{:?}", r.get(1))).collect();
        assert_eq!(sals, vec!["Float(50000.0)"; n]);
        for (view, _) in VIEWS {
            let incremental = format!("{:?}", extent_rows(s, view));
            s.execute(&format!("refresh materialized view {view}"))
                .unwrap();
            assert_eq!(incremental, format!("{:?}", extent_rows(s, view)), "{view}");
        }
    };
    let mut s = Session::open(&dir).unwrap();
    s.catalog().add(emp_table(6)).unwrap();
    for (_, create) in VIEWS {
        s.execute(create).unwrap();
    }
    s.execute("insert into emp values (99001, 'pat', 0, 50000, 25)")
        .unwrap();
    s.execute("update emp set sal = 50000 where eno = 1")
        .unwrap();
    check(&mut s, 2);
    let refused = s.execute("insert into emp values (99002, 'sam', 1, 'lots', 26)");
    assert_eq!(refused.unwrap_err().kind(), "schema");

    s.checkpoint().unwrap();
    s.execute("insert into emp values (99003, 'kim', 2, 50000, 27)")
        .unwrap();
    s.execute("update emp set sal = 25000 + 25000 where eno = 2")
        .unwrap();
    drop(s);
    let mut s = Session::open(&dir).unwrap();
    check(&mut s, 4);
    drop(s);
    std::fs::remove_dir_all(&dir).unwrap();
}
