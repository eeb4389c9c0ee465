//! `dml_maintain` — writes beside reads: a durable session over `emp`
//! with three materialized views (SUM/COUNT, MIN/MAX/COUNT, a filtered
//! AVG) and a statement stream of 32% INSERT (1-20 rows), 24% UPDATE,
//! 24% DELETE and 20% SELECTs that an extent answers. Catalog mutation
//! (table rebuild, statistics), delta maintenance and the WAL do the
//! work. The generator keeps a shadow copy of `emp`, applies each
//! statement to it, and every SELECT, checkpoint and the reopened
//! session are checked against it.

use super::{extent_rows, ms_since, Scale, SetupTimes};
use crate::oracle::{from_tuples, read_emps, same_rows, Acc, Cell, Emp, Row};
use crate::report::Outcome;
use crate::rng::Rng;
use aggview_common::Result;
use aggview_sql::Session;
use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};
use std::path::Path;
use std::time::Instant;

const MATVIEW_DDL: &str = "\
create materialized view dept_pay(dno, total, n) as \
  select dno, sum(sal), count(*) from emp group by dno; \
create materialized view dept_range(dno, lo, hi, n) as \
  select dno, min(sal), max(sal), count(*) from emp group by dno; \
create materialized view young_avg(dno, asal) as \
  select dno, avg(sal) from emp where age < 30 group by dno";

/// The SELECTs of the stream; each is answerable from one extent.
pub const QUERIES: [&str; 3] = [
    "select dno, sum(sal), count(*) from emp group by dno",
    "select dno, min(sal), max(sal), count(*) from emp group by dno",
    "select dno, avg(sal) from emp where age < 30 group by dno",
];

pub const TEMPLATE_NAMES: [&str; 6] = [
    "insert",
    "update",
    "delete",
    "sum_count",
    "min_max",
    "young_avg",
];

/// How much of the system a session of the traced run includes: the
/// differences between them attribute DML time to layers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Variant {
    /// In memory, no materialized views: parse + scan + catalog mutation.
    Memory,
    /// In memory with the three views: adds delta maintenance.
    MemoryViews,
    /// Durable with the three views: adds the WAL. What users run.
    Durable,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Insert,
    Update,
    Delete,
    /// Index into [`QUERIES`].
    Select(usize),
}

impl Kind {
    pub fn template(self) -> usize {
        match self {
            Kind::Insert => 0,
            Kind::Update => 1,
            Kind::Delete => 2,
            Kind::Select(q) => 3 + q,
        }
    }

    pub fn is_dml(self) -> bool {
        !matches!(self, Kind::Select(_))
    }
}

pub struct DmlStmt {
    pub kind: Kind,
    pub sql: String,
}

pub fn config(seed: u64, scale: Scale) -> EmpDeptConfig {
    EmpDeptConfig {
        n_depts: scale.pick(8, 100),
        emps_per_dept: scale.pick(25, 60),
        young_fraction: 0.1,
        low_budget_fraction: 0.3,
        seed,
    }
}

/// Statements between checkpoints.
pub fn checkpoint_every(scale: Scale) -> usize {
    scale.pick(12, 100)
}

/// Generate `emp`/`dept`, open a session of the given variant over them
/// and create the views. `dir` is used by [`Variant::Durable`] only.
pub fn open(
    seed: u64,
    scale: Scale,
    variant: Variant,
    dir: &Path,
    times: &mut SetupTimes,
) -> Result<Session> {
    let t = Instant::now();
    let generated = gen_empdept(&config(seed, scale))?;
    times.gen_ms += ms_since(t);
    let mut session = match variant {
        Variant::Durable => {
            let session = Session::open(dir)?;
            session.catalog().import_from(&generated)?;
            session
        }
        Variant::Memory | Variant::MemoryViews => Session::new(generated),
    };
    session.exec.threads = 1;
    if variant != Variant::Memory {
        let t = Instant::now();
        session.execute(MATVIEW_DDL)?;
        times.matview_build_ms += ms_since(t);
        let t = Instant::now();
        session.execute("refresh materialized view dept_range")?;
        times.matview_refresh_ms += ms_since(t);
        times.extent_rows += extent_rows(session.catalog()) as f64;
    }
    if variant == Variant::Durable {
        session.checkpoint()?;
    }
    Ok(session)
}

/// The seeded statement stream and the shadow table it maintains.
pub struct Stream {
    rng: Rng,
    pub shadow: Vec<Emp>,
    n_depts: i64,
    next_eno: i64,
    /// Kinds left in the current block.
    block: Vec<u8>,
}

impl Stream {
    pub fn new(seed: u64, session: &Session) -> Stream {
        let shadow = read_emps(session.catalog());
        let n_depts = session.catalog().get("dept").map_or(1, |t| t.len()) as i64;
        let next_eno = shadow.iter().map(|e| e.eno).max().unwrap_or(0) + 1;
        Stream {
            rng: Rng::fork(seed, 2),
            shadow,
            n_depts,
            next_eno,
            block: Vec::new(),
        }
    }

    fn some_eno(&mut self) -> i64 {
        self.shadow[self.rng.below(self.shadow.len() as u64) as usize].eno
    }

    /// Draw the next statement and apply it to the shadow table. Kinds
    /// come in shuffled blocks of 25 (8 INSERT, 6 UPDATE, 6 DELETE, 5
    /// SELECT), so every run sees the same mix whatever its seed and
    /// however many statements fit in its time.
    pub fn next_stmt(&mut self) -> DmlStmt {
        if self.block.is_empty() {
            self.block = [(8, 0u8), (6, 1), (6, 2), (5, 3)]
                .iter()
                .flat_map(|&(n, kind)| std::iter::repeat_n(kind, n))
                .collect();
            for i in (1..self.block.len()).rev() {
                self.block.swap(i, self.rng.below(i as u64 + 1) as usize);
            }
        }
        match self.block.pop() {
            Some(0) => self.insert(),
            Some(1) => self.update(),
            Some(2) => self.delete(),
            _ => {
                let q = self.rng.below(QUERIES.len() as u64) as usize;
                DmlStmt {
                    kind: Kind::Select(q),
                    sql: QUERIES[q].to_string(),
                }
            }
        }
    }

    fn insert(&mut self) -> DmlStmt {
        let n = self.rng.range(1, 20);
        let mut values = Vec::new();
        for _ in 0..n {
            let e = Emp {
                eno: self.next_eno,
                name: format!("hire{}", self.next_eno),
                dno: self.rng.range(0, self.n_depts - 1),
                // Cents, so the SQL literal and the shadow hold the same f64.
                sal: self.rng.range(3_000_000, 20_000_000) as f64 / 100.0,
                age: self.rng.range(18, 64),
            };
            self.next_eno += 1;
            values.push(format!(
                "({}, '{}', {}, {:.2}, {})",
                e.eno, e.name, e.dno, e.sal, e.age
            ));
            self.shadow.push(e);
        }
        DmlStmt {
            kind: Kind::Insert,
            sql: format!("insert into emp values {}", values.join(", ")),
        }
    }

    fn update(&mut self) -> DmlStmt {
        let sql = match self.rng.below(3) {
            0 => {
                let (eno, raise) = (self.some_eno(), self.rng.range(100, 5000));
                for e in self.shadow.iter_mut().filter(|e| e.eno == eno) {
                    e.sal += raise as f64;
                }
                format!("update emp set sal = sal + {raise} where eno = {eno}")
            }
            1 => {
                // Birthdays: moves rows across young_avg's `age < 30` filter.
                let (dno, age) = (self.rng.range(0, self.n_depts - 1), self.rng.range(25, 33));
                for e in self
                    .shadow
                    .iter_mut()
                    .filter(|e| e.dno == dno && e.age == age)
                {
                    e.age += 1;
                }
                format!("update emp set age = age + 1 where dno = {dno} and age = {age}")
            }
            _ => {
                // A transfer: leaves one group of every view, joins another.
                let (eno, dno) = (self.some_eno(), self.rng.range(0, self.n_depts - 1));
                for e in self.shadow.iter_mut().filter(|e| e.eno == eno) {
                    e.dno = dno;
                }
                format!("update emp set dno = {dno} where eno = {eno}")
            }
        };
        DmlStmt {
            kind: Kind::Update,
            sql,
        }
    }

    fn delete(&mut self) -> DmlStmt {
        // Ranges average as many rows as an INSERT adds, so the table
        // neither grows nor shrinks over a run.
        let (lo, span) = (self.some_eno(), self.rng.range(1, 27));
        self.shadow.retain(|e| e.eno < lo || e.eno >= lo + span);
        DmlStmt {
            kind: Kind::Delete,
            sql: format!("delete from emp where eno >= {lo} and eno < {}", lo + span),
        }
    }

    /// What `QUERIES[q]` must return, from the shadow table alone.
    pub fn expected(&self, q: usize) -> Vec<Row> {
        let mut accs = vec![Acc::default(); self.n_depts as usize];
        for e in self.shadow.iter().filter(|e| q != 2 || e.age < 30) {
            accs[e.dno as usize].add(e.sal);
        }
        accs.iter()
            .enumerate()
            .filter(|(_, a)| a.n > 0)
            .map(|(dno, a)| {
                let dno = Cell::I(dno as i64);
                match q {
                    0 => vec![dno, Cell::F(a.sum), Cell::I(a.n)],
                    1 => vec![dno, Cell::F(a.min), Cell::F(a.max), Cell::I(a.n)],
                    _ => vec![dno, Cell::F(a.avg())],
                }
            })
            .collect()
    }

    /// The whole `emp` table, as `select eno, dno, sal, age from emp`
    /// must return it.
    pub fn expected_table(&self) -> Vec<Row> {
        self.shadow
            .iter()
            .map(|e| {
                vec![
                    Cell::I(e.eno),
                    Cell::I(e.dno),
                    Cell::F(e.sal),
                    Cell::I(e.age),
                ]
            })
            .collect()
    }
}

/// Check the three queries (each must be answered by an extent scan and
/// match the shadow table) and, when `table` is set, the base table
/// itself, tallying the outcome.
pub fn verify(
    session: &mut Session,
    stream: &Stream,
    table: bool,
    what: &str,
    outcome: &mut Outcome,
) {
    let mut check = |sql: &str, want: Vec<Row>, extent: bool| {
        let checked = session
            .execute(sql)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                if extent && !r.plan.contains("ExtentScan") {
                    return Err(format!("not answered from an extent:\n{}", r.plan));
                }
                same_rows(from_tuples(&r.rows), want)
            });
        if let Err(e) = &checked {
            eprintln!("dml_maintain: {what}: `{sql}`: {e}");
        }
        outcome.tally(1, u64::from(checked.is_err()));
    };
    for (q, sql) in QUERIES.iter().enumerate() {
        check(sql, stream.expected(q), true);
    }
    if table {
        check(
            "select eno, dno, sal, age from emp",
            stream.expected_table(),
            false,
        );
    }
}
