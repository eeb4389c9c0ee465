//! The independent oracle's data model: plain copies of the generated
//! tables and a multiset comparison of result rows. Expected answers are
//! computed by each workload from these structs with `std` collections
//! only; no optimizer or executor code is involved.

use aggview_common::{Tuple, Value};
use aggview_storage::Catalog;
use std::cmp::Ordering;

/// Relative tolerance on floats (AVG and SUM associate differently
/// across plans).
const FLOAT_TOLERANCE: f64 = 1e-9;

#[derive(Debug, Clone, PartialEq)]
pub enum Cell {
    I(i64),
    F(f64),
    S(String),
}

pub type Row = Vec<Cell>;

impl Cell {
    fn rank(&self) -> u8 {
        match self {
            Cell::I(_) => 0,
            Cell::F(_) => 1,
            Cell::S(_) => 2,
        }
    }

    fn order(&self, other: &Cell) -> Ordering {
        match (self, other) {
            (Cell::I(a), Cell::I(b)) => a.cmp(b),
            (Cell::F(a), Cell::F(b)) => a.total_cmp(b),
            (Cell::S(a), Cell::S(b)) => a.cmp(b),
            _ => self.rank().cmp(&other.rank()),
        }
    }

    fn matches(&self, other: &Cell) -> bool {
        let close =
            |a: f64, b: f64| (a - b).abs() <= FLOAT_TOLERANCE * a.abs().max(b.abs()).max(1.0);
        match (self, other) {
            (Cell::I(a), Cell::I(b)) => a == b,
            (Cell::S(a), Cell::S(b)) => a == b,
            (Cell::F(a), Cell::F(b)) => close(*a, *b),
            // COUNT/SUM over integers may surface as either numeric type.
            (Cell::I(a), Cell::F(b)) | (Cell::F(b), Cell::I(a)) => close(*a as f64, *b),
            _ => false,
        }
    }
}

fn order_rows(a: &Row, b: &Row) -> Ordering {
    a.iter()
        .zip(b)
        .map(|(x, y)| x.order(y))
        .find(|o| o.is_ne())
        .unwrap_or_else(|| a.len().cmp(&b.len()))
}

pub fn from_tuples(rows: &[Tuple]) -> Vec<Row> {
    rows.iter()
        .map(|t| {
            t.values()
                .iter()
                .map(|v| match v {
                    Value::Int(i) => Cell::I(*i),
                    Value::Float(f) => Cell::F(*f),
                    Value::Str(s) => Cell::S(s.to_string()),
                    Value::Bool(b) => Cell::I(i64::from(*b)),
                })
                .collect()
        })
        .collect()
}

/// Compare two results as sorted multisets; `Err` describes the first
/// difference.
pub fn same_rows(mut got: Vec<Row>, mut want: Vec<Row>) -> Result<(), String> {
    if got.len() != want.len() {
        return Err(format!("{} rows, expected {}", got.len(), want.len()));
    }
    got.sort_by(order_rows);
    want.sort_by(order_rows);
    for (i, (g, w)) in got.iter().zip(&want).enumerate() {
        if g.len() != w.len() || !g.iter().zip(w).all(|(x, y)| x.matches(y)) {
            return Err(format!("sorted row {i}: got {g:?}, expected {w:?}"));
        }
    }
    Ok(())
}

#[derive(Debug, Clone, PartialEq)]
pub struct Emp {
    pub eno: i64,
    pub name: String,
    pub dno: i64,
    pub sal: f64,
    pub age: i64,
}

#[derive(Debug, Clone)]
pub struct Dept {
    pub dname: String,
    pub budget: f64,
    pub loc: String,
}

/// `emp` and `dept`; departments are dense, `depts[dno]`.
#[derive(Debug, Clone, Default)]
pub struct EmpDept {
    pub emps: Vec<Emp>,
    pub depts: Vec<Dept>,
}

#[derive(Debug, Clone)]
pub struct Customer {
    pub nno: usize,
    pub cname: String,
    pub segment: String,
    pub acctbal: f64,
}

#[derive(Debug, Clone)]
pub struct Order {
    pub cno: usize,
    pub odate: i64,
    pub status: String,
    pub total: f64,
}

#[derive(Debug, Clone)]
pub struct Line {
    pub ono: usize,
    pub qty: i64,
    pub price: f64,
    pub discount: f64,
}

/// The star schema; every key is dense, so a foreign key is an index.
#[derive(Debug, Clone, Default)]
pub struct Star {
    /// `regions[rno]` = rname.
    pub regions: Vec<String>,
    /// `nations[nno]` = (rno, nname).
    pub nations: Vec<(usize, String)>,
    pub customers: Vec<Customer>,
    pub orders: Vec<Order>,
    pub lines: Vec<Line>,
}

#[derive(Debug, Clone)]
pub enum Tables {
    EmpDept(EmpDept),
    Star(Star),
}

impl Tables {
    /// Plain copies of a workload's generated tables, read back from
    /// the catalog the session runs over.
    pub fn read(catalog: &Catalog) -> Tables {
        if catalog.get("emp").is_ok() {
            Tables::EmpDept(read_empdept(catalog))
        } else {
            Tables::Star(read_star(catalog))
        }
    }

    pub fn empdept(&self) -> &EmpDept {
        match self {
            Tables::EmpDept(t) => t,
            Tables::Star(_) => panic!("workload asked for emp/dept tables over a star catalog"),
        }
    }

    pub fn star(&self) -> &Star {
        match self {
            Tables::Star(t) => t,
            Tables::EmpDept(_) => panic!("workload asked for star tables over an emp/dept catalog"),
        }
    }

    /// Total base rows, for the run record.
    pub fn rows(&self) -> usize {
        match self {
            Tables::EmpDept(t) => t.emps.len() + t.depts.len(),
            Tables::Star(t) => {
                t.regions.len()
                    + t.nations.len()
                    + t.customers.len()
                    + t.orders.len()
                    + t.lines.len()
            }
        }
    }
}

fn int(t: &Tuple, i: usize) -> i64 {
    t.get(i).as_i64().expect("generated column is an integer")
}

fn float(t: &Tuple, i: usize) -> f64 {
    t.get(i).as_f64().expect("generated column is numeric")
}

fn text(t: &Tuple, i: usize) -> String {
    t.get(i)
        .as_str()
        .expect("generated column is a string")
        .to_string()
}

fn table_rows<T>(catalog: &Catalog, name: &str, f: impl Fn(&Tuple) -> T) -> Vec<T> {
    let table = catalog.get(name).expect("generated table exists");
    table.rows().iter().map(f).collect()
}

pub fn read_emps(catalog: &Catalog) -> Vec<Emp> {
    table_rows(catalog, "emp", |t| Emp {
        eno: int(t, 0),
        name: text(t, 1),
        dno: int(t, 2),
        sal: float(t, 3),
        age: int(t, 4),
    })
}

pub fn read_empdept(catalog: &Catalog) -> EmpDept {
    let depts = table_rows(catalog, "dept", |t| Dept {
        dname: text(t, 1),
        budget: float(t, 2),
        loc: text(t, 3),
    });
    EmpDept {
        emps: read_emps(catalog),
        depts,
    }
}

pub fn read_star(catalog: &Catalog) -> Star {
    Star {
        regions: table_rows(catalog, "region", |t| text(t, 1)),
        nations: table_rows(catalog, "nation", |t| (int(t, 1) as usize, text(t, 2))),
        customers: table_rows(catalog, "customer", |t| Customer {
            nno: int(t, 1) as usize,
            cname: text(t, 2),
            segment: text(t, 3),
            acctbal: float(t, 4),
        }),
        orders: table_rows(catalog, "orders", |t| Order {
            cno: int(t, 1) as usize,
            odate: int(t, 2),
            status: text(t, 3),
            total: float(t, 4),
        }),
        lines: table_rows(catalog, "lineitem", |t| Line {
            ono: int(t, 1) as usize,
            qty: int(t, 2),
            price: float(t, 3),
            discount: float(t, 4),
        }),
    }
}

/// Running SUM/COUNT/MIN/MAX of one group.
#[derive(Debug, Clone, Copy)]
pub struct Acc {
    pub n: i64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
}

impl Default for Acc {
    fn default() -> Acc {
        Acc {
            n: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

impl Acc {
    pub fn add(&mut self, x: f64) {
        self.n += 1;
        self.sum += x;
        self.min = self.min.min(x);
        self.max = self.max.max(x);
    }

    pub fn avg(&self) -> f64 {
        self.sum / self.n as f64
    }
}

/// Per-department salary accumulators, indexed by `dno`.
pub fn dept_salaries(t: &EmpDept, keep: impl Fn(&Emp) -> bool) -> Vec<Acc> {
    let mut accs = vec![Acc::default(); t.depts.len()];
    for e in t.emps.iter().filter(|e| keep(e)) {
        accs[e.dno as usize].add(e.sal);
    }
    accs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn multiset_comparison_tolerates_order_and_float_jitter() {
        let a = vec![
            vec![Cell::I(1), Cell::F(0.1 + 0.2)],
            vec![Cell::I(0), Cell::S("x".into())],
        ];
        let b = vec![
            vec![Cell::I(0), Cell::S("x".into())],
            vec![Cell::I(1), Cell::F(0.3)],
        ];
        assert!(same_rows(a.clone(), b).is_ok());
        let c = vec![
            vec![Cell::I(0), Cell::S("x".into())],
            vec![Cell::I(1), Cell::F(0.31)],
        ];
        assert!(same_rows(a.clone(), c).is_err());
        assert!(same_rows(a, vec![]).is_err());
    }
}
