//! The paper's Emp/Dept running example, as a seeded generator.
//!
//! Example 1 of the paper ("employees below the age of 22 who earn more
//! than the average of the department salary") trades off two plan
//! families whose relative cost depends on:
//!
//! * how many departments there are (the size of the aggregate view), and
//! * how many employees pass the selective predicate (`age < 22`).
//!
//! "If there are many departments but few employees are younger than 22
//! years, then the query B may be more efficient ... if there are few
//! departments but many employees below 22 years old, then execution of
//! A1 and A2 may be significantly less expensive." The knobs below let
//! experiment E1 sweep exactly that grid.

use super::Names;
use crate::catalog::Catalog;
use crate::table::Table;
use aggview_common::{DataType, Result, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for the Emp/Dept generator.
#[derive(Debug, Clone)]
pub struct EmpDeptConfig {
    /// Number of departments.
    pub n_depts: usize,
    /// Employees per department (total emp rows = `n_depts * emps_per_dept`).
    pub emps_per_dept: usize,
    /// Fraction of employees with `age < 22` (the paper's selective
    /// predicate). Ages are drawn so this fraction holds exactly in
    /// expectation.
    pub young_fraction: f64,
    /// Fraction of departments with `budget < 1_000_000` (Example 2's
    /// predicate).
    pub low_budget_fraction: f64,
    /// RNG seed — all data is deterministic given the config.
    pub seed: u64,
}

impl Default for EmpDeptConfig {
    fn default() -> Self {
        EmpDeptConfig {
            n_depts: 100,
            emps_per_dept: 50,
            young_fraction: 0.1,
            low_budget_fraction: 0.3,
            seed: 42,
        }
    }
}

/// Generate `emp` and `dept` into a fresh catalog.
///
/// Schemas (column order matters to tests and examples):
///
/// * `dept(dno INT PK, dname STRING, budget FLOAT, loc STRING)`
/// * `emp(eno INT PK, name STRING, dno INT FK→dept, sal FLOAT, age INT)`
pub fn gen_empdept(cfg: &EmpDeptConfig) -> Result<Catalog> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let catalog = Catalog::new();

    let dept_schema = Schema::of(&[
        ("dno", DataType::Int),
        ("dname", DataType::Str),
        ("budget", DataType::Float),
        ("loc", DataType::Str),
    ]);
    let mut dept = Table::builder("dept", dept_schema).primary_key(&["dno"])?;
    // Rows are arrays and each location is one shared string: a row
    // allocates only its name.
    let locs = LOCS.map(Value::str);
    let mut names = Names::default();
    for d in 0..cfg.n_depts {
        let budget = if rng.gen_bool(cfg.low_budget_fraction.clamp(0.0, 1.0)) {
            rng.gen_range(100_000.0..1_000_000.0)
        } else {
            rng.gen_range(1_000_000.0..10_000_000.0)
        };
        dept.push_values([
            Value::Int(d as i64),
            names.value("dept", d),
            Value::Float(budget),
            locs[d % LOCS.len()].clone(),
        ])?;
    }
    catalog.add(dept.build()?)?;

    let emp_schema = Schema::of(&[
        ("eno", DataType::Int),
        ("name", DataType::Str),
        ("dno", DataType::Int),
        ("sal", DataType::Float),
        ("age", DataType::Int),
    ]);
    let mut emp = Table::builder("emp", emp_schema)
        .primary_key(&["eno"])?
        .foreign_key(&["dno"], "dept", &[0])?;
    let mut eno = 0i64;
    for d in 0..cfg.n_depts {
        for _ in 0..cfg.emps_per_dept {
            let age = if rng.gen_bool(cfg.young_fraction.clamp(0.0, 1.0)) {
                rng.gen_range(18..22)
            } else {
                rng.gen_range(22..65)
            };
            let sal = rng.gen_range(30_000.0..200_000.0);
            emp.push_values([
                Value::Int(eno),
                names.value("emp", eno as usize),
                Value::Int(d as i64),
                Value::Float(sal),
                Value::Int(age),
            ])?;
            eno += 1;
        }
    }
    catalog.add(emp.build()?)?;
    Ok(catalog)
}

const LOCS: [&str; 8] = [
    "palo alto",
    "san jose",
    "almaden",
    "brighton",
    "santiago",
    "zurich",
    "houston",
    "vancouver",
];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_declared_cardinalities() {
        let cfg = EmpDeptConfig {
            n_depts: 20,
            emps_per_dept: 5,
            ..Default::default()
        };
        let cat = gen_empdept(&cfg).unwrap();
        assert_eq!(cat.get("dept").unwrap().len(), 20);
        assert_eq!(cat.get("emp").unwrap().len(), 100);
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = EmpDeptConfig::default();
        let a = gen_empdept(&cfg).unwrap();
        let b = gen_empdept(&cfg).unwrap();
        assert_eq!(a.get("emp").unwrap().rows(), b.get("emp").unwrap().rows());
    }

    #[test]
    fn young_fraction_is_respected() {
        let cfg = EmpDeptConfig {
            n_depts: 50,
            emps_per_dept: 100,
            young_fraction: 0.2,
            ..Default::default()
        };
        let cat = gen_empdept(&cfg).unwrap();
        let emp = cat.get("emp").unwrap();
        let young = emp
            .rows()
            .iter()
            .filter(|r| r.get(4).as_i64().unwrap() < 22)
            .count();
        let frac = young as f64 / emp.len() as f64;
        assert!((frac - 0.2).abs() < 0.03, "young fraction {frac}");
    }

    #[test]
    fn referential_integrity_holds() {
        let cat = gen_empdept(&EmpDeptConfig::default()).unwrap();
        let emp = cat.get("emp").unwrap();
        let dept = cat.get("dept").unwrap();
        let dnos: std::collections::HashSet<i64> = dept
            .rows()
            .iter()
            .map(|r| r.get(0).as_i64().unwrap())
            .collect();
        assert!(emp
            .rows()
            .iter()
            .all(|r| dnos.contains(&r.get(2).as_i64().unwrap())));
    }

    #[test]
    fn keys_are_declared() {
        let cat = gen_empdept(&EmpDeptConfig::default()).unwrap();
        let emp = cat.get("emp").unwrap();
        assert_eq!(emp.primary_key().unwrap().cols, vec![0]);
        assert_eq!(emp.foreign_keys()[0].parent, "dept");
        assert!(cat.get("dept").unwrap().primary_key().is_some());
    }

    #[test]
    fn stats_reflect_distribution() {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts: 30,
            emps_per_dept: 10,
            ..Default::default()
        })
        .unwrap();
        let emp = cat.get("emp").unwrap();
        // dno column has exactly n_depts distinct values.
        assert_eq!(emp.stats().columns[2].distinct, 30);
        // salary min/max within the generated range.
        let s = &emp.stats().columns[3];
        assert!(s.min.unwrap() >= 30_000.0);
        assert!(s.max.unwrap() <= 200_000.0);
    }
}
