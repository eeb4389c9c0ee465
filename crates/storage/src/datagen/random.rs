//! Random catalogs for property-based testing.
//!
//! Plan-equivalence tests (pull-up, push-down) and the optimizer's
//! never-worse guarantee must hold on *arbitrary* databases, not just the
//! curated workloads. This generator produces small random catalogs with
//! a uniform shape: every table gets an integer primary key, a couple of
//! join columns with controlled domain sizes (so join selectivities
//! vary), a numeric measure column to aggregate, and as many further
//! integer columns as a wide-schema test asks for.

use crate::catalog::Catalog;
use crate::table::Table;
use aggview_common::{DataType, Result, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Configuration for random catalog generation.
#[derive(Debug, Clone)]
pub struct RandomCatalogConfig {
    /// Number of tables (named `t0`, `t1`, ...).
    pub n_tables: usize,
    /// Inclusive row-count range per table.
    pub rows: (usize, usize),
    /// Inclusive domain-size range for join columns `j1`, `j2`.
    pub join_domain: (i64, i64),
    /// Further integer columns `x0`, `x1`, ... after `val` (wide schemas).
    pub extra_cols: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RandomCatalogConfig {
    fn default() -> Self {
        RandomCatalogConfig {
            n_tables: 3,
            rows: (5, 200),
            join_domain: (2, 20),
            extra_cols: 0,
            seed: 0,
        }
    }
}

/// Generate `n_tables` tables, each with schema
/// `tK(id INT PK, j1 INT, j2 INT, val FLOAT, x0 INT, ...)`.
///
/// * `id` — dense primary key 0..rows,
/// * `j1`, `j2` — join columns drawn uniformly from per-table random
///   domains within `cfg.join_domain`,
/// * `val` — measure column for aggregation.
pub fn gen_random_catalog(cfg: &RandomCatalogConfig) -> Result<Catalog> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let catalog = Catalog::new();
    for t in 0..cfg.n_tables {
        let rows = rng.gen_range(cfg.rows.0..=cfg.rows.1);
        let d1 = rng.gen_range(cfg.join_domain.0..=cfg.join_domain.1);
        let d2 = rng.gen_range(cfg.join_domain.0..=cfg.join_domain.1);
        let extra: Vec<String> = (0..cfg.extra_cols).map(|x| format!("x{x}")).collect();
        let mut fields = vec![
            ("id", DataType::Int),
            ("j1", DataType::Int),
            ("j2", DataType::Int),
            ("val", DataType::Float),
        ];
        fields.extend(extra.iter().map(|x| (x.as_str(), DataType::Int)));
        let mut b = Table::builder(format!("t{t}"), Schema::of(&fields)).primary_key(&["id"])?;
        for i in 0..rows {
            let mut row = vec![
                Value::Int(i as i64),
                Value::Int(rng.gen_range(0..d1)),
                Value::Int(rng.gen_range(0..d2)),
                Value::Float((rng.gen_range(0..100_000) as f64) / 100.0),
            ];
            row.extend((0..cfg.extra_cols).map(|x| Value::Int((i + x) as i64)));
            b.push(row.into())?;
        }
        catalog.add(b.build()?)?;
    }
    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_tables() {
        let cat = gen_random_catalog(&RandomCatalogConfig {
            n_tables: 4,
            ..Default::default()
        })
        .unwrap();
        assert_eq!(cat.len(), 4);
        for t in 0..4 {
            let tab = cat.get(&format!("t{t}")).unwrap();
            assert_eq!(tab.schema().len(), 4);
            assert!(tab.primary_key().is_some());
            assert!(!tab.is_empty());
        }
    }

    #[test]
    fn row_counts_within_bounds() {
        let cfg = RandomCatalogConfig {
            n_tables: 5,
            rows: (10, 20),
            seed: 9,
            ..Default::default()
        };
        let cat = gen_random_catalog(&cfg).unwrap();
        for t in 0..5 {
            let n = cat.get(&format!("t{t}")).unwrap().len();
            assert!((10..=20).contains(&n), "rows {n}");
        }
    }

    #[test]
    fn join_domains_bounded() {
        let cfg = RandomCatalogConfig {
            n_tables: 2,
            rows: (200, 200),
            join_domain: (3, 5),
            seed: 1,
            ..Default::default()
        };
        let cat = gen_random_catalog(&cfg).unwrap();
        let t = cat.get("t0").unwrap();
        let d = t.stats().columns[1].distinct;
        assert!(d <= 5, "domain {d}");
    }

    #[test]
    fn different_seeds_differ() {
        let a = gen_random_catalog(&RandomCatalogConfig {
            seed: 1,
            ..Default::default()
        })
        .unwrap();
        let b = gen_random_catalog(&RandomCatalogConfig {
            seed: 2,
            ..Default::default()
        })
        .unwrap();
        assert_ne!(a.get("t0").unwrap().rows(), b.get("t0").unwrap().rows());
    }
}
