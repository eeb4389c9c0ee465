//! A TPC-D-like decision-support star schema.
//!
//! The paper motivates its problem with TPC-D-style decision-support
//! queries. TPC-D data itself is not redistributable, so this generator
//! produces a structurally equivalent substitute: a fact table
//! (`lineitem`) with a chain of foreign keys through `orders` →
//! `customer` → `nation` → `region`, controlled fan-outs, and dimension
//! attributes with selective predicates. The optimizer's behaviour
//! depends only on this structure (cardinalities, keys, selectivities),
//! which the config controls precisely.

use super::Names;
use crate::catalog::Catalog;
use crate::table::Table;
use aggview_common::{DataType, Result, Schema, Value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Scale configuration for the star schema.
#[derive(Debug, Clone)]
pub struct StarConfig {
    /// Number of customers; other cardinalities derive from it.
    pub customers: usize,
    /// Orders per customer (average).
    pub orders_per_customer: usize,
    /// Line items per order (average).
    pub lines_per_order: usize,
    /// Number of nations (regions fixed at 5).
    pub nations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StarConfig {
    fn default() -> Self {
        StarConfig {
            customers: 500,
            orders_per_customer: 5,
            lines_per_order: 4,
            nations: 25,
            seed: 7,
        }
    }
}

const REGIONS: [&str; 5] = ["africa", "america", "asia", "europe", "middle east"];
const SEGMENTS: [&str; 5] = [
    "automobile",
    "building",
    "furniture",
    "household",
    "machinery",
];
const STATUSES: [&str; 3] = ["open", "filled", "returned"];

/// Generate the five tables into a fresh catalog.
///
/// Schemas:
/// * `region(rno INT PK, rname STRING)`
/// * `nation(nno INT PK, rno INT FK, nname STRING)`
/// * `customer(cno INT PK, nno INT FK, cname STRING, segment STRING, acctbal FLOAT)`
/// * `orders(ono INT PK, cno INT FK, odate INT, status STRING, total FLOAT)`
/// * `lineitem(lno INT PK, ono INT FK, qty INT, price FLOAT, discount FLOAT)`
pub fn gen_star(cfg: &StarConfig) -> Result<Catalog> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let catalog = Catalog::new();
    // Rows are arrays and each segment and status is one shared string:
    // a row allocates only its name.
    let (segments, statuses) = (SEGMENTS.map(Value::str), STATUSES.map(Value::str));
    let mut names = Names::default();

    let mut region = Table::builder(
        "region",
        Schema::of(&[("rno", DataType::Int), ("rname", DataType::Str)]),
    )
    .primary_key(&["rno"])?;
    for (i, name) in REGIONS.iter().enumerate() {
        region.push_values([Value::Int(i as i64), Value::str(name)])?;
    }
    catalog.add(region.build()?)?;

    let mut nation = Table::builder(
        "nation",
        Schema::of(&[
            ("nno", DataType::Int),
            ("rno", DataType::Int),
            ("nname", DataType::Str),
        ]),
    )
    .primary_key(&["nno"])?
    .foreign_key(&["rno"], "region", &[0])?;
    for n in 0..cfg.nations {
        nation.push_values([
            Value::Int(n as i64),
            Value::Int((n % REGIONS.len()) as i64),
            names.value("nation", n),
        ])?;
    }
    catalog.add(nation.build()?)?;

    let mut customer = Table::builder(
        "customer",
        Schema::of(&[
            ("cno", DataType::Int),
            ("nno", DataType::Int),
            ("cname", DataType::Str),
            ("segment", DataType::Str),
            ("acctbal", DataType::Float),
        ]),
    )
    .primary_key(&["cno"])?
    .foreign_key(&["nno"], "nation", &[0])?;
    for c in 0..cfg.customers {
        customer.push_values([
            Value::Int(c as i64),
            Value::Int(rng.gen_range(0..cfg.nations) as i64),
            names.value("customer", c),
            segments[rng.gen_range(0..SEGMENTS.len())].clone(),
            Value::Float(rng.gen_range(-999.0..10_000.0)),
        ])?;
    }
    catalog.add(customer.build()?)?;

    let mut orders = Table::builder(
        "orders",
        Schema::of(&[
            ("ono", DataType::Int),
            ("cno", DataType::Int),
            ("odate", DataType::Int),
            ("status", DataType::Str),
            ("total", DataType::Float),
        ]),
    )
    .primary_key(&["ono"])?
    .foreign_key(&["cno"], "customer", &[0])?;
    let n_orders = cfg.customers * cfg.orders_per_customer;
    for o in 0..n_orders {
        orders.push_values([
            Value::Int(o as i64),
            Value::Int(rng.gen_range(0..cfg.customers) as i64),
            Value::Int(rng.gen_range(0..2557)), // ~7 years of days
            statuses[rng.gen_range(0..STATUSES.len())].clone(),
            Value::Float(rng.gen_range(100.0..500_000.0)),
        ])?;
    }
    catalog.add(orders.build()?)?;

    let mut lineitem = Table::builder(
        "lineitem",
        Schema::of(&[
            ("lno", DataType::Int),
            ("ono", DataType::Int),
            ("qty", DataType::Int),
            ("price", DataType::Float),
            ("discount", DataType::Float),
        ]),
    )
    .primary_key(&["lno"])?
    .foreign_key(&["ono"], "orders", &[0])?;
    let n_lines = n_orders * cfg.lines_per_order;
    for l in 0..n_lines {
        lineitem.push_values([
            Value::Int(l as i64),
            Value::Int(rng.gen_range(0..n_orders) as i64),
            Value::Int(rng.gen_range(1..51)),
            Value::Float(rng.gen_range(1.0..10_000.0)),
            Value::Float(rng.gen_range(0.0..0.1)),
        ])?;
    }
    catalog.add(lineitem.build()?)?;

    Ok(catalog)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cardinalities_scale_with_config() {
        let cfg = StarConfig {
            customers: 100,
            orders_per_customer: 3,
            lines_per_order: 2,
            ..Default::default()
        };
        let cat = gen_star(&cfg).unwrap();
        assert_eq!(cat.get("region").unwrap().len(), 5);
        assert_eq!(cat.get("nation").unwrap().len(), 25);
        assert_eq!(cat.get("customer").unwrap().len(), 100);
        assert_eq!(cat.get("orders").unwrap().len(), 300);
        assert_eq!(cat.get("lineitem").unwrap().len(), 600);
    }

    #[test]
    fn fk_chain_is_closed() {
        let cat = gen_star(&StarConfig {
            customers: 50,
            ..Default::default()
        })
        .unwrap();
        for (child, col, parent) in [
            ("nation", 1usize, "region"),
            ("customer", 1, "nation"),
            ("orders", 1, "customer"),
            ("lineitem", 1, "orders"),
        ] {
            let c = cat.get(child).unwrap();
            let p = cat.get(parent).unwrap();
            let keys: std::collections::HashSet<i64> = p
                .rows()
                .iter()
                .map(|r| r.get(0).as_i64().unwrap())
                .collect();
            assert!(
                c.rows()
                    .iter()
                    .all(|r| keys.contains(&r.get(col).as_i64().unwrap())),
                "{child} → {parent} broken"
            );
        }
    }

    #[test]
    fn deterministic_under_seed() {
        let cfg = StarConfig::default();
        let a = gen_star(&cfg).unwrap();
        let b = gen_star(&cfg).unwrap();
        assert_eq!(
            a.get("lineitem").unwrap().rows()[..50],
            b.get("lineitem").unwrap().rows()[..50]
        );
    }

    #[test]
    fn dimension_attributes_are_selective() {
        let cat = gen_star(&StarConfig::default()).unwrap();
        let cust = cat.get("customer").unwrap();
        // segment has 5 distinct values → ~20% selectivity each.
        assert_eq!(cust.stats().columns[3].distinct, 5);
    }
}
