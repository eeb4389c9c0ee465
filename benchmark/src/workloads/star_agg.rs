//! `star_agg` — single-block GROUP BY queries over two- to five-way
//! joins of the star schema (roll-ups by nation, region, segment and
//! status). The join output dominates time and peak memory, which is
//! where eager aggregation and join-kernel work must show.

use super::{
    make_ctx, statement_list, template_cells, thousandths, Built, Scale, SetupTimes, Template, P,
};
use crate::oracle::{Acc, Cell, Row, Star, Tables};
use crate::rng::Draw;
use aggview_common::Result;
use aggview_sql::Session;
use aggview_storage::datagen::{gen_star, StarConfig};
use aggview_storage::Catalog;
use std::collections::BTreeMap;
use std::time::Instant;

/// Order statuses the generator draws from.
pub const STATUSES: [&str; 3] = ["open", "filled", "returned"];

/// Days `orders.odate` ranges over.
pub const DATES: i64 = 2557;

const DDL: &str = "\
create materialized view seg_bal(segment, total, n) as \
  select segment, sum(acctbal), count(*) from customer group by segment";

fn draw_status(rng: &mut Draw, _: &Catalog) -> Vec<P> {
    vec![P::S(rng.pick(&STATUSES))]
}

/// Group rows as `key -> accumulator`, rendering each group with `row`.
pub fn grouped<K: Ord>(
    items: impl Iterator<Item = (K, f64)>,
    row: impl Fn(&K, &Acc) -> Row,
) -> Vec<Row> {
    let mut groups: BTreeMap<K, Acc> = BTreeMap::new();
    for (k, x) in items {
        groups.entry(k).or_default().add(x);
    }
    groups.iter().map(|(k, a)| row(k, a)).collect()
}

fn nation_of(t: &Star, cno: usize) -> &(usize, String) {
    &t.nations[t.customers[cno].nno]
}

pub fn segment_balance_expected(t: &Tables, _: &[P]) -> Vec<Row> {
    let t = t.star();
    grouped(
        t.customers.iter().map(|c| (c.segment.as_str(), c.acctbal)),
        |k, a| vec![Cell::S(k.to_string()), Cell::F(a.sum), Cell::I(a.n)],
    )
}

static TEMPLATES: &[Template] = &[
    Template {
        name: "nation_revenue",
        weight: 2,
        draw: |rng, _| vec![P::I(rng.range(400, DATES))],
        sql: |p| {
            format!(
                "select n.nname, sum(o.total) from nation n, customer c, orders o \
                  where n.nno = c.nno and c.cno = o.cno and o.odate < {} group by n.nname",
                p[0].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            grouped(
                t.orders
                    .iter()
                    .filter(|o| o.odate < p[0].i())
                    .map(|o| (nation_of(t, o.cno).1.as_str(), o.total)),
                |k, a| vec![Cell::S(k.to_string()), Cell::F(a.sum)],
            )
        },
    },
    Template {
        name: "region_lines",
        weight: 2,
        draw: |rng, _| vec![P::I(rng.range(5, 50))],
        sql: |p| {
            format!(
                "select r.rname, sum(l.price), count(*) \
                   from region r, nation n, customer c, orders o, lineitem l \
                  where r.rno = n.rno and n.nno = c.nno and c.cno = o.cno and o.ono = l.ono \
                    and l.qty < {} group by r.rname",
                p[0].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            grouped(
                t.lines.iter().filter(|l| l.qty < p[0].i()).map(|l| {
                    let rno = nation_of(t, t.orders[l.ono].cno).0;
                    (t.regions[rno].as_str(), l.price)
                }),
                |k, a| vec![Cell::S(k.to_string()), Cell::F(a.sum), Cell::I(a.n)],
            )
        },
    },
    Template {
        name: "segment_status",
        weight: 2,
        draw: draw_status,
        sql: |p| {
            format!(
                "select c.segment, count(*) from customer c, orders o \
                  where c.cno = o.cno and o.status = '{}' group by c.segment",
                p[0].s()
            )
        },
        expected: |t, p| {
            let t = t.star();
            grouped(
                t.orders
                    .iter()
                    .filter(|o| o.status == p[0].s())
                    .map(|o| (t.customers[o.cno].segment.as_str(), 0.0)),
                |k, a| vec![Cell::S(k.to_string()), Cell::I(a.n)],
            )
        },
    },
    Template {
        name: "status_lines",
        weight: 2,
        draw: |rng, _| vec![thousandths(rng.range(10, 100))],
        sql: |p| {
            format!(
                "select o.status, sum(l.price), count(*) from orders o, lineitem l \
                  where o.ono = l.ono and l.discount < {:.3} group by o.status",
                p[0].f()
            )
        },
        expected: |t, p| {
            let t = t.star();
            grouped(
                t.lines
                    .iter()
                    .filter(|l| l.discount < p[0].f())
                    .map(|l| (t.orders[l.ono].status.as_str(), l.price)),
                |k, a| vec![Cell::S(k.to_string()), Cell::F(a.sum), Cell::I(a.n)],
            )
        },
    },
    Template {
        name: "customer_spend",
        weight: 2,
        draw: |rng, _| {
            vec![
                P::I(rng.range(50, 95) * 100),
                P::I(rng.range(5, 15) * 100_000),
            ]
        },
        sql: |p| {
            format!(
                "select c.cno, sum(o.total) from customer c, orders o \
                  where c.cno = o.cno and c.acctbal > {} \
                  group by c.cno having sum(o.total) > {}",
                p[0].i(),
                p[1].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            grouped(
                t.orders
                    .iter()
                    .filter(|o| t.customers[o.cno].acctbal > p[0].f())
                    .map(|o| (o.cno, o.total)),
                |k, a| vec![Cell::I(*k as i64), Cell::F(a.sum)],
            )
            .into_iter()
            .filter(|r| matches!(r[1], Cell::F(s) if s > p[1].f()))
            .collect()
        },
    },
    Template {
        name: "nation_segment",
        weight: 2,
        draw: |rng, _| vec![P::I(rng.range(0, DATES - 400))],
        sql: |p| {
            format!(
                "select n.nname, c.segment, count(*), avg(o.total) \
                   from nation n, customer c, orders o \
                  where n.nno = c.nno and c.cno = o.cno and o.odate >= {} \
                  group by n.nname, c.segment",
                p[0].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            grouped(
                t.orders.iter().filter(|o| o.odate >= p[0].i()).map(|o| {
                    let key = (
                        nation_of(t, o.cno).1.as_str(),
                        t.customers[o.cno].segment.as_str(),
                    );
                    (key, o.total)
                }),
                |k, a| {
                    vec![
                        Cell::S(k.0.to_string()),
                        Cell::S(k.1.to_string()),
                        Cell::I(a.n),
                        Cell::F(a.avg()),
                    ]
                },
            )
        },
    },
    Template {
        name: "order_revenue",
        weight: 2,
        draw: |rng, _| vec![P::I(rng.range(30, 300))],
        sql: |p| {
            format!(
                "select o.ono, sum(l.price) from orders o, lineitem l \
                  where o.ono = l.ono and o.odate < {} group by o.ono",
                p[0].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            grouped(
                t.lines
                    .iter()
                    .filter(|l| t.orders[l.ono].odate < p[0].i())
                    .map(|l| (l.ono, l.price)),
                |k, a| vec![Cell::I(*k as i64), Cell::F(a.sum)],
            )
        },
    },
    Template {
        name: "matview_hit",
        weight: 1,
        draw: |_, _| Vec::new(),
        sql: |_| "select segment, sum(acctbal), count(*) from customer group by segment".into(),
        expected: segment_balance_expected,
    },
];

pub fn build(seed: u64, scale: Scale) -> Result<Built> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let catalog = gen_star(&StarConfig {
        customers: scale.pick(60, 2_500),
        orders_per_customer: 5,
        lines_per_order: 4,
        nations: 25,
        seed,
    })?;
    times.gen_ms = super::ms_since(t);
    let ctx = make_ctx(Session::new(catalog), DDL, "seg_bal", &mut times)?;
    let stmts = statement_list(TEMPLATES, ctx.session.catalog(), seed, scale.pick(1, 14), 1);
    let cells = template_cells(TEMPLATES, ctx.session.catalog());
    Ok(Built {
        ctxs: vec![ctx],
        templates: TEMPLATES,
        stmts,
        cells,
        times,
    })
}
