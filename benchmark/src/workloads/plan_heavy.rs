//! `plan_heavy` — many short statements over a star small enough that
//! running a plan costs less than finding it: two aggregate views joined
//! to three or four base relations (unlimited pull-up has real choices
//! to enumerate), nested subqueries that flatten to view joins, and
//! `EXPLAIN VERIFY`. About half the statements repeat an earlier text.
//! Lexer, parser, binder, flattener, optimizer and analyzer do most of
//! the work, so this is the bypass workload for executor changes and the
//! target for search-space, binder and plan-reuse changes.

use super::star_agg::{grouped, DATES, STATUSES};
use super::{make_ctx, statement_list, template_cells, Built, Scale, SetupTimes, Template, P};
use crate::oracle::{Acc, Cell, Star};
use aggview_common::Result;
use aggview_sql::Session;
use aggview_storage::datagen::{gen_star, StarConfig};
use aggview_storage::Catalog;
use std::time::Instant;

const REGIONS: [&str; 5] = ["africa", "america", "asia", "europe", "middle east"];

const DDL: &str = "\
create view order_rev(ono, rev) as \
  select l1.ono, sum(l1.price) from lineitem l1 group by l1.ono; \
create view cust_spend(cno, spend, n) as \
  select o1.cno, sum(o1.total), count(*) from orders o1 group by o1.cno; \
create materialized view nation_cust(nno, n, bal) as \
  select nno, count(*), sum(acctbal) from customer group by nno";

/// Rows of `nation`, from the generated tables.
fn nations(catalog: &Catalog) -> u64 {
    catalog.get("nation").map_or(1, |t| t.len().max(1)) as u64
}

/// `order_rev`: revenue per order that has at least one line.
fn order_revenue(t: &Star) -> Vec<Acc> {
    let mut rev = vec![Acc::default(); t.orders.len()];
    for l in &t.lines {
        rev[l.ono].add(l.price);
    }
    rev
}

/// `cust_spend`: order total and count per customer with an order.
fn customer_spend(t: &Star) -> Vec<Acc> {
    let mut spend = vec![Acc::default(); t.customers.len()];
    for o in &t.orders {
        spend[o.cno].add(o.total);
    }
    spend
}

fn view_four_base_sql(p: &[P]) -> String {
    format!(
        "select c.cname, r.rev from region rg, nation n, customer c, orders o, order_rev r \
          where rg.rno = n.rno and n.nno = c.nno and c.cno = o.cno and o.ono = r.ono \
            and rg.rname = '{}' and o.odate < {}",
        p[0].s(),
        p[1].i()
    )
}

static TEMPLATES: &[Template] = &[
    Template {
        name: "view_four_base",
        weight: 3,
        draw: |rng, _| vec![P::S(rng.pick(&REGIONS)), P::I(rng.range(100, DATES))],
        sql: view_four_base_sql,
        expected: |t, p| {
            let t = t.star();
            let rev = order_revenue(t);
            t.orders
                .iter()
                .enumerate()
                .filter(|(ono, o)| {
                    let rno = t.nations[t.customers[o.cno].nno].0;
                    rev[*ono].n > 0 && o.odate < p[1].i() && t.regions[rno] == p[0].s()
                })
                .map(|(ono, o)| {
                    vec![
                        Cell::S(t.customers[o.cno].cname.clone()),
                        Cell::F(rev[ono].sum),
                    ]
                })
                .collect()
        },
    },
    Template {
        name: "two_view_three_base",
        weight: 3,
        draw: |rng, c| {
            let nation = rng.below(nations(c));
            vec![P::I(nation as i64), P::I(rng.range(5, 30) * 1000)]
        },
        sql: |p| {
            format!(
                "select c.cname, s.spend, r.rev \
                   from nation n, customer c, cust_spend s, orders o, order_rev r \
                  where n.nno = c.nno and c.cno = s.cno and c.cno = o.cno and o.ono = r.ono \
                    and n.nname = 'nation{}' and r.rev > {}",
                p[0].i(),
                p[1].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            let (rev, spend) = (order_revenue(t), customer_spend(t));
            t.orders
                .iter()
                .enumerate()
                .filter(|(ono, o)| {
                    t.customers[o.cno].nno as i64 == p[0].i()
                        && rev[*ono].n > 0
                        && rev[*ono].sum > p[1].f()
                })
                .map(|(ono, o)| {
                    let c = &t.customers[o.cno];
                    vec![
                        Cell::S(c.cname.clone()),
                        Cell::F(spend[o.cno].sum),
                        Cell::F(rev[ono].sum),
                    ]
                })
                .collect()
        },
    },
    Template {
        name: "nested_customer",
        weight: 2,
        draw: |rng, c| vec![P::I(rng.below(nations(c)) as i64)],
        sql: |p| {
            format!(
                "select c.cname from customer c where c.nno = {} and c.acctbal > \
                  (select avg(c2.acctbal) from customer c2 where c2.nno = c.nno)",
                p[0].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            let mut avg = vec![Acc::default(); t.nations.len()];
            for c in &t.customers {
                avg[c.nno].add(c.acctbal);
            }
            t.customers
                .iter()
                .filter(|c| c.nno as i64 == p[0].i() && c.acctbal > avg[c.nno].avg())
                .map(|c| vec![Cell::S(c.cname.clone())])
                .collect()
        },
    },
    Template {
        name: "nested_orders",
        weight: 2,
        draw: |rng, _| vec![P::S(rng.pick(&STATUSES)), P::I(rng.range(200, DATES))],
        sql: |p| {
            format!(
                "select o.ono from orders o where o.status = '{}' and o.odate < {} and o.total > \
                  (select avg(o2.total) from orders o2 where o2.cno = o.cno)",
                p[0].s(),
                p[1].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            let spend = customer_spend(t);
            t.orders
                .iter()
                .enumerate()
                .filter(|(_, o)| {
                    o.status == p[0].s() && o.odate < p[1].i() && o.total > spend[o.cno].avg()
                })
                .map(|(ono, _)| vec![Cell::I(ono as i64)])
                .collect()
        },
    },
    Template {
        name: "explain_verify",
        weight: 2,
        draw: |rng, _| vec![P::S(rng.pick(&REGIONS)), P::I(rng.range(100, DATES))],
        sql: |p| format!("explain verify {}", view_four_base_sql(p)),
        expected: |_, _| {
            let cell = |s: &str| Cell::S(s.to_string());
            vec![vec![
                cell("ok"),
                cell("info"),
                cell("ok"),
                cell("plan passes all integrity checks"),
            ]]
        },
    },
    Template {
        name: "five_way_group",
        weight: 2,
        draw: |rng, _| vec![P::S(rng.pick(&STATUSES)), P::I(rng.range(5, 50))],
        sql: |p| {
            format!(
                "select rg.rname, c.segment, count(*), sum(l.price) \
                   from region rg, nation n, customer c, orders o, lineitem l \
                  where rg.rno = n.rno and n.nno = c.nno and c.cno = o.cno and o.ono = l.ono \
                    and o.status = '{}' and l.qty < {} group by rg.rname, c.segment",
                p[0].s(),
                p[1].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            grouped(
                t.lines
                    .iter()
                    .filter(|l| l.qty < p[1].i() && t.orders[l.ono].status == p[0].s())
                    .map(|l| {
                        let c = &t.customers[t.orders[l.ono].cno];
                        (
                            (t.regions[t.nations[c.nno].0].as_str(), c.segment.as_str()),
                            l.price,
                        )
                    }),
                |k, a| {
                    vec![
                        Cell::S(k.0.to_string()),
                        Cell::S(k.1.to_string()),
                        Cell::I(a.n),
                        Cell::F(a.sum),
                    ]
                },
            )
        },
    },
    Template {
        name: "view_dim",
        weight: 2,
        draw: |rng, _| vec![P::I(rng.range(10, 90) * 100), P::I(rng.range(2, 7))],
        sql: |p| {
            format!(
                "select c.cname, s.spend from customer c, cust_spend s \
                  where c.cno = s.cno and c.acctbal > {} and s.n > {}",
                p[0].i(),
                p[1].i()
            )
        },
        expected: |t, p| {
            let t = t.star();
            customer_spend(t)
                .iter()
                .zip(&t.customers)
                .filter(|(s, c)| s.n > p[1].i() && c.acctbal > p[0].f())
                .map(|(s, c)| vec![Cell::S(c.cname.clone()), Cell::F(s.sum)])
                .collect()
        },
    },
    Template {
        name: "matview_hit",
        weight: 1,
        draw: |_, _| Vec::new(),
        sql: |_| "select nno, count(*), sum(acctbal) from customer group by nno".into(),
        expected: |t, _| {
            grouped(
                t.star().customers.iter().map(|c| (c.nno, c.acctbal)),
                |k, a| vec![Cell::I(*k as i64), Cell::I(a.n), Cell::F(a.sum)],
            )
        },
    },
];

pub fn build(seed: u64, scale: Scale) -> Result<Built> {
    let mut times = SetupTimes::default();
    let t = Instant::now();
    let catalog = gen_star(&StarConfig {
        customers: scale.pick(40, 300),
        orders_per_customer: 5,
        lines_per_order: 4,
        nations: 25,
        seed,
    })?;
    times.gen_ms = super::ms_since(t);
    let ctx = make_ctx(Session::new(catalog), DDL, "nation_cust", &mut times)?;
    let stmts = statement_list(TEMPLATES, ctx.session.catalog(), seed, scale.pick(1, 18), 2);
    let cells = template_cells(TEMPLATES, ctx.session.catalog());
    Ok(Built {
        ctxs: vec![ctx],
        templates: TEMPLATES,
        stmts,
        cells,
        times,
    })
}
