//! `aggview-repl` — an interactive shell for the aggregate-view
//! optimizer.
//!
//! ```text
//! $ cargo run --bin repl
//! aggview> .gen empdept 50 20
//! aggview> create view A1(dno, Asal) as
//!          select e2.dno, avg(e2.sal) from emp e2 group by e2.dno;
//! aggview> select e1.sal from emp e1, A1 b
//!          where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal;
//! aggview> .explain select dno, count(*) from emp group by dno;
//! ```
//!
//! Dot-commands: `.help`, `.tables`, `.views`, `.stats <table>`,
//! `.gen empdept [depts emps_per_dept]`,
//! `.gen star [customers]`, `.mem <pages>`, `.mode <traditional|pushdown|full>`,
//! `.set <key> <value>` (resource governance: `timeout_ms`, `max_rows`,
//! `max_bytes`, `max_plans`, `max_memo`, `retries`; `off` clears a limit;
//! plus `batch_rows` for the executor), `.limits`,
//! `.explain <sql>`,
//! `.open <dir>` (durable catalog: WAL + checkpoints), `.checkpoint`,
//! `.deps` (the table → materialized-view dependency graph),
//! `.quit`. Everything else is SQL (`;`-terminated, may span lines).

use aggview::core::cost::ops::IoParams;
use aggview::core::{CostModel, OptimizerConfig};
use aggview::sql::Session;
use aggview::storage::datagen::{gen_empdept, gen_star, EmpDeptConfig, StarConfig};
use std::io::{self, BufRead, Write};
use std::time::Duration;

fn main() {
    let mut session =
        Session::new(gen_empdept(&EmpDeptConfig::default()).expect("default catalog"));
    println!(
        "aggview repl — default Emp/Dept catalog loaded ({} tables). Type .help",
        session.catalog().len()
    );

    let stdin = io::stdin();
    let mut buffer = String::new();
    prompt(&buffer);
    for line in stdin.lock().lines() {
        let line = match line {
            Ok(l) => l,
            Err(_) => break,
        };
        let trimmed = line.trim();
        if buffer.is_empty() && trimmed.starts_with('.') {
            if !dot_command(trimmed, &mut session) {
                break;
            }
            prompt(&buffer);
            continue;
        }
        buffer.push_str(&line);
        buffer.push('\n');
        if trimmed.ends_with(';') {
            run_sql(&buffer, &mut session);
            buffer.clear();
        }
        prompt(&buffer);
    }
}

fn prompt(buffer: &str) {
    if buffer.is_empty() {
        print!("aggview> ");
    } else {
        print!("      -> ");
    }
    let _ = io::stdout().flush();
}

fn run_sql(sql: &str, session: &mut Session) {
    match session.execute(sql) {
        Ok(result) => {
            print!("{}", result.to_table());
            println!(
                "({} rows; measured IO {:.1} pages, estimated cost {:.1})",
                result.rows.len(),
                result.io_pages,
                result.estimated_cost
            );
            if result.outcome.is_degraded() {
                println!("note: {}", result.outcome);
            }
            if result.retries > 0 {
                println!(
                    "note: recovered from {} transient failure(s) by retrying",
                    result.retries
                );
            }
        }
        Err(e) => println!("{e}"),
    }
}

/// Returns false to quit.
fn dot_command(cmd: &str, session: &mut Session) -> bool {
    let parts: Vec<&str> = cmd.splitn(2, ' ').collect();
    match parts[0] {
        ".quit" | ".exit" => return false,
        ".help" => {
            println!(
                ".tables                      list tables\n\
                 .gen empdept [depts emps]    load a fresh Emp/Dept catalog\n\
                 .gen star [customers]        load a TPC-D-like star catalog\n\
                 .mem <pages>                 set the operator memory budget\n\
                 .mode <traditional|pushdown|full>  optimizer configuration\n\
                 .set <key> <value|off>       resource limits: timeout_ms, max_rows,\n\
                 \u{20}                            max_bytes, max_plans, max_memo, retries;\n\
                 \u{20}                            batch_rows (vectorized tile size);\n\
                 \u{20}                            eager_agg <on|off> (eager partial\n\
                 \u{20}                            aggregation below joins)\n\
                 .limits                      show current resource limits\n\
                 .views                       list materialized views (rows, bytes, staleness)\n\
                 .open <dir>                  switch to a durable catalog at <dir> (WAL +\n\
                 \u{20}                            checkpoints; seeds from the current catalog\n\
                 \u{20}                            when <dir> is empty)\n\
                 .checkpoint                  write a snapshot and reset the WAL\n\
                 .stats <table>               table/extent statistics (rows, widths, distincts)\n\
                 .deps                        table -> materialized-view dependency graph\n\
                 .explain <sql>               show the chosen plan without running\n\
                 .lint <sql>                  run the plan-integrity analyzer without running\n\
                 .quit                        leave"
            );
        }
        ".tables" => {
            for name in session.catalog().table_names() {
                let t = session.catalog().get(&name).unwrap();
                println!("{name}{} [{} rows]", t.schema(), t.len());
            }
        }
        ".views" => {
            let cat = session.catalog();
            let names = cat.matview_names();
            if names.is_empty() {
                println!("no materialized views — try CREATE MATERIALIZED VIEW");
            }
            for name in names {
                let Some(meta) = cat.matview(&name) else {
                    continue;
                };
                match cat.get(&meta.extent) {
                    Ok(t) => {
                        let bytes = (t.len() as f64 * t.stats().row_width).round();
                        println!(
                            "{name} -> {} [{} rows, ~{bytes} bytes, {}]",
                            meta.extent,
                            t.len(),
                            if meta.is_stale(cat) { "STALE" } else { "fresh" },
                        );
                    }
                    Err(_) => println!("{name} -> {} [extent missing]", meta.extent),
                }
            }
        }
        ".stats" => match parts.get(1).map(|s| s.trim()) {
            Some(name) if !name.is_empty() => match session.catalog().get(name) {
                Ok(t) => {
                    let s = t.stats();
                    println!(
                        "{name}: {} rows, avg row width {:.1} bytes, stats {}",
                        s.rows,
                        s.row_width,
                        if session.catalog().stats_fresh(name) {
                            "fresh"
                        } else {
                            "STALE"
                        },
                    );
                    for (i, c) in s.columns.iter().enumerate() {
                        let range = match (c.min, c.max) {
                            (Some(lo), Some(hi)) => format!(", range [{lo}, {hi}]"),
                            _ => String::new(),
                        };
                        println!(
                            "  {}: {} distinct, avg width {:.1}{range}",
                            t.schema().field(i).name,
                            c.distinct,
                            c.avg_width,
                        );
                    }
                }
                Err(e) => println!("{e}"),
            },
            _ => println!("usage: .stats <table> (extents are tables: try .views for names)"),
        },
        ".mem" => match parts.get(1).and_then(|s| s.trim().parse::<f64>().ok()) {
            Some(pages) if pages > 0.0 => {
                session.model = CostModel {
                    io: IoParams {
                        mem_pages: pages,
                        ..session.model.io
                    },
                    ..session.model
                };
                println!("memory budget: {pages} pages");
            }
            _ => println!("usage: .mem <pages>"),
        },
        ".mode" => match parts.get(1).map(|s| s.trim()) {
            Some("traditional") => {
                session.config = OptimizerConfig::traditional();
                println!("optimizer: traditional two-phase");
            }
            Some("pushdown") => {
                session.config = OptimizerConfig::push_down_only();
                println!("optimizer: push-down only (greedy conservative)");
            }
            Some("full") => {
                session.config = OptimizerConfig::default();
                println!("optimizer: full (pull-up + push-down)");
            }
            _ => println!("usage: .mode <traditional|pushdown|full>"),
        },
        ".gen" => {
            let args: Vec<&str> = parts
                .get(1)
                .map(|s| s.split_whitespace().collect())
                .unwrap_or_default();
            match args.first().copied() {
                Some("empdept") => {
                    let depts = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(100);
                    let emps = args.get(2).and_then(|s| s.parse().ok()).unwrap_or(50);
                    match gen_empdept(&EmpDeptConfig {
                        n_depts: depts,
                        emps_per_dept: emps,
                        ..Default::default()
                    }) {
                        Ok(cat) => {
                            *session = with_settings(session, cat);
                            println!("loaded emp ({} rows) / dept ({depts} rows)", depts * emps);
                        }
                        Err(e) => println!("{e}"),
                    }
                }
                Some("star") => {
                    let customers = args.get(1).and_then(|s| s.parse().ok()).unwrap_or(500);
                    match gen_star(&StarConfig {
                        customers,
                        ..Default::default()
                    }) {
                        Ok(cat) => {
                            *session = with_settings(session, cat);
                            println!("loaded star schema ({customers} customers)");
                        }
                        Err(e) => println!("{e}"),
                    }
                }
                _ => println!("usage: .gen empdept [depts emps] | .gen star [customers]"),
            }
        }
        ".open" => match parts.get(1).map(|s| s.trim()) {
            Some(dir) if !dir.is_empty() => match aggview::storage::Catalog::open(dir) {
                Ok(cat) => {
                    let quarantined = cat.reverify_matviews();
                    if cat.is_empty() && cat.matview_names().is_empty() {
                        match cat.import_from(session.catalog()) {
                            Ok(()) => println!(
                                "seeded {dir} from the current catalog ({} tables)",
                                cat.len()
                            ),
                            Err(e) => {
                                println!("cannot seed {dir}: {e}");
                                return true;
                            }
                        }
                    } else {
                        println!(
                            "recovered {dir}: {} tables, {} materialized views",
                            cat.len(),
                            cat.matview_names().len()
                        );
                        for name in quarantined {
                            println!("note: view `{name}` quarantined (base tables could not be re-verified)");
                        }
                    }
                    *session = with_settings(session, cat);
                }
                Err(e) => println!("{e}"),
            },
            _ => println!("usage: .open <dir>"),
        },
        ".checkpoint" => {
            if !session.is_durable() {
                println!("catalog is in-memory — use .open <dir> first");
            } else {
                match session.checkpoint() {
                    Ok(()) => println!("checkpoint written; WAL reset"),
                    Err(e) => println!("{e}"),
                }
            }
        }
        ".set" => {
            let args: Vec<&str> = parts
                .get(1)
                .map(|s| s.split_whitespace().collect())
                .unwrap_or_default();
            match (args.first().copied(), args.get(1).copied()) {
                (Some(key), Some(val)) => set_limit(session, key, val),
                _ => println!("usage: .set <key> <value|off> — try .limits for keys"),
            }
        }
        ".limits" => {
            let l = &session.limits;
            let show = |v: Option<u64>| v.map_or("off".to_string(), |n| n.to_string());
            println!(
                "timeout_ms {}  max_rows {}  max_bytes {}  max_plans {}  max_memo {}  retries {}  batch_rows {}  eager_agg {}",
                l.timeout
                    .map_or("off".to_string(), |t| t.as_millis().to_string()),
                show(l.max_rows),
                show(l.max_bytes),
                show(l.max_plans),
                show(l.max_memo_entries),
                session.max_retries,
                session.exec.batch_rows,
                if session.config.use_eager_agg {
                    "on"
                } else {
                    "off"
                },
            );
        }
        ".explain" => match parts.get(1) {
            Some(sql) => match session.explain(sql) {
                Ok((text, opt)) => {
                    print!("{text}");
                    println!(
                        "estimated cost: {:.1} pages ({})",
                        opt.props.cost, opt.stats
                    );
                }
                Err(e) => println!("{e}"),
            },
            None => println!("usage: .explain <sql>"),
        },
        ".deps" => {
            print!(
                "{}",
                aggview::executor::dependency_graph(session.catalog()).render()
            );
        }
        ".lint" => match parts.get(1) {
            Some(sql) => match session.verify(sql) {
                Ok(result) => {
                    print!("{}", result.plan);
                    print!("{}", result.to_table());
                }
                Err(e) => println!("{e}"),
            },
            None => println!("usage: .lint <sql>"),
        },
        other => println!("unknown command `{other}` — try .help"),
    }
    true
}

fn set_limit(session: &mut Session, key: &str, val: &str) {
    if key == "eager_agg" {
        // Not a governor limit: `off` disables the plan alternative,
        // `on` re-enables it (the default).
        session.config.use_eager_agg = match val {
            "on" | "1" | "true" => true,
            "off" | "0" | "false" => false,
            other => {
                println!("`{other}` is not an eager_agg setting — on | off");
                return;
            }
        };
        println!(
            "eager_agg = {}",
            if session.config.use_eager_agg {
                "on"
            } else {
                "off"
            }
        );
        return;
    }
    let parsed: Option<u64> = if val.eq_ignore_ascii_case("off") {
        None
    } else {
        match val.parse() {
            Ok(n) => Some(n),
            Err(_) => {
                println!("`{val}` is not a number (or `off`)");
                return;
            }
        }
    };
    if key == "batch_rows" {
        // Not a governor limit: `off` restores the default tile size.
        session.exec.batch_rows = match parsed {
            Some(n) => (n as usize).max(1),
            None => aggview::executor::ExecOptions::default().batch_rows,
        };
        println!("batch_rows = {}", session.exec.batch_rows);
        return;
    }
    let l = &mut session.limits;
    match key {
        "timeout_ms" => l.timeout = parsed.map(Duration::from_millis),
        "max_rows" => l.max_rows = parsed,
        "max_bytes" => l.max_bytes = parsed,
        "max_plans" => l.max_plans = parsed,
        "max_memo" => l.max_memo_entries = parsed,
        "retries" => match parsed {
            Some(n) => session.max_retries = n as u32,
            None => session.max_retries = 0,
        },
        other => {
            println!("unknown limit `{other}` — keys: timeout_ms max_rows max_bytes max_plans max_memo retries batch_rows eager_agg");
            return;
        }
    }
    println!(
        "{key} = {}",
        parsed.map_or("off".to_string(), |n| n.to_string())
    );
}

fn with_settings(old: &Session, catalog: aggview::storage::Catalog) -> Session {
    let mut s = Session::new(catalog);
    s.model = old.model;
    s.config = old.config;
    s.limits = old.limits;
    s.max_retries = old.max_retries;
    s.exec = old.exec;
    s
}
