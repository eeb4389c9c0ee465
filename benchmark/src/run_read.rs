//! The end-to-end and the traced run of the read-only workloads
//! (`view_join`, `star_agg`, `plan_heavy`, `plan_choice`).

use crate::oracle::Tables;
use crate::oracle::{from_tuples, same_rows};
use crate::pipeline::{features_used, run_staged, Staged};
use crate::probe::{all_configs, Probe, MIN_ROUNDS};
use crate::report::{digest, host_cpus, peak_rss_mb, Measured, Outcome, RunOpts};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::{self, ms_since, Built, Ctx, Stmt};
use aggview_common::Result;
use std::collections::HashSet;
use std::time::{Duration, Instant};

/// Statements whose optimizer features are analysed in a traced run.
const FEATURE_SAMPLE: usize = 150;

/// Statements the parallel-ratio diagnostic executes per thread count.
const PARALLEL_SAMPLE: usize = 30;

/// One timed statement execution.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub template: usize,
    pub ms: f64,
}

/// What the warm-up pass learned.
struct WarmUp {
    /// Sum of the `Session::execute` calls, ms.
    execute_ms: f64,
    /// Rows each statement of the list returns (`usize::MAX` for one
    /// that failed).
    rows: Vec<usize>,
    attempted: u64,
    failed: u64,
}

/// Execute every statement once, in list order, so caches and lazy
/// state are warm.
fn warm_up(built: &mut Built, stmts: &[Stmt]) -> WarmUp {
    let mut out = WarmUp {
        execute_ms: 0.0,
        rows: Vec::with_capacity(stmts.len()),
        attempted: 0,
        failed: 0,
    };
    for stmt in stmts {
        let t = Instant::now();
        let result = built.ctxs[stmt.ctx].session.execute(&stmt.sql);
        out.execute_ms += ms_since(t);
        out.attempted += 1;
        match result {
            Ok(r) => out.rows.push(r.rows.len()),
            Err(e) => {
                let name = built.templates[stmt.template].name;
                eprintln!("{name}: `{}` failed: {e}", stmt.sql);
                out.rows.push(usize::MAX);
                out.failed += 1;
            }
        }
    }
    out
}

/// Execute every distinct statement of `stmts` once more and compare
/// its rows with the oracle's answer. An end-to-end run does this after
/// it has measured, so neither the oracle's copies of the tables nor
/// its answers are in `peak_rss_mb`; the timed passes in between hold
/// every execution to the row count seen here. Returns the base rows
/// the oracle read, for the run record.
fn check_answers(built: &mut Built, stmts: &[Stmt], outcome: &mut Outcome) -> usize {
    let mut tables: Vec<Option<Tables>> = built.ctxs.iter().map(|_| None).collect();
    let mut checked: HashSet<(usize, &str)> = HashSet::new();
    for stmt in stmts {
        if !checked.insert((stmt.ctx, &stmt.sql)) {
            continue;
        }
        let ctx = &mut built.ctxs[stmt.ctx];
        let tables = tables[stmt.ctx].get_or_insert_with(|| Tables::read(ctx.session.catalog()));
        let template = &built.templates[stmt.template];
        let verdict = ctx
            .session
            .execute(&stmt.sql)
            .map_err(|e| e.to_string())
            .and_then(|r| {
                same_rows(
                    from_tuples(&r.rows),
                    (template.expected)(tables, &stmt.params),
                )
            });
        if let Err(e) = &verdict {
            eprintln!("{}: wrong answer for `{}`: {e}", template.name, stmt.sql);
        }
        outcome.tally(1, u64::from(verdict.is_err()));
    }
    tables.iter().flatten().map(Tables::rows).sum()
}

/// Build the workload and warm it up; returns the set-up time in
/// seconds.
fn set_up(opts: &RunOpts) -> Result<(Built, WarmUp, f64)> {
    let t = Instant::now();
    let mut built = workloads::build(&opts.workload, opts.seed, opts.scale)?;
    let stmts = built.stmts.clone();
    let warm = warm_up(&mut built, &stmts);
    let setup_s = t.elapsed().as_secs_f64();
    Ok((built, warm, setup_s))
}

/// Run statements of the list round-robin, timing each
/// `Session::execute`, until the budget is spent (or, with no budget,
/// for exactly `passes` passes). A result with the wrong row count or
/// an error is a failure.
fn statement_loop(
    built: &mut Built,
    rows: &[usize],
    budget: Option<Duration>,
    passes: usize,
    outcome: &mut Outcome,
) -> Vec<Sample> {
    let n = built.stmts.len();
    let mut samples = Vec::new();
    let start = Instant::now();
    for i in 0.. {
        match budget {
            Some(b) if start.elapsed() >= b => break,
            None if i >= n * passes => break,
            _ => {}
        }
        let stmt = &built.stmts[i % n];
        let session = &mut built.ctxs[stmt.ctx].session;
        let t = Instant::now();
        let result = session.execute(&stmt.sql);
        samples.push(Sample {
            template: stmt.template,
            ms: ms_since(t),
        });
        outcome.attempted += 1;
        if !result.is_ok_and(|r| r.rows.len() == rows[i % n]) {
            eprintln!(
                "{}: `{}` failed or changed its row count",
                built.templates[stmt.template].name, stmt.sql
            );
            outcome.failed += 1;
        }
    }
    samples
}

/// Cells for the probe: `(name, statement, expected row count)`, the
/// row count taken from `rows`, parallel to `cells`.
fn probe_cells(built: &Built, cells: &[Stmt], rows: &[usize]) -> Vec<(String, Stmt, usize)> {
    cells
        .iter()
        .zip(rows)
        .map(|(stmt, rows)| {
            let name = built.templates[stmt.template].name.to_string();
            (name, stmt.clone(), *rows)
        })
        .collect()
}

/// Consecutive timed statements that make one measurement: a pass over
/// the statement list, a round of `plan_choice` cells, a pass over the
/// DML stream from a fresh set-up. Every window of a run holds the same
/// statements in the same order, against the same state.
pub struct Window {
    pub ms: Vec<f64>,
    /// Busy time beside the statements (a checkpoint), ms.
    pub extra_busy_ms: f64,
}

/// Cut `samples` into complete windows of `len` statements; a trailing
/// partial window is dropped unless it is the only one.
pub fn windows(samples: &[Sample], len: usize) -> Vec<Window> {
    let whole = samples.len() / len.max(1) * len.max(1);
    let used = if whole == 0 {
        samples
    } else {
        &samples[..whole]
    };
    used.chunks(len.max(1))
        .map(|chunk| Window {
            ms: chunk.iter().map(|s| s.ms).collect(),
            extra_busy_ms: 0.0,
        })
        .collect()
}

/// The quietest execution of every slot. All windows of a run hold the
/// same statements in the same order, and the program is one thread
/// that does the same work each time, so the times of one slot differ
/// only by what else the host was doing, which only ever adds time. The
/// minimum over the windows is therefore the estimate of the slot's own
/// time that a noisy neighbour moves least (`benchmark/README.md` has
/// the measurements against the median window).
pub fn quietest(windows: &[Window]) -> Window {
    let len = windows.iter().map(|w| w.ms.len()).min().unwrap_or(0);
    let least = |f: &dyn Fn(&Window) -> f64| windows.iter().map(f).fold(f64::INFINITY, f64::min);
    Window {
        ms: (0..len).map(|i| least(&|w| w.ms[i])).collect(),
        extra_busy_ms: if windows.is_empty() {
            0.0
        } else {
            least(&|w| w.extra_busy_ms)
        },
    }
}

/// Throughput, median and 95th percentile over the slots of the
/// quietest window (see [`quietest`]).
pub fn latency_metrics(windows: &[Window]) -> Vec<Measured> {
    vec![
        over_windows("stmts_per_s", "1/s", windows, |w| {
            w.ms.len() as f64 / ((stats::sum(&w.ms) + w.extra_busy_ms) / 1e3)
        }),
        percentile_over_windows("stmt_p50_ms", windows, 50.0),
        percentile_over_windows("stmt_p95_ms", windows, 95.0),
    ]
}

/// `f` of the quietest window; `n` is the number of samples in all
/// windows together, and the quartiles are those of `f` over the single
/// windows, which tell how disturbed the run was.
fn over_windows(
    name: &str,
    unit: &str,
    windows: &[Window],
    f: impl Fn(&Window) -> f64,
) -> Measured {
    Measured {
        value: f(&quietest(windows)),
        n: windows.iter().map(|w| w.ms.len()).sum(),
        ..Measured::median(name, &windows.iter().map(&f).collect::<Vec<f64>>(), unit)
    }
}

/// The `p`-th percentile of the statement times of the quietest window.
pub fn percentile_over_windows(name: &str, windows: &[Window], p: f64) -> Measured {
    over_windows(name, "ms", windows, |w| {
        stats::percentile_sorted(&stats::sorted(&w.ms), p)
    })
}

/// Median time per template, for the run record, named
/// `<prefix><template><suffix>`.
pub fn per_template(
    samples: &[Sample],
    names: &[&str],
    prefix: &str,
    suffix: &str,
) -> Vec<Measured> {
    names
        .iter()
        .enumerate()
        .filter_map(|(i, name)| {
            let ms: Vec<f64> = samples
                .iter()
                .filter(|s| s.template == i)
                .map(|s| s.ms)
                .collect();
            (!ms.is_empty())
                .then(|| Measured::median(&format!("{prefix}{name}{suffix}"), &ms, "ms"))
        })
        .collect()
}

fn scale_facts(built: &Built, base_rows: usize) -> Vec<(String, f64)> {
    vec![
        ("base_rows".into(), base_rows as f64),
        ("catalogs".into(), built.ctxs.len() as f64),
        ("statements".into(), built.stmts.len() as f64),
        ("templates".into(), built.templates.len() as f64),
    ]
}

pub fn end_to_end(opts: &RunOpts) -> Result<Outcome> {
    let mut outcome = Outcome::default();
    let (mut built, warm, first_setup_s) = set_up(opts)?;
    outcome.tally(warm.attempted, warm.failed);
    outcome.digest = digest(built.stmts.iter().map(|s| s.sql.as_str()));
    outcome.counters.push((
        "warm_up.result_rows".into(),
        warm.rows.iter().sum::<usize>() as f64,
    ));
    let names: Vec<&str> = built.templates.iter().map(|t| t.name).collect();

    // `plan_choice` is the comparison itself: its statements are the
    // cells, run under all five configurations for all of the time, and
    // its statement metrics are the default configuration's samples. The
    // peak is taken first, when only the warm-up (the default
    // configuration) has run: the alternatives' plans are the
    // benchmark's doing, not the system's choice.
    let (samples, peak_rss) = if opts.workload == "plan_choice" {
        let peak_rss = peak_rss_mb();
        let cells = probe_cells(&built, &built.stmts, &warm.rows);
        let mut probe = Probe::prepare(&mut built.ctxs, &cells, &all_configs())?;
        probe.run(&mut built.ctxs, opts.budget(1.0), MIN_ROUNDS);
        outcome.tally(probe.attempted, probe.failed);
        outcome.one_workload = vec![probe.chosen_vs_traditional(), probe.regret()];
        outcome.info.extend(probe.cost_metrics());
        outcome.info.extend(probe.info());
        let samples = probe
            .default_samples()
            .into_iter()
            .map(|(template, ms)| Sample { template, ms })
            .collect();
        (samples, peak_rss)
    } else {
        let samples = statement_loop(&mut built, &warm.rows, opts.budget(1.0), 1, &mut outcome);
        (samples, peak_rss_mb())
    };

    let stmts = built.stmts.clone();
    let base_rows = check_answers(&mut built, &stmts, &mut outcome);
    outcome.scale_facts = scale_facts(&built, base_rows);
    let list_len = stmts.len();
    drop(built);

    // The other set-ups come after the measurement, so that the peak
    // above is that of a process that set up once.
    let mut setups = vec![first_setup_s];
    for _ in 1..opts.setups() {
        let (_, warm, setup_s) = set_up(opts)?;
        outcome.tally(warm.attempted, warm.failed);
        setups.push(setup_s);
    }

    outcome
        .metrics
        .push(Measured::median("setup_s", &setups, "s"));
    outcome
        .metrics
        .extend(latency_metrics(&windows(&samples, list_len)));
    outcome
        .metrics
        .push(Measured::single("peak_rss_mb", peak_rss, "MB"));
    outcome
        .info
        .extend(per_template(&samples, &names, "template.", ".ms"));
    Ok(outcome)
}

/// Sums and samples of the traced statement executions.
#[derive(Default)]
pub struct LayerTimes {
    pub session_ms: Vec<f64>,
    pub parse_ms: Vec<f64>,
    pub bind_ms: Vec<f64>,
    pub optimize_ms: Vec<f64>,
    pub verify_ms: Vec<f64>,
    pub execute_ms: Vec<f64>,
    pub overhead_ms: Vec<f64>,
    pub rows_in: usize,
}

impl LayerTimes {
    pub fn add(&mut self, session_ms: f64, s: &Staged) {
        self.session_ms.push(session_ms);
        self.parse_ms.push(s.parse_ms);
        self.bind_ms.push(s.bind_ms);
        self.optimize_ms.push(s.optimize_ms);
        self.verify_ms.push(s.verify_ms);
        self.execute_ms.push(s.execute_self_ms());
        self.overhead_ms.push(session_ms - s.staged_total_ms());
        self.rows_in += s.rows_in;
    }

    /// The `<layer>_ms` (per-statement median) and `<layer>_share`
    /// (layer self time / `denominator_ms`) metrics of the SELECT
    /// pipeline.
    pub fn metrics(&self, denominator_ms: f64) -> Vec<Measured> {
        let layers: [(&str, &Vec<f64>); 6] = [
            ("sql.parse", &self.parse_ms),
            ("sql.bind", &self.bind_ms),
            ("optimizer.optimize", &self.optimize_ms),
            ("analyze.verify", &self.verify_ms),
            ("executor.execute", &self.execute_ms),
            ("session.overhead", &self.overhead_ms),
        ];
        let mut out = Vec::new();
        for (name, ms) in layers {
            out.push(Measured::median(&format!("{name}_ms"), ms, "ms"));
            let share = stats::sum(ms) / denominator_ms;
            out.push(Measured::counted(
                &format!("{name}_share"),
                share,
                "ratio",
                ms.len(),
            ));
        }
        let execute_s = stats::sum(&self.execute_ms) / 1e3;
        out.push(Measured::counted(
            "executor.rows_in_per_s",
            self.rows_in as f64 / execute_s.max(1e-9),
            "1/s",
            self.execute_ms.len(),
        ));
        out
    }
}

/// Counts of the first traced pass over the list; they repeat exactly
/// for a seed.
#[derive(Default)]
pub struct PlanCounts {
    pub statements: usize,
    pub plans_built: u64,
    pub groupby_placements: u64,
    pub degraded: u64,
    pub io_pages: f64,
    pub peak_intermediate_bytes: u64,
    pub pulled_up: usize,
    pub extent_scans: usize,
    pub q_errors: Vec<f64>,
}

impl PlanCounts {
    pub fn add(&mut self, s: &Staged) {
        self.statements += 1;
        self.plans_built += s.plans_built;
        self.groupby_placements += s.groupby_placements;
        self.degraded += u64::from(s.degraded);
        self.io_pages += s.io_pages;
        self.peak_intermediate_bytes = self.peak_intermediate_bytes.max(s.peak_intermediate_bytes);
        self.pulled_up += usize::from(s.pulled_up);
        self.extent_scans += usize::from(s.extent_scan);
        if s.executed {
            self.q_errors.push(s.q_error());
        }
    }

    pub fn metrics(&self) -> Vec<Measured> {
        let n = self.statements;
        let share = |k: usize| k as f64 / n.max(1) as f64;
        vec![
            Measured::counted("optimizer.plans_built", self.plans_built as f64, "count", n),
            Measured::counted(
                "optimizer.groupby_placements",
                self.groupby_placements as f64,
                "count",
                n,
            ),
            Measured::counted("optimizer.degraded_count", self.degraded as f64, "count", n),
            Measured::counted("optimizer.pullup_share", share(self.pulled_up), "ratio", n),
            Measured::counted("matview.hit_share", share(self.extent_scans), "ratio", n),
            Measured::counted("executor.io_pages", self.io_pages, "pages", n),
            Measured::counted(
                "executor.peak_intermediate_bytes",
                self.peak_intermediate_bytes as f64,
                "B",
                n,
            ),
            Measured {
                value: stats::geomean(&self.q_errors),
                ..Measured::median("cost.qerror_geomean", &self.q_errors, "ratio")
            },
            Measured {
                value: self.q_errors.iter().copied().fold(1.0, f64::max),
                ..Measured::median("cost.qerror_max", &self.q_errors, "ratio")
            },
        ]
    }

    pub fn counters(&self) -> Vec<(String, f64)> {
        vec![
            ("optimizer.plans_built".into(), self.plans_built as f64),
            (
                "optimizer.groupby_placements".into(),
                self.groupby_placements as f64,
            ),
            ("executor.io_pages".into(), self.io_pages),
            (
                "executor.peak_intermediate_bytes".into(),
                self.peak_intermediate_bytes as f64,
            ),
        ]
    }
}

/// Execute one SELECT under a `stmt` span: `Session::execute` first,
/// then the same statement stage by stage. Returns the session's time.
pub fn traced_select(
    ctx: &mut Ctx,
    sql: &str,
    tracer: &mut Tracer,
    stmt_id: u32,
) -> Result<(f64, usize, Staged)> {
    let root = tracer.begin("stmt", stmt_id, None);
    let span = tracer.begin("session.execute", stmt_id, Some(root));
    let result = ctx.session.execute(sql);
    let session_ms = tracer.end(span);
    let staged = run_staged(ctx, sql, tracer, stmt_id, root);
    tracer.end(root);
    Ok((session_ms, result?.rows.len(), staged?))
}

/// Share of the sampled statements whose plan push-down, and eager
/// aggregation, changed.
pub fn feature_shares(built: &Built, stmts: &[Stmt]) -> Result<Vec<Measured>> {
    let mut seen: HashSet<(usize, &str)> = HashSet::new();
    let (mut push_down, mut eager, mut n) = (0usize, 0usize, 0usize);
    for stmt in stmts {
        if n >= FEATURE_SAMPLE {
            break;
        }
        if !seen.insert((stmt.ctx, &stmt.sql)) {
            continue;
        }
        let f = features_used(&built.ctxs[stmt.ctx], &stmt.sql)?;
        push_down += usize::from(f.push_down);
        eager += usize::from(f.eager);
        n += 1;
    }
    let share = |k: usize| k as f64 / n.max(1) as f64;
    Ok(vec![
        Measured::counted("optimizer.pushdown_share", share(push_down), "ratio", n),
        Measured::counted("optimizer.eager_share", share(eager), "ratio", n),
    ])
}

/// Time `stmts` at `threads = host cpus` and at `threads = 1`; > 1 means
/// the parallel operators are slower here.
pub fn parallel_ratio(ctxs: &mut [Ctx], stmts: &[Stmt]) -> Measured {
    let mut totals = [0.0f64; 2];
    for (slot, threads) in [(0, host_cpus()), (1, 1)] {
        for stmt in stmts {
            let session = &mut ctxs[stmt.ctx].session;
            session.exec.threads = threads;
            let t = Instant::now();
            let _ = session.execute(&stmt.sql);
            totals[slot] += ms_since(t);
            session.exec.threads = 1;
        }
    }
    let ratio = totals[0] / totals[1];
    Measured::counted("executor.parallel_ratio", ratio, "ratio", stmts.len())
}

/// The per-layer metrics a read-only workload bypasses.
pub fn dml_layer_zeros() -> Vec<Measured> {
    [
        ("catalog.mutate_share", "ratio"),
        ("delta.maintain_share", "ratio"),
        ("delta.views_maintained", "count"),
        ("wal.append_share", "ratio"),
        ("wal.checkpoint_share", "ratio"),
        ("wal.bytes_per_stmt", "B"),
        ("wal.replay_records", "count"),
        ("wal.snapshot_bytes", "B"),
        ("wal.recover_rows_per_s", "1/s"),
        ("dml.stmts_per_s", "1/s"),
        ("dml.p95_over_p50", "ratio"),
    ]
    .iter()
    .map(|(name, unit)| Measured::counted(name, 0.0, unit, 0))
    .collect()
}

pub fn traced(opts: &RunOpts, tracer: &mut Tracer) -> Result<Outcome> {
    let mut outcome = Outcome::default();
    let (mut built, warm, _) = set_up(opts)?;
    outcome.tally(warm.attempted, warm.failed);
    outcome.digest = digest(built.stmts.iter().map(|s| s.sql.as_str()));
    let stmts = built.stmts.clone();
    let base_rows = check_answers(&mut built, &stmts, &mut outcome);
    outcome.scale_facts = scale_facts(&built, base_rows);

    // Untraced: whole passes over the list, at least one.
    let n = built.stmts.len();
    let start = Instant::now();
    let mut untraced = statement_loop(&mut built, &warm.rows, None, 1, &mut outcome);
    while opts
        .budget(0.25)
        .is_some_and(|budget| start.elapsed() < budget)
    {
        untraced.extend(statement_loop(
            &mut built,
            &warm.rows,
            None,
            1,
            &mut outcome,
        ));
    }

    // Traced: the same statements again, each also stage by stage.
    let mut layers = LayerTimes::default();
    let mut counts = PlanCounts::default();
    for i in 0..untraced.len() {
        let stmt = built.stmts[i % n].clone();
        let (session_ms, rows, staged) =
            traced_select(&mut built.ctxs[stmt.ctx], &stmt.sql, tracer, i as u32)?;
        outcome.attempted += 1;
        if rows != warm.rows[i % n] || (staged.executed && staged.rows != rows) {
            eprintln!(
                "{}: traced `{}` changed its row count",
                built.templates[stmt.template].name, stmt.sql
            );
            outcome.failed += 1;
        }
        layers.add(session_ms, &staged);
        if i < n {
            counts.add(&staged);
        }
    }
    let traced_ms = stats::sum(&layers.session_ms);
    let untraced_ms: Vec<f64> = untraced.iter().map(|s| s.ms).collect();
    outcome.counters = counts.counters();

    let cells = built.cells.clone();
    let cell_rows = warm_up(&mut built, &cells);
    outcome.tally(cell_rows.attempted, cell_rows.failed);
    check_answers(&mut built, &cells, &mut outcome);
    let cells = probe_cells(&built, &cells, &cell_rows.rows);
    let mut probe = Probe::prepare(&mut built.ctxs, &cells, &all_configs())?;
    probe.run(&mut built.ctxs, opts.budget(0.3), MIN_ROUNDS);
    outcome.tally(probe.attempted, probe.failed);

    outcome.metrics.extend(layers.metrics(traced_ms));
    outcome.metrics.extend(counts.metrics());
    outcome
        .metrics
        .extend(feature_shares(&built, &built.stmts)?);
    outcome.metrics.extend(probe.cost_metrics());
    let sample = built.stmts.len().min(PARALLEL_SAMPLE);
    outcome
        .metrics
        .push(parallel_ratio(&mut built.ctxs, &built.stmts[..sample]));
    outcome
        .metrics
        .push(Measured::median("query.p50_ms", &untraced_ms, "ms"));
    outcome.metrics.extend(dml_layer_zeros());
    outcome.metrics.extend([
        Measured::single("matview.build_ms", built.times.matview_build_ms, "ms"),
        Measured::single("matview.refresh_ms", built.times.matview_refresh_ms, "ms"),
        Measured::single("matview.extent_rows", built.times.extent_rows, "count"),
        Measured::single("datagen.gen_ms", built.times.gen_ms, "ms"),
        Measured::counted(
            "trace.overhead_ratio",
            traced_ms / stats::sum(&untraced_ms),
            "ratio",
            untraced_ms.len(),
        ),
    ]);

    let names: Vec<&str> = built.templates.iter().map(|t| t.name).collect();
    let execute_samples: Vec<Sample> = (0..untraced.len())
        .map(|i| Sample {
            template: built.stmts[i % n].template,
            ms: layers.execute_ms[i],
        })
        .collect();
    outcome
        .info
        .extend(per_template(&execute_samples, &names, "executor.ms.", ""));
    outcome.info.extend(probe.info());
    Ok(outcome)
}
