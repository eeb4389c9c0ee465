//! The end-to-end and the traced run of `dml_maintain`.

use crate::oracle::{from_tuples, same_rows};
use crate::probe::{all_configs, Probe, MIN_ROUNDS};
use crate::report::{digest, peak_rss_mb, Measured, Outcome, RunOpts};
use crate::run_read::{
    latency_metrics, parallel_ratio, per_template, percentile_over_windows, traced_select,
    LayerTimes, PlanCounts, Sample, Window,
};
use crate::stats;
use crate::trace::Tracer;
use crate::workloads::dml_maintain::{self as dml, Kind, Stream, Variant, QUERIES, TEMPLATE_NAMES};
use crate::workloads::{ms_since, Ctx, SetupTimes, Stmt};
use aggview_common::Result;
use aggview_sql::binder::ViewRegistry;
use aggview_sql::Session;
use std::fs;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Statements of one pass of an end-to-end run: two checkpoint
/// intervals and half a third, so that every pass leaves half an
/// interval of log for recovery to replay. A fixed number, so that every
/// pass executes the same statements against the same tables and
/// `wal_bytes_per_stmt` and `peak_rss_mb` do not depend on the host's
/// speed.
const PASS_STATEMENTS: usize = 250;

/// Passes an end-to-end run makes at least, however short its budget.
const MIN_PASSES: usize = 3;

/// Statements of the stream under `fixed_work`.
const FIXED_STATEMENTS: usize = 40;

/// Statements a pass of the traced run may execute.
fn stream_limit(opts: &RunOpts) -> usize {
    if opts.fixed_work {
        FIXED_STATEMENTS
    } else {
        usize::MAX
    }
}

/// A scratch directory for one durable catalog, emptied on creation.
fn scratch_dir(opts: &RunOpts, tag: &str) -> std::io::Result<PathBuf> {
    let dir = opts
        .out_dir
        .join("tmp")
        .join(format!("dml-{}-{tag}", std::process::id()));
    if dir.exists() {
        fs::remove_dir_all(&dir)?;
    }
    fs::create_dir_all(&dir)?;
    Ok(dir)
}

fn dir_bytes(dir: &Path) -> u64 {
    fs::read_dir(dir)
        .map(|entries| {
            entries
                .flatten()
                .filter_map(|e| e.metadata().ok())
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}

/// Records in the write-ahead log: frames `[u32 len][u32 crc][payload]`
/// after the 8-byte magic `AGVWAL..` (format documented in
/// `crates/storage/src/wal.rs`).
fn wal_records(dir: &Path) -> u64 {
    let Ok(entries) = fs::read_dir(dir) else {
        return 0;
    };
    for entry in entries.flatten() {
        let Ok(bytes) = fs::read(entry.path()) else {
            continue;
        };
        if !bytes.starts_with(b"AGVWAL") {
            continue;
        }
        let (mut at, mut n) = (8usize, 0u64);
        while at + 8 <= bytes.len() {
            let len = u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]])
                as usize;
            if at + 8 + len > bytes.len() {
                break;
            }
            at += 8 + len;
            n += 1;
        }
        return n;
    }
    0
}

/// Number of views a DML status row says it maintained.
fn views_maintained(status: &str) -> usize {
    status
        .split_once("maintained views: ")
        .map_or(0, |(_, names)| names.split(',').count())
}

/// What one pass over the statement stream measured.
#[derive(Default)]
struct StreamRun {
    samples: Vec<Sample>,
    kinds: Vec<Kind>,
    checkpoint_ms: Vec<f64>,
    /// Bytes the durable directory grew by between checkpoints.
    wal_bytes: u64,
    snapshot_bytes: u64,
    views_maintained: usize,
    texts_digest: u64,
}

impl StreamRun {
    fn ms_where(&self, keep: impl Fn(Kind) -> bool) -> Vec<f64> {
        self.samples
            .iter()
            .zip(&self.kinds)
            .filter(|(_, k)| keep(**k))
            .map(|(s, _)| s.ms)
            .collect()
    }

    /// The pass as one window: the statements of the kinds `keep`
    /// accepts, in stream order.
    fn window_where(&self, keep: impl Fn(Kind) -> bool) -> Window {
        Window {
            ms: self.ms_where(keep),
            extra_busy_ms: 0.0,
        }
    }

    fn dml_count(&self) -> usize {
        self.kinds.iter().filter(|k| k.is_dml()).count()
    }
}

/// Whether a pass records spans.
enum Selects<'a> {
    /// Every statement through `Session::execute`, timed.
    Plain,
    /// Spans around every call; SELECTs also run stage by stage.
    Traced(&'a mut Tracer, &'a mut LayerTimes, &'a mut PlanCounts),
}

/// Drive the stream through `ctx.session` until `budget` is spent and
/// the pass stands half a checkpoint interval past a checkpoint (so
/// every run leaves the same amount of log for recovery to replay), or
/// `limit` statements ran. Every SELECT is compared with the shadow
/// table; on a durable session, a checkpoint (followed by a check of all
/// three extents) runs every `checkpoint_every` statements.
#[allow(clippy::too_many_arguments)]
fn run_stream(
    opts: &RunOpts,
    ctx: &mut Ctx,
    stream: &mut Stream,
    variant: Variant,
    dir: &Path,
    budget: Option<Duration>,
    limit: usize,
    mut selects: Selects<'_>,
    outcome: &mut Outcome,
) -> StreamRun {
    let mut run = StreamRun::default();
    let every = dml::checkpoint_every(opts.scale);
    let durable = variant == Variant::Durable;
    let mut texts = Vec::new();
    let mut mark = dir_bytes(dir);
    let start = Instant::now();
    while run.samples.len() < limit
        && (budget.is_none_or(|b| start.elapsed() < b) || run.samples.len() % every != every / 2)
    {
        let stmt = stream.next_stmt();
        let id = run.samples.len() as u32;
        outcome.attempted += 1;
        let (ms, result) = match &mut selects {
            Selects::Traced(tracer, layers, counts) if !stmt.kind.is_dml() => {
                match traced_select(ctx, &stmt.sql, tracer, id) {
                    Ok((ms, _, staged)) => {
                        layers.add(ms, &staged);
                        counts.add(&staged);
                        // The plain passes compared the rows.
                        (ms, None)
                    }
                    Err(e) => {
                        eprintln!("dml_maintain: traced `{}` failed: {e}", stmt.sql);
                        outcome.failed += 1;
                        (0.0, None)
                    }
                }
            }
            Selects::Traced(tracer, ..) => {
                let span = tracer.begin("session.execute", id, None);
                let result = ctx.session.execute(&stmt.sql);
                (tracer.end(span), Some(result))
            }
            Selects::Plain => {
                let t = Instant::now();
                let result = ctx.session.execute(&stmt.sql);
                (ms_since(t), Some(result))
            }
        };
        run.samples.push(Sample {
            template: stmt.kind.template(),
            ms,
        });
        run.kinds.push(stmt.kind);
        match (result, stmt.kind) {
            (None, _) => {}
            (Some(Err(e)), _) => {
                eprintln!("dml_maintain: `{}` failed: {e}", stmt.sql);
                outcome.failed += 1;
            }
            (Some(Ok(r)), Kind::Select(q)) => {
                if let Err(e) = same_rows(from_tuples(&r.rows), stream.expected(q)) {
                    eprintln!("dml_maintain: wrong answer for `{}`: {e}", stmt.sql);
                    outcome.failed += 1;
                }
            }
            (Some(Ok(r)), _) => {
                let status = r
                    .rows
                    .first()
                    .and_then(|t| t.get(0).as_str().map(str::to_string));
                run.views_maintained += views_maintained(status.as_deref().unwrap_or(""));
            }
        }
        texts.push(stmt.sql);
        if durable && run.samples.len() % every == 0 {
            run.wal_bytes += dir_bytes(dir).saturating_sub(mark);
            let span = match &mut selects {
                Selects::Traced(tracer, ..) => Some(tracer.begin("wal.checkpoint", id, None)),
                Selects::Plain => None,
            };
            let t = Instant::now();
            let checkpointed = ctx.session.checkpoint();
            run.checkpoint_ms.push(ms_since(t));
            if let (Some(span), Selects::Traced(tracer, ..)) = (span, &mut selects) {
                tracer.end(span);
            }
            mark = dir_bytes(dir);
            run.snapshot_bytes = mark;
            outcome.tally(0, u64::from(checkpointed.is_err()));
            dml::verify(&mut ctx.session, stream, false, "after checkpoint", outcome);
        }
    }
    if durable {
        run.wal_bytes += dir_bytes(dir).saturating_sub(mark);
    }
    run.texts_digest = digest(texts.iter().map(String::as_str));
    run
}

/// Open a session of `variant` and wrap it for the probe and the staged
/// pipeline (the stream's SELECTs name base tables only, so the mirror
/// registry stays empty).
fn open_ctx(opts: &RunOpts, variant: Variant, dir: &Path, times: &mut SetupTimes) -> Result<Ctx> {
    let session = dml::open(opts.seed, opts.scale, variant, dir, times)?;
    Ok(Ctx {
        session,
        registry: ViewRegistry::new(),
    })
}

/// The three SELECTs as probe cells.
fn query_cells(stream: &Stream) -> Vec<(String, Stmt, usize)> {
    QUERIES
        .iter()
        .enumerate()
        .map(|(q, sql)| {
            let stmt = Stmt {
                template: 3 + q,
                ctx: 0,
                sql: sql.to_string(),
                params: Vec::new(),
            };
            (
                TEMPLATE_NAMES[3 + q].to_string(),
                stmt,
                stream.expected(q).len(),
            )
        })
        .collect()
}

/// Drop the session, open its directory again and check that every
/// acknowledged statement is visible. Returns `(seconds the recovery
/// took, records replayed)`.
fn reopen(ctx: Ctx, dir: &Path, stream: &Stream, outcome: &mut Outcome) -> Result<(f64, u64)> {
    drop(ctx);
    let records = wal_records(dir);
    let t = Instant::now();
    let mut session = Session::open(dir)?;
    let recover_s = t.elapsed().as_secs_f64();
    session.exec.threads = 1;
    dml::verify(&mut session, stream, true, "after reopen", outcome);
    Ok((recover_s, records))
}

fn scale_facts(stream: &Stream, run: &StreamRun) -> Vec<(String, f64)> {
    vec![
        ("emp_rows_at_end".into(), stream.shadow.len() as f64),
        ("statements".into(), run.samples.len() as f64),
        ("dml_statements".into(), run.dml_count() as f64),
        ("checkpoints".into(), run.checkpoint_ms.len() as f64),
    ]
}

/// One set-up of the durable system: a fresh directory, the generated
/// tables imported, the views created and each query run once. Returns
/// the seconds it took.
fn set_up(opts: &RunOpts) -> Result<(Ctx, PathBuf, f64)> {
    let dir = scratch_dir(opts, "e2e").map_err(io_error)?;
    let t = Instant::now();
    let mut ctx = open_ctx(opts, Variant::Durable, &dir, &mut SetupTimes::default())?;
    for sql in QUERIES {
        ctx.session.execute(sql)?;
    }
    Ok((ctx, dir, t.elapsed().as_secs_f64()))
}

/// One pass of an end-to-end run: set up a fresh durable directory, run
/// the first `limit` statements of the seed's stream, check the tables
/// against the shadow, drop the session and reopen the directory.
struct Pass {
    setup_s: f64,
    run: StreamRun,
    /// `VmHWM` after the stream, before the whole-table comparisons
    /// (whose copies of `emp` are the oracle's memory), MB.
    peak_rss_mb: f64,
    recover_s: f64,
    replay_records: u64,
    scale_facts: Vec<(String, f64)>,
}

fn pass(opts: &RunOpts, limit: usize, outcome: &mut Outcome) -> Result<Pass> {
    let (mut ctx, dir, setup_s) = set_up(opts)?;
    let mut stream = Stream::new(opts.seed, &ctx.session);
    dml::verify(&mut ctx.session, &stream, false, "after set-up", outcome);
    let run = run_stream(
        opts,
        &mut ctx,
        &mut stream,
        Variant::Durable,
        &dir,
        None,
        limit,
        Selects::Plain,
        outcome,
    );
    let peak_rss_mb = peak_rss_mb();
    dml::verify(&mut ctx.session, &stream, true, "at the end", outcome);
    let (recover_s, replay_records) = reopen(ctx, &dir, &stream, outcome)?;
    fs::remove_dir_all(&dir).map_err(io_error)?;
    Ok(Pass {
        setup_s,
        peak_rss_mb,
        recover_s,
        replay_records,
        scale_facts: scale_facts(&stream, &run),
        run,
    })
}

/// Passes over the same statements from the same fresh state, until the
/// budget is spent: every pass gives one set-up, one recovery and one
/// time for every statement and checkpoint of the stream, and
/// [`crate::run_read::quietest`] holds across passes as it does across
/// the passes of a read-only workload.
pub fn end_to_end(opts: &RunOpts) -> Result<Outcome> {
    let mut outcome = Outcome::default();
    let (limit, min_passes) = if opts.fixed_work {
        (FIXED_STATEMENTS, 1)
    } else {
        (PASS_STATEMENTS, MIN_PASSES)
    };
    let start = Instant::now();
    let mut passes = vec![pass(opts, limit, &mut outcome)?];
    while passes.len() < min_passes || opts.budget(1.0).is_some_and(|b| start.elapsed() < b) {
        passes.push(pass(opts, limit, &mut outcome)?);
    }

    // What the first pass says stands for the run: the process has then
    // set up once, and the counts repeat in every pass.
    let first = &passes[0];
    let dml_count = first.run.dml_count();
    outcome.digest = first.run.texts_digest;
    if passes
        .iter()
        .any(|p| p.run.texts_digest != first.run.texts_digest)
    {
        eprintln!("dml_maintain: the passes ran different statements");
        outcome.failed += 1;
    }
    outcome.scale_facts = first.scale_facts.clone();
    outcome
        .scale_facts
        .push(("passes".into(), passes.len() as f64));
    outcome.counters = vec![
        ("wal.bytes".into(), first.run.wal_bytes as f64),
        ("wal.dml_statements".into(), dml_count as f64),
    ];

    // One window per pass, the checkpoints' time included.
    let whole: Vec<Window> = passes
        .iter()
        .map(|p| Window {
            extra_busy_ms: stats::sum(&p.run.checkpoint_ms),
            ..p.run.window_where(|_| true)
        })
        .collect();
    let dml: Vec<Window> = passes
        .iter()
        .map(|p| p.run.window_where(Kind::is_dml))
        .collect();
    let queries: Vec<Window> = passes
        .iter()
        .map(|p| p.run.window_where(|k| !k.is_dml()))
        .collect();
    let of = |f: fn(&Pass) -> f64| passes.iter().map(f).collect::<Vec<f64>>();
    outcome
        .metrics
        .push(Measured::median("setup_s", &of(|p| p.setup_s), "s"));
    outcome.metrics.extend(latency_metrics(&whole));
    outcome
        .metrics
        .push(Measured::single("peak_rss_mb", first.peak_rss_mb, "MB"));
    outcome.one_workload = vec![
        percentile_over_windows("dml_p50_ms", &dml, 50.0),
        percentile_over_windows("dml_p95_ms", &dml, 95.0),
        percentile_over_windows("query_p50_ms", &queries, 50.0),
        Measured::median("recover_s", &of(|p| p.recover_s), "s"),
        Measured::counted(
            "wal_bytes_per_stmt",
            first.run.wal_bytes as f64 / dml_count.max(1) as f64,
            "B",
            dml_count,
        ),
    ];
    let checkpoint_ms: Vec<f64> = passes
        .iter()
        .flat_map(|p| p.run.checkpoint_ms.iter().copied())
        .collect();
    let samples: Vec<Sample> = passes
        .iter()
        .flat_map(|p| p.run.samples.iter().copied())
        .collect();
    outcome.info.extend([
        // Not bounded: a pass holds about 50 SELECTs, fewer than ten
        // beyond their 95th percentile.
        percentile_over_windows("query_p95_ms", &queries, 95.0),
        Measured::median("checkpoint_ms", &checkpoint_ms, "ms"),
        Measured::single("wal.replay_records", first.replay_records as f64, "count"),
    ]);
    outcome
        .info
        .extend(per_template(&samples, &TEMPLATE_NAMES, "template.", ".ms"));
    Ok(outcome)
}

fn io_error(e: std::io::Error) -> aggview_common::AggViewError {
    aggview_common::AggViewError::Io(format!("benchmark scratch directory: {e}"))
}

pub fn traced(opts: &RunOpts, tracer: &mut Tracer) -> Result<Outcome> {
    let mut outcome = Outcome::default();
    let limit = stream_limit(opts);
    let mut times = SetupTimes::default();

    // The durable system untraced, for as long as the budget allows;
    // every other pass then runs the same number of statements of the
    // same stream.
    let dir = scratch_dir(opts, "plain").map_err(io_error)?;
    let mut ctx = open_ctx(opts, Variant::Durable, &dir, &mut times)?;
    let mut stream = Stream::new(opts.seed, &ctx.session);
    let plain = run_stream(
        opts,
        &mut ctx,
        &mut stream,
        Variant::Durable,
        &dir,
        opts.budget(0.2),
        limit,
        Selects::Plain,
        &mut outcome,
    );
    drop(ctx);
    fs::remove_dir_all(&dir).map_err(io_error)?;
    let statements = plain.samples.len();

    let mut in_memory = Vec::new();
    for variant in [Variant::Memory, Variant::MemoryViews] {
        let mut ctx = open_ctx(opts, variant, &dir, &mut SetupTimes::default())?;
        let mut stream = Stream::new(opts.seed, &ctx.session);
        in_memory.push(run_stream(
            opts,
            &mut ctx,
            &mut stream,
            variant,
            &dir,
            None,
            statements,
            Selects::Plain,
            &mut outcome,
        ));
    }

    let dir = scratch_dir(opts, "traced").map_err(io_error)?;
    let mut ctx = open_ctx(opts, Variant::Durable, &dir, &mut SetupTimes::default())?;
    let mut stream = Stream::new(opts.seed, &ctx.session);
    let mut layers = LayerTimes::default();
    let mut counts = PlanCounts::default();
    let durable = {
        let selects = Selects::Traced(tracer, &mut layers, &mut counts);
        run_stream(
            opts,
            &mut ctx,
            &mut stream,
            Variant::Durable,
            &dir,
            None,
            statements,
            selects,
            &mut outcome,
        )
    };
    dml::verify(&mut ctx.session, &stream, true, "at the end", &mut outcome);

    let cells = query_cells(&stream);
    let mut ctxs = [ctx];
    let mut probe = Probe::prepare(&mut ctxs, &cells, &all_configs())?;
    probe.run(&mut ctxs, opts.budget(0.15), MIN_ROUNDS);
    outcome.tally(probe.attempted, probe.failed);

    let selects: Vec<Stmt> = (0..5)
        .flat_map(|_| cells.iter().map(|(_, stmt, _)| stmt.clone()))
        .collect();
    let parallel = parallel_ratio(&mut ctxs, &selects);
    let [ctx] = ctxs;

    let (recover_s, records) = reopen(ctx, &dir, &stream, &mut outcome)?;
    fs::remove_dir_all(&dir).map_err(io_error)?;

    // Attribute DML time: A = in memory without views, B = with views,
    // C = durable with views, all over the same statements.
    let sum_dml = |run: &StreamRun| stats::sum(&run.ms_where(Kind::is_dml));
    let (a, b, c) = (
        sum_dml(&in_memory[0]),
        sum_dml(&in_memory[1]),
        sum_dml(&durable),
    );
    let checkpoints = stats::sum(&durable.checkpoint_ms);
    let all_ms: f64 = durable.samples.iter().map(|s| s.ms).sum::<f64>() + checkpoints;
    let dml_n = durable.dml_count();
    let plain_dml = plain.ms_where(Kind::is_dml);
    let plain_ms: f64 = plain.samples.iter().map(|s| s.ms).sum();
    let traced_ms: f64 = durable.samples.iter().map(|s| s.ms).sum();
    let sorted_dml = stats::sorted(&plain_dml);

    outcome.digest = durable.texts_digest;
    if durable.texts_digest != plain.texts_digest
        || in_memory
            .iter()
            .any(|r| r.texts_digest != plain.texts_digest)
    {
        eprintln!("dml_maintain: the passes of the traced run did not see the same statements");
        outcome.failed += 1;
    }
    outcome.scale_facts = scale_facts(&stream, &durable);
    outcome.counters = counts.counters();
    outcome
        .counters
        .push(("wal.bytes".into(), durable.wal_bytes as f64));
    outcome
        .counters
        .push(("wal.replay_records".into(), records as f64));

    outcome.metrics.extend(layers.metrics(all_ms));
    outcome.metrics.extend(counts.metrics());
    // No statement of the stream names a view, and the plans are extent
    // scans: push-down and eager aggregation have nothing to change.
    outcome.metrics.push(Measured::counted(
        "optimizer.pushdown_share",
        0.0,
        "ratio",
        layers.session_ms.len(),
    ));
    outcome.metrics.push(Measured::counted(
        "optimizer.eager_share",
        0.0,
        "ratio",
        layers.session_ms.len(),
    ));
    outcome.metrics.extend(probe.cost_metrics());
    outcome.metrics.extend([
        parallel,
        Measured::median("query.p50_ms", &plain.ms_where(|k| !k.is_dml()), "ms"),
        Measured::counted("catalog.mutate_share", a / all_ms, "ratio", dml_n),
        Measured::counted("delta.maintain_share", (b - a) / all_ms, "ratio", dml_n),
        Measured::counted(
            "delta.views_maintained",
            durable.views_maintained as f64 / dml_n.max(1) as f64,
            "count",
            dml_n,
        ),
        Measured::counted("wal.append_share", (c - b) / all_ms, "ratio", dml_n),
        Measured::counted(
            "wal.checkpoint_share",
            checkpoints / all_ms,
            "ratio",
            durable.checkpoint_ms.len(),
        ),
        Measured::counted(
            "wal.bytes_per_stmt",
            durable.wal_bytes as f64 / dml_n.max(1) as f64,
            "B",
            dml_n,
        ),
        Measured::single("wal.replay_records", records as f64, "count"),
        Measured::single("wal.snapshot_bytes", durable.snapshot_bytes as f64, "B"),
        Measured::single(
            "wal.recover_rows_per_s",
            stream.shadow.len() as f64 / recover_s,
            "1/s",
        ),
        Measured::counted(
            "dml.stmts_per_s",
            plain_dml.len() as f64 / (plain_dml.iter().sum::<f64>() / 1e3),
            "1/s",
            plain_dml.len(),
        ),
        Measured::counted(
            "dml.p95_over_p50",
            stats::percentile_sorted(&sorted_dml, 95.0)
                / stats::percentile_sorted(&sorted_dml, 50.0),
            "ratio",
            sorted_dml.len(),
        ),
        Measured::single("matview.build_ms", times.matview_build_ms, "ms"),
        Measured::single("matview.refresh_ms", times.matview_refresh_ms, "ms"),
        Measured::single("matview.extent_rows", times.extent_rows, "count"),
        Measured::single("datagen.gen_ms", times.gen_ms, "ms"),
        Measured::counted(
            "trace.overhead_ratio",
            traced_ms / plain_ms,
            "ratio",
            statements,
        ),
    ]);

    let per_dml = |x: f64| x / dml_n.max(1) as f64;
    outcome.info.extend([
        Measured::counted("catalog.mutate_ms", per_dml(a), "ms", dml_n),
        Measured::counted("delta.maintain_ms", per_dml(b - a), "ms", dml_n),
        Measured::counted("wal.append_ms", per_dml(c - b), "ms", dml_n),
        Measured::median("wal.checkpoint_ms", &durable.checkpoint_ms, "ms"),
        Measured::single("recover_s", recover_s, "s"),
        Measured::percentile("dml_p50_ms", &plain_dml, 50.0, "ms"),
        Measured::percentile("dml_p95_ms", &plain_dml, 95.0, "ms"),
    ]);
    outcome.info.extend(probe.info());
    Ok(outcome)
}
