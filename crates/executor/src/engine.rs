//! The plan evaluator: a plan runs as pipelines cut at its breakers.
//!
//! Evaluation is columnar and streamed: a subtree either is *held*
//! whole — a scan (its table's columns behind a selection), the output
//! of a group-by or partial aggregate, a join's build side — or
//! *streams* tiles through the joins above it into the next breaker's
//! sink ([`crate::vector`] runs the pipelines); a join's output never
//! exists whole, and the plan's result comes out as columns
//! ([`ResultBatch`]); rows are materialized once, past the plan
//! boundary, by whoever consumes them ([`ResultSet::rows`], or the SQL
//! session after projection, ORDER BY and LIMIT). IO is *accounted*,
//! not performed: every operator charges the pages the paper's cost
//! model says it would transfer, computed from the **actual** sizes of
//! its inputs and outputs via the shared formulas in
//! [`aggview_core::cost::ops`].
//!
//! The differential oracle for this engine is the naive interpreter in
//! [`crate::reference`], which shares none of this code.

use crate::lookup::AggInput;
use crate::vector::{self, Flow, Held, JoinShape, Probe, Slot};
use aggview_common::fault::{maybe_fault, FaultInjector};
use aggview_common::predicate::BoundPredicate;
use aggview_common::{
    AggFunc, AggRef, AggViewError, Batch, Col, ColumnVec, DataType, Predicate, Result, Tuple,
};
use aggview_core::analyze::dataflow::Bounds;
use aggview_core::cost::ops::{self, JoinSides};
use aggview_core::cost::CostModel;
use aggview_core::governor::ResourceGovernor;
use aggview_core::plan::{GroupBySpec, PartialAggSpec, Plan};
use aggview_core::query::QueryEnv;
use aggview_core::transform::grouping_determinant;
use aggview_storage::Catalog;
use std::collections::HashMap;

/// One operator's measured IO charge.
#[derive(Debug, Clone, PartialEq)]
pub struct IoBreakdown {
    /// Operator description (e.g. `scan emp`, `join[hash]`).
    pub op: String,
    /// Pages charged.
    pub pages: f64,
}

/// The result of executing a plan.
#[derive(Debug, Clone)]
pub struct ResultSet {
    /// Output layout: `rows[i][k]` is the value of `cols[k]`.
    pub cols: Vec<Col>,
    /// Output tuples.
    pub rows: Vec<Tuple>,
    /// Total measured IO in pages.
    pub io_pages: f64,
    /// Per-operator breakdown, in post-order.
    pub breakdown: Vec<IoBreakdown>,
    /// High-water mark, in bytes, of what the executor holds between the
    /// tables and the result that grows with the data — the memory the
    /// paper's transformations try to shrink: scan selections, join build
    /// sides that were collected, join indexes, group tables, and breaker
    /// outputs awaiting their consumer. Not in the figure: the result
    /// itself, and the tile buffers of a running pipeline, which hold
    /// `batch_rows` rows (plus at most one probe row's matches) per
    /// buffered stage whatever the tables hold. A figure of the plan and
    /// the data.
    pub peak_intermediate_bytes: u64,
}

impl ResultSet {
    /// Position of a column in the layout.
    pub fn col_index(&self, c: Col) -> Option<usize> {
        self.cols.iter().position(|x| *x == c)
    }
}

/// The result of executing a plan as the engine's one execution body
/// leaves it: columns, not yet rows. [`ResultSet`] is this with the
/// batch materialized; a caller that keeps only some columns, or some
/// rows in another order, projects and reorders the batch first and
/// materializes once.
#[derive(Debug, Clone)]
pub struct ResultBatch {
    /// Output layout: column `k` of `batch` holds `cols[k]`.
    pub cols: Vec<Col>,
    /// The root's output.
    pub batch: Batch,
    /// As [`ResultSet::io_pages`].
    pub io_pages: f64,
    /// As [`ResultSet::breakdown`].
    pub breakdown: Vec<IoBreakdown>,
    /// As [`ResultSet::peak_intermediate_bytes`].
    pub peak_intermediate_bytes: u64,
}

impl ResultBatch {
    /// Position of a column in the layout.
    pub fn col_index(&self, c: Col) -> Option<usize> {
        self.cols.iter().position(|x| *x == c)
    }

    /// Materialize every row, in the layout's column order.
    pub fn into_rows(self) -> ResultSet {
        ResultSet {
            rows: self.batch.to_tuples(),
            cols: self.cols,
            io_pages: self.io_pages,
            breakdown: self.breakdown,
            peak_intermediate_bytes: self.peak_intermediate_bytes,
        }
    }
}

/// Executor tuning, threaded from the session/REPL into every pipeline.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecOptions {
    /// Accepted and ignored: every pipeline runs on the caller's thread.
    /// The field stays only because callers (the benchmark among them)
    /// assign a thread count.
    pub threads: usize,
    /// Rows per columnar tile — also the granularity of cancellation
    /// checks and bulk governor charges.
    pub batch_rows: usize,
}

impl Default for ExecOptions {
    fn default() -> Self {
        ExecOptions {
            threads: 1,
            batch_rows: 1024,
        }
    }
}

/// Plan evaluator bound to a catalog and query environment.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'a> {
    pub catalog: &'a Catalog,
    pub env: &'a QueryEnv,
    pub model: CostModel,
    /// Tile size.
    pub options: ExecOptions,
}

/// Per-execution state threaded through the operator tree: the IO
/// breakdown being accumulated, the resource governor consulted at
/// every operator boundary, and the (off-by-default) fault injector.
struct ExecCtx<'e> {
    breakdown: Vec<IoBreakdown>,
    gov: &'e ResourceGovernor,
    faults: Option<&'e dyn FaultInjector>,
    options: ExecOptions,
    /// Bytes held right now, and the most `live` plus a running
    /// pipeline's own bytes ever came to.
    live: u64,
    peak_bytes: u64,
}

impl ExecCtx<'_> {
    /// `bytes` more are held until [`Self::release`]d.
    fn hold(&mut self, bytes: u64) {
        self.live += bytes;
        self.peak_bytes = self.peak_bytes.max(self.live);
    }

    fn release(&mut self, bytes: u64) {
        self.live -= bytes;
    }
}

/// The two aggregation nodes, as seen by the one body that runs both
/// ([`Engine::exec_aggregate`]): a full group-by finalizes its states
/// and applies HAVING, a partial aggregate emits the state components.
#[derive(Clone, Copy)]
enum AggNode<'p> {
    Full(&'p GroupBySpec),
    Partial(&'p PartialAggSpec),
}

/// A subtree as its consumer gets it: rows held whole, and the joins
/// that stream out of them — none for a scan or a breaker's output,
/// whose size is therefore known before anything above it runs.
struct Stream<'p> {
    /// Output layout.
    cols: Vec<Col>,
    source: Held,
    joins: Vec<Join<'p>>,
}

/// One join of a [`Stream`]: its held build side, and what its page
/// charge — due when the stream has run — is computed from.
struct Join<'p> {
    build: Held,
    build_left: bool,
    shape: JoinShape,
    preds: &'p [Predicate],
    /// The breakdown entry reserved for this join.
    slot: usize,
}

impl Stream<'_> {
    /// A subtree evaluated whole.
    fn held(cols: &[Col], source: Held) -> Self {
        Stream {
            cols: cols.to_vec(),
            source,
            joins: Vec::new(),
        }
    }
}

impl<'a> Engine<'a> {
    pub fn new(catalog: &'a Catalog, env: &'a QueryEnv, model: CostModel) -> Self {
        Engine {
            catalog,
            env,
            model,
            options: ExecOptions::default(),
        }
    }

    /// Replace the executor options.
    pub fn with_options(mut self, options: ExecOptions) -> Self {
        self.options = options;
        self
    }

    /// Execute a plan, returning rows and measured IO.
    pub fn execute(&self, plan: &Plan) -> Result<ResultSet> {
        self.execute_governed(plan, &ResourceGovernor::unlimited(), None)
    }

    /// Execute a plan under a [`ResourceGovernor`] and an optional
    /// [`FaultInjector`].
    ///
    /// Every operator checks cancellation and the wall-clock deadline on
    /// entry and at every tile, and charges each output tuple against the
    /// governor's row/byte budgets — whether the tuple is kept or only
    /// passes through a pipeline — so runaway intermediates abort with
    /// [`AggViewError::ResourceExhausted`] (or
    /// [`AggViewError::Cancelled`]) within one tile rather
    /// than exhausting memory. The fault injector, when present, is
    /// consulted at storage scans and operator entries and may surface
    /// [`AggViewError::Transient`] failures for robustness testing.
    ///
    /// Before any work starts, the plan must pass the static
    /// [`aggview_core::PlanAnalyzer`] integrity gate; a defective plan
    /// is rejected with [`AggViewError::PlanInvalid`] instead of being
    /// executed. The gate's dataflow pass also derives guaranteed lower
    /// bounds on the plan's charged output; when the governor carries a
    /// row or byte budget, a plan whose *floor* already exceeds it can
    /// only end in [`AggViewError::ResourceExhausted`] after wasted
    /// work, so it is rejected up front with
    /// [`AggViewError::PlanInadmissible`]. A plan the pass proves
    /// empty (a contradictory predicate set) is answered there: no
    /// rows, no IO, nothing charged, and no operator runs.
    pub fn execute_governed(
        &self,
        plan: &Plan,
        gov: &ResourceGovernor,
        faults: Option<&dyn FaultInjector>,
    ) -> Result<ResultSet> {
        self.execute_columns(plan, gov, faults)
            .map(ResultBatch::into_rows)
    }

    /// [`Self::execute_governed`] without the materialization: the
    /// root's columns, one per [`Plan::output_cols`] entry, whatever
    /// answered — the operators or the gate.
    pub fn execute_columns(
        &self,
        plan: &Plan,
        gov: &ResourceGovernor,
        faults: Option<&dyn FaultInjector>,
    ) -> Result<ResultBatch> {
        let flow = aggview_core::PlanAnalyzer::new(self.catalog)
            .with_env(self.env)
            .verify_flow(plan)?;
        admit(&flow.bounds, gov)?;
        if flow.provably_empty {
            gov.check_interrupt()?;
            // A zero-row column of the type the pass derived (any type
            // holds no rows when it is unknown).
            let cols = plan.output_cols().to_vec();
            let empty = cols.iter().map(|c| {
                let ty = flow.columns.get(c).and_then(|d| d.ty);
                ColumnVec::with_type(ty.unwrap_or(DataType::Int))
            });
            return Ok(ResultBatch {
                batch: Batch::from_parts(empty.collect(), 0),
                cols,
                io_pages: 0.0,
                breakdown: Vec::new(),
                peak_intermediate_bytes: 0,
            });
        }
        let mut ctx = ExecCtx {
            breakdown: Vec::new(),
            gov,
            faults,
            options: self.options,
            live: 0,
            peak_bytes: 0,
        };
        let root = self.stream(plan, &mut ctx)?;
        // The result is what the plan is for, not an intermediate: a
        // breaker at the root hands its batch over, anything else is
        // collected, and neither counts towards the peak.
        let batch = if root.joins.is_empty() && !root.source.is_scan() {
            root.source.into_batch().unwrap_or_default()
        } else {
            self.collect(&root, &mut ctx, |_| 0)?
        };
        let io_pages = ctx.breakdown.iter().map(|b| b.pages).sum();
        Ok(ResultBatch {
            cols: root.cols,
            batch,
            io_pages,
            breakdown: ctx.breakdown,
            peak_intermediate_bytes: ctx.peak_bytes,
        })
    }

    /// Evaluate `plan` as far as its consumer needs it: scans and
    /// breakers (which run their own pipelines here) come back held, a
    /// join comes back as one more stage of the stream it probes with.
    fn stream<'p>(&self, plan: &'p Plan, ctx: &mut ExecCtx<'_>) -> Result<Stream<'p>> {
        match plan {
            Plan::Scan {
                rel,
                table,
                filters,
                project,
            } => {
                let layout = |arity| (0..arity).map(|c| (Col::base(*rel, c), c)).collect();
                self.scan(
                    ctx,
                    table,
                    format!("scan {table}"),
                    layout,
                    filters,
                    project,
                )
            }
            // An extent is read like a base table, each physical column
            // exposed under the logical identity the matcher assigned it
            // (group column, finalized aggregate, or stored partial-state
            // component): `outputs[i]` lives at physical column `cols[i]`.
            Plan::ExtentScan {
                view,
                table,
                cols,
                outputs,
                filters,
                project,
                ..
            } => {
                let op = format!("extent-scan {table} (matview {view})");
                let layout = |_arity| outputs.iter().copied().zip(cols.iter().copied()).collect();
                self.scan(ctx, table, op, layout, filters, project)
            }
            Plan::Join {
                left,
                right,
                preds,
                project,
            } => self.join(left, right, preds, project, ctx),
            Plan::GroupBy {
                input,
                spec,
                project,
            } => self.exec_aggregate(AggNode::Full(spec), input, project, ctx),
            Plan::PartialAggregate {
                input,
                spec,
                project,
            } => self.exec_aggregate(AggNode::Partial(spec), input, project, ctx),
        }
    }

    /// Shared body of both scan operators: charge the whole-table read,
    /// then evaluate the pushed-down filters into a selection over the
    /// table's columns. `layout_of` maps logical columns to *physical*
    /// column positions given the table's arity; filters and projection
    /// are bound to those, and only the columns they name are read.
    fn scan<'p>(
        &self,
        ctx: &mut ExecCtx<'_>,
        table: &str,
        op: String,
        layout_of: impl FnOnce(usize) -> HashMap<Col, usize>,
        filters: &[Predicate],
        project: &[Col],
    ) -> Result<Stream<'p>> {
        ctx.gov.check_interrupt()?;
        maybe_fault(ctx.faults, &format!("storage.scan.{table}"))?;
        let t = self.catalog.get(table)?;
        // The scan reads the whole table.
        let pages = self.pages_for(t.byte_size());
        ctx.breakdown.push(IoBreakdown {
            op,
            pages: ops::scan_io(pages),
        });
        let layout = layout_of(t.schema().len());
        let held = vector::scan_table(
            &ctx.options,
            ctx.gov,
            t,
            &bind_all(filters, &layout)?,
            positions_of(project, &layout, "scan projects")?,
        )?;
        ctx.hold(held.resident_bytes());
        Ok(Stream::held(project, held))
    }

    /// A join becomes a stage of the stream it probes with; its other
    /// input is held and indexed. Two inputs of known size — scans,
    /// breaker outputs — keep the rule "the smaller builds, ties build
    /// left" (without an equality the right is held, so pairs come in
    /// `for left { for right }` order); an input that is itself a stream
    /// of joins has no size yet and always probes — and when both are,
    /// the right one is collected to build on.
    fn join<'p>(
        &self,
        left: &'p Plan,
        right: &'p Plan,
        preds: &'p [Predicate],
        project: &[Col],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Stream<'p>> {
        ctx.gov.check_interrupt()?;
        maybe_fault(ctx.faults, "exec.join")?;
        let l = self.stream(left, ctx)?;
        let r = self.stream(right, ctx)?;
        // The page charge is due when the stream has run; its place in
        // the breakdown is here.
        let slot = ctx.breakdown.len();
        ctx.breakdown.push(IoBreakdown {
            op: String::new(),
            pages: 0.0,
        });

        // Combined layout: left columns then right columns.
        let mut all_cols = l.cols.clone();
        all_cols.extend(r.cols.iter().copied());
        let layout = layout_map(&all_cols);
        let llayout = layout_map(&l.cols);
        let rlayout = layout_map(&r.cols);

        // Split predicates once, by reference: hashable equalities become
        // positional key pairs, everything else stays residual.
        let mut eq_keys: Vec<(usize, usize)> = Vec::new(); // (left pos, right pos)
        let mut residual: Vec<&Predicate> = Vec::new();
        for p in preds {
            let key =
                p.as_col_eq_col()
                    .and_then(|(a, b)| match (llayout.get(&a), rlayout.get(&b)) {
                        (Some(&la), Some(&rb)) => Some((la, rb)),
                        _ => Some((*llayout.get(&b)?, *rlayout.get(&a)?)),
                    });
            match key {
                Some(k) => eq_keys.push(k),
                None => residual.push(p),
            }
        }
        // The residual predicates are bound to the columns they read, in
        // first-use order: those are gathered per tile of candidate pairs.
        let mut residual_cols: Vec<Col> = Vec::new();
        for c in residual.iter().flat_map(|p| p.cols_used()) {
            if !residual_cols.contains(&c) {
                residual_cols.push(c);
            }
        }
        let residual_layout = layout_map(&residual_cols);
        let residual = residual
            .iter()
            .map(|p| p.bind(&|c| residual_layout.get(&c).copied()))
            .collect::<Result<_>>()?;

        let build_left = match (l.joins.is_empty(), r.joins.is_empty()) {
            (true, true) => !eq_keys.is_empty() && l.source.rows() <= r.source.rows(),
            (true, false) => true,
            (false, _) => false,
        };
        let left_arity = l.cols.len();
        let slots = |cols: &[Col], what: &str| -> Result<Vec<Slot>> {
            let of = |p: usize| match p < left_arity {
                true => (build_left, p),
                false => (!build_left, p - left_arity),
            };
            Ok(positions_of(cols, &layout, what)?
                .into_iter()
                .map(of)
                .collect())
        };
        let shape = JoinShape {
            keys: match build_left {
                true => eq_keys,
                false => eq_keys.into_iter().map(|(l, r)| (r, l)).collect(),
            },
            residual,
            residual_slots: slots(&residual_cols, "join predicates read")?,
            emit: slots(project, "join projects")?,
        };
        let (build, mut probe) = if build_left { (l, r) } else { (r, l) };
        let build = if build.joins.is_empty() {
            build.source
        } else {
            let collected = self.collect(&build, ctx, Batch::total_bytes)?;
            ctx.hold(collected.total_bytes());
            Held::batch(collected)
        };
        probe.joins.push(Join {
            build,
            build_left,
            shape,
            preds,
            slot,
        });
        probe.cols = project.to_vec();
        Ok(probe)
    }

    /// Run `stream` into `sink` — [`vector::collect`] or
    /// [`vector::aggregate`] over its source and probes; `sink_bytes`
    /// sizes what the sink made — then settle what was waiting for the
    /// stream to end: every join's page charge, computed from the rows
    /// and bytes that actually flowed and entered in the breakdown slot
    /// the join reserved; the peak, which while the pipeline ran stood at
    /// everything held plus its indexes and its sink; and the release of
    /// what the stream held. Returns the sink's result and what the last
    /// stage put out.
    fn run<T>(
        &self,
        stream: &Stream<'_>,
        ctx: &mut ExecCtx<'_>,
        sink: impl FnOnce(&Held, &[Probe<'_>]) -> Result<(T, Vec<Flow>)>,
        sink_bytes: impl FnOnce(&T) -> u64,
    ) -> Result<(T, Flow)> {
        let mut probes: Vec<Probe<'_>> = Vec::with_capacity(stream.joins.len());
        for join in &stream.joins {
            let like = probes
                .last()
                .map_or_else(|| stream.source.cols(), Probe::protos);
            let probe = Probe::new(&ctx.options, ctx.gov, &join.build, &like, &join.shape)?;
            probes.push(probe);
        }
        let (out, flows) = sink(&stream.source, &probes)?;

        let mem = self.model.io.mem_pages;
        let mut input = flows[0];
        for ((join, probe), output) in stream.joins.iter().zip(&probes).zip(&flows[1..]) {
            let (left, right) = match join.build_left {
                true => (probe.build_flow, input),
                false => (input, probe.build_flow),
            };
            let sides = JoinSides {
                left_rows: left.rows as f64,
                left_pages: self.pages_for(left.bytes),
                right_rows: right.rows as f64,
                right_pages: self.pages_for(right.bytes),
            };
            let keyed = join.preds.iter().any(|p| p.as_col_eq_col().is_some());
            let (algo, pages) = ops::best_join(&sides, keyed, mem);
            ctx.breakdown[join.slot] = IoBreakdown {
                op: format!("join[{algo}]"),
                pages,
            };
            input = *output;
        }

        let indexes: u64 = probes.iter().map(Probe::resident_bytes).sum();
        ctx.peak_bytes = ctx.peak_bytes.max(ctx.live + indexes + sink_bytes(&out));
        let builds = stream.joins.iter().map(|j| j.build.resident_bytes());
        ctx.release(stream.source.resident_bytes() + builds.sum::<u64>());
        Ok((out, input))
    }

    /// [`Self::run`] into a batch.
    fn collect(
        &self,
        stream: &Stream<'_>,
        ctx: &mut ExecCtx<'_>,
        sink_bytes: impl FnOnce(&Batch) -> u64,
    ) -> Result<Batch> {
        let (opts, gov) = (ctx.options, ctx.gov);
        let sink =
            |source: &Held, probes: &[Probe<'_>]| vector::collect(&opts, gov, source, probes);
        Ok(self.run(stream, ctx, sink, sink_bytes)?.0)
    }

    /// The one aggregation body, shared by the full group-by and the
    /// partial aggregate: bind the grouping keys and per-aggregate
    /// inputs, stream the input tile-wise into a group table, take its
    /// columns (finalized values filtered by HAVING, or the state
    /// components as accumulated), and charge the aggregation's IO.
    fn exec_aggregate<'p>(
        &self,
        agg: AggNode<'_>,
        input: &'p Plan,
        project: &[Col],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<Stream<'p>> {
        let (site, group_cols, value_cols, having) = match agg {
            AggNode::Full(s) => ("exec.groupby", &s.group_cols, s.agg_cols(), &s.having[..]),
            AggNode::Partial(s) => (
                "exec.partial-agg",
                &s.group_cols,
                s.all_part_cols(),
                &[][..],
            ),
        };
        ctx.gov.check_interrupt()?;
        maybe_fault(ctx.faults, site)?;
        let rows = self.stream(input, ctx)?;
        let layout = layout_map(&rows.cols);
        let key_pos = positions_of(group_cols, &layout, "aggregation groups on")?;
        let (funcs, inputs) = match agg {
            AggNode::Full(spec) => merge_inputs(spec, &layout)?,
            AggNode::Partial(spec) => local_inputs(spec, &layout)?,
        };

        // Output layout: grouping columns, then one column per finalized
        // aggregate (full) or per partial-state component (partial).
        let mut out_cols: Vec<Col> = group_cols.clone();
        out_cols.extend(value_cols.iter().copied());
        let out_layout = layout_map(&out_cols);
        let bound_having = bind_all(having, &out_layout)?;
        let positions = positions_of(project, &out_layout, "aggregation projects")?;

        // Groups are found by a subset of the grouping columns that
        // determines the rest, and carry all of them.
        let determinant = grouping_determinant(group_cols, input, self.catalog)?;
        let lookup: Vec<usize> = determinant
            .iter()
            .filter_map(|d| group_cols.iter().position(|g| g == d))
            .collect();

        // Columns in `out_cols` order: the accumulators finalize (full)
        // or move out as the state components (partial) column-wise.
        let (opts, gov) = (ctx.options, ctx.gov);
        let sink = |source: &Held, probes: &[Probe<'_>]| {
            let (table, flows) = vector::aggregate(
                &opts, gov, source, probes, &key_pos, &lookup, &inputs, &funcs,
            )?;
            let ngroups = table.len();
            let cols = table.into_columns(matches!(agg, AggNode::Full(_)))?;
            Ok((Batch::from_parts(cols, ngroups), flows))
        };
        let (full, fed) = self.run(&rows, ctx, sink, Batch::total_bytes)?;
        let col = |i: usize| full.col(i);
        let sel = vector::RowFilter::new(&bound_having, col).rows(col, 0..full.len())?;
        let out = match sel {
            None => full.project(&positions),
            Some(sel) => {
                let kept = positions.iter().map(|&p| full.col(p).empty_like());
                let mut out = Batch::from_parts(kept.collect(), 0);
                out.gather_from(&full, &positions, Some(&sel), 0..0)?;
                out
            }
        };
        let out_bytes = out.total_bytes();
        ctx.gov.charge_output_bulk(out.len() as u64, out_bytes)?;
        ctx.hold(out_bytes);

        // Charge: aggregation over what streamed in.
        let (in_pages, out_pages) = (self.pages_for(fed.bytes), self.pages_for(out_bytes));
        let (algo, charge) = ops::best_agg(in_pages, out_pages, &self.model.io);
        ctx.breakdown.push(IoBreakdown {
            op: match agg {
                AggNode::Full(spec) => format!("groupby[{algo}] {}", spec.owner),
                AggNode::Partial(_) => format!("partial-agg[{algo}]"),
            },
            pages: charge,
        });
        Ok(Stream::held(project, Held::batch(out)))
    }

    /// Page count of an operator output of `bytes` (byte totals equal
    /// the widths of the tuples the rows materialize to).
    fn pages_for(&self, bytes: u64) -> f64 {
        self.model.page.pages_for_bytes(bytes as f64)
    }
}

/// Static admission control: reject a plan whose guaranteed minimum
/// resource use already exceeds the governor's budgets. The bounds are
/// sums of per-operator output floors, mirroring how the governor
/// charges cumulatively at every operator boundary, so a rejection is
/// never spurious: executing the plan would provably exhaust the same
/// budget mid-run.
fn admit(bounds: &Bounds, gov: &ResourceGovernor) -> Result<()> {
    let limits = gov.limits();
    if let Some(cap) = limits.max_rows {
        if bounds.min_rows > cap {
            return Err(AggViewError::PlanInadmissible(format!(
                "plan materializes at least {} rows, over the {cap}-row budget",
                bounds.min_rows
            )));
        }
    }
    if let Some(cap) = limits.max_bytes {
        if bounds.min_bytes > cap {
            return Err(AggViewError::PlanInadmissible(format!(
                "plan materializes at least {} bytes, over the {cap}-byte budget",
                bounds.min_bytes
            )));
        }
    }
    Ok(())
}

/// Aggregate inputs of the local phase: every pushed aggregate reads
/// its raw argument, and the duplicate-factor COUNT(*) — when the node
/// carries one — rides last, matching `all_part_cols`' column order.
fn local_inputs(
    spec: &PartialAggSpec,
    layout: &HashMap<Col, usize>,
) -> Result<(Vec<AggFunc>, Vec<AggInput>)> {
    let mut funcs = Vec::with_capacity(spec.aggs.len() + 1);
    let mut inputs = Vec::with_capacity(spec.aggs.len() + 1);
    for (_, a) in &spec.aggs {
        funcs.push(a.func);
        inputs.push(match &a.arg {
            Some(e) => AggInput::Raw(e.bind(&|c| layout.get(&c).copied())?),
            None => AggInput::RawCountStar,
        });
    }
    if spec.count.is_some() {
        funcs.push(AggFunc::Count);
        inputs.push(AggInput::RawCountStar);
    }
    Ok((funcs, inputs))
}

/// Aggregate inputs of the merge (or plain) phase, per aggregate: the
/// partial-state components when a partial aggregate below produced
/// them; otherwise the raw argument — scaled, for duplicate-sensitive
/// functions, by the duplicate-factor count an eager partial aggregate
/// on the partner side carries one slot past the real aggregates.
fn merge_inputs(
    spec: &GroupBySpec,
    layout: &HashMap<Col, usize>,
) -> Result<(Vec<AggFunc>, Vec<AggInput>)> {
    let cnt_pos = layout
        .get(&Col::part(AggRef::new(spec.owner, spec.aggs.len()), 0))
        .copied();
    let mut inputs = Vec::with_capacity(spec.aggs.len());
    for (i, a) in spec.aggs.iter().enumerate() {
        let aref = spec.agg_ref(i);
        inputs.push(if layout.contains_key(&Col::part(aref, 0)) {
            let comps: Vec<Col> = (0..a.func.partial_arity())
                .map(|k| Col::part(aref, k))
                .collect();
            AggInput::Partial(positions_of(&comps, layout, "merge stage reads")?)
        } else {
            let arg = match &a.arg {
                Some(e) => Some(e.bind(&|c| layout.get(&c).copied())?),
                None => None,
            };
            match (arg, cnt_pos) {
                (arg, Some(cpos)) if a.func.is_duplicate_sensitive() => AggInput::Scaled(arg, cpos),
                (Some(e), _) => AggInput::Raw(e),
                (None, _) => AggInput::RawCountStar,
            }
        });
    }
    Ok((spec.aggs.iter().map(|a| a.func).collect(), inputs))
}

fn layout_map(cols: &[Col]) -> HashMap<Col, usize> {
    cols.iter().enumerate().map(|(i, c)| (*c, i)).collect()
}

/// Positions of `cols` in `layout`; `what` names the consumer in the
/// error for a column the layout does not hold.
fn positions_of(cols: &[Col], layout: &HashMap<Col, usize>, what: &str) -> Result<Vec<usize>> {
    cols.iter()
        .map(|c| {
            layout
                .get(c)
                .copied()
                .ok_or_else(|| AggViewError::Plan(format!("{what} unavailable column {c}")))
        })
        .collect()
}

fn bind_all(preds: &[Predicate], layout: &HashMap<Col, usize>) -> Result<Vec<BoundPredicate>> {
    preds
        .iter()
        .map(|p| p.bind(&|c| layout.get(&c).copied()))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{AggFunc, AggSpec, CmpOp, Expr, RelId, Value, ViewId};
    use aggview_core::plan::all_cols;
    use aggview_core::query::examples::{dept, emp};
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn setup() -> (Catalog, QueryEnv) {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts: 5,
            emps_per_dept: 8,
            young_fraction: 0.25,
            low_budget_fraction: 0.5,
            seed: 11,
        })
        .unwrap();
        (cat, QueryEnv::new(vec!["emp".into(), "dept".into()]))
    }

    fn engine<'a>(cat: &'a Catalog, env: &'a QueryEnv) -> Engine<'a> {
        Engine::new(cat, env, CostModel::default())
    }

    #[test]
    fn scan_with_filter() {
        let (cat, env) = setup();
        let e = engine(&cat, &env);
        let plan = Plan::scan(
            RelId(0),
            "emp",
            vec![Predicate::cmp_const(
                Col::base(RelId(0), emp::AGE),
                CmpOp::Lt,
                Value::Int(22),
            )],
            all_cols(RelId(0), 5),
        );
        let rs = e.execute(&plan).unwrap();
        let total = cat.get("emp").unwrap().len();
        assert!(rs.rows.len() < total && !rs.rows.is_empty());
        assert!(rs.io_pages > 0.0);
        // Every surviving row satisfies the filter.
        let age = rs.col_index(Col::base(RelId(0), emp::AGE)).unwrap();
        assert!(rs.rows.iter().all(|r| r.get(age).as_i64().unwrap() < 22));
    }

    #[test]
    fn a_held_table_scans_its_old_rows_after_a_patch() {
        let (cat, env) = setup();
        let e = engine(&cat, &env);
        let plan = Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4));
        let held = cat.get("dept").unwrap();
        let scan_held = || {
            let (opts, gov) = (ExecOptions::default(), ResourceGovernor::unlimited());
            let rows = vector::scan_table(&opts, &gov, held.clone(), &[], vec![0, 1, 2, 3]);
            let (batch, _) = vector::collect(&opts, &gov, &rows.unwrap(), &[]).unwrap();
            batch.to_tuples()
        };
        // The engine scans the very table `held` points at.
        let before = e.execute(&plan).unwrap().rows;
        assert_eq!(scan_held(), before);

        // `held` is shared: the patch edits a copy of the columns; the
        // reader's stay as they were.
        cat.delete_rows("dept", &[0]).unwrap();
        assert_eq!(scan_held(), before);
        let after = e.execute(&plan).unwrap().rows;
        assert_eq!(after, before[1..]);

        // Nobody holds the new table: the next patch edits the columns
        // the scan above read, in place.
        let mut renamed = after[0].values().to_vec();
        renamed[dept::DNAME] = Value::str("renamed");
        let renamed = Tuple::new(renamed);
        cat.update_rows("dept", &[0], vec![renamed.clone()])
            .unwrap();
        let last = e.execute(&plan).unwrap().rows;
        assert_eq!(last, cat.get("dept").unwrap().rows());
        assert_eq!(last[0], renamed);
        assert_eq!(scan_held(), before);
    }

    #[test]
    fn group_by_avg_per_department() {
        let (cat, env) = setup();
        let e = engine(&cat, &env);
        let plan = Plan::group_by_all(
            Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
            GroupBySpec {
                owner: ViewId::View(0),
                group_cols: vec![Col::base(RelId(0), emp::DNO)],
                aggs: vec![AggSpec::new(
                    AggFunc::Avg,
                    Expr::col(Col::base(RelId(0), emp::SAL)),
                )],
                having: vec![],
            },
        );
        let rs = e.execute(&plan).unwrap();
        assert_eq!(rs.rows.len(), 5);
        // Cross-check one group against a direct computation.
        let emp_t = cat.get("emp").unwrap();
        let dno0: Vec<f64> = emp_t
            .rows()
            .iter()
            .filter(|r| r.get(emp::DNO).as_i64() == Some(0))
            .map(|r| r.get(emp::SAL).as_f64().unwrap())
            .collect();
        let expect = dno0.iter().sum::<f64>() / dno0.len() as f64;
        let dno_idx = rs.col_index(Col::base(RelId(0), emp::DNO)).unwrap();
        let avg_idx = rs.col_index(Col::agg(ViewId::View(0), 0)).unwrap();
        let got = rs
            .rows
            .iter()
            .find(|r| r.get(dno_idx).as_i64() == Some(0))
            .unwrap()
            .get(avg_idx)
            .as_f64()
            .unwrap();
        assert!((got - expect).abs() < 1e-9);
    }

    #[test]
    fn having_filters_groups() {
        let (cat, env) = setup();
        let e = engine(&cat, &env);
        let mk = |having: Vec<Predicate>| {
            Plan::group_by_all(
                Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
                GroupBySpec {
                    owner: ViewId::Top,
                    group_cols: vec![Col::base(RelId(0), emp::DNO)],
                    aggs: vec![AggSpec::count_star()],
                    having,
                },
            )
        };
        let all = e.execute(&mk(vec![])).unwrap();
        let some = e
            .execute(&mk(vec![Predicate::new(
                Expr::col(Col::agg(ViewId::Top, 0)),
                CmpOp::Gt,
                Expr::val(Value::Int(100)),
            )]))
            .unwrap();
        assert_eq!(all.rows.len(), 5);
        assert!(some.rows.is_empty(), "no dept has >100 emps");
    }

    #[test]
    fn partial_then_coalesce_equals_direct() {
        // SUM(sal) by dno computed (a) directly, (b) partial on emp then
        // coalesced after joining dept.
        let (cat, env) = setup();
        let e = engine(&cat, &env);
        let agg = AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(0), emp::SAL)));
        let jp = Predicate::eq_cols(
            Col::base(RelId(0), emp::DNO),
            Col::base(RelId(1), dept::DNO),
        );

        let direct = Plan::group_by_all(
            Plan::join_all(
                Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
                Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4)),
                vec![jp.clone()],
            ),
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![Col::base(RelId(0), emp::DNO)],
                aggs: vec![agg.clone()],
                having: vec![],
            },
        );

        let aref = aggview_common::AggRef::new(ViewId::Top, 0);
        let partial = Plan::partial_aggregate_all(
            Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
            PartialAggSpec {
                group_cols: vec![Col::base(RelId(0), emp::DNO)],
                aggs: vec![(aref, agg.clone())],
                count: None,
            },
        );
        let coalesced = Plan::group_by_all(
            Plan::join_all(
                partial,
                Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4)),
                vec![jp],
            ),
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![Col::base(RelId(0), emp::DNO)],
                aggs: vec![agg],
                having: vec![],
            },
        );

        let a = e.execute(&direct).unwrap();
        let b = e.execute(&coalesced).unwrap();
        crate::verify::assert_equivalent(&a, &b).unwrap();
    }

    #[test]
    fn io_breakdown_covers_all_operators() {
        let (cat, env) = setup();
        let e = engine(&cat, &env);
        let plan = Plan::group_by_all(
            Plan::join_all(
                Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
                Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4)),
                vec![Predicate::eq_cols(
                    Col::base(RelId(0), emp::DNO),
                    Col::base(RelId(1), dept::DNO),
                )],
            ),
            GroupBySpec {
                owner: ViewId::Top,
                group_cols: vec![Col::base(RelId(0), emp::DNO)],
                aggs: vec![AggSpec::count_star()],
                having: vec![],
            },
        );
        let rs = e.execute(&plan).unwrap();
        assert_eq!(rs.breakdown.len(), 4); // 2 scans, 1 join, 1 group-by
        assert!(rs.breakdown[0].op.starts_with("scan"));
        assert!((rs.io_pages - rs.breakdown.iter().map(|b| b.pages).sum::<f64>()).abs() < 1e-12);
    }

    #[test]
    fn theta_join_residual_predicates() {
        // emp self-join on dno with sal comparison: residual preds.
        let (cat, _env) = setup();
        let env2 = QueryEnv::new(vec!["emp".into(), "emp".into()]);
        let e = Engine::new(&cat, &env2, CostModel::default());
        let plan = Plan::join_all(
            Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
            Plan::scan(RelId(1), "emp", vec![], all_cols(RelId(1), 5)),
            vec![
                Predicate::eq_cols(Col::base(RelId(0), emp::DNO), Col::base(RelId(1), emp::DNO)),
                Predicate::new(
                    Expr::col(Col::base(RelId(0), emp::SAL)),
                    CmpOp::Gt,
                    Expr::col(Col::base(RelId(1), emp::SAL)),
                ),
            ],
        );
        let rs = e.execute(&plan).unwrap();
        let s0 = rs.col_index(Col::base(RelId(0), emp::SAL)).unwrap();
        let s1 = rs.col_index(Col::base(RelId(1), emp::SAL)).unwrap();
        assert!(!rs.rows.is_empty());
        assert!(rs
            .rows
            .iter()
            .all(|r| r.get(s0).as_f64().unwrap() > r.get(s1).as_f64().unwrap()));
    }
}
