//! The recursive plan evaluator.
//!
//! Evaluation is materialized (each operator consumes and produces
//! `Vec<Tuple>` in row mode, a columnar [`Batch`] in the default batch
//! mode); IO is *accounted*, not performed: every operator charges the
//! pages the paper's cost model says it would transfer, computed from
//! the **actual** sizes of its inputs and outputs via the shared
//! formulas in [`aggview_core::cost::ops`].
//!
//! The two modes ([`crate::parallel::ExecMode`]) are observationally
//! identical — same rows in the same order, same IO pages, same peak
//! intermediate bytes, same governor/fault/analyzer behavior — and the
//! row path is kept as the executable reference the differential tests
//! compare the vectorized path against. Batches materialize back to
//! rows only at the plan boundary ([`ResultSet::rows`]).

use crate::parallel::{self, ExecMode, ExecOptions, JoinEmit};
use crate::partition::AggInput;
use crate::vector;
use aggview_common::expr::BoundExpr;
use aggview_common::fault::{maybe_fault, FaultInjector};
use aggview_common::{
    AggFunc, AggRef, AggViewError, Batch, Col, ColumnVec, DataType, Predicate, RelId, Result, Tuple,
};
use aggview_core::analyze::dataflow;
use aggview_core::cost::ops::{self, JoinSides};
use aggview_core::cost::CostModel;
use aggview_core::governor::ResourceGovernor;
use aggview_core::plan::{AggAlgo, GroupBySpec, JoinAlgo, PartialAggSpec, PartialGroupSpec, Plan};
use aggview_core::query::QueryEnv;
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
    /// Largest materialized operator output, in bytes — the memory
    /// high-water mark the paper's transformations try to shrink.
    pub peak_intermediate_bytes: u64,
    /// Typed→Mixed column demotions observed during this execution.
    /// Zero for any plan the dataflow pass certifies Mixed-free; a
    /// non-zero count means a column the planner typed fell back to the
    /// `Value`-enum representation (attribution is best-effort when
    /// queries run concurrently in one process).
    pub mixed_demotions: u64,
}

impl ResultSet {
    /// Position of a column in the layout.
    pub fn col_index(&self, c: Col) -> Option<usize> {
        self.cols.iter().position(|x| *x == c)
    }
}

/// Plan evaluator bound to a catalog and query environment.
#[derive(Debug, Clone, Copy)]
pub struct Engine<'a> {
    pub catalog: &'a Catalog,
    pub env: &'a QueryEnv,
    pub model: CostModel,
    /// Parallelism and morsel tuning for data-parallel operators.
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
    peak_bytes: u64,
}

impl ExecCtx<'_> {
    /// Charge one materialized output tuple against the row and byte
    /// budgets. Called exactly once per tuple an operator produces, at
    /// the moment it is produced, so a budget overrun aborts within the
    /// operator that crossed it.
    fn charge_tuple(&self, t: &Tuple) -> Result<()> {
        self.gov.charge_rows(1)?;
        self.gov.charge_bytes(t.width() as u64)
    }

    /// Record one operator's materialized output size for the peak
    /// intermediate high-water mark.
    fn note_op_output(&mut self, bytes: u64) {
        self.peak_bytes = self.peak_bytes.max(bytes);
    }
}

/// One operator's materialized output: row-major in row mode, columnar
/// in batch mode. The mode is fixed per execution, so an operator's
/// children always hand it the representation it expects; rows are
/// materialized from batches only at the plan boundary.
enum Data {
    Rows(Vec<Tuple>),
    Batch(Batch),
}

impl Data {
    fn len(&self) -> usize {
        match self {
            Data::Rows(r) => r.len(),
            Data::Batch(b) => b.len(),
        }
    }

    /// Late materialization: row-major output at the plan boundary.
    fn into_rows(self) -> Vec<Tuple> {
        match self {
            Data::Rows(r) => r,
            Data::Batch(b) => b.to_tuples(),
        }
    }
}

/// Collect every input position a bound predicate reads.
fn bound_cols(preds: &[aggview_common::predicate::BoundPredicate], out: &mut Vec<usize>) {
    fn walk(e: &BoundExpr, out: &mut Vec<usize>) {
        match e {
            BoundExpr::Col(i) => out.push(*i),
            BoundExpr::Const(_) => {}
            BoundExpr::Binary { left, right, .. } => {
                walk(left, out);
                walk(right, out);
            }
        }
    }
    for p in preds {
        walk(&p.left, out);
        walk(&p.right, out);
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

    /// Replace the executor options (thread count, morsel size).
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
    /// entry, and charges each materialized output tuple against the
    /// governor's row/byte budgets, so runaway intermediates abort with
    /// [`AggViewError::ResourceExhausted`] (or
    /// [`AggViewError::Cancelled`]) within one operator boundary rather
    /// than exhausting memory. The fault injector, when present, is
    /// consulted at storage scans and operator entries and may surface
    /// [`AggViewError::Transient`] failures for robustness testing.
    ///
    /// Before any work starts, the plan must pass the static
    /// [`aggview_core::PlanAnalyzer`] integrity gate; a defective plan
    /// is rejected with [`AggViewError::PlanInvalid`] instead of being
    /// executed. When the governor carries a row or byte budget, the
    /// dataflow pass then derives guaranteed lower bounds on the plan's
    /// materialized output; a plan whose *floor* already exceeds a
    /// budget can only end in [`AggViewError::ResourceExhausted`] after
    /// wasted work, so it is rejected up front with
    /// [`AggViewError::PlanInadmissible`].
    pub fn execute_governed(
        &self,
        plan: &Plan,
        gov: &ResourceGovernor,
        faults: Option<&dyn FaultInjector>,
    ) -> Result<ResultSet> {
        plan.validate(self.catalog, &self.env.rel_tables)?;
        aggview_core::PlanAnalyzer::new(self.catalog)
            .with_env(self.env)
            .verify(plan)?;
        self.admit(plan, gov)?;
        let demotions_before = aggview_common::mixed_demotions();
        let mut ctx = ExecCtx {
            breakdown: Vec::new(),
            gov,
            faults,
            options: self.options,
            peak_bytes: 0,
        };
        let (cols, data) = self.exec(plan, &mut ctx)?;
        let io_pages = ctx.breakdown.iter().map(|b| b.pages).sum();
        Ok(ResultSet {
            cols,
            rows: data.into_rows(),
            io_pages,
            breakdown: ctx.breakdown,
            peak_intermediate_bytes: ctx.peak_bytes,
            mixed_demotions: aggview_common::mixed_demotions().saturating_sub(demotions_before),
        })
    }

    /// Static admission control: reject a plan whose guaranteed minimum
    /// resource use already exceeds the governor's budgets. The bounds
    /// are sums of per-operator output floors, mirroring how the
    /// governor charges cumulatively at every operator boundary, so a
    /// rejection is never spurious: executing the plan would provably
    /// exhaust the same budget mid-run.
    fn admit(&self, plan: &Plan, gov: &ResourceGovernor) -> Result<()> {
        let limits = gov.limits();
        if limits.max_rows.is_none() && limits.max_bytes.is_none() {
            return Ok(());
        }
        let flow = dataflow::analyze_plan(plan, self.catalog, Some(self.env.rel_tables.as_slice()));
        if let Some(cap) = limits.max_rows {
            if flow.bounds.min_rows > cap {
                return Err(AggViewError::PlanInadmissible(format!(
                    "plan materializes at least {} rows, over the {cap}-row budget",
                    flow.bounds.min_rows
                )));
            }
        }
        if let Some(cap) = limits.max_bytes {
            if flow.bounds.min_bytes > cap {
                return Err(AggViewError::PlanInadmissible(format!(
                    "plan materializes at least {} bytes, over the {cap}-byte budget",
                    flow.bounds.min_bytes
                )));
            }
        }
        Ok(())
    }

    fn exec(&self, plan: &Plan, ctx: &mut ExecCtx<'_>) -> Result<(Vec<Col>, Data)> {
        match plan {
            Plan::Scan {
                rel,
                table,
                filters,
                project,
            } => self.exec_scan(*rel, table, filters, project, ctx),
            Plan::Join {
                algo,
                left,
                right,
                preds,
                project,
            } => self.exec_join(*algo, left, right, preds, project, ctx),
            Plan::GroupBy {
                algo,
                input,
                spec,
                project,
            } => self.exec_group_by(plan, *algo, input, spec, project, ctx),
            Plan::PartialGroupBy {
                algo,
                input,
                spec,
                project,
            } => self.exec_partial_group_by(plan, *algo, input, spec, project, ctx),
            Plan::PartialAggregate {
                algo,
                input,
                spec,
                project,
            } => self.exec_partial_aggregate(plan, *algo, input, spec, project, ctx),
            Plan::EmptyScan { project, types, .. } => self.exec_empty_scan(project, types, ctx),
            Plan::ExtentScan {
                view,
                table,
                cols,
                outputs,
                filters,
                project,
                ..
            } => self.exec_extent_scan(view, table, cols, outputs, filters, project, ctx),
        }
    }

    /// A subtree the dataflow pass proved empty: produce the declared
    /// layout with zero rows, charging no IO and touching no storage.
    /// In batch mode the (empty) columns are typed from the operator's
    /// recorded schema so downstream kernels stay on their fast paths.
    fn exec_empty_scan(
        &self,
        project: &[Col],
        types: &[DataType],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<(Vec<Col>, Data)> {
        ctx.gov.check_interrupt()?;
        ctx.breakdown.push(IoBreakdown {
            op: "empty-scan".into(),
            pages: 0.0,
        });
        ctx.note_op_output(0);
        let data = match ctx.options.mode {
            ExecMode::Row => Data::Rows(Vec::new()),
            ExecMode::Batch => Data::Batch(Batch::from_parts(
                types.iter().map(|&t| ColumnVec::with_type(t)).collect(),
                0,
            )),
        };
        Ok((project.to_vec(), data))
    }

    /// Scan a materialized-view extent: read the extent table like a
    /// base table, but expose each physical column under the logical
    /// identity the matcher assigned it (group column, finalized
    /// aggregate, or stored partial-state component).
    #[allow(clippy::too_many_arguments)]
    fn exec_extent_scan(
        &self,
        view: &str,
        table: &str,
        cols: &[usize],
        outputs: &[Col],
        filters: &[Predicate],
        project: &[Col],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<(Vec<Col>, Data)> {
        ctx.gov.check_interrupt()?;
        maybe_fault(ctx.faults, &format!("storage.scan.{table}"))?;
        let t = self.catalog.get(table)?;
        let pages = self.model.page.pages_for_bytes(t.byte_size() as f64);
        ctx.breakdown.push(IoBreakdown {
            op: format!("extent-scan {table} (matview {view})"),
            pages: ops::scan_io(pages),
        });
        // Logical identity `outputs[i]` lives at physical column `cols[i]`.
        let layout: HashMap<Col, usize> = outputs
            .iter()
            .enumerate()
            .map(|(i, &o)| (o, cols[i]))
            .collect();
        let bound: Vec<_> = filters
            .iter()
            .map(|p| p.bind(&|c| layout.get(&c).copied()))
            .collect::<Result<_>>()?;
        let positions: Vec<usize> = project
            .iter()
            .map(|c| {
                layout.get(c).copied().ok_or_else(|| {
                    AggViewError::Plan(format!("extent scan projects unmapped column {c}"))
                })
            })
            .collect::<Result<_>>()?;
        let data = self.scan_tail(
            ctx,
            t.rows(),
            t.schema(),
            filters,
            &layout,
            &bound,
            &positions,
        )?;
        Ok((project.to_vec(), data))
    }

    /// Shared tail of both scan operators: run the pushed-down filters
    /// and the projection over the table's rows in the active mode.
    ///
    /// `layout` maps logical columns to *physical* tuple positions, and
    /// `bound` are `filters` already bound against it (so any
    /// unknown-column error has already surfaced). The batch path
    /// transposes only the physical columns the filters and projection
    /// actually touch, re-binding onto that compact layout — which
    /// cannot fail — before running the columnar kernel.
    #[allow(clippy::too_many_arguments)]
    fn scan_tail(
        &self,
        ctx: &mut ExecCtx<'_>,
        rows: &[Tuple],
        schema: &aggview_common::Schema,
        filters: &[Predicate],
        layout: &HashMap<Col, usize>,
        bound: &[aggview_common::predicate::BoundPredicate],
        positions: &[usize],
    ) -> Result<Data> {
        match ctx.options.mode {
            ExecMode::Row => {
                let (out, out_bytes) =
                    parallel::filter_project(&ctx.options, ctx.gov, rows, bound, positions)?;
                ctx.note_op_output(out_bytes);
                Ok(Data::Rows(out))
            }
            ExecMode::Batch => {
                let mut used: Vec<usize> = positions.to_vec();
                bound_cols(bound, &mut used);
                used.sort_unstable();
                used.dedup();
                let remap: HashMap<usize, usize> =
                    used.iter().enumerate().map(|(n, &p)| (p, n)).collect();
                let types: Vec<DataType> = used.iter().map(|&p| schema.field(p).ty).collect();
                let bound_c: Vec<_> = filters
                    .iter()
                    .map(|p| p.bind(&|c| layout.get(&c).and_then(|fp| remap.get(fp)).copied()))
                    .collect::<Result<_>>()?;
                let cpos: Vec<usize> = positions.iter().map(|p| remap[p]).collect();
                let (out, out_bytes) = vector::scan_filter_project(
                    &ctx.options,
                    ctx.gov,
                    rows,
                    &used,
                    &types,
                    &bound_c,
                    &cpos,
                )?;
                ctx.note_op_output(out_bytes);
                Ok(Data::Batch(out))
            }
        }
    }

    fn exec_scan(
        &self,
        rel: RelId,
        table: &str,
        filters: &[Predicate],
        project: &[Col],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<(Vec<Col>, Data)> {
        ctx.gov.check_interrupt()?;
        maybe_fault(ctx.faults, &format!("storage.scan.{table}"))?;
        let t = self.catalog.get(table)?;
        // The scan reads the whole table.
        let pages = self.model.page.pages_for_bytes(t.byte_size() as f64);
        ctx.breakdown.push(IoBreakdown {
            op: format!("scan {table}"),
            pages: ops::scan_io(pages),
        });
        // Bind filters against the base layout.
        let base_cols: Vec<Col> = (0..t.schema().len()).map(|c| Col::base(rel, c)).collect();
        let layout = layout_map(&base_cols);
        let bound: Vec<_> = filters
            .iter()
            .map(|p| p.bind(&|c| layout.get(&c).copied()))
            .collect::<Result<_>>()?;
        let positions: Vec<usize> = project
            .iter()
            .map(|c| {
                layout.get(c).copied().ok_or_else(|| {
                    AggViewError::Plan(format!("scan projection of foreign column {c}"))
                })
            })
            .collect::<Result<_>>()?;
        let data = self.scan_tail(
            ctx,
            t.rows(),
            t.schema(),
            filters,
            &layout,
            &bound,
            &positions,
        )?;
        Ok((project.to_vec(), data))
    }

    fn exec_join(
        &self,
        algo: JoinAlgo,
        left: &Plan,
        right: &Plan,
        preds: &[Predicate],
        project: &[Col],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<(Vec<Col>, Data)> {
        ctx.gov.check_interrupt()?;
        maybe_fault(ctx.faults, "exec.join")?;
        let (lcols, ldata) = self.exec(left, ctx)?;
        let (rcols, rdata) = self.exec(right, ctx)?;
        let sides = JoinSides {
            left_rows: ldata.len() as f64,
            left_pages: self.pages_of_data(&ldata),
            right_rows: rdata.len() as f64,
            right_pages: self.pages_of_data(&rdata),
        };
        let mem = self.model.io.mem_pages;
        let (algo, charge) = match algo {
            JoinAlgo::Auto => ops::best_join(&sides, preds, mem),
            a => {
                if !ops::join_algo_applicable(a, preds) {
                    return Err(AggViewError::Exec(format!(
                        "join algorithm {a} requires an equality predicate"
                    )));
                }
                (a, ops::join_io(a, &sides, preds, mem))
            }
        };
        ctx.breakdown.push(IoBreakdown {
            op: format!("join[{algo}]"),
            pages: charge,
        });

        // Combined layout: left columns then right columns.
        let mut all_cols = lcols.clone();
        all_cols.extend(rcols.iter().copied());
        let layout = layout_map(&all_cols);
        let llayout = layout_map(&lcols);
        let rlayout = layout_map(&rcols);

        // Split predicates once, by reference: hashable equalities become
        // positional key pairs, everything else stays residual.
        let mut eq_keys: Vec<(usize, usize)> = Vec::new(); // (left pos, right pos)
        let mut residual: Vec<&Predicate> = Vec::new();
        for p in preds {
            match p.as_col_eq_col() {
                Some((a, b)) => {
                    match (llayout.get(&a), rlayout.get(&b)) {
                        (Some(&la), Some(&rb)) => {
                            eq_keys.push((la, rb));
                            continue;
                        }
                        _ => {
                            if let (Some(&lb), Some(&ra)) = (llayout.get(&b), rlayout.get(&a)) {
                                eq_keys.push((lb, ra));
                                continue;
                            }
                        }
                    }
                    residual.push(p);
                }
                None => residual.push(p),
            }
        }
        let bound_residual: Vec<_> = residual
            .iter()
            .map(|p| p.bind(&|c| layout.get(&c).copied()))
            .collect::<Result<_>>()?;
        let positions: Vec<usize> = project
            .iter()
            .map(|c| {
                layout.get(c).copied().ok_or_else(|| {
                    AggViewError::Plan(format!("join projects unavailable column {c}"))
                })
            })
            .collect::<Result<_>>()?;

        // Build on the smaller input, probe the larger (hash join only).
        let build_left = ldata.len() <= rdata.len();
        let (build_pos, probe_pos): (Vec<usize>, Vec<usize>) = if build_left {
            eq_keys.iter().copied().unzip()
        } else {
            eq_keys.iter().map(|&(l, r)| (r, l)).unzip()
        };
        // Peak accounting: the hash path holds the entire build side
        // resident while probing, and the nested-loop path materializes
        // the same side as its inner input — charge both uniformly, the
        // same way the cost model's Join arm prices build residency.
        let held_bytes = if build_left {
            bytes_of_data(&ldata)
        } else {
            bytes_of_data(&rdata)
        };
        let build_hint = if build_left {
            self.stats_rows_hint(left)
        } else {
            self.stats_rows_hint(right)
        };

        let (out, out_bytes) = match (ldata, rdata) {
            (Data::Rows(lrows), Data::Rows(rrows)) => {
                let (out, bytes) = if eq_keys.is_empty() {
                    parallel::nested_loop_join(
                        &ctx.options,
                        ctx.gov,
                        &lrows,
                        &rrows,
                        &bound_residual,
                        &positions,
                    )?
                } else {
                    let (build, probe) = if build_left {
                        (&lrows, &rrows)
                    } else {
                        (&rrows, &lrows)
                    };
                    let index =
                        parallel::build_index(&ctx.options, ctx.gov, build, &build_pos, build_hint)?;
                    let emit = JoinEmit::new(&positions, lcols.len(), build_left);
                    parallel::probe_join(
                        &ctx.options,
                        ctx.gov,
                        build,
                        probe,
                        &index,
                        &build_pos,
                        &probe_pos,
                        &bound_residual,
                        build_left,
                        &emit,
                    )?
                };
                (Data::Rows(out), bytes)
            }
            (Data::Batch(lb), Data::Batch(rb)) => {
                let (out, bytes) = if eq_keys.is_empty() {
                    vector::nested_loop_join(
                        &ctx.options,
                        ctx.gov,
                        &lb,
                        &rb,
                        &bound_residual,
                        &positions,
                    )?
                } else {
                    let (build, probe) = if build_left { (&lb, &rb) } else { (&rb, &lb) };
                    let index =
                        vector::build_index(&ctx.options, ctx.gov, build, &build_pos, build_hint)?;
                    vector::probe_join(
                        &ctx.options,
                        ctx.gov,
                        build,
                        probe,
                        &index,
                        &build_pos,
                        &probe_pos,
                        &bound_residual,
                        build_left,
                        lcols.len(),
                        &positions,
                    )?
                };
                (Data::Batch(out), bytes)
            }
            // The mode is fixed per execution, so siblings always agree.
            _ => {
                return Err(AggViewError::Exec(
                    "join inputs in mixed row/batch representations".into(),
                ))
            }
        };
        ctx.note_op_output(out_bytes + held_bytes);
        Ok((project.to_vec(), out))
    }

    fn exec_group_by(
        &self,
        node: &Plan,
        algo: AggAlgo,
        input: &Plan,
        spec: &GroupBySpec,
        project: &[Col],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<(Vec<Col>, Data)> {
        ctx.gov.check_interrupt()?;
        maybe_fault(ctx.faults, "exec.groupby")?;
        let (icols, idata) = self.exec(input, ctx)?;
        let layout = layout_map(&icols);

        // Group-key positions.
        let key_pos: Vec<usize> = spec
            .group_cols
            .iter()
            .map(|c| {
                layout.get(c).copied().ok_or_else(|| {
                    AggViewError::Plan(format!("grouping column {c} missing from input"))
                })
            })
            .collect::<Result<_>>()?;

        // Per-aggregate input mode: raw expression or partial components.
        // When an eager partial aggregate below the join pre-folded one
        // side, its duplicate-factor count rides one slot past the real
        // aggregates; duplicate-sensitive raw aggregates scale by it.
        let cnt_pos = layout
            .get(&Col::part(AggRef::new(spec.owner, spec.aggs.len()), 0))
            .copied();
        let mut inputs = Vec::with_capacity(spec.aggs.len());
        for (i, a) in spec.aggs.iter().enumerate() {
            let aref = spec.agg_ref(i);
            let first = Col::part(aref, 0);
            if layout.contains_key(&first) {
                let comps: Vec<usize> = (0..a.func.partial_arity())
                    .map(|k| {
                        layout.get(&Col::part(aref, k)).copied().ok_or_else(|| {
                            AggViewError::Plan(format!("partial component {k} of {aref} missing"))
                        })
                    })
                    .collect::<Result<_>>()?;
                inputs.push(AggInput::Partial(comps));
            } else {
                match (&a.arg, cnt_pos) {
                    (arg, Some(cpos)) if a.func.is_duplicate_sensitive() => {
                        let bound = match arg {
                            Some(e) => Some(e.bind(&|c| layout.get(&c).copied())?),
                            None => None,
                        };
                        inputs.push(AggInput::Scaled(bound, cpos));
                    }
                    (Some(e), _) => {
                        inputs.push(AggInput::Raw(e.bind(&|c| layout.get(&c).copied())?));
                    }
                    (None, _) => inputs.push(AggInput::RawCountStar),
                }
            }
        }

        // Accumulate (two-phase when parallel: per-worker tables, then a
        // coalescing merge).
        let funcs: Vec<AggFunc> = spec.aggs.iter().map(|a| a.func).collect();

        // Finalize, apply HAVING, project.
        let mut out_cols: Vec<Col> = spec.group_cols.clone();
        out_cols.extend(spec.agg_cols());
        let out_layout = layout_map(&out_cols);
        let bound_having: Vec<_> = spec
            .having
            .iter()
            .map(|p| p.bind(&|c| out_layout.get(&c).copied()))
            .collect::<Result<_>>()?;
        let positions: Vec<usize> = project
            .iter()
            .map(|c| {
                out_layout.get(c).copied().ok_or_else(|| {
                    AggViewError::Plan(format!("group-by projects unavailable column {c}"))
                })
            })
            .collect::<Result<_>>()?;

        let in_pages = self.pages_of_data(&idata);
        let (out_data, out_bytes) = match idata {
            Data::Rows(irows) => {
                let table = parallel::accumulate_groups(
                    &ctx.options,
                    ctx.gov,
                    &irows,
                    &key_pos,
                    &inputs,
                    &funcs,
                )?;
                let mut out = Vec::with_capacity(table.len());
                let mut out_bytes = 0u64;
                for g in table.groups {
                    let mut values = g.key.into_values();
                    for s in &g.states {
                        values.push(s.finalize()?);
                    }
                    let full = Tuple::new(values);
                    if eval_all(&bound_having, &full)? {
                        let t = full.project(&positions);
                        ctx.charge_tuple(&t)?;
                        out_bytes += t.width() as u64;
                        out.push(t);
                    }
                }
                (Data::Rows(out), out_bytes)
            }
            Data::Batch(ib) => {
                let table = vector::accumulate_groups(
                    &ctx.options,
                    ctx.gov,
                    &ib,
                    &key_pos,
                    &inputs,
                    &funcs,
                )?;
                let ngroups = table.len();
                let (keys, states, n_aggs) = table.into_key_columns();
                // Finalize into aggregate columns, visiting states in the
                // row path's group-major order so any finalize error is
                // the same one it would surface. Columns are pre-typed
                // from the dataflow certificate where it resolves one
                // (projected aggregates of a Mixed-free plan); anything
                // unresolved — e.g. a HAVING-only aggregate — stays on
                // the Mixed fallback rather than risking a counted
                // demotion.
                let node_types = dataflow::output_types(node, self.catalog);
                let mut cols = keys;
                cols.extend(spec.agg_cols().iter().map(|c| {
                    match node_types.as_ref().and_then(|m| m.get(c)) {
                        Some(&ty) => ColumnVec::with_type(ty),
                        None => ColumnVec::Mixed(Vec::with_capacity(ngroups)),
                    }
                }));
                let agg_base = cols.len() - n_aggs;
                for g in 0..ngroups {
                    for j in 0..n_aggs {
                        let v = states[g * n_aggs + j].finalize()?;
                        cols[agg_base + j].push_value(v);
                    }
                }
                let full = Batch::from_parts(cols, ngroups);
                let sel = vector::filter_tile(&bound_having, &full)?;
                let mut out = Batch::from_parts(
                    positions
                        .iter()
                        .map(|&p| full.col(p).empty_like())
                        .collect(),
                    0,
                );
                let bytes = out.gather_from(&full, &positions, sel.as_deref(), 0..ngroups);
                ctx.gov.charge_output_bulk(out.len() as u64, bytes)?;
                (Data::Batch(out), bytes)
            }
        };
        ctx.note_op_output(out_bytes);

        // Charge: group-by over the materialized input.
        let out_pages = self.model.page.pages_for_bytes(out_bytes as f64);
        let io = self.model.io;
        let (algo, charge) = match algo {
            AggAlgo::Auto => ops::best_agg(in_pages, out_pages, &io),
            AggAlgo::Hash => (AggAlgo::Hash, ops::hash_agg_io(in_pages, out_pages, &io)),
            AggAlgo::Sort => (AggAlgo::Sort, ops::sort_agg_io(in_pages, io.mem_pages)),
        };
        ctx.breakdown.push(IoBreakdown {
            op: format!("groupby[{algo}] {}", spec.owner),
            pages: charge,
        });
        Ok((project.to_vec(), out_data))
    }

    fn exec_partial_group_by(
        &self,
        node: &Plan,
        algo: AggAlgo,
        input: &Plan,
        spec: &PartialGroupSpec,
        project: &[Col],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<(Vec<Col>, Data)> {
        ctx.gov.check_interrupt()?;
        maybe_fault(ctx.faults, "exec.partial-groupby")?;
        let (icols, idata) = self.exec(input, ctx)?;
        let layout = layout_map(&icols);
        let key_pos: Vec<usize> = spec
            .group_cols
            .iter()
            .map(|c| {
                layout.get(c).copied().ok_or_else(|| {
                    AggViewError::Plan(format!("partial grouping column {c} missing"))
                })
            })
            .collect::<Result<_>>()?;
        let inputs: Vec<AggInput> = spec
            .aggs
            .iter()
            .map(|(_, a)| match &a.arg {
                Some(e) => Ok(AggInput::Raw(e.bind(&|c| layout.get(&c).copied())?)),
                None => Ok(AggInput::RawCountStar),
            })
            .collect::<Result<_>>()?;
        let funcs: Vec<AggFunc> = spec.aggs.iter().map(|(_, a)| a.func).collect();

        // Output layout: group cols then partial components per agg.
        let mut out_cols: Vec<Col> = spec.group_cols.clone();
        out_cols.extend(spec.all_part_cols());
        let out_layout = layout_map(&out_cols);
        let positions: Vec<usize> = project
            .iter()
            .map(|c| {
                out_layout.get(c).copied().ok_or_else(|| {
                    AggViewError::Plan(format!("partial group-by projects unavailable column {c}"))
                })
            })
            .collect::<Result<_>>()?;

        let in_pages = self.pages_of_data(&idata);
        let (out_data, out_bytes) = match idata {
            Data::Rows(irows) => {
                let table = parallel::accumulate_groups(
                    &ctx.options,
                    ctx.gov,
                    &irows,
                    &key_pos,
                    &inputs,
                    &funcs,
                )?;
                let mut out = Vec::with_capacity(table.len());
                let mut out_bytes = 0u64;
                for g in table.groups {
                    let mut values = g.key.into_values();
                    for s in &g.states {
                        // Non-empty groups always have full component vectors.
                        values.extend(s.components().iter().cloned());
                    }
                    let full = Tuple::new(values);
                    let t = full.project(&positions);
                    ctx.charge_tuple(&t)?;
                    out_bytes += t.width() as u64;
                    out.push(t);
                }
                (Data::Rows(out), out_bytes)
            }
            Data::Batch(ib) => {
                let table = vector::accumulate_groups(
                    &ctx.options,
                    ctx.gov,
                    &ib,
                    &key_pos,
                    &inputs,
                    &funcs,
                )?;
                let ngroups = table.len();
                let (keys, states, n_aggs) = table.into_key_columns();
                let n_comps: usize = funcs.iter().map(|f| f.partial_arity()).sum();
                // Pre-type the partial-state component columns from the
                // dataflow certificate (same contract as the full
                // group-by's aggregate columns).
                let node_types = dataflow::output_types(node, self.catalog);
                let mut cols = keys;
                cols.extend(spec.all_part_cols().iter().map(|c| {
                    match node_types.as_ref().and_then(|m| m.get(c)) {
                        Some(&ty) => ColumnVec::with_type(ty),
                        None => ColumnVec::Mixed(Vec::with_capacity(ngroups)),
                    }
                }));
                let comp_base = cols.len() - n_comps;
                for g in 0..ngroups {
                    let mut cc = comp_base;
                    for j in 0..n_aggs {
                        for v in states[g * n_aggs + j].components() {
                            cols[cc].push_value(v.clone());
                            cc += 1;
                        }
                    }
                }
                let full = Batch::from_parts(cols, ngroups);
                let mut out = Batch::from_parts(
                    positions
                        .iter()
                        .map(|&p| full.col(p).empty_like())
                        .collect(),
                    0,
                );
                let bytes = out.gather_from(&full, &positions, None, 0..ngroups);
                ctx.gov.charge_output_bulk(out.len() as u64, bytes)?;
                (Data::Batch(out), bytes)
            }
        };
        ctx.note_op_output(out_bytes);

        let out_pages = self.model.page.pages_for_bytes(out_bytes as f64);
        let io = self.model.io;
        let (algo, charge) = match algo {
            AggAlgo::Auto => ops::best_agg(in_pages, out_pages, &io),
            AggAlgo::Hash => (AggAlgo::Hash, ops::hash_agg_io(in_pages, out_pages, &io)),
            AggAlgo::Sort => (AggAlgo::Sort, ops::sort_agg_io(in_pages, io.mem_pages)),
        };
        ctx.breakdown.push(IoBreakdown {
            op: format!("partial-groupby[{algo}]"),
            pages: charge,
        });
        Ok((project.to_vec(), out_data))
    }

    /// Eager partial aggregation below a join (Yan–Larson push-down):
    /// fold the input into per-group partial states *before* the join,
    /// optionally carrying a per-group COUNT(*) so the merge above can
    /// scale the partner side's duplicate-sensitive aggregates.
    fn exec_partial_aggregate(
        &self,
        node: &Plan,
        algo: AggAlgo,
        input: &Plan,
        spec: &PartialAggSpec,
        project: &[Col],
        ctx: &mut ExecCtx<'_>,
    ) -> Result<(Vec<Col>, Data)> {
        ctx.gov.check_interrupt()?;
        maybe_fault(ctx.faults, "exec.partial-agg")?;
        let (icols, idata) = self.exec(input, ctx)?;
        let layout = layout_map(&icols);
        let key_pos: Vec<usize> = spec
            .group_cols
            .iter()
            .map(|c| {
                layout.get(c).copied().ok_or_else(|| {
                    AggViewError::Plan(format!("eager grouping column {c} missing from input"))
                })
            })
            .collect::<Result<_>>()?;
        // Pushed aggregates plus, when the node carries one, the
        // duplicate-factor COUNT(*) as a final synthetic aggregate.
        let mut inputs: Vec<AggInput> = spec
            .aggs
            .iter()
            .map(|(_, a)| match &a.arg {
                Some(e) => Ok(AggInput::Raw(e.bind(&|c| layout.get(&c).copied())?)),
                None => Ok(AggInput::RawCountStar),
            })
            .collect::<Result<_>>()?;
        let mut funcs: Vec<AggFunc> = spec.aggs.iter().map(|(_, a)| a.func).collect();
        if spec.count.is_some() {
            funcs.push(AggFunc::Count);
            inputs.push(AggInput::RawCountStar);
        }

        // Output layout: group cols, partial components per agg, then
        // the count column last (matching the synthetic Count's order).
        let mut out_cols: Vec<Col> = spec.group_cols.clone();
        out_cols.extend(spec.all_part_cols());
        let out_layout = layout_map(&out_cols);
        let positions: Vec<usize> = project
            .iter()
            .map(|c| {
                out_layout.get(c).copied().ok_or_else(|| {
                    AggViewError::Plan(format!(
                        "eager partial aggregate projects unavailable column {c}"
                    ))
                })
            })
            .collect::<Result<_>>()?;

        let in_pages = self.pages_of_data(&idata);
        let (out_data, out_bytes) = match idata {
            Data::Rows(irows) => {
                let table = parallel::accumulate_groups(
                    &ctx.options,
                    ctx.gov,
                    &irows,
                    &key_pos,
                    &inputs,
                    &funcs,
                )?;
                let mut out = Vec::with_capacity(table.len());
                let mut out_bytes = 0u64;
                for g in table.groups {
                    let mut values = g.key.into_values();
                    for s in &g.states {
                        // Non-empty groups always have full component vectors.
                        values.extend(s.components().iter().cloned());
                    }
                    let full = Tuple::new(values);
                    let t = full.project(&positions);
                    ctx.charge_tuple(&t)?;
                    out_bytes += t.width() as u64;
                    out.push(t);
                }
                (Data::Rows(out), out_bytes)
            }
            Data::Batch(ib) => {
                let table = vector::accumulate_groups(
                    &ctx.options,
                    ctx.gov,
                    &ib,
                    &key_pos,
                    &inputs,
                    &funcs,
                )?;
                let ngroups = table.len();
                let (keys, states, n_aggs) = table.into_key_columns();
                let n_comps: usize = funcs.iter().map(|f| f.partial_arity()).sum();
                // Pre-type the partial-state component columns from the
                // dataflow certificate (same contract as the full
                // group-by's aggregate columns).
                let node_types = dataflow::output_types(node, self.catalog);
                let mut cols = keys;
                cols.extend(spec.all_part_cols().iter().map(|c| {
                    match node_types.as_ref().and_then(|m| m.get(c)) {
                        Some(&ty) => ColumnVec::with_type(ty),
                        None => ColumnVec::Mixed(Vec::with_capacity(ngroups)),
                    }
                }));
                let comp_base = cols.len() - n_comps;
                for g in 0..ngroups {
                    let mut cc = comp_base;
                    for j in 0..n_aggs {
                        for v in states[g * n_aggs + j].components() {
                            cols[cc].push_value(v.clone());
                            cc += 1;
                        }
                    }
                }
                let full = Batch::from_parts(cols, ngroups);
                let mut out = Batch::from_parts(
                    positions
                        .iter()
                        .map(|&p| full.col(p).empty_like())
                        .collect(),
                    0,
                );
                let bytes = out.gather_from(&full, &positions, None, 0..ngroups);
                ctx.gov.charge_output_bulk(out.len() as u64, bytes)?;
                (Data::Batch(out), bytes)
            }
        };
        ctx.note_op_output(out_bytes);

        let out_pages = self.model.page.pages_for_bytes(out_bytes as f64);
        let io = self.model.io;
        let (algo, charge) = match algo {
            AggAlgo::Auto => ops::best_agg(in_pages, out_pages, &io),
            AggAlgo::Hash => (AggAlgo::Hash, ops::hash_agg_io(in_pages, out_pages, &io)),
            AggAlgo::Sort => (AggAlgo::Sort, ops::sort_agg_io(in_pages, io.mem_pages)),
        };
        ctx.breakdown.push(IoBreakdown {
            op: format!("partial-agg[{algo}]"),
            pages: charge,
        });
        Ok((project.to_vec(), out_data))
    }

    /// Row-count hint for pre-sizing a hash-join build table: available
    /// when the build input is a bare table scan with fresh statistics.
    fn stats_rows_hint(&self, plan: &Plan) -> Option<usize> {
        match plan {
            Plan::Scan { table, .. } | Plan::ExtentScan { table, .. } => {
                if self.catalog.stats_fresh(table) {
                    Some(self.catalog.get(table).ok()?.len())
                } else {
                    None
                }
            }
            _ => None,
        }
    }

    fn pages_of(&self, rows: &[Tuple]) -> f64 {
        let bytes: usize = rows.iter().map(Tuple::width).sum();
        self.model.page.pages_for_bytes(bytes as f64)
    }

    /// Mode-independent page count of an operator output (batch byte
    /// totals equal the widths of the tuples they materialize to).
    fn pages_of_data(&self, d: &Data) -> f64 {
        match d {
            Data::Rows(r) => self.pages_of(r),
            Data::Batch(b) => self.model.page.pages_for_bytes(b.total_bytes() as f64),
        }
    }
}

fn layout_map(cols: &[Col]) -> HashMap<Col, usize> {
    cols.iter().enumerate().map(|(i, c)| (*c, i)).collect()
}

/// Mode-independent byte size of a materialized operator input.
fn bytes_of_data(d: &Data) -> u64 {
    match d {
        Data::Rows(r) => r.iter().map(|t| t.width() as u64).sum(),
        Data::Batch(b) => b.total_bytes(),
    }
}

pub(crate) fn eval_all(
    preds: &[aggview_common::predicate::BoundPredicate],
    t: &Tuple,
) -> Result<bool> {
    for p in preds {
        if !p.eval(t)? {
            return Ok(false);
        }
    }
    Ok(true)
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
    fn hash_join_matches_nested_loop_semantics() {
        let (cat, env) = setup();
        let e = engine(&cat, &env);
        let jp = Predicate::eq_cols(
            Col::base(RelId(0), emp::DNO),
            Col::base(RelId(1), dept::DNO),
        );
        let mk = |algo: JoinAlgo| {
            let mut p = Plan::join_all(
                Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
                Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4)),
                vec![jp.clone()],
            );
            if let Plan::Join { algo: a, .. } = &mut p {
                *a = algo;
            }
            p
        };
        let h = e.execute(&mk(JoinAlgo::Hash)).unwrap();
        let n = e.execute(&mk(JoinAlgo::NestedLoop)).unwrap();
        let mut hr = h.rows.clone();
        let mut nr = n.rows.clone();
        hr.sort();
        nr.sort();
        assert_eq!(hr, nr);
        // FK join: one output row per employee.
        assert_eq!(hr.len(), cat.get("emp").unwrap().len());
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
        let partial = Plan::partial_group_by_all(
            Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
            PartialGroupSpec {
                group_cols: vec![Col::base(RelId(0), emp::DNO)],
                aggs: vec![(aref, agg.clone())],
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
    fn explicit_hash_join_without_equality_errors() {
        let (cat, env) = setup();
        let e = engine(&cat, &env);
        let mut p = Plan::join_all(
            Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 5)),
            Plan::scan(RelId(1), "dept", vec![], all_cols(RelId(1), 4)),
            vec![],
        );
        if let Plan::Join { algo, .. } = &mut p {
            *algo = JoinAlgo::Hash;
        }
        assert!(e.execute(&p).is_err());
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
