//! Running the same statement under several optimizer configurations:
//! the wall-clock check of the paper's never-worse claim, and of how
//! well estimated cost ranks real time.

use crate::report::Measured;
use crate::stats;
use crate::workloads::{Ctx, Stmt};
use aggview_common::Result;
use aggview_core::OptimizerConfig;
use std::time::{Duration, Instant};

/// Plans whose medians differ by less than this are a tie when cost
/// order is compared with time order.
const TIE: f64 = 0.05;

pub const DEFAULT: &str = "default";
pub const TRADITIONAL: &str = "traditional";

/// Executions of every distinct plan of every cell a probe makes at
/// least, whatever its time budget.
pub const MIN_ROUNDS: usize = 11;

/// The alternatives `plan_choice` and every traced run execute.
pub fn all_configs() -> Vec<(&'static str, OptimizerConfig)> {
    let default = OptimizerConfig::default();
    vec![
        (DEFAULT, default),
        (TRADITIONAL, OptimizerConfig::traditional()),
        ("push_down_only", OptimizerConfig::push_down_only()),
        (
            "pull_up_only",
            OptimizerConfig {
                push_down: false,
                use_eager_agg: false,
                ..default
            },
        ),
        (
            "no_eager_agg",
            OptimizerConfig {
                use_eager_agg: false,
                ..default
            },
        ),
    ]
}

/// One distinct plan of a cell, shared by every configuration that
/// chose it.
struct PlanRun {
    config: OptimizerConfig,
    cost: f64,
    samples: Vec<f64>,
}

pub struct Cell {
    pub name: String,
    stmt: Stmt,
    expect_rows: usize,
    plans: Vec<PlanRun>,
    /// `plan_of[i]` = index into `plans` of configuration `i`.
    plan_of: Vec<usize>,
}

impl Cell {
    fn median_of(&self, config: usize) -> f64 {
        stats::median(&self.plans[self.plan_of[config]].samples)
    }
}

pub struct Probe {
    config_names: Vec<&'static str>,
    pub cells: Vec<Cell>,
    pub failed: u64,
    pub attempted: u64,
}

impl Probe {
    /// Plan every cell under every configuration and group the
    /// configurations by the plan they chose (identical plans are
    /// executed once per round). `expect_rows[i]` is the row count cell
    /// `i` must return.
    pub fn prepare(
        ctxs: &mut [Ctx],
        cells: &[(String, Stmt, usize)],
        configs: &[(&'static str, OptimizerConfig)],
    ) -> Result<Probe> {
        let mut out = Vec::new();
        for (name, stmt, expect_rows) in cells {
            let session = &mut ctxs[stmt.ctx].session;
            let saved = session.config;
            let mut texts: Vec<String> = Vec::new();
            let mut plans = Vec::new();
            let mut plan_of = Vec::new();
            for (_, config) in configs {
                session.config = *config;
                let (_, optimized) = session.plan(&stmt.sql)?;
                let text = optimized.plan.explain();
                let at = texts.iter().position(|t| *t == text).unwrap_or_else(|| {
                    texts.push(text);
                    plans.push(PlanRun {
                        config: *config,
                        cost: optimized.props.cost,
                        samples: Vec::new(),
                    });
                    plans.len() - 1
                });
                plan_of.push(at);
            }
            session.config = saved;
            out.push(Cell {
                name: name.clone(),
                stmt: stmt.clone(),
                expect_rows: *expect_rows,
                plans,
                plan_of,
            });
        }
        Ok(Probe {
            config_names: configs.iter().map(|(n, _)| *n).collect(),
            cells: out,
            failed: 0,
            attempted: 0,
        })
    }

    /// Execute rounds (every distinct plan of every cell once, the
    /// order within a cell rotating) until `budget` is spent and at
    /// least `min_rounds` are done; exactly `min_rounds` when `budget`
    /// is `None`.
    pub fn run(&mut self, ctxs: &mut [Ctx], budget: Option<Duration>, min_rounds: usize) {
        let start = Instant::now();
        let mut round = 0;
        loop {
            let over = budget.is_none_or(|b| start.elapsed() >= b);
            if round >= min_rounds && over {
                break;
            }
            for cell in &mut self.cells {
                let session = &mut ctxs[cell.stmt.ctx].session;
                let saved = session.config;
                let n = cell.plans.len();
                for k in 0..n {
                    let plan = &mut cell.plans[(k + round) % n];
                    session.config = plan.config;
                    let t = Instant::now();
                    let result = session.execute(&cell.stmt.sql);
                    plan.samples.push(t.elapsed().as_secs_f64() * 1e3);
                    self.attempted += 1;
                    match result {
                        Ok(r) if r.rows.len() == cell.expect_rows => {}
                        Ok(r) => {
                            eprintln!(
                                "probe `{}`: {} rows, expected {}",
                                cell.name,
                                r.rows.len(),
                                cell.expect_rows
                            );
                            self.failed += 1;
                        }
                        Err(e) => {
                            eprintln!("probe `{}`: {e}", cell.name);
                            self.failed += 1;
                        }
                    }
                }
                session.config = saved;
            }
            round += 1;
        }
    }

    fn config(&self, name: &str) -> usize {
        self.config_names
            .iter()
            .position(|n| *n == name)
            .expect("probe has this configuration")
    }

    /// Every sample taken under the default configuration, with the
    /// index of its cell, round by round (one sample per cell and round).
    pub fn default_samples(&self) -> Vec<(usize, f64)> {
        let d = self.config(DEFAULT);
        let samples: Vec<&Vec<f64>> = self
            .cells
            .iter()
            .map(|c| &c.plans[c.plan_of[d]].samples)
            .collect();
        let rounds = samples.iter().map(|s| s.len()).min().unwrap_or(0);
        (0..rounds)
            .flat_map(|r| samples.iter().enumerate().map(move |(i, s)| (i, s[r])))
            .collect()
    }

    /// Geometric mean over cells of median ms under the default
    /// configuration / median ms under the traditional one. The paper
    /// says <= 1.
    pub fn chosen_vs_traditional(&self) -> Measured {
        let (d, t) = (self.config(DEFAULT), self.config(TRADITIONAL));
        let ratios: Vec<f64> = self
            .cells
            .iter()
            .map(|c| c.median_of(d) / c.median_of(t))
            .collect();
        Measured {
            value: stats::geomean(&ratios),
            ..Measured::median("chosen_vs_traditional", &ratios, "ratio")
        }
    }

    /// Per cell: median ms of the cost-chosen (default) plan / median ms
    /// of the fastest alternative executed. 1.0 = the cost winner is the
    /// wall-clock winner.
    fn regrets(&self) -> Vec<f64> {
        let d = self.config(DEFAULT);
        self.cells
            .iter()
            .map(|c| {
                let best = c
                    .plans
                    .iter()
                    .map(|p| stats::median(&p.samples))
                    .fold(f64::INFINITY, f64::min);
                c.median_of(d) / best
            })
            .collect()
    }

    /// Share of comparable plan pairs (distinct estimated cost, medians
    /// more than [`TIE`] apart) that cost and wall-clock order the same
    /// way; 1.0 when no pair is comparable.
    fn rank_agreement(&self) -> (f64, usize) {
        let (mut agree, mut pairs) = (0usize, 0usize);
        for c in &self.cells {
            let medians: Vec<f64> = c.plans.iter().map(|p| stats::median(&p.samples)).collect();
            for i in 0..c.plans.len() {
                for j in i + 1..c.plans.len() {
                    let (ci, cj) = (c.plans[i].cost, c.plans[j].cost);
                    let (mi, mj) = (medians[i], medians[j]);
                    if ci == cj || (mi - mj).abs() <= TIE * mi.max(mj) {
                        continue;
                    }
                    pairs += 1;
                    agree += usize::from((ci < cj) == (mi < mj));
                }
            }
        }
        (
            if pairs == 0 {
                1.0
            } else {
                agree as f64 / pairs as f64
            },
            pairs,
        )
    }

    /// Geometric mean of the cells' regrets.
    pub fn regret(&self) -> Measured {
        let regrets = self.regrets();
        Measured {
            value: stats::geomean(&regrets),
            ..Measured::median("regret", &regrets, "ratio")
        }
    }

    /// `cost.rank_agreement`, `cost.regret_geomean`, `cost.worst_regret`.
    pub fn cost_metrics(&self) -> Vec<Measured> {
        let regrets = self.regrets();
        let (agreement, pairs) = self.rank_agreement();
        vec![
            Measured::counted("cost.rank_agreement", agreement, "ratio", pairs),
            Measured {
                name: "cost.regret_geomean".into(),
                ..self.regret()
            },
            Measured {
                value: regrets.iter().copied().fold(1.0, f64::max),
                ..Measured::median("cost.worst_regret", &regrets, "ratio")
            },
        ]
    }

    /// Per cell and configuration: median ms, estimated cost and the
    /// cell's regret, for the run record. Cells where the cost-chosen
    /// plan loses are reported like any other.
    pub fn info(&self) -> Vec<Measured> {
        let regrets = self.regrets();
        let mut out = Vec::new();
        for (c, regret) in self.cells.iter().zip(regrets) {
            for (i, config) in self.config_names.iter().enumerate() {
                let plan = &c.plans[c.plan_of[i]];
                out.push(Measured::median(
                    &format!("cell.{}.{config}.ms", c.name),
                    &plan.samples,
                    "ms",
                ));
                out.push(Measured::single(
                    &format!("cell.{}.{config}.cost", c.name),
                    plan.cost,
                    "pages",
                ));
            }
            out.push(Measured::counted(
                &format!("cell.{}.regret", c.name),
                regret,
                "ratio",
                c.plans.len(),
            ));
        }
        out
    }
}
