//! Static integrity analysis of operator trees — the `PlanAnalyzer`.
//!
//! The paper's correctness argument rests on structural invariants of
//! each transformation: pull-up must group on the joined relation's key
//! (Definition 1), invariant grouping requires the joined-above
//! relations to match at most one tuple per group, and simple
//! coalescing grouping requires decomposable aggregates whose merge
//! stage mirrors the partial stage (Figure 2). This module turns those
//! invariants — plus typing, value domains and cost-annotation sanity —
//! into machine-checked properties of any [`Plan`]:
//!
//! * [`dataflow`] — the one bottom-up walk that types, scopes and
//!   bounds a plan: the paper's legal operator tree (every consumed
//!   column produced below, aggregate and predicate operands typed,
//!   scans bound to the query's tables), value domains and
//!   contradictions, and the admission floors;
//! * [`rules`] — transformation legality: the pull-up key rule, the
//!   invariant-grouping key-join condition, the coalescing merge-stage
//!   identity, and the degraded-plan (traditional two-phase) shape;
//! * [`cost`] — cost-model sanity: finite non-negative cost/cardinality
//!   /width and monotone bounds against the inputs.
//!
//! The seeded plan mutations the analyzer must reject live with its
//! integration tests (`tests/support/mutate.rs`).
//!
//! The analyzer is wired three ways: as a debug-mode post-condition
//! after optimization and after each pull-up application, as a hard
//! pre-execution gate in the executor (raising
//! [`AggViewError::PlanInvalid`]), and as a user surface via the REPL's
//! `.lint` command and `EXPLAIN VERIFY <select>`.

pub mod cost;
pub mod dataflow;
pub mod rules;

use crate::cost::CostModel;
use crate::plan::Plan;
use crate::query::{CanonicalQuery, QueryEnv};
use aggview_common::{AggViewError, Result};
use aggview_storage::Catalog;
use dataflow::Dataflow;
use std::fmt;

/// How serious a finding is.
///
/// **Errors** are integrity defects: the plan would compute wrong
/// results or crash, so the pre-execution gate rejects it. **Warnings**
/// are correct-but-suboptimal facts the dataflow pass surfaces (a
/// contradiction that makes the plan provably empty); the plan still
/// passes the gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Rejecting: the plan must not execute.
    Error,
    /// Advisory: the plan executes, but something is off.
    Warning,
}

impl fmt::Display for Severity {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Severity::Error => "error",
            Severity::Warning => "warning",
        })
    }
}

/// Stable diagnostic code for a rule, for scripts and tests that must
/// not depend on message text.
pub fn code_for(rule: &str) -> &'static str {
    match rule {
        "schema" => "AV001",
        "pull-up-key" => "AV002",
        "invariant-grouping" => "AV003",
        "coalescing-merge" => "AV004",
        "matview-extent" => "AV005",
        "degraded-shape" => "AV006",
        "cost-sanity" => "AV007",
        "dataflow-domain" => "DF001",
        _ => "AV000",
    }
}

/// One analyzer finding: which rule fired, where, and why.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Stable rule identifier (`schema`, `pull-up-key`,
    /// `invariant-grouping`, `coalescing-merge`, `matview-extent`,
    /// `degraded-shape`, `cost-sanity`, `dataflow-domain`).
    pub rule: &'static str,
    /// Stable diagnostic code (`AV001`…, `DF001`…), derived from the
    /// rule.
    pub code: &'static str,
    /// Whether the finding rejects the plan or merely flags it.
    pub severity: Severity,
    /// Dotted path of the offending operator within the plan tree
    /// (`root`, `root.l.in`, …); empty when the finding is global.
    pub path: String,
    /// Human-readable description of the violated invariant.
    pub message: String,
}

impl Violation {
    pub(crate) fn new(rule: &'static str, message: String) -> Violation {
        Violation {
            rule,
            code: code_for(rule),
            severity: Severity::Error,
            path: String::new(),
            message,
        }
    }

    /// An advisory finding anchored at a plan path.
    pub(crate) fn warn(rule: &'static str, path: String, message: String) -> Violation {
        Violation {
            rule,
            code: code_for(rule),
            severity: Severity::Warning,
            path,
            message,
        }
    }

    /// An error finding anchored at a plan path.
    pub(crate) fn error_at(rule: &'static str, path: String, message: String) -> Violation {
        Violation {
            rule,
            code: code_for(rule),
            severity: Severity::Error,
            path,
            message,
        }
    }
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} [{}]", self.code, self.severity, self.rule)?;
        if !self.path.is_empty() {
            write!(f, " at {}", self.path)?;
        }
        write!(f, ": {}", self.message)
    }
}

/// The outcome of analyzing one plan.
#[derive(Debug, Clone, Default)]
pub struct AnalysisReport {
    /// Every finding, in discovery order.
    pub violations: Vec<Violation>,
}

impl AnalysisReport {
    /// True when no *error*-severity invariant was violated (warnings
    /// are advisory and do not reject the plan).
    pub fn is_ok(&self) -> bool {
        !self
            .violations
            .iter()
            .any(|v| v.severity == Severity::Error)
    }

    /// True when there are no findings at all, warnings included.
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    /// The findings sorted by severity (errors first), then by code.
    pub fn sorted(&self) -> Vec<&Violation> {
        let mut v: Vec<&Violation> = self.violations.iter().collect();
        v.sort_by_key(|v| (v.severity, v.code, v.path.clone()));
        v
    }

    /// Collapse the report into a single error message (errors first).
    pub fn summary(&self) -> String {
        if self.is_clean() {
            return "plan passes all integrity checks".into();
        }
        let msgs: Vec<String> = self.sorted().iter().map(|v| v.to_string()).collect();
        format!(
            "{} integrity finding(s): {}",
            self.violations.len(),
            msgs.join("; ")
        )
    }
}

impl fmt::Display for AnalysisReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.is_clean() {
            return f.write_str("plan passes all integrity checks");
        }
        for v in self.sorted() {
            writeln!(f, "{v}")?;
        }
        Ok(())
    }
}

/// Static verifier for [`Plan`] trees.
///
/// Construction is incremental: the catalog alone enables the dataflow
/// pass and the structural transformation rules; adding the query
/// environment enables scan-binding checks;
/// adding the canonical query enables the pull-up key rule (which must
/// know each view's original relations) and the degraded-shape check;
/// adding a cost model enables cost-annotation sanity.
pub struct PlanAnalyzer<'a> {
    catalog: &'a Catalog,
    env: Option<&'a QueryEnv>,
    query: Option<&'a CanonicalQuery>,
    model: Option<CostModel>,
}

impl<'a> PlanAnalyzer<'a> {
    /// Catalog-only analyzer: the dataflow pass, invariant-grouping and
    /// coalescing rules.
    pub fn new(catalog: &'a Catalog) -> PlanAnalyzer<'a> {
        PlanAnalyzer {
            catalog,
            env: None,
            query: None,
            model: None,
        }
    }

    /// Enable scan-binding checks (each scan's table must match the
    /// query's relation declaration) and, with a model, cost checks.
    pub fn with_env(mut self, env: &'a QueryEnv) -> PlanAnalyzer<'a> {
        self.env = Some(env);
        self
    }

    /// Enable the pull-up key rule (Definition 1), which needs to know
    /// which relations each view block originally aggregated over.
    /// Implies [`PlanAnalyzer::with_env`].
    pub fn with_query(mut self, query: &'a CanonicalQuery) -> PlanAnalyzer<'a> {
        self.env = Some(&query.env);
        self.query = Some(query);
        self
    }

    /// Enable cost-annotation sanity checks (requires an environment,
    /// via [`PlanAnalyzer::with_env`] or [`PlanAnalyzer::with_query`]).
    pub fn with_model(mut self, model: CostModel) -> PlanAnalyzer<'a> {
        self.model = Some(model);
        self
    }

    /// Run every enabled pass and collect violations.
    pub fn analyze(&self, plan: &Plan) -> AnalysisReport {
        self.analyze_flow(plan).0
    }

    /// [`PlanAnalyzer::analyze`], also returning the dataflow pass's
    /// summary of the plan (its findings moved into the report), so a
    /// caller that needs the domains or the admission bounds walks the
    /// plan once.
    pub fn analyze_flow(&self, plan: &Plan) -> (AnalysisReport, Dataflow) {
        let mut flow = dataflow::analyze_plan(
            plan,
            self.catalog,
            self.env.map(|e| e.rel_tables.as_slice()),
        );
        let mut violations = std::mem::take(&mut flow.findings);
        if let Some(query) = self.query {
            rules::check_pullup_keys(plan, self.catalog, query, &mut violations);
        }
        rules::check_invariant_grouping(plan, self.catalog, &mut violations);
        rules::check_coalescing(plan, &mut violations);
        rules::check_matview(plan, self.catalog, &mut violations);
        if let (Some(model), Some(env)) = (self.model, self.env) {
            cost::check(plan, model, self.catalog, env, &mut violations);
        }
        (AnalysisReport { violations }, flow)
    }

    /// Like [`PlanAnalyzer::analyze`], additionally requiring the shape
    /// of a governor-degraded plan: the traditional two-phase form
    /// (each view aggregated over exactly its own relations, no partial
    /// aggregation, the top group-by at the root).
    pub fn analyze_degraded(&self, plan: &Plan) -> AnalysisReport {
        let mut report = self.analyze(plan);
        if let Some(query) = self.query {
            rules::check_degraded_shape(plan, query, &mut report.violations);
        }
        report
    }

    /// Hard gate: `Err(PlanInvalid)` when any enabled check fails.
    pub fn verify(&self, plan: &Plan) -> Result<()> {
        self.verify_flow(plan).map(drop)
    }

    /// [`PlanAnalyzer::verify`], returning the accepted plan's dataflow
    /// summary (the pre-execution gate admits against its bounds).
    pub fn verify_flow(&self, plan: &Plan) -> Result<Dataflow> {
        let (report, flow) = self.analyze_flow(plan);
        if report.is_ok() {
            Ok(flow)
        } else {
            Err(AggViewError::PlanInvalid(report.summary()))
        }
    }
}
