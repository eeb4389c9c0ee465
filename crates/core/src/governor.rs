//! Resource governance: budgets, deadlines, and cooperative cancellation.
//!
//! The paper's never-worse guarantee (Section 5) says the
//! transformation-aware optimizer should never lose to the traditional
//! two-phase plan. This module operationalizes that guarantee as a
//! *runtime* property: a [`ResourceGovernor`] carries
//!
//! * a cooperative [`CancellationToken`],
//! * a wall-clock deadline,
//! * a row/byte budget for materialized intermediates, and
//! * an optimizer search budget (max plans built / memo entries),
//!
//! and is threaded through the optimizer's enumeration loops and the
//! executor's operator boundaries. When the optimizer's search budget
//! runs out it does **not** error: the caller degrades to the
//! traditional two-phase plan — the paper's baseline — and records why
//! in an [`OptimizeOutcome`]. Executor-side budgets, by contrast, abort
//! with structured [`AggViewError::ResourceExhausted`] /
//! [`AggViewError::Cancelled`] errors: a partially executed query has
//! no cheaper fallback, only a clean failure.

use aggview_common::{AggViewError, Result};
use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Cooperative cancellation flag, cheaply cloneable across threads.
///
/// Cancellation is *cooperative*: governed loops poll the token at
/// operator/enumeration boundaries and return
/// [`AggViewError::Cancelled`]; nothing is interrupted mid-operation.
#[derive(Debug, Clone, Default)]
pub struct CancellationToken {
    cancelled: Arc<AtomicBool>,
}

impl CancellationToken {
    pub fn new() -> CancellationToken {
        CancellationToken::default()
    }

    /// Request cancellation; all clones observe it.
    pub fn cancel(&self) {
        self.cancelled.store(true, Ordering::Release);
    }

    pub fn is_cancelled(&self) -> bool {
        self.cancelled.load(Ordering::Acquire)
    }

    /// `Err(Cancelled)` once [`cancel`](Self::cancel) has been called.
    pub fn check(&self) -> Result<()> {
        if self.is_cancelled() {
            Err(AggViewError::Cancelled("query cancelled".into()))
        } else {
            Ok(())
        }
    }
}

/// Declarative resource limits; `None` means unlimited.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ResourceLimits {
    /// Wall-clock budget for the whole optimize + execute pipeline.
    pub timeout: Option<Duration>,
    /// Total rows the executor may materialize across all operators.
    pub max_rows: Option<u64>,
    /// Total bytes the executor may materialize across all operators.
    pub max_bytes: Option<u64>,
    /// Optimizer search budget: plans costed during enumeration
    /// (mirrors `SearchStats::plans_built`).
    pub max_plans: Option<u64>,
    /// Optimizer search budget: memo entries kept during enumeration
    /// (mirrors `SearchStats::memo_entries`).
    pub max_memo_entries: Option<u64>,
}

impl ResourceLimits {
    /// No limits at all — the default for ungoverned entry points.
    pub fn unlimited() -> ResourceLimits {
        ResourceLimits::default()
    }

    pub fn with_timeout(mut self, timeout: Duration) -> ResourceLimits {
        self.timeout = Some(timeout);
        self
    }

    pub fn with_max_rows(mut self, rows: u64) -> ResourceLimits {
        self.max_rows = Some(rows);
        self
    }

    pub fn with_max_bytes(mut self, bytes: u64) -> ResourceLimits {
        self.max_bytes = Some(bytes);
        self
    }

    pub fn with_max_plans(mut self, plans: u64) -> ResourceLimits {
        self.max_plans = Some(plans);
        self
    }
}

/// Why the optimizer fell back to the traditional two-phase plan.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DegradationReason {
    /// The search budget (`max_plans` / `max_memo_entries`) ran out
    /// mid-enumeration.
    SearchBudgetExhausted,
    /// The wall-clock deadline expired during optimization.
    OptimizerTimeout,
}

impl fmt::Display for DegradationReason {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DegradationReason::SearchBudgetExhausted => {
                write!(f, "optimizer search budget exhausted")
            }
            DegradationReason::OptimizerTimeout => {
                write!(f, "wall-clock deadline expired during optimization")
            }
        }
    }
}

/// How an optimization run concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OptimizeOutcome {
    /// The configured search completed within budget.
    #[default]
    Full,
    /// The search budget ran out; the returned plan is the traditional
    /// two-phase plan (the paper's never-worse baseline).
    Degraded(DegradationReason),
}

impl OptimizeOutcome {
    pub fn is_degraded(&self) -> bool {
        matches!(self, OptimizeOutcome::Degraded(_))
    }

    pub fn degradation_reason(&self) -> Option<DegradationReason> {
        match self {
            OptimizeOutcome::Full => None,
            OptimizeOutcome::Degraded(r) => Some(*r),
        }
    }
}

impl fmt::Display for OptimizeOutcome {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            OptimizeOutcome::Full => write!(f, "full search"),
            OptimizeOutcome::Degraded(r) => {
                write!(f, "degraded to traditional plan: {r}")
            }
        }
    }
}

/// Shared accounting for one governed query (optimize + execute).
///
/// The governor is cheap to consult: budget charges are relaxed atomic
/// adds, and deadline checks read a precomputed `Instant`. All charge
/// methods return structured errors — never panic — so governed loops
/// can `?` out cleanly at the next operator boundary.
#[derive(Debug)]
pub struct ResourceGovernor {
    token: CancellationToken,
    deadline: Option<Instant>,
    limits: ResourceLimits,
    rows: AtomicU64,
    bytes: AtomicU64,
    plans: AtomicU64,
    memo: AtomicU64,
}

impl Default for ResourceGovernor {
    fn default() -> ResourceGovernor {
        ResourceGovernor::unlimited()
    }
}

impl ResourceGovernor {
    pub fn new(limits: ResourceLimits) -> ResourceGovernor {
        ResourceGovernor::with_token(CancellationToken::new(), limits)
    }

    pub fn with_token(token: CancellationToken, limits: ResourceLimits) -> ResourceGovernor {
        ResourceGovernor {
            token,
            deadline: limits.timeout.map(|t| Instant::now() + t),
            limits,
            rows: AtomicU64::new(0),
            bytes: AtomicU64::new(0),
            plans: AtomicU64::new(0),
            memo: AtomicU64::new(0),
        }
    }

    /// A governor with no limits — the identity element used by
    /// ungoverned entry points.
    pub fn unlimited() -> ResourceGovernor {
        ResourceGovernor::new(ResourceLimits::unlimited())
    }

    /// The cancellation token governed work polls.
    pub fn token(&self) -> &CancellationToken {
        &self.token
    }

    /// The limits this governor enforces.
    pub fn limits(&self) -> &ResourceLimits {
        &self.limits
    }

    /// Check cancellation and the wall-clock deadline; call at every
    /// operator / enumeration boundary.
    pub fn check_interrupt(&self) -> Result<()> {
        self.token.check()?;
        if let Some(deadline) = self.deadline {
            if Instant::now() > deadline {
                return Err(AggViewError::ResourceExhausted(format!(
                    "wall-clock deadline exceeded ({:?} budget)",
                    self.limits.timeout.unwrap_or_default()
                )));
            }
        }
        Ok(())
    }

    /// True once the wall-clock deadline has passed.
    pub fn deadline_exceeded(&self) -> bool {
        self.deadline.is_some_and(|d| Instant::now() > d)
    }

    fn charge(
        counter: &AtomicU64,
        limit: Option<u64>,
        n: u64,
        what: &str,
    ) -> std::result::Result<(), String> {
        let total = counter.fetch_add(n, Ordering::Relaxed) + n;
        match limit {
            Some(cap) if total > cap => Err(format!("{what} budget exhausted ({total} > {cap})")),
            _ => Ok(()),
        }
    }

    /// Charge `n` materialized rows against the row budget.
    pub fn charge_rows(&self, n: u64) -> Result<()> {
        Self::charge(&self.rows, self.limits.max_rows, n, "row")
            .map_err(AggViewError::ResourceExhausted)
    }

    /// Charge `n` materialized bytes against the byte budget.
    pub fn charge_bytes(&self, n: u64) -> Result<()> {
        Self::charge(&self.bytes, self.limits.max_bytes, n, "memory")
            .map_err(AggViewError::ResourceExhausted)
    }

    /// Charge one batch of materialized output (`rows` tuples totalling
    /// `bytes`) against both budgets in one call. The first charge that
    /// crosses a cap fails, with the whole batch counted: overshoot is
    /// bounded by one batch. The counters are atomics, so the governor
    /// can be shared by reference with whatever thread holds it.
    pub fn charge_output(&self, rows: u64, bytes: u64) -> Result<()> {
        self.charge_rows(rows)?;
        self.charge_bytes(bytes)
    }

    /// Charge a whole tile of output in two atomic operations while
    /// keeping the per-row overshoot bound.
    ///
    /// The vectorized operators produce up to `batch_rows` tuples per
    /// kernel invocation; charging them row-at-a-time would reintroduce
    /// one atomic RMW per tuple. A plain bulk `fetch_add` would instead
    /// let a single tile overshoot a cap by `batch_rows - 1` — visible to
    /// the governance tests, which pin usage after an abort to exactly
    /// `cap + 1`. `charge_clamped` reconciles the two: it adds the whole
    /// tile, and on crossing a cap rolls the counter back to exactly
    /// `cap + 1` before reporting exhaustion, so observed usage is what
    /// charging row by row would leave at its first overrunning charge.
    pub fn charge_output_bulk(&self, rows: u64, bytes: u64) -> Result<()> {
        Self::charge_clamped(&self.rows, self.limits.max_rows, rows, "row")
            .map_err(AggViewError::ResourceExhausted)?;
        Self::charge_clamped(&self.bytes, self.limits.max_bytes, bytes, "memory")
            .map_err(AggViewError::ResourceExhausted)
    }

    fn charge_clamped(
        counter: &AtomicU64,
        limit: Option<u64>,
        n: u64,
        what: &str,
    ) -> std::result::Result<(), String> {
        let total = counter.fetch_add(n, Ordering::Relaxed) + n;
        if let Some(cap) = limit {
            if total > cap {
                // Roll back to cap + 1 (never below what this call added)
                // so usage reads as if the first over-cap row had been
                // charged individually.
                let roll_back = (total - cap - 1).min(n);
                counter.fetch_sub(roll_back, Ordering::Relaxed);
                return Err(format!(
                    "{what} budget exhausted ({} > {cap})",
                    total - roll_back
                ));
            }
        }
        Ok(())
    }

    /// Charge `n` costed plans against the optimizer search budget.
    pub fn charge_plans(&self, n: u64) -> Result<()> {
        Self::charge(&self.plans, self.limits.max_plans, n, "optimizer plan")
            .map_err(AggViewError::ResourceExhausted)
    }

    /// Charge `n` memo entries against the optimizer search budget.
    pub fn charge_memo(&self, n: u64) -> Result<()> {
        Self::charge(
            &self.memo,
            self.limits.max_memo_entries,
            n,
            "optimizer memo",
        )
        .map_err(AggViewError::ResourceExhausted)
    }

    /// Rows charged so far.
    pub fn rows_used(&self) -> u64 {
        self.rows.load(Ordering::Relaxed)
    }

    /// Bytes charged so far.
    pub fn bytes_used(&self) -> u64 {
        self.bytes.load(Ordering::Relaxed)
    }

    /// True once the search budget (plans or memo entries) is spent.
    pub fn search_budget_exhausted(&self) -> bool {
        let plans_out = self
            .limits
            .max_plans
            .is_some_and(|cap| self.plans.load(Ordering::Relaxed) > cap);
        let memo_out = self
            .limits
            .max_memo_entries
            .is_some_and(|cap| self.memo.load(Ordering::Relaxed) > cap);
        plans_out || memo_out
    }

    /// Governor for the degraded (traditional-plan) retry: same
    /// cancellation token, but no search limits or deadline — the
    /// baseline plan is the safety net and must always be producible.
    pub fn for_fallback(&self) -> ResourceGovernor {
        ResourceGovernor::with_token(self.token.clone(), ResourceLimits::unlimited())
    }

    /// Classify why optimization was interrupted, for degradation
    /// reporting. Returns `None` when neither budget nor deadline is
    /// responsible (e.g. explicit cancellation).
    pub fn degradation_reason(&self) -> Option<DegradationReason> {
        if self.search_budget_exhausted() {
            Some(DegradationReason::SearchBudgetExhausted)
        } else if self.deadline_exceeded() {
            Some(DegradationReason::OptimizerTimeout)
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_cancels_all_clones() {
        let t = CancellationToken::new();
        let t2 = t.clone();
        assert!(t.check().is_ok());
        t2.cancel();
        assert!(t.is_cancelled());
        let err = t.check().unwrap_err();
        assert_eq!(err.kind(), "cancelled");
    }

    #[test]
    fn bulk_charge_clamps_overshoot_to_one_row() {
        let g = ResourceGovernor::new(ResourceLimits {
            max_rows: Some(10),
            ..ResourceLimits::unlimited()
        });
        assert!(g.charge_output_bulk(8, 100).is_ok());
        // A 1024-row tile crossing the cap trips the budget but leaves
        // the counter at exactly cap + 1, matching row-at-a-time charging.
        let err = g.charge_output_bulk(1024, 100).unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted");
        assert!(err.to_string().contains("row budget exhausted (11 > 10)"));
        assert_eq!(g.rows_used(), 11);
        // A bulk charge that lands exactly on the cap is fine.
        let g2 = ResourceGovernor::new(ResourceLimits {
            max_rows: Some(10),
            ..ResourceLimits::unlimited()
        });
        assert!(g2.charge_output_bulk(10, 0).is_ok());
        assert_eq!(g2.rows_used(), 10);
    }

    #[test]
    fn unlimited_governor_never_trips() {
        let g = ResourceGovernor::unlimited();
        assert!(g.check_interrupt().is_ok());
        assert!(g.charge_rows(u64::MAX / 2).is_ok());
        assert!(g.charge_plans(u64::MAX / 2).is_ok());
        assert!(!g.search_budget_exhausted());
        assert_eq!(g.degradation_reason(), None);
    }

    #[test]
    fn row_budget_trips_with_structured_error() {
        let g = ResourceGovernor::new(ResourceLimits::unlimited().with_max_rows(10));
        assert!(g.charge_rows(10).is_ok());
        let err = g.charge_rows(1).unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted");
        assert!(err.message().contains("row budget"));
        assert!(!err.is_retryable());
    }

    #[test]
    fn plan_budget_trips_and_classifies() {
        let g = ResourceGovernor::new(ResourceLimits::unlimited().with_max_plans(5));
        assert!(g.charge_plans(5).is_ok());
        assert!(g.charge_plans(1).is_err());
        assert!(g.search_budget_exhausted());
        assert_eq!(
            g.degradation_reason(),
            Some(DegradationReason::SearchBudgetExhausted)
        );
    }

    #[test]
    fn deadline_trips_after_expiry() {
        let g = ResourceGovernor::new(
            ResourceLimits::unlimited().with_timeout(Duration::from_millis(0)),
        );
        std::thread::sleep(Duration::from_millis(2));
        assert!(g.deadline_exceeded());
        let err = g.check_interrupt().unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted");
        assert_eq!(
            g.degradation_reason(),
            Some(DegradationReason::OptimizerTimeout)
        );
    }

    #[test]
    fn fallback_keeps_token_drops_budgets() {
        let g = ResourceGovernor::new(ResourceLimits::unlimited().with_max_plans(1));
        let _ = g.charge_plans(2);
        let fb = g.for_fallback();
        assert!(fb.charge_plans(1_000_000).is_ok());
        g.token().cancel();
        assert!(fb.check_interrupt().is_err(), "token is shared");
    }

    #[test]
    fn outcome_display_names_reason() {
        let o = OptimizeOutcome::Degraded(DegradationReason::SearchBudgetExhausted);
        assert!(o.is_degraded());
        assert!(o.to_string().contains("search budget"));
        assert!(!OptimizeOutcome::Full.is_degraded());
    }
}
