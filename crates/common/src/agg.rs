//! Aggregate functions and their decomposition into partial states.
//!
//! The paper's transformations put two requirements on aggregates:
//!
//! 1. **Pull-up** (Section 3) merely *defers* where an aggregate is
//!    computed, so any function works.
//! 2. **Simple coalescing grouping** (Section 4.2) "requires that the
//!    aggregating functions ... satisfy the property of being
//!    *decomposable*, e.g., we must be able to subsequently coalesce two
//!    groups that agree on the grouping columns." [`PartialAggState`]
//!    implements that decomposition: a lower group-by produces partial
//!    states, joins duplicate/route them like ordinary columns, and the
//!    upper group-by merges states and finalizes.
//!
//! Built-ins: COUNT, COUNT(*), SUM, MIN, MAX, AVG, and — as the paper's
//! example of a user-defined aggregate without side effects — population
//! standard deviation (`STDDEV`). All are decomposable.

use crate::error::{AggViewError, Result};
use crate::expr::Expr;
use crate::value::{DataType, Value};
use std::fmt;

/// The supported aggregate functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum AggFunc {
    /// COUNT(expr) or COUNT(*) (argument-less in [`AggSpec`]).
    Count,
    Sum,
    Min,
    Max,
    Avg,
    /// Population standard deviation — stands in for the paper's
    /// "user-defined (without side-effects)" aggregate example.
    StdDev,
}

impl AggFunc {
    /// Result type given the argument type (`None` for COUNT(*)).
    pub fn output_type(self, arg: Option<DataType>) -> Result<DataType> {
        match self {
            AggFunc::Count => Ok(DataType::Int),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                let t = arg
                    .ok_or_else(|| AggViewError::Schema(format!("{self} requires an argument")))?;
                if self == AggFunc::Sum && !t.is_numeric() {
                    return Err(AggViewError::Schema(format!("SUM over non-numeric {t}")));
                }
                Ok(t)
            }
            AggFunc::Avg | AggFunc::StdDev => {
                let t = arg
                    .ok_or_else(|| AggViewError::Schema(format!("{self} requires an argument")))?;
                if !t.is_numeric() {
                    return Err(AggViewError::Schema(format!("{self} over non-numeric {t}")));
                }
                Ok(DataType::Float)
            }
        }
    }

    /// All built-ins are decomposable; a hook for user-defined aggregates
    /// that are not (holistic functions like MEDIAN would return false,
    /// disabling simple coalescing for queries that use them).
    pub fn is_decomposable(self) -> bool {
        true
    }

    /// Types of the partial-state components, in component order.
    pub fn partial_types(self, arg: Option<DataType>) -> Result<Vec<DataType>> {
        Ok(match self {
            AggFunc::Count => vec![DataType::Int],
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                vec![self.output_type(arg)?]
            }
            AggFunc::Avg => vec![DataType::Float, DataType::Int],
            AggFunc::StdDev => vec![DataType::Float, DataType::Float, DataType::Int],
        })
    }

    /// Number of partial-state components.
    pub fn partial_arity(self) -> usize {
        match self {
            AggFunc::Count | AggFunc::Sum | AggFunc::Min | AggFunc::Max => 1,
            AggFunc::Avg => 2,
            AggFunc::StdDev => 3,
        }
    }

    /// Whether the aggregate's value changes when input rows are
    /// duplicated (the paper's duplicate-factor treatment): COUNT, SUM,
    /// AVG, and STDDEV must be scaled by a join's replication count,
    /// while MIN/MAX are insensitive to duplicates.
    pub fn is_duplicate_sensitive(self) -> bool {
        !matches!(self, AggFunc::Min | AggFunc::Max)
    }
}

impl fmt::Display for AggFunc {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
            AggFunc::StdDev => "STDDEV",
        };
        f.write_str(s)
    }
}

/// One aggregate computation: function plus argument expression
/// (`None` = COUNT(*)).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct AggSpec {
    pub func: AggFunc,
    pub arg: Option<Expr>,
}

impl AggSpec {
    pub fn new(func: AggFunc, arg: Expr) -> AggSpec {
        AggSpec {
            func,
            arg: Some(arg),
        }
    }

    /// COUNT(*).
    pub fn count_star() -> AggSpec {
        AggSpec {
            func: AggFunc::Count,
            arg: None,
        }
    }

    /// The aggregating columns of this spec (paper Section 2: the `b1..bn`
    /// columns).
    pub fn cols_used(&self) -> std::collections::BTreeSet<crate::ids::Col> {
        self.arg.as_ref().map(Expr::cols_used).unwrap_or_default()
    }
}

impl fmt::Display for AggSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.arg {
            Some(e) => write!(f, "{}({})", self.func, e),
            None => write!(f, "{}(*)", self.func),
        }
    }
}

/// How a [`PartialAggState::retract_components`] call concluded.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Retraction {
    /// The state now reflects the group minus the retracted rows.
    Retracted,
    /// The retraction touched information the state cannot invert
    /// (a MIN/MAX extremum tie): the group must be recomputed from
    /// base data. The state is unchanged.
    NeedsRecompute,
}

/// A partial aggregate state: the decomposed representation of one
/// aggregate over a subset of a group's tuples.
///
/// State components are plain [`Value`]s so they can travel through join
/// operators inside tuples (identified by [`crate::ids::PartRef`]
/// columns).
#[derive(Debug, Clone, PartialEq)]
pub struct PartialAggState {
    func: AggFunc,
    state: Vec<Value>,
}

impl PartialAggState {
    /// State for an empty subset of tuples.
    pub fn empty(func: AggFunc) -> PartialAggState {
        let state = match func {
            AggFunc::Count => vec![Value::Int(0)],
            // MIN/MAX/SUM over the empty set have no identity value we
            // can represent without NULLs; use a sentinel empty count so
            // merge/finalize can detect it.
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => vec![],
            AggFunc::Avg => vec![Value::Float(0.0), Value::Int(0)],
            AggFunc::StdDev => vec![Value::Float(0.0), Value::Float(0.0), Value::Int(0)],
        };
        PartialAggState { func, state }
    }

    /// Absorb one raw input value (`None` only for COUNT(*)).
    pub fn update(&mut self, arg: Option<&Value>) -> Result<()> {
        match self.func {
            AggFunc::Count => {
                let n = state_i64(&self.state[0], "COUNT")?;
                self.state[0] = Value::Int(checked_count(n, 1, "COUNT")?);
            }
            AggFunc::Sum => {
                let v = require_arg(arg, "SUM")?;
                match self.state.first() {
                    None => self.state.push(numeric_clone(v, "SUM")?),
                    Some(cur) => {
                        self.state[0] = add_numeric(cur, v)?;
                    }
                }
            }
            AggFunc::Min => {
                let v = require_arg(arg, "MIN")?;
                match self.state.first() {
                    None => self.state.push(v.clone()),
                    Some(cur) if v < cur => self.state[0] = v.clone(),
                    _ => {}
                }
            }
            AggFunc::Max => {
                let v = require_arg(arg, "MAX")?;
                match self.state.first() {
                    None => self.state.push(v.clone()),
                    Some(cur) if v > cur => self.state[0] = v.clone(),
                    _ => {}
                }
            }
            AggFunc::Avg => {
                let v = require_arg(arg, "AVG")?;
                let x = as_number(v, "AVG")?;
                let s = state_f64(&self.state[0], "AVG sum")?;
                let n = state_i64(&self.state[1], "AVG count")?;
                self.state[0] = Value::Float(s + x);
                self.state[1] = Value::Int(checked_count(n, 1, "AVG count")?);
            }
            AggFunc::StdDev => {
                let v = require_arg(arg, "STDDEV")?;
                let x = as_number(v, "STDDEV")?;
                let s = state_f64(&self.state[0], "STDDEV sum")?;
                let q = state_f64(&self.state[1], "STDDEV sumsq")?;
                let n = state_i64(&self.state[2], "STDDEV count")?;
                self.state[0] = Value::Float(s + x);
                self.state[1] = Value::Float(q + x * x);
                self.state[2] = Value::Int(checked_count(n, 1, "STDDEV count")?);
            }
        }
        Ok(())
    }

    /// Absorb one raw input value as if it occurred `n` times — the
    /// duplicate-factor treatment eager aggregation needs when a join
    /// replicates each kept-side row once per matching pushed-side
    /// group (whose row count travels as a COUNT column).
    ///
    /// Equivalent to calling [`update`](Self::update) `n` times, but
    /// exact for integer SUM/COUNT (checked multiply) and O(1). `n`
    /// must be positive: a join match always carries at least one row.
    pub fn update_weighted(&mut self, arg: Option<&Value>, n: i64) -> Result<()> {
        if n <= 0 {
            return Err(AggViewError::Exec(format!(
                "non-positive duplicate factor {n} for {}",
                self.func
            )));
        }
        match self.func {
            AggFunc::Count => {
                let cur = state_i64(&self.state[0], "COUNT")?;
                self.state[0] = Value::Int(checked_count(cur, n, "COUNT")?);
            }
            AggFunc::Sum => {
                let v = require_arg(arg, "SUM")?;
                let scaled = mul_numeric(v, n)?;
                match self.state.first() {
                    None => self.state.push(scaled),
                    Some(cur) => self.state[0] = add_numeric(cur, &scaled)?,
                }
            }
            // Duplicate-insensitive: the weight is irrelevant.
            AggFunc::Min | AggFunc::Max => self.update(arg)?,
            AggFunc::Avg => {
                let v = require_arg(arg, "AVG")?;
                let x = as_number(v, "AVG")?;
                let s = state_f64(&self.state[0], "AVG sum")?;
                let c = state_i64(&self.state[1], "AVG count")?;
                self.state[0] = Value::Float(s + x * n as f64);
                self.state[1] = Value::Int(checked_count(c, n, "AVG count")?);
            }
            AggFunc::StdDev => {
                let v = require_arg(arg, "STDDEV")?;
                let x = as_number(v, "STDDEV")?;
                let s = state_f64(&self.state[0], "STDDEV sum")?;
                let q = state_f64(&self.state[1], "STDDEV sumsq")?;
                let c = state_i64(&self.state[2], "STDDEV count")?;
                self.state[0] = Value::Float(s + x * n as f64);
                self.state[1] = Value::Float(q + x * x * n as f64);
                self.state[2] = Value::Int(checked_count(c, n, "STDDEV count")?);
            }
        }
        Ok(())
    }

    /// Coalesce another partial state of the same aggregate into this one
    /// — the operation the upper group-by of simple coalescing performs.
    pub fn merge(&mut self, other: &PartialAggState) -> Result<()> {
        if self.func != other.func {
            return Err(AggViewError::Exec(format!(
                "cannot merge {} state into {} state",
                other.func, self.func
            )));
        }
        self.merge_components(&other.state)
    }

    /// Coalesce raw state components (as read out of a tuple).
    ///
    /// Generic over owned (`&[Value]`) and borrowed (`&[&Value]`)
    /// component slices so hot executor loops can pass references to
    /// values still sitting inside an input tuple.
    pub fn merge_components<V: std::borrow::Borrow<Value>>(&mut self, other: &[V]) -> Result<()> {
        let first = other.first().map(std::borrow::Borrow::borrow);
        match self.func {
            AggFunc::Count => {
                let a = state_i64(&self.state[0], "COUNT")?;
                let b = first
                    .and_then(Value::as_i64)
                    .ok_or_else(|| AggViewError::Exec("bad COUNT partial state".into()))?;
                self.state[0] = Value::Int(checked_count(a, b, "COUNT")?);
            }
            AggFunc::Sum => match (self.state.first().cloned(), first) {
                (_, None) => {}
                (None, Some(v)) => self.state.push(v.clone()),
                (Some(cur), Some(v)) => self.state[0] = add_numeric(&cur, v)?,
            },
            AggFunc::Min => match (self.state.first().cloned(), first) {
                (_, None) => {}
                (None, Some(v)) => self.state.push(v.clone()),
                (Some(cur), Some(v)) => {
                    if v < &cur {
                        self.state[0] = v.clone();
                    }
                }
            },
            AggFunc::Max => match (self.state.first().cloned(), first) {
                (_, None) => {}
                (None, Some(v)) => self.state.push(v.clone()),
                (Some(cur), Some(v)) => {
                    if v > &cur {
                        self.state[0] = v.clone();
                    }
                }
            },
            AggFunc::Avg => {
                if other.len() != 2 {
                    return Err(AggViewError::Exec("bad AVG partial state".into()));
                }
                let s = state_f64(&self.state[0], "AVG sum")? + partial_f64(other[0].borrow())?;
                let n = checked_count(
                    state_i64(&self.state[1], "AVG count")?,
                    partial_i64(other[1].borrow())?,
                    "AVG count",
                )?;
                self.state[0] = Value::Float(s);
                self.state[1] = Value::Int(n);
            }
            AggFunc::StdDev => {
                if other.len() != 3 {
                    return Err(AggViewError::Exec("bad STDDEV partial state".into()));
                }
                let s = state_f64(&self.state[0], "STDDEV sum")? + partial_f64(other[0].borrow())?;
                let q =
                    state_f64(&self.state[1], "STDDEV sumsq")? + partial_f64(other[1].borrow())?;
                let n = checked_count(
                    state_i64(&self.state[2], "STDDEV count")?,
                    partial_i64(other[2].borrow())?,
                    "STDDEV count",
                )?;
                self.state[0] = Value::Float(s);
                self.state[1] = Value::Float(q);
                self.state[2] = Value::Int(n);
            }
        }
        Ok(())
    }

    /// Retract raw state components: the inverse of
    /// [`merge_components`](Self::merge_components), used by view
    /// maintenance to subtract deleted rows' contribution from a stored
    /// group.
    ///
    /// COUNT/SUM/AVG/STDDEV subtract exactly (their partial states form
    /// a group under addition). MIN/MAX are *not* invertible: the state
    /// only remembers the extremum, so retracting a partial whose
    /// extremum ties the stored one may or may not change the group —
    /// those return [`Retraction::NeedsRecompute`] and the maintainer
    /// recomputes that group from base data. A retraction that is
    /// impossible for any consistent history (negative count, deleting
    /// a value strictly beyond the stored extremum) is an execution
    /// error; callers treat it as "fall back to rebuild".
    pub fn retract_components<V: std::borrow::Borrow<Value>>(
        &mut self,
        other: &[V],
    ) -> Result<Retraction> {
        let first = other.first().map(std::borrow::Borrow::borrow);
        match self.func {
            AggFunc::Count => {
                let a = state_i64(&self.state[0], "COUNT")?;
                let b = first
                    .and_then(Value::as_i64)
                    .ok_or_else(|| AggViewError::Exec("bad COUNT partial state".into()))?;
                self.state[0] = Value::Int(checked_retract_count(a, b, "COUNT")?);
            }
            AggFunc::Sum => match (self.state.first().cloned(), first) {
                (_, None) => {}
                (None, Some(_)) => {
                    return Err(AggViewError::Exec("SUM retraction from empty state".into()))
                }
                (Some(cur), Some(v)) => self.state[0] = sub_numeric(&cur, v)?,
            },
            AggFunc::Min | AggFunc::Max => match (self.state.first().cloned(), first) {
                (_, None) => {}
                (None, Some(_)) => {
                    return Err(AggViewError::Exec(format!(
                        "{} retraction from empty state",
                        self.func
                    )))
                }
                (Some(cur), Some(v)) => {
                    let beats_stored = if self.func == AggFunc::Min {
                        v < &cur
                    } else {
                        v > &cur
                    };
                    if beats_stored {
                        return Err(AggViewError::Exec(format!(
                            "{} retraction of {v} beyond stored extremum {cur}",
                            self.func
                        )));
                    }
                    if v == &cur {
                        // The deleted rows reached the stored extremum;
                        // only base data knows whether a duplicate
                        // survives.
                        return Ok(Retraction::NeedsRecompute);
                    }
                }
            },
            AggFunc::Avg => {
                if other.len() != 2 {
                    return Err(AggViewError::Exec("bad AVG partial state".into()));
                }
                let s = state_f64(&self.state[0], "AVG sum")? - partial_f64(other[0].borrow())?;
                let n = checked_retract_count(
                    state_i64(&self.state[1], "AVG count")?,
                    partial_i64(other[1].borrow())?,
                    "AVG count",
                )?;
                self.state[0] = Value::Float(s);
                self.state[1] = Value::Int(n);
            }
            AggFunc::StdDev => {
                if other.len() != 3 {
                    return Err(AggViewError::Exec("bad STDDEV partial state".into()));
                }
                let s = state_f64(&self.state[0], "STDDEV sum")? - partial_f64(other[0].borrow())?;
                let q =
                    state_f64(&self.state[1], "STDDEV sumsq")? - partial_f64(other[1].borrow())?;
                let n = checked_retract_count(
                    state_i64(&self.state[2], "STDDEV count")?,
                    partial_i64(other[2].borrow())?,
                    "STDDEV count",
                )?;
                self.state[0] = Value::Float(s);
                self.state[1] = Value::Float(q);
                self.state[2] = Value::Int(n);
            }
        }
        Ok(Retraction::Retracted)
    }

    /// The rows remaining in the group according to this state's own
    /// counter, when the function keeps one: COUNT's count, AVG's and
    /// STDDEV's row counts. `None` for SUM/MIN/MAX, whose states cannot
    /// witness emptiness.
    pub fn count_component(&self) -> Option<i64> {
        match self.func {
            AggFunc::Count => self.state.first().and_then(Value::as_i64),
            AggFunc::Avg => self.state.get(1).and_then(Value::as_i64),
            AggFunc::StdDev => self.state.get(2).and_then(Value::as_i64),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => None,
        }
    }

    /// The state components (for embedding into tuples). For SUM/MIN/MAX
    /// the empty state has no components; callers must not emit tuples
    /// for empty groups (grouped aggregation never does).
    pub fn components(&self) -> &[Value] {
        &self.state
    }

    /// Final aggregate value.
    pub fn finalize(&self) -> Result<Value> {
        match self.func {
            AggFunc::Count => Ok(self.state[0].clone()),
            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                self.state.first().cloned().ok_or_else(|| {
                    AggViewError::Exec(format!("{} over empty group (NULL unsupported)", self.func))
                })
            }
            AggFunc::Avg => {
                let s = state_f64(&self.state[0], "AVG sum")?;
                let n = state_i64(&self.state[1], "AVG count")?;
                if n == 0 {
                    Err(AggViewError::Exec(
                        "AVG over empty group (NULL unsupported)".into(),
                    ))
                } else {
                    Ok(Value::Float(s / n as f64))
                }
            }
            AggFunc::StdDev => {
                let s = state_f64(&self.state[0], "STDDEV sum")?;
                let q = state_f64(&self.state[1], "STDDEV sumsq")?;
                let n = state_i64(&self.state[2], "STDDEV count")?;
                if n == 0 {
                    Err(AggViewError::Exec(
                        "STDDEV over empty group (NULL unsupported)".into(),
                    ))
                } else {
                    let mean = s / n as f64;
                    let var = (q / n as f64 - mean * mean).max(0.0);
                    Ok(Value::Float(var.sqrt()))
                }
            }
        }
    }

    /// The function this state decomposes.
    pub fn func(&self) -> AggFunc {
        self.func
    }
}

fn require_arg<'v>(arg: Option<&'v Value>, func: &str) -> Result<&'v Value> {
    arg.ok_or_else(|| AggViewError::Exec(format!("{func} requires an argument")))
}

fn as_number(v: &Value, func: &str) -> Result<f64> {
    v.as_f64()
        .ok_or_else(|| AggViewError::Exec(format!("{func} over non-numeric value {v}")))
}

fn numeric_clone(v: &Value, func: &str) -> Result<Value> {
    match v {
        Value::Int(_) | Value::Float(_) => Ok(v.clone()),
        other => Err(AggViewError::Exec(format!(
            "{func} over non-numeric value {other}"
        ))),
    }
}

/// Add two numeric values, staying exact for Int + Int. Integer overflow
/// is an execution error, not a silently wrong result.
fn add_numeric(a: &Value, b: &Value) -> Result<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x
            .checked_add(*y)
            .map(Value::Int)
            .ok_or_else(|| AggViewError::Exec(format!("SUM overflow ({x} + {y})"))),
        _ => {
            let x = as_number(a, "SUM")?;
            let y = as_number(b, "SUM")?;
            Ok(Value::Float(x + y))
        }
    }
}

/// A state value that should be of the given shape but — because partial
/// states travel through joins as ordinary column values — might not be.
fn state_f64(v: &Value, what: &str) -> Result<f64> {
    v.as_f64()
        .ok_or_else(|| AggViewError::Exec(format!("corrupt {what} state: {v}")))
}

fn state_i64(v: &Value, what: &str) -> Result<i64> {
    v.as_i64()
        .ok_or_else(|| AggViewError::Exec(format!("corrupt {what} state: {v}")))
}

fn checked_count(a: i64, b: i64, what: &str) -> Result<i64> {
    a.checked_add(b)
        .ok_or_else(|| AggViewError::Exec(format!("{what} overflow")))
}

/// Subtract a retracted count; a negative result means the delta deletes
/// rows the group never contained — no consistent history produces it.
fn checked_retract_count(a: i64, b: i64, what: &str) -> Result<i64> {
    match a.checked_sub(b) {
        Some(n) if n >= 0 => Ok(n),
        _ => Err(AggViewError::Exec(format!(
            "{what} retraction below zero ({a} - {b})"
        ))),
    }
}

/// Scale a numeric value by an integer factor, staying exact for Int.
fn mul_numeric(v: &Value, n: i64) -> Result<Value> {
    match v {
        Value::Int(x) => x
            .checked_mul(n)
            .map(Value::Int)
            .ok_or_else(|| AggViewError::Exec(format!("SUM overflow ({x} * {n})"))),
        _ => Ok(Value::Float(as_number(v, "SUM")? * n as f64)),
    }
}

/// Subtract two numeric values, staying exact for Int − Int.
fn sub_numeric(a: &Value, b: &Value) -> Result<Value> {
    match (a, b) {
        (Value::Int(x), Value::Int(y)) => x
            .checked_sub(*y)
            .map(Value::Int)
            .ok_or_else(|| AggViewError::Exec(format!("SUM retraction overflow ({x} - {y})"))),
        _ => {
            let x = as_number(a, "SUM")?;
            let y = as_number(b, "SUM")?;
            Ok(Value::Float(x - y))
        }
    }
}

fn partial_f64(v: &Value) -> Result<f64> {
    v.as_f64()
        .ok_or_else(|| AggViewError::Exec("non-numeric partial state".into()))
}

fn partial_i64(v: &Value) -> Result<i64> {
    v.as_i64()
        .ok_or_else(|| AggViewError::Exec("non-integer partial count".into()))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(func: AggFunc, vals: &[Value]) -> Value {
        let mut acc = PartialAggState::empty(func);
        for v in vals {
            acc.update(Some(v)).unwrap();
        }
        acc.finalize().unwrap()
    }

    #[test]
    fn count_star() {
        let mut acc = PartialAggState::empty(AggFunc::Count);
        for _ in 0..5 {
            acc.update(None).unwrap();
        }
        assert_eq!(acc.finalize().unwrap(), Value::Int(5));
    }

    #[test]
    fn sum_int_stays_exact() {
        let v = run(AggFunc::Sum, &[Value::Int(1), Value::Int(2), Value::Int(3)]);
        assert_eq!(v, Value::Int(6));
    }

    #[test]
    fn sum_mixed_promotes() {
        let v = run(AggFunc::Sum, &[Value::Int(1), Value::Float(0.5)]);
        assert_eq!(v, Value::Float(1.5));
    }

    #[test]
    fn min_max_over_strings() {
        let vals = [Value::str("pear"), Value::str("apple"), Value::str("fig")];
        assert_eq!(run(AggFunc::Min, &vals), Value::str("apple"));
        assert_eq!(run(AggFunc::Max, &vals), Value::str("pear"));
    }

    #[test]
    fn avg_matches_paper_example_semantics() {
        // avg(sal) over a department's salaries.
        let v = run(
            AggFunc::Avg,
            &[
                Value::Float(100.0),
                Value::Float(200.0),
                Value::Float(300.0),
            ],
        );
        assert_eq!(v, Value::Float(200.0));
    }

    #[test]
    fn stddev_population() {
        let v = run(
            AggFunc::StdDev,
            &[
                Value::Float(2.0),
                Value::Float(4.0),
                Value::Float(4.0),
                Value::Float(4.0),
                Value::Float(5.0),
                Value::Float(5.0),
                Value::Float(7.0),
                Value::Float(9.0),
            ],
        );
        assert_eq!(v, Value::Float(2.0));
    }

    #[test]
    fn empty_group_finalize_errors_for_value_functions() {
        for f in [
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::StdDev,
        ] {
            assert!(PartialAggState::empty(f).finalize().is_err(), "{f}");
        }
        assert_eq!(
            PartialAggState::empty(AggFunc::Count).finalize().unwrap(),
            Value::Int(0)
        );
    }

    /// Core decomposability property: splitting the input arbitrarily,
    /// computing partials, then merging, equals one-shot aggregation.
    #[test]
    fn merge_equals_oneshot_for_every_function() {
        let vals: Vec<Value> = (1..=10).map(|i| Value::Float(i as f64 * 1.5)).collect();
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::StdDev,
        ] {
            for split in 0..=vals.len() {
                let mut a = PartialAggState::empty(f);
                let mut b = PartialAggState::empty(f);
                for v in &vals[..split] {
                    a.update(Some(v)).unwrap();
                }
                for v in &vals[split..] {
                    b.update(Some(v)).unwrap();
                }
                a.merge(&b).unwrap();
                let direct = run(f, &vals);
                let merged = a.finalize().unwrap();
                match (merged.as_f64(), direct.as_f64()) {
                    (Some(x), Some(y)) => assert!((x - y).abs() < 1e-9, "{f} split {split}"),
                    _ => assert_eq!(merged, direct, "{f} split {split}"),
                }
            }
        }
    }

    #[test]
    fn sum_int_overflow_is_an_error_not_a_wrap() {
        let mut acc = PartialAggState::empty(AggFunc::Sum);
        acc.update(Some(&Value::Int(i64::MAX))).unwrap();
        let err = acc.update(Some(&Value::Int(1))).unwrap_err();
        assert_eq!(err.kind(), "exec");
        assert!(err.message().contains("SUM overflow"), "{err}");
    }

    #[test]
    fn count_merge_overflow_is_an_error() {
        let mut a = PartialAggState::empty(AggFunc::Count);
        a.update(None).unwrap();
        let err = a.merge_components(&[Value::Int(i64::MAX)]).unwrap_err();
        assert!(err.message().contains("COUNT overflow"), "{err}");
    }

    #[test]
    fn merge_components_round_trips_through_values() {
        let mut a = PartialAggState::empty(AggFunc::Avg);
        a.update(Some(&Value::Float(10.0))).unwrap();
        let comps: Vec<Value> = a.components().to_vec();
        let mut b = PartialAggState::empty(AggFunc::Avg);
        b.update(Some(&Value::Float(30.0))).unwrap();
        b.merge_components(&comps).unwrap();
        assert_eq!(b.finalize().unwrap(), Value::Float(20.0));
    }

    #[test]
    fn merge_mismatched_functions_rejected() {
        let mut a = PartialAggState::empty(AggFunc::Sum);
        let b = PartialAggState::empty(AggFunc::Avg);
        assert!(a.merge(&b).is_err());
    }

    #[test]
    fn partial_types_and_arity_agree() {
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::StdDev,
        ] {
            let tys = f.partial_types(Some(DataType::Float)).unwrap();
            assert_eq!(tys.len(), f.partial_arity(), "{f}");
            assert!(f.is_decomposable());
        }
    }

    #[test]
    fn output_types() {
        assert_eq!(AggFunc::Count.output_type(None).unwrap(), DataType::Int);
        assert_eq!(
            AggFunc::Sum.output_type(Some(DataType::Int)).unwrap(),
            DataType::Int
        );
        assert_eq!(
            AggFunc::Avg.output_type(Some(DataType::Int)).unwrap(),
            DataType::Float
        );
        assert!(AggFunc::Sum.output_type(Some(DataType::Str)).is_err());
        assert!(AggFunc::Avg.output_type(None).is_err());
        assert_eq!(
            AggFunc::Min.output_type(Some(DataType::Str)).unwrap(),
            DataType::Str
        );
    }

    /// Retraction inverts merge for the additive functions: merging a
    /// partial then retracting the same partial is the identity.
    #[test]
    fn retract_inverts_merge_for_additive_functions() {
        let vals: Vec<Value> = (1..=6).map(Value::Int).collect();
        for f in [AggFunc::Count, AggFunc::Sum, AggFunc::Avg, AggFunc::StdDev] {
            let mut base = PartialAggState::empty(f);
            for v in &vals {
                base.update(Some(v)).unwrap();
            }
            let before = base.clone();
            let mut delta = PartialAggState::empty(f);
            delta.update(Some(&Value::Int(2))).unwrap();
            delta.update(Some(&Value::Int(5))).unwrap();
            base.merge(&delta).unwrap();
            let outcome = base.retract_components(delta.components()).unwrap();
            assert_eq!(outcome, Retraction::Retracted, "{f}");
            assert_eq!(base, before, "{f}");
        }
    }

    #[test]
    fn min_retraction_of_non_extremum_is_exact() {
        let mut s = PartialAggState::empty(AggFunc::Min);
        s.update(Some(&Value::Int(3))).unwrap();
        let mut d = PartialAggState::empty(AggFunc::Min);
        d.update(Some(&Value::Int(7))).unwrap();
        assert_eq!(
            s.retract_components(d.components()).unwrap(),
            Retraction::Retracted
        );
        assert_eq!(s.finalize().unwrap(), Value::Int(3));
    }

    #[test]
    fn minmax_extremum_tie_needs_recompute() {
        for (f, tie) in [(AggFunc::Min, 3i64), (AggFunc::Max, 9i64)] {
            let mut s = PartialAggState::empty(f);
            for v in [3i64, 9] {
                s.update(Some(&Value::Int(v))).unwrap();
            }
            let mut d = PartialAggState::empty(f);
            d.update(Some(&Value::Int(tie))).unwrap();
            assert_eq!(
                s.retract_components(d.components()).unwrap(),
                Retraction::NeedsRecompute,
                "{f}"
            );
            // State is left untouched for the recompute path.
            assert_eq!(
                s.finalize().unwrap(),
                Value::Int(if tie == 3 { 3 } else { 9 })
            );
        }
    }

    #[test]
    fn impossible_retractions_are_errors() {
        // Deleting below a stored MIN, or more rows than COUNT holds,
        // cannot arise from a consistent history.
        let mut m = PartialAggState::empty(AggFunc::Min);
        m.update(Some(&Value::Int(5))).unwrap();
        let mut d = PartialAggState::empty(AggFunc::Min);
        d.update(Some(&Value::Int(1))).unwrap();
        assert!(m.retract_components(d.components()).is_err());

        let mut c = PartialAggState::empty(AggFunc::Count);
        c.update(None).unwrap();
        let err = c.retract_components(&[Value::Int(2)]).unwrap_err();
        assert!(err.message().contains("below zero"), "{err}");
    }

    #[test]
    fn count_component_witnesses_emptiness() {
        let mut c = PartialAggState::empty(AggFunc::Count);
        c.update(None).unwrap();
        assert_eq!(c.count_component(), Some(1));
        let mut a = PartialAggState::empty(AggFunc::Avg);
        a.update(Some(&Value::Int(4))).unwrap();
        assert_eq!(a.count_component(), Some(1));
        let s = PartialAggState::empty(AggFunc::Sum);
        assert_eq!(s.count_component(), None);
    }

    /// Weighted update equals n plain updates for every function, with
    /// exact integer arithmetic where the plain path is exact.
    #[test]
    fn weighted_update_equals_repeated_update() {
        let vals = [Value::Int(3), Value::Float(12.5), Value::Int(-2)];
        for f in [
            AggFunc::Count,
            AggFunc::Sum,
            AggFunc::Min,
            AggFunc::Max,
            AggFunc::Avg,
            AggFunc::StdDev,
        ] {
            for n in [1i64, 2, 7] {
                let mut weighted = PartialAggState::empty(f);
                let mut repeated = PartialAggState::empty(f);
                for v in &vals {
                    let arg = if f == AggFunc::Count { None } else { Some(v) };
                    weighted.update_weighted(arg, n).unwrap();
                    for _ in 0..n {
                        repeated.update(arg).unwrap();
                    }
                }
                assert_eq!(weighted, repeated, "{f} x{n}");
            }
        }
    }

    #[test]
    fn weighted_update_rejects_non_positive_factor_and_overflow() {
        let mut s = PartialAggState::empty(AggFunc::Sum);
        assert!(s.update_weighted(Some(&Value::Int(1)), 0).is_err());
        assert!(s.update_weighted(Some(&Value::Int(1)), -3).is_err());
        let err = s
            .update_weighted(Some(&Value::Int(i64::MAX)), 2)
            .unwrap_err();
        assert!(err.message().contains("SUM overflow"), "{err}");
    }

    #[test]
    fn duplicate_sensitivity_classification() {
        assert!(AggFunc::Count.is_duplicate_sensitive());
        assert!(AggFunc::Sum.is_duplicate_sensitive());
        assert!(AggFunc::Avg.is_duplicate_sensitive());
        assert!(AggFunc::StdDev.is_duplicate_sensitive());
        assert!(!AggFunc::Min.is_duplicate_sensitive());
        assert!(!AggFunc::Max.is_duplicate_sensitive());
    }

    #[test]
    fn agg_spec_display_and_cols() {
        use crate::ids::{Col, RelId};
        let spec = AggSpec::new(AggFunc::Avg, Expr::col(Col::base(RelId(1), 3)));
        assert_eq!(spec.to_string(), "AVG(r1.c3)");
        assert_eq!(spec.cols_used().len(), 1);
        assert_eq!(AggSpec::count_star().to_string(), "COUNT(*)");
        assert!(AggSpec::count_star().cols_used().is_empty());
    }
}
