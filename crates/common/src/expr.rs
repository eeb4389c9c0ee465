//! Scalar expressions over plan columns.
//!
//! Expressions are *symbolic*: they reference [`Col`]s (base or aggregate
//! columns), not tuple positions. Before evaluation they are bound
//! against a concrete operator output layout ([`Expr::bind`]), producing
//! a positional [`BoundExpr`] that evaluates against [`Tuple`]s.

use crate::column::ColumnVec;
use crate::error::{AggViewError, Result};
use crate::ids::Col;
use crate::tuple::Tuple;
use crate::value::{DataType, Value};
use std::collections::BTreeSet;
use std::fmt;
use std::ops::Range;

/// Binary arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BinaryOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl BinaryOp {
    fn symbol(self) -> &'static str {
        match self {
            BinaryOp::Add => "+",
            BinaryOp::Sub => "-",
            BinaryOp::Mul => "*",
            BinaryOp::Div => "/",
        }
    }

    /// The type of `l op r`: arithmetic needs numeric operands, and
    /// division or any float operand makes the result a float.
    pub fn result_type(self, l: DataType, r: DataType) -> Result<DataType> {
        if !l.is_numeric() || !r.is_numeric() {
            return Err(AggViewError::Schema(format!(
                "arithmetic `{}` requires numeric operands, got {l} and {r}",
                self.symbol()
            )));
        }
        if self == BinaryOp::Div || l == DataType::Float || r == DataType::Float {
            Ok(DataType::Float)
        } else {
            Ok(DataType::Int)
        }
    }
}

/// A scalar expression tree.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Expr {
    /// Reference to a data-flow column.
    Col(Col),
    /// Literal constant.
    Const(Value),
    /// Binary arithmetic over numeric operands.
    Binary {
        op: BinaryOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
}

impl Expr {
    /// Column reference expression.
    pub fn col(c: impl Into<Col>) -> Expr {
        Expr::Col(c.into())
    }

    /// Constant expression.
    pub fn val(v: impl Into<Value>) -> Expr {
        Expr::Const(v.into())
    }

    /// `self op other`.
    pub fn binary(self, op: BinaryOp, other: Expr) -> Expr {
        Expr::Binary {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// All columns referenced by this expression.
    pub fn cols_used(&self) -> BTreeSet<Col> {
        let mut out = BTreeSet::new();
        self.for_each_col(&mut |c| {
            out.insert(c);
        });
        out
    }

    /// Call `f` on every column reference, left to right, repeats
    /// included.
    pub fn for_each_col<F: FnMut(Col) + ?Sized>(&self, f: &mut F) {
        match self {
            Expr::Col(c) => f(*c),
            Expr::Const(_) => {}
            Expr::Binary { left, right, .. } => {
                left.for_each_col(f);
                right.for_each_col(f);
            }
        }
    }

    /// True if any referenced column is an aggregate output.
    pub fn uses_agg(&self) -> bool {
        match self {
            Expr::Col(c) => c.is_agg(),
            Expr::Const(_) => false,
            Expr::Binary { left, right, .. } => left.uses_agg() || right.uses_agg(),
        }
    }

    /// Rewrite every column reference through `f` (used when plan
    /// transformations re-home columns).
    pub fn map_cols(&self, f: &impl Fn(Col) -> Col) -> Expr {
        match self {
            Expr::Col(c) => Expr::Col(f(*c)),
            Expr::Const(v) => Expr::Const(v.clone()),
            Expr::Binary { op, left, right } => Expr::Binary {
                op: *op,
                left: Box::new(left.map_cols(f)),
                right: Box::new(right.map_cols(f)),
            },
        }
    }

    /// Static result type given the types of referenced columns.
    ///
    /// Arithmetic requires numeric operands; `Int op Int` stays `Int`
    /// except division, which is `Float` (SQL-style `avg` semantics are
    /// handled by the aggregate layer, not here).
    pub fn data_type(&self, col_type: &impl Fn(Col) -> DataType) -> Result<DataType> {
        match self {
            Expr::Col(c) => Ok(col_type(*c)),
            Expr::Const(v) => Ok(v.data_type()),
            Expr::Binary { op, left, right } => {
                op.result_type(left.data_type(col_type)?, right.data_type(col_type)?)
            }
        }
    }

    /// Bind symbolic column references to tuple positions.
    ///
    /// `layout` maps a column to its position in the tuple the bound
    /// expression will be evaluated against; unknown columns are a plan
    /// error (the paper's "legal operator tree" condition).
    pub fn bind(&self, layout: &impl Fn(Col) -> Option<usize>) -> Result<BoundExpr> {
        match self {
            Expr::Col(c) => layout(*c)
                .map(BoundExpr::Col)
                .ok_or_else(|| AggViewError::Plan(format!("column {c} not available in input"))),
            Expr::Const(v) => Ok(BoundExpr::Const(v.clone())),
            Expr::Binary { op, left, right } => Ok(BoundExpr::Binary {
                op: *op,
                left: Box::new(left.bind(layout)?),
                right: Box::new(right.bind(layout)?),
            }),
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Col(c) => c.fmt(f),
            Expr::Const(v) => v.fmt(f),
            Expr::Binary { op, left, right } => {
                write!(f, "({} {} {})", left, op.symbol(), right)
            }
        }
    }
}

/// An expression with column references resolved to tuple positions.
#[derive(Debug, Clone, PartialEq)]
pub enum BoundExpr {
    Col(usize),
    Const(Value),
    Binary {
        op: BinaryOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
}

impl BoundExpr {
    /// Evaluate against a tuple.
    pub fn eval(&self, t: &Tuple) -> Result<Value> {
        match self {
            BoundExpr::Col(i) => Ok(t.get(*i).clone()),
            BoundExpr::Const(v) => Ok(v.clone()),
            BoundExpr::Binary { op, left, right } => {
                let l = left.eval(t)?;
                let r = right.eval(t)?;
                eval_binary(*op, &l, &r)
            }
        }
    }

    /// Evaluate with an arbitrary position-to-value accessor.
    ///
    /// Lets operators evaluate bound expressions against rows that are
    /// not materialized as a single [`Tuple`] — a column-major batch
    /// row, or the virtual concatenation of a build and a probe tuple —
    /// with identical semantics and error messages to [`eval`](Self::eval).
    pub fn eval_with(&self, get: &impl Fn(usize) -> Value) -> Result<Value> {
        match self {
            BoundExpr::Col(i) => Ok(get(*i)),
            BoundExpr::Const(v) => Ok(v.clone()),
            BoundExpr::Binary { op, left, right } => {
                let l = left.eval_with(get)?;
                let r = right.eval_with(get)?;
                eval_binary(*op, &l, &r)
            }
        }
    }
}

/// A numeric column computed by [`BoundExpr::eval_columns`].
#[derive(Debug, Clone, PartialEq)]
pub enum NumColumn {
    Int(Vec<i64>),
    Float(Vec<f64>),
}

impl NumColumn {
    fn into_f64(self) -> Vec<f64> {
        match self {
            NumColumn::Int(xs) => xs.into_iter().map(|x| x as f64).collect(),
            NumColumn::Float(xs) => xs,
        }
    }
}

impl BoundExpr {
    /// The type of column [`eval_columns`](Self::eval_columns) computes
    /// over `col`'s columns — `None` when some leaf is not a typed
    /// `Int`/`Float` column or numeric constant, and the expression has
    /// to be evaluated row by row through [`Value`]s instead.
    pub fn numeric_type<'c>(&self, col: &impl Fn(usize) -> &'c ColumnVec) -> Option<DataType> {
        match self {
            BoundExpr::Col(i) => match col(*i) {
                ColumnVec::Int(_) => Some(DataType::Int),
                ColumnVec::Float(_) => Some(DataType::Float),
                _ => None,
            },
            BoundExpr::Const(v) => Some(v.data_type()).filter(|t| t.is_numeric()),
            BoundExpr::Binary { op, left, right } => {
                let (l, r) = (left.numeric_type(col)?, right.numeric_type(col)?);
                let int = *op != BinaryOp::Div && l == DataType::Int && r == DataType::Int;
                Some(if int { DataType::Int } else { DataType::Float })
            }
        }
    }

    /// Evaluate over rows `rows` of typed columns, a column at a time:
    /// the values [`eval_with`](Self::eval_with) computes row by row,
    /// with its errors and messages. Evaluation is operand-major, so when
    /// several rows fail, the error surfaced may belong to another row
    /// than the row-major loop would report first. Callers check
    /// [`numeric_type`](Self::numeric_type) first; a leaf it would refuse
    /// is an execution error here.
    pub fn eval_columns<'c>(
        &self,
        col: &impl Fn(usize) -> &'c ColumnVec,
        rows: Range<usize>,
    ) -> Result<NumColumn> {
        match self {
            BoundExpr::Col(i) => match col(*i) {
                ColumnVec::Int(xs) => Ok(NumColumn::Int(xs[rows].to_vec())),
                ColumnVec::Float(xs) => Ok(NumColumn::Float(xs[rows].to_vec())),
                _ => Err(AggViewError::Exec(format!(
                    "column {i} is not a typed numeric column"
                ))),
            },
            BoundExpr::Const(Value::Int(k)) => Ok(NumColumn::Int(vec![*k; rows.len()])),
            BoundExpr::Const(Value::Float(k)) => Ok(NumColumn::Float(vec![*k; rows.len()])),
            BoundExpr::Const(v) => Err(AggViewError::Exec(format!(
                "arithmetic on non-numeric value {v}"
            ))),
            BoundExpr::Binary { op, left, right } => {
                let l = left.eval_columns(col, rows.clone())?;
                let r = right.eval_columns(col, rows)?;
                match (l, r) {
                    (NumColumn::Int(a), NumColumn::Int(b)) if *op == BinaryOp::Div => {
                        let out = a.iter().zip(&b).map(|(&a, &b)| int_div(a, b));
                        Ok(NumColumn::Float(out.collect::<Result<_>>()?))
                    }
                    (NumColumn::Int(a), NumColumn::Int(b)) => {
                        let out = a.iter().zip(&b).map(|(&a, &b)| int_arith(*op, a, b));
                        Ok(NumColumn::Int(out.collect::<Result<_>>()?))
                    }
                    (l, r) => {
                        let (a, b) = (l.into_f64(), r.into_f64());
                        let out = a.iter().zip(&b).map(|(&a, &b)| float_arith(*op, a, b));
                        Ok(NumColumn::Float(out.collect::<Result<_>>()?))
                    }
                }
            }
        }
    }
}

/// Integer arithmetic stays exact except division ([`int_div`]);
/// overflow is an execution error rather than a silently wrapped result.
fn int_arith(op: BinaryOp, a: i64, b: i64) -> Result<i64> {
    match op {
        BinaryOp::Add => a.checked_add(b),
        BinaryOp::Sub => a.checked_sub(b),
        BinaryOp::Mul => a.checked_mul(b),
        BinaryOp::Div => None,
    }
    .ok_or_else(|| AggViewError::Exec(format!("integer overflow ({a} {} {b})", op.symbol())))
}

fn int_div(a: i64, b: i64) -> Result<f64> {
    if b == 0 {
        Err(AggViewError::Exec("division by zero".into()))
    } else {
        Ok(a as f64 / b as f64)
    }
}

fn float_arith(op: BinaryOp, a: f64, b: f64) -> Result<f64> {
    match op {
        BinaryOp::Add => Ok(a + b),
        BinaryOp::Sub => Ok(a - b),
        BinaryOp::Mul => Ok(a * b),
        BinaryOp::Div if b == 0.0 => Err(AggViewError::Exec("division by zero".into())),
        BinaryOp::Div => Ok(a / b),
    }
}

/// `l op r` with SQL's scalar arithmetic, the only copy of it: `Int op
/// Int` is an `Int` (overflow is an error) except `/`, which is a
/// `Float`; any `Float` operand makes a `Float`; division by zero is an
/// error. The column kernel ([`BoundExpr::eval_columns`]) computes the
/// same values through the same helpers.
pub fn eval_binary(op: BinaryOp, l: &Value, r: &Value) -> Result<Value> {
    if let (Some(a), Some(b)) = (l.as_i64(), r.as_i64()) {
        return match op {
            BinaryOp::Div => int_div(a, b).map(Value::Float),
            _ => int_arith(op, a, b).map(Value::Int),
        };
    }
    match (l.as_f64(), r.as_f64()) {
        (Some(a), Some(b)) => float_arith(op, a, b).map(Value::Float),
        _ => Err(AggViewError::Exec(format!(
            "arithmetic on non-numeric values {l} and {r}"
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{RelId, ViewId};
    use crate::tuple;

    fn c0() -> Expr {
        Expr::col(Col::base(RelId(0), 0))
    }
    fn c1() -> Expr {
        Expr::col(Col::base(RelId(1), 1))
    }

    #[test]
    fn cols_and_rels_used() {
        let e = c0().binary(BinaryOp::Add, c1().binary(BinaryOp::Mul, Expr::val(2i64)));
        assert_eq!(e.cols_used().len(), 2);
        let rels: Vec<RelId> = e
            .cols_used()
            .iter()
            .filter_map(|c| Some(c.as_base()?.rel))
            .collect();
        assert_eq!(rels, [RelId(0), RelId(1)]);
        assert!(!e.uses_agg());
        let a = Expr::col(Col::agg(ViewId::View(0), 0));
        assert!(a.uses_agg());
        assert!(a.cols_used().iter().all(|c| c.as_base().is_none()));
    }

    #[test]
    fn bind_and_eval_arithmetic() {
        let e = c0().binary(BinaryOp::Add, Expr::val(10i64));
        let layout = |c: Col| match c {
            Col::Base(b) if b.rel == RelId(0) && b.col == 0 => Some(1),
            _ => None,
        };
        let b = e.bind(&layout).unwrap();
        let v = b.eval(&tuple!["ignored", 5i64]).unwrap();
        assert_eq!(v, Value::Int(15));
    }

    #[test]
    fn bind_fails_on_missing_column() {
        let e = c0();
        let err = e.bind(&|_| None).unwrap_err();
        assert_eq!(err.kind(), "plan");
    }

    #[test]
    fn int_division_is_float_and_checked() {
        let e = Expr::val(7i64).binary(BinaryOp::Div, Expr::val(2i64));
        let v = e.bind(&|_| None).unwrap().eval(&tuple![]).unwrap();
        assert_eq!(v, Value::Float(3.5));
        let z = Expr::val(1i64).binary(BinaryOp::Div, Expr::val(0i64));
        assert!(z.bind(&|_| None).unwrap().eval(&tuple![]).is_err());
    }

    #[test]
    fn mixed_arithmetic_promotes_to_float() {
        let e = Expr::val(2i64).binary(BinaryOp::Mul, Expr::val(1.5f64));
        let v = e.bind(&|_| None).unwrap().eval(&tuple![]).unwrap();
        assert_eq!(v, Value::Float(3.0));
    }

    #[test]
    fn column_evaluation_matches_row_evaluation() {
        let cols = [
            ColumnVec::Int(vec![1, 2, 3, i64::MAX]),
            ColumnVec::Float(vec![0.5, -0.0, 2.0, 4.0]),
            ColumnVec::Int(vec![2, 0, 5, 1]),
        ];
        let col = |i: usize| &cols[i];
        let c = |i| Box::new(BoundExpr::Col(i));
        let bin = |op, left, right| BoundExpr::Binary { op, left, right };
        let k = |v: Value| Box::new(BoundExpr::Const(v));
        let exprs = [
            bin(BinaryOp::Add, c(0), c(2)),
            bin(BinaryOp::Mul, c(0), c(1)),
            bin(BinaryOp::Div, c(0), c(2)),
            bin(BinaryOp::Sub, c(1), k(Value::Int(1))),
            bin(BinaryOp::Div, k(Value::Float(1.0)), c(1)),
            bin(
                BinaryOp::Mul,
                Box::new(bin(BinaryOp::Add, c(0), k(Value::Int(1)))),
                c(2),
            ),
        ];
        for e in &exprs {
            let ty = e.numeric_type(&col).unwrap();
            for rows in [0..1, 0..3, 1..2, 2..4, 0..4] {
                let by_row: Result<Vec<Value>> = rows
                    .clone()
                    .map(|r| e.eval_with(&|i| cols[i].value_at(r)))
                    .collect();
                match (e.eval_columns(&col, rows.clone()), by_row) {
                    (Ok(NumColumn::Int(xs)), Ok(want)) => {
                        assert_eq!(ty, DataType::Int);
                        assert_eq!(xs.into_iter().map(Value::Int).collect::<Vec<_>>(), want);
                    }
                    (Ok(NumColumn::Float(xs)), Ok(want)) => {
                        assert_eq!(ty, DataType::Float);
                        let bits = |v: &Value| v.as_f64().unwrap().to_bits();
                        assert!(want.iter().all(|v| v.data_type() == DataType::Float));
                        assert_eq!(
                            xs.iter().map(|x| x.to_bits()).collect::<Vec<_>>(),
                            want.iter().map(bits).collect::<Vec<_>>()
                        );
                    }
                    // One failing row per expression and range here, so
                    // both orders surface the same message.
                    (Err(a), Err(b)) => assert_eq!(a.to_string(), b.to_string()),
                    (a, b) => panic!("{e:?} over {rows:?}: {a:?} vs {b:?}"),
                }
            }
        }
        // Strings and booleans are not evaluated column-wise.
        let s = ColumnVec::with_type(DataType::Str);
        assert!(BoundExpr::Col(0).numeric_type(&|_| &s).is_none());
        assert!(BoundExpr::Const(Value::Bool(true))
            .numeric_type(&col)
            .is_none());
    }

    #[test]
    fn type_inference() {
        let ct = |_: Col| DataType::Int;
        assert_eq!(
            c0().binary(BinaryOp::Add, c1()).data_type(&ct).unwrap(),
            DataType::Int
        );
        assert_eq!(
            c0().binary(BinaryOp::Div, c1()).data_type(&ct).unwrap(),
            DataType::Float
        );
        let st = |_: Col| DataType::Str;
        assert!(c0().binary(BinaryOp::Add, c1()).data_type(&st).is_err());
    }

    #[test]
    fn map_cols_rewrites_references() {
        let e = c0().binary(BinaryOp::Sub, c1());
        let shifted = e.map_cols(&|c| match c {
            Col::Base(b) => Col::base(RelId(b.rel.0 + 10), b.col as usize),
            other => other,
        });
        let cols = shifted.cols_used();
        let rels: Vec<RelId> = cols.iter().filter_map(|c| Some(c.as_base()?.rel)).collect();
        assert_eq!(rels, [RelId(10), RelId(11)]);
    }

    #[test]
    fn arithmetic_on_strings_fails_at_eval() {
        let e = Expr::val("a").binary(BinaryOp::Add, Expr::val("b"));
        assert!(e.bind(&|_| None).unwrap().eval(&tuple![]).is_err());
    }

    #[test]
    fn display_is_parenthesized() {
        let e = c0().binary(BinaryOp::Add, Expr::val(1i64));
        assert_eq!(e.to_string(), "(r0.c0 + 1)");
    }
}
