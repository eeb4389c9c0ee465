//! Comparison predicates.
//!
//! Queries are conjunctions of simple comparison predicates
//! (`Vec<Predicate>`), matching the paper's `cond1 and ... and condn`
//! WHERE shape and `agg_cond1 and ... and agg_condk` HAVING shape.
//! A predicate that references an aggregated column can only be evaluated
//! at or above the group-by that computes the aggregate — this is exactly
//! the constraint the pull-up transformation manages by moving such
//! predicates into the deferred group-by's HAVING clause (Definition 1,
//! item 4).

use crate::error::Result;
use crate::expr::{BoundExpr, Expr};
use crate::ids::Col;
use crate::tuple::Tuple;
use std::cmp::Ordering;
use std::collections::BTreeSet;
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its operand sides swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Apply the comparison to an ordering result.
    pub fn matches(self, ord: Ordering) -> bool {
        match self {
            CmpOp::Eq => ord == Ordering::Equal,
            CmpOp::Ne => ord != Ordering::Equal,
            CmpOp::Lt => ord == Ordering::Less,
            CmpOp::Le => ord != Ordering::Greater,
            CmpOp::Gt => ord == Ordering::Greater,
            CmpOp::Ge => ord != Ordering::Less,
        }
    }

    /// Default selectivity guess used by the cost model when no
    /// statistics apply (System-R style constants).
    pub fn default_selectivity(self) -> f64 {
        match self {
            CmpOp::Eq => 0.1,
            CmpOp::Ne => 0.9,
            _ => 1.0 / 3.0,
        }
    }

    fn symbol(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Ne => "<>",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }
}

impl fmt::Display for CmpOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.symbol())
    }
}

/// A single comparison predicate `left op right`.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct Predicate {
    pub left: Expr,
    pub op: CmpOp,
    pub right: Expr,
}

impl Predicate {
    pub fn new(left: Expr, op: CmpOp, right: Expr) -> Predicate {
        Predicate { left, op, right }
    }

    /// `col op constant` selection predicate.
    pub fn cmp_const(col: impl Into<Col>, op: CmpOp, v: impl Into<crate::Value>) -> Predicate {
        Predicate::new(Expr::col(col.into()), op, Expr::val(v))
    }

    /// Equality between two columns (the common equijoin predicate).
    pub fn eq_cols(a: impl Into<Col>, b: impl Into<Col>) -> Predicate {
        Predicate::new(Expr::col(a.into()), CmpOp::Eq, Expr::col(b.into()))
    }

    /// All columns referenced on either side.
    pub fn cols_used(&self) -> BTreeSet<Col> {
        let mut out = BTreeSet::new();
        self.for_each_col(&mut |c| {
            out.insert(c);
        });
        out
    }

    /// Call `f` on every column reference, left side first, repeats
    /// included.
    pub fn for_each_col<F: FnMut(Col) + ?Sized>(&self, f: &mut F) {
        self.left.for_each_col(f);
        self.right.for_each_col(f);
    }

    /// True if the predicate reads any aggregated column.
    ///
    /// Such predicates "need to be deferred since an aggregation can take
    /// place only when the group-by is executed" (paper, Section 3).
    pub fn uses_agg(&self) -> bool {
        self.left.uses_agg() || self.right.uses_agg()
    }

    /// If this is a bare column-equals-column predicate, return the pair.
    pub fn as_col_eq_col(&self) -> Option<(Col, Col)> {
        if self.op != CmpOp::Eq {
            return None;
        }
        match (&self.left, &self.right) {
            (Expr::Col(a), Expr::Col(b)) => Some((*a, *b)),
            _ => None,
        }
    }

    /// Rewrite column references through `f`.
    pub fn map_cols(&self, f: &impl Fn(Col) -> Col) -> Predicate {
        Predicate {
            left: self.left.map_cols(f),
            op: self.op,
            right: self.right.map_cols(f),
        }
    }

    /// Bind both sides against a tuple layout.
    pub fn bind(&self, layout: &impl Fn(Col) -> Option<usize>) -> Result<BoundPredicate> {
        Ok(BoundPredicate {
            left: self.left.bind(layout)?,
            op: self.op,
            right: self.right.bind(layout)?,
        })
    }
}

impl fmt::Display for Predicate {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// A predicate with column references resolved to tuple positions.
#[derive(Debug, Clone, PartialEq)]
pub struct BoundPredicate {
    pub left: BoundExpr,
    pub op: CmpOp,
    pub right: BoundExpr,
}

impl BoundPredicate {
    /// Evaluate against a tuple. Incomparable operands (e.g. string vs
    /// int) are an execution error — the binder prevents this for
    /// well-typed queries.
    ///
    /// The common shapes (column/constant on both sides) compare by
    /// reference without cloning either operand; only nested arithmetic
    /// takes the materializing path.
    pub fn eval(&self, t: &Tuple) -> Result<bool> {
        let (l, r): (&crate::Value, &crate::Value) = match (&self.left, &self.right) {
            (BoundExpr::Col(i), BoundExpr::Col(j)) => (t.get(*i), t.get(*j)),
            (BoundExpr::Col(i), BoundExpr::Const(v)) => (t.get(*i), v),
            (BoundExpr::Const(v), BoundExpr::Col(j)) => (v, t.get(*j)),
            (BoundExpr::Const(a), BoundExpr::Const(b)) => (a, b),
            _ => {
                let l = self.left.eval(t)?;
                let r = self.right.eval(t)?;
                return self.cmp_values(&l, &r);
            }
        };
        self.cmp_values(l, r)
    }

    /// Evaluate with an arbitrary position-to-value accessor (batch rows
    /// that are not materialized as tuples). Semantics and error
    /// messages match [`eval`](Self::eval).
    pub fn eval_with(&self, get: &impl Fn(usize) -> crate::Value) -> Result<bool> {
        let l = self.left.eval_with(get)?;
        let r = self.right.eval_with(get)?;
        self.cmp_values(&l, &r)
    }

    fn cmp_values(&self, l: &crate::Value, r: &crate::Value) -> Result<bool> {
        match l.try_cmp(r) {
            Some(ord) => Ok(self.op.matches(ord)),
            None => Err(crate::AggViewError::Exec(format!(
                "cannot compare {l} {} {r}",
                self.op
            ))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ids::{RelId, ViewId};
    use crate::tuple;
    use crate::value::Value;

    #[test]
    fn flipped_round_trips() {
        for op in [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ] {
            assert_eq!(op.flipped().flipped(), op);
        }
        assert_eq!(CmpOp::Lt.flipped(), CmpOp::Gt);
    }

    #[test]
    fn matches_orderings() {
        assert!(CmpOp::Le.matches(Ordering::Equal));
        assert!(CmpOp::Le.matches(Ordering::Less));
        assert!(!CmpOp::Le.matches(Ordering::Greater));
        assert!(CmpOp::Ne.matches(Ordering::Less));
        assert!(!CmpOp::Eq.matches(Ordering::Less));
    }

    #[test]
    fn join_predicate_classification() {
        let p = Predicate::eq_cols(Col::base(RelId(0), 2), Col::base(RelId(1), 0));
        assert_eq!(p.cols_used().len(), 2);
        assert!(!p.uses_agg());
        let (a, b) = p.as_col_eq_col().unwrap();
        assert_eq!(a, Col::base(RelId(0), 2));
        assert_eq!(b, Col::base(RelId(1), 0));
    }

    #[test]
    fn having_predicate_uses_agg() {
        // e1.sal > avg(e2.sal) — the paper's Example 1 comparison.
        let p = Predicate::new(
            Expr::col(Col::base(RelId(0), 3)),
            CmpOp::Gt,
            Expr::col(Col::agg(ViewId::View(0), 0)),
        );
        assert!(p.uses_agg());
        assert!(p.as_col_eq_col().is_none());
    }

    #[test]
    fn eval_selection() {
        // age < 22
        let p = Predicate::cmp_const(Col::base(RelId(0), 0), CmpOp::Lt, 22i64);
        let b = p
            .bind(&|c| match c {
                Col::Base(cr) if cr.col == 0 => Some(0),
                _ => None,
            })
            .unwrap();
        assert!(b.eval(&tuple![21i64]).unwrap());
        assert!(!b.eval(&tuple![22i64]).unwrap());
    }

    #[test]
    fn incomparable_types_error() {
        let p = Predicate::new(Expr::val("x"), CmpOp::Lt, Expr::val(3i64));
        let b = p.bind(&|_| None).unwrap();
        assert!(b.eval(&tuple![]).is_err());
    }

    #[test]
    fn numeric_cross_type_comparison_works() {
        let p = Predicate::new(Expr::val(3i64), CmpOp::Eq, Expr::val(3.0f64));
        assert!(p.bind(&|_| None).unwrap().eval(&tuple![]).unwrap());
    }

    #[test]
    fn display() {
        let p = Predicate::cmp_const(Col::base(RelId(1), 4), CmpOp::Ge, Value::Float(1e6));
        assert_eq!(p.to_string(), "r1.c4 >= 1000000");
    }

    #[test]
    fn default_selectivities_are_sane() {
        assert!(CmpOp::Eq.default_selectivity() < CmpOp::Lt.default_selectivity());
        assert!(CmpOp::Ne.default_selectivity() > 0.5);
    }
}
