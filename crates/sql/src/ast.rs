//! Abstract syntax for the supported SQL subset.

use aggview_common::{AggFunc, BinaryOp, CmpOp, Value};
use std::fmt;

/// A scalar expression, possibly containing aggregates or a scalar
/// subquery.
#[derive(Debug, Clone, PartialEq)]
pub enum AstExpr {
    /// `[table.]column`
    Col {
        qualifier: Option<String>,
        name: String,
    },
    /// Literal.
    Lit(Value),
    /// Arithmetic.
    Binary {
        op: BinaryOp,
        left: Box<AstExpr>,
        right: Box<AstExpr>,
    },
    /// Aggregate call; `arg = None` is COUNT(*).
    Agg {
        func: AggFunc,
        arg: Option<Box<AstExpr>>,
    },
    /// Scalar aggregate subquery `(SELECT agg(...) FROM ... WHERE ...)`.
    Subquery(Box<SelectStmt>),
}

impl AstExpr {
    pub fn col(name: &str) -> AstExpr {
        AstExpr::Col {
            qualifier: None,
            name: name.to_string(),
        }
    }

    /// Does the expression contain an aggregate call?
    pub fn has_agg(&self) -> bool {
        match self {
            AstExpr::Agg { .. } => true,
            AstExpr::Binary { left, right, .. } => left.has_agg() || right.has_agg(),
            _ => false,
        }
    }

    /// Does the expression contain a subquery?
    pub fn has_subquery(&self) -> bool {
        match self {
            AstExpr::Subquery(_) => true,
            AstExpr::Binary { left, right, .. } => left.has_subquery() || right.has_subquery(),
            _ => false,
        }
    }
}

impl fmt::Display for AstExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            AstExpr::Col { qualifier, name } => match qualifier {
                Some(q) => write!(f, "{q}.{name}"),
                None => write!(f, "{name}"),
            },
            AstExpr::Lit(v) => write!(f, "{v}"),
            AstExpr::Binary { op, left, right } => {
                let sym = match op {
                    BinaryOp::Add => "+",
                    BinaryOp::Sub => "-",
                    BinaryOp::Mul => "*",
                    BinaryOp::Div => "/",
                };
                write!(f, "({left} {sym} {right})")
            }
            AstExpr::Agg { func, arg } => match arg {
                Some(a) => write!(f, "{func}({a})"),
                None => write!(f, "{func}(*)"),
            },
            AstExpr::Subquery(_) => f.write_str("(<subquery>)"),
        }
    }
}

/// A comparison predicate.
#[derive(Debug, Clone, PartialEq)]
pub struct AstPred {
    pub left: AstExpr,
    pub op: CmpOp,
    pub right: AstExpr,
}

impl fmt::Display for AstPred {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} {}", self.left, self.op, self.right)
    }
}

/// One SELECT-list entry.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectItem {
    pub expr: AstExpr,
    pub alias: Option<String>,
}

/// One FROM-list entry: a base table or view, with optional alias.
#[derive(Debug, Clone, PartialEq)]
pub struct FromItem {
    pub name: String,
    pub alias: Option<String>,
}

impl FromItem {
    /// The name this item is referred to by in the rest of the query.
    pub fn binding_name(&self) -> &str {
        self.alias.as_deref().unwrap_or(&self.name)
    }
}

/// One `ORDER BY` key: an output column by alias or name, or a
/// qualified column `q.col` the select list carries.
#[derive(Debug, Clone, PartialEq)]
pub struct OrderKey {
    pub qualifier: Option<String>,
    pub name: String,
    pub desc: bool,
}

impl fmt::Display for OrderKey {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.qualifier {
            Some(q) => write!(f, "{q}.{}", self.name),
            None => f.write_str(&self.name),
        }
    }
}

/// A SELECT statement.
#[derive(Debug, Clone, PartialEq)]
pub struct SelectStmt {
    pub items: Vec<SelectItem>,
    pub from: Vec<FromItem>,
    pub where_preds: Vec<AstPred>,
    pub group_by: Vec<AstExpr>,
    pub having: Vec<AstPred>,
    /// `ORDER BY <key> [ASC|DESC], ...`.
    pub order_by: Vec<OrderKey>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
}

/// A top-level statement.
#[derive(Debug, Clone, PartialEq)]
pub enum Stmt {
    Select(SelectStmt),
    /// `CREATE VIEW name[(col, ...)] AS select`
    CreateView {
        name: String,
        columns: Option<Vec<String>>,
        query: SelectStmt,
    },
    /// `CREATE MATERIALIZED VIEW name[(col, ...)] AS select` — like a
    /// view, but its extent is computed and stored in the catalog.
    CreateMaterializedView {
        name: String,
        columns: Option<Vec<String>>,
        query: SelectStmt,
    },
    /// `INSERT INTO table VALUES (expr, ...), ...` — each value a scalar
    /// over no columns (literals and arithmetic on them).
    Insert {
        table: String,
        rows: Vec<Vec<AstExpr>>,
    },
    /// `REFRESH MATERIALIZED VIEW name` — rebuild the extent from
    /// scratch.
    RefreshMaterializedView {
        name: String,
    },
    /// `UPDATE table SET col = expr, ... [WHERE pred AND ...]` —
    /// single-table; SET expressions are evaluated against the *old*
    /// row (`SET sal = sal * 1.1` works), aggregates and subqueries are
    /// rejected at bind time.
    Update {
        table: String,
        sets: Vec<(String, AstExpr)>,
        preds: Vec<AstPred>,
    },
    /// `DELETE FROM table [WHERE pred AND ...]` — single-table.
    Delete {
        table: String,
        preds: Vec<AstPred>,
    },
    /// `EXPLAIN VERIFY select` — optimize the query and run the static
    /// plan-integrity analyzer over the chosen plan, without executing.
    ExplainVerify(SelectStmt),
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn has_agg_walks_arithmetic() {
        let e = AstExpr::Binary {
            op: BinaryOp::Add,
            left: Box::new(AstExpr::col("x")),
            right: Box::new(AstExpr::Agg {
                func: AggFunc::Sum,
                arg: Some(Box::new(AstExpr::col("y"))),
            }),
        };
        assert!(e.has_agg());
        assert!(!AstExpr::col("x").has_agg());
    }

    #[test]
    fn binding_name_prefers_alias() {
        let f = FromItem {
            name: "emp".into(),
            alias: Some("e1".into()),
        };
        assert_eq!(f.binding_name(), "e1");
        let g = FromItem {
            name: "dept".into(),
            alias: None,
        };
        assert_eq!(g.binding_name(), "dept");
    }

    #[test]
    fn display_forms() {
        let qualified = AstExpr::Col {
            qualifier: Some("e".into()),
            name: "sal".into(),
        };
        assert_eq!(qualified.to_string(), "e.sal");
        let p = AstPred {
            left: AstExpr::col("age"),
            op: CmpOp::Lt,
            right: AstExpr::Lit(Value::Int(22)),
        };
        assert_eq!(p.to_string(), "age < 22");
    }
}
