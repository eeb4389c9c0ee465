//! Recursive-descent parser.

use crate::ast::{AstExpr, AstPred, FromItem, OrderKey, SelectItem, SelectStmt, Stmt};
use crate::lexer::{tokenize, Token};
use aggview_common::{AggFunc, AggViewError, BinaryOp, CmpOp, Result, Value};

/// Parse one statement (`SELECT ...` or `CREATE VIEW ...`); a trailing
/// semicolon is allowed.
pub fn parse(sql: &str) -> Result<Stmt> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let stmt = p.statement()?;
    p.eat_semi();
    p.expect_eof()?;
    Ok(stmt)
}

/// Parse a script of semicolon-separated statements.
pub fn parse_script(sql: &str) -> Result<Vec<Stmt>> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let mut out = Vec::new();
    while !p.at_eof() {
        out.push(p.statement()?);
        p.eat_semi();
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_eof(&self) -> bool {
        self.pos >= self.tokens.len()
    }

    fn eat_semi(&mut self) {
        while matches!(self.peek(), Some(Token::Semicolon)) {
            self.pos += 1;
        }
    }

    fn expect_eof(&self) -> Result<()> {
        if self.at_eof() {
            Ok(())
        } else {
            Err(AggViewError::Parse(format!(
                "unexpected trailing token `{}`",
                self.tokens[self.pos]
            )))
        }
    }

    fn kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.kw(kw) {
            Ok(())
        } else {
            Err(AggViewError::Parse(format!(
                "expected `{kw}`, found `{}`",
                self.peek()
                    .map(ToString::to_string)
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn expect(&mut self, t: &Token) -> Result<()> {
        if self.peek() == Some(t) {
            self.pos += 1;
            Ok(())
        } else {
            Err(AggViewError::Parse(format!(
                "expected `{t}`, found `{}`",
                self.peek()
                    .map(ToString::to_string)
                    .unwrap_or_else(|| "end of input".into())
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s),
            other => Err(AggViewError::Parse(format!(
                "expected identifier, found `{}`",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }

    fn statement(&mut self) -> Result<Stmt> {
        if self.peek().is_some_and(|t| t.is_kw("create")) {
            self.create_view()
        } else if self.peek().is_some_and(|t| t.is_kw("insert")) {
            self.insert()
        } else if self.peek().is_some_and(|t| t.is_kw("refresh")) {
            self.expect_kw("refresh")?;
            self.expect_kw("materialized")?;
            self.expect_kw("view")?;
            let name = self.ident()?;
            Ok(Stmt::RefreshMaterializedView { name })
        } else if self.peek().is_some_and(|t| t.is_kw("update")) {
            self.update()
        } else if self.peek().is_some_and(|t| t.is_kw("delete")) {
            self.delete()
        } else if self.peek().is_some_and(|t| t.is_kw("explain")) {
            self.expect_kw("explain")?;
            self.expect_kw("verify")?;
            Ok(Stmt::ExplainVerify(self.select()?))
        } else {
            Ok(Stmt::Select(self.select()?))
        }
    }

    fn create_view(&mut self) -> Result<Stmt> {
        self.expect_kw("create")?;
        let materialized = self.kw("materialized");
        self.expect_kw("view")?;
        let name = self.ident()?;
        let columns = if self.peek() == Some(&Token::LParen) {
            self.pos += 1;
            let mut cols = vec![self.ident()?];
            while self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                cols.push(self.ident()?);
            }
            self.expect(&Token::RParen)?;
            Some(cols)
        } else {
            None
        };
        self.expect_kw("as")?;
        let query = self.select()?;
        Ok(if materialized {
            Stmt::CreateMaterializedView {
                name,
                columns,
                query,
            }
        } else {
            Stmt::CreateView {
                name,
                columns,
                query,
            }
        })
    }

    fn insert(&mut self) -> Result<Stmt> {
        self.expect_kw("insert")?;
        self.expect_kw("into")?;
        let table = self.ident()?;
        self.expect_kw("values")?;
        let mut rows = vec![self.value_row()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            rows.push(self.value_row()?);
        }
        Ok(Stmt::Insert { table, rows })
    }

    fn update(&mut self) -> Result<Stmt> {
        self.expect_kw("update")?;
        let table = self.ident()?;
        self.expect_kw("set")?;
        let mut sets = vec![self.set_item()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            sets.push(self.set_item()?);
        }
        Ok(Stmt::Update {
            table,
            sets,
            preds: self.opt_where()?,
        })
    }

    fn set_item(&mut self) -> Result<(String, AstExpr)> {
        let col = self.ident()?;
        self.expect(&Token::Eq)?;
        Ok((col, self.expr()?))
    }

    fn delete(&mut self) -> Result<Stmt> {
        self.expect_kw("delete")?;
        self.expect_kw("from")?;
        let table = self.ident()?;
        Ok(Stmt::Delete {
            table,
            preds: self.opt_where()?,
        })
    }

    fn opt_where(&mut self) -> Result<Vec<AstPred>> {
        let mut preds = Vec::new();
        if self.kw("where") {
            preds.push(self.predicate()?);
            while self.kw("and") {
                preds.push(self.predicate()?);
            }
        }
        Ok(preds)
    }

    fn value_row(&mut self) -> Result<Vec<AstExpr>> {
        self.expect(&Token::LParen)?;
        let mut vals = vec![self.expr()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            vals.push(self.expr()?);
        }
        self.expect(&Token::RParen)?;
        Ok(vals)
    }

    fn select(&mut self) -> Result<SelectStmt> {
        self.expect_kw("select")?;
        let _ = self.kw("all") || self.kw("distinct"); // tolerated, no-op
        let mut items = vec![self.select_item()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let mut from = vec![self.from_item()?];
        while self.peek() == Some(&Token::Comma) {
            self.pos += 1;
            from.push(self.from_item()?);
        }
        let mut where_preds = Vec::new();
        if self.kw("where") {
            where_preds.push(self.predicate()?);
            while self.kw("and") {
                where_preds.push(self.predicate()?);
            }
        }
        let mut group_by = Vec::new();
        if self.kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.peek() == Some(&Token::Comma) {
                self.pos += 1;
                group_by.push(self.expr()?);
            }
        }
        let mut having = Vec::new();
        if self.kw("having") {
            having.push(self.predicate()?);
            while self.kw("and") {
                having.push(self.predicate()?);
            }
        }
        let mut order_by = Vec::new();
        if self.kw("order") {
            self.expect_kw("by")?;
            loop {
                let first = self.ident()?;
                let (qualifier, name) = if self.peek() == Some(&Token::Dot) {
                    self.pos += 1;
                    (Some(first), self.ident()?)
                } else {
                    (None, first)
                };
                let desc = if self.kw("desc") {
                    true
                } else {
                    let _ = self.kw("asc");
                    false
                };
                order_by.push(OrderKey {
                    qualifier,
                    name,
                    desc,
                });
                if self.peek() != Some(&Token::Comma) {
                    break;
                }
                self.pos += 1;
            }
        }
        let limit = if self.kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(AggViewError::Parse(format!(
                        "LIMIT expects a non-negative integer, found `{}`",
                        other
                            .map(|t| t.to_string())
                            .unwrap_or_else(|| "end of input".into())
                    )))
                }
            }
        } else {
            None
        };
        Ok(SelectStmt {
            items,
            from,
            where_preds,
            group_by,
            having,
            order_by,
            limit,
        })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        let expr = self.expr()?;
        let alias = if self.kw("as") {
            Some(self.ident()?)
        } else {
            match self.peek() {
                // Bare alias (not a clause keyword).
                Some(Token::Ident(s))
                    if !["from", "where", "group", "having", "order", "limit"]
                        .iter()
                        .any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    Some(self.ident()?)
                }
                _ => None,
            }
        };
        Ok(SelectItem { expr, alias })
    }

    #[allow(clippy::wrong_self_convention)]
    fn from_item(&mut self) -> Result<FromItem> {
        let name = self.ident()?;
        let alias = match self.peek() {
            Some(Token::Ident(s))
                if !["where", "group", "having", "order", "limit"]
                    .iter()
                    .any(|k| s.eq_ignore_ascii_case(k)) =>
            {
                Some(self.ident()?)
            }
            _ => None,
        };
        Ok(FromItem { name, alias })
    }

    fn predicate(&mut self) -> Result<AstPred> {
        let left = self.expr()?;
        let op = match self.next() {
            Some(Token::Eq) => CmpOp::Eq,
            Some(Token::Ne) => CmpOp::Ne,
            Some(Token::Lt) => CmpOp::Lt,
            Some(Token::Le) => CmpOp::Le,
            Some(Token::Gt) => CmpOp::Gt,
            Some(Token::Ge) => CmpOp::Ge,
            other => {
                return Err(AggViewError::Parse(format!(
                    "expected comparison operator, found `{}`",
                    other
                        .map(|t| t.to_string())
                        .unwrap_or_else(|| "end of input".into())
                )))
            }
        };
        let right = self.expr()?;
        Ok(AstPred { left, op, right })
    }

    /// Additive-precedence expression.
    fn expr(&mut self) -> Result<AstExpr> {
        let mut left = self.term()?;
        loop {
            let op = match self.peek() {
                Some(Token::Plus) => BinaryOp::Add,
                Some(Token::Minus) => BinaryOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.term()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn term(&mut self) -> Result<AstExpr> {
        let mut left = self.factor()?;
        loop {
            let op = match self.peek() {
                Some(Token::Star) => BinaryOp::Mul,
                Some(Token::Slash) => BinaryOp::Div,
                _ => break,
            };
            self.pos += 1;
            let right = self.factor()?;
            left = AstExpr::Binary {
                op,
                left: Box::new(left),
                right: Box::new(right),
            };
        }
        Ok(left)
    }

    fn factor(&mut self) -> Result<AstExpr> {
        match self.peek().cloned() {
            Some(Token::Int(i)) => {
                self.pos += 1;
                Ok(AstExpr::Lit(Value::Int(i)))
            }
            Some(Token::Float(x)) => {
                self.pos += 1;
                Ok(AstExpr::Lit(Value::Float(x)))
            }
            Some(Token::Str(s)) => {
                self.pos += 1;
                Ok(AstExpr::Lit(Value::str(s)))
            }
            Some(Token::Minus) => {
                self.pos += 1;
                let inner = self.factor()?;
                Ok(AstExpr::Binary {
                    op: BinaryOp::Sub,
                    left: Box::new(AstExpr::Lit(Value::Int(0))),
                    right: Box::new(inner),
                })
            }
            Some(Token::LParen) => {
                self.pos += 1;
                // Subquery or parenthesized expression.
                if self.peek().is_some_and(|t| t.is_kw("select")) {
                    let sub = self.select()?;
                    self.expect(&Token::RParen)?;
                    Ok(AstExpr::Subquery(Box::new(sub)))
                } else {
                    let e = self.expr()?;
                    self.expect(&Token::RParen)?;
                    Ok(e)
                }
            }
            Some(Token::Ident(name)) => {
                self.pos += 1;
                // Aggregate call?
                if let Some(func) = agg_func(&name) {
                    if self.peek() == Some(&Token::LParen) {
                        self.pos += 1;
                        if self.peek() == Some(&Token::Star) {
                            self.pos += 1;
                            self.expect(&Token::RParen)?;
                            if func != AggFunc::Count {
                                return Err(AggViewError::Parse(format!(
                                    "{func}(*) is not valid SQL"
                                )));
                            }
                            return Ok(AstExpr::Agg { func, arg: None });
                        }
                        let arg = self.expr()?;
                        self.expect(&Token::RParen)?;
                        return Ok(AstExpr::Agg {
                            func,
                            arg: Some(Box::new(arg)),
                        });
                    }
                }
                // Qualified column?
                if self.peek() == Some(&Token::Dot) {
                    self.pos += 1;
                    let col = self.ident()?;
                    Ok(AstExpr::Col {
                        qualifier: Some(name),
                        name: col,
                    })
                } else {
                    Ok(AstExpr::Col {
                        qualifier: None,
                        name,
                    })
                }
            }
            other => Err(AggViewError::Parse(format!(
                "expected expression, found `{}`",
                other
                    .map(|t| t.to_string())
                    .unwrap_or_else(|| "end of input".into())
            ))),
        }
    }
}

fn agg_func(name: &str) -> Option<AggFunc> {
    let n = name.to_ascii_lowercase();
    match n.as_str() {
        "count" => Some(AggFunc::Count),
        "sum" => Some(AggFunc::Sum),
        "min" => Some(AggFunc::Min),
        "max" => Some(AggFunc::Max),
        "avg" => Some(AggFunc::Avg),
        "stddev" => Some(AggFunc::StdDev),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sel(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            Stmt::Select(s) => s,
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn parses_paper_example1_view() {
        // (A1) from the paper.
        let stmt = parse(
            "create view A1(dno, Asal) as select e2.dno, avg(e2.sal) from emp e2 group by e2.dno",
        )
        .unwrap();
        let Stmt::CreateView {
            name,
            columns,
            query,
        } = stmt
        else {
            panic!("expected create view")
        };
        assert_eq!(name, "A1");
        assert_eq!(columns.unwrap(), vec!["dno", "Asal"]);
        assert_eq!(query.group_by.len(), 1);
        assert!(query.items[1].expr.has_agg());
    }

    #[test]
    fn parses_paper_example1_outer() {
        let s = sel(
            "select e1.sal from emp e1, A1 b where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal",
        );
        assert_eq!(s.from.len(), 2);
        assert_eq!(s.from[1].binding_name(), "b");
        assert_eq!(s.where_preds.len(), 3);
    }

    #[test]
    fn parses_paper_query_b_with_having() {
        let s = sel(
            "select e1.sal from emp e1, emp e2 where e1.dno = e2.dno and e1.age < 22 \
             group by e2.dno, e1.eno, e1.sal having e1.sal > avg(e2.sal)",
        );
        assert_eq!(s.group_by.len(), 3);
        assert_eq!(s.having.len(), 1);
        assert!(s.having[0].right.has_agg());
    }

    #[test]
    fn parses_correlated_subquery() {
        let s = sel("select e1.sal from emp e1 where e1.age < 22 and \
             e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)");
        assert!(s.where_preds[1].right.has_subquery());
    }

    #[test]
    fn arithmetic_precedence() {
        let s = sel("select a + b * c from t");
        let AstExpr::Binary { op, right, .. } = &s.items[0].expr else {
            panic!()
        };
        assert_eq!(*op, BinaryOp::Add);
        assert!(matches!(
            right.as_ref(),
            AstExpr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
    }

    #[test]
    fn count_star_and_aliases() {
        let s = sel("select count(*) as n, sum(qty) total from lineitem group by ono");
        assert_eq!(s.items[0].alias.as_deref(), Some("n"));
        assert_eq!(s.items[1].alias.as_deref(), Some("total"));
        assert!(matches!(
            s.items[0].expr,
            AstExpr::Agg {
                func: AggFunc::Count,
                arg: None
            }
        ));
    }

    #[test]
    fn rejects_sum_star() {
        assert!(parse("select sum(*) from t").is_err());
    }

    #[test]
    fn parse_script_multiple_statements() {
        let stmts = parse_script(
            "create view v as select dno, avg(sal) from emp group by dno; \
             select dno from v;",
        )
        .unwrap();
        assert_eq!(stmts.len(), 2);
    }

    #[test]
    fn unary_minus_and_parens() {
        let s = sel("select -(a + 2) from t");
        assert!(matches!(
            s.items[0].expr,
            AstExpr::Binary {
                op: BinaryOp::Sub,
                ..
            }
        ));
    }

    #[test]
    fn parses_create_materialized_view() {
        let stmt = parse(
            "create materialized view dsal(dno, total) as \
             select dno, sum(sal) from emp group by dno",
        )
        .unwrap();
        let Stmt::CreateMaterializedView { name, columns, .. } = stmt else {
            panic!("expected create materialized view")
        };
        assert_eq!(name, "dsal");
        assert_eq!(columns.unwrap(), vec!["dno", "total"]);
    }

    #[test]
    fn parses_insert_values() {
        let stmt =
            parse("insert into emp values (1, 'pat', 0, 950.5, 21), (2, 'sam', 1, 800.0, 45)")
                .unwrap();
        let Stmt::Insert { table, rows } = stmt else {
            panic!("expected insert")
        };
        assert_eq!(table, "emp");
        assert_eq!(rows.len(), 2);
        assert_eq!(rows[0].len(), 5);
        assert!(matches!(rows[0][1], AstExpr::Lit(Value::Str(_))));
    }

    #[test]
    fn parses_refresh_materialized_view() {
        let stmt = parse("refresh materialized view dsal;").unwrap();
        assert_eq!(
            stmt,
            Stmt::RefreshMaterializedView {
                name: "dsal".into()
            }
        );
        assert!(parse("refresh view dsal").is_err());
        assert!(parse("insert into emp (1)").is_err());
    }

    #[test]
    fn parses_update_with_sets_and_where() {
        let stmt =
            parse("update emp set sal = sal * 2, age = 30 where dno = 1 and sal < 500").unwrap();
        let Stmt::Update { table, sets, preds } = stmt else {
            panic!("expected update")
        };
        assert_eq!(table, "emp");
        assert_eq!(sets.len(), 2);
        assert_eq!(sets[0].0, "sal");
        assert!(matches!(
            sets[0].1,
            AstExpr::Binary {
                op: BinaryOp::Mul,
                ..
            }
        ));
        assert_eq!(preds.len(), 2);
        // WHERE is optional.
        let Stmt::Update { preds, .. } = parse("update emp set age = 1").unwrap() else {
            panic!()
        };
        assert!(preds.is_empty());
        assert!(parse("update emp sal = 1").is_err());
        assert!(parse("update emp set sal").is_err());
    }

    #[test]
    fn parses_delete_with_and_without_where() {
        let stmt = parse("delete from emp where age > 60;").unwrap();
        let Stmt::Delete { table, preds } = stmt else {
            panic!("expected delete")
        };
        assert_eq!(table, "emp");
        assert_eq!(preds.len(), 1);
        let Stmt::Delete { preds, .. } = parse("delete from emp").unwrap() else {
            panic!()
        };
        assert!(preds.is_empty());
        assert!(parse("delete emp").is_err());
    }

    #[test]
    fn trailing_garbage_rejected() {
        assert!(parse("select a from t bogus extra tokens !").is_err());
        assert!(parse("select from t").is_err());
        assert!(parse("select a").is_err());
    }
}
