//! Name resolution and lowering to the canonical query form.
//!
//! The binder turns a parsed [`SelectStmt`] into a
//! [`CanonicalQuery`] (the paper's Figure 3):
//!
//! * base tables in FROM become outer-block relations `B1..Bn`;
//! * references to registered **aggregate views** become [`ViewDef`]s
//!   `Q1..Qm` (the view body is bound in its own scope);
//! * registered **non-aggregate views** are merged into the referencing
//!   block — the "traditional reduction to a single block query" the
//!   paper contrasts with;
//! * scalar aggregate subqueries in WHERE are **flattened** into
//!   additional aggregate views plus join predicates
//!   ([`crate::flatten`]);
//! * a GROUP BY / aggregate select list becomes the top group-by `G0`.

use crate::ast::{AstExpr, AstPred, FromItem, OrderKey, SelectStmt};
use crate::flatten::flatten_subquery;
use aggview_common::{AggSpec, AggViewError, Col, Expr, Predicate, RelId, Result, ViewId};
use aggview_core::query::{CanonicalQuery, QueryEnv, TopGroup, ViewDef};
use aggview_storage::{Catalog, MatViewDef};
use std::collections::HashMap;

/// A registered view definition (from `CREATE VIEW`).
#[derive(Debug, Clone)]
pub struct RegisteredView {
    pub columns: Option<Vec<String>>,
    pub query: SelectStmt,
}

/// Name → view registry.
#[derive(Debug, Clone, Default)]
pub struct ViewRegistry {
    views: HashMap<String, RegisteredView>,
}

impl ViewRegistry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Register (or replace) a view.
    pub fn register(&mut self, name: &str, columns: Option<Vec<String>>, query: SelectStmt) {
        self.views
            .insert(name.to_ascii_lowercase(), RegisteredView { columns, query });
    }

    pub fn get(&self, name: &str) -> Option<&RegisteredView> {
        self.views.get(&name.to_ascii_lowercase())
    }

    pub fn len(&self) -> usize {
        self.views.len()
    }

    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }
}

/// The bound form of a query: canonical structure plus presentation
/// metadata.
#[derive(Debug, Clone)]
pub struct BoundQuery {
    pub query: CanonicalQuery,
    /// Output column names, parallel to `query.projection`.
    pub column_names: Vec<String>,
    /// `ORDER BY` keys as (select-list position, descending), major key
    /// first.
    pub order_by: Vec<(usize, bool)>,
    /// `LIMIT n`.
    pub limit: Option<usize>,
}

/// One visible FROM binding.
#[derive(Debug, Clone)]
pub(crate) struct Scope {
    /// Binding name (alias or table/view name), lowercase.
    pub name: String,
    /// Output columns visible under this binding: (column name, column).
    pub outputs: Vec<(String, Col)>,
}

impl Scope {
    pub(crate) fn resolve(&self, col: &str) -> Option<Col> {
        self.outputs
            .iter()
            .find(|(n, _)| n.eq_ignore_ascii_case(col))
            .map(|(_, c)| *c)
    }
}

/// Bind a SELECT statement against a catalog and view registry.
///
/// The canonical query is not validated here: the optimizer validates
/// every query it is handed, bound or built by hand, as its first step.
pub fn bind(stmt: &SelectStmt, catalog: &Catalog, views: &ViewRegistry) -> Result<BoundQuery> {
    let mut b = Binder {
        catalog,
        registry: views,
        env: QueryEnv::default(),
        scopes: Vec::new(),
        view_defs: Vec::new(),
        base_rels: Vec::new(),
        preds: Vec::new(),
    };
    b.bind_from(&stmt.from)?;
    b.bind_where(&stmt.where_preds)?;
    let (group, projection, column_names) =
        b.bind_select_and_group(&stmt.items, &stmt.group_by, &stmt.having)?;
    let order_by = stmt
        .order_by
        .iter()
        .map(|k| bind_order_key(k, &column_names, &projection, &b.scopes))
        .collect::<Result<_>>()?;
    let query = CanonicalQuery {
        env: b.env,
        views: b.view_defs,
        base_rels: b.base_rels,
        preds: b.preds,
        group,
        projection,
    };
    Ok(BoundQuery {
        query,
        column_names,
        order_by,
        limit: stmt.limit,
    })
}

/// The select-list position an `ORDER BY` key sorts by, and whether it
/// sorts descending. An unqualified key names an output column (its
/// alias, or its column name); `q.col` names the select items that are
/// that column. The items a key names must all be one column — `select
/// dno, dno ... order by dno` sorts by either — or the key is ambiguous.
fn bind_order_key(
    key: &OrderKey,
    names: &[String],
    projection: &[Col],
    scopes: &[Scope],
) -> Result<(usize, bool)> {
    let hits: Vec<usize> = match &key.qualifier {
        None => (0..names.len())
            .filter(|&i| names[i].eq_ignore_ascii_case(&key.name))
            .collect(),
        Some(q) => match resolve_col(Some(q), &key.name, scopes) {
            Ok(c) => (0..projection.len())
                .filter(|&i| projection[i] == c)
                .collect(),
            Err(_) => Vec::new(),
        },
    };
    let Some(&first) = hits.first() else {
        return Err(AggViewError::Bind(format!(
            "ORDER BY column `{key}` is not in the select list"
        )));
    };
    if let Some(other) = hits.iter().find(|&&i| projection[i] != projection[first]) {
        return Err(AggViewError::Bind(format!(
            "ORDER BY column `{key}` is ambiguous: it names select items {} and {}",
            first + 1,
            other + 1
        )));
    }
    Ok((first, key.desc))
}

struct Binder<'a> {
    catalog: &'a Catalog,
    registry: &'a ViewRegistry,
    env: QueryEnv,
    scopes: Vec<Scope>,
    view_defs: Vec<ViewDef>,
    base_rels: Vec<RelId>,
    preds: Vec<Predicate>,
}

impl Binder<'_> {
    fn bind_from(&mut self, from: &[FromItem]) -> Result<()> {
        for item in from {
            let binding = item.binding_name().to_ascii_lowercase();
            if self.scopes.iter().any(|s| s.name == binding) {
                return Err(AggViewError::Bind(format!(
                    "duplicate FROM binding `{binding}`"
                )));
            }
            if let Some(view) = self.registry.get(&item.name) {
                let view = view.clone();
                if is_aggregate_view(&view.query) {
                    self.bind_aggregate_view(&binding, &view)?;
                } else {
                    self.inline_plain_view(&binding, &view)?;
                }
            } else {
                // Base table.
                let table = self.catalog.get(&item.name)?;
                let rel = self.env.add_rel(table.name().to_string());
                self.base_rels.push(rel);
                let outputs = table
                    .schema()
                    .fields()
                    .iter()
                    .enumerate()
                    .map(|(i, f)| (f.name.clone(), Col::base(rel, i)))
                    .collect();
                self.scopes.push(Scope {
                    name: binding,
                    outputs,
                });
            }
        }
        Ok(())
    }

    /// Bind an aggregate view's body in its own scope, producing a
    /// `ViewDef` and an outer scope exposing its outputs.
    fn bind_aggregate_view(&mut self, binding: &str, view: &RegisteredView) -> Result<()> {
        let q = &view.query;
        // View FROM: base tables only (the paper's Section 2: every
        // aggregate view is a single-block query).
        let mut scopes: Vec<Scope> = Vec::new();
        let mut rels: Vec<RelId> = Vec::new();
        for item in &q.from {
            if self.registry.get(&item.name).is_some() {
                return Err(AggViewError::Bind(format!(
                    "aggregate view bodies must reference base tables only \
                     (found view `{}`)",
                    item.name
                )));
            }
            let table = self.catalog.get(&item.name)?;
            let rel = self.env.add_rel(table.name().to_string());
            rels.push(rel);
            let outputs = table
                .schema()
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.clone(), Col::base(rel, i)))
                .collect();
            scopes.push(Scope {
                name: item.binding_name().to_ascii_lowercase(),
                outputs,
            });
        }
        // WHERE: plain predicates, no aggregates, no subqueries.
        let mut preds = Vec::new();
        for p in &q.where_preds {
            if p.left.has_subquery() || p.right.has_subquery() {
                return Err(AggViewError::Bind(
                    "subqueries inside view bodies are not supported".into(),
                ));
            }
            preds.push(Predicate::new(
                bind_scalar(&p.left, &scopes)?,
                p.op,
                bind_scalar(&p.right, &scopes)?,
            ));
        }
        // GROUP BY.
        let mut group_cols = Vec::new();
        for g in &q.group_by {
            match bind_scalar(g, &scopes)? {
                Expr::Col(c) => group_cols.push(c),
                other => {
                    return Err(AggViewError::Bind(format!(
                        "GROUP BY expression `{other}` must be a column"
                    )))
                }
            }
        }
        let index = self.view_defs.len() as u32;
        let owner = ViewId::View(index);
        // SELECT items: grouping columns or aggregates; collect names.
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut outputs: Vec<(String, Col)> = Vec::new();
        for (i, item) in q.items.iter().enumerate() {
            let fallback_name = || format!("col{}", i + 1);
            let name = view
                .columns
                .as_ref()
                .and_then(|cs| cs.get(i).cloned())
                .or_else(|| item.alias.clone())
                .or_else(|| match &item.expr {
                    AstExpr::Col { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .unwrap_or_else(fallback_name);
            match &item.expr {
                AstExpr::Agg { func, arg } => {
                    let spec = AggSpec {
                        func: *func,
                        arg: arg.as_ref().map(|a| bind_scalar(a, &scopes)).transpose()?,
                    };
                    let idx = push_agg(&mut aggs, spec);
                    outputs.push((name, Col::agg(owner, idx)));
                }
                e => match bind_scalar(e, &scopes)? {
                    Expr::Col(c) => {
                        if !group_cols.contains(&c) {
                            return Err(AggViewError::Bind(format!(
                                "view column `{name}` must be grouped or aggregated"
                            )));
                        }
                        outputs.push((name, c));
                    }
                    other => {
                        return Err(AggViewError::Bind(format!(
                            "view select item `{other}` must be a column or aggregate"
                        )))
                    }
                },
            }
        }
        // HAVING: over group columns and the view's own aggregates.
        let mut having = Vec::new();
        for p in &q.having {
            having.push(Predicate::new(
                bind_scalar_with_aggs(&p.left, &scopes, &mut aggs, owner)?,
                p.op,
                bind_scalar_with_aggs(&p.right, &scopes, &mut aggs, owner)?,
            ));
        }
        self.view_defs.push(ViewDef {
            index,
            rels,
            preds,
            group_cols,
            aggs,
            having,
        });
        self.scopes.push(Scope {
            name: binding.to_string(),
            outputs,
        });
        Ok(())
    }

    /// Merge a non-aggregate view into the outer block.
    fn inline_plain_view(&mut self, binding: &str, view: &RegisteredView) -> Result<()> {
        let q = &view.query;
        let mut scopes: Vec<Scope> = Vec::new();
        for item in &q.from {
            if self.registry.get(&item.name).is_some() {
                return Err(AggViewError::Bind("nested views are not supported".into()));
            }
            let table = self.catalog.get(&item.name)?;
            let rel = self.env.add_rel(table.name().to_string());
            self.base_rels.push(rel);
            let outputs = table
                .schema()
                .fields()
                .iter()
                .enumerate()
                .map(|(i, f)| (f.name.clone(), Col::base(rel, i)))
                .collect();
            scopes.push(Scope {
                name: item.binding_name().to_ascii_lowercase(),
                outputs,
            });
        }
        for p in &q.where_preds {
            self.preds.push(Predicate::new(
                bind_scalar(&p.left, &scopes)?,
                p.op,
                bind_scalar(&p.right, &scopes)?,
            ));
        }
        let mut outputs: Vec<(String, Col)> = Vec::new();
        for (i, item) in q.items.iter().enumerate() {
            let name = view
                .columns
                .as_ref()
                .and_then(|cs| cs.get(i).cloned())
                .or_else(|| item.alias.clone())
                .or_else(|| match &item.expr {
                    AstExpr::Col { name, .. } => Some(name.clone()),
                    _ => None,
                })
                .unwrap_or_else(|| format!("col{}", i + 1));
            match bind_scalar(&item.expr, &scopes)? {
                Expr::Col(c) => outputs.push((name, c)),
                other => {
                    return Err(AggViewError::Bind(format!(
                        "non-column view output `{other}` is not supported"
                    )))
                }
            }
        }
        self.scopes.push(Scope {
            name: binding.to_string(),
            outputs,
        });
        Ok(())
    }

    fn bind_where(&mut self, preds: &[AstPred]) -> Result<()> {
        for p in preds {
            let subq_side = p.left.has_subquery() || p.right.has_subquery();
            if subq_side {
                let (vdef, extra_preds) = flatten_subquery(
                    p,
                    &self.scopes,
                    &mut self.env,
                    self.view_defs.len() as u32,
                    self.catalog,
                )?;
                self.view_defs.push(vdef);
                self.preds.extend(extra_preds);
            } else {
                self.preds.push(Predicate::new(
                    bind_scalar(&p.left, &self.scopes)?,
                    p.op,
                    bind_scalar(&p.right, &self.scopes)?,
                ));
            }
        }
        Ok(())
    }

    #[allow(clippy::type_complexity)]
    fn bind_select_and_group(
        &mut self,
        items: &[crate::ast::SelectItem],
        group_by: &[AstExpr],
        having: &[AstPred],
    ) -> Result<(Option<TopGroup>, Vec<Col>, Vec<String>)> {
        let grouped =
            !group_by.is_empty() || !having.is_empty() || items.iter().any(|i| i.expr.has_agg());
        if !grouped {
            let mut projection = Vec::new();
            let mut names = Vec::new();
            for (i, item) in items.iter().enumerate() {
                match bind_scalar(&item.expr, &self.scopes)? {
                    Expr::Col(c) => {
                        projection.push(c);
                        names.push(output_name(item, i));
                    }
                    other => {
                        return Err(AggViewError::Bind(format!(
                            "select item `{other}` must be a column \
                             (computed projections are not supported)"
                        )))
                    }
                }
            }
            return Ok((None, projection, names));
        }

        let mut group_cols = Vec::new();
        for g in group_by {
            match bind_scalar(g, &self.scopes)? {
                Expr::Col(c) => group_cols.push(c),
                other => {
                    return Err(AggViewError::Bind(format!(
                        "GROUP BY expression `{other}` must be a column"
                    )))
                }
            }
        }
        let mut aggs: Vec<AggSpec> = Vec::new();
        let mut projection = Vec::new();
        let mut names = Vec::new();
        for (i, item) in items.iter().enumerate() {
            match &item.expr {
                AstExpr::Agg { func, arg } => {
                    let spec = AggSpec {
                        func: *func,
                        arg: arg
                            .as_ref()
                            .map(|a| bind_scalar(a, &self.scopes))
                            .transpose()?,
                    };
                    let idx = push_agg(&mut aggs, spec);
                    projection.push(Col::agg(ViewId::Top, idx));
                }
                e => match bind_scalar(e, &self.scopes)? {
                    Expr::Col(c) => {
                        if !group_cols.contains(&c) {
                            return Err(AggViewError::Bind(format!(
                                "select item `{e}` must appear in GROUP BY"
                            )));
                        }
                        projection.push(c);
                    }
                    other => {
                        return Err(AggViewError::Bind(format!(
                            "select item `{other}` must be a column or aggregate"
                        )))
                    }
                },
            }
            names.push(output_name(item, i));
        }
        let mut having_preds = Vec::new();
        for p in having {
            having_preds.push(Predicate::new(
                bind_scalar_with_aggs(&p.left, &self.scopes, &mut aggs, ViewId::Top)?,
                p.op,
                bind_scalar_with_aggs(&p.right, &self.scopes, &mut aggs, ViewId::Top)?,
            ));
        }
        Ok((
            Some(TopGroup {
                group_cols,
                aggs,
                having: having_preds,
            }),
            projection,
            names,
        ))
    }
}

fn output_name(item: &crate::ast::SelectItem, i: usize) -> String {
    item.alias.clone().unwrap_or_else(|| match &item.expr {
        AstExpr::Col { name, .. } => name.clone(),
        e => {
            let s = e.to_string();
            if s.len() > 24 {
                format!("col{}", i + 1)
            } else {
                s
            }
        }
    })
}

/// Deduplicating aggregate-spec insertion.
fn push_agg(aggs: &mut Vec<AggSpec>, spec: AggSpec) -> usize {
    if let Some(i) = aggs.iter().position(|a| *a == spec) {
        i
    } else {
        aggs.push(spec);
        aggs.len() - 1
    }
}

/// Bind an aggregate-free scalar expression against scopes.
pub(crate) fn bind_scalar(e: &AstExpr, scopes: &[Scope]) -> Result<Expr> {
    match e {
        AstExpr::Col { qualifier, name } => {
            Ok(Expr::Col(resolve_col(qualifier.as_deref(), name, scopes)?))
        }
        AstExpr::Lit(v) => Ok(Expr::Const(v.clone())),
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(bind_scalar(left, scopes)?),
            right: Box::new(bind_scalar(right, scopes)?),
        }),
        AstExpr::Agg { .. } => Err(AggViewError::Bind(
            "aggregate not allowed in this context".into(),
        )),
        AstExpr::Subquery(_) => Err(AggViewError::Bind(
            "subquery not allowed in this context".into(),
        )),
    }
}

/// Bind a scalar expression where aggregate calls resolve to outputs of
/// the group-by `owner` (registering new specs as needed) — the HAVING
/// binding mode.
fn bind_scalar_with_aggs(
    e: &AstExpr,
    scopes: &[Scope],
    aggs: &mut Vec<AggSpec>,
    owner: ViewId,
) -> Result<Expr> {
    match e {
        AstExpr::Agg { func, arg } => {
            let spec = AggSpec {
                func: *func,
                arg: arg.as_ref().map(|a| bind_scalar(a, scopes)).transpose()?,
            };
            let idx = push_agg(aggs, spec);
            Ok(Expr::Col(Col::agg(owner, idx)))
        }
        AstExpr::Binary { op, left, right } => Ok(Expr::Binary {
            op: *op,
            left: Box::new(bind_scalar_with_aggs(left, scopes, aggs, owner)?),
            right: Box::new(bind_scalar_with_aggs(right, scopes, aggs, owner)?),
        }),
        other => bind_scalar(other, scopes),
    }
}

/// Resolve a (possibly qualified) column name against scopes.
pub(crate) fn resolve_col(qualifier: Option<&str>, name: &str, scopes: &[Scope]) -> Result<Col> {
    match qualifier {
        Some(q) => {
            let scope = scopes
                .iter()
                .find(|s| s.name.eq_ignore_ascii_case(q))
                .ok_or_else(|| AggViewError::Bind(format!("unknown table alias `{q}`")))?;
            scope
                .resolve(name)
                .ok_or_else(|| AggViewError::Bind(format!("unknown column `{q}.{name}`")))
        }
        None => {
            let mut found = None;
            for s in scopes {
                if let Some(c) = s.resolve(name) {
                    if found.is_some() {
                        return Err(AggViewError::Bind(format!("ambiguous column `{name}`")));
                    }
                    found = Some(c);
                }
            }
            found.ok_or_else(|| AggViewError::Bind(format!("unknown column `{name}`")))
        }
    }
}

/// Is this SELECT an aggregate view body (group-by or aggregate items)?
pub fn is_aggregate_view(q: &SelectStmt) -> bool {
    !q.group_by.is_empty() || q.items.iter().any(|i| i.expr.has_agg())
}

/// Bind a `CREATE MATERIALIZED VIEW` body to a self-contained
/// [`MatViewDef`] over a local frame: relation `i` of the FROM list is
/// `RelId(i)` and refers to base table `tables[i]`.
///
/// Materialized-view bodies are the paper's single-block aggregate
/// views: base tables only, conjunctive WHERE, column GROUP BY, and a
/// select list of grouping columns and aggregates (every grouping
/// column must be selected — it becomes part of the extent's key).
pub fn bind_matview(
    name: &str,
    columns: Option<&[String]>,
    query: &SelectStmt,
    catalog: &Catalog,
    registry: &ViewRegistry,
) -> Result<MatViewDef> {
    if !query.having.is_empty() {
        return Err(AggViewError::Bind(
            "HAVING is not supported in materialized view bodies".into(),
        ));
    }
    if !query.order_by.is_empty() || query.limit.is_some() {
        return Err(AggViewError::Bind(
            "ORDER BY / LIMIT are not supported in materialized view bodies".into(),
        ));
    }
    let mut scopes: Vec<Scope> = Vec::new();
    let mut tables: Vec<String> = Vec::new();
    for (i, item) in query.from.iter().enumerate() {
        if registry.get(&item.name).is_some() {
            return Err(AggViewError::Bind(format!(
                "materialized view bodies must reference base tables only \
                 (found view `{}`)",
                item.name
            )));
        }
        let table = catalog.get(&item.name)?;
        let rel = RelId(i as u32);
        tables.push(table.name().to_string());
        let outputs = table
            .schema()
            .fields()
            .iter()
            .enumerate()
            .map(|(j, f)| (f.name.clone(), Col::base(rel, j)))
            .collect();
        scopes.push(Scope {
            name: item.binding_name().to_ascii_lowercase(),
            outputs,
        });
    }
    let mut preds = Vec::new();
    for p in &query.where_preds {
        if p.left.has_subquery() || p.right.has_subquery() {
            return Err(AggViewError::Bind(
                "subqueries inside materialized view bodies are not supported".into(),
            ));
        }
        preds.push(Predicate::new(
            bind_scalar(&p.left, &scopes)?,
            p.op,
            bind_scalar(&p.right, &scopes)?,
        ));
    }
    let mut group_cols = Vec::new();
    for g in &query.group_by {
        match bind_scalar(g, &scopes)? {
            Expr::Col(c) => group_cols.push(c),
            other => {
                return Err(AggViewError::Bind(format!(
                    "GROUP BY expression `{other}` must be a column"
                )))
            }
        }
    }
    // Select list: grouping columns (named) and aggregates, in any
    // order; the extent stores keys first, so names are reassembled in
    // (group columns, aggregates) order.
    let mut aggs: Vec<AggSpec> = Vec::new();
    let mut agg_names: Vec<String> = Vec::new();
    let mut key_names: Vec<(Col, String)> = Vec::new();
    for (i, item) in query.items.iter().enumerate() {
        let item_name = columns
            .and_then(|cs| cs.get(i).cloned())
            .or_else(|| item.alias.clone())
            .or_else(|| match &item.expr {
                AstExpr::Col { name, .. } => Some(name.clone()),
                _ => None,
            })
            .unwrap_or_else(|| format!("col{}", i + 1));
        match &item.expr {
            AstExpr::Agg { func, arg } => {
                aggs.push(AggSpec {
                    func: *func,
                    arg: arg.as_ref().map(|a| bind_scalar(a, &scopes)).transpose()?,
                });
                agg_names.push(item_name);
            }
            e => match bind_scalar(e, &scopes)? {
                Expr::Col(c) => {
                    if !group_cols.contains(&c) {
                        return Err(AggViewError::Bind(format!(
                            "materialized view column `{item_name}` must be \
                             grouped or aggregated"
                        )));
                    }
                    key_names.push((c, item_name));
                }
                other => {
                    return Err(AggViewError::Bind(format!(
                        "materialized view select item `{other}` must be a \
                         column or aggregate"
                    )))
                }
            },
        }
    }
    let mut column_names = Vec::with_capacity(group_cols.len() + aggs.len());
    for (i, g) in group_cols.iter().enumerate() {
        let named = key_names.iter().find(|(c, _)| c == g).map(|(_, n)| n);
        match named {
            Some(n) => column_names.push(n.clone()),
            None => {
                return Err(AggViewError::Bind(format!(
                    "grouping column {} of materialized view `{name}` must \
                     appear in the select list",
                    i + 1
                )))
            }
        }
    }
    column_names.extend(agg_names);
    let def = MatViewDef {
        name: name.to_string(),
        tables,
        preds,
        group_cols,
        aggs,
        column_names,
    };
    def.validate()?;
    Ok(def)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse;
    use aggview_common::AggFunc;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn setup() -> (Catalog, ViewRegistry) {
        let cat = gen_empdept(&EmpDeptConfig {
            n_depts: 4,
            emps_per_dept: 5,
            ..Default::default()
        })
        .unwrap();
        let mut reg = ViewRegistry::new();
        let crate::ast::Stmt::CreateView {
            name,
            columns,
            query,
        } = parse(
            "create view A1(dno, Asal) as select e2.dno, avg(e2.sal) from emp e2 group by e2.dno",
        )
        .unwrap()
        else {
            panic!()
        };
        reg.register(&name, columns, query);
        (cat, reg)
    }

    fn select(sql: &str) -> SelectStmt {
        match parse(sql).unwrap() {
            crate::ast::Stmt::Select(s) => s,
            _ => panic!("expected select"),
        }
    }

    #[test]
    fn binds_paper_example1_via_view() {
        let (cat, reg) = setup();
        let s = select(
            "select e1.sal from emp e1, A1 b \
             where e1.dno = b.dno and e1.age < 22 and e1.sal > b.Asal",
        );
        let bq = bind(&s, &cat, &reg).unwrap();
        assert_eq!(bq.query.views.len(), 1);
        assert_eq!(bq.query.base_rels.len(), 1);
        assert_eq!(bq.query.preds.len(), 3);
        assert_eq!(bq.column_names, vec!["sal"]);
        // The aggregate comparison references the view's AVG output.
        assert!(bq.query.preds.iter().any(|p| p.uses_agg()));
        assert_eq!(bq.query.views[0].aggs[0].func, AggFunc::Avg);
    }

    #[test]
    fn binds_query_b_with_having() {
        let (cat, reg) = setup();
        let s = select(
            "select e1.sal from emp e1, emp e2 where e1.dno = e2.dno and e1.age < 22 \
             group by e2.dno, e1.eno, e1.sal having e1.sal > avg(e2.sal)",
        );
        let bq = bind(&s, &cat, &reg).unwrap();
        let g = bq.query.group.as_ref().unwrap();
        assert_eq!(g.group_cols.len(), 3);
        assert_eq!(g.aggs.len(), 1);
        assert_eq!(g.having.len(), 1);
    }

    #[test]
    fn binds_example2_single_block() {
        let (cat, reg) = setup();
        let s = select(
            "select e.dno, avg(e.sal) from emp e, dept d \
             where e.dno = d.dno and d.budget < 1000000 group by e.dno",
        );
        let bq = bind(&s, &cat, &reg).unwrap();
        assert!(bq.query.views.is_empty());
        assert!(bq.query.group.is_some());
        assert_eq!(bq.column_names[1], "AVG(e.sal)");
    }

    #[test]
    fn flattens_correlated_subquery() {
        let (cat, reg) = setup();
        let s = select(
            "select e1.sal from emp e1 where e1.age < 22 and \
             e1.sal > (select avg(e2.sal) from emp e2 where e2.dno = e1.dno)",
        );
        let bq = bind(&s, &cat, &reg).unwrap();
        assert_eq!(bq.query.views.len(), 1, "subquery became a view");
        assert_eq!(bq.query.views[0].group_cols.len(), 1);
        // Correlation equality + comparison + age filter.
        assert_eq!(bq.query.preds.len(), 3);
    }

    #[test]
    fn unknown_names_error_clearly() {
        let (cat, reg) = setup();
        for (sql, needle) in [
            ("select bogus from emp", "unknown column"),
            (
                "select sal from emp e, dept d where x.sal > 1",
                "unknown table alias",
            ),
            ("select dno from emp, dept", "ambiguous"),
            ("select sal from ghost", "unknown table"),
        ] {
            let err = bind(&select(sql), &cat, &reg).unwrap_err();
            assert!(err.message().contains(needle), "{sql}: got {err}");
        }
    }

    #[test]
    fn ungrouped_column_with_aggregate_rejected() {
        let (cat, reg) = setup();
        let err = bind(&select("select sal, avg(sal) from emp"), &cat, &reg).unwrap_err();
        assert!(err.message().contains("GROUP BY"));
    }

    #[test]
    fn duplicate_bindings_rejected() {
        let (cat, reg) = setup();
        let err = bind(&select("select e.sal from emp e, dept e"), &cat, &reg).unwrap_err();
        assert!(err.message().contains("duplicate"));
    }

    #[test]
    fn duplicate_aggregates_are_shared() {
        let (cat, reg) = setup();
        let s = select("select dno, avg(sal) from emp group by dno having avg(sal) > 1000");
        let bq = bind(&s, &cat, &reg).unwrap();
        assert_eq!(bq.query.group.as_ref().unwrap().aggs.len(), 1);
    }

    #[test]
    fn plain_view_is_inlined() {
        let (cat, mut reg) = setup();
        let crate::ast::Stmt::CreateView {
            name,
            columns,
            query,
        } = parse(
            "create view young(yeno, ydno, ysal) as select eno, dno, sal from emp where age < 22",
        )
        .unwrap()
        else {
            panic!()
        };
        reg.register(&name, columns, query);
        let s = select("select ysal from young y, dept d where y.ydno = d.dno");
        let bq = bind(&s, &cat, &reg).unwrap();
        assert!(bq.query.views.is_empty(), "plain view merged");
        assert_eq!(bq.query.base_rels.len(), 2);
        // The view's WHERE predicate travelled along.
        assert_eq!(bq.query.preds.len(), 2);
    }

    #[test]
    fn view_output_names_resolve() {
        let (cat, reg) = setup();
        let s = select("select b.Asal from A1 b, emp e1 where e1.dno = b.dno");
        let bq = bind(&s, &cat, &reg).unwrap();
        assert!(bq.query.projection[0].is_agg());
        assert_eq!(bq.column_names, vec!["Asal"]);
    }
}
