//! Name resolution and lowering to the canonical query form.
//!
//! The binder turns a parsed [`SelectStmt`] into a
//! [`CanonicalQuery`] (the paper's Figure 3):
//!
//! * base tables in FROM become outer-block relations `B1..Bn`;
//! * references to registered **aggregate views** and to the catalog's
//!   **materialized views** become [`ViewDef`]s `Q1..Qm` (a registered
//!   body is bound in its own scope; a materialized view's definition is
//!   moved from its local frame into the query's);
//! * registered **non-aggregate views** are merged into the referencing
//!   block — the "traditional reduction to a single block query" the
//!   paper contrasts with;
//! * scalar aggregate subqueries in WHERE are **flattened** into
//!   additional aggregate views plus join predicates
//!   ([`crate::flatten`]);
//! * a GROUP BY / aggregate select list becomes the top group-by `G0`.
//!
//! Every group-by block — the top block, an aggregate view's body and a
//! materialized view's body — is bound by one function, `bind_grouped`.
//!
//! DML is bound here too, by the same name rules: an UPDATE or DELETE as
//! `select … from <table>` would be (`bind_dml`), and `INSERT … VALUES`
//! rows as scalars over no columns (`bind_values`).

use crate::ast::{AstExpr, AstPred, FromItem, OrderKey, SelectItem, SelectStmt};
use crate::flatten::flatten_subquery;
use aggview_common::expr::BoundExpr;
use aggview_common::predicate::BoundPredicate;
use aggview_common::{AggFunc, AggSpec, AggViewError, Col, Expr, Predicate, RelId, Result, ViewId};
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

/// Add the base table a FROM item names to `env` as a new relation, and
/// the scope that exposes its columns under the item's binding name.
pub(crate) fn table_scope(
    catalog: &Catalog,
    env: &mut QueryEnv,
    item: &FromItem,
) -> Result<(RelId, Scope)> {
    let table = catalog.get(&item.name)?;
    let rel = env.add_rel(table.name().to_string());
    let outputs = table
        .schema()
        .fields()
        .iter()
        .enumerate()
        .map(|(i, f)| (f.name.clone(), Col::base(rel, i)))
        .collect();
    let name = item.binding_name().to_ascii_lowercase();
    Ok((rel, Scope { name, outputs }))
}

/// Bind a SELECT statement against a catalog and view registry.
///
/// The canonical query is not validated here: the optimizer validates
/// every query it is handed, bound or built by hand, as its first step.
pub fn bind(stmt: &SelectStmt, catalog: &Catalog, views: &ViewRegistry) -> Result<BoundQuery> {
    let mut b = Binder::new(catalog, views);
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

impl<'a> Binder<'a> {
    fn new(catalog: &'a Catalog, registry: &'a ViewRegistry) -> Self {
        Binder {
            catalog,
            registry,
            env: QueryEnv::default(),
            scopes: Vec::new(),
            view_defs: Vec::new(),
            base_rels: Vec::new(),
            preds: Vec::new(),
        }
    }

    /// Bind each FROM item: a registered view, else a materialized view
    /// of the catalog, else a base table.
    fn bind_from(&mut self, from: &[FromItem]) -> Result<()> {
        for item in from {
            let binding = item.binding_name().to_ascii_lowercase();
            if self.scopes.iter().any(|s| s.name == binding) {
                return Err(AggViewError::Bind(format!(
                    "duplicate FROM binding `{binding}`"
                )));
            }
            let registry = self.registry;
            let outputs = if let Some(view) = registry.get(&item.name) {
                if is_aggregate_view(&view.query) {
                    self.bind_aggregate_view(&item.name, view)?
                } else {
                    self.inline_plain_view(&item.name, view)?
                }
            } else if let Some(meta) = self.catalog.matview(&item.name) {
                self.bind_catalog_view(&meta.def)
            } else {
                let (rel, scope) = table_scope(self.catalog, &mut self.env, item)?;
                self.base_rels.push(rel);
                scope.outputs
            };
            self.scopes.push(Scope {
                name: binding,
                outputs,
            });
        }
        Ok(())
    }

    /// Add the relations of a view body's FROM list — base tables only
    /// (the paper's Section 2: every aggregate view is a single-block
    /// query) — and return them with their scopes.
    fn body_scopes(&mut self, from: &[FromItem]) -> Result<(Vec<RelId>, Vec<Scope>)> {
        let mut rels = Vec::with_capacity(from.len());
        let mut scopes = Vec::with_capacity(from.len());
        for item in from {
            if self.registry.get(&item.name).is_some() || self.catalog.matview(&item.name).is_some()
            {
                return Err(AggViewError::Bind(format!(
                    "view bodies must reference base tables only (found view `{}`)",
                    item.name
                )));
            }
            let (rel, scope) = table_scope(self.catalog, &mut self.env, item)?;
            rels.push(rel);
            scopes.push(scope);
        }
        Ok((rels, scopes))
    }

    /// Bind an aggregate view's body in its own scope, producing a
    /// `ViewDef`; returns the outputs the view exposes.
    fn bind_aggregate_view(
        &mut self,
        name: &str,
        view: &RegisteredView,
    ) -> Result<Vec<(String, Col)>> {
        let q = &view.query;
        let (rels, scopes) = self.body_scopes(&q.from)?;
        let preds = bind_body_preds(&q.where_preds, &scopes)?;
        let index = self.view_defs.len() as u32;
        let g = bind_grouped(
            &q.items,
            &q.group_by,
            &q.having,
            &scopes,
            ViewId::View(index),
        )?;
        let names = view_column_names(name, view.columns.as_deref(), &q.items)?;
        self.view_defs.push(ViewDef {
            index,
            rels,
            preds,
            group_cols: g.group_cols,
            aggs: g.aggs,
            having: g.having,
        });
        Ok(names.into_iter().zip(g.items).collect())
    }

    /// Bind a materialized view of the catalog: its definition, moved
    /// from its local frame (relation `i` is `def.tables[i]`) onto new
    /// relations of the query. Returns the outputs the view exposes.
    fn bind_catalog_view(&mut self, def: &MatViewDef) -> Vec<(String, Col)> {
        let rels: Vec<RelId> = def
            .tables
            .iter()
            .map(|t| self.env.add_rel(t.clone()))
            .collect();
        let frame = |c: Col| match c {
            Col::Base(b) => Col::base(rels[b.rel.idx()], b.col as usize),
            other => other,
        };
        let aggs = def.aggs.iter().map(|a| AggSpec {
            func: a.func,
            arg: a.arg.as_ref().map(|e| e.map_cols(&frame)),
        });
        let view = ViewDef {
            index: self.view_defs.len() as u32,
            preds: def.preds.iter().map(|p| p.map_cols(&frame)).collect(),
            group_cols: def.group_cols.iter().map(|&c| frame(c)).collect(),
            aggs: aggs.collect(),
            having: Vec::new(),
            rels,
        };
        let outputs = def.column_names.iter().cloned();
        let outputs = outputs.zip(view.exported_cols()).collect();
        self.view_defs.push(view);
        outputs
    }

    /// Merge a non-aggregate view into the outer block; returns the
    /// outputs the view exposes.
    fn inline_plain_view(
        &mut self,
        name: &str,
        view: &RegisteredView,
    ) -> Result<Vec<(String, Col)>> {
        let q = &view.query;
        let (rels, scopes) = self.body_scopes(&q.from)?;
        self.base_rels.extend(rels);
        self.preds.extend(bind_body_preds(&q.where_preds, &scopes)?);
        let names = view_column_names(name, view.columns.as_deref(), &q.items)?;
        let mut outputs = Vec::with_capacity(names.len());
        for (name, item) in names.into_iter().zip(&q.items) {
            match bind_scalar(&item.expr, &scopes)? {
                Expr::Col(c) => outputs.push((name, c)),
                other => {
                    return Err(AggViewError::Bind(format!(
                        "non-column view output `{other}` is not supported"
                    )))
                }
            }
        }
        Ok(outputs)
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
        items: &[SelectItem],
        group_by: &[AstExpr],
        having: &[AstPred],
    ) -> Result<(Option<TopGroup>, Vec<Col>, Vec<String>)> {
        let names = items
            .iter()
            .enumerate()
            .map(|(i, item)| output_name(item, i))
            .collect();
        let grouped =
            !group_by.is_empty() || !having.is_empty() || items.iter().any(|i| i.expr.has_agg());
        if grouped {
            let g = bind_grouped(items, group_by, having, &self.scopes, ViewId::Top)?;
            let group = TopGroup {
                group_cols: g.group_cols,
                aggs: g.aggs,
                having: g.having,
            };
            return Ok((Some(group), g.items, names));
        }
        let mut projection = Vec::with_capacity(items.len());
        for item in items {
            match bind_scalar(&item.expr, &self.scopes)? {
                Expr::Col(c) => projection.push(c),
                other => {
                    return Err(AggViewError::Bind(format!(
                        "select item `{other}` must be a column \
                         (computed projections are not supported)"
                    )))
                }
            }
        }
        Ok((None, projection, names))
    }
}

/// A group-by block's GROUP BY, select list and HAVING, bound.
struct Grouped {
    group_cols: Vec<Col>,
    /// Each distinct aggregate once, in order of first mention: the
    /// select list, then HAVING.
    aggs: Vec<AggSpec>,
    having: Vec<Predicate>,
    /// One column per select item: a grouping column, or
    /// `Col::agg(owner, i)` for `aggs[i]`.
    items: Vec<Col>,
}

/// Bind one group-by block over `scopes`: GROUP BY columns, a select
/// list of grouping columns and aggregates, and HAVING over both. The
/// aggregates are outputs of the group-by `owner`.
fn bind_grouped(
    items: &[SelectItem],
    group_by: &[AstExpr],
    having: &[AstPred],
    scopes: &[Scope],
    owner: ViewId,
) -> Result<Grouped> {
    let mut group_cols = Vec::with_capacity(group_by.len());
    for g in group_by {
        match bind_scalar(g, scopes)? {
            Expr::Col(c) => group_cols.push(c),
            other => {
                return Err(AggViewError::Bind(format!(
                    "GROUP BY expression `{other}` must be a column"
                )))
            }
        }
    }
    let mut aggs = Vec::new();
    let mut cols = Vec::with_capacity(items.len());
    for item in items {
        let col = match &item.expr {
            AstExpr::Agg { func, arg } => {
                bind_agg(*func, arg.as_deref(), scopes, &mut aggs, owner)?
            }
            e => match bind_scalar(e, scopes)? {
                Expr::Col(c) if group_cols.contains(&c) => c,
                Expr::Col(_) => {
                    return Err(AggViewError::Bind(format!(
                        "select item `{e}` must appear in GROUP BY"
                    )))
                }
                other => {
                    return Err(AggViewError::Bind(format!(
                        "select item `{other}` must be a column or aggregate"
                    )))
                }
            },
        };
        cols.push(col);
    }
    let mut having_preds = Vec::with_capacity(having.len());
    for p in having {
        having_preds.push(Predicate::new(
            bind_scalar_with_aggs(&p.left, scopes, &mut aggs, owner)?,
            p.op,
            bind_scalar_with_aggs(&p.right, scopes, &mut aggs, owner)?,
        ));
    }
    Ok(Grouped {
        group_cols,
        aggs,
        having: having_preds,
        items: cols,
    })
}

/// The names a view gives its select items: its column list where the
/// list reaches, else an item's alias, else the column an item names,
/// else `colN`. A column list longer than the select list is an error.
pub(crate) fn view_column_names(
    view: &str,
    columns: Option<&[String]>,
    items: &[SelectItem],
) -> Result<Vec<String>> {
    let columns = columns.unwrap_or_default();
    if columns.len() > items.len() {
        return Err(AggViewError::Bind(format!(
            "view `{view}` names {} columns but its select list has {}",
            columns.len(),
            items.len()
        )));
    }
    let name = |(i, item): (usize, &SelectItem)| {
        columns
            .get(i)
            .or(item.alias.as_ref())
            .cloned()
            .or_else(|| match &item.expr {
                AstExpr::Col { name, .. } => Some(name.clone()),
                _ => None,
            })
            .unwrap_or_else(|| format!("col{}", i + 1))
    };
    Ok(items.iter().enumerate().map(name).collect())
}

fn output_name(item: &SelectItem, i: usize) -> String {
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

/// A view body's WHERE conjunction: plain predicates, no aggregates or
/// subqueries.
fn bind_body_preds(preds: &[AstPred], scopes: &[Scope]) -> Result<Vec<Predicate>> {
    let bind = |p: &AstPred| {
        let left = bind_scalar(&p.left, scopes)?;
        Ok(Predicate::new(left, p.op, bind_scalar(&p.right, scopes)?))
    };
    preds.iter().map(bind).collect()
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

/// The output column of the group-by `owner` an aggregate call names,
/// registering its spec in `aggs` unless an equal one is there.
fn bind_agg(
    func: AggFunc,
    arg: Option<&AstExpr>,
    scopes: &[Scope],
    aggs: &mut Vec<AggSpec>,
    owner: ViewId,
) -> Result<Col> {
    let spec = AggSpec {
        func,
        arg: arg.map(|a| bind_scalar(a, scopes)).transpose()?,
    };
    let idx = aggs.iter().position(|a| *a == spec).unwrap_or_else(|| {
        aggs.push(spec);
        aggs.len() - 1
    });
    Ok(Col::agg(owner, idx))
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
        AstExpr::Agg { func, arg } => Ok(Expr::Col(bind_agg(
            *func,
            arg.as_deref(),
            scopes,
            aggs,
            owner,
        )?)),
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
/// views, bound as an aggregate view's body is, in a binder of their
/// own (so the FROM list numbers relations from 0). On top of that: no
/// HAVING, ORDER BY or LIMIT; each grouping column and aggregate is
/// selected exactly once (the grouping columns become the extent's
/// key); key columns are named first.
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
    let mut b = Binder::new(catalog, registry);
    let (_, scopes) = b.body_scopes(&query.from)?;
    let preds = bind_body_preds(&query.where_preds, &scopes)?;
    let owner = ViewId::View(0);
    let g = bind_grouped(&query.items, &query.group_by, &[], &scopes, owner)?;
    let names = view_column_names(name, columns, &query.items)?;
    for (i, c) in g.items.iter().enumerate() {
        if let Some(j) = g.items[..i].iter().position(|d| d == c) {
            return Err(AggViewError::Bind(format!(
                "materialized view `{name}` selects the same value twice \
                 (columns `{}` and `{}`)",
                names[j], names[i]
            )));
        }
    }
    let keys = g.group_cols.iter().copied();
    let outputs = keys.chain((0..g.aggs.len()).map(|i| Col::agg(owner, i)));
    let mut column_names = Vec::with_capacity(names.len());
    for (i, c) in outputs.enumerate() {
        let Some(at) = g.items.iter().position(|&d| d == c) else {
            return Err(AggViewError::Bind(format!(
                "grouping column {} of materialized view `{name}` must \
                 appear in the select list",
                i + 1
            )));
        };
        column_names.push(names[at].clone());
    }
    let def = MatViewDef {
        name: name.to_string(),
        tables: b.env.rel_tables,
        preds,
        group_cols: g.group_cols,
        aggs: g.aggs,
        column_names,
    };
    def.validate()?;
    Ok(def)
}

/// A single-table UPDATE or DELETE, bound over its table's rows (base
/// column `i` at position `i`): the WHERE conjunction, and each SET
/// target's position with the expression computing its new value from
/// the old row.
pub(crate) struct BoundDml {
    pub preds: Vec<BoundPredicate>,
    pub sets: Vec<(usize, BoundExpr)>,
}

/// Bind an UPDATE (`sets`) or a DELETE (no `sets`) of `table`. Names
/// resolve as in `select … from table`: WHERE is a view body's
/// conjunction, each SET right-hand side a scalar, and no column may be
/// SET twice.
pub(crate) fn bind_dml(
    catalog: &Catalog,
    table: &str,
    sets: &[(String, AstExpr)],
    preds: &[AstPred],
) -> Result<BoundDml> {
    let item = FromItem {
        name: table.to_string(),
        alias: None,
    };
    let (_, scope) = table_scope(catalog, &mut QueryEnv::default(), &item)?;
    let scopes = [scope];
    let row = |c: Col| c.as_base().map(|b| b.col as usize);
    let preds = bind_body_preds(preds, &scopes)?;
    let preds = preds.iter().map(|p| p.bind(&row)).collect::<Result<_>>()?;
    let mut bound: Vec<(usize, BoundExpr)> = Vec::with_capacity(sets.len());
    for (name, e) in sets {
        let pos = row(resolve_col(None, name, &scopes)?)
            .ok_or_else(|| AggViewError::Bind(format!("cannot SET `{name}`")))?;
        if bound.iter().any(|(p, _)| *p == pos) {
            return Err(AggViewError::Bind(format!(
                "column `{name}` is SET more than once"
            )));
        }
        bound.push((pos, bind_scalar(e, &scopes)?.bind(&row)?));
    }
    Ok(BoundDml { preds, sets: bound })
}

/// Bind `INSERT … VALUES` rows: each value is a scalar over no columns.
pub(crate) fn bind_values(rows: &[Vec<AstExpr>]) -> Result<Vec<Vec<BoundExpr>>> {
    let value = |e: &AstExpr| bind_scalar(e, &[])?.bind(&|_| None);
    rows.iter().map(|r| r.iter().map(value).collect()).collect()
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

    /// A materialized view's body bound as an aggregate view of the
    /// registry, and its definition read back from the catalog, are one
    /// `ViewDef` exposing the same columns under the same names.
    #[test]
    fn catalog_and_registry_bind_a_matview_alike() {
        use aggview_core::{cost::CostModel, governor::ResourceGovernor};
        use aggview_executor::{matview::build_extent, ExecOptions};
        let (cat, _) = setup();
        for (ddl, cols) in [
            (
                "create materialized view dept_pay(dno, total, n) as \
                 select dno, sum(sal), count(*) from emp group by dno",
                "v.dno, total, n",
            ),
            (
                "create materialized view dept_range(dno, lo, hi, n) as \
                 select dno, min(sal), max(sal), count(*) from emp group by dno",
                "lo, hi, v.dno, n",
            ),
            (
                "create materialized view young_avg(dno, asal) as \
                 select dno, avg(sal) from emp where age < 30 group by dno",
                "asal, v.dno",
            ),
        ] {
            let crate::ast::Stmt::CreateMaterializedView {
                name,
                columns,
                query,
            } = parse(ddl).unwrap()
            else {
                panic!()
            };
            let def = bind_matview(
                &name,
                columns.as_deref(),
                &query,
                &cat,
                &ViewRegistry::new(),
            );
            let gov = ResourceGovernor::unlimited();
            let opts = ExecOptions::default();
            build_extent(&def.unwrap(), &cat, CostModel::default(), opts, &gov).unwrap();
            let mut reg = ViewRegistry::new();
            reg.register(&name, columns, query);
            let sql = format!("select {cols} from emp e, {name} v where e.dno = v.dno");
            let from_catalog = bind(&select(&sql), &cat, &ViewRegistry::new()).unwrap();
            let from_registry = bind(&select(&sql), &cat, &reg).unwrap();
            assert_eq!(from_catalog.query.views.len(), 1, "{name}");
            assert_eq!(
                from_catalog.query.views, from_registry.query.views,
                "{name}"
            );
            assert_eq!(
                from_catalog.query.projection, from_registry.query.projection,
                "{name}"
            );
            assert_eq!(
                from_catalog.query.env.rel_tables, from_registry.query.env.rel_tables,
                "{name}"
            );
        }
    }

    #[test]
    fn a_view_column_list_longer_than_the_select_list_is_rejected() {
        let (cat, mut reg) = setup();
        for body in [
            "select dno, avg(sal) from emp group by dno",
            "select dno, sal from emp",
        ] {
            let crate::ast::Stmt::CreateView {
                name,
                columns,
                query,
            } = parse(&format!("create view v(a, b, c) as {body}")).unwrap()
            else {
                panic!()
            };
            reg.register(&name, columns, query);
            let err = bind(&select("select a from v"), &cat, &reg).unwrap_err();
            assert!(matches!(err, AggViewError::Bind(_)), "{body}: {err}");
            assert!(
                err.message()
                    .contains("names 3 columns but its select list has 2"),
                "{body}: {err}"
            );
        }
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
