//! Typed bottom-up schema inference over plan trees.
//!
//! Strictly stronger than [`Plan::validate`]: besides column
//! availability (every consumed column produced below, scan filters
//! local, HAVING restricted to group keys and own aggregates), this
//! pass infers a [`DataType`] for every column an operator emits and
//! checks aggregate input types, partial-state component types, and
//! predicate comparability.

use super::Violation;
use crate::plan::Plan;
use aggview_common::{AggFunc, Col, DataType, Expr, Predicate};
use aggview_storage::Catalog;
use std::collections::BTreeMap;

pub(crate) const RULE: &str = "schema";

/// A map from every column a node outputs to its inferred type.
type TypeMap = BTreeMap<Col, DataType>;

/// Run the pass, appending one violation per defect found.
pub(crate) fn check(
    plan: &Plan,
    catalog: &Catalog,
    rel_tables: Option<&[String]>,
    out: &mut Vec<Violation>,
) {
    let _ = typed_cols(plan, catalog, rel_tables, out);
}

fn push(out: &mut Vec<Violation>, message: String) {
    out.push(Violation::new(RULE, message));
}

/// Infer the node's output types; `None` when a child failed so badly
/// that nothing upward can be typed (its defects are already recorded).
fn typed_cols(
    plan: &Plan,
    catalog: &Catalog,
    rel_tables: Option<&[String]>,
    out: &mut Vec<Violation>,
) -> Option<TypeMap> {
    match plan {
        Plan::EmptyScan { project, types, .. } => {
            // The pruned subtree's layout was recorded at rewrite time;
            // the dataflow pass cross-checks it against the catalog.
            let mut map = TypeMap::new();
            for (c, ty) in project.iter().zip(types) {
                map.insert(*c, *ty);
            }
            if types.len() != project.len() {
                push(
                    out,
                    format!(
                        "empty scan records {} types for {} projected columns",
                        types.len(),
                        project.len()
                    ),
                );
                return None;
            }
            Some(map)
        }
        Plan::Scan {
            rel,
            table,
            filters,
            project,
        } => {
            let t = match catalog.get(table) {
                Ok(t) => t,
                Err(e) => {
                    push(out, format!("scan of {rel}: {}", e.message()));
                    return None;
                }
            };
            if let Some(tables) = rel_tables {
                match tables.get(rel.idx()) {
                    Some(declared) if declared.eq_ignore_ascii_case(table) => {}
                    Some(declared) => push(
                        out,
                        format!(
                            "scan of {rel} names table `{table}` but the query binds {rel} \
                             to `{declared}`"
                        ),
                    ),
                    None => push(
                        out,
                        format!("scan of undeclared relation {rel} (table `{table}`)"),
                    ),
                }
            }
            let mut avail = TypeMap::new();
            for (i, f) in t.schema().fields().iter().enumerate() {
                avail.insert(Col::base(*rel, i), f.ty);
            }
            for p in filters {
                check_predicate(p, &avail, &format!("scan filter on {rel}"), out);
            }
            project_types(project, &avail, &format!("scan of {rel}"), out)
        }
        Plan::ExtentScan {
            view,
            table,
            cols,
            outputs,
            filters,
            project,
            ..
        } => {
            let who = format!("extent scan of `{view}`");
            let t = match catalog.get(table) {
                Ok(t) => t,
                Err(e) => {
                    push(out, format!("{who}: {}", e.message()));
                    return None;
                }
            };
            if cols.len() != outputs.len() {
                push(
                    out,
                    format!(
                        "{who} maps {} physical columns to {} outputs",
                        cols.len(),
                        outputs.len()
                    ),
                );
                return None;
            }
            let mut avail = TypeMap::new();
            for (&c, &o) in cols.iter().zip(outputs) {
                match t.schema().fields().get(c) {
                    Some(f) => {
                        avail.insert(o, f.ty);
                    }
                    None => push(
                        out,
                        format!(
                            "{who} reads column {c} of the {}-column extent `{table}`",
                            t.schema().len()
                        ),
                    ),
                }
            }
            for p in filters {
                check_predicate(p, &avail, &format!("extent-scan filter on `{view}`"), out);
            }
            project_types(project, &avail, &who, out)
        }
        Plan::Join {
            left,
            right,
            preds,
            project,
            ..
        } => {
            let l = typed_cols(left, catalog, rel_tables, out);
            let r = typed_cols(right, catalog, rel_tables, out);
            if left.rel_set() & right.rel_set() != 0 {
                push(out, "join children overlap in base relations".into());
            }
            let (mut avail, r) = match (l, r) {
                (Some(l), Some(r)) => (l, r),
                _ => return None,
            };
            avail.extend(r);
            for p in preds {
                check_predicate(p, &avail, "join predicate", out);
            }
            project_types(project, &avail, "join", out)
        }
        Plan::GroupBy {
            input,
            spec,
            project,
            ..
        } => {
            let child = typed_cols(input, catalog, rel_tables, out)?;
            let who = format!("group-by {}", spec.owner);
            let mut avail = TypeMap::new();
            for g in &spec.group_cols {
                match child.get(g) {
                    Some(&ty) => {
                        avail.insert(*g, ty);
                    }
                    None => push(
                        out,
                        format!("{who} groups on {g}, which its input does not produce"),
                    ),
                }
            }
            for (i, a) in spec.aggs.iter().enumerate() {
                let aref = spec.agg_ref(i);
                let out_ty = if child.contains_key(&Col::part(aref, 0)) {
                    // Coalescing: the input carries partial states for
                    // this aggregate; every component must be present,
                    // and the output type comes from the decomposition.
                    let arity = a.func.partial_arity();
                    let missing: Vec<usize> = (0..arity)
                        .filter(|&k| !child.contains_key(&Col::part(aref, k)))
                        .collect();
                    if !missing.is_empty() {
                        for k in missing {
                            push(
                                out,
                                format!(
                                    "{who} coalesces {aref} but its input misses partial \
                                     component {k}"
                                ),
                            );
                        }
                        None
                    } else {
                        match a.func {
                            AggFunc::Count => Some(DataType::Int),
                            AggFunc::Sum | AggFunc::Min | AggFunc::Max => {
                                child.get(&Col::part(aref, 0)).copied()
                            }
                            AggFunc::Avg | AggFunc::StdDev => Some(DataType::Float),
                        }
                    }
                } else {
                    let arg_ty = match &a.arg {
                        Some(e) => {
                            match expr_type(
                                e,
                                &child,
                                &format!("aggregate `{a}` of {}", spec.owner),
                                out,
                            ) {
                                Some(t) => Some(t),
                                None => continue,
                            }
                        }
                        None => None,
                    };
                    match a.func.output_type(arg_ty) {
                        Ok(t) => Some(t),
                        Err(e) => {
                            push(
                                out,
                                format!("aggregate `{a}` of {}: {}", spec.owner, e.message()),
                            );
                            None
                        }
                    }
                };
                if let Some(t) = out_ty {
                    avail.insert(Col::agg(spec.owner, i), t);
                }
            }
            for h in &spec.having {
                check_predicate(h, &avail, &format!("HAVING of {}", spec.owner), out);
            }
            project_types(project, &avail, &who, out)
        }
        Plan::PartialAggregate {
            input,
            spec,
            project,
            ..
        } => {
            let child = typed_cols(input, catalog, rel_tables, out)?;
            let mut avail = TypeMap::new();
            for g in &spec.group_cols {
                match child.get(g) {
                    Some(&ty) => {
                        avail.insert(*g, ty);
                    }
                    None => push(
                        out,
                        format!(
                            "partial aggregate groups on {g}, which its input does not produce"
                        ),
                    ),
                }
            }
            for (aref, a) in &spec.aggs {
                if !a.func.is_decomposable() {
                    push(
                        out,
                        format!("partial aggregate decomposes non-decomposable aggregate `{a}`"),
                    );
                    continue;
                }
                let arg_ty = match &a.arg {
                    Some(e) => {
                        match expr_type(e, &child, &format!("partial aggregate `{a}`"), out) {
                            Some(t) => Some(t),
                            None => continue,
                        }
                    }
                    None => None,
                };
                match a.func.partial_types(arg_ty) {
                    Ok(tys) => {
                        for (k, t) in tys.into_iter().enumerate() {
                            avail.insert(Col::part(*aref, k), t);
                        }
                    }
                    Err(e) => push(out, format!("partial aggregate `{a}`: {}", e.message())),
                }
            }
            // The duplicate-factor column is a per-group COUNT(*): Int.
            if let Some(c) = spec.count_col() {
                avail.insert(c, DataType::Int);
            }
            project_types(project, &avail, "partial aggregate", out)
        }
    }
}

/// Resolve the projection against the available typed columns.
fn project_types(
    project: &[Col],
    avail: &TypeMap,
    who: &str,
    out: &mut Vec<Violation>,
) -> Option<TypeMap> {
    let mut map = TypeMap::new();
    for c in project {
        match avail.get(c) {
            Some(&ty) => {
                map.insert(*c, ty);
            }
            None => push(
                out,
                format!("{who} projects {c}, which it does not produce"),
            ),
        }
    }
    Some(map)
}

/// Type an expression against the available columns; `None` (with a
/// recorded violation) when a column is missing or the arithmetic is
/// ill-typed.
fn expr_type(e: &Expr, avail: &TypeMap, ctx: &str, out: &mut Vec<Violation>) -> Option<DataType> {
    for c in e.cols_used() {
        if !avail.contains_key(&c) {
            push(out, format!("{ctx} reads {c}, which is not available here"));
            return None;
        }
    }
    match e.data_type(&|c| avail[&c]) {
        Ok(t) => Some(t),
        Err(err) => {
            push(out, format!("{ctx}: {}", err.message()));
            None
        }
    }
}

/// Type both sides of a predicate and require them comparable: same
/// type, or both numeric.
fn check_predicate(p: &Predicate, avail: &TypeMap, ctx: &str, out: &mut Vec<Violation>) {
    let label = format!("{ctx} `{p}`");
    let lt = expr_type(&p.left, avail, &label, out);
    let rt = expr_type(&p.right, avail, &label, out);
    if let (Some(l), Some(r)) = (lt, rt) {
        let comparable = l == r || (l.is_numeric() && r.is_numeric());
        if !comparable {
            push(out, format!("{label} compares {l} with {r}"));
        }
    }
}
