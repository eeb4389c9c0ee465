//! A naive reference interpreter for [`Plan`] trees — the oracle the
//! differential tests compare [`crate::Engine`] against.
//!
//! Deliberately the dumbest evaluation that is obviously right: scans
//! copy and filter rows, joins are nested loops evaluating *every*
//! predicate on the concatenated tuple, aggregation keeps one
//! [`PartialAggState`] per aggregate in a `BTreeMap` keyed by the
//! grouping values. No governor, options, hashing, tiles, threads or IO
//! accounting, and no code shared with the engine's kernels — only
//! `aggview_common` values, expressions and aggregate states. `Engine`
//! and `Session` never call it.
//!
//! The result comes back as a [`ResultSet`] (accounting fields zero) so
//! [`crate::verify::assert_equivalent`] can compare it with an engine
//! run; group order is key order, not first-appearance order.

use crate::ResultSet;
use aggview_common::{
    AggFunc, AggRef, AggSpec, AggViewError, Col, PartialAggState, Predicate, Result, Tuple, Value,
};
use aggview_core::plan::Plan;
use aggview_storage::Catalog;
use std::collections::BTreeMap;

/// Evaluate `plan` against `catalog`.
pub fn evaluate(plan: &Plan, catalog: &Catalog) -> Result<ResultSet> {
    let (cols, rows) = eval(plan, catalog)?;
    Ok(ResultSet {
        cols,
        rows,
        io_pages: 0.0,
        breakdown: Vec::new(),
        peak_intermediate_bytes: 0,
    })
}

type Relation = (Vec<Col>, Vec<Tuple>);

fn position(cols: &[Col], c: Col) -> Result<usize> {
    cols.iter()
        .position(|x| *x == c)
        .ok_or_else(|| AggViewError::Plan(format!("reference: column {c} is not available")))
}

fn project(cols: &[Col], rows: Vec<Tuple>, onto: &[Col]) -> Result<Relation> {
    let at: Vec<usize> = onto
        .iter()
        .map(|&c| position(cols, c))
        .collect::<Result<_>>()?;
    let rows = rows.iter().map(|r| r.project(&at)).collect();
    Ok((onto.to_vec(), rows))
}

/// Keep the rows satisfying every predicate of `preds`.
fn select(cols: &[Col], rows: Vec<Tuple>, preds: &[Predicate]) -> Result<Vec<Tuple>> {
    let bound = preds
        .iter()
        .map(|p| p.bind(&|c| cols.iter().position(|x| *x == c)))
        .collect::<Result<Vec<_>>>()?;
    let mut kept = Vec::new();
    'row: for r in rows {
        for p in &bound {
            if !p.eval(&r)? {
                continue 'row;
            }
        }
        kept.push(r);
    }
    Ok(kept)
}

/// The value of aggregate argument `arg` on `row` (`None` = COUNT(*)).
fn arg_value(arg: &AggSpec, cols: &[Col], row: &Tuple) -> Result<Option<Value>> {
    match &arg.arg {
        Some(e) => {
            let bound = e.bind(&|c| cols.iter().position(|x| *x == c))?;
            Ok(Some(bound.eval(row)?))
        }
        None => Ok(None),
    }
}

/// Group `rows` by `group_cols`, folding each row into its group's
/// states with `fold`; groups come back in key order.
fn group(
    cols: &[Col],
    rows: &[Tuple],
    group_cols: &[Col],
    funcs: &[AggFunc],
    mut fold: impl FnMut(&mut [PartialAggState], &Tuple) -> Result<()>,
) -> Result<BTreeMap<Tuple, Vec<PartialAggState>>> {
    let key_at: Vec<usize> = group_cols
        .iter()
        .map(|&c| position(cols, c))
        .collect::<Result<_>>()?;
    let mut groups: BTreeMap<Tuple, Vec<PartialAggState>> = BTreeMap::new();
    for r in rows {
        let states = groups
            .entry(r.project(&key_at))
            .or_insert_with(|| funcs.iter().map(|&f| PartialAggState::empty(f)).collect());
        fold(states, r)?;
    }
    Ok(groups)
}

fn eval(plan: &Plan, catalog: &Catalog) -> Result<Relation> {
    match plan {
        Plan::Scan {
            rel,
            table,
            filters,
            project: onto,
        } => {
            let t = catalog.get(table)?;
            let cols: Vec<Col> = (0..t.schema().len()).map(|c| Col::base(*rel, c)).collect();
            let rows = select(&cols, t.rows(), filters)?;
            project(&cols, rows, onto)
        }
        Plan::ExtentScan {
            table,
            cols: physical,
            outputs,
            filters,
            project: onto,
            ..
        } => {
            let t = catalog.get(table)?;
            let rows: Vec<Tuple> = t.rows().iter().map(|r| r.project(physical)).collect();
            let rows = select(outputs, rows, filters)?;
            project(outputs, rows, onto)
        }
        Plan::Join {
            left,
            right,
            preds,
            project: onto,
            ..
        } => {
            let (mut cols, lrows) = eval(left, catalog)?;
            let (rcols, rrows) = eval(right, catalog)?;
            cols.extend(rcols);
            let pairs = lrows
                .iter()
                .flat_map(|l| rrows.iter().map(move |r| l.concat(r)))
                .collect();
            let rows = select(&cols, pairs, preds)?;
            project(&cols, rows, onto)
        }
        Plan::PartialAggregate {
            input,
            spec,
            project: onto,
            ..
        } => {
            let (cols, rows) = eval(input, catalog)?;
            // The duplicate factor is one more COUNT(*), emitted last.
            let mut aggs: Vec<AggSpec> = spec.aggs.iter().map(|(_, a)| a.clone()).collect();
            aggs.extend(spec.count.map(|_| AggSpec::count_star()));
            let funcs: Vec<AggFunc> = aggs.iter().map(|a| a.func).collect();
            let groups = group(&cols, &rows, &spec.group_cols, &funcs, |states, r| {
                for (s, a) in states.iter_mut().zip(&aggs) {
                    s.update(arg_value(a, &cols, r)?.as_ref())?;
                }
                Ok(())
            })?;
            let mut out_cols = spec.group_cols.clone();
            out_cols.extend(spec.all_part_cols());
            let out_rows = groups
                .into_iter()
                .map(|(key, states)| {
                    let mut v = key.into_values();
                    v.extend(states.iter().flat_map(|s| s.components().iter().cloned()));
                    Tuple::new(v)
                })
                .collect();
            project(&out_cols, out_rows, onto)
        }
        Plan::GroupBy {
            input,
            spec,
            project: onto,
            ..
        } => {
            let (cols, rows) = eval(input, catalog)?;
            // An eager partial aggregate below carries its duplicate
            // factor one aggregate slot past the real ones.
            let dup = Col::part(AggRef::new(spec.owner, spec.aggs.len()), 0);
            let dup_at = cols.iter().position(|c| *c == dup);
            let funcs: Vec<AggFunc> = spec.aggs.iter().map(|a| a.func).collect();
            let groups = group(&cols, &rows, &spec.group_cols, &funcs, |states, r| {
                for (i, (s, a)) in states.iter_mut().zip(&spec.aggs).enumerate() {
                    let part = |k| Col::part(spec.agg_ref(i), k);
                    if cols.contains(&part(0)) {
                        // Merge phase: the input holds this aggregate's state.
                        let comps = (0..a.func.partial_arity())
                            .map(|k| Ok(r.get(position(&cols, part(k))?).clone()))
                            .collect::<Result<Vec<Value>>>()?;
                        s.merge_components(&comps)?;
                        continue;
                    }
                    // A row carrying duplicate factor n stands for n rows.
                    let copies = match dup_at {
                        Some(at) if a.func.is_duplicate_sensitive() => {
                            r.get(at).as_i64().ok_or_else(|| {
                                AggViewError::Exec("reference: non-integer duplicate factor".into())
                            })?
                        }
                        _ => 1,
                    };
                    let v = arg_value(a, &cols, r)?;
                    for _ in 0..copies {
                        s.update(v.as_ref())?;
                    }
                }
                Ok(())
            })?;
            let mut out_cols = spec.group_cols.clone();
            out_cols.extend(spec.agg_cols());
            let mut out_rows = Vec::with_capacity(groups.len());
            for (key, states) in groups {
                let mut v = key.into_values();
                for s in &states {
                    v.push(s.finalize()?);
                }
                out_rows.push(Tuple::new(v));
            }
            let out_rows = select(&out_cols, out_rows, &spec.having)?;
            project(&out_cols, out_rows, onto)
        }
    }
}
