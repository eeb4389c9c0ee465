//! Key properties of operator outputs.
//!
//! Definition 1 of the paper makes the deferred group-by group on "a
//! primary key of R2", and notes the key may be omitted "in case the
//! join J1 is a foreign key join". Invariant grouping's soundness
//! likewise rests on the joined relation matching at most one tuple per
//! group. Both need to answer: *what is a key of this plan's output?*

use crate::plan::Plan;
use aggview_common::{Col, DataType, Predicate, RelId, Result};
use aggview_storage::{Catalog, Table};
use std::collections::BTreeSet;
use std::sync::Arc;

/// A key of the plan's output: a set of output columns whose values
/// functionally determine the whole output tuple, with no duplicate
/// combinations. Returns `None` when no key can be derived from the
/// available declarations (e.g. a projection that drops the key).
///
/// Derivation rules:
/// * **Scan** — the table's primary key, if all its columns survive the
///   projection (duplicate-free because the builder enforces PK
///   uniqueness).
/// * **Join** — the union of the children's keys (a tuple of the join is
///   identified by the pair of contributing tuples), if both are
///   derivable and projected.
/// * **GroupBy** — the grouping columns (one output tuple per group), if
///   projected.
/// * **PartialAggregate** — its pushed grouping columns, likewise.
pub fn output_key(plan: &Plan, catalog: &Catalog) -> Result<Option<Vec<Col>>> {
    let key = match plan {
        Plan::Scan { rel, table, .. } => {
            let t = catalog.get(table)?;
            t.primary_key()
                .map(|pk| pk.cols.iter().map(|&c| Col::base(*rel, c)).collect())
        }
        Plan::Join { left, right, .. } => {
            match (output_key(left, catalog)?, output_key(right, catalog)?) {
                (Some(mut l), Some(r)) => {
                    l.extend(r);
                    Some(l)
                }
                _ => None,
            }
        }
        Plan::GroupBy { spec, .. } => Some(spec.group_cols.clone()),
        Plan::PartialAggregate { spec, .. } => Some(spec.group_cols.clone()),
        Plan::ExtentScan {
            table,
            cols,
            outputs,
            ..
        } => {
            // The extent table's primary key is the view's group columns;
            // expose it under the logical identities this scan maps them
            // to, provided every key column is read.
            let t = catalog.get(table)?;
            match t.primary_key() {
                Some(pk) => {
                    let mapped: Vec<Option<Col>> = pk
                        .cols
                        .iter()
                        .map(|k| cols.iter().position(|c| c == k).map(|i| outputs[i]))
                        .collect();
                    if mapped.iter().all(Option::is_some) {
                        Some(mapped.into_iter().flatten().collect())
                    } else {
                        None
                    }
                }
                None => None,
            }
        }
    };
    Ok(key.filter(|k| k.iter().all(|c| plan.output_cols().contains(c))))
}

/// What the left-hand side of a functional dependency determines.
enum Determined {
    /// Every column of one relation instance (a primary key's reach).
    Rel(RelId),
    Cols(Vec<Col>),
    /// The other side of an equality.
    Col(Col),
}

/// The left-hand side of a functional dependency.
enum Lhs<'p> {
    Cols(Vec<Col>),
    Grouping(&'p [Col]),
    Col(Col),
}

impl Lhs<'_> {
    fn cols(&self) -> &[Col] {
        match self {
            Lhs::Cols(cols) => cols,
            Lhs::Grouping(cols) => cols,
            Lhs::Col(c) => std::slice::from_ref(c),
        }
    }
}

/// The functional dependencies a plan proves about its own output, and
/// what [`grouping_determinant`] needs to vet the equalities among them.
#[derive(Default)]
struct Dependencies<'p> {
    fds: Vec<(Lhs<'p>, Determined)>,
    /// `a = b` conjuncts of joins and scan filters, not yet vetted.
    equalities: Vec<(Col, Col)>,
    /// The table behind each scanned relation instance.
    tables: Vec<(RelId, Arc<Table>)>,
    /// Declared types of extent-scan outputs.
    extent_types: Vec<(Col, DataType)>,
}

impl<'p> Dependencies<'p> {
    /// Collect from `plan`'s whole subtree. A dependency proven below
    /// an operator still holds above it: selections and inner joins
    /// only drop or pair rows, and a group-by's output rows take their
    /// grouping values from input rows.
    fn collect(&mut self, plan: &'p Plan, catalog: &Catalog) -> Result<()> {
        match plan {
            Plan::Scan {
                rel,
                table,
                filters,
                ..
            } => {
                let t = catalog.get(table)?;
                if let Some(pk) = t.primary_key() {
                    let key = pk.cols.iter().map(|&c| Col::base(*rel, c)).collect();
                    self.fds.push((Lhs::Cols(key), Determined::Rel(*rel)));
                }
                self.tables.push((*rel, t));
                self.add_equalities(filters);
            }
            Plan::Join {
                left, right, preds, ..
            } => {
                self.collect(left, catalog)?;
                self.collect(right, catalog)?;
                self.add_equalities(preds);
            }
            Plan::GroupBy { input, spec, .. } => {
                self.collect(input, catalog)?;
                self.fds.push((
                    Lhs::Grouping(&spec.group_cols),
                    Determined::Cols(spec.agg_cols()),
                ));
            }
            Plan::PartialAggregate { input, spec, .. } => {
                self.collect(input, catalog)?;
                self.fds.push((
                    Lhs::Grouping(&spec.group_cols),
                    Determined::Cols(spec.all_part_cols()),
                ));
            }
            Plan::ExtentScan {
                table,
                cols,
                outputs,
                filters,
                ..
            } => {
                let t = catalog.get(table)?;
                let logical = |physical: usize| {
                    let at = cols.iter().position(|&c| c == physical)?;
                    outputs.get(at).copied()
                };
                if let Some(key) = t
                    .primary_key()
                    .and_then(|pk| pk.cols.iter().map(|&k| logical(k)).collect())
                {
                    self.fds
                        .push((Lhs::Cols(key), Determined::Cols(outputs.clone())));
                }
                for (&o, &c) in outputs.iter().zip(cols) {
                    if let Some(f) = t.schema().fields().get(c) {
                        self.extent_types.push((o, f.ty));
                    }
                }
                self.add_equalities(filters);
            }
        }
        Ok(())
    }

    /// Note the `a = b` conjuncts of `preds`.
    fn add_equalities(&mut self, preds: &'p [Predicate]) {
        self.equalities
            .extend(preds.iter().filter_map(Predicate::as_col_eq_col));
    }

    fn declared_type(&self, c: Col) -> Option<DataType> {
        match c {
            Col::Base(b) => self
                .tables
                .iter()
                .find(|(rel, _)| *rel == b.rel)
                .and_then(|(_, t)| t.schema().fields().get(b.col as usize))
                .map(|f| f.ty),
            _ => None,
        }
        .or_else(|| {
            let found = self.extent_types.iter().find(|(o, _)| *o == c);
            found.map(|&(_, ty)| ty)
        })
    }

    /// Turn each equality whose two columns are declared one exact type
    /// into a dependency each way. An `Int` and a `Float` column compare
    /// numerically — `Int(2^53 + 1)` equals `Float(2^53)` without being
    /// the only integer that does — so such an equality determines
    /// nothing. Equalities between two `Float` columns are left out too,
    /// conservatively: equal stored floats are bit-identical, but
    /// admitting them would move plans the plan fixtures pin.
    fn admit_equalities(&mut self) {
        for (a, b) in std::mem::take(&mut self.equalities) {
            let exact = match (self.declared_type(a), self.declared_type(b)) {
                (Some(ta), Some(tb)) => ta == tb && ta != DataType::Float,
                _ => false,
            };
            if exact {
                self.fds.push((Lhs::Col(a), Determined::Col(b)));
                self.fds.push((Lhs::Col(b), Determined::Col(a)));
            }
        }
    }

    /// Does the closure of `from` under the dependencies contain `target`?
    /// `used` is scratch space, one flag per dependency.
    fn determines(&self, from: &[Col], target: Col, used: &mut Vec<bool>) -> bool {
        let mut cols: Vec<Col> = from.to_vec();
        let mut rels = 0u64;
        used.clear();
        used.resize(self.fds.len(), false);
        let holds = |c: &Col, cols: &[Col], rels: u64| match c {
            Col::Base(b) if rels & b.rel.bit() != 0 => true,
            _ => cols.contains(c),
        };
        loop {
            if holds(&target, &cols, rels) {
                return true;
            }
            let mut grew = false;
            for (i, (lhs, rhs)) in self.fds.iter().enumerate() {
                if used[i] || !lhs.cols().iter().all(|c| holds(c, &cols, rels)) {
                    continue;
                }
                used[i] = true;
                grew = true;
                match rhs {
                    Determined::Rel(r) => rels |= r.bit(),
                    Determined::Cols(cs) => cols.extend_from_slice(cs),
                    Determined::Col(c) => cols.push(*c),
                }
            }
            if !grew {
                return false;
            }
        }
    }
}

/// A minimal subset of `group_cols` that determines the rest on
/// `input`'s output: two input rows that agree on the returned columns
/// agree on every grouping column, so grouping by the subset and by all
/// of `group_cols` partition the rows identically. Returned in
/// `group_cols` order; the whole list when nothing can be dropped.
///
/// Only dependencies the plan itself proves are used — never
/// statistics:
/// * the declared primary key of a scanned table (or extent) determines
///   every column of that scan;
/// * the grouping columns of an aggregation below determine its outputs;
/// * an `a = b` conjunct of an inner join or scan filter makes each
///   column determine the other, when both are declared the same
///   non-`Float` type.
///
/// Definition 1's pull-up groups on the view's columns, the key of the
/// joined relation and everything carried upward — all of which that key
/// determines. This is the one place the closure lives; the executor's
/// group lookup is its first consumer.
pub fn grouping_determinant(
    group_cols: &[Col],
    input: &Plan,
    catalog: &Catalog,
) -> Result<Vec<Col>> {
    determinant_over(group_cols, [input], std::iter::empty(), catalog)
}

/// [`grouping_determinant`] over `inputs` joined under `preds`, without
/// building the join.
pub(crate) fn determinant_over<'p>(
    group_cols: &[Col],
    inputs: impl IntoIterator<Item = &'p Plan>,
    preds: impl Iterator<Item = &'p Predicate>,
    catalog: &Catalog,
) -> Result<Vec<Col>> {
    let mut kept = group_cols.to_vec();
    if kept.len() < 2 {
        return Ok(kept);
    }
    let mut deps = Dependencies::default();
    for input in inputs {
        deps.collect(input, catalog)?;
    }
    deps.equalities
        .extend(preds.filter_map(Predicate::as_col_eq_col));
    deps.admit_equalities();
    // Later columns go first: the pull-up appends what it carries upward
    // after the key that determines it.
    let mut used = Vec::new();
    for i in (0..kept.len()).rev() {
        let c = kept.remove(i);
        if !deps.determines(&kept, c, &mut used) {
            kept.insert(i, c);
        }
    }
    Ok(kept)
}

/// True when `preds` equate (transitively, via simple equality
/// predicates) a full key of `keyed` with columns available on the other
/// side — i.e. the join is a key join *into* `keyed`: each tuple of the
/// other side matches at most one tuple of `keyed`.
///
/// `keyed_cols` must be the column set produced by the keyed side;
/// `key` its key.
pub fn is_fk_join_into(preds: &[Predicate], key: &[Col], keyed_cols: &BTreeSet<Col>) -> bool {
    if key.is_empty() {
        return false;
    }
    // Columns of the keyed side equated to something on the other side.
    let mut equated: BTreeSet<Col> = BTreeSet::new();
    for p in preds {
        if let Some((a, b)) = p.as_col_eq_col() {
            match (keyed_cols.contains(&a), keyed_cols.contains(&b)) {
                (true, false) => {
                    equated.insert(a);
                }
                (false, true) => {
                    equated.insert(b);
                }
                _ => {}
            }
        }
    }
    key.iter().all(|k| equated.contains(k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{all_cols, GroupBySpec};
    use aggview_common::{AggFunc, AggSpec, DataType, Expr, RelId, Schema, ViewId};
    use aggview_storage::Table;

    fn catalog() -> Catalog {
        let cat = Catalog::new();
        cat.add(
            Table::builder(
                "emp",
                Schema::of(&[
                    ("eno", DataType::Int),
                    ("dno", DataType::Int),
                    ("sal", DataType::Float),
                ]),
            )
            .primary_key(&["eno"])
            .unwrap()
            .build()
            .unwrap(),
        )
        .unwrap();
        cat.add(
            Table::builder("heap", Schema::of(&[("x", DataType::Int)]))
                .build()
                .unwrap(),
        )
        .unwrap();
        cat
    }

    #[test]
    fn scan_key_is_primary_key() {
        let cat = catalog();
        let s = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 3));
        let k = output_key(&s, &cat).unwrap().unwrap();
        assert_eq!(k, vec![Col::base(RelId(0), 0)]);
    }

    #[test]
    fn projection_dropping_key_loses_it() {
        let cat = catalog();
        let s = Plan::scan(RelId(0), "emp", vec![], vec![Col::base(RelId(0), 2)]);
        assert!(output_key(&s, &cat).unwrap().is_none());
    }

    #[test]
    fn heap_table_has_no_key() {
        let cat = catalog();
        let s = Plan::scan(RelId(1), "heap", vec![], all_cols(RelId(1), 1));
        assert!(output_key(&s, &cat).unwrap().is_none());
    }

    #[test]
    fn join_key_is_union_of_child_keys() {
        let cat = catalog();
        let a = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 3));
        let b = Plan::scan(RelId(2), "emp", vec![], all_cols(RelId(2), 3));
        let j = Plan::join_all(a, b, vec![]);
        let k = output_key(&j, &cat).unwrap().unwrap();
        assert_eq!(k, vec![Col::base(RelId(0), 0), Col::base(RelId(2), 0)]);
    }

    #[test]
    fn group_by_key_is_grouping_columns() {
        let cat = catalog();
        let s = Plan::scan(RelId(0), "emp", vec![], all_cols(RelId(0), 3));
        let g = Plan::group_by_all(
            s,
            GroupBySpec {
                owner: ViewId::View(0),
                group_cols: vec![Col::base(RelId(0), 1)],
                aggs: vec![AggSpec::new(
                    AggFunc::Avg,
                    Expr::col(Col::base(RelId(0), 2)),
                )],
                having: vec![],
            },
        );
        let k = output_key(&g, &cat).unwrap().unwrap();
        assert_eq!(k, vec![Col::base(RelId(0), 1)]);
    }

    #[test]
    fn fk_join_detection() {
        let key = vec![Col::base(RelId(1), 0)];
        let keyed_cols: BTreeSet<Col> = (0..3).map(|c| Col::base(RelId(1), c)).collect();
        let preds = vec![Predicate::eq_cols(
            Col::base(RelId(0), 1),
            Col::base(RelId(1), 0),
        )];
        assert!(is_fk_join_into(&preds, &key, &keyed_cols));
        // Join on a non-key column is not a key join.
        let preds2 = vec![Predicate::eq_cols(
            Col::base(RelId(0), 1),
            Col::base(RelId(1), 2),
        )];
        assert!(!is_fk_join_into(&preds2, &key, &keyed_cols));
        // Empty key set never qualifies.
        assert!(!is_fk_join_into(&preds, &[], &keyed_cols));
    }

    #[test]
    fn composite_key_needs_all_columns_equated() {
        let key = vec![Col::base(RelId(1), 0), Col::base(RelId(1), 1)];
        let keyed_cols: BTreeSet<Col> = (0..3).map(|c| Col::base(RelId(1), c)).collect();
        let one = vec![Predicate::eq_cols(
            Col::base(RelId(0), 0),
            Col::base(RelId(1), 0),
        )];
        assert!(!is_fk_join_into(&one, &key, &keyed_cols));
        let both = vec![
            Predicate::eq_cols(Col::base(RelId(0), 0), Col::base(RelId(1), 0)),
            Predicate::eq_cols(Col::base(RelId(0), 1), Col::base(RelId(1), 1)),
        ];
        assert!(is_fk_join_into(&both, &key, &keyed_cols));
    }
}
