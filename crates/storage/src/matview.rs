//! Materialized aggregate-view extents.
//!
//! A materialized view stores the *result* of an aggregate view (its
//! extent) as an ordinary [`crate::Table`] in the catalog, so the cost
//! model sees row counts, widths and column statistics exactly as it does
//! for base tables. Beyond the finalized aggregate values, the extent
//! also stores the *mergeable partial-aggregate state* of every
//! decomposable aggregate (paper Figure 2: COUNT/SUM/MIN/MAX, AVG as
//! SUM + COUNT) in trailing component columns. Those components are what
//! make the extent useful twice over:
//!
//! * **coarser re-grouping** — a query grouping by a subset of the view's
//!   group columns can coalesce the stored states with a compensating
//!   group-by instead of rescanning base tables, and
//! * **incremental maintenance** — the executor aggregates a delta over
//!   the base tables into partial states with the same node that builds
//!   the extent, and merges them into (or retracts them from) the stored
//!   states of exactly the groups it touches.
//!
//! Non-decomposable aggregates (here: the stand-in `STDDEV` holistic
//! example) store only the finalized value: their extents still answer
//! exact-grouping queries but force a full rebuild on maintenance and
//! disable coarser re-grouping.

use crate::catalog::Catalog;
use aggview_common::{
    AggFunc, AggSpec, AggViewError, Col, DataType, Field, Predicate, Result, Schema,
};

/// True when the extent stores mergeable partial state for this function.
///
/// `STDDEV` plays the paper's "user-defined aggregate" role: although the
/// executor can decompose it internally, we deliberately treat it as
/// holistic at the storage boundary so the negative paths (fall back to
/// inlining; full rebuild on maintenance) stay exercised.
pub fn stores_partial_state(func: AggFunc) -> bool {
    func.is_decomposable() && !matches!(func, AggFunc::StdDev)
}

/// The logical definition of a materialized view, self-contained over a
/// *local* frame: relation `i` of the view body is `Col::base(RelId(i), _)`
/// and refers to base table `tables[i]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatViewDef {
    /// View name (catalog-unique, case-insensitive).
    pub name: String,
    /// Base tables of the view body, in local `RelId` order.
    pub tables: Vec<String>,
    /// Conjunctive predicates over the local frame (joins + selections).
    pub preds: Vec<Predicate>,
    /// Grouping columns over the local frame.
    pub group_cols: Vec<Col>,
    /// Aggregates over the local frame.
    pub aggs: Vec<AggSpec>,
    /// Output column names: one per group column, then one per aggregate.
    pub column_names: Vec<String>,
}

impl MatViewDef {
    /// Validate shape invariants (column-name arity, non-empty body).
    pub fn validate(&self) -> Result<()> {
        if self.tables.is_empty() {
            return Err(AggViewError::Catalog(format!(
                "materialized view `{}` has no base tables",
                self.name
            )));
        }
        let want = self.group_cols.len() + self.aggs.len();
        if self.column_names.len() != want {
            return Err(AggViewError::Catalog(format!(
                "materialized view `{}` declares {} column names for {} outputs",
                self.name,
                self.column_names.len(),
                want
            )));
        }
        if self.aggs.is_empty() {
            return Err(AggViewError::Catalog(format!(
                "materialized view `{}` has no aggregates — use a plain view",
                self.name
            )));
        }
        Ok(())
    }
}

/// Physical positions of one aggregate inside an extent row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AggColumns {
    /// Position of the finalized value.
    pub finalized: usize,
    /// Positions of the partial-state components (empty for aggregates
    /// whose state is not stored; see [`stores_partial_state`]).
    pub components: Vec<usize>,
}

/// Physical layout of an extent table: group-key columns first, then per
/// aggregate the finalized column followed by its component columns.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ExtentLayout {
    /// Number of leading group-key columns.
    pub key_cols: usize,
    /// Per-aggregate column positions, in definition order.
    pub aggs: Vec<AggColumns>,
    /// Total physical arity of an extent row.
    pub width: usize,
}

impl ExtentLayout {
    /// Compute the layout for a definition.
    pub fn of(def: &MatViewDef) -> ExtentLayout {
        let mut next = def.group_cols.len();
        let mut aggs = Vec::with_capacity(def.aggs.len());
        for spec in &def.aggs {
            let finalized = next;
            next += 1;
            let ncomp = if stores_partial_state(spec.func) {
                spec.func.partial_arity()
            } else {
                0
            };
            let components = (next..next + ncomp).collect();
            next += ncomp;
            aggs.push(AggColumns {
                finalized,
                components,
            });
        }
        ExtentLayout {
            key_cols: def.group_cols.len(),
            aggs,
            width: next,
        }
    }
}

/// Catalog metadata for one materialized view: definition, extent table
/// name, physical layout, and the base-table data versions the extent was
/// last built from (the staleness basis).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MatViewMeta {
    pub def: MatViewDef,
    /// Name of the extent table in the catalog (`__mv_<view>`).
    pub extent: String,
    pub layout: ExtentLayout,
    /// `Catalog::data_version` of each base table at build time, in
    /// `def.tables` order.
    pub base_versions: Vec<u64>,
}

impl MatViewMeta {
    /// The conventional extent-table name for a view.
    pub fn extent_name(view: &str) -> String {
        format!("__mv_{}", view.to_ascii_lowercase())
    }

    /// True when any base table has been modified since the extent was
    /// last built or refreshed. Stale extents are skipped by the view
    /// matcher and rejected by the plan analyzer.
    pub fn is_stale(&self, catalog: &Catalog) -> bool {
        self.def
            .tables
            .iter()
            .zip(&self.base_versions)
            .any(|(t, &v)| catalog.data_version(t) != v)
    }

    /// Sentinel base version that can never match a real
    /// `Catalog::data_version` (version counters start at 1 and are
    /// incremented one mutation at a time, so they cannot reach
    /// `u64::MAX`). A quarantined extent is therefore *unconditionally
    /// stale* until an explicit `REFRESH` rebuilds it.
    pub const QUARANTINED: u64 = u64::MAX;

    /// Mark this extent unconditionally stale. Crash recovery applies
    /// this to any view whose recorded base versions cannot be
    /// re-verified against the recovered tables (e.g. the extent table
    /// itself was lost to an unlucky crash): across a crash, a
    /// materialized view may be *demoted* to stale but never promoted
    /// to fresh.
    pub fn quarantine(&mut self) {
        for v in &mut self.base_versions {
            *v = MatViewMeta::QUARANTINED;
        }
    }

    /// True when [`MatViewMeta::quarantine`] has marked this extent.
    pub fn is_quarantined(&self) -> bool {
        self.base_versions.contains(&MatViewMeta::QUARANTINED)
    }
}

/// The extent table's schema: view column names for group keys and
/// finalized aggregates, `__<name>_p<j>` for stored state components.
pub fn extent_schema(def: &MatViewDef, catalog: &Catalog) -> Result<Schema> {
    def.validate()?;
    let col_type = |c: Col| -> DataType {
        match c {
            Col::Base(cr) => {
                let idx = cr.rel.idx();
                let table = def.tables.get(idx).and_then(|name| catalog.get(name).ok());
                match table {
                    Some(t) if (cr.col as usize) < t.schema().len() => {
                        t.schema().field(cr.col as usize).ty
                    }
                    _ => DataType::Int,
                }
            }
            // View bodies are single-block SPJ + group-by: no nested
            // aggregate references can appear.
            _ => DataType::Int,
        }
    };
    let mut fields = Vec::new();
    for (i, g) in def.group_cols.iter().enumerate() {
        fields.push(Field::new(def.column_names[i].clone(), col_type(*g)));
    }
    for (i, spec) in def.aggs.iter().enumerate() {
        let arg_ty = match &spec.arg {
            Some(e) => Some(e.data_type(&|c| col_type(c))?),
            None => None,
        };
        let name = &def.column_names[def.group_cols.len() + i];
        fields.push(Field::new(name.clone(), spec.func.output_type(arg_ty)?));
        if stores_partial_state(spec.func) {
            for (j, ty) in spec.func.partial_types(arg_ty)?.iter().enumerate() {
                fields.push(Field::new(
                    format!("__{}_p{j}", name.to_ascii_lowercase()),
                    *ty,
                ));
            }
        }
    }
    Schema::new(fields)
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{Expr, RelId};
    use std::sync::Arc;

    fn emp_catalog() -> Catalog {
        let c = Catalog::new();
        let t = crate::Table::builder(
            "emp",
            Schema::of(&[
                ("eno", DataType::Int),
                ("dno", DataType::Int),
                ("sal", DataType::Float),
            ]),
        )
        .build()
        .unwrap();
        c.add(t).unwrap();
        let _: Arc<crate::Table> = c.get("emp").unwrap();
        c
    }

    fn avg_def() -> MatViewDef {
        MatViewDef {
            name: "a1".into(),
            tables: vec!["emp".into()],
            preds: vec![],
            group_cols: vec![Col::base(RelId(0), 1)],
            aggs: vec![
                AggSpec::new(AggFunc::Avg, Expr::Col(Col::base(RelId(0), 2))),
                AggSpec::count_star(),
            ],
            column_names: vec!["dno".into(), "asal".into(), "n".into()],
        }
    }

    #[test]
    fn layout_places_components_after_finalized() {
        let l = ExtentLayout::of(&avg_def());
        assert_eq!(l.key_cols, 1);
        // dno, asal, __asal_p0, __asal_p1, n, __n_p0
        assert_eq!(l.aggs[0].finalized, 1);
        assert_eq!(l.aggs[0].components, vec![2, 3]);
        assert_eq!(l.aggs[1].finalized, 4);
        assert_eq!(l.aggs[1].components, vec![5]);
        assert_eq!(l.width, 6);
    }

    #[test]
    fn stddev_stores_no_state() {
        let mut def = avg_def();
        def.aggs[0] = AggSpec::new(AggFunc::StdDev, Expr::Col(Col::base(RelId(0), 2)));
        let l = ExtentLayout::of(&def);
        assert!(l.aggs[0].components.is_empty());
        assert_eq!(l.width, 4); // dno, sd, n, __n_p0
        assert!(!stores_partial_state(AggFunc::StdDev));
        assert!(stores_partial_state(AggFunc::Avg));
    }

    #[test]
    fn extent_schema_types_from_base_tables() {
        let cat = emp_catalog();
        let s = extent_schema(&avg_def(), &cat).unwrap();
        assert_eq!(s.len(), 6);
        assert_eq!(s.field(0).name, "dno");
        assert_eq!(s.field(0).ty, DataType::Int);
        assert_eq!(s.field(1).ty, DataType::Float); // AVG
        assert_eq!(s.field(2).name, "__asal_p0");
        assert_eq!(s.field(2).ty, DataType::Float); // sum component
        assert_eq!(s.field(3).ty, DataType::Int); // count component
        assert_eq!(s.field(5).name, "__n_p0");
    }

    #[test]
    fn validate_rejects_bad_arity() {
        let mut def = avg_def();
        def.column_names.pop();
        assert!(def.validate().is_err());
        assert!(MatViewMeta::extent_name("A1") == "__mv_a1");
    }
}
