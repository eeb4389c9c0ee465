//! Building and maintaining materialized aggregate-view extents.
//!
//! An extent is built by executing the view's pure SPJ plan (scans with
//! local filters, left-deep joins) through the governed [`Engine`] —
//! the build therefore passes the analyzer gate and is charged against
//! the resource governor like any query — and folding the result rows
//! into a [`GroupTable`]. Each finished group is stored as one extent
//! row: grouping keys, then per aggregate the finalized value followed
//! by its mergeable partial-state components (Figure 2 of the paper)
//! when the function stores state.
//!
//! Incremental maintenance lives in [`crate::delta`]; it shares this
//! module's SPJ plan, fold and row rendering, and falls back to a full
//! rebuild ([`build_extent`], also the implementation of
//! `REFRESH MATERIALIZED VIEW`) for views whose aggregates do not all
//! store partial state (STDDEV) or that reference the modified table
//! more than once (self-join delta algebra).

use crate::engine::{Engine, ExecOptions, ResultSet};
use crate::partition::{AggInput, Group, GroupTable};
use aggview_common::{AggFunc, AggViewError, Col, Predicate, RelId, Result, Tuple};
use aggview_core::cost::CostModel;
use aggview_core::governor::ResourceGovernor;
use aggview_core::plan::Plan;
use aggview_core::query::QueryEnv;
use aggview_storage::matview::extent_schema;
use aggview_storage::{
    stores_partial_state, Catalog, ExtentLayout, MatViewDef, MatViewMeta, Table,
};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Build (or fully rebuild) the extent of `def`: execute its SPJ plan,
/// fold the rows into groups, store the extent table in the catalog
/// (primary-keyed on the grouping columns) and register or update the
/// view's metadata with the base tables' current data versions — the
/// two as one statement, so the extent is never stored without its
/// stamp. Returns the number of extent rows.
pub fn build_extent(
    def: &MatViewDef,
    catalog: &Catalog,
    model: CostModel,
    options: ExecOptions,
    gov: &ResourceGovernor,
) -> Result<usize> {
    def.validate()?;
    let versions: Vec<u64> = def.tables.iter().map(|t| catalog.data_version(t)).collect();
    let plan = spj_plan(def)?;
    let env = QueryEnv::new(def.tables.clone());
    let engine = Engine::new(catalog, &env, model).with_options(options);
    let rs = engine.execute_governed(&plan, gov, None)?;
    let rows: Vec<Tuple> = fold(def, &rs)?
        .groups
        .into_iter()
        .map(|g| row_of(g, def))
        .collect::<Result<_>>()?;
    let n = rows.len();
    let extent = materialize(def, catalog, rows)?;
    let meta = MatViewMeta {
        def: def.clone(),
        extent: MatViewMeta::extent_name(&def.name),
        layout: ExtentLayout::of(def),
        base_versions: versions,
    };
    // Extent and stamp commit together, or neither does.
    catalog.statement(|| {
        catalog.add_or_replace(extent)?;
        catalog.update_matview(meta)
    })?;
    Ok(n)
}

/// `REFRESH MATERIALIZED VIEW`: rebuild a registered view's extent from
/// scratch. Returns the number of extent rows.
pub fn refresh(
    view: &str,
    catalog: &Catalog,
    model: CostModel,
    options: ExecOptions,
    gov: &ResourceGovernor,
) -> Result<usize> {
    let meta = catalog
        .matview(view)
        .ok_or_else(|| AggViewError::Catalog(format!("unknown materialized view `{view}`")))?;
    build_extent(&meta.def, catalog, model, options, gov)
}

/// The view's pure SPJ plan in its local frame: one scan per table
/// (single-relation predicates pushed down as filters), left-deep joins
/// in declaration order, each multi-relation predicate attached to the
/// first join where it becomes evaluable. A scan projects only what the
/// plan above it reads — grouping columns, aggregate arguments, operands
/// of join predicates — so a maintenance scan never transposes (or, for
/// strings, interns) a column the fold ignores; consumers resolve the
/// result's columns by [`Col`], never by position.
pub(crate) fn spj_plan(def: &MatViewDef) -> Result<Plan> {
    let mut local: Vec<Vec<Predicate>> = vec![Vec::new(); def.tables.len()];
    let mut multi: Vec<Predicate> = Vec::new();
    for p in &def.preds {
        let rels: BTreeSet<RelId> = p
            .cols_used()
            .iter()
            .filter_map(|c| match c {
                Col::Base(b) => Some(b.rel),
                _ => None,
            })
            .collect();
        if rels.iter().any(|r| r.idx() >= def.tables.len()) {
            return Err(AggViewError::Plan(format!(
                "view `{}` predicate `{p}` references an undeclared relation",
                def.name
            )));
        }
        match rels.len() {
            0 | 1 => local[rels.first().map_or(0, |r| r.idx())].push(p.clone()),
            _ => multi.push(p.clone()),
        }
    }
    let mut read: BTreeSet<Col> = def.group_cols.iter().copied().collect();
    read.extend(def.aggs.iter().flat_map(|a| a.cols_used()));
    read.extend(multi.iter().flat_map(Predicate::cols_used));
    let scan = |i: usize, filters: Vec<Predicate>| {
        let rel = RelId(i as u32);
        let of_rel = |c: &&Col| matches!(c, Col::Base(b) if b.rel == rel);
        let project = read.iter().filter(of_rel).copied().collect();
        Plan::scan(rel, &def.tables[i], filters, project)
    };
    let mut plan = scan(0, std::mem::take(&mut local[0]));
    let mut have: u64 = RelId(0).bit();
    for (i, filters) in local.iter_mut().enumerate().skip(1) {
        have |= RelId(i as u32).bit();
        let (now, later): (Vec<Predicate>, Vec<Predicate>) = multi.into_iter().partition(|p| {
            p.cols_used().iter().all(|c| match c {
                Col::Base(b) => have & b.rel.bit() != 0,
                _ => false,
            })
        });
        multi = later;
        plan = Plan::join_all(plan, scan(i, std::mem::take(filters)), now);
    }
    if let Some(p) = multi.first() {
        return Err(AggViewError::Plan(format!(
            "view `{}` predicate `{p}` is never evaluable over its declared tables",
            def.name
        )));
    }
    Ok(plan)
}

/// Fold the SPJ result into a [`GroupTable`] keyed on the view's
/// grouping columns, with one raw-input aggregate state per aggregate.
pub(crate) fn fold(def: &MatViewDef, rs: &ResultSet) -> Result<GroupTable> {
    let key_pos: Vec<usize> = def
        .group_cols
        .iter()
        .map(|&c| {
            rs.col_index(c).ok_or_else(|| {
                AggViewError::Exec(format!(
                    "grouping column {c} missing from the view's result"
                ))
            })
        })
        .collect::<Result<_>>()?;
    let mut inputs = Vec::with_capacity(def.aggs.len());
    for a in &def.aggs {
        match &a.arg {
            Some(e) => inputs.push(AggInput::Raw(e.bind(&|c| rs.col_index(c))?)),
            None => inputs.push(AggInput::RawCountStar),
        }
    }
    let funcs: Vec<AggFunc> = def.aggs.iter().map(|a| a.func).collect();
    let mut gt = GroupTable::new();
    for r in &rs.rows {
        gt.accumulate(r, &key_pos, &inputs, &funcs)?;
    }
    Ok(gt)
}

/// Render one finished group as its extent row: keys, then per
/// aggregate the finalized value followed by the partial-state
/// components of state-storing functions. Row width matches
/// [`ExtentLayout::of`].
pub(crate) fn row_of(g: Group, def: &MatViewDef) -> Result<Tuple> {
    let mut vals = g.key.into_values();
    for (s, a) in g.states.iter().zip(&def.aggs) {
        vals.push(s.finalize()?);
        if stores_partial_state(a.func) {
            vals.extend(s.components().iter().cloned());
        }
    }
    Ok(Tuple::new(vals))
}

/// Build the extent table: the schema from the base tables' types, a
/// primary key on the grouping columns (group keys are unique by
/// construction), and one row per group.
pub(crate) fn materialize(
    def: &MatViewDef,
    catalog: &Catalog,
    rows: Vec<Tuple>,
) -> Result<Arc<Table>> {
    let schema = extent_schema(def, catalog)?;
    let mut builder = Table::builder(MatViewMeta::extent_name(&def.name), schema);
    if !def.group_cols.is_empty() {
        let keys: Vec<&str> = def.column_names[..def.group_cols.len()]
            .iter()
            .map(String::as_str)
            .collect();
        builder = builder.primary_key(&keys)?;
    }
    for r in rows {
        builder.push(r)?;
    }
    builder.build()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::delta::maintain_after_dml;
    use aggview_common::{AggSpec, CmpOp, Expr, Value, ZSet};
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn setup() -> Catalog {
        gen_empdept(&EmpDeptConfig {
            n_depts: 6,
            emps_per_dept: 10,
            young_fraction: 0.3,
            low_budget_fraction: 0.5,
            seed: 7,
        })
        .unwrap()
    }

    fn dept_sal_view() -> MatViewDef {
        // SELECT dno, SUM(sal), COUNT(*) FROM emp WHERE age < 30 GROUP BY dno
        // emp(eno, name, dno, sal, age)
        MatViewDef {
            name: "dsal".into(),
            tables: vec!["emp".into()],
            preds: vec![Predicate::cmp_const(
                Col::base(RelId(0), 4),
                CmpOp::Lt,
                Value::Int(30),
            )],
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(0), 3))),
                AggSpec::count_star(),
            ],
            column_names: vec!["dno".into(), "ssal".into(), "n".into()],
        }
    }

    fn exec_env() -> (CostModel, ExecOptions, ResourceGovernor) {
        (
            CostModel::default(),
            ExecOptions::default(),
            ResourceGovernor::unlimited(),
        )
    }

    #[test]
    fn spj_plan_projects_only_what_the_view_reads() {
        // SELECT d.loc, SUM(e.sal) FROM emp e, dept d
        //  WHERE e.dno = d.dno AND e.age < 30 GROUP BY d.loc
        // emp(eno, name, dno, sal, age), dept(dno, dname, budget, loc)
        let (e, d) = (RelId(0), RelId(1));
        let mut def = MatViewDef {
            name: "by_loc".into(),
            tables: vec!["emp".into(), "dept".into()],
            preds: vec![
                Predicate::eq_cols(Col::base(e, 2), Col::base(d, 0)),
                Predicate::cmp_const(Col::base(e, 4), CmpOp::Lt, Value::Int(30)),
            ],
            group_cols: vec![Col::base(d, 3)],
            aggs: vec![AggSpec::new(AggFunc::Sum, Expr::col(Col::base(e, 3)))],
            column_names: vec!["loc".into(), "ssal".into()],
        };
        let Plan::Join { left, right, .. } = spj_plan(&def).unwrap() else {
            panic!("a two-table view joins");
        };
        // Neither string column nobody reads, nor the filter's `age`
        // (the scan evaluates it on the table's own columns).
        assert_eq!(left.output_cols(), [Col::base(e, 2), Col::base(e, 3)]);
        assert_eq!(right.output_cols(), [Col::base(d, 0), Col::base(d, 3)]);

        // A table that only multiplies rows contributes no column at all,
        // and the extent still builds and maintains.
        def.preds.remove(0);
        def.group_cols = vec![Col::base(e, 2)];
        def.column_names[0] = "dno".into();
        let Plan::Join { right, .. } = spj_plan(&def).unwrap() else {
            panic!("a two-table view joins");
        };
        assert!(right.output_cols().is_empty());
        let cat = setup();
        let (model, opts, gov) = exec_env();
        let groups = build_extent(&def, &cat, model, opts, &gov).unwrap();
        assert_eq!(groups, 6);
        let depts = cat.get("dept").unwrap().len() as f64;
        let young: f64 = cat
            .get("emp")
            .unwrap()
            .rows()
            .iter()
            .filter(|r| r.get(2).as_i64() == Some(0) && r.get(4).as_i64() < Some(30))
            .map(|r| r.get(3).as_f64().unwrap())
            .sum();
        let row0 = cat.get("__mv_by_loc").unwrap().rows()[0].clone();
        assert_eq!(row0.get(0), &Value::Int(0));
        let total = row0.get(1).as_f64().unwrap();
        assert!(
            (total - young * depts).abs() < 1e-6,
            "{total} vs {young} x {depts}"
        );
        let delta = vec![Tuple::new(vec![
            Value::Int(9100),
            "new".into(),
            Value::Int(0),
            Value::Float(100.0),
            Value::Int(20),
        ])];
        cat.append_rows("emp", delta.clone()).unwrap();
        let delta = ZSet::from_inserts(delta);
        maintain_after_dml("emp", &delta, &cat, model, opts, &gov, None).unwrap();
        let row0 = cat.get("__mv_by_loc").unwrap().rows()[0].clone();
        let after = row0.get(1).as_f64().unwrap();
        assert!((after - (young + 100.0) * depts).abs() < 1e-6);
    }

    #[test]
    fn insert_past_a_drifted_extent_rebuilds() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        let def = dept_sal_view();
        let n = build_extent(&def, &cat, model, opts, &gov).unwrap();
        assert!(n > 0);
        assert!(!cat.matview("dsal").unwrap().is_stale(&cat));

        // An out-of-band append the extent never saw...
        cat.append_rows(
            "emp",
            vec![Tuple::new(vec![
                Value::Int(9050),
                "kim".into(),
                Value::Int(1),
                Value::Float(2000.0),
                Value::Int(22),
            ])],
        )
        .unwrap();
        assert!(cat.matview("dsal").unwrap().is_stale(&cat));
        // ...followed by a maintained insert: folding only the second
        // delta would launder the first one's staleness, so the round
        // falls back to a full rebuild.
        let delta = vec![Tuple::new(vec![
            Value::Int(9051),
            "ada".into(),
            Value::Int(1),
            Value::Float(900.0),
            Value::Int(24),
        ])];
        cat.append_rows("emp", delta.clone()).unwrap();
        let delta = ZSet::from_inserts(delta);
        let names = maintain_after_dml("emp", &delta, &cat, model, opts, &gov, None).unwrap();
        assert_eq!(names, vec!["dsal".to_string()]);
        assert!(!cat.matview("dsal").unwrap().is_stale(&cat));

        // The rebuilt extent is what a refresh produces.
        let rebuilt = cat.get("__mv_dsal").unwrap().rows();
        assert_eq!(
            refresh("dsal", &cat, model, opts, &gov).unwrap(),
            rebuilt.len()
        );
        assert_eq!(cat.get("__mv_dsal").unwrap().rows(), rebuilt);
    }
}
