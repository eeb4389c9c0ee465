//! Building materialized aggregate-view extents.
//!
//! Every extent row comes out of one plan, the view's *state plan*
//! (`state_plan`): the view's SPJ body (`spj_plan`) under one
//! `Plan::PartialAggregate` grouping on the view's grouping columns and
//! emitting each aggregate's partial-state components — the local phase
//! of Figure 2, computed by the executor's one aggregation node and run
//! through the governed [`Engine`], so a build passes the analyzer gate
//! and is charged against the resource governor like any query. The
//! extent stores those states; the finalized value beside them is an
//! accessor over the components (`extent_row`). A row is the group's
//! keys, then per aggregate the finalized value followed by its
//! components when the function stores state.
//!
//! Incremental maintenance lives in [`crate::delta`]; it runs this
//! module's state plan over the delta and over the groups it must
//! recompute, renders rows the same way, and falls back to a full
//! rebuild ([`build_extent`], also the implementation of
//! `REFRESH MATERIALIZED VIEW`) for views whose aggregates do not all
//! store partial state (STDDEV) or that reference the modified table
//! more than once (self-join delta algebra).

use crate::engine::{Engine, ExecOptions};
use aggview_common::{
    AggFunc, AggRef, AggViewError, Col, PartialAggState, Predicate, RelId, Result, Tuple, Value,
    ViewId,
};
use aggview_core::cost::CostModel;
use aggview_core::governor::ResourceGovernor;
use aggview_core::plan::{PartialAggSpec, Plan};
use aggview_core::query::QueryEnv;
use aggview_storage::matview::extent_schema;
use aggview_storage::{
    stores_partial_state, Catalog, ExtentLayout, MatViewDef, MatViewMeta, Table,
};
use std::borrow::Borrow;
use std::collections::BTreeSet;
use std::sync::Arc;

/// Build (or fully rebuild) the extent of `def`: execute its state plan,
/// render each group as an extent row, store the extent table in the
/// catalog (primary-keyed on the grouping columns) and register or
/// update the view's metadata with the base tables' current data
/// versions — the two as one statement, so the extent is never stored
/// without its stamp. Returns the number of extent rows.
pub fn build_extent(
    def: &MatViewDef,
    catalog: &Catalog,
    model: CostModel,
    options: ExecOptions,
    gov: &ResourceGovernor,
) -> Result<usize> {
    def.validate()?;
    let versions: Vec<u64> = def.tables.iter().map(|t| catalog.data_version(t)).collect();
    let plan = state_plan(def, spj_plan(def)?);
    let env = QueryEnv::new(def.tables.clone());
    let engine = Engine::new(catalog, &env, model).with_options(options);
    let rows: Vec<Tuple> = engine
        .execute_governed(&plan, gov, None)?
        .rows
        .into_iter()
        .map(|r| {
            let (key, states) = read_group(def, r)?;
            extent_row(def, key, &states)
        })
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
/// of join predicates — so a maintenance scan never gathers (or, for
/// strings, interns) a column the aggregation ignores; consumers
/// resolve the result's columns by [`Col`], never by position.
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

/// The view's state plan over `input` — its SPJ plan, or that plan
/// restricted to some rows: one partial aggregate grouping on the view's
/// grouping columns and carrying every aggregate of the view, with no
/// duplicate-factor count. It puts out one row per group: the grouping
/// columns, then each aggregate's partial-state components in order
/// ([`read_group`] takes one apart).
pub(crate) fn state_plan(def: &MatViewDef, input: impl Into<Arc<Plan>>) -> Plan {
    let aggs = def.aggs.iter().enumerate();
    let spec = PartialAggSpec {
        group_cols: def.group_cols.clone(),
        aggs: aggs
            .map(|(i, a)| (AggRef::new(ViewId::Top, i), a.clone()))
            .collect(),
        count: None,
    };
    Plan::partial_aggregate_all(input, spec)
}

/// The state of `func` whose components are `comps`: the empty state
/// merged with them — how a group is read back from the state plan's
/// output and from the extent alike.
pub(crate) fn state_of<V: Borrow<Value>>(func: AggFunc, comps: &[V]) -> Result<PartialAggState> {
    let mut state = PartialAggState::empty(func);
    state.merge_components(comps)?;
    Ok(state)
}

/// One row of the state plan as the group's key and one state per
/// aggregate.
pub(crate) fn read_group(def: &MatViewDef, row: Tuple) -> Result<(Tuple, Vec<PartialAggState>)> {
    let mut key = row.into_values();
    let comps = key.split_off(def.group_cols.len());
    let mut at = 0;
    let states = def.aggs.iter().map(|a| {
        let n = a.func.partial_arity();
        at += n;
        state_of(a.func, comps.get(at - n..at).unwrap_or_default())
    });
    Ok((Tuple::new(key), states.collect::<Result<_>>()?))
}

/// Render one group as its extent row: keys, then per aggregate the
/// finalized value followed by the partial-state components of
/// state-storing functions. Row width matches [`ExtentLayout::of`].
pub(crate) fn extent_row(
    def: &MatViewDef,
    key: Tuple,
    states: &[PartialAggState],
) -> Result<Tuple> {
    let mut vals = key.into_values();
    for (s, a) in states.iter().zip(&def.aggs) {
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
    use crate::delta::{maintain_after_dml, RowDelta};
    use crate::reference;
    use aggview_common::{AggFunc, AggSpec, CmpOp, DataType, Expr, Schema, Value};
    use aggview_core::plan::GroupBySpec;
    use aggview_storage::datagen::{
        gen_empdept, gen_random_catalog, EmpDeptConfig, RandomCatalogConfig,
    };

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
        let delta = RowDelta {
            plus: delta,
            ..RowDelta::default()
        };
        maintain_after_dml("emp", delta, &cat, model, opts, &gov).unwrap();
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
        let delta = RowDelta {
            plus: delta,
            ..RowDelta::default()
        };
        let names = maintain_after_dml("emp", delta, &cat, model, opts, &gov).unwrap();
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

    /// The views the extent oracle builds over a random catalog of
    /// `t0`, `t1` (`id, j1, j2, val`) and `tags` (`id, grp, tag`).
    fn oracle_views() -> Vec<MatViewDef> {
        let (a, b) = (RelId(0), RelId(1));
        let col = |r, c| Expr::col(Col::base(r, c));
        let view =
            |name: &str, tables: &[&str], preds, group_cols: Vec<Col>, aggs: Vec<AggSpec>| {
                let mut column_names: Vec<String> =
                    (0..group_cols.len()).map(|i| format!("k{i}")).collect();
                column_names.extend((0..aggs.len()).map(|i| format!("a{i}")));
                MatViewDef {
                    name: name.into(),
                    tables: tables.iter().map(|t| t.to_string()).collect(),
                    preds,
                    group_cols,
                    aggs,
                    column_names,
                }
            };
        vec![
            // Every function over a float measure, STDDEV included
            // (finalized only: it stores no state).
            view(
                "floats",
                &["t0"],
                vec![],
                vec![Col::base(a, 1)],
                vec![
                    AggSpec::count_star(),
                    AggSpec::new(AggFunc::Count, col(a, 2)),
                    AggSpec::new(AggFunc::Sum, col(a, 3)),
                    AggSpec::new(AggFunc::Avg, col(a, 3)),
                    AggSpec::new(AggFunc::Min, col(a, 3)),
                    AggSpec::new(AggFunc::Max, col(a, 3)),
                    AggSpec::new(AggFunc::StdDev, col(a, 3)),
                ],
            ),
            // Keyless, over integers.
            view(
                "keyless",
                &["t1"],
                vec![],
                vec![],
                vec![
                    AggSpec::new(AggFunc::Sum, col(a, 1)),
                    AggSpec::new(AggFunc::Min, col(a, 2)),
                    AggSpec::new(AggFunc::Max, col(a, 0)),
                    AggSpec::count_star(),
                ],
            ),
            // String MIN/MAX under an integer key, and a string key.
            view(
                "strs",
                &["tags"],
                vec![],
                vec![Col::base(a, 1)],
                vec![
                    AggSpec::new(AggFunc::Min, col(a, 2)),
                    AggSpec::new(AggFunc::Max, col(a, 2)),
                ],
            ),
            view(
                "by_tag",
                &["tags"],
                vec![],
                vec![Col::base(a, 2)],
                vec![AggSpec::new(AggFunc::Max, col(a, 0)), AggSpec::count_star()],
            ),
            // A filtered join grouped on the other relation. Its sums
            // are over integers: exact whichever side the engine builds
            // on, so the pair order may differ from the reference's.
            view(
                "joined",
                &["t0", "t1"],
                vec![
                    Predicate::eq_cols(Col::base(a, 1), Col::base(b, 1)),
                    Predicate::cmp_const(Col::base(a, 3), CmpOp::Lt, Value::Float(600.0)),
                ],
                vec![Col::base(b, 2)],
                vec![
                    AggSpec::count_star(),
                    AggSpec::new(AggFunc::Sum, col(a, 2)),
                    AggSpec::new(AggFunc::Avg, col(a, 0)),
                    AggSpec::new(AggFunc::Min, col(b, 3)),
                    AggSpec::new(AggFunc::Max, col(a, 3)),
                ],
            ),
        ]
    }

    /// Extent rows are what the reference interpreter computes, bit for
    /// bit: its state plan for the components and the view's full
    /// group-by for the finalized values, matched by key.
    #[test]
    fn extent_rows_are_the_reference_state_plan_bit_for_bit() {
        let (model, opts, gov) = exec_env();
        for seed in 0..6 {
            let cat = gen_random_catalog(&RandomCatalogConfig {
                n_tables: 2,
                rows: (5, 150),
                join_domain: (2, 12),
                extra_cols: 0,
                seed,
            })
            .unwrap();
            let schema = Schema::of(&[
                ("id", DataType::Int),
                ("grp", DataType::Int),
                ("tag", DataType::Str),
            ]);
            let mut tags = Table::builder("tags", schema).primary_key(&["id"]).unwrap();
            for id in 0..40 + seed as i64 * 7 {
                let tag = format!("tag-{}", (id * 7 + seed as i64) % 13);
                let row = vec![Value::Int(id), Value::Int(id % 5), Value::str(&tag)];
                tags.push(Tuple::new(row)).unwrap();
            }
            cat.add(tags.build().unwrap()).unwrap();
            for def in oracle_views() {
                build_extent(&def, &cat, model, opts, &gov).unwrap();
                let mut got = cat
                    .get(&MatViewMeta::extent_name(&def.name))
                    .unwrap()
                    .rows();
                got.sort();

                let spj = spj_plan(&def).unwrap();
                let states = reference::evaluate(&state_plan(&def, spj.clone()), &cat).unwrap();
                let full = GroupBySpec {
                    owner: ViewId::Top,
                    group_cols: def.group_cols.clone(),
                    aggs: def.aggs.clone(),
                    having: vec![],
                };
                let finals = reference::evaluate(&Plan::group_by_all(spj, full), &cat).unwrap();
                assert_eq!(states.rows.len(), finals.rows.len());
                let k = def.group_cols.len();
                let mut want: Vec<Tuple> = states
                    .rows
                    .iter()
                    .zip(&finals.rows)
                    .map(|(s, f)| {
                        assert_eq!(s.values()[..k], f.values()[..k]);
                        let mut row = f.values()[..k].to_vec();
                        let mut comps = s.values()[k..].iter();
                        for (i, a) in def.aggs.iter().enumerate() {
                            row.push(f.get(k + i).clone());
                            let these = comps.by_ref().take(a.func.partial_arity());
                            if stores_partial_state(a.func) {
                                row.extend(these.cloned());
                            } else {
                                these.for_each(drop);
                            }
                        }
                        Tuple::new(row)
                    })
                    .collect();
                want.sort();
                assert!(!want.is_empty() || def.name == "joined", "{}", def.name);
                assert_eq!(
                    format!("{got:?}"),
                    format!("{want:?}"),
                    "view `{}`, seed {seed}",
                    def.name
                );
            }
        }
    }
}
