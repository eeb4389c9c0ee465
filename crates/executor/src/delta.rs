//! Delta maintenance of materialized aggregate-view extents.
//!
//! The one incremental maintenance path: a [`RowDelta`] on one base
//! table — the rows a DML statement removed from it (*minus*) and the
//! rows it added (*plus*): INSERT adds, DELETE removes, UPDATE removes
//! each changed row's old version and adds its new one — is folded into
//! the extent of a view over it, at a cost proportional to
//! the delta and the groups it touches — the extent as a whole is never
//! read, rebuilt or logged. Every aggregation of a round is one governed
//! run of the view's state plan (`matview::state_plan`: its SPJ body
//! under the executor's one partial-aggregation node):
//!
//! 1. **Admission** — the view references the modified table exactly
//!    once, every aggregate stores partial state, the recorded base
//!    versions are exactly one mutation behind on the modified table
//!    and current elsewhere; anything else falls back to a full rebuild
//!    ([`crate::matview::build_extent`]).
//! 2. **Delta propagation** — the state plan runs over the plus and
//!    over the minus rows, each against a catalog
//!    in which the modified table is the delta rows alone (other base
//!    tables joined as-is — sound because the modified table occurs
//!    once, so `Δ(R ⋈ S) = ΔR ⋈ S`). Validation, the analyzer and
//!    admission read that catalog too, so the floors and domains they
//!    derive describe the delta.
//! 3. **Merge and retraction** — the stored partial states of exactly
//!    the groups either side names are loaded from the extent by key
//!    ([`aggview_storage::Table::find_key`]); plus states coalesce into
//!    them ([`aggview_common::PartialAggState::merge`]), minus states
//!    *retract* ([`aggview_common::PartialAggState::retract_components`]).
//!    COUNT/SUM/AVG subtract exactly; MIN/MAX retracting a non-extremum
//!    are exact, retracting the stored extremum reports
//!    [`Retraction::NeedsRecompute`]. Impossible retractions (evidence
//!    of drift) abandon the incremental path and rebuild.
//! 4. **Group recompute & deletion** — groups needing recompute (MIN/MAX
//!    extremum retraction, or any retraction in a view with no COUNT/AVG
//!    aggregate to witness emptiness) are re-aggregated from the current
//!    base tables by one run of the state plan over the SPJ plan joined
//!    to the queued keys — a semijoin, so only the touched groups' rows
//!    reach the aggregation; groups whose count component reaches zero —
//!    or that the recompute finds no rows for — are deleted.
//! 5. **Patch** — the round becomes one positional
//!    [`aggview_storage::RowPatch`] against the extent (rows updated in
//!    place, rows deleted, rows appended), applied together with the
//!    new base-version stamp by [`Catalog::patch_extent`]: one small WAL
//!    record, one critical section. Everything before this step only
//!    reads, so an error or budget abort leaves the old extent intact.
//!    Inside a [`Catalog::statement`] (every SQL statement) that error
//!    rolls the base-table change back too; called after a base change
//!    that already committed, it leaves the view stale — never torn.
//!
//! The module also exposes the base-table → dependent-view
//! [`DependencyGraph`] (REPL `.deps`), and the [`maintain_after_dml`]
//! round driver, which folds the delta into each dependent view and
//! rebuilds the views whose round was refused.

use crate::engine::{Engine, ExecOptions};
use crate::matview;
use aggview_common::{
    AggFunc, AggViewError, Col, PartialAggState, Predicate, RelId, Result, Retraction, Schema,
    Tuple,
};
use aggview_core::cost::CostModel;
use aggview_core::governor::ResourceGovernor;
use aggview_core::plan::Plan;
use aggview_core::query::QueryEnv;
use aggview_storage::{stores_partial_state, Catalog, MatViewDef, MatViewMeta, RowPatch, Table};
use std::collections::{BTreeMap, HashMap};
use std::sync::Arc;

/// Which base tables feed which materialized views.
///
/// Views depend only on base tables (view bodies are self-contained
/// SPJ-plus-group-by — never other views), so invalidation order is
/// single level: a base-table mutation dirties exactly its dependent
/// views, which are maintained in registration (name) order.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DependencyGraph {
    /// `table → sorted dependent view names`, sorted by table.
    pub edges: Vec<(String, Vec<String>)>,
}

impl DependencyGraph {
    /// Render as indented text (REPL `.deps`).
    pub fn render(&self) -> String {
        if self.edges.is_empty() {
            return "no materialized views registered\n".to_string();
        }
        let mut out = String::new();
        for (table, views) in &self.edges {
            out.push_str(table);
            out.push('\n');
            for v in views {
                out.push_str("  └─ ");
                out.push_str(v);
                out.push('\n');
            }
        }
        out
    }
}

/// Build the dependency graph from the catalog's registered views.
pub fn dependency_graph(catalog: &Catalog) -> DependencyGraph {
    let mut map: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for name in catalog.matview_names() {
        if let Some(meta) = catalog.matview(&name) {
            for t in &meta.def.tables {
                map.entry(t.to_ascii_lowercase())
                    .or_default()
                    .push(meta.def.name.clone());
            }
        }
    }
    for views in map.values_mut() {
        views.sort();
        views.dedup();
    }
    DependencyGraph {
        edges: map.into_iter().collect(),
    }
}

/// The rows one DML statement removed from a base table and the rows it
/// added. A row both removed and added — an UPDATE that wrote it back
/// unchanged — is in neither list.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RowDelta {
    pub minus: Vec<Tuple>,
    pub plus: Vec<Tuple>,
}

impl RowDelta {
    /// The delta of an UPDATE from its `(old, new)` row pairs; a pair
    /// whose new row equals the old one changed nothing and is dropped.
    pub fn of_updates(pairs: Vec<(Tuple, Tuple)>) -> RowDelta {
        let (minus, plus) = pairs.into_iter().filter(|(old, new)| old != new).unzip();
        RowDelta { minus, plus }
    }
}

/// Maintain every registered view that references `table` after `delta`
/// has been applied to the base table: retractable incremental
/// maintenance where admissible, full rebuild otherwise. Returns the
/// names of the views maintained.
pub fn maintain_after_dml(
    table: &str,
    delta: RowDelta,
    catalog: &Catalog,
    model: CostModel,
    options: ExecOptions,
    gov: &ResourceGovernor,
) -> Result<Vec<String>> {
    let mut maintained = Vec::new();
    let views = catalog.matviews_on(table);
    if views.is_empty() {
        return Ok(maintained);
    }
    let delta = DeltaTables::new(table, delta, catalog)?;
    for meta in views {
        if !fold_delta(&meta, &delta, catalog, model, options, gov)? {
            matview::build_extent(&meta.def, catalog, model, options, gov)?;
        }
        maintained.push(meta.def.name);
    }
    Ok(maintained)
}

/// A delta on one base table, built once for every view over it: the
/// plus and the minus rows, each held as a table of the base table's
/// name and schema — what a view's state plan reads in place of
/// the base table. Building a table analyzes its rows, so validation,
/// the analyzer and admission derive their floors and domains from the
/// delta.
pub struct DeltaTables {
    table: String,
    /// `None` for a side without rows.
    plus: Option<Arc<Table>>,
    minus: Option<Arc<Table>>,
}

impl DeltaTables {
    /// Hold `delta`, a delta on base table `table` of `catalog`.
    pub fn new(table: &str, delta: RowDelta, catalog: &Catalog) -> Result<DeltaTables> {
        let base = catalog.get(table)?;
        let side = |rows: Vec<Tuple>| -> Result<Option<Arc<Table>>> {
            if rows.is_empty() {
                return Ok(None);
            }
            let mut builder = Table::builder(base.name(), base.schema().clone());
            for r in rows {
                builder.push(r)?;
            }
            builder.build().map(Some)
        };
        Ok(DeltaTables {
            table: table.to_string(),
            plus: side(delta.plus)?,
            minus: side(delta.minus)?,
        })
    }

    fn is_empty(&self) -> bool {
        self.plus.is_none() && self.minus.is_none()
    }
}

/// One group of a round: its key, its states, and its extent row.
struct TouchedGroup {
    key: Tuple,
    states: Vec<PartialAggState>,
    /// The group's position and row in the extent; `None` for a group
    /// new to it.
    stored: Option<(usize, Tuple)>,
    recompute: bool,
    dead: bool,
}

impl TouchedGroup {
    fn new(key: Tuple, states: Vec<PartialAggState>, stored: Option<(usize, Tuple)>) -> Self {
        TouchedGroup {
            key,
            states,
            stored,
            recompute: false,
            dead: false,
        }
    }
}

/// Incrementally fold a delta into the extent of the view `meta`
/// describes. Returns `Ok(false)` — extent untouched —
/// when the view is inadmissible for incremental maintenance or the
/// delta's evidence contradicts the stored state (either way the caller
/// rebuilds); `Ok(true)` when the extent now reflects the delta and its
/// recorded versions are current.
pub fn fold_delta(
    meta: &MatViewMeta,
    delta: &DeltaTables,
    catalog: &Catalog,
    model: CostModel,
    options: ExecOptions,
    gov: &ResourceGovernor,
) -> Result<bool> {
    let (def, table) = (&meta.def, delta.table.as_str());
    let occurrences = def
        .tables
        .iter()
        .filter(|t| t.eq_ignore_ascii_case(table))
        .count();
    if occurrences != 1 || !def.aggs.iter().all(|a| stores_partial_state(a.func)) {
        return Ok(false);
    }

    // Version gate: the extent absorbs exactly this delta only if the
    // modified table is one version past the recorded build and every
    // other base is unchanged. Any other drift means the extent is
    // missing rows this delta does not carry; merging anyway would stamp
    // it fresh while silently wrong. A DML statement that matched no
    // rows bumps nothing — then the extent is already current and there
    // is nothing to fold.
    let versions: Vec<u64> = def.tables.iter().map(|t| catalog.data_version(t)).collect();
    let recorded = &meta.base_versions;
    let untouched = recorded.iter().zip(&versions).all(|(&r, &c)| c == r);
    if delta.is_empty() && untouched {
        return Ok(true);
    }
    let in_sync =
        def.tables
            .iter()
            .zip(recorded)
            .zip(&versions)
            .all(|((name, &recorded), &current)| {
                if name.eq_ignore_ascii_case(table) {
                    current == recorded + 1
                } else {
                    current == recorded
                }
            });
    if !in_sync {
        return Ok(false);
    }

    // Propagate the delta through the view's state plan: the plus and
    // minus rows each come out as per-group partial states. (An empty
    // delta — an UPDATE to identical values bumped the version — runs
    // nothing and ends as an empty patch that only restamps.)
    let exec = Exec {
        def,
        model,
        options,
        gov,
    };
    let spj = Arc::new(matview::spj_plan(def)?);
    let plan = matview::state_plan(def, Arc::clone(&spj));
    let plus = exec.over_delta(&plan, delta.plus.as_ref(), catalog)?;
    let minus = exec.over_delta(&plan, delta.minus.as_ref(), catalog)?;

    // The groups either side names — and only those — with their states
    // loaded from the extent, or new to it from the plus side.
    let extent = catalog.get(&meta.extent)?;
    let stored = |key: &Tuple| -> Result<Option<TouchedGroup>> {
        // A view without grouping columns has one keyless extent row.
        let at = if def.group_cols.is_empty() {
            (!extent.is_empty()).then_some(0)
        } else {
            extent.find_key(key)
        };
        let Some(at) = at else { return Ok(None) };
        gov.charge_rows(1)?;
        let row = extent.row(at);
        let states = meta.layout.aggs.iter().zip(&def.aggs).map(|(cols, a)| {
            let comps: Vec<&_> = cols.components.iter().map(|&c| row.get(c)).collect();
            matview::state_of(a.func, &comps)
        });
        let states = states.collect::<Result<_>>()?;
        Ok(Some(TouchedGroup::new(
            key.clone(),
            states,
            Some((at, row)),
        )))
    };
    let mut groups: Vec<TouchedGroup> = Vec::new();
    let mut slot_of: HashMap<Tuple, usize> = HashMap::new();
    for (key, theirs) in plus {
        let g = match stored(&key)? {
            Some(mut g) => {
                for (mine, theirs) in g.states.iter_mut().zip(&theirs) {
                    mine.merge(theirs)?;
                }
                g
            }
            None => TouchedGroup::new(key.clone(), theirs, None),
        };
        slot_of.insert(key, groups.len());
        groups.push(g);
    }

    // Retract the minus groups. A COUNT or AVG aggregate witnesses group
    // emptiness through its count component; without one, every group
    // the minus side touches must be recomputed to learn whether it
    // still exists.
    let count_src = def
        .aggs
        .iter()
        .position(|a| matches!(a.func, AggFunc::Count | AggFunc::Avg));
    for (key, theirs) in minus {
        gov.charge_rows(1)?;
        let slot = match slot_of.get(&key) {
            Some(&slot) => slot,
            // Retracting from a group the extent never had: the delta
            // contradicts the stored state — rebuild.
            None => match stored(&key)? {
                Some(g) => {
                    slot_of.insert(key, groups.len());
                    groups.push(g);
                    groups.len() - 1
                }
                None => return Ok(false),
            },
        };
        let g = &mut groups[slot];
        let mut needs_recompute = count_src.is_none();
        for (mine, theirs) in g.states.iter_mut().zip(&theirs) {
            match mine.retract_components(theirs.components()) {
                Ok(Retraction::Retracted) => {}
                Ok(Retraction::NeedsRecompute) => needs_recompute = true,
                // Impossible retraction (below zero, beyond extremum):
                // stored state and delta disagree — rebuild.
                Err(_) => return Ok(false),
            }
        }
        // A group whose count component reached zero is dead.
        if !needs_recompute {
            match count_src.and_then(|ci| g.states[ci].count_component()) {
                Some(0) => g.dead = true,
                Some(_) => {}
                None => needs_recompute = true,
            }
        }
        g.recompute = needs_recompute;
    }

    // Targeted recompute: one governed run over the *current* base
    // tables, reading the queued groups' rows only. Keys it finds no
    // rows for are dead groups.
    let queued: Vec<Tuple> = groups
        .iter()
        .filter(|g| g.recompute)
        .map(|g| g.key.clone())
        .collect();
    if !queued.is_empty() {
        for g in groups.iter_mut().filter(|g| g.recompute) {
            g.dead = true;
        }
        for (key, states) in exec.recompute(spj, extent.schema(), queued, catalog)? {
            let g = slot_of.get(&key).map(|&slot| &mut groups[slot]);
            let Some(g) = g.filter(|g| g.recompute) else {
                return Err(AggViewError::Exec(format!(
                    "recompute of view `{}` returned group {key} it was not asked for",
                    def.name
                )));
            };
            g.states = states;
            g.dead = false;
        }
    }

    // The round as a patch against the extent: surviving groups replace
    // their row (or append one), dead groups delete theirs.
    let mut patch = RowPatch::default();
    for g in groups {
        if g.dead {
            patch.deletes.extend(g.stored.map(|(at, _)| at));
            continue;
        }
        let row = matview::extent_row(def, g.key, &g.states)?;
        gov.charge_output(1, row.width() as u64)?;
        match g.stored {
            Some((_, old)) if old == row => {}
            Some((at, _)) => patch.updates.push((at, row)),
            None => patch.inserts.push(row),
        }
    }
    patch.updates.sort_by_key(|(at, _)| *at);
    patch.deletes.sort_unstable();
    // Holding the extent across the commit would force it to be copied.
    drop(extent);
    // Stamp the versions verified above, not a re-read (a concurrent
    // mutation between the gate and here must leave the extent stale).
    catalog.patch_extent(&def.name, patch, versions)?;
    Ok(true)
}

#[cfg(test)]
thread_local! {
    /// Recompute runs made on this thread, for the tests that count them.
    static RECOMPUTE_RUNS: std::cell::Cell<usize> = const { std::cell::Cell::new(0) };
}

/// What every run of one round shares: the view, and how to execute.
struct Exec<'a> {
    def: &'a MatViewDef,
    model: CostModel,
    options: ExecOptions,
    gov: &'a ResourceGovernor,
}

impl Exec<'_> {
    /// Run the state plan `plan` over `catalog` — relation `i` bound to
    /// `rel_tables[i]` — and read its groups back.
    fn groups(
        &self,
        plan: &Plan,
        catalog: &Catalog,
        rel_tables: Vec<String>,
    ) -> Result<Vec<(Tuple, Vec<PartialAggState>)>> {
        let env = QueryEnv::new(rel_tables);
        let engine = Engine::new(catalog, &env, self.model).with_options(self.options);
        let rs = engine.execute_governed(plan, self.gov, None)?;
        let groups = rs
            .rows
            .into_iter()
            .map(|r| matview::read_group(self.def, r));
        groups.collect()
    }

    /// The state plan's groups over one side of a delta, read as the
    /// whole of its base table (nothing for a side without rows).
    fn over_delta(
        &self,
        plan: &Plan,
        rows: Option<&Arc<Table>>,
        catalog: &Catalog,
    ) -> Result<Vec<(Tuple, Vec<PartialAggState>)>> {
        let Some(rows) = rows else {
            return Ok(Vec::new());
        };
        let tmp = self.scratch_catalog(catalog, Arc::clone(rows))?;
        self.groups(plan, &tmp, self.def.tables.clone())
    }

    /// Re-aggregate exactly the groups `keys` from the current base
    /// tables: one run of the state plan over the SPJ plan `spj` joined
    /// to `keys` — distinct keys, typed as the extent's key columns
    /// (`extent`), so the inner join on them is a semijoin: only rows of
    /// the queued groups reach the aggregation, and each one once. A
    /// keyless view recomputes its one group.
    fn recompute(
        &self,
        spj: Arc<Plan>,
        extent: &Schema,
        keys: Vec<Tuple>,
        catalog: &Catalog,
    ) -> Result<Vec<(Tuple, Vec<PartialAggState>)>> {
        #[cfg(test)]
        RECOMPUTE_RUNS.with(|n| n.set(n.get() + 1));
        let def = self.def;
        if def.group_cols.is_empty() {
            let plan = matview::state_plan(def, spj);
            return self.groups(&plan, catalog, def.tables.clone());
        }
        // The relation is named after the extent it patches, which no
        // view body reads.
        let name = MatViewMeta::extent_name(&def.name);
        let fields = extent.fields().get(..def.group_cols.len());
        let fields = fields.ok_or_else(|| {
            AggViewError::Exec(format!("extent of view `{}` lacks its keys", def.name))
        })?;
        let mut builder = Table::builder(name.clone(), Schema::new(fields.to_vec())?);
        for k in keys {
            builder.push(k)?;
        }
        let rel = RelId(def.tables.len() as u32);
        let key_cols: Vec<Col> = (0..def.group_cols.len())
            .map(|i| Col::base(rel, i))
            .collect();
        let on = def.group_cols.iter().zip(&key_cols);
        let on = on.map(|(&g, &k)| Predicate::eq_cols(g, k)).collect();
        let project = spj.output_cols().to_vec();
        let keys = Plan::scan(rel, &name, vec![], key_cols);
        let plan = matview::state_plan(def, Plan::join(spj, keys, on, project));
        let tmp = self.scratch_catalog(catalog, builder.build()?)?;
        let mut rel_tables = def.tables.clone();
        rel_tables.push(name);
        self.groups(&plan, &tmp, rel_tables)
    }

    /// A catalog of `own` and the view's other base tables as `catalog`
    /// holds them: what a run over the delta or the queued keys reads,
    /// and so what validation, the analyzer and admission see.
    fn scratch_catalog(&self, catalog: &Catalog, own: Arc<Table>) -> Result<Catalog> {
        let tmp = Catalog::new();
        tmp.add(own)?;
        for name in &self.def.tables {
            if !tmp.contains(name) {
                tmp.add(catalog.get(name)?)?;
            }
        }
        Ok(tmp)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{AggSpec, CmpOp, Col, DataType, Expr, Predicate, RelId, Schema, Value};
    use aggview_storage::MatViewDef;

    /// A small emp/dept catalog with **binary-exact** salaries
    /// (multiples of 12.5): float SUM/AVG retraction is then exact
    /// arithmetic, so incremental maintenance must be byte-identical to
    /// a refresh. 5 departments × 8 employees; even slots are young
    /// (age < 30).
    fn setup() -> Catalog {
        let cat = Catalog::new();
        let mut e = Table::builder(
            "emp",
            Schema::of(&[
                ("eno", DataType::Int),
                ("name", DataType::Str),
                ("dno", DataType::Int),
                ("sal", DataType::Float),
                ("age", DataType::Int),
            ]),
        )
        .primary_key(&["eno"])
        .unwrap();
        let mut eno = 0i64;
        for dno in 0..5i64 {
            for k in 0..8i64 {
                let sal = 1000.0 + (dno * 8 + k) as f64 * 12.5;
                let age = if k % 2 == 0 { 22 + k } else { 31 + k };
                e.push(emp(eno, dno, sal, age)).unwrap();
                eno += 1;
            }
        }
        cat.add(e.build().unwrap()).unwrap();
        let mut d = Table::builder(
            "dept",
            Schema::of(&[
                ("dno", DataType::Int),
                ("dname", DataType::Str),
                ("budget", DataType::Float),
            ]),
        )
        .primary_key(&["dno"])
        .unwrap();
        for dno in 0..5i64 {
            d.push(Tuple::new(vec![
                Value::Int(dno),
                Value::Str(format!("d{dno}").into()),
                Value::Float(1000.0 * (dno + 1) as f64),
            ]))
            .unwrap();
        }
        cat.add(d.build().unwrap()).unwrap();
        cat
    }

    fn exec_env() -> (CostModel, ExecOptions, ResourceGovernor) {
        (
            CostModel::default(),
            ExecOptions::default(),
            ResourceGovernor::unlimited(),
        )
    }

    /// SELECT dno, SUM(sal), COUNT(*) FROM emp GROUP BY dno —
    /// emp(eno, name, dno, sal, age).
    fn sum_count_view(name: &str) -> MatViewDef {
        MatViewDef {
            name: name.into(),
            tables: vec!["emp".into()],
            preds: vec![],
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![
                AggSpec::new(AggFunc::Sum, Expr::col(Col::base(RelId(0), 3))),
                AggSpec::count_star(),
            ],
            column_names: vec!["dno".into(), "ssal".into(), "n".into()],
        }
    }

    /// SELECT dno, MIN(sal), COUNT(*) FROM emp GROUP BY dno.
    fn min_view(name: &str) -> MatViewDef {
        MatViewDef {
            name: name.into(),
            tables: vec!["emp".into()],
            preds: vec![],
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![
                AggSpec::new(AggFunc::Min, Expr::col(Col::base(RelId(0), 3))),
                AggSpec::count_star(),
            ],
            column_names: vec!["dno".into(), "msal".into(), "n".into()],
        }
    }

    fn emp(eno: i64, dno: i64, sal: f64, age: i64) -> Tuple {
        Tuple::new(vec![
            Value::Int(eno),
            Value::Str(format!("e{eno}").into()),
            Value::Int(dno),
            Value::Float(sal),
            Value::Int(age),
        ])
    }

    /// One unbudgeted incremental round on `view` for a delta on `emp`;
    /// false when the round was refused (the caller would rebuild).
    fn maintained(view: &str, delta: &RowDelta, cat: &Catalog) -> bool {
        let (model, opts, gov) = exec_env();
        let meta = cat.matview(view).unwrap();
        let delta = DeltaTables::new("emp", delta.clone(), cat).unwrap();
        fold_delta(&meta, &delta, cat, model, opts, &gov).unwrap()
    }

    fn inserts(rows: Vec<Tuple>) -> RowDelta {
        RowDelta {
            plus: rows,
            ..RowDelta::default()
        }
    }

    fn deletes(rows: Vec<Tuple>) -> RowDelta {
        RowDelta {
            minus: rows,
            ..RowDelta::default()
        }
    }

    fn extent_sorted(cat: &Catalog, view: &str) -> Vec<Tuple> {
        let meta = cat.matview(view).unwrap();
        let mut rows = cat.get(&meta.extent).unwrap().rows();
        rows.sort();
        rows
    }

    /// Refresh must agree with whatever incremental maintenance left.
    fn assert_matches_refresh(cat: &Catalog, view: &str) {
        let (model, opts, gov) = exec_env();
        let incremental = extent_sorted(cat, view);
        matview::refresh(view, cat, model, opts, &gov).unwrap();
        assert_eq!(incremental, extent_sorted(cat, view), "view `{view}`");
    }

    #[test]
    fn insert_only_delta_merges_creates_and_filters() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        // SELECT dno, SUM(sal), COUNT(*) FROM emp WHERE age < 30 GROUP BY dno
        let mut def = sum_count_view("young");
        def.preds = vec![Predicate::cmp_const(
            Col::base(RelId(0), 4),
            CmpOp::Lt,
            Value::Int(30),
        )];
        matview::build_extent(&def, &cat, model, opts, &gov).unwrap();
        let before = cat.get("__mv_young").unwrap().rows();
        // One row joins a stored group, one opens a new group, one fails
        // the view's filter.
        let rows = vec![
            emp(9001, 0, 1250.0, 25),
            emp(9002, 77, 500.0, 20),
            emp(9003, 1, 9000.0, 40),
        ];
        cat.append_rows("emp", rows.clone()).unwrap();
        assert!(cat.matview("young").unwrap().is_stale(&cat));
        assert!(
            maintained("young", &inserts(rows), &cat),
            "insert-only deltas merge incrementally"
        );
        assert!(!cat.matview("young").unwrap().is_stale(&cat));
        // A patch, not a rebuild: the merged group is replaced at its
        // own position, untouched rows keep theirs, the new group is
        // appended — exactly two rows changed.
        let after = cat.get("__mv_young").unwrap().rows();
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(after[0].get(0), &Value::Int(0));
        assert_ne!(after[0], before[0]);
        assert_eq!(after[1..before.len()], before[1..]);
        assert_eq!(after[before.len()].get(0), &Value::Int(77));
        assert_matches_refresh(&cat, "young");
    }

    #[test]
    fn holistic_aggregates_refuse_incremental() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        let mut def = sum_count_view("sd");
        def.aggs = vec![AggSpec::new(
            AggFunc::StdDev,
            Expr::col(Col::base(RelId(0), 3)),
        )];
        def.column_names = vec!["dno".into(), "sd".into()];
        matview::build_extent(&def, &cat, model, opts, &gov).unwrap();
        let rows = vec![emp(9001, 0, 1250.0, 25)];
        cat.append_rows("emp", rows.clone()).unwrap();
        assert!(
            !maintained("sd", &inserts(rows), &cat),
            "stddev stores no partial state"
        );
    }

    #[test]
    fn join_view_absorbs_inserts_until_the_other_base_drifts() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        // SELECT e.dno, AVG(sal) FROM emp e, dept d
        //  WHERE e.dno = d.dno GROUP BY e.dno
        let def = MatViewDef {
            name: "jv".into(),
            tables: vec!["emp".into(), "dept".into()],
            preds: vec![Predicate::eq_cols(
                Col::base(RelId(0), 2),
                Col::base(RelId(1), 0),
            )],
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(RelId(0), 3)),
            )],
            column_names: vec!["dno".into(), "asal".into()],
        };
        assert_eq!(
            matview::build_extent(&def, &cat, model, opts, &gov).unwrap(),
            5
        );
        let rows = vec![emp(9100, 3, 500.0, 33)];
        cat.append_rows("emp", rows.clone()).unwrap();
        assert!(
            maintained("jv", &inserts(rows), &cat),
            "single-occurrence join views maintain incrementally"
        );
        assert_matches_refresh(&cat, "jv");

        // Drift on the *other* base table refuses: the delta-substituted
        // plan would read dept rows the recorded versions never covered.
        cat.mark_modified("dept").unwrap();
        let rows = vec![emp(9101, 4, 600.0, 28)];
        cat.append_rows("emp", rows.clone()).unwrap();
        assert!(!maintained("jv", &inserts(rows), &cat));
        assert!(cat.matview("jv").unwrap().is_stale(&cat));
    }

    #[test]
    fn delete_retracts_sum_and_count() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        let victims = cat.delete_rows("emp", &[0, 3, 17]).unwrap();
        let delta = deletes(victims);
        assert!(
            maintained("v", &delta, &cat),
            "pure COUNT/SUM deletes are exactly retractable"
        );
        assert!(!cat.matview("v").unwrap().is_stale(&cat));
        assert_matches_refresh(&cat, "v");
    }

    #[test]
    fn update_moves_rows_between_groups() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        // Move emp row 1 to another department with a new salary.
        let old = cat.get("emp").unwrap().rows()[1].clone();
        let mut vals = old.values().to_vec();
        vals[2] = Value::Int(4);
        vals[3] = Value::Float(4321.0);
        let new = Tuple::new(vals);
        let pairs = cat.update_rows("emp", &[1], vec![new.clone()]).unwrap();
        let delta = RowDelta::of_updates(pairs);
        assert_eq!(delta.minus, [old]);
        assert_eq!(delta.plus, [new]);
        assert!(maintained("v", &delta, &cat));
        assert_matches_refresh(&cat, "v");
    }

    #[test]
    fn deleting_a_whole_group_removes_its_extent_row() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        // Delete every employee of dept 2.
        let rows = cat.get("emp").unwrap().rows();
        let indices: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.get(2) == &Value::Int(2))
            .map(|(i, _)| i)
            .collect();
        assert!(!indices.is_empty());
        let victims = cat.delete_rows("emp", &indices).unwrap();
        let delta = deletes(victims);
        assert!(maintained("v", &delta, &cat));
        let extent = extent_sorted(&cat, "v");
        assert!(
            extent.iter().all(|r| r.get(0) != &Value::Int(2)),
            "emptied group must disappear: {extent:?}"
        );
        assert_matches_refresh(&cat, "v");
    }

    #[test]
    fn min_retraction_recomputes_only_on_extremum() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&min_view("m"), &cat, model, opts, &gov).unwrap();
        // Find dept 0's minimum-salary employee and delete them: the
        // stored MIN must be recomputed, and must agree with refresh.
        let rows = cat.get("emp").unwrap().rows();
        let (idx, _) = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.get(2) == &Value::Int(0))
            .min_by(|(_, a), (_, b)| a.get(3).cmp(b.get(3)))
            .unwrap();
        let victims = cat.delete_rows("emp", &[idx]).unwrap();
        let delta = deletes(victims);
        assert!(maintained("m", &delta, &cat));
        assert_matches_refresh(&cat, "m");

        // Deleting a non-extremum row is exact (no recompute needed,
        // same outcome either way).
        let rows = cat.get("emp").unwrap().rows();
        let (idx, _) = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.get(2) == &Value::Int(1))
            .max_by(|(_, a), (_, b)| a.get(3).cmp(b.get(3)))
            .unwrap();
        let victims = cat.delete_rows("emp", &[idx]).unwrap();
        let delta = deletes(victims);
        assert!(maintained("m", &delta, &cat));
        assert_matches_refresh(&cat, "m");
    }

    /// One DELETE takes the minimum of three departments, all of one of
    /// them: the three groups are recomputed together by a single run
    /// that reads their rows only, and the emptied one is deleted.
    #[test]
    fn one_recompute_run_serves_every_queued_group() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&min_view("m"), &cat, model, opts, &gov).unwrap();
        let rows = cat.get("emp").unwrap().rows();
        let cheapest = |dno: i64| {
            let of_dept = rows
                .iter()
                .enumerate()
                .filter(|(_, r)| r.get(2) == &Value::Int(dno));
            of_dept
                .min_by(|(_, a), (_, b)| a.get(3).cmp(b.get(3)))
                .unwrap()
                .0
        };
        let mut victims: Vec<usize> = (0..rows.len())
            .filter(|&i| rows[i].get(2) == &Value::Int(2))
            .collect();
        victims.extend([cheapest(0), cheapest(1)]);
        victims.sort_unstable();
        let delta = deletes(cat.delete_rows("emp", &victims).unwrap());
        let before = cat.get("__mv_m").unwrap().rows();
        RECOMPUTE_RUNS.with(|n| n.set(0));
        assert!(
            maintained("m", &delta, &cat),
            "extremum retraction maintains incrementally"
        );
        assert_eq!(RECOMPUTE_RUNS.with(|n| n.get()), 1);
        // The dead group is gone; the survivors keep their order, and
        // exactly two of them — departments 0 and 1 — changed.
        let after = cat.get("__mv_m").unwrap().rows();
        let survivors: Vec<&Tuple> = before
            .iter()
            .filter(|r| r.get(0) != &Value::Int(2))
            .collect();
        assert_eq!(survivors.len(), before.len() - 1);
        assert_eq!(after.len(), survivors.len());
        let changed: Vec<&Value> = survivors
            .iter()
            .zip(&after)
            .filter_map(|(old, new)| {
                assert_eq!(old.get(0), new.get(0), "rows moved: {after:?}");
                (*old != new).then(|| new.get(0))
            })
            .collect();
        assert_eq!(changed, [&Value::Int(0), &Value::Int(1)]);
        assert_matches_refresh(&cat, "m");
    }

    /// Recompute keys on the joined relation (a string key, and no count
    /// to witness emptiness) and a keyless view's one group: both stay
    /// incremental.
    #[test]
    fn joined_and_keyless_views_recompute_incrementally() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        let sal = || Expr::col(Col::base(RelId(0), 3));
        // SELECT d.dname, MIN(e.sal), MAX(e.sal) FROM emp e, dept d
        //  WHERE e.dno = d.dno GROUP BY d.dname
        let joined = MatViewDef {
            name: "jv".into(),
            tables: vec!["emp".into(), "dept".into()],
            preds: vec![Predicate::eq_cols(
                Col::base(RelId(0), 2),
                Col::base(RelId(1), 0),
            )],
            group_cols: vec![Col::base(RelId(1), 1)],
            aggs: vec![
                AggSpec::new(AggFunc::Min, sal()),
                AggSpec::new(AggFunc::Max, sal()),
            ],
            column_names: vec!["dname".into(), "lo".into(), "hi".into()],
        };
        // SELECT MIN(sal), COUNT(*) FROM emp
        let keyless = MatViewDef {
            name: "all".into(),
            tables: vec!["emp".into()],
            preds: vec![],
            group_cols: vec![],
            aggs: vec![AggSpec::new(AggFunc::Min, sal()), AggSpec::count_star()],
            column_names: vec!["lo".into(), "n".into()],
        };
        for def in [&joined, &keyless] {
            matview::build_extent(def, &cat, model, opts, &gov).unwrap();
        }
        // The cheapest employee is dept 0's minimum and everyone's.
        let rows = cat.get("emp").unwrap().rows();
        let cheapest = (0..rows.len()).min_by(|&a, &b| rows[a].get(3).cmp(rows[b].get(3)));
        let victims = cat.delete_rows("emp", &[cheapest.unwrap()]).unwrap();
        let delta = deletes(victims);
        for view in ["jv", "all"] {
            RECOMPUTE_RUNS.with(|n| n.set(0));
            assert!(maintained(view, &delta, &cat), "{view}");
            assert_eq!(RECOMPUTE_RUNS.with(|n| n.get()), 1, "{view}");
            assert_matches_refresh(&cat, view);
        }
    }

    #[test]
    fn filtered_join_view_maintains_through_dml() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        // SELECT e.dno, AVG(sal) FROM emp e, dept d
        //  WHERE e.dno = d.dno AND e.age < 30 GROUP BY e.dno
        let def = MatViewDef {
            name: "jv".into(),
            tables: vec!["emp".into(), "dept".into()],
            preds: vec![
                Predicate::eq_cols(Col::base(RelId(0), 2), Col::base(RelId(1), 0)),
                Predicate::cmp_const(Col::base(RelId(0), 4), CmpOp::Lt, Value::Int(30)),
            ],
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![AggSpec::new(
                AggFunc::Avg,
                Expr::col(Col::base(RelId(0), 3)),
            )],
            column_names: vec!["dno".into(), "asal".into()],
        };
        matview::build_extent(&def, &cat, model, opts, &gov).unwrap();
        // A mixed round: delete one young employee, update another.
        let rows = cat.get("emp").unwrap().rows();
        let young: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.get(4).as_i64().unwrap() < 30)
            .map(|(i, _)| i)
            .collect();
        assert!(young.len() >= 2);
        let victims = cat.delete_rows("emp", &[young[0]]).unwrap();
        let delta = deletes(victims);
        assert!(maintain_after_dml("emp", delta, &cat, model, opts, &gov)
            .unwrap()
            .contains(&"jv".to_string()));
        assert_matches_refresh(&cat, "jv");
    }

    #[test]
    fn no_op_dml_restamps_without_work() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        // Empty delta over untouched bases: trivially fresh.
        assert!(maintained("v", &RowDelta::default(), &cat));
        // Update a row to identical values: version bumps, the pair is
        // dropped from the delta, and the extent is restamped fresh
        // without a fold.
        let row = cat.get("emp").unwrap().rows()[0].clone();
        let pairs = cat.update_rows("emp", &[0], vec![row]).unwrap();
        assert_eq!(pairs.len(), 1);
        let delta = RowDelta::of_updates(pairs);
        assert_eq!(delta, RowDelta::default());
        assert!(cat.matview("v").unwrap().is_stale(&cat));
        let before = cat.get("__mv_v").unwrap().rows();
        assert!(maintained("v", &delta, &cat));
        assert!(!cat.matview("v").unwrap().is_stale(&cat));
        assert_eq!(cat.get("__mv_v").unwrap().rows(), before, "an empty patch");
        assert_matches_refresh(&cat, "v");
    }

    #[test]
    fn contradictory_delta_falls_back_to_rebuild() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        // Retract a row from a department that does not exist: the
        // incremental path must refuse (and report false) rather than
        // fabricate a negative group.
        cat.mark_modified("emp").unwrap();
        let delta = deletes(vec![emp(9999, 77, 100.0, 20)]);
        assert!(!maintained("v", &delta, &cat));
        // maintain_after_dml rebuilds on the fallback.
        let names = maintain_after_dml("emp", delta, &cat, model, opts, &gov).unwrap();
        assert_eq!(names, vec!["v".to_string()]);
        assert!(!cat.matview("v").unwrap().is_stale(&cat));
    }

    #[test]
    fn version_drift_refuses_incremental() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        // Two mutations since the build: the single delta cannot cover
        // both.
        cat.mark_modified("emp").unwrap();
        let victims = cat.delete_rows("emp", &[0]).unwrap();
        let delta = deletes(victims);
        assert!(!maintained("v", &delta, &cat));
        assert!(cat.matview("v").unwrap().is_stale(&cat));
    }

    #[test]
    fn budget_abort_leaves_extent_stale_not_torn() {
        let cat = setup();
        let (model, opts, _) = exec_env();
        let gov = ResourceGovernor::unlimited();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        let before = extent_sorted(&cat, "v");
        let victims = cat.delete_rows("emp", &[0]).unwrap();
        let delta = deletes(victims);
        // A governor too tight for even the extent reconstruction:
        // maintenance must abort with a structured error...
        let tight = ResourceGovernor::new(
            aggview_core::governor::ResourceLimits::unlimited().with_max_rows(2),
        );
        let meta = cat.matview("v").unwrap();
        let tables = DeltaTables::new("emp", delta.clone(), &cat).unwrap();
        let err = fold_delta(&meta, &tables, &cat, model, opts, &tight).unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted");
        // ...leaving the old extent bytes intact and the view stale —
        // never a half-merged extent stamped fresh.
        assert_eq!(extent_sorted(&cat, "v"), before);
        assert!(cat.matview("v").unwrap().is_stale(&cat));
        // A later unbudgeted round repairs it.
        let gov = ResourceGovernor::unlimited();
        let names = maintain_after_dml("emp", delta, &cat, model, opts, &gov).unwrap();
        assert_eq!(names, vec!["v".to_string()]);
        assert!(!cat.matview("v").unwrap().is_stale(&cat));
        assert_matches_refresh(&cat, "v");
    }

    #[test]
    fn dependency_graph_maps_tables_to_views() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("a"), &cat, model, opts, &gov).unwrap();
        let def = MatViewDef {
            name: "b".into(),
            tables: vec!["emp".into(), "dept".into()],
            preds: vec![Predicate::eq_cols(
                Col::base(RelId(0), 2),
                Col::base(RelId(1), 0),
            )],
            group_cols: vec![Col::base(RelId(0), 2)],
            aggs: vec![AggSpec::count_star()],
            column_names: vec!["dno".into(), "n".into()],
        };
        matview::build_extent(&def, &cat, model, opts, &gov).unwrap();
        let g = dependency_graph(&cat);
        let views = |v: &[&str]| v.iter().map(|s| s.to_string()).collect::<Vec<_>>();
        assert_eq!(
            g.edges,
            [
                ("dept".to_string(), views(&["b"])),
                ("emp".to_string(), views(&["a", "b"]))
            ]
        );
        let text = g.render();
        assert!(text.contains("emp"), "{text}");
        assert!(text.contains("└─ b"), "{text}");
        assert_eq!(
            dependency_graph(&Catalog::new()).render(),
            "no materialized views registered\n"
        );
    }
}
