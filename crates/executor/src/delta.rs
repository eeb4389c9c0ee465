//! Z-set delta maintenance of materialized aggregate-view extents.
//!
//! The one incremental maintenance path: a **signed** delta
//! ([`aggview_common::ZSet`]: row → weight, with INSERT = `+row`,
//! UPDATE = `-old ⊕ +new` and DELETE = `-row`) on one base table is
//! folded into the extent of a view over it, at a cost proportional to
//! the delta and the groups it touches — the extent as a whole is never
//! read, rebuilt or logged:
//!
//! 1. **Admission** — the view references the modified table exactly
//!    once, every aggregate stores partial state, the recorded base
//!    versions are exactly one mutation behind on the modified table
//!    and current elsewhere; anything else falls back to a full rebuild
//!    ([`crate::matview::build_extent`]).
//! 2. **Delta propagation** — the Z-set expands into a *plus* and a
//!    *minus* multiset; each is run through the view's SPJ plan over a
//!    delta-substituted catalog (the modified table replaced by the
//!    delta rows, other base tables joined as-is — sound because the
//!    modified table occurs once, so `Δ(R ⋈ S) = ΔR ⋈ S`).
//! 3. **Merge and retraction** — the stored partial states of exactly
//!    the groups either fold names are looked up in the extent by key
//!    ([`aggview_storage::Table::find_key`]); plus groups coalesce into
//!    them through [`GroupTable::merge_from`]; minus groups *retract* via
//!    [`aggview_common::PartialAggState::retract_components`].
//!    COUNT/SUM/AVG subtract exactly; MIN/MAX retracting a non-extremum
//!    are exact, retracting the stored extremum reports
//!    [`Retraction::NeedsRecompute`]. Impossible retractions (evidence
//!    of drift) abandon the incremental path and rebuild.
//! 4. **Group recompute & deletion** — groups needing recompute (MIN/MAX
//!    extremum retraction, or any retraction in a view with no COUNT/AVG
//!    aggregate to witness emptiness) are re-aggregated from one
//!    governed run of the view's SPJ plan, filtered to exactly those
//!    group keys; groups whose count component reaches zero — or that
//!    the recompute finds no rows for — are deleted from the extent.
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
//! round driver, which notes each watched view's consolidated
//! visible-projection delta in the statement's [`PendingRounds`] — the
//! caller publishes them once the statement has committed.

use crate::engine::{Engine, ExecOptions};
use crate::matview;
use crate::partition::{AggInput, GroupTable};
use crate::subscribe::{ExtentChange, PendingRounds};
use aggview_common::{AggFunc, AggViewError, Result, Retraction, Tuple, ZSet};
use aggview_core::cost::CostModel;
use aggview_core::governor::ResourceGovernor;
use aggview_core::query::QueryEnv;
use aggview_storage::{stores_partial_state, Catalog, MatViewMeta, RowPatch, Table};
use std::collections::{BTreeMap, HashSet};
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
    /// Views that must be maintained when `table` changes.
    pub fn views_on(&self, table: &str) -> &[String] {
        let key = table.to_ascii_lowercase();
        self.edges
            .iter()
            .find(|(t, _)| *t == key)
            .map_or(&[], |(_, v)| v.as_slice())
    }

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

/// Maintain every registered view that references `table` after the
/// Z-set `delta` has been applied to the base table: retractable
/// incremental maintenance where admissible, full rebuild otherwise.
/// When `rounds` is supplied, each watched view's consolidated
/// visible-projection delta is noted there as one round — not
/// published: a later view, or the statement's commit, can still fail,
/// and the caller publishes only what committed.
/// Returns the names of the views maintained.
pub fn maintain_after_dml(
    table: &str,
    delta: &ZSet,
    catalog: &Catalog,
    model: CostModel,
    options: ExecOptions,
    gov: &ResourceGovernor,
    mut rounds: Option<&mut PendingRounds<'_>>,
) -> Result<Vec<String>> {
    let mut maintained = Vec::new();
    for meta in catalog.matviews_on(table) {
        let name = meta.def.name.clone();
        let mut watched = rounds.as_deref_mut().filter(|r| r.watches(&name));
        match apply_zset_delta(&name, table, delta, catalog, model, options, gov)? {
            Some(change) => {
                if let Some(r) = &mut watched {
                    r.change(&name, &meta.layout, &change);
                }
            }
            None => {
                // The refused round left the extent as it was: snapshot
                // it now, rebuild, and note what the rebuild changed.
                let before = watched.as_ref().map(|_| extent_rows(catalog, &meta));
                matview::build_extent(&meta.def, catalog, model, options, gov)?;
                if let (Some(r), Some(before)) = (&mut watched, before) {
                    let after = extent_rows(catalog, &meta);
                    r.diff(&name, &meta.layout, &before, &after);
                }
            }
        }
        maintained.push(name);
    }
    Ok(maintained)
}

/// The view's current extent rows ([] when the extent table is absent,
/// e.g. quarantined after a crash).
fn extent_rows(catalog: &Catalog, meta: &MatViewMeta) -> Vec<Tuple> {
    catalog
        .get(&meta.extent)
        .map(|t| t.rows())
        .unwrap_or_default()
}

/// Incrementally fold a signed delta on base `table` into the extent of
/// `view`. Returns `Ok(None)` — extent untouched — when the view is
/// inadmissible for incremental maintenance or the delta's evidence
/// contradicts the stored state (either way the caller rebuilds);
/// `Ok(Some(change))` when the extent now reflects the delta and its
/// recorded versions are current, with the extent rows the round
/// replaced, removed and added.
pub fn apply_zset_delta(
    view: &str,
    table: &str,
    delta: &ZSet,
    catalog: &Catalog,
    model: CostModel,
    options: ExecOptions,
    gov: &ResourceGovernor,
) -> Result<Option<ExtentChange>> {
    let meta = catalog
        .matview(view)
        .ok_or_else(|| AggViewError::Catalog(format!("unknown materialized view `{view}`")))?;
    let def = &meta.def;
    let occurrences = def
        .tables
        .iter()
        .filter(|t| t.eq_ignore_ascii_case(table))
        .count();
    if occurrences != 1 || !def.aggs.iter().all(|a| stores_partial_state(a.func)) {
        return Ok(None);
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
        return Ok(Some(ExtentChange::default()));
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
        return Ok(None);
    }

    // Propagate the delta through the view's SPJ body: the plus and
    // minus expansions each run the plan over a delta-substituted
    // catalog and fold to per-group partial states. (An empty delta —
    // an UPDATE to identical values bumped the version — folds to
    // nothing and ends as an empty patch that only restamps.)
    let (plus, minus) = delta.expand();
    let plus_gt = delta_fold(def, table, &plus, catalog, model, options, gov)?;
    let minus_gt = delta_fold(def, table, &minus, catalog, model, options, gov)?;

    // Load the stored states of the groups the folds touch — and only
    // those — from the extent. Loaded groups take the first slots of
    // `gt`, so `positions[slot]` is the extent row of slot `slot` and
    // later slots are groups new to the extent.
    let extent = catalog.get(&meta.extent)?;
    let key_pos: Vec<usize> = (0..meta.layout.key_cols).collect();
    let inputs: Vec<AggInput> = meta
        .layout
        .aggs
        .iter()
        .map(|a| AggInput::Partial(a.components.clone()))
        .collect();
    let funcs: Vec<AggFunc> = def.aggs.iter().map(|a| a.func).collect();
    let mut gt = GroupTable::new();
    let mut positions: Vec<usize> = Vec::new();
    for g in plus_gt.groups.iter().chain(&minus_gt.groups) {
        if gt.find(&g.key).is_some() {
            continue;
        }
        // A view without grouping columns has one keyless extent row.
        let at = if key_pos.is_empty() {
            (!extent.is_empty()).then_some(0)
        } else {
            extent.find_key(&g.key)
        };
        if let Some(at) = at {
            gov.charge_rows(1)?;
            gt.accumulate(&extent.row(at), &key_pos, &inputs, &funcs)?;
            positions.push(at);
        }
    }
    gt.merge_from(plus_gt)?;

    // Retract the minus groups. A COUNT or AVG aggregate witnesses group
    // emptiness through its count component; without one, every group
    // the minus side touches must be recomputed to learn whether it
    // still exists.
    let count_src = funcs
        .iter()
        .position(|f| matches!(f, AggFunc::Count | AggFunc::Avg));
    let mut recompute: HashSet<Tuple> = HashSet::new();
    let mut touched: Vec<usize> = Vec::new();
    for g in minus_gt.groups {
        gov.charge_rows(1)?;
        let Some(slot) = gt.find(&g.key) else {
            // Retracting from a group the extent never had: the delta
            // contradicts the stored state — rebuild.
            return Ok(None);
        };
        let mut needs_recompute = count_src.is_none();
        let states = &mut gt.groups[slot].states;
        for (mine, theirs) in states.iter_mut().zip(&g.states) {
            match mine.retract_components(theirs.components()) {
                Ok(Retraction::Retracted) => {}
                Ok(Retraction::NeedsRecompute) => needs_recompute = true,
                // Impossible retraction (below zero, beyond extremum):
                // stored state and delta disagree — rebuild.
                Err(_) => return Ok(None),
            }
        }
        if needs_recompute {
            recompute.insert(gt.groups[slot].key.clone());
        }
        touched.push(slot);
    }

    // Delete groups whose count component reached zero; groups without a
    // count witness are already queued for recompute.
    let mut dead: HashSet<usize> = HashSet::new();
    if let Some(ci) = count_src {
        for &slot in &touched {
            if recompute.contains(&gt.groups[slot].key) {
                continue;
            }
            match gt.groups[slot].states[ci].count_component() {
                Some(0) => {
                    dead.insert(slot);
                }
                Some(_) => {}
                None => {
                    recompute.insert(gt.groups[slot].key.clone());
                }
            }
        }
    }

    // Targeted recompute: one governed run of the view's SPJ plan over
    // the *current* base tables, folded only for the queued group keys.
    // Keys the recompute finds no rows for are dead groups.
    if !recompute.is_empty() {
        let rgt = refold_keys(def, catalog, &recompute, model, options, gov)?;
        let mut fresh: BTreeMap<Tuple, Vec<aggview_common::PartialAggState>> =
            rgt.groups.into_iter().map(|g| (g.key, g.states)).collect();
        for key in &recompute {
            let Some(slot) = gt.find(key) else {
                // Recompute keys were drawn from `gt` above.
                return Err(AggViewError::Exec(format!(
                    "maintenance lost track of group {key} in view `{view}`"
                )));
            };
            match fresh.remove(key) {
                Some(states) => gt.groups[slot].states = states,
                None => {
                    dead.insert(slot);
                }
            }
        }
    }

    // The round as a patch against the extent: surviving groups replace
    // their row (or append one), dead groups delete theirs.
    let mut patch = RowPatch::default();
    for (slot, g) in gt.groups.into_iter().enumerate() {
        let at = positions.get(slot).copied();
        if dead.contains(&slot) {
            patch.deletes.extend(at);
            continue;
        }
        let row = matview::row_of(g, def)?;
        gov.charge_output(1, row.width() as u64)?;
        match at {
            Some(at) if extent.row(at) == row => {}
            Some(at) => patch.updates.push((at, row)),
            None => patch.inserts.push(row),
        }
    }
    patch.updates.sort_by_key(|(at, _)| *at);
    patch.deletes.sort_unstable();
    // Holding the extent across the commit would force it to be copied.
    drop(extent);
    let new_rows: Vec<Tuple> = patch.updates.iter().map(|(_, r)| r.clone()).collect();
    let created = patch.inserts.clone();
    // Stamp the versions verified above, not a re-read (a concurrent
    // mutation between the gate and here must leave the extent stale).
    let displaced = catalog.patch_extent(view, patch, versions)?;
    Ok(Some(ExtentChange {
        updated: displaced.replaced.into_iter().zip(new_rows).collect(),
        deleted: displaced.removed,
        created,
    }))
}

/// Run the view's SPJ plan with the modified table's rows replaced by
/// `rows` (every other base table joined as-is) and fold the result to
/// per-group partial states.
fn delta_fold(
    def: &aggview_storage::MatViewDef,
    table: &str,
    rows: &[Tuple],
    catalog: &Catalog,
    model: CostModel,
    options: ExecOptions,
    gov: &ResourceGovernor,
) -> Result<GroupTable> {
    if rows.is_empty() {
        return Ok(GroupTable::new());
    }
    let base = catalog.get(table)?;
    let mut builder = Table::builder(base.name(), base.schema().clone());
    for r in rows {
        builder.push(r.clone())?;
    }
    let delta_table = builder.build()?;
    let tmp = Catalog::new();
    for name in &def.tables {
        if name.eq_ignore_ascii_case(table) {
            tmp.add_or_replace(Arc::clone(&delta_table))?;
        } else {
            tmp.add_or_replace(catalog.get(name)?)?;
        }
    }
    let plan = matview::spj_plan(def)?;
    let env = QueryEnv::new(def.tables.clone());
    let engine = Engine::new(&tmp, &env, model).with_options(options);
    let rs = engine.execute_governed(&plan, gov, None)?;
    matview::fold(def, &rs)
}

/// Re-aggregate exactly the groups in `keys` from the current base
/// tables: one governed run of the view's full SPJ plan whose rows are
/// folded only when their group-key projection is queued.
fn refold_keys(
    def: &aggview_storage::MatViewDef,
    catalog: &Catalog,
    keys: &HashSet<Tuple>,
    model: CostModel,
    options: ExecOptions,
    gov: &ResourceGovernor,
) -> Result<GroupTable> {
    let plan = matview::spj_plan(def)?;
    let env = QueryEnv::new(def.tables.clone());
    let engine = Engine::new(catalog, &env, model).with_options(options);
    let rs = engine.execute_governed(&plan, gov, None)?;
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
        if !keys.contains(&r.project(&key_pos)) {
            continue;
        }
        gt.accumulate(r, &key_pos, &inputs, &funcs)?;
    }
    Ok(gt)
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
    fn maintained(view: &str, delta: &ZSet, cat: &Catalog) -> bool {
        let (model, opts, gov) = exec_env();
        apply_zset_delta(view, "emp", delta, cat, model, opts, &gov)
            .unwrap()
            .is_some()
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
        let change = apply_zset_delta(
            "young",
            "emp",
            &ZSet::from_inserts(rows),
            &cat,
            model,
            opts,
            &gov,
        )
        .unwrap()
        .expect("insert-only deltas merge incrementally");
        assert!(!cat.matview("young").unwrap().is_stale(&cat));
        assert_eq!(change.updated.len(), 1);
        assert_eq!(change.created.len(), 1);
        assert!(change.deleted.is_empty());
        // A patch, not a rebuild: untouched rows keep their positions,
        // the merged group is replaced in place, the new one appended.
        let after = cat.get("__mv_young").unwrap().rows();
        assert_eq!(after.len(), before.len() + 1);
        assert_eq!(after[0], change.updated[0].1);
        assert_eq!(after[1..before.len()], before[1..]);
        assert_eq!(after[before.len()], change.created[0]);
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
            !maintained("sd", &ZSet::from_inserts(rows), &cat),
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
            maintained("jv", &ZSet::from_inserts(rows), &cat),
            "single-occurrence join views maintain incrementally"
        );
        assert_matches_refresh(&cat, "jv");

        // Drift on the *other* base table refuses: the delta-substituted
        // plan would read dept rows the recorded versions never covered.
        cat.mark_modified("dept").unwrap();
        let rows = vec![emp(9101, 4, 600.0, 28)];
        cat.append_rows("emp", rows.clone()).unwrap();
        assert!(!maintained("jv", &ZSet::from_inserts(rows), &cat));
        assert!(cat.matview("jv").unwrap().is_stale(&cat));
    }

    #[test]
    fn delete_retracts_sum_and_count() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        let victims = cat.delete_rows("emp", &[0, 3, 17]).unwrap();
        let delta = ZSet::from_deletes(victims);
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
        cat.update_rows("emp", &[1], vec![new.clone()]).unwrap();
        let mut delta = ZSet::new();
        delta.add(old, -1);
        delta.add(new, 1);
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
        let delta = ZSet::from_deletes(victims);
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
        let delta = ZSet::from_deletes(victims);
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
        let delta = ZSet::from_deletes(victims);
        assert!(maintained("m", &delta, &cat));
        assert_matches_refresh(&cat, "m");
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
        let delta = ZSet::from_deletes(victims);
        assert!(
            maintain_after_dml("emp", &delta, &cat, model, opts, &gov, None)
                .unwrap()
                .contains(&"jv".to_string())
        );
        assert_matches_refresh(&cat, "jv");
    }

    #[test]
    fn no_op_dml_restamps_without_work() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        // Empty delta over untouched bases: trivially fresh.
        assert!(maintained("v", &ZSet::new(), &cat));
        // Update a row to identical values: version bumps, delta cancels
        // to empty, and the extent is restamped fresh without a fold.
        let row = cat.get("emp").unwrap().rows()[0].clone();
        cat.update_rows("emp", &[0], vec![row.clone()]).unwrap();
        let mut delta = ZSet::new();
        delta.add(row.clone(), -1);
        delta.add(row, 1);
        delta.consolidate();
        assert!(delta.is_empty());
        assert!(maintained("v", &delta, &cat));
        assert!(!cat.matview("v").unwrap().is_stale(&cat));
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
        let delta = ZSet::from_deletes([emp(9999, 77, 100.0, 20)]);
        assert!(!maintained("v", &delta, &cat));
        // maintain_after_dml rebuilds on the fallback.
        let names = maintain_after_dml("emp", &delta, &cat, model, opts, &gov, None).unwrap();
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
        let delta = ZSet::from_deletes(victims);
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
        let delta = ZSet::from_deletes(victims);
        // A governor too tight for even the extent reconstruction:
        // maintenance must abort with a structured error...
        let tight = ResourceGovernor::new(
            aggview_core::governor::ResourceLimits::unlimited().with_max_rows(2),
        );
        let err = apply_zset_delta("v", "emp", &delta, &cat, model, opts, &tight).unwrap_err();
        assert_eq!(err.kind(), "resource-exhausted");
        // ...leaving the old extent bytes intact and the view stale —
        // never a half-merged extent stamped fresh.
        assert_eq!(extent_sorted(&cat, "v"), before);
        assert!(cat.matview("v").unwrap().is_stale(&cat));
        // A later unbudgeted round repairs it.
        let gov = ResourceGovernor::unlimited();
        let names = maintain_after_dml("emp", &delta, &cat, model, opts, &gov, None).unwrap();
        assert_eq!(names, vec!["v".to_string()]);
        assert!(!cat.matview("v").unwrap().is_stale(&cat));
        assert_matches_refresh(&cat, "v");
    }

    #[test]
    fn rounds_publish_consolidated_events_to_subscribers() {
        let cat = setup();
        let (model, opts, gov) = exec_env();
        matview::build_extent(&sum_count_view("v"), &cat, model, opts, &gov).unwrap();
        let hub = crate::subscribe::SubscriptionHub::new();
        hub.subscribe("watcher", "v");
        // Delete all of dept 3 (a Deleted event) and one row of dept 0
        // (an Updated event) in a single round.
        let rows = cat.get("emp").unwrap().rows();
        let mut indices: Vec<usize> = rows
            .iter()
            .enumerate()
            .filter(|(_, r)| r.get(2) == &Value::Int(3))
            .map(|(i, _)| i)
            .collect();
        indices.push(
            rows.iter()
                .enumerate()
                .find(|(i, r)| r.get(2) == &Value::Int(0) && !indices.contains(i))
                .map(|(i, _)| i)
                .unwrap(),
        );
        indices.sort();
        let victims = cat.delete_rows("emp", &indices).unwrap();
        let delta = ZSet::from_deletes(victims);
        let mut rounds = hub.pending_rounds();
        maintain_after_dml("emp", &delta, &cat, model, opts, &gov, Some(&mut rounds)).unwrap();
        assert_eq!(hub.pending("watcher"), 0, "noted, not yet published");
        rounds.publish();
        let events = hub.drain("watcher");
        use crate::subscribe::ViewEvent;
        assert!(
            events.iter().any(
                |e| matches!(e, ViewEvent::Deleted { row, .. } if row.get(0) == &Value::Int(3))
            ),
            "{events:?}"
        );
        assert!(
            events.iter().any(
                |e| matches!(e, ViewEvent::Updated { new, .. } if new.get(0) == &Value::Int(0))
            ),
            "{events:?}"
        );
        assert_eq!(events.len(), 2, "consolidated: exactly one event per group");
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
        assert_eq!(g.views_on("emp"), &["a".to_string(), "b".to_string()]);
        assert_eq!(g.views_on("EMP"), g.views_on("emp"));
        assert_eq!(g.views_on("dept"), &["b".to_string()]);
        assert!(g.views_on("nosuch").is_empty());
        let text = g.render();
        assert!(text.contains("emp"), "{text}");
        assert!(text.contains("└─ b"), "{text}");
        assert_eq!(
            dependency_graph(&Catalog::new()).render(),
            "no materialized views registered\n"
        );
    }
}
