//! Invariant grouping (paper Section 4.1).
//!
//! The push-down transformation moves a group-by operator below a join:
//! `G(V ⋈ R) ≡ G(V) ⋈ R` when the join cannot change the content or
//! multiplicity of any group. Sufficient conditions, per removed
//! relation `R`:
//!
//! 1. `R` contributes **no grouping columns and no aggregating columns**
//!    of `G` (its role is purely to filter groups);
//! 2. every predicate linking `R` to the retained side references, on
//!    the retained side, **only grouping columns** of `G` — so all
//!    tuples of a group behave identically under the join; and
//! 3. the equality predicates linking `R` to the retained side equate a
//!    **key of `R`** — so each group matches at most one `R` tuple and
//!    no group is duplicated.
//!
//! Under 1–3 a group either survives intact (exactly once) or is
//! eliminated wholesale, which is precisely what evaluating `G` first
//! and then joining produces.
//!
//! The **minimal invariant set** `V₀` of `G(V)` (paper's definition) is
//! the fixpoint of removing removable relations: the smallest set of
//! relations that must be joined before `G` can be applied. The DP
//! enumerator asks the finer-grained question directly —
//! [`group_applicable_at`]: *may `G` be evaluated after joining exactly
//! the subset `S`?* — because removability of each remaining relation
//! depends on which relations are actually in `S`.

use crate::optimizer::facts::rel_mask;
use crate::query::QueryEnv;
use aggview_common::{AggSpec, Col, Predicate, RelId, Result};
use aggview_storage::Catalog;
use std::collections::{BTreeMap, BTreeSet};

/// A single-block query with a group-by, described for push-down
/// analysis: `G(group_cols, aggs)(σ_preds(rels))`.
#[derive(Debug, Clone, Copy)]
pub struct InvariantGroupBy<'a> {
    /// Relations of the SPJ block `V`.
    pub rels: &'a [RelId],
    /// Conjunctive predicates of `V`.
    pub preds: &'a [Predicate],
    /// Grouping columns of `G`.
    pub group_cols: &'a [Col],
    /// Aggregate list of `G`.
    pub aggs: &'a [AggSpec],
}

impl<'a> InvariantGroupBy<'a> {
    fn rel_set(&self) -> u64 {
        self.rels.iter().map(|r| r.bit()).fold(0, |a, b| a | b)
    }
}

/// May the group-by be evaluated after joining exactly the relations in
/// `subset` (a bitset over `q.rels`), with the remaining relations
/// joined afterwards?
///
/// Checks conditions 1–3 above for every relation outside `subset`.
/// `subset` must be a non-empty subset of the block's relations and must
/// cover every grouping and aggregating column.
pub fn group_applicable_at(
    q: &InvariantGroupBy<'_>,
    subset: u64,
    env: &QueryEnv,
    catalog: &Catalog,
) -> Result<bool> {
    let all = q.rel_set();
    if subset == 0 || subset & !all != 0 {
        return Ok(false);
    }
    if subset == all {
        return Ok(true); // degenerate: group-by after all joins.
    }
    let in_subset = |r: RelId| subset & r.bit() != 0;

    // Condition 1: grouping and aggregating columns all inside `subset`.
    for c in q.group_cols {
        match c.as_base() {
            Some(b) if in_subset(b.rel) => {}
            _ => return Ok(false),
        }
    }
    for a in q.aggs {
        for c in a.cols_used() {
            match c.as_base() {
                Some(b) if in_subset(b.rel) => {}
                _ => return Ok(false),
            }
        }
    }

    let group_set: BTreeSet<Col> = q.group_cols.iter().copied().collect();
    // Equality predicates into each outside relation, for condition 3.
    let mut equated: BTreeMap<RelId, BTreeSet<usize>> = BTreeMap::new();

    // Condition 2: cross predicates touch only grouping columns on the
    // subset side.
    for p in q.preds {
        let rels = rel_mask(&p.cols_used());
        if rels & subset == 0 || rels & !subset == 0 {
            continue; // fully inside (before G) or fully outside (after G)
        }
        for c in p.cols_used() {
            if let Some(b) = c.as_base() {
                if in_subset(b.rel) && !group_set.contains(&c) {
                    return Ok(false);
                }
            }
        }
        // Record key-coverage evidence from plain equalities.
        if let Some((a, b)) = p.as_col_eq_col() {
            if let (Some(x), Some(y)) = (a.as_base(), b.as_base()) {
                match (in_subset(x.rel), in_subset(y.rel)) {
                    (true, false) => {
                        equated.entry(y.rel).or_default().insert(y.col as usize);
                    }
                    (false, true) => {
                        equated.entry(x.rel).or_default().insert(x.col as usize);
                    }
                    _ => {}
                }
            }
        }
    }

    // Condition 3: every outside relation that is *connected to the
    // subset* must be joined on a full key.
    for r in q.rels.iter().filter(|r| !in_subset(**r)) {
        let connected = q.preds.iter().any(|p| {
            let rels = rel_mask(&p.cols_used());
            rels & r.bit() != 0 && rels & subset != 0
        });
        if !connected {
            // A cross product after the group-by duplicates every group
            // row once per tuple of `r` — only sound if `r` is
            // guaranteed a single tuple, which we cannot know. Reject.
            return Ok(false);
        }
        let table = catalog.get(env.table_of(*r)?)?;
        let eq = equated.get(r).cloned().unwrap_or_default();
        let eq_vec: Vec<usize> = eq.into_iter().collect();
        if !table.cols_contain_key(&eq_vec) {
            return Ok(false);
        }
    }
    Ok(true)
}

/// Compute the minimal invariant set `V₀` of the block: the fixpoint of
/// greedily removing relations that satisfy the invariant-grouping
/// conditions with respect to the currently retained set.
///
/// Returns `(V₀, removed)` — removed relations "can be treated like
/// relations in `B` and can be freely reordered" (paper Section 5.4).
pub fn minimal_invariant_set(
    q: &InvariantGroupBy<'_>,
    env: &QueryEnv,
    catalog: &Catalog,
) -> Result<(Vec<RelId>, Vec<RelId>)> {
    let mut retained = q.rel_set();
    let mut removed: Vec<RelId> = Vec::new();
    loop {
        let mut progress = false;
        for r in q.rels {
            if retained & r.bit() == 0 || retained == r.bit() {
                continue; // already removed, or last relation standing
            }
            let candidate = retained & !r.bit();
            if group_applicable_at(q, candidate, env, catalog)? {
                retained = candidate;
                removed.push(*r);
                progress = true;
            }
        }
        if !progress {
            break;
        }
    }
    let v0 = q
        .rels
        .iter()
        .copied()
        .filter(|r| retained & r.bit() != 0)
        .collect();
    removed.sort_unstable();
    Ok((v0, removed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::query::examples::{dept, emp, example2_query};
    use aggview_common::{AggFunc, CmpOp, Expr};
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn catalog() -> Catalog {
        gen_empdept(&EmpDeptConfig {
            n_depts: 4,
            emps_per_dept: 3,
            ..Default::default()
        })
        .unwrap()
    }

    /// Example 2: group emp⋈dept by e.dno, avg(e.sal); dept is joined on
    /// its key and contributes nothing to the group-by → minimal
    /// invariant set is {emp}.
    #[test]
    fn example2_minimal_invariant_set_is_emp() {
        let cat = catalog();
        let q = example2_query();
        let g = q.group.as_ref().unwrap();
        let igb = InvariantGroupBy {
            rels: &q.base_rels,
            preds: &q.preds,
            group_cols: &g.group_cols,
            aggs: &g.aggs,
        };
        let (v0, removed) = minimal_invariant_set(&igb, &q.env, &cat).unwrap();
        assert_eq!(v0, vec![RelId(0)], "emp retained");
        assert_eq!(removed, vec![RelId(1)], "dept removable");
        // And the DP-facing check agrees: G applicable after {emp} alone.
        assert!(group_applicable_at(&igb, RelId(0).bit(), &q.env, &cat).unwrap());
        assert!(!group_applicable_at(&igb, RelId(1).bit(), &q.env, &cat).unwrap());
        assert!(group_applicable_at(&igb, RelId(0).bit() | RelId(1).bit(), &q.env, &cat).unwrap());
    }

    /// Joining dept on a non-key column defeats condition 3.
    #[test]
    fn non_key_join_blocks_push_down() {
        let cat = catalog();
        let mut q = example2_query();
        // Replace e.dno = d.dno with e.dno = d.budget-ish comparison on
        // a non-key dept column (keep it an equality on dname—non-key).
        q.preds[0] = Predicate::eq_cols(
            Col::base(RelId(0), emp::DNO),
            Col::base(RelId(1), dept::LOC),
        );
        let g = q.group.clone().unwrap();
        let igb = InvariantGroupBy {
            rels: &q.base_rels,
            preds: &q.preds,
            group_cols: &g.group_cols,
            aggs: &g.aggs,
        };
        assert!(!group_applicable_at(&igb, RelId(0).bit(), &q.env, &cat).unwrap());
        let (v0, removed) = minimal_invariant_set(&igb, &q.env, &cat).unwrap();
        assert_eq!(v0.len(), 2);
        assert!(removed.is_empty());
    }

    /// A cross predicate touching a non-grouping retained column defeats
    /// condition 2.
    #[test]
    fn cross_predicate_on_non_group_column_blocks_push_down() {
        let cat = catalog();
        let mut q = example2_query();
        // Add e.sal > d.budget: sal is aggregated, not grouped.
        q.preds.push(Predicate::new(
            Expr::col(Col::base(RelId(0), emp::SAL)),
            CmpOp::Gt,
            Expr::col(Col::base(RelId(1), dept::BUDGET)),
        ));
        let g = q.group.clone().unwrap();
        let igb = InvariantGroupBy {
            rels: &q.base_rels,
            preds: &q.preds,
            group_cols: &g.group_cols,
            aggs: &g.aggs,
        };
        assert!(!group_applicable_at(&igb, RelId(0).bit(), &q.env, &cat).unwrap());
    }

    /// Aggregating a column of the would-be-removed relation defeats
    /// condition 1.
    #[test]
    fn aggregate_over_removed_relation_blocks_push_down() {
        let cat = catalog();
        let q = example2_query();
        let mut g = q.group.clone().unwrap();
        g.aggs = vec![aggview_common::AggSpec::new(
            AggFunc::Avg,
            Expr::col(Col::base(RelId(1), dept::BUDGET)),
        )];
        let igb = InvariantGroupBy {
            rels: &q.base_rels,
            preds: &q.preds,
            group_cols: &g.group_cols,
            aggs: &g.aggs,
        };
        assert!(!group_applicable_at(&igb, RelId(0).bit(), &q.env, &cat).unwrap());
    }

    /// Disconnected relations (cross products after the group-by) are
    /// rejected.
    #[test]
    fn disconnected_relation_blocks_push_down() {
        let cat = catalog();
        let mut q = example2_query();
        q.preds.remove(0); // drop the join predicate entirely
        let g = q.group.clone().unwrap();
        let igb = InvariantGroupBy {
            rels: &q.base_rels,
            preds: &q.preds,
            group_cols: &g.group_cols,
            aggs: &g.aggs,
        };
        assert!(!group_applicable_at(&igb, RelId(0).bit(), &q.env, &cat).unwrap());
    }

    #[test]
    fn subset_sanity() {
        let cat = catalog();
        let q = example2_query();
        let g = q.group.clone().unwrap();
        let igb = InvariantGroupBy {
            rels: &q.base_rels,
            preds: &q.preds,
            group_cols: &g.group_cols,
            aggs: &g.aggs,
        };
        // Empty subset and foreign bits are rejected.
        assert!(!group_applicable_at(&igb, 0, &q.env, &cat).unwrap());
        assert!(!group_applicable_at(&igb, 1 << 63, &q.env, &cat).unwrap());
        // Selection predicate on dept (budget < 1M) does not interfere:
        // it is evaluated on dept after the group-by.
        assert_eq!(q.preds.len(), 2);
    }

    /// Three-relation chain: emp ⋈ dept ⋈ (dept.loc = region-ish) — use
    /// random catalog tables to exercise multi-step removal.
    #[test]
    fn chain_removal_via_fixpoint() {
        let cat = catalog();
        // emp ⋈ dept on key, and a second emp-instance r2 joined to emp
        // on eno (emp's key): group by e.dno with avg(e.sal) — both dept
        // and the second emp are removable.
        let mut q = example2_query();
        let e2 = q.env.add_rel("emp");
        q.base_rels.push(e2);
        q.preds.push(Predicate::eq_cols(
            Col::base(RelId(0), emp::DNO),
            Col::base(e2, emp::DNO),
        ));
        let g = q.group.clone().unwrap();
        let igb = InvariantGroupBy {
            rels: &q.base_rels,
            preds: &q.preds,
            group_cols: &g.group_cols,
            aggs: &g.aggs,
        };
        // e2 joined on dno, which is NOT emp's key → e2 not removable;
        // dept still is.
        let (v0, removed) = minimal_invariant_set(&igb, &q.env, &cat).unwrap();
        assert!(removed.contains(&RelId(1)), "dept removed");
        assert!(v0.contains(&e2), "e2 retained (non-key join)");
    }
}
