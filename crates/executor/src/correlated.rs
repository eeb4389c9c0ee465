//! Naive correlated-subquery evaluation (the pre-flattening baseline).
//!
//! The paper's Section 1 observes that Kim-style flattening turns a
//! correlated nested query into a join with an aggregate view, at which
//! point the optimization machinery applies. This module provides the
//! *unflattened* baseline: tuple-at-a-time evaluation of the type-JA
//! shape
//!
//! ```sql
//! SELECT <outer cols> FROM outer o
//!  WHERE <outer filters>
//!    AND o.val <cmp> (SELECT AGG(i.agg_col) FROM inner i
//!                      WHERE i.corr_col = o.corr_col)
//! ```
//!
//! charging one full inner-table scan per qualifying outer tuple —
//! exactly what a naive nested-loops evaluator does on an unindexed
//! table. Experiment E7 compares this against the flattened, optimized
//! plan.

use aggview_common::{AggFunc, AggViewError, CmpOp, PartialAggState, Predicate, Result, Tuple};
use aggview_core::cost::CostModel;
use aggview_storage::Catalog;

/// A correlated aggregate query in Kim's type-JA shape.
#[derive(Debug, Clone)]
pub struct CorrelatedQuery {
    /// Outer table name.
    pub outer: String,
    /// Inner table name.
    pub inner: String,
    /// Selection predicates on the outer table (bound to its schema
    /// positions via `RelId(0)` columns).
    pub outer_filters: Vec<Predicate>,
    /// Correlation: `inner[corr_inner] = outer[corr_outer]`.
    pub corr_outer: usize,
    pub corr_inner: usize,
    /// Comparison: `outer[cmp_col] op AGG(inner[agg_col])`.
    pub cmp_col: usize,
    pub op: CmpOp,
    pub agg: AggFunc,
    pub agg_col: usize,
    /// Output: outer column positions.
    pub project: Vec<usize>,
}

/// Result of a correlated evaluation.
#[derive(Debug, Clone)]
pub struct CorrelatedResult {
    pub rows: Vec<Tuple>,
    /// Measured IO in pages (outer scan + one inner scan per qualifying
    /// outer tuple).
    pub io_pages: f64,
    /// Number of inner scans performed.
    pub inner_scans: u64,
}

/// Evaluate naively, charging one inner scan per qualifying outer tuple.
pub fn execute_correlated(
    q: &CorrelatedQuery,
    catalog: &Catalog,
    model: &CostModel,
) -> Result<CorrelatedResult> {
    let outer = catalog.get(&q.outer)?;
    let inner = catalog.get(&q.inner)?;
    let outer_pages = model.page.pages_for_bytes(outer.byte_size() as f64);
    let inner_pages = model.page.pages_for_bytes(inner.byte_size() as f64);

    // Bind outer filters positionally (they use RelId(0) base columns).
    let bound: Vec<_> = q
        .outer_filters
        .iter()
        .map(|p| {
            p.bind(&|c| match c.as_base() {
                Some(b) if b.rel.0 == 0 => Some(b.col as usize),
                _ => None,
            })
        })
        .collect::<Result<_>>()?;

    let mut io_pages = outer_pages;
    let mut inner_scans = 0u64;
    let mut rows = Vec::new();
    // The nested iteration this module models is row-at-a-time.
    let inner_rows = inner.rows();
    'outer: for o in &outer.rows() {
        for b in &bound {
            if !b.eval(o)? {
                continue 'outer;
            }
        }
        // One full inner scan for this outer tuple.
        inner_scans += 1;
        io_pages += inner_pages;
        let mut acc = PartialAggState::empty(q.agg);
        let corr = o.get(q.corr_outer);
        let mut matched = false;
        for i in &inner_rows {
            if i.get(q.corr_inner) == corr {
                acc.update(Some(i.get(q.agg_col)))?;
                matched = true;
            }
        }
        if !matched {
            // SQL semantics: empty subquery yields NULL; with no NULLs in
            // this engine the comparison is simply false (row dropped) —
            // matching the flattened inner-join semantics.
            continue;
        }
        let agg_val = acc.finalize()?;
        let ord = o
            .get(q.cmp_col)
            .try_cmp(&agg_val)
            .ok_or_else(|| AggViewError::Exec("incomparable correlated comparison".into()))?;
        if q.op.matches(ord) {
            rows.push(o.project(&q.project));
        }
    }
    Ok(CorrelatedResult {
        rows,
        io_pages,
        inner_scans,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{Col, RelId, Value};
    use aggview_core::query::examples::emp;
    use aggview_storage::datagen::{gen_empdept, EmpDeptConfig};

    fn setup() -> Catalog {
        gen_empdept(&EmpDeptConfig {
            n_depts: 4,
            emps_per_dept: 6,
            young_fraction: 0.3,
            seed: 3,
            ..Default::default()
        })
        .unwrap()
    }

    /// The paper's Example 1 as a correlated query.
    fn example1() -> CorrelatedQuery {
        CorrelatedQuery {
            outer: "emp".into(),
            inner: "emp".into(),
            outer_filters: vec![Predicate::cmp_const(
                Col::base(RelId(0), emp::AGE),
                CmpOp::Lt,
                Value::Int(22),
            )],
            corr_outer: emp::DNO,
            corr_inner: emp::DNO,
            cmp_col: emp::SAL,
            op: CmpOp::Gt,
            agg: AggFunc::Avg,
            agg_col: emp::SAL,
            project: vec![emp::SAL],
        }
    }

    #[test]
    fn matches_direct_computation() {
        let cat = setup();
        let q = example1();
        let model = CostModel::default();
        let res = execute_correlated(&q, &cat, &model).unwrap();

        // Direct reference computation.
        let t = cat.get("emp").unwrap();
        let mut expect = Vec::new();
        for o in t.rows() {
            if o.get(emp::AGE).as_i64().unwrap() >= 22 {
                continue;
            }
            let dno = o.get(emp::DNO).as_i64().unwrap();
            let sals: Vec<f64> = t
                .rows()
                .iter()
                .filter(|r| r.get(emp::DNO).as_i64() == Some(dno))
                .map(|r| r.get(emp::SAL).as_f64().unwrap())
                .collect();
            let avg = sals.iter().sum::<f64>() / sals.len() as f64;
            if o.get(emp::SAL).as_f64().unwrap() > avg {
                expect.push(o.project(&[emp::SAL]));
            }
        }
        let mut got = res.rows.clone();
        got.sort();
        expect.sort();
        assert_eq!(got, expect);
        assert!(!got.is_empty(), "test data should produce matches");
    }

    #[test]
    fn io_scales_with_qualifying_outer_tuples() {
        let cat = setup();
        let q = example1();
        let model = CostModel::default();
        let res = execute_correlated(&q, &cat, &model).unwrap();
        let young = cat
            .get("emp")
            .unwrap()
            .rows()
            .iter()
            .filter(|r| r.get(emp::AGE).as_i64().unwrap() < 22)
            .count() as u64;
        assert_eq!(res.inner_scans, young);
        assert!(res.io_pages >= young as f64, "one inner page minimum each");
    }

    #[test]
    fn unmatched_outer_tuples_are_dropped() {
        // Correlate on a column value that never matches: empty result.
        let cat = setup();
        let mut q = example1();
        q.corr_outer = emp::ENO; // eno values exceed dno domain mostly
        let model = CostModel::default();
        let res = execute_correlated(&q, &cat, &model).unwrap();
        // Some eno values (0..3) collide with dno values 0..3; others drop.
        assert!(res.rows.len() < 30);
    }
}
