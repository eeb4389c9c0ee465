//! Multiset comparison of result sets.
//!
//! Two equivalent plans may emit columns in different orders and floats
//! with different rounding (AVG accumulated in a different association
//! order), so comparison (a) aligns columns by identity, (b)
//! canonicalizes floats to a fixed precision, then (c) compares sorted
//! row multisets.

use crate::engine::ResultSet;
use aggview_common::{AggViewError, Result, Tuple, Value};

/// Float canonicalization precision (decimal digits).
const FLOAT_DIGITS: i32 = 6;

fn canonical_value(v: &Value) -> Value {
    match v {
        Value::Float(f) => {
            let scale = 10f64.powi(FLOAT_DIGITS);
            let r = (f * scale).round() / scale;
            // Ints masquerading as floats compare equal to Ints already.
            Value::Float(r)
        }
        other => other.clone(),
    }
}

/// Rows of `rs` restricted to columns `order`, canonicalized and sorted.
pub fn canonical_rows(rs: &ResultSet, order: &[aggview_common::Col]) -> Result<Vec<Tuple>> {
    let positions: Vec<usize> = order
        .iter()
        .map(|c| {
            rs.col_index(*c)
                .ok_or_else(|| AggViewError::Exec(format!("result misses column {c}")))
        })
        .collect::<Result<_>>()?;
    let mut rows: Vec<Tuple> = rs
        .rows
        .iter()
        .map(|r| {
            positions
                .iter()
                .map(|&i| canonical_value(r.get(i)))
                .collect()
        })
        .collect();
    rows.sort();
    Ok(rows)
}

/// Assert two result sets are multiset-equal over `a`'s column set.
///
/// Returns a descriptive error naming the first divergence.
pub fn assert_equivalent(a: &ResultSet, b: &ResultSet) -> Result<()> {
    let ra = canonical_rows(a, &a.cols)?;
    let rb = canonical_rows(b, &a.cols)?;
    if ra.len() != rb.len() {
        return Err(AggViewError::Exec(format!(
            "result sizes differ: {} vs {}",
            ra.len(),
            rb.len()
        )));
    }
    for (i, (x, y)) in ra.iter().zip(&rb).enumerate() {
        if x != y {
            // Canonical rows follow `a.cols` order, so the position of
            // the first unequal value names the offending column.
            let k = x
                .values()
                .iter()
                .zip(y.values())
                .position(|(u, v)| u != v)
                .unwrap_or(0);
            return Err(AggViewError::Exec(format!(
                "row {i} differs at column {} (position {k}): {} vs {} — full rows {x} vs {y}",
                a.cols[k],
                x.get(k),
                y.get(k),
            )));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{tuple, Col, RelId};

    fn rs(cols: Vec<Col>, rows: Vec<Tuple>) -> ResultSet {
        ResultSet {
            cols,
            rows,
            io_pages: 0.0,
            breakdown: vec![],
            peak_intermediate_bytes: 0,
        }
    }

    #[test]
    fn equal_up_to_row_order() {
        let c = vec![Col::base(RelId(0), 0)];
        let a = rs(c.clone(), vec![tuple![1i64], tuple![2i64]]);
        let b = rs(c, vec![tuple![2i64], tuple![1i64]]);
        assert_equivalent(&a, &b).unwrap();
    }

    #[test]
    fn equal_up_to_column_order() {
        let c0 = Col::base(RelId(0), 0);
        let c1 = Col::base(RelId(0), 1);
        let a = rs(vec![c0, c1], vec![tuple![1i64, "x"]]);
        let b = rs(vec![c1, c0], vec![tuple!["x", 1i64]]);
        assert_equivalent(&a, &b).unwrap();
    }

    #[test]
    fn float_jitter_tolerated() {
        let c = vec![Col::base(RelId(0), 0)];
        let a = rs(c.clone(), vec![tuple![1.0000000001f64]]);
        let b = rs(c, vec![tuple![0.9999999999f64]]);
        assert_equivalent(&a, &b).unwrap();
    }

    #[test]
    fn real_differences_detected() {
        let c = vec![Col::base(RelId(0), 0)];
        let a = rs(c.clone(), vec![tuple![1i64]]);
        let b = rs(c.clone(), vec![tuple![2i64]]);
        let err = assert_equivalent(&a, &b).unwrap_err();
        assert!(err.message().contains("differs"));
        let short = rs(c, vec![]);
        assert!(assert_equivalent(&a, &short).is_err());
    }

    #[test]
    fn first_differing_column_is_named() {
        let c0 = Col::base(RelId(0), 0);
        let c1 = Col::base(RelId(0), 1);
        let a = rs(vec![c0, c1], vec![tuple![1i64, "x"]]);
        let b = rs(vec![c0, c1], vec![tuple![1i64, "y"]]);
        let err = assert_equivalent(&a, &b).unwrap_err();
        assert_eq!(err.kind(), "exec");
        assert!(err.message().contains("r0.c1"), "{}", err.message());
        assert!(err.message().contains("position 1"), "{}", err.message());
    }

    #[test]
    fn missing_column_is_an_error() {
        let a = rs(vec![Col::base(RelId(0), 0)], vec![]);
        let b = rs(vec![Col::base(RelId(0), 1)], vec![]);
        assert!(assert_equivalent(&a, &b).is_err());
    }
}
