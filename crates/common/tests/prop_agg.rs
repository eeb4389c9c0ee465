//! Property tests for aggregate decomposability — the algebraic law the
//! simple coalescing transformation rests on: splitting any input into
//! any partition and merging partial states must equal one-shot
//! aggregation.

use aggview_common::{AggFunc, PartialAggState, Value};
use proptest::prelude::*;

const FUNCS: [AggFunc; 6] = [
    AggFunc::Count,
    AggFunc::Sum,
    AggFunc::Min,
    AggFunc::Max,
    AggFunc::Avg,
    AggFunc::StdDev,
];

fn oneshot(func: AggFunc, vals: &[f64]) -> Value {
    let mut acc = PartialAggState::empty(func);
    for v in vals {
        acc.update(Some(&Value::Float(*v))).unwrap();
    }
    acc.finalize().unwrap()
}

fn approx_eq(a: &Value, b: &Value) -> bool {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => {
            let scale = x.abs().max(y.abs()).max(1.0);
            (x - y).abs() <= 1e-7 * scale
        }
        _ => a == b,
    }
}

proptest! {
    /// Two-way split: partial(A) ⊕ partial(B) == oneshot(A ∪ B).
    #[test]
    fn merge_two_way(
        vals in proptest::collection::vec(-1e6f64..1e6, 1..60),
        split in 0usize..60,
        fidx in 0usize..FUNCS.len(),
    ) {
        let func = FUNCS[fidx];
        let split = split.min(vals.len());
        let mut a = PartialAggState::empty(func);
        let mut b = PartialAggState::empty(func);
        for v in &vals[..split] {
            a.update(Some(&Value::Float(*v))).unwrap();
        }
        for v in &vals[split..] {
            b.update(Some(&Value::Float(*v))).unwrap();
        }
        a.merge(&b).unwrap();
        let merged = a.finalize().unwrap();
        let direct = oneshot(func, &vals);
        prop_assert!(
            approx_eq(&merged, &direct),
            "{func}: merged {merged} vs direct {direct}"
        );
    }

    /// N-way random partition, merged through tuple components (the path
    /// the executor uses).
    #[test]
    fn merge_n_way_via_components(
        vals in proptest::collection::vec(-1e4f64..1e4, 1..40),
        assignment in proptest::collection::vec(0usize..4, 1..40),
        fidx in 0usize..FUNCS.len(),
    ) {
        let func = FUNCS[fidx];
        let mut parts = vec![PartialAggState::empty(func); 4];
        for (i, v) in vals.iter().enumerate() {
            let p = assignment.get(i).copied().unwrap_or(0);
            parts[p].update(Some(&Value::Float(*v))).unwrap();
        }
        let mut total = PartialAggState::empty(func);
        for p in &parts {
            let comps: Vec<Value> = p.components().to_vec();
            total.merge_components(&comps).unwrap();
        }
        let merged = total.finalize().unwrap();
        let direct = oneshot(func, &vals);
        prop_assert!(
            approx_eq(&merged, &direct),
            "{func}: merged {merged} vs direct {direct}"
        );
    }

    /// Merging is order-insensitive (commutative + associative on the
    /// observable result).
    #[test]
    fn merge_order_insensitive(
        a in proptest::collection::vec(-1e5f64..1e5, 1..20),
        b in proptest::collection::vec(-1e5f64..1e5, 1..20),
        fidx in 0usize..FUNCS.len(),
    ) {
        let func = FUNCS[fidx];
        let mk = |vals: &[f64]| {
            let mut s = PartialAggState::empty(func);
            for v in vals {
                s.update(Some(&Value::Float(*v))).unwrap();
            }
            s
        };
        let mut ab = mk(&a);
        ab.merge(&mk(&b)).unwrap();
        let mut ba = mk(&b);
        ba.merge(&mk(&a)).unwrap();
        prop_assert!(approx_eq(
            &ab.finalize().unwrap(),
            &ba.finalize().unwrap()
        ));
    }

    /// Merging an empty state is the identity.
    #[test]
    fn merge_empty_is_identity(
        vals in proptest::collection::vec(-1e5f64..1e5, 1..20),
        fidx in 0usize..FUNCS.len(),
    ) {
        let func = FUNCS[fidx];
        let mut s = PartialAggState::empty(func);
        for v in &vals {
            s.update(Some(&Value::Float(*v))).unwrap();
        }
        let before = s.finalize().unwrap();
        s.merge(&PartialAggState::empty(func)).unwrap();
        prop_assert!(approx_eq(&s.finalize().unwrap(), &before));
    }
}

proptest! {
    /// Value ordering is a total order consistent with equality and
    /// hashing (hash-equal for order-equal values).
    #[test]
    fn value_order_total_and_hash_consistent(
        xs in proptest::collection::vec(-1e9f64..1e9, 2..20)
    ) {
        use std::collections::hash_map::DefaultHasher;
        use std::hash::{Hash, Hasher};
        let mut vs: Vec<Value> = xs
            .iter()
            .enumerate()
            .map(|(i, x)| if i % 2 == 0 { Value::Float(*x) } else { Value::Int(*x as i64) })
            .collect();
        vs.sort();
        for w in vs.windows(2) {
            prop_assert!(w[0] <= w[1]);
            if w[0] == w[1] {
                let h = |v: &Value| {
                    let mut s = DefaultHasher::new();
                    v.hash(&mut s);
                    s.finish()
                };
                prop_assert_eq!(h(&w[0]), h(&w[1]));
            }
        }
    }
}
