//! Property tests for statistics: selectivity estimates must be valid
//! probabilities, roughly track the truth on uniform data, and the Yao
//! distinct-count machinery in the estimator relies on `distinct` never
//! exceeding the row count.

use aggview_common::{tuple, CmpOp, Tuple, Value};
use aggview_storage::stats::{analyze, histogram_of};
use proptest::prelude::*;

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn selectivity_is_a_probability(
        vals in proptest::collection::vec(-1000i64..1000, 1..300),
        c in -1200i64..1200,
    ) {
        let rows: Vec<Tuple> = vals.iter().map(|v| tuple![*v]).collect();
        let (s, h) = (analyze(&rows, 1), histogram_of(&rows, 0));
        for op in [CmpOp::Eq, CmpOp::Ne, CmpOp::Lt, CmpOp::Le, CmpOp::Gt, CmpOp::Ge] {
            let sel = s.columns[0].selectivity(op, &Value::Int(c), || h.as_ref());
            prop_assert!((0.0..=1.0).contains(&sel), "{op} -> {sel}");
        }
    }

    #[test]
    fn range_selectivity_tracks_truth_within_tolerance(
        n in 50usize..400,
        cut_pct in 5u32..95,
    ) {
        // Uniform integers 0..n.
        let rows: Vec<Tuple> = (0..n).map(|i| tuple![i as i64]).collect();
        let (s, h) = (analyze(&rows, 1), histogram_of(&rows, 0));
        let cut = (n as f64 * cut_pct as f64 / 100.0) as i64;
        let est = s.columns[0].selectivity(CmpOp::Lt, &Value::Int(cut), || h.as_ref());
        let truth = rows
            .iter()
            .filter(|r| r.get(0).as_i64().unwrap() < cut)
            .count() as f64
            / n as f64;
        prop_assert!(
            (est - truth).abs() < 0.12,
            "n={n} cut={cut}: est {est} vs truth {truth}"
        );
    }

    #[test]
    fn distinct_bounded_by_rows(
        vals in proptest::collection::vec(0i64..50, 1..300)
    ) {
        let rows: Vec<Tuple> = vals.iter().map(|v| tuple![*v]).collect();
        let s = analyze(&rows, 1);
        prop_assert!(s.columns[0].distinct <= s.rows);
        prop_assert!(s.columns[0].distinct >= 1);
        // min/max bracket every value.
        let (mn, mx) = (s.columns[0].min.unwrap(), s.columns[0].max.unwrap());
        prop_assert!(vals.iter().all(|v| (*v as f64) >= mn && (*v as f64) <= mx));
    }

    #[test]
    fn eq_plus_ne_selectivities_sum_to_one(
        vals in proptest::collection::vec(0i64..30, 1..200),
        c in 0i64..30,
    ) {
        let rows: Vec<Tuple> = vals.iter().map(|v| tuple![*v]).collect();
        let s = analyze(&rows, 1);
        let eq = s.columns[0].selectivity(CmpOp::Eq, &Value::Int(c), || None);
        let ne = s.columns[0].selectivity(CmpOp::Ne, &Value::Int(c), || None);
        prop_assert!((eq + ne - 1.0).abs() < 1e-9);
    }
}
