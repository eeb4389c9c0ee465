//! The in-place edits a stored column takes: overwrite a cell, remove
//! rows, shed dictionary entries, refuse a value of another type.

use aggview_common::hash::FX_SEED;
use aggview_common::{ColumnVec, DataType, Value};
use std::sync::Arc;

fn strs(items: &[&str]) -> ColumnVec {
    let mut col = ColumnVec::with_type(DataType::Str);
    items
        .iter()
        .for_each(|s| col.push_value(Value::str(s)).unwrap());
    col
}

fn values(c: &ColumnVec) -> Vec<Value> {
    (0..c.len()).map(|i| c.value_at(i)).collect()
}

#[test]
fn cells_are_overwritten_and_rows_removed_in_place() {
    let mut c = strs(&["a", "bb", "", "a", "ccc"]);
    c.set_value(1, Value::str("a")).unwrap();
    c.set_value(3, Value::str("dddd")).unwrap();
    assert_eq!(values(&c), ["a", "a", "", "dddd", "ccc"].map(Value::str));
    assert_eq!(c.total_bytes(), 1 + 1 + 1 + 4 + 3);
    c.remove_rows(&[0, 3]);
    assert_eq!(values(&c), ["a", "", "ccc"].map(Value::str));
    assert_eq!(c.total_bytes(), 1 + 1 + 3);
    c.remove_rows(&[]);
    assert_eq!(c.len(), 3);
    // The dictionary keeps what the rows dropped until it is asked
    // to let go; codes change, strings, widths and digests do not.
    assert_eq!(c.as_strs().unwrap().dict().len(), 5);
    let mut chain = vec![FX_SEED; 3];
    c.hash_fx_into(0..3, &mut chain);
    let ColumnVec::Str(col) = &mut c else {
        unreachable!()
    };
    let shared = col.clone();
    col.reintern();
    assert_eq!(col.dict().strs(), ["a", "", "ccc"].map(Arc::<str>::from));
    assert_eq!(col.codes(), [0, 1, 2]);
    assert!(!col.same_dict(&shared));
    assert_eq!(shared.dict().len(), 5, "a sharer keeps the old dictionary");
    assert_eq!(values(&c), ["a", "", "ccc"].map(Value::str));
    assert_eq!(c.total_bytes(), 5);
    let mut after = vec![FX_SEED; 3];
    c.hash_fx_into(0..3, &mut after);
    assert_eq!(chain, after);

    let mut f = ColumnVec::Float(vec![1.0, 2.0, 3.0, 4.0]);
    f.remove_rows(&[1, 2]);
    f.set_value(0, Value::Float(-0.0)).unwrap();
    assert_eq!(values(&f), [Value::Float(-0.0), Value::Float(4.0)]);
    // A value of another type is refused and leaves the cell alone,
    // even an Int the table would have widened on its way in.
    assert_eq!(f.set_value(1, Value::Int(5)).unwrap_err().kind(), "schema");
    assert!(c.set_value(0, Value::Float(5.0)).is_err());
    assert!(matches!(&f, ColumnVec::Float(xs) if xs[1] == 4.0));
    f.remove_rows(&[1]);
    assert!(matches!(&f, ColumnVec::Float(xs) if xs.len() == 1));
}
