//! A table's string dictionaries are as long-lived as the table: what
//! keeps them from growing with every string that ever passed through.

use aggview_common::{tuple, AggViewError, DataType, Result, Schema};
use aggview_storage::{Catalog, Table};
use std::collections::HashSet;
use std::sync::Arc;

/// `names(id, name)` holding `n` rows named `n0`, `n1`, ...
fn named(n: i64) -> Arc<Table> {
    let schema = Schema::of(&[("id", DataType::Int), ("name", DataType::Str)]);
    let mut b = Table::builder("names", schema)
        .primary_key(&["id"])
        .unwrap();
    for id in 0..n {
        b.push(tuple![id, format!("n{id}").as_str()]).unwrap();
    }
    b.build().unwrap()
}

fn dictionary_len(c: &Catalog) -> usize {
    let t = c.get("names").unwrap();
    let strs = t.column(1).as_strs().unwrap();
    strs.dict().len()
}

#[test]
fn a_dictionary_sheds_the_strings_its_column_dropped() {
    let c = Catalog::new();
    c.add(named(50)).unwrap();
    let mut longest = 0;
    for round in 0..10_000i64 {
        let (at, id) = ((round % 50) as usize, round % 50);
        let renamed = tuple![id, format!("r{round}").as_str()];
        c.update_rows("names", &[at], vec![renamed]).unwrap();
        longest = longest.max(dictionary_len(&c));
    }
    // 10,050 distinct names passed through; 50 are live.
    assert!(longest <= 100, "dictionary reached {longest} entries");
    let t = c.get("names").unwrap();
    assert_eq!(t.stats().columns[1].distinct, 50);
    assert_eq!(t.row(49), tuple![49i64, "r9999"]);
    assert_eq!(t.column(1).total_bytes(), 50 * 5);
}

#[test]
fn a_large_table_keeps_its_dictionary_within_twice_its_distinct_count() {
    // 1,000 rows: most patches carry the statistics instead of computing
    // them again (that takes more than 100 changed rows).
    let c = Catalog::new();
    c.add(named(1000)).unwrap();
    let mut next = 1000i64;
    for round in 0..3_000i64 {
        let at = (round * 7 % 1000) as usize;
        let id = c.get("names").unwrap().row(at).get(0).clone();
        let renamed = tuple![id, format!("r{round}").as_str()];
        c.update_rows("names", &[at], vec![renamed]).unwrap();
        if round % 5 == 0 {
            c.delete_rows("names", &[at]).unwrap();
            next += 1;
            let row = tuple![next, format!("new{next}").as_str()];
            c.append_rows("names", vec![row]).unwrap();
        }
        let t = c.get("names").unwrap();
        let strs = t.column(1).as_strs().unwrap();
        let referenced: HashSet<u32> = strs.codes().iter().copied().collect();
        assert_eq!(referenced.len(), 1000, "every name is its own");
        let dict = strs.dict().len() as u64;
        assert!(dict <= 2 * t.stats().columns[1].distinct, "round {round}");
        assert!(dict <= 2000, "round {round}: {dict} entries");
    }
}

#[test]
fn a_patch_is_taken_back_exactly_after_its_dictionary_was_trimmed() {
    let c = Catalog::new();
    c.add(named(8)).unwrap();
    let before = c.get("names").unwrap().rows();
    let aborted: Result<()> = c.statement(|| {
        // Six of eight names go: the patch trims the dictionary, and
        // the undo brings back strings it no longer holds.
        c.delete_rows("names", &[0, 1, 2, 4, 5, 7])?;
        assert_eq!(dictionary_len(&c), 2);
        c.update_rows("names", &[0], vec![tuple![3i64, "other"]])?;
        c.append_rows("names", vec![tuple![9i64, "n6"], tuple![10i64, "more"]])?;
        Err(AggViewError::Exec("abort".into()))
    });
    assert!(aborted.is_err());
    let t = c.get("names").unwrap();
    assert_eq!(t.rows(), before);
    assert!((8..=16).contains(&dictionary_len(&c)));
    assert_eq!(t.stats().columns[1].distinct, 8);
    assert_eq!(t.byte_size(), 8 * (8 + 2));
    assert_eq!(t.find_key(&tuple![6i64]), Some(6));
}
