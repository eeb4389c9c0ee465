//! DML through SQL against tables that are their columns.

use aggview::common::tuple;
use aggview::sql::Session;
use aggview::storage::datagen::{gen_empdept, EmpDeptConfig};

fn session() -> Session {
    Session::new(
        gen_empdept(&EmpDeptConfig {
            n_depts: 4,
            emps_per_dept: 6,
            young_fraction: 0.5,
            seed: 7,
            ..Default::default()
        })
        .unwrap(),
    )
}

#[test]
fn renaming_updates_do_not_grow_the_dictionary() {
    let mut s = session();
    let enos: Vec<i64> = s
        .execute("select eno from emp")
        .unwrap()
        .rows
        .iter()
        .map(|r| r.get(0).as_i64().unwrap())
        .collect();
    for round in 0..10_000 {
        let eno = enos[round % enos.len()];
        let sql = format!("update emp set name = 'renamed-{round}' where eno = {eno}");
        assert!(s.execute(&sql).unwrap().rows[0]
            .to_string()
            .contains("updated 1 row"));
    }
    let emp = s.catalog().get("emp").unwrap();
    let names = emp.column(1).as_strs().unwrap();
    let live = emp.stats().columns[1].distinct as usize;
    assert_eq!(live, enos.len());
    assert!(
        names.dict().len() <= 2 * live,
        "{} entries",
        names.dict().len()
    );
    let last = s
        .execute(&format!("select name from emp where eno = {}", enos[15]))
        .unwrap();
    assert_eq!(last.rows, vec![tuple!["renamed-9999"]]);
}
