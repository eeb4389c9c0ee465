//! `selftest`: every workload at tiny scale with fixed work, checking
//! that the benchmark itself is sound — inputs are a pure function of
//! (workload, seed), exact counters repeat, the oracle check is live,
//! and the metrics emitted are exactly the ones `BENCHMARK.json` names.

use crate::metrics;
use crate::oracle::{from_tuples, same_rows, Cell, Tables};
use crate::report::{Outcome, RunOpts};
use crate::workloads::{self, Scale};
use std::path::PathBuf;
use std::process::Command;
use std::time::Instant;

fn check(ok: bool, what: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(format!("selftest: {}", what()))
    }
}

fn tiny(workload: &str, seed: u64, trace: bool) -> Result<Outcome, String> {
    crate::run(&RunOpts {
        workload: workload.into(),
        seed,
        seconds: 1.0,
        trace,
        scale: Scale::Tiny,
        fixed_work: true,
        out_dir: PathBuf::from(crate::OUT_DIR).join("selftest"),
    })
}

/// A deliberately wrong expected answer must be rejected, and the right
/// one accepted: the comparison is not vacuous.
fn oracle_is_live() -> Result<(), String> {
    let mut built = workloads::build("view_join", 7, Scale::Tiny).map_err(|e| e.to_string())?;
    let stmt = built.stmts[0].clone();
    let ctx = &mut built.ctxs[stmt.ctx];
    let tables = Tables::read(ctx.session.catalog());
    let got = from_tuples(
        &ctx.session
            .execute(&stmt.sql)
            .map_err(|e| e.to_string())?
            .rows,
    );
    let want = (built.templates[stmt.template].expected)(&tables, &stmt.params);
    check(!want.is_empty(), || {
        format!("`{}` returns no rows at tiny scale", stmt.sql)
    })?;
    check(same_rows(got.clone(), want.clone()).is_ok(), || {
        "the oracle rejects a right answer".into()
    })?;
    let mut corrupted = want.clone();
    corrupted[0][0] = match &corrupted[0][0] {
        Cell::I(i) => Cell::I(i + 1),
        Cell::F(f) => Cell::F(f * 1.001 + 1.0),
        Cell::S(s) => Cell::S(format!("{s}?")),
    };
    check(same_rows(got.clone(), corrupted).is_err(), || {
        "a corrupted expected value was accepted".into()
    })?;
    let mut short = want;
    short.pop();
    check(same_rows(got, short).is_err(), || {
        "a missing expected row was accepted".into()
    })
}

pub fn run() -> Result<(), String> {
    let start = Instant::now();

    let on_disk = std::fs::read_to_string("BENCHMARK.json")
        .map_err(|e| format!("selftest: BENCHMARK.json (run from the repository root): {e}"))?;
    check(on_disk == metrics::manifest().pretty(), || {
        "BENCHMARK.json differs from `aggview-benchmark manifest`; regenerate it".into()
    })?;

    let api = Command::new("bash")
        .arg("benchmark/check_api.sh")
        .status()
        .map_err(|e| format!("selftest: running check_api.sh: {e}"))?;
    check(api.success(), || {
        "check_api.sh found a name the benchmark may not use".into()
    })?;

    oracle_is_live()?;

    for w in metrics::WORKLOADS {
        for trace in [false, true] {
            let (a, b) = (tiny(w.name, 7, trace)?, tiny(w.name, 7, trace)?);
            let kind = if trace { "traced" } else { "end-to-end" };
            check(a.failed == 0 && a.attempted > 0, || {
                format!(
                    "{} {kind}: {} of {} statements failed",
                    w.name, a.failed, a.attempted
                )
            })?;
            check(a.digest == b.digest, || {
                format!(
                    "{} {kind}: statement list differs between two runs of one seed",
                    w.name
                )
            })?;
            check(a.counters == b.counters && !a.counters.is_empty(), || {
                format!(
                    "{} {kind}: exact counters differ between two runs:\n{:?}\n{:?}",
                    w.name, a.counters, b.counters
                )
            })?;
            check(a.attempted == b.attempted, || {
                format!("{} {kind}: attempted differs between two runs", w.name)
            })?;
            let declared = if trace {
                metrics::PER_LAYER
            } else {
                metrics::END_TO_END
            };
            check(a.metrics.len() == declared.len(), || {
                format!("{} {kind}: metric set differs from BENCHMARK.json", w.name)
            })?;
            // `crate::run` has checked the names and units of both lists.
            let own = metrics::one_workload(w.name).count();
            check(a.one_workload.len() == if trace { 0 } else { own }, || {
                format!(
                    "{} {kind}: one-workload metrics differ from metrics.rs",
                    w.name
                )
            })?;
            for m in a.metrics.iter().chain(&a.one_workload) {
                check(m.value.is_finite(), || {
                    format!("{} {kind}: `{}` is not finite", w.name, m.name)
                })?;
                check(trace || (m.value > 0.0 && m.n > 0), || {
                    format!(
                        "{} {kind}: end-to-end metric `{}` is zero or has no samples",
                        w.name, m.name
                    )
                })?;
            }
            // `plan_choice` runs fixed cells; its seed changes the data only.
            if !trace && w.name != "plan_choice" {
                let other = tiny(w.name, 8, false)?;
                check(other.digest != a.digest, || {
                    format!("{}: seeds 7 and 8 generate the same statements", w.name)
                })?;
            }
        }
    }
    println!("selftest passed in {:.1} s", start.elapsed().as_secs_f64());
    Ok(())
}
