//! The aggview benchmark: SQL text through `Session::execute`, checked
//! against an independent oracle, with a traced run that splits the time
//! by layer. See `benchmark/README.md`.
//!
//! ```text
//! aggview-benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! aggview-benchmark selftest
//! aggview-benchmark compare <base.tsv> <new.tsv>
//! aggview-benchmark manifest
//! ```

mod compare;
mod json;
mod metrics;
mod oracle;
mod pipeline;
mod probe;
mod report;
mod rng;
mod run_dml;
mod run_read;
mod selftest;
mod stats;
mod trace;
mod workloads;

use report::{Outcome, RunOpts};
use std::path::PathBuf;
use std::process::ExitCode;
use trace::Tracer;
use workloads::Scale;

/// Output directory, relative to the repository root the benchmark is
/// run from.
const OUT_DIR: &str = "benchmark/out";

/// Run one workload once. Metrics are checked against the contract in
/// `metrics.rs` before they are returned.
pub fn run(opts: &RunOpts) -> Result<Outcome, String> {
    let dml = opts.workload == "dml_maintain";
    let mut outcome = if opts.trace {
        let mut tracer = Tracer::new();
        let outcome = if dml {
            run_dml::traced(opts, &mut tracer)
        } else {
            run_read::traced(opts, &mut tracer)
        };
        let spans = json::Json::obj([
            ("workload", json::Json::str(&opts.workload)),
            ("seed", json::Json::Int(opts.seed as i64)),
            ("spans", tracer.to_json()),
        ]);
        std::fs::create_dir_all(&opts.out_dir)
            .and_then(|()| {
                std::fs::write(
                    opts.out_dir.join(format!("trace-{}.json", opts.workload)),
                    spans.compact(),
                )
            })
            .map_err(|e| format!("writing the trace: {e}"))?;
        outcome
    } else if dml {
        run_dml::end_to_end(opts)
    } else {
        run_read::end_to_end(opts)
    }
    .map_err(|e| format!("{}: {e}", opts.workload))?;
    if opts.trace {
        outcome.conform(metrics::PER_LAYER, &[])?;
    } else {
        let own: Vec<_> = metrics::one_workload(&opts.workload).collect();
        outcome.conform(metrics::END_TO_END, &own)?;
    }
    Ok(outcome)
}

fn usage() -> String {
    let names: Vec<&str> = metrics::WORKLOADS.iter().map(|w| w.name).collect();
    format!(
        "usage: aggview-benchmark --workload <{}> [--seed N] [--seconds S] [--trace 0|1]\n\
         \x20      aggview-benchmark selftest | manifest | compare <base.tsv> <new.tsv>",
        names.join("|")
    )
}

fn parse_run_args(args: &[String]) -> Result<RunOpts, String> {
    let mut opts = RunOpts {
        workload: String::new(),
        seed: 1,
        seconds: f64::from(metrics::RUN_SECONDS),
        trace: false,
        scale: Scale::Full,
        fixed_work: false,
        out_dir: PathBuf::from(OUT_DIR),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("`{flag}` needs a value"))?;
        let bad = || format!("`{flag} {value}` is not valid");
        match flag.as_str() {
            "--workload" => opts.workload = value.clone(),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                opts.seconds = value
                    .parse()
                    .ok()
                    .filter(|s: &f64| *s > 0.0)
                    .ok_or_else(bad)?
            }
            "--trace" => {
                opts.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad()),
                }
            }
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    if !metrics::WORKLOADS.iter().any(|w| w.name == opts.workload) {
        return Err(format!("unknown workload `{}`", opts.workload));
    }
    Ok(opts)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("compare") if args.len() == 3 => match compare::run(&args[1], &args[2]) {
            Ok(code) => return ExitCode::from(code),
            Err(e) => Err(e),
        },
        Some("selftest") => selftest::run(),
        Some("manifest") => {
            print!("{}", metrics::manifest().pretty());
            Ok(())
        }
        Some(flag) if flag.starts_with("--") => parse_run_args(&args).and_then(|opts| {
            let outcome = run(&opts)?;
            report::write_results(&opts, &outcome).map_err(|e| format!("writing results: {e}"))?;
            println!("{}", report::final_line(&outcome));
            if outcome.failed > 0 {
                return Err(format!(
                    "{} of {} statements failed or answered wrongly",
                    outcome.failed, outcome.attempted
                ));
            }
            Ok(())
        }),
        _ => Err(usage()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("{e}");
            ExitCode::FAILURE
        }
    }
}
