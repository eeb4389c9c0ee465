//! `bench` — serial kernel timings and the peak-memory gate.
//!
//! ```text
//! $ cargo run --release -p aggview-bench --bin bench -- \
//!       --scale 1 --repeats 3 --out BENCH_exec.json
//! ```
//!
//! Times the engine's vectorized kernels at one thread, executes the
//! eight peak workloads once each, prints a summary table, and writes
//! the machine-readable report to `--out` (default `BENCH_exec.json`).
//!
//! `--check-peak-baseline PATH` compares each workload's fresh
//! `peak_intermediate_bytes` against the committed report at PATH and
//! exits nonzero if any workload regressed more than 10% or is missing
//! — the CI bench-smoke job uses this as a memory-regression gate.

use aggview_bench::exec_bench::{check_peak_regression, run_exec_bench, ExecBenchConfig};
use std::process::ExitCode;

fn main() -> ExitCode {
    let mut cfg = ExecBenchConfig::default();
    let mut out = String::from("BENCH_exec.json");
    let mut baseline: Option<String> = None;

    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut i = 0;
    while i < args.len() {
        let flag = args[i].as_str();
        let value = args.get(i + 1);
        match (flag, value) {
            ("--scale", Some(v)) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => cfg.scale = n,
                _ => return usage(&format!("--scale wants an integer >= 1, got `{v}`")),
            },
            ("--repeats", Some(v)) => match v.parse::<usize>() {
                Ok(n) if n >= 1 => cfg.repeats = n,
                _ => return usage(&format!("--repeats wants an integer >= 1, got `{v}`")),
            },
            ("--out", Some(v)) => out = v.clone(),
            ("--check-peak-baseline", Some(v)) => baseline = Some(v.clone()),
            ("--help" | "-h", _) => return usage(""),
            _ => return usage(&format!("unknown argument `{flag}`")),
        }
        i += 2;
    }

    let report = match run_exec_bench(&cfg) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("bench failed: {e}");
            return ExitCode::FAILURE;
        }
    };
    print!("{}", report.summary_table());
    if let Err(e) = std::fs::write(&out, report.to_json()) {
        eprintln!("cannot write {out}: {e}");
        return ExitCode::FAILURE;
    }
    println!("wrote {out}");
    if let Some(path) = baseline {
        let text = match std::fs::read_to_string(&path) {
            Ok(t) => t,
            Err(e) => {
                eprintln!("cannot read baseline {path}: {e}");
                return ExitCode::FAILURE;
            }
        };
        match check_peak_regression(&text, &report.workloads, 1.10) {
            Ok(()) => println!("peak-bytes baseline check: ok (vs {path})"),
            Err(e) => {
                eprintln!("peak_intermediate_bytes regression vs {path}:\n{e}");
                return ExitCode::FAILURE;
            }
        }
    }
    ExitCode::SUCCESS
}

fn usage(err: &str) -> ExitCode {
    if !err.is_empty() {
        eprintln!("error: {err}");
    }
    eprintln!(
        "usage: bench [--scale N>=1] [--repeats N>=1] [--out PATH] [--check-peak-baseline PATH]\n\
         times the serial kernels, measures the workloads' peaks and writes a JSON report;\n\
         with --check-peak-baseline, fails if any workload's peak_intermediate_bytes\n\
         regressed more than 10% against the committed report at PATH, or is missing"
    );
    if err.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
