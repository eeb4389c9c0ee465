//! Results of one run and how they are written: a JSON run record, flat
//! `workload\tmetric\tvalue\tunit\tn` lines for `compare`, and the final
//! stdout line the contract asks for.

use crate::json::Json;
use crate::metrics::MetricInfo;
use crate::stats;
use crate::workloads::Scale;
use std::fs;
use std::io::Write;
use std::path::{Path, PathBuf};

/// Options of one benchmark run.
#[derive(Debug, Clone)]
pub struct RunOpts {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// `Full` for every run from the command line; `selftest` alone
    /// runs `Tiny`.
    pub scale: Scale,
    /// Bound every measuring loop by statement count instead of time, so
    /// counters repeat exactly (`selftest`).
    pub fixed_work: bool,
    /// Where result, trace and scratch files go.
    pub out_dir: PathBuf,
}

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUPS: usize = 5;

impl RunOpts {
    /// `share` of `--seconds`, or `None` under `fixed_work`, where loops
    /// are bounded by count.
    pub fn budget(&self, share: f64) -> Option<std::time::Duration> {
        (!self.fixed_work).then(|| std::time::Duration::from_secs_f64(self.seconds * share))
    }

    pub fn setups(&self) -> usize {
        if self.fixed_work {
            1
        } else {
            SETUPS
        }
    }
}

/// One reported number.
#[derive(Debug, Clone)]
pub struct Measured {
    pub name: String,
    pub value: f64,
    pub unit: String,
    /// Samples the value summarizes.
    pub n: usize,
    /// Quartiles of those samples (equal to `value` for a single one).
    pub q1: f64,
    pub q3: f64,
}

impl Measured {
    pub fn single(name: &str, value: f64, unit: &str) -> Measured {
        Measured::counted(name, value, unit, 1)
    }

    /// A value derived from `n` samples whose spread is not meaningful
    /// (a rate, a share, a ratio of sums).
    pub fn counted(name: &str, value: f64, unit: &str, n: usize) -> Measured {
        Measured {
            name: name.into(),
            value,
            unit: unit.into(),
            n,
            q1: value,
            q3: value,
        }
    }

    /// The `p`-th percentile of `samples`.
    pub fn percentile(name: &str, samples: &[f64], p: f64, unit: &str) -> Measured {
        let v = stats::sorted(samples);
        Measured {
            name: name.into(),
            value: stats::percentile_sorted(&v, p),
            unit: unit.into(),
            n: v.len(),
            q1: stats::percentile_sorted(&v, 25.0),
            q3: stats::percentile_sorted(&v, 75.0),
        }
    }

    pub fn median(name: &str, samples: &[f64], unit: &str) -> Measured {
        Measured::percentile(name, samples, 50.0, unit)
    }
}

/// What a run produced.
#[derive(Debug, Clone, Default)]
pub struct Outcome {
    /// Exactly the metrics `BENCHMARK.json` names for this kind of run.
    pub metrics: Vec<Measured>,
    /// Exactly the bounded metrics only this workload has
    /// (`metrics::ONE_WORKLOAD`); end-to-end runs only.
    pub one_workload: Vec<Measured>,
    /// Further numbers for the run record (per template, per cell, the
    /// DML and recovery figures of `dml_maintain`).
    pub info: Vec<Measured>,
    pub attempted: u64,
    pub failed: u64,
    /// Hash of the generated statement texts.
    pub digest: u64,
    /// Counters that must repeat exactly for a seed under `fixed_work`.
    pub counters: Vec<(String, f64)>,
    /// Scale facts for the run record.
    pub scale_facts: Vec<(String, f64)>,
}

impl Outcome {
    /// Count statements executed and, of those, failed or wrong.
    pub fn tally(&mut self, attempted: u64, failed: u64) {
        self.attempted += attempted;
        self.failed += failed;
    }

    /// Keep `metrics` in the order of `infos` and `one_workload` in the
    /// order of `own`; see [`conformed`].
    pub fn conform(&mut self, infos: &[MetricInfo], own: &[&MetricInfo]) -> Result<(), String> {
        self.metrics = conformed(&self.metrics, infos.iter())?;
        self.one_workload = conformed(&self.one_workload, own.iter().copied())?;
        Ok(())
    }
}

/// `measured` in the order of `infos`; an error unless each metric named
/// is present exactly once with its declared unit, and no other is.
fn conformed<'a>(
    measured: &[Measured],
    infos: impl Iterator<Item = &'a MetricInfo> + Clone,
) -> Result<Vec<Measured>, String> {
    let mut ordered = Vec::new();
    for info in infos.clone() {
        let mut found = measured.iter().filter(|m| m.name == info.name);
        let m = found
            .next()
            .ok_or_else(|| format!("metric `{}` was not measured", info.name))?;
        if found.next().is_some() {
            return Err(format!("metric `{}` was measured twice", info.name));
        }
        if m.unit != info.unit {
            return Err(format!(
                "metric `{}` has unit `{}`, declared `{}`",
                info.name, m.unit, info.unit
            ));
        }
        ordered.push(m.clone());
    }
    if let Some(extra) = measured
        .iter()
        .find(|m| !infos.clone().any(|i| i.name == m.name))
    {
        return Err(format!(
            "metric `{}` is not one this kind of run reports",
            extra.name
        ));
    }
    Ok(ordered)
}

/// FNV-1a over statement texts.
pub fn digest<'a>(texts: impl Iterator<Item = &'a str>) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for t in texts {
        for b in t.bytes().chain(std::iter::once(0)) {
            h = (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

/// Peak resident set of this process so far, in MB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

pub fn host_cpus() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// The checked-out commit, read from `.git` without running git
/// (`unknown` outside a repository, as in the driver's checkout).
fn git_commit() -> String {
    let head = fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return if head.is_empty() {
            "unknown".into()
        } else {
            head.into()
        };
    };
    if let Ok(hash) = fs::read_to_string(Path::new(".git").join(reference)) {
        return hash.trim().into();
    }
    fs::read_to_string(".git/packed-refs")
        .ok()
        .and_then(|refs| {
            refs.lines().find_map(|l| {
                l.strip_suffix(reference)
                    .map(|hash| hash.trim().to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

fn measured_json(m: &Measured) -> Json {
    Json::obj([
        ("name", Json::str(&m.name)),
        ("value", Json::Num(m.value)),
        ("unit", Json::str(&m.unit)),
        ("n", Json::Int(m.n as i64)),
        ("q1", Json::Num(m.q1)),
        ("q3", Json::Num(m.q3)),
    ])
}

/// The last line of stdout: `correct`, `attempted`, `failed`, `metrics`.
pub fn final_line(outcome: &Outcome) -> String {
    Json::obj([
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        (
            "metrics",
            Json::Obj(
                outcome
                    .metrics
                    .iter()
                    .map(|m| {
                        let v = Json::obj([
                            ("value", Json::Num(m.value)),
                            ("unit", Json::str(&m.unit)),
                        ]);
                        (m.name.clone(), v)
                    })
                    .collect(),
            ),
        ),
    ])
    .compact()
}

/// Write `result-<workload>-<e2e|trace>.json` and append the flat lines
/// to `results.tsv` under `opts.out_dir`.
pub fn write_results(opts: &RunOpts, outcome: &Outcome) -> std::io::Result<()> {
    fs::create_dir_all(&opts.out_dir)?;
    let kind = if opts.trace { "trace" } else { "e2e" };
    let facts = |pairs: &[(String, f64)]| {
        Json::Obj(
            pairs
                .iter()
                .map(|(k, v)| (k.clone(), Json::Num(*v)))
                .collect(),
        )
    };
    let record = Json::obj([
        ("workload", Json::str(&opts.workload)),
        ("kind", Json::str(kind)),
        ("seed", Json::Int(opts.seed as i64)),
        ("seconds", Json::Num(opts.seconds)),
        ("scale", Json::str(opts.scale.name())),
        ("scale_facts", facts(&outcome.scale_facts)),
        ("fixed_work", Json::Bool(opts.fixed_work)),
        ("host_cpus", Json::Int(host_cpus() as i64)),
        ("threads", Json::Int(1)),
        ("git_commit", Json::str(git_commit())),
        ("rustc", Json::str(env!("BENCH_RUSTC_VERSION"))),
        ("correct", Json::Bool(outcome.failed == 0)),
        ("attempted", Json::Int(outcome.attempted as i64)),
        ("failed", Json::Int(outcome.failed as i64)),
        (
            "statement_digest",
            Json::str(format!("{:016x}", outcome.digest)),
        ),
        ("counters", facts(&outcome.counters)),
        (
            "metrics",
            Json::Arr(outcome.metrics.iter().map(measured_json).collect()),
        ),
        (
            "one_workload",
            Json::Arr(outcome.one_workload.iter().map(measured_json).collect()),
        ),
        (
            "info",
            Json::Arr(outcome.info.iter().map(measured_json).collect()),
        ),
    ]);
    let path = opts
        .out_dir
        .join(format!("result-{}-{kind}.json", opts.workload));
    fs::write(path, record.pretty())?;

    let mut tsv = fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(opts.out_dir.join("results.tsv"))?;
    let mut lines = String::new();
    for m in outcome
        .metrics
        .iter()
        .chain(&outcome.one_workload)
        .chain(&outcome.info)
    {
        lines.push_str(&format!(
            "{}\t{}\t{:?}\t{}\t{}\n",
            opts.workload, m.name, m.value, m.unit, m.n
        ));
    }
    tsv.write_all(lines.as_bytes())
}
