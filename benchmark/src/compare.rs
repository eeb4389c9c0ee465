//! `compare <base.tsv> <new.tsv>`: apply the bounds and directions of
//! `BENCHMARK.json`, and those of the one-workload metrics in
//! `metrics.rs`, to two sets of runs.
//!
//! Each file holds the flat `workload\tmetric\tvalue\tunit\tn` lines
//! that runs append to `results.tsv`; a (workload, metric) pair that
//! appears several times is several runs, summarized by its median and
//! the distance between its quartiles.

use crate::metrics;
use crate::stats;
use std::collections::{BTreeMap, BTreeSet};

type Runs = BTreeMap<(String, String), Vec<f64>>;

fn read(path: &str) -> Result<Runs, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut runs = Runs::new();
    for (i, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let fields: Vec<&str> = line.split('\t').collect();
        let value = fields.get(2).and_then(|v| v.parse::<f64>().ok());
        match (fields.len(), value) {
            (5, Some(v)) => runs
                .entry((fields[0].into(), fields[1].into()))
                .or_default()
                .push(v),
            _ => {
                return Err(format!(
                    "{path}:{}: expected `workload\\tmetric\\tvalue\\tunit\\tn`",
                    i + 1
                ))
            }
        }
    }
    Ok(runs)
}

/// Quartile distance as a share of the median; 0 with fewer than two runs.
fn spread(values: &[f64]) -> f64 {
    match stats::quartiles(values) {
        Some((q1, q3)) => (q3 - q1) / stats::median(values).abs().max(f64::MIN_POSITIVE),
        None => 0.0,
    }
}

/// `better`, `same`, `worse`, or `unresolved` when the runs of either
/// side spread wider than the bound.
pub fn verdict(base: &[f64], new: &[f64], better: &str, bound: f64) -> &'static str {
    let (b, n) = (stats::median(base), stats::median(new));
    let worsening = match better {
        "higher" => (b - n) / b.abs().max(f64::MIN_POSITIVE),
        _ => (n - b) / b.abs().max(f64::MIN_POSITIVE),
    };
    if spread(base).max(spread(new)) > bound {
        "unresolved"
    } else if worsening > bound {
        "worse"
    } else if worsening < -bound {
        "better"
    } else {
        "same"
    }
}

/// Print one row per (workload, metric) and return the process exit
/// code: 0 when every bounded metric is `better` or `same`, 1 when one
/// is `worse` or `missing` from a side, 2 when none is but some are
/// `unresolved` (more runs are needed before the change can pass).
pub fn run(base_path: &str, new_path: &str) -> Result<u8, String> {
    Ok(judge(&read(base_path)?, &read(new_path)?))
}

fn judge(base: &Runs, new: &Runs) -> u8 {
    println!("workload\tmetric\tbase\tnew\tnew/base\tbound\tspread\tverdict");
    let (mut worse, mut missing, mut unresolved) = (0, 0, 0);
    let pairs: BTreeSet<&(String, String)> = base.keys().chain(new.keys()).collect();
    for pair in pairs {
        let (workload, metric) = pair;
        // Only end-to-end metrics carry a bound; the rest are shown for
        // attribution, when both sides have them.
        let bounded =
            metrics::bounded(workload, metric).and_then(|m| m.bound.map(|bound| (m.better, bound)));
        let (b, n) = match (base.get(pair), new.get(pair), bounded) {
            (Some(b), Some(n), _) => (b, n),
            (_, _, None) => continue,
            (b, _, Some((_, bound))) => {
                // A workload that crashed, or a metric no longer emitted.
                missing += 1;
                let side = if b.is_none() { "base" } else { "new" };
                println!("{workload}\t{metric}\t-\t-\t-\t{bound}\t-\tmissing from {side}");
                continue;
            }
        };
        let (bm, nm) = (stats::median(b), stats::median(n));
        let widest = spread(b).max(spread(n));
        let (bound, verdict) = match bounded {
            Some((better, bound)) => (format!("{bound}"), verdict(b, n, better, bound)),
            None => ("-".to_string(), "-"),
        };
        worse += usize::from(verdict == "worse");
        unresolved += usize::from(verdict == "unresolved");
        println!(
            "{workload}\t{metric}\t{bm:.6} (n={})\t{nm:.6} (n={})\t{:.4}\t{bound}\t{widest:.4}\t{verdict}",
            b.len(),
            n.len(),
            nm / bm
        );
    }
    println!("bounded metrics: {worse} worse, {missing} missing, {unresolved} unresolved");
    if worse + missing > 0 {
        1
    } else if unresolved > 0 {
        2
    } else {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn runs(entries: &[(&str, &str, &[f64])]) -> Runs {
        entries
            .iter()
            .map(|(w, m, v)| ((w.to_string(), m.to_string()), v.to_vec()))
            .collect()
    }

    #[test]
    fn exit_code_reports_missing_and_unresolved() {
        let base = runs(&[
            ("view_join", "stmt_p50_ms", &[10.0, 10.1]),
            ("dml_maintain", "recover_s", &[0.5, 0.5]),
            ("view_join", "template.x.ms", &[1.0]),
        ]);
        assert_eq!(judge(&base, &base), 0);
        // A one-workload metric the new side stopped emitting, and an
        // unbounded one it dropped: only the first counts.
        let new = runs(&[("view_join", "stmt_p50_ms", &[10.0, 10.1])]);
        assert_eq!(judge(&base, &new), 1);
        assert_eq!(judge(&new, &base), 1);
        let noisy = runs(&[("view_join", "stmt_p50_ms", &[5.0, 10.0, 15.0, 20.0])]);
        assert_eq!(judge(&new, &noisy), 2);
        let slow = runs(&[("view_join", "stmt_p50_ms", &[13.0, 13.1])]);
        assert_eq!(judge(&new, &slow), 1);
    }

    #[test]
    fn verdicts_follow_direction_bound_and_spread() {
        assert_eq!(verdict(&[10.0], &[10.5], "lower", 0.1), "same");
        assert_eq!(verdict(&[10.0], &[11.5], "lower", 0.1), "worse");
        assert_eq!(verdict(&[10.0], &[8.0], "lower", 0.1), "better");
        assert_eq!(verdict(&[10.0], &[8.0], "higher", 0.1), "worse");
        let noisy = [5.0, 10.0, 15.0, 20.0];
        assert_eq!(
            verdict(&noisy, &[12.0, 12.1, 12.2, 12.3], "lower", 0.1),
            "unresolved"
        );
    }
}
