//! Deterministic fault injection for robustness testing.
//!
//! A [`FaultInjector`] is consulted at well-known *sites* (storage
//! scans, executor operator boundaries) and may turn any of those calls
//! into a [`AggViewError::Transient`] failure. Injectors are
//! deterministic — a given seed or schedule always fails the same
//! calls — so any failing run reproduces exactly.
//!
//! Injection is off by default everywhere: production paths pass no
//! injector and pay only an `Option` check.

use crate::error::{AggViewError, Result};
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

/// Every fault-injection site the workspace instruments, as registered
/// prefixes: a consulted site string either equals a registered entry
/// or extends it with a `.`-separated qualifier (`storage.scan.emp`
/// matches the registered `storage.scan`).
///
/// New instrumentation points MUST be added here — the workspace-level
/// `fault_sites` test asserts that every registered entry is exercised
/// by the governance/recovery suites and that every consulted site
/// resolves to exactly one registered entry, so an unregistered site
/// (or one that silently goes untested) fails CI.
pub const REGISTERED_FAULT_SITES: &[&str] = &[
    // Execution-time sites (consulted via `fault()`).
    "storage.scan",
    "exec.join",
    "exec.groupby",
    "exec.partial-agg",
    // Durability IO sites (consulted via `io_fault()`).
    "wal.append",
    "wal.fsync",
    "wal.truncate",
    "snapshot.write",
    "snapshot.fsync",
    "snapshot.rename",
];

/// The registered entry a consulted site string resolves to, if any.
pub fn registered_site(site: &str) -> Option<&'static str> {
    REGISTERED_FAULT_SITES.iter().copied().find(|&r| {
        site == r || (site.starts_with(r) && site.as_bytes().get(r.len()) == Some(&b'.'))
    })
}

/// How an injected IO fault manifests at a durability site.
///
/// `Error` models fsync/rename failure (the operation performs no work
/// and reports [`AggViewError::Io`]); the other two model what a crash
/// can leave on disk: a prefix of the record (`ShortWrite`) or the
/// record followed by stale bytes from recycled space
/// (`TrailingGarbage`). Recovery must tolerate both tail shapes.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum IoFaultKind {
    /// The operation fails cleanly: nothing is written.
    Error,
    /// Only a prefix of the bytes reaches the file (torn write), then
    /// the operation reports failure.
    ShortWrite,
    /// The full record reaches the file **followed by garbage bytes**;
    /// the operation reports success (the garbage models recycled disk
    /// space after the committed tail).
    TrailingGarbage,
}

impl IoFaultKind {
    /// All kinds, for exhaustive crash-point sweeps.
    pub const ALL: &'static [IoFaultKind] = &[
        IoFaultKind::Error,
        IoFaultKind::ShortWrite,
        IoFaultKind::TrailingGarbage,
    ];
}

/// A hook consulted before fallible infrastructure work.
///
/// Implementations return `Err(AggViewError::Transient(_))` to simulate
/// an infrastructure failure at the call site, or `Ok(())` to let the
/// operation proceed. `site` names the instrumentation point (e.g.
/// `"storage.scan.emp"` or `"exec.join"`) so injectors can target
/// specific operators.
///
/// Durability code additionally consults [`FaultInjector::io_fault`] at
/// its IO boundaries (`wal.append`, `snapshot.rename`, ...), which can
/// demand a *shaped* failure — torn write, trailing garbage — rather
/// than a plain error. The default implementation injects nothing, so
/// existing injectors are unaffected.
pub trait FaultInjector: Send + Sync + fmt::Debug {
    fn fault(&self, site: &str) -> Result<()>;

    /// Shaped IO fault to apply at a durability site, or `None` to let
    /// the IO proceed untouched.
    fn io_fault(&self, _site: &str) -> Option<IoFaultKind> {
        None
    }
}

/// Convenience: consult an optional injector (the common call shape).
pub fn maybe_fault(injector: Option<&dyn FaultInjector>, site: &str) -> Result<()> {
    match injector {
        Some(f) => f.fault(site),
        None => Ok(()),
    }
}

/// Injector that never fails — equivalent to passing no injector.
#[derive(Debug, Default, Clone, Copy)]
pub struct NoFaults;

impl FaultInjector for NoFaults {
    fn fault(&self, _site: &str) -> Result<()> {
        Ok(())
    }
}

/// Fails a deterministic pseudo-random subset of calls.
///
/// Each call's fate is a pure function of `(seed, site, call index)`,
/// so a seed fully determines the failure schedule regardless of
/// timing. `fail_per_mille` is the failure probability in thousandths
/// (0 = never, 1000 = always).
pub struct SeededFaultInjector {
    seed: u64,
    fail_per_mille: u16,
    calls: AtomicU64,
}

impl SeededFaultInjector {
    pub fn new(seed: u64, fail_per_mille: u16) -> SeededFaultInjector {
        SeededFaultInjector {
            seed,
            fail_per_mille: fail_per_mille.min(1000),
            calls: AtomicU64::new(0),
        }
    }

    /// Number of times the injector has been consulted.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for SeededFaultInjector {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SeededFaultInjector")
            .field("seed", &self.seed)
            .field("fail_per_mille", &self.fail_per_mille)
            .field("calls", &self.calls())
            .finish()
    }
}

fn mix(mut z: u64) -> u64 {
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

impl FaultInjector for SeededFaultInjector {
    fn fault(&self, site: &str) -> Result<()> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        let mut h = self.seed ^ n.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        for b in site.bytes() {
            h = mix(h ^ b as u64);
        }
        if mix(h) % 1000 < self.fail_per_mille as u64 {
            Err(AggViewError::Transient(format!(
                "injected fault at {site} (call #{n}, seed {})",
                self.seed
            )))
        } else {
            Ok(())
        }
    }
}

/// Fails an explicit set of call indices (0-based, counted across all
/// sites in consultation order).
///
/// This is the building block for exhaustive fault-schedule testing:
/// a schedule like `[0, 3]` fails the first and fourth consulted call
/// and nothing else.
pub struct ScheduledFaults {
    schedule: Vec<u64>,
    calls: AtomicU64,
}

impl ScheduledFaults {
    pub fn failing_calls(schedule: impl IntoIterator<Item = u64>) -> ScheduledFaults {
        let mut schedule: Vec<u64> = schedule.into_iter().collect();
        schedule.sort_unstable();
        schedule.dedup();
        ScheduledFaults {
            schedule,
            calls: AtomicU64::new(0),
        }
    }

    /// Number of times the injector has been consulted.
    pub fn calls(&self) -> u64 {
        self.calls.load(Ordering::Relaxed)
    }
}

impl fmt::Debug for ScheduledFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScheduledFaults")
            .field("schedule", &self.schedule)
            .field("calls", &self.calls())
            .finish()
    }
}

impl FaultInjector for ScheduledFaults {
    fn fault(&self, site: &str) -> Result<()> {
        let n = self.calls.fetch_add(1, Ordering::Relaxed);
        if self.schedule.binary_search(&n).is_ok() {
            Err(AggViewError::Transient(format!(
                "injected fault at {site} (call #{n}, scheduled)"
            )))
        } else {
            Ok(())
        }
    }
}

/// Injects one shaped IO fault at the `nth` consultation (0-based) of
/// one target site, and nothing anywhere else.
///
/// This is the building block of the crash-point harness: for every
/// `(site, occurrence, kind)` triple it produces exactly the on-disk
/// state a crash at that point would leave, deterministically.
pub struct ScheduledIoFaults {
    site: String,
    nth: u64,
    kind: IoFaultKind,
    seen: AtomicU64,
}

impl ScheduledIoFaults {
    /// Fault the `nth` consultation of `site` (exact match) with `kind`.
    pub fn at(site: impl Into<String>, nth: u64, kind: IoFaultKind) -> ScheduledIoFaults {
        ScheduledIoFaults {
            site: site.into(),
            nth,
            kind,
            seen: AtomicU64::new(0),
        }
    }

    /// How many times the target site has been consulted.
    pub fn hits(&self) -> u64 {
        self.seen.load(Ordering::Relaxed)
    }

    /// True once the scheduled fault has actually been delivered.
    pub fn fired(&self) -> bool {
        self.hits() > self.nth
    }
}

impl fmt::Debug for ScheduledIoFaults {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("ScheduledIoFaults")
            .field("site", &self.site)
            .field("nth", &self.nth)
            .field("kind", &self.kind)
            .field("hits", &self.hits())
            .finish()
    }
}

impl FaultInjector for ScheduledIoFaults {
    fn fault(&self, _site: &str) -> Result<()> {
        Ok(())
    }

    fn io_fault(&self, site: &str) -> Option<IoFaultKind> {
        if site != self.site {
            return None;
        }
        let n = self.seen.fetch_add(1, Ordering::Relaxed);
        (n == self.nth).then_some(self.kind)
    }
}

/// Never fails, but records every site consulted (both execution-time
/// `fault` sites and durability `io_fault` sites). Backs the fault-site
/// registry test: run a representative workload under a recorder and
/// assert every [`REGISTERED_FAULT_SITES`] entry was consulted.
#[derive(Debug, Default)]
pub struct RecordingFaults {
    sites: Mutex<Vec<String>>,
}

impl RecordingFaults {
    pub fn new() -> RecordingFaults {
        RecordingFaults::default()
    }

    fn record(&self, site: &str) {
        let mut sites = self.sites.lock().expect("recorder poisoned");
        if !sites.iter().any(|s| s == site) {
            sites.push(site.to_string());
        }
    }

    /// Distinct site strings consulted so far, in first-seen order.
    pub fn sites(&self) -> Vec<String> {
        self.sites.lock().expect("recorder poisoned").clone()
    }
}

impl FaultInjector for RecordingFaults {
    fn fault(&self, site: &str) -> Result<()> {
        self.record(site);
        Ok(())
    }

    fn io_fault(&self, site: &str) -> Option<IoFaultKind> {
        self.record(site);
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn no_faults_never_fails() {
        for i in 0..100 {
            assert!(NoFaults.fault(&format!("site{i}")).is_ok());
        }
    }

    #[test]
    fn seeded_is_deterministic() {
        let run = |seed| {
            let inj = SeededFaultInjector::new(seed, 300);
            (0..200)
                .map(|i| inj.fault(&format!("s{}", i % 3)).is_err())
                .collect::<Vec<_>>()
        };
        assert_eq!(run(7), run(7));
        assert_ne!(run(7), run(8));
        assert!(run(7).iter().any(|&f| f), "p=0.3 over 200 calls must fire");
    }

    #[test]
    fn seeded_extremes() {
        let never = SeededFaultInjector::new(1, 0);
        let always = SeededFaultInjector::new(1, 1000);
        for _ in 0..50 {
            assert!(never.fault("x").is_ok());
            assert!(always.fault("x").is_err());
        }
    }

    #[test]
    fn scheduled_fails_exactly_listed_calls() {
        let inj = ScheduledFaults::failing_calls([1, 3]);
        let fates: Vec<bool> = (0..5).map(|_| inj.fault("s").is_err()).collect();
        assert_eq!(fates, [false, true, false, true, false]);
        assert_eq!(inj.calls(), 5);
    }

    #[test]
    fn injected_errors_are_transient_and_retryable() {
        let inj = ScheduledFaults::failing_calls([0]);
        let err = inj.fault("scan").unwrap_err();
        assert!(err.is_retryable());
        assert_eq!(err.kind(), "transient");
        assert!(err.message().contains("scan"));
    }

    #[test]
    fn maybe_fault_short_circuits() {
        assert!(maybe_fault(None, "s").is_ok());
        let inj = ScheduledFaults::failing_calls([0]);
        assert!(maybe_fault(Some(&inj), "s").is_err());
    }

    #[test]
    fn registry_entries_are_unique_and_prefix_free() {
        for (i, a) in REGISTERED_FAULT_SITES.iter().enumerate() {
            for b in &REGISTERED_FAULT_SITES[i + 1..] {
                assert_ne!(a, b, "duplicate registry entry");
                assert!(
                    !b.starts_with(&format!("{a}.")) && !a.starts_with(&format!("{b}.")),
                    "registry entries {a} and {b} shadow each other"
                );
            }
        }
    }

    #[test]
    fn registered_site_matches_exact_and_qualified() {
        assert_eq!(registered_site("exec.join"), Some("exec.join"));
        assert_eq!(registered_site("storage.scan.emp"), Some("storage.scan"));
        assert_eq!(registered_site("storage.scanner"), None);
        assert_eq!(registered_site("bogus.site"), None);
    }

    #[test]
    fn scheduled_io_faults_fire_exactly_once_at_nth() {
        let inj = ScheduledIoFaults::at("wal.append", 2, IoFaultKind::ShortWrite);
        assert_eq!(inj.io_fault("wal.fsync"), None, "other sites untouched");
        assert_eq!(inj.io_fault("wal.append"), None);
        assert_eq!(inj.io_fault("wal.append"), None);
        assert!(!inj.fired());
        assert_eq!(inj.io_fault("wal.append"), Some(IoFaultKind::ShortWrite));
        assert!(inj.fired());
        assert_eq!(inj.io_fault("wal.append"), None, "fires only once");
        assert!(inj.fault("anything").is_ok());
    }

    #[test]
    fn default_io_fault_is_none() {
        assert_eq!(NoFaults.io_fault("wal.append"), None);
        let sched = ScheduledFaults::failing_calls([0]);
        assert_eq!(sched.io_fault("wal.append"), None);
    }

    #[test]
    fn recorder_collects_distinct_sites() {
        let rec = RecordingFaults::new();
        rec.fault("exec.join").unwrap();
        rec.fault("exec.join").unwrap();
        assert_eq!(rec.io_fault("wal.append"), None);
        assert_eq!(rec.sites(), vec!["exec.join", "wal.append"]);
    }
}
