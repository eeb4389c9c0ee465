//! Atomic catalog checkpoints.
//!
//! A snapshot is a single self-validating file holding the entire
//! catalog state — tables with rows and key declarations, the per-table
//! version counters, and every materialized-view meta — plus the LSN of
//! the last WAL record it covers. Checkpointing writes the snapshot
//! **atomically** (temp file → fsync → rename → directory fsync) and
//! only then resets the WAL; a crash anywhere in that window leaves
//! either the old snapshot or the new one, never a torn mix, and the
//! `last_lsn` field lets recovery skip WAL records the surviving
//! snapshot already covers.
//!
//! ## File format
//!
//! ```text
//! "AGVSNP01"  [u32 len] [u32 crc32(body)] [body]
//! body: [u64 last_lsn]
//!       [u32 n] n × table   (name, schema, primary key, foreign keys, rows)
//!       [u32 n] n × version (name, data, stats)
//!       [u32 n] n × matview meta
//! ```
//!
//! Unlike the WAL, a snapshot has no notion of a torn *tail* being
//! acceptable: the rename only happens after a successful fsync, so a
//! snapshot file that fails validation is genuine corruption and reads
//! as [`AggViewError::Corrupt`]. Bytes after the checksummed body are
//! tolerated (recycled-disk garbage past the committed content).

use crate::codec::{self, crc32, Dec, Enc};
use crate::matview::MatViewMeta;
use crate::table::Table;
use aggview_common::{AggViewError, FaultInjector, IoFaultKind, Result};
use std::io::Write;
use std::path::Path;
use std::sync::Arc;

/// File magic identifying a snapshot file (and its format version).
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"AGVSNP01";

/// Snapshot file name within a durable catalog directory.
pub const SNAPSHOT_FILE: &str = "snapshot.agv";

/// Temp name the snapshot is staged under before the atomic rename.
pub const SNAPSHOT_TEMP: &str = "snapshot.tmp";

/// One catalog's durable state at a checkpoint.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Snapshot {
    /// LSN of the last WAL record this snapshot covers; replay skips
    /// records at or below it. `0` with no tables means "empty catalog,
    /// nothing covered" (LSNs start at 0, but an empty catalog has no
    /// records to skip — see [`Snapshot::covers`]).
    pub last_lsn: u64,
    /// True once any WAL record is covered; disambiguates `last_lsn: 0`
    /// between "covers record 0" and "covers nothing".
    pub any_covered: bool,
    /// The tables themselves: a checkpoint shares them with the catalog
    /// and encodes from their columns, a read builds them as it decodes.
    pub tables: Vec<Arc<Table>>,
    /// `(lowercase name, data version, stats version)` triples —
    /// including entries for names that have no table (an out-of-band
    /// `mark_modified` on a never-registered name still counts).
    pub versions: Vec<(String, u64, u64)>,
    pub matviews: Vec<MatViewMeta>,
}

impl Snapshot {
    /// True when the WAL record at `lsn` is already reflected in this
    /// snapshot and must not be replayed.
    pub fn covers(&self, lsn: u64) -> bool {
        self.any_covered && lsn <= self.last_lsn
    }

    fn encode(&self) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(self.last_lsn);
        e.u8(self.any_covered as u8);
        e.u32(self.tables.len() as u32);
        for t in &self.tables {
            codec::enc_table(&mut e, t);
        }
        e.u32(self.versions.len() as u32);
        for (name, data, stats) in &self.versions {
            e.str(name);
            e.u64(*data);
            e.u64(*stats);
        }
        e.u32(self.matviews.len() as u32);
        for m in &self.matviews {
            codec::enc_matview_meta(&mut e, m);
        }
        e.into_bytes()
    }

    fn decode(body: &[u8]) -> Result<Snapshot> {
        let mut d = Dec::new(body);
        let last_lsn = d.u64()?;
        let any_covered = d.u8()? != 0;
        let n = d.len("snapshot table")?;
        let tables = (0..n)
            .map(|_| codec::dec_table(&mut d))
            .collect::<Result<Vec<_>>>()?;
        let n = d.len("snapshot version")?;
        let versions = (0..n)
            .map(|_| Ok((d.str()?, d.u64()?, d.u64()?)))
            .collect::<Result<Vec<_>>>()?;
        let n = d.len("snapshot matview")?;
        let matviews = (0..n)
            .map(|_| codec::dec_matview_meta(&mut d))
            .collect::<Result<Vec<_>>>()?;
        if !d.is_done() {
            return Err(d.corrupt("snapshot body has trailing bytes"));
        }
        Ok(Snapshot {
            last_lsn,
            any_covered,
            tables,
            versions,
            matviews,
        })
    }

    /// Write this snapshot atomically into `dir`.
    ///
    /// Stage to a temp file, fsync it, rename over the live name, fsync
    /// the directory. Injection sites: `snapshot.write` (staging the
    /// bytes), `snapshot.fsync`, `snapshot.rename`. An injected failure
    /// at any of them leaves the previous snapshot (or its absence)
    /// intact — the rename is the commit point.
    pub fn write(&self, dir: &Path, faults: &dyn FaultInjector) -> Result<()> {
        let body = self.encode();
        let tmp = dir.join(SNAPSHOT_TEMP);
        let live = dir.join(SNAPSHOT_FILE);

        let mut file = std::fs::File::create(&tmp)
            .map_err(|e| AggViewError::Io(format!("create snapshot temp: {e}")))?;
        let write_payload = |file: &mut std::fs::File, body: &[u8]| -> std::io::Result<()> {
            file.write_all(SNAPSHOT_MAGIC)?;
            file.write_all(&(body.len() as u32).to_le_bytes())?;
            file.write_all(&crc32(body).to_le_bytes())?;
            file.write_all(body)
        };
        match faults.io_fault("snapshot.write") {
            Some(IoFaultKind::Error) => {
                drop(file);
                let _ = std::fs::remove_file(&tmp);
                return Err(AggViewError::Io("injected snapshot write failure".into()));
            }
            Some(IoFaultKind::ShortWrite) => {
                // Half the staged bytes land, then the write fails. The
                // torn temp file is harmless: it is never renamed, and
                // the next checkpoint recreates it from scratch.
                write_payload(&mut file, &body)
                    .map_err(|e| AggViewError::Io(format!("write snapshot: {e}")))?;
                drop(file);
                let mut full = std::fs::read(&tmp)
                    .map_err(|e| AggViewError::Io(format!("reread snapshot temp: {e}")))?;
                full.truncate(full.len() / 2);
                std::fs::write(&tmp, &full)
                    .map_err(|e| AggViewError::Io(format!("write snapshot: {e}")))?;
                return Err(AggViewError::Io("injected torn snapshot write".into()));
            }
            Some(IoFaultKind::TrailingGarbage) => {
                write_payload(&mut file, &body)
                    .map_err(|e| AggViewError::Io(format!("write snapshot: {e}")))?;
                // Recycled bytes past the checksummed body; the reader
                // ignores them, so this checkpoint still commits.
                file.write_all(&[0xBA, 0xD1, 0xDE, 0xA5])
                    .map_err(|e| AggViewError::Io(format!("write snapshot: {e}")))?;
            }
            None => {
                write_payload(&mut file, &body)
                    .map_err(|e| AggViewError::Io(format!("write snapshot: {e}")))?;
            }
        }
        if faults.io_fault("snapshot.fsync").is_some() {
            drop(file);
            let _ = std::fs::remove_file(&tmp);
            return Err(AggViewError::Io("injected snapshot fsync failure".into()));
        }
        file.sync_data()
            .map_err(|e| AggViewError::Io(format!("fsync snapshot: {e}")))?;
        drop(file);
        if faults.io_fault("snapshot.rename").is_some() {
            let _ = std::fs::remove_file(&tmp);
            return Err(AggViewError::Io("injected snapshot rename failure".into()));
        }
        std::fs::rename(&tmp, &live)
            .map_err(|e| AggViewError::Io(format!("rename snapshot: {e}")))?;
        // Persist the rename itself. Directory fsync is not exposed
        // portably through std on all platforms; opening the directory
        // read-only and syncing works on Unix and is a no-op error we
        // tolerate elsewhere.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    }

    /// Read the snapshot in `dir`; `Ok(None)` when none has ever been
    /// written. Any validation failure — bad magic, bad CRC, undecodable
    /// body — is [`AggViewError::Corrupt`].
    pub fn read(dir: &Path) -> Result<Option<Snapshot>> {
        let live = dir.join(SNAPSHOT_FILE);
        let bytes = match std::fs::read(&live) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
            Err(e) => return Err(AggViewError::Io(format!("read snapshot: {e}"))),
        };
        let corrupt = |offset: usize, message: &str| AggViewError::Corrupt {
            offset: offset as u64,
            record: 0,
            message: message.into(),
        };
        let header = SNAPSHOT_MAGIC.len() + 8;
        if bytes.len() < header || &bytes[..SNAPSHOT_MAGIC.len()] != SNAPSHOT_MAGIC {
            return Err(corrupt(0, "snapshot file magic mismatch"));
        }
        let len = u32::from_le_bytes(bytes[8..12].try_into().expect("4")) as usize;
        let crc = u32::from_le_bytes(bytes[12..16].try_into().expect("4"));
        let Some(body) = bytes.get(header..header + len) else {
            return Err(corrupt(8, "snapshot body shorter than its declared length"));
        };
        if crc32(body) != crc {
            return Err(corrupt(12, "snapshot checksum mismatch"));
        }
        let snap = Snapshot::decode(body).map_err(|e| match e {
            AggViewError::Corrupt {
                offset, message, ..
            } => AggViewError::Corrupt {
                offset: header as u64 + offset,
                record: 0,
                message,
            },
            other => other,
        })?;
        Ok(Some(snap))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{DataType, NoFaults, ScheduledIoFaults, Schema, Value};
    use std::path::PathBuf;

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aggview-snap-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample() -> Snapshot {
        Snapshot {
            last_lsn: 7,
            any_covered: true,
            tables: vec![Table::builder(
                "Emp",
                Schema::of(&[("eno", DataType::Int), ("sal", DataType::Float)]),
            )
            .primary_key(&["eno"])
            .unwrap()
            .row(vec![Value::Int(1), Value::Float(10.0)])
            .unwrap()
            .build()
            .unwrap()],
            versions: vec![("emp".into(), 3, 3), ("ghost".into(), 1, 0)],
            matviews: vec![],
        }
    }

    #[test]
    fn write_read_round_trips() {
        let dir = tmpdir("roundtrip");
        let snap = sample();
        snap.write(&dir, &NoFaults).unwrap();
        assert_eq!(Snapshot::read(&dir).unwrap().unwrap(), snap);
        assert!(!dir.join(SNAPSHOT_TEMP).exists(), "temp cleaned by rename");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_snapshot_reads_as_none() {
        let dir = tmpdir("none");
        assert_eq!(Snapshot::read(&dir).unwrap(), None);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn covers_distinguishes_empty_from_lsn_zero() {
        let empty = Snapshot::default();
        assert!(!empty.covers(0));
        let one = Snapshot {
            last_lsn: 0,
            any_covered: true,
            ..Snapshot::default()
        };
        assert!(one.covers(0));
        assert!(!one.covers(1));
    }

    #[test]
    fn damaged_snapshot_is_corruption() {
        let dir = tmpdir("damage");
        sample().write(&dir, &NoFaults).unwrap();
        let live = dir.join(SNAPSHOT_FILE);
        let good = std::fs::read(&live).unwrap();
        // Flip a body byte: CRC mismatch.
        let mut bad = good.clone();
        let last = bad.len() - 1;
        bad[last] ^= 0x01;
        std::fs::write(&live, &bad).unwrap();
        assert_eq!(Snapshot::read(&dir).unwrap_err().kind(), "corrupt");
        // Truncate inside the body: declared length unsatisfied.
        std::fs::write(&live, &good[..good.len() / 2]).unwrap();
        assert_eq!(Snapshot::read(&dir).unwrap_err().kind(), "corrupt");
        // Wrong magic.
        std::fs::write(&live, b"WRONGMAGICxxxxxxxxxx").unwrap();
        assert_eq!(Snapshot::read(&dir).unwrap_err().kind(), "corrupt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_garbage_after_body_is_tolerated() {
        let dir = tmpdir("garbage");
        let snap = sample();
        snap.write(&dir, &NoFaults).unwrap();
        let live = dir.join(SNAPSHOT_FILE);
        let mut bytes = std::fs::read(&live).unwrap();
        bytes.extend_from_slice(&[1, 2, 3]);
        std::fs::write(&live, &bytes).unwrap();
        assert_eq!(Snapshot::read(&dir).unwrap().unwrap(), snap);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_faults_preserve_previous_snapshot() {
        for kind in IoFaultKind::ALL {
            for site in ["snapshot.write", "snapshot.fsync", "snapshot.rename"] {
                let dir = tmpdir(&format!("inj-{site}-{kind:?}"));
                let old = Snapshot::default();
                old.write(&dir, &NoFaults).unwrap();
                let new = sample();
                let inj = ScheduledIoFaults::at(site, 0, *kind);
                let res = new.write(&dir, &inj);
                assert!(inj.fired(), "{site} {kind:?} never fired");
                let on_disk = Snapshot::read(&dir).unwrap().unwrap();
                if res.is_ok() {
                    // Only TrailingGarbage at the write site commits.
                    assert_eq!(on_disk, new, "{site} {kind:?}");
                } else {
                    assert_eq!(on_disk, old, "{site} {kind:?} must keep the old snapshot");
                }
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }
}
