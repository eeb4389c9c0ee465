//! Write-ahead log for catalog mutations.
//!
//! The WAL is *logical*: one record per catalog mutation (table
//! registration, insert/delete/update batch, modification mark,
//! materialized-view metadata upsert, extent patch), replayed through
//! the catalog's own mutators on recovery. Logging at mutation
//! granularity keeps the format small and makes replay trivially
//! deterministic — the same records through the same code produce the
//! same tables, statistics, and version counters.
//!
//! The unit of commit is the **statement** ([`crate::Catalog::statement`]):
//! the records of the mutations one statement made — a DML statement's
//! base-table change and the patch of every view it maintains, say —
//! are encoded into one frame buffer and reach the disk in one write and
//! one fsync. A statement that made a single mutation is written as
//! that record's plain frame (kinds 0–6, the only frames logs had
//! before statements existed); one that made several is a kind 7 frame
//! holding them in order.
//!
//! ## File format
//!
//! ```text
//! "AGVWAL01"                                    file magic, 8 bytes
//! repeat:                                       one frame per statement
//!   [u32 len] [u32 crc32(payload)] [payload]    little-endian
//!   payload = [u64 lsn] member                  a single mutation
//!           | [u64 lsn] [u8 7] [u32 n] member*n several, in order
//!   member  = [u8 kind 0..=6] [body]
//! END = [0xFF; 8]                               the live log ends here
//! (stale bytes of earlier intervals)
//! ```
//!
//! The file's blocks are **recycled**: a checkpoint's reset
//! ([`WalWriter::truncate_all`]) writes `END` at offset 8 and keeps the
//! file, so the next interval's commits overwrite blocks the file
//! already has, and an fsync flushes data without a new file size or
//! new extents. `END` is a frame header whose length exceeds the frame
//! limit, so a reader stops there. Logs written before `END` existed
//! end at EOF and read as they always did.
//!
//! Commits go through **write then fsync**: each commit writes `frame ++
//! END` at the committed length in one write, and a
//! statement is *committed* once its fsync returns. A crash mid-commit
//! can leave a torn final frame (its prefix over older bytes) or a
//! committed frame whose `END` was lost, followed by older bytes;
//! [`WalReader::read_committed`] stops at `END`, at the first frame that
//! does not parse cleanly, and at the first frame whose LSN is not
//! greater than its predecessor's, and treats everything before as the
//! committed log — a statement is therefore recovered whole or not at
//! all. The LSN rule rules out stale frames: LSNs are never reused and
//! grow across checkpoints, so a frame left from an earlier interval
//! can never continue the live run (and the snapshot already covers
//! it). A frame whose CRC validates but whose payload fails to decode
//! is **corruption**, not a torn tail — fsynced bytes do not
//! spontaneously half-decode — and surfaces as
//! [`AggViewError::Corrupt`] with the file offset and record index.
//!
//! Fault injection: the writer's commit consults
//! [`FaultInjector::io_fault`] at `wal.append` (write) and `wal.fsync`,
//! once per frame; [`WalWriter::truncate_all`] consults `wal.truncate`
//! (a short write there lands the reset's `END` and fails the rest).
//! An injected fsync failure ends the log at its committed length again
//! — the statement is *not* committed and a retry starts from a clean
//! boundary.

use crate::codec::{self, crc32, Dec, Enc};
use crate::matview::MatViewMeta;
use crate::table::{RowPatch, Table};
use aggview_common::{AggViewError, FaultInjector, IoFaultKind, Result, Tuple};
use std::fs::{File, OpenOptions};
use std::io::{Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// File magic identifying a WAL file (and its format version).
pub const WAL_MAGIC: &[u8; 8] = b"AGVWAL01";

/// Frame header size: `[u32 len][u32 crc]`.
const FRAME_HEADER: usize = 8;

/// Upper bound on a single frame's payload; a CRC-less corrupted
/// length field cannot make the reader attempt an absurd allocation,
/// and the writer refuses to commit a frame the reader would not read.
const MAX_RECORD: u32 = 1 << 28;

/// Record kind of a frame holding several member records.
const KIND_STATEMENT: u8 = 7;

/// End of the live log: a frame header whose length exceeds
/// [`MAX_RECORD`], written behind every committed frame and by the
/// checkpoint's reset.
const END: [u8; FRAME_HEADER] = [0xFF; FRAME_HEADER];

/// One logged catalog mutation — or, as [`WalRecord::Statement`], the
/// several mutations of one statement. This is the *decoded* form:
/// what [`WalReader`] hands to replay and to tests. The live mutators
/// never build one; they encode from the data they already hold
/// (the crate-private `Frame`).
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A table was registered (`replace: false` — `Catalog::add`) or
    /// overwritten (`replace: true` — `Catalog::add_or_replace`). The
    /// record carries the full table content — registration (base
    /// tables, and extents when they are built or rebuilt) is the only
    /// point where rows enter wholesale; DML and view maintenance log
    /// the rows they change. Decoded, it is the table, rebuilt.
    PutTable { table: Arc<Table>, replace: bool },
    /// Rows appended to an existing table (`Catalog::append_rows`).
    InsertBatch { table: String, rows: Vec<Tuple> },
    /// An out-of-band modification mark (`Catalog::mark_modified`).
    MarkModified { table: String },
    /// Materialized-view metadata registered or updated. Replay applies
    /// it as an upsert, so one record shape covers both.
    PutMatView { meta: MatViewMeta },
    /// Rows removed from an existing table (`Catalog::delete_rows`).
    /// Logged as *positions* into the table's row vector at log time:
    /// every mutator preserves row order, so positional replay against
    /// the same committed prefix is deterministic and the record stays
    /// small.
    DeleteBatch { table: String, indices: Vec<usize> },
    /// Rows replaced in place (`Catalog::update_rows`), as `(position,
    /// new content)`. Same positional determinism argument as
    /// [`WalRecord::DeleteBatch`].
    UpdateBatch {
        table: String,
        updates: Vec<(usize, Tuple)>,
    },
    /// One maintenance round of one materialized view
    /// (`Catalog::patch_extent`): the positional patch to its extent
    /// table and the base-table versions the extent reflects afterwards.
    /// One record, applied under one set of locks, so the extent is
    /// never patched-and-unstamped.
    PatchExtent {
        view: String,
        patch: RowPatch,
        base_versions: Vec<u64>,
    },
    /// The mutations of one statement that made more than one, in the
    /// order it made them: committed by one fsync, recovered all or
    /// none. Members are never statements themselves.
    Statement(Vec<WalRecord>),
}

/// The frame of one statement while it is being put together: each
/// mutation appends its record, encoded from borrowed data, and
/// [`WalWriter::commit`] writes the whole as one frame.
///
/// Room for the frame header, the LSN and a statement's kind and member
/// count is reserved in front of the first member, so the bytes that
/// are written are the bytes the members were encoded into.
#[derive(Debug)]
pub(crate) struct Frame {
    enc: Enc,
    members: u32,
}

/// `[u32 len][u32 crc][u64 lsn][u8 kind 7][u32 members]`.
const FRAME_RESERVE: usize = FRAME_HEADER + 8 + 1 + 4;

/// How far a [`Frame`] had got, to cut it back to.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct FrameMark {
    len: usize,
    members: u32,
}

impl Frame {
    pub(crate) fn new() -> Frame {
        let mut enc = Enc::new();
        enc.bytes(&[0; FRAME_RESERVE]);
        Frame { enc, members: 0 }
    }

    /// True when no mutation has been recorded.
    pub(crate) fn is_empty(&self) -> bool {
        self.members == 0
    }

    pub(crate) fn mark(&self) -> FrameMark {
        FrameMark {
            len: self.enc.len(),
            members: self.members,
        }
    }

    /// Drop the members recorded since `mark`.
    pub(crate) fn truncate(&mut self, mark: FrameMark) {
        self.enc.truncate(mark.len);
        self.members = mark.members;
    }

    fn member(&mut self, kind: u8) -> &mut Enc {
        self.members += 1;
        self.enc.u8(kind);
        &mut self.enc
    }

    pub(crate) fn put_table(&mut self, table: &Table, replace: bool) {
        let e = self.member(0);
        codec::enc_table(e, table);
        e.u8(replace as u8);
    }

    pub(crate) fn insert_batch(&mut self, table: &str, rows: &[Tuple]) {
        let e = self.member(1);
        e.str(table);
        codec::enc_rows(e, rows);
    }

    pub(crate) fn mark_modified(&mut self, table: &str) {
        self.member(2).str(table);
    }

    pub(crate) fn put_matview(&mut self, meta: &MatViewMeta) {
        codec::enc_matview_meta(self.member(3), meta);
    }

    pub(crate) fn delete_batch(&mut self, table: &str, indices: &[usize]) {
        let e = self.member(4);
        e.str(table);
        e.usizes(indices);
    }

    pub(crate) fn update_batch(&mut self, table: &str, updates: &[(usize, Tuple)]) {
        let e = self.member(5);
        e.str(table);
        e.u32(updates.len() as u32);
        for (at, _) in updates {
            e.u64(*at as u64);
        }
        e.u32(updates.len() as u32);
        for (_, row) in updates {
            codec::enc_tuple(e, row);
        }
    }

    pub(crate) fn patch_extent(&mut self, view: &str, patch: &RowPatch, base_versions: &[u64]) {
        let e = self.member(6);
        e.str(view);
        codec::enc_row_patch(e, patch);
        e.u64s(base_versions);
    }

    /// Append a decoded record (each member of a statement in turn).
    fn push(&mut self, rec: &WalRecord) {
        match rec {
            WalRecord::PutTable { table, replace } => self.put_table(table, *replace),
            WalRecord::InsertBatch { table, rows } => self.insert_batch(table, rows),
            WalRecord::MarkModified { table } => self.mark_modified(table),
            WalRecord::PutMatView { meta } => self.put_matview(meta),
            WalRecord::DeleteBatch { table, indices } => self.delete_batch(table, indices),
            WalRecord::UpdateBatch { table, updates } => self.update_batch(table, updates),
            WalRecord::PatchExtent {
                view,
                patch,
                base_versions,
            } => self.patch_extent(view, patch, base_versions),
            WalRecord::Statement(members) => members.iter().for_each(|m| self.push(m)),
        }
    }

    /// Fill in the reserved prefix for `lsn` and return the finished
    /// frame followed by `END`: a single member as its plain frame,
    /// several behind the statement kind and their count.
    fn seal(&mut self, lsn: u64) -> &mut [u8] {
        let statement = self.members > 1;
        let members = self.members;
        let buf = self.enc.as_mut_slice();
        let start = if statement {
            buf[FRAME_HEADER + 8] = KIND_STATEMENT;
            buf[FRAME_HEADER + 9..FRAME_RESERVE].copy_from_slice(&members.to_le_bytes());
            0
        } else {
            FRAME_RESERVE - FRAME_HEADER - 8
        };
        let payload = start + FRAME_HEADER;
        buf[payload..payload + 8].copy_from_slice(&lsn.to_le_bytes());
        let len = (buf.len() - payload) as u32;
        let crc = crc32(&buf[payload..]);
        buf[start..start + 4].copy_from_slice(&len.to_le_bytes());
        buf[start + 4..payload].copy_from_slice(&crc.to_le_bytes());
        self.enc.bytes(&END);
        &mut self.enc.as_mut_slice()[start..]
    }
}

impl WalRecord {
    /// Decode one member: `[u8 kind 0..=6][body]`.
    fn decode_member(d: &mut Dec) -> Result<WalRecord> {
        Ok(match d.u8()? {
            0 => WalRecord::PutTable {
                table: codec::dec_table(d)?,
                replace: d.u8()? != 0,
            },
            1 => WalRecord::InsertBatch {
                table: d.str()?,
                rows: codec::dec_rows(d)?,
            },
            2 => WalRecord::MarkModified { table: d.str()? },
            3 => WalRecord::PutMatView {
                meta: codec::dec_matview_meta(d)?,
            },
            4 => WalRecord::DeleteBatch {
                table: d.str()?,
                indices: d.usizes()?,
            },
            5 => {
                let table = d.str()?;
                let indices = d.usizes()?;
                let rows = codec::dec_rows(d)?;
                if indices.len() != rows.len() {
                    return Err(d.corrupt(format!(
                        "update batch holds {} positions but {} rows",
                        indices.len(),
                        rows.len()
                    )));
                }
                WalRecord::UpdateBatch {
                    table,
                    updates: indices.into_iter().zip(rows).collect(),
                }
            }
            6 => WalRecord::PatchExtent {
                view: d.str()?,
                patch: codec::dec_row_patch(d)?,
                base_versions: d.u64s("base version")?,
            },
            t => return Err(d.corrupt(format!("unknown WAL record kind {t}"))),
        })
    }

    fn decode_payload(payload: &[u8]) -> Result<(u64, WalRecord)> {
        let mut d = Dec::new(payload);
        let lsn = d.u64()?;
        let rec = if payload.get(d.pos()) == Some(&KIND_STATEMENT) {
            d.u8()?;
            let n = d.len("statement member")?;
            let members = (0..n)
                .map(|_| WalRecord::decode_member(&mut d))
                .collect::<Result<_>>()?;
            WalRecord::Statement(members)
        } else {
            WalRecord::decode_member(&mut d)?
        };
        if !d.is_done() {
            return Err(d.corrupt("WAL record payload has trailing bytes"));
        }
        Ok((lsn, rec))
    }
}

fn io_err(what: &str, e: std::io::Error) -> AggViewError {
    AggViewError::Io(format!("{what}: {e}"))
}

/// Everything [`WalReader::read_committed`] learns about a log file.
#[derive(Debug)]
pub struct WalContents {
    /// Committed frames in append order, with their LSNs: one entry per
    /// statement.
    pub records: Vec<(u64, WalRecord)>,
    /// Byte length of the committed prefix (magic + whole frames). The
    /// file is normally longer — `END`, then whatever earlier intervals,
    /// a torn tail or garbage left.
    pub committed_len: u64,
    /// Absolute end offset of each committed frame; the last entry
    /// equals `committed_len`. Lets tests slice the log at exact frame
    /// boundaries.
    pub frame_ends: Vec<u64>,
}

impl WalContents {
    /// LSN to assign to the next committed frame.
    pub fn next_lsn(&self) -> u64 {
        self.records.last().map_or(0, |(lsn, _)| lsn + 1)
    }
}

/// Read-side of the log.
pub struct WalReader;

impl WalReader {
    /// Read the committed prefix of a WAL file.
    ///
    /// A missing file reads as an empty log. `END`, torn tails, trailing
    /// garbage and stale frames (an LSN not greater than the one before)
    /// terminate the scan silently; a bad file magic or a
    /// CRC-valid-but-undecodable frame is [`AggViewError::Corrupt`].
    pub fn read_committed(path: &Path) -> Result<WalContents> {
        let bytes = match std::fs::read(path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(io_err("read WAL", e)),
        };
        if bytes.is_empty() {
            return Ok(WalContents {
                records: Vec::new(),
                committed_len: 0,
                frame_ends: Vec::new(),
            });
        }
        if bytes.len() < WAL_MAGIC.len() || &bytes[..WAL_MAGIC.len()] != WAL_MAGIC {
            return Err(AggViewError::Corrupt {
                offset: 0,
                record: 0,
                message: "WAL file magic mismatch".into(),
            });
        }
        let mut records = Vec::new();
        let mut frame_ends = Vec::new();
        let mut pos = WAL_MAGIC.len();
        // `END` (a length over the limit), and anything that doesn't
        // parse as a complete, checksummed frame, ends the committed
        // prefix: crashes legitimately leave partial frames and garbage
        // past the last fsync.
        while let Some(header) = bytes.get(pos..pos + FRAME_HEADER) {
            let len = u32::from_le_bytes(header[..4].try_into().expect("4"));
            let crc = u32::from_le_bytes(header[4..].try_into().expect("4"));
            if len > MAX_RECORD {
                break;
            }
            let start = pos + FRAME_HEADER;
            let Some(payload) = bytes.get(start..start + len as usize) else {
                break;
            };
            if crc32(payload) != crc {
                break;
            }
            // A frame that does not continue the LSN run is stale: an
            // earlier interval's, behind an `END` a crash lost.
            if let (Some((prev, _)), Some(lsn)) = (records.last(), payload.get(..8)) {
                if u64::from_le_bytes(lsn.try_into().expect("8")) <= *prev {
                    break;
                }
            }
            // The frame is intact past its checksum: decode failure now
            // means the writer and reader disagree — real corruption.
            let (lsn, rec) = WalRecord::decode_payload(payload).map_err(|e| match e {
                AggViewError::Corrupt {
                    offset, message, ..
                } => AggViewError::Corrupt {
                    offset: start as u64 + offset,
                    record: records.len() as u64,
                    message,
                },
                other => other,
            })?;
            records.push((lsn, rec));
            pos = start + len as usize;
            frame_ends.push(pos as u64);
        }
        Ok(WalContents {
            records,
            committed_len: frame_ends.last().copied().unwrap_or(WAL_MAGIC.len() as u64),
            frame_ends,
        })
    }
}

/// Append-side of the log.
///
/// The writer tracks the committed length and writes each frame there,
/// over whatever a failed commit or an earlier interval left, with
/// `END` behind it — so one failed commit never poisons the next.
#[derive(Debug)]
pub struct WalWriter {
    file: File,
    path: PathBuf,
    committed_len: u64,
    next_lsn: u64,
}

impl WalWriter {
    /// Open (creating if needed) the log at `path`, resuming after the
    /// committed prefix described by `contents` — normally the result
    /// of [`WalReader::read_committed`] on the same path.
    ///
    /// `min_next_lsn` floors the next LSN: after a checkpoint resets
    /// the log, the file alone no longer remembers how far the sequence
    /// got, so recovery passes `snapshot.last_lsn + 1` to keep LSNs
    /// strictly increasing across the whole history.
    pub fn open(path: &Path, contents: &WalContents, min_next_lsn: u64) -> Result<WalWriter> {
        let file = OpenOptions::new()
            .create(true)
            .truncate(false)
            .read(true)
            .write(true)
            .open(path)
            .map_err(|e| io_err("open WAL", e))?;
        let mut w = WalWriter {
            file,
            path: path.to_path_buf(),
            committed_len: contents.committed_len,
            next_lsn: contents.next_lsn().max(min_next_lsn),
        };
        if w.committed_len == 0 {
            w.write_at(&[&WAL_MAGIC[..], &END].concat(), 0)?;
            w.file
                .sync_data()
                .map_err(|e| io_err("fsync WAL magic", e))?;
            w.committed_len = WAL_MAGIC.len() as u64;
        } else {
            // Whatever a crash left behind the committed prefix ends
            // now rather than at the next commit: recovery hands out a
            // clean log.
            w.write_at(&END, w.committed_len)?;
        }
        Ok(w)
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// LSN the next committed frame will receive.
    pub fn next_lsn(&self) -> u64 {
        self.next_lsn
    }

    /// Byte length of the committed prefix.
    pub fn committed_len(&self) -> u64 {
        self.committed_len
    }

    fn write_at(&self, bytes: &[u8], at: u64) -> Result<()> {
        let mut file = &self.file;
        file.seek(SeekFrom::Start(at))
            .and_then(|_| file.write_all(bytes))
            .map_err(|e| io_err("write WAL", e))
    }

    /// Commit one decoded record (a [`WalRecord::Statement`]: its
    /// members) as one frame; returns its LSN. The live catalog commits
    /// through the crate-private `commit` without building a record.
    pub fn append(&mut self, rec: &WalRecord, faults: &dyn FaultInjector) -> Result<u64> {
        let mut frame = Frame::new();
        frame.push(rec);
        self.commit(&mut frame, faults)
    }

    /// Write `frame` durably — one write of the frame and
    /// `END` at the committed length, one fsync — and return its LSN.
    ///
    /// The frame's members are committed — guaranteed to survive
    /// [`WalReader::read_committed`], all of them — iff this returns
    /// `Ok`.
    pub(crate) fn commit(&mut self, frame: &mut Frame, faults: &dyn FaultInjector) -> Result<u64> {
        let lsn = self.next_lsn;
        let bytes = frame.seal(lsn);
        let frame_len = bytes.len() - END.len();
        if frame_len - FRAME_HEADER > MAX_RECORD as usize {
            return Err(AggViewError::Catalog(format!(
                "statement logs {frame_len} bytes, over the {MAX_RECORD}-byte frame limit"
            )));
        }
        match faults.io_fault("wal.append") {
            Some(IoFaultKind::Error) => {
                return Err(AggViewError::Io("injected WAL write failure".into()));
            }
            Some(IoFaultKind::ShortWrite) => {
                // Half the frame reaches the disk — exactly what a crash
                // mid-write leaves. The op fails; the torn bytes stay for
                // recovery to skip and the next commit to overwrite.
                self.write_at(&bytes[..frame_len / 2], self.committed_len)?;
                let _ = self.file.sync_data();
                return Err(AggViewError::Io("injected torn WAL write".into()));
            }
            Some(IoFaultKind::TrailingGarbage) => {
                // Recycled-disk bytes where `END` belongs: a plausible
                // frame header prefix followed by junk, never a valid
                // frame.
                bytes[frame_len..frame_len + 6]
                    .copy_from_slice(&[0x7F, 0x00, 0x00, 0x00, 0xDE, 0xAD]);
            }
            None => {}
        }
        self.write_at(bytes, self.committed_len)?;
        if faults.io_fault("wal.fsync").is_some() {
            // Any injected fault at the fsync site means the frame never
            // became durable: end the log at the committed boundary
            // again, unsynced, and report the failure.
            self.write_at(&END, self.committed_len)?;
            return Err(AggViewError::Io("injected WAL fsync failure".into()));
        }
        self.file.sync_data().map_err(|e| io_err("fsync WAL", e))?;
        self.committed_len += frame_len as u64;
        self.next_lsn = lsn + 1;
        Ok(lsn)
    }

    /// Discard every record (after a checkpoint made them redundant):
    /// `END` goes at offset 8 and the file keeps its blocks for the
    /// next interval, cut to twice the committed length if it is longer
    /// (a one-off large frame does not keep its size). LSNs keep
    /// counting from where they were — they are never reused, which is
    /// what lets recovery order records against snapshots and stop at
    /// stale frames.
    pub fn truncate_all(&mut self, faults: &dyn FaultInjector) -> Result<()> {
        let fault = faults.io_fault("wal.truncate");
        if fault.is_some_and(|k| k != IoFaultKind::ShortWrite) {
            // The log keeps its records; recovery will skip the ones the
            // checkpoint already covers (their LSNs are ≤ its last_lsn).
            return Err(AggViewError::Io("injected WAL truncate failure".into()));
        }
        // The snapshot covers every frame: whatever fails from here on,
        // the next commit goes at offset 8 and its fsync syncs this `END`.
        let bound = 2 * self.committed_len;
        self.committed_len = WAL_MAGIC.len() as u64;
        self.write_at(&END, self.committed_len)?;
        if fault.is_some() {
            // A short reset: `END` lands, the bound and fsync do not.
            return Err(AggViewError::Io("injected WAL truncate failure".into()));
        }
        let len = self
            .file
            .metadata()
            .map_err(|e| io_err("stat WAL", e))?
            .len();
        if len > bound {
            self.file
                .set_len(bound)
                .map_err(|e| io_err("bound WAL", e))?;
        }
        self.file.sync_data().map_err(|e| io_err("fsync WAL", e))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use aggview_common::{DataType, NoFaults, ScheduledIoFaults, Schema, Value};

    fn tmpdir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("aggview-wal-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::PutTable {
                table: Table::builder(
                    "Emp",
                    Schema::of(&[("eno", DataType::Int), ("sal", DataType::Float)]),
                )
                .primary_key(&["eno"])
                .unwrap()
                .foreign_key(&["eno"], "dept", &[0])
                .unwrap()
                .row(vec![Value::Int(1), Value::Float(10.0)])
                .unwrap()
                .build()
                .unwrap(),
                replace: false,
            },
            WalRecord::InsertBatch {
                table: "emp".into(),
                rows: vec![Tuple::new(vec![Value::Int(2), Value::Float(20.0)])],
            },
            WalRecord::MarkModified {
                table: "emp".into(),
            },
            WalRecord::DeleteBatch {
                table: "emp".into(),
                indices: vec![0, 3],
            },
            WalRecord::UpdateBatch {
                table: "emp".into(),
                updates: vec![(1, Tuple::new(vec![Value::Int(2), Value::Float(25.0)]))],
            },
            WalRecord::PatchExtent {
                view: "by_dno".into(),
                patch: RowPatch {
                    updates: vec![(0, Tuple::new(vec![Value::Int(0), Value::Int(3)]))],
                    deletes: vec![1],
                    inserts: vec![Tuple::new(vec![Value::Int(7), Value::Int(1)])],
                },
                base_versions: vec![4],
            },
            WalRecord::Statement(vec![
                WalRecord::DeleteBatch {
                    table: "emp".into(),
                    indices: vec![2],
                },
                WalRecord::PatchExtent {
                    view: "by_dno".into(),
                    patch: RowPatch::default(),
                    base_versions: vec![5],
                },
            ]),
        ]
    }

    fn write_log(path: &Path, recs: &[WalRecord]) -> WalWriter {
        let contents = WalReader::read_committed(path).unwrap();
        let mut w = WalWriter::open(path, &contents, 0).unwrap();
        for r in recs {
            w.append(r, &NoFaults).unwrap();
        }
        w
    }

    #[test]
    fn append_then_read_round_trips() {
        let dir = tmpdir("roundtrip");
        let path = dir.join("wal.agv");
        let recs = sample_records();
        let w = write_log(&path, &recs);
        assert_eq!(w.next_lsn(), recs.len() as u64);
        let back = WalReader::read_committed(&path).unwrap();
        assert_eq!(back.records.len(), recs.len());
        for (i, (lsn, rec)) in back.records.iter().enumerate() {
            assert_eq!(*lsn, i as u64);
            assert_eq!(rec, &recs[i]);
        }
        assert_eq!(back.committed_len, *back.frame_ends.last().unwrap());
        assert_eq!(back.next_lsn(), recs.len() as u64);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_is_silently_dropped_at_every_cut() {
        let dir = tmpdir("torn");
        let path = dir.join("wal.agv");
        write_log(&path, &sample_records());
        let full = std::fs::read(&path).unwrap();
        let contents = WalReader::read_committed(&path).unwrap();
        let second_end = contents.frame_ends[1] as usize;
        let third_end = contents.frame_ends[2] as usize;
        // Cut anywhere inside the third frame: exactly two records
        // survive, no error.
        for cut in second_end..third_end {
            std::fs::write(&path, &full[..cut]).unwrap();
            let back = WalReader::read_committed(&path).unwrap();
            assert_eq!(back.records.len(), 2, "cut at {cut}");
            assert_eq!(back.committed_len, second_end as u64, "cut at {cut}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn trailing_garbage_is_tolerated() {
        let dir = tmpdir("garbage");
        let path = dir.join("wal.agv");
        write_log(&path, &sample_records());
        let mut bytes = std::fs::read(&path).unwrap();
        bytes.extend_from_slice(&[0x13, 0x37, 0xFF, 0x00, 0x42]);
        std::fs::write(&path, &bytes).unwrap();
        let back = WalReader::read_committed(&path).unwrap();
        assert_eq!(back.records.len(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flipped_payload_byte_ends_the_committed_prefix() {
        let dir = tmpdir("bitflip");
        let path = dir.join("wal.agv");
        write_log(&path, &sample_records());
        let contents = WalReader::read_committed(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip a byte inside the second record's payload: its CRC no
        // longer matches, so the log ends after record one.
        let target = contents.frame_ends[0] as usize + FRAME_HEADER + 2;
        bytes[target] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        let back = WalReader::read_committed(&path).unwrap();
        assert_eq!(back.records.len(), 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_magic_is_corruption() {
        let dir = tmpdir("magic");
        let path = dir.join("wal.agv");
        std::fs::write(&path, b"NOTAWAL!rest").unwrap();
        let err = WalReader::read_committed(&path).unwrap_err();
        assert_eq!(err.kind(), "corrupt");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn missing_file_reads_as_empty() {
        let dir = tmpdir("missing");
        let back = WalReader::read_committed(&dir.join("nope.agv")).unwrap();
        assert!(back.records.is_empty());
        assert_eq!(back.next_lsn(), 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn injected_faults_commit_exactly_when_append_succeeds() {
        let recs = sample_records();
        for kind in IoFaultKind::ALL {
            for site in ["wal.append", "wal.fsync"] {
                let dir = tmpdir(&format!("inj-{site}-{kind:?}"));
                let path = dir.join("wal.agv");
                let contents = WalReader::read_committed(&path).unwrap();
                let mut w = WalWriter::open(&path, &contents, 0).unwrap();
                let inj = ScheduledIoFaults::at(site, 0, *kind);
                let mut committed = Vec::new();
                for r in &recs {
                    if w.append(r, &inj).is_ok() {
                        committed.push(r.clone());
                    }
                }
                assert!(inj.fired(), "{site} {kind:?} never fired");
                let back = WalReader::read_committed(&path).unwrap();
                let got: Vec<WalRecord> = back.records.into_iter().map(|(_, r)| r).collect();
                assert_eq!(got, committed, "{site} {kind:?}");
                std::fs::remove_dir_all(&dir).unwrap();
            }
        }
    }

    #[test]
    fn reopen_resumes_lsns_and_drops_torn_bytes() {
        let dir = tmpdir("reopen");
        let path = dir.join("wal.agv");
        let end = write_log(&path, &sample_records()).committed_len() as usize;
        // Simulate a crash mid-append: a torn half-frame where `END` was.
        let mut bytes = std::fs::read(&path).unwrap();
        bytes[end..end + 5].copy_from_slice(&[9, 0, 0, 0, 1]);
        std::fs::write(&path, &bytes).unwrap();
        let contents = WalReader::read_committed(&path).unwrap();
        assert_eq!(contents.committed_len, end as u64);
        let mut w = WalWriter::open(&path, &contents, 0).unwrap();
        assert_eq!(w.next_lsn(), 7);
        assert_eq!(
            std::fs::read(&path).unwrap()[end..],
            END,
            "torn tail ended on open"
        );
        let lsn = w
            .append(&WalRecord::MarkModified { table: "x".into() }, &NoFaults)
            .unwrap();
        assert_eq!(lsn, 7);
        let back = WalReader::read_committed(&path).unwrap();
        assert_eq!(back.records.len(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_all_empties_log_but_preserves_lsn_sequence() {
        let dir = tmpdir("trunc");
        let path = dir.join("wal.agv");
        let mut w = write_log(&path, &sample_records());
        let inj = ScheduledIoFaults::at("wal.truncate", 0, IoFaultKind::Error);
        let err = w.truncate_all(&inj).unwrap_err();
        assert_eq!(err.kind(), "io");
        assert_eq!(WalReader::read_committed(&path).unwrap().records.len(), 7);
        w.truncate_all(&NoFaults).unwrap();
        let back = WalReader::read_committed(&path).unwrap();
        assert!(back.records.is_empty());
        let lsn = w
            .append(&WalRecord::MarkModified { table: "x".into() }, &NoFaults)
            .unwrap();
        assert_eq!(lsn, 7, "LSNs are never reused after truncation");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// A reset whose `END` landed but whose later steps failed still
    /// restarts the log at offset 8: a commit after it is recovered.
    #[test]
    fn a_commit_after_a_short_reset_is_recovered() {
        let dir = tmpdir("short-reset");
        let path = dir.join("wal.agv");
        let mut w = write_log(&path, &sample_records());
        let inj = ScheduledIoFaults::at("wal.truncate", 0, IoFaultKind::ShortWrite);
        assert_eq!(w.truncate_all(&inj).unwrap_err().kind(), "io");
        assert_eq!(w.committed_len(), WAL_MAGIC.len() as u64);
        let rec = WalRecord::MarkModified { table: "x".into() };
        assert_eq!(w.append(&rec, &NoFaults).unwrap(), 7);
        drop(w);
        let back = WalReader::read_committed(&path).unwrap();
        assert_eq!(back.records, vec![(7, rec)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// What `WalWriter::append` wrote for one record before statements
    /// existed: `[len][crc][lsn][kind][body]`, header and payload
    /// encoded apart.
    fn plain_frame(lsn: u64, kind: u8, body: impl FnOnce(&mut Enc)) -> Vec<u8> {
        let mut e = Enc::new();
        e.u64(lsn);
        e.u8(kind);
        body(&mut e);
        let payload = e.into_bytes();
        let mut frame = (payload.len() as u32).to_le_bytes().to_vec();
        frame.extend_from_slice(&crc32(&payload).to_le_bytes());
        frame.extend_from_slice(&payload);
        frame
    }

    #[test]
    fn a_single_record_keeps_its_plain_frame() {
        let dir = tmpdir("plain");
        let path = dir.join("wal.agv");
        let rows = vec![Tuple::new(vec![Value::Int(2), Value::Float(20.0)])];
        let rec = WalRecord::InsertBatch {
            table: "emp".into(),
            rows: rows.clone(),
        };
        // Alone, or as the only member of a statement.
        write_log(
            &path,
            &[rec.clone(), WalRecord::Statement(vec![rec.clone()])],
        );
        let mut expected = WAL_MAGIC.to_vec();
        for lsn in 0..2 {
            expected.extend(plain_frame(lsn, 1, |e| {
                e.str("emp");
                codec::enc_rows(e, &rows);
            }));
        }
        expected.extend(END);
        assert_eq!(std::fs::read(&path).unwrap(), expected);
        let back = WalReader::read_committed(&path).unwrap();
        assert_eq!(back.records, vec![(0, rec.clone()), (1, rec)]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_statement_is_one_frame_recovered_whole_or_not_at_all() {
        let dir = tmpdir("stmt");
        let path = dir.join("wal.agv");
        let recs = sample_records();
        let members = recs[..6].to_vec();
        write_log(
            &path,
            &[recs[2].clone(), WalRecord::Statement(members.clone())],
        );
        let full = std::fs::read(&path).unwrap();
        let contents = WalReader::read_committed(&path).unwrap();
        assert_eq!(contents.records.len(), 2, "one frame, one LSN");
        assert_eq!(contents.records[1], (1, WalRecord::Statement(members)));
        let (start, end) = (
            contents.frame_ends[0] as usize,
            contents.committed_len as usize,
        );
        assert_eq!(full[end..], END);
        assert_eq!(full[start + FRAME_HEADER + 8], KIND_STATEMENT);
        for cut in start..end {
            std::fs::write(&path, &full[..cut]).unwrap();
            let back = WalReader::read_committed(&path).unwrap();
            assert_eq!(back.records.len(), 1, "cut at {cut}: no member survives");
        }
        // A statement inside a statement is not a shape the writer
        // produces: the reader calls it corruption.
        let mut e = Enc::new();
        e.u64(1);
        e.u8(KIND_STATEMENT);
        e.u32(1);
        e.u8(KIND_STATEMENT);
        e.u32(0);
        let payload = e.into_bytes();
        let mut bytes = full[..start].to_vec();
        bytes.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        bytes.extend_from_slice(&crc32(&payload).to_le_bytes());
        bytes.extend_from_slice(&payload);
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(
            WalReader::read_committed(&path).unwrap_err().kind(),
            "corrupt"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn fault_sites_are_consulted_once_per_frame() {
        let dir = tmpdir("perframe");
        let path = dir.join("wal.agv");
        let contents = WalReader::read_committed(&path).unwrap();
        let mut w = WalWriter::open(&path, &contents, 0).unwrap();
        let recs = sample_records();
        for site in ["wal.append", "wal.fsync"] {
            let never = ScheduledIoFaults::at(site, u64::MAX, IoFaultKind::Error);
            w.append(&WalRecord::Statement(recs[..4].to_vec()), &never)
                .unwrap();
            assert_eq!(never.hits(), 1, "{site}");
        }
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_stale_frame_behind_a_lost_end_is_never_read() {
        let dir = tmpdir("stale");
        let path = dir.join("wal.agv");
        let recs = sample_records();
        let mut w = write_log(&path, &recs[1..4]);
        let old = std::fs::read(&path).unwrap();
        let old_ends = WalReader::read_committed(&path).unwrap().frame_ends;
        w.truncate_all(&NoFaults).unwrap();
        // The same record again, at offset 8: it ends where the old
        // interval's first frame ended, and the `END` behind it lands on
        // the old second frame's header.
        assert_eq!(w.append(&recs[1], &NoFaults).unwrap(), 3);
        assert_eq!(w.committed_len(), old_ends[0]);
        // A crash loses that `END`: the CRC-valid old frames (LSNs 1
        // and 2) follow the live one directly.
        let mut bytes = std::fs::read(&path).unwrap();
        let at = old_ends[0] as usize;
        bytes[at..at + END.len()].copy_from_slice(&old[at..at + END.len()]);
        std::fs::write(&path, &bytes).unwrap();
        let back = WalReader::read_committed(&path).unwrap();
        assert_eq!(back.records, vec![(3, recs[1].clone())]);
        assert_eq!(back.committed_len, old_ends[0]);
        // The writer resumes behind the live frame, over the stale ones.
        let mut w = WalWriter::open(&path, &back, 0).unwrap();
        assert_eq!(w.append(&recs[2], &NoFaults).unwrap(), 4);
        let lsns: Vec<u64> = WalReader::read_committed(&path)
            .unwrap()
            .records
            .iter()
            .map(|(lsn, _)| *lsn)
            .collect();
        assert_eq!(lsns, vec![3, 4]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_reset_keeps_the_file_within_twice_the_closed_interval() {
        let dir = tmpdir("bound");
        let path = dir.join("wal.agv");
        let recs = sample_records();
        let mut w = write_log(&path, &recs);
        let file_len = || std::fs::metadata(&path).unwrap().len();
        let closed = w.committed_len();
        assert_eq!(file_len(), closed + END.len() as u64);
        // An interval no shorter than half the file keeps every block.
        w.truncate_all(&NoFaults).unwrap();
        assert_eq!(file_len(), closed + END.len() as u64, "blocks kept");
        // A short interval after a long one cuts the file to twice its
        // length; an empty one to the magic and `END`.
        let short = w
            .append(&recs[2], &NoFaults)
            .map(|_| w.committed_len())
            .unwrap();
        w.truncate_all(&NoFaults).unwrap();
        assert_eq!(file_len(), 2 * short);
        w.truncate_all(&NoFaults).unwrap();
        assert_eq!(file_len(), (WAL_MAGIC.len() + END.len()) as u64);
        assert!(WalReader::read_committed(&path).unwrap().records.is_empty());
        assert_eq!(w.append(&recs[2], &NoFaults).unwrap(), 8);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
