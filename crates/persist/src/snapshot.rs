//! Point-in-time snapshots of the full durable session state.
//!
//! ## File format
//!
//! ```text
//! [magic "SUMTABS1" : 8 bytes]
//! [payload          : encoded SnapshotState]
//! [checksum         : u64 le, fnv1a64(payload)]
//! ```
//!
//! ## Atomicity
//!
//! [`write_snapshot`] (or [`write_snapshot_ref`], its borrowed-input twin)
//! writes `snapshot.tmp`, fsyncs it, atomically renames it over
//! `snapshot.bin`, then best-effort fsyncs the directory. A crash at any
//! point leaves either the old snapshot or the new one — never a blend —
//! because readers only ever open `snapshot.bin`.
//!
//! The snapshot records `last_lsn`, the LSN of the last WAL record its
//! state covers. Recovery replays only WAL records with a *greater* LSN, so
//! the crash window between "snapshot renamed" and "WAL reset" is harmless.
//!
//! ## Fault injection
//!
//! `snapshot-write` makes the temp-file write short (torn temp file, which
//! can never be loaded — it is not `snapshot.bin`); `snapshot-rename` fails
//! the rename, leaving the previous snapshot authoritative.

use crate::codec::{self, Dec, Enc, Fnv1a64};
use crate::retry::{self, RetryPolicy};
use crate::{failpoint, PersistError};
use std::fs::File;
use std::io::{Read, Write};
use std::path::Path;
use sumtab_catalog::{ForeignKey, SummaryTableDef, Table, Value};

/// File magic for snapshot files; bump the trailing digit on format changes.
pub const SNAP_MAGIC: &[u8; 8] = b"SUMTABS1";

/// Snapshot file name inside a durability directory.
pub const SNAP_FILE: &str = "snapshot.bin";

/// Temp file the atomic-rename protocol writes first.
pub const SNAP_TMP: &str = "snapshot.tmp";

/// The complete durable state of a session at one instant: catalog,
/// data (base tables *and* materialized summary tables), modification
/// epochs, and the per-AST epoch snapshots that drive staleness tracking.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct SnapshotState {
    /// LSN of the last WAL record this snapshot covers (0 = none).
    pub last_lsn: u64,
    /// The facade's AST/plan-cache generation at snapshot time.
    pub generation: u64,
    /// Every table schema, base and summary-backing alike.
    pub tables: Vec<Table>,
    /// Declared RI constraints.
    pub foreign_keys: Vec<ForeignKey>,
    /// Summary-table definitions (name + defining SQL).
    pub summaries: Vec<SummaryTableDef>,
    /// Row data per table name, including materialized summary contents.
    pub data: Vec<(String, Vec<Vec<Value>>)>,
    /// Modification epoch per table name.
    pub epochs: Vec<(String, u64)>,
    /// Per-AST base-table epoch snapshots: `(ast name, [(base, epoch)])`.
    pub ast_epochs: Vec<(String, Vec<(String, u64)>)>,
}

/// A borrowed [`SnapshotState`]: the form the encoder reads, so a live
/// session can snapshot its tables without first cloning their rows.
#[derive(Debug, Clone, Copy)]
pub struct SnapshotRef<'a> {
    /// LSN of the last WAL record this snapshot covers (0 = none).
    pub last_lsn: u64,
    /// The facade's AST/plan-cache generation at snapshot time.
    pub generation: u64,
    /// Every table schema, base and summary-backing alike.
    pub tables: &'a [Table],
    /// Declared RI constraints.
    pub foreign_keys: &'a [ForeignKey],
    /// Summary-table definitions (name + defining SQL).
    pub summaries: &'a [SummaryTableDef],
    /// Row data per table name, including materialized summary contents.
    pub data: &'a [(&'a str, &'a [Vec<Value>])],
    /// Modification epoch per table name.
    pub epochs: &'a [(String, u64)],
    /// Per-AST base-table epoch snapshots: `(ast name, [(base, epoch)])`.
    pub ast_epochs: &'a [(String, Vec<(String, u64)>)],
}

/// Encode the whole snapshot file — magic, payload, checksum trailer — into
/// one buffer.
fn encode_file(s: &SnapshotRef<'_>) -> Vec<u8> {
    let mut e = Enc {
        buf: SNAP_MAGIC.to_vec(),
    };
    e.u64(s.last_lsn);
    e.u64(s.generation);
    e.len_of(s.tables.len());
    for t in s.tables {
        codec::encode_table(&mut e, t);
    }
    e.len_of(s.foreign_keys.len());
    for fk in s.foreign_keys {
        codec::encode_fk(&mut e, fk);
    }
    e.len_of(s.summaries.len());
    for st in s.summaries {
        codec::encode_summary(&mut e, st);
    }
    e.len_of(s.data.len());
    for (name, rows) in s.data {
        e.str(name);
        codec::encode_rows(&mut e, rows);
    }
    e.len_of(s.epochs.len());
    for (name, epoch) in s.epochs {
        e.str(name);
        e.u64(*epoch);
    }
    e.len_of(s.ast_epochs.len());
    for (name, bases) in s.ast_epochs {
        e.str(name);
        e.len_of(bases.len());
        for (base, epoch) in bases {
            e.str(base);
            e.u64(*epoch);
        }
    }
    let checksum = codec::fnv1a64(&e.buf[SNAP_MAGIC.len()..]);
    e.u64(checksum);
    e.buf
}

fn decode_state(d: &mut Dec<'_>) -> Result<SnapshotState, PersistError> {
    let last_lsn = d.u64()?;
    let generation = d.u64()?;
    let n = d.count()?;
    let mut tables = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        tables.push(codec::decode_table(d)?);
    }
    let n = d.count()?;
    let mut foreign_keys = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        foreign_keys.push(codec::decode_fk(d)?);
    }
    let n = d.count()?;
    let mut summaries = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        summaries.push(codec::decode_summary(d)?);
    }
    let n = d.count()?;
    let mut data = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = d.str()?;
        let rows = codec::decode_rows(d)?;
        data.push((name, rows));
    }
    let n = d.count()?;
    let mut epochs = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = d.str()?;
        let epoch = d.u64()?;
        epochs.push((name, epoch));
    }
    let n = d.count()?;
    let mut ast_epochs = Vec::with_capacity(n.min(1 << 12));
    for _ in 0..n {
        let name = d.str()?;
        let m = d.count()?;
        let mut bases = Vec::with_capacity(m.min(1 << 12));
        for _ in 0..m {
            let base = d.str()?;
            let epoch = d.u64()?;
            bases.push((base, epoch));
        }
        ast_epochs.push((name, bases));
    }
    d.finish()?;
    Ok(SnapshotState {
        last_lsn,
        generation,
        tables,
        foreign_keys,
        summaries,
        data,
        epochs,
        ast_epochs,
    })
}

/// Write `state` to `dir/snapshot.bin` via the write-temp → fsync → rename
/// protocol, under the given retry policy. Same bytes as
/// [`write_snapshot_ref`] over the borrowed form of `state`.
pub fn write_snapshot(
    dir: &Path,
    state: &SnapshotState,
    policy: RetryPolicy,
) -> Result<(), PersistError> {
    let data: Vec<(&str, &[Vec<Value>])> = state
        .data
        .iter()
        .map(|(name, rows)| (name.as_str(), rows.as_slice()))
        .collect();
    write_snapshot_ref(
        dir,
        &SnapshotRef {
            last_lsn: state.last_lsn,
            generation: state.generation,
            tables: &state.tables,
            foreign_keys: &state.foreign_keys,
            summaries: &state.summaries,
            data: &data,
            epochs: &state.epochs,
            ast_epochs: &state.ast_epochs,
        },
        policy,
    )
}

/// Write a borrowed snapshot to `dir/snapshot.bin` via the write-temp →
/// fsync → rename protocol, under the given retry policy.
///
/// Fail points: `snapshot-write` truncates the temp-file write partway and
/// errors; `snapshot-rename` fails the rename. In both cases the previous
/// `snapshot.bin` (if any) remains authoritative and untouched.
pub fn write_snapshot_ref(
    dir: &Path,
    state: &SnapshotRef<'_>,
    policy: RetryPolicy,
) -> Result<(), PersistError> {
    let bytes = encode_file(state);
    let tmp = dir.join(SNAP_TMP);
    let dst = dir.join(SNAP_FILE);
    retry::with_backoff(policy, |_| {
        let mut f = std::fs::File::create(&tmp)
            .map_err(|e| PersistError::io(format!("create {}", tmp.display()), &e))?;
        if failpoint::triggered("snapshot-write") {
            // Torn temp file: half the bytes land, then the "device" fails.
            // Harmless — the temp file is never read back.
            let _ = f.write_all(&bytes[..bytes.len() / 2]);
            let _ = f.sync_data();
            return Err(PersistError::injected("snapshot-write"));
        }
        f.write_all(&bytes)
            .map_err(|e| PersistError::io("write snapshot temp file", &e))?;
        f.sync_data()
            .map_err(|e| PersistError::io("fsync snapshot temp file", &e))?;
        drop(f);
        if failpoint::triggered("snapshot-rename") {
            return Err(PersistError::injected("snapshot-rename"));
        }
        std::fs::rename(&tmp, &dst)
            .map_err(|e| PersistError::io(format!("rename snapshot into {}", dst.display()), &e))?;
        // Make the rename itself durable. Failure here is non-fatal: the
        // rename already happened; at worst an immediate crash re-runs
        // recovery from the previous snapshot + the still-intact WAL.
        if let Ok(d) = std::fs::File::open(dir) {
            let _ = d.sync_all();
        }
        Ok(())
    })
}

/// Read `dir/snapshot.bin`. `Ok(None)` when no snapshot exists; a typed
/// [`PersistError::Corrupt`] when one exists but fails magic, checksum, or
/// decode validation — a corrupt snapshot is **never** partially loaded.
///
/// The file is decoded as it streams in, checksummed on the way, so
/// recovery never holds the encoded bytes and the decoded state at once.
/// Verdicts keep their precedence: magic, then checksum, then decoding.
pub fn read_snapshot(dir: &Path) -> Result<Option<SnapshotState>, PersistError> {
    let path = dir.join(SNAP_FILE);
    let read_err = |e: &std::io::Error| PersistError::io(format!("read {}", path.display()), e);
    let corrupt = |detail: String| PersistError::Corrupt {
        what: "snapshot",
        detail,
    };
    let file = match File::open(&path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(None),
        Err(e) => return Err(read_err(&e)),
    };
    let len = file.metadata().map_err(|e| read_err(&e))?.len();
    let size = usize::try_from(len)
        .map_err(|_| corrupt(format!("{} is {len} bytes, too large", path.display())))?;
    let bad_magic = || {
        corrupt(format!(
            "bad or missing magic in {} ({size} bytes)",
            path.display()
        ))
    };
    if size < SNAP_MAGIC.len() + 8 {
        return Err(bad_magic());
    }
    let mut src = Checksummed {
        inner: file,
        pos: 0,
        payload: SNAP_MAGIC.len()..size - 8,
        hash: Fnv1a64::default(),
        error: None,
    };
    let mut magic = [0u8; 8];
    let magic_read = src.read_exact(&mut magic);
    if let Some(e) = src.error.take() {
        return Err(read_err(&e));
    }
    if magic_read.is_err() || &magic != SNAP_MAGIC {
        return Err(bad_magic());
    }
    let mut d = Dec::streaming(&mut src, size - SNAP_MAGIC.len() - 8);
    let decoded = decode_state(&mut d);
    // Read whatever the decoder left (it stops at the first error), so the
    // checksum verdict covers the whole payload.
    let drained = d.skip_rest();
    let mut trailer = [0u8; 8];
    let trailer_read = src.read_exact(&mut trailer);
    if let Some(e) = src.error.take() {
        return Err(read_err(&e));
    }
    drained.map_err(|e| corrupt(format!("{} ended early: {e}", path.display())))?;
    trailer_read.map_err(|e| read_err(&e))?;
    if src.hash.finish() != u64::from_le_bytes(trailer) {
        return Err(corrupt(format!("checksum mismatch in {}", path.display())));
    }
    decoded.map(Some).map_err(|e| match e {
        PersistError::Corrupt { detail, .. } => corrupt(detail),
        other => other,
    })
}

/// A file reader that checksums the bytes at offsets in `payload` as they
/// pass, and keeps the first IO error so the caller can report it as one
/// rather than as a decode failure.
struct Checksummed {
    inner: File,
    /// File offset of the next byte read.
    pos: usize,
    payload: std::ops::Range<usize>,
    hash: Fnv1a64,
    error: Option<std::io::Error>,
}

impl Read for Checksummed {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        match self.inner.read(buf) {
            Ok(n) => {
                let lo = self.payload.start.clamp(self.pos, self.pos + n);
                let hi = self.payload.end.clamp(self.pos, self.pos + n);
                self.hash.update(&buf[lo - self.pos..hi - self.pos]);
                self.pos += n;
                Ok(n)
            }
            Err(e) => {
                let kind = e.kind();
                if kind != std::io::ErrorKind::Interrupted {
                    self.error.get_or_insert(e);
                }
                Err(kind.into())
            }
        }
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use std::path::PathBuf;
    use std::sync::atomic::{AtomicU64, Ordering};
    use sumtab_catalog::{Column, SqlType};

    fn tmp_dir(tag: &str) -> PathBuf {
        static N: AtomicU64 = AtomicU64::new(0);
        let d = std::env::temp_dir().join(format!(
            "sumtab-snap-{}-{}-{}",
            std::process::id(),
            tag,
            N.fetch_add(1, Ordering::Relaxed)
        ));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    fn sample_state() -> SnapshotState {
        let t = Table::new(
            "trans",
            vec![
                Column::new("tid", SqlType::Int),
                Column::new("price", SqlType::Double),
            ],
        )
        .with_primary_key(&["tid"])
        .unwrap();
        SnapshotState {
            last_lsn: 42,
            generation: 7,
            tables: vec![t],
            foreign_keys: vec![ForeignKey {
                child_table: "trans".into(),
                child_columns: vec![0],
                parent_table: "acct".into(),
                parent_columns: vec![0],
            }],
            summaries: vec![SummaryTableDef {
                name: "st".into(),
                query_sql: "select tid, count(*) as c from trans group by tid".into(),
            }],
            data: vec![(
                "trans".into(),
                vec![vec![Value::Int(1), Value::Double(9.5)]],
            )],
            epochs: vec![("trans".into(), 3)],
            ast_epochs: vec![("st".into(), vec![("trans".into(), 3)])],
        }
    }

    #[test]
    fn snapshot_round_trips() {
        let dir = tmp_dir("roundtrip");
        assert!(read_snapshot(&dir).unwrap().is_none());
        let state = sample_state();
        write_snapshot(&dir, &state, RetryPolicy::none()).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), state);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn corrupt_snapshot_is_rejected_typed() {
        let dir = tmp_dir("corrupt");
        write_snapshot(&dir, &sample_state(), RetryPolicy::none()).unwrap();
        let path = dir.join(SNAP_FILE);
        let clean = std::fs::read(&path).unwrap();
        // Flip one byte at every offset: every mutation must be caught.
        for i in 0..clean.len() {
            let mut bad = clean.clone();
            bad[i] ^= 0x01;
            std::fs::write(&path, &bad).unwrap();
            let got = read_snapshot(&dir);
            assert!(
                matches!(
                    got,
                    Err(PersistError::Corrupt {
                        what: "snapshot",
                        ..
                    })
                ),
                "flip at {i} must be rejected, got {got:?}"
            );
        }
        // Truncations too.
        for cut in 0..clean.len() {
            std::fs::write(&path, &clean[..cut]).unwrap();
            assert!(read_snapshot(&dir).is_err(), "truncation at {cut}");
        }
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn failed_write_leaves_previous_snapshot_authoritative() {
        let dir = tmp_dir("failpoint");
        let old = sample_state();
        write_snapshot(&dir, &old, RetryPolicy::none()).unwrap();
        let mut newer = old.clone();
        newer.last_lsn = 99;
        {
            let _fp = failpoint::armed("snapshot-write");
            assert!(write_snapshot(&dir, &newer, RetryPolicy::none()).is_err());
        }
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), old);
        {
            let _fp = failpoint::armed("snapshot-rename");
            assert!(write_snapshot(&dir, &newer, RetryPolicy::none()).is_err());
        }
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), old);
        // Disarmed, the write goes through.
        write_snapshot(&dir, &newer, RetryPolicy::none()).unwrap();
        assert_eq!(read_snapshot(&dir).unwrap().unwrap(), newer);
        std::fs::remove_dir_all(&dir).ok();
    }
}
