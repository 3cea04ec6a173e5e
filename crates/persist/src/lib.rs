//! # sumtab-persist
//!
//! Durable session state for the `sumtab` workspace: an append-only,
//! length-prefixed and checksummed **write-ahead log** of logical session
//! records, plus periodic **snapshots** of the full catalog + data state
//! written with an atomic temp-file-then-rename protocol.
//!
//! The crate is deliberately low in the dependency graph — it knows the
//! catalog types ([`sumtab_catalog::Table`], [`sumtab_catalog::Value`], …)
//! so it can frame them on disk, but it knows nothing about sessions,
//! matching, or execution. The `sumtab` facade owns the mapping between
//! live session state and the [`snapshot::SnapshotState`] / [`wal::WalRecord`]
//! wire forms, and owns replay.
//!
//! ## Durability protocol (see DESIGN.md §12 for the full invariants)
//!
//! * Every logical mutation appends one [`wal::WalRecord`] frame:
//!   `[lsn u64][len u32][fnv1a-64 checksum][payload]`, flushed (and by
//!   default fsynced) before the operation is acknowledged as durable.
//! * Every `snapshot_every` records the facade serializes the whole state
//!   into `snapshot.bin` via write-temp → fsync → atomic rename, then
//!   resets the log. The snapshot carries the LSN of the last record it
//!   covers, so a crash between rename and reset is harmless: recovery
//!   skips WAL records whose LSN the snapshot already covers.
//! * Recovery loads the newest valid snapshot, replays the checksummed
//!   WAL prefix after it, and **truncates** any torn or corrupt tail at
//!   the last valid record. Corruption before the tail (a snapshot that
//!   fails its checksum, a WAL header with the wrong magic) is a typed
//!   [`PersistError::Corrupt`] — never a panic, never silently-loaded
//!   garbage.
//!
//! ## Operational fault hardening
//!
//! The IO layer carries [`failpoint`] hooks (`wal-append` short writes,
//! `wal-fsync` failures, `snapshot-write` / `snapshot-rename` failures) and
//! every write path runs under [`retry::with_backoff`], a bounded
//! retry-with-jittered-backoff helper for transient IO errors. Callers that
//! exhaust retries degrade explicitly (the facade drops to ephemeral mode)
//! rather than crashing.

#![forbid(unsafe_code)]

pub mod codec;
pub mod failpoint;
pub mod retry;
pub mod snapshot;
pub mod wal;

pub use codec::CodecError;
pub use retry::RetryPolicy;
pub use snapshot::{SnapshotRef, SnapshotState};
pub use wal::{ScanOutcome, Wal, WalOptions, WalRecord};

/// Any failure the persistence layer can surface. IO errors are flattened
/// to `(kind, message)` so the type stays `Clone`/`PartialEq` for tests.
#[derive(Debug, Clone, PartialEq)]
pub enum PersistError {
    /// An operating-system IO failure, annotated with what was being done.
    Io {
        /// The operation that failed (e.g. `append to wal.bin`).
        context: String,
        /// The OS error kind.
        kind: std::io::ErrorKind,
        /// The OS error message.
        message: String,
    },
    /// An injected fault from an armed [`failpoint`].
    Injected {
        /// The fail point that fired.
        failpoint: String,
    },
    /// On-disk state failed validation (bad magic, checksum mismatch,
    /// undecodable payload, trailing bytes). The data was NOT loaded.
    Corrupt {
        /// Which artifact was corrupt (`snapshot`, `wal header`, …).
        what: &'static str,
        /// Why it was rejected.
        detail: String,
    },
}

impl PersistError {
    /// Wrap an [`std::io::Error`] with the operation that hit it.
    pub fn io(context: impl Into<String>, e: &std::io::Error) -> PersistError {
        PersistError::Io {
            context: context.into(),
            kind: e.kind(),
            message: e.to_string(),
        }
    }

    /// An injected failure at the named fail point.
    pub fn injected(failpoint: impl Into<String>) -> PersistError {
        PersistError::Injected {
            failpoint: failpoint.into(),
        }
    }

    /// True for errors worth retrying (transient IO), false for injected
    /// faults and corruption (retrying cannot help; injected faults stay
    /// armed until the test disarms them, and re-reading corrupt bytes
    /// yields the same bytes).
    pub fn is_transient(&self) -> bool {
        matches!(self, PersistError::Io { .. })
    }
}

impl std::fmt::Display for PersistError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PersistError::Io {
                context,
                kind,
                message,
            } => write!(f, "io error during {context}: {message} ({kind:?})"),
            PersistError::Injected { failpoint } => {
                write!(f, "injected fault at failpoint `{failpoint}`")
            }
            PersistError::Corrupt { what, detail } => {
                write!(f, "corrupt {what}: {detail}")
            }
        }
    }
}

impl std::error::Error for PersistError {}

impl From<CodecError> for PersistError {
    fn from(e: CodecError) -> PersistError {
        PersistError::Corrupt {
            what: "encoded payload",
            detail: e.to_string(),
        }
    }
}
