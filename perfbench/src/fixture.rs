//! Workload set-up: generate the fixture, materialize the ASTs and, for the
//! writing workload, persist a snapshot and recover a `DurableSession`
//! from it.

use crate::sys::Stopwatch;
use crate::trace::Tracer;
use crate::workload::Workload;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sumtab::datagen::{generate, GenConfig};
use sumtab::durable::WAL_FILE;
use sumtab::engine::session::StatementResult;
use sumtab::persist::snapshot::{write_snapshot, SnapshotState};
use sumtab::persist::{Wal, WalOptions};
use sumtab::{DurableSession, QueryResult, Row, SummarySession, SumtabError};

/// The session a workload's operations go through.
// One per run: the size difference between the variants does not matter.
#[allow(clippy::large_enum_variant)]
pub enum Target {
    /// Read-only workloads: an in-memory session.
    Plain(SummarySession),
    /// Writing workloads: the WAL-logged, snapshotted session.
    Durable(DurableSession),
}

impl Target {
    /// `query`: SQL text in, rows out, with transparent rewriting.
    pub fn query(&mut self, sql: &str) -> Result<QueryResult, SumtabError> {
        match self {
            Target::Plain(s) => s.query(sql),
            Target::Durable(s) => s.query(sql),
        }
    }

    /// The same query without rewriting: the oracle's answer.
    pub fn base_rows(&mut self, sql: &str) -> Result<Vec<Row>, SumtabError> {
        match self {
            Target::Plain(s) => s.query_no_rewrite(sql),
            Target::Durable(s) => s.query_no_rewrite(sql),
        }
        .map(|r| r.rows)
    }

    /// `run_script`: DML in, ASTs maintained (and, when durable, the WAL
    /// record fsync'd) before it returns.
    pub fn run_script(&mut self, sql: &str) -> Result<Vec<StatementResult>, SumtabError> {
        match self {
            Target::Plain(s) => s.run_script(sql),
            Target::Durable(s) => s.run_script(sql),
        }
    }
}

/// A directory the run owns, removed when dropped.
pub struct WorkDir(PathBuf);

impl WorkDir {
    /// A fresh directory `root/name`, emptied if it exists.
    pub fn new(root: &Path, name: &str) -> std::io::Result<WorkDir> {
        let dir = root.join(name);
        if dir.exists() {
            std::fs::remove_dir_all(&dir)?;
        }
        std::fs::create_dir_all(&dir)?;
        Ok(WorkDir(dir))
    }

    /// The directory.
    pub fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for WorkDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// What one set-up did and how long each step took, in seconds.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `datagen::generate`.
    pub generate_s: f64,
    /// Every `CREATE SUMMARY TABLE`.
    pub materialize_s: f64,
    /// `DurableSession::open` over that snapshot (writing workloads).
    pub recover_s: f64,
    /// From the start of set-up to the first operation.
    pub total_s: f64,
    /// Process CPU time (every thread) over the same interval.
    pub cpu_s: f64,
}

/// A set-up workload, ready for its first operation.
pub struct Prepared {
    /// Where operations go.
    pub target: Target,
    /// The in-memory session the durable one was recovered from: kept
    /// only by a traced set-up of a writing workload, which drives writes
    /// through it.
    pub plain: Option<SummarySession>,
    /// Step timings.
    pub times: SetupTimes,
}

/// The generator configuration of a workload at `scale` fact rows.
pub fn gen_config(scale: usize, seed: u64) -> GenConfig {
    GenConfig {
        seed,
        ..GenConfig::scale(scale)
    }
}

/// Full session state for a snapshot covering `last_lsn`, built from the
/// session's public accessors (the same fields `DurableSession` persists).
pub fn snapshot_state(s: &SummarySession, last_lsn: u64) -> SnapshotState {
    let (data, epochs) = s.session.db.export_state();
    SnapshotState {
        last_lsn,
        generation: s.plan_generation(),
        tables: s.session.catalog.tables().cloned().collect(),
        foreign_keys: s.session.catalog.foreign_keys().to_vec(),
        summaries: s.session.catalog.summary_tables().cloned().collect(),
        data,
        epochs,
        ast_epochs: s
            .ast_states()
            .iter()
            .map(|st| {
                let bases = st
                    .base_epochs
                    .iter()
                    .map(|(k, &v)| (k.clone(), v))
                    .collect();
                (st.ast.name.clone(), bases)
            })
            .collect(),
    }
}

/// Run one set-up step, timed and (with a tracer) recorded as a span of
/// operation 0.
fn step<T>(
    tracer: &mut Option<&mut Tracer>,
    name: &'static str,
    f: impl FnOnce() -> T,
) -> (T, f64) {
    let id = tracer.as_deref_mut().map(|t| t.open(name, 0, None));
    let started = Instant::now();
    let out = f();
    let secs = started.elapsed().as_secs_f64();
    if let (Some(t), Some(id)) = (tracer.as_deref_mut(), id) {
        t.close(id);
    }
    (out, secs)
}

/// Set the workload up once. Writing workloads persist into `dir`. Only a
/// traced set-up keeps the in-memory session beside the durable one; an
/// untraced one frees it before `DurableSession::open`, so the peak memory
/// holds one copy of the fixture.
pub fn prepare(
    workload: Workload,
    cfg: &GenConfig,
    dir: Option<&Path>,
    mut tracer: Option<&mut Tracer>,
) -> Result<Prepared, String> {
    let watch = Stopwatch::start();
    let mut times = SetupTimes::default();
    let ((catalog, db), secs) = step(&mut tracer, "setup.generate", || generate(cfg));
    times.generate_s = secs;
    let (s, secs) = step(&mut tracer, "setup.materialize", || {
        let mut s = SummarySession::with_data(catalog, db);
        for (name, sql) in workload.asts() {
            s.run_script(&format!("create summary table {name} as ({sql})"))
                .map_err(|e| format!("materializing {name}: {e}"))?;
        }
        Ok::<_, String>(s)
    });
    times.materialize_s = secs;
    let s = s?;

    let (target, plain) = match dir {
        None => (Target::Plain(s), None),
        Some(dir) => {
            let (written, _) = step(&mut tracer, "setup.snapshot", || {
                write_snapshot(dir, &snapshot_state(&s, 0), WalOptions::default().retry)
            });
            written.map_err(|e| format!("initial snapshot: {e}"))?;
            let plain = tracer.is_some().then_some(s);
            let (durable, secs) = step(&mut tracer, "setup.recover", || DurableSession::open(dir));
            times.recover_s = secs;
            let durable = durable.map_err(|e| format!("open: {e}"))?;
            (Target::Durable(durable), plain)
        }
    };
    let (wall_us, cpu_us) = watch.elapsed_us();
    times.total_s = wall_us / 1e6;
    times.cpu_s = cpu_us / 1e6;
    Ok(Prepared {
        target,
        plain,
        times,
    })
}

/// The durability the traced run drives by hand: the WAL a
/// `DurableSession` would append to, and the snapshot cadence it follows.
pub struct Log {
    /// The open log.
    pub wal: Wal,
    /// The directory holding the log and the snapshots.
    pub dir: PathBuf,
    /// Records appended since the last snapshot.
    pub since_snapshot: u64,
}

impl Log {
    /// A fresh log in `dir`, continuing after the initial snapshot.
    pub fn create(dir: &Path) -> Result<Log, String> {
        let wal = Wal::create(&dir.join(WAL_FILE), 1, WalOptions::default())
            .map_err(|e| format!("create wal: {e}"))?;
        Ok(Log {
            wal,
            dir: dir.to_path_buf(),
            since_snapshot: 0,
        })
    }
}
