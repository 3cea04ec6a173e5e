//! The measured loops: the untraced run that gives the end-to-end numbers,
//! and the traced run that replays the same operations with spans around
//! each layer's public calls.

use crate::fixture::{self, Log, Target, WorkDir};
use crate::oracle::Oracle;
use crate::sys::{self, Stopwatch};
use crate::trace::Tracer;
use crate::workload::{Op, OpKind, OpStream, Workload};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;
use sumtab::datagen::GenConfig;
use sumtab::engine::session::{literal_rows, StatementResult};
use sumtab::engine::{execute_with, matched_rows, update_deltas};
use sumtab::matcher::stats;
use sumtab::parser::{parse_query, parse_statements, Statement};
use sumtab::persist::snapshot::write_snapshot;
use sumtab::persist::{WalOptions, WalRecord};
use sumtab::{
    build_query, graph_fingerprint, render_graph_sql, CacheStats, DurableOptions, DurableSession,
    QueryResult, Rewriter, Row, SummarySession, SumtabError,
};

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 5;

/// One benchmark run's settings.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Which workload.
    pub workload: Workload,
    /// Seeds the fixture and the operation stream.
    pub seed: u64,
    /// Seconds of operation time to measure.
    pub seconds: f64,
    /// Record spans (per-layer metrics) instead of end-to-end metrics.
    pub trace: bool,
    /// Fact-table rows.
    pub scale: usize,
    /// Where the run may write (durability directories, span files).
    pub work_root: PathBuf,
}

/// One reported metric.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Name as `BENCHMARK.json` lists it.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// What a run prints.
#[derive(Debug, Clone)]
pub struct Report {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed: typed errors, wrong answers, wrong counts.
    pub failed: u64,
    /// Every check passed.
    pub correct: bool,
    /// The metrics, in `BENCHMARK.json` order.
    pub metrics: Vec<Metric>,
    /// The reopen check's outcome: `None` when the run has none (read-only
    /// workloads, traced runs).
    pub reopen: Option<Result<(), String>>,
    /// Human-readable findings (failure samples, check outcomes).
    pub notes: Vec<String>,
}

/// When a measured loop stops: after `cpu_s` seconds of process CPU time
/// spent in operations or `wall_s` seconds of wall time (the oracle runs
/// outside operation time), whichever comes first, or when the operations
/// run out. Counting CPU time makes a run do the same work however much of
/// its CPUs the host takes away.
#[derive(Debug, Clone, Copy)]
pub struct Budget {
    /// Operation CPU time to accumulate.
    pub cpu_s: f64,
    /// Wall-clock cap.
    pub wall_s: f64,
}

/// One timed operation.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    /// The statement kind.
    pub kind: OpKind,
    /// Wall-clock latency, µs.
    pub wall_us: f64,
    /// Process CPU time (every thread), µs; 0 in the traced run, which
    /// does not read the CPU clock.
    pub cpu_us: f64,
}

/// Tallies of one measured loop.
#[derive(Debug, Clone, Default)]
pub struct Pass {
    /// Every op, in the order they ran.
    pub samples: Vec<Sample>,
    /// Summed wall-clock operation time, µs.
    pub op_us: f64,
    /// Summed operation CPU time, µs.
    pub op_cpu_us: f64,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that returned a typed error.
    pub errors: u64,
    /// Queries whose answer differed from the base plan's.
    pub wrong_answers: u64,
    /// The same wrong answers, by the AST that gave them (`base plan` when
    /// none did).
    pub wrong_by_source: BTreeMap<String, u64>,
    /// DML statements whose row count differed from the generator's.
    pub wrong_counts: u64,
    /// Queries answered from an AST.
    pub ast_answered: u64,
    /// Bytes of acknowledged DML text.
    pub dml_bytes: u64,
    /// Bytes the process wrote during the loop (`wchar`).
    pub bytes_written: u64,
    /// The first few failures, described.
    pub failures: Vec<String>,
}

impl Pass {
    /// Failed operations of every kind.
    pub fn failed(&self) -> u64 {
        self.errors + self.wrong_answers + self.wrong_counts
    }

    /// Summed wall-clock operation time, seconds.
    pub fn op_time_s(&self) -> f64 {
        self.op_us / 1e6
    }

    /// Wall-clock latencies of the ops whose kind satisfies `keep`, µs.
    pub fn wall_of(&self, keep: impl Fn(OpKind) -> bool) -> Vec<f64> {
        values(&self.samples, keep, |x| x.wall_us)
    }

    fn record(&mut self, kind: OpKind, (wall_us, cpu_us): (f64, f64)) {
        self.samples.push(Sample {
            kind,
            wall_us,
            cpu_us,
        });
        self.op_us += wall_us;
        self.op_cpu_us += cpu_us;
    }

    fn fail(&mut self, what: String) {
        if self.failures.len() < 5 {
            self.failures.push(what);
        }
    }

    fn done(&self, budget: Budget, wall: &Instant) -> bool {
        self.op_cpu_us / 1e6 >= budget.cpu_s || wall.elapsed().as_secs_f64() >= budget.wall_s
    }

    /// Tally a query's outcome, checking its rows against the oracle;
    /// `base` answers the query without rewriting on the same state.
    fn check_query(
        &mut self,
        oracle: &mut Oracle,
        sql: &str,
        result: Result<QueryResult, String>,
        base: impl FnOnce(&str) -> Result<Vec<Row>, SumtabError>,
    ) {
        let result = match result {
            Ok(r) => r,
            Err(e) => {
                self.errors += 1;
                self.fail(e);
                return;
            }
        };
        self.ast_answered += u64::from(result.used_ast.is_some());
        match oracle.agrees(sql, &result.rows, base) {
            Ok(true) => {}
            Ok(false) => {
                let source = result.used_ast.as_deref().unwrap_or("base plan");
                self.wrong_answers += 1;
                *self.wrong_by_source.entry(source.to_string()).or_default() += 1;
                self.fail(format!("wrong answer from {source}: {sql}"));
            }
            Err(e) => {
                self.errors += 1;
                self.fail(format!("oracle error: {e}: {sql}"));
            }
        }
    }

    /// Tally a DML op's outcome: the rows it affected, or its error.
    fn check_dml(&mut self, op: &Op, affected: Result<usize, String>) {
        match affected {
            Ok(n) if n == op.expect_rows => self.dml_bytes += op.sql.len() as u64,
            Ok(n) => {
                self.wrong_counts += 1;
                self.fail(format!(
                    "{n} rows affected, {} expected: {}",
                    op.expect_rows, op.sql
                ));
            }
            Err(e) => {
                self.errors += 1;
                self.fail(e);
            }
        }
    }
}

/// Nearest-rank quantile of unsorted samples (`0` when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = (q * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// `of` of every sample whose kind satisfies `keep`.
fn values(
    samples: &[Sample],
    keep: impl Fn(OpKind) -> bool,
    of: impl Fn(&Sample) -> f64,
) -> Vec<f64> {
    samples.iter().filter(|x| keep(x.kind)).map(of).collect()
}

fn mean(v: &[f64]) -> f64 {
    ratio(v.iter().sum(), v.len() as f64)
}

/// Consecutive windows the measured ops are split into for the end-to-end
/// statistics.
const WINDOWS: usize = 10;

/// The median over [`WINDOWS`] consecutive windows (equal op counts) of
/// `stat` applied to each window: a slowdown of the machine that lasts
/// less than half the run moves it little.
fn windowed(samples: &[Sample], stat: impl Fn(&[Sample]) -> f64) -> f64 {
    let size = samples.len().div_ceil(WINDOWS).max(1);
    let per_window: Vec<f64> = samples.chunks(size).map(stat).collect();
    quantile(&per_window, 0.5)
}

fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Rows a DML statement reported.
fn affected(results: &[StatementResult]) -> usize {
    results
        .iter()
        .map(|r| match r {
            StatementResult::Count(n) => *n,
            _ => 0,
        })
        .sum()
}

/// Drive `ops` through the public session API, timing each operation
/// and checking every answer outside the timed span.
pub fn measure(
    target: &mut Target,
    ops: &mut impl Iterator<Item = Op>,
    budget: Budget,
    oracle: &mut Oracle,
) -> Pass {
    let mut pass = Pass::default();
    let written_before = sys::bytes_written().unwrap_or(0);
    let wall = Instant::now();
    while !pass.done(budget, &wall) {
        let Some(op) = ops.next() else { break };
        pass.attempted += 1;
        let watch = Stopwatch::start();
        if op.kind == OpKind::Query {
            let result = target.query(&op.sql);
            pass.record(op.kind, watch.elapsed_us());
            let result = result.map_err(|e| format!("query error: {e}: {}", op.sql));
            pass.check_query(oracle, &op.sql, result, |q| target.base_rows(q));
        } else {
            let result = target.run_script(&op.sql);
            pass.record(op.kind, watch.elapsed_us());
            let result = result
                .map(|r| affected(&r))
                .map_err(|e| format!("dml error: {e}: {}", op.sql));
            pass.check_dml(&op, result);
        }
    }
    pass.bytes_written = sys::bytes_written()
        .unwrap_or(0)
        .saturating_sub(written_before);
    pass
}

/// Counts gathered around the traced run's operations.
#[derive(Debug, Clone, Default)]
struct Counts {
    queries: u64,
    plan: CacheStats,
    result: CacheStats,
    navigator_runs: u64,
    filter_rejections: u64,
    executes: u64,
    rows_out: u64,
    writes: u64,
    maintained: u64,
    maintain_slots: u64,
    wal_bytes: u64,
    snapshots: u64,
    snapshot_bytes: u64,
}

fn add_stats(into: &mut CacheStats, before: CacheStats, after: CacheStats) {
    into.hits += after.hits - before.hits;
    into.misses += after.misses - before.misses;
    into.invalidations += after.invalidations - before.invalidations;
    into.reroutes += after.reroutes - before.reroutes;
}

/// The traced run's session: the in-memory session, plus (for writing
/// workloads) the WAL and snapshots driven by hand.
struct TracedSession {
    s: SummarySession,
    log: Option<Log>,
}

/// One traced query: `query` as the op span, then the pure layer calls
/// re-run on the same SQL and state, outside that span. Returns the op's
/// latency in µs with its result.
fn traced_query(
    t: &mut TracedSession,
    tracer: &mut Tracer,
    counts: &mut Counts,
    op: u64,
    sql: &str,
) -> (f64, Result<QueryResult, String>) {
    let s = &mut t.s;
    let (plan0, result0) = (s.plan_cache_stats(), s.result_cache_stats());
    let (nav0, rej0) = (stats::navigator_runs(), stats::filter_rejections());
    let span = tracer.open("op.query", op, None);
    let result = s.query(sql);
    tracer.close(span);
    let us = tracer.spans()[span].duration_ns() as f64 / 1e3;
    let (plan1, result1) = (s.plan_cache_stats(), s.result_cache_stats());
    counts.queries += 1;
    counts.navigator_runs += stats::navigator_runs() - nav0;
    counts.filter_rejections += stats::filter_rejections() - rej0;
    add_stats(&mut counts.plan, plan0, plan1);
    add_stats(&mut counts.result, result0, result1);
    let result = match result {
        Ok(r) => r,
        Err(e) => return (us, Err(format!("query error: {e}: {sql}"))),
    };
    let plan_miss = plan1.misses > plan0.misses;
    let executed = result1.hits == result0.hits;
    let replayed = replay_layers(s, tracer, counts, op, span, sql, plan_miss, executed);
    (us, replayed.map(|()| result))
}

/// Re-run the pure layer calls of a query op, each in a span caused by
/// the op: `plan_detail` with its parse, build and fingerprint; the matcher
/// when the op missed the plan cache; execution and rendering when it
/// missed the result cache.
#[allow(clippy::too_many_arguments)]
fn replay_layers(
    s: &SummarySession,
    tracer: &mut Tracer,
    counts: &mut Counts,
    op: u64,
    span: usize,
    sql: &str,
    plan_miss: bool,
    executed: bool,
) -> Result<(), String> {
    let route = tracer.open("sumtab.plan_detail", op, Some(span));
    let detail = s.plan_detail(sql);
    tracer.close(route);
    let detail = detail.map_err(|e| format!("plan_detail error: {e}: {sql}"))?;
    let catalog = &s.session.catalog;
    let q = tracer.span("parser.parse", op, Some(route), || parse_query(sql));
    let q = q.map_err(|e| format!("parse error: {e}: {sql}"))?;
    let g = tracer.span("qgm.build", op, Some(route), || build_query(&q, catalog));
    let g = g.map_err(|e| format!("build error: {e}: {sql}"))?;
    black_box(tracer.span("qgm.fingerprint", op, Some(route), || graph_fingerprint(&g)));
    if plan_miss {
        let asts = s.asts();
        black_box(tracer.span("matcher.rewrite", op, Some(span), || {
            Rewriter::new(catalog).rewrite_candidates(&g, &asts)
        }));
    }
    if executed {
        let rows = tracer.span("engine.execute", op, Some(span), || {
            execute_with(&detail.graph, &s.session.db, s.exec_options())
        });
        counts.executes += 1;
        counts.rows_out += rows.map_or(0, |r| r.len() as u64);
        black_box(tracer.span("qgm.render", op, Some(span), || {
            render_graph_sql(&detail.graph)
        }));
    }
    Ok(())
}

/// One traced DML op: the sequence `DurableSession::run_script` performs
/// (parse, resolve, maintain, WAL append, snapshot at the cadence), each
/// step a span inside the op span. Returns the rows affected.
fn traced_write(
    t: &mut TracedSession,
    tracer: &mut Tracer,
    counts: &mut Counts,
    op: u64,
    span: usize,
    sql: &str,
) -> Result<usize, String> {
    let parent = Some(span);
    let s = &mut t.s;
    let stmts = tracer.span("parser.parse", op, parent, || parse_statements(sql));
    let stmts = stmts.map_err(|e| format!("parse error: {e}"))?;
    let mut affected = 0;
    for stmt in &stmts {
        let (table, n, report, record) = match stmt {
            Statement::Insert { table, rows } => {
                let rows = tracer.span("engine.resolve", op, parent, || literal_rows(rows));
                let rows = rows.map_err(|e| e.to_string())?;
                let report = tracer.span("sumtab.maintain", op, parent, || {
                    s.append_with_report(table, rows.clone())
                });
                let n = rows.len();
                let record = WalRecord::Append {
                    table: table.clone(),
                    rows,
                };
                (table, n, report, record)
            }
            Statement::Delete {
                table,
                where_clause,
            } => {
                let victims = tracer.span("engine.resolve", op, parent, || {
                    let ss = &s.session;
                    matched_rows(&ss.catalog, &ss.db, &ss.exec, table, where_clause.as_ref())
                });
                let victims = victims.map_err(|e| e.to_string())?;
                if victims.is_empty() {
                    continue;
                }
                let report = tracer.span("sumtab.maintain", op, parent, || {
                    s.delete_rows(table, victims.clone())
                });
                let n = victims.len();
                let record = WalRecord::Delete {
                    table: table.clone(),
                    rows: victims,
                };
                (table, n, report, record)
            }
            Statement::Update {
                table,
                sets,
                where_clause,
            } => {
                let deltas = tracer.span("engine.resolve", op, parent, || {
                    let ss = &s.session;
                    let w = where_clause.as_ref();
                    update_deltas(&ss.catalog, &ss.db, &ss.exec, table, sets, w)
                });
                let (old_rows, new_rows) = deltas.map_err(|e| e.to_string())?;
                if old_rows.is_empty() {
                    continue;
                }
                let report = tracer.span("sumtab.maintain", op, parent, || {
                    s.update_rows(table, old_rows.clone(), new_rows.clone())
                });
                let n = old_rows.len();
                let record = WalRecord::Update {
                    table: table.clone(),
                    old_rows,
                    new_rows,
                };
                (table, n, report, record)
            }
            other => return Err(format!("unexpected statement in a DML op: {other:?}")),
        };
        let report = report.map_err(|e| e.to_string())?;
        affected += n;
        counts.maintained += report.maintained.len() as u64;
        let table_lc = table.to_ascii_lowercase();
        counts.maintain_slots += s
            .ast_states()
            .iter()
            .filter(|st| st.maint.reports.contains_key(&table_lc))
            .count() as u64;
        let Some(log) = &mut t.log else { continue };
        let refreshes = report
            .refreshed
            .into_iter()
            .map(|name| WalRecord::Refresh { name });
        for rec in std::iter::once(record).chain(refreshes) {
            let before = wal_len(log);
            let appended = tracer.span("persist.wal_append", op, parent, || log.wal.append(&rec));
            appended.map_err(|e| format!("wal append: {e}"))?;
            counts.wal_bytes += wal_len(log).saturating_sub(before);
            log.since_snapshot += 1;
        }
    }
    if let Some(log) = &mut t.log {
        if log.since_snapshot >= DurableOptions::default().snapshot_every {
            let state = tracer.span("engine.export", op, parent, || {
                fixture::snapshot_state(s, log.wal.last_lsn())
            });
            let written = tracer.span("persist.snapshot", op, parent, || {
                write_snapshot(&log.dir, &state, WalOptions::default().retry)?;
                log.wal.reset()
            });
            written.map_err(|e| format!("snapshot: {e}"))?;
            counts.snapshots += 1;
            counts.snapshot_bytes +=
                std::fs::metadata(log.dir.join("snapshot.bin")).map_or(0, |m| m.len());
            log.since_snapshot = 0;
        }
    }
    Ok(affected)
}

fn wal_len(log: &Log) -> u64 {
    std::fs::metadata(log.wal.path()).map_or(0, |m| m.len())
}

/// Replay exactly `n` operations with spans.
fn measure_traced(
    t: &mut TracedSession,
    ops: &mut OpStream,
    n: u64,
    tracer: &mut Tracer,
    counts: &mut Counts,
    oracle: &mut Oracle,
) -> Pass {
    let mut pass = Pass::default();
    for (i, op) in ops.take(n as usize).enumerate() {
        let id = i as u64 + 1;
        pass.attempted += 1;
        if op.kind == OpKind::Query {
            let (us, result) = traced_query(t, tracer, counts, id, &op.sql);
            pass.record(op.kind, (us, 0.0));
            let s = &mut t.s;
            let base = |q: &str| s.query_no_rewrite(q).map(|r| r.rows);
            pass.check_query(oracle, &op.sql, result, base);
        } else {
            counts.writes += 1;
            let span = tracer.open("op.write", id, None);
            let result = traced_write(t, tracer, counts, id, span, &op.sql);
            tracer.close(span);
            let us = tracer.spans()[span].duration_ns() as f64 / 1e3;
            pass.record(op.kind, (us, 0.0));
            // The columnar rebuild the next read would pay, timed on its own.
            black_box(tracer.span("engine.rebuild", id, Some(span), || {
                t.s.session.db.columnar("trans")
            }));
            pass.check_dml(&op, result.map_err(|e| format!("{e}: {}", op.sql)));
        }
    }
    pass
}

/// After the measured loop of a writing workload: drop the durable
/// session, reopen it, and require identical tables (AST backing rows
/// included) and identical answers to `probes`.
pub fn check_reopen(
    mut durable: DurableSession,
    dir: &Path,
    probes: &[String],
) -> Result<(), String> {
    let mut answers = Vec::new();
    for sql in probes {
        answers.push(durable.query(sql).map_err(|e| e.to_string())?.rows);
    }
    let (before, _) = durable.session().session.db.export_state();
    drop(durable);
    let mut reopened = DurableSession::open(dir).map_err(|e| format!("reopen: {e}"))?;
    let (after, _) = reopened.session().session.db.export_state();
    let names = |d: &[(String, Vec<Row>)]| d.iter().map(|(n, _)| n.clone()).collect::<Vec<_>>();
    if names(&before) != names(&after) {
        return Err(format!(
            "reopened tables {:?}, expected {:?}",
            names(&after),
            names(&before)
        ));
    }
    for ((name, a), (_, b)) in before.into_iter().zip(after) {
        if sumtab::sort_rows(a) != sumtab::sort_rows(b) {
            return Err(format!("table `{name}` differs after reopening"));
        }
    }
    for (sql, want) in probes.iter().zip(answers) {
        let got = reopened.query(sql).map_err(|e| e.to_string())?.rows;
        if !crate::oracle::same_multiset(&got, &want) {
            return Err(format!("answer differs after reopening: {sql}"));
        }
    }
    Ok(())
}

fn failure_notes(pass: &Pass, notes: &mut Vec<String>) {
    notes.extend(pass.failures.iter().map(|f| format!("failure: {f}")));
    notes.extend(
        pass.wrong_by_source
            .iter()
            .map(|(source, n)| format!("{n} wrong answers from {source}")),
    );
}

/// One set-up, in a work directory of its own when the workload writes.
fn prepare(
    cfg: &RunConfig,
    gen: &GenConfig,
    tag: &str,
    tracer: Option<&mut Tracer>,
) -> Result<(fixture::Prepared, Option<WorkDir>), String> {
    let dir = if cfg.workload.writes() {
        let name = format!("{}-{}-{tag}", cfg.workload.name(), std::process::id());
        Some(WorkDir::new(&cfg.work_root, &name).map_err(|e| format!("work dir: {e}"))?)
    } else {
        None
    };
    let p = fixture::prepare(cfg.workload, gen, dir.as_ref().map(WorkDir::path), tracer)?;
    Ok((p, dir))
}

/// The untraced run: a set-up and the measured loop on it, then
/// [`SETUPS`]` - 1` more set-ups for the `setup_s` median. The peak memory
/// is read before those, so it covers one fixture and the run.
fn run_untraced(cfg: &RunConfig, gen: &GenConfig) -> Result<Report, String> {
    let (p, dir) = prepare(cfg, gen, "run", None)?;
    let mut setup_s = vec![p.times.cpu_s];
    let mut target = p.target;
    let mut ops = OpStream::new(cfg.workload, gen);
    let mut oracle = Oracle::new(cfg.workload.oracle_memoizable());
    let budget = Budget {
        cpu_s: cfg.seconds,
        wall_s: 4.0 * cfg.seconds + 10.0,
    };
    let pass = measure(&mut target, &mut ops, budget, &mut oracle);

    let mut notes = Vec::new();
    failure_notes(&pass, &mut notes);
    let mut correct = pass.failed() == 0;
    let mut reopen = None;
    if let (Target::Durable(durable), Some(dir)) = (target, &dir) {
        if let Some(e) = durable.last_snapshot_error() {
            correct = false;
            notes.push(format!("snapshot failed during the run: {e}"));
        }
        let outcome = check_reopen(durable, dir.path(), &cfg.workload.probe_queries());
        correct &= outcome.is_ok();
        reopen = Some(outcome);
    }
    let rss_peak_mb = sys::peak_rss_mib().unwrap_or(0.0);
    drop(dir);
    for i in 1..SETUPS {
        let (p, _dir) = prepare(cfg, gen, &format!("setup{i}"), None)?;
        setup_s.push(p.times.cpu_s);
    }
    let ops = &pass.samples;
    let cpu = |w: &[Sample], keep: fn(OpKind) -> bool| values(w, keep, |x| x.cpu_us);
    let metrics = vec![
        Metric {
            name: "query_cpu_p50_us",
            value: windowed(ops, |w| quantile(&cpu(w, |k| !k.is_write()), 0.50)),
            unit: "us",
        },
        Metric {
            name: "op_cpu_mean_us",
            value: windowed(ops, |w| mean(&cpu(w, |_| true))),
            unit: "us",
        },
        Metric {
            name: "rss_peak_mb",
            value: rss_peak_mb,
            unit: "MiB",
        },
        Metric {
            name: "setup_s",
            value: quantile(&setup_s, 0.5),
            unit: "s",
        },
    ];
    notes.push(format!(
        "{} ops ({} queries, {} writes), {} failed: {} errors, {} wrong answers, {} wrong counts",
        pass.attempted,
        pass.wall_of(|k| !k.is_write()).len(),
        pass.wall_of(OpKind::is_write).len(),
        pass.failed(),
        pass.errors,
        pass.wrong_answers,
        pass.wrong_counts
    ));
    Ok(Report {
        attempted: pass.attempted,
        failed: pass.failed(),
        correct,
        metrics,
        reopen,
        notes,
    })
}

/// The traced run: an untraced pass for reference, then a fresh set-up
/// replaying the same operations with spans.
fn run_traced(cfg: &RunConfig, gen: &GenConfig) -> Result<Report, String> {
    let mut oracle = Oracle::new(cfg.workload.oracle_memoizable());
    let reference = {
        let (p, _dir) = prepare(cfg, gen, "reference", None)?;
        let mut target = p.target;
        let mut ops = OpStream::new(cfg.workload, gen);
        let budget = Budget {
            cpu_s: cfg.seconds / 2.0,
            wall_s: 2.0 * cfg.seconds + 5.0,
        };
        measure(&mut target, &mut ops, budget, &mut oracle)
    };

    let mut tracer = Tracer::new();
    let (p, dir) = prepare(cfg, gen, "traced", Some(&mut tracer))?;
    let times = p.times;
    let mut t = match (p.target, p.plain, &dir) {
        (Target::Plain(s), _, _) => TracedSession { s, log: None },
        (Target::Durable(durable), Some(s), Some(dir)) => {
            drop(durable);
            TracedSession {
                s,
                log: Some(Log::create(dir.path())?),
            }
        }
        _ => return Err("durable set-up without its session".to_string()),
    };
    let mut counts = Counts::default();
    let mut ops = OpStream::new(cfg.workload, gen);
    let traced = measure_traced(
        &mut t,
        &mut ops,
        reference.attempted,
        &mut tracer,
        &mut counts,
        &mut oracle,
    );
    drop(t);
    drop(dir);

    let spans_file = cfg.work_root.join(format!(
        "spans-{}-seed{}.jsonl",
        cfg.workload.name(),
        cfg.seed
    ));
    let mut notes = Vec::new();
    match tracer.write_jsonl(&spans_file) {
        Ok(()) => notes.push(format!(
            "{} spans written to {}",
            tracer.spans().len(),
            spans_file.display()
        )),
        Err(e) => notes.push(format!("spans not written: {e}")),
    }
    failure_notes(&reference, &mut notes);
    failure_notes(&traced, &mut notes);

    let totals = tracer.layer_totals();
    let us = |name: &str| totals.get(name).map_or(0.0, |t| t.mean_us());
    let (op_ns, left_ns) = tracer.unattributed(&["op.query", "op.write"], &["engine.rebuild"]);
    let q = counts.queries as f64;
    let queries = reference.wall_of(|k| !k.is_write());
    let writes = reference.wall_of(OpKind::is_write);
    let cache_rate = |c: &CacheStats| ratio(c.hits as f64, (c.hits + c.misses) as f64);
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("parser.parse_us", us("parser.parse"), "us"),
        m("qgm.build_us", us("qgm.build"), "us"),
        m("qgm.fingerprint_us", us("qgm.fingerprint"), "us"),
        m("qgm.render_us", us("qgm.render"), "us"),
        m("matcher.rewrite_us", us("matcher.rewrite"), "us"),
        m(
            "matcher.navigator_runs",
            ratio(counts.navigator_runs as f64, q),
            "1/query",
        ),
        m(
            "matcher.filter_rejections",
            ratio(counts.filter_rejections as f64, q),
            "1/query",
        ),
        m("sumtab.route_us", us("sumtab.plan_detail"), "us"),
        m(
            "sumtab.result_cache_hit_rate",
            cache_rate(&counts.result),
            "fraction",
        ),
        m(
            "sumtab.ast_answered_frac",
            ratio(traced.ast_answered as f64, q),
            "fraction",
        ),
        m(
            "sumtab.reroutes",
            ratio(counts.plan.reroutes as f64, q),
            "1/query",
        ),
        m("sumtab.maintain_us", us("sumtab.maintain"), "us"),
        m(
            "sumtab.incremental_frac",
            ratio(counts.maintained as f64, counts.maintain_slots as f64),
            "fraction",
        ),
        m("sumtab.materialize_s", times.materialize_s, "s"),
        m("engine.exec_us", us("engine.execute"), "us"),
        m(
            "engine.rows_out",
            ratio(counts.rows_out as f64, counts.executes as f64),
            "rows",
        ),
        m(
            "engine.plan_cache_hit_rate",
            cache_rate(&counts.plan),
            "fraction",
        ),
        m(
            "engine.plan_cache_invalidations",
            ratio(counts.plan.invalidations as f64, q),
            "1/query",
        ),
        m("engine.resolve_us", us("engine.resolve"), "us"),
        m("engine.rebuild_us", us("engine.rebuild"), "us"),
        m("engine.export_us", us("engine.export"), "us"),
        m("persist.wal_append_us", us("persist.wal_append"), "us"),
        m(
            "persist.wal_bytes_per_write",
            ratio(counts.wal_bytes as f64, counts.writes as f64),
            "bytes",
        ),
        m("persist.snapshot_us", us("persist.snapshot"), "us"),
        m(
            "persist.snapshot_bytes",
            ratio(counts.snapshot_bytes as f64, counts.snapshots as f64),
            "bytes",
        ),
        m("persist.recover_s", times.recover_s, "s"),
        m("datagen.generate_s", times.generate_s, "s"),
        m(
            "trace.overhead_frac",
            ratio(
                traced.op_time_s() - reference.op_time_s(),
                reference.op_time_s(),
            ),
            "fraction",
        ),
        m(
            "trace.unattributed_frac",
            ratio(left_ns as f64, op_ns as f64),
            "fraction",
        ),
        m("setup_wall_s", times.total_s, "s"),
        m("query_p50_us", quantile(&queries, 0.50), "us"),
        m("query_p99_us", quantile(&queries, 0.99), "us"),
        m(
            "op_p95_us",
            quantile(&reference.wall_of(|_| true), 0.95),
            "us",
        ),
        m(
            "ops_per_s",
            ratio(reference.attempted as f64, reference.op_time_s()),
            "1/s",
        ),
        m("write_p50_us", quantile(&writes, 0.50), "us"),
        m("write_p99_us", quantile(&writes, 0.99), "us"),
        m(
            "write_amp",
            ratio(reference.bytes_written as f64, reference.dml_bytes as f64),
            "ratio",
        ),
        m(
            "error_rate",
            ratio(reference.failed() as f64, reference.attempted as f64),
            "fraction",
        ),
    ];
    let failed = reference.failed() + traced.failed();
    Ok(Report {
        attempted: reference.attempted + traced.attempted,
        failed,
        correct: failed == 0,
        metrics,
        reopen: None,
        notes,
    })
}

/// Run the benchmark once.
pub fn run(cfg: &RunConfig) -> Result<Report, String> {
    std::fs::create_dir_all(&cfg.work_root).map_err(|e| format!("work root: {e}"))?;
    let gen = fixture::gen_config(cfg.scale, cfg.seed);
    if cfg.trace {
        run_traced(cfg, &gen)
    } else {
        run_untraced(cfg, &gen)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(quantile(&v, 0.5), 50.0);
        assert_eq!(quantile(&v, 0.99), 99.0);
        assert_eq!(quantile(&v, 1.0), 100.0);
        assert_eq!(quantile(&[7.0], 0.99), 7.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
    }

    #[test]
    fn windowed_median_ignores_a_slow_stretch() {
        let sample = |us| Sample {
            kind: OpKind::Query,
            wall_us: us,
            cpu_us: us,
        };
        let mut ops = vec![sample(100.0); 100];
        for slow in &mut ops[..30] {
            *slow = sample(1000.0);
        }
        let p50 = |w: &[Sample]| quantile(&values(w, |_| true, |x| x.cpu_us), 0.5);
        assert_eq!(windowed(&ops, p50), 100.0);
        assert_eq!(windowed(&ops[..3], |w| w.len() as f64), 1.0);
    }
}
