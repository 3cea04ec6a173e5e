//! Incremental summary-table maintenance driven by the static
//! maintainability analysis.
//!
//! The paper lists AST maintenance as related problem (c) and defers to
//! Mumick/Quass/Mumick (SIGMOD'97). This module executes the certificates
//! produced by [`sumtab_qgm::maintainability`]:
//!
//! * **Appends** ([`apply_append`]): aggregate only the delta rows and merge
//!   the result into the materialized groups — `COUNT`/`SUM` add, `MIN`/`MAX`
//!   take the extremum (the classic insert-only case).
//! * **Deletes** ([`apply_delete`]): counting-based delta maintenance. The
//!   per-group row counter (a projected `COUNT(*)`-equivalent, or the hidden
//!   one injected at materialization) tracks group liveness: when it reaches
//!   zero the whole group row is dropped; `COUNT`/`SUM` columns subtract the
//!   delta; `MIN`/`MAX` columns are *shrink-sensitive* — a delete whose delta
//!   extremum ties or beats the stored one may have removed the extremum
//!   itself, which a delta cannot repair, so the apply reports
//!   [`DeltaOutcome::NeedsRefresh`] and the caller recomputes.
//! * **Updates**: delete + insert of signed deltas, composed by the facade
//!   ([`crate::SummarySession`]) from the two primitives above.
//!
//! Every apply is gated behind the PR 4 plan verifier
//! ([`verify_maintenance`]) and, in debug builds (or `SUMTAB_VERIFY=1`),
//! a recompute-equivalence assertion ([`check_equivalence`]): the maintained
//! backing rows must equal a from-scratch recomputation, or the caller
//! degrades to a refresh.

use std::collections::hash_map::RandomState;
use std::collections::{BTreeMap, HashMap};
use std::hash::{BuildHasher, Hash, Hasher};
use sumtab_catalog::{Catalog, Value};
use sumtab_engine::{execute, Database, Row};
use sumtab_qgm::{
    analyze_maintainability, augment_with_count, BoxKind, ColumnOp, MaintStrategy,
    MaintainabilityReport, QgmGraph, VerifyError,
};

/// The cached registration-time analysis of one AST: per-base-table
/// certificates plus the graph the engine actually executes (the definition,
/// or its hidden-counter augmentation when counting-delta maintenance needs
/// a group-liveness counter that the definition does not project).
#[derive(Debug, Clone)]
pub struct AstMaintenance {
    /// Base table (lower-cased) → maintainability certificate.
    pub reports: BTreeMap<String, MaintainabilityReport>,
    /// The graph executed for materialization, refresh, and delta
    /// computation. Identical to the definition graph unless
    /// `hidden_counter`.
    pub exec_graph: QgmGraph,
    /// The exec graph carries an extra trailing hidden `COUNT(*)` column
    /// (stored in backing rows, invisible to the catalog and the matcher).
    pub hidden_counter: bool,
}

impl AstMaintenance {
    /// Derive the executable plan for mutations on `table`; `None` when the
    /// certificate says refresh-only (or the table is not read).
    pub fn plan_for(&self, table: &str) -> Option<MaintenancePlan> {
        let r = self.reports.get(&table.to_ascii_lowercase())?;
        if r.strategy == MaintStrategy::RefreshOnly {
            return None;
        }
        let mut ops = r.per_column_ops.clone();
        let mut counter = r.counter;
        if self.hidden_counter {
            ops.push(ColumnOp::Count {
                counter_eligible: true,
            });
            if counter.is_none() {
                counter = Some(ops.len() - 1);
            }
        }
        Some(MaintenancePlan {
            strategy: r.strategy,
            ops,
            counter,
            shrink_sensitive: r.shrink_sensitive.clone(),
        })
    }

    /// The strongest strategy certified for `table`
    /// ([`MaintStrategy::RefreshOnly`] when the table is not read).
    pub fn strategy_for(&self, table: &str) -> MaintStrategy {
        self.reports
            .get(&table.to_ascii_lowercase())
            .map(|r| r.strategy)
            .unwrap_or(MaintStrategy::RefreshOnly)
    }
}

/// Run the maintainability analysis for every base table an AST definition
/// reads, and build the exec graph (injecting the hidden counter when any
/// certificate requests one). Pure function of (graph, catalog) — computed
/// once at registration, like `MatchSignature`.
pub fn analyze_ast(graph: &QgmGraph, catalog: &Catalog) -> AstMaintenance {
    let mut reports = BTreeMap::new();
    for b in &graph.boxes {
        if let BoxKind::BaseTable { table } = &b.kind {
            let t = table.to_ascii_lowercase();
            reports
                .entry(t.clone())
                .or_insert_with(|| analyze_maintainability(graph, &t, catalog));
        }
    }
    let wants_hidden = reports
        .values()
        .any(|r: &MaintainabilityReport| r.needs_hidden_counter);
    let (exec_graph, hidden_counter) = if wants_hidden {
        match augment_with_count(graph) {
            Some(g) => (g, true),
            // Unreachable for analyzer-certified graphs; stay sound anyway.
            None => (graph.clone(), false),
        }
    } else {
        (graph.clone(), false)
    };
    AstMaintenance {
        reports,
        exec_graph,
        hidden_counter,
    }
}

/// The executable maintenance plan for one (AST, base table) pair: one
/// [`ColumnOp`] per *exec-graph* output (the certificate's per-column ops
/// plus the hidden counter, when present).
#[derive(Debug, Clone)]
pub struct MaintenancePlan {
    /// The certified strategy.
    pub strategy: MaintStrategy,
    /// Per-backing-column merge behavior.
    pub ops: Vec<ColumnOp>,
    /// Ordinal of the group-liveness counter (visible or hidden). Always
    /// `Some` under [`MaintStrategy::CountingDelta`].
    pub counter: Option<usize>,
    /// Ordinals of shrink-sensitive (`MIN`/`MAX`) columns.
    pub shrink_sensitive: Vec<usize>,
}

/// The outcome of an incremental apply that ran to completion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DeltaOutcome {
    /// The backing table was merged in place.
    Applied,
    /// The delta cannot soundly maintain the backing table (shrink of a
    /// stored extremum, width drift, counter inconsistency); nothing was
    /// modified — the caller must recompute.
    NeedsRefresh(String),
}

/// Maintenance boundary gate: before a [`MaintenancePlan`] is applied, prove
/// the exec graph still verifies (passes 1+2) and that the plan's
/// per-column ops line up one-to-one with the exec graph's root outputs — a
/// drifted plan would merge deltas into the wrong columns. Callers treat a
/// failure like any other incremental-maintenance error and degrade to a
/// full refresh.
pub fn verify_maintenance(
    exec_graph: &QgmGraph,
    plan: &MaintenancePlan,
    catalog: &Catalog,
) -> Result<(), VerifyError> {
    sumtab_qgm::verify::verify_plan(exec_graph, catalog)?;
    let arity = exec_graph.boxed(exec_graph.root).outputs.len();
    if plan.ops.len() != arity {
        return Err(VerifyError::schema(format!(
            "maintenance plan has {} merge ops but the exec graph exposes {arity} columns",
            plan.ops.len()
        )));
    }
    if plan.strategy == MaintStrategy::CountingDelta {
        match plan.counter {
            Some(c) if matches!(plan.ops.get(c), Some(ColumnOp::Count { .. })) => {}
            _ => {
                return Err(VerifyError::schema(
                    "counting-delta plan lacks a COUNT group-liveness counter".to_string(),
                ))
            }
        }
    }
    Ok(())
}

/// Key ordinals of a plan.
fn key_ordinals(plan: &MaintenancePlan) -> Vec<usize> {
    plan.ops
        .iter()
        .enumerate()
        .filter(|(_, op)| **op == ColumnOp::Key)
        .map(|(i, _)| i)
        .collect()
}

/// Compute the delta aggregation: the exec graph over a database in which
/// `table` holds only `delta_rows` (every other table unchanged). Copies
/// only the tables the graph actually reads — crucially *not* the (large)
/// maintained fact table, whose contents the delta replaces anyway — so the
/// cost scales with the dimension tables and the delta, not the base data.
fn delta_aggregation(
    exec_graph: &QgmGraph,
    table: &str,
    delta_rows: &[Row],
    db: &Database,
) -> Result<Vec<Row>, sumtab_engine::ExecError> {
    let mut delta_db = Database::new();
    for b in &exec_graph.boxes {
        if let sumtab_qgm::BoxKind::BaseTable { table: t } = &b.kind {
            if !t.eq_ignore_ascii_case(table) {
                delta_db.put_table(t, db.rows(t).to_vec());
            }
        }
    }
    delta_db.put_table(table, delta_rows.to_vec());
    execute(exec_graph, &delta_db)
}

/// Refuse a backing table whose width does not match the plan — legacy
/// backing data without the hidden counter, or other drift. A refresh
/// re-materializes it through the exec graph.
fn width_drift(backing: &[Row], plan: &MaintenancePlan) -> Option<DeltaOutcome> {
    let w = backing.first()?.len();
    (w != plan.ops.len()).then(|| {
        DeltaOutcome::NeedsRefresh(format!(
            "backing rows have {w} columns, plan expects {}",
            plan.ops.len()
        ))
    })
}

/// How the delta's groups line up with the backing rows.
struct GroupMatch {
    /// Delta row → its slot: the first delta row with an equal key.
    slot_of: Vec<usize>,
    /// Slot → the last backing row with that key, if any.
    target: Vec<Option<usize>>,
}

/// Match delta groups to backing rows by key without indexing the backing
/// table: only the delta's (few) keys are hashed into a map, and one pass
/// over the backing rows probes it, hashing each row's key cells in place.
fn match_groups(backing: &[Row], delta: &[Row], key_idx: &[usize]) -> GroupMatch {
    let seed = RandomState::new();
    let hash = |row: &Row| {
        let mut h = seed.build_hasher();
        for &k in key_idx {
            row[k].hash(&mut h);
        }
        h.finish()
    };
    let same_key = |a: &Row, b: &Row| key_idx.iter().all(|&k| a[k] == b[k]);
    let mut slots: HashMap<u64, Vec<usize>> = HashMap::new();
    let mut slot_of = Vec::with_capacity(delta.len());
    for (d, row) in delta.iter().enumerate() {
        let bucket = slots.entry(hash(row)).or_default();
        match bucket.iter().find(|&&s| same_key(&delta[s], row)) {
            Some(&s) => slot_of.push(s),
            None => {
                bucket.push(d);
                slot_of.push(d);
            }
        }
    }
    let mut target = vec![None; delta.len()];
    for (i, row) in backing.iter().enumerate() {
        if let Some(bucket) = slots.get(&hash(row)) {
            if let Some(&s) = bucket.iter().find(|&&s| same_key(&delta[s], row)) {
                target[s] = Some(i);
            }
        }
    }
    GroupMatch { slot_of, target }
}

/// Apply an append incrementally: aggregate the delta rows and merge them
/// into the backing rows in `db` under `ast_name`. Reports
/// [`DeltaOutcome::NeedsRefresh`] (without modifying anything) when the
/// backing rows do not line up with the plan.
pub fn apply_append(
    exec_graph: &QgmGraph,
    plan: &MaintenancePlan,
    ast_name: &str,
    table: &str,
    delta_rows: &[Row],
    db: &mut Database,
) -> Result<DeltaOutcome, sumtab_engine::ExecError> {
    let delta = delta_aggregation(exec_graph, table, delta_rows, db)?;
    let backing = db.rows(ast_name);
    if let Some(refusal) = width_drift(backing, plan) {
        return Ok(refusal);
    }
    let GroupMatch {
        slot_of,
        mut target,
    } = match_groups(backing, &delta, &key_ordinals(plan));
    db.modify_rows(ast_name, |backing| {
        for (drow, slot) in delta.into_iter().zip(slot_of) {
            match target[slot] {
                Some(i) => {
                    let row = &mut backing[i];
                    for (c, op) in plan.ops.iter().enumerate() {
                        row[c] = merge_value(*op, &row[c], &drow[c]);
                    }
                }
                // A new group; later delta rows with its key merge into it.
                None => {
                    target[slot] = Some(backing.len());
                    backing.push(drow);
                }
            }
        }
    });
    Ok(DeltaOutcome::Applied)
}

/// Apply a delete through counting-based delta maintenance: aggregate the
/// removed rows, subtract signed deltas from `COUNT`/`SUM` columns, drop
/// groups whose liveness counter reaches zero, and refuse (without
/// modifying anything) whenever a shrink-sensitive extremum might have been
/// removed or the stored state is inconsistent with the delta.
pub fn apply_delete(
    exec_graph: &QgmGraph,
    plan: &MaintenancePlan,
    ast_name: &str,
    table: &str,
    removed_rows: &[Row],
    db: &mut Database,
) -> Result<DeltaOutcome, sumtab_engine::ExecError> {
    if plan.strategy != MaintStrategy::CountingDelta {
        return Ok(DeltaOutcome::NeedsRefresh(format!(
            "strategy {} does not certify deletes",
            plan.strategy
        )));
    }
    let Some(cnt) = plan.counter else {
        return Ok(DeltaOutcome::NeedsRefresh(
            "counting-delta plan without a counter ordinal".to_string(),
        ));
    };
    let delta = delta_aggregation(exec_graph, table, removed_rows, db)?;
    let backing = db.rows(ast_name);
    if let Some(refusal) = width_drift(backing, plan) {
        return Ok(refusal);
    }
    let GroupMatch { slot_of, target } = match_groups(backing, &delta, &key_ordinals(plan));

    // Plan the whole merge before touching `backing`, so a refusal midway
    // leaves the stored state untouched.
    let mut drop = vec![false; backing.len()];
    let mut merged: Vec<(usize, Row)> = Vec::with_capacity(delta.len());
    for (drow, slot) in delta.iter().zip(slot_of) {
        let Some(i) = target[slot] else {
            return Ok(DeltaOutcome::NeedsRefresh(
                "deleted rows belong to a group missing from the backing table".to_string(),
            ));
        };
        let row = &backing[i];
        // Group-liveness arithmetic decides removal before anything else:
        // a vanishing group needs no per-column repair.
        let (Value::Int(old_n), Value::Int(del_n)) = (&row[cnt], &drow[cnt]) else {
            return Ok(DeltaOutcome::NeedsRefresh(
                "group counter is not an integer".to_string(),
            ));
        };
        let new_n = old_n - del_n;
        if new_n < 0 {
            return Ok(DeltaOutcome::NeedsRefresh(format!(
                "counter underflow: {old_n} stored rows, {del_n} deleted"
            )));
        }
        if new_n == 0 {
            drop[i] = true;
            continue;
        }
        // Shrink detection: if the delta's extremum ties or beats the
        // stored one, the stored extremum may be among the deleted rows.
        for &s in &plan.shrink_sensitive {
            let stored = &row[s];
            let deleted = &drow[s];
            if *deleted == Value::Null {
                continue; // only NULLs deleted in this column: extrema ignore them
            }
            if *stored == Value::Null {
                return Ok(DeltaOutcome::NeedsRefresh(format!(
                    "stored extremum NULL but deleted rows carry values (column {s})"
                )));
            }
            let shrinks = match plan.ops[s] {
                ColumnOp::Min => deleted <= stored,
                ColumnOp::Max => deleted >= stored,
                _ => false,
            };
            if shrinks {
                return Ok(DeltaOutcome::NeedsRefresh(format!(
                    "delete removes the stored extremum of column {s}"
                )));
            }
        }
        // Signed subtraction for COUNT/SUM; keys and surviving extrema stay.
        let mut new_row = row.clone();
        for (c, op) in plan.ops.iter().enumerate() {
            match op {
                ColumnOp::Count { .. } | ColumnOp::Sum { .. } => {
                    match sub_value(&new_row[c], &drow[c]) {
                        Some(v) => new_row[c] = v,
                        None => {
                            return Ok(DeltaOutcome::NeedsRefresh(format!(
                                "cannot subtract delta from column {c}"
                            )))
                        }
                    }
                }
                ColumnOp::Key | ColumnOp::Min | ColumnOp::Max => {}
            }
        }
        merged.push((i, new_row));
    }
    db.modify_rows(ast_name, |backing| {
        for (i, row) in merged {
            backing[i] = row;
        }
        if drop.contains(&true) {
            let mut drop = drop.into_iter();
            backing.retain(|_| !drop.next().unwrap_or(false));
        }
    });
    Ok(DeltaOutcome::Applied)
}

/// Recompute-equivalence assertion: the maintained backing rows must be a
/// permutation of a from-scratch recomputation through the exec graph.
/// Double cells compare with a small relative tolerance (float accumulation
/// orders differ between merge and recompute); everything else compares
/// exactly. Returns a description of the first mismatch.
pub fn check_equivalence(
    exec_graph: &QgmGraph,
    ast_name: &str,
    db: &Database,
) -> Result<(), String> {
    let recomputed = execute(exec_graph, db).map_err(|e| format!("recompute failed: {e}"))?;
    let mut expected = recomputed;
    expected.sort();
    let mut actual = db.rows(ast_name).to_vec();
    actual.sort();
    if expected.len() != actual.len() {
        return Err(format!(
            "maintained backing has {} rows, recompute produced {}",
            actual.len(),
            expected.len()
        ));
    }
    for (ri, (a, e)) in actual.iter().zip(&expected).enumerate() {
        if a.len() != e.len() {
            return Err(format!("row {ri}: arity {} vs {}", a.len(), e.len()));
        }
        for (ci, (av, ev)) in a.iter().zip(e).enumerate() {
            let ok = match (av, ev) {
                (Value::Double(x), Value::Double(y)) => {
                    let scale = x.abs().max(y.abs()).max(1.0);
                    (x - y).abs() <= 1e-9 * scale
                }
                (a, e) => a == e,
            };
            if !ok {
                return Err(format!(
                    "row {ri}, column {ci}: maintained {av:?} != recomputed {ev:?}"
                ));
            }
        }
    }
    Ok(())
}

fn merge_value(op: ColumnOp, current: &Value, delta: &Value) -> Value {
    match op {
        ColumnOp::Key => current.clone(),
        ColumnOp::Count { .. } | ColumnOp::Sum { .. } => match (current, delta) {
            (Value::Null, d) => d.clone(),
            (c, Value::Null) => c.clone(),
            (c, d) => sumtab_engine::eval::eval_binary(sumtab_qgm::BinOp::Add, c, d),
        },
        ColumnOp::Min => match (current, delta) {
            (Value::Null, d) => d.clone(),
            (c, Value::Null) => c.clone(),
            (c, d) => {
                if d < c {
                    d.clone()
                } else {
                    c.clone()
                }
            }
        },
        ColumnOp::Max => match (current, delta) {
            (Value::Null, d) => d.clone(),
            (c, Value::Null) => c.clone(),
            (c, d) => {
                if d > c {
                    d.clone()
                } else {
                    c.clone()
                }
            }
        },
    }
}

/// Signed subtraction with the NULL conventions of delta maintenance:
/// subtracting a NULL delta keeps the current value; subtracting from NULL
/// is unrepresentable (`None` → refresh).
fn sub_value(current: &Value, delta: &Value) -> Option<Value> {
    match (current, delta) {
        (c, Value::Null) => Some(c.clone()),
        (Value::Null, _) => None,
        (c, d) => Some(sumtab_engine::eval::eval_binary(
            sumtab_qgm::BinOp::Sub,
            c,
            d,
        )),
    }
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::Catalog;
    use sumtab_parser::parse_query;
    use sumtab_qgm::build_query;

    fn graph_of(sql: &str, cat: &Catalog) -> QgmGraph {
        build_query(&parse_query(sql).unwrap(), cat).unwrap()
    }

    #[test]
    fn merge_value_semantics() {
        let i = |n: i64| Value::Int(n);
        let add = ColumnOp::Sum { delete_safe: true };
        assert_eq!(merge_value(add, &i(3), &i(4)), i(7));
        assert_eq!(merge_value(add, &Value::Null, &i(4)), i(4));
        assert_eq!(merge_value(add, &i(3), &Value::Null), i(3));
        assert_eq!(merge_value(ColumnOp::Min, &i(3), &i(4)), i(3));
        assert_eq!(merge_value(ColumnOp::Min, &i(5), &i(4)), i(4));
        assert_eq!(merge_value(ColumnOp::Max, &i(3), &i(4)), i(4));
        assert_eq!(merge_value(ColumnOp::Max, &Value::Null, &i(4)), i(4));
        assert_eq!(
            merge_value(ColumnOp::Key, &i(1), &i(9)),
            i(1),
            "keys never change"
        );
        assert_eq!(
            merge_value(add, &Value::Double(1.5), &Value::Double(2.5)),
            Value::Double(4.0)
        );
        assert_eq!(sub_value(&i(7), &i(4)), Some(i(3)));
        assert_eq!(sub_value(&i(7), &Value::Null), Some(i(7)));
        assert_eq!(sub_value(&Value::Null, &i(4)), None);
    }

    #[test]
    fn plan_detection_via_analyzer() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of(
            "select faid, count(*) as c, sum(qty) as s, min(price) as mn, max(price) as mx \
             from trans group by faid",
            &cat,
        );
        let m = analyze_ast(&g, &cat);
        assert!(!m.hidden_counter, "COUNT(*) is already projected");
        let plan = m.plan_for("trans").unwrap();
        assert_eq!(plan.strategy, MaintStrategy::CountingDelta);
        assert_eq!(plan.counter, Some(1));
        assert_eq!(plan.shrink_sensitive, vec![3, 4]);
        assert_eq!(plan.ops.len(), 5);
        assert_eq!(plan.ops[0], ColumnOp::Key);
    }

    #[test]
    fn hidden_counter_appended_to_plan_ops() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of("select faid, sum(qty) as s from trans group by faid", &cat);
        let m = analyze_ast(&g, &cat);
        assert!(m.hidden_counter);
        assert_eq!(m.exec_graph.boxed(m.exec_graph.root).outputs.len(), 3);
        let plan = m.plan_for("trans").unwrap();
        assert_eq!(plan.ops.len(), 3);
        assert_eq!(plan.counter, Some(2));
        verify_maintenance(&m.exec_graph, &plan, &cat).unwrap();
    }

    #[test]
    fn non_maintainable_shapes_are_refresh_only() {
        let cat = Catalog::credit_card_sample();
        for sql in [
            "select faid, count(*) as c from trans group by faid having count(*) > 1",
            "select count(*) as c from trans",
            "select faid, count(distinct flid) as c from trans group by faid",
            "select faid, count(*) as c, (select count(*) from trans) as t \
             from trans group by faid",
            "select tid, qty from trans",
        ] {
            let g = graph_of(sql, &cat);
            let m = analyze_ast(&g, &cat);
            assert!(m.plan_for("trans").is_none(), "should be rejected: {sql}");
            assert!(
                !m.reports["trans"].obstructions.is_empty(),
                "rejection must carry an obstruction: {sql}"
            );
        }
        // Non-linear: self join on the maintained table.
        let g = graph_of(
            "select t1.faid as f, count(*) as c from trans as t1, trans as t2 \
             where t1.faid = t2.faid group by t1.faid",
            &cat,
        );
        assert!(analyze_ast(&g, &cat).plan_for("trans").is_none());
        // Linear in trans, joined dimension is fine — and maintainable with
        // respect to both tables.
        let g = graph_of(
            "select state, count(*) as c from trans, loc where flid = lid group by state",
            &cat,
        );
        let m = analyze_ast(&g, &cat);
        assert!(m.plan_for("trans").is_some());
        assert!(m.plan_for("loc").is_some());
    }

    fn trans_row(tid: i64, faid: i64, qty: i64) -> Row {
        vec![
            Value::Int(tid),
            Value::Int(faid),
            Value::Int(1),
            Value::Int(1),
            Value::Date(sumtab_catalog::Date::parse("1995-06-01").unwrap()),
            Value::Int(qty),
            Value::Double(10.0),
            Value::Double(0.1),
        ]
    }

    #[test]
    fn merges_touch_only_delta_groups_and_refusals_touch_nothing() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of(
            "select faid, count(*) as c, sum(qty) as s from trans group by faid",
            &cat,
        );
        let m = analyze_ast(&g, &cat);
        let plan = m.plan_for("trans").unwrap();
        let (a, b, c) = (trans_row(1, 1, 5), trans_row(2, 1, 7), trans_row(3, 2, 9));
        let mut db = Database::new();
        db.insert(&cat, "trans", vec![a.clone(), b.clone(), c.clone()])
            .unwrap();
        let backing = execute(&m.exec_graph, &db).unwrap();
        db.put_table("st", backing);

        // A deleted row whose group is not stored: refused, nothing moves.
        let (rows, epoch) = (db.rows("st").to_vec(), db.epoch("st"));
        let ghost = trans_row(9, 3, 1);
        let out = apply_delete(&m.exec_graph, &plan, "st", "trans", &[ghost], &mut db).unwrap();
        assert!(matches!(out, DeltaOutcome::NeedsRefresh(_)), "{out:?}");
        assert_eq!((db.rows("st"), db.epoch("st")), (rows.as_slice(), epoch));

        // Shrink group 1 and empty group 2 in one delete.
        db.remove_rows("trans", &[a.clone(), c.clone()]);
        let out = apply_delete(&m.exec_graph, &plan, "st", "trans", &[a, c], &mut db).unwrap();
        assert_eq!(out, DeltaOutcome::Applied);
        assert_eq!(
            db.rows("st"),
            &[vec![Value::Int(1), Value::Int(1), Value::Int(7)]]
        );
        check_equivalence(&m.exec_graph, "st", &db).unwrap();

        // An append merging into group 1 and opening groups 2 and 4.
        let new = vec![trans_row(4, 1, 1), trans_row(5, 4, 2), trans_row(6, 2, 3)];
        db.insert(&cat, "trans", new.clone()).unwrap();
        let out = apply_append(&m.exec_graph, &plan, "st", "trans", &new, &mut db).unwrap();
        assert_eq!(out, DeltaOutcome::Applied);
        assert_eq!(
            db.rows("st")[0],
            vec![Value::Int(1), Value::Int(2), Value::Int(8)]
        );
        assert_eq!(db.row_count("st"), 3);
        check_equivalence(&m.exec_graph, "st", &db).unwrap();
    }

    #[test]
    fn verify_rejects_drifted_plans() {
        let cat = Catalog::credit_card_sample();
        let g = graph_of("select faid, count(*) as c from trans group by faid", &cat);
        let m = analyze_ast(&g, &cat);
        let mut plan = m.plan_for("trans").unwrap();
        plan.ops.push(ColumnOp::Key);
        assert!(verify_maintenance(&m.exec_graph, &plan, &cat).is_err());
        let mut plan2 = m.plan_for("trans").unwrap();
        plan2.counter = None;
        assert!(verify_maintenance(&m.exec_graph, &plan2, &cat).is_err());
    }
}
