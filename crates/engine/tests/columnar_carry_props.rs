//! Randomized test of the carried columnar view: row-level mutations edit
//! the cached [`ColumnarTable`] in place instead of rebuilding it, and after
//! every step the view must read exactly what a fresh
//! [`ColumnarTable::from_rows`] over the stored rows reads — cell by cell,
//! `Value` variant by variant, in row order. A view handed out before a
//! write must keep reading the pre-write contents.
//!
//! Driven by the workspace's deterministic in-tree PRNG (seeded loops, no
//! proptest harness); a failure names its seed and step.

// Tests assert on fixed inputs; unwrap/expect failures are test failures.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use std::collections::HashSet;
use std::sync::Arc;
use sumtab_catalog::{Catalog, Column, Date, SqlType, Table, Value};
use sumtab_datagen::SplitMix64;
use sumtab_engine::db::{ColSlice, ColumnarTable, Row, TableData, TableEpochs};
use sumtab_engine::Database;

const TABLES: [&str; 2] = ["t", "u"];

/// `t` has NULLable columns of every type (a NULL date or bool is the
/// rebuild fallback); `u` is NOT NULL throughout, so its `Date`/`Bool`
/// columns stay typed and are always carried.
fn catalog() -> Catalog {
    let mut cat = Catalog::new();
    cat.add_table(Table::new(
        "t",
        vec![
            Column::new("id", SqlType::Int),
            Column::nullable("n", SqlType::Int),
            Column::nullable("x", SqlType::Double),
            Column::nullable("s", SqlType::Varchar),
            Column::nullable("d", SqlType::Date),
            Column::nullable("b", SqlType::Bool),
        ],
    ))
    .unwrap();
    cat.add_table(Table::new(
        "u",
        vec![
            Column::new("id", SqlType::Int),
            Column::new("s", SqlType::Varchar),
            Column::new("d", SqlType::Date),
            Column::new("b", SqlType::Bool),
            Column::new("x", SqlType::Double),
        ],
    ))
    .unwrap();
    cat
}

struct Gen {
    r: SplitMix64,
    /// Counter behind never-seen-before dictionary strings.
    fresh: u64,
}

impl Gen {
    fn null_or(&mut self, nullable: bool, p_null: f64, v: impl FnOnce(&mut Gen) -> Value) -> Value {
        if nullable && self.r.gen_bool(p_null) {
            Value::Null
        } else {
            v(self)
        }
    }

    fn string(&mut self) -> Value {
        if self.r.gen_bool(0.2) {
            self.fresh += 1;
            Value::Str(format!("new{}", self.fresh))
        } else {
            Value::from(*self.r.choose(&["ca", "ny", "tx", "wa", "", "o'hare"]))
        }
    }

    fn date(&mut self) -> Value {
        Value::Date(Date::from_day_number(self.r.gen_i64(9000, 9400)).unwrap())
    }

    /// One schema-conforming row of `table`. `t` draws NULLs with
    /// probability `p_null` (dates and bools at a tenth of it, so their
    /// columns are often typed).
    fn row(&mut self, table: &str, p_null: f64) -> Row {
        let id = Value::Int(self.r.gen_i64(0, 50));
        let nullable = table == "t";
        let s = self.null_or(nullable, p_null, Gen::string);
        let d = self.null_or(nullable, p_null / 10.0, Gen::date);
        let b = self.null_or(nullable, p_null / 10.0, |g| Value::Bool(g.r.gen_bool(0.5)));
        let x = self.null_or(nullable, p_null, |g| {
            Value::Double(*g.r.choose(&[0.5, -0.0, 0.0, 1e300, -7.25]))
        });
        if table == "t" {
            let n = self.null_or(true, p_null, |g| Value::Int(g.r.gen_i64(-3, 3)));
            vec![id, n, x, s, d, b]
        } else {
            vec![id, s, d, b, x]
        }
    }

    /// `lo..=hi` fresh rows, with copies of earlier ones mixed in so the
    /// table holds duplicates.
    fn rows(&mut self, table: &str, lo: i64, hi: i64) -> Vec<Row> {
        let p_null = *self.r.choose(&[0.0, 0.1, 0.5, 1.0]);
        let n = self.r.gen_i64(lo, hi) as usize;
        let mut out: Vec<Row> = Vec::with_capacity(n);
        for _ in 0..n {
            if !out.is_empty() && self.r.gen_bool(0.2) {
                let copy = out[self.r.gen_index(out.len())].clone();
                out.push(copy);
            } else {
                out.push(self.row(table, p_null));
            }
        }
        out
    }

    /// Victims: a random sub-multiset of the stored rows (each drawn at
    /// most as often as it is stored), sometimes with rows that are not
    /// stored at all and a duplicate that may or may not have a second copy.
    fn victims(&mut self, stored: &[Row], table: &str) -> Vec<Row> {
        let max = if self.r.gen_bool(0.15) {
            stored.len()
        } else {
            12
        };
        let mut v: Vec<Row> = self
            .r
            .subsequence(stored.len(), 0, max)
            .into_iter()
            .map(|i| stored[i].clone())
            .collect();
        if self.r.gen_bool(0.3) {
            v.push(self.row(table, 0.3));
        }
        if !v.is_empty() && self.r.gen_bool(0.3) {
            let dup = v[self.r.gen_index(v.len())].clone();
            v.push(dup);
        }
        // Order must not matter: interleave instead of table order.
        for i in (1..v.len()).rev() {
            let j = self.r.gen_index(i + 1);
            v.swap(i, j);
        }
        v
    }
}

/// The model of multiset removal: each victim, in turn, takes the first
/// stored copy still left. Returns the survivors and how many went.
fn remove_each(stored: &[Row], victims: &[Row]) -> (Vec<Row>, usize) {
    let mut left = stored.to_vec();
    let mut n = 0;
    for v in victims {
        if let Some(p) = left.iter().position(|r| r == v) {
            left.remove(p);
            n += 1;
        }
    }
    (left, n)
}

/// Same value *and* same variant (`Int(1) == Double(1.0)` as values).
fn same(a: &Value, b: &Value) -> bool {
    a == b && std::mem::discriminant(a) == std::mem::discriminant(b)
}

/// `view` reads exactly `rows`, and agrees with a fresh rebuild.
fn assert_reads(view: &ColumnarTable, rows: &[Row], ctx: &str) {
    let fresh = ColumnarTable::from_rows(rows);
    assert_eq!(view.len(), rows.len(), "{ctx}: row count");
    assert_eq!(fresh.len(), rows.len(), "{ctx}: rebuilt row count");
    if let Some(first) = rows.first() {
        assert_eq!(view.width(), first.len(), "{ctx}: width");
    }
    for (c, col) in view.columns().iter().enumerate() {
        match col.slice() {
            // Aggregation groups strings by dictionary code: a string may
            // own at most one code.
            ColSlice::Str { dict, .. } => {
                let distinct: HashSet<&String> = dict.iter().collect();
                assert_eq!(
                    distinct.len(),
                    dict.len(),
                    "{ctx}: column {c} dictionary repeats"
                );
            }
            // Typed dates and bools have no NULL placeholder: a column with
            // NULLs must be stored mixed.
            ColSlice::Date(_) | ColSlice::Bool(_) => {
                assert!(
                    col.null_words().is_none(),
                    "{ctx}: NULLs in typed column {c}"
                );
            }
            _ => {}
        }
    }
    for (i, row) in rows.iter().enumerate() {
        for (c, want) in row.iter().enumerate() {
            let got = view.columns()[c].value(i);
            let rebuilt = fresh.columns()[c].value(i);
            assert!(
                same(&got, want) && same(&got, &rebuilt),
                "{ctx}: cell ({i},{c}) reads {got:?}, stored {want:?}, rebuilt {rebuilt:?}"
            );
        }
    }
}

fn run_seed(seed: u64, steps: usize) {
    let cat = catalog();
    let mut g = Gen {
        r: SplitMix64::new(seed),
        fresh: 0,
    };
    let mut db = Database::new();
    let mut saved: Option<(TableData, TableEpochs)> = None;
    for step in 0..steps {
        let table = *g.r.choose(&TABLES);
        let ctx = format!("seed {seed} step {step} table {table}");
        // Most steps hold the view across the write, which forces the
        // copy-on-write path; the rest edit it in place.
        let held = g.r.gen_bool(0.5);
        let before: Option<(Arc<ColumnarTable>, Vec<Row>)> =
            held.then(|| (db.columnar(table), db.rows(table).to_vec()));
        if !held {
            // Warm the cache so the write has a view to carry.
            drop(db.columnar(table));
        }
        let epoch = db.epoch(table);
        let op = g.r.gen_index(100);
        let what = match op {
            0..=29 => {
                let rows = if g.r.gen_bool(0.05) {
                    g.rows(table, 1000, 3000)
                } else {
                    g.rows(table, 0, 6)
                };
                db.insert(&cat, table, rows).unwrap();
                assert_eq!(db.epoch(table), epoch + 1, "{ctx}: insert bumps");
                "insert"
            }
            30..=54 => {
                let victims = g.victims(db.rows(table), table);
                let (want, n) = remove_each(db.rows(table), &victims);
                let removed = db.remove_rows(table, &victims);
                assert_eq!((db.rows(table), removed), (want.as_slice(), n), "{ctx}");
                let bumps = u64::from(removed > 0);
                assert_eq!(
                    db.epoch(table),
                    epoch + bumps,
                    "{ctx}: remove bumps iff removed"
                );
                "remove_rows"
            }
            55..=74 => {
                let victims = g.victims(db.rows(table), table);
                let new = g.rows(table, 0, 4);
                let (mut want, n) = remove_each(db.rows(table), &victims);
                want.extend(new.iter().cloned());
                let removed = db.replace_rows(&cat, table, &victims, new).unwrap();
                assert_eq!((db.rows(table), removed), (want.as_slice(), n), "{ctx}");
                assert_eq!(db.epoch(table), epoch + 1, "{ctx}: replace bumps once");
                "replace_rows"
            }
            75..=81 => {
                let rows = g.rows(table, 0, 20);
                db.put_table(table, rows);
                "put_table"
            }
            82..=85 => {
                db.drop_table(table);
                "drop_table"
            }
            86..=91 => {
                db.bump_epoch(table);
                "bump_epoch"
            }
            _ => {
                match saved.take() {
                    Some((data, epochs)) if g.r.gen_bool(0.5) => db.restore_state(data, epochs),
                    _ => saved = Some(db.export_state()),
                }
                "restore_state"
            }
        };
        let ctx = format!("{ctx} after {what}");
        for t in TABLES {
            assert_reads(&db.columnar(t), db.rows(t), &format!("{ctx}, reading {t}"));
        }
        if let Some((view, rows)) = before {
            assert_reads(&view, &rows, &format!("{ctx}, view held across the write"));
        }
    }
}

#[test]
fn carried_view_matches_a_rebuild_after_every_mutation() {
    for seed in 0..24 {
        run_seed(seed, 80);
    }
}

#[test]
fn bulk_delete_of_thousands_of_victims_is_exact() {
    let cat = catalog();
    let mut g = Gen {
        r: SplitMix64::new(7),
        fresh: 0,
    };
    let mut db = Database::new();
    let rows = g.rows("t", 6000, 6000);
    db.insert(&cat, "t", rows).unwrap();
    let view_before = db.columnar("t");
    let stored = db.rows("t").to_vec();
    // Every other stored row, plus a copy of one of them (the duplicate
    // removes a second stored copy only if one exists).
    let mut victims: Vec<Row> = stored.iter().step_by(2).cloned().collect();
    victims.push(victims[17].clone());
    victims.reverse();
    let removed = db.remove_rows("t", &victims);
    let mut expected = stored.clone();
    let mut left = 0;
    for v in &victims {
        if let Some(p) = expected.iter().position(|r| r == v) {
            expected.remove(p);
        } else {
            left += 1;
        }
    }
    assert_eq!(removed, victims.len() - left);
    // Survivors keep their order; each victim took the earliest copy.
    assert_eq!(db.rows("t"), expected.as_slice());
    assert_reads(&db.columnar("t"), db.rows("t"), "after bulk delete");
    assert_reads(&view_before, &stored, "view held across bulk delete");
}
