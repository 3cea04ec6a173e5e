//! In-memory table storage: row store plus a cached columnar view.
//!
//! Rows remain the source of truth (`rows()` is still a zero-cost slice
//! borrow), but scans in the columnar executor read a [`ColumnarTable`]:
//! typed per-column vectors with a null bitmap and dictionary-encoded
//! strings. A view is built on first use and cached against the table's
//! *modification epoch*. Row-level mutations carry it from one epoch to the
//! next instead of dropping it: [`Database::insert`] appends to it,
//! [`Database::remove_rows`] applies the same keep-mask to it as to the
//! rows, and [`Database::replace_rows`] does both. Edits are copy-on-write,
//! so an executor still holding the previous `Arc` keeps reading the
//! previous contents. A value that does not fit a column's typed layout
//! (a NULL into a `Date`/`Bool` column, a type that would make the column
//! mixed) and wholesale replacement ([`Database::put_table`]) drop the view;
//! the next scan rebuilds it.

use crate::program::Cell;
use std::collections::{HashMap, HashSet};
use std::sync::{Arc, Mutex, PoisonError};
use sumtab_catalog::{Catalog, CatalogError, Date, SqlType, Value};

/// A row of values.
pub type Row = Vec<Value>;

/// Typed storage of one column.
#[derive(Debug, Clone)]
enum ColData {
    Int(Vec<i64>),
    Double(Vec<f64>),
    Bool(Vec<bool>),
    Date(Vec<Date>),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`. Each
    /// string appears in `dict` at most once (aggregation groups strings by
    /// code); entries whose rows were removed may linger.
    Str {
        codes: Vec<u32>,
        dict: Vec<String>,
        /// String → code, built on the first append and kept up to date.
        lookup: Option<HashMap<String, u32>>,
    },
    /// Fallback for mixed-type or all-NULL columns.
    Mixed(Vec<Value>),
}

/// One column: typed data plus an optional null bitmap (absent when the
/// column has no NULLs; NULL positions hold an arbitrary placeholder in
/// the typed vector).
#[derive(Debug, Clone)]
pub struct ColumnVec {
    data: ColData,
    nulls: Option<Vec<u64>>,
}

/// A borrowed, typed view of a column's storage — the raw material for
/// vectorized scan kernels. NULL positions (see
/// [`ColumnVec::null_words`]) hold placeholder values in the typed
/// variants.
#[derive(Clone, Copy)]
pub enum ColSlice<'a> {
    /// 64-bit integers.
    Int(&'a [i64]),
    /// 64-bit floats.
    Double(&'a [f64]),
    /// Booleans.
    Bool(&'a [bool]),
    /// Calendar dates.
    Date(&'a [Date]),
    /// Dictionary-encoded strings: `codes[i]` indexes into `dict`.
    Str {
        /// Per-row dictionary codes.
        codes: &'a [u32],
        /// The deduplicated string dictionary.
        dict: &'a [String],
    },
    /// Mixed-type or all-NULL fallback.
    Mixed(&'a [Value]),
}

/// Test bit `i` of an optional null bitmap (64 rows per word, bit set =
/// NULL) — the shared probe for vectorized predicate kernels and group-key
/// encoders working off [`ColumnVec::null_words`] slices.
#[inline]
pub(crate) fn null_bit(nulls: Option<&[u64]>, i: usize) -> bool {
    match nulls {
        Some(words) => words[i / 64] & (1 << (i % 64)) != 0,
        None => false,
    }
}

impl ColumnVec {
    /// Is row `i` NULL?
    #[inline]
    pub fn is_null(&self, i: usize) -> bool {
        null_bit(self.nulls.as_deref(), i)
    }

    /// Borrowing view of row `i`.
    #[inline]
    pub fn cell(&self, i: usize) -> Cell<'_> {
        if self.is_null(i) {
            return Cell::Null;
        }
        match &self.data {
            ColData::Int(v) => Cell::Int(v[i]),
            ColData::Double(v) => Cell::Double(v[i]),
            ColData::Bool(v) => Cell::Bool(v[i]),
            ColData::Date(v) => Cell::Date(v[i]),
            ColData::Str { codes, dict, .. } => Cell::Str(dict[codes[i] as usize].as_str()),
            ColData::Mixed(v) => Cell::of(&v[i]),
        }
    }

    /// Owned value of row `i`.
    pub fn value(&self, i: usize) -> Value {
        self.cell(i).into_value()
    }

    /// The typed storage view, for vectorized kernels.
    pub fn slice(&self) -> ColSlice<'_> {
        match &self.data {
            ColData::Int(v) => ColSlice::Int(v),
            ColData::Double(v) => ColSlice::Double(v),
            ColData::Bool(v) => ColSlice::Bool(v),
            ColData::Date(v) => ColSlice::Date(v),
            ColData::Str { codes, dict, .. } => ColSlice::Str { codes, dict },
            ColData::Mixed(v) => ColSlice::Mixed(v),
        }
    }

    /// The null bitmap (64 rows per word, bit set = NULL), or `None` when
    /// the column has no NULLs.
    pub fn null_words(&self) -> Option<&[u64]> {
        self.nulls.as_deref()
    }

    /// Append `v` as row `i` (the current length). Returns false when `v`
    /// does not fit the typed layout — where [`ColumnarTable::from_rows`]
    /// would pick another representation — leaving the column unusable.
    fn push(&mut self, i: usize, v: &Value) -> bool {
        let null = v.is_null();
        let fits = match (&mut self.data, v) {
            (ColData::Int(d), Value::Int(x)) => {
                d.push(*x);
                true
            }
            (ColData::Int(d), Value::Null) => {
                d.push(0);
                true
            }
            (ColData::Double(d), Value::Double(x)) => {
                d.push(*x);
                true
            }
            (ColData::Double(d), Value::Null) => {
                d.push(0.0);
                true
            }
            (ColData::Bool(d), Value::Bool(b)) => {
                d.push(*b);
                true
            }
            (ColData::Date(d), Value::Date(x)) => {
                d.push(*x);
                true
            }
            (ColData::Str { codes, .. }, Value::Null) => {
                codes.push(0);
                true
            }
            (
                ColData::Str {
                    codes,
                    dict,
                    lookup,
                },
                Value::Str(s),
            ) => {
                let lookup = lookup.get_or_insert_with(|| {
                    dict.iter()
                        .enumerate()
                        .map(|(k, s)| (s.clone(), k as u32))
                        .collect()
                });
                let code = match lookup.get(s.as_str()) {
                    Some(&k) => Some(k),
                    // Bound the strings removed rows left behind: past
                    // this size a rebuild compacts the dictionary.
                    None if dict.len() > 2 * i + 64 => None,
                    None => {
                        let k = dict.len() as u32;
                        dict.push(s.clone());
                        lookup.insert(s.clone(), k);
                        Some(k)
                    }
                };
                code.map(|k| codes.push(k)).is_some()
            }
            // A NULL keeps a mixed or all-NULL column what it is; a value
            // might make it typed, which only a rebuild can decide.
            (ColData::Mixed(d), Value::Null) => {
                d.push(Value::Null);
                true
            }
            _ => false,
        };
        let words = (i + 1).div_ceil(64);
        if null && !matches!(self.data, ColData::Mixed(_)) {
            let bits = self.nulls.get_or_insert_with(Vec::new);
            bits.resize(words, 0);
            bits[i / 64] |= 1 << (i % 64);
        } else if let Some(bits) = &mut self.nulls {
            bits.resize(words, 0);
        }
        fits
    }

    /// Keep exactly the rows whose `keep` entry is true, in order.
    fn retain(&mut self, keep: &[bool]) {
        match &mut self.data {
            ColData::Int(d) => retain_mask(d, keep),
            ColData::Double(d) => retain_mask(d, keep),
            ColData::Bool(d) => retain_mask(d, keep),
            ColData::Date(d) => retain_mask(d, keep),
            ColData::Str { codes, .. } => retain_mask(codes, keep),
            ColData::Mixed(d) => retain_mask(d, keep),
        }
        let Some(old) = self.nulls.take() else {
            return;
        };
        let kept = keep.iter().filter(|&&k| k).count();
        let mut bits = vec![0u64; kept.div_ceil(64)];
        let mut j = 0;
        for (i, &k) in keep.iter().enumerate() {
            if k {
                if null_bit(Some(&old), i) {
                    bits[j / 64] |= 1 << (j % 64);
                }
                j += 1;
            }
        }
        if bits.iter().any(|&w| w != 0) {
            self.nulls = Some(bits);
        }
    }
}

/// Keep the elements of `v` whose `keep` entry is true (`keep` is as long
/// as `v`).
fn retain_mask<T>(v: &mut Vec<T>, keep: &[bool]) {
    // `retain` visits every element exactly once, in order.
    let mut keep = keep.iter();
    v.retain(|_| keep.next().copied().unwrap_or(true));
}

/// A columnar view of one table, built from the row store and carried
/// across row-level mutations (see the module docs).
#[derive(Debug, Clone)]
pub struct ColumnarTable {
    cols: Vec<ColumnVec>,
    len: usize,
}

impl ColumnarTable {
    /// Transpose a row slice into typed columns.
    pub fn from_rows(rows: &[Row]) -> ColumnarTable {
        let width = rows.first().map(Vec::len).unwrap_or(0);
        let cols = (0..width).map(|c| build_column(rows, c)).collect();
        ColumnarTable {
            cols,
            len: rows.len(),
        }
    }

    /// Row count.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when the table has no rows.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Column count.
    pub fn width(&self) -> usize {
        self.cols.len()
    }

    /// The columns.
    pub fn columns(&self) -> &[ColumnVec] {
        &self.cols
    }

    /// Borrowing view of cell `(row, col)`.
    #[inline]
    pub fn cell(&self, row: usize, col: usize) -> Cell<'_> {
        self.cols[col].cell(row)
    }

    /// Append all of row `row`'s values to `out` (reconstructs the exact
    /// `Value` variants of the source rows).
    pub fn append_row(&self, row: usize, out: &mut Row) {
        out.reserve(self.cols.len());
        for c in &self.cols {
            out.push(c.value(row));
        }
    }

    /// Append `rows` in place. Returns false when a row does not fit the
    /// typed layout; the table is then partially extended and must be
    /// discarded.
    fn append(&mut self, rows: &[Row]) -> bool {
        if self.len == 0 && self.cols.is_empty() {
            // A view of an empty table has no columns to extend.
            *self = ColumnarTable::from_rows(rows);
            return true;
        }
        for row in rows {
            if row.len() != self.cols.len() {
                return false;
            }
            for (c, v) in self.cols.iter_mut().zip(row) {
                if !c.push(self.len, v) {
                    return false;
                }
            }
            self.len += 1;
        }
        true
    }

    /// Keep exactly the rows whose `keep` entry is true, in order.
    fn retain(&mut self, keep: &[bool]) {
        for c in &mut self.cols {
            c.retain(keep);
        }
        self.len = keep.iter().filter(|&&k| k).count();
    }
}

/// Pick the typed representation of column `c` and fill it.
fn build_column(rows: &[Row], c: usize) -> ColumnVec {
    let mut nulls: Option<Vec<u64>> = None;
    let mut ty: Option<SqlType> = None;
    let mut mixed = false;
    for row in rows {
        match row[c].sql_type() {
            None => {}
            Some(t) => match ty {
                None => ty = Some(t),
                Some(prev) if prev == t => {}
                Some(_) => {
                    mixed = true;
                    break;
                }
            },
        }
    }
    let set_null = |nulls: &mut Option<Vec<u64>>, i: usize| {
        let words = nulls.get_or_insert_with(|| vec![0u64; rows.len().div_ceil(64)]);
        words[i / 64] |= 1 << (i % 64);
    };
    // Date and Bool have no cheap NULL placeholder; all-NULL and mixed
    // columns have no single type — all fall back to Mixed.
    let data = match ty {
        _ if mixed => ColData::Mixed(rows.iter().map(|r| r[c].clone()).collect()),
        None => ColData::Mixed(rows.iter().map(|r| r[c].clone()).collect()),
        Some(SqlType::Int) => {
            let mut v = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                match row[c] {
                    Value::Int(x) => v.push(x),
                    _ => {
                        set_null(&mut nulls, i);
                        v.push(0);
                    }
                }
            }
            ColData::Int(v)
        }
        Some(SqlType::Double) => {
            let mut v = Vec::with_capacity(rows.len());
            for (i, row) in rows.iter().enumerate() {
                match row[c] {
                    Value::Double(x) => v.push(x),
                    _ => {
                        set_null(&mut nulls, i);
                        v.push(0.0);
                    }
                }
            }
            ColData::Double(v)
        }
        Some(SqlType::Varchar) => {
            let mut codes = Vec::with_capacity(rows.len());
            let mut dict: Vec<String> = Vec::new();
            let mut seen: HashMap<String, u32> = HashMap::new();
            for (i, row) in rows.iter().enumerate() {
                match &row[c] {
                    Value::Str(s) => {
                        let code = match seen.get(s.as_str()) {
                            Some(&k) => k,
                            None => {
                                let k = dict.len() as u32;
                                dict.push(s.clone());
                                seen.insert(s.clone(), k);
                                k
                            }
                        };
                        codes.push(code);
                    }
                    _ => {
                        set_null(&mut nulls, i);
                        codes.push(0);
                    }
                }
            }
            ColData::Str {
                codes,
                dict,
                lookup: None,
            }
        }
        Some(SqlType::Date) | Some(SqlType::Bool) if nulls_present(rows, c) => {
            ColData::Mixed(rows.iter().map(|r| r[c].clone()).collect())
        }
        Some(SqlType::Date) => {
            let mut v = Vec::with_capacity(rows.len());
            for row in rows {
                if let Value::Date(d) = row[c] {
                    v.push(d);
                }
            }
            ColData::Date(v)
        }
        Some(SqlType::Bool) => {
            let mut v = Vec::with_capacity(rows.len());
            for row in rows {
                if let Value::Bool(b) = row[c] {
                    v.push(b);
                }
            }
            ColData::Bool(v)
        }
    };
    ColumnVec { data, nulls }
}

/// Does column `c` contain any NULL?
fn nulls_present(rows: &[Row], c: usize) -> bool {
    rows.iter().any(|r| r[c].is_null())
}

/// In-memory storage: table name → rows. Schemas live in the
/// [`Catalog`]; the database holds only data.
///
/// Every mutation bumps the table's *modification epoch*, a per-table
/// counter starting at 0. Consumers snapshot epochs to detect staleness: a
/// summary table materialized at epoch `e` of its base table is stale once
/// [`Database::epoch`] for that table returns anything other than `e`.
#[derive(Default)]
pub struct Database {
    tables: HashMap<String, Vec<Row>>,
    epochs: HashMap<String, u64>,
    /// Lazy columnar views keyed by table, validated by epoch.
    columnar: Mutex<HashMap<String, (u64, Arc<ColumnarTable>)>>,
}

impl Clone for Database {
    fn clone(&self) -> Database {
        Database {
            tables: self.tables.clone(),
            epochs: self.epochs.clone(),
            // Columnar views are rebuilt on demand in the clone.
            columnar: Mutex::new(HashMap::new()),
        }
    }
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables)
            .field("epochs", &self.epochs)
            .finish_non_exhaustive()
    }
}

/// Errors raised while loading data.
#[derive(Debug, Clone, PartialEq)]
pub enum DbError {
    /// The table is not declared in the catalog.
    UnknownTable(String),
    /// A row's arity or a value's type does not match the schema.
    SchemaMismatch(String),
    /// Underlying catalog error.
    Catalog(CatalogError),
}

impl std::fmt::Display for DbError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DbError::UnknownTable(t) => write!(f, "unknown table `{t}`"),
            DbError::SchemaMismatch(m) => write!(f, "schema mismatch: {m}"),
            DbError::Catalog(e) => write!(f, "catalog error: {e}"),
        }
    }
}

impl std::error::Error for DbError {}

/// Exported table contents: `(table name, rows)`, sorted by name.
pub type TableData = Vec<(String, Vec<Row>)>;

/// Exported modification epochs: `(table name, epoch)`, sorted by name.
pub type TableEpochs = Vec<(String, u64)>;

impl Database {
    /// An empty database.
    pub fn new() -> Database {
        Database::default()
    }

    /// Validate rows against a table's catalog schema: arity, NULLability,
    /// and types, widening integer values to doubles where the schema
    /// requires it. Shared by [`Database::insert`] and
    /// [`Database::replace_rows`].
    pub fn validate_rows(
        catalog: &Catalog,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<Vec<Row>, DbError> {
        let t = catalog
            .table(table)
            .ok_or_else(|| DbError::UnknownTable(table.into()))?;
        let mut validated = Vec::with_capacity(rows.len());
        for (ri, mut row) in rows.into_iter().enumerate() {
            if row.len() != t.columns.len() {
                return Err(DbError::SchemaMismatch(format!(
                    "row {ri}: expected {} values, got {}",
                    t.columns.len(),
                    row.len()
                )));
            }
            for (ci, v) in row.iter_mut().enumerate() {
                let col = &t.columns[ci];
                match (v.sql_type(), col.ty) {
                    (None, _) => {
                        if !col.nullable {
                            return Err(DbError::SchemaMismatch(format!(
                                "row {ri}: NULL in non-nullable column `{}`",
                                col.name
                            )));
                        }
                    }
                    (Some(SqlType::Int), SqlType::Double) => {
                        if let Value::Int(i) = *v {
                            *v = Value::Double(i as f64);
                        }
                    }
                    (Some(actual), expected) if actual == expected => {}
                    (Some(actual), expected) => {
                        return Err(DbError::SchemaMismatch(format!(
                            "row {ri}, column `{}`: expected {expected}, got {actual}",
                            col.name
                        )));
                    }
                }
            }
            validated.push(row);
        }
        Ok(validated)
    }

    /// Insert rows after validating them against the catalog schema.
    /// Integer values are widened to doubles where the schema requires it.
    pub fn insert(
        &mut self,
        catalog: &Catalog,
        table: &str,
        rows: Vec<Row>,
    ) -> Result<usize, DbError> {
        let t = catalog
            .table(table)
            .ok_or_else(|| DbError::UnknownTable(table.into()))?;
        let validated = Database::validate_rows(catalog, table, rows)?;
        let n = validated.len();
        let key = t.name.clone();
        let epoch = self.epoch(&key);
        let stored = self.tables.entry(key.clone()).or_default();
        let start = stored.len();
        stored.extend(validated);
        let added = &stored[start..];
        carry_view(&mut self.columnar, &key, epoch, |t| t.append(added));
        self.bump(&key);
        Ok(n)
    }

    /// Remove `victims` from a table as a multiset — each victim row
    /// cancels exactly one stored copy. Returns the number of rows actually
    /// removed; the epoch is bumped only when at least one row went away.
    pub fn remove_rows(&mut self, table: &str, victims: &[Row]) -> usize {
        let key = table.to_ascii_lowercase();
        let Some(stored) = self.tables.get_mut(&key) else {
            return 0;
        };
        let Some((keep, removed)) = remove_victims(stored, victims) else {
            return 0;
        };
        let epoch = self.epoch(&key);
        carry_view(&mut self.columnar, &key, epoch, |t| {
            t.retain(&keep);
            true
        });
        self.bump(&key);
        removed
    }

    /// Replace `old` rows (a multiset) with `new` rows in one mutation:
    /// validates the replacements, removes the victims, appends the
    /// validated rows, and bumps the epoch once. Returns the number of rows
    /// removed. Nothing is mutated when validation fails.
    pub fn replace_rows(
        &mut self,
        catalog: &Catalog,
        table: &str,
        old: &[Row],
        new: Vec<Row>,
    ) -> Result<usize, DbError> {
        let t = catalog
            .table(table)
            .ok_or_else(|| DbError::UnknownTable(table.into()))?;
        let validated = Database::validate_rows(catalog, table, new)?;
        let key = t.name.clone();
        let epoch = self.epoch(&key);
        let stored = self.tables.entry(key.clone()).or_default();
        let removal = remove_victims(stored, old);
        let start = stored.len();
        stored.extend(validated);
        let added = &stored[start..];
        carry_view(&mut self.columnar, &key, epoch, |t| {
            if let Some((keep, _)) = &removal {
                t.retain(keep);
            }
            t.append(added)
        });
        self.bump(&key);
        Ok(removal.map_or(0, |(_, removed)| removed))
    }

    /// Replace a table's rows wholesale (no validation; caller guarantees
    /// schema conformance — used by the materializer and generators).
    pub fn put_table(&mut self, table: &str, rows: Vec<Row>) {
        let key = table.to_ascii_lowercase();
        self.tables.insert(key.clone(), rows);
        self.drop_view(&key);
        self.bump(&key);
    }

    /// Edit a table's rows in place, bumping its epoch and dropping its
    /// cached columnar view. No validation, like [`Database::put_table`]:
    /// meant for derived data such as summary-table backing rows.
    pub fn modify_rows(&mut self, table: &str, edit: impl FnOnce(&mut Vec<Row>)) {
        let key = table.to_ascii_lowercase();
        edit(self.tables.entry(key.clone()).or_default());
        self.drop_view(&key);
        self.bump(&key);
    }

    /// The rows of a table; empty slice when absent.
    pub fn rows(&self, table: &str) -> &[Row] {
        self.tables
            .get(&table.to_ascii_lowercase())
            .map(Vec::as_slice)
            .unwrap_or(&[])
    }

    /// Row count of a table.
    pub fn row_count(&self, table: &str) -> usize {
        self.rows(table).len()
    }

    /// Drop a table's data.
    pub fn drop_table(&mut self, table: &str) {
        let key = table.to_ascii_lowercase();
        self.tables.remove(&key);
        self.drop_view(&key);
        self.bump(&key);
    }

    /// The table's modification epoch: 0 for a never-touched table, bumped
    /// by every [`Database::insert`], [`Database::put_table`], and
    /// [`Database::drop_table`].
    pub fn epoch(&self, table: &str) -> u64 {
        self.epochs
            .get(&table.to_ascii_lowercase())
            .copied()
            .unwrap_or(0)
    }

    /// Snapshot the epochs of a set of tables (sorted, deduplicated), for
    /// use as a plan-cache validation key. Never-touched tables snapshot at
    /// 0, matching [`Database::epoch`].
    pub fn epoch_snapshot<'t>(
        &self,
        tables: impl IntoIterator<Item = &'t str>,
    ) -> std::collections::BTreeMap<String, u64> {
        tables
            .into_iter()
            .map(|t| {
                let key = t.to_ascii_lowercase();
                let e = self.epoch(&key);
                (key, e)
            })
            .collect()
    }

    /// The columnar view of a table, built on first use and cached against
    /// the table's epoch (row-level mutations carry it forward; see the
    /// module docs). The `Arc` keeps the view alive across an executor run
    /// even if the table is mutated meanwhile.
    pub fn columnar(&self, table: &str) -> Arc<ColumnarTable> {
        let key = table.to_ascii_lowercase();
        let epoch = self.epoch(&key);
        let mut cache = match self.columnar.lock() {
            Ok(g) => g,
            // A panic while holding the lock cannot corrupt the cache (it
            // is validated by epoch on every lookup) — recover.
            Err(poisoned) => poisoned.into_inner(),
        };
        if let Some((e, t)) = cache.get(&key) {
            if *e == epoch {
                return Arc::clone(t);
            }
        }
        let t = Arc::new(ColumnarTable::from_rows(self.rows(&key)));
        cache.insert(key, (epoch, Arc::clone(&t)));
        t
    }

    fn bump(&mut self, key: &str) {
        *self.epochs.entry(key.to_string()).or_insert(0) += 1;
    }

    /// Forget a table's cached columnar view.
    fn drop_view(&mut self, key: &str) {
        self.columnar
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .remove(key);
    }

    /// Bump a table's modification epoch without touching its data — the
    /// durable-invalidation hook: consumers that snapshotted the old epoch
    /// (summary staleness, cached plans) see the table as modified.
    pub fn bump_epoch(&mut self, table: &str) {
        let key = table.to_ascii_lowercase();
        let epoch = self.epoch(&key);
        carry_view(&mut self.columnar, &key, epoch, |_| true);
        self.bump(&key);
    }

    /// Export the full storage state — every table's rows plus every
    /// modification epoch — sorted by table name for deterministic
    /// serialization. Feed the result to [`Database::restore_state`] to
    /// rebuild an identical database (same data, same epochs).
    pub fn export_state(&self) -> (TableData, TableEpochs) {
        let (data, epochs) = self.borrow_state();
        let data = data
            .into_iter()
            .map(|(k, v)| (k.to_string(), v.to_vec()))
            .collect();
        (data, epochs)
    }

    /// [`Database::export_state`] without copying any rows: every table's
    /// rows borrowed, plus every modification epoch, both sorted by table
    /// name.
    pub fn borrow_state(&self) -> (Vec<(&str, &[Row])>, TableEpochs) {
        let mut data: Vec<(&str, &[Row])> = self
            .tables
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_slice()))
            .collect();
        data.sort_by(|a, b| a.0.cmp(b.0));
        let mut epochs: TableEpochs = self.epochs.iter().map(|(k, &e)| (k.clone(), e)).collect();
        epochs.sort_by(|a, b| a.0.cmp(&b.0));
        (data, epochs)
    }

    /// Replace the whole storage state with a previously exported one.
    /// Unlike [`Database::put_table`], epochs are restored *exactly* — not
    /// bumped — so staleness bookkeeping snapshotted against the exported
    /// state remains valid after recovery.
    pub fn restore_state(&mut self, data: TableData, epochs: TableEpochs) {
        self.tables = data
            .into_iter()
            .map(|(k, v)| (k.to_ascii_lowercase(), v))
            .collect();
        self.epochs = epochs
            .into_iter()
            .map(|(k, e)| (k.to_ascii_lowercase(), e))
            .collect();
        self.columnar
            .get_mut()
            .unwrap_or_else(PoisonError::into_inner)
            .clear();
    }
}

/// The columnar view cache: table → (epoch the view reflects, view).
type ViewCache = Mutex<HashMap<String, (u64, Arc<ColumnarTable>)>>;

/// Carry `key`'s cached view from `epoch` to `epoch + 1` through a mutation
/// (the caller bumps the epoch next). `edit` changes the view in place —
/// copy-on-write when an executor still holds it — and returns false when
/// the change does not fit; a stale or unfitting view is dropped, and the
/// next scan rebuilds it.
fn carry_view(
    cache: &mut ViewCache,
    key: &str,
    epoch: u64,
    edit: impl FnOnce(&mut ColumnarTable) -> bool,
) {
    let cache = cache.get_mut().unwrap_or_else(PoisonError::into_inner);
    let carried = match cache.get_mut(key) {
        Some((e, view)) if *e == epoch => {
            // Claim the next epoch before editing: an edit that panics
            // leaves a view no current epoch matches, so it is rebuilt.
            *e = epoch + 1;
            edit(Arc::make_mut(view))
        }
        _ => false,
    };
    if !carried {
        cache.remove(key);
    }
}

/// Victim sets up to this size are matched by plain row equality; larger
/// ones are bucketed by one key column first.
const LINEAR_VICTIMS: usize = 16;

/// Remove `victims` from `rows` as a multiset — each victim cancels exactly
/// one stored copy, the earliest — in one linear pass that compares rows by
/// value and hashes no stored row whole. Returns the keep-mask that was
/// applied and the number of rows removed, or `None` when nothing matched
/// (and `rows` is untouched).
fn remove_victims(rows: &mut Vec<Row>, victims: &[Row]) -> Option<(Vec<bool>, usize)> {
    if victims.is_empty() {
        return None;
    }
    let mut keep = vec![true; rows.len()];
    let mut removed = 0;
    // Mark row `i` removed; true once every victim is accounted for.
    let mut drop_row = |i: usize| {
        keep[i] = false;
        removed += 1;
        removed == victims.len()
    };
    let bucket_by = if victims.len() > LINEAR_VICTIMS {
        key_column(victims)
    } else {
        None
    };
    match bucket_by {
        Some(c) => {
            // Victims bucketed by their most selective column: a stored row
            // costs one cell hash plus full compares within its bucket.
            let mut buckets: HashMap<&Value, Vec<&Row>> = HashMap::new();
            for v in victims {
                buckets.entry(&v[c]).or_default().push(v);
            }
            for (i, r) in rows.iter().enumerate() {
                let Some(bucket) = r.get(c).and_then(|k| buckets.get_mut(k)) else {
                    continue;
                };
                if let Some(p) = bucket.iter().position(|v| *v == r) {
                    bucket.swap_remove(p);
                    if drop_row(i) {
                        break;
                    }
                }
            }
        }
        None => {
            let mut pending: Vec<&Row> = victims.iter().collect();
            for (i, r) in rows.iter().enumerate() {
                if let Some(p) = pending.iter().position(|v| *v == r) {
                    pending.swap_remove(p);
                    if drop_row(i) {
                        break;
                    }
                }
            }
        }
    }
    if removed == 0 {
        return None;
    }
    retain_mask(rows, &keep);
    Some((keep, removed))
}

/// The column with the most distinct values among `victims` (the earliest
/// on ties); `None` for zero-width victims.
fn key_column(victims: &[Row]) -> Option<usize> {
    let width = victims.iter().map(Vec::len).min()?;
    (0..width).rev().max_by_key(|&c| {
        victims
            .iter()
            .map(|v| &v[c])
            .collect::<HashSet<&Value>>()
            .len()
    })
}

#[cfg(test)]
#[allow(clippy::unwrap_used, clippy::expect_used)] // tests assert on fixed inputs
mod tests {
    use super::*;
    use sumtab_catalog::Date;

    fn cat() -> Catalog {
        Catalog::credit_card_sample()
    }

    #[test]
    fn insert_validates_arity_and_types() {
        let mut db = Database::new();
        let c = cat();
        let row = vec![
            Value::Int(1),
            Value::Int(10),
            Value::Int(20),
            Value::Int(30),
            Value::Date(Date::parse("1995-06-01").unwrap()),
            Value::Int(2),
            Value::Int(100), // Int widened to Double for `price`
            Value::Double(0.1),
        ];
        assert_eq!(db.insert(&c, "trans", vec![row]).unwrap(), 1);
        assert_eq!(db.row_count("trans"), 1);
        assert_eq!(db.rows("TRANS")[0][6], Value::Double(100.0));

        // Arity error.
        assert!(matches!(
            db.insert(&c, "trans", vec![vec![Value::Int(1)]]),
            Err(DbError::SchemaMismatch(_))
        ));
        // Type error.
        let mut bad = db.rows("trans")[0].clone();
        bad[0] = Value::Str("oops".into());
        assert!(matches!(
            db.insert(&c, "trans", vec![bad]),
            Err(DbError::SchemaMismatch(_))
        ));
        // NULL in non-nullable column.
        let mut nullrow = db.rows("trans")[0].clone();
        nullrow[0] = Value::Null;
        assert!(matches!(
            db.insert(&c, "trans", vec![nullrow]),
            Err(DbError::SchemaMismatch(_))
        ));
        // Unknown table.
        assert!(matches!(
            db.insert(&c, "nope", vec![]),
            Err(DbError::UnknownTable(_))
        ));
    }

    #[test]
    fn put_and_drop() {
        let mut db = Database::new();
        db.put_table("X", vec![vec![Value::Int(1)]]);
        assert_eq!(db.row_count("x"), 1);
        db.drop_table("x");
        assert_eq!(db.row_count("x"), 0);
    }

    #[test]
    fn columnar_round_trips_values_exactly() {
        let mut db = Database::new();
        let rows = vec![
            vec![
                Value::Int(1),
                Value::Double(1.5),
                Value::from("tv"),
                Value::Date(Date::parse("1990-01-03").unwrap()),
                Value::Bool(true),
                Value::Null,
            ],
            vec![
                Value::Int(2),
                Value::Null,
                Value::from("tv"),
                Value::Date(Date::parse("1991-02-04").unwrap()),
                Value::Bool(false),
                Value::from("mixed"),
            ],
            vec![
                Value::Null,
                Value::Double(-0.0),
                Value::Null,
                Value::Date(Date::parse("1992-03-05").unwrap()),
                Value::Bool(true),
                Value::Int(7),
            ],
        ];
        db.put_table("t", rows.clone());
        let col = db.columnar("t");
        assert_eq!(col.len(), 3);
        assert_eq!(col.width(), 6);
        for (i, row) in rows.iter().enumerate() {
            for (c, want) in row.iter().enumerate() {
                assert_eq!(&col.columns()[c].value(i), want, "cell ({i},{c})");
                // Variant identity, not just grouping equality.
                assert_eq!(col.columns()[c].value(i).sql_type(), want.sql_type());
            }
            let mut rebuilt = Vec::new();
            col.append_row(i, &mut rebuilt);
            assert_eq!(&rebuilt, row);
        }
        // The dictionary deduplicates: two "tv" cells, one entry.
        match &col.columns()[2].data {
            ColData::Str { dict, .. } => assert_eq!(dict.len(), 1),
            other => panic!("expected Str column, got {other:?}"),
        }
    }

    #[test]
    fn columnar_cache_invalidates_on_epoch_bump() {
        let mut db = Database::new();
        db.put_table("t", vec![vec![Value::Int(1)]]);
        let c1 = db.columnar("t");
        let c2 = db.columnar("T");
        assert!(Arc::ptr_eq(&c1, &c2), "cache hit at unchanged epoch");
        db.put_table("t", vec![vec![Value::Int(1)], vec![Value::Int(2)]]);
        let c3 = db.columnar("t");
        assert_eq!(c3.len(), 2, "mutation rebuilds the columnar view");
        assert!(!Arc::ptr_eq(&c1, &c3));
        // Clones start with a cold columnar cache but identical data.
        let db2 = db.clone();
        assert_eq!(db2.columnar("t").len(), 2);
    }

    fn trans_row(tid: i64, qty: i64) -> Row {
        vec![
            Value::Int(tid),
            Value::Int(10),
            Value::Int(20),
            Value::Int(30),
            Value::Date(Date::parse("1995-06-01").unwrap()),
            Value::Int(qty),
            Value::Double(100.0),
            Value::Double(0.1),
        ]
    }

    /// The cached view of `table`, if one is cached for the current epoch.
    fn cached_view(db: &Database, table: &str) -> Option<Arc<ColumnarTable>> {
        let cache = db.columnar.lock().unwrap();
        match cache.get(table) {
            Some((e, v)) if *e == db.epoch(table) => Some(Arc::clone(v)),
            _ => None,
        }
    }

    #[test]
    fn row_mutations_carry_the_view_in_place() {
        let c = cat();
        let mut db = Database::new();
        db.insert(&c, "trans", vec![trans_row(1, 5), trans_row(2, 6)])
            .unwrap();
        let first = Arc::as_ptr(&db.columnar("trans"));
        db.insert(&c, "trans", vec![trans_row(3, 7)]).unwrap();
        db.remove_rows("trans", &[trans_row(1, 5)]);
        db.replace_rows(&c, "trans", &[trans_row(2, 6)], vec![trans_row(2, 8)])
            .unwrap();
        db.bump_epoch("trans");
        let view = cached_view(&db, "trans").expect("carried to the current epoch");
        assert_eq!(Arc::as_ptr(&view), first, "edited in place, not rebuilt");
        assert_eq!(view.len(), 2);
        assert_eq!(view.columns()[0].value(0), Value::Int(3));
        assert_eq!(view.columns()[5].value(1), Value::Int(8));

        // A held view is copied on write and keeps the old contents.
        db.insert(&c, "trans", vec![trans_row(4, 9)]).unwrap();
        assert_eq!(view.len(), 2);
        assert_eq!(db.columnar("trans").len(), 3);

        // Wholesale replacement drops the view instead of carrying it.
        db.put_table("trans", vec![trans_row(9, 9)]);
        assert!(cached_view(&db, "trans").is_none());
    }

    #[test]
    fn unfitting_values_drop_the_view() {
        let mut db = Database::new();
        let date = Value::Date(Date::parse("1995-06-01").unwrap());
        let mut c = Catalog::new();
        c.add_table(sumtab_catalog::Table::new(
            "t",
            vec![
                sumtab_catalog::Column::new("k", SqlType::Int),
                sumtab_catalog::Column::nullable("d", SqlType::Date),
            ],
        ))
        .unwrap();
        db.insert(&c, "t", vec![vec![Value::Int(1), date.clone()]])
            .unwrap();
        drop(db.columnar("t"));
        db.insert(&c, "t", vec![vec![Value::Int(2), date]]).unwrap();
        assert!(cached_view(&db, "t").is_some(), "a date fits a date column");
        // A NULL date has no typed placeholder: rebuild as a mixed column.
        db.insert(&c, "t", vec![vec![Value::Int(3), Value::Null]])
            .unwrap();
        assert!(cached_view(&db, "t").is_none());
        let view = db.columnar("t");
        assert!(matches!(view.columns()[1].slice(), ColSlice::Mixed(_)));
        assert_eq!(view.columns()[1].value(2), Value::Null);
    }

    #[test]
    fn removal_cancels_one_copy_per_victim() {
        let c = cat();
        let mut db = Database::new();
        let twin = trans_row(1, 5);
        db.insert(
            &c,
            "trans",
            vec![twin.clone(), trans_row(2, 6), twin.clone()],
        )
        .unwrap();
        drop(db.columnar("trans"));
        let e = db.epoch("trans");
        assert_eq!(db.remove_rows("trans", std::slice::from_ref(&twin)), 1);
        assert_eq!(db.rows("trans"), &[trans_row(2, 6), twin.clone()]);
        assert_eq!(db.epoch("trans"), e + 1);
        assert_eq!(db.columnar("trans").len(), 2);

        // Nothing matched: no removal and no epoch bump.
        assert_eq!(db.remove_rows("trans", &[trans_row(7, 7)]), 0);
        assert_eq!(db.remove_rows("trans", &[]), 0);
        assert_eq!(db.remove_rows("absent", std::slice::from_ref(&twin)), 0);
        assert_eq!(db.epoch("trans"), e + 1);
        assert_eq!(db.epoch("absent"), 0);

        // Two victim copies against one stored copy remove just that one.
        let two = [twin.clone(), twin.clone()];
        assert_eq!(db.remove_rows("trans", &two), 1);
        assert_eq!(db.rows("trans"), &[trans_row(2, 6)]);

        // replace_rows: one of two identical rows is replaced.
        db.insert(&c, "trans", vec![twin.clone(), twin.clone()])
            .unwrap();
        let n = db
            .replace_rows(
                &c,
                "trans",
                std::slice::from_ref(&twin),
                vec![trans_row(1, 50)],
            )
            .unwrap();
        assert_eq!(n, 1);
        assert_eq!(
            db.rows("trans"),
            &[trans_row(2, 6), twin.clone(), trans_row(1, 50)]
        );
        let view = db.columnar("trans");
        assert_eq!(view.len(), 3);
        assert_eq!(view.columns()[5].value(2), Value::Int(50));
    }

    #[test]
    fn bulk_victim_sets_match_by_value_with_duplicates() {
        let c = cat();
        let mut db = Database::new();
        // 40 distinct rows, each stored twice, with a shared first column so
        // the bucketing has to pick a better key column.
        let rows: Vec<Row> = (0..80).map(|i| trans_row(1, i % 40)).collect();
        db.insert(&c, "trans", rows).unwrap();
        drop(db.columnar("trans"));
        // Every distinct row once, plus three extra copies of row 0 (only
        // one more stored copy exists) and a row that is not stored.
        let mut victims: Vec<Row> = (0..40).rev().map(|i| trans_row(1, i)).collect();
        victims.extend([trans_row(1, 0), trans_row(1, 0), trans_row(1, 0)]);
        victims.push(trans_row(2, 0));
        assert_eq!(db.remove_rows("trans", &victims), 41);
        let want: Vec<Row> = (41..80).map(|i| trans_row(1, i % 40)).collect();
        assert_eq!(db.rows("trans"), want.as_slice());
        assert_eq!(db.columnar("trans").len(), 39);
    }

    #[test]
    fn export_restore_preserves_data_and_epochs_exactly() {
        let mut db = Database::new();
        db.put_table("b", vec![vec![Value::Int(2)]]);
        db.put_table("a", vec![vec![Value::Int(1)]]);
        db.put_table("a", vec![vec![Value::Int(1)], vec![Value::Int(3)]]);
        db.drop_table("gone");
        let (data, epochs) = db.export_state();
        assert_eq!(
            epochs,
            vec![("a".into(), 2), ("b".into(), 1), ("gone".into(), 1)]
        );
        let mut db2 = Database::new();
        db2.put_table("junk", vec![vec![Value::Null]]);
        db2.restore_state(data, epochs);
        assert_eq!(db2.rows("a"), db.rows("a"));
        assert_eq!(db2.rows("b"), db.rows("b"));
        assert_eq!(db2.row_count("junk"), 0, "restore replaces, not merges");
        assert_eq!(db2.epoch("a"), 2, "epochs restored exactly, not bumped");
        assert_eq!(db2.epoch("gone"), 1, "dropped-table epochs survive");
        // bump_epoch invalidates without data changes.
        db2.bump_epoch("A");
        assert_eq!(db2.epoch("a"), 3);
        assert_eq!(db2.rows("a").len(), 2);
    }

    #[test]
    fn epochs_track_every_mutation() {
        let mut db = Database::new();
        assert_eq!(db.epoch("trans"), 0, "untouched tables sit at epoch 0");
        db.put_table("X", vec![vec![Value::Int(1)]]);
        assert_eq!(db.epoch("x"), 1);
        db.drop_table("x");
        assert_eq!(db.epoch("X"), 2, "epoch lookups are case-insensitive");

        let c = cat();
        let row = vec![
            Value::Int(1),
            Value::Int(10),
            Value::Int(20),
            Value::Int(30),
            Value::Date(Date::parse("1995-06-01").unwrap()),
            Value::Int(2),
            Value::Int(100),
            Value::Double(0.1),
        ];
        db.insert(&c, "trans", vec![row]).unwrap();
        assert_eq!(db.epoch("trans"), 1);
        // A failed insert does not bump the epoch.
        assert!(db.insert(&c, "trans", vec![vec![Value::Int(1)]]).is_err());
        assert_eq!(db.epoch("trans"), 1);
    }
}
