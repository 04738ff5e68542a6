//! Catalog: databases, tables, columns, and the column store that holds
//! a table's rows.
//!
//! A table holds its rows once, column by column, in the layout the
//! vectorized executor scans ([`ColumnStore`]): text and date columns
//! dictionary-encoded, other types typed. Rows exist as `Vec<Value>`s
//! only while a caller reads them.
//!
//! Also implements the paper's schema augmentation (§2.1): "the schema is
//! augmented with possible attribute values. Specifically, we add the top-5
//! most frequent values per attribute" — see [`Table::top_values`] and
//! [`ColumnProfile`].

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

use crate::array::{Array, ArrayBuilder};
use crate::error::{EngineError, EngineResult};
use crate::key::{key_elem, Key, KeyElem};
use crate::value::{DataType, Value, ValueRef};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::Arc;

/// A column definition.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Column {
    pub name: String,
    pub data_type: DataType,
    /// Optional human description (from "data catalogs" in the paper).
    pub description: Option<String>,
}

impl Column {
    pub fn new(name: impl Into<String>, data_type: DataType) -> Column {
        Column {
            name: name.into(),
            data_type,
            description: None,
        }
    }

    pub fn with_description(mut self, desc: impl Into<String>) -> Column {
        self.description = Some(desc.into());
        self
    }
}

/// Frequency profile of one column: the top-k most frequent values, used to
/// augment schema descriptions in prompts.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ColumnProfile {
    pub column: String,
    /// `(value, count)` pairs, most frequent first; ties broken by value
    /// order for determinism.
    pub top_values: Vec<(String, usize)>,
    pub distinct_count: usize,
    pub null_count: usize,
}

/// A table's rows, stored as one [`Array`] per schema column: exactly
/// the arrays [`encoded_columns_from_rows`](crate::array::encoded_columns_from_rows)
/// makes of the same rows, kept up to date by every append. The
/// executor scans `Arc` clones of them; iterating the store by
/// reference materializes each row as an owned `Vec<Value>`.
///
/// Cloning shares the columns; the next append to a shared column
/// copies it first.
#[derive(Debug, Clone)]
pub struct ColumnStore {
    cols: Vec<StoredColumn>,
    len: usize,
}

/// One stored column and, when it is dictionary-encoded, the code of
/// each of its entries by value — what an append looks a value up in.
#[derive(Debug, Clone)]
struct StoredColumn {
    array: Arc<Array>,
    codes: HashMap<KeyElem, u32>,
}

impl StoredColumn {
    fn new() -> StoredColumn {
        StoredColumn {
            array: Arc::new(Array::Any(Vec::new())),
            codes: HashMap::new(),
        }
    }

    /// Append `v` in the layout a transposition of every pushed value
    /// would give the column.
    fn push(&mut self, v: Value) {
        let array = Arc::make_mut(&mut self.array);
        let v = match array {
            Array::Dict { codes, values } => match dictionary_code(&mut self.codes, values, v) {
                Ok(code) => {
                    codes.push(code);
                    return;
                }
                Err(v) => v,
            },
            // NULL keeps an all-NULL column untyped and a mixed one mixed.
            Array::Any(values) if v.is_null() => {
                values.push(v);
                return;
            }
            _ => v,
        };
        // Anything else goes through the builder: a typed append, or a
        // change of layout (a first typed value, a second type).
        let taken = std::mem::replace(array, Array::Any(Vec::new()));
        let mut builder = ArrayBuilder::resume(taken);
        builder.push(v);
        *array = builder.finish().dictionary_encoded();
        self.codes = entry_codes(array);
    }
}

/// The code of `v` in a dictionary column, appending an entry for a
/// value it has not held; `Err(v)` when `v`'s type is not the
/// dictionary's.
fn dictionary_code(
    codes: &mut HashMap<KeyElem, u32>,
    values: &mut Arc<Array>,
    v: Value,
) -> Result<u32, Value> {
    let key = match (&**values, v) {
        (_, Value::Null) => Key::Null,
        (Array::Str { .. }, Value::Text(s)) => Key::Text(s),
        (Array::Date { .. }, Value::Date(d)) => Key::Date(d),
        (_, v) => return Err(v),
    };
    if let Some(&code) = codes.get(&key) {
        return Ok(code);
    }
    let code = values.len() as u32;
    let entry = match &key {
        Key::Text(s) => Value::Text(s.clone()),
        Key::Date(d) => Value::Date(*d),
        _ => Value::Null,
    };
    let values = Arc::make_mut(values);
    let mut builder = ArrayBuilder::resume(std::mem::replace(values, Array::Any(Vec::new())));
    builder.push(entry);
    *values = builder.finish();
    codes.insert(key, code);
    Ok(code)
}

/// Each entry's code, by value, of a dictionary column; empty for every
/// other layout.
fn entry_codes(array: &Array) -> HashMap<KeyElem, u32> {
    match array.as_dict() {
        Some((_, values)) => (0..values.len())
            .map(|k| (key_elem(&values.get(k)), k as u32))
            .collect(),
        None => HashMap::new(),
    }
}

impl ColumnStore {
    /// No rows, `width` columns.
    fn new(width: usize) -> ColumnStore {
        ColumnStore {
            cols: (0..width).map(|_| StoredColumn::new()).collect(),
            len: 0,
        }
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Are there no rows?
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The rows in order, each materialized as an owned `Vec<Value>`.
    pub fn iter(&self) -> RowIter<'_> {
        RowIter {
            store: self,
            next: 0,
        }
    }

    fn push(&mut self, row: Vec<Value>) {
        for (col, v) in self.cols.iter_mut().zip(row) {
            col.push(v);
        }
        self.len += 1;
    }
}

/// Iterator over a [`ColumnStore`]'s rows, materialized one at a time.
#[derive(Debug, Clone)]
pub struct RowIter<'a> {
    store: &'a ColumnStore,
    next: usize,
}

impl Iterator for RowIter<'_> {
    type Item = Vec<Value>;

    fn next(&mut self) -> Option<Vec<Value>> {
        let i = self.next;
        if i == self.store.len {
            return None;
        }
        self.next += 1;
        Some(self.store.cols.iter().map(|c| c.array.get(i)).collect())
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let left = self.store.len - self.next;
        (left, Some(left))
    }
}

impl<'a> IntoIterator for &'a ColumnStore {
    type Item = Vec<Value>;
    type IntoIter = RowIter<'a>;

    fn into_iter(self) -> RowIter<'a> {
        self.iter()
    }
}

/// Serialized as the array of rows.
impl Serialize for ColumnStore {
    fn serialize(&self) -> serde::value::Value {
        serde::value::Value::Array(self.iter().map(|row| row.serialize()).collect())
    }
}

/// A table with schema and row storage.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    /// The rows, appended through [`Table::push_row`].
    pub rows: ColumnStore,
    /// Optional table description.
    pub description: Option<String>,
}

impl Table {
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Table {
        Table {
            name: name.into(),
            rows: ColumnStore::new(columns.len()),
            columns,
            description: None,
        }
    }

    pub fn with_description(mut self, desc: impl Into<String>) -> Table {
        self.description = Some(desc.into());
        self
    }

    /// Index of a column by case-insensitive name.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.columns
            .iter()
            .position(|c| c.name.eq_ignore_ascii_case(name))
    }

    pub fn column_names(&self) -> Vec<String> {
        self.columns.iter().map(|c| c.name.clone()).collect()
    }

    /// Append a row, validating arity (types are dynamic; NULL always fits).
    pub fn push_row(&mut self, row: Vec<Value>) -> EngineResult<()> {
        if row.len() != self.columns.len() {
            return Err(EngineError::execution(format!(
                "row arity {} does not match table {} with {} columns",
                row.len(),
                self.name,
                self.columns.len()
            )));
        }
        self.rows.push(row);
        Ok(())
    }

    /// The stored columns, in schema order, shared by `Arc` clones.
    pub fn columnar(&self) -> Vec<Arc<Array>> {
        self.rows
            .cols
            .iter()
            .map(|c| Arc::clone(&c.array))
            .collect()
    }

    /// The paper's top-k most-frequent-values augmentation for one column.
    pub fn top_values(&self, column: &str, k: usize) -> EngineResult<ColumnProfile> {
        let idx = self.column_index(column).ok_or_else(|| {
            EngineError::binding(format!("no column {column} in table {}", self.name))
        })?;
        Ok(self.profile_of(idx, k))
    }

    /// Profiles for every column (top-5, per the paper).
    pub fn profile(&self) -> Vec<ColumnProfile> {
        (0..self.columns.len())
            .map(|idx| self.profile_of(idx, 5))
            .collect()
    }

    /// Top-`k` profile of column `idx`.
    fn profile_of(&self, idx: usize, k: usize) -> ColumnProfile {
        let col = &self.rows.cols[idx].array;
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut null_count = 0usize;
        for i in 0..col.len() {
            match col.at(i) {
                ValueRef::Null => null_count += 1,
                v => *counts.entry(v.to_string()).or_insert(0) += 1,
            }
        }
        let distinct_count = counts.len();
        let mut pairs: Vec<(String, usize)> = counts.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs.truncate(k);
        ColumnProfile {
            column: self.columns[idx].name.clone(),
            top_values: pairs,
            distinct_count,
            null_count,
        }
    }
}

// Hand-written: the rows serialize as the array of rows, and
// deserialize through `push_row`, arity check included.
impl Serialize for Table {
    fn serialize(&self) -> serde::value::Value {
        serde::value::Value::Object(vec![
            ("name".to_string(), Serialize::serialize(&self.name)),
            ("columns".to_string(), Serialize::serialize(&self.columns)),
            ("rows".to_string(), Serialize::serialize(&self.rows)),
            (
                "description".to_string(),
                Serialize::serialize(&self.description),
            ),
        ])
    }
}

impl Deserialize for Table {
    fn deserialize(value: &serde::value::Value) -> Result<Table, serde::Error> {
        let pairs = value
            .as_object()
            .ok_or_else(|| serde::Error::expected("object", value))?;
        let name: String = serde::field(pairs, "name")?;
        let columns: Vec<Column> = serde::field(pairs, "columns")?;
        let rows: Vec<Vec<Value>> = serde::field(pairs, "rows")?;
        let description = serde::field(pairs, "description")?;
        let mut table = Table::new(name, columns);
        table.description = description;
        for row in rows {
            table
                .push_row(row)
                .map_err(|e| serde::Error::custom(e.to_string()))?;
        }
        Ok(table)
    }
}

/// A database: a set of named tables.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Database {
    pub name: String,
    tables: Vec<Table>,
}

impl Database {
    pub fn new(name: impl Into<String>) -> Database {
        Database {
            name: name.into(),
            tables: Vec::new(),
        }
    }

    pub fn add_table(&mut self, table: Table) -> EngineResult<()> {
        if self.table(&table.name).is_some() {
            return Err(EngineError::execution(format!(
                "table {} already exists in database {}",
                table.name, self.name
            )));
        }
        self.tables.push(table);
        Ok(())
    }

    /// Look up a table by case-insensitive name.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables
            .iter()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    pub fn table_mut(&mut self, name: &str) -> Option<&mut Table> {
        self.tables
            .iter_mut()
            .find(|t| t.name.eq_ignore_ascii_case(name))
    }

    pub fn tables(&self) -> &[Table] {
        &self.tables
    }

    pub fn table_names(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.name.clone()).collect()
    }

    /// Render a compact schema description (one line per column) as used in
    /// generation prompts, including the top-5 value augmentation.
    pub fn describe(&self) -> String {
        let mut out = String::new();
        for t in &self.tables {
            out.push_str(&format!("TABLE {} (\n", t.name));
            let profiles = t.profile();
            for (col, prof) in t.columns.iter().zip(profiles.iter()) {
                let vals: Vec<String> = prof.top_values.iter().map(|(v, _)| v.clone()).collect();
                out.push_str(&format!("  {} {}", col.name, col.data_type));
                if let Some(d) = &col.description {
                    out.push_str(&format!(" -- {d}"));
                }
                if !vals.is_empty() {
                    out.push_str(&format!(" [top: {}]", vals.join(", ")));
                }
                out.push('\n');
            }
            out.push_str(")\n");
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_table() -> Table {
        let mut t = Table::new(
            "ORGS",
            vec![
                Column::new("NAME", DataType::Text),
                Column::new("COUNTRY", DataType::Text),
                Column::new("REVENUE", DataType::Integer),
            ],
        );
        for (n, c, r) in [
            ("a", "Canada", 10),
            ("b", "Canada", 20),
            ("c", "USA", 30),
            ("d", "Canada", 40),
            ("e", "Mexico", 50),
        ] {
            t.push_row(vec![n.into(), c.into(), Value::Integer(r)])
                .unwrap();
        }
        t
    }

    #[test]
    fn arity_checked() {
        let mut t = sample_table();
        assert!(t.push_row(vec![Value::Integer(1)]).is_err());
    }

    #[test]
    fn column_lookup_case_insensitive() {
        let t = sample_table();
        assert_eq!(t.column_index("country"), Some(1));
        assert_eq!(t.column_index("COUNTRY"), Some(1));
        assert_eq!(t.column_index("nope"), None);
    }

    #[test]
    fn top_values_ordering_and_ties() {
        let t = sample_table();
        let p = t.top_values("COUNTRY", 2).unwrap();
        assert_eq!(p.top_values[0], ("Canada".to_string(), 3));
        // Mexico vs USA tie at 1 → lexicographic.
        assert_eq!(p.top_values[1], ("Mexico".to_string(), 1));
        assert_eq!(p.distinct_count, 3);
        assert_eq!(p.null_count, 0);
    }

    #[test]
    fn nulls_counted_separately() {
        let mut t = sample_table();
        t.push_row(vec![Value::Null, Value::Null, Value::Null])
            .unwrap();
        let p = t.top_values("COUNTRY", 5).unwrap();
        assert_eq!(p.null_count, 1);
        assert_eq!(p.distinct_count, 3);
    }

    #[test]
    fn columnar_snapshot_is_encoded_and_dies_with_push_row() {
        let mut t = sample_table();
        let country = |t: &Table| Arc::clone(&t.columnar()[1]);
        let (codes, values) = {
            let col = country(&t);
            let (codes, values) = col.as_dict().expect("text columns are encoded");
            (codes.to_vec(), Arc::clone(values))
        };
        assert_eq!((codes.len(), values.len()), (5, 3));
        assert!(t.columnar()[2].as_dict().is_none(), "integers are not");
        // Every scan shares the stored dictionary…
        assert!(Arc::ptr_eq(&values, country(&t).as_dict().unwrap().1));
        // …and a push_row appends to it, new value included.
        t.push_row(vec!["f".into(), "Peru".into(), Value::Integer(60)])
            .unwrap();
        let col = country(&t);
        let (codes, values) = col.as_dict().unwrap();
        assert_eq!((codes.len(), values.len()), (6, 4));
        assert_eq!(col.get(5), Value::Text("Peru".into()));
    }

    #[test]
    fn database_duplicate_table_rejected() {
        let mut db = Database::new("d");
        db.add_table(sample_table()).unwrap();
        assert!(db.add_table(sample_table()).is_err());
        assert!(db.table("orgs").is_some());
    }

    #[test]
    fn describe_includes_top_values() {
        let mut db = Database::new("d");
        db.add_table(sample_table()).unwrap();
        let desc = db.describe();
        assert!(desc.contains("TABLE ORGS"));
        assert!(desc.contains("COUNTRY TEXT"));
        assert!(desc.contains("Canada"));
    }
}
