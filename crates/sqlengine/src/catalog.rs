//! Catalog: databases, tables, columns, and in-memory row storage.
//!
//! Also implements the paper's schema augmentation (§2.1): "the schema is
//! augmented with possible attribute values. Specifically, we add the top-5
//! most frequent values per attribute" — see [`Table::top_values`] and
//! [`ColumnProfile`].

use crate::array::{columns_from_rows, encoded_columns_from_rows, Array};
use crate::error::{EngineError, EngineResult};
use crate::value::{DataType, Value};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::sync::{Arc, OnceLock};

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

/// Lazily built columnar image of a table's rows, shared with the
/// vectorized executor by cheap `Arc` clones. Text and date columns are
/// dictionary-encoded, so each table's dictionaries are built once and
/// live exactly as long as the snapshot.
#[derive(Debug, Clone)]
pub struct ColumnarSnapshot {
    /// One array per column, in schema order.
    pub cols: Vec<Arc<Array>>,
    /// Row count the snapshot was built at (staleness check).
    pub rows: usize,
}

/// A table with schema and row storage.
#[derive(Debug, Clone)]
pub struct Table {
    pub name: String,
    pub columns: Vec<Column>,
    pub rows: Vec<Vec<Value>>,
    /// Optional table description.
    pub description: Option<String>,
    /// Columnar cache, built on first vectorized scan and invalidated by
    /// [`Table::push_row`]. Mutations that change the row count (even
    /// ones writing `rows` directly — the field is public) are caught by
    /// a staleness check; edits that keep the row count the same are only
    /// detected when made through `push_row`, so route mutations through
    /// the `Table` API. Not serialized.
    columnar: OnceLock<ColumnarSnapshot>,
}

impl Table {
    pub fn new(name: impl Into<String>, columns: Vec<Column>) -> Table {
        Table {
            name: name.into(),
            columns,
            rows: Vec::new(),
            description: None,
            columnar: OnceLock::new(),
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
        self.columnar.take();
        self.rows.push(row);
        Ok(())
    }

    /// Columnar image of the rows, cached across queries. If the cache
    /// is stale (rows were mutated without going through [`Table::push_row`]),
    /// a fresh uncached transposition is returned instead.
    pub fn columnar(&self) -> Vec<Arc<Array>> {
        let snap = self.columnar.get_or_init(|| ColumnarSnapshot {
            cols: encoded_columns_from_rows(&self.rows, self.columns.len()),
            rows: self.rows.len(),
        });
        if snap.rows == self.rows.len() {
            snap.cols.clone()
        } else {
            columns_from_rows(&self.rows, self.columns.len())
        }
    }

    /// The paper's top-k most-frequent-values augmentation for one column.
    pub fn top_values(&self, column: &str, k: usize) -> EngineResult<ColumnProfile> {
        let idx = self.column_index(column).ok_or_else(|| {
            EngineError::binding(format!("no column {column} in table {}", self.name))
        })?;
        let mut counts: HashMap<String, usize> = HashMap::new();
        let mut null_count = 0usize;
        for row in &self.rows {
            match &row[idx] {
                Value::Null => null_count += 1,
                v => *counts.entry(v.to_string()).or_insert(0) += 1,
            }
        }
        let distinct_count = counts.len();
        let mut pairs: Vec<(String, usize)> = counts.into_iter().collect();
        pairs.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        pairs.truncate(k);
        Ok(ColumnProfile {
            column: self.columns[idx].name.clone(),
            top_values: pairs,
            distinct_count,
            null_count,
        })
    }

    /// Profiles for every column (top-5, per the paper).
    pub fn profile(&self) -> Vec<ColumnProfile> {
        self.columns
            .iter()
            .map(|c| self.top_values(&c.name, 5).expect("column exists"))
            .collect()
    }
}

// Hand-written (the columnar cache is runtime-only state and must not be
// serialized); the wire format matches what the field-pair derive would
// have produced for the serialized fields.
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
        Ok(Table {
            name: serde::field(pairs, "name")?,
            columns: serde::field(pairs, "columns")?,
            rows: serde::field(pairs, "rows")?,
            description: serde::field(pairs, "description")?,
            columnar: OnceLock::new(),
        })
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
        // The dictionary is cached with the snapshot…
        assert!(Arc::ptr_eq(&values, country(&t).as_dict().unwrap().1));
        // …and rebuilt after a push_row, new value included.
        t.push_row(vec!["f".into(), "Peru".into(), Value::Integer(60)])
            .unwrap();
        let col = country(&t);
        let (codes, values) = col.as_dict().unwrap();
        assert_eq!((codes.len(), values.len()), (6, 4));
        assert_eq!(col.get(5), Value::Text("Peru".into()));
        // Rows changed behind push_row's back: a fresh, un-encoded
        // transposition, never the stale dictionary.
        t.rows.pop();
        let col = country(&t);
        assert!(col.as_dict().is_none());
        assert_eq!(col.len(), 5);
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
