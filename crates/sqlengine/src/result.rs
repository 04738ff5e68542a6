//! Query results and the Execution Accuracy (EX) comparison.
//!
//! BIRD's EX metric (paper §3.3.2) counts a prediction correct when its
//! result set is *identical* to the gold query's result set. Following the
//! official BIRD evaluator, rows are compared as an unordered multiset of
//! tuples (ordering only matters to the extent that an ORDER BY changes
//! which rows survive a LIMIT).

use crate::key::{row_key, KeyElem};
use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// A materialized query result.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct ResultSet {
    /// Output column names (after aliasing).
    pub columns: Vec<String>,
    pub rows: Vec<Vec<Value>>,
}

impl ResultSet {
    pub fn new(columns: Vec<String>) -> ResultSet {
        ResultSet {
            columns,
            rows: Vec::new(),
        }
    }

    /// Build a result set from a columnar chunk (zero-copy where columns
    /// are unshared).
    pub fn from_chunk(columns: Vec<String>, chunk: crate::array::DataChunk) -> ResultSet {
        ResultSet {
            columns,
            rows: chunk.into_rows(),
        }
    }

    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    pub fn row_count(&self) -> usize {
        self.rows.len()
    }

    /// Canonical multiset fingerprint of the rows: each row's typed key
    /// ([`row_key`]: NULLs match each other, `2` never matches `2.0`),
    /// sorted. Two results with equal fingerprints are EX-equal.
    pub fn fingerprint(&self) -> Vec<Vec<KeyElem>> {
        let mut keys: Vec<Vec<KeyElem>> = self.rows.iter().map(|row| row_key(row)).collect();
        keys.sort();
        keys
    }

    /// Execution-accuracy equality: same row multiset (column names are
    /// ignored, as in the BIRD evaluator).
    pub fn ex_equal(&self, other: &ResultSet) -> bool {
        self.rows.len() == other.rows.len() && self.fingerprint() == other.fingerprint()
    }

    /// Render as an aligned text table (used by the feedback-solver UI).
    pub fn to_table_string(&self) -> String {
        let mut widths: Vec<usize> = self.columns.iter().map(|c| c.len()).collect();
        let rendered: Vec<Vec<String>> = self
            .rows
            .iter()
            .map(|row| row.iter().map(|v| v.to_string()).collect())
            .collect();
        for row in &rendered {
            for (i, cell) in row.iter().enumerate() {
                if i < widths.len() {
                    widths[i] = widths[i].max(cell.len());
                }
            }
        }
        let mut out = String::new();
        let header: Vec<String> = self
            .columns
            .iter()
            .enumerate()
            .map(|(i, c)| format!("{:width$}", c, width = widths[i]))
            .collect();
        out.push_str(&header.join(" | "));
        out.push('\n');
        out.push_str(
            &widths
                .iter()
                .map(|w| "-".repeat(*w))
                .collect::<Vec<_>>()
                .join("-+-"),
        );
        out.push('\n');
        for row in &rendered {
            let line: Vec<String> = row
                .iter()
                .enumerate()
                .map(|(i, c)| format!("{:width$}", c, width = widths.get(i).copied().unwrap_or(0)))
                .collect();
            out.push_str(&line.join(" | "));
            out.push('\n');
        }
        out
    }
}

impl fmt::Display for ResultSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} rows x {} cols", self.rows.len(), self.columns.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rs(cols: &[&str], rows: Vec<Vec<Value>>) -> ResultSet {
        ResultSet {
            columns: cols.iter().map(|s| s.to_string()).collect(),
            rows,
        }
    }

    #[test]
    fn ex_equal_ignores_row_order_and_column_names() {
        let a = rs(
            &["x"],
            vec![vec![Value::Integer(1)], vec![Value::Integer(2)]],
        );
        let b = rs(
            &["y"],
            vec![vec![Value::Integer(2)], vec![Value::Integer(1)]],
        );
        assert!(a.ex_equal(&b));
    }

    #[test]
    fn ex_equal_respects_multiset_semantics() {
        let a = rs(
            &["x"],
            vec![vec![Value::Integer(1)], vec![Value::Integer(1)]],
        );
        let b = rs(&["x"], vec![vec![Value::Integer(1)]]);
        assert!(!a.ex_equal(&b));
    }

    #[test]
    fn ex_equal_coerces_int_like_floats() {
        // 2.0 vs 2.0 from different computations must match, but a FLOAT
        // column does not silently equal an INTEGER column.
        let a = rs(&["x"], vec![vec![Value::Float(2.0)]]);
        let b = rs(&["x"], vec![vec![Value::Float(4.0 / 2.0)]]);
        assert!(a.ex_equal(&b));
        let c = rs(&["x"], vec![vec![Value::Integer(2)]]);
        assert!(!a.ex_equal(&c));
    }

    #[test]
    fn nulls_match_each_other() {
        let a = rs(&["x"], vec![vec![Value::Null]]);
        let b = rs(&["x"], vec![vec![Value::Null]]);
        assert!(a.ex_equal(&b));
    }

    /// A `|` inside a text value must not make one column look like two,
    /// nor move a value from one column to the next.
    #[test]
    fn pipe_bearing_text_is_not_another_answer() {
        let db = crate::catalog::Database::new("t");
        let run = |sql| crate::exec::execute_sql(&db, sql).unwrap();
        assert!(!run("SELECT 'a|t:b'").ex_equal(&run("SELECT 'a', 'b'")));
        let a = rs(&["x", "y"], vec![vec!["a|t:b".into(), "c".into()]]);
        let b = rs(&["x", "y"], vec![vec!["a".into(), "b|t:c".into()]]);
        assert!(!a.ex_equal(&b));
    }

    #[test]
    fn table_rendering_aligns() {
        let t = rs(
            &["name", "n"],
            vec![
                vec!["alpha".into(), Value::Integer(1)],
                vec!["b".into(), Value::Integer(22)],
            ],
        )
        .to_table_string();
        assert!(t.contains("name"));
        assert!(t.lines().count() >= 4);
    }
}
