//! # genedit-sql — in-memory SQL engine substrate
//!
//! A from-scratch SQL engine built as the execution substrate for the
//! GenEdit reproduction (CIDR 2025). It provides everything the paper's
//! Text-to-SQL pipeline needs from a warehouse:
//!
//! * a lexer/parser for an analytics dialect (CTEs, joins, aggregates,
//!   window functions, subqueries, set operations, `CASE`, `CAST`,
//!   `TO_CHAR` quarter formatting),
//! * a pretty-printer whose output round-trips through the parser,
//! * an interpreter with SQL NULL semantics, used to compute BIRD-style
//!   Execution Accuracy,
//! * error classification into *syntactic* vs *semantic* failures, which
//!   drives the pipeline's self-correction loop,
//! * static analysis (complexity scoring, referenced tables/columns) used
//!   by schema linking and the oracle model's reasoning-capacity model.
//!
//! ## Quick example
//!
//! ```
//! use genedit_sql::{Database, Table, Column, DataType, Value, execute_sql};
//!
//! let mut db = Database::new("demo");
//! let mut t = Table::new("nums", vec![Column::new("n", DataType::Integer)]);
//! for i in 1..=5 { t.push_row(vec![Value::Integer(i)]).unwrap(); }
//! db.add_table(t).unwrap();
//!
//! let rs = execute_sql(&db, "SELECT SUM(n) AS total FROM nums WHERE n > 1").unwrap();
//! assert_eq!(rs.rows[0][0].as_i64(), Some(14));
//! ```

pub mod aggregate;
pub mod analysis;
pub mod array;
pub mod ast;
pub mod catalog;
pub mod display;
pub mod error;
pub mod eval;
pub mod exec;
pub mod functions;
pub mod key;
pub mod lexer;
pub mod parser;
pub mod physical;
mod reference;
pub mod result;
pub mod value;
pub mod vector;
mod window;

pub use analysis::{complexity, referenced_columns, referenced_tables, ComplexityScore};
pub use array::{Array, ArrayBuilder, Bitmap, DataChunk};
pub use ast::{
    BinaryOp, Cte, Expr, FunctionCall, JoinKind, Literal, Node, NodeMut, OrderItem, Query, Select,
    SelectItem, SetExpr, SetOp, Statement, TableRef, UnaryOp, WindowSpec,
};
pub use catalog::{Column, ColumnProfile, ColumnStore, Database, Table};
pub use display::pretty;
pub use error::{EngineError, EngineResult};
pub use exec::{execute, execute_sql, execute_sql_reference, execute_sql_timed, ExecStats};
pub use key::{key_elem, row_key, KeyElem};
pub use parser::{parse_expression, parse_statement};
pub use physical::SqlCounters;
pub use result::ResultSet;
pub use value::{DataType, Date, Value, ValueRef};
