//! Golden pin for the SQL engine's per-value semantics: one digest per
//! rule over a grid of values that covers every pair of types.
//!
//! The differential suites hold the vectorized engine to
//! `execute_sql_reference`; they catch the two engines drifting apart,
//! but not a change to a rule that both of them call. This test pins the
//! rules themselves: comparison, arithmetic (overflow and division by
//! zero included), `||`, `LIKE`, `BETWEEN`, `CASE`, three-valued `AND` /
//! `OR` / `NOT`, unary minus, `IN` with a NULL item (list and subquery),
//! `DISTINCT` aggregates and grouping identity.
//!
//! Every grid value lives in a table of its own, three rows with a NULL
//! in the middle, so the batch kernels see typed arrays, dictionary
//! columns (text and dates, evaluated once per entry) and the mixed `Any`
//! layout, not only literals. Each expression runs as a projection over
//! the cross join of two such tables, as a projection of one table
//! against the other value written as a constant, and as a WHERE clause.
//! Each statement runs on both engines, which must agree, and the `Debug`
//! form of every result — rows or error — feeds the digest of its rule,
//! so a failure names the rule that moved. Run it before and after
//! touching `value.rs`, `eval.rs` or `vector.rs`.

use genedit::sql::{execute_sql, execute_sql_reference, Column, DataType, Database, Table};
use genedit::sql::{Date, Value};
use genedit::telemetry::hash::{fnv1a64, fnv1a64_from};
use std::collections::BTreeMap;

/// NULL, integers at the edges of `i64` and of exact `f64`, signed
/// zeros, NaN and infinity, text (one of it an ISO date), a date and
/// both booleans.
fn grid() -> Vec<Value> {
    let date = Date::new(2023, 5, 1).expect("a valid date");
    vec![
        Value::Null,
        Value::Integer(0),
        Value::Integer(1),
        Value::Integer(-1),
        Value::Integer(i64::MAX),
        Value::Integer(i64::MIN),
        Value::Integer((1 << 53) + 1),
        Value::Float(0.0),
        Value::Float(-0.0),
        Value::Float(1.5),
        Value::Float(2.0),
        Value::Float(f64::NAN),
        Value::Float(f64::INFINITY),
        Value::Text(String::new()),
        Value::Text("a".into()),
        Value::Text("2023-05-01".into()),
        Value::Date(date),
        Value::Boolean(true),
        Value::Boolean(false),
    ]
}

/// Table `t{i}`: column `v` holding grid value `i`, NULL, then the value
/// again — a NaN the second time with another bit pattern.
fn database(grid: &[Value]) -> Database {
    let mut db = Database::new("grid");
    for (i, v) in grid.iter().enumerate() {
        let ty = v.data_type().unwrap_or(DataType::Integer);
        let mut t = Table::new(format!("t{i}"), vec![Column::new("v", ty)]);
        let twin = match v {
            Value::Float(f) if f.is_nan() => Value::Float(f64::from_bits(0x7ff8_0000_0000_0001)),
            v => v.clone(),
        };
        for row in [v.clone(), Value::Null, twin] {
            t.push_row(vec![row]).expect("one column");
        }
        db.add_table(t).expect("distinct names");
    }
    db
}

/// A grid value as a SQL expression without a column.
fn constant(v: &Value) -> String {
    match v {
        Value::Null => "NULL".into(),
        Value::Integer(i) => format!("CAST('{i}' AS INTEGER)"),
        Value::Float(_) => format!("CAST('{v}' AS FLOAT)"),
        Value::Text(s) => format!("'{s}'"),
        Value::Boolean(b) => b.to_string().to_uppercase(),
        Value::Date(d) => format!("CAST('{d}' AS DATE)"),
    }
}

/// Rules over two operands, `{a}` and `{b}`.
const BINARY: &[(&str, &[&str])] = &[
    (
        "compare",
        &[
            "{a} = {b}",
            "{a} <> {b}",
            "{a} < {b}",
            "{a} <= {b}",
            "{a} > {b}",
            "{a} >= {b}",
        ],
    ),
    (
        "arithmetic",
        &[
            "{a} + {b}",
            "{a} - {b}",
            "{a} * {b}",
            "{a} / {b}",
            "{a} % {b}",
        ],
    ),
    ("concat", &["{a} || {b}"]),
    ("like", &["{a} LIKE {b}", "{a} NOT LIKE {b}"]),
    (
        "between",
        &[
            "{a} BETWEEN {b} AND {a}",
            "{a} NOT BETWEEN {a} AND {b}",
            "{a} BETWEEN NULL AND {b}",
        ],
    ),
    (
        "case",
        &[
            "CASE {a} WHEN {b} THEN 1 ELSE 0 END",
            "CASE WHEN {a} THEN 1 WHEN {b} THEN 2 ELSE 3 END",
        ],
    ),
    ("logic", &["{a} AND {b}", "{a} OR {b}", "NOT ({a} AND {b})"]),
    (
        "in",
        &[
            "{a} IN ({b}, NULL)",
            "{a} NOT IN ({b}, NULL)",
            "{a} IN ({b})",
        ],
    ),
];

/// Rules over one operand, `{a}`.
const UNARY: &[(&str, &[&str])] = &[
    ("negate", &["-{a}", "-(-{a})"]),
    ("logic", &["NOT {a}"]),
    ("like", &["{a} LIKE '%'", "{a} LIKE '_'", "{a} LIKE '2%'"]),
];

/// Statements over the union of two tables' columns `u.v`.
const UNION: &[(&str, &[&str])] = &[
    (
        "distinct_aggregates",
        &[
            "SELECT COUNT(DISTINCT v) AS x FROM {u} u",
            "SELECT SUM(DISTINCT v) AS x FROM {u} u",
            "SELECT AVG(DISTINCT v) AS x FROM {u} u",
        ],
    ),
    (
        "grouping",
        &[
            "SELECT DISTINCT v AS x FROM {u} u",
            "SELECT v AS x, COUNT(*) AS n FROM {u} u GROUP BY v",
        ],
    ),
];

/// Every statement of every rule, in a fixed order.
fn statements(grid: &[Value]) -> Vec<(&'static str, String)> {
    let n = grid.len();
    let mut out = Vec::new();
    for &(rule, exprs) in BINARY {
        for e in exprs {
            for i in 0..n {
                for (j, right) in grid.iter().enumerate() {
                    let pair = e.replace("{a}", "l.v").replace("{b}", "r.v");
                    let from = format!("t{i} l CROSS JOIN t{j} r");
                    out.push((rule, format!("SELECT {pair} AS x FROM {from}")));
                    out.push((
                        rule,
                        format!("SELECT l.v AS x, r.v AS y FROM {from} WHERE {pair}"),
                    ));
                    let with_constant = e.replace("{a}", "l.v").replace("{b}", &constant(right));
                    out.push((rule, format!("SELECT {with_constant} AS x FROM t{i} l")));
                }
            }
        }
    }
    for i in 0..n {
        for j in 0..n {
            for (form, negated) in [
                ("SELECT v FROM t{j}", ""),
                ("SELECT v FROM t{j} WHERE v IS NOT NULL", "NOT "),
            ] {
                let sub = form.replace("{j}", &j.to_string());
                out.push((
                    "in",
                    format!("SELECT l.v {negated}IN ({sub}) AS x FROM t{i} l"),
                ));
            }
        }
    }
    for &(rule, exprs) in UNARY {
        for e in exprs {
            for i in 0..n {
                let one = e.replace("{a}", "l.v");
                out.push((rule, format!("SELECT {one} AS x FROM t{i} l")));
                out.push((rule, format!("SELECT l.v AS x FROM t{i} l WHERE {one}")));
            }
        }
    }
    for &(rule, forms) in UNION {
        for form in forms {
            for i in 0..n {
                for j in 0..n {
                    let u = format!("(SELECT v FROM t{i} UNION ALL SELECT v FROM t{j})");
                    out.push((rule, form.replace("{u}", &u)));
                }
            }
        }
    }
    out
}

/// One digest per rule; each statement must answer alike on both engines.
fn digests() -> BTreeMap<&'static str, u64> {
    let grid = grid();
    let db = database(&grid);
    let mut out: BTreeMap<&'static str, u64> = BTreeMap::new();
    for (rule, sql) in statements(&grid) {
        let got = format!("{:?}", execute_sql(&db, &sql));
        let want = format!("{:?}", execute_sql_reference(&db, &sql));
        assert_eq!(got, want, "{sql}");
        let d = out.entry(rule).or_insert_with(|| fnv1a64(rule.as_bytes()));
        *d = fnv1a64_from(*d, got.as_bytes());
        *d = fnv1a64_from(*d, b"\n");
    }
    out
}

#[test]
fn every_value_rule_is_pinned() {
    let pinned: BTreeMap<&str, u64> = [
        ("arithmetic", 0x0c45_66d2_b0da_9307),
        ("between", 0x541b_85be_1607_a9ae),
        ("case", 0xe74f_7aa6_2556_7055),
        ("compare", 0x03a3_b8bd_9074_5094),
        ("concat", 0xba13_c20f_ec48_e72a),
        ("distinct_aggregates", 0x5611_37b8_2ae5_021c),
        ("grouping", 0x00ec_87f5_3b37_9449),
        ("in", 0x0a36_f843_ec26_5ca5),
        ("like", 0x1d63_d368_68ce_0b4d),
        ("logic", 0xf63c_6807_5202_e3cb),
        ("negate", 0xe0e7_f082_6a6d_6149),
    ]
    .into_iter()
    .collect();
    let got = digests();
    let moved: Vec<String> = got
        .iter()
        .filter(|(rule, d)| pinned.get(*rule) != Some(*d))
        .map(|(rule, d)| format!("{rule}: {d:#018x}"))
        .collect();
    assert!(moved.is_empty(), "rules moved:\n{}", moved.join("\n"));
    assert_eq!(got.len(), pinned.len());
}
