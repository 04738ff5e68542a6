//! Differential property tests for the dictionary layout and the three
//! kernels that read it: vectorized engine vs [`execute_sql_reference`],
//! byte for byte.
//!
//! `differential_proptests.rs` has no `DATE` column, integer join keys
//! only, and no scalar call that can fail; this suite is the regime the
//! dictionary kernels run in. Tables carry a low-cardinality `DATE`
//! column, text join keys with duplicates and NULLs on both sides, a
//! text column that only sometimes casts to an integer, and sizes on
//! both sides of "fewer distinct values than rows" (every pool has at
//! most eight values; tables have 0 to 47 rows). Queries put
//! single-column expressions — `TO_CHAR`, `YEAR`, `SUBSTR`,
//! `CAST(text AS INTEGER)`, `COALESCE`, `CASE` — in WHERE, GROUP BY and
//! SELECT, join on text and on date-against-ISO-text keys (INNER and
//! LEFT), and one property appends a row between two runs of the same
//! query, holding values no dictionary has an entry for.
//!
//! The table's own storage is held to the transposition it replaced:
//! after any sequence of `push_row` calls its columns are what
//! `encoded_columns_from_rows` makes of the same rows, and the rows read
//! back are the rows pushed.
//!
//! The WHERE kernels are held to the code they stand in for: WHERE's
//! selection vector (`vector::select`) to the TRUE positions of
//! `truth(eval(..))` — rows, errors and scalar calls — over random
//! predicates on dictionary and plain columns; `truth` on a dictionary to
//! the per-row loop; `Date::format_pattern` and the parsed `DatePattern`
//! to the implementations they replaced, kept here.
//!
//! `TO_CHAR(date, pattern)` compared with text literals in place, one
//! buffer per batch, is held to both engines over patterns, near-miss
//! literals, all six comparisons with the literal on either side, `IN`
//! and `NOT IN`; and, element by element with the same scalar calls, to
//! the general path over the same dates in layouts it does not admit.

use genedit_sql::eval::ColMeta;
use genedit_sql::value::{DataType, Date, DatePattern, Value};
use genedit_sql::vector::{self, Sel};
use genedit_sql::{
    execute_sql, execute_sql_reference, parse_expression, physical, Array, Column, DataChunk,
    Database, EngineResult, Table,
};
use proptest::prelude::*;
use std::sync::Arc;

// ---------------------------------------------------------------------
// Data
// ---------------------------------------------------------------------

const MONTHS: [(i32, u8); 7] = [
    (2022, 1),
    (2022, 4),
    (2022, 11),
    (2023, 1),
    (2023, 2),
    (2023, 5),
    (2023, 12),
];
const KEYS: [&str; 6] = ["alpha", "avon", "beta", "b|t:x", "", "gamma"];
const REGIONS: [&str; 3] = ["north", "south", "east"];
/// `CAST(N AS INTEGER)` raises on the last two.
const NUMBERS: [&str; 6] = ["1", "2", "-3", "40", "x", "4y"];

/// A pool index, or NULL one time in `pool + 1`.
fn arb_pick(pool: usize) -> impl Strategy<Value = Option<usize>> {
    (0..pool + 1).prop_map(move |i| (i < pool).then_some(i))
}

/// `(D, K, R, N, V)` of one fact row.
type FRow = (
    Option<usize>,
    Option<usize>,
    Option<usize>,
    Option<usize>,
    i64,
);
/// `(EK, G, W, DT)` of one entity row.
type ERow = (Option<usize>, Option<usize>, i64, Option<usize>);

fn arb_f_row() -> impl Strategy<Value = FRow> {
    (
        arb_pick(MONTHS.len()),
        arb_pick(KEYS.len()),
        arb_pick(REGIONS.len()),
        arb_pick(NUMBERS.len()),
        -20i64..60,
    )
}

/// Tables on both sides of "fewer distinct values than rows". In half
/// of them only rows with `V <= 0` hold an `N` that does not cast, so
/// `V > 0 AND CAST(N AS INTEGER) …` meets the bad values in the
/// dictionary and in no row it evaluates.
fn arb_f_rows() -> impl Strategy<Value = Vec<FRow>> {
    let rows = prop_oneof![
        prop::collection::vec(arb_f_row(), 0..6),
        prop::collection::vec(arb_f_row(), 6..48),
        prop::collection::vec(arb_f_row(), 6..48),
    ];
    (any::<bool>(), rows).prop_map(|(guarded, mut rows)| {
        for row in rows.iter_mut().filter(|row| guarded && row.4 > 0) {
            row.3 = row.3.map(|n| n % 4);
        }
        rows
    })
}

fn arb_e_rows() -> impl Strategy<Value = Vec<ERow>> {
    let row = || {
        (
            arb_pick(KEYS.len()),
            arb_pick(REGIONS.len()),
            0i64..5,
            arb_pick(MONTHS.len()),
        )
    };
    prop_oneof![
        prop::collection::vec(row(), 0..5),
        prop::collection::vec(row(), 5..24),
    ]
}

fn text(pool: &[&str], i: Option<usize>) -> Value {
    i.map_or(Value::Null, |i| Value::Text(pool[i].to_string()))
}

fn month(i: Option<usize>) -> Option<Date> {
    i.map(|i| Date::new(MONTHS[i].0, MONTHS[i].1, 1).expect("first of a month"))
}

fn f_values(&(d, k, r, n, v): &FRow) -> Vec<Value> {
    vec![
        month(d).map_or(Value::Null, Value::Date),
        text(&KEYS, k),
        text(&REGIONS, r),
        text(&NUMBERS, n),
        Value::Integer(v),
    ]
}

fn build_db(f_rows: &[FRow], e_rows: &[ERow]) -> Database {
    let mut db = Database::new("dict");
    let mut f = Table::new(
        "F",
        vec![
            Column::new("D", DataType::Date),
            Column::new("K", DataType::Text),
            Column::new("R", DataType::Text),
            Column::new("N", DataType::Text),
            Column::new("V", DataType::Integer),
        ],
    );
    for row in f_rows {
        f.push_row(f_values(row)).expect("push F row");
    }
    db.add_table(f).expect("add F");
    let mut e = Table::new(
        "E",
        vec![
            Column::new("EK", DataType::Text),
            Column::new("G", DataType::Text),
            Column::new("W", DataType::Integer),
            // ISO text, so `F.D = E.DT` keys a date against a string.
            Column::new("DT", DataType::Text),
        ],
    );
    for &(k, g, w, dt) in e_rows {
        e.push_row(vec![
            text(&KEYS, k),
            text(&REGIONS, g),
            Value::Integer(w),
            month(dt).map_or(Value::Null, |d| Value::Text(d.to_string())),
        ])
        .expect("push E row");
    }
    db.add_table(e).expect("add E");
    db
}

// ---------------------------------------------------------------------
// Queries
// ---------------------------------------------------------------------

/// Expressions over one column of `F`.
fn arb_expr() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("D"),
        Just("K"),
        Just("TO_CHAR(D, 'YYYY\"Q\"Q')"),
        Just("TO_CHAR(D, 'YYYY')"),
        Just("YEAR(D)"),
        Just("MONTH(D) + 1"),
        Just("SUBSTR(K, 1, 1)"),
        Just("UPPER(K) || '!'"),
        Just("LENGTH(K)"),
        Just("COALESCE(R, 'x')"),
        Just("COALESCE(TO_CHAR(D, 'YYYY-MM'), 'none')"),
        Just("CASE WHEN R = 'north' THEN 'n' WHEN R IS NULL THEN NULL ELSE SUBSTR(R, 1, 2) END"),
        Just("CASE R WHEN 'south' THEN 1 ELSE 0 END"),
        Just("R IN ('north', 'east')"),
        // Raises on 'x' and '4y', wherever a row that reaches it has one.
        Just("CAST(N AS INTEGER)"),
        Just("CASE WHEN N IN ('x', '4y') THEN -1 ELSE CAST(N AS INTEGER) END"),
    ]
}

/// Predicates over `F`: single-column ones, and conjunctions whose
/// earlier conjunct on *another* column decides which rows reach a call
/// that can fail.
fn arb_pred() -> impl Strategy<Value = &'static str> {
    prop_oneof![
        Just("TO_CHAR(D, 'YYYY\"Q\"Q') IN ('2023Q1', '2023Q2')"),
        Just("TO_CHAR(D, 'YYYY') = '2022'"),
        Just("YEAR(D) = 2023"),
        Just("NOT (YEAR(D) = 2023)"),
        Just("D >= '2023-01-01'"),
        Just("D BETWEEN '2022-06-01' AND '2023-03-01'"),
        Just("R = 'north'"),
        Just("R IS NULL"),
        Just("COALESCE(R, 'x') = 'x'"),
        Just("SUBSTR(K, 1, 1) = 'a'"),
        Just("K LIKE 'a%'"),
        Just("CAST(N AS INTEGER) > 0"),
        Just("V > 0 AND CAST(N AS INTEGER) > 0"),
        Just("V > 200 AND CAST(N AS INTEGER) > 0"),
        Just("N NOT IN ('x', '4y') AND CAST(N AS INTEGER) > 1"),
        Just("R = 'north' OR YEAR(D) = 2022"),
        Just("R = 'south' AND TO_CHAR(D, 'YYYY\"Q\"Q') = '2023Q1' AND V > 10"),
        Just("CASE WHEN R = 'north' THEN V ELSE 0 END > 0"),
    ]
}

fn arb_tail() -> impl Strategy<Value = String> {
    prop_oneof![
        Just(String::new()),
        Just(" ORDER BY 1".to_string()),
        Just(" ORDER BY 1 DESC, 2".to_string()),
        (0u64..6).prop_map(|n| format!(" ORDER BY 2, 1 LIMIT {n}")),
    ]
}

fn where_clause(pred: Option<&str>) -> String {
    pred.map_or(String::new(), |p| format!(" WHERE {p}"))
}

fn arb_single_table_query() -> impl Strategy<Value = String> {
    (
        0usize..4,
        arb_expr(),
        arb_expr(),
        proptest::option::of(arb_pred()),
        arb_pred(),
        arb_tail(),
    )
        .prop_map(|(shape, e1, e2, pred, when, tail)| {
            let filter = where_clause(pred);
            match shape {
                0 => format!("SELECT {e1} AS x, {e2} AS y, V FROM F{filter}{tail}"),
                1 => format!("SELECT DISTINCT {e1} AS x, {e2} AS y FROM F{filter}{tail}"),
                2 => format!(
                    "SELECT {e1} AS g, COUNT(*) AS n, SUM(V) AS s, MIN({e2}) AS lo \
                     FROM F{filter} GROUP BY {e1}{tail}"
                ),
                _ => format!(
                    "SELECT {e1} AS g, SUM(CASE WHEN {when} THEN V ELSE 0 END) AS a, \
                     COUNT(*) AS n FROM F{filter} GROUP BY {e1}{tail}"
                ),
            }
        })
}

fn arb_join_query() -> impl Strategy<Value = String> {
    (
        0usize..4,
        prop_oneof![Just("JOIN"), Just("LEFT JOIN")],
        prop_oneof![
            Just("K = EK"),
            Just("EK = K"),
            // A date keyed against its ISO rendering.
            Just("D = DT"),
            // Two key columns: the per-row key path.
            Just("K = EK AND R = G"),
        ],
        proptest::option::of(prop_oneof![arb_pred(), Just("W > 1"), Just("G IS NULL")]),
        arb_tail(),
    )
        .prop_map(|(shape, kind, on, pred, tail)| {
            let filter = where_clause(pred);
            match shape {
                0 => format!("SELECT K, G, V, W FROM F {kind} E ON {on}{filter}{tail}"),
                1 => format!("SELECT EK, D, W, V FROM E {kind} F ON {on}{filter}{tail}"),
                2 => format!(
                    "SELECT G, COUNT(*) AS n, SUM(V) AS s FROM E {kind} F ON {on}{filter} \
                     GROUP BY G{tail}"
                ),
                // A CTE array (never encoded) against an encoded table.
                _ => format!(
                    "WITH big AS (SELECT K, D, R, N, V FROM F WHERE V > 0) \
                     SELECT G, TO_CHAR(D, 'YYYY') AS y, SUM(V) AS s FROM big {kind} E ON {on}{filter} \
                     GROUP BY G, TO_CHAR(D, 'YYYY'){tail}"
                ),
            }
        })
}

// ---------------------------------------------------------------------
// The differential oracle
// ---------------------------------------------------------------------

/// Exact rendering of a result set: column names plus every value's
/// debug form.
fn render(rs: &genedit_sql::ResultSet) -> String {
    let mut out = format!("{:?}\n", rs.columns);
    for row in &rs.rows {
        out.push_str(&format!("{row:?}\n"));
    }
    out
}

/// Both engines return the same bytes, or both raise. (Which row's error
/// surfaces first is not pinned: the vectorized engine evaluates a whole
/// conjunct before the next one.)
fn check_differential(db: &Database, sql: &str) -> Result<(), TestCaseError> {
    match (execute_sql(db, sql), execute_sql_reference(db, sql)) {
        (Ok(v), Ok(r)) => prop_assert_eq!(render(&v), render(&r), "engines diverged on: {}", sql),
        (Err(_), Err(_)) => {}
        (Ok(v), Err(e)) => {
            return Err(TestCaseError::fail(format!(
                "vectorized succeeded ({} rows) but reference failed ({e}) on: {sql}",
                v.rows.len()
            )));
        }
        (Err(e), Ok(r)) => {
            return Err(TestCaseError::fail(format!(
                "reference succeeded ({} rows) but vectorized failed ({e}) on: {sql}",
                r.rows.len()
            )));
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn single_table_queries_agree(
        f_rows in arb_f_rows(),
        sql in arb_single_table_query(),
    ) {
        let db = build_db(&f_rows, &[]);
        check_differential(&db, &sql)?;
    }

    #[test]
    fn join_queries_agree(
        f_rows in arb_f_rows(),
        e_rows in arb_e_rows(),
        sql in arb_join_query(),
    ) {
        let db = build_db(&f_rows, &e_rows);
        check_differential(&db, &sql)?;
    }

    /// The row appended between the two runs holds a month, a key and a
    /// region no dictionary has an entry for.
    #[test]
    fn a_row_pushed_between_two_queries_is_seen(
        f_rows in arb_f_rows(),
        e_rows in arb_e_rows(),
        v in -20i64..60,
        sql in prop_oneof![arb_single_table_query(), arb_join_query()],
    ) {
        let mut db = build_db(&f_rows, &e_rows);
        check_differential(&db, &sql)?;
        let new_row = vec![
            Value::Date(Date::new(2024, 6, 1).expect("valid date")),
            Value::Text("zeta".into()),
            Value::Text("west".into()),
            Value::Text("7".into()),
            Value::Integer(v),
        ];
        db.table_mut("F").expect("F exists").push_row(new_row).expect("push F row");
        check_differential(&db, &sql)?;
        let count = execute_sql(&db, "SELECT COUNT(*) FROM F WHERE K = 'zeta' AND YEAR(D) = 2024");
        prop_assert_eq!(count.expect("count runs").rows[0][0].clone(), Value::Integer(1));
    }
}

// ---------------------------------------------------------------------
// Storage: pushed rows are their encoded columns
// ---------------------------------------------------------------------

/// Columns of the pushed table: the five types, a column whose type
/// changes with every row, and one whose type changes once.
const PUSH_COLUMNS: [(&str, DataType); 7] = [
    ("I", DataType::Integer),
    ("F", DataType::Float),
    ("S", DataType::Text),
    ("B", DataType::Boolean),
    ("D", DataType::Date),
    ("M", DataType::Text),
    ("X", DataType::Text),
];

/// Run between two pushes; mixed columns may raise, on both engines.
const PUSH_QUERIES: [&str; 5] = [
    "SELECT * FROM T",
    "SELECT S, COUNT(*), SUM(I) FROM T GROUP BY S ORDER BY S",
    "SELECT TO_CHAR(D, 'YYYY\"Q\"Q'), B FROM T WHERE I > 0 OR D IS NULL",
    "SELECT M, X FROM T WHERE S = 'b' OR F > 1",
    "SELECT COUNT(DISTINCT X), COUNT(D) FROM T",
];

/// Value `pick` of column `col`'s pool, in the type `kind` for `M`.
fn push_cell(col: usize, pick: usize, kind: usize, typed_until: bool) -> Value {
    let date = |i: usize| Value::Date(Date::new(2020 + i as i32, 1 + i as u8, 1).expect("valid"));
    let text = |i: usize| Value::Text(["a", "b", "", "ü|x"][i].to_string());
    let of_kind = |kind: usize| match kind {
        0 => Value::Integer(pick as i64 - 1),
        1 => Value::Float([1.5, -0.0, f64::NAN, 2.0][pick]),
        2 => text(pick),
        3 => Value::Boolean(pick.is_multiple_of(2)),
        _ => date(pick),
    };
    match col {
        0..=4 => of_kind(col),
        5 => of_kind(kind),
        _ if typed_until => text(pick),
        _ => of_kind(kind),
    }
}

/// `(query to run first, if in range; one pick per column; M's type)`.
fn arb_push_step() -> impl Strategy<Value = (usize, Vec<Option<usize>>, usize)> {
    (
        0usize..2 * PUSH_QUERIES.len(),
        prop::collection::vec(arb_pick(4), PUSH_COLUMNS.len()),
        0usize..5,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// After any sequence of `push_row` calls the table's columns are what
    /// `encoded_columns_from_rows` makes of the same rows — same layouts,
    /// same dictionary entries in the same order, same placeholders in
    /// NULL slots — and reading the rows back returns what was pushed.
    /// Each column is NULL for its first `prefixes[c]` rows.
    #[test]
    fn pushed_rows_are_stored_as_their_encoded_columns(
        prefixes in prop::collection::vec(0usize..12, PUSH_COLUMNS.len()),
        switch in 0usize..40,
        steps in prop::collection::vec(arb_push_step(), 0..40),
    ) {
        let columns = PUSH_COLUMNS.iter().map(|(n, t)| Column::new(*n, *t)).collect();
        let mut db = Database::new("pushes");
        db.add_table(Table::new("T", columns)).expect("add T");
        let mut pushed: Vec<Vec<Value>> = Vec::new();
        for (i, (query, picks, kind)) in steps.iter().enumerate() {
            if let Some(sql) = PUSH_QUERIES.get(*query) {
                check_differential(&db, sql)?;
            }
            let row: Vec<Value> = picks
                .iter()
                .enumerate()
                .map(|(c, pick)| match pick {
                    Some(p) if i >= prefixes[c] => push_cell(c, *p, *kind, i < switch),
                    _ => Value::Null,
                })
                .collect();
            db.table_mut("T").expect("T exists").push_row(row.clone()).expect("push T row");
            pushed.push(row);
            let want = genedit_sql::array::encoded_columns_from_rows(&pushed, PUSH_COLUMNS.len());
            let got = db.table("T").expect("T exists").columnar();
            prop_assert_eq!(format!("{got:?}"), format!("{want:?}"), "after {} pushes", i + 1);
        }
        let mut back: Vec<Vec<Value>> = Vec::new();
        for row in &db.table("T").expect("T exists").rows {
            back.push(row.clone());
        }
        prop_assert_eq!(format!("{back:?}"), format!("{pushed:?}"));
        for sql in PUSH_QUERIES {
            check_differential(&db, sql)?;
        }
    }
}

// ---------------------------------------------------------------------
// Directed checks
// ---------------------------------------------------------------------

fn sample_rows() -> Vec<FRow> {
    // 24 rows over 4 months, 3 keys (one NULL), 2 regions (one NULL).
    (0..24)
        .map(|i| {
            (
                Some([0, 3, 4, 5][i % 4]),
                (i % 5 != 0).then_some(i % 3),
                (i % 7 != 0).then_some(i % 2),
                Some(i % 4),
                i as i64,
            )
        })
        .collect()
}

#[test]
fn error_parity_where_a_selected_row_holds_the_failing_value() {
    let mut rows = sample_rows();
    rows[13].3 = Some(4); // N = 'x', V = 13
    let db = build_db(&rows, &[]);
    for sql in [
        "SELECT SUM(V) FROM F WHERE CAST(N AS INTEGER) > 0",
        "SELECT SUM(V) FROM F WHERE V > 10 AND CAST(N AS INTEGER) > 0",
        "SELECT CAST(N AS INTEGER) AS n, COUNT(*) FROM F GROUP BY CAST(N AS INTEGER)",
        "SELECT SUM(CASE WHEN CAST(N AS INTEGER) > 0 THEN V ELSE 0 END) FROM F",
    ] {
        let got = execute_sql(&db, sql).expect_err(sql);
        let want = execute_sql_reference(&db, sql).expect_err(sql);
        assert_eq!(got, want, "{sql}");
    }
    // The same value, held only by rows an earlier conjunct on another
    // column decided: no error, the reference's rows.
    for sql in [
        "SELECT SUM(V) FROM F WHERE V < 13 AND CAST(N AS INTEGER) > 0",
        "SELECT V FROM F WHERE V <> 13 AND CAST(N AS INTEGER) > 1 ORDER BY 1",
    ] {
        let got = execute_sql(&db, sql).expect(sql);
        let want = execute_sql_reference(&db, sql).expect(sql);
        assert_eq!(render(&got), render(&want), "{sql}");
        assert!(!got.rows.is_empty());
    }
}

#[test]
fn left_join_pads_through_dictionaries_with_and_without_a_null_entry() {
    // E.G has a NULL entry; E.DT has none; both are padded for the F
    // rows whose key is NULL or unmatched.
    let e_rows: Vec<ERow> = vec![
        (Some(0), Some(0), 1, Some(0)),
        (Some(0), None, 2, Some(3)),
        (Some(1), Some(1), 3, Some(3)),
        (Some(0), Some(0), 4, Some(0)),
        (Some(1), None, 5, Some(0)),
    ];
    let db = build_db(&sample_rows(), &e_rows);
    for (sql, padded) in [
        ("SELECT K, EK, G, DT, W FROM F LEFT JOIN E ON K = EK", true),
        (
            "SELECT V, G, DT FROM F LEFT JOIN E ON D = DT ORDER BY 1, 2, 3",
            true,
        ),
        (
            "SELECT COALESCE(G, 'none') AS g, COUNT(*) AS n, COUNT(DT) AS m \
             FROM F LEFT JOIN E ON K = EK GROUP BY COALESCE(G, 'none') ORDER BY 1",
            false,
        ),
    ] {
        let got = execute_sql(&db, sql).expect(sql);
        let want = execute_sql_reference(&db, sql).expect(sql);
        assert_eq!(render(&got), render(&want), "{sql}");
        let pads = |r: &Vec<Value>| r[r.len() - 1].is_null() && r[r.len() - 2].is_null();
        assert_eq!(got.rows.iter().any(pads), padded, "{sql}");
    }
}

// ---------------------------------------------------------------------
// The WHERE kernels
// ---------------------------------------------------------------------

/// Column names of [`where_chunk`]: `D`, `K`, `R`, `N` dictionary-encoded
/// as a table scan hands them over; `V` integers, `P` the text of `N`
/// unencoded, `B` booleans — all with NULLs.
const WHERE_COLS: [&str; 7] = ["D", "K", "R", "N", "V", "P", "B"];

fn where_chunk(rows: &[FRow]) -> DataChunk {
    let rows: Vec<Vec<Value>> = rows
        .iter()
        .map(|row| {
            let mut values = f_values(row);
            values.push(text(&NUMBERS, row.3));
            let v = row.4;
            values.push(if v % 5 == 0 {
                Value::Null
            } else {
                Value::Boolean(v % 3 == 0)
            });
            values
        })
        .collect();
    let plain = DataChunk::from_rows(rows, WHERE_COLS.len());
    let cols = plain
        .cols
        .iter()
        .enumerate()
        .map(|(i, c)| match i {
            0..=3 => Arc::new(Array::clone(c).dictionary_encoded()),
            _ => Arc::clone(c),
        })
        .collect();
    DataChunk::new(cols, plain.len())
}

/// Predicates over [`where_chunk`]: comparisons, `IS NULL`, `IN`, `CASE`,
/// `LIKE`, scalar calls that raise on some values, and leaves that are not
/// boolean (integers are truthy; text raises unless no row reaches it),
/// nested under `AND`, `OR` and `NOT`.
fn arb_where_pred() -> impl Strategy<Value = String> {
    let leaf = prop_oneof![
        Just("V > 0"),
        Just("V < 10"),
        Just("V IS NULL"),
        Just("R IS NOT NULL"),
        Just("R = 'north'"),
        Just("K IN ('alpha', 'beta', NULL)"),
        Just("K LIKE 'a%'"),
        Just("YEAR(D) = 2023"),
        Just("TO_CHAR(D, 'YYYY') = '2022'"),
        Just("D >= '2023-01-01'"),
        Just("CAST(N AS INTEGER) > 1"),
        Just("CAST(P AS INTEGER) < 3"),
        Just("N NOT IN ('x', '4y')"),
        Just("CASE WHEN R = 'north' THEN V ELSE 0 END > 0"),
        Just("CASE WHEN K = 'alpha' THEN B ELSE V > 5 END"),
        Just("COALESCE(B, V > 3)"),
        Just("B"),
        Just("V"),
        Just("MONTH(D)"),
        Just("NULL"),
        Just("K"),
        Just("UPPER(R)"),
        Just("CASE WHEN R = 'east' THEN 'x' ELSE R IS NULL END"),
    ]
    .prop_map(String::from);
    leaf.prop_recursive(3, 16, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) AND ({b})")),
            (inner.clone(), inner.clone()).prop_map(|(a, b)| format!("({a}) OR ({b})")),
            inner.prop_map(|a| format!("NOT ({a})")),
        ]
    })
}

/// `r` with its error reduced to the message.
fn message<T>(r: EngineResult<T>) -> Result<T, String> {
    r.map_err(|e| e.to_string())
}

/// Selected rows or an error message, and the scalar calls made.
type Outcome = (Result<Vec<u32>, String>, u64);

/// `select` and the TRUE positions of `truth(eval(..))` over `sel`.
fn select_both_ways(sql: &str, chunk: &DataChunk, sel: Sel<'_>) -> (Outcome, Outcome) {
    let cols: Vec<ColMeta> = WHERE_COLS
        .iter()
        .map(|c| ColMeta::new(Some("F".into()), *c))
        .collect();
    let expr = parse_expression(sql).expect("predicate parses");
    let v = vector::bind(&expr, &cols, None).expect("predicate binds");
    physical::take_counters();
    let selected = message(vector::select(&v, chunk, sel));
    let select_calls = physical::take_counters().scalar_calls;
    let truth = vector::eval(&v, chunk, sel).and_then(|a| vector::truth(&a));
    let evaluated = message(truth).map(|t| {
        (0..t.len())
            .filter(|&pos| t[pos] == Some(true))
            .map(|pos| sel.at(pos))
            .collect()
    });
    let eval_calls = physical::take_counters().scalar_calls;
    ((selected, select_calls), (evaluated, eval_calls))
}

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Boolean),
        (-2i64..3).prop_map(Value::Integer),
        Just(Value::Float(1.5)),
        Just(Value::Text("x".into())),
        Just(Value::Date(Date::new(2023, 5, 1).expect("valid date"))),
    ]
}

/// `Date::format_pattern` as it was before it wrote into its output:
/// correct on ASCII patterns only.
fn format_pattern_old(d: &Date, pattern: &str) -> EngineResult<String> {
    let mut out = String::with_capacity(pattern.len() + 4);
    let bytes = pattern.as_bytes();
    let mut i = 0;
    while i < bytes.len() {
        if pattern[i..].starts_with("YYYY") {
            out.push_str(&format!("{:04}", d.year));
            i += 4;
        } else if pattern[i..].starts_with("MM") {
            out.push_str(&format!("{:02}", d.month));
            i += 2;
        } else if pattern[i..].starts_with("DD") {
            out.push_str(&format!("{:02}", d.day));
            i += 2;
        } else if bytes[i] == b'Q' {
            out.push_str(&d.quarter().to_string());
            i += 1;
        } else if bytes[i] == b'"' {
            let rest = &pattern[i + 1..];
            match rest.find('"') {
                Some(end) => {
                    out.push_str(&rest[..end]);
                    i += end + 2;
                }
                None => {
                    return Err(genedit_sql::EngineError::execution(format!(
                        "unterminated quoted literal in TO_CHAR pattern '{pattern}'"
                    )))
                }
            }
        } else {
            out.push(bytes[i] as char);
            i += 1;
        }
    }
    Ok(out)
}

/// `Date::format_pattern` as it was before the pattern was parsed once
/// per batch: one pass over the pattern per date, multi-byte text
/// included.
fn format_pattern_per_date(d: &Date, pattern: &str) -> EngineResult<String> {
    let mut out = String::new();
    let mut rest = pattern;
    while let Some(c) = rest.chars().next() {
        let width = if rest.starts_with("YYYY") {
            out.push_str(&format!("{:04}", d.year));
            4
        } else if rest.starts_with("MM") {
            out.push_str(&format!("{:02}", d.month));
            2
        } else if rest.starts_with("DD") {
            out.push_str(&format!("{:02}", d.day));
            2
        } else if c == 'Q' {
            out.push_str(&d.quarter().to_string());
            1
        } else if c == '"' {
            match rest[1..].find('"') {
                Some(end) => {
                    out.push_str(&rest[1..1 + end]);
                    end + 2
                }
                None => {
                    return Err(genedit_sql::EngineError::execution(format!(
                        "unterminated quoted literal in TO_CHAR pattern '{pattern}'"
                    )))
                }
            }
        } else {
            out.push(c);
            c.len_utf8()
        };
        rest = &rest[width..];
    }
    Ok(out)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The parsed pattern renders every date as the per-date pass did —
    /// years below 0 and above 9999, multi-byte text, and the error of an
    /// unterminated quote — and `format_pattern` is that renderer.
    #[test]
    fn parsed_pattern_renders_as_the_per_date_pass(
        year in prop_oneof![-20_000i32..-9_000, -1_000i32..1_000, 9_000i32..20_000],
        month in 1u8..=12,
        day in 1u8..=28,
        pattern in "[YMDQ\"xü€ -]{0,14}",
    ) {
        let d = Date::new(year, month, day).expect("valid date");
        let want = message(format_pattern_per_date(&d, &pattern));
        let parsed = DatePattern::parse(&pattern).map(|p| p.render(&d));
        prop_assert_eq!(message(parsed), want.clone());
        prop_assert_eq!(message(d.format_pattern(&pattern)), want);
    }

    /// Same rows, same error, same scalar calls — over every row and over
    /// an ascending subset of them.
    #[test]
    fn select_is_the_true_rows_of_truth_of_eval(
        f_rows in arb_f_rows(),
        pred in arb_where_pred(),
        mask in prop::collection::vec(any::<bool>(), 48),
    ) {
        let chunk = where_chunk(&f_rows);
        let subset: Vec<u32> = (0..chunk.len() as u32).filter(|&i| mask[i as usize]).collect();
        for sel in [Sel::All, Sel::Idx(&subset)] {
            let ((selected, select_calls), (evaluated, eval_calls)) =
                select_both_ways(&pred, &chunk, sel);
            prop_assert_eq!(selected, evaluated, "WHERE {}", pred);
            prop_assert_eq!(select_calls, eval_calls, "scalar calls of WHERE {}", pred);
        }
    }

    /// Per entry or per row, plain or dictionary: the values the per-row
    /// loop returns, or its first error — never an error for an entry no
    /// row holds.
    #[test]
    fn truth_matches_the_per_row_loop(
        entries in prop::collection::vec(arb_value(), 1..6),
        picks in prop::collection::vec(0usize..60, 0..20),
    ) {
        let values = Arc::new(Array::from_values(entries.clone()));
        let codes: Vec<u32> = picks.iter().map(|p| (p % entries.len()) as u32).collect();
        let rows: Vec<Value> = codes.iter().map(|&c| entries[c as usize].clone()).collect();
        let want = message((0..rows.len()).map(|i| rows[i].as_bool()).collect::<EngineResult<Vec<_>>>());
        let dict = Array::dict(codes, values);
        prop_assert_eq!(message(vector::truth(&dict)), want.clone());
        prop_assert_eq!(message(vector::truth(&Array::from_values(rows))), want);
    }

    #[test]
    fn format_pattern_matches_the_old_implementation_on_ascii(
        year in -20i32..3000,
        month in 1u8..=12,
        day in 1u8..=28,
        pattern in "[YMDQ\"x -]{0,12}",
    ) {
        let d = Date::new(year, month, day).expect("valid date");
        prop_assert_eq!(message(d.format_pattern(&pattern)), message(format_pattern_old(&d, &pattern)));
    }
}

#[test]
fn truth_never_raises_for_an_entry_no_row_holds() {
    let values = Arc::new(Array::from_values(vec![
        Value::Boolean(true),
        Value::Text("x".into()),
        Value::Null,
    ]));
    let arr = Array::dict(vec![0, 2, 0, 0, 2], Arc::clone(&values));
    let t = vector::truth(&arr).expect("no row holds 'x'");
    assert_eq!(t, vec![Some(true), None, Some(true), Some(true), None]);
    let arr = Array::dict(vec![0, 2, 1, 0, 1], values);
    let err = vector::truth(&arr).expect_err("row 2 holds 'x'");
    assert_eq!(err, Value::Text("x".into()).as_bool().unwrap_err());
}

// ---------------------------------------------------------------------
// TO_CHAR compared in place
// ---------------------------------------------------------------------

/// Dates for `TO_CHAR` patterns: days that need two digits and days that
/// do not, years below 1000, below 0 and above 9999.
const TO_CHAR_DATES: [(i32, u8, u8); 8] = [
    (2022, 1, 31),
    (2022, 4, 1),
    (2022, 11, 15),
    (2023, 1, 1),
    (2023, 12, 31),
    (999, 3, 3),
    (-5, 6, 30),
    (12345, 7, 4),
];

fn pool_date(i: usize) -> Date {
    let (y, m, d) = TO_CHAR_DATES[i];
    Date::new(y, m, d).expect("valid date")
}

fn to_char_date(i: Option<usize>) -> Value {
    i.map_or(Value::Null, |i| Value::Date(pool_date(i)))
}

/// `T(D, V)`: dates with NULLs, on both sides of "fewer distinct values
/// than rows".
fn arb_to_char_rows() -> impl Strategy<Value = Vec<Option<usize>>> {
    prop_oneof![
        prop::collection::vec(arb_pick(TO_CHAR_DATES.len()), 0..6),
        prop::collection::vec(arb_pick(TO_CHAR_DATES.len()), 6..40),
    ]
}

fn to_char_db(rows: &[Option<usize>]) -> Database {
    let mut db = Database::new("to_char");
    let mut t = Table::new(
        "T",
        vec![
            Column::new("D", DataType::Date),
            Column::new("V", DataType::Integer),
        ],
    );
    for (v, &d) in rows.iter().enumerate() {
        t.push_row(vec![to_char_date(d), Value::Integer(v as i64)])
            .expect("push T row");
    }
    db.add_table(t).expect("add T");
    db
}

/// Patterns of `YYYY`, `MM`, `DD`, `Q`, quoted text with letters of both
/// cases, a bare `?` and a separator; now and then an unterminated quote,
/// which no kernel admits.
fn arb_to_char_pattern() -> impl Strategy<Value = String> {
    let token = prop_oneof![
        Just("YYYY"),
        Just("MM"),
        Just("DD"),
        Just("Q"),
        Just("\"Q\""),
        Just("\"wk\""),
        Just("?"),
        Just("-"),
    ];
    let tokens = prop::collection::vec(token, 1..5);
    (0usize..13, tokens).prop_map(|(k, t)| match k {
        0 => "YYYY\"x".to_string(),
        _ => t.concat(),
    })
}

/// A text literal near `pattern`'s rendering of date `pick`: the
/// rendering itself, its case flipped, one character more or less, its
/// last character raised by one, or empty.
fn near_miss(pattern: &str, pick: usize, how: usize) -> String {
    let date = pool_date(pick % TO_CHAR_DATES.len());
    let rendered = date.format_pattern(pattern).unwrap_or_default();
    let flip = |c: char| match c.is_ascii_uppercase() {
        true => c.to_ascii_lowercase(),
        false => c.to_ascii_uppercase(),
    };
    match how {
        0 | 1 => rendered,
        2 => rendered.chars().map(flip).collect(),
        3 => format!("{rendered}0"),
        4 => rendered
            .chars()
            .take(rendered.chars().count().saturating_sub(1))
            .collect(),
        5 => {
            let mut chars: Vec<char> = rendered.chars().collect();
            if let Some(last) = chars.last_mut() {
                *last = char::from_u32(*last as u32 + 1).unwrap_or(*last);
            }
            chars.into_iter().collect()
        }
        _ => String::new(),
    }
}

/// `TO_CHAR(D, pattern)` against literals: each of the six comparisons
/// with the literal on either side, `IN` and `NOT IN`; the literals near
/// renderings, and now and then NULL or an integer, which no kernel
/// admits.
fn arb_to_char_pred() -> impl Strategy<Value = String> {
    let literal = (0usize..8, 0usize..7, 0usize..12);
    (
        arb_to_char_pattern(),
        0usize..8,
        any::<bool>(),
        prop::collection::vec(literal, 1..4),
    )
        .prop_map(|(pattern, op, flipped, literals)| {
            let lits: Vec<String> = literals
                .iter()
                .map(|&(pick, how, kind)| match kind {
                    0 => "NULL".to_string(),
                    1 => "7".to_string(),
                    _ => format!("'{}'", near_miss(&pattern, pick, how)),
                })
                .collect();
            let call = format!("TO_CHAR(D, '{pattern}')");
            match op {
                6 => format!("{call} IN ({})", lits.join(", ")),
                7 => format!("{call} NOT IN ({})", lits.join(", ")),
                _ => {
                    let op = ["=", "<>", "<", "<=", ">", ">="][op];
                    match flipped {
                        false => format!("{call} {op} {}", lits[0]),
                        true => format!("{} {op} {call}", lits[0]),
                    }
                }
            }
        })
}

/// Where the predicate runs: projected (NULL and FALSE both visible), in
/// WHERE and under NOT, behind a conjunct on another column (dictionary
/// entries no evaluated row holds), over a CTE's plain `Date` array, and
/// in a `CASE WHEN` branch.
fn to_char_query(shape: usize, pred: &str) -> String {
    match shape {
        0 => format!("SELECT V, {pred} AS p FROM T"),
        1 => format!("SELECT V FROM T WHERE {pred}"),
        2 => format!("SELECT V FROM T WHERE NOT ({pred})"),
        3 => format!("SELECT V FROM T WHERE V > 3 AND {pred}"),
        4 => format!("WITH c AS (SELECT D, V FROM T WHERE V > 0) SELECT V, {pred} AS p FROM c"),
        _ => format!("SELECT SUM(CASE WHEN {pred} THEN V ELSE 0 END) AS s, COUNT(*) AS n FROM T"),
    }
}

/// The rows, or the error message, of `sql` on both engines.
fn both_engines(db: &Database, sql: &str) -> (Result<String, String>, Result<String, String>) {
    let vectorized = message(execute_sql(db, sql)).map(|rs| render(&rs));
    let reference = message(execute_sql_reference(db, sql)).map(|rs| render(&rs));
    (vectorized, reference)
}

/// A `D` column of `rows`, stored as `layout`: 0 a `Date` array, 1 a
/// dictionary of `Date` entries some of which no row holds; 2 and 3 the
/// same elements as an `Any` array and as a dictionary of `Any` entries,
/// which no kernel admits and so run the general path.
fn to_char_column(rows: &[Option<usize>], layout: usize) -> Arc<Array> {
    let values: Vec<Value> = rows.iter().map(|&d| to_char_date(d)).collect();
    // Every pool date and a NULL as entries, in reverse, so that rows
    // reference some of them and codes are not first-occurrence order.
    let entries: Vec<Value> = (0..=TO_CHAR_DATES.len())
        .rev()
        .map(|i| to_char_date((i < TO_CHAR_DATES.len()).then_some(i)))
        .collect();
    let code = |d: &Option<usize>| match d {
        Some(i) => (TO_CHAR_DATES.len() - i) as u32,
        None => 0,
    };
    let codes: Vec<u32> = rows.iter().map(code).collect();
    Arc::new(match layout {
        0 => Array::from_values(values),
        1 => Array::dict(codes, Arc::new(Array::from_values(entries))),
        2 => Array::Any(values),
        _ => Array::dict(codes, Arc::new(Array::Any(entries))),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Both engines return the same rows, or the same error, for every
    /// admitted `TO_CHAR` comparison and the near forms that are not.
    #[test]
    fn to_char_comparisons_agree_on_both_engines(
        rows in arb_to_char_rows(),
        pred in arb_to_char_pred(),
        shape in 0usize..6,
    ) {
        let db = to_char_db(&rows);
        let sql = to_char_query(shape, &pred);
        let (vectorized, reference) = both_engines(&db, &sql);
        prop_assert_eq!(vectorized, reference, "{}", sql);
    }

    /// Over a `Date` array and a dictionary of `Date` entries, the kernel
    /// gives the elements, and makes the scalar calls, of the general path
    /// over the same values stored in a layout it does not admit — over
    /// every row and over an ascending subset of them.
    #[test]
    fn to_char_in_place_is_the_general_path(
        rows in arb_to_char_rows(),
        pred in arb_to_char_pred(),
        mask in prop::collection::vec(any::<bool>(), 40),
    ) {
        let cols = [ColMeta::new(Some("T".into()), "D")];
        let expr = parse_expression(&pred).expect("predicate parses");
        let v = vector::bind(&expr, &cols, None).expect("predicate binds");
        let subset: Vec<u32> = (0..rows.len() as u32).filter(|&i| mask[i as usize]).collect();
        let run = |layout: usize, sel: Sel<'_>| {
            let chunk = DataChunk::new(vec![to_char_column(&rows, layout)], rows.len());
            physical::take_counters();
            let out = message(vector::eval(&v, &chunk, sel))
                .map(|a| format!("{:?}", (0..a.len()).map(|i| a.get(i)).collect::<Vec<_>>()));
            (out, physical::take_counters().scalar_calls)
        };
        for sel in [Sel::All, Sel::Idx(&subset)] {
            prop_assert_eq!(run(0, sel), run(2, sel), "{} over a Date array", pred);
            prop_assert_eq!(run(1, sel), run(3, sel), "{} over a Date dictionary", pred);
        }
    }
}

/// The scalar calls an admitted `TO_CHAR` comparison makes: once per
/// dictionary entry over a table's column, once per row over a CTE's
/// plain array and in a `CASE` branch — the counts of the call it stands
/// in for.
#[test]
fn to_char_in_place_keeps_the_scalar_calls() {
    let db = build_db(&sample_rows(), &[]);
    for (sql, calls) in [
        (
            "SELECT V FROM F WHERE TO_CHAR(D, 'YYYY\"Q\"Q') IN ('2023Q1', '2023Q2')",
            4,
        ),
        (
            "WITH c AS (SELECT D, V FROM F) SELECT V FROM c WHERE TO_CHAR(D, 'YYYY') >= '2023'",
            24,
        ),
        (
            "SELECT SUM(CASE WHEN TO_CHAR(D, 'YYYY\"Q\"Q') = '2023Q1' THEN V ELSE 0 END) FROM F",
            4,
        ),
    ] {
        let (rs, stats) = genedit_sql::execute_sql_timed(&db, sql);
        let want = execute_sql_reference(&db, sql).expect(sql);
        assert_eq!(render(&rs.expect(sql)), render(&want), "{sql}");
        assert_eq!(stats.counters.scalar_calls, calls, "{sql}");
    }
}
