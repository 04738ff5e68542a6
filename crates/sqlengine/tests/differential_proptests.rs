//! Differential property tests: vectorized engine vs the row-at-a-time
//! reference interpreter.
//!
//! Every generated query is executed twice — once through the default
//! vectorized engine and once through [`execute_sql_reference`] — and
//! the two must agree byte-for-byte: identical column names, identical
//! rows in identical order, with float values compared by exact debug
//! rendering (so `-0.0`, `NaN` and integer-valued floats cannot be
//! silently coerced). Queries that error must error on *both* engines
//! (messages may differ: the vectorized path batches evaluation, so
//! which row's error surfaces first is not pinned).
//!
//! The generated data is deliberately hostile: NULLs in every column,
//! text values containing literal `|` and `|t:` sequences (which used
//! to collide under string-joined group keys), floats including `-0.0`,
//! and join keys with duplicates and NULLs on both sides.

use genedit_sql::value::{DataType, Value};
use genedit_sql::{execute_sql, execute_sql_reference, Column, Database, Table};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Hostile data generation
// ---------------------------------------------------------------------

fn arb_opt_int() -> impl Strategy<Value = Option<i64>> {
    prop_oneof![
        Just(None),
        (-20i64..20).prop_map(Some),
        (-20i64..20).prop_map(Some),
        (-20i64..20).prop_map(Some),
    ]
}

fn arb_opt_float() -> impl Strategy<Value = Option<f64>> {
    prop_oneof![
        Just(None),
        Just(Some(0.0)),
        Just(Some(-0.0)),
        (-50.0f64..50.0).prop_map(Some),
        (-50.0f64..50.0).prop_map(Some),
    ]
}

/// Text values, biased towards strings that collide under `"|"`-joined
/// composite keys.
fn arb_opt_text() -> impl Strategy<Value = Option<String>> {
    prop_oneof![
        Just(None),
        prop_oneof![
            Just("a".to_string()),
            Just("a|b".to_string()),
            Just("a|t:b".to_string()),
            Just("b|t:c".to_string()),
            Just("t:a".to_string()),
            Just("g1".to_string()),
            Just("g2".to_string()),
            Just(String::new()),
        ]
        .prop_map(Some),
    ]
}

type TRow = (Option<i64>, Option<f64>, Option<String>, Option<i64>);
type URow = (Option<i64>, Option<String>, Option<i64>);

fn opt_int(v: Option<i64>) -> Value {
    v.map(Value::Integer).unwrap_or(Value::Null)
}

fn opt_float(v: Option<f64>) -> Value {
    v.map(Value::Float).unwrap_or(Value::Null)
}

fn opt_text(v: Option<String>) -> Value {
    v.map(Value::Text).unwrap_or(Value::Null)
}

fn build_db(t_rows: &[TRow], u_rows: &[URow]) -> Database {
    let mut db = Database::new("diff");
    let mut t = Table::new(
        "T",
        vec![
            Column::new("A", DataType::Integer),
            Column::new("B", DataType::Float),
            Column::new("C", DataType::Text),
            Column::new("K", DataType::Integer),
        ],
    );
    for (a, b, c, k) in t_rows {
        t.push_row(vec![
            opt_int(*a),
            opt_float(*b),
            opt_text(c.clone()),
            opt_int(*k),
        ])
        .expect("push T row");
    }
    db.add_table(t).expect("add T");
    let mut u = Table::new(
        "U",
        vec![
            Column::new("K", DataType::Integer),
            Column::new("D", DataType::Text),
            Column::new("E", DataType::Integer),
        ],
    );
    for (k, d, e) in u_rows {
        u.push_row(vec![opt_int(*k), opt_text(d.clone()), opt_int(*e)])
            .expect("push U row");
    }
    db.add_table(u).expect("add U");
    db
}

// ---------------------------------------------------------------------
// Query generation (rendered as SQL strings)
// ---------------------------------------------------------------------

fn arb_predicate() -> impl Strategy<Value = String> {
    prop_oneof![
        (-10i64..10).prop_map(|n| format!("A > {n}")),
        (-10i64..10).prop_map(|n| format!("A + K >= {n}")),
        (-40.0f64..40.0).prop_map(|f| format!("B < {f:.1}")),
        Just("C = 'a|b'".to_string()),
        Just("C IS NULL".to_string()),
        Just("C IS NOT NULL".to_string()),
        Just("A IN (1, 2, NULL)".to_string()),
        Just("A NOT IN (3, 4)".to_string()),
        (-10i64..0, 0i64..10).prop_map(|(lo, hi)| format!("A BETWEEN {lo} AND {hi}")),
        Just("C LIKE 'a%'".to_string()),
        Just("CASE WHEN A > 0 THEN 1 ELSE 0 END = 1".to_string()),
        (-10i64..10).prop_map(|n| format!("A > {n} AND B < 10.0")),
        (-10i64..10).prop_map(|n| format!("A = {n} OR C = 'a|t:b'")),
        Just("NOT A > 0".to_string()),
    ]
}

fn arb_plain_items() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("A, B, C".to_string()),
        Just("*".to_string()),
        Just("A + K AS s, C".to_string()),
        Just("A * 2 AS d, B".to_string()),
        Just("C, A".to_string()),
    ]
}

fn arb_agg_items() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("C, COUNT(*) AS n".to_string()),
        Just("C, SUM(A) AS s".to_string()),
        Just("C, AVG(B) AS m, MIN(A) AS lo".to_string()),
        Just("C, K, COUNT(*) AS n, MAX(B) AS hi".to_string()),
        Just("C, COUNT(DISTINCT A) AS n".to_string()),
        // Conditionally evaluated aggregates: declined by the fast
        // aggregated path, so these run the reference tail.
        Just("C, CASE WHEN COUNT(*) > 1 THEN SUM(A) END AS s".to_string()),
        Just("C, COUNT(*) > 0 AND SUM(A) > 0 AS ok".to_string()),
    ]
}

fn arb_tail() -> impl Strategy<Value = String> {
    // ORDER BY / LIMIT suffix. Ordering by position 1 keeps the suffix
    // valid for every projection shape.
    prop_oneof![
        Just(String::new()),
        Just(" ORDER BY 1".to_string()),
        Just(" ORDER BY 1 DESC".to_string()),
        (1u64..8).prop_map(|n| format!(" ORDER BY 1 LIMIT {n}")),
        (0u64..8).prop_map(|n| format!(" LIMIT {n}")),
    ]
}

/// Single-table queries over T.
fn arb_single_table_query() -> impl Strategy<Value = String> {
    (
        (any::<bool>(), arb_plain_items(), arb_agg_items()),
        (
            proptest::option::of(arb_predicate()),
            prop_oneof![
                Just(None),
                Just(Some("C".to_string())),
                Just(Some("C, K".to_string())),
            ],
            any::<bool>(),
            arb_tail(),
        ),
    )
        .prop_map(|((distinct, plain, agg), (pred, group, having, tail))| {
            let mut sql = String::from("SELECT ");
            if distinct && group.is_none() {
                sql.push_str("DISTINCT ");
            }
            match &group {
                Some(g) => {
                    // Keep the projection consistent with the grouping.
                    if g == "C" {
                        sql.push_str(&agg);
                    } else {
                        sql.push_str("C, K, COUNT(*) AS n, SUM(A) AS s");
                    }
                }
                None => sql.push_str(&plain),
            }
            sql.push_str(" FROM T");
            if let Some(p) = &pred {
                sql.push_str(&format!(" WHERE {p}"));
            }
            if let Some(g) = &group {
                sql.push_str(&format!(" GROUP BY {g}"));
                if having {
                    sql.push_str(" HAVING COUNT(*) > 1");
                }
            }
            sql.push_str(&tail);
            sql
        })
}

/// Join queries over T and U.
fn arb_join_query() -> impl Strategy<Value = String> {
    (
        prop_oneof![Just("JOIN"), Just("LEFT JOIN"),],
        prop_oneof![
            // Equi-joins take the hash path; the rest fall back to the
            // nested loop.
            Just("T.K = U.K"),
            Just("T.A = U.E"),
            Just("T.K = U.K AND T.A = U.E"),
            Just("T.C = U.D"),
            Just("T.K < U.E"),
            Just("T.K < U.K"),
            Just("T.K = U.K AND T.A > 0"),
            Just("T.K = U.K AND T.A > U.E"),
        ],
        prop_oneof![Just("T.A, U.E"), Just("T.C, U.D"), Just("T.K, U.K, T.A"),],
        proptest::option::of(arb_predicate()),
        any::<bool>(),
        arb_tail(),
    )
        .prop_map(|(kind, on, items, pred, grouped, tail)| {
            let mut sql = if grouped {
                format!("SELECT T.C, COUNT(*) AS n FROM T {kind} U ON {on}")
            } else {
                format!("SELECT {items} FROM T {kind} U ON {on}")
            };
            if let Some(p) = &pred {
                sql.push_str(&format!(" WHERE {p}"));
            }
            if grouped {
                sql.push_str(" GROUP BY T.C");
            }
            sql.push_str(&tail);
            sql
        })
}

/// Set operations and window functions.
fn arb_compound_query() -> impl Strategy<Value = String> {
    prop_oneof![
        Just("SELECT C FROM T UNION SELECT D FROM U".to_string()),
        Just("SELECT C FROM T UNION ALL SELECT D FROM U ORDER BY 1".to_string()),
        Just("SELECT C FROM T EXCEPT SELECT D FROM U".to_string()),
        Just("SELECT C FROM T INTERSECT SELECT D FROM U".to_string()),
        Just("SELECT C, ROW_NUMBER() OVER (PARTITION BY C ORDER BY A) AS rn FROM T ORDER BY 1, 2"
            .to_string()),
        Just("SELECT C, RANK() OVER (ORDER BY A) AS r FROM T ORDER BY 1, 2".to_string()),
        Just("SELECT C, SUM(A) OVER (PARTITION BY C) AS s FROM T ORDER BY 1, 2".to_string()),
        Just(
            "SELECT C, COUNT(*) AS n, RANK() OVER (ORDER BY COUNT(*) DESC) AS r FROM T \
             GROUP BY C HAVING COUNT(*) > 1 ORDER BY 1, 2"
                .to_string()
        ),
        Just(
            "WITH big AS (SELECT A, C FROM T WHERE A > 0) SELECT C, COUNT(*) AS n FROM big GROUP BY C"
                .to_string()
        ),
        Just("SELECT A FROM T WHERE A IN (SELECT E FROM U)".to_string()),
        Just("SELECT A FROM T WHERE EXISTS (SELECT 1 FROM U WHERE U.K = T.K)".to_string()),
        Just("SELECT (SELECT MAX(E) FROM U) AS m, A FROM T".to_string()),
        Just("SELECT x.C, x.n FROM (SELECT C, COUNT(*) AS n FROM T GROUP BY C) x ORDER BY 1"
            .to_string()),
    ]
}

// ---------------------------------------------------------------------
// The differential oracle
// ---------------------------------------------------------------------

/// Exact rendering of a result set: column names plus every value's
/// debug form (distinguishes `Integer(2)` from `Float(2.0)`, preserves
/// `-0.0` and `NaN`).
fn render(rs: &genedit_sql::ResultSet) -> String {
    let mut out = format!("{:?}\n", rs.columns);
    for row in &rs.rows {
        out.push_str(&format!("{row:?}\n"));
    }
    out
}

fn check_differential(db: &Database, sql: &str) -> Result<(), TestCaseError> {
    let vectorized = execute_sql(db, sql);
    let reference = execute_sql_reference(db, sql);
    match (vectorized, reference) {
        (Ok(v), Ok(r)) => {
            prop_assert_eq!(render(&v), render(&r), "engines diverged on: {}", sql);
        }
        (Err(_), Err(_)) => {} // both fail: pass (messages may differ)
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

fn arb_t_rows() -> impl Strategy<Value = Vec<TRow>> {
    prop::collection::vec(
        (
            arb_opt_int(),
            arb_opt_float(),
            arb_opt_text(),
            arb_opt_int(),
        ),
        0..25,
    )
}

fn arb_u_rows() -> impl Strategy<Value = Vec<URow>> {
    prop::collection::vec((arb_opt_int(), arb_opt_text(), arb_opt_int()), 0..15)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    #[test]
    fn single_table_queries_agree(
        t_rows in arb_t_rows(),
        sql in arb_single_table_query(),
    ) {
        let db = build_db(&t_rows, &[]);
        check_differential(&db, &sql)?;
    }

    #[test]
    fn join_queries_agree(
        t_rows in arb_t_rows(),
        u_rows in arb_u_rows(),
        sql in arb_join_query(),
    ) {
        let db = build_db(&t_rows, &u_rows);
        check_differential(&db, &sql)?;
    }

    #[test]
    fn compound_queries_agree(
        t_rows in arb_t_rows(),
        u_rows in arb_u_rows(),
        sql in arb_compound_query(),
    ) {
        let db = build_db(&t_rows, &u_rows);
        check_differential(&db, &sql)?;
    }
}

// ---------------------------------------------------------------------
// Directed NULL-semantics checks at the batch layer
// ---------------------------------------------------------------------

#[test]
fn null_group_keys_form_one_group_on_both_engines() {
    let db = build_db(
        &[
            (Some(1), None, None, Some(1)),
            (Some(2), None, None, Some(1)),
            (Some(3), None, Some("a".into()), Some(1)),
        ],
        &[],
    );
    let sql = "SELECT C, COUNT(*) AS n FROM T GROUP BY C ORDER BY 2 DESC";
    let v = execute_sql(&db, sql).expect("vectorized");
    let r = execute_sql_reference(&db, sql).expect("reference");
    assert_eq!(render(&v), render(&r));
    // NULL keys group together: one group of 2, one of 1.
    assert_eq!(v.rows.len(), 2);
    assert_eq!(v.rows[0][1], Value::Integer(2));
}

#[test]
fn null_join_keys_never_match_on_both_engines() {
    let db = build_db(
        &[
            (None, None, Some("l".into()), None),
            (Some(1), None, None, Some(7)),
        ],
        &[
            (None, Some("r".into()), Some(9)),
            (Some(7), Some("m".into()), Some(9)),
        ],
    );
    for sql in [
        "SELECT T.A, U.E FROM T JOIN U ON T.K = U.K",
        "SELECT T.A, U.E FROM T LEFT JOIN U ON T.K = U.K ORDER BY 1",
    ] {
        let v = execute_sql(&db, sql).expect("vectorized");
        let r = execute_sql_reference(&db, sql).expect("reference");
        assert_eq!(render(&v), render(&r), "diverged on {sql}");
    }
    // Inner join: only the K=7 pair matches; the NULL keys pair with nothing.
    let v = execute_sql(&db, "SELECT T.A FROM T JOIN U ON T.K = U.K").expect("run");
    assert_eq!(v.rows.len(), 1);
    assert_eq!(v.rows[0][0], Value::Integer(1));
}

#[test]
fn pipe_bearing_group_keys_agree_between_engines() {
    // ("a|t:b", "c") and ("a", "b|t:c") used to land in the same group
    // under string-joined keys.
    let db = build_db(
        &[
            (Some(1), None, Some("a|t:b".into()), Some(1)),
            (Some(2), None, Some("a".into()), Some(2)),
        ],
        &[
            (Some(1), Some("c".into()), Some(1)),
            (Some(2), Some("b|t:c".into()), Some(2)),
        ],
    );
    let sql = "SELECT T.C, U.D, COUNT(*) AS n FROM T JOIN U ON T.K = U.K \
               GROUP BY T.C, U.D ORDER BY 3 DESC, 1";
    let v = execute_sql(&db, sql).expect("vectorized");
    let r = execute_sql_reference(&db, sql).expect("reference");
    assert_eq!(render(&v), render(&r));
    // Two distinct groups, not one collided group of 2.
    assert_eq!(v.rows.len(), 2);
    assert!(v.rows.iter().all(|row| row[2] == Value::Integer(1)));
}

// ---------------------------------------------------------------------
// Error parity on every fallback edge
// ---------------------------------------------------------------------

/// One query per way the vectorized engine hands off to `reference`,
/// each comparing an integer with text on some row (pair): the error
/// must surface on both engines.
#[test]
fn fallback_edges_raise_on_both_engines() {
    let db = build_db(
        &[
            (Some(1), None, Some("a".into()), Some(1)),
            (Some(2), None, Some("a".into()), Some(1)),
        ],
        &[(Some(1), Some("d".into()), Some(1))],
    );
    for sql in [
        // WHERE that does not lower (EXISTS) → `reference::filter_rows`.
        "SELECT A FROM T WHERE EXISTS (SELECT 1 FROM U WHERE U.K = T.K) AND A < C",
        // Non-equi and mixed ON → `reference::join`.
        "SELECT T.A FROM T JOIN U ON T.A < U.D",
        "SELECT T.A FROM T LEFT JOIN U ON T.K = U.K AND T.A < U.D",
        // Window, HAVING, conditional aggregate → `reference::finish_rows`.
        "SELECT A < C AS x, ROW_NUMBER() OVER (ORDER BY A) AS rn FROM T",
        "SELECT C, COUNT(*) AS n FROM T GROUP BY C HAVING MIN(A) < MIN(C)",
        "SELECT C, CASE WHEN COUNT(*) > 1 THEN MIN(A) < MIN(C) END AS x FROM T GROUP BY C",
    ] {
        for (engine, result) in [
            ("vectorized", execute_sql(&db, sql)),
            ("reference", execute_sql_reference(&db, sql)),
        ] {
            let err = result.expect_err(sql).to_string();
            assert!(err.contains("cannot compare"), "{engine}: {err}: {sql}");
        }
    }
}
