//! Generated SQL is untrusted input: a statement may hold any character
//! and any pattern, and both engines must answer it without panicking and
//! in time bounded by the size of the input. These pin two scalar
//! functions that once did neither — `TO_CHAR` on a pattern with a
//! non-ASCII character, and `LIKE` on a pattern with many `%` — the
//! three rules that keep a WHERE conjunct from moving below a join where
//! it would change the answer or the error, and the edges of scanning
//! only the columns a SELECT names: a name used in one clause only, an
//! outer name used only in a subquery, wildcards, ambiguous and unknown
//! names, and joins that name no column at all.

use genedit_sql::functions::sql_like;
use genedit_sql::value::{DataType, Date, Value};
use genedit_sql::{execute_sql, execute_sql_reference, Column, Database, Table};
use proptest::prelude::*;

fn retail() -> Database {
    let mut db = Database::new("retail_chain");
    let mut t = Table::new(
        "RETAIL_SALES",
        vec![
            Column::new("SALES_MONTH", DataType::Date),
            Column::new("SALES_AMT", DataType::Integer),
        ],
    );
    for (i, month) in [1, 2, 2, 7, 1, 2, 7, 1].into_iter().enumerate() {
        let day = Date::new(2022, month, 1).expect("valid date");
        t.push_row(vec![Value::Date(day), Value::Integer(i as i64)])
            .expect("push row");
    }
    db.add_table(t).expect("add table");
    db
}

/// The rows of `sql` on both engines, which must agree.
fn both(db: &Database, sql: &str) -> Vec<Vec<Value>> {
    let vectorized = execute_sql(db, sql).expect(sql);
    let reference = execute_sql_reference(db, sql).expect(sql);
    assert_eq!(vectorized.rows, reference.rows, "{sql}");
    vectorized.rows
}

/// The error of `sql` on both engines, which must agree.
fn both_fail(db: &Database, sql: &str) -> String {
    let vectorized = execute_sql(db, sql).expect_err(sql).to_string();
    let reference = execute_sql_reference(db, sql).expect_err(sql).to_string();
    assert_eq!(vectorized, reference, "{sql}");
    vectorized
}

/// `ORGS(ID, NAME)` with ids 1–3, and `FACTS(ID, NAME, X)` whose `X`
/// holds numbers, a NULL and, on a row that joins no org, text.
fn orgs_and_facts() -> Database {
    let mut db = Database::new("joins");
    let mut orgs = Table::new(
        "ORGS",
        vec![
            Column::new("ID", DataType::Integer),
            Column::new("NAME", DataType::Text),
        ],
    );
    for (id, name) in [(1, "a"), (2, "b"), (3, "c")] {
        orgs.push_row(vec![Value::Integer(id), name.into()])
            .expect("push row");
    }
    db.add_table(orgs).expect("add table");
    let mut facts = Table::new(
        "FACTS",
        vec![
            Column::new("ID", DataType::Integer),
            Column::new("NAME", DataType::Text),
            Column::new("X", DataType::Integer),
        ],
    );
    let x = [
        Value::Integer(10),
        Value::Null,
        Value::Integer(3),
        Value::Text("ten".into()),
    ];
    for (id, x) in [1, 2, 3, 9].into_iter().zip(x) {
        facts
            .push_row(vec![Value::Integer(id), "f".into(), x])
            .expect("push row");
    }
    db.add_table(facts).expect("add table");
    db
}

#[test]
fn a_conjunct_on_a_mixed_type_column_stays_above_the_join() {
    // Row 9's text never meets `> 5`: it joins no org. Filtering FACTS
    // first would compare it, and raise.
    let db = orgs_and_facts();
    let rows = both(
        &db,
        "SELECT o.NAME, f.X FROM ORGS o JOIN FACTS f ON o.ID = f.ID WHERE f.X > 5",
    );
    assert_eq!(
        rows,
        vec![vec![Value::Text("a".into()), Value::Integer(10)]]
    );
}

#[test]
fn a_conjunct_on_the_null_supplying_side_stays_above_a_left_join() {
    // Filtering FACTS first would pad every org instead of keeping the
    // one whose fact is NULL.
    let db = orgs_and_facts();
    let rows = both(
        &db,
        "SELECT o.ID FROM ORGS o LEFT JOIN FACTS f ON o.ID = f.ID \
         WHERE o.ID < 3 AND f.X IS NULL",
    );
    assert_eq!(rows, vec![vec![Value::Integer(2)]]);
}

#[test]
fn a_column_ambiguous_in_the_join_is_not_resolved_on_one_side() {
    // `NAME` is unique in each table and ambiguous in their join.
    let db = orgs_and_facts();
    let err = both_fail(
        &db,
        "SELECT o.ID FROM ORGS o JOIN FACTS f ON o.ID = f.ID WHERE NAME = 'a'",
    );
    assert!(err.contains("ambiguous"), "{err}");
}

fn text(s: &str) -> Value {
    Value::Text(s.into())
}

#[test]
fn a_column_named_only_in_order_by_is_scanned() {
    let db = orgs_and_facts();
    let rows = both(
        &db,
        "SELECT o.NAME FROM ORGS o JOIN FACTS f ON o.ID = f.ID ORDER BY f.X DESC",
    );
    assert_eq!(
        rows,
        vec![vec![text("a")], vec![text("c")], vec![text("b")]]
    );
    let rows = both(&db, "SELECT NAME FROM ORGS ORDER BY ID DESC LIMIT 1");
    assert_eq!(rows, vec![vec![text("c")]]);
}

#[test]
fn an_outer_column_named_only_in_a_subquery_is_scanned() {
    let db = orgs_and_facts();
    // `o.ID` appears only inside the correlated scalar subquery.
    let rows = both(
        &db,
        "SELECT o.NAME, (SELECT MAX(f.X) FROM FACTS f WHERE f.ID = o.ID) AS x \
         FROM ORGS o ORDER BY o.NAME",
    );
    let want = [
        ("a", Value::Integer(10)),
        ("b", Value::Null),
        ("c", Value::Integer(3)),
    ];
    let want: Vec<Vec<Value>> = want.into_iter().map(|(n, x)| vec![text(n), x]).collect();
    assert_eq!(rows, want);
    // …and only inside EXISTS.
    let rows = both(
        &db,
        "SELECT o.NAME FROM ORGS o \
         WHERE EXISTS (SELECT 1 FROM FACTS f WHERE f.ID = o.ID AND f.X IS NOT NULL)",
    );
    assert_eq!(rows, vec![vec![text("a")], vec![text("c")]]);
}

#[test]
fn wildcards_over_a_join_carry_every_column() {
    let db = orgs_and_facts();
    let on = "FROM ORGS o JOIN FACTS f ON o.ID = f.ID WHERE o.ID = 1";
    let rows = both(&db, &format!("SELECT * {on}"));
    let fact = [Value::Integer(1), text("f"), Value::Integer(10)];
    let mut all = vec![Value::Integer(1), text("a")];
    all.extend(fact.clone());
    assert_eq!(rows, vec![all]);
    let rows = both(&db, &format!("SELECT f.* {on}"));
    assert_eq!(rows, vec![fact.to_vec()]);
    let rows = both(&db, &format!("SELECT o.NAME, f.* {on}"));
    assert_eq!(rows[0].len(), 4);
}

#[test]
fn a_name_on_both_sides_used_in_one_grouping_clause_stays_ambiguous() {
    let db = orgs_and_facts();
    let join = "FROM ORGS o JOIN FACTS f ON o.ID = f.ID";
    for sql in [
        format!("SELECT COUNT(*) {join} GROUP BY NAME"),
        format!("SELECT o.ID, COUNT(*) {join} GROUP BY o.ID HAVING MIN(NAME) > 'a'"),
    ] {
        let err = both_fail(&db, &sql);
        assert!(
            err.contains("ambiguous column reference NAME"),
            "{sql}: {err}"
        );
    }
}

#[test]
fn joins_that_name_no_column_keep_their_rows() {
    let db = orgs_and_facts();
    let rows = both(
        &db,
        "SELECT COUNT(*) FROM ORGS o JOIN FACTS f ON o.ID = f.ID",
    );
    assert_eq!(rows, vec![vec![Value::Integer(3)]]);
    let rows = both(&db, "SELECT 1 FROM ORGS o JOIN FACTS f ON o.ID = f.ID");
    assert_eq!(rows, vec![vec![Value::Integer(1)]; 3]);
    let rows = both(&db, "SELECT COUNT(*) FROM ORGS CROSS JOIN FACTS");
    assert_eq!(rows, vec![vec![Value::Integer(12)]]);
}

#[test]
fn an_unknown_column_in_a_grouped_join_fails_alike() {
    let db = orgs_and_facts();
    let err = both_fail(
        &db,
        "SELECT o.NAME, SUM(f.NOPE) FROM ORGS o JOIN FACTS f ON o.ID = f.ID GROUP BY o.NAME",
    );
    assert!(err.contains("no such column f.NOPE"), "{err}");
}

#[test]
fn to_char_copies_a_non_ascii_pattern_character() {
    let db = retail();
    let rows = both(
        &db,
        "SELECT TO_CHAR(SALES_MONTH, 'YYYYé') FROM RETAIL_SALES LIMIT 1",
    );
    assert_eq!(rows, vec![vec![Value::Text("2022é".into())]]);
    let rows = both(
        &db,
        "SELECT DISTINCT TO_CHAR(SALES_MONTH, 'é-MM \"Qé\"Q ü') AS m \
         FROM RETAIL_SALES ORDER BY m",
    );
    let want = ["é-01 Qé1 ü", "é-02 Qé1 ü", "é-07 Qé3 ü"];
    let want: Vec<Vec<Value>> = want
        .iter()
        .map(|s| vec![Value::Text(s.to_string())])
        .collect();
    assert_eq!(rows, want);
    // Per distinct month in a WHERE, too.
    let rows = both(
        &db,
        "SELECT COUNT(*) FROM RETAIL_SALES WHERE TO_CHAR(SALES_MONTH, 'YYYY→MM') = '2022→02'",
    );
    assert_eq!(rows, vec![vec![Value::Integer(3)]]);
}

/// The recursive matcher `sql_like` replaced: exponential in the number
/// of `%` on a text it cannot match.
fn like_recursive(text: &str, pattern: &str) -> bool {
    fn matches(t: &[char], p: &[char]) -> bool {
        match (t.first(), p.first()) {
            (_, None) => t.is_empty(),
            (_, Some('%')) => {
                if matches(t, &p[1..]) {
                    return true;
                }
                !t.is_empty() && matches(&t[1..], p)
            }
            (None, Some(_)) => false,
            (Some(_), Some('_')) => matches(&t[1..], &p[1..]),
            (Some(tc), Some(pc)) => tc == pc && matches(&t[1..], &p[1..]),
        }
    }
    let t: Vec<char> = text.chars().collect();
    let p: Vec<char> = pattern.chars().collect();
    matches(&t, &p)
}

fn arb_string(max: usize) -> impl Strategy<Value = String> {
    let c = prop_oneof![Just('a'), Just('b'), Just('é'), Just('%'), Just('_')];
    prop::collection::vec(c, 0..max).prop_map(|cs| cs.into_iter().collect())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4096))]

    #[test]
    fn like_matches_the_recursive_matcher(text in arb_string(10), pattern in arb_string(8)) {
        prop_assert_eq!(
            sql_like(&text, &pattern),
            like_recursive(&text, &pattern),
            "{:?} LIKE {:?}", text, pattern
        );
    }
}

#[test]
fn like_with_many_wildcards_runs_in_polynomial_time() {
    let n = 10_000;
    let text = "a".repeat(n);
    assert!(!sql_like(&text, "%a%a%a%a%a%a%a%a%b"));
    assert!(sql_like(&text, "%a%a%a%a%a%a%a%a%"));
    assert!(sql_like(&text, "a%_a%a%a%a%a%a%a"));
    // Through both engines, once per row of a column.
    let mut db = Database::new("untrusted");
    let mut t = Table::new("T", vec![Column::new("S", DataType::Text)]);
    for s in [text.clone(), format!("{text}b"), "ab".into()] {
        t.push_row(vec![Value::Text(s)]).expect("push row");
    }
    db.add_table(t).expect("add table");
    let rows = both(
        &db,
        "SELECT LENGTH(S) FROM T WHERE S LIKE '%a%a%a%a%a%a%a%a%b'",
    );
    assert_eq!(rows, vec![vec![Value::Integer(n as i64 + 1)]]);
}
