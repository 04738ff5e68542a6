//! Generated SQL is untrusted input: a statement may hold any character
//! and any pattern, and both engines must answer it without panicking and
//! in time bounded by the size of the input. These pin two scalar
//! functions that once did neither — `TO_CHAR` on a pattern with a
//! non-ASCII character, and `LIKE` on a pattern with many `%`.

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
