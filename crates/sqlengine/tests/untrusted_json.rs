//! A database file is untrusted input: the bytes of a saved `Database`
//! may be truncated or corrupted on disk, and nothing holds a decoded
//! value to its column's type. Decoding must never panic, and a database
//! that does decode must answer `SELECT *` on every one of its tables
//! identically on both engines.

use genedit_sql::value::{DataType, Date, Value};
use genedit_sql::{execute_sql, execute_sql_reference, Column, Database, Table};
use proptest::prelude::*;

/// A database of one table, `SALES`, with a column of every type.
fn sales(rows: Vec<Vec<Value>>) -> Database {
    let columns = [
        ("ID", DataType::Integer),
        ("AMOUNT", DataType::Float),
        ("REGION", DataType::Text),
        ("PAID", DataType::Boolean),
        ("MONTH", DataType::Date),
    ];
    let columns = columns.map(|(name, ty)| Column::new(name, ty)).to_vec();
    let mut table = Table::new("SALES", columns);
    for row in rows {
        table.push_row(row).expect("five values");
    }
    let mut db = Database::new("shop");
    db.add_table(table).expect("one table");
    db
}

/// A value of any type, whatever column it lands in.
fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        Just(Value::Null),
        any::<i64>().prop_map(Value::Integer),
        (-64i64..64).prop_map(|n| Value::Float(n as f64 / 8.0)),
        "[a-z7 ]{0,4}".prop_map(Value::Text),
        any::<bool>().prop_map(Value::Boolean),
        (1990i32..2030, 1u8..13, 1u8..29)
            .prop_map(|(y, m, d)| Value::Date(Date::new(y, m, d).expect("valid date"))),
    ]
}

/// A result or its error, rendered exactly: column names plus every
/// value's debug form.
fn answer(result: genedit_sql::EngineResult<genedit_sql::ResultSet>) -> Result<String, String> {
    result
        .map(|rs| format!("{:?}\n{:?}", rs.columns, rs.rows))
        .map_err(|e| e.to_string())
}

/// Decode `json`; when it decodes, both engines must answer `SELECT *`
/// on every table alike. Returns whether it decoded.
fn check(json: &str) -> Result<bool, TestCaseError> {
    let Ok(db) = serde_json::from_str::<Database>(json) else {
        return Ok(false);
    };
    for table in db.tables() {
        let sql = format!("SELECT * FROM \"{}\"", table.name);
        let vectorized = answer(execute_sql(&db, &sql));
        let reference = answer(execute_sql_reference(&db, &sql));
        prop_assert_eq!(vectorized, reference, "engines diverged on: {}", sql);
    }
    Ok(true)
}

/// Bytes that keep a corrupted file close to JSON.
const JSON_BYTES: &[u8] = b"-+.eE\"\\{}[],: ntrufalsNIDTFB";

/// A replacement byte: a digit half the time, a byte of `JSON_BYTES` a
/// quarter of the time, and any byte else.
fn arb_byte() -> impl Strategy<Value = u8> {
    any::<u8>().prop_map(|b| match b {
        0..=127 => b'0' + b % 10,
        128..=191 => JSON_BYTES[usize::from(b) % JSON_BYTES.len()],
        _ => b.wrapping_mul(31),
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_never_panic(bytes in prop::collection::vec(arb_byte(), 0..256)) {
        check(&String::from_utf8_lossy(&bytes))?;
    }

    /// Most flips land on a digit, so that many corrupted files still
    /// decode. One file in eight is also truncated, and one in eight
    /// loses the text from a comma to the next `,` or `]`: often one
    /// element of a list, such as one value of a row.
    #[test]
    fn a_corrupted_database_that_decodes_answers_alike_on_both_engines(
        rows in prop::collection::vec(prop::collection::vec(arb_value(), 5), 0..6),
        flips in prop::collection::vec((any::<bool>(), any::<usize>(), arb_byte()), 0..4),
        cut in (0u8..8, any::<usize>()),
    ) {
        let intact = flips.is_empty() && cut.0 > 1;
        let mut bytes = serde_json::to_string(&sales(rows)).expect("serializes").into_bytes();
        let digits: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i].is_ascii_digit()).collect();
        for (on_digit, at, byte) in flips {
            let at = match digits.len() {
                n if on_digit && n > 0 => digits[at % n],
                _ => at % bytes.len(),
            };
            bytes[at] = byte;
        }
        let commas: Vec<usize> = (0..bytes.len()).filter(|&i| bytes[i] == b',').collect();
        match cut.0 {
            0 => bytes.truncate(cut.1 % (bytes.len() + 1)),
            1 if !commas.is_empty() => {
                let from = commas[cut.1 % commas.len()];
                let to = (from + 1..bytes.len())
                    .find(|&i| matches!(bytes[i], b',' | b']'))
                    .unwrap_or(bytes.len());
                bytes.drain(from..to);
            }
            _ => {}
        }
        let decoded = check(&String::from_utf8_lossy(&bytes))?;
        prop_assert!(decoded || !intact, "an intact file must decode");
    }
}

/// `SALES` holding one row dated `date`, its saved form, and the text of
/// that date inside it.
fn dated(date: Date) -> (Database, String, String) {
    let row = vec![
        Value::Integer(1),
        Value::Float(2.5),
        Value::Text("north".to_string()),
        Value::Boolean(true),
        Value::Date(date),
    ];
    let db = sales(vec![row]);
    let json = serde_json::to_string(&db).expect("serializes");
    let field = serde_json::to_string(&date).expect("serializes");
    assert!(json.contains(&field), "{field} not in {json}");
    (db, json, field)
}

/// A date is decoded through `Date::new`, so a saved database cannot
/// carry a month or day out of range into `TO_CHAR`, whose `Q` would
/// compute `month - 1` on it.
#[test]
fn an_out_of_range_date_is_refused_on_decode() {
    let leap = Date::new(2024, 2, 29).expect("a leap day");
    let (built, json, field) = dated(leap);
    let back: Date = serde_json::from_str(&field).expect("a leap day decodes");
    assert_eq!(back, leap);
    let decoded: Database = serde_json::from_str(&json).expect("a leap day decodes");
    let quarter = "SELECT TO_CHAR(MONTH, 'YYYY-MM-DD \"Q\"Q') FROM SALES";
    let answered = answer(execute_sql(&decoded, quarter));
    assert_eq!(answered, answer(execute_sql(&built, quarter)));
    assert!(answered.expect("answers").contains("2024-02-29 Q1"));
    for (year, month, day) in [(2022, 0, 1), (2022, 13, 1), (2022, 1, 0), (2023, 2, 29)] {
        let bad = format!(r#"{{"year":{year},"month":{month},"day":{day}}}"#);
        let err = serde_json::from_str::<Date>(&bad).expect_err("out of range");
        assert!(err.to_string().contains("invalid"), "{bad}: {err}");
        let err = serde_json::from_str::<Database>(&json.replace(&field, &bad))
            .expect_err("a database holding an out-of-range date is refused");
        assert!(err.to_string().contains("invalid"), "{bad}: {err}");
    }
}
