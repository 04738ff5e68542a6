//! Golden pin for what a table holds: the serialized form of the four
//! standard databases, and the answers of the 132 gold statements on the
//! databases `benchmark/`'s `warehouse_scan` scans (both fact tables
//! replicated 40x).
//!
//! `engine_conformance` holds the two engines to each other; a storage
//! change that both engines read through would pass it. These digests
//! hold the storage itself: the JSON every byte of which comes from the
//! stored rows, a JSON round trip, and the `Debug` form of every result
//! of the vectorized engine. Run it before and after touching
//! `crates/sqlengine/src/catalog.rs` or `array.rs`.

mod common;

use common::replicate_facts;
use genedit::bird::Workload;
use genedit::sql::{execute_sql, execute_sql_reference, Database};
use genedit::telemetry::hash::{fnv1a64, fnv1a64_from};

#[test]
fn standard_databases_serialize_to_pinned_json_and_round_trip() {
    let workload = Workload::standard(42);
    let mut digests = Vec::new();
    for bundle in &workload.domains {
        let json = serde_json::to_string(&bundle.db).expect("a database serializes");
        digests.push((bundle.db.name.clone(), json.len(), fnv1a64(json.as_bytes())));
        let back: Database = serde_json::from_str(&json).expect("its own JSON parses");
        let again = serde_json::to_string(&back).expect("a database serializes");
        assert_eq!(again, json, "{}: JSON round trip", bundle.db.name);
        for table in bundle.db.tables() {
            let sql = format!("SELECT * FROM {}", table.name);
            assert_eq!(
                format!("{:?}", execute_sql(&back, &sql)),
                format!("{:?}", execute_sql(&bundle.db, &sql)),
                "{}.{}: a deserialized table answers as the original",
                bundle.db.name,
                table.name
            );
        }
    }
    let got: Vec<String> = digests
        .iter()
        .map(|(name, len, fnv)| format!("{name} {len} {fnv:016x}"))
        .collect();
    assert_eq!(got, PINNED_JSON, "the serialized standard databases moved");
}

const PINNED_JSON: [&str; 4] = [
    "sports_holding 102707 c0db57c306fff594",
    "retail_chain 101087 b84b0f9f57b6107d",
    "health_network 100170 b44a0754317366e9",
    "logistics_network 104553 7a98c3684bc2ee9c",
];

#[test]
fn gold_results_on_facts_replicated_40x_are_pinned() {
    let workload = Workload::standard(42);
    let mut digest = fnv1a64(b"gold@40x");
    let mut statements = 0;
    for bundle in &workload.domains {
        let db = replicate_facts(&bundle.db, bundle.spec, 40);
        for task in &bundle.tasks {
            let got = format!("{:?}", execute_sql(&db, &task.gold_sql));
            digest = fnv1a64_from(digest, got.as_bytes());
            digest = fnv1a64_from(digest, b"\n");
            statements += 1;
        }
    }
    assert_eq!(statements, 132);
    assert_eq!(
        format!("{digest:016x}"),
        PINNED_GOLD_40X,
        "a gold answer on the 40x databases moved"
    );
}

const PINNED_GOLD_40X: &str = "53cf91c4a4d87a45";

/// A row of the wrong width in the JSON is refused, as `push_row` refuses
/// it. Read as it was, the short row answered `SELECT B` with a NULL on
/// the vectorized engine and panicked the reference engine.
#[test]
fn deserialized_rows_of_the_wrong_width_are_refused() {
    let json = r#"{"name":"d","tables":[{"name":"T","columns":[{"name":"A","data_type":"Integer","description":null},{"name":"B","data_type":"Integer","description":null}],"rows":[[{"Integer":1},{"Integer":2}],[{"Integer":3}]],"description":null}]}"#;
    let err = serde_json::from_str::<Database>(json).expect_err("row 2 has one value");
    assert!(
        err.to_string()
            .contains("row arity 1 does not match table T with 2 columns"),
        "{err}"
    );
    let fixed = json.replace(r#"[{"Integer":3}]"#, r#"[{"Integer":3},{"Integer":4}]"#);
    let db: Database = serde_json::from_str(&fixed).expect("both rows have two values");
    assert_eq!(serde_json::to_string(&db).expect("serializes"), fixed);
    let sql = "SELECT A, B FROM T WHERE B IS NULL OR B > 0";
    let want = "Ok(ResultSet { columns: [\"A\", \"B\"], rows: [[Integer(1), Integer(2)], [Integer(3), Integer(4)]] })";
    assert_eq!(format!("{:?}", execute_sql(&db, sql)), want);
    assert_eq!(format!("{:?}", execute_sql_reference(&db, sql)), want);
}
