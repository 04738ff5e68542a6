//! Helpers shared by the integration tests that build `benchmark/`'s
//! `warehouse_scan` databases.

use genedit::bird::DomainSpec;
use genedit::sql::{Database, Date, Value};

/// `db` with both fact tables replicated `factor` times, copy `k` moved
/// `2k` years back: what `benchmark/`'s `warehouse_scan` does at 40x.
pub fn replicate_facts(db: &Database, spec: &DomainSpec, factor: i32) -> Database {
    let mut scaled = db.clone();
    for (table, date_col) in [
        (spec.fact1_table, spec.fact1_date),
        (spec.fact2_table, spec.fact2_date),
    ] {
        let table = scaled.table_mut(table).expect("fact table exists");
        let date_at = table.column_index(date_col).expect("date column exists");
        let original = table.rows.clone();
        for copy in 1..factor {
            for row in &original {
                let mut row = row.clone();
                if let Value::Date(d) = &row[date_at] {
                    let shifted = Date::new(d.year - 2 * copy, d.month, d.day)
                        .expect("first of a month is valid in every year");
                    row[date_at] = Value::Date(shifted);
                }
                table.push_row(row).expect("same arity as the source row");
            }
        }
    }
    scaled
}
