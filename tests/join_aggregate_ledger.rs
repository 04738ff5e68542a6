//! The rows the vectorized engine feeds its hash joins and aggregates,
//! and the column elements it copies between operators, over the 132
//! gold statements on `warehouse_scan`'s databases (both fact tables
//! replicated 40x), as exact, machine-independent counts.
//!
//! WHERE conjuncts that read one side of a join filter that side before
//! the join, so the build and probe counts are the rows that survive
//! them. A change that feeds a join or an aggregate more rows, or
//! copies more cells, fails here; one that feeds fewer updates the pin
//! and says so in CHANGES.md. The answers themselves are pinned by
//! `table_storage_golden`.

mod common;

use common::replicate_facts;
use genedit::bird::Workload;
use genedit::sql::execute_sql_timed;

#[test]
fn gold_join_and_aggregate_inputs_at_40x_are_pinned() {
    let workload = Workload::standard(42);
    let mut ledger = [0u64; 5];
    let mut statements = 0;
    for bundle in &workload.domains {
        let db = replicate_facts(&bundle.db, bundle.spec, 40);
        for task in &bundle.tasks {
            let (rs, stats) = execute_sql_timed(&db, &task.gold_sql);
            rs.expect("gold SQL executes");
            let c = stats.counters;
            let row = [
                c.hash_joins,
                c.join_build_rows,
                c.join_probe_rows,
                c.agg_rows,
                c.cells_copied,
            ];
            for (total, n) in ledger.iter_mut().zip(row) {
                *total += n;
            }
            statements += 1;
        }
    }
    assert_eq!(statements, 132);
    assert_eq!(
        ledger,
        [23, 58636, 232, 63264, 191986],
        "[hash_joins, join_build_rows, join_probe_rows, agg_rows, cells_copied]"
    );
}
