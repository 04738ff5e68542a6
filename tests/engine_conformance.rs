//! SQL-engine conformance against the paper's Appendix-A query shape and
//! hand-computed answers over the generated data.

use genedit::bird::{generate_database, DomainSpec, SPORTS};
use genedit::sql::{execute_sql, execute_sql_reference, execute_sql_timed, Database, Date, Value};

#[test]
fn appendix_a_query_runs_on_generated_data() {
    let db = generate_database(&SPORTS, 42);
    // The paper's Appendix-A structure, adapted to the generated schema
    // (FIN_MONTH/VIEW_MONTH are DATE, ownership flag column renamed).
    let sql = r#"
    WITH
    FINANCIALS AS (
      SELECT ORG_NAME,
        SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY"Q"Q') = '2023Q1' THEN REVENUE ELSE 0 END) AS REVENUE_2023Q1,
        SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY"Q"Q') = '2023Q2' THEN REVENUE ELSE 0 END) AS REVENUE_2023Q2
      FROM SPORTS_FINANCIALS
      WHERE TO_CHAR(FIN_MONTH, 'YYYY"Q"Q') IN ('2023Q1', '2023Q2')
        AND COUNTRY = 'Canada'
        AND OWNERSHIP_FLAG = 'COC'
      GROUP BY ORG_NAME
    ),
    VIEWERSHIP AS (
      SELECT ORG_NAME,
        SUM(CASE WHEN TO_CHAR(VIEW_MONTH, 'YYYY"Q"Q') = '2023Q1' THEN VIEWS ELSE 0 END) AS VIEWS_2023Q1,
        SUM(CASE WHEN TO_CHAR(VIEW_MONTH, 'YYYY"Q"Q') = '2023Q2' THEN VIEWS ELSE 0 END) AS VIEWS_2023Q2
      FROM SPORTS_VIEWERSHIP
      WHERE TO_CHAR(VIEW_MONTH, 'YYYY"Q"Q') IN ('2023Q1', '2023Q2')
        AND COUNTRY = 'Canada'
        AND OWNERSHIP_FLAG = 'COC'
      GROUP BY ORG_NAME
    ),
    CHANGE_IN_REVENUE AS (
      SELECT
        f.ORG_NAME,
        CAST(f.REVENUE_2023Q2 AS FLOAT) / NULLIF(v.VIEWS_2023Q2, 0) AS RPV,
        CAST(f.REVENUE_2023Q1 AS FLOAT) / NULLIF(v.VIEWS_2023Q1, 0) AS PRIOR_QTR_RPV,
        (CAST(f.REVENUE_2023Q2 AS FLOAT) / NULLIF(v.VIEWS_2023Q2, 0) -
         CAST(f.REVENUE_2023Q1 AS FLOAT) / NULLIF(v.VIEWS_2023Q1, 0)) AS RPV_CHANGE,
        ROW_NUMBER() OVER (ORDER BY (-1 * (
          CAST(f.REVENUE_2023Q2 AS FLOAT) / NULLIF(v.VIEWS_2023Q2, 0) -
          CAST(f.REVENUE_2023Q1 AS FLOAT) / NULLIF(v.VIEWS_2023Q1, 0)))) AS SPORT_RANK,
        ROW_NUMBER() OVER (ORDER BY (-1 * (
          CAST(f.REVENUE_2023Q2 AS FLOAT) / NULLIF(v.VIEWS_2023Q2, 0) -
          CAST(f.REVENUE_2023Q1 AS FLOAT) / NULLIF(v.VIEWS_2023Q1, 0))) DESC) AS WORST_SPORT_RANK
      FROM FINANCIALS f
      JOIN VIEWERSHIP v ON f.ORG_NAME = v.ORG_NAME
    )
    SELECT SPORT_RANK, ORG_NAME, RPV, PRIOR_QTR_RPV, RPV_CHANGE
    FROM CHANGE_IN_REVENUE
    WHERE SPORT_RANK <= 5 OR WORST_SPORT_RANK <= 5
    ORDER BY SPORT_RANK
    "#;
    let rs = execute_sql(&db, sql).expect("Appendix-A query executes");
    assert!(!rs.rows.is_empty());
    assert_eq!(rs.columns.len(), 5);
    // Ranks are positive and ascending in the output.
    let ranks: Vec<i64> = rs.rows.iter().map(|r| r[0].as_i64().unwrap()).collect();
    let mut sorted = ranks.clone();
    sorted.sort();
    assert_eq!(ranks, sorted);
    assert!(ranks[0] >= 1);
    // RPV ratios are small positive floats (revenue per viewer).
    for row in &rs.rows {
        if let Value::Float(rpv) = &row[2] {
            assert!(*rpv > 0.0 && *rpv < 1.0, "implausible RPV {rpv}");
        }
    }
}

#[test]
fn quarter_pivot_is_consistent_with_direct_filtering() {
    // SUM(CASE WHEN quarter THEN x ELSE 0) over the year must equal the
    // direct SUM over that quarter.
    let db = generate_database(&SPORTS, 42);
    let pivot = execute_sql(
        &db,
        "SELECT SUM(CASE WHEN TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q2' THEN REVENUE ELSE 0 END) \
         FROM SPORTS_FINANCIALS",
    )
    .unwrap();
    let direct = execute_sql(
        &db,
        "SELECT SUM(REVENUE) FROM SPORTS_FINANCIALS WHERE TO_CHAR(FIN_MONTH, 'YYYY\"Q\"Q') = '2023Q2'",
    )
    .unwrap();
    assert!(pivot.ex_equal(&direct));
}

#[test]
fn left_join_antijoin_equals_not_in() {
    let db = generate_database(&SPORTS, 42);
    let left_join = execute_sql(
        &db,
        "SELECT e.ORG_NAME FROM SPORTS_ORGS e \
         LEFT JOIN SPORTS_VIEWERSHIP v ON e.ORG_NAME = v.ORG_NAME \
         WHERE v.VIEWS IS NULL ORDER BY e.ORG_NAME",
    )
    .unwrap();
    let not_in = execute_sql(
        &db,
        "SELECT ORG_NAME FROM SPORTS_ORGS \
         WHERE ORG_NAME NOT IN (SELECT ORG_NAME FROM SPORTS_VIEWERSHIP) ORDER BY ORG_NAME",
    )
    .unwrap();
    assert!(left_join.ex_equal(&not_in));
    assert!(!left_join.rows.is_empty());
}

#[test]
fn window_rank_agrees_with_order_limit() {
    let db = generate_database(&SPORTS, 42);
    let via_window = execute_sql(
        &db,
        "WITH T AS (SELECT ORG_NAME, SUM(REVENUE) AS R FROM SPORTS_FINANCIALS GROUP BY ORG_NAME), \
         RANKED AS (SELECT ORG_NAME, R, ROW_NUMBER() OVER (ORDER BY R DESC, ORG_NAME) AS RNK FROM T) \
         SELECT ORG_NAME, R FROM RANKED WHERE RNK <= 5 ORDER BY RNK",
    )
    .unwrap();
    let via_limit = execute_sql(
        &db,
        "SELECT ORG_NAME, SUM(REVENUE) AS R FROM SPORTS_FINANCIALS \
         GROUP BY ORG_NAME ORDER BY R DESC, ORG_NAME LIMIT 5",
    )
    .unwrap();
    assert!(via_window.ex_equal(&via_limit));
}

#[test]
fn aggregates_respect_flag_partition() {
    // SUM(all) == SUM(COC) + SUM(EXT) — the partition behind the "our"
    // corruption's observability.
    let db = generate_database(&SPORTS, 42);
    let total = execute_sql(&db, "SELECT SUM(REVENUE) FROM SPORTS_FINANCIALS").unwrap();
    let parts = execute_sql(
        &db,
        "SELECT (SELECT SUM(REVENUE) FROM SPORTS_FINANCIALS WHERE OWNERSHIP_FLAG = 'COC') + \
                (SELECT SUM(REVENUE) FROM SPORTS_FINANCIALS WHERE OWNERSHIP_FLAG = 'EXT')",
    )
    .unwrap();
    assert!(total.ex_equal(&parts));
}

#[test]
fn union_of_flag_slices_recovers_entities() {
    let db = generate_database(&SPORTS, 42);
    let all = execute_sql(&db, "SELECT ORG_NAME FROM SPORTS_ORGS").unwrap();
    let union = execute_sql(
        &db,
        "SELECT ORG_NAME FROM SPORTS_ORGS WHERE OWNERSHIP_FLAG = 'COC' \
         UNION SELECT ORG_NAME FROM SPORTS_ORGS WHERE OWNERSHIP_FLAG = 'EXT'",
    )
    .unwrap();
    assert!(all.ex_equal(&union));
}

#[test]
fn gold_suite_is_identical_on_both_engines() {
    let workload = genedit::bird::Workload::standard(42);
    let mut compared = 0;
    for bundle in &workload.domains {
        for task in &bundle.tasks {
            let vectorized = execute_sql(&bundle.db, &task.gold_sql).expect("gold SQL executes");
            let reference =
                execute_sql_reference(&bundle.db, &task.gold_sql).expect("gold SQL executes");
            // Debug rendering keeps `Integer(2)` and `Float(2.0)` apart.
            assert_eq!(
                format!("{vectorized:?}"),
                format!("{reference:?}"),
                "task {}: {}",
                task.task_id,
                task.gold_sql
            );
            compared += 1;
        }
    }
    assert_eq!(compared, 132);
}

/// `db` with both fact tables replicated `factor` times, copy `k` moved
/// `2k` years back: what `benchmark/`'s `warehouse_scan` does at 40x.
/// Questions about 2022–23 keep their answers while every text column
/// gains rows per distinct value and the month column gains values.
fn replicate_facts(db: &Database, spec: &DomainSpec, factor: i32) -> Database {
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

/// The regime `warehouse_scan` measures, where tier-1 can see it: with
/// the fact tables at 8x every dictionary has far fewer entries than
/// rows, so the gold statements run the per-distinct kernels.
#[test]
fn gold_suite_is_identical_on_both_engines_with_facts_replicated() {
    let workload = genedit::bird::Workload::standard(42);
    let mut compared = 0;
    for bundle in &workload.domains {
        let db = replicate_facts(&bundle.db, bundle.spec, 8);
        for task in &bundle.tasks {
            let vectorized = execute_sql(&db, &task.gold_sql).expect("gold SQL executes");
            let reference = execute_sql_reference(&db, &task.gold_sql).expect("gold SQL executes");
            assert_eq!(
                format!("{vectorized:?}"),
                format!("{reference:?}"),
                "task {}: {}",
                task.task_id,
                task.gold_sql
            );
            compared += 1;
        }
    }
    assert_eq!(compared, 132);
}

/// Pins the traffic the two-tier planner was sized on: over the gold
/// suite only window calls reach the reference tail.
#[test]
fn gold_queries_without_windows_never_leave_the_columnar_tiers() {
    let workload = genedit::bird::Workload::standard(42);
    let (mut windowed, mut fallbacks) = (0, 0);
    for bundle in &workload.domains {
        for task in &bundle.tasks {
            let (rs, stats) = execute_sql_timed(&bundle.db, &task.gold_sql);
            rs.expect("gold SQL executes");
            if task.gold_sql.contains(" OVER (") {
                windowed += 1;
                fallbacks += stats.counters.interpreter_fallbacks;
            } else {
                assert_eq!(
                    stats.counters.interpreter_fallbacks, 0,
                    "task {} fell back to the reference tail: {}",
                    task.task_id, task.gold_sql
                );
            }
        }
    }
    // One fallback per window-carrying SELECT body, and nothing else.
    assert_eq!((windowed, fallbacks), (11, 11));
}

/// The SQL slice of the work ledger: what the vectorized engine *does*
/// for the 132 gold statements on the four seed databases, as exact,
/// machine-independent counts. A change that does more work per
/// statement fails here; one that does less updates the pin and says so
/// in CHANGES.md. The first six say which plan ran over which rows;
/// `scalar_calls` is the per-element work of the expression kernel.
#[test]
fn gold_suite_work_ledger_is_pinned() {
    let workload = genedit::bird::Workload::standard(42);
    let mut ledger = [0u64; 7];
    for bundle in &workload.domains {
        for task in &bundle.tasks {
            let (rs, stats) = execute_sql_timed(&bundle.db, &task.gold_sql);
            rs.expect("gold SQL executes");
            let c = stats.counters;
            let row = [
                c.rows_scanned,
                c.batches,
                c.hash_joins,
                c.nested_loop_joins,
                c.agg_groups,
                c.interpreter_fallbacks,
                c.scalar_calls,
            ];
            for (total, n) in ledger.iter_mut().zip(row) {
                *total += n;
            }
        }
    }
    assert_eq!(
        ledger,
        [50896, 277, 23, 0, 658, 11, 2820],
        "[rows_scanned, batches, hash_joins, nested_loop_joins, agg_groups, \
         interpreter_fallbacks, scalar_calls]"
    );
}
