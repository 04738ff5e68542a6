//! **SQL engine sweep**: gates the vectorized columnar executor against
//! the row-at-a-time reference interpreter.
//!
//! Two parts, each with a hard gate (violations exit nonzero):
//!
//! 1. *Throughput floors* — four synthetic workloads (wide scan,
//!    join-heavy, aggregate-heavy, and a calendar filter shaped like the
//!    gold suite's fact-table statements: a scalar call on a month
//!    column and a text predicate) timed on both engines (min of N
//!    repetitions). The vectorized engine must clear a **5x** speedup
//!    floor on each, and the two engines' results must be byte-identical
//!    on every workload query. The floor is enforced in full mode only:
//!    `--smoke` shrinks tables to a size where fixed per-query overheads
//!    dominate the timings, so its speedups are reported informationally
//!    while every correctness gate still applies.
//! 2. *Differential correctness over the gold suite* — every gold query
//!    of the standard benchmark workload (`Workload::standard`, the
//!    paper-scale 93/28/11 task mix across four domains; `--smoke` uses
//!    `Workload::small`) is executed through both engines. Results must
//!    be byte-identical: same column names, same rows in the same order
//!    (values compared by exact debug rendering, so `-0.0`, `NaN`, and
//!    Integer-vs-Float typing cannot drift), and equal EX fingerprints.
//!
//! Run: `cargo run --release -p genedit-bench --bin sql_sweep`
//! (`--smoke` shrinks the workload for CI, `--json` prints the
//! document; the JSON is always written to `BENCH_sql.json`.)

use genedit_bench::{object, Args, Report, Rng};
use genedit_bird::Workload;
use genedit_sql::value::{DataType, Date, Value as SqlValue};
use genedit_sql::{execute_sql, execute_sql_reference, Column, Database, ResultSet, Table};
use serde::Serialize;
use std::time::Instant;

const FLOOR: f64 = 5.0;

// ---------------------------------------------------------------------
// Result identity
// ---------------------------------------------------------------------

/// Exact rendering of a result set: column names plus every value's
/// debug form. Distinguishes `Integer(2)` from `Float(2.0)` and keeps
/// `-0.0` / `NaN` visible, so "byte-identical" means what it says.
fn render(rs: &ResultSet) -> String {
    let mut out = format!("{:?}\n", rs.columns);
    for row in &rs.rows {
        out.push_str(&format!("{row:?}\n"));
    }
    out
}

/// Run `sql` on both engines and require identical output (or identical
/// failure); anything else is a violation. `Some(true)` when both
/// succeeded and agree, `Some(false)` when both failed.
fn check_identical(
    db: &Database,
    sql: &str,
    label: &str,
    violations: &mut Vec<String>,
) -> Option<bool> {
    let vectorized = execute_sql(db, sql);
    let reference = execute_sql_reference(db, sql);
    let violation = match (vectorized, reference) {
        (Ok(v), Ok(r)) if render(&v) != render(&r) => "engines returned different results".into(),
        (Ok(v), Ok(r)) if v.fingerprint() != r.fingerprint() => "EX fingerprints diverged".into(),
        (Ok(_), Ok(_)) => return Some(true),
        (Err(_), Err(_)) => return Some(false),
        (Ok(_), Err(e)) => format!("vectorized succeeded but reference failed ({e})"),
        (Err(e), Ok(_)) => format!("reference succeeded but vectorized failed ({e})"),
    };
    violations.push(format!("{label}: {violation}: {sql}"));
    None
}

// ---------------------------------------------------------------------
// Part 1: throughput floors on synthetic workloads
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct BenchRow {
    workload: &'static str,
    rows: usize,
    query: &'static str,
    vectorized_ms: f64,
    reference_ms: f64,
    vectorized_rows_per_sec: f64,
    reference_rows_per_sec: f64,
    speedup: f64,
}

/// Wide table: 8 integer measure columns + a float + a selective filter
/// column, exercising the scan/filter/project pure path.
fn build_wide(rows: usize, seed: u64) -> Database {
    let mut rng = Rng::new(seed ^ 0x5ca1_ab1e);
    let mut cols = vec![Column::new("SEL", DataType::Integer)];
    for i in 0..8 {
        cols.push(Column::new(format!("M{i}"), DataType::Integer));
    }
    cols.push(Column::new("F", DataType::Float));
    let mut t = Table::new("WIDE", cols);
    for _ in 0..rows {
        let mut row = vec![SqlValue::Integer(rng.below(100) as i64)];
        for _ in 0..8 {
            row.push(SqlValue::Integer(rng.below(1_000) as i64 - 500));
        }
        row.push(SqlValue::Float(rng.f64() * 100.0));
        t.push_row(row).expect("wide row arity matches schema");
    }
    let mut db = Database::new("bench_wide");
    db.add_table(t).expect("fresh database accepts WIDE");
    db
}

/// Star pair: a fact table with a dimension key (plus NULLs and misses)
/// and a small dimension, exercising the hash equi-join.
fn build_join(fact_rows: usize, dim_rows: usize, seed: u64) -> Database {
    let mut rng = Rng::new(seed ^ 0x0dd_ba11);
    let mut dim = Table::new(
        "DIM",
        vec![
            Column::new("K", DataType::Integer),
            Column::new("NAME", DataType::Text),
        ],
    );
    for k in 0..dim_rows {
        dim.push_row(vec![
            SqlValue::Integer(k as i64),
            SqlValue::Text(format!("dim-{k}")),
        ])
        .expect("dim row arity matches schema");
    }
    let mut fact = Table::new(
        "FACT",
        vec![
            Column::new("K", DataType::Integer),
            Column::new("V", DataType::Integer),
        ],
    );
    for _ in 0..fact_rows {
        // ~2% NULL keys, ~8% dangling keys: both must behave identically
        // across engines (NULLs never match; dangling keys pad on LEFT).
        let k = match rng.below(50) {
            0 => SqlValue::Null,
            1..=4 => SqlValue::Integer((dim_rows + rng.below(100) as usize) as i64),
            _ => SqlValue::Integer(rng.below(dim_rows as u64) as i64),
        };
        fact.push_row(vec![k, SqlValue::Integer(rng.below(1_000) as i64)])
            .expect("fact row arity matches schema");
    }
    let mut db = Database::new("bench_join");
    db.add_table(dim).expect("fresh database accepts DIM");
    db.add_table(fact).expect("fresh database accepts FACT");
    db
}

/// Grouping table: a low-cardinality text group key (with `|`-bearing
/// values) and two measures, exercising hash aggregation.
fn build_agg(rows: usize, seed: u64) -> Database {
    let mut rng = Rng::new(seed ^ 0xa99_a99);
    let mut t = Table::new(
        "EVENTS",
        vec![
            Column::new("G", DataType::Text),
            Column::new("V", DataType::Integer),
            Column::new("W", DataType::Float),
        ],
    );
    for _ in 0..rows {
        let g = match rng.below(64) {
            0 => SqlValue::Null,
            1 => SqlValue::Text("g|1".to_string()),
            n => SqlValue::Text(format!("g{}", n % 24)),
        };
        t.push_row(vec![
            g,
            SqlValue::Integer(rng.below(1_000) as i64),
            SqlValue::Float(rng.f64() * 10.0),
        ])
        .expect("events row arity matches schema");
    }
    let mut db = Database::new("bench_agg");
    db.add_table(t).expect("fresh database accepts EVENTS");
    db
}

/// Fact table shaped like the warehouse's: a month column of ~1,000
/// distinct dates, a 4-value region and a 20-value text key. Every
/// fact-table gold statement filters on a scalar call over the month and
/// on a text column; the other three workloads do neither.
fn build_calendar(rows: usize, seed: u64) -> Database {
    let mut rng = Rng::new(seed ^ 0xca1e_0da7);
    let mut t = Table::new(
        "EVENTS",
        vec![
            Column::new("D", DataType::Date),
            Column::new("R", DataType::Text),
            Column::new("K", DataType::Text),
            Column::new("V", DataType::Integer),
        ],
    );
    for _ in 0..rows {
        let month = rng.below(84 * 12) as i32;
        let d = Date::new(2023 - month / 12, (month % 12) as u8 + 1, 1)
            .expect("the first of a month is a valid date");
        let r = ["north", "south", "east", "west"][rng.below(4) as usize];
        t.push_row(vec![
            SqlValue::Date(d),
            SqlValue::Text(r.to_string()),
            SqlValue::Text(format!("key-{:02}", rng.below(20))),
            SqlValue::Integer(rng.below(1_000) as i64),
        ])
        .expect("events row arity matches schema");
    }
    let mut db = Database::new("bench_calendar");
    db.add_table(t).expect("fresh database accepts EVENTS");
    db
}

/// Min-of-N wall time for one engine, in milliseconds.
fn time_query(db: &Database, sql: &str, reps: usize, reference: bool) -> f64 {
    let mut best = f64::INFINITY;
    for _ in 0..reps {
        let t0 = Instant::now();
        let out = if reference {
            execute_sql_reference(db, sql)
        } else {
            execute_sql(db, sql)
        };
        let elapsed = t0.elapsed().as_secs_f64() * 1e3;
        assert!(out.is_ok(), "bench query must succeed: {sql}");
        best = best.min(elapsed);
    }
    best
}

fn throughput(seed: u64, smoke: bool, violations: &mut Vec<String>) -> Vec<BenchRow> {
    let scale = if smoke { 1 } else { 8 };
    let reps = if smoke { 3 } else { 5 };
    let specs: Vec<(&'static str, Database, usize, &'static str)> = vec![
        (
            "wide_scan",
            build_wide(6_000 * scale, seed),
            6_000 * scale,
            "SELECT M0 + M1 AS S01, M2 * 2 AS D2, M3 - M4 AS S34, M5, M6, M7, F \
             FROM WIDE WHERE SEL < 20",
        ),
        (
            "join_heavy",
            build_join(3_000 * scale, 400 * scale, seed),
            3_000 * scale,
            "SELECT DIM.NAME, FACT.V FROM FACT JOIN DIM ON FACT.K = DIM.K WHERE FACT.V < 900",
        ),
        (
            "aggregate_heavy",
            build_agg(6_000 * scale, seed),
            6_000 * scale,
            "SELECT G, COUNT(*) AS N, SUM(V) AS SV, AVG(W) AS AW, MIN(V) AS LO, MAX(V) AS HI \
             FROM EVENTS GROUP BY G ORDER BY 2 DESC, 1",
        ),
        (
            "calendar_filter",
            build_calendar(6_000 * scale, seed),
            6_000 * scale,
            "SELECT K, SUM(V) FROM EVENTS \
             WHERE TO_CHAR(D, 'YYYY\"Q\"Q') IN ('2022Q1', '2022Q2') AND R = 'north' \
             GROUP BY K ORDER BY 2 DESC",
        ),
    ];

    let mut out = Vec::new();
    for (name, db, rows, sql) in &specs {
        // Identity first — a fast wrong answer must not pass the gate.
        check_identical(db, sql, name, violations);
        let vec_ms = time_query(db, sql, reps, false);
        let ref_ms = time_query(db, sql, reps, true);
        let speedup = ref_ms / vec_ms.max(1e-9);
        // Timing floors need full-size tables; smoke-scale runs are
        // dominated by fixed per-query overheads (see module docs).
        if !smoke && speedup < FLOOR {
            violations.push(format!(
                "{name}: vectorized speedup {speedup:.2}x is under the {FLOOR:.1}x floor \
                 ({vec_ms:.2}ms vs {ref_ms:.2}ms over {rows} rows)"
            ));
        }
        out.push(BenchRow {
            workload: name,
            rows: *rows,
            query: sql,
            vectorized_ms: vec_ms,
            reference_ms: ref_ms,
            vectorized_rows_per_sec: *rows as f64 / (vec_ms / 1e3),
            reference_rows_per_sec: *rows as f64 / (ref_ms / 1e3),
            speedup,
        });
    }
    out
}

// ---------------------------------------------------------------------
// Part 2: differential correctness over the gold suite
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct DifferentialRow {
    domains: usize,
    tasks: usize,
    identical: usize,
    both_failed: usize,
}

fn gold_differential(seed: u64, smoke: bool, violations: &mut Vec<String>) -> DifferentialRow {
    let workload = if smoke {
        Workload::small(seed)
    } else {
        Workload::standard(seed)
    };
    let mut tasks = 0usize;
    let mut identical = 0usize;
    let mut both_failed = 0usize;
    for bundle in &workload.domains {
        for task in &bundle.tasks {
            tasks += 1;
            let label = format!("gold task {}", task.task_id);
            match check_identical(&bundle.db, &task.gold_sql, &label, violations) {
                Some(true) => identical += 1,
                Some(false) => both_failed += 1,
                None => {}
            }
        }
    }
    if identical == 0 {
        violations
            .push("gold differential compared zero successful tasks — gate is vacuous".into());
    }
    DifferentialRow {
        domains: workload.domains.len(),
        tasks,
        identical,
        both_failed,
    }
}

// ---------------------------------------------------------------------
// report
// ---------------------------------------------------------------------

fn main() {
    let args = Args::parse(&["--smoke"]);
    let mut report = Report::new(&args);

    let bench = throughput(args.seed, args.smoke, &mut report.violations);
    let differential = gold_differential(args.seed, args.smoke, &mut report.violations);

    if !args.json {
        println!(
            "SQL engine sweep — seed {}, {} mode",
            args.seed,
            args.mode()
        );
        if args.smoke {
            println!(
                "\nthroughput (informational at smoke scale; {FLOOR:.1}x floor gates full mode):"
            );
        } else {
            println!("\nthroughput (floor {FLOOR:.1}x):");
        }
        for r in &bench {
            println!(
                "  {:<16} {:>7} rows  vectorized {:>8.2}ms ({:>10.0} rows/s)  \
                 reference {:>8.2}ms ({:>9.0} rows/s)  {:>6.2}x",
                r.workload,
                r.rows,
                r.vectorized_ms,
                r.vectorized_rows_per_sec,
                r.reference_ms,
                r.reference_rows_per_sec,
                r.speedup
            );
        }
        println!(
            "\ngold differential: {}/{} tasks byte-identical across {} domains \
             ({} failed on both engines)",
            differential.identical,
            differential.tasks,
            differential.domains,
            differential.both_failed
        );
    }
    let doc = object! {
        "artifact": "sql_sweep",
        "seed": args.seed,
        "mode": args.mode(),
        "speedup_floor": FLOOR,
        "speedup_floor_enforced": !args.smoke,
        "throughput": bench,
        "gold_differential": differential,
        "violations": report.violations,
    };
    report.finish("BENCH_sql.json", &doc)
}
