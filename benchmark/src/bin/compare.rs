//! `compare A.json B.json`: judge candidate B against baseline A.
//!
//! Both files are `results.json` documents written by the suite. For
//! every (workload, end-to-end metric) the tool prints both medians, how
//! much worse B is, the bound, and `ok` / `regressed` / `unresolved`
//! (runs spread wider than the bound and the sides overlap). It exits 1
//! on any `regressed`, and on any mismatch of the values that must not
//! move at all for one seed: `ops_digest`, `sql_digest`, `failed_share`,
//! `ex_correct_share`, and `serve.result_cache_hit_share` (± 0.01).
//! Those are checked only when both files were produced with one seed.

use genedit_benchmark::report::{compare, EndToEnd, Judgement, EDIT_ONLY, END_TO_END};
use genedit_benchmark::stats;
use genedit_benchmark::workloads::Kind;
use serde_json::Value;
use std::process::ExitCode;

fn field<'a>(value: &'a Value, key: &str) -> Option<&'a Value> {
    value
        .as_object()?
        .iter()
        .find(|(k, _)| k == key)
        .map(|(_, v)| v)
}

fn number(value: &Value) -> Option<f64> {
    match value {
        Value::F64(x) => Some(*x),
        Value::U64(n) => Some(*n as f64),
        Value::I64(n) => Some(*n as f64),
        _ => None,
    }
}

fn runs<'a>(doc: &'a Value, workload: &str) -> &'a [Value] {
    field(doc, "workloads")
        .and_then(|w| field(w, workload))
        .and_then(Value::as_array)
        .unwrap_or(&[])
}

/// `section.metric.value` of every run.
fn metric_values(runs: &[Value], section: &str, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter_map(|run| field(field(field(run, section)?, metric)?, "value"))
        .filter_map(number)
        .collect()
}

fn load(path: &str) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    serde_json::parse_value(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let paths: Vec<String> = std::env::args().skip(1).collect();
    let [a_path, b_path] = paths.as_slice() else {
        eprintln!("usage: compare A.json B.json");
        return ExitCode::from(2);
    };
    let (a, b) = match (load(a_path), load(b_path)) {
        (Ok(a), Ok(b)) => (a, b),
        (Err(e), _) | (_, Err(e)) => {
            eprintln!("compare: {e}");
            return ExitCode::from(2);
        }
    };
    let same_seed = field(&a, "seed") == field(&b, "seed");
    let mut bad = 0usize;
    println!(
        "{:<15} {:<24} {:>12} {:>12} {:>9} {:>7} {:>7}  verdict",
        "workload", "metric", "median A", "median B", "worse by", "bound", "spread"
    );
    for kind in Kind::ALL {
        let (runs_a, runs_b) = (runs(&a, kind.name()), runs(&b, kind.name()));
        if runs_a.is_empty() || runs_b.is_empty() {
            println!("{:<15} missing from one side", kind.name());
            bad += 1;
            continue;
        }
        let edit_only: &[EndToEnd] = if kind == Kind::EditChurn {
            &EDIT_ONLY
        } else {
            &[]
        };
        let rows = END_TO_END
            .iter()
            .map(|m| ("end_to_end", m))
            .chain(edit_only.iter().map(|m| ("edit", m)));
        for (section, metric) in rows {
            let c = compare(
                metric,
                &metric_values(runs_a, section, metric.name),
                &metric_values(runs_b, section, metric.name),
            );
            let verdict = match c.judgement {
                Judgement::Ok => "ok",
                Judgement::Unresolved => "unresolved",
                Judgement::Regressed => {
                    bad += 1;
                    "regressed"
                }
            };
            println!(
                "{:<15} {:<24} {:>12.4} {:>12.4} {:>+8.1}% {:>6.1}% {:>6.1}%  {verdict}",
                kind.name(),
                metric.name,
                c.median_a,
                c.median_b,
                c.worse_by * 100.0,
                metric.bound * 100.0,
                c.spread * 100.0
            );
        }
        // Values one seed fixes exactly, whatever the machine does.
        if same_seed {
            for key in ["ops_digest", "sql_digest", "failed_share"] {
                let values = |runs: &[Value]| -> Vec<Value> {
                    runs.iter().filter_map(|r| field(r, key).cloned()).collect()
                };
                let (va, vb) = (values(runs_a), values(runs_b));
                let first = va.first();
                if va.iter().chain(&vb).any(|v| Some(v) != first) {
                    println!("{:<15} {key} differs between runs of one seed", kind.name());
                    bad += 1;
                }
            }
            let hit_share = |runs: &[Value]| {
                stats::median(&metric_values(
                    runs,
                    "per_layer",
                    "serve.result_cache_hit_share",
                ))
            };
            if (hit_share(runs_a) - hit_share(runs_b)).abs() > 0.01 {
                println!(
                    "{:<15} serve.result_cache_hit_share differs by more than 0.01",
                    kind.name()
                );
                bad += 1;
            }
        }
    }
    if bad > 0 {
        println!("{bad} regression(s) or mismatch(es)");
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
