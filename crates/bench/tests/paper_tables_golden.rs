//! The paper's results, pinned: `table1 --json`, `table2 --json` and
//! `complexity_sweep` run as processes, and every non-timing leaf of
//! what they print is hashed (FNV-1a 64) against a committed digest.
//!
//! The oracle model is what these tables are made of, so a change to the
//! oracle, the pipeline or the SQL engine that moves one EX figure, one
//! task's outcome, attempt count or note, or one operator's span and
//! model-call count fails here. Timing leaves (`total_ms`, `mean_ms`) are
//! the only fields left out. `complexity_sweep` has no `--json` output;
//! its console report carries no timing, so every byte of it is hashed.
//!
//! `edit_metrics` is checked against the report instead: its stdout must
//! equal EXPERIMENTS.md's E4 block byte for byte.
//!
//! Not pinned: `improvement_curve` (about 15 s in a debug build, too slow
//! for this suite).

use genedit_telemetry::hash::fnv1a64;
use serde_json::Value;
use std::process::Command;

const TIMING_KEYS: [&str; 2] = ["total_ms", "mean_ms"];

fn run(bin: &str, args: &[&str]) -> String {
    let out = Command::new(bin).args(args).output().unwrap();
    assert!(
        out.status.success(),
        "{bin} {args:?} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    String::from_utf8(out.stdout).unwrap()
}

/// Append `path=value` for every leaf under `value` to `out`, one line
/// each, skipping timing keys.
fn leaves(value: &Value, path: &str, out: &mut String) {
    match value {
        Value::Object(fields) => {
            for (key, v) in fields {
                if !TIMING_KEYS.contains(&key.as_str()) {
                    leaves(v, &format!("{path}.{key}"), out);
                }
            }
        }
        Value::Array(items) => {
            for (i, v) in items.iter().enumerate() {
                leaves(v, &format!("{path}[{i}]"), out);
            }
        }
        leaf => out.push_str(&format!("{path}={leaf:?}\n")),
    }
}

/// The leaf count and digest of `bin --json`.
fn json_digest(bin: &str) -> (usize, String) {
    let doc: Value = serde_json::from_str(&run(bin, &["--json"])).unwrap();
    let mut lines = String::new();
    leaves(&doc, "", &mut lines);
    (
        lines.lines().count(),
        format!("{:016x}", fnv1a64(lines.as_bytes())),
    )
}

#[test]
fn table1_is_pinned() {
    assert_eq!(
        json_digest(env!("CARGO_BIN_EXE_table1")),
        (4_029, "c64bcefa7167670f".to_string())
    );
}

#[test]
fn table2_is_pinned() {
    assert_eq!(
        json_digest(env!("CARGO_BIN_EXE_table2")),
        (4_170, "7fe0200627c1a435".to_string())
    );
}

#[test]
fn complexity_sweep_is_pinned() {
    let text = run(env!("CARGO_BIN_EXE_complexity_sweep"), &[]);
    let digest = format!("{:016x}", fnv1a64(text.as_bytes()));
    assert_eq!(digest, "fc97205e5f857d77", "{text}");
}

#[test]
fn edit_metrics_matches_experiments_md() {
    let printed = run(env!("CARGO_BIN_EXE_edit_metrics"), &[]);
    let report = include_str!("../../../EXPERIMENTS.md");
    let e4 = report.split("\n## E4 ").nth(1).unwrap();
    let block = e4.split("```\n").nth(1).unwrap();
    assert_eq!(block, printed, "EXPERIMENTS.md's E4 block is stale");
}
