//! # genedit-bench — paper printers
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//! `table1`, `table2`, `figure2`, `edit_metrics`, `improvement_curve`,
//! `complexity_sweep`, `cost_tiers` and `trace_report`. The shared
//! pieces are below: [`Args`] parses the command line, [`object!`]
//! builds a JSON document, and [`reports_to_json`] renders evaluation
//! reports. Regression gates live in the tier-1 tests (`cargo test`),
//! not here.

use genedit_bird::EvalReport;
use genedit_llm::Difficulty;
use serde::Serialize;
use serde_json::Value;

/// Paper-reported numbers for side-by-side display.
pub mod paper {
    /// Table 1 rows: (method, simple, moderate, challenging, all).
    pub const TABLE1: [(&str, f64, f64, f64, f64); 6] = [
        ("CHESS", 65.43, 64.81, 58.33, 64.62),
        ("MAC-SQL", 65.73, 52.69, 40.28, 59.39),
        ("TA-SQL", 63.14, 48.60, 36.11, 56.19),
        ("DAIL-SQL", 62.5, 43.2, 37.5, 54.3),
        ("C3-SQL", 58.9, 38.5, 31.9, 50.2),
        ("GenEdit", 69.89, 39.29, 36.36, 60.61),
    ];

    /// Table 2 rows: (ablation, simple, moderate, challenging, all).
    pub const TABLE2: [(&str, f64, f64, f64, f64); 6] = [
        ("GenEdit", 69.89, 39.29, 36.36, 60.61),
        ("w/o Schema Linking", 67.74, 42.86, 18.18, 58.33),
        ("w/o Instructions", 58.06, 28.57, 36.36, 50.00),
        ("w/o Examples", 69.89, 35.71, 9.09, 59.09),
        ("w/o Pseudo-SQL", 62.37, 25.00, 18.18, 50.76),
        ("w/o Decomposition", 66.67, 46.43, 18.18, 58.33),
    ];
}

/// Print the measured-vs-paper line for every report the paper's table
/// also has a row for.
pub fn print_paper_comparison(reports: &[EvalReport], paper: &[(&str, f64, f64, f64, f64)]) {
    println!("\nPaper comparison (shape check):");
    for r in reports {
        if let Some(p) = paper.iter().find(|(name, ..)| *name == r.method) {
            println!(
                "{:<22} measured {:>6.2} {:>6.2} {:>6.2} {:>6.2} | paper {:>6.2} {:>6.2} {:>6.2} {:>6.2}",
                r.method,
                r.ex(Some(Difficulty::Simple)),
                r.ex(Some(Difficulty::Moderate)),
                r.ex(Some(Difficulty::Challenging)),
                r.ex(None),
                p.1,
                p.2,
                p.3,
                p.4
            );
        }
    }
}

/// Build a JSON object, keys in the order written:
/// `object! { "seed": args.seed, "rows": rows }`. Values are anything
/// `Serialize`.
#[macro_export]
macro_rules! object {
    ($($key:literal: $value:expr),* $(,)?) => {
        ::serde_json::Value::Object(vec![
            $(($key.to_string(), ::serde::Serialize::serialize(&$value))),*
        ])
    };
}

/// Serialize a set of evaluation reports — outcomes, operator breakdowns,
/// and per-stratum EX summaries — as a pretty-printed JSON document.
pub fn reports_to_json(artifact: &str, seed: u64, tasks: usize, reports: &[EvalReport]) -> String {
    let reports: Vec<Value> = reports
        .iter()
        .map(|r| {
            let mut v = r.serialize();
            if let Value::Object(fields) = &mut v {
                let ex = object! {
                    "simple": r.ex(Some(Difficulty::Simple)),
                    "moderate": r.ex(Some(Difficulty::Moderate)),
                    "challenging": r.ex(Some(Difficulty::Challenging)),
                    "all": r.ex(None),
                };
                fields.push(("ex".to_string(), ex));
                fields.push(("mean_attempts".to_string(), Value::F64(r.mean_attempts())));
            }
            v
        })
        .collect();
    let doc = object! { "artifact": artifact, "seed": seed, "tasks": tasks, "reports": reports };
    serde_json::to_string_pretty(&doc).expect("report serialization is infallible")
}

/// A bench binary's command line: `[SEED] [--json]`, in any order.
#[derive(Debug)]
pub struct Args {
    /// Bare integer argument; 42 when absent.
    pub seed: u64,
    /// `--json`: print the artifact instead of the console tables.
    pub json: bool,
}

impl Args {
    /// Parse the process arguments. Anything else — an unknown flag, a
    /// non-numeric seed — prints the usage line and exits 2: a typo must
    /// not run on defaults and exit 0.
    pub fn parse() -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        Args::parse_from(argv).unwrap_or_else(|err| {
            eprintln!("{bin}: {err}");
            eprintln!("usage: {bin} [SEED] [--json]");
            std::process::exit(2)
        })
    }

    /// [`Args::parse`] over an explicit argument list.
    pub fn parse_from(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
        let mut parsed = Args {
            seed: 42,
            json: false,
        };
        for arg in args {
            if arg == "--json" {
                parsed.json = true;
            } else {
                parsed.seed = arg
                    .parse()
                    .map_err(|_| format!("unknown argument {arg:?}"))?;
            }
        }
        Ok(parsed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Args, String> {
        Args::parse_from(args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_accept_seed_and_json_in_any_order() {
        let args = parse(&["--json", "7"]).unwrap();
        assert_eq!((args.seed, args.json), (7, true));
        let defaults = parse(&[]).unwrap();
        assert_eq!((defaults.seed, defaults.json), (42, false));
    }

    #[test]
    fn args_reject_what_they_do_not_understand() {
        // A typo, a retired sweep flag, a stray word, a negative seed.
        for unknown in ["--jsn", "--smoke", "garbage", "-3"] {
            let err = parse(&[unknown]).unwrap_err();
            assert!(err.contains("unknown argument"), "{unknown}: {err}");
        }
    }
}
