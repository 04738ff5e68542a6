//! # genedit-bench — experiment harness
//!
//! One binary per paper artifact (see DESIGN.md's experiment index):
//! `table1`, `table2`, `figure2`, `edit_metrics`, `improvement_curve`,
//! `complexity_sweep`; and one per gated sweep (`*_sweep`). A sweep is
//! its workload plus the scaffolding below: [`Args`] parses the command
//! line, [`Report`] owns the violation list, the `BENCH_*.json` artifact
//! and the exit code, [`Harness`] is the sports-domain serving fixture,
//! and [`object!`] with `#[derive(Serialize)]` rows builds the document.

use genedit_bird::{DomainBundle, EvalReport, SPORTS};
use genedit_core::KnowledgeIndex;
use genedit_llm::{
    CompletionRequest, CompletionResponse, Difficulty, LanguageModel, ModelError, OracleConfig,
    OracleModel, TaskRegistry,
};
use genedit_serve::{QueryRequest, ServeConfig, ServeRuntime};
use genedit_telemetry::HistogramSummary;
use serde::Serialize;
use serde_json::Value;
use std::sync::Arc;
use std::time::Duration;

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

// ---------------------------------------------------------------------
// Sweep scaffolding
// ---------------------------------------------------------------------

/// A bench binary's command line: `[SEED] [--json]` plus the flags the
/// binary declares.
#[derive(Debug)]
pub struct Args {
    /// Bare integer argument; 42 when absent.
    pub seed: u64,
    /// `--smoke`, where declared: the CI-sized workload.
    pub smoke: bool,
    /// `--json`: print the artifact instead of the console tables.
    pub json: bool,
    given: Vec<(&'static str, u64)>,
}

impl Args {
    /// Parse the process arguments. `spec` declares the binary's own
    /// flags: `"--requests N"` takes a non-negative integer, `"--smoke"`
    /// is a switch. An unknown flag, a missing value or a non-numeric
    /// value prints the accepted flags and exits 2 — a typo must not run
    /// the full sweep on defaults and exit 0.
    pub fn parse(spec: &[&'static str]) -> Args {
        let mut argv = std::env::args();
        let bin = argv.next().unwrap_or_default();
        Args::parse_from(spec, argv).unwrap_or_else(|err| {
            let flags: Vec<String> = spec.iter().map(|f| format!(" [{f}]")).collect();
            eprintln!("{bin}: {err}");
            eprintln!("usage: {bin} [SEED] [--json]{}", flags.concat());
            std::process::exit(2)
        })
    }

    /// [`Args::parse`] over an explicit argument list.
    pub fn parse_from(
        spec: &[&'static str],
        args: impl IntoIterator<Item = String>,
    ) -> Result<Args, String> {
        let mut parsed = Args {
            seed: 42,
            smoke: false,
            json: false,
            given: Vec::new(),
        };
        let mut args = args.into_iter();
        while let Some(arg) = args.next() {
            let declared = spec.iter().find_map(|entry| {
                let (flag, takes_value) = match entry.split_once(' ') {
                    Some((flag, _)) => (flag, true),
                    None => (*entry, false),
                };
                (flag == arg).then_some((flag, takes_value))
            });
            match (arg.as_str(), declared) {
                ("--json", _) => parsed.json = true,
                (_, Some((flag, false))) => parsed.given.push((flag, 1)),
                (_, Some((flag, true))) => {
                    let value = args.next().ok_or(format!("{flag} needs a value"))?;
                    let value = value.parse().map_err(|_| {
                        format!("{flag} needs a non-negative integer, got {value:?}")
                    })?;
                    parsed.given.push((flag, value));
                }
                (other, None) => {
                    parsed.seed = other
                        .parse()
                        .map_err(|_| format!("unknown argument {other:?}"))?;
                }
            }
        }
        parsed.smoke = parsed.has("--smoke");
        Ok(parsed)
    }

    /// The value given for a declared `"--flag N"`, if it was given.
    pub fn value(&self, flag: &str) -> Option<u64> {
        let given = self.given.iter().rev().find(|(f, _)| *f == flag);
        given.map(|(_, value)| *value)
    }

    /// Whether a declared switch was given.
    pub fn has(&self, flag: &str) -> bool {
        self.value(flag).is_some()
    }

    /// The artifact's `mode` leaf.
    pub fn mode(&self) -> &'static str {
        if self.smoke {
            "smoke"
        } else {
            "full"
        }
    }
}

/// A sweep's verdict: parts push into `violations`, [`Report::finish`]
/// writes the artifact and turns the list into the exit code.
pub struct Report {
    pub violations: Vec<String>,
    json: bool,
}

impl Report {
    pub fn new(args: &Args) -> Report {
        Report {
            violations: Vec::new(),
            json: args.json,
        }
    }

    /// Write `doc` to `artifact`, print it (`--json`) or the verdict, and
    /// exit: 1 on any violation, and 1 when the artifact could not be
    /// written — CI uploads it and the docs promise it, so a sweep that
    /// lost it has not succeeded.
    pub fn finish(self, artifact: &str, doc: &Value) -> ! {
        let json = serde_json::to_string_pretty(doc).expect("report serialization is infallible");
        let written = std::fs::write(artifact, &json);
        if self.json {
            println!("{json}");
        } else if self.violations.is_empty() {
            println!("\nall gates held");
        } else {
            println!("\nVIOLATIONS:");
            for v in &self.violations {
                println!("  - {v}");
            }
        }
        match &written {
            Ok(()) if !self.json => println!("wrote {artifact}"),
            Ok(()) => {}
            Err(err) => eprintln!("error: could not write {artifact}: {err}"),
        }
        std::process::exit(i32::from(written.is_err() || !self.violations.is_empty()))
    }
}

/// The serving sweeps' fixture: the sports domain, its knowledge index,
/// and an oracle with every stochastic failure channel off, so answers
/// are a function of the knowledge alone and admit byte comparison.
pub struct Harness {
    pub bundle: DomainBundle,
    pub index: Arc<KnowledgeIndex>,
    pub oracle: Arc<OracleModel>,
}

impl Harness {
    pub fn build(seed: u64) -> Harness {
        let bundle = DomainBundle::build(&SPORTS, (8, 7, 3), seed);
        let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
        let mut reg = TaskRegistry::new();
        for t in &bundle.tasks {
            reg.register(t.clone());
        }
        let oracle = OracleModel::with_config(
            reg,
            OracleConfig {
                noise_rate: 0.0,
                pseudo_drift_probability: 0.0,
                drift_probability: 0.0,
                canonical_form_penalty: 0.0,
                ..Default::default()
            },
        );
        Harness {
            bundle,
            index,
            oracle: Arc::new(oracle),
        }
    }

    /// Question `i` of the domain, wrapping around.
    pub fn question(&self, i: usize) -> &str {
        &self.bundle.tasks[i % self.bundle.tasks.len()].question
    }

    /// The seeded multi-tenant request stream: three tenants round-robin
    /// over the domain's questions, deterministically.
    pub fn request(&self, i: usize) -> QueryRequest {
        QueryRequest::new(format!("tenant-{}", i % 3), self.question(i))
    }

    /// A serving runtime over this fixture's index and database.
    pub fn serve<M: LanguageModel + 'static>(
        &self,
        model: M,
        config: ServeConfig,
    ) -> ServeRuntime<M> {
        ServeRuntime::start(
            model,
            Arc::clone(&self.index),
            0,
            Arc::new(self.bundle.db.clone()),
            config,
        )
    }

    /// The oracle behind a simulated remote round trip.
    pub fn remote(&self, latency: Duration) -> RemoteLatencyModel {
        RemoteLatencyModel {
            inner: Arc::clone(&self.oracle),
            latency,
        }
    }
}

/// Wraps the oracle with a fixed per-call latency, standing in for the
/// network round trip of a remote LLM: the paper's pipeline spends its
/// wall time in GPT-4o calls, so worker scaling, hedging and the
/// observability budget are only meaningful when requests spend their
/// time *waiting*.
pub struct RemoteLatencyModel {
    inner: Arc<OracleModel>,
    latency: Duration,
}

impl LanguageModel for RemoteLatencyModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        std::thread::sleep(self.latency);
        self.inner.complete(request)
    }
}

/// xorshift64*: tiny, seeded, and good enough to fill tables and shape
/// distributions.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed.max(1))
    }

    pub fn next_u64(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        self.0 = x;
        x.wrapping_mul(0x2545_f491_4f6c_dd1d)
    }

    pub fn below(&mut self, n: u64) -> u64 {
        self.next_u64() % n
    }

    /// Uniform in [0, 1).
    pub fn f64(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    /// Approximate standard normal (Irwin–Hall over 12 uniforms).
    pub fn normal(&mut self) -> f64 {
        (0..12).map(|_| self.f64()).sum::<f64>() - 6.0
    }
}

/// A [`HistogramSummary`] as the artifacts render it — every field but
/// `sum` — so row structs can hold one and still `#[derive(Serialize)]`.
pub struct Hist(pub HistogramSummary);

impl Hist {
    pub fn from_samples(samples: &[f64]) -> Hist {
        Hist(HistogramSummary::from_samples(samples))
    }
}

impl std::ops::Deref for Hist {
    type Target = HistogramSummary;

    fn deref(&self) -> &HistogramSummary {
        &self.0
    }
}

impl Serialize for Hist {
    fn serialize(&self) -> Value {
        object! {
            "count": self.count,
            "mean": self.mean,
            "min": self.min,
            "max": self.max,
            "p50": self.p50,
            "p95": self.p95,
            "p99": self.p99,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(spec: &[&'static str], args: &[&str]) -> Result<Args, String> {
        Args::parse_from(spec, args.iter().map(|a| a.to_string()))
    }

    #[test]
    fn args_accept_seed_smoke_json_and_declared_flags() {
        let spec = ["--smoke", "--requests N", "--spikes"];
        let args = parse(&spec, &["--smoke", "7", "--requests", "24", "--spikes"]).unwrap();
        assert_eq!((args.seed, args.smoke, args.json), (7, true, false));
        assert_eq!(args.value("--requests"), Some(24));
        assert!(args.has("--spikes"));
        assert_eq!(args.mode(), "smoke");

        let defaults = parse(&spec, &["--json"]).unwrap();
        assert_eq!(
            (defaults.seed, defaults.smoke, defaults.json),
            (42, false, true)
        );
        assert_eq!(defaults.value("--requests"), None);
        assert!(!defaults.has("--spikes"));
        assert_eq!(defaults.mode(), "full");
    }

    #[test]
    fn args_reject_what_they_do_not_understand() {
        let spec = ["--smoke", "--requests N"];
        // A typo, the retired spelling, and another sweep's flag.
        for unknown in ["--smok", "--quick", "--points", "garbage", "-3"] {
            let err = parse(&spec, &[unknown]).unwrap_err();
            assert!(err.contains("unknown argument"), "{unknown}: {err}");
        }
        // `--smoke` exists only where a binary declares it.
        assert!(parse(&[], &["--smoke"]).is_err());
        let err = parse(&spec, &["--requests"]).unwrap_err();
        assert!(err.contains("needs a value"), "{err}");
        let err = parse(&spec, &["--requests", "abc"]).unwrap_err();
        assert!(err.contains("non-negative integer"), "{err}");
    }

    #[test]
    fn hist_renders_every_field_but_sum() {
        let Value::Object(fields) = Hist::from_samples(&[1.0, 2.0, 3.0]).serialize() else {
            panic!("a histogram renders as an object");
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["count", "mean", "min", "max", "p50", "p95", "p99"]);
        assert_eq!(fields[0].1, Value::U64(3));
    }
}
