//! `genedit-benchmark`: one workload per process, or — without
//! `--workload` — the whole suite, one child process per run.
//!
//! ```text
//! genedit-benchmark --workload gen_cold --seed 42 --seconds 20 --trace 0
//! genedit-benchmark [--seed 42] [--smoke] [--runs 1]       # all four, both passes
//! ```
//!
//! A single run prints every metric by name with its unit and, as the
//! last line of standard output, one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`. It exits non-zero
//! when an output check fails.

use genedit_benchmark::driver::{Driver, Ending};
use genedit_benchmark::layers;
use genedit_benchmark::pass::{self, SETUP_REPEATS};
use genedit_benchmark::procfs;
use genedit_benchmark::report::{self, Metric, BLOCKS};
use genedit_benchmark::spans;
use genedit_benchmark::stats;
use genedit_benchmark::verify::{self, Verdict};
use genedit_benchmark::workloads::{Kind, POOL_BUDGET_BYTES, WINDOW, WORKERS};
use serde_json::Value;
use std::io::{BufWriter, Write};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};

/// Seconds one pass measures when the caller does not say.
const DEFAULT_SECONDS: f64 = 20.0;
/// `--smoke`: the same checks in a twentieth of the time.
const SMOKE_SECONDS: f64 = DEFAULT_SECONDS / 20.0;
/// Share of a traced run's time spent on the untraced reference pass
/// that `trace.overhead_share` is measured against.
const REFERENCE_SHARE: f64 = 0.4;

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: usize,
    out: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 42,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        out: PathBuf::from("benchmark/out"),
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let mut value = |what: &str| argv.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                args.workload = Some(Kind::parse(&name).ok_or(format!("unknown workload {name}"))?);
            }
            "--seed" => {
                args.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?
            }
            "--seconds" => {
                let seconds: f64 = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(seconds > 0.0 && seconds <= 60.0) {
                    return Err("--seconds must be in (0, 60]".to_string());
                }
                args.seconds = Some(seconds);
            }
            "--trace" => {
                args.trace = match value("0 or 1")?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--runs" => {
                args.runs = value("a number")?
                    .parse()
                    .map_err(|e| format!("--runs: {e}"))?
            }
            "--out" => args.out = PathBuf::from(value("a directory")?),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(message) => {
            eprintln!("genedit-benchmark: {message}");
            return ExitCode::from(2);
        }
    };
    if let Err(err) = std::fs::create_dir_all(args.out.join("tmp")) {
        eprintln!(
            "genedit-benchmark: cannot create {}: {err}",
            args.out.display()
        );
        return ExitCode::from(2);
    }
    let seconds = args.seconds.unwrap_or(if args.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    let ok = match args.workload {
        Some(kind) if args.trace => traced_run(kind, args.seed, seconds, &args.out),
        Some(kind) => untraced_run(kind, args.seed, seconds, &args.out),
        None => suite(&args, seconds),
    };
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The checks every run must pass, beyond per-read correctness.
fn violations(kind: Kind, driver: &Driver<'_>, verdict: &Verdict) -> Vec<String> {
    let mut found = Vec::new();
    if verdict.failures() > 0 {
        found.push(format!(
            "{} of {} reads failed ({} rejected, {} shed, {} expired, {} cancelled, {} failed, \
             {} wrong SQL, {} stale)",
            verdict.failures(),
            verdict.attempted,
            verdict.rejected,
            verdict.shed,
            verdict.expired,
            verdict.cancelled,
            verdict.failed,
            verdict.sql_mismatches,
            verdict.stale_reads
        ));
    }
    if driver.pool_resident_max > POOL_BUDGET_BYTES {
        found.push(format!(
            "buffer pool held {} bytes, over its {POOL_BUDGET_BYTES}-byte budget",
            driver.pool_resident_max
        ));
    }
    // The `cached` flag on outcomes and the runtime's own counters must
    // tell the same story, and no hit may exist with caches off.
    let hits = driver
        .reads
        .iter()
        .filter(|r| matches!(r.ending, Ending::Completed { cached: true, .. }))
        .count() as u64;
    let counted = driver.counters.get("serve.cache.hit").copied().unwrap_or(0);
    if hits != counted {
        found.push(format!(
            "{hits} outcomes were flagged cached but serve.cache.hit counted {counted}"
        ));
    }
    if matches!(kind, Kind::GenCold | Kind::WarehouseScan) && hits > 0 {
        found.push(format!(
            "{} served {hits} cache hits with caches off",
            kind.name()
        ));
    }
    found
}

/// Print the verdict line, the metrics and the final JSON object.
fn finish(kind: Kind, verdict: &Verdict, metrics: &[Metric], found: &[String]) -> bool {
    report::print_metrics(metrics);
    println!(
        "attempted {}  failed {}  failed_share {:.6}",
        verdict.attempted,
        verdict.failures(),
        verdict.failed_share()
    );
    for violation in found {
        println!("VIOLATION {}: {violation}", kind.name());
    }
    let line = object([
        ("correct", Value::Bool(found.is_empty())),
        ("attempted", Value::U64(verdict.attempted as u64)),
        ("failed", Value::U64(verdict.failures() as u64)),
        ("metrics", report::metrics_to_json(metrics)),
    ]);
    println!(
        "{}",
        serde_json::to_string(&line).expect("metrics serialize")
    );
    found.is_empty()
}

/// A JSON object from `(key, value)` pairs, in the order given.
fn object<const N: usize>(fields: [(&str, Value); N]) -> Value {
    Value::Object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

fn write_json(path: &Path, doc: &Value) {
    let text = serde_json::to_string_pretty(doc).expect("document serializes");
    if let Err(err) = std::fs::write(path, text) {
        eprintln!("genedit-benchmark: cannot write {}: {err}", path.display());
    }
}

fn untraced_run(kind: Kind, seed: u64, seconds: f64, out: &Path) -> bool {
    let scratch = out.join("tmp");
    // Set-up runs several times so `setup_s` is a median; the last world
    // is the one measured.
    let mut setups = Vec::with_capacity(SETUP_REPEATS);
    let mut world = None;
    for _ in 0..SETUP_REPEATS {
        drop(world.take());
        let (built, took) = pass::set_up(kind, seed, &scratch);
        setups.push(took);
        world = Some(built);
    }
    let world = world.expect("set-up ran");
    let driver = pass::run(&world, false, seconds, BLOCKS);
    let verdict = verify::verify(&world, &driver);
    let figures = report::block_figures(&driver, &verdict);
    let end_to_end = report::end_to_end(stats::median(&setups), &figures, &verdict);
    let edit = report::edit_metrics(&driver);

    println!(
        "workload {}  seed {seed}  untraced  {seconds} s in {} blocks  workers {WORKERS}  window {WINDOW}",
        kind.name(),
        driver.blocks.len()
    );
    let committed = driver.steps.iter().filter(|s| s.committed).count();
    println!(
        "latency samples {}  tail percentile {:.3}  improvement steps {} ({} committed)",
        verdict.ok.len(),
        figures.tail_percentile,
        driver.steps.len(),
        committed
    );
    println!(
        "ops_digest {:016x}  sql_digest {:016x}  generator lateness {:.1} ms  quiet blocks {}/{}",
        world.ops_digest,
        verdict.sql_digest,
        driver.lateness_ns as f64 / 1e6,
        figures.quiet_blocks,
        driver.blocks.len()
    );
    let mut quality = vec![Metric::new("failed_share", verdict.failed_share(), "ratio")];
    if kind == Kind::EditChurn {
        quality.push(Metric::new(
            "post_edit_ex_correct_share",
            verdict.post_edit_ex_correct_share,
            "ratio",
        ));
        quality.extend(edit.iter().cloned());
    }
    report::print_metrics(&quality);
    let found = violations(kind, &driver, &verdict);
    write_json(
        &out.join(format!("{}.untraced.json", kind.name())),
        &object([
            ("end_to_end", report::metrics_to_json(&end_to_end)),
            ("edit", report::metrics_to_json(&edit)),
            ("attempted", Value::U64(verdict.attempted as u64)),
            ("failed", Value::U64(verdict.failures() as u64)),
            ("failed_share", Value::F64(verdict.failed_share())),
            (
                "post_edit_ex_correct_share",
                Value::F64(verdict.post_edit_ex_correct_share),
            ),
            ("steps_committed", Value::U64(committed as u64)),
            (
                "ops_digest",
                Value::Str(format!("{:016x}", world.ops_digest)),
            ),
            (
                "sql_digest",
                Value::Str(format!("{:016x}", verdict.sql_digest)),
            ),
            (
                "generator_lateness_ms",
                Value::F64(driver.lateness_ns as f64 / 1e6),
            ),
            ("quiet_blocks", Value::U64(figures.quiet_blocks as u64)),
            ("blocks", Value::U64(driver.blocks.len() as u64)),
            ("tail_percentile", Value::F64(figures.tail_percentile)),
        ]),
    );
    finish(kind, &verdict, &end_to_end, &found)
}

fn traced_run(kind: Kind, seed: u64, seconds: f64, out: &Path) -> bool {
    let scratch = out.join("tmp");
    // The untraced reference: same seed, same stream, its own world (a
    // pass mutates the tenant store, so the two cannot share one).
    let untraced_rps = {
        let (world, _) = pass::set_up(kind, seed, &scratch);
        let driver = pass::run(&world, false, seconds * REFERENCE_SHARE, 2);
        let verdict = verify::verify(&world, &driver);
        stats::median(&report::block_figures(&driver, &verdict).throughput_rps)
    };
    let (world, _) = pass::set_up(kind, seed, &scratch);
    let driver = pass::run(&world, true, seconds * (1.0 - REFERENCE_SHARE), 3);
    let calls = driver.model.take_calls();
    let verdict = verify::verify(&world, &driver);
    let traced_rps = stats::median(&report::block_figures(&driver, &verdict).throughput_rps);
    let layers = layers::measure(&world, &driver, &verdict, &calls, traced_rps, untraced_rps);

    let trace_path = out.join(format!("{}.trace.jsonl", kind.name()));
    match std::fs::File::create(&trace_path) {
        Ok(file) => {
            let mut file = BufWriter::new(file);
            let written = spans::write_jsonl(&mut file, &layers.spans).and_then(|()| file.flush());
            if let Err(err) = written {
                eprintln!(
                    "genedit-benchmark: cannot write {}: {err}",
                    trace_path.display()
                );
            }
        }
        Err(err) => eprintln!(
            "genedit-benchmark: cannot create {}: {err}",
            trace_path.display()
        ),
    }
    println!(
        "workload {}  seed {seed}  traced  {} requests  {} model calls  {} spans → {}",
        kind.name(),
        verdict.attempted,
        calls.len(),
        layers.spans.len(),
        trace_path.display()
    );
    let found = violations(kind, &driver, &verdict);
    write_json(
        &out.join(format!("{}.traced.json", kind.name())),
        &object([
            ("per_layer", report::metrics_to_json(&layers.metrics)),
            ("traced_attempted", Value::U64(verdict.attempted as u64)),
            ("traced_failed", Value::U64(verdict.failures() as u64)),
        ]),
    );
    finish(kind, &verdict, &layers.metrics, &found)
}

/// Every workload, untraced then traced, each in its own process, `runs`
/// times over; the results land in `<out>/results.json`.
fn suite(args: &Args, seconds: f64) -> bool {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let load = procfs::loadavg_1m();
    let git_sha = Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
        .unwrap_or_else(|| "unknown".to_string());
    let exe = std::env::current_exe().expect("own executable path");
    let mut all_ok = true;
    let mut workloads = Vec::new();
    for kind in Kind::ALL {
        let mut runs = Vec::new();
        for run in 0..args.runs {
            let mut merged = Vec::new();
            for (trace, file) in [("0", "untraced"), ("1", "traced")] {
                println!("== {} run {} {file}", kind.name(), run + 1);
                let status = Command::new(&exe)
                    .args(["--workload", kind.name(), "--trace", trace])
                    .args(["--seed", &args.seed.to_string()])
                    .args(["--seconds", &seconds.to_string()])
                    .arg("--out")
                    .arg(&args.out)
                    .status();
                all_ok &= matches!(status, Ok(s) if s.success());
                let path = args.out.join(format!("{}.{file}.json", kind.name()));
                let doc = std::fs::read_to_string(&path)
                    .ok()
                    .and_then(|text| serde_json::parse_value(&text).ok());
                match doc {
                    Some(Value::Object(fields)) => merged.extend(fields),
                    _ => all_ok = false,
                }
                let _ = std::fs::remove_file(&path);
            }
            runs.push(Value::Object(merged));
        }
        workloads.push((kind.name().to_string(), Value::Array(runs)));
    }
    let doc = object([
        ("seed", Value::U64(args.seed)),
        (
            "mode",
            Value::Str(if args.smoke { "smoke" } else { "full" }.to_string()),
        ),
        ("seconds", Value::F64(seconds)),
        ("git_sha", Value::Str(git_sha)),
        ("nproc", Value::U64(nproc as u64)),
        ("workers", Value::U64(WORKERS as u64)),
        ("window", Value::U64(WINDOW as u64)),
        ("loadavg_1m_at_start", Value::F64(load)),
        // More runnable work than cores before we even started: whatever
        // this run measures includes somebody else's load.
        ("noisy", Value::Bool(load > nproc as f64)),
        ("correct", Value::Bool(all_ok)),
        ("workloads", Value::Object(workloads)),
    ]);
    let path = args.out.join("results.json");
    write_json(&path, &doc);
    let _ = std::fs::remove_dir_all(args.out.join("tmp"));
    println!("wrote {}", path.display());
    if !all_ok {
        println!("FAILED: at least one run reported a violation");
    }
    all_ok
}
