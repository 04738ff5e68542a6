//! **Telemetry report**: renders the span tree of one full-pipeline
//! generation, prints the per-operator time/call/LLM-attribution
//! breakdown over the whole suite, and writes the structured report to
//! `BENCH_telemetry.json`.
//!
//! Run: `cargo run --release -p genedit-bench --bin trace_report [seed] [--json]`
//!
//! With `--json` the report is printed to stdout instead of (in addition
//! to the file) the human-readable tree.
//!
//! **Flight-recorder mode**: `trace_report --recorder <dump.jsonl>`
//! reads a flight-recorder dump (the JSONL a caller writes from
//! `ServeRuntime::flight_recorder()` with `FlightRecorder::dump_jsonl`)
//! and renders the panicked / errored / degraded / slowest requests with
//! a per-operator breakdown, keyed by request ID — the postmortem view
//! that joins against the tickets and traces carrying the same IDs.

use genedit_bird::Workload;
use genedit_core::{Ablation, GenEditPipeline, Harness, KnowledgeIndex};
use genedit_llm::{OracleConfig, OracleModel, TaskRegistry};
use genedit_telemetry::recorder::{dump_from_jsonl, RecordedRequest, RequestVerdict};
use genedit_telemetry::span::AttrValue;
use genedit_telemetry::{export, names, operator_breakdown, render_trace, MetricsRegistry, Tracer};
use std::sync::Arc;

/// How many requests the recorder view details, worst first.
const RECORDER_TOP: usize = 10;

fn verdict_label(v: RequestVerdict) -> &'static str {
    match v {
        RequestVerdict::Ok => "ok",
        RequestVerdict::Degraded => "degraded",
        RequestVerdict::Error => "error",
        RequestVerdict::Cancelled => "cancelled",
        RequestVerdict::Panicked => "panicked",
    }
}

/// Sort key: panics first, then errors, degraded, cancelled, plain Ok;
/// within a class, slowest first.
fn severity(v: RequestVerdict) -> u8 {
    match v {
        RequestVerdict::Panicked => 0,
        RequestVerdict::Error => 1,
        RequestVerdict::Degraded => 2,
        RequestVerdict::Cancelled => 3,
        RequestVerdict::Ok => 4,
    }
}

fn render_recorder_dump(path: &str) {
    let raw = match std::fs::read_to_string(path) {
        Ok(raw) => raw,
        Err(err) => {
            eprintln!("error: could not read {path}: {err}");
            std::process::exit(1);
        }
    };
    let mut records = match dump_from_jsonl(&raw) {
        Ok(records) => records,
        Err(err) => {
            eprintln!("error: {path} is not a flight-recorder JSONL dump: {err}");
            std::process::exit(1);
        }
    };
    println!("Flight-recorder dump: {path} ({} records)", records.len());
    let mut by_verdict: std::collections::BTreeMap<&str, usize> = Default::default();
    for r in &records {
        *by_verdict.entry(verdict_label(r.verdict)).or_default() += 1;
    }
    let counts: Vec<String> = by_verdict.iter().map(|(v, n)| format!("{n} {v}")).collect();
    println!("  {}", counts.join(", "));

    records.sort_by(|a, b| {
        severity(a.verdict).cmp(&severity(b.verdict)).then(
            b.latency_ms
                .partial_cmp(&a.latency_ms)
                .unwrap_or(std::cmp::Ordering::Equal),
        )
    });
    for record in records.iter().take(RECORDER_TOP) {
        render_recorded_request(record);
    }
    if records.len() > RECORDER_TOP {
        println!(
            "\n… {} more records (full set in {path})",
            records.len() - RECORDER_TOP
        );
    }
}

fn render_recorded_request(record: &RecordedRequest) {
    println!(
        "\n{}  [{}]  {:.3}ms end-to-end",
        record.request_id,
        verdict_label(record.verdict),
        record.latency_ms
    );
    // Joinability check: the root span should carry the same request ID
    // the recorder (and the ticket) key on.
    let span_id = record
        .trace
        .all_spans()
        .iter()
        .find_map(|s| match s.attr("request_id") {
            Some(AttrValue::Str(id)) => Some(id.clone()),
            _ => None,
        });
    match span_id {
        Some(id) if id == record.request_id => {}
        Some(id) => println!(
            "  WARNING: trace carries request_id={id}, record says {}",
            record.request_id
        ),
        None if record.trace.all_spans().is_empty() => {
            println!("  (no trace captured — request never executed)")
        }
        None => println!("  WARNING: trace carries no request_id attribute"),
    }
    let breakdown = operator_breakdown([&record.trace]);
    if breakdown.is_empty() {
        return;
    }
    println!(
        "  {:<28} {:>6} {:>12} {:>10} {:>9} {:>9}",
        "span", "calls", "total ms", "mean ms", "llm", "degraded"
    );
    for (name, stats) in &breakdown {
        println!(
            "  {:<28} {:>6} {:>12.3} {:>10.3} {:>9} {:>9}",
            name, stats.count, stats.total_ms, stats.mean_ms, stats.llm_calls, stats.degraded
        );
    }
    for w in &record.trace.warnings {
        println!("  warning: {w}");
    }
}

fn main() {
    // `--recorder <path>` switches the bin into postmortem-viewer mode;
    // everything else is the classic suite report.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if let Some(pos) = argv.iter().position(|a| a == "--recorder") {
        match argv.get(pos + 1) {
            Some(path) => {
                render_recorder_dump(path);
                return;
            }
            None => {
                eprintln!("usage: trace_report --recorder <dump.jsonl>");
                std::process::exit(2);
            }
        }
    }
    let args = genedit_bench::Args::parse();
    let seed = args.seed;
    let workload = Workload::small(seed);

    // ---- one deeply-traced generation: the span tree ------------------
    let bundle = &workload.domains[0];
    let task = bundle
        .tasks
        .iter()
        .max_by_key(|t| t.question.len())
        .expect("workload has tasks");
    let mut registry = TaskRegistry::new();
    for t in &bundle.tasks {
        registry.register(t.clone());
    }
    let oracle = OracleModel::with_config(registry, OracleConfig::default());
    let metrics = Arc::new(MetricsRegistry::default());
    let pipeline = GenEditPipeline::new(&oracle).with_metrics(Arc::clone(&metrics));

    // Trace the knowledge preprocessing stage too.
    let preprocess_tracer = Tracer::new(names::PREPROCESS);
    let ks = genedit_knowledge::build_knowledge_set_traced(
        &bundle.preprocess_config(),
        &bundle.logs,
        &bundle.docs,
        &bundle.db,
        &preprocess_tracer,
    )
    .expect("logs are valid");
    let preprocess_trace = preprocess_tracer.finish();
    let index = KnowledgeIndex::build(ks);
    let result = pipeline.generate(&task.question, &index, &bundle.db, &[]);

    // ---- suite-wide breakdown -----------------------------------------
    let harness = Harness::new(&workload);
    let report = harness.run_genedit(Ablation::None);
    let usage = harness.model_usage();

    // ---- structured report --------------------------------------------
    let doc = genedit_bench::object! {
        "artifact": "trace_report",
        "seed": seed,
        "tasks": workload.task_count(),
        "question": task.question,
        "preprocess_trace": preprocess_trace,
        "generation_trace": result.trace,
        "generation_metrics": metrics.snapshot(),
        "operators": report.operators,
        "suite_metrics": harness.metrics().snapshot(),
        "model_usage": usage.calls,
    };
    let json = serde_json::to_string_pretty(&doc).expect("report serialization is infallible");
    // The docs promise this file: a run that lost it has not succeeded.
    if let Err(err) = std::fs::write("BENCH_telemetry.json", &json) {
        eprintln!("error: could not write BENCH_telemetry.json: {err}");
        std::process::exit(1);
    }

    if args.json {
        println!("{json}");
        return;
    }

    println!("Trace of one generation ({}):\n", task.task_id);
    println!("{}", render_trace(&result.trace));
    if !result.trace.warnings.is_empty() {
        println!("warnings:");
        for w in &result.trace.warnings {
            println!("  - {w}");
        }
    }

    println!(
        "\nPer-operator breakdown over the small suite ({} tasks, method {}):",
        workload.task_count(),
        report.method
    );
    println!(
        "{:<28} {:>6} {:>12} {:>10} {:>10}",
        "span", "calls", "total ms", "mean ms", "llm calls"
    );
    for (name, stats) in &report.operators {
        println!(
            "{:<28} {:>6} {:>12.3} {:>10.3} {:>10}",
            name, stats.count, stats.total_ms, stats.mean_ms, stats.llm_calls
        );
    }

    println!("\nModel usage by task kind:");
    for (kind, calls) in &usage.calls {
        println!("  {kind:<12} {calls}");
    }
    println!("\nwrote BENCH_telemetry.json");

    // Exercise the JSONL exporter end to end so the artifact doubles as a
    // smoke test: the rendered trace must survive a round-trip.
    let jsonl = export::traces_to_jsonl(std::slice::from_ref(&result.trace));
    let back = export::traces_from_jsonl(&jsonl).expect("traces round-trip");
    assert_eq!(back.len(), 1);
    assert_eq!(
        back[0].count(names::LLM_COMPLETE),
        result.trace.count(names::LLM_COMPLETE)
    );
}
