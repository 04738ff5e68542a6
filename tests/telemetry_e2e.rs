//! End-to-end telemetry: run the pipeline over a workload, export every
//! trace as JSONL, read it back, and confirm the round-tripped traces
//! agree with the live ones and with the harness's operator breakdown.

use genedit::bird::Workload;
use genedit::core::{Ablation, GenEditPipeline, Harness, PipelineConfig};
use genedit::telemetry::{export, names, operator_breakdown, MetricsRegistry, Trace};
use std::sync::Arc;

#[test]
fn traces_survive_a_jsonl_round_trip() {
    let w = Workload::small(42);
    let harness = Harness::new(&w);
    let indexes = harness.build_indexes(true);

    // Generate over every task, collecting live traces.
    let metrics = Arc::new(MetricsRegistry::default());
    let oracle = genedit::llm::OracleModel::new(w.registry());
    let pipeline = GenEditPipeline::with_config(&oracle, PipelineConfig::default())
        .with_metrics(Arc::clone(&metrics));
    let mut traces: Vec<Trace> = Vec::new();
    for bundle in &w.domains {
        let index = &indexes[&bundle.db.name];
        for task in &bundle.tasks {
            let result = pipeline.generate(&task.question, index, &bundle.db, &[]);
            traces.push(result.trace);
        }
    }
    assert_eq!(traces.len(), w.task_count());

    // JSONL round-trip preserves every span, attribute, and duration.
    let jsonl = export::traces_to_jsonl(&traces);
    assert_eq!(jsonl.lines().count(), traces.len());
    let back = export::traces_from_jsonl(&jsonl).expect("valid JSONL");
    assert_eq!(back.len(), traces.len());
    for (live, rt) in traces.iter().zip(&back) {
        assert_eq!(live, rt);
    }

    // The breakdown computed from round-tripped traces matches the live
    // one, and the registry agrees on call counts.
    let live_breakdown = operator_breakdown(&traces);
    let rt_breakdown = operator_breakdown(&back);
    assert_eq!(live_breakdown, rt_breakdown);
    let snapshot = metrics.snapshot();
    for (name, stats) in &live_breakdown {
        assert_eq!(
            snapshot.histograms[&format!("span.{name}.ms")].count,
            stats.count,
            "registry disagrees on {name}"
        );
    }
}

#[test]
fn harness_report_matches_trace_aggregation() {
    let w = Workload::small(7);
    let harness = Harness::new(&w);
    let report = harness.run_genedit(Ablation::None);

    // Every enabled operator has a row, with its LLM calls attributed.
    for name in [
        names::REFORMULATE,
        names::INTENT,
        names::EXAMPLES,
        names::INSTRUCTIONS,
        names::SCHEMA_LINKING,
        names::PLAN,
    ] {
        let stats = &report.operators[name];
        assert_eq!(stats.count, w.task_count(), "{name}");
    }
    // Span counts in the shared registry line up with the breakdown.
    let snapshot = harness.metrics().snapshot();
    assert_eq!(
        snapshot.histograms[&format!("span.{}.ms", names::GENERATE)].count,
        w.task_count()
    );
    // The report itself serializes and deserializes.
    let json = genedit::telemetry::export::to_jsonl(std::slice::from_ref(&report));
    let back: Vec<genedit::bird::EvalReport> =
        genedit::telemetry::export::from_jsonl(&json).expect("report round-trips");
    assert_eq!(back[0].method, report.method);
    assert_eq!(back[0].operators, report.operators);
    assert_eq!(back[0].outcomes.len(), report.outcomes.len());
}

/// How deeply arrays and objects nest in a JSON document.
fn nesting_depth(json: &str) -> usize {
    let (mut depth, mut deepest) = (0usize, 0usize);
    let (mut in_string, mut escaped) = (false, false);
    for b in json.bytes() {
        match (in_string, b) {
            (true, _) if escaped => escaped = false,
            (true, b'\\') => escaped = true,
            (true, b'"') | (false, b'"') => in_string = !in_string,
            (false, b'[' | b'{') => {
                depth += 1;
                deepest = deepest.max(depth);
            }
            (false, b']' | b'}') => depth -= 1,
            _ => {}
        }
    }
    deepest
}

/// The deepest JSON document the workspace writes is a flight-recorder
/// line: a served request's whole span tree inside its record. Every one
/// nests well inside the JSON parser's bound and reads back.
#[test]
fn recorder_dump_nests_within_the_json_depth_bound() {
    use genedit::serve::{QueryRequest, ServeConfig, ServeRuntime};
    use genedit::telemetry::recorder::RecordedRequest;
    use genedit::telemetry::RecorderConfig;

    let w = Workload::small(42);
    let bundle = &w.domains[0];
    let runtime = ServeRuntime::start(
        genedit::llm::OracleModel::new(w.registry()),
        Arc::new(genedit::core::KnowledgeIndex::build(
            bundle.build_knowledge(),
        )),
        0,
        Arc::new(bundle.db.clone()),
        ServeConfig {
            recorder: Some(RecorderConfig {
                keep_normal_one_in: 1,
                ..RecorderConfig::default()
            }),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (bundle.tasks.iter())
        .map(|t| {
            runtime
                .submit(QueryRequest::new("acme", &t.question))
                .unwrap()
        })
        .collect();
    for ticket in &tickets {
        ticket.wait();
    }
    let dump = runtime.flight_recorder().unwrap().dump_jsonl();
    runtime.shutdown();

    // 11 levels today; the bound keeps four times that in reserve.
    let deepest = dump.lines().map(nesting_depth).max().unwrap();
    assert!(deepest * 4 <= serde_json::MAX_DEPTH, "{deepest} levels");
    let back: Vec<RecordedRequest> = export::from_jsonl(&dump).expect("every line parses");
    assert_eq!(back.len(), tickets.len());
}

#[test]
fn regenerated_session_traces_accumulate() {
    // FeedbackSession records one trace per feedback round.
    let w = Workload::small(42);
    let bundle = &w.domains[0];
    let oracle = genedit::llm::OracleModel::new(w.registry());
    let pipeline = GenEditPipeline::new(&oracle);
    let ks = bundle.build_knowledge();
    let mut session = genedit::core::FeedbackSession::open(
        &pipeline,
        &bundle.db,
        &ks,
        bundle.tasks[0].question.clone(),
    );
    session.submit_feedback("the totals look wrong, only count our organizations");
    session.submit_feedback("still wrong: use the ownership flag");
    assert_eq!(session.feedback_traces().len(), 2);
    for trace in session.feedback_traces() {
        assert_eq!(trace.count(names::FEEDBACK_TARGETS), 1);
        assert_eq!(trace.count(names::FEEDBACK_EDITS), 1);
    }
    // The generation trace of the latest result also survives a JSON
    // round-trip through the single-trace exporters.
    let json = export::trace_to_json_pretty(&session.latest.trace);
    let back = export::trace_from_json(&json).expect("valid trace JSON");
    assert_eq!(back, session.latest.trace);
}
