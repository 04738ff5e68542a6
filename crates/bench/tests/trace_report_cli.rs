//! `trace_report` run as a process: it renders a flight-recorder dump
//! worst request first, and when its input cannot be read or its
//! artifact cannot be written it prints one error line and exits 1,
//! never a panic and backtrace.

use genedit_telemetry::recorder::{FlightRecorder, RecordedRequest, RecorderConfig};
use genedit_telemetry::{names, RequestVerdict, Tracer};
use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch path unique to this test process and `name`.
fn scratch(name: &str) -> PathBuf {
    std::env::temp_dir().join(format!("trace-report-cli-{}-{name}", std::process::id()))
}

fn run_recorder(path: &PathBuf) -> Output {
    Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .arg("--recorder")
        .arg(path)
        .output()
        .unwrap()
}

/// A served request as the runtime records it: its root span carries
/// the request ID the record is keyed on.
fn recorded(request_id: &str, verdict: RequestVerdict, latency_ms: f64) -> RecordedRequest {
    let tracer = Tracer::new(names::GENERATE);
    {
        let root = tracer.span(names::GENERATE);
        root.attr("request_id", request_id);
        tracer.span(names::SQL_ATTEMPT).finish();
    }
    RecordedRequest {
        request_id: request_id.to_string(),
        verdict,
        latency_ms,
        trace: tracer.finish(),
    }
}

#[test]
fn recorder_dump_renders_worst_verdict_first() {
    let recorder = FlightRecorder::new(RecorderConfig {
        keep_normal_one_in: 1,
        ..RecorderConfig::default()
    });
    // Offered best first and fastest last, so neither order nor latency
    // alone puts the panic on top.
    for (id, verdict, ms) in [
        ("req-00000000", RequestVerdict::Ok, 40.0),
        ("req-00000001", RequestVerdict::Degraded, 30.0),
        ("req-00000002", RequestVerdict::Error, 20.0),
        ("req-00000003", RequestVerdict::Panicked, 10.0),
    ] {
        recorder.record(recorded(id, verdict, ms));
    }
    let path = scratch("dump.jsonl");
    std::fs::write(&path, recorder.dump_jsonl()).unwrap();
    let out = run_recorder(&path);
    std::fs::remove_file(&path).unwrap();

    let stdout = String::from_utf8_lossy(&out.stdout);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(0), "stderr: {stderr}");
    assert!(stdout.contains("(4 records)"), "{stdout}");
    assert!(!stdout.contains("WARNING"), "{stdout}");
    let order: Vec<&str> = stdout
        .lines()
        .filter(|line| line.starts_with("req-"))
        .collect();
    assert_eq!(order.len(), 4, "{stdout}");
    for (line, (id, label)) in order.iter().zip([
        ("req-00000003", "[panicked]"),
        ("req-00000002", "[error]"),
        ("req-00000001", "[degraded]"),
        ("req-00000000", "[ok]"),
    ]) {
        assert!(line.starts_with(id) && line.contains(label), "{stdout}");
    }
    assert!(stdout.contains(names::SQL_ATTEMPT), "{stdout}");
}

#[test]
fn a_file_that_is_not_jsonl_is_one_error_line_and_exit_1() {
    let path = scratch("not-a-dump.jsonl");
    std::fs::write(&path, "this is not a flight-recorder dump\n").unwrap();
    let out = run_recorder(&path);
    std::fs::remove_file(&path).unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(stderr.starts_with("error: "), "stderr: {stderr}");
}

#[test]
fn unwritable_artifact_is_one_error_line_and_exit_1() {
    // A directory where the artifact should go makes the write fail on
    // any platform, whoever runs the test.
    let dir = scratch("artifact");
    std::fs::create_dir_all(dir.join("BENCH_telemetry.json")).unwrap();
    let out = Command::new(env!("CARGO_BIN_EXE_trace_report"))
        .current_dir(&dir)
        .output()
        .unwrap();
    std::fs::remove_dir_all(&dir).unwrap();

    let stderr = String::from_utf8_lossy(&out.stderr);
    assert_eq!(out.status.code(), Some(1), "stderr: {stderr}");
    assert_eq!(stderr.lines().count(), 1, "stderr: {stderr}");
    assert!(
        stderr.starts_with("error: could not write BENCH_telemetry.json: "),
        "stderr: {stderr}"
    );
}
