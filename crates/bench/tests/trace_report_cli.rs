//! `trace_report` run as a process: when its artifact cannot be written
//! it prints one error line and exits 1, never a panic and backtrace.

use std::process::Command;

#[test]
fn unwritable_artifact_is_one_error_line_and_exit_1() {
    // A directory where the artifact should go makes the write fail on
    // any platform, whoever runs the test.
    let dir = std::env::temp_dir().join(format!("trace-report-cli-{}", std::process::id()));
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
