//! JSON / JSONL exporters (and importers) for traces and any other
//! serializable telemetry record. JSONL is the batch format: one trace
//! per line, so harness runs can stream thousands of generations into a
//! single file that ordinary line-oriented tooling can slice.

use crate::span::Trace;
use serde::{Deserialize, Serialize};

/// Serialization of the in-crate telemetry types cannot fail, but this
/// crate denies `unwrap`/`expect` outside tests — degrade to a JSON
/// `null` rather than panic inside instrumentation.
fn to_json_or_null<T: Serialize>(value: &T) -> String {
    serde_json::to_string(value).unwrap_or_else(|_| "null".to_string())
}

/// One trace as a JSON object.
pub fn trace_to_json(trace: &Trace) -> String {
    to_json_or_null(trace)
}

/// One trace as indented JSON, for human inspection.
pub fn trace_to_json_pretty(trace: &Trace) -> String {
    serde_json::to_string_pretty(trace).unwrap_or_else(|_| "null".to_string())
}

/// Parse a trace back from [`trace_to_json`] output.
pub fn trace_from_json(json: &str) -> Result<Trace, serde_json::Error> {
    serde_json::from_str(json)
}

/// Serialize items one-JSON-object-per-line.
pub fn to_jsonl<T: Serialize>(items: &[T]) -> String {
    let mut out = String::new();
    for item in items {
        out.push_str(&to_json_or_null(item));
        out.push('\n');
    }
    out
}

/// Parse a JSONL document produced by [`to_jsonl`]. Blank lines are
/// skipped; any malformed line is an error.
pub fn from_jsonl<T: Deserialize>(jsonl: &str) -> Result<Vec<T>, serde_json::Error> {
    jsonl
        .lines()
        .filter(|line| !line.trim().is_empty())
        .map(serde_json::from_str)
        .collect()
}

/// Traces as JSONL, one per line.
pub fn traces_to_jsonl(traces: &[Trace]) -> String {
    to_jsonl(traces)
}

/// Parse traces back from [`traces_to_jsonl`] output.
pub fn traces_from_jsonl(jsonl: &str) -> Result<Vec<Trace>, serde_json::Error> {
    from_jsonl(jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Tracer;

    fn sample_trace(tag: &str) -> Trace {
        let tracer = Tracer::new(tag);
        {
            let root = tracer.span("root");
            root.attr("q", "question")
                .attr("n", 3usize)
                .attr("x", 0.5)
                .attr("ok", true);
            tracer.span("child").finish();
            tracer.warning("careful");
        }
        tracer.finish()
    }

    #[test]
    fn json_round_trips() {
        let trace = sample_trace("t");
        let json = trace_to_json(&trace);
        let back = trace_from_json(&json).unwrap();
        assert_eq!(trace, back);
        let pretty = trace_to_json_pretty(&trace);
        assert_eq!(trace_from_json(&pretty).unwrap(), trace);
    }

    #[test]
    fn jsonl_round_trips_multiple_traces() {
        let traces = vec![sample_trace("a"), sample_trace("b"), sample_trace("c")];
        let jsonl = traces_to_jsonl(&traces);
        assert_eq!(jsonl.trim().lines().count(), 3);
        let back = traces_from_jsonl(&jsonl).unwrap();
        assert_eq!(back, traces);
        // Blank lines are tolerated.
        let padded = format!("\n{jsonl}\n\n");
        assert_eq!(traces_from_jsonl(&padded).unwrap(), traces);
    }

    #[test]
    fn malformed_line_is_an_error() {
        assert!(traces_from_jsonl("{not json}").is_err());
    }

    #[test]
    fn snapshot_serializes() {
        let m = crate::MetricsRegistry::new();
        m.incr("c", 2);
        m.observe("h", 1.5);
        let snapshot = m.snapshot();
        let jsonl = to_jsonl(std::slice::from_ref(&snapshot));
        assert!(jsonl.contains("\"c\""));
        assert!(jsonl.contains("p95"));
        let back: Vec<crate::MetricsSnapshot> = from_jsonl(&jsonl).unwrap();
        assert_eq!(back, vec![snapshot]);
    }
}
