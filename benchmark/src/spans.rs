//! The benchmark's own span recorder.
//!
//! Nothing in the program under test is instrumented for this: spans
//! are recorded (a) around calls the benchmark makes into a crate's
//! public functions, (b) by [`SpanModel`], a `LanguageModel` decorator
//! the benchmark hands to `ServeRuntime::start`, and (c) from timings
//! the public API already returns. Spans stay in memory during a run
//! and are written as JSON lines when it ends.

use genedit_llm::{
    kind_label, CompletionRequest, CompletionResponse, LanguageModel, ModelError, OracleModel,
};
use std::collections::HashMap;
use std::io::{self, Write};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// One timed interval. `request` groups the spans of one served request
/// (0 for work outside any request); `parent` is the `id` of the span
/// that caused this one (0 for a root).
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub request: u64,
    pub id: u64,
    pub parent: u64,
    pub name: String,
    pub start_us: f64,
    pub end_us: f64,
}

impl Span {
    /// Span length in microseconds.
    pub fn duration_us(&self) -> f64 {
        (self.end_us - self.start_us).max(0.0)
    }
}

/// Self time of every span: its duration minus the part of its interval
/// covered by its direct children (overlapping children are merged, and
/// children are clipped to the parent, so self time is never negative).
/// Returned in the order of `spans`.
pub fn self_times_us(spans: &[Span]) -> Vec<f64> {
    let mut children: HashMap<u64, Vec<(f64, f64)>> = HashMap::new();
    for s in spans.iter().filter(|s| s.parent != 0) {
        children
            .entry(s.parent)
            .or_default()
            .push((s.start_us, s.end_us));
    }
    spans
        .iter()
        .map(|s| {
            let Some(kids) = children.get_mut(&s.id) else {
                return s.duration_us();
            };
            kids.sort_by(|a, b| a.0.total_cmp(&b.0));
            let mut covered = 0.0;
            let mut cursor = s.start_us;
            for &(start, end) in kids.iter() {
                let start = start.max(cursor);
                let end = end.min(s.end_us);
                if end > start {
                    covered += end - start;
                    cursor = end;
                }
            }
            (s.duration_us() - covered).max(0.0)
        })
        .collect()
}

/// Write spans as one JSON object per line.
pub fn write_jsonl(out: &mut impl Write, spans: &[Span]) -> io::Result<()> {
    for s in spans {
        writeln!(
            out,
            "{{\"request\":{},\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_us\":{:.3},\"end_us\":{:.3}}}",
            s.request, s.id, s.parent, s.name, s.start_us, s.end_us
        )?;
    }
    Ok(())
}

/// One model call as seen from outside the program: for which kind of
/// task, over which interval, and a hash of the prompt's question so the
/// call can be matched to the request that was in service at the time.
#[derive(Debug, Clone)]
pub struct ModelCall {
    pub kind: &'static str,
    pub question_hash: u64,
    /// Length of the rendered prompt, as `RecordingModel` counts it.
    pub prompt_chars: usize,
    pub start_us: f64,
    pub end_us: f64,
}

/// The `LanguageModel` handed to the serving runtime: the bare oracle,
/// plus — in a traced run only — a record of every call. Untraced runs
/// construct it with `calls: None` and pay one branch per call.
pub struct SpanModel {
    inner: Arc<OracleModel>,
    origin: Instant,
    calls: Option<Mutex<Vec<ModelCall>>>,
}

impl SpanModel {
    /// Wrap `inner`; record calls (timed from `origin`) iff `traced`.
    pub fn new(inner: Arc<OracleModel>, origin: Instant, traced: bool) -> SpanModel {
        SpanModel {
            inner,
            origin,
            calls: traced.then(|| Mutex::new(Vec::new())),
        }
    }

    /// Drain the recorded calls (empty when untraced).
    pub fn take_calls(&self) -> Vec<ModelCall> {
        match &self.calls {
            Some(calls) => std::mem::take(&mut *calls.lock().expect("span log lock")),
            None => Vec::new(),
        }
    }
}

impl LanguageModel for SpanModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let Some(calls) = &self.calls else {
            return self.inner.complete(request);
        };
        let start_us = self.origin.elapsed().as_secs_f64() * 1e6;
        let response = self.inner.complete(request);
        let end_us = self.origin.elapsed().as_secs_f64() * 1e6;
        // Rendering the prompt is the recorder's cost, so it happens
        // after the interval closes.
        calls.lock().expect("span log lock").push(ModelCall {
            kind: kind_label(request.prompt.task),
            question_hash: crate::stats::Fnv::of(request.prompt.question.as_bytes()),
            prompt_chars: request.prompt.render().len(),
            start_us,
            end_us,
        });
        response
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Vec<Result<CompletionResponse, ModelError>> {
        // Batching is disabled in every workload, so the runtime never
        // calls this; route through `complete` so a batch would still be
        // recorded call by call.
        requests.iter().map(|r| self.complete(r)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u64, parent: u64, start_us: f64, end_us: f64) -> Span {
        Span {
            request: 1,
            id,
            parent,
            name: format!("s{id}"),
            start_us,
            end_us,
        }
    }

    #[test]
    fn self_time_subtracts_children() {
        let spans = vec![
            span(1, 0, 0.0, 100.0),
            span(2, 1, 10.0, 30.0),
            span(3, 1, 50.0, 70.0),
            span(4, 2, 12.0, 20.0),
        ];
        assert_eq!(self_times_us(&spans), vec![60.0, 12.0, 20.0, 8.0]);
    }

    #[test]
    fn overlapping_and_overhanging_children_are_not_double_counted() {
        let spans = vec![
            span(1, 0, 0.0, 100.0),
            // Two children overlapping on 20..40.
            span(2, 1, 10.0, 40.0),
            span(3, 1, 20.0, 60.0),
            // A child that overhangs the parent's end is clipped.
            span(4, 1, 90.0, 130.0),
        ];
        // Covered: 10..60 and 90..100.
        assert_eq!(self_times_us(&spans)[0], 40.0);
        // A child covering more than the parent leaves zero, not negative.
        let spans = vec![span(1, 0, 10.0, 20.0), span(2, 1, 0.0, 50.0)];
        assert_eq!(self_times_us(&spans)[0], 0.0);
    }

    #[test]
    fn jsonl_round_trips_through_the_vendored_parser() {
        let mut out = Vec::new();
        write_jsonl(&mut out, &[span(7, 3, 1.5, 9.25)]).unwrap();
        let text = String::from_utf8(out).unwrap();
        let value = serde_json::parse_value(text.trim()).unwrap();
        let fields = value.as_object().unwrap();
        let names: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            names,
            ["request", "id", "parent", "name", "start_us", "end_us"]
        );
    }
}
