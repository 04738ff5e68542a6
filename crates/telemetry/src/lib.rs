//! # genedit-telemetry — observability for the GenEdit pipeline
//!
//! The paper's claims are *attributional*: each compounding operator
//! (§3.1.1) must add measurable value, and the ablation study (Table 2)
//! only makes sense if accuracy and cost can be traced to individual
//! operators. This crate is the measurement seam the rest of the
//! workspace hangs those numbers on:
//!
//! - [`Tracer`] / [`Trace`] / [`Span`] — a lightweight span recorder.
//!   One [`Trace`] per generation, one [`Span`] per operator / LLM call /
//!   self-correction attempt, with typed attributes and warning events.
//! - [`MetricsRegistry`] — named counters and histograms (p50/p95/p99)
//!   shareable via `Arc` across harness runs. A folded trace records
//!   each span once, as a `span.<name>.ms` histogram whose count is the
//!   span's call count.
//! - [`export`] — JSON / JSONL exporters (and importers, so traces
//!   round-trip) for both traces and metric snapshots.
//! - [`aggregate`] — fold a batch of traces into per-span-name
//!   call-count / latency / LLM-call breakdowns ([`OperatorStats`]).
//! - [`hash`] — the workspace's one stable hash (FNV-1a 64 and the
//!   seeded `hash_u64`/`hash01` draws built on it).
//! - [`hist`] — bounded log-linear (HDR-style) histograms over atomic
//!   bucket counters; lock-free `observe`, mergeable snapshots,
//!   percentiles within ≤ 1% relative error of exact nearest-rank.
//! - [`clock`] — the injectable `Clock`/`SimulatedClock` time source
//!   the model decorators time their calls on.
//! - [`recorder`] — the tail-sampling flight recorder: bounded rings of
//!   completed request traces, errors/degraded always retained, dumped
//!   as JSONL on demand.
//!
//! Zero dependencies beyond `std::time` and serde.

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod aggregate;
pub mod clock;
pub mod export;
pub mod hash;
pub mod hist;
pub mod metrics;
pub mod recorder;
pub mod span;

pub use aggregate::{operator_breakdown, OperatorStats};
pub use clock::{Clock, SimulatedClock, SystemClock};
pub use hist::{HistogramSnapshot, LogLinearHistogram};
pub use metrics::{HistogramSummary, MetricsRegistry, MetricsSnapshot};
pub use recorder::{
    FlightRecorder, RecordedRequest, RecorderConfig, RecorderStats, RequestVerdict,
};
pub use span::{AttrValue, Span, SpanGuard, Trace, Tracer};

/// Canonical span names. Everything that records or aggregates spans goes
/// through these constants so the taxonomy stays greppable.
pub mod names {
    /// Root span of one `GenEditPipeline::generate` call.
    pub const GENERATE: &str = "pipeline.generate";
    /// Operator 1: canonical-form reformulation.
    pub const REFORMULATE: &str = "operator.reformulate";
    /// Operator 2: intent classification.
    pub const INTENT: &str = "operator.intent";
    /// Operator 3: example selection.
    pub const EXAMPLES: &str = "operator.examples";
    /// Operator 4: instruction selection (context expansion).
    pub const INSTRUCTIONS: &str = "operator.instructions";
    /// Operator 5: schema linking + re-rank filter.
    pub const SCHEMA_LINKING: &str = "operator.schema_linking";
    /// CoT plan generation.
    pub const PLAN: &str = "plan.generate";
    /// One generation round (attempt 1 = no self-correction yet).
    pub const SQL_ATTEMPT: &str = "sql.attempt";
    /// Parse + execute of one candidate during validation.
    pub const VALIDATE: &str = "sql.validate";
    /// One `LanguageModel::complete` call (recorded by `TracedModel`).
    pub const LLM_COMPLETE: &str = "llm.complete";
    /// Feedback operator 1: Generate Targets (§4.1).
    pub const FEEDBACK_TARGETS: &str = "feedback.generate_targets";
    /// Feedback operator 2: Expand Feedback.
    pub const FEEDBACK_EXPAND: &str = "feedback.expand_feedback";
    /// Feedback operator 3: Planning of Edits.
    pub const FEEDBACK_PLAN: &str = "feedback.plan_edits";
    /// Feedback operator 4: Generate Edits.
    pub const FEEDBACK_EDITS: &str = "feedback.generate_edits";
    /// Knowledge-set pre-processing (§3.2): one span per phase.
    pub const PREPROCESS: &str = "knowledge.preprocess";
    /// Durable-store crash recovery (snapshot load + journal replay).
    pub const STORE_RECOVER: &str = "store.recover";
    /// Durable-store compaction (snapshot write + journal reset).
    pub const STORE_COMPACT: &str = "store.compact";
    /// One journaled merge of a staged batch into the durable store.
    pub const STORE_COMMIT: &str = "store.commit";
    /// One request's residency in the serving runtime (queue + execute).
    pub const SERVE_REQUEST: &str = "serve.request";
    /// One shadow-paged flush of a tenant's pages after a durable commit.
    pub const STORE_PAGE_FLUSH: &str = "store.page.flush";
    /// One cold-tenant page-in: WAL-validated page load + index build.
    pub const SERVE_TENANT_PAGE_IN: &str = "serve.tenant.page_in";

    // Buffer-pool counters/gauges (see docs/RUNBOOK.md for semantics).
    /// Counter: page requests served from a resident frame.
    pub const POOL_HIT: &str = "store.pool.hit";
    /// Counter: page requests that had to load from disk.
    pub const POOL_MISS: &str = "store.pool.miss";
    /// Counter: unpinned frames evicted to stay under the budget.
    pub const POOL_EVICTIONS: &str = "store.pool.evictions";
    /// Counter: pins granted past the budget because every frame was
    /// pinned (transient overcommit; sustained growth means the budget is
    /// too small for the working set).
    pub const POOL_OVERCOMMITS: &str = "store.pool.overcommits";
    /// Gauge: bytes of page data currently resident in the pool.
    pub const POOL_RESIDENT_BYTES: &str = "store.pool.resident_bytes";
    /// Gauge: frames currently pinned (readers mid-flight).
    pub const POOL_PINNED: &str = "store.pool.pinned";
    /// Counter: pages read and checksum-verified from disk.
    pub const PAGE_READS: &str = "store.page.reads";
    /// Counter: sealed pages written to disk.
    pub const PAGE_WRITES: &str = "store.page.writes";
    /// Counter: pages rejected by checksum/format validation (torn or
    /// corrupt after a crash — each one triggers a WAL rebuild).
    pub const PAGE_CHECKSUM_FAILURES: &str = "store.page.checksum_failures";
    /// Counter: tenant page files rebuilt from the WAL.
    pub const PAGE_REBUILDS: &str = "store.page.rebuilds";
}

/// Render a trace as an indented tree with durations and attributes —
/// the human-readable view of what [`export::trace_to_json`] emits.
pub fn render_trace(trace: &Trace) -> String {
    fn render_span(span: &Span, depth: usize, out: &mut String) {
        let indent = "  ".repeat(depth);
        out.push_str(&format!(
            "{indent}{} [{:.3}ms]",
            span.name,
            span.duration.as_secs_f64() * 1e3
        ));
        if !span.attrs.is_empty() {
            let attrs: Vec<String> = span.attrs.iter().map(|(k, v)| format!("{k}={v}")).collect();
            out.push_str(&format!("  {{{}}}", attrs.join(", ")));
        }
        out.push('\n');
        for child in &span.children {
            render_span(child, depth + 1, out);
        }
    }
    let mut out = format!("trace: {}\n", trace.name);
    for span in &trace.spans {
        render_span(span, 1, &mut out);
    }
    for w in &trace.warnings {
        out.push_str(&format!("  warning: {w}\n"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn render_shows_tree_attrs_and_warnings() {
        let tracer = Tracer::new("t");
        {
            let outer = tracer.span(names::GENERATE);
            outer.attr("question", "q");
            let inner = tracer.span(names::REFORMULATE);
            inner.attr("chars", 12usize);
            tracer.warning("fell back");
        }
        let trace = tracer.finish();
        let text = render_trace(&trace);
        assert!(text.contains("pipeline.generate"));
        assert!(text.contains("  operator.reformulate"), "{text}");
        assert!(text.contains("chars=12"));
        assert!(text.contains("warning: fell back"));
    }
}
