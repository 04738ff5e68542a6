//! The language-model interface, call accounting, and the typed error
//! surface every resilience layer above it is built on.

use crate::prompt::{Plan, Prompt, TaskKind};
use std::collections::BTreeMap;
use std::sync::Mutex;
use std::time::Duration;

/// A completion request: the structured prompt plus a seed the caller may
/// vary to sample multiple candidates (the paper generates "one or more
/// candidate SQL queries", §3).
#[derive(Debug, Clone)]
pub struct CompletionRequest {
    /// The structured prompt to complete.
    pub prompt: Prompt,
    /// Candidate-sampling seed. Two requests with the same prompt and seed
    /// return identical responses (the oracle is deterministic).
    pub seed: u64,
}

impl CompletionRequest {
    /// Request with the default seed 0.
    pub fn new(prompt: Prompt) -> CompletionRequest {
        CompletionRequest { prompt, seed: 0 }
    }

    /// Request with an explicit candidate-sampling seed.
    pub fn with_seed(prompt: Prompt, seed: u64) -> CompletionRequest {
        CompletionRequest { prompt, seed }
    }
}

/// A typed completion. Real deployments parse these out of model text;
/// keeping them typed removes a failure mode that is orthogonal to the
/// paper's claims.
#[derive(Debug, Clone, PartialEq)]
pub enum CompletionResponse {
    /// A generated SQL query.
    Sql(String),
    /// A chain-of-thought plan.
    Plan(Plan),
    /// Free text (reformulations).
    Text(String),
    /// A list of items (intent keys, schema element keys, …).
    Items(Vec<String>),
}

impl CompletionResponse {
    /// The SQL payload, if this is a [`CompletionResponse::Sql`].
    pub fn as_sql(&self) -> Option<&str> {
        match self {
            CompletionResponse::Sql(s) => Some(s),
            _ => None,
        }
    }

    /// The plan payload, if this is a [`CompletionResponse::Plan`].
    pub fn as_plan(&self) -> Option<&Plan> {
        match self {
            CompletionResponse::Plan(p) => Some(p),
            _ => None,
        }
    }

    /// The text payload, if this is a [`CompletionResponse::Text`].
    pub fn as_text(&self) -> Option<&str> {
        match self {
            CompletionResponse::Text(t) => Some(t),
            _ => None,
        }
    }

    /// The item list, if this is a [`CompletionResponse::Items`].
    pub fn as_items(&self) -> Option<&[String]> {
        match self {
            CompletionResponse::Items(v) => Some(v),
            _ => None,
        }
    }
}

/// Why a model call failed. Every transport- and parse-level failure a
/// production deployment sees maps onto one of these variants; the
/// pipeline's degradation ladder keys off them rather than off strings.
#[derive(Debug, Clone, PartialEq)]
pub enum ModelError {
    /// A retryable transport hiccup (connection reset, 5xx, …).
    Transient(String),
    /// The call exceeded its deadline.
    Timeout,
    /// The model answered, but the payload could not be parsed into a
    /// [`CompletionResponse`]. Carries the raw text for diagnostics.
    Malformed {
        /// The unparseable payload, verbatim.
        raw: String,
    },
    /// The provider throttled the call and suggested a wait.
    RateLimited {
        /// The provider-suggested backoff before the next call.
        retry_after: Duration,
    },
    /// A resilience wrapper gave up: `attempts` calls were made (0 when a
    /// circuit breaker shed the call without trying) and `last` is the
    /// final underlying error.
    Exhausted {
        /// Calls actually made before giving up.
        attempts: usize,
        /// The final underlying error.
        last: Box<ModelError>,
    },
}

impl ModelError {
    /// Whether a retry could plausibly succeed. `Exhausted` is terminal —
    /// a wrapper already spent its budget producing it.
    pub fn is_retryable(&self) -> bool {
        !matches!(self, ModelError::Exhausted { .. })
    }

    /// Short stable label for metrics keys and span attributes.
    pub fn label(&self) -> &'static str {
        match self {
            ModelError::Transient(_) => "transient",
            ModelError::Timeout => "timeout",
            ModelError::Malformed { .. } => "malformed",
            ModelError::RateLimited { .. } => "rate-limited",
            ModelError::Exhausted { .. } => "exhausted",
        }
    }
}

impl std::fmt::Display for ModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ModelError::Transient(msg) => write!(f, "transient model error: {msg}"),
            ModelError::Timeout => write!(f, "model call timed out"),
            ModelError::Malformed { raw } => {
                let preview: String = raw.chars().take(48).collect();
                write!(f, "malformed model response: {preview:?}")
            }
            ModelError::RateLimited { retry_after } => {
                write!(f, "rate limited (retry after {retry_after:?})")
            }
            ModelError::Exhausted { attempts, last } => {
                write!(
                    f,
                    "model call exhausted after {attempts} attempt(s): {last}"
                )
            }
        }
    }
}

impl std::error::Error for ModelError {}

/// The model interface every operator calls through.
///
/// `Send + Sync` is part of the contract: the serving runtime clones one
/// pipeline per worker thread over a shared model, so every model — and
/// every wrapper in the resilience/tracing stack — must be safe to call
/// concurrently from multiple threads. All implementations in this
/// workspace are either immutable or guard their state with `Mutex`.
pub trait LanguageModel: Send + Sync {
    /// Model identifier ("gpt-4o" in the paper; "oracle" here).
    fn name(&self) -> &str;
    /// Complete one request.
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError>;

    /// Complete a batch of requests in one backend round trip.
    ///
    /// The default implementation calls [`LanguageModel::complete`] once
    /// per request, so every existing model keeps working unchanged.
    /// Backends with native batch endpoints (or a shared network round
    /// trip to amortize) override this; [`crate::BatchScheduler`] calls
    /// it with the micro-batches it coalesces. Responses are positional:
    /// `result[i]` answers `requests[i]`, and implementations must return
    /// exactly `requests.len()` entries.
    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Vec<Result<CompletionResponse, ModelError>> {
        requests.iter().map(|r| self.complete(r)).collect()
    }
}

/// Per-task-kind call accounting, used by the operator latency/cost
/// benchmarks (the paper swaps GPT-4o-mini into schema linking "to reduce
/// primarily cost and then latency", §3.3.3 — measuring calls and prompt
/// volume is how that decision is made).
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct ModelUsage {
    /// Completed calls per task-kind label (see [`kind_label`]).
    pub calls: BTreeMap<&'static str, usize>,
    /// Rendered prompt characters per task-kind label.
    pub prompt_chars: BTreeMap<&'static str, usize>,
}

impl ModelUsage {
    /// Total calls across every task kind.
    pub fn total_calls(&self) -> usize {
        self.calls.values().sum()
    }

    /// Total rendered prompt characters across every task kind.
    pub fn total_prompt_chars(&self) -> usize {
        self.prompt_chars.values().sum()
    }

    /// Fold another usage record into this one, so the harness can sum
    /// accounting across per-domain runs.
    pub fn merge(&mut self, other: &ModelUsage) {
        for (kind, n) in &other.calls {
            *self.calls.entry(kind).or_insert(0) += n;
        }
        for (kind, chars) in &other.prompt_chars {
            *self.prompt_chars.entry(kind).or_insert(0) += chars;
        }
    }
}

/// Short label for a task kind, used as the accounting and telemetry key.
pub fn kind_label(kind: TaskKind) -> &'static str {
    match kind {
        TaskKind::Reformulate => "reformulate",
        TaskKind::IntentClassification => "intent",
        TaskKind::SchemaLinking => "schema-linking",
        TaskKind::PlanGeneration => "plan",
        TaskKind::SqlGeneration => "sql",
    }
}

/// Wraps any model and records usage.
pub struct RecordingModel<M> {
    inner: M,
    usage: Mutex<ModelUsage>,
}

impl<M: LanguageModel> RecordingModel<M> {
    /// Wrap `inner` with zeroed counters.
    pub fn new(inner: M) -> RecordingModel<M> {
        RecordingModel {
            inner,
            usage: Mutex::new(ModelUsage::default()),
        }
    }

    /// Lock the counters, absorbing poisoning: a panic elsewhere must not
    /// cascade out of the accounting layer.
    fn usage_lock(&self) -> std::sync::MutexGuard<'_, ModelUsage> {
        self.usage
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Snapshot of the accumulated usage counters.
    pub fn usage(&self) -> ModelUsage {
        self.usage_lock().clone()
    }

    /// Zero the usage counters.
    pub fn reset_usage(&self) {
        *self.usage_lock() = ModelUsage::default();
    }

    /// The wrapped model.
    pub fn inner(&self) -> &M {
        &self.inner
    }
}

impl<M: LanguageModel> LanguageModel for RecordingModel<M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        {
            let mut u = self.usage_lock();
            let label = kind_label(request.prompt.task);
            *u.calls.entry(label).or_insert(0) += 1;
            *u.prompt_chars.entry(label).or_insert(0) += request.prompt.rendered_len();
        }
        self.inner.complete(request)
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Vec<Result<CompletionResponse, ModelError>> {
        {
            let mut u = self.usage_lock();
            for request in requests {
                let label = kind_label(request.prompt.task);
                *u.calls.entry(label).or_insert(0) += 1;
                *u.prompt_chars.entry(label).or_insert(0) += request.prompt.rendered_len();
            }
        }
        self.inner.complete_batch(requests)
    }
}

/// Wraps a model and records one `llm.complete` span per call into a
/// borrowed [`Tracer`](genedit_telemetry::Tracer) — task kind, prompt
/// size, and sampling seed. The
/// pipeline constructs one per generation so every model call lands
/// inside the operator span that issued it.
pub struct TracedModel<'t, M> {
    inner: M,
    tracer: &'t genedit_telemetry::Tracer,
}

impl<'t, M: LanguageModel> TracedModel<'t, M> {
    /// Wrap `inner`, recording one span per call into `tracer`.
    pub fn new(inner: M, tracer: &'t genedit_telemetry::Tracer) -> TracedModel<'t, M> {
        TracedModel { inner, tracer }
    }
}

impl<M: LanguageModel> LanguageModel for TracedModel<'_, M> {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let span = self.tracer.span(genedit_telemetry::names::LLM_COMPLETE);
        span.attr("task", kind_label(request.prompt.task))
            .attr("prompt_chars", request.prompt.rendered_len())
            .attr("seed", request.seed);
        let response = self.inner.complete(request);
        if let Err(err) = &response {
            span.attr("error", err.label());
        }
        span.finish();
        response
    }
}

impl<M: LanguageModel + ?Sized> LanguageModel for &M {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        (**self).complete(request)
    }
    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Vec<Result<CompletionResponse, ModelError>> {
        (**self).complete_batch(requests)
    }
}

impl<M: LanguageModel + ?Sized> LanguageModel for std::sync::Arc<M> {
    fn name(&self) -> &str {
        (**self).name()
    }
    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        (**self).complete(request)
    }
    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Vec<Result<CompletionResponse, ModelError>> {
        (**self).complete_batch(requests)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Prompt;

    struct Echo;
    impl LanguageModel for Echo {
        fn name(&self) -> &str {
            "echo"
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
            Ok(CompletionResponse::Text(request.prompt.question.clone()))
        }
    }

    struct AlwaysFails;
    impl LanguageModel for AlwaysFails {
        fn name(&self) -> &str {
            "fails"
        }
        fn complete(&self, _: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
            Err(ModelError::Timeout)
        }
    }

    #[test]
    fn errors_propagate_and_are_still_recorded() {
        // RecordingModel counts the attempt even when it fails…
        let m = RecordingModel::new(AlwaysFails);
        let err = m
            .complete(&CompletionRequest::new(Prompt::new(
                TaskKind::SqlGeneration,
                "q",
            )))
            .unwrap_err();
        assert_eq!(err, ModelError::Timeout);
        assert_eq!(m.usage().total_calls(), 1);
        // …and TracedModel marks the span with the error label.
        let tracer = genedit_telemetry::Tracer::new("test");
        let t = TracedModel::new(AlwaysFails, &tracer);
        t.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::SqlGeneration,
            "q",
        )))
        .unwrap_err();
        let trace = tracer.finish();
        let span = trace.find(genedit_telemetry::names::LLM_COMPLETE).unwrap();
        assert_eq!(
            span.attr("error"),
            Some(&genedit_telemetry::AttrValue::Str("timeout".into()))
        );
    }

    #[test]
    fn recording_counts_by_kind() {
        let m = RecordingModel::new(Echo);
        m.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::Reformulate,
            "a",
        )))
        .unwrap();
        m.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::SqlGeneration,
            "b",
        )))
        .unwrap();
        m.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::SqlGeneration,
            "c",
        )))
        .unwrap();
        let u = m.usage();
        assert_eq!(u.calls.get("reformulate"), Some(&1));
        assert_eq!(u.calls.get("sql"), Some(&2));
        assert_eq!(u.total_calls(), 3);
        assert!(u.total_prompt_chars() > 0);
        m.reset_usage();
        assert_eq!(m.usage().total_calls(), 0);
    }

    #[test]
    fn response_accessors() {
        assert_eq!(CompletionResponse::Sql("x".into()).as_sql(), Some("x"));
        assert!(CompletionResponse::Sql("x".into()).as_plan().is_none());
        assert_eq!(
            CompletionResponse::Items(vec!["a".into()])
                .as_items()
                .map(|i| i.len()),
            Some(1)
        );
    }

    #[test]
    fn usage_merge_sums_by_kind() {
        let a = RecordingModel::new(Echo);
        a.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::Reformulate,
            "a",
        )))
        .unwrap();
        a.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::SqlGeneration,
            "b",
        )))
        .unwrap();
        let b = RecordingModel::new(Echo);
        b.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::SqlGeneration,
            "c",
        )))
        .unwrap();
        let mut merged = a.usage();
        merged.merge(&b.usage());
        assert_eq!(merged.calls.get("reformulate"), Some(&1));
        assert_eq!(merged.calls.get("sql"), Some(&2));
        assert_eq!(
            merged.total_prompt_chars(),
            a.usage().total_prompt_chars() + b.usage().total_prompt_chars()
        );
    }

    #[test]
    fn poisoned_usage_lock_does_not_panic() {
        let m = std::sync::Arc::new(RecordingModel::new(Echo));
        let m2 = std::sync::Arc::clone(&m);
        let _ = std::thread::spawn(move || {
            let _guard = m2.usage.lock().unwrap();
            panic!("poison the usage lock");
        })
        .join();
        m.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::Reformulate,
            "a",
        )))
        .unwrap();
        assert_eq!(m.usage().total_calls(), 1);
        m.reset_usage();
        assert_eq!(m.usage().total_calls(), 0);
    }

    #[test]
    fn traced_model_records_call_spans() {
        let tracer = genedit_telemetry::Tracer::new("test");
        let m = TracedModel::new(Echo, &tracer);
        m.complete(&CompletionRequest::with_seed(
            Prompt::new(TaskKind::SqlGeneration, "q"),
            7,
        ))
        .unwrap();
        m.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::Reformulate,
            "q",
        )))
        .unwrap();
        let trace = tracer.finish();
        assert_eq!(trace.count(genedit_telemetry::names::LLM_COMPLETE), 2);
        let first = trace.find(genedit_telemetry::names::LLM_COMPLETE).unwrap();
        assert_eq!(
            first.attr("task"),
            Some(&genedit_telemetry::AttrValue::Str("sql".into()))
        );
        assert_eq!(
            first.attr("seed"),
            Some(&genedit_telemetry::AttrValue::UInt(7))
        );
        assert!(matches!(
            first.attr("prompt_chars"),
            Some(genedit_telemetry::AttrValue::UInt(n)) if *n > 0
        ));
    }

    #[test]
    fn trait_object_and_ref_impls() {
        let m = Echo;
        let r: &dyn LanguageModel = &m;
        assert_eq!(r.name(), "echo");
        let arc: std::sync::Arc<dyn LanguageModel> = std::sync::Arc::new(Echo);
        assert_eq!(arc.name(), "echo");
    }
}
