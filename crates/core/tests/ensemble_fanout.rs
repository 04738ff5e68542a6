//! Ensemble fan-out over the batch scheduler: `ensemble_width: Some(n)`
//! sends a request's `n` SQL candidates at once, so they coalesce into
//! one `complete_batch` round trip. The property: the answers are the
//! serial candidate loop's, byte for byte, and the backend sees strictly
//! fewer round trips.

use genedit_bird::{DomainBundle, SPORTS};
use genedit_core::{
    CandidateSelection, GenEditPipeline, GenerateOptions, KnowledgeIndex, PipelineConfig,
};
use genedit_llm::{
    BatchConfig, BatchScheduler, CompletionRequest, CompletionResponse, LanguageModel, ModelError,
    OracleModel, TaskRegistry,
};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

const WIDTH: usize = 4;

/// The oracle behind a backend that counts round trips: one per
/// `complete`, one per `complete_batch` however many it carries.
struct CountingModel {
    inner: OracleModel,
    round_trips: AtomicUsize,
}

impl CountingModel {
    fn new(registry: TaskRegistry) -> Arc<CountingModel> {
        Arc::new(CountingModel {
            inner: OracleModel::new(registry),
            round_trips: AtomicUsize::new(0),
        })
    }

    fn round_trips(&self) -> usize {
        self.round_trips.load(Ordering::SeqCst)
    }
}

impl LanguageModel for CountingModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        self.round_trips.fetch_add(1, Ordering::SeqCst);
        self.inner.complete(request)
    }

    fn complete_batch(
        &self,
        requests: &[CompletionRequest],
    ) -> Vec<Result<CompletionResponse, ModelError>> {
        self.round_trips.fetch_add(1, Ordering::SeqCst);
        requests.iter().map(|r| self.inner.complete(r)).collect()
    }
}

/// The seeded oracle keeps its noise on, so candidates at different
/// seeds differ and the vote depends on which seed is which.
#[test]
fn ensemble_over_a_batch_scheduler_matches_serial_in_fewer_round_trips() {
    let bundle = DomainBundle::build(&SPORTS, (8, 7, 3), 42);
    let index = KnowledgeIndex::build(bundle.build_knowledge());
    let registry = || {
        let mut registry = TaskRegistry::new();
        for task in &bundle.tasks {
            registry.register(task.clone());
        }
        registry
    };
    // Plan generation off: the serial path samples one plan at seed 0,
    // the ensemble votes over `WIDTH` plans, so only the SQL candidate
    // stage has the same seed set on both paths.
    let cfg = PipelineConfig {
        candidates: WIDTH,
        candidate_selection: CandidateSelection::MajorityResult,
        use_plan: false,
        ..Default::default()
    };
    let questions: Vec<&str> = bundle.tasks.iter().map(|t| t.question.as_str()).collect();

    let serial_model = CountingModel::new(registry());
    let serial = GenEditPipeline::with_config(Arc::clone(&serial_model), cfg.clone());
    let expected: Vec<String> = questions
        .iter()
        .map(|q| serial.generate(q, &index, &bundle.db, &[]).fingerprint())
        .collect();

    let fanout_model = CountingModel::new(registry());
    // The batch is the fan-out's width, so a request's candidates fill it
    // and dispatch at once; a solo operator call waits out the window.
    let scheduler = BatchScheduler::new(
        Arc::clone(&fanout_model),
        BatchConfig {
            max_batch_size: WIDTH,
            max_wait: Duration::from_millis(5),
            poll_interval: Duration::from_millis(1),
            adaptive: None,
        },
    );
    let fanout = GenEditPipeline::with_config(scheduler, cfg);
    let opts = GenerateOptions {
        ensemble_width: Some(WIDTH),
        ..Default::default()
    };
    for (question, expected) in questions.iter().zip(&expected) {
        let got = fanout.generate_with(question, &index, &bundle.db, &[], &opts);
        assert_eq!(
            &got.fingerprint(),
            expected,
            "fan-out diverged from the serial candidates for {question:?}"
        );
    }

    let (serial, fanout) = (serial_model.round_trips(), fanout_model.round_trips());
    assert!(
        fanout < serial,
        "fan-out did not coalesce: {fanout} round trips vs {serial} serial"
    );
}
