//! The generation slice of the work ledger: exact totals of the work the
//! pipeline asks of its model, and of what it records, over the 132 gold
//! tasks of `Workload::standard(42)` under the default configuration,
//! run serially.
//!
//! Counts are machine-independent, so unlike a timed bound they can fail
//! the build. A change that makes a generation do more work moves a
//! number here; a change that only makes retrieval arithmetic cheaper —
//! memoised vectors, a reused query embedding — must leave every one of
//! them exactly where it is.

use genedit::bird::Workload;
use genedit::core::{GenEditPipeline, Harness};
use genedit::llm::{OracleModel, RecordingModel};
use std::collections::BTreeMap;

#[derive(Debug, Default, PartialEq)]
struct Ledger {
    /// Model calls per task kind (`genedit_llm::kind_label`).
    calls: BTreeMap<&'static str, usize>,
    /// The sum of `request.prompt.render().len()` over every call.
    prompt_chars: usize,
    /// The sum of `trace.all_spans().len()`.
    spans: usize,
    /// The sum of `attempts`.
    attempts: usize,
    /// The summed lengths of `used_examples`, `used_instructions` and
    /// `used_schema`.
    used_examples: usize,
    used_instructions: usize,
    used_schema: usize,
}

#[test]
fn gold_suite_generation_ledger_is_pinned() {
    let workload = Workload::standard(42);
    let indexes = Harness::new(&workload).build_indexes(true);
    let pipeline = GenEditPipeline::new(RecordingModel::new(OracleModel::new(workload.registry())));
    let mut got = Ledger::default();
    let mut tasks = 0;
    for bundle in &workload.domains {
        let index = &indexes[&bundle.db.name];
        for task in &bundle.tasks {
            let r = pipeline.generate(&task.question, index, &bundle.db, &[]);
            got.spans += r.trace.all_spans().len();
            got.attempts += r.attempts;
            got.used_examples += r.used_examples.len();
            got.used_instructions += r.used_instructions.len();
            got.used_schema += r.used_schema.len();
            tasks += 1;
        }
    }
    assert_eq!(tasks, 132);
    let usage = pipeline.model().usage();
    got.calls = usage.calls;
    got.prompt_chars = usage.prompt_chars.values().sum();

    let expected = Ledger {
        calls: BTreeMap::from([
            ("intent", 132),
            ("plan", 132),
            ("reformulate", 132),
            ("schema-linking", 132),
            ("sql", 157),
        ]),
        prompt_chars: 1_494_711,
        spans: 1_908,
        attempts: 142,
        used_examples: 1_320,
        used_instructions: 792,
        used_schema: 836,
    };
    assert_eq!(got, expected);
}
