//! `Prompt::rendered_len` counts, without building the string, the bytes
//! `Prompt::render` produces: on a prompt with every section filled and
//! non-ASCII text throughout, and on every prompt the 132 gold
//! generations of `Workload::standard(42)` send. Both tests also pin a
//! digest of the rendered text, so the text a real model would be sent
//! cannot move either.

use genedit_bird::Workload;
use genedit_core::{GenEditPipeline, Harness};
use genedit_knowledge::FragmentKind;
use genedit_llm::{
    CompletionRequest, CompletionResponse, LanguageModel, ModelError, OracleModel, Plan, PlanStep,
    Prompt, PromptExample, PromptInstruction, PromptSchemaElement, TaskKind,
};
use genedit_telemetry::hash::{fnv1a64, fnv1a64_from};
use std::sync::Mutex;

/// Passes every request to the oracle and keeps a copy of its prompt.
struct Capture {
    inner: OracleModel,
    prompts: Mutex<Vec<Prompt>>,
}

impl LanguageModel for Capture {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        self.prompts.lock().unwrap().push(request.prompt.clone());
        self.inner.complete(request)
    }
}

#[test]
fn every_gold_generation_prompt_is_counted_exactly() {
    let workload = Workload::standard(42);
    let indexes = Harness::new(&workload).build_indexes(true);
    let pipeline = GenEditPipeline::new(Capture {
        inner: OracleModel::new(workload.registry()),
        prompts: Mutex::new(Vec::new()),
    });
    for bundle in &workload.domains {
        for task in &bundle.tasks {
            pipeline.generate(&task.question, &indexes[&bundle.db.name], &bundle.db, &[]);
        }
    }
    let prompts = pipeline.model().prompts.lock().unwrap();
    assert_eq!(prompts.len(), 685);
    let mut total = 0;
    let mut digest = fnv1a64(&[]);
    for prompt in prompts.iter() {
        let text = prompt.render();
        assert_eq!(prompt.rendered_len(), text.len(), "{text}");
        total += text.len();
        digest = fnv1a64_from(digest, text.as_bytes());
    }
    // generation_ledger's prompt characters, and the rendered text itself.
    assert_eq!(
        (total, format!("{digest:016x}")),
        (1_494_711, "0355df62a1b96d02".to_string())
    );
}

/// A prompt with every section filled, non-ASCII text in each.
fn filled_prompt() -> Prompt {
    let mut p = Prompt::new(
        TaskKind::SqlGeneration,
        "Show me the QoQFP of our Straße organisations in Zürich — ΟΔΟΣ ∑ 🏟",
    );
    p.original_question = Some("Which Straße organisations in Zürich …?".into());
    p.intent_candidates = vec!["financial_performance".into(), "télé_viewership".into()];
    p.schema = vec![
        PromptSchemaElement {
            table: "sports_financials".into(),
            column: None,
            description: "Quarterly financials — «per org»".into(),
            top_values: vec![],
        },
        PromptSchemaElement {
            table: "Straße_orgs".into(),
            column: Some("ville_ΟΔΟΣ".into()),
            description: String::new(),
            top_values: vec!["Zürich".into(), "Genève".into(), "İstanbul".into()],
        },
        PromptSchemaElement {
            table: "fin".into(),
            column: Some("ﬁscal_ǆ".into()),
            description: "ligature ﬁ and digraph ǆ".into(),
            top_values: vec!["ß".into()],
        },
    ];
    p.examples = vec![
        PromptExample {
            description: "Filter to our «COC» organisations".into(),
            sql: "WHERE OWNERSHIP_FLAG = 'COC'".into(),
            kind: Some(FragmentKind::Where),
            term: Some("QoQFP".into()),
        },
        PromptExample {
            description: "A full query — no decomposition".into(),
            sql: "SELECT 'Zürich' AS ville".into(),
            kind: None,
            term: None,
        },
    ];
    p.instructions = vec![
        PromptInstruction {
            text: "QoQFP means quarter-over-quarter “financial” performance".into(),
            sql_hint: Some("(Q2 - Q1) / Q1 ∗ 100".into()),
            term: Some("QoQFP".into()),
        },
        PromptInstruction {
            text: "Ignore rows with ville = 'Genève'".into(),
            sql_hint: None,
            term: None,
        },
    ];
    p.evidence = vec!["COC marks our own organisations — «nos» clubs".into()];
    p.plan = Some(Plan {
        steps: vec![
            PlanStep {
                description: "Start from the \"financials\" of Zürich".into(),
                pseudo_sql: Some("FROM \"Straße_orgs\"".into()),
                scope: "main".into(),
                kind: Some(FragmentKind::From),
            },
            PlanStep {
                description: "Rank them — ΟΔΟΣ".into(),
                pseudo_sql: None,
                scope: "main".into(),
                kind: None,
            },
        ],
    });
    p.errors = vec!["binding error: no such column ΟΔΟΣ_ADJ".into()];
    p.hints = vec!["Prefer the ﬁscal calendar".into()];
    p
}

#[test]
fn a_prompt_with_every_section_filled_is_counted_in_bytes() {
    let prompt = filled_prompt();
    let text = prompt.render();
    assert!(text.len() > text.chars().count(), "the text is not ASCII");
    assert_eq!(prompt.rendered_len(), text.len());
    assert_eq!(
        (text.len(), format!("{:016x}", fnv1a64(text.as_bytes()))),
        (1_125, "1dc7829fd6078af4".to_string()),
        "{text}"
    );
}
