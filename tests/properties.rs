//! Cross-crate property tests: knowledge-set event sourcing, staging
//! algebra, registry lookup robustness, and oracle determinism.

use genedit::knowledge::{
    Edit, ExampleId, FragmentKind, InstructionId, Intent, KnowledgeSet, SourceRef, SqlFragment,
    StagingArea,
};
use genedit::llm::{
    CompletionRequest, Corruption, Difficulty, LanguageModel, OracleModel, Prompt, TaskKind,
    TaskKnowledge, TaskRegistry, TermRequirement,
};
use proptest::prelude::*;

// ---------------------------------------------------------------------
// Edit generation
// ---------------------------------------------------------------------

fn arb_fragment() -> impl Strategy<Value = SqlFragment> {
    let kinds = prop_oneof![
        Just(FragmentKind::Where),
        Just(FragmentKind::Projection),
        Just(FragmentKind::From),
        Just(FragmentKind::OrderBy),
        Just(FragmentKind::TermDefinition),
    ];
    (kinds, "[A-Z =<>0-9']{1,24}", "[a-z]{1,8}")
        .prop_map(|(kind, sql, scope)| SqlFragment::new(kind, sql, scope))
}

/// Edits that are always applicable regardless of current state.
fn arb_safe_edit() -> impl Strategy<Value = Edit> {
    prop_oneof![
        (
            "[a-z ]{1,30}",
            arb_fragment(),
            prop::option::of("[A-Z]{2,6}")
        )
            .prop_map(|(description, fragment, term)| Edit::InsertExample {
                intent: None,
                description,
                fragment,
                term,
                source: SourceRef::Manual,
            }),
        ("[a-z ]{1,40}", prop::option::of("[a-z =]{1,16}")).prop_map(|(text, sql_hint)| {
            Edit::InsertInstruction {
                intent: None,
                text,
                sql_hint,
                term: None,
                source: SourceRef::Manual,
            }
        }),
        ("[a-z]{2,10}").prop_map(
            |t| Edit::AddSchemaElement(genedit::knowledge::SchemaElement {
                table: t,
                column: None,
                description: String::new(),
                top_values: vec![],
                intents: vec![],
            })
        ),
    ]
}

/// Edits that refuse when their target is missing, as well as ones that
/// always apply.
fn arb_edit_that_may_refuse() -> impl Strategy<Value = Edit> {
    prop_oneof![
        arb_safe_edit(),
        (0u64..6).prop_map(|id| Edit::DeleteExample { id: ExampleId(id) }),
        (0u64..6).prop_map(|id| Edit::DeleteInstruction {
            id: InstructionId(id)
        }),
    ]
}

/// One call on a knowledge set; any of them may refuse.
#[derive(Debug, Clone)]
enum SetOp {
    Apply(Edit),
    Checkpoint,
    Merge(Vec<Edit>),
    Revert(u64),
}

fn arb_set_op() -> impl Strategy<Value = SetOp> {
    prop_oneof![
        arb_edit_that_may_refuse().prop_map(SetOp::Apply),
        Just(SetOp::Checkpoint),
        prop::collection::vec(arb_edit_that_may_refuse(), 0..5).prop_map(SetOp::Merge),
        (0u64..6).prop_map(SetOp::Revert),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Event sourcing: replaying any applied edit log from empty yields
    /// content-identical state.
    #[test]
    fn replay_reproduces_any_state(edits in prop::collection::vec(arb_safe_edit(), 0..30)) {
        let mut ks = KnowledgeSet::new();
        for e in &edits {
            ks.apply(e.clone()).unwrap();
        }
        let replayed = KnowledgeSet::from_log(ks.log().iter().map(|l| l.edit.clone())).unwrap();
        prop_assert!(ks.content_eq(&replayed));
    }

    /// Checkpoint/revert identity: checkpoint, apply anything, revert —
    /// back to byte-identical content.
    #[test]
    fn revert_is_exact(
        before in prop::collection::vec(arb_safe_edit(), 0..10),
        after in prop::collection::vec(arb_safe_edit(), 1..10),
    ) {
        let mut ks = KnowledgeSet::new();
        for e in before {
            ks.apply(e).unwrap();
        }
        let snapshot = ks.clone();
        let cp = ks.checkpoint("prop");
        for e in after {
            ks.apply(e).unwrap();
        }
        ks.revert_to(cp).unwrap();
        prop_assert!(ks.content_eq(&snapshot));
        prop_assert_eq!(ks.log().len(), snapshot.log().len());
    }

    /// The clock a tenant's epoch rests on: in a set built from empty,
    /// only an applied edit advances the tick, so after any sequence of
    /// applies, checkpoints, merges and reverts — refused or not — the
    /// tick is the log length.
    #[test]
    fn tick_is_the_log_length(ops in prop::collection::vec(arb_set_op(), 0..40)) {
        let mut ks = KnowledgeSet::new();
        for op in ops {
            match op {
                SetOp::Apply(edit) => {
                    let _ = ks.apply(edit);
                }
                SetOp::Checkpoint => {
                    ks.checkpoint("prop");
                }
                SetOp::Merge(edits) => {
                    let _ = ks.merge("prop", edits);
                }
                SetOp::Revert(id) => {
                    let _ = ks.revert_to(id);
                }
            }
            prop_assert_eq!(ks.tick(), ks.log().len() as u64);
        }
    }

    /// Staging algebra: materialize ≡ clone-then-commit (without the
    /// checkpoint bookkeeping).
    #[test]
    fn materialize_equals_commit(
        base in prop::collection::vec(arb_safe_edit(), 0..8),
        staged in prop::collection::vec(arb_safe_edit(), 0..8),
    ) {
        let mut deployed = KnowledgeSet::new();
        for e in base {
            deployed.apply(e).unwrap();
        }
        let mut area = StagingArea::new();
        for e in &staged {
            area.stage(e.clone());
        }
        let materialized = area.materialize(&deployed).unwrap();
        let mut committed = deployed.clone();
        area.commit(&mut committed, "prop").unwrap();
        prop_assert!(materialized.content_eq(&committed));
        // And the deployed set was untouched by materialize.
        prop_assert_eq!(deployed.examples().len() + staged.len() >= materialized.examples().len(), true);
    }

    /// Registry lookup survives canonical reformulation of any question.
    #[test]
    fn registry_lookup_survives_reformulation(
        words in prop::collection::vec("[a-z]{3,9}", 3..8),
        region in "[A-Z][a-z]{3,7}",
    ) {
        let question = format!("Identify the {} in {}", words.join(" "), region);
        let mut reg = TaskRegistry::new();
        reg.register(TaskKnowledge {
            task_id: "prop-1".into(),
            question: question.clone(),
            db_name: "db".into(),
            gold_sql: "SELECT 1".into(),
            intent: "i".into(),
            difficulty: Difficulty::Simple,
            required_terms: vec![],
            required_tables: vec![],
            required_columns: vec![],
            evidence: vec![],
            distractor_table: None,
            distractor_column: None,
        });
        // A decoy with mostly different content words.
        reg.register(TaskKnowledge {
            task_id: "prop-2".into(),
            question: "Total viewership per region last year".into(),
            db_name: "db".into(),
            gold_sql: "SELECT 2".into(),
            intent: "i".into(),
            difficulty: Difficulty::Simple,
            required_terms: vec![],
            required_tables: vec![],
            required_columns: vec![],
            evidence: vec![],
            distractor_table: None,
            distractor_column: None,
        });
        let reformulated = format!("Show me the {} in {}", words.join(" "), region);
        let hit = reg.lookup(&reformulated);
        prop_assert!(hit.is_some(), "lookup failed for {reformulated:?}");
        prop_assert_eq!(&hit.unwrap().task_id, "prop-1");
    }

    /// Oracle determinism: identical prompt + seed → identical response,
    /// for arbitrary prompt knowledge subsets.
    #[test]
    fn oracle_is_deterministic(
        cover_term in any::<bool>(),
        with_schema in any::<bool>(),
        seed in 0u64..4,
    ) {
        let mut reg = TaskRegistry::new();
        reg.register(TaskKnowledge {
            task_id: "det-1".into(),
            question: "total revenue of our orgs in Canada".into(),
            db_name: "db".into(),
            gold_sql: "SELECT SUM(REVENUE) FROM FIN WHERE COUNTRY = 'Canada' AND FLAG = 'COC'"
                .into(),
            intent: "fin".into(),
            difficulty: Difficulty::Simple,
            required_terms: vec![TermRequirement {
                term: "COC".into(),
                corruption: Corruption::DropWhereConjunct { marker: "FLAG".into() },
            }],
            required_tables: vec!["FIN".into()],
            required_columns: vec![],
            evidence: vec![],
            distractor_table: None,
            distractor_column: None,
        });
        // Stochastic channels off: the property isolates determinism and
        // the term-coverage contract.
        let oracle = OracleModel::with_config(
            reg,
            genedit::llm::OracleConfig {
                noise_rate: 0.0,
                canonical_form_penalty: 0.0,
                overload_cap: 0.0,
                ..Default::default()
            },
        );
        let mut prompt = Prompt::new(TaskKind::SqlGeneration, "total revenue of our orgs in Canada");
        if cover_term {
            prompt.instructions.push(genedit::llm::PromptInstruction {
                text: "COC marks our organizations".into(),
                sql_hint: None,
                term: Some("COC".into()),
            });
        }
        if with_schema {
            prompt.schema.push(genedit::llm::PromptSchemaElement {
                table: "FIN".into(),
                column: None,
                description: String::new(),
                top_values: vec![],
            });
        }
        let a = oracle
            .complete(&CompletionRequest::with_seed(prompt.clone(), seed))
            .unwrap();
        let b = oracle
            .complete(&CompletionRequest::with_seed(prompt, seed))
            .unwrap();
        prop_assert_eq!(a.clone(), b);
        // The causal contract: term coverage controls the flag filter.
        let sql = a.as_sql().unwrap();
        if cover_term {
            prop_assert!(sql.contains("FLAG"), "{sql}");
        } else {
            prop_assert!(!sql.contains("FLAG"), "{sql}");
        }
    }

    /// Intent grouping is a partition: examples-for-intent never returns
    /// an example of a different intent, and summing over intents + None
    /// covers everything exactly once.
    #[test]
    fn intent_grouping_is_a_partition(
        n_fin in 0usize..6,
        n_view in 0usize..6,
        n_none in 0usize..6,
    ) {
        let mut ks = KnowledgeSet::new();
        ks.apply(Edit::AddIntent(Intent::new("fin", "f", ""))).unwrap();
        ks.apply(Edit::AddIntent(Intent::new("view", "v", ""))).unwrap();
        for (intent, count) in [(Some("fin"), n_fin), (Some("view"), n_view), (None, n_none)] {
            for i in 0..count {
                ks.apply(Edit::InsertExample {
                    intent: intent.map(String::from),
                    description: format!("ex {i}"),
                    fragment: SqlFragment::new(FragmentKind::Where, "WHERE 1 = 1", "main"),
                    term: None,
                    source: SourceRef::Manual,
                })
                .unwrap();
            }
        }
        prop_assert_eq!(ks.examples_for_intent("fin").count(), n_fin);
        prop_assert_eq!(ks.examples_for_intent("view").count(), n_view);
        prop_assert_eq!(ks.examples().len(), n_fin + n_view + n_none);
    }
}
