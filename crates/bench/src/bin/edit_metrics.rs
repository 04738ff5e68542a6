//! Regenerates the **§4.2.3 edit-recommendation metrics**: how many
//! suggested edits are accepted as-is (the first regeneration fixes the
//! query), how many after further solver iteration, and how many need
//! manual knowledge-set edits.
//!
//! Scenario: each domain's deployment starts with the ownership-term
//! knowledge missing (the paper's Fig. 3 failure), scripted SMEs give
//! feedback on every failing query, and we track how each case resolves.
//!
//! Run: `cargo run --release -p genedit-bench --bin edit_metrics`

use genedit_bird::Workload;
use genedit_core::{sme, FeedbackSession, GenEditPipeline, KnowledgeIndex};
use genedit_knowledge::{Edit, KnowledgeSet, SourceRef};
use genedit_llm::OracleModel;

fn degrade(ks: &KnowledgeSet, term: &str) -> KnowledgeSet {
    let mut ks = ks.clone();
    let doomed: Vec<_> = ks
        .instructions()
        .iter()
        .filter(|i| {
            i.retrieval_text()
                .to_uppercase()
                .contains(&term.to_uppercase())
        })
        .map(|i| i.id)
        .collect();
    for id in doomed {
        ks.apply(Edit::DeleteInstruction { id }).unwrap();
    }
    let doomed: Vec<_> = ks
        .examples()
        .iter()
        .filter(|e| {
            e.retrieval_text()
                .to_uppercase()
                .contains(&term.to_uppercase())
        })
        .map(|e| e.id)
        .collect();
    for id in doomed {
        ks.apply(Edit::DeleteExample { id }).unwrap();
    }
    ks
}

fn main() {
    let workload = Workload::standard(42);
    let oracle = OracleModel::new(workload.registry());
    let pipeline = GenEditPipeline::new(&oracle);

    let mut accepted_as_is = 0usize;
    let mut accepted_after_iteration = 0usize;
    let mut manual_edits = 0usize;
    let mut unresolved = 0usize;
    let mut no_feedback = 0usize;
    let mut sessions = 0usize;
    let mut edits_recommended = 0usize;
    let mut edits_staged = 0usize;

    for bundle in &workload.domains {
        let deployed = degrade(&bundle.build_knowledge(), bundle.spec.our_term);
        let index = KnowledgeIndex::build(deployed.clone());

        for task in &bundle.tasks {
            let initial = pipeline.generate(&task.question, &index, &bundle.db, &[]);
            let (ok, _) =
                genedit_bird::score_prediction(&bundle.db, &task.gold_sql, initial.sql.as_deref());
            if ok {
                continue;
            }
            let Some(feedback) = sme::feedback_for(task, initial.sql.as_deref()) else {
                no_feedback += 1; // the SME cannot articulate the problem
                continue;
            };
            sessions += 1;
            let mut session =
                FeedbackSession::open(&pipeline, &bundle.db, &deployed, task.question.clone());
            let n = session.submit_feedback(&feedback);
            edits_recommended += n;
            edits_staged += session.stage_all();
            session.regenerate();
            let (fixed, _) = genedit_bird::score_prediction(
                &bundle.db,
                &task.gold_sql,
                session.latest.sql.as_deref(),
            );
            if fixed {
                accepted_as_is += 1;
                continue;
            }
            // Second round: the SME refines the feedback against the
            // regenerated query.
            if let Some(feedback2) = sme::feedback_for(task, session.latest.sql.as_deref()) {
                edits_recommended += session.submit_feedback(&feedback2);
                edits_staged += session.stage_all();
                session.regenerate();
                let (fixed, _) = genedit_bird::score_prediction(
                    &bundle.db,
                    &task.gold_sql,
                    session.latest.sql.as_deref(),
                );
                if fixed {
                    accepted_after_iteration += 1;
                    continue;
                }
            }
            // Fall back to a manual knowledge-set edit: the SME writes the
            // missing instruction directly in the library (§4.2.2).
            let mut manual = deployed.clone();
            manual
                .apply(Edit::InsertInstruction {
                    intent: Some(task.intent.clone()),
                    text: format!("{} : {}", bundle.spec.our_term, bundle.spec.our_meaning),
                    sql_hint: Some(format!(
                        "{} = '{}'",
                        bundle.spec.flag_col, bundle.spec.flag_val
                    )),
                    term: Some(bundle.spec.our_term.to_string()),
                    source: SourceRef::Manual,
                })
                .unwrap();
            let manual_index = KnowledgeIndex::build(manual);
            let retry = pipeline.generate(&task.question, &manual_index, &bundle.db, &[]);
            let (fixed, _) =
                genedit_bird::score_prediction(&bundle.db, &task.gold_sql, retry.sql.as_deref());
            if fixed {
                manual_edits += 1;
            } else {
                unresolved += 1;
            }
        }
    }

    println!("Edit-recommendation metrics (§4.2.3) — scripted SMEs, ownership term removed");
    println!("----------------------------------------------------------------------");
    println!("feedback sessions opened:              {sessions}");
    println!("edits recommended:                     {edits_recommended}");
    println!("edits staged:                          {edits_staged}");
    println!("resolved by edits accepted as-is:      {accepted_as_is}");
    println!("resolved after solver iteration:       {accepted_after_iteration}");
    println!("resolved by manual knowledge edits:    {manual_edits}");
    println!("unresolved sessions:                   {unresolved}");
    println!("failing queries without feedback:      {no_feedback}");
    let resolved = accepted_as_is + accepted_after_iteration + manual_edits;
    if sessions > 0 {
        println!(
            "as-is acceptance rate: {:.1}%  (paper metric i)",
            100.0 * accepted_as_is as f64 / sessions as f64
        );
        println!(
            "after-iteration/manual rate: {:.1}%  (paper metric ii)",
            100.0 * (accepted_after_iteration + manual_edits) as f64 / sessions as f64
        );
        println!(
            "total resolution rate: {:.1}%",
            100.0 * resolved as f64 / sessions as f64
        );
    }
}
