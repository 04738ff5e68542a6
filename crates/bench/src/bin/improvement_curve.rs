//! Regenerates the **continuous-improvement claim** (§1, §6): starting
//! from a knowledge set missing all three domain terms, SME feedback is
//! folded in round by round — staged, regression-tested, approved, merged
//! — and Execution Accuracy rises while previously-failing queries pass.
//!
//! Run: `cargo run --release -p genedit-bench --bin improvement_curve`

use genedit_bird::Workload;
use genedit_core::{
    sme, submit_edits, FeedbackSession, GenEditPipeline, GoldenQuery, KnowledgeIndex,
    SubmissionResult,
};
use genedit_knowledge::{Edit, KnowledgeSet};
use genedit_llm::OracleModel;
use serde::Serialize;
use std::collections::HashMap;

/// One row of the improvement curve, serialized under `--json`.
#[derive(Debug, Clone, Serialize)]
struct RoundRecord {
    round: usize,
    ex: f64,
    merged: usize,
    regressed: usize,
    fixed: usize,
    edits_logged: usize,
}

const ROUNDS: usize = 8;
/// Feedback sessions an SME works through per domain per round.
const SESSIONS_PER_ROUND: usize = 3;

fn degrade_all_terms(ks: &KnowledgeSet, terms: &[&str]) -> KnowledgeSet {
    let mut ks = ks.clone();
    for term in terms {
        let upper = term.to_uppercase();
        let doomed: Vec<_> = ks
            .instructions()
            .iter()
            .filter(|i| i.retrieval_text().to_uppercase().contains(&upper))
            .map(|i| i.id)
            .collect();
        for id in doomed {
            ks.apply(Edit::DeleteInstruction { id }).unwrap();
        }
        let doomed: Vec<_> = ks
            .examples()
            .iter()
            .filter(|e| e.retrieval_text().to_uppercase().contains(&upper))
            .map(|e| e.id)
            .collect();
        for id in doomed {
            ks.apply(Edit::DeleteExample { id }).unwrap();
        }
    }
    ks
}

fn main() {
    let args = genedit_bench::Args::parse();
    let workload = Workload::standard(args.seed);
    let oracle = OracleModel::new(workload.registry());
    let pipeline = GenEditPipeline::new(&oracle);
    let mut records: Vec<RoundRecord> = Vec::new();

    // Day-0 deployment: the knowledge set lacks every domain term.
    let mut deployed: HashMap<String, KnowledgeSet> = workload
        .domains
        .iter()
        .map(|b| {
            let terms = [b.spec.our_term, b.spec.ratio_term, b.spec.qoq_term];
            (
                b.db.name.clone(),
                degrade_all_terms(&b.build_knowledge(), &terms),
            )
        })
        .collect();

    if !args.json {
        println!("Continuous improvement: EX per feedback round ({ROUNDS} rounds)");
        println!(
            "{:<7} {:>7} {:>9} {:>10} {:>8} {:>8}",
            "round", "EX%", "merged", "regressed", "fixed", "stats"
        );
    }

    let mut previously_failing: Vec<String> = Vec::new();
    for round in 0..=ROUNDS {
        // Evaluate the full suite against the current deployment.
        let mut correct = 0usize;
        let mut total = 0usize;
        let mut failing: Vec<(String, String)> = Vec::new(); // (db, task_id)
        for bundle in &workload.domains {
            let index = KnowledgeIndex::build(deployed[&bundle.db.name].clone());
            for task in &bundle.tasks {
                let r = pipeline.generate(&task.question, &index, &bundle.db, &[]);
                let (ok, _) =
                    genedit_bird::score_prediction(&bundle.db, &task.gold_sql, r.sql.as_deref());
                total += 1;
                if ok {
                    correct += 1;
                } else {
                    failing.push((bundle.db.name.clone(), task.task_id.clone()));
                }
            }
        }
        let ex = 100.0 * correct as f64 / total as f64;
        let now_fixed = previously_failing
            .iter()
            .filter(|id| !failing.iter().any(|(_, f)| f == *id))
            .count();
        previously_failing = failing.iter().map(|(_, id)| id.clone()).collect();

        if round == ROUNDS {
            records.push(RoundRecord {
                round,
                ex,
                merged: 0,
                regressed: 0,
                fixed: now_fixed,
                edits_logged: deployed.values().map(|k| k.stats().edits_logged).sum(),
            });
            if !args.json {
                println!("{:<7} {:>7.2}   (final)", round, ex);
            }
            break;
        }

        // Feedback phase: SMEs work through a few failing queries per
        // domain, then submit the staged edits through regression testing.
        let mut merged = 0usize;
        let mut regressed = 0usize;
        for bundle in &workload.domains {
            let mut handled = 0usize;
            let ks_now = deployed[&bundle.db.name].clone();
            let golden: Vec<GoldenQuery> = {
                // Golden set: currently-passing queries guard the merge.
                let index = KnowledgeIndex::build(ks_now.clone());
                bundle
                    .tasks
                    .iter()
                    .filter(|t| {
                        let r = pipeline.generate(&t.question, &index, &bundle.db, &[]);
                        genedit_bird::score_prediction(&bundle.db, &t.gold_sql, r.sql.as_deref()).0
                    })
                    .take(5)
                    .map(|t| GoldenQuery {
                        question: t.question.clone(),
                        gold_sql: t.gold_sql.clone(),
                    })
                    .collect()
            };
            for task in &bundle.tasks {
                if handled >= SESSIONS_PER_ROUND {
                    break;
                }
                if !failing
                    .iter()
                    .any(|(db, id)| db == &bundle.db.name && id == &task.task_id)
                {
                    continue;
                }
                let ks_ref = deployed.get(&bundle.db.name).unwrap().clone();
                let mut session =
                    FeedbackSession::open(&pipeline, &bundle.db, &ks_ref, task.question.clone());
                let Some(feedback) = sme::feedback_for(task, session.latest.sql.as_deref()) else {
                    continue;
                };
                session.submit_feedback(&feedback);
                session.stage_all();
                session.regenerate();
                // Iterate once more if needed.
                if let Some(fb2) = sme::feedback_for(task, session.latest.sql.as_deref()) {
                    session.submit_feedback(&fb2);
                    session.stage_all();
                    session.regenerate();
                }
                handled += 1;
                let staging = session.into_staged();
                let deployed_ks = deployed.get_mut(&bundle.db.name).unwrap();
                match submit_edits(
                    &pipeline,
                    &bundle.db,
                    deployed_ks,
                    staging,
                    &golden,
                    |outcome| outcome.passed(),
                    &format!("round {round} feedback on {}", task.task_id),
                )
                .expect("staged edits apply")
                {
                    SubmissionResult::Merged { .. } => merged += 1,
                    SubmissionResult::RegressionFailed(_) => regressed += 1,
                    SubmissionResult::ApprovalDeclined(_) => {}
                }
            }
        }
        let stats: usize = deployed.values().map(|k| k.stats().edits_logged).sum();
        records.push(RoundRecord {
            round,
            ex,
            merged,
            regressed,
            fixed: now_fixed,
            edits_logged: stats,
        });
        if !args.json {
            println!(
                "{:<7} {:>7.2} {:>9} {:>10} {:>8} {:>8}",
                round, ex, merged, regressed, now_fixed, stats
            );
        }
    }

    if args.json {
        let doc = genedit_bench::object! {
            "artifact": "improvement_curve",
            "seed": args.seed,
            "rounds": records,
        };
        println!(
            "{}",
            serde_json::to_string_pretty(&doc).expect("curve serialization is infallible")
        );
        return;
    }

    println!("\nKnowledge-set history (sports domain):");
    let sports = &deployed["sports_holding"];
    for cp in sports.checkpoints() {
        println!("  checkpoint {}: {}", cp.id, cp.label);
    }
    println!("  {} edits logged in total", sports.log().len());
}
