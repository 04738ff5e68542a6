//! A miniature analytics-engine REPL around the GenEdit pipeline — the
//! paper's point that "Text-to-SQL is not a standalone product and instead
//! ships … within an analytics engine" (§1). Reads commands from stdin, so
//! it works interactively or scripted:
//!
//! ```text
//! echo 'How many sports organisations are in Canada?
//! :knowledge
//! :quit' | cargo run --release --example analytics_repl
//! ```
//!
//! Commands:
//!   <question>            generate SQL, run it, show the table
//!   :feedback <text>      recommend edits for the last generation
//!   :stage                stage all current recommendations
//!   :regenerate           regenerate the last question with staged edits
//!   :submit               regression-test staged edits and merge
//!   :knowledge            knowledge-set summary
//!   :history              audit log tail
//!   :save <dir>           snapshot the knowledge set into a new durable
//!                         store at <dir> (writes <dir>/knowledge.json)
//!   :quit

use genedit::bird::{DomainBundle, SPORTS};
use genedit::core::{
    generate_edits, submit_edits, GenEditPipeline, GoldenQuery, KnowledgeIndex, RecommendedEdit,
    SubmissionResult,
};
use genedit::knowledge::{DurableKnowledgeStore, KnowledgeSet, StagingArea};
use genedit::llm::{OracleConfig, OracleModel, TaskRegistry};
use genedit::sql::execute_sql;
use std::io::BufRead;

fn main() {
    let bundle = DomainBundle::build(&SPORTS, (24, 7, 3), 42);
    let mut registry = TaskRegistry::new();
    for t in &bundle.tasks {
        registry.register(t.clone());
    }
    let oracle = OracleModel::with_config(
        registry,
        OracleConfig {
            noise_rate: 0.0,
            pseudo_drift_probability: 0.0,
            drift_probability: 0.0,
            canonical_form_penalty: 0.0,
            ..Default::default()
        },
    );
    let pipeline = GenEditPipeline::new(&oracle);

    let mut deployed = bundle.build_knowledge();
    let mut staging = StagingArea::new();
    let mut recommendations: Vec<RecommendedEdit> = Vec::new();
    let mut last: Option<(String, genedit::core::GenerationResult)> = None;

    println!(
        "GenEdit analytics REPL — database `{}` ({} tables). Type a question or :quit.",
        bundle.db.name,
        bundle.db.tables().len()
    );
    println!(
        "(the oracle model only knows the generated suite's questions; try e.g.)\n  {}\n  {}",
        bundle.tasks[1].question, bundle.tasks[5].question
    );

    let stdin = std::io::stdin();
    for line in stdin.lock().lines() {
        let Ok(line) = line else { break };
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        println!("> {line}");

        if let Some(rest) = line.strip_prefix(':') {
            let (cmd, arg) = match rest.split_once(' ') {
                Some((c, a)) => (c, a.trim()),
                None => (rest, ""),
            };
            match cmd {
                "quit" | "q" | "exit" => break,
                "knowledge" => {
                    let s = deployed.stats();
                    println!(
                        "  {} examples, {} instructions, {} schema elements, {} intents, \
                         {} staged edits",
                        s.examples,
                        s.instructions,
                        s.schema_elements,
                        s.intents,
                        staging.len()
                    );
                }
                "history" => {
                    for logged in deployed.log().iter().rev().take(5) {
                        println!("  #{:<3} {}", logged.seq, logged.edit.summary());
                    }
                }
                "feedback" => {
                    let Some((question, generation)) = &last else {
                        println!("  nothing generated yet");
                        continue;
                    };
                    if arg.is_empty() {
                        println!("  usage: :feedback <text>");
                        continue;
                    }
                    let staged_view = staging.materialize(&deployed).expect("staged apply");
                    recommendations = generate_edits(arg, question, generation, &staged_view);
                    println!("  {} recommended edits:", recommendations.len());
                    for (i, rec) in recommendations.iter().enumerate() {
                        println!("    [{i}] {}", rec.edit.summary());
                    }
                }
                "stage" => {
                    let n = recommendations.len();
                    for rec in recommendations.drain(..) {
                        staging.stage(rec.edit);
                    }
                    println!("  staged {n} edits ({} total)", staging.len());
                }
                "regenerate" => {
                    let Some((question, _)) = last.clone() else {
                        println!("  nothing to regenerate");
                        continue;
                    };
                    let view = staging.materialize(&deployed).expect("staged apply");
                    let index = KnowledgeIndex::build(view);
                    let result = pipeline.generate(&question, &index, &bundle.db, &[]);
                    show(&bundle.db, &result);
                    last = Some((question, result));
                }
                "submit" => {
                    let golden: Vec<GoldenQuery> = bundle
                        .tasks
                        .iter()
                        .take(5)
                        .map(|t| GoldenQuery {
                            question: t.question.clone(),
                            gold_sql: t.gold_sql.clone(),
                        })
                        .collect();
                    let area = std::mem::take(&mut staging);
                    match submit_edits(
                        &pipeline,
                        &bundle.db,
                        &mut deployed,
                        area,
                        &golden,
                        |o| o.passed(),
                        "repl merge",
                    ) {
                        Ok(SubmissionResult::Merged { checkpoint, .. }) => {
                            println!("  merged (revert checkpoint {checkpoint})")
                        }
                        Ok(other) => println!("  not merged: {other:?}"),
                        Err(e) => println!("  error: {e}"),
                    }
                }
                "save" => {
                    if arg.is_empty() {
                        println!("  usage: :save <dir>");
                        continue;
                    }
                    match save(&deployed, arg) {
                        Ok(()) => println!("  saved to {arg}/knowledge.json"),
                        Err(e) => println!("  save failed: {e}"),
                    }
                }
                other => println!("  unknown command :{other}"),
            }
            continue;
        }

        // A question.
        let view = staging.materialize(&deployed).expect("staged apply");
        let index = KnowledgeIndex::build(view);
        let result = pipeline.generate(line, &index, &bundle.db, &[]);
        show(&bundle.db, &result);
        last = Some((line.to_string(), result));
    }
    println!("bye");
}

/// Snapshot `set` into a new durable store at `dir`: its logged edits
/// commit as one batch, and compaction writes `<dir>/knowledge.json`
/// (temp file, fsync, atomic rename). A store that already holds edits
/// is refused rather than appended to.
fn save(set: &KnowledgeSet, dir: &str) -> Result<(), Box<dyn std::error::Error>> {
    let mut store = DurableKnowledgeStore::open(dir)?;
    if store.epoch() > 0 {
        return Err(format!("{dir} already holds {} edits", store.epoch()).into());
    }
    let mut batch = StagingArea::new();
    for logged in set.log() {
        batch.stage(logged.edit.clone());
    }
    store.commit(batch, "repl save")?;
    store.compact()?;
    Ok(())
}

fn show(db: &genedit::sql::Database, result: &genedit::core::GenerationResult) {
    match &result.sql {
        Some(sql) => {
            println!("  SQL: {sql}");
            match execute_sql(db, sql) {
                Ok(rs) => {
                    for line in rs.to_table_string().lines().take(8) {
                        println!("  {line}");
                    }
                    if rs.row_count() > 6 {
                        println!("  … ({} rows)", rs.row_count());
                    }
                }
                Err(e) => println!("  execution failed: {e}"),
            }
        }
        None => println!("  (no SQL generated; errors: {:?})", result.errors),
    }
}
