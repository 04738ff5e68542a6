//! Regenerates the **§3.3.4 complexity claim**: the simpler fine-tuned
//! approach ("SimpleFT", the paper's reference 15) beats GenEdit on the benchmark,
//! yet "can't handle the same query complexity" — which is why GenEdit is
//! the one deployed. We sweep gold queries of CTE depth 1..8 and report
//! EX for both methods, plus their benchmark-suite totals.
//!
//! Run: `cargo run --release -p genedit-bench --bin complexity_sweep`

use genedit_bird::{complexity::sweep_variants, Workload, SPORTS};
use genedit_core::{
    run_baseline, Ablation, ExampleStyle, GenEditPipeline, Harness, KnowledgeIndex, MethodProfile,
    SchemaStyle,
};
use genedit_llm::{OracleConfig, OracleModel, TaskRegistry};
use genedit_sql::analysis::complexity;

/// The paper's other system (its reference 15): fine-tuned model, maximal schema
/// context, simple single-shot operators.
fn simple_ft() -> MethodProfile {
    MethodProfile {
        name: "SimpleFT",
        examples: ExampleStyle::None,
        include_evidence: true,
        schema: SchemaStyle::Linked { recall: 0.99 },
        reasoning_effort: 1.5, // fine-tuning buys single-shot fluency
        candidates: 2,
        max_retries: 1,
    }
}

fn main() {
    // Part 1: benchmark-suite totals (SimpleFT should win, §3.3.4).
    let workload = Workload::standard(42);
    let harness = Harness::new(&workload);
    let genedit_report = harness.run_genedit(Ablation::None);
    let ft_report = harness.run_baseline(&simple_ft());
    println!("Benchmark suite (132 tasks):");
    println!("  GenEdit  EX = {:.2}", genedit_report.ex(None));
    println!(
        "  SimpleFT EX = {:.2}  (paper: 67.21 vs 60.61)",
        ft_report.ex(None)
    );

    // Part 2: the complexity sweep over chained-CTE tasks, eight
    // (year, k) variants per depth. The benchmark-noise floor and the
    // phrasing penalty are off: this is a controlled capacity experiment,
    // not a benchmark run.
    let mut registry = TaskRegistry::new();
    let mut tasks_by_depth: Vec<Vec<genedit_llm::TaskKnowledge>> = vec![Vec::new(); 9];
    #[allow(clippy::needless_range_loop)] // depth is semantic, not positional
    for depth in 1..=8 {
        for task in sweep_variants(&SPORTS, depth) {
            registry.register(task.clone());
            tasks_by_depth[depth].push(task);
        }
    }
    let oracle = OracleModel::with_config(
        registry,
        OracleConfig {
            noise_rate: 0.0,
            canonical_form_penalty: 0.0,
            ..Default::default()
        },
    );
    let pipeline = GenEditPipeline::new(&oracle);
    let bundle = workload
        .domains
        .iter()
        .find(|b| b.db.name == "sports_holding")
        .expect("sports domain");
    let index = KnowledgeIndex::build(bundle.build_knowledge());
    let ft = simple_ft();

    println!("\nComplexity sweep (chained-CTE depth, sports domain):");
    println!(
        "{:<6} {:>11} {:>10} {:>10}",
        "depth", "complexity", "GenEdit", "SimpleFT"
    );
    #[allow(clippy::needless_range_loop)]
    for depth in 1..=8 {
        let tasks = &tasks_by_depth[depth];
        let cscore = complexity(&tasks[0].gold_query()).total();
        let mut ge_ok = 0;
        let mut ft_ok = 0;
        for task in tasks {
            let r = pipeline.generate(&task.question, &index, &bundle.db, &task.evidence);
            if genedit_bird::score_prediction(&bundle.db, &task.gold_sql, r.sql.as_deref()).0 {
                ge_ok += 1;
            }
            let r = run_baseline(
                &ft,
                &oracle,
                &index,
                &bundle.db,
                &task.question,
                &[],
                &task.evidence,
            );
            if genedit_bird::score_prediction(&bundle.db, &task.gold_sql, r.sql.as_deref()).0 {
                ft_ok += 1;
            }
        }
        let n = tasks.len() as f64;
        println!(
            "{:<6} {:>11} {:>9.0}% {:>9.0}%",
            depth,
            cscore,
            100.0 * ge_ok as f64 / n,
            100.0 * ft_ok as f64 / n
        );
    }
    println!(
        "\nExpected shape: SimpleFT matches or beats GenEdit at low depth, \
         collapses once complexity exceeds its single-shot capacity; \
         GenEdit's plan-guided generation keeps working (the paper's \
         deployment argument, §3.3.4)."
    );
}
