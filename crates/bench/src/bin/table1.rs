//! Regenerates **Table 1**: GenEdit vs the five baselines on the
//! BIRD-like suite (93/28/11 Simple/Moderate/Challenging), Execution
//! Accuracy per stratum.
//!
//! Run: `cargo run --release -p genedit-bench --bin table1`

use genedit_bench::paper::TABLE1;
use genedit_bird::{EvalReport, Workload};
use genedit_core::{paper_baselines, Ablation, Harness};

fn main() {
    let args = genedit_bench::Args::parse();
    let seed = args.seed;
    let workload = Workload::standard(seed);
    let harness = Harness::new(&workload);

    let mut reports: Vec<EvalReport> = Vec::new();
    for profile in paper_baselines() {
        reports.push(harness.run_baseline(&profile));
    }
    reports.push(harness.run_genedit(Ablation::None));

    if args.json {
        println!(
            "{}",
            genedit_bench::reports_to_json("table1", seed, workload.task_count(), &reports)
        );
        return;
    }

    println!(
        "Table 1 — EX on the BIRD-like suite (seed {seed}, {} tasks)",
        workload.task_count()
    );
    println!("{}", EvalReport::table_header());
    for r in &reports {
        println!("{}", r.table_row());
    }

    genedit_bench::print_paper_comparison(&reports, &TABLE1);
}
