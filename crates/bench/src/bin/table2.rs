//! Regenerates **Table 2**: the operator ablation study.
//!
//! Run: `cargo run --release -p genedit-bench --bin table2`

use genedit_bench::paper::TABLE2;
use genedit_bird::{EvalReport, Workload};
use genedit_core::{Ablation, Harness};

fn main() {
    let args = genedit_bench::Args::parse();
    let seed = args.seed;
    let workload = Workload::standard(seed);
    let harness = Harness::new(&workload);

    let reports: Vec<EvalReport> = Ablation::ALL
        .into_iter()
        .map(|a| harness.run_genedit(a))
        .collect();

    if args.json {
        println!(
            "{}",
            genedit_bench::reports_to_json("table2", seed, workload.task_count(), &reports)
        );
        return;
    }

    println!(
        "Table 2 — ablation study (seed {seed}, {} tasks)",
        workload.task_count()
    );
    println!("{}", EvalReport::table_header());

    let mut full_ex = None;
    for r in &reports {
        let all = r.ex(None);
        match full_ex {
            None => {
                full_ex = Some(all);
                println!("{}", r.table_row());
            }
            Some(base) => println!("{} (Δ {:+.2})", r.table_row(), all - base),
        }
    }

    genedit_bench::print_paper_comparison(&reports, &TABLE2);
}
