//! The metric catalogue — names, units, directions and regression
//! bounds — plus the rules for turning a run into those metrics and for
//! comparing two sets of runs.
//!
//! `BENCHMARK.json` at the repository root lists the same end-to-end
//! metrics; a unit test keeps the two in step.

use crate::driver::{Block, Driver, Ending};
use crate::procfs;
use crate::stats;
use crate::verify::Verdict;
use serde_json::Value;

/// Timed blocks per pass. The reported value of a timed metric is the
/// median over blocks.
pub const BLOCKS: usize = 5;

/// A block during which the hypervisor withheld more than this share of
/// the machine's CPU time measured a neighbour, not the program. Such
/// blocks are re-run (see `pass::run`) and left out of the medians when
/// enough quiet ones exist. On hardware that reports no steal time every
/// block is quiet.
pub const QUIET_STEAL_SHARE: f64 = 0.05;

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

/// One end-to-end metric: what a user of the service would see.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
    /// Share of the baseline median by which a later change may worsen
    /// the metric before it counts as a regression.
    pub bound: f64,
}

/// The end-to-end metrics every workload reports.
pub const END_TO_END: [EndToEnd; 7] = [
    EndToEnd {
        name: "setup_s",
        unit: "s",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "throughput_rps",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "latency_p99_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "cpu_ms_per_request",
        unit: "ms",
        better: Better::Lower,
        bound: 0.25,
    },
    EndToEnd {
        name: "peak_rss_mb",
        unit: "MB",
        better: Better::Lower,
        bound: 0.20,
    },
    EndToEnd {
        name: "ex_correct_share",
        unit: "ratio",
        better: Better::Higher,
        bound: 0.005,
    },
];

/// The write-path metrics only `edit_churn` has. They are reported (and
/// compared by `compare`) for that workload alone, so they are not in
/// `BENCHMARK.json`, whose end-to-end metrics every workload must emit.
pub const EDIT_ONLY: [EndToEnd; 3] = [
    EndToEnd {
        name: "edit_commit_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "post_edit_read_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
    EndToEnd {
        name: "improve_session_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.15,
    },
];

/// A measured value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Metric {
        Metric { name, value, unit }
    }
}

/// `{"name": {"value": v, "unit": u}, …}` in the order given.
pub fn metrics_to_json(metrics: &[Metric]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|m| {
                (
                    m.name.to_string(),
                    Value::Object(vec![
                        ("value".to_string(), Value::F64(m.value)),
                        ("unit".to_string(), Value::Str(m.unit.to_string())),
                    ]),
                )
            })
            .collect(),
    )
}

/// Print metrics one per line: name, value, unit.
pub fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!("{:<44} {:>16.4} {}", m.name, m.value, m.unit);
    }
}

/// Per-block figures of one pass.
pub struct BlockFigures {
    pub throughput_rps: Vec<f64>,
    pub latency_p50_ms: Vec<f64>,
    pub latency_p99_ms: Vec<f64>,
    pub cpu_ms_per_request: Vec<f64>,
    /// Lowest percentile any block had to fall back to for the tail
    /// (0.99 when every block had ten samples beyond p99).
    pub tail_percentile: f64,
    /// Blocks under [`QUIET_STEAL_SHARE`]. The figures cover only these
    /// when they are the majority, every block otherwise.
    pub quiet_blocks: usize,
}

/// Cut a pass into its blocks.
pub fn block_figures(driver: &Driver<'_>, verdict: &Verdict) -> BlockFigures {
    let blocks: &[Block] = &driver.blocks;
    let mut latencies: Vec<Vec<f64>> = vec![Vec::new(); blocks.len()];
    let mut correct = vec![0usize; blocks.len()];
    let mut attempted = vec![0usize; blocks.len()];
    for (read, ok) in driver.reads.iter().zip(&verdict.ok) {
        attempted[read.block] += 1;
        if *ok {
            correct[read.block] += 1;
        }
        if matches!(read.ending, Ending::Completed { .. }) {
            latencies[read.block].push(read.latency_ms);
        }
    }
    let mut figures = BlockFigures {
        throughput_rps: Vec::new(),
        latency_p50_ms: Vec::new(),
        latency_p99_ms: Vec::new(),
        cpu_ms_per_request: Vec::new(),
        tail_percentile: 0.99,
        quiet_blocks: blocks
            .iter()
            .filter(|b| b.steal_share() <= QUIET_STEAL_SHARE)
            .count(),
    };
    let quiet_only = 2 * figures.quiet_blocks > blocks.len();
    for (b, block) in blocks.iter().enumerate() {
        if attempted[b] == 0 || block.wall_s <= 0.0 {
            continue;
        }
        if quiet_only && block.steal_share() > QUIET_STEAL_SHARE {
            continue;
        }
        stats::sort(&mut latencies[b]);
        let (p99, used) = stats::tail_percentile(&latencies[b], 0.99);
        figures.tail_percentile = figures.tail_percentile.min(used);
        figures
            .throughput_rps
            .push(correct[b] as f64 / block.wall_s);
        figures
            .latency_p50_ms
            .push(stats::percentile(&latencies[b], 0.5));
        figures.latency_p99_ms.push(p99);
        figures
            .cpu_ms_per_request
            .push(block.cpu_s * 1e3 / attempted[b] as f64);
    }
    figures
}

/// The end-to-end metrics of an untraced pass, in catalogue order.
pub fn end_to_end(setup_s: f64, figures: &BlockFigures, verdict: &Verdict) -> Vec<Metric> {
    END_TO_END
        .iter()
        .map(|m| {
            let value = match m.name {
                "setup_s" => setup_s,
                "throughput_rps" => stats::median(&figures.throughput_rps),
                "latency_p50_ms" => stats::median(&figures.latency_p50_ms),
                "latency_p99_ms" => stats::median(&figures.latency_p99_ms),
                "cpu_ms_per_request" => stats::median(&figures.cpu_ms_per_request),
                "peak_rss_mb" => procfs::peak_rss_mb(),
                "ex_correct_share" => verdict.ex_correct_share,
                other => unreachable!("metric {other} has no definition"),
            };
            Metric::new(m.name, value, m.unit)
        })
        .collect()
}

/// The write-path timings of `edit_churn` (zero elsewhere): medians over
/// the pass's improvement steps and post-edit reads.
pub fn edit_metrics(driver: &Driver<'_>) -> Vec<Metric> {
    let committed: Vec<_> = driver.steps.iter().filter(|s| s.committed).collect();
    let commit: Vec<f64> = committed.iter().map(|s| s.commit_ms).collect();
    let session: Vec<f64> = driver
        .steps
        .iter()
        .filter(|s| s.session_ms > 0.0)
        .map(|s| s.session_ms)
        .collect();
    let post_edit: Vec<f64> = driver
        .reads
        .iter()
        .filter(|r| r.post_edit && matches!(r.ending, Ending::Completed { .. }))
        .map(|r| r.latency_ms)
        .collect();
    EDIT_ONLY
        .iter()
        .zip([commit, post_edit, session])
        .map(|(m, values)| Metric::new(m.name, stats::median(&values), m.unit))
        .collect()
}

/// Verdict of comparing one metric across two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Judgement {
    Ok,
    Regressed,
    /// The runs of one side spread wider than the bound, and the sides
    /// overlap: the data cannot tell "unchanged" from "regressed".
    Unresolved,
}

/// One row of a comparison.
#[derive(Debug, Clone, PartialEq)]
pub struct Comparison {
    pub median_a: f64,
    pub median_b: f64,
    /// Relative change of B against A, signed so that positive is worse.
    pub worse_by: f64,
    /// Widest interquartile range of either side, as a share of its median.
    pub spread: f64,
    pub judgement: Judgement,
}

fn relative_spread(values: &[f64]) -> f64 {
    match stats::quartiles(values) {
        Some((q1, q2, q3)) if q2 != 0.0 => (q3 - q1) / q2.abs(),
        _ => 0.0,
    }
}

/// Compare the runs of baseline `a` with the runs of candidate `b`.
///
/// `b` regressed when its median is worse than `a`'s by more than the
/// bound. When it is not, but either side's spread is wider than the
/// bound, the metric is unresolved — unless every run of `b` is at
/// least as good as every run of `a`.
pub fn compare(metric: &EndToEnd, a: &[f64], b: &[f64]) -> Comparison {
    let median_a = stats::median(a);
    let median_b = stats::median(b);
    let sign = match metric.better {
        Better::Lower => 1.0,
        Better::Higher => -1.0,
    };
    let worse_by = if median_a == 0.0 {
        0.0
    } else {
        sign * (median_b - median_a) / median_a.abs()
    };
    let spread = relative_spread(a).max(relative_spread(b));
    let b_never_worse = b
        .iter()
        .all(|vb| a.iter().all(|va| sign * (vb - va) <= 0.0));
    let judgement = if worse_by > metric.bound {
        Judgement::Regressed
    } else if spread > metric.bound && !b_never_worse {
        Judgement::Unresolved
    } else {
        Judgement::Ok
    };
    Comparison {
        median_a,
        median_b,
        worse_by,
        spread,
        judgement,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const LOWER: EndToEnd = EndToEnd {
        name: "latency_p50_ms",
        unit: "ms",
        better: Better::Lower,
        bound: 0.10,
    };
    const HIGHER: EndToEnd = EndToEnd {
        name: "throughput_rps",
        unit: "req/s",
        better: Better::Higher,
        bound: 0.10,
    };

    #[test]
    fn within_bound_is_ok_beyond_is_regressed() {
        let a = [1.00, 1.01, 0.99];
        assert_eq!(
            compare(&LOWER, &a, &[1.08, 1.09, 1.07]).judgement,
            Judgement::Ok
        );
        assert_eq!(
            compare(&LOWER, &a, &[1.12, 1.13, 1.11]).judgement,
            Judgement::Regressed
        );
        // Direction flips for higher-is-better metrics.
        let a = [1000.0, 1010.0, 990.0];
        assert_eq!(
            compare(&HIGHER, &a, &[880.0, 885.0, 875.0]).judgement,
            Judgement::Regressed
        );
        assert_eq!(
            compare(&HIGHER, &a, &[1200.0, 1190.0, 1210.0]).judgement,
            Judgement::Ok
        );
        let c = compare(&HIGHER, &a, &[950.0, 950.0, 950.0]);
        assert!((c.worse_by - 0.05).abs() < 1e-12);
    }

    #[test]
    fn wide_spread_is_unresolved_unless_b_wins_every_pair() {
        let noisy_a = [1.0, 1.3, 0.8, 1.2, 0.9];
        let c = compare(&LOWER, &noisy_a, &[1.0, 1.05, 0.95, 1.1, 0.9]);
        assert_eq!(c.judgement, Judgement::Unresolved);
        assert!(c.spread > LOWER.bound);
        // Every run of B beats every run of A: resolved despite the noise.
        let c = compare(&LOWER, &noisy_a, &[0.5, 0.6, 0.7]);
        assert_eq!(c.judgement, Judgement::Ok);
        // A regression is a regression however noisy.
        let c = compare(&LOWER, &noisy_a, &[1.5, 1.9, 1.4]);
        assert_eq!(c.judgement, Judgement::Regressed);
    }

    #[test]
    fn single_runs_compare_by_value() {
        assert_eq!(compare(&LOWER, &[1.0], &[1.05]).judgement, Judgement::Ok);
        assert_eq!(
            compare(&LOWER, &[1.0], &[1.2]).judgement,
            Judgement::Regressed
        );
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = serde_json::parse_value(&text).expect("BENCHMARK.json parses");
        let field = |v: &Value, key: &str| -> Value {
            v.as_object()
                .and_then(|o| o.iter().find(|(k, _)| k == key))
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null)
        };
        let listed = field(&doc, "end_to_end");
        let listed = listed.as_array().expect("end_to_end is a list");
        assert_eq!(listed.len(), END_TO_END.len());
        for (entry, metric) in listed.iter().zip(END_TO_END.iter()) {
            assert_eq!(field(entry, "name"), Value::Str(metric.name.to_string()));
            assert_eq!(field(entry, "unit"), Value::Str(metric.unit.to_string()));
            let better = match metric.better {
                Better::Lower => "lower",
                Better::Higher => "higher",
            };
            assert_eq!(field(entry, "better"), Value::Str(better.to_string()));
            assert_eq!(field(entry, "bound"), Value::F64(metric.bound));
        }
        let per_layer = field(&doc, "per_layer");
        let per_layer = per_layer.as_array().expect("per_layer is a list");
        assert_eq!(per_layer.len(), crate::layers::PER_LAYER.len());
        for (entry, (name, unit)) in per_layer.iter().zip(crate::layers::PER_LAYER.iter()) {
            assert_eq!(field(entry, "name"), Value::Str(name.to_string()));
            assert_eq!(field(entry, "unit"), Value::Str(unit.to_string()));
        }
        let workloads = field(&doc, "workloads");
        let names: Vec<Value> = workloads
            .as_array()
            .expect("workloads is a list")
            .iter()
            .map(|w| field(w, "name"))
            .collect();
        let expected: Vec<Value> = crate::workloads::Kind::ALL
            .iter()
            .map(|k| Value::Str(k.name().to_string()))
            .collect();
        assert_eq!(names, expected);
    }
}
