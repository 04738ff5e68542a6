//! **Chaos sweep**: GenEdit under injected model faults, 0%–50%.
//!
//! Wraps the oracle in a deterministic [`FaultInjector`] and the pipeline
//! in the retry/breaker layer, then sweeps the transient-fault rate and
//! reports Execution Accuracy, operator degradations, retries, sheds, and
//! simulated retry overhead per rate. The rate-0 row doubles as the
//! zero-overhead check: with no faults the resilient pipeline must match
//! the plain pipeline's EX and model-call count exactly.
//!
//! `--spikes` switches to the **latency-spike-only** mode: the injector
//! fires timing faults only (no error-side faults), real-clock, with
//! the pipeline's model wrapped in hedged dispatch. Spikes change when
//! answers arrive, never what they are — so EX must hold exactly at
//! every spike rate while the hedge fired/won counters show the tail
//! being cut. Both modes write the same `BENCH_chaos.json` artifact.
//!
//! Run: `cargo run --release -p genedit-bench --bin chaos_sweep`
//! (`--smoke` = small workload for CI; `--spikes` = latency-spike mode;
//! `--json` prints the document; the JSON is always written to
//! `BENCH_chaos.json`.)

use genedit_bench::{object, Args, Report};
use genedit_bird::Workload;
use genedit_core::{Ablation, Harness};
use genedit_llm::{
    Clock, FaultConfig, FaultInjector, HedgePolicy, HedgedModel, OracleModel, ResiliencePolicy,
    ResilienceState, SimulatedClock, SystemClock,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct Row {
    rate: f64,
    ex: f64,
    tasks: usize,
    degraded: usize,
    injected_faults: u64,
    retries: u64,
    sheds: u64,
    exhausted: u64,
    model_calls: usize,
    backoff_ms: f64,
}

/// One sweep point: a fresh injector + resilience runtime at `rate`, the
/// full GenEdit configuration over the whole workload.
fn run_rate(workload: &Workload, seed: u64, rate: f64) -> Row {
    let clock = Arc::new(SimulatedClock::new());
    let injector = FaultInjector::new(
        OracleModel::new(workload.registry()),
        FaultConfig::transient_only(rate),
        seed,
    )
    .with_clock(Arc::clone(&clock) as Arc<dyn Clock>);
    let harness = Harness::with_model(workload, injector);
    let state = Arc::new(
        ResilienceState::new(
            ResiliencePolicy::default(),
            Arc::clone(&clock) as Arc<dyn Clock>,
        )
        .with_metrics(Arc::clone(harness.metrics())),
    );
    let harness = harness.with_resilience(state);
    let report = harness.run_genedit(Ablation::None);

    let snapshot = harness.metrics().snapshot();
    let sum_prefix = |prefix: &str| -> u64 {
        snapshot
            .counters
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, count)| *count)
            .sum()
    };
    Row {
        rate,
        ex: report.ex(None),
        tasks: report.outcomes.len(),
        degraded: report.operators.values().map(|s| s.degraded).sum(),
        injected_faults: harness.model().log().total(),
        retries: sum_prefix("model.retry."),
        sheds: sum_prefix("model.shed."),
        exhausted: sum_prefix("model.exhausted."),
        model_calls: harness.model_usage().total_calls(),
        backoff_ms: clock.total_slept().as_secs_f64() * 1e3,
    }
}

/// Injected spike duration in the `--spikes` mode. Real-clock: hedging
/// decides on wall time, so simulated sleeps would hide the very
/// stragglers it exists to cut.
const SPIKE: Duration = Duration::from_millis(25);
/// Fixed hedge delay for the spike mode — well under a spike, well over
/// the oracle's (near-zero) base latency.
const SPIKE_HEDGE_DELAY: Duration = Duration::from_millis(5);

#[derive(Serialize)]
struct SpikeRow {
    rate: f64,
    ex: f64,
    tasks: usize,
    latency_spikes: u64,
    hedge_fired: u64,
    hedge_won: u64,
    hedge_wasted: u64,
    model_calls: usize,
    wall_ms: f64,
}

/// One spike-mode point: latency spikes only (every call still answers
/// correctly, some answer late), hedged dispatch over the injector.
fn run_spike_rate(workload: &Workload, seed: u64, rate: f64) -> SpikeRow {
    let injector = FaultInjector::new(
        OracleModel::new(workload.registry()),
        FaultConfig {
            latency_spike: rate,
            spike: SPIKE,
            ..FaultConfig::default()
        },
        seed,
    )
    .with_clock(Arc::new(SystemClock::new()) as Arc<dyn Clock>);
    let hedged = HedgedModel::new(
        injector,
        HedgePolicy {
            min_delay: SPIKE_HEDGE_DELAY,
            max_delay: SPIKE_HEDGE_DELAY,
            min_observations: 10,
            ..HedgePolicy::default()
        },
    );
    let started = Instant::now();
    let harness = Harness::with_model(workload, hedged);
    let report = harness.run_genedit(Ablation::None);
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let stats = harness.model().stats();
    SpikeRow {
        rate,
        ex: report.ex(None),
        tasks: report.outcomes.len(),
        latency_spikes: harness.model().inner().log().latency_spikes,
        hedge_fired: stats.fired,
        hedge_won: stats.won,
        hedge_wasted: stats.wasted,
        model_calls: harness.model_usage().total_calls(),
        wall_ms,
    }
}

/// `smoke`/`standard`: this sweep's `mode` leaf predates the shared
/// `smoke`/`full` spelling and the artifact keeps it.
fn workload_for(args: &Args) -> (Workload, &'static str) {
    if args.smoke {
        (Workload::small(args.seed), "smoke")
    } else {
        (Workload::standard(args.seed), "standard")
    }
}

/// The `--spikes` entry point: sweep the spike rate, assert EX is
/// untouched (spikes are timing-only), report hedge counters.
fn spike_main(args: &Args, mut report: Report) -> ! {
    let (workload, mode) = workload_for(args);
    let rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let rows: Vec<SpikeRow> = rates
        .iter()
        .map(|&rate| run_spike_rate(&workload, args.seed, rate))
        .collect();

    // Spikes change timing, never answers: EX at every rate must equal
    // the rate-0 EX exactly — and the hedge must actually engage once
    // spikes appear.
    let ex0 = rows[0].ex;
    let ex_stable = rows.iter().all(|r| r.ex == ex0);
    let hedged_when_spiked = rows
        .iter()
        .all(|r| r.latency_spikes == 0 || r.hedge_fired > 0);
    if !ex_stable {
        report
            .violations
            .push("EX moved with the spike rate".to_string());
    }
    if !hedged_when_spiked {
        report
            .violations
            .push("spikes landed but the hedge never fired".to_string());
    }

    if !args.json {
        println!(
            "Chaos sweep (latency spikes) — hedged GenEdit under {}ms spikes \
             (seed {}, {} tasks{})",
            SPIKE.as_millis(),
            args.seed,
            workload.task_count(),
            if args.smoke { ", smoke" } else { "" }
        );
        println!(
            "{:>6} {:>7} {:>8} {:>9} {:>7} {:>8} {:>12} {:>10}",
            "rate", "EX%", "spikes", "fired", "won", "wasted", "model calls", "wall ms"
        );
        for row in &rows {
            println!(
                "{:>5.0}% {:>7.2} {:>8} {:>9} {:>7} {:>8} {:>12} {:>10.1}",
                row.rate * 100.0,
                row.ex,
                row.latency_spikes,
                row.hedge_fired,
                row.hedge_won,
                row.hedge_wasted,
                row.model_calls,
                row.wall_ms
            );
        }
        println!(
            "\nEX stable across spike rates: {}; hedge engaged wherever spikes landed: {}",
            if ex_stable { "PASS" } else { "FAIL" },
            if hedged_when_spiked { "PASS" } else { "FAIL" }
        );
    }
    let doc = object! {
        "artifact": "chaos_sweep",
        "seed": args.seed,
        "mode": mode,
        "tasks": workload.task_count(),
        "fault_kind": "latency_spike",
        "spike_ms": SPIKE.as_secs_f64() * 1e3,
        "hedge_delay_ms": SPIKE_HEDGE_DELAY.as_secs_f64() * 1e3,
        "ex_stable": ex_stable,
        "hedged_when_spiked": hedged_when_spiked,
        "rows": rows,
    };
    report.finish("BENCH_chaos.json", &doc)
}

fn main() {
    let args = Args::parse(&["--smoke", "--spikes"]);
    let mut report = Report::new(&args);
    if args.has("--spikes") {
        spike_main(&args, report);
    }
    let (workload, mode) = workload_for(&args);

    // The fault-free reference: plain oracle, no resilience layer.
    let plain = Harness::new(&workload);
    let plain_report = plain.run_genedit(Ablation::None);
    let plain_ex = plain_report.ex(None);
    let plain_calls = plain.model_usage().total_calls();

    let rates = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5];
    let rows: Vec<Row> = rates
        .iter()
        .map(|&rate| run_rate(&workload, args.seed, rate))
        .collect();

    // Zero-overhead invariant: at rate 0 the resilient pipeline is
    // byte-for-byte the plain pipeline.
    let zero = &rows[0];
    let zero_overhead = zero.ex == plain_ex
        && zero.model_calls == plain_calls
        && zero.retries == 0
        && zero.backoff_ms == 0.0;
    if !zero_overhead {
        report
            .violations
            .push("at rate 0 the resilient pipeline is not the plain pipeline".to_string());
    }

    if !args.json {
        println!(
            "Chaos sweep — GenEdit EX under injected transient faults \
             (seed {}, {} tasks{})",
            args.seed,
            workload.task_count(),
            if args.smoke { ", smoke" } else { "" }
        );
        println!(
            "{:>6} {:>7} {:>9} {:>9} {:>8} {:>6} {:>10} {:>12} {:>12}",
            "rate",
            "EX%",
            "injected",
            "retries",
            "sheds",
            "exh.",
            "degraded",
            "model calls",
            "backoff ms"
        );
        for row in &rows {
            println!(
                "{:>5.0}% {:>7.2} {:>9} {:>9} {:>8} {:>6} {:>10} {:>12} {:>12.1}",
                row.rate * 100.0,
                row.ex,
                row.injected_faults,
                row.retries,
                row.sheds,
                row.exhausted,
                row.degraded,
                row.model_calls,
                row.backoff_ms
            );
        }
        println!(
            "\nzero-overhead check at rate 0: {} \
             (plain EX {plain_ex:.2} / {plain_calls} calls vs resilient \
             EX {:.2} / {} calls, {} retries)",
            if zero_overhead { "PASS" } else { "FAIL" },
            zero.ex,
            zero.model_calls,
            zero.retries
        );
    }
    let doc = object! {
        "artifact": "chaos_sweep",
        "seed": args.seed,
        "mode": mode,
        "tasks": workload.task_count(),
        "fault_kind": "transient",
        "baseline": object! { "ex": plain_ex, "model_calls": plain_calls },
        "zero_overhead": zero_overhead,
        "rows": rows,
    };
    report.finish("BENCH_chaos.json", &doc)
}
