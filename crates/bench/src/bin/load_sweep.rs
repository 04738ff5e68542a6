//! **Load sweep**: tail-latency robustness of the serving runtime under
//! a seeded latency-spike schedule — hedged dispatch versus unhedged.
//!
//! Four parts:
//!
//! 1. *Hedged vs unhedged tail* — the same open-loop request stream
//!    (paced at a sustained RPS) pushed through the serving runtime
//!    twice over a spike-injecting model ([`FaultInjector`], spikes
//!    only, seeded): once with [`HedgePolicy::disabled`] and once with
//!    hedging on. **Violation if the hedged run's p99 does not beat the
//!    unhedged p99**, and **violation if hedging costs more than 15%
//!    extra model round trips**.
//! 2. *Byte identity* — every request's semantic fingerprint from the
//!    hedged run must match the unhedged run exactly. **Any divergence
//!    exits nonzero**: a hedge that changes answers is a correctness
//!    bug, not a latency feature.
//! 3. *Self-correcting vote* — the ensemble fan-out run over a model
//!    that sabotages one candidate seed per fan-out (invalid SQL until
//!    correction evidence arrives): **violation if any question returns
//!    something other than the majority candidate's answer**.
//! 4. *Adaptive batching window* — a burst must widen the collection
//!    window above the idle floor; sparse traffic must keep it at the
//!    floor (measured off the `batch.window.ms` histogram).
//!
//! Run: `cargo run --release -p genedit-bench --bin load_sweep`
//! (`--smoke` shrinks the workload for CI, `--json` prints the
//! document; the JSON is always written to `BENCH_load.json`.)

use genedit_bench::{object, Args, Harness, Hist, Report};
use genedit_core::{CandidateSelection, GenEditPipeline, GenerateOptions, PipelineConfig};
use genedit_llm::{
    AdaptiveWindow, BatchConfig, BatchScheduler, CompletionRequest, CompletionResponse,
    FaultConfig, FaultInjector, HedgePolicy, LanguageModel, ModelError, OracleModel, SystemClock,
};
use genedit_llm::{Clock, TaskKind};
use genedit_serve::{ObsConfig, QueryOutcome, ServeConfig};
use genedit_telemetry::{MetricsRegistry, SloConfig};
use serde::Serialize;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Sabotages one candidate seed per ensemble fan-out: SQL-generation
/// calls for seed 2 return unparseable text until the prompt carries
/// correction evidence (a non-empty error section). The majority stays
/// clean, so the self-correction round must recover the dissenter and
/// the vote must return the majority answer.
struct DissentModel {
    inner: Arc<OracleModel>,
}

impl LanguageModel for DissentModel {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let response = self.inner.complete(request)?;
        if request.prompt.task == TaskKind::SqlGeneration
            && request.seed == 2
            && request.prompt.errors.is_empty()
        {
            if let CompletionResponse::Sql(sql) = &response {
                return Ok(CompletionResponse::Sql(format!("GARBLED<{sql}")));
            }
        }
        Ok(response)
    }
}

const BASE_LATENCY: Duration = Duration::from_millis(2);
const SPIKE: Duration = Duration::from_millis(40);
const SPIKE_RATE: f64 = 0.05;
/// Fixed hedge delay: above any batching straggle (window + base
/// latency), far below a spike — only genuinely spiked calls hedge.
const HEDGE_DELAY: Duration = Duration::from_millis(10);
/// SLO latency threshold for the report-only burn-rate tracker: a
/// spiked unhedged request blows it, a hedged one does not.
const SLO_THRESHOLD_MS: f64 = 35.0;

#[derive(Serialize)]
struct LoadRow {
    hedged: bool,
    requests: usize,
    wall_ms: f64,
    throughput_rps: f64,
    latency_ms: Hist,
    model_calls: u64,
    latency_spikes: u64,
    hedge_fired: u64,
    hedge_won: u64,
    hedge_wasted: u64,
    slo_fired: u64,
}

/// One open-loop run: `requests` arrivals paced at `rps` into the
/// serving runtime over a spike-injecting model, hedged or not. Latency
/// is each request's queue wait + service time as the runtime measured
/// it. Returns the row and every request's fingerprint in submit order.
fn run_load(
    harness: &Harness,
    seed: u64,
    rps: u64,
    requests: usize,
    hedged: bool,
    violations: &mut Vec<String>,
) -> (LoadRow, Vec<String>) {
    let injector = Arc::new(
        FaultInjector::new(
            harness.remote(BASE_LATENCY),
            FaultConfig {
                latency_spike: SPIKE_RATE,
                spike: SPIKE,
                ..FaultConfig::default()
            },
            seed,
        )
        .with_clock(Arc::new(SystemClock::new()) as Arc<dyn Clock>),
    );
    let hedge = if hedged {
        HedgePolicy {
            min_delay: HEDGE_DELAY,
            max_delay: HEDGE_DELAY,
            min_observations: 10,
            ..HedgePolicy::default()
        }
    } else {
        HedgePolicy::disabled()
    };
    let runtime = harness.serve(
        Arc::clone(&injector),
        ServeConfig {
            workers: 4,
            queue_capacity: requests + 8,
            // Caches off so every request exercises the model stack.
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            // Batching passthrough: the simulated backend handles batch
            // items serially, so a collection window here would only
            // blur the spike/hedge separation this part measures. The
            // adaptive window gets its own measurement in part 4.
            batch: BatchConfig::disabled(),
            hedge,
            observability: ObsConfig {
                metrics: true,
                slo: Some(SloConfig::default_rules(
                    "serve.request",
                    0.95,
                    SLO_THRESHOLD_MS,
                )),
                recorder: None,
                dump_path: None,
            },
            ..ServeConfig::default()
        },
    );
    let interarrival = Duration::from_secs_f64(1.0 / rps.max(1) as f64);
    let started = Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            // Open-loop pacing: arrival i is due at started + i/rps,
            // regardless of how the runtime is keeping up.
            let due = started + interarrival * (i as u32);
            if let Some(wait) = due.checked_duration_since(Instant::now()) {
                std::thread::sleep(wait);
            }
            runtime
                .submit(harness.request(i))
                .expect("load queue sized to fit the whole request set")
        })
        .collect();
    let mut latencies = Vec::with_capacity(requests);
    let mut fingerprints = Vec::with_capacity(requests);
    for (i, ticket) in tickets.into_iter().enumerate() {
        match ticket.wait() {
            QueryOutcome::Completed {
                result,
                queue_wait,
                service,
                ..
            } => {
                latencies.push((queue_wait + service).as_secs_f64() * 1e3);
                fingerprints.push(result.fingerprint());
            }
            other => {
                violations.push(format!(
                    "{} load run lost request {i}: {other:?}",
                    label(hedged)
                ));
                fingerprints.push(format!("lost:{other:?}"));
            }
        }
    }
    let wall = started.elapsed();
    let stats = runtime.hedge_stats();
    let slo_fired = runtime.metrics().counter("serve.slo.fired");
    runtime.shutdown();
    let row = LoadRow {
        hedged,
        requests,
        wall_ms: wall.as_secs_f64() * 1e3,
        throughput_rps: requests as f64 / wall.as_secs_f64(),
        latency_ms: Hist::from_samples(&latencies),
        model_calls: injector.log().calls,
        latency_spikes: injector.log().latency_spikes,
        hedge_fired: stats.fired,
        hedge_won: stats.won,
        hedge_wasted: stats.wasted,
        slo_fired,
    };
    (row, fingerprints)
}

fn label(hedged: bool) -> &'static str {
    if hedged {
        "hedged"
    } else {
        "unhedged"
    }
}

#[derive(Serialize)]
struct VoteRow {
    questions: usize,
    corrected_questions: usize,
    minority_returned: usize,
}

/// Part 3: every fan-out carries one sabotaged candidate; the final
/// answer must always be the (clean) majority's, byte for byte.
fn run_vote(harness: &Harness, violations: &mut Vec<String>) -> VoteRow {
    let cfg = PipelineConfig {
        candidates: 3,
        candidate_selection: CandidateSelection::MajorityResult,
        use_plan: false,
        max_retries: 0,
        ..Default::default()
    };
    let opts = GenerateOptions {
        ensemble_width: Some(3),
        ..Default::default()
    };
    let clean = GenEditPipeline::with_config(Arc::clone(&harness.oracle), cfg.clone());
    let dissent = GenEditPipeline::with_config(
        DissentModel {
            inner: Arc::clone(&harness.oracle),
        },
        cfg,
    );
    let questions = harness.bundle.tasks.len().min(8);
    let mut corrected = 0usize;
    let mut minority = 0usize;
    for (i, task) in harness.bundle.tasks.iter().take(questions).enumerate() {
        let majority = clean.generate_with(
            &task.question,
            &harness.index,
            &harness.bundle.db,
            &[],
            &opts,
        );
        let voted = dissent.generate_with(
            &task.question,
            &harness.index,
            &harness.bundle.db,
            &[],
            &opts,
        );
        corrected += 1; // every fan-out had its seed-2 candidate sabotaged
        if voted.sql != majority.sql || voted.validated != majority.validated {
            minority += 1;
            violations.push(format!(
                "vote question {i} returned a non-majority answer: {:?} (majority {:?})",
                voted.sql, majority.sql
            ));
        }
    }
    VoteRow {
        questions,
        corrected_questions: corrected,
        minority_returned: minority,
    }
}

/// A trivial model for the window micro-measurement: the window metric
/// is a property of the scheduler, not the answers.
struct EchoModel;

impl LanguageModel for EchoModel {
    fn name(&self) -> &str {
        "echo"
    }

    fn complete(&self, _request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        std::thread::sleep(Duration::from_micros(200));
        Ok(CompletionResponse::Sql("SELECT 1".into()))
    }
}

#[derive(Serialize)]
struct WindowRow {
    idle_floor_ms: f64,
    burst_window_max_ms: f64,
    idle_window_max_ms: f64,
    burst_largest_batch: u64,
}

/// Part 4: the depth-adaptive collection window must widen above the
/// idle floor under a synchronized burst and stay at the floor for
/// strictly sequential traffic.
fn run_window(violations: &mut Vec<String>) -> WindowRow {
    let adaptive = AdaptiveWindow {
        idle_wait: Duration::from_millis(1),
        loaded_wait: Duration::from_millis(20),
        full_depth: 8,
    };
    let config = BatchConfig {
        max_batch_size: 8,
        max_wait: Duration::from_millis(20),
        adaptive: Some(adaptive.clone()),
        ..BatchConfig::default()
    };
    let idle_floor_ms = adaptive.idle_wait.as_secs_f64() * 1e3;
    let request = CompletionRequest::new(genedit_llm::Prompt::new(
        TaskKind::SqlGeneration,
        "window probe",
    ));

    // Burst: 8 threads hit the scheduler at once, repeatedly.
    let burst_metrics = Arc::new(MetricsRegistry::new());
    let scheduler = Arc::new(
        BatchScheduler::new(EchoModel, config.clone()).with_metrics(Arc::clone(&burst_metrics)),
    );
    std::thread::scope(|scope| {
        for _ in 0..8 {
            let scheduler = Arc::clone(&scheduler);
            let request = request.clone();
            scope.spawn(move || {
                for _ in 0..4 {
                    scheduler.complete(&request).ok();
                }
            });
        }
    });
    let burst_snapshot = burst_metrics.snapshot();
    let burst_window = burst_snapshot.histograms.get("batch.window.ms");
    let burst_window_max_ms = burst_window.map_or(0.0, |h| h.max);
    let burst_largest_batch = burst_snapshot
        .histograms
        .get("batch.size")
        .map_or(0.0, |h| h.max) as u64;

    // Idle: one caller, strictly sequential — depth never exceeds 1.
    let idle_metrics = Arc::new(MetricsRegistry::new());
    let scheduler = BatchScheduler::new(EchoModel, config).with_metrics(Arc::clone(&idle_metrics));
    for _ in 0..8 {
        scheduler.complete(&request).ok();
    }
    let idle_snapshot = idle_metrics.snapshot();
    let idle_window_max_ms = idle_snapshot
        .histograms
        .get("batch.window.ms")
        .map_or(0.0, |h| h.max);

    if burst_window_max_ms <= idle_floor_ms {
        violations.push(format!(
            "adaptive window never widened under a burst: max {burst_window_max_ms:.2}ms \
             vs idle floor {idle_floor_ms:.2}ms"
        ));
    }
    // Log-linear buckets round the floor up slightly; allow 25% slack.
    if idle_window_max_ms > idle_floor_ms * 1.25 {
        violations.push(format!(
            "adaptive window did not shrink back for sparse traffic: max \
             {idle_window_max_ms:.2}ms vs idle floor {idle_floor_ms:.2}ms"
        ));
    }
    WindowRow {
        idle_floor_ms,
        burst_window_max_ms,
        idle_window_max_ms,
        burst_largest_batch,
    }
}

fn main() {
    let args = Args::parse(&["--smoke", "--rps N", "--requests N"]);
    let mut report = Report::new(&args);
    let rps = args.value("--rps").unwrap_or(60);
    let default_requests = if args.smoke { 60 } else { 240 };
    let requests = args.value("--requests").unwrap_or(default_requests) as usize;
    let harness = Harness::build(args.seed);

    // Parts 1 + 2: the same paced stream, unhedged then hedged.
    let (unhedged, plain_answers) = run_load(
        &harness,
        args.seed,
        rps,
        requests,
        false,
        &mut report.violations,
    );
    let (hedged, hedged_answers) = run_load(
        &harness,
        args.seed,
        rps,
        requests,
        true,
        &mut report.violations,
    );

    if hedged.hedge_fired == 0 {
        report
            .violations
            .push("hedged run never fired a hedge over a 5% spike schedule".to_string());
    }
    let p99_improvement_ms = unhedged.latency_ms.p99 - hedged.latency_ms.p99;
    if hedged.latency_ms.p99 >= unhedged.latency_ms.p99 {
        report.violations.push(format!(
            "hedged p99 {:.1}ms did not beat unhedged p99 {:.1}ms",
            hedged.latency_ms.p99, unhedged.latency_ms.p99
        ));
    }
    let call_budget = (unhedged.model_calls as f64 * 1.15).ceil() as u64;
    if hedged.model_calls > call_budget {
        report.violations.push(format!(
            "hedging cost {} model calls, over the 15% budget ({} unhedged, cap {})",
            hedged.model_calls, unhedged.model_calls, call_budget
        ));
    }
    let extra_round_trips = hedged.model_calls as f64 / unhedged.model_calls.max(1) as f64 - 1.0;
    let divergent = plain_answers
        .iter()
        .zip(&hedged_answers)
        .filter(|(a, b)| a != b)
        .count();
    if divergent > 0 {
        report.violations.push(format!(
            "{divergent}/{requests} requests diverged between hedged and unhedged runs"
        ));
    }

    // Part 3: the self-correcting vote never returns a minority answer.
    let vote = run_vote(&harness, &mut report.violations);

    // Part 4: adaptive batching window.
    let window = run_window(&mut report.violations);

    if !args.json {
        println!(
            "Load sweep — {requests} requests at {rps} rps, {:.0}ms spikes at {:.0}% (seed {})",
            SPIKE.as_secs_f64() * 1e3,
            SPIKE_RATE * 100.0,
            args.seed
        );
        for row in [&unhedged, &hedged] {
            println!(
                "  {:>8}: p50 {:6.1}ms  p95 {:6.1}ms  p99 {:6.1}ms  {} calls  \
                 {} spikes  hedge {}/{} won/fired  slo fired {}",
                label(row.hedged),
                row.latency_ms.p50,
                row.latency_ms.p95,
                row.latency_ms.p99,
                row.model_calls,
                row.latency_spikes,
                row.hedge_won,
                row.hedge_fired,
                row.slo_fired,
            );
        }
        println!(
            "  p99 improvement: {p99_improvement_ms:.1}ms; extra round trips: {:.1}% \
             (budget 15%); byte-identical: {}",
            extra_round_trips * 100.0,
            divergent == 0
        );
        println!(
            "  vote: {}/{} questions returned the majority answer despite a sabotaged candidate",
            vote.questions - vote.minority_returned,
            vote.questions
        );
        println!(
            "  adaptive window: burst max {:.2}ms vs idle floor {:.2}ms (idle max {:.2}ms, \
             largest burst batch {})",
            window.burst_window_max_ms,
            window.idle_floor_ms,
            window.idle_window_max_ms,
            window.burst_largest_batch
        );
    }
    let doc = object! {
        "artifact": "load_sweep",
        "seed": args.seed,
        "mode": args.mode(),
        "rps": rps as f64,
        "requests": requests,
        "spike_ms": SPIKE.as_secs_f64() * 1e3,
        "spike_rate": SPIKE_RATE,
        "hedge_delay_ms": HEDGE_DELAY.as_secs_f64() * 1e3,
        "slo_threshold_ms": SLO_THRESHOLD_MS,
        "unhedged": unhedged,
        "hedged": hedged,
        "p99_improvement_ms": p99_improvement_ms,
        "extra_round_trip_fraction": extra_round_trips,
        "byte_identical": divergent == 0,
        "vote": vote,
        "adaptive_window": window,
        "violations": report.violations,
    };
    report.finish("BENCH_load.json", &doc)
}
