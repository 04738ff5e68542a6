//! **Observability sweep**: gates the telemetry plane the serving
//! runtime reports through.
//!
//! Four parts, each with a hard gate (violations exit nonzero):
//!
//! 1. *Percentile accuracy* — seeded workload distributions (uniform,
//!    exponential, lognormal, bimodal, heavy-tail) pushed through the
//!    bounded log-linear histogram; every dashboard percentile
//!    (p50/p90/p95/p99/p99.9) must sit within the structural error
//!    bound (1/128 < 1%) of the exact nearest-rank oracle.
//! 2. *Instrumentation overhead* — the same serve workload run with the
//!    full observability plane on (metrics + SLO tracker + flight
//!    recorder) and with a no-op registry. Violation if the instrumented
//!    run costs more than 3% extra wall clock (min of 3 repetitions, so
//!    scheduler noise cancels). A per-call microbenchmark of
//!    `observe()` is reported alongside.
//! 3. *Flight recorder* — a fault-injected serve workload (transient
//!    model errors → degraded/errored generations). Violation if any
//!    error/degraded request is missing from the recorder, if an
//!    interesting trace was evicted, or if memory exceeded the
//!    configured rings. A second run with an always-failing model
//!    deterministically breaches the SLO: the burn-rate alert must fire
//!    and dump the recorder to `BENCH_obs_recorder.jsonl` (the artifact
//!    `trace_report --recorder` renders).
//! 4. *Burn-rate determinism* — a scripted traffic schedule driven
//!    through [`SloTracker`] under a `SimulatedClock`, twice. Violation
//!    unless both runs produce the identical fire→resolve transition
//!    schedule (exactly one Fired during the burn, one Resolved after).
//!
//! Run: `cargo run --release -p genedit-bench --bin obs_sweep`
//! (`--smoke` shrinks the workload for CI, `--json` prints the
//! document; the JSON is always written to `BENCH_obs.json`.)

use genedit_bench::{object, Args, Harness, Report, Rng};
use genedit_llm::{
    CompletionRequest, CompletionResponse, FaultConfig, FaultInjector, LanguageModel, ModelError,
};
use genedit_serve::{ObsConfig, ServeConfig};
use genedit_telemetry::hist::MAX_RELATIVE_ERROR;
use genedit_telemetry::metrics::nearest_rank;
use genedit_telemetry::recorder::dump_from_jsonl;
use genedit_telemetry::slo::{AlertTransition, BurnRateRule};
use genedit_telemetry::{
    LogLinearHistogram, MetricsRegistry, RecorderConfig, RequestVerdict, SimulatedClock, SloConfig,
    SloTracker,
};
use serde::Serialize;
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DUMP_PATH: &str = "BENCH_obs_recorder.jsonl";
/// Instrumentation may cost at most this fraction of extra wall clock.
const OVERHEAD_BUDGET: f64 = 0.03;

// ---------------------------------------------------------------------
// Part 1: percentile accuracy vs exact nearest rank
// ---------------------------------------------------------------------

#[derive(Serialize)]
struct PercentileRow {
    distribution: &'static str,
    samples: usize,
    max_relative_error: f64,
    worst_percentile: f64,
}

/// A named seeded sample generator for one latency-shaped distribution.
type Sampler = (&'static str, Box<dyn Fn(&mut Rng) -> f64>);

fn percentile_accuracy(
    seed: u64,
    samples: usize,
    violations: &mut Vec<String>,
) -> Vec<PercentileRow> {
    let distributions: Vec<Sampler> = vec![
        ("uniform", Box::new(|r: &mut Rng| 0.1 + 999.9 * r.f64())),
        (
            "exponential",
            Box::new(|r: &mut Rng| -50.0 * (1.0 - r.f64()).max(1e-12).ln()),
        ),
        (
            "lognormal",
            Box::new(|r: &mut Rng| (3.0 + r.normal()).exp()),
        ),
        (
            "bimodal",
            Box::new(|r: &mut Rng| {
                if r.f64() < 0.8 {
                    (10.0 + r.normal()).abs() + 0.01
                } else {
                    500.0 + 50.0 * r.normal()
                }
            }),
        ),
        (
            "heavy_tail",
            Box::new(|r: &mut Rng| 0.5 * (1.0 - r.f64()).max(1e-9).powf(-1.0 / 1.5)),
        ),
    ];
    let percentiles = [50.0, 90.0, 95.0, 99.0, 99.9];
    let mut rows = Vec::new();
    for (i, (name, gen)) in distributions.iter().enumerate() {
        let mut rng = Rng::new(seed ^ (0x9e37_79b9 + i as u64));
        let hist = LogLinearHistogram::new();
        let mut values = Vec::with_capacity(samples);
        for _ in 0..samples {
            let v = gen(&mut rng);
            hist.observe(v);
            values.push(v);
        }
        values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
        let snapshot = hist.snapshot();
        let mut max_rel = 0.0f64;
        let mut worst_p = percentiles[0];
        for &p in &percentiles {
            let exact = nearest_rank(&values, p);
            let approx = snapshot.percentile(p);
            let rel = (approx - exact).abs() / exact.abs().max(1e-12);
            if rel > max_rel {
                max_rel = rel;
                worst_p = p;
            }
        }
        if max_rel > MAX_RELATIVE_ERROR {
            violations.push(format!(
                "{name}: p{worst_p} relative error {max_rel:.5} exceeds the \
                 {MAX_RELATIVE_ERROR:.5} bound"
            ));
        }
        rows.push(PercentileRow {
            distribution: name,
            samples,
            max_relative_error: max_rel,
            worst_percentile: worst_p,
        });
    }
    rows
}

// ---------------------------------------------------------------------
// Part 2: instrumentation overhead on the serve workload
// ---------------------------------------------------------------------

/// Full observability plane: metrics, an SLO tracker, and a recorder
/// that samples every normal request (worst case).
fn full_obs() -> ObsConfig {
    ObsConfig {
        metrics: true,
        slo: Some(SloConfig::default_rules("serve.request", 0.99, 30_000.0)),
        recorder: Some(RecorderConfig {
            keep_normal_one_in: 1,
            ..RecorderConfig::default()
        }),
        dump_path: None,
    }
}

/// Wall time, in milliseconds, of `requests` through two workers behind
/// a fixed per-call latency standing in for the remote LLM round trip —
/// the production profile the overhead budget is defined against.
fn run_workload(
    harness: &Harness,
    requests: usize,
    latency: Duration,
    observability: ObsConfig,
) -> f64 {
    let runtime = harness.serve(
        harness.remote(latency),
        ServeConfig {
            workers: 2,
            queue_capacity: requests + 8,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            observability,
            ..ServeConfig::default()
        },
    );
    let started = Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            runtime
                .submit(harness.request(i))
                .expect("overhead queue sized to fit the request set")
        })
        .collect();
    for t in tickets {
        assert!(t.wait().is_completed(), "overhead run lost a request");
    }
    let wall = started.elapsed().as_secs_f64() * 1e3;
    runtime.shutdown();
    wall
}

#[derive(Serialize)]
struct OverheadRow {
    requests: usize,
    repetitions: usize,
    off_ms: f64,
    on_ms: f64,
    overhead_frac: f64,
    budget_frac: f64,
    observe_ns_enabled: f64,
    observe_ns_disabled: f64,
}

fn overhead(harness: &Harness, smoke: bool, violations: &mut Vec<String>) -> OverheadRow {
    let requests = if smoke { 24 } else { 48 };
    let latency = Duration::from_micros(3_000);
    let reps = 3;
    // Interleave on/off repetitions so ambient load hits both equally;
    // min-of-N is the steady-state floor either way.
    let mut off = f64::INFINITY;
    let mut on = f64::INFINITY;
    for _ in 0..reps {
        off = off.min(run_workload(
            harness,
            requests,
            latency,
            ObsConfig {
                metrics: false,
                slo: None,
                recorder: None,
                dump_path: None,
            },
        ));
        on = on.min(run_workload(harness, requests, latency, full_obs()));
    }
    let overhead_frac = (on - off).max(0.0) / off;
    if overhead_frac > OVERHEAD_BUDGET {
        violations.push(format!(
            "instrumentation overhead {:.2}% exceeds the 3% budget \
             (on {on:.1}ms vs off {off:.1}ms)",
            overhead_frac * 100.0
        ));
    }

    // Microbenchmark: raw observe() cost, enabled vs no-op.
    let iters: usize = if smoke { 200_000 } else { 1_000_000 };
    let time_observes = |registry: &MetricsRegistry| {
        let t0 = Instant::now();
        for i in 0..iters {
            registry.observe("obs.bench.latency_ms", (i % 977) as f64 + 0.5);
        }
        t0.elapsed().as_secs_f64() * 1e9 / iters as f64
    };
    let enabled = MetricsRegistry::new();
    let disabled = MetricsRegistry::disabled();
    OverheadRow {
        requests,
        repetitions: reps,
        off_ms: off,
        on_ms: on,
        overhead_frac,
        budget_frac: OVERHEAD_BUDGET,
        observe_ns_enabled: time_observes(&enabled),
        observe_ns_disabled: time_observes(&disabled),
    }
}

// ---------------------------------------------------------------------
// Part 3: flight-recorder retention + deterministic SLO breach dump
// ---------------------------------------------------------------------

/// A model that always fails: every generation completes unvalidated
/// (verdict Error), so the SLO burn rate is exactly 1/error-budget.
struct AlwaysFailingModel;

impl LanguageModel for AlwaysFailingModel {
    fn name(&self) -> &str {
        "always-failing"
    }

    fn complete(&self, _request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        Err(ModelError::Transient("injected outage".to_string()))
    }
}

#[derive(Serialize)]
struct RecorderRow {
    requests: usize,
    interesting_expected: usize,
    interesting_retained: usize,
    evicted_interesting: u64,
    retained_total: usize,
    capacity: usize,
    breach_fired: u64,
    breach_dumped: u64,
    dump_records: usize,
    dump_error_records: usize,
    dump_path: &'static str,
}

fn recorder_gate(
    harness: &Harness,
    seed: u64,
    smoke: bool,
    violations: &mut Vec<String>,
) -> RecorderRow {
    // --- (a) retention under fault-injected mixed traffic -------------
    let requests = if smoke { 48 } else { 120 };
    let recorder_config = RecorderConfig {
        interesting_capacity: requests + 8,
        normal_capacity: 16,
        latency_threshold_ms: 60_000.0,
        keep_normal_one_in: 4,
        seed,
    };
    let capacity = recorder_config.interesting_capacity + recorder_config.normal_capacity;
    let runtime = harness.serve(
        FaultInjector::new(
            harness.remote(Duration::from_micros(200)),
            FaultConfig::transient_only(0.35),
            seed,
        ),
        ServeConfig {
            workers: 2,
            queue_capacity: requests + 8,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            observability: ObsConfig {
                metrics: true,
                slo: None,
                recorder: Some(recorder_config),
                dump_path: None,
            },
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            runtime
                .submit(harness.request(i))
                .expect("recorder queue sized to fit the request set")
        })
        .collect();
    // Every error/degraded completion must land in the recorder.
    let mut interesting_expected = BTreeSet::new();
    for t in &tickets {
        let outcome = t.wait();
        let Some(result) = outcome.result() else {
            violations.push(format!("recorder run lost request {}", t.request_id()));
            continue;
        };
        if !result.validated || result.degraded_operator_count() > 0 {
            interesting_expected.insert(t.request_id().to_string());
        }
    }
    let recorder = runtime
        .flight_recorder()
        .expect("recorder workload configures a flight recorder");
    let stats = recorder.stats();
    let retained: BTreeSet<String> = recorder
        .contents()
        .into_iter()
        .map(|r| r.request_id)
        .collect();
    let missing: Vec<&String> = interesting_expected.difference(&retained).collect();
    if !missing.is_empty() {
        violations.push(format!(
            "{} error/degraded traces missing from the recorder: {missing:?}",
            missing.len()
        ));
    }
    if stats.evicted_interesting != 0 {
        violations.push(format!(
            "{} interesting traces evicted under the sweep's sizing",
            stats.evicted_interesting
        ));
    }
    if interesting_expected.is_empty() {
        violations.push(
            "fault injection produced no error/degraded traffic — retention gate is vacuous"
                .to_string(),
        );
    }
    let retained_total = recorder.len();
    if retained_total > capacity {
        violations.push(format!(
            "recorder holds {retained_total} records, over its {capacity} bound"
        ));
    }
    let interesting_retained = interesting_expected.intersection(&retained).count();
    runtime.shutdown();

    // --- (b) deterministic SLO breach → flight-recorder dump ----------
    let _ = std::fs::remove_file(DUMP_PATH);
    let breach_requests = if smoke { 24 } else { 40 };
    let breach_rt = harness.serve(
        AlwaysFailingModel,
        ServeConfig {
            workers: 2,
            queue_capacity: breach_requests + 8,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            observability: ObsConfig {
                metrics: true,
                // Every request errors → burn = 1/0.01 = 100 ≥ 14.4:
                // the fast-burn rule fires as soon as min_samples arrive.
                slo: Some(SloConfig::default_rules("serve.request", 0.99, 30_000.0)),
                recorder: Some(RecorderConfig {
                    interesting_capacity: breach_requests + 8,
                    ..RecorderConfig::default()
                }),
                dump_path: Some(DUMP_PATH.into()),
            },
            ..ServeConfig::default()
        },
    );
    let breach_tickets: Vec<_> = (0..breach_requests)
        .map(|i| {
            breach_rt
                .submit(harness.request(i))
                .expect("breach queue sized to fit the request set")
        })
        .collect();
    let mut breach_ids = BTreeSet::new();
    for t in &breach_tickets {
        t.wait();
        breach_ids.insert(t.request_id().to_string());
    }
    let fired = breach_rt.metrics().counter("serve.slo.fired");
    let dumped = breach_rt.metrics().counter("serve.slo.dumps");
    if fired == 0 {
        violations.push(format!(
            "SLO never fired despite {breach_requests} consecutive errored requests"
        ));
    }
    if !breach_rt.slo_firing() {
        violations.push("SLO alert not in the firing state after a total outage".to_string());
    }
    let dump = std::fs::read_to_string(DUMP_PATH).unwrap_or_default();
    let records = dump_from_jsonl(&dump).unwrap_or_default();
    if dumped == 0 || records.is_empty() {
        violations.push("SLO breach produced no flight-recorder dump".to_string());
    }
    let mut dump_error_records = 0usize;
    for r in &records {
        if r.verdict == RequestVerdict::Error {
            dump_error_records += 1;
        }
        if !breach_ids.contains(&r.request_id) {
            violations.push(format!(
                "dumped request {} was never submitted (ID threading broken)",
                r.request_id
            ));
        }
    }
    // Joinability: the latency histogram's exemplars carry the same IDs
    // the dump does.
    let exemplars = breach_rt.metrics().exemplars();
    let serve_exemplars: BTreeSet<&str> = exemplars
        .get("serve.request")
        .map(|e| e.iter().map(|x| x.request_id.as_str()).collect())
        .unwrap_or_default();
    if serve_exemplars.is_empty() {
        violations.push("serve.request histogram recorded no exemplars".to_string());
    }
    for id in &serve_exemplars {
        if !breach_ids.contains(*id) {
            violations.push(format!(
                "exemplar {id} does not join to a submitted request"
            ));
        }
    }
    breach_rt.shutdown();

    RecorderRow {
        requests,
        interesting_expected: interesting_expected.len(),
        interesting_retained,
        evicted_interesting: stats.evicted_interesting,
        retained_total,
        capacity,
        breach_fired: fired,
        breach_dumped: dumped,
        dump_records: records.len(),
        dump_error_records,
        dump_path: DUMP_PATH,
    }
}

// ---------------------------------------------------------------------
// Part 4: burn-rate determinism under the simulated clock
// ---------------------------------------------------------------------

#[derive(Debug, PartialEq, Serialize)]
struct Transition {
    t_seconds: u64,
    transition: &'static str,
}

#[derive(Serialize)]
struct BurnRow {
    deterministic: bool,
    transitions: Vec<Transition>,
}

fn burn_rate_determinism(violations: &mut Vec<String>) -> BurnRow {
    let schedule = || {
        let clock = Arc::new(SimulatedClock::new());
        let tracker = SloTracker::new(
            SloConfig {
                name: "serve.request".to_string(),
                objective: 0.99,
                latency_threshold_ms: 250.0,
                min_samples: 10,
                rules: vec![
                    BurnRateRule {
                        long: Duration::from_secs(60),
                        short: Duration::from_secs(5),
                        factor: 14.4,
                    },
                    BurnRateRule {
                        long: Duration::from_secs(300),
                        short: Duration::from_secs(30),
                        factor: 6.0,
                    },
                ],
            },
            Arc::clone(&clock) as Arc<dyn genedit_telemetry::Clock>,
        );
        let mut transitions = Vec::new();
        for second in 0..240u64 {
            // Healthy for 2 minutes, a 40%-bad burn for 40s, recovery.
            let bad_fraction = if (120..160).contains(&second) {
                0.4
            } else {
                0.0
            };
            for i in 0..20u64 {
                let bad = (i as f64) < bad_fraction * 20.0;
                tracker.record(if bad { 900.0 } else { 8.0 }, false);
            }
            clock.advance(Duration::from_secs(1));
            if let Some(t) = tracker.evaluate().transition {
                transitions.push(Transition {
                    t_seconds: second,
                    transition: match t {
                        AlertTransition::Fired => "fired",
                        AlertTransition::Resolved => "resolved",
                    },
                });
            }
        }
        transitions
    };
    let a = schedule();
    let b = schedule();
    let deterministic = a == b;
    if !deterministic {
        violations.push(format!(
            "burn-rate schedule diverged between identical runs: {a:?} vs {b:?}"
        ));
    }
    let shape_ok = a.len() == 2 && a[0].transition == "fired" && a[1].transition == "resolved";
    if !shape_ok {
        violations.push(format!(
            "expected exactly one fire + one resolve over the scripted burn, got {a:?}"
        ));
    } else {
        if !(120..160).contains(&a[0].t_seconds) {
            violations.push(format!(
                "alert fired at t={}s, outside the burn window",
                a[0].t_seconds
            ));
        }
        if a[1].t_seconds < 160 {
            violations.push(format!(
                "alert resolved at t={}s, before the burn ended",
                a[1].t_seconds
            ));
        }
    }
    BurnRow {
        deterministic,
        transitions: a,
    }
}

// ---------------------------------------------------------------------
// report
// ---------------------------------------------------------------------

fn main() {
    let args = Args::parse(&["--smoke"]);
    let mut report = Report::new(&args);

    let samples = if args.smoke { 4_000 } else { 20_000 };
    let percentiles = percentile_accuracy(args.seed, samples, &mut report.violations);

    let harness = Harness::build(args.seed);
    let overhead = overhead(&harness, args.smoke, &mut report.violations);
    let recorder = recorder_gate(&harness, args.seed, args.smoke, &mut report.violations);
    let burn = burn_rate_determinism(&mut report.violations);

    if !args.json {
        println!(
            "Observability sweep — seed {}, {} mode",
            args.seed,
            args.mode()
        );
        println!(
            "\npercentile accuracy (bound {:.4}%):",
            MAX_RELATIVE_ERROR * 100.0
        );
        for r in &percentiles {
            println!(
                "  {:<12} {:>6} samples  max rel error {:.5}% (worst at p{})",
                r.distribution,
                r.samples,
                r.max_relative_error * 100.0,
                r.worst_percentile
            );
        }
        println!(
            "\noverhead: obs-on {:.1}ms vs obs-off {:.1}ms = {:.2}% (budget 3%); \
             observe() {:.0}ns enabled / {:.0}ns no-op",
            overhead.on_ms,
            overhead.off_ms,
            overhead.overhead_frac * 100.0,
            overhead.observe_ns_enabled,
            overhead.observe_ns_disabled
        );
        println!(
            "\nrecorder: {}/{} error+degraded traces retained, {} evicted, \
             {} held (bound {})",
            recorder.interesting_retained,
            recorder.interesting_expected,
            recorder.evicted_interesting,
            recorder.retained_total,
            recorder.capacity
        );
        println!(
            "  breach: alert fired {}x, dumped {}x -> {} ({} records, {} errors)",
            recorder.breach_fired,
            recorder.breach_dumped,
            DUMP_PATH,
            recorder.dump_records,
            recorder.dump_error_records
        );
        println!(
            "\nburn rate: deterministic={} transitions={:?}",
            burn.deterministic, burn.transitions
        );
    }
    let doc = object! {
        "artifact": "obs_sweep",
        "seed": args.seed,
        "mode": args.mode(),
        "percentiles": object! { "bound": MAX_RELATIVE_ERROR, "distributions": percentiles },
        "overhead": overhead,
        "recorder": recorder,
        "burn_rate": burn,
        "violations": report.violations,
    };
    report.finish("BENCH_obs.json", &doc)
}
