//! **Serving sweep**: the concurrent serving runtime under a seeded
//! multi-tenant open-loop workload.
//!
//! Four parts:
//!
//! 1. *Worker scaling* — the same request set pushed through 1, 2, and
//!    4 workers with caches off. The model is wrapped in a simulated
//!    remote-call latency (the paper's pipeline spends its wall time in
//!    GPT-4o round trips, not local compute), so worker threads overlap
//!    model waits exactly as a real deployment overlaps network I/O.
//!    Violation if 4 workers deliver < 3x the single-worker throughput.
//! 2. *Cache effectiveness* — every distinct question served cold, then
//!    the same set served warm. Violation if the warm (cached) service
//!    time is not at least 10x faster than cold generation.
//! 3. *Overload* — a deadline-laden flood into a tiny queue: reports
//!    admission/shed/rejection/expiry rates, verifying backpressure
//!    engages rather than queues growing without bound.
//! 4. *Cached = uncached* — every question's cached answer must be
//!    byte-for-byte identical (semantic fingerprint) to the uncached
//!    generation. **Any divergence exits nonzero**: a cache that serves
//!    different SQL than the pipeline would generate is a correctness
//!    bug, not a performance feature.
//!
//! Run: `cargo run --release -p genedit-bench --bin serve_sweep`
//! (`--smoke` shrinks the workload for CI, `--json` prints the
//! document; the JSON is always written to `BENCH_serve.json`.)

use genedit_bench::{object, Args, Harness, Hist, Report};
use genedit_serve::{QueryOutcome, Rejected, ServeConfig};
use serde::Serialize;
use std::time::{Duration, Instant};

#[derive(Serialize)]
struct ScalingRow {
    workers: usize,
    requests: usize,
    wall_ms: f64,
    throughput_rps: f64,
    latency_ms: Hist,
}

/// Open-loop run: submit the whole request set at once, wait for all.
fn run_scaling(
    harness: &Harness,
    latency: Duration,
    workers: usize,
    requests: usize,
) -> ScalingRow {
    let runtime = harness.serve(
        harness.remote(latency),
        ServeConfig {
            workers,
            queue_capacity: requests + 8,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let started = Instant::now();
    let tickets: Vec<_> = (0..requests)
        .map(|i| {
            let t0 = Instant::now();
            let ticket = runtime
                .submit(harness.request(i))
                .expect("scaling queue sized to fit the whole request set");
            (ticket, t0)
        })
        .collect();
    let mut latencies = Vec::with_capacity(requests);
    for (ticket, t0) in tickets {
        let outcome = ticket.wait();
        assert!(outcome.is_completed(), "scaling run lost a request");
        latencies.push(t0.elapsed().as_secs_f64() * 1000.0);
    }
    let wall = started.elapsed();
    runtime.shutdown();
    ScalingRow {
        workers,
        requests,
        wall_ms: wall.as_secs_f64() * 1000.0,
        throughput_rps: requests as f64 / wall.as_secs_f64(),
        latency_ms: Hist::from_samples(&latencies),
    }
}

#[derive(Serialize)]
struct CacheRow {
    distinct_questions: usize,
    cold_service_ms: Hist,
    warm_service_ms: Hist,
    speedup: f64,
    hit_rate: f64,
}

fn service_ms(outcome: &QueryOutcome) -> (f64, bool) {
    match outcome {
        QueryOutcome::Completed {
            service, cached, ..
        } => (service.as_secs_f64() * 1000.0, *cached),
        other => panic!("cache run lost a request: {other:?}"),
    }
}

fn run_cache(harness: &Harness, latency: Duration, violations: &mut Vec<String>) -> CacheRow {
    let runtime = harness.serve(
        harness.remote(latency),
        ServeConfig {
            workers: 2,
            queue_capacity: 128,
            ..ServeConfig::default()
        },
    );
    let distinct = harness.bundle.tasks.len().min(8);
    let mut cold = Vec::new();
    let mut warm = Vec::new();
    // Cold pass then warm pass, sequentially: every warm request must
    // find its cold twin already cached.
    for pass in 0..2 {
        for i in 0..distinct {
            let outcome = runtime
                .submit(harness.request(i))
                .expect("cache queue never saturates")
                .wait();
            let (ms, cached) = service_ms(&outcome);
            if pass == 0 {
                if cached {
                    violations.push(format!("cold request {i} reported a cache hit"));
                }
                cold.push(ms);
            } else {
                if !cached {
                    violations.push(format!("warm request {i} missed the cache"));
                }
                warm.push(ms);
            }
        }
    }
    let hits = runtime.metrics().counter("serve.cache.hit");
    let misses = runtime.metrics().counter("serve.cache.miss");
    runtime.shutdown();
    let cold_sum = Hist::from_samples(&cold);
    let warm_sum = Hist::from_samples(&warm);
    let speedup = if warm_sum.mean > 0.0 {
        cold_sum.mean / warm_sum.mean
    } else {
        f64::INFINITY
    };
    if speedup < 10.0 {
        violations.push(format!(
            "warm-cache speedup {speedup:.1}x below the 10x floor \
             (cold {:.2}ms vs warm {:.2}ms mean service)",
            cold_sum.mean, warm_sum.mean
        ));
    }
    CacheRow {
        distinct_questions: distinct,
        cold_service_ms: cold_sum,
        warm_service_ms: warm_sum,
        speedup,
        hit_rate: hits as f64 / (hits + misses).max(1) as f64,
    }
}

#[derive(Serialize)]
struct OverloadRow {
    submitted: usize,
    completed: usize,
    shed: u64,
    rejected: u64,
    expired: u64,
    rejection_rate: f64,
}

/// Flood a tiny queue with deadline-laden requests faster than one slow
/// worker can drain it: backpressure (shed + reject) must engage.
fn run_overload(
    harness: &Harness,
    latency: Duration,
    requests: usize,
    violations: &mut Vec<String>,
) -> OverloadRow {
    let runtime = harness.serve(
        harness.remote(latency),
        ServeConfig {
            workers: 1,
            queue_capacity: 4,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let mut tickets = Vec::new();
    let mut rejected_count = 0usize;
    for i in 0..requests {
        // Staggered deadlines so shedding has meaningful choices.
        let budget = Duration::from_millis(200 + 100 * (i as u64 % 7));
        match runtime.submit(harness.request(i).with_deadline_in(budget)) {
            Ok(t) => tickets.push(t),
            Err(Rejected::QueueFull) => rejected_count += 1,
            Err(other) => violations.push(format!("overload submit saw {other:?}")),
        }
    }
    let mut completed = 0usize;
    for t in tickets {
        if t.wait().is_completed() {
            completed += 1;
        }
    }
    let shed = runtime.metrics().counter("serve.shed");
    let rejected = runtime.metrics().counter("serve.rejected");
    let expired = runtime.metrics().counter("serve.expired");
    runtime.shutdown();
    if shed + rejected == 0 {
        violations.push(
            "overload run triggered no backpressure (queue should have saturated)".to_string(),
        );
    }
    if rejected as usize != rejected_count {
        violations.push(format!(
            "rejection accounting mismatch: metric {rejected} vs observed {rejected_count}"
        ));
    }
    OverloadRow {
        submitted: requests,
        completed,
        shed,
        rejected,
        expired,
        rejection_rate: rejected as f64 / requests as f64,
    }
}

#[derive(Serialize)]
struct EquivalenceRow {
    questions: usize,
    divergent: usize,
    byte_identical: bool,
}

/// Every question generated uncached, then via the cache: the semantic
/// fingerprints must match byte for byte.
fn run_equivalence(
    harness: &Harness,
    latency: Duration,
    violations: &mut Vec<String>,
) -> EquivalenceRow {
    let distinct = harness.bundle.tasks.len().min(8);
    let uncached_rt = harness.serve(
        harness.remote(latency),
        ServeConfig {
            workers: 1,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            ..ServeConfig::default()
        },
    );
    let cached_rt = harness.serve(
        harness.remote(latency),
        ServeConfig {
            workers: 1,
            ..ServeConfig::default()
        },
    );
    let mut divergent = 0usize;
    for i in 0..distinct {
        let plain = uncached_rt
            .submit(harness.request(i))
            .expect("equivalence queue never saturates")
            .wait();
        // Prime, then read back through the cache.
        let _ = cached_rt
            .submit(harness.request(i))
            .expect("equivalence queue never saturates")
            .wait();
        let replay = cached_rt
            .submit(harness.request(i))
            .expect("equivalence queue never saturates")
            .wait();
        let (Some(a), Some(b)) = (plain.result(), replay.result()) else {
            divergent += 1;
            violations.push(format!("equivalence question {i} did not complete"));
            continue;
        };
        if !matches!(replay, QueryOutcome::Completed { cached: true, .. }) {
            violations.push(format!("equivalence question {i} replay was not cached"));
        }
        if a.fingerprint() != b.fingerprint() {
            divergent += 1;
            violations.push(format!(
                "cached result diverges from uncached for question {i}:\n  uncached: {}\n  cached:   {}",
                a.fingerprint(),
                b.fingerprint()
            ));
        }
    }
    uncached_rt.shutdown();
    cached_rt.shutdown();
    EquivalenceRow {
        questions: distinct,
        divergent,
        byte_identical: divergent == 0,
    }
}

fn main() {
    let args = Args::parse(&["--smoke", "--latency-us N", "--requests N"]);
    let mut report = Report::new(&args);
    let latency_us = args.value("--latency-us").unwrap_or(3000);
    let latency = Duration::from_micros(latency_us);
    let default_requests = if args.smoke { 24 } else { 60 };
    let requests = args.value("--requests").unwrap_or(default_requests) as usize;
    let harness = Harness::build(args.seed);

    // Part 1: worker scaling, caches off.
    let scaling: Vec<ScalingRow> = [1usize, 2, 4]
        .iter()
        .map(|&w| run_scaling(&harness, latency, w, requests))
        .collect();
    let speedup_4x = scaling[2].throughput_rps / scaling[0].throughput_rps.max(f64::MIN_POSITIVE);
    if speedup_4x < 3.0 {
        report.violations.push(format!(
            "4-worker throughput speedup {speedup_4x:.2}x below the 3x floor \
             ({:.1} rps vs {:.1} rps)",
            scaling[2].throughput_rps, scaling[0].throughput_rps
        ));
    }

    // Part 2: cache effectiveness.
    let cache = run_cache(&harness, latency, &mut report.violations);

    // Part 3: overload and backpressure.
    let overload = run_overload(&harness, latency, requests.max(32), &mut report.violations);

    // Part 4: cached = uncached, byte for byte.
    let equivalence = run_equivalence(&harness, latency, &mut report.violations);

    if !args.json {
        println!(
            "Serving sweep — {requests} requests/run, {latency_us}us simulated model latency (seed {})",
            args.seed
        );
        println!("\nworker scaling (caches off):");
        for row in &scaling {
            println!(
                "  {} worker(s): {:6.1} rps  p50 {:6.1}ms  p95 {:6.1}ms  p99 {:6.1}ms",
                row.workers,
                row.throughput_rps,
                row.latency_ms.p50,
                row.latency_ms.p95,
                row.latency_ms.p99
            );
        }
        println!("  4-worker speedup: {speedup_4x:.2}x (floor 3x)");
        println!(
            "\ncache: warm {:.3}ms vs cold {:.1}ms mean service = {:.0}x speedup \
             (floor 10x), hit rate {:.0}%",
            cache.warm_service_ms.mean,
            cache.cold_service_ms.mean,
            cache.speedup,
            cache.hit_rate * 100.0
        );
        println!(
            "\noverload: {} submitted -> {} completed, {} shed, {} rejected, {} expired \
             (rejection rate {:.0}%)",
            overload.submitted,
            overload.completed,
            overload.shed,
            overload.rejected,
            overload.expired,
            overload.rejection_rate * 100.0
        );
        println!(
            "\nequivalence: {}/{} questions byte-identical cached vs uncached",
            equivalence.questions - equivalence.divergent,
            equivalence.questions
        );
    }
    let doc = object! {
        "artifact": "serve_sweep",
        "seed": args.seed,
        "mode": args.mode(),
        "model_latency_us": latency_us,
        "requests": requests,
        "scaling": scaling,
        "speedup_4_workers": speedup_4x,
        "cache": cache,
        "overload": overload,
        "equivalence": equivalence,
        "violations": report.violations,
    };
    report.finish("BENCH_serve.json", &doc)
}
