//! **Resilience sweep**: the serving runtime under seeded poison-pill
//! panic injection, with quarantine isolation and bounded-drain gates.
//!
//! Four parts, each with a hard gate (any violation exits nonzero):
//!
//! 1. *Panic containment* — the same multi-tenant request set pushed
//!    through the runtime at 0%, 2%, 5%, and 10% injected panic rates
//!    ([`FaultConfig::panic_only`], seeded). A watchdog asserts **every**
//!    admitted ticket resolves; panicked requests must resolve as
//!    `Failed`, never strand. After each run the worker pool must be
//!    back at its configured size (supervisor respawn).
//! 2. *Clean-request equivalence* — every question that completed
//!    validated under panic injection must carry a semantic fingerprint
//!    byte-identical to the no-fault baseline: panics may cost
//!    availability, never correctness. A cache hit replaying an
//!    unvalidated result is likewise a violation.
//! 3. *Quarantine isolation* — a poison-pill tenant trips its breaker;
//!    from then on its submissions are rejected at admission while a
//!    steady tenant keeps being served. The steady tenant's p99 with the
//!    noisy neighbor quarantined must stay within 10% (+ a small
//!    absolute epsilon) of its solo baseline.
//! 4. *Bounded drain* — `shutdown_with_deadline` over a deep queue must
//!    return within `timeout + DRAIN_GRACE` (plus slack) with every
//!    ticket resolved; a clean drain with a generous deadline must force
//!    nothing.
//!
//! Run: `cargo run --release -p genedit-bench --bin resilience_sweep`
//! (`--smoke` shrinks the workload for CI, `--json` prints the
//! document; the JSON is always written to `BENCH_resilience.json`.)

use genedit_bench::{object, Args, Harness, Report};
use genedit_llm::{
    CompletionRequest, CompletionResponse, FaultConfig, FaultInjector, LanguageModel, ModelError,
    OracleModel,
};
use genedit_serve::{
    QuarantineConfig, QuarantineState, QueryOutcome, QueryRequest, Rejected, ServeConfig,
    ServeRuntime, SupervisorConfig, Ticket, DRAIN_GRACE,
};
use genedit_telemetry::HistogramSummary;
use serde::Serialize;
use std::collections::BTreeMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Question marker that makes [`TenantPoisonModel`] panic.
const POISON: &str = "POISON";

/// Silence the default panic printout for *injected* panics (the fault
/// injector's poison pills and the quarantine part's marker requests);
/// real panics still print through the saved default hook.
fn quiet_injected_panics() {
    static ONCE: std::sync::Once = std::sync::Once::new();
    ONCE.call_once(|| {
        let default = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let payload = info.payload();
            let message = payload
                .downcast_ref::<&str>()
                .map(|s| (*s).to_string())
                .or_else(|| payload.downcast_ref::<String>().cloned())
                .unwrap_or_default();
            if message.contains("injected poison-pill panic") || message.contains(POISON) {
                return;
            }
            default(info);
        }));
    });
}

/// Panics on requests whose question carries the poison marker; passes
/// everything else through after a fixed simulated remote-call latency
/// (so tenant-isolation latency comparisons measure real queueing).
struct TenantPoisonModel {
    inner: Arc<OracleModel>,
    latency: Duration,
}

impl LanguageModel for TenantPoisonModel {
    fn name(&self) -> &str {
        "tenant-poison"
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let original = request.prompt.original_question.as_deref().unwrap_or("");
        if request.prompt.question.contains(POISON) || original.contains(POISON) {
            panic!("{POISON}-pill request");
        }
        std::thread::sleep(self.latency);
        self.inner.complete(request)
    }
}

fn fast_supervisor() -> SupervisorConfig {
    SupervisorConfig {
        poll_interval: Duration::from_millis(1),
        backoff_base: Duration::from_millis(1),
        backoff_max: Duration::from_millis(10),
        respawn_budget: 100_000,
    }
}

/// Watchdog wait: the whole point of the sweep is that tickets resolve
/// even when requests panic, so an unresolved ticket is reported as a
/// violation instead of hanging the bench.
fn wait_watchdog(ticket: &Ticket, bound: Duration) -> Option<QueryOutcome> {
    let deadline = Instant::now() + bound;
    loop {
        if let Some(outcome) = ticket.try_wait() {
            return Some(outcome);
        }
        if Instant::now() >= deadline {
            return None;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

#[derive(Serialize)]
struct PanicRow {
    panic_rate: f64,
    submitted: usize,
    completed: usize,
    failed: usize,
    stranded: usize,
    injected_panics: u64,
    workers_respawned: u64,
    pool_recovered: bool,
}

/// Question index → fingerprint of a validated completion.
type CleanAnswers = BTreeMap<usize, String>;

const WORKERS: usize = 2;

fn run_panic_rate(
    harness: &Harness,
    rate: f64,
    requests: usize,
    seed: u64,
    violations: &mut Vec<String>,
) -> (PanicRow, CleanAnswers) {
    let model = FaultInjector::new(
        TenantPoisonModel {
            inner: Arc::clone(&harness.oracle),
            latency: Duration::ZERO,
        },
        FaultConfig::panic_only(rate),
        seed,
    );
    let runtime = harness.serve(
        model,
        ServeConfig {
            workers: WORKERS,
            queue_capacity: requests + 8,
            supervisor: fast_supervisor(),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<(usize, Ticket)> = (0..requests)
        .map(|i| {
            let ticket = runtime
                .submit(harness.request(i))
                .expect("panic run queue sized to fit the whole request set");
            (i, ticket)
        })
        .collect();
    let mut completed = 0usize;
    let mut failed = 0usize;
    let mut stranded = 0usize;
    let mut fingerprints = BTreeMap::new();
    for (i, ticket) in &tickets {
        match wait_watchdog(ticket, Duration::from_secs(60)) {
            Some(QueryOutcome::Completed { result, cached, .. }) => {
                completed += 1;
                if cached && !result.validated {
                    violations.push(format!(
                        "rate {rate}: cache replayed an unvalidated result for request {i}"
                    ));
                }
                if result.validated {
                    fingerprints
                        .entry(i % harness.bundle.tasks.len())
                        .or_insert_with(|| result.fingerprint());
                }
            }
            Some(QueryOutcome::Failed { .. }) => {
                failed += 1;
                if rate == 0.0 {
                    violations.push(format!("rate 0: request {i} failed with no fault injected"));
                }
            }
            Some(other) => {
                violations.push(format!(
                    "rate {rate}: request {i} resolved unexpectedly as {other:?}"
                ));
            }
            None => {
                stranded += 1;
                violations.push(format!(
                    "rate {rate}: ticket {} stranded past the watchdog",
                    ticket.request_id()
                ));
            }
        }
    }
    // The pool must heal back to its configured size.
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut pool_recovered = false;
    while Instant::now() < deadline {
        if runtime.workers_alive() == WORKERS {
            pool_recovered = true;
            break;
        }
        std::thread::sleep(Duration::from_millis(1));
    }
    if !pool_recovered {
        violations.push(format!(
            "rate {rate}: pool stuck at {}/{WORKERS} workers after the run",
            runtime.workers_alive()
        ));
    }
    let injected_panics = runtime.metrics().counter("serve.panic");
    let respawned = runtime.metrics().counter("serve.worker.respawned");
    if injected_panics as usize != failed {
        violations.push(format!(
            "rate {rate}: {injected_panics} panics recorded but {failed} Failed outcomes"
        ));
    }
    runtime.shutdown();
    let row = PanicRow {
        panic_rate: rate,
        submitted: requests,
        completed,
        failed,
        stranded,
        injected_panics,
        workers_respawned: respawned,
        pool_recovered,
    };
    (row, fingerprints)
}

#[derive(Serialize)]
struct QuarantineRow {
    trip_requests: usize,
    quarantined_rejections: usize,
    steady_solo_p99_ms: f64,
    steady_mixed_p99_ms: f64,
    p99_ratio: f64,
}

/// p99 degradation allowed for the steady tenant when its neighbor is
/// quarantined: 10% relative plus a small absolute epsilon so the gate
/// is robust to scheduler jitter at millisecond scales.
const P99_RELATIVE_MARGIN: f64 = 1.10;
const P99_EPSILON_MS: f64 = 5.0;

fn quarantine_runtime(harness: &Harness) -> ServeRuntime<TenantPoisonModel> {
    harness.serve(
        TenantPoisonModel {
            inner: Arc::clone(&harness.oracle),
            latency: Duration::from_micros(500),
        },
        ServeConfig {
            workers: WORKERS,
            queue_capacity: 256,
            // Caches off: every steady request pays full generation, so
            // the p99 comparison measures service, not hit ratios.
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            supervisor: fast_supervisor(),
            quarantine: QuarantineConfig {
                enabled: true,
                window: Duration::from_secs(60),
                min_samples: 3,
                failure_ratio: 0.5,
                cooldown: Duration::from_secs(300),
                probe_quota: 1,
            },
            ..ServeConfig::default()
        },
    )
}

/// Closed-loop latencies for the steady tenant. When `noisy` is true,
/// every steady request is preceded by a quarantined tenant's submission
/// (which must be rejected at the gate).
fn steady_pass(
    harness: &Harness,
    runtime: &ServeRuntime<TenantPoisonModel>,
    count: usize,
    noisy: bool,
    rejections: &mut usize,
    violations: &mut Vec<String>,
) -> Vec<f64> {
    let mut latencies = Vec::with_capacity(count);
    for i in 0..count {
        if noisy {
            match runtime.submit(QueryRequest::new("noisy", format!("{POISON} flood {i}"))) {
                Err(Rejected::Quarantined) => *rejections += 1,
                Ok(ticket) => {
                    // A probe would be admitted; with a 300 s cooldown none
                    // should appear inside this pass.
                    violations.push("quarantined tenant was admitted mid-pass".to_string());
                    let _ = wait_watchdog(&ticket, Duration::from_secs(30));
                }
                Err(other) => {
                    violations.push(format!("noisy submit saw unexpected {other:?}"));
                }
            }
        }
        let started = Instant::now();
        let ticket = match runtime.submit(QueryRequest::new("steady", harness.question(i))) {
            Ok(t) => t,
            Err(err) => {
                violations.push(format!("steady submit rejected with {err:?}"));
                continue;
            }
        };
        match wait_watchdog(&ticket, Duration::from_secs(30)) {
            Some(outcome) if outcome.is_completed() => {
                latencies.push(started.elapsed().as_secs_f64() * 1000.0);
            }
            Some(other) => violations.push(format!("steady request {i} resolved as {other:?}")),
            None => violations.push(format!("steady request {i} stranded")),
        }
    }
    latencies
}

fn run_quarantine(harness: &Harness, steady: usize, violations: &mut Vec<String>) -> QuarantineRow {
    // Solo baseline: the steady tenant alone on a fresh runtime.
    let solo_rt = quarantine_runtime(harness);
    let mut unused = 0usize;
    let solo = steady_pass(harness, &solo_rt, steady, false, &mut unused, violations);
    solo_rt.shutdown();

    // Mixed run: trip the noisy tenant's breaker, then interleave.
    let runtime = quarantine_runtime(harness);
    let mut trip_requests = 0usize;
    let trip_deadline = Instant::now() + Duration::from_secs(30);
    while runtime.quarantine_state("noisy") != QuarantineState::Open {
        if Instant::now() >= trip_deadline {
            violations.push("noisy tenant never tripped its quarantine".to_string());
            break;
        }
        match runtime.submit(QueryRequest::new(
            "noisy",
            format!("{POISON} trip {trip_requests}"),
        )) {
            Ok(ticket) => {
                trip_requests += 1;
                let _ = wait_watchdog(&ticket, Duration::from_secs(30));
            }
            Err(Rejected::Quarantined) => break,
            Err(other) => {
                violations.push(format!("trip submit saw unexpected {other:?}"));
            }
        }
    }
    // Let the supervisor heal the pool before measuring latencies.
    let heal_deadline = Instant::now() + Duration::from_secs(10);
    while runtime.workers_alive() != WORKERS && Instant::now() < heal_deadline {
        std::thread::sleep(Duration::from_millis(1));
    }
    let mut rejections = 0usize;
    let mixed = steady_pass(harness, &runtime, steady, true, &mut rejections, violations);
    if rejections == 0 {
        violations.push("quarantine produced no admission rejections".to_string());
    }
    runtime.shutdown();

    let solo_sum = HistogramSummary::from_samples(&solo);
    let mixed_sum = HistogramSummary::from_samples(&mixed);
    let bound = solo_sum.p99 * P99_RELATIVE_MARGIN + P99_EPSILON_MS;
    if mixed_sum.p99 > bound {
        violations.push(format!(
            "steady tenant p99 degraded beyond the isolation gate: solo {:.2}ms vs \
             quarantined-neighbor {:.2}ms (bound {:.2}ms)",
            solo_sum.p99, mixed_sum.p99, bound
        ));
    }
    QuarantineRow {
        trip_requests,
        quarantined_rejections: rejections,
        steady_solo_p99_ms: solo_sum.p99,
        steady_mixed_p99_ms: mixed_sum.p99,
        p99_ratio: if solo_sum.p99 > 0.0 {
            mixed_sum.p99 / solo_sum.p99
        } else {
            1.0
        },
    }
}

#[derive(Serialize)]
struct DrainRow {
    queued: usize,
    timeout_ms: u64,
    elapsed_ms: f64,
    within_bound: bool,
    clean: bool,
    forced_queued: u64,
    cancelled_inflight: u64,
    forced_inflight: u64,
    all_resolved: bool,
}

fn run_drain(
    harness: &Harness,
    requests: usize,
    timeout: Duration,
    violations: &mut Vec<String>,
) -> DrainRow {
    let runtime = harness.serve(
        TenantPoisonModel {
            inner: Arc::clone(&harness.oracle),
            latency: Duration::from_millis(2),
        },
        ServeConfig {
            workers: WORKERS,
            queue_capacity: requests + 8,
            result_cache_capacity: 0,
            reform_cache_capacity: 0,
            supervisor: fast_supervisor(),
            ..ServeConfig::default()
        },
    );
    let tickets: Vec<Ticket> = (0..requests)
        .map(|i| {
            runtime
                .submit(harness.request(i))
                .expect("drain queue sized to fit the whole request set")
        })
        .collect();
    let report = runtime.shutdown_with_deadline(timeout);
    // Generous slack on top of the structural bound: the bench may run
    // on loaded CI machines.
    let bound = timeout + DRAIN_GRACE + Duration::from_secs(2);
    let within_bound = report.elapsed <= bound;
    if !within_bound {
        violations.push(format!(
            "drain took {:?}, bound was {timeout:?} + {DRAIN_GRACE:?} (+2s slack)",
            report.elapsed
        ));
    }
    let mut all_resolved = true;
    for ticket in &tickets {
        if ticket.try_wait().is_none() {
            all_resolved = false;
            violations.push(format!(
                "ticket {} unresolved after shutdown_with_deadline returned",
                ticket.request_id()
            ));
        }
    }
    DrainRow {
        queued: requests,
        timeout_ms: timeout.as_millis() as u64,
        elapsed_ms: report.elapsed.as_secs_f64() * 1000.0,
        within_bound,
        clean: report.clean,
        forced_queued: report.forced_queued,
        cancelled_inflight: report.cancelled_inflight,
        forced_inflight: report.forced_inflight,
        all_resolved,
    }
}

fn main() {
    quiet_injected_panics();
    let args = Args::parse(&["--smoke", "--requests N", "--steady N"]);
    let mut report = Report::new(&args);
    let (default_requests, default_steady) = if args.smoke { (40, 40) } else { (120, 100) };
    let requests = args.value("--requests").unwrap_or(default_requests) as usize;
    let steady = args.value("--steady").unwrap_or(default_steady) as usize;
    let harness = Harness::build(args.seed);

    // Parts 1 + 2: panic containment at increasing rates, with the 0%
    // run doubling as the fingerprint baseline.
    let (panic_rows, answers): (Vec<PanicRow>, Vec<CleanAnswers>) = [0.0, 0.02, 0.05, 0.10]
        .iter()
        .map(|&rate| run_panic_rate(&harness, rate, requests, args.seed, &mut report.violations))
        .unzip();
    let baseline = &answers[0];
    let mut fingerprints_checked = 0usize;
    for (row, clean) in panic_rows.iter().zip(&answers).skip(1) {
        for (question, fp) in clean {
            let Some(base) = baseline.get(question) else {
                continue;
            };
            fingerprints_checked += 1;
            if fp != base {
                report.violations.push(format!(
                    "rate {}: clean completion for question {question} diverges from the \
                     no-fault baseline:\n  baseline: {base}\n  faulted:  {fp}",
                    row.panic_rate
                ));
            }
        }
    }
    if fingerprints_checked == 0 {
        report
            .violations
            .push("no clean completions overlapped the baseline".to_string());
    }

    // Part 3: quarantine isolation.
    let quarantine = run_quarantine(&harness, steady, &mut report.violations);

    // Part 4: bounded drain — forced under a tight deadline, clean under
    // a generous one.
    let forced_drain = run_drain(
        &harness,
        requests.max(32),
        Duration::from_millis(100),
        &mut report.violations,
    );
    if forced_drain.clean && forced_drain.forced_queued == 0 {
        // Not a violation — a fast machine may genuinely drain in time —
        // but the row records it either way.
        eprintln!("note: tight-deadline drain finished cleanly on this machine");
    }
    let clean_drain = run_drain(&harness, 8, Duration::from_secs(30), &mut report.violations);
    if !clean_drain.clean {
        report.violations.push(format!(
            "generous-deadline drain still forced work: {:?}",
            (
                clean_drain.forced_queued,
                clean_drain.cancelled_inflight,
                clean_drain.forced_inflight
            )
        ));
    }

    if !args.json {
        println!(
            "Resilience sweep — {requests} requests/run, {WORKERS} workers (seed {})",
            args.seed
        );
        println!("\npanic containment (every ticket must resolve):");
        for row in &panic_rows {
            println!(
                "  {:>4.0}% panics: {:>3} completed, {:>3} failed, {} stranded, \
                 {} respawns, pool recovered: {}",
                row.panic_rate * 100.0,
                row.completed,
                row.failed,
                row.stranded,
                row.workers_respawned,
                row.pool_recovered
            );
        }
        println!(
            "\nclean-request equivalence: {fingerprints_checked} fingerprints vs no-fault baseline"
        );
        println!(
            "\nquarantine: tripped after {} poison requests, {} rejections at the gate",
            quarantine.trip_requests, quarantine.quarantined_rejections
        );
        println!(
            "  steady tenant p99: solo {:.2}ms vs quarantined-neighbor {:.2}ms ({:.2}x, gate {:.0}% + {}ms)",
            quarantine.steady_solo_p99_ms,
            quarantine.steady_mixed_p99_ms,
            quarantine.p99_ratio,
            (P99_RELATIVE_MARGIN - 1.0) * 100.0,
            P99_EPSILON_MS
        );
        println!(
            "\ndrain: tight {}ms deadline -> {:.0}ms elapsed ({} forced queued, {} cancelled, \
             {} forced in-flight); generous deadline clean: {}",
            forced_drain.timeout_ms,
            forced_drain.elapsed_ms,
            forced_drain.forced_queued,
            forced_drain.cancelled_inflight,
            forced_drain.forced_inflight,
            clean_drain.clean
        );
    }
    let doc = object! {
        "artifact": "resilience_sweep",
        "seed": args.seed,
        "mode": args.mode(),
        "requests": requests,
        "workers": WORKERS,
        "panic_containment": panic_rows,
        "fingerprints_checked": fingerprints_checked,
        "quarantine": quarantine,
        "forced_drain": forced_drain,
        "clean_drain": clean_drain,
        "violations": report.violations,
    };
    report.finish("BENCH_resilience.json", &doc)
}
