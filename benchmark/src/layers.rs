//! Per-layer metrics of a traced pass.
//!
//! Layers are the workspace crates. Every figure comes from outside the
//! program: (a) timing a call into a crate's public function from here,
//! (b) the [`SpanModel`](crate::spans::SpanModel) decorator's record of
//! model calls, or (c) values the public API already returns —
//! `QueryOutcome::Completed { cached, queue_wait, service }`,
//! `GenerationResult::{attempts, trace}`, `ExecStats`, `PoolStats` and
//! the `MetricsRegistry` counters.
//!
//! `*_p50` / `*_p99` are percentiles over traced requests (or over the
//! probe's repetitions), `*_share` are ratios, everything else is a mean
//! or a count. A metric that does not apply to a workload reads 0.

use crate::driver::{Driver, Ending, Read, Traced};
use crate::report::Metric;
use crate::spans::{self_times_us, ModelCall, Span};
use crate::stats;
use crate::verify::Verdict;
use crate::workloads::World;
use genedit_core::{
    GenEditPipeline, GenerateOptions, GenerationResult, KnowledgeIndex, PipelineConfig,
};
use genedit_knowledge::{DurableKnowledgeStore, RealFs, StoreConfig, StoreFs};
use genedit_llm::{
    BatchConfig, BatchScheduler, CompletionRequest, HedgePolicy, HedgedModel, LanguageModel,
};
use genedit_sql::exec::{execute_sql, execute_sql_reference, execute_sql_timed};
use genedit_telemetry::{names, MetricsRegistry, Tracer};
use std::collections::{BTreeMap, HashMap};
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Served results replayed through each layer's public functions.
const REPLAYS: usize = 500;
/// Distinct queries also run on the reference interpreter.
const REFERENCE_QUERIES: usize = 40;
/// Tenants sampled by the store and directory probes.
const PROBED_TENANTS: usize = 16;
/// Requests whose spans go to the trace file (all requests feed the
/// metrics; the cap only bounds the file).
const TRACE_FILE_REQUESTS: usize = 5_000;
/// A query the vectorized engine runs less than this much faster than
/// the reference interpreter is on the interpreter path.
const SLOW_PATH_RATIO: f64 = 1.5;
/// Wall-clock allowance for each replay loop, so a slow machine trims
/// the sample instead of overrunning the run.
const PROBE_BUDGET: Duration = Duration::from_secs(4);

/// Every per-layer metric name with its unit, in report order.
pub const PER_LAYER: [(&str, &str); 95] = [
    ("serve.admission_us_p50", "us"),
    ("serve.queue_wait_ms_p50", "ms"),
    ("serve.service_ms_p50", "ms"),
    ("serve.wake_us_p50", "us"),
    ("serve.overhead_ms_p50", "ms"),
    ("serve.hit_service_us_p50", "us"),
    ("serve.result_cache_hit_share", "ratio"),
    ("serve.reform_cache_hit_share", "ratio"),
    ("serve.cache_evictions", "count"),
    ("serve.tenant_dir_hit_share", "ratio"),
    ("serve.tenant_page_in_ms_p50", "ms"),
    ("serve.tenant_page_in_ms_p99", "ms"),
    ("serve.outcomes.completed", "count"),
    ("serve.outcomes.rejected", "count"),
    ("serve.outcomes.shed", "count"),
    ("serve.outcomes.expired", "count"),
    ("serve.outcomes.cancelled", "count"),
    ("serve.outcomes.failed", "count"),
    ("serve.stale_reads", "count"),
    ("core.generate_ms_p50", "ms"),
    ("core.generate_ms_p99", "ms"),
    ("core.op.reformulate_us", "us"),
    ("core.op.intent_us", "us"),
    ("core.op.examples_us", "us"),
    ("core.op.instructions_us", "us"),
    ("core.op.schema_linking_us", "us"),
    ("core.op.plan_us", "us"),
    ("core.op.sql_attempt_us", "us"),
    ("core.op.validate_us", "us"),
    ("core.sql_attempts_mean", "count"),
    ("core.first_attempt_valid_share", "ratio"),
    ("core.degraded_share", "ratio"),
    ("core.result_clone_us_p50", "us"),
    ("core.index_build_ms_p50", "ms"),
    ("core.index_from_snapshot_ms_p50", "ms"),
    ("core.feedback_ms_p50", "ms"),
    ("core.regenerate_ms_p50", "ms"),
    ("core.regression_ms_p50", "ms"),
    ("core.regression_generations", "count"),
    ("llm.calls_per_request", "count"),
    ("llm.reformulate.us_p50", "us"),
    ("llm.intent.us_p50", "us"),
    ("llm.schema-linking.us_p50", "us"),
    ("llm.plan.us_p50", "us"),
    ("llm.sql.us_p50", "us"),
    ("llm.prompt_chars_per_request", "count"),
    ("llm.time_share", "ratio"),
    ("llm.decorator_overhead_us", "us"),
    ("retrieval.embed_us_p50", "us"),
    ("retrieval.embed_expanded_us_p50", "us"),
    ("retrieval.top_examples_us_p50", "us"),
    ("retrieval.top_instructions_us_p50", "us"),
    ("retrieval.top_schema_us_p50", "us"),
    ("retrieval.vectors", "count"),
    ("retrieval.time_share", "ratio"),
    ("knowledge.commit_ms_p50", "ms"),
    ("knowledge.commit_ms_p99", "ms"),
    ("knowledge.wal_bytes_per_edit", "bytes"),
    ("knowledge.page_bytes_per_edit", "bytes"),
    ("knowledge.write_amp", "ratio"),
    ("knowledge.disk_bytes_per_tenant", "bytes"),
    ("knowledge.snapshot_open_ms_p50", "ms"),
    ("knowledge.content_read_ms_p50", "ms"),
    ("knowledge.vectors_read_ms_p50", "ms"),
    ("knowledge.materialize_ms_p50", "ms"),
    ("knowledge.pool_hit_share", "ratio"),
    ("knowledge.pool_evictions", "count"),
    ("knowledge.pool_resident_bytes_max", "bytes"),
    ("knowledge.page_rebuilds", "count"),
    ("knowledge.preprocess_ms", "ms"),
    ("knowledge.recover_ms_p50", "ms"),
    ("sql.parse_us_p50", "us"),
    ("sql.execute_ms_p50", "ms"),
    ("sql.execute_ms_p99", "ms"),
    ("sql.time_share", "ratio"),
    ("sql.rows_scanned_per_query", "count"),
    ("sql.rows_scanned_per_s", "1/s"),
    ("sql.batches_per_query", "count"),
    ("sql.hash_joins", "count"),
    ("sql.nested_loop_joins", "count"),
    ("sql.agg_groups", "count"),
    ("sql.rows_scanned_per_row_returned", "ratio"),
    ("sql.reference_ratio_p50", "ratio"),
    ("sql.slow_path_queries", "count"),
    ("telemetry.observe_ns", "ns"),
    ("telemetry.incr_ns", "ns"),
    ("telemetry.span_ns", "ns"),
    ("telemetry.spans_per_request", "count"),
    ("telemetry.trace_clone_us_p50", "us"),
    ("trace.coverage", "ratio"),
    ("trace.overhead_share", "ratio"),
    ("trace.spans", "count"),
    ("edit_commit_p50_ms", "ms"),
    ("post_edit_read_p50_ms", "ms"),
    ("improve_session_p50_ms", "ms"),
];

/// The per-layer metrics of one traced pass and the spans behind them.
pub struct Layers {
    pub metrics: Vec<Metric>,
    pub spans: Vec<Span>,
}

fn p50(values: &[f64]) -> f64 {
    stats::median(values)
}

fn p99(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    stats::sort(&mut v);
    stats::tail_percentile(&v, 0.99).0
}

fn share(part: u64, rest: u64) -> f64 {
    if part + rest == 0 {
        0.0
    } else {
        part as f64 / (part + rest) as f64
    }
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

fn timed<T>(f: impl FnOnce() -> T) -> (T, Duration) {
    let at = Instant::now();
    let out = f();
    (out, at.elapsed())
}

/// A served read together with what the traced pass kept about it.
struct Kept<'a> {
    read: &'a Read,
    traced: &'a Traced,
    result: &'a GenerationResult,
}

/// Compute every per-layer metric. `untraced_rps` is the throughput of
/// the untraced reference pass over the same stream.
pub fn measure(
    world: &World,
    driver: &Driver<'_>,
    verdict: &Verdict,
    calls: &[ModelCall],
    traced_rps: f64,
    untraced_rps: f64,
) -> Layers {
    let mut out: BTreeMap<&'static str, f64> = BTreeMap::new();
    let traced: Vec<(&Read, &Traced)> = driver
        .reads
        .iter()
        .filter_map(|r| r.traced.as_deref().map(|t| (r, t)))
        .collect();
    // Replays run against the base knowledge, so they use reads that
    // were served from it.
    let kept: Vec<Kept<'_>> = traced
        .iter()
        .filter(|(r, _)| r.version_at_return == 0)
        .filter_map(|(r, t)| {
            t.result.as_deref().map(|result| Kept {
                read: r,
                traced: t,
                result,
            })
        })
        .take(REPLAYS)
        .collect();

    serve_layer(&mut out, world, driver, verdict, &traced);
    core_layer(&mut out, world, driver, &kept);
    llm_layer(&mut out, world, &traced, &kept, calls);
    retrieval_layer(&mut out, world, &kept);
    knowledge_layer(&mut out, world, driver);
    sql_layer(&mut out, world, &kept);
    telemetry_layer(&mut out, &kept);

    let spans = build_spans(&traced, calls);
    let wall: f64 = traced
        .iter()
        .map(|(_, t)| t.done_us - t.submit_start_us)
        .sum();
    let accounted: f64 = traced
        .iter()
        .map(|(_, t)| t.admission_us + t.queue_wait_us + t.service_us + t.harvest_delay_us)
        .sum();
    out.insert(
        "trace.coverage",
        if wall > 0.0 { accounted / wall } else { 0.0 },
    );
    out.insert(
        "trace.overhead_share",
        if untraced_rps > 0.0 {
            1.0 - traced_rps / untraced_rps
        } else {
            0.0
        },
    );
    out.insert("trace.spans", spans.len() as f64);
    for m in crate::report::edit_metrics(driver) {
        out.insert(m.name, m.value);
    }

    let metrics = PER_LAYER
        .iter()
        .map(|(name, unit)| Metric::new(name, out.get(name).copied().unwrap_or(0.0), unit))
        .collect();
    Layers { metrics, spans }
}

fn serve_layer(
    out: &mut BTreeMap<&'static str, f64>,
    world: &World,
    driver: &Driver<'_>,
    verdict: &Verdict,
    traced: &[(&Read, &Traced)],
) {
    let admission: Vec<f64> = traced.iter().map(|(_, t)| t.admission_us).collect();
    let queue_wait: Vec<f64> = traced.iter().map(|(_, t)| t.queue_wait_us / 1e3).collect();
    let service: Vec<f64> = traced.iter().map(|(_, t)| t.service_us / 1e3).collect();
    let wake: Vec<f64> = traced
        .iter()
        .map(|(_, t)| {
            let wall = t.done_us - t.submit_start_us;
            (wall - t.admission_us - t.queue_wait_us - t.service_us - t.harvest_delay_us).max(0.0)
        })
        .collect();
    out.insert("serve.admission_us_p50", p50(&admission));
    out.insert("serve.queue_wait_ms_p50", p50(&queue_wait));
    out.insert("serve.service_ms_p50", p50(&service));
    out.insert("serve.wake_us_p50", p50(&wake));

    let is_hit = |r: &Read| matches!(r.ending, Ending::Completed { cached: true, .. });
    let hit_service: Vec<f64> = traced
        .iter()
        .filter(|(r, _)| is_hit(r))
        .map(|(_, t)| t.service_us)
        .collect();
    out.insert("serve.hit_service_us_p50", p50(&hit_service));
    let completed = driver
        .reads
        .iter()
        .filter(|r| matches!(r.ending, Ending::Completed { .. }))
        .count();
    let hits = driver.reads.iter().filter(|r| is_hit(r)).count();
    out.insert(
        "serve.result_cache_hit_share",
        hits as f64 / completed.max(1) as f64,
    );
    let counter = |name: &str| driver.counters.get(name).copied().unwrap_or(0);
    out.insert(
        "serve.reform_cache_hit_share",
        share(counter("serve.reform.hit"), counter("serve.reform.miss")),
    );
    out.insert(
        "serve.cache_evictions",
        counter("serve.cache.evicted") as f64,
    );
    out.insert(
        "serve.tenant_dir_hit_share",
        share(counter("serve.tenant.hit"), counter("serve.tenant.miss")),
    );
    if let Some(churn) = &world.churn {
        // Cold page-in: drop the tenant's resident index, then time the
        // directory bringing it back.
        let page_in: Vec<f64> = world
            .tenants
            .iter()
            .map(|tenant| {
                churn.directory.invalidate(tenant);
                let (index, took) = timed(|| churn.directory.index_for(tenant));
                index.expect("seeded tenant pages in");
                took.as_secs_f64() * 1e3
            })
            .collect();
        out.insert("serve.tenant_page_in_ms_p50", p50(&page_in));
        out.insert("serve.tenant_page_in_ms_p99", p99(&page_in));
    }
    out.insert("serve.outcomes.completed", completed as f64);
    out.insert("serve.outcomes.rejected", verdict.rejected as f64);
    out.insert("serve.outcomes.shed", verdict.shed as f64);
    out.insert("serve.outcomes.expired", verdict.expired as f64);
    out.insert("serve.outcomes.cancelled", verdict.cancelled as f64);
    out.insert("serve.outcomes.failed", verdict.failed as f64);
    out.insert("serve.stale_reads", verdict.stale_reads as f64);
}

fn core_layer(
    out: &mut BTreeMap<&'static str, f64>,
    world: &World,
    driver: &Driver<'_>,
    kept: &[Kept<'_>],
) {
    // Direct generation of the same questions on this thread: what the
    // pipeline costs without the serving layer around it.
    let pipeline = GenEditPipeline::new(Arc::clone(&world.oracle));
    let deadline = Instant::now() + PROBE_BUDGET;
    let mut direct_ms = Vec::new();
    let mut overhead_ms = Vec::new();
    for k in kept {
        if Instant::now() > deadline {
            break;
        }
        let domain = &world.domains[k.read.domain];
        let question = &domain.tasks[k.read.question as usize].question;
        let (result, took) = timed(|| {
            pipeline.generate_with(
                question,
                &domain.index,
                &domain.db,
                &[],
                &GenerateOptions::default(),
            )
        });
        black_box(result);
        let took_ms = took.as_secs_f64() * 1e3;
        direct_ms.push(took_ms);
        overhead_ms.push(k.traced.service_us / 1e3 - took_ms);
    }
    out.insert("core.generate_ms_p50", p50(&direct_ms));
    out.insert("core.generate_ms_p99", p99(&direct_ms));
    out.insert("serve.overhead_ms_p50", p50(&overhead_ms));

    // Operator self times from the trace the program returns with every
    // result (source: program_trace), meaned per request.
    let operators = [
        (names::REFORMULATE, "core.op.reformulate_us"),
        (names::INTENT, "core.op.intent_us"),
        (names::EXAMPLES, "core.op.examples_us"),
        (names::INSTRUCTIONS, "core.op.instructions_us"),
        (names::SCHEMA_LINKING, "core.op.schema_linking_us"),
        (names::PLAN, "core.op.plan_us"),
        (names::SQL_ATTEMPT, "core.op.sql_attempt_us"),
        (names::VALIDATE, "core.op.validate_us"),
    ];
    let mut totals: HashMap<&'static str, f64> = HashMap::new();
    for k in kept {
        let mut spans = Vec::new();
        let mut next_id = 1;
        for root in &k.result.trace.spans {
            program_spans(root, 0, 0, 0.0, &mut next_id, &mut spans);
        }
        for (span, self_us) in spans.iter().zip(self_times_us(&spans)) {
            if let Some((_, metric)) = operators.iter().find(|(name, _)| *name == span.name) {
                *totals.entry(metric).or_insert(0.0) += self_us;
            }
        }
    }
    for (_, metric) in operators {
        let total = totals.get(metric).copied().unwrap_or(0.0);
        out.insert(metric, total / kept.len().max(1) as f64);
    }

    let attempts: Vec<f64> = kept.iter().map(|k| k.result.attempts as f64).collect();
    out.insert("core.sql_attempts_mean", stats::mean(&attempts));
    let first_valid = kept
        .iter()
        .filter(|k| k.result.attempts == 1 && k.result.validated)
        .count();
    out.insert(
        "core.first_attempt_valid_share",
        first_valid as f64 / kept.len().max(1) as f64,
    );
    let degraded = kept
        .iter()
        .filter(|k| k.result.degraded_operator_count() > 0)
        .count();
    out.insert(
        "core.degraded_share",
        degraded as f64 / kept.len().max(1) as f64,
    );
    let clone_us: Vec<f64> = kept
        .iter()
        .map(|k| {
            let (copy, took) = timed(|| k.result.clone());
            black_box(copy);
            us(took)
        })
        .collect();
    out.insert("core.result_clone_us_p50", p50(&clone_us));

    let build_ms: Vec<f64> = world
        .domains
        .iter()
        .flat_map(|d| (0..5).map(move |_| d))
        .map(|d| {
            let ks = d.base.clone();
            let (index, took) = timed(|| KnowledgeIndex::build(ks));
            black_box(index);
            took.as_secs_f64() * 1e3
        })
        .collect();
    out.insert("core.index_build_ms_p50", p50(&build_ms));
    if let Some(churn) = &world.churn {
        let from_snapshot_ms: Vec<f64> = world
            .tenants
            .iter()
            .take(PROBED_TENANTS)
            .map(|tenant| {
                let snapshot = churn.store.snapshot(tenant).expect("seeded tenant");
                let (index, took) = timed(|| KnowledgeIndex::from_snapshot(&snapshot));
                index.expect("tenant pages are readable");
                took.as_secs_f64() * 1e3
            })
            .collect();
        out.insert("core.index_from_snapshot_ms_p50", p50(&from_snapshot_ms));
    }

    let ran: Vec<_> = driver.steps.iter().filter(|s| s.session_ms > 0.0).collect();
    let column =
        |f: fn(&crate::driver::Step) -> f64| -> Vec<f64> { ran.iter().map(|s| f(s)).collect() };
    out.insert("core.feedback_ms_p50", p50(&column(|s| s.feedback_ms)));
    out.insert("core.regenerate_ms_p50", p50(&column(|s| s.regenerate_ms)));
    out.insert("core.regression_ms_p50", p50(&column(|s| s.regression_ms)));
    // `run_regression` generates every golden query before and after.
    out.insert(
        "core.regression_generations",
        ran.first().map_or(0.0, |s| 2.0 * s.golden as f64),
    );
}

fn llm_layer(
    out: &mut BTreeMap<&'static str, f64>,
    world: &World,
    traced: &[(&Read, &Traced)],
    kept: &[Kept<'_>],
    calls: &[ModelCall],
) {
    let requests = traced.len().max(1) as f64;
    out.insert("llm.calls_per_request", calls.len() as f64 / requests);
    let chars: usize = calls.iter().map(|c| c.prompt_chars).sum();
    out.insert("llm.prompt_chars_per_request", chars as f64 / requests);
    for (kind, metric) in [
        ("reformulate", "llm.reformulate.us_p50"),
        ("intent", "llm.intent.us_p50"),
        ("schema-linking", "llm.schema-linking.us_p50"),
        ("plan", "llm.plan.us_p50"),
        ("sql", "llm.sql.us_p50"),
    ] {
        let durations: Vec<f64> = calls
            .iter()
            .filter(|c| c.kind == kind)
            .map(|c| c.end_us - c.start_us)
            .collect();
        out.insert(metric, p50(&durations));
    }
    let model_us: f64 = calls.iter().map(|c| c.end_us - c.start_us).sum();
    let service_us: f64 = traced.iter().map(|(_, t)| t.service_us).sum();
    out.insert(
        "llm.time_share",
        if service_us > 0.0 {
            model_us / service_us
        } else {
            0.0
        },
    );

    // What the serving runtime's model stack adds to every call even with
    // hedging and batching disabled (which is how it is always built).
    let requests: Vec<CompletionRequest> = kept
        .iter()
        .take(200)
        .map(|k| CompletionRequest::new(k.result.final_prompt.clone()))
        .collect();
    if requests.is_empty() {
        return;
    }
    let bare = Arc::clone(&world.oracle);
    let stacked = HedgedModel::new(
        BatchScheduler::new(Arc::clone(&world.oracle), BatchConfig::disabled()),
        HedgePolicy::disabled(),
    );
    let per_call_us = |model: &dyn LanguageModel| -> f64 {
        let (_, took) = timed(|| {
            for request in &requests {
                black_box(model.complete(request).ok());
            }
        });
        us(took) / requests.len() as f64
    };
    let differences: Vec<f64> = (0..5)
        .map(|_| {
            let plain = per_call_us(&bare);
            per_call_us(&stacked) - plain
        })
        .collect();
    out.insert("llm.decorator_overhead_us", p50(&differences));
}

fn retrieval_layer(out: &mut BTreeMap<&'static str, f64>, world: &World, kept: &[Kept<'_>]) {
    let config = PipelineConfig::default();
    let (mut embed, mut expanded, mut examples, mut instructions, mut schema) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut replay_us = 0.0;
    let mut service_us = 0.0;
    for k in kept {
        let index = &world.domains[k.read.domain].index;
        let embedder = index.embedder();
        let question = k.result.reformulated.as_str();
        let example_texts: Vec<String> = k
            .result
            .final_prompt
            .examples
            .iter()
            .map(|e| format!("{} {}", e.description, e.sql))
            .collect();
        let expansions: Vec<&str> = example_texts.iter().map(String::as_str).collect();
        let intents = &k.result.intents;

        let (query, t_embed) = timed(|| embedder.embed(question));
        let (wide, t_expanded) = timed(|| embedder.embed_expanded(question, &expansions));
        let (_, t_examples) = timed(|| {
            black_box(
                index
                    .top_examples(&query, intents, config.example_top_k)
                    .len(),
            )
        });
        let (_, t_instructions) = timed(|| {
            black_box(
                index
                    .top_instructions(&wide, intents, config.instruction_top_k)
                    .len(),
            )
        });
        let (_, t_schema) = timed(|| black_box(index.top_schema(&wide, config.schema_top_k).len()));
        embed.push(us(t_embed));
        expanded.push(us(t_expanded));
        examples.push(us(t_examples));
        instructions.push(us(t_instructions));
        schema.push(us(t_schema));
        replay_us += us(t_embed + t_expanded + t_examples + t_instructions + t_schema);
        service_us += k.traced.service_us;
    }
    out.insert("retrieval.embed_us_p50", p50(&embed));
    out.insert("retrieval.embed_expanded_us_p50", p50(&expanded));
    out.insert("retrieval.top_examples_us_p50", p50(&examples));
    out.insert("retrieval.top_instructions_us_p50", p50(&instructions));
    out.insert("retrieval.top_schema_us_p50", p50(&schema));
    let base = &world.domains[0].base;
    out.insert(
        "retrieval.vectors",
        (base.examples().len() + base.instructions().len() + base.schema_elements().len()) as f64,
    );
    out.insert(
        "retrieval.time_share",
        if service_us > 0.0 {
            replay_us / service_us
        } else {
            0.0
        },
    );
}

fn knowledge_layer(out: &mut BTreeMap<&'static str, f64>, world: &World, driver: &Driver<'_>) {
    out.insert("knowledge.preprocess_ms", world.preprocess_ms);
    let Some(churn) = &world.churn else {
        return;
    };
    let committed: Vec<_> = driver.steps.iter().filter(|s| s.committed).collect();
    let commit_ms: Vec<f64> = committed.iter().map(|s| s.commit_ms).collect();
    out.insert("knowledge.commit_ms_p50", p50(&commit_ms));
    out.insert("knowledge.commit_ms_p99", p99(&commit_ms));
    let commits = committed.len().max(1) as f64;
    let wal: u64 = committed.iter().map(|s| s.wal_bytes).sum();
    let pages: u64 = committed.iter().map(|s| s.page_bytes).sum();
    let edits: u64 = committed.iter().map(|s| s.edit_bytes).sum();
    out.insert("knowledge.wal_bytes_per_edit", wal as f64 / commits);
    out.insert("knowledge.page_bytes_per_edit", pages as f64 / commits);
    out.insert(
        "knowledge.write_amp",
        if edits > 0 {
            (wal + pages) as f64 / edits as f64
        } else {
            0.0
        },
    );
    out.insert(
        "knowledge.disk_bytes_per_tenant",
        dir_bytes(&churn.root) as f64 / world.tenants.len() as f64,
    );
    let ran: Vec<_> = driver.steps.iter().filter(|s| s.session_ms > 0.0).collect();
    let open: Vec<f64> = ran.iter().map(|s| s.snapshot_open_ms).collect();
    let content: Vec<f64> = ran.iter().map(|s| s.content_read_ms).collect();
    // Applying a tenant's first committed batch to the base set: what a
    // merge costs before anything touches the disk.
    let base = &world.domains[0].base;
    let materialize: Vec<f64> = driver
        .versions
        .iter()
        .filter_map(|batches| batches.first())
        .map(|batch| {
            let (merged, took) = timed(|| batch.materialize(base));
            merged.expect("committed edits apply to the base set");
            took.as_secs_f64() * 1e3
        })
        .collect();
    out.insert("knowledge.snapshot_open_ms_p50", p50(&open));
    out.insert("knowledge.content_read_ms_p50", p50(&content));
    out.insert("knowledge.materialize_ms_p50", p50(&materialize));

    let sample = || world.tenants.iter().take(PROBED_TENANTS);
    let vectors_ms: Vec<f64> = sample()
        .map(|tenant| {
            let snapshot = churn.store.snapshot(tenant).expect("seeded tenant");
            let (vectors, took) = timed(|| snapshot.vectors());
            vectors.expect("vector pages are readable");
            took.as_secs_f64() * 1e3
        })
        .collect();
    out.insert("knowledge.vectors_read_ms_p50", p50(&vectors_ms));
    // Crash recovery of one tenant: replay its snapshot + WAL from disk.
    let fs: Arc<dyn StoreFs> = Arc::new(RealFs::new());
    let recover_ms: Vec<f64> = sample()
        .map(|tenant| {
            let dir = churn.root.join(tenant);
            let (store, took) = timed(|| {
                DurableKnowledgeStore::open_with(
                    Arc::clone(&fs),
                    dir.join("knowledge.json"),
                    dir.join("knowledge.wal"),
                    StoreConfig::default(),
                    None,
                )
            });
            store.expect("tenant WAL recovers");
            took.as_secs_f64() * 1e3
        })
        .collect();
    out.insert("knowledge.recover_ms_p50", p50(&recover_ms));

    let counter = |name: &str| driver.counters.get(name).copied().unwrap_or(0);
    out.insert(
        "knowledge.pool_hit_share",
        share(counter(names::POOL_HIT), counter(names::POOL_MISS)),
    );
    out.insert(
        "knowledge.pool_evictions",
        counter(names::POOL_EVICTIONS) as f64,
    );
    out.insert(
        "knowledge.pool_resident_bytes_max",
        driver.pool_resident_max as f64,
    );
    out.insert(
        "knowledge.page_rebuilds",
        counter(names::PAGE_REBUILDS) as f64,
    );
}

fn dir_bytes(path: &std::path::Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(path) else {
        return 0;
    };
    entries
        .flatten()
        .map(|entry| match entry.metadata() {
            Ok(meta) if meta.is_dir() => dir_bytes(&entry.path()),
            Ok(meta) => meta.len(),
            Err(_) => 0,
        })
        .sum()
}

fn sql_layer(out: &mut BTreeMap<&'static str, f64>, world: &World, kept: &[Kept<'_>]) {
    let deadline = Instant::now() + PROBE_BUDGET;
    let (mut parse_us, mut execute_ms) = (Vec::new(), Vec::new());
    let (mut scanned, mut batches, mut returned) = (0u64, 0u64, 0u64);
    let (mut hash_joins, mut nested_loop_joins, mut agg_groups) = (0u64, 0u64, 0u64);
    let (mut execute_s, mut sql_us, mut service_us) = (0.0, 0.0, 0.0);
    let mut distinct: Vec<(usize, &str)> = Vec::new();
    for k in kept {
        if Instant::now() > deadline {
            break;
        }
        let Some(sql) = k.result.sql.as_deref() else {
            continue;
        };
        let db = &world.domains[k.read.domain].db;
        // Single-threaded replay, so the engine's thread-local counters
        // are exact for this statement.
        let (result, stats) = execute_sql_timed(db, sql);
        black_box(result.ok());
        parse_us.push(us(stats.parse));
        execute_ms.push(stats.execute.as_secs_f64() * 1e3);
        scanned += stats.counters.rows_scanned;
        batches += stats.counters.batches;
        hash_joins += stats.counters.hash_joins;
        nested_loop_joins += stats.counters.nested_loop_joins;
        agg_groups += stats.counters.agg_groups;
        returned += stats.rows as u64;
        execute_s += stats.execute.as_secs_f64();
        // Validation runs the statement once per attempt.
        sql_us += us(stats.parse + stats.execute) * k.result.attempts.max(1) as f64;
        service_us += k.traced.service_us;
        if distinct.len() < REFERENCE_QUERIES && !distinct.iter().any(|(_, s)| *s == sql) {
            distinct.push((k.read.domain, sql));
        }
    }
    let queries = parse_us.len().max(1) as f64;
    out.insert("sql.parse_us_p50", p50(&parse_us));
    out.insert("sql.execute_ms_p50", p50(&execute_ms));
    out.insert("sql.execute_ms_p99", p99(&execute_ms));
    out.insert(
        "sql.time_share",
        if service_us > 0.0 {
            sql_us / service_us
        } else {
            0.0
        },
    );
    out.insert("sql.rows_scanned_per_query", scanned as f64 / queries);
    out.insert(
        "sql.rows_scanned_per_s",
        if execute_s > 0.0 {
            scanned as f64 / execute_s
        } else {
            0.0
        },
    );
    out.insert("sql.batches_per_query", batches as f64 / queries);
    out.insert("sql.hash_joins", hash_joins as f64);
    out.insert("sql.nested_loop_joins", nested_loop_joins as f64);
    out.insert("sql.agg_groups", agg_groups as f64);
    out.insert(
        "sql.rows_scanned_per_row_returned",
        scanned as f64 / returned.max(1) as f64,
    );

    // How much each distinct query gains from the vectorized engine over
    // the seed interpreter; below SLOW_PATH_RATIO it gains nothing.
    let deadline = Instant::now() + PROBE_BUDGET;
    let mut ratios = Vec::new();
    for (domain, sql) in distinct {
        if Instant::now() > deadline {
            break;
        }
        let db = &world.domains[domain].db;
        let best = |run: &dyn Fn() -> bool| -> f64 {
            (0..2)
                .map(|_| {
                    let (ok, took) = timed(run);
                    black_box(ok);
                    took.as_secs_f64()
                })
                .fold(f64::INFINITY, f64::min)
        };
        let vectorized = best(&|| execute_sql(db, sql).is_ok());
        let reference = best(&|| execute_sql_reference(db, sql).is_ok());
        if vectorized > 0.0 {
            ratios.push(reference / vectorized);
        }
    }
    out.insert("sql.reference_ratio_p50", p50(&ratios));
    out.insert(
        "sql.slow_path_queries",
        ratios.iter().filter(|r| **r < SLOW_PATH_RATIO).count() as f64,
    );
}

fn telemetry_layer(out: &mut BTreeMap<&'static str, f64>, kept: &[Kept<'_>]) {
    const CALLS: usize = 1_000_000;
    let registry = MetricsRegistry::new();
    let (_, took) = timed(|| {
        for i in 0..CALLS {
            registry.observe("bench.histogram", black_box(i as f64 * 1e-3));
        }
    });
    out.insert(
        "telemetry.observe_ns",
        took.as_secs_f64() * 1e9 / CALLS as f64,
    );
    let (_, took) = timed(|| {
        for _ in 0..CALLS {
            registry.incr("bench.counter", black_box(1));
        }
    });
    out.insert("telemetry.incr_ns", took.as_secs_f64() * 1e9 / CALLS as f64);
    // One tracer per 32 spans, about what one generation records.
    const SPANS_PER_TRACER: usize = 32;
    let (_, took) = timed(|| {
        for _ in 0..CALLS / SPANS_PER_TRACER {
            let tracer = Tracer::new("bench");
            for _ in 0..SPANS_PER_TRACER {
                tracer.span("bench.span").finish();
            }
            black_box(tracer.finish());
        }
    });
    let spans = (CALLS / SPANS_PER_TRACER * SPANS_PER_TRACER) as f64;
    out.insert("telemetry.span_ns", took.as_secs_f64() * 1e9 / spans);

    let span_counts: Vec<f64> = kept
        .iter()
        .map(|k| k.result.trace.all_spans().len() as f64)
        .collect();
    out.insert("telemetry.spans_per_request", stats::mean(&span_counts));
    let clone_us: Vec<f64> = kept
        .iter()
        .map(|k| {
            let (copy, took) = timed(|| k.result.trace.clone());
            black_box(copy);
            us(took)
        })
        .collect();
    out.insert("telemetry.trace_clone_us_p50", p50(&clone_us));
}

/// Flatten one span tree the program returned into benchmark spans,
/// shifted to start at `origin_us` and hung under `parent`.
fn program_spans(
    span: &genedit_telemetry::Span,
    request: u64,
    parent: u64,
    origin_us: f64,
    next_id: &mut u64,
    out: &mut Vec<Span>,
) {
    let id = *next_id;
    *next_id += 1;
    let start_us = origin_us + us(span.start);
    out.push(Span {
        request,
        id,
        parent,
        name: span.name.clone(),
        start_us,
        end_us: start_us + us(span.duration),
    });
    for child in &span.children {
        program_spans(child, request, id, origin_us, next_id, out);
    }
}

/// The span tree of every traced request:
///
/// ```text
/// request                      submit call → Ticket::wait returns
/// ├─ serve.admission           the submit call
/// ├─ serve.queue_wait          Completed.queue_wait
/// ├─ serve.service             Completed.service
/// │  ├─ pipeline.generate …    GenerationResult.trace (program_trace)
/// │  └─ llm.<kind>             SpanModel calls matched to the request
/// ├─ generator.harvest_delay   result ready → generator starts waiting
/// └─ serve.wake                generator waiting, result ready → wait returns
/// ```
fn build_spans(traced: &[(&Read, &Traced)], calls: &[ModelCall]) -> Vec<Span> {
    let mut spans = Vec::new();
    let mut next_id = 1u64;
    // (service start, service end, service span id, request id, question
    // hashes a model call for this request may carry)
    let mut services: Vec<(f64, f64, u64, u64, [u64; 2])> = Vec::new();
    for (n, (_, t)) in traced.iter().take(TRACE_FILE_REQUESTS).enumerate() {
        let request = n as u64 + 1;
        let mut push = |parent: u64, name: &str, start_us: f64, end_us: f64| -> u64 {
            let id = next_id;
            next_id += 1;
            spans.push(Span {
                request,
                id,
                parent,
                name: name.to_string(),
                start_us,
                end_us: end_us.max(start_us),
            });
            id
        };
        let root = push(0, "request", t.submit_start_us, t.done_us);
        let admitted = t.submit_start_us + t.admission_us;
        push(root, "serve.admission", t.submit_start_us, admitted);
        let service_start = admitted + t.queue_wait_us;
        let service_end = (service_start + t.service_us).min(t.done_us);
        push(root, "serve.queue_wait", admitted, service_start);
        let service = push(root, "serve.service", service_start, service_end);
        let collected = (service_end + t.harvest_delay_us).min(t.done_us);
        if t.harvest_delay_us > 0.0 {
            push(root, "generator.harvest_delay", service_end, collected);
        }
        push(root, "serve.wake", collected, t.done_us);
        if let Some(result) = &t.result {
            for tree in &result.trace.spans {
                program_spans(
                    tree,
                    request,
                    service,
                    service_start,
                    &mut next_id,
                    &mut spans,
                );
            }
            services.push((
                service_start,
                service_end,
                service,
                request,
                [
                    read_question_hash(result, true),
                    read_question_hash(result, false),
                ],
            ));
        }
    }
    // Model calls carry no request id. A call belongs to the request that
    // was in service when it ran and whose question it carries; with two
    // workers at most two requests are candidates.
    services.sort_by(|a, b| a.0.total_cmp(&b.0));
    for call in calls {
        let middle = (call.start_us + call.end_us) / 2.0;
        let upto = services.partition_point(|s| s.0 <= middle);
        let owner = services[..upto]
            .iter()
            .rev()
            .take(2 * crate::workloads::WINDOW)
            .find(|s| middle <= s.1 && s.4.contains(&call.question_hash));
        let Some(&(_, _, service, request, _)) = owner else {
            continue;
        };
        spans.push(Span {
            request,
            id: next_id,
            parent: service,
            name: format!("llm.{}", call.kind),
            start_us: call.start_us,
            end_us: call.end_us,
        });
        next_id += 1;
    }
    spans
}

/// Hash of the question text a model prompt for this result carries:
/// the original question (reformulation prompt) or its canonical form
/// (every later prompt).
fn read_question_hash(result: &GenerationResult, original: bool) -> u64 {
    let text = if original {
        result
            .final_prompt
            .original_question
            .as_deref()
            .unwrap_or(&result.reformulated)
    } else {
        &result.reformulated
    };
    stats::Fnv::of(text.as_bytes())
}
