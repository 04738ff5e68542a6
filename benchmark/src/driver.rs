//! The load generator: one thread, a closed loop with [`WINDOW`]
//! in-flight tickets, and — on `edit_churn` — the improvement steps it
//! runs between reads.
//!
//! Callers of a Text-to-SQL service are people and BI tools that wait
//! for their answer, so the loop is closed: a slow system receives less
//! load. Timing is cut into *blocks*; every block replays the same mix
//! (each domain for an equal share of it), and the report takes the
//! median over blocks, so one descheduled second cannot move a metric.

use crate::procfs;
use crate::spans::SpanModel;
use crate::stats::Fnv;
use crate::workloads::{Churn, Op, World, WINDOW};
use genedit_core::{run_regression, sme, FeedbackSession, GenEditPipeline, GenerationResult};
use genedit_knowledge::StagingArea;
use genedit_llm::OracleModel;
use genedit_serve::{QueryOutcome, QueryRequest, ServeRuntime, Ticket};
use genedit_telemetry::names;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Traced runs keep at most this many full generation results for the
/// per-layer replays; the rest keep only their timings.
const KEPT_RESULTS: usize = 2_000;

/// How a read ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ending {
    /// Completed with this SQL (FNV-1a of the text; 0 for no SQL).
    Completed {
        sql_hash: u64,
        cached: bool,
    },
    Rejected,
    Shed,
    Expired,
    Cancelled,
    Failed,
}

/// What a traced run keeps about a read beyond its latency.
pub struct Traced {
    /// Offsets from the run's span origin, microseconds.
    pub submit_start_us: f64,
    pub admission_us: f64,
    pub done_us: f64,
    pub queue_wait_us: f64,
    pub service_us: f64,
    /// How long the finished result sat before the generator, busy with
    /// older tickets or an improvement step, came to collect it.
    pub harvest_delay_us: f64,
    /// The full result, for the first [`KEPT_RESULTS`] uncached reads.
    pub result: Option<Box<GenerationResult>>,
}

/// One read as the generator saw it.
pub struct Read {
    pub domain: usize,
    pub tenant: u16,
    pub question: u16,
    pub block: usize,
    pub latency_ms: f64,
    pub ending: Ending,
    /// Commits acked for the tenant when the read was submitted and when
    /// it returned; they differ only for a read in flight across a commit
    /// for its own tenant, which may be answered from either side.
    pub version_at_submit: usize,
    pub version_at_return: usize,
    /// First read for its tenant submitted after a commit ack.
    pub post_edit: bool,
    pub traced: Option<Box<Traced>>,
}

/// One improvement step, timed stage by stage (milliseconds).
#[derive(Debug, Clone, Default)]
pub struct Step {
    pub committed: bool,
    /// Snapshot open → regression verdict: the SME-facing wait.
    pub session_ms: f64,
    /// `TenantKnowledgeStore::commit` call → ack.
    pub commit_ms: f64,
    pub snapshot_open_ms: f64,
    pub content_read_ms: f64,
    pub feedback_ms: f64,
    pub regenerate_ms: f64,
    pub regression_ms: f64,
    pub golden: usize,
    pub edit_bytes: u64,
    pub wal_bytes: u64,
    pub page_bytes: u64,
}

/// Wall and CPU time the generator spent inside one block.
#[derive(Debug, Clone, Copy, Default)]
pub struct Block {
    pub wall_s: f64,
    pub cpu_s: f64,
    /// Machine CPU ticks the hypervisor withheld during the block, and
    /// all machine ticks over the same interval.
    pub stolen_ticks: u64,
    pub machine_ticks: u64,
}

impl Block {
    /// Share of the machine's CPU time stolen by the hypervisor.
    pub fn steal_share(&self) -> f64 {
        self.stolen_ticks as f64 / self.machine_ticks.max(1) as f64
    }
}

struct Pending {
    ticket: Ticket,
    submitted: Instant,
    admission: Duration,
    domain: usize,
    tenant: u16,
    question: u16,
    version_at_submit: usize,
    post_edit: bool,
}

/// Generator state across the slices of one pass.
pub struct Driver<'w> {
    world: &'w World,
    pub model: Arc<SpanModel>,
    traced: bool,
    origin: Instant,
    /// Next position in each domain's (cyclic) stream.
    cursor: Vec<usize>,
    pub reads: Vec<Read>,
    pub steps: Vec<Step>,
    pub blocks: Vec<Block>,
    /// The edit batches committed per tenant, oldest first
    /// (`edit_churn`): version `v` of a tenant's knowledge is the base
    /// set with its first `v` batches applied.
    pub versions: Vec<Vec<StagingArea>>,
    /// Next improvement candidate per tenant.
    candidate_cursor: Vec<usize>,
    /// Tenant whose next read is the first after its commit ack.
    awaiting_post_edit: Option<u16>,
    pub pool_resident_max: usize,
    /// Counters the program published during the timed slices (warm-up
    /// excluded), summed over every runtime the pass started.
    pub counters: BTreeMap<String, u64>,
    kept_results: usize,
    /// The SME-side pipeline of improvement steps: the bare oracle.
    pipeline: GenEditPipeline<Arc<OracleModel>>,
    /// Run-queue delay of the generator thread inside timed slices.
    pub lateness_ns: u64,
}

impl<'w> Driver<'w> {
    /// A driver over `world`; `traced` turns on span capture.
    pub fn new(world: &'w World, traced: bool) -> Driver<'w> {
        let origin = Instant::now();
        Driver {
            world,
            model: Arc::new(SpanModel::new(Arc::clone(&world.oracle), origin, traced)),
            traced,
            origin,
            cursor: vec![0; world.domains.len()],
            // Reserved up front (untouched pages cost no memory) so the
            // record of a fast run never doubles-and-copies mid-pass and
            // `peak_rss_mb` stays the program's, not the bookkeeping's.
            reads: Vec::with_capacity(1 << 20),
            steps: Vec::new(),
            blocks: Vec::new(),
            versions: vec![Vec::new(); world.tenants.len()],
            candidate_cursor: vec![0; world.tenants.len()],
            awaiting_post_edit: None,
            pool_resident_max: 0,
            counters: BTreeMap::new(),
            kept_results: 0,
            pipeline: GenEditPipeline::new(Arc::clone(&world.oracle)),
            lateness_ns: 0,
        }
    }

    fn since_origin_us(&self, at: Instant) -> f64 {
        at.duration_since(self.origin).as_secs_f64() * 1e6
    }

    /// Serve the warm-up operations of `domain`, untimed and unrecorded.
    pub fn warm_up(&mut self, runtime: &ServeRuntime<Arc<SpanModel>>, domain: usize) {
        let world = self.world;
        let ops = world.warm_up_ops(&world.domains[domain]);
        let mut inflight: VecDeque<Ticket> = VecDeque::new();
        for op in ops {
            let Op::Read { tenant, question } = op else {
                continue;
            };
            if inflight.len() == WINDOW {
                inflight.pop_front().expect("window is full").wait();
            }
            let request = QueryRequest::new(
                world.tenants[tenant as usize].as_str(),
                world.domains[domain].tasks[question as usize]
                    .question
                    .as_str(),
            );
            inflight.push_back(runtime.submit(request).expect("warm-up read admitted"));
        }
        for ticket in inflight {
            ticket.wait();
        }
        // Warm-up model calls are not part of any traced request.
        self.model.take_calls();
    }

    /// Add what `registry` counted since `baseline` to the pass's counters.
    pub fn absorb_counters(
        &mut self,
        registry: &genedit_telemetry::MetricsRegistry,
        baseline: &BTreeMap<String, u64>,
    ) {
        for (name, value) in registry.counter_values() {
            let before = baseline.get(&name).copied().unwrap_or(0);
            *self.counters.entry(name).or_insert(0) += value.saturating_sub(before);
        }
    }

    /// Replay `domain`'s stream for `duration` as part of `block`.
    pub fn run_slice(
        &mut self,
        runtime: &ServeRuntime<Arc<SpanModel>>,
        domain: usize,
        duration: Duration,
        block: usize,
    ) {
        let world = self.world;
        let ops = &world.domains[domain].ops;
        if self.blocks.len() <= block {
            self.blocks.resize(block + 1, Block::default());
        }
        let cpu_start = procfs::process_cpu_seconds();
        let (stolen_start, machine_start) = procfs::machine_steal_ticks();
        let wait_start = procfs::thread_runqueue_wait_ns();
        let started = Instant::now();
        let deadline = started + duration;
        let mut inflight: VecDeque<Pending> = VecDeque::with_capacity(WINDOW);
        loop {
            while inflight.len() < WINDOW && Instant::now() < deadline {
                let op = ops[self.cursor[domain] % ops.len()];
                self.cursor[domain] += 1;
                match op {
                    Op::Improve { tenant } => self.improve(domain, tenant),
                    Op::Read { tenant, question } => {
                        let post_edit = self.awaiting_post_edit == Some(tenant);
                        if post_edit {
                            self.awaiting_post_edit = None;
                        }
                        let request = QueryRequest::new(
                            world.tenants[tenant as usize].as_str(),
                            world.domains[domain].tasks[question as usize]
                                .question
                                .as_str(),
                        );
                        let submitted = Instant::now();
                        let outcome = runtime.submit(request);
                        let admission = submitted.elapsed();
                        let version_at_submit = self.versions[tenant as usize].len();
                        match outcome {
                            Ok(ticket) => inflight.push_back(Pending {
                                ticket,
                                submitted,
                                admission,
                                domain,
                                tenant,
                                question,
                                version_at_submit,
                                post_edit,
                            }),
                            Err(_) => self.reads.push(Read {
                                domain,
                                tenant,
                                question,
                                block,
                                latency_ms: admission.as_secs_f64() * 1e3,
                                ending: Ending::Rejected,
                                version_at_submit,
                                version_at_return: version_at_submit,
                                post_edit,
                                traced: None,
                            }),
                        }
                    }
                }
            }
            let Some(pending) = inflight.pop_front() else {
                break;
            };
            let wait_started = Instant::now();
            let outcome = pending.ticket.wait();
            let returned = Instant::now();
            self.record(pending, outcome, wait_started, returned, block);
        }
        let stats = &mut self.blocks[block];
        stats.wall_s += started.elapsed().as_secs_f64();
        stats.cpu_s += procfs::process_cpu_seconds() - cpu_start;
        let (stolen, machine) = procfs::machine_steal_ticks();
        stats.stolen_ticks += stolen.saturating_sub(stolen_start);
        stats.machine_ticks += machine.saturating_sub(machine_start);
        self.lateness_ns += procfs::thread_runqueue_wait_ns().saturating_sub(wait_start);
    }

    /// Latency is what a caller blocked on its own ticket would see. The
    /// one generator thread collects tickets in FIFO order, so a result
    /// can be ready long before the generator asks for it; that wait is
    /// the generator's, not the program's, and is left out. When the
    /// generator was already waiting, latency runs to `wait` returning
    /// and so includes the wake-up.
    fn record(
        &mut self,
        pending: Pending,
        outcome: QueryOutcome,
        wait_started: Instant,
        returned: Instant,
        block: usize,
    ) {
        let mut latency = returned.duration_since(pending.submitted);
        let mut traced = None;
        let ending = match outcome {
            QueryOutcome::Completed {
                result,
                cached,
                queue_wait,
                service,
                ..
            } => {
                let sql_hash = result.sql.as_deref().map_or(0, |s| Fnv::of(s.as_bytes()));
                // `enqueued_at` is taken inside `submit`, so the result was
                // ready at most `admission` later than this.
                let ready = pending.submitted + pending.admission + queue_wait + service;
                let harvest_delay = wait_started.saturating_duration_since(ready);
                if !harvest_delay.is_zero() {
                    latency = ready.duration_since(pending.submitted);
                }
                if self.traced {
                    let keep = !cached && self.kept_results < KEPT_RESULTS;
                    if keep {
                        self.kept_results += 1;
                    }
                    traced = Some(Box::new(Traced {
                        submit_start_us: self.since_origin_us(pending.submitted),
                        admission_us: pending.admission.as_secs_f64() * 1e6,
                        done_us: self.since_origin_us(returned),
                        queue_wait_us: queue_wait.as_secs_f64() * 1e6,
                        service_us: service.as_secs_f64() * 1e6,
                        harvest_delay_us: harvest_delay.as_secs_f64() * 1e6,
                        result: keep.then_some(result),
                    }));
                }
                Ending::Completed { sql_hash, cached }
            }
            QueryOutcome::Expired => Ending::Expired,
            QueryOutcome::Cancelled => Ending::Cancelled,
            QueryOutcome::Shed => Ending::Shed,
            QueryOutcome::Failed { .. } => Ending::Failed,
        };
        self.reads.push(Read {
            domain: pending.domain,
            tenant: pending.tenant,
            question: pending.question,
            block,
            latency_ms: latency.as_secs_f64() * 1e3,
            ending,
            version_at_submit: pending.version_at_submit,
            version_at_return: self.versions[pending.tenant as usize].len(),
            post_edit: pending.post_edit,
            traced,
        });
    }

    /// One improvement step for `tenant`: open a snapshot, run a feedback
    /// session on a question that currently fails, regression-test the
    /// staged edits against the golden queries and, if nothing regressed,
    /// commit them durably. Reads already submitted stay in flight.
    fn improve(&mut self, domain: usize, tenant: u16) {
        let world = self.world;
        let churn: &Churn = world
            .churn
            .as_ref()
            .expect("improve needs the tenant store");
        let domain = &world.domains[domain];
        let name = world.tenants[tenant as usize].as_str();
        let mut step = Step {
            golden: churn.golden.len(),
            ..Step::default()
        };
        self.pool_resident_max = self
            .pool_resident_max
            .max(churn.store.pool().stats().resident_bytes);

        let opened = Instant::now();
        let snapshot = churn.store.snapshot(name).expect("tenant was seeded");
        step.snapshot_open_ms = ms_since(opened);
        let read = Instant::now();
        let deployed = snapshot.knowledge_set().expect("tenant pages are readable");
        step.content_read_ms = ms_since(read);
        drop(snapshot);

        // Walk the tenant's candidates until the scripted SME has
        // something to say about one (earlier edits may have fixed some).
        let mut found = None;
        for _ in 0..churn.candidates.len() {
            let cursor = &mut self.candidate_cursor[tenant as usize];
            let task = &domain.tasks[churn.candidates[*cursor % churn.candidates.len()]];
            *cursor += 1;
            let session =
                FeedbackSession::open(&self.pipeline, &domain.db, &deployed, task.question.clone());
            if let Some(feedback) = sme::feedback_for(task, session.latest.sql.as_deref()) {
                found = Some((session, feedback));
                break;
            }
        }
        let Some((mut session, feedback)) = found else {
            self.steps.push(step);
            return;
        };
        let at = Instant::now();
        session.submit_feedback(&feedback);
        session.stage_all();
        step.feedback_ms = ms_since(at);
        let at = Instant::now();
        session.regenerate();
        step.regenerate_ms = ms_since(at);
        let staging = session.into_staged();
        let at = Instant::now();
        let verdict = run_regression(
            &self.pipeline,
            &domain.db,
            &deployed,
            &staging,
            &churn.golden,
        )
        .expect("staged edits apply to the deployed set");
        step.regression_ms = ms_since(at);
        step.session_ms = ms_since(opened);

        if verdict.passed() && !staging.is_empty() {
            let batch = staging.clone();
            step.edit_bytes = staging
                .staged()
                .iter()
                .map(|s| serde_json::to_string(&s.edit).map_or(0, |json| json.len() as u64))
                .sum();
            let wal = churn.root.join(name).join("knowledge.wal");
            let wal_before = file_len(&wal);
            let writes_before = churn.metrics.counter(names::PAGE_WRITES);
            let at = Instant::now();
            churn
                .store
                .commit(name, staging, "benchmark improvement step")
                .expect("commit on a healthy filesystem");
            step.commit_ms = ms_since(at);
            step.wal_bytes = file_len(&wal).saturating_sub(wal_before);
            step.page_bytes = (churn.metrics.counter(names::PAGE_WRITES) - writes_before)
                * churn.store.config().page_size as u64;
            step.committed = true;
            self.versions[tenant as usize].push(batch);
            self.awaiting_post_edit = Some(tenant);
        }
        self.steps.push(step);
    }
}

fn ms_since(at: Instant) -> f64 {
    at.elapsed().as_secs_f64() * 1e3
}

fn file_len(path: &std::path::Path) -> u64 {
    std::fs::metadata(path).map_or(0, |m| m.len())
}
