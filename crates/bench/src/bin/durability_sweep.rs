//! **Durability sweep**: the durable knowledge store under crash points
//! and storage-fault schedules.
//!
//! Three parts:
//!
//! 1. *Crash-point sweep* — replay a deterministic knowledge workload
//!    (standalone edits, checkpoints, staged merges, compactions) and
//!    crash it at N evenly spaced fs-operation counts. After each crash
//!    the recovered store must be content-equal to the state after the
//!    last **acknowledged** operation — under `FsyncPolicy::Always`,
//!    acked ⇔ durable, exactly — and a second open must find nothing
//!    left to repair.
//! 2. *Corruption sweep* — the same workload under uniform rates of
//!    short writes, torn writes, bit flips, failed fsyncs and renames.
//!    Acknowledged data may legitimately be lost (a torn write acks
//!    bytes that never hit the platter), so divergence is *reported*,
//!    but recovery must never fail, the recovered state must equal the
//!    replay of its own audit log, and re-opening must be idempotent.
//! 3. *Zero-overhead check* — a journaled store with fsync off must
//!    produce a byte-identical `to_json` snapshot to a plain in-memory
//!    `KnowledgeSet` driven through the same operations, and reloading
//!    it must show zero recovery events.
//! 4. *Page-flush crash sweep* — the disk-backed tenant store
//!    (`TenantKnowledgeStore`) crashed at evenly spaced fs-operation
//!    counts, which lands crashes inside the WAL append, the shadow
//!    page writes, and the meta-page publish. A fresh store over the
//!    healed filesystem (new buffer pool — a process restart) must
//!    serve either the acked prefix or the acked prefix plus the
//!    fully-durable in-flight batch: never a torn batch, never an
//!    error, and a second restart must serve identical content.
//!
//! Run: `cargo run --release -p genedit-bench --bin durability_sweep`
//! (`--points N` = crash points, `--smoke` = fewer corruption runs for
//! CI, `--json` prints the document; the JSON is always written to
//! `BENCH_durability.json`.)

use genedit_bench::{object, Args, Report};
use genedit_bird::{DomainBundle, SPORTS};
use genedit_knowledge::tenants::{TenantKnowledgeStore, TenantStoreConfig};
use genedit_knowledge::{
    DurableKnowledgeStore, Edit, FaultyFs, FsyncPolicy, IoFaultConfig, KnowledgeSet, MemFs,
    RecoveryOutcome, StagingArea, StoreConfig, StoreError, StoreFs,
};
use serde::Serialize;
use std::sync::Arc;
use std::time::Instant;

/// One operation of the replayed workload.
#[derive(Debug, Clone)]
enum Op {
    Apply(Edit),
    Checkpoint(String),
    Merge(Vec<Edit>),
    Compact,
}

/// Build the deterministic workload: the pre-processing edit log of the
/// sports domain, interleaved with periodic checkpoints, staged merges,
/// and compactions — every durable-store entry point.
fn build_ops(seed: u64) -> Vec<Op> {
    let bundle = DomainBundle::build(&SPORTS, (4, 2, 1), seed);
    let edits: Vec<Edit> = bundle
        .build_knowledge()
        .log()
        .iter()
        .map(|l| l.edit.clone())
        .collect();
    let mut ops = Vec::new();
    let mut batch: Vec<Edit> = Vec::new();
    for (i, edit) in edits.into_iter().enumerate() {
        if i % 9 >= 6 {
            batch.push(edit);
            if batch.len() == 3 {
                ops.push(Op::Merge(std::mem::take(&mut batch)));
            }
        } else {
            ops.push(Op::Apply(edit));
        }
        if i % 11 == 10 {
            ops.push(Op::Checkpoint(format!("cp{i}")));
        }
        if i % 17 == 16 {
            ops.push(Op::Compact);
        }
    }
    if !batch.is_empty() {
        ops.push(Op::Merge(batch));
    }
    ops
}

fn run_store_op(store: &mut DurableKnowledgeStore, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::Apply(edit) => store.apply(edit.clone()).map(|_| ()),
        Op::Checkpoint(label) => store.checkpoint(label).map(|_| ()),
        Op::Merge(edits) => {
            let mut area = StagingArea::new();
            for e in edits {
                area.stage(e.clone());
            }
            store.commit(area, "merge").map(|_| ())
        }
        Op::Compact => store.compact(),
    }
}

fn run_plain_op(set: &mut KnowledgeSet, op: &Op) {
    match op {
        Op::Apply(edit) => {
            set.apply(edit.clone()).expect("workload edits are valid");
        }
        Op::Checkpoint(label) => {
            set.checkpoint(label.clone());
        }
        Op::Merge(edits) => {
            let mut area = StagingArea::new();
            for e in edits {
                area.stage(e.clone());
            }
            area.commit(set, "merge")
                .expect("workload merges are valid");
        }
        Op::Compact => {} // no durable layer, nothing to fold
    }
}

fn open(fs: Arc<dyn StoreFs>, fsync: FsyncPolicy) -> Result<DurableKnowledgeStore, StoreError> {
    DurableKnowledgeStore::open_with(
        fs,
        "k.json",
        "k.wal",
        StoreConfig {
            fsync,
            ..StoreConfig::default()
        },
        None,
    )
}

/// Count the fs operations a fault-free run of the workload performs —
/// the sweep places its crash points inside `1..=total`.
fn calibrate(ops: &[Op], seed: u64) -> u64 {
    let mem: Arc<dyn StoreFs> = Arc::new(MemFs::new());
    let faulty = Arc::new(FaultyFs::new(mem, IoFaultConfig::default(), seed));
    let mut store =
        open(Arc::clone(&faulty) as Arc<dyn StoreFs>, FsyncPolicy::Always).expect("no faults");
    for op in ops {
        run_store_op(&mut store, op).expect("no faults");
    }
    faulty.log().ops
}

#[derive(Serialize)]
struct CrashRow {
    crash_op: u64,
    acked_log: usize,
    /// `RecoveryOutcome`'s debug rendering.
    outcome: String,
    bytes_truncated: u64,
    ok: bool,
}

/// One crash point: run until the simulated crash, power-cycle the
/// filesystem, recover on clean hardware, verify the acked prefix.
fn run_crash_point(ops: &[Op], seed: u64, crash_op: u64, violations: &mut Vec<String>) -> CrashRow {
    let mem = Arc::new(MemFs::new());
    let faulty: Arc<dyn StoreFs> = Arc::new(FaultyFs::new(
        Arc::clone(&mem) as Arc<dyn StoreFs>,
        IoFaultConfig::crash_at(crash_op),
        seed,
    ));
    let mut acked = KnowledgeSet::new();
    if let Ok(mut store) = open(faulty, FsyncPolicy::Always) {
        acked = store.set().clone();
        for op in ops {
            match run_store_op(&mut store, op) {
                Ok(()) => acked = store.set().clone(),
                Err(_) => break, // the crash refuses every later op too
            }
        }
    }
    mem.crash();

    let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
    let mut ok = true;
    let (outcome, bytes_truncated) = match open(Arc::clone(&fs), FsyncPolicy::Always) {
        Ok(recovered) => {
            let report = recovered.recovery_report().clone();
            if !recovered.set().content_eq(&acked)
                || recovered.set().log().len() != acked.log().len()
                || recovered.set().checkpoints().len() != acked.checkpoints().len()
            {
                ok = false;
                violations.push(format!(
                    "crash@{crash_op}: recovered {:?} != acked {:?}",
                    recovered.set().stats(),
                    acked.stats()
                ));
            }
            drop(recovered);
            match open(fs, FsyncPolicy::Always) {
                Ok(again) => {
                    if again.recovery_report().repaired() || !again.set().content_eq(&acked) {
                        ok = false;
                        violations.push(format!(
                            "crash@{crash_op}: second open not idempotent ({:?})",
                            again.recovery_report().outcome
                        ));
                    }
                }
                Err(e) => {
                    ok = false;
                    violations.push(format!("crash@{crash_op}: second open failed: {e}"));
                }
            }
            (report.outcome, report.bytes_truncated)
        }
        Err(e) => {
            ok = false;
            violations.push(format!("crash@{crash_op}: recovery failed: {e}"));
            (RecoveryOutcome::FreshStart, 0)
        }
    };
    CrashRow {
        crash_op,
        acked_log: acked.log().len(),
        outcome: format!("{outcome:?}"),
        bytes_truncated,
        ok,
    }
}

#[derive(Serialize)]
struct CorruptionRow {
    rate: f64,
    runs: usize,
    injected_faults: u64,
    op_errors: u64,
    quarantined: u64,
    bytes_truncated: u64,
    acked_divergence: usize,
    ok: bool,
}

/// One corruption rate: several seeded runs, each crash-recovered and
/// checked for self-consistency and idempotent reopen.
fn run_corruption_rate(
    ops: &[Op],
    seed: u64,
    rate: f64,
    runs: usize,
    violations: &mut Vec<String>,
) -> CorruptionRow {
    let mut row = CorruptionRow {
        rate,
        runs,
        injected_faults: 0,
        op_errors: 0,
        quarantined: 0,
        bytes_truncated: 0,
        acked_divergence: 0,
        ok: true,
    };
    for run in 0..runs {
        let run_seed = seed.wrapping_mul(1_000).wrapping_add(run as u64);
        let mem = Arc::new(MemFs::new());
        let faulty = Arc::new(FaultyFs::new(
            Arc::clone(&mem) as Arc<dyn StoreFs>,
            IoFaultConfig::uniform(rate),
            run_seed,
        ));
        let mut acked = KnowledgeSet::new();
        if let Ok(mut store) = open(Arc::clone(&faulty) as Arc<dyn StoreFs>, FsyncPolicy::Always) {
            acked = store.set().clone();
            for op in ops {
                // Faults are transient: keep driving the workload.
                match run_store_op(&mut store, op) {
                    Ok(()) => acked = store.set().clone(),
                    Err(_) => row.op_errors += 1,
                }
            }
        }
        row.injected_faults += faulty.log().total();
        mem.crash();

        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        match open(Arc::clone(&fs), FsyncPolicy::Always) {
            Ok(recovered) => {
                let report = recovered.recovery_report();
                row.quarantined += report.quarantined.len() as u64;
                row.bytes_truncated += report.bytes_truncated;
                let replay =
                    KnowledgeSet::from_log(recovered.set().log().iter().map(|l| l.edit.clone()));
                match replay {
                    Ok(replayed) if replayed.content_eq(recovered.set()) => {}
                    _ => {
                        row.ok = false;
                        violations.push(format!(
                            "rate {rate} seed {run_seed}: recovered state is not \
                             the replay of its own audit log"
                        ));
                    }
                }
                if !recovered.set().content_eq(&acked) {
                    row.acked_divergence += 1; // reported, not a violation
                }
                let first = recovered.set().clone();
                drop(recovered);
                match open(fs, FsyncPolicy::Always) {
                    Ok(again) => {
                        if again.recovery_report().repaired() || !again.set().content_eq(&first) {
                            row.ok = false;
                            violations.push(format!(
                                "rate {rate} seed {run_seed}: reopen not idempotent"
                            ));
                        }
                    }
                    Err(e) => {
                        row.ok = false;
                        violations.push(format!("rate {rate} seed {run_seed}: reopen failed: {e}"));
                    }
                }
            }
            Err(e) => {
                row.ok = false;
                violations.push(format!("rate {rate} seed {run_seed}: recovery failed: {e}"));
            }
        }
    }
    row
}

#[derive(Serialize)]
struct ZeroOverhead {
    byte_identical: bool,
    reopen_clean: bool,
    store_ms: f64,
    plain_ms: f64,
}

/// Fsync-off journaled store vs plain in-memory apply over the identical
/// operation sequence: same bytes out, nothing for recovery to do.
fn run_zero_overhead(ops: &[Op], violations: &mut Vec<String>) -> ZeroOverhead {
    let mem = Arc::new(MemFs::new());
    let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
    let started = Instant::now();
    let mut store = open(Arc::clone(&fs), FsyncPolicy::Never).expect("open");
    for op in ops {
        run_store_op(&mut store, op).expect("fault-free run");
    }
    let store_ms = started.elapsed().as_secs_f64() * 1e3;

    let started = Instant::now();
    let mut plain = KnowledgeSet::new();
    for op in ops {
        run_plain_op(&mut plain, op);
    }
    let plain_ms = started.elapsed().as_secs_f64() * 1e3;

    let store_json = genedit_knowledge::to_json(store.set()).expect("serialize");
    let plain_json = genedit_knowledge::to_json(&plain).expect("serialize");
    let byte_identical = store_json == plain_json;
    if !byte_identical {
        violations
            .push("zero-overhead: journaled store diverged from plain in-memory apply".to_string());
    }
    drop(store);

    let reopened = open(fs, FsyncPolicy::Never).expect("reload");
    let report = reopened.recovery_report();
    let reopen_clean = report.outcome == RecoveryOutcome::Clean
        && report.bytes_truncated == 0
        && report.quarantined.is_empty()
        && reopened.set().content_eq(&plain);
    if !reopen_clean {
        violations.push(format!(
            "zero-overhead: fault-free reload saw recovery events: {report:?}"
        ));
    }
    ZeroOverhead {
        byte_identical,
        reopen_clean,
        store_ms,
        plain_ms,
    }
}

/// The deterministic tenant-store workload for part 4: batches of edits
/// committed through the paging layer (WAL append + page flush each).
fn tenant_batches(seed: u64) -> Vec<Vec<Edit>> {
    let bundle = DomainBundle::build(&SPORTS, (4, 2, 1), seed);
    let edits: Vec<Edit> = bundle
        .build_knowledge()
        .log()
        .iter()
        .map(|l| l.edit.clone())
        .collect();
    edits.chunks(3).map(|c| c.to_vec()).collect()
}

fn tenant_store_over(fs: Arc<dyn StoreFs>) -> Arc<TenantKnowledgeStore> {
    Arc::new(TenantKnowledgeStore::new_with(
        fs,
        "/kb",
        TenantStoreConfig {
            page_size: 1024,
            pool_budget_bytes: 16 * 1024,
            shards: 4,
            store: StoreConfig::default(),
        },
        None,
    ))
}

/// Count the fs operations a fault-free tenant-store run performs.
fn calibrate_tenant(batches: &[Vec<Edit>], seed: u64) -> u64 {
    let mem: Arc<dyn StoreFs> = Arc::new(MemFs::new());
    let faulty = Arc::new(FaultyFs::new(mem, IoFaultConfig::default(), seed));
    let store = tenant_store_over(Arc::clone(&faulty) as Arc<dyn StoreFs>);
    for batch in batches {
        let mut area = StagingArea::new();
        for e in batch {
            area.stage(e.clone());
        }
        store.commit("t0", area, "step").expect("no faults");
    }
    faulty.log().ops
}

#[derive(Serialize)]
struct PageFlushRow {
    crash_op: u64,
    acked_batches: usize,
    recovered: &'static str,
    ok: bool,
}

/// One page-flush crash point: commit batches through the tenant store
/// until the seeded crash, power-cycle, restart with a cold buffer pool,
/// and verify the recovered content is an un-torn WAL prefix.
fn run_page_flush_crash(
    batches: &[Vec<Edit>],
    seed: u64,
    crash_op: u64,
    violations: &mut Vec<String>,
) -> PageFlushRow {
    let mem = Arc::new(MemFs::new());
    let faulty: Arc<dyn StoreFs> = Arc::new(FaultyFs::new(
        Arc::clone(&mem) as Arc<dyn StoreFs>,
        IoFaultConfig::crash_at(crash_op),
        seed,
    ));
    let store = tenant_store_over(faulty);

    let mut acked = KnowledgeSet::new();
    let mut acked_batches = 0usize;
    let mut pending: Option<KnowledgeSet> = None;
    for batch in batches {
        let mut next = acked.clone();
        let mut area = StagingArea::new();
        for e in batch {
            next.apply(e.clone()).expect("workload edits are valid");
            area.stage(e.clone());
        }
        match store.commit("t0", area, "step") {
            Ok(_) => {
                acked = next;
                acked_batches += 1;
            }
            Err(_) => {
                pending = Some(next);
                break;
            }
        }
    }
    drop(store);
    mem.crash();

    let mut ok = true;
    let mut recovered_kind = "acked";
    let reopened = tenant_store_over(Arc::clone(&mem) as Arc<dyn StoreFs>);
    if !reopened.tenant_exists("t0") {
        if !acked.log().is_empty() {
            ok = false;
            violations.push(format!(
                "page-flush crash@{crash_op}: acked tenant vanished after restart"
            ));
        }
        return PageFlushRow {
            crash_op,
            acked_batches,
            recovered: "none",
            ok,
        };
    }
    match reopened
        .snapshot("t0")
        .and_then(|snap| snap.knowledge_set())
    {
        Ok(ks) => {
            let matches_acked = ks.content_eq(&acked);
            let matches_pending = pending.as_ref().is_some_and(|p| ks.content_eq(p));
            if matches_pending && !matches_acked {
                recovered_kind = "acked+inflight";
            }
            if !matches_acked && !matches_pending {
                ok = false;
                violations.push(format!(
                    "page-flush crash@{crash_op}: recovered state is neither the \
                     acked prefix nor the acked prefix plus the in-flight batch"
                ));
            }
            // Second restart: identical content, nothing left to repair.
            let again = tenant_store_over(Arc::clone(&mem) as Arc<dyn StoreFs>);
            match again.snapshot("t0").and_then(|s| s.knowledge_set()) {
                Ok(ks2) if ks2.content_eq(&ks) => {}
                Ok(_) => {
                    ok = false;
                    violations.push(format!(
                        "page-flush crash@{crash_op}: restart not idempotent"
                    ));
                }
                Err(e) => {
                    ok = false;
                    violations.push(format!(
                        "page-flush crash@{crash_op}: second restart failed: {e}"
                    ));
                }
            }
        }
        Err(e) => {
            ok = false;
            violations.push(format!("page-flush crash@{crash_op}: recovery failed: {e}"));
        }
    }
    PageFlushRow {
        crash_op,
        acked_batches,
        recovered: recovered_kind,
        ok,
    }
}

fn main() {
    let args = Args::parse(&["--smoke", "--points N"]);
    let mut report = Report::new(&args);

    let ops = build_ops(args.seed);
    let total_ops = calibrate(&ops, args.seed);

    // Part 1: crash points evenly spaced across the workload's fs ops.
    let points = args.value("--points").unwrap_or(40).max(1);
    let mut crash_rows = Vec::new();
    for k in 1..=points {
        let crash_op = ((k * total_ops) / (points + 1)).max(1);
        crash_rows.push(run_crash_point(
            &ops,
            args.seed,
            crash_op,
            &mut report.violations,
        ));
    }

    // Part 2: corruption rates; smoke keeps CI fast.
    let runs_per_rate = if args.smoke { 2 } else { 5 };
    let rates = [0.02, 0.05, 0.10, 0.20];
    let corruption_rows: Vec<CorruptionRow> = rates
        .iter()
        .map(|&rate| {
            run_corruption_rate(&ops, args.seed, rate, runs_per_rate, &mut report.violations)
        })
        .collect();

    // Part 3: zero overhead without faults.
    let zero = run_zero_overhead(&ops, &mut report.violations);

    // Part 4: crash mid-page-flush in the disk-backed tenant store.
    let batches = tenant_batches(args.seed);
    let tenant_ops = calibrate_tenant(&batches, args.seed);
    let flush_points = if args.smoke { points.min(12) } else { points };
    let mut page_flush_rows = Vec::new();
    for k in 1..=flush_points {
        let crash_op = ((k * tenant_ops) / (flush_points + 1)).max(1);
        page_flush_rows.push(run_page_flush_crash(
            &batches,
            args.seed,
            crash_op,
            &mut report.violations,
        ));
    }

    if !args.json {
        println!(
            "Durability sweep — crash/corruption recovery of the knowledge store \
             (seed {}, {} workload ops, {} fs ops)",
            args.seed,
            ops.len(),
            total_ops
        );
        let passed = crash_rows.iter().filter(|r| r.ok).count();
        println!(
            "\ncrash-point sweep: {passed}/{} points recovered exactly the acked prefix",
            crash_rows.len()
        );
        let mut outcome_counts: Vec<(&str, usize)> = Vec::new();
        for row in &crash_rows {
            match outcome_counts.iter_mut().find(|(k, _)| *k == row.outcome) {
                Some((_, n)) => *n += 1,
                None => outcome_counts.push((&row.outcome, 1)),
            }
        }
        for (outcome, n) in &outcome_counts {
            println!("  {outcome:<14} ×{n}");
        }
        println!(
            "\n{:>6} {:>5} {:>9} {:>9} {:>11} {:>11} {:>6}",
            "rate", "runs", "injected", "op errs", "quarantined", "trunc bytes", "diverged"
        );
        for row in &corruption_rows {
            println!(
                "{:>5.0}% {:>5} {:>9} {:>9} {:>11} {:>11} {:>8}",
                row.rate * 100.0,
                row.runs,
                row.injected_faults,
                row.op_errors,
                row.quarantined,
                row.bytes_truncated,
                row.acked_divergence
            );
        }
        println!(
            "\nzero-overhead check: {} (byte-identical {}, clean reload {}, \
             store {:.1} ms vs plain {:.1} ms)",
            if zero.byte_identical && zero.reopen_clean {
                "PASS"
            } else {
                "FAIL"
            },
            zero.byte_identical,
            zero.reopen_clean,
            zero.store_ms,
            zero.plain_ms
        );
        let flush_passed = page_flush_rows.iter().filter(|r| r.ok).count();
        let inflight = page_flush_rows
            .iter()
            .filter(|r| r.recovered == "acked+inflight")
            .count();
        println!(
            "\npage-flush crash sweep: {flush_passed}/{} points recovered an un-torn \
             WAL prefix ({inflight} kept a fully-durable in-flight batch)",
            page_flush_rows.len()
        );
    }
    let doc = object! {
        "artifact": "durability_sweep",
        "seed": args.seed,
        "mode": args.mode(),
        "workload_ops": ops.len(),
        "fs_ops": total_ops,
        "crash_points": points,
        "crash_rows": crash_rows,
        "corruption_rows": corruption_rows,
        "zero_overhead": zero,
        "page_flush_rows": page_flush_rows,
        "violations": report.violations,
    };
    report.finish("BENCH_durability.json", &doc)
}
