//! **Tenant sweep**: the disk-backed sharded tenant store under a
//! many-tenant working set that is far larger than the buffer pool.
//!
//! The sweep seeds thousands of synthetic tenants (each with its own
//! WAL, page file, and knowledge content) through the paging layer,
//! then restarts with a cold buffer pool and measures cold-tenant
//! page-ins. Three gates, all hard (any violation exits 1):
//!
//! 1. **Residency** — the pool's resident bytes never exceed its
//!    configured budget, no matter how many tenants page through it.
//! 2. **Cold page-in latency** — p99 of snapshot-open + full content
//!    read for a cold tenant stays under a floor (smoke: generous, for
//!    shared CI runners).
//! 3. **Byte-identical retrieval** — for sampled tenants, a retrieval
//!    index built from the paged-in snapshot (including the
//!    stored-vector fast path after write-back) returns bit-identical
//!    results to an index built from the tenant's WAL-recovered
//!    knowledge set held entirely in RAM.
//!
//! Run: `cargo run --release -p genedit-bench --bin tenant_sweep`
//! (`--tenants N` overrides the tenant count, `--smoke` = 300 tenants
//! for CI, `--json` prints the document; the JSON is always written to
//! `BENCH_tenant.json`.)

use genedit_bench::{object, Args, Report};
use genedit_core::KnowledgeIndex;
use genedit_knowledge::tenants::{TenantKnowledgeStore, TenantStoreConfig};
use genedit_knowledge::{
    DurableKnowledgeStore, Edit, FragmentKind, FsyncPolicy, SourceRef, SqlFragment, StagingArea,
    StoreConfig, StoreFs,
};
use genedit_telemetry::HistogramSummary;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Pool budget for the sweep: small enough that even the smoke run's
/// working set exceeds it many times over.
const POOL_BUDGET: usize = 256 * 1024;
const PAGE_SIZE: usize = 4096;

/// Cold page-in p99 floor, milliseconds. Local page files are a handful
/// of KiB; generous headroom for shared CI runners.
const P99_FLOOR_MS: f64 = 50.0;

fn edit(tenant: usize, i: usize) -> Edit {
    Edit::InsertExample {
        intent: None,
        description: format!("tenant {tenant} metric {i} revenue by region"),
        fragment: SqlFragment::new(
            FragmentKind::Where,
            format!("WHERE T{tenant} = {i}"),
            "main",
        ),
        term: Some(format!("KPI{tenant}_{i}")),
        source: SourceRef::Manual,
    }
}

fn tenant_name(i: usize) -> String {
    format!("tenant-{i:05}")
}

fn store_over(root: &Path, fsync: FsyncPolicy) -> Arc<TenantKnowledgeStore> {
    let config = TenantStoreConfig {
        page_size: PAGE_SIZE,
        pool_budget_bytes: POOL_BUDGET,
        shards: 16,
        store: StoreConfig {
            fsync,
            ..StoreConfig::default()
        },
    };
    Arc::new(TenantKnowledgeStore::open(root.to_path_buf(), config, None))
}

/// Fingerprint of a retrieval run: ids and exact score bits of the top
/// examples for a probe query. Byte-identical retrieval means equal
/// fingerprints.
fn retrieval_fingerprint(index: &KnowledgeIndex, query: &str) -> String {
    let q = index.embedder().embed(query);
    index
        .top_examples(&q, &[], 3)
        .iter()
        .map(|(e, score)| format!("{}:{:08x}", e.id, score.to_bits()))
        .collect::<Vec<_>>()
        .join(",")
}

fn main() {
    let args = Args::parse(&["--smoke", "--tenants N"]);
    let mut report = Report::new(&args);
    let mut tenants = args.value("--tenants").unwrap_or(10_000) as usize;
    if args.smoke {
        tenants = tenants.min(300);
    }

    let root = std::env::temp_dir().join(format!(
        "genedit_tenant_sweep_{}_{}",
        std::process::id(),
        args.seed
    ));
    let _ = std::fs::remove_dir_all(&root);

    // Phase 1: seed. Edits-per-tenant varies 2..=5 so page counts differ.
    let seed_store = store_over(&root, FsyncPolicy::Never);
    let seed_started = Instant::now();
    for t in 0..tenants {
        let edits = 2 + (t + args.seed as usize) % 4;
        let mut area = StagingArea::new();
        for i in 0..edits {
            area.stage(edit(t, i));
        }
        seed_store
            .commit(&tenant_name(t), area, "seed")
            .expect("seeding a healthy fs");
    }
    let seed_s = seed_started.elapsed().as_secs_f64();
    let max_resident_seed = seed_store.pool().stats().resident_bytes;
    drop(seed_store);

    // Phase 2: cold restart — fresh process image, empty buffer pool.
    let store = store_over(&root, FsyncPolicy::Always);
    let mut latencies_ms: Vec<f64> = Vec::with_capacity(tenants);
    let mut max_resident = 0usize;
    let read_started = Instant::now();
    for t in 0..tenants {
        let name = tenant_name(t);
        let started = Instant::now();
        let snap = store.snapshot(&name).expect("cold snapshot");
        let content = snap.content().expect("cold read");
        latencies_ms.push(started.elapsed().as_secs_f64() * 1e3);
        let expected = 2 + (t + args.seed as usize) % 4;
        if content.examples.len() != expected {
            report.violations.push(format!(
                "{name}: paged-in content has {} examples, seeded {expected}",
                content.examples.len()
            ));
        }
        max_resident = max_resident.max(store.pool().stats().resident_bytes);
    }
    let read_s = read_started.elapsed().as_secs_f64();
    let pool_stats = store.pool().stats();

    // Gate 1: residency under the budget, at every observation point.
    if max_resident > POOL_BUDGET || max_resident_seed > POOL_BUDGET {
        report.violations.push(format!(
            "pool resident bytes exceeded budget: read {} / seed {} > {POOL_BUDGET}",
            max_resident, max_resident_seed
        ));
    }

    // Gate 2: cold page-in p99 under the floor.
    let page_in = HistogramSummary::from_samples(&latencies_ms);
    let (p50, p99) = (page_in.p50, page_in.p99);
    if p99 > P99_FLOOR_MS {
        report.violations.push(format!(
            "cold page-in p99 {p99:.2} ms exceeds the {P99_FLOOR_MS:.0} ms floor"
        ));
    }

    // Gate 3: byte-identical retrieval vs the all-in-RAM path, on a
    // deterministic sample. Two cold loads per tenant: the first pages
    // in and writes vectors back, the second exercises the
    // stored-vector fast path.
    let sample_every = (tenants / 64).max(1);
    let mut sampled = 0usize;
    for t in (0..tenants).step_by(sample_every) {
        sampled += 1;
        let name = tenant_name(t);
        let probe = format!("tenant {t} revenue by region");

        let snap = store.snapshot(&name).expect("sample snapshot");
        let paged = KnowledgeIndex::from_snapshot(&snap).expect("paged index");
        drop(snap);
        let _ = store.put_vectors(
            &name,
            store.epoch(&name).expect("epoch"),
            &paged.export_vectors(),
        );
        store.forget(&name);
        let snap = store.snapshot(&name).expect("stored-vector snapshot");
        let from_vectors = KnowledgeIndex::from_snapshot(&snap).expect("stored-vector index");
        drop(snap);

        let fs: Arc<dyn StoreFs> = Arc::new(genedit_knowledge::RealFs::new());
        let truth = DurableKnowledgeStore::open_with(
            fs,
            root.join(&name).join("knowledge.json"),
            root.join(&name).join("knowledge.wal"),
            StoreConfig::default(),
            None,
        )
        .expect("WAL truth");
        let in_ram = KnowledgeIndex::build(truth.set().clone());

        let want = retrieval_fingerprint(&in_ram, &probe);
        let got_paged = retrieval_fingerprint(&paged, &probe);
        let got_vectors = retrieval_fingerprint(&from_vectors, &probe);
        if got_paged != want {
            report.violations.push(format!(
                "{name}: paged-in retrieval diverged ({got_paged} != {want})"
            ));
        }
        if got_vectors != want {
            report.violations.push(format!(
                "{name}: stored-vector retrieval diverged ({got_vectors} != {want})"
            ));
        }
    }

    let _ = std::fs::remove_dir_all(&root);

    if !args.json {
        println!(
            "Tenant sweep — {tenants} disk-backed tenants through a {} KiB buffer pool \
             (page size {PAGE_SIZE} B, seed {})",
            POOL_BUDGET / 1024,
            args.seed
        );
        println!(
            "  seeding: {seed_s:.1} s   cold reads: {read_s:.1} s \
             ({:.0} page-ins/s)",
            tenants as f64 / read_s.max(1e-9)
        );
        println!(
            "  residency: max {} / budget {} bytes  {}",
            max_resident.max(max_resident_seed),
            POOL_BUDGET,
            if max_resident.max(max_resident_seed) <= POOL_BUDGET {
                "PASS"
            } else {
                "FAIL"
            }
        );
        println!(
            "  cold page-in: p50 {p50:.2} ms  p99 {p99:.2} ms (floor {P99_FLOOR_MS:.0} ms)  {}",
            if p99 <= P99_FLOOR_MS { "PASS" } else { "FAIL" }
        );
        println!(
            "  pool: {} hits / {} misses / {} evictions",
            pool_stats.hits, pool_stats.misses, pool_stats.evictions
        );
        println!(
            "  retrieval: {sampled} sampled tenants byte-identical vs all-in-RAM  {}",
            if report.violations.iter().any(|v| v.contains("retrieval")) {
                "FAIL"
            } else {
                "PASS"
            }
        );
    }
    let doc = object! {
        "artifact": "tenant_sweep",
        "seed": args.seed,
        "mode": args.mode(),
        "tenants": tenants,
        "pool_budget_bytes": POOL_BUDGET,
        "page_size": PAGE_SIZE,
        "seed_seconds": seed_s,
        "cold_read_seconds": read_s,
        "max_resident_bytes": max_resident.max(max_resident_seed),
        "page_in_p50_ms": p50,
        "page_in_p99_ms": p99,
        "p99_floor_ms": P99_FLOOR_MS,
        "pool_hits": pool_stats.hits,
        "pool_misses": pool_stats.misses,
        "pool_evictions": pool_stats.evictions,
        "retrieval_samples": sampled,
        "violations": report.violations,
    };
    report.finish("BENCH_tenant.json", &doc)
}
