//! The storage slice of the work ledger: exact filesystem operation
//! counts for a scripted Sports-tenant session.
//!
//! A counting [`StoreFs`] wrapper over [`MemFs`] sees every read, write
//! and fsync the tenant store makes. The script mirrors the benchmark's
//! `edit_churn` tenants — the Sports knowledge set without its three
//! domain terms, 4 KiB pages, a 1 MiB pool — and pins, per step, what
//! moved: a seeding commit, a cold page-in (`forget` +
//! `TenantDirectory::index_for`), an improvement commit and the page-in
//! after it, and an improvement commit after 100 batches. A page-in reads
//! the entry pages and writes nothing; a commit reads the entry pages it
//! merges into, through the pool, and never the WAL, so its reads do not
//! grow with the tenant's history. Counts
//! are exact and machine-independent: a
//! change that checks or decodes bytes differently moves none of them; a
//! change that reads, writes or syncs more moves them and must update
//! this pin and say why.

use genedit::bird::{Workload, SPORTS};
use genedit::knowledge::fs::MemFs;
use genedit::knowledge::tenants::{TenantKnowledgeStore, TenantStoreConfig};
use genedit::knowledge::{
    Edit, FragmentKind, KnowledgeSet, SourceRef, SqlFragment, StagingArea, StoreConfig, StoreFs,
};
use genedit::serve::TenantDirectory;
use genedit::telemetry::{names, MetricsRegistry};
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// What one step cost the filesystem.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
struct Io {
    reads: u64,
    read_bytes: u64,
    writes: u64,
    write_bytes: u64,
    fsyncs: u64,
}

/// [`MemFs`] with a counter on every operation that moves bytes.
#[derive(Default)]
struct CountingFs {
    inner: MemFs,
    reads: AtomicU64,
    read_bytes: AtomicU64,
    writes: AtomicU64,
    write_bytes: AtomicU64,
    fsyncs: AtomicU64,
}

impl CountingFs {
    fn totals(&self) -> Io {
        Io {
            reads: self.reads.load(Ordering::SeqCst),
            read_bytes: self.read_bytes.load(Ordering::SeqCst),
            writes: self.writes.load(Ordering::SeqCst),
            write_bytes: self.write_bytes.load(Ordering::SeqCst),
            fsyncs: self.fsyncs.load(Ordering::SeqCst),
        }
    }

    fn read_done(&self, result: io::Result<Vec<u8>>) -> io::Result<Vec<u8>> {
        if let Ok(bytes) = &result {
            self.reads.fetch_add(1, Ordering::SeqCst);
            self.read_bytes
                .fetch_add(bytes.len() as u64, Ordering::SeqCst);
        }
        result
    }

    fn wrote(&self, data: &[u8]) {
        self.writes.fetch_add(1, Ordering::SeqCst);
        self.write_bytes
            .fetch_add(data.len() as u64, Ordering::SeqCst);
    }
}

impl StoreFs for CountingFs {
    fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
        self.read_done(self.inner.read(path))
    }
    fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.wrote(data);
        self.inner.write_file(path, data)
    }
    fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
        self.wrote(data);
        self.inner.append(path, data)
    }
    fn fsync(&self, path: &Path) -> io::Result<()> {
        self.fsyncs.fetch_add(1, Ordering::SeqCst);
        self.inner.fsync(path)
    }
    fn rename(&self, from: &Path, to: &Path) -> io::Result<()> {
        self.inner.rename(from, to)
    }
    fn remove(&self, path: &Path) -> io::Result<()> {
        self.inner.remove(path)
    }
    fn exists(&self, path: &Path) -> bool {
        self.inner.exists(path)
    }
    fn len(&self, path: &Path) -> io::Result<u64> {
        self.inner.len(path)
    }
    fn truncate(&self, path: &Path, len: u64) -> io::Result<()> {
        self.inner.truncate(path, len)
    }
    fn read_at(&self, path: &Path, offset: u64, len: usize) -> io::Result<Vec<u8>> {
        self.read_done(self.inner.read_at(path, offset, len))
    }
    fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
        self.wrote(data);
        self.inner.write_at(path, offset, data)
    }
}

/// The Sports set without the instructions and examples that mention its
/// three domain terms: the base every `edit_churn` tenant starts from.
fn churn_base() -> KnowledgeSet {
    let workload = Workload::standard(42);
    let bundle = &workload.domains[0];
    assert_eq!(bundle.spec.key, SPORTS.key);
    let mut ks = bundle.build_knowledge();
    for term in [SPORTS.our_term, SPORTS.ratio_term, SPORTS.qoq_term] {
        let upper = term.to_uppercase();
        let mentions = |text: String| text.to_uppercase().contains(&upper);
        let instructions: Vec<_> = (ks.instructions().iter())
            .filter(|i| mentions(i.retrieval_text()))
            .map(|i| i.id)
            .collect();
        for id in instructions {
            ks.apply(Edit::DeleteInstruction { id }).unwrap();
        }
        let examples: Vec<_> = (ks.examples().iter())
            .filter(|e| mentions(e.retrieval_text()))
            .map(|e| e.id)
            .collect();
        for id in examples {
            ks.apply(Edit::DeleteExample { id }).unwrap();
        }
    }
    ks
}

fn improvement(n: u64) -> Edit {
    Edit::InsertExample {
        intent: None,
        description: format!("organizations we own, improvement {n}"),
        fragment: SqlFragment::new(FragmentKind::Where, "WHERE OWNERSHIP_FLAG = 'COC'", "main"),
        term: Some("our organizations".into()),
        source: SourceRef::Feedback { feedback_id: n },
    }
}

#[test]
fn tenant_session_io_is_pinned() {
    const TENANT: &str = "tenant-00";
    let fs = Arc::new(CountingFs::default());
    let metrics = Arc::new(MetricsRegistry::new());
    let store = Arc::new(TenantKnowledgeStore::new_with(
        Arc::clone(&fs) as Arc<dyn StoreFs>,
        "/kb",
        TenantStoreConfig {
            page_size: 4096,
            pool_budget_bytes: 1 << 20,
            shards: 16,
            store: StoreConfig::default(),
        },
        Some(Arc::clone(&metrics)),
    ));
    let directory = TenantDirectory::new(Arc::clone(&store), 32);
    let wal = Path::new("/kb").join(TENANT).join("knowledge.wal");

    let mut ledger: Vec<(&str, Io, u64)> = Vec::new();
    let mut step = |name: &'static str, run: &mut dyn FnMut()| {
        let (io_before, pages_before) = (fs.totals(), metrics.counter(names::PAGE_READS));
        run();
        let after = fs.totals();
        let io = Io {
            reads: after.reads - io_before.reads,
            read_bytes: after.read_bytes - io_before.read_bytes,
            writes: after.writes - io_before.writes,
            write_bytes: after.write_bytes - io_before.write_bytes,
            fsyncs: after.fsyncs - io_before.fsyncs,
        };
        ledger.push((name, io, metrics.counter(names::PAGE_READS) - pages_before));
    };

    let base = churn_base();
    step("seed commit", &mut || {
        let mut staging = StagingArea::new();
        for logged in base.log() {
            staging.stage(logged.edit.clone());
        }
        store.commit(TENANT, staging, "seed").unwrap();
    });
    step("cold page-in", &mut || {
        store.forget(TENANT);
        directory.invalidate(TENANT);
        directory.index_for(TENANT).unwrap();
    });
    step("directory hit", &mut || {
        directory.index_for(TENANT).unwrap();
    });
    let edits = 3u64;
    let wal_before = fs.len(&wal).unwrap();
    step("improvement commit", &mut || {
        let mut staging = StagingArea::new();
        for n in 0..edits {
            staging.stage(improvement(n));
        }
        store.commit(TENANT, staging, "improvement step").unwrap();
    });
    let wal_bytes_per_edit = (fs.len(&wal).unwrap() - wal_before) / edits;
    step("post-edit page-in", &mut || {
        directory.index_for(TENANT).unwrap();
    });
    step("cold page-in after edit", &mut || {
        store.forget(TENANT);
        directory.invalidate(TENANT);
        directory.index_for(TENANT).unwrap();
    });
    let dir = store.snapshot(TENANT).unwrap().directory().clone();
    // 99 more improvement batches, then a page-in, as before the first:
    // a commit reads the pages it writes through, never the history.
    for batch in 1..100 {
        let mut staging = StagingArea::new();
        for n in 0..edits {
            staging.stage(improvement(batch * edits + n));
        }
        store.commit(TENANT, staging, "improvement step").unwrap();
    }
    directory.index_for(TENANT).unwrap();
    step("improvement commit after 100 batches", &mut || {
        let mut staging = StagingArea::new();
        for n in 0..edits {
            staging.stage(improvement(100 * edits + n));
        }
        store.commit(TENANT, staging, "improvement step").unwrap();
    });

    let got = format!(
        "{}wal bytes per edit {wal_bytes_per_edit}\n\
         entry pages {} vector pages {}\n",
        ledger
            .iter()
            .map(|(name, io, pages)| format!("{name}: {io:?} page reads {pages}\n"))
            .collect::<String>(),
        dir.entry_pages.len(),
        dir.vector_pages.len(),
    );
    let expected = "\
seed commit: Io { reads: 1, read_bytes: 4096, writes: 9, write_bytes: 57710, fsyncs: 6 } page reads 1
cold page-in: Io { reads: 5, read_bytes: 20480, writes: 0, write_bytes: 0, fsyncs: 0 } page reads 5
directory hit: Io { reads: 0, read_bytes: 0, writes: 0, write_bytes: 0, fsyncs: 0 } page reads 0
improvement commit: Io { reads: 0, read_bytes: 0, writes: 6, write_bytes: 21309, fsyncs: 3 } page reads 0
post-edit page-in: Io { reads: 4, read_bytes: 16384, writes: 0, write_bytes: 0, fsyncs: 0 } page reads 4
cold page-in after edit: Io { reads: 5, read_bytes: 20480, writes: 0, write_bytes: 0, fsyncs: 0 } page reads 5
improvement commit after 100 batches: Io { reads: 0, read_bytes: 0, writes: 26, write_bytes: 103241, fsyncs: 3 } page reads 0
wal bytes per edit 276
entry pages 4 vector pages 0
";
    assert!(got == expected, "storage ledger moved; got\n{got}");
}
