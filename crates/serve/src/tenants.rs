//! Cold-tenant admission: disk-backed tenants paged in on demand.
//!
//! [`TenantDirectory`] sits between the serving runtime and a
//! [`TenantKnowledgeStore`]: the first request for a tenant (or the
//! first after its knowledge epoch moves) opens an epoch snapshot,
//! materializes the knowledge through pinned buffer-pool pages, and
//! builds the retrieval index from the knowledge text — the
//! **cold-tenant page-in** path, recorded under `serve.tenant.page_in`.
//! A page-in reads the tenant's entry pages and writes nothing. Subsequent
//! requests at the same epoch hit the bounded index cache and touch
//! neither disk nor the embedder.

use crate::cache::Lru;
use crate::lock;
use genedit_core::KnowledgeIndex;
use genedit_knowledge::tenants::{TenantKnowledgeStore, TenantStoreError};
use genedit_telemetry::{names, MetricsRegistry};
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Resident indexes by tenant, each valid only while the tenant stays at
/// the epoch it was built at.
type Resident = Lru<String, (u64, Arc<KnowledgeIndex>)>;

/// A bounded cache of per-tenant retrieval indexes over a disk-backed
/// [`TenantKnowledgeStore`]. See the module docs for the page-in path.
pub struct TenantDirectory {
    store: Arc<TenantKnowledgeStore>,
    /// Most-recently-used indexes kept resident; least-recent evicted.
    capacity: usize,
    inner: Mutex<Resident>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl fmt::Debug for TenantDirectory {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantDirectory")
            .field("capacity", &self.capacity)
            .finish()
    }
}

impl TenantDirectory {
    /// A directory keeping at most `capacity` tenant indexes resident.
    pub fn new(store: Arc<TenantKnowledgeStore>, capacity: usize) -> TenantDirectory {
        TenantDirectory::with_metrics(store, capacity, None)
    }

    /// [`TenantDirectory::new`] publishing `serve.tenant.*` metrics.
    pub fn with_metrics(
        store: Arc<TenantKnowledgeStore>,
        capacity: usize,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> TenantDirectory {
        TenantDirectory {
            store,
            capacity: capacity.max(1),
            inner: Mutex::new(Lru::new()),
            metrics,
        }
    }

    /// The backing tenant store.
    pub fn store(&self) -> &Arc<TenantKnowledgeStore> {
        &self.store
    }

    fn incr(&self, name: &str) {
        if let Some(m) = &self.metrics {
            m.incr(name, 1);
        }
    }

    /// Whether `tenant` has durable state the directory could serve.
    pub fn knows(&self, tenant: &str) -> bool {
        self.store.tenant_exists(tenant)
    }

    /// The tenant's retrieval index at its current knowledge epoch,
    /// paging in from disk if the tenant is cold or its epoch moved.
    pub fn index_for(&self, tenant: &str) -> Result<(u64, Arc<KnowledgeIndex>), TenantStoreError> {
        let epoch = self.store.epoch(tenant)?;
        if let Some((cached_epoch, index)) = lock(&self.inner).get(tenant) {
            if *cached_epoch == epoch {
                self.incr("serve.tenant.hit");
                return Ok((epoch, Arc::clone(index)));
            }
        }

        // Cold tenant (or stale epoch): page in outside the cache lock so
        // one slow load never blocks hot tenants.
        self.incr("serve.tenant.miss");
        let started = Instant::now();
        let snapshot = self.store.snapshot(tenant)?;
        let epoch = snapshot.epoch();
        let index = Arc::new(KnowledgeIndex::from_snapshot(&snapshot)?);
        drop(snapshot);
        if let Some(m) = &self.metrics {
            m.observe_duration(names::SERVE_TENANT_PAGE_IN, started.elapsed());
        }

        let resident = (epoch, Arc::clone(&index));
        // The evicted indexes drop after the cache lock is released.
        let evicted = lock(&self.inner).insert(tenant.to_string(), resident, self.capacity);
        for _ in 0..evicted.len() {
            self.incr("serve.tenant.evictions");
        }
        Ok((epoch, index))
    }

    /// Drop a tenant's cached index (e.g. after committing knowledge for
    /// it out-of-band). The next request pages it back in at the new
    /// epoch — the epoch check in [`TenantDirectory::index_for`] makes
    /// this optional, but eager invalidation frees the memory now.
    pub fn invalidate(&self, tenant: &str) {
        lock(&self.inner).remove(tenant);
    }

    /// Number of tenant indexes currently resident.
    pub fn resident(&self) -> usize {
        lock(&self.inner).len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_knowledge::fs::{MemFs, StoreFs};
    use genedit_knowledge::page::{Page, PageKind};
    use genedit_knowledge::set::Edit;
    use genedit_knowledge::staging::StagingArea;
    use genedit_knowledge::tenants::TenantStoreConfig;
    use genedit_knowledge::types::{FragmentKind, SourceRef, SqlFragment};
    use genedit_knowledge::StoreConfig;
    use std::io;
    use std::path::Path;
    use std::sync::atomic::{AtomicU64, Ordering};

    const PAGE_SIZE: usize = 1024;

    fn tenant_store() -> Arc<TenantKnowledgeStore> {
        tenant_store_on(Arc::new(MemFs::new()), None)
    }

    fn tenant_store_on(
        fs: Arc<dyn StoreFs>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Arc<TenantKnowledgeStore> {
        Arc::new(TenantKnowledgeStore::new_with(
            fs,
            "/kb",
            TenantStoreConfig {
                page_size: PAGE_SIZE,
                pool_budget_bytes: 64 * 1024,
                shards: 4,
                store: StoreConfig::default(),
            },
            metrics,
        ))
    }

    fn seed(store: &Arc<TenantKnowledgeStore>, tenant: &str, desc: &str) -> u64 {
        let mut staging = StagingArea::new();
        staging.stage(Edit::InsertExample {
            intent: None,
            description: desc.into(),
            fragment: SqlFragment::new(FragmentKind::Where, "WHERE A = 1", "main"),
            term: None,
            source: SourceRef::Manual,
        });
        store.commit(tenant, staging, "seed").unwrap()
    }

    #[test]
    fn pages_in_cold_tenant_then_hits_cache() {
        let metrics = Arc::new(MetricsRegistry::new());
        let store = tenant_store();
        let epoch = seed(&store, "acme", "revenue per org");
        let dir = TenantDirectory::with_metrics(store, 4, Some(Arc::clone(&metrics)));

        let (e1, idx1) = dir.index_for("acme").unwrap();
        assert_eq!(e1, epoch);
        assert_eq!(idx1.knowledge().examples().len(), 1);
        let (e2, idx2) = dir.index_for("acme").unwrap();
        assert_eq!(e2, epoch);
        assert!(
            Arc::ptr_eq(&idx1, &idx2),
            "second lookup must hit the cache"
        );
        assert_eq!(metrics.counter("serve.tenant.miss"), 1);
        assert_eq!(metrics.counter("serve.tenant.hit"), 1);
    }

    #[test]
    fn epoch_move_invalidates_cached_index() {
        let store = tenant_store();
        seed(&store, "acme", "first");
        let dir = TenantDirectory::new(Arc::clone(&store), 4);
        let (e1, _) = dir.index_for("acme").unwrap();
        let e2 = seed(&store, "acme", "second");
        assert!(e2 > e1);
        let (e3, idx) = dir.index_for("acme").unwrap();
        assert_eq!(e3, e2);
        assert_eq!(idx.knowledge().examples().len(), 2);
    }

    #[test]
    fn capacity_evicts_least_recently_used() {
        let store = tenant_store();
        for t in ["a", "b", "c"] {
            seed(&store, t, t);
        }
        let dir = TenantDirectory::new(store, 2);
        dir.index_for("a").unwrap();
        dir.index_for("b").unwrap();
        dir.index_for("a").unwrap(); // refresh a; b is now coldest
        dir.index_for("c").unwrap(); // evicts b
        assert_eq!(dir.resident(), 2);
        let metrics_free = dir.index_for("a").unwrap();
        drop(metrics_free);
        assert_eq!(dir.resident(), 2);
    }

    #[test]
    fn unknown_tenant_is_an_error() {
        let dir = TenantDirectory::new(tenant_store(), 2);
        assert!(!dir.knows("ghost"));
        assert!(matches!(
            dir.index_for("ghost"),
            Err(TenantStoreError::UnknownTenant(_))
        ));
    }

    /// [`MemFs`] counting the writes and fsyncs made through it.
    #[derive(Default)]
    struct WriteCountingFs {
        inner: MemFs,
        writes: AtomicU64,
        fsyncs: AtomicU64,
    }

    impl WriteCountingFs {
        /// `(writes, fsyncs)` so far.
        fn counts(&self) -> (u64, u64) {
            let load = |n: &AtomicU64| n.load(Ordering::SeqCst);
            (load(&self.writes), load(&self.fsyncs))
        }

        fn wrote(&self) {
            self.writes.fetch_add(1, Ordering::SeqCst);
        }
    }

    impl StoreFs for WriteCountingFs {
        fn read(&self, path: &Path) -> io::Result<Vec<u8>> {
            self.inner.read(path)
        }
        fn write_file(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.wrote();
            self.inner.write_file(path, data)
        }
        fn append(&self, path: &Path, data: &[u8]) -> io::Result<()> {
            self.wrote();
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
            self.inner.read_at(path, offset, len)
        }
        fn write_at(&self, path: &Path, offset: u64, data: &[u8]) -> io::Result<()> {
            self.wrote();
            self.inner.write_at(path, offset, data)
        }
    }

    #[test]
    fn page_ins_write_no_page_and_no_fsync() {
        let fs = Arc::new(WriteCountingFs::default());
        let store = tenant_store_on(Arc::clone(&fs) as Arc<dyn StoreFs>, None);
        seed(&store, "acme", "revenue per org");
        let dir = TenantDirectory::new(Arc::clone(&store), 4);
        let page_in = || {
            let before = fs.counts();
            dir.index_for("acme").unwrap();
            let after = fs.counts();
            (after.0 - before.0, after.1 - before.1)
        };
        store.forget("acme");
        assert_eq!(page_in(), (0, 0), "cold page-in");
        seed(&store, "acme", "second");
        assert_eq!(page_in(), (0, 0), "post-commit page-in");
        let snapshot = store.snapshot("acme").unwrap();
        assert!(snapshot.directory().vector_pages.is_empty());
    }

    /// Every `(id, score bits)` each of `index`'s rankings gives `query`.
    fn rankings(index: &KnowledgeIndex, query: &str) -> Vec<(String, u32)> {
        let q = index.embedder().embed(query);
        let ks = index.knowledge();
        let examples = index.top_examples(&q, &[], ks.examples().len());
        let examples = examples.iter().map(|(e, s)| (format!("{:?}", e.id), *s));
        let instructions = index.top_instructions(&q, &[], ks.instructions().len());
        let instructions = instructions
            .iter()
            .map(|(i, s)| (format!("{:?}", i.id), *s));
        let schema = index.top_schema(&q, ks.schema_elements().len());
        let schema = schema.iter().map(|(e, s)| (e.retrieval_text(), *s));
        let all = examples.chain(instructions).chain(schema);
        all.map(|(id, score)| (id, score.to_bits())).collect()
    }

    /// A directory written before indexes were built from text alone can
    /// name vector pages. Re-sealed here to name two slots of garbage: a
    /// cold page-in reads only the entry pages and builds the index
    /// `build(knowledge_set)` does, and the next commit frees the two
    /// slots, which the commit after it reuses.
    #[test]
    fn vector_pages_of_an_older_store_are_never_read() {
        let mem = Arc::new(MemFs::new());
        let metrics = Arc::new(MetricsRegistry::new());
        let fs = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let store = tenant_store_on(fs, Some(Arc::clone(&metrics)));
        seed(&store, "acme", "revenue per org");
        seed(&store, "acme", "viewers per country");
        let path = Path::new("/kb/acme/pages.dat");
        let mut dir = store.snapshot("acme").unwrap().directory().clone();
        let garbage = [dir.next_physical, dir.next_physical + 1];
        for slot in garbage {
            let offset = u64::from(slot) * PAGE_SIZE as u64;
            mem.write_at(path, offset, &[0xA5; PAGE_SIZE]).unwrap();
        }
        dir.vector_pages = garbage.to_vec();
        dir.next_physical += 2;
        let json = serde_json::to_string(&dir).unwrap();
        let mut meta = Page::new(PageKind::Meta, 0, dir.epoch, PAGE_SIZE);
        meta.push(json.as_bytes()).unwrap();
        mem.write_at(path, 0, &meta.seal()).unwrap();
        store.forget("acme");

        let snapshot = store.snapshot("acme").unwrap();
        assert_eq!(snapshot.directory(), &dir);
        let reads = metrics.counter(names::PAGE_READS);
        let index = KnowledgeIndex::from_snapshot(&snapshot).unwrap();
        let entry_pages = dir.entry_pages.len() as u64;
        assert_eq!(metrics.counter(names::PAGE_READS) - reads, entry_pages);
        let built = KnowledgeIndex::build(snapshot.knowledge_set().unwrap());
        assert!(index.knowledge().content_eq(built.knowledge()));
        for query in ["revenue per org", "viewers", "zzz"] {
            assert_eq!(rankings(&index, query), rankings(&built, query), "{query}");
        }
        drop(snapshot);

        seed(&store, "acme", "third");
        let freed = store.snapshot("acme").unwrap().directory().clone();
        assert!(freed.vector_pages.is_empty());
        assert!(!freed.entry_pages.iter().any(|s| garbage.contains(s)));
        seed(&store, "acme", "fourth");
        let reused = store.snapshot("acme").unwrap().directory().clone();
        assert!(reused.entry_pages.iter().any(|s| garbage.contains(s)));
        assert_eq!(reused.next_physical, dir.next_physical);
        let ks = store.snapshot("acme").unwrap().knowledge_set().unwrap();
        assert_eq!(ks.examples().len(), 4);
    }
}
