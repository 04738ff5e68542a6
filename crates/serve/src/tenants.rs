//! Cold-tenant admission: disk-backed tenants paged in on demand.
//!
//! [`TenantDirectory`] sits between the serving runtime and a
//! [`TenantKnowledgeStore`]: the first request for a tenant (or the
//! first after its knowledge epoch moves) opens an epoch snapshot,
//! materializes the knowledge through pinned buffer-pool pages, and
//! builds the retrieval index — the **cold-tenant page-in** path,
//! recorded under `serve.tenant.page_in`. Subsequent requests at the
//! same epoch hit the bounded index cache and touch neither disk nor
//! the embedder.
//!
//! When a paged-in snapshot has no stored vectors (first load after a
//! commit dropped them), the freshly computed embeddings are written
//! back with [`TenantKnowledgeStore::put_vectors`], so the *next* cold
//! page-in of the same epoch skips re-embedding entirely.

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
        // The directory says whether vectors exist; `from_snapshot` below
        // is the one read and decode of them.
        let had_vectors = !snapshot.directory().vector_pages.is_empty();
        let index = Arc::new(KnowledgeIndex::from_snapshot(&snapshot)?);
        drop(snapshot);
        if !had_vectors {
            // Best-effort write-back; a racing commit just means the
            // vectors describe a superseded epoch and are rejected.
            let _ = self
                .store
                .put_vectors(tenant, epoch, &index.export_vectors());
        }
        if let Some(m) = &self.metrics {
            m.observe_duration(names::SERVE_TENANT_PAGE_IN, started.elapsed());
        }

        let resident = (epoch, Arc::clone(&index));
        let evicted = lock(&self.inner).insert(tenant.to_string(), resident, self.capacity);
        for _ in 0..evicted {
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
    use genedit_knowledge::fs::MemFs;
    use genedit_knowledge::set::Edit;
    use genedit_knowledge::staging::StagingArea;
    use genedit_knowledge::tenants::TenantStoreConfig;
    use genedit_knowledge::types::{FragmentKind, SourceRef, SqlFragment};
    use genedit_knowledge::StoreConfig;

    fn tenant_store() -> Arc<TenantKnowledgeStore> {
        let fs: Arc<dyn genedit_knowledge::StoreFs> = Arc::new(MemFs::new());
        Arc::new(TenantKnowledgeStore::new_with(
            fs,
            "/kb",
            TenantStoreConfig {
                page_size: 1024,
                pool_budget_bytes: 64 * 1024,
                shards: 4,
                store: StoreConfig::default(),
            },
            None,
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

    #[test]
    fn vectors_written_back_on_first_page_in() {
        let store = tenant_store();
        let epoch = seed(&store, "acme", "revenue per org");
        {
            let snap = store.snapshot("acme").unwrap();
            assert!(snap.vectors().unwrap().is_none(), "commit drops vectors");
        }
        let dir = TenantDirectory::new(Arc::clone(&store), 4);
        dir.index_for("acme").unwrap();
        let snap = store.snapshot("acme").unwrap();
        assert_eq!(snap.epoch(), epoch);
        assert!(
            snap.vectors().unwrap().is_some(),
            "page-in must persist the computed vectors"
        );
    }
}
