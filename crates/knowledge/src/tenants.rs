//! Disk-backed, sharded tenant knowledge with epoch snapshots.
//!
//! [`TenantKnowledgeStore`] scales the durable knowledge store from one
//! tenant to millions: each tenant's applied state lives in a paged file
//! (`pages.dat`, see [`crate::page`]) cached by a shared [`BufferPool`],
//! while the per-tenant WAL + snapshot managed by
//! [`DurableKnowledgeStore`] remain the **source of truth**. Pages are a
//! recoverable cache — any torn, stale, or missing page is rebuilt from
//! the WAL, never the other way around.
//!
//! ## Commit path
//!
//! A commit does not recover the tenant. It merges the batch into
//! [`KnowledgeSet::from_content`] of the pages the current directory
//! names — read through the pool, as a snapshot reads them — journals it
//! through the same helper [`DurableKnowledgeStore::commit`] uses, and
//! re-pages at epoch = the content's `tick`, which is the journal's log
//! length. Before reading the pages it checks the directory's stamped
//! WAL/snapshot lengths against the files, as a cold load does: a
//! directory a failed flush left behind the WAL, or pages that do not read
//! back, are rebuilt from the WAL first. So a commit reads its pages, not
//! its history. Only a rebuild and a compaction replay the WAL.
//!
//! ## Shadow-paged flush
//!
//! After a durable commit, the tenant's content is re-paged with shadow
//! paging: new page versions go to **fresh physical slots**, the data is
//! fsynced, and only then is the meta page (physical slot 0, holding the
//! [`PageDirectory`]) rewritten and fsynced. A crash anywhere in that
//! window leaves either the old directory (whose pages were never
//! overwritten) or the new one (whose pages are durable) — and the
//! directory records the WAL/snapshot byte lengths it was flushed
//! against, so a directory that lost the race with a crash is detected
//! by a cheap length comparison and rebuilt from the WAL.
//!
//! ## Epoch snapshots (MVCC-style reads)
//!
//! [`TenantKnowledgeStore::snapshot`] hands the reader the current
//! directory at the tenant's **knowledge epoch** (= journal
//! `Baseline.log_len`, the same version the serving caches key on).
//! Because flushes never mutate a slot a live directory references,
//! the snapshot reads a stable view while commits proceed concurrently —
//! `publish()` never blocks in-flight generations. Physical slots freed
//! by a commit are quarantined in a pending-free list until every
//! snapshot that could reference them has closed, and the pool frame for
//! a slot is invalidated when the slot is reused.
//!
//! ## Sharding
//!
//! The tenant map is split across [`TenantStoreConfig::shards`] locks
//! keyed by tenant-name hash, and each tenant's state sits behind its own
//! mutex, so hot tenants never contend on cold ones; the only shared
//! structure is the buffer pool, which locks per operation.
//!
//! ```
//! use std::sync::Arc;
//! use genedit_knowledge::fs::MemFs;
//! use genedit_knowledge::set::Edit;
//! use genedit_knowledge::staging::StagingArea;
//! use genedit_knowledge::tenants::{TenantKnowledgeStore, TenantStoreConfig};
//! use genedit_knowledge::types::{FragmentKind, SourceRef, SqlFragment};
//!
//! let fs = Arc::new(MemFs::new());
//! let store = Arc::new(TenantKnowledgeStore::new_with(
//!     fs,
//!     "/kb",
//!     TenantStoreConfig::default(),
//!     None,
//! ));
//!
//! // Commit an edit for one tenant (WAL first, then page flush).
//! let mut staging = StagingArea::new();
//! staging.stage(Edit::InsertExample {
//!     intent: None,
//!     description: "revenue per org".into(),
//!     fragment: SqlFragment::new(FragmentKind::Where, "WHERE ORG = 'x'", "main"),
//!     term: None,
//!     source: SourceRef::Manual,
//! });
//! let epoch = store.commit("acme", staging, "seed").unwrap();
//!
//! // Open an epoch snapshot and read a stable view through the pool.
//! let snap = store.snapshot("acme").unwrap();
//! assert_eq!(snap.epoch(), epoch);
//! let content = snap.content().unwrap();
//! assert_eq!(content.examples.len(), 1);
//! drop(snap); // closes the snapshot: freed pages become reclaimable,
//!             // and cold-tenant frames are now evictable from the pool
//! ```

use crate::fs::{io_failure, IoFailure, RealFs, StoreFs};
use crate::journal::Journal;
use crate::lock;
use crate::page::{Page, PageError, PageKind};
use crate::pool::{BufferPool, PageKey, PoolConfig};
use crate::set::{Edit, KnowledgeContent, KnowledgeSet};
use crate::staging::StagingArea;
use crate::store::{
    apply_journaled, commit_journaled, DurableKnowledgeStore, StoreConfig, StoreError,
};
use crate::types::{Example, Instruction, Intent, RetrievalStage, SchemaElement};
use genedit_telemetry::hash::fnv1a64;
use genedit_telemetry::{names, MetricsRegistry, Tracer};
use serde::{Deserialize, Serialize};
use std::collections::{BTreeMap, HashMap, HashSet};
use std::fmt;
use std::io;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Errors from the tenant paging layer.
#[derive(Debug)]
pub enum TenantStoreError {
    /// The underlying durable (WAL) store failed.
    Store(StoreError),
    /// A page failed to encode or decode.
    Page(PageError),
    /// A raw filesystem operation failed.
    Io(IoFailure),
    /// A serialized record was malformed (JSON decode failed).
    Corrupt(String),
    /// The page directory no longer fits in the meta page — the tenant
    /// has outgrown the configured page size.
    DirectoryTooLarge {
        /// Serialized directory size in bytes.
        bytes: usize,
        /// Meta-page record capacity in bytes.
        capacity: usize,
    },
    /// One record is larger than a page can ever hold.
    RecordTooLarge {
        /// Record size in bytes.
        bytes: usize,
        /// Page record capacity in bytes.
        capacity: usize,
    },
    /// The tenant has no durable state (nothing on disk, nothing staged).
    UnknownTenant(String),
}

impl fmt::Display for TenantStoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TenantStoreError::Store(e) => write!(f, "tenant store: {e}"),
            TenantStoreError::Page(e) => write!(f, "tenant page: {e}"),
            TenantStoreError::Io(e) => write!(f, "tenant {e}"),
            TenantStoreError::Corrupt(what) => write!(f, "tenant record corrupt: {what}"),
            TenantStoreError::DirectoryTooLarge { bytes, capacity } => {
                write!(
                    f,
                    "page directory is {bytes} bytes, meta page holds {capacity}"
                )
            }
            TenantStoreError::RecordTooLarge { bytes, capacity } => {
                write!(
                    f,
                    "record of {bytes} bytes exceeds page capacity {capacity}"
                )
            }
            TenantStoreError::UnknownTenant(t) => write!(f, "unknown tenant {t:?}"),
        }
    }
}

impl std::error::Error for TenantStoreError {}

impl From<StoreError> for TenantStoreError {
    fn from(e: StoreError) -> TenantStoreError {
        TenantStoreError::Store(e)
    }
}

impl From<PageError> for TenantStoreError {
    fn from(e: PageError) -> TenantStoreError {
        TenantStoreError::Page(e)
    }
}

impl From<IoFailure> for TenantStoreError {
    fn from(e: IoFailure) -> TenantStoreError {
        TenantStoreError::Io(e)
    }
}

/// Tunables for the tenant paging layer.
#[derive(Debug, Clone)]
pub struct TenantStoreConfig {
    /// Page size for every tenant file (and the pool's accounting unit).
    pub page_size: usize,
    /// Shared buffer-pool budget across all tenants.
    pub pool_budget_bytes: usize,
    /// Number of tenant-map shards (locks). Power of two recommended.
    pub shards: usize,
    /// Configuration for each tenant's underlying durable (WAL) store.
    pub store: StoreConfig,
}

impl Default for TenantStoreConfig {
    fn default() -> TenantStoreConfig {
        let pool = PoolConfig::default();
        TenantStoreConfig {
            page_size: pool.page_size,
            pool_budget_bytes: pool.budget_bytes,
            shards: 16,
            store: StoreConfig::default(),
        }
    }
}

/// The on-disk catalog of one tenant's pages, stored as the single
/// record of the meta page (physical slot 0). `wal_len`/`snapshot_len`
/// are the byte lengths of the tenant's WAL and snapshot at flush time:
/// if either differs at open, the pages are stale (a crash interrupted a
/// flush) and the tenant is rebuilt from the WAL.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct PageDirectory {
    /// Knowledge epoch the directory was flushed at.
    pub epoch: u64,
    /// WAL byte length the flush was consistent with.
    pub wal_len: u64,
    /// Snapshot byte length the flush was consistent with (0 = none).
    pub snapshot_len: u64,
    /// Physical slots holding entry records, in read order.
    pub entry_pages: Vec<u32>,
    /// Physical slots holding a chunked vector stream, in read order.
    /// No flush writes one: a directory names vector pages only when an
    /// older version of this store wrote it, and the next flush frees them.
    pub vector_pages: Vec<u32>,
    /// First never-allocated physical slot. Every slot below it that
    /// the directory does not name is free: a cold load derives the free
    /// list from that, so the directory does not store one, and trusts
    /// the directory only while `next_physical` is within the pages
    /// file's slot count and names no slot at or past it.
    pub next_physical: u32,
}

impl PageDirectory {
    /// Every data slot this directory names: entries, then vectors.
    fn slots(&self) -> impl Iterator<Item = u32> + '_ {
        self.entry_pages.iter().chain(&self.vector_pages).copied()
    }
}

/// Embedding vectors stored alongside a tenant's entries, grouped the way
/// the retrieval indexes consume them. Only stores written by an older
/// version hold them: an index is now built from the entries alone, and
/// [`TenantSnapshot::vectors`] remains to read what such a store wrote.
#[derive(Debug, Clone, PartialEq)]
pub struct StoredVectors {
    /// Embedding dimensionality (vocabulary size at fit time).
    pub dim: usize,
    /// One vector per live example, in [`KnowledgeContent::examples`] order.
    pub examples: Vec<Vec<f32>>,
    /// One vector per live instruction, in content order.
    pub instructions: Vec<Vec<f32>>,
    /// One vector per schema element, in content order.
    pub schema: Vec<Vec<f32>>,
}

/// One serialized knowledge entry, tagged so pages self-describe.
#[derive(Debug, Clone, Serialize, Deserialize)]
enum EntryRecord {
    /// Id allocation and logical clock — always the first record.
    Meta {
        next_example_id: u64,
        next_instruction_id: u64,
        tick: u64,
    },
    Intent(Intent),
    Example(Example),
    Instruction(Instruction),
    Schema(SchemaElement),
    Hint(RetrievalStage, String),
}

/// Per-tenant in-memory state (behind its own mutex).
struct TenantState {
    slot: u64,
    dir: Arc<PageDirectory>,
    /// Open-snapshot refcounts by epoch.
    open_snapshots: BTreeMap<u64, usize>,
    /// Slots freed while the directory at `freed_at` could still be read
    /// by an open snapshot; reclaimed once no snapshot at or before
    /// `freed_at` remains.
    pending_free: Vec<(u64, Vec<u32>)>,
    free_slots: Vec<u32>,
    next_physical: u32,
}

impl TenantState {
    /// Fresh in-memory state for the tenant loaded into pool slot `slot`
    /// with `dir` current: no snapshot open, nothing pending — so every
    /// allocated slot the directory does not name is free.
    fn at(slot: u64, dir: PageDirectory) -> TenantState {
        let named: HashSet<u32> = dir.slots().collect();
        TenantState {
            slot,
            next_physical: dir.next_physical,
            free_slots: (1..dir.next_physical)
                .filter(|s| !named.contains(s))
                .collect(),
            dir: Arc::new(dir),
            open_snapshots: BTreeMap::new(),
            pending_free: Vec::new(),
        }
    }

    /// Move pending-free slots whose guarding snapshots have all closed
    /// onto the free list.
    fn reclaim(&mut self) {
        let min_open = self.open_snapshots.keys().next().copied();
        let mut kept = Vec::new();
        for (freed_at, slots) in self.pending_free.drain(..) {
            let reusable = match min_open {
                None => true,
                Some(min) => min > freed_at,
            };
            if reusable {
                self.free_slots.extend(slots);
            } else {
                kept.push((freed_at, slots));
            }
        }
        self.pending_free = kept;
    }

    fn alloc(&mut self) -> u32 {
        if let Some(slot) = self.free_slots.pop() {
            slot
        } else {
            let slot = self.next_physical;
            self.next_physical += 1;
            slot
        }
    }
}

/// Disk-backed sharded tenant store. See the module docs for the page,
/// snapshot, and recovery protocols.
pub struct TenantKnowledgeStore {
    fs: Arc<dyn StoreFs>,
    root: PathBuf,
    config: TenantStoreConfig,
    pool: Arc<BufferPool>,
    shards: Vec<Mutex<HashMap<String, Arc<Mutex<TenantState>>>>>,
    next_slot: AtomicU64,
    metrics: Option<Arc<MetricsRegistry>>,
    /// `true` when backed by the real filesystem: tenant directories are
    /// created on demand.
    create_dirs: bool,
}

impl fmt::Debug for TenantKnowledgeStore {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantKnowledgeStore")
            .field("root", &self.root)
            .field("shards", &self.shards.len())
            .field("pool", &self.pool)
            .finish()
    }
}

impl TenantKnowledgeStore {
    /// Open a store rooted at `root` on the real filesystem. Per-tenant
    /// directories are created on demand.
    pub fn open(
        root: impl Into<PathBuf>,
        config: TenantStoreConfig,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> TenantKnowledgeStore {
        let mut store =
            TenantKnowledgeStore::new_with(Arc::new(RealFs::new()), root, config, metrics);
        store.create_dirs = true;
        store
    }

    /// Open a store over an explicit filesystem — the seam the fault
    /// injector and the proptests plug into.
    pub fn new_with(
        fs: Arc<dyn StoreFs>,
        root: impl Into<PathBuf>,
        config: TenantStoreConfig,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> TenantKnowledgeStore {
        let shards = config.shards.max(1);
        let pool = Arc::new(BufferPool::with_metrics(
            PoolConfig {
                budget_bytes: config.pool_budget_bytes,
                page_size: config.page_size,
            },
            metrics.clone(),
        ));
        TenantKnowledgeStore {
            fs,
            root: root.into(),
            config,
            pool,
            shards: (0..shards).map(|_| Mutex::new(HashMap::new())).collect(),
            next_slot: AtomicU64::new(0),
            metrics,
            create_dirs: false,
        }
    }

    /// The shared buffer pool (for stats and budget checks).
    pub fn pool(&self) -> &Arc<BufferPool> {
        &self.pool
    }

    /// The configured tunables.
    pub fn config(&self) -> &TenantStoreConfig {
        &self.config
    }

    // ------------------------------------------------------------------
    // Paths and small helpers
    // ------------------------------------------------------------------

    fn tenant_dir(&self, tenant: &str) -> PathBuf {
        self.root.join(tenant)
    }

    fn snapshot_path(&self, tenant: &str) -> PathBuf {
        self.tenant_dir(tenant).join("knowledge.json")
    }

    fn wal_path(&self, tenant: &str) -> PathBuf {
        self.tenant_dir(tenant).join("knowledge.wal")
    }

    fn pages_path(&self, tenant: &str) -> PathBuf {
        self.tenant_dir(tenant).join("pages.dat")
    }

    fn shard_for(&self, tenant: &str) -> &Mutex<HashMap<String, Arc<Mutex<TenantState>>>> {
        &self.shards[(fnv1a64(tenant.as_bytes()) as usize) % self.shards.len()]
    }

    /// Whether the tenant has any durable files on disk.
    pub fn tenant_exists(&self, tenant: &str) -> bool {
        self.fs.exists(&self.wal_path(tenant))
            || self.fs.exists(&self.snapshot_path(tenant))
            || self.fs.exists(&self.pages_path(tenant))
    }

    /// The tenant's journal, as [`DurableKnowledgeStore`] appends to it.
    fn journal(&self, tenant: &str) -> Journal {
        let journal = Journal::new(Arc::clone(&self.fs), self.wal_path(tenant));
        match &self.metrics {
            Some(m) => journal.with_metrics(Arc::clone(m)),
            None => journal,
        }
    }

    /// Recover the tenant from its snapshot and WAL: what a rebuild and a
    /// compaction start from.
    fn open_writer(&self, tenant: &str) -> Result<DurableKnowledgeStore, TenantStoreError> {
        if self.create_dirs {
            let dir = self.tenant_dir(tenant);
            std::fs::create_dir_all(&dir).map_err(io_failure("create_dir_all", &dir))?;
        }
        Ok(DurableKnowledgeStore::open_with(
            Arc::clone(&self.fs),
            self.snapshot_path(tenant),
            self.wal_path(tenant),
            self.config.store.clone(),
            self.metrics.clone(),
        )?)
    }

    // ------------------------------------------------------------------
    // Cold load / page-in
    // ------------------------------------------------------------------

    /// Get or build the tenant's in-memory state. On a cold load the
    /// meta page is validated against the WAL/snapshot byte lengths;
    /// any mismatch or corruption rebuilds the pages from the WAL.
    fn tenant_entry(
        &self,
        tenant: &str,
        create: bool,
    ) -> Result<Arc<Mutex<TenantState>>, TenantStoreError> {
        {
            let shard = lock(self.shard_for(tenant));
            if let Some(state) = shard.get(tenant) {
                return Ok(Arc::clone(state));
            }
        }
        if !create && !self.tenant_exists(tenant) {
            return Err(TenantStoreError::UnknownTenant(tenant.to_string()));
        }
        // Build outside the shard lock: page-in may touch disk and must
        // not block unrelated tenants in the same shard. A racing load of
        // the same tenant is resolved by first-insert-wins below.
        let slot = self.next_slot.fetch_add(1, Ordering::SeqCst);
        let state = self.load_tenant(tenant, slot)?;
        let mut shard = lock(self.shard_for(tenant));
        if let Some(existing) = shard.get(tenant) {
            return Ok(Arc::clone(existing));
        }
        let state = Arc::new(Mutex::new(state));
        shard.insert(tenant.to_string(), Arc::clone(&state));
        Ok(state)
    }

    /// Cold-load one tenant: fast path validates the meta page against
    /// the WAL and the pages file; slow path runs full recovery and
    /// re-pages.
    fn load_tenant(&self, tenant: &str, slot: u64) -> Result<TenantState, TenantStoreError> {
        let lens = self.durable_lens(tenant)?;
        if self.fs.exists(&self.pages_path(tenant)) {
            match self.read_meta_page(tenant) {
                Ok(dir) if (dir.wal_len, dir.snapshot_len) == lens => {
                    if self.directory_fits(tenant, &dir)? {
                        return Ok(TenantState::at(slot, dir));
                    }
                    // A CRC vouches for the medium, not the writer: a
                    // directory naming slots the file cannot hold would
                    // size the free list, or hand out a live slot.
                }
                Ok(_) => {
                    // Pages are consistent but stale: the WAL moved after
                    // the last completed flush (crash mid-commit).
                }
                Err(TenantStoreError::Page(_)) | Err(TenantStoreError::Corrupt(_)) => {
                    if let Some(m) = &self.metrics {
                        m.incr(names::PAGE_CHECKSUM_FAILURES, 1);
                    }
                }
                Err(other) => return Err(other),
            }
        }

        // Rebuild from the WAL (source of truth), over an empty directory:
        // slot 0 is the meta page, so allocation starts at 1.
        let empty = PageDirectory {
            epoch: 0,
            wal_len: 0,
            snapshot_len: 0,
            entry_pages: Vec::new(),
            vector_pages: Vec::new(),
            next_physical: 1,
        };
        let mut state = TenantState::at(slot, empty);
        self.rebuild(tenant, &mut state)?;
        Ok(state)
    }

    /// Re-page the tenant from its WAL and snapshot, the source of truth.
    fn rebuild(&self, tenant: &str, state: &mut TenantState) -> Result<u64, TenantStoreError> {
        if let Some(m) = &self.metrics {
            m.incr(names::PAGE_REBUILDS, 1);
        }
        let writer = self.open_writer(tenant)?;
        self.flush_pages(tenant, state, writer.set().state())
    }

    /// Byte lengths of the tenant's WAL and snapshot (0 = absent): what a
    /// page directory is stamped with at flush and checked against at load.
    fn durable_lens(&self, tenant: &str) -> Result<(u64, u64), TenantStoreError> {
        let len = |path: PathBuf| -> Result<u64, TenantStoreError> {
            if !self.fs.exists(&path) {
                return Ok(0);
            }
            Ok(self.fs.len(&path).map_err(io_failure("len", &path))?)
        };
        Ok((
            len(self.wal_path(tenant))?,
            len(self.snapshot_path(tenant))?,
        ))
    }

    /// Whether `dir` stays inside the tenant's pages file: `next_physical`
    /// is at least 1 (slot 0 is the meta page) and at most the file's
    /// slot count, and every slot it names is in `1..next_physical`. A
    /// cold load derives the free list from `1..next_physical`, so this
    /// bounds it by the file.
    fn directory_fits(&self, tenant: &str, dir: &PageDirectory) -> Result<bool, TenantStoreError> {
        let path = self.pages_path(tenant);
        let len = self.fs.len(&path).map_err(io_failure("len", &path))?;
        let file_slots = len / self.config.page_size as u64;
        let allocated = 1..dir.next_physical;
        Ok((1..=file_slots).contains(&u64::from(dir.next_physical))
            && dir.slots().all(|s| allocated.contains(&s)))
    }

    /// Read and decode the meta page (direct, not pooled: it is read
    /// once per cold load and immediately superseded on every flush).
    fn read_meta_page(&self, tenant: &str) -> Result<PageDirectory, TenantStoreError> {
        let path = self.pages_path(tenant);
        let bytes = self
            .fs
            .read_at(&path, 0, self.config.page_size)
            .map_err(io_failure("read meta page", &path))?;
        if let Some(m) = &self.metrics {
            m.incr(names::PAGE_READS, 1);
        }
        let page = Page::decode(&bytes, self.config.page_size)?;
        let record = page
            .record(0)
            .ok_or_else(|| TenantStoreError::Corrupt("meta page has no record".into()))?;
        let text = std::str::from_utf8(record)
            .map_err(|e| TenantStoreError::Corrupt(format!("page directory utf8: {e}")))?;
        serde_json::from_str(text)
            .map_err(|e| TenantStoreError::Corrupt(format!("page directory: {e}")))
    }

    // ------------------------------------------------------------------
    // Page flush (shadow paging)
    // ------------------------------------------------------------------

    /// Re-page the tenant at `content`, which the WAL holds durably: pack
    /// its entries into pages at fresh physical slots and publish them
    /// under a directory stamped with the WAL/snapshot lengths they are
    /// consistent with. Returns the epoch flushed: the content's `tick`,
    /// which equals the journal's log length because the tenant's set is
    /// replayed from empty and only an applied edit advances the clock.
    fn flush_pages(
        &self,
        tenant: &str,
        state: &mut TenantState,
        content: &KnowledgeContent,
    ) -> Result<u64, TenantStoreError> {
        let epoch = content.tick;
        let (wal_len, snapshot_len) = self.durable_lens(tenant)?;
        let tracer = Tracer::new("store");
        let span = tracer.span(names::STORE_PAGE_FLUSH);
        let page_size = self.config.page_size;

        let records = encode_entry_records(content)?;
        let capacity = Page::capacity(page_size);
        if let Some(r) = records.iter().find(|r| r.len() > capacity) {
            return Err(TenantStoreError::RecordTooLarge {
                bytes: r.len(),
                capacity,
            });
        }

        // Pack records into pages greedily, allocating fresh slots.
        state.reclaim();
        let mut pages: Vec<Page> = Vec::new();
        let mut current: Option<Page> = None;
        for record in &records {
            loop {
                let page = current.get_or_insert_with(|| {
                    Page::new(PageKind::Entry, state.alloc(), epoch, page_size)
                });
                match page.push(record) {
                    Ok(_) => break,
                    Err(PageError::PageFull) => pages.extend(current.take()),
                    Err(e) => return Err(e.into()),
                }
            }
        }
        pages.extend(current);

        let dir = PageDirectory {
            epoch,
            wal_len,
            snapshot_len,
            entry_pages: pages.iter().map(Page::page_no).collect(),
            // Vector pages an older store wrote describe the old epoch's
            // entries: publishing without them frees their slots.
            vector_pages: Vec::new(),
            next_physical: state.next_physical,
        };
        self.publish(tenant, state, &pages, dir)?;

        span.attr("pages", pages.len() + 1).attr("epoch", epoch);
        span.finish();
        if let Some(m) = &self.metrics {
            m.record_trace(&tracer.finish());
        }
        Ok(epoch)
    }

    /// The shadow-page protocol — the one way a directory becomes
    /// current. `pages` sit in slots no live directory names; they are
    /// written and fsynced first, and only then is the meta page (slot 0)
    /// overwritten with `dir` and fsynced again. A crash before the second
    /// fsync lands leaves the old directory, whose pages were never
    /// touched; after it, the new one, whose pages are durable. The slots
    /// only the old directory named are then quarantined under its epoch
    /// until every snapshot that could still read them has closed.
    fn publish(
        &self,
        tenant: &str,
        state: &mut TenantState,
        pages: &[Page],
        dir: PageDirectory,
    ) -> Result<(), TenantStoreError> {
        let path = self.pages_path(tenant);
        for page in pages {
            self.write_page(&path, state.slot, page)?;
        }
        self.fs
            .fsync(&path)
            .map_err(io_failure("fsync pages", &path))?;
        self.write_meta_page(&path, state.slot, &dir)?;
        self.fs
            .fsync(&path)
            .map_err(io_failure("fsync meta page", &path))?;

        let old = std::mem::replace(&mut state.dir, Arc::new(dir));
        let live: HashSet<u32> = state.dir.slots().collect();
        let freed: Vec<u32> = old.slots().filter(|s| !live.contains(s)).collect();
        if !freed.is_empty() {
            state.pending_free.push((old.epoch, freed));
        }
        state.reclaim();
        Ok(())
    }

    fn write_page(
        &self,
        path: &std::path::Path,
        tenant_slot: u64,
        page: &Page,
    ) -> Result<(), TenantStoreError> {
        let offset = page.page_no() as u64 * self.config.page_size as u64;
        // The slot may be a reused one with a stale image in the pool.
        self.pool.invalidate(PageKey {
            tenant: tenant_slot,
            page_no: page.page_no(),
        });
        self.fs
            .write_at(path, offset, &page.seal())
            .map_err(io_failure("write page", path))?;
        if let Some(m) = &self.metrics {
            m.incr(names::PAGE_WRITES, 1);
        }
        Ok(())
    }

    fn write_meta_page(
        &self,
        path: &std::path::Path,
        tenant_slot: u64,
        dir: &PageDirectory,
    ) -> Result<(), TenantStoreError> {
        let json = serde_json::to_string(dir)
            .map_err(|e| TenantStoreError::Corrupt(format!("encode directory: {e}")))?
            .into_bytes();
        let capacity = Page::capacity(self.config.page_size);
        if json.len() > capacity {
            return Err(TenantStoreError::DirectoryTooLarge {
                bytes: json.len(),
                capacity,
            });
        }
        let mut meta = Page::new(PageKind::Meta, 0, dir.epoch, self.config.page_size);
        meta.push(&json)?;
        self.write_page(path, tenant_slot, &meta)
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    /// Merge a staged batch durably for `tenant` and flush its pages.
    /// Returns the new knowledge epoch. The batch merges into the content
    /// the current pages hold and is journaled like
    /// [`DurableKnowledgeStore::commit`] journals it; the WAL append is the
    /// durability point: a crash during the page flush is recovered by
    /// rebuilding pages from the WAL on the next load. A batch that
    /// refuses leaves the WAL, the pages and the epoch as they were.
    pub fn commit(
        &self,
        tenant: &str,
        staging: StagingArea,
        label: &str,
    ) -> Result<u64, TenantStoreError> {
        let entry = self.tenant_entry(tenant, true)?;
        let mut state = lock(&entry);
        let mut set = self.current_set(tenant, &mut state)?;
        let mut journal = self.journal(tenant);
        commit_journaled(
            &mut journal,
            &mut set,
            staging,
            label,
            self.metrics.as_ref(),
        )?;
        if let Some(limit) = self.config.store.compact_after_bytes {
            if journal.byte_len().map_err(StoreError::from)? > limit {
                self.open_writer(tenant)?.compact()?;
            }
        }
        self.flush_pages(tenant, &mut state, set.state())
    }

    /// Apply one edit durably for `tenant` and flush its pages. Returns
    /// the new knowledge epoch.
    pub fn apply(&self, tenant: &str, edit: Edit) -> Result<u64, TenantStoreError> {
        let entry = self.tenant_entry(tenant, true)?;
        let mut state = lock(&entry);
        let mut set = self.current_set(tenant, &mut state)?;
        apply_journaled(&mut self.journal(tenant), &mut set, edit)?;
        self.flush_pages(tenant, &mut state, set.state())
    }

    /// The tenant's current content as a set to write through: the pages
    /// its directory names. A directory stamped with other WAL/snapshot
    /// lengths than the files have is stale — a flush failed or was cut
    /// short after its WAL append — and pages that do not read back are
    /// damaged; either way the pages are rebuilt from the WAL first, as a
    /// cold load rebuilds them.
    fn current_set(
        &self,
        tenant: &str,
        state: &mut TenantState,
    ) -> Result<KnowledgeSet, TenantStoreError> {
        if (state.dir.wal_len, state.dir.snapshot_len) == self.durable_lens(tenant)? {
            if let Ok(content) = self.read_content(tenant, state.slot, &state.dir) {
                return Ok(KnowledgeSet::from_content(content));
            }
        }
        self.rebuild(tenant, state)?;
        let content = self.read_content(tenant, state.slot, &state.dir)?;
        Ok(KnowledgeSet::from_content(content))
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    /// The tenant's current knowledge epoch (paging in if cold).
    pub fn epoch(&self, tenant: &str) -> Result<u64, TenantStoreError> {
        let entry = self.tenant_entry(tenant, false)?;
        let state = lock(&entry);
        Ok(state.dir.epoch)
    }

    /// Open an epoch snapshot: a stable read view of the tenant at its
    /// current epoch. Commits proceeding concurrently never mutate the
    /// pages this snapshot reads. Drop the snapshot to release them.
    pub fn snapshot(self: &Arc<Self>, tenant: &str) -> Result<TenantSnapshot, TenantStoreError> {
        let entry = self.tenant_entry(tenant, false)?;
        let mut state = lock(&entry);
        let dir = Arc::clone(&state.dir);
        let epoch = dir.epoch;
        *state.open_snapshots.entry(epoch).or_insert(0) += 1;
        let slot = state.slot;
        drop(state);
        Ok(TenantSnapshot {
            store: Arc::clone(self),
            tenant: tenant.to_string(),
            state: entry,
            slot,
            epoch,
            dir,
        })
    }

    /// Pin one physical page of a tenant through the pool, loading and
    /// checksum-verifying it from disk on a miss.
    fn pin_page(
        &self,
        tenant: &str,
        tenant_slot: u64,
        page_no: u32,
    ) -> Result<crate::pool::PinnedPage, TenantStoreError> {
        let path = self.pages_path(tenant);
        let page_size = self.config.page_size;
        let key = PageKey {
            tenant: tenant_slot,
            page_no,
        };
        let fs = &self.fs;
        let metrics = &self.metrics;
        let pinned = self.pool.pin_with(key, || {
            let bytes = fs.read_at(&path, page_no as u64 * page_size as u64, page_size)?;
            if let Some(m) = metrics {
                m.incr(names::PAGE_READS, 1);
            }
            match Page::decode(&bytes, page_size) {
                Ok(page) => Ok(Arc::new(page)),
                Err(e) => {
                    if let Some(m) = metrics {
                        m.incr(names::PAGE_CHECKSUM_FAILURES, 1);
                    }
                    Err(io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
                }
            }
        });
        Ok(pinned.map_err(io_failure("pin page", &path))?)
    }

    /// Materialize the content `dir` names by reading every entry page
    /// through the buffer pool (pin → decode → unpin): what a snapshot
    /// reads and what a commit writes through.
    fn read_content(
        &self,
        tenant: &str,
        tenant_slot: u64,
        dir: &PageDirectory,
    ) -> Result<KnowledgeContent, TenantStoreError> {
        let mut content = KnowledgeContent::default();
        let mut saw_meta = false;
        for &page_no in &dir.entry_pages {
            let pinned = self.pin_page(tenant, tenant_slot, page_no)?;
            for record in pinned.page().records() {
                let text = std::str::from_utf8(record)
                    .map_err(|e| TenantStoreError::Corrupt(format!("entry record utf8: {e}")))?;
                let record: EntryRecord = serde_json::from_str(text)
                    .map_err(|e| TenantStoreError::Corrupt(format!("entry record: {e}")))?;
                match record {
                    EntryRecord::Meta {
                        next_example_id,
                        next_instruction_id,
                        tick,
                    } => {
                        content.next_example_id = next_example_id;
                        content.next_instruction_id = next_instruction_id;
                        content.tick = tick;
                        saw_meta = true;
                    }
                    EntryRecord::Intent(i) => content.intents.push(i),
                    EntryRecord::Example(e) => content.examples.push(e),
                    EntryRecord::Instruction(i) => content.instructions.push(i),
                    EntryRecord::Schema(s) => content.schema_elements.push(s),
                    EntryRecord::Hint(stage, text) => content.retrieval_hints.push((stage, text)),
                }
            }
        }
        if !saw_meta && !dir.entry_pages.is_empty() {
            return Err(TenantStoreError::Corrupt(
                "entry pages lack a Meta record".into(),
            ));
        }
        Ok(content)
    }

    /// Drop a tenant's in-memory state (testing aid: forces the next
    /// access to take the cold page-in path). On-disk files are untouched.
    pub fn forget(&self, tenant: &str) {
        let mut shard = lock(self.shard_for(tenant));
        shard.remove(tenant);
    }
}

// ---------------------------------------------------------------------
// Snapshot
// ---------------------------------------------------------------------

/// A stable read view of one tenant at one knowledge epoch. Holds the
/// page directory current at open time; pages it references are never
/// overwritten while it lives (copy-on-write flushes write elsewhere).
/// Dropping the snapshot releases the freed-slot quarantine.
pub struct TenantSnapshot {
    store: Arc<TenantKnowledgeStore>,
    tenant: String,
    state: Arc<Mutex<TenantState>>,
    slot: u64,
    epoch: u64,
    dir: Arc<PageDirectory>,
}

impl fmt::Debug for TenantSnapshot {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("TenantSnapshot")
            .field("tenant", &self.tenant)
            .field("epoch", &self.epoch)
            .finish()
    }
}

impl TenantSnapshot {
    /// The tenant this snapshot reads.
    pub fn tenant(&self) -> &str {
        &self.tenant
    }

    /// The knowledge epoch this snapshot is stable at — the same value
    /// the serving caches key on.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// The page directory backing this snapshot.
    pub fn directory(&self) -> &PageDirectory {
        &self.dir
    }

    /// Materialize the knowledge content by reading every entry page
    /// through the buffer pool (pin → decode → unpin).
    pub fn content(&self) -> Result<KnowledgeContent, TenantStoreError> {
        self.store.read_content(&self.tenant, self.slot, &self.dir)
    }

    /// Materialize the knowledge set (empty audit log; see
    /// [`KnowledgeSet::from_content`]).
    pub fn knowledge_set(&self) -> Result<KnowledgeSet, TenantStoreError> {
        Ok(KnowledgeSet::from_content(self.content()?))
    }

    /// Read the stored embedding vectors through pinned pages, if an older
    /// version of this store wrote them for this epoch. `None` when the
    /// directory names no vector pages, as every flush now leaves it.
    pub fn vectors(&self) -> Result<Option<StoredVectors>, TenantStoreError> {
        if self.dir.vector_pages.is_empty() {
            return Ok(None);
        }
        let mut stream = Vec::new();
        for &page_no in &self.dir.vector_pages {
            let pinned = self.store.pin_page(&self.tenant, self.slot, page_no)?;
            let page = pinned.page();
            let record = page
                .record(0)
                .ok_or_else(|| TenantStoreError::Corrupt("vector page has no record".into()))?;
            stream.extend_from_slice(record);
        }
        decode_vector_stream(&stream).map(Some)
    }
}

impl Drop for TenantSnapshot {
    fn drop(&mut self) {
        let mut state = lock(&self.state);
        if let Some(count) = state.open_snapshots.get_mut(&self.epoch) {
            *count -= 1;
            if *count == 0 {
                state.open_snapshots.remove(&self.epoch);
            }
        }
        state.reclaim();
    }
}

// ---------------------------------------------------------------------
// Record / stream codecs
// ---------------------------------------------------------------------

fn encode_entry_records(content: &KnowledgeContent) -> Result<Vec<Vec<u8>>, TenantStoreError> {
    let mut records = Vec::new();
    let mut push = |r: &EntryRecord| -> Result<(), TenantStoreError> {
        records.push(
            serde_json::to_string(r)
                .map_err(|e| TenantStoreError::Corrupt(format!("encode record: {e}")))?
                .into_bytes(),
        );
        Ok(())
    };
    push(&EntryRecord::Meta {
        next_example_id: content.next_example_id,
        next_instruction_id: content.next_instruction_id,
        tick: content.tick,
    })?;
    for i in &content.intents {
        push(&EntryRecord::Intent(i.clone()))?;
    }
    for e in &content.examples {
        push(&EntryRecord::Example(e.clone()))?;
    }
    for i in &content.instructions {
        push(&EntryRecord::Instruction(i.clone()))?;
    }
    for s in &content.schema_elements {
        push(&EntryRecord::Schema(s.clone()))?;
    }
    for (stage, text) in &content.retrieval_hints {
        push(&EntryRecord::Hint(*stage, text.clone()))?;
    }
    Ok(records)
}

/// `[dim u32][n_examples u32][n_instructions u32][n_schema u32]` followed
/// by every vector's `f32` components little-endian, group by group: the
/// stream [`decode_vector_stream`] reads.
#[cfg(test)]
fn encode_vector_stream(v: &StoredVectors) -> Vec<u8> {
    let total = v.examples.len() + v.instructions.len() + v.schema.len();
    let mut out = Vec::with_capacity(16 + total * v.dim * 4);
    out.extend_from_slice(&(v.dim as u32).to_le_bytes());
    out.extend_from_slice(&(v.examples.len() as u32).to_le_bytes());
    out.extend_from_slice(&(v.instructions.len() as u32).to_le_bytes());
    out.extend_from_slice(&(v.schema.len() as u32).to_le_bytes());
    for group in [&v.examples, &v.instructions, &v.schema] {
        for vec in group {
            for &x in vec {
                out.extend_from_slice(&x.to_le_bytes());
            }
        }
    }
    out
}

/// Decode a vector stream an older version of this store wrote.
fn decode_vector_stream(bytes: &[u8]) -> Result<StoredVectors, TenantStoreError> {
    let corrupt = |what: &str| TenantStoreError::Corrupt(format!("vector stream: {what}"));
    if bytes.len() < 16 {
        return Err(corrupt("short header"));
    }
    let read_u32 =
        |at: usize| u32::from_le_bytes([bytes[at], bytes[at + 1], bytes[at + 2], bytes[at + 3]]);
    let dim = read_u32(0) as usize;
    let counts = [
        read_u32(4) as usize,
        read_u32(8) as usize,
        read_u32(12) as usize,
    ];
    // The header is outside input (a CRC vouches for the medium, not the
    // writer): size the body with checked arithmetic and hold it against
    // the bytes present before allocating anything. Zero-dimensional
    // vectors would let the counts claim any number of entries for free;
    // no index writes them.
    let total = counts.iter().try_fold(0usize, |n, &c| n.checked_add(c));
    let expected = total
        .and_then(|n| n.checked_mul(dim))
        .and_then(|n| n.checked_mul(4))
        .and_then(|n| n.checked_add(16));
    if expected != Some(bytes.len()) || (dim == 0 && total != Some(0)) {
        return Err(corrupt("length mismatch"));
    }
    let mut at = 16;
    let mut take_group = |count: usize| {
        let mut group = Vec::with_capacity(count);
        for _ in 0..count {
            let mut vec = Vec::with_capacity(dim);
            for _ in 0..dim {
                vec.push(f32::from_le_bytes([
                    bytes[at],
                    bytes[at + 1],
                    bytes[at + 2],
                    bytes[at + 3],
                ]));
                at += 4;
            }
            group.push(vec);
        }
        group
    };
    Ok(StoredVectors {
        dim,
        examples: take_group(counts[0]),
        instructions: take_group(counts[1]),
        schema: take_group(counts[2]),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{ArmedFs, MemFs};
    use crate::set::KnowledgeError;
    use crate::types::{ExampleId, FragmentKind, SourceRef, SqlFragment};
    use proptest::prelude::*;
    use std::sync::atomic::Ordering;

    fn edit(desc: &str) -> Edit {
        Edit::InsertExample {
            intent: None,
            description: desc.into(),
            fragment: SqlFragment::new(FragmentKind::Where, "WHERE A = 1", "main"),
            term: None,
            source: SourceRef::Manual,
        }
    }

    fn staged(descs: &[&str]) -> StagingArea {
        let mut area = StagingArea::new();
        for d in descs {
            area.stage(edit(d));
        }
        area
    }

    fn mem_store(mem: &Arc<MemFs>) -> Arc<TenantKnowledgeStore> {
        mem_store_with(mem, None)
    }

    fn mem_store_with(
        mem: &Arc<MemFs>,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Arc<TenantKnowledgeStore> {
        let fs: Arc<dyn StoreFs> = Arc::clone(mem) as Arc<dyn StoreFs>;
        Arc::new(TenantKnowledgeStore::new_with(
            fs,
            "/kb",
            TenantStoreConfig {
                page_size: 1024,
                pool_budget_bytes: 16 * 1024,
                shards: 4,
                store: StoreConfig::default(),
            },
            metrics,
        ))
    }

    #[test]
    fn directory_with_a_stored_free_list_still_decodes() {
        // Directories written before the free list was dropped still carry
        // it: decoding skips the field, and a cold load derives the list
        // from the slots the directory names.
        let json = r#"{"epoch":3,"wal_len":120,"snapshot_len":0,"entry_pages":[4,5],"vector_pages":[6],"next_physical":7,"free_slots":[1,2]}"#;
        let dir: PageDirectory = serde_json::from_str(json).unwrap();
        assert_eq!(
            dir,
            PageDirectory {
                epoch: 3,
                wal_len: 120,
                snapshot_len: 0,
                entry_pages: vec![4, 5],
                vector_pages: vec![6],
                next_physical: 7,
            }
        );
        assert_eq!(TenantState::at(0, dir).free_slots, vec![1, 2, 3]);
    }

    #[test]
    fn commit_then_snapshot_round_trips_content() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        let epoch = store
            .commit("t1", staged(&["a", "b", "c"]), "seed")
            .unwrap();
        let snap = store.snapshot("t1").unwrap();
        assert_eq!(snap.epoch(), epoch);
        let content = snap.content().unwrap();
        assert_eq!(content.examples.len(), 3);
        assert_eq!(content.examples[0].description, "a");
        // Matches the WAL-recovered set exactly.
        let ks = snap.knowledge_set().unwrap();
        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let truth = DurableKnowledgeStore::open_with(
            fs,
            "/kb/t1/knowledge.json",
            "/kb/t1/knowledge.wal",
            StoreConfig::default(),
            None,
        )
        .unwrap();
        assert!(truth.set().content_eq(&ks));
    }

    #[test]
    fn cold_load_uses_pages_without_replaying_wal() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store.commit("t1", staged(&["a", "b"]), "seed").unwrap();
        store.forget("t1");
        // Fast path: meta page validates against the WAL length.
        let snap = store.snapshot("t1").unwrap();
        assert_eq!(snap.content().unwrap().examples.len(), 2);
    }

    #[test]
    fn unknown_tenant_is_an_error() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        assert!(matches!(
            store.snapshot("ghost"),
            Err(TenantStoreError::UnknownTenant(_))
        ));
    }

    #[test]
    fn snapshot_reads_stable_view_across_concurrent_commit() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store.commit("t1", staged(&["a"]), "seed").unwrap();
        let snap = store.snapshot("t1").unwrap();
        let epoch_before = snap.epoch();
        // Commit while the snapshot is open.
        store.commit("t1", staged(&["b", "c"]), "more").unwrap();
        // The open snapshot still reads its epoch's bytes.
        let content = snap.content().unwrap();
        assert_eq!(content.examples.len(), 1);
        assert_eq!(snap.epoch(), epoch_before);
        // A fresh snapshot sees the new epoch.
        let fresh = store.snapshot("t1").unwrap();
        assert!(fresh.epoch() > epoch_before);
        assert_eq!(fresh.content().unwrap().examples.len(), 3);
    }

    #[test]
    fn freed_slots_reclaimed_only_after_snapshots_close() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store.commit("t1", staged(&["a"]), "seed").unwrap();
        let snap = store.snapshot("t1").unwrap();
        store.commit("t1", staged(&["b"]), "more").unwrap();
        {
            let entry = store.tenant_entry("t1", false).unwrap();
            let state = lock(&entry);
            assert!(
                !state.pending_free.is_empty(),
                "old pages must be quarantined while the snapshot is open"
            );
        }
        drop(snap);
        {
            let entry = store.tenant_entry("t1", false).unwrap();
            let state = lock(&entry);
            assert!(state.pending_free.is_empty(), "drop must release the slots");
            assert!(!state.free_slots.is_empty());
        }
    }

    #[test]
    fn crash_mid_flush_rebuilds_from_wal() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store.commit("t1", staged(&["a", "b"]), "seed").unwrap();
        // Corrupt the pages file wholesale; the WAL stays intact.
        mem.write_file(std::path::Path::new("/kb/t1/pages.dat"), &[0xFF; 2048])
            .unwrap();
        // A fresh store (fresh pool — a crash kills the process) rebuilds.
        let store2 = mem_store(&mem);
        let snap = store2.snapshot("t1").unwrap();
        assert_eq!(snap.content().unwrap().examples.len(), 2);
    }

    #[test]
    fn stale_pages_after_wal_append_are_rebuilt() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store.commit("t1", staged(&["a"]), "seed").unwrap();
        // Append to the WAL behind the paging layer's back (simulates a
        // crash after the WAL commit but before the page flush).
        {
            let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
            let mut writer = DurableKnowledgeStore::open_with(
                fs,
                "/kb/t1/knowledge.json",
                "/kb/t1/knowledge.wal",
                StoreConfig::default(),
                None,
            )
            .unwrap();
            writer.apply(edit("b")).unwrap();
        }
        let store2 = mem_store(&mem);
        let snap = store2.snapshot("t1").unwrap();
        assert_eq!(
            snap.content().unwrap().examples.len(),
            2,
            "stale pages must lose to the WAL"
        );
    }

    /// A batch or an edit that refuses returns the knowledge error and
    /// leaves the WAL, the pages, the directory and the epoch as they were.
    #[test]
    fn a_refused_write_leaves_no_trace() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store.commit("t1", staged(&["a", "b"]), "seed").unwrap();
        let files = || {
            let read = |name: &str| mem.read(&store.tenant_dir("t1").join(name)).unwrap();
            (read("knowledge.wal"), read("pages.dat"))
        };
        let directory = || store.snapshot("t1").unwrap().directory().clone();
        let before = (files(), directory(), store.epoch("t1").unwrap());
        let missing = ExampleId(7);
        let mut doomed = staged(&["c"]);
        doomed.stage(Edit::DeleteExample { id: missing });
        let refused = |result: Result<u64, TenantStoreError>| {
            matches!(
                result,
                Err(TenantStoreError::Store(StoreError::Knowledge(
                    KnowledgeError::NoSuchExample(id)
                ))) if id == missing
            )
        };
        assert!(refused(store.commit("t1", doomed, "doomed")));
        assert!(refused(
            store.apply("t1", Edit::DeleteExample { id: missing })
        ));
        assert_eq!((files(), directory(), store.epoch("t1").unwrap()), before);
    }

    /// A commit whose page flush fails after its WAL append leaves the
    /// directory stamped with the WAL's old length. The next commit sees
    /// the stamp disagree with the file and rebuilds from the WAL before
    /// merging, so its epoch and its pages are what a replay of the files
    /// gives — not the stale pages plus its own batch.
    #[test]
    fn a_commit_after_a_failed_flush_starts_from_the_wal() {
        let mem = Arc::new(MemFs::new());
        let armed = Arc::new(ArmedFs::over(&mem));
        let store = Arc::new(TenantKnowledgeStore::new_with(
            Arc::clone(&armed) as Arc<dyn StoreFs>,
            "/kb",
            mem_store(&mem).config().clone(),
            None,
        ));
        store.commit("t1", staged(&["a"]), "seed").unwrap();
        armed.write_at.store(true, Ordering::SeqCst);
        assert!(store.commit("t1", staged(&["b"]), "flush fails").is_err());
        armed.write_at.store(false, Ordering::SeqCst);
        let epoch = store.commit("t1", staged(&["c"]), "next").unwrap();

        let truth = DurableKnowledgeStore::open_with(
            Arc::clone(&mem) as Arc<dyn StoreFs>,
            "/kb/t1/knowledge.json",
            "/kb/t1/knowledge.wal",
            StoreConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(epoch, truth.epoch());
        let snap = store.snapshot("t1").unwrap();
        assert_eq!(snap.epoch(), epoch);
        assert_eq!(snap.content().unwrap(), truth.set().content());
    }

    /// Pages are a cache: a commit over an entry page that no longer
    /// decodes rebuilds the tenant from the WAL and commits on top, as a
    /// fresh replay of the files would.
    #[test]
    fn a_commit_over_a_damaged_page_rebuilds_from_the_wal() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store.commit("t1", staged(&["a", "b"]), "seed").unwrap();
        let page_no = store.snapshot("t1").unwrap().directory().entry_pages[0];
        let path = store.pages_path("t1");
        let offset = u64::from(page_no) * 1024 + 40;
        let byte = mem.read_at(&path, offset, 1).unwrap()[0];
        mem.write_at(&path, offset, &[byte ^ 0xFF]).unwrap();
        // A restart: the meta page still matches the WAL, so the cold load
        // trusts the directory, and the damage shows only on read.
        let store = mem_store(&mem);
        let epoch = store.commit("t1", staged(&["c"]), "next").unwrap();

        let truth = DurableKnowledgeStore::open_with(
            Arc::clone(&mem) as Arc<dyn StoreFs>,
            "/kb/t1/knowledge.json",
            "/kb/t1/knowledge.wal",
            StoreConfig::default(),
            None,
        )
        .unwrap();
        assert_eq!(epoch, truth.epoch());
        let content = store.snapshot("t1").unwrap().content().unwrap();
        assert_eq!(content, truth.set().content());
        assert_eq!(content.examples.len(), 3);
    }

    /// Publish `vectors` as vector pages of the tenant's current epoch,
    /// as stores did before page-ins stopped writing vectors back.
    fn write_vectors_as_older_stores_did(
        store: &TenantKnowledgeStore,
        tenant: &str,
        vectors: &StoredVectors,
    ) -> Vec<u32> {
        let entry = store.tenant_entry(tenant, false).unwrap();
        let mut state = lock(&entry);
        let (epoch, page_size) = (state.dir.epoch, store.config.page_size);
        let mut pages = Vec::new();
        for chunk in encode_vector_stream(vectors).chunks(Page::capacity(page_size)) {
            let mut page = Page::new(PageKind::Vector, state.alloc(), epoch, page_size);
            page.push(chunk).unwrap();
            pages.push(page);
        }
        let dir = PageDirectory {
            vector_pages: pages.iter().map(Page::page_no).collect(),
            next_physical: state.next_physical,
            ..(*state.dir).clone()
        };
        store.publish(tenant, &mut state, &pages, dir).unwrap();
        pages.iter().map(Page::page_no).collect()
    }

    /// Vectors an older store wrote over several pages read back whole
    /// after a cold load; the next commit publishes a directory without
    /// them and frees their slots.
    #[test]
    fn vectors_survive_cold_load() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store.commit("t1", staged(&["a"]), "seed").unwrap();
        // Large enough to span multiple 1 KiB pages.
        let vectors = StoredVectors {
            dim: 200,
            examples: vec![(0..200).map(|i| i as f32 * 0.5).collect(); 4],
            instructions: vec![(0..200).map(|i| -(i as f32)).collect()],
            schema: vec![],
        };
        let slots = write_vectors_as_older_stores_did(&store, "t1", &vectors);
        assert!(slots.len() > 1);
        store.forget("t1");
        let snap = store.snapshot("t1").unwrap();
        assert_eq!(snap.vectors().unwrap().unwrap(), vectors);
        drop(snap);

        store.commit("t1", staged(&["b"]), "more").unwrap();
        let snap = store.snapshot("t1").unwrap();
        assert!(snap.directory().vector_pages.is_empty());
        assert!(snap.vectors().unwrap().is_none());
        drop(snap);
        let entry = store.tenant_entry("t1", false).unwrap();
        let state = lock(&entry);
        assert!(slots.iter().all(|s| state.free_slots.contains(s)));
    }

    #[test]
    fn cold_load_reuses_the_slots_its_last_flush_freed() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        for round in 0..8 {
            for tenant in ["warm", "cold"] {
                store
                    .commit(tenant, staged(&[&format!("r{round}")]), "round")
                    .unwrap();
                // The round's last flush supersedes every page above; the
                // meta page it writes cannot list them as free yet.
                store
                    .apply(tenant, edit(&format!("r{round} late")))
                    .unwrap();
            }
            // The cold twin is dropped from memory after every round, as
            // every tenant is on a restart.
            store.forget("cold");
        }
        let len = |tenant: &str| {
            mem.len(std::path::Path::new(&format!("/kb/{tenant}/pages.dat")))
                .unwrap()
        };
        assert_eq!(len("cold"), len("warm"), "a cold load leaked free slots");
        assert_eq!(
            store.snapshot("cold").unwrap().content().unwrap(),
            store.snapshot("warm").unwrap().content().unwrap()
        );
    }

    #[test]
    fn many_tenants_independent_and_pool_bounded() {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        for i in 0..40 {
            let tenant = format!("t{i}");
            store
                .commit(&tenant, staged(&[&format!("example-{i}")]), "seed")
                .unwrap();
        }
        for i in 0..40 {
            let tenant = format!("t{i}");
            let snap = store.snapshot(&tenant).unwrap();
            let content = snap.content().unwrap();
            assert_eq!(content.examples[0].description, format!("example-{i}"));
        }
        let stats = store.pool().stats();
        assert!(
            stats.resident_bytes <= 16 * 1024,
            "pool resident {} exceeds budget",
            stats.resident_bytes
        );
    }

    #[test]
    fn crafted_vector_headers_are_corrupt_not_fatal() {
        let stream = |dim: u32, counts: [u32; 3], body: usize| {
            let mut bytes = Vec::new();
            for word in [dim, counts[0], counts[1], counts[2]] {
                bytes.extend_from_slice(&word.to_le_bytes());
            }
            bytes.resize(16 + body, 0);
            bytes
        };
        for crafted in [
            // 16 + 2^31 * 2^31 * 4 wraps to 16: passes an unchecked length
            // test, then asks the allocator for 2^31 vectors.
            stream(1 << 31, [1 << 31, 0, 0], 0),
            // Zero-width vectors: any count "fits" in no bytes at all.
            stream(0, [1 << 31, 0, 0], 0),
            // A plausible header over a body one vector short.
            stream(4, [2, 1, 0], 2 * 4 * 4),
        ] {
            assert!(matches!(
                decode_vector_stream(&crafted),
                Err(TenantStoreError::Corrupt(_))
            ));
        }
        // The same plausible header over its full body decodes.
        let whole = decode_vector_stream(&stream(4, [2, 1, 0], 3 * 4 * 4)).unwrap();
        assert_eq!((whole.examples.len(), whole.instructions.len()), (2, 1));
    }

    /// A CRC-valid directory that names more than its pages file holds —
    /// re-sealed with a `next_physical` far past the file, or with a named
    /// slot at `next_physical` — is rebuilt from the WAL on the next cold
    /// load: same content, one more `store.page.rebuilds`, and a free
    /// list no longer than the file.
    #[test]
    fn directory_past_its_pages_file_is_rebuilt_from_the_wal() {
        let reseals: [fn(&mut PageDirectory); 2] = [
            |dir| dir.next_physical = 20_000_000,
            |dir| dir.next_physical = dir.slots().max().unwrap(),
        ];
        for reseal in reseals {
            let mem = Arc::new(MemFs::new());
            let metrics = Arc::new(MetricsRegistry::default());
            let store = mem_store_with(&mem, Some(Arc::clone(&metrics)));
            store.commit("t1", staged(&["a", "b"]), "seed").unwrap();
            let want = store.snapshot("t1").unwrap().content().unwrap();
            let path = store.pages_path("t1");
            let mut dir = store.read_meta_page("t1").unwrap();
            reseal(&mut dir);
            store.write_meta_page(&path, 0, &dir).unwrap();
            store.forget("t1");

            let rebuilds = metrics.counter(names::PAGE_REBUILDS);
            assert_eq!(store.snapshot("t1").unwrap().content().unwrap(), want);
            assert_eq!(metrics.counter(names::PAGE_REBUILDS), rebuilds + 1);
            let file_slots = mem.len(&path).unwrap() / 1024;
            let entry = store.tenant_entry("t1", false).unwrap();
            let state = lock(&entry);
            assert!(state.free_slots.len() as u64 <= file_slots);
            assert!(u64::from(state.next_physical) <= file_slots);
        }
    }

    /// A store on 1 KiB pages holding one committed tenant, `t1`, and
    /// that tenant's meta page as it was written.
    fn store_with_meta_page() -> (Arc<MemFs>, Arc<TenantKnowledgeStore>, Vec<u8>) {
        let mem = Arc::new(MemFs::new());
        let store = mem_store(&mem);
        store.commit("t1", staged(&["a", "b"]), "seed").unwrap();
        let meta = mem.read_at(&store.pages_path("t1"), 0, 1024).unwrap();
        (mem, store, meta)
    }

    /// Flip bit `bit` of byte `at % len` for each `(at, bit)`.
    fn flip(bytes: &mut [u8], flips: &[(u32, u8)]) {
        let len = bytes.len();
        for &(at, bit) in flips {
            bytes[at as usize % len] ^= 1 << bit;
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The meta page read back from arbitrary bytes (the whole file,
        /// shorter or longer than a page), from the written page with raw
        /// bit flips, and from its directory record with bit flips or
        /// from an arbitrary record, re-sealed under a fresh CRC so that
        /// they reach the JSON decoder. `read_meta_page` returns: a
        /// directory that re-encodes to itself, or an error; it never
        /// panics.
        #[test]
        fn meta_page_read_returns_on_arbitrary_and_bit_flipped_bytes(
            shape in 0u8..4,
            arbitrary in prop::collection::vec(any::<u8>(), 0..1100),
            flips in prop::collection::vec((any::<u32>(), 0u8..8), 1..5),
        ) {
            let (mem, store, meta) = store_with_meta_page();
            let path = store.pages_path("t1");
            match shape {
                0 => mem.write_file(&path, &arbitrary).unwrap(),
                1 => {
                    let mut bytes = meta;
                    flip(&mut bytes, &flips);
                    mem.write_at(&path, 0, &bytes).unwrap();
                }
                _ => {
                    let record = if shape == 2 {
                        let page = Page::decode(&meta, 1024).unwrap();
                        let mut record = page.record(0).unwrap().to_vec();
                        // One flip: more would rarely leave valid JSON.
                        flip(&mut record, &flips[..1]);
                        record
                    } else {
                        arbitrary[..arbitrary.len().min(Page::capacity(1024))].to_vec()
                    };
                    let mut page = Page::new(PageKind::Meta, 0, 1, 1024);
                    page.push(&record).unwrap();
                    mem.write_at(&path, 0, &page.seal()).unwrap();
                }
            }
            if let Ok(dir) = store.read_meta_page("t1") {
                let json = serde_json::to_string(&dir).unwrap();
                prop_assert_eq!(serde_json::from_str::<PageDirectory>(&json).unwrap(), dir);
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Header words (small or arbitrary) over an arbitrary body, which
        /// with `fit` is cut or padded to the length the header claims,
        /// when that is small: the stream decodes, and re-encodes to the
        /// same bytes, or is `Corrupt`; it never panics.
        #[test]
        fn vector_stream_decode_returns_on_arbitrary_headers(
            words in prop::collection::vec(prop_oneof![0u32..4, any::<u32>()], 4..5),
            body in prop::collection::vec(any::<u8>(), 0..160),
            fit in any::<bool>(),
        ) {
            let mut bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
            bytes.extend_from_slice(&body);
            let vectors: u64 = words[1..].iter().map(|&c| u64::from(c)).sum();
            let claimed = vectors.saturating_mul(u64::from(words[0]) * 4);
            if fit && claimed <= 4096 {
                bytes.resize(16 + claimed as usize, 0);
            }
            match decode_vector_stream(&bytes) {
                Ok(v) => prop_assert_eq!(encode_vector_stream(&v), bytes),
                Err(e) => prop_assert!(matches!(e, TenantStoreError::Corrupt(_)), "{:?}", e),
            }
        }
    }

    #[test]
    fn vector_stream_codec_round_trips() {
        let v = StoredVectors {
            dim: 2,
            examples: vec![vec![1.5, -2.5]],
            instructions: vec![vec![0.0, 3.25], vec![7.0, -1.0]],
            schema: vec![],
        };
        let bytes = encode_vector_stream(&v);
        assert_eq!(decode_vector_stream(&bytes).unwrap(), v);
        assert!(decode_vector_stream(&bytes[..bytes.len() - 1]).is_err());
        assert!(decode_vector_stream(&bytes[..10]).is_err());
    }
}
