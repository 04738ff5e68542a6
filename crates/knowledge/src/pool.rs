//! Buffer-pool manager: pinned frames, clock eviction, memory budget.
//!
//! The pool caches decoded [`Page`]s across all tenants under a single
//! byte budget so hot tenants stay resident while cold tenants page in
//! on demand. Three rules govern it:
//!
//! 1. **Pin/unpin reference counting.** [`BufferPool::pin_with`] returns
//!    a [`PinnedPage`] RAII guard; while any guard for a frame is alive
//!    the frame cannot be evicted, so readers never observe a page being
//!    reclaimed under them. Dropping the guard unpins.
//! 2. **Clock (second-chance) eviction.** When admitting a page would
//!    exceed the budget, a clock hand sweeps the frames: pinned frames
//!    are skipped, referenced frames get their bit cleared and a second
//!    chance, and the first unpinned unreferenced frame is reclaimed.
//! 3. **Frames are clean by construction.** Pages are immutable once
//!    pooled — the tenant store writes new page versions to disk *before*
//!    publishing them (copy-on-write), so eviction never writes back and
//!    losing the pool loses nothing.
//!
//! If every frame is pinned the pool admits past the budget rather than
//! deadlock, and counts the overcommit ([`names::POOL_OVERCOMMITS`]);
//! the budget is a target enforced whenever any unpinned frame exists.
//!
//! ```
//! use std::sync::Arc;
//! use genedit_knowledge::page::{Page, PageKind, DEFAULT_PAGE_SIZE};
//! use genedit_knowledge::pool::{BufferPool, PageKey, PoolConfig};
//!
//! let pool = Arc::new(BufferPool::new(PoolConfig {
//!     budget_bytes: 64 * 1024,
//!     ..PoolConfig::default()
//! }));
//! let key = PageKey { tenant: 3, page_no: 0 };
//! let pinned = pool
//!     .pin_with(key, || {
//!         // Loader runs only on a miss — normally a checksummed read
//!         // from the tenant's page file.
//!         let mut page = Page::new(PageKind::Entry, 0, 1, DEFAULT_PAGE_SIZE);
//!         page.push(b"record").unwrap();
//!         Ok(Arc::new(page))
//!     })
//!     .unwrap();
//! assert_eq!(pinned.page().record(0).unwrap(), b"record");
//! drop(pinned); // unpin: the frame is now evictable
//! ```

use crate::lock;
use crate::page::{Page, DEFAULT_PAGE_SIZE};
use genedit_telemetry::{names, MetricsRegistry};
use std::collections::HashMap;
use std::io;
use std::sync::{Arc, Mutex, MutexGuard};

/// Buffer-pool sizing.
#[derive(Debug, Clone)]
pub struct PoolConfig {
    /// Target bytes of resident page data across all tenants. The pool
    /// evicts unpinned frames to stay at or under this.
    pub budget_bytes: usize,
    /// Page size the pool accounts with (all pages share one size).
    pub page_size: usize,
}

impl Default for PoolConfig {
    fn default() -> PoolConfig {
        PoolConfig {
            budget_bytes: 64 * 1024 * 1024,
            page_size: DEFAULT_PAGE_SIZE,
        }
    }
}

/// Identifies one page across the whole pool: a tenant slot (assigned by
/// the tenant store) plus the physical page number in that tenant's file.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PageKey {
    /// Tenant slot id.
    pub tenant: u64,
    /// Physical page number within the tenant's page file.
    pub page_no: u32,
}

#[derive(Debug)]
struct Frame {
    key: PageKey,
    page: Arc<Page>,
    pins: u32,
    /// Clock reference bit: set on every hit, cleared by the sweep.
    referenced: bool,
}

#[derive(Debug, Default)]
struct PoolState {
    map: HashMap<PageKey, usize>,
    frames: Vec<Option<Frame>>,
    free: Vec<usize>,
    hand: usize,
    /// What happened and what is resident, under the same lock as the
    /// frames it describes.
    stats: PoolStats,
}

/// Point-in-time counters for tests and benches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PoolStats {
    /// Requests served from a resident frame.
    pub hits: u64,
    /// Requests that ran the loader.
    pub misses: u64,
    /// Frames evicted by the clock sweep.
    pub evictions: u64,
    /// Admissions past the budget because all frames were pinned.
    pub overcommits: u64,
    /// Bytes of page data currently resident.
    pub resident_bytes: usize,
    /// Frames currently pinned.
    pub pinned_frames: usize,
}

/// The shared buffer pool. Construct once, share via `Arc`, and pin
/// pages with [`BufferPool::pin_with`]. See the module docs for the
/// eviction protocol.
pub struct BufferPool {
    config: PoolConfig,
    state: Mutex<PoolState>,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl std::fmt::Debug for BufferPool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stats = self.stats();
        f.debug_struct("BufferPool")
            .field("budget_bytes", &self.config.budget_bytes)
            .field("resident_bytes", &stats.resident_bytes)
            .field("pinned_frames", &stats.pinned_frames)
            .finish()
    }
}

impl BufferPool {
    /// A pool with the given budget; no metrics.
    pub fn new(config: PoolConfig) -> BufferPool {
        BufferPool::with_metrics(config, None)
    }

    /// A pool that reports `store.pool.*` counters and gauges.
    pub fn with_metrics(config: PoolConfig, metrics: Option<Arc<MetricsRegistry>>) -> BufferPool {
        BufferPool {
            config,
            state: Mutex::new(PoolState::default()),
            metrics,
        }
    }

    /// The configured sizing.
    pub fn config(&self) -> &PoolConfig {
        &self.config
    }

    /// Pin an already-resident frame; `None` on miss. Takes the lock.
    fn try_pin_resident(&self, key: PageKey) -> Option<Arc<Page>> {
        let mut state = lock(&self.state);
        let idx = *state.map.get(&key)?;
        let frame = state.frames[idx].as_mut()?;
        frame.referenced = true;
        frame.pins += 1;
        let newly_pinned = frame.pins == 1;
        let page = Arc::clone(&frame.page);
        state.stats.hits += 1;
        state.stats.pinned_frames += newly_pinned as usize;
        let stats = state.stats;
        drop(state);
        self.incr(names::POOL_HIT, 1);
        self.set_gauges(stats);
        Some(page)
    }

    /// Pin the page under `key`, running `loader` only on a miss. The
    /// returned guard keeps the frame resident until dropped. Loader
    /// errors propagate without admitting anything.
    pub fn pin_with(
        self: &Arc<Self>,
        key: PageKey,
        loader: impl FnOnce() -> io::Result<Arc<Page>>,
    ) -> io::Result<PinnedPage> {
        let pinned = |page| PinnedPage {
            pool: Arc::clone(self),
            key,
            page,
        };
        // Fast path: already resident.
        if let Some(page) = self.try_pin_resident(key) {
            return Ok(pinned(page));
        }

        // Miss: load outside the lock so slow disk I/O for one tenant
        // never blocks hits for others.
        let page = loader()?;

        // Another thread may have admitted the same key while we loaded;
        // reuse its frame and drop our copy.
        loop {
            if let Some(page) = self.try_pin_resident(key) {
                return Ok(pinned(page));
            }
            let state = lock(&self.state);
            if !state.map.contains_key(&key) {
                self.admit(state, key, Arc::clone(&page));
                return Ok(pinned(page));
            }
            // Admitted between the pin attempt and the lock — retry the pin.
        }
    }

    /// Admit a freshly loaded page, pinned once, under the lock the caller
    /// took to see it absent; evicts to budget first.
    fn admit(&self, mut state: MutexGuard<'_, PoolState>, key: PageKey, page: Arc<Page>) {
        let page_bytes = page.page_size();
        // Evict until the new page fits (or nothing evictable remains).
        let mut evicted = 0u64;
        while state.stats.resident_bytes + page_bytes > self.config.budget_bytes {
            if !Self::evict_one(&mut state) {
                break;
            }
            evicted += 1;
        }
        let overcommitted = state.stats.resident_bytes + page_bytes > self.config.budget_bytes;

        let idx = match state.free.pop() {
            Some(idx) => idx,
            None => {
                state.frames.push(None);
                state.frames.len() - 1
            }
        };
        state.frames[idx] = Some(Frame {
            key,
            page,
            pins: 1,
            referenced: true,
        });
        state.map.insert(key, idx);
        state.stats.resident_bytes += page_bytes;
        state.stats.pinned_frames += 1;
        state.stats.misses += 1;
        state.stats.evictions += evicted;
        state.stats.overcommits += overcommitted as u64;
        let stats = state.stats;
        drop(state);
        self.incr(names::POOL_MISS, 1);
        self.incr(names::POOL_EVICTIONS, evicted);
        self.incr(names::POOL_OVERCOMMITS, overcommitted as u64);
        self.set_gauges(stats);
    }

    /// One clock sweep step: reclaim the first unpinned, unreferenced
    /// frame (clearing reference bits along the way). `false` when every
    /// frame is pinned.
    fn evict_one(state: &mut PoolState) -> bool {
        let frame_count = state.frames.len();
        if frame_count == 0 {
            return false;
        }
        // Two full sweeps: the first clears reference bits, the second
        // then finds any unpinned frame. More passes can't help.
        for _ in 0..(2 * frame_count) {
            let idx = state.hand % frame_count;
            state.hand = (state.hand + 1) % frame_count;
            let Some(frame) = state.frames[idx].as_mut() else {
                continue;
            };
            if frame.pins > 0 {
                continue;
            }
            if frame.referenced {
                frame.referenced = false;
                continue;
            }
            let key = frame.key;
            let bytes = frame.page.page_size();
            state.frames[idx] = None;
            state.free.push(idx);
            state.map.remove(&key);
            state.stats.resident_bytes -= bytes;
            return true;
        }
        false
    }

    fn unpin(&self, key: PageKey) {
        let mut state = lock(&self.state);
        if let Some(&idx) = state.map.get(&key) {
            if let Some(frame) = state.frames[idx].as_mut() {
                frame.pins = frame.pins.saturating_sub(1);
                if frame.pins == 0 {
                    state.stats.pinned_frames = state.stats.pinned_frames.saturating_sub(1);
                }
            }
        }
        let stats = state.stats;
        drop(state);
        self.set_gauges(stats);
    }

    /// Drop the frame under `key` if resident and unpinned — used when a
    /// physical page slot is reused for a new page version and the cached
    /// image would be stale. Pinned frames are left alone (their readers
    /// hold a snapshot that still owns the old slot).
    pub fn invalidate(&self, key: PageKey) {
        let mut state = lock(&self.state);
        if let Some(&idx) = state.map.get(&key) {
            if let Some(frame) = state.frames[idx].as_ref() {
                if frame.pins == 0 {
                    let bytes = frame.page.page_size();
                    state.frames[idx] = None;
                    state.free.push(idx);
                    state.map.remove(&key);
                    state.stats.resident_bytes -= bytes;
                }
            }
        }
        let stats = state.stats;
        drop(state);
        self.set_gauges(stats);
    }

    /// Current counters and residency.
    pub fn stats(&self) -> PoolStats {
        lock(&self.state).stats
    }

    /// Count an event into the registry where it happens, after the
    /// state lock has dropped.
    fn incr(&self, name: &str, by: u64) {
        if let Some(metrics) = &self.metrics {
            metrics.incr(name, by);
        }
    }

    /// Set the residency gauges to `stats`, the values the caller read
    /// under the lock it has just dropped — reporting never re-locks.
    fn set_gauges(&self, stats: PoolStats) {
        if let Some(metrics) = &self.metrics {
            metrics.set_gauge(names::POOL_RESIDENT_BYTES, stats.resident_bytes as f64);
            metrics.set_gauge(names::POOL_PINNED, stats.pinned_frames as f64);
        }
    }
}

/// RAII pin on one pooled page. While alive the frame cannot be evicted;
/// drop to unpin. Clone the inner [`Arc<Page>`] via [`PinnedPage::page`]
/// if the bytes must outlive the pin.
pub struct PinnedPage {
    pool: Arc<BufferPool>,
    key: PageKey,
    page: Arc<Page>,
}

impl PinnedPage {
    /// The pinned page.
    pub fn page(&self) -> &Arc<Page> {
        &self.page
    }

    /// The key this pin holds.
    pub fn key(&self) -> PageKey {
        self.key
    }
}

impl std::fmt::Debug for PinnedPage {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PinnedPage")
            .field("key", &self.key)
            .finish()
    }
}

impl Drop for PinnedPage {
    fn drop(&mut self) {
        self.pool.unpin(self.key);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::page::PageKind;

    fn test_page(no: u32, size: usize) -> Arc<Page> {
        Arc::new(Page::new(PageKind::Entry, no, 1, size))
    }

    fn small_pool(pages: usize) -> Arc<BufferPool> {
        Arc::new(BufferPool::new(PoolConfig {
            budget_bytes: pages * 256,
            page_size: 256,
        }))
    }

    fn key(tenant: u64, page_no: u32) -> PageKey {
        PageKey { tenant, page_no }
    }

    #[test]
    fn hit_after_miss_without_reloading() {
        let pool = small_pool(4);
        let p1 = pool.pin_with(key(1, 0), || Ok(test_page(0, 256))).unwrap();
        drop(p1);
        let p2 = pool
            .pin_with(key(1, 0), || panic!("must not reload a resident page"))
            .unwrap();
        assert_eq!(p2.page().page_no(), 0);
        let stats = pool.stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
    }

    #[test]
    fn budget_is_enforced_by_eviction() {
        let pool = small_pool(2);
        for i in 0..10 {
            let pinned = pool.pin_with(key(1, i), || Ok(test_page(i, 256))).unwrap();
            drop(pinned);
        }
        let stats = pool.stats();
        assert!(
            stats.resident_bytes <= 2 * 256,
            "resident {} exceeds budget",
            stats.resident_bytes
        );
        assert_eq!(stats.evictions, 8);
        assert_eq!(stats.overcommits, 0);
    }

    #[test]
    fn pinned_pages_are_never_evicted() {
        let pool = small_pool(2);
        let held = pool.pin_with(key(1, 0), || Ok(test_page(0, 256))).unwrap();
        // Fill well past the budget while the pin is held.
        for i in 1..10 {
            drop(pool.pin_with(key(1, i), || Ok(test_page(i, 256))).unwrap());
        }
        // The pinned page is still resident: pinning again is a hit.
        let hits_before = pool.stats().hits;
        drop(
            pool.pin_with(key(1, 0), || panic!("pinned page was evicted"))
                .unwrap(),
        );
        assert_eq!(pool.stats().hits, hits_before + 1);
        drop(held);
    }

    #[test]
    fn all_pinned_overcommits_instead_of_deadlocking() {
        let pool = small_pool(2);
        let _a = pool.pin_with(key(1, 0), || Ok(test_page(0, 256))).unwrap();
        let _b = pool.pin_with(key(1, 1), || Ok(test_page(1, 256))).unwrap();
        let _c = pool.pin_with(key(1, 2), || Ok(test_page(2, 256))).unwrap();
        let stats = pool.stats();
        assert!(stats.resident_bytes > 2 * 256);
        assert!(stats.overcommits >= 1);
    }

    #[test]
    fn second_chance_prefers_unreferenced_frames() {
        let pool = small_pool(2);
        drop(pool.pin_with(key(1, 0), || Ok(test_page(0, 256))).unwrap());
        drop(pool.pin_with(key(1, 1), || Ok(test_page(1, 256))).unwrap());
        // Admitting page 2 evicts one frame and clears the survivor's
        // reference bit. Resident now: page 2 (referenced, just admitted)
        // and one old page (unreferenced).
        drop(pool.pin_with(key(1, 2), || Ok(test_page(2, 256))).unwrap());
        // Admitting page 3 must take the unreferenced old page and give
        // the freshly referenced page 2 its second chance.
        drop(pool.pin_with(key(1, 3), || Ok(test_page(3, 256))).unwrap());
        let hits_before = pool.stats().hits;
        drop(
            pool.pin_with(key(1, 2), || panic!("referenced page was evicted"))
                .unwrap(),
        );
        assert_eq!(pool.stats().hits, hits_before + 1, "page 2 was evicted");
    }

    #[test]
    fn invalidate_drops_unpinned_skips_pinned() {
        let pool = small_pool(4);
        let held = pool.pin_with(key(1, 0), || Ok(test_page(0, 256))).unwrap();
        pool.invalidate(key(1, 0));
        // Pinned: still resident.
        assert_eq!(pool.stats().resident_bytes, 256);
        drop(held);
        pool.invalidate(key(1, 0));
        assert_eq!(pool.stats().resident_bytes, 0);
        // Re-pin runs the loader again.
        drop(pool.pin_with(key(1, 0), || Ok(test_page(0, 256))).unwrap());
        assert_eq!(pool.stats().misses, 2);
    }

    #[test]
    fn metrics_gauges_track_residency() {
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = Arc::new(BufferPool::with_metrics(
            PoolConfig {
                budget_bytes: 4 * 256,
                page_size: 256,
            },
            Some(Arc::clone(&metrics)),
        ));
        let pinned = pool.pin_with(key(1, 0), || Ok(test_page(0, 256))).unwrap();
        assert_eq!(metrics.gauge(names::POOL_RESIDENT_BYTES), Some(256.0));
        assert_eq!(metrics.gauge(names::POOL_PINNED), Some(1.0));
        drop(pinned);
        assert_eq!(metrics.gauge(names::POOL_PINNED), Some(0.0));
    }

    #[test]
    fn metrics_counters_mirror_pool_stats() {
        let metrics = Arc::new(MetricsRegistry::new());
        let pool = Arc::new(BufferPool::with_metrics(
            PoolConfig {
                budget_bytes: 2 * 256,
                page_size: 256,
            },
            Some(Arc::clone(&metrics)),
        ));
        // Fill the 2-frame budget, then admit more to force evictions.
        for no in 0..4u32 {
            drop(
                pool.pin_with(key(1, no), || Ok(test_page(no, 256)))
                    .unwrap(),
            );
        }
        drop(pool.pin_with(key(1, 0), || Ok(test_page(0, 256))).unwrap());
        // Hold both frames pinned so the next admission overcommits, hit
        // one of them again, then let go and invalidate.
        let a = pool.pin_with(key(1, 0), || Ok(test_page(0, 256))).unwrap();
        let b = pool.pin_with(key(1, 9), || Ok(test_page(9, 256))).unwrap();
        let c = pool.pin_with(key(1, 8), || Ok(test_page(8, 256))).unwrap();
        drop(pool.pin_with(key(1, 9), || panic!("resident")).unwrap());
        drop((a, b, c));
        pool.invalidate(key(1, 8));
        let stats = pool.stats();
        assert!(stats.hits > 0 && stats.evictions > 0 && stats.overcommits > 0);
        assert_eq!(metrics.counter(names::POOL_HIT), stats.hits);
        assert_eq!(metrics.counter(names::POOL_MISS), stats.misses);
        assert_eq!(metrics.counter(names::POOL_EVICTIONS), stats.evictions);
        assert_eq!(metrics.counter(names::POOL_OVERCOMMITS), stats.overcommits);
        assert_eq!(
            metrics.gauge(names::POOL_RESIDENT_BYTES),
            Some(stats.resident_bytes as f64)
        );
        assert_eq!(
            metrics.gauge(names::POOL_PINNED),
            Some(stats.pinned_frames as f64)
        );
    }
}
