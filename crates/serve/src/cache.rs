//! Epoch-keyed, capacity-bounded caches.
//!
//! Cache keys embed the **knowledge epoch** — the deployed knowledge
//! set's edit-log length, as reported by `DurableKnowledgeStore::epoch`.
//! A committed edit batch bumps the epoch, so every entry written under
//! the old epoch silently stops matching: no invalidation scan, no stale
//! answers after a knowledge deploy. Stale entries age out of the LRU
//! bound like any other cold entry. Keys hold the question text itself,
//! not a hash of it, so two distinct questions can never share an entry.

use crate::lock;
use std::borrow::Borrow;
use std::collections::HashMap;
use std::hash::Hash;
use std::sync::Mutex;

/// Cache key: `(tenant, question, knowledge epoch)`. Tenant scoping
/// keeps one tenant's results invisible to another even for identical
/// question text.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct CacheKey {
    /// Tenant the entry belongs to.
    pub tenant: String,
    /// The question text, exactly as asked.
    pub question: String,
    /// Knowledge epoch the entry was computed under.
    pub epoch: u64,
}

impl CacheKey {
    /// Key for `question` as asked by `tenant` under `epoch`.
    pub fn new(tenant: &str, question: &str, epoch: u64) -> CacheKey {
        CacheKey {
            tenant: tenant.to_string(),
            question: question.to_string(),
            epoch,
        }
    }
}

/// A least-recently-used map: the one recency bookkeeping behind both
/// [`EpochCache`] and the tenant directory. Not thread-safe and not
/// self-bounding — the owner wraps it in its mutex and names the bound
/// on every insert.
pub(crate) struct Lru<K, V> {
    map: HashMap<K, (V, u64)>,
    tick: u64,
}

impl<K: Hash + Eq + Clone, V> Lru<K, V> {
    pub fn new() -> Lru<K, V> {
        Lru {
            map: HashMap::new(),
            tick: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Look up a key, refreshing its recency on hit.
    pub fn get<Q: Hash + Eq + ?Sized>(&mut self, key: &Q) -> Option<&V>
    where
        K: Borrow<Q>,
    {
        self.tick += 1;
        let tick = self.tick;
        self.map.get_mut(key).map(|(value, last_used)| {
            *last_used = tick;
            &*value
        })
    }

    /// Insert (or replace) an entry as the most recent, then evict the
    /// least-recently-used ones down to `capacity`. Returns the evicted
    /// values, for the owner to drop once it has released its lock.
    #[must_use]
    pub fn insert(&mut self, key: K, value: V, capacity: usize) -> Vec<V> {
        self.tick += 1;
        self.map.insert(key, (value, self.tick));
        let mut evicted = Vec::new();
        while self.map.len() > capacity {
            // O(n) scan is fine: capacity is a small config bound, not
            // data-sized.
            let Some(coldest) = self
                .map
                .iter()
                .min_by_key(|(_, (_, last_used))| *last_used)
                .map(|(key, _)| key.clone())
            else {
                break;
            };
            evicted.extend(self.map.remove(&coldest).map(|(value, _)| value));
        }
        evicted
    }

    pub fn remove<Q: Hash + Eq + ?Sized>(&mut self, key: &Q)
    where
        K: Borrow<Q>,
    {
        self.map.remove(key);
    }
}

/// A thread-safe bounded LRU map keyed by [`CacheKey`]. Capacity 0
/// disables the cache entirely (every `get` misses, `insert` is a no-op).
pub struct EpochCache<V> {
    inner: Mutex<Lru<CacheKey, V>>,
    capacity: usize,
}

impl<V: Clone> EpochCache<V> {
    /// Cache holding at most `capacity` entries (0 disables caching).
    pub fn new(capacity: usize) -> EpochCache<V> {
        EpochCache {
            inner: Mutex::new(Lru::new()),
            capacity,
        }
    }

    /// The configured entry bound.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of live entries.
    pub fn len(&self) -> usize {
        lock(&self.inner).len()
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Look up a key, refreshing its recency on hit. The clone is taken
    /// under the cache lock: cache an `Arc` of a value that is costly to
    /// copy.
    pub fn get(&self, key: &CacheKey) -> Option<V> {
        if self.capacity == 0 {
            return None;
        }
        lock(&self.inner).get(key).cloned()
    }

    /// Insert (or refresh) an entry. Returns the number of entries
    /// evicted to stay within capacity (0 or 1); they drop after the
    /// cache lock is released.
    pub fn insert(&self, key: CacheKey, value: V) -> usize {
        if self.capacity == 0 {
            return 0;
        }
        let evicted = lock(&self.inner).insert(key, value, self.capacity);
        evicted.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn key(tenant: &str, q: &str, epoch: u64) -> CacheKey {
        CacheKey::new(tenant, q, epoch)
    }

    #[test]
    fn epoch_bump_is_a_miss() {
        let cache = EpochCache::new(8);
        cache.insert(key("acme", "q1", 0), 41);
        assert_eq!(cache.get(&key("acme", "q1", 0)), Some(41));
        assert_eq!(cache.get(&key("acme", "q1", 1)), None);
    }

    #[test]
    fn tenants_are_isolated() {
        let cache = EpochCache::new(8);
        cache.insert(key("acme", "q1", 0), 1);
        assert_eq!(cache.get(&key("globex", "q1", 0)), None);
    }

    #[test]
    fn distinct_questions_never_share_a_key() {
        // Keys compare the whole text: questions that differ in one byte
        // are distinct keys with distinct entries.
        let questions = [
            "revenue by quarter",
            "Revenue by quarter",
            "revenue by quarter ",
        ];
        let cache = EpochCache::new(8);
        for (i, q) in questions.iter().enumerate() {
            cache.insert(key("t", q, 0), i);
        }
        for (i, q) in questions.iter().enumerate() {
            assert_eq!(cache.get(&key("t", q, 0)), Some(i), "{q:?}");
            for other in &questions[i + 1..] {
                assert_ne!(key("t", q, 0), key("t", other, 0));
            }
        }
    }

    #[test]
    fn lru_eviction_prefers_cold_entries() {
        let cache = EpochCache::new(2);
        assert_eq!(cache.insert(key("t", "a", 0), 1), 0);
        assert_eq!(cache.insert(key("t", "b", 0), 2), 0);
        // Touch "a" so "b" is the LRU victim.
        assert_eq!(cache.get(&key("t", "a", 0)), Some(1));
        assert_eq!(cache.insert(key("t", "c", 0), 3), 1);
        assert_eq!(cache.get(&key("t", "a", 0)), Some(1));
        assert_eq!(cache.get(&key("t", "b", 0)), None);
        assert_eq!(cache.get(&key("t", "c", 0)), Some(3));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn zero_capacity_disables_cache() {
        let cache = EpochCache::new(0);
        assert_eq!(cache.insert(key("t", "a", 0), 1), 0);
        assert_eq!(cache.get(&key("t", "a", 0)), None);
        assert!(cache.is_empty());
    }

    #[test]
    fn reinsert_refreshes_without_evicting() {
        let cache = EpochCache::new(2);
        cache.insert(key("t", "a", 0), 1);
        cache.insert(key("t", "b", 0), 2);
        assert_eq!(cache.insert(key("t", "a", 0), 9), 0);
        assert_eq!(cache.get(&key("t", "a", 0)), Some(9));
        assert_eq!(cache.len(), 2);
    }
}
