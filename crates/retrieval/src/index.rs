//! Exact top-k vector search with stable, deterministic ordering.
//!
//! Three hot-path optimizations, all exact:
//!
//! * items are kept as their **nonzero `(slot, value)` pairs**
//!   ([`SparseEmbedding`]) — an embedding of a short text fills a few
//!   dozen of its 512 slots, so a score walks those instead of every
//!   slot, and an item costs a tenth of the memory. A skipped slot would
//!   have added a zero to a sum started at `+0.0`, which moves nothing
//!   ([`SparseEmbedding`]'s `dot`);
//! * embeddings are **norm-precomputed on insert** — a search computes the
//!   query norm once and scores every candidate with a plain dot product
//!   instead of re-deriving both norms per candidate;
//! * selection is a **bounded binary heap** — O(n log k) partial selection
//!   instead of an O(n log n) full sort, preserving the documented stable
//!   tie-break on insertion order.

use crate::embed::{Embedding, SparseEmbedding};
use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

/// One search result.
#[derive(Debug, Clone, PartialEq)]
pub struct SearchHit {
    /// Caller-supplied identifier of the stored item.
    pub id: usize,
    /// Cosine similarity of the stored item to the query.
    pub score: f32,
}

/// One stored item: the embedding's nonzero pairs and length, its L2
/// norm and the inverse (0.0 for the zero vector, which makes its score
/// 0 everywhere — the same contract as [`crate::cosine`]).
#[derive(Debug, Clone)]
struct Item {
    id: usize,
    vector: SparseEmbedding,
    len: usize,
    norm: f32,
    inv_norm: f32,
}

/// A brute-force vector index. Exact and deterministic: ties are broken by
/// insertion order, which keeps retrieval runs reproducible.
#[derive(Debug, Clone, Default)]
pub struct VectorIndex {
    items: Vec<Item>,
}

impl VectorIndex {
    /// An empty index.
    pub fn new() -> VectorIndex {
        VectorIndex::default()
    }

    /// Number of stored items (counting duplicate ids separately).
    pub fn len(&self) -> usize {
        self.items.len()
    }

    /// Whether the index holds no items.
    pub fn is_empty(&self) -> bool {
        self.items.is_empty()
    }

    /// Insert an item under a caller-chosen id (ids need not be unique;
    /// the caller owns id semantics). The embedding is kept as its
    /// nonzero pairs, and its norm is computed once here so searches
    /// never re-derive it. Borrowing is enough: nothing of the dense
    /// vector is kept.
    pub fn insert(&mut self, id: usize, embedding: impl AsRef<[f32]>) {
        let embedding = embedding.as_ref();
        let vector = SparseEmbedding::from_dense(embedding);
        let norm = vector.norm_squared().sqrt();
        self.items.push(Item {
            id,
            vector,
            len: embedding.len(),
            norm,
            inv_norm: if norm > 0.0 { 1.0 / norm } else { 0.0 },
        });
    }

    /// The embedding stored by the `pos`-th [`VectorIndex::insert`], as it
    /// was inserted (searches normalise on the fly, not in place) — bit
    /// for bit, for any vector without a `-0.0` slot.
    ///
    /// # Panics
    /// If `pos >= self.len()`.
    pub fn embedding(&self, pos: usize) -> Embedding {
        let item = &self.items[pos];
        item.vector.to_dense(item.len)
    }

    /// [`crate::cosine`] of `query` with the item at each of `positions`,
    /// in order, bit for bit what it returns for a finite `query` and the
    /// inserted vector: the dot product and the item's squared norm skip
    /// zero slots exactly as [`VectorIndex::search`] does, and the
    /// query's squared norm is summed once for every position.
    ///
    /// # Panics
    /// If a position is `>= self.len()`.
    pub fn cosines(&self, query: &[f32], positions: impl IntoIterator<Item = usize>) -> Vec<f32> {
        let mut query_norm_squared = 0f32;
        for x in query {
            query_norm_squared += x * x;
        }
        positions
            .into_iter()
            .map(|pos| {
                let item = &self.items[pos];
                debug_assert_eq!(query.len(), item.len, "dimension mismatch");
                if query.len() != item.len || query_norm_squared == 0.0 || item.norm == 0.0 {
                    0.0
                } else {
                    item.vector.dot(query) / (query_norm_squared.sqrt() * item.norm)
                }
            })
            .collect()
    }

    /// Remove every item with the given id. Returns how many were removed.
    pub fn remove(&mut self, id: usize) -> usize {
        let before = self.items.len();
        self.items.retain(|item| item.id != id);
        before - self.items.len()
    }

    /// Exact top-k by cosine similarity; scores below `min_score` are
    /// dropped. Ordering: score descending, then insertion order.
    pub fn search(&self, query: &Embedding, k: usize, min_score: f32) -> Vec<SearchHit> {
        self.search_with_stats(query, k, min_score).0
    }

    /// Like [`VectorIndex::search`], also reporting how many candidates
    /// were scored and how many survived the top-k cut.
    pub fn search_with_stats(
        &self,
        query: &Embedding,
        k: usize,
        min_score: f32,
    ) -> (Vec<SearchHit>, RerankStats) {
        let scored_count = self.items.len();
        let query_inv = inverse_norm(query);
        let top = top_k_by_score(
            self.items.iter().enumerate().filter_map(|(pos, item)| {
                let score = item.vector.dot(query) * query_inv * item.inv_norm;
                (score >= min_score).then_some((pos, score))
            }),
            k,
        );
        let hits: Vec<SearchHit> = top
            .into_iter()
            .map(|(pos, score)| SearchHit {
                id: self.items[pos].id,
                score,
            })
            .collect();
        let stats = RerankStats {
            scored: scored_count,
            kept: hits.len(),
        };
        (hits, stats)
    }
}

/// `1/‖v‖`, or 0.0 for the zero vector (scores collapse to 0, matching
/// [`crate::cosine`]'s degenerate-input contract).
fn inverse_norm(v: &[f32]) -> f32 {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        1.0 / norm
    } else {
        0.0
    }
}

/// A scored candidate ordered for selection: higher score wins, ties
/// break toward the earlier insertion position. `Ord` treats incomparable
/// scores (NaN) as equal, matching the previous full-sort semantics.
struct Ranked {
    score: f32,
    pos: usize,
}

impl PartialEq for Ranked {
    fn eq(&self, other: &Ranked) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Ranked {}
impl PartialOrd for Ranked {
    fn partial_cmp(&self, other: &Ranked) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Ranked {
    fn cmp(&self, other: &Ranked) -> Ordering {
        self.score
            .partial_cmp(&other.score)
            .unwrap_or(Ordering::Equal)
            // Lower position outranks: reverse the position comparison.
            .then_with(|| other.pos.cmp(&self.pos))
    }
}

/// Bounded partial selection: the top `k` of `candidates` by score
/// descending with the stable insertion-order tie-break, in O(n log k).
/// A min-heap of the best `k` seen so far; a candidate only displaces the
/// heap's worst when it strictly outranks it, so equal-score candidates
/// keep first-come-first-kept semantics.
fn top_k_by_score(candidates: impl Iterator<Item = (usize, f32)>, k: usize) -> Vec<(usize, f32)> {
    if k == 0 {
        return Vec::new();
    }
    let mut heap: BinaryHeap<Reverse<Ranked>> = BinaryHeap::with_capacity(k + 1);
    for (pos, score) in candidates {
        let cand = Ranked { score, pos };
        if heap.len() < k {
            heap.push(Reverse(cand));
        } else if let Some(Reverse(worst)) = heap.peek() {
            if cand > *worst {
                heap.pop();
                heap.push(Reverse(cand));
            }
        }
    }
    let mut kept: Vec<Ranked> = heap.into_iter().map(|Reverse(r)| r).collect();
    kept.sort_by(|a, b| b.cmp(a));
    kept.into_iter().map(|r| (r.pos, r.score)).collect()
}

/// How much work one re-rank did: candidates scored vs. top-k survivors.
/// The ratio is the context-compression factor each compounding operator
/// buys (§3.1.1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct RerankStats {
    /// Candidates that received a similarity score.
    pub scored: usize,
    /// Candidates kept after the top-k / threshold cut.
    pub kept: usize,
}

impl RerankStats {
    /// Record this re-rank into a metrics registry under
    /// `retrieval.<stage>.scored` / `.kept` counters and a
    /// `retrieval.<stage>.kept_ratio` histogram.
    pub fn record(&self, metrics: &genedit_telemetry::MetricsRegistry, stage: &str) {
        metrics.incr(&format!("retrieval.{stage}.scored"), self.scored as u64);
        metrics.incr(&format!("retrieval.{stage}.kept"), self.kept as u64);
        if self.scored > 0 {
            metrics.observe(
                &format!("retrieval.{stage}.kept_ratio"),
                self.kept as f64 / self.scored as f64,
            );
        }
    }
}

/// Re-rank arbitrary scored candidates: sort by score descending with a
/// stable tie-break on the original order, then truncate to `k`.
pub fn rerank_top_k<T>(candidates: Vec<(T, f32)>, k: usize) -> Vec<(T, f32)> {
    rerank_top_k_with_stats(candidates, k).0
}

/// Like [`rerank_top_k`], also reporting scored/kept counts. Selection is
/// the same bounded-heap partial sort as [`VectorIndex::search`]:
/// O(n log k), score descending, stable tie-break on the original order.
pub fn rerank_top_k_with_stats<T>(
    candidates: Vec<(T, f32)>,
    k: usize,
) -> (Vec<(T, f32)>, RerankStats) {
    let scored = candidates.len();
    let top = top_k_by_score(
        candidates
            .iter()
            .enumerate()
            .map(|(pos, (_, score))| (pos, *score)),
        k,
    );
    let mut slots: Vec<Option<(T, f32)>> = candidates.into_iter().map(Some).collect();
    let kept: Vec<(T, f32)> = top
        .into_iter()
        .filter_map(|(pos, _)| slots[pos].take())
        .collect();
    let stats = RerankStats {
        scored,
        kept: kept.len(),
    };
    (kept, stats)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::embed::{Embedder, Vocabulary};

    fn make_index(docs: &[&str]) -> (VectorIndex, Embedder) {
        let embedder = Embedder::new(Vocabulary::fit(docs.iter().copied()));
        let mut idx = VectorIndex::new();
        for (i, d) in docs.iter().enumerate() {
            idx.insert(i, embedder.embed(d));
        }
        (idx, embedder)
    }

    #[test]
    fn top_k_returns_most_similar_first() {
        let docs = [
            "revenue per viewer calculation",
            "tv viewership by region",
            "player transfer fees",
        ];
        let (idx, emb) = make_index(&docs);
        let hits = idx.search(&emb.embed("how to calculate revenue per viewer"), 2, 0.0);
        assert_eq!(hits.len(), 2);
        assert_eq!(hits[0].id, 0);
        assert!(hits[0].score >= hits[1].score);
    }

    #[test]
    fn k_bounds_results() {
        let docs = ["a b", "a c", "a d", "a e"];
        let (idx, emb) = make_index(&docs);
        assert_eq!(idx.search(&emb.embed("a"), 2, 0.0).len(), 2);
        assert_eq!(idx.search(&emb.embed("a"), 100, 0.0).len(), 4);
        assert!(idx.search(&emb.embed("a"), 0, 0.0).is_empty());
    }

    #[test]
    fn min_score_filters() {
        let docs = ["quarterly revenue", "zebra habitats"];
        let (idx, emb) = make_index(&docs);
        let hits = idx.search(&emb.embed("quarterly revenue"), 10, 0.5);
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].id, 0);
    }

    #[test]
    fn ties_break_by_insertion_order() {
        let mut idx = VectorIndex::new();
        idx.insert(7, vec![1.0, 0.0]);
        idx.insert(3, vec![1.0, 0.0]);
        let hits = idx.search(&vec![1.0, 0.0], 2, 0.0);
        assert_eq!(hits[0].id, 7);
        assert_eq!(hits[1].id, 3);
    }

    #[test]
    fn remove_by_id() {
        let mut idx = VectorIndex::new();
        idx.insert(1, vec![1.0]);
        idx.insert(2, vec![0.5]);
        idx.insert(1, vec![0.1]);
        assert_eq!(idx.remove(1), 2);
        assert_eq!(idx.len(), 1);
    }

    #[test]
    fn search_stats_report_scored_and_kept() {
        let docs = ["a b", "a c", "a d", "a e"];
        let (idx, emb) = make_index(&docs);
        let (hits, stats) = idx.search_with_stats(&emb.embed("a"), 2, 0.0);
        assert_eq!(hits.len(), 2);
        assert_eq!(stats, RerankStats { scored: 4, kept: 2 });
        // The threshold cut also shows up in `kept`.
        let (_, stats) = idx.search_with_stats(&emb.embed("a b"), 10, 0.99);
        assert_eq!(stats.scored, 4);
        assert!(stats.kept < 4);
    }

    #[test]
    fn rerank_stats_record_into_registry() {
        let (_, stats) = rerank_top_k_with_stats(vec![("a", 0.1), ("b", 0.9), ("c", 0.5)], 2);
        assert_eq!(stats, RerankStats { scored: 3, kept: 2 });
        let metrics = genedit_telemetry::MetricsRegistry::new();
        stats.record(&metrics, "examples");
        stats.record(&metrics, "examples");
        assert_eq!(metrics.counter("retrieval.examples.scored"), 6);
        assert_eq!(metrics.counter("retrieval.examples.kept"), 4);
        let snap = metrics.snapshot();
        let ratio = &snap.histograms["retrieval.examples.kept_ratio"];
        assert_eq!(ratio.count, 2);
        assert!((ratio.mean - 2.0 / 3.0).abs() < 1e-9);
    }

    #[test]
    fn prenormalized_search_matches_cosine() {
        use crate::embed::cosine;
        let docs = [
            "quarterly revenue by organization",
            "tv viewership by region and quarter",
            "player transfer fees in europe",
            "ownership flag for our organizations",
        ];
        let (idx, emb) = make_index(&docs);
        let q = emb.embed("revenue by quarter for our organizations");
        let hits = idx.search(&q, docs.len(), f32::MIN);
        assert_eq!(hits.len(), docs.len());
        for hit in hits {
            let reference = cosine(&q, &emb.embed(docs[hit.id]));
            assert!(
                (hit.score - reference).abs() < 1e-5,
                "dot-product score {} diverged from cosine {} for doc {}",
                hit.score,
                reference,
                hit.id
            );
        }
    }

    #[test]
    fn heap_selection_matches_full_sort() {
        // Pseudo-random scores (LCG) with deliberate duplicates: the
        // bounded-heap selection must agree with a full stable sort for
        // every k, including the tie-break on insertion order.
        let mut state = 0x2545f4914f6cdd1du64;
        let scores: Vec<f32> = (0..200)
            .map(|_| {
                state = state
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                ((state >> 40) % 32) as f32 / 31.0
            })
            .collect();
        let items: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
        let mut reference: Vec<(usize, (usize, f32))> = items.iter().copied().enumerate().collect();
        reference.sort_by(|(pa, (_, sa)), (pb, (_, sb))| {
            sb.partial_cmp(sa)
                .unwrap_or(std::cmp::Ordering::Equal)
                .then(pa.cmp(pb))
        });
        for k in [0, 1, 3, 17, 199, 200, 500] {
            let expected: Vec<(usize, f32)> = reference.iter().take(k).map(|(_, c)| *c).collect();
            let got = rerank_top_k(items.clone(), k);
            assert_eq!(got, expected, "k={k}");
        }
    }

    #[test]
    fn rerank_is_stable() {
        let ranked = rerank_top_k(vec![("a", 0.5), ("b", 0.9), ("c", 0.5)], 3);
        assert_eq!(
            ranked.iter().map(|(t, _)| *t).collect::<Vec<_>>(),
            vec!["b", "a", "c"]
        );
        let truncated = rerank_top_k(vec![("a", 0.5), ("b", 0.9), ("c", 0.5)], 1);
        assert_eq!(truncated.len(), 1);
        assert_eq!(truncated[0].0, "b");
    }
}
