//! Hashed TF-IDF embeddings and cosine similarity.

use crate::token::{bigrams, tokenize};
use genedit_telemetry::hash::fnv1a64;
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// Default embedding dimension. Large enough that hash collisions are rare
/// for the vocabulary sizes of a knowledge set, small enough that cosine
/// over a few thousand vectors is instant.
pub const DEFAULT_DIM: usize = 512;

/// A dense embedding vector (L2-normalized on construction).
pub type Embedding = Vec<f32>;

/// Document-frequency statistics used for IDF weighting. Fit once over the
/// knowledge set corpus during pre-processing; queries reuse the same
/// weights at inference.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Vocabulary {
    doc_count: usize,
    doc_freq: HashMap<String, usize>,
}

impl Vocabulary {
    /// An empty vocabulary (no documents seen).
    pub fn new() -> Vocabulary {
        Vocabulary::default()
    }

    /// Fit over a corpus of documents.
    pub fn fit<'a>(docs: impl IntoIterator<Item = &'a str>) -> Vocabulary {
        let mut v = Vocabulary::new();
        for d in docs {
            v.add_document(d);
        }
        v
    }

    /// Incorporate one document's terms into the document-frequency table.
    pub fn add_document(&mut self, text: &str) {
        self.doc_count += 1;
        let mut terms = tokenize(text);
        let grams = bigrams(&terms);
        terms.extend(grams);
        // Each distinct term counts once per document; a term moves into
        // the table the first time any document holds it, and is never
        // copied.
        terms.sort_unstable();
        terms.dedup();
        for term in terms {
            match self.doc_freq.get_mut(&term) {
                Some(df) => *df += 1,
                None => {
                    self.doc_freq.insert(term, 1);
                }
            }
        }
    }

    /// Number of documents folded in via [`Vocabulary::add_document`].
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Smoothed inverse document frequency. Unknown terms get the maximum
    /// weight — a rare domain acronym like "qoqfp" should dominate.
    pub fn idf(&self, term: &str) -> f32 {
        let df = self.doc_freq.get(term).copied().unwrap_or(0);
        let n = self.doc_count.max(1);
        (((n + 1) as f32) / ((df + 1) as f32)).ln() + 1.0
    }
}

/// TF-IDF hashed embedder.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Embedder {
    dim: usize,
    vocabulary: Vocabulary,
}

impl Embedder {
    /// Embedder at the default dimension ([`DEFAULT_DIM`]).
    pub fn new(vocabulary: Vocabulary) -> Embedder {
        Embedder {
            dim: DEFAULT_DIM,
            vocabulary,
        }
    }

    /// Embedder at an explicit dimension (must be positive). Smaller
    /// dimensions trade collision rate for speed.
    pub fn with_dim(vocabulary: Vocabulary, dim: usize) -> Embedder {
        assert!(dim > 0, "embedding dimension must be positive");
        Embedder { dim, vocabulary }
    }

    /// The embedding dimension every produced vector has.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The document-frequency statistics backing IDF weighting.
    pub fn vocabulary(&self) -> &Vocabulary {
        &self.vocabulary
    }

    /// Embed a text into an L2-normalized vector. The zero text maps to the
    /// zero vector (cosine with anything = 0).
    pub fn embed(&self, text: &str) -> Embedding {
        let mut vec = vec![0f32; self.dim];
        let toks = tokenize(text);
        let grams = bigrams(&toks);
        // Sorted, so that equal terms are adjacent (a run is a count) and
        // terms that hash to one slot add up in the same order on every
        // call: f32 addition is not associative, and the vector must be
        // bit-identical each time.
        let mut terms: Vec<&str> = toks.iter().chain(&grams).map(String::as_str).collect();
        terms.sort_unstable();
        for run in terms.chunk_by(|a, b| a == b) {
            let term = run[0];
            let tf = 1.0 + (run.len() as f32).ln();
            let weight = tf * self.vocabulary.idf(term);
            let h = fnv1a64(term.as_bytes());
            let slot = (h % self.dim as u64) as usize;
            // Signed hashing halves the collision bias.
            let sign = if (h >> 32) & 1 == 0 { 1.0 } else { -1.0 };
            vec[slot] += sign * weight;
        }
        normalize(&mut vec);
        vec
    }

    /// [`Embedder::embed`], kept as its nonzero `(slot, value)` pairs.
    pub fn embed_sparse(&self, text: &str) -> SparseEmbedding {
        SparseEmbedding::from_dense(&self.embed(text))
    }

    /// Embed a query expanded with extra context texts — the paper's
    /// *context expansion* (§3.1.1): [`expand`] over the embedded query
    /// and the embedded expansion texts.
    pub fn embed_expanded(&self, query: &str, expansions: &[&str]) -> Embedding {
        let vectors: Vec<SparseEmbedding> =
            expansions.iter().map(|t| self.embed_sparse(t)).collect();
        expand(self.embed(query), &vectors.iter().collect::<Vec<_>>())
    }
}

/// An embedding as its nonzero `(slot, value)` pairs in slot order — the
/// part of a vector that [`expand`] adds anything with, at a fraction of
/// a dense vector's memory.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct SparseEmbedding {
    pairs: Box<[(u32, f32)]>,
}

impl SparseEmbedding {
    /// The nonzero slots of a dense vector. A `-0.0` slot is dropped like
    /// `+0.0`; no embedding holds one.
    pub(crate) fn from_dense(dense: &[f32]) -> SparseEmbedding {
        let pairs = dense.iter().enumerate().filter(|(_, x)| **x != 0.0);
        SparseEmbedding {
            pairs: pairs.map(|(slot, x)| (slot as u32, *x)).collect(),
        }
    }

    /// The vector over `len` slots, every slot not held `+0.0`.
    pub(crate) fn to_dense(&self, len: usize) -> Embedding {
        let mut dense = vec![0f32; len];
        for &(slot, x) in self.pairs.iter() {
            dense[slot as usize] = x;
        }
        dense
    }

    /// `Σ x²` in slot order from `+0.0`: the dense sum, whose zero slots
    /// each add `+0.0` to a sum that is never `-0.0`.
    pub(crate) fn norm_squared(&self) -> f32 {
        let mut sum = 0f32;
        for &(_, x) in self.pairs.iter() {
            sum += x * x;
        }
        sum
    }

    /// `Σ x·y` with a finite dense vector, over the slots both hold, in
    /// slot order, from `+0.0` — bit for bit the dense loop over every
    /// slot from `+0.0`, which a `zip` stops at the shorter vector. A
    /// skipped slot would add `y * 0.0`, a zero, and a zero leaves the
    /// sum unchanged: starting at `+0.0`, the sum is never `-0.0`, the
    /// one value adding `+0.0` would move.
    pub(crate) fn dot(&self, dense: &[f32]) -> f32 {
        let mut dot = 0f32;
        for &(slot, x) in self.pairs.iter() {
            if let Some(y) = dense.get(slot as usize) {
                dot += y * x;
            }
        }
        dot
    }
}

/// Context expansion (§3.1.1) of an embedded query: every expansion joins
/// the query at weight `0.5 / expansions.len()`, so the original query
/// still dominates, and the sum is renormalised. With no expansions the
/// base comes back as it was, not renormalised.
///
/// The additions run expansion by expansion, in slot order within each —
/// the order of a dense loop over every slot, minus the zero slots. A
/// skipped slot would have added `scale * +0.0 = +0.0`, which leaves any
/// value but `-0.0` unchanged, and no embedding holds `-0.0`: so the
/// result is bit-identical to the dense sum.
pub fn expand(mut base: Embedding, expansions: &[&SparseEmbedding]) -> Embedding {
    if expansions.is_empty() {
        return base;
    }
    let scale = 0.5 / expansions.len() as f32;
    for expansion in expansions {
        for &(slot, x) in expansion.pairs.iter() {
            if let Some(b) = base.get_mut(slot as usize) {
                *b += scale * x;
            }
        }
    }
    normalize(&mut base);
    base
}

fn normalize(v: &mut [f32]) {
    let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in v.iter_mut() {
            *x /= norm;
        }
    }
}

/// Cosine similarity. Inputs need not be normalized.
///
/// Contract: both slices must have the same length. A mismatch is a
/// caller bug and trips a `debug_assert!` in development builds; release
/// builds (the serving path, where the workspace's no-panic posture
/// applies) return 0.0 — "no similarity" — instead of aborting a worker
/// thread mid-request.
pub fn cosine(a: &[f32], b: &[f32]) -> f32 {
    debug_assert_eq!(a.len(), b.len(), "dimension mismatch");
    if a.len() != b.len() {
        return 0.0;
    }
    let mut dot = 0f32;
    let mut na = 0f32;
    let mut nb = 0f32;
    for (x, y) in a.iter().zip(b.iter()) {
        dot += x * y;
        na += x * x;
        nb += y * y;
    }
    if na == 0.0 || nb == 0.0 {
        0.0
    } else {
        dot / (na.sqrt() * nb.sqrt())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn embedder(corpus: &[&str]) -> Embedder {
        Embedder::new(Vocabulary::fit(corpus.iter().copied()))
    }

    #[test]
    fn embedding_is_deterministic() {
        let e = embedder(&["revenue per viewer", "quarterly revenue"]);
        assert_eq!(e.embed("revenue for Q2"), e.embed("revenue for Q2"));
    }

    /// With 8 slots for ~80 terms of unequal weight, every slot sums many
    /// terms: any dependence on the order they are met in shows in the bits.
    #[test]
    fn embedding_is_bit_identical_when_terms_collide() {
        let docs: Vec<String> = (0..60)
            .map(|d| {
                let terms: Vec<String> = (0..40)
                    .map(|t| format!("w{}", (d * 7 + t * t) % 97))
                    .collect();
                terms.join(" ")
            })
            .collect();
        let vocabulary = Vocabulary::fit(docs.iter().map(String::as_str));
        let e = Embedder::with_dim(vocabulary, 8);
        for doc in &docs {
            let bits = |v: Embedding| v.into_iter().map(f32::to_bits).collect::<Vec<u32>>();
            let first = bits(e.embed(doc));
            for _ in 0..50 {
                assert_eq!(bits(e.embed(doc)), first, "{doc}");
            }
        }
    }

    #[test]
    fn identical_text_has_cosine_one() {
        let e = embedder(&["a b c"]);
        let v = e.embed("revenue per viewer in Canada");
        assert!((cosine(&v, &v) - 1.0).abs() < 1e-5);
    }

    #[test]
    fn related_text_beats_unrelated() {
        let e = embedder(&[
            "quarterly financial performance of sports organizations",
            "tv viewership numbers by country",
            "player roster and injuries",
        ]);
        let q = e.embed("show financial performance for Q2");
        let related = e.embed("quarterly financial performance of sports organizations");
        let unrelated = e.embed("player roster and injuries");
        assert!(cosine(&q, &related) > cosine(&q, &unrelated));
    }

    #[test]
    fn rare_terms_dominate() {
        // "qoqfp" appears in one doc; "revenue" in many. A query with both
        // should be closer to the qoqfp doc.
        let corpus = [
            "qoqfp quarter over quarter financial performance revenue",
            "revenue by country",
            "revenue by quarter",
            "revenue by organization",
        ];
        let e = embedder(&corpus);
        let q = e.embed("qoqfp revenue");
        let qoqfp_doc = e.embed(corpus[0]);
        let revenue_doc = e.embed(corpus[1]);
        assert!(cosine(&q, &qoqfp_doc) > cosine(&q, &revenue_doc));
    }

    #[test]
    fn empty_text_embeds_to_zero() {
        let e = embedder(&["a"]);
        let v = e.embed("");
        assert!(v.iter().all(|x| *x == 0.0));
        assert_eq!(cosine(&v, &e.embed("something")), 0.0);
    }

    #[test]
    fn context_expansion_moves_query_toward_expansion() {
        let e = embedder(&[
            "ownership flag our organizations coc",
            "viewership in canada",
            "revenue in mexico",
        ]);
        let target = e.embed("ownership flag our organizations coc");
        let plain = e.embed("best organizations in canada");
        let expanded = e.embed_expanded(
            "best organizations in canada",
            &["ownership flag our organizations coc"],
        );
        assert!(cosine(&expanded, &target) > cosine(&plain, &target));
    }

    #[test]
    fn expansion_keeps_original_dominant() {
        let e = embedder(&["x", "y"]);
        let plain = e.embed("quarterly revenue growth canada");
        let expanded = e.embed_expanded(
            "quarterly revenue growth canada",
            &["unrelated words entirely"],
        );
        // Still much closer to itself than to the expansion text.
        assert!(cosine(&expanded, &plain) > 0.7);
    }

    #[test]
    fn embeddings_are_normalized() {
        let e = embedder(&["a b"]);
        let v = e.embed("hello world bigram test");
        let norm: f32 = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        assert!((norm - 1.0).abs() < 1e-5);
    }

    #[test]
    fn idf_unknown_term_is_max() {
        let v = Vocabulary::fit(["common common", "common"]);
        assert!(v.idf("neverseen") > v.idf("common"));
    }

    /// Regression test for the no-panic serving contract: in development
    /// builds a dimension mismatch trips the `debug_assert!`; in release
    /// builds it must return 0.0 rather than abort a serving worker.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "dimension mismatch")]
    fn cosine_dimension_mismatch_asserts_in_debug() {
        cosine(&[1.0], &[1.0, 2.0]);
    }

    #[test]
    #[cfg(not(debug_assertions))]
    fn cosine_dimension_mismatch_is_zero_in_release() {
        assert_eq!(cosine(&[1.0], &[1.0, 2.0]), 0.0);
        assert_eq!(cosine(&[], &[1.0]), 0.0);
    }
}
