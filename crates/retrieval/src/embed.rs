//! Hashed TF-IDF embeddings and cosine similarity.

use crate::token::Terms;
use genedit_telemetry::hash::{fnv1a64, fnv1a64_from, mix64};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

/// Default embedding dimension. Large enough that hash collisions are rare
/// for the vocabulary sizes of a knowledge set, small enough that cosine
/// over a few thousand vectors is instant.
pub const DEFAULT_DIM: usize = 512;

/// A dense embedding vector (L2-normalized on construction).
pub type Embedding = Vec<f32>;

/// Document-frequency statistics used for IDF weighting. Fit once over the
/// knowledge set corpus during pre-processing; queries reuse the same
/// weights at inference.
///
/// A term is counted under its FNV-1a 64 hash, the hash that places it in
/// an embedding: two terms with one hash would share one count. No two
/// terms of the four domains' knowledge sets and questions do
/// (`tests/term_hashes.rs`).
#[derive(Debug, Clone, Default)]
pub struct Vocabulary {
    doc_count: usize,
    doc_freq: HashMap<u64, usize, BuildHasherDefault<TermHasher>>,
}

/// The document-frequency table's hasher. Its keys are FNV-1a hashes
/// already, but their low bits mix poorly and the table picks a bucket by
/// them, so `finish` runs the key through the splitmix64 finaliser. It is
/// unkeyed: only the fitted corpus inserts keys, and a query only looks
/// them up, so a question cannot crowd the table's buckets.
#[derive(Default)]
struct TermHasher(u64);

impl Hasher for TermHasher {
    fn write(&mut self, bytes: &[u8]) {
        self.0 = fnv1a64_from(self.0, bytes);
    }

    fn write_u64(&mut self, key: u64) {
        self.0 ^= key;
    }

    fn finish(&self) -> u64 {
        mix64(self.0)
    }
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
        self.add_terms(&Terms::new(text));
    }

    /// [`Vocabulary::add_document`] of the text `terms` were walked from.
    fn add_terms(&mut self, terms: &Terms) {
        self.doc_count += 1;
        // Each distinct term counts once per document.
        let mut hashes = terms.hashes().to_vec();
        hashes.sort_unstable();
        hashes.dedup();
        for h in hashes {
            *self.doc_freq.entry(h).or_insert(0) += 1;
        }
    }

    /// Number of documents folded in via [`Vocabulary::add_document`].
    pub fn doc_count(&self) -> usize {
        self.doc_count
    }

    /// Smoothed inverse document frequency. Unknown terms get the maximum
    /// weight — a rare domain acronym like "qoqfp" should dominate.
    pub fn idf(&self, term: &str) -> f32 {
        self.idf_of(fnv1a64(term.as_bytes()))
    }

    /// [`Vocabulary::idf`] of the term whose FNV-1a 64 hash is `hash`.
    fn idf_of(&self, hash: u64) -> f32 {
        let df = self.doc_freq.get(&hash).copied().unwrap_or(0);
        let n = self.doc_count.max(1);
        (((n + 1) as f32) / ((df + 1) as f32)).ln() + 1.0
    }
}

/// TF-IDF hashed embedder.
#[derive(Debug, Clone)]
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

    /// Fit a vocabulary over `texts` and embed each of them at `dim`
    /// slots, walking every text's terms once for both: bit for bit
    /// `Embedder::with_dim(Vocabulary::fit(texts), dim)` and its `embed`
    /// of each text, in order.
    pub fn fit_embed<'a>(
        texts: impl IntoIterator<Item = &'a str>,
        dim: usize,
    ) -> (Embedder, Vec<Embedding>) {
        let terms: Vec<Terms> = texts.into_iter().map(Terms::new).collect();
        let mut vocabulary = Vocabulary::new();
        for t in &terms {
            vocabulary.add_terms(t);
        }
        let embedder = Embedder::with_dim(vocabulary, dim);
        let vectors = terms.iter().map(|t| embedder.embed_terms(t)).collect();
        (embedder, vectors)
    }

    /// Embed a text into an L2-normalized vector. The zero text maps to the
    /// zero vector (cosine with anything = 0).
    pub fn embed(&self, text: &str) -> Embedding {
        self.embed_terms(&Terms::new(text))
    }

    /// [`Embedder::embed`] of the text `terms` were walked from.
    fn embed_terms(&self, terms: &Terms) -> Embedding {
        let mut vec = vec![0f32; self.dim];
        let dim = self.dim as u64;
        // Sorted by slot, then by text: equal terms are adjacent (a run
        // is a count), and the terms of one slot add up in text order on
        // every call — f32 addition is not associative, and the vector
        // must be bit-identical each time.
        let mut slotted: Vec<(usize, &str, u64)> = (terms.hashes().iter())
            .zip(terms.texts())
            .map(|(&h, term)| ((h % dim) as usize, term, h))
            .collect();
        slotted.sort_unstable();
        for run in slotted.chunk_by(|a, b| a.1 == b.1) {
            let (slot, _, h) = run[0];
            let tf = 1.0 + (run.len() as f32).ln();
            let weight = tf * self.vocabulary.idf_of(h);
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
    use crate::token::{bigrams, tokenize};
    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The term walker's hashes and texts are `fnv1a64` of
        /// `tokenize(text)` and then of `bigrams(&tokens)`, in that order.
        #[test]
        fn term_walker_hashes_the_tokens_then_the_bigrams(
            text in "[a-zA-Z0-9 _.,:İẞßéÉΣσ中Ⅻ①٣😀\u{300}\u{a0}]{0,40}",
        ) {
            let tokens = tokenize(&text);
            let expected: Vec<String> = tokens.iter().cloned().chain(bigrams(&tokens)).collect();
            let terms = Terms::new(&text);
            let texts: Vec<&str> = terms.texts().collect();
            prop_assert_eq!(texts, expected.iter().map(String::as_str).collect::<Vec<_>>());
            let hashes: Vec<u64> = expected.iter().map(|t| fnv1a64(t.as_bytes())).collect();
            prop_assert_eq!(terms.hashes(), &hashes[..]);
        }
    }

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
