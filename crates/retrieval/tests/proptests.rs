//! Property tests for the retrieval substrate.

use genedit_retrieval::token::bigrams;
use genedit_retrieval::{
    cosine, expand, rerank_top_k, tokenize, Embedder, Embedding, SparseEmbedding, VectorIndex,
    Vocabulary,
};
use proptest::prelude::*;
use std::collections::{HashMap, HashSet};

fn embedder(corpus: &[String]) -> Embedder {
    Embedder::new(Vocabulary::fit(corpus.iter().map(|s| s.as_str())))
}

/// Words over a five-letter alphabet, so terms repeat across texts and
/// collide in few slots; or symbols only, which embed to the zero vector.
fn text() -> impl Strategy<Value = String> {
    prop_oneof!["[a-e]{1,3}( [a-e]{1,3}){0,7}", "[-+*/=(). ]{1,6}"]
}

/// Context expansion written out over every slot of dense vectors: the
/// arithmetic `expand` must reproduce bit for bit.
fn dense_expansion(e: &Embedder, query: &str, expansions: &[&str]) -> Embedding {
    let mut base = e.embed(query);
    if expansions.is_empty() {
        return base;
    }
    let scale = 0.5 / expansions.len() as f32;
    for text in expansions {
        for (b, x) in base.iter_mut().zip(e.embed(text)) {
            *b += scale * x;
        }
    }
    let norm: f32 = base.iter().map(|x| x * x).sum::<f32>().sqrt();
    if norm > 0.0 {
        for x in base.iter_mut() {
            *x /= norm;
        }
    }
    base
}

fn bits(v: &[f32]) -> Vec<u32> {
    v.iter().map(|x| x.to_bits()).collect()
}

/// The tokenizer a character at a time, every character through the
/// Unicode tables.
fn tokenize_reference(text: &str) -> Vec<String> {
    let mut out = Vec::new();
    let mut cur = String::new();
    for ch in text.chars() {
        if ch.is_alphanumeric() {
            cur.extend(ch.to_lowercase());
        } else if !cur.is_empty() {
            out.push(std::mem::take(&mut cur));
        }
    }
    if !cur.is_empty() {
        out.push(cur);
    }
    out
}

/// Bigrams by `format!`.
fn bigrams_reference(tokens: &[String]) -> Vec<String> {
    tokens
        .windows(2)
        .map(|w| format!("{}_{}", w[0], w[1]))
        .collect()
}

/// Text mixing ASCII with non-ASCII letters, digits and separators —
/// `İ`, whose lowercase is two characters, `ẞ`, a combining mark, a
/// no-break space, astral characters.
fn mixed_text() -> impl Strategy<Value = String> {
    "[a-zA-Z0-9 _.,:İẞßéÉΣσ中Ⅻ①٣😀𝔘\u{300}\u{a0}]{0,40}"
}

/// Dense scoring: every slot of the stored vector, a dot product from
/// `+0.0` (an `Iterator::sum` starts from `-0.0`, which differs only when
/// every product is `-0.0`: a zero score's sign), a full stable sort by
/// score.
fn dense_search(items: &[Vec<f32>], query: &[f32], k: usize, min_score: f32) -> Vec<(usize, u32)> {
    let inv = |v: &[f32]| {
        let norm = v.iter().map(|x| x * x).sum::<f32>().sqrt();
        if norm > 0.0 {
            1.0 / norm
        } else {
            0.0
        }
    };
    let query_inv = inv(query);
    let mut scored: Vec<(usize, f32)> = (items.iter().enumerate())
        .map(|(id, item)| {
            let dot = query.iter().zip(item).fold(0f32, |s, (x, y)| s + x * y);
            (id, dot * query_inv * inv(item))
        })
        .filter(|&(_, score)| score >= min_score)
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored.truncate(k);
    scored
        .into_iter()
        .map(|(id, s)| (id, s.to_bits()))
        .collect()
}

/// A finite vector without `-0.0` — what `Embedder::embed` produces —
/// three slots in four zero; every eighth one all zero.
fn sparse_vector(dim: usize) -> impl Strategy<Value = Vec<f32>> {
    (
        prop::collection::vec((-1.0f32..1.0, any::<u8>()), dim),
        any::<u8>(),
    )
        .prop_map(|(slots, zero)| {
            (slots.into_iter())
                .map(|(x, keep)| {
                    if keep % 4 == 0 && zero % 8 != 0 {
                        x
                    } else {
                        0.0
                    }
                })
                .collect()
        })
}

fn index_case() -> impl Strategy<Value = (Vec<Vec<f32>>, Vec<f32>, Vec<f32>)> {
    prop_oneof![Just(8usize), Just(512usize)].prop_flat_map(|dim| {
        (
            prop::collection::vec(sparse_vector(dim), 0..10),
            sparse_vector(dim),
            // A query one slot short or four slots long.
            prop_oneof![sparse_vector(dim - 1), sparse_vector(dim + 4)],
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Cosine similarity is symmetric and bounded.
    #[test]
    fn cosine_symmetric_and_bounded(
        a in prop::collection::vec(-10.0f32..10.0, 8),
        b in prop::collection::vec(-10.0f32..10.0, 8),
    ) {
        let ab = cosine(&a, &b);
        let ba = cosine(&b, &a);
        prop_assert!((ab - ba).abs() < 1e-5);
        prop_assert!((-1.0001..=1.0001).contains(&ab), "{ab}");
    }

    /// Self-similarity is 1 for any non-degenerate text.
    #[test]
    fn self_similarity_is_one(text in "[a-z]{2,8}( [a-z]{2,8}){0,6}") {
        let e = embedder(std::slice::from_ref(&text));
        let v = e.embed(&text);
        if v.iter().any(|x| *x != 0.0) {
            prop_assert!((cosine(&v, &v) - 1.0).abs() < 1e-4);
        }
    }

    /// Embedding is deterministic and case/punctuation-insensitive where
    /// the tokenizer says so.
    #[test]
    fn embedding_deterministic_and_normalized(text in "[ -~]{0,60}") {
        let e = embedder(std::slice::from_ref(&text));
        let a = e.embed(&text);
        let b = e.embed(&text);
        prop_assert_eq!(&a, &b);
        let norm: f32 = a.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-4, "norm {norm}");
        // Case-insensitivity through the tokenizer.
        let upper = e.embed(&text.to_uppercase());
        if a.iter().any(|x| *x != 0.0) && text.chars().all(|c| !c.is_numeric()) {
            prop_assert!(cosine(&a, &upper) > 0.999, "case changed the embedding");
        }
    }

    /// Tokenization never yields empty tokens and is idempotent under
    /// re-joining.
    #[test]
    fn tokenize_well_formed(text in "[ -~]{0,80}") {
        let toks = tokenize(&text);
        prop_assert!(toks.iter().all(|t| !t.is_empty()));
        let rejoined = toks.join(" ");
        prop_assert_eq!(tokenize(&rejoined), toks);
    }

    /// The index returns at most k hits, sorted by score descending.
    #[test]
    fn index_topk_sorted(
        docs in prop::collection::vec("[a-z]{2,6}( [a-z]{2,6}){0,4}", 1..12),
        k in 0usize..15,
    ) {
        let e = embedder(&docs);
        let mut idx = VectorIndex::new();
        for (i, d) in docs.iter().enumerate() {
            idx.insert(i, e.embed(d));
        }
        let hits = idx.search(&e.embed(&docs[0]), k, f32::MIN);
        prop_assert!(hits.len() <= k.min(docs.len()));
        for w in hits.windows(2) {
            prop_assert!(w[0].score >= w[1].score);
        }
    }

    /// rerank_top_k returns a sorted prefix of its input multiset.
    #[test]
    fn rerank_is_sorted_prefix(
        scores in prop::collection::vec(-1.0f32..1.0, 0..20),
        k in 0usize..25,
    ) {
        let items: Vec<(usize, f32)> = scores.iter().copied().enumerate().collect();
        let out = rerank_top_k(items.clone(), k);
        prop_assert!(out.len() <= k.min(items.len()));
        for w in out.windows(2) {
            prop_assert!(w[0].1 >= w[1].1);
        }
        // Every output item came from the input.
        for (id, score) in &out {
            prop_assert!(items.iter().any(|(i, s)| i == id && s == score));
        }
    }

    /// Context expansion never moves the embedding outside the unit ball
    /// and keeps similarity to the original query above the similarity to
    /// the expansion alone (the query dominates, §3.1.1).
    #[test]
    fn expansion_keeps_query_dominant(
        q in "[a-z]{3,7}( [a-z]{3,7}){2,5}",
        ex in "[a-z]{3,7}( [a-z]{3,7}){2,5}",
    ) {
        let e = embedder(&[q.clone(), ex.clone()]);
        let vq = e.embed(&q);
        let vex = e.embed(&ex);
        let expanded = e.embed_expanded(&q, &[&ex]);
        let norm: f32 = expanded.iter().map(|x| x * x).sum::<f32>().sqrt();
        prop_assert!(norm == 0.0 || (norm - 1.0).abs() < 1e-4);
        if cosine(&vq, &vex) < 0.5 {
            // For genuinely different texts, the expanded query must stay
            // closer to the query than to the expansion.
            prop_assert!(
                cosine(&expanded, &vq) >= cosine(&expanded, &vex) - 1e-4,
                "expansion hijacked the query"
            );
        }
    }

    /// The ASCII fast path and the `push_str` bigrams change no token.
    #[test]
    fn tokenize_and_bigrams_match_the_char_loop(text in mixed_text()) {
        let toks = tokenize(&text);
        prop_assert_eq!(&toks, &tokenize_reference(&text));
        prop_assert_eq!(bigrams(&toks), bigrams_reference(&toks));
    }

    /// The clone-free fit counts the same documents per term: every idf,
    /// of a corpus term or an unseen one, is the same float.
    #[test]
    fn vocabulary_fit_matches_the_cloning_fit(
        corpus in prop::collection::vec(prop_oneof![mixed_text(), text()], 0..8),
        unseen in prop::collection::vec(mixed_text(), 1..4),
    ) {
        let fitted = Vocabulary::fit(corpus.iter().map(String::as_str));
        let mut doc_freq: HashMap<String, usize> = HashMap::new();
        for doc in &corpus {
            let toks = tokenize_reference(doc);
            let mut seen = HashSet::new();
            for t in toks.iter().chain(bigrams_reference(&toks).iter()) {
                if seen.insert(t.clone()) {
                    *doc_freq.entry(t.clone()).or_insert(0) += 1;
                }
            }
        }
        prop_assert_eq!(fitted.doc_count(), corpus.len());
        let idf = |term: &str| {
            let df = doc_freq.get(term).copied().unwrap_or(0);
            let n = corpus.len().max(1);
            ((((n + 1) as f32) / ((df + 1) as f32)).ln() + 1.0).to_bits()
        };
        let unseen_terms = unseen.iter().flat_map(|t| tokenize_reference(t));
        for term in doc_freq.keys().cloned().chain(unseen_terms) {
            prop_assert_eq!(fitted.idf(&term).to_bits(), idf(&term), "{}", term);
        }
    }

    /// Nonzero-pair items score like the dense vectors they came from:
    /// the same ids in the same order with the same score bits, at 8 and
    /// 512 slots, with zero vectors among the items and as the query, and
    /// for queries shorter or longer than the items. `embedding` hands
    /// every inserted vector back bit for bit, and `cosines` is `cosine`.
    #[test]
    fn sparse_items_score_like_dense_ones(
        case in index_case(),
        k in 0usize..12,
        min_score in prop_oneof![Just(f32::MIN), Just(0.0f32), Just(0.3f32)],
    ) {
        let (items, query, odd_query) = case;
        let mut index = VectorIndex::new();
        for (id, item) in items.iter().enumerate() {
            index.insert(id, item);
        }
        for (pos, item) in items.iter().enumerate() {
            prop_assert_eq!(bits(&index.embedding(pos)), bits(item));
        }
        for q in [&query, &odd_query] {
            let got: Vec<(usize, u32)> = (index.search(q, k, min_score).into_iter())
                .map(|hit| (hit.id, hit.score.to_bits()))
                .collect();
            prop_assert_eq!(got, dense_search(&items, q, k, min_score));
        }
        let positions: Vec<usize> = (0..items.len()).rev().collect();
        let dense: Vec<u32> = (positions.iter())
            .map(|&pos| cosine(&query, &items[pos]).to_bits())
            .collect();
        prop_assert_eq!(bits(&index.cosines(&query, positions)), dense);
    }

    /// The memo changes no bit: expanding the query's embedding by the
    /// expansion texts' memoised (nonzero-pair) vectors equals
    /// `embed_expanded` and the dense sum over every slot, in
    /// `f32::to_bits` — at 8 slots, where terms collide and cancel, and at
    /// the default dimension; for an empty expansion list, which returns
    /// the base not renormalised; and for symbol-only texts, whose
    /// embedding is the zero vector.
    #[test]
    fn memoised_expansion_is_embed_expanded_bit_for_bit(
        corpus in prop::collection::vec(text(), 1..8),
        query in text(),
        expansions in prop::collection::vec(text(), 0..6),
        narrow in any::<bool>(),
    ) {
        let vocabulary = Vocabulary::fit(corpus.iter().map(String::as_str));
        let e = if narrow {
            Embedder::with_dim(vocabulary, 8)
        } else {
            Embedder::new(vocabulary)
        };
        let memoised: Vec<SparseEmbedding> = expansions.iter().map(|t| e.embed_sparse(t)).collect();
        let got = expand(e.embed(&query), &memoised.iter().collect::<Vec<_>>());
        let texts: Vec<&str> = expansions.iter().map(String::as_str).collect();
        prop_assert_eq!(bits(&got), bits(&e.embed_expanded(&query, &texts)));
        prop_assert_eq!(bits(&got), bits(&dense_expansion(&e, &query, &texts)));
        if texts.is_empty() {
            prop_assert_eq!(bits(&got), bits(&e.embed(&query)));
        }
        for text in texts.iter().chain([&query.as_str()]) {
            if tokenize(text).is_empty() {
                prop_assert!(e.embed(text).iter().all(|x| x.to_bits() == 0), "{text:?}");
                prop_assert_eq!(e.embed_sparse(text), SparseEmbedding::default());
            }
        }
    }
}
