//! # genedit-retrieval — deterministic embedding & retrieval substrate
//!
//! The GenEdit paper re-ranks retrieved knowledge "based on a cosine
//! similarity score with the reformulated query" (§3.1.1), using a neural
//! embedding model. This crate substitutes a deterministic, dependency-free
//! embedding: TF-IDF-weighted hashed bag-of-words with word bigrams,
//! projected into a fixed-dimension vector. What the pipeline needs from
//! embeddings — *relative* similarity that improves when the query text is
//! expanded with the text of already-selected knowledge (context expansion)
//! — is fully preserved.
//!
//! Components:
//! * [`tokenize`] — lowercasing alphanumeric tokenizer,
//! * [`Vocabulary`] — document-frequency statistics for IDF weighting,
//! * [`Embedder`] — hashed TF-IDF embedding into `R^dim`,
//! * [`expand`] — context expansion of an embedded query by
//!   [`SparseEmbedding`]s,
//! * [`cosine`] — cosine similarity,
//! * [`VectorIndex`] — brute-force exact top-k index with stable ordering.
//!
//! ```
//! use genedit_retrieval::{Embedder, Vocabulary, VectorIndex};
//!
//! let docs = ["quarterly revenue by team", "viewership numbers by country"];
//! let embedder = Embedder::new(Vocabulary::fit(docs.iter().copied()));
//!
//! let mut index = VectorIndex::new();
//! for (i, doc) in docs.iter().enumerate() {
//!     index.insert(i, embedder.embed(doc));
//! }
//!
//! let hits = index.search(&embedder.embed("revenue per quarter"), 1, 0.0);
//! assert_eq!(hits[0].id, 0); // the revenue doc wins on cosine similarity
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod embed;
pub mod index;
pub mod token;

pub use embed::{cosine, expand, Embedder, Embedding, SparseEmbedding, Vocabulary};
pub use index::{rerank_top_k, rerank_top_k_with_stats, RerankStats, SearchHit, VectorIndex};
pub use token::tokenize;
