//! Retrieval index over a knowledge set.
//!
//! Built once per knowledge-set version; the pipeline's compounding
//! retrieval operators (§3.1.1) query it with progressively expanded
//! embeddings.

use genedit_knowledge::tenants::{StoredVectors, TenantSnapshot, TenantStoreError};
use genedit_knowledge::{Example, Instruction, KnowledgeSet, SchemaElement};
use genedit_retrieval::{Embedder, Embedding, VectorIndex, Vocabulary};

/// A knowledge set plus embedding indexes for its three element kinds.
pub struct KnowledgeIndex {
    ks: KnowledgeSet,
    embedder: Embedder,
    examples: VectorIndex,
    instructions: VectorIndex,
    schema: VectorIndex,
}

impl KnowledgeIndex {
    /// Fit the vocabulary over the whole knowledge corpus and index every
    /// element.
    pub fn build(ks: KnowledgeSet) -> KnowledgeIndex {
        KnowledgeIndex::build_with_vectors(ks, None)
    }

    /// [`KnowledgeIndex::build`], but reuse pre-computed embedding
    /// vectors when they still describe this knowledge set (same
    /// dimensionality as the freshly fitted vocabulary, one vector per
    /// element). Vectors that do not match are ignored and everything is
    /// re-embedded — the result is identical either way, because the
    /// vocabulary fit and the embedder are deterministic functions of
    /// the corpus.
    pub fn build_with_vectors(ks: KnowledgeSet, stored: Option<&StoredVectors>) -> KnowledgeIndex {
        let mut vocab = Vocabulary::new();
        for e in ks.examples() {
            vocab.add_document(&e.retrieval_text());
        }
        for i in ks.instructions() {
            vocab.add_document(&i.retrieval_text());
        }
        for s in ks.schema_elements() {
            vocab.add_document(&s.retrieval_text());
        }
        let embedder = Embedder::new(vocab);
        let usable = stored.filter(|v| {
            v.dim == embedder.dim()
                && v.examples.len() == ks.examples().len()
                && v.instructions.len() == ks.instructions().len()
                && v.schema.len() == ks.schema_elements().len()
        });

        let mut examples = VectorIndex::new();
        let mut instructions = VectorIndex::new();
        let mut schema = VectorIndex::new();
        match usable {
            Some(v) => {
                for (pos, vec) in v.examples.iter().enumerate() {
                    examples.insert(pos, vec.clone());
                }
                for (pos, vec) in v.instructions.iter().enumerate() {
                    instructions.insert(pos, vec.clone());
                }
                for (pos, vec) in v.schema.iter().enumerate() {
                    schema.insert(pos, vec.clone());
                }
            }
            None => {
                for (pos, e) in ks.examples().iter().enumerate() {
                    examples.insert(pos, embedder.embed(&e.retrieval_text()));
                }
                for (pos, i) in ks.instructions().iter().enumerate() {
                    instructions.insert(pos, embedder.embed(&i.retrieval_text()));
                }
                for (pos, s) in ks.schema_elements().iter().enumerate() {
                    schema.insert(pos, embedder.embed(&s.retrieval_text()));
                }
            }
        }
        KnowledgeIndex {
            ks,
            embedder,
            examples,
            instructions,
            schema,
        }
    }

    /// Build from a tenant store snapshot: the knowledge content and any
    /// stored vectors are read through pinned buffer-pool pages, so a
    /// cold tenant pages in without replaying its WAL and — when vectors
    /// were written back — without re-embedding its corpus.
    pub fn from_snapshot(snapshot: &TenantSnapshot) -> Result<KnowledgeIndex, TenantStoreError> {
        let ks = snapshot.knowledge_set()?;
        let vectors = snapshot.vectors()?;
        Ok(KnowledgeIndex::build_with_vectors(ks, vectors.as_ref()))
    }

    /// The embedding vectors of every indexed element, in content order —
    /// what [`genedit_knowledge::tenants::TenantKnowledgeStore::put_vectors`]
    /// persists so the next cold page-in skips re-embedding.
    pub fn export_vectors(&self) -> StoredVectors {
        StoredVectors {
            dim: self.embedder.dim(),
            examples: self
                .ks
                .examples()
                .iter()
                .map(|e| self.embedder.embed(&e.retrieval_text()))
                .collect(),
            instructions: self
                .ks
                .instructions()
                .iter()
                .map(|i| self.embedder.embed(&i.retrieval_text()))
                .collect(),
            schema: self
                .ks
                .schema_elements()
                .iter()
                .map(|s| self.embedder.embed(&s.retrieval_text()))
                .collect(),
        }
    }

    /// The knowledge set this index was built over.
    pub fn knowledge(&self) -> &KnowledgeSet {
        &self.ks
    }

    /// The embedder fitted to this knowledge set's corpus.
    pub fn embedder(&self) -> &Embedder {
        &self.embedder
    }

    /// The embedding the index holds for `knowledge().schema_elements()[pos]`
    /// — that of its [`SchemaElement::retrieval_text`].
    ///
    /// # Panics
    /// If `pos` is not a position in `knowledge().schema_elements()`.
    pub fn schema_vector(&self, pos: usize) -> &Embedding {
        self.schema.embedding(pos)
    }

    /// Top-k examples by cosine similarity to a query embedding. Examples
    /// attached to one of `intents` are boosted, implementing the paper's
    /// "uses the user intents to retrieve their associated examples …
    /// then retrieves further relevant examples based on the query".
    ///
    /// Selection is *kind-diversified*: the best example of each fragment
    /// kind is taken first, then remaining slots fill by score. Decomposed
    /// examples exist to cover sub-statement patterns (§3.2.1), so the
    /// selection must span clause kinds, not just repeat the top-scoring
    /// one — this is what lets the CoT plan ground every step.
    pub fn top_examples(
        &self,
        query: &Embedding,
        intents: &[String],
        k: usize,
    ) -> Vec<(&Example, f32)> {
        let hits = self.examples.search(query, self.examples.len(), f32::MIN);
        let mut scored: Vec<(&Example, f32)> = hits
            .into_iter()
            .map(|h| {
                let ex = &self.ks.examples()[h.id];
                let boost = if ex
                    .intent
                    .as_deref()
                    .map(|i| intents.iter().any(|x| x == i))
                    .unwrap_or(false)
                {
                    0.15
                } else {
                    0.0
                };
                (ex, h.score + boost)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));

        let mut out: Vec<(&Example, f32)> = Vec::with_capacity(k);
        let mut kinds_taken: std::collections::BTreeSet<_> = Default::default();
        // Pass 1: best example per fragment kind, in score order.
        for (ex, score) in &scored {
            if out.len() >= k {
                break;
            }
            if kinds_taken.insert(ex.fragment.kind) {
                out.push((*ex, *score));
            }
        }
        // Pass 2: fill remaining slots by raw score.
        for (ex, score) in &scored {
            if out.len() >= k {
                break;
            }
            if !out.iter().any(|(e, _)| e.id == ex.id) {
                out.push((*ex, *score));
            }
        }
        out
    }

    /// Top-k instructions; same intent boost.
    pub fn top_instructions(
        &self,
        query: &Embedding,
        intents: &[String],
        k: usize,
    ) -> Vec<(&Instruction, f32)> {
        let hits = self
            .instructions
            .search(query, self.instructions.len(), f32::MIN);
        let mut scored: Vec<(&Instruction, f32)> = hits
            .into_iter()
            .map(|h| {
                let ins = &self.ks.instructions()[h.id];
                let boost = if ins
                    .intent
                    .as_deref()
                    .map(|i| intents.iter().any(|x| x == i))
                    .unwrap_or(false)
                {
                    0.15
                } else {
                    0.0
                };
                (ins, h.score + boost)
            })
            .collect();
        scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
        scored.truncate(k);
        scored
    }

    /// Top-k schema elements by similarity (used as the re-rank filter
    /// after the LLM linking call).
    pub fn top_schema(&self, query: &Embedding, k: usize) -> Vec<(&SchemaElement, f32)> {
        self.schema
            .search(query, k, f32::MIN)
            .into_iter()
            .map(|h| (&self.ks.schema_elements()[h.id], h.score))
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_knowledge::{Edit, FragmentKind, Intent, SourceRef, SqlFragment};

    fn sample_index() -> KnowledgeIndex {
        let mut ks = KnowledgeSet::new();
        ks.apply(Edit::AddIntent(Intent::new("fin", "Financial", "money")))
            .unwrap();
        ks.apply(Edit::InsertExample {
            intent: Some("fin".into()),
            description: "filter by ownership flag COC for our organizations".into(),
            fragment: SqlFragment::new(FragmentKind::Where, "WHERE FLAG = 'COC'", "main"),
            term: Some("COC".into()),
            source: SourceRef::Manual,
        })
        .unwrap();
        ks.apply(Edit::InsertExample {
            intent: None,
            description: "order players by jersey number".into(),
            fragment: SqlFragment::new(FragmentKind::OrderBy, "ORDER BY JERSEY", "main"),
            term: None,
            source: SourceRef::Manual,
        })
        .unwrap();
        ks.apply(Edit::InsertInstruction {
            intent: Some("fin".into()),
            text: "QoQFP compares quarterly financials".into(),
            sql_hint: None,
            term: Some("QoQFP".into()),
            source: SourceRef::Manual,
        })
        .unwrap();
        KnowledgeIndex::build(ks)
    }

    #[test]
    fn relevant_example_ranks_first() {
        let idx = sample_index();
        let q = idx
            .embedder()
            .embed("show our organizations with ownership flag");
        let top = idx.top_examples(&q, &[], 2);
        assert_eq!(top[0].0.term.as_deref(), Some("COC"));
        assert!(top[0].1 > top[1].1);
    }

    #[test]
    fn intent_boost_changes_ranking() {
        let idx = sample_index();
        // A query equally unrelated to both examples: the intent boost
        // must pull the fin example up.
        let q = idx.embedder().embed("zzz unrelated words qqq");
        let without = idx.top_examples(&q, &[], 2);
        let with = idx.top_examples(&q, &["fin".to_string()], 2);
        let fin_pos_without = without
            .iter()
            .position(|(e, _)| e.intent.as_deref() == Some("fin"))
            .unwrap();
        let fin_pos_with = with
            .iter()
            .position(|(e, _)| e.intent.as_deref() == Some("fin"))
            .unwrap();
        assert!(fin_pos_with <= fin_pos_without);
        assert_eq!(fin_pos_with, 0);
    }

    #[test]
    fn k_truncates() {
        let idx = sample_index();
        let q = idx.embedder().embed("anything");
        assert_eq!(idx.top_examples(&q, &[], 1).len(), 1);
        assert_eq!(idx.top_instructions(&q, &[], 10).len(), 1);
        assert!(idx.top_schema(&q, 5).is_empty()); // no schema elements
    }
}
