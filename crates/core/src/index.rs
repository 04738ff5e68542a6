//! Retrieval index over a knowledge set.
//!
//! Built once per knowledge-set version; the pipeline's compounding
//! retrieval operators (§3.1.1) query it with progressively expanded
//! embeddings.

use genedit_knowledge::tenants::{StoredVectors, TenantSnapshot, TenantStoreError};
use genedit_knowledge::{Example, Instruction, KnowledgeSet, RetrievalStage, SchemaElement};
use genedit_retrieval::{Embedder, Embedding, SparseEmbedding, VectorIndex, Vocabulary};
use std::sync::OnceLock;

/// A knowledge set plus embedding indexes for its three element kinds.
///
/// Immutable once built: a knowledge edit builds a new index. That is
/// what makes it correct for the index to memoise the vectors the
/// compounding re-ranks expand their query with — each example's
/// expansion vector, each instruction's text vector, the
/// instruction-selection hint vectors — as functions of its knowledge
/// epoch rather than of the request. Each memo fills on first use, so
/// building an index, or paging one in, embeds no more than it did
/// without them.
pub struct KnowledgeIndex {
    ks: KnowledgeSet,
    embedder: Embedder,
    examples: VectorIndex,
    instructions: VectorIndex,
    schema: VectorIndex,
    example_expansions: Vec<OnceLock<SparseEmbedding>>,
    instruction_texts: Vec<OnceLock<SparseEmbedding>>,
    instruction_hints: OnceLock<Vec<SparseEmbedding>>,
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
            // Each stored vector is read in place into the index's
            // nonzero pairs.
            Some(v) => {
                for (pos, vec) in v.examples.iter().enumerate() {
                    examples.insert(pos, vec);
                }
                for (pos, vec) in v.instructions.iter().enumerate() {
                    instructions.insert(pos, vec);
                }
                for (pos, vec) in v.schema.iter().enumerate() {
                    schema.insert(pos, vec);
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
        let memo = |n: usize| std::iter::repeat_with(OnceLock::new).take(n).collect();
        KnowledgeIndex {
            example_expansions: memo(ks.examples().len()),
            instruction_texts: memo(ks.instructions().len()),
            instruction_hints: OnceLock::new(),
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
    /// persists so the next cold page-in skips re-embedding. They are the
    /// vectors the index holds, densified, so nothing is embedded again
    /// and the stored stream keeps its dense layout.
    pub fn export_vectors(&self) -> StoredVectors {
        let all = |index: &VectorIndex| -> Vec<Embedding> {
            (0..index.len()).map(|pos| index.embedding(pos)).collect()
        };
        StoredVectors {
            dim: self.embedder.dim(),
            examples: all(&self.examples),
            instructions: all(&self.instructions),
            schema: all(&self.schema),
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

    /// [`genedit_retrieval::cosine`] of `query` with the embedding the
    /// index holds for each of `knowledge().schema_elements()[pos]` (that
    /// of its [`SchemaElement::retrieval_text`]), bit for bit, computed
    /// over the index's nonzero pairs.
    ///
    /// # Panics
    /// If a position is not one in `knowledge().schema_elements()`.
    pub(crate) fn schema_cosines(
        &self,
        query: &Embedding,
        positions: impl IntoIterator<Item = usize>,
    ) -> Vec<f32> {
        self.schema.cosines(query, positions)
    }

    /// The expansion vector of `knowledge().examples()[pos]`: the
    /// embedding of `"{description} {sql}"`, the text a selected example
    /// adds to the later re-ranks' query. Not the indexed vector, which
    /// also carries the example's term. Embedded on first use.
    pub(crate) fn example_expansion(&self, pos: usize) -> &SparseEmbedding {
        self.example_expansions[pos].get_or_init(|| {
            let e = &self.ks.examples()[pos];
            let text = format!("{} {}", e.description, e.fragment.sql);
            self.embedder.embed_sparse(&text)
        })
    }

    /// The embedding of `knowledge().instructions()[pos].text`, which a
    /// selected instruction adds to the schema re-rank's query. Embedded
    /// on first use.
    pub(crate) fn instruction_text(&self, pos: usize) -> &SparseEmbedding {
        self.instruction_texts[pos].get_or_init(|| {
            self.embedder
                .embed_sparse(&self.ks.instructions()[pos].text)
        })
    }

    /// The embeddings of the instruction-selection retrieval hints, in
    /// knowledge order. Embedded on first use.
    pub(crate) fn instruction_hints(&self) -> &[SparseEmbedding] {
        self.instruction_hints.get_or_init(|| {
            let hints = self
                .ks
                .retrieval_hints(RetrievalStage::InstructionSelection);
            hints
                .iter()
                .map(|h| self.embedder.embed_sparse(h))
                .collect()
        })
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
        let examples = self.ks.examples();
        let ranked = self.rank_examples(query, intents, k).into_iter();
        ranked.map(|(pos, score)| (&examples[pos], score)).collect()
    }

    /// [`KnowledgeIndex::top_examples`] as positions in
    /// `knowledge().examples()`.
    pub(crate) fn rank_examples(
        &self,
        query: &Embedding,
        intents: &[String],
        k: usize,
    ) -> Vec<(usize, f32)> {
        let examples = self.ks.examples();
        let scored = boosted(&self.examples, query, intents, |pos| &examples[pos].intent);

        let mut out: Vec<(usize, f32)> = Vec::with_capacity(k);
        let mut kinds_taken: std::collections::BTreeSet<_> = Default::default();
        // Pass 1: best example per fragment kind, in score order.
        for &(pos, score) in &scored {
            if out.len() >= k {
                break;
            }
            if kinds_taken.insert(examples[pos].fragment.kind) {
                out.push((pos, score));
            }
        }
        // Pass 2: fill remaining slots by raw score.
        for &(pos, score) in &scored {
            if out.len() >= k {
                break;
            }
            if !out.iter().any(|(taken, _)| *taken == pos) {
                out.push((pos, score));
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
        let instructions = self.ks.instructions();
        let ranked = self.rank_instructions(query, intents, k).into_iter();
        ranked
            .map(|(pos, score)| (&instructions[pos], score))
            .collect()
    }

    /// [`KnowledgeIndex::top_instructions`] as positions in
    /// `knowledge().instructions()`.
    pub(crate) fn rank_instructions(
        &self,
        query: &Embedding,
        intents: &[String],
        k: usize,
    ) -> Vec<(usize, f32)> {
        let instructions = self.ks.instructions();
        let mut scored = boosted(&self.instructions, query, intents, |pos| {
            &instructions[pos].intent
        });
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

/// Every element of `index` by cosine similarity to `query`, plus 0.15
/// when its intent (`intent_of(position)`) is one of `intents`, best
/// first.
fn boosted<'k>(
    index: &VectorIndex,
    query: &Embedding,
    intents: &[String],
    intent_of: impl Fn(usize) -> &'k Option<String>,
) -> Vec<(usize, f32)> {
    let hits = index.search(query, index.len(), f32::MIN);
    let mut scored: Vec<(usize, f32)> = hits
        .into_iter()
        .map(|h| {
            let matched = intent_of(h.id)
                .as_deref()
                .is_some_and(|i| intents.iter().any(|x| x == i));
            (h.id, h.score + if matched { 0.15 } else { 0.0 })
        })
        .collect();
    scored.sort_by(|a, b| b.1.partial_cmp(&a.1).unwrap_or(std::cmp::Ordering::Equal));
    scored
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

    /// `export_vectors` hands out the vectors the index holds, and those
    /// are a fresh `embed(retrieval_text)` of every element, bit for bit —
    /// whether the index embedded its corpus or was built from stored
    /// vectors.
    #[test]
    fn exported_vectors_are_the_retrieval_text_embeddings() {
        let bundle = genedit_bird::DomainBundle::build(&genedit_bird::SPORTS, (4, 2, 1), 42);
        let built = KnowledgeIndex::build(bundle.build_knowledge());
        let stored = built.export_vectors();
        let reloaded = KnowledgeIndex::build_with_vectors(bundle.build_knowledge(), Some(&stored));
        for index in [&built, &reloaded] {
            let bits = |v: &Embedding| v.iter().map(|x| x.to_bits()).collect::<Vec<u32>>();
            let fresh = |text: String| bits(&index.embedder().embed(&text));
            let ks = index.knowledge();
            let got = index.export_vectors();
            assert_eq!(got.dim, index.embedder().dim());
            assert_eq!(
                got.examples.iter().map(bits).collect::<Vec<_>>(),
                ks.examples()
                    .iter()
                    .map(|e| fresh(e.retrieval_text()))
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                got.instructions.iter().map(bits).collect::<Vec<_>>(),
                (ks.instructions().iter())
                    .map(|i| fresh(i.retrieval_text()))
                    .collect::<Vec<_>>()
            );
            assert_eq!(
                got.schema.iter().map(bits).collect::<Vec<_>>(),
                (ks.schema_elements().iter())
                    .map(|s| fresh(s.retrieval_text()))
                    .collect::<Vec<_>>()
            );
            assert!(!got.examples.is_empty() && !got.instructions.is_empty());
            assert!(!got.schema.is_empty());
        }
    }
}
