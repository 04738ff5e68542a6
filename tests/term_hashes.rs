//! The vocabulary counts a term's documents under the term's FNV-1a 64
//! hash, so two terms with one hash would share a document frequency.
//! This test holds that no two distinct terms the pipeline embeds over
//! the standard workload share a hash — the tokens and bigrams of every
//! retrieval text, example expansion, instruction text and retrieval
//! hint of the four domains' knowledge sets, and of the 132 questions —
//! so there the hash-keyed table counts what a text-keyed one would.

use genedit::bird::Workload;
use genedit::knowledge::RetrievalStage;
use genedit::retrieval::token::bigrams;
use genedit::retrieval::tokenize;
use genedit::telemetry::hash::fnv1a64;
use std::collections::HashMap;

#[test]
fn every_workload_term_has_its_own_hash() {
    let workload = Workload::standard(42);
    let mut texts: Vec<String> = Vec::new();
    for bundle in &workload.domains {
        let ks = bundle.build_knowledge();
        for e in ks.examples() {
            texts.push(e.retrieval_text());
            texts.push(format!("{} {}", e.description, e.fragment.sql));
        }
        for i in ks.instructions() {
            texts.push(i.retrieval_text());
            texts.push(i.text.clone());
        }
        texts.extend(ks.schema_elements().iter().map(|s| s.retrieval_text()));
        for stage in [
            RetrievalStage::ExampleSelection,
            RetrievalStage::InstructionSelection,
            RetrievalStage::SchemaLinking,
        ] {
            texts.extend(ks.retrieval_hints(stage).into_iter().map(String::from));
        }
        texts.extend(bundle.tasks.iter().map(|t| t.question.clone()));
    }

    let mut by_hash: HashMap<u64, String> = HashMap::new();
    for text in &texts {
        let tokens = tokenize(text);
        for term in bigrams(&tokens).into_iter().chain(tokens) {
            let held = by_hash
                .entry(fnv1a64(term.as_bytes()))
                .or_insert(term.clone());
            assert_eq!(*held, term, "two terms share a hash");
        }
    }
    // 1,617 terms at seed 42: a workload change that empties a source
    // shows.
    assert!(by_hash.len() > 1_500, "{} distinct terms", by_hash.len());
}
