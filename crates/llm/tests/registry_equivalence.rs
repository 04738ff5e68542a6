//! `TaskRegistry::lookup` against a reference copy of the scan it must
//! keep answering like: the exact normalized-question match first, then
//! the best content-token Jaccard score over every task, kept when it
//! reaches 0.6, the earliest task winning a tie. The reference below
//! builds a `BTreeSet<String>` of content tokens per call and compares
//! strings; the registry may find the same task any way it likes.
//!
//! Questions: every question of `Workload::standard(42)`, the oracle's
//! reformulation of each, and seeded variants of both — a dropped,
//! duplicated or reordered token, an unseen token, upper-case and
//! non-ASCII letters — plus hand-built edge cases (stopwords only, the
//! empty string, a tie between two tasks, a score of exactly 0.6).
//!
//! The facts the registry derives once per task are held to the per-call
//! derivations they replaced, from a fresh `gold_query()`.

use genedit_bird::complexity::sweep_variants;
use genedit_bird::{Workload, SPORTS};
use genedit_knowledge::decompose;
use genedit_llm::{
    CompletionRequest, CompletionResponse, Difficulty, LanguageModel, OracleModel, Prompt,
    TaskKind, TaskKnowledge, TaskRegistry,
};
use genedit_sql::analysis::{complexity, referenced_columns};
use std::collections::{BTreeSet, HashMap};

/// The lookup as it was written before the registry stored interned ids.
struct Reference {
    by_norm: HashMap<String, usize>,
    content: Vec<BTreeSet<String>>,
}

const STOPWORDS: &[&str] = &[
    "show", "me", "the", "a", "an", "of", "is", "are", "was", "were", "what", "which", "how",
    "many", "identify", "list", "find", "give", "tell", "number", "do", "does", "please", "in",
    "for", "at", "on", "by", "per", "to", "and", "or", "with", "from",
];

fn tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
}

fn content_tokens(text: &str) -> BTreeSet<String> {
    tokens(text)
        .into_iter()
        .filter(|t| !STOPWORDS.contains(&t.as_str()))
        .collect()
}

fn normalize(text: &str) -> String {
    let mut t = tokens(text);
    t.sort();
    t.join(" ")
}

impl Reference {
    fn new(tasks: &[TaskKnowledge]) -> Reference {
        let mut by_norm = HashMap::new();
        let mut content = Vec::new();
        for (i, t) in tasks.iter().enumerate() {
            by_norm.insert(normalize(&t.question), i);
            content.push(content_tokens(&t.question));
        }
        Reference { by_norm, content }
    }

    fn lookup(&self, question: &str) -> Option<usize> {
        if let Some(&i) = self.by_norm.get(&normalize(question)) {
            return Some(i);
        }
        let q_tokens = content_tokens(question);
        let mut best: Option<(f64, usize)> = None;
        for (i, t_tokens) in self.content.iter().enumerate() {
            let inter = q_tokens.intersection(t_tokens).count();
            let union = q_tokens.len() + t_tokens.len() - inter;
            if union == 0 {
                continue;
            }
            let j = inter as f64 / union as f64;
            if best.map(|(b, _)| j > b).unwrap_or(true) {
                best = Some((j, i));
            }
        }
        match best {
            Some((score, i)) if score >= 0.6 => Some(i),
            _ => None,
        }
    }
}

/// The registry's answer as a position in registration order.
fn position(registry: &TaskRegistry, question: &str) -> Option<usize> {
    let hit = registry.lookup(question)?;
    registry.tasks().iter().position(|t| std::ptr::eq(t, hit))
}

fn assert_same(registry: &TaskRegistry, reference: &Reference, question: &str) {
    assert_eq!(
        position(registry, question),
        reference.lookup(question),
        "lookup({question:?})"
    );
}

/// splitmix64: the variants are seeded, so a failure reproduces.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Seeded edits of one question, each a way a caller's phrasing can
/// differ from the registered one.
fn variants(question: &str, rng: &mut Rng) -> Vec<String> {
    let words: Vec<&str> = question.split_whitespace().collect();
    let mut out = vec![
        question.to_uppercase(),
        question.to_lowercase(),
        format!("{question} zzqx"),
        format!("Straße {question} ΟΔΟΣ"),
        format!("{question} İstanbul Ünïcødé"),
        question.replace('e', "é"),
    ];
    if words.is_empty() {
        return out;
    }
    for _ in 0..4 {
        let i = rng.below(words.len());
        let j = rng.below(words.len());
        let mut dropped = words.clone();
        dropped.remove(i);
        out.push(dropped.join(" "));
        let mut duplicated = words.clone();
        duplicated.insert(j, words[i]);
        out.push(duplicated.join(" "));
        let mut reordered = words.clone();
        reordered.swap(i, j);
        out.push(reordered.join(" "));
        let mut unseen = words.clone();
        unseen.insert(j, "qqunseenqq");
        out.push(unseen.join(" "));
    }
    out
}

fn reformulate(oracle: &OracleModel, question: &str) -> String {
    let request = CompletionRequest::new(Prompt::new(TaskKind::Reformulate, question));
    match oracle.complete(&request) {
        Ok(CompletionResponse::Text(text)) => text,
        other => panic!("oracle did not reformulate {question:?}: {other:?}"),
    }
}

#[test]
fn lookup_matches_the_reference_scan_on_the_gold_suite_and_its_variants() {
    let workload = Workload::standard(42);
    let registry = workload.registry();
    assert_eq!(registry.len(), 132);
    let reference = Reference::new(registry.tasks());
    let oracle = OracleModel::new(registry.clone());
    let mut rng = Rng(42);
    let mut checked = 0;
    let mut hits = 0;
    for task in registry.tasks() {
        let reformulated = reformulate(&oracle, &task.question);
        for question in [task.question.clone(), reformulated] {
            assert_same(&registry, &reference, &question);
            checked += 1;
            for variant in variants(&question, &mut rng) {
                assert_same(&registry, &reference, &variant);
                hits += usize::from(registry.lookup(&variant).is_some());
                checked += 1;
            }
        }
    }
    // Both outcomes occur: the variants are near misses, not all misses.
    assert!(hits > checked / 2 && hits < checked, "{hits} of {checked}");
}

fn task(id: &str, question: &str) -> TaskKnowledge {
    TaskKnowledge {
        task_id: id.into(),
        question: question.into(),
        db_name: "db".into(),
        gold_sql: "SELECT 1".into(),
        intent: "fin".into(),
        difficulty: Difficulty::Simple,
        required_terms: vec![],
        required_tables: vec![],
        required_columns: vec![],
        evidence: vec![],
        distractor_table: None,
        distractor_column: None,
    }
}

fn registry_of(questions: &[&str]) -> (TaskRegistry, Reference) {
    let mut registry = TaskRegistry::new();
    for (i, q) in questions.iter().enumerate() {
        registry.register(task(&format!("t{i}"), q));
    }
    let reference = Reference::new(registry.tasks());
    (registry, reference)
}

#[test]
fn stopword_only_and_empty_questions_match_the_reference() {
    let workload = Workload::standard(42);
    let registry = workload.registry();
    let reference = Reference::new(registry.tasks());
    for question in [
        "",
        "   ",
        "?!",
        "show me the",
        "Show me the number of",
        "what is in",
    ] {
        assert_same(&registry, &reference, question);
    }
    // A stopword-only task: its content set is empty, so only the exact
    // match or an empty-set question can reach it.
    let (registry, reference) = registry_of(&["show me the", "alpha beta gamma"]);
    for question in ["show me the", "the me show", "show", "", "alpha beta gamma"] {
        assert_same(&registry, &reference, question);
    }
    assert_eq!(position(&registry, "the show me"), Some(0));
    assert_eq!(position(&registry, "show"), None);
    assert_eq!(position(&registry, ""), None);
}

#[test]
fn ties_go_to_the_earliest_registered_task() {
    // An exact tie at 0.75: each task shares three of its four tokens
    // with the question.
    let (registry, reference) =
        registry_of(&["alpha beta gamma delta", "alpha beta gamma epsilon"]);
    let question = "show me alpha beta gamma";
    assert_same(&registry, &reference, question);
    assert_eq!(position(&registry, question), Some(0));
    // Registered the other way round, the other task wins.
    let (registry, reference) =
        registry_of(&["alpha beta gamma epsilon", "alpha beta gamma delta"]);
    assert_same(&registry, &reference, question);
    assert_eq!(position(&registry, question), Some(0));
    // A strictly better later task still wins.
    let (registry, reference) = registry_of(&["alpha beta gamma delta", "alpha beta gamma"]);
    assert_same(&registry, &reference, question);
    assert_eq!(position(&registry, question), Some(1));
}

#[test]
fn a_score_of_exactly_the_threshold_is_a_hit() {
    let (registry, reference) = registry_of(&["alpha beta gamma"]);
    // 3 shared of 5 distinct: exactly 0.6.
    let at = "alpha beta gamma delta epsilon";
    assert_same(&registry, &reference, at);
    assert_eq!(position(&registry, at), Some(0));
    // 3 of 6: 0.5, a miss.
    let below = "alpha beta gamma delta epsilon zeta";
    assert_same(&registry, &reference, below);
    assert_eq!(position(&registry, below), None);
    // Duplicates do not count twice: still 3 of 5.
    let duplicated = "alpha alpha beta gamma delta delta epsilon";
    assert_same(&registry, &reference, duplicated);
    assert_eq!(position(&registry, duplicated), Some(0));
}

#[test]
fn case_and_non_ascii_letters_fold_like_the_reference() {
    let (registry, reference) = registry_of(&[
        "Revenue of Straße organisations in İstanbul",
        "ΟΔΟΣ viewership per Région",
    ]);
    for question in [
        "REVENUE OF STRASSE ORGANISATIONS IN İSTANBUL",
        "revenue of straße organisations in i̇stanbul",
        "Revenue of STRAẞE organisations in istanbul",
        "οδος viewership per région",
        "ΟΔΟΣ VIEWERSHIP PER RÉGION",
        "Οδος viewership per region",
        "οδοσ viewership per région",
    ] {
        assert_same(&registry, &reference, question);
    }
}

#[test]
fn stored_facts_equal_a_fresh_derivation_from_the_gold_query() {
    let mut registry = Workload::standard(42).registry();
    // The complexity sweep's chained-CTE tasks: the deepest gold queries.
    for depth in 1..=8 {
        for task in sweep_variants(&SPORTS, depth) {
            registry.register(task);
        }
    }
    assert_eq!(registry.facts().len(), registry.len());
    for (task, facts) in registry.tasks().iter().zip(registry.facts()) {
        let gold = task.gold_query();
        let id = &task.task_id;
        assert_eq!(facts.gold_sql(), gold.to_string(), "{id}");
        assert_eq!(facts.fragments(), decompose(&gold).as_slice(), "{id}");
        assert_eq!(facts.complexity(), complexity(&gold).total(), "{id}");
        assert_eq!(
            facts.referenced_columns(),
            &referenced_columns(&gold),
            "{id}"
        );
        // A lookup hands back the facts of the task it found.
        let (hit, hit_facts) = registry.lookup_with_facts(&task.question).unwrap();
        let i = position(&registry, &hit.question).unwrap();
        assert!(std::ptr::eq(hit, &registry.tasks()[i]), "{id}");
        assert!(std::ptr::eq(hit_facts, &registry.facts()[i]), "{id}");
    }
}
