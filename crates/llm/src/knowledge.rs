//! Task knowledge registry.
//!
//! In a real deployment the LLM "knows how to write SQL" and the question
//! is whether the prompt gives it the *enterprise knowledge* it lacks. The
//! oracle model reproduces that split: each benchmark task privately
//! registers its gold SQL together with the knowledge requirements needed
//! to produce it, and the oracle corrupts the gold query once per
//! requirement the prompt leaves unmet. The pipeline under test never sees
//! this registry.

use crate::mutate;
use genedit_knowledge::{decompose, SqlFragment};
use genedit_sql::analysis::{complexity, referenced_columns};
use genedit_sql::ast::{Query, Statement};
use genedit_sql::parser::parse_statement;
use serde::{Deserialize, Serialize};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// BIRD difficulty strata (§3.3, Table 1).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum Difficulty {
    /// BIRD "simple" stratum.
    Simple,
    /// BIRD "moderate" stratum.
    Moderate,
    /// BIRD "challenging" stratum.
    Challenging,
}

impl Difficulty {
    /// Table 1 row label for this stratum.
    pub fn label(&self) -> &'static str {
        match self {
            Difficulty::Simple => "Simple",
            Difficulty::Moderate => "Moderate",
            Difficulty::Challenging => "Challenging",
        }
    }
}

/// One corruption the oracle applies when a knowledge requirement is
/// unmet. Classified as *binding* (fails loudly at execution, so
/// self-correction can see it) or *silent* (runs fine, returns the wrong
/// answer).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Corruption {
    /// Drop the WHERE conjunct(s) mentioning `marker` — e.g. the ownership
    /// filter when the model does not understand "our" (§4.2.1's example).
    DropWhereConjunct {
        /// Substring identifying the conjunct(s) to drop.
        marker: String,
    },
    /// Use the wrong constant — e.g. the wrong ownership flag value.
    ReplaceStringLiteral {
        /// The correct literal in the gold query.
        from: String,
        /// The wrong literal the corrupted query uses.
        to: String,
    },
    /// Use a wrong or hallucinated column.
    RenameColumn {
        /// The correct column name.
        from: String,
        /// The wrong/hallucinated replacement.
        to: String,
    },
    /// Use a wrong or hallucinated table.
    RenameTable {
        /// The correct table name.
        from: String,
        /// The wrong/hallucinated replacement.
        to: String,
    },
    /// Miscompute with the wrong aggregate.
    SwapAggregate {
        /// The correct aggregate function.
        from: String,
        /// The wrong aggregate the corrupted query uses.
        to: String,
    },
    /// Forget the `-1 *` factor in change metrics.
    StripNegOneMultiplier,
    /// Sort the wrong way (best vs worst confusion).
    FlipOrderDirections,
}

impl Corruption {
    /// Apply to a query AST; returns the number of sites changed.
    pub fn apply(&self, q: &mut Query) -> usize {
        match self {
            Corruption::DropWhereConjunct { marker } => mutate::drop_where_conjunct(q, marker),
            Corruption::ReplaceStringLiteral { from, to } => {
                mutate::replace_string_literal(q, from, to)
            }
            Corruption::RenameColumn { from, to } => mutate::rename_column(q, from, to),
            Corruption::RenameTable { from, to } => mutate::rename_table(q, from, to),
            Corruption::SwapAggregate { from, to } => mutate::rename_function(q, from, to),
            Corruption::StripNegOneMultiplier => mutate::strip_neg_one_multiplier(q),
            Corruption::FlipOrderDirections => mutate::flip_order_directions(q),
        }
    }

    /// Does this corruption surface as an execution error the
    /// self-correction loop can observe? Only hallucinated names do; the
    /// caller decides whether the renamed target exists in the schema.
    pub fn error_marker(&self) -> Option<&str> {
        match self {
            Corruption::RenameColumn { to, .. } => Some(to),
            Corruption::RenameTable { to, .. } => Some(to),
            _ => None,
        }
    }
}

/// A domain-term requirement: if `term` is not covered by the prompt's
/// knowledge sections, `corruption` is applied to the gold query.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TermRequirement {
    /// The domain term the prompt must cover.
    pub term: String,
    /// The corruption applied when it does not.
    pub corruption: Corruption,
}

/// Everything the oracle knows about one benchmark task.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TaskKnowledge {
    /// Stable benchmark identifier.
    pub task_id: String,
    /// The natural-language question, as asked.
    pub question: String,
    /// Database the question runs against.
    pub db_name: String,
    /// The reference SQL.
    pub gold_sql: String,
    /// The intent key this task classifies under.
    pub intent: String,
    /// BIRD difficulty stratum.
    pub difficulty: Difficulty,
    /// Domain terms the question depends on.
    pub required_terms: Vec<TermRequirement>,
    /// Tables (uppercased) the gold query reads.
    pub required_tables: Vec<String>,
    /// Column names (uppercased, unqualified) the gold query needs and
    /// that exist in the database schema. When the prompt's schema section
    /// is non-empty but misses one, the model may hallucinate a column.
    pub required_columns: Vec<String>,
    /// BIRD-style evidence strings shipped with the task. Baselines that
    /// read benchmark evidence put these in the prompt; enterprise
    /// questions often have none (the knowledge-set gap the paper targets).
    pub evidence: Vec<String>,
    /// A plausible wrong table the model confuses the right one with.
    pub distractor_table: Option<String>,
    /// A plausible wrong column used under schema confusion.
    pub distractor_column: Option<(String, String)>,
}

impl TaskKnowledge {
    /// Parse the gold SQL (panics on malformed gold — a benchmark bug).
    pub fn gold_query(&self) -> Query {
        match parse_statement(&self.gold_sql) {
            Ok(Statement::Query(q)) => q,
            Err(e) => panic!("gold SQL for task {} does not parse: {e}", self.task_id),
        }
    }
}

/// What the oracle needs of a task that does not depend on the prompt,
/// derived from the gold SQL once, when the task is registered. The
/// parsed query itself is not kept: the oracle parses the gold again only
/// on a call that mutates it.
#[derive(Debug, Clone, PartialEq)]
pub struct TaskFacts {
    gold_sql: String,
    fragments: Vec<SqlFragment>,
    complexity: u32,
    referenced_columns: BTreeSet<String>,
}

impl TaskFacts {
    /// Derive the facts of `task`; panics, naming the task, when its gold
    /// SQL does not parse.
    fn derive(task: &TaskKnowledge) -> TaskFacts {
        let gold = task.gold_query();
        TaskFacts {
            gold_sql: gold.to_string(),
            fragments: decompose(&gold),
            complexity: complexity(&gold).total(),
            referenced_columns: referenced_columns(&gold),
        }
    }

    /// The gold query as the SQL printer renders it.
    pub fn gold_sql(&self) -> &str {
        &self.gold_sql
    }

    /// `decompose` of the gold query.
    pub fn fragments(&self) -> &[SqlFragment] {
        &self.fragments
    }

    /// `complexity(..).total()` of the gold query.
    pub fn complexity(&self) -> u32 {
        self.complexity
    }

    /// `referenced_columns` of the gold query.
    pub fn referenced_columns(&self) -> &BTreeSet<String> {
        &self.referenced_columns
    }
}

/// Registry mapping questions to task knowledge. Lookup is by normalized
/// token multiset, robust to the pipeline's canonical reformulation
/// ("Show me …" prefixes and similar).
///
/// Every token of every registered question is interned to an id, so a
/// lookup compares ids, not strings. A question token the registry has
/// never seen matches no task; it only counts towards the union.
#[derive(Debug, Clone, Default)]
pub struct TaskRegistry {
    tasks: Vec<TaskKnowledge>,
    facts: Vec<TaskFacts>,
    /// Token → id, over every registered question.
    ids: HashMap<String, u32>,
    /// Per id: whether the token is a stopword.
    stopword: Vec<bool>,
    /// Each question's token ids, sorted, repeats kept: the exact match.
    by_norm: HashMap<Vec<u32>, usize>,
    /// Each task's content-token ids, sorted and distinct: the pipeline
    /// asks every operator after the first about the *reformulated*
    /// question, which the exact map never holds, so the overlap scan
    /// below is the common path, not the fallback.
    content: Vec<Vec<u32>>,
}

impl TaskRegistry {
    /// An empty registry.
    pub fn new() -> TaskRegistry {
        TaskRegistry::default()
    }

    /// Register one task, indexed by its normalized question, and derive
    /// its [`TaskFacts`]. Panics when the gold SQL does not parse (a
    /// benchmark bug): here, once, not on every model call for the task.
    pub fn register(&mut self, task: TaskKnowledge) {
        self.facts.push(TaskFacts::derive(&task));
        let mut all = Vec::new();
        let mut content = Vec::new();
        for token in tokens(&task.question) {
            let id = match self.ids.get(token.as_ref()) {
                Some(&id) => id,
                None => {
                    let id = self.stopword.len() as u32;
                    self.stopword.push(STOPWORDS.contains(&token.as_ref()));
                    self.ids.insert(token.into_owned(), id);
                    id
                }
            };
            all.push(id);
            if !self.stopword[id as usize] {
                content.push(id);
            }
        }
        all.sort_unstable();
        content.sort_unstable();
        content.dedup();
        self.by_norm.insert(all, self.tasks.len());
        self.content.push(content);
        self.tasks.push(task);
    }

    /// Number of registered tasks.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether no tasks are registered.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Every registered task, in registration order.
    pub fn tasks(&self) -> &[TaskKnowledge] {
        &self.tasks
    }

    /// Every registered task's facts, in registration order.
    pub fn facts(&self) -> &[TaskFacts] {
        &self.facts
    }

    /// Look a task up by its benchmark id.
    pub fn by_id(&self, task_id: &str) -> Option<&TaskKnowledge> {
        self.tasks.iter().find(|t| t.task_id == task_id)
    }

    /// Find the task a question refers to. Exact normalized match first,
    /// then best *content-token* overlap (≥ 0.6 Jaccard, the earliest
    /// registered task winning a tie) — canonical reformulation rewrites
    /// function words ("How many …" → "Show me the number of …") but keeps
    /// the content words.
    pub fn lookup(&self, question: &str) -> Option<&TaskKnowledge> {
        self.position(question).map(|i| &self.tasks[i])
    }

    /// [`TaskRegistry::lookup`], with the task's facts.
    pub fn lookup_with_facts(&self, question: &str) -> Option<(&TaskKnowledge, &TaskFacts)> {
        self.position(question)
            .map(|i| (&self.tasks[i], &self.facts[i]))
    }

    fn position(&self, question: &str) -> Option<usize> {
        let mut all = Vec::new();
        let mut content = Vec::new();
        // Distinct content tokens of the question that no task has.
        let mut unseen: Vec<Cow<str>> = Vec::new();
        let mut all_seen = true;
        for token in tokens(question) {
            match self.ids.get(token.as_ref()) {
                Some(&id) => {
                    all.push(id);
                    if !self.stopword[id as usize] {
                        content.push(id);
                    }
                }
                None => {
                    all_seen = false;
                    if !STOPWORDS.contains(&token.as_ref()) && !unseen.contains(&token) {
                        unseen.push(token);
                    }
                }
            }
        }
        // A question with an unseen token has no exact match.
        if all_seen {
            all.sort_unstable();
            if let Some(&i) = self.by_norm.get(&all) {
                return Some(i);
            }
        }
        content.sort_unstable();
        content.dedup();
        let q_len = content.len() + unseen.len();
        let mut best: Option<(f64, usize)> = None;
        for (i, t_content) in self.content.iter().enumerate() {
            let inter = intersection_len(&content, t_content);
            let union = q_len + t_content.len() - inter;
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

/// The size of the intersection of two sorted, distinct id lists.
fn intersection_len(a: &[u32], b: &[u32]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            Ordering::Less => i += 1,
            Ordering::Greater => j += 1,
            Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Lowercased alphanumeric runs; a run with nothing to lowercase is
/// borrowed, not copied.
fn tokens(text: &str) -> impl Iterator<Item = Cow<'_, str>> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| {
            if t.bytes().any(|b| b.is_ascii_uppercase() || !b.is_ascii()) {
                Cow::Owned(t.to_lowercase())
            } else {
                Cow::Borrowed(t)
            }
        })
}

/// Function words that reformulation adds or removes, plus prepositions
/// and conjunctions that would otherwise pad the overlap between two
/// different questions ("… in Canada" must not match "… in USA" through
/// the shared "in").
const STOPWORDS: &[&str] = &[
    "show", "me", "the", "a", "an", "of", "is", "are", "was", "were", "what", "which", "how",
    "many", "identify", "list", "find", "give", "tell", "number", "do", "does", "please", "in",
    "for", "at", "on", "by", "per", "to", "and", "or", "with", "from",
];

#[cfg(test)]
mod tests {
    use super::*;

    fn normalize(text: &str) -> String {
        let mut t: Vec<_> = tokens(text).collect();
        t.sort();
        t.join(" ")
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

    #[test]
    fn exact_lookup() {
        let mut r = TaskRegistry::new();
        r.register(task("t1", "Identify our 5 best organisations"));
        assert_eq!(
            r.lookup("Identify our 5 best organisations")
                .unwrap()
                .task_id,
            "t1"
        );
        // Token order / punctuation insensitive.
        assert_eq!(
            r.lookup("our 5 best organisations, identify!")
                .unwrap()
                .task_id,
            "t1"
        );
    }

    #[test]
    fn reformulated_lookup_via_overlap() {
        let mut r = TaskRegistry::new();
        r.register(task(
            "t1",
            "Identify our 5 sports organisations with the best QoQFP in Canada for Q2 2023",
        ));
        r.register(task("t2", "Total viewership per region last year"));
        let hit = r
            .lookup("Show me our 5 sports organisations with the best QoQFP in Canada for Q2 2023")
            .unwrap();
        assert_eq!(hit.task_id, "t1");
    }

    /// The pipeline asks every operator after the first about the
    /// *reformulated* question; each must still find its own task.
    #[test]
    fn reformulated_questions_resolve_to_their_own_task() {
        use crate::{
            CompletionRequest, CompletionResponse, LanguageModel, OracleModel, Prompt, TaskKind,
        };
        let mut r = TaskRegistry::new();
        // Only ids and questions cross over: the workload's tasks are
        // typed by the non-test build of this crate.
        for t in genedit_bird::Workload::small(42).all_tasks() {
            r.register(task(&t.task_id, &t.question));
        }
        assert!(!r.is_empty());
        let oracle = OracleModel::new(r.clone());
        for t in r.tasks() {
            let request = CompletionRequest::new(Prompt::new(TaskKind::Reformulate, &t.question));
            let Ok(CompletionResponse::Text(reformulated)) = oracle.complete(&request) else {
                panic!("oracle did not reformulate {:?}", t.question);
            };
            assert_ne!(normalize(&reformulated), normalize(&t.question));
            assert_eq!(r.lookup(&t.question).unwrap().task_id, t.task_id);
            assert_eq!(
                r.lookup(&reformulated).map(|hit| hit.task_id.as_str()),
                Some(t.task_id.as_str()),
                "{reformulated:?}"
            );
        }
    }

    #[test]
    fn unrelated_question_misses() {
        let mut r = TaskRegistry::new();
        r.register(task("t1", "Revenue by organization"));
        assert!(r
            .lookup("completely different topic about penguins")
            .is_none());
        assert!(TaskRegistry::new().lookup("anything").is_none());
    }

    #[test]
    fn corruption_error_markers() {
        assert!(Corruption::DropWhereConjunct { marker: "x".into() }
            .error_marker()
            .is_none());
        assert_eq!(
            Corruption::RenameColumn {
                from: "A".into(),
                to: "B".into()
            }
            .error_marker(),
            Some("B")
        );
    }

    #[test]
    fn corruption_apply_dispatches() {
        let Statement::Query(mut q) =
            parse_statement("SELECT SUM(x) FROM t WHERE owned = 'COC'").unwrap();
        assert_eq!(
            Corruption::SwapAggregate {
                from: "SUM".into(),
                to: "AVG".into()
            }
            .apply(&mut q),
            1
        );
        assert_eq!(
            Corruption::DropWhereConjunct {
                marker: "owned".into()
            }
            .apply(&mut q),
            1
        );
    }

    #[test]
    #[should_panic(expected = "does not parse")]
    fn malformed_gold_panics() {
        let mut t = task("t1", "q");
        t.gold_sql = "SELEC nope".into();
        t.gold_query();
    }

    /// Malformed gold fails once, where the task is registered, not inside
    /// every model call a serving worker makes for it.
    #[test]
    #[should_panic(expected = "gold SQL for task t1 does not parse")]
    fn malformed_gold_panics_at_registration() {
        let mut t = task("t1", "q");
        t.gold_sql = "SELEC nope".into();
        TaskRegistry::new().register(t);
    }
}
