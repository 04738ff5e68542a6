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
use genedit_sql::ast::{Query, Statement};
use genedit_sql::parser::parse_statement;
use serde::{Deserialize, Serialize};
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

/// Registry mapping questions to task knowledge. Lookup is by normalized
/// token multiset, robust to the pipeline's canonical reformulation
/// ("Show me …" prefixes and similar).
#[derive(Debug, Clone, Default)]
pub struct TaskRegistry {
    tasks: Vec<TaskKnowledge>,
    by_norm: HashMap<String, usize>,
    /// Each task's content-token set, computed once at registration: the
    /// pipeline asks every operator after the first about the
    /// *reformulated* question, which the exact map never holds, so the
    /// overlap scan below is the common path, not the fallback.
    content: Vec<BTreeSet<String>>,
}

impl TaskRegistry {
    /// An empty registry.
    pub fn new() -> TaskRegistry {
        TaskRegistry::default()
    }

    /// Register one task, indexed by its normalized question.
    pub fn register(&mut self, task: TaskKnowledge) {
        let key = normalize(&task.question);
        self.by_norm.insert(key, self.tasks.len());
        self.content.push(content_tokens(&task.question));
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

    /// Look a task up by its benchmark id.
    pub fn by_id(&self, task_id: &str) -> Option<&TaskKnowledge> {
        self.tasks.iter().find(|t| t.task_id == task_id)
    }

    /// Find the task a question refers to. Exact normalized match first,
    /// then best *content-token* overlap (≥ 0.6 Jaccard) — canonical
    /// reformulation rewrites function words ("How many …" → "Show me the
    /// number of …") but keeps the content words.
    pub fn lookup(&self, question: &str) -> Option<&TaskKnowledge> {
        let key = normalize(question);
        if let Some(&i) = self.by_norm.get(&key) {
            return Some(&self.tasks[i]);
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
            Some((score, i)) if score >= 0.6 => Some(&self.tasks[i]),
            _ => None,
        }
    }
}

fn tokens(text: &str) -> Vec<String> {
    text.split(|c: char| !c.is_alphanumeric())
        .filter(|t| !t.is_empty())
        .map(|t| t.to_lowercase())
        .collect()
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

#[cfg(test)]
mod tests {
    use super::*;

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
}
