//! Execution Accuracy evaluation and reporting (paper §3.3.2).

use genedit_llm::Difficulty;
use genedit_sql::catalog::Database;
use genedit_sql::exec::execute_sql;
use genedit_sql::ResultSet;
use genedit_telemetry::OperatorStats;
use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;

/// What a method produced for one task.
#[derive(Debug, Clone, Default)]
pub struct Prediction {
    /// The final SQL, `None` when the method gave up.
    pub sql: Option<String>,
    /// Total generation attempts (1 = no self-correction needed).
    pub attempts: usize,
    /// Free-text note (e.g. the last error).
    pub note: Option<String>,
}

/// Score a prediction against the gold query under EX semantics: the
/// prediction must execute and return the same row multiset.
pub fn score_prediction(
    db: &Database,
    gold_sql: &str,
    predicted: Option<&str>,
) -> (bool, Option<String>) {
    match execute_sql(db, gold_sql) {
        Ok(gold) => score_against(db, &gold, predicted),
        Err(e) => (false, Some(format!("gold failed (benchmark bug): {e}"))),
    }
}

/// [`score_prediction`] against the gold query's result, executed once
/// by the caller — for a caller scoring many predictions of one question.
pub fn score_against(
    db: &Database,
    gold: &ResultSet,
    predicted: Option<&str>,
) -> (bool, Option<String>) {
    let sql = match predicted {
        Some(s) => s,
        None => return (false, Some("no prediction".into())),
    };
    match execute_sql(db, sql) {
        Ok(rs) => {
            if gold.ex_equal(&rs) {
                (true, None)
            } else {
                (false, Some("wrong result".into()))
            }
        }
        Err(e) => (false, Some(e.to_string())),
    }
}

/// Outcome of one task under one method.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TaskOutcome {
    pub task_id: String,
    pub difficulty: Difficulty,
    pub correct: bool,
    pub attempts: usize,
    pub note: Option<String>,
}

/// Aggregated results of one method over a suite.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct EvalReport {
    pub method: String,
    pub outcomes: Vec<TaskOutcome>,
    /// Per-span-name time/call/LLM-attribution breakdown, aggregated from
    /// the generation traces (empty for methods run without telemetry).
    pub operators: BTreeMap<String, OperatorStats>,
}

impl EvalReport {
    pub fn new(method: impl Into<String>) -> EvalReport {
        EvalReport {
            method: method.into(),
            outcomes: Vec::new(),
            operators: BTreeMap::new(),
        }
    }

    pub fn push(&mut self, outcome: TaskOutcome) {
        self.outcomes.push(outcome);
    }

    /// Attach the operator breakdown computed from generation traces.
    pub fn set_operators(&mut self, operators: BTreeMap<String, OperatorStats>) {
        self.operators = operators;
    }

    fn slice(&self, difficulty: Option<Difficulty>) -> Vec<&TaskOutcome> {
        self.outcomes
            .iter()
            .filter(|o| difficulty.map(|d| o.difficulty == d).unwrap_or(true))
            .collect()
    }

    /// Execution accuracy in percent over a stratum (or all tasks).
    pub fn ex(&self, difficulty: Option<Difficulty>) -> f64 {
        let rows = self.slice(difficulty);
        if rows.is_empty() {
            return 0.0;
        }
        100.0 * rows.iter().filter(|o| o.correct).count() as f64 / rows.len() as f64
    }

    pub fn count(&self, difficulty: Option<Difficulty>) -> usize {
        self.slice(difficulty).len()
    }

    pub fn mean_attempts(&self) -> f64 {
        if self.outcomes.is_empty() {
            return 0.0;
        }
        self.outcomes.iter().map(|o| o.attempts).sum::<usize>() as f64 / self.outcomes.len() as f64
    }

    /// One row of a Table-1-style report.
    pub fn table_row(&self) -> String {
        format!(
            "{:<22} {:>7.2} {:>9.2} {:>12.2} {:>7.2}",
            self.method,
            self.ex(Some(Difficulty::Simple)),
            self.ex(Some(Difficulty::Moderate)),
            self.ex(Some(Difficulty::Challenging)),
            self.ex(None),
        )
    }

    /// Header matching [`EvalReport::table_row`].
    pub fn table_header() -> String {
        format!(
            "{:<22} {:>7} {:>9} {:>12} {:>7}",
            "Method", "Simple", "Moderate", "Challenging", "All"
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_sql::catalog::{Column, Table};
    use genedit_sql::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new("d");
        let mut t = Table::new("T", vec![Column::new("A", DataType::Integer)]);
        for i in 0..5 {
            t.push_row(vec![Value::Integer(i)]).unwrap();
        }
        db.add_table(t).unwrap();
        db
    }

    #[test]
    fn scoring_correct_and_wrong() {
        let db = db();
        let (ok, note) = score_prediction(&db, "SELECT SUM(A) FROM T", Some("SELECT 10"));
        assert!(ok);
        assert!(note.is_none());
        let (ok, note) = score_prediction(&db, "SELECT SUM(A) FROM T", Some("SELECT 11"));
        assert!(!ok);
        assert_eq!(note.as_deref(), Some("wrong result"));
    }

    #[test]
    fn scoring_execution_error() {
        let db = db();
        let (ok, note) = score_prediction(&db, "SELECT 1", Some("SELECT * FROM NOPE"));
        assert!(!ok);
        assert!(note.unwrap().contains("binding"));
        let (ok, _) = score_prediction(&db, "SELECT 1", None);
        assert!(!ok);
    }

    #[test]
    fn report_aggregation() {
        let mut r = EvalReport::new("test");
        for (d, correct) in [
            (Difficulty::Simple, true),
            (Difficulty::Simple, false),
            (Difficulty::Moderate, true),
            (Difficulty::Challenging, false),
        ] {
            r.push(TaskOutcome {
                task_id: "x".into(),
                difficulty: d,
                correct,
                attempts: 1,
                note: None,
            });
        }
        assert_eq!(r.ex(Some(Difficulty::Simple)), 50.0);
        assert_eq!(r.ex(Some(Difficulty::Moderate)), 100.0);
        assert_eq!(r.ex(Some(Difficulty::Challenging)), 0.0);
        assert_eq!(r.ex(None), 50.0);
        assert_eq!(r.count(None), 4);
        let row = r.table_row();
        assert!(row.contains("test"));
        assert!(row.contains("50.00"));
    }

    #[test]
    fn empty_report_is_zero() {
        let r = EvalReport::new("empty");
        assert_eq!(r.ex(None), 0.0);
        assert_eq!(r.mean_attempts(), 0.0);
    }
}
