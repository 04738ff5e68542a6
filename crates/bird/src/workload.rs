//! Workload assembly: databases + knowledge sources + tasks per domain.
//!
//! The standard suite mirrors the scale of the paper's evaluation (§3.3.1:
//! a 10% sample of the BIRD dev set — 93 simple, 28 moderate, and 11
//! challenging questions, matching the per-stratum denominators implied by
//! Table 1's percentages).

use crate::domains::{all_domains, HEALTH, LOGISTICS, RETAIL, SPORTS};
use crate::spec::{generate_database, DomainSpec};
use crate::templates::generate_tasks;
use genedit_knowledge::{
    build_knowledge_set, DomainDocument, Guideline, KnowledgeSet, PreprocessConfig, QueryLogEntry,
    TermDefinition,
};
use genedit_llm::{TaskKnowledge, TaskRegistry};
use genedit_sql::catalog::Database;

/// Everything belonging to one enterprise domain.
pub struct DomainBundle {
    pub spec: &'static DomainSpec,
    pub db: Database,
    pub logs: Vec<QueryLogEntry>,
    pub docs: Vec<DomainDocument>,
    pub tasks: Vec<TaskKnowledge>,
}

impl DomainBundle {
    pub fn build(spec: &'static DomainSpec, counts: (usize, usize, usize), seed: u64) -> Self {
        let db = generate_database(spec, seed);
        let logs = historical_logs(spec);
        let docs = domain_docs(spec);
        let tasks = generate_tasks(spec, counts, seed);
        DomainBundle {
            spec,
            db,
            logs,
            docs,
            tasks,
        }
    }

    /// Pre-processing config (intents + schema grouping) for this domain.
    pub fn preprocess_config(&self) -> PreprocessConfig {
        let mut c = PreprocessConfig::new(self.spec.intents());
        c.intent_tables = self.spec.intent_tables();
        c
    }

    /// Run the paper's pre-processing phase for this domain.
    pub fn build_knowledge(&self) -> KnowledgeSet {
        build_knowledge_set(&self.preprocess_config(), &self.logs, &self.docs, &self.db)
            .expect("historical logs are valid SQL")
    }
}

/// The full benchmark workload.
pub struct Workload {
    pub domains: Vec<DomainBundle>,
    pub seed: u64,
}

impl Workload {
    /// The paper-scale suite: 93 / 28 / 11 tasks across four domains.
    pub fn standard(seed: u64) -> Workload {
        let counts = [
            (&SPORTS, (24, 7, 3)),
            (&RETAIL, (23, 7, 3)),
            (&HEALTH, (23, 7, 3)),
            (&LOGISTICS, (23, 7, 2)),
        ];
        Workload {
            domains: counts
                .into_iter()
                .map(|(spec, c)| DomainBundle::build(spec, c, seed))
                .collect(),
            seed,
        }
    }

    /// A small suite for tests: 7 tasks per domain.
    pub fn small(seed: u64) -> Workload {
        Workload {
            domains: all_domains()
                .into_iter()
                .map(|spec| DomainBundle::build(spec, (4, 2, 1), seed))
                .collect(),
            seed,
        }
    }

    pub fn all_tasks(&self) -> impl Iterator<Item = &TaskKnowledge> {
        self.domains.iter().flat_map(|d| d.tasks.iter())
    }

    /// Stratified sub-sample, the paper's §3.3.1 evaluation protocol
    /// ("we use the dev set by sampling 10% of each database"): from each
    /// domain, keep `fraction` of the tasks *per difficulty stratum*
    /// (rounded up so no stratum empties), chosen deterministically from
    /// `sample_seed`. Databases, logs, and documents are kept whole.
    pub fn sample(&self, fraction: f64, sample_seed: u64) -> Workload {
        assert!(
            (0.0..=1.0).contains(&fraction),
            "fraction must be in [0, 1]"
        );
        let domains = self
            .domains
            .iter()
            .map(|bundle| {
                let mut tasks: Vec<TaskKnowledge> = Vec::new();
                for difficulty in [
                    genedit_llm::Difficulty::Simple,
                    genedit_llm::Difficulty::Moderate,
                    genedit_llm::Difficulty::Challenging,
                ] {
                    let stratum: Vec<&TaskKnowledge> = bundle
                        .tasks
                        .iter()
                        .filter(|t| t.difficulty == difficulty)
                        .collect();
                    if stratum.is_empty() {
                        continue;
                    }
                    let keep =
                        ((stratum.len() as f64 * fraction).ceil() as usize).clamp(1, stratum.len());
                    // Deterministic choice: rank by a per-task hash.
                    let mut ranked: Vec<(&&TaskKnowledge, u64)> = stratum
                        .iter()
                        .map(|t| {
                            (
                                t,
                                genedit_llm::hash_u64(&[&t.task_id, "sample"], sample_seed),
                            )
                        })
                        .collect();
                    ranked.sort_by_key(|(_, h)| *h);
                    tasks.extend(ranked.into_iter().take(keep).map(|(t, _)| (*t).clone()));
                }
                DomainBundle {
                    spec: bundle.spec,
                    db: bundle.db.clone(),
                    logs: bundle.logs.clone(),
                    docs: bundle.docs.clone(),
                    tasks,
                }
            })
            .collect();
        Workload {
            domains,
            seed: self.seed,
        }
    }

    pub fn task_count(&self) -> usize {
        self.domains.iter().map(|d| d.tasks.len()).sum()
    }

    /// Task registry for the oracle model.
    pub fn registry(&self) -> TaskRegistry {
        let mut r = TaskRegistry::new();
        for t in self.all_tasks() {
            r.register(t.clone());
        }
        r
    }

    pub fn database(&self, db_name: &str) -> Option<&Database> {
        self.domains
            .iter()
            .find(|d| d.db.name.eq_ignore_ascii_case(db_name))
            .map(|d| &d.db)
    }

    pub fn domain_for_task(&self, task: &TaskKnowledge) -> Option<&DomainBundle> {
        self.domains.iter().find(|d| d.db.name == task.db_name)
    }
}

/// Historical query logs (§2.1 input i): prior executions whose
/// decomposition seeds the example store. Shapes intentionally overlap
/// with the task templates — analysts ran similar queries before — but
/// with different parameters.
fn historical_logs(spec: &DomainSpec) -> Vec<QueryLogEntry> {
    let n = spec.entity_col;
    let e = spec.entity_table;
    let f1 = spec.fact1_table;
    let f2 = spec.fact2_table;
    let v1 = spec.fact1_col;
    let v2 = spec.fact2_col;
    let d1 = spec.fact1_date;
    let d2 = spec.fact2_date;
    let r = spec.region_col;
    let fl = spec.flag_col;
    let fv = spec.flag_val;
    let region = spec.regions[0];
    let perf = spec.performance_intent();
    let eng = spec.engagement_intent();
    let dir = spec.directory_intent();

    vec![
        QueryLogEntry {
            log_id: 1,
            question: format!(
                "our {} with the best and worst {} in {} for 2022Q3",
                spec.entity_word, spec.qoq_term, region
            ),
            sql: format!(
                "WITH FIN AS ( \
                   SELECT {n}, \
                     SUM(CASE WHEN TO_CHAR({d1}, 'YYYY\"Q\"Q') = '2022Q2' THEN {v1} ELSE 0 END) AS M1_A, \
                     SUM(CASE WHEN TO_CHAR({d1}, 'YYYY\"Q\"Q') = '2022Q3' THEN {v1} ELSE 0 END) AS M1_B \
                   FROM {f1} WHERE {r} = '{region}' AND {fl} = '{fv}' GROUP BY {n} \
                 ), \
                 ENG AS ( \
                   SELECT {n}, \
                     SUM(CASE WHEN TO_CHAR({d2}, 'YYYY\"Q\"Q') = '2022Q2' THEN {v2} ELSE 0 END) AS M2_A, \
                     SUM(CASE WHEN TO_CHAR({d2}, 'YYYY\"Q\"Q') = '2022Q3' THEN {v2} ELSE 0 END) AS M2_B \
                   FROM {f2} WHERE {r} = '{region}' AND {fl} = '{fv}' GROUP BY {n} \
                 ), \
                 CHANGE AS ( \
                   SELECT f.{n}, \
                     ROW_NUMBER() OVER (ORDER BY (-1 * (CAST(f.M1_B AS FLOAT) / NULLIF(e.M2_B, 0) - \
                       CAST(f.M1_A AS FLOAT) / NULLIF(e.M2_A, 0)))) AS BEST_RANK \
                   FROM FIN f JOIN ENG e ON f.{n} = e.{n} \
                 ) \
                 SELECT BEST_RANK, {n} FROM CHANGE WHERE BEST_RANK <= 5 ORDER BY BEST_RANK"
            ),
            intent: Some(perf.clone()),
        },
        QueryLogEntry {
            log_id: 2,
            question: format!("total {} per {} in 2022", spec.metric_word, spec.entity_word),
            sql: format!(
                "SELECT {n}, SUM({v1}) AS TOTAL FROM {f1} \
                 WHERE TO_CHAR({d1}, 'YYYY') = '2022' GROUP BY {n} ORDER BY TOTAL DESC LIMIT 10"
            ),
            intent: Some(perf.clone()),
        },
        QueryLogEntry {
            log_id: 3,
            question: format!("{} located in {}", spec.entity_word, region),
            sql: format!("SELECT {n} FROM {e} WHERE {r} = '{region}' ORDER BY {n}"),
            intent: Some(dir),
        },
        QueryLogEntry {
            log_id: 4,
            question: format!(
                "our {} without any {} data",
                spec.entity_word, spec.metric2_word
            ),
            sql: format!(
                "SELECT a.{n} FROM {e} a LEFT JOIN {f2} b ON a.{n} = b.{n} \
                 WHERE a.{fl} = '{fv}' AND b.{v2} IS NULL ORDER BY a.{n}"
            ),
            intent: Some(eng.clone()),
        },
        QueryLogEntry {
            log_id: 5,
            question: format!("{} per {} for 2022Q4", spec.ratio_term, spec.entity_word),
            sql: format!(
                "WITH A AS (SELECT {n}, SUM({v1}) AS M1 FROM {f1} \
                   WHERE TO_CHAR({d1}, 'YYYY\"Q\"Q') = '2022Q4' GROUP BY {n}), \
                 B AS (SELECT {n}, SUM({v2}) AS M2 FROM {f2} \
                   WHERE TO_CHAR({d2}, 'YYYY\"Q\"Q') = '2022Q4' GROUP BY {n}) \
                 SELECT a.{n}, CAST(a.M1 AS FLOAT) / NULLIF(b.M2, 0) AS RATIO \
                 FROM A a JOIN B b ON a.{n} = b.{n} ORDER BY RATIO DESC"
            ),
            intent: Some(perf.clone()),
        },
        QueryLogEntry {
            log_id: 6,
            question: format!(
                "quarterly {} comparison per {} in {}",
                spec.metric_word, spec.entity_word, region
            ),
            sql: format!(
                "SELECT {n}, \
                   SUM(CASE WHEN TO_CHAR({d1}, 'YYYY\"Q\"Q') = '2022Q1' THEN {v1} ELSE 0 END) AS Q1_M, \
                   SUM(CASE WHEN TO_CHAR({d1}, 'YYYY\"Q\"Q') = '2022Q2' THEN {v1} ELSE 0 END) AS Q2_M \
                 FROM {f1} WHERE {r} = '{region}' GROUP BY {n} HAVING SUM({v1}) > 0 ORDER BY {n}"
            ),
            intent: Some(perf),
        },
    ]
}

/// Domain documents (§2.1 input ii): terminology and practices. The
/// "our"/flag and QoQ terms are *instruction-only* knowledge; the ratio
/// term also ships a SQL example — this split is what makes the paper's
/// "w/o Instructions" ablation bite hardest (Table 2).
fn domain_docs(spec: &DomainSpec) -> Vec<DomainDocument> {
    let perf = spec.performance_intent();
    vec![DomainDocument {
        doc_id: 100 + genedit_telemetry::hash::fnv1a64(spec.key.as_bytes()) % 100,
        title: format!("{} analytics handbook", spec.key),
        terms: vec![
            TermDefinition {
                term: spec.our_term.to_string(),
                meaning: spec.our_meaning.to_string(),
                sql: None,
                intent: Some(perf.clone()),
            },
            TermDefinition {
                term: spec.ratio_term.to_string(),
                meaning: spec.ratio_meaning.to_string(),
                sql: Some(format!(
                    "CAST(SUM({}) AS FLOAT) / NULLIF(SUM({}), 0)",
                    spec.fact1_col, spec.fact2_col
                )),
                intent: Some(perf.clone()),
            },
            TermDefinition {
                term: spec.qoq_term.to_string(),
                meaning: spec.qoq_meaning.to_string(),
                sql: None,
                intent: Some(perf.clone()),
            },
        ],
        guidelines: vec![
            Guideline {
                text: "Use conditional aggregation (SUM of CASE WHEN) when comparing metric \
                       values across periods"
                    .to_string(),
                sql_hint: Some(
                    "SUM(CASE WHEN TO_CHAR(month_col, 'YYYY\"Q\"Q') = '2023Q2' THEN metric \
                     ELSE 0 END)"
                        .to_string(),
                ),
                intent: Some(perf.clone()),
                section: "periods".into(),
            },
            Guideline {
                text: "Apply a -1 multiplier when calculating the change in performance metrics \
                       so that ranking ascending puts the best performer first"
                    .to_string(),
                sql_hint: Some("-1 * (metric_b - metric_a)".to_string()),
                intent: Some(perf),
                section: "metrics".into(),
            },
            Guideline {
                text: format!(
                    "Quarter labels use TO_CHAR({}, 'YYYY\"Q\"Q'), e.g. '2023Q2'",
                    spec.fact1_date
                ),
                sql_hint: None,
                intent: None,
                section: "dates".into(),
            },
        ],
    }]
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_llm::Difficulty;
    use genedit_sql::execute_sql;

    #[test]
    fn standard_suite_matches_paper_strata() {
        let w = Workload::standard(42);
        let count = |d: Difficulty| w.all_tasks().filter(|t| t.difficulty == d).count();
        assert_eq!(count(Difficulty::Simple), 93);
        assert_eq!(count(Difficulty::Moderate), 28);
        assert_eq!(count(Difficulty::Challenging), 11);
        assert_eq!(w.task_count(), 132);
    }

    #[test]
    fn registry_finds_every_task() {
        let w = Workload::small(42);
        let reg = w.registry();
        for t in w.all_tasks() {
            let hit = reg.lookup(&t.question).expect("task should be found");
            assert_eq!(hit.task_id, t.task_id, "wrong task for {:?}", t.question);
        }
    }

    #[test]
    fn stratified_sample_keeps_every_stratum() {
        let w = Workload::standard(42);
        let s = w.sample(0.1, 7);
        // Each domain keeps at least one task of every difficulty it had.
        for (full, sampled) in w.domains.iter().zip(s.domains.iter()) {
            for d in [
                Difficulty::Simple,
                Difficulty::Moderate,
                Difficulty::Challenging,
            ] {
                let had = full.tasks.iter().any(|t| t.difficulty == d);
                let kept = sampled.tasks.iter().any(|t| t.difficulty == d);
                assert_eq!(had, kept, "{} stratum {d:?}", full.spec.key);
            }
        }
        // Roughly 10%, rounded up per stratum.
        assert!(
            s.task_count() >= 13 && s.task_count() <= 30,
            "{}",
            s.task_count()
        );
        // Sampling is deterministic and seed-sensitive.
        let s2 = w.sample(0.1, 7);
        let ids: Vec<_> = s.all_tasks().map(|t| &t.task_id).collect();
        let ids2: Vec<_> = s2.all_tasks().map(|t| &t.task_id).collect();
        assert_eq!(ids, ids2);
        let s3 = w.sample(0.1, 8);
        let ids3: Vec<_> = s3.all_tasks().map(|t| &t.task_id).collect();
        assert_ne!(ids, ids3);
        // Full-fraction sampling is the identity on task sets.
        let all = w.sample(1.0, 0);
        assert_eq!(all.task_count(), w.task_count());
    }

    #[test]
    fn historical_logs_execute() {
        for bundle in Workload::small(42).domains {
            for log in &bundle.logs {
                execute_sql(&bundle.db, &log.sql)
                    .unwrap_or_else(|e| panic!("{} log {}: {e}", bundle.spec.key, log.log_id));
            }
        }
    }

    #[test]
    fn knowledge_set_builds_per_domain() {
        let w = Workload::small(42);
        for bundle in &w.domains {
            let ks = bundle.build_knowledge();
            let stats = ks.stats();
            assert!(stats.examples > 20, "{}: {stats:?}", bundle.spec.key);
            assert!(stats.instructions >= 6);
            assert!(stats.intents == 3);
            assert!(stats.schema_elements > 10);
            // Instruction-only terms: "our" and QoQ must NOT have term
            // examples — that split drives the instructions ablation.
            assert!(!ks
                .examples()
                .iter()
                .any(|e| e.term.as_deref() == Some(bundle.spec.our_term)));
            assert!(ks
                .examples()
                .iter()
                .any(|e| e.term.as_deref() == Some(bundle.spec.ratio_term)));
            assert!(ks
                .instructions()
                .iter()
                .any(|i| i.term.as_deref() == Some(bundle.spec.qoq_term)));
        }
    }

    #[test]
    fn database_lookup() {
        let w = Workload::small(42);
        assert!(w.database("sports_holding").is_some());
        assert!(w.database("SPORTS_HOLDING").is_some());
        assert!(w.database("nope").is_none());
        let t = w.all_tasks().next().unwrap().clone();
        assert!(w.domain_for_task(&t).is_some());
    }
}
