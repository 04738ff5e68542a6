//! Output checking, outside the timed path.
//!
//! Every served answer is compared with what a direct
//! `GenEditPipeline::generate` call produces on the knowledge version
//! the read was entitled to see. On `edit_churn` a second pass rebuilds
//! each edited tenant's index from its final store snapshot and checks
//! the last answer served after its last commit ack: a mismatch there
//! is a stale read.

use crate::driver::{Driver, Ending};
use crate::stats::Fnv;
use crate::workloads::{Domain, World};
use genedit_bird::score_prediction;
use genedit_core::{GenEditPipeline, KnowledgeIndex};
use std::collections::HashMap;

/// Per-read verdicts and the totals derived from them.
pub struct Verdict {
    /// Per read, in `driver.reads` order: completed with the reference SQL.
    pub ok: Vec<bool>,
    /// Execution accuracy of the deployed system: the share of the base
    /// (domain, question) pairs whose reference answer returns the gold
    /// query's result set. A function of the seed alone.
    pub ex_correct_share: f64,
    /// The same over the distinct (tenant version, question) pairs read
    /// after an improvement step committed (`edit_churn`; 0 elsewhere).
    pub post_edit_ex_correct_share: f64,
    pub attempted: usize,
    pub rejected: usize,
    pub shed: usize,
    pub expired: usize,
    pub cancelled: usize,
    pub failed: usize,
    pub sql_mismatches: usize,
    pub stale_reads: usize,
    /// FNV-1a over the sorted distinct (domain, question, SQL) triples of
    /// the reference pass.
    pub sql_digest: u64,
}

impl Verdict {
    /// Reads that did not end in the reference answer, plus stale reads.
    pub fn failures(&self) -> usize {
        self.ok.iter().filter(|ok| !**ok).count() + self.stale_reads
    }

    /// `failures ÷ attempted`.
    pub fn failed_share(&self) -> f64 {
        self.failures() as f64 / self.attempted.max(1) as f64
    }
}

/// Reference answer for one (knowledge version, question).
#[derive(Clone, Copy)]
struct Reference {
    sql_hash: u64,
    ex_correct: bool,
}

fn hash_sql(sql: Option<&str>) -> u64 {
    sql.map_or(0, |s| Fnv::of(s.as_bytes()))
}

/// Check every read of `driver` against direct generation.
pub fn verify(world: &World, driver: &Driver<'_>) -> Verdict {
    let pipeline = GenEditPipeline::new(std::sync::Arc::clone(&world.oracle));
    let score = |domain: &Domain, question: usize, sql: Option<&str>| Reference {
        sql_hash: hash_sql(sql),
        ex_correct: score_prediction(&domain.db, &domain.tasks[question].gold_sql, sql).0,
    };
    // Version 0 (the base knowledge) is shared by every tenant. Every
    // base pair is scored, read or not, so `ex_correct_share` is the same
    // however far the timed pass got.
    let base: Vec<Vec<Reference>> = world
        .domains
        .iter()
        .map(|domain| {
            (0..domain.tasks.len())
                .map(|q| score(domain, q, domain.reference_sql[q].as_deref()))
                .collect()
        })
        .collect();
    // Later versions belong to one tenant each (`edit_churn`, one domain)
    // and are generated only for the questions actually read under them.
    let mut edited_index: HashMap<(u16, usize), KnowledgeIndex> = HashMap::new();
    let mut edited: HashMap<(u16, usize, u16), Reference> = HashMap::new();

    let base_pairs: Vec<&Reference> = base.iter().flatten().collect();
    let mut verdict = Verdict {
        ok: Vec::with_capacity(driver.reads.len()),
        ex_correct_share: base_pairs.iter().filter(|r| r.ex_correct).count() as f64
            / base_pairs.len().max(1) as f64,
        post_edit_ex_correct_share: 0.0,
        attempted: driver.reads.len(),
        rejected: 0,
        shed: 0,
        expired: 0,
        cancelled: 0,
        failed: 0,
        sql_mismatches: 0,
        stale_reads: 0,
        sql_digest: sql_digest(world),
    };

    for read in &driver.reads {
        let domain = &world.domains[read.domain];
        let question = read.question as usize;
        let mut reference = |version: usize| -> Reference {
            if version == 0 {
                return base[read.domain][question];
            }
            *edited
                .entry((read.tenant, version, read.question))
                .or_insert_with(|| {
                    let index = edited_index
                        .entry((read.tenant, version))
                        .or_insert_with(|| {
                            let mut ks = domain.base.clone();
                            for batch in &driver.versions[read.tenant as usize][..version] {
                                ks = batch
                                    .materialize(&ks)
                                    .expect("committed edits apply in commit order");
                            }
                            KnowledgeIndex::build(ks)
                        });
                    let sql = pipeline
                        .generate(&domain.tasks[question].question, index, &domain.db, &[])
                        .sql;
                    score(domain, question, sql.as_deref())
                })
        };
        let ok = match read.ending {
            Ending::Completed { sql_hash, .. } => {
                let matches = (read.version_at_submit..=read.version_at_return)
                    .rev()
                    .any(|v| reference(v).sql_hash == sql_hash);
                if !matches {
                    verdict.sql_mismatches += 1;
                }
                matches
            }
            Ending::Rejected => {
                verdict.rejected += 1;
                false
            }
            Ending::Shed => {
                verdict.shed += 1;
                false
            }
            Ending::Expired => {
                verdict.expired += 1;
                false
            }
            Ending::Cancelled => {
                verdict.cancelled += 1;
                false
            }
            Ending::Failed => {
                verdict.failed += 1;
                false
            }
        };
        verdict.ok.push(ok);
    }
    verdict.post_edit_ex_correct_share =
        edited.values().filter(|r| r.ex_correct).count() as f64 / edited.len().max(1) as f64;
    verdict.stale_reads = stale_reads(world, driver, &pipeline);
    verdict
}

/// For every tenant that committed: the last read submitted after its
/// last commit ack must equal direct generation on an index rebuilt from
/// the store's final snapshot of that tenant.
fn stale_reads(
    world: &World,
    driver: &Driver<'_>,
    pipeline: &GenEditPipeline<std::sync::Arc<genedit_llm::OracleModel>>,
) -> usize {
    let Some(churn) = &world.churn else {
        return 0;
    };
    let domain = &world.domains[0];
    let mut stale = 0;
    for (tenant, versions) in driver.versions.iter().enumerate() {
        if versions.is_empty() {
            continue;
        }
        let last = driver
            .reads
            .iter()
            .rev()
            .find(|r| r.tenant as usize == tenant && r.version_at_submit == versions.len());
        let Some(read) = last else {
            continue;
        };
        let Ending::Completed { sql_hash, .. } = read.ending else {
            continue;
        };
        let snapshot = churn
            .store
            .snapshot(&world.tenants[tenant])
            .expect("tenant was seeded");
        let index = KnowledgeIndex::from_snapshot(&snapshot).expect("tenant pages are readable");
        let task = &domain.tasks[read.question as usize];
        let direct = pipeline
            .generate(&task.question, &index, &domain.db, &[])
            .sql;
        if hash_sql(direct.as_deref()) != sql_hash {
            stale += 1;
        }
    }
    stale
}

fn sql_digest(world: &World) -> u64 {
    // Domains and questions are already in a fixed order, so the triples
    // are sorted by construction.
    let mut digest = Fnv::default();
    for (d, domain) in world.domains.iter().enumerate() {
        for (q, sql) in domain.reference_sql.iter().enumerate() {
            digest.write(&[d as u8]);
            digest.write(&(q as u16).to_le_bytes());
            digest.write(sql.as_deref().unwrap_or("").as_bytes());
            digest.write(&[0]);
        }
    }
    digest.0
}
