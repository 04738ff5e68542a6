//! The four workloads: what each one builds during set-up and the
//! seeded operation stream it replays against the serving runtime.
//!
//! | name | stresses | bypasses |
//! |---|---|---|
//! | `gen_cold` | `core`, `llm`, `retrieval` (full generation, small DBs) | every cache |
//! | `hot_repeat` | `serve` hit path, `telemetry` | the pipeline (misses only) |
//! | `warehouse_scan` | `sqlengine` (40x fact rows) | caches |
//! | `edit_churn` | `knowledge` store + `core` feedback loop beside reads | — |
//!
//! The seed shapes only the generated operation stream; the program
//! under test receives just the generated inputs.

use crate::spans::SpanModel;
use crate::stats::{Fnv, Rng, Zipf};
use genedit_bird::{score_prediction, DomainBundle, DomainSpec, Workload};
use genedit_core::{sme, GenEditPipeline, GoldenQuery, KnowledgeIndex};
use genedit_knowledge::tenants::{TenantKnowledgeStore, TenantStoreConfig};
use genedit_knowledge::{Edit, KnowledgeSet, StagingArea, StoreConfig};
use genedit_llm::{OracleModel, TaskKnowledge};
use genedit_serve::{ServeConfig, ServeRuntime, TenantDirectory};
use genedit_sql::catalog::Database;
use genedit_sql::value::{Date, Value};
use genedit_telemetry::MetricsRegistry;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// In-flight tickets the single generator thread keeps open. Twice the
/// workers, so a worker never idles while the generator is descheduled.
pub const WINDOW: usize = 4;
/// Serving workers: fixed, not derived from the core count, so two
/// machines run the same configuration.
pub const WORKERS: usize = 2;

const TENANTS_COLD: usize = 8;
const TENANTS_HOT: usize = 32;
const TENANTS_CHURN: usize = 96;
const OPS_PER_DOMAIN_COLD: usize = 10_000;
const OPS_HOT: usize = 80_000;
const OPS_PER_DOMAIN_WAREHOUSE: usize = 2_000;
const READS_CHURN: usize = 12_000;
/// One improvement step after every this many reads.
pub const READS_PER_IMPROVE: usize = 100;
const ZIPF_HOT: f64 = 1.1;
const ZIPF_CHURN: f64 = 1.0;
/// Fact-table replication factor of `warehouse_scan`.
const WAREHOUSE_FACTOR: i32 = 40;
/// Tenant indexes the serving directory keeps resident in `edit_churn`
/// (a third of the tenants, so cold page-ins stay on the read path).
const DIRECTORY_CAPACITY: usize = 32;
/// Buffer-pool budget of `edit_churn`, far below the tenants' page bytes.
pub const POOL_BUDGET_BYTES: usize = 1 << 20;
const PAGE_SIZE: usize = 4096;
/// Seed of the databases and task suite: the repository's standard
/// 132-task workload, the one its tables and figures are built on. The
/// run's `--seed` shapes the traffic over it (orders, tenants, Zipf
/// draws, which tenant is improved when), not the suite itself, so runs
/// with different seeds do the same kind of work and their spread shows
/// the machine, not the luck of the task draw.
const SUITE_SEED: u64 = 42;
/// Golden queries guarding every merge in `edit_churn`.
const GOLDEN_QUERIES: usize = 8;

/// Which workload a run executes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    GenCold,
    HotRepeat,
    WarehouseScan,
    EditChurn,
}

impl Kind {
    /// All workloads, in report order.
    pub const ALL: [Kind; 4] = [
        Kind::GenCold,
        Kind::HotRepeat,
        Kind::WarehouseScan,
        Kind::EditChurn,
    ];

    /// The name used on the command line and in every report.
    pub fn name(self) -> &'static str {
        match self {
            Kind::GenCold => "gen_cold",
            Kind::HotRepeat => "hot_repeat",
            Kind::WarehouseScan => "warehouse_scan",
            Kind::EditChurn => "edit_churn",
        }
    }

    /// Inverse of [`Kind::name`].
    pub fn parse(name: &str) -> Option<Kind> {
        Kind::ALL.into_iter().find(|k| k.name() == name)
    }

    /// Result and reformulation caches: off where the workload exists to
    /// measure uncached work, the serving default elsewhere.
    fn caches_on(self) -> bool {
        matches!(self, Kind::HotRepeat | Kind::EditChurn)
    }
}

/// One step of an operation stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Op {
    /// Ask `question` (index into the domain's tasks) as `tenant`.
    Read { tenant: u16, question: u16 },
    /// Run one feedback → edits → regression → commit step for `tenant`.
    /// The stream always follows it with a read for the same tenant, so
    /// post-edit visibility is measured on every committed step.
    Improve { tenant: u16 },
}

/// One enterprise domain as served: database, tasks, deployed knowledge,
/// the reference answers, and this domain's slice of the stream.
pub struct Domain {
    pub db: Arc<Database>,
    pub tasks: Vec<TaskKnowledge>,
    /// The knowledge set deployed at start (every tenant's epoch-0 view).
    pub base: KnowledgeSet,
    pub index: Arc<KnowledgeIndex>,
    /// Direct `GenEditPipeline::generate` output per task on `base`.
    pub reference_sql: Vec<Option<String>>,
    pub ops: Vec<Op>,
}

/// The disk-backed tenant side of `edit_churn`.
pub struct Churn {
    pub store: Arc<TenantKnowledgeStore>,
    pub directory: Arc<TenantDirectory>,
    /// Registry the store, pool and directory publish into.
    pub metrics: Arc<MetricsRegistry>,
    pub root: PathBuf,
    pub golden: Vec<GoldenQuery>,
    /// Tasks that fail on the base knowledge and for which the scripted
    /// SME can say why, in seeded order: what improvement steps work on.
    pub candidates: Vec<usize>,
}

/// Everything a run needs, built from `(kind, seed)` alone.
pub struct World {
    pub kind: Kind,
    pub oracle: Arc<OracleModel>,
    pub domains: Vec<Domain>,
    pub tenants: Vec<String>,
    pub churn: Option<Churn>,
    /// FNV-1a over the generated operation streams.
    pub ops_digest: u64,
    /// Time spent in `DomainBundle::build_knowledge`, all domains.
    pub preprocess_ms: f64,
}

impl World {
    /// Build the world for `kind`. `scratch` receives the tenant store
    /// of `edit_churn` (nothing is written for the other workloads).
    pub fn build(kind: Kind, seed: u64, scratch: &Path) -> World {
        let workload = Workload::standard(SUITE_SEED);
        let bundles: Vec<DomainBundle> = match kind {
            Kind::GenCold | Kind::WarehouseScan => workload.domains,
            // Sports is the first domain of the standard suite.
            Kind::HotRepeat | Kind::EditChurn => workload.domains.into_iter().take(1).collect(),
        };
        let mut registry = genedit_llm::TaskRegistry::new();
        for task in bundles.iter().flat_map(|b| b.tasks.iter()) {
            registry.register(task.clone());
        }
        // Default oracle: calibrated noise on, so self-correction retries
        // really fire; zero latency, so the system's own cost is what shows.
        let oracle = Arc::new(OracleModel::new(registry));
        let pipeline = GenEditPipeline::new(Arc::clone(&oracle));

        let tenant_count = match kind {
            Kind::GenCold | Kind::WarehouseScan => TENANTS_COLD,
            Kind::HotRepeat => TENANTS_HOT,
            Kind::EditChurn => TENANTS_CHURN,
        };
        let tenants: Vec<String> = (0..tenant_count)
            .map(|i| format!("tenant-{i:02}"))
            .collect();

        let mut preprocess_ms = 0.0;
        let mut digest = Fnv::default();
        let mut domains = Vec::with_capacity(bundles.len());
        for (d, bundle) in bundles.into_iter().enumerate() {
            let started = Instant::now();
            let full = bundle.build_knowledge();
            preprocess_ms += started.elapsed().as_secs_f64() * 1e3;
            let base = match kind {
                Kind::EditChurn => without_domain_terms(&full, bundle.spec),
                _ => full,
            };
            let db = match kind {
                Kind::WarehouseScan => replicate_facts(&bundle.db, bundle.spec, WAREHOUSE_FACTOR),
                _ => bundle.db,
            };
            let index = Arc::new(KnowledgeIndex::build(base.clone()));
            let reference_sql = bundle
                .tasks
                .iter()
                .map(|t| pipeline.generate(&t.question, &index, &db, &[]).sql)
                .collect();
            let mut rng = Rng::new(seed, d as u64 + 1);
            let questions = bundle.tasks.len();
            let ops = match kind {
                Kind::GenCold => shuffled_passes(&mut rng, OPS_PER_DOMAIN_COLD, questions),
                Kind::WarehouseScan => {
                    shuffled_passes(&mut rng, OPS_PER_DOMAIN_WAREHOUSE, questions)
                }
                Kind::HotRepeat => zipf_keys(&mut rng, OPS_HOT, questions),
                Kind::EditChurn => churn_stream(&mut rng, READS_CHURN, questions),
            };
            for op in &ops {
                let (tag, tenant, question) = match *op {
                    Op::Read { tenant, question } => (0u8, tenant, question),
                    Op::Improve { tenant } => (1u8, tenant, 0),
                };
                digest.write(&[d as u8, tag]);
                digest.write(&tenant.to_le_bytes());
                digest.write(&question.to_le_bytes());
            }
            domains.push(Domain {
                db: Arc::new(db),
                tasks: bundle.tasks,
                base,
                index,
                reference_sql,
                ops,
            });
        }

        let churn =
            (kind == Kind::EditChurn).then(|| Churn::seed(&domains[0], &tenants, seed, scratch));
        World {
            kind,
            oracle,
            domains,
            tenants,
            churn,
            ops_digest: digest.0,
            preprocess_ms,
        }
    }

    /// Start a serving runtime over `domain` with this workload's fixed
    /// configuration. The caller shuts it down.
    pub fn start_runtime(
        &self,
        domain: &Domain,
        model: Arc<SpanModel>,
    ) -> ServeRuntime<Arc<SpanModel>> {
        let cache = if self.kind.caches_on() {
            ServeConfig::default().result_cache_capacity
        } else {
            0
        };
        let config = ServeConfig {
            workers: WORKERS,
            result_cache_capacity: cache,
            reform_cache_capacity: cache,
            tenants: self.churn.as_ref().map(|c| Arc::clone(&c.directory)),
            ..ServeConfig::default()
        };
        ServeRuntime::start(
            model,
            Arc::clone(&domain.index),
            0,
            Arc::clone(&domain.db),
            config,
        )
    }

    /// Every distinct question of `domain` once (tenants round-robin),
    /// plus — when caches are on — a prefix of the stream long enough to
    /// fill them, so timing starts from the steady state.
    pub fn warm_up_ops(&self, domain: &Domain) -> Vec<Op> {
        let mut ops: Vec<Op> = (0..domain.tasks.len())
            .map(|q| Op::Read {
                tenant: (q % self.tenants.len()) as u16,
                question: q as u16,
            })
            .collect();
        if self.kind.caches_on() {
            let fill = 2 * ServeConfig::default().result_cache_capacity;
            ops.extend(
                domain
                    .ops
                    .iter()
                    .filter(|op| matches!(op, Op::Read { .. }))
                    .take(fill),
            );
        }
        ops
    }
}

impl Churn {
    fn seed(domain: &Domain, tenants: &[String], seed: u64, scratch: &Path) -> Churn {
        let root = scratch.join(format!("store-{}-{seed}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let metrics = Arc::new(MetricsRegistry::new());
        let store = Arc::new(TenantKnowledgeStore::open(
            root.clone(),
            TenantStoreConfig {
                page_size: PAGE_SIZE,
                pool_budget_bytes: POOL_BUDGET_BYTES,
                shards: 16,
                // Default policy: fsync on every commit.
                store: StoreConfig::default(),
            },
            Some(Arc::clone(&metrics)),
        ));
        // Every tenant replays the base set's own edit log, so all start
        // at the same epoch with identical ids.
        for tenant in tenants {
            let mut staging = StagingArea::new();
            for logged in domain.base.log() {
                staging.stage(logged.edit.clone());
            }
            store
                .commit(tenant, staging, "seed")
                .expect("seeding a tenant on a healthy filesystem");
        }
        let directory = Arc::new(TenantDirectory::with_metrics(
            Arc::clone(&store),
            DIRECTORY_CAPACITY,
            Some(Arc::clone(&metrics)),
        ));

        let mut golden = Vec::new();
        let mut candidates = Vec::new();
        for (q, task) in domain.tasks.iter().enumerate() {
            let sql = domain.reference_sql[q].as_deref();
            if score_prediction(&domain.db, &task.gold_sql, sql).0 {
                if golden.len() < GOLDEN_QUERIES {
                    golden.push(GoldenQuery {
                        question: task.question.clone(),
                        gold_sql: task.gold_sql.clone(),
                    });
                }
            } else if sme::feedback_for(task, sql).is_some() {
                candidates.push(q);
            }
        }
        Rng::new(seed, 100).shuffle(&mut candidates);
        Churn {
            store,
            directory,
            metrics,
            root,
            golden,
            candidates,
        }
    }
}

impl Drop for Churn {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

/// The base knowledge minus every instruction and example that mentions
/// one of the domain's three terms — the day-0 deployment the paper's
/// continuous-improvement loop starts from.
fn without_domain_terms(full: &KnowledgeSet, spec: &DomainSpec) -> KnowledgeSet {
    let mut ks = full.clone();
    for term in [spec.our_term, spec.ratio_term, spec.qoq_term] {
        let upper = term.to_uppercase();
        let instructions: Vec<_> = ks
            .instructions()
            .iter()
            .filter(|i| i.retrieval_text().to_uppercase().contains(&upper))
            .map(|i| i.id)
            .collect();
        for id in instructions {
            ks.apply(Edit::DeleteInstruction { id })
                .expect("deleting a listed instruction");
        }
        let examples: Vec<_> = ks
            .examples()
            .iter()
            .filter(|e| e.retrieval_text().to_uppercase().contains(&upper))
            .map(|e| e.id)
            .collect();
        for id in examples {
            ks.apply(Edit::DeleteExample { id })
                .expect("deleting a listed example");
        }
    }
    ks
}

/// `db` with both fact tables replicated `factor` times. Copy `k` has
/// its dates moved `2k` years back, so every question about 2022–23
/// keeps its answer while scans, joins and aggregations see `factor`
/// times the rows.
fn replicate_facts(db: &Database, spec: &DomainSpec, factor: i32) -> Database {
    let mut scaled = db.clone();
    for (table, date_col) in [
        (spec.fact1_table, spec.fact1_date),
        (spec.fact2_table, spec.fact2_date),
    ] {
        let table = scaled.table_mut(table).expect("fact table exists");
        let date_at = table.column_index(date_col).expect("date column exists");
        let original = table.rows.clone();
        for copy in 1..factor {
            for row in &original {
                let mut row = row.clone();
                if let Value::Date(d) = &row[date_at] {
                    let shifted = Date::new(d.year - 2 * copy, d.month, d.day)
                        .expect("first of a month is valid in every year");
                    row[date_at] = Value::Date(shifted);
                }
                table.push_row(row).expect("same arity as the source row");
            }
        }
    }
    scaled
}

/// `n` reads: repeated passes over all questions, each pass in a fresh
/// seeded order, tenants round-robin.
fn shuffled_passes(rng: &mut Rng, n: usize, questions: usize) -> Vec<Op> {
    let mut order: Vec<u16> = (0..questions as u16).collect();
    let mut ops = Vec::with_capacity(n);
    while ops.len() < n {
        rng.shuffle(&mut order);
        for &question in order.iter().take(n - ops.len()) {
            ops.push(Op::Read {
                tenant: (ops.len() % TENANTS_COLD) as u16,
                question,
            });
        }
    }
    ops
}

/// `n` reads over `TENANTS_HOT × questions` keys, Zipf-distributed over
/// seeded-scrambled ranks.
fn zipf_keys(rng: &mut Rng, n: usize, questions: usize) -> Vec<Op> {
    let mut keys: Vec<usize> = (0..TENANTS_HOT * questions).collect();
    rng.shuffle(&mut keys);
    let zipf = Zipf::new(keys.len(), ZIPF_HOT);
    (0..n)
        .map(|_| {
            let key = keys[zipf.sample(rng)];
            Op::Read {
                tenant: (key / questions) as u16,
                question: (key % questions) as u16,
            }
        })
        .collect()
}

/// `reads` reads (tenant Zipf over scrambled ranks, question uniform)
/// with one improvement step after every [`READS_PER_IMPROVE`]th read.
/// Steps walk a seeded permutation of the tenants, and each is followed
/// by a read for the tenant it edited.
fn churn_stream(rng: &mut Rng, reads: usize, questions: usize) -> Vec<Op> {
    let mut by_rank: Vec<u16> = (0..TENANTS_CHURN as u16).collect();
    rng.shuffle(&mut by_rank);
    let mut improve_order: Vec<u16> = (0..TENANTS_CHURN as u16).collect();
    rng.shuffle(&mut improve_order);
    let zipf = Zipf::new(TENANTS_CHURN, ZIPF_CHURN);
    let mut ops = Vec::with_capacity(reads + reads / READS_PER_IMPROVE);
    let mut steps = 0;
    for read in 1..=reads {
        let tenant = match ops.last() {
            Some(&Op::Improve { tenant }) => tenant,
            _ => by_rank[zipf.sample(rng)],
        };
        ops.push(Op::Read {
            tenant,
            question: rng.below(questions) as u16,
        });
        // The stream is replayed cyclically, so it never ends on a step:
        // its follow-up read would be the unrelated first read.
        if read % READS_PER_IMPROVE == 0 && read != reads {
            ops.push(Op::Improve {
                tenant: improve_order[steps % TENANTS_CHURN],
            });
            steps += 1;
        }
    }
    ops
}

#[cfg(test)]
mod tests {
    use super::*;

    const PINNED_SHUFFLED: u64 = 6279593186061008815;
    const PINNED_ZIPF: u64 = 5367460196020628914;
    const PINNED_CHURN: u64 = 5081394215466860595;

    fn digest(ops: &[Op]) -> u64 {
        let mut h = Fnv::default();
        for op in ops {
            h.write(format!("{op:?}").as_bytes());
        }
        h.0
    }

    #[test]
    fn streams_are_bit_stable_for_a_seed() {
        for stream in [
            |rng: &mut Rng| shuffled_passes(rng, 1_000, 34),
            |rng: &mut Rng| zipf_keys(rng, 1_000, 34),
            |rng: &mut Rng| churn_stream(rng, 1_000, 34),
        ] {
            let a = stream(&mut Rng::new(42, 1));
            let b = stream(&mut Rng::new(42, 1));
            let c = stream(&mut Rng::new(43, 1));
            assert_eq!(digest(&a), digest(&b));
            assert_ne!(digest(&a), digest(&c));
        }
    }

    #[test]
    fn stream_digests_are_pinned() {
        // A changed digest means every committed baseline number was
        // measured on a different stream: re-measure, then re-pin.
        assert_eq!(
            digest(&shuffled_passes(&mut Rng::new(42, 1), 1_000, 34)),
            PINNED_SHUFFLED
        );
        assert_eq!(
            digest(&zipf_keys(&mut Rng::new(42, 1), 1_000, 34)),
            PINNED_ZIPF
        );
        assert_eq!(
            digest(&churn_stream(&mut Rng::new(42, 1), 1_000, 34)),
            PINNED_CHURN
        );
    }

    #[test]
    fn shuffled_passes_visit_every_question_equally() {
        let ops = shuffled_passes(&mut Rng::new(1, 1), 340, 34);
        let mut seen = [0usize; 34];
        for op in &ops {
            if let Op::Read { question, .. } = op {
                seen[*question as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&n| n == 10));
    }

    #[test]
    fn churn_stream_follows_each_step_with_a_read_for_its_tenant() {
        let ops = churn_stream(&mut Rng::new(9, 1), 1_000, 34);
        let steps = ops
            .iter()
            .filter(|op| matches!(op, Op::Improve { .. }))
            .count();
        assert_eq!(steps, 1_000 / READS_PER_IMPROVE - 1);
        for pair in ops.windows(2) {
            if let Op::Improve { tenant } = pair[0] {
                assert!(matches!(pair[1], Op::Read { tenant: t, .. } if t == tenant));
            }
        }
        assert!(matches!(ops.last(), Some(Op::Read { .. })));
    }

    #[test]
    fn zipf_keys_concentrate_on_few_keys() {
        let ops = zipf_keys(&mut Rng::new(5, 1), 20_000, 34);
        let mut counts = std::collections::HashMap::new();
        for op in &ops {
            *counts.entry(format!("{op:?}")).or_insert(0usize) += 1;
        }
        let mut by_count: Vec<usize> = counts.into_values().collect();
        by_count.sort_unstable_by(|a, b| b.cmp(a));
        let top_256: usize = by_count.iter().take(256).sum();
        // The 256 hottest of 1,088 keys carry most of the traffic.
        assert!(top_256 as f64 / ops.len() as f64 > 0.7);
    }
}
