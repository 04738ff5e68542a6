//! # genedit-bird — synthetic BIRD-like benchmark
//!
//! A stand-in for the BIRD dev set (paper §3.3.1): four enterprise
//! star-schema domains with seeded data, 132 tasks in the paper's
//! 93/28/11 Simple/Moderate/Challenging split, per-task knowledge
//! requirements (domain terms, required tables, evidence), historical
//! query logs and domain documents for knowledge-set pre-processing, and
//! an Execution Accuracy evaluator.

pub mod complexity;
pub mod domains;
pub mod eval;
pub mod spec;
pub mod templates;
pub mod workload;

pub use complexity::{sweep_task, sweep_tasks};
pub use domains::{all_domains, HEALTH, LOGISTICS, RETAIL, SPORTS};
pub use eval::{score_against, score_prediction, EvalReport, Prediction, TaskOutcome};
pub use spec::{generate_database, DomainSpec};
pub use templates::generate_tasks;
pub use workload::{DomainBundle, Workload};
