//! # genedit-core — the GenEdit pipeline
//!
//! The paper's primary contribution: compounding retrieval operators,
//! CoT planning with pseudo-SQL, plan-guided generation with
//! self-correction, the Table-1 baseline set, the Table-2 ablations, and
//! (in [`feedback`]) the continuous-improvement loop.
//!
//! Model calls are fallible ([`genedit_llm::ModelError`]); the pipeline
//! degrades per operator instead of failing a generation, and non-test
//! library paths are panic-free (enforced by the clippy lints below).
//!
//! ```
//! use genedit_bird::{DomainBundle, SPORTS};
//! use genedit_core::{GenEditPipeline, KnowledgeIndex};
//! use genedit_llm::{OracleModel, TaskRegistry};
//!
//! // An enterprise domain: database + logs + documents + tasks.
//! let bundle = DomainBundle::build(&SPORTS, (4, 2, 1), 42);
//! let index = KnowledgeIndex::build(bundle.build_knowledge());
//!
//! // The deterministic oracle stands in for the LLM.
//! let mut registry = TaskRegistry::new();
//! for t in &bundle.tasks {
//!     registry.register(t.clone());
//! }
//! let pipeline = GenEditPipeline::new(OracleModel::new(registry));
//!
//! let task = &bundle.tasks[0];
//! let result = pipeline.generate(&task.question, &index, &bundle.db, &[]);
//! assert!(result.sql.is_some());
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod baselines;
pub mod cancel;
mod compounding_tests;
pub mod config;
pub mod feedback;
pub mod harness;
pub mod index;
pub mod pipeline;
pub mod regression;
pub mod sme;

pub use baselines::{
    paper_baselines, run_baseline, BaselineResult, ExampleStyle, MethodProfile, SchemaStyle,
};
pub use cancel::CancelToken;
pub use config::{Ablation, CandidateSelection, PipelineConfig};
pub use feedback::{
    expand_feedback, generate_edits, generate_edits_traced, generate_targets, plan_edits,
    FeedbackSession, FeedbackTarget, RecommendedEdit, TargetKind,
};
pub use harness::Harness;
pub use index::KnowledgeIndex;
pub use pipeline::{GenEditPipeline, GenerateOptions, GenerationResult};
pub use regression::{
    run_regression, submit_edits, submit_edits_durable, submit_edits_durable_from, GoldenQuery,
    RegressionOutcome, SubmissionResult, SubmitError,
};
