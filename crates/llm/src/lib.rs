//! # genedit-llm — deterministic oracle language model
//!
//! The GenEdit paper's pipeline is built from GPT-4o calls. This crate
//! substitutes a **deterministic oracle**: each benchmark task privately
//! registers its gold SQL plus the knowledge requirements behind it, and
//! the oracle corrupts the gold query once per requirement the pipeline's
//! prompt fails to meet — misinterpreted enterprise terms, missing schema
//! grounding, context overload, and bounded single-shot reasoning that CoT
//! planning relieves. See [`oracle`] for the full causal contract.
//!
//! The substitution preserves exactly the *relative* claims the paper
//! evaluates (Table 1, Table 2) while staying reproducible on a laptop.
//!
//! Model calls are **fallible** ([`ModelError`]). The pipeline does not
//! retry a lost call: it degrades the operator that made it.
//! [`FaultInjector`] (deterministic chaos, see [`fault`]) produces every
//! failure a model API shows, so the tests can pin that degradation.

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod batch;
pub mod cancel;
pub mod fault;
pub mod hedge;
pub mod knowledge;
pub mod model;
pub mod mutate;
pub mod oracle;
pub mod prompt;
pub mod tier;

pub use batch::{AdaptiveWindow, BatchConfig, BatchScheduler};
pub use cancel::CancelToken;
pub use fault::{FaultConfig, FaultInjector, FaultKind, FaultLog};
pub use genedit_telemetry::hash::{hash01, hash_u64};
pub use hedge::{HedgePolicy, HedgeStats, HedgedModel};
pub use knowledge::{Corruption, Difficulty, TaskKnowledge, TaskRegistry, TermRequirement};
pub use model::{
    kind_label, CompletionRequest, CompletionResponse, LanguageModel, ModelError, ModelUsage,
    RecordingModel, TracedModel,
};
pub use oracle::{apply_drift, OracleConfig, OracleModel};
pub use prompt::{
    Plan, PlanStep, Prompt, PromptExample, PromptInstruction, PromptSchemaElement, TaskKind,
};
pub use tier::{CostLedger, ModelTier, TierPolicy, TieredModel};
