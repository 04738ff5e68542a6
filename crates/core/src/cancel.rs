//! Cooperative cancellation for in-flight generations.
//!
//! The token itself lives in [`genedit_llm::cancel`]: the retry layer
//! ([`genedit_llm::ResilientModel`]) sits below this crate in the
//! dependency graph and slices its backoff sleeps against the thread's
//! cancel scope. This module re-exports it so `genedit_core::CancelToken`
//! (and every existing call-site) keeps working unchanged.

pub use genedit_llm::cancel::CancelToken;
