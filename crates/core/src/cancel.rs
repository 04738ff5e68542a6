//! Cooperative cancellation for in-flight generations.
//!
//! The token itself lives in [`genedit_llm::cancel`], next to the cancel
//! scope that the hedged dispatch ([`genedit_llm::HedgedModel`]) installs
//! below this crate in the dependency graph. This module re-exports it so
//! `genedit_core::CancelToken` names the same type.

pub use genedit_llm::cancel::CancelToken;
