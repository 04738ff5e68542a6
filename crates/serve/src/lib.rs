//! # genedit-serve — concurrent serving runtime for the GenEdit pipeline
//!
//! The paper runs GenEdit as an enterprise service: many tenants, shared
//! deployed knowledge, and a continuous-improvement loop committing edits
//! under live traffic. This crate is that serving seam:
//!
//! - **Admission control** — a bounded queue with explicit backpressure.
//!   A saturated queue sheds the request with the *earliest* deadline in
//!   favor of one with more runway, or answers [`Rejected::QueueFull`].
//! - **Per-tenant fairness** — round-robin across tenant sub-queues,
//!   one request per tenant per turn, so one tenant flooding the queue
//!   cannot starve the others.
//! - **Worker pool** — N threads, each owning a pipeline clone over a
//!   shared `Arc<KnowledgeIndex>` snapshot and `Arc<Database>`; the
//!   model is shared behind `Arc` (the [`LanguageModel`] trait is
//!   `Send + Sync` for exactly this).
//! - **Cooperative cancellation** — each request carries a
//!   `CancelToken` holding its deadline; the pipeline checks it between
//!   operators and gives the slot back instead of finishing an answer
//!   nobody is waiting for.
//! - **Epoch-keyed caching** — full-result and reformulation caches
//!   keyed by `(tenant, question, knowledge epoch)`. A durable
//!   knowledge commit bumps the epoch ([`ServeRuntime::publish`]), so
//!   a knowledge deploy invalidates every cached answer *by
//!   construction* — no scan, no stale SQL after an edit lands.
//! - **Fault containment** — every request runs under a per-request
//!   panic boundary ([`QueryOutcome::Failed`] instead of a hung caller),
//!   the worker that caught the panic rebuilds its pipeline and keeps
//!   serving on the same thread, and [`ServeRuntime::shutdown`] joins the
//!   pool once it has served the queue.
//!
//! [`LanguageModel`]: genedit_llm::LanguageModel
//!
//! ```
//! use genedit_bird::{DomainBundle, SPORTS};
//! use genedit_llm::{OracleModel, TaskRegistry};
//! use genedit_core::KnowledgeIndex;
//! use genedit_serve::{QueryRequest, ServeConfig, ServeRuntime};
//! use std::sync::Arc;
//!
//! let bundle = DomainBundle::build(&SPORTS, (4, 2, 1), 7);
//! let index = Arc::new(KnowledgeIndex::build(bundle.build_knowledge()));
//! let mut registry = TaskRegistry::new();
//! for t in &bundle.tasks {
//!     registry.register(t.clone());
//! }
//! let runtime = ServeRuntime::start(
//!     OracleModel::new(registry),
//!     index,
//!     0,
//!     Arc::new(bundle.db.clone()),
//!     ServeConfig::default(),
//! );
//! let ticket = runtime.submit(QueryRequest::new("acme", &bundle.tasks[0].question)).unwrap();
//! let outcome = ticket.wait();
//! assert!(outcome.is_completed());
//! runtime.shutdown();
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod cache;
pub mod request;
pub mod runtime;
mod sched;
pub mod tenants;

pub use cache::{CacheKey, EpochCache};
pub use request::{QueryOutcome, QueryRequest, Rejected, Ticket};
pub use runtime::{ServeConfig, ServeRuntime};
pub use tenants::TenantDirectory;

/// Lock a mutex whether or not a panicking thread poisoned it. Panics are
/// contained per request (see [`runtime`]) and every structure these
/// mutexes guard is consistent between statements, so one poisoned lock
/// must not wedge the runtime for every request after it.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
