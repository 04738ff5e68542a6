//! # genedit-knowledge — the company-specific knowledge set
//!
//! Implements the paper's knowledge view (§2.1, §3.2): decomposed SQL
//! examples, natural-language instructions, value-augmented schema
//! elements, user intents, provenance, and the audit/checkpoint machinery
//! behind the knowledge-set library (§4.2.2), plus the staging area used
//! while SMEs iterate on feedback (§4.2.1).
//!
//! ```
//! use genedit_knowledge::{decompose_sql, FragmentKind};
//!
//! let frags = decompose_sql(
//!     "WITH F AS (SELECT ORG, SUM(REV) AS R FROM FIN GROUP BY ORG) \
//!      SELECT ORG FROM F WHERE R > 10",
//! ).unwrap();
//! assert!(frags.iter().any(|f| f.kind == FragmentKind::CteDefinition));
//! assert!(frags.iter().any(|f| f.pseudo_sql() == "... WHERE R > 10 ..."));
//! ```

#![warn(missing_docs)]
#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used))]

pub mod decompose;
pub mod fs;
pub mod journal;
pub mod mine;
pub mod page;
pub mod persist;
pub mod pool;
pub mod preprocess;
pub mod recovery;
pub mod refresh;
pub mod set;
pub mod staging;
pub mod store;
pub mod tenants;
pub mod types;

pub use decompose::{decompose, decompose_sql, to_cte_normal_form};
pub use fs::{FaultyFs, IoFailure, IoFaultConfig, IoFaultLog, MemFs, RealFs, StoreFs};
pub use journal::{
    crc32, encode_record, scan, Journal, JournalError, JournalRecord, ScanEnd, ScanOutcome,
};
pub use mine::{mine_intents, IntentProposal};
pub use page::{Page, PageError, PageKind, DEFAULT_PAGE_SIZE};
pub use persist::{from_json, to_json, PersistError};
pub use pool::{BufferPool, PageKey, PinnedPage, PoolConfig, PoolStats};
pub use preprocess::{
    build_knowledge_set, build_knowledge_set_traced, describe_fragment, DomainDocument, Guideline,
    PreprocessConfig, QueryLogEntry, TermDefinition,
};
pub use recovery::{recover, RecoveryOutcome, RecoveryReport};
pub use refresh::{refresh_document, RefreshReport};
pub use set::{
    CheckpointInfo, Edit, EditOutcome, KnowledgeError, KnowledgeSet, KnowledgeStats, LoggedEdit,
};
pub use staging::{CommitError, StagedEdit, StagingArea};
pub use store::{DurableKnowledgeStore, StoreConfig, StoreError};
pub use tenants::{
    PageDirectory, StoredVectors, TenantKnowledgeStore, TenantSnapshot, TenantStoreConfig,
    TenantStoreError,
};
pub use types::{
    Example, ExampleId, FragmentKind, Instruction, InstructionId, Intent, Provenance,
    RetrievalStage, SchemaElement, SourceRef, SqlFragment,
};

/// Lock a mutex whether or not a panicking thread poisoned it. The maps
/// and counters these mutexes guard are consistent between statements,
/// and one poisoned lock must not take every tenant's reads down with it.
pub(crate) fn lock<T>(mutex: &std::sync::Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    mutex
        .lock()
        .unwrap_or_else(|poisoned| poisoned.into_inner())
}
