//! The versioned knowledge set.
//!
//! "All edits due to user feedback are logged into a history that can be
//! audited and can be used to revert back to any prior checkpoint" (§1,
//! §4.2.2). The set is an event-sourced store: every mutation goes through
//! [`KnowledgeSet::apply`], is recorded in the log, and the whole state is
//! reproducible by replaying the log from empty (property-tested).

use crate::types::{
    Example, ExampleId, Instruction, InstructionId, Intent, Provenance, RetrievalStage,
    SchemaElement, SourceRef, SqlFragment,
};
use serde::{Deserialize, Serialize};
use std::fmt;

/// Errors from knowledge-set operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KnowledgeError {
    /// The referenced example does not exist.
    NoSuchExample(ExampleId),
    /// The referenced instruction does not exist.
    NoSuchInstruction(InstructionId),
    /// An intent with this key already exists.
    DuplicateIntent(String),
    /// The referenced checkpoint does not exist.
    NoSuchCheckpoint(u64),
}

impl fmt::Display for KnowledgeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KnowledgeError::NoSuchExample(id) => write!(f, "no such example {id}"),
            KnowledgeError::NoSuchInstruction(id) => write!(f, "no such instruction {id}"),
            KnowledgeError::DuplicateIntent(k) => write!(f, "intent {k} already exists"),
            KnowledgeError::NoSuchCheckpoint(id) => write!(f, "no such checkpoint {id}"),
        }
    }
}

impl std::error::Error for KnowledgeError {}

/// A single edit to the knowledge set — the unit recommended by the
/// edits-recommendation module, staged by SMEs, and merged on approval.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Edit {
    /// Add a new decomposed example.
    InsertExample {
        /// Intent key to group under, when known.
        intent: Option<String>,
        /// Natural-language description of the fragment.
        description: String,
        /// The decomposed SQL sub-statement.
        fragment: SqlFragment,
        /// Domain term the example defines, when applicable.
        term: Option<String>,
        /// Where the edit came from.
        source: SourceRef,
    },
    /// Modify an existing example; `None` fields are left unchanged.
    UpdateExample {
        /// Example to modify.
        id: ExampleId,
        /// New description, if changing.
        description: Option<String>,
        /// New fragment, if changing.
        fragment: Option<SqlFragment>,
        /// `Some(None)` clears the term; `None` leaves it unchanged.
        term: Option<Option<String>>,
        /// Where the edit came from.
        source: SourceRef,
    },
    /// Remove an example.
    DeleteExample {
        /// Example to remove.
        id: ExampleId,
    },
    /// Add a new generation instruction.
    InsertInstruction {
        /// Intent key to group under, when known.
        intent: Option<String>,
        /// The natural-language guidance text.
        text: String,
        /// Expected SQL sub-expression illustrating the instruction.
        sql_hint: Option<String>,
        /// Domain term the instruction explains, when applicable.
        term: Option<String>,
        /// Where the edit came from.
        source: SourceRef,
    },
    /// Modify an existing instruction; `None` fields are left unchanged.
    UpdateInstruction {
        /// Instruction to modify.
        id: InstructionId,
        /// New text, if changing.
        text: Option<String>,
        /// `Some(None)` clears the hint; `None` leaves it unchanged.
        sql_hint: Option<Option<String>>,
        /// Where the edit came from.
        source: SourceRef,
    },
    /// Remove an instruction.
    DeleteInstruction {
        /// Instruction to remove.
        id: InstructionId,
    },
    /// Register a new mined intent.
    AddIntent(Intent),
    /// Add (or replace, keyed by `TABLE.COLUMN`) a schema element.
    AddSchemaElement(SchemaElement),
    /// Attach a free-text hint to a retrieval/re-ranking operator (§1).
    AddRetrievalHint {
        /// Pipeline stage the hint applies to.
        stage: RetrievalStage,
        /// The hint text.
        text: String,
    },
}

impl Edit {
    /// Short human-readable summary used in the staging UI and history.
    pub fn summary(&self) -> String {
        match self {
            Edit::InsertExample { description, .. } => {
                format!("insert example: {description}")
            }
            Edit::UpdateExample { id, .. } => format!("update example {id}"),
            Edit::DeleteExample { id } => format!("delete example {id}"),
            Edit::InsertInstruction { text, .. } => format!("insert instruction: {text}"),
            Edit::UpdateInstruction { id, .. } => format!("update instruction {id}"),
            Edit::DeleteInstruction { id } => format!("delete instruction {id}"),
            Edit::AddIntent(i) => format!("add intent {}", i.key),
            Edit::AddSchemaElement(s) => format!("add schema element {}", s.key()),
            Edit::AddRetrievalHint { stage, text } => {
                format!("add retrieval hint ({stage:?}): {text}")
            }
        }
    }
}

/// What an applied edit produced.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum EditOutcome {
    /// A new example was created with this id.
    InsertedExample(ExampleId),
    /// A new instruction was created with this id.
    InsertedInstruction(InstructionId),
    /// The edit applied without creating a new element.
    Applied,
}

/// One entry of the audit log.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LoggedEdit {
    /// Position in the log (0-based).
    pub seq: u64,
    /// Logical timestamp at application.
    pub tick: u64,
    /// The edit that was applied.
    pub edit: Edit,
    /// What applying it produced.
    pub outcome: EditOutcome,
}

/// Checkpoint handle for revert.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CheckpointInfo {
    /// Checkpoint id, usable with [`KnowledgeSet::revert_to`].
    pub id: u64,
    /// Human-readable label given at checkpoint time.
    pub label: String,
    /// Log length at checkpoint time.
    pub log_len: usize,
}

/// The full materialized content of a knowledge set, detached from its
/// audit log and checkpoints — the unit the paged tenant store persists
/// as page records and restores on page-in. Two sets with equal content
/// are [`KnowledgeSet::content_eq`] regardless of edit history. It is also
/// the set's own mutable state: kept apart from the log so that
/// checkpoints snapshot it cheaply and equality checks stay meaningful.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct KnowledgeContent {
    /// All registered intents.
    pub intents: Vec<Intent>,
    /// All live examples.
    pub examples: Vec<Example>,
    /// All live instructions.
    pub instructions: Vec<Instruction>,
    /// All schema elements.
    pub schema_elements: Vec<SchemaElement>,
    /// Hints per retrieval stage, in insertion order.
    pub retrieval_hints: Vec<(RetrievalStage, String)>,
    /// Next example id to allocate (ids are never reused).
    pub next_example_id: u64,
    /// Next instruction id to allocate.
    pub next_instruction_id: u64,
    /// Logical clock at detachment time.
    pub tick: u64,
}

/// The company-specific knowledge set (§2.1): examples, instructions, and
/// schema elements grouped by user intents, with a full audit history.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct KnowledgeSet {
    state: KnowledgeContent,
    log: Vec<LoggedEdit>,
    checkpoints: Vec<(CheckpointInfo, KnowledgeContent)>,
}

impl KnowledgeSet {
    /// An empty knowledge set.
    pub fn new() -> KnowledgeSet {
        KnowledgeSet::default()
    }

    /// Rebuild a knowledge set by replaying an edit log from empty.
    /// Replay is deterministic: ids and ticks are reassigned identically.
    pub fn from_log(edits: impl IntoIterator<Item = Edit>) -> Result<KnowledgeSet, KnowledgeError> {
        let mut ks = KnowledgeSet::new();
        for e in edits {
            ks.apply(e)?;
        }
        Ok(ks)
    }

    // ------------------------------------------------------------------
    // Accessors
    // ------------------------------------------------------------------

    /// All registered intents.
    pub fn intents(&self) -> &[Intent] {
        &self.state.intents
    }

    /// All live examples.
    pub fn examples(&self) -> &[Example] {
        &self.state.examples
    }

    /// All live instructions.
    pub fn instructions(&self) -> &[Instruction] {
        &self.state.instructions
    }

    /// All schema elements.
    pub fn schema_elements(&self) -> &[SchemaElement] {
        &self.state.schema_elements
    }

    /// Hints attached to the given retrieval stage, in insertion order.
    pub fn retrieval_hints(&self, stage: RetrievalStage) -> Vec<&str> {
        self.state
            .retrieval_hints
            .iter()
            .filter(|(s, _)| *s == stage)
            .map(|(_, t)| t.as_str())
            .collect()
    }

    /// Look up an example by id.
    pub fn example(&self, id: ExampleId) -> Option<&Example> {
        self.state.examples.iter().find(|e| e.id == id)
    }

    /// Look up an instruction by id.
    pub fn instruction(&self, id: InstructionId) -> Option<&Instruction> {
        self.state.instructions.iter().find(|i| i.id == id)
    }

    /// Look up an intent by key.
    pub fn intent(&self, key: &str) -> Option<&Intent> {
        self.state.intents.iter().find(|i| i.key == key)
    }

    /// Examples grouped under the given intent key.
    pub fn examples_for_intent<'a>(&'a self, key: &'a str) -> impl Iterator<Item = &'a Example> {
        self.state
            .examples
            .iter()
            .filter(move |e| e.intent.as_deref() == Some(key))
    }

    /// Instructions grouped under the given intent key.
    pub fn instructions_for_intent<'a>(
        &'a self,
        key: &'a str,
    ) -> impl Iterator<Item = &'a Instruction> {
        self.state
            .instructions
            .iter()
            .filter(move |i| i.intent.as_deref() == Some(key))
    }

    /// Schema elements grouped under the given intent key.
    pub fn schema_for_intent<'a>(
        &'a self,
        key: &'a str,
    ) -> impl Iterator<Item = &'a SchemaElement> {
        self.state
            .schema_elements
            .iter()
            .filter(move |s| s.intents.iter().any(|i| i == key))
    }

    /// The full audit log, oldest first.
    pub fn log(&self) -> &[LoggedEdit] {
        &self.log
    }

    /// All live checkpoints, oldest first.
    pub fn checkpoints(&self) -> Vec<&CheckpointInfo> {
        self.checkpoints.iter().map(|(info, _)| info).collect()
    }

    /// Current logical time.
    pub fn tick(&self) -> u64 {
        self.state.tick
    }

    // ------------------------------------------------------------------
    // Mutation
    // ------------------------------------------------------------------

    /// Validate an edit against the current state without applying it.
    /// `Ok(())` guarantees the matching [`KnowledgeSet::apply`] succeeds —
    /// the durable store journals edits *before* applying them and relies
    /// on this check to never journal a record that cannot replay.
    pub fn check(&self, edit: &Edit) -> Result<(), KnowledgeError> {
        match edit {
            Edit::UpdateExample { id, .. } | Edit::DeleteExample { id } => {
                self.example(*id)
                    .ok_or(KnowledgeError::NoSuchExample(*id))?;
            }
            Edit::UpdateInstruction { id, .. } | Edit::DeleteInstruction { id } => {
                self.instruction(*id)
                    .ok_or(KnowledgeError::NoSuchInstruction(*id))?;
            }
            Edit::AddIntent(intent) => {
                if self.intent(&intent.key).is_some() {
                    return Err(KnowledgeError::DuplicateIntent(intent.key.clone()));
                }
            }
            Edit::InsertExample { .. }
            | Edit::InsertInstruction { .. }
            | Edit::AddSchemaElement(_)
            | Edit::AddRetrievalHint { .. } => {}
        }
        Ok(())
    }

    /// Apply an edit, logging it. A rejected edit leaves the set fully
    /// unchanged — including the logical clock — so a set that survived
    /// failed applies still replays bit-identically from its log.
    pub fn apply(&mut self, edit: Edit) -> Result<EditOutcome, KnowledgeError> {
        let tick = self.state.tick;
        let outcome = match &edit {
            Edit::InsertExample {
                intent,
                description,
                fragment,
                term,
                source,
            } => {
                let id = ExampleId(self.state.next_example_id);
                self.state.next_example_id += 1;
                self.state.examples.push(Example {
                    id,
                    intent: intent.clone(),
                    description: description.clone(),
                    fragment: fragment.clone(),
                    term: term.clone(),
                    provenance: Provenance {
                        source: source.clone(),
                        tick,
                    },
                });
                EditOutcome::InsertedExample(id)
            }
            Edit::UpdateExample {
                id,
                description,
                fragment,
                term,
                source,
            } => {
                let ex = self
                    .state
                    .examples
                    .iter_mut()
                    .find(|e| e.id == *id)
                    .ok_or(KnowledgeError::NoSuchExample(*id))?;
                if let Some(d) = description {
                    ex.description = d.clone();
                }
                if let Some(fr) = fragment {
                    ex.fragment = fr.clone();
                }
                if let Some(t) = term {
                    ex.term = t.clone();
                }
                ex.provenance = Provenance {
                    source: source.clone(),
                    tick,
                };
                EditOutcome::Applied
            }
            Edit::DeleteExample { id } => {
                let before = self.state.examples.len();
                self.state.examples.retain(|e| e.id != *id);
                if self.state.examples.len() == before {
                    return Err(KnowledgeError::NoSuchExample(*id));
                }
                EditOutcome::Applied
            }
            Edit::InsertInstruction {
                intent,
                text,
                sql_hint,
                term,
                source,
            } => {
                let id = InstructionId(self.state.next_instruction_id);
                self.state.next_instruction_id += 1;
                self.state.instructions.push(Instruction {
                    id,
                    intent: intent.clone(),
                    text: text.clone(),
                    sql_hint: sql_hint.clone(),
                    term: term.clone(),
                    provenance: Provenance {
                        source: source.clone(),
                        tick,
                    },
                });
                EditOutcome::InsertedInstruction(id)
            }
            Edit::UpdateInstruction {
                id,
                text,
                sql_hint,
                source,
            } => {
                let ins = self
                    .state
                    .instructions
                    .iter_mut()
                    .find(|i| i.id == *id)
                    .ok_or(KnowledgeError::NoSuchInstruction(*id))?;
                if let Some(t) = text {
                    ins.text = t.clone();
                }
                if let Some(h) = sql_hint {
                    ins.sql_hint = h.clone();
                }
                ins.provenance = Provenance {
                    source: source.clone(),
                    tick,
                };
                EditOutcome::Applied
            }
            Edit::DeleteInstruction { id } => {
                let before = self.state.instructions.len();
                self.state.instructions.retain(|i| i.id != *id);
                if self.state.instructions.len() == before {
                    return Err(KnowledgeError::NoSuchInstruction(*id));
                }
                EditOutcome::Applied
            }
            Edit::AddIntent(intent) => {
                if self.intent(&intent.key).is_some() {
                    return Err(KnowledgeError::DuplicateIntent(intent.key.clone()));
                }
                self.state.intents.push(intent.clone());
                EditOutcome::Applied
            }
            Edit::AddSchemaElement(el) => {
                // Idempotent on key: re-adding replaces the description.
                if let Some(existing) = self
                    .state
                    .schema_elements
                    .iter_mut()
                    .find(|s| s.key() == el.key())
                {
                    *existing = el.clone();
                } else {
                    self.state.schema_elements.push(el.clone());
                }
                EditOutcome::Applied
            }
            Edit::AddRetrievalHint { stage, text } => {
                self.state.retrieval_hints.push((*stage, text.clone()));
                EditOutcome::Applied
            }
        };
        self.state.tick += 1;
        self.log.push(LoggedEdit {
            seq: self.log.len() as u64,
            tick,
            edit,
            outcome,
        });
        Ok(outcome)
    }

    /// Record a named checkpoint and return its id.
    pub fn checkpoint(&mut self, label: impl Into<String>) -> u64 {
        let id = self.checkpoints.len() as u64;
        self.checkpoints.push((
            CheckpointInfo {
                id,
                label: label.into(),
                log_len: self.log.len(),
            },
            self.state.clone(),
        ));
        id
    }

    /// Merge a batch as a unit — what "merge these staged edits" means
    /// wherever it is said (staging, the durable store, journal replay,
    /// document refresh): record a checkpoint labelled `label`, then
    /// apply every edit in order. If one refuses, that checkpoint is
    /// popped and content, clock and log are restored from it, so the
    /// set is exactly as it was — the checkpoint *is* the backup. On
    /// success the returned id reverts the whole merge.
    pub fn merge(
        &mut self,
        label: impl Into<String>,
        edits: impl IntoIterator<Item = Edit>,
    ) -> Result<u64, KnowledgeError> {
        let checkpoint = self.checkpoint(label);
        for edit in edits {
            if let Err(refused) = self.apply(edit) {
                if let Some((info, content)) = self.checkpoints.pop() {
                    self.state = content;
                    self.log.truncate(info.log_len);
                }
                return Err(refused);
            }
        }
        Ok(checkpoint)
    }

    /// Revert to a prior checkpoint. The log is truncated to the
    /// checkpoint position; later checkpoints are discarded.
    pub fn revert_to(&mut self, checkpoint_id: u64) -> Result<(), KnowledgeError> {
        let idx = checkpoint_id as usize;
        if idx >= self.checkpoints.len() {
            return Err(KnowledgeError::NoSuchCheckpoint(checkpoint_id));
        }
        let (info, snapshot) = self.checkpoints[idx].clone();
        self.state = snapshot;
        self.log.truncate(info.log_len);
        self.checkpoints.truncate(idx + 1);
        Ok(())
    }

    /// Structural equality of the *content* (ignoring log/checkpoints).
    pub fn content_eq(&self, other: &KnowledgeSet) -> bool {
        self.state == other.state
    }

    /// Detach the materialized content (state without log/checkpoints).
    /// The paged tenant store persists this as page records.
    pub fn content(&self) -> KnowledgeContent {
        self.state.clone()
    }

    /// Rebuild a set from detached content with an empty log and no
    /// checkpoints. The result is [`KnowledgeSet::content_eq`] to the set
    /// the content came from, and future ids/ticks continue where the
    /// original left off (ids are never reused across a page-out/page-in
    /// round trip).
    pub fn from_content(content: KnowledgeContent) -> KnowledgeSet {
        KnowledgeSet {
            state: content,
            log: Vec::new(),
            checkpoints: Vec::new(),
        }
    }

    /// Number of elements, for quick reporting.
    pub fn stats(&self) -> KnowledgeStats {
        KnowledgeStats {
            intents: self.state.intents.len(),
            examples: self.state.examples.len(),
            instructions: self.state.instructions.len(),
            schema_elements: self.state.schema_elements.len(),
            edits_logged: self.log.len(),
        }
    }
}

/// Size summary of a knowledge set.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct KnowledgeStats {
    /// Number of registered intents.
    pub intents: usize,
    /// Number of live examples.
    pub examples: usize,
    /// Number of live instructions.
    pub instructions: usize,
    /// Number of schema elements.
    pub schema_elements: usize,
    /// Length of the audit log.
    pub edits_logged: usize,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::types::FragmentKind;

    fn frag(sql: &str) -> SqlFragment {
        SqlFragment::new(FragmentKind::Where, sql, "main")
    }

    fn insert_example(ks: &mut KnowledgeSet, desc: &str) -> ExampleId {
        match ks
            .apply(Edit::InsertExample {
                intent: Some("fin".into()),
                description: desc.into(),
                fragment: frag("WHERE X = 1"),
                term: None,
                source: SourceRef::Manual,
            })
            .unwrap()
        {
            EditOutcome::InsertedExample(id) => id,
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn insert_update_delete_example() {
        let mut ks = KnowledgeSet::new();
        let id = insert_example(&mut ks, "first");
        assert_eq!(ks.examples().len(), 1);
        ks.apply(Edit::UpdateExample {
            id,
            description: Some("updated".into()),
            fragment: None,
            term: Some(Some("RPV".into())),
            source: SourceRef::Feedback { feedback_id: 9 },
        })
        .unwrap();
        let ex = ks.example(id).unwrap();
        assert_eq!(ex.description, "updated");
        assert_eq!(ex.term.as_deref(), Some("RPV"));
        assert_eq!(ex.provenance.source, SourceRef::Feedback { feedback_id: 9 });
        ks.apply(Edit::DeleteExample { id }).unwrap();
        assert!(ks.examples().is_empty());
        assert_eq!(
            ks.apply(Edit::DeleteExample { id }),
            Err(KnowledgeError::NoSuchExample(id))
        );
    }

    #[test]
    fn ids_are_never_reused() {
        let mut ks = KnowledgeSet::new();
        let a = insert_example(&mut ks, "a");
        ks.apply(Edit::DeleteExample { id: a }).unwrap();
        let b = insert_example(&mut ks, "b");
        assert_ne!(a, b);
    }

    #[test]
    fn log_records_everything() {
        let mut ks = KnowledgeSet::new();
        insert_example(&mut ks, "a");
        ks.apply(Edit::AddIntent(Intent::new("fin", "Financial", "")))
            .unwrap();
        assert_eq!(ks.log().len(), 2);
        assert_eq!(ks.log()[0].seq, 0);
        assert_eq!(ks.log()[1].seq, 1);
        assert!(ks.log()[1].tick > ks.log()[0].tick);
    }

    #[test]
    fn replay_reproduces_state() {
        let mut ks = KnowledgeSet::new();
        let id = insert_example(&mut ks, "a");
        insert_example(&mut ks, "b");
        ks.apply(Edit::UpdateExample {
            id,
            description: Some("a2".into()),
            fragment: None,
            term: None,
            source: SourceRef::Manual,
        })
        .unwrap();
        ks.apply(Edit::InsertInstruction {
            intent: None,
            text: "use conditional aggregation".into(),
            sql_hint: None,
            term: None,
            source: SourceRef::Document {
                doc_id: 1,
                section: "s".into(),
            },
        })
        .unwrap();

        let replayed = KnowledgeSet::from_log(ks.log().iter().map(|l| l.edit.clone())).unwrap();
        assert!(ks.content_eq(&replayed));
    }

    #[test]
    fn checkpoint_and_revert() {
        let mut ks = KnowledgeSet::new();
        insert_example(&mut ks, "a");
        let cp = ks.checkpoint("after-a");
        insert_example(&mut ks, "b");
        insert_example(&mut ks, "c");
        assert_eq!(ks.examples().len(), 3);
        ks.revert_to(cp).unwrap();
        assert_eq!(ks.examples().len(), 1);
        assert_eq!(ks.log().len(), 1);
        // Post-revert edits continue cleanly.
        insert_example(&mut ks, "d");
        assert_eq!(ks.examples().len(), 2);
        assert!(ks.revert_to(99).is_err());
    }

    #[test]
    fn revert_discards_later_checkpoints() {
        let mut ks = KnowledgeSet::new();
        let cp0 = ks.checkpoint("zero");
        insert_example(&mut ks, "a");
        let _cp1 = ks.checkpoint("one");
        ks.revert_to(cp0).unwrap();
        assert_eq!(ks.checkpoints().len(), 1);
    }

    #[test]
    fn failed_apply_leaves_set_replayable() {
        let mut ks = KnowledgeSet::new();
        let a = insert_example(&mut ks, "a");
        ks.apply(Edit::DeleteExample { id: a }).unwrap();
        // A rejected edit must not advance the logical clock...
        let tick_before = ks.tick();
        assert!(ks.apply(Edit::DeleteExample { id: a }).is_err());
        assert_eq!(ks.tick(), tick_before);
        insert_example(&mut ks, "b");
        // ...so the log still replays to the identical state (ticks and
        // all) even though a failed apply happened in between.
        let replayed = KnowledgeSet::from_log(ks.log().iter().map(|l| l.edit.clone())).unwrap();
        assert!(ks.content_eq(&replayed));
        assert_eq!(ks.tick(), replayed.tick());
    }

    #[test]
    fn check_mirrors_apply_outcomes() {
        let mut ks = KnowledgeSet::new();
        let id = insert_example(&mut ks, "a");
        ks.apply(Edit::AddIntent(Intent::new("fin", "Financial", "")))
            .unwrap();
        let candidates = vec![
            Edit::DeleteExample { id },
            Edit::DeleteExample { id: ExampleId(999) },
            Edit::DeleteInstruction {
                id: InstructionId(0),
            },
            Edit::AddIntent(Intent::new("fin", "Again", "")),
            Edit::AddIntent(Intent::new("view", "Viewership", "")),
            Edit::InsertExample {
                intent: None,
                description: "d".into(),
                fragment: frag("WHERE B = 2"),
                term: None,
                source: SourceRef::Manual,
            },
        ];
        for edit in candidates {
            let checked = ks.check(&edit);
            let mut probe = ks.clone();
            let applied = probe.apply(edit.clone()).map(|_| ());
            assert_eq!(checked, applied, "check/apply disagree on {edit:?}");
        }
    }

    #[test]
    fn duplicate_intent_rejected() {
        let mut ks = KnowledgeSet::new();
        ks.apply(Edit::AddIntent(Intent::new("fin", "Financial", "")))
            .unwrap();
        assert!(matches!(
            ks.apply(Edit::AddIntent(Intent::new("fin", "Again", ""))),
            Err(KnowledgeError::DuplicateIntent(_))
        ));
    }

    #[test]
    fn schema_element_add_is_idempotent_on_key() {
        let mut ks = KnowledgeSet::new();
        let mut el = SchemaElement {
            table: "T".into(),
            column: Some("C".into()),
            description: "v1".into(),
            top_values: vec![],
            intents: vec![],
        };
        ks.apply(Edit::AddSchemaElement(el.clone())).unwrap();
        el.description = "v2".into();
        ks.apply(Edit::AddSchemaElement(el)).unwrap();
        assert_eq!(ks.schema_elements().len(), 1);
        assert_eq!(ks.schema_elements()[0].description, "v2");
    }

    #[test]
    fn retrieval_hints_by_stage() {
        let mut ks = KnowledgeSet::new();
        ks.apply(Edit::AddRetrievalHint {
            stage: RetrievalStage::SchemaLinking,
            text: "prefer OWNERSHIP_FLAG_COLUMN for 'our'".into(),
        })
        .unwrap();
        assert_eq!(ks.retrieval_hints(RetrievalStage::SchemaLinking).len(), 1);
        assert!(ks
            .retrieval_hints(RetrievalStage::ExampleSelection)
            .is_empty());
    }

    #[test]
    fn content_round_trip_preserves_state_and_id_allocation() {
        let mut ks = KnowledgeSet::new();
        let a = insert_example(&mut ks, "a");
        insert_example(&mut ks, "b");
        ks.apply(Edit::DeleteExample { id: a }).unwrap();
        let mut restored = KnowledgeSet::from_content(ks.content());
        assert!(ks.content_eq(&restored));
        assert!(restored.log().is_empty());
        // Ids keep advancing from where the original left off.
        let c = insert_example(&mut restored, "c");
        assert!(c.0 >= 2, "restored set must not reuse ids, got {c:?}");
        assert_eq!(restored.tick(), ks.tick() + 1);
    }

    #[test]
    fn intent_grouping_queries() {
        let mut ks = KnowledgeSet::new();
        insert_example(&mut ks, "a");
        ks.apply(Edit::InsertExample {
            intent: Some("view".into()),
            description: "b".into(),
            fragment: frag("WHERE Y = 2"),
            term: None,
            source: SourceRef::Manual,
        })
        .unwrap();
        assert_eq!(ks.examples_for_intent("fin").count(), 1);
        assert_eq!(ks.examples_for_intent("view").count(), 1);
        assert_eq!(ks.examples_for_intent("nope").count(), 0);
    }
}
