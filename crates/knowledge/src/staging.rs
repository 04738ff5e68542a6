//! Staged edits (§4.2.1).
//!
//! "Staging … means accepting the edit and taking it to an environment
//! that mimics the deployed system for testing." A [`StagingArea`] holds
//! accepted-but-unmerged edits; [`StagingArea::materialize`] produces the
//! knowledge set *as it would look* with the staged edits applied — used
//! for regeneration during feedback iteration — without touching the
//! deployed set. [`StagingArea::commit`] merges into the deployed set
//! (after regression testing and approval, which the core crate drives).

use crate::set::{Edit, KnowledgeError, KnowledgeSet};
use std::fmt;

/// Why a [`StagingArea::commit`] failed.
#[derive(Debug)]
pub enum CommitError {
    /// A staged edit refused to apply; the deployed set is exactly as it
    /// was before the merge (see [`KnowledgeSet::merge`]).
    Apply(KnowledgeError),
}

impl fmt::Display for CommitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CommitError::Apply(e) => write!(f, "staged edit no longer applies: {e}"),
        }
    }
}

impl std::error::Error for CommitError {}

/// A staged edit with its stable handle.
#[derive(Debug, Clone, PartialEq)]
pub struct StagedEdit {
    /// Stable handle for [`StagingArea::unstage`].
    pub handle: u64,
    /// The staged edit.
    pub edit: Edit,
}

/// Accumulates edits an SME has accepted from the recommendations panel.
#[derive(Debug, Clone, Default)]
pub struct StagingArea {
    next_handle: u64,
    staged: Vec<StagedEdit>,
}

impl StagingArea {
    /// An empty staging area.
    pub fn new() -> StagingArea {
        StagingArea::default()
    }

    /// True when nothing is staged.
    pub fn is_empty(&self) -> bool {
        self.staged.is_empty()
    }

    /// Number of staged edits.
    pub fn len(&self) -> usize {
        self.staged.len()
    }

    /// The staged edits in staging order.
    pub fn staged(&self) -> &[StagedEdit] {
        &self.staged
    }

    /// Stage an edit; returns a handle usable with [`StagingArea::unstage`].
    pub fn stage(&mut self, edit: Edit) -> u64 {
        let handle = self.next_handle;
        self.next_handle += 1;
        self.staged.push(StagedEdit { handle, edit });
        handle
    }

    /// Remove a staged edit. Returns it if present.
    pub fn unstage(&mut self, handle: u64) -> Option<Edit> {
        let pos = self.staged.iter().position(|s| s.handle == handle)?;
        Some(self.staged.remove(pos).edit)
    }

    /// Drop every staged edit.
    pub fn clear(&mut self) {
        self.staged.clear();
    }

    /// Build the knowledge set as it would look with staged edits applied.
    /// `base` is untouched. An edit that no longer applies (e.g. its
    /// target was deleted in the meantime) surfaces as an error so the SME
    /// can unstage it.
    pub fn materialize(&self, base: &KnowledgeSet) -> Result<KnowledgeSet, KnowledgeError> {
        let mut staged = base.clone();
        for s in &self.staged {
            staged.apply(s.edit.clone())?;
        }
        Ok(staged)
    }

    /// Merge the staged edits into the deployed set, consuming the area.
    /// All or nothing: a partial merge would leave the deployed set
    /// inconsistent with what was regression-tested. Returns the
    /// pre-merge checkpoint, which reverts the merge as a unit.
    pub fn commit(self, base: &mut KnowledgeSet, label: &str) -> Result<u64, CommitError> {
        base.merge(label, self.staged.into_iter().map(|s| s.edit))
            .map_err(CommitError::Apply)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{MemFs, StoreFs};
    use crate::journal::{encode_record, JournalRecord};
    use crate::recovery::RecoveryOutcome;
    use crate::set::EditOutcome;
    use crate::store::{DurableKnowledgeStore, StoreConfig, StoreError};
    use crate::types::{FragmentKind, SourceRef, SqlFragment};
    use std::path::Path;
    use std::sync::Arc;

    fn insert_edit(desc: &str) -> Edit {
        Edit::InsertExample {
            intent: None,
            description: desc.into(),
            fragment: SqlFragment::new(FragmentKind::Where, "WHERE A = 1", "main"),
            term: None,
            source: SourceRef::Feedback { feedback_id: 1 },
        }
    }

    #[test]
    fn materialize_leaves_base_untouched() {
        let base = KnowledgeSet::new();
        let mut area = StagingArea::new();
        area.stage(insert_edit("a"));
        area.stage(insert_edit("b"));
        let staged = area.materialize(&base).unwrap();
        assert_eq!(staged.examples().len(), 2);
        assert_eq!(base.examples().len(), 0);
    }

    #[test]
    fn unstage_removes_one() {
        let mut area = StagingArea::new();
        let h1 = area.stage(insert_edit("a"));
        let _h2 = area.stage(insert_edit("b"));
        assert!(area.unstage(h1).is_some());
        assert!(area.unstage(h1).is_none());
        assert_eq!(area.len(), 1);
    }

    #[test]
    fn commit_merges_and_checkpoints() {
        let mut base = KnowledgeSet::new();
        let mut area = StagingArea::new();
        area.stage(insert_edit("a"));
        let cp = area.commit(&mut base, "merge feedback 1").unwrap();
        assert_eq!(base.examples().len(), 1);
        // The checkpoint captures the pre-merge state.
        base.revert_to(cp).unwrap();
        assert_eq!(base.examples().len(), 0);
    }

    /// The doomed batch of `commit_is_atomic_on_failure`: an insert that
    /// would succeed, then a delete of `id` twice — the second refuses.
    fn doomed_batch(id: crate::types::ExampleId) -> Vec<Edit> {
        vec![
            insert_edit("ok"),
            Edit::DeleteExample { id },
            Edit::DeleteExample { id },
        ]
    }

    /// Content, checkpoints, log and clock are all as in `before`.
    fn assert_untouched(set: &KnowledgeSet, before: &KnowledgeSet, path: &str) {
        assert!(set.content_eq(before), "{path}: content moved");
        assert_eq!(
            set.checkpoints().len(),
            before.checkpoints().len(),
            "{path}: a checkpoint for a merge that never happened"
        );
        assert_eq!(set.log().len(), before.log().len(), "{path}: log moved");
        assert_eq!(set.tick(), before.tick(), "{path}: clock moved");
    }

    #[test]
    fn commit_is_atomic_on_failure() {
        let mut base = KnowledgeSet::new();
        let id = match base.apply(insert_edit("victim")).unwrap() {
            EditOutcome::InsertedExample(id) => id,
            _ => unreachable!(),
        };
        let before = base.clone();
        let area = || {
            let mut area = StagingArea::new();
            for edit in doomed_batch(id) {
                area.stage(edit);
            }
            area
        };

        // In memory.
        match area().commit(&mut base, "doomed") {
            Err(CommitError::Apply(_)) => {}
            other => panic!("expected CommitError::Apply, got {other:?}"),
        }
        assert_untouched(&base, &before, "StagingArea::commit");

        // Through the durable store: same refusal, same nothing.
        let mem: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let open = || {
            DurableKnowledgeStore::open_with(
                Arc::clone(&mem),
                "k.json",
                "k.wal",
                StoreConfig::default(),
                None,
            )
            .unwrap()
        };
        let mut store = open();
        store.apply(insert_edit("victim")).unwrap();
        assert!(matches!(
            store.commit(area(), "doomed"),
            Err(StoreError::Knowledge(_))
        ));
        assert_untouched(store.set(), &before, "DurableKnowledgeStore::commit");
        drop(store);

        // Replayed from a journal: a commit-terminated batch holding the
        // refusing edit is corruption, and the prefix before it survives
        // without the batch's checkpoint.
        let mut records = vec![JournalRecord::BatchStart {
            label: "doomed".into(),
            count: 3,
        }];
        records.extend(doomed_batch(id).into_iter().map(JournalRecord::Edit));
        records.push(JournalRecord::BatchCommit);
        for record in &records {
            mem.append(Path::new("k.wal"), &encode_record(record).unwrap())
                .unwrap();
        }
        let reopened = open();
        assert_eq!(
            reopened.recovery_report().outcome,
            RecoveryOutcome::Quarantined
        );
        assert_untouched(reopened.set(), &before, "journal replay");
    }

    #[test]
    fn stale_staged_edit_errors_in_materialize() {
        let mut base = KnowledgeSet::new();
        let id = match base.apply(insert_edit("victim")).unwrap() {
            EditOutcome::InsertedExample(id) => id,
            _ => unreachable!(),
        };
        let mut area = StagingArea::new();
        area.stage(Edit::DeleteExample { id });
        base.apply(Edit::DeleteExample { id }).unwrap(); // deleted underneath
        assert!(area.materialize(&base).is_err());
    }
}
