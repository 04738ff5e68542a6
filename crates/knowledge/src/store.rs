//! The durable knowledge store: journal + snapshot under one handle.
//!
//! [`DurableKnowledgeStore`] wires the write-ahead journal and the JSON
//! snapshot together so the knowledge set — the system's one durable,
//! evolving asset — survives crashes with a bounded, configurable loss
//! window:
//!
//! - every mutation is **journaled before it is visible** in memory
//!   (classic WAL discipline; [`KnowledgeSet::check`] runs first so an
//!   unreplayable record is never written);
//! - staged merges go through [`DurableKnowledgeStore::commit`], which
//!   journals `BatchStart ‖ edits ‖ BatchCommit` as one contiguous write —
//!   recovery replays it as the same all-or-nothing
//!   [`KnowledgeSet::merge`] that `StagingArea::commit` runs in memory;
//! - [`DurableKnowledgeStore::compact`] folds the journal into a fresh
//!   snapshot (temp file, fsync, atomic rename) and resets the journal —
//!   snapshot-plus-tail is the steady-state on-disk layout;
//! - opening runs [`recovery`](crate::recovery) first, and if anything was
//!   quarantined the recovered state is immediately re-snapshotted so the
//!   next open is clean.

use crate::fs::{io_failure, IoFailure, RealFs, StoreFs};
use crate::journal::{FsyncPolicy, Journal, JournalError, JournalRecord};
use crate::persist::{self, PersistError};
use crate::recovery::{recover, RecoveryReport};
use crate::set::{Edit, EditOutcome, KnowledgeError, KnowledgeSet};
use crate::staging::StagingArea;
use genedit_telemetry::{MetricsRegistry, Tracer};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Errors from the durable store.
#[derive(Debug)]
pub enum StoreError {
    /// Journal append/sync/truncate failed.
    Journal(JournalError),
    /// Snapshot encode/decode failed.
    Persist(PersistError),
    /// An edit was rejected by the knowledge set (nothing was journaled).
    Knowledge(KnowledgeError),
    /// A raw filesystem operation failed.
    Io(IoFailure),
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Journal(e) => write!(f, "store journal error: {e}"),
            StoreError::Persist(e) => write!(f, "store snapshot error: {e}"),
            StoreError::Knowledge(e) => write!(f, "store rejected edit: {e}"),
            StoreError::Io(e) => write!(f, "store {e}"),
        }
    }
}

impl std::error::Error for StoreError {}

impl From<JournalError> for StoreError {
    fn from(e: JournalError) -> StoreError {
        StoreError::Journal(e)
    }
}
impl From<PersistError> for StoreError {
    fn from(e: PersistError) -> StoreError {
        StoreError::Persist(e)
    }
}
impl From<KnowledgeError> for StoreError {
    fn from(e: KnowledgeError) -> StoreError {
        StoreError::Knowledge(e)
    }
}
impl From<IoFailure> for StoreError {
    fn from(e: IoFailure) -> StoreError {
        StoreError::Io(e)
    }
}

/// Tunables for the durable store.
#[derive(Debug, Clone)]
pub struct StoreConfig {
    /// When journal appends are forced to durable storage.
    pub fsync: FsyncPolicy,
    /// Snapshot files larger than this are quarantined instead of read
    /// (guards recovery against allocating for a garbage length).
    pub max_snapshot_bytes: u64,
    /// When set, `commit` triggers compaction once the journal exceeds
    /// this many bytes.
    pub compact_after_bytes: Option<u64>,
}

impl Default for StoreConfig {
    fn default() -> StoreConfig {
        StoreConfig {
            fsync: FsyncPolicy::Always,
            max_snapshot_bytes: persist::DEFAULT_MAX_BYTES,
            compact_after_bytes: None,
        }
    }
}

/// A crash-safe [`KnowledgeSet`]: snapshot + checksummed edit journal.
pub struct DurableKnowledgeStore {
    fs: Arc<dyn StoreFs>,
    snapshot_path: PathBuf,
    journal: Journal,
    set: KnowledgeSet,
    recovery: RecoveryReport,
    config: StoreConfig,
    metrics: Option<Arc<MetricsRegistry>>,
}

impl DurableKnowledgeStore {
    /// Open (or create) a store in `dir` on the real filesystem, with
    /// default configuration: `<dir>/knowledge.json` + `<dir>/knowledge.wal`.
    pub fn open(dir: impl AsRef<Path>) -> Result<DurableKnowledgeStore, StoreError> {
        let dir = dir.as_ref();
        std::fs::create_dir_all(dir).map_err(io_failure("create_dir_all", dir))?;
        DurableKnowledgeStore::open_with(
            Arc::new(RealFs::new()),
            dir.join("knowledge.json"),
            dir.join("knowledge.wal"),
            StoreConfig::default(),
            None,
        )
    }

    /// Open a store over an explicit filesystem — the seam the fault
    /// injector, the durability sweep, and the proptests plug into.
    ///
    /// Runs recovery first; if recovery quarantined anything, the
    /// recovered state is immediately compacted into a fresh snapshot so
    /// the damage cannot be observed twice.
    pub fn open_with(
        fs: Arc<dyn StoreFs>,
        snapshot_path: impl Into<PathBuf>,
        journal_path: impl Into<PathBuf>,
        config: StoreConfig,
        metrics: Option<Arc<MetricsRegistry>>,
    ) -> Result<DurableKnowledgeStore, StoreError> {
        let snapshot_path = snapshot_path.into();
        let journal_path = journal_path.into();
        let (set, recovery) = recover(
            &fs,
            &snapshot_path,
            &journal_path,
            config.max_snapshot_bytes,
            metrics.as_ref(),
        )?;
        let mut journal = Journal::new(Arc::clone(&fs), journal_path, config.fsync);
        if let Some(m) = &metrics {
            journal = journal.with_metrics(Arc::clone(m));
        }
        let mut store = DurableKnowledgeStore {
            fs,
            snapshot_path,
            journal,
            set,
            recovery,
            config,
            metrics,
        };
        if !store.recovery.quarantined.is_empty() {
            // The replayed prefix only lives in memory once its file was
            // renamed aside; persist it now so re-opening is idempotent.
            store.compact()?;
        } else if store.journal.byte_len() == 0 {
            // Start the journal generation with its epoch marker (fresh
            // store, or a stale journal recovery truncated away).
            store.write_baseline()?;
        }
        Ok(store)
    }

    /// Append the epoch marker that opens a journal generation.
    fn write_baseline(&mut self) -> Result<(), StoreError> {
        self.journal.append(&JournalRecord::Baseline {
            log_len: self.set.log().len() as u64,
            checkpoints: self.set.checkpoints().len() as u64,
        })?;
        Ok(())
    }

    /// The recovered / live knowledge set. Mutations must go through the
    /// store so they hit the journal first.
    pub fn set(&self) -> &KnowledgeSet {
        &self.set
    }

    /// What recovery found when this store was opened.
    pub fn recovery_report(&self) -> &RecoveryReport {
        &self.recovery
    }

    /// Current journal size in bytes (0 right after compaction).
    pub fn journal_bytes(&self) -> u64 {
        self.journal.byte_len()
    }

    /// The **knowledge epoch**: a monotone version number that advances
    /// with every durable mutation (standalone edit, checkpoint replay,
    /// or staged-merge commit). It is the edit-log length — exactly the
    /// `log_len` the journal's `Baseline` epoch marker records at each
    /// generation boundary — so it survives crash recovery bit-for-bit.
    ///
    /// Serving-layer caches key their entries by this value: a
    /// `submit_edits` merge bumps the epoch, which silently invalidates
    /// every cache entry keyed under the previous one.
    pub fn epoch(&self) -> u64 {
        self.set.log().len() as u64
    }

    /// Apply one edit durably: validate, journal, then apply.
    pub fn apply(&mut self, edit: Edit) -> Result<EditOutcome, StoreError> {
        // Validate first — the journal must never hold a record that
        // recovery cannot replay.
        self.set.check(&edit)?;
        self.journal.append(&JournalRecord::Edit(edit.clone()))?;
        Ok(self.set.apply(edit)?)
    }

    /// Record a named checkpoint durably.
    pub fn checkpoint(&mut self, label: &str) -> Result<u64, StoreError> {
        self.journal.append(&JournalRecord::Checkpoint {
            label: label.to_string(),
        })?;
        Ok(self.set.checkpoint(label))
    }

    /// Merge a staging area durably. The batch is validated against a
    /// scratch copy, journaled as `BatchStart ‖ edits ‖ BatchCommit` in
    /// one contiguous write, and only then made visible — a crash at any
    /// point replays either the whole merge or none of it. Returns the
    /// pre-merge checkpoint id, like `StagingArea::commit`.
    pub fn commit(&mut self, staging: StagingArea, label: &str) -> Result<u64, StoreError> {
        self.commit_from(staging, label, None)
    }

    /// [`DurableKnowledgeStore::commit`] with provenance: `origin` names
    /// the serving request (or harness run) whose feedback produced this
    /// batch, and is recorded as a `request_id` attribute on the
    /// `store.commit` span so knowledge mutations join against serve
    /// traces and flight-recorder dumps.
    pub fn commit_from(
        &mut self,
        staging: StagingArea,
        label: &str,
        origin: Option<&str>,
    ) -> Result<u64, StoreError> {
        let tracer = Tracer::new("store");
        let span = tracer.span(genedit_telemetry::names::STORE_COMMIT);
        if let Some(request_id) = origin {
            span.attr("request_id", request_id);
        }
        // Dry-run on a scratch copy — the same merge recovery will
        // replay — so a batch that refuses is never journaled.
        let batch = || staging.staged().iter().map(|s| s.edit.clone());
        let mut next = self.set.clone();
        let checkpoint = next.merge(label, batch())?;
        let mut records = Vec::with_capacity(staging.len() + 2);
        records.push(JournalRecord::BatchStart {
            label: label.to_string(),
            count: staging.len() as u32,
        });
        records.extend(batch().map(JournalRecord::Edit));
        records.push(JournalRecord::BatchCommit);

        // Journal before visibility. On failure, cut any partially
        // appended frames back off so the on-disk journal stays a clean
        // record sequence.
        let pre_len = self.journal.byte_len();
        let edits = staging.len();
        if let Err(e) = self.journal.append_batch(&records) {
            let _ = self.journal.truncate(pre_len);
            return Err(e.into());
        }
        self.set = next;
        span.attr("edits", edits).attr("label", label);
        span.finish();
        if let Some(m) = &self.metrics {
            m.incr("store.commit.merges", 1);
            m.incr("store.commit.edits", edits as u64);
            m.record_trace(&tracer.finish());
        }
        if let Some(limit) = self.config.compact_after_bytes {
            if self.journal.byte_len() > limit {
                self.compact()?;
            }
        }
        Ok(checkpoint)
    }

    /// Fold the journal into a fresh snapshot: write a temp file, fsync,
    /// atomically rename over the snapshot, then reset the journal.
    /// A crash at any point leaves either the old snapshot + full journal
    /// or the new snapshot (+ journal, which replays idempotently).
    pub fn compact(&mut self) -> Result<(), StoreError> {
        let tracer = Tracer::new("store");
        let span = tracer.span(genedit_telemetry::names::STORE_COMPACT);
        let json = persist::to_json(&self.set)?;
        let tmp = PathBuf::from(format!("{}.tmp", self.snapshot_path.display()));
        let write_sync_rename = || -> Result<(), IoFailure> {
            let fs = &self.fs;
            fs.write_file(&tmp, json.as_bytes())
                .map_err(io_failure("write snapshot", &tmp))?;
            fs.fsync(&tmp).map_err(io_failure("fsync snapshot", &tmp))?;
            fs.rename(&tmp, &self.snapshot_path)
                .map_err(io_failure("rename snapshot", &self.snapshot_path))
        };
        if let Err(e) = write_sync_rename() {
            // Best effort: never leave an orphaned temp snapshot behind.
            let _ = self.fs.remove(&tmp);
            return Err(e.into());
        }
        self.journal.reset()?;
        // New generation, new epoch marker. A crash anywhere in this
        // window is safe: before reset the old journal's baseline is
        // older than the renamed snapshot (recovery skips it); after
        // reset an empty journal gets its marker on the next open.
        self.write_baseline()?;
        span.attr("snapshot_bytes", json.len());
        span.finish();
        if let Some(m) = &self.metrics {
            m.incr("store.compact.runs", 1);
            m.incr("store.compact.snapshot_bytes", json.len() as u64);
            m.record_trace(&tracer.finish());
        }
        Ok(())
    }

    /// Force every acknowledged append to durable storage (meaningful
    /// under `FsyncPolicy::EveryN` / `Never`).
    pub fn sync(&mut self) -> Result<(), StoreError> {
        Ok(self.journal.sync()?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
    use crate::journal::encode_record;
    use crate::recovery::RecoveryOutcome;
    use crate::types::{FragmentKind, SourceRef, SqlFragment};

    fn edit(desc: &str) -> Edit {
        Edit::InsertExample {
            intent: None,
            description: desc.into(),
            fragment: SqlFragment::new(FragmentKind::Where, "WHERE A = 1", "main"),
            term: None,
            source: SourceRef::Manual,
        }
    }

    fn open_mem(mem: &Arc<MemFs>) -> DurableKnowledgeStore {
        let fs: Arc<dyn StoreFs> = Arc::clone(mem) as Arc<dyn StoreFs>;
        DurableKnowledgeStore::open_with(fs, "k.json", "k.wal", StoreConfig::default(), None)
            .unwrap()
    }

    #[test]
    fn edits_survive_a_crash_before_any_snapshot() {
        let mem = Arc::new(MemFs::new());
        let mut store = open_mem(&mem);
        store.apply(edit("a")).unwrap();
        store.apply(edit("b")).unwrap();
        store.checkpoint("cp").unwrap();
        let live = store.set().clone();
        mem.crash();
        let reopened = open_mem(&mem);
        assert!(reopened.set().content_eq(&live));
        assert_eq!(reopened.set().checkpoints().len(), 1);
        assert_eq!(reopened.recovery_report().outcome, RecoveryOutcome::Clean);
    }

    #[test]
    fn commit_is_atomic_across_crashes_and_matches_staging_semantics() {
        let mem = Arc::new(MemFs::new());
        let mut store = open_mem(&mem);
        store.apply(edit("base")).unwrap();
        let mut area = StagingArea::new();
        area.stage(edit("m1"));
        area.stage(edit("m2"));
        let cp = store.commit(area, "merge").unwrap();
        assert_eq!(store.set().examples().len(), 3);
        mem.crash();
        let mut reopened = open_mem(&mem);
        assert!(reopened.set().content_eq(store.set()));
        // The checkpoint id replays identically, so revert works post-crash.
        reopened.set.revert_to(cp).unwrap();
        assert_eq!(reopened.set.examples().len(), 1);
    }

    #[test]
    fn invalid_edit_is_rejected_without_touching_the_journal() {
        let mem = Arc::new(MemFs::new());
        let mut store = open_mem(&mem);
        store.apply(edit("a")).unwrap();
        let before = store.journal_bytes();
        let err = store.apply(Edit::DeleteExample {
            id: crate::types::ExampleId(999),
        });
        assert!(matches!(err, Err(StoreError::Knowledge(_))));
        assert_eq!(store.journal_bytes(), before, "nothing journaled");
        assert_eq!(store.set().examples().len(), 1);
    }

    #[test]
    fn compaction_folds_journal_into_snapshot() {
        let mem = Arc::new(MemFs::new());
        let mut store = open_mem(&mem);
        store.apply(edit("a")).unwrap();
        store.apply(edit("b")).unwrap();
        let before = store.journal_bytes();
        store.compact().unwrap();
        // Only the new generation's epoch marker remains.
        let baseline_len = encode_record(&JournalRecord::Baseline {
            log_len: 2,
            checkpoints: 0,
        })
        .unwrap()
        .len() as u64;
        assert!(before > baseline_len);
        assert_eq!(store.journal_bytes(), baseline_len);
        let live = store.set().clone();
        mem.crash();
        let reopened = open_mem(&mem);
        assert!(reopened.set().content_eq(&live));
        assert!(reopened.recovery_report().snapshot_loaded);
        // Log and checkpoints survive compaction too (the snapshot is the
        // full persisted set, not just content).
        assert_eq!(reopened.set().log().len(), live.log().len());
    }

    #[test]
    fn auto_compaction_triggers_on_journal_growth() {
        let mem = Arc::new(MemFs::new());
        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let config = StoreConfig {
            compact_after_bytes: Some(64),
            ..StoreConfig::default()
        };
        let mut store =
            DurableKnowledgeStore::open_with(fs, "k.json", "k.wal", config, None).unwrap();
        let mut area = StagingArea::new();
        area.stage(edit("big-enough-to-cross-the-limit"));
        store.commit(area, "merge").unwrap();
        // Compacted: only the new generation's epoch marker remains.
        let baseline_len = encode_record(&JournalRecord::Baseline {
            log_len: 1,
            checkpoints: 1,
        })
        .unwrap()
        .len() as u64;
        assert_eq!(
            store.journal_bytes(),
            baseline_len,
            "commit should have compacted"
        );
        assert!(mem.paths().contains(&PathBuf::from("k.json")));
    }

    #[test]
    fn crash_between_snapshot_rename_and_journal_reset_is_safe() {
        let mem = Arc::new(MemFs::new());
        let mut store = open_mem(&mem);
        store.apply(edit("a")).unwrap();
        store.apply(edit("b")).unwrap();
        let live = store.set().clone();
        // Simulate compaction crashing right after the snapshot rename:
        // the new snapshot is durable but the journal was never reset.
        let json = persist::to_json(store.set()).unwrap();
        mem.write_file(Path::new("k.json"), json.as_bytes())
            .unwrap();
        mem.fsync(Path::new("k.json")).unwrap();
        mem.crash();
        let reopened = open_mem(&mem);
        assert!(reopened.set().content_eq(&live));
        assert_eq!(
            reopened.set().log().len(),
            live.log().len(),
            "journal records must not replay on top of a snapshot that \
             already contains them"
        );
        assert_eq!(
            reopened.recovery_report().outcome,
            RecoveryOutcome::TruncatedTail
        );
        // The next open finds a fresh generation and is clean.
        let again = open_mem(&mem);
        assert_eq!(again.recovery_report().outcome, RecoveryOutcome::Clean);
        assert!(again.set().content_eq(&live));
    }

    #[test]
    fn epoch_advances_on_commit_and_survives_crash() {
        let mem = Arc::new(MemFs::new());
        let mut store = open_mem(&mem);
        assert_eq!(store.epoch(), 0);
        store.apply(edit("a")).unwrap();
        let after_apply = store.epoch();
        assert!(after_apply > 0);
        let mut area = StagingArea::new();
        area.stage(edit("m1"));
        area.stage(edit("m2"));
        store.commit(area, "merge").unwrap();
        let after_commit = store.epoch();
        assert!(after_commit > after_apply, "a merge must bump the epoch");
        store.compact().unwrap();
        assert_eq!(store.epoch(), after_commit, "compaction is not a mutation");
        mem.crash();
        let reopened = open_mem(&mem);
        assert_eq!(reopened.epoch(), after_commit, "epoch replays exactly");
    }

    #[test]
    fn metrics_record_store_activity() {
        let mem = Arc::new(MemFs::new());
        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let metrics = Arc::new(MetricsRegistry::new());
        let mut store = DurableKnowledgeStore::open_with(
            fs,
            "k.json",
            "k.wal",
            StoreConfig::default(),
            Some(Arc::clone(&metrics)),
        )
        .unwrap();
        store.apply(edit("a")).unwrap();
        let mut area = StagingArea::new();
        area.stage(edit("b"));
        store.commit(area, "merge").unwrap();
        store.compact().unwrap();
        assert_eq!(metrics.counter("store.recovery.runs"), 1);
        assert!(metrics.counter("store.journal.appends") >= 2);
        assert_eq!(metrics.counter("store.commit.merges"), 1);
        assert_eq!(metrics.counter("store.compact.runs"), 1);
    }
}
