//! Crash recovery for the durable knowledge store.
//!
//! Recovery rebuilds the knowledge set from the snapshot plus the journal
//! tail, under one invariant: **the recovered set is `content_eq` to the
//! replay of some committed prefix of the edit history** — never a panic,
//! never a half-applied merge. The three damage classes map to three
//! responses:
//!
//! - a *torn tail* (incomplete or checksum-failing final frame) is cut
//!   off by truncating the journal back to the last valid record
//!   boundary;
//! - an *unterminated batch* at the tail (crash between a merge's
//!   `BatchStart` and its `BatchCommit`) is discarded and truncated, so
//!   the merge rolls back as a unit;
//! - *mid-file corruption* (a bad frame with readable data after it, or
//!   a record that refuses to replay) quarantines the damaged file —
//!   renamed aside, never deleted — and the valid prefix is immediately
//!   re-persisted as a snapshot so the next open is clean.
//!
//! A journal generation opens with a [`JournalRecord::Baseline`] epoch
//! marker. When the loaded snapshot is *newer* than the journal's
//! baseline — the signature of a crash between compaction's snapshot
//! rename and its journal reset — every journal record is already folded
//! into the snapshot, so recovery skips the journal and truncates it
//! instead of double-applying. A journal *ahead* of its snapshot (the
//! snapshot was lost or quarantined after a compaction) is unreplayable
//! and quarantined with it.
//!
//! Re-opening an already-recovered store is idempotent: it finds a clean
//! journal and replays to the identical state.

use crate::fs::{io_failure, StoreFs};
use crate::journal::{scan, JournalRecord, ScanEnd};
use crate::persist;
use crate::set::{Edit, KnowledgeSet};
use crate::store::StoreError;
use genedit_telemetry::{MetricsRegistry, Tracer};
use std::io;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

/// How recovery left the store.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecoveryOutcome {
    /// Neither snapshot nor journal existed — a brand-new store.
    FreshStart,
    /// Snapshot and journal were intact; nothing needed repair.
    Clean,
    /// A torn tail (and/or an unterminated trailing batch) was truncated.
    TruncatedTail,
    /// Mid-file corruption was quarantined.
    Quarantined,
}

/// What recovery found and did. Returned by `DurableKnowledgeStore::open`
/// and folded into `store.*` metrics.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// How recovery classified the on-disk state.
    pub outcome: RecoveryOutcome,
    /// Whether a snapshot file was loaded as the replay base.
    pub snapshot_loaded: bool,
    /// Valid records found in the journal.
    pub records_scanned: usize,
    /// Standalone + batched edits actually applied.
    pub edits_replayed: usize,
    /// Checkpoint records replayed.
    pub checkpoints_replayed: usize,
    /// Merge batches committed during replay.
    pub batches_committed: usize,
    /// Trailing unterminated batches discarded (0 or 1).
    pub batches_discarded: usize,
    /// Bytes cut from the journal (torn tail + discarded batch).
    pub bytes_truncated: u64,
    /// Files renamed aside because of unrecoverable damage.
    pub quarantined: Vec<PathBuf>,
    /// Wall-clock recovery duration, milliseconds.
    pub duration_ms: f64,
}

impl RecoveryReport {
    fn fresh() -> RecoveryReport {
        RecoveryReport {
            outcome: RecoveryOutcome::FreshStart,
            snapshot_loaded: false,
            records_scanned: 0,
            edits_replayed: 0,
            checkpoints_replayed: 0,
            batches_committed: 0,
            batches_discarded: 0,
            bytes_truncated: 0,
            quarantined: Vec::new(),
            duration_ms: 0.0,
        }
    }

    /// True when recovery had to repair or quarantine anything.
    pub fn repaired(&self) -> bool {
        !matches!(
            self.outcome,
            RecoveryOutcome::FreshStart | RecoveryOutcome::Clean
        )
    }
}

/// Outcome of replaying scanned records onto a base set.
struct ReplayOutcome {
    /// Index of the first record that refused to replay (malformed
    /// sequence or inapplicable edit) — treated as corruption.
    bad_record: Option<usize>,
    /// Byte offset where an unterminated trailing batch starts, if any.
    discarded_batch_at: Option<u64>,
    edits: usize,
    checkpoints: usize,
    batches: usize,
}

/// Replay the valid record prefix onto `base`. Batches apply atomically:
/// buffered until their commit marker, then merged all or nothing
/// ([`KnowledgeSet::merge`]). `offsets[i]` is the byte offset of `records[i]`.
fn replay_into(
    base: &mut KnowledgeSet,
    records: &[JournalRecord],
    offsets: &[u64],
) -> ReplayOutcome {
    let mut outcome = ReplayOutcome {
        bad_record: None,
        discarded_batch_at: None,
        edits: 0,
        checkpoints: 0,
        batches: 0,
    };
    let mut pending: Option<(String, u32, Vec<Edit>, u64)> = None;
    for (i, record) in records.iter().enumerate() {
        let bad = match (&mut pending, record) {
            // The epoch marker is consumed before replay; one appearing
            // mid-journal never comes from the writer.
            (_, JournalRecord::Baseline { .. }) => true,
            (None, JournalRecord::Edit(edit)) => match base.apply(edit.clone()) {
                Ok(_) => {
                    outcome.edits += 1;
                    false
                }
                Err(_) => true,
            },
            (None, JournalRecord::Checkpoint { label }) => {
                base.checkpoint(label.clone());
                outcome.checkpoints += 1;
                false
            }
            (None, JournalRecord::BatchStart { label, count }) => {
                pending = Some((label.clone(), *count, Vec::new(), offsets[i]));
                false
            }
            // A commit with no open batch never comes from the writer.
            (None, JournalRecord::BatchCommit) => true,
            (Some((_, _, edits, _)), JournalRecord::Edit(edit)) => {
                edits.push(edit.clone());
                false
            }
            // A committed batch replays as the merge it was journaled as;
            // a miscounted batch or a refusing edit never comes from the
            // writer, and leaves `base` as the prefix before the batch.
            (Some((label, count, edits, _)), JournalRecord::BatchCommit) => {
                let merged = edits.len() == *count as usize
                    && base.merge(label.clone(), edits.drain(..)).is_ok();
                if merged {
                    outcome.batches += 1;
                    outcome.edits += *count as usize;
                    pending = None;
                }
                !merged
            }
            // Checkpoints and nested batches inside an open batch never
            // come from the writer either.
            (Some(_), JournalRecord::Checkpoint { .. })
            | (Some(_), JournalRecord::BatchStart { .. }) => true,
        };
        if bad {
            outcome.bad_record = Some(i);
            return outcome;
        }
    }
    if let Some((_, _, _, start)) = pending {
        // Crash between BatchStart and BatchCommit: the merge never
        // committed, so it is discarded as a unit.
        outcome.discarded_batch_at = Some(start);
    }
    outcome
}

/// Rename `path` aside to the first free `<path>.quarantine[.n]` name.
fn quarantine(fs: &Arc<dyn StoreFs>, path: &Path) -> Result<PathBuf, StoreError> {
    let base = format!("{}.quarantine", path.display());
    let mut candidate = PathBuf::from(&base);
    let mut n = 1;
    while fs.exists(&candidate) {
        candidate = PathBuf::from(format!("{base}.{n}"));
        n += 1;
    }
    fs.rename(path, &candidate)
        .map_err(io_failure("quarantine rename", path))?;
    Ok(candidate)
}

fn read_optional(fs: &Arc<dyn StoreFs>, path: &Path) -> Result<Option<Vec<u8>>, StoreError> {
    if !fs.exists(path) {
        return Ok(None);
    }
    match fs.read(path) {
        Ok(bytes) => Ok(Some(bytes)),
        Err(e) if e.kind() == io::ErrorKind::NotFound => Ok(None),
        Err(e) => Err(io_failure("read", path)(e).into()),
    }
}

/// Recover the knowledge set from `snapshot_path` + `journal_path`.
///
/// On return the on-disk journal has been repaired in place (torn tails
/// and unterminated batches truncated). A [`RecoveryOutcome::Quarantined`]
/// outcome means the caller must re-persist the recovered set as a
/// snapshot — the damaged journal was renamed aside, so the replayed
/// prefix no longer lives in any live file.
pub fn recover(
    fs: &Arc<dyn StoreFs>,
    snapshot_path: &Path,
    journal_path: &Path,
    max_snapshot_bytes: u64,
    metrics: Option<&Arc<MetricsRegistry>>,
) -> Result<(KnowledgeSet, RecoveryReport), StoreError> {
    let started = Instant::now();
    let tracer = Tracer::new("store");
    let span = tracer.span(genedit_telemetry::names::STORE_RECOVER);
    let mut report = RecoveryReport::fresh();

    // ------------------------------------------------------------------
    // Base state: the snapshot, if one exists and decodes.
    // ------------------------------------------------------------------
    let mut set = KnowledgeSet::new();
    let snapshot_len = match fs.len(snapshot_path) {
        Err(e) if e.kind() == io::ErrorKind::NotFound => 0,
        len => len.map_err(io_failure("len", snapshot_path))?,
    };
    if snapshot_len > max_snapshot_bytes {
        tracer.warning(format!(
            "snapshot {} is {snapshot_len} bytes (limit {max_snapshot_bytes}); quarantining",
            snapshot_path.display()
        ));
        report.quarantined.push(quarantine(fs, snapshot_path)?);
    } else if let Some(bytes) = read_optional(fs, snapshot_path)? {
        match std::str::from_utf8(&bytes)
            .ok()
            .and_then(|json| persist::from_json(json).ok())
        {
            Some(loaded) => {
                set = loaded;
                report.snapshot_loaded = true;
            }
            None => {
                tracer.warning(format!(
                    "snapshot {} is corrupt; quarantining",
                    snapshot_path.display()
                ));
                report.quarantined.push(quarantine(fs, snapshot_path)?);
            }
        }
    }

    // ------------------------------------------------------------------
    // Journal: scan the valid prefix, replay it, repair the file.
    // ------------------------------------------------------------------
    let journal_bytes = read_optional(fs, journal_path)?.unwrap_or_default();
    let journal_existed = fs.exists(journal_path);
    let scanned = scan(&journal_bytes);
    report.records_scanned = scanned.records.len();

    // ------------------------------------------------------------------
    // Epoch check: a journal generation leads with a Baseline marker of
    // the state it was started from. Compare it with the loaded base.
    // ------------------------------------------------------------------
    enum JournalEpoch {
        /// Journal matches the base (or carries no marker): replay,
        /// skipping the marker itself.
        Aligned(usize),
        /// The snapshot is newer — crash between compaction's snapshot
        /// rename and journal reset. Every record is already folded in.
        Stale,
        /// The journal is ahead of the base — the snapshot it assumes
        /// was lost. Its records cannot replay.
        Ahead,
    }
    let epoch = match scanned.records.first() {
        Some(JournalRecord::Baseline {
            log_len,
            checkpoints,
        }) => {
            let (sl, sc) = (set.log().len() as u64, set.checkpoints().len() as u64);
            if (*log_len, *checkpoints) == (sl, sc) {
                JournalEpoch::Aligned(1)
            } else if *log_len <= sl && *checkpoints <= sc {
                JournalEpoch::Stale
            } else {
                JournalEpoch::Ahead
            }
        }
        // No epoch marker (hand-built journal): replay everything as-is.
        _ => JournalEpoch::Aligned(0),
    };

    match epoch {
        JournalEpoch::Stale => {
            tracer.warning(format!(
                "journal {} predates the snapshot (crash between compaction's \
                 rename and reset); discarding {} already-applied records",
                journal_path.display(),
                report.records_scanned.saturating_sub(1),
            ));
            fs.truncate(journal_path, 0)
                .map_err(io_failure("truncate", journal_path))?;
            report.bytes_truncated += journal_bytes.len() as u64;
            report.outcome = RecoveryOutcome::TruncatedTail;
        }
        JournalEpoch::Ahead => {
            tracer.warning(format!(
                "journal {} is ahead of its base state (the snapshot it \
                 assumes is gone); quarantining",
                journal_path.display()
            ));
            report.bytes_truncated += journal_bytes.len() as u64;
            report.quarantined.push(quarantine(fs, journal_path)?);
            report.outcome = RecoveryOutcome::Quarantined;
        }
        JournalEpoch::Aligned(skip) => {
            let records = &scanned.records[skip..];
            let offsets = &scanned.offsets[skip..];
            let replayed = replay_into(&mut set, records, offsets);
            report.edits_replayed = replayed.edits;
            report.checkpoints_replayed = replayed.checkpoints;
            report.batches_committed = replayed.batches;

            // The prefix of the journal that is both valid *and* fully
            // replayed. Everything after it is damage of one class or
            // the other.
            let committed_bytes = match (replayed.bad_record, replayed.discarded_batch_at) {
                (Some(i), _) => offsets[i],
                (None, Some(start)) => start,
                (None, None) => scanned.valid_bytes,
            };

            if replayed.bad_record.is_some() || scanned.end == ScanEnd::Corrupt {
                // Mid-file damage: rename the whole journal aside. The
                // valid replayed prefix survives in memory; the caller
                // snapshots it.
                tracer.warning(format!(
                    "journal {} has mid-file corruption after {} records; quarantining",
                    journal_path.display(),
                    report.records_scanned
                ));
                report.bytes_truncated += journal_bytes.len() as u64 - committed_bytes;
                report.quarantined.push(quarantine(fs, journal_path)?);
                report.outcome = RecoveryOutcome::Quarantined;
            } else {
                let tail = journal_bytes.len() as u64 - committed_bytes;
                if tail > 0 {
                    if replayed.discarded_batch_at.is_some() {
                        report.batches_discarded = 1;
                        tracer.warning(format!(
                            "journal {} ends in an uncommitted merge batch; rolling it back",
                            journal_path.display()
                        ));
                    }
                    fs.truncate(journal_path, committed_bytes)
                        .map_err(io_failure("truncate", journal_path))?;
                    report.bytes_truncated += tail;
                    report.outcome = RecoveryOutcome::TruncatedTail;
                } else if journal_existed || report.snapshot_loaded {
                    report.outcome = RecoveryOutcome::Clean;
                }
            }
        }
    }
    if !report.quarantined.is_empty() {
        report.outcome = RecoveryOutcome::Quarantined;
    }

    report.duration_ms = started.elapsed().as_secs_f64() * 1e3;
    span.attr("records", report.records_scanned)
        .attr("edits_replayed", report.edits_replayed)
        .attr("bytes_truncated", report.bytes_truncated)
        .attr("quarantined", report.quarantined.len())
        .attr("outcome", format!("{:?}", report.outcome));
    span.finish();
    if let Some(m) = metrics {
        m.incr("store.recovery.runs", 1);
        m.incr(
            "store.recovery.records_replayed",
            report.records_scanned as u64,
        );
        m.incr("store.recovery.bytes_truncated", report.bytes_truncated);
        m.incr(
            "store.recovery.quarantined",
            report.quarantined.len() as u64,
        );
        m.observe("store.recovery.ms", report.duration_ms);
        m.record_trace(&tracer.finish());
    }
    Ok((set, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::{ArmedFs, MemFs};
    use crate::journal::encode_record;
    use crate::types::{FragmentKind, SourceRef, SqlFragment};
    use std::sync::atomic::Ordering;

    fn edit(desc: &str) -> Edit {
        Edit::InsertExample {
            intent: None,
            description: desc.into(),
            fragment: SqlFragment::new(FragmentKind::Where, "WHERE A = 1", "main"),
            term: None,
            source: SourceRef::Manual,
        }
    }

    fn fs_with_journal(records: &[JournalRecord]) -> (Arc<dyn StoreFs>, PathBuf, PathBuf) {
        let fs: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let journal = PathBuf::from("k.wal");
        let mut bytes = Vec::new();
        for r in records {
            bytes.extend_from_slice(&encode_record(r).unwrap());
        }
        fs.write_file(&journal, &bytes).unwrap();
        (fs, PathBuf::from("k.json"), journal)
    }

    #[test]
    fn fresh_directory_recovers_to_empty() {
        let fs: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let (set, report) =
            recover(&fs, Path::new("k.json"), Path::new("k.wal"), u64::MAX, None).unwrap();
        assert!(set.content_eq(&KnowledgeSet::new()));
        assert_eq!(report.outcome, RecoveryOutcome::FreshStart);
        assert!(!report.repaired());
    }

    #[test]
    fn clean_journal_replays_in_full() {
        let (fs, snap, journal) = fs_with_journal(&[
            JournalRecord::Edit(edit("a")),
            JournalRecord::Checkpoint { label: "cp".into() },
            JournalRecord::BatchStart {
                label: "m".into(),
                count: 2,
            },
            JournalRecord::Edit(edit("b")),
            JournalRecord::Edit(edit("c")),
            JournalRecord::BatchCommit,
        ]);
        let (set, report) = recover(&fs, &snap, &journal, u64::MAX, None).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Clean);
        assert_eq!(set.examples().len(), 3);
        assert_eq!(report.edits_replayed, 3);
        assert_eq!(report.checkpoints_replayed, 1);
        assert_eq!(report.batches_committed, 1);
        // The batch's checkpoint is replayed from its BatchStart label.
        assert_eq!(set.checkpoints().len(), 2);
    }

    #[test]
    fn unterminated_trailing_batch_rolls_back_and_truncates() {
        let (fs, snap, journal) = fs_with_journal(&[
            JournalRecord::Edit(edit("a")),
            JournalRecord::BatchStart {
                label: "m".into(),
                count: 2,
            },
            JournalRecord::Edit(edit("b")),
        ]);
        let before = fs.len(&journal).unwrap();
        let (set, report) = recover(&fs, &snap, &journal, u64::MAX, None).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::TruncatedTail);
        assert_eq!(set.examples().len(), 1, "uncommitted merge must roll back");
        assert_eq!(report.batches_discarded, 1);
        assert!(report.bytes_truncated > 0);
        assert!(fs.len(&journal).unwrap() < before);

        // Idempotent: a second recovery is clean and identical.
        let (set2, report2) = recover(&fs, &snap, &journal, u64::MAX, None).unwrap();
        assert_eq!(report2.outcome, RecoveryOutcome::Clean);
        assert!(set.content_eq(&set2));
        assert_eq!(report2.bytes_truncated, 0);
    }

    #[test]
    fn commit_without_start_is_corruption() {
        let (fs, snap, journal) = fs_with_journal(&[
            JournalRecord::Edit(edit("a")),
            JournalRecord::BatchCommit,
            JournalRecord::Edit(edit("b")),
        ]);
        let (set, report) = recover(&fs, &snap, &journal, u64::MAX, None).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Quarantined);
        assert_eq!(set.examples().len(), 1);
        assert!(!fs.exists(&journal), "damaged journal renamed aside");
        assert!(fs.exists(&report.quarantined[0]));
    }

    #[test]
    fn corrupt_snapshot_is_quarantined_not_fatal() {
        let fs: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let snap = PathBuf::from("k.json");
        let journal = PathBuf::from("k.wal");
        fs.write_file(&snap, b"{ definitely not a knowledge set")
            .unwrap();
        fs.write_file(
            &journal,
            &encode_record(&JournalRecord::Edit(edit("a"))).unwrap(),
        )
        .unwrap();
        let (set, report) = recover(&fs, &snap, &journal, u64::MAX, None).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Quarantined);
        assert_eq!(set.examples().len(), 1, "journal still replays");
        assert!(!fs.exists(&snap));
        assert!(fs.exists(&PathBuf::from("k.json.quarantine")));
    }

    #[test]
    fn oversized_snapshot_is_quarantined_unread() {
        // A valid snapshot one byte over the limit: had recovery decoded
        // it, the recovered set would hold its example.
        let mut set = KnowledgeSet::new();
        set.apply(edit("a")).unwrap();
        let json = persist::to_json(&set).unwrap();
        let fs: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let (snap, journal) = (PathBuf::from("k.json"), PathBuf::from("k.wal"));
        fs.write_file(&snap, json.as_bytes()).unwrap();
        let limit = json.len() as u64 - 1;
        let (recovered, report) = recover(&fs, &snap, &journal, limit, None).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Quarantined);
        assert_eq!(report.quarantined, [PathBuf::from("k.json.quarantine")]);
        assert!(!report.snapshot_loaded);
        assert!(recovered.content_eq(&KnowledgeSet::new()), "never decoded");
        assert!(!fs.exists(&snap));
        assert_eq!(fs.read(&report.quarantined[0]).unwrap(), json.as_bytes());

        // Renamed aside, the oversized file is not seen again.
        let (_, again) = recover(&fs, &snap, &journal, limit, None).unwrap();
        assert!(!again.repaired());
        assert!(again.quarantined.is_empty());
    }

    /// The size guard needs the snapshot's length: when it cannot be
    /// read, recovery fails instead of reading the file unguarded.
    #[test]
    fn unreadable_snapshot_length_is_an_error_not_zero() {
        let mut set = KnowledgeSet::new();
        set.apply(edit("a")).unwrap();
        let json = persist::to_json(&set).unwrap();
        let mem = Arc::new(MemFs::new());
        let armed = Arc::new(ArmedFs::over(&mem));
        armed.len.store(true, Ordering::SeqCst);
        let fs: Arc<dyn StoreFs> = armed;
        let (snap, journal) = (PathBuf::from("k.json"), PathBuf::from("k.wal"));
        fs.write_file(&snap, json.as_bytes()).unwrap();
        let limit = json.len() as u64 - 1;
        assert!(recover(&fs, &snap, &journal, limit, None).is_err());
        assert_eq!(fs.read(&snap).unwrap(), json.as_bytes());
    }

    #[test]
    fn stale_journal_is_skipped_not_double_applied() {
        // A crash between compaction's snapshot rename and its journal
        // reset leaves a snapshot that already contains every journal
        // record. The baseline epoch detects it.
        let mut set = KnowledgeSet::new();
        set.apply(edit("a")).unwrap();
        set.apply(edit("b")).unwrap();
        let (fs, snap, journal) = fs_with_journal(&[
            JournalRecord::Baseline {
                log_len: 0,
                checkpoints: 0,
            },
            JournalRecord::Edit(edit("a")),
            JournalRecord::Edit(edit("b")),
        ]);
        fs.write_file(&snap, persist::to_json(&set).unwrap().as_bytes())
            .unwrap();
        let (recovered, report) = recover(&fs, &snap, &journal, u64::MAX, None).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::TruncatedTail);
        assert_eq!(report.edits_replayed, 0, "records must not re-apply");
        assert!(recovered.content_eq(&set));
        assert_eq!(recovered.log().len(), 2, "no duplicated log entries");
        assert_eq!(fs.len(&journal).unwrap(), 0, "stale journal emptied");
    }

    #[test]
    fn journal_ahead_of_its_base_is_quarantined() {
        // A journal whose baseline assumes state that no snapshot holds
        // (the snapshot was lost after a compaction) cannot replay.
        let (fs, snap, journal) = fs_with_journal(&[
            JournalRecord::Baseline {
                log_len: 5,
                checkpoints: 1,
            },
            JournalRecord::Edit(edit("late")),
        ]);
        let (set, report) = recover(&fs, &snap, &journal, u64::MAX, None).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Quarantined);
        assert!(set.content_eq(&KnowledgeSet::new()));
        assert!(!fs.exists(&journal), "unreplayable journal renamed aside");
        assert!(fs.exists(&report.quarantined[0]));
    }

    #[test]
    fn matching_baseline_replays_the_tail() {
        let mut set = KnowledgeSet::new();
        set.apply(edit("a")).unwrap();
        let (fs, snap, journal) = fs_with_journal(&[
            JournalRecord::Baseline {
                log_len: 1,
                checkpoints: 0,
            },
            JournalRecord::Edit(edit("b")),
        ]);
        fs.write_file(&snap, persist::to_json(&set).unwrap().as_bytes())
            .unwrap();
        let (recovered, report) = recover(&fs, &snap, &journal, u64::MAX, None).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Clean);
        assert_eq!(report.edits_replayed, 1);
        assert_eq!(recovered.examples().len(), 2);
    }

    #[test]
    fn mid_journal_baseline_is_corruption() {
        let (fs, snap, journal) = fs_with_journal(&[
            JournalRecord::Edit(edit("a")),
            JournalRecord::Baseline {
                log_len: 1,
                checkpoints: 0,
            },
            JournalRecord::Edit(edit("b")),
        ]);
        let (set, report) = recover(&fs, &snap, &journal, u64::MAX, None).unwrap();
        assert_eq!(report.outcome, RecoveryOutcome::Quarantined);
        assert_eq!(set.examples().len(), 1);
    }

    #[test]
    fn quarantine_names_never_collide() {
        let fs: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        let path = PathBuf::from("f");
        fs.write_file(&path, b"1").unwrap();
        let q1 = quarantine(&fs, &path).unwrap();
        fs.write_file(&path, b"2").unwrap();
        let q2 = quarantine(&fs, &path).unwrap();
        assert_ne!(q1, q2);
        assert_eq!(fs.read(&q1).unwrap(), b"1");
        assert_eq!(fs.read(&q2).unwrap(), b"2");
    }
}
