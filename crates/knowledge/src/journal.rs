//! The append-only edit journal (write-ahead log) behind the durable
//! knowledge store.
//!
//! Every record is framed as `length ‖ CRC32 ‖ payload`: a little-endian
//! `u32` payload length, a little-endian `u32` CRC32 (IEEE) of the
//! payload, then the JSON-encoded [`JournalRecord`]. The checksum makes
//! torn writes and bit rot detectable; the length prefix makes the log
//! scannable without trusting its contents.
//!
//! Merges from the staging area are bracketed by [`JournalRecord::BatchStart`]
//! / [`JournalRecord::BatchCommit`] markers. Recovery only applies a batch
//! once its commit marker is on disk, so a crash in the middle of a merge
//! rolls the whole merge back — the journal never replays a half-applied
//! merge (replay and `StagingArea::commit` run the same `KnowledgeSet::merge`).

use crate::fs::{io_failure, IoFailure, StoreFs};
use crate::set::Edit;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Frame header size: 4 length bytes + 4 CRC bytes.
pub const RECORD_HEADER_BYTES: usize = 8;

/// Upper bound on a single record's payload. A length prefix above this
/// is treated as corruption rather than an allocation request.
pub const MAX_RECORD_BYTES: u32 = 16 * 1024 * 1024;

/// One journal entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum JournalRecord {
    /// Epoch marker, always the *first* record of a journal generation:
    /// the set's log length and checkpoint count at the moment the
    /// generation started (store creation or compaction). Recovery uses
    /// it to detect a journal the snapshot already subsumes — a crash
    /// between compaction's snapshot rename and the journal reset would
    /// otherwise replay every record a second time on top of a snapshot
    /// that already contains them.
    Baseline {
        /// The set's log length when the generation started.
        log_len: u64,
        /// The set's checkpoint count when the generation started.
        checkpoints: u64,
    },
    /// A standalone edit, committed the moment it is durable.
    Edit(Edit),
    /// A named checkpoint of the in-memory set.
    Checkpoint {
        /// Checkpoint label.
        label: String,
    },
    /// Start of an atomic batch (a staged merge) of `count` edits.
    BatchStart {
        /// Merge label shown in history.
        label: String,
        /// Number of edits in the batch.
        count: u32,
    },
    /// Commit marker: the batch since the matching [`JournalRecord::BatchStart`]
    /// is now durable as a unit.
    BatchCommit,
}

/// Journal I/O and encoding errors.
#[derive(Debug)]
pub enum JournalError {
    /// A filesystem operation (`append`, `fsync`, `truncate`) failed on
    /// the journal file.
    Io(IoFailure),
    /// A record failed to serialize.
    Encode(serde_json::Error),
}

impl fmt::Display for JournalError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            JournalError::Io(e) => write!(f, "journal {e}"),
            JournalError::Encode(e) => write!(f, "journal record encode failed: {e}"),
        }
    }
}

impl std::error::Error for JournalError {}

impl From<IoFailure> for JournalError {
    fn from(e: IoFailure) -> JournalError {
        JournalError::Io(e)
    }
}

/// CRC32 (IEEE 802.3, polynomial 0xEDB88320), the checksum attached to
/// every journal frame and every page.
pub fn crc32(bytes: &[u8]) -> u32 {
    crc32_parts(&[bytes])
}

/// [`crc32`] of the concatenation of `parts`, without concatenating them.
pub fn crc32_parts(parts: &[&[u8]]) -> u32 {
    !parts
        .iter()
        .fold(0xffff_ffff, |crc, part| crc32_update(crc, part))
}

/// Slicing-by-8: eight table lookups fold eight bytes into the register
/// at once, where the bytewise loop needs eight dependent steps.
/// `T[k][b]` is what byte `b` followed by `k` zero bytes contributes to
/// the register, so the XOR of the eight lookups is the bytewise loop's
/// result and the checksum keeps the same IEEE value.
fn crc32_update(mut crc: u32, bytes: &[u8]) -> u32 {
    const T: [[u32; 256]; 8] = crc32_tables();
    let mut blocks = bytes.chunks_exact(8);
    for block in &mut blocks {
        let lo = crc ^ u32::from_le_bytes([block[0], block[1], block[2], block[3]]);
        let hi = u32::from_le_bytes([block[4], block[5], block[6], block[7]]);
        let at = |word: u32, shift: u32| (word >> shift) as u8 as usize;
        crc = T[7][at(lo, 0)]
            ^ T[6][at(lo, 8)]
            ^ T[5][at(lo, 16)]
            ^ T[4][at(lo, 24)]
            ^ T[3][at(hi, 0)]
            ^ T[2][at(hi, 8)]
            ^ T[1][at(hi, 16)]
            ^ T[0][at(hi, 24)];
    }
    for &b in blocks.remainder() {
        crc = (crc >> 8) ^ T[0][(crc as u8 ^ b) as usize];
    }
    crc
}

const fn crc32_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut crc = i as u32;
        let mut bit = 0;
        while bit < 8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
            bit += 1;
        }
        tables[0][i] = crc;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xff) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Encode one record into its on-disk frame.
pub fn encode_record(record: &JournalRecord) -> Result<Vec<u8>, JournalError> {
    let payload = serde_json::to_string(record).map_err(JournalError::Encode)?;
    let payload = payload.as_bytes();
    let mut frame = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    frame.extend_from_slice(&crc32(payload).to_le_bytes());
    frame.extend_from_slice(payload);
    Ok(frame)
}

/// How a journal scan ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ScanEnd {
    /// EOF exactly at a record boundary.
    Clean,
    /// The final frame is incomplete or fails its checksum — the
    /// signature of a write cut short by a crash. Recovery truncates the
    /// file back to `valid_bytes`.
    TornTail,
    /// A frame *before* the end of the file fails its checksum or does
    /// not decode while later bytes still hold data: mid-file corruption
    /// (bit rot, overwrite). Recovery quarantines the whole file.
    Corrupt,
}

/// Result of scanning a journal byte stream.
#[derive(Debug)]
pub struct ScanOutcome {
    /// Records of the valid prefix, in order.
    pub records: Vec<JournalRecord>,
    /// Starting byte offset of each record in `records` (recovery uses
    /// these to truncate back to an exact record boundary).
    pub offsets: Vec<u64>,
    /// Byte length of the valid prefix.
    pub valid_bytes: u64,
    /// How the scan ended.
    pub end: ScanEnd,
}

/// Scan a journal byte stream, stopping at the first invalid frame.
///
/// Classification rule: damage confined to the final frame is a torn
/// tail (truncate and continue); damage with readable data after it is
/// mid-file corruption (quarantine). A corrupted *length* field is
/// indistinguishable from a tear — the frame seems to run past EOF — and
/// is classified as a torn tail, sacrificing whatever followed it; the
/// committed-prefix guarantee still holds because every record before
/// the damage replays unchanged.
pub fn scan(bytes: &[u8]) -> ScanOutcome {
    let mut records = Vec::new();
    let mut offsets = Vec::new();
    let mut offset = 0usize;
    loop {
        if offset == bytes.len() {
            return ScanOutcome {
                records,
                offsets,
                valid_bytes: offset as u64,
                end: ScanEnd::Clean,
            };
        }
        let torn = |records: Vec<JournalRecord>, offsets: Vec<u64>| ScanOutcome {
            records,
            offsets,
            valid_bytes: offset as u64,
            end: ScanEnd::TornTail,
        };
        if bytes.len() - offset < RECORD_HEADER_BYTES {
            return torn(records, offsets);
        }
        let len = u32::from_le_bytes([
            bytes[offset],
            bytes[offset + 1],
            bytes[offset + 2],
            bytes[offset + 3],
        ]);
        let stored_crc = u32::from_le_bytes([
            bytes[offset + 4],
            bytes[offset + 5],
            bytes[offset + 6],
            bytes[offset + 7],
        ]);
        let frame_end = offset + RECORD_HEADER_BYTES + len as usize;
        if len > MAX_RECORD_BYTES || frame_end > bytes.len() {
            return torn(records, offsets);
        }
        let payload = &bytes[offset + RECORD_HEADER_BYTES..frame_end];
        let decoded = if crc32(payload) == stored_crc {
            std::str::from_utf8(payload)
                .ok()
                .and_then(|text| serde_json::from_str::<JournalRecord>(text).ok())
        } else {
            None
        };
        match decoded {
            Some(record) => {
                records.push(record);
                offsets.push(offset as u64);
                offset = frame_end;
            }
            None => {
                let is_final_frame = frame_end == bytes.len();
                return ScanOutcome {
                    records,
                    offsets,
                    valid_bytes: offset as u64,
                    end: if is_final_frame {
                        ScanEnd::TornTail
                    } else {
                        ScanEnd::Corrupt
                    },
                };
            }
        }
    }
}

/// When appended records are forced to durable storage.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum FsyncPolicy {
    /// fsync after every append (and after every batch) — no committed
    /// record is ever lost to a crash.
    #[default]
    Always,
    /// fsync every `n` appends — bounds the data-loss window to `n - 1`
    /// acknowledged records.
    EveryN(u32),
    /// Never fsync from the journal; durability rides on the OS cache
    /// (and on explicit [`Journal::sync`] calls).
    Never,
}

/// Append-side handle on the journal file.
pub struct Journal {
    fs: Arc<dyn StoreFs>,
    path: PathBuf,
    policy: FsyncPolicy,
    unsynced: u32,
    metrics: Option<Arc<genedit_telemetry::MetricsRegistry>>,
}

impl Journal {
    /// Open an append handle on `path` with the given fsync policy.
    pub fn new(fs: Arc<dyn StoreFs>, path: impl Into<PathBuf>, policy: FsyncPolicy) -> Journal {
        Journal {
            fs,
            path: path.into(),
            policy,
            unsynced: 0,
            metrics: None,
        }
    }

    /// Emit `store.journal.*` metrics to the given registry.
    pub fn with_metrics(mut self, metrics: Arc<genedit_telemetry::MetricsRegistry>) -> Journal {
        self.metrics = Some(metrics);
        self
    }

    /// Path of the journal file.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// The fsync policy in force.
    pub fn policy(&self) -> FsyncPolicy {
        self.policy
    }

    /// Current byte length of the journal file (0 when absent).
    pub fn byte_len(&self) -> u64 {
        self.fs.len(&self.path).unwrap_or(0)
    }

    /// Append one record and apply the fsync policy.
    pub fn append(&mut self, record: &JournalRecord) -> Result<u64, JournalError> {
        self.append_frames(std::slice::from_ref(record))
    }

    /// Append several records as one contiguous write (one fsync at most).
    /// Used for staged-merge batches so the markers and edits share fate.
    pub fn append_batch(&mut self, records: &[JournalRecord]) -> Result<u64, JournalError> {
        self.append_frames(records)
    }

    fn append_frames(&mut self, records: &[JournalRecord]) -> Result<u64, JournalError> {
        let mut buffer = Vec::new();
        for record in records {
            buffer.extend_from_slice(&encode_record(record)?);
        }
        let pre_len = self.byte_len();
        self.fs
            .append(&self.path, &buffer)
            .map_err(io_failure("append", &self.path))?;
        if let Some(m) = &self.metrics {
            m.incr("store.journal.appends", records.len() as u64);
            m.incr("store.journal.bytes", buffer.len() as u64);
        }
        self.unsynced = self.unsynced.saturating_add(1);
        let should_sync = match self.policy {
            FsyncPolicy::Always => true,
            FsyncPolicy::EveryN(n) => self.unsynced >= n.max(1),
            FsyncPolicy::Never => false,
        };
        if should_sync {
            if let Err(e) = self.sync() {
                // The append will be reported as failed, so the caller never
                // acknowledges these records — but the bytes are already in
                // the file, and a *later* successful fsync would make them
                // durable, letting recovery replay an edit nobody committed.
                // Cut them back out (best effort: under a crash every
                // subsequent op fails anyway, and the tail is volatile).
                let _ = self.fs.truncate(&self.path, pre_len);
                return Err(e);
            }
        }
        Ok(buffer.len() as u64)
    }

    /// Force everything appended so far to durable storage.
    pub fn sync(&mut self) -> Result<(), JournalError> {
        if !self.fs.exists(&self.path) {
            return Ok(());
        }
        self.fs
            .fsync(&self.path)
            .map_err(io_failure("fsync", &self.path))?;
        self.unsynced = 0;
        if let Some(m) = &self.metrics {
            m.incr("store.journal.syncs", 1);
        }
        Ok(())
    }

    /// Truncate the journal to `len` bytes (used to repair a failed batch
    /// append and to cut a torn tail during recovery).
    pub fn truncate(&mut self, len: u64) -> Result<(), JournalError> {
        if !self.fs.exists(&self.path) {
            return Ok(());
        }
        self.fs
            .truncate(&self.path, len)
            .map_err(io_failure("truncate", &self.path))?;
        Ok(())
    }

    /// Empty the journal after a successful snapshot (compaction).
    pub fn reset(&mut self) -> Result<(), JournalError> {
        self.truncate(0)?;
        self.sync()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fs::MemFs;
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

    #[test]
    fn crc32_matches_known_vectors() {
        // Standard IEEE CRC32 test vector.
        assert_eq!(crc32(b"123456789"), 0xcbf43926);
        assert_eq!(crc32(b""), 0);
    }

    #[test]
    fn frames_round_trip_through_scan() {
        let records = vec![
            JournalRecord::Edit(edit("a")),
            JournalRecord::Checkpoint { label: "cp".into() },
            JournalRecord::BatchStart {
                label: "merge".into(),
                count: 1,
            },
            JournalRecord::Edit(edit("b")),
            JournalRecord::BatchCommit,
        ];
        let mut bytes = Vec::new();
        for r in &records {
            bytes.extend_from_slice(&encode_record(r).unwrap());
        }
        let outcome = scan(&bytes);
        assert_eq!(outcome.end, ScanEnd::Clean);
        assert_eq!(outcome.records, records);
        assert_eq!(outcome.valid_bytes, bytes.len() as u64);
    }

    #[test]
    fn tail_damage_is_torn_mid_file_damage_is_corrupt() {
        let mut bytes = Vec::new();
        for i in 0..4 {
            bytes.extend_from_slice(
                &encode_record(&JournalRecord::Edit(edit(&format!("e{i}")))).unwrap(),
            );
        }
        let record_len = bytes.len() / 4;

        // Cut the last frame short: torn tail, 3 records survive.
        let torn = &bytes[..bytes.len() - 5];
        let outcome = scan(torn);
        assert_eq!(outcome.end, ScanEnd::TornTail);
        assert_eq!(outcome.records.len(), 3);
        assert_eq!(outcome.valid_bytes as usize, record_len * 3);

        // Flip a payload bit in the second frame: corruption, 1 record
        // survives, and the scan refuses to resync past the damage.
        let mut flipped = bytes.clone();
        flipped[record_len + RECORD_HEADER_BYTES + 2] ^= 0x01;
        let outcome = scan(&flipped);
        assert_eq!(outcome.end, ScanEnd::Corrupt);
        assert_eq!(outcome.records.len(), 1);

        // The same flip in the *final* frame is indistinguishable from a
        // torn write and classified accordingly.
        let mut tail_flip = bytes.clone();
        let last = record_len * 3 + RECORD_HEADER_BYTES + 2;
        tail_flip[last] ^= 0x01;
        let outcome = scan(&tail_flip);
        assert_eq!(outcome.end, ScanEnd::TornTail);
        assert_eq!(outcome.records.len(), 3);
    }

    #[test]
    fn oversized_length_prefix_is_treated_as_a_tear() {
        let mut bytes = encode_record(&JournalRecord::Edit(edit("a"))).unwrap();
        let tail_start = bytes.len();
        bytes.extend_from_slice(&u32::MAX.to_le_bytes());
        bytes.extend_from_slice(&[0u8; 20]);
        let outcome = scan(&bytes);
        assert_eq!(outcome.end, ScanEnd::TornTail);
        assert_eq!(outcome.records.len(), 1);
        assert_eq!(outcome.valid_bytes as usize, tail_start);
    }

    #[test]
    fn journal_appends_and_policies() {
        let mem = Arc::new(MemFs::new());
        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let path = PathBuf::from("j.wal");

        // Never-sync: bytes visible but a crash wipes them.
        let mut journal = Journal::new(Arc::clone(&fs), &path, FsyncPolicy::Never);
        journal.append(&JournalRecord::Edit(edit("a"))).unwrap();
        mem.crash();
        assert_eq!(fs.read(&path).unwrap(), b"");

        // Always-sync: the record survives the crash.
        let mut journal = Journal::new(Arc::clone(&fs), &path, FsyncPolicy::Always);
        journal.append(&JournalRecord::Edit(edit("b"))).unwrap();
        mem.crash();
        let outcome = scan(&fs.read(&path).unwrap());
        assert_eq!(outcome.end, ScanEnd::Clean);
        assert_eq!(outcome.records, vec![JournalRecord::Edit(edit("b"))]);

        // EveryN(2): first append volatile, second makes both durable.
        let mut journal = Journal::new(Arc::clone(&fs), &path, FsyncPolicy::EveryN(2));
        journal.append(&JournalRecord::Edit(edit("c"))).unwrap();
        journal.append(&JournalRecord::Edit(edit("d"))).unwrap();
        journal.append(&JournalRecord::Edit(edit("e"))).unwrap();
        mem.crash();
        let outcome = scan(&fs.read(&path).unwrap());
        assert_eq!(outcome.records.len(), 3); // b, c, d — e was unsynced
        journal.reset().unwrap();
        assert_eq!(journal.byte_len(), 0);
    }
}
