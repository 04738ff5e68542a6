//! Knowledge-set persistence.
//!
//! The paper's knowledge set is a *materialized view* maintained across
//! deployments; this module serializes the whole set — content, audit log,
//! and checkpoints — to JSON so a deployment can be snapshotted, shipped,
//! and restored bit-for-bit.

use crate::set::KnowledgeSet;
use std::fmt;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Default ceiling for [`load`]: snapshots above this refuse to load.
/// Large enough for any realistic knowledge set, small enough that a
/// corrupted length or a mis-pointed path can't trigger a giant read.
pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// Persistence errors. File-level variants carry the offending path so
/// corruption reports are actionable; `None` means the operation was not
/// tied to a file (e.g. [`from_json`] on an in-memory string).
#[derive(Debug)]
pub enum PersistError {
    /// A filesystem read or write failed.
    Io {
        /// The file involved, when the operation touched one.
        path: Option<PathBuf>,
        /// Underlying I/O error.
        source: io::Error,
    },
    /// The set failed to serialize.
    Encode(serde_json::Error),
    /// The snapshot failed to parse.
    Decode {
        /// The file involved, when the operation touched one.
        path: Option<PathBuf>,
        /// Underlying parse error.
        source: serde_json::Error,
    },
    /// The file exceeds the configured size guard; nothing was read.
    TooLarge {
        /// The offending file.
        path: PathBuf,
        /// Its actual size in bytes.
        len: u64,
        /// The configured ceiling.
        limit: u64,
    },
}

impl PersistError {
    fn io(path: &Path) -> impl FnOnce(io::Error) -> PersistError + '_ {
        move |source| PersistError::Io {
            path: Some(path.to_path_buf()),
            source,
        }
    }
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let at = |path: &Option<PathBuf>| match path {
            Some(p) => format!(" ({})", p.display()),
            None => String::new(),
        };
        match self {
            PersistError::Io { path, source } => write!(f, "io error{}: {source}", at(path)),
            PersistError::Encode(e) => write!(f, "encode error: {e}"),
            PersistError::Decode { path, source } => {
                write!(f, "decode error{}: {source}", at(path))
            }
            PersistError::TooLarge { path, len, limit } => write!(
                f,
                "refusing to load {}: {len} bytes exceeds the {limit}-byte limit",
                path.display()
            ),
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialize the set (content + log + checkpoints) to pretty JSON.
pub fn to_json(ks: &KnowledgeSet) -> Result<String, PersistError> {
    serde_json::to_string_pretty(ks).map_err(PersistError::Encode)
}

/// Restore a set from JSON produced by [`to_json`].
pub fn from_json(json: &str) -> Result<KnowledgeSet, PersistError> {
    serde_json::from_str(json).map_err(|source| PersistError::Decode { path: None, source })
}

/// Monotonic discriminator so concurrent saves in one process never share
/// a temp file.
static SAVE_SEQ: AtomicU64 = AtomicU64::new(0);

/// Write the set to a file atomically: serialize into a sibling temp file,
/// fsync it, then rename over the target. The temp name carries the
/// process id and an in-process sequence number, so concurrent saves —
/// across threads or processes — each write their own temp file and the
/// final rename is the only point of contention (last rename wins, and
/// every intermediate state on disk is a complete snapshot). The fsync
/// before the rename keeps a crash from leaving a renamed-but-empty file
/// on filesystems that reorder data and metadata writes.
pub fn save(ks: &KnowledgeSet, path: impl AsRef<Path>) -> Result<(), PersistError> {
    let path = path.as_ref();
    let json = to_json(ks)?;
    let tmp = path.with_extension(format!(
        "json.tmp.{}.{}",
        std::process::id(),
        SAVE_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let write_and_sync = || -> io::Result<()> {
        let mut file = fs::File::create(&tmp)?;
        file.write_all(json.as_bytes())?;
        file.sync_all()?;
        fs::rename(&tmp, path)
    };
    write_and_sync().map_err(|err| {
        // Best effort: never leave an orphaned temp file behind.
        let _ = fs::remove_file(&tmp);
        PersistError::Io {
            path: Some(path.to_path_buf()),
            source: err,
        }
    })
}

/// Load a set from a file written by [`save`], refusing files larger than
/// [`DEFAULT_MAX_BYTES`].
pub fn load(path: impl AsRef<Path>) -> Result<KnowledgeSet, PersistError> {
    load_with_limit(path, DEFAULT_MAX_BYTES)
}

/// [`load`] with an explicit size guard: the file's length is checked
/// *before* any bytes are read, so a corrupt or mis-pointed path can
/// never trigger an oversized allocation.
pub fn load_with_limit(
    path: impl AsRef<Path>,
    max_bytes: u64,
) -> Result<KnowledgeSet, PersistError> {
    let path = path.as_ref();
    let len = fs::metadata(path).map_err(PersistError::io(path))?.len();
    if len > max_bytes {
        return Err(PersistError::TooLarge {
            path: path.to_path_buf(),
            len,
            limit: max_bytes,
        });
    }
    let json = fs::read_to_string(path).map_err(PersistError::io(path))?;
    from_json(&json).map_err(|e| match e {
        PersistError::Decode { source, .. } => PersistError::Decode {
            path: Some(path.to_path_buf()),
            source,
        },
        other => other,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::Edit;
    use crate::types::{FragmentKind, Intent, SourceRef, SqlFragment};

    fn sample() -> KnowledgeSet {
        let mut ks = KnowledgeSet::new();
        ks.apply(Edit::AddIntent(Intent::new("fin", "Financial", "money")))
            .unwrap();
        ks.apply(Edit::InsertExample {
            intent: Some("fin".into()),
            description: "revenue per viewer".into(),
            fragment: SqlFragment::new(
                FragmentKind::TermDefinition,
                "CAST(R AS FLOAT) / NULLIF(V, 0)",
                "main",
            ),
            term: Some("RPV".into()),
            source: SourceRef::Document {
                doc_id: 1,
                section: "terms".into(),
            },
        })
        .unwrap();
        ks.checkpoint("first");
        ks.apply(Edit::InsertInstruction {
            intent: None,
            text: "use conditional aggregation across periods".into(),
            sql_hint: None,
            term: None,
            source: SourceRef::Manual,
        })
        .unwrap();
        ks
    }

    /// `serde_json::to_string(&sample())` as written before the set's
    /// private state type and `KnowledgeContent` became one struct.
    const SNAPSHOT_BEFORE_THE_MERGE: &str = r#"{"state":{"intents":[{"key":"fin","name":"Financial","description":"money"}],"examples":[{"id":0,"intent":"fin","description":"revenue per viewer","fragment":{"kind":"TermDefinition","sql":"CAST(R AS FLOAT) / NULLIF(V, 0)","scope":"main"},"term":"RPV","provenance":{"source":{"Document":{"doc_id":1,"section":"terms"}},"tick":1}}],"instructions":[{"id":0,"intent":null,"text":"use conditional aggregation across periods","sql_hint":null,"term":null,"provenance":{"source":"Manual","tick":2}}],"schema_elements":[],"retrieval_hints":[],"next_example_id":1,"next_instruction_id":1,"tick":3},"log":[{"seq":0,"tick":0,"edit":{"AddIntent":{"key":"fin","name":"Financial","description":"money"}},"outcome":"Applied"},{"seq":1,"tick":1,"edit":{"InsertExample":{"intent":"fin","description":"revenue per viewer","fragment":{"kind":"TermDefinition","sql":"CAST(R AS FLOAT) / NULLIF(V, 0)","scope":"main"},"term":"RPV","source":{"Document":{"doc_id":1,"section":"terms"}}}},"outcome":{"InsertedExample":0}},{"seq":2,"tick":2,"edit":{"InsertInstruction":{"intent":null,"text":"use conditional aggregation across periods","sql_hint":null,"term":null,"source":"Manual"}},"outcome":{"InsertedInstruction":0}}],"checkpoints":[[{"id":0,"label":"first","log_len":2},{"intents":[{"key":"fin","name":"Financial","description":"money"}],"examples":[{"id":0,"intent":"fin","description":"revenue per viewer","fragment":{"kind":"TermDefinition","sql":"CAST(R AS FLOAT) / NULLIF(V, 0)","scope":"main"},"term":"RPV","provenance":{"source":{"Document":{"doc_id":1,"section":"terms"}},"tick":1}}],"instructions":[],"schema_elements":[],"retrieval_hints":[],"next_example_id":1,"next_instruction_id":0,"tick":2}]]}"#;

    #[test]
    fn snapshots_encode_as_they_did_before_the_state_type_merged() {
        assert_eq!(
            serde_json::to_string(&sample()).unwrap(),
            SNAPSHOT_BEFORE_THE_MERGE
        );
        let decoded = from_json(SNAPSHOT_BEFORE_THE_MERGE).unwrap();
        assert_eq!(
            serde_json::to_string(&decoded).unwrap(),
            SNAPSHOT_BEFORE_THE_MERGE
        );
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let ks = sample();
        let restored = from_json(&to_json(&ks).unwrap()).unwrap();
        assert!(ks.content_eq(&restored));
        assert_eq!(ks.log().len(), restored.log().len());
        assert_eq!(ks.checkpoints().len(), restored.checkpoints().len());
        // The restored set stays fully functional: revert still works.
        let mut restored = restored;
        restored.revert_to(0).unwrap();
        assert_eq!(restored.instructions().len(), 0);
        assert_eq!(restored.examples().len(), 1);
    }

    #[test]
    fn file_round_trip() {
        let dir = std::env::temp_dir().join("genedit-persist-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ks.json");
        let ks = sample();
        save(&ks, &path).unwrap();
        let restored = load(&path).unwrap();
        assert!(ks.content_eq(&restored));
        std::fs::remove_file(&path).ok();
    }

    /// Hammer one target path from many threads: every interleaving must
    /// leave a complete, loadable snapshot (atomic rename, unique temp
    /// files), and no temp files may survive.
    #[test]
    fn concurrent_saves_never_tear() {
        let dir = std::env::temp_dir().join("genedit-persist-concurrent");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("ks.json");
        let ks = sample();
        std::thread::scope(|scope| {
            for _ in 0..8 {
                scope.spawn(|| {
                    for _ in 0..20 {
                        save(&ks, &path).unwrap();
                        let restored = load(&path).unwrap();
                        assert!(ks.content_eq(&restored), "torn snapshot observed");
                    }
                });
            }
        });
        let leftovers: Vec<_> = std::fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .map(|e| e.file_name().to_string_lossy().into_owned())
            .filter(|name| name.contains(".tmp"))
            .collect();
        assert!(leftovers.is_empty(), "orphaned temp files: {leftovers:?}");
        std::fs::remove_file(&path).ok();
        std::fs::remove_dir(&dir).ok();
    }

    #[test]
    fn decode_errors_are_reported() {
        assert!(matches!(
            from_json("not json"),
            Err(PersistError::Decode { path: None, .. })
        ));
        assert!(matches!(
            load("/nonexistent/genedit.json"),
            Err(PersistError::Io { path: Some(_), .. })
        ));
    }

    #[test]
    fn errors_carry_the_offending_path() {
        let dir = std::env::temp_dir().join("genedit-persist-paths");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("corrupt.json");
        std::fs::write(&path, "{ not a knowledge set").unwrap();
        match load(&path) {
            Err(PersistError::Decode { path: Some(p), .. }) => assert_eq!(p, path),
            other => panic!("expected Decode with path, got {other:?}"),
        }
        let message = load(&path).unwrap_err().to_string();
        assert!(message.contains("corrupt.json"), "{message}");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn size_guard_refuses_before_reading() {
        let dir = std::env::temp_dir().join("genedit-persist-guard");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("big.json");
        let ks = sample();
        save(&ks, &path).unwrap();
        let actual = std::fs::metadata(&path).unwrap().len();
        match load_with_limit(&path, actual - 1) {
            Err(PersistError::TooLarge { len, limit, .. }) => {
                assert_eq!(len, actual);
                assert_eq!(limit, actual - 1);
            }
            other => panic!("expected TooLarge, got {other:?}"),
        }
        // At or above the real size, the guard lets the load through.
        assert!(load_with_limit(&path, actual).is_ok());
        std::fs::remove_file(&path).ok();
    }
}
