//! Knowledge-set persistence: the JSON codec of a snapshot.
//!
//! The paper's knowledge set is a *materialized view* maintained across
//! deployments; this module serializes the whole set — content, audit log,
//! and checkpoints — to JSON so a deployment can be snapshotted, shipped,
//! and restored bit-for-bit. A checkpoint is stored as its info, a
//! position in the log: reverting replays the log up to it, so the
//! snapshot holds one copy of the history. Snapshots written while each
//! checkpoint carried a copy of the content still load; the copies are
//! dropped. Files are written and read only by the
//! durable store: [`DurableKnowledgeStore::compact`] writes a snapshot
//! atomically, and [`recover`] reads it back behind a size guard.
//!
//! [`DurableKnowledgeStore::compact`]: crate::store::DurableKnowledgeStore::compact
//! [`recover`]: crate::recovery::recover

use crate::set::KnowledgeSet;
use std::fmt;

/// Snapshots above this size are quarantined by recovery instead of
/// read. Large enough for any realistic knowledge set, small enough that
/// a corrupted or mis-pointed file can't trigger a giant read.
pub const DEFAULT_MAX_BYTES: u64 = 64 * 1024 * 1024;

/// Snapshot codec errors.
#[derive(Debug)]
pub enum PersistError {
    /// The set failed to serialize.
    Encode(serde_json::Error),
    /// The snapshot failed to parse.
    Decode(serde_json::Error),
}

impl fmt::Display for PersistError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PersistError::Encode(e) => write!(f, "encode error: {e}"),
            PersistError::Decode(e) => write!(f, "decode error: {e}"),
        }
    }
}

impl std::error::Error for PersistError {}

/// Serialize the set (content + log + checkpoint infos) to pretty JSON.
pub fn to_json(ks: &KnowledgeSet) -> Result<String, PersistError> {
    serde_json::to_string_pretty(ks).map_err(PersistError::Encode)
}

/// Restore a set from JSON produced by [`to_json`].
pub fn from_json(json: &str) -> Result<KnowledgeSet, PersistError> {
    serde_json::from_str(json).map_err(PersistError::Decode)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::set::Edit;
    use crate::types::{ExampleId, FragmentKind, Intent, SourceRef, SqlFragment};

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
    /// private state type and `KnowledgeContent` became one struct, and
    /// while every checkpoint still held a copy of the content: each is
    /// `[info, content]`.
    const SNAPSHOT_BEFORE_THE_MERGE: &str = r#"{"state":{"intents":[{"key":"fin","name":"Financial","description":"money"}],"examples":[{"id":0,"intent":"fin","description":"revenue per viewer","fragment":{"kind":"TermDefinition","sql":"CAST(R AS FLOAT) / NULLIF(V, 0)","scope":"main"},"term":"RPV","provenance":{"source":{"Document":{"doc_id":1,"section":"terms"}},"tick":1}}],"instructions":[{"id":0,"intent":null,"text":"use conditional aggregation across periods","sql_hint":null,"term":null,"provenance":{"source":"Manual","tick":2}}],"schema_elements":[],"retrieval_hints":[],"next_example_id":1,"next_instruction_id":1,"tick":3},"log":[{"seq":0,"tick":0,"edit":{"AddIntent":{"key":"fin","name":"Financial","description":"money"}},"outcome":"Applied"},{"seq":1,"tick":1,"edit":{"InsertExample":{"intent":"fin","description":"revenue per viewer","fragment":{"kind":"TermDefinition","sql":"CAST(R AS FLOAT) / NULLIF(V, 0)","scope":"main"},"term":"RPV","source":{"Document":{"doc_id":1,"section":"terms"}}}},"outcome":{"InsertedExample":0}},{"seq":2,"tick":2,"edit":{"InsertInstruction":{"intent":null,"text":"use conditional aggregation across periods","sql_hint":null,"term":null,"source":"Manual"}},"outcome":{"InsertedInstruction":0}}],"checkpoints":[[{"id":0,"label":"first","log_len":2},{"intents":[{"key":"fin","name":"Financial","description":"money"}],"examples":[{"id":0,"intent":"fin","description":"revenue per viewer","fragment":{"kind":"TermDefinition","sql":"CAST(R AS FLOAT) / NULLIF(V, 0)","scope":"main"},"term":"RPV","provenance":{"source":{"Document":{"doc_id":1,"section":"terms"}},"tick":1}}],"instructions":[],"schema_elements":[],"retrieval_hints":[],"next_example_id":1,"next_instruction_id":0,"tick":2}]]}"#;

    /// The same set as written now: a checkpoint is its info, a position
    /// in the log.
    const SNAPSHOT: &str = r#"{"state":{"intents":[{"key":"fin","name":"Financial","description":"money"}],"examples":[{"id":0,"intent":"fin","description":"revenue per viewer","fragment":{"kind":"TermDefinition","sql":"CAST(R AS FLOAT) / NULLIF(V, 0)","scope":"main"},"term":"RPV","provenance":{"source":{"Document":{"doc_id":1,"section":"terms"}},"tick":1}}],"instructions":[{"id":0,"intent":null,"text":"use conditional aggregation across periods","sql_hint":null,"term":null,"provenance":{"source":"Manual","tick":2}}],"schema_elements":[],"retrieval_hints":[],"next_example_id":1,"next_instruction_id":1,"tick":3},"log":[{"seq":0,"tick":0,"edit":{"AddIntent":{"key":"fin","name":"Financial","description":"money"}},"outcome":"Applied"},{"seq":1,"tick":1,"edit":{"InsertExample":{"intent":"fin","description":"revenue per viewer","fragment":{"kind":"TermDefinition","sql":"CAST(R AS FLOAT) / NULLIF(V, 0)","scope":"main"},"term":"RPV","source":{"Document":{"doc_id":1,"section":"terms"}}}},"outcome":{"InsertedExample":0}},{"seq":2,"tick":2,"edit":{"InsertInstruction":{"intent":null,"text":"use conditional aggregation across periods","sql_hint":null,"term":null,"source":"Manual"}},"outcome":{"InsertedInstruction":0}}],"checkpoints":[{"id":0,"label":"first","log_len":2}]}"#;

    /// The state type's merge moved no byte; checkpoints stored as log
    /// positions drop each `content` copy and nothing else. The older
    /// form still decodes to the same set, and revert still works on it.
    #[test]
    fn snapshots_encode_as_they_did_before_the_state_type_merged() {
        let want = sample();
        assert_eq!(serde_json::to_string(&want).unwrap(), SNAPSHOT);
        let mut decoded = from_json(SNAPSHOT_BEFORE_THE_MERGE).unwrap();
        assert!(decoded.content_eq(&want));
        assert_eq!(decoded.log(), want.log());
        assert_eq!(decoded.checkpoints(), want.checkpoints());
        assert_eq!(serde_json::to_string(&decoded).unwrap(), SNAPSHOT);
        decoded.revert_to(0).unwrap();
        assert_eq!(decoded.instructions().len(), 0);
        assert_eq!(decoded.examples().len(), 1);
    }

    #[test]
    fn a_set_built_from_content_keeps_its_base() {
        let mut ks = KnowledgeSet::from_content(sample().content());
        let checkpoint = ks.checkpoint("paged in");
        ks.apply(Edit::DeleteExample { id: ExampleId(0) }).unwrap();
        let mut restored = from_json(&to_json(&ks).unwrap()).unwrap();
        assert!(restored.content_eq(&ks));
        restored.revert_to(checkpoint).unwrap();
        assert!(restored.content_eq(&sample()));
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
    fn decode_errors_are_reported() {
        assert!(matches!(
            from_json("not json"),
            Err(PersistError::Decode(_))
        ));
    }
}
