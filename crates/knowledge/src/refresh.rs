//! Provenance-driven maintenance (§2.1).
//!
//! "An important aspect of maintenance is keeping track of provenance in
//! the view to update it as documents change." [`refresh_document`]
//! replaces every knowledge element whose provenance points at a changed
//! document with elements regenerated from the new version — through the
//! normal edit path, so the change is logged, auditable, and revertible
//! like any other.

use crate::preprocess::DomainDocument;
use crate::set::{Edit, KnowledgeError, KnowledgeSet};
use crate::types::SourceRef;

/// Summary of one document refresh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RefreshReport {
    /// Examples removed because their provenance pointed at the document.
    pub removed_examples: usize,
    /// Instructions removed for the same reason.
    pub removed_instructions: usize,
    /// Examples regenerated from the new document version.
    pub inserted_examples: usize,
    /// Instructions regenerated from the new document version.
    pub inserted_instructions: usize,
}

/// Replace all knowledge derived from `doc.doc_id` with the content of the
/// supplied (new) document version: the deletes of everything the old
/// version contributed, then [`DomainDocument::edits`] of the new one, as
/// one [`KnowledgeSet::merge`] — all or nothing, and revertible as a unit
/// through the returned checkpoint, which is labeled with the document id.
pub fn refresh_document(
    ks: &mut KnowledgeSet,
    doc: &DomainDocument,
) -> Result<(u64, RefreshReport), KnowledgeError> {
    let id = doc.doc_id;
    let stale = |s: &SourceRef| matches!(s, SourceRef::Document { doc_id, .. } if *doc_id == id);
    let mut edits: Vec<Edit> = ks
        .instructions()
        .iter()
        .filter(|i| stale(&i.provenance.source))
        .map(|i| Edit::DeleteInstruction { id: i.id })
        .collect();
    edits.extend(
        ks.examples()
            .iter()
            .filter(|e| stale(&e.provenance.source))
            .map(|e| Edit::DeleteExample { id: e.id }),
    );
    edits.extend(doc.edits());

    let count = |kind: fn(&Edit) -> bool| edits.iter().filter(|e| kind(e)).count();
    let report = RefreshReport {
        removed_examples: count(|e| matches!(e, Edit::DeleteExample { .. })),
        removed_instructions: count(|e| matches!(e, Edit::DeleteInstruction { .. })),
        inserted_examples: count(|e| matches!(e, Edit::InsertExample { .. })),
        inserted_instructions: count(|e| matches!(e, Edit::InsertInstruction { .. })),
    };
    let checkpoint = ks.merge(format!("refresh doc {id}"), edits)?;
    Ok((checkpoint, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::preprocess::{Guideline, TermDefinition};

    fn doc_v1() -> DomainDocument {
        DomainDocument {
            doc_id: 9,
            title: "defs v1".into(),
            terms: vec![TermDefinition {
                term: "RPV".into(),
                meaning: "revenue per viewer".into(),
                sql: Some("R / NULLIF(V, 0)".into()),
                intent: None,
            }],
            guidelines: vec![Guideline {
                text: "old guidance".into(),
                sql_hint: None,
                intent: None,
                section: "s".into(),
            }],
        }
    }

    fn doc_v2() -> DomainDocument {
        DomainDocument {
            doc_id: 9,
            title: "defs v2".into(),
            terms: vec![TermDefinition {
                term: "RPV".into(),
                // The definition changed: now net revenue.
                meaning: "net revenue per unique viewer".into(),
                sql: Some("(R - REFUNDS) / NULLIF(UV, 0)".into()),
                intent: None,
            }],
            guidelines: vec![],
        }
    }

    fn seeded() -> KnowledgeSet {
        let mut ks = KnowledgeSet::new();
        // Unrelated manual knowledge that must survive refreshes.
        ks.apply(Edit::InsertInstruction {
            intent: None,
            text: "manual note".into(),
            sql_hint: None,
            term: None,
            source: SourceRef::Manual,
        })
        .unwrap();
        let (_, r) = refresh_document(&mut ks, &doc_v1()).unwrap();
        assert_eq!(r.inserted_instructions, 2);
        assert_eq!(r.inserted_examples, 1);
        ks
    }

    #[test]
    fn refresh_replaces_only_that_documents_knowledge() {
        let mut ks = seeded();
        let before_manual = ks
            .instructions()
            .iter()
            .filter(|i| i.provenance.source == SourceRef::Manual)
            .count();
        let (_, report) = refresh_document(&mut ks, &doc_v2()).unwrap();
        assert_eq!(report.removed_instructions, 2);
        assert_eq!(report.removed_examples, 1);
        assert_eq!(report.inserted_instructions, 1); // v2 dropped the guideline
        assert_eq!(report.inserted_examples, 1);
        // The new definition is in, the old one gone.
        assert!(ks
            .instructions()
            .iter()
            .any(|i| i.text.contains("net revenue")));
        assert!(!ks
            .instructions()
            .iter()
            .any(|i| i.text.contains("old guidance")));
        assert!(ks
            .examples()
            .iter()
            .any(|e| e.fragment.sql.contains("REFUNDS")));
        // Manual knowledge untouched.
        let after_manual = ks
            .instructions()
            .iter()
            .filter(|i| i.provenance.source == SourceRef::Manual)
            .count();
        assert_eq!(before_manual, after_manual);
    }

    #[test]
    fn refresh_is_revertible_as_a_unit() {
        let mut ks = seeded();
        let snapshot = ks.clone();
        let (checkpoint, _) = refresh_document(&mut ks, &doc_v2()).unwrap();
        assert!(!ks.content_eq(&snapshot));
        ks.revert_to(checkpoint).unwrap();
        assert!(ks.content_eq(&snapshot));
    }

    #[test]
    fn refresh_of_unknown_doc_only_inserts() {
        let mut ks = KnowledgeSet::new();
        let (_, report) = refresh_document(&mut ks, &doc_v2()).unwrap();
        assert_eq!(report.removed_examples + report.removed_instructions, 0);
        assert_eq!(report.inserted_instructions, 1);
    }
}
