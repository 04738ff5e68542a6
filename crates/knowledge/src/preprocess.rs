//! Pre-processing: building the knowledge set (§2.1).
//!
//! Inputs are (i) SQL queries from logs of prior executions and (ii)
//! documents with domain-specific terminology and practices; the output is
//! the materialized knowledge view of decomposed examples, instructions,
//! and value-augmented schema elements, grouped by user intents.

use crate::decompose::decompose_sql;
use crate::set::{Edit, KnowledgeSet};
use crate::types::{FragmentKind, Intent, SchemaElement, SourceRef, SqlFragment};
use genedit_sql::catalog::Database;
use genedit_sql::error::{EngineError, EngineResult};

/// One historical query from the execution logs.
#[derive(Debug, Clone)]
pub struct QueryLogEntry {
    /// Stable identifier of the log entry (recorded in provenance).
    pub log_id: u64,
    /// The natural-language question the query answered, when known.
    pub question: String,
    /// The executed SQL text.
    pub sql: String,
    /// Intent the query was mined under, when known.
    pub intent: Option<String>,
}

/// A domain term definition extracted from documents (e.g. QoQFP, RPV).
#[derive(Debug, Clone)]
pub struct TermDefinition {
    /// The term itself (e.g. `RPV`).
    pub term: String,
    /// Natural-language meaning.
    pub meaning: String,
    /// The SQL sub-expression computing the term, when it has one.
    pub sql: Option<String>,
    /// Intent the term belongs to, when known.
    pub intent: Option<String>,
}

/// A free-form guideline from documents ("Apply a -1 multiplier when …").
#[derive(Debug, Clone)]
pub struct Guideline {
    /// The guidance text.
    pub text: String,
    /// Expected SQL sub-expression illustrating the guideline.
    pub sql_hint: Option<String>,
    /// Intent the guideline belongs to, when known.
    pub intent: Option<String>,
    /// Document section the guideline was extracted from.
    pub section: String,
}

/// A document of domain-specific terminology and practices.
#[derive(Debug, Clone)]
pub struct DomainDocument {
    /// Stable identifier of the document (recorded in provenance).
    pub doc_id: u64,
    /// Document title.
    pub title: String,
    /// Term definitions the document contains.
    pub terms: Vec<TermDefinition>,
    /// Free-form guidelines the document contains.
    pub guidelines: Vec<Guideline>,
}

impl DomainDocument {
    /// What a document contributes to the knowledge set, as edits in
    /// ingestion order — the one document → edits rule, shared by
    /// pre-processing and [`crate::refresh::refresh_document`]. Each term
    /// becomes a "means" instruction and, when it has SQL, a
    /// term-definition example; each guideline becomes an instruction.
    /// Every edit's provenance points back at the document.
    pub fn edits(&self) -> Vec<Edit> {
        let from_section = |section: &str| SourceRef::Document {
            doc_id: self.doc_id,
            section: section.into(),
        };
        let mut edits = Vec::new();
        for term in &self.terms {
            edits.push(Edit::InsertInstruction {
                intent: term.intent.clone(),
                text: format!("{} means: {}", term.term, term.meaning),
                sql_hint: term.sql.clone(),
                term: Some(term.term.clone()),
                source: from_section("terms"),
            });
            if let Some(sql) = &term.sql {
                edits.push(Edit::InsertExample {
                    intent: term.intent.clone(),
                    description: format!("{} ({})", term.term, term.meaning),
                    fragment: SqlFragment::new(FragmentKind::TermDefinition, sql.clone(), "main"),
                    term: Some(term.term.clone()),
                    source: from_section("terms"),
                });
            }
        }
        for g in &self.guidelines {
            edits.push(Edit::InsertInstruction {
                intent: g.intent.clone(),
                text: g.text.clone(),
                sql_hint: g.sql_hint.clone(),
                term: None,
                source: from_section(&g.section),
            });
        }
        edits
    }
}

/// Configuration of the pre-processing run.
#[derive(Debug, Clone, Default)]
pub struct PreprocessConfig {
    /// Intents mined and verified by SMEs.
    pub intents: Vec<Intent>,
    /// `(intent_key, table_name)` associations for schema grouping.
    pub intent_tables: Vec<(String, String)>,
    /// How many frequent values to attach per column (the paper uses 5).
    pub top_k_values: usize,
    /// When false, logged queries are stored as traditional full-query
    /// examples instead of being decomposed — the "w/o Decomposition"
    /// ablation of Table 2.
    pub decompose_examples: bool,
}

impl PreprocessConfig {
    /// Paper defaults: top-5 values, decomposition on.
    pub fn new(intents: Vec<Intent>) -> PreprocessConfig {
        PreprocessConfig {
            intents,
            intent_tables: Vec::new(),
            top_k_values: 5,
            decompose_examples: true,
        }
    }
}

/// Surface a rejected pre-processing edit (a duplicate intent from the
/// config, say) as a regular engine error instead of a panic.
fn applied<T>(result: Result<T, crate::set::KnowledgeError>) -> EngineResult<()> {
    result
        .map(|_| ())
        .map_err(|e| EngineError::execution(format!("pre-processing edit rejected: {e}")))
}

/// Build a knowledge set from logs, documents, and the database schema.
///
/// Everything goes through [`KnowledgeSet::apply`], so the resulting set
/// carries full provenance and a replayable log.
pub fn build_knowledge_set(
    config: &PreprocessConfig,
    logs: &[QueryLogEntry],
    docs: &[DomainDocument],
    db: &Database,
) -> EngineResult<KnowledgeSet> {
    // Trace into a throwaway tracer; callers that want the spans use
    // [`build_knowledge_set_traced`].
    let tracer = genedit_telemetry::Tracer::new("preprocess");
    build_knowledge_set_traced(config, logs, docs, db, &tracer)
}

/// [`build_knowledge_set`] with pre-processing phases recorded as spans
/// (`knowledge.preprocess` → examples / instructions / schema children)
/// into the caller's tracer.
pub fn build_knowledge_set_traced(
    config: &PreprocessConfig,
    logs: &[QueryLogEntry],
    docs: &[DomainDocument],
    db: &Database,
    tracer: &genedit_telemetry::Tracer,
) -> EngineResult<KnowledgeSet> {
    let root = tracer.span(genedit_telemetry::names::PREPROCESS);
    root.attr("logs", logs.len())
        .attr("docs", docs.len())
        .attr("decompose", config.decompose_examples);
    let mut ks = KnowledgeSet::new();

    for intent in &config.intents {
        applied(ks.apply(Edit::AddIntent(intent.clone())))?;
    }

    // Examples: decompose every logged query into clause fragments, or —
    // for the w/o-Decomposition ablation — keep whole queries.
    let span = tracer.span("knowledge.examples");
    for entry in logs {
        if config.decompose_examples {
            let fragments = decompose_sql(&entry.sql)?;
            for fragment in fragments {
                let description = describe_fragment(&fragment, &entry.question);
                applied(ks.apply(Edit::InsertExample {
                    intent: entry.intent.clone(),
                    description,
                    fragment,
                    term: None,
                    source: SourceRef::QueryLog {
                        log_id: entry.log_id,
                    },
                }))?;
            }
        } else {
            // Validate even when not decomposing: malformed logs should
            // fail loudly either way.
            genedit_sql::parser::parse_statement(&entry.sql)?;
            applied(ks.apply(Edit::InsertExample {
                intent: entry.intent.clone(),
                description: entry.question.clone(),
                fragment: SqlFragment::new(FragmentKind::FullQuery, entry.sql.clone(), "main"),
                term: None,
                source: SourceRef::QueryLog {
                    log_id: entry.log_id,
                },
            }))?;
        }
    }
    span.attr("examples", ks.examples().len());
    span.finish();

    // Instructions and term-definition examples from documents.
    let span = tracer.span("knowledge.instructions");
    for doc in docs {
        for edit in doc.edits() {
            applied(ks.apply(edit))?;
        }
    }

    span.attr("instructions", ks.instructions().len());
    span.finish();

    // Schema elements with top-k frequent values (§2.1).
    let span = tracer.span("knowledge.schema");
    let k = if config.top_k_values == 0 {
        5
    } else {
        config.top_k_values
    };
    for table in db.tables() {
        let table_intents: Vec<String> = config
            .intent_tables
            .iter()
            .filter(|(_, t)| t.eq_ignore_ascii_case(&table.name))
            .map(|(i, _)| i.clone())
            .collect();
        applied(ks.apply(Edit::AddSchemaElement(SchemaElement {
            table: table.name.clone(),
            column: None,
            description: table.description.clone().unwrap_or_default(),
            top_values: Vec::new(),
            intents: table_intents.clone(),
        })))?;
        for col in &table.columns {
            let profile = table.top_values(&col.name, k)?;
            applied(ks.apply(Edit::AddSchemaElement(SchemaElement {
                table: table.name.clone(),
                column: Some(col.name.clone()),
                description: col.description.clone().unwrap_or_default(),
                top_values: profile.top_values.into_iter().map(|(v, _)| v).collect(),
                intents: table_intents.clone(),
            })))?;
        }
    }
    span.attr("schema_elements", ks.schema_elements().len());
    span.finish();

    root.finish();
    Ok(ks)
}

/// Derive a natural-language description for a decomposed fragment.
/// Deterministic and template-based; in production this is an LLM call,
/// but the retrieval substrate only needs the description to carry the
/// fragment's salient terms.
pub fn describe_fragment(fragment: &SqlFragment, question: &str) -> String {
    let clause = match fragment.kind {
        FragmentKind::CteDefinition => "Define intermediate result",
        FragmentKind::Projection => "Select columns",
        FragmentKind::From => "Read from",
        FragmentKind::Where => "Filter rows where",
        FragmentKind::GroupBy => "Group results by",
        FragmentKind::Having => "Keep groups where",
        FragmentKind::OrderBy => "Order results by",
        FragmentKind::Limit => "Limit result size",
        FragmentKind::Window => "Rank or number rows with",
        FragmentKind::TermDefinition => "Compute term as",
        FragmentKind::FullQuery => "Answer with the full query",
    };
    let body = strip_keyword(&fragment.sql);
    if question.is_empty() {
        format!("{clause} {body} (in {})", fragment.scope)
    } else {
        format!("{clause} {body} (for: {question})")
    }
}

fn strip_keyword(sql: &str) -> &str {
    let upper = sql.to_ascii_uppercase();
    for kw in [
        "SELECT DISTINCT",
        "SELECT",
        "FROM",
        "WHERE",
        "GROUP BY",
        "HAVING",
        "ORDER BY",
    ] {
        if upper.starts_with(kw) {
            return sql[kw.len()..].trim_start();
        }
    }
    sql
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_sql::catalog::{Column, Table};
    use genedit_sql::value::{DataType, Value};

    fn db() -> Database {
        let mut db = Database::new("d");
        let mut t = Table::new(
            "SPORTS_FINANCIALS",
            vec![
                Column::new("ORG_NAME", DataType::Text),
                Column::new("COUNTRY", DataType::Text),
                Column::new("REVENUE", DataType::Integer),
            ],
        );
        for (o, c, r) in [("a", "Canada", 1), ("b", "Canada", 2), ("c", "USA", 3)] {
            t.push_row(vec![o.into(), c.into(), Value::Integer(r)])
                .unwrap();
        }
        db.add_table(t).unwrap();
        db
    }

    fn config() -> PreprocessConfig {
        let mut c = PreprocessConfig::new(vec![Intent::new(
            "financial_performance",
            "Financial performance",
            "Revenue and profitability questions",
        )]);
        c.intent_tables = vec![("financial_performance".into(), "SPORTS_FINANCIALS".into())];
        c
    }

    fn logs() -> Vec<QueryLogEntry> {
        vec![QueryLogEntry {
            log_id: 1,
            question: "total revenue by organization in Canada".into(),
            sql: "SELECT ORG_NAME, SUM(REVENUE) AS R FROM SPORTS_FINANCIALS \
                  WHERE COUNTRY = 'Canada' GROUP BY ORG_NAME"
                .into(),
            intent: Some("financial_performance".into()),
        }]
    }

    fn docs() -> Vec<DomainDocument> {
        vec![DomainDocument {
            doc_id: 7,
            title: "Financial definitions".into(),
            terms: vec![TermDefinition {
                term: "RPV".into(),
                meaning: "revenue per viewer".into(),
                sql: Some("CAST(REVENUE AS FLOAT) / NULLIF(VIEWS, 0)".into()),
                intent: Some("financial_performance".into()),
            }],
            guidelines: vec![Guideline {
                text: "Apply a -1 multiplier when calculating the change in performance metrics"
                    .into(),
                sql_hint: Some("-1 * (m2 - m1)".into()),
                intent: Some("financial_performance".into()),
                section: "metrics".into(),
            }],
        }]
    }

    #[test]
    fn builds_all_components() {
        let ks = build_knowledge_set(&config(), &logs(), &docs(), &db()).unwrap();
        let stats = ks.stats();
        assert_eq!(stats.intents, 1);
        // 4 fragments from the log query + 1 term-definition example.
        assert_eq!(stats.examples, 5);
        // 1 term instruction + 1 guideline.
        assert_eq!(stats.instructions, 2);
        // 1 table + 3 columns.
        assert_eq!(stats.schema_elements, 4);
    }

    #[test]
    fn traced_build_records_phase_spans() {
        let tracer = genedit_telemetry::Tracer::new("pp");
        let ks = build_knowledge_set_traced(&config(), &logs(), &docs(), &db(), &tracer).unwrap();
        let trace = tracer.finish();
        let root = trace.find(genedit_telemetry::names::PREPROCESS).unwrap();
        let phases: Vec<&str> = root.children.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            phases,
            vec![
                "knowledge.examples",
                "knowledge.instructions",
                "knowledge.schema"
            ]
        );
        assert_eq!(
            trace.find("knowledge.examples").unwrap().attr("examples"),
            Some(&genedit_telemetry::AttrValue::UInt(4))
        );
        assert_eq!(
            trace
                .find("knowledge.schema")
                .unwrap()
                .attr("schema_elements"),
            Some(&genedit_telemetry::AttrValue::UInt(
                ks.schema_elements().len() as u64
            ))
        );
    }

    #[test]
    fn schema_elements_have_top_values_and_intents() {
        let ks = build_knowledge_set(&config(), &logs(), &docs(), &db()).unwrap();
        let country = ks
            .schema_elements()
            .iter()
            .find(|s| s.key() == "SPORTS_FINANCIALS.COUNTRY")
            .unwrap();
        assert_eq!(country.top_values[0], "Canada");
        assert_eq!(country.intents, vec!["financial_performance"]);
    }

    #[test]
    fn provenance_points_to_sources() {
        let ks = build_knowledge_set(&config(), &logs(), &docs(), &db()).unwrap();
        assert!(ks
            .examples()
            .iter()
            .any(|e| e.provenance.source == SourceRef::QueryLog { log_id: 1 }));
        assert!(ks
            .instructions()
            .iter()
            .all(|i| matches!(i.provenance.source, SourceRef::Document { doc_id: 7, .. })));
    }

    #[test]
    fn term_definitions_become_examples_and_instructions() {
        let ks = build_knowledge_set(&config(), &logs(), &docs(), &db()).unwrap();
        let rpv_example = ks
            .examples()
            .iter()
            .find(|e| e.term.as_deref() == Some("RPV"));
        assert!(rpv_example.is_some());
        assert_eq!(
            rpv_example.unwrap().fragment.kind,
            FragmentKind::TermDefinition
        );
        assert!(ks
            .instructions()
            .iter()
            .any(|i| i.term.as_deref() == Some("RPV") && i.text.contains("revenue per viewer")));
    }

    #[test]
    fn fragment_descriptions_carry_question_context() {
        let frag = SqlFragment::new(FragmentKind::Where, "WHERE COUNTRY = 'Canada'", "main");
        let d = describe_fragment(&frag, "revenue in Canada");
        assert!(d.contains("Filter rows where"));
        assert!(d.contains("COUNTRY = 'Canada'"));
        assert!(d.contains("revenue in Canada"));
    }

    #[test]
    fn invalid_log_sql_surfaces_error() {
        let bad_logs = vec![QueryLogEntry {
            log_id: 2,
            question: "broken".into(),
            sql: "SELEC oops".into(),
            intent: None,
        }];
        assert!(build_knowledge_set(&config(), &bad_logs, &[], &db()).is_err());
    }
}
