//! Structured prompts.
//!
//! GenEdit's operators communicate with the model through prompts whose
//! structure the paper shows in Fig. 2: retrieved examples (decomposed,
//! with pseudo-SQL), instructions, schema elements, and — for the final
//! generation call — the CoT plan. This crate keeps prompts *structured*
//! (typed sections) and renders them to text on demand; the oracle model
//! inspects the structure, real deployments would send the rendered text.

use genedit_knowledge::{FragmentKind, SchemaElement};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;
use std::fmt::{self, Write};

/// What the model is being asked to do.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum TaskKind {
    /// Operator 1: rewrite the question into the canonical form.
    Reformulate,
    /// Operator 2: classify the user intents of the question.
    IntentClassification,
    /// Operator 5: identify relevant schema elements.
    SchemaLinking,
    /// First generation call: produce the CoT plan (§3.1.2).
    PlanGeneration,
    /// Second generation call: produce SQL from the plan.
    SqlGeneration,
}

/// An example section entry: a decomposed sub-statement with NL
/// description (§3.2.1), or a full query for baselines that do not
/// decompose.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromptExample {
    /// Natural-language description of what the SQL does.
    pub description: String,
    /// The example SQL (fragment or full query).
    pub sql: String,
    /// The fragment kind for decomposed examples; `None` marks a
    /// traditional full-query example.
    pub kind: Option<FragmentKind>,
    /// The domain term this example grounds, when tied to one.
    pub term: Option<String>,
}

/// An instruction section entry (§3.2.2).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromptInstruction {
    /// The instruction text.
    pub text: String,
    /// Optional SQL fragment illustrating the instruction.
    pub sql_hint: Option<String>,
    /// The domain term this instruction grounds, when tied to one.
    pub term: Option<String>,
}

/// A schema section entry.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PromptSchemaElement {
    /// Table name.
    pub table: String,
    /// Column name; `None` describes the table itself.
    pub column: Option<String>,
    /// Catalogued description of the element.
    pub description: String,
    /// Representative values, for value-grounded linking.
    pub top_values: Vec<String>,
}

impl PromptSchemaElement {
    /// Uppercased `TABLE` or `TABLE.COLUMN` key for this element.
    pub fn key(&self) -> String {
        let mut key = String::new();
        // Writing to a `String` cannot fail.
        let _ = self.write_key(&mut key);
        key
    }

    fn write_key<W: Write>(&self, out: &mut W) -> fmt::Result {
        write_upper(out, &self.table)?;
        if let Some(c) = &self.column {
            out.write_char('.')?;
            write_upper(out, c)?;
        }
        Ok(())
    }
}

impl From<&SchemaElement> for PromptSchemaElement {
    fn from(element: &SchemaElement) -> PromptSchemaElement {
        PromptSchemaElement {
            table: element.table.clone(),
            column: element.column.clone(),
            description: element.description.clone(),
            top_values: element.top_values.clone(),
        }
    }
}

/// One step of a CoT plan: NL description plus optional pseudo-SQL, the
/// paper's `(description, "... FRAGMENT ...")` pairs.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct PlanStep {
    /// Natural-language description of the step.
    pub description: String,
    /// Pseudo-SQL without the `...` affixes; rendered with them.
    pub pseudo_sql: Option<String>,
    /// The scope (CTE name or `main`) this step contributes to.
    pub scope: String,
    /// The fragment kind this step corresponds to, when known.
    pub kind: Option<FragmentKind>,
}

/// A chain-of-thought plan (§3.1.2): an ordered list of steps, one or more
/// of which describe a CTE of the output query.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct Plan {
    /// Ordered plan steps.
    pub steps: Vec<PlanStep>,
}

impl Plan {
    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// Whether the plan has no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }

    /// Strip pseudo-SQL from every step (the "w/o Pseudo-SQL" ablation).
    pub fn without_pseudo_sql(&self) -> Plan {
        Plan {
            steps: self
                .steps
                .iter()
                .map(|s| PlanStep {
                    pseudo_sql: None,
                    ..s.clone()
                })
                .collect(),
        }
    }

    /// Render as the JSON object the paper describes: "an ordered list of
    /// steps where each element is a pair of step description in natural
    /// language and pseudo-SQL".
    pub fn to_json(&self) -> String {
        let mut out = String::new();
        // Writing to a `String` cannot fail.
        let _ = self.write_json(&mut out);
        out
    }

    fn write_json<W: Write>(&self, out: &mut W) -> fmt::Result {
        out.write_str("{\"steps\": [")?;
        for (i, s) in self.steps.iter().enumerate() {
            if i > 0 {
                out.write_str(", ")?;
            }
            write!(out, "{{\"step\": {}, \"description\": \"", i + 1)?;
            write_escaped(out, &s.description)?;
            out.write_str("\", \"pseudo_sql\": ")?;
            match &s.pseudo_sql {
                Some(p) => {
                    out.write_str("\"... ")?;
                    write_escaped(out, p)?;
                    out.write_str(" ...\"")?;
                }
                None => out.write_str("null")?,
            }
            out.write_char('}')?;
        }
        out.write_str("]}")
    }
}

/// A structured prompt.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Prompt {
    /// Which operator this prompt drives.
    pub task: TaskKind,
    /// The (possibly reformulated) natural-language question.
    pub question: String,
    /// The original question before reformulation, when different.
    pub original_question: Option<String>,
    /// Example section entries.
    pub examples: Vec<PromptExample>,
    /// Instruction section entries.
    pub instructions: Vec<PromptInstruction>,
    /// Schema section entries.
    pub schema: Vec<PromptSchemaElement>,
    /// The CoT plan, for SQL generation from a plan.
    pub plan: Option<Plan>,
    /// BIRD-style evidence strings attached to the task, used by baselines.
    pub evidence: Vec<String>,
    /// Errors from prior generation attempts (self-correction context).
    pub errors: Vec<String>,
    /// Retrieval hints / extra guidance.
    pub hints: Vec<String>,
    /// Candidate intent keys for intent classification.
    pub intent_candidates: Vec<String>,
    /// How much internal decomposition/selection/revision compute the
    /// *method* spends beyond a single forward pass (1.0 = plain
    /// prompting). Agentic systems like CHESS and MAC-SQL run sampling and
    /// revision loops that effectively raise the complexity they can
    /// handle; the oracle scales its capacity model by this factor.
    pub reasoning_effort: f64,
}

impl Prompt {
    /// A bare prompt for `task` with every section empty.
    pub fn new(task: TaskKind, question: impl Into<String>) -> Prompt {
        Prompt {
            task,
            question: question.into(),
            original_question: None,
            examples: Vec::new(),
            instructions: Vec::new(),
            schema: Vec::new(),
            plan: None,
            evidence: Vec::new(),
            errors: Vec::new(),
            hints: Vec::new(),
            intent_candidates: Vec::new(),
            reasoning_effort: 1.0,
        }
    }

    /// Number of retry attempts already made (used by the oracle to vary
    /// retry outcomes deterministically).
    pub fn attempt(&self) -> usize {
        self.errors.len()
    }

    /// All domain terms covered by this prompt's knowledge sections —
    /// instructions, examples, and evidence. A term requirement is "met"
    /// when the term appears here (the oracle's causal contract).
    ///
    /// Instructions and evidence cover terms by *mentioning* them — they
    /// are explanatory prose. Examples cover a term only through their
    /// explicit `term` tag: a decomposed fragment that happens to contain
    /// `OWNERSHIP_FLAG = 'COC'` shows a past filter but does not explain
    /// that "our" maps to it, which is precisely why the paper's
    /// instructions ablation bites hardest (Table 2).
    pub fn covered_terms(&self) -> BTreeSet<String> {
        let mut terms = BTreeSet::new();
        for i in &self.instructions {
            if let Some(t) = &i.term {
                terms.insert(t.to_uppercase());
            }
            collect_upper_tokens(&i.text, &mut terms);
        }
        for e in &self.examples {
            if let Some(t) = &e.term {
                terms.insert(t.to_uppercase());
            }
        }
        for ev in &self.evidence {
            collect_upper_tokens(ev, &mut terms);
        }
        terms
    }

    /// Tables present in the schema section, uppercased.
    pub fn schema_tables(&self) -> BTreeSet<String> {
        self.schema.iter().map(|s| s.table.to_uppercase()).collect()
    }

    /// Fully-qualified columns present in the schema section.
    pub fn schema_columns(&self) -> BTreeSet<String> {
        self.schema
            .iter()
            .filter(|s| s.column.is_some())
            .map(|s| s.key())
            .collect()
    }

    /// Fragment kinds covered by decomposed examples, plus whether any
    /// full-query (non-decomposed) examples are present.
    pub fn example_support(&self) -> (BTreeSet<FragmentKind>, bool) {
        let mut kinds = BTreeSet::new();
        let mut full_query = false;
        for e in &self.examples {
            match e.kind {
                Some(k) => {
                    kinds.insert(k);
                }
                None => full_query = true,
            }
        }
        (kinds, full_query)
    }

    /// Render to text, Fig. 2 style. Used by the examples/demo binaries;
    /// size accounting uses [`Prompt::rendered_len`].
    pub fn render(&self) -> String {
        let mut out = String::new();
        // Writing to a `String` cannot fail.
        let _ = self.write_to(&mut out);
        out
    }

    /// `render().len()` — the prompt's size in bytes — without building
    /// the string.
    pub fn rendered_len(&self) -> usize {
        let mut count = ByteCount(0);
        // Counting cannot fail.
        let _ = self.write_to(&mut count);
        count.0
    }

    /// The one renderer behind [`Prompt::render`] and
    /// [`Prompt::rendered_len`].
    fn write_to<W: Write>(&self, out: &mut W) -> fmt::Result {
        let task = match self.task {
            TaskKind::Reformulate => "Reformulate the question into canonical form.",
            TaskKind::IntentClassification => "Classify the user intents of the question.",
            TaskKind::SchemaLinking => "Identify the schema elements relevant to the question.",
            TaskKind::PlanGeneration => {
                "Produce a step-by-step plan for writing the SQL query. Each step \
                 is a natural-language description with pseudo-SQL."
            }
            TaskKind::SqlGeneration => {
                "Write the SQL query following the plan and the provided knowledge."
            }
        };
        writeln!(out, "## Task\n{task}\n")?;
        writeln!(out, "## Question\n{}\n", self.question)?;
        if !self.intent_candidates.is_empty() {
            out.write_str("## Candidate intents\n")?;
            write_joined(out, &self.intent_candidates)?;
            out.write_str("\n\n")?;
        }
        if !self.schema.is_empty() {
            out.write_str("## Schema\n")?;
            for s in &self.schema {
                s.write_key(out)?;
                if !s.description.is_empty() {
                    write!(out, " -- {}", s.description)?;
                }
                if !s.top_values.is_empty() {
                    out.write_str(" [top: ")?;
                    write_joined(out, &s.top_values)?;
                    out.write_char(']')?;
                }
                out.write_char('\n')?;
            }
            out.write_char('\n')?;
        }
        if !self.examples.is_empty() {
            out.write_str("## Examples\n")?;
            for e in &self.examples {
                out.write_str("-- ")?;
                if let Some(t) = &e.term {
                    write!(out, "[{t}] ")?;
                }
                writeln!(out, "{}", e.description)?;
                match e.kind {
                    Some(_) => writeln!(out, "... {} ...", e.sql)?,
                    None => writeln!(out, "{}", e.sql)?,
                }
            }
            out.write_char('\n')?;
        }
        if !self.instructions.is_empty() {
            out.write_str("## Instructions\n")?;
            for i in &self.instructions {
                match &i.sql_hint {
                    Some(h) => writeln!(out, "- {} (e.g. `{h}`)", i.text)?,
                    None => writeln!(out, "- {}", i.text)?,
                }
            }
            out.write_char('\n')?;
        }
        if !self.evidence.is_empty() {
            out.write_str("## Evidence\n")?;
            for e in &self.evidence {
                writeln!(out, "- {e}")?;
            }
            out.write_char('\n')?;
        }
        if let Some(plan) = &self.plan {
            out.write_str("## Plan\n")?;
            plan.write_json(out)?;
            out.write_str("\n\n")?;
        }
        if !self.errors.is_empty() {
            out.write_str("## Errors from previous attempt\n")?;
            for e in &self.errors {
                writeln!(out, "- {e}")?;
            }
            out.write_char('\n')?;
        }
        if !self.hints.is_empty() {
            out.write_str("## Hints\n")?;
            for h in &self.hints {
                writeln!(out, "- {h}")?;
            }
            out.write_char('\n')?;
        }
        Ok(())
    }
}

/// A `fmt::Write` sink that only counts the bytes written to it.
struct ByteCount(usize);

impl Write for ByteCount {
    fn write_str(&mut self, s: &str) -> fmt::Result {
        self.0 += s.len();
        Ok(())
    }

    fn write_char(&mut self, c: char) -> fmt::Result {
        self.0 += c.len_utf8();
        Ok(())
    }
}

/// `text.to_uppercase()`, written char by char.
fn write_upper<W: Write>(out: &mut W, text: &str) -> fmt::Result {
    text.chars()
        .flat_map(char::to_uppercase)
        .try_for_each(|c| out.write_char(c))
}

/// `items.join(", ")`, written in place.
fn write_joined<W: Write>(out: &mut W, items: &[String]) -> fmt::Result {
    for (i, item) in items.iter().enumerate() {
        if i > 0 {
            out.write_str(", ")?;
        }
        out.write_str(item)?;
    }
    Ok(())
}

/// `text.replace('"', "\\\"")`, written in place.
fn write_escaped<W: Write>(out: &mut W, text: &str) -> fmt::Result {
    for (i, part) in text.split('"').enumerate() {
        if i > 0 {
            out.write_str("\\\"")?;
        }
        out.write_str(part)?;
    }
    Ok(())
}

/// Pull upper-case acronym-like tokens (length ≥ 2) out of free text, so a
/// term mentioned inline ("QoQFP is computed as…") counts as covered.
fn collect_upper_tokens(text: &str, out: &mut BTreeSet<String>) {
    for token in text.split(|c: char| !c.is_alphanumeric()) {
        if token.len() >= 2 && token.chars().any(|c| c.is_ascii_uppercase()) {
            out.insert(token.to_uppercase());
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn covered_terms_from_all_sections() {
        let mut p = Prompt::new(TaskKind::SqlGeneration, "q");
        p.instructions.push(PromptInstruction {
            text: "QoQFP means quarter over quarter financial performance".into(),
            sql_hint: None,
            term: Some("QoQFP".into()),
        });
        p.examples.push(PromptExample {
            description: "RPV calculation".into(),
            sql: "X".into(),
            kind: Some(FragmentKind::TermDefinition),
            term: Some("RPV".into()),
        });
        p.evidence.push("COC marks our own organizations".into());
        let terms = p.covered_terms();
        assert!(terms.contains("QOQFP"));
        assert!(terms.contains("RPV"));
        assert!(terms.contains("COC"));
        assert!(!terms.contains("ZZZ"));
    }

    #[test]
    fn schema_sets() {
        let mut p = Prompt::new(TaskKind::SqlGeneration, "q");
        p.schema.push(PromptSchemaElement {
            table: "sports_financials".into(),
            column: None,
            description: String::new(),
            top_values: vec![],
        });
        p.schema.push(PromptSchemaElement {
            table: "sports_financials".into(),
            column: Some("country".into()),
            description: String::new(),
            top_values: vec![],
        });
        assert!(p.schema_tables().contains("SPORTS_FINANCIALS"));
        assert!(p.schema_columns().contains("SPORTS_FINANCIALS.COUNTRY"));
    }

    #[test]
    fn example_support_distinguishes_decomposed() {
        let mut p = Prompt::new(TaskKind::SqlGeneration, "q");
        p.examples.push(PromptExample {
            description: "filter".into(),
            sql: "WHERE A = 1".into(),
            kind: Some(FragmentKind::Where),
            term: None,
        });
        p.examples.push(PromptExample {
            description: "full".into(),
            sql: "SELECT 1".into(),
            kind: None,
            term: None,
        });
        let (kinds, full) = p.example_support();
        assert!(kinds.contains(&FragmentKind::Where));
        assert!(full);
    }

    #[test]
    fn plan_json_shape() {
        let plan = Plan {
            steps: vec![
                PlanStep {
                    description: "Begin by looking at the financial data".into(),
                    pseudo_sql: Some("FROM SPORTS_FINANCIALS".into()),
                    scope: "FINANCIALS".into(),
                    kind: Some(FragmentKind::From),
                },
                PlanStep {
                    description: "No pseudo here".into(),
                    pseudo_sql: None,
                    scope: "main".into(),
                    kind: None,
                },
            ],
        };
        let j = plan.to_json();
        assert!(j.contains("\"step\": 1"));
        assert!(j.contains("... FROM SPORTS_FINANCIALS ..."));
        assert!(j.contains("\"pseudo_sql\": null"));
    }

    #[test]
    fn without_pseudo_sql_strips_all() {
        let plan = Plan {
            steps: vec![PlanStep {
                description: "d".into(),
                pseudo_sql: Some("X".into()),
                scope: "main".into(),
                kind: None,
            }],
        };
        assert!(plan.without_pseudo_sql().steps[0].pseudo_sql.is_none());
    }

    #[test]
    fn render_contains_sections() {
        let mut p = Prompt::new(TaskKind::SqlGeneration, "Show me the top 5 orgs");
        p.errors.push("binding error: no such column X".into());
        p.plan = Some(Plan::default());
        let text = p.render();
        assert!(text.contains("## Question"));
        assert!(text.contains("## Errors"));
        assert!(text.contains("## Plan"));
        assert_eq!(p.attempt(), 1);
    }
}
