//! Continuous improvement (§4): the edits-recommendation module.
//!
//! Four operators turn free-text feedback into recommended knowledge-set
//! edits (§4.1):
//! 1. **Generate Targets** — which retrieved instructions/examples the
//!    feedback concerns, with a short why,
//! 2. **Expand Feedback** — a fuller explanation tying feedback to the
//!    targets,
//! 3. **Planning of Edits** — a step-by-step plan of required changes,
//! 4. **Generate Edits** — the concrete [`Edit`]s in knowledge-set form.
//!
//! [`FeedbackSession`] is the programmatic equivalent of the Feedback
//! Solver UI (§4.2.1): stage recommended edits, regenerate against the
//! staged knowledge set, iterate, then submit through regression testing.

use crate::index::KnowledgeIndex;
use crate::pipeline::{GenEditPipeline, GenerationResult};
use genedit_knowledge::{Edit, KnowledgeSet, RetrievalStage, SourceRef, StagingArea};
use genedit_llm::LanguageModel;
use genedit_retrieval::tokenize;
use genedit_sql::catalog::Database;
use genedit_telemetry::{names, Trace, Tracer};

/// A target the feedback is judged relevant to (operator 1 output).
#[derive(Debug, Clone, PartialEq)]
pub struct FeedbackTarget {
    /// Which knowledge element (or gap) the feedback concerns.
    pub kind: TargetKind,
    /// Why the feedback concerns this element (or gap).
    pub why: String,
}

/// What a [`FeedbackTarget`] points at.
#[derive(Debug, Clone, PartialEq)]
pub enum TargetKind {
    /// An example fragment that was used in the generation.
    Example(genedit_knowledge::ExampleId),
    /// An instruction that was used in the generation.
    Instruction(genedit_knowledge::InstructionId),
    /// The feedback names knowledge that was never retrieved — a gap to
    /// fill with an insertion.
    MissingKnowledge {
        /// The missing subject matter, as extracted from the feedback.
        topic: String,
    },
}

/// A recommended edit with its explanation trail (operators 2–4 outputs).
#[derive(Debug, Clone)]
pub struct RecommendedEdit {
    /// The concrete knowledge-set edit to stage.
    pub edit: Edit,
    /// Human-readable rationale for the edit.
    pub explanation: String,
    /// The edit-plan steps that produced this recommendation.
    pub plan_steps: Vec<String>,
}

/// Operator 1: determine which of the used instructions/examples the
/// feedback is relevant to. Deterministic token-overlap implementation of
/// the paper's LLM call (the structure — not the scoring model — is what
/// the module contributes).
pub fn generate_targets(
    feedback: &str,
    generation: &GenerationResult,
    knowledge: &KnowledgeSet,
) -> Vec<FeedbackTarget> {
    let fb_tokens: std::collections::BTreeSet<String> = tokenize(feedback).into_iter().collect();
    let overlap = |text: &str| -> usize {
        tokenize(text)
            .iter()
            .filter(|t| fb_tokens.contains(*t))
            .count()
    };

    let mut targets = Vec::new();
    for id in &generation.used_examples {
        if let Some(ex) = knowledge.example(*id) {
            let score = overlap(&ex.retrieval_text());
            if score >= 2 {
                targets.push(FeedbackTarget {
                    kind: TargetKind::Example(*id),
                    why: format!(
                        "feedback shares {score} terms with example {} ({})",
                        id, ex.description
                    ),
                });
            }
        }
    }
    for id in &generation.used_instructions {
        if let Some(ins) = knowledge.instruction(*id) {
            let score = overlap(&ins.retrieval_text());
            if score >= 2 {
                targets.push(FeedbackTarget {
                    kind: TargetKind::Instruction(*id),
                    why: format!(
                        "feedback shares {score} terms with instruction {} ({})",
                        id, ins.text
                    ),
                });
            }
        }
    }
    if targets.is_empty() {
        // Nothing retrieved matches: the knowledge set has a gap.
        let topic: Vec<String> = tokenize(feedback)
            .into_iter()
            .filter(|t| t.len() > 3)
            .take(6)
            .collect();
        targets.push(FeedbackTarget {
            kind: TargetKind::MissingKnowledge {
                topic: topic.join(" "),
            },
            why: "no retrieved knowledge matches the feedback; new knowledge is needed".into(),
        });
    }
    targets
}

/// Operator 2: expand the why into a fuller explanation.
pub fn expand_feedback(feedback: &str, question: &str, targets: &[FeedbackTarget]) -> String {
    let mut out = format!(
        "The user asked: \"{question}\". The generated SQL was judged wrong because: \
         \"{feedback}\". "
    );
    for t in targets {
        match &t.kind {
            TargetKind::Example(id) => out.push_str(&format!(
                "Example {id} likely taught the wrong pattern ({}). ",
                t.why
            )),
            TargetKind::Instruction(id) => out.push_str(&format!(
                "Instruction {id} either misled generation or needs strengthening ({}). ",
                t.why
            )),
            TargetKind::MissingKnowledge { topic } => {
                out.push_str(&format!("The knowledge set lacks coverage of: {topic}. "))
            }
        }
    }
    out
}

/// Operators 3 + 4: plan the changes, then produce concrete edits.
///
/// The generated edits follow the paper's three failure buckets (§1):
/// misunderstood query context, wrong decomposed-example calculations, and
/// retrieval misses — each becomes an insert/update plus, for retrieval
/// misses, a retrieval hint.
pub fn generate_edits(
    feedback: &str,
    question: &str,
    generation: &GenerationResult,
    knowledge: &KnowledgeSet,
) -> Vec<RecommendedEdit> {
    let tracer = Tracer::new("feedback");
    generate_edits_traced(feedback, question, generation, knowledge, 0, &tracer)
}

/// Operator 3: plan the changes — one step list per target, consumed by
/// the edits the generate phase produces for that target.
pub fn plan_edits(targets: &[FeedbackTarget]) -> Vec<Vec<String>> {
    targets
        .iter()
        .map(|target| match &target.kind {
            TargetKind::Instruction(id) => vec![
                format!("Locate instruction {id}."),
                "Append the user's clarification so future retrieval carries it.".to_string(),
            ],
            TargetKind::Example(id) => vec![
                format!("Locate example {id}."),
                "Annotate its description with the corrected interpretation.".to_string(),
            ],
            TargetKind::MissingKnowledge { topic } => vec![
                "No existing knowledge matches the feedback.".to_string(),
                format!("Insert a new instruction covering: {topic}."),
            ],
        })
        .collect()
}

/// The four-operator feedback chain, recording one span per operator on
/// `tracer` (attrs: targets matched, explanation size, steps planned,
/// edits produced). `feedback_id` goes into the provenance of every
/// produced edit (the knowledge-set library groups history by feedback,
/// Fig. 4); [`generate_edits`] is this with id 0 and a throwaway tracer.
pub fn generate_edits_traced(
    feedback: &str,
    question: &str,
    generation: &GenerationResult,
    knowledge: &KnowledgeSet,
    feedback_id: u64,
    tracer: &Tracer,
) -> Vec<RecommendedEdit> {
    let span = tracer.span(names::FEEDBACK_TARGETS);
    let targets = generate_targets(feedback, generation, knowledge);
    span.attr("targets", targets.len());
    span.finish();

    let span = tracer.span(names::FEEDBACK_EXPAND);
    let explanation = expand_feedback(feedback, question, &targets);
    span.attr("chars", explanation.len());
    span.finish();

    let span = tracer.span(names::FEEDBACK_PLAN);
    let plans = plan_edits(&targets);
    span.attr("planned", plans.len())
        .attr("steps", plans.iter().map(|p| p.len()).sum::<usize>());
    span.finish();

    let span = tracer.span(names::FEEDBACK_EDITS);
    let mut out = Vec::new();
    for (target, plan_steps) in targets.iter().zip(&plans) {
        match &target.kind {
            TargetKind::Instruction(id) => {
                let Some(ins) = knowledge.instruction(*id) else {
                    continue;
                };
                let new_text = format!("{} — clarified by feedback: {}", ins.text, feedback);
                out.push(RecommendedEdit {
                    edit: Edit::UpdateInstruction {
                        id: *id,
                        text: Some(new_text),
                        sql_hint: None,
                        source: SourceRef::Feedback { feedback_id },
                    },
                    explanation: explanation.clone(),
                    plan_steps: plan_steps.clone(),
                });
            }
            TargetKind::Example(id) => {
                let Some(ex) = knowledge.example(*id) else {
                    continue;
                };
                out.push(RecommendedEdit {
                    edit: Edit::UpdateExample {
                        id: *id,
                        description: Some(format!(
                            "{} (corrected per feedback: {feedback})",
                            ex.description
                        )),
                        fragment: None,
                        term: None,
                        source: SourceRef::Feedback { feedback_id },
                    },
                    explanation: explanation.clone(),
                    plan_steps: plan_steps.clone(),
                });
            }
            TargetKind::MissingKnowledge { topic } => {
                out.push(RecommendedEdit {
                    edit: Edit::InsertInstruction {
                        intent: generation.intents.first().cloned(),
                        text: format!("When the user mentions {topic}: {feedback}"),
                        sql_hint: None,
                        term: dominant_term(feedback),
                        source: SourceRef::Feedback { feedback_id },
                    },
                    explanation: explanation.clone(),
                    plan_steps: plan_steps.clone(),
                });
                out.push(RecommendedEdit {
                    edit: Edit::AddRetrievalHint {
                        stage: RetrievalStage::InstructionSelection,
                        text: format!("boost knowledge about: {topic}"),
                    },
                    explanation: explanation.clone(),
                    plan_steps: vec![
                        "Help retrieval surface the new knowledge next time.".to_string()
                    ],
                });
            }
        }
    }
    span.attr("edits", out.len());
    span.finish();
    out
}

/// Pull an acronym-like token out of feedback text so new instructions are
/// indexed under the domain term they explain.
fn dominant_term(feedback: &str) -> Option<String> {
    feedback
        .split(|c: char| !c.is_alphanumeric())
        .find(|t| t.len() >= 3 && t.chars().filter(|c| c.is_ascii_uppercase()).count() >= 2)
        .map(|t| t.to_string())
}

/// An interactive feedback session over one question — the programmatic
/// Feedback Solver (§4.2.1).
pub struct FeedbackSession<'a, M> {
    pipeline: &'a GenEditPipeline<M>,
    db: &'a Database,
    /// The deployed knowledge set (untouched until submission).
    deployed: &'a KnowledgeSet,
    question: String,
    staging: StagingArea,
    /// All recommendations from the latest feedback round.
    recommendations: Vec<RecommendedEdit>,
    /// The latest generation (against deployed + staged edits).
    pub latest: GenerationResult,
    /// History of (feedback, number of recommendations) rounds.
    rounds: Vec<(String, usize)>,
    /// One trace per feedback round (the four edit operators).
    feedback_traces: Vec<Trace>,
}

impl<'a, M: LanguageModel> FeedbackSession<'a, M> {
    /// Open a session: generate the initial SQL for the question.
    pub fn open(
        pipeline: &'a GenEditPipeline<M>,
        db: &'a Database,
        deployed: &'a KnowledgeSet,
        question: impl Into<String>,
    ) -> Self {
        let question = question.into();
        let index = KnowledgeIndex::build(deployed.clone());
        let latest = pipeline.generate(&question, &index, db, &[]);
        FeedbackSession {
            pipeline,
            db,
            deployed,
            question,
            staging: StagingArea::new(),
            recommendations: Vec::new(),
            latest,
            rounds: Vec::new(),
            feedback_traces: Vec::new(),
        }
    }

    /// The question this session iterates on.
    pub fn question(&self) -> &str {
        &self.question
    }

    /// Number of edits currently staged.
    pub fn staged_count(&self) -> usize {
        self.staging.len()
    }

    /// The recommendations produced by the latest feedback round.
    pub fn recommendations(&self) -> &[RecommendedEdit] {
        &self.recommendations
    }

    /// Every feedback round so far: the text submitted and how many
    /// edits it produced.
    pub fn rounds(&self) -> &[(String, usize)] {
        &self.rounds
    }

    /// The trace of each feedback round, in submission order.
    pub fn feedback_traces(&self) -> &[Trace] {
        &self.feedback_traces
    }

    /// The deployed set with the staged edits applied. A staged edit that
    /// no longer applies (e.g. its target was deleted under it) degrades
    /// to the deployed view rather than panicking the session.
    fn staged_view(&self) -> KnowledgeSet {
        self.staging
            .materialize(self.deployed)
            .unwrap_or_else(|_| self.deployed.clone())
    }

    /// Submit feedback: produces recommended edits against the *staged*
    /// view of the knowledge set. The round number becomes the feedback id
    /// carried by the edits' provenance.
    pub fn submit_feedback(&mut self, feedback: &str) -> usize {
        let staged_ks = self.staged_view();
        let feedback_id = self.rounds.len() as u64 + 1;
        let tracer = Tracer::new("feedback");
        self.recommendations = generate_edits_traced(
            feedback,
            &self.question,
            &self.latest,
            &staged_ks,
            feedback_id,
            &tracer,
        );
        self.feedback_traces.push(tracer.finish());
        self.rounds
            .push((feedback.to_string(), self.recommendations.len()));
        self.recommendations.len()
    }

    /// Stage one of the current recommendations by index; returns its
    /// staging handle.
    pub fn stage(&mut self, recommendation_index: usize) -> Option<u64> {
        let rec = self.recommendations.get(recommendation_index)?;
        Some(self.staging.stage(rec.edit.clone()))
    }

    /// Stage every current recommendation. Returns how many edits this
    /// call staged, not how many the session holds staged in all.
    pub fn stage_all(&mut self) -> usize {
        for rec in &self.recommendations {
            self.staging.stage(rec.edit.clone());
        }
        self.recommendations.len()
    }

    /// Withdraw a staged edit by its staging handle. Returns whether the
    /// handle was live.
    pub fn unstage(&mut self, handle: u64) -> bool {
        self.staging.unstage(handle).is_some()
    }

    /// Regenerate the query against deployed + staged edits ("the user can
    /// regenerate the query and continue iterating", §4.2.1).
    pub fn regenerate(&mut self) -> &GenerationResult {
        let index = KnowledgeIndex::build(self.staged_view());
        self.latest = self.pipeline.generate(&self.question, &index, self.db, &[]);
        &self.latest
    }

    /// Finish the session, handing the staged edits to the caller for
    /// regression testing + merge (see [`crate::regression`]).
    pub fn into_staged(self) -> StagingArea {
        self.staging
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pipeline::GenEditPipeline;
    use genedit_bird::{DomainBundle, SPORTS};
    use genedit_llm::{OracleConfig, OracleModel, TaskRegistry};

    fn setup() -> (DomainBundle, KnowledgeSet, OracleModel) {
        let bundle = DomainBundle::build(&SPORTS, (8, 7, 3), 42);
        let ks = bundle.build_knowledge();
        let mut reg = TaskRegistry::new();
        for t in &bundle.tasks {
            reg.register(t.clone());
        }
        let oracle = OracleModel::with_config(
            reg,
            OracleConfig {
                noise_rate: 0.0,
                ..Default::default()
            },
        );
        (bundle, ks, oracle)
    }

    fn degraded_knowledge(ks: &KnowledgeSet) -> KnowledgeSet {
        // Remove every instruction AND example mentioning the ownership
        // term so the "our" tasks fail — the paper's running-example
        // failure (term knowledge can live in either store).
        let mut ks = ks.clone();
        let doomed: Vec<_> = ks
            .instructions()
            .iter()
            .filter(|i| i.retrieval_text().to_uppercase().contains("COC"))
            .map(|i| i.id)
            .collect();
        for id in doomed {
            ks.apply(Edit::DeleteInstruction { id }).unwrap();
        }
        let doomed: Vec<_> = ks
            .examples()
            .iter()
            .filter(|e| e.retrieval_text().to_uppercase().contains("COC"))
            .map(|e| e.id)
            .collect();
        for id in doomed {
            ks.apply(Edit::DeleteExample { id }).unwrap();
        }
        ks
    }

    #[test]
    fn feedback_on_missing_knowledge_recommends_insertion() {
        let (bundle, ks, oracle) = setup();
        let ks = degraded_knowledge(&ks);
        let pipeline = GenEditPipeline::new(&oracle);
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.task_id.ends_with("s05"))
            .expect("the 'our' term task");

        let mut session = FeedbackSession::open(&pipeline, &bundle.db, &ks, &task.question);
        // Initial generation is wrong (ownership filter dropped).
        let (ok, _) = genedit_bird::score_prediction(
            &bundle.db,
            &task.gold_sql,
            session.latest.sql.as_deref(),
        );
        assert!(!ok, "degraded knowledge should fail first");

        let n = session.submit_feedback(
            "This answer includes all organizations but I only care about our \
             organizations: filter OWNERSHIP_FLAG = 'COC'",
        );
        assert!(n >= 1);
        assert!(session
            .recommendations()
            .iter()
            .any(|r| matches!(r.edit, Edit::InsertInstruction { .. })));

        session.stage_all();
        session.regenerate();
        let (ok, note) = genedit_bird::score_prediction(
            &bundle.db,
            &task.gold_sql,
            session.latest.sql.as_deref(),
        );
        assert!(
            ok,
            "after staging edits the query should be right: {note:?}"
        );
    }

    #[test]
    fn targets_find_related_instruction() {
        let (bundle, ks, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.task_id.ends_with("s05"))
            .unwrap();
        let index = KnowledgeIndex::build(ks.clone());
        let generation = pipeline.generate(&task.question, &index, &bundle.db, &[]);
        let targets = generate_targets(
            "the COC ownership flag filter is missing for our organizations",
            &generation,
            &ks,
        );
        assert!(targets
            .iter()
            .any(|t| matches!(t.kind, TargetKind::Instruction(_))));
    }

    #[test]
    fn expansion_mentions_question_and_feedback() {
        let targets = vec![FeedbackTarget {
            kind: TargetKind::MissingKnowledge {
                topic: "ownership".into(),
            },
            why: "gap".into(),
        }];
        let s = expand_feedback("wrong orgs", "our best orgs", &targets);
        assert!(s.contains("our best orgs"));
        assert!(s.contains("wrong orgs"));
        assert!(s.contains("ownership"));
    }

    #[test]
    fn unstage_and_round_history() {
        let (bundle, ks, oracle) = setup();
        let ks = degraded_knowledge(&ks);
        let pipeline = GenEditPipeline::new(&oracle);
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.task_id.ends_with("s05"))
            .unwrap();
        let mut session = FeedbackSession::open(&pipeline, &bundle.db, &ks, &task.question);
        session.submit_feedback("only our organizations please, the COC ones");
        let handle = session.stage(0).unwrap();
        assert_eq!(session.staged_count(), 1);
        assert!(session.unstage(handle));
        assert_eq!(session.staged_count(), 0);
        assert!(!session.unstage(handle));
        assert_eq!(session.rounds().len(), 1);
    }

    #[test]
    fn feedback_round_records_the_four_operator_spans() {
        let (bundle, ks, oracle) = setup();
        let ks = degraded_knowledge(&ks);
        let pipeline = GenEditPipeline::new(&oracle);
        let task = bundle
            .tasks
            .iter()
            .find(|t| t.task_id.ends_with("s05"))
            .unwrap();
        let mut session = FeedbackSession::open(&pipeline, &bundle.db, &ks, &task.question);
        session.submit_feedback("only our organizations please, the COC ones");
        assert_eq!(session.feedback_traces().len(), 1);
        let trace = &session.feedback_traces()[0];
        let order: Vec<&str> = trace.spans.iter().map(|s| s.name.as_str()).collect();
        assert_eq!(
            order,
            vec![
                names::FEEDBACK_TARGETS,
                names::FEEDBACK_EXPAND,
                names::FEEDBACK_PLAN,
                names::FEEDBACK_EDITS,
            ]
        );
        let edits = trace.find(names::FEEDBACK_EDITS).unwrap();
        assert_eq!(
            edits.attr("edits").map(|a| a.to_string()),
            Some(session.recommendations().len().to_string())
        );
    }

    #[test]
    fn dominant_term_extraction() {
        assert_eq!(dominant_term("use the COC flag"), Some("COC".into()));
        assert_eq!(dominant_term("QoQFP is quarterly"), Some("QoQFP".into()));
        assert_eq!(dominant_term("no acronyms here"), None);
    }
}
