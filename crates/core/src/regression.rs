//! Regression testing and merge approval for staged edits (§4.2.1):
//! "Once staged, the edits to the knowledge set are tested for regression.
//! Currently, these staged edits require human approval after passing
//! regression testing."

use crate::index::KnowledgeIndex;
use crate::pipeline::GenEditPipeline;
use genedit_knowledge::{
    CommitError, DurableKnowledgeStore, KnowledgeError, KnowledgeSet, StagingArea, StoreError,
};
use genedit_llm::LanguageModel;
use genedit_sql::catalog::Database;
use std::fmt;

/// A golden question whose behaviour must not regress.
#[derive(Debug, Clone)]
pub struct GoldenQuery {
    /// The natural-language question.
    pub question: String,
    /// The reference SQL whose results define "correct".
    pub gold_sql: String,
}

/// Result of running the golden suite before/after the staged edits.
#[derive(Debug, Clone)]
pub struct RegressionOutcome {
    /// Correct-before count.
    pub before_correct: usize,
    /// Correct-after count.
    pub after_correct: usize,
    /// Questions that were right before and wrong after (blocking).
    pub regressions: Vec<String>,
    /// Questions newly fixed by the staged edits.
    pub improvements: Vec<String>,
    /// Size of the golden suite.
    pub total: usize,
    /// Spans that took their degradation path during the *before* runs.
    /// A degraded before-run can manufacture a spurious regression (the
    /// baseline looked worse than the deployed system really is) — or,
    /// symmetrically, mask a real one.
    pub before_degraded: usize,
    /// Degraded spans during the *after* (staged-view) runs.
    pub after_degraded: usize,
}

impl RegressionOutcome {
    /// Edits pass regression testing when nothing that worked broke.
    pub fn passed(&self) -> bool {
        self.regressions.is_empty()
    }

    /// Whether the before/after diff can be trusted: no generation on
    /// either side ran through a degraded operator. When false, approvers
    /// should re-run the suite rather than act on the diff.
    pub fn gate_trustworthy(&self) -> bool {
        self.before_degraded == 0 && self.after_degraded == 0
    }
}

/// Execute the golden suite twice — against the deployed knowledge set and
/// against the staged view — and diff the outcomes.
pub fn run_regression<M: LanguageModel>(
    pipeline: &GenEditPipeline<M>,
    db: &Database,
    deployed: &KnowledgeSet,
    staging: &StagingArea,
    golden: &[GoldenQuery],
) -> Result<RegressionOutcome, genedit_knowledge::KnowledgeError> {
    let staged_ks = staging.materialize(deployed)?;
    let before_index = KnowledgeIndex::build(deployed.clone());
    let after_index = KnowledgeIndex::build(staged_ks);

    let mut outcome = RegressionOutcome {
        before_correct: 0,
        after_correct: 0,
        regressions: Vec::new(),
        improvements: Vec::new(),
        total: golden.len(),
        before_degraded: 0,
        after_degraded: 0,
    };
    for g in golden {
        let before = pipeline.generate(&g.question, &before_index, db, &[]);
        let (before_ok, _) = genedit_bird::score_prediction(db, &g.gold_sql, before.sql.as_deref());
        let after = pipeline.generate(&g.question, &after_index, db, &[]);
        let (after_ok, _) = genedit_bird::score_prediction(db, &g.gold_sql, after.sql.as_deref());
        outcome.before_degraded += before.degraded_operator_count();
        outcome.after_degraded += after.degraded_operator_count();
        if before_ok {
            outcome.before_correct += 1;
        }
        if after_ok {
            outcome.after_correct += 1;
        }
        match (before_ok, after_ok) {
            (true, false) => outcome.regressions.push(g.question.clone()),
            (false, true) => outcome.improvements.push(g.question.clone()),
            _ => {}
        }
    }
    Ok(outcome)
}

/// What happened to a submission.
#[derive(Debug, Clone, PartialEq)]
pub enum SubmissionResult {
    /// Merged; carries the checkpoint id recorded just before the merge.
    Merged {
        /// Checkpoint recorded immediately before the merge (rollback
        /// target).
        checkpoint: u64,
        /// The regression diff that justified the merge.
        outcome: RegressionOutcome,
    },
    /// Failed regression testing; nothing was merged.
    RegressionFailed(RegressionOutcome),
    /// Passed regression but the (human) approver declined.
    ApprovalDeclined(RegressionOutcome),
}

impl SubmissionResult {
    /// The regression outcome behind this decision, whatever it was.
    pub fn outcome(&self) -> &RegressionOutcome {
        match self {
            SubmissionResult::Merged { outcome, .. }
            | SubmissionResult::RegressionFailed(outcome)
            | SubmissionResult::ApprovalDeclined(outcome) => outcome,
        }
    }

    /// Whether the gate that produced this decision ran degradation-free
    /// — see [`RegressionOutcome::gate_trustworthy`].
    pub fn gate_trustworthy(&self) -> bool {
        self.outcome().gate_trustworthy()
    }
}

impl PartialEq for RegressionOutcome {
    fn eq(&self, other: &Self) -> bool {
        self.before_correct == other.before_correct
            && self.after_correct == other.after_correct
            && self.regressions == other.regressions
    }
}

/// Why a submission could not complete (distinct from a submission that
/// completed with a negative decision, which is a [`SubmissionResult`]).
#[derive(Debug)]
pub enum SubmitError {
    /// A staged edit no longer applies to the deployed set (detected
    /// while materializing the staged view; nothing was run or merged).
    Knowledge(KnowledgeError),
    /// The approved merge failed while committing to the in-memory set.
    Commit(CommitError),
    /// The approved merge failed while committing to the durable store.
    Store(StoreError),
}

impl fmt::Display for SubmitError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SubmitError::Knowledge(e) => write!(f, "staged edits no longer apply: {e}"),
            SubmitError::Commit(e) => write!(f, "merge failed: {e}"),
            SubmitError::Store(e) => write!(f, "durable merge failed: {e}"),
        }
    }
}

impl std::error::Error for SubmitError {}

impl From<KnowledgeError> for SubmitError {
    fn from(e: KnowledgeError) -> SubmitError {
        SubmitError::Knowledge(e)
    }
}
impl From<CommitError> for SubmitError {
    fn from(e: CommitError) -> SubmitError {
        SubmitError::Commit(e)
    }
}
impl From<StoreError> for SubmitError {
    fn from(e: StoreError) -> SubmitError {
        SubmitError::Store(e)
    }
}

/// The full submission flow: regression test → approval → merge.
/// `approve` stands in for the human reviewer.
pub fn submit_edits<M: LanguageModel>(
    pipeline: &GenEditPipeline<M>,
    db: &Database,
    deployed: &mut KnowledgeSet,
    staging: StagingArea,
    golden: &[GoldenQuery],
    approve: impl FnOnce(&RegressionOutcome) -> bool,
    merge_label: &str,
) -> Result<SubmissionResult, SubmitError> {
    let outcome = run_regression(pipeline, db, deployed, &staging, golden)?;
    if !outcome.passed() {
        return Ok(SubmissionResult::RegressionFailed(outcome));
    }
    if !approve(&outcome) {
        return Ok(SubmissionResult::ApprovalDeclined(outcome));
    }
    let checkpoint = staging.commit(deployed, merge_label)?;
    Ok(SubmissionResult::Merged {
        checkpoint,
        outcome,
    })
}

/// [`submit_edits`] against a [`DurableKnowledgeStore`]: an approved merge
/// is journaled (`BatchStart ‖ edits ‖ BatchCommit`) before it becomes
/// visible, so a crash at any point during the merge recovers to either
/// the full merge or none of it.
pub fn submit_edits_durable<M: LanguageModel>(
    pipeline: &GenEditPipeline<M>,
    db: &Database,
    store: &mut DurableKnowledgeStore,
    staging: StagingArea,
    golden: &[GoldenQuery],
    approve: impl FnOnce(&RegressionOutcome) -> bool,
    merge_label: &str,
) -> Result<SubmissionResult, SubmitError> {
    submit_edits_durable_from(
        pipeline,
        db,
        store,
        staging,
        golden,
        approve,
        merge_label,
        None,
    )
}

/// [`submit_edits_durable`] with provenance: `origin` is the serving
/// request ID whose feedback produced this batch (threaded through to the
/// `store.commit` span), so knowledge mutations stay joinable with serve
/// traces and flight-recorder dumps.
#[allow(clippy::too_many_arguments)]
pub fn submit_edits_durable_from<M: LanguageModel>(
    pipeline: &GenEditPipeline<M>,
    db: &Database,
    store: &mut DurableKnowledgeStore,
    staging: StagingArea,
    golden: &[GoldenQuery],
    approve: impl FnOnce(&RegressionOutcome) -> bool,
    merge_label: &str,
    origin: Option<&str>,
) -> Result<SubmissionResult, SubmitError> {
    let outcome = run_regression(pipeline, db, store.set(), &staging, golden)?;
    if !outcome.passed() {
        return Ok(SubmissionResult::RegressionFailed(outcome));
    }
    if !approve(&outcome) {
        return Ok(SubmissionResult::ApprovalDeclined(outcome));
    }
    let checkpoint = store.commit_from(staging, merge_label, origin)?;
    Ok(SubmissionResult::Merged {
        checkpoint,
        outcome,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use genedit_bird::{DomainBundle, SPORTS};
    use genedit_knowledge::{Edit, SourceRef};
    use genedit_llm::{
        FaultConfig, FaultInjector, FaultKind, OracleConfig, OracleModel, TaskRegistry,
    };

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
                pseudo_drift_probability: 0.0,
                drift_probability: 0.0,
                canonical_form_penalty: 0.0,
                ..Default::default()
            },
        );
        (bundle, ks, oracle)
    }

    fn golden_from(bundle: &DomainBundle, n: usize) -> Vec<GoldenQuery> {
        bundle
            .tasks
            .iter()
            .take(n)
            .map(|t| GoldenQuery {
                question: t.question.clone(),
                gold_sql: t.gold_sql.clone(),
            })
            .collect()
    }

    #[test]
    fn benign_edit_passes_and_merges() {
        let (bundle, mut ks, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let golden = golden_from(&bundle, 5);
        let mut staging = StagingArea::new();
        staging.stage(Edit::InsertInstruction {
            intent: None,
            text: "Prefer explicit column lists over SELECT *".into(),
            sql_hint: None,
            term: None,
            source: SourceRef::Feedback { feedback_id: 1 },
        });
        let before_len = ks.instructions().len();
        let result = submit_edits(
            &pipeline,
            &bundle.db,
            &mut ks,
            staging,
            &golden,
            |outcome| outcome.passed(),
            "merge benign",
        )
        .unwrap();
        assert!(matches!(result, SubmissionResult::Merged { .. }));
        assert_eq!(ks.instructions().len(), before_len + 1);
    }

    #[test]
    fn harmful_edit_is_blocked() {
        let (bundle, mut ks, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let golden = golden_from(&bundle, 8);
        // Deleting every instruction and every ownership-term example
        // breaks the "our" term tasks.
        let mut staging = StagingArea::new();
        for ins in ks.instructions() {
            staging.stage(Edit::DeleteInstruction { id: ins.id });
        }
        for ex in ks.examples() {
            if ex.retrieval_text().to_uppercase().contains("COC") {
                staging.stage(Edit::DeleteExample { id: ex.id });
            }
        }
        let before = ks.clone();
        let result = submit_edits(
            &pipeline,
            &bundle.db,
            &mut ks,
            staging,
            &golden,
            |_| true,
            "merge harmful",
        )
        .unwrap();
        match result {
            SubmissionResult::RegressionFailed(outcome) => {
                assert!(!outcome.regressions.is_empty());
                assert!(outcome.after_correct < outcome.before_correct);
            }
            other => panic!("expected regression failure, got {other:?}"),
        }
        assert!(ks.content_eq(&before), "deployed set must be untouched");
    }

    #[test]
    fn approval_gate_respected() {
        let (bundle, mut ks, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let golden = golden_from(&bundle, 3);
        let mut staging = StagingArea::new();
        staging.stage(Edit::InsertInstruction {
            intent: None,
            text: "harmless note".into(),
            sql_hint: None,
            term: None,
            source: SourceRef::Manual,
        });
        let before = ks.clone();
        let result = submit_edits(
            &pipeline,
            &bundle.db,
            &mut ks,
            staging,
            &golden,
            |_| false, // reviewer declines
            "declined",
        )
        .unwrap();
        assert!(matches!(result, SubmissionResult::ApprovalDeclined(_)));
        assert!(ks.content_eq(&before));
    }

    #[test]
    fn merge_checkpoint_allows_revert() {
        let (bundle, mut ks, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let mut staging = StagingArea::new();
        staging.stage(Edit::InsertInstruction {
            intent: None,
            text: "note".into(),
            sql_hint: None,
            term: None,
            source: SourceRef::Manual,
        });
        let before = ks.clone();
        let result =
            submit_edits(&pipeline, &bundle.db, &mut ks, staging, &[], |_| true, "m").unwrap();
        let SubmissionResult::Merged { checkpoint, .. } = result else {
            panic!("expected merge");
        };
        ks.revert_to(checkpoint).unwrap();
        assert!(ks.content_eq(&before));
    }

    #[test]
    fn healthy_runs_report_a_trustworthy_gate() {
        let (bundle, mut ks, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let golden = golden_from(&bundle, 3);
        let mut staging = StagingArea::new();
        staging.stage(Edit::InsertInstruction {
            intent: None,
            text: "harmless note".into(),
            sql_hint: None,
            term: None,
            source: SourceRef::Manual,
        });
        let result = submit_edits(
            &pipeline,
            &bundle.db,
            &mut ks,
            staging,
            &golden,
            |_| true,
            "merge",
        )
        .unwrap();
        assert!(result.gate_trustworthy());
        assert_eq!(result.outcome().before_degraded, 0);
        assert_eq!(result.outcome().after_degraded, 0);
    }

    #[test]
    fn degraded_runs_mark_the_gate_untrustworthy() {
        let (bundle, mut ks, oracle) = setup();
        // Every model call fails and there is no resilience layer, so the
        // operator ladder degrades on both the before and after runs.
        let faulty = FaultInjector::new(&oracle, FaultConfig::only(FaultKind::Transient, 1.0), 7);
        let pipeline = GenEditPipeline::new(&faulty);
        let golden = golden_from(&bundle, 3);
        let mut staging = StagingArea::new();
        staging.stage(Edit::InsertInstruction {
            intent: None,
            text: "harmless note".into(),
            sql_hint: None,
            term: None,
            source: SourceRef::Manual,
        });
        let result = submit_edits(
            &pipeline,
            &bundle.db,
            &mut ks,
            staging,
            &golden,
            |_| true,
            "merge under fire",
        )
        .unwrap();
        let outcome = result.outcome();
        assert!(outcome.before_degraded > 0, "{outcome:?}");
        assert!(outcome.after_degraded > 0, "{outcome:?}");
        assert!(!result.gate_trustworthy());
    }

    #[test]
    fn durable_submission_journals_the_merge() {
        use genedit_knowledge::{DurableKnowledgeStore, MemFs, StoreConfig, StoreFs};
        use std::sync::Arc;

        let (bundle, ks, oracle) = setup();
        let pipeline = GenEditPipeline::new(&oracle);
        let mem = Arc::new(MemFs::new());
        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let mut store =
            DurableKnowledgeStore::open_with(fs, "k.json", "k.wal", StoreConfig::default(), None)
                .unwrap();
        // Seed the store from the bundle's knowledge log, durably.
        for logged in ks.log() {
            store.apply(logged.edit.clone()).unwrap();
        }
        let mut staging = StagingArea::new();
        staging.stage(Edit::InsertInstruction {
            intent: None,
            text: "durable note".into(),
            sql_hint: None,
            term: None,
            source: SourceRef::Feedback { feedback_id: 9 },
        });
        let golden = golden_from(&bundle, 3);
        let result = submit_edits_durable(
            &pipeline,
            &bundle.db,
            &mut store,
            staging,
            &golden,
            |outcome| outcome.passed(),
            "durable merge",
        )
        .unwrap();
        assert!(matches!(result, SubmissionResult::Merged { .. }));
        let live = store.set().clone();
        // The merge survives a crash: everything was journaled first.
        mem.crash();
        let fs2: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let reopened =
            DurableKnowledgeStore::open_with(fs2, "k.json", "k.wal", StoreConfig::default(), None)
                .unwrap();
        assert!(reopened.set().content_eq(&live));
        assert!(reopened
            .set()
            .instructions()
            .iter()
            .any(|i| i.text == "durable note"));
    }
}
