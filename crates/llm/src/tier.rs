//! Model tiers and cost accounting (§3.3.3).
//!
//! "We use GPT-4o across all operators, except for schema linking, where
//! we instead employ GPT-4o-mini to reduce primarily cost and then
//! latency." [`TieredModel`] reproduces that engineering decision: each
//! operator kind routes to a tier; the mini tier is ~15× cheaper per
//! prompt character (the 4o vs 4o-mini price ratio) but slightly weaker —
//! modeled as reduced reasoning effort for generation calls and lossy
//! recall for schema-linking calls.

use crate::model::{CompletionRequest, CompletionResponse, LanguageModel, ModelError};
use crate::prompt::TaskKind;
use genedit_telemetry::hash::hash01;
use std::sync::Mutex;

/// A model tier with its relative price.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum ModelTier {
    /// The frontier model ("GPT-4o").
    Full,
    /// The small model ("GPT-4o-mini").
    Mini,
}

impl ModelTier {
    /// Cost units per 1 000 prompt characters (scaled from the public
    /// price ratio between the two models the paper names).
    pub fn cost_per_kchar(&self) -> f64 {
        match self {
            ModelTier::Full => 1.0,
            ModelTier::Mini => 0.066,
        }
    }

    /// Reasoning-effort multiplier the tier applies to generation calls.
    pub fn effort_factor(&self) -> f64 {
        match self {
            ModelTier::Full => 1.0,
            ModelTier::Mini => 0.55,
        }
    }

    /// Fraction of linked schema elements the tier drops (mini models
    /// link slightly worse).
    pub fn linking_loss(&self) -> f64 {
        match self {
            ModelTier::Full => 0.0,
            ModelTier::Mini => 0.08,
        }
    }
}

/// Which tier each operator kind runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TierPolicy {
    /// Tier for question reformulation.
    pub reformulate: ModelTier,
    /// Tier for intent classification.
    pub intent: ModelTier,
    /// Tier for schema linking.
    pub schema_linking: ModelTier,
    /// Tier for CoT plan generation.
    pub plan: ModelTier,
    /// Tier for SQL generation.
    pub sql: ModelTier,
}

impl TierPolicy {
    /// Everything on the frontier model.
    pub fn all_full() -> TierPolicy {
        TierPolicy {
            reformulate: ModelTier::Full,
            intent: ModelTier::Full,
            schema_linking: ModelTier::Full,
            plan: ModelTier::Full,
            sql: ModelTier::Full,
        }
    }

    /// The paper's deployment (§3.3.3): mini for schema linking only.
    pub fn paper() -> TierPolicy {
        TierPolicy {
            schema_linking: ModelTier::Mini,
            ..TierPolicy::all_full()
        }
    }

    /// Everything on the small model (the cheap extreme).
    pub fn all_mini() -> TierPolicy {
        TierPolicy {
            reformulate: ModelTier::Mini,
            intent: ModelTier::Mini,
            schema_linking: ModelTier::Mini,
            plan: ModelTier::Mini,
            sql: ModelTier::Mini,
        }
    }

    /// The tier `kind` routes to under this policy.
    pub fn tier_for(&self, kind: TaskKind) -> ModelTier {
        match kind {
            TaskKind::Reformulate => self.reformulate,
            TaskKind::IntentClassification => self.intent,
            TaskKind::SchemaLinking => self.schema_linking,
            TaskKind::PlanGeneration => self.plan,
            TaskKind::SqlGeneration => self.sql,
        }
    }
}

/// Accumulated spend.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct CostLedger {
    /// Total spend in abstract cost units (full call = 1.0).
    pub cost_units: f64,
    /// Calls routed to the frontier tier.
    pub full_calls: usize,
    /// Calls routed to the mini tier.
    pub mini_calls: usize,
}

/// Routes each operator call to its tier, accounts the spend, and applies
/// the tier's quality model.
pub struct TieredModel<M> {
    inner: M,
    policy: TierPolicy,
    ledger: Mutex<CostLedger>,
}

impl<M: LanguageModel> TieredModel<M> {
    /// Wrap `inner` under a tier policy with a zeroed ledger.
    pub fn new(inner: M, policy: TierPolicy) -> TieredModel<M> {
        TieredModel {
            inner,
            policy,
            ledger: Mutex::new(CostLedger::default()),
        }
    }

    /// The routing policy in force.
    pub fn policy(&self) -> TierPolicy {
        self.policy
    }

    /// Lock the ledger, absorbing poisoning: accounting must not cascade
    /// a panic from elsewhere.
    fn ledger_lock(&self) -> std::sync::MutexGuard<'_, CostLedger> {
        self.ledger
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Snapshot of the accumulated spend.
    pub fn ledger(&self) -> CostLedger {
        self.ledger_lock().clone()
    }

    /// Zero the spend ledger.
    pub fn reset_ledger(&self) {
        *self.ledger_lock() = CostLedger::default();
    }
}

impl<M: LanguageModel> LanguageModel for TieredModel<M> {
    fn name(&self) -> &str {
        "tiered-oracle"
    }

    fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
        let tier = self.policy.tier_for(request.prompt.task);

        // Account the spend on the *rendered* prompt size.
        {
            let mut ledger = self.ledger_lock();
            let kchars = request.prompt.rendered_len() as f64 / 1000.0;
            ledger.cost_units += kchars * tier.cost_per_kchar();
            match tier {
                ModelTier::Full => ledger.full_calls += 1,
                ModelTier::Mini => ledger.mini_calls += 1,
            }
        }

        // Apply the tier's generation-quality model through the prompt's
        // reasoning-effort channel.
        let mut request = request.clone();
        request.prompt.reasoning_effort *= tier.effort_factor();
        let response = self.inner.complete(&request)?;

        // Mini-tier schema linking loses a slice of its recall.
        if request.prompt.task == TaskKind::SchemaLinking && tier.linking_loss() > 0.0 {
            if let CompletionResponse::Items(items) = &response {
                let kept: Vec<String> = items
                    .iter()
                    .filter(|key| {
                        hash01(
                            &["mini-linking", key, &request.prompt.question],
                            request.seed,
                        ) >= tier.linking_loss()
                    })
                    .cloned()
                    .collect();
                return Ok(CompletionResponse::Items(kept));
            }
        }
        Ok(response)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::prompt::Prompt;

    struct Fixed;
    impl LanguageModel for Fixed {
        fn name(&self) -> &str {
            "fixed"
        }
        fn complete(&self, request: &CompletionRequest) -> Result<CompletionResponse, ModelError> {
            Ok(match request.prompt.task {
                TaskKind::SchemaLinking => {
                    CompletionResponse::Items((0..50).map(|i| format!("T.C{i}")).collect())
                }
                // Echo the effective effort so tests can observe routing.
                _ => CompletionResponse::Text(format!("{:.2}", request.prompt.reasoning_effort)),
            })
        }
    }

    #[test]
    fn policy_routing() {
        let p = TierPolicy::paper();
        assert_eq!(p.tier_for(TaskKind::SchemaLinking), ModelTier::Mini);
        assert_eq!(p.tier_for(TaskKind::SqlGeneration), ModelTier::Full);
        assert_eq!(
            TierPolicy::all_mini().tier_for(TaskKind::PlanGeneration),
            ModelTier::Mini
        );
    }

    #[test]
    fn ledger_accumulates_by_tier() {
        let m = TieredModel::new(Fixed, TierPolicy::paper());
        m.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::SchemaLinking,
            "q",
        )))
        .unwrap();
        m.complete(&CompletionRequest::new(Prompt::new(
            TaskKind::SqlGeneration,
            "q",
        )))
        .unwrap();
        let ledger = m.ledger();
        assert_eq!(ledger.mini_calls, 1);
        assert_eq!(ledger.full_calls, 1);
        assert!(ledger.cost_units > 0.0);
        m.reset_ledger();
        assert_eq!(m.ledger(), CostLedger::default());
    }

    #[test]
    fn mini_is_cheaper_for_the_same_prompt() {
        let full = TieredModel::new(Fixed, TierPolicy::all_full());
        let mini = TieredModel::new(Fixed, TierPolicy::all_mini());
        let prompt = Prompt::new(TaskKind::SqlGeneration, "the same long question text here");
        full.complete(&CompletionRequest::new(prompt.clone()))
            .unwrap();
        mini.complete(&CompletionRequest::new(prompt)).unwrap();
        assert!(mini.ledger().cost_units < full.ledger().cost_units / 10.0);
    }

    #[test]
    fn mini_linking_drops_some_items() {
        let m = TieredModel::new(Fixed, TierPolicy::paper());
        let r = m
            .complete(&CompletionRequest::new(Prompt::new(
                TaskKind::SchemaLinking,
                "q",
            )))
            .unwrap();
        let kept = r.as_items().unwrap().len();
        assert!(kept < 50, "mini linking should lose items");
        assert!(kept > 30, "but only a small slice");
        // Full tier keeps everything.
        let m = TieredModel::new(Fixed, TierPolicy::all_full());
        let r = m
            .complete(&CompletionRequest::new(Prompt::new(
                TaskKind::SchemaLinking,
                "q",
            )))
            .unwrap();
        assert_eq!(r.as_items().unwrap().len(), 50);
    }

    #[test]
    fn mini_reduces_generation_effort() {
        let m = TieredModel::new(Fixed, TierPolicy::all_mini());
        let r = m
            .complete(&CompletionRequest::new(Prompt::new(
                TaskKind::SqlGeneration,
                "q",
            )))
            .unwrap();
        assert_eq!(r.as_text().unwrap(), "0.55");
        let m = TieredModel::new(Fixed, TierPolicy::all_full());
        let r = m
            .complete(&CompletionRequest::new(Prompt::new(
                TaskKind::SqlGeneration,
                "q",
            )))
            .unwrap();
        assert_eq!(r.as_text().unwrap(), "1.00");
    }
}
