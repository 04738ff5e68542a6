//! Pipeline configuration and the Table-2 ablation switches.

/// Configuration of the GenEdit generation pipeline (§2.1, §3).
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Examples kept after re-ranking (operator 3).
    pub example_top_k: usize,
    /// Instructions kept after re-ranking (operator 4).
    pub instruction_top_k: usize,
    /// Schema elements kept after linking + re-rank filtering (operator 5).
    pub schema_top_k: usize,
    /// Candidate SQL queries sampled per generation round at most (§3:
    /// "one or more candidate SQL queries … GenEdit picks the 'best'
    /// one"): they are sampled in seed order and the first that parses
    /// and executes is taken.
    pub candidates: usize,
    /// Maximum regenerations on syntactic/semantic errors (§3: "might
    /// regenerate the query up to k times").
    pub max_retries: usize,
    /// Operator 1: canonical-form reformulation.
    pub use_reformulation: bool,
    /// Operator 2: intent classification.
    pub use_intent_classification: bool,
    /// Operator 5: schema linking (off = ship the full schema).
    pub use_schema_linking: bool,
    /// Operator 4: instruction selection.
    pub use_instructions: bool,
    /// Operator 3: example selection.
    pub use_examples: bool,
    /// First generation call: CoT plan.
    pub use_plan: bool,
    /// Attach pseudo-SQL to plan steps.
    pub use_pseudo_sql: bool,
    /// Feed benchmark evidence strings to the model. GenEdit relies on its
    /// knowledge set instead (the evidence's content entered the set
    /// during pre-processing), so this is off by default.
    pub include_evidence: bool,
}

impl Default for PipelineConfig {
    fn default() -> PipelineConfig {
        PipelineConfig {
            example_top_k: 10,
            instruction_top_k: 6,
            schema_top_k: 12,
            candidates: 2,
            max_retries: 2,
            use_reformulation: true,
            use_intent_classification: true,
            use_schema_linking: true,
            use_instructions: true,
            use_examples: true,
            use_plan: true,
            use_pseudo_sql: true,
            include_evidence: false,
        }
    }
}

/// The ablations of Table 2. `WithoutDecomposition` acts at pre-processing
/// time (examples stored as full queries) rather than at inference time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Ablation {
    /// Full GenEdit, nothing removed.
    None,
    /// Skip the schema-linking operator (full schema shipped).
    WithoutSchemaLinking,
    /// Drop retrieved instructions from the prompt.
    WithoutInstructions,
    /// Drop retrieved examples from the prompt.
    WithoutExamples,
    /// Strip pseudo-SQL from example fragments.
    WithoutPseudoSql,
    /// Store examples as full queries instead of decomposed fragments.
    WithoutDecomposition,
}

impl Ablation {
    /// Every ablation, in Table 2 row order.
    pub const ALL: [Ablation; 6] = [
        Ablation::None,
        Ablation::WithoutSchemaLinking,
        Ablation::WithoutInstructions,
        Ablation::WithoutExamples,
        Ablation::WithoutPseudoSql,
        Ablation::WithoutDecomposition,
    ];

    /// Table 2 row label for this ablation.
    pub fn label(&self) -> &'static str {
        match self {
            Ablation::None => "GenEdit",
            Ablation::WithoutSchemaLinking => "w/o Schema Linking",
            Ablation::WithoutInstructions => "w/o Instructions",
            Ablation::WithoutExamples => "w/o Examples",
            Ablation::WithoutPseudoSql => "w/o Pseudo-SQL",
            Ablation::WithoutDecomposition => "w/o Decomposition",
        }
    }

    /// Apply the inference-time part of this ablation to a config.
    pub fn apply(&self, config: &mut PipelineConfig) {
        match self {
            Ablation::None | Ablation::WithoutDecomposition => {}
            Ablation::WithoutSchemaLinking => config.use_schema_linking = false,
            Ablation::WithoutInstructions => config.use_instructions = false,
            Ablation::WithoutExamples => config.use_examples = false,
            Ablation::WithoutPseudoSql => config.use_pseudo_sql = false,
        }
    }

    /// Does this ablation require the knowledge set to be rebuilt with
    /// full-query examples?
    pub fn needs_full_query_examples(&self) -> bool {
        matches!(self, Ablation::WithoutDecomposition)
    }

    /// A default [`PipelineConfig`] with this ablation applied.
    pub fn config(&self) -> PipelineConfig {
        let mut c = PipelineConfig::default();
        self.apply(&mut c);
        c
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_toggle_expected_switch() {
        assert!(!Ablation::WithoutSchemaLinking.config().use_schema_linking);
        assert!(!Ablation::WithoutInstructions.config().use_instructions);
        assert!(!Ablation::WithoutExamples.config().use_examples);
        assert!(!Ablation::WithoutPseudoSql.config().use_pseudo_sql);
        let full = Ablation::None.config();
        assert!(full.use_schema_linking && full.use_instructions && full.use_examples);
        assert!(Ablation::WithoutDecomposition.config().use_examples);
        assert!(Ablation::WithoutDecomposition.needs_full_query_examples());
    }

    #[test]
    fn labels_match_table2() {
        assert_eq!(Ablation::WithoutPseudoSql.label(), "w/o Pseudo-SQL");
        assert_eq!(Ablation::ALL.len(), 6);
    }
}
