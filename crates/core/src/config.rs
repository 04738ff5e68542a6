//! Pipeline configuration and the Table-2 ablations.

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
    /// The Table-2 row this pipeline runs: which one operator, if any,
    /// is taken away. Reformulation, intent classification and the CoT
    /// plan always run.
    pub ablation: Ablation,
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
            ablation: Ablation::None,
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

    /// Does this ablation require the knowledge set to be rebuilt with
    /// full-query examples?
    pub fn needs_full_query_examples(&self) -> bool {
        matches!(self, Ablation::WithoutDecomposition)
    }

    /// A default [`PipelineConfig`] running this ablation.
    pub fn config(&self) -> PipelineConfig {
        PipelineConfig {
            ablation: *self,
            ..PipelineConfig::default()
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ablations_toggle_expected_switch() {
        for ablation in Ablation::ALL {
            assert_eq!(ablation.config().ablation, ablation);
            assert_eq!(
                ablation.needs_full_query_examples(),
                ablation == Ablation::WithoutDecomposition
            );
        }
        assert_eq!(PipelineConfig::default().ablation, Ablation::None);
    }

    #[test]
    fn labels_match_table2() {
        assert_eq!(Ablation::WithoutPseudoSql.label(), "w/o Pseudo-SQL");
        assert_eq!(Ablation::ALL.len(), 6);
    }
}
