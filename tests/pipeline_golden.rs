//! Golden pin for the generation module: one digest per pipeline
//! configuration over the 132 gold tasks of `Workload::standard(42)`.
//!
//! The expected values were captured at the commit *before*
//! `crates/core/src/pipeline.rs` was split into operator steps, so any
//! refactor of that file must reproduce them bit for bit: the answer
//! (`fingerprint()`, `attempts`, `warnings`) and the trace shape (span
//! names, nesting, attribute keys and every non-timing attribute value).
//! Run this test before and after touching `pipeline.rs`.

use genedit::bird::Workload;
use genedit::core::{GenEditPipeline, Harness, KnowledgeIndex};
use genedit::llm::{FaultConfig, FaultInjector, LanguageModel, OracleModel};
use genedit::telemetry::hash::{fnv1a64, fnv1a64_from};
use genedit::telemetry::Span;
use std::collections::HashMap;
use std::sync::OnceLock;

/// The workload and its per-domain indexes, built once for the binary.
fn fixture() -> &'static (Workload, HashMap<String, KnowledgeIndex>) {
    static FIXTURE: OnceLock<(Workload, HashMap<String, KnowledgeIndex>)> = OnceLock::new();
    FIXTURE.get_or_init(|| {
        let workload = Workload::standard(42);
        let indexes = Harness::new(&workload).build_indexes(true);
        (workload, indexes)
    })
}

fn attrs(span: &Span) -> String {
    span.attrs
        .iter()
        .map(|(key, value)| {
            let timing = ["_ms", "_us", "_ns"].iter().any(|s| key.ends_with(s));
            if timing {
                key.clone()
            } else {
                format!("{key}={value}")
            }
        })
        .collect::<Vec<_>>()
        .join(",")
}

/// `name{attrs}[children]`, depth-first.
fn nested_shape(span: &Span, out: &mut String) {
    out.push_str(&format!("{}{{{}}}[", span.name, attrs(span)));
    for child in &span.children {
        nested_shape(child, out);
    }
    out.push(']');
}

/// Two digests over every gold task in workload order — the answers and
/// the trace shapes — plus every warning raised along the way.
fn digests<M: LanguageModel>(pipeline: &GenEditPipeline<M>) -> ((u64, u64), Vec<String>) {
    let (workload, indexes) = fixture();
    let mut answers = fnv1a64(b"answers");
    let mut traces = fnv1a64(b"traces");
    let mut warnings = Vec::new();
    let mut tasks = 0;
    for bundle in &workload.domains {
        let index = &indexes[&bundle.db.name];
        for task in &bundle.tasks {
            let r = pipeline.generate(&task.question, index, &bundle.db, &[]);
            let answer = format!(
                "{}|{}|{:?}\n",
                r.fingerprint(),
                r.attempts,
                r.trace.warnings
            );
            answers = fnv1a64_from(answers, answer.as_bytes());
            let mut shape = String::new();
            for span in &r.trace.spans {
                nested_shape(span, &mut shape);
            }
            shape.push('\n');
            traces = fnv1a64_from(traces, shape.as_bytes());
            warnings.extend(r.trace.warnings);
            tasks += 1;
        }
    }
    assert_eq!(tasks, 132);
    ((answers, traces), warnings)
}

fn oracle() -> OracleModel {
    OracleModel::new(fixture().0.registry())
}

#[test]
fn default_config_is_pinned() {
    let pipeline = GenEditPipeline::new(oracle());
    let (got, warnings) = digests(&pipeline);
    assert_eq!(
        got,
        (0xfc01_8541_3584_06c9, 0x8305_5566_f14c_5528),
        "got {got:#x?}"
    );
    assert_eq!(warnings, Vec::<String>::new());
}

#[test]
fn every_degrade_arm_is_pinned_under_injected_faults() {
    let faults = FaultConfig {
        transient: 0.08,
        wrong_variant: 0.08,
        ..FaultConfig::default()
    };
    let pipeline = GenEditPipeline::new(FaultInjector::new(oracle(), faults, 42));
    let (got, warnings) = digests(&pipeline);
    assert_eq!(
        got,
        (0x928d_1ac5_0009_1745, 0xc2aa_2385_5e92_b39f),
        "got {got:#x?}"
    );
    // Both arms (wrong variant, transport error) of all five model calls.
    for arm in [
        "reformulation returned no text",
        "reformulation failed",
        "intent classification returned no item list",
        "intent classification failed",
        "schema linking returned no item list",
        "schema linking failed",
        "plan generation returned no plan",
        "plan generation failed",
        "model returned no SQL",
        "SQL generation candidate failed",
    ] {
        let fired = warnings.iter().filter(|w| w.contains(arm)).count();
        assert!(fired > 0, "degrade arm {arm:?} never fired");
    }
}
