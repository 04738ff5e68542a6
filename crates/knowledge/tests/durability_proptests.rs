//! Durability property tests: the durable knowledge store under
//! deterministic crash points and storage-fault schedules.
//!
//! The properties:
//! 1. crash anywhere — recovery never panics and restores *exactly* the
//!    acknowledged prefix: every acked operation survives (every append
//!    is fsynced, so there is no loss window) and no unacked operation
//!    leaks in;
//! 2. arbitrary interleavings of appends, staged merges, checkpoints,
//!    and snapshot compactions reload to the identical set — no torn or
//!    duplicated records, with or without a crash in between — and
//!    serialize to the same bytes as a plain in-memory set;
//! 3. under random storage faults (short writes, torn writes, bit
//!    flips, failed fsyncs/renames) recovery still returns a
//!    self-consistent state — the replay of its own audit log — and
//!    re-opening an already-recovered store is idempotent;
//! 4. a quarantined journal is renamed aside (never deleted) and leaves
//!    a telemetry trail.

use genedit_knowledge::{
    scan, to_json, DurableKnowledgeStore, Edit, FaultyFs, IoFaultConfig, KnowledgeSet, MemFs,
    RecoveryOutcome, RetrievalStage, StagingArea, StoreConfig, StoreError, StoreFs,
};
use genedit_knowledge::{FragmentKind, SourceRef, SqlFragment};
use genedit_telemetry::MetricsRegistry;
use proptest::prelude::*;
use std::path::Path;
use std::sync::Arc;

fn insert(desc: &str) -> Edit {
    Edit::InsertExample {
        intent: None,
        description: desc.into(),
        fragment: SqlFragment::new(FragmentKind::Where, "WHERE A = 1", "main"),
        term: None,
        source: SourceRef::Manual,
    }
}

/// One store operation of the replayed workload.
#[derive(Debug, Clone)]
enum Op {
    Insert(String),
    Hint(String),
    Checkpoint(String),
    Merge(Vec<String>),
    Compact,
}

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        "[a-z]{1,8}".prop_map(Op::Insert),
        "[a-z]{1,8}".prop_map(Op::Hint),
        "[a-z]{1,6}".prop_map(Op::Checkpoint),
        prop::collection::vec("[a-z]{1,8}".prop_map(String::from), 1..4).prop_map(Op::Merge),
        Just(Op::Compact),
        "[a-z]{1,8}".prop_map(Op::Insert),
        prop::collection::vec("[a-z]{1,8}".prop_map(String::from), 1..4).prop_map(Op::Merge),
    ]
}

fn hint(text: &str) -> Edit {
    Edit::AddRetrievalHint {
        stage: RetrievalStage::SchemaLinking,
        text: text.into(),
    }
}

fn apply_op(store: &mut DurableKnowledgeStore, op: &Op) -> Result<(), StoreError> {
    match op {
        Op::Insert(d) => store.apply(insert(d)).map(|_| ()),
        Op::Hint(t) => store.apply(hint(t)).map(|_| ()),
        Op::Checkpoint(label) => store.checkpoint(label).map(|_| ()),
        Op::Merge(descs) => {
            let mut area = StagingArea::new();
            for d in descs {
                area.stage(insert(d));
            }
            store.commit(area, "merge").map(|_| ())
        }
        Op::Compact => store.compact(),
    }
}

/// The same operation on a plain in-memory set, with no durable layer.
fn apply_plain(set: &mut KnowledgeSet, op: &Op) {
    match op {
        Op::Insert(d) => {
            set.apply(insert(d)).expect("valid edit");
        }
        Op::Hint(t) => {
            set.apply(hint(t)).expect("valid edit");
        }
        Op::Checkpoint(label) => {
            set.checkpoint(label.clone());
        }
        Op::Merge(descs) => {
            let mut area = StagingArea::new();
            for d in descs {
                area.stage(insert(d));
            }
            area.commit(set, "merge").expect("valid merge");
        }
        Op::Compact => {}
    }
}

fn open(fs: Arc<dyn StoreFs>) -> Result<DurableKnowledgeStore, StoreError> {
    DurableKnowledgeStore::open_with(fs, "k.json", "k.wal", StoreConfig::default(), None)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Property 1: crash at an arbitrary fs-operation count, during any
    /// workload. The recovered store must be content-equal to the state
    /// after the last *acknowledged* operation — nothing acked is lost,
    /// nothing unacked leaks in — and re-opening again changes nothing.
    #[test]
    fn crash_at_any_point_recovers_exactly_the_acked_prefix(
        ops in prop::collection::vec(arb_op(), 1..20),
        crash_after in 1u64..180,
        seed in 0u64..1_000,
    ) {
        let mem = Arc::new(MemFs::new());
        let faulty: Arc<dyn StoreFs> = Arc::new(FaultyFs::new(
            Arc::clone(&mem) as Arc<dyn StoreFs>,
            IoFaultConfig::crash_at(crash_after),
            seed,
        ));
        let mut acked = KnowledgeSet::new();
        if let Ok(mut store) = open(faulty) {
            acked = store.set().clone();
            for op in &ops {
                match apply_op(&mut store, op) {
                    Ok(()) => acked = store.set().clone(),
                    // First failure is the simulated crash; every later
                    // operation is refused too.
                    Err(_) => break,
                }
            }
        }
        mem.crash();

        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let reopened = open(Arc::clone(&fs)).expect("recovery on a healthy fs never fails");
        prop_assert!(
            reopened.set().content_eq(&acked),
            "recovered {:?} != acked {:?} (crash_after={crash_after})",
            reopened.set().stats(),
            acked.stats(),
        );
        prop_assert_eq!(reopened.set().log().len(), acked.log().len());
        prop_assert_eq!(reopened.set().checkpoints().len(), acked.checkpoints().len());

        // Idempotent: recovery already repaired the files in place.
        drop(reopened);
        let again = open(fs).expect("second open never fails");
        prop_assert!(again.set().content_eq(&acked));
        prop_assert!(
            !again.recovery_report().repaired(),
            "second open found damage: {:?}",
            again.recovery_report()
        );
    }

    /// Property 2: without faults, any interleaving of appends, merges,
    /// checkpoints, and compactions reloads exactly — before and after a
    /// crash (every append is fsynced, so acked == durable). The
    /// journaled store serializes byte for byte like a plain in-memory
    /// set driven through the same operations, and reloads clean.
    #[test]
    fn interleaved_appends_and_compactions_reload_exactly(
        ops in prop::collection::vec(arb_op(), 1..25),
    ) {
        let mem = Arc::new(MemFs::new());
        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let mut store = open(Arc::clone(&fs)).expect("open");
        let mut plain = KnowledgeSet::new();
        for op in &ops {
            apply_op(&mut store, op).expect("no faults injected");
            apply_plain(&mut plain, op);
        }
        let live = store.set().clone();
        let plain_json = to_json(&plain).expect("serialize");
        prop_assert_eq!(to_json(&live).expect("serialize"), plain_json.clone());
        drop(store);

        let reloaded = open(Arc::clone(&fs)).expect("reload");
        prop_assert!(reloaded.set().content_eq(&live));
        prop_assert_eq!(reloaded.set().log().len(), live.log().len(), "no torn/duplicated records");
        prop_assert_eq!(reloaded.set().checkpoints().len(), live.checkpoints().len());
        prop_assert_eq!(reloaded.recovery_report().outcome, RecoveryOutcome::Clean);
        prop_assert_eq!(to_json(reloaded.set()).expect("serialize"), plain_json);
        drop(reloaded);

        mem.crash();
        let recovered = open(fs).expect("recover");
        prop_assert!(recovered.set().content_eq(&live));
        prop_assert_eq!(recovered.set().log().len(), live.log().len());
    }

    /// Property 3: under random storage faults the store may lose
    /// acknowledged data (a torn write acks bytes that never hit the
    /// platter) but recovery must never panic or error, must produce a
    /// state that is the replay of its own audit log, and must leave the
    /// files repaired so the next open is clean.
    #[test]
    fn random_storage_faults_never_break_recovery(
        ops in prop::collection::vec(arb_op(), 1..20),
        rate in 0.0f64..0.25,
        seed in 0u64..1_000,
    ) {
        let mem = Arc::new(MemFs::new());
        let faulty: Arc<dyn StoreFs> = Arc::new(FaultyFs::new(
            Arc::clone(&mem) as Arc<dyn StoreFs>,
            IoFaultConfig::uniform(rate),
            seed,
        ));
        if let Ok(mut store) = open(faulty) {
            for op in &ops {
                // Faults are transient here: keep driving the workload.
                let _ = apply_op(&mut store, op);
            }
        }
        mem.crash();

        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        let reopened = open(Arc::clone(&fs)).expect("recovery on a healthy fs never fails");
        let replayed = KnowledgeSet::from_log(
            reopened.set().log().iter().map(|l| l.edit.clone()),
        )
        .expect("recovered audit log must replay");
        prop_assert!(
            replayed.content_eq(reopened.set()),
            "recovered state is not the replay of its own log"
        );
        let first = reopened.set().clone();
        drop(reopened);

        let again = open(fs).expect("second open never fails");
        prop_assert!(again.set().content_eq(&first), "reopen must be idempotent");
        prop_assert!(
            !again.recovery_report().repaired(),
            "second open found damage: {:?}",
            again.recovery_report()
        );
    }
}

/// Property 4 as a deterministic test: mid-file journal corruption is
/// quarantined — the damaged file is renamed aside, never deleted — and
/// the event is visible in telemetry (a recovery warning and the
/// `store.recovery.quarantined` counter).
#[test]
fn quarantined_journal_leaves_the_file_and_a_warning() {
    let mem = Arc::new(MemFs::new());
    let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
    let mut store = DurableKnowledgeStore::open_with(
        Arc::clone(&fs),
        "k.json",
        "k.wal",
        StoreConfig::default(),
        None,
    )
    .expect("open");
    for i in 0..6 {
        store.apply(insert(&format!("e{i}"))).expect("apply");
    }
    drop(store);

    // Flip one payload byte in a mid-file record (readable data follows,
    // so this is corruption, not a torn tail).
    let mut bytes = mem.read(Path::new("k.wal")).expect("journal exists");
    let offsets = scan(&bytes).offsets;
    assert!(offsets.len() >= 4);
    let victim = offsets[2] as usize + 8 + 2; // 2 bytes into record 2's payload
    bytes[victim] ^= 0x40;
    mem.write_file(Path::new("k.wal"), &bytes).expect("rewrite");
    mem.fsync(Path::new("k.wal")).expect("fsync");

    let metrics = Arc::new(MetricsRegistry::new());
    let store = DurableKnowledgeStore::open_with(
        fs,
        "k.json",
        "k.wal",
        StoreConfig::default(),
        Some(Arc::clone(&metrics)),
    )
    .expect("quarantine is not fatal");

    let report = store.recovery_report();
    assert!(report
        .quarantined
        .iter()
        .any(|p| p.to_string_lossy().contains("k.wal.quarantine")));
    assert!(
        mem.paths()
            .iter()
            .any(|p| p.to_string_lossy().contains("k.wal.quarantine")),
        "quarantined file must stay on disk: {:?}",
        mem.paths()
    );
    // The valid prefix (the records before the flipped byte) survived.
    assert!(!store.set().examples().is_empty());
    assert_eq!(metrics.counter("store.recovery.quarantined"), 1);
    assert!(
        metrics.counter("trace.warnings") >= 1,
        "quarantine must leave a warning in telemetry"
    );
}
