//! Golden pin for every way knowledge enters the set and reaches disk.
//!
//! The expected values were captured at the commit *before* the
//! knowledge crate's four copies of "checkpoint, apply every edit, all or
//! nothing" moved onto `KnowledgeSet::merge`, its two document → edits
//! rules onto `DomainDocument::edits`, and its two shadow-page flushes
//! onto one `publish`, so a change to any of them must reproduce every
//! set, every `knowledge.wal`, every `knowledge.json` and every
//! `pages.dat` bit for bit. Run this test before and after touching
//! `crates/knowledge/src/{set,staging,store,recovery,tenants,pool}.rs`.
//!
//! The tenant script never calls `forget`: a cold load re-derives the
//! free-slot list, which is allowed to move slot choices after it.
//!
//! The `pages.dat` and `<tenant> directory` digests were re-pinned when
//! `PageDirectory` stopped storing its unread `free_slots` list, which
//! shortens every meta-page record; every `knowledge.json` and every
//! `knowledge.wal` kept its pin.
//!
//! Every `knowledge.json`, `recovered set` and `<domain> refreshed`
//! digest was re-pinned when a checkpoint became its log position: each
//! `[info, content]` checkpoint entry became `info`, and nothing else
//! moved. The tenants' snapshots shrank with them, so the `snapshot_len`
//! their directories are stamped with moved the `<tenant> directory`
//! digests and each `pages.dat`'s meta page. Every `knowledge.wal`,
//! `<domain> built` and `<domain> refresh report` digest kept its pin.

use genedit::bird::Workload;
use genedit::knowledge::fs::MemFs;
use genedit::knowledge::tenants::{TenantKnowledgeStore, TenantStoreConfig};
use genedit::knowledge::{
    persist, refresh_document, DurableKnowledgeStore, Edit, ExampleId, FragmentKind, Guideline,
    Intent, RetrievalStage, SchemaElement, SourceRef, SqlFragment, StagingArea, StoreConfig,
    StoreFs,
};
use genedit::telemetry::hash::{fnv1a64, fnv1a64_from};
use std::path::Path;
use std::sync::Arc;

struct Digests(Vec<(String, u64)>);

impl Digests {
    fn feed(&mut self, name: impl Into<String>, bytes: &[u8]) {
        let name = name.into();
        let seed = fnv1a64(name.as_bytes());
        self.0.push((name, fnv1a64_from(seed, bytes)));
    }

    fn check(&self, expected: &[(&str, u64)]) {
        let got: Vec<(&str, u64)> = self.0.iter().map(|(n, d)| (n.as_str(), *d)).collect();
        let listing: String = got
            .iter()
            .map(|(n, d)| format!("        ({n:?}, {d:#018x}),\n"))
            .collect();
        assert!(got == expected, "digests moved; got\n{listing}");
    }
}

fn example(desc: &str, feedback_id: u64) -> Edit {
    Edit::InsertExample {
        intent: Some("fin".into()),
        description: desc.into(),
        fragment: SqlFragment::new(
            FragmentKind::Where,
            format!("WHERE NOTE = '{desc}'"),
            "main",
        ),
        term: None,
        source: SourceRef::Feedback { feedback_id },
    }
}

fn instruction(text: &str) -> Edit {
    Edit::InsertInstruction {
        intent: None,
        text: text.into(),
        sql_hint: Some("-1 * (b - a)".into()),
        term: Some("QoQ".into()),
        source: SourceRef::Manual,
    }
}

fn staged(edits: Vec<Edit>) -> StagingArea {
    let mut area = StagingArea::new();
    for e in edits {
        area.stage(e);
    }
    area
}

#[test]
fn preprocessing_and_refresh_are_pinned() {
    let mut d = Digests(Vec::new());
    for bundle in &Workload::standard(42).domains {
        let mut ks = bundle.build_knowledge();
        let json = persist::to_json(&ks).unwrap();
        d.feed(format!("{} built", bundle.spec.key), json.as_bytes());

        // An edited copy of the domain's first document: one definition
        // reworded and given SQL, one guideline dropped, one added.
        let mut doc = bundle.docs[0].clone();
        doc.terms[0].meaning = format!("{} (revised)", doc.terms[0].meaning);
        doc.terms[0].sql = Some("OWNERSHIP_FLAG = 'ours'".into());
        doc.guidelines.pop();
        doc.guidelines.push(Guideline {
            text: "Report ratios to two decimal places".into(),
            sql_hint: Some("ROUND(x, 2)".into()),
            intent: None,
            section: "format".into(),
        });
        let (checkpoint, report) = refresh_document(&mut ks, &doc).unwrap();
        let json = persist::to_json(&ks).unwrap();
        d.feed(format!("{} refreshed", bundle.spec.key), json.as_bytes());
        d.feed(
            format!("{} refresh report", bundle.spec.key),
            format!("{checkpoint} {report:?}").as_bytes(),
        );
    }
    d.check(&[
        ("sports built", 0xed56c67c656e69ab),
        ("sports refreshed", 0x8c501ff93c463773),
        ("sports refresh report", 0x28d9ff9755258ce5),
        ("retail built", 0x186f324935d54819),
        ("retail refreshed", 0x7e9ed5fb9c4cdf71),
        ("retail refresh report", 0xefa2dcd22c7e6f0d),
        ("health built", 0x9aa180dd6b90188a),
        ("health refreshed", 0xf79c7ae3c16dae56),
        ("health refresh report", 0x9d184b5261871b66),
        ("logistics built", 0xf82fece8bdd27d43),
        ("logistics refreshed", 0x17a6b1e50aa4677b),
        ("logistics refresh report", 0x4e9718cd69b89b2f),
    ]);
}

#[test]
fn durable_store_bytes_are_pinned() {
    let mem = Arc::new(MemFs::new());
    let open = || {
        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        DurableKnowledgeStore::open_with(
            fs,
            "knowledge.json",
            "knowledge.wal",
            StoreConfig::default(),
            None,
        )
        .unwrap()
    };
    let mut store = open();
    store
        .apply(Edit::AddIntent(Intent::new("fin", "Financial", "money")))
        .unwrap();
    store.apply(example("base", 0)).unwrap();
    store.apply(instruction("negate the change")).unwrap();
    store.checkpoint("before merges").unwrap();
    store
        .commit(
            staged(vec![
                example("m1", 1),
                Edit::UpdateExample {
                    id: ExampleId(0),
                    description: Some("base, corrected".into()),
                    fragment: None,
                    term: Some(Some("BASE".into())),
                    source: SourceRef::Feedback { feedback_id: 1 },
                },
                Edit::AddRetrievalHint {
                    stage: RetrievalStage::SchemaLinking,
                    text: "prefer the ownership flag for 'our'".into(),
                },
            ]),
            "merge feedback 1",
        )
        .unwrap();
    // A refused batch leaves no trace in the journal or the set.
    assert!(store
        .commit(
            staged(vec![
                example("never", 2),
                Edit::DeleteExample { id: ExampleId(1) },
                Edit::DeleteExample { id: ExampleId(1) },
            ]),
            "doomed",
        )
        .is_err());
    store.compact().unwrap();
    store
        .commit(
            staged(vec![
                Edit::DeleteExample { id: ExampleId(1) },
                example("m2", 3),
                Edit::AddSchemaElement(SchemaElement {
                    table: "FIN".into(),
                    column: Some("REVENUE".into()),
                    description: "booked revenue".into(),
                    top_values: vec!["10".into(), "20".into()],
                    intents: vec!["fin".into()],
                }),
            ]),
            "merge feedback 3",
        )
        .unwrap();
    let live = persist::to_json(store.set()).unwrap();
    drop(store);

    let mut d = Digests(Vec::new());
    for path in ["knowledge.wal", "knowledge.json"] {
        d.feed(path, &mem.read(Path::new(path)).unwrap());
    }
    let recovered = persist::to_json(open().set()).unwrap();
    assert_eq!(recovered, live, "recovery must reproduce the live set");
    d.feed("recovered set", recovered.as_bytes());
    d.check(&[
        ("knowledge.wal", 0x03f609496f6c1f33),
        ("knowledge.json", 0x2ffbb6a616c2f20d),
        ("recovered set", 0xa76edc227c84a682),
    ]);
}

#[test]
fn tenant_store_bytes_are_pinned() {
    let mem = Arc::new(MemFs::new());
    let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
    let store = Arc::new(TenantKnowledgeStore::new_with(
        fs,
        "/kb",
        TenantStoreConfig {
            page_size: 512,
            pool_budget_bytes: 8 * 512,
            shards: 2,
            // Small enough that some commits fold the WAL into a snapshot.
            store: StoreConfig {
                compact_after_bytes: Some(3 * 1024),
            },
        },
        None,
    ));
    let tenants = ["acme", "globex", "initech"];
    for round in 0..6usize {
        for (t, tenant) in tenants.iter().enumerate() {
            let mut batch = vec![example(&format!("{tenant} r{round} a"), round as u64)];
            if t != 1 {
                batch.push(instruction(&format!("{tenant} r{round} note")));
            }
            if round == 0 {
                batch.push(Edit::AddIntent(Intent::new("fin", "Financial", *tenant)));
            }
            if round == 3 {
                // The first example every tenant inserted in round 0.
                batch.push(Edit::DeleteExample { id: ExampleId(0) });
            }
            let epoch = store
                .commit(tenant, staged(batch), &format!("round {round}"))
                .unwrap();

            let snap = store.snapshot(tenant).unwrap();
            assert_eq!(snap.epoch(), epoch);
            let before = snap.content().unwrap();

            // A write under the open snapshot must not move what it reads.
            store
                .apply(
                    tenant,
                    Edit::AddSchemaElement(SchemaElement {
                        table: "FIN".into(),
                        column: Some(format!("C{}", round % 3)),
                        description: format!("{tenant} column, round {round}"),
                        top_values: vec![round.to_string()],
                        intents: vec!["fin".into()],
                    }),
                )
                .unwrap();
            assert_eq!(snap.content().unwrap(), before);
            drop(snap);
            store
                .apply(tenant, example(&format!("{tenant} r{round} b"), 90))
                .unwrap();
        }
    }

    let mut d = Digests(Vec::new());
    for path in mem.paths() {
        d.feed(path.display().to_string(), &mem.read(&path).unwrap());
    }
    for tenant in tenants {
        let snap = store.snapshot(tenant).unwrap();
        d.feed(
            format!("{tenant} directory"),
            format!("{:?}", snap.directory()).as_bytes(),
        );
    }
    d.check(&[
        ("/kb/acme/knowledge.json", 0xc6ac391c124b981d),
        ("/kb/acme/knowledge.wal", 0x98fc2912cfdf49d2),
        ("/kb/acme/pages.dat", 0xeaf599d1a9f71aac),
        ("/kb/globex/knowledge.json", 0xd25e3fbcb7b9c1c7),
        ("/kb/globex/knowledge.wal", 0x4d1d99f8363be92e),
        ("/kb/globex/pages.dat", 0x60f2f6b91d815f2e),
        ("/kb/initech/knowledge.json", 0xf83563ad56b74627),
        ("/kb/initech/knowledge.wal", 0x88b86af5d08132dd),
        ("/kb/initech/pages.dat", 0xd57e514d85568c65),
        ("acme directory", 0x5195894802edb4eb),
        ("globex directory", 0x98e3182a4c33d749),
        ("initech directory", 0xc6c45c31a4531c2a),
    ]);
}
