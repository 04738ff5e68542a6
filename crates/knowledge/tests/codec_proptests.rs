//! The byte-level decoders every page read and WAL replay goes through,
//! each held to a straightforward reference kept in this file:
//!
//! 1. `crc32` (slicing-by-8) equals the bytewise table loop at every
//!    length up to a page and a bit, from unaligned starts, and
//!    `crc32_parts` equals `crc32` of the concatenation;
//! 2. the JSON string decoder (a run at a time) returns the same value,
//!    or fails, exactly where a character-at-a-time loop does;
//! 3. nesting deep enough to overflow the stack of a recursive parser is
//!    an error: a WAL record or snapshot of 100k `[` is quarantined by
//!    recovery instead of aborting the process;
//! 4. `Page::decode` returns, never panics, on arbitrary bytes and on
//!    pages whose header and slot fields are arbitrary but re-sealed
//!    with a valid CRC, and a page it accepts reads and re-seals cleanly;
//! 5. `journal::scan` returns a consistent outcome on arbitrary bytes,
//!    stops at the frame a single bit flip damaged, and keeps the prefix
//!    before a flipped frame re-sealed under a valid CRC;
//! 6. `recover`'s snapshot decode returns on arbitrary and bit-flipped
//!    snapshot bytes: it loads a set that re-encodes stably, or
//!    quarantines the snapshot and starts empty.

use genedit_knowledge::journal::{crc32_parts, RECORD_HEADER_BYTES};
use genedit_knowledge::page::{PAGE_MAGIC, PAGE_VERSION};
use genedit_knowledge::{
    crc32, encode_record, from_json, recover, scan, to_json, DurableKnowledgeStore, Edit,
    FragmentKind, JournalRecord, KnowledgeSet, MemFs, Page, RecoveryOutcome, ScanEnd, ScanOutcome,
    SourceRef, SqlFragment, StoreConfig, StoreFs,
};
use proptest::prelude::*;
use serde_json::Value;
use std::path::Path;
use std::sync::Arc;

/// The bytewise CRC-32 table loop: one lookup and one dependent shift
/// per byte.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
    let table = bytewise_table();
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc = bytewise_step(&table, crc, b);
    }
    !crc
}

/// The bytewise loop's table: what each byte contributes to the register.
fn bytewise_table() -> [u32; 256] {
    let mut table = [0u32; 256];
    for (i, entry) in table.iter_mut().enumerate() {
        let mut crc = i as u32;
        for _ in 0..8 {
            crc = if crc & 1 != 0 {
                (crc >> 1) ^ 0xedb8_8320
            } else {
                crc >> 1
            };
        }
        *entry = crc;
    }
    table
}

/// One step of the bytewise loop: `b` folded into the register.
fn bytewise_step(table: &[u32; 256], crc: u32, b: u8) -> u32 {
    (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize]
}

/// A JSON document that is one string, decoded a character at a time,
/// each step re-validating the rest of the input: `Some(decoded)` where
/// the parser must return `Ok`, `None` where it must return `Err`.
fn string_document_char_loop(doc: &str) -> Option<String> {
    let bytes = doc.as_bytes();
    let skip_ws = |pos: &mut usize| {
        while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
            *pos += 1;
        }
    };
    let mut pos = 0;
    skip_ws(&mut pos);
    if bytes.get(pos) != Some(&b'"') {
        return None;
    }
    pos += 1;
    let mut out = String::new();
    loop {
        match bytes.get(pos) {
            None => return None,
            Some(b'"') => {
                pos += 1;
                break;
            }
            Some(b'\\') => {
                pos += 1;
                match bytes.get(pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'b') => out.push('\u{0008}'),
                    Some(b'f') => out.push('\u{000c}'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'u') => {
                        let hex = bytes.get(pos + 1..pos + 5)?;
                        let code = u32::from_str_radix(std::str::from_utf8(hex).ok()?, 16).ok()?;
                        out.push(char::from_u32(code)?);
                        pos += 4;
                    }
                    _ => return None,
                }
                pos += 1;
            }
            Some(_) => {
                let rest = std::str::from_utf8(&bytes[pos..]).ok()?;
                let c = rest.chars().next()?;
                out.push(c);
                pos += c.len_utf8();
            }
        }
    }
    skip_ws(&mut pos);
    (pos == bytes.len()).then_some(out)
}

/// Pieces of a JSON string body: plain and non-ASCII runs (astral
/// characters included), raw control characters, every escape and `\u`
/// escapes — and, one piece in sixteen, something the decoder must
/// refuse or that ends the string early: a quote, a surrogate or
/// malformed `\u` escape (a `+` sign, too few digits), a bad escape, a
/// lone backslash.
fn body_piece() -> impl Strategy<Value = String> {
    let valid = prop_oneof![
        "[a-zA-Z0-9 _.,:]{1,8}",
        "[éüß中İẞ😀𝄞]{1,3}",
        "[\u{0}-\u{1f}\u{7f}]{1,2}",
        "\\\\[\"\\\\/bfnrt]",
        "\\\\u[0-9a-fA-F]{4}",
        "\\\\u00[0-9a-f]{2}",
        "[ \t\n]{1,2}",
    ];
    let suspect = prop_oneof![
        Just("\"".to_string()),
        "\\\\u[dD][89abAB][0-9a-f]{2}",
        "\\\\u[0-9a-f+ ]{0,5}",
        "\\\\[xa0 ]",
        Just("\\".to_string()),
    ];
    (valid, suspect, any::<u8>()).prop_map(
        |(valid, suspect, pick)| {
            if pick % 16 == 0 {
                suspect
            } else {
                valid
            }
        },
    )
}

fn document() -> impl Strategy<Value = String> {
    (prop::collection::vec(body_piece(), 0..12), any::<u8>()).prop_map(|(pieces, end)| {
        let body: String = pieces.concat();
        match end % 8 {
            // Unterminated.
            0 => format!("\"{body}"),
            // Surrounding whitespace.
            1 => format!(" \"{body}\"\n"),
            _ => format!("\"{body}\""),
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The run-at-a-time decoder accepts exactly what the char loop
    /// accepts, and decodes it to the same string.
    #[test]
    fn string_decoder_matches_the_char_loop(doc in document()) {
        let got = serde_json::parse_value(&doc).ok();
        let expected = string_document_char_loop(&doc).map(Value::Str);
        prop_assert_eq!(got, expected, "{:?} != {:?} for {:?}", got, expected, doc);
    }

    /// Any string survives an encode / decode round trip.
    #[test]
    fn strings_round_trip(pieces in prop::collection::vec(body_piece(), 0..16)) {
        let s: String = pieces.concat();
        let json = serde_json::to_string(&s).unwrap();
        prop_assert_eq!(serde_json::from_str::<String>(&json).unwrap(), s);
    }

    /// Feeding the CRC in pieces gives the CRC of the whole.
    #[test]
    fn crc32_parts_is_crc32_of_the_concatenation(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        cuts in prop::collection::vec(0usize..300, 0..4),
    ) {
        let mut cuts: Vec<usize> = cuts.into_iter().map(|c| c.min(bytes.len())).collect();
        cuts.sort_unstable();
        let mut parts = Vec::new();
        let mut start = 0;
        for cut in cuts.into_iter().chain([bytes.len()]) {
            parts.push(&bytes[start..cut]);
            start = cut;
        }
        prop_assert_eq!(crc32_parts(&parts), crc32(&bytes));
        prop_assert_eq!(crc32(&bytes), crc32_bytewise(&bytes));
    }
}

/// Every length from empty to past a 4 KiB page, from each of eight
/// start offsets, so the 8-byte blocks meet every alignment and every
/// remainder length. The bytewise reference runs one register over the
/// growing prefix, so each length costs it one step, not a pass.
#[test]
fn crc32_equals_the_bytewise_loop_at_every_length() {
    let mut state = 0x9e37_79b9_7f4a_7c15u64;
    let data: Vec<u8> = (0..4_200 + 8)
        .map(|_| {
            state = state
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1_442_695_040_888_963_407);
            (state >> 56) as u8
        })
        .collect();
    let table = bytewise_table();
    for offset in 0..8 {
        let mut register: u32 = 0xffff_ffff;
        for len in 0..=4_200 {
            assert_eq!(
                crc32(&data[offset..offset + len]),
                !register,
                "offset {offset} len {len}"
            );
            if let Some(&b) = data.get(offset + len) {
                register = bytewise_step(&table, register, b);
            }
        }
    }
    assert_eq!(crc32(b"123456789"), 0xcbf4_3926);
}

fn edit(desc: &str) -> Edit {
    Edit::InsertExample {
        intent: None,
        description: desc.into(),
        fragment: SqlFragment::new(FragmentKind::Where, "WHERE A = 1", "main"),
        term: None,
        source: SourceRef::Manual,
    }
}

/// A well-framed, CRC-valid journal frame around an arbitrary payload.
fn frame(payload: &[u8]) -> Vec<u8> {
    let mut out = Vec::with_capacity(RECORD_HEADER_BYTES + payload.len());
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(payload).to_le_bytes());
    out.extend_from_slice(payload);
    out
}

/// The CRC vouches for the medium, not the writer: a valid frame can
/// hold any bytes. One holding 100k `[` would overflow the stack of an
/// unbounded recursive decoder and abort the process; it must be a
/// record that does not decode, and recovery quarantines the journal
/// around it. A snapshot of the same bytes is quarantined too.
#[test]
fn deeply_nested_records_are_quarantined_not_fatal() {
    let deep = "[".repeat(100_000);
    assert!(serde_json::from_str::<Value>(&deep).is_err());

    let mem = Arc::new(MemFs::new());
    let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
    let mut wal = encode_record(&JournalRecord::Edit(edit("kept"))).unwrap();
    wal.extend_from_slice(&frame(deep.as_bytes()));
    wal.extend_from_slice(&encode_record(&JournalRecord::Edit(edit("after"))).unwrap());
    fs.write_file(Path::new("k.wal"), &wal).unwrap();
    fs.write_file(Path::new("k.json"), deep.as_bytes()).unwrap();

    let open = || {
        let fs: Arc<dyn StoreFs> = Arc::clone(&mem) as Arc<dyn StoreFs>;
        DurableKnowledgeStore::open_with(fs, "k.json", "k.wal", StoreConfig::default(), None)
            .unwrap()
    };
    let store = open();
    let report = store.recovery_report();
    assert_eq!(report.outcome, RecoveryOutcome::Quarantined);
    assert_eq!(report.records_scanned, 1);
    assert_eq!(report.quarantined.len(), 2, "{:?}", report.quarantined);
    let descriptions: Vec<&str> = (store.set().examples().iter())
        .map(|e| e.description.as_str())
        .collect();
    assert_eq!(descriptions, ["kept"]);
    drop(store);
    // The valid prefix was re-persisted: the next open is clean.
    let again = open();
    assert!(!again.recovery_report().repaired());
    assert_eq!(again.set().examples().len(), 1);
}

/// A page `Page::decode` accepted reads back every record and survives
/// its own seal / decode round trip unchanged.
fn assert_sound(page: &Page, page_size: usize) {
    assert!(page.records().map(<[u8]>::len).sum::<usize>() <= page_size);
    assert_eq!(Page::decode(&page.seal(), page_size).as_ref(), Ok(page));
}

/// What every scan outcome holds, whatever it was fed.
fn assert_consistent(bytes: &[u8], out: &ScanOutcome) {
    let valid = out.valid_bytes as usize;
    assert!(valid <= bytes.len() && out.records.len() == out.offsets.len());
    assert!(out.offsets.windows(2).all(|w| w[0] < w[1]));
    assert!(out.offsets.iter().all(|&o| (o as usize) < valid));
    assert_eq!(out.end == ScanEnd::Clean, valid == bytes.len());
}

/// A snapshot as the store writes one: two examples, a checkpoint, and
/// an edit after it.
fn snapshot_bytes() -> Vec<u8> {
    let mut ks = KnowledgeSet::new();
    ks.apply(edit("revenue per club")).unwrap();
    ks.apply(edit("viewers by country")).unwrap();
    ks.checkpoint("seed");
    ks.apply(edit("after the checkpoint")).unwrap();
    to_json(&ks).unwrap().into_bytes()
}

fn record() -> impl Strategy<Value = JournalRecord> {
    prop_oneof![
        "[ -~]{0,24}".prop_map(|d| JournalRecord::Edit(edit(&d))),
        "[a-z]{1,8}".prop_map(|label| JournalRecord::Checkpoint { label }),
        Just(JournalRecord::BatchCommit),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn page_decode_returns_on_arbitrary_bytes(
        bytes in prop::collection::vec(any::<u8>(), 0..300),
        page_size in 0usize..300,
    ) {
        if let Ok(page) = Page::decode(&bytes, page_size) {
            assert_sound(&page, bytes.len());
        }
    }

    /// Magic and version set; kind, slot count, free offset and eight
    /// slot entries arbitrary, each folded near the range its check
    /// accepts when its bit in `folds` is set; the CRC recomputed, so
    /// decoding gets past the checksum to the checks behind it.
    #[test]
    fn page_decode_returns_on_resealed_arbitrary_headers(
        bytes in prop::collection::vec(any::<u8>(), 256..257),
        page_size in prop_oneof![Just(64usize), Just(100usize), Just(256usize)],
        fields in prop::collection::vec(any::<u16>(), 18..19),
        folds in any::<u32>(),
    ) {
        // Field `j`'s value `v`, or folded into `from..from + span`.
        let fold = |j: usize, from: usize, span: usize| {
            let v = fields[j] as usize;
            (if folds >> j & 1 == 1 { from + v % span } else { v }) as u16
        };
        let mut page = bytes[..page_size].to_vec();
        page[0..4].copy_from_slice(&PAGE_MAGIC);
        page[4..6].copy_from_slice(&PAGE_VERSION.to_le_bytes());
        page[6] %= 4;
        page[20..22].copy_from_slice(&fold(0, 0, 5).to_le_bytes());
        page[22..24].copy_from_slice(&fold(1, 24, page_size - 16).to_le_bytes());
        for i in 0..8 {
            let (end, j) = (page_size - i * 4, 2 + 2 * i);
            page[end - 4..end - 2].copy_from_slice(&fold(j, 24, page_size - 32).to_le_bytes());
            page[end - 2..end].copy_from_slice(&fold(j + 1, 0, page_size / 4).to_le_bytes());
        }
        page[24..28].fill(0);
        let crc = crc32(&page);
        page[24..28].copy_from_slice(&crc.to_le_bytes());
        if let Ok(decoded) = Page::decode(&page, page_size) {
            assert_sound(&decoded, page_size);
        }
    }

    #[test]
    fn scan_is_consistent_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..200)) {
        assert_consistent(&bytes, &scan(&bytes));
    }

    /// One flipped bit in one frame: the scan keeps exactly the records
    /// before it and reports the damage. With `reseal`, the flip is in the
    /// payload under a recomputed CRC, so it reaches the record decoder,
    /// and the records before it still replay.
    #[test]
    fn scan_stops_at_a_bit_flipped_frame(
        records in prop::collection::vec(record(), 1..6),
        which in any::<usize>(),
        at in any::<usize>(),
        bit in 0u8..8,
        reseal in any::<bool>(),
    ) {
        let mut frames: Vec<Vec<u8>> = records.iter().map(|r| encode_record(r).unwrap()).collect();
        let damaged = which % frames.len();
        let start: usize = frames[..damaged].iter().map(Vec::len).sum();
        let target = &mut frames[damaged];
        if reseal {
            let mut payload = target[RECORD_HEADER_BYTES..].to_vec();
            let at = at % payload.len();
            payload[at] ^= 1 << bit;
            *target = frame(&payload);
        } else {
            let at = at % target.len();
            target[at] ^= 1 << bit;
        }
        let bytes = frames.concat();
        let out = scan(&bytes);
        assert_consistent(&bytes, &out);
        prop_assert!(out.records.len() >= damaged);
        prop_assert_eq!(&out.records[..damaged], &records[..damaged]);
        if !reseal {
            prop_assert_eq!(out.records.len(), damaged);
            prop_assert_eq!(out.valid_bytes as usize, start);
            prop_assert!(out.end != ScanEnd::Clean);
        }
    }

    /// `recover` with arbitrary snapshot bytes, or a written snapshot
    /// with one bit flipped, and no journal, returns: a snapshot it loads
    /// re-encodes to JSON that loads and re-encodes to the same JSON; one
    /// it cannot load is quarantined, and recovery starts from an empty
    /// set. It never panics.
    #[test]
    fn snapshot_decode_returns_on_arbitrary_and_bit_flipped_bytes(
        flipped in any::<bool>(),
        arbitrary in prop::collection::vec(any::<u8>(), 0..400),
        flip in (any::<u32>(), 0u8..8),
    ) {
        let bytes = if flipped {
            let mut bytes = snapshot_bytes();
            let len = bytes.len();
            bytes[flip.0 as usize % len] ^= 1 << flip.1;
            bytes
        } else {
            arbitrary
        };
        let fs: Arc<dyn StoreFs> = Arc::new(MemFs::new());
        fs.write_file(Path::new("k.json"), &bytes).unwrap();
        let (set, report) =
            recover(&fs, Path::new("k.json"), Path::new("k.wal"), u64::MAX, None).unwrap();
        if report.snapshot_loaded {
            prop_assert!(report.quarantined.is_empty());
            let json = to_json(&set).unwrap();
            prop_assert_eq!(to_json(&from_json(&json).unwrap()).unwrap(), json);
        } else {
            prop_assert_eq!(report.quarantined.len(), 1);
            prop_assert!(set.examples().is_empty() && set.log().is_empty());
        }
    }
}
