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
//!    recovery instead of aborting the process.

use genedit_knowledge::journal::{crc32_parts, RECORD_HEADER_BYTES};
use genedit_knowledge::{
    crc32, encode_record, DurableKnowledgeStore, Edit, FragmentKind, JournalRecord, MemFs,
    RecoveryOutcome, SourceRef, SqlFragment, StoreConfig, StoreFs,
};
use proptest::prelude::*;
use serde_json::Value;
use std::path::Path;
use std::sync::Arc;

/// The bytewise CRC-32 table loop: one lookup and one dependent shift
/// per byte.
fn crc32_bytewise(bytes: &[u8]) -> u32 {
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
    let mut crc: u32 = 0xffff_ffff;
    for &b in bytes {
        crc = (crc >> 8) ^ table[((crc ^ b as u32) & 0xff) as usize];
    }
    !crc
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
/// remainder length.
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
    for offset in 0..8 {
        for len in 0..=4_200 {
            let bytes = &data[offset..offset + len];
            assert_eq!(
                crc32(bytes),
                crc32_bytewise(bytes),
                "offset {offset} len {len}"
            );
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
