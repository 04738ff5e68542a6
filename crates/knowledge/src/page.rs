//! Fixed-size checksummed pages with slotted records.
//!
//! The tenant paging layer stores knowledge-set entries and vector data
//! in fixed-size pages (default [`DEFAULT_PAGE_SIZE`] bytes) so the
//! buffer pool can account for memory exactly and evict in O(1) units.
//! The layout is the classic slotted page:
//!
//! ```text
//! offset 0                                                page_size
//! ┌──────────┬──────────────────────┬───────┬──────────────────────┐
//! │ header   │ record 0 │ record 1 …│ free  │ … slot 1 │ slot 0    │
//! │ 32 bytes │ (grow upward →)      │ space │ (← grow downward)    │
//! └──────────┴──────────────────────┴───────┴──────────────────────┘
//! ```
//!
//! Header (32 bytes, little-endian):
//!
//! | bytes  | field      | meaning                                     |
//! |--------|------------|---------------------------------------------|
//! | 0–3    | magic      | `"GEPG"`                                    |
//! | 4–5    | version    | format version, currently 1                 |
//! | 6      | kind       | [`PageKind`] discriminant                   |
//! | 7      | (pad)      | zero                                        |
//! | 8–11   | page_no    | logical page number within its file         |
//! | 12–19  | epoch      | knowledge epoch the page was written at     |
//! | 20–21  | slot_count | number of live slots                        |
//! | 22–23  | free_off   | offset of the start of free space           |
//! | 24–27  | crc32      | CRC-32 of the page with this field zeroed   |
//! | 28–31  | (reserved) | zero                                        |
//!
//! Each slot is 4 bytes — record offset `u16` then record length `u16` —
//! which caps the page size at 64 KiB. The CRC covers the *entire* page
//! (free space included, so stale bytes can't alias as records), letting
//! [`Page::decode`] reject torn or bit-flipped pages after a crash; the
//! caller then rebuilds the page from the WAL, which remains the source
//! of truth.

use crate::journal::{crc32, crc32_parts};
use std::fmt;

/// Page magic bytes, `"GEPG"`.
pub const PAGE_MAGIC: [u8; 4] = *b"GEPG";
/// Current page-format version.
pub const PAGE_VERSION: u16 = 1;
/// Size of the fixed page header in bytes.
pub const PAGE_HEADER_BYTES: usize = 32;
/// Size of one slot-directory entry in bytes.
pub const SLOT_BYTES: usize = 4;
/// Default page size. Large enough for typical knowledge entries while
/// keeping cold-tenant page-in granular.
pub const DEFAULT_PAGE_SIZE: usize = 8192;
/// Maximum page size (slot offsets are `u16`).
pub const MAX_PAGE_SIZE: usize = 64 * 1024;
/// Minimum page size (header plus one slot plus one byte of payload).
pub const MIN_PAGE_SIZE: usize = 64;

const CRC_OFFSET: usize = 24;

/// What a page holds.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum PageKind {
    /// The tenant's page directory (page 0 of every tenant file).
    Meta,
    /// Serialized knowledge-set entry records.
    Entry,
    /// Chunked embedding vector data.
    Vector,
}

impl PageKind {
    fn to_u8(self) -> u8 {
        match self {
            PageKind::Meta => 0,
            PageKind::Entry => 1,
            PageKind::Vector => 2,
        }
    }

    fn from_u8(raw: u8) -> Option<PageKind> {
        match raw {
            0 => Some(PageKind::Meta),
            1 => Some(PageKind::Entry),
            2 => Some(PageKind::Vector),
            _ => None,
        }
    }
}

/// Errors from page encode/decode and record insertion.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum PageError {
    /// The buffer is not a whole page of the expected size.
    WrongSize {
        /// Bytes received.
        got: usize,
        /// Bytes expected (the configured page size).
        expected: usize,
    },
    /// The magic bytes are not `"GEPG"`.
    BadMagic,
    /// The format version is unknown.
    BadVersion(u16),
    /// The page kind discriminant is unknown.
    BadKind(u8),
    /// The stored CRC does not match the page contents — a torn write,
    /// bit flip, or stale page. The caller must rebuild from the WAL.
    BadChecksum {
        /// CRC stored in the header.
        stored: u32,
        /// CRC computed over the received bytes.
        computed: u32,
    },
    /// A slot points outside the page or overlaps the header.
    CorruptSlot(u16),
    /// The record can never fit in a page of this size.
    RecordTooLarge {
        /// Record length in bytes.
        len: usize,
        /// Maximum payload a fresh page of this size can hold.
        capacity: usize,
    },
    /// The record does not fit in *this* page's remaining free space
    /// (a fresh page would hold it — start one).
    PageFull,
}

impl fmt::Display for PageError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            PageError::WrongSize { got, expected } => {
                write!(f, "page buffer is {got} bytes, expected {expected}")
            }
            PageError::BadMagic => write!(f, "bad page magic"),
            PageError::BadVersion(v) => write!(f, "unknown page version {v}"),
            PageError::BadKind(k) => write!(f, "unknown page kind {k}"),
            PageError::BadChecksum { stored, computed } => {
                write!(
                    f,
                    "page checksum mismatch: stored {stored:#x}, computed {computed:#x}"
                )
            }
            PageError::CorruptSlot(i) => write!(f, "slot {i} points outside the page"),
            PageError::RecordTooLarge { len, capacity } => {
                write!(f, "record of {len} bytes exceeds page capacity {capacity}")
            }
            PageError::PageFull => write!(f, "page full"),
        }
    }
}

impl std::error::Error for PageError {}

/// A fixed-size slotted page. Build one with [`Page::new`] + [`Page::push`],
/// serialize with [`Page::seal`], and reconstruct with [`Page::decode`]
/// (which verifies the checksum). Once in the buffer pool pages are
/// immutable — mutation is copy-on-write at the tenant-store level.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Page {
    kind: PageKind,
    page_no: u32,
    epoch: u64,
    page_size: usize,
    /// (offset, len) per slot, in insertion order.
    slots: Vec<(u16, u16)>,
    /// Record heap: bytes `PAGE_HEADER_BYTES..free_off`.
    buf: Vec<u8>,
    free_off: usize,
}

impl Page {
    /// An empty page. `page_size` is clamped to
    /// [`MIN_PAGE_SIZE`]..=[`MAX_PAGE_SIZE`].
    pub fn new(kind: PageKind, page_no: u32, epoch: u64, page_size: usize) -> Page {
        let page_size = page_size.clamp(MIN_PAGE_SIZE, MAX_PAGE_SIZE);
        Page {
            kind,
            page_no,
            epoch,
            page_size,
            slots: Vec::new(),
            buf: vec![0u8; page_size],
            free_off: PAGE_HEADER_BYTES,
        }
    }

    /// Largest single record a fresh page of `page_size` bytes can hold.
    pub fn capacity(page_size: usize) -> usize {
        let page_size = page_size.clamp(MIN_PAGE_SIZE, MAX_PAGE_SIZE);
        page_size - PAGE_HEADER_BYTES - SLOT_BYTES
    }

    /// The page kind.
    pub fn kind(&self) -> PageKind {
        self.kind
    }

    /// Logical page number within its tenant file.
    pub fn page_no(&self) -> u32 {
        self.page_no
    }

    /// Knowledge epoch this page was written at.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Configured page size in bytes (what [`Page::seal`] emits).
    pub fn page_size(&self) -> usize {
        self.page_size
    }

    /// Number of records on the page.
    pub fn slot_count(&self) -> usize {
        self.slots.len()
    }

    /// Free bytes available for one more record (slot entry accounted).
    pub fn free_space(&self) -> usize {
        let slot_dir = (self.slots.len() + 1) * SLOT_BYTES;
        self.page_size.saturating_sub(self.free_off + slot_dir)
    }

    /// Append a record; returns its slot index.
    ///
    /// `PageFull` means this page is out of space but a fresh page would
    /// hold the record; `RecordTooLarge` means no page of this size ever
    /// will (the caller must chunk, as the vector stream does).
    pub fn push(&mut self, record: &[u8]) -> Result<u16, PageError> {
        if record.len() > Page::capacity(self.page_size) {
            return Err(PageError::RecordTooLarge {
                len: record.len(),
                capacity: Page::capacity(self.page_size),
            });
        }
        if record.len() > self.free_space() {
            return Err(PageError::PageFull);
        }
        let off = self.free_off;
        self.buf[off..off + record.len()].copy_from_slice(record);
        self.slots.push((off as u16, record.len() as u16));
        self.free_off += record.len();
        Ok((self.slots.len() - 1) as u16)
    }

    /// The record in `slot`, if present.
    pub fn record(&self, slot: u16) -> Option<&[u8]> {
        let (off, len) = *self.slots.get(slot as usize)?;
        Some(&self.buf[off as usize..off as usize + len as usize])
    }

    /// All records in slot order.
    pub fn records(&self) -> impl Iterator<Item = &[u8]> {
        self.slots
            .iter()
            .map(|&(off, len)| &self.buf[off as usize..off as usize + len as usize])
    }

    /// Serialize to exactly [`Page::page_size`] bytes with the header CRC
    /// set. The CRC covers the whole page with the CRC field zeroed.
    pub fn seal(&self) -> Vec<u8> {
        let mut out = self.buf.clone();
        out[0..4].copy_from_slice(&PAGE_MAGIC);
        out[4..6].copy_from_slice(&PAGE_VERSION.to_le_bytes());
        out[6] = self.kind.to_u8();
        out[7] = 0;
        out[8..12].copy_from_slice(&self.page_no.to_le_bytes());
        out[12..20].copy_from_slice(&self.epoch.to_le_bytes());
        out[20..22].copy_from_slice(&(self.slots.len() as u16).to_le_bytes());
        out[22..24].copy_from_slice(&(self.free_off as u16).to_le_bytes());
        out[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&0u32.to_le_bytes());
        out[28..32].copy_from_slice(&[0u8; 4]);
        // Slot directory grows from the end of the page.
        for (i, &(off, len)) in self.slots.iter().enumerate() {
            let slot_end = self.page_size - i * SLOT_BYTES;
            out[slot_end - 4..slot_end - 2].copy_from_slice(&off.to_le_bytes());
            out[slot_end - 2..slot_end].copy_from_slice(&len.to_le_bytes());
        }
        let crc = crc32(&out);
        out[CRC_OFFSET..CRC_OFFSET + 4].copy_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parse and verify a sealed page. Any corruption — wrong size, bad
    /// magic/version/kind, checksum mismatch, out-of-bounds slot — is an
    /// error, and the caller falls back to rebuilding from the WAL.
    pub fn decode(bytes: &[u8], page_size: usize) -> Result<Page, PageError> {
        let page_size = page_size.clamp(MIN_PAGE_SIZE, MAX_PAGE_SIZE);
        if bytes.len() != page_size {
            return Err(PageError::WrongSize {
                got: bytes.len(),
                expected: page_size,
            });
        }
        if bytes[0..4] != PAGE_MAGIC {
            return Err(PageError::BadMagic);
        }
        let version = u16::from_le_bytes([bytes[4], bytes[5]]);
        if version != PAGE_VERSION {
            return Err(PageError::BadVersion(version));
        }
        let kind = PageKind::from_u8(bytes[6]).ok_or(PageError::BadKind(bytes[6]))?;
        let stored = u32::from_le_bytes([
            bytes[CRC_OFFSET],
            bytes[CRC_OFFSET + 1],
            bytes[CRC_OFFSET + 2],
            bytes[CRC_OFFSET + 3],
        ]);
        // The CRC of the page with its CRC field zeroed, fed in three
        // ranges rather than from a zeroed copy.
        let computed = crc32_parts(&[&bytes[..CRC_OFFSET], &[0; 4], &bytes[CRC_OFFSET + 4..]]);
        if stored != computed {
            return Err(PageError::BadChecksum { stored, computed });
        }
        let page_no = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let mut epoch_bytes = [0u8; 8];
        epoch_bytes.copy_from_slice(&bytes[12..20]);
        let epoch = u64::from_le_bytes(epoch_bytes);
        let slot_count = u16::from_le_bytes([bytes[20], bytes[21]]) as usize;
        let free_off = u16::from_le_bytes([bytes[22], bytes[23]]) as usize;
        if free_off < PAGE_HEADER_BYTES || free_off + slot_count * SLOT_BYTES > page_size {
            return Err(PageError::CorruptSlot(0));
        }
        let mut slots = Vec::with_capacity(slot_count);
        for i in 0..slot_count {
            let slot_end = page_size - i * SLOT_BYTES;
            let off = u16::from_le_bytes([bytes[slot_end - 4], bytes[slot_end - 3]]);
            let len = u16::from_le_bytes([bytes[slot_end - 2], bytes[slot_end - 1]]);
            let end = off as usize + len as usize;
            if (off as usize) < PAGE_HEADER_BYTES || end > free_off {
                return Err(PageError::CorruptSlot(i as u16));
            }
            slots.push((off, len));
        }
        // Normalize: zero the header and slot directory so a decoded
        // page is byte-identical to the freshly built page it was sealed
        // from (and `seal` of either produces the same output).
        let mut buf = bytes.to_vec();
        buf[..PAGE_HEADER_BYTES].fill(0);
        buf[page_size - slot_count * SLOT_BYTES..].fill(0);
        Ok(Page {
            kind,
            page_no,
            epoch,
            page_size,
            slots,
            buf,
            free_off,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn seal_decode_round_trip() {
        let mut page = Page::new(PageKind::Entry, 7, 42, DEFAULT_PAGE_SIZE);
        let a = page.push(b"first record").unwrap();
        let b = page.push(b"second").unwrap();
        assert_eq!((a, b), (0, 1));
        let bytes = page.seal();
        assert_eq!(bytes.len(), DEFAULT_PAGE_SIZE);
        let back = Page::decode(&bytes, DEFAULT_PAGE_SIZE).unwrap();
        assert_eq!(back.kind(), PageKind::Entry);
        assert_eq!(back.page_no(), 7);
        assert_eq!(back.epoch(), 42);
        assert_eq!(back.record(0).unwrap(), b"first record");
        assert_eq!(back.record(1).unwrap(), b"second");
        assert_eq!(back.records().count(), 2);
        assert_eq!(back, page);
    }

    #[test]
    fn every_single_bit_flip_is_detected() {
        let mut page = Page::new(PageKind::Vector, 1, 9, MIN_PAGE_SIZE);
        page.push(b"payload").unwrap();
        let sealed = page.seal();
        for byte in 0..sealed.len() {
            for bit in 0..8 {
                let mut corrupt = sealed.clone();
                corrupt[byte] ^= 1 << bit;
                assert!(
                    Page::decode(&corrupt, MIN_PAGE_SIZE).is_err(),
                    "flip at byte {byte} bit {bit} went undetected"
                );
            }
        }
    }

    #[test]
    fn torn_page_is_detected() {
        let mut page = Page::new(PageKind::Entry, 0, 1, 256);
        page.push(b"a record that matters").unwrap();
        let sealed = page.seal();
        // A torn write leaves a prefix of the new image over old bytes.
        let mut torn = vec![0xEE; 256];
        torn[..100].copy_from_slice(&sealed[..100]);
        assert!(matches!(
            Page::decode(&torn, 256),
            Err(PageError::BadChecksum { .. })
        ));
    }

    #[test]
    fn page_full_vs_record_too_large() {
        let mut page = Page::new(PageKind::Entry, 0, 0, MIN_PAGE_SIZE);
        let cap = Page::capacity(MIN_PAGE_SIZE);
        assert!(matches!(
            page.push(&vec![0u8; cap + 1]),
            Err(PageError::RecordTooLarge { .. })
        ));
        page.push(&vec![1u8; cap]).unwrap();
        assert!(matches!(page.push(b"x"), Err(PageError::PageFull)));
    }

    #[test]
    fn free_space_accounts_for_slot_directory() {
        let mut page = Page::new(PageKind::Entry, 0, 0, 256);
        let before = page.free_space();
        page.push(b"1234").unwrap();
        // 4 record bytes plus 4 slot bytes.
        assert_eq!(page.free_space(), before - 8);
    }

    #[test]
    fn empty_page_round_trips() {
        let page = Page::new(PageKind::Meta, 0, 0, DEFAULT_PAGE_SIZE);
        let back = Page::decode(&page.seal(), DEFAULT_PAGE_SIZE).unwrap();
        assert_eq!(back.slot_count(), 0);
        assert_eq!(back.kind(), PageKind::Meta);
    }
}
