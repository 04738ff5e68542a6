//! What a table costs to hold: live heap bytes per stored cell of the
//! databases `benchmark/`'s `warehouse_scan` scans (the four standard
//! databases with both fact tables replicated 40x), after one scan of
//! every table.
//!
//! A counting global allocator sees every byte the databases hold: the
//! column arrays, their dictionaries and the value-to-code indexes that
//! appends use. One test in its own binary, so no other test's
//! allocations land in the count.

mod common;

use common::replicate_facts;
use genedit::bird::Workload;
use genedit::sql::{execute_sql, Database};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicIsize, Ordering};

/// The system allocator, counting live bytes.
struct Counting;

/// Live heap bytes; a statistic that publishes no other data, so
/// `Relaxed` suffices.
static LIVE: AtomicIsize = AtomicIsize::new(0);

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds `GlobalAlloc`'s contract; the counter has no effect on
// the memory handed out.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        LIVE.fetch_add(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: the caller's guarantees for `layout` are `System`'s.
        System.alloc(layout)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        LIVE.fetch_sub(layout.size() as isize, Ordering::Relaxed);
        // SAFETY: `ptr` came from `System` with this `layout`.
        System.dealloc(ptr, layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        LIVE.fetch_add(
            new_size as isize - layout.size() as isize,
            Ordering::Relaxed,
        );
        // SAFETY: `ptr` came from `System` with this `layout`.
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static ALLOC: Counting = Counting;

/// Bytes per cell the databases may hold, growth slack of the column
/// vectors included. Each cell is a typed slot or a `u32` code (4 to 8
/// bytes) plus its share of the dictionaries and validity bits.
const MAX_BYTES_PER_CELL: f64 = 12.0;

#[test]
fn replicated_databases_hold_at_most_twelve_bytes_per_cell() {
    let before = LIVE.load(Ordering::Relaxed);
    let dbs: Vec<Database> = {
        let workload = Workload::standard(42);
        workload
            .domains
            .iter()
            .map(|b| replicate_facts(&b.db, b.spec, 40))
            .collect()
    };
    let mut cells = 0usize;
    for db in &dbs {
        for table in db.tables() {
            let sql = format!("SELECT COUNT(*) FROM {}", table.name);
            execute_sql(db, &sql).expect("a scan runs");
            cells += table.rows.len() * table.columns.len();
        }
    }
    let live = LIVE.load(Ordering::Relaxed) - before;
    let per_cell = live as f64 / cells as f64;
    eprintln!("{live} live bytes over {cells} cells: {per_cell:.2} B/cell");
    assert!(
        per_cell <= MAX_BYTES_PER_CELL,
        "{live} live bytes over {cells} cells is {per_cell:.2} B/cell, over {MAX_BYTES_PER_CELL}"
    );
}
