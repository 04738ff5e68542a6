//! # genedit-benchmark — one request, fully accounted
//!
//! Drives seeded traffic through the public API of `genedit-serve` with
//! the zero-latency oracle model and reports what one request costs:
//! end-to-end metrics from an untraced pass, per-layer metrics from a
//! traced pass. See `README.md` in this directory for the workloads,
//! the metric tables and how to read the output.

pub mod driver;
pub mod layers;
pub mod pass;
pub mod procfs;
pub mod report;
pub mod spans;
pub mod stats;
pub mod verify;
pub mod workloads;
