//! Tail-sampling flight recorder: a bounded ring of recently completed
//! request traces, biased toward the requests worth a postmortem.
//!
//! Head sampling (decide at admission) throws away exactly the traces
//! you want when p99 blows up. The [`FlightRecorder`] decides at
//! **completion**, when the verdict and latency are known:
//!
//! - **Interesting** requests — errored, degraded, cancelled, or slower
//!   than the latency threshold — are *always* kept, in their own ring,
//!   so a flood of healthy traffic can never evict the evidence.
//! - **Normal** requests are kept probabilistically (seeded FNV-1a hash
//!   of the request ID, so a given ID's fate is deterministic and
//!   replayable) into a second ring, as baseline context.
//!
//! Both rings are bounded, so memory is fixed no matter the traffic.
//! On an SLO breach the serving layer calls [`FlightRecorder::dump_jsonl`]
//! and writes the result next to its metrics — each line a
//! [`RecordedRequest`] whose `request_id` joins against metric exemplars
//! and span attributes (`trace_report --recorder` renders these).

use crate::export::to_jsonl;
use crate::hash::{fnv1a64_from, FNV_OFFSET, FNV_PRIME};
use crate::span::Trace;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Mutex, MutexGuard};

/// Final classification of one served request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RequestVerdict {
    /// Completed normally.
    Ok,
    /// Completed on a degradation path (operator fallback, etc.).
    Degraded,
    /// Failed outright.
    Error,
    /// Cancelled before completion (client gone, shed, timeout).
    Cancelled,
    /// The worker thread panicked mid-request; the serving layer caught
    /// the unwind, resolved the ticket, and retired the worker. Always
    /// retained: a panic is the single most postmortem-worthy verdict.
    Panicked,
}

/// One completed request as the flight recorder keeps it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordedRequest {
    /// The request ID assigned at serve admission.
    pub request_id: String,
    /// Final classification.
    pub verdict: RequestVerdict,
    /// End-to-end latency, milliseconds.
    pub latency_ms: f64,
    /// The request's full span trace.
    pub trace: Trace,
}

impl RecordedRequest {
    /// Whether this request is unconditionally retained.
    pub fn is_interesting(&self, latency_threshold_ms: f64) -> bool {
        self.verdict != RequestVerdict::Ok || self.latency_ms > latency_threshold_ms
    }
}

/// Flight-recorder policy knobs.
#[derive(Debug, Clone, PartialEq)]
pub struct RecorderConfig {
    /// Ring capacity for interesting (error/degraded/cancelled/slow)
    /// requests.
    pub interesting_capacity: usize,
    /// Ring capacity for sampled-in normal requests.
    pub normal_capacity: usize,
    /// Latency above which an otherwise-Ok request counts interesting.
    pub latency_threshold_ms: f64,
    /// Keep roughly one in this many normal requests (0 or 1 keeps all).
    pub keep_normal_one_in: u64,
    /// Seed for the deterministic sampling hash.
    pub seed: u64,
}

impl Default for RecorderConfig {
    fn default() -> Self {
        RecorderConfig {
            interesting_capacity: 256,
            normal_capacity: 64,
            latency_threshold_ms: 1_000.0,
            keep_normal_one_in: 10,
            seed: 0,
        }
    }
}

/// Retention accounting, reported alongside dumps. `obs_proptests`
/// asserts `evicted_interesting == 0` whenever the interesting ring has
/// room for every interesting request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct RecorderStats {
    /// Requests offered to the recorder.
    pub seen: u64,
    /// Of those, classified interesting.
    pub seen_interesting: u64,
    /// Normal requests sampled in.
    pub kept_normal: u64,
    /// Normal requests sampled out (never stored).
    pub sampled_out: u64,
    /// Interesting requests evicted because their ring was full.
    pub evicted_interesting: u64,
    /// Normal requests evicted by ring rotation.
    pub evicted_normal: u64,
}

struct Rings {
    interesting: VecDeque<RecordedRequest>,
    normal: VecDeque<RecordedRequest>,
    stats: RecorderStats,
}

/// Bounded tail-sampling store of completed request traces.
pub struct FlightRecorder {
    config: RecorderConfig,
    rings: Mutex<Rings>,
}

/// Seeded FNV-1a over the request ID: deterministic, so sampling
/// decisions replay.
fn sample_hash(seed: u64, request_id: &str) -> u64 {
    fnv1a64_from(
        FNV_OFFSET ^ seed.wrapping_mul(FNV_PRIME),
        request_id.as_bytes(),
    )
}

impl FlightRecorder {
    /// Recorder with the given policy. Capacities are clamped up to 1.
    pub fn new(config: RecorderConfig) -> FlightRecorder {
        FlightRecorder {
            config,
            rings: Mutex::new(Rings {
                interesting: VecDeque::new(),
                normal: VecDeque::new(),
                stats: RecorderStats::default(),
            }),
        }
    }

    /// The policy this recorder runs.
    pub fn config(&self) -> &RecorderConfig {
        &self.config
    }

    fn lock(&self) -> MutexGuard<'_, Rings> {
        self.rings
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Offer one completed request. Interesting requests are always
    /// stored; normal ones pass the deterministic sampler first.
    pub fn record(&self, request: RecordedRequest) {
        let interesting = request.is_interesting(self.config.latency_threshold_ms);
        let mut rings = self.lock();
        rings.stats.seen += 1;
        if interesting {
            rings.stats.seen_interesting += 1;
            if rings.interesting.len() >= self.config.interesting_capacity.max(1) {
                rings.interesting.pop_front();
                rings.stats.evicted_interesting += 1;
            }
            rings.interesting.push_back(request);
            return;
        }
        let one_in = self.config.keep_normal_one_in.max(1);
        if !sample_hash(self.config.seed, &request.request_id).is_multiple_of(one_in) {
            rings.stats.sampled_out += 1;
            return;
        }
        rings.stats.kept_normal += 1;
        if rings.normal.len() >= self.config.normal_capacity.max(1) {
            rings.normal.pop_front();
            rings.stats.evicted_normal += 1;
        }
        rings.normal.push_back(request);
    }

    /// Retention accounting so far.
    pub fn stats(&self) -> RecorderStats {
        self.lock().stats
    }

    /// Currently retained requests: interesting first (oldest→newest),
    /// then sampled normals.
    pub fn contents(&self) -> Vec<RecordedRequest> {
        let rings = self.lock();
        rings
            .interesting
            .iter()
            .chain(rings.normal.iter())
            .cloned()
            .collect()
    }

    /// Requests currently held (both rings).
    pub fn len(&self) -> usize {
        let rings = self.lock();
        rings.interesting.len() + rings.normal.len()
    }

    /// Whether nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Serialize the current contents as JSONL, one [`RecordedRequest`]
    /// per line — the postmortem artifact dumped on SLO breach.
    pub fn dump_jsonl(&self) -> String {
        to_jsonl(&self.contents())
    }

    /// Drop everything retained (stats are kept).
    pub fn clear(&self) {
        let mut rings = self.lock();
        rings.interesting.clear();
        rings.normal.clear();
    }
}

/// Parse a flight-recorder JSONL dump back into records
/// (`trace_report --recorder` uses this).
pub fn dump_from_jsonl(jsonl: &str) -> Result<Vec<RecordedRequest>, serde_json::Error> {
    crate::export::from_jsonl(jsonl)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn request(id: &str, verdict: RequestVerdict, latency_ms: f64) -> RecordedRequest {
        RecordedRequest {
            request_id: id.to_string(),
            verdict,
            latency_ms,
            trace: Trace::empty(id),
        }
    }

    fn config() -> RecorderConfig {
        RecorderConfig {
            interesting_capacity: 8,
            normal_capacity: 4,
            latency_threshold_ms: 100.0,
            keep_normal_one_in: 4,
            seed: 42,
        }
    }

    #[test]
    fn interesting_requests_survive_normal_floods() {
        let rec = FlightRecorder::new(config());
        rec.record(request("req-err", RequestVerdict::Error, 10.0));
        rec.record(request("req-deg", RequestVerdict::Degraded, 10.0));
        rec.record(request("req-slow", RequestVerdict::Ok, 500.0));
        rec.record(request("req-cancel", RequestVerdict::Cancelled, 1.0));
        for i in 0..10_000 {
            rec.record(request(&format!("req-{i:08x}"), RequestVerdict::Ok, 5.0));
        }
        let stats = rec.stats();
        assert_eq!(stats.evicted_interesting, 0);
        assert_eq!(stats.seen_interesting, 4);
        let kept: Vec<String> = rec
            .contents()
            .iter()
            .filter(|r| r.is_interesting(100.0))
            .map(|r| r.request_id.clone())
            .collect();
        assert_eq!(kept, vec!["req-err", "req-deg", "req-slow", "req-cancel"]);
        // Memory stayed bounded.
        assert!(rec.len() <= 8 + 4);
    }

    #[test]
    fn interesting_ring_is_bounded_and_counts_evictions() {
        let rec = FlightRecorder::new(config());
        for i in 0..20 {
            rec.record(request(&format!("e{i}"), RequestVerdict::Error, 1.0));
        }
        assert_eq!(rec.stats().evicted_interesting, 12);
        let contents = rec.contents();
        assert_eq!(contents.len(), 8);
        assert_eq!(contents[0].request_id, "e12"); // oldest evicted first
    }

    #[test]
    fn normal_sampling_is_deterministic_and_roughly_one_in_n() {
        let run = || {
            let rec = FlightRecorder::new(config());
            for i in 0..1000 {
                rec.record(request(&format!("req-{i:08x}"), RequestVerdict::Ok, 5.0));
            }
            (
                rec.stats(),
                rec.contents()
                    .iter()
                    .map(|r| r.request_id.clone())
                    .collect::<Vec<_>>(),
            )
        };
        let (stats_a, ids_a) = run();
        let (stats_b, ids_b) = run();
        assert_eq!(stats_a, stats_b);
        assert_eq!(ids_a, ids_b);
        // ~1 in 4 kept: loose bounds, exact value fixed by the seed.
        assert!(
            stats_a.kept_normal > 150 && stats_a.kept_normal < 350,
            "{stats_a:?}"
        );
        assert_eq!(stats_a.kept_normal + stats_a.sampled_out, 1000);
    }

    #[test]
    fn keep_one_in_one_keeps_everything() {
        let mut config = config();
        config.keep_normal_one_in = 1;
        let rec = FlightRecorder::new(config);
        for i in 0..3 {
            rec.record(request(&format!("n{i}"), RequestVerdict::Ok, 1.0));
        }
        assert_eq!(rec.stats().kept_normal, 3);
        assert_eq!(rec.stats().sampled_out, 0);
    }

    #[test]
    fn dump_round_trips_through_jsonl() {
        let rec = FlightRecorder::new(config());
        rec.record(request("req-err", RequestVerdict::Error, 12.5));
        rec.record(request("req-ok", RequestVerdict::Ok, 1.0));
        let dump = rec.dump_jsonl();
        let back = dump_from_jsonl(&dump).unwrap();
        assert_eq!(back, rec.contents());
        assert!(back.iter().any(|r| r.request_id == "req-err"
            && r.verdict == RequestVerdict::Error
            && r.latency_ms == 12.5));
    }

    #[test]
    fn clear_drops_contents_but_keeps_stats() {
        let rec = FlightRecorder::new(config());
        rec.record(request("req-err", RequestVerdict::Error, 1.0));
        assert!(!rec.is_empty());
        rec.clear();
        assert!(rec.is_empty());
        assert_eq!(rec.stats().seen, 1);
    }
}
