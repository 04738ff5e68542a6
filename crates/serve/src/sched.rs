//! Deficit-round-robin admission queue with oldest-deadline-first
//! load shedding.
//!
//! Each tenant owns a FIFO sub-queue; active tenants sit in a ring.
//! Every ring visit credits the tenant `QUANTUM` deficit; the head
//! request runs once the deficit covers its [`Priority`](crate::Priority)
//! cost. A tenant that floods the queue therefore cannot starve others:
//! per round, every active tenant drains roughly `QUANTUM / cost`
//! requests regardless of how much is queued behind them.

use crate::request::{QueryRequest, TicketCell};
use genedit_core::CancelToken;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

/// DRR quantum: deficit credited per ring visit. With the priority costs
/// (1/2/4), quantum 2 serves one Normal request per tenant per round.
const QUANTUM: u32 = 2;

/// A request that passed admission, queued with its completion handle.
pub(crate) struct Admitted {
    pub seq: u64,
    /// Admission-assigned request ID (`req-{seq:08x}`), threaded through
    /// the pipeline so tickets, traces and flight-recorder entries join.
    pub request_id: String,
    pub request: QueryRequest,
    pub cell: Arc<TicketCell>,
    pub cancel: CancelToken,
    pub enqueued_at: Instant,
    pub cost: u32,
}

#[derive(Default)]
struct TenantQueue {
    queue: VecDeque<Admitted>,
    deficit: u32,
}

/// The scheduler state, guarded by the runtime's queue mutex.
pub(crate) struct DrrScheduler {
    tenants: HashMap<String, TenantQueue>,
    /// Round-robin ring over tenants with queued work.
    ring: VecDeque<String>,
    queued: usize,
}

impl DrrScheduler {
    pub fn new() -> DrrScheduler {
        DrrScheduler {
            tenants: HashMap::new(),
            ring: VecDeque::new(),
            queued: 0,
        }
    }

    pub fn len(&self) -> usize {
        self.queued
    }

    #[cfg(test)]
    pub fn is_empty(&self) -> bool {
        self.queued == 0
    }

    pub fn push(&mut self, admitted: Admitted) {
        let tenant = admitted.request.tenant.clone();
        let q = self.tenants.entry(tenant.clone()).or_default();
        let was_empty = q.queue.is_empty();
        q.queue.push_back(admitted);
        self.queued += 1;
        if was_empty {
            self.ring.push_back(tenant);
        }
    }

    /// Pop the next request under DRR. Returns `None` when empty.
    pub fn pop(&mut self) -> Option<Admitted> {
        if self.queued == 0 {
            return None;
        }
        // Each visit adds `QUANTUM` to the tenant's deficit, so any head
        // request becomes affordable within ceil(cost / QUANTUM) ring
        // passes — the loop always terminates with a pop.
        loop {
            let tenant = self.ring.pop_front()?;
            let Some(q) = self.tenants.get_mut(&tenant) else {
                continue;
            };
            if q.queue.is_empty() {
                q.deficit = 0;
                continue;
            }
            q.deficit = q.deficit.saturating_add(QUANTUM);
            let affordable = q
                .queue
                .front()
                .map(|a| a.cost <= q.deficit)
                .unwrap_or(false);
            if !affordable {
                self.ring.push_back(tenant);
                continue;
            }
            let admitted = match q.queue.pop_front() {
                Some(a) => a,
                None => continue,
            };
            q.deficit -= admitted.cost;
            self.queued -= 1;
            if q.queue.is_empty() {
                // An idle tenant keeps no credit: deficit accrues only
                // while work is actually waiting.
                q.deficit = 0;
            } else {
                self.ring.push_back(tenant);
            }
            return Some(admitted);
        }
    }

    /// The queued request with the **earliest** deadline, if any queued
    /// request has one. This is the shedding victim candidate: under
    /// saturation, the request most likely to expire anyway is dropped
    /// to make room for one with more runway.
    pub fn earliest_deadline(&self) -> Option<(Instant, u64)> {
        self.tenants
            .values()
            .flat_map(|q| q.queue.iter())
            .filter_map(|a| a.request.deadline.map(|d| (d, a.seq)))
            .min()
    }

    /// Remove and return **every** queued request, in tenant-grouped FIFO
    /// order. The drain path uses this after its deadline passes to
    /// force-resolve stragglers instead of executing them.
    pub fn drain_all(&mut self) -> Vec<Admitted> {
        let mut drained = Vec::with_capacity(self.queued);
        for q in self.tenants.values_mut() {
            drained.extend(q.queue.drain(..));
            q.deficit = 0;
        }
        self.ring.clear();
        self.queued = 0;
        drained.sort_by_key(|a| a.seq);
        drained
    }

    /// Remove a queued request by sequence number.
    pub fn remove(&mut self, seq: u64) -> Option<Admitted> {
        for q in self.tenants.values_mut() {
            if let Some(pos) = q.queue.iter().position(|a| a.seq == seq) {
                let admitted = q.queue.remove(pos)?;
                self.queued -= 1;
                return Some(admitted);
            }
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::{Priority, Ticket};
    use std::time::Duration;

    fn admitted(seq: u64, tenant: &str, priority: Priority) -> Admitted {
        let cancel = CancelToken::new();
        let (_ticket, cell) = Ticket::new(cancel.clone(), format!("req-{seq:08x}"));
        Admitted {
            seq,
            request_id: format!("req-{seq:08x}"),
            request: QueryRequest::new(tenant, format!("q{seq}")).with_priority(priority),
            cell,
            cancel,
            enqueued_at: Instant::now(),
            cost: priority.cost(),
        }
    }

    fn with_deadline(mut a: Admitted, from_now_ms: u64) -> Admitted {
        a.request.deadline = Some(Instant::now() + Duration::from_millis(from_now_ms));
        a
    }

    #[test]
    fn single_tenant_is_fifo() {
        let mut s = DrrScheduler::new();
        for seq in 0..5 {
            s.push(admitted(seq, "acme", Priority::Normal));
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|a| a.seq).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn flooding_tenant_cannot_starve_others() {
        let mut s = DrrScheduler::new();
        // Hot tenant floods 10 requests before cold's single one arrives.
        for seq in 0..10 {
            s.push(admitted(seq, "hot", Priority::Normal));
        }
        s.push(admitted(100, "cold", Priority::Normal));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|a| a.seq).collect();
        let cold_pos = order.iter().position(|&s| s == 100).unwrap();
        // DRR alternates tenants: cold runs second, not eleventh.
        assert!(
            cold_pos <= 1,
            "cold tenant served at position {cold_pos}, order {order:?}"
        );
    }

    #[test]
    fn high_priority_drains_faster_within_budget() {
        let mut s = DrrScheduler::new();
        // Tenant A queues Low (cost 4) work, tenant B High (cost 1).
        for seq in 0..3 {
            s.push(admitted(seq, "a", Priority::Low));
        }
        for seq in 10..13 {
            s.push(admitted(seq, "b", Priority::High));
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|a| a.seq).collect();
        // B's cheap requests all finish before A's expensive ones do:
        // each of A's costs 4 (two ring passes at quantum 2).
        let last_b = order.iter().rposition(|&s| s >= 10).unwrap();
        let first_a_after = order[..last_b].iter().filter(|&&s| s < 10).count();
        assert!(
            first_a_after <= 2,
            "expected at most 2 Low requests before the last High, order {order:?}"
        );
    }

    #[test]
    fn earliest_deadline_and_remove() {
        let mut s = DrrScheduler::new();
        s.push(with_deadline(admitted(0, "a", Priority::Normal), 500));
        s.push(with_deadline(admitted(1, "b", Priority::Normal), 100));
        s.push(admitted(2, "c", Priority::Normal)); // no deadline: never shed
        let (_, victim) = s.earliest_deadline().unwrap();
        assert_eq!(victim, 1);
        let removed = s.remove(victim).unwrap();
        assert_eq!(removed.seq, 1);
        assert_eq!(s.len(), 2);
        assert!(s.remove(99).is_none());
    }

    #[test]
    fn pop_drains_across_tenants() {
        let mut s = DrrScheduler::new();
        for seq in 0..4 {
            s.push(admitted(
                seq,
                if seq % 2 == 0 { "a" } else { "b" },
                Priority::Normal,
            ));
        }
        let drained: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|a| a.seq).collect();
        assert_eq!(drained.len(), 4);
        assert!(s.is_empty());
        assert!(s.pop().is_none());
    }
}
