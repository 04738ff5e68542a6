//! Round-robin admission queue over tenants with oldest-deadline-first
//! load shedding.
//!
//! Each tenant owns a FIFO sub-queue; active tenants sit in a ring, and
//! every ring visit serves the tenant's head request. A tenant that
//! floods the queue therefore cannot starve others: per round, every
//! active tenant drains one request regardless of how much is queued
//! behind it.

use crate::request::{QueryRequest, TicketCell};
use genedit_core::CancelToken;
use std::collections::{HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;

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
}

/// The scheduler state, guarded by the runtime's queue mutex. Every
/// method keeps one invariant: `tenants` holds no empty queue, and
/// `ring` holds each tenant in `tenants` exactly once.
pub(crate) struct Scheduler {
    tenants: HashMap<String, VecDeque<Admitted>>,
    /// Round-robin ring over tenants with queued work.
    ring: VecDeque<String>,
    queued: usize,
}

impl Scheduler {
    pub fn new() -> Scheduler {
        Scheduler {
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
        if q.is_empty() {
            self.ring.push_back(tenant);
        }
        q.push_back(admitted);
        self.queued += 1;
    }

    /// Pop the next request: the head of the front tenant's queue, the
    /// tenant going to the back of the ring while it still has work.
    /// Returns `None` when empty.
    pub fn pop(&mut self) -> Option<Admitted> {
        let tenant = self.ring.pop_front()?;
        let q = self.tenants.get_mut(&tenant)?;
        let admitted = q.pop_front()?;
        self.queued -= 1;
        if q.is_empty() {
            self.tenants.remove(&tenant);
        } else {
            self.ring.push_back(tenant);
        }
        Some(admitted)
    }

    /// The queued request with the **earliest** deadline, if any queued
    /// request has one. This is the shedding victim candidate: under
    /// saturation, the request most likely to expire anyway is dropped
    /// to make room for one with more runway.
    pub fn earliest_deadline(&self) -> Option<(Instant, u64)> {
        self.tenants
            .values()
            .flat_map(|q| q.iter())
            .filter_map(|a| a.request.deadline.map(|d| (d, a.seq)))
            .min()
    }

    /// Remove and return **every** queued request, in tenant-grouped FIFO
    /// order. The drain path uses this after its deadline passes to
    /// force-resolve stragglers instead of executing them.
    pub fn drain_all(&mut self) -> Vec<Admitted> {
        let mut drained = Vec::with_capacity(self.queued);
        for (_, q) in self.tenants.drain() {
            drained.extend(q);
        }
        self.ring.clear();
        self.queued = 0;
        drained.sort_by_key(|a| a.seq);
        drained
    }

    /// Remove a queued request by sequence number.
    pub fn remove(&mut self, seq: u64) -> Option<Admitted> {
        let admitted = self.tenants.values_mut().find_map(|q| {
            let pos = q.iter().position(|a| a.seq == seq)?;
            q.remove(pos)
        })?;
        self.queued -= 1;
        let tenant = &admitted.request.tenant;
        if self.tenants.get(tenant).is_some_and(VecDeque::is_empty) {
            self.tenants.remove(tenant);
            self.ring.retain(|t| t != tenant);
        }
        Some(admitted)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::request::Ticket;
    use std::time::Duration;

    fn admitted(seq: u64, tenant: &str) -> Admitted {
        let cancel = CancelToken::new();
        let (_ticket, cell) = Ticket::new(cancel.clone(), format!("req-{seq:08x}"));
        Admitted {
            seq,
            request_id: format!("req-{seq:08x}"),
            request: QueryRequest::new(tenant, format!("q{seq}")),
            cell,
            cancel,
            enqueued_at: Instant::now(),
        }
    }

    fn with_deadline(mut a: Admitted, from_now_ms: u64) -> Admitted {
        a.request.deadline = Some(Instant::now() + Duration::from_millis(from_now_ms));
        a
    }

    #[test]
    fn single_tenant_is_fifo() {
        let mut s = Scheduler::new();
        for seq in 0..5 {
            s.push(admitted(seq, "acme"));
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|a| a.seq).collect();
        assert_eq!(order, vec![0, 1, 2, 3, 4]);
        assert!(s.is_empty());
    }

    #[test]
    fn flooding_tenant_cannot_starve_others() {
        let mut s = Scheduler::new();
        // Hot tenant floods 10 requests before cold's single one arrives.
        for seq in 0..10 {
            s.push(admitted(seq, "hot"));
        }
        s.push(admitted(100, "cold"));
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|a| a.seq).collect();
        let cold_pos = order.iter().position(|&s| s == 100).unwrap();
        // Round-robin alternates tenants: cold runs second, not eleventh.
        assert!(
            cold_pos <= 1,
            "cold tenant served at position {cold_pos}, order {order:?}"
        );
    }

    #[test]
    fn earliest_deadline_and_remove() {
        let mut s = Scheduler::new();
        s.push(with_deadline(admitted(0, "a"), 500));
        s.push(with_deadline(admitted(1, "b"), 100));
        s.push(admitted(2, "c")); // no deadline: never shed
        let (_, victim) = s.earliest_deadline().unwrap();
        assert_eq!(victim, 1);
        let removed = s.remove(victim).unwrap();
        assert_eq!(removed.seq, 1);
        assert_eq!(s.len(), 2);
        assert!(s.remove(99).is_none());
    }

    #[test]
    fn removing_a_tenants_last_request_takes_it_off_the_ring() {
        let mut s = Scheduler::new();
        s.push(admitted(0, "a"));
        assert_eq!(s.remove(0).map(|a| a.seq), Some(0));
        for seq in 1..=6 {
            s.push(admitted(seq, "a"));
        }
        for seq in 10..=15 {
            s.push(admitted(seq, "b"));
        }
        let order: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|a| a.seq).collect();
        // One turn per tenant per round, not two for the tenant that
        // `remove` emptied.
        assert_eq!(order, vec![1, 10, 2, 11, 3, 12, 4, 13, 5, 14, 6, 15]);
        assert!(s.tenants.is_empty() && s.ring.is_empty());
    }

    #[test]
    fn pop_drains_across_tenants() {
        let mut s = Scheduler::new();
        for seq in 0..4 {
            s.push(admitted(seq, if seq % 2 == 0 { "a" } else { "b" }));
        }
        let drained: Vec<u64> = std::iter::from_fn(|| s.pop()).map(|a| a.seq).collect();
        assert_eq!(drained.len(), 4);
        assert!(s.is_empty());
        assert!(s.pop().is_none());
    }
}
