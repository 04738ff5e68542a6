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
    /// order. Shutdown uses this to resolve what a dead pool left queued.
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
    use proptest::prelude::*;
    use std::collections::HashSet;
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

    /// One call in a model-checked sequence. `Push(tenant, deadline)`
    /// draws from small ranges so sequences collide on both; `Remove(n)`
    /// names seq `n % (admitted + 1)`, which may be gone or never admitted.
    #[derive(Debug, Clone, Copy)]
    enum Op {
        Push(usize, Option<u64>),
        Pop,
        Remove(u64),
        EarliestDeadline,
        DrainAll,
    }

    const TENANTS: [&str; 3] = ["a", "b", "c"];

    /// Three in nine calls push, three pop, two remove, and the last
    /// ninth is `earliest_deadline` or `drain_all`.
    fn op() -> impl Strategy<Value = Op> {
        let fields = (0..9u8, 0..3usize, prop::option::of(0u64..4), any::<u64>());
        fields.prop_map(|(k, tenant, deadline, n)| match k {
            0..=2 => Op::Push(tenant, deadline),
            3..=5 => Op::Pop,
            6 | 7 => Op::Remove(n),
            8 if n % 2 == 0 => Op::EarliestDeadline,
            _ => Op::DrainAll,
        })
    }

    /// Run `ops` and a closing `drain_all` against a [`Scheduler`] and a
    /// plain FIFO model of `(seq, tenant, deadline)`. After every call:
    /// no `seq` has left twice (and by the end every one has left); `len()`
    /// matches the model; a tenant with queued work holds exactly one ring
    /// slot; and between two pops of a tenant backlogged all along, every
    /// other tenant backlogged all along was popped exactly once.
    fn check(ops: &[Op]) {
        let base = Instant::now();
        let mut s = Scheduler::new();
        let mut model: VecDeque<(u64, usize, Option<Instant>)> = VecDeque::new();
        let (mut left, mut next_seq, mut pops) = (HashSet::new(), 0, Vec::new());
        // Per tenant: the step its current backlog began at, and its last pop.
        let (mut since, mut last_pop) = ([None::<usize>; 3], [None::<usize>; 3]);
        for (step, &op) in ops.iter().chain(&[Op::DrainAll]).enumerate() {
            let mut gone = Vec::new();
            match op {
                Op::Push(t, ms) => {
                    let mut a = admitted(next_seq, TENANTS[t]);
                    a.request.deadline = ms.map(|ms| base + Duration::from_millis(1_000 + ms));
                    model.push_back((next_seq, t, a.request.deadline));
                    s.push(a);
                    next_seq += 1;
                }
                Op::Pop => {
                    let Some(a) = s.pop() else {
                        assert!(model.is_empty(), "pop found nothing at step {step}");
                        continue;
                    };
                    let t = TENANTS.iter().position(|n| *n == a.request.tenant).unwrap();
                    let head = model.iter().find(|q| q.1 == t).map(|q| q.0);
                    assert_eq!(head, Some(a.seq), "pop broke FIFO order at step {step}");
                    // Backlogged since before its last pop: a round has passed.
                    if let Some(prev) = last_pop[t].filter(|&p| since[t].is_some_and(|b| b < p)) {
                        for o in (0..3).filter(|&o| o != t && since[o].is_some_and(|b| b < prev)) {
                            let turns = pops.iter().filter(|&&(at, p)| at > prev && p == o);
                            assert_eq!(
                                turns.count(),
                                1,
                                "tenant {o}'s turns in a round, step {step}"
                            );
                        }
                    }
                    pops.push((step, t));
                    last_pop[t] = Some(step);
                    gone.push(a.seq);
                }
                Op::Remove(n) => {
                    let seq = n % (next_seq + 1);
                    let queued = model.iter().any(|q| q.0 == seq).then_some(seq);
                    assert_eq!(s.remove(seq).map(|a| a.seq), queued);
                    gone.extend(queued);
                }
                Op::EarliestDeadline => {
                    let expected = model.iter().filter_map(|q| Some((q.2?, q.0))).min();
                    assert_eq!(s.earliest_deadline(), expected);
                }
                Op::DrainAll => {
                    gone = s.drain_all().iter().map(|a| a.seq).collect();
                    let mut expected: Vec<u64> = model.iter().map(|q| q.0).collect();
                    expected.sort_unstable();
                    assert_eq!(gone, expected);
                }
            }
            for seq in gone {
                assert!(left.insert(seq), "seq {seq} left twice");
                model.retain(|q| q.0 != seq);
            }
            assert_eq!(s.len(), model.len(), "len() after step {step}");
            for (t, name) in TENANTS.iter().enumerate() {
                let queued = model.iter().any(|q| q.1 == t);
                since[t] = since[t].or(Some(step)).filter(|_| queued);
                let slots = s.ring.iter().filter(|r| r == name).count();
                assert!(
                    !queued || slots == 1,
                    "{name} holds {slots} ring slots after step {step}"
                );
            }
        }
        assert_eq!(left.len() as u64, next_seq, "every admitted seq leaves");
    }

    /// The model check's shrunk failure at the scheduler before `remove`
    /// took an emptied tenant off the ring ("c holds 2 ring slots after
    /// step 2"), and what that cost: two turns for `a` while `b` waited.
    #[test]
    fn model_regression_remove_then_push_same_tenant() {
        let c = Op::Push(2, None);
        check(&[c, Op::Remove(0), c]);
        let (a, b) = (Op::Push(0, None), Op::Push(1, None));
        check(&[a, Op::Remove(0), a, a, b, b, Op::Pop, Op::Pop]);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        #[test]
        fn scheduler_matches_its_fifo_model(ops in prop::collection::vec(op(), 0..64)) {
            check(&ops);
        }
    }
}
