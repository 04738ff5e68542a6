//! Request, outcome, and completion-handle types for the serving runtime.

use crate::lock;
use genedit_core::{CancelToken, GenerationResult};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// One question submitted to the serving runtime.
#[derive(Debug, Clone)]
pub struct QueryRequest {
    /// Tenant the request bills to; fairness and cache keys are scoped
    /// by this value.
    pub tenant: String,
    /// The natural-language question.
    pub question: String,
    /// Benchmark-style evidence strings (usually empty in GenEdit mode).
    pub evidence: Vec<String>,
    /// Absolute deadline. Expired requests are dropped (never executed)
    /// and under queue saturation the earliest deadline is shed first.
    pub deadline: Option<Instant>,
}

impl QueryRequest {
    /// A request with no deadline or evidence.
    pub fn new(tenant: impl Into<String>, question: impl Into<String>) -> QueryRequest {
        QueryRequest {
            tenant: tenant.into(),
            question: question.into(),
            evidence: Vec::new(),
            deadline: None,
        }
    }

    /// Set an absolute deadline `budget` from now.
    pub fn with_deadline_in(mut self, budget: Duration) -> QueryRequest {
        self.deadline = Some(Instant::now() + budget);
        self
    }

    /// Set an absolute deadline. A deadline already in the past is
    /// rejected at submit with [`Rejected::DeadlineExpired`].
    pub fn with_deadline(mut self, deadline: Instant) -> QueryRequest {
        self.deadline = Some(deadline);
        self
    }

    /// Attach benchmark-style evidence strings.
    pub fn with_evidence(mut self, evidence: Vec<String>) -> QueryRequest {
        self.evidence = evidence;
        self
    }
}

/// Why a submission was refused at the admission gate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Rejected {
    /// The queue is saturated and the incoming request's deadline is no
    /// later than every queued request's — shedding would not help.
    QueueFull,
    /// The runtime is draining; no new work is accepted.
    ShuttingDown,
    /// The request's deadline had already passed at submit time, so it
    /// was rejected up front instead of consuming a queue slot only to
    /// expire unexecuted.
    DeadlineExpired,
}

/// Terminal state of an admitted request.
#[derive(Debug, Clone)]
pub enum QueryOutcome {
    /// The pipeline ran (or a cached result was replayed).
    Completed {
        /// Boxed: a full generation result is large and the other
        /// outcome variants carry nothing.
        result: Box<GenerationResult>,
        /// True when served from the epoch-keyed result cache.
        cached: bool,
        /// Time spent queued before a worker picked the request up.
        queue_wait: Duration,
        /// Worker-side execution time (cache lookup or full generation).
        service: Duration,
        /// Global dequeue order — position in the service sequence
        /// across all tenants. Fairness tests assert on this.
        service_seq: u64,
    },
    /// Deadline passed while queued or mid-generation; no SQL produced.
    Expired,
    /// Caller cancelled via [`Ticket::cancel`].
    Cancelled,
    /// Evicted from a saturated queue in favor of a request with a later
    /// deadline (oldest-deadline-first shedding).
    Shed,
    /// The worker thread serving this request **panicked**. The panic
    /// was caught at the per-request isolation boundary, the ticket was
    /// resolved (this variant), and the worker rebuilt its pipeline and
    /// kept serving on the same thread — the panic cost this request
    /// only, never a worker, and never left this ticket hanging.
    Failed {
        /// Human-readable summary of the panic payload (the `&str` or
        /// `String` passed to `panic!`, or a placeholder for exotic
        /// payloads).
        reason: String,
    },
}

impl QueryOutcome {
    /// The generation result, when the request completed.
    pub fn result(&self) -> Option<&GenerationResult> {
        match self {
            QueryOutcome::Completed { result, .. } => Some(result.as_ref()),
            _ => None,
        }
    }

    /// Whether the request reached [`QueryOutcome::Completed`].
    pub fn is_completed(&self) -> bool {
        matches!(self, QueryOutcome::Completed { .. })
    }
}

#[derive(Default)]
struct TicketState {
    outcome: Option<QueryOutcome>,
}

/// Shared completion slot between a [`Ticket`] and the runtime.
pub(crate) struct TicketCell {
    state: Mutex<TicketState>,
    done: Condvar,
}

impl TicketCell {
    pub(crate) fn complete(&self, outcome: QueryOutcome) {
        let mut state = lock(&self.state);
        if state.outcome.is_none() {
            state.outcome = Some(outcome);
        }
        drop(state);
        self.done.notify_all();
    }

    /// Whether a terminal outcome has been recorded. The panic-isolation
    /// guard consults this to catch request paths that would otherwise
    /// return without ever resolving the ticket.
    pub(crate) fn is_complete(&self) -> bool {
        lock(&self.state).outcome.is_some()
    }
}

/// Handle returned by a successful `submit`: wait for the outcome,
/// poll it, or cancel the request cooperatively.
pub struct Ticket {
    cell: Arc<TicketCell>,
    cancel: CancelToken,
    request_id: String,
}

impl Ticket {
    pub(crate) fn new(cancel: CancelToken, request_id: String) -> (Ticket, Arc<TicketCell>) {
        let cell = Arc::new(TicketCell {
            state: Mutex::new(TicketState::default()),
            done: Condvar::new(),
        });
        (
            Ticket {
                cell: Arc::clone(&cell),
                cancel,
                request_id,
            },
            cell,
        )
    }

    /// The request ID assigned at admission. The same ID appears as the
    /// `request_id` attribute on the generation's root span and in
    /// flight-recorder dumps, so one request's telemetry joins across
    /// the ticket, the trace and the dump.
    pub fn request_id(&self) -> &str {
        &self.request_id
    }

    /// Request cooperative cancellation. The pipeline checks between
    /// operators; a request still queued resolves without executing.
    pub fn cancel(&self) {
        self.cancel.cancel();
    }

    /// Block until the request reaches a terminal state.
    pub fn wait(&self) -> QueryOutcome {
        let mut state = lock(&self.cell.state);
        loop {
            if let Some(outcome) = state.outcome.clone() {
                return outcome;
            }
            state = self
                .cell
                .done
                .wait(state)
                .unwrap_or_else(|poisoned| poisoned.into_inner());
        }
    }

    /// The outcome, if the request already finished.
    pub fn try_wait(&self) -> Option<QueryOutcome> {
        lock(&self.cell.state).outcome.clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ticket_wait_sees_completion_from_another_thread() {
        let (ticket, cell) = Ticket::new(CancelToken::new(), "req-00000001".to_string());
        assert_eq!(ticket.request_id(), "req-00000001");
        assert!(ticket.try_wait().is_none());
        let handle = thread::spawn(move || cell.complete(QueryOutcome::Shed));
        let outcome = ticket.wait();
        handle.join().ok();
        assert!(matches!(outcome, QueryOutcome::Shed));
        assert!(ticket.try_wait().is_some());
    }

    #[test]
    fn first_completion_wins() {
        let (ticket, cell) = Ticket::new(CancelToken::new(), "req-00000002".to_string());
        cell.complete(QueryOutcome::Expired);
        cell.complete(QueryOutcome::Shed);
        assert!(matches!(ticket.wait(), QueryOutcome::Expired));
    }
}
