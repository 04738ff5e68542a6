//! Cooperative cancellation for in-flight generations and model calls.
//!
//! The serving runtime hands each worker a [`CancelToken`] carrying the
//! request's deadline and a caller-cancellable flag. The pipeline checks
//! it **between operators** (never mid-operator — operators are the unit
//! of useful work) and returns a partial, clearly-marked result instead
//! of burning model calls on an answer nobody is waiting for.
//!
//! This module also owns the **cancel scope**: a thread-local token a
//! model below the pipeline can consult *inside* a call.
//! [`crate::HedgedModel`] installs one per copy so the losing copy can
//! stop; that is its only user, and the scope goes when hedging does.
//! The token lives here, below `genedit_core` in the dependency graph,
//! for that reason; `genedit_core` re-exports it, so
//! `genedit_core::CancelToken` remains valid.

use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// A shareable cancellation signal: an explicit flag plus an optional
/// deadline. Cloning shares the flag — cancelling any clone cancels all.
#[derive(Debug, Clone, Default)]
pub struct CancelToken {
    flag: Arc<AtomicBool>,
    deadline: Option<Instant>,
}

impl CancelToken {
    /// A token that never fires unless [`CancelToken::cancel`] is called.
    pub fn new() -> CancelToken {
        CancelToken::default()
    }

    /// A token that additionally fires once `deadline` passes.
    pub fn with_deadline(deadline: Instant) -> CancelToken {
        CancelToken {
            flag: Arc::new(AtomicBool::new(false)),
            deadline: Some(deadline),
        }
    }

    /// Request cancellation. Idempotent; visible to every clone.
    pub fn cancel(&self) {
        self.flag.store(true, Ordering::SeqCst);
    }

    /// Whether the token has fired — explicitly cancelled, or past its
    /// deadline.
    pub fn is_cancelled(&self) -> bool {
        if self.flag.load(Ordering::SeqCst) {
            return true;
        }
        match self.deadline {
            Some(d) => Instant::now() >= d,
            None => false,
        }
    }

    /// The deadline, when one was attached.
    pub fn deadline(&self) -> Option<Instant> {
        self.deadline
    }
}

thread_local! {
    static CURRENT: RefCell<Vec<CancelToken>> = const { RefCell::new(Vec::new()) };
}

/// Run `f` with `token` installed as the thread's current cancel scope.
///
/// Scopes nest: the innermost token wins, and the previous scope is
/// restored when `f` returns (including on unwind, via a drop guard).
/// A model below [`crate::HedgedModel`] consults [`current`] so a losing
/// copy stops promptly without a token parameter on every call.
pub fn with_current<T>(token: &CancelToken, f: impl FnOnce() -> T) -> T {
    struct Pop;
    impl Drop for Pop {
        fn drop(&mut self) {
            CURRENT.with(|stack| {
                stack.borrow_mut().pop();
            });
        }
    }
    CURRENT.with(|stack| stack.borrow_mut().push(token.clone()));
    let _pop = Pop;
    f()
}

/// The innermost cancel scope installed on this thread, if any.
pub fn current() -> Option<CancelToken> {
    CURRENT.with(|stack| stack.borrow().last().cloned())
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;

    #[test]
    fn cancel_is_shared_across_clones() {
        let a = CancelToken::new();
        let b = a.clone();
        assert!(!a.is_cancelled() && !b.is_cancelled());
        b.cancel();
        assert!(a.is_cancelled() && b.is_cancelled());
    }

    #[test]
    fn deadline_fires_without_explicit_cancel() {
        let t = CancelToken::with_deadline(Instant::now() - Duration::from_millis(1));
        assert!(t.is_cancelled());
        let far = CancelToken::with_deadline(Instant::now() + Duration::from_secs(3600));
        assert!(!far.is_cancelled());
        far.cancel();
        assert!(far.is_cancelled());
    }

    #[test]
    fn scope_nests_and_restores() {
        assert!(current().is_none());
        let outer = CancelToken::new();
        let inner = CancelToken::new();
        inner.cancel();
        with_current(&outer, || {
            assert!(!current().map(|t| t.is_cancelled()).unwrap_or(true));
            with_current(&inner, || {
                assert!(current().map(|t| t.is_cancelled()).unwrap_or(false));
            });
            // Inner scope popped: the outer (uncancelled) token is back.
            assert!(!current().map(|t| t.is_cancelled()).unwrap_or(true));
        });
        assert!(current().is_none());
    }

    #[test]
    fn scope_restores_on_unwind() {
        let token = CancelToken::new();
        let caught = std::panic::catch_unwind(|| {
            with_current(&token, || panic!("boom"));
        });
        assert!(caught.is_err());
        assert!(current().is_none());
    }
}
