//! Injectable time source for the timed model decorators.
//!
//! Production code runs on [`SystemClock`]; tests run on
//! [`SimulatedClock`] so injected latency, batch collection windows and
//! hedge delays are deterministic and never block on wall time. The trait lives here —
//! below every other crate — so the model decorators in `genedit_llm`
//! and their tests share one definition.

use std::sync::{Mutex, MutexGuard};
use std::time::Duration;

/// Injectable time source so time-windowed logic is testable without
/// wall-clock sleeps.
pub trait Clock: Send + Sync {
    /// Monotonic time since an arbitrary epoch.
    fn now(&self) -> Duration;
    /// Block (or pretend to block) for `duration`.
    fn sleep(&self, duration: Duration);
}

/// Real time: `Instant`-based `now`, `thread::sleep`-based `sleep`.
pub struct SystemClock {
    origin: std::time::Instant,
}

impl SystemClock {
    /// Clock whose zero is the moment of construction.
    pub fn new() -> SystemClock {
        SystemClock {
            origin: std::time::Instant::now(),
        }
    }
}

impl Default for SystemClock {
    fn default() -> Self {
        SystemClock::new()
    }
}

impl Clock for SystemClock {
    fn now(&self) -> Duration {
        self.origin.elapsed()
    }

    fn sleep(&self, duration: Duration) {
        std::thread::sleep(duration);
    }
}

/// Virtual time: `sleep` advances an internal counter instantly. The
/// counter doubles as the total time a run would have waited — under a
/// `FaultInjector`, its injected latency.
#[derive(Default)]
pub struct SimulatedClock {
    state: Mutex<SimState>,
}

#[derive(Default, Clone, Copy)]
struct SimState {
    now: Duration,
    slept: Duration,
}

impl SimulatedClock {
    /// Virtual clock starting at zero elapsed time.
    pub fn new() -> SimulatedClock {
        SimulatedClock::default()
    }

    fn lock(&self) -> MutexGuard<'_, SimState> {
        self.state
            .lock()
            .unwrap_or_else(|poisoned| poisoned.into_inner())
    }

    /// Total virtual time slept so far (excludes [`SimulatedClock::advance`]).
    pub fn total_slept(&self) -> Duration {
        self.lock().slept
    }

    /// Advance virtual time without attributing it to a sleep.
    pub fn advance(&self, by: Duration) {
        self.lock().now += by;
    }
}

impl Clock for SimulatedClock {
    fn now(&self) -> Duration {
        self.lock().now
    }

    fn sleep(&self, duration: Duration) {
        let mut state = self.lock();
        state.now += duration;
        state.slept += duration;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn simulated_clock_advances_without_blocking() {
        let clock = SimulatedClock::new();
        assert_eq!(clock.now(), Duration::ZERO);
        clock.sleep(Duration::from_secs(3));
        clock.advance(Duration::from_secs(2));
        assert_eq!(clock.now(), Duration::from_secs(5));
        assert_eq!(clock.total_slept(), Duration::from_secs(3));
    }

    #[test]
    fn system_clock_is_monotonic() {
        let clock = SystemClock::new();
        let a = clock.now();
        let b = clock.now();
        assert!(b >= a);
    }

    #[test]
    fn usable_as_trait_object() {
        let clock: Arc<dyn Clock> = Arc::new(SimulatedClock::new());
        clock.sleep(Duration::from_millis(10));
        assert_eq!(clock.now(), Duration::from_millis(10));
    }
}
