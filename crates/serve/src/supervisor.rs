//! Worker supervision: keep the pool at configured size.
//!
//! The serving runtime's panic domain is the worker thread. A request
//! that panics is caught at the per-request `catch_unwind` boundary and
//! its ticket resolved, but the worker then **retires** — deliberately
//! exits — rather than keep serving on a thread whose request just
//! unwound (Erlang's "let it crash" discipline, scoped to one thread).
//! The supervisor watches the pool, reaps finished workers, and respawns
//! them with exponential backoff, up to a per-slot budget; a slot that
//! exhausts its budget is abandoned (and counted) instead of flapping
//! forever.
//!
//! The supervisor thread itself holds no request state: it only touches
//! the worker table, so a wedged worker can never wedge supervision.

use genedit_telemetry::MetricsRegistry;
use std::sync::{Arc, Mutex, MutexGuard};
use std::thread::JoinHandle;
use std::time::Duration;

/// Supervision policy for the worker pool.
#[derive(Debug, Clone, PartialEq)]
pub struct SupervisorConfig {
    /// How often the supervisor scans the pool for dead workers.
    pub poll_interval: Duration,
    /// Backoff before the first respawn of a slot; doubles per respawn.
    pub backoff_base: Duration,
    /// Backoff ceiling.
    pub backoff_max: Duration,
    /// Respawns allowed per worker slot before the slot is abandoned.
    /// The budget bounds the damage of a deterministic crash loop: with
    /// quarantine also enabled the poison source is cut off long before
    /// the budget runs out.
    pub respawn_budget: u32,
}

impl Default for SupervisorConfig {
    fn default() -> SupervisorConfig {
        SupervisorConfig {
            poll_interval: Duration::from_millis(5),
            backoff_base: Duration::from_millis(10),
            backoff_max: Duration::from_secs(1),
            respawn_budget: 32,
        }
    }
}

/// One worker slot: the OS thread currently serving it, and how many
/// times the supervisor has had to replace it.
pub(crate) struct WorkerSlot {
    /// `Some(running-or-finished)`, or `None` when the slot is between
    /// threads (pending respawn, or abandoned).
    pub handle: Option<JoinHandle<()>>,
    /// Respawns consumed from the budget.
    pub respawns: u32,
    /// Budget exhausted: the supervisor stops resuscitating this slot.
    pub abandoned: bool,
}

impl WorkerSlot {
    pub fn new(handle: JoinHandle<()>) -> WorkerSlot {
        WorkerSlot {
            handle: Some(handle),
            respawns: 0,
            abandoned: false,
        }
    }

    /// Whether a live (not yet finished) thread occupies this slot.
    pub fn is_alive(&self) -> bool {
        self.handle.as_ref().is_some_and(|h| !h.is_finished())
    }
}

/// The worker table, shared by the runtime (for shutdown joins and pool
/// introspection) and the supervisor thread (for respawns).
pub(crate) type WorkerTable = Arc<Mutex<Vec<WorkerSlot>>>;

pub(crate) fn lock_table(table: &WorkerTable) -> MutexGuard<'_, Vec<WorkerSlot>> {
    crate::lock(table)
}

/// Live workers in the pool right now.
pub(crate) fn alive_workers(table: &WorkerTable) -> usize {
    lock_table(table).iter().filter(|s| s.is_alive()).count()
}

/// The supervision loop. Runs on its own thread until `is_shutdown`
/// turns true. `spawn(slot_index)` creates a replacement worker thread
/// for a slot — the runtime provides it as a closure over its shared
/// state, keeping this module free of the model type parameter.
pub(crate) fn supervisor_loop(
    table: WorkerTable,
    config: SupervisorConfig,
    metrics: Arc<MetricsRegistry>,
    is_shutdown: impl Fn() -> bool,
    spawn: impl Fn(usize) -> std::io::Result<JoinHandle<()>>,
) {
    loop {
        if is_shutdown() {
            return;
        }
        // Find (and reap) the first dead slot, releasing the lock before
        // any sleeping so shutdown joins and pool introspection never
        // wait on a backoff.
        let dead = {
            let mut slots = lock_table(&table);
            let mut found = None;
            for (i, slot) in slots.iter_mut().enumerate() {
                if slot.abandoned || slot.is_alive() {
                    continue;
                }
                if let Some(handle) = slot.handle.take() {
                    // Reap: the per-request catch_unwind means worker
                    // threads exit cleanly even after serving a
                    // panicking request, so join errors are unexpected —
                    // but either way the thread is gone.
                    let _ = handle.join();
                }
                if slot.respawns >= config.respawn_budget {
                    slot.abandoned = true;
                    metrics.incr("serve.worker.abandoned", 1);
                    continue;
                }
                slot.respawns += 1;
                found = Some((i, slot.respawns));
                break;
            }
            metrics.set_gauge(
                "serve.workers.alive",
                slots.iter().filter(|s| s.is_alive()).count() as f64,
            );
            found
        };
        let Some((index, attempt)) = dead else {
            std::thread::sleep(config.poll_interval);
            continue;
        };
        let backoff = config
            .backoff_base
            .saturating_mul(1u32 << (attempt - 1).min(16))
            .min(config.backoff_max);
        std::thread::sleep(backoff);
        if is_shutdown() {
            return;
        }
        match spawn(index) {
            Ok(handle) => {
                lock_table(&table)[index].handle = Some(handle);
                metrics.incr("serve.worker.respawned", 1);
            }
            Err(_) => {
                // Slot stays empty (handle None, not abandoned): the
                // next scan retries it, consuming more budget, so a
                // transient spawn failure self-heals and a persistent
                // one terminates in `abandoned`.
                metrics.incr("serve.worker.spawn_failed", 1);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};

    fn table_of(n: usize) -> WorkerTable {
        let slots = (0..n)
            .map(|_| WorkerSlot::new(std::thread::spawn(|| {})))
            .collect();
        Arc::new(Mutex::new(slots))
    }

    #[test]
    fn respawns_dead_workers_until_shutdown() {
        // Workers that exit immediately: the supervisor keeps respawning
        // until we flip shutdown.
        let table = table_of(2);
        let shutdown = Arc::new(AtomicBool::new(false));
        let spawned = Arc::new(AtomicUsize::new(0));
        let metrics = Arc::new(MetricsRegistry::new());
        let sup = {
            let table = Arc::clone(&table);
            let shutdown = Arc::clone(&shutdown);
            let spawned = Arc::clone(&spawned);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                supervisor_loop(
                    table,
                    SupervisorConfig {
                        poll_interval: Duration::from_millis(1),
                        backoff_base: Duration::from_millis(1),
                        backoff_max: Duration::from_millis(2),
                        respawn_budget: 1_000,
                    },
                    metrics,
                    || shutdown.load(Ordering::SeqCst),
                    move |_| {
                        spawned.fetch_add(1, Ordering::SeqCst);
                        std::thread::Builder::new().spawn(|| {})
                    },
                )
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while spawned.load(Ordering::SeqCst) < 4 {
            assert!(std::time::Instant::now() < deadline, "supervisor stalled");
            std::thread::sleep(Duration::from_millis(1));
        }
        shutdown.store(true, Ordering::SeqCst);
        sup.join().unwrap();
        assert!(metrics.counter("serve.worker.respawned") >= 4);
    }

    #[test]
    fn budget_exhaustion_abandons_the_slot() {
        let table = table_of(1);
        let shutdown = Arc::new(AtomicBool::new(false));
        let metrics = Arc::new(MetricsRegistry::new());
        let sup = {
            let table = Arc::clone(&table);
            let shutdown = Arc::clone(&shutdown);
            let metrics = Arc::clone(&metrics);
            std::thread::spawn(move || {
                supervisor_loop(
                    table,
                    SupervisorConfig {
                        poll_interval: Duration::from_millis(1),
                        backoff_base: Duration::from_millis(1),
                        backoff_max: Duration::from_millis(1),
                        respawn_budget: 3,
                    },
                    metrics,
                    || shutdown.load(Ordering::SeqCst),
                    |_| std::thread::Builder::new().spawn(|| {}),
                )
            })
        };
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        while metrics.counter("serve.worker.abandoned") == 0 {
            assert!(std::time::Instant::now() < deadline, "slot never abandoned");
            std::thread::sleep(Duration::from_millis(1));
        }
        shutdown.store(true, Ordering::SeqCst);
        sup.join().unwrap();
        assert_eq!(metrics.counter("serve.worker.respawned"), 3);
        assert!(lock_table(&table)[0].abandoned);
        assert_eq!(alive_workers(&table), 0);
    }
}
