//! One measured pass over a world: set-up, warm-up, the timed blocks.

use crate::driver::Driver;
use crate::report::QUIET_STEAL_SHARE;
use crate::workloads::{Kind, World};
use std::path::Path;
use std::time::{Duration, Instant};

/// Times set-up is repeated in an untraced run; `setup_s` is the median.
pub const SETUP_REPEATS: usize = 3;

/// Build the world and take it to the point where timing could start:
/// every domain's runtime started once and warmed with every distinct
/// question. Returns the world and how long all of that took.
pub fn set_up(kind: Kind, seed: u64, scratch: &Path) -> (World, f64) {
    let started = Instant::now();
    let world = World::build(kind, seed, scratch);
    {
        let mut driver = Driver::new(&world, false);
        for domain in 0..world.domains.len() {
            let runtime = world.start_runtime(&world.domains[domain], driver.model.clone());
            driver.warm_up(&runtime, domain);
            runtime.shutdown();
        }
    }
    (world, started.elapsed().as_secs_f64())
}

/// Replay the world's streams for `seconds`, cut into `blocks` blocks.
/// Each block gives every domain an equal share of its time, with one
/// serving runtime alive at a time. A block the hypervisor disturbed
/// (see [`QUIET_STEAL_SHARE`]) is followed by an extra one, until
/// `blocks` quiet ones exist or the pass has run half as long again.
pub fn run<'w>(world: &'w World, traced: bool, seconds: f64, blocks: usize) -> Driver<'w> {
    let mut driver = Driver::new(world, traced);
    let domains = world.domains.len();
    let slice = Duration::from_secs_f64(seconds / (blocks * domains) as f64);
    if domains == 1 {
        // One runtime for the whole pass, so its caches, tenant directory
        // and epochs carry from block to block.
        let runtime = world.start_runtime(&world.domains[0], driver.model.clone());
        driver.warm_up(&runtime, 0);
        let served = runtime.metrics().counter_values();
        let stored = world.churn.as_ref().map(|c| c.metrics.counter_values());
        let mut block = 0;
        while needs_another_block(&driver, blocks) {
            driver.run_slice(&runtime, 0, slice, block);
            block += 1;
        }
        driver.absorb_counters(runtime.metrics(), &served);
        if let (Some(churn), Some(stored)) = (&world.churn, &stored) {
            driver.absorb_counters(&churn.metrics, stored);
        }
        runtime.shutdown();
    } else {
        let mut block = 0;
        while needs_another_block(&driver, blocks) {
            for domain in 0..domains {
                let runtime = world.start_runtime(&world.domains[domain], driver.model.clone());
                driver.run_slice(&runtime, domain, slice, block);
                driver.absorb_counters(runtime.metrics(), &Default::default());
                runtime.shutdown();
            }
            block += 1;
        }
    }
    driver
}

fn needs_another_block(driver: &Driver<'_>, wanted: usize) -> bool {
    let quiet = driver
        .blocks
        .iter()
        .filter(|b| b.steal_share() <= QUIET_STEAL_SHARE)
        .count();
    quiet < wanted && driver.blocks.len() < wanted + wanted / 2
}
