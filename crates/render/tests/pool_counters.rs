//! The process-global pool counters ([`construction_count`],
//! [`spawned_thread_count`]). They count every pool in the process, so
//! these checks live in their own test binary, where no other test builds
//! pools, and take one lock so they never overlap each other.

use gaurast_render::pool::{construction_count, spawned_thread_count, WorkerPool};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};

static COUNTERS: Mutex<()> = Mutex::new(());

#[test]
fn reuse_spawns_no_new_threads() {
    let _guard = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    // The zero-spawns-per-frame contract: all spawning happens at
    // construction; 100 dispatches add none.
    let pool = WorkerPool::new(4);
    let before = spawned_thread_count();
    for round in 0..100 {
        let sum = AtomicUsize::new(0);
        pool.run(32, |i| {
            sum.fetch_add(i, Ordering::Relaxed);
        });
        assert_eq!(sum.into_inner(), 31 * 32 / 2, "round {round}");
    }
    assert_eq!(
        spawned_thread_count(),
        before,
        "a dispatch spawned a thread"
    );
}

#[test]
fn construction_is_counted() {
    let _guard = COUNTERS.lock().unwrap_or_else(PoisonError::into_inner);
    let before = construction_count();
    let _p = WorkerPool::new(2);
    let _q = WorkerPool::new(1);
    assert_eq!(construction_count(), before + 2);
}
