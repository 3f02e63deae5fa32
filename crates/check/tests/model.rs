//! Model-checked verification of the renderer's lock-free protocols.
//!
//! This suite only compiles under `--cfg gaurast_model_check` (set via
//! `RUSTFLAGS`), which switches `gaurast_render::sync` from `std`
//! re-exports to the shadow primitives of `gaurast_check::shadow`. The
//! tests then drive the *production* `WorkerPool` and `RadixSorter` code
//! through sequentially consistent interleavings of their atomic, park and
//! unpark operations and prove the protocol invariants the renderer's
//! determinism rests on:
//!
//! * **exactly-once claims** — the pool's `fetch_add` cursor hands every
//!   job index to exactly one worker;
//! * **no lost wakeup / clean shutdown** — the persistent pool's
//!   generation + park/unpark handoff always completes a dispatch and
//!   always joins its workers at drop (a lost wakeup shows up as a
//!   scheduler-detected deadlock);
//! * **disjoint scatter ranges** — the radix placement table gives every
//!   (chunk, bucket) an output range no other chunk writes, and Stage 2's
//!   tile prefix gives every (chunk, tile) one.
//!
//! Single-dispatch pool lifecycles at width 2 (spawn → dispatch → drop)
//! are **exhaustively** enumerated — those reports assert `exhaustive`.
//! Wider pools and multi-dispatch reuse runs have state spaces in the
//! millions of schedules, so they run the depth-first prefix plus seeded
//! random sampling instead; the invariants are asserted on every explored
//! schedule either way.
//!
//! Each invariant is paired with a *mutant*: the classic broken variant
//! (load-then-store claim, missed generation bump, inclusive instead of
//! exclusive prefix) written against the same `gaurast_render::sync`
//! facade. The checker must produce a
//! [`gaurast_check::model::Violation`] for every mutant — that regression
//! is what CI runs, proving the checker actually has the power to reject
//! the bugs the real protocols avoid.
#![cfg(gaurast_model_check)]

use gaurast_check::model::Model;
use gaurast_math::{Vec2, Vec3};
use gaurast_render::pool::WorkerPool;
use gaurast_render::sort::RadixSorter;
use gaurast_render::sync::atomic::{AtomicUsize, Ordering};
use gaurast_render::sync::thread;
use gaurast_render::tile::{bin_splats_pooled, tile_range};
use gaurast_render::{FrameArena, RasterWorkload, Splat2D};
use std::sync::Arc;

// Verification counters use plain `std` atomics on purpose: the scheduler
// serializes shadow threads, so they are race-free, and keeping them out
// of the shadow layer means they add no yield points — the explored state
// space stays exactly the protocol's own operations.
use std::sync::atomic::AtomicUsize as StdAtomicUsize;
use std::sync::atomic::Ordering::Relaxed;

#[test]
fn pool_cursor_claims_each_job_exactly_once_2x3() {
    // Width 2, one dispatch of 3 jobs, full pool lifecycle (spawn, park,
    // wake, drain, shutdown): ~37k schedules — exhaustively enumerated.
    let report = Model::new()
        .max_schedules(80_000)
        .check(|| {
            let pool = WorkerPool::new(2);
            let claims: Vec<StdAtomicUsize> = (0..3).map(|_| StdAtomicUsize::new(0)).collect();
            pool.run(3, |i| {
                claims[i].fetch_add(1, Relaxed);
            });
            for (i, c) in claims.iter().enumerate() {
                assert_eq!(c.load(Relaxed), 1, "job {i} not claimed exactly once");
            }
        })
        .expect("the fetch_add cursor must claim every job exactly once");
    assert!(report.exhaustive, "this size must be fully enumerable");
    assert!(report.schedules > 1, "2 workers must actually interleave");
}

#[test]
fn pool_cursor_claims_each_job_exactly_once_3x3() {
    // Three workers racing one cursor: the state space tops 3M schedules
    // (two resident threads interleave through the whole dispatch), so
    // this runs the DFS prefix plus seeded sampling rather than proving
    // exhaustiveness — width-2 lifecycles are the exhaustive ones.
    let report = Model::new()
        .max_schedules(2_000)
        .samples(256)
        .check(|| {
            let pool = WorkerPool::new(3);
            let claims: Vec<StdAtomicUsize> = (0..3).map(|_| StdAtomicUsize::new(0)).collect();
            pool.run(3, |i| {
                claims[i].fetch_add(1, Relaxed);
            });
            for (i, c) in claims.iter().enumerate() {
                assert_eq!(c.load(Relaxed), 1, "job {i} not claimed exactly once");
            }
        })
        .expect("three workers racing one cursor still claim exactly once");
    assert!(report.schedules > 1);
}

/// Pool **reuse**: two dispatches on one long-lived pool, exercising the
/// generation handoff across park/unpark cycles — a lost wakeup between
/// the dispatches (a worker sleeping through the second generation bump)
/// would deadlock the run and the scheduler would flag it.
#[test]
fn pool_reuse_across_dispatches_loses_no_wakeup() {
    let report = Model::new()
        .max_schedules(4_000)
        .samples(256)
        .check(|| {
            let pool = WorkerPool::new(2);
            let claims: Vec<StdAtomicUsize> = (0..4).map(|_| StdAtomicUsize::new(0)).collect();
            pool.run(2, |i| {
                claims[i].fetch_add(1, Relaxed);
            });
            pool.run(2, |i| {
                claims[2 + i].fetch_add(1, Relaxed);
            });
            for (i, c) in claims.iter().enumerate() {
                assert_eq!(
                    c.load(Relaxed),
                    1,
                    "claim {i} not exactly once across reuse"
                );
            }
        })
        .expect("a reused pool must complete every dispatch exactly once");
    assert!(report.schedules > 1);
}

/// Clean shutdown on every schedule: the `Drop` bump-to-odd + unpark must
/// reach a worker no matter where it is in its loop (mid-drain, parked,
/// about to park with a stale token); a missed exit would hang the join
/// and surface as a scheduler deadlock.
#[test]
fn pool_shutdown_joins_cleanly_on_every_schedule() {
    let report = Model::new()
        .max_schedules(40_000)
        .check(|| {
            let pool = WorkerPool::new(2);
            let ran = StdAtomicUsize::new(0);
            pool.run(2, |_| {
                ran.fetch_add(1, Relaxed);
            });
            drop(pool); // the assertion: this join terminates on every schedule
            assert_eq!(ran.load(Relaxed), 2);
        })
        .expect("shutdown must join the resident workers on every schedule");
    assert!(report.exhaustive, "this size must be fully enumerable");
}

#[test]
fn pool_run_mut_hands_out_every_slot_exactly_once() {
    let report = Model::new()
        .max_schedules(80_000)
        .check(|| {
            let pool = WorkerPool::new(2);
            let mut slots = [0usize; 3];
            pool.run_mut(&mut slots, |i, slot| {
                // A second visit to the same slot would double this.
                *slot += i + 1;
            });
            assert_eq!(slots, [1, 2, 3], "each slot written by exactly one job");
        })
        .expect("run_mut's disjoint &mut handout holds on every schedule");
    assert!(report.exhaustive);
}

/// The deliberately broken cursor of the ISSUE's acceptance criterion: a
/// load-then-store claim loop written against the same facade the real
/// pool uses. Some interleaving makes two workers observe the same index —
/// the checker must find it.
#[test]
fn mutant_load_then_store_cursor_is_caught() {
    let violation = Model::new()
        .check(|| {
            let n_jobs = 3;
            let cursor = AtomicUsize::new(0);
            let claims: Vec<StdAtomicUsize> = (0..n_jobs).map(|_| StdAtomicUsize::new(0)).collect();
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| loop {
                        // BUG under test: claim is not atomic.
                        let i = cursor.load(Ordering::SeqCst);
                        cursor.store(i + 1, Ordering::SeqCst);
                        if i >= n_jobs {
                            break;
                        }
                        assert_eq!(claims[i].fetch_add(1, Relaxed), 0, "job claimed twice");
                    });
                }
            });
        })
        .expect_err("the checker must find the duplicate-claim schedule");
    assert!(
        violation.message.contains("claimed twice"),
        "unexpected violation: {violation}"
    );
    assert!(
        violation.schedule.contains('T'),
        "violation must carry a reproduction schedule: {violation}"
    );
}

/// The persistent-pool mutant of the ISSUE: a dispatcher that publishes
/// work and unparks its worker but **forgets the generation bump**. The
/// worker wakes, sees no new generation, parks again — and the dispatch
/// hangs with every thread parked. The checker must catch this as a
/// deadlock (this is exactly the failure a lost `fetch_add(2)` in
/// `WorkerPool`'s dispatch would cause).
#[test]
fn mutant_missed_generation_bump_is_caught() {
    let violation = Model::new()
        .check(|| {
            let generation = Arc::new(AtomicUsize::new(0));
            let remaining = Arc::new(AtomicUsize::new(0));
            let caller = thread::current();
            let worker = {
                let generation = Arc::clone(&generation);
                let remaining = Arc::clone(&remaining);
                thread::spawn(move || {
                    let mut last = 0usize;
                    loop {
                        let g = generation.load(Ordering::SeqCst);
                        if g & 1 == 1 {
                            return;
                        }
                        if g == last {
                            thread::park();
                            continue;
                        }
                        last = g;
                        if remaining.fetch_sub(1, Ordering::SeqCst) == 1 {
                            caller.unpark();
                        }
                    }
                })
            };
            remaining.store(1, Ordering::SeqCst);
            // BUG under test: no `generation.fetch_add(2)` before the
            // wakeup — the worker has nothing to observe.
            worker.thread().unpark();
            while remaining.load(Ordering::SeqCst) != 0 {
                thread::park(); // hangs: the worker never drains
            }
            generation.fetch_add(1, Ordering::SeqCst);
            worker.thread().unpark();
            let _ = worker.join();
        })
        .expect_err("the checker must catch the lost dispatch as a deadlock");
    assert!(
        violation.message.contains("deadlock"),
        "expected a deadlock violation, got: {violation}"
    );
}

#[test]
fn radix_sort_is_correct_under_interleavings() {
    // 16 keys in 4 chunks of 4 on 2 workers; keys stay below 256 so only
    // digit 0 varies and the sort is a single histogram→prefix→scatter
    // round. Two dispatches on one persistent pool put the full state
    // space beyond enumeration, so this checks the DFS prefix plus seeded
    // samples of the production protocol.
    let keys: [u64; 16] = [9, 3, 200, 3, 17, 90, 4, 3, 250, 0, 64, 17, 9, 128, 2, 33];
    let report = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| {
            let pool = WorkerPool::new(2);
            let mut k: Vec<u64> = keys.to_vec();
            let mut v: Vec<u32> = (0..16).collect();
            RadixSorter::new().sort_pairs_chunked(&mut k, &mut v, &pool, 4);
            let mut expected: Vec<(u64, u32)> = keys.iter().copied().zip(0..16).collect();
            expected.sort_by_key(|&(key, _)| key); // stable oracle
            let got: Vec<(u64, u32)> = k.into_iter().zip(v).collect();
            assert_eq!(got, expected, "sort must be correct and stable");
        })
        .expect("histogram/prefix/scatter holds on every explored schedule");
    assert!(report.schedules > 1);
}

#[test]
fn depth_first_binning_is_correct_under_interleavings() {
    // Six splats on a 2×2-tile grid at 2 workers. The depth sort is a
    // single radix chunk (run inline), so the pool dispatches are Stage 2's
    // COUNT and SCATTER, one slice of the depth order per worker. The
    // depth order 3, 1, 0, 2, 4, 5 (the last four tied at depth 2) is cut
    // into [3, 1, 0] and [2, 4, 5], so the tie run straddles the seam; and
    // splats span several tiles, so both workers write into the same
    // tiles' ranges.
    let splat = |x: f32, y: f32, radius: f32, depth: f32| Splat2D {
        mean: Vec2::new(x, y),
        conic: [0.05, 0.0, 0.05],
        depth,
        color: Vec3::one(),
        opacity: 0.6,
        radius,
        source: 0,
    };
    let splats = vec![
        splat(16.0, 16.0, 6.0, 2.0),
        splat(8.0, 8.0, 3.0, 1.0),
        splat(20.0, 10.0, 5.0, 2.0),
        splat(16.0, 24.0, 4.0, 0.5),
        splat(24.0, 24.0, 3.0, 2.0),
        splat(12.0, 20.0, 7.0, 2.0),
    ];
    // Oracle: per-tile lists in submission order, stably depth-sorted by
    // `RasterWorkload::new`.
    let mut lists = vec![Vec::new(); 4];
    for (i, s) in splats.iter().enumerate() {
        let (x0, y0, x1, y1) = tile_range(s, 32, 32, 16).expect("on-image splat");
        for ty in y0..=y1 {
            for tx in x0..=x1 {
                lists[(ty * 2 + tx) as usize].push(i as u32);
            }
        }
    }
    let oracle = RasterWorkload::new(32, 32, 16, splats.clone(), lists);
    assert!(oracle.total_pairs() > 10, "splats must share tiles");
    let report = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| {
            let pool = WorkerPool::new(2);
            let got = bin_splats_pooled(splats.clone(), 32, 32, 16, &mut FrameArena::new(), &pool);
            assert_eq!(got, oracle, "binning must equal the per-tile oracle");
        })
        .expect("count/prefix/scatter holds on every explored schedule");
    assert!(report.schedules > 1);
}

/// Re-derivation of the scatter-disjointness argument with per-slot claim
/// counters: the exclusive (bucket, chunk) prefix gives every chunk output
/// ranges no other chunk touches, so every output index is written exactly
/// once per pass.
#[test]
fn scatter_ranges_are_disjoint_under_interleavings() {
    const BUCKETS: usize = 4; // 2-bit digit keeps the table small
    let keys: [usize; 8] = [3, 1, 0, 2, 1, 3, 0, 1];
    let report = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| {
            let pool = WorkerPool::new(2);
            let chunks = 2;
            let chunk_len = keys.len() / chunks;
            // 1. Per-chunk histograms (each job owns its row).
            let hist: Vec<StdAtomicUsize> = (0..chunks * BUCKETS)
                .map(|_| StdAtomicUsize::new(0))
                .collect();
            pool.run(chunks, |c| {
                for &k in &keys[c * chunk_len..(c + 1) * chunk_len] {
                    hist[c * BUCKETS + k].fetch_add(1, Relaxed);
                }
            });
            // 2. Exclusive prefix over (bucket, chunk) on the controller.
            let mut place = vec![0usize; chunks * BUCKETS];
            let mut running = 0;
            for b in 0..BUCKETS {
                for c in 0..chunks {
                    place[c * BUCKETS + b] = running;
                    running += hist[c * BUCKETS + b].load(Relaxed);
                }
            }
            assert_eq!(running, keys.len(), "histogram counts every key once");
            // 3. Scatter, counting writes per output slot.
            let writes: Vec<StdAtomicUsize> =
                (0..keys.len()).map(|_| StdAtomicUsize::new(0)).collect();
            let place = &place;
            let writes = &writes;
            pool.run(chunks, move |c| {
                let mut cursor = [0usize; BUCKETS];
                cursor.copy_from_slice(&place[c * BUCKETS..(c + 1) * BUCKETS]);
                for &k in &keys[c * chunk_len..(c + 1) * chunk_len] {
                    let at = cursor[k];
                    cursor[k] += 1;
                    writes[at].fetch_add(1, Relaxed);
                }
            });
            for (at, w) in writes.iter().enumerate() {
                assert_eq!(
                    w.load(Relaxed),
                    1,
                    "output slot {at} not written exactly once"
                );
            }
        })
        .expect("the exclusive prefix yields disjoint scatter ranges");
    assert!(report.schedules > 1);
}

/// Mutant of the placement step: an *inclusive* prefix (the off-by-one the
/// exclusive scan exists to avoid) makes chunk ranges overlap; some slot is
/// written twice and some never. The checker must reject it.
#[test]
fn mutant_inclusive_prefix_overlapping_scatter_is_caught() {
    const BUCKETS: usize = 4;
    let keys: [usize; 8] = [3, 1, 0, 2, 1, 3, 0, 1];
    let violation = Model::new()
        .max_schedules(3_000)
        .samples(192)
        .check(|| {
            let pool = WorkerPool::new(2);
            let chunks = 2;
            let chunk_len = keys.len() / chunks;
            let hist: Vec<StdAtomicUsize> = (0..chunks * BUCKETS)
                .map(|_| StdAtomicUsize::new(0))
                .collect();
            pool.run(chunks, |c| {
                for &k in &keys[c * chunk_len..(c + 1) * chunk_len] {
                    hist[c * BUCKETS + k].fetch_add(1, Relaxed);
                }
            });
            // BUG under test: inclusive prefix — ranges start one count too
            // late and overlap the successor's range.
            let mut place = vec![0usize; chunks * BUCKETS];
            let mut running = 0;
            for b in 0..BUCKETS {
                for c in 0..chunks {
                    running += hist[c * BUCKETS + b].load(Relaxed);
                    place[c * BUCKETS + b] = running % keys.len();
                }
            }
            let writes: Vec<StdAtomicUsize> =
                (0..keys.len()).map(|_| StdAtomicUsize::new(0)).collect();
            let place = &place;
            let writes = &writes;
            pool.run(chunks, move |c| {
                let mut cursor = [0usize; BUCKETS];
                cursor.copy_from_slice(&place[c * BUCKETS..(c + 1) * BUCKETS]);
                for &k in &keys[c * chunk_len..(c + 1) * chunk_len] {
                    let at = cursor[k] % keys.len();
                    cursor[k] += 1;
                    writes[at].fetch_add(1, Relaxed);
                }
            });
            for (at, w) in writes.iter().enumerate() {
                assert_eq!(
                    w.load(Relaxed),
                    1,
                    "output slot {at} not written exactly once"
                );
            }
        })
        .expect_err("overlapping ranges must be rejected");
    assert!(
        violation.message.contains("not written exactly once"),
        "unexpected violation: {violation}"
    );
}

/// The sampling fallback must retain bug-finding power: cap enumeration at
/// one schedule and let seeded random sampling find the lost update.
#[test]
fn sampling_mode_still_catches_the_cursor_mutant() {
    let violation = Model::new()
        .max_schedules(1)
        .samples(128)
        .check(|| {
            let cursor = AtomicUsize::new(0);
            let claims: Vec<StdAtomicUsize> = (0..2).map(|_| StdAtomicUsize::new(0)).collect();
            thread::scope(|s| {
                for _ in 0..2 {
                    s.spawn(|| loop {
                        let i = cursor.load(Ordering::SeqCst);
                        cursor.store(i + 1, Ordering::SeqCst);
                        if i >= 2 {
                            break;
                        }
                        assert_eq!(claims[i].fetch_add(1, Relaxed), 0, "job claimed twice");
                    });
                }
            });
        })
        .expect_err("random sampling must hit a duplicate-claim schedule");
    assert!(violation.message.contains("claimed twice"), "{violation}");
}

/// A worker-side job panic under the model: the dispatch must still
/// converge on every schedule (the catch keeps the pool's protocol
/// draining) and surface the typed error — no deadlock, no teardown.
#[test]
fn pool_job_panic_still_converges_under_model() {
    let report = Model::new()
        .max_schedules(80_000)
        .check(|| {
            let pool = WorkerPool::new(2);
            let err = pool
                .try_run(2, |i| {
                    if i == 1 {
                        std::panic::panic_any("job 1 dies");
                    }
                })
                .expect_err("job 1 panics on every schedule");
            assert_eq!(err.job, 1, "typed error must name the job");
        })
        .expect("a panicking job must not break the dispatch protocol");
    assert!(report.exhaustive);
}

/// Outside `Model::check` the shadow primitives fall through to plain
/// `std`, so a `gaurast_model_check` build still runs the ordinary suites:
/// the real pool must work normally in this very test binary.
#[test]
fn facade_falls_through_to_std_outside_model_runs() {
    let pool = WorkerPool::new(4);
    let sum = StdAtomicUsize::new(0);
    pool.run(100, |i| {
        sum.fetch_add(i, Relaxed);
    });
    assert_eq!(sum.into_inner(), 99 * 100 / 2);

    let mut keys: Vec<u64> = (0..1000).rev().map(|i| i * 3 % 257).collect();
    let mut vals: Vec<u32> = (0..1000).collect();
    RadixSorter::new().sort_pairs(&mut keys, &mut vals, &pool);
    assert!(keys.windows(2).all(|w| w[0] <= w[1]));
}
