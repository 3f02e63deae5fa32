//! The persistent-pool contracts: a long-lived [`WorkerPool`] reused
//! across frames must be **bit-identical** to constructing a fresh pool
//! per frame at every width 1–8, and a panicking job must surface as a
//! typed error without tearing the pool down.

use gaurast_math::Vec3;
use gaurast_render::pipeline::{
    render_record_only_with_pool, render_with_arena, render_with_pool, RenderConfig, RenderOutput,
};
use gaurast_render::pool::{JobPanicked, WorkerPool};
use gaurast_render::FrameArena;
use gaurast_scene::{Camera, Gaussian3, GaussianScene};
use proptest::prelude::*;
use std::sync::atomic::{AtomicUsize, Ordering};

fn gaussian_strategy() -> impl Strategy<Value = Gaussian3> {
    (
        -8.0f32..8.0,
        -8.0f32..8.0,
        -8.0f32..8.0,
        0.02f32..1.2,
        0.05f32..0.99,
        0.0f32..1.0,
    )
        .prop_map(|(x, y, z, sigma, opacity, hue)| {
            Gaussian3::isotropic(
                Vec3::new(x, y, z),
                sigma,
                opacity,
                Vec3::new(hue, 1.0 - hue, 0.5),
            )
        })
}

fn camera_strategy() -> impl Strategy<Value = Camera> {
    (0.0f32..std::f32::consts::TAU, 2.0f32..10.0, -4.0f32..6.0).prop_map(|(theta, dist, height)| {
        Camera::look_at(
            Vec3::new(dist * 2.5 * theta.sin(), height, -dist * 2.5 * theta.cos()),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            96,
            80,
            1.05,
        )
        .expect("valid orbit camera")
    })
}

fn scene_of(gaussians: Vec<Gaussian3>) -> GaussianScene {
    GaussianScene::from_gaussians(gaussians).expect("non-empty random scene")
}

fn fixed_scene(n: usize) -> GaussianScene {
    gaurast_scene::generator::SceneParams::new(n)
        .seed(17)
        .generate()
        .expect("generator scene")
}

fn fixed_camera() -> Camera {
    Camera::look_at(
        Vec3::new(0.0, 6.0, -28.0),
        Vec3::zero(),
        Vec3::new(0.0, 1.0, 0.0),
        128,
        96,
        1.05,
    )
    .expect("fixed camera")
}

/// Asserts every observable of two render outputs is bit-identical.
fn assert_bit_identical(a: &RenderOutput, b: &RenderOutput, what: &str) {
    assert_eq!(a.image, b.image, "{what}: image planes must be identical");
    assert_eq!(a.preprocess, b.preprocess, "{what}: stage-1 stats");
    assert_eq!(a.raster, b.raster, "{what}: stage-3 stats");
    assert_eq!(a.workload, b.workload, "{what}: workloads");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The tentpole bit-identity gate: one long-lived pool rendering many
    /// frames equals a fresh pool per frame, at a random width 1–8, on
    /// random scenes — including arena reuse across the persistent
    /// frames.
    #[test]
    fn persistent_pool_is_bit_identical_to_fresh_pool_per_frame(
        gaussians in prop::collection::vec(gaussian_strategy(), 1..400),
        camera in camera_strategy(),
        workers in 1usize..9,
    ) {
        let scene = scene_of(gaussians);
        let config = RenderConfig::default().with_workers(workers);
        // A/B baseline: a fresh pool constructed for each frame.
        let fresh = render_with_arena(&scene, &camera, &config, &mut FrameArena::new());
        // Persistent: one pool, one arena, three consecutive frames.
        let pool = WorkerPool::new(workers);
        let mut arena = FrameArena::new();
        let mut last = None;
        for _ in 0..3 {
            if let Some(prev) = last.take() {
                let prev: RenderOutput = prev;
                prev.workload.recycle_into(&mut arena);
            }
            last = Some(render_with_pool(&scene, &camera, &config, &mut arena, &pool));
        }
        let persistent = last.expect("three frames ran");
        assert_bit_identical(&fresh, &persistent, "fresh-vs-persistent");
    }
}

/// Deterministic sweep: every width 1–8 agrees bit for bit on a fixed
/// multi-chunk scene (5000 Gaussians → 5 Stage-1 chunks and one Stage-2
/// scatter slice per worker).
#[test]
fn all_widths_agree_on_fixed_scene() {
    let scene = fixed_scene(5000);
    let camera = fixed_camera();
    let reference = render_with_arena(
        &scene,
        &camera,
        &RenderConfig::default().with_workers(1),
        &mut FrameArena::new(),
    );
    for workers in 1..=8 {
        let out = render_with_pool(
            &scene,
            &camera,
            &RenderConfig::default().with_workers(workers),
            &mut FrameArena::new(),
            &WorkerPool::new(workers),
        );
        assert_bit_identical(&reference, &out, "width sweep");
    }
}

/// Record-only frames through the persistent-pool entry agree with the
/// imaging path on every shared observable.
#[test]
fn record_only_with_pool_matches_imaging_path() {
    let scene = fixed_scene(3000);
    let camera = fixed_camera();
    let pool = WorkerPool::new(4);
    let config = RenderConfig::default().with_workers(4);
    let imaged = render_with_pool(&scene, &camera, &config, &mut FrameArena::new(), &pool);
    let recorded =
        render_record_only_with_pool(&scene, &camera, &config, &mut FrameArena::new(), &pool);
    assert_eq!(imaged.workload, recorded.workload);
    assert_eq!(imaged.preprocess, recorded.preprocess);
    assert_eq!(imaged.raster, recorded.raster);
}

/// A panicking job surfaces as the typed [`JobPanicked`] error — and the
/// pool survives: its resident threads keep serving dispatches, including
/// a full render, afterwards.
#[test]
fn job_panic_is_typed_and_pool_stays_usable() {
    let pool = WorkerPool::new(4);
    let err = pool
        .try_run(16, |i| {
            if i == 11 {
                panic!("deliberate test panic");
            }
        })
        .expect_err("job 11 panicked");
    assert_eq!(err, JobPanicked { job: 11 });

    // The pool still dispatches: every job of a follow-up run executes
    // exactly once.
    let hits = AtomicUsize::new(0);
    pool.run(32, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 32);

    // And a whole frame still renders through it, bit-identical to a
    // never-panicked pool.
    let scene = fixed_scene(2000);
    let camera = fixed_camera();
    let config = RenderConfig::default().with_workers(4);
    let survivor = render_with_pool(&scene, &camera, &config, &mut FrameArena::new(), &pool);
    let clean = render_with_pool(
        &scene,
        &camera,
        &config,
        &mut FrameArena::new(),
        &WorkerPool::new(4),
    );
    assert_bit_identical(&survivor, &clean, "post-panic render");
}

/// `run` (as opposed to `try_run`) re-raises a worker-side job panic as
/// the typed payload, and the pool survives that too.
#[test]
fn run_reraises_worker_panic_as_typed_payload() {
    let pool = WorkerPool::new(3);
    let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        pool.run(8, |i| {
            if i == 5 {
                panic!("boom");
            }
        });
    }))
    .expect_err("panic must propagate to the dispatching caller");
    // Worker-side panics cross as the typed JobPanicked; a caller-side
    // panic would carry the original payload. Both are acceptable here —
    // which thread claims job 5 is scheduling-dependent — but a typed one
    // must name job 5.
    if let Some(p) = payload.downcast_ref::<JobPanicked>() {
        assert_eq!(*p, JobPanicked { job: 5 });
    }
    let hits = AtomicUsize::new(0);
    pool.run(8, |_| {
        hits.fetch_add(1, Ordering::Relaxed);
    });
    assert_eq!(hits.load(Ordering::Relaxed), 8);
}
