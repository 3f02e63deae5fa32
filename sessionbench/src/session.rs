//! `occluded` and `shallow`: one `Engine` session (Software backend, images
//! retained, default width) over a seeded scene, visited around an orbit.

use crate::check::{FrameSig, Ledger};
use crate::layers::{measure, LayerStats};
use crate::replay::Replay;
use crate::stats::{median, peak_rss_mb, percentile, Metric, Outcome};
use crate::trace::Recorder;
use crate::{derive_seed, start_angle, Args, SETUPS};
use gaurast::backend::BackendKind;
use gaurast::engine::{Engine, EngineBuilder, ImagePolicy};
use gaurast_math::Vec3;
use gaurast_scene::generator::SceneParams;
use gaurast_scene::{Camera, OrbitTrajectory};
use std::ops::RangeInclusive;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Orbit poses per pass; every pass visits each pose once.
const POSES: usize = 24;
const WIDTH: u32 = 320;
const HEIGHT: u32 = 208;
/// Frames timed at least, so `frame_ms_p90` has ≥ 10 samples beyond it.
const MIN_FRAMES: usize = 100;

/// A frame workload: its scene and the input property it must keep.
#[derive(Debug)]
pub struct FrameSpec {
    pub name: &'static str,
    pub scene: fn() -> SceneParams,
    /// Workload-character guard: the range `render.processed_ratio` must
    /// stay in.
    pub processed_ratio: RangeInclusive<f64>,
}

/// Stage 2 does most of the work: deep occlusion, < 5 % of the emitted
/// pairs are ever processed.
pub const OCCLUDED: FrameSpec = FrameSpec {
    name: "occluded",
    scene: || SceneParams::new(40_000),
    processed_ratio: 0.0..=0.05,
};

/// Stage 3 does most of the work: small, faint splats, > 90 % of the
/// emitted pairs are processed.
pub const SHALLOW: FrameSpec = FrameSpec {
    name: "shallow",
    scene: || {
        SceneParams::new(20_000)
            .mean_log_scale(-4.5)
            .opacity_beta_params(0.5, 4.0)
            .background_fraction(0.1)
    },
    processed_ratio: 0.9..=1.0,
};

/// A built session plus the signature of every pose's first visit.
struct Session {
    engine: Engine,
    cameras: Vec<Camera>,
    expected: Vec<FrameSig>,
}

fn orbit(seed: u64) -> Vec<Camera> {
    let orbit = OrbitTrajectory::new(Vec3::zero(), 28.0, 6.0, WIDTH, HEIGHT, 1.05)
        .expect("the orbit radius is positive");
    let start = start_angle(seed);
    (0..POSES)
        .map(|i| {
            let theta = start + i as f32 / POSES as f32 * std::f32::consts::TAU;
            orbit.camera_at(theta).expect("orbit cameras are valid")
        })
        .collect()
}

/// Set-up as `setup_s` times it: scene synthesis, preparation, session
/// build and the warm-up visit of every pose.
fn set_up(spec: &FrameSpec, seed: u64) -> Session {
    let scene = (spec.scene)()
        .seed(derive_seed(seed, 0))
        .generate()
        .expect("workload scene parameters are valid");
    let mut engine = EngineBuilder::new(scene)
        .backend(BackendKind::Software)
        .image_policy(ImagePolicy::Retain)
        .build()
        .expect("default engine configuration is valid");
    let cameras = orbit(seed);
    let expected = cameras
        .iter()
        .map(|c| FrameSig::of(&engine.render_frame(c)))
        .collect();
    Session {
        engine,
        cameras,
        expected,
    }
}

pub fn run(spec: &FrameSpec, args: &Args) -> Outcome {
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut session: Option<Session> = None;
    for _ in 0..SETUPS {
        let previous = session.take().map(|s| s.expected);
        let started = Instant::now();
        let built = set_up(spec, args.seed);
        setup_s.push(started.elapsed().as_secs_f64());
        // Warm-up frames of every set-up must agree exactly.
        for (i, sig) in built.expected.iter().enumerate() {
            let ok = sig.image.is_some() && previous.as_ref().is_none_or(|p| p[i] == *sig);
            ledger.frame(ok, || format!("warm-up pose {i} differs between set-ups"));
        }
        session = Some(built);
    }
    let mut session = session.expect("at least one set-up ran");
    let width = session.engine.workers();
    let mut facts = crate::host_facts(args);
    facts.push(("session_width", width.to_string()));
    facts.push(("poses", format!("{POSES} at {WIDTH}x{HEIGHT}")));

    let mut metrics = if args.trace {
        traced(spec, &mut session, args, &mut ledger, &mut facts)
    } else {
        let mut m = timed(&mut session, args, &mut ledger, &mut facts);
        // Read before the replay's own buffers join the process.
        m.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
        m.extend(cross_check(spec, &mut session, &mut ledger));
        m.push(Metric::new("setup_s", median(&setup_s), "s", setup_s.len()));
        m.push(Metric::new(
            "success_rate",
            ledger.success_rate(),
            "ratio",
            ledger.attempted as usize,
        ));
        m
    };
    metrics.sort_by_key(|m| m.name);
    Outcome {
        metrics,
        ledger,
        facts,
    }
}

/// The untraced pass: `render_frame` around the orbit for the run's time.
fn timed(
    session: &mut Session,
    args: &Args,
    ledger: &mut Ledger,
    facts: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let budget = Duration::from_secs(args.seconds);
    let mut frame_ms = Vec::new();
    let mut pass_ms = Vec::new();
    let started = Instant::now();
    while started.elapsed() < budget || frame_ms.len() < MIN_FRAMES {
        let mut pass = 0.0;
        for (i, cam) in session.cameras.iter().enumerate() {
            let t = Instant::now();
            let report = std::hint::black_box(session.engine.render_frame(cam));
            let ms = t.elapsed().as_secs_f64() * 1e3;
            frame_ms.push(ms);
            pass += ms;
            ledger.frame(FrameSig::of(&report) == session.expected[i], || {
                format!("pose {i}: frame differs from its warm-up visit")
            });
        }
        pass_ms.push(pass);
    }
    let total_s = frame_ms.iter().sum::<f64>() / 1e3;
    facts.push(("timed_frames", frame_ms.len().to_string()));
    facts.push(("timed_orbit_passes", pass_ms.len().to_string()));
    vec![
        Metric::new(
            "fps",
            frame_ms.len() as f64 / total_s,
            "1/s",
            frame_ms.len(),
        ),
        Metric::new(
            "frame_ms_p50",
            percentile(&frame_ms, 0.5),
            "ms",
            frame_ms.len(),
        ),
        Metric::new(
            "frame_ms_p90",
            percentile(&frame_ms, 0.9),
            "ms",
            frame_ms.len(),
        ),
        Metric::new("batch_ms_p50", median(&pass_ms), "ms", pass_ms.len()),
    ]
}

/// After the untraced pass: replays every pose once, checks it against the
/// engine's frame, applies the workload-character guard and bills the
/// orbit to the enhanced-rasterizer model (`modeled_*`).
fn cross_check(spec: &FrameSpec, session: &mut Session, ledger: &mut Ledger) -> Vec<Metric> {
    let prepared = Arc::clone(session.engine.prepared());
    let mut replay = Replay::new(prepared, BackendKind::Software, session.engine.workers());
    let mut rec = Recorder::default();
    let (mut emitted, mut processed, mut time_s, mut energy_j) = (0, 0, 0.0, 0.0);
    for (i, cam) in session.cameras.iter().enumerate() {
        let r = replay.frame(cam, &mut rec, true);
        ledger.frame(r.sig == session.expected[i], || {
            format!("pose {i}: replay differs from the engine frame")
        });
        emitted += r.counts.pairs_emitted;
        processed += r.counts.pairs_processed;
        let hw = r.counts.hw.expect("probed frames carry hw counters");
        time_s += hw.time_s;
        energy_j += hw.energy_j;
    }
    guard_character(spec, processed as f64 / emitted as f64, ledger);
    let n = session.cameras.len();
    vec![
        Metric::new("modeled_fps", n as f64 / time_s, "1/s", n),
        Metric::new("modeled_mj_per_frame", energy_j * 1e3 / n as f64, "mJ", n),
    ]
}

fn guard_character(spec: &FrameSpec, ratio: f64, ledger: &mut Ledger) {
    let range = &spec.processed_ratio;
    ledger.guard(range.contains(&ratio), || {
        format!(
            "{}: render.processed_ratio {ratio:.4} outside {range:?}; the seed changed the workload's character",
            spec.name
        )
    });
}

/// The traced pass: each pose's untraced `render_frame` interleaved with
/// its traced replay, for the run's time in whole orbit passes.
fn traced(
    spec: &FrameSpec,
    session: &mut Session,
    args: &Args,
    ledger: &mut Ledger,
    facts: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let prepared = Arc::clone(session.engine.prepared());
    let mut stats = LayerStats::default();
    for _ in 0..SETUPS {
        let (_, cost) = measure(|| {
            EngineBuilder::shared(Arc::clone(&prepared))
                .backend(BackendKind::Software)
                .image_policy(ImagePolicy::Retain)
                .build()
        });
        stats.session_open_ms.push(cost.ms);
    }
    let mut replay = Replay::new(prepared, BackendKind::Software, session.engine.workers());
    let mut rec = Recorder::default();
    // Warm the replay's arena and visibility cache like the engine's.
    for cam in &session.cameras {
        replay.frame(cam, &mut rec, false);
    }
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut cycle = 0;
    while started.elapsed() < budget || cycle < 2 {
        stats.begin_cycle();
        for (i, cam) in session.cameras.iter().enumerate() {
            let expected = session.expected[i];
            let mut replay_once = |stats: &mut LayerStats, ledger: &mut Ledger| {
                let r = replay.frame(cam, &mut rec, false);
                ledger.frame(r.sig == expected, || format!("pose {i}: replay differs"));
                stats.traced(&r);
            };
            // Alternate which call goes first, so neither always runs on
            // caches the other warmed.
            let traced_first = (cycle + i) % 2 == 1;
            if traced_first {
                replay_once(&mut stats, ledger);
            }
            let (report, cost) = measure(|| session.engine.render_frame(cam));
            ledger.frame(FrameSig::of(&report) == expected, || {
                format!("pose {i}: frame differs from its warm-up visit")
            });
            stats.untraced(cost);
            if !traced_first {
                replay_once(&mut stats, ledger);
            }
        }
        cycle += 1;
    }
    facts.push(("traced_orbit_passes", cycle.to_string()));
    let metrics = stats.metrics(ledger);
    guard_character(spec, stats.processed_ratio(), ledger);
    metrics
}
