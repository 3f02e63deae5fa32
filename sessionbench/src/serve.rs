//! `serve`: repeated `RenderService::render_batch` calls, each batch mixing
//! three NeRF-360 scenes, all four backends and several poses.
//!
//! The scenes are the descriptors' own `SceneScale::REPRO` syntheses, the
//! scenes the repository's paper harness renders; the seed picks the
//! orbit's start angle. Seeding the scenes themselves would move the
//! batch's work by 12–16 % from seed to seed (cluster sizes vary), more than
//! the timing bounds allow.

use crate::check::{FrameSig, Ledger};
use crate::layers::{measure, LayerStats};
use crate::replay::Replay;
use crate::stats::{median, peak_rss_mb, percentile, Metric, Outcome};
use crate::trace::Recorder;
use crate::{start_angle, Args, SETUPS};
use gaurast::backend::BackendKind;
use gaurast::engine::{Engine, EngineBuilder, ImagePolicy};
use gaurast::service::{RenderRequest, RenderService};
use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};
use std::collections::HashMap;
use std::sync::Arc;
use std::time::{Duration, Instant};

const SCENES: [Nerf360Scene; 3] = [
    Nerf360Scene::Bicycle,
    Nerf360Scene::Room,
    Nerf360Scene::Bonsai,
];
/// Orbit poses per scene in every batch, evenly spaced from the seed's
/// start angle. Eight keep the batch's work within a few percent across
/// seeds.
const POSES: usize = 8;
/// Batches timed at least, whatever the run length.
const MIN_BATCHES: usize = 5;

/// Requests ordered pose-major, then scene, then backend.
fn requests(seed: u64) -> Vec<RenderRequest> {
    let start = start_angle(seed);
    let mut out = Vec::new();
    for pose in 0..POSES {
        let theta = start + pose as f32 / POSES as f32 * std::f32::consts::TAU;
        for scene in SCENES {
            let camera = scene
                .descriptor()
                .camera(SceneScale::REPRO, theta)
                .expect("descriptor cameras are valid");
            for kind in BackendKind::ALL {
                out.push(RenderRequest::new(scene.name(), camera.clone()).backend(kind));
            }
        }
    }
    out
}

struct Serve {
    service: RenderService,
    requests: Vec<RenderRequest>,
    /// Signature of each request's warm-up response.
    expected: Vec<FrameSig>,
    /// Modeled Stage-3 seconds and joules of the warm-up's enhanced
    /// responses.
    enhanced: Vec<(f64, f64)>,
}

/// Set-up as `setup_s` times it: three scenes synthesised and prepared, the
/// service built and one warm-up batch over every request.
fn set_up(seed: u64, ledger: &mut Ledger) -> Option<Serve> {
    let mut builder = RenderService::builder().image_policy(ImagePolicy::Retain);
    for scene in SCENES {
        builder = builder.scene(
            scene.name(),
            scene.descriptor().synthesize(SceneScale::REPRO),
        );
    }
    let service = builder
        .build()
        .expect("default service configuration is valid");
    let requests = requests(seed);
    let warm = match service.render_batch(&requests) {
        Ok(batch) => batch,
        Err(e) => {
            ledger.failed_batch(requests.len(), format!("warm-up batch failed: {e}"));
            return None;
        }
    };
    let expected: Vec<FrameSig> = warm
        .responses
        .iter()
        .map(|r| FrameSig::of(&r.report))
        .collect();
    let enhanced = warm
        .responses
        .iter()
        .filter(|r| r.report.kind == BackendKind::Enhanced)
        .map(|r| (r.report.time_s, r.report.energy_j))
        .collect();
    // Every backend bills the same workload for one (scene, pose), and the
    // FP32 enhanced datapath reproduces the software image bit for bit.
    for (g, group) in expected.chunks(BackendKind::ALL.len()).enumerate() {
        let software = group[0];
        for (sig, kind) in group.iter().zip(BackendKind::ALL) {
            let ok = sig.image.is_some()
                && sig.image == software.image
                && sig.shared_counters() == software.shared_counters();
            ledger.frame(ok, || {
                format!("request group {g}: {kind} differs from the software frame")
            });
        }
    }
    Some(Serve {
        service,
        requests,
        expected,
        enhanced,
    })
}

/// Checks one batch's responses against the warm-up signatures.
fn check_batch(serve: &Serve, responses: &[gaurast::service::RenderResponse], ledger: &mut Ledger) {
    if responses.len() != serve.requests.len() {
        ledger.failed_batch(serve.requests.len(), "batch lost responses".to_string());
        return;
    }
    for (i, resp) in responses.iter().enumerate() {
        let ok = resp.scene == serve.requests[i].scene
            && resp.report.kind == serve.requests[i].backend
            && FrameSig::of(&resp.report) == serve.expected[i];
        ledger.frame(ok, || {
            format!("request {i}: response differs from its warm-up")
        });
    }
}

pub fn run(args: &Args) -> Outcome {
    let mut ledger = Ledger::default();
    let mut setup_s = Vec::with_capacity(SETUPS);
    let mut serve: Option<Serve> = None;
    for _ in 0..SETUPS {
        let previous = serve.take().map(|s| s.expected);
        let started = Instant::now();
        let built = set_up(args.seed, &mut ledger);
        setup_s.push(started.elapsed().as_secs_f64());
        if let (Some(p), Some(b)) = (&previous, &built) {
            ledger.guard(*p == b.expected, || {
                "warm-up batches differ between set-ups".to_string()
            });
        }
        serve = built;
    }
    let mut facts = crate::host_facts(args);
    let Some(serve) = serve else {
        return Outcome {
            metrics: Vec::new(),
            ledger,
            facts,
        };
    };
    let batch_workers = serve.service.workers().min(serve.requests.len());
    let width = serve.service.frame_worker_budget(batch_workers);
    facts.push(("batch_workers", batch_workers.to_string()));
    facts.push(("session_width", width.to_string()));
    facts.push(("batch_requests", serve.requests.len().to_string()));

    let mut metrics = if args.trace {
        traced(&serve, width, args, &mut ledger, &mut facts)
    } else {
        let mut m = timed(&serve, args, &mut ledger, &mut facts);
        // Read before the replays' own buffers join the process.
        m.push(Metric::new("peak_rss_mb", peak_rss_mb(), "MB", 1));
        cross_check(&serve, width, &mut ledger);
        let n = serve.enhanced.len();
        let time_s: f64 = serve.enhanced.iter().map(|e| e.0).sum();
        let energy_j: f64 = serve.enhanced.iter().map(|e| e.1).sum();
        m.push(Metric::new("modeled_fps", n as f64 / time_s, "1/s", n));
        m.push(Metric::new(
            "modeled_mj_per_frame",
            energy_j * 1e3 / n as f64,
            "mJ",
            n,
        ));
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

/// The untraced pass: whole batches for the run's time.
fn timed(
    serve: &Serve,
    args: &Args,
    ledger: &mut Ledger,
    facts: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let budget = Duration::from_secs(args.seconds);
    let mut batch_ms = Vec::new();
    let mut served = 0usize;
    let started = Instant::now();
    let mut attempts = 0;
    while started.elapsed() < budget || attempts < MIN_BATCHES {
        attempts += 1;
        let t = Instant::now();
        let result = std::hint::black_box(serve.service.render_batch(&serve.requests));
        let ms = t.elapsed().as_secs_f64() * 1e3;
        match result {
            Ok(batch) => {
                batch_ms.push(ms);
                served += batch.len();
                check_batch(serve, &batch.responses, ledger);
            }
            Err(e) => ledger.failed_batch(serve.requests.len(), format!("batch failed: {e}")),
        }
    }
    let per_frame: Vec<f64> = batch_ms
        .iter()
        .map(|ms| ms / serve.requests.len() as f64)
        .collect();
    let total_s = batch_ms.iter().sum::<f64>() / 1e3;
    facts.push(("timed_batches", batch_ms.len().to_string()));
    facts.push(("timed_responses", served.to_string()));
    if batch_ms.is_empty() {
        return Vec::new();
    }
    vec![
        Metric::new("fps", served as f64 / total_s, "1/s", served),
        Metric::new("batch_ms_p50", median(&batch_ms), "ms", batch_ms.len()),
        Metric::new(
            "frame_ms_p50",
            percentile(&per_frame, 0.5),
            "ms",
            per_frame.len(),
        ),
        Metric::new(
            "frame_ms_p90",
            percentile(&per_frame, 0.9),
            "ms",
            per_frame.len(),
        ),
    ]
}

/// One replay (and, in the traced pass, one untraced engine) per
/// (scene, backend), opened the way the service's batch workers open them.
fn sessions<T>(
    serve: &Serve,
    mut open: impl FnMut(&str, BackendKind) -> T,
) -> HashMap<(String, BackendKind), T> {
    let mut out = HashMap::new();
    for r in &serve.requests {
        out.entry(key(r))
            .or_insert_with(|| open(&r.scene, r.backend));
    }
    out
}

fn key(r: &RenderRequest) -> (String, BackendKind) {
    (r.scene.clone(), r.backend)
}

fn replays(serve: &Serve, width: usize) -> HashMap<(String, BackendKind), Replay> {
    sessions(serve, |scene, kind| {
        let prepared = serve.service.prepared(scene).expect("registered scene");
        Replay::new(Arc::clone(prepared), kind, width)
    })
}

/// After the untraced pass: replays every request once and checks it
/// against its batch response.
fn cross_check(serve: &Serve, width: usize, ledger: &mut Ledger) {
    let mut replays = replays(serve, width);
    let mut rec = Recorder::default();
    for (i, r) in serve.requests.iter().enumerate() {
        let replay = replays.get_mut(&key(r)).expect("one replay per key");
        let out = replay.frame(&r.camera, &mut rec, false);
        ledger.frame(out.sig == serve.expected[i], || {
            format!("request {i}: replay differs from the batch response")
        });
    }
}

/// The traced pass, in cycles: one untraced `render_batch` (pool builds per
/// batch), one timed `RenderService::session` per (scene, backend), then
/// every request as an untraced engine frame interleaved with its traced
/// replay, both at the batch's per-session width.
fn traced(
    serve: &Serve,
    width: usize,
    args: &Args,
    ledger: &mut Ledger,
    facts: &mut Vec<(&'static str, String)>,
) -> Vec<Metric> {
    let mut stats = LayerStats::default();
    let mut engines: HashMap<(String, BackendKind), Engine> = sessions(serve, |scene, kind| {
        let prepared = serve.service.prepared(scene).expect("registered scene");
        EngineBuilder::shared(Arc::clone(prepared))
            .backend(kind)
            .image_policy(ImagePolicy::Retain)
            .workers(width)
            .visibility_cache(Arc::clone(serve.service.visibility_cache()))
            .build()
            .expect("default engine configuration is valid")
    });
    let mut replays = replays(serve, width);
    let mut rec = Recorder::default();
    for r in &serve.requests {
        let engine = engines.get_mut(&key(r)).expect("one engine per key");
        engine.render_frame(&r.camera);
        replays
            .get_mut(&key(r))
            .expect("one replay per key")
            .frame(&r.camera, &mut rec, false);
    }
    let budget = Duration::from_secs(args.seconds);
    let started = Instant::now();
    let mut cycle = 0;
    while started.elapsed() < budget || cycle < 2 {
        stats.begin_cycle();
        let (result, cost) = measure(|| serve.service.render_batch(&serve.requests));
        match result {
            Ok(batch) => check_batch(serve, &batch.responses, ledger),
            Err(e) => ledger.failed_batch(serve.requests.len(), format!("batch failed: {e}")),
        }
        stats.pool_builds_per_batch.push(cost.builds as f64);
        for (scene, kind) in engines.keys() {
            let (session, cost) = measure(|| serve.service.session(scene, *kind));
            ledger.frame(session.is_ok(), || {
                format!("session for {scene} failed to open")
            });
            stats.session_open_ms.push(cost.ms);
        }
        for (i, r) in serve.requests.iter().enumerate() {
            let probe = r.backend == BackendKind::Enhanced;
            let traced_first = (cycle + i) % 2 == 1;
            let mut replay_once = |stats: &mut LayerStats, ledger: &mut Ledger| {
                let replay = replays.get_mut(&key(r)).expect("one replay per key");
                let out = replay.frame(&r.camera, &mut rec, probe);
                let hw_agrees = out.counts.hw.is_none_or(|hw| {
                    (hw.time_s.to_bits(), hw.energy_j.to_bits()) == serve.expected[i].modeled
                });
                ledger.frame(out.sig == serve.expected[i] && hw_agrees, || {
                    format!("request {i}: replay differs from the batch response")
                });
                stats.traced(&out);
            };
            if traced_first {
                replay_once(&mut stats, ledger);
            }
            let engine = engines.get_mut(&key(r)).expect("one engine per key");
            let (report, cost) = measure(|| engine.render_frame(&r.camera));
            ledger.frame(FrameSig::of(&report) == serve.expected[i], || {
                format!("request {i}: session frame differs from the batch response")
            });
            stats.untraced(cost);
            if !traced_first {
                replay_once(&mut stats, ledger);
            }
        }
        cycle += 1;
    }
    facts.push(("traced_cycles", cycle.to_string()));
    stats.metrics(ledger)
}
