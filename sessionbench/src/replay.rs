//! The traced replay: one session's frame rebuilt from each layer's public
//! function, called in the order `Engine::render_frame` calls them, with a
//! span around every call.
//!
//! It mirrors the engine's current staged reference pass at the
//! `EngineBuilder` defaults (frustum culling on, `Stage2Mode::KeySorted`,
//! `VectorMode::Auto`, 16-px tiles, `RasterizerConfig::scaled`, images
//! retained). When `Engine` moves its frame onto `pipeline::run_frame`,
//! this file must call what the engine then calls; the signature checks
//! against the untraced engine frame fail until it does.

use crate::check::FrameSig;
use crate::trace::{FrameTrace, Recorder};
use gaurast::backend::{
    Backend, BackendKind, CudaGpuBackend, CullStats, EnhancedRasterizerBackend, Frame, FrameReport,
    GscoreBackend, ReferencePass, SoftwareBackend,
};
use gaurast_hw::power::PowerModel;
use gaurast_hw::{EnhancedRasterizer, RasterizerConfig};
use gaurast_render::pipeline::{PreprocessStats, Stage2Mode};
use gaurast_render::preprocess::preprocess_prepared_visible_pooled_level;
use gaurast_render::rasterize::rasterize_with_level;
use gaurast_render::DEFAULT_TILE_SIZE;
use gaurast_render::{FrameArena, Framebuffer, SimdLevel, VectorMode, WorkerPool};
use gaurast_scene::{Camera, PreparedScene, VisibilityCache};
use std::sync::Arc;

/// Span name of the frame root.
pub const FRAME: &str = "core.engine.render_frame";

/// Deterministic work counts of one replayed frame.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Counts {
    pub visible: u64,
    pub pairs_emitted: u64,
    pub pairs_processed: u64,
    pub pairs_evaluated: u64,
    pub blends_committed: u64,
    /// Enhanced-rasterizer model counters (`simulate_gaussian` + power
    /// model), present when the frame was probed.
    pub hw: Option<HwCounts>,
    /// GSCore subtile-refined pixel work, on GSCore frames.
    pub gscore_work: Option<u64>,
}

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct HwCounts {
    pub cycles: u64,
    pub stall_cycles: u64,
    pub utilization: f64,
    pub time_s: f64,
    pub energy_j: f64,
}

/// One replayed frame: what the engine would report, its counters and its
/// span summary.
#[derive(Debug)]
pub struct Replayed {
    pub sig: FrameSig,
    pub counts: Counts,
    pub cache_hit: bool,
    pub trace: FrameTrace,
}

/// Replay state of one session: the same recycled buffers an `Engine` owns.
#[derive(Debug)]
pub struct Replay {
    scene: Arc<PreparedScene>,
    vis: VisibilityCache,
    pool: WorkerPool,
    level: SimdLevel,
    arena: FrameArena,
    kind: BackendKind,
    backend: Box<dyn Backend>,
    hw: EnhancedRasterizer,
    power: PowerModel,
}

fn make_backend(kind: BackendKind, config: RasterizerConfig) -> Box<dyn Backend> {
    match kind {
        BackendKind::Software => Box::new(SoftwareBackend::new()),
        BackendKind::Enhanced => Box::new(EnhancedRasterizerBackend::new(config)),
        BackendKind::Cuda(preset) => Box::new(CudaGpuBackend::new(preset)),
        BackendKind::Gscore => Box::new(GscoreBackend::published()),
    }
}

/// Span name of a backend's `execute`, by the layer that models it.
fn backend_span(kind: BackendKind) -> &'static str {
    match kind {
        BackendKind::Software => "core.backend.software",
        BackendKind::Enhanced => "hw.render",
        BackendKind::Cuda(_) => "gpu.model",
        BackendKind::Gscore => "gscore.simulate",
    }
}

impl Replay {
    /// A replay session at `width` intra-frame workers.
    pub fn new(scene: Arc<PreparedScene>, kind: BackendKind, width: usize) -> Self {
        let config = RasterizerConfig::scaled();
        Self {
            scene,
            vis: VisibilityCache::new(),
            pool: WorkerPool::new(width),
            level: VectorMode::Auto.resolve(),
            arena: FrameArena::new(),
            kind,
            backend: make_backend(kind, config),
            hw: EnhancedRasterizer::new(config),
            power: PowerModel::integrated(config),
        }
    }

    /// Replays one frame. `probe_hw` also bills the finished workload to
    /// the enhanced-rasterizer model for its cycle and energy counters.
    pub fn frame(&mut self, camera: &Camera, rec: &mut Recorder, probe_hw: bool) -> Replayed {
        let root = rec.begin_frame(FRAME);
        // Stage 1 over the cached visible set.
        let s = rec.enter("scene.visibility");
        let (visible, cache_hit) = self.vis.get_or_build(&self.scene, camera);
        rec.exit(s);
        let s = rec.enter("render.stage1");
        let pre = preprocess_prepared_visible_pooled_level(
            &self.scene,
            camera,
            &visible,
            &self.pool,
            self.level,
        );
        rec.exit(s);
        let preprocess = PreprocessStats::from(&pre);
        let cull = CullStats {
            enabled: true,
            frustum_depth: visible.culled_depth(),
            frustum_lateral: visible.culled_lateral(),
            cache_hit,
        };
        // Stage 2: emit + radix sort + CSR out of the session arena.
        let s = rec.enter("render.stage2");
        let mut workload = Stage2Mode::KeySorted.bin(
            pre.splats,
            camera.width(),
            camera.height(),
            DEFAULT_TILE_SIZE,
            &mut self.arena,
            &self.pool,
        );
        rec.exit(s);
        let sort_wall_s = elapsed_s(rec, s);
        // Stage 3: the reference rasterization pass.
        let need_image = self.kind != BackendKind::Enhanced;
        let s = rec.enter("render.stage3");
        let mut fb = need_image.then(|| Framebuffer::new(camera.width(), camera.height()));
        let raster = rasterize_with_level(&mut workload, fb.as_mut(), &self.pool, self.level);
        rec.exit(s);
        let mut reference = ReferencePass {
            preprocess,
            cull,
            raster,
            wall_s: elapsed_s(rec, s),
            sort_wall_s,
            image: fb,
        };
        // The session's backend bills the finished workload.
        let s = rec.enter(backend_span(self.kind));
        self.backend.prepare(&workload);
        let mut report = self.backend.execute(Frame {
            workload: &workload,
            reference: &reference,
            retain_image: true,
        });
        rec.exit(s);
        if report.image.is_none() {
            report.image = reference.image.take();
        }
        fill_common_stats(&mut report, &workload, &reference);

        // Counting is benchmark work: it runs in an excluded span.
        let s = rec.enter_excluded("probe.counters");
        let counts = Counts {
            visible: preprocess.visible as u64,
            pairs_emitted: workload.total_pairs(),
            pairs_processed: workload.tiles().map(|t| u64::from(t.processed)).sum(),
            pairs_evaluated: raster.pairs_evaluated,
            blends_committed: raster.blends_committed,
            hw: probe_hw.then(|| {
                let sim = self.hw.simulate_gaussian(&workload);
                HwCounts {
                    cycles: sim.cycles,
                    stall_cycles: sim.stall_cycles,
                    utilization: sim.utilization,
                    time_s: sim.time_s,
                    energy_j: self.power.evaluate(&sim).total_j(),
                }
            }),
            gscore_work: (self.kind == BackendKind::Gscore).then_some(report.ops),
        };
        rec.exit(s);
        let s = rec.enter("render.workload.recycle");
        workload.recycle_into(&mut self.arena);
        rec.exit(s);
        rec.exit(root);
        Replayed {
            sig: FrameSig::of(&report),
            counts,
            cache_hit,
            trace: rec.summarise(root),
        }
    }
}

/// Seconds of the closed span `id` (the engine's own stage timers).
fn elapsed_s(rec: &Recorder, id: usize) -> f64 {
    rec.span_ms(id) / 1e3
}

/// The workload-derived statistics the frame signature compares, filled as
/// `Engine` fills them after `execute`.
fn fill_common_stats(
    report: &mut FrameReport,
    workload: &gaurast_render::RasterWorkload,
    reference: &ReferencePass,
) {
    report.stats.blend_work = workload.blend_work();
    report.stats.pairs = workload.total_pairs();
    report.stats.visible = reference.preprocess.visible;
    report.stats.culled = reference.preprocess.culled;
    report.stats.blends_committed = reference.raster.blends_committed;
}
