//! The session-based rendering engine — the workspace's unified entry
//! point over every execution substrate.
//!
//! An [`Engine`] owns a scene, a selected [`Backend`], and reusable
//! per-session scratch (framebuffer and binning buffers are recycled
//! across frames instead of reallocated). Per frame it runs Stages 1–2 and
//! one reference Stage-3 pass — in record-only mode unless images are
//! retained — and hands the finalized workload to the backend:
//!
//! * [`Engine::render_frame`] — one camera, one [`FrameReport`];
//! * [`Engine::render_sequence`] — a camera path replayed through the
//!   CUDA-collaborative two-stage pipeline
//!   ([`gaurast_sched::sequence::replay`]), reporting throughput and
//!   frame pacing;
//! * [`Engine::compare`] — the same frame executed on several substrates
//!   for one-call cross-backend evaluation.
//!
//! Build one with [`EngineBuilder`]:
//!
//! ```
//! use gaurast::engine::EngineBuilder;
//! use gaurast::backend::BackendKind;
//! use gaurast::scene::generator::SceneParams;
//! use gaurast::scene::Camera;
//! use gaurast_math::Vec3;
//!
//! let scene = SceneParams::new(300).seed(5).generate()?;
//! let cam = Camera::look_at(Vec3::new(0.0, 5.0, -25.0), Vec3::zero(),
//!                           Vec3::new(0.0, 1.0, 0.0), 64, 64, 1.0)?;
//! let mut engine = EngineBuilder::new(scene)
//!     .backend(BackendKind::Enhanced)
//!     .build()?;
//! let report = engine.render_frame(&cam);
//! assert!(report.time_s > 0.0);
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

mod builder;

pub use builder::EngineBuilder;

use crate::backend::{
    Backend, BackendKind, CudaGpuBackend, CullStats, EnhancedRasterizerBackend, Frame, FrameReport,
    GscoreBackend, ReferencePass, SoftwareBackend,
};
use crate::report::{fmt_f, fmt_ms, TextTable};
use gaurast_gpu::CudaGpuModel;
use gaurast_hw::RasterizerConfig;
use gaurast_render::pipeline::PreprocessStats;
use gaurast_render::pool::WorkerPool;
use gaurast_render::preprocess::{
    preprocess_prepared_pooled_level, preprocess_prepared_visible_pooled_level,
};
use gaurast_render::rasterize::rasterize_with_level;
use gaurast_render::tile::bin_splats_pooled;
use gaurast_render::{FrameArena, Framebuffer, RasterWorkload, SimdLevel, VectorMode};
use gaurast_scene::{Camera, GaussianScene, PreparedScene, VisibilityCache};
use gaurast_sched::{replay, FrameCost, SequenceReport};
use std::sync::Arc;
use std::time::Instant;

/// Error raised by engine construction or sequence rendering.
#[derive(Clone, Debug, PartialEq)]
pub struct EngineError(pub(crate) String);

impl std::fmt::Display for EngineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "engine error: {}", self.0)
    }
}

impl std::error::Error for EngineError {}

/// Whether rendered images are kept in frame reports or dropped after the
/// statistics are recorded.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ImagePolicy {
    /// Record statistics only; the reference pass runs in no-image mode
    /// and reports carry `image: None`. The default, and the fast path for
    /// architecture studies.
    #[default]
    Discard,
    /// Keep images: the reference pass renders into the session's scratch
    /// framebuffer and every report carries an image.
    Retain,
}

/// Floor applied to modeled stage times before pipeline replay, which
/// rejects non-positive costs (an empty frame still occupies the units for
/// a scheduling instant).
const MIN_STAGE_S: f64 = 1e-12;

/// Reusable per-session scratch: the allocations that would otherwise be
/// made and dropped every frame.
///
/// Retained-image frames no longer keep a session framebuffer here: the
/// reference pass renders into a fresh buffer that *moves* into the report
/// (no full-framebuffer clone per frame; the caller owns the image).
#[derive(Debug, Default)]
struct Scratch {
    /// The Stage-2 frame arena: depth-order, tile-count, CSR,
    /// radix-sorter and processed-count buffers recycled through
    /// [`gaurast_render::tile::bin_splats_pooled`] /
    /// [`RasterWorkload::recycle_into`], so steady-state frames run
    /// Stage 2 without allocating.
    arena: FrameArena,
}

/// The result of [`Engine::render_sequence`]: per-frame backend reports
/// plus the pipelined schedule they produce.
#[derive(Clone, Debug)]
pub struct SequenceOutcome {
    /// Per-frame backend reports, in camera order.
    pub reports: Vec<FrameReport>,
    /// Per-frame stage costs fed to the pipeline (Stages 1–2 on the host
    /// device model, Stage 3 on the backend).
    pub costs: Vec<FrameCost>,
    /// The replayed CUDA-collaborative schedule (throughput, latency,
    /// pacing percentiles).
    pub schedule: SequenceReport,
}

impl SequenceOutcome {
    /// Average pipelined throughput over the sequence, frames per second.
    pub fn throughput_fps(&self) -> f64 {
        self.schedule.throughput_fps()
    }
}

/// The result of [`Engine::compare`]: the same finalized workload executed
/// on several substrates.
#[derive(Clone, Debug)]
pub struct ComparisonReport {
    /// One report per requested backend, in request order.
    pub rows: Vec<FrameReport>,
    /// The shared workload every row billed (kept for downstream
    /// analysis, e.g. GSCore workload refinement).
    pub workload: RasterWorkload,
}

impl ComparisonReport {
    /// The report of a given backend kind, if it was requested.
    pub fn get(&self, kind: BackendKind) -> Option<&FrameReport> {
        self.rows.iter().find(|r| r.kind == kind)
    }

    /// Rasterization speedup of `target` over `baseline`
    /// (`time(baseline) / time(target)`), when both were requested.
    pub fn speedup(&self, baseline: BackendKind, target: BackendKind) -> Option<f64> {
        let (b, t) = (self.get(baseline)?.time_s, self.get(target)?.time_s);
        (b > 0.0 && t > 0.0).then(|| b / t)
    }
}

impl std::fmt::Display for ComparisonReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(f, "cross-backend comparison (identical workload per row)")?;
        let mut t = TextTable::new(vec!["backend", "time ms", "fps", "energy mJ", "ops"]);
        for r in &self.rows {
            t.row(vec![
                r.kind.label().to_string(),
                fmt_ms(r.time_s),
                fmt_f(r.raster_fps(), 1),
                fmt_f(r.energy_j * 1e3, 3),
                r.ops.to_string(),
            ]);
        }
        write!(f, "{t}")
    }
}

/// A rendering session over one shared scene asset and one selected
/// backend. See the [module docs](self) for the full picture and
/// [`EngineBuilder`] for construction.
///
/// The scene is held as an `Arc<`[`PreparedScene`]`>`: sessions never copy
/// the scene or redo its precomputation, so spawning one per worker thread
/// is cheap. `Clone` gives a fresh session (zero frames, fresh scratch,
/// freshly instantiated backend) over the same shared asset and
/// configuration.
#[derive(Debug)]
pub struct Engine {
    pub(crate) scene: Arc<PreparedScene>,
    pub(crate) tile_size: u32,
    /// Requested intra-frame worker count (0 = auto); `pool` is the
    /// resolved policy actually used.
    pub(crate) workers: usize,
    pub(crate) image_policy: ImagePolicy,
    pub(crate) hw_config: RasterizerConfig,
    pub(crate) host: CudaGpuModel,
    pub(crate) kind: BackendKind,
    /// Whether Stage 1 runs over a frustum-culled visible set (output is
    /// bit-identical either way; culling only trades wall-clock time).
    pub(crate) culling: bool,
    /// Requested vector data path for the reference pass (output is
    /// bit-identical at every level — see [`VectorMode`]).
    pub(crate) vector_mode: VectorMode,
    /// `vector_mode` resolved against the host CPU once at session
    /// construction; every reference-pass stage dispatches on this.
    level: SimdLevel,
    /// Pose-keyed visible-set store, possibly shared with other sessions
    /// (the `RenderService` hands every session one cache).
    vis_cache: Arc<VisibilityCache>,
    pool: WorkerPool,
    backend: Box<dyn Backend>,
    scratch: Scratch,
    frames: u64,
}

impl Clone for Engine {
    /// A fresh session over the same shared scene and configuration: the
    /// `Arc<PreparedScene>` is shared (no scene copy), the backend is
    /// re-instantiated from the session configuration, and the frame
    /// counter and scratch start empty. The visibility cache is shared —
    /// cached visible sets are semantically transparent.
    fn clone(&self) -> Self {
        Self::from_parts(
            Arc::clone(&self.scene),
            self.tile_size,
            self.workers,
            self.image_policy,
            self.hw_config,
            self.host.clone(),
            self.kind,
            self.culling,
            self.vector_mode,
            Arc::clone(&self.vis_cache),
        )
    }
}

impl Engine {
    #[allow(clippy::too_many_arguments)]
    pub(crate) fn from_parts(
        scene: Arc<PreparedScene>,
        tile_size: u32,
        workers: usize,
        image_policy: ImagePolicy,
        hw_config: RasterizerConfig,
        host: CudaGpuModel,
        kind: BackendKind,
        culling: bool,
        vector_mode: VectorMode,
        vis_cache: Arc<VisibilityCache>,
    ) -> Self {
        let backend = make_backend(kind, hw_config);
        Self {
            scene,
            tile_size,
            workers,
            image_policy,
            hw_config,
            host,
            kind,
            culling,
            vector_mode,
            level: vector_mode.resolve(),
            vis_cache,
            pool: WorkerPool::new(workers),
            backend,
            scratch: Scratch::default(),
            frames: 0,
        }
    }

    /// Starts building an engine for a scene (alias of
    /// [`EngineBuilder::new`]).
    pub fn builder(scene: GaussianScene) -> EngineBuilder {
        EngineBuilder::new(scene)
    }

    /// The scene this session renders.
    pub fn scene(&self) -> &GaussianScene {
        self.scene.scene()
    }

    /// The shared prepared-scene asset this session renders from. Clone
    /// the `Arc` to open further sessions over the identical asset
    /// (e.g. via [`EngineBuilder::shared`]).
    pub fn prepared(&self) -> &Arc<PreparedScene> {
        &self.scene
    }

    /// The selected backend kind.
    pub fn backend_kind(&self) -> BackendKind {
        self.kind
    }

    /// Human-readable name of the selected backend.
    pub fn backend_name(&self) -> String {
        self.backend.name()
    }

    /// Tile edge in pixels.
    pub fn tile_size(&self) -> u32 {
        self.tile_size
    }

    /// Intra-frame worker threads the reference pass fans Stage-1 chunks
    /// and per-tile Stage-2+3 jobs across (the resolved count; see
    /// [`EngineBuilder::workers`]). Results are bit-identical for every
    /// width.
    pub fn workers(&self) -> usize {
        self.pool.workers()
    }

    /// Frames rendered so far in this session.
    pub fn frames_rendered(&self) -> u64 {
        self.frames
    }

    /// Whether Stage 1 runs over a frustum-culled visible set (see
    /// [`EngineBuilder::frustum_culling`]).
    pub fn frustum_culling(&self) -> bool {
        self.culling
    }

    /// The requested vector data path for the reference pass (see
    /// [`EngineBuilder::vector_mode`]). Frames are bit-identical at every
    /// level; the knob trades wall-clock time only.
    pub fn vector_mode(&self) -> VectorMode {
        self.vector_mode
    }

    /// The concrete SIMD kernel set the reference pass runs — the
    /// session's [`Self::vector_mode`] resolved against the host CPU once
    /// at construction.
    pub fn simd_level(&self) -> SimdLevel {
        self.level
    }

    /// The session's visible-set cache. Sessions built through a
    /// `RenderService` (and `Engine::clone`) share one cache, so batch
    /// requests over the same scene and quantized camera pose build each
    /// visible set exactly once.
    pub fn visibility_cache(&self) -> &Arc<VisibilityCache> {
        &self.vis_cache
    }

    /// Switches the session to another backend, keeping the scene and
    /// scratch. The frame counter continues.
    pub fn switch_backend(&mut self, kind: BackendKind) {
        self.kind = kind;
        self.backend = make_backend(kind, self.hw_config);
    }

    /// Replaces the enhanced-rasterizer hardware configuration and
    /// rebuilds the backend (for design-space sweeps over one session).
    ///
    /// # Errors
    /// Returns [`EngineError`] when the configuration is invalid; the
    /// session keeps its previous configuration in that case.
    pub fn set_hw_config(&mut self, config: RasterizerConfig) -> Result<(), EngineError> {
        config
            .validate()
            .map_err(|e| EngineError(format!("invalid hardware configuration: {e}")))?;
        self.hw_config = config;
        self.backend = make_backend(self.kind, config);
        Ok(())
    }

    /// Runs Stages 1–2 into recycled session buffers plus the reference
    /// Stage-3 pass (record-only unless images are retained), producing the
    /// finalized workload every backend bills.
    /// `need_image` requests a reference image in the pass: true only when
    /// images are retained *and* some executing backend reports the
    /// reference image (the enhanced rasterizer renders its own through
    /// the PE datapath, so an enhanced-only frame skips the clone).
    fn reference_pass(
        &mut self,
        camera: &Camera,
        need_image: bool,
    ) -> (RasterWorkload, ReferencePass) {
        let (pre, cull) = if self.culling {
            let (visible, cache_hit) = self.vis_cache.get_or_build(&self.scene, camera);
            let pre = preprocess_prepared_visible_pooled_level(
                &self.scene,
                camera,
                &visible,
                &self.pool,
                self.level,
            );
            let cull = CullStats {
                enabled: true,
                frustum_depth: visible.culled_depth(),
                frustum_lateral: visible.culled_lateral(),
                cache_hit,
            };
            (pre, cull)
        } else {
            (
                preprocess_prepared_pooled_level(&self.scene, camera, &self.pool, self.level),
                CullStats::default(),
            )
        };
        let pre_stats = PreprocessStats::from(&pre);
        // Stage 2 out of the session arena: a radix sort of the splats
        // by depth, then a pooled counting scatter into the flat CSR
        // workload. Timed separately — the `sort` split every report
        // carries.
        // gaurast-check: allow(nondet): wall-clock stage timing. The
        // measured duration is reported *alongside* the frame, never fed
        // back into it — the image is a pure function of scene + camera.
        let sort_started = Instant::now();
        let mut workload = bin_splats_pooled(
            pre.splats,
            camera.width(),
            camera.height(),
            self.tile_size,
            &mut self.scratch.arena,
            &self.pool,
        );
        let sort_wall_s = sort_started.elapsed().as_secs_f64().max(MIN_STAGE_S);

        // gaurast-check: allow(nondet): wall-clock stage timing, output-
        // independent (same proof as the sort timer above).
        let started = Instant::now();
        let (raster, image) = if need_image {
            // The buffer moves into the reference pass (and from there into
            // the report) instead of being cloned every frame.
            let mut fb = Framebuffer::new(camera.width(), camera.height());
            let raster = rasterize_with_level(&mut workload, Some(&mut fb), &self.pool, self.level);
            (raster, Some(fb))
        } else {
            (
                rasterize_with_level(&mut workload, None, &self.pool, self.level),
                None,
            )
        };
        let wall_s = started.elapsed().as_secs_f64().max(MIN_STAGE_S);

        (
            workload,
            ReferencePass {
                preprocess: pre_stats,
                cull,
                raster,
                wall_s,
                sort_wall_s,
                image,
            },
        )
    }

    /// Fills the workload-derived statistics every backend shares.
    fn fill_common_stats(
        report: &mut FrameReport,
        workload: &RasterWorkload,
        reference: &ReferencePass,
    ) {
        report.stats.blend_work = workload.blend_work();
        report.stats.pairs = workload.total_pairs();
        report.stats.mean_list = gaurast_gpu::mean_processed_len(workload);
        report.stats.visible = reference.preprocess.visible;
        report.stats.culled = reference.preprocess.culled;
        report.stats.culled_non_finite = reference.preprocess.non_finite;
        report.stats.cull = reference.cull;
        report.stats.blends_committed = reference.raster.blends_committed;
        report.stats.sort_s = reference.sort_wall_s;
    }

    /// Stages 1–2 time on the session's host device model for a finalized
    /// frame — what stays on the CUDA cores under the collaborative
    /// schedule.
    fn stages12_s(&self, reference: &ReferencePass, workload: &RasterWorkload) -> f64 {
        self.host
            .preprocess_time(reference.preprocess.visible as u64)
            + self.host.sort_time(workload.total_pairs())
    }

    /// Renders one frame on the selected backend.
    pub fn render_frame(&mut self, camera: &Camera) -> FrameReport {
        let (report, _) = self.render_frame_inner(camera);
        report
    }

    fn render_frame_inner(&mut self, camera: &Camera) -> (FrameReport, f64) {
        let retain = self.image_policy == ImagePolicy::Retain;
        let need_image = retain && self.kind != BackendKind::Enhanced;
        let (workload, mut reference) = self.reference_pass(camera, need_image);
        self.backend.prepare(&workload);
        let mut report = self.backend.execute(Frame {
            workload: &workload,
            reference: &reference,
            retain_image: retain,
        });
        // Backends whose modeled kernels compute the reference image report
        // it; the buffer moves from the reference pass (the enhanced
        // rasterizer renders its own through the PE datapath).
        if retain && report.image.is_none() {
            report.image = reference.image.take();
        }
        Self::fill_common_stats(&mut report, &workload, &reference);
        let stages12 = self.stages12_s(&reference, &workload);
        // Recycle the Stage-2 buffers (CSR, processed counts) for the next
        // frame.
        workload.recycle_into(&mut self.scratch.arena);
        self.frames += 1;
        (report, stages12)
    }

    /// Renders a camera sequence and replays it through the
    /// CUDA-collaborative two-stage pipeline: frame `i+1`'s Stages 1–2 run
    /// on the host device while frame `i`'s Stage 3 runs on the backend.
    /// Steady-state throughput therefore approaches
    /// `1 / max(t12, t3)` — exactly a
    /// [`PipelineSchedule`](gaurast_sched::PipelineSchedule) built from the
    /// same stage times.
    pub fn render_sequence(&mut self, cameras: &[Camera]) -> SequenceOutcome {
        let mut reports = Vec::with_capacity(cameras.len());
        let mut costs = Vec::with_capacity(cameras.len());
        for camera in cameras {
            let (report, stages12) = self.render_frame_inner(camera);
            costs.push(FrameCost {
                stages12_s: stages12.max(MIN_STAGE_S),
                stage3_s: report.time_s.max(MIN_STAGE_S),
            });
            reports.push(report);
        }
        let schedule = replay(&costs);
        SequenceOutcome {
            reports,
            costs,
            schedule,
        }
    }

    /// Executes the same frame on several substrates — one reference pass,
    /// one workload, one report per requested backend. The session's own
    /// backend is untouched; requested kinds are instantiated from the
    /// session configuration.
    ///
    /// The finalized workload moves into the returned report (for
    /// downstream analysis), so the binning buffers leave the session and
    /// the frame after a `compare` re-seeds them once.
    pub fn compare(&mut self, camera: &Camera, kinds: &[BackendKind]) -> ComparisonReport {
        let retain = self.image_policy == ImagePolicy::Retain;
        let need_image = retain && kinds.iter().any(|&k| k != BackendKind::Enhanced);
        let (workload, mut reference) = self.reference_pass(camera, need_image);
        let mut rows: Vec<FrameReport> = kinds
            .iter()
            .map(|&kind| {
                let mut backend = make_backend(kind, self.hw_config);
                backend.prepare(&workload);
                let mut report = backend.execute(Frame {
                    workload: &workload,
                    reference: &reference,
                    retain_image: retain,
                });
                Self::fill_common_stats(&mut report, &workload, &reference);
                report
            })
            .collect();
        // Attach the reference image to every row whose modeled kernel
        // computes it: clones for all but the last such row, which takes
        // the buffer (copy-on-demand instead of one clone per backend).
        if retain {
            let last = rows.iter().rposition(|r| r.image.is_none());
            for (i, row) in rows.iter_mut().enumerate() {
                if row.image.is_none() {
                    row.image = if Some(i) == last {
                        reference.image.take()
                    } else {
                        reference.image.clone()
                    };
                }
            }
        }
        self.frames += 1;
        ComparisonReport { rows, workload }
    }
}

/// Instantiates a backend of the given kind from the session's hardware
/// configuration.
fn make_backend(kind: BackendKind, hw_config: RasterizerConfig) -> Box<dyn Backend> {
    match kind {
        BackendKind::Software => Box::new(SoftwareBackend::new()),
        BackendKind::Enhanced => Box::new(EnhancedRasterizerBackend::new(hw_config)),
        BackendKind::Cuda(preset) => Box::new(CudaGpuBackend::new(preset)),
        BackendKind::Gscore => Box::new(GscoreBackend::published()),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::GpuPreset;
    use gaurast_math::Vec3;
    use gaurast_scene::generator::SceneParams;

    fn camera(w: u32, h: u32) -> Camera {
        Camera::look_at(
            Vec3::new(0.0, 6.0, -28.0),
            Vec3::zero(),
            Vec3::new(0.0, 1.0, 0.0),
            w,
            h,
            1.05,
        )
        .unwrap()
    }

    fn engine(kind: BackendKind, policy: ImagePolicy) -> Engine {
        let scene = SceneParams::new(800).seed(21).generate().unwrap();
        EngineBuilder::new(scene)
            .backend(kind)
            .image_policy(policy)
            .build()
            .unwrap()
    }

    #[test]
    fn frame_reports_have_consistent_stats() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let r = e.render_frame(&camera(96, 64));
        assert!(r.time_s > 0.0 && r.energy_j > 0.0);
        assert!(r.stats.blend_work > 0 && r.stats.pairs > 0);
        assert!(r.stats.visible > 0);
        assert!(r.stats.utilization > 0.0 && r.stats.utilization <= 1.0);
        assert!(r.image.is_none(), "discard policy must drop images");
        assert_eq!(e.frames_rendered(), 1);
    }

    #[test]
    fn retained_images_match_across_software_and_enhanced() {
        let mut e = engine(BackendKind::Software, ImagePolicy::Retain);
        let cam = camera(64, 64);
        let sw = e.render_frame(&cam);
        e.switch_backend(BackendKind::Enhanced);
        let hw = e.render_frame(&cam);
        let (sw_img, hw_img) = (sw.image.unwrap(), hw.image.unwrap());
        assert_eq!(sw_img.mean_abs_diff(&hw_img), 0.0, "FP32 must be bit-exact");
    }

    #[test]
    fn scratch_reuse_is_deterministic() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cam = camera(64, 64);
        let a = e.render_frame(&cam);
        let b = e.render_frame(&cam);
        assert_eq!(a.time_s, b.time_s);
        assert_eq!(a.stats.blend_work, b.stats.blend_work);
        assert_eq!(e.frames_rendered(), 2);
    }

    #[test]
    fn compare_covers_all_kinds() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let report = e.compare(&camera(64, 64), &BackendKind::ALL);
        assert_eq!(report.rows.len(), 4);
        for row in &report.rows {
            assert!(row.time_s > 0.0, "{}: zero time", row.kind);
            assert_eq!(row.stats.blend_work, report.rows[0].stats.blend_work);
        }
        let speedup = report
            .speedup(BackendKind::Cuda(GpuPreset::OrinNx), BackendKind::Enhanced)
            .unwrap();
        assert!(speedup > 1.0, "gaurast must beat the edge GPU ({speedup})");
        assert!(report.to_string().contains("gscore"));
    }

    #[test]
    fn sequence_reaches_pipeline_steady_state() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cams: Vec<Camera> = vec![camera(64, 64); 12];
        let out = e.render_sequence(&cams);
        assert_eq!(out.reports.len(), 12);
        let last = out.costs.last().unwrap();
        let schedule =
            gaurast_sched::PipelineSchedule::new(last.stages12_s, last.stage3_s).unwrap();
        let fps = out.throughput_fps();
        // Uniform costs: replayed throughput converges to the analytic
        // steady state (small deviation from the fill cycle).
        let steady = schedule.steady_state_fps();
        assert!(
            (fps - steady).abs() / steady < 0.15,
            "sequence {fps} vs steady-state {steady}"
        );
    }

    #[test]
    fn hw_config_sweep_over_one_session() {
        use gaurast_hw::RasterizerConfig;
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cam = camera(96, 64);
        e.set_hw_config(RasterizerConfig::prototype()).unwrap();
        let slow = e.render_frame(&cam).time_s;
        e.set_hw_config(RasterizerConfig::scaled()).unwrap();
        let fast = e.render_frame(&cam).time_s;
        assert!(fast < slow, "15 modules must beat 1 ({fast} vs {slow})");
        let bad = RasterizerConfig {
            modules: 0,
            ..RasterizerConfig::prototype()
        };
        assert!(e.set_hw_config(bad).is_err());
    }

    #[test]
    fn invalid_hw_config_preserves_backend_and_config() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cam = camera(64, 64);
        let before = e.render_frame(&cam);
        let name_before = e.backend_name();
        let config_before = e.hw_config;
        let bad = RasterizerConfig {
            modules: 0,
            ..RasterizerConfig::scaled()
        };
        assert!(e.set_hw_config(bad).is_err());
        // The rejected configuration must leave the session untouched:
        // same config, same backend, same results.
        assert_eq!(e.hw_config, config_before);
        assert_eq!(e.backend_name(), name_before);
        assert_eq!(e.backend_kind(), BackendKind::Enhanced);
        let after = e.render_frame(&cam);
        assert_eq!(after.time_s, before.time_s);
        assert_eq!(after.stats.blend_work, before.stats.blend_work);
    }

    #[test]
    fn switch_backend_keeps_scene_config_and_frame_counter() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cam = camera(64, 64);
        let hw = e.render_frame(&cam);
        let config = e.hw_config;
        e.switch_backend(BackendKind::Software);
        assert_eq!(e.backend_kind(), BackendKind::Software);
        assert_eq!(e.hw_config, config, "hw config survives the switch");
        let sw = e.render_frame(&cam);
        assert_eq!(sw.stats.blend_work, hw.stats.blend_work);
        assert_eq!(e.frames_rendered(), 2, "counter continues across switch");
        e.switch_backend(BackendKind::Enhanced);
        let back = e.render_frame(&cam);
        assert_eq!(back.time_s, hw.time_s, "round trip is lossless");
    }

    #[test]
    fn cloned_session_is_fresh_but_shares_the_scene() {
        let e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let mut clone = e.clone();
        assert!(Arc::ptr_eq(e.prepared(), clone.prepared()));
        assert_eq!(clone.frames_rendered(), 0);
        assert_eq!(clone.backend_kind(), e.backend_kind());
        let r = clone.render_frame(&camera(64, 64));
        assert!(r.stats.blend_work > 0);
        assert_eq!(e.frames_rendered(), 0, "original session untouched");
    }

    #[test]
    fn parallel_session_is_bit_identical_to_serial() {
        let scene = SceneParams::new(900).seed(4).generate().unwrap();
        let mut serial = EngineBuilder::new(scene)
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .workers(1)
            .build()
            .unwrap();
        let mut parallel = EngineBuilder::shared(Arc::clone(serial.prepared()))
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .workers(4)
            .build()
            .unwrap();
        let cam = camera(96, 64);
        let a = serial.render_frame(&cam);
        let b = parallel.render_frame(&cam);
        assert_eq!(serial.workers(), 1);
        assert_eq!(parallel.workers(), 4);
        assert_eq!(
            a.image.unwrap().mean_abs_diff(&b.image.unwrap()),
            0.0,
            "parallel reference pass must be bit-identical"
        );
        assert_eq!(a.stats.blend_work, b.stats.blend_work);
        assert_eq!(a.stats.blends_committed, b.stats.blends_committed);
        assert_eq!(a.stats.visible, b.stats.visible);
        assert_eq!(a.stats.culled, b.stats.culled);
        assert_eq!(a.ops, b.ops);
    }

    #[test]
    fn workers_knob_is_resolved_and_cloned() {
        let scene = SceneParams::new(100).seed(9).generate().unwrap();
        let e = EngineBuilder::new(scene).workers(3).build().unwrap();
        assert_eq!(e.workers(), 3);
        assert_eq!(e.clone().workers(), 3, "clone keeps the worker policy");
    }

    #[test]
    fn vector_modes_are_bit_identical_at_the_engine_level() {
        let scene = SceneParams::new(1200).seed(17).generate().unwrap();
        let mut scalar = EngineBuilder::new(scene)
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .vector_mode(VectorMode::Scalar)
            .build()
            .unwrap();
        assert_eq!(scalar.vector_mode(), VectorMode::Scalar);
        assert_eq!(scalar.simd_level(), scalar.vector_mode().resolve());
        let cam = camera(96, 64);
        let a = scalar.render_frame(&cam);
        for mode in [
            VectorMode::ForceSse,
            VectorMode::ForceAvx2,
            VectorMode::Auto,
        ] {
            let mut e = EngineBuilder::shared(Arc::clone(scalar.prepared()))
                .backend(BackendKind::Software)
                .image_policy(ImagePolicy::Retain)
                .vector_mode(mode)
                .build()
                .unwrap();
            assert_eq!(e.vector_mode(), mode);
            assert_eq!(e.clone().vector_mode(), mode, "clone keeps the mode");
            let b = e.render_frame(&cam);
            assert_eq!(
                a.image
                    .as_ref()
                    .unwrap()
                    .mean_abs_diff(b.image.as_ref().unwrap()),
                0.0,
                "vectorized frame must be bit-identical under {mode:?}"
            );
            assert_eq!(a.ops, b.ops, "op tallies under {mode:?}");
            assert_eq!(a.stats.visible, b.stats.visible);
            assert_eq!(a.stats.culled, b.stats.culled);
            assert_eq!(a.stats.blend_work, b.stats.blend_work);
            assert_eq!(a.stats.blends_committed, b.stats.blends_committed);
        }
    }

    #[test]
    fn culling_is_on_by_default_and_bit_identical() {
        let scene = SceneParams::new(1500).seed(31).generate().unwrap();
        let mut culled = EngineBuilder::new(scene)
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .build()
            .unwrap();
        assert!(culled.frustum_culling());
        let mut full = EngineBuilder::shared(Arc::clone(culled.prepared()))
            .backend(BackendKind::Software)
            .image_policy(ImagePolicy::Retain)
            .frustum_culling(false)
            .build()
            .unwrap();
        assert!(!full.frustum_culling());
        // Off-center view at the scene's edge: the frustum must drop a
        // real fraction while the frame stays bit-identical.
        let cam = Camera::look_at(
            Vec3::new(22.0, 5.0, -20.0),
            Vec3::new(12.0, 0.0, -2.0),
            Vec3::new(0.0, 1.0, 0.0),
            96,
            64,
            1.05,
        )
        .unwrap();
        let a = culled.render_frame(&cam);
        let b = full.render_frame(&cam);
        assert!(a.stats.cull.enabled);
        assert!(
            a.stats.cull.frustum_total() > 0,
            "off-center camera should let the frustum drop something"
        );
        assert!(!b.stats.cull.enabled);
        assert_eq!(
            a.image.unwrap().mean_abs_diff(&b.image.unwrap()),
            0.0,
            "culled frame must be bit-identical"
        );
        // (time_s is wall-clock on the software backend — not compared.)
        assert_eq!(a.ops, b.ops);
        assert_eq!(a.stats.visible, b.stats.visible);
        assert_eq!(a.stats.culled, b.stats.culled);
        assert_eq!(a.stats.blend_work, b.stats.blend_work);
        assert_eq!(a.stats.pairs, b.stats.pairs);
        assert_eq!(a.stats.blends_committed, b.stats.blends_committed);
        // Both frames carry the measured Stage-2 wall split.
        assert!(a.stats.sort_s > 0.0 && b.stats.sort_s > 0.0);
    }

    #[test]
    fn repeated_frames_hit_the_visibility_cache() {
        let mut e = engine(BackendKind::Enhanced, ImagePolicy::Discard);
        let cam = camera(64, 64);
        let first = e.render_frame(&cam);
        assert!(first.stats.cull.enabled);
        assert!(!first.stats.cull.cache_hit, "first frame must build");
        let second = e.render_frame(&cam);
        assert!(second.stats.cull.cache_hit, "repeat pose must hit");
        assert_eq!(first.time_s, second.time_s);
        assert_eq!(e.visibility_cache().len(), 1);
        assert_eq!(e.visibility_cache().hits(), 1);
        // A sequence over one camera keeps hitting the same set.
        let out = e.render_sequence(&vec![cam; 4]);
        assert!(out.reports.iter().all(|r| r.stats.cull.cache_hit));
    }

    #[test]
    fn empty_sequence_is_harmless() {
        let mut e = engine(BackendKind::Software, ImagePolicy::Discard);
        let out = e.render_sequence(&[]);
        assert!(out.reports.is_empty());
        assert_eq!(out.schedule.throughput_fps(), 0.0);
    }
}
