//! End-to-end orchestration of the three-stage 3DGS pipeline.

use crate::framebuffer::Framebuffer;
use crate::ops::OpCounts;
use crate::pool::WorkerPool;
use crate::preprocess::{preprocess_pooled_level, PreprocessOutput};
use crate::rasterize::{rasterize_with_level, RasterStats};
use crate::simd::VectorMode;
use crate::tile::bin_splats_pooled;
use crate::workload::{FrameArena, RasterWorkload};
use crate::DEFAULT_TILE_SIZE;
use gaurast_scene::{Camera, GaussianScene};

/// The Stage-2 implementation: packed `(tile, depth)` keys, one parallel
/// LSD radix sort, and a flat CSR workload ([`bin_splats_pooled`]).
///
/// There is one implementation, so this enum has one variant, and every
/// frame path in the workspace calls [`bin_splats_pooled`] directly. The
/// type stays only because the `sessionbench` replay
/// (`sessionbench/src/replay.rs`) names `Stage2Mode::KeySorted`; delete it
/// together with that call.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum Stage2Mode {
    /// Packed keys + radix sort into a flat CSR workload — the
    /// architecture the hw/gscore models simulate.
    #[default]
    KeySorted,
}

impl Stage2Mode {
    /// Runs Stage 2 out of `arena`: forwards to [`bin_splats_pooled`].
    pub fn bin(
        self,
        splats: Vec<crate::Splat2D>,
        width: u32,
        height: u32,
        tile_size: u32,
        arena: &mut FrameArena,
        pool: &WorkerPool,
    ) -> RasterWorkload {
        bin_splats_pooled(splats, width, height, tile_size, arena, pool)
    }
}

/// Pipeline configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct RenderConfig {
    /// Tile edge in pixels (16 in the reference and in GauRast).
    pub tile_size: u32,
    /// Intra-frame worker threads: Stage 1 runs in Gaussian chunks,
    /// Stage 2's key emission in splat chunks and its radix sort in key
    /// chunks, and Stage 3 as per-tile jobs over a pool this wide. `0`
    /// (the default) resolves to the `GAURAST_WORKERS` environment
    /// variable or the machine's available parallelism
    /// ([`crate::pool::resolve_workers`]); `1` is exactly the historical
    /// serial path. Output is bit-identical for every value.
    pub workers: usize,
    /// Vector data path for the Stage-1/Stage-3 hot loops
    /// ([`VectorMode::Auto`] by default — widest supported SIMD level,
    /// scalar where unsupported). Resolved once per frame; every mode is
    /// bit-identical (see [`crate::simd`]), overridable process-wide via
    /// the [`crate::simd::VECTOR_ENV`] environment variable.
    pub vector_mode: VectorMode,
}

impl Default for RenderConfig {
    fn default() -> Self {
        Self {
            tile_size: DEFAULT_TILE_SIZE,
            workers: 0,
            vector_mode: VectorMode::default(),
        }
    }
}

impl RenderConfig {
    /// The worker pool this configuration selects (see
    /// [`RenderConfig::workers`]).
    pub fn worker_pool(&self) -> WorkerPool {
        WorkerPool::new(self.workers)
    }

    /// A configuration identical to this one but with an explicit worker
    /// count.
    pub fn with_workers(self, workers: usize) -> Self {
        Self { workers, ..self }
    }

    /// A configuration identical to this one but with an explicit vector
    /// mode.
    pub fn with_vector_mode(self, vector_mode: VectorMode) -> Self {
        Self {
            vector_mode,
            ..self
        }
    }
}

/// Everything one frame produces: the image, the workload (with processed
/// counts filled in), and per-stage statistics.
#[derive(Clone, Debug, PartialEq)]
pub struct RenderOutput {
    /// Rendered image.
    pub image: Framebuffer,
    /// The Stage-1/2 product consumed by the architecture models.
    pub workload: RasterWorkload,
    /// Stage-1 statistics (culling, FP ops).
    pub preprocess: PreprocessStats,
    /// Stage-3 statistics (pairs, blends, per-subtask ops).
    pub raster: RasterStats,
}

/// Stage-1 summary retained in [`RenderOutput`] (the splats themselves live
/// in the workload).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct PreprocessStats {
    /// Gaussians surviving culling.
    pub visible: usize,
    /// Gaussians culled.
    pub culled: usize,
    /// Of `culled`, Gaussians dropped for a non-finite projection
    /// (overflowed covariance) — see
    /// [`PreprocessOutput::culled_non_finite`].
    pub non_finite: usize,
    /// FP operations spent in Stage 1.
    pub ops: OpCounts,
}

impl From<&PreprocessOutput> for PreprocessStats {
    fn from(p: &PreprocessOutput) -> Self {
        Self {
            visible: p.splats.len(),
            culled: p.culled,
            non_finite: p.culled_non_finite,
            ops: p.ops,
        }
    }
}

/// Runs Stages 1–3 for one frame.
///
/// # Example
/// ```
/// use gaurast_render::pipeline::{render, RenderConfig};
/// use gaurast_scene::generator::SceneParams;
/// use gaurast_scene::Camera;
/// use gaurast_math::Vec3;
///
/// let scene = SceneParams::new(200).generate()?;
/// let cam = Camera::look_at(Vec3::new(0.0, 5.0, -25.0), Vec3::zero(),
///                           Vec3::new(0.0, 1.0, 0.0), 64, 64, 1.0)?;
/// let out = render(&scene, &cam, &RenderConfig::default());
/// assert!(out.workload.blend_work() > 0);
/// # Ok::<(), gaurast_scene::SceneError>(())
/// ```
pub fn render(scene: &GaussianScene, camera: &Camera, config: &RenderConfig) -> RenderOutput {
    render_with_arena(scene, camera, config, &mut FrameArena::new())
}

/// [`render`] with a caller-held [`FrameArena`] and a pool built from the
/// config — a convenience over [`render_with_pool`] for callers without a
/// long-lived pool. Recycle the workload back into the arena after the
/// frame ([`RasterWorkload::recycle_into`]) and steady-state Stage 2 —
/// key emission, radix sort, CSR assembly, processed counts — makes no
/// data-path allocations. Sessions should hold a persistent pool and call
/// [`render_with_pool`] instead, which is also spawn-free per frame.
pub fn render_with_arena(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
    arena: &mut FrameArena,
) -> RenderOutput {
    let pool = config.worker_pool();
    render_with_pool(scene, camera, config, arena, &pool)
}

/// [`render`] with a caller-held [`FrameArena`] **and** a caller-held
/// persistent [`WorkerPool`] — the session hot path the engine uses.
/// Steady-state frames neither spawn threads (the pool's workers are
/// parked between dispatches) nor allocate in the Stage-2 data path (the
/// arena recycles every buffer).
///
/// The stages run one after another, each fanned over `pool`: chunked
/// Stage-1 preprocessing, Stage 2 ([`bin_splats_pooled`]: pooled key
/// emission, radix sort, CSR), then per-tile Stage-3 jobs. Output is
/// **bit-identical** at every worker count.
pub fn render_with_pool(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
    arena: &mut FrameArena,
    pool: &WorkerPool,
) -> RenderOutput {
    let mut image = Framebuffer::new(camera.width(), camera.height());
    let (workload, preprocess, raster) =
        run_frame(scene, camera, config, arena, pool, Some(&mut image));
    RenderOutput {
        image,
        workload,
        preprocess,
        raster,
    }
}

/// Everything one record-only frame produces: the workload with processed
/// counts filled in, plus per-stage statistics — [`RenderOutput`] minus the
/// image.
#[derive(Clone, Debug, PartialEq)]
pub struct WorkloadOutput {
    /// The Stage-1/2 product consumed by the architecture models, with the
    /// reference pass's processed counts recorded.
    pub workload: RasterWorkload,
    /// Stage-1 statistics (culling, FP ops).
    pub preprocess: PreprocessStats,
    /// Stage-3 statistics (pairs, blends, per-subtask ops).
    pub raster: RasterStats,
}

/// Runs Stages 1–3 in record-only mode: the reference Stage-3 pass fills
/// the per-tile processed counts and statistics, but no framebuffer is
/// allocated or written. This is the entry point for workload construction
/// when the image would be discarded (the architecture-model path).
///
/// Record-only frames run the *same* chunked-preprocess and tile-job
/// decomposition as [`render`] — the only difference is that the tile
/// jobs get no framebuffer views — so all counts stay bit-identical with
/// the imaging path at every worker count.
pub fn render_record_only(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
) -> WorkloadOutput {
    let pool = config.worker_pool();
    render_record_only_with_pool(scene, camera, config, &mut FrameArena::new(), &pool)
}

/// [`render_record_only`] with a caller-held [`FrameArena`] and persistent
/// [`WorkerPool`] — the record-only analogue of [`render_with_pool`], with
/// the same spawn-free, steady-state-allocation-free contract.
pub fn render_record_only_with_pool(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
    arena: &mut FrameArena,
    pool: &WorkerPool,
) -> WorkloadOutput {
    let (workload, preprocess, raster) = run_frame(scene, camera, config, arena, pool, None);
    WorkloadOutput {
        workload,
        preprocess,
        raster,
    }
}

/// Runs one frame — Stage 1, Stage 2 and the reference Stage-3 pass, one
/// pooled stage after another — writing pixels only when `image` is
/// provided. The same three calls make up `Engine`'s reference pass.
fn run_frame(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
    arena: &mut FrameArena,
    pool: &WorkerPool,
    image: Option<&mut Framebuffer>,
) -> (RasterWorkload, PreprocessStats, RasterStats) {
    // One resolution per frame: CPUID probe and env override are cached
    // process-wide, so this is a pair of cheap enum reads.
    let level = config.vector_mode.resolve();
    let pre = preprocess_pooled_level(scene, camera, pool, level);
    let preprocess = PreprocessStats::from(&pre);
    let mut workload = bin_splats_pooled(
        pre.splats,
        camera.width(),
        camera.height(),
        config.tile_size,
        arena,
        pool,
    );
    let raster = rasterize_with_level(&mut workload, image, pool, level);
    (workload, preprocess, raster)
}

/// Builds only the workload (Stages 1–2 plus a record-only reference
/// Stage-3 pass for the processed counts) — the common entry point for the
/// architecture models. Unlike a full [`render`], no framebuffer is
/// allocated or filled.
pub fn build_workload(
    scene: &GaussianScene,
    camera: &Camera,
    config: &RenderConfig,
) -> RasterWorkload {
    render_record_only(scene, camera, config).workload
}

#[cfg(test)]
mod tests {
    use super::*;
    use gaurast_math::Vec3;
    use gaurast_scene::generator::SceneParams;
    use gaurast_scene::nerf360::{Nerf360Scene, SceneScale};

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

    #[test]
    fn full_frame_has_work_and_coverage() {
        let scene = SceneParams::new(3000).seed(11).generate().unwrap();
        let out = render(&scene, &camera(128, 96), &RenderConfig::default());
        assert!(out.preprocess.visible > 100);
        assert!(out.workload.blend_work() > 0);
        assert!(
            out.image.coverage() > 0.05,
            "coverage {}",
            out.image.coverage()
        );
        assert!(out.raster.blends_committed > 0);
    }

    #[test]
    fn nerf360_scene_renders() {
        let desc = Nerf360Scene::Bonsai.descriptor();
        let scene = desc.synthesize(SceneScale::UNIT_TEST);
        let cam = desc.camera(SceneScale::UNIT_TEST, 0.3).unwrap();
        let out = render(&scene, &cam, &RenderConfig::default());
        assert!(out.image.coverage() > 0.01);
        assert!(out.workload.total_pairs() > 0);
    }

    #[test]
    fn tile_size_changes_grid_not_image() {
        let scene = SceneParams::new(500).generate().unwrap();
        let cam = camera(64, 64);
        let a = render(
            &scene,
            &cam,
            &RenderConfig {
                tile_size: 16,
                ..RenderConfig::default()
            },
        );
        let b = render(
            &scene,
            &cam,
            &RenderConfig {
                tile_size: 8,
                ..RenderConfig::default()
            },
        );
        assert_eq!(a.workload.tile_count(), 16);
        assert_eq!(b.workload.tile_count(), 64);
        // Rendered images agree except for tile-level early-termination
        // differences, which only suppress invisible (saturated) tails.
        assert!(a.image.mean_abs_diff(&b.image) < 1e-3);
    }

    #[test]
    fn build_workload_matches_render() {
        let scene = SceneParams::new(400).generate().unwrap();
        let cam = camera(64, 64);
        let cfg = RenderConfig::default();
        let w = build_workload(&scene, &cam, &cfg);
        let out = render(&scene, &cam, &cfg);
        assert_eq!(w.blend_work(), out.workload.blend_work());
    }

    #[test]
    fn mini_splatting_reduces_blend_work() {
        let scene = SceneParams::new(4000).seed(3).generate().unwrap();
        let simplified = gaurast_scene::mini_splatting::simplify(
            &scene,
            gaurast_scene::mini_splatting::MiniSplatConfig::PAPER,
        )
        .unwrap();
        let cam = camera(128, 128);
        let cfg = RenderConfig::default();
        let full = build_workload(&scene, &cam, &cfg);
        let mini = build_workload(&simplified, &cam, &cfg);
        let ratio = mini.blend_work() as f64 / full.blend_work() as f64;
        assert!(ratio < 0.7, "mini-splatting work ratio {ratio}");
        assert!(ratio > 0.02);
    }
}
