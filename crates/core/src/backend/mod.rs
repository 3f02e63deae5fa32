//! The unified execution-backend abstraction.
//!
//! The paper's evaluation is a *comparison* across execution substrates:
//! the software reference, the GauRast enhanced rasterizer, calibrated
//! CUDA baseline GPUs, and the GSCore accelerator. This module gives every
//! substrate the same frame-level contract — a [`Backend`] executes a
//! [`Frame`] and returns a [`FrameReport`] — so experiments, examples, and
//! the [`Engine`](crate::engine::Engine) can treat them interchangeably.
//!
//! All backends bill exactly the same work: the engine runs Stages 1–2 and
//! one reference Stage-3 pass per frame, producing a
//! [`RasterWorkload`] whose per-tile
//! processed counts every backend consumes (the methodology of DESIGN.md
//! §6, decision 1, now enforced by the type system instead of by
//! convention).

use gaurast_render::pipeline::PreprocessStats;
use gaurast_render::rasterize::RasterStats;
use gaurast_render::{Framebuffer, RasterWorkload};

mod cuda;
mod enhanced;
mod gscore;
mod software;

pub use cuda::CudaGpuBackend;
pub use enhanced::EnhancedRasterizerBackend;
pub use gscore::GscoreBackend;
pub use software::SoftwareBackend;

/// Baseline GPU device preset for [`BackendKind::Cuda`].
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum GpuPreset {
    /// NVIDIA Jetson Orin NX at 10 W — the paper's baseline edge SoC.
    OrinNx,
    /// NVIDIA Jetson Xavier NX — GSCore's host (§V-C).
    XavierNx,
    /// NVIDIA RTX A6000 — the ≥200 W desktop class of the introduction.
    RtxA6000,
    /// Apple M2 Pro running OpenSplat (§V-D).
    M2Pro,
}

impl GpuPreset {
    /// The calibrated analytical model of this device.
    pub fn model(self) -> gaurast_gpu::CudaGpuModel {
        use gaurast_gpu::device;
        match self {
            GpuPreset::OrinNx => device::orin_nx(),
            GpuPreset::XavierNx => device::xavier_nx(),
            GpuPreset::RtxA6000 => device::rtx_a6000(),
            GpuPreset::M2Pro => device::m2_pro(),
        }
    }
}

/// Which execution substrate a backend models.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum BackendKind {
    /// The software reference renderer (`gaurast_render`), timed on the
    /// host.
    Software,
    /// The GauRast enhanced rasterizer cycle model (`gaurast_hw`).
    Enhanced,
    /// A calibrated CUDA baseline GPU model (`gaurast_gpu`).
    Cuda(GpuPreset),
    /// The GSCore accelerator model (`gaurast_gscore`).
    Gscore,
}

impl BackendKind {
    /// Every comparable substrate, in the order the paper discusses them:
    /// software reference, CUDA baseline, GSCore, GauRast.
    pub const ALL: [BackendKind; 4] = [
        BackendKind::Software,
        BackendKind::Cuda(GpuPreset::OrinNx),
        BackendKind::Gscore,
        BackendKind::Enhanced,
    ];

    /// Short display label.
    pub fn label(self) -> &'static str {
        match self {
            BackendKind::Software => "software",
            BackendKind::Enhanced => "gaurast",
            BackendKind::Cuda(GpuPreset::OrinNx) => "cuda-orin-nx",
            BackendKind::Cuda(GpuPreset::XavierNx) => "cuda-xavier-nx",
            BackendKind::Cuda(GpuPreset::RtxA6000) => "cuda-rtx-a6000",
            BackendKind::Cuda(GpuPreset::M2Pro) => "cuda-m2-pro",
            BackendKind::Gscore => "gscore",
        }
    }
}

impl std::fmt::Display for BackendKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// The per-frame product of the engine's reference pass, shared by every
/// backend executing that frame.
#[derive(Clone, Debug)]
pub struct ReferencePass {
    /// Stage-1 statistics of the frame.
    pub preprocess: PreprocessStats,
    /// Visible-set statistics when frustum culling ran for this frame
    /// (the culled Gaussians are *also* counted in
    /// `preprocess.culled` — the visible-set path reproduces the full
    /// pass's accounting bit for bit, this just attributes them).
    pub cull: CullStats,
    /// Reference Stage-3 statistics (pairs, blends, FP-op tallies).
    pub raster: RasterStats,
    /// Host wall-clock seconds the reference Stage-3 pass took.
    pub wall_s: f64,
    /// Host wall-clock seconds Stage 2 took (depth sort + tile count +
    /// CSR scatter).
    pub sort_wall_s: f64,
    /// The reference image, present when the session retains images and a
    /// requested backend reports the reference image (the enhanced
    /// rasterizer renders its own, so enhanced-only frames skip this).
    /// Backends leave it in place; the engine moves it into the report
    /// after `execute` (no per-frame framebuffer clone).
    pub image: Option<Framebuffer>,
}

/// One frame of work handed to a backend: the finalized workload (processed
/// counts recorded) plus the engine's reference-pass results.
#[derive(Clone, Debug)]
pub struct Frame<'a> {
    /// The Stage-1/2 product with per-tile processed counts filled in.
    pub workload: &'a RasterWorkload,
    /// The reference pass the engine already ran for this frame.
    pub reference: &'a ReferencePass,
    /// Whether the backend should include an image in its report.
    pub retain_image: bool,
}

/// Visible-set (frustum-culling) statistics for one frame. All zeros when
/// culling is disabled. The counts attribute a subset of the frame's
/// Stage-1 culls to the prefilter; they never change the totals — the
/// visible-set path is bit-identical to the full pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CullStats {
    /// `true` when the frame ran Stage 1 over a frustum-culled visible
    /// set.
    pub enabled: bool,
    /// Gaussians the visible set dropped by the depth (near/far) test.
    pub frustum_depth: usize,
    /// Gaussians the visible set dropped laterally (footprint certainly
    /// off-image).
    pub frustum_lateral: usize,
    /// `true` when the visible set came from the session's
    /// [`VisibilityCache`](gaurast_scene::VisibilityCache) instead of
    /// being rebuilt.
    pub cache_hit: bool,
}

impl CullStats {
    /// Total Gaussians the visible set dropped before Stage 1.
    pub fn frustum_total(&self) -> usize {
        self.frustum_depth + self.frustum_lateral
    }
}

/// Frame statistics common to every backend. The workload-derived fields
/// (`blend_work`, `pairs`, `mean_list`, `visible`, `culled`,
/// `blends_committed`) are filled by the engine after `execute`, since all
/// backends bill identical work; backends themselves fill `utilization`.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FrameStats {
    /// Total Gaussian-pixel blend operations billed (`W`).
    pub blend_work: u64,
    /// (splat, tile) pairs — the Stage-2 sort workload.
    pub pairs: u64,
    /// Mean processed tile-list length over non-empty tiles.
    pub mean_list: f64,
    /// Gaussians surviving culling in Stage 1.
    pub visible: usize,
    /// Gaussians culled in Stage 1.
    pub culled: usize,
    /// Blends the reference pass committed (identical across backends).
    pub blends_committed: u64,
    /// Host wall-clock seconds of the reference pass's Stage 2 — the
    /// depth sort + CSR binning time split out from the frame (the
    /// modeled device-side Stage-2 cost lives in the host model's
    /// radix-sort estimate, [`gaurast_gpu::CudaGpuModel::sort_time`]).
    pub sort_s: f64,
    /// Of `culled`, Gaussians dropped for a non-finite projection
    /// (overflowed covariance).
    pub culled_non_finite: usize,
    /// Visible-set (frustum-culling) statistics for the frame.
    pub cull: CullStats,
    /// Execution-unit utilization, when the backend models one (0 for
    /// analytical backends).
    pub utilization: f64,
}

/// What one backend reports for one executed frame.
#[derive(Clone, Debug)]
pub struct FrameReport {
    /// Which substrate executed.
    pub kind: BackendKind,
    /// The rendered image, when requested and available. The enhanced
    /// rasterizer renders through its own PE datapath (bit-exact with the
    /// reference in FP32); analytical backends return the reference image,
    /// which is what their modeled kernels compute.
    pub image: Option<Framebuffer>,
    /// Stage-3 (rasterization) time on this substrate, seconds.
    pub time_s: f64,
    /// Stage-3 energy on this substrate, joules. Zero for substrates
    /// without a power model (software host, GSCore's published envelope).
    pub energy_j: f64,
    /// Primitive-pixel operations this substrate issued for the frame (the
    /// backend-specific work measure: evaluated pairs for software, issued
    /// PE pairs for the enhanced rasterizer, billed blends for CUDA,
    /// subtile-refined work for GSCore).
    pub ops: u64,
    /// Common frame statistics.
    pub stats: FrameStats,
}

impl FrameReport {
    /// Frames per second this substrate's rasterization rate alone would
    /// sustain (0 for a zero-time frame, e.g. an empty workload).
    pub fn raster_fps(&self) -> f64 {
        if self.time_s > 0.0 {
            1.0 / self.time_s
        } else {
            0.0
        }
    }

    /// Average power over the frame, W (0 when no energy was modeled).
    pub fn average_power_w(&self) -> f64 {
        if self.time_s > 0.0 {
            self.energy_j / self.time_s
        } else {
            0.0
        }
    }
}

/// A frame-level execution substrate.
///
/// Backends are sessions: `prepare` is called once per frame before
/// `execute` and may warm caches or resize internal scratch; `execute`
/// consumes the frame and reports timing, energy, and statistics.
pub trait Backend: std::fmt::Debug {
    /// Which substrate this is.
    fn kind(&self) -> BackendKind;

    /// Human-readable name (device/configuration specific).
    fn name(&self) -> String {
        self.kind().label().to_string()
    }

    /// Per-frame warm-up hook; the default does nothing.
    fn prepare(&mut self, workload: &RasterWorkload) {
        let _ = workload;
    }

    /// Executes one frame and reports the result.
    fn execute(&mut self, frame: Frame<'_>) -> FrameReport;
}
